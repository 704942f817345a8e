//! # fedtrip-tensor
//!
//! A small, self-contained CPU tensor and neural-network substrate built for
//! the FedTrip reproduction. The paper trains MLP / CNN / AlexNet models with
//! SGD(+momentum) inside a federated simulation; everything those training
//! loops need lives here:
//!
//! * [`Tensor`] — a dense, row-major `f32` n-d array with the elementwise and
//!   reduction operations used by layers and federated algorithms.
//! * [`linalg`] — a packed, register-tiled SGEMM (BLIS-style cache blocking
//!   with a runtime-dispatched AVX2 micro-kernel) plus a tiled transpose.
//! * [`layers`] — forward/backward layers (dense, conv2d, max-pool, ReLU,
//!   flatten, softmax-cross-entropy) with analytic FLOP accounting.
//! * [`net`] — [`net::Sequential`], a feed-forward network whose parameters
//!   can be viewed as a single flat vector (the representation federated
//!   algorithms operate on).
//! * [`optim`] — SGD and SGD-with-momentum, the two optimizers used in the
//!   paper's experiments (§V-A).
//! * [`vecops`] — fused vector kernels for the regularizers (FedProx /
//!   FedTrip / FedDyn all reduce to axpy-style updates over `&[f32]`).
//! * [`compress`] — affine integer quantization and top-k magnitude
//!   selection, the building blocks of the communication codecs in
//!   `fedtrip_core::compression`.
//! * [`rng`] — deterministic, splittable random number helpers so that
//!   parallel client training stays bit-reproducible.
//!
//! The crate deliberately avoids any autograd graph: every layer implements
//! an explicit `backward`, which keeps the computational cost model exact —
//! the paper's evaluation (Tables V and VIII) is phrased in FLOPs of forward,
//! backward and "attaching" operations, and we account for each of them
//! analytically.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type,
    clippy::undocumented_unsafe_blocks
)]

pub mod compress;
pub mod conv;
pub mod layers;
pub mod linalg;
pub mod net;
pub mod optim;
pub mod rng;
pub mod rng_tags;
pub mod scratch;
pub mod tensor;
pub mod vecops;

pub use net::Sequential;
pub use optim::{GradAdjust, Optimizer, Sgd, SgdMomentum};
pub use scratch::Scratch;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the failed operation.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: Vec<usize>,
        /// Shape of the right/second operand.
        rhs: Vec<usize>,
    },
    /// A shape with zero or inconsistent element count was supplied.
    InvalidShape(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::InvalidShape(msg) => write!(f, "invalid shape: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
