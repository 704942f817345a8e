//! Dense, row-major `f32` n-dimensional array.
//!
//! [`Tensor`] is the single data container used throughout the workspace:
//! mini-batches, activations, gradients and parameter blocks are all tensors.
//! The design goal is predictability over generality — contiguous storage,
//! explicit shapes, and fallible ops that return [`TensorError`] instead of
//! panicking in library code.

use crate::rng::Prng;
use crate::{Result, TensorError};

/// A dense, row-major `f32` n-dimensional array.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Create a tensor filled with zeros.
    ///
    /// # Panics
    /// Panics if `shape` contains a zero dimension (an empty tensor is almost
    /// always a logic bug in this workspace).
    pub fn zeros(shape: &[usize]) -> Self {
        #[expect(clippy::expect_used, reason = "documented panic on invalid shape")]
        let n = checked_len(shape).expect("Tensor::zeros: invalid shape");
        Tensor {
            data: vec![0.0; n],
            shape: shape.to_vec(),
        }
    }

    /// Create a tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        #[expect(clippy::expect_used, reason = "documented panic on invalid shape")]
        let n = checked_len(shape).expect("Tensor::full: invalid shape");
        Tensor {
            data: vec![value; n],
            shape: shape.to_vec(),
        }
    }

    /// Build a tensor from an existing buffer.
    ///
    /// Returns an error when the buffer length does not match the shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let n = checked_len(shape)?;
        if n != data.len() {
            return Err(TensorError::InvalidShape(format!(
                "buffer of {} elements cannot have shape {:?} ({} elements)",
                data.len(),
                shape,
                n
            )));
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Sample every element i.i.d. from `N(0, std^2)`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut Prng) -> Self {
        #[expect(clippy::expect_used, reason = "documented panic on invalid shape")]
        let n = checked_len(shape).expect("Tensor::randn: invalid shape");
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(rng.normal() * std);
        }
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Sample every element i.i.d. from `U(-limit, limit)` (He/Glorot style
    /// fan-in init is built on top of this in the layers).
    pub fn rand_uniform(shape: &[usize], limit: f32, rng: &mut Prng) -> Self {
        #[expect(clippy::expect_used, reason = "documented panic on invalid shape")]
        let n = checked_len(shape).expect("Tensor::rand_uniform: invalid shape");
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push((rng.uniform() * 2.0 - 1.0) * limit);
        }
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements (never the case for tensors
    /// produced by this crate's constructors, but kept for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret the buffer with a new shape of identical element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let n = checked_len(shape)?;
        if n != self.len() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                lhs: self.shape.clone(),
                rhs: shape.to_vec(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// In-place reshape (no data movement).
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<()> {
        let n = checked_len(shape)?;
        if n != self.len() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape_in_place",
                lhs: self.shape.clone(),
                rhs: shape.to_vec(),
            });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(())
    }

    /// Re-purpose this tensor's storage for a new shape, reusing the existing
    /// buffer and shape capacity (no allocation once capacity suffices —
    /// this is the primitive [`crate::scratch::Scratch`] is built on).
    ///
    /// Contents after the call are **unspecified**: elements retained from the
    /// previous use are stale and the caller must overwrite every element it
    /// reads.
    ///
    /// # Panics
    /// Panics if `shape` contains a zero dimension.
    pub fn reuse(&mut self, shape: &[usize]) {
        #[expect(clippy::expect_used, reason = "documented panic on invalid shape")]
        let n = checked_len(shape).expect("Tensor::reuse: invalid shape");
        self.data.resize(n, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Element at a multi-dimensional index. Debug-asserts bounds.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Mutable element access at a multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    #[inline]
    fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            debug_assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} (dim {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Elementwise addition, `self + rhs`.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise subtraction, `self - rhs`.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// In-place `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        self.zip_assign(rhs, "add_assign", |a, b| *a += b)
    }

    /// In-place `self -= rhs`.
    pub fn sub_assign(&mut self, rhs: &Tensor) -> Result<()> {
        self.zip_assign(rhs, "sub_assign", |a, b| *a -= b)
    }

    /// In-place `self += alpha * rhs` (the BLAS `axpy` primitive).
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<()> {
        self.zip_assign(rhs, "axpy", |a, b| *a += alpha * b)
    }

    /// In-place scaling, `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Map every element through `f`, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Squared L2 norm, `sum(x_i^2)`.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Dot product with another tensor of identical element count.
    pub fn dot(&self, rhs: &Tensor) -> Result<f64> {
        if self.len() != rhs.len() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum())
    }

    /// Maximum element; `None` for empty tensors.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Index of the maximum element along the last axis for each "row".
    ///
    /// For a `[batch, classes]` tensor this is the per-sample argmax used by
    /// accuracy evaluation.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let cols = *self.shape.last().unwrap_or(&1);
        if cols == 0 {
            return Vec::new();
        }
        self.data
            .chunks_exact(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    fn zip_assign(
        &mut self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(&mut f32, f32),
    ) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            f(a, b);
        }
        Ok(())
    }
}

fn checked_len(shape: &[usize]) -> Result<usize> {
    if shape.is_empty() {
        return Err(TensorError::InvalidShape("empty shape".into()));
    }
    let mut n = 1usize;
    for &d in shape {
        if d == 0 {
            return Err(TensorError::InvalidShape(format!(
                "zero dimension in shape {shape:?}"
            )));
        }
        n = n
            .checked_mul(d)
            .ok_or_else(|| TensorError::InvalidShape(format!("shape {shape:?} overflows usize")))?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidShape(_)));
    }

    #[test]
    fn from_vec_rejects_zero_dim() {
        let err = Tensor::from_vec(vec![], &[0, 3]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidShape(_)));
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[0, 2]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    fn elementwise_ops_match_reference() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0, 33.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[9.0, 18.0, 27.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[10.0, 40.0, 90.0]);
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn axpy_matches_manual_update() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, -4.0], &[2]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.sq_norm(), 14.0);
        assert_eq!(t.max(), Some(3.0));
    }

    #[test]
    fn argmax_rows_per_sample() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn randn_is_seeded_deterministic() {
        let mut r1 = Prng::seed_from_u64(7);
        let mut r2 = Prng::seed_from_u64(7);
        let a = Tensor::randn(&[16], 1.0, &mut r1);
        let b = Tensor::randn(&[16], 1.0, &mut r2);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn randn_has_sane_moments() {
        let mut rng = Prng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {} too far from 0", t.mean());
        let var = t.sq_norm() / t.len() as f64;
        assert!((var - 1.0).abs() < 0.08, "variance {var} too far from 1");
    }
}
