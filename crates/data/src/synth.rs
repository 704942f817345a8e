//! Procedural class-conditional image datasets.
//!
//! Each class of a dataset owns a *prototype* image — a seeded mixture of
//! Gaussian blobs (per channel). A sample is the prototype under a random
//! integer translation and amplitude scaling, plus per-pixel Gaussian noise,
//! and (to give the paper's "target accuracy" thresholds meaning) a fixed
//! fraction of samples carry a *flipped label*, which caps the achievable
//! accuracy per dataset near the paper's reported plateaus.
//!
//! Determinism: pixels and the (possibly flipped) label of a sample are pure
//! functions of `(dataset seed, class, sample id)` — no global state, no
//! materialized samples (only the read-only pattern tables built with the
//! dataset), safe to synthesize concurrently from rayon workers.

use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;
use fedtrip_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The four dataset presets of paper Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// MNIST-like: 28x28 grayscale, 10 classes, 600 samples/client.
    MnistLike,
    /// FashionMNIST-like: 28x28 grayscale, 10 classes, 1000 samples/client.
    FmnistLike,
    /// EMNIST-like: 28x28 grayscale, 47 classes, 3000 samples/client.
    EmnistLike,
    /// CIFAR-10-like: 32x32 RGB, 10 classes, 2000 samples/client.
    Cifar10Like,
}

impl DatasetKind {
    /// All presets, in the paper's Table II order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::MnistLike,
        DatasetKind::FmnistLike,
        DatasetKind::EmnistLike,
        DatasetKind::Cifar10Like,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::MnistLike => "MNIST",
            DatasetKind::FmnistLike => "FMNIST",
            DatasetKind::EmnistLike => "EMNIST",
            DatasetKind::Cifar10Like => "CIFAR-10",
        }
    }

    /// The dataset geometry and difficulty parameters.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetKind::MnistLike => DatasetSpec {
                kind: *self,
                classes: 10,
                channels: 1,
                height: 28,
                width: 28,
                total_samples: 60_000,
                client_samples: 600,
                pixel_noise: 0.55,
                jitter: 3,
                label_flip: 0.02,
                blob_count: 4,
                class_scale: 0.55,
                amp_jitter: 0.35,
            },
            DatasetKind::FmnistLike => DatasetSpec {
                kind: *self,
                classes: 10,
                channels: 1,
                height: 28,
                width: 28,
                total_samples: 60_000,
                client_samples: 1_000,
                pixel_noise: 0.60,
                jitter: 3,
                label_flip: 0.08,
                blob_count: 3,
                class_scale: 0.60,
                amp_jitter: 0.45,
            },
            DatasetKind::EmnistLike => DatasetSpec {
                kind: *self,
                classes: 47,
                channels: 1,
                height: 28,
                width: 28,
                total_samples: 112_800,
                client_samples: 3_000,
                pixel_noise: 0.45,
                jitter: 2,
                label_flip: 0.15,
                blob_count: 4,
                class_scale: 0.85,
                amp_jitter: 0.35,
            },
            DatasetKind::Cifar10Like => DatasetSpec {
                kind: *self,
                classes: 10,
                channels: 3,
                height: 32,
                width: 32,
                total_samples: 50_000,
                client_samples: 2_000,
                pixel_noise: 0.90,
                jitter: 3,
                label_flip: 0.20,
                blob_count: 3,
                class_scale: 0.40,
                amp_jitter: 0.55,
            },
        }
    }
}

/// Geometry + difficulty of one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Which preset this spec belongs to.
    pub kind: DatasetKind,
    /// Number of classes.
    pub classes: usize,
    /// Image channels (1 = grayscale, 3 = RGB).
    pub channels: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Total training samples (paper Table II "Total Samples").
    pub total_samples: usize,
    /// Training samples held by each client (paper Table II).
    pub client_samples: usize,
    /// Standard deviation of additive pixel noise.
    pub pixel_noise: f32,
    /// Maximum absolute integer translation applied to the prototype.
    pub jitter: i32,
    /// Fraction of samples whose label is flipped to a random other class —
    /// this bounds achievable accuracy and makes "target accuracy" rows
    /// meaningful.
    pub label_flip: f64,
    /// Gaussian blobs per prototype channel.
    pub blob_count: usize,
    /// Amplitude of the class-specific pattern relative to the shared
    /// (class-independent) background pattern. Smaller values make classes
    /// harder to tell apart.
    pub class_scale: f32,
    /// Per-sample multiplicative jitter on each class blob's amplitude
    /// (intra-class appearance variability).
    pub amp_jitter: f32,
}

impl DatasetSpec {
    /// Elements of one sample (`channels * height * width`).
    pub fn sample_elems(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Per-sample tensor shape `[channels, height, width]`.
    pub fn sample_shape(&self) -> [usize; 3] {
        [self.channels, self.height, self.width]
    }

    /// Training pool size per class (balanced pools).
    pub fn pool_per_class(&self) -> usize {
        self.total_samples / self.classes
    }
}

/// A reference to one synthesizable sample: `(class, id)` within the class
/// pool. Test-set samples use ids beyond the training pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SampleRef {
    /// Generating class (the *true* class; the observed label may be flipped).
    pub class: u16,
    /// Sample id within the class pool.
    pub id: u32,
}

/// One Gaussian blob of a class prototype.
#[derive(Debug, Clone, Copy)]
struct Blob {
    cx: f32,
    cy: f32,
    sigma: f32,
    amp: f32,
}

impl Blob {
    /// The unit-amplitude Gaussian at source location `(sx, sy)`.
    fn at(&self, sx: f32, sy: f32) -> f32 {
        let ddx = sx - self.cx;
        let ddy = sy - self.cy;
        let d2 = ddx * ddx + ddy * ddy;
        (-d2 / (2.0 * self.sigma * self.sigma)).exp()
    }
}

/// Most blobs a prototype channel may carry: sizes the per-sample
/// coefficient buffer of [`SyntheticVision::write_sample`].
const MAX_BLOBS: usize = 8;

/// Every Gaussian a sample can read, evaluated once per dataset.
///
/// A sample is its class pattern under an *integer* translation of at most
/// `jitter` pixels, so the source location of any output pixel is one of
/// the `(H + 2j) x (W + 2j)` integer points of the jitter-extended grid:
/// source `(sy, sx)` sits at grid `(sy + j, sx + j)`. Planes are row-major
/// over that grid.
#[derive(Debug)]
struct Tables {
    /// `[channel]` planes: the shared background, its blobs summed in order.
    shared: Vec<f32>,
    /// `[class][channel][blob]` planes: one unit-amplitude Gaussian each.
    class: Vec<f32>,
    /// `[class][channel][blob]` amplitudes of those Gaussians.
    amps: Vec<f32>,
}

/// A procedural class-conditional image dataset.
///
/// Cheap to clone (the pattern tables sit behind one `Arc`), and all
/// sampling is deterministic in `(seed, class, id)`.
#[derive(Debug, Clone)]
pub struct SyntheticVision {
    spec: DatasetSpec,
    seed: u64,
    tables: Arc<Tables>,
}

impl SyntheticVision {
    /// Build a dataset with the given preset and seed.
    pub fn new(kind: DatasetKind, seed: u64) -> Self {
        let spec = kind.spec();
        assert!(
            spec.blob_count <= MAX_BLOBS,
            "blob_count {} exceeds the {MAX_BLOBS}-blob coefficient buffer",
            spec.blob_count
        );
        let j = spec.jitter as usize;
        let (gh, gw) = (spec.height + 2 * j, spec.width + 2 * j);
        // grid point -> source location; both are small integers, so the
        // f32 values are the ones `x as f32 - dx as f32` yields per pixel
        let source = |g: usize| g as f32 - j as f32;

        let mut shared = Vec::with_capacity(spec.channels * gh * gw);
        for ch in 0..spec.channels {
            let mut rng = Prng::derive(seed, rng_tags::SYNTH_BASE, &[ch as u64]);
            let blobs: Vec<Blob> = (0..spec.blob_count + 1)
                .map(|_| Blob {
                    cx: rng.uniform() * spec.width as f32,
                    cy: rng.uniform() * spec.height as f32,
                    sigma: spec.height as f32 * (0.15 + 0.20 * rng.uniform()),
                    amp: if rng.uniform() < 0.5 { -1.0 } else { 1.0 } * (0.5 + 0.5 * rng.uniform()),
                })
                .collect();
            for gy in 0..gh {
                for gx in 0..gw {
                    let mut sum = 0.0f32;
                    for b in &blobs {
                        sum += b.amp * b.at(source(gx), source(gy));
                    }
                    shared.push(sum);
                }
            }
        }

        let planes = spec.classes * spec.channels * spec.blob_count;
        let mut class = Vec::with_capacity(planes * gh * gw);
        let mut amps = Vec::with_capacity(planes);
        for c in 0..spec.classes {
            for ch in 0..spec.channels {
                let mut rng = Prng::derive(seed, rng_tags::SYNTH_PROTO, &[c as u64, ch as u64]);
                for _ in 0..spec.blob_count {
                    let b = Blob {
                        cx: rng.uniform() * spec.width as f32,
                        cy: rng.uniform() * spec.height as f32,
                        sigma: spec.height as f32 * (0.10 + 0.15 * rng.uniform()),
                        amp: if rng.uniform() < 0.25 { -1.0 } else { 1.0 }
                            * (0.6 + 0.4 * rng.uniform()),
                    };
                    amps.push(b.amp);
                    for gy in 0..gh {
                        for gx in 0..gw {
                            class.push(b.at(source(gx), source(gy)));
                        }
                    }
                }
            }
        }
        SyntheticVision {
            spec,
            seed,
            tables: Arc::new(Tables {
                shared,
                class,
                amps,
            }),
        }
    }

    /// The dataset spec.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Seed the dataset was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The *observed* label of a sample (true class, except for the
    /// deterministic `label_flip` fraction, which maps to a different class).
    pub fn label_of(&self, r: SampleRef) -> usize {
        let mut rng = Prng::derive(
            self.seed,
            rng_tags::SYNTH_SAMPLE,
            &[
                r.class as u64,
                r.id as u64,
                rng_tags::SYNTH_LABEL_FLIP.value(),
            ],
        );
        if (rng.uniform() as f64) < self.spec.label_flip {
            // flip to a uniformly random *other* class
            let other = rng.below(self.spec.classes - 1);
            if other >= r.class as usize {
                other + 1
            } else {
                other
            }
        } else {
            r.class as usize
        }
    }

    /// A sample's RNG stream after its first two draws, and those draws:
    /// the integer translation `(dx, dy)`, each in `-jitter..=jitter`.
    fn sample_stream(&self, r: SampleRef) -> (Prng, i32, i32) {
        let jitter = self.spec.jitter;
        let mut rng = Prng::derive(
            self.seed,
            rng_tags::SYNTH_SAMPLE,
            &[r.class as u64, r.id as u64],
        );
        let dx = rng.below(2 * jitter as usize + 1) as i32 - jitter;
        let dy = rng.below(2 * jitter as usize + 1) as i32 - jitter;
        (rng, dx, dy)
    }

    /// Synthesize the pixels of one sample into `out` (length
    /// `sample_elems()`), normalized to roughly `[-1, 1]`.
    ///
    /// Pixel `(y, x)` is `scale * (shared + class_scale * Σ_k jit_k * amp_k *
    /// gauss_k)` at source `(y - dy, x - dx)`, every term a table read, in
    /// the order and f32 chain of the per-pixel definition
    /// (`tests/common/synth_reference.rs`), so the output is that
    /// definition's bit for bit.
    pub fn write_sample(&self, r: SampleRef, out: &mut [f32]) {
        let spec = &self.spec;
        debug_assert_eq!(out.len(), spec.sample_elems());
        let (mut rng, dx, dy) = self.sample_stream(r);
        let scale = 0.8 + 0.4 * rng.uniform();

        let (h, w, blobs) = (spec.height, spec.width, spec.blob_count);
        let gw = w + 2 * spec.jitter as usize;
        let grid = (h + 2 * spec.jitter as usize) * gw;
        // grid position of the source of output pixel (0, 0)
        let (oy, ox) = ((spec.jitter - dy) as usize, (spec.jitter - dx) as usize);
        let tables = &*self.tables;
        let mut coef = [0.0f32; MAX_BLOBS];
        for ch in 0..spec.channels {
            let first = (r.class as usize * spec.channels + ch) * blobs;
            // per-sample multiplicative jitter on each class blob
            for (c, &amp) in coef.iter_mut().zip(&tables.amps[first..first + blobs]) {
                *c = (1.0 + spec.amp_jitter * rng.normal()) * amp;
            }
            let shared = &tables.shared[ch * grid..(ch + 1) * grid];
            let class = &tables.class[first * grid..(first + blobs) * grid];
            let plane = &mut out[ch * h * w..(ch + 1) * h * w];
            for (y, row) in plane.chunks_exact_mut(w).enumerate() {
                let at = (oy + y) * gw + ox;
                row.fill(0.0);
                for (k, &c) in coef[..blobs].iter().enumerate() {
                    let gauss = &class[k * grid + at..k * grid + at + w];
                    for (v, &g) in row.iter_mut().zip(gauss) {
                        *v += c * g;
                    }
                }
                for (v, &s) in row.iter_mut().zip(&shared[at..at + w]) {
                    *v = scale * (s + spec.class_scale * *v);
                }
            }
            for v in plane.iter_mut() {
                *v += spec.pixel_noise * rng.normal();
            }
        }
    }

    /// Synthesize a mini-batch: `[batch, C, H, W]` tensor plus observed labels.
    pub fn batch(&self, refs: &[SampleRef]) -> (Tensor, Vec<usize>) {
        assert!(!refs.is_empty(), "empty batch");
        let spec = &self.spec;
        let mut t = Tensor::zeros(&[refs.len(), spec.channels, spec.height, spec.width]);
        let mut labels = Vec::with_capacity(refs.len());
        self.batch_into(refs, &mut t, &mut labels);
        (t, labels)
    }

    /// Like [`SyntheticVision::batch`], but synthesizes into caller-owned
    /// buffers: `x` is re-shaped in place (its storage is reused when large
    /// enough) and `labels` is cleared and refilled. This is the hot-loop
    /// form used by the local-SGD trainer so steady-state batch synthesis
    /// does not allocate. Every pixel is overwritten, so stale contents in
    /// `x` never leak through.
    pub fn batch_into(&self, refs: &[SampleRef], x: &mut Tensor, labels: &mut Vec<usize>) {
        assert!(!refs.is_empty(), "empty batch");
        let spec = &self.spec;
        let elems = spec.sample_elems();
        x.reuse(&[refs.len(), spec.channels, spec.height, spec.width]);
        labels.clear();
        let data = x.as_mut_slice();
        for (i, &r) in refs.iter().enumerate() {
            self.write_sample(r, &mut data[i * elems..(i + 1) * elems]);
            labels.push(self.label_of(r));
        }
    }

    /// A balanced held-out test set (`per_class` samples per class), drawn
    /// from ids *beyond* the training pool so it never overlaps client data.
    pub fn test_set(&self, per_class: usize) -> (Tensor, Vec<usize>) {
        let pool = self.spec.pool_per_class() as u32;
        let refs: Vec<SampleRef> = (0..self.spec.classes as u16)
            .flat_map(|class| {
                (0..per_class as u32).map(move |i| SampleRef {
                    class,
                    id: pool + i,
                })
            })
            .collect();
        self.batch(&refs)
    }
}

#[cfg(test)]
#[path = "../tests/common/synth_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::reference_sample;
    use super::*;

    #[test]
    fn table_path_is_the_per_pixel_definition_bit_for_bit() {
        for kind in DatasetKind::ALL {
            let spec = kind.spec();
            let j = spec.jitter;
            let (mut got, mut want) = (
                vec![0.0f32; spec.sample_elems()],
                vec![0.0f32; spec.sample_elems()],
            );
            for seed in [0u64, 2023, u64::MAX - 7] {
                let d = SyntheticVision::new(kind, seed);
                for class in 0..spec.classes as u16 {
                    // ids 0..4, plus the first ids that push dx and dy to
                    // each border of the extended grid
                    let mut ids: Vec<u32> = (0..4).collect();
                    for edge in [(-j, -j), (j, j), (-j, j), (j, -j)] {
                        let hit = (0..20_000).find(|&id| {
                            let (_, dx, dy) = d.sample_stream(SampleRef { class, id });
                            (dx, dy) == edge
                        });
                        ids.push(hit.expect("a corner translation within 20k ids"));
                    }
                    for id in ids {
                        let r = SampleRef { class, id };
                        d.write_sample(r, &mut got);
                        reference_sample(kind, seed, r, &mut want);
                        let same = got
                            .iter()
                            .zip(&want)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{kind:?} seed {seed} class {class} id {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn clones_share_the_tables() {
        let d = SyntheticVision::new(DatasetKind::EmnistLike, 1);
        let c = d.clone();
        assert!(Arc::ptr_eq(&d.tables, &c.tables));
    }

    #[test]
    fn table2_geometry_matches_paper() {
        // Paper Table II rows.
        let m = DatasetKind::MnistLike.spec();
        assert_eq!(
            (m.total_samples, m.classes, m.channels, m.client_samples),
            (60_000, 10, 1, 600)
        );
        let f = DatasetKind::FmnistLike.spec();
        assert_eq!(
            (f.total_samples, f.classes, f.channels, f.client_samples),
            (60_000, 10, 1, 1_000)
        );
        let e = DatasetKind::EmnistLike.spec();
        assert_eq!(
            (e.total_samples, e.classes, e.channels, e.client_samples),
            (112_800, 47, 1, 3_000)
        );
        let c = DatasetKind::Cifar10Like.spec();
        assert_eq!(
            (c.total_samples, c.classes, c.channels, c.client_samples),
            (50_000, 10, 3, 2_000)
        );
    }

    #[test]
    fn samples_are_deterministic() {
        let d1 = SyntheticVision::new(DatasetKind::MnistLike, 42);
        let d2 = SyntheticVision::new(DatasetKind::MnistLike, 42);
        let r = SampleRef { class: 3, id: 17 };
        let mut a = vec![0.0; d1.spec().sample_elems()];
        let mut b = vec![0.0; d2.spec().sample_elems()];
        d1.write_sample(r, &mut a);
        d2.write_sample(r, &mut b);
        assert_eq!(a, b);
        assert_eq!(d1.label_of(r), d2.label_of(r));
    }

    #[test]
    fn different_seeds_differ() {
        let d1 = SyntheticVision::new(DatasetKind::MnistLike, 1);
        let d2 = SyntheticVision::new(DatasetKind::MnistLike, 2);
        let r = SampleRef { class: 0, id: 0 };
        let mut a = vec![0.0; d1.spec().sample_elems()];
        let mut b = vec![0.0; d2.spec().sample_elems()];
        d1.write_sample(r, &mut a);
        d2.write_sample(r, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn different_ids_differ_within_class() {
        let d = SyntheticVision::new(DatasetKind::MnistLike, 7);
        let mut a = vec![0.0; d.spec().sample_elems()];
        let mut b = vec![0.0; d.spec().sample_elems()];
        d.write_sample(SampleRef { class: 5, id: 0 }, &mut a);
        d.write_sample(SampleRef { class: 5, id: 1 }, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn label_flip_rate_is_near_spec() {
        let d = SyntheticVision::new(DatasetKind::EmnistLike, 11);
        let n = 8_000u32;
        let flipped = (0..n)
            .filter(|&id| d.label_of(SampleRef { class: 4, id }) != 4)
            .count();
        let rate = flipped as f64 / n as f64;
        let expect = d.spec().label_flip;
        assert!(
            (rate - expect).abs() < 0.02,
            "flip rate {rate} vs spec {expect}"
        );
    }

    #[test]
    fn flipped_labels_stay_in_range() {
        let d = SyntheticVision::new(DatasetKind::Cifar10Like, 13);
        for id in 0..500 {
            let l = d.label_of(SampleRef { class: 9, id });
            assert!(l < d.spec().classes);
        }
    }

    #[test]
    fn batch_shape_and_labels() {
        let d = SyntheticVision::new(DatasetKind::Cifar10Like, 3);
        let refs: Vec<SampleRef> = (0..4).map(|i| SampleRef { class: i, id: 0 }).collect();
        let (x, y) = d.batch(&refs);
        assert_eq!(x.shape(), &[4, 3, 32, 32]);
        assert_eq!(y.len(), 4);
    }

    #[test]
    fn test_set_is_balanced_and_disjoint_from_train_pool() {
        let d = SyntheticVision::new(DatasetKind::MnistLike, 5);
        let (x, y) = d.test_set(3);
        assert_eq!(x.shape()[0], 30);
        // 3 of each true class were requested; observed labels may be
        // flipped but counts of generating classes are exact by construction.
        assert_eq!(y.len(), 30);
    }

    #[test]
    fn class_prototypes_are_separable() {
        // nearest-class-mean classification must beat chance by a wide
        // margin — this guards against degenerate prototypes. (The tasks are
        // deliberately noisy; a trained CNN reaches ~93%, while this crude
        // pixel-space classifier only needs to clear 5x chance.)
        let d = SyntheticVision::new(DatasetKind::MnistLike, 19);
        let elems = d.spec().sample_elems();
        let per_class = 32;
        // class means from samples
        let mut means = vec![vec![0.0f32; elems]; 10];
        for c in 0..10u16 {
            let mut buf = vec![0.0; elems];
            for id in 0..per_class {
                d.write_sample(SampleRef { class: c, id }, &mut buf);
                for (m, &v) in means[c as usize].iter_mut().zip(&buf) {
                    *m += v / per_class as f32;
                }
            }
        }
        // classify fresh samples by nearest mean
        let mut correct = 0;
        let mut total = 0;
        let mut buf = vec![0.0; elems];
        for c in 0..10u16 {
            for id in per_class..per_class + 8 {
                d.write_sample(SampleRef { class: c, id }, &mut buf);
                let best = (0..10)
                    .min_by(|&a, &b| {
                        let da: f32 = means[a]
                            .iter()
                            .zip(&buf)
                            .map(|(m, v)| (m - v).powi(2))
                            .sum();
                        let db: f32 = means[b]
                            .iter()
                            .zip(&buf)
                            .map(|(m, v)| (m - v).powi(2))
                            .sum();
                        da.partial_cmp(&db).unwrap()
                    })
                    .unwrap();
                if best == c as usize {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.5, "nearest-prototype accuracy too low: {acc}");
    }

    #[test]
    fn pixel_values_are_bounded_sane() {
        let d = SyntheticVision::new(DatasetKind::FmnistLike, 23);
        let mut buf = vec![0.0; d.spec().sample_elems()];
        d.write_sample(SampleRef { class: 2, id: 9 }, &mut buf);
        assert!(buf.iter().all(|v| v.is_finite() && v.abs() < 6.0));
    }
}
