//! The per-pixel definition of a synthetic sample: every blob of the shared
//! and the class pattern evaluated with one `exp()` per pixel, straight from
//! the seed. `SyntheticVision::write_sample` reads the same numbers out of
//! tables; this file is the oracle it must match bit for bit, written against
//! the public API only so it also pins blob generation. Compiled into
//! `synth.rs`'s unit tests and `proptest_data.rs` through `#[path]`.

use super::{DatasetKind, SampleRef};
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;

struct Blob {
    cx: f32,
    cy: f32,
    sigma: f32,
    amp: f32,
}

impl Blob {
    fn at(&self, sx: f32, sy: f32) -> f32 {
        let ddx = sx - self.cx;
        let ddy = sy - self.cy;
        let d2 = ddx * ddx + ddy * ddy;
        (-d2 / (2.0 * self.sigma * self.sigma)).exp()
    }
}

/// Pixels of sample `r` of dataset `(kind, seed)`, written into `out`.
pub fn reference_sample(kind: DatasetKind, seed: u64, r: SampleRef, out: &mut [f32]) {
    let spec = kind.spec();
    assert_eq!(out.len(), spec.sample_elems());
    let mut rng = Prng::derive(seed, rng_tags::SYNTH_SAMPLE, &[r.class as u64, r.id as u64]);
    let dx = rng.below(2 * spec.jitter as usize + 1) as i32 - spec.jitter;
    let dy = rng.below(2 * spec.jitter as usize + 1) as i32 - spec.jitter;
    let scale = 0.8 + 0.4 * rng.uniform();

    let (h, w) = (spec.height, spec.width);
    for ch in 0..spec.channels {
        let mut proto = Prng::derive(seed, rng_tags::SYNTH_PROTO, &[r.class as u64, ch as u64]);
        let blobs: Vec<Blob> = (0..spec.blob_count)
            .map(|_| Blob {
                cx: proto.uniform() * spec.width as f32,
                cy: proto.uniform() * spec.height as f32,
                sigma: spec.height as f32 * (0.10 + 0.15 * proto.uniform()),
                amp: if proto.uniform() < 0.25 { -1.0 } else { 1.0 }
                    * (0.6 + 0.4 * proto.uniform()),
            })
            .collect();
        let mut base = Prng::derive(seed, rng_tags::SYNTH_BASE, &[ch as u64]);
        let base_blobs: Vec<Blob> = (0..spec.blob_count + 1)
            .map(|_| Blob {
                cx: base.uniform() * spec.width as f32,
                cy: base.uniform() * spec.height as f32,
                sigma: spec.height as f32 * (0.15 + 0.20 * base.uniform()),
                amp: if base.uniform() < 0.5 { -1.0 } else { 1.0 } * (0.5 + 0.5 * base.uniform()),
            })
            .collect();

        // per-sample multiplicative jitter on each class blob
        let amp_jit: Vec<f32> = blobs
            .iter()
            .map(|_| 1.0 + spec.amp_jitter * rng.normal())
            .collect();
        let plane = &mut out[ch * h * w..(ch + 1) * h * w];
        for y in 0..h {
            for x in 0..w {
                // evaluate both patterns at the *source* location
                let sx = x as f32 - dx as f32;
                let sy = y as f32 - dy as f32;
                let mut shared = 0.0f32;
                for b in &base_blobs {
                    shared += b.amp * b.at(sx, sy);
                }
                let mut class_part = 0.0f32;
                for (b, &jit) in blobs.iter().zip(&amp_jit) {
                    class_part += jit * b.amp * b.at(sx, sy);
                }
                plane[y * w + x] = scale * (shared + spec.class_scale * class_part);
            }
        }
        for v in plane.iter_mut() {
            *v += spec.pixel_noise * rng.normal();
        }
    }
}
