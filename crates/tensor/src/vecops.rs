//! Fused flat-vector kernels for federated algorithms.
//!
//! Every regularizer in the paper is an O(|w|) vector operation on flat
//! parameter/gradient views ("attaching operations" in the paper's Appendix
//! A). These kernels fuse the passes so each runs in a single sweep over
//! memory; the benchmark's `tensor.optim_sweep_us.*` probes time them.

/// `y += alpha * x`.
///
/// # Panics
/// Debug-asserts equal lengths.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `out = a - b` (fresh allocation).
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Squared Euclidean distance `||a - b||^2` with f64 accumulation.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum()
}

/// Dot product with f64 accumulation.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64) * (y as f64))
        .sum()
}

/// L2 norm with f64 accumulation.
pub fn norm(a: &[f32]) -> f64 {
    a.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt()
}

/// FedProx attaching operation (fused single pass):
/// `g += mu * (w - anchor)`.
pub fn prox_adjust(g: &mut [f32], mu: f32, w: &[f32], anchor: &[f32]) {
    debug_assert_eq!(g.len(), w.len());
    debug_assert_eq!(g.len(), anchor.len());
    for ((gv, &wv), &av) in g.iter_mut().zip(w).zip(anchor) {
        *gv += mu * (wv - av);
    }
}

/// FedTrip attaching operation (Algorithm 1, line 7 — fused single pass):
/// `g += mu * ((w - global) + xi * (hist - w))`.
pub fn triplet_adjust(g: &mut [f32], mu: f32, xi: f32, w: &[f32], global: &[f32], hist: &[f32]) {
    debug_assert_eq!(g.len(), w.len());
    debug_assert_eq!(g.len(), global.len());
    debug_assert_eq!(g.len(), hist.len());
    for (((gv, &wv), &gl), &hv) in g.iter_mut().zip(w).zip(global).zip(hist) {
        *gv += mu * ((wv - gl) + xi * (hv - wv));
    }
}

/// Reference (unfused, allocation-heavy) formulation of
/// [`triplet_adjust`], kept for tests and the fusion ablation bench.
pub fn triplet_adjust_naive(
    g: &mut [f32],
    mu: f32,
    xi: f32,
    w: &[f32],
    global: &[f32],
    hist: &[f32],
) {
    let d1 = sub(w, global);
    let d2 = sub(hist, w);
    let mut term = d1;
    for (t, &d) in term.iter_mut().zip(&d2) {
        *t += xi * d;
    }
    axpy(g, mu, &term);
}

/// Weighted average of parameter vectors: `out = sum_k weights[k] * inputs[k]`.
///
/// This is the server aggregation `w_t = Σ a_k w_k` (paper Eq. 2).
///
/// # Panics
/// Panics when `inputs` is empty or lengths mismatch.
pub fn weighted_average(inputs: &[&[f32]], weights: &[f64]) -> Vec<f32> {
    assert!(!inputs.is_empty(), "weighted_average of nothing");
    assert_eq!(inputs.len(), weights.len(), "weights/inputs mismatch");
    let n = inputs[0].len();
    // accumulate in f64: aggregation error compounds over hundreds of rounds
    let mut acc = vec![0.0f64; n];
    for (input, &wt) in inputs.iter().zip(weights) {
        assert_eq!(input.len(), n, "parameter vector length mismatch");
        for (a, &v) in acc.iter_mut().zip(*input) {
            *a += wt * v as f64;
        }
    }
    acc.into_iter().map(|v| v as f32).collect()
}

/// In-place linear interpolation: `a = (1 - t) * a + t * b`.
pub fn lerp(a: &mut [f32], b: &[f32], t: f32) {
    debug_assert_eq!(a.len(), b.len());
    for (av, &bv) in a.iter_mut().zip(b) {
        *av = (1.0 - t) * *av + t * bv;
    }
}

/// Cosine similarity between two vectors (used by MOON's contrastive loss).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 2.0];
        axpy(&mut y, 2.0, &[10.0, 20.0]);
        assert_eq!(y, vec![21.0, 42.0]);
    }

    #[test]
    fn sq_dist_and_norm() {
        assert_eq!(sq_dist(&[0.0, 3.0], &[4.0, 0.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn prox_adjust_pulls_toward_anchor() {
        // w above anchor -> gradient increases -> SGD pushes w down toward anchor
        let mut g = vec![0.0f32];
        prox_adjust(&mut g, 0.5, &[2.0], &[1.0]);
        assert_eq!(g, vec![0.5]);
    }

    #[test]
    fn triplet_fused_matches_naive() {
        let w = [1.0f32, -2.0, 0.5, 3.0];
        let glob = [0.5f32, -1.0, 0.0, 2.0];
        let hist = [2.0f32, -3.0, 1.0, 4.0];
        let mut g1 = vec![0.1f32, 0.2, 0.3, 0.4];
        let mut g2 = g1.clone();
        triplet_adjust(&mut g1, 0.4, 0.7, &w, &glob, &hist);
        triplet_adjust_naive(&mut g2, 0.4, 0.7, &w, &glob, &hist);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn triplet_with_zero_xi_is_prox() {
        let w = [1.0f32, -2.0];
        let glob = [0.0f32, 0.0];
        let hist = [9.0f32, 9.0];
        let mut g1 = vec![0.0f32; 2];
        let mut g2 = vec![0.0f32; 2];
        triplet_adjust(&mut g1, 0.3, 0.0, &w, &glob, &hist);
        prox_adjust(&mut g2, 0.3, &w, &glob);
        assert_eq!(g1, g2);
    }

    #[test]
    fn weighted_average_is_convex_combination() {
        let a = vec![0.0f32, 10.0];
        let b = vec![10.0f32, 0.0];
        let avg = weighted_average(&[&a, &b], &[0.25, 0.75]);
        assert_eq!(avg, vec![7.5, 2.5]);
    }

    #[test]
    fn weighted_average_identity_for_single_input() {
        let a = vec![1.0f32, 2.0, 3.0];
        let avg = weighted_average(&[&a], &[1.0]);
        assert_eq!(avg, a);
    }

    #[test]
    #[should_panic(expected = "weighted_average of nothing")]
    fn weighted_average_rejects_empty() {
        let _ = weighted_average(&[], &[]);
    }

    #[test]
    fn lerp_endpoints() {
        let mut a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 6.0];
        let orig = a.clone();
        lerp(&mut a, &b, 0.0);
        assert_eq!(a, orig);
        lerp(&mut a, &b, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn cosine_similarity_bounds() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-9);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }
}
