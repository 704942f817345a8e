//! Summary statistics used across the evaluation.

use serde::{Deserialize, Serialize};

/// Exponential moving average with smoothing factor `alpha` in `(0, 1]`:
/// `y_t = alpha * x_t + (1 - alpha) * y_{t-1}` (the smoothing the paper
/// applies to the Fig. 5 convergence curves).
///
/// # Panics
/// Panics when `alpha` is outside `(0, 1]`.
pub fn ema(xs: &[f64], alpha: f64) -> Vec<f64> {
    assert!(alpha > 0.0 && alpha <= 1.0, "EMA alpha must be in (0,1]");
    let mut out = Vec::with_capacity(xs.len());
    let mut prev: Option<f64> = None;
    for &x in xs {
        let y = match prev {
            None => x,
            Some(p) => alpha * x + (1.0 - alpha) * p,
        };
        out.push(y);
        prev = Some(y);
    }
    out
}

/// Time-to-target: the first entry of `times` whose paired `values` entry
/// reaches `target`, or `None` when the series never gets there.
///
/// The companion of the paper's rounds-to-target-accuracy metric for
/// runtimes with a virtual wall-clock: pass per-round virtual timestamps and
/// evaluated accuracies to get the virtual seconds a scheduler needed to hit
/// a target accuracy.
///
/// # Panics
/// Panics when `times` and `values` have different lengths.
pub fn time_to_target(times: &[f64], values: &[f64], target: f64) -> Option<f64> {
    assert_eq!(times.len(), values.len(), "times/values length mismatch");
    times
        .iter()
        .zip(values)
        .find(|(_, &v)| v >= target)
        .map(|(&t, _)| t)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an unsorted slice.
///
/// # Panics
/// Panics on an empty slice or `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1]");
    let mut sorted = xs.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "finite inputs are the documented contract"
    )]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Gini coefficient of a non-negative sample — the participation-fairness
/// metric of the availability scenarios: feed it per-client participation
/// counts (zeros included for clients that never ran) and it reports how
/// unequally the selection strategy spread the work.
///
/// Uses the sorted-sample formula
/// `G = (2 Σ_i i·x_(i)) / (n Σ x) − (n + 1) / n` with 1-based ranks over
/// the ascending sort, clamped into `[0, 1]` against floating-point
/// drift. An empty or all-zero sample reports `0` (perfect equality —
/// nobody participated, nobody was favored); a uniform sample reports `0`;
/// the value is invariant under permutation of the input.
///
/// # Panics
/// Panics when any entry is negative or non-finite.
pub fn gini(xs: &[f64]) -> f64 {
    assert!(
        xs.iter().all(|x| x.is_finite() && *x >= 0.0),
        "gini input must be non-negative and finite"
    );
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    // an all-equal sample is definitionally perfect equality; answering 0
    // exactly (instead of the formula's ~n·ε float drift) keeps "uniform
    // participation" distinguishable from genuinely unequal ones
    if sorted.first() == sorted.last() {
        return 0.0;
    }
    let ranked: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, x)| (i + 1) as f64 * x)
        .sum();
    ((2.0 * ranked) / (n * total) - (n + 1.0) / n).clamp(0.0, 1.0)
}

/// Mean / variance / extremes of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample variance (0 for n < 2).
    pub var: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of empty slice");
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            var,
            min,
            max,
        }
    }

    /// Standard deviation.
    pub fn std(&self) -> f64 {
        self.var.sqrt()
    }
}

/// Five-number summary for boxplots (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxplotSummary {
    /// Minimum observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
}

impl BoxplotSummary {
    /// Compute the five-number summary of a sample.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(xs: &[f64]) -> BoxplotSummary {
        BoxplotSummary {
            min: quantile(xs, 0.0),
            q1: quantile(xs, 0.25),
            median: quantile(xs, 0.5),
            q3: quantile(xs, 0.75),
            max: quantile(xs, 1.0),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Render as a compact `min [q1 | med | q3] max` string.
    pub fn compact(&self) -> String {
        format!(
            "{:.2} [{:.2} | {:.2} | {:.2}] {:.2}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_alpha_one_is_identity() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(ema(&xs, 1.0), xs.to_vec());
    }

    #[test]
    fn ema_smooths_toward_history() {
        let xs = [0.0, 10.0];
        let y = ema(&xs, 0.3);
        assert_eq!(y[0], 0.0);
        assert!((y[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ema_is_bounded_by_input_range() {
        let xs = [2.0, 8.0, 4.0, 6.0, 3.0];
        for y in ema(&xs, 0.4) {
            assert!((2.0..=8.0).contains(&y));
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ema_rejects_zero_alpha() {
        let _ = ema(&[1.0], 0.0);
    }

    #[test]
    fn time_to_target_finds_first_crossing() {
        let times = [1.0, 2.0, 3.0, 4.0];
        let accs = [0.1, 0.3, 0.25, 0.5];
        assert_eq!(time_to_target(&times, &accs, 0.3), Some(2.0));
        assert_eq!(time_to_target(&times, &accs, 0.05), Some(1.0));
        assert_eq!(time_to_target(&times, &accs, 0.9), None);
        assert_eq!(time_to_target(&[], &[], 0.1), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn time_to_target_rejects_ragged_input() {
        let _ = time_to_target(&[1.0], &[], 0.1);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gini_known_values() {
        // empty / all-zero / uniform: perfect equality
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(gini(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        // one client does everything: G = (n-1)/n
        assert!((gini(&[0.0, 0.0, 0.0, 12.0]) - 0.75).abs() < 1e-12);
        // textbook example: [1, 2, 3, 4] -> G = 0.25
        assert!((gini(&[1.0, 2.0, 3.0, 4.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gini_is_permutation_invariant_and_bounded() {
        let a = [3.0, 0.0, 7.0, 1.0, 9.0];
        let b = [9.0, 1.0, 3.0, 7.0, 0.0];
        assert_eq!(gini(&a), gini(&b));
        assert!((0.0..=1.0).contains(&gini(&a)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn gini_rejects_negative_input() {
        let _ = gini(&[1.0, -1.0]);
    }

    #[test]
    fn summary_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert!((s.var - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_single_value_has_zero_var() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.var, 0.0);
        assert_eq!(s.std(), 0.0);
    }

    #[test]
    fn boxplot_orders_quartiles() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let b = BoxplotSummary::of(&xs);
        assert_eq!(b.min, 0.0);
        assert_eq!(b.q1, 25.0);
        assert_eq!(b.median, 50.0);
        assert_eq!(b.q3, 75.0);
        assert_eq!(b.max, 100.0);
        assert_eq!(b.iqr(), 50.0);
        assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
    }
}
