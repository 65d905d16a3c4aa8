//! Per-algorithm sample history.
//!
//! The weighted phase-2 strategies of Section III all derive their weights
//! from the runtime samples observed for each algorithm: the Gradient
//! Weighted and Sliding-Window AUC strategies look at the latest *iteration
//! window* `[i0, i1]` of an algorithm's own samples, and Optimum Weighted at
//! the best sample seen so far. This module keeps exactly that and nothing
//! more — a sample count, the best, worst and last values, and a ring of
//! the latest `window` values — so a history's size is fixed however long
//! the tuner runs.

use crate::robust::{MAX_MEASUREMENT_MS, RESOLUTION_FLOOR_MS};

/// Inverse of a runtime sample, clamped to the timer-resolution floor so
/// the result is always finite and positive — the primitive under every
/// `1/m` weight in the phase-2 strategies. A `0.0` ms sample (fast kernel,
/// coarse timer) inverts to `1/RESOLUTION_FLOOR_MS`, not `inf`.
#[inline]
pub fn clamped_inverse(value: f64) -> f64 {
    1.0 / value.clamp(RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS)
}

/// Bounded summary of one algorithm's runtime samples.
#[derive(Debug, Clone, Default)]
pub struct AlgorithmHistory {
    count: usize,
    best: Option<f64>,
    worst: Option<f64>,
    last: Option<f64>,
    /// Length of the sliding window; 0 keeps no ring.
    window: usize,
    /// The latest `min(count, window)` values. Once full, slot
    /// `count % window` holds the oldest value and is overwritten next.
    ring: Vec<f64>,
}

impl AlgorithmHistory {
    /// An empty history without a window: count, best, worst and last
    /// only (what ε-Greedy and Optimum Weighted read).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty history that also keeps its latest `window` values, for
    /// the window-based weights.
    pub fn windowed(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        AlgorithmHistory {
            window,
            ..Self::default()
        }
    }

    /// Record a new sample. Returns the index — in this algorithm's own
    /// sample sequence — of the sample that left the window as a result,
    /// if any.
    ///
    /// Recording is *total*: degenerate values are sanitized instead of
    /// panicking, because in online tuning they are produced by the live
    /// application, not by the tuner. Finite values are clamped into
    /// `[RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS]`; non-finite values
    /// (which the robust measurement layer should already have converted to
    /// failures) are recorded as `MAX_MEASUREMENT_MS`, the worst
    /// representable runtime.
    pub fn record(&mut self, value: f64) -> Option<usize> {
        debug_assert!(
            value.is_finite(),
            "non-finite measurement {value} reached record(); \
             route failures through report_failure instead"
        );
        let value = if value.is_finite() {
            value.clamp(RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS)
        } else {
            MAX_MEASUREMENT_MS
        };
        if self.best.is_none_or(|b| value < b) {
            self.best = Some(value);
        }
        if self.worst.is_none_or(|w| value > w) {
            self.worst = Some(value);
        }
        self.last = Some(value);
        let evicted = if self.window == 0 {
            None
        } else if self.ring.len() < self.window {
            self.ring.push(value);
            None
        } else {
            self.ring[self.count % self.window] = value;
            Some(self.count - self.window)
        };
        self.count += 1;
        evicted
    }

    /// Number of samples observed for this algorithm.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Best (minimal) measured value so far.
    pub fn best_value(&self) -> Option<f64> {
        self.best
    }

    /// Worst (maximal) measured value so far — the scale the failure
    /// penalty is derived from.
    pub fn worst_value(&self) -> Option<f64> {
        self.worst
    }

    /// The last measured value.
    pub fn last_value(&self) -> Option<f64> {
        self.last
    }

    /// The latest window of values, oldest first: the paper's `[i0, i1]`
    /// over *this algorithm's own* sample sequence. Empty for a history
    /// without a window.
    pub fn window_values(&self) -> impl Iterator<Item = f64> + '_ {
        // Once the ring is full, the oldest value sits where the next one
        // will be written.
        let oldest = if self.window > 0 && self.ring.len() == self.window {
            self.count % self.window
        } else {
            0
        };
        self.ring[oldest..]
            .iter()
            .chain(&self.ring[..oldest])
            .copied()
    }

    /// The paper's gradient over the latest window:
    /// `G_A = (1/m_{A,i1} − 1/m_{A,i0}) / (i1 − i0)`
    /// where indices are positions in this algorithm's own sample sequence.
    /// Performance is interpreted inversely to time, so a *positive* gradient
    /// means the algorithm is getting faster. Returns `None` with fewer than
    /// two values in the window (no gradient is defined yet).
    pub fn window_gradient(&self) -> Option<f64> {
        let len = self.ring.len();
        if len < 2 {
            return None;
        }
        let first = self.window_values().next().expect("len >= 2");
        let last = self.last.expect("len >= 2");
        let span = (len - 1) as f64;
        Some((clamped_inverse(last) - clamped_inverse(first)) / span)
    }

    /// The paper's sliding-window area under the (inverse) performance curve:
    /// `w_A = (Σ_{i=i0}^{i1} 1/m_{A,i}) / (i1 − i0)`, summed oldest first.
    ///
    /// With a single sample the denominator `i1 − i0` would be zero; we fall
    /// back to the single inverse value, which keeps the weight finite and
    /// strictly positive as the definition requires.
    pub fn window_auc(&self) -> Option<f64> {
        let len = self.ring.len();
        if len == 0 {
            return None;
        }
        let sum: f64 = self.window_values().map(clamped_inverse).sum();
        if len == 1 {
            Some(sum)
        } else {
            Some(sum / (len - 1) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn hist_w(window: usize, values: &[f64]) -> AlgorithmHistory {
        let mut h = AlgorithmHistory::windowed(window);
        for &v in values {
            h.record(v);
        }
        h
    }

    fn hist(values: &[f64]) -> AlgorithmHistory {
        hist_w(16, values)
    }

    #[test]
    fn best_tracks_minimum() {
        let h = hist(&[5.0, 3.0, 4.0, 3.5]);
        assert_eq!(h.best_value(), Some(3.0));
    }

    #[test]
    fn window_values_clamp_to_available_oldest_first() {
        let h = hist(&[1.0, 2.0, 3.0]);
        assert_eq!(h.window_values().collect::<Vec<_>>(), [1.0, 2.0, 3.0]);
        let h = hist_w(2, &[1.0, 2.0, 3.0]);
        assert_eq!(h.window_values().collect::<Vec<_>>(), [2.0, 3.0]);
    }

    #[test]
    fn windowless_history_keeps_only_the_summary() {
        let mut h = AlgorithmHistory::new();
        for v in [4.0, 2.0, 8.0] {
            assert_eq!(h.record(v), None, "no window, nothing to evict");
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.best_value(), Some(2.0));
        assert_eq!(h.worst_value(), Some(8.0));
        assert_eq!(h.last_value(), Some(8.0));
        assert_eq!(h.window_values().count(), 0);
        assert_eq!(h.window_gradient(), None);
        assert_eq!(h.window_auc(), None);
    }

    #[test]
    fn record_reports_the_sample_leaving_the_window() {
        let mut h = AlgorithmHistory::windowed(3);
        let evicted: Vec<_> = (0..6).map(|i| h.record(1.0 + i as f64)).collect();
        assert_eq!(evicted, [None, None, None, Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn gradient_positive_when_improving() {
        // Runtime falling 4 -> 2 means inverse performance rising: G > 0.
        let h = hist(&[4.0, 2.0]);
        let g = h.window_gradient().unwrap();
        assert!((g - (0.5 - 0.25)).abs() < 1e-12);
    }

    #[test]
    fn gradient_negative_when_degrading() {
        let h = hist(&[2.0, 4.0]);
        assert!(h.window_gradient().unwrap() < 0.0);
    }

    #[test]
    fn gradient_zero_when_flat() {
        let h = hist(&[3.0, 3.0, 3.0, 3.0]);
        assert_eq!(h.window_gradient(), Some(0.0));
    }

    #[test]
    fn gradient_uses_window_endpoints_only() {
        // Values inside the window do not matter, only the endpoints.
        let a = hist(&[4.0, 100.0, 2.0]);
        let b = hist(&[4.0, 0.001, 2.0]);
        assert_eq!(a.window_gradient(), b.window_gradient());
    }

    #[test]
    fn gradient_undefined_for_single_sample() {
        assert_eq!(hist(&[2.0]).window_gradient(), None);
        assert_eq!(hist(&[]).window_gradient(), None);
    }

    #[test]
    fn auc_matches_definition() {
        let h = hist(&[2.0, 4.0, 2.0]);
        // (1/2 + 1/4 + 1/2) / 2 = 0.625
        assert!((h.window_auc().unwrap() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn auc_single_sample_is_inverse_value() {
        let h = hist(&[4.0]);
        assert_eq!(h.window_auc(), Some(0.25));
    }

    #[test]
    fn auc_respects_window() {
        let h = hist_w(2, &[1000.0, 2.0, 2.0]);
        // Window of 2 drops the slow first sample: (1/2 + 1/2) / 1 = 1.0.
        assert!((h.window_auc().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_tracks_maximum() {
        let h = hist(&[5.0, 30.0, 4.0]);
        assert_eq!(h.worst_value(), Some(30.0));
        assert_eq!(hist(&[]).worst_value(), None);
    }

    #[test]
    fn zero_sample_keeps_weights_finite() {
        // The degenerate case that used to poison the 1/m weights: a 0.0 ms
        // sample from a fast kernel under a coarse timer.
        let h = hist(&[2.0, 0.0]);
        let g = h.window_gradient().unwrap();
        assert!(g.is_finite());
        let auc = h.window_auc().unwrap();
        assert!(auc.is_finite() && auc > 0.0);
    }

    #[test]
    fn subnormal_and_extreme_samples_keep_weights_finite() {
        for stream in [
            &[5e-324, 5e-324][..],
            &[1e308, 1e308],
            &[0.0, 1e308, 5e-324, 1.0],
            &[-7.0, 3.0],
        ] {
            let h = hist(stream);
            assert!(h.window_gradient().unwrap().is_finite(), "{stream:?}");
            let auc = h.window_auc().unwrap();
            assert!(auc.is_finite() && auc > 0.0, "{stream:?}");
            assert!(h.best_value().unwrap() >= RESOLUTION_FLOOR_MS);
        }
    }

    #[test]
    fn record_clamps_into_representable_band() {
        let h = hist(&[0.0, 1e308, -4.0]);
        assert_eq!(
            h.window_values().collect::<Vec<_>>(),
            [RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS, RESOLUTION_FLOOR_MS]
        );
    }

    #[test]
    fn clamped_inverse_is_always_finite_and_positive() {
        for v in [0.0, -1.0, 5e-324, 1e-308, 1.0, 1e308, f64::MAX] {
            let inv = clamped_inverse(v);
            assert!(inv.is_finite() && inv > 0.0, "inverse of {v} was {inv}");
        }
    }

    /// The unbounded reference: every value kept, the window re-sliced from
    /// the tail on each query — the shape of the history before it was
    /// bounded.
    fn naive_window(values: &[f64], window: usize) -> &[f64] {
        &values[values.len().saturating_sub(window)..]
    }

    fn naive_gradient(values: &[f64], window: usize) -> Option<f64> {
        let w = naive_window(values, window);
        if w.len() < 2 {
            return None;
        }
        let span = (w.len() - 1) as f64;
        Some((clamped_inverse(w[w.len() - 1]) - clamped_inverse(w[0])) / span)
    }

    fn naive_auc(values: &[f64], window: usize) -> Option<f64> {
        let w = naive_window(values, window);
        let sum: f64 = w.iter().map(|&v| clamped_inverse(v)).sum();
        match w.len() {
            0 => None,
            1 => Some(sum),
            n => Some(sum / (n - 1) as f64),
        }
    }

    #[test]
    fn bounded_history_is_bit_identical_to_the_unbounded_reference() {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        let mut rng = Rng::new(0x4157_0123);
        for window in 1..=64 {
            for _ in 0..3 {
                let mut h = AlgorithmHistory::windowed(window);
                let mut reference: Vec<f64> = Vec::new();
                let len = rng.pick_index(4 * window + 8);
                for _ in 0..len {
                    let v = match rng.pick_index(10) {
                        0 => 0.0,
                        1 => 1e308,
                        2 => -3.0,
                        3 => 5e-324,
                        _ => rng.next_range_f64(1e-3, 100.0),
                    };
                    let evicted = h.record(v);
                    reference.push(v.clamp(RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS));
                    let n = reference.len();
                    assert_eq!(evicted, n.checked_sub(window + 1), "w={window} n={n}");
                    assert_eq!(h.len(), n);
                    assert!(h.ring.len() <= window, "ring outgrew its window");
                    assert_eq!(
                        bits(h.window_gradient()),
                        bits(naive_gradient(&reference, window)),
                        "gradient w={window} n={n}"
                    );
                    assert_eq!(
                        bits(h.window_auc()),
                        bits(naive_auc(&reference, window)),
                        "auc w={window} n={n}"
                    );
                    let min = reference.iter().copied().fold(f64::INFINITY, f64::min);
                    let max = reference.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    assert_eq!(bits(h.best_value()), bits(Some(min)));
                    assert_eq!(bits(h.worst_value()), bits(Some(max)));
                    assert_eq!(bits(h.last_value()), bits(reference.last().copied()));
                    let expected = naive_window(&reference, window).iter();
                    assert!(h
                        .window_values()
                        .map(f64::to_bits)
                        .eq(expected.map(|v| v.to_bits())));
                }
            }
        }
    }
}
