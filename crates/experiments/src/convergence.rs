//! "Iterations to converge": the one definition every study and bench
//! reads.
//!
//! Two criteria, because the repo publishes two kinds of convergence
//! claim:
//!
//! * [`iterations_to_target`] — the first iteration whose *running best*
//!   reaches a target the caller fixes. Deterministic or trace-replayed
//!   series, where the best value means something, use it: the
//!   constraints study and bench (which score repair and reject against
//!   one shared pair-best target, so reject-and-retry cannot "converge"
//!   onto a worse best of its own) and the `report` table.
//! * [`settled_after`] — the first point where a rolling median of 15
//!   samples comes within 5% of the median of the last 15 samples. Per-call wall-clock series use it: one noisy
//!   sample must not count as convergence, so the target is the regime
//!   the series settles into (smallsort and contexts studies, serve drift
//!   reconvergence, contexts bench).
//!
//! [`tail_median`] is the shared helper for "the regime at the end".

use autotune::stats;

/// Width of the rolling median in [`settled_after`], and of the tail it
/// settles onto.
pub(crate) const WINDOW: usize = 15;

/// "Within 5%": the relative band around the settled regime.
const TOLERANCE: f64 = 0.05;

/// The 1-based first iteration whose running best is `<= target`, or
/// `None` if the series never gets there. NaN entries (rejected or failed
/// iterations) carry no value but still advance the clock.
pub fn iterations_to_target(series: &[f64], target: f64) -> Option<usize> {
    // The running best first reaches the target exactly where a single
    // sample first does.
    series
        .iter()
        .position(|&v| v.is_finite() && v <= target)
        .map(|i| i + 1)
}

/// The number of samples until a 15-wide rolling median first lands
/// within 5% of the median of the last 15 samples: the rolling window
/// `series[i - 15..i]` qualifies at `i`. `None` below 30 samples (too
/// short to separate a start from a settled regime) or if no window
/// qualifies.
pub fn settled_after(series: &[f64]) -> Option<usize> {
    if series.len() < 2 * WINDOW {
        return None;
    }
    let settled = tail_median(series, WINDOW);
    (WINDOW..=series.len()).find(|&i| {
        let m = stats::median(&series[i - WINDOW..i]);
        (m - settled).abs() <= settled * TOLERANCE
    })
}

/// Median of the last `n` entries of `series` (at least the last one;
/// the whole series when shorter). NaN entries are skipped, per
/// [`stats::quantile`]; an empty or all-NaN tail yields NaN.
pub fn tail_median(series: &[f64], n: usize) -> f64 {
    stats::median(&series[series.len().saturating_sub(n.max(1))..])
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAN: f64 = f64::NAN;

    #[test]
    fn target_scan_handles_rejections_and_noise() {
        // The constraints study's cases, each against 5% of its own best.
        assert_eq!(iterations_to_target(&[10.0, 8.0, 5.0, 5.1], 5.25), Some(3));
        assert_eq!(iterations_to_target(&[NAN, 10.0, NAN, 5.0], 5.25), Some(4));
        assert_eq!(iterations_to_target(&[7.0], 7.35), Some(1));
        // No successful measurement: no best, no target reached.
        assert_eq!(iterations_to_target(&[NAN, NAN], f64::INFINITY), None);
        assert_eq!(iterations_to_target(&[9.0, 8.0], 5.0), None);
    }

    #[test]
    fn target_scan_is_one_based_over_iterations() {
        // The record report's case: iteration 1 fails, 10 ms is not
        // within 5% of the best 5 ms, the third iteration is.
        assert_eq!(iterations_to_target(&[10.0, NAN, 5.0], 5.0 * 1.05), Some(3));
    }

    #[test]
    fn settled_regime_is_found_after_the_slow_start() {
        // 30 slow samples, then 100 settled fast ones.
        let mut runtimes = vec![9.0; 30];
        runtimes.extend(vec![1.0; 100]);
        assert_eq!(tail_median(&runtimes, WINDOW), 1.0);
        let iters = settled_after(&runtimes).expect("settles");
        // The rolling median crosses once the window is majority-fast.
        assert!((30..60).contains(&iters), "{iters}");
    }

    #[test]
    fn short_or_empty_series_never_settle() {
        assert_eq!(settled_after(&[1.0; 29]), None);
        assert_eq!(settled_after(&[1.0; 30]), Some(WINDOW));
        assert_eq!(settled_after(&[NAN; 60]), None);
        assert!(tail_median(&[], WINDOW).is_nan());
        assert!(tail_median(&[NAN; 4], 2).is_nan());
    }

    #[test]
    fn late_dip_after_settling_does_not_move_the_settle_point() {
        let mut runtimes = vec![9.0; 20];
        runtimes.extend(vec![2.0; 40]);
        let before = settled_after(&runtimes);
        assert!(before.is_some());
        // One fast outlier near the end shifts neither the tail median
        // nor the first qualifying window.
        runtimes[57] = 0.5;
        assert_eq!(tail_median(&runtimes, WINDOW), 2.0);
        assert_eq!(settled_after(&runtimes), before);
    }

    #[test]
    fn tail_keeps_at_least_the_last_sample() {
        let curve = [4.0, 3.0, 2.0, 1.0, 8.0, 6.0, 7.0, 5.0];
        assert_eq!(tail_median(&curve, curve.len() / 4), 6.0);
        assert_eq!(tail_median(&curve[..3], 0), 2.0);
        assert_eq!(tail_median(&curve, 100), 4.5);
    }
}
