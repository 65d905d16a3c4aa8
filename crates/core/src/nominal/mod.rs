//! Phase-2 strategies for tuning *nominal* parameters — in particular the
//! algorithmic-choice parameter (Section III of the paper).
//!
//! Algorithms taking the same inputs and producing the same outputs "can not
//! be ordered, do not offer a notion of distance and do not have a natural
//! zero point", so none of the classical numeric searchers apply. The paper
//! devises four probabilistic selection strategies, all of which keep every
//! algorithm's selection probability strictly positive so that a currently-
//! slow algorithm can still improve under phase-1 tuning:
//!
//! * [`EpsilonGreedy`] — exploit the best-known algorithm with probability
//!   `1 − ε`, explore uniformly otherwise (ε ∈ {5%, 10%, 20%} in the paper).
//! * [`GradientWeighted`] — weight by the recent *improvement gradient* of
//!   each algorithm's inverse runtime (window 16).
//! * [`OptimumWeighted`] — weight by each algorithm's best observed inverse
//!   runtime.
//! * [`SlidingWindowAuc`] — weight by the average inverse runtime over a
//!   sliding window (window 16), after OpenTuner's AUC bandit.
//!
//! [`Softmax`] (Gibbs selection) is additionally provided as the alternative
//! the paper discusses and rejects in Section III-A, so the comparison can
//! be reproduced.

mod combined;
mod epsilon_greedy;
mod gradient_weighted;
mod optimum_weighted;
mod sliding_auc;
mod softmax;

pub use combined::EpsilonGradient;
pub use epsilon_greedy::EpsilonGreedy;
pub use gradient_weighted::{GradientWeighted, DEFAULT_WINDOW as GRADIENT_DEFAULT_WINDOW};
pub use optimum_weighted::OptimumWeighted;
pub use sliding_auc::{SlidingWindowAuc, DEFAULT_WINDOW as AUC_DEFAULT_WINDOW};
pub use softmax::Softmax;

use crate::history::AlgorithmHistory;
use crate::rng::Rng;

/// Ask/tell interface of a phase-2 (algorithm-selection) strategy.
///
/// Protocol: call [`NominalStrategy::select`] to obtain the algorithm index
/// for this tuning iteration, run the algorithm (with phase-1-tuned
/// parameters), then [`NominalStrategy::report`] its measured runtime.
///
/// `Send` is a supertrait so strategy state can live inside the concurrent
/// multi-site runtime ([`crate::site`]), where any request thread may claim
/// a site and drive its tuner; every strategy in this crate owns plain data
/// and is `Send` automatically.
pub trait NominalStrategy: Send {
    /// Number of alternatives `|𝒜|`.
    fn num_algorithms(&self) -> usize;

    /// Choose the algorithm for the next tuning iteration.
    fn select(&mut self) -> usize;

    /// Report the measured runtime of the most recently selected algorithm.
    fn report(&mut self, algorithm: usize, value: f64);

    /// Report that the most recent measurement of `algorithm` *failed*
    /// (panic, timeout, non-finite value). The default records the
    /// [`crate::robust::failure_penalty`] — a finite multiple of the worst
    /// observed runtime — as a regular sample: the failing algorithm is
    /// strongly deprioritized but keeps a strictly positive selection
    /// probability, preserving the paper's "never exclude an algorithm"
    /// invariant even under faults.
    fn report_failure(&mut self, algorithm: usize) {
        let penalty = crate::robust::failure_penalty(self.histories());
        self.report(algorithm, penalty);
    }

    /// Write the strategy's current selection weights into `out`, one per
    /// algorithm, without allocating.
    ///
    /// Fills `min(out.len(), num_algorithms())` entries and leaves any
    /// extra entries untouched. The weights are the quantities that drive
    /// [`select`](Self::select) — not necessarily normalized (ε-based
    /// strategies write probabilities, the weighted strategies write raw
    /// weights). The default implementation writes a uniform `1.0`.
    ///
    /// This is the telemetry-facing view: `TwoPhaseTuner` snapshots the
    /// weight vector into a fixed-size buffer on every selection, so
    /// implementations must not allocate.
    fn weights_into(&self, out: &mut [f64]) {
        let n = self.num_algorithms().min(out.len());
        for w in &mut out[..n] {
            *w = 1.0;
        }
    }

    /// Current selection weights as a fresh vector; see
    /// [`weights_into`](Self::weights_into).
    fn weights(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.num_algorithms()];
        self.weights_into(&mut out);
        out
    }

    /// The algorithm currently believed best (lowest best observed
    /// runtime), or `None` before any sample.
    fn best(&self) -> Option<usize>;

    /// Per-algorithm sample histories: bounded summaries (count, best,
    /// worst, last and the strategy's window), not every sample.
    fn histories(&self) -> &[AlgorithmHistory];

    /// Display name, including parameterization (e.g. `e-greedy(10%)`).
    fn name(&self) -> String;
}

/// Shared bookkeeping for the strategy implementations: one bounded
/// history per algorithm plus the selection RNG.
#[derive(Debug, Clone)]
pub(crate) struct SelectionState {
    pub histories: Vec<AlgorithmHistory>,
    pub rng: Rng,
}

impl SelectionState {
    /// `window`: the strategy's sliding window, or `None` for strategies
    /// whose weights read no window (their histories keep no ring).
    pub fn new(num_algorithms: usize, window: Option<usize>, seed: u64) -> Self {
        assert!(num_algorithms > 0, "need at least one algorithm");
        let history = || window.map_or_else(AlgorithmHistory::new, AlgorithmHistory::windowed);
        SelectionState {
            histories: (0..num_algorithms).map(|_| history()).collect(),
            rng: Rng::new(seed),
        }
    }

    /// Record a sample for `algorithm`, emitting a
    /// [`telemetry`](crate::telemetry) eviction event when it pushes the
    /// oldest sample out of the algorithm's window.
    pub fn record(&mut self, algorithm: usize, value: f64) {
        // Non-finite values are measurement failures that bypassed the
        // robust layer; convert them to the failure penalty so the tuning
        // loop keeps running instead of poisoning the weight math.
        let value = if value.is_finite() {
            value
        } else {
            crate::robust::failure_penalty(&self.histories)
        };
        if let Some(evicted) = self.histories[algorithm].record(value) {
            crate::telemetry::emit(|| crate::telemetry::EventKind::WindowEvicted {
                algorithm: algorithm as u16,
                evicted_sample: evicted as u64,
            });
        }
    }

    /// Index of the algorithm with the lowest best observed runtime.
    pub fn best(&self) -> Option<usize> {
        self.histories
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.best_value().map(|v| (i, v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(i, _)| i)
    }

    /// First algorithm that has never been sampled, if any (deterministic
    /// order).
    pub fn first_unseen(&self) -> Option<usize> {
        self.histories.iter().position(AlgorithmHistory::is_empty)
    }
}

/// Fill in weights for never-sampled algorithms, in place.
///
/// The paper's weighted strategies "never exclude an algorithm from the
/// selection process" and require `w_A > 0`, but their weight definitions
/// need at least one sample. `NaN` entries mark algorithms whose weight is
/// undefined; they are replaced with the *optimistic* convention: the
/// maximum currently-defined weight (or 1 if none is defined), which
/// guarantees every algorithm is sampled early without any special-cased
/// initialization phase. Operating on a caller-provided slice keeps the
/// weight computation allocation-free.
pub(crate) fn fill_unseen_optimistic(weights: &mut [f64]) {
    let max_defined = weights
        .iter()
        .copied()
        .filter(|w| !w.is_nan())
        .fold(f64::NEG_INFINITY, f64::max);
    let fallback = if max_defined.is_finite() && max_defined > 0.0 {
        max_defined
    } else {
        1.0
    };
    for w in weights {
        if w.is_nan() {
            *w = fallback;
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::NominalStrategy;

    /// Drive a strategy against fixed per-algorithm costs for `iters`
    /// iterations; returns how often each algorithm was selected.
    pub fn drive(strategy: &mut dyn NominalStrategy, costs: &[f64], iters: usize) -> Vec<usize> {
        let mut counts = vec![0usize; costs.len()];
        for _ in 0..iters {
            let a = strategy.select();
            counts[a] += 1;
            strategy.report(a, costs[a]);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_unseen_uses_max_defined_weight() {
        let mut w = vec![2.0, f64::NAN, 5.0];
        fill_unseen_optimistic(&mut w);
        assert_eq!(w, vec![2.0, 5.0, 5.0]);
    }

    #[test]
    fn fill_unseen_all_undefined_gives_uniform() {
        let mut w = vec![f64::NAN, f64::NAN];
        fill_unseen_optimistic(&mut w);
        assert_eq!(w, vec![1.0, 1.0]);
    }

    #[test]
    fn selection_state_tracks_best_and_unseen() {
        let mut s = SelectionState::new(3, None, 0);
        assert_eq!(s.first_unseen(), Some(0));
        assert_eq!(s.best(), None);
        s.record(1, 5.0);
        assert_eq!(s.first_unseen(), Some(0));
        s.record(0, 3.0);
        s.record(2, 4.0);
        assert_eq!(s.first_unseen(), None);
        assert_eq!(s.best(), Some(0));
        s.record(2, 1.0);
        assert_eq!(s.best(), Some(2));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_algorithms_rejected() {
        SelectionState::new(0, None, 0);
    }

    #[test]
    fn non_finite_reports_become_penalties() {
        let mut s = SelectionState::new(2, None, 0);
        s.record(0, 10.0);
        s.record(1, f64::NAN);
        let v = s.histories[1].last_value().unwrap();
        assert!(v.is_finite());
        assert_eq!(v, 40.0, "4x the worst observed runtime");
        assert_eq!(s.best(), Some(0));
    }

    #[test]
    fn report_failure_deprioritizes_without_excluding() {
        let mut s = SlidingWindowAuc::new(2, 16, 3);
        s.report(0, 10.0);
        s.report(1, 10.0);
        for _ in 0..10 {
            s.report_failure(1);
        }
        // Arm 1's window is dominated by penalties; sample the selection
        // distribution without new reports so the window stays fixed.
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            counts[s.select()] += 1;
        }
        assert!(counts[0] > 3 * counts[1], "{counts:?}");
        assert!(counts[1] > 0, "never exclude");
    }

    #[test]
    fn failed_algorithm_recovers_after_failures_stop() {
        let mut s = EpsilonGreedy::new(2, 0.2, 5);
        s.report(0, 10.0);
        s.report(1, 8.0);
        for _ in 0..20 {
            s.report_failure(1);
        }
        assert_eq!(s.best(), Some(1), "best tracks the minimum, not recency");
        // New clean samples keep arriving; the arm stays selectable.
        let mut picked1 = 0;
        for _ in 0..500 {
            let a = s.select();
            if a == 1 {
                picked1 += 1;
            }
            s.report(a, if a == 0 { 10.0 } else { 8.0 });
        }
        assert!(picked1 > 100, "recovered arm must be exploited again");
    }
}
