//! The Gradient Weighted strategy (Section III-B).
//!
//! Chooses algorithm `A` with probability proportional to a weight derived
//! from the *gradient* of its inverse-runtime curve over the latest
//! iteration window `[i0, i1]` of `A`'s own samples:
//!
//! ```text
//! G_A = (1/m_{A,i1} − 1/m_{A,i0}) / (i1 − i0)
//! w_A = G_A + 2      if G_A ≥ −1
//!       −1 / G_A     otherwise
//! ```
//!
//! Both branches are strictly positive, so no algorithm is ever excluded.
//! The strategy prefers algorithms that are *improving* under phase-1
//! tuning, regardless of their absolute performance — which is exactly why
//! the paper calls it "a special case, which we do not expect to be
//! applicable in practice": once tuning converges everywhere, the gradients
//! vanish and selection degenerates to uniform random (the regression test
//! below pins that behaviour down).

use crate::history::AlgorithmHistory;
use crate::nominal::{fill_unseen_optimistic, NominalStrategy, SelectionState};

/// Default iteration window used by the paper's case studies.
pub const DEFAULT_WINDOW: usize = 16;

/// Gradient-weighted probabilistic algorithm selection.
#[derive(Debug, Clone)]
pub struct GradientWeighted {
    state: SelectionState,
    window: usize,
}

impl GradientWeighted {
    /// `window`: how many of each algorithm's latest samples the gradient
    /// is fit over (the paper uses 16; must be at least 2).
    pub fn new(num_algorithms: usize, window: usize, seed: u64) -> Self {
        assert!(window >= 2, "gradient needs a window of at least 2");
        GradientWeighted {
            state: SelectionState::new(num_algorithms, Some(window), seed),
            window,
        }
    }

    /// The paper's weight function of a gradient.
    pub fn weight_of_gradient(g: f64) -> f64 {
        if g >= -1.0 {
            g + 2.0
        } else {
            -1.0 / g
        }
    }
}

impl NominalStrategy for GradientWeighted {
    fn num_algorithms(&self) -> usize {
        self.state.histories.len()
    }

    fn select(&mut self) -> usize {
        let weights = self.weights();
        self.state.rng.pick_weighted(&weights)
    }

    /// Current selection weights. Algorithms with fewer than two samples
    /// have an undefined gradient; they are treated as gradient 0
    /// (weight 2), which matches the "no special initialization" behaviour
    /// of the paper's non-greedy strategies.
    fn weights_into(&self, out: &mut [f64]) {
        let n = self.num_algorithms().min(out.len());
        for (w, h) in out[..n].iter_mut().zip(&self.state.histories) {
            *w = h
                .window_gradient()
                .map(Self::weight_of_gradient)
                .or(if h.is_empty() { None } else { Some(2.0) })
                .unwrap_or(f64::NAN);
        }
        fill_unseen_optimistic(&mut out[..n]);
    }

    fn report(&mut self, algorithm: usize, value: f64) {
        self.state.record(algorithm, value);
    }

    fn best(&self) -> Option<usize> {
        self.state.best()
    }

    fn histories(&self) -> &[AlgorithmHistory] {
        &self.state.histories
    }

    fn name(&self) -> String {
        format!("gradient-weighted(w={})", self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nominal::test_util::drive;

    #[test]
    fn weight_function_matches_paper() {
        // G ≥ −1 branch.
        assert_eq!(GradientWeighted::weight_of_gradient(0.0), 2.0);
        assert_eq!(GradientWeighted::weight_of_gradient(1.0), 3.0);
        assert_eq!(GradientWeighted::weight_of_gradient(-1.0), 1.0);
        // G < −1 branch.
        assert_eq!(GradientWeighted::weight_of_gradient(-2.0), 0.5);
        assert_eq!(GradientWeighted::weight_of_gradient(-10.0), 0.1);
    }

    #[test]
    fn weight_is_always_positive() {
        for g in [-1e9, -100.0, -1.001, -1.0, -0.5, 0.0, 0.5, 1e9] {
            assert!(
                GradientWeighted::weight_of_gradient(g) > 0.0,
                "weight must be positive at G={g}"
            );
        }
    }

    #[test]
    fn weight_is_continuous_at_branch_point() {
        let left = GradientWeighted::weight_of_gradient(-1.0 - 1e-9);
        let right = GradientWeighted::weight_of_gradient(-1.0 + 1e-9);
        assert!((left - right).abs() < 1e-6);
    }

    #[test]
    fn flat_performance_degenerates_to_uniform_random() {
        // The paper's Section IV-A expectation: zero gradients everywhere
        // make the strategy behave like random selection.
        let costs = [10.0, 20.0, 30.0];
        let mut s = GradientWeighted::new(3, DEFAULT_WINDOW, 23);
        let n = 30_000;
        let counts = drive(&mut s, &costs, n);
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 1.0 / 3.0).abs() < 0.03,
                "expected ~uniform selection, got {counts:?}"
            );
        }
    }

    #[test]
    fn prefers_improving_algorithm() {
        // Arm 0 is constant; arm 1 improves steadily. The improving arm
        // must receive a larger share of selections while it improves.
        let mut s = GradientWeighted::new(2, DEFAULT_WINDOW, 29);
        let mut arm1 = 100.0f64;
        let mut counts = [0usize; 2];
        for _ in 0..600 {
            let a = s.select();
            counts[a] += 1;
            let v = if a == 0 {
                50.0
            } else {
                arm1 = (arm1 * 0.9).max(1.0);
                arm1
            };
            s.report(a, v);
        }
        assert!(
            counts[1] > counts[0],
            "improving arm should be preferred: {counts:?}"
        );
    }

    #[test]
    fn degrading_algorithm_is_deprioritized_but_not_excluded() {
        let mut s = GradientWeighted::new(2, DEFAULT_WINDOW, 31);
        // Arm 0 flat: G = 0, weight 2. Arm 1 steeply degrading in inverse
        // runtime (1/0.1 = 10 down to 1/0.4 = 2.5): G = -7.5 < -1, so its
        // weight takes the -1/G branch and collapses to ~0.133 — small but
        // strictly positive, per the paper's "never exclude" requirement.
        s.report(0, 50.0);
        s.report(0, 50.0);
        s.report(1, 0.1);
        s.report(1, 0.4);
        let w = s.weights();
        assert_eq!(w[0], 2.0);
        assert!(
            w[1] > 0.0 && w[1] < 0.2,
            "expected collapsed weight, got {w:?}"
        );
        // Selection probability stays positive: the degraded arm is still
        // picked occasionally.
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            counts[s.select()] += 1;
        }
        assert!(counts[0] > counts[1], "{counts:?}");
        assert!(counts[1] > 0, "never exclude an algorithm entirely");
    }

    #[test]
    fn single_sample_arms_get_neutral_weight() {
        let mut s = GradientWeighted::new(2, DEFAULT_WINDOW, 1);
        s.report(0, 5.0);
        let w = s.weights();
        assert_eq!(w, vec![2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_window_below_two() {
        GradientWeighted::new(2, 1, 0);
    }
}
