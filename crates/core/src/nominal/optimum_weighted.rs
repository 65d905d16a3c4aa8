//! The Optimum Weighted strategy (Section III-C).
//!
//! Chooses algorithm `A` with probability relative to its current optimal
//! performance: `w_A = max_i 1/m_{A,i}` — the best (largest) inverse runtime
//! observed for `A` so far. The weight is strictly positive, so no algorithm
//! is ever excluded.
//!
//! Because weights are *absolute* inverse runtimes, algorithms whose best
//! runtimes are close receive nearly equal probabilities — the paper's
//! Section IV-B explanation for why this strategy fails to discriminate the
//! four kD-tree builders.

use crate::history::AlgorithmHistory;
use crate::nominal::{fill_unseen_optimistic, NominalStrategy, SelectionState};

/// Optimum-weighted probabilistic algorithm selection.
#[derive(Debug, Clone)]
pub struct OptimumWeighted {
    state: SelectionState,
}

impl OptimumWeighted {
    /// A new strategy over `num_algorithms` alternatives.
    pub fn new(num_algorithms: usize, seed: u64) -> Self {
        OptimumWeighted {
            state: SelectionState::new(num_algorithms, None, seed),
        }
    }
}

impl NominalStrategy for OptimumWeighted {
    fn num_algorithms(&self) -> usize {
        self.state.histories.len()
    }

    fn select(&mut self) -> usize {
        let weights = self.weights();
        self.state.rng.pick_weighted(&weights)
    }

    /// Current selection weights: best inverse runtime per algorithm,
    /// optimistic for unseen algorithms.
    fn weights_into(&self, out: &mut [f64]) {
        let n = self.num_algorithms().min(out.len());
        for (w, h) in out[..n].iter_mut().zip(&self.state.histories) {
            *w = h.best_value().map(|v| 1.0 / v).unwrap_or(f64::NAN);
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
        "optimum-weighted".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nominal::test_util::drive;

    #[test]
    fn weights_are_best_inverse_runtimes() {
        let mut s = OptimumWeighted::new(2, 1);
        s.report(0, 4.0);
        s.report(0, 2.0); // best of arm 0 is 2.0
        s.report(1, 10.0);
        assert_eq!(s.weights(), vec![0.5, 0.1]);
    }

    #[test]
    fn selection_proportional_to_inverse_best() {
        // Arms with best runtimes 1 and 4 should be picked ~4:1.
        let costs = [1.0, 4.0];
        let mut s = OptimumWeighted::new(2, 37);
        let n = 40_000;
        let counts = drive(&mut s, &costs, n);
        let frac0 = counts[0] as f64 / n as f64;
        assert!((frac0 - 0.8).abs() < 0.02, "expected ~0.8, got {frac0}");
    }

    #[test]
    fn similar_runtimes_are_not_discriminated() {
        // The paper's observation: small absolute differences yield nearly
        // equal probabilities.
        let costs = [10.0, 11.0, 12.0];
        let mut s = OptimumWeighted::new(3, 41);
        let n = 30_000;
        let counts = drive(&mut s, &costs, n);
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.35,
            "close runtimes should spread selections: {counts:?}"
        );
    }

    #[test]
    fn no_algorithm_excluded() {
        let costs = [1.0, 1000.0];
        let mut s = OptimumWeighted::new(2, 43);
        let counts = drive(&mut s, &costs, 20_000);
        assert!(counts[1] > 0, "slow arm keeps positive probability");
    }

    #[test]
    fn unseen_algorithms_get_optimistic_weight() {
        let mut s = OptimumWeighted::new(3, 47);
        s.report(0, 2.0);
        let w = s.weights();
        assert_eq!(w, vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn weight_uses_historical_best_not_last() {
        // A late bad sample must not reduce the weight (max-norm memory).
        let mut s = OptimumWeighted::new(1, 53);
        s.report(0, 2.0);
        s.report(0, 100.0);
        assert_eq!(s.weights(), vec![0.5]);
    }
}
