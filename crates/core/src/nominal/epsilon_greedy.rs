//! The ε-Greedy strategy (Section III-A).
//!
//! Select the currently best performing algorithm with probability `1 − ε`,
//! otherwise an algorithm uniformly at random. ε directly controls the
//! explorative behaviour; the paper evaluates ε ∈ {5%, 10%, 20%}.
//!
//! Initialization follows the paper exactly: the strategy tries "every
//! individual algorithm exactly once in deterministic order, although this
//! is still subject to the ε-randomness" — i.e. the ε exploration roll is
//! made first, and only the exploitation branch walks the deterministic
//! initialization order. This is what produces the visible 7-step staircase
//! at the start of the Figure 2 curves.

use crate::history::AlgorithmHistory;
use crate::nominal::{NominalStrategy, SelectionState};

/// ε-Greedy algorithm selection.
///
/// ```
/// use autotune::nominal::{EpsilonGreedy, NominalStrategy};
///
/// let mut s = EpsilonGreedy::new(3, 0.10, 42);
/// for _ in 0..100 {
///     let alg = s.select();
///     let runtime_ms = [20.0, 5.0, 12.0][alg];
///     s.report(alg, runtime_ms);
/// }
/// assert_eq!(s.best(), Some(1)); // the 5 ms algorithm
/// ```
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    state: SelectionState,
    epsilon: f64,
}

impl EpsilonGreedy {
    /// `epsilon` is the exploration probability in `[0, 1]`.
    pub fn new(num_algorithms: usize, epsilon: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "epsilon must be a probability, got {epsilon}"
        );
        EpsilonGreedy {
            state: SelectionState::new(num_algorithms, None, seed),
            epsilon,
        }
    }

    /// The exploration probability ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl NominalStrategy for EpsilonGreedy {
    fn num_algorithms(&self) -> usize {
        self.state.histories.len()
    }

    fn select(&mut self) -> usize {
        // The ε-roll happens even during initialization.
        if self.state.rng.next_bool(self.epsilon) {
            return self.state.rng.pick_index(self.num_algorithms());
        }
        // Deterministic-order initialization: try each algorithm once.
        if let Some(unseen) = self.state.first_unseen() {
            return unseen;
        }
        self.state.best().expect("all algorithms have samples")
    }

    /// The effective selection distribution: `ε/|𝒜|` everywhere plus
    /// `1 − ε` on the exploitation target (the next unseen algorithm
    /// during initialization, the best-known one afterwards).
    fn weights_into(&self, out: &mut [f64]) {
        let n = self.num_algorithms().min(out.len());
        if n == 0 {
            return;
        }
        let explore = self.epsilon / self.num_algorithms() as f64;
        for w in &mut out[..n] {
            *w = explore;
        }
        let target = self
            .state
            .first_unseen()
            .or_else(|| self.state.best())
            .unwrap_or(0);
        if target < n {
            out[target] += 1.0 - self.epsilon;
        }
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
        format!("e-greedy({}%)", (self.epsilon * 100.0).round() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nominal::test_util::drive;

    #[test]
    fn converges_to_best_algorithm() {
        let costs = [50.0, 10.0, 30.0, 45.0];
        let mut s = EpsilonGreedy::new(4, 0.10, 42);
        let counts = drive(&mut s, &costs, 1000);
        assert_eq!(s.best(), Some(1));
        // Exploitation share: ~(1-ε) + ε/|A| of picks on the best arm.
        assert!(
            counts[1] as f64 / 1000.0 > 0.8,
            "best arm should dominate: {counts:?}"
        );
    }

    #[test]
    fn zero_epsilon_is_pure_exploitation_after_init() {
        let costs = [5.0, 2.0, 8.0];
        let mut s = EpsilonGreedy::new(3, 0.0, 7);
        let counts = drive(&mut s, &costs, 100);
        // 1 init pick for each arm, all remaining 97 on the best.
        assert_eq!(counts[1], 98);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[2], 1);
    }

    #[test]
    fn initialization_is_deterministic_order_without_epsilon() {
        let mut s = EpsilonGreedy::new(5, 0.0, 3);
        let mut order = Vec::new();
        for _ in 0..5 {
            let a = s.select();
            order.push(a);
            s.report(a, 1.0 + a as f64);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn exploration_rate_matches_epsilon() {
        // On a flat cost landscape the "best" arm is the first one sampled;
        // exploration picks should occur at roughly rate ε·(1 − 1/|A|)
        // away from it.
        let costs = [1.0, 1.0, 1.0, 1.0];
        let mut s = EpsilonGreedy::new(4, 0.20, 11);
        let n = 20_000;
        let counts = drive(&mut s, &costs, n);
        let off_best: usize = counts.iter().sum::<usize>() - counts[0];
        let rate = off_best as f64 / n as f64;
        // Expected: ε·3/4 = 0.15 (plus 3 init picks).
        assert!(
            (rate - 0.15).abs() < 0.02,
            "off-best rate {rate} should be ~0.15"
        );
    }

    #[test]
    fn every_algorithm_keeps_positive_probability() {
        let costs = [1.0, 100.0];
        let mut s = EpsilonGreedy::new(2, 0.10, 13);
        let counts = drive(&mut s, &costs, 5000);
        assert!(
            counts[1] > 50,
            "slow arm must still be explored: {counts:?}"
        );
    }

    #[test]
    fn adapts_when_an_algorithm_improves() {
        // Simulates phase-1 tuning making a slow algorithm fast: ε-Greedy
        // must switch to it once its observed best beats the incumbent.
        let mut s = EpsilonGreedy::new(2, 0.20, 17);
        // Arm 0 constant at 10; arm 1 starts at 30 and improves to 5.
        let mut arm1_cost = 30.0f64;
        for _ in 0..400 {
            let a = s.select();
            let v = if a == 0 {
                10.0
            } else {
                arm1_cost = (arm1_cost - 1.0).max(5.0);
                arm1_cost
            };
            s.report(a, v);
        }
        assert_eq!(s.best(), Some(1));
    }

    #[test]
    fn name_includes_percentage() {
        assert_eq!(EpsilonGreedy::new(2, 0.05, 0).name(), "e-greedy(5%)");
        assert_eq!(EpsilonGreedy::new(2, 0.20, 0).name(), "e-greedy(20%)");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_epsilon() {
        EpsilonGreedy::new(2, 1.5, 0);
    }
}
