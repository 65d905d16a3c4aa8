//! The combined ε-Greedy × Gradient-Weighted strategy — the paper's future
//! work, implemented.
//!
//! Section IV-C identifies ε-Greedy's weakness: if an algorithm's *tuned*
//! performance crosses over the incumbent's (slow now, fastest later),
//! uniform ε-exploration may take very long to notice. The discussion
//! anticipates mitigating this "by combining the strategies we have
//! presented here, in particular with the Gradient-Weighted method".
//!
//! [`EpsilonGradient`] does exactly that: with probability `1 − ε` it
//! exploits the best-known algorithm (like ε-Greedy), and with probability
//! `ε` it explores — but instead of uniformly, it samples the exploration
//! target from the Gradient-Weighted distribution, steering exploration
//! budget toward algorithms that are currently *improving* under phase-1
//! tuning. Once all gradients flatten, the exploration distribution decays
//! to uniform and the strategy behaves exactly like plain ε-Greedy.

use crate::history::AlgorithmHistory;
use crate::nominal::{fill_unseen_optimistic, GradientWeighted, NominalStrategy, SelectionState};

/// ε-Greedy with gradient-weighted exploration.
#[derive(Debug, Clone)]
pub struct EpsilonGradient {
    state: SelectionState,
    epsilon: f64,
    window: usize,
}

impl EpsilonGradient {
    /// `epsilon`: exploration probability; `window`: gradient window (the
    /// paper's case studies use 16).
    pub fn new(num_algorithms: usize, epsilon: f64, window: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "epsilon must be a probability, got {epsilon}"
        );
        assert!(window >= 2, "gradient needs a window of at least 2");
        EpsilonGradient {
            state: SelectionState::new(num_algorithms, Some(window), seed),
            epsilon,
            window,
        }
    }

    /// Exploration weights: the Gradient-Weighted distribution over the
    /// current histories (neutral weight 2 for arms without a gradient).
    pub fn exploration_weights(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.num_algorithms()];
        self.exploration_weights_into(&mut out);
        out
    }

    fn exploration_weights_into(&self, out: &mut [f64]) {
        let n = self.num_algorithms().min(out.len());
        for (w, h) in out[..n].iter_mut().zip(&self.state.histories) {
            *w = h
                .window_gradient()
                .map(GradientWeighted::weight_of_gradient)
                .or(if h.is_empty() { None } else { Some(2.0) })
                .unwrap_or(f64::NAN);
        }
        fill_unseen_optimistic(&mut out[..n]);
    }
}

impl NominalStrategy for EpsilonGradient {
    fn num_algorithms(&self) -> usize {
        self.state.histories.len()
    }

    fn select(&mut self) -> usize {
        if self.state.rng.next_bool(self.epsilon) {
            let weights = self.exploration_weights();
            return self.state.rng.pick_weighted(&weights);
        }
        if let Some(unseen) = self.state.first_unseen() {
            return unseen;
        }
        self.state.best().expect("all algorithms have samples")
    }

    /// The effective selection distribution: the normalized exploration
    /// weights scaled by ε, plus `1 − ε` on the exploitation target.
    fn weights_into(&self, out: &mut [f64]) {
        let n = self.num_algorithms().min(out.len());
        if n == 0 {
            return;
        }
        self.exploration_weights_into(&mut out[..n]);
        let sum: f64 = out[..n].iter().sum();
        if sum > 0.0 {
            for w in &mut out[..n] {
                *w = self.epsilon * *w / sum;
            }
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
        format!(
            "e-gradient({}%,w={})",
            (self.epsilon * 100.0).round() as u32,
            self.window
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nominal::test_util::drive;

    #[test]
    fn converges_like_epsilon_greedy_on_static_costs() {
        let costs = [40.0, 8.0, 25.0];
        let mut s = EpsilonGradient::new(3, 0.10, 16, 3);
        let counts = drive(&mut s, &costs, 1000);
        assert_eq!(s.best(), Some(1));
        assert!(counts[1] as f64 / 1000.0 > 0.8, "{counts:?}");
    }

    #[test]
    fn exploration_prefers_improving_algorithms() {
        // Arm 0 is the incumbent (fast, flat). Arm 1 is slow but improving;
        // arm 2 is slow and flat. Exploration picks must favor arm 1 over
        // arm 2.
        let mut s = EpsilonGradient::new(3, 0.5, 16, 7);
        let mut arm1 = 0.9f64;
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            let a = s.select();
            counts[a] += 1;
            let v = match a {
                0 => 0.10,
                1 => {
                    // Improving in steep inverse-runtime territory.
                    arm1 = (arm1 * 0.95).max(0.3);
                    arm1
                }
                _ => 0.9,
            };
            s.report(a, v);
        }
        assert!(
            counts[1] > counts[2],
            "improving arm should receive more exploration: {counts:?}"
        );
    }

    #[test]
    fn handles_the_crossover_scenario_faster_than_plain_greedy_exploits_it() {
        // Arm 0 fixed at 1.0. Arm 1 improves by 2% per *visit*, from 3.0
        // down to 0.5 — it crosses over after ~90 visits. Track how many
        // iterations each strategy needs before its `best()` flips to 1.
        let run = |mut s: Box<dyn NominalStrategy>| -> usize {
            let mut arm1 = 3.0f64;
            for i in 0..30_000 {
                let a = s.select();
                let v = if a == 0 {
                    1.0
                } else {
                    arm1 = (arm1 * 0.98).max(0.5);
                    arm1
                };
                s.report(a, v);
                if s.best() == Some(1) {
                    return i;
                }
            }
            30_000
        };
        let mut wins = 0;
        let trials = 9;
        for seed in 0..trials {
            let greedy = run(Box::new(crate::nominal::EpsilonGreedy::new(2, 0.10, seed)));
            let combined = run(Box::new(EpsilonGradient::new(2, 0.10, 16, seed)));
            if combined <= greedy {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= trials,
            "combined should win the crossover at least half the time ({wins}/{trials})"
        );
    }

    #[test]
    fn flat_gradients_decay_to_uniform_exploration() {
        let mut s = EpsilonGradient::new(4, 1.0, 16, 11); // pure exploration
        let counts = drive(&mut s, &[5.0, 5.0, 5.0, 5.0], 20_000);
        for &c in &counts {
            let frac = c as f64 / 20_000.0;
            assert!((frac - 0.25).abs() < 0.03, "{counts:?}");
        }
    }

    #[test]
    fn name_encodes_parameters() {
        assert_eq!(
            EpsilonGradient::new(2, 0.05, 16, 0).name(),
            "e-gradient(5%,w=16)"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_epsilon() {
        EpsilonGradient::new(2, -0.1, 16, 0);
    }
}
