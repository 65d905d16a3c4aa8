//! Softmax (Gibbs/Boltzmann) action selection — the alternative the paper
//! discusses and deliberately rejects in Section III-A.
//!
//! During exploration a soft-max policy chooses an action with probability
//! from a Gibbs distribution over the action values, which *avoids* actions
//! that have produced significantly worse results. That is precisely what
//! the paper does **not** want for algorithmic choice: a slow algorithm may
//! become fast under phase-1 tuning, so it must keep being revisited. We
//! implement softmax anyway as a reproducible baseline for that argument
//! (and the `bench/crossover` ablation).
//!
//! The action value of algorithm `A` is its mean inverse runtime over a
//! sliding window; selection probability is
//! `P_A ∝ exp(Q_A / τ)` with temperature `τ > 0`.

use crate::history::AlgorithmHistory;
use crate::nominal::{NominalStrategy, SelectionState};

/// Gibbs-distribution algorithm selection.
#[derive(Debug, Clone)]
pub struct Softmax {
    state: SelectionState,
    temperature: f64,
}

impl Softmax {
    /// `temperature`: Gibbs temperature `τ > 0`; `window`: how many of
    /// each algorithm's latest samples define its action value.
    pub fn new(num_algorithms: usize, temperature: f64, window: usize, seed: u64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        assert!(window >= 1, "window must be positive");
        Softmax {
            state: SelectionState::new(num_algorithms, Some(window), seed),
            temperature,
        }
    }

    /// Normalized Gibbs selection probabilities. Unseen algorithms take the
    /// maximum observed action value (optimism under uncertainty).
    pub fn probabilities(&self) -> Vec<f64> {
        self.weights()
    }
}

impl NominalStrategy for Softmax {
    fn num_algorithms(&self) -> usize {
        self.state.histories.len()
    }

    fn select(&mut self) -> usize {
        let probs = self.probabilities();
        self.state.rng.pick_weighted(&probs)
    }

    /// Normalized Gibbs selection probabilities, computed in place.
    fn weights_into(&self, out: &mut [f64]) {
        let n = self.num_algorithms().min(out.len());
        let q = &mut out[..n];
        for (v, h) in q.iter_mut().zip(&self.state.histories) {
            let len = h.window_values().count();
            *v = if len == 0 {
                f64::NAN
            } else {
                h.window_values().map(|m| 1.0 / m).sum::<f64>() / len as f64
            };
        }
        // Unseen algorithms take the maximum observed action value.
        let q_max_defined = q
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f64::NEG_INFINITY, f64::max);
        let fallback = if q_max_defined.is_finite() {
            q_max_defined
        } else {
            0.0
        };
        for v in q.iter_mut() {
            if v.is_nan() {
                *v = fallback;
            }
        }
        // Numerically stable softmax.
        let m = q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut z = 0.0;
        for v in q.iter_mut() {
            *v = ((*v - m) / self.temperature).exp();
            z += *v;
        }
        for v in q.iter_mut() {
            *v /= z;
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
        format!("softmax(t={})", self.temperature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nominal::test_util::drive;

    #[test]
    fn probabilities_sum_to_one() {
        let mut s = Softmax::new(3, 0.5, 16, 1);
        s.report(0, 2.0);
        s.report(1, 3.0);
        s.report(2, 4.0);
        let p = s.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn low_temperature_is_nearly_greedy() {
        let costs = [1.0, 2.0, 3.0];
        let mut s = Softmax::new(3, 0.01, 16, 79);
        let counts = drive(&mut s, &costs, 5000);
        assert!(counts[0] as f64 / 5000.0 > 0.95, "{counts:?}");
    }

    #[test]
    fn high_temperature_is_nearly_uniform() {
        let costs = [1.0, 2.0, 3.0];
        let mut s = Softmax::new(3, 1000.0, 16, 83);
        let n = 30_000;
        let counts = drive(&mut s, &costs, n);
        for &c in &counts {
            assert!((c as f64 / n as f64 - 1.0 / 3.0).abs() < 0.03, "{counts:?}");
        }
    }

    #[test]
    fn avoids_significantly_worse_algorithms() {
        // The behaviour the paper rejects: a much-worse arm is starved
        // far harder than under ε-Greedy's uniform exploration.
        let costs = [1.0, 100.0];
        let mut s = Softmax::new(2, 0.1, 16, 89);
        let counts = drive(&mut s, &costs, 10_000);
        assert!(
            (counts[1] as f64) < 0.01 * 10_000.0,
            "softmax should starve the slow arm: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn rejects_nonpositive_temperature() {
        Softmax::new(2, 0.0, 16, 0);
    }
}
