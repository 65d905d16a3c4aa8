//! Extending the tuner: plugging a *custom* phase-2 strategy (UCB1) into
//! the two-phase loop.
//!
//! ```sh
//! cargo run --release --example custom_strategy
//! ```
//!
//! The paper's future work asks for combining strategies "to achieve
//! maximum convergence speed while defending against local extrema"; the
//! `NominalStrategy` trait is the extension point for that. UCB1 is a
//! natural candidate the paper does not evaluate — this example implements
//! it in ~40 lines and races it against ε-Greedy on the same workload.

use algochoice::autotune::history::AlgorithmHistory;
use algochoice::autotune::nominal::NominalStrategy;
use algochoice::autotune::prelude::*;
use algochoice::autotune::rng::Rng;
use algochoice::autotune::two_phase::Phase1Kind;

/// UCB1 over *inverse* runtimes (reward = 1/ms, scaled into [0, 1]).
struct Ucb1 {
    histories: Vec<AlgorithmHistory>,
    /// Per-arm sum of rewards, so `select` never rescans old samples.
    reward_sums: Vec<f64>,
    iteration: usize,
    reward_scale: f64,
}

impl Ucb1 {
    fn new(num_algorithms: usize, reward_scale: f64) -> Self {
        Ucb1 {
            histories: (0..num_algorithms)
                .map(|_| AlgorithmHistory::new())
                .collect(),
            reward_sums: vec![0.0; num_algorithms],
            iteration: 0,
            reward_scale,
        }
    }

    fn mean_reward(&self, a: usize) -> f64 {
        self.reward_sums[a] / self.histories[a].len() as f64
    }
}

impl NominalStrategy for Ucb1 {
    fn num_algorithms(&self) -> usize {
        self.histories.len()
    }

    fn select(&mut self) -> usize {
        // Play every arm once, then maximize mean reward + exploration bonus.
        if let Some(unseen) = self.histories.iter().position(|h| h.is_empty()) {
            return unseen;
        }
        let t = (self.iteration.max(1)) as f64;
        (0..self.num_algorithms())
            .map(|a| {
                let bonus = (2.0 * t.ln() / self.histories[a].len() as f64).sqrt();
                (a, self.mean_reward(a) + bonus)
            })
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"))
            .map(|(a, _)| a)
            .expect("at least one algorithm")
    }

    fn report(&mut self, algorithm: usize, value: f64) {
        let h = &mut self.histories[algorithm];
        h.record(value);
        // The history clamps degenerate values; reward what it recorded.
        self.reward_sums[algorithm] += self.reward_scale / h.last_value().expect("just recorded");
        self.iteration += 1;
    }

    fn best(&self) -> Option<usize> {
        self.histories
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.best_value().map(|v| (i, v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(i, _)| i)
    }

    fn histories(&self) -> &[AlgorithmHistory] {
        &self.histories
    }

    fn name(&self) -> String {
        "ucb1".into()
    }
}

fn specs() -> Vec<AlgorithmSpec> {
    (0..5)
        .map(|i| AlgorithmSpec::untunable(format!("alg-{i}")))
        .collect()
}

/// Run one strategy for `iters` iterations; return total simulated time.
fn race(mut tuner: TwoPhaseTuner, iters: usize, seed: u64) -> (String, f64, Vec<usize>) {
    const COSTS: [f64; 5] = [25.0, 9.0, 11.0, 40.0, 10.0];
    let mut rng = Rng::new(seed);
    let mut total = 0.0;
    for _ in 0..iters {
        let s = tuner.step(|alg, _| (COSTS[alg] * (1.0 + 0.05 * rng.next_gaussian())).max(0.01));
        total += s.value;
    }
    (tuner.strategy_name(), total, tuner.selection_counts())
}

fn main() {
    let iters = 400;
    let ucb = TwoPhaseTuner::with_strategy(
        specs(),
        Box::new(Ucb1::new(5, 9.0)),
        Phase1Kind::NelderMead,
        1,
    );
    let eps = TwoPhaseTuner::new(specs(), NominalKind::EpsilonGreedy(0.10), 1);

    println!("racing UCB1 against e-greedy(10%) on a 5-armed workload ({iters} iterations):\n");
    for tuner in [ucb, eps] {
        let (name, total, counts) = race(tuner, iters, 7);
        println!(
            "  {name:<16} total {total:9.1} ms   mean/iter {:6.2} ms   counts {counts:?}",
            total / iters as f64
        );
    }
    println!("\n(the optimal arm costs 9 ms; both should sit close to it)");
}
