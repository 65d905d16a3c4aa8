//! The context layer under the microscope:
//!
//! * **Warm vs cold admission** — the claim the `contexts` study makes
//!   on wall-clock sorts, re-proven here on *deterministic synthetic
//!   costs* (pure functions of key, algorithm, and configuration, so
//!   the result is machine-independent and CI-assertable): a key
//!   admitted with nearest-neighbor warm-starting must reach the
//!   within-5% regime in no more iterations than the same key admitted
//!   cold, summed over a probe set.
//! * **LRU churn overhead** — dispatch+report through a table churning
//!   every key through too few slots (every call parks one tuner and
//!   reinstates another) against the same cycle on a full-capacity
//!   table. The eviction path costs one rebind — bounded, not free; a
//!   runaway would blow the ratio assertion.
//!
//! Persists `BENCH_contexts.json` at the workspace root.

use autotune::context::{ContextKey, ContextSites};
use autotune::json::Json;
use autotune::param::Parameter;
use autotune::robust::MeasureOutcome;
use autotune::site::SiteSpec;
use autotune::space::SearchSpace;
use autotune::two_phase::{AlgorithmSpec, NominalKind};
use bench::harness::Criterion;
use experiments::convergence::settled_after;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key(i64);

impl ContextKey for Key {
    fn features(&self) -> Vec<i64> {
        vec![self.0]
    }
    fn label(&self) -> String {
        format!("k{}", self.0)
    }
}

/// Two algorithms, one tunable interval each. Algorithm 0 is the right
/// choice everywhere; adjacent keys have adjacent optima, so a
/// neighbor's incumbent is a good start but never the exact optimum.
fn spec_for(prefix: &'static str) -> impl Fn(&Key) -> SiteSpec + Send + Sync + 'static {
    move |k: &Key| {
        SiteSpec::algorithms(
            format!("{prefix}/{}", k.label()),
            vec![
                AlgorithmSpec::new(
                    "good",
                    SearchSpace::new(vec![Parameter::interval("x", 1, 64)]),
                ),
                AlgorithmSpec::new(
                    "bad",
                    SearchSpace::new(vec![Parameter::interval("y", 1, 64)]),
                ),
            ],
            NominalKind::EpsilonGreedy(0.10),
            0xBE7C ^ k.0 as u64,
        )
    }
}

/// The deterministic cost surface: no clocks anywhere near the tuner.
fn cost(key: Key, algorithm: usize, x: i64) -> f64 {
    let target = 30 + key.0 * 2;
    let base = if algorithm == 0 { 1.0 } else { 3.0 };
    base + (x - target).abs() as f64 / 8.0
}

/// One tuned call; returns the cost the tuner was fed.
fn call(table: &ContextSites<Key>, key: Key) -> f64 {
    let guard = table.dispatch(&key);
    let v = cost(key, guard.algorithm(), guard.config().get(0).as_i64());
    guard.post_outcome(MeasureOutcome::from_value(v));
    v
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    let train_iters = if quick { 120 } else { 400 };
    let probe_iters = if quick { 120 } else { 240 };

    // (a) Warm vs cold admission on the deterministic surface.
    let warm = ContextSites::register("bench/ctx/warm", 8, spec_for("bench/ctx/warm"));
    let cold = ContextSites::register("bench/ctx/cold", 8, spec_for("bench/ctx/cold"))
        .with_warm_start(false);
    for _ in 0..train_iters {
        call(&warm, Key(0));
        call(&cold, Key(0));
    }
    let probes = [Key(1), Key(2), Key(3)];
    let mut pairs = Vec::new();
    println!("warm vs cold admission (synthetic costs, {probe_iters} iters/probe):");
    for &key in &probes {
        let warm_costs: Vec<f64> = (0..probe_iters).map(|_| call(&warm, key)).collect();
        let cold_costs: Vec<f64> = (0..probe_iters).map(|_| call(&cold, key)).collect();
        // The study's criterion on the synthetic cost stream; a probe
        // that never settles counts its whole stream.
        let conv = |costs: &[f64]| settled_after(costs).unwrap_or(costs.len());
        let (w, c) = (conv(&warm_costs), conv(&cold_costs));
        println!("  key {:>2}: warm conv@{w:<4} cold conv@{c}", key.0);
        pairs.push((key.0, w, c));
    }
    let warm_total: usize = pairs.iter().map(|&(_, w, _)| w).sum();
    let cold_total: usize = pairs.iter().map(|&(_, _, c)| c).sum();
    println!("  total: warm {warm_total} vs cold {cold_total}\n");

    // (b) LRU churn overhead: every dispatch in the churning leg evicts.
    const CHURN_KEYS: i64 = 8;
    const CHURN_CAPACITY: usize = 4;
    let resident = ContextSites::register("bench/ctx/resident", CHURN_KEYS as usize, {
        spec_for("bench/ctx/resident")
    });
    let churning = ContextSites::register(
        "bench/ctx/churning",
        CHURN_CAPACITY,
        spec_for("bench/ctx/churning"),
    );
    let mut c = Criterion::default();
    let mut group = c.benchmark_group("context_dispatch");
    group
        .sample_size(if quick { 15 } else { 40 })
        .measurement_time(Duration::from_secs(1));
    group.bench_function("resident", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            call(&resident, Key(i % CHURN_KEYS));
        })
    });
    group.bench_function("churning", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            call(&churning, Key(i % CHURN_KEYS));
        })
    });
    group.finish();
    c.final_summary();

    let median_of = |name: &str| {
        c.results()
            .iter()
            .find(|r| r.group == "context_dispatch" && r.name == name)
            .map(|r| r.median_ns)
            .unwrap_or_else(|| panic!("missing bench leg {name}"))
    };
    let resident_ns = median_of("resident");
    let churning_ns = median_of("churning");
    let churn_stats = churning.stats();
    println!(
        "\nchurn overhead: resident {resident_ns:.0}ns vs churning {churning_ns:.0}ns per \
         dispatch ({} evictions, {} reinstatements)",
        churn_stats.evictions, churn_stats.reinstatements
    );

    let doc = Json::obj(vec![
        ("id", Json::Str("contexts".into())),
        ("quick", Json::Bool(quick)),
        ("train_iters", Json::Num(train_iters as f64)),
        ("probe_iters", Json::Num(probe_iters as f64)),
        (
            "probes",
            Json::Arr(
                pairs
                    .iter()
                    .map(|&(k, w, c)| {
                        Json::obj(vec![
                            ("key", Json::Num(k as f64)),
                            ("warm_conv", Json::Num(w as f64)),
                            ("cold_conv", Json::Num(c as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("warm_iterations", Json::Num(warm_total as f64)),
        ("cold_iterations", Json::Num(cold_total as f64)),
        (
            "churn",
            Json::obj(vec![
                ("keys", Json::Num(CHURN_KEYS as f64)),
                ("capacity", Json::Num(CHURN_CAPACITY as f64)),
                ("resident_ns_per_dispatch", Json::Num(resident_ns)),
                ("churning_ns_per_dispatch", Json::Num(churning_ns)),
                ("evictions", Json::Num(churn_stats.evictions as f64)),
                (
                    "reinstatements",
                    Json::Num(churn_stats.reinstatements as f64),
                ),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_contexts.json");
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_contexts.json");
    println!("→ {path}");

    // The warm-start contract, on a surface with no measurement noise:
    // seeding from the neighbor's posterior can only shorten the road to
    // the converged regime.
    assert!(
        warm_total <= cold_total,
        "warm-started probes took {warm_total} iterations vs {cold_total} cold"
    );
    // Churn is a rebind per dispatch — bounded overhead, not a rebuild.
    assert!(
        churning_ns <= 50.0 * resident_ns.max(1.0),
        "churning dispatch {churning_ns:.0}ns vs resident {resident_ns:.0}ns: eviction \
         path has runaway cost"
    );
    assert!(
        churn_stats.evictions > 0 && churn_stats.reinstatements > 0,
        "churning leg never actually churned"
    );
}
