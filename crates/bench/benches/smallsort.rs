//! The size-classed sort workload under the microscope:
//!
//! * **Per-class convergence** — the full `smallsort` study
//!   ([`experiments::sortstudy`]) at bench scale: every size class must
//!   converge, and the winners must *diverge* across classes (≥ 2
//!   distinct winning algorithms), or the whole context-dimension design
//!   would be pointless.
//! * **Measurement amplification** — one µs-scale sort cannot be scored
//!   by one clock reading (the timer tick swallows it), so a class site
//!   scores each proposal over consecutive real calls until their summed
//!   time spans [`autotune::robust::BATCH_TARGET_QUANTA`] ticks; every
//!   call sorts once. For representative classes this bench compares a
//!   tuned `sort_request` against the bare winner sort and reports the
//!   amplification ratio next to the batch size the host's measured tick
//!   predicts — what re-running one call until the batch spans the
//!   target would cost. The bound is relative: the ratio may not exceed
//!   a small multiple of the predicted batch, which catches runaway
//!   re-measurement without penalizing slow timers. (The CI `smallsort`
//!   job also holds the 16-element ratio below the predicted batch
//!   itself: the tuned call re-runs no batch.)
//!
//! Persists `BENCH_smallsort.json` at the workspace root.

use autotune::json::Json;
use autotune::rng::Rng;
use autotune::robust::{timer_resolution_ms, BATCH_TARGET_QUANTA, MAX_BATCH};
use autotune::two_phase::NominalKind;
use bench::harness::{BenchResult, Criterion};
use experiments::sortstudy::{self, SortStudyConfig};
use smallsort::{sort_request, sort_with, SortSites, ALGORITHM_NAMES};
use std::time::Duration;

/// Representative classes for the dispatch legs: near-register, cache-
/// resident, and the top of the class range.
const DISPATCH_CLASSES: [u32; 3] = [4, 8, 12];

fn group_name(class: u32) -> String {
    format!("smallsort_c{class:02}")
}

/// Direct vs tuned dispatch for one class. Both legs pay the same
/// reset-memcpy per iteration, so the difference is pure dispatch and
/// measurement machinery (key scan, context bind, claim, clock reads,
/// telemetry, tuner bookkeeping).
fn bench_class(c: &mut Criterion, sites: &SortSites, class: u32, seed: u64) {
    let n = (1usize << class) * 3 / 4;
    let mut rng = Rng::new(seed);
    let input: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();

    let mut group = c.benchmark_group(group_name(class));
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1));

    // Let the class site converge before either leg, so the tuned leg
    // measures steady-state tuning, not cold-start exploration, and the
    // direct leg can use the converged exploit choice.
    let mut data = input.clone();
    for _ in 0..64 {
        data.copy_from_slice(&input);
        sort_request(sites, &mut data);
    }
    let (exploit, config) = sites.class_site(class).with_tuner(|t| {
        t.as_two_phase()
            .expect("sort sites are two-phase")
            .exploit_choice()
    });

    let mut scratch = input.clone();
    group.bench_function("direct", |b| {
        b.iter(|| {
            scratch.copy_from_slice(&input);
            sort_with(exploit, &config, &mut scratch);
        })
    });
    group.bench_function("tuned", |b| {
        b.iter(|| {
            data.copy_from_slice(&input);
            sort_request(sites, &mut data);
        })
    });
    group.finish();
}

fn median_of(results: &[BenchResult], group: &str, name: &str) -> f64 {
    results
        .iter()
        .find(|r| r.group == group && r.name == name)
        .map(|r| r.median_ns)
        .unwrap_or_else(|| panic!("missing bench leg {group}/{name}"))
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    let floor_ns = timer_resolution_ms() * 1e6;

    // (a) Per-class convergence at bench scale.
    let cfg = SortStudyConfig {
        requests_per_class: if quick { 200 } else { 600 },
        seed: 20170610,
        ..SortStudyConfig::default()
    };
    let study = sortstudy::run_study(&cfg);
    println!("{}", sortstudy::summary(&study));

    // (b) Measurement amplification on representative classes.
    let sites = SortSites::register("bench/smallsort", NominalKind::EpsilonGreedy(0.10), 4711);
    let mut c = Criterion::default();
    for (i, &class) in DISPATCH_CLASSES.iter().enumerate() {
        bench_class(&mut c, &sites, class, 6000 + i as u64);
    }
    c.final_summary();

    let mut dispatch = Vec::new();
    println!("\nmeasurement amplification (timer tick {floor_ns:.0}ns):");
    for &class in &DISPATCH_CLASSES {
        let g = group_name(class);
        let direct_ns = median_of(c.results(), &g, "direct");
        let tuned_ns = median_of(c.results(), &g, "tuned");
        let amplification = tuned_ns / direct_ns;
        // The batch re-running one call would need for this class:
        // enough doubled repetitions to span the target quanta.
        let predicted_batch = ((BATCH_TARGET_QUANTA * floor_ns / direct_ns).ceil() as usize)
            .next_power_of_two()
            .clamp(1, MAX_BATCH);
        println!(
            "  class {class:>2}: direct {direct_ns:>9.0}ns  tuned {tuned_ns:>10.0}ns  \
             = {amplification:>6.1}x (predicted batch {predicted_batch})"
        );
        dispatch.push((class, direct_ns, tuned_ns, amplification, predicted_batch));
    }

    let tables: Vec<Json> = study
        .tables
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("class", Json::Num(t.class as f64)),
                ("winner", Json::Str(ALGORITHM_NAMES[t.winner].into())),
                (
                    "converged_after",
                    t.converged_after
                        .map_or(Json::Null, |i| Json::Num(i as f64)),
                ),
                ("final_median_ms", Json::Num(t.final_median_ms)),
                ("measured", Json::Num(t.measured as f64)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("id", Json::Str("smallsort".into())),
        ("floor_ns", Json::Num(floor_ns)),
        ("batch_target_quanta", Json::Num(BATCH_TARGET_QUANTA)),
        (
            "requests_per_class",
            Json::Num(cfg.requests_per_class as f64),
        ),
        ("classes", Json::Arr(tables)),
        (
            "distinct_winners",
            Json::Num(study.distinct_winners() as f64),
        ),
        (
            "dispatch",
            Json::Arr(
                dispatch
                    .iter()
                    .map(|&(class, direct_ns, tuned_ns, amplification, batch)| {
                        Json::obj(vec![
                            ("class", Json::Num(class as f64)),
                            ("direct_ns", Json::Num(direct_ns)),
                            ("tuned_ns", Json::Num(tuned_ns)),
                            ("amplification", Json::Num(amplification)),
                            ("predicted_batch", Json::Num(batch as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_smallsort.json");
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_smallsort.json");
    println!("\n→ {path}");

    // The workload's reason to exist: context-split sites must learn
    // different winners for different size classes.
    assert!(
        study.distinct_winners() >= 2,
        "all size classes converged to the same algorithm"
    );
    // Measurement amplification is bounded by the predicted batch (plus
    // headroom for scratch copies and bookkeeping) — a runaway
    // re-measurement loop blows straight through this.
    for &(class, _, _, amplification, batch) in &dispatch {
        assert!(
            amplification <= 8.0 * batch.max(1) as f64,
            "class {class}: tuned dispatch amplified {amplification:.1}x \
             against a predicted batch of {batch}"
        );
    }
    // At the top class one sort spans many ticks, so each call closes its
    // own sample and the measurement machinery must be near-free.
    if !quick {
        let top = dispatch.last().unwrap();
        assert!(
            top.3 < 4.0,
            "class {}: tuned dispatch costs {:.2}x the bare sort",
            top.0,
            top.3
        );
    }
}
