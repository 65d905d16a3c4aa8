//! The concurrent multi-site runtime under the microscope:
//!
//! * **Dispatch overhead** — one site driven single-threaded vs the same
//!   two-phase tuner driven directly, around identical spin work. The
//!   site adds a claim CAS, a seqlock publication, and a registry-slot
//!   indirection per call; the acceptance bar is ≤ 10% overhead.
//! * **Aggregate throughput** — 1000+ independent sites swept by 1..N
//!   request threads; the sharded registry and per-slot cache-line
//!   isolation should scale near-linearly up to the core count.
//! * **Convergence parity** — a sample of sites re-driven with synthetic
//!   deterministic costs must make *bit-identical* decisions, iteration
//!   by iteration, to direct tuners with the same seeds.
//!
//! Persists `BENCH_sites.json` at the workspace root. Thread counts for
//! the throughput sweep can be overridden with
//! `SITES_BENCH_THREADS=1,8` (comma-separated), which CI uses to pin its
//! 1-thread and 8-thread smoke legs.

use autotune::json::Json;
use autotune::robust::MeasureOutcome;
use autotune::site::{register, site, Site, SiteSpec};
use autotune::space::Configuration;
use autotune::two_phase::{AlgorithmSpec, NominalKind, Phase1Kind, TwoPhaseTuner};
use bench::harness::{BenchResult, Criterion};
use std::time::{Duration, Instant};

const DISPATCH_GROUP: &str = "sites_dispatch";
const NUM_SITES: usize = 1024;
const WORK_US: u64 = 5;

fn specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::untunable("a0"),
        AlgorithmSpec::untunable("a1"),
        AlgorithmSpec::untunable("a2"),
    ]
}

fn spin_for_us(us: u64) {
    let start = Instant::now();
    while start.elapsed().as_micros() < us as u128 {
        std::hint::spin_loop();
    }
}

/// (a) Per-call cost with ~WORK_US µs of real work inside: direct tuner
/// vs site dispatch, both single-threaded.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group(DISPATCH_GROUP);
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));

    let mut tuner = TwoPhaseTuner::new(specs(), NominalKind::EpsilonGreedy(0.10), 42);
    group.bench_function("direct", |b| {
        b.iter(|| {
            let (alg, _config) = tuner.next();
            spin_for_us(WORK_US);
            tuner.report((1 + alg) as f64);
        })
    });

    let s = site(register(SiteSpec::algorithms(
        "bench-dispatch",
        specs(),
        NominalKind::EpsilonGreedy(0.10),
        42,
    )));
    group.bench_function("site", |b| {
        b.iter(|| {
            let guard = s.pre();
            let alg = guard.algorithm();
            spin_for_us(WORK_US);
            guard.post_outcome(MeasureOutcome::Ok((1 + alg) as f64));
        })
    });
    group.finish();
}

fn register_population(n: usize) -> Vec<Site> {
    (0..n)
        .map(|i| {
            site(register(SiteSpec::algorithms(
                format!("bench-pop-{i}"),
                specs(),
                NominalKind::EpsilonGreedy(0.10),
                9000 + i as u64,
            )))
        })
        .collect()
}

/// (b) One throughput leg: `threads` threads each sweep the population
/// `rounds` times; returns (total calls, contended calls, wall ms).
fn throughput_leg(sites: &[Site], threads: usize, rounds: usize) -> (u64, u64, f64) {
    let calls_before: u64 = sites.iter().map(|s| s.calls()).sum();
    let contended_before: u64 = sites.iter().map(|s| s.contended()).sum();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let sites = &sites;
            scope.spawn(move || {
                for _ in 0..rounds {
                    for k in 0..sites.len() {
                        let i = (k + t * sites.len() / threads.max(1)) % sites.len();
                        sites[i].tuned(|alg, _| {
                            spin_for_us(WORK_US.min(1 + alg as u64));
                        });
                    }
                }
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let calls: u64 = sites.iter().map(|s| s.calls()).sum::<u64>() - calls_before;
    let contended: u64 = sites.iter().map(|s| s.contended()).sum::<u64>() - contended_before;
    (calls, contended, wall_ms)
}

fn thread_counts() -> Vec<usize> {
    if let Ok(v) = std::env::var("SITES_BENCH_THREADS") {
        let parsed: Vec<usize> = v
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1];
    let mut n = 2;
    while n <= cores.min(8) {
        counts.push(n);
        n *= 2;
    }
    counts
}

/// (c) Convergence parity: drive a fresh site and a direct tuner with the
/// same seed over the same deterministic synthetic costs; every
/// iteration's (algorithm, configuration, value) must be bit-identical —
/// what each guard was handed and posted against what the direct tuner's
/// `report_outcome` returned.
fn convergence_parity(iterations: usize) -> bool {
    fn cost(alg: usize, config: &Configuration) -> f64 {
        [14.0, 8.0, 11.0][alg]
            + config
                .values()
                .iter()
                .map(|v| v.as_f64().abs())
                .sum::<f64>()
    }
    (0..4).all(|rep| {
        let seed = 31_337 + rep;
        let mut direct = TwoPhaseTuner::with_phase1(
            specs(),
            NominalKind::EpsilonGreedy(0.10),
            Phase1Kind::NelderMead,
            seed,
        );
        let direct_trace: Vec<_> = (0..iterations)
            .map(|_| {
                let (alg, config) = direct.next();
                let v = cost(alg, &config);
                let s = direct.report_outcome(MeasureOutcome::Ok(v));
                (s.algorithm, s.config, s.value.to_bits())
            })
            .collect();
        let s = site(register(SiteSpec::algorithms(
            format!("bench-parity-{rep}"),
            specs(),
            NominalKind::EpsilonGreedy(0.10),
            seed,
        )));
        let site_trace: Vec<_> = (0..iterations)
            .map(|_| {
                let guard = s.pre();
                let (alg, config) = (guard.algorithm(), guard.config().clone());
                let v = cost(alg, &config);
                guard.post_outcome(MeasureOutcome::Ok(v));
                (alg, config, v.to_bits())
            })
            .collect();
        site_trace == direct_trace
            && s.with_tuner(|t| t.as_two_phase().unwrap().iteration() == iterations)
    })
}

fn median_of(results: &[BenchResult], name: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.group == DISPATCH_GROUP && r.name == name)
        .map(|r| r.median_ns)
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut c = Criterion::default();
    bench_dispatch(&mut c);
    c.final_summary();

    let direct_ns = median_of(c.results(), "direct").expect("direct leg ran");
    let site_ns = median_of(c.results(), "site").expect("site leg ran");
    let overhead = site_ns / direct_ns;
    println!(
        "\ndispatch overhead: {overhead:.4}x (site {site_ns:.0}ns vs direct {direct_ns:.0}ns)"
    );

    let sites = register_population(NUM_SITES);
    let rounds = if quick { 5 } else { 20 };
    let counts = thread_counts();
    let mut legs = Vec::new();
    println!("\nthroughput sweep: {NUM_SITES} sites x {rounds} rounds, {host_cores} host cores");
    for &threads in &counts {
        let (calls, contended, wall_ms) = throughput_leg(&sites, threads, rounds);
        let cps = calls as f64 / (wall_ms / 1e3);
        println!(
            "  {threads:>2} threads: {calls:>8} calls ({contended:>7} contended) in {wall_ms:>8.1}ms = {cps:>10.0} calls/s"
        );
        legs.push((threads, calls, contended, wall_ms, cps));
    }
    let scaling = match (legs.first(), legs.last()) {
        (Some(first), Some(last)) if last.0 > first.0 => last.4 / first.4,
        _ => 1.0,
    };
    if let Some(last) = legs.last() {
        println!("aggregate scaling 1 -> {} threads: {scaling:.2}x", last.0);
    }

    let parity_iters = if quick { 60 } else { 200 };
    let parity = convergence_parity(parity_iters);
    println!("convergence parity (site vs direct, {parity_iters} iters x 4 seeds): {parity}");

    let doc = Json::obj(vec![
        ("id", Json::Str("sites".into())),
        ("num_sites", Json::Num(NUM_SITES as f64)),
        ("work_us", Json::Num(WORK_US as f64)),
        ("host_cores", Json::Num(host_cores as f64)),
        ("dispatch_direct_ns", Json::Num(direct_ns)),
        ("dispatch_site_ns", Json::Num(site_ns)),
        ("dispatch_overhead", Json::Num(overhead)),
        (
            "throughput",
            Json::Arr(
                legs.iter()
                    .map(|&(threads, calls, contended, wall_ms, cps)| {
                        Json::obj(vec![
                            ("threads", Json::Num(threads as f64)),
                            ("calls", Json::Num(calls as f64)),
                            ("contended", Json::Num(contended as f64)),
                            ("wall_ms", Json::Num(wall_ms)),
                            ("calls_per_sec", Json::Num(cps)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("aggregate_scaling", Json::Num(scaling)),
        ("convergence_parity", Json::Bool(parity)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sites.json");
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_sites.json");
    println!("\n→ {path}");

    assert!(parity, "site dispatch diverged from the direct tuner");
    // The overhead bar only means something on a full (non-quick) run on
    // an otherwise idle machine; quick CI legs just record the number.
    if !quick {
        assert!(
            overhead < 1.10,
            "site dispatch overhead {overhead:.3}x exceeds the 10% bar"
        );
    }
    // The 1 -> 8 thread scaling bar requires 8 real cores to be physical.
    if !quick && host_cores >= 8 && counts.first() == Some(&1) && counts.last() >= Some(&8) {
        assert!(
            scaling >= 6.0,
            "aggregate throughput scaled only {scaling:.2}x from 1 to 8 threads"
        );
    }
}
