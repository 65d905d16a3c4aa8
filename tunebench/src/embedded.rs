//! The in-process workload: two caller threads sorting small inputs
//! through `smallsort::sort_request_keyed` on an LRU-bounded context
//! table with fewer slots than live keys, so calls admit, evict, park,
//! reinstate and warm-start, and contend for claims.
//!
//! The traced variant re-composes `sort_request_keyed` from its public
//! calls (`SortKey::of`, `table().dispatch`, `batched_time_ms`,
//! `sort_with`, `post`/`post_outcome`) and records a span around each.

use crate::check::sorted_permutation;
use crate::host::Reference;
use crate::kernels::{self, Oracle};
use crate::loadgen::{windowed_quantile, windowed_rate};
use crate::probes;
use crate::trace::{durations, ledger, now_ns, Spans};
use crate::{median, peak_rss_mb, quantile, Report};
use autotune::rng::Rng;
use autotune::robust::{batched_time_ms, MeasureOutcome};
use autotune::two_phase::NominalKind;
use smallsort::{SortKey, SortSites};
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: usize = 2;
/// Context-table slots; the workload has 18 live keys.
const CAPACITY: usize = 8;
/// Inputs generated per caller thread; callers cycle through them.
const POOL: usize = 4096;
/// Set-ups timed per run; `setup_s` is their median, scaled to the
/// nominal host by the reference timed right after them.
const SETUP_REPS: usize = 15;
/// Saturation rounds; each reports its rate, p50 and oracle ratio, and
/// the medians over rounds are kept.
const ROUNDS: usize = 5;
/// Calls per thread before anything is measured.
const WARM_UP_CALLS: usize = 50_000;
/// Window over which the call rate is taken before its median is
/// reported.
const RATE_WINDOW_NS: u64 = 250_000_000;
/// Longest traced slice, so span memory stays bounded.
const MAX_TRACED_SLICE_S: f64 = 0.5;
/// Seed and size of the fixed input sample the host-speed reference
/// sorts in every run.
const REFERENCE_SEED: u64 = 0x7265_6673;
const REFERENCE_SAMPLE: usize = 256;

/// One input and its sorted copy.
struct Input {
    data: Vec<u64>,
    sorted: Vec<u64>,
}

/// Size classes 3..=8 (at most 256 keys) × the three presort classes.
fn workload_keys() -> Vec<SortKey> {
    (3..=8)
        .flat_map(|c| (0..3).map(move |p| SortKey::new(c, p)))
        .collect()
}

fn gen_input(key: SortKey, rng: &mut Rng) -> Vec<u64> {
    let lo = if key.class == 3 {
        5
    } else {
        (1usize << (key.class - 1)) + 1
    };
    let n = lo + rng.next_below(((1usize << key.class) - lo + 1) as u64) as usize;
    match key.presort {
        0 => smallsort::nearly_sorted_input(n, rng),
        1 => {
            // Sorted runs of 8: about n/8 ascending runs.
            let mut v: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            v.chunks_mut(8).for_each(|c| c.sort_unstable());
            v
        }
        _ => (0..n).map(|_| rng.next_u64()).collect(),
    }
}

fn input(data: Vec<u64>) -> Input {
    let mut sorted = data.clone();
    sorted.sort_unstable();
    Input { data, sorted }
}

/// Per-thread input pools. Key popularity is Zipf(1) over a fixed
/// ranking of the keys (the seed draws inputs, not which keys are hot,
/// so every seed runs the same mix of work).
fn pools(seed: u64) -> Vec<Vec<Input>> {
    let mut rng = Rng::new(seed ^ 0x656d_6264);
    let keys = workload_keys();
    let weights: Vec<f64> = (0..keys.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    (0..THREADS)
        .map(|_| {
            (0..POOL)
                .map(|_| {
                    let key = keys[rng.pick_weighted(&weights)];
                    input(gen_input(key, &mut rng))
                })
                .collect()
        })
        .collect()
}

/// The host-speed reference: tuned-call stand-ins on a fixed sample of
/// the workload's inputs.
fn reference() -> Reference {
    let sample = pools(REFERENCE_SEED)[0][..REFERENCE_SAMPLE]
        .iter()
        .map(|x| x.data.clone())
        .collect();
    Reference::timed_sort(sample)
}

/// Heap bytes the benchmark's own input pools hold.
fn pool_bytes(pools: &[Vec<Input>]) -> usize {
    pools
        .iter()
        .flatten()
        .map(|x| (x.data.capacity() + x.sorted.capacity()) * 8 + std::mem::size_of::<Input>())
        .sum()
}

/// One input of each workload key.
fn first_inputs(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed ^ 0x7365_7475);
    workload_keys()
        .into_iter()
        .map(|key| input(gen_input(key, &mut rng)))
        .collect()
}

fn register(seed: u64) -> SortSites {
    static RUN: AtomicU64 = AtomicU64::new(0);
    SortSites::register_bounded(
        &format!("bench/embedded/{}", RUN.fetch_add(1, Ordering::Relaxed)),
        CAPACITY,
        NominalKind::EpsilonGreedy(0.10),
        seed,
    )
}

/// A fresh table with a first call on one input of each workload key,
/// which admits the key and builds its site (registration alone builds
/// nothing). Returns the table and the seconds it took; the outputs are
/// checked into `report`.
fn set_up(seed: u64, firsts: &[Input], report: &mut Report) -> (SortSites, f64) {
    let mut bufs: Vec<Vec<u64>> = firsts.iter().map(|x| x.data.clone()).collect();
    let t0 = now_ns();
    let sites = register(seed);
    for buf in &mut bufs {
        smallsort::sort_request_keyed(&sites, buf);
    }
    let seconds = (now_ns() - t0) as f64 / 1e9;
    for (x, out) in firsts.iter().zip(&bufs) {
        report.attempted += 1;
        report.failed += !sorted_permutation(&x.sorted, out) as u64;
    }
    (sites, seconds)
}

/// What one caller thread saw in a phase.
#[derive(Default)]
struct Calls {
    /// Calls made.
    made: usize,
    /// Per-call latency, ns, if the phase is timed.
    lat_ns: Vec<f64>,
    /// When each call began.
    at_ns: Vec<u64>,
    /// CPU time the thread ran during the phase.
    cpu_ns: u64,
    /// Wall time of the phase less the time the thread waited runnable
    /// for a CPU: CPU time plus time it was blocked, as on the context
    /// table's lock, plus time its virtual CPU was stolen.
    busy_ns: u64,
    failed: u64,
    spans: Spans,
    /// Closure runs per `batched_time_ms`, for tuning calls.
    batch_runs: Vec<f64>,
}

/// When a caller stops: at `until_ns` or after `max_calls`. A `timed`
/// caller records each call's start and latency.
#[derive(Clone, Copy)]
struct Stop {
    until_ns: u64,
    max_calls: usize,
    timed: bool,
}

/// One traced call: `sort_request_keyed`, re-composed.
fn traced_call(sites: &SortSites, data: &mut [u64], calls: &mut Calls) {
    let t0 = now_ns();
    let key = SortKey::of(data);
    let t1 = now_ns();
    let guard = sites.table().dispatch(&key);
    let t2 = now_ns();
    let root = calls.spans.push("call", None, t0, 0);
    calls.spans.push("context.key", Some(root), t0, t1);
    let dispatch = if guard.is_tuning() {
        "context.dispatch_tune"
    } else {
        "context.dispatch_exploit"
    };
    calls.spans.push(dispatch, Some(root), t1, t2);
    let algorithm = guard.algorithm();
    let end = if guard.is_tuning() {
        let config = guard.config().clone();
        let original = data.to_vec();
        let mut scratch = original.clone();
        let (mut runs, mut sort_ns) = (0u64, 0u64);
        let b0 = now_ns();
        let ms = batched_time_ms(|| {
            let s0 = now_ns();
            scratch.copy_from_slice(&original);
            smallsort::sort_with(algorithm, &config, &mut scratch);
            sort_ns += now_ns() - s0;
            runs += 1;
        });
        let b1 = now_ns();
        data.copy_from_slice(&scratch);
        let batch = calls.spans.push("robust.batched", Some(root), b0, b1);
        // The sorts inside the batch, summed into one child span.
        calls
            .spans
            .push("smallsort.sort_batched", Some(batch), b0, b0 + sort_ns);
        calls.batch_runs.push(runs as f64);
        let p0 = now_ns();
        guard.post_outcome(MeasureOutcome::from_value(ms));
        let p1 = now_ns();
        calls.spans.push("site.post_tune", Some(root), p0, p1);
        p1
    } else {
        let s0 = now_ns();
        smallsort::sort_with(algorithm, guard.config(), data);
        let s1 = now_ns();
        guard.post();
        let p1 = now_ns();
        calls.spans.push("smallsort.sort", Some(root), s0, s1);
        calls.spans.push("site.post_exploit", Some(root), s1, p1);
        p1
    };
    calls.spans.spans[root as usize].end_ns = end;
}

/// Call `call` on copies of `pool`'s inputs from `offset` on until
/// `stop`, timing each call and checking its output.
fn caller(
    pool: &[Input],
    offset: usize,
    stop: Stop,
    mut call: impl FnMut(&Input, &mut Vec<u64>, &mut Calls),
) -> Calls {
    let schedstat = crate::own_schedstat();
    let (cpu0, wait0) = crate::sched_ns(&schedstat);
    let begin = now_ns();
    let mut calls = Calls::default();
    let mut buf = Vec::with_capacity(256);
    let mut i = 0usize;
    while i < stop.max_calls && now_ns() < stop.until_ns {
        let input = &pool[(offset + i) % pool.len()];
        buf.clear();
        buf.extend_from_slice(&input.data);
        let t0 = now_ns();
        call(input, &mut buf, &mut calls);
        let t1 = now_ns();
        if stop.timed {
            calls.at_ns.push(t0);
            calls.lat_ns.push((t1 - t0) as f64);
        }
        if !sorted_permutation(&input.sorted, &buf) {
            calls.failed += 1;
        }
        i += 1;
    }
    calls.made = i;
    let (cpu1, wait1) = crate::sched_ns(&schedstat);
    calls.cpu_ns = cpu1 - cpu0;
    calls.busy_ns = (now_ns() - begin).saturating_sub(wait1 - wait0);
    calls
}

/// Run `stop` long on both threads, through `sort_request_keyed` or
/// its traced re-composition; each thread continues where its pool
/// left off.
fn phase(
    sites: &SortSites,
    pools: &[Vec<Input>],
    next: &mut usize,
    stop: Stop,
    traced: bool,
) -> Vec<Calls> {
    let out: Vec<Calls> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .map(|pool| {
                let offset = *next;
                s.spawn(move || {
                    caller(pool, offset, stop, |_, buf, calls| {
                        if traced {
                            traced_call(sites, buf, calls);
                        } else {
                            smallsort::sort_request_keyed(sites, buf);
                        }
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    *next += out.iter().map(|c| c.made).max().unwrap_or(0);
    out
}

/// CPU ns per call of the caller loop's own work: copying the input,
/// reading the clock, recording and checking the output. It runs the
/// same loop with a copy of the sorted input in place of the call, so
/// the figure is an upper bound; the median of [`kernels::REPS`] passes
/// over the pool.
fn harness_ns(pool: &[Input]) -> f64 {
    let stop = Stop {
        until_ns: u64::MAX,
        max_calls: pool.len(),
        timed: true,
    };
    kernels::median_ns(kernels::REPS, || {
        caller(pool, 0, stop, |input, buf, _| {
            buf.copy_from_slice(&input.sorted)
        });
    }) / pool.len() as f64
}

/// A closed-loop phase of `seconds` on both threads; returns the calls
/// and the calls/s, the median over windows of [`RATE_WINDOW_NS`].
fn closed(
    sites: &SortSites,
    pools: &[Vec<Input>],
    next: &mut usize,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> (Vec<Calls>, f64) {
    let stop = Stop {
        until_ns: now_ns() + (seconds * 1e9) as u64,
        max_calls: usize::MAX,
        timed: true,
    };
    let out = phase(sites, pools, next, stop, traced);
    tally(&out, report);
    let starts: Vec<u64> = out.iter().flat_map(|c| c.at_ns.iter().copied()).collect();
    (out, windowed_rate(&starts, RATE_WINDOW_NS))
}

fn tally(out: &[Calls], report: &mut Report) {
    for c in out {
        report.attempted += c.made as u64;
        report.failed += c.failed;
    }
}

fn all(out: &[Calls], f: impl Fn(&Calls) -> &Vec<f64>) -> Vec<f64> {
    out.iter().flat_map(|c| f(c).iter().copied()).collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let pools = pools(seed);
    let firsts = first_inputs(seed);
    let mut setup = Vec::new();
    let mut sites = None;
    for _ in 0..SETUP_REPS {
        let (s, seconds) = set_up(seed, &firsts, &mut report);
        setup.push(seconds);
        sites = Some(s);
    }
    let sites = sites.expect("at least one setup");
    let reference = reference();
    let setup_slowdown = reference.slowdown();
    let mut next = 0usize;
    let warm = Stop {
        until_ns: u64::MAX,
        max_calls: WARM_UP_CALLS,
        timed: false,
    };
    tally(&phase(&sites, &pools, &mut next, warm, false), &mut report);
    let rss_mb = peak_rss_mb();
    crate::progress(&format!(
        "peak RSS {rss_mb:.2} MB, of which the input pools hold {:.2} MB",
        pool_bytes(&pools) as f64 / (1 << 20) as f64
    ));
    let stream: Vec<Vec<u64>> = pools.iter().flatten().map(|x| x.data.clone()).collect();

    if traced {
        run_traced(
            &sites,
            &pools,
            &stream,
            &reference,
            &mut next,
            seconds,
            &mut report,
        );
        return report;
    }

    crate::progress("choosing the bare oracle");
    let oracle = Oracle::sorting(&stream);
    crate::progress("saturation");
    // Each round pairs the callers' cost with the oracle, the host-speed
    // reference and the caller loop's own cost, all timed right after
    // while the callers idle, so host speed drift cancels in the ratio
    // and in the scaled rate and latency. A call's cost is the time
    // its thread was busy: on a CPU or blocked, as on the table lock, but
    // neither waiting runnable for a CPU nor on a virtual CPU the
    // hypervisor had stolen. Both callers run for the whole round, so
    // the host's steal time over the round is charged to them. Those
    // waits swing the wall time by half from minute to minute on two
    // shared cores.
    let (mut rates, mut p50, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let steal0 = crate::steal_ns();
        let (sat, _) = closed(
            &sites,
            &pools,
            &mut next,
            seconds / ROUNDS as f64,
            false,
            &mut report,
        );
        let steal = crate::steal_ns() - steal0;
        let calls = sat.iter().map(|c| c.made).sum::<usize>().max(1) as f64;
        let harness = harness_ns(&pools[0]);
        let cpu_ns = sat.iter().map(|c| c.cpu_ns).sum::<u64>() as f64 / calls - harness;
        let busy: u64 = sat.iter().map(|c| c.busy_ns).sum();
        let busy_ns = busy.saturating_sub(steal) as f64 / calls - harness;
        let bare_us = oracle.time_us();
        let slowdown = reference.slowdown();
        let rate = THREADS as f64 * 1e9 / busy_ns;
        let at: Vec<u64> = sat.iter().flat_map(|c| c.at_ns.iter().copied()).collect();
        let lat_us: Vec<f64> = all(&sat, |c| &c.lat_ns).iter().map(|ns| ns / 1e3).collect();
        let round_p50 = windowed_quantile(&at, &lat_us, 1_000_000_000, 0.50);
        crate::progress(&format!(
            "round: {rate:.0}/s, {:.3} us busy and {:.3} us CPU per call, {:.3} us stolen, loop {harness:.0} ns, p50 {round_p50:.3} us, oracle {bare_us:.3} us, host slowdown {slowdown:.3}",
            busy_ns / 1e3,
            cpu_ns / 1e3,
            steal as f64 / calls / 1e3,
        ));
        rates.push(rate * slowdown);
        p50.push(round_p50 / slowdown);
        ratios.push(busy_ns / 1e3 / bare_us);
    }

    report.put("setup_s", median(&setup) / setup_slowdown, "s");
    report.put("throughput_rps", median(&rates), "1/s");
    report.put("p50_us", median(&p50), "us");
    report.put("ok_share", crate::served::ok_share(&report), "share");
    report.put("oracle_ratio", median(&ratios), "ratio");
    report.put("peak_rss_mb", rss_mb, "MB");
    report
}

fn run_traced(
    sites: &SortSites,
    pools: &[Vec<Input>],
    stream: &[Vec<u64>],
    reference: &Reference,
    next: &mut usize,
    seconds: f64,
    report: &mut Report,
) {
    let stats0 = sites.table().stats();
    let attempted0 = report.attempted;
    let slice = (0.2 * seconds).min(MAX_TRACED_SLICE_S);
    let mut rate = [Vec::new(), Vec::new()];
    let mut traced = Vec::new();
    for k in 0..4 {
        let on = k % 2 == 1;
        let (out, r) = closed(sites, pools, next, slice, on, report);
        rate[on as usize].push(r);
        if on {
            traced.extend(out);
        }
    }
    let stats = sites.table().stats();
    let closed_at: Vec<u64> = traced
        .iter()
        .flat_map(|c| c.at_ns.iter().copied())
        .collect();
    let closed_us: Vec<f64> = all(&traced, |c| &c.lat_ns)
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    report.put(
        "open_loop.p99_us",
        windowed_quantile(&closed_at, &closed_us, 250_000_000, 0.99),
        "us",
    );
    // Parent ids index each thread's own list: take the ledger per thread.
    let mut layers: std::collections::BTreeMap<&str, crate::trace::LayerTime> = Default::default();
    for c in &traced {
        for (name, t) in ledger(&c.spans.spans) {
            *layers.entry(name).or_default() += t;
        }
    }
    let spans: Vec<_> = traced
        .iter()
        .flat_map(|c| c.spans.spans.iter().copied())
        .collect();
    let p50_of = |name: &str| median(&durations(&spans, name));
    let dispatch: Vec<f64> = [
        durations(&spans, "context.dispatch_tune"),
        durations(&spans, "context.dispatch_exploit"),
    ]
    .concat();
    let keys = sites.table().keys();
    // `keys()` lists resident keys first; only those are read below, so
    // reading them admits nothing and evicts nothing.
    let resident = &keys[..sites.table().resident_len()];
    let (mut calls, mut tuned) = (0u64, 0u64);
    for (key, _) in &keys {
        let k = sites.table().key_stats(key).unwrap_or_default();
        calls += k.calls;
        tuned += k.tuned_iterations;
    }
    let (mut best, mut selections, mut restarts) = (0usize, 0usize, 0u64);
    for (key, _) in resident {
        restarts += sites.table().resident_site(key).restarts();
        sites.table().with_tuner_for(key, |t| {
            if let Some(tp) = t.as_two_phase() {
                let counts = tp.selection_counts();
                best += counts[tp.exploit_choice().0];
                selections += counts.iter().sum::<usize>();
            }
        });
    }
    let window_calls = (report.attempted - attempted0) as f64;
    let d = |f: fn(&autotune::context::ContextStats) -> u64| (f(&stats) - f(&stats0)) as f64;

    report.put(
        "site.tuned_share",
        tuned as f64 / calls.max(1) as f64,
        "share",
    );
    report.put(
        "site.contended_share",
        (calls - tuned) as f64 / calls.max(1) as f64,
        "share",
    );
    report.put("site.restarts", restarts as f64, "count");
    report.put("site.post_tune_ns_p50", p50_of("site.post_tune"), "ns");
    report.put(
        "site.post_exploit_ns_p50",
        p50_of("site.post_exploit"),
        "ns",
    );
    report.put(
        "context.dispatch_tune_ns_p50",
        p50_of("context.dispatch_tune"),
        "ns",
    );
    report.put(
        "context.dispatch_exploit_ns_p50",
        p50_of("context.dispatch_exploit"),
        "ns",
    );
    report.put("context.dispatch_ns_p99", quantile(&dispatch, 0.99), "ns");
    report.put(
        "context.hit_share",
        1.0 - d(|s| s.admissions) / window_calls,
        "share",
    );
    report.put(
        "context.evictions_per_kcall",
        1e3 * d(|s| s.evictions) / window_calls,
        "count",
    );
    report.put("context.overflows", stats.overflows as f64, "count");
    report.put("context.warm_starts", stats.warm_starts as f64, "count");
    report.put(
        "two_phase.best_share",
        best as f64 / selections.max(1) as f64,
        "share",
    );
    let runs = all(&traced, |c| &c.batch_runs);
    report.put(
        "robust.batch_runs_mean",
        runs.iter().sum::<f64>() / runs.len().max(1) as f64,
        "count",
    );
    report.put(
        "robust.batched_us_p50",
        p50_of("robust.batched") / 1e3,
        "us",
    );
    report.put("host.ref_us", reference.time_us(), "us");
    report.put(
        "robust.timer_resolution_ns",
        autotune::robust::timer_resolution_ms() * 1e6,
        "ns",
    );
    report.put(
        "smallsort.oracle_ns_mean",
        Oracle::sorting(stream).time_us() * 1e3,
        "ns",
    );
    report.put("smallsort.sort_ns_p50", p50_of("smallsort.sort"), "ns");
    report.put(
        "trace.overhead_share",
        median(&rate[0]) / median(&rate[1]) - 1.0,
        "share",
    );
    for (name, layer) in [
        ("trace.call_ns_mean", "call"),
        ("trace.key_self_ns_mean", "context.key"),
        ("trace.batched_self_ns_mean", "robust.batched"),
    ] {
        let l = layers.get(layer).copied().unwrap_or_default();
        let v = if layer == "call" {
            l.total_ns as f64 / l.count.max(1) as f64
        } else {
            l.self_mean_ns()
        };
        report.put(name, v, "ns");
    }
    report.put(
        "trace.remainder_ns_mean",
        layers
            .get("call")
            .copied()
            .unwrap_or_default()
            .self_mean_ns(),
        "ns",
    );
    crate::progress("layer probes");
    probes::run(report);
}
