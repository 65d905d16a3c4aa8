//! The served workloads: `autotune::serve::serve` running
//! `experiments::serve::AppHandler` on loopback, driven over one
//! connection by the open-loop generator ([`crate::loadgen`]).
//!
//! The handler is wrapped by [`Stamped`], which stamps handler entry and
//! exit while tracing is on. The server handles one connection's frames
//! in order, so the n-th application request the client sends is the
//! n-th the wrapper sees: that sequence number joins the server stamps
//! with the client's due/send/receive stamps.

use crate::check::{expect_sort, Expect, NULL_PAYLOAD};
use crate::host::{NullServer, Reference, NOMINAL_NULL_P50_US};
use crate::kernels::{self, Oracle};
use crate::loadgen::{
    drive, ladder_search, poisson_schedule, set_timer_slack, Conn, Pace, Phase, Requests, Rung,
    DEFAULT_TIMER_SLACK_NS, LATE_NS,
};
use crate::probes;
use crate::trace::{ledger, now_ns, Spans};
use crate::{median, peak_rss_mb, quantile, Report};
use autotune::context::ContextStats;
use autotune::rng::Rng;
use autotune::serve::protocol::{OP_MATCH, OP_PING, OP_SORT};
use autotune::serve::{serve, RequestHandler, ServeConfig, ServeReport, StopFlag};
use autotune::site::Site;
use autotune::telemetry;
use experiments::serve::{AppHandler, ServeOptions};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use stringmatch::Matcher;

/// Level-0 corpus of the match workload, in KiB.
const CORPUS_KB: usize = 64;
/// Distinct requests generated per run; phases cycle through them.
const POOL: usize = 4096;
/// Server starts timed per run; `setup_s` is their median, each scaled
/// to the nominal host by the reference timed right after it.
const SETUP_REPS: usize = 7;
/// Server instances measured per run, one after another, each set up
/// and warmed up afresh: the cost per request a warmed-up instance
/// settles at depends on its tuning history, so the medians over several
/// instances vary less from run to run than one instance's figures.
const INSTANCES: usize = 3;
/// Requests answered before anything is measured.
const WARM_UP_REQUESTS: usize = 20_000;
/// Requests kept in flight by the saturation phase. The server reads
/// every pending frame, handles them all, then writes the responses, so
/// the client can refill only after a whole batch; between batches the
/// server idles for a client wake-up and its own idle sleep. A deep
/// window makes that gap a small share of each batch.
const WINDOW: usize = 1024;
/// Saturation rounds, split evenly over the instances; each reports its
/// rate and oracle ratio, and the medians over rounds are kept.
const ROUNDS: usize = 45;
/// Window over which latency quantiles are taken before their median is
/// reported, seconds.
const LATENCY_WINDOW_S: f64 = 0.5;
/// Pairs of a served slice and a null-server slice in the fixed-rate
/// phase, split evenly over the instances; each pair gives one ratio of
/// p50s.
const FIXED_PAIRS: usize = 9;
/// Share of the fixed-rate phase given to the null server.
const NULL_SHARE: f64 = 0.25;

/// Open-loop rate of the `p50_us` (and `open_loop.p99_us`) phase,
/// requests/s.
const RATE: f64 = 3000.0;
/// Lowest rate of the `open_loop.max_rate_rps` ladder, requests/s.
const LADDER_BASE: f64 = 2000.0;
/// The p99 limit a ladder rate must meet, µs.
const P99_LIMIT_US: f64 = 5000.0;

/// What distinguishes one served workload.
struct Spec {
    /// `OP_SORT` requests instead of matches.
    sort: bool,
}

fn spec(name: &str) -> Spec {
    match name {
        "match-served" => Spec { sort: false },
        "sort-served" => Spec { sort: true },
        other => unreachable!("not a served workload: {other}"),
    }
}

/// Handler entry/exit of one traced application request.
#[derive(Clone, Copy)]
struct Stamp {
    seq: u64,
    op: u8,
    entry_ns: u64,
    exit_ns: u64,
}

/// `AppHandler` plus entry/exit stamps while tracing is on.
struct Stamped {
    inner: AppHandler,
    tracing: Arc<AtomicBool>,
    seq: u64,
    stamps: Vec<Stamp>,
}

impl RequestHandler for Stamped {
    fn handle(&mut self, op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
        let seq = self.seq;
        self.seq += 1;
        if !self.tracing.load(Ordering::Relaxed) {
            return self.inner.handle(op, payload, out);
        }
        let entry_ns = now_ns();
        let handled = self.inner.handle(op, payload, out);
        self.stamps.push(Stamp {
            seq,
            op,
            entry_ns,
            exit_ns: now_ns(),
        });
        handled
    }
}

/// Summed public counters of the sites a run used.
#[derive(Default)]
struct AppStats {
    calls: u64,
    tuned: u64,
    contended: u64,
    restarts: u64,
    /// Selections of each site's final exploit algorithm, and all
    /// selections.
    best_selections: u64,
    selections: u64,
    match_incumbent: usize,
    context: ContextStats,
    sorts: u64,
    events: u64,
    overwritten: u64,
}

fn add_site(stats: &mut AppStats, s: Site) {
    if s.calls() == 0 {
        return;
    }
    stats.calls += s.calls();
    stats.tuned += s.tuned_iterations();
    stats.contended += s.contended();
    stats.restarts += s.restarts();
    s.with_tuner(|t| {
        if let Some(tp) = t.as_two_phase() {
            let counts = tp.selection_counts();
            stats.best_selections += counts[tp.exploit_choice().0] as u64;
            stats.selections += counts.iter().sum::<usize>() as u64;
        }
    });
}

fn app_stats(h: &AppHandler, events_before: u64) -> AppStats {
    let mut stats = AppStats::default();
    let [(_, match_site), _] = h.sites();
    add_site(&mut stats, match_site);
    // The served table covers every key, so no key is ever parked and
    // every site handle stays valid.
    for (key, _) in h.sort_sites().table().keys() {
        add_site(&mut stats, h.sort_sites().key_site(key));
    }
    let exploit = |s: Site| {
        s.with_tuner(|t| t.as_two_phase().map(|tp| tp.exploit_choice()))
            .expect("served sites choose among algorithms")
    };
    stats.match_incumbent = exploit(match_site).0;
    stats.context = h.sort_sites().table().stats();
    stats.sorts = h.sort_count();
    let recorded = telemetry::total_recorded();
    stats.events = recorded - events_before;
    stats.overwritten = recorded.saturating_sub(telemetry::snapshot().len() as u64);
    stats
}

struct ServerOut {
    report: ServeReport,
    stamps: Vec<Stamp>,
    app: AppStats,
}

struct Server {
    addr: SocketAddr,
    /// `schedstat` path of the server thread, set once it runs.
    schedstat: Arc<std::sync::OnceLock<String>>,
    stop: StopFlag,
    tracing: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<ServerOut>>,
}

/// The service is configured like a deployment: corpus and tuner seeds are fixed. The run's seed drives only what clients send.
const SERVICE_SEED: u64 = 42;

fn serve_options() -> ServeOptions {
    ServeOptions {
        corpus_kb: CORPUS_KB,
        seed: SERVICE_SEED,
        ..ServeOptions::default()
    }
}

/// Start a server thread that builds its own `AppHandler` (the handler
/// holds thread-bound matchers) and serves until stopped.
fn start() -> io::Result<Server> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stop = StopFlag::new();
    let tracing = Arc::new(AtomicBool::new(false));
    let (stop2, tracing2) = (stop.clone(), tracing.clone());
    let schedstat = Arc::new(std::sync::OnceLock::new());
    let schedstat2 = schedstat.clone();
    let thread = std::thread::spawn(move || {
        schedstat2.get_or_init(crate::own_schedstat);
        // The thread inherits the generator's 1 ns timer slack; serve
        // with the slack a deployed server has.
        set_timer_slack(DEFAULT_TIMER_SLACK_NS);
        // As `experiments serve` does: telemetry on while serving.
        telemetry::enable();
        let events_before = telemetry::total_recorded();
        let mut handler = Stamped {
            inner: AppHandler::new(&serve_options()),
            tracing: tracing2,
            seq: 0,
            stamps: Vec::new(),
        };
        let report = serve(listener, &mut handler, &ServeConfig::default(), &stop2)?;
        Ok(ServerOut {
            report,
            app: app_stats(&handler.inner, events_before),
            stamps: handler.stamps,
        })
    });
    Ok(Server {
        addr,
        schedstat,
        stop,
        tracing,
        thread,
    })
}

impl Server {
    /// CPU time the server thread has run so far, ns.
    fn cpu_ns(&self) -> u64 {
        self.schedstat.get().map_or(0, |p| crate::sched_ns(p).0)
    }

    fn finish(self) -> io::Result<ServerOut> {
        self.stop.stop();
        self.thread.join().expect("server thread panicked")
    }
}

/// Start a server and connect; returns once a ping has come back.
fn start_ready() -> io::Result<(Server, Conn, f64)> {
    let t0 = now_ns();
    let server = start()?;
    let mut conn = Conn::connect(server.addr)?;
    let (_, op) = conn.round_trip(OP_PING, b"ready")?;
    if op != OP_PING {
        return Err(io::Error::other("server did not answer the first ping"));
    }
    Ok((server, conn, (now_ns() - t0) as f64 / 1e9))
}

/// Everything the client generates from the seed before serving.
struct Inputs {
    requests: Requests,
    /// The one request the null server is sent, over and over.
    null: Requests,
    /// Keys each sort request makes the server sort (the oracle stream).
    sort_inputs: Vec<Vec<u64>>,
    corpus: Vec<u8>,
}

fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let opts = serve_options();
    // The same corpus the handler builds for level 0.
    let corpus = stringmatch::corpus::bible_like_with(opts.seed, opts.corpus_kb << 10, 250);
    let pattern = stringmatch::PAPER_QUERY;
    let match_count = stringmatch::Naive.count(pattern, &corpus) as u32;

    let mut rng = Rng::new(seed ^ 0x7475_6e65);
    let mut requests = Requests::default();
    let mut sort_inputs = Vec::new();
    for _ in 0..POOL {
        if spec.sort {
            // Classes 3..=9: 2^(c-1) < n <= 2^c, with n >= 5 for class 3.
            let class = 3 + rng.next_below(7) as u32;
            let lo = (1usize << (class - 1)) + 1;
            let n = lo + rng.next_below(((1usize << class) - lo + 1) as u64) as usize;
            let key_seed = rng.next_u64();
            let nearly = rng.next_bool(0.5);
            let mut payload = (n as u32).to_le_bytes().to_vec();
            payload.extend_from_slice(&key_seed.to_le_bytes());
            payload.push(nearly as u8);
            requests.push(OP_SORT, &payload, expect_sort(n, key_seed, nearly));
            sort_inputs.push(crate::check::sort_keys(n, key_seed, nearly));
        } else {
            requests.push(OP_MATCH, pattern, Expect::Match(match_count));
        }
    }
    let mut null = Requests::default();
    null.push(OP_PING, NULL_PAYLOAD, Expect::Echo);
    Inputs {
        requests,
        null,
        sort_inputs,
        corpus,
    }
}

/// Run the open-loop phase at `rate` for `seconds`.
fn open(conn: &mut Conn, reqs: &Requests, seed: u64, rate: f64, seconds: f64) -> io::Result<Phase> {
    let due = poisson_schedule(seed, rate, seconds);
    let offset = conn.sent as usize;
    drive(conn, reqs, offset, Pace::Open { due: &due })
}

fn saturate(
    conn: &mut Conn,
    reqs: &Requests,
    seconds: Option<f64>,
    limit: usize,
) -> io::Result<Phase> {
    let offset = conn.sent as usize;
    drive(
        conn,
        reqs,
        offset,
        Pace::Window {
            window: WINDOW,
            seconds,
            limit,
        },
    )
}

/// Warm up with a fixed count of saturating requests, so the tuner
/// state and memory at the end of the warm-up do not depend on speed.
fn warm_up(conn: &mut Conn, reqs: &Requests) -> io::Result<Phase> {
    saturate(conn, reqs, None, WARM_UP_REQUESTS)
}

/// The best plain algorithm for the workload's request stream.
fn oracle(spec: &Spec, inp: &Inputs) -> Oracle {
    if spec.sort {
        Oracle::sorting(&inp.sort_inputs)
    } else {
        Oracle::matching(
            stringmatch::tuned::site_matchers(),
            stringmatch::PAPER_QUERY,
            &inp.corpus,
        )
    }
}

/// Seed and size of the fixed sort-request sample the host-speed
/// reference of `sort-served` sorts in every run.
const REFERENCE_SEED: u64 = 0x7265_6673;
const REFERENCE_SAMPLE: usize = 256;

/// The host-speed reference for the workload's kind of work.
fn reference(spec: &Spec, inp: &Inputs) -> Reference {
    if spec.sort {
        let mut sample = inputs(spec, REFERENCE_SEED).sort_inputs;
        sample.truncate(REFERENCE_SAMPLE);
        Reference::timed_sort(sample)
    } else {
        Reference::search(stringmatch::PAPER_QUERY, &inp.corpus)
    }
}

/// Seconds of each phase of a run of `seconds`. The untraced run
/// saturates and then holds the fixed rate, alternating the server with
/// the null server; the traced run splits the saturation into traced and
/// untraced slices, traces the fixed rate for a shorter time, runs the
/// null server once and then bisects the rate ladder.
struct Budget {
    saturate: f64,
    fixed: f64,
    null: f64,
    rung: f64,
}

fn budget(seconds: f64, traced: bool) -> Budget {
    if traced {
        Budget {
            saturate: 0.2 * seconds,
            fixed: 0.3 * seconds,
            null: 0.1 * seconds,
            // Bisecting a 16-rung ladder measures 4 or 5 rungs.
            rung: 0.4 * seconds / 5.0,
        }
    } else {
        Budget {
            saturate: 0.4 * seconds,
            fixed: 0.6 * seconds * (1.0 - NULL_SHARE),
            null: 0.6 * seconds * NULL_SHARE,
            rung: 0.0,
        }
    }
}

fn count(report: &mut Report, ph: &Phase) {
    report.attempted += ph.send_ns.len() as u64;
    report.failed += ph.failed;
}

pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> io::Result<Report> {
    let spec = spec(name);
    crate::progress("generating inputs");
    let inp = inputs(&spec, seed);
    if traced {
        return run_traced(&spec, &inp, seed, seconds);
    }
    let b = budget(seconds, false);
    let mut report = Report::default();
    crate::progress("choosing the bare oracle");
    let oracle = oracle(&spec, &inp);
    let reference = reference(&spec, &inp);

    let mut m = Measured::default();
    let mut setup = Vec::new();
    for k in 0..SETUP_REPS {
        let (server, mut conn, s) = start_ready()?;
        setup.push(s / reference.slowdown());
        if k < INSTANCES {
            crate::progress(&format!("server instance {}", k + 1));
            measure(
                &server,
                &mut conn,
                &inp,
                &oracle,
                &reference,
                seed ^ ((k as u64) << 16),
                &b,
                &mut m,
                &mut report,
            )?;
        }
        drop(conn);
        report.failed += server.finish()?.report.errors;
    }

    report.put("setup_s", median(&setup), "s");
    report.put("throughput_rps", median(&m.rates), "1/s");
    report.put("p50_us", median(&m.p50), "us");
    report.put("ok_share", ok_share(&report), "share");
    report.put("oracle_ratio", median(&m.ratios), "ratio");
    report.put("peak_rss_mb", m.rss_mb, "MB");
    Ok(report)
}

/// What the measured server instances of an untraced run gave.
#[derive(Default)]
struct Measured {
    /// Saturation rate of each round, scaled to the nominal host.
    rates: Vec<f64>,
    /// Served CPU per request over the oracle's, per round.
    ratios: Vec<f64>,
    /// Served p50 scaled by the null server's, per fixed-rate pair.
    p50: Vec<f64>,
    /// Peak RSS after the first instance's warm-up.
    rss_mb: f64,
}

/// Warm up one server instance, then measure its share of the rounds and
/// fixed-rate pairs.
#[allow(clippy::too_many_arguments)]
fn measure(
    server: &Server,
    conn: &mut Conn,
    inp: &Inputs,
    oracle: &Oracle,
    reference: &Reference,
    seed: u64,
    b: &Budget,
    m: &mut Measured,
    report: &mut Report,
) -> io::Result<()> {
    count(report, &warm_up(conn, &inp.requests)?);
    if m.rss_mb == 0.0 {
        m.rss_mb = peak_rss_mb();
    }
    // Each round pairs the served cost with the oracle and the host-speed
    // reference timed right after, while the server idles, so host speed
    // drift cancels in the ratio and in the scaled rate.
    let rounds = ROUNDS / INSTANCES;
    for _ in 0..rounds {
        let cpu0 = server.cpu_ns();
        let sat = saturate(
            conn,
            &inp.requests,
            Some(b.saturate / ROUNDS as f64),
            usize::MAX,
        )?;
        let cpu = (server.cpu_ns() - cpu0) as f64 / 1e3 / sat.send_ns.len().max(1) as f64;
        count(report, &sat);
        let rate = sat.completed_rps();
        let bare_us = oracle.time_us();
        let slowdown = reference.slowdown();
        crate::progress(&format!(
            "round: {rate:.0}/s, {cpu:.3} us CPU per request, oracle {bare_us:.3} us, host slowdown {slowdown:.3}"
        ));
        m.rates.push(rate * slowdown);
        m.ratios.push(cpu / bare_us);
    }
    // Each pair runs the server, then the null server, at the same rate;
    // the served p50 over the null p50 cancels the host's wake-up speed.
    let null = NullServer::start()?;
    let mut null_conn = Conn::connect(null.addr)?;
    let pair_s = 1.0 / FIXED_PAIRS as f64;
    for k in 0..(FIXED_PAIRS / INSTANCES) as u64 {
        let fixed = open(
            conn,
            &inp.requests,
            seed ^ (0xF1 + (k << 8)),
            RATE,
            b.fixed * pair_s,
        )?;
        count(report, &fixed);
        let nul = open(
            &mut null_conn,
            &inp.null,
            seed ^ (0xE1 + (k << 8)),
            RATE,
            b.null * pair_s,
        )?;
        count(report, &nul);
        let served_us = fixed.windowed_latency_us(LATENCY_WINDOW_S, 0.50);
        let null_us = median(&nul.latency_us());
        crate::progress(&format!(
            "p50 {served_us:.1} us, null server {null_us:.1} us"
        ));
        m.p50.push(served_us / null_us * NOMINAL_NULL_P50_US);
    }
    drop(null_conn);
    null.finish()
}

/// The open-loop tail: p99 at the fixed rate and the highest ladder rate
/// meeting the workload's p99 limit. Host stalls move both by multiples
/// between runs on a shared machine, so they are reported with the
/// traced run's per-layer figures rather than bounded.
fn open_loop_tail(
    conn: &mut Conn,
    reqs: &Requests,
    seed: u64,
    rung_s: f64,
    report: &mut Report,
) -> io::Result<f64> {
    let ladder = crate::loadgen::ladder(LADDER_BASE);
    ladder_search(&ladder, P99_LIMIT_US, |k| {
        let ph = open(conn, reqs, seed ^ (0x100 + k as u64), ladder[k], rung_s)?;
        count(report, &ph);
        let rung = Rung {
            pass: meets_limit(&ph, P99_LIMIT_US, rung_s / 4.0),
            p99_us: ph.windowed_latency_us(rung_s / 4.0, 0.99),
            rate: ph.completed_rps(),
        };
        crate::progress(&format!("rate {:.0}/s: {rung:?}", ladder[k]));
        Ok(rung)
    })
}

pub fn ok_share(report: &Report) -> f64 {
    1.0 - report.failed as f64 / report.attempted.max(1) as f64
}

/// Does a ladder phase of `seconds` meet the p99 limit with no growing
/// backlog? Every request must be answered correctly, the windowed p99
/// must be within the limit, and the last twentieth of the phase must
/// not be slower on average than the limit (a backlog still growing at
/// the end shows there first).
fn meets_limit(ph: &Phase, limit_us: f64, seconds: f64) -> bool {
    let lat = ph.latency_us();
    if ph.failed > 0 || lat.is_empty() {
        return false;
    }
    let tail = &lat[lat.len() - (lat.len() / 20).max(1)..];
    let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
    ph.windowed_latency_us(seconds, 0.99) <= limit_us && tail_mean <= limit_us
}

fn run_traced(spec: &Spec, inp: &Inputs, seed: u64, seconds: f64) -> io::Result<Report> {
    let b = budget(seconds, true);
    let mut report = Report::default();
    let (server, mut conn, _) = start_ready()?;
    crate::progress("warm-up");
    count(&mut report, &warm_up(&mut conn, &inp.requests)?);

    // Alternate untraced and traced saturation slices, so drift over the
    // run charges both sides alike.
    let mut rate = [Vec::new(), Vec::new()];
    for slice in 0..4 {
        let on = slice % 2 == 1;
        server.tracing.store(on, Ordering::Relaxed);
        let ph = saturate(&mut conn, &inp.requests, Some(b.saturate / 4.0), usize::MAX)?;
        count(&mut report, &ph);
        rate[on as usize].push(ph.completed_rps());
    }
    let overhead = median(&rate[0]) / median(&rate[1]) - 1.0;

    server.tracing.store(true, Ordering::Relaxed);
    let first_seq = conn.sent;
    let fixed = open(&mut conn, &inp.requests, seed ^ 0xF1, RATE, b.fixed)?;
    count(&mut report, &fixed);
    server.tracing.store(false, Ordering::Relaxed);
    let null = NullServer::start()?;
    let mut null_conn = Conn::connect(null.addr)?;
    let nul = open(&mut null_conn, &inp.null, seed ^ 0xE1, RATE, b.null)?;
    count(&mut report, &nul);
    drop(null_conn);
    null.finish()?;

    crate::progress("rate ladder");
    let max_rate = open_loop_tail(&mut conn, &inp.requests, seed, b.rung, &mut report)?;

    let pings: Vec<f64> = (0..2000)
        .map(|_| {
            conn.round_trip(OP_PING, b"p")
                .map(|(ns, _)| ns as f64 / 1e3)
        })
        .collect::<io::Result<_>>()?;
    drop(conn);
    let out = server.finish()?;
    report.failed += out.report.errors;

    // Join the fixed phase's client stamps with the handler stamps.
    let mut spans = Spans::default();
    let (mut wait, mut ret, mut busy_ns) = (Vec::new(), Vec::new(), 0u64);
    for i in 0..fixed.send_ns.len() {
        let seq = first_seq + i as u64;
        let Ok(j) = out.stamps.binary_search_by_key(&seq, |s| s.seq) else {
            continue;
        };
        let s = out.stamps[j];
        let (due, send, recv) = (fixed.due_ns[i], fixed.send_ns[i], fixed.recv_ns[i]);
        if recv == 0 {
            continue;
        }
        let root = spans.push("request", None, due, recv);
        spans.push("loadgen.late", Some(root), due, send);
        spans.push("serve.wait", Some(root), send, s.entry_ns);
        spans.push("handler", Some(root), s.entry_ns, s.exit_ns);
        spans.push("serve.return", Some(root), s.exit_ns, recv);
        wait.push(s.entry_ns.saturating_sub(due) as f64 / 1e3);
        ret.push(recv.saturating_sub(s.exit_ns) as f64 / 1e3);
        busy_ns += s.exit_ns - s.entry_ns;
    }
    let layers = ledger(&spans.spans);
    let handler_of = |op: u8, scale: f64| -> Vec<f64> {
        out.stamps
            .iter()
            .filter(|s| s.op == op)
            .map(|s| (s.exit_ns - s.entry_ns) as f64 / scale)
            .collect()
    };
    let late = fixed.lateness_us();
    let app = &out.app;
    let r = &out.report;

    report.put("serve.wait_us_p50", quantile(&wait, 0.50), "us");
    report.put("serve.wait_us_p99", quantile(&wait, 0.99), "us");
    report.put("serve.return_us_p50", quantile(&ret, 0.50), "us");
    report.put(
        "serve.bytes_per_req",
        (r.bytes_in + r.bytes_out) as f64 / r.requests.max(1) as f64,
        "bytes",
    );
    report.put("serve.errors", r.errors as f64, "count");
    report.put("serve.ping_rtt_us_p50", median(&pings), "us");
    report.put(
        "handler.busy_share",
        busy_ns as f64 / (fixed.end_ns - fixed.begin_ns) as f64,
        "share",
    );
    report.put(
        "handler.match_us_p50",
        median(&handler_of(OP_MATCH, 1e3)),
        "us",
    );
    report.put(
        "handler.sort_us_p50",
        median(&handler_of(OP_SORT, 1e3)),
        "us",
    );
    report.put(
        "site.tuned_share",
        app.tuned as f64 / app.calls.max(1) as f64,
        "share",
    );
    report.put(
        "site.contended_share",
        app.contended as f64 / app.calls.max(1) as f64,
        "share",
    );
    report.put("site.restarts", app.restarts as f64, "count");
    let c = &app.context;
    if spec.sort {
        report.put(
            "context.hit_share",
            1.0 - c.admissions as f64 / app.sorts.max(1) as f64,
            "share",
        );
        report.put(
            "context.evictions_per_kcall",
            1e3 * c.evictions as f64 / app.sorts.max(1) as f64,
            "count",
        );
    }
    report.put("context.overflows", c.overflows as f64, "count");
    report.put("context.warm_starts", c.warm_starts as f64, "count");
    report.put(
        "two_phase.best_share",
        app.best_selections as f64 / app.selections.max(1) as f64,
        "share",
    );
    report.put(
        "telemetry.events_per_req",
        app.events as f64 / r.app_requests.max(1) as f64,
        "count",
    );
    report.put("telemetry.overwritten", app.overwritten as f64, "count");

    crate::progress("timing bare kernels");
    report.put("host.ref_us", reference(spec, inp).time_us(), "us");
    report.put("host.null_p50_us", median(&nul.latency_us()), "us");
    let bare_us = oracle(spec, inp).time_us();
    if spec.sort {
        report.put("smallsort.oracle_ns_mean", bare_us * 1e3, "ns");
    } else {
        report.put("stringmatch.oracle_us", bare_us, "us");
        let incumbent = &stringmatch::tuned::site_matchers()[app.match_incumbent];
        report.put(
            "stringmatch.incumbent_us",
            kernels::matcher_us(
                incumbent.as_ref(),
                stringmatch::PAPER_QUERY,
                &inp.corpus,
                kernels::REPS,
            ),
            "us",
        );
    }
    report.put("loadgen.late_us_p99", quantile(&late, 0.99), "us");
    report.put(
        "loadgen.late_share",
        late.iter().filter(|&&l| l * 1e3 > LATE_NS as f64).count() as f64
            / late.len().max(1) as f64,
        "share",
    );
    report.put("trace.overhead_share", overhead, "share");
    report.put(
        "open_loop.p99_us",
        fixed.windowed_latency_us(LATENCY_WINDOW_S, 0.99),
        "us",
    );
    report.put("open_loop.max_rate_rps", max_rate, "1/s");
    for (name, layer) in [
        ("trace.request_us_mean", "request"),
        ("trace.late_self_us_mean", "loadgen.late"),
        ("trace.wait_self_us_mean", "serve.wait"),
        ("trace.handler_self_us_mean", "handler"),
        ("trace.return_self_us_mean", "serve.return"),
    ] {
        let l = layers.get(layer).copied().unwrap_or_default();
        let v = if layer == "request" {
            l.total_ns as f64 / l.count.max(1) as f64
        } else {
            l.self_mean_ns()
        };
        report.put(name, v / 1e3, "us");
    }
    report.put(
        "trace.remainder_us_mean",
        layers
            .get("request")
            .copied()
            .unwrap_or_default()
            .self_mean_ns()
            / 1e3,
        "us",
    );
    crate::progress("layer probes");
    probes::run(&mut report);
    Ok(report)
}
