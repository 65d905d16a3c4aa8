//! No-work probes: each layer timed alone, with a closed-form or empty
//! workload so framework cost is not hidden behind work. Together with
//! the traced runs they make up the per-layer ledger.

use crate::trace::now_ns;
use crate::{median, Report};
use autotune::drift::{DriftConfig, DriftMonitor};
use autotune::robust::MeasureOutcome;
use autotune::serve::protocol::{self, OP_MATCH};
use autotune::site::{register, site, SiteSpec, SiteTuner};
use autotune::telemetry::{self, EventKind};
use autotune::two_phase::NominalKind;
use raytrace::render::RenderOptions;
use smallsort::{SortKey, SortSites};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Seed of the scene `experiments serve` renders by default.
const SERVICE_SCENE_SEED: u64 = 42 + 3;

/// Batches per probe; the median batch is kept.
const BATCHES: usize = 5;

/// Median ns per call of `f`, over [`BATCHES`] batches of `n` calls.
fn per_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t0 = now_ns();
            for i in 0..n {
                f(b * n + i);
            }
            (now_ns() - t0) as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// A fresh two-phase tuner built from a site blueprint.
fn tuner(spec: SiteSpec) -> autotune::two_phase::TwoPhaseTuner {
    match SiteTuner::build_warm(spec, &[]) {
        SiteTuner::TwoPhase(t) => t,
        SiteTuner::Single(_) => unreachable!("algorithm sites build two-phase tuners"),
    }
}

/// `next` + `report` of a tuner over a closed-form cost surface.
fn step_ns(spec: SiteSpec, n: usize) -> f64 {
    let mut t = tuner(spec);
    per_call_ns(n, |_| {
        let (a, c) = t.next();
        let cost = 1.0 + a as f64 + 0.01 * c.values().iter().map(|v| v.as_f64().abs()).sum::<f64>();
        black_box(t.report(cost));
    })
}

/// Unique site-name prefix per probe call, so probes in one process
/// never share sites.
fn prefix(what: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    format!("probe/{what}/{}", N.fetch_add(1, Ordering::Relaxed))
}

/// One context-table dispatch + post per call, cycling over `keys`.
fn dispatch_ns(capacity: usize, keys: &[SortKey], n: usize) -> f64 {
    let sites = SortSites::register_bounded(
        &prefix("context"),
        capacity,
        NominalKind::EpsilonGreedy(0.10),
        5,
    );
    per_call_ns(n, |i| {
        let g = sites.table().dispatch(&keys[i % keys.len()]);
        black_box(g.algorithm());
        g.post_outcome(MeasureOutcome::from_value(1e-3));
    })
}

/// Run every probe and add its figure to `report`.
pub fn run(report: &mut Report) {
    // Emit cost with recording on and off (the off case is the
    // instrumentation every tuned call pays when nobody listens).
    let was_on = telemetry::is_enabled();
    telemetry::enable();
    let on = per_call_ns(100_000, |i| {
        telemetry::emit(|| EventKind::IterationStart {
            iteration: i as u64,
        })
    });
    telemetry::disable();
    let off = per_call_ns(100_000, |i| {
        telemetry::emit(|| EventKind::IterationStart {
            iteration: black_box(i as u64),
        })
    });
    report.put("telemetry.emit_ns_on", on, "ns");
    report.put("telemetry.emit_ns_off", off, "ns");

    // The remaining probes time their layer without recording.
    let nominal = NominalKind::EpsilonGreedy(0.10);
    report.put(
        "two_phase.step_ns.match",
        step_ns(
            stringmatch::tuned::search_site_spec(prefix("match"), nominal, 3),
            20_000,
        ),
        "ns",
    );
    report.put(
        "two_phase.step_ns.render",
        step_ns(
            raytrace::tunable::frame_site_spec(prefix("render"), nominal, 4),
            5_000,
        ),
        "ns",
    );

    let s = site(register(stringmatch::tuned::search_site_spec(
        prefix("site"),
        nominal,
        6,
    )));
    report.put(
        "site.pre_post_ns",
        per_call_ns(20_000, |_| {
            black_box(s.pre().post());
        }),
        "ns",
    );
    // While this thread holds the claim, further calls lose the claim
    // race and take the published-decision (exploit) path.
    let held = s.pre();
    report.put(
        "site.pre_post_exploit_ns",
        per_call_ns(100_000, |_| {
            black_box(s.pre().post());
        }),
        "ns",
    );
    drop(held);

    let keys: Vec<SortKey> = (3..9)
        .map(|c| SortKey::new(c, smallsort::PRESORT_RANDOM))
        .collect();
    report.put(
        "context.dispatch_resident_ns",
        dispatch_ns(8, &keys[..1], 20_000),
        "ns",
    );
    report.put(
        "context.dispatch_churn_ns",
        dispatch_ns(2, &keys, 5_000),
        "ns",
    );

    let mut buf = Vec::with_capacity(256);
    report.put(
        "serve.frame_ns",
        per_call_ns(200_000, |_| {
            buf.clear();
            protocol::write_frame(&mut buf, OP_MATCH, black_box(stringmatch::PAPER_QUERY));
            black_box(protocol::parse_frame(black_box(&buf)));
        }),
        "ns",
    );

    // A bare frame of the served scene (16×12, detail 1): the best
    // builder at its start configuration.
    let scene = raytrace::scene::cathedral(SERVICE_SCENE_SEED, 1);
    let base = RenderOptions {
        width: 16,
        height: 12,
        threads: 1,
        packet_width: 1,
    };
    let frame_ms = raytrace::kdtree::all_builders()
        .iter()
        .map(|b| {
            let start = raytrace::tunable::start_for(b.name());
            crate::kernels::frame_ms(&scene, b.as_ref(), &start, &base)
        })
        .fold(f64::INFINITY, f64::min);
    report.put("raytrace.frame_ms_start", frame_ms, "ms");

    let mut monitor = DriftMonitor::new(DriftConfig::default());
    report.put(
        "drift.observe_ns",
        per_call_ns(200_000, |i| {
            black_box(monitor.observe(1.0 + (i % 7) as f64 * 1e-3));
        }),
        "ns",
    );
    if was_on {
        telemetry::enable();
    }
}
