//! `tunebench`: one command measuring the tuned call end to end and layer
//! by layer.
//!
//! ```text
//! tunebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics of the
//! workload; with `--trace 1` it runs the traced variant and the no-work
//! layer probes and reports the per-layer ledger. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` in this directory for the workloads and metrics.

mod check;
mod embedded;
mod host;
mod kernels;
mod loadgen;
mod probes;
mod served;
mod trace;

use autotune::json::Json;

/// The workloads. `BENCHMARK.json` lists the first two; `sort-served`
/// runs the same way but is left out of it, because its cost per request
/// moves from process to process by more than a bound allows (see
/// `README.md`).
pub const WORKLOADS: [&str; 3] = ["match-served", "sort-embedded", "sort-served"];

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("p50_us", "us"),
    ("ok_share", "share"),
    ("oracle_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every `--trace 1` run reports, with units. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wait_us_p50", "us"),
    ("serve.wait_us_p99", "us"),
    ("serve.return_us_p50", "us"),
    ("serve.bytes_per_req", "bytes"),
    ("serve.errors", "count"),
    ("serve.ping_rtt_us_p50", "us"),
    ("serve.frame_ns", "ns"),
    ("handler.busy_share", "share"),
    ("handler.match_us_p50", "us"),
    ("handler.sort_us_p50", "us"),
    ("site.tuned_share", "share"),
    ("site.contended_share", "share"),
    ("site.restarts", "count"),
    ("site.post_tune_ns_p50", "ns"),
    ("site.post_exploit_ns_p50", "ns"),
    ("site.pre_post_ns", "ns"),
    ("site.pre_post_exploit_ns", "ns"),
    ("context.dispatch_tune_ns_p50", "ns"),
    ("context.dispatch_exploit_ns_p50", "ns"),
    ("context.dispatch_ns_p99", "ns"),
    ("context.hit_share", "share"),
    ("context.evictions_per_kcall", "count"),
    ("context.overflows", "count"),
    ("context.warm_starts", "count"),
    ("context.dispatch_resident_ns", "ns"),
    ("context.dispatch_churn_ns", "ns"),
    ("two_phase.best_share", "share"),
    ("two_phase.step_ns.match", "ns"),
    ("two_phase.step_ns.render", "ns"),
    ("robust.batch_runs_mean", "count"),
    ("robust.batched_us_p50", "us"),
    ("robust.timer_resolution_ns", "ns"),
    ("drift.observe_ns", "ns"),
    ("telemetry.events_per_req", "count"),
    ("telemetry.overwritten", "count"),
    ("telemetry.emit_ns_on", "ns"),
    ("telemetry.emit_ns_off", "ns"),
    ("stringmatch.oracle_us", "us"),
    ("stringmatch.incumbent_us", "us"),
    ("smallsort.oracle_ns_mean", "ns"),
    ("smallsort.sort_ns_p50", "ns"),
    ("raytrace.frame_ms_start", "ms"),
    ("loadgen.late_us_p99", "us"),
    ("loadgen.late_share", "share"),
    ("trace.overhead_share", "share"),
    ("open_loop.p99_us", "us"),
    ("open_loop.max_rate_rps", "1/s"),
    ("trace.request_us_mean", "us"),
    ("trace.late_self_us_mean", "us"),
    ("trace.wait_self_us_mean", "us"),
    ("trace.handler_self_us_mean", "us"),
    ("trace.return_self_us_mean", "us"),
    ("trace.remainder_us_mean", "us"),
    ("trace.call_ns_mean", "ns"),
    ("trace.key_self_ns_mean", "ns"),
    ("trace.batched_self_ns_mean", "ns"),
    ("trace.remainder_ns_mean", "ns"),
    ("host.ref_us", "us"),
    ("host.null_p50_us", "us"),
];

/// Metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Order the metrics as `names` lists them, adding 0 for any the
    /// run did not measure. Panics on a metric that is not listed or has
    /// another unit: that is a bug in this benchmark.
    fn complete(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, _, unit) in &self.metrics {
            assert!(
                names.contains(&(name, unit)),
                "metric {name} [{unit}] is not declared"
            );
        }
        self.metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.1);
                (name, value, unit)
            })
            .collect();
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name,
                                Json::obj(vec![
                                    ("value", Json::Num(value)),
                                    ("unit", Json::Str(unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Quantile `q` of `xs` (type-7, NaN for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    autotune::stats::quantile(xs, q)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the processes a split run starts (`--part <k>`): measure
    /// here instead of splitting again.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--part" => part = Some(value.parse::<usize>().map_err(|e| format!("--part: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        part,
    })
}

/// Processes an untraced `sort-embedded` run is split over, one after
/// another, each measuring an equal share of the run. The program
/// calibrates its clock once per process
/// (`autotune::robust::timer_resolution_ms`, the least of 8 clock steps:
/// 39–58 ns from one process to the next on the same host), and most
/// embedded calls re-run their sort until 32 of those steps have passed,
/// so one process's cost per call moves with that draw: by 0.22
/// IQR/median over five seeds at a steady host speed. The medians over
/// several processes move less.
const EMBEDDED_PROCESSES: usize = 7;

/// Run `args` as [`EMBEDDED_PROCESSES`] processes of this program with
/// the same seed; report each end-to-end metric as the median of theirs,
/// and `ok_share` over all their calls.
fn run_split(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut report = Report::default();
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for k in 0..EMBEDDED_PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &(args.seconds / EMBEDDED_PROCESSES as f64).to_string(),
            ])
            .args(["--trace", "0", "--part", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("process {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("process {k} exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let json = Json::parse(line).map_err(|e| format!("process {k}: {e}"))?;
        let number = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(f64::NAN);
        report.attempted += number(json.get("attempted")) as u64;
        report.failed += number(json.get("failed")) as u64;
        let metrics = json.get("metrics");
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            let metric = metrics.and_then(|m| m.get(name));
            values[i].push(number(metric.and_then(|m| m.get("value"))));
        }
    }
    for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
        let value = if name == "ok_share" {
            served::ok_share(&report)
        } else {
            median(&values[i])
        };
        report.put(name, value, unit);
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tunebench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "sort-embedded" if !args.trace && args.part.is_none() => run_split(&args),
        "sort-embedded" => Ok(embedded::run(args.seed, args.seconds, args.trace)),
        name => served::run(name, args.seed, args.seconds, args.trace).map_err(|e| e.to_string()),
    };
    match result {
        Ok(mut report) => {
            report.complete(if args.trace { PER_LAYER } else { &END_TO_END });
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("tunebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Note on standard error that a phase of the run begins.
pub fn progress(what: &str) {
    eprintln!("[tunebench {:7.3}s] {what}", trace::now_ns() as f64 / 1e9);
}

/// The `schedstat` path of the calling thread, readable from any thread
/// of the process.
pub fn own_schedstat() -> String {
    std::fs::read_link("/proc/thread-self")
        .map(|p| format!("/proc/{}/schedstat", p.display()))
        .unwrap_or_default()
}

/// Time, in ns, the thread whose `schedstat` path is given has run on a
/// CPU, and has waited runnable for one (fields 1 and 2). The kernel
/// leaves out of the run time the time the virtual CPU itself was not
/// running, so CPU time is far steadier than wall time on a shared host.
pub fn sched_ns(schedstat: &str) -> (u64, u64) {
    let s = std::fs::read_to_string(schedstat).unwrap_or_default();
    let mut fields = s.split_whitespace().map(|f| f.parse().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// `/proc/stat` counts in ticks of 1/100 s (`USER_HZ`).
const USER_HZ_NS: u64 = 10_000_000;

/// Steal time of all the host's virtual CPUs so far, in ns: time each
/// wanted to run but the hypervisor ran something else (field 8 of the
/// `cpu` line of `/proc/stat`).
pub fn steal_ns() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |ticks| ticks * USER_HZ_NS)
}
