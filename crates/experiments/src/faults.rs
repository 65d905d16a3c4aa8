//! The `faults` study: tuning under transient measurement failures.
//!
//! The paper's evaluation assumes every measurement succeeds. Production
//! tuning loops do not get that luxury — timers read zero, kernels panic on
//! degenerate inputs, co-located work injects latency spikes. This study
//! re-runs both case studies with a configurable fraction (default 10%) of
//! measurements replaced by injected faults ([`FaultKind::ALL`]) and
//! compares the convergence curves against fault-free runs of the same
//! strategies and seeds.
//!
//! The claim under test: with the robust measurement pipeline
//! ([`autotune::robust`]) in front of the tuner, all six paper strategies
//! *complete* (no panic escapes), *converge* (the faulty tail approaches
//! the clean tail), and *never exclude* an algorithm.
//!
//! Failed iterations are recorded as `NaN` in the curves; the median
//! reducer filters NaN by policy, so the plotted curves show the runtime
//! the application actually observed on successful iterations.

use crate::convergence::tail_median;
use crate::cs1::{self, Cs1Config};
use crate::cs2::Cs2Config;
use crate::report::SeriesFigure;
use autotune::json::Json;
use autotune::rng::Rng;
use autotune::robust::{robust_call, FaultKind, FaultPlan, MeasureOutcome, RobustOptions};
use autotune::space::Configuration;
use autotune::stats;
use autotune::two_phase::{AlgorithmSpec, TwoPhaseTuner};
use raytrace::tunable;
use std::path::Path;
use stringmatch::{all_matchers, corpus};

/// The transient-failure rate of the study's headline claim.
pub const DEFAULT_FAULT_RATE: f64 = 0.10;

/// One strategy's clean-vs-faulty comparison.
#[derive(Debug, Clone)]
pub struct StrategyFaultRun {
    pub label: String,
    /// Median per-iteration runtime across repetitions, fault-free run.
    pub clean_curve: Vec<f64>,
    /// Same, with faults injected (failed iterations filtered as NaN).
    pub faulty_curve: Vec<f64>,
    /// Faults injected across all repetitions of the faulty run.
    pub injected: usize,
    /// Failures the tuner recorded (NaN/panic faults; zero and spike
    /// faults produce valid-if-bad samples and are absorbed silently).
    pub failures_recorded: usize,
    /// Median runtime over the last quarter of each curve — the converged
    /// performance the application sees.
    pub clean_tail: f64,
    pub faulty_tail: f64,
    /// Per-algorithm selection counts in the faulty run, summed over
    /// repetitions. Every entry must stay positive: faults never excluded
    /// an algorithm.
    pub faulty_selections: Vec<usize>,
}

/// The study over one case study's algorithm set.
#[derive(Debug, Clone)]
pub struct FaultsStudy {
    pub case_study: String,
    pub rate: f64,
    pub iterations: usize,
    pub reps: usize,
    pub runs: Vec<StrategyFaultRun>,
}

/// Inject a fault (or not) around a clean measurement, routed through the
/// robust pipeline so panic faults are contained exactly like production
/// panics would be.
fn faulty_call(
    plan: &FaultPlan,
    rng: &mut Rng,
    injected: &mut usize,
    mut clean: impl FnMut() -> f64,
) -> MeasureOutcome {
    let kind = if rng.next_bool(plan.rate) {
        *injected += 1;
        Some(plan.kinds[rng.pick_index(plan.kinds.len())])
    } else {
        None
    };
    robust_call(&RobustOptions::default(), || match kind {
        None => clean(),
        Some(FaultKind::Nan) => f64::NAN,
        Some(FaultKind::Zero) => 0.0,
        Some(FaultKind::Panic) => panic!("injected measurement fault"),
        Some(FaultKind::Spike) => clean() * plan.spike_factor,
    })
}

/// Run the clean-vs-faulty comparison for every paper strategy over an
/// arbitrary algorithm set and measurement function.
fn run_study(
    case_study: &str,
    rate: f64,
    reps: usize,
    iterations: usize,
    seed: u64,
    specs: &[AlgorithmSpec],
    measure: &mut dyn FnMut(usize, &Configuration) -> f64,
) -> FaultsStudy {
    let mut runs = Vec::new();
    for (si, (label, kind)) in cs1::strategies().into_iter().enumerate() {
        let mut curves = [Vec::new(), Vec::new()]; // [clean, faulty] per-rep series
        let mut injected = 0usize;
        let mut failures_recorded = 0usize;
        let mut faulty_selections = vec![0usize; specs.len()];
        for (fi, &faulty) in [false, true].iter().enumerate() {
            let plan = FaultPlan::all(if faulty { rate } else { 0.0 });
            for rep in 0..reps {
                let tuner_seed = seed
                    .wrapping_add(rep as u64 * 1009)
                    .wrapping_add(si as u64 * 7919);
                let mut fault_rng = Rng::new(tuner_seed ^ 0xFA17);
                let mut tuner = TwoPhaseTuner::new(specs.to_vec(), kind, tuner_seed);
                let mut series = Vec::with_capacity(iterations);
                for _ in 0..iterations {
                    let sample = tuner.step_fallible(|alg, c| {
                        faulty_call(&plan, &mut fault_rng, &mut injected, || measure(alg, c))
                    });
                    series.push(if sample.failed {
                        f64::NAN
                    } else {
                        sample.value
                    });
                }
                curves[fi].push(series);
                if faulty {
                    failures_recorded += tuner.failure_counts().iter().sum::<usize>();
                    for (count, sample_count) in
                        faulty_selections.iter_mut().zip(tuner.selection_counts())
                    {
                        *count += sample_count;
                    }
                }
            }
        }
        let clean_curve = stats::per_iteration_reduce(&curves[0], stats::median);
        let faulty_curve = stats::per_iteration_reduce(&curves[1], stats::median);
        runs.push(StrategyFaultRun {
            label,
            clean_tail: tail_median(&clean_curve, clean_curve.len() / 4),
            faulty_tail: tail_median(&faulty_curve, faulty_curve.len() / 4),
            clean_curve,
            faulty_curve,
            injected,
            failures_recorded,
            faulty_selections,
        });
    }
    FaultsStudy {
        case_study: case_study.to_string(),
        rate,
        iterations,
        reps,
        runs,
    }
}

/// Case study 1 (string matching) under transient faults.
pub fn cs1_faults(cfg: &Cs1Config, rate: f64) -> FaultsStudy {
    let text = corpus::bible_like_with(cfg.seed, cfg.corpus_bytes, cfg.query_spacing_words);
    let matchers = all_matchers();
    let specs: Vec<AlgorithmSpec> = matchers
        .iter()
        .map(|m| AlgorithmSpec::untunable(m.name()))
        .collect();
    run_study(
        "cs1-string-matching",
        rate,
        cfg.reps,
        cfg.iterations,
        cfg.seed,
        &specs,
        &mut |alg, _c| cs1::timed_search(matchers[alg].as_ref(), cfg.threads, &text),
    )
}

/// Case study 2 (raytracing) under transient faults.
pub fn cs2_faults(cfg: &Cs2Config, rate: f64) -> FaultsStudy {
    let scene = cfg.scene();
    let opts = raytrace::render::RenderOptions {
        width: cfg.width,
        height: cfg.height,
        threads: cfg.render_threads,
        packet_width: 1,
    };
    let builders = raytrace::all_builders();
    let specs = tunable::algorithm_specs();
    run_study(
        "cs2-raytracing",
        rate,
        cfg.reps,
        cfg.frames,
        cfg.seed,
        &specs,
        &mut |alg, c| {
            let config = tunable::decode(builders[alg].name(), c);
            let ropts = tunable::decode_render(c, &opts);
            raytrace::render::frame(&scene, builders[alg].as_ref(), &config, &ropts).total_ms()
        },
    )
}

/// Clean-vs-faulty convergence figure: two series per strategy.
pub fn figure(study: &FaultsStudy) -> SeriesFigure {
    let mut series = Vec::with_capacity(study.runs.len() * 2);
    for run in &study.runs {
        series.push((format!("{} clean", run.label), run.clean_curve.clone()));
        series.push((format!("{} faulty", run.label), run.faulty_curve.clone()));
    }
    SeriesFigure {
        id: format!("faults_{}", short_id(&study.case_study)),
        title: format!(
            "{}: clean vs {:.0}% transient-fault convergence",
            study.case_study,
            study.rate * 100.0
        ),
        xlabel: "iteration".into(),
        ylabel: "median time [ms]".into(),
        series,
    }
}

fn short_id(case_study: &str) -> &str {
    case_study.split('-').next().unwrap_or(case_study)
}

fn num_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Num(x)).collect())
}

/// Structured results for `faults.json`.
pub fn to_json(studies: &[FaultsStudy]) -> Json {
    Json::obj(vec![(
        "studies",
        Json::Arr(
            studies
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("case_study", Json::Str(s.case_study.clone())),
                        ("fault_rate", Json::Num(s.rate)),
                        ("iterations", Json::Num(s.iterations as f64)),
                        ("reps", Json::Num(s.reps as f64)),
                        (
                            "strategies",
                            Json::Arr(
                                s.runs
                                    .iter()
                                    .map(|r| {
                                        Json::obj(vec![
                                            ("label", Json::Str(r.label.clone())),
                                            ("injected_faults", Json::Num(r.injected as f64)),
                                            (
                                                "failures_recorded",
                                                Json::Num(r.failures_recorded as f64),
                                            ),
                                            ("clean_tail_ms", Json::Num(r.clean_tail)),
                                            ("faulty_tail_ms", Json::Num(r.faulty_tail)),
                                            (
                                                "faulty_selections",
                                                Json::Arr(
                                                    r.faulty_selections
                                                        .iter()
                                                        .map(|&c| Json::Num(c as f64))
                                                        .collect(),
                                                ),
                                            ),
                                            ("clean_curve", num_arr(&r.clean_curve)),
                                            ("faulty_curve", num_arr(&r.faulty_curve)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Write `<dir>/faults.json`.
pub fn save_json(studies: &[FaultsStudy], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("faults.json"), to_json(studies).to_string_pretty())
}

/// One-line per-strategy summary for the terminal.
pub fn summary(study: &FaultsStudy) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "{} @ {:.0}% faults ({} reps × {} iters):",
        study.case_study,
        study.rate * 100.0,
        study.reps,
        study.iterations
    )
    .unwrap();
    for r in &study.runs {
        let excluded = r.faulty_selections.contains(&0);
        writeln!(
            out,
            "  {:<24} clean tail {:>8.2}ms  faulty tail {:>8.2}ms  \
             ({} injected, {} recorded{})",
            r.label,
            r.clean_tail,
            r.faulty_tail,
            r.injected,
            r.failures_recorded,
            if excluded { ", ALGORITHM EXCLUDED" } else { "" }
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cs1() -> Cs1Config {
        Cs1Config {
            corpus_bytes: 32 << 10,
            query_spacing_words: 1_000,
            reps: 2,
            iterations: 24,
            threads: 2,
            seed: 5,
        }
    }

    #[test]
    fn cs1_study_survives_and_reports_faults() {
        let study = cs1_faults(&tiny_cs1(), 0.25);
        assert_eq!(study.runs.len(), 6, "all six paper strategies");
        for r in &study.runs {
            assert_eq!(r.clean_curve.len(), 24);
            assert_eq!(r.faulty_curve.len(), 24);
            assert!(
                r.injected > 0,
                "{}: faults must have been injected",
                r.label
            );
            assert!(
                r.failures_recorded <= r.injected,
                "{}: only nan/panic faults fail",
                r.label
            );
            assert!(r.clean_tail.is_finite() && r.clean_tail > 0.0);
            assert!(r.faulty_tail.is_finite() && r.faulty_tail > 0.0);
            assert!(
                r.faulty_selections.iter().all(|&c| c > 0),
                "{}: no algorithm may be excluded ({:?})",
                r.label,
                r.faulty_selections
            );
        }
    }

    #[test]
    fn cs2_study_survives() {
        let cfg = Cs2Config {
            detail: 1,
            frames: 16,
            reps: 1,
            width: 32,
            height: 24,
            render_threads: 2,
            seed: 3,
        };
        let study = cs2_faults(&cfg, 0.4);
        assert_eq!(study.runs.len(), 6);
        for r in &study.runs {
            assert_eq!(r.faulty_curve.len(), 16);
            assert!(r.injected > 0, "{}", r.label);
        }
    }

    #[test]
    fn figure_and_json_shapes() {
        let study = cs1_faults(&tiny_cs1(), 0.2);
        let f = figure(&study);
        assert_eq!(f.id, "faults_cs1");
        assert_eq!(f.series.len(), 12, "clean + faulty per strategy");
        let json = to_json(std::slice::from_ref(&study));
        let parsed = Json::parse(&json.to_string_pretty()).expect("self-parse");
        let studies = parsed.get("studies").and_then(Json::as_arr).unwrap();
        assert_eq!(studies.len(), 1);
        let strategies = studies[0].get("strategies").and_then(Json::as_arr).unwrap();
        assert_eq!(strategies.len(), 6);
        assert!(summary(&study).contains("clean tail"));
    }
}
