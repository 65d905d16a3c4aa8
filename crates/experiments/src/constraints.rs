//! The `constraints` study: repair vs reject-and-retry on constrained
//! search spaces.
//!
//! The paper's spaces are pure box products, but real deployments carry
//! cross-parameter feasibility rules: thread counts capped by the host's
//! core budget, packet lanes bounded by `threads × packet_width`, SIMD
//! kernels gated on CPU features. [`autotune::space::Constraint`] models
//! those rules, and there are two ways a tuner can honor them:
//!
//! * **repair** — constraints carry repair functions, so searchers project
//!   every proposal into the feasible region and each iteration spends a
//!   real measurement;
//! * **reject-and-retry** — the same predicates with the repairs stripped
//!   ([`autotune::space::SearchSpace::without_repairs`]): infeasible
//!   proposals are routed through the failure-penalty path without being
//!   measured, burning the iteration.
//!
//! The claim under test: repair converges (iterations until the running
//! best is within 5% of the final best) at least as fast as
//! reject-and-retry on both case studies, because rejected iterations
//! teach the searcher only "bad", while repaired ones return a usable
//! measurement from the feasible boundary.
//!
//! The study also records the per-algorithm feasibility of each case
//! study's full algorithm set 𝒜 — on a host without vector units (or under
//! `AUTOTUNE_FORCE_SCALAR=1`) the SIMD matchers must be reported
//! *infeasible*, not silently aliased to scalar code. CI asserts exactly
//! that from `constraints.json`.

use crate::convergence::{iterations_to_target, tail_median};
use crate::cs1::{self, Cs1Config};
use crate::cs2::Cs2Config;
use crate::report::SeriesFigure;
use autotune::json::Json;
use autotune::param::{Parameter, Value};
use autotune::space::{Configuration, Constraint, SearchSpace};
use autotune::stats;
use autotune::two_phase::{AlgorithmSpec, TwoPhaseTuner};
use raytrace::tunable;
use std::path::Path;
use stringmatch::tuned::matcher_algorithm_specs;
use stringmatch::{all_matchers, corpus};

/// Convergence threshold: iterations until the running best is within
/// this fraction of the series' final best.
pub const CONVERGENCE_FRACTION: f64 = 0.05;

/// How a tuning run treats constraint violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintMode {
    /// Declared repairs project proposals into the feasible region.
    Repair,
    /// Repairs stripped: infeasible proposals cost a penalized iteration.
    Reject,
}

impl ConstraintMode {
    /// Display name used in figures and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ConstraintMode::Repair => "repair",
            ConstraintMode::Reject => "reject",
        }
    }

    /// The algorithm set as this mode sees it.
    fn apply(self, specs: &[AlgorithmSpec]) -> Vec<AlgorithmSpec> {
        match self {
            ConstraintMode::Repair => specs.to_vec(),
            ConstraintMode::Reject => specs
                .iter()
                .map(|s| {
                    let mut s = s.clone();
                    s.space = s.space.without_repairs();
                    s
                })
                .collect(),
        }
    }
}

/// One (strategy, mode) tuning result, aggregated over repetitions.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// Median per-iteration runtime across repetitions (NaN where the
    /// iteration was spent on a rejected proposal).
    pub curve: Vec<f64>,
    /// Median over repetitions of the iterations-to-within-5% metric.
    pub convergence_iters: f64,
    /// Real measurements spent across all repetitions.
    pub measured: usize,
    /// Infeasible proposals penalized without measuring, across all
    /// repetitions.
    pub rejected: usize,
    /// Median runtime over the last quarter of the curve.
    pub tail: f64,
}

/// One strategy's repair-vs-reject comparison.
#[derive(Debug, Clone)]
pub struct StrategyConstraintRun {
    /// Phase-2 strategy label.
    pub label: String,
    /// The run with declared repairs active.
    pub repair: ModeRun,
    /// The reject-and-retry baseline.
    pub reject: ModeRun,
}

/// Feasibility of one algorithm's space on this host — the honesty report
/// for 𝒜.
#[derive(Debug, Clone)]
pub struct AlgorithmFeasibility {
    /// Algorithm display name.
    pub name: String,
    /// Does the space admit any feasible (or repairable) point here?
    pub feasible: bool,
}

/// The study over one case study's algorithm set.
#[derive(Debug, Clone)]
pub struct ConstraintsStudy {
    /// Case-study identifier (`cs1-…`/`cs2-…`).
    pub case_study: String,
    /// The core budget the constraints were derived from.
    pub budget: usize,
    /// Tuning iterations per repetition.
    pub iterations: usize,
    /// Repetitions per (strategy, mode).
    pub reps: usize,
    /// Per-strategy repair-vs-reject results.
    pub runs: Vec<StrategyConstraintRun>,
    /// Per-algorithm feasibility of the case study's full algorithm set.
    pub feasibility: Vec<AlgorithmFeasibility>,
}

/// Does `space` admit any feasible point on this host? Probed through the
/// canonical corner: feasible as-is, or repairable into feasibility.
fn space_is_satisfiable(space: &SearchSpace) -> bool {
    let corner = space.min_corner();
    space.is_feasible(&corner) || space.repair(&corner).is_some()
}

/// Feasibility report over an algorithm set.
fn feasibility_of(specs: &[AlgorithmSpec]) -> Vec<AlgorithmFeasibility> {
    specs
        .iter()
        .map(|s| AlgorithmFeasibility {
            name: s.name.clone(),
            feasible: space_is_satisfiable(&s.space),
        })
        .collect()
}

/// Identity and budget parameters shared by one repair-vs-reject study.
struct StudyParams<'a> {
    case_study: &'a str,
    budget: usize,
    reps: usize,
    iterations: usize,
    seed: u64,
}

/// Run the repair-vs-reject comparison for every paper strategy over an
/// arbitrary constrained algorithm set and measurement function.
fn run_study(
    p: StudyParams<'_>,
    specs: &[AlgorithmSpec],
    measure: &mut dyn FnMut(usize, &Configuration) -> f64,
    feasibility: Vec<AlgorithmFeasibility>,
) -> ConstraintsStudy {
    let StudyParams {
        case_study,
        budget,
        reps,
        iterations,
        seed,
    } = p;
    let mut runs = Vec::new();
    for (si, (label, kind)) in cs1::strategies().into_iter().enumerate() {
        let mut modes = Vec::with_capacity(2);
        for mode in [ConstraintMode::Repair, ConstraintMode::Reject] {
            let mode_specs = mode.apply(specs);
            let mut series_per_rep = Vec::with_capacity(reps);
            let mut convergence = Vec::with_capacity(reps);
            let mut measured = 0usize;
            let mut rejected = 0usize;
            for rep in 0..reps {
                // Same seeds in both modes: the only difference between a
                // strategy's repair and reject runs is how violations are
                // handled.
                let tuner_seed = seed
                    .wrapping_add(rep as u64 * 1009)
                    .wrapping_add(si as u64 * 7919);
                let mut tuner = TwoPhaseTuner::new(mode_specs.clone(), kind, tuner_seed);
                let mut series = Vec::with_capacity(iterations);
                for _ in 0..iterations {
                    let sample = tuner.step(|alg, c| measure(alg, c));
                    series.push(if sample.failed {
                        f64::NAN
                    } else {
                        sample.value
                    });
                }
                measured += series.iter().filter(|v| v.is_finite()).count();
                rejected += tuner.failure_counts().iter().sum::<usize>();
                // Within 5% of this rep's own best; a rep with no
                // successful measurement never converges (`len + 1`).
                let best = series.iter().fold(f64::INFINITY, |b, &v| b.min(v));
                let target = best * (1.0 + CONVERGENCE_FRACTION);
                let iters = iterations_to_target(&series, target).unwrap_or(series.len() + 1);
                convergence.push(iters as f64);
                series_per_rep.push(series);
            }
            let curve = stats::per_iteration_reduce(&series_per_rep, stats::median);
            modes.push(ModeRun {
                convergence_iters: stats::median(&convergence),
                measured,
                rejected,
                tail: tail_median(&curve, curve.len() / 4),
                curve,
            });
        }
        let reject = modes.pop().expect("two modes");
        let repair = modes.pop().expect("two modes");
        runs.push(StrategyConstraintRun {
            label,
            repair,
            reject,
        });
    }
    ConstraintsStudy {
        case_study: case_study.to_string(),
        budget,
        iterations,
        reps,
        runs,
        feasibility,
    }
}

/// Thread-count space for a scalar matcher: up to 32 worker threads, but a
/// `thread-budget` constraint caps proposals at the host budget. The box
/// deliberately overshoots the budget so the constraint does real work.
fn thread_space(budget: usize) -> SearchSpace {
    let cap = budget as i64;
    SearchSpace::new(vec![Parameter::ratio("threads", 1, 32)]).with_constraint(
        Constraint::new("thread-budget", move |c: &Configuration| {
            c.get(0).as_i64() <= cap
        })
        .with_repair(move |_c: &Configuration| Configuration::new(vec![Value::Int(cap)])),
    )
}

/// Case study 1: the eight scalar matchers, each with a budget-constrained
/// thread-count space. The feasibility report covers the full
/// kernel-extended set ([`matcher_algorithm_specs`]), so SIMD availability
/// on this host lands in `constraints.json`.
pub fn cs1_constraints(cfg: &Cs1Config) -> ConstraintsStudy {
    let text = corpus::bible_like_with(cfg.seed, cfg.corpus_bytes, cfg.query_spacing_words);
    let matchers = all_matchers();
    let budget = cfg.threads.clamp(1, 8);
    let specs: Vec<AlgorithmSpec> = matchers
        .iter()
        .map(|m| AlgorithmSpec::new(m.name(), thread_space(budget)))
        .collect();
    run_study(
        StudyParams {
            case_study: "cs1-string-matching",
            budget,
            reps: cfg.reps,
            iterations: cfg.iterations,
            seed: cfg.seed,
        },
        &specs,
        &mut |alg, c| {
            let threads = c.get(0).as_i64().clamp(1, budget as i64) as usize;
            cs1::timed_search(matchers[alg].as_ref(), threads, &text)
        },
        feasibility_of(&matcher_algorithm_specs()),
    )
}

/// Case study 2: the four kD-tree builders under the thread- and
/// lane-budget constraints of a deliberately small core budget, so the
/// depth/packet corner of every space is infeasible and the two modes
/// diverge.
pub fn cs2_constraints(cfg: &Cs2Config) -> ConstraintsStudy {
    let scene = cfg.scene();
    let opts = raytrace::render::RenderOptions {
        width: cfg.width,
        height: cfg.height,
        threads: cfg.render_threads,
        packet_width: 1,
    };
    let builders = raytrace::all_builders();
    let budget = cfg.render_threads.clamp(1, 4);
    let specs = tunable::algorithm_specs_with_budget(budget);
    let feasibility = feasibility_of(&specs);
    run_study(
        StudyParams {
            case_study: "cs2-raytracing",
            budget,
            reps: cfg.reps,
            iterations: cfg.frames,
            seed: cfg.seed,
        },
        &specs,
        &mut |alg, c| {
            let config = tunable::decode(builders[alg].name(), c);
            let ropts = tunable::decode_render(c, &opts);
            raytrace::render::frame(&scene, builders[alg].as_ref(), &config, &ropts).total_ms()
        },
        feasibility,
    )
}

/// Repair-vs-reject convergence figure: two series per strategy.
pub fn figure(study: &ConstraintsStudy) -> SeriesFigure {
    let mut series = Vec::with_capacity(study.runs.len() * 2);
    for run in &study.runs {
        series.push((format!("{} repair", run.label), run.repair.curve.clone()));
        series.push((format!("{} reject", run.label), run.reject.curve.clone()));
    }
    SeriesFigure {
        id: format!("constraints_{}", short_id(&study.case_study)),
        title: format!(
            "{}: repair vs reject-and-retry convergence (budget {})",
            study.case_study, study.budget
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

fn mode_json(m: &ModeRun) -> Json {
    Json::obj(vec![
        ("convergence_iters", Json::Num(m.convergence_iters)),
        ("measured", Json::Num(m.measured as f64)),
        ("rejected", Json::Num(m.rejected as f64)),
        ("tail_ms", Json::Num(m.tail)),
        ("curve", num_arr(&m.curve)),
    ])
}

/// Structured results for `constraints.json`.
pub fn to_json(studies: &[ConstraintsStudy]) -> Json {
    Json::obj(vec![(
        "studies",
        Json::Arr(
            studies
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("case_study", Json::Str(s.case_study.clone())),
                        ("budget", Json::Num(s.budget as f64)),
                        ("iterations", Json::Num(s.iterations as f64)),
                        ("reps", Json::Num(s.reps as f64)),
                        (
                            "feasibility",
                            Json::Arr(
                                s.feasibility
                                    .iter()
                                    .map(|f| {
                                        Json::obj(vec![
                                            ("algorithm", Json::Str(f.name.clone())),
                                            ("feasible", Json::Bool(f.feasible)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "strategies",
                            Json::Arr(
                                s.runs
                                    .iter()
                                    .map(|r| {
                                        Json::obj(vec![
                                            ("label", Json::Str(r.label.clone())),
                                            ("repair", mode_json(&r.repair)),
                                            ("reject", mode_json(&r.reject)),
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

/// Write `<dir>/constraints.json`.
pub fn save_json(studies: &[ConstraintsStudy], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("constraints.json"),
        to_json(studies).to_string_pretty(),
    )
}

/// One-line per-strategy summary for the terminal, plus the host's
/// infeasible algorithms (if any).
pub fn summary(study: &ConstraintsStudy) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "{} @ budget {} ({} reps × {} iters):",
        study.case_study, study.budget, study.reps, study.iterations
    )
    .unwrap();
    for r in &study.runs {
        writeln!(
            out,
            "  {:<24} repair {:>5.1} iters to 5% ({} rejected)   \
             reject {:>5.1} iters to 5% ({} rejected)",
            r.label,
            r.repair.convergence_iters,
            r.repair.rejected,
            r.reject.convergence_iters,
            r.reject.rejected,
        )
        .unwrap();
    }
    let infeasible: Vec<&str> = study
        .feasibility
        .iter()
        .filter(|f| !f.feasible)
        .map(|f| f.name.as_str())
        .collect();
    if !infeasible.is_empty() {
        writeln!(out, "  infeasible on this host: {}", infeasible.join(", ")).unwrap();
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
            iterations: 30,
            threads: 2,
            seed: 5,
        }
    }

    #[test]
    fn cs1_repair_never_rejects_and_accounting_balances() {
        let cfg = tiny_cs1();
        let study = cs1_constraints(&cfg);
        assert_eq!(study.runs.len(), 6, "all six paper strategies");
        assert_eq!(study.budget, 2);
        let total = cfg.reps * cfg.iterations;
        let mut any_rejected = 0usize;
        for r in &study.runs {
            for (mode, m) in [("repair", &r.repair), ("reject", &r.reject)] {
                assert_eq!(m.curve.len(), cfg.iterations, "{}: {mode}", r.label);
                assert_eq!(
                    m.measured + m.rejected,
                    total,
                    "{}: {mode} iterations must be measured or rejected",
                    r.label
                );
                assert!(
                    m.convergence_iters >= 1.0 && m.convergence_iters <= cfg.iterations as f64,
                    "{}: {mode} convergence out of range",
                    r.label
                );
            }
            assert_eq!(
                r.repair.rejected, 0,
                "{}: with repairs declared, no proposal may be rejected",
                r.label
            );
            any_rejected += r.reject.rejected;
        }
        assert!(
            any_rejected > 0,
            "stripping repairs must surface rejected proposals somewhere"
        );
        // The scalar matchers are always feasible; SIMD entries depend on
        // the host, but all 12 must be reported.
        assert_eq!(study.feasibility.len(), 12);
        assert!(study
            .feasibility
            .iter()
            .filter(|f| !f.name.ends_with("-SIMD"))
            .all(|f| f.feasible));
    }

    #[test]
    fn cs2_study_diverges_under_tight_budget() {
        let cfg = Cs2Config {
            detail: 1,
            frames: 16,
            reps: 1,
            width: 32,
            height: 24,
            render_threads: 2,
            seed: 3,
        };
        let study = cs2_constraints(&cfg);
        assert_eq!(study.runs.len(), 6);
        assert_eq!(study.budget, 2);
        assert_eq!(study.feasibility.len(), 4);
        assert!(study.feasibility.iter().all(|f| f.feasible));
        for r in &study.runs {
            assert_eq!(r.repair.rejected, 0, "{}", r.label);
            assert_eq!(r.repair.measured, 16, "{}", r.label);
        }
    }

    #[test]
    fn figure_and_json_shapes() {
        let study = cs1_constraints(&tiny_cs1());
        let f = figure(&study);
        assert_eq!(f.id, "constraints_cs1");
        assert_eq!(f.series.len(), 12, "repair + reject per strategy");
        let json = to_json(std::slice::from_ref(&study));
        let parsed = Json::parse(&json.to_string_pretty()).expect("self-parse");
        let studies = parsed.get("studies").and_then(Json::as_arr).unwrap();
        assert_eq!(studies.len(), 1);
        let strategies = studies[0].get("strategies").and_then(Json::as_arr).unwrap();
        assert_eq!(strategies.len(), 6);
        let feas = studies[0]
            .get("feasibility")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(feas.len(), 12);
        assert!(summary(&study).contains("iters to 5%"));
    }
}
