//! The `contexts` study: generalized context dimensions under the
//! [`autotune::context`] layer, demonstrated on the smallsort workload.
//!
//! Three questions, one run:
//!
//! 1. **Winner flip** — with presortedness as a *second* context feature
//!    (`SortKey = size class × presort class`), does at least one size
//!    class learn a *different* winner for nearly-sorted input than for
//!    random input? (Insertion sort is O(n + inversions): unbeatable on
//!    nearly-sorted arrays at sizes where it is hopeless on random ones.
//!    A size-only context key would average the two regimes away.)
//! 2. **Warm vs cold start** — when a new key is admitted, nearest-
//!    neighbor warm-starting seeds its tuner from the closest learned
//!    key's posterior. After pre-training the tables on a set of seed
//!    classes, probe classes *between* them are driven through a
//!    warm-starting table and a cold one on identical input streams:
//!    the study reports measured iterations until the runtime series
//!    settles ([`convergence::settled_after`], the same criterion as the
//!    `smallsort` study).
//! 3. **LRU churn** — a table whose capacity is below its live key count
//!    parks and reinstates tuner state on every round-robin pass. The
//!    study counts admissions / evictions / reinstatements and times the
//!    dispatch path against a full-capacity table on the same key cycle.
//!
//! Everything reported is rebuilt **from the exported JSONL trace** via
//! the `context` field each event carries — the per-key tables filter on
//! context ids, not site tags, because under churn a registry slot (and
//! its tag) is shared by many keys over time while the context id names
//! the logical key forever. Artifacts: `results/contexts.json` plus the
//! raw trace in `results/contexts_trace.jsonl`.

use crate::convergence::{self, WINDOW};
use crate::sortstudy::closed_samples;
use autotune::json::Json;
use autotune::rng::Rng;
use autotune::robust::MeasureOutcome;
use autotune::stats;
use autotune::telemetry::{self, export, Event, EventKind, MeasureStatus};
use autotune::two_phase::NominalKind;
use smallsort::{
    nearly_sorted_input, SortKey, SortSites, ALGORITHM_NAMES, PRESORT_NAMES, PRESORT_NEARLY_SORTED,
    PRESORT_RANDOM,
};

/// Scale knobs. Defaults are the *quick* profile.
#[derive(Debug, Clone)]
pub struct ContextsConfig {
    /// Size classes (log2 of the class cap) used for the winner-flip
    /// pairs and as warm-start seed classes. Probe classes are derived
    /// as the midpoints between consecutive entries.
    pub classes: Vec<u32>,
    /// Closed tuning samples per context key, for both the flip and the
    /// warm-vs-cold streams: each key gets requests (interleaved
    /// round-robin across keys) until its site has closed this many.
    pub requests_per_key: usize,
    /// Seed for request sizes, keys, and the per-key tuners.
    pub seed: u64,
    /// Capacity of the churn table — must be below the churned key count
    /// (`classes.len() × 2`) to force eviction on every pass.
    pub churn_capacity: usize,
    /// Round-robin passes over the churned keys.
    pub churn_rounds: usize,
}

impl Default for ContextsConfig {
    fn default() -> Self {
        ContextsConfig {
            classes: vec![8, 10, 12],
            requests_per_key: 240,
            seed: 20170609,
            churn_capacity: 3,
            churn_rounds: 60,
        }
    }
}

impl ContextsConfig {
    /// The full-scale profile: longer streams, more churn passes.
    pub fn paper() -> Self {
        ContextsConfig {
            requests_per_key: 1200,
            churn_rounds: 400,
            ..Default::default()
        }
    }

    /// Probe classes for the warm-vs-cold comparison: the midpoint of
    /// every consecutive seed-class pair (never seen during seeding, but
    /// near a learned neighbor).
    pub fn probe_classes(&self) -> Vec<u32> {
        self.classes.windows(2).map(|w| (w[0] + w[1]) / 2).collect()
    }
}

/// One context key's convergence table, rebuilt from the JSONL trace by
/// filtering on the event `context` field. The `smallsort` study builds
/// its per-class tables with the same reducer.
#[derive(Debug, Clone)]
pub struct KeyTable {
    /// The key's size class (log2 of its size cap).
    pub class: u32,
    /// The key's presort class (index into [`PRESORT_NAMES`]).
    pub presort: u32,
    /// The key's context id — the `context` field its trace lines carry.
    pub context: u32,
    /// Sort requests dispatched to this key: as many as it took to close
    /// the budgeted samples.
    pub requests: u64,
    /// Measured tuning iterations (successful `MeasureOutcome` events).
    pub measured: u64,
    /// Per-algorithm measurement counts, indexed like [`ALGORITHM_NAMES`].
    pub selections: Vec<u64>,
    /// The converged winner: the algorithm the trace's last 15
    /// measurements select most often.
    pub winner: usize,
    /// Median measured runtime of the last 15 measurements, in
    /// milliseconds.
    pub final_median_ms: f64,
    /// Median of the *first* 15 measurements — the price of the start
    /// regime (cold starts explore; warm starts exploit).
    pub early_median_ms: f64,
    /// Measured iterations until the runtimes settle onto
    /// `final_median_ms` ([`convergence::settled_after`]; `None`: never
    /// settled).
    pub converged_after: Option<usize>,
}

impl KeyTable {
    /// `converged_after`, with "never settled" counted as the full
    /// measured stream — the pessimistic bound used for aggregation.
    pub fn conv_or_all(&self) -> u64 {
        self.converged_after.map_or(self.measured, |i| i as u64)
    }
}

/// One warm-vs-cold probe: the same key driven with identical inputs
/// through a warm-starting table and a cold-starting one.
#[derive(Debug, Clone)]
pub struct ProbePair {
    /// The probed size class (midpoint between two seed classes).
    pub class: u32,
    /// The key's table in the warm-starting run.
    pub warm: KeyTable,
    /// The key's table in the cold-starting run.
    pub cold: KeyTable,
}

/// LRU churn accounting and overhead for the bounded table.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Distinct keys cycled through the table.
    pub keys: usize,
    /// The bounded table's capacity (below `keys`: every pass evicts).
    pub capacity: usize,
    /// Dispatches driven through the bounded table.
    pub dispatches: u64,
    /// Total admissions (first admissions + reinstatements).
    pub admissions: u64,
    /// Evictions (tuner parked, slot recycled).
    pub evictions: u64,
    /// Re-admissions of a previously parked key.
    pub reinstatements: u64,
    /// Mean wall-clock nanoseconds per dispatch+report on the bounded
    /// table — includes the park/rebind work of the eviction path.
    pub churn_ns_per_dispatch: f64,
    /// Same loop on a full-capacity table (no evictions): the baseline.
    pub resident_ns_per_dispatch: f64,
}

/// Results of the full study.
#[derive(Debug, Clone)]
pub struct ContextsStudy {
    /// The configuration the study ran under.
    pub config: ContextsConfig,
    /// Winner-flip tables: for each configured class, the random-input
    /// key then the nearly-sorted key, in class order.
    pub flip_tables: Vec<KeyTable>,
    /// Classes whose nearly-sorted winner differs from their random one.
    pub flipped_classes: Vec<u32>,
    /// Warm-vs-cold probe pairs, in probe-class order.
    pub probes: Vec<ProbePair>,
    /// LRU churn accounting.
    pub churn: ChurnReport,
    /// The host's measured timer tick.
    pub measured_floor_ms: f64,
    /// The full telemetry trace, already serialized to JSONL.
    pub trace_jsonl: String,
}

impl ContextsStudy {
    /// Sum of iterations-to-convergence across warm-started probes.
    pub fn warm_iterations(&self) -> u64 {
        self.probes.iter().map(|p| p.warm.conv_or_all()).sum()
    }

    /// Sum of iterations-to-convergence across cold-started probes.
    pub fn cold_iterations(&self) -> u64 {
        self.probes.iter().map(|p| p.cold.conv_or_all()).sum()
    }

    /// The warm-start headline: warm-started probes reached the
    /// converged regime in no more iterations than cold-started ones.
    pub fn warm_not_worse(&self) -> bool {
        self.warm_iterations() <= self.cold_iterations()
    }
}

/// A fresh request for `key`: size drawn uniformly from the class range,
/// data shaped to land exactly on the key's presort class.
fn input_for(key: SortKey, rng: &mut Rng) -> Vec<u64> {
    let hi = 1usize << key.class;
    let lo = (hi / 2) + 1;
    let n = lo + rng.next_below((hi - lo + 1) as u64) as usize;
    if key.presort == PRESORT_NEARLY_SORTED {
        nearly_sorted_input(n, rng)
    } else {
        (0..n).map(|_| rng.next_u64()).collect()
    }
}

/// Drive interleaved rounds over `keys` on every table in `tables` until
/// each key's site in each table has closed `samples` samples, giving
/// every table still short of its budget a clone of the *same* input, so
/// the runs are directly comparable: each table sees a prefix of one
/// input stream per key.
fn drive(tables: &[&SortSites], keys: &[SortKey], samples: usize, rng: &mut Rng) {
    let mut open = vec![vec![samples > 0; keys.len()]; tables.len()];
    while open.iter().flatten().any(|&o| o) {
        for (k, &key) in keys.iter().enumerate() {
            if open.iter().all(|t| !t[k]) {
                continue;
            }
            let data = input_for(key, rng);
            for (t, table) in tables.iter().enumerate() {
                if !open[t][k] {
                    continue;
                }
                let mut copy = data.clone();
                let (got, _ms) = smallsort::sort_request_keyed(table, &mut copy);
                debug_assert_eq!(got, key, "input shaped for the wrong key");
                open[t][k] = closed_samples(table, key) < samples;
            }
        }
    }
}

/// Measured runtimes and algorithm picks of one context, in trace order.
fn context_measurements(events: &[Event], context: u32) -> Vec<(usize, f64)> {
    events
        .iter()
        .filter(|e| e.context == context)
        .filter_map(|e| match e.kind {
            EventKind::MeasureOutcome {
                algorithm,
                status: MeasureStatus::Ok,
                runtime_ms,
            } => Some((algorithm as usize, runtime_ms)),
            _ => None,
        })
        .collect()
}

/// Build one key's table from its context-filtered trace measurements;
/// `requests` is the caller's count of inputs sent to the key.
pub(crate) fn table_for(key: SortKey, context: u32, requests: u64, events: &[Event]) -> KeyTable {
    let measurements = context_measurements(events, context);
    let mut selections = vec![0u64; ALGORITHM_NAMES.len()];
    for &(a, _) in &measurements {
        selections[a] += 1;
    }
    // The winner is what the converged tail actually runs, not the raw
    // majority (early exploration measures every algorithm).
    let tail = &measurements[measurements.len().saturating_sub(WINDOW)..];
    let winner = (0..ALGORITHM_NAMES.len())
        .max_by_key(|&a| tail.iter().filter(|&&(sel, _)| sel == a).count())
        .unwrap_or(0);
    let runtimes: Vec<f64> = measurements.iter().map(|&(_, ms)| ms).collect();
    KeyTable {
        class: key.class,
        presort: key.presort,
        context,
        requests,
        measured: measurements.len() as u64,
        selections,
        winner,
        final_median_ms: convergence::tail_median(&runtimes, WINDOW),
        early_median_ms: stats::median(&runtimes[..runtimes.len().min(WINDOW)]),
        converged_after: convergence::settled_after(&runtimes),
    }
}

/// Time a round-robin dispatch+report cycle over `keys` — synthetic
/// outcomes, so the loop prices the context layer, not the sort.
fn time_dispatches(sites: &SortSites, keys: &[SortKey], rounds: usize) -> (u64, f64) {
    let start = std::time::Instant::now();
    let mut dispatches = 0u64;
    for _ in 0..rounds {
        for &key in keys {
            let guard = sites.table().dispatch(&key);
            guard.post_outcome(MeasureOutcome::from_value(1.0));
            dispatches += 1;
        }
    }
    (
        dispatches,
        start.elapsed().as_nanos() as f64 / dispatches as f64,
    )
}

/// Run the full study: drive the three parts with telemetry on, export
/// the trace, and rebuild every per-key table from the serialized JSONL
/// by context id (round-tripping through [`export::parse_jsonl`] so the
/// tables certify the extended schema).
pub fn run_study(cfg: &ContextsConfig) -> ContextsStudy {
    telemetry::enable();
    telemetry::drain(); // start from a clean ring
    let nominal = NominalKind::EpsilonGreedy(0.10);

    // Part 1: winner flip — random and nearly-sorted keys per class,
    // one full-coverage table.
    let flip = SortSites::register(&format!("study/ctx/flip/{}", cfg.seed), nominal, cfg.seed);
    let flip_keys: Vec<SortKey> = cfg
        .classes
        .iter()
        .flat_map(|&c| {
            [
                SortKey::new(c, PRESORT_RANDOM),
                SortKey::new(c, PRESORT_NEARLY_SORTED),
            ]
        })
        .collect();
    let mut rng = Rng::new(cfg.seed ^ 0xC0_87E7);
    drive(&[&flip], &flip_keys, cfg.requests_per_key, &mut rng);

    // Part 2: warm vs cold — pre-train seed classes identically on both
    // tables, then probe the midpoint classes with identical streams.
    let warm = SortSites::register(&format!("study/ctx/warm/{}", cfg.seed), nominal, cfg.seed);
    let cold = SortSites::register(&format!("study/ctx/cold/{}", cfg.seed), nominal, cfg.seed)
        .without_warm_start();
    let seed_keys: Vec<SortKey> = cfg
        .classes
        .iter()
        .map(|&c| SortKey::new(c, PRESORT_RANDOM))
        .collect();
    let probe_keys: Vec<SortKey> = cfg
        .probe_classes()
        .iter()
        .map(|&c| SortKey::new(c, PRESORT_RANDOM))
        .collect();
    let mut rng = Rng::new(cfg.seed ^ 0x3EED);
    drive(&[&warm, &cold], &seed_keys, cfg.requests_per_key, &mut rng);
    drive(&[&warm, &cold], &probe_keys, cfg.requests_per_key, &mut rng);

    // Part 3: LRU churn — the flip key set through a table too small to
    // hold it, against a full-capacity baseline on the same cycle.
    assert!(
        cfg.churn_capacity < flip_keys.len(),
        "churn capacity must undershoot the key count to force evictions"
    );
    let bounded = SortSites::register_bounded(
        &format!("study/ctx/churn/{}", cfg.seed),
        cfg.churn_capacity,
        nominal,
        cfg.seed,
    );
    let resident = SortSites::register(
        &format!("study/ctx/resident/{}", cfg.seed),
        nominal,
        cfg.seed,
    );
    let (dispatches, churn_ns) = time_dispatches(&bounded, &flip_keys, cfg.churn_rounds);
    let (_, resident_ns) = time_dispatches(&resident, &flip_keys, cfg.churn_rounds);
    let churn_stats = bounded.table().stats();
    let churn = ChurnReport {
        keys: flip_keys.len(),
        capacity: cfg.churn_capacity,
        dispatches,
        admissions: churn_stats.admissions,
        evictions: churn_stats.evictions,
        reinstatements: churn_stats.reinstatements,
        churn_ns_per_dispatch: churn_ns,
        resident_ns_per_dispatch: resident_ns,
    };

    // Rebuild all per-key tables from the trace, filtered by context id.
    let trace_jsonl = export::to_jsonl(&telemetry::drain());
    let events = export::parse_jsonl(&trace_jsonl).expect("own trace must round-trip");
    let ctx = |table: &SortSites, key: &SortKey| {
        table
            .table()
            .context_id(key)
            .expect("driven key must have a context id")
    };
    let requests =
        |table: &SortSites, key: &SortKey| table.table().key_stats(key).map_or(0, |s| s.calls);
    let flip_tables: Vec<KeyTable> = flip_keys
        .iter()
        .map(|&k| table_for(k, ctx(&flip, &k), requests(&flip, &k), &events))
        .collect();
    let flipped_classes = cfg
        .classes
        .iter()
        .copied()
        .filter(|&c| {
            let winner_of = |p: u32| {
                flip_tables
                    .iter()
                    .find(|t| t.class == c && t.presort == p)
                    .map(|t| t.winner)
            };
            winner_of(PRESORT_RANDOM) != winner_of(PRESORT_NEARLY_SORTED)
        })
        .collect();
    let probes: Vec<ProbePair> = probe_keys
        .iter()
        .map(|&k| ProbePair {
            class: k.class,
            warm: table_for(k, ctx(&warm, &k), requests(&warm, &k), &events),
            cold: table_for(k, ctx(&cold, &k), requests(&cold, &k), &events),
        })
        .collect();

    ContextsStudy {
        config: cfg.clone(),
        flip_tables,
        flipped_classes,
        probes,
        churn,
        measured_floor_ms: autotune::robust::timer_resolution_ms(),
        trace_jsonl,
    }
}

/// Human-readable three-part summary.
pub fn summary(study: &ContextsStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "contexts study: {} classes x {} requests/key, timer tick {:.0}ns\n\n",
        study.config.classes.len(),
        study.config.requests_per_key,
        study.measured_floor_ms * 1e6,
    ));
    out.push_str("winner flip (size class x presortedness):\n");
    out.push_str("class  presort        ctx  measured  winner     conv@   median[us]\n");
    for t in &study.flip_tables {
        let conv = t.converged_after.map_or("-".into(), |i| i.to_string());
        out.push_str(&format!(
            "{:>5}  {:<13}  {:>3}  {:>8}  {:<9}  {:>5}  {:>11.2}\n",
            t.class,
            PRESORT_NAMES[t.presort as usize],
            t.context,
            t.measured,
            ALGORITHM_NAMES[t.winner],
            conv,
            t.final_median_ms * 1e3,
        ));
    }
    out.push_str(&format!(
        "classes whose winner flips with presortedness: {:?}\n\n",
        study.flipped_classes
    ));
    out.push_str("warm vs cold start (probe classes between trained seeds):\n");
    out.push_str("class  start  conv@  early[us]  final[us]\n");
    for p in &study.probes {
        for (label, t) in [("warm", &p.warm), ("cold", &p.cold)] {
            out.push_str(&format!(
                "{:>5}  {:<5}  {:>5}  {:>9.2}  {:>9.2}\n",
                p.class,
                label,
                t.conv_or_all(),
                t.early_median_ms * 1e3,
                t.final_median_ms * 1e3,
            ));
        }
    }
    out.push_str(&format!(
        "iterations to within 5%: warm {} vs cold {} ({})\n\n",
        study.warm_iterations(),
        study.cold_iterations(),
        if study.warm_not_worse() {
            "warm <= cold"
        } else {
            "warm WORSE than cold"
        },
    ));
    let c = &study.churn;
    out.push_str(&format!(
        "LRU churn: {} keys through {} slots, {} dispatches\n\
         admissions {} = evictions {} + resident {}; reinstatements {}\n\
         dispatch overhead: churning {:.0}ns vs resident {:.0}ns per call\n",
        c.keys,
        c.capacity,
        c.dispatches,
        c.admissions,
        c.evictions,
        c.capacity,
        c.reinstatements,
        c.churn_ns_per_dispatch,
        c.resident_ns_per_dispatch,
    ));
    out
}

fn key_table_json(t: &KeyTable) -> Json {
    Json::obj(vec![
        ("class", Json::Num(t.class as f64)),
        (
            "presort",
            Json::Str(PRESORT_NAMES[t.presort as usize].into()),
        ),
        ("context", Json::Num(t.context as f64)),
        ("requests", Json::Num(t.requests as f64)),
        ("measured", Json::Num(t.measured as f64)),
        (
            "selections",
            Json::Arr(t.selections.iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
        ("winner", Json::Str(ALGORITHM_NAMES[t.winner].into())),
        ("final_median_ms", Json::Num(t.final_median_ms)),
        ("early_median_ms", Json::Num(t.early_median_ms)),
        (
            "converged_after",
            t.converged_after
                .map_or(Json::Null, |i| Json::Num(i as f64)),
        ),
    ])
}

/// Write `contexts.json` and `contexts_trace.jsonl` into `out`.
pub fn save(study: &ContextsStudy, out: &std::path::Path) -> std::io::Result<()> {
    let c = &study.churn;
    let doc = Json::obj(vec![
        ("id", Json::Str("contexts".into())),
        (
            "requests_per_key",
            Json::Num(study.config.requests_per_key as f64),
        ),
        ("seed", Json::Num(study.config.seed as f64)),
        ("measured_floor_ms", Json::Num(study.measured_floor_ms)),
        (
            "flip",
            Json::obj(vec![
                (
                    "tables",
                    Json::Arr(study.flip_tables.iter().map(key_table_json).collect()),
                ),
                (
                    "flipped_classes",
                    Json::Arr(
                        study
                            .flipped_classes
                            .iter()
                            .map(|&c| Json::Num(c as f64))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "warm_cold",
            Json::obj(vec![
                (
                    "probes",
                    Json::Arr(
                        study
                            .probes
                            .iter()
                            .map(|p| {
                                Json::obj(vec![
                                    ("class", Json::Num(p.class as f64)),
                                    ("warm", key_table_json(&p.warm)),
                                    ("cold", key_table_json(&p.cold)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("warm_iterations", Json::Num(study.warm_iterations() as f64)),
                ("cold_iterations", Json::Num(study.cold_iterations() as f64)),
                ("warm_not_worse", Json::Bool(study.warm_not_worse())),
            ]),
        ),
        (
            "churn",
            Json::obj(vec![
                ("keys", Json::Num(c.keys as f64)),
                ("capacity", Json::Num(c.capacity as f64)),
                ("dispatches", Json::Num(c.dispatches as f64)),
                ("admissions", Json::Num(c.admissions as f64)),
                ("evictions", Json::Num(c.evictions as f64)),
                ("reinstatements", Json::Num(c.reinstatements as f64)),
                ("churn_ns_per_dispatch", Json::Num(c.churn_ns_per_dispatch)),
                (
                    "resident_ns_per_dispatch",
                    Json::Num(c.resident_ns_per_dispatch),
                ),
            ]),
        ),
    ]);
    std::fs::write(out.join("contexts.json"), doc.to_string_pretty() + "\n")?;
    std::fs::write(out.join("contexts_trace.jsonl"), &study.trace_jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune::telemetry::NO_CONTEXT;

    fn tiny() -> ContextsConfig {
        ContextsConfig {
            classes: vec![8, 10],
            requests_per_key: 60,
            seed: 88001,
            churn_capacity: 3,
            churn_rounds: 8,
        }
    }

    #[test]
    fn tables_are_rebuilt_from_context_tagged_trace_lines() {
        let _g = crate::ring_lock();
        let study = run_study(&tiny());
        // Two classes x two presort shapes.
        assert_eq!(study.flip_tables.len(), 4);
        let mut contexts = std::collections::HashSet::new();
        for t in &study.flip_tables {
            assert_eq!(
                t.measured, 60,
                "key c{}/{}: one sample per budget unit",
                t.class, t.presort
            );
            assert!(t.measured <= t.requests);
            assert_eq!(t.selections.iter().sum::<u64>(), t.measured);
            assert!(t.final_median_ms.is_finite() && t.final_median_ms > 0.0);
            assert_ne!(t.context, NO_CONTEXT);
            assert!(contexts.insert(t.context), "context ids must be distinct");
        }
        // The serialized trace itself carries the context ids the tables
        // were filtered by.
        let ctx = study.flip_tables[0].context;
        assert!(
            study.trace_jsonl.contains(&format!("\"context\":{ctx}")),
            "trace must carry the context field"
        );
        // One probe class (midpoint of 8 and 10), measured in both runs.
        assert_eq!(study.config.probe_classes(), vec![9]);
        assert_eq!(study.probes.len(), 1);
        let p = &study.probes[0];
        assert_eq!(p.class, 9);
        assert!(p.warm.measured > 0 && p.cold.measured > 0);
        assert_ne!(p.warm.context, p.cold.context);
    }

    #[test]
    fn churn_accounting_is_exact() {
        let _g = crate::ring_lock();
        let study = run_study(&tiny());
        let c = &study.churn;
        assert_eq!(c.keys, 4);
        assert_eq!(c.dispatches, (4 * 8) as u64);
        // Round-robin over 4 keys through 3 slots with LRU replacement is
        // the adversarial pattern: every dispatch after the warm-up pass
        // misses, so every admission past the first four reinstates.
        assert_eq!(c.admissions, c.evictions + c.capacity as u64);
        assert_eq!(c.reinstatements, c.admissions - c.keys as u64);
        assert!(c.reinstatements > 0, "churn run must actually churn");
        assert!(c.churn_ns_per_dispatch > 0.0 && c.resident_ns_per_dispatch > 0.0);
    }

    #[test]
    fn save_writes_tables_and_trace() {
        let _g = crate::ring_lock();
        let dir = std::env::temp_dir().join("contexts_study_test");
        std::fs::create_dir_all(&dir).unwrap();
        let study = run_study(&ContextsConfig {
            seed: 88003,
            requests_per_key: 40,
            ..tiny()
        });
        save(&study, &dir).unwrap();
        let doc =
            Json::parse(&std::fs::read_to_string(dir.join("contexts.json")).unwrap()).unwrap();
        let flip = doc.get("flip").unwrap();
        assert_eq!(flip.get("tables").and_then(Json::as_arr).unwrap().len(), 4);
        let wc = doc.get("warm_cold").unwrap();
        assert!(wc.get("warm_iterations").and_then(Json::as_f64).is_some());
        assert!(wc.get("warm_not_worse").is_some());
        assert!(doc.get("churn").unwrap().get("evictions").is_some());
        let trace = std::fs::read_to_string(dir.join("contexts_trace.jsonl")).unwrap();
        let events = export::parse_jsonl(&trace).expect("trace parses");
        assert!(events.iter().any(|e| e.context != NO_CONTEXT));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
