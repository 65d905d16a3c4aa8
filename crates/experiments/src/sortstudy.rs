//! The `smallsort` study: input size as a first-class context dimension.
//!
//! A single sort site would learn one compromise algorithm for every
//! request size. The [`smallsort`] workload instead buckets requests
//! into power-of-two size classes, binds each class to its own tuning
//! site ([`smallsort::SortSites`]), and lets the tuner learn a
//! *per-size-class* winner — insertion sort for the near-register
//! classes, a cache-friendly recursive sort in the middle, LSD radix
//! once the array amortizes its counting passes.
//!
//! The study drives an interleaved request stream across the classes
//! with telemetry recording on, then rebuilds everything reported here
//! **from the exported JSONL trace** (serialize → parse → aggregate, so
//! the numbers exercise the wire schema, not private state): one
//! convergence table per class — measured tuning iterations, per-
//! algorithm selection counts, the converged winner, the final runtime
//! regime, and the iterations until the runtimes settle onto it
//! ([`crate::convergence::settled_after`]). The tables come from the
//! `contexts` study's reducer ([`KeyTable`]), read for each class's
//! random-presort key. Artifacts: `results/smallsort.json` plus the raw
//! trace in `results/smallsort_trace.jsonl`.
//!
//! Because every request in the lower classes finishes far under the
//! timer tick, a class site scores each proposal over several
//! consecutive requests ([`autotune::site::SiteGuard::post`]), so the
//! study budgets each class in closed samples, not requests: every class
//! is driven until its site has closed `requests_per_class` samples, and
//! `requests` reports how many sorts that took. The `measured_floor_ms`
//! field records the host's measured tick so consumers can judge how
//! many quanta the reported medians actually span.

use crate::contexts::{table_for, KeyTable};
use autotune::json::Json;
use autotune::rng::Rng;
use autotune::telemetry::{self, export};
use autotune::two_phase::NominalKind;
use smallsort::{SortKey, SortSites, ALGORITHM_NAMES, PRESORT_RANDOM};

/// Scale knobs. Defaults are the *quick* profile.
#[derive(Debug, Clone)]
pub struct SortStudyConfig {
    /// Size classes to drive (log2 of the class cap); defaults to the
    /// whole [`smallsort`] class range.
    pub classes: Vec<u32>,
    /// Closed tuning samples per class: each class gets requests
    /// (interleaved round-robin across classes, like a real mixed request
    /// stream) until its site has closed this many samples.
    pub requests_per_class: usize,
    /// Seed for request sizes, keys, and the per-class tuners.
    pub seed: u64,
}

impl Default for SortStudyConfig {
    fn default() -> Self {
        SortStudyConfig {
            classes: SortSites::classes().collect(),
            requests_per_class: 300,
            seed: 20170609,
        }
    }
}

impl SortStudyConfig {
    /// The full-scale profile: a longer stream per class.
    pub fn paper() -> Self {
        SortStudyConfig {
            requests_per_class: 2000,
            ..Default::default()
        }
    }
}

/// Results of the full study.
#[derive(Debug, Clone)]
pub struct SortStudy {
    pub config: SortStudyConfig,
    /// One table per driven class, in class order: the class's
    /// random-presort key, whose `requests` counts every input generated
    /// for the class (a random input can land on another presort key).
    pub tables: Vec<KeyTable>,
    /// Each table's class-site telemetry tag — the `site` field its trace
    /// lines carry in `smallsort_trace.jsonl`.
    pub(crate) tags: Vec<u16>,
    /// The host's measured timer tick ([`autotune::robust::timer_resolution_ms`]).
    pub measured_floor_ms: f64,
    /// The full telemetry trace, already serialized to JSONL.
    pub trace_jsonl: String,
}

impl SortStudy {
    /// Number of distinct winners across the per-class tables — the
    /// study's headline: `> 1` means one global choice would lose to the
    /// context-split sites somewhere.
    pub fn distinct_winners(&self) -> usize {
        let mut seen = [false; ALGORITHM_NAMES.len()];
        for t in &self.tables {
            seen[t.winner] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }
}

/// Samples `key`'s site has closed — the unit study budgets count in. A
/// sub-tick sort scores its proposal over several requests, so requests
/// would overcount them.
pub(crate) fn closed_samples(sites: &SortSites, key: SortKey) -> usize {
    sites
        .table()
        .with_tuner_for(&key, |t| t.as_two_phase().map_or(0, |tp| tp.iteration()))
}

/// Drive the interleaved request stream until every class has closed
/// `requests_per_class` samples, and leave the trace in the telemetry
/// ring. Returns the per-class request counts.
fn drive(cfg: &SortStudyConfig, sites: &SortSites) -> Vec<(u32, u64)> {
    let mut rng = Rng::new(cfg.seed ^ 0x50B7);
    let mut counts: Vec<(u32, u64)> = cfg.classes.iter().map(|&c| (c, 0)).collect();
    let mut open = vec![cfg.requests_per_class > 0; cfg.classes.len()];
    while open.contains(&true) {
        for (slot, &class) in cfg.classes.iter().enumerate() {
            if !open[slot] {
                continue;
            }
            // A size drawn uniformly from the class's range, so the site
            // tunes over the class, not one fixed length.
            let hi = 1usize << class;
            let lo = (hi / 2) + 1;
            let n = lo + rng.next_below((hi - lo + 1) as u64) as usize;
            let mut data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let (got, _ms) = smallsort::sort_request(sites, &mut data);
            debug_assert_eq!(got, class);
            counts[slot].1 += 1;
            open[slot] =
                closed_samples(sites, SortKey::new(class, PRESORT_RANDOM)) < cfg.requests_per_class;
        }
    }
    counts
}

/// Run the full study: drive the stream, export the trace, and rebuild
/// the per-class tables from the serialized JSONL (round-tripping
/// through [`export::parse_jsonl`] so the tables certify the schema).
pub fn run_study(cfg: &SortStudyConfig) -> SortStudy {
    telemetry::enable();
    telemetry::drain(); // start from a clean ring
    let sites = SortSites::register(
        &format!("study/smallsort/{}", cfg.seed),
        NominalKind::EpsilonGreedy(0.10),
        cfg.seed,
    );
    let counts = drive(cfg, &sites);
    let trace_jsonl = export::to_jsonl(&telemetry::drain());
    let events = export::parse_jsonl(&trace_jsonl).expect("own trace must round-trip");
    let tables = counts
        .iter()
        .map(|&(class, requests)| {
            let key = SortKey::new(class, PRESORT_RANDOM);
            let context = sites
                .table()
                .context_id(&key)
                .expect("driven class must have a context id");
            table_for(key, context, requests, &events)
        })
        .collect();
    let tags = counts
        .iter()
        .map(|&(class, _)| sites.class_site(class).id().tag())
        .collect();
    SortStudy {
        config: cfg.clone(),
        tables,
        tags,
        measured_floor_ms: autotune::robust::timer_resolution_ms(),
        trace_jsonl,
    }
}

/// Human-readable per-class convergence table.
pub fn summary(study: &SortStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "smallsort study: {} classes x {} requests, timer tick {:.0}ns\n",
        study.tables.len(),
        study.config.requests_per_class,
        study.measured_floor_ms * 1e6,
    ));
    out.push_str("class  n-range        requests  measured  winner     conv@   median[us]\n");
    for t in &study.tables {
        let hi = 1u64 << t.class;
        let conv = t.converged_after.map_or("-".into(), |i| i.to_string());
        out.push_str(&format!(
            "{:>5}  {:>6}-{:<6}  {:>8}  {:>8}  {:<9}  {:>5}  {:>11.2}\n",
            t.class,
            hi / 2 + 1,
            hi,
            t.requests,
            t.measured,
            ALGORITHM_NAMES[t.winner],
            conv,
            t.final_median_ms * 1e3,
        ));
    }
    out.push_str(&format!(
        "distinct per-class winners: {}\n",
        study.distinct_winners()
    ));
    out
}

/// Write `smallsort.json` and `smallsort_trace.jsonl` into `out`.
pub fn save(study: &SortStudy, out: &std::path::Path) -> std::io::Result<()> {
    let tables: Vec<Json> = study
        .tables
        .iter()
        .zip(&study.tags)
        .map(|(t, &tag)| {
            Json::obj(vec![
                ("class", Json::Num(t.class as f64)),
                ("tag", Json::Num(tag as f64)),
                ("n_max", Json::Num((1u64 << t.class) as f64)),
                ("requests", Json::Num(t.requests as f64)),
                ("measured", Json::Num(t.measured as f64)),
                (
                    "selections",
                    Json::Arr(t.selections.iter().map(|&c| Json::Num(c as f64)).collect()),
                ),
                ("winner", Json::Str(ALGORITHM_NAMES[t.winner].into())),
                ("final_median_ms", Json::Num(t.final_median_ms)),
                (
                    "converged_after",
                    t.converged_after
                        .map_or(Json::Null, |i| Json::Num(i as f64)),
                ),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("id", Json::Str("smallsort".into())),
        (
            "requests_per_class",
            Json::Num(study.config.requests_per_class as f64),
        ),
        ("seed", Json::Num(study.config.seed as f64)),
        ("measured_floor_ms", Json::Num(study.measured_floor_ms)),
        (
            "algorithms",
            Json::Arr(
                ALGORITHM_NAMES
                    .iter()
                    .map(|&n| Json::Str(n.into()))
                    .collect(),
            ),
        ),
        ("classes", Json::Arr(tables)),
        (
            "distinct_winners",
            Json::Num(study.distinct_winners() as f64),
        ),
    ]);
    std::fs::write(out.join("smallsort.json"), doc.to_string_pretty() + "\n")?;
    std::fs::write(out.join("smallsort_trace.jsonl"), &study.trace_jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune::telemetry::{Event, EventKind, MeasureStatus};

    fn tiny() -> SortStudyConfig {
        SortStudyConfig {
            classes: vec![4, 10],
            requests_per_class: 60,
            seed: 77001,
        }
    }

    #[test]
    fn study_tables_come_from_the_trace() {
        let _g = crate::ring_lock();
        let study = run_study(&tiny());
        assert_eq!(study.tables.len(), 2);
        for t in &study.tables {
            assert_eq!(
                t.measured, 60,
                "class {}: one sample per budget unit",
                t.class
            );
            assert!(
                t.measured <= t.requests,
                "class {}: more measurements than requests",
                t.class
            );
            assert_eq!(t.selections.iter().sum::<u64>(), t.measured);
            assert!(t.final_median_ms.is_finite() && t.final_median_ms > 0.0);
        }
        assert!(study.measured_floor_ms > 0.0);
        // The trace itself must hold the events the tables were built from.
        let events = export::parse_jsonl(&study.trace_jsonl).unwrap();
        assert!(!events.is_empty());
    }

    #[test]
    fn interleaved_classes_stay_isolated() {
        let _g = crate::ring_lock();
        // Each class's table counts exactly its own key's events: the
        // shared reducer filters on the context id, and because a
        // full-coverage table gives every key its own site, recounting
        // the trace by the class site's tag finds the same events.
        let study = run_study(&SortStudyConfig {
            seed: 77003,
            ..tiny()
        });
        assert_ne!(study.tables[0].context, study.tables[1].context);
        assert_ne!(study.tags[0], study.tags[1]);
        let events = export::parse_jsonl(&study.trace_jsonl).unwrap();
        for (t, &tag) in study.tables.iter().zip(&study.tags) {
            let oks = |keep: &dyn Fn(&Event) -> bool| {
                events
                    .iter()
                    .filter(|e| keep(e))
                    .filter(|e| {
                        matches!(
                            e.kind,
                            EventKind::MeasureOutcome {
                                status: MeasureStatus::Ok,
                                ..
                            }
                        )
                    })
                    .count() as u64
            };
            let by_context = oks(&|e| e.context == t.context);
            let by_tag = oks(&|e| e.site == tag);
            let by_both = oks(&|e| e.site == tag && e.context == t.context);
            assert_eq!(
                (by_context, by_tag, by_both),
                (t.measured, t.measured, t.measured),
                "class {}: table, context filter and tag filter must agree",
                t.class
            );
        }
    }

    #[test]
    fn save_writes_table_and_trace() {
        let _g = crate::ring_lock();
        let dir = std::env::temp_dir().join("smallsort_study_test");
        std::fs::create_dir_all(&dir).unwrap();
        let study = run_study(&SortStudyConfig {
            seed: 77005,
            requests_per_class: 40,
            ..tiny()
        });
        save(&study, &dir).unwrap();
        let doc =
            Json::parse(&std::fs::read_to_string(dir.join("smallsort.json")).unwrap()).unwrap();
        assert_eq!(doc.get("classes").and_then(Json::as_arr).unwrap().len(), 2);
        let trace = std::fs::read_to_string(dir.join("smallsort_trace.jsonl")).unwrap();
        assert!(export::parse_jsonl(&trace).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
