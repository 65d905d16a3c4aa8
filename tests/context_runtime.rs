//! The context layer under the multi-site runtime:
//!
//! 1. **Park / re-admit bit-identity** — a table whose capacity covers
//!    the whole key space and a table churning through 2 slots, driven
//!    with identical deterministic call streams, must end with
//!    *identical* per-key tuner state: eviction parks a tuner and
//!    re-admission reinstates it verbatim, so LRU churn affects *where*
//!    a key's tuner lives, never *what* it has learned. One more input: a
//!    key evicted while a sub-target call has left its proposal open is
//!    parked with that proposal abandoned, reinstated bit-identically,
//!    and its next claim asks the tuner again without panicking.
//! 2. **Exact per-key call accounting under 8-thread churn stress** —
//!    16 keys through 4 slots from 8 threads: every dispatch counted
//!    exactly once against exactly its key, admission arithmetic
//!    consistent (admissions = cold + warm + reinstated, evictions =
//!    admissions − resident).
//! 3. **Warm-start seeding** — a newly admitted key's first phase-1
//!    proposal is its neighbor's incumbent configuration, not the cold
//!    start point.

use autotune::context::{ContextKey, ContextSites};
use autotune::param::Parameter;
use autotune::robust::MeasureOutcome;
use autotune::site::SiteSpec;
use autotune::space::SearchSpace;
use autotune::two_phase::{AlgorithmSpec, NominalKind};
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key(i64);

impl ContextKey for Key {
    fn features(&self) -> Vec<i64> {
        vec![self.0]
    }
    fn label(&self) -> String {
        format!("k{}", self.0)
    }
}

/// A two-algorithm blueprint with a tunable interval each, seeded per
/// key — the same spec family for every table in this file.
fn spec_for(prefix: &str) -> impl Fn(&Key) -> SiteSpec + Send + Sync + 'static {
    let prefix = prefix.to_string();
    move |k: &Key| {
        SiteSpec::algorithms(
            format!("{prefix}/{}", k.label()),
            vec![
                AlgorithmSpec::new("a", SearchSpace::new(vec![Parameter::interval("x", 1, 64)])),
                AlgorithmSpec::new("b", SearchSpace::new(vec![Parameter::interval("y", 1, 64)])),
            ],
            NominalKind::EpsilonGreedy(0.10),
            0xAB5E ^ k.0 as u64,
        )
    }
}

/// Deterministic synthetic cost: a pure function of key, algorithm and
/// configuration, so identical tuner states receive identical
/// measurements and stay identical by induction.
fn cost(key: Key, algorithm: usize, x: i64) -> f64 {
    let target = 10 + (key.0 * 11) % 40;
    let base = if algorithm == 0 { 1.0 } else { 1.5 };
    base + (x - target).abs() as f64 / 8.0
}

/// One deterministic tuned call for `key` on `table`.
fn call(table: &ContextSites<Key>, key: Key) {
    let guard = table.dispatch(&key);
    let x = guard.config().get(0).as_i64();
    let v = cost(key, guard.algorithm(), x);
    guard.post_outcome(MeasureOutcome::from_value(v));
}

/// Everything a tuner has learned, as a comparable value. `Debug` output
/// covers selection histories, incumbents and the published exploit
/// decision — if any bit of learned state diverges, so does the string.
fn fingerprint(table: &ContextSites<Key>, key: Key) -> String {
    table.with_tuner_for(&key, |t| {
        let tp = t.as_two_phase().expect("two-phase spec");
        format!(
            "{:?} | {:?} | {:?} | {:?}",
            tp.exploit_choice(),
            t.incumbents(),
            tp.selection_counts(),
            tp.histories(),
        )
    })
}

#[test]
fn lru_eviction_and_readmission_round_trip_tuner_state_bit_identically() {
    const KEYS: i64 = 4;
    const ROUNDS: usize = 60;
    // Warm-starting off: admissions must be cold in both tables so the
    // only difference between them is the churn itself.
    let roomy = ContextSites::register("ctxrt/roomy", KEYS as usize, spec_for("ctxrt/roomy"))
        .with_warm_start(false);
    let tight =
        ContextSites::register("ctxrt/tight", 2, spec_for("ctxrt/tight")).with_warm_start(false);

    // Round-robin over 4 keys through 2 slots: every dispatch in the
    // tight table is a re-admission after an eviction.
    for round in 0..ROUNDS {
        for k in 0..KEYS {
            let key = Key(k);
            // A couple of calls per admission so learned state moves.
            for _ in 0..1 + (round + k as usize) % 3 {
                call(&roomy, key);
                call(&tight, key);
            }
        }
    }

    let tight_stats = tight.stats();
    assert!(tight_stats.evictions >= (KEYS as u64 - 2) * (ROUNDS as u64 - 1));
    assert_eq!(
        tight_stats.reinstatements,
        tight_stats.admissions - KEYS as u64
    );
    assert_eq!(roomy.stats().evictions, 0);

    for k in 0..KEYS {
        let key = Key(k);
        assert_eq!(
            fingerprint(&roomy, key),
            fingerprint(&tight, key),
            "churned tuner state for {key:?} diverged from the resident one"
        );
        assert_eq!(
            roomy.key_stats(&key).unwrap().calls,
            tight.key_stats(&key).unwrap().calls
        );
    }

    // A call posting less than the sample target leaves its proposal
    // open; three other keys through two slots then evict the key.
    for k in 0..KEYS {
        let key = Key(k);
        tight.dispatch(&key).post();
        let open = fingerprint(&tight, key);
        for other in (0..KEYS).filter(|&o| o != k) {
            call(&tight, Key(other));
        }
        let reinstated = tight.stats().reinstatements;
        assert_eq!(
            fingerprint(&tight, key),
            open,
            "{key:?}: parked with an open proposal, reinstated differently"
        );
        assert_eq!(tight.stats().reinstatements, reinstated + 1);
        call(&tight, key);
    }
}

#[test]
fn stress_exact_per_key_accounting_under_churn_across_eight_threads() {
    const THREADS: usize = 8;
    const ITERS: usize = 200;
    const KEYS: i64 = 16;
    const CAPACITY: usize = 4;

    let table = ContextSites::register("ctxrt/stress", CAPACITY, spec_for("ctxrt/stress"));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let table = &table;
            scope.spawn(move || {
                for i in 0..ITERS {
                    // Per-thread phase shift and stride so threads both
                    // collide on hot keys and force steady eviction churn.
                    let key = Key(((i * 7 + t * 3) % KEYS as usize) as i64);
                    call(table, key);
                }
            });
        }
    });

    // Replay the schedule: per-key dispatch counts are deterministic.
    let mut per_key: HashMap<Key, u64> = HashMap::new();
    for t in 0..THREADS {
        for i in 0..ITERS {
            *per_key
                .entry(Key(((i * 7 + t * 3) % KEYS as usize) as i64))
                .or_insert(0) += 1;
        }
    }

    let mut total = 0;
    let mut admissions = 0;
    for k in 0..KEYS {
        let key = Key(k);
        let stats = table.key_stats(&key).expect("every key was dispatched");
        assert_eq!(
            stats.calls, per_key[&key],
            "key {key:?} must count exactly its own dispatches"
        );
        assert!(stats.admissions >= 1);
        assert!(
            stats.tuned_iterations > 0,
            "key {key:?}: at least one tuning iteration ran"
        );
        total += stats.calls;
        admissions += stats.admissions;
    }
    assert_eq!(
        total,
        (THREADS * ITERS) as u64,
        "no call lost or duplicated"
    );

    let st = table.stats();
    assert_eq!(
        st.admissions, admissions,
        "table and per-key admissions agree"
    );
    assert_eq!(
        st.admissions,
        st.cold_starts + st.warm_starts + st.reinstatements
    );
    assert_eq!(
        st.cold_starts + st.warm_starts,
        KEYS as u64,
        "16 first admissions"
    );
    // Every admission either grew the pool (fresh slot below capacity,
    // or an overflow slot while every binding had a call in flight) or
    // evicted exactly one binding. With 16 distinct keys the pool is
    // certainly full, so its size is exactly capacity + overflows; an
    // overflow needs every slot busy at once, and the admitting thread
    // holds no guard of its own, so the pool can never outgrow the
    // thread count.
    let resident = table.resident_len();
    assert_eq!(resident as u64, CAPACITY as u64 + st.overflows);
    assert!(
        resident <= THREADS.max(CAPACITY),
        "overflow growth is bounded by concurrency, got {resident} slots"
    );
    assert_eq!(
        st.evictions,
        st.admissions - resident as u64,
        "admissions split exactly into pool growth and evictions"
    );
    assert_eq!(table.parked_len(), (KEYS as usize) - resident);
}

#[test]
fn warm_started_key_first_proposal_is_the_neighbor_incumbent() {
    // Single-space spec so the first phase-1 proposal is directly
    // observable as the dispatched configuration.
    let make = |prefix: &str| {
        let prefix = prefix.to_string();
        move |k: &Key| {
            SiteSpec::space(
                format!("{prefix}/{}", k.label()),
                SearchSpace::new(vec![Parameter::interval("x", 1, 64)]),
                0x5EED ^ k.0 as u64,
            )
        }
    };
    let warm = ContextSites::register("ctxrt/warmseed", 4, make("ctxrt/warmseed"));
    let cold =
        ContextSites::register("ctxrt/coldseed", 4, make("ctxrt/coldseed")).with_warm_start(false);

    // Teach key 0 in both tables: minimum at x = 37.
    for table in [&warm, &cold] {
        for _ in 0..80 {
            let guard = table.dispatch(&Key(0));
            let x = guard.config().get(0).as_i64();
            guard.post_outcome(MeasureOutcome::from_value(1.0 + (x - 37).abs() as f64));
        }
    }
    let incumbent = warm.with_tuner_for(&Key(0), |t| t.incumbents()[0].clone().unwrap());

    // Admit key 1: the warm table seeds from key 0's posterior, the cold
    // table starts from scratch.
    let warm_first = {
        let g = warm.dispatch(&Key(1));
        let x = g.config().clone();
        g.post_outcome(MeasureOutcome::from_value(1.0));
        x
    };
    let cold_first = {
        let g = cold.dispatch(&Key(1));
        let x = g.config().clone();
        g.post_outcome(MeasureOutcome::from_value(1.0));
        x
    };
    assert_eq!(
        warm_first, incumbent.0,
        "warm-started key must start from the neighbor's incumbent"
    );
    assert_ne!(
        warm_first, cold_first,
        "warm and cold starts must actually differ for this space"
    );
    assert_eq!(warm.stats().warm_starts, 1);
    assert_eq!(cold.stats().warm_starts, 0);
}
