//! Integration tests for the concurrent multi-site runtime
//! (`autotune::site`):
//!
//! 1. **Single-thread equivalence** — a site driven from one thread is
//!    *bit-identical* to driving the underlying tuner directly with the
//!    same seeds: every claim CAS succeeds, so the site adds dispatch and
//!    publication but no behavioral difference. Both the two-phase and the
//!    single-space tuner flavors are checked sample-by-sample: the
//!    (algorithm, configuration, value) each guard was handed and posted
//!    against what the direct tuner's `report_outcome` / `tell_outcome`
//!    returned.
//! 2. **Multi-thread stress** — counters never lose updates, every
//!    completed call is either a tuned iteration or an exploit call, and
//!    the tuner's iteration count equals the tuned-iteration count exactly
//!    (the claim discipline keeps the ask/tell protocol serialized; each
//!    call spans the sample target, so each claim closes one sample).
//! 3. **Seqlock validity under fire** — concurrent exploit readers only
//!    ever observe configurations inside the search space while a writer
//!    publishes continuously.

use autotune::measure::duration_ms;
use autotune::param::Parameter;
use autotune::robust::{timer_resolution_ms, MeasureOutcome, BATCH_TARGET_QUANTA};
use autotune::site::{register, site, SiteSpec};
use autotune::space::{Configuration, SearchSpace};
use autotune::tuner::{OnlineTuner, Termination};
use autotune::two_phase::{AlgorithmSpec, NominalKind, Phase1Kind, TwoPhaseTuner};

fn specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::untunable("plain"),
        AlgorithmSpec::new(
            "tuned-a",
            SearchSpace::new(vec![
                Parameter::ratio("threads", 1, 8),
                Parameter::interval("cutoff", -20, 20),
            ]),
        ),
        AlgorithmSpec::new(
            "tuned-b",
            SearchSpace::new(vec![Parameter::interval("x", -30, 30)]),
        ),
    ]
}

/// Deterministic synthetic cost: depends on the algorithm and every
/// configuration value, so any divergence in either phase shows up.
fn cost(algorithm: usize, config: &Configuration) -> f64 {
    let base = [12.0, 9.0, 10.0][algorithm];
    let shape: f64 = config
        .values()
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_f64() - [3.0, -7.0][i.min(1)]).abs() * 0.25)
        .sum();
    base + shape
}

#[test]
fn single_thread_two_phase_equivalence() {
    const SEED: u64 = 0x5EED;
    const ITERS: usize = 250;

    let mut direct = TwoPhaseTuner::with_phase1(
        specs(),
        NominalKind::EpsilonGreedy(0.10),
        Phase1Kind::NelderMead,
        SEED,
    );
    let direct_trace: Vec<_> = (0..ITERS)
        .map(|_| {
            let (alg, config) = direct.next();
            let v = cost(alg, &config);
            let s = direct.report_outcome(MeasureOutcome::Ok(v));
            (s.algorithm, s.config, s.value.to_bits())
        })
        .collect();

    let s = site(register(SiteSpec::algorithms(
        "equiv-two-phase",
        specs(),
        NominalKind::EpsilonGreedy(0.10),
        SEED,
    )));
    let site_trace: Vec<_> = (0..ITERS)
        .map(|_| {
            let guard = s.pre();
            assert!(guard.is_tuning(), "single-threaded claims always win");
            let (alg, config) = (guard.algorithm(), guard.config().clone());
            let v = cost(alg, &config);
            guard.post_outcome(MeasureOutcome::Ok(v));
            (alg, config, v.to_bits())
        })
        .collect();

    assert_eq!(
        site_trace, direct_trace,
        "site dispatch must be bit-identical to the direct tuner"
    );
    s.with_tuner(|t| {
        let tp = t.as_two_phase().unwrap();
        assert_eq!(tp.iteration(), ITERS);
        assert_eq!(tp.selection_counts(), direct.selection_counts());
        assert_eq!(tp.exploit_choice(), direct.exploit_choice());
    });
}

#[test]
fn single_thread_single_space_equivalence() {
    const SEED: u64 = 77;
    const ITERS: usize = 150;
    let space = SearchSpace::new(vec![
        Parameter::ratio("a", 0, 40),
        Parameter::interval("b", -15, 15),
    ]);

    let searcher = Phase1Kind::NelderMead.build(&AlgorithmSpec::new("equiv", space.clone()), SEED);
    let mut direct = OnlineTuner::new(searcher, Termination::Never);
    let direct_trace: Vec<_> = (0..ITERS)
        .map(|_| {
            let config = direct.ask();
            let v = cost(1, &config);
            let s = direct.tell_outcome(MeasureOutcome::Ok(v));
            (0, s.config, s.value.to_bits())
        })
        .collect();

    let s = site(register(SiteSpec::space("equiv-space", space, SEED)));
    let site_trace: Vec<_> = (0..ITERS)
        .map(|_| {
            let guard = s.pre();
            assert!(guard.is_tuning(), "single-threaded claims always win");
            assert_eq!(guard.algorithm(), 0, "single-space sites have one arm");
            let config = guard.config().clone();
            let v = cost(1, &config);
            guard.post_outcome(MeasureOutcome::Ok(v));
            (0, config, v.to_bits())
        })
        .collect();

    assert_eq!(site_trace, direct_trace);
    s.with_tuner(|t| {
        let single = t.as_single().unwrap();
        assert_eq!(single.iteration(), ITERS);
        assert_eq!(single.best(), direct.best());
    });
}

#[test]
fn stress_no_lost_updates_across_eight_threads() {
    const THREADS: usize = 8;
    const SITES: usize = 32;
    const CALLS_PER_THREAD_PER_SITE: usize = 50;

    let sites: Vec<_> = (0..SITES)
        .map(|i| {
            site(register(SiteSpec::algorithms(
                format!("stress-{i}"),
                specs(),
                NominalKind::EpsilonGreedy(0.10),
                1000 + i as u64,
            )))
        })
        .collect();

    let target_ms = BATCH_TARGET_QUANTA * timer_resolution_ms();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sites = &sites;
            scope.spawn(move || {
                for round in 0..CALLS_PER_THREAD_PER_SITE {
                    for k in 0..SITES {
                        // Phase-shift per thread so threads collide on
                        // different sites at different times.
                        let i = (k + t * SITES / THREADS) % SITES;
                        sites[i].tuned(|alg, config| {
                            std::hint::black_box(cost(alg, config));
                            std::hint::black_box(round);
                            // Span the sample target: one claim-winning
                            // call closes one sample.
                            let t0 = std::time::Instant::now();
                            while duration_ms(t0.elapsed()) < target_ms {
                                std::hint::spin_loop();
                            }
                        });
                    }
                }
            });
        }
    });

    let expected_per_site = (THREADS * CALLS_PER_THREAD_PER_SITE) as u64;
    for (i, s) in sites.iter().enumerate() {
        assert_eq!(
            s.calls(),
            expected_per_site,
            "site {i}: lost or duplicated call counts"
        );
        let tuned = s.tuned_iterations();
        assert_eq!(
            tuned + s.contended(),
            expected_per_site,
            "site {i}: every call is tuned or contended"
        );
        assert!(tuned > 0, "site {i}: at least one tuning iteration ran");
        s.with_tuner(|t| {
            assert_eq!(
                t.as_two_phase().unwrap().iteration() as u64,
                tuned,
                "site {i}: tuner iterations must match the tuned-iteration count"
            );
        });
    }
}

#[test]
fn exploit_readers_only_see_valid_configurations() {
    const READERS: usize = 4;
    const WRITER_ITERS: usize = 400;
    let space = SearchSpace::new(vec![
        Parameter::ratio("p", 0, 100),
        Parameter::interval("q", -50, 50),
        Parameter::interval("r", 1, 9),
    ]);
    let s = site(register(SiteSpec::space("seqlock-fire", space.clone(), 5)));

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let space = &space;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let guard = s.pre();
                    if !guard.is_tuning() {
                        assert!(
                            space.contains(guard.config()),
                            "torn or invalid published configuration: {:?}",
                            guard.config()
                        );
                    }
                    guard.post();
                }
            });
        }
        // Writer: continuously runs tuning iterations, each of which
        // republishes the exploit decision through the seqlock.
        for _ in 0..WRITER_ITERS {
            let guard = s.pre();
            if guard.is_tuning() {
                let v = cost(1, guard.config());
                guard.post_outcome(MeasureOutcome::Ok(v));
            } else {
                guard.post();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert!(s.calls() >= WRITER_ITERS as u64);
}
