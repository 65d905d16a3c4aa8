//! Property-style robustness suite: no phase-2 strategy may panic, and no
//! algorithm may lose its strictly-positive selection probability, no matter
//! how degenerate the measurement stream gets.
//!
//! The paper's strategies all divide by measured runtimes (inverse-runtime
//! weights), so the adversarial streams below concentrate on the values that
//! historically broke that math: exact zeros, subnormals, near-overflow
//! magnitudes, negatives from broken timers, and non-finite values that
//! bypassed the robust measurement layer.

use autotune::prelude::*;
use autotune::rng::Rng;
use autotune::robust::MeasureOutcome;

/// The eight strategies under test: the paper's six plus the two extras the
/// crate ships (Softmax baseline, EpsilonGradient future-work variant).
fn all_kinds() -> Vec<NominalKind> {
    let mut kinds = NominalKind::paper_set();
    kinds.push(NominalKind::Softmax(0.5, 16));
    kinds.push(NominalKind::EpsilonGradient(0.1, 16));
    kinds
}

/// A named adversarial stream: measurement value as a function of iteration.
type Stream = (&'static str, fn(usize) -> f64);

/// Adversarial measurement streams, each a function of the iteration index.
fn streams() -> Vec<Stream> {
    vec![
        ("all-zero", |_| 0.0),
        ("subnormal", |_| 5e-324),
        ("near-overflow", |_| 1e308),
        ("alternating-extremes", |i| {
            if i % 2 == 0 {
                5e-324
            } else {
                1e308
            }
        }),
        ("negative-timer", |i| -1.0 - (i % 5) as f64),
        ("mixed-nonfinite", |i| match i % 4 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => 3.0,
        }),
        ("spiky", |i| if i % 17 == 0 { 1e9 } else { 2.0 }),
    ]
}

#[test]
fn no_strategy_panics_on_adversarial_streams() {
    const ALGS: usize = 3;
    const ITERS: usize = 1_000;
    for kind in all_kinds() {
        for (stream_name, stream) in streams() {
            let mut strategy = kind.build(ALGS, 0xFA17);
            let mut counts = [0usize; ALGS];
            for i in 0..ITERS {
                let a = strategy.select();
                assert!(a < ALGS, "{} on {stream_name}: index {a}", strategy.name());
                counts[a] += 1;
                strategy.report(a, stream(i));
                // Sprinkle explicit failure reports through the stream too.
                if i % 97 == 0 {
                    strategy.report_failure(a);
                }
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "{} on {stream_name}: an algorithm was excluded ({counts:?})",
                strategy.name()
            );
            // Whatever the stream did, the recorded history must be finite.
            for h in strategy.histories() {
                if let Some(v) = h.last_value() {
                    assert!(v.is_finite(), "{stream_name} left a non-finite sample");
                }
            }
        }
    }
}

/// CS1-like fixed-cost fixture: three "matchers" with constant runtimes, the
/// middle one fastest. Mirrors the shape of the paper's first case study
/// without the actual string-matching kernels.
fn fixture_specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::untunable("slow"),
        AlgorithmSpec::untunable("fast"),
        AlgorithmSpec::untunable("slower"),
    ]
}

const FIXTURE_COSTS: [f64; 3] = [8.0, 5.0, 12.0];

/// The PR's acceptance scenario: a 500-iteration tuning loop with 10%
/// injected measurement failures must complete under every paper strategy,
/// converge to the fastest algorithm, and never drive any algorithm's
/// selection probability to zero.
#[test]
fn two_phase_survives_ten_percent_faults_and_converges() {
    const ITERS: usize = 500;
    for kind in NominalKind::paper_set() {
        let mut tuner = TwoPhaseTuner::new(fixture_specs(), kind, 0xC51);
        let mut fault_rng = Rng::new(7);
        let mut counts = [0usize; 3];
        for _ in 0..ITERS {
            let sample = tuner.step_fallible(|a, _c| {
                if fault_rng.next_bool(0.10) {
                    MeasureOutcome::Failed("injected transient fault".into())
                } else {
                    MeasureOutcome::Ok(FIXTURE_COSTS[a])
                }
            });
            assert!(sample.value.is_finite());
            counts[sample.algorithm] += 1;
        }
        let name = tuner.strategy_name();
        assert_eq!(tuner.iteration(), ITERS, "{name}: loop must complete");
        let injected: usize = tuner.failure_counts().iter().sum();
        assert!(injected > 20, "{name}: expected ~50 faults, got {injected}");
        assert_eq!(
            tuner.best_algorithm(),
            Some(1),
            "{name}: must still converge to the fastest algorithm"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "{name}: an algorithm was excluded under faults ({counts:?})"
        );
    }
}

/// Same fault rate, but with tunable algorithms so the phase-1 searchers'
/// ask/tell protocol is exercised under failures as well.
#[test]
fn two_phase_with_tunable_spaces_survives_faults() {
    let specs = vec![
        AlgorithmSpec::new(
            "poly-a",
            SearchSpace::new(vec![Parameter::ratio("x", 0, 40)]),
        ),
        AlgorithmSpec::new(
            "poly-b",
            SearchSpace::new(vec![Parameter::ratio("y", 0, 40)]),
        ),
    ];
    let mut tuner = TwoPhaseTuner::new(specs, NominalKind::SlidingWindowAuc(16), 0xBEEF);
    let mut fault_rng = Rng::new(21);
    for _ in 0..500 {
        tuner.step_fallible(|a, c| {
            if fault_rng.next_bool(0.10) {
                MeasureOutcome::TimedOut
            } else {
                let x = c.get(0).as_f64();
                let target = if a == 0 { 30.0 } else { 10.0 };
                MeasureOutcome::Ok(1.0 + 0.01 * (x - target).powi(2))
            }
        });
    }
    let (_, _, v) = tuner.best().expect("a best must exist");
    assert!(v.is_finite() && v < 5.0, "tuning still progresses: {v}");
    assert!(tuner.failure_counts().iter().sum::<usize>() > 20);
}

/// Degenerate coordinates — NaN and ±infinity — must never panic anywhere
/// in the space layer: they project to each parameter's minimum instead.
/// Historically `Value::as_i64` asserted on NaN floats and
/// `clamp_continuous` mapped ±∞ through `f64 as i64` saturation, so a
/// degenerate Nelder-Mead simplex (all-equal vertices produce NaN
/// centroids) could kill the tuning thread.
#[test]
fn non_finite_coordinates_never_panic() {
    use autotune::param::Value;
    let space = SearchSpace::new(vec![
        Parameter::ratio("threads", 1, 8),
        Parameter::interval("cutoff", -10, 50),
        Parameter::ratio_f64("alpha", 0.5, 2.0),
    ]);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let c = space.clamp(&[bad, bad, bad]);
        assert!(space.contains(&c), "{bad} must project into the space");
        assert_eq!(c.get(0).as_i64(), 1, "non-finite projects to the minimum");
        assert_eq!(c.get(1).as_i64(), -10);
        assert_eq!(c.get(2).as_f64(), 0.5);
        let c = space.clamp_feasible(&[bad, 0.0, 1.0]);
        assert!(space.contains(&c));
    }
    // as_i64 is total on every float, including the non-finite ones.
    assert_eq!(Value::Float(f64::NAN).as_i64(), 0);
    assert_eq!(Value::Float(f64::INFINITY).as_i64(), i64::MAX);
    assert_eq!(Value::Float(f64::NEG_INFINITY).as_i64(), i64::MIN);
}

/// A measurement function that returns NaN-breeding values must not crash a
/// Nelder-Mead loop: the simplex arithmetic (centroids, reflections over
/// penalty-valued vertices) stays inside the box thanks to the projecting
/// clamp, and the loop keeps proposing in-space configurations.
#[test]
fn nelder_mead_survives_nan_breeding_measurements() {
    let space = SearchSpace::new(vec![
        Parameter::ratio("x", 0, 20),
        Parameter::ratio("y", 0, 20),
    ]);
    let mut t = OnlineTuner::new(
        NelderMead::new(space.clone(), NelderMeadOptions::default()),
        Termination::Never,
    );
    let mut i = 0usize;
    let mut m = |c: &Configuration| {
        assert!(space.contains(c), "proposed out-of-space: {c:?}");
        i += 1;
        match i % 5 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => 0.0,
            _ => (c.get(0).as_f64() - 7.0).powi(2) + 1.0,
        }
    };
    for _ in 0..300 {
        t.step(&mut m);
    }
    assert_eq!(t.iteration(), 300, "loop must complete without panicking");
}

/// Abandoning a proposal mid-flight (measurement never ran at all) must be
/// recoverable and idempotent for every strategy.
#[test]
fn abandon_between_next_and_report_never_poisons() {
    for kind in all_kinds() {
        let mut tuner = TwoPhaseTuner::new(fixture_specs(), kind, 3);
        for i in 0..200 {
            let (a, _c) = tuner.next();
            if i % 7 == 0 {
                tuner.abandon();
                assert!(tuner.abandon().is_none(), "second abandon is a no-op");
            } else {
                tuner.report(FIXTURE_COSTS[a]);
            }
        }
        assert_eq!(tuner.best_algorithm(), Some(1));
    }
}
