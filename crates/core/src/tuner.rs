//! Single-space online tuner driver.
//!
//! Wraps a phase-1 [`Searcher`] into an application-facing tuning loop with
//! iteration bookkeeping and termination criteria. Applications whose hot
//! operation exposes only *one* parameter space (no algorithmic choice) use
//! this directly; applications with algorithmic choice use
//! [`crate::two_phase::TwoPhaseTuner`], which embeds one of these loops per
//! algorithm.

use crate::measure::{Measure, Sample};
use crate::robust::{
    clamp_measurement, FallibleMeasure, MeasureOutcome, DEFAULT_FAILURE_PENALTY_MS,
    FAILURE_PENALTY_FACTOR,
};
use crate::search::Searcher;
use crate::space::Configuration;
use crate::telemetry::{self, EventKind, MeasureStatus};

/// Single-searcher loops have no algorithmic choice; telemetry records
/// their events against algorithm index 0.
const SOLO_ALGORITHM: u16 = 0;

/// When should the tuning loop stop proposing new configurations?
///
/// Online tuning repeats "indefinitely or until a user-defined termination
/// criterion is met" (Section III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// Never stop (purely online operation).
    Never,
    /// Stop after a fixed number of iterations.
    Iterations(usize),
    /// Stop once the searcher itself reports convergence.
    Converged,
    /// Stop after a fixed number of iterations or on convergence, whichever
    /// comes first.
    IterationsOrConverged(usize),
    /// Stop once the best observed value has not improved by more than
    /// `tolerance` (relative) for `window` consecutive iterations — the
    /// practical criterion behind the paper's "the length of the tuning
    /// loop is chosen to ensure tuning convergence".
    Plateau {
        /// Number of consecutive non-improving iterations required.
        window: usize,
        /// Relative improvement below which an iteration counts as
        /// non-improving.
        tolerance: f64,
    },
}

impl Termination {
    fn is_met(self, iteration: usize, converged: bool, plateau_len: usize) -> bool {
        match self {
            Termination::Never => false,
            Termination::Iterations(n) => iteration >= n,
            Termination::Converged => converged,
            Termination::IterationsOrConverged(n) => iteration >= n || converged,
            Termination::Plateau { window, .. } => plateau_len >= window,
        }
    }

    fn plateau_tolerance(self) -> f64 {
        match self {
            Termination::Plateau { tolerance, .. } => tolerance,
            _ => 0.0,
        }
    }
}

/// An online tuning loop around a single searcher.
pub struct OnlineTuner<S: Searcher> {
    searcher: S,
    termination: Termination,
    iteration: usize,
    /// Iterations since the best value last improved meaningfully.
    plateau_len: usize,
    plateau_best: f64,
    /// Worst successful measurement, scaling the failure penalty.
    worst: Option<f64>,
    /// Count of failed measurements.
    failures: usize,
    /// Configuration proposed by [`OnlineTuner::ask`] awaiting its
    /// [`OnlineTuner::tell`], plus whether it was an exploitation (post-
    /// termination) proposal that must not be reported to the searcher.
    pending: Option<(Configuration, bool)>,
}

impl<S: Searcher> OnlineTuner<S> {
    /// Wrap a searcher into an online tuning loop with the given
    /// termination criterion.
    pub fn new(searcher: S, termination: Termination) -> Self {
        OnlineTuner {
            searcher,
            termination,
            iteration: 0,
            plateau_len: 0,
            plateau_best: f64::INFINITY,
            worst: None,
            failures: 0,
            pending: None,
        }
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Is the termination criterion met? Once done, [`OnlineTuner::step`]
    /// keeps running the best-known configuration (online exploitation)
    /// rather than refusing to work.
    pub fn done(&self) -> bool {
        self.termination
            .is_met(self.iteration, self.searcher.converged(), self.plateau_len)
    }

    /// Ask for the next configuration to run (the first half of a tuning
    /// iteration, split out for callers that cannot hand the tuner a
    /// measurement closure — e.g. the per-call-site runtime in
    /// [`crate::site`]). Must be paired with [`OnlineTuner::tell`],
    /// [`OnlineTuner::tell_outcome`] or [`OnlineTuner::abandon`].
    pub fn ask(&mut self) -> Configuration {
        assert!(self.pending.is_none(), "ask() called twice without tell()");
        let config = self.propose_config();
        let exploiting = self.done();
        self.pending = Some((config.clone(), exploiting));
        config
    }

    /// Report the measured runtime of the configuration returned by the
    /// last [`OnlineTuner::ask`] (the second half of a tuning iteration).
    ///
    /// A non-finite value is treated as a measurement failure and routed
    /// through the penalty path of [`OnlineTuner::tell_outcome`], mirroring
    /// [`crate::two_phase::TwoPhaseTuner::report`].
    pub fn tell(&mut self, value: f64) -> Sample {
        if !value.is_finite() {
            return self.tell_outcome(MeasureOutcome::Failed("non-finite measurement".into()));
        }
        let (config, exploiting) = self.pending.take().expect("tell() without ask()");
        telemetry::emit(|| EventKind::MeasureOutcome {
            algorithm: SOLO_ALGORITHM,
            status: MeasureStatus::Ok,
            runtime_ms: value,
        });
        if !exploiting {
            self.searcher.report(value);
        }
        if value.is_finite() && self.worst.is_none_or(|w| value > w) {
            self.worst = Some(value);
        }
        self.finish_iteration(config, value)
    }

    /// Report a [`MeasureOutcome`] for the last [`OnlineTuner::ask`]:
    /// `Ok` values follow the normal path; failures and timeouts are
    /// reported as the failure penalty ([`FAILURE_PENALTY_FACTOR`] × the
    /// worst successful measurement), steering the search away without
    /// halting the loop.
    pub fn tell_outcome(&mut self, outcome: MeasureOutcome) -> Sample {
        let (config, exploiting) = self.pending.take().expect("tell_outcome() without ask()");
        let status = MeasureStatus::of(&outcome);
        let value = match outcome {
            MeasureOutcome::Ok(v) => {
                telemetry::emit(|| EventKind::MeasureOutcome {
                    algorithm: SOLO_ALGORITHM,
                    status,
                    runtime_ms: v,
                });
                if !exploiting {
                    self.searcher.report(v);
                }
                if self.worst.is_none_or(|w| v > w) {
                    self.worst = Some(v);
                }
                v
            }
            MeasureOutcome::Failed(_) | MeasureOutcome::TimedOut => {
                self.failures += 1;
                let penalty = self
                    .worst
                    .map(|w| clamp_measurement(w * FAILURE_PENALTY_FACTOR))
                    .unwrap_or(DEFAULT_FAILURE_PENALTY_MS);
                telemetry::emit(|| EventKind::MeasureOutcome {
                    algorithm: SOLO_ALGORITHM,
                    status,
                    runtime_ms: penalty,
                });
                telemetry::emit(|| EventKind::PenaltyApplied {
                    algorithm: SOLO_ALGORITHM,
                    penalty_ms: penalty,
                });
                if !exploiting {
                    self.searcher.report(penalty);
                }
                penalty
            }
        };
        self.finish_iteration(config, value)
    }

    /// Abandon the last [`OnlineTuner::ask`] without reporting anything —
    /// the measurement never ran. The searcher rolls back so its next
    /// proposal is well-defined; no iteration is consumed. Returns the
    /// abandoned configuration, or `None` if nothing was pending (making
    /// cleanup paths idempotent).
    pub fn abandon(&mut self) -> Option<Configuration> {
        let (config, exploiting) = self.pending.take()?;
        if !exploiting {
            self.searcher.abandon();
        }
        Some(config)
    }

    /// One tuning-loop iteration: propose, measure, report.
    pub fn step<M: Measure>(&mut self, measure: &mut M) -> Sample {
        let config = self.ask();
        if !self.searcher.space().is_feasible(&config) {
            // The searcher could not repair the proposal into the
            // constrained region: penalize it without burning a measurement.
            return self.tell_outcome(MeasureOutcome::Failed("infeasible proposal".into()));
        }
        let value = measure.measure(&config);
        self.tell(value)
    }

    /// One *fault-tolerant* tuning-loop iteration: like
    /// [`OnlineTuner::step`] but for measurements that can fail. Failed or
    /// timed-out measurements are reported to the searcher as the failure
    /// penalty via [`OnlineTuner::tell_outcome`].
    pub fn step_fallible<M: FallibleMeasure>(&mut self, measure: &mut M) -> Sample {
        let config = self.ask();
        if !self.searcher.space().is_feasible(&config) {
            return self.tell_outcome(MeasureOutcome::Failed("infeasible proposal".into()));
        }
        let outcome = measure.measure(&config);
        self.tell_outcome(outcome)
    }

    fn propose_config(&mut self) -> Configuration {
        telemetry::emit(|| EventKind::IterationStart {
            iteration: self.iteration as u64,
        });
        if self.done() {
            // Exploit: re-run the best-known configuration without advancing
            // the search.
            self.searcher
                .best()
                .map(|(c, _)| c.clone())
                .unwrap_or_else(|| self.searcher.space().min_corner())
        } else {
            self.searcher.propose()
        }
    }

    fn finish_iteration(&mut self, config: Configuration, value: f64) -> Sample {
        // Plateau tracking: count iterations without meaningful improvement
        // of the best observed value.
        let tol = self.termination.plateau_tolerance();
        if value < self.plateau_best * (1.0 - tol) {
            self.plateau_best = value;
            self.plateau_len = 0;
        } else {
            self.plateau_len += 1;
        }
        let sample = Sample {
            iteration: self.iteration,
            config,
            value,
        };
        self.iteration += 1;
        sample
    }

    /// Count of failed measurements seen by
    /// [`OnlineTuner::step_fallible`].
    pub fn failure_count(&self) -> usize {
        self.failures
    }

    /// Run until the termination criterion is met (or `max_steps` as a
    /// safety bound for [`Termination::Converged`]). Returns the samples
    /// of this run; the tuner itself keeps none.
    pub fn run<M: Measure>(&mut self, measure: &mut M, max_steps: usize) -> Vec<Sample> {
        let mut samples = Vec::new();
        while !self.done() && samples.len() < max_steps {
            samples.push(self.step(measure));
        }
        samples
    }

    /// Best observed configuration and value.
    pub fn best(&self) -> Option<(&Configuration, f64)> {
        self.searcher.best()
    }

    /// Access the wrapped searcher.
    pub fn searcher(&self) -> &S {
        &self.searcher
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;
    use crate::search::{NelderMead, NelderMeadOptions, RandomSearch};
    use crate::space::SearchSpace;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![Parameter::interval("x", -30, 30)])
    }

    fn cost(c: &Configuration) -> f64 {
        (c.get(0).as_f64() - 12.0).powi(2) + 3.0
    }

    #[test]
    fn runs_until_iteration_budget() {
        let mut t = OnlineTuner::new(RandomSearch::new(space(), 1), Termination::Iterations(25));
        let mut m = |c: &Configuration| cost(c);
        let samples = t.run(&mut m, 1000);
        assert_eq!(samples.len(), 25);
        assert!(t.done());
    }

    #[test]
    fn runs_until_convergence() {
        let mut t = OnlineTuner::new(
            NelderMead::new(space(), NelderMeadOptions::default()),
            Termination::Converged,
        );
        let mut m = |c: &Configuration| cost(c);
        t.run(&mut m, 500);
        assert!(t.done());
        let (c, v) = t.best().unwrap();
        assert!((c.get(0).as_i64() - 12).abs() <= 1, "{c:?}");
        assert!(v < 5.0);
    }

    #[test]
    fn after_done_steps_exploit_best() {
        let mut t = OnlineTuner::new(
            NelderMead::new(space(), NelderMeadOptions::default()),
            Termination::Converged,
        );
        let mut m = |c: &Configuration| cost(c);
        t.run(&mut m, 500);
        let best = t.best().unwrap().0.clone();
        let s1 = t.step(&mut m);
        let s2 = t.step(&mut m);
        assert_eq!(s1.config, best);
        assert_eq!(s2.config, best);
    }

    #[test]
    fn never_termination_keeps_tuning() {
        let mut t = OnlineTuner::new(RandomSearch::new(space(), 2), Termination::Never);
        let mut m = |c: &Configuration| cost(c);
        for _ in 0..100 {
            t.step(&mut m);
        }
        assert!(!t.done());
        assert_eq!(t.iteration(), 100);
    }

    #[test]
    fn iterations_or_converged_stops_early_on_convergence() {
        let tiny = SearchSpace::new(vec![Parameter::ratio("x", 0, 2)]);
        let mut t = OnlineTuner::new(
            NelderMead::new(tiny, NelderMeadOptions::default()),
            Termination::IterationsOrConverged(10_000),
        );
        let mut m = |c: &Configuration| c.get(0).as_f64();
        t.run(&mut m, 10_000);
        assert!(t.done());
        assert!(t.iteration() < 10_000, "tiny space converges fast");
    }

    #[test]
    fn plateau_termination_fires_after_stagnation() {
        // A constant cost function stagnates immediately: done after
        // exactly `window` iterations.
        let mut t = OnlineTuner::new(
            RandomSearch::new(space(), 4),
            Termination::Plateau {
                window: 12,
                tolerance: 0.01,
            },
        );
        let mut m = |_: &Configuration| 7.0;
        let mut steps = 0;
        while !t.done() && steps < 1000 {
            t.step(&mut m);
            steps += 1;
        }
        assert_eq!(steps, 13, "first sample + 12 stagnant iterations");
    }

    #[test]
    fn plateau_resets_on_improvement() {
        let mut t = OnlineTuner::new(
            RandomSearch::new(space(), 4),
            Termination::Plateau {
                window: 10,
                tolerance: 0.01,
            },
        );
        // Strictly improving by 10% each step: never done.
        let mut current = 1000.0;
        let mut m = |_: &Configuration| {
            current *= 0.9;
            current
        };
        for _ in 0..50 {
            t.step(&mut m);
            assert!(!t.done(), "improving run must not plateau");
        }
    }

    #[test]
    fn fallible_steps_survive_failures_and_still_tune() {
        use crate::robust::MeasureOutcome;
        let mut t = OnlineTuner::new(RandomSearch::new(space(), 11), Termination::Iterations(200));
        let mut i = 0usize;
        let mut m = |c: &Configuration| {
            i += 1;
            match i % 10 {
                0 => MeasureOutcome::Failed("injected".into()),
                1 => MeasureOutcome::TimedOut,
                _ => MeasureOutcome::Ok(cost(c)),
            }
        };
        let mut n = 0;
        while !t.done() && n < 500 {
            t.step_fallible(&mut m);
            n += 1;
        }
        assert!(t.failure_count() >= 30, "{}", t.failure_count());
        let (c, v) = t.best().unwrap();
        assert!((c.get(0).as_i64() - 12).abs() <= 3, "{c:?}");
        assert!(v < 15.0, "tuned value {v}");
    }

    #[test]
    fn fallible_steps_keep_nelder_mead_protocol_intact() {
        // Penalty reports can misdirect a simplex — that is acceptable; what
        // must hold is that the ask/tell protocol survives 20% failures
        // without panicking and still yields a finite best.
        use crate::robust::MeasureOutcome;
        let mut t = OnlineTuner::new(
            NelderMead::new(space(), NelderMeadOptions::default()),
            Termination::Iterations(200),
        );
        let mut i = 0usize;
        let mut m = |c: &Configuration| {
            i += 1;
            match i % 10 {
                0 => MeasureOutcome::Failed("injected".into()),
                1 => MeasureOutcome::TimedOut,
                _ => MeasureOutcome::Ok(cost(c)),
            }
        };
        let mut n = 0;
        while !t.done() && n < 500 {
            t.step_fallible(&mut m);
            n += 1;
        }
        assert!(t.failure_count() >= 30, "{}", t.failure_count());
        let (_, v) = t.best().unwrap();
        assert!(v.is_finite());
    }

    #[test]
    fn fallible_step_penalty_before_any_success_is_default() {
        use crate::robust::{MeasureOutcome, DEFAULT_FAILURE_PENALTY_MS};
        let mut t = OnlineTuner::new(RandomSearch::new(space(), 8), Termination::Never);
        let mut m = |_: &Configuration| MeasureOutcome::Failed("always".into());
        let s = t.step_fallible(&mut m);
        assert_eq!(s.value, DEFAULT_FAILURE_PENALTY_MS);
        assert_eq!(t.failure_count(), 1);
    }

    #[test]
    fn infeasible_proposals_never_reach_the_measure_function() {
        use crate::space::Constraint;
        // Irreparably infeasible space: the measure closure must never run,
        // and every iteration takes the penalty path.
        let blocked = space().with_constraint(Constraint::new("never", |_| false));
        let mut t = OnlineTuner::new(RandomSearch::new(blocked, 17), Termination::Never);
        let mut measured = 0usize;
        let mut m = |_: &Configuration| {
            measured += 1;
            1.0
        };
        for _ in 0..15 {
            t.step(&mut m);
        }
        assert_eq!(measured, 0, "measure must never see an infeasible config");
        assert_eq!(t.failure_count(), 15);
    }

    #[test]
    fn run_returns_one_sample_per_iteration() {
        let mut t = OnlineTuner::new(RandomSearch::new(space(), 3), Termination::Iterations(10));
        let mut m = |c: &Configuration| cost(c);
        let samples = t.run(&mut m, 100);
        assert_eq!(samples.len(), 10);
        assert_eq!(t.iteration(), 10);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.iteration, i);
        }
    }
}
