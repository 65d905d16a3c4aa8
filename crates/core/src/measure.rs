//! Measurement functions and samples.
//!
//! The paper defines autotuning as minimizing a measurement function
//! `m_K : T → ℝ` for a fixed context `K = (K_A, K_S)` describing the
//! application and the system. In practice `m` measures wall-clock runtime;
//! for deterministic tests this crate also supports arbitrary synthetic cost
//! functions.

use crate::space::Configuration;
use std::time::{Duration, Instant};

/// One observation: configuration `C_i` produced measurement `m(C_i)` at
/// tuning iteration `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Global tuning iteration index at which the sample was taken.
    pub iteration: usize,
    /// The evaluated configuration.
    pub config: Configuration,
    /// Measured value (lower is better; typically seconds).
    pub value: f64,
}

/// A measurement function `m_K : T → ℝ`. Implemented by the application
/// being tuned (or a synthetic cost model in tests).
pub trait Measure {
    /// Evaluate one configuration and return its measured value. Lower is
    /// better. The value must be finite; strategies treat non-finite values
    /// as a contract violation.
    fn measure(&mut self, config: &Configuration) -> f64;
}

impl<F: FnMut(&Configuration) -> f64> Measure for F {
    fn measure(&mut self, config: &Configuration) -> f64 {
        self(config)
    }
}

/// Run a closure and return its wall-clock duration in milliseconds — the
/// unit used throughout the paper's figures.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, duration_ms(start.elapsed()))
}

/// Convert a [`Duration`] to fractional milliseconds.
pub fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Configuration;

    #[test]
    fn closure_is_a_measure() {
        let mut calls = 0usize;
        {
            let mut m = |_c: &Configuration| {
                calls += 1;
                1.5
            };
            assert_eq!(m.measure(&Configuration::empty()), 1.5);
            assert_eq!(m.measure(&Configuration::empty()), 1.5);
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn time_ms_is_nonnegative_and_returns_value() {
        let (v, ms) = time_ms(|| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
    }

    #[test]
    fn time_ms_measures_sleep() {
        let (_, ms) = time_ms(|| std::thread::sleep(Duration::from_millis(20)));
        assert!(ms >= 15.0, "expected >= 15ms, got {ms}");
    }

    #[test]
    fn duration_conversion() {
        assert_eq!(duration_ms(Duration::from_millis(250)), 250.0);
        assert!((duration_ms(Duration::from_micros(1500)) - 1.5).abs() < 1e-9);
    }
}
