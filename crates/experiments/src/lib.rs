//! # experiments — the paper's evaluation, regenerated
//!
//! One module per case study plus the tables:
//!
//! | Paper artifact | Regenerator |
//! |---|---|
//! | Table I (parameter classes) | [`tables::table1`] |
//! | Table II (benchmark system) | [`tables::table2`] |
//! | Figure 1 (untuned string matchers) | [`cs1::fig1`] |
//! | Figure 2 (median convergence, strings) | [`cs1::fig2`] |
//! | Figure 3 (mean convergence, strings) | [`cs1::fig3`] |
//! | Figure 4 (choice histogram, strings) | [`cs1::fig4`] |
//! | Figure 5 (per-builder tuning timeline) | [`cs2::fig5`] |
//! | Figure 6 (median convergence, raytracing) | [`cs2::fig6`] |
//! | Figure 7 (mean convergence, raytracing) | [`cs2::fig7`] |
//! | Figure 8 (choice histogram, raytracing) | [`cs2::fig8`] |
//!
//! Beyond the paper's artifacts, the `faults` target ([`faults`]) re-runs
//! both case studies with 10% injected measurement failures and compares
//! clean vs. faulty convergence — the robustness claim the measurement
//! pipeline in [`autotune::robust`] makes. The `constraints` target
//! ([`constraints`]) runs both case studies over budget-constrained
//! spaces and compares repair against reject-and-retry, recording the
//! per-algorithm feasibility of each algorithm set on the current host. The `record` target ([`record`])
//! replays both case studies with the [`autotune::telemetry`] recorder on
//! and writes per-run JSONL traces plus Perfetto-loadable Chrome traces;
//! `report` rebuilds per-strategy convergence tables from those files
//! alone. The `sites` target ([`sites`]) drives the concurrent multi-site
//! runtime ([`autotune::site`]) at production shape — hundreds of sites,
//! multiple request threads — and reports aggregate throughput plus
//! per-site convergence. The `smallsort` target ([`sortstudy`]) drives
//! the third workload — small-array sorting with input size as a
//! context dimension — and rebuilds per-size-class convergence tables
//! (winner, iterations-to-within-5%) from the exported JSONL trace. The
//! `contexts` target ([`contexts`]) exercises the generalized context
//! layer ([`autotune::context`]): per-(size × presortedness) winner
//! flips, warm-vs-cold admission convergence, and LRU churn accounting,
//! all rebuilt from the trace's `context` field. The
//! `serve` target ([`serve`]) stands the case
//! studies up as an always-on TCP tuning service ([`autotune::serve`])
//! with per-site drift detection, and the `load` target ([`load`]) is its
//! pipelined loopback load generator with morph schedules and live
//! telemetry-stream validation. Every "iterations to converge" these
//! studies and the benches publish comes from [`convergence`].
//!
//! The `experiments` binary drives these and writes CSV/JSON into
//! `results/` plus ASCII plots to stdout. Scale knobs default to a *quick*
//! profile; `--paper` selects the paper's full scale.

pub mod ablations;
pub mod constraints;
pub mod contexts;
pub mod convergence;
pub mod cs1;
pub mod cs2;
pub mod faults;
pub mod load;
pub mod record;
pub mod report;
pub mod serve;
pub mod sites;
pub mod sortstudy;
pub mod tables;

/// Tests that drain the process-global telemetry ring live must not run
/// concurrently with each other — across modules, not just within one.
/// Every such test takes this crate-wide lock first.
#[cfg(test)]
pub(crate) fn ring_lock() -> std::sync::MutexGuard<'static, ()> {
    static RING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    RING.lock().unwrap_or_else(|e| e.into_inner())
}
