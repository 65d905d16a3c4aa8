//! # smallsort — tunable small-array sorting
//!
//! The third workload: Tuna's motivating example, and the paper's thesis at
//! µs scale. Which sorting algorithm wins on a small array is an
//! input-dependent choice — insertion sort is unbeatable below a few dozen
//! elements, comparison sorts rule the middle, and LSD radix overtakes them
//! on larger integer arrays — so the "best sort" is not one function but a
//! *function of input size*, and exactly the kind of decision an online
//! tuner should own.
//!
//! Five variants form the nominal set 𝒜 ([`tuned::sort_algorithm_specs`]):
//!
//! * [`insertion`] — branch-light linear insertion sort,
//! * [`heap`] — in-place siftdown heapsort,
//! * [`merge`] — top-down merge sort with a tuned `insertion_cutoff`,
//! * [`pdq`] — pdq-style introsort (median-of-three quicksort, heapsort
//!   depth fallback, tuned `insertion_cutoff`),
//! * [`radix`] — LSD radix sort with a tuned, constraint-aligned
//!   `chunk_bits`.
//!
//! [`tuned`] makes **input size a first-class context dimension**: requests
//! are bucketed into power-of-two size classes and each class is bound to
//! its own tuning site in the process-global registry
//! ([`autotune::site`]), so the tuner learns a *per-size-class* winner
//! instead of one global compromise.
//!
//! A single sort here is cheaper than a timer tick, so a tuning sample is
//! scored over `k` consecutive real calls, each timed once by the site
//! guard, rather than by re-running one call — see
//! [`tuned::sort_request`].

#![warn(missing_docs)]

pub mod heap;
pub mod insertion;
pub mod merge;
pub mod pdq;
pub mod radix;
pub mod tuned;

pub use tuned::{
    nearly_sorted_input, presort_class, runs, size_class, sort_algorithm_specs, sort_request,
    sort_request_keyed, sort_site_spec, sort_with, SortKey, SortSites, ALGORITHM_NAMES,
    MAX_CLASS_LOG2, MIN_CLASS_LOG2, NUM_CLASSES, NUM_PRESORT_CLASSES, PRESORT_NAMES,
    PRESORT_NEARLY_SORTED, PRESORT_RANDOM,
};
