//! Site-dispatched string search: case study 1 as calls through the
//! concurrent multi-site runtime ([`autotune::site`]).
//!
//! [`crate::parallel::ParallelMatcher::measure_search`] times one search
//! for a caller-supplied matcher; this module closes the loop. A
//! [`Site`] owns the algorithmic choice over the full kernel-extended
//! matcher set, every call dispatches through it (`pre` → search →
//! `post_outcome`), and concurrent callers coordinate through the site's
//! claim CAS: one drives a tuning iteration, the rest run the published
//! best matcher.

use crate::scan::Kernel;
use crate::{all_matchers_with_kernels, Matcher, ParallelMatcher};
use autotune::robust::{MeasureOutcome, RobustOptions};
use autotune::site::{Site, SiteSpec};
use autotune::space::{Constraint, SearchSpace};
use autotune::two_phase::{AlgorithmSpec, NominalKind};

/// Algorithm specs for [`all_matchers_with_kernels`], index-aligned with
/// [`site_matchers`]. The matchers expose no parameters, so every phase-1
/// space is empty — but the `*-SIMD` variants carry a feasibility
/// constraint requiring an actual vector kernel on this host
/// ([`Kernel::is_available`]). Without one (non-x86-64, or
/// `AUTOTUNE_FORCE_SCALAR` set) those variants would silently alias the
/// SWAR path via [`Kernel::detect`]; the constraint makes 𝒜 honest: the
/// tuner penalizes them instead of measuring a scalar impostor.
pub fn matcher_algorithm_specs() -> Vec<AlgorithmSpec> {
    all_matchers_with_kernels()
        .iter()
        .map(|m| {
            let name = m.name();
            if name.ends_with("-SIMD") {
                let space = SearchSpace::empty()
                    .with_constraint(Constraint::new("requires-vector-kernel", |_| {
                        Kernel::Sse2.is_available() || Kernel::Avx2.is_available()
                    }));
                AlgorithmSpec::new(name, space)
            } else {
                AlgorithmSpec::untunable(name)
            }
        })
        .collect()
}

/// A site blueprint selecting over [`all_matchers_with_kernels`] — pure
/// algorithmic choice, as in the paper's case study 1, with the SIMD
/// variants constrained to hosts that can really run them
/// ([`matcher_algorithm_specs`]).
pub fn search_site_spec(name: impl Into<String>, nominal: NominalKind, seed: u64) -> SiteSpec {
    SiteSpec::algorithms(name, matcher_algorithm_specs(), nominal, seed)
}

/// The matcher set a site built from [`search_site_spec`] selects over,
/// index-aligned with the site's algorithm indices.
pub fn site_matchers() -> Vec<Box<dyn Matcher>> {
    all_matchers_with_kernels()
}

/// One site-dispatched search: the site picks the matcher, the search runs
/// under the robust pipeline, and the measured outcome feeds back into the
/// site's tuner (claim winner) or is recorded as exploit traffic.
///
/// `matchers` must be index-aligned with the site's algorithm set —
/// normally the [`site_matchers`] list matching [`search_site_spec`].
pub fn measure_search_site(
    site: Site,
    matchers: &[Box<dyn Matcher>],
    pattern: &[u8],
    text: &[u8],
    require_match: bool,
    threads: usize,
    opts: &RobustOptions,
) -> MeasureOutcome {
    let guard = site.pre();
    let matcher = matchers[guard.algorithm()].as_ref();
    let outcome =
        ParallelMatcher::new(matcher, threads).measure_search(pattern, text, require_match, opts);
    guard.post_outcome(outcome.clone());
    outcome
}

/// One request-sized, site-dispatched search: the serving entry point
/// ([`autotune::serve`]). The site picks the matcher, the occurrence
/// count is computed single-threaded (a server worker handles one
/// request at a time), and the guard's wall time feeds the tuner.
/// Returns `(count, elapsed_ms)` — the runtime is what the server's
/// per-site drift monitor ([`autotune::drift`]) observes.
pub fn match_request(
    site: Site,
    matchers: &[Box<dyn Matcher>],
    pattern: &[u8],
    text: &[u8],
) -> (usize, f64) {
    let guard = site.pre();
    let count = matchers[guard.algorithm()].count(pattern, text);
    let ms = guard.post();
    (count, ms)
}

/// Infallible convenience wrapper: site-dispatched [`Matcher::find_all`],
/// timed by the site itself ([`autotune::site::SiteGuard::post`]). Panics
/// propagate after the call is abandoned.
pub fn find_all_site(
    site: Site,
    matchers: &[Box<dyn Matcher>],
    pattern: &[u8],
    text: &[u8],
    threads: usize,
) -> Vec<usize> {
    site.tuned(|algorithm, _config| {
        ParallelMatcher::new(matchers[algorithm].as_ref(), threads).find_all(pattern, text)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune::site::register;

    #[test]
    fn site_dispatch_searches_and_tunes() {
        let site = autotune::site::site(register(search_site_spec(
            "sm-test",
            NominalKind::EpsilonGreedy(0.10),
            11,
        )));
        assert_eq!(site.num_algorithms(), 12);
        let matchers = site_matchers();
        let text = crate::corpus::bible_like_with(3, 64 << 10, 2_000);
        let opts = RobustOptions::default();
        for _ in 0..12 {
            let outcome =
                measure_search_site(site, &matchers, crate::PAPER_QUERY, &text, true, 2, &opts);
            assert!(outcome.is_ok(), "{outcome:?}");
        }
        assert_eq!(site.calls(), 12);
        site.with_tuner(|t| {
            assert_eq!(t.as_two_phase().unwrap().iteration(), 12);
        });
    }

    #[test]
    fn simd_specs_declare_the_vector_kernel_constraint() {
        let specs = matcher_algorithm_specs();
        assert_eq!(specs.len(), 12);
        let vector_host = Kernel::Sse2.is_available() || Kernel::Avx2.is_available();
        for spec in &specs {
            let feasible = spec.space.is_feasible(&spec.space.min_corner());
            if spec.name.ends_with("-SIMD") {
                assert!(
                    spec.space.is_constrained(),
                    "{} must carry the kernel constraint",
                    spec.name
                );
                assert_eq!(
                    feasible, vector_host,
                    "{} feasibility must track host kernel availability",
                    spec.name
                );
            } else {
                assert!(feasible, "scalar matcher {} is always feasible", spec.name);
            }
        }
    }

    #[test]
    fn match_request_counts_and_feeds_the_tuner() {
        let site = autotune::site::site(register(search_site_spec(
            "sm-req",
            NominalKind::EpsilonGreedy(0.10),
            17,
        )));
        let matchers = site_matchers();
        let (count, ms) = match_request(site, &matchers, b"ana", b"banana bandana");
        assert_eq!(count, 3);
        assert!(ms >= 0.0);
        assert_eq!(site.calls(), 1);
        assert_eq!(site.tuned_iterations(), 1);
    }

    #[test]
    fn find_all_site_returns_real_hits() {
        let site = autotune::site::site(register(search_site_spec(
            "sm-find",
            NominalKind::EpsilonGreedy(0.10),
            13,
        )));
        let matchers = site_matchers();
        let hits = find_all_site(site, &matchers, b"ana", b"banana bandana", 1);
        assert_eq!(hits, vec![1, 3, 11]);
    }
}
