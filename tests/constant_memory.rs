//! A tuner's memory must not depend on how many iterations it has run.
//!
//! 200 000 tuned `sort_request_keyed` calls through an LRU-bounded
//! [`SortSites`] table must grow the process's resident set (`VmRSS` in
//! `/proc/self/status`) by less than 4 MB. A tuner that kept every sample
//! would grow by about 100 bytes per call, ~19 MB over the run.
//!
//! This file is its own test binary so no other test's threads or
//! allocations share the process. Where `/proc` is absent the test
//! reports itself skipped and passes.

use autotune::rng::Rng;
use autotune::two_phase::NominalKind;
use smallsort::{nearly_sorted_input, sort_request_keyed, SortSites};

const CALLS: usize = 200_000;
/// Calls before the baseline reading: every key admitted, every window
/// ring full, the allocator's pools grown to their steady size.
const WARM_UP_CALLS: usize = 20_000;
const MAX_GROWTH_KB: u64 = 4 << 10;
/// Table slots; the inputs below span more keys, so calls also evict,
/// park and reinstate tuner state.
const CAPACITY: usize = 4;
const INPUTS: usize = 64;

fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn tuned_sort_calls_run_in_constant_memory() {
    if vm_rss_kb().is_none() {
        eprintln!("skipped: /proc/self/status is not available");
        return;
    }
    let sites = SortSites::register_bounded(
        "constant-memory",
        CAPACITY,
        NominalKind::SlidingWindowAuc(16),
        0x00C0_5747,
    );
    // Sizes 5..=64 (size classes 3..=6), half random and half nearly
    // sorted, so several (size class × presortedness) keys stay live.
    let mut rng = Rng::new(0x006D_656D);
    let inputs: Vec<Vec<u64>> = (0..INPUTS)
        .map(|i| {
            let n = 5 + rng.next_below(60) as usize;
            if i % 2 == 0 {
                nearly_sorted_input(n, &mut rng)
            } else {
                (0..n).map(|_| rng.next_u64()).collect()
            }
        })
        .collect();
    let mut buf = Vec::with_capacity(64);
    let mut call = |i: usize| {
        buf.clear();
        buf.extend_from_slice(&inputs[i % INPUTS]);
        sort_request_keyed(&sites, &mut buf);
        debug_assert!(buf.windows(2).all(|w| w[0] <= w[1]));
    };

    for i in 0..WARM_UP_CALLS {
        call(i);
    }
    let before = vm_rss_kb().expect("VmRSS readable");
    for i in 0..CALLS {
        call(i);
    }
    let after = vm_rss_kb().expect("VmRSS readable");
    let growth = after.saturating_sub(before);
    assert!(
        growth < MAX_GROWTH_KB,
        "resident set grew by {growth} kB over {CALLS} tuned calls \
         ({before} -> {after} kB); limit {MAX_GROWTH_KB} kB"
    );
}
