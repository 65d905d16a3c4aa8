//! In-memory spans recorded around the calls into each layer, and the
//! self-time arithmetic that turns them into a per-layer ledger.
//!
//! A span is a named interval with an optional parent. A layer's *self
//! time* is its span's duration minus the part of that interval covered
//! by its child spans (overlapping children count once, and a child
//! sticking out of its parent counts only inside it). Spans stay in
//! memory until the run ends; nothing is written while measuring.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds on the run's clock, shared by every thread of the process
/// so client and server stamps can be compared.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time the calling thread has run, in ns, exact to the call
/// (`CLOCK_THREAD_CPUTIME_ID`). Like `schedstat`, it leaves out time the
/// virtual CPU was stolen, so short timings on a shared host do not jump
/// when the hypervisor runs someone else.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid out `timespec` for the call,
    // which only writes it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One recorded interval, in nanoseconds on the run's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"serve.wait"`.
    pub name: &'static str,
    /// Index of the parent span in the same list, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A growing list of spans. Span ids are indices into the list.
#[derive(Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    /// Record a span and return its id, for children to name as parent.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }
}

/// Per-layer totals: spans seen, summed duration and summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl std::ops::AddAssign for LayerTime {
    fn add_assign(&mut self, other: LayerTime) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

impl LayerTime {
    /// Mean self time per span, in nanoseconds.
    pub fn self_mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in list order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let dur = s.end_ns - s.start_ns;
            match children.get_mut(&(i as u32)) {
                Some(kids) => dur - covered(kids, s.start_ns, s.end_ns),
                None => dur,
            }
        })
        .collect()
}

/// Self and total time summed per layer name.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += own;
    }
    out
}

/// Durations of every span named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Spans::default();
        let root = t.push("root", None, 0, 100);
        t.push("a", Some(root), 10, 40);
        // Overlaps `a` by 10 ns: the union of the children is 10..60.
        t.push("b", Some(root), 30, 60);
        assert_eq!(self_times(&t.spans), vec![50, 30, 30]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut t = Spans::default();
        let root = t.push("root", None, 100, 200);
        t.push("early", Some(root), 50, 120);
        t.push("late", Some(root), 190, 260);
        t.push("outside", Some(root), 300, 400);
        assert_eq!(self_times(&t.spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn ledger_sums_per_layer_and_grandchildren_only_charge_their_parent() {
        let mut t = Spans::default();
        for base in [0u64, 1000] {
            let root = t.push("call", None, base, base + 100);
            let run = t.push("run", Some(root), base + 20, base + 80);
            t.push("sort", Some(run), base + 30, base + 70);
        }
        let l = ledger(&t.spans);
        assert_eq!(
            l["call"],
            LayerTime {
                count: 2,
                total_ns: 200,
                self_ns: 80
            }
        );
        assert_eq!(
            l["run"],
            LayerTime {
                count: 2,
                total_ns: 120,
                self_ns: 40
            }
        );
        assert_eq!(l["sort"].self_ns, 80);
        // The self times tile the root spans exactly.
        let tiled: u64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(tiled, l["call"].total_ns);
        assert_eq!(l["call"].self_mean_ns(), 40.0);
    }

    #[test]
    fn reversed_stamps_become_empty_spans() {
        let mut t = Spans::default();
        t.push("x", None, 50, 40);
        assert_eq!(durations(&t.spans, "x"), vec![0.0]);
    }
}
