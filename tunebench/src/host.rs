//! Host-speed references, timed by the benchmark with standard-library
//! code only, next to each measurement of the program.
//!
//! On a shared host the speed of a core moves by up to 2× from minute to
//! minute (other tenants' load, not the program), in CPU time as much as
//! in wall time. The end-to-end throughput and latency figures are
//! therefore scaled to a nominal host: each round's figure is multiplied
//! by how much slower or faster a reference ran right next to it than it
//! runs on the nominal host. The references use no code of the
//! repository, so a change to the program moves the scaled figures as
//! it moves the raw ones.
//!
//! * [`Reference`]: compute. A naive search of the served query in the
//!   served corpus, or a stand-in for a tuned sort call on a fixed sample
//!   of the workload's inputs; median of batches in thread CPU time.
//!   A tuned call of a µs-scale sort spends most of its time in a batch
//!   that re-runs the sort until 32 clock steps have passed, and that
//!   part slows down less than plain compute when the host does (on a
//!   slow spell, 1.65× against 2.2× for a bare sort). The stand-in has
//!   the same shape, so it slows down as the call does.
//! * [`NullServer`]: wake-ups. A loopback echo thread that polls its
//!   socket and sleeps 100 µs whenever an iteration moved no bytes, like
//!   a sleeping poll loop; the same open-loop generator drives it.

use crate::kernels::{median_ns, run_in, REPS};
use crate::loadgen::{set_timer_slack, DEFAULT_TIMER_SLACK_NS};
use crate::trace::now_ns;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

// The nominal times below were measured on a shared 2-vCPU Sapphire
// Rapids KVM guest: the search and the null server during one of its
// fast spells, the timed sort during a slow one. Any fixed values would do; they only set the
// unit of the scaled figures.

/// µs of one search of the paper query in the 64 KiB served corpus on
/// the nominal host.
pub const NOMINAL_SEARCH_US: f64 = 160.0;
/// Mean µs of one [`Reference::timed_sort`] call on the fixed sample of
/// `sort-embedded`'s inputs on the nominal host.
pub const NOMINAL_TIMED_SORT_US: f64 = 6.3;
/// p50 µs of the [`NullServer`] round trip at the served open-loop rate
/// on the nominal host.
pub const NOMINAL_NULL_P50_US: f64 = 95.0;

/// Calls per timed batch of the search reference.
const SEARCH_BATCH: usize = 4;
/// Wall time a timed sort batch must span: about 32 steps of the clock
/// resolution `autotune::robust` measures on a 2-vCPU KVM guest (39–58
/// ns). A constant, so the reference does not take on that
/// measurement's noise from process to process.
const TARGET_NS: u64 = 2_000;
/// Most sorts in one timed batch.
const MAX_BATCH: usize = 1024;

/// A compute reference and its time on the nominal host.
pub enum Reference {
    Search {
        pattern: Vec<u8>,
        text: Vec<u8>,
    },
    /// Per input: count its ascending runs, bump the run count's entry
    /// in a locked map, then copy and `sort_unstable` it in doubling
    /// batches until a batch spans [`TARGET_NS`].
    TimedSort {
        inputs: Vec<Vec<u64>>,
        slots: Mutex<HashMap<usize, u64>>,
    },
}

/// Copy `x` into `buf` and sort it, in doubling batches until one spans
/// `target_ns`.
fn timed_sort(x: &[u64], buf: &mut Vec<u64>, target_ns: u64) {
    let mut batch = 1;
    loop {
        let t0 = now_ns();
        for _ in 0..batch {
            buf.clear();
            buf.extend_from_slice(x);
            black_box(&mut *buf).sort_unstable();
        }
        if now_ns() - t0 >= target_ns || batch >= MAX_BATCH {
            return;
        }
        batch *= 2;
    }
}

/// Occurrences of `pattern` in `text`, by comparing every window.
pub fn naive_count(pattern: &[u8], text: &[u8]) -> usize {
    if pattern.is_empty() || pattern.len() > text.len() {
        return 0;
    }
    text.windows(pattern.len())
        .filter(|w| *w == pattern)
        .count()
}

impl Reference {
    pub fn search(pattern: &[u8], text: &[u8]) -> Reference {
        Reference::Search {
            pattern: pattern.to_vec(),
            text: text.to_vec(),
        }
    }

    /// The stand-in for tuned sort calls on `inputs`: pass the same
    /// fixed sample in every run, so the reference measures the host, not
    /// the run's seed.
    pub fn timed_sort(inputs: Vec<Vec<u64>>) -> Reference {
        Reference::TimedSort {
            inputs,
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn nominal_us(&self) -> f64 {
        match self {
            Reference::Search { .. } => NOMINAL_SEARCH_US,
            Reference::TimedSort { .. } => NOMINAL_TIMED_SORT_US,
        }
    }

    /// Run one batch; returns the reference operations it made.
    fn batch(&self, scratch: &mut Vec<u64>) -> usize {
        match self {
            Reference::Search { pattern, text } => {
                for _ in 0..SEARCH_BATCH {
                    black_box(naive_count(black_box(pattern), black_box(text)));
                }
                SEARCH_BATCH
            }
            Reference::TimedSort { inputs, slots } => {
                for x in inputs {
                    let runs = 1 + x.windows(2).filter(|w| w[1] < w[0]).count();
                    *slots.lock().expect("no panics").entry(runs).or_default() += 1;
                    timed_sort(x, scratch, TARGET_NS);
                }
                inputs.len()
            }
        }
    }

    /// µs of one reference operation, timed now: an untimed run-in, then
    /// the median of [`REPS`] batches in thread CPU time.
    pub fn time_us(&self) -> f64 {
        let mut scratch = Vec::with_capacity(512);
        run_in(|| {
            self.batch(&mut scratch);
        });
        let ops = self.batch(&mut scratch);
        median_ns(REPS, || {
            self.batch(&mut scratch);
        }) / 1e3
            / ops as f64
    }

    /// How much slower than the nominal host the reference runs now:
    /// `> 1` on a slow host. Multiply a rate by it, divide a time by it.
    pub fn slowdown(&self) -> f64 {
        self.time_us() / self.nominal_us()
    }
}

/// Idle sleep of the null server's poll loop.
const NULL_IDLE_SLEEP: Duration = Duration::from_micros(100);

/// A loopback echo thread: returns every byte it reads, and sleeps
/// [`NULL_IDLE_SLEEP`] whenever a poll iteration moved no bytes.
pub struct NullServer {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl NullServer {
    pub fn start() -> std::io::Result<NullServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::spawn(move || {
            set_timer_slack(DEFAULT_TIMER_SLACK_NS);
            echo(&listener, &stop2)
        });
        Ok(NullServer { addr, stop, thread })
    }

    /// Stop the thread and wait for it.
    pub fn finish(self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("null server thread panicked")
    }
}

fn echo(listener: &TcpListener, stop: &AtomicBool) -> std::io::Result<()> {
    let mut conn: Option<TcpStream> = None;
    let mut buf = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut moved = false;
        if conn.is_none() {
            match listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    s.set_nodelay(true)?;
                    conn = Some(s);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        let mut closed = false;
        if let Some(s) = conn.as_mut() {
            loop {
                match s.read(&mut buf) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => {
                        pending.extend_from_slice(&buf[..n]);
                        moved = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let mut written = 0;
            while written < pending.len() {
                match s.write(&pending[written..]) {
                    Ok(n) => {
                        written += n;
                        moved = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            pending.drain(..written);
        }
        if closed {
            conn = None;
            pending.clear();
        }
        if !moved {
            std::thread::sleep(NULL_IDLE_SLEEP);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_count_counts_overlapping_occurrences() {
        assert_eq!(naive_count(b"aa", b"aaaa"), 3);
        assert_eq!(naive_count(b"ab", b"xabyab"), 2);
        assert_eq!(naive_count(b"abc", b"ab"), 0);
        assert_eq!(naive_count(b"", b"ab"), 0);
    }

    #[test]
    fn timed_sort_sorts_and_spans_the_target() {
        let x: Vec<u64> = (0..40).rev().collect();
        let mut buf = Vec::new();
        let t0 = now_ns();
        timed_sort(&x, &mut buf, 20_000);
        assert!(now_ns() - t0 >= 20_000);
        assert!(buf.windows(2).all(|w| w[0] <= w[1]) && buf.len() == 40);
    }

    #[test]
    fn null_server_echoes_bytes_back() {
        let server = NullServer::start().unwrap();
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.write_all(b"hello").unwrap();
        let mut got = [0u8; 5];
        s.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello");
        drop(s);
        server.finish().unwrap();
    }
}
