//! Open-loop load generation over one connection from one thread.
//!
//! Arrivals are a Poisson process drawn from the run's seed. Each request
//! is timed from its *due* time, so a stall that delays later sends is
//! charged to them. The generator never spins: between events it blocks
//! in `ppoll` on the socket with the next due time as the timeout, so it
//! wakes either for a response or to send, and a core stays free for the
//! server. The server sees only the pre-generated request frames.

use crate::check::{response_ok, Expect};
use crate::trace::now_ns;
use crate::{median, quantile};
use autotune::rng::Rng;
use autotune::serve::protocol::{self, Parse};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A request sent later than this after its due time counts as late.
pub const LATE_NS: u64 = 100_000;

/// How long a phase waits for outstanding responses after its last send
/// before counting them as failed.
const DRAIN_TIMEOUT_NS: u64 = 10_000_000_000;

/// Due offsets (ns from the phase start) of a Poisson arrival process at
/// `rate` requests/s over `seconds`. The same seed gives the same
/// schedule.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

/// Rungs of a rate ladder, each 1.25× the one below.
pub const LADDER_RUNGS: usize = 16;

/// The fixed rate ladder starting at `base` requests/s.
pub fn ladder(base: f64) -> Vec<f64> {
    (0..LADDER_RUNGS)
        .map(|k| base * 1.25f64.powi(k as i32))
        .collect()
}

/// Fewest samples a window needs to count in [`windowed_quantile`].
const MIN_WINDOW_SAMPLES: usize = 200;

/// Quantile `q` of `lat` per window of `window_ns` (by the sample's
/// stamp in `at`), then the median over the windows. A burst of host
/// stalls moves one window's tail, not the reported figure. Falls back
/// to the plain quantile when no window has enough samples.
pub fn windowed_quantile(at: &[u64], lat: &[f64], window_ns: u64, q: f64) -> f64 {
    let Some(&first) = at.iter().min() else {
        return f64::NAN;
    };
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (&t, &l) in at.iter().zip(lat) {
        let w = ((t - first) / window_ns) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(l);
    }
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .map(|w| quantile(w, q))
        .collect();
    if per_window.is_empty() {
        quantile(lat, q)
    } else {
        median(&per_window)
    }
}

/// Events per second in each full window of `window_ns` after the first
/// stamp, median over the windows (the overall rate if the stamps span
/// less than two windows).
pub fn windowed_rate(stamps: &[u64], window_ns: u64) -> f64 {
    let (Some(&first), Some(&last)) = (stamps.iter().min(), stamps.iter().max()) else {
        return 0.0;
    };
    let full = ((last - first) / window_ns) as usize;
    if full < 2 {
        return stamps.len() as f64 / ((last - first).max(1) as f64 / 1e9);
    }
    let mut counts = vec![0.0; full];
    for &t in stamps {
        if let Some(c) = counts.get_mut(((t - first) / window_ns) as usize) {
            *c += 1.0;
        }
    }
    median(&counts) / (window_ns as f64 / 1e9)
}

/// The outcome of one rate on a ladder.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    pub pass: bool,
    /// The rung's (windowed) p99, µs.
    pub p99_us: f64,
    /// The rate achieved, requests/s.
    pub rate: f64,
}

/// The highest rate on `ladder` (ascending) that meets `limit_us`,
/// found by bisection: `run(i)` measures rung `i`. The answer is
/// interpolated between the highest passing and the lowest failing rung
/// where the log of their p99s crosses the limit, so it moves smoothly
/// with capacity instead of jumping between rungs.
pub fn ladder_search(
    ladder: &[f64],
    limit_us: f64,
    mut run: impl FnMut(usize) -> std::io::Result<Rung>,
) -> std::io::Result<f64> {
    let (mut lo, mut hi) = (0, ladder.len());
    let mut seen = std::collections::BTreeMap::new();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let r = run(mid)?;
        if r.pass {
            lo = mid + 1;
        } else {
            hi = mid;
        }
        seen.insert(mid, r);
    }
    let pass = lo.checked_sub(1).and_then(|i| seen.get(&i));
    Ok(match (pass, seen.get(&lo)) {
        (Some(p), Some(f)) => {
            let span = (f.p99_us.ln() - p.p99_us.ln()).max(f64::MIN_POSITIVE);
            let frac = ((limit_us.ln() - p.p99_us.ln()) / span).clamp(0.0, 1.0);
            p.rate + frac * (f.rate - p.rate).max(0.0)
        }
        (Some(p), None) => p.rate,
        (None, Some(f)) => f.rate * (limit_us / f.p99_us).min(1.0),
        (None, None) => 0.0,
    })
}

/// Pre-framed requests with the response each must produce.
#[derive(Default)]
pub struct Requests {
    bytes: Vec<u8>,
    ranges: Vec<(usize, usize)>,
    pub expect: Vec<Expect>,
}

impl Requests {
    pub fn push(&mut self, op: u8, payload: &[u8], expect: Expect) {
        let start = self.bytes.len();
        protocol::write_frame(&mut self.bytes, op, payload);
        self.ranges.push((start, self.bytes.len()));
        self.expect.push(expect);
    }

    fn frame(&self, i: usize) -> &[u8] {
        let (a, b) = self.ranges[i % self.ranges.len()];
        &self.bytes[a..b]
    }

    fn expect_of(&self, i: usize) -> &Expect {
        &self.expect[i % self.expect.len()]
    }
}

/// Client-side stamps of one phase, index-aligned per request.
#[derive(Default)]
pub struct Phase {
    pub due_ns: Vec<u64>,
    pub send_ns: Vec<u64>,
    pub recv_ns: Vec<u64>,
    /// Requests whose response was wrong, an error frame, or missing.
    pub failed: u64,
    /// First and last clock reading of the phase.
    pub begin_ns: u64,
    pub end_ns: u64,
}

impl Phase {
    /// Latency of each answered request from its due time, in µs.
    pub fn latency_us(&self) -> Vec<f64> {
        self.recv_ns
            .iter()
            .zip(&self.due_ns)
            .filter(|(&r, _)| r != 0)
            .map(|(&r, &d)| r.saturating_sub(d) as f64 / 1e3)
            .collect()
    }

    /// Quantile `q` of the answered requests' latency (µs, from due),
    /// per window of `window_s` seconds of due time, median over windows.
    pub fn windowed_latency_us(&self, window_s: f64, q: f64) -> f64 {
        let (at, lat): (Vec<u64>, Vec<f64>) = self
            .recv_ns
            .iter()
            .zip(&self.due_ns)
            .filter(|(&r, _)| r != 0)
            .map(|(&r, &d)| (d, r.saturating_sub(d) as f64 / 1e3))
            .unzip();
        windowed_quantile(&at, &lat, (window_s * 1e9) as u64, q)
    }

    /// How late each request was sent after its due time, in µs.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.send_ns
            .iter()
            .zip(&self.due_ns)
            .map(|(&s, &d)| s.saturating_sub(d) as f64 / 1e3)
            .collect()
    }

    /// Answered requests per second of phase wall time.
    pub fn completed_rps(&self) -> f64 {
        let done = self.recv_ns.iter().filter(|&&r| r != 0).count();
        done as f64 / ((self.end_ns - self.begin_ns).max(1) as f64 / 1e9)
    }
}

pub use poll::{precise_timers, set_timer_slack, DEFAULT_TIMER_SLACK_NS};

/// A nonblocking client connection with its own framing buffers.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rlen: usize,
    roff: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Application requests sent over this connection so far; the server
    /// handles them in this order, which joins server and client stamps.
    pub sent: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        precise_timers();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: vec![0; 1 << 16],
            rlen: 0,
            roff: 0,
            wbuf: Vec::with_capacity(1 << 16),
            wpos: 0,
            sent: 0,
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    fn fill(&mut self) -> std::io::Result<()> {
        loop {
            if self.roff > 0 && self.roff == self.rlen {
                self.roff = 0;
                self.rlen = 0;
            }
            if self.rlen == self.rbuf.len() {
                self.rbuf.copy_within(self.roff..self.rlen, 0);
                self.rlen -= self.roff;
                self.roff = 0;
                if self.rlen == self.rbuf.len() {
                    self.rbuf.resize(self.rbuf.len() * 2, 0);
                }
            }
            match self.stream.read(&mut self.rbuf[self.rlen..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.rlen += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete response frame, as `(op, payload range)`.
    fn next_frame(&mut self) -> std::io::Result<Option<(u8, usize, usize)>> {
        match protocol::parse_frame(&self.rbuf[self.roff..self.rlen]) {
            Parse::Incomplete => Ok(None),
            Parse::Malformed => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "malformed frame from server",
            )),
            Parse::Ready(f) => {
                let (a, b) = (self.roff + f.payload.0, self.roff + f.payload.1);
                self.roff += f.wire_len;
                Ok(Some((f.op, a, b)))
            }
        }
    }

    /// Block until the socket is readable (or writable, while output is
    /// pending) or the clock reaches `until_ns`.
    fn wait(&self, until_ns: Option<u64>) -> std::io::Result<()> {
        let timeout = until_ns.map(|t| t.saturating_sub(now_ns()));
        if timeout == Some(0) {
            return Ok(());
        }
        poll::wait(&self.stream, self.wpos < self.wbuf.len(), timeout)
    }

    /// One ping-pong request outside any phase (probes); returns the
    /// round trip in ns and the response opcode.
    pub fn round_trip(&mut self, op: u8, payload: &[u8]) -> std::io::Result<(u64, u8)> {
        let t0 = now_ns();
        protocol::write_frame(&mut self.wbuf, op, payload);
        self.flush()?;
        loop {
            self.fill()?;
            if let Some((code, _, _)) = self.next_frame()? {
                return Ok((now_ns() - t0, code));
            }
            self.wait(None)?;
        }
    }
}

/// How a phase issues requests.
pub enum Pace<'a> {
    /// Open loop: request `i` is due at `start + due[i]`.
    Open { due: &'a [u64] },
    /// Saturation: keep `window` requests in flight until `seconds`
    /// have passed (never, for `None`) or `limit` requests were sent,
    /// then drain.
    Window {
        window: usize,
        seconds: Option<f64>,
        limit: usize,
    },
}

impl Pace<'_> {
    /// When a phase that began at `begin_ns` stops sending new requests;
    /// `None` for a phase limited only by its request count.
    fn send_deadline(&self, begin_ns: u64) -> Option<u64> {
        match *self {
            Pace::Open { .. } => None,
            Pace::Window { seconds, .. } => {
                seconds.map(|s| begin_ns.saturating_add((s * 1e9) as u64))
            }
        }
    }
}

/// Drive one phase over `conn`. Request `i` of the phase is request
/// `(offset + i) % len` of `reqs`; every response is checked.
pub fn drive(
    conn: &mut Conn,
    reqs: &Requests,
    offset: usize,
    pace: Pace,
) -> std::io::Result<Phase> {
    let begin = now_ns();
    let total = match pace {
        Pace::Open { due } => due.len(),
        Pace::Window { limit, .. } => limit,
    };
    let stop_sending = pace.send_deadline(begin);
    let sending = |now: u64| stop_sending.is_none_or(|t| now < t);
    let mut ph = Phase {
        begin_ns: begin,
        ..Phase::default()
    };
    let mut received = 0usize;
    let mut last_progress = begin;
    loop {
        let now = now_ns();
        // Queue everything that is due.
        let mut queued = false;
        while ph.send_ns.len() < total && sending(now) {
            let i = ph.send_ns.len();
            let due = match pace {
                Pace::Open { due } => begin + due[i],
                Pace::Window { window, .. } => {
                    if i - received >= window {
                        break;
                    }
                    now
                }
            };
            if due > now {
                break;
            }
            conn.wbuf.extend_from_slice(reqs.frame(offset + i));
            ph.due_ns.push(due);
            ph.send_ns.push(now);
            ph.recv_ns.push(0);
            queued = true;
        }
        if queued {
            conn.flush()?;
        }
        let sent = ph.send_ns.len();
        let finished_sending = sent == total || !sending(now);
        if finished_sending && received == sent {
            break;
        }
        // Progress stalls only while a response is outstanding.
        if received == sent {
            last_progress = now;
        }
        let give_up = last_progress + DRAIN_TIMEOUT_NS;
        if now > give_up {
            ph.failed += (sent - received) as u64;
            break;
        }
        // Sleep until a response arrives or the next send is due.
        let next_due = match pace {
            Pace::Open { due } if sent < total => begin + due[sent],
            Pace::Window { .. } if !finished_sending => {
                stop_sending.map_or(give_up, |t| t.min(give_up))
            }
            _ => give_up,
        };
        conn.wait(Some(next_due))?;
        conn.flush()?;
        conn.fill()?;
        let t = now_ns();
        while let Some((op, a, b)) = conn.next_frame()? {
            if received >= sent {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "response without a request",
                ));
            }
            ph.recv_ns[received] = t;
            if !response_ok(reqs.expect_of(offset + received), op, &conn.rbuf[a..b]) {
                ph.failed += 1;
            }
            received += 1;
            last_progress = t;
        }
    }
    conn.sent += ph.send_ns.len() as u64;
    ph.end_ns = now_ns();
    Ok(ph)
}

#[cfg(target_os = "linux")]
mod poll {
    //! `ppoll(2)`, whose timeout has nanosecond resolution; `poll(2)` and
    //! socket read timeouts round to milliseconds or timer ticks, which
    //! is coarser than the gaps between arrivals.
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;

    /// `PR_SET_TIMERSLACK`: how far the kernel may defer this thread's
    /// timer wake-ups to batch them (50 µs by default).
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// The timer slack Linux gives a normal thread of a new process.
    pub const DEFAULT_TIMER_SLACK_NS: u64 = 50_000;

    /// Set the calling thread's timer slack. A thread inherits its
    /// creator's slack, so a server thread started by the generator
    /// thread sets [`DEFAULT_TIMER_SLACK_NS`], as a deployed server runs.
    /// Best effort.
    pub fn set_timer_slack(ns: u64) {
        // SAFETY: `PR_SET_TIMERSLACK` takes one unsigned long argument
        // and touches only the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, ns as c_ulong) };
    }

    /// Ask for 1 ns timer slack on the calling thread, so a sleep ends
    /// at its deadline instead of up to 50 µs later.
    pub fn precise_timers() {
        set_timer_slack(1);
    }

    pub fn wait(
        stream: &TcpStream,
        writable: bool,
        timeout_ns: Option<u64>,
    ) -> std::io::Result<()> {
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN | if writable { POLLOUT } else { 0 },
            revents: 0,
        };
        let ts = timeout_ns.map(|ns| Timespec {
            tv_sec: (ns / 1_000_000_000) as c_long,
            tv_nsec: (ns % 1_000_000_000) as c_long,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fd` and `ts` are live, properly laid out `pollfd` and
        // `timespec` values for the whole call; `nfds` is 1, matching the
        // single `pollfd`; a null sigmask leaves the signal mask alone.
        let rc = unsafe { ppoll(&mut fd, 1, ts_ptr, std::ptr::null()) };
        if rc < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(11, 2000.0, 2.0);
        assert_eq!(a, poisson_schedule(11, 2000.0, 2.0));
        assert_ne!(a, poisson_schedule(12, 2000.0, 2.0));
    }

    #[test]
    fn schedule_is_sorted_within_horizon_at_the_asked_rate() {
        let due = poisson_schedule(3, 5000.0, 4.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 4_000_000_000);
        let rate = due.len() as f64 / 4.0;
        assert!((rate - 5000.0).abs() < 5000.0 * 0.03, "{rate}");
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let mean = 1e9 / 5000.0;
        let long = due
            .windows(2)
            .filter(|w| (w[1] - w[0]) as f64 > mean)
            .count();
        let share = long as f64 / (due.len() - 1) as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.02, "{share}");
    }

    #[test]
    fn windowed_quantile_ignores_one_stalled_window() {
        let at: Vec<u64> = (0..3000u64).map(|i| i * 1_000_000).collect();
        // Three 1-s windows; the middle one is all stalls.
        let lat: Vec<f64> = (0..3000)
            .map(|i| {
                if (1000..2000).contains(&i) {
                    5000.0
                } else {
                    100.0
                }
            })
            .collect();
        assert_eq!(windowed_quantile(&at, &lat, 1_000_000_000, 0.99), 100.0);
        assert_eq!(
            windowed_quantile(&at[..50], &lat[..50], 1_000_000_000, 0.5),
            100.0
        );
    }

    fn rung(pass: bool, p99_us: f64, rate: f64) -> Rung {
        Rung { pass, p99_us, rate }
    }

    #[test]
    fn ladder_search_bisects_and_interpolates_at_the_limit() {
        let ladder = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        let mut tried = Vec::new();
        // Capacity between 16 and 32: p99 100 µs below, 10 ms above.
        let max = ladder_search(&ladder, 1000.0, |i| {
            tried.push(i);
            let r = ladder[i];
            Ok(if r <= 16.0 {
                rung(true, 100.0, r)
            } else {
                rung(false, 10_000.0, r)
            })
        })
        .unwrap();
        assert!(tried.len() <= 4, "{tried:?}");
        // The limit sits halfway between the two p99s in log space.
        assert!((max - 24.0).abs() < 1e-9, "{max}");
        let all_pass = ladder_search(&ladder, 1000.0, |i| Ok(rung(true, 10.0, ladder[i]))).unwrap();
        assert_eq!(all_pass, 128.0);
        let none = ladder_search(&ladder, 1000.0, |i| Ok(rung(false, 4000.0, ladder[i]))).unwrap();
        assert_eq!(none, 0.25);
    }

    #[test]
    fn windowed_rate_takes_the_median_full_window() {
        // 10 events/s for 3 s, a 1-s gap, then 10/s for 2 s more.
        let mut t: Vec<u64> = (0..30).map(|i| i * 100_000_000).collect();
        t.extend((0..20).map(|i| 4_000_000_000 + i * 100_000_000));
        assert_eq!(windowed_rate(&t, 1_000_000_000), 10.0);
        assert_eq!(windowed_rate(&t[..5], 1_000_000_000), 5.0 / 0.4);
    }

    #[test]
    fn a_window_phase_limited_by_count_has_no_deadline() {
        let limit = Pace::Window {
            window: 8,
            seconds: None,
            limit: 100,
        };
        assert_eq!(limit.send_deadline(u64::MAX - 1), None);
        let timed = Pace::Window {
            window: 8,
            seconds: Some(f64::INFINITY),
            limit: 100,
        };
        assert_eq!(timed.send_deadline(5), Some(u64::MAX));
        let open = Pace::Open { due: &[] };
        assert_eq!(open.send_deadline(5), None);
    }

    /// Answers every `OP_MATCH` with the count 7.
    struct Seven;

    impl autotune::serve::RequestHandler for Seven {
        fn handle(&mut self, op: u8, _payload: &[u8], out: &mut Vec<u8>) -> bool {
            protocol::write_frame(out, op, &7u32.to_le_bytes());
            true
        }
    }

    #[test]
    fn a_count_limited_window_phase_sends_its_limit() {
        use autotune::serve::{serve, ServeConfig, StopFlag};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = StopFlag::new();
        let stop2 = stop.clone();
        let server = std::thread::spawn(move || {
            serve(listener, &mut Seven, &ServeConfig::default(), &stop2).unwrap()
        });
        let mut reqs = Requests::default();
        reqs.push(protocol::OP_MATCH, b"q", Expect::Match(7));
        reqs.push(protocol::OP_MATCH, b"q", Expect::Match(8));
        let mut conn = Conn::connect(addr).unwrap();
        let pace = Pace::Window {
            window: 16,
            seconds: None,
            limit: 500,
        };
        let ph = drive(&mut conn, &reqs, 0, pace).unwrap();
        drop(conn);
        stop.stop();
        server.join().unwrap();
        assert_eq!(ph.send_ns.len(), 500);
        assert!(ph.recv_ns.iter().all(|&r| r != 0));
        // Every second request expects 8 and gets 7.
        assert_eq!(ph.failed, 250);
    }

    #[test]
    fn phase_latency_counts_from_due_and_skips_unanswered() {
        let ph = Phase {
            due_ns: vec![1_000, 2_000, 3_000],
            send_ns: vec![1_000, 2_500, 3_000],
            recv_ns: vec![11_000, 4_500, 0],
            failed: 1,
            begin_ns: 0,
            end_ns: 1_000_000_000,
        };
        assert_eq!(ph.latency_us(), vec![10.0, 2.5]);
        assert_eq!(ph.lateness_us(), vec![0.0, 0.5, 0.0]);
        assert_eq!(ph.completed_rps(), 2.0);
    }
}
