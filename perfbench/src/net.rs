//! `net-open`: a real `eirs serve --listen` child process driven over
//! loopback by an open-loop generator.
//!
//! The generator sends independent job arrivals on a precomputed Poisson
//! schedule at each rate of a fixed ladder, over 2 connections from one
//! thread, and times every request from its **intended** send time, so a
//! stall is charged to every request it delays (coordinated-omission
//! correction). The server runs with `--shed true`, so overload shows up
//! as refused requests instead of an unbounded backlog.
//!
//! Gates: the server's report balances its accounting with no protocol
//! or journal errors, every request is answered at most once, and
//! `eirs serve --replay-journal` reproduces the live decision digest.
//! A watchdog kills a server that stops answering; its unanswered
//! requests count as failed.

use crate::util::{self, gate, median, quantile_sorted, PartReport};
use crate::{Part, PartArgs};
use eirs_repro::net::protocol::{encode_frame, read_frame, read_magic, write_frame, write_magic};
use eirs_repro::net::{BoundedQueue, Frame};
use eirs_repro::queueing::Exponential;
use eirs_repro::serve::{CompiledTable, EngineConfig, JournalWriter, ServeEngine};
use eirs_repro::sim::{Arrival, ArrivalSource, PoissonStream};
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Policy served.
pub const POLICY: &str = "curve:2+0.5i";
/// Servers per route shard.
pub const K: u32 = 4;
/// Route shards.
pub const ROUTE_SHARDS: usize = 8;
/// Offered rates in requests per second, lowest first. The lowest is the
/// reference rate `net.p50_us`, `net.p90_us` and `net.p99_us` are
/// measured at. On the 2-vCPU host the ladder was fixed on, the server's
/// capacity wanders between about 110k and 200k req/s with the host's
/// load, so no rung sits between 50k and twice that band's top: a rung
/// there would pass or fail with the host's load and `net.max_rps` would
/// jump between rungs. Nor does any rung sit far below 20k: a server idle
/// between requests mostly measures how fast the virtual machine wakes an
/// idle CPU.
pub const LADDER_RPS: [f64; 4] = [20_000.0, 50_000.0, 400_000.0, 600_000.0];
/// Share of the ladder's time spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.4;
/// Each rung's requests are cut into this many equal windows. A rung's
/// pass conditions use the median of the windows' quantiles, so one host
/// stall moves them by one window at most; the reported reference-rate
/// quantiles are the best window's (see `util::best_time`).
pub const WINDOWS: usize = 8;
/// A rung meets the latency limit when its p99, refused and unanswered
/// requests counted as infinitely late, is at most this.
pub const P99_LIMIT_US: f64 = 10_000.0;
/// A rung meets the failure limit when at most this share of its
/// requests was refused or went unanswered.
pub const FAIL_LIMIT: f64 = 0.001;
/// A rung kept its schedule when the generator's p99 send lateness is at
/// most this.
pub const LATE_LIMIT_US: f64 = 5_000.0;
/// The server kept up with a rung when it delivered at least this share
/// of the offered rate. Without it a short overload burst could pass: its
/// backlog can drain before the latency limit is reached.
pub const KEEP_UP: f64 = 0.75;
/// Per-class model arrival rate carried in the frames (per-shard load 0.7
/// at unit service rates); the wall schedule rescales its gaps.
const LAMBDA_PER_CLASS: f64 = 0.7 * K as f64 * ROUTE_SHARDS as f64 / 2.0;
/// Connections the generator opens.
const CONNECTIONS: usize = 2;
/// Set-up-only server launches per slice, besides the measured ones.
const SETUP_REPS_PER_SLICE: usize = 4;
/// Rungs offered at most this rate are the service envelope: `ok_frac`
/// counts their requests only, since what an overloaded server refuses
/// depends on how far its backlog happened to grow.
pub const NOMINAL_MAX_RATE: f64 = 50_000.0;
/// The watchdog: a rung whose requests are not all answered this long
/// after its last scheduled send has a hung server.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest wait for a server to start or exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

/// `ppoll` and `prctl` from the C library (Linux only): one thread waits
/// on both sockets and the next send time at once, with a 1 ns timer
/// slack so sends leave on schedule.
mod sys {
    use std::os::fd::RawFd;

    #[repr(C)]
    struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn prctl(option: i32, ...) -> i32;
    }

    /// Sets this thread's timer slack to 1 ns.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // touches no memory of ours.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }

    /// Waits until a socket in `fds` is readable (or writable, where its
    /// flag is set) or `timeout_ns` passes. Negative descriptors are
    /// skipped; interrupted waits return early.
    pub fn wait<const N: usize>(fds: [(RawFd, bool); N], timeout_ns: u64) {
        let mut polls = fds.map(|(fd, want_write)| PollFd {
            fd,
            events: POLLIN | if want_write { POLLOUT } else { 0 },
            revents: 0,
        });
        let timeout = Timespec {
            tv_sec: (timeout_ns / 1_000_000_000) as i64,
            tv_nsec: (timeout_ns % 1_000_000_000) as i64,
        };
        // SAFETY: `polls` is a live array of `N` pollfd structs laid out
        // as the C struct, `timeout` outlives the call, and a null signal
        // mask leaves the mask unchanged.
        unsafe {
            ppoll(
                polls.as_mut_ptr(),
                N as std::ffi::c_ulong,
                &timeout,
                std::ptr::null(),
            );
        }
    }
}

/// A server child process, killed and reaped on drop. Its files live in
/// the part's scratch directory, which the part removes.
struct Server {
    child: Child,
    wal: PathBuf,
    metrics: Option<PathBuf>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Launches `eirs serve --listen` and completes both handshakes.
    /// Returns the server, its connections, and the set-up time (spawn to
    /// both handshakes echoed).
    fn start(
        eirs: &Path,
        dir: &Path,
        tag: &str,
        metrics: bool,
    ) -> Result<(Self, Vec<TcpStream>, f64), String> {
        let addr_file = dir.join(format!("{tag}.addr"));
        let wal = dir.join(format!("{tag}.wal"));
        let metrics = metrics.then(|| dir.join(format!("{tag}.prom")));
        let _ = std::fs::remove_file(&addr_file);
        let t0 = Instant::now();
        let mut cmd = Command::new(eirs);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(["--shed", "true", "--journal"])
            .arg(&wal)
            .args(["--policy", POLICY, "--k", &K.to_string()])
            .args([
                "--route-shards",
                &ROUTE_SHARDS.to_string(),
                "--json",
                "true",
            ]);
        if let Some(m) = &metrics {
            cmd.arg("--metrics-out").arg(m);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", eirs.display()))?;
        let mut server = Self {
            child,
            wal,
            metrics,
        };
        let addr: SocketAddr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    break addr;
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited before listening ({status})"));
            }
            if t0.elapsed() > PROCESS_TIMEOUT {
                return Err("server never wrote its address file".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let mut c = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            c.set_nodelay(true).map_err(|e| e.to_string())?;
            c.set_read_timeout(Some(PROCESS_TIMEOUT))
                .map_err(|e| e.to_string())?;
            write_magic(&mut c).map_err(|e| format!("handshake: {e}"))?;
            conns.push(c);
        }
        for c in &mut conns {
            read_magic(c).map_err(|e| format!("handshake echo: {e}"))?;
        }
        Ok((server, conns, t0.elapsed().as_secs_f64()))
    }

    /// Sends BYE on every connection, reads each to its BYE or EOF, and
    /// waits for the server to exit. Returns its stdout.
    fn finish(mut self, conns: Vec<TcpStream>) -> Result<String, String> {
        for mut c in conns {
            c.set_nonblocking(false).map_err(|e| e.to_string())?;
            write_frame(&mut c, &Frame::Bye).map_err(|e| format!("bye: {e}"))?;
            loop {
                match read_frame(&mut c) {
                    Ok(Some(Frame::Bye)) | Ok(None) => break,
                    Ok(Some(_)) => {}
                    Err(e) => return Err(format!("closing connection: {e}")),
                }
            }
        }
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if t0.elapsed() > PROCESS_TIMEOUT => {
                    return Err("server did not exit after the last connection closed".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(e.to_string()),
            }
        }
        let mut out = String::new();
        if let Some(mut stdout) = self.child.stdout.take() {
            stdout
                .read_to_string(&mut out)
                .map_err(|e| format!("server stdout: {e}"))?;
        }
        Ok(out)
    }
}

/// The raw text after `"key": ` in the server's JSON report.
fn json_field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let at = doc.find(&pat)? + pat.len();
    Some(doc[at..].trim_start())
}

fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let raw = json_field(doc, key)?;
    let end = raw.find(|c: char| !c.is_ascii_digit()).unwrap_or(raw.len());
    raw[..end].parse().ok()
}

fn json_string(doc: &str, key: &str) -> Option<String> {
    let raw = json_field(doc, key)?.strip_prefix('"')?;
    Some(raw[..raw.find('"')?].to_string())
}

/// A Prometheus counter from `--metrics-out` text (absent counters are 0).
fn prom_counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// Outcome of one request.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Pending,
    Decided,
    Refused,
}

/// One generator connection.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    written: u64,
    stamped: u64,
    queued: std::collections::VecDeque<usize>,
    inbuf: Vec<u8>,
    open: bool,
}

/// The open-loop generator and everything it recorded.
struct Generator {
    clock: Instant,
    frame_len: u64,
    arrivals: Vec<Arrival>,
    intended: Vec<u64>,
    sent: Vec<u64>,
    received: Vec<u64>,
    outcome: Vec<Outcome>,
    conns: Vec<Conn>,
    readbuf: Vec<u8>,
    outstanding: usize,
    error_frames: u64,
    duplicates: u64,
}

impl Generator {
    fn new(arrivals: Vec<Arrival>, streams: Vec<TcpStream>) -> Result<Self, String> {
        let n = arrivals.len();
        let conns = streams
            .into_iter()
            .map(|stream| {
                stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                Ok(Conn {
                    stream,
                    out: Vec::new(),
                    out_pos: 0,
                    written: 0,
                    stamped: 0,
                    queued: Default::default(),
                    inbuf: Vec::new(),
                    open: true,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let frame_len = encode_frame(&arrival_frame(0, &arrivals[0])).len() as u64;
        Ok(Self {
            clock: Instant::now(),
            frame_len,
            arrivals,
            intended: vec![0; n],
            sent: vec![u64::MAX; n],
            received: vec![u64::MAX; n],
            outcome: vec![Outcome::Pending; n],
            conns,
            readbuf: vec![0; 1 << 16],
            outstanding: 0,
            error_frames: 0,
            duplicates: 0,
        })
    }

    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Drives requests `lo..hi` at `rate` per second. Returns `false`
    /// when the watchdog fired (requests left unanswered).
    fn drive(&mut self, lo: usize, hi: usize, rate: f64) -> Result<bool, String> {
        let scale = 2.0 * LAMBDA_PER_CLASS / rate * 1e9;
        let t_lo = self.arrivals[lo].time;
        let epoch = self.now() + 1_000_000;
        for i in lo..hi {
            self.intended[i] = epoch + ((self.arrivals[i].time - t_lo) * scale) as u64;
        }
        let deadline = self.intended[hi - 1] + DRAIN_TIMEOUT.as_nanos() as u64;
        let mut next = lo;
        loop {
            let now = self.now();
            while next < hi && self.intended[next] <= now {
                let c = &mut self.conns[next % CONNECTIONS];
                write_frame(&mut c.out, &arrival_frame(next, &self.arrivals[next]))
                    .map_err(|e| e.to_string())?;
                c.queued.push_back(next);
                self.outstanding += 1;
                next += 1;
            }
            self.flush()?;
            self.receive()?;
            if next == hi && self.outstanding == 0 {
                return Ok(true);
            }
            let now = self.now();
            if now > deadline {
                return Ok(false);
            }
            let wait = if next < hi {
                self.intended[next].saturating_sub(now)
            } else {
                1_000_000
            };
            if wait > 0 {
                let fds: [_; CONNECTIONS] = std::array::from_fn(|ci| {
                    let c = &self.conns[ci];
                    let fd = if c.open { c.stream.as_raw_fd() } else { -1 };
                    (fd, c.out_pos < c.out.len())
                });
                sys::wait(fds, wait);
            }
        }
    }

    /// Writes queued frames without blocking; stamps each frame's send
    /// time once its last byte is handed to the kernel.
    fn flush(&mut self) -> Result<(), String> {
        for c in &mut self.conns {
            while c.out_pos < c.out.len() {
                match c.stream.write(&c.out[c.out_pos..]) {
                    Ok(0) => return Err("server closed a connection mid-run".into()),
                    Ok(n) => {
                        c.out_pos += n;
                        c.written += n as u64;
                        let now = self.clock.elapsed().as_nanos() as u64;
                        while c.stamped < c.written / self.frame_len {
                            let idx = c.queued.pop_front().expect("stamped frame was queued");
                            self.sent[idx] = now;
                            c.stamped += 1;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
            if c.out_pos == c.out.len() {
                c.out.clear();
                c.out_pos = 0;
            }
        }
        Ok(())
    }

    /// Reads every available byte and handles each complete frame.
    fn receive(&mut self) -> Result<(), String> {
        for ci in 0..self.conns.len() {
            while self.conns[ci].open {
                match self.conns[ci].stream.read(&mut self.readbuf) {
                    Ok(0) => self.conns[ci].open = false,
                    Ok(n) => {
                        let now = self.now();
                        self.conns[ci].inbuf.extend_from_slice(&self.readbuf[..n]);
                        self.parse(ci, now)?;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
        }
        Ok(())
    }

    fn parse(&mut self, ci: usize, now: u64) -> Result<(), String> {
        let mut inbuf = std::mem::take(&mut self.conns[ci].inbuf);
        let mut pos = 0;
        while inbuf.len() - pos >= 4 {
            let len = u16::from_le_bytes([inbuf[pos + 2], inbuf[pos + 3]]) as usize;
            let total = 4 + len + 8;
            if inbuf.len() - pos < total {
                break;
            }
            let frame = read_frame(&mut &inbuf[pos..pos + total])
                .map_err(|e| format!("correctness gate failed: undecodable server frame: {e}"))?;
            pos += total;
            match frame {
                Some(Frame::Decision {
                    req_id, admitted, ..
                }) => {
                    let idx = req_id as usize;
                    if idx >= self.outcome.len() || self.outcome[idx] != Outcome::Pending {
                        self.duplicates += 1;
                        continue;
                    }
                    self.received[idx] = now;
                    self.outcome[idx] = if admitted {
                        Outcome::Decided
                    } else {
                        Outcome::Refused
                    };
                    self.outstanding -= 1;
                }
                Some(Frame::Error(text)) => {
                    eprintln!("net-open: server error frame: {text}");
                    self.error_frames += 1;
                }
                Some(Frame::Bye) | None => self.conns[ci].open = false,
                Some(other) => {
                    return Err(format!(
                        "correctness gate failed: unexpected server frame {other:?}"
                    ))
                }
            }
        }
        inbuf.drain(..pos);
        self.conns[ci].inbuf = inbuf;
        Ok(())
    }

    /// Latency summary of requests `lo..hi`.
    fn rung(&self, lo: usize, hi: usize, rate: f64) -> Rung {
        let us = |ns: u64| ns as f64 / 1e3;
        let q = |v: &mut Vec<u64>, p: f64| {
            v.sort_unstable();
            if v.is_empty() {
                f64::INFINITY
            } else {
                us(quantile_sorted(v, p))
            }
        };
        let width = (hi - lo).div_ceil(WINDOWS);
        let (mut p50, mut p90, mut p99) = (vec![], vec![], vec![]);
        let (mut p99_all, mut late_p99) = (vec![], vec![]);
        let (mut decided, mut refused, mut unanswered) = (0, 0, 0);
        let mut last = self.intended[lo];
        for start in (lo..hi).step_by(width) {
            let (mut ok, mut all, mut late) = (vec![], vec![], vec![]);
            for i in start..(start + width).min(hi) {
                if self.sent[i] != u64::MAX {
                    late.push(self.sent[i].saturating_sub(self.intended[i]));
                }
                match self.outcome[i] {
                    Outcome::Decided => {
                        let lat = self.received[i].saturating_sub(self.intended[i]);
                        ok.push(lat);
                        all.push(lat);
                        last = last.max(self.received[i]);
                    }
                    Outcome::Refused => {
                        refused += 1;
                        all.push(u64::MAX);
                    }
                    Outcome::Pending => {
                        unanswered += 1;
                        all.push(u64::MAX);
                    }
                }
            }
            decided += ok.len();
            p50.push(q(&mut ok, 0.5));
            p90.push(q(&mut ok, 0.9));
            p99.push(q(&mut ok, 0.99));
            p99_all.push(q(&mut all, 0.99));
            late_p99.push(q(&mut late, 0.99));
        }
        let fail_frac = (refused + unanswered) as f64 / (hi - lo) as f64;
        let window = last.saturating_sub(self.intended[lo]) as f64 / 1e9;
        let late_p99 = median(&late_p99);
        let delivered_rps = if window > 0.0 {
            decided as f64 / window
        } else {
            0.0
        };
        Rung {
            rate,
            requests: hi - lo,
            decided,
            refused,
            unanswered,
            p50_us: median(&p50),
            p90_us: median(&p90),
            p99_us: median(&p99),
            best_us: [
                util::best_time(&p50),
                util::best_time(&p90),
                util::best_time(&p99),
            ],
            late_p99_us: late_p99,
            delivered_rps,
            pass: median(&p99_all) <= P99_LIMIT_US
                && fail_frac <= FAIL_LIMIT
                && late_p99 <= LATE_LIMIT_US
                && delivered_rps >= KEEP_UP * rate,
        }
    }
}

fn arrival_frame(idx: usize, a: &Arrival) -> Frame {
    Frame::Arrival {
        req_id: idx as u64,
        class: a.class,
        time: a.time,
        size: a.size,
    }
}

/// Per-rung results.
#[derive(Debug, Clone)]
struct Rung {
    rate: f64,
    requests: usize,
    decided: usize,
    refused: usize,
    unanswered: usize,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    /// Best window's p50, p90 and p99.
    best_us: [f64; 3],
    late_p99_us: f64,
    delivered_rps: f64,
    pass: bool,
}

/// One ladder against one server, with every gate checked.
struct Ladder {
    rungs: Vec<Rung>,
    setup_s: f64,
    sent: u64,
    /// Requests sent and decided in the service envelope.
    nominal: (u64, u64),
    broken: u64,
    server_cpu_s: f64,
    server_rss_mb: f64,
    counters: Option<String>,
    reference: Vec<Arrival>,
}

/// Request counts per rung for a ladder of `budget`. Rungs above the
/// service envelope send no more requests than its top rung: an
/// overloaded server needs longer to answer them than they take to send.
fn rung_sizes(budget: Duration) -> Vec<usize> {
    let secs = budget.as_secs_f64();
    let rest = (1.0 - REFERENCE_SHARE) * secs / (LADDER_RPS.len() - 1) as f64;
    LADDER_RPS
        .iter()
        .enumerate()
        .map(|(r, &rate)| {
            let d = if r == 0 { REFERENCE_SHARE * secs } else { rest };
            ((rate.min(NOMINAL_MAX_RATE) * d) as usize).max(100)
        })
        .collect()
}

fn ladder(args: &PartArgs, budget: Duration, traced: bool) -> Result<Ladder, String> {
    let sizes = rung_sizes(budget);
    let total: usize = sizes.iter().sum();
    let mut source = PoissonStream::new(
        LAMBDA_PER_CLASS,
        LAMBDA_PER_CLASS,
        Box::new(Exponential::new(1.0)),
        Box::new(Exponential::new(1.0)),
        args.seed,
    );
    let arrivals: Vec<Arrival> = (0..total)
        .map(|_| source.next_arrival().expect("Poisson streams never end"))
        .collect();
    let reference = arrivals[..sizes[0]].to_vec();

    let tag = if traced { "traced" } else { "plain" };
    let (server, conns, setup_s) = Server::start(&args.eirs, &args.tmp, tag, traced)?;
    let pid = server.child.id();
    let mut gen = Generator::new(arrivals, conns)?;
    let mut rungs = Vec::new();
    let mut lo = 0;
    let mut hung = false;
    let mut server_rss_mb = 0.0;
    for (&size, &rate) in sizes.iter().zip(&LADDER_RPS) {
        let hi = lo + size;
        let answered = gen.drive(lo, hi, rate)?;
        let rung = gen.rung(lo, hi, rate);
        eprintln!(
            "net-open: {:>8.0} req/s offered: {:>7} sent, {:>7} decided, {:>6} refused, \
             {:>5} unanswered, p50 {:>9.1} us, p90 {:>9.1} us, p99 {:>9.1} us, \
             late p99 {:>8.1} us, \
             delivered {:>9.0} req/s, {}",
            rung.rate,
            rung.requests,
            rung.decided,
            rung.refused,
            rung.unanswered,
            rung.p50_us,
            rung.p90_us,
            rung.p99_us,
            rung.late_p99_us,
            rung.delivered_rps,
            if rung.pass { "pass" } else { "FAIL" }
        );
        rungs.push(rung);
        lo = hi;
        if rungs.len() == 1 {
            // The server's serving footprint at the reference rate.
            server_rss_mb = util::peak_rss_mb(Some(pid)).ok_or("cannot read server VmHWM")?;
        }
        if !answered {
            hung = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let sent = gen.sent.iter().filter(|&&s| s != u64::MAX).count() as u64;
    let nominal = rungs
        .iter()
        .filter(|r| r.rate <= NOMINAL_MAX_RATE)
        .fold((0, 0), |(s, d), r| {
            (s + r.requests as u64, d + r.decided as u64)
        });
    let unanswered = gen.outcome[..lo]
        .iter()
        .filter(|&&o| o == Outcome::Pending)
        .count() as u64;
    let broken = unanswered + gen.error_frames;
    if hung {
        drop(server);
        return Err(format!(
            "correctness gate failed: watchdog killed a hung server: {unanswered} of {sent} \
             requests unanswered {} s after their last scheduled send (counted failed)",
            DRAIN_TIMEOUT.as_secs()
        ));
    }
    gate(gen.duplicates == 0, || {
        format!(
            "{} decisions answered an already-answered request",
            gen.duplicates
        )
    })?;
    let server_cpu_s = util::cpu_seconds(pid).ok_or("cannot read server CPU time")?;
    let conns: Vec<TcpStream> = std::mem::take(&mut gen.conns)
        .into_iter()
        .map(|c| c.stream)
        .collect();
    let wal = server.wal.clone();
    let metrics = server.metrics.clone();
    let report = server.finish(conns)?;
    check_report(args, &report, &wal, sent)?;
    let counters = match &metrics {
        Some(m) => Some(std::fs::read_to_string(m).map_err(|e| format!("{}: {e}", m.display()))?),
        None => None,
    };
    let _ = std::fs::remove_file(&wal);
    Ok(Ladder {
        rungs,
        setup_s,
        sent,
        nominal,
        broken,
        server_cpu_s,
        server_rss_mb,
        counters,
        reference,
    })
}

/// The server-side gates: balanced accounting, no protocol or journal
/// errors, every request seen, and the journal replays to the live digest.
fn check_report(args: &PartArgs, report: &str, wal: &Path, sent: u64) -> Result<(), String> {
    gate(report.contains("\"accounting_balanced\": true"), || {
        "server report does not balance its accounting".into()
    })?;
    gate(json_u64(report, "protocol_errors") == Some(0), || {
        "server reports protocol errors".into()
    })?;
    gate(report.contains("\"journal_errors\": []"), || {
        "server reports journal errors".into()
    })?;
    gate(json_u64(report, "client_arrivals") == Some(sent), || {
        format!(
            "server saw {:?} arrivals, generator sent {sent}",
            json_u64(report, "client_arrivals")
        )
    })?;
    let live = json_string(report, "decision_digest").ok_or("server report has no digest")?;
    let replay = Command::new(&args.eirs)
        .args(["serve", "--replay-journal"])
        .arg(wal)
        .args(["--drain", "true", "--json", "true", "--k", &K.to_string()])
        .args(["--route-shards", &ROUTE_SHARDS.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run journal replay: {e}"))?;
    gate(replay.status.success(), || {
        format!("journal replay exited with {}", replay.status)
    })?;
    let replayed = json_string(&String::from_utf8_lossy(&replay.stdout), "decision_digest");
    gate(replayed.as_deref() == Some(live.as_str()), || {
        format!("journal replays to digest {replayed:?}, live server reported {live}")
    })
}

/// Set-up-only launches: spawn, handshake twice, close.
fn setup_samples(args: &PartArgs, out: &mut Vec<f64>) -> Result<(), String> {
    for rep in 0..SETUP_REPS_PER_SLICE {
        let (server, conns, setup_s) =
            Server::start(&args.eirs, &args.tmp, &format!("setup{rep}"), false)?;
        server.finish(conns)?;
        out.push(setup_s);
    }
    Ok(())
}

/// Times `pass` (one pass = `ops` operations), repeating it for at least
/// 20 ms, and returns nanoseconds per operation.
fn per_op_ns(ops: usize, mut pass: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut done = 0u64;
    while done == 0 || t0.elapsed() < Duration::from_millis(20) {
        pass();
        done += ops as u64;
    }
    t0.elapsed().as_nanos() as f64 / done as f64
}

/// The traced stage replay: the reference rung's arrivals through each
/// stage's public function, one arrival at a time as the server handles
/// them at low load.
fn stage_replay(
    args: &PartArgs,
    arrivals: &[Arrival],
    report: &mut PartReport,
) -> Result<f64, String> {
    let n = arrivals.len();
    let mut wire = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        write_frame(&mut wire, &arrival_frame(i, a)).map_err(|e| e.to_string())?;
    }
    let decode = per_op_ns(n, || {
        let mut cursor = &wire[..];
        while let Some(frame) = read_frame(&mut cursor).expect("frames encoded above") {
            black_box(frame);
        }
    });
    let decisions: Vec<Frame> = (0..n)
        .map(|i| Frame::Decision {
            req_id: i as u64,
            seq: i as u64,
            shard: (i % ROUTE_SHARDS) as u32,
            i: 1,
            j: 2,
            generation: 0,
            alloc_inelastic: 1.0,
            alloc_elastic: 3.0,
            admitted: true,
        })
        .collect();
    let encode = per_op_ns(n, || {
        for d in &decisions {
            black_box(encode_frame(d));
        }
    });
    let queue = BoundedQueue::new(1024);
    let mut drained = Vec::with_capacity(16);
    let handoff = per_op_ns(n, || {
        for a in arrivals {
            queue.push(*a).expect("queue is open");
            queue.drain_into(&mut drained, usize::MAX);
            drained.clear();
        }
    });

    let table = || -> Result<CompiledTable, String> {
        Ok(CompiledTable::compile(
            eirs_repro::core::policy::parse_policy(POLICY)?,
            K,
            64,
            64,
        ))
    };
    let config = EngineConfig::new(K).route_shards(ROUTE_SHARDS);
    let path = args.tmp.join("stage.wal");
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut writer = JournalWriter::create_with_spec(
        std::io::BufWriter::new(file),
        &ServeEngine::new(table()?, config),
        Some(POLICY),
    )
    .map_err(|e| format!("stage journal: {e}"))?;
    let header = util::file_bytes(&path);
    let mut seq = 0u64;
    let append = per_op_ns(n, || {
        for a in arrivals {
            writer
                .append_batch(seq, std::slice::from_ref(a))
                .expect("stage journal append");
            seq += 1;
        }
    });
    writer
        .into_inner()
        .map_err(|e| format!("stage journal close: {e}"))?;
    let bytes_per_arrival = (util::file_bytes(&path) - header) as f64 / seq as f64;
    let _ = std::fs::remove_file(&path);

    let mut engine = ServeEngine::new(table()?, config);
    let mut cursor = 0usize;
    let t_max = arrivals.last().map_or(0.0, |a| a.time);
    let engine_ns = per_op_ns(n, || {
        for a in arrivals {
            // Later passes continue the stream clock past the previous one.
            let shifted = Arrival {
                time: a.time + t_max * cursor as f64,
                ..*a
            };
            black_box(engine.ingest_batch_admissions(std::slice::from_ref(&shifted)));
        }
        cursor += 1;
    });

    report.set("net.protocol.decode_ns", decode);
    report.set("net.protocol.encode_ns", encode);
    report.set("net.queue.handoff_ns", handoff);
    report.set("serve.journal.append_ns", append);
    report.set("serve.journal.bytes_per_arrival", bytes_per_arrival);
    report.set("net.stage.engine_ns", engine_ns);
    Ok(decode + handoff + append + engine_ns + encode)
}

/// Highest passing rung: its delivered rate and offered rate (0 if none).
fn max_rps(rungs: &[Rung]) -> (f64, f64) {
    rungs
        .iter()
        .rev()
        .find(|r| r.pass)
        .map_or((0.0, 0.0), |r| (r.delivered_rps, r.rate))
}

/// Best-of figures over a part's ladders.
#[derive(Default)]
struct Best {
    ladders: usize,
    /// Reference-rate p50, p90 and p99: each the best window of any ladder.
    quantiles_us: [f64; 3],
    /// `net.max_rps` and its offered rate: the best ladder's.
    max_rps: (f64, f64),
    server_rss_mb: f64,
}

impl Best {
    fn add(&mut self, ladder: &Ladder) {
        let best_us = ladder.rungs[0].best_us;
        if self.ladders == 0 {
            self.quantiles_us = best_us;
        }
        for (q, b) in self.quantiles_us.iter_mut().zip(best_us) {
            *q = q.min(b);
        }
        let max = max_rps(&ladder.rungs);
        if max.0 > self.max_rps.0 {
            self.max_rps = max;
        }
        self.server_rss_mb = self.server_rss_mb.max(ladder.server_rss_mb);
        self.ladders += 1;
    }
}

/// The part's state across its slices. Each slice times set-up-only
/// launches and then runs one whole ladder against a fresh server; the
/// figures are the best over the run's ladders (see [`Best`]).
pub struct NetOpen {
    args: PartArgs,
    report: PartReport,
    setups: Vec<f64>,
    /// Requests sent and decided in the service envelope.
    nominal: (u64, u64),
    plain: Best,
    traced: Best,
    /// The last traced ladder, whose counters the per-layer figures read.
    last_traced: Option<Ladder>,
    traced_sent: u64,
}

impl NetOpen {
    /// Prepares the part's scratch directory and the generator's timer.
    pub fn new(args: PartArgs) -> Result<Self, String> {
        std::fs::create_dir_all(&args.tmp).map_err(|e| format!("{}: {e}", args.tmp.display()))?;
        sys::tight_timer_slack();
        Ok(Self {
            args,
            report: PartReport::default(),
            setups: Vec::new(),
            nominal: (0, 0),
            plain: Best::default(),
            traced: Best::default(),
            last_traced: None,
            traced_sent: 0,
        })
    }

    /// One ladder against a fresh server, its counts added to the report.
    fn ladder(&mut self, budget: Duration, traced: bool) -> Result<Ladder, String> {
        let ladder = ladder(&self.args, budget, traced)?;
        self.report.attempted += ladder.sent;
        self.report.failed += ladder.broken;
        self.nominal.0 += ladder.nominal.0;
        self.nominal.1 += ladder.nominal.1;
        Ok(ladder)
    }
}

impl Part for NetOpen {
    fn slice(&mut self, budget: Duration) -> Result<(), String> {
        setup_samples(&self.args, &mut self.setups)?;
        let plain_budget = if self.args.trace { budget / 2 } else { budget };
        let plain = self.ladder(plain_budget, false)?;
        self.setups.push(plain.setup_s);
        self.plain.add(&plain);
        if self.args.trace {
            let traced = self.ladder(budget / 2, true)?;
            self.traced.add(&traced);
            self.traced_sent += traced.sent;
            self.last_traced = Some(traced);
        }
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<PartReport, String> {
        let Self {
            args,
            mut report,
            setups,
            nominal,
            plain,
            traced,
            last_traced,
            traced_sent,
        } = *self;
        report.set("setup_s", median(&setups));
        let [p50, p90, p99] = plain.quantiles_us;
        report.set("net.p50_us", p50);
        report.set("net.p90_us", p90);
        report.set("net.p99_us", p99);
        let (max_delivered, max_offered) = plain.max_rps;
        report.set("net.max_rps", max_delivered);
        report.set("net.max_rps_offered", max_offered);
        report.set("peak_rss_mb", plain.server_rss_mb);
        eprintln!(
            "net-open: {} ladders, best p50 {p50:.1} us, max {max_delivered:.0} req/s",
            plain.ladders
        );

        if let Some(last) = &last_traced {
            report.set("net.samples", last.rungs[0].decided as f64);
            let traced_p50 = traced.quantiles_us[0];
            report.set("trace_overhead_frac", traced_p50 / p50 - 1.0);
            report.set("gen.sent", traced_sent as f64);
            report.set("gen.late_p99_us", last.rungs[0].late_p99_us);
            report.set(
                "net.server_cpu_us_per_req",
                last.server_cpu_s * 1e6 / last.sent as f64,
            );
            let text = last.counters.as_deref().unwrap_or("");
            let counter = |name: &str| prom_counter(text, name);
            report.set("net.frames_in", counter("eirs_net_frames_in"));
            report.set("net.frames_out", counter("eirs_net_frames_out"));
            report.set(
                "net.bytes_out_per_req",
                counter("eirs_net_bytes_out") / last.sent as f64,
            );
            report.set("net.sheds", counter("eirs_net_sheds"));
            report.set("net.protocol_errors", counter("eirs_net_protocol_errors"));
            report.set("net.time_clamped", counter("eirs_net_time_clamped"));
            let stages_ns = stage_replay(&args, &last.reference, &mut report)?;
            report.set("net.residual_frac", 1.0 - stages_ns / (traced_p50 * 1e3));
        }
        report.set("ok_frac", nominal.1 as f64 / nominal.0 as f64);
        let _ = std::fs::remove_dir_all(&args.tmp);
        Ok(report)
    }
}
