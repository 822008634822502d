//! Shared measurement helpers: order statistics, `/proc` readers, and the
//! line format a part process reports its results in.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank `p`-quantile of an ascending slice (`p` in `(0, 1]`).
pub fn quantile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Largest value of a sample: the best of repeated rate measurements.
/// Interference from other tenants of a shared host only ever slows a
/// repetition, so the fastest one is the steadiest estimate of the code.
pub fn best_rate(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Smallest value of a sample: the best of repeated time measurements
/// (see [`best_rate`]).
pub fn best_time(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `f` `reps` times and returns the median wall time in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// A `/proc/<pid>/status` field in kB (`pid = None` reads this process).
fn status_kb(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    status_kb(pid, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid`.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after it.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Size of a file in bytes (0 when it cannot be read).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// What one part process reports: metric values plus the operation
/// counts of the result line.
#[derive(Debug, Default)]
pub struct PartReport {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that broke (errors, no answer by the deadline).
    pub failed: u64,
}

impl PartReport {
    /// Records one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Writes the report in the line format [`PartReport::parse`] reads.
    pub fn print(&self) {
        for (name, value) in &self.metrics {
            println!("metric {name} {value}");
        }
        println!("attempted {}", self.attempted);
        println!("failed {}", self.failed);
    }

    /// Parses the output of [`PartReport::print`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed part output line '{line}'");
            match fields.as_slice() {
                ["metric", name, value] => {
                    out.set(name, value.parse().map_err(|_| bad())?);
                }
                ["attempted", n] => out.attempted = n.parse().map_err(|_| bad())?,
                ["failed", n] => out.failed = n.parse().map_err(|_| bad())?,
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }
}

/// A correctness gate failed: the part stops and reports why.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate failed: {}", what()))
    }
}

/// Speed of the [`host_speed`] kernel, in iterations per second, on the
/// host the benchmark was tuned on (2 vCPUs, "Intel Xeon Processor" at
/// 2.0 GHz). Scaled figures read as if measured at this speed.
pub const REFERENCE_SPEED: f64 = 8.0e8;

/// Iterations of the [`host_speed`] kernel per thread and timing (about
/// 5 ms).
const SPEED_ITERATIONS: u64 = 2_000_000;

/// One thread's share of the [`host_speed`] kernel: xorshift steps.
fn speed_kernel() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..black_box(SPEED_ITERATIONS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    black_box(acc);
}

/// The host's current speed: iterations per second of a fixed integer
/// kernel that is part of this benchmark, so no change to the repository
/// can move it. It runs on two threads at once and ends with the slower
/// one, as the scaled parts' two workers or sweep threads do: a tenant
/// contending for one of the host's CPUs slows them all alike.
pub fn host_speed() -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let other = s.spawn(speed_kernel);
        speed_kernel();
        other.join().expect("speed kernel thread panicked");
    });
    2.0 * SPEED_ITERATIONS as f64 / t0.elapsed().as_secs_f64()
}

/// Host-speed samples of one part, one beside every repetition.
///
/// A shared host's speed wanders with its other tenants' load, by up to a
/// factor of two over minutes, and a best-of figure cannot escape a slow
/// stretch that covers a whole run. A part's in-process rates are
/// therefore multiplied by [`HostSpeed::scale`] and its in-process times
/// divided by it, which reads them at [`REFERENCE_SPEED`]. Code changes
/// still show in full: they move the figure, never the kernel.
#[derive(Debug, Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Times the kernel once.
    pub fn sample(&mut self) {
        self.0.push(host_speed());
    }

    /// Median kernel speed over the samples, in iterations per second.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// `REFERENCE_SPEED` over the median speed: above 1 on a slow host.
    pub fn scale(&self) -> f64 {
        REFERENCE_SPEED / self.median()
    }
}

/// Deadline helper for budgeted repetition loops.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    /// A budget of `limit` starting now.
    pub fn new(limit: Duration) -> Self {
        Self {
            start: Instant::now(),
            limit,
        }
    }

    /// Whether the budget is spent.
    pub fn spent(&self) -> bool {
        self.start.elapsed() >= self.limit
    }
}
