//! Arrival processes: live Poisson, bursty, and Markov-modulated streams,
//! plus frozen traces.
//!
//! The coupling experiments of Theorem 3 need *the same* arrival sequence
//! (times, classes, and sizes) replayed under different policies, so arrival
//! generation is separated from the simulator: a [`PoissonStream`],
//! [`BurstyStream`], or [`MapStream`] samples lazily, while an
//! [`ArrivalTrace`] freezes a finite sequence that a [`TraceStream`]
//! replays verbatim — including from a trace file on disk
//! ([`ArrivalTrace::load`] / [`ArrivalTrace::save`]).
//!
//! All exponential draws route through the one shared inverse-CDF helper
//! [`eirs_queueing::distributions::exp_inverse_cdf`] so the Poisson, MAP,
//! and trace paths stay numerically consistent.

use crate::job::JobClass;
use eirs_queueing::distributions::{exp_inverse_cdf, SizeDistribution};
use eirs_queueing::MapProcess;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, Write};

/// One arriving job: when, which class, how much work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival epoch.
    pub time: f64,
    /// Job class.
    pub class: JobClass,
    /// Inherent size (work).
    pub size: f64,
}

/// A source of arrivals consumed by the simulator.
pub trait ArrivalSource {
    /// The next arrival, or `None` when the source is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

/// Two independent Poisson streams (one per class) with per-class size
/// distributions — the stochastic model of the paper.
pub struct PoissonStream {
    lambda_i: f64,
    lambda_e: f64,
    size_i: Box<dyn SizeDistribution>,
    size_e: Box<dyn SizeDistribution>,
    rng: StdRng,
    next_i: f64,
    next_e: f64,
}

impl PoissonStream {
    /// A stream with inelastic rate `lambda_i`, elastic rate `lambda_e`, and
    /// the given size distributions. Rates may be zero (that class never
    /// arrives).
    pub fn new(
        lambda_i: f64,
        lambda_e: f64,
        size_i: Box<dyn SizeDistribution>,
        size_e: Box<dyn SizeDistribution>,
        seed: u64,
    ) -> Self {
        assert!(lambda_i >= 0.0 && lambda_e >= 0.0);
        assert!(lambda_i + lambda_e > 0.0, "at least one class must arrive");
        let mut rng = StdRng::seed_from_u64(seed);
        let next_i = sample_interarrival(&mut rng, lambda_i);
        let next_e = sample_interarrival(&mut rng, lambda_e);
        Self {
            lambda_i,
            lambda_e,
            size_i,
            size_e,
            rng,
            next_i,
            next_e,
        }
    }
}

fn sample_interarrival(rng: &mut StdRng, rate: f64) -> f64 {
    if rate == 0.0 {
        f64::INFINITY
    } else {
        // 1 − u maps the generator's [0, 1) draw into (0, 1], the domain
        // of the shared inverse CDF.
        let u: f64 = rng.random();
        exp_inverse_cdf(1.0 - u, rate)
    }
}

impl ArrivalSource for PoissonStream {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let (time, class) = if self.next_i <= self.next_e {
            (self.next_i, JobClass::Inelastic)
        } else {
            (self.next_e, JobClass::Elastic)
        };
        let size = match class {
            JobClass::Inelastic => {
                self.next_i = time + sample_interarrival(&mut self.rng, self.lambda_i);
                self.size_i.sample(&mut self.rng)
            }
            JobClass::Elastic => {
                self.next_e = time + sample_interarrival(&mut self.rng, self.lambda_e);
                self.size_e.sample(&mut self.rng)
            }
        };
        Some(Arrival { time, class, size })
    }
}

/// Batch-Poisson ("bursty") arrivals: bursts arrive as a Poisson process
/// and each burst delivers a geometric number of jobs at the same instant.
///
/// The paper's optimality proofs for IF are sample-path arguments that
/// never use the Poisson assumption, so IF's dominance should survive
/// bursty traffic — the `thm3_dominance` experiments use this stream to
/// check exactly that.
pub struct BurstyStream {
    burst_rate: f64,
    /// Geometric continuation probability: mean burst size `1/(1-q)`.
    continue_prob: f64,
    inelastic_fraction: f64,
    size_i: Box<dyn SizeDistribution>,
    size_e: Box<dyn SizeDistribution>,
    rng: StdRng,
    next_burst: f64,
    /// Jobs still to emit from the current burst.
    pending_in_burst: u32,
}

impl BurstyStream {
    /// Bursts at rate `burst_rate`; each burst has `Geometric` size with
    /// continuation probability `continue_prob ∈ [0, 1)` (mean
    /// `1/(1-continue_prob)`); each job is inelastic with probability
    /// `inelastic_fraction`.
    pub fn new(
        burst_rate: f64,
        continue_prob: f64,
        inelastic_fraction: f64,
        size_i: Box<dyn SizeDistribution>,
        size_e: Box<dyn SizeDistribution>,
        seed: u64,
    ) -> Self {
        assert!(burst_rate > 0.0);
        assert!((0.0..1.0).contains(&continue_prob));
        assert!((0.0..=1.0).contains(&inelastic_fraction));
        let mut rng = StdRng::seed_from_u64(seed);
        let next_burst = sample_interarrival(&mut rng, burst_rate);
        Self {
            burst_rate,
            continue_prob,
            inelastic_fraction,
            size_i,
            size_e,
            rng,
            next_burst,
            pending_in_burst: 1,
        }
    }

    /// Mean number of jobs per burst.
    pub fn mean_burst_size(&self) -> f64 {
        1.0 / (1.0 - self.continue_prob)
    }

    /// Effective per-job arrival rate `burst_rate · mean_burst_size`.
    pub fn job_rate(&self) -> f64 {
        self.burst_rate * self.mean_burst_size()
    }
}

impl ArrivalSource for BurstyStream {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let time = self.next_burst;
        let class = if self.rng.random::<f64>() < self.inelastic_fraction {
            JobClass::Inelastic
        } else {
            JobClass::Elastic
        };
        let size = match class {
            JobClass::Inelastic => self.size_i.sample(&mut self.rng),
            JobClass::Elastic => self.size_e.sample(&mut self.rng),
        };
        // Decide whether the burst continues.
        if self.rng.random::<f64>() < self.continue_prob {
            self.pending_in_burst += 1;
        } else {
            self.pending_in_burst = 1;
            self.next_burst = time + sample_interarrival(&mut self.rng, self.burst_rate);
        }
        Some(Arrival { time, class, size })
    }
}

/// Arrivals from a Markovian arrival process ([`MapProcess`]): a hidden
/// phase modulates the instantaneous arrival intensity, producing
/// correlated, bursty interarrival times. Each arrival is marked
/// inelastic with probability `inelastic_fraction` and draws its size
/// from the matching class distribution.
///
/// Randomness is consumed in a **documented, fixed order** (the
/// single-phase degeneracy property test reconstructs the stream draw by
/// draw): one uniform up front for the initial phase, then per event one
/// uniform for the holding time, one for the transition choice, and — on
/// arrival events only — one for the class mark followed by the size
/// distribution's own draws.
pub struct MapStream {
    map: MapProcess,
    inelastic_fraction: f64,
    size_i: Box<dyn SizeDistribution>,
    size_e: Box<dyn SizeDistribution>,
    rng: StdRng,
    phase: usize,
    clock: f64,
}

impl MapStream {
    /// A stream driven by `map`, with the initial phase drawn from the
    /// stationary phase distribution.
    pub fn new(
        map: MapProcess,
        inelastic_fraction: f64,
        size_i: Box<dyn SizeDistribution>,
        size_e: Box<dyn SizeDistribution>,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&inelastic_fraction));
        let mut rng = StdRng::seed_from_u64(seed);
        // Initial phase ~ stationary distribution (one uniform, always).
        let u: f64 = rng.random();
        let pi = map.stationary_phases();
        let mut phase = pi.len() - 1;
        let mut cum = 0.0;
        for (m, &mass) in pi.iter().enumerate() {
            cum += mass;
            if u < cum {
                phase = m;
                break;
            }
        }
        Self {
            map,
            inelastic_fraction,
            size_i,
            size_e,
            rng,
            phase,
            clock: 0.0,
        }
    }

    /// The driving process.
    pub fn map(&self) -> &MapProcess {
        &self.map
    }

    /// Stationary per-job arrival rate of the stream.
    pub fn job_rate(&self) -> f64 {
        self.map.arrival_rate()
    }
}

impl ArrivalSource for MapStream {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let p = self.map.phases();
        let (d0, d1) = (self.map.d0(), self.map.d1());
        loop {
            let m = self.phase;
            let mut total = 0.0;
            for b in 0..p {
                total += d1[(m, b)];
                if b != m {
                    total += d0[(m, b)];
                }
            }
            self.clock += sample_interarrival(&mut self.rng, total);
            // Transition choice: arrival transitions (D1) first, then
            // silent phase changes (D0 off-diagonals), in phase order.
            let pick: f64 = self.rng.random::<f64>() * total;
            let mut cum = 0.0;
            let (arrival, next) = 'select: {
                for b in 0..p {
                    cum += d1[(m, b)];
                    if pick < cum {
                        break 'select (true, b);
                    }
                }
                for b in 0..p {
                    if b == m {
                        continue;
                    }
                    cum += d0[(m, b)];
                    if pick < cum {
                        break 'select (false, b);
                    }
                }
                // Floating-point slack: attribute the residual to the last
                // positive transition, scanning silent ones first so the
                // common diagonal-D1 case still lands on an arrival.
                if let Some(b) = (0..p).rev().find(|&b| b != m && d0[(m, b)] > 0.0) {
                    break 'select (false, b);
                }
                (true, (0..p).rev().find(|&b| d1[(m, b)] > 0.0).unwrap_or(m))
            };
            self.phase = next;
            if arrival {
                let class = if self.rng.random::<f64>() < self.inelastic_fraction {
                    JobClass::Inelastic
                } else {
                    JobClass::Elastic
                };
                let size = match class {
                    JobClass::Inelastic => self.size_i.sample(&mut self.rng),
                    JobClass::Elastic => self.size_e.sample(&mut self.rng),
                };
                return Some(Arrival {
                    time: self.clock,
                    class,
                    size,
                });
            }
        }
    }
}

/// A frozen, finite arrival sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

/// Failures when parsing a trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// Underlying I/O failure (message only, to stay `Clone`/`PartialEq`).
    Io(String),
    /// A malformed line: `(1-based line number, message)`.
    Line(usize, String),
    /// A trace with no arrivals where a workload needs at least one (the
    /// path as given).
    Empty(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(msg) => write!(f, "trace I/O error: {msg}"),
            TraceError::Line(n, msg) => write!(f, "trace line {n}: {msg}"),
            TraceError::Empty(path) => write!(f, "trace {path} has no arrivals"),
        }
    }
}

impl std::error::Error for TraceError {}

impl ArrivalTrace {
    /// Builds a trace from explicit arrivals; sorts by time.
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        assert!(arrivals.iter().all(|a| a.time >= 0.0 && a.size >= 0.0));
        arrivals.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        Self { arrivals }
    }

    /// Records the first arrivals of a [`PoissonStream`] up to `horizon`.
    pub fn record_poisson(
        lambda_i: f64,
        lambda_e: f64,
        size_i: Box<dyn SizeDistribution>,
        size_e: Box<dyn SizeDistribution>,
        seed: u64,
        horizon: f64,
    ) -> Self {
        let mut stream = PoissonStream::new(lambda_i, lambda_e, size_i, size_e, seed);
        Self::record(&mut stream, horizon)
    }

    /// Freezes the arrivals of any source up to `horizon` (inclusive).
    pub fn record(source: &mut dyn ArrivalSource, horizon: f64) -> Self {
        let mut arrivals = Vec::new();
        while let Some(a) = source.next_arrival() {
            if a.time > horizon {
                break;
            }
            arrivals.push(a);
        }
        Self { arrivals }
    }

    /// Serializes the trace as text: a header comment, then one
    /// `time class size` line per arrival (class is `I` or `E`). Floats are
    /// printed in Rust's shortest round-trippable form, so
    /// [`ArrivalTrace::from_reader`] reproduces every arrival
    /// **bit-exactly**.
    pub fn to_writer(&self, w: &mut dyn Write) -> std::io::Result<()> {
        writeln!(w, "# eirs-arrival-trace v1")?;
        writeln!(w, "# time class size")?;
        for a in &self.arrivals {
            let c = match a.class {
                JobClass::Inelastic => 'I',
                JobClass::Elastic => 'E',
            };
            writeln!(w, "{} {} {}", a.time, c, a.size)?;
        }
        Ok(())
    }

    /// Parses the text format of [`ArrivalTrace::to_writer`]. Blank lines
    /// and `#` comments are skipped; classes accept `I`/`E` or the full
    /// `inelastic`/`elastic` words (case-insensitive); arrivals are sorted
    /// by time on load. Times must be finite and nonnegative, sizes finite
    /// and positive — the rule the journal applies, so every loadable
    /// trace can be journaled and replayed.
    pub fn from_reader(r: &mut dyn BufRead) -> Result<Self, TraceError> {
        let mut arrivals = Vec::new();
        for (idx, line) in r.lines().enumerate() {
            let line = line.map_err(|e| TraceError::Io(e.to_string()))?;
            let body = line.trim();
            if body.is_empty() || body.starts_with('#') {
                continue;
            }
            let n = idx + 1;
            let mut fields = body.split_whitespace();
            let mut next = |name: &str| {
                fields
                    .next()
                    .ok_or_else(|| TraceError::Line(n, format!("missing {name} field")))
            };
            let time: f64 = next("time")?
                .parse()
                .map_err(|_| TraceError::Line(n, "unparsable time".into()))?;
            let class = match next("class")?.to_ascii_lowercase().as_str() {
                "i" | "inelastic" => JobClass::Inelastic,
                "e" | "elastic" => JobClass::Elastic,
                other => {
                    return Err(TraceError::Line(n, format!("unknown class '{other}'")));
                }
            };
            let size: f64 = next("size")?
                .parse()
                .map_err(|_| TraceError::Line(n, "unparsable size".into()))?;
            if fields.next().is_some() {
                return Err(TraceError::Line(n, "trailing fields".into()));
            }
            if !(time.is_finite() && time >= 0.0) {
                return Err(TraceError::Line(n, format!("invalid time {time}")));
            }
            if !(size.is_finite() && size > 0.0) {
                return Err(TraceError::Line(n, format!("invalid size {size}")));
            }
            arrivals.push(Arrival { time, class, size });
        }
        Ok(Self::new(arrivals))
    }

    /// Writes the trace to `path` in the [`ArrivalTrace::to_writer`] format.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.to_writer(&mut file)?;
        // Dropping a `BufWriter` discards the last buffer's write error.
        file.flush()
    }

    /// Loads a trace file written by [`ArrivalTrace::save`] (or by any
    /// external tool emitting `time class size` lines).
    pub fn load(path: &std::path::Path) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Self::from_reader(&mut std::io::BufReader::new(file))
    }

    /// The arrivals, ordered by time.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Sum of all job sizes (total offered work).
    pub fn total_work(&self) -> f64 {
        self.arrivals.iter().map(|a| a.size).sum()
    }

    /// Streams this trace.
    pub fn stream(&self) -> TraceStream<'_> {
        TraceStream {
            trace: self,
            pos: 0,
        }
    }

    /// Streams this trace by value (for callers that need an owned
    /// [`ArrivalSource`], e.g. boxed sources built from a spec).
    pub fn into_stream(self) -> OwnedTraceStream {
        OwnedTraceStream {
            trace: self,
            pos: 0,
        }
    }
}

/// Replays an [`ArrivalTrace`].
pub struct TraceStream<'a> {
    trace: &'a ArrivalTrace,
    pos: usize,
}

impl ArrivalSource for TraceStream<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.trace.arrivals.get(self.pos).copied();
        self.pos += 1;
        a
    }
}

/// Replays an owned [`ArrivalTrace`] (see [`ArrivalTrace::into_stream`]).
pub struct OwnedTraceStream {
    trace: ArrivalTrace,
    pos: usize,
}

impl ArrivalSource for OwnedTraceStream {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.trace.arrivals.get(self.pos).copied();
        self.pos += 1;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_queueing::Exponential;

    #[test]
    fn poisson_stream_produces_increasing_times_per_class() {
        let mut s = PoissonStream::new(
            1.0,
            2.0,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            3,
        );
        let mut last = 0.0;
        for _ in 0..1000 {
            let a = s.next_arrival().unwrap();
            assert!(a.time >= last, "arrivals must be time-ordered");
            last = a.time;
            assert!(a.size > 0.0);
        }
    }

    #[test]
    fn poisson_stream_rate_is_statistically_right() {
        let mut s = PoissonStream::new(
            3.0,
            1.0,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            11,
        );
        let n = 40_000;
        let mut count_i = 0usize;
        let mut t_final = 0.0;
        for _ in 0..n {
            let a = s.next_arrival().unwrap();
            if a.class == JobClass::Inelastic {
                count_i += 1;
            }
            t_final = a.time;
        }
        let total_rate = n as f64 / t_final;
        assert!((total_rate - 4.0).abs() < 0.15, "total rate {total_rate}");
        let frac_i = count_i as f64 / n as f64;
        assert!((frac_i - 0.75).abs() < 0.02, "inelastic fraction {frac_i}");
    }

    #[test]
    fn zero_rate_class_never_arrives() {
        let mut s = PoissonStream::new(
            0.0,
            1.0,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            5,
        );
        for _ in 0..500 {
            assert_eq!(s.next_arrival().unwrap().class, JobClass::Elastic);
        }
    }

    #[test]
    fn bursty_stream_emits_time_ordered_bursts() {
        let mut s = BurstyStream::new(
            1.0,
            0.6,
            0.5,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            3,
        );
        let mut last = 0.0;
        let mut same_instant = 0usize;
        for _ in 0..5_000 {
            let a = s.next_arrival().unwrap();
            assert!(a.time >= last);
            if a.time == last {
                same_instant += 1;
            }
            last = a.time;
        }
        // With continuation probability 0.6 most arrivals share a burst
        // instant with their predecessor.
        assert!(
            same_instant > 2_000,
            "only {same_instant} same-instant arrivals"
        );
    }

    #[test]
    fn bursty_stream_mean_burst_size() {
        let s = BurstyStream::new(
            2.0,
            0.75,
            0.5,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            4,
        );
        assert!((s.mean_burst_size() - 4.0).abs() < 1e-12);
        assert!((s.job_rate() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn bursty_stream_statistical_job_rate() {
        let mut s = BurstyStream::new(
            1.0,
            0.5,
            1.0,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            5,
        );
        let n = 40_000;
        let mut t_final = 0.0;
        for _ in 0..n {
            t_final = s.next_arrival().unwrap().time;
        }
        let rate = n as f64 / t_final;
        assert!((rate - 2.0).abs() < 0.1, "job rate {rate}");
    }

    #[test]
    fn trace_round_trip_is_deterministic() {
        let t1 = ArrivalTrace::record_poisson(
            1.0,
            1.0,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(2.0)),
            7,
            50.0,
        );
        let t2 = ArrivalTrace::record_poisson(
            1.0,
            1.0,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(2.0)),
            7,
            50.0,
        );
        assert_eq!(t1, t2);
        assert!(!t1.is_empty());
        let replayed: Vec<Arrival> = {
            let mut s = t1.stream();
            std::iter::from_fn(move || s.next_arrival()).collect()
        };
        assert_eq!(replayed.as_slice(), t1.arrivals());
    }

    #[test]
    fn map_stream_poisson_case_has_the_right_rate() {
        let mut s = MapStream::new(
            MapProcess::poisson(2.0),
            0.25,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            17,
        );
        let n = 40_000;
        let mut count_i = 0usize;
        let mut t_final = 0.0;
        for _ in 0..n {
            let a = s.next_arrival().unwrap();
            if a.class == JobClass::Inelastic {
                count_i += 1;
            }
            t_final = a.time;
        }
        let rate = n as f64 / t_final;
        assert!((rate - 2.0).abs() < 0.05, "rate {rate}");
        let frac = count_i as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "inelastic fraction {frac}");
    }

    #[test]
    fn map_stream_mmpp_matches_stationary_rate_and_is_bursty() {
        let map = MapProcess::mmpp2(0.5, 0.5, 3.6, 0.4);
        let want = map.arrival_rate();
        let mut s = MapStream::new(
            map,
            0.5,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            23,
        );
        let n = 60_000;
        let mut times = Vec::with_capacity(n);
        for _ in 0..n {
            times.push(s.next_arrival().unwrap().time);
        }
        let rate = n as f64 / times[n - 1];
        assert!((rate - want).abs() / want < 0.05, "rate {rate} vs {want}");
        // Squared CV of interarrivals > 1 marks the burstiness.
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (mean * mean);
        assert!(cv2 > 1.3, "interarrival cv^2 {cv2} not bursty");
    }

    #[test]
    fn map_stream_is_deterministic_per_seed() {
        let mk = || {
            MapStream::new(
                MapProcess::mmpp2(1.0, 1.0, 4.0, 1.0),
                0.5,
                Box::new(Exponential::new(1.0)),
                Box::new(Exponential::new(2.0)),
                5,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..200 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    #[test]
    fn trace_file_round_trip_is_bit_exact() {
        let trace = ArrivalTrace::record_poisson(
            1.3,
            0.7,
            Box::new(Exponential::new(0.8)),
            Box::new(Exponential::new(1.9)),
            99,
            40.0,
        );
        let mut buf = Vec::new();
        trace.to_writer(&mut buf).unwrap();
        let parsed = ArrivalTrace::from_reader(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(parsed, trace, "file round trip must be lossless");
    }

    #[test]
    fn trace_parser_accepts_words_and_rejects_garbage() {
        let good = "# comment\n\n0.5 inelastic 2.0\n1.5 E 1.0\n";
        let t = ArrivalTrace::from_reader(&mut std::io::Cursor::new(good)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.arrivals()[0].class, JobClass::Inelastic);
        for bad in [
            "0.5 I\n",
            "0.5 X 1.0\n",
            "abc I 1.0\n",
            "0.5 I abc\n",
            "0.5 I 1.0 extra\n",
            "-1 I 1.0\n",
            "0.5 I -2\n",
        ] {
            let r = ArrivalTrace::from_reader(&mut std::io::Cursor::new(bad));
            assert!(
                matches!(r, Err(TraceError::Line(1, _))),
                "'{}' should fail, got {r:?}",
                bad.trim()
            );
        }
    }

    #[test]
    fn trace_sorts_out_of_order_input() {
        let t = ArrivalTrace::new(vec![
            Arrival {
                time: 2.0,
                class: JobClass::Elastic,
                size: 1.0,
            },
            Arrival {
                time: 1.0,
                class: JobClass::Inelastic,
                size: 2.0,
            },
        ]);
        assert_eq!(t.arrivals()[0].time, 1.0);
        assert!((t.total_work() - 3.0).abs() < 1e-12);
    }
}
