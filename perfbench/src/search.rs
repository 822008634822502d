//! `des-search`: policy optimization with no serving code at all.
//!
//! An `eirs_opt` search of the `curve` family, scored by the CRN-paired
//! `DesObjective` on bursty arrivals, hyperexponential elastic sizes and
//! crash churn (k = 4), fanned out by `core::sweep` over 2 threads. The
//! same search repeats until each slice is spent (`search.evals_per_s` is
//! the best repetition's, see [`util::best_rate`], read at the reference
//! host speed, see [`HostSpeed`]). Gate: the best point and value are
//! bit-identical to a 1-thread run of the same search.

use crate::util::{self, gate, median, Budget, HostSpeed, PartReport};
use crate::{Part, PartArgs};
use eirs_repro::core::scenario::{parse_workload, Workload};
use eirs_repro::core::{sweep, SystemParams};
use eirs_repro::opt::{self, AllocationPolicy, DesObjective, Method, Objective, OptReport};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Servers.
pub const K: u32 = 4;
/// Offered load.
pub const RHO: f64 = 0.6;
/// Arrival process.
pub const ARRIVALS: &str = "bursty";
/// Elastic size distribution (inelastic sizes stay exponential).
pub const ELASTIC_SIZES: &str = "hyper:4";
/// Capacity churn.
pub const CHURN: &str = "crash:mtbf=40,mttr=4";
/// Policy family searched.
pub const FAMILY: &str = "curve";
/// Candidate evaluations per search.
pub const MAX_EVALS: usize = 24;
/// CRN replications per candidate.
pub const REPLICATIONS: usize = 2;
/// Measured departures per replication (warm-up is a tenth of this).
pub const DEPARTURES: u64 = 20_000;
/// Sweep threads.
pub const THREADS: usize = 2;
/// Set-ups timed before every search; `setup_s` is the median of all of
/// them, spread over the run like the searches they precede.
const SETUP_REPS_PER_SEARCH: usize = 20;

/// The search inputs built from the seed.
struct Setup {
    workload: Workload,
    params: SystemParams,
    objective: DesObjective,
    space: Box<dyn opt::ParamSpace>,
    budget: opt::Budget,
}

fn build(seed: u64) -> Result<Setup, String> {
    let workload = parse_workload(ARRIVALS, None, Some(ELASTIC_SIZES), Some(CHURN))?;
    let params = SystemParams::with_equal_lambdas(K, 1.0, 1.0, RHO).map_err(|e| e.to_string())?;
    let objective = DesObjective::new(workload.clone(), params, seed, REPLICATIONS, DEPARTURES);
    let space = opt::parse_family(FAMILY, K)?;
    Ok(Setup {
        workload,
        params,
        objective,
        space,
        budget: opt::Budget {
            max_evals: MAX_EVALS,
            seed,
        },
    })
}

/// Timing wrapper around the DES objective: batch walls, counts, and on
/// the first batch a serial probe of the same `Workload::simulate` calls.
struct Timed<'a> {
    setup: &'a Setup,
    log: Mutex<TimedLog>,
}

#[derive(Default)]
struct TimedLog {
    batches: u64,
    evaluations: u64,
    batch_s: f64,
    probe_s: f64,
    parallel_eff: Option<f64>,
    ns_per_departure: f64,
    preemptions: u64,
}

impl Objective for Timed<'_> {
    fn name(&self) -> String {
        self.setup.objective.name()
    }

    fn evaluate_batch(&self, policies: &[Box<dyn AllocationPolicy>]) -> Vec<Result<f64, String>> {
        let t0 = Instant::now();
        let out = self.setup.objective.evaluate_batch(policies);
        let wall = t0.elapsed().as_secs_f64();
        let mut log = self.log.lock().expect("timing log poisoned");
        log.batches += 1;
        log.evaluations += policies.len() as u64;
        log.batch_s += wall;
        if log.parallel_eff.is_none() {
            let p0 = Instant::now();
            let s = self.setup;
            let warmup = DEPARTURES / 10;
            let mut serial_s = 0.0;
            let mut runs = 0u64;
            for policy in policies {
                for &seed in s.objective.seeds() {
                    let t = Instant::now();
                    if let Ok(r) =
                        s.workload
                            .simulate(policy.as_ref(), &s.params, seed, warmup, DEPARTURES)
                    {
                        log.preemptions += r.preemptions;
                    }
                    serial_s += t.elapsed().as_secs_f64();
                    runs += 1;
                }
            }
            log.parallel_eff = Some(serial_s / (wall * THREADS as f64));
            log.ns_per_departure = serial_s * 1e9 / (runs * (warmup + DEPARTURES)) as f64;
            log.probe_s += p0.elapsed().as_secs_f64();
        }
        out
    }
}

fn search(setup: &Setup, objective: &dyn Objective) -> Result<OptReport, String> {
    opt::optimize(setup.space.as_ref(), objective, Method::Auto, &setup.budget)
}

fn same_result(a: &OptReport, b: &OptReport) -> bool {
    a.best_value.to_bits() == b.best_value.to_bits()
        && a.best_x.len() == b.best_x.len()
        && a.best_x
            .iter()
            .zip(&b.best_x)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The part's state across its slices.
pub struct DesSearch {
    args: PartArgs,
    setup: Setup,
    report: PartReport,
    /// Evaluations per second of every untraced search.
    rates: Vec<f64>,
    setup_s: Vec<f64>,
    /// The first search's result, which every later one must repeat.
    first: Option<OptReport>,
    traced_rates: Vec<f64>,
    /// The last traced search's log and wall (probe excluded).
    last_traced: Option<(TimedLog, f64)>,
    speed: HostSpeed,
    traced_speed: HostSpeed,
}

impl DesSearch {
    /// Builds the search inputs from the seed.
    pub fn new(args: PartArgs) -> Result<Self, String> {
        let setup = build(args.seed)?;
        sweep::set_threads(Some(THREADS));
        Ok(Self {
            args,
            setup,
            report: PartReport::default(),
            rates: Vec::new(),
            setup_s: Vec::new(),
            first: None,
            traced_rates: Vec::new(),
            last_traced: None,
            speed: HostSpeed::default(),
            traced_speed: HostSpeed::default(),
        })
    }

    /// Untraced searches until `budget` is spent (at least one).
    fn untraced(&mut self, budget: Duration) -> Result<(), String> {
        let clock = Budget::new(budget);
        let mut ran = false;
        while !ran || !clock.spent() {
            ran = true;
            // Workload parse + objective and parameter-space build.
            for _ in 0..SETUP_REPS_PER_SEARCH {
                let t0 = Instant::now();
                black_box(build(self.args.seed)?);
                self.setup_s.push(t0.elapsed().as_secs_f64());
            }
            self.speed.sample();
            let t0 = Instant::now();
            let result = search(&self.setup, &self.setup.objective);
            let wall = t0.elapsed().as_secs_f64();
            match result {
                Ok(r) => {
                    self.report.attempted += r.evaluations as u64;
                    self.rates.push(r.evaluations as f64 / wall);
                    if let Some(f) = &self.first {
                        gate(same_result(f, &r), || {
                            "repeated 2-thread searches disagree".into()
                        })?;
                    } else {
                        self.first = Some(r);
                    }
                }
                Err(e) => {
                    eprintln!("des-search: {e}");
                    self.report.attempted += 1;
                    self.report.failed += 1;
                }
            }
        }
        Ok(())
    }

    /// Searches through the timing wrapper until `budget` is spent.
    fn traced(&mut self, budget: Duration) -> Result<(), String> {
        let clock = Budget::new(budget);
        let mut ran = false;
        while !ran || !clock.spent() {
            ran = true;
            self.traced_speed.sample();
            let timed = Timed {
                setup: &self.setup,
                log: Mutex::new(TimedLog::default()),
            };
            let t0 = Instant::now();
            let r = search(&self.setup, &timed)?;
            let log = timed.log.into_inner().expect("timing log poisoned");
            let wall = t0.elapsed().as_secs_f64() - log.probe_s;
            self.report.attempted += r.evaluations as u64;
            self.traced_rates.push(r.evaluations as f64 / wall);
            self.last_traced = Some((log, wall));
        }
        Ok(())
    }
}

impl Part for DesSearch {
    fn slice(&mut self, budget: Duration) -> Result<(), String> {
        if self.args.trace {
            self.untraced(budget / 2)?;
            self.traced(budget / 2)
        } else {
            self.untraced(budget)
        }
    }

    fn finish(self: Box<Self>) -> Result<PartReport, String> {
        let Self {
            setup,
            mut report,
            rates,
            setup_s,
            first,
            traced_rates,
            last_traced,
            speed,
            traced_speed,
            ..
        } = *self;
        // Every figure read at the reference host speed (`HostSpeed`).
        let scale = speed.scale();
        let evals_per_s = if rates.is_empty() {
            0.0
        } else {
            util::best_rate(&rates) * scale
        };
        report.set("search.evals_per_s", evals_per_s);
        report.set("setup_s", median(&setup_s) / scale);
        report.set("search.host_speed", speed.median());
        eprintln!(
            "des-search: {} searches, best {:.2} evaluations/s (scaled x{scale:.3} to {evals_per_s:.2})",
            rates.len(),
            evals_per_s / scale
        );

        if let Some(reference) = &first {
            sweep::set_threads(Some(1));
            let serial = search(&setup, &setup.objective)?;
            sweep::set_threads(Some(THREADS));
            gate(same_result(reference, &serial), || {
                format!(
                    "2-thread best {:?} = {} differs from 1-thread best {:?} = {}",
                    reference.best_x, reference.best_value, serial.best_x, serial.best_value
                )
            })?;
            eprintln!(
                "des-search: best {} E[T] = {} after {} evaluations (1-thread identical)",
                reference.best_params, reference.best_value, reference.evaluations
            );
        }

        if let Some((log, wall)) = last_traced {
            report.set(
                "trace_overhead_frac",
                evals_per_s / (util::best_rate(&traced_rates) * traced_speed.scale()) - 1.0,
            );
            report.set("opt.evaluations", log.evaluations as f64);
            report.set("opt.batches", log.batches as f64);
            report.set("opt.batch_ms", log.batch_s * 1e3 / log.batches as f64);
            report.set("opt.objective_busy_frac", log.batch_s / wall);
            report.set("sweep.parallel_eff", log.parallel_eff.unwrap_or(0.0));
            report.set("sim.des.ns_per_departure", log.ns_per_departure);
            report.set("sim.des.preemptions", log.preemptions as f64);
        }
        let ok = report.attempted - report.failed;
        report.set("ok_frac", ok as f64 / report.attempted.max(1) as f64);
        report.set(
            "peak_rss_mb",
            util::peak_rss_mb(None).ok_or("cannot read VmHWM")?,
        );
        Ok(report)
    }
}
