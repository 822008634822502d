//! Job-level discrete-event simulator: mean response time, occupancy and
//! work statistics of a policy on an arrival stream.
//!
//! [`Simulation`] drives the [cluster kernel](crate::kernel), which owns
//! the event mechanics — FCFS service, exact event times, capacity churn
//! with its degraded-decision and preempt-restart rules, departures and
//! admission; see its module docs. Sizes are fixed at arrival, so the
//! simulator works for arbitrary size distributions, which the
//! distribution-free coupling experiments (Theorem 3) rely on. The
//! simulation watches the kernel through its hooks and keeps the
//! statistics: Welford means of response times and, per class, a
//! mergeable log-linear histogram of them for the tails, time averages
//! of occupancy, work and busy servers, and per-class work totals kept
//! incrementally.
//!
//! A simulation may carry a [`FaultSchedule`] ([`Simulation::with_faults`]):
//! capacity changes are first-class events, and between them only
//! `avail ≤ k` servers exist. At full capacity the policy is called with
//! `k`, so a run with an empty schedule is bit-identical to one without.
//!
//! [`Simulation::run_each`] runs several policies on **one** sample path:
//! each policy gets its own clone of the configured cluster (preloaded
//! jobs and the shared fault schedule included) and its own statistics,
//! and all runs advance in lockstep through one arrival source, each
//! arrival being admitted by every run that has not yet met its own stop
//! rule. A run's sequence of kernel calls is exactly the one a separate
//! [`Simulation::run`] on the same source would make, so every report is
//! bit-identical to that run's, while the arrivals (and the schedule) are
//! generated once for all policies. This is the primitive behind
//! common-random-numbers comparisons: the `eirs_opt` DES objective, the
//! baseline certificate and [`crate::coupling::paired_comparison`].

use crate::arrivals::{Arrival, ArrivalSource};
use crate::availability::FaultSchedule;
use crate::job::{Job, JobClass};
use crate::kernel::{Cluster, Hooks, Step};
use crate::policy::{AllocationPolicy, ClassAllocation};
use crate::stats::{tail_quantiles, Welford};
use eirs_numerics::NeumaierSum;
use eirs_obs::LatencyHistogram;

/// When a simulation run ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Stop after this many *measured* (post-warmup) departures.
    Departures(u64),
    /// Stop at this simulated time.
    SimTime(f64),
    /// Run until the arrival source is exhausted and the system is empty.
    Drain,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct DesConfig {
    /// Number of servers `k`.
    pub k: u32,
    /// Termination rule.
    pub stop: StopRule,
    /// Departures to discard before measurement starts (warm-up).
    pub warmup_departures: u64,
}

impl DesConfig {
    /// Steady-state measurement: warm up for `warmup` departures, then
    /// measure `departures` of them.
    pub fn steady_state(k: u32, warmup: u64, departures: u64) -> Self {
        Self {
            k,
            stop: StopRule::Departures(departures),
            warmup_departures: warmup,
        }
    }

    /// Transient run: no warm-up, drain the trace.
    pub fn drain(k: u32) -> Self {
        Self {
            k,
            stop: StopRule::Drain,
            warmup_departures: 0,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Measured departures per class `[inelastic, elastic]`.
    pub completed: [u64; 2],
    /// Mean response time across measured jobs of both classes (`NaN`
    /// if none).
    pub mean_response: f64,
    /// Mean response time of measured inelastic jobs (`NaN` if none).
    pub mean_response_inelastic: f64,
    /// Mean response time of measured elastic jobs (`NaN` if none).
    pub mean_response_elastic: f64,
    /// Sum of response times across measured jobs.
    pub total_response: f64,
    /// Time-average number of jobs in system over the measured window.
    pub mean_num_in_system: f64,
    /// Time-average number of inelastic jobs.
    pub mean_num_inelastic: f64,
    /// Time-average number of elastic jobs.
    pub mean_num_elastic: f64,
    /// Time-average total work in system `E[W]`.
    pub mean_work: f64,
    /// Time-average inelastic work in system `E[W_I]`.
    pub mean_work_inelastic: f64,
    /// Time-average fraction of busy servers.
    pub utilization: f64,
    /// `(P50, P95, P99)` response times over all measured jobs, read from
    /// a log-linear histogram (`eirs_obs::LatencyHistogram`, recorded at
    /// nanosecond resolution of simulated time): each is the midpoint of
    /// the bucket holding that rank, within 2⁻⁵ relative of the exact
    /// nearest-rank quantile, clamped to the observed min/max, and `NaN`
    /// with no observations. It is the exact merge of the two class
    /// histograms below.
    pub tail_response: (f64, f64, f64),
    /// `(P50, P95, P99)` for measured inelastic jobs, as above.
    pub tail_response_inelastic: (f64, f64, f64),
    /// `(P50, P95, P99)` for measured elastic jobs, as above.
    pub tail_response_elastic: (f64, f64, f64),
    /// Length of the measured window.
    pub measured_time: f64,
    /// Simulated end time.
    pub end_time: f64,
    /// Inelastic jobs preempt-restarted by capacity-loss events (zero
    /// without a fault schedule).
    pub preemptions: u64,
}

/// The discrete-event simulation engine.
pub struct Simulation {
    config: DesConfig,
    cluster: Cluster,
}

impl Simulation {
    /// A fresh simulation with the given configuration.
    pub fn new(config: DesConfig) -> Self {
        assert!(config.k >= 1, "need at least one server");
        Self {
            config,
            cluster: Cluster::new(config.k),
        }
    }

    /// Attaches a capacity-churn schedule (see the [kernel
    /// docs](crate::kernel) for the degraded-decision and preempt-restart
    /// semantics), shared rather than copied. The schedule's `k` must
    /// match the configuration.
    pub fn with_faults(mut self, schedule: &FaultSchedule) -> Self {
        assert_eq!(self.now(), 0.0, "attach faults before running");
        self.cluster = self.cluster.with_faults(schedule);
        self
    }

    /// Seeds the system with jobs present at time zero (arrival time 0).
    pub fn preload(&mut self, jobs: impl IntoIterator<Item = (JobClass, f64)>) {
        assert_eq!(self.now(), 0.0, "preload before running");
        for (class, size) in jobs {
            self.cluster.enqueue(class, size, 0.0);
        }
    }

    /// Runs the simulation to completion under `policy` with arrivals from
    /// `source`: the one-policy case of [`Simulation::run_each`].
    pub fn run(self, policy: &dyn AllocationPolicy, source: &mut dyn ArrivalSource) -> SimReport {
        self.run_each(&[policy], source)
            .pop()
            .expect("one report per policy")
    }

    /// Runs every policy in `policies` on the one arrival stream of
    /// `source`, in lockstep (see the [module docs](self)), and returns
    /// their reports in order. Each report is bit-identical to a separate
    /// [`Simulation::run`] of a copy of this simulation on a source that
    /// replays the same arrivals. The source is read until every run has
    /// met its stop rule.
    pub fn run_each(
        self,
        policies: &[&dyn AllocationPolicy],
        source: &mut dyn ArrivalSource,
    ) -> Vec<SimReport> {
        let Self { config, cluster } = self;
        let until = match config.stop {
            StopRule::SimTime(t_end) => t_end,
            _ => f64::INFINITY,
        };
        let mut runs: Vec<Run> = policies
            .iter()
            .map(|&policy| Run {
                m: Measure::new(policy, &config, &cluster),
                cluster: cluster.clone(),
                stopped: false,
            })
            .collect();
        let mut pending = source.next_arrival();
        loop {
            for run in runs.iter_mut().filter(|run| !run.stopped) {
                run.stopped = !run.admit_through(config.stop, until, pending);
            }
            if runs.iter().all(|run| run.stopped) {
                break;
            }
            pending = source.next_arrival();
        }
        runs.into_iter()
            .map(|run| run.m.report(run.cluster.now()))
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.cluster.now()
    }
}

/// One policy's run: its own cluster and measurements.
struct Run<'p> {
    cluster: Cluster,
    m: Measure<'p>,
    /// The run met its stop rule, or nothing can happen in it any more.
    stopped: bool,
}

impl Run<'_> {
    /// Steps the run, never past `until`, until it admits `pending`
    /// (`true`) or meets the `stop` rule first (`false`). With no arrival
    /// pending, only the latter. The arrival comes by value: with a
    /// reference to it, and `until` worked out per call, one-policy runs
    /// took ~6% longer per departure than the loop this replaced (2-vCPU
    /// host).
    fn admit_through(&mut self, stop: StopRule, until: f64, pending: Option<Arrival>) -> bool {
        loop {
            let m = &self.m;
            let stopped = match stop {
                StopRule::Departures(n) => m.measuring && m.completed[0] + m.completed[1] >= n,
                StopRule::SimTime(t_end) => self.cluster.now() >= t_end,
                StopRule::Drain => pending.is_none() && self.cluster.is_empty(),
            };
            if stopped {
                return false;
            }
            match self
                .cluster
                .step(&mut self.m, pending.map(|a| a.time), until)
            {
                Step::Idle => return false,
                Step::ArrivalDue => {
                    let a = pending.expect("a due arrival is pending");
                    self.cluster.admit(&mut self.m, &a);
                    return true;
                }
                Step::Advanced => {}
            }
        }
    }
}

/// A run's measurements: the policy plus everything the simulation
/// accumulates while it watches the kernel.
struct Measure<'p> {
    policy: &'p dyn AllocationPolicy,
    name: String,
    warmup: u64,
    // Remaining work per class [inelastic, elastic], maintained
    // incrementally (O(1) per event instead of an O(n) queue scan):
    // arrivals add their size, advances subtract exactly the work they
    // removed, preempt-restarts add back the lost progress, and
    // departures subtract the numerical residual of the departing job.
    work_total: [f64; 2],
    total_departures: u64,
    preemptions: u64,
    measuring: bool,
    // Response-time statistics per class, then over both classes:
    // [inelastic, elastic, all].
    resp: [Welford; 3],
    // Response-time histograms per class [inelastic, elastic]; the tails
    // over both classes come from their exact merge.
    hists: [LatencyHistogram; 2],
    total_response: f64,
    completed: [u64; 2],
    // Time integrals over the measured window, which all six share:
    // jobs present (all, inelastic, elastic), work (all, inelastic) and
    // busy servers per server.
    num_jobs: NeumaierSum,
    num_i: NeumaierSum,
    num_e: NeumaierSum,
    work: NeumaierSum,
    work_i: NeumaierSum,
    busy: NeumaierSum,
    // Length of the measured window.
    measured: f64,
}

impl<'p> Measure<'p> {
    fn new(policy: &'p dyn AllocationPolicy, config: &DesConfig, cluster: &Cluster) -> Self {
        // The work of the preloaded jobs, summed in queue order.
        let work = |c| cluster.queue(c).fold(0.0, |w, j| w + j.size);
        Self {
            policy,
            name: policy.name(),
            warmup: config.warmup_departures,
            work_total: JobClass::ALL.map(work),
            total_departures: 0,
            preemptions: 0,
            measuring: config.warmup_departures == 0,
            resp: Default::default(),
            hists: Default::default(),
            total_response: 0.0,
            completed: [0, 0],
            num_jobs: NeumaierSum::new(),
            num_i: NeumaierSum::new(),
            num_e: NeumaierSum::new(),
            work: NeumaierSum::new(),
            work_i: NeumaierSum::new(),
            busy: NeumaierSum::new(),
            measured: 0.0,
        }
    }

    fn report(self, end_time: f64) -> SimReport {
        let mean = |w: &Welford| if w.count() > 0 { w.mean() } else { f64::NAN };
        let average = |integral: NeumaierSum| {
            if self.measured > 0.0 {
                integral.value() / self.measured
            } else {
                0.0
            }
        };
        let [hist_i, hist_e] = &self.hists;
        let mut hist_all = hist_i.clone();
        hist_all.merge(hist_e);
        SimReport {
            completed: self.completed,
            mean_response: mean(&self.resp[2]),
            mean_response_inelastic: mean(&self.resp[0]),
            mean_response_elastic: mean(&self.resp[1]),
            total_response: self.total_response,
            mean_num_in_system: average(self.num_jobs),
            mean_num_inelastic: average(self.num_i),
            mean_num_elastic: average(self.num_e),
            mean_work: average(self.work),
            mean_work_inelastic: average(self.work_i),
            utilization: average(self.busy),
            tail_response: tail_quantiles(&hist_all),
            tail_response_inelastic: tail_quantiles(hist_i),
            tail_response_elastic: tail_quantiles(hist_e),
            measured_time: self.measured,
            end_time,
            preemptions: self.preemptions,
        }
    }
}

impl Hooks for Measure<'_> {
    fn allocate(&mut self, i: usize, j: usize, servers: u32) -> ClassAllocation {
        self.policy.allocate(i, j, servers)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn on_advance(&mut self, cluster: &Cluster, alloc: ClassAllocation, dt: f64, served: [f64; 2]) {
        // Time-weighted statistics over the interval just served, from the
        // work present at its start.
        if self.measuring {
            let (i, j) = cluster.occupancy();
            let [w_i, w_e] = self.work_total;
            let total_rate = alloc.total();
            // Work decreases linearly at the service rate:
            // ∫ W dt = W₀·dt − rate·dt²/2.
            self.num_jobs.add((i + j) as f64 * dt);
            self.num_i.add(i as f64 * dt);
            self.num_e.add(j as f64 * dt);
            self.work.add((w_i + w_e - 0.5 * total_rate * dt) * dt);
            self.work_i.add((w_i - 0.5 * alloc.inelastic * dt) * dt);
            self.busy.add(total_rate / cluster.k() as f64 * dt);
            self.measured += dt;
        }
        self.work_total[0] -= served[0];
        self.work_total[1] -= served[1];
    }

    fn on_departure(&mut self, job: &Job, t: f64) {
        // Remove the numerical residual (is_done() tolerates ~1e-12) so
        // the incremental work totals exactly track the queue contents.
        self.work_total[job.class as usize] -= job.remaining;
        self.total_departures += 1;
        if !self.measuring && self.total_departures >= self.warmup {
            self.measuring = true;
        } else if self.measuring {
            for idx in [2, job.class as usize] {
                self.resp[idx].push(t);
            }
            self.hists[job.class as usize].record_seconds(t);
            self.total_response += t;
            self.completed[job.class as usize] += 1;
        }
    }

    fn on_preempt(&mut self, job: &Job) {
        // The lost progress re-enters the work totals.
        self.work_total[0] += job.size - job.remaining;
        self.preemptions += 1;
    }

    fn admit(&mut self, _: &Cluster, a: &Arrival) -> bool {
        self.work_total[a.class as usize] += a.size;
        true
    }
}

/// Convenience: runs one steady-state replication of the Markovian model of
/// the paper (Poisson arrivals, exponential sizes) under `policy`.
#[allow(clippy::too_many_arguments)]
pub fn run_markovian(
    policy: &dyn AllocationPolicy,
    k: u32,
    lambda_i: f64,
    lambda_e: f64,
    mu_i: f64,
    mu_e: f64,
    seed: u64,
    warmup: u64,
    departures: u64,
) -> SimReport {
    use eirs_queueing::Exponential;
    let mut source = crate::arrivals::PoissonStream::new(
        lambda_i,
        lambda_e,
        Box::new(Exponential::new(mu_i)),
        Box::new(Exponential::new(mu_e)),
        seed,
    );
    Simulation::new(DesConfig::steady_state(k, warmup, departures)).run(policy, &mut source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalTrace;
    use crate::policy::{ElasticFirst, InelasticFirst};

    fn trace(entries: &[(f64, JobClass, f64)]) -> ArrivalTrace {
        ArrivalTrace::new(
            entries
                .iter()
                .map(|&(time, class, size)| Arrival { time, class, size })
                .collect(),
        )
    }

    #[test]
    fn deterministic_drain_if_vs_ef_hand_computed() {
        // k=2; at t=0: inelastic sizes {2, 1}, elastic size 1.
        // IF: inelastic both served; sizes 1 done at t=1, size 2 at t=2;
        //     elastic gets 1 server from t=1, needs 1 unit → done at t=2.
        //     ΣT = 1 + 2 + 2 = 5.
        // EF: elastic on both servers → done 0.5; then inelastic in
        //     parallel → done at 1.5 and 2.5. ΣT = 0.5 + 1.5 + 2.5 = 4.5.
        let tr = trace(&[
            (0.0, JobClass::Inelastic, 2.0),
            (0.0, JobClass::Inelastic, 1.0),
            (0.0, JobClass::Elastic, 1.0),
        ]);
        let run = |policy: &dyn AllocationPolicy| {
            let mut s = tr.stream();
            Simulation::new(DesConfig::drain(2)).run(policy, &mut s)
        };
        let rif = run(&InelasticFirst);
        let ref_ = run(&ElasticFirst);
        assert!(
            (rif.total_response - 5.0).abs() < 1e-9,
            "IF {}",
            rif.total_response
        );
        assert!(
            (ref_.total_response - 4.5).abs() < 1e-9,
            "EF {}",
            ref_.total_response
        );
        assert_eq!(rif.completed, [2, 1]);
        assert_eq!(ref_.completed, [2, 1]);
    }

    #[test]
    fn elastic_parallelism_is_linear() {
        // One elastic job of size 4 on k=4 servers finishes at t=1.
        let tr = trace(&[(0.0, JobClass::Elastic, 4.0)]);
        let mut s = tr.stream();
        let r = Simulation::new(DesConfig::drain(4)).run(&ElasticFirst, &mut s);
        assert!((r.end_time - 1.0).abs() < 1e-12);
        assert!((r.mean_response - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inelastic_cannot_use_more_than_one_server() {
        // One inelastic job of size 3 on k=4: still takes 3 time units.
        let tr = trace(&[(0.0, JobClass::Inelastic, 3.0)]);
        let mut s = tr.stream();
        let r = Simulation::new(DesConfig::drain(4)).run(&InelasticFirst, &mut s);
        assert!((r.end_time - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_allocation_serves_at_fractional_rate() {
        // Policy giving 0.5 servers to a lone inelastic job: size 1 → 2s.
        struct Half;
        impl AllocationPolicy for Half {
            fn allocate(&self, i: usize, _j: usize, _k: u32) -> crate::policy::ClassAllocation {
                crate::policy::ClassAllocation {
                    inelastic: 0.5 * (i.min(1)) as f64,
                    elastic: 0.0,
                }
            }
            fn name(&self) -> String {
                "Half".into()
            }
        }
        let tr = trace(&[(0.0, JobClass::Inelastic, 1.0)]);
        let mut s = tr.stream();
        let r = Simulation::new(DesConfig::drain(2)).run(&Half, &mut s);
        assert!((r.end_time - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mm1_mean_response_matches_theory() {
        // k=1, inelastic only, λ=0.5, µ=1 → E[T] = 2.
        let r = run_markovian(&InelasticFirst, 1, 0.5, 0.0, 1.0, 1.0, 42, 20_000, 200_000);
        let want = eirs_queueing::MM1::new(0.5, 1.0).mean_response_time();
        assert!(
            (r.mean_response_inelastic - want).abs() / want < 0.03,
            "sim {} vs theory {want}",
            r.mean_response_inelastic
        );
    }

    #[test]
    fn mmk_mean_response_matches_theory() {
        // k=4, inelastic only, λ=3, µ=1.
        let r = run_markovian(&InelasticFirst, 4, 3.0, 0.0, 1.0, 1.0, 7, 20_000, 200_000);
        let want = eirs_queueing::MMk::new(3.0, 1.0, 4).mean_response_time();
        assert!(
            (r.mean_response_inelastic - want).abs() / want < 0.03,
            "sim {} vs theory {want}",
            r.mean_response_inelastic
        );
    }

    #[test]
    fn ef_elastic_class_is_mm1_at_rate_k_mu() {
        // Elastic under EF: M/M/1 with service rate kµ_E. k=4, λ_E=2, µ_E=1.
        let r = run_markovian(&ElasticFirst, 4, 0.0, 2.0, 1.0, 1.0, 11, 20_000, 200_000);
        let want = eirs_queueing::MM1::new(2.0, 4.0).mean_response_time();
        assert!(
            (r.mean_response_elastic - want).abs() / want < 0.03,
            "sim {} vs theory {want}",
            r.mean_response_elastic
        );
    }

    #[test]
    fn littles_law_holds_within_run() {
        let r = run_markovian(&InelasticFirst, 4, 1.5, 1.0, 1.0, 0.8, 3, 20_000, 150_000);
        // E[N] ≈ (λ_I + λ_E) E[T] — both estimated from the same run.
        let lhs = r.mean_num_in_system;
        let rhs = 2.5 * r.mean_response;
        assert!((lhs - rhs).abs() / rhs < 0.05, "N {lhs} vs λT {rhs}");
    }

    #[test]
    fn same_seed_same_report() {
        let a = run_markovian(&InelasticFirst, 2, 0.5, 0.5, 1.0, 1.0, 5, 100, 5_000);
        let b = run_markovian(&InelasticFirst, 2, 0.5, 0.5, 1.0, 1.0, 5, 100, 5_000);
        assert_eq!(a.mean_response, b.mean_response);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn warmup_discards_departures() {
        let tr = trace(&[
            (0.0, JobClass::Inelastic, 1.0),
            (0.0, JobClass::Inelastic, 1.0),
            (5.0, JobClass::Inelastic, 1.0),
        ]);
        let mut s = tr.stream();
        let cfg = DesConfig {
            k: 1,
            stop: StopRule::Drain,
            warmup_departures: 2,
        };
        let r = Simulation::new(cfg).run(&InelasticFirst, &mut s);
        // Only the third departure is measured.
        assert_eq!(r.completed, [1, 0]);
        assert!((r.mean_response - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sim_time_stop_rule_ends_on_time() {
        let cfg = DesConfig {
            k: 1,
            stop: StopRule::SimTime(100.0),
            warmup_departures: 0,
        };
        use eirs_queueing::Exponential;
        let mut source = crate::arrivals::PoissonStream::new(
            0.5,
            0.0,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            9,
        );
        let r = Simulation::new(cfg).run(&InelasticFirst, &mut source);
        assert!((r.end_time - 100.0).abs() < 1e-9);
    }

    #[test]
    fn work_accounting_matches_hand_computation() {
        // One inelastic job size 2 served alone on k=1 from t=0 to 2:
        // ∫W dt = ∫ (2−t) dt over [0,2] = 2. Time-avg W over [0,2] = 1.
        let tr = trace(&[(0.0, JobClass::Inelastic, 2.0)]);
        let mut s = tr.stream();
        let r = Simulation::new(DesConfig::drain(1)).run(&InelasticFirst, &mut s);
        assert!(
            (r.mean_work - 1.0).abs() < 1e-9,
            "mean work {}",
            r.mean_work
        );
        assert!((r.mean_work_inelastic - 1.0).abs() < 1e-9);
        assert!((r.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_drop_preempt_restarts_the_displaced_inelastic_job() {
        use crate::availability::{CapacityEvent, FaultSchedule};
        // k=2, two inelastic jobs of size 5 at t=0 under IF: one server
        // each. At t=2 capacity drops to 1: the job at position 1 has
        // progress (remaining 3) and is preempt-restarted — reset to
        // size 5, requeued behind the survivor. The survivor finishes at
        // t=5, the restarted job runs 5..10. ΣT = 5 + 10 = 15 (vs 10
        // fault-free). One preemption recorded.
        let tr = trace(&[
            (0.0, JobClass::Inelastic, 5.0),
            (0.0, JobClass::Inelastic, 5.0),
        ]);
        let faults = FaultSchedule::from_events(
            2,
            vec![
                CapacityEvent {
                    time: 2.0,
                    available: 1,
                },
                CapacityEvent {
                    time: 50.0,
                    available: 2,
                },
            ],
        );
        let mut s = tr.stream();
        let r = Simulation::new(DesConfig::drain(2))
            .with_faults(&faults)
            .run(&InelasticFirst, &mut s);
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.completed, [2, 0]);
        assert!(
            (r.total_response - 15.0).abs() < 1e-9,
            "{}",
            r.total_response
        );
        assert!((r.end_time - 10.0).abs() < 1e-9, "{}", r.end_time);
    }

    #[test]
    fn elastic_jobs_shrink_gracefully_without_losing_work() {
        use crate::availability::{CapacityEvent, FaultSchedule};
        // k=4, one elastic job of size 8 under EF: rate 4 until t=1
        // (4 units done), then capacity halves — rate 2 on the remaining
        // 4 units → done at t=3. No preemption, no lost work.
        let tr = trace(&[(0.0, JobClass::Elastic, 8.0)]);
        let faults = FaultSchedule::from_events(
            4,
            vec![
                CapacityEvent {
                    time: 1.0,
                    available: 2,
                },
                CapacityEvent {
                    time: 50.0,
                    available: 4,
                },
            ],
        );
        let mut s = tr.stream();
        let r = Simulation::new(DesConfig::drain(4))
            .with_faults(&faults)
            .run(&ElasticFirst, &mut s);
        assert_eq!(r.preemptions, 0);
        assert!((r.end_time - 3.0).abs() < 1e-9, "{}", r.end_time);
        assert!((r.mean_response - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_idles_without_consulting_the_policy() {
        use crate::availability::{CapacityEvent, FaultSchedule};
        /// Panics if ever asked to allocate on an empty cluster.
        struct NoZero;
        impl AllocationPolicy for NoZero {
            fn allocate(&self, i: usize, _j: usize, k: u32) -> crate::policy::ClassAllocation {
                assert!(k >= 1, "policy consulted at zero capacity");
                crate::policy::ClassAllocation {
                    inelastic: (i.min(k as usize)) as f64,
                    elastic: 0.0,
                }
            }
            fn name(&self) -> String {
                "NoZero".into()
            }
        }
        // The cluster is dark from t=0 to t=5; the size-1 job waits out
        // the outage and completes at t=6.
        let tr = trace(&[(0.0, JobClass::Inelastic, 1.0)]);
        let faults = FaultSchedule::from_events(
            1,
            vec![
                CapacityEvent {
                    time: 0.0,
                    available: 0,
                },
                CapacityEvent {
                    time: 5.0,
                    available: 1,
                },
            ],
        );
        let mut s = tr.stream();
        let r = Simulation::new(DesConfig::drain(1))
            .with_faults(&faults)
            .run(&NoZero, &mut s);
        assert!((r.end_time - 6.0).abs() < 1e-9, "{}", r.end_time);
        assert!((r.mean_response - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_no_schedule() {
        use crate::availability::FaultSchedule;
        use eirs_queueing::Exponential;
        let run = |faulted: bool| {
            let mut source = crate::arrivals::PoissonStream::new(
                0.8,
                0.5,
                Box::new(Exponential::new(1.0)),
                Box::new(Exponential::new(1.0)),
                13,
            );
            let sim = Simulation::new(DesConfig::steady_state(2, 50, 2_000));
            let sim = if faulted {
                sim.with_faults(&FaultSchedule::none(2))
            } else {
                sim
            };
            sim.run(&InelasticFirst, &mut source)
        };
        let (a, b) = (run(false), run(true));
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.end_time.to_bits(), b.end_time.to_bits());
    }

    #[test]
    fn generated_crash_schedule_runs_to_completion_and_degrades() {
        use crate::availability::FaultSpec;
        use eirs_queueing::Exponential;
        let spec = FaultSpec::parse("crash:mtbf=30,mttr=10").unwrap();
        let run = |faulted: bool| {
            let mut source = crate::arrivals::PoissonStream::new(
                1.2,
                0.8,
                Box::new(Exponential::new(1.0)),
                Box::new(Exponential::new(1.0)),
                21,
            );
            let cfg = DesConfig {
                k: 4,
                stop: StopRule::SimTime(3_000.0),
                warmup_departures: 0,
            };
            let sim = Simulation::new(cfg);
            let sim = if faulted {
                sim.with_faults(&spec.schedule(4, 9, 3_000.0))
            } else {
                sim
            };
            sim.run(&crate::policy::FairShare, &mut source)
        };
        let faulted = run(true);
        let clean = run(false);
        assert!(faulted.preemptions > 0, "a lossy schedule must preempt");
        assert!(faulted.completed[0] + faulted.completed[1] > 0);
        // Losing ~25% of capacity must hurt mean response.
        assert!(
            faulted.mean_response > clean.mean_response,
            "faulted {} vs clean {}",
            faulted.mean_response,
            clean.mean_response
        );
    }

    #[test]
    fn tails_are_histogram_quantiles_of_each_class_measured_responses() {
        use eirs_queueing::Exponential;
        // At ρ = 0.95 the queues build up from empty, so warm-up
        // departures are faster than measured ones, and under IF the
        // elastic class waits far longer than the inelastic one: a
        // recorded warm-up departure or a response filed under the wrong
        // class moves a quantile by much more than the histogram's error.
        let trace = ArrivalTrace::record_poisson(
            0.9,
            0.5,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(0.5)),
            4,
            1_500.0,
        );
        let (k, warmup) = (2, 600);
        let config = DesConfig {
            k,
            stop: StopRule::Drain,
            warmup_departures: warmup,
        };
        let r = Simulation::new(config).run(&InelasticFirst, &mut trace.stream());

        /// Keeps each class's measured response times, under the
        /// simulation's warm-up rule.
        struct Collect {
            warmup: u64,
            departures: u64,
            measured: [Vec<f64>; 2],
        }
        impl Hooks for Collect {
            fn allocate(&mut self, i: usize, j: usize, servers: u32) -> ClassAllocation {
                InelasticFirst.allocate(i, j, servers)
            }
            fn name(&self) -> &str {
                "collect"
            }
            fn on_departure(&mut self, job: &Job, t: f64) {
                self.departures += 1;
                if self.departures > self.warmup {
                    self.measured[job.class as usize].push(t);
                }
            }
        }
        let mut c = Collect {
            warmup,
            departures: 0,
            measured: Default::default(),
        };
        let mut cluster = Cluster::new(k);
        let mut arrivals = trace.arrivals().iter().peekable();
        loop {
            match cluster.step(&mut c, arrivals.peek().map(|a| a.time), f64::INFINITY) {
                Step::Idle => break,
                Step::ArrivalDue => {
                    cluster.admit(&mut c, arrivals.next().expect("a due arrival"));
                }
                Step::Advanced => {}
            }
        }
        let [inelastic, elastic] = c.measured;
        assert_eq!(r.completed, [inelastic.len() as u64, elastic.len() as u64]);
        let both = [inelastic.as_slice(), elastic.as_slice()].concat();
        for (tails, mut xs) in [
            (r.tail_response_inelastic, inelastic),
            (r.tail_response_elastic, elastic),
            (r.tail_response, both),
        ] {
            xs.sort_by(f64::total_cmp);
            let (p50, p95, p99) = tails;
            for (got, q) in [(p50, 0.5), (p95, 0.95), (p99, 0.99)] {
                let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
                let exact = xs[rank - 1];
                assert!(
                    (got - exact).abs() <= exact / 32.0,
                    "P{}: reported {got}, exact {exact}",
                    q * 100.0
                );
            }
        }
    }

    #[test]
    fn lockstep_runs_equal_separate_runs() {
        use crate::availability::FaultSpec;
        use crate::policy::{FairShare, TablePolicy};
        use eirs_queueing::Exponential;
        // ~900 arrivals over 400 time units at load 0.7 on k = 4, with
        // crash churn that preempts, and three jobs present at time zero.
        let trace = ArrivalTrace::record_poisson(
            1.2,
            0.8,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(0.5)),
            17,
            400.0,
        );
        let faults = FaultSpec::parse("crash:mtbf=30,mttr=10")
            .unwrap()
            .schedule(4, 5, 2_000.0);
        let sim = |stop: StopRule| {
            let config = DesConfig {
                k: 4,
                stop,
                warmup_departures: 50,
            };
            let mut sim = Simulation::new(config).with_faults(&faults);
            sim.preload([
                (JobClass::Inelastic, 3.0),
                (JobClass::Elastic, 6.0),
                (JobClass::Inelastic, 0.5),
            ]);
            sim
        };
        let table = TablePolicy::random_class_p(3);
        let policies: [&dyn AllocationPolicy; 4] =
            [&InelasticFirst, &ElasticFirst, &FairShare, &table];
        // (stop rule, whether the runs stop at different times)
        for (stop, apart) in [
            // Mid-trace.
            (StopRule::Departures(300), true),
            // The trace ends mid-run: every run serves what is left and
            // idles on at the last capacity change.
            (StopRule::Departures(100_000), false),
            (StopRule::SimTime(150.0), false),
            (StopRule::SimTime(1_000.0), false),
            (StopRule::Drain, true),
        ] {
            let each = sim(stop).run_each(&policies, &mut trace.stream());
            assert_eq!(each.len(), policies.len());
            for (policy, lockstep) in policies.iter().zip(&each) {
                let alone = sim(stop).run(*policy, &mut trace.stream());
                assert_eq!(
                    format!("{lockstep:?}"),
                    format!("{alone:?}"),
                    "{} under {stop:?}",
                    policy.name()
                );
            }
            assert!(each.iter().any(|r| r.preemptions > 0), "{stop:?}");
            let ends: Vec<u64> = each.iter().map(|r| r.end_time.to_bits()).collect();
            assert_eq!(ends.iter().any(|&e| e != ends[0]), apart, "{stop:?}");
        }
        let drained = sim(StopRule::Departures(100_000)).run(&InelasticFirst, &mut trace.stream());
        assert!(drained.completed[0] + drained.completed[1] < 100_000);
    }

    #[test]
    fn preloaded_jobs_have_zero_arrival_time() {
        let mut sim = Simulation::new(DesConfig::drain(2));
        sim.preload([(JobClass::Inelastic, 1.0), (JobClass::Elastic, 2.0)]);
        let empty = ArrivalTrace::default();
        let mut s = empty.stream();
        let r = sim.run(&InelasticFirst, &mut s);
        // IF: inelastic done at 1 (1 server), elastic on remaining 1 server
        // until t=1 (1 unit done), then 2 servers: remaining 1 → 0.5 → t=1.5.
        assert!(
            (r.total_response - 2.5).abs() < 1e-9,
            "{}",
            r.total_response
        );
    }
}
