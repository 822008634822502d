//! The cluster kernel: the one job-level event loop behind the DES
//! ([`crate::des`]), the Theorem 3 coupling ([`crate::coupling`]) and the
//! serving shards of `eirs_serve`.
//!
//! A [`Cluster`] owns `k` unit-speed servers, the two FCFS queues, the
//! clock, the next job id, the available server count `avail ≤ k` and its
//! cursor into a capacity-change schedule. The schedule itself is shared:
//! a clone of a cluster copies the jobs and the clock but not the
//! schedule, so several runs can start from one configured cluster (as
//! [`Simulation::run_each`](crate::des::Simulation::run_each) does) for
//! the memory of one schedule. [`Cluster::step`] applies the
//! capacity changes that are due, makes one allocation decision, advances
//! to the next event (a completion, a capacity change, the pending arrival
//! or the caller's time limit) and sweeps departures; [`Cluster::admit`]
//! then lets in an arrival the step found due. Drivers keep their own state
//! — statistics, digests, work samples — and watch the loop through
//! [`Hooks`], a generic parameter, so every hook call is statically
//! dispatched. Because all drivers run this code, the DES and the serving
//! engine agree by construction.
//!
//! # Service
//!
//! Between events every allocation is constant, so each served job's
//! completion time is `remaining / rate` and the loop is exact (no time
//! discretization). Within each class service is FCFS: the first `⌊π_I⌋`
//! inelastic jobs get one server each, the next inelastic job gets the
//! fractional remainder, and the head-of-line elastic job receives the
//! whole elastic share (for linear-speedup jobs the split within the class
//! does not change the class's completion rate, and head-of-line matches
//! the paper's EF/IF definitions).
//!
//! # Capacity churn
//!
//! The degraded-decision rule: at full capacity the policy is asked with
//! `k`, when degraded with `avail`, and at zero capacity the cluster idles
//! without asking it (policies need not be defined on an empty cluster).
//! Elastic jobs are malleable and shrink onto the surviving servers — no
//! work is lost. Inelastic jobs use one server each and cannot migrate:
//! when capacity drops, every inelastic job at queue position `≥ avail`
//! that has progress is **preempt-restarted** — its remaining work resets
//! to its full size and it re-enters at the back of the inelastic queue,
//! the preempted jobs keeping their relative order. Untouched jobs keep
//! their position; capacity increases never disturb state. Capacity
//! changes take effect at their timestamp, after any simultaneous
//! completion has been swept and before the next decision.
//!
//! # Jobs done at admission
//!
//! The departure sweep removes finished inelastic jobs anywhere in their
//! queue but finished elastic jobs only from its head. So an admitted job
//! whose size is already within the completion tolerance of zero leaves
//! during [`Cluster::admit`] only if it is inelastic; an elastic one waits
//! until every elastic job ahead of it has departed. Under Elastic-First
//! with `k = 1`, a size-2 elastic job at `t = 0` and a size-0 elastic job
//! at `t = 0.5` both leave at `t = 2`: total response 3.5, not 2.0.
//!
//! A sweep visits only the inelastic jobs that can have finished since
//! the last one: after a step the served prefix (the first `⌊π_I⌋ + 1`
//! jobs), after an admission the admitted job. Every other job was
//! already unfinished at the last sweep and has not been served since.
//! Jobs that enter without a sweep (preloaded or restored) make the next
//! sweep visit the whole queue.
//!
//! # Arrivals due now
//!
//! A step whose pending arrival is already due (its epoch is not after
//! the clock, as for every arrival of a burst after the first, or a late
//! network arrival clamped to the stream clock) still applies the due
//! capacity changes and makes its decision, but then returns
//! [`Step::ArrivalDue`] at once. No time passes, so no job is served and
//! none can have finished since the last sweep: the completion scan, the
//! advance and the served-prefix sweep would change nothing, and are
//! skipped. Only jobs that entered unswept are swept. Every hook sees what
//! it saw when such a step ran the whole loop, so digests and reports keep
//! their bits.

use crate::arrivals::Arrival;
use crate::availability::{CapacityEvent, FaultSchedule};
use crate::job::{Job, JobClass};
use crate::policy::{assert_feasible, ClassAllocation};
use std::collections::{vec_deque, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// A driver's view of the event loop. Only the policy
/// ([`Hooks::allocate`]) and its [`Hooks::name`] are required; every
/// observer defaults to doing nothing.
pub trait Hooks {
    /// The policy: the allocation at occupancy `(i, j)` on `servers`
    /// servers (`k` at full capacity, `avail` when degraded, never 0).
    fn allocate(&mut self, i: usize, j: usize, servers: u32) -> ClassAllocation;

    /// The policy's name, for the feasibility and idle-forever panics.
    fn name(&self) -> &str;

    /// Sees every decision once it passed the feasibility check, the idle
    /// decision at zero capacity included; the cluster shows the
    /// occupancy and capacity it was made at.
    fn on_decision(&mut self, _cluster: &Cluster, _allocation: ClassAllocation) {}

    /// Sees the clock advance by `dt > 0` under `allocation`, after the
    /// fact: `served` is the work removed per class `[inelastic,
    /// elastic]` (the inelastic entry summed job by job in queue order),
    /// and the cluster shows the new clock with departures not yet swept.
    fn on_advance(
        &mut self,
        _cluster: &Cluster,
        _allocation: ClassAllocation,
        _dt: f64,
        _served: [f64; 2],
    ) {
    }

    /// Sees a job leave, with its response time.
    fn on_departure(&mut self, _job: &Job, _response: f64) {}

    /// Sees an inelastic job just before a preempt-restart resets it.
    fn on_preempt(&mut self, _job: &Job) {}

    /// Decides whether a due arrival enters (`false` sheds it). The clock
    /// is already at the arrival epoch.
    fn admit(&mut self, _cluster: &Cluster, _arrival: &Arrival) -> bool {
        true
    }
}

/// What one [`Cluster::step`] reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The clock reached a completion, a capacity change or the time
    /// limit.
    Advanced,
    /// The pending arrival is due: let it in with [`Cluster::admit`].
    ArrivalDue,
    /// Nothing can happen any more: no arrival is pending, no capacity
    /// change is ahead and the cluster is empty.
    Idle,
}

/// `k` servers, two FCFS queues, a clock and a capacity-change schedule
/// (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Cluster {
    k: u32,
    time: f64,
    next_id: u64,
    inelastic: VecDeque<Job>,
    elastic: VecDeque<Job>,
    avail: u32,
    faults: Arc<[CapacityEvent]>,
    fault_cursor: usize,
    /// Jobs entered without a sweep: the next sweep visits every job.
    unswept: bool,
}

impl Cluster {
    /// An empty, fully available cluster of `k` servers at time zero.
    pub fn new(k: u32) -> Self {
        Self {
            k,
            time: 0.0,
            next_id: 0,
            inelastic: VecDeque::with_capacity(16),
            elastic: VecDeque::with_capacity(16),
            avail: k,
            faults: Arc::default(),
            fault_cursor: 0,
            unswept: false,
        }
    }

    /// Replaces the capacity-change schedule, sharing the schedule's
    /// events rather than copying them, and rewinds its cursor. The
    /// schedule's `k` must match the cluster's.
    pub fn with_faults(mut self, schedule: &FaultSchedule) -> Self {
        assert_eq!(
            schedule.k(),
            self.k,
            "fault schedule generated for k={}, cluster has k={}",
            schedule.k(),
            self.k
        );
        self.faults = schedule.shared_events();
        self.fault_cursor = 0;
        self
    }

    /// Servers when healthy.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The clock.
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Servers currently available (`k` when healthy).
    pub fn avail(&self) -> u32 {
        self.avail
    }

    /// Occupancy `(i, j)`: inelastic and elastic jobs present.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.inelastic.len(), self.elastic.len())
    }

    /// `true` when no job is present.
    pub fn is_empty(&self) -> bool {
        self.inelastic.is_empty() && self.elastic.is_empty()
    }

    /// The id the next enqueued job gets.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Capacity events applied so far.
    pub fn fault_cursor(&self) -> usize {
        self.fault_cursor
    }

    /// One class's queue, front to back.
    pub fn queue(&self, class: JobClass) -> vec_deque::Iter<'_, Job> {
        match class {
            JobClass::Inelastic => self.inelastic.iter(),
            JobClass::Elastic => self.elastic.iter(),
        }
    }

    fn queue_mut(&mut self, class: JobClass) -> &mut VecDeque<Job> {
        match class {
            JobClass::Inelastic => &mut self.inelastic,
            JobClass::Elastic => &mut self.elastic,
        }
    }

    /// The allocation at the current occupancy under the degraded-decision
    /// rule, as `(i, j, allocation)`: `allocate` is asked with `avail`
    /// servers (`k` when healthy) and not at all at zero capacity. A pure
    /// read — [`Cluster::step`] decides through it too.
    pub fn decision(
        &self,
        allocate: impl FnOnce(usize, usize, u32) -> ClassAllocation,
    ) -> (usize, usize, ClassAllocation) {
        let (i, j) = self.occupancy();
        let allocation = match self.avail {
            0 => ClassAllocation::IDLE,
            servers => allocate(i, j, servers),
        };
        (i, j, allocation)
    }

    /// Puts a job at the back of its class queue without sweeping
    /// departures (jobs present before a run starts).
    pub(crate) fn enqueue(&mut self, class: JobClass, size: f64, arrival: f64) {
        self.push(class, size, arrival);
        self.unswept = true;
    }

    /// Puts a new job at the back of its class queue.
    fn push(&mut self, class: JobClass, size: f64, arrival: f64) {
        let job = Job::new(self.next_id, class, size, arrival);
        self.next_id += 1;
        self.queue_mut(class).push_back(job);
    }

    /// One event-loop step toward the pending arrival at epoch `arrival`
    /// (`None` when there is none), never past the time `until`: applies
    /// due capacity changes, decides, advances to the next event and
    /// sweeps departures. When the arrival is already due, the step ends
    /// at the decision (see the [module docs](self)). Panics when the
    /// policy idles forever with jobs present.
    pub fn step<H: Hooks>(&mut self, hooks: &mut H, arrival: Option<f64>, until: f64) -> Step {
        while let Some(&e) = self.faults.get(self.fault_cursor) {
            if e.time > self.time + 1e-12 {
                break;
            }
            self.fault_cursor += 1;
            self.set_capacity(hooks, e.available);
        }
        let (i, j, alloc) = self.decision(|i, j, servers| hooks.allocate(i, j, servers));
        assert_feasible(alloc, i, j, self.avail, hooks.name());
        hooks.on_decision(self, alloc);
        let dt_arrival = arrival.map_or(f64::INFINITY, |t| t - self.time);
        debug_assert!(dt_arrival >= -1e-9, "arrival in the past");
        if dt_arrival <= 0.0 {
            // Due now: no time passes, so nothing is served and no job can
            // have finished since the last sweep.
            if self.unswept {
                self.sweep(hooks, 0..0);
            }
            return Step::ArrivalDue;
        }

        // FCFS rates: one server each for the first `whole` inelastic
        // jobs, the fractional rest for the next one.
        let whole = alloc.inelastic.floor() as usize;
        let frac = alloc.inelastic - whole as f64;
        let rate = |idx: usize| if idx < whole { 1.0 } else { frac };
        let mut dt_completion = f64::INFINITY;
        for (idx, job) in self.inelastic.iter().enumerate().take(whole + 1) {
            if rate(idx) > 0.0 {
                dt_completion = dt_completion.min(job.remaining / rate(idx));
            }
        }
        if alloc.elastic > 0.0 {
            if let Some(head) = self.elastic.front() {
                dt_completion = dt_completion.min(head.remaining / alloc.elastic);
            }
        }
        let dt_fault = self
            .faults
            .get(self.fault_cursor)
            .map_or(f64::INFINITY, |e| e.time - self.time);
        let dt = dt_completion
            .min(dt_arrival.max(0.0))
            .min(dt_fault.max(0.0))
            .min(until - self.time);
        if !dt.is_finite() {
            assert!(
                i == 0 && j == 0,
                "policy {} idles forever with jobs present (state ({i},{j}), {}/{} servers \
                 available)",
                hooks.name(),
                self.avail,
                self.k
            );
            return Step::Idle;
        }

        if dt > 0.0 {
            let mut served = [0.0; 2];
            for (idx, job) in self.inelastic.iter_mut().enumerate().take(whole + 1) {
                if rate(idx) > 0.0 {
                    let before = job.remaining;
                    job.remaining = (before - rate(idx) * dt).max(0.0);
                    served[0] += before - job.remaining;
                }
            }
            if alloc.elastic > 0.0 {
                if let Some(head) = self.elastic.front_mut() {
                    let before = head.remaining;
                    head.remaining = (before - alloc.elastic * dt).max(0.0);
                    served[1] = before - head.remaining;
                }
            }
            self.time += dt;
            hooks.on_advance(self, alloc, dt, served);
        }
        self.sweep(hooks, 0..whole + 1);
        match arrival {
            Some(t) if t <= self.time + 1e-12 && dt_arrival <= dt_completion => Step::ArrivalDue,
            _ => Step::Advanced,
        }
    }

    /// Lets in the arrival a [`Cluster::step`] found due: moves the clock
    /// onto its epoch (never backwards), asks [`Hooks::admit`], and if
    /// that agrees enqueues the job and sweeps departures. Returns whether
    /// the job entered.
    pub fn admit<H: Hooks>(&mut self, hooks: &mut H, arrival: &Arrival) -> bool {
        self.time = self.time.max(arrival.time);
        if !hooks.admit(self, arrival) {
            return false;
        }
        self.push(arrival.class, arrival.size, arrival.time);
        let admitted = match arrival.class {
            JobClass::Inelastic => self.inelastic.len() - 1..self.inelastic.len(),
            JobClass::Elastic => 0..0,
        };
        self.sweep(hooks, admitted);
        true
    }

    /// Moves the clock onto `t`, an epoch within rounding of now (the
    /// coupling snaps onto every trace arrival so coupled trajectories
    /// jump at the identical instant).
    pub(crate) fn snap_clock(&mut self, t: f64) {
        debug_assert!((self.time - t).abs() <= 1e-9 * (1.0 + t.abs()));
        self.time = t;
    }

    /// Restores saved state: the clock, the next job id, the capacity,
    /// the fault cursor and the jobs (each class's queue front to back,
    /// in any interleaving of the two classes). The fault schedule stays
    /// the one this cluster was built with. Refuses an `avail` above `k`
    /// or a cursor past the end of the schedule.
    pub fn restore(
        &mut self,
        time: f64,
        next_id: u64,
        avail: u32,
        fault_cursor: usize,
        jobs: impl IntoIterator<Item = Job>,
    ) -> Result<(), String> {
        if avail > self.k {
            return Err(format!(
                "snapshot claims {avail} available servers of {}",
                self.k
            ));
        }
        if fault_cursor > self.faults.len() {
            return Err(format!(
                "fault cursor {fault_cursor} beyond the {}-event schedule",
                self.faults.len()
            ));
        }
        self.time = time;
        self.next_id = next_id;
        self.avail = avail;
        self.fault_cursor = fault_cursor;
        self.inelastic.clear();
        self.elastic.clear();
        for job in jobs {
            self.queue_mut(job.class).push_back(job);
        }
        self.unswept = true;
        Ok(())
    }

    /// Removes finished jobs in order: inelastic jobs at the queue
    /// positions `candidates` (all of them after jobs entered unswept),
    /// elastic jobs from the head only.
    fn sweep<H: Hooks>(&mut self, hooks: &mut H, candidates: Range<usize>) {
        let time = self.time;
        let mut depart = |job: Job| hooks.on_departure(&job, time - job.arrival);
        let (mut idx, mut end) = if std::mem::take(&mut self.unswept) {
            (0, self.inelastic.len())
        } else {
            (candidates.start, candidates.end.min(self.inelastic.len()))
        };
        while idx < end {
            if self.inelastic[idx].is_done() {
                depart(self.inelastic.remove(idx).expect("index in range"));
                end -= 1;
            } else {
                idx += 1;
            }
        }
        while self.elastic.front().is_some_and(Job::is_done) {
            depart(self.elastic.pop_front().expect("front exists"));
        }
    }

    /// Sets the available capacity, preempt-restarting every inelastic
    /// job with progress beyond the surviving prefix.
    fn set_capacity<H: Hooks>(&mut self, hooks: &mut H, available: u32) {
        self.avail = available;
        let mut preempted = Vec::new();
        let mut idx = available as usize;
        while idx < self.inelastic.len() {
            let job = &self.inelastic[idx];
            if job.remaining < job.size {
                let mut job = self.inelastic.remove(idx).expect("index in range");
                hooks.on_preempt(&job);
                job.remaining = job.size;
                preempted.push(job);
            } else {
                idx += 1;
            }
        }
        self.inelastic.extend(preempted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AllocationPolicy, ElasticFirst, InelasticFirst};

    /// `(time, avail, [(id, remaining)] of the inelastic queue)` at a
    /// decision.
    type Seen = (f64, u32, Vec<(u64, f64)>);

    /// A policy plus a record of what the kernel showed it.
    struct Watch<P> {
        policy: P,
        decisions: Vec<Seen>,
        preemptions: u64,
        advances: u64,
        total_response: f64,
        departed: Vec<u64>,
    }

    impl<P: AllocationPolicy> Watch<P> {
        fn new(policy: P) -> Self {
            Self {
                policy,
                decisions: Vec::new(),
                preemptions: 0,
                advances: 0,
                total_response: 0.0,
                departed: Vec::new(),
            }
        }
    }

    /// Steps toward each of `arrivals` in turn and admits it, then
    /// drains when `drain`; returns the steps taken.
    fn feed<P: AllocationPolicy>(
        cluster: &mut Cluster,
        watch: &mut Watch<P>,
        arrivals: &[Arrival],
        drain: bool,
    ) -> usize {
        let mut steps = 0;
        let mut pending = arrivals.iter().peekable();
        while pending.peek().is_some() || (drain && !cluster.is_empty()) {
            steps += 1;
            let next = pending.peek().map(|a| a.time);
            if cluster.step(watch, next, f64::INFINITY) == Step::ArrivalDue {
                let a = pending.next().expect("a due arrival is pending");
                assert!(cluster.admit(watch, a));
            }
        }
        steps
    }

    fn inelastic(time: f64, size: f64) -> Arrival {
        Arrival {
            time,
            class: JobClass::Inelastic,
            size,
        }
    }

    impl<P: AllocationPolicy> Hooks for Watch<P> {
        fn allocate(&mut self, i: usize, j: usize, servers: u32) -> ClassAllocation {
            self.policy.allocate(i, j, servers)
        }
        fn name(&self) -> &str {
            "watched"
        }
        fn on_decision(&mut self, cluster: &Cluster, _: ClassAllocation) {
            let queue = cluster.queue(JobClass::Inelastic);
            let jobs = queue.map(|j| (j.id, j.remaining)).collect();
            self.decisions.push((cluster.now(), cluster.avail(), jobs));
        }
        fn on_departure(&mut self, job: &Job, response: f64) {
            self.total_response += response;
            self.departed.push(job.id);
        }
        fn on_advance(&mut self, _: &Cluster, _: ClassAllocation, _: f64, _: [f64; 2]) {
            self.advances += 1;
        }
        fn on_preempt(&mut self, _: &Job) {
            self.preemptions += 1;
        }
    }

    #[test]
    fn preempt_restart_requeues_displaced_jobs_in_order() {
        // k = 3 under IF, four inelastic jobs A, B, C, D (ids 0..3) of
        // size 5 at t = 0: A, B and C are served, D waits. Capacity drops
        // to 1 at t = 1 and comes back to 3 at t = 2.
        let events =
            [(1.0, 1), (2.0, 3)].map(|(time, available)| CapacityEvent { time, available });
        let mut cluster =
            Cluster::new(3).with_faults(&FaultSchedule::from_events(3, events.into()));
        for _ in 0..4 {
            cluster.enqueue(JobClass::Inelastic, 5.0, 0.0);
        }
        let mut watch = Watch::new(InelasticFirst);
        for _ in 0..3 {
            assert_eq!(
                cluster.step(&mut watch, None, f64::INFINITY),
                Step::Advanced
            );
        }
        let d = &watch.decisions;
        assert_eq!(d[0], (0.0, 3, vec![(0, 5.0), (1, 5.0), (2, 5.0), (3, 5.0)]));
        // B and C lost their servers at t = 1: reset to full size and sent
        // to the back, behind D, which had no progress to lose. A keeps
        // its server and its progress.
        assert_eq!(d[1], (1.0, 1, vec![(0, 4.0), (3, 5.0), (1, 5.0), (2, 5.0)]));
        assert_eq!(watch.preemptions, 2);
        // The increase at t = 2 reorders nothing.
        assert_eq!(d[2], (2.0, 3, vec![(0, 3.0), (3, 5.0), (1, 5.0), (2, 5.0)]));
    }

    #[test]
    fn a_done_elastic_job_waits_for_the_head_and_a_done_inelastic_one_leaves() {
        let run = |class: JobClass| {
            let mut cluster = Cluster::new(1);
            let mut watch = Watch::new(ElasticFirst);
            let arrivals = [
                Arrival {
                    time: 0.0,
                    class,
                    size: 2.0,
                },
                Arrival {
                    time: 0.5,
                    class,
                    size: 0.0,
                },
            ];
            feed(&mut cluster, &mut watch, &arrivals, true);
            watch.total_response
        };
        // Elastic: the size-0 job sits behind the head until t = 2.
        assert_eq!(run(JobClass::Elastic), 3.5);
        // Inelastic: it leaves at its arrival, response 0.
        assert_eq!(run(JobClass::Inelastic), 2.0);
    }

    #[test]
    fn a_done_job_that_entered_without_a_sweep_departs_at_the_first_step() {
        // k = 2 under IF: jobs 0 and 1 (size 5) are served, job 2 waits,
        // and job 3 (size 0) sits behind it, outside the served prefix.
        // Preloaded or restored, job 3 leaves with the first departures,
        // also when an arrival is due at once and the first step ends at
        // its decision.
        let sizes = [5.0, 5.0, 5.0, 0.0];
        let preloaded = {
            let mut cluster = Cluster::new(2);
            for size in sizes {
                cluster.enqueue(JobClass::Inelastic, size, 0.0);
            }
            cluster
        };
        let restored = {
            let mut cluster = Cluster::new(2);
            let jobs = (0..)
                .zip(sizes)
                .map(|(id, size)| Job::new(id, JobClass::Inelastic, size, 0.0));
            cluster.restore(0.0, 4, 2, 0, jobs).unwrap();
            cluster
        };
        let cases: [(Option<f64>, Step, f64, &[u64]); 2] = [
            (None, Step::Advanced, 5.0, &[0, 1, 3]),
            (Some(0.0), Step::ArrivalDue, 0.0, &[3]),
        ];
        for (arrival, reached, now, departed) in cases {
            for mut cluster in [preloaded.clone(), restored.clone()] {
                let mut watch = Watch::new(InelasticFirst);
                assert_eq!(cluster.step(&mut watch, arrival, f64::INFINITY), reached);
                assert_eq!(cluster.now(), now);
                assert_eq!(watch.departed, departed);
                assert_eq!(cluster.occupancy(), (4 - departed.len(), 0));
            }
        }
    }

    #[test]
    fn a_burst_of_m_arrivals_costs_m_decisions_and_no_advance() {
        // Five jobs at t = 2 onto an empty cluster whose clock is already
        // there: one decision each, at occupancy 0..5, and the clock
        // never moves.
        let mut cluster = Cluster::new(2);
        cluster.restore(2.0, 0, 2, 0, []).unwrap();
        let mut watch = Watch::new(InelasticFirst);
        let burst = [1.0, 2.0, 0.5, 3.0, 1.5].map(|size| inelastic(2.0, size));
        assert_eq!(feed(&mut cluster, &mut watch, &burst, false), 5);
        assert_eq!(watch.advances, 0);
        assert_eq!(cluster.now(), 2.0);
        let seen: Vec<(f64, usize)> = watch.decisions.iter().map(|d| (d.0, d.2.len())).collect();
        assert_eq!(seen, [(2.0, 0), (2.0, 1), (2.0, 2), (2.0, 3), (2.0, 4)]);
        assert_eq!(cluster.occupancy(), (5, 0));
    }

    #[test]
    fn a_capacity_drop_at_a_burst_is_applied_before_its_first_decision() {
        // k = 3 under IF: A and B (ids 0, 1, size 5) arrive together at
        // t = 0, C and D (ids 2, 3) together at t = 1, when capacity drops
        // to 1. The step that reaches t = 1 finds C due; the next decision,
        // the first one made at t = 1, already sees one server and B
        // preempt-restarted behind C.
        let events = [CapacityEvent {
            time: 1.0,
            available: 1,
        }];
        let mut cluster =
            Cluster::new(3).with_faults(&FaultSchedule::from_events(3, events.into()));
        let mut watch = Watch::new(InelasticFirst);
        let arrivals = [0.0, 0.0, 1.0, 1.0].map(|time| inelastic(time, 5.0));
        assert_eq!(feed(&mut cluster, &mut watch, &arrivals, false), 4);
        assert_eq!(watch.advances, 1);
        assert_eq!(watch.preemptions, 1);
        let d = &watch.decisions;
        assert_eq!(d[0], (0.0, 3, vec![]));
        assert_eq!(d[1], (0.0, 3, vec![(0, 5.0)]));
        assert_eq!(d[2], (0.0, 3, vec![(0, 5.0), (1, 5.0)]));
        assert_eq!(d[3], (1.0, 1, vec![(0, 4.0), (2, 5.0), (1, 5.0)]));
    }
}
