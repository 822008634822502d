//! The sharded online cluster engine.
//!
//! A [`ServeEngine`] is the production-shaped loop around a
//! [`CompiledTable`]: arrival events stream in (from
//! `eirs_sim::MapStream`, a replayed
//! [`ArrivalTrace`](eirs_sim::arrivals::ArrivalTrace), or any other
//! [`ArrivalSource`]), get hash-routed over
//! [`EngineConfig::route_shards`] independent cluster shards, and every
//! shard advances its own occupancy state making one table lookup per
//! event-loop step — the **decision**.
//!
//! The engine ingests one batch at a time ([`ServeEngine::ingest_batch`]).
//! Between batches it sits at a barrier: the arrivals numbered below
//! [`ServeEngine::ingested`] are in, and no later one, so a snapshot or
//! a policy swap ([`ServeEngine::install_table`]) taken there is exact.
//! [`ServeEngine::run`] goes through [`feed`], the one arrival loop of
//! every journaled, recovered and replayed run, which cuts batches
//! exactly at the barriers its caller names.
//!
//! # Shard semantics and determinism
//!
//! The routing partition is part of the *workload semantics*: shard
//! `mix64(seq) % route_shards` owns the `seq`-th arrival, always. The
//! worker count ([`EngineConfig::workers`], the CLI's `--shards`) is pure
//! *processing* parallelism over that fixed partition — the same
//! discipline as `eirs_core::sweep` and `eirs_sim::replicate`. Because
//! each shard's trajectory is a pure function of its routed substream,
//! parallel runs are bit-identical to serial, and the shard-ordered
//! [decision digest](ServeEngine::decision_digest) is invariant to the
//! worker count. The CI determinism gate replays the bundled trace with
//! 1 and 4 workers and asserts equal digests.
//!
//! # Shard workers
//!
//! With `workers > 1` the engine owns `min(workers, route_shards) − 1`
//! worker threads, and the engine thread is the last worker. The threads
//! start the first time a batch runs in parallel (never in
//! [`ServeEngine::new`]) and live until the engine drops. Each batch
//! queues every shard, with its routed arrivals, beside the current
//! table; the engine thread takes shards from the front of the queue and
//! the worker threads take them from the back, one at a time, until none
//! is left. The engine thread then waits for the shards still being
//! worked and takes all of them back in shard order before the call
//! returns, so between batches every shard sits in the engine, where
//! snapshot, metrics, digests and swaps read them. No thread waits for
//! another to wake: a worker that wakes late finds fewer shards, or none,
//! left to take. A panic on any shard is resumed on the caller once every
//! shard is back.
//!
//! # Exactness against the simulator
//!
//! Each shard is an [`eirs_sim::kernel::Cluster`] — the event loop
//! [`eirs_sim::des::Simulation`] runs too — driven through serving hooks:
//! the compiled table decides, and the hooks fold the digest, keep the
//! metrics and the decision log, and shed. The event mechanics are
//! therefore the DES's by construction, so replaying a recorded trace
//! through a single-shard engine reproduces the DES allocation sequence
//! **exactly**. What the `serve_layer` and `replay` tests still compare
//! is the two drivers' wrappers: the table lookup against the raw policy
//! call, and the engine's batched, routed admission against the DES's
//! arrival loop.
//!
//! # Degraded mode (capacity churn)
//!
//! With a [`ChurnConfig`] attached, every shard replays its own seeded
//! [`FaultSchedule`] (derived from the shard *index*, so faults — like
//! routing — are workload semantics, invariant to the worker count) and
//! tracks an effective capacity `avail ≤ k`.
//! The kernel's degraded-decision rule applies: at full capacity the
//! compiled grid serves (the hot path); at zero capacity the shard idles
//! without consulting the policy; in between, lookups are capped to the
//! available count by delegating to the source policy
//! ([`CompiledTable::lookup_capped`]). Capacity drops preempt-restart
//! partially-served inelastic jobs that no longer fit (progress resets,
//! the job re-enters at the back of its queue; see
//! [`eirs_sim::kernel`]); elastic jobs shrink gracefully. Optional bounded
//! admission shedding ([`EngineConfig::shed_limit`]) rejects arrivals
//! into an over-occupied degraded shard, accounted in
//! [`ShardMetrics::rejections`].

use crate::journal::{feed, JournalWriter};
use crate::metrics::ShardMetrics;
use crate::table::CompiledTable;
use eirs_sim::arrivals::{Arrival, ArrivalSource};
use eirs_sim::availability::{FaultSchedule, FaultSpec};
use eirs_sim::job::{Job, JobClass};
use eirs_sim::kernel::{Cluster, Hooks, Step};
use eirs_sim::policy::ClassAllocation;
use eirs_sim::record::mix64;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One allocation decision: the occupancy queried and the allocation
/// served. The decision stream is the engine's product; digests, logs,
/// and the DES cross-checks are all defined over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Inelastic occupancy at decision time.
    pub i: usize,
    /// Elastic occupancy at decision time.
    pub j: usize,
    /// The allocation served.
    pub allocation: ClassAllocation,
}

/// Folds one decision into a running digest.
#[inline]
fn fold_decision(digest: u64, i: usize, j: usize, a: ClassAllocation) -> u64 {
    let mut h = mix64(digest ^ (((i as u64) << 32) | j as u64));
    h = mix64(h ^ a.inelastic.to_bits());
    mix64(h ^ a.elastic.to_bits())
}

/// The shard owning global arrival number `seq` in an engine with
/// `route_shards` shards: [`ServeEngine::route`] as a free function, so
/// a caller can tell which shard an arrival lands on without holding
/// the engine. Every front end feeds one engine, which routes for itself.
#[inline]
pub fn route_for(seq: u64, route_shards: usize) -> usize {
    (mix64(seq) % route_shards as u64) as usize
}

/// Computes the digest of an explicit decision sequence — the same fold
/// the shards apply online, so a recorded DES log can be digested and
/// compared against a live engine.
pub fn digest_decisions(decisions: &[Decision]) -> u64 {
    decisions
        .iter()
        .fold(0, |d, dec| fold_decision(d, dec.i, dec.j, dec.allocation))
}

/// One journaled policy hot-swap: at global arrival `seq` the engine
/// switched to generation `generation`, serving the policy identified
/// by `hash` ([`CompiledTable::identity_hash`]) and recompilable from
/// `spec`. The ordered swap list is an engine's *generation schedule*;
/// replaying a journal with the same schedule reproduces the live
/// decision digest bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapRecord {
    /// Global arrival sequence number the swap took effect at: arrivals
    /// `< seq` were decided by the previous generation, arrivals
    /// `>= seq` by this one.
    pub seq: u64,
    /// Policy generation installed (the fresh engine is generation 0;
    /// the first swap installs generation 1).
    pub generation: u32,
    /// [`CompiledTable::identity_hash`] of the installed table.
    pub hash: u64,
    /// Parseable policy spec (the CLI `--policy` grammar) the table was
    /// compiled from, so replay can recompile it.
    pub spec: String,
}

/// The per-arrival acknowledgment produced by
/// [`ServeEngine::ingest_batch_admissions`]: which shard served the
/// arrival, whether it was admitted or shed, the post-admission
/// occupancy, and the allocation the table serves at that occupancy.
/// This is what the network front end writes back as a decision frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admission {
    /// Route shard that owns the arrival.
    pub shard: usize,
    /// Shard inelastic occupancy after the arrival was processed.
    pub i: usize,
    /// Shard elastic occupancy after the arrival was processed.
    pub j: usize,
    /// Allocation the table serves at `(i, j)` under the shard's
    /// current capacity (a pure read — no digest/metrics side effects).
    pub allocation: ClassAllocation,
    /// `false` when degraded-mode admission shedding rejected the
    /// arrival ([`EngineConfig::shed_limit`]).
    pub admitted: bool,
    /// Policy generation that decided the arrival.
    pub generation: u32,
}

/// The capacity-churn identity of an engine: which fault model runs,
/// under which seed, over which horizon. Part of the serving identity —
/// snapshots and journals record it, and restore refuses a mismatch
/// (continuing under different faults would break the bit-identical
/// continuation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// The fault model.
    pub spec: FaultSpec,
    /// Base fault seed; shard `s` replays the schedule seeded from
    /// `(seed, s)` (see [`FaultSpec::schedule_for_shard`]).
    pub seed: u64,
    /// Horizon the schedules are generated to; capacity is fully
    /// recovered from the horizon on.
    pub horizon: f64,
}

impl ChurnConfig {
    /// Canonical identity line: `spec=<label> seed=<s> horizon=<h>`.
    /// Round-trips through [`ChurnConfig::parse_identity`].
    pub fn identity(&self) -> String {
        format!(
            "spec={} seed={} horizon={}",
            self.spec.label(),
            self.seed,
            self.horizon
        )
    }

    /// Parses the [`ChurnConfig::identity`] form.
    pub fn parse_identity(raw: &str) -> Result<Self, String> {
        let bad = || format!("cannot parse churn identity '{raw}'");
        let mut spec = None;
        let mut seed = None;
        let mut horizon = None;
        for field in raw.split_whitespace() {
            let (key, value) = field.split_once('=').ok_or_else(bad)?;
            match key {
                "spec" => spec = Some(FaultSpec::parse(value)?),
                "seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "horizon" => horizon = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(bad()),
            }
        }
        match (spec, seed, horizon) {
            (Some(spec), Some(seed), Some(horizon)) => Ok(Self {
                spec,
                seed,
                horizon,
            }),
            _ => Err(bad()),
        }
    }
}

/// Engine shape: cluster size, routing partition, worker parallelism,
/// ingestion batching, and the fault model.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Servers per cluster shard.
    pub k: u32,
    /// Independent cluster shards the traffic is hash-partitioned over.
    /// Part of the workload semantics: changing it changes which shard
    /// serves which job (and hence the decisions).
    pub route_shards: usize,
    /// Shard workers advancing the partition in parallel (`1` is the
    /// serial reference path; results are bit-identical either way). The
    /// engine thread is one of them; the other `min(workers,
    /// route_shards) − 1` threads start at the first parallel batch and
    /// live until the engine drops.
    pub workers: usize,
    /// Arrivals per ingestion round in [`ServeEngine::run`].
    pub batch: usize,
    /// Keep a full per-shard [`Decision`] log (differential testing /
    /// audit; costs memory proportional to the decision count).
    pub record_decisions: bool,
    /// Capacity churn; `None` serves at full capacity forever. Like the
    /// routing partition, churn is workload semantics, not a processing
    /// knob.
    pub churn: Option<ChurnConfig>,
    /// Degraded-mode admission shedding: while a shard is below full
    /// capacity, arrivals finding `i + j >= shed_limit` jobs present are
    /// rejected instead of queued. `None` never sheds.
    pub shed_limit: Option<usize>,
}

impl EngineConfig {
    /// Defaults: 4 route shards, 1 worker, batches of 1024, no log, no
    /// churn, no shedding.
    pub fn new(k: u32) -> Self {
        Self {
            k,
            route_shards: 4,
            workers: 1,
            batch: 1024,
            record_decisions: false,
            churn: None,
            shed_limit: None,
        }
    }

    /// Sets the routing partition width.
    pub fn route_shards(mut self, n: usize) -> Self {
        self.route_shards = n;
        self
    }

    /// Sets the shard-worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the ingestion batch size.
    pub fn batch(mut self, n: usize) -> Self {
        self.batch = n;
        self
    }

    /// Enables the full decision log.
    pub fn record_decisions(mut self, on: bool) -> Self {
        self.record_decisions = on;
        self
    }

    /// Attaches a capacity-churn model.
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Sets the degraded-mode admission-shedding occupancy bound.
    pub fn shed_limit(mut self, limit: usize) -> Self {
        self.shed_limit = Some(limit);
        self
    }
}

/// One independent cluster shard: a kernel [`Cluster`] of `k` servers,
/// what the server records of it, and its share of the current batch.
pub(crate) struct ClusterShard {
    pub(crate) cluster: Cluster,
    pub(crate) ledger: Ledger,
    /// The arrivals routed here in the current batch, each with its
    /// position in the batch.
    inbox: Vec<(usize, Arrival)>,
    /// One acknowledgment per `inbox` entry ([`Task::Admit`] only).
    acks: Vec<Admission>,
}

/// What a batch asks of every shard.
#[derive(Clone, Copy)]
enum Task {
    /// Ingest the routed arrivals.
    Ingest,
    /// Ingest them and acknowledge each under policy `generation`.
    Admit { generation: u32 },
    /// Run the remaining work to completion.
    Drain,
}

/// A shard's records: its decision digest, metrics, optional decision
/// log and decision-latency telemetry, plus its shedding bound.
pub(crate) struct Ledger {
    pub(crate) digest: u64,
    pub(crate) metrics: ShardMetrics,
    pub(crate) log: Option<Vec<Decision>>,
    shed_limit: Option<usize>,
    /// Wall-clock decision latency (nanoseconds), recorded only while
    /// the `eirs_obs` layer is enabled. Deliberately *not* part of
    /// [`ShardMetrics`]: wall time is nondeterministic, and the
    /// determinism gates compare per-shard metrics bit for bit.
    pub(crate) latency: eirs_obs::LatencyHistogram,
}

/// The hooks a shard's kernel runs under: the table decides, [`Ledger`]
/// records.
struct Serving<'a> {
    table: &'a CompiledTable,
    ledger: &'a mut Ledger,
    /// Start of the decision being timed (telemetry only).
    t0: Option<Instant>,
}

impl Hooks for Serving<'_> {
    fn allocate(&mut self, i: usize, j: usize, servers: u32) -> ClassAllocation {
        self.t0 = eirs_obs::enabled().then(Instant::now);
        self.table.lookup_capped(i, j, servers)
    }

    fn name(&self) -> &str {
        "compiled table"
    }

    fn on_decision(&mut self, cluster: &Cluster, allocation: ClassAllocation) {
        // Telemetry is write-only: the timing never feeds back into any
        // decision, so enabling it cannot perturb the digest.
        let t0 = self
            .t0
            .take()
            .or_else(|| eirs_obs::enabled().then(Instant::now));
        let (i, j) = cluster.occupancy();
        let degraded = cluster.avail() < cluster.k();
        let ledger = &mut *self.ledger;
        ledger
            .metrics
            .record_decision(i, j, allocation, degraded || self.table.in_grid(i, j));
        ledger.metrics.degraded_decisions += u64::from(degraded);
        ledger.digest = fold_decision(ledger.digest, i, j, allocation);
        if let Some(log) = &mut ledger.log {
            log.push(Decision { i, j, allocation });
        }
        if let Some(t0) = t0 {
            ledger.latency.record(t0.elapsed().as_nanos() as u64);
        }
    }

    fn on_advance(&mut self, cluster: &Cluster, _: ClassAllocation, _: f64, _: [f64; 2]) {
        self.ledger.metrics.sim_time = cluster.now();
    }

    fn on_departure(&mut self, _: &Job, response: f64) {
        self.ledger.metrics.record_response(response);
    }

    fn on_preempt(&mut self, _: &Job) {
        self.ledger.metrics.preemptions += 1;
    }

    /// Counts the arrival, then applies degraded-mode admission shedding:
    /// reject when below full capacity with `shed_limit` or more jobs
    /// already present.
    fn admit(&mut self, cluster: &Cluster, a: &Arrival) -> bool {
        let m = &mut self.ledger.metrics;
        m.arrivals += 1;
        match a.class {
            JobClass::Inelastic => m.arrivals_inelastic += 1,
            JobClass::Elastic => m.arrivals_elastic += 1,
        }
        m.sim_time = cluster.now();
        let (i, j) = cluster.occupancy();
        let degraded = cluster.avail() < cluster.k();
        let shed = degraded && self.ledger.shed_limit.is_some_and(|limit| i + j >= limit);
        m.rejections += u64::from(shed);
        !shed
    }
}

impl Ledger {
    /// The hooks that keep this ledger while `table` decides.
    fn serving<'a>(&'a mut self, table: &'a CompiledTable) -> Serving<'a> {
        Serving {
            table,
            ledger: self,
            t0: None,
        }
    }
}

impl ClusterShard {
    pub(crate) fn new(
        k: u32,
        record: bool,
        faults: &FaultSchedule,
        shed_limit: Option<usize>,
    ) -> Self {
        Self {
            cluster: Cluster::new(k).with_faults(faults),
            ledger: Ledger {
                digest: 0,
                metrics: ShardMetrics::new(k),
                log: record.then(Vec::new),
                shed_limit,
                latency: eirs_obs::LatencyHistogram::new(),
            },
            inbox: Vec::new(),
            acks: Vec::new(),
        }
    }

    /// A pure read of the allocation the shard would serve at its
    /// current occupancy — the kernel's degraded-decision rule with
    /// **no** side effects (no digest fold, no metrics, no log). Used to
    /// build [`Admission`] acknowledgments; because it never mutates,
    /// acking cannot perturb the decision stream.
    pub(crate) fn peek(&self, table: &CompiledTable) -> (usize, usize, ClassAllocation) {
        self.cluster
            .decision(|i, j, servers| table.lookup_capped(i, j, servers))
    }

    /// Steps the kernel until the arrival is due, then admits it.
    /// Returns `false` when degraded-mode admission shedding rejected
    /// the arrival.
    pub(crate) fn ingest(&mut self, table: &CompiledTable, a: Arrival) -> bool {
        let mut hooks = self.ledger.serving(table);
        while self.cluster.step(&mut hooks, Some(a.time), f64::INFINITY) != Step::ArrivalDue {}
        self.cluster.admit(&mut hooks, &a)
    }

    /// Runs remaining work to completion (no further arrivals; pending
    /// capacity events still fire, so an outage mid-drain degrades
    /// exactly as it would mid-stream).
    pub(crate) fn drain(&mut self, table: &CompiledTable) {
        let mut hooks = self.ledger.serving(table);
        while !self.cluster.is_empty() {
            self.cluster.step(&mut hooks, None, f64::INFINITY);
        }
    }

    /// Does the batch's `task` on this shard, whose index is `index`.
    fn work(&mut self, index: usize, table: &CompiledTable, task: Task) {
        let inbox = std::mem::take(&mut self.inbox);
        match task {
            Task::Ingest => {
                for &(_, a) in &inbox {
                    self.ingest(table, a);
                }
            }
            Task::Admit { generation } => {
                self.acks.clear();
                for &(_, a) in &inbox {
                    let admitted = self.ingest(table, a);
                    let (i, j, allocation) = self.peek(table);
                    self.acks.push(Admission {
                        shard: index,
                        i,
                        j,
                        allocation,
                        admitted,
                        generation,
                    });
                }
            }
            Task::Drain => self.drain(table),
        }
        self.inbox = inbox;
    }
}

/// A panic caught while working a shard, resumed on the engine thread.
type Panic = Box<dyn Any + Send>;

/// Works `shard`, whose index is `index`, catching a panic.
fn work_caught(
    index: usize,
    shard: &mut ClusterShard,
    table: &CompiledTable,
    task: Task,
) -> Option<Panic> {
    panic::catch_unwind(AssertUnwindSafe(|| shard.work(index, table, task))).err()
}

/// The shards of the batch in progress, shared by the engine thread and
/// the pool's workers.
#[derive(Default)]
struct Batch {
    /// Shards no thread has taken yet, each with its index, in index
    /// order: the engine thread takes from the front, workers from the
    /// back.
    todo: VecDeque<(usize, ClusterShard)>,
    /// Shards worked, in the order they were finished.
    done: Vec<(usize, ClusterShard)>,
    /// The batch's table and task (`None` between batches).
    job: Option<(Arc<CompiledTable>, Task)>,
    /// The panic caught on the lowest-index shard, if any.
    panic: Option<(usize, Panic)>,
    /// Set when the engine drops: every worker returns.
    closed: bool,
}

impl Batch {
    /// Files a worked shard and the panic, if any, that cut it short.
    fn finish(&mut self, index: usize, shard: ClusterShard, panicked: Option<Panic>) {
        self.done.push((index, shard));
        if let Some(payload) = panicked {
            if self.panic.as_ref().is_none_or(|&(first, _)| index < first) {
                self.panic = Some((index, payload));
            }
        }
    }
}

/// What the engine thread and its workers share.
#[derive(Default)]
struct Shared {
    batch: Mutex<Batch>,
    /// Signalled when a batch is queued and when the engine drops.
    queued: Condvar,
}

impl Shared {
    /// Locks the batch. Shard work runs unlocked and under
    /// `catch_unwind`, so no thread panics while it holds the lock, and
    /// a poisoned lock would still guard a consistent batch.
    fn lock(&self) -> MutexGuard<'_, Batch> {
        self.batch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker thread: takes shards from the back of each batch and
    /// files them worked, until the engine drops.
    fn serve(&self) {
        let mut batch = self.lock();
        loop {
            if batch.closed {
                return;
            }
            let Some((index, mut shard)) = batch.todo.pop_back() else {
                batch = self
                    .queued
                    .wait(batch)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let (table, task) = batch.job.clone().expect("a queued batch has a job");
            drop(batch);
            let panicked = work_caught(index, &mut shard, &table, task);
            batch = self.lock();
            batch.finish(index, shard, panicked);
        }
    }
}

/// The engine's worker threads and the batch they share.
struct Pool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Starts `threads` workers.
    fn start(threads: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let threads = (1..=threads)
            .map(|n| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("eirs-shard-{n}"))
                    .spawn(move || shared.serve())
                    .expect("spawn a shard worker thread")
            })
            .collect();
        Self { shared, threads }
    }
}

impl Drop for Pool {
    /// Closes the batch, which ends every worker's loop, and joins them.
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.queued.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The online allocation server: a compiled table shared across a fixed
/// partition of independent cluster shards. See the [module
/// docs](self) for the determinism contract.
pub struct ServeEngine {
    pub(crate) config: EngineConfig,
    pub(crate) table: Arc<CompiledTable>,
    pub(crate) shards: Vec<ClusterShard>,
    pub(crate) seq: u64,
    /// Policy generation currently serving (0 until the first
    /// [`ServeEngine::install_table`]).
    pub(crate) generation: u32,
    /// Ordered swap history (the generation schedule).
    pub(crate) swap_log: Vec<SwapRecord>,
    /// The worker threads, once a batch has run in parallel.
    pool: Option<Pool>,
}

impl ServeEngine {
    /// A fresh engine serving `table` under `config`.
    pub fn new(table: CompiledTable, config: EngineConfig) -> Self {
        assert_eq!(
            table.k(),
            config.k,
            "table compiled for k={}, engine configured for k={}",
            table.k(),
            config.k
        );
        assert!(config.route_shards >= 1, "need at least one route shard");
        assert!(config.batch >= 1, "need a positive batch size");
        let shards = (0..config.route_shards)
            .map(|idx| {
                // Each routing shard replays its own seeded schedule,
                // derived from the shard index — never the worker id.
                let faults = match &config.churn {
                    Some(c) => c.spec.schedule_for_shard(config.k, c.seed, idx, c.horizon),
                    None => FaultSchedule::none(config.k),
                };
                ClusterShard::new(
                    config.k,
                    config.record_decisions,
                    &faults,
                    config.shed_limit,
                )
            })
            .collect();
        Self {
            config,
            table: Arc::new(table),
            shards,
            seq: 0,
            generation: 0,
            swap_log: Vec::new(),
            pool: None,
        }
    }

    /// Atomically installs a freshly compiled table as the next policy
    /// generation. The engine is advanced synchronously (one
    /// [`ServeEngine::ingest_batch`] at a time), so calling this between
    /// batches *is* the snapshot barrier: every shard has fully drained
    /// its routed share of the previous batch, arrivals `< seq` were
    /// decided by the old generation and arrivals `>= seq` by the new
    /// one. Returns the [`SwapRecord`] (also appended to
    /// [`ServeEngine::swap_log`]) for journaling.
    pub fn install_table(&mut self, table: CompiledTable, spec: &str) -> SwapRecord {
        assert_eq!(
            table.k(),
            self.config.k,
            "swap table compiled for k={}, engine serves k={}",
            table.k(),
            self.config.k
        );
        self.generation += 1;
        let record = SwapRecord {
            seq: self.seq,
            generation: self.generation,
            hash: table.identity_hash(),
            spec: spec.to_string(),
        };
        self.table = Arc::new(table);
        self.swap_log.push(record.clone());
        record
    }

    /// The policy generation currently serving (0 = the boot policy).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The ordered hot-swap history.
    pub fn swap_log(&self) -> &[SwapRecord] {
        &self.swap_log
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The compiled table being served.
    pub fn table(&self) -> &CompiledTable {
        &self.table
    }

    /// Global arrivals ingested so far (the routing sequence counter).
    pub fn ingested(&self) -> u64 {
        self.seq
    }

    /// The shard owning global arrival number `seq`.
    #[inline]
    pub fn route(&self, seq: u64) -> usize {
        route_for(seq, self.config.route_shards)
    }

    /// Ingests one batch of time-ordered arrivals: routes each to its
    /// shard, then advances all shards (in parallel when
    /// `config.workers > 1`). Completions are produced by the shards
    /// themselves as their clocks pass the completion epochs.
    pub fn ingest_batch(&mut self, arrivals: &[Arrival]) {
        if arrivals.is_empty() {
            return;
        }
        self.route_batch(arrivals);
        self.work(Task::Ingest);
    }

    /// Empties every shard's inbox, then routes `arrivals` into them,
    /// one sequence number each.
    fn route_batch(&mut self, arrivals: &[Arrival]) {
        for shard in &mut self.shards {
            shard.inbox.clear();
        }
        for (n, &a) in arrivals.iter().enumerate() {
            let s = self.route(self.seq);
            self.seq += 1;
            self.shards[s].inbox.push((n, a));
        }
    }

    /// Does `task` on every shard. With one worker the engine thread
    /// works them in order. Otherwise it queues them all for the pool
    /// (started here on first need), works shards from the front of the
    /// queue while the workers take them from the back, waits for the
    /// shards still being worked, and takes all of them back in index
    /// order. A panic on any shard is resumed once every shard is back,
    /// so the engine still holds them all when it unwinds.
    fn work(&mut self, task: Task) {
        let n = self.shards.len();
        let threads = self.config.workers.clamp(1, n) - 1;
        let table = &*self.table;
        if threads == 0 {
            for (index, shard) in self.shards.iter_mut().enumerate() {
                shard.work(index, table, task);
            }
            return;
        }
        let shared = &self.pool.get_or_insert_with(|| Pool::start(threads)).shared;
        {
            let mut batch = shared.lock();
            batch.todo.extend(self.shards.drain(..).enumerate());
            batch.job = Some((Arc::clone(&self.table), task));
        }
        shared.queued.notify_all();
        let mut batch = shared.lock();
        while let Some((index, mut shard)) = batch.todo.pop_front() {
            drop(batch);
            let panicked = work_caught(index, &mut shard, table, task);
            batch = shared.lock();
            batch.finish(index, shard, panicked);
        }
        // Every shard not yet filed is in a worker's hands, mid-work, so
        // the wait is short: yield rather than park.
        while batch.done.len() < n {
            drop(batch);
            std::thread::yield_now();
            batch = shared.lock();
        }
        batch.job = None;
        batch.done.sort_unstable_by_key(|&(index, _)| index);
        self.shards
            .extend(batch.done.drain(..).map(|(_, shard)| shard));
        if let Some((_, payload)) = batch.panic.take() {
            drop(batch);
            panic::resume_unwind(payload);
        }
    }

    /// [`ServeEngine::ingest_batch`] with per-arrival acknowledgments:
    /// routes and ingests exactly like `ingest_batch` (same seq
    /// consumption, same digests, same metrics), additionally returning
    /// one [`Admission`] per input arrival, in input order. The network
    /// front end uses this to write decision frames back to clients;
    /// ack collection is side-effect-free, so a run through this path
    /// is bit-identical to one through `ingest_batch`.
    pub fn ingest_batch_admissions(&mut self, arrivals: &[Arrival]) -> Vec<Admission> {
        if arrivals.is_empty() {
            return Vec::new();
        }
        self.route_batch(arrivals);
        self.work(Task::Admit {
            generation: self.generation,
        });
        let mut acks: Vec<Option<Admission>> = vec![None; arrivals.len()];
        for shard in &self.shards {
            for (&(n, _), &ack) in shard.inbox.iter().zip(&shard.acks) {
                acks[n] = Some(ack);
            }
        }
        acks.into_iter()
            .map(|a| a.expect("every arrival acknowledged"))
            .collect()
    }

    /// Runs every shard's remaining work to completion.
    pub fn drain(&mut self) {
        self.work(Task::Drain);
    }

    /// Pulls arrivals from `source` up to simulated time `until` through
    /// [`feed`], ingesting them in `config.batch`-sized rounds, then
    /// drains. Returns the number of arrivals ingested. (The first
    /// arrival past the horizon is consumed from the source and dropped.)
    pub fn run(&mut self, source: &mut dyn ArrivalSource, until: f64) -> u64 {
        let before = self.seq;
        let no_journal = None::<&mut JournalWriter<std::io::Sink>>;
        feed(self, source, until, no_journal, &[], |_, _, _| {
            Ok::<_, std::io::Error>(ControlFlow::Continue(()))
        })
        .expect("a feed with no journal and no barrier cannot fail");
        self.drain();
        self.seq - before
    }

    /// The engine-wide decision digest: per-shard digests folded in
    /// shard order. Equal digests mean equal decision streams — this is
    /// the CI determinism gate's currency, invariant to the worker count.
    pub fn decision_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |d, s| mix64(d ^ s.ledger.digest))
    }

    /// Per-shard decision digests, in shard order.
    pub fn shard_digests(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.ledger.digest).collect()
    }

    /// Per-shard metrics, in shard order.
    pub fn metrics_per_shard(&self) -> Vec<ShardMetrics> {
        self.shards
            .iter()
            .map(|s| s.ledger.metrics.clone())
            .collect()
    }

    /// Engine-wide metrics (all shards merged).
    pub fn metrics_total(&self) -> ShardMetrics {
        let mut total = ShardMetrics::new(self.config.k);
        for s in &self.shards {
            total.merge(&s.ledger.metrics);
        }
        total
    }

    /// Wall-clock decision-latency histogram, all shards merged
    /// (nanoseconds per shard `decide` call). Empty unless the
    /// `eirs_obs` layer was enabled while the engine ran — timing is
    /// telemetry, never an input, so the decision stream is identical
    /// either way.
    pub fn decision_latency(&self) -> eirs_obs::LatencyHistogram {
        let mut total = eirs_obs::LatencyHistogram::new();
        for s in &self.shards {
            total.merge(&s.ledger.latency);
        }
        total
    }

    /// Cluster-wide response-time histogram (simulated seconds), merged
    /// exactly from the per-shard histograms — the source for merged
    /// P50/P95/P99/P99.9.
    pub fn response_histogram(&self) -> eirs_obs::LatencyHistogram {
        let mut total = eirs_obs::LatencyHistogram::new();
        for s in &self.shards {
            total.merge(&s.ledger.metrics.response_hist);
        }
        total
    }

    /// Current occupancy `(i, j)` of every shard.
    pub fn occupancy(&self) -> Vec<(usize, usize)> {
        self.shards.iter().map(|s| s.cluster.occupancy()).collect()
    }

    /// The recorded decision sequences concatenated in shard order
    /// (empty unless [`EngineConfig::record_decisions`] is on). With a
    /// single route shard this is the engine's exact global decision
    /// sequence — what the DES cross-checks compare.
    pub fn decision_log(&self) -> Vec<Decision> {
        self.shards
            .iter()
            .flat_map(|s| s.ledger.log.iter().flatten().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{des_decision_log, RecordingPolicy};
    use eirs_queueing::Exponential;
    use eirs_sim::arrivals::ArrivalTrace;
    use eirs_sim::policy::{AllocationPolicy, FairShare, InelasticFirst};

    fn poisson_trace(seed: u64, horizon: f64) -> ArrivalTrace {
        ArrivalTrace::record_poisson(
            0.9,
            0.6,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(0.8)),
            seed,
            horizon,
        )
    }

    fn engine_for(policy: Box<dyn AllocationPolicy>, config: EngineConfig) -> ServeEngine {
        ServeEngine::new(CompiledTable::compile(policy, config.k, 24, 24), config)
    }

    #[test]
    fn single_shard_replay_reproduces_the_des_decision_sequence() {
        let trace = poisson_trace(7, 80.0);
        for policy in [
            Box::new(InelasticFirst) as Box<dyn AllocationPolicy>,
            Box::new(FairShare),
        ] {
            let reference = des_decision_log(policy.as_ref(), 3, &trace);
            let cfg = EngineConfig::new(3).route_shards(1).record_decisions(true);
            let mut engine = engine_for(policy, cfg);
            let mut source = trace.stream();
            engine.run(&mut source, f64::INFINITY);
            let served = engine.decision_log();
            assert_eq!(served.len(), reference.len(), "decision counts differ");
            for (n, (a, b)) in served.iter().zip(&reference).enumerate() {
                assert_eq!((a.i, a.j), (b.i, b.j), "state at decision {n}");
                assert_eq!(
                    a.allocation.inelastic.to_bits(),
                    b.allocation.inelastic.to_bits(),
                    "inelastic allocation at decision {n}"
                );
                assert_eq!(
                    a.allocation.elastic.to_bits(),
                    b.allocation.elastic.to_bits(),
                    "elastic allocation at decision {n}"
                );
            }
            assert_ne!(engine.decision_digest(), 0);
            assert_eq!(
                mix64(digest_decisions(&reference)),
                engine.decision_digest(),
                "digest of the DES log must match the live engine"
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_the_decision_digest() {
        let trace = poisson_trace(11, 120.0);
        let digest_with = |workers: usize| {
            let cfg = EngineConfig::new(2)
                .route_shards(6)
                .workers(workers)
                .batch(32);
            let mut engine = engine_for(Box::new(FairShare), cfg);
            let mut source = trace.stream();
            engine.run(&mut source, f64::INFINITY);
            (engine.decision_digest(), engine.shard_digests())
        };
        let serial = digest_with(1);
        for workers in [2, 3, 6, 8] {
            assert_eq!(digest_with(workers), serial, "{workers} workers diverged");
        }
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let cfg = EngineConfig::new(2).route_shards(5);
        let engine = engine_for(Box::new(InelasticFirst), cfg);
        let shards: Vec<usize> = (0..200).map(|s| engine.route(s)).collect();
        assert_eq!(
            shards,
            (0..200).map(|s| engine.route(s)).collect::<Vec<_>>()
        );
        for target in 0..5 {
            assert!(shards.contains(&target), "shard {target} never routed to");
        }
    }

    #[test]
    fn metrics_account_for_every_arrival_and_completion() {
        let trace = poisson_trace(3, 60.0);
        let cfg = EngineConfig::new(2).route_shards(3).batch(16);
        let mut engine = engine_for(Box::new(InelasticFirst), cfg);
        let mut source = trace.stream();
        let ingested = engine.run(&mut source, f64::INFINITY);
        assert_eq!(ingested, trace.len() as u64);
        let total = engine.metrics_total();
        assert_eq!(total.arrivals, trace.len() as u64);
        // run() drains, so every job completes and every shard is empty.
        assert_eq!(total.completions, total.arrivals);
        assert!(engine.occupancy().iter().all(|&(i, j)| i == 0 && j == 0));
        assert!(total.decisions >= total.events());
        assert!(total.mean_response() > 0.0);
        let histogram_total: u64 = total.busy_histogram.iter().sum();
        assert_eq!(histogram_total, total.decisions);
        // Per-shard metrics merge to the total.
        let merged = engine
            .metrics_per_shard()
            .iter()
            .fold(ShardMetrics::new(2), |mut acc, m| {
                acc.merge(m);
                acc
            });
        assert_eq!(merged, total);
    }

    #[test]
    fn single_shard_faulted_replay_matches_the_des() {
        use eirs_sim::des::{DesConfig, Simulation};
        let trace = poisson_trace(19, 100.0);
        let spec = FaultSpec::parse("crash:mtbf=20,mttr=6").unwrap();
        let churn = ChurnConfig {
            spec,
            seed: 5,
            horizon: 400.0,
        };
        let cfg = EngineConfig::new(3).route_shards(1).churn(churn);
        let mut engine = engine_for(Box::new(FairShare), cfg);
        let mut source = trace.stream();
        engine.run(&mut source, f64::INFINITY);
        let totals = engine.metrics_total();

        // The DES twin runs the same schedule shard 0 replays.
        let schedule = spec.schedule_for_shard(3, 5, 0, 400.0);
        let mut des_source = trace.stream();
        let report = Simulation::new(DesConfig::drain(3))
            .with_faults(&schedule)
            .run(&FairShare, &mut des_source);
        assert!(totals.degraded_decisions > 0, "schedule must actually bite");
        assert_eq!(
            totals.completions,
            report.completed[0] + report.completed[1]
        );
        assert_eq!(totals.preemptions, report.preemptions);
        assert_eq!(
            totals.total_response.to_bits(),
            report.total_response.to_bits(),
            "serve {} vs DES {}",
            totals.total_response,
            report.total_response
        );
        assert_eq!(totals.sim_time.to_bits(), report.end_time.to_bits());
    }

    #[test]
    fn worker_count_invariance_holds_under_churn_and_shedding() {
        let trace = poisson_trace(29, 150.0);
        let churn = ChurnConfig {
            spec: FaultSpec::parse("mmpp:r01=0.2,r10=0.3,a0=0.05,a1=0.8,mttr=8").unwrap(),
            seed: 17,
            horizon: 600.0,
        };
        let run_with = |workers: usize| {
            let cfg = EngineConfig::new(2)
                .route_shards(6)
                .workers(workers)
                .batch(32)
                .churn(churn)
                .shed_limit(4);
            let mut engine = engine_for(Box::new(FairShare), cfg);
            let mut source = trace.stream();
            engine.run(&mut source, f64::INFINITY);
            (
                engine.decision_digest(),
                engine.shard_digests(),
                engine.metrics_per_shard(),
            )
        };
        let serial = run_with(1);
        for workers in [2, 4, 6] {
            assert_eq!(run_with(workers), serial, "{workers} workers diverged");
        }
    }

    #[test]
    fn degraded_shedding_accounts_for_every_arrival() {
        let trace = poisson_trace(37, 200.0);
        // Periodic full outages: occupancy piles up, the shed bound
        // rejects the excess.
        let churn = ChurnConfig {
            spec: FaultSpec::parse("drain:period=20,down=10,servers=2").unwrap(),
            seed: 0,
            horizon: 800.0,
        };
        let cfg = EngineConfig::new(2)
            .route_shards(2)
            .churn(churn)
            .shed_limit(3);
        let mut engine = engine_for(Box::new(FairShare), cfg);
        let mut source = trace.stream();
        let ingested = engine.run(&mut source, f64::INFINITY);
        assert_eq!(ingested, trace.len() as u64);
        let totals = engine.metrics_total();
        assert_eq!(totals.arrivals, trace.len() as u64);
        assert!(totals.rejections > 0, "outages must shed under the bound");
        assert!(totals.degraded_decisions > 0);
        // The acceptance identity: admitted + rejected = arrivals, and
        // after the drain every admitted job has completed.
        assert_eq!(totals.completions + totals.rejections, totals.arrivals);
        assert_eq!(totals.admitted(), totals.completions);
        assert!(engine.occupancy().iter().all(|&(i, j)| i == 0 && j == 0));
    }

    #[test]
    fn zero_capacity_never_consults_the_policy() {
        /// Panics if asked for an allocation on an empty cluster.
        struct NoZero;
        impl AllocationPolicy for NoZero {
            fn allocate(&self, i: usize, j: usize, k: u32) -> ClassAllocation {
                assert!(k >= 1, "policy consulted at zero capacity");
                let inelastic = i.min(k as usize) as f64;
                let spare = (k as f64 - inelastic).max(0.0);
                ClassAllocation {
                    inelastic,
                    elastic: if j > 0 { spare } else { 0.0 },
                }
            }
            fn name(&self) -> String {
                "NoZero".into()
            }
        }
        let trace = poisson_trace(41, 60.0);
        let churn = ChurnConfig {
            spec: FaultSpec::parse("drain:period=10,down=5,servers=2").unwrap(),
            seed: 0,
            horizon: 400.0,
        };
        let cfg = EngineConfig::new(2).route_shards(2).churn(churn);
        let mut engine = engine_for(Box::new(NoZero), cfg);
        let mut source = trace.stream();
        engine.run(&mut source, f64::INFINITY);
        let totals = engine.metrics_total();
        assert_eq!(totals.completions, totals.arrivals);
        assert!(totals.degraded_decisions > 0);
    }

    #[test]
    fn churn_identity_round_trips() {
        let churn = ChurnConfig {
            spec: FaultSpec::parse("crash:mtbf=50,mttr=5").unwrap(),
            seed: 42,
            horizon: 1000.0,
        };
        let parsed = ChurnConfig::parse_identity(&churn.identity()).unwrap();
        assert_eq!(parsed, churn);
        assert!(ChurnConfig::parse_identity("spec=crash:mtbf=50,mttr=5").is_err());
        assert!(ChurnConfig::parse_identity("nonsense").is_err());
    }

    #[test]
    fn recording_policy_mirrors_its_inner_policy() {
        let rec = RecordingPolicy::new(&FairShare);
        let a = rec.allocate(3, 2, 4);
        assert_eq!(a, FairShare.allocate(3, 2, 4));
        assert_eq!(rec.name(), FairShare.name());
        let log = rec.into_log();
        assert_eq!(
            log,
            vec![Decision {
                i: 3,
                j: 2,
                allocation: a
            }]
        );
    }

    #[test]
    fn admissions_match_plain_ingest_at_every_worker_count() {
        let trace = poisson_trace(43, 300.0);
        let churn = ChurnConfig {
            spec: FaultSpec::parse("drain:period=20,down=10,servers=2").unwrap(),
            seed: 0,
            horizon: 1200.0,
        };
        let config = |workers: usize| {
            EngineConfig::new(3)
                .route_shards(6)
                .workers(workers)
                .churn(churn)
                .shed_limit(2)
        };
        let state = |engine: &ServeEngine| {
            (
                engine.decision_digest(),
                engine.shard_digests(),
                engine.metrics_per_shard(),
            )
        };
        let mut reference = engine_for(Box::new(FairShare), config(1));
        reference.ingest_batch(trace.arrivals());
        let ingested = state(&reference);
        assert!(reference.metrics_total().rejections > 0, "must shed");
        reference.drain();
        let drained = state(&reference);

        let mut first_acks: Option<Vec<Admission>> = None;
        for workers in [1, 2, 3, 8] {
            for batch in [1, 7, 256] {
                let label = format!("{workers} workers, batch {batch}");
                let mut engine = engine_for(Box::new(FairShare), config(workers));
                let mut acks = Vec::new();
                for chunk in trace.arrivals().chunks(batch) {
                    acks.extend(engine.ingest_batch_admissions(chunk));
                }
                assert_eq!(acks.len(), trace.len(), "{label}");
                for (seq, ack) in acks.iter().enumerate() {
                    assert_eq!(ack.shard, route_for(seq as u64, 6), "{label}: ack {seq}");
                    assert_eq!(ack.generation, 0, "{label}: ack {seq}");
                }
                let shed = acks.iter().filter(|a| !a.admitted).count() as u64;
                assert_eq!(shed, engine.metrics_total().rejections, "{label}");
                assert_eq!(state(&engine), ingested, "{label}: after ingest");
                engine.drain();
                assert_eq!(state(&engine), drained, "{label}: after drain");
                // Each ack is a function of its shard's substream alone.
                match &first_acks {
                    Some(first) => assert_eq!(&acks, first, "{label}: acks differ"),
                    None => first_acks = Some(acks),
                }
            }
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_engine_still_drops() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::thread::ThreadId;
        use std::time::Duration;

        /// Panics when a worker thread asks it with fewer than all 2
        /// servers. Asked so on the engine thread, it first waits until
        /// a worker has been asked, so the panic must come from a worker.
        struct PanicsOnWorkers {
            engine_thread: ThreadId,
            worker_asked: AtomicBool,
        }
        impl AllocationPolicy for PanicsOnWorkers {
            fn allocate(&self, i: usize, j: usize, k: u32) -> ClassAllocation {
                if k < 2 {
                    if std::thread::current().id() != self.engine_thread {
                        self.worker_asked.store(true, Ordering::SeqCst);
                        panic!("policy asked with {k} of 2 servers on a worker");
                    }
                    let start = Instant::now();
                    while !self.worker_asked.load(Ordering::SeqCst)
                        && start.elapsed() < Duration::from_secs(60)
                    {
                        std::thread::yield_now();
                    }
                }
                FairShare.allocate(i, j, k)
            }
            fn name(&self) -> String {
                "PanicsOnWorkers".into()
            }
        }
        // One server drains over [20, 30). Only shards 0 and 5 have
        // arrivals past 20. The engine thread takes shard 0 first and
        // waits in it until a worker is asked, and the first shard a
        // worker takes is the last one, 5.
        let churn = ChurnConfig {
            spec: FaultSpec::parse("drain:period=20,down=10,servers=1").unwrap(),
            seed: 0,
            horizon: 200.0,
        };
        let late = |seq: u64| matches!(route_for(seq, 6), 0 | 5);
        let arrivals: Vec<Arrival> = (0..60u64)
            .map(|seq| Arrival {
                time: if late(seq) { 21.0 } else { 1.0 } + seq as f64 * 0.01,
                class: JobClass::Inelastic,
                size: 1.0,
            })
            .collect();
        assert!((0..60).any(|seq| route_for(seq, 6) == 0));
        assert!((0..60).any(|seq| route_for(seq, 6) == 5));
        for workers in [2, 4] {
            let cfg = EngineConfig::new(2)
                .route_shards(6)
                .workers(workers)
                .churn(churn);
            let policy = PanicsOnWorkers {
                engine_thread: std::thread::current().id(),
                worker_asked: AtomicBool::new(false),
            };
            let mut engine = engine_for(Box::new(policy), cfg);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| engine.ingest_batch(&arrivals)));
            let payload = caught.expect_err("the worker's panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(
                message, "policy asked with 1 of 2 servers on a worker",
                "{workers} workers"
            );
            assert_eq!(engine.shard_digests().len(), 6, "every shard came back");
            let (done, dropped) = std::sync::mpsc::channel();
            let dropper = std::thread::spawn(move || {
                drop(engine);
                done.send(()).expect("the test waits for the drop");
            });
            dropped
                .recv_timeout(Duration::from_secs(60))
                .expect("dropping the engine returns");
            dropper.join().expect("dropping the engine does not panic");
        }
    }

    #[test]
    fn empty_stream_makes_no_decisions() {
        let cfg = EngineConfig::new(2).route_shards(2);
        let mut engine = engine_for(Box::new(InelasticFirst), cfg);
        let empty = ArrivalTrace::default();
        let mut source = empty.stream();
        assert_eq!(engine.run(&mut source, f64::INFINITY), 0);
        assert_eq!(engine.metrics_total().decisions, 0);
        // Folding two untouched shard digests: mix64(mix64(0 ^ 0) ^ 0).
        assert_eq!(engine.decision_digest(), mix64(mix64(0)));
    }
}
