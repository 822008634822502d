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
//! [`FaultSchedule`](eirs_sim::FaultSchedule) (derived from the shard
//! *index*, so faults — like routing — are workload semantics, invariant
//! to the worker count) and tracks an effective capacity `avail ≤ k`.
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

use crate::metrics::ShardMetrics;
use crate::table::CompiledTable;
use eirs_sim::arrivals::{Arrival, ArrivalSource};
use eirs_sim::availability::{CapacityEvent, FaultSpec};
use eirs_sim::job::{Job, JobClass};
use eirs_sim::kernel::{Cluster, Hooks, Step};
use eirs_sim::policy::ClassAllocation;
use eirs_sim::record::mix64;
use std::sync::Arc;
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
/// `route_shards` shards — [`ServeEngine::route`] as a free function,
/// so front ends (e.g. the network router) can partition traffic into
/// per-shard queues without holding a reference to the engine.
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
    /// serial reference path; results are bit-identical either way).
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

/// One independent cluster shard: a kernel [`Cluster`] of `k` servers
/// plus what the server records of it.
pub(crate) struct ClusterShard {
    pub(crate) cluster: Cluster,
    pub(crate) ledger: Ledger,
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
        faults: Vec<CapacityEvent>,
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
}

/// Runs `f(item_index, item)` for every item (a shard, or a shard
/// zipped with its per-shard output buffer), fanned over `workers`
/// scoped threads in fixed index chunks (`workers <= 1` runs inline —
/// the serial reference path). Items are independent, so parallel
/// execution is bit-identical to serial.
fn fan_out<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        for (idx, item) in items.iter_mut().enumerate() {
            f(idx, item);
        }
        return;
    }
    let per = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (chunk_no, chunk) in items.chunks_mut(per).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (off, item) in chunk.iter_mut().enumerate() {
                    f(chunk_no * per + off, item);
                }
            });
        }
    });
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
    scratch: Vec<Vec<Arrival>>,
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
                    Some(c) => c
                        .spec
                        .schedule_for_shard(config.k, c.seed, idx, c.horizon)
                        .events()
                        .to_vec(),
                    None => Vec::new(),
                };
                ClusterShard::new(config.k, config.record_decisions, faults, config.shed_limit)
            })
            .collect();
        let scratch = (0..config.route_shards).map(|_| Vec::new()).collect();
        Self {
            config,
            table: Arc::new(table),
            shards,
            seq: 0,
            generation: 0,
            swap_log: Vec::new(),
            scratch,
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
        for bucket in &mut self.scratch {
            bucket.clear();
        }
        for &a in arrivals {
            let s = self.route(self.seq);
            self.seq += 1;
            self.scratch[s].push(a);
        }
        let table = &*self.table;
        let scratch = &self.scratch;
        fan_out(&mut self.shards, self.config.workers, |idx, shard| {
            for &a in &scratch[idx] {
                shard.ingest(table, a);
            }
        });
    }

    /// [`ServeEngine::ingest_batch`] with per-arrival acknowledgments:
    /// routes and ingests exactly like `ingest_batch` (same seq
    /// consumption, same digests, same metrics), additionally returning
    /// one [`Admission`] per input arrival, in input order. The network
    /// front end uses this to write decision frames back to clients;
    /// ack collection is side-effect-free, so a run through this path
    /// is bit-identical to one through `ingest_batch`.
    pub fn ingest_batch_admissions(&mut self, arrivals: &[Arrival]) -> Vec<Admission> {
        let mut buckets: Vec<Vec<(u32, Arrival)>> =
            (0..self.config.route_shards).map(|_| Vec::new()).collect();
        for (n, &a) in arrivals.iter().enumerate() {
            let s = self.route(self.seq);
            self.seq += 1;
            buckets[s].push((n as u32, a));
        }
        let generation = self.generation;
        let table = &*self.table;
        type AckWork<'a> = (
            usize,
            &'a mut ClusterShard,
            Vec<(u32, Arrival)>,
            Vec<(u32, Admission)>,
        );
        let mut work: Vec<AckWork<'_>> = self
            .shards
            .iter_mut()
            .zip(buckets)
            .enumerate()
            .map(|(idx, (shard, bucket))| (idx, shard, bucket, Vec::new()))
            .collect();
        fan_out(&mut work, self.config.workers, |_, item| {
            let (idx, shard, bucket, out) = item;
            for &(n, a) in bucket.iter() {
                let admitted = shard.ingest(table, a);
                let (i, j, allocation) = shard.peek(table);
                out.push((
                    n,
                    Admission {
                        shard: *idx,
                        i,
                        j,
                        allocation,
                        admitted,
                        generation,
                    },
                ));
            }
        });
        let mut acks: Vec<Option<Admission>> = vec![None; arrivals.len()];
        for (_, _, _, out) in &work {
            for &(n, adm) in out {
                acks[n as usize] = Some(adm);
            }
        }
        acks.into_iter()
            .map(|a| a.expect("every arrival acknowledged"))
            .collect()
    }

    /// Runs every shard's remaining work to completion.
    pub fn drain(&mut self) {
        let table = &*self.table;
        fan_out(&mut self.shards, self.config.workers, |_, shard| {
            shard.drain(table);
        });
    }

    /// Pulls arrivals from `source` up to simulated time `until`,
    /// ingesting them in `config.batch`-sized rounds, then drains.
    /// Returns the number of arrivals ingested. (The first arrival past
    /// the horizon is consumed from the source and dropped.)
    pub fn run(&mut self, source: &mut dyn ArrivalSource, until: f64) -> u64 {
        let before = self.seq;
        let mut buf: Vec<Arrival> = Vec::with_capacity(self.config.batch);
        while let Some(a) = source.next_arrival() {
            if a.time > until {
                break;
            }
            buf.push(a);
            if buf.len() >= self.config.batch {
                self.ingest_batch(&buf);
                buf.clear();
            }
        }
        self.ingest_batch(&buf);
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
