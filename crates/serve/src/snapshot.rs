//! Snapshot/restore of live engine state.
//!
//! Operationally a decision server must survive restarts without
//! forgetting in-flight work: a snapshot freezes every shard's clock,
//! queues (with per-job remaining work), digest, counters, and
//! response-time telemetry into a [record stream](eirs_sim::record). Clocks,
//! job sizes and other floats travel as raw bits; the response-time
//! histogram (`rhist`) carries its own text encoding
//! ([`LatencyHistogram::encode`]), which round-trips exactly. A restored
//! engine is therefore **bit-identical** to the original — continuing
//! both from the same point produces the same decision digest, which the
//! `serve_layer` tests assert.
//!
//! The stream is the magic `eirssn03`, a header record, each shard's
//! records in shard order, then an end record:
//!
//! ```text
//! header  k u32 | route_shards u64 | seq u64 | generation u32 |
//!         table identity hash u64 | policy name | churn identity ("" = none)
//! shard   time f64 | digest u64 | next_id u64 | avail u32 | fault cursor u64 |
//!         9 counters u64 | peak_i u64 | peak_j u64 | total_response f64 | sim_time f64
//! hist    the busy histogram as u64s          ┐ each split across as many
//! rhist   the response-histogram encoding     ┘ records as it needs
//! job     id u64 | remaining f64 | size f64 | arrival f64    class in aux
//! end     (empty)
//! ```
//!
//! A snapshot is valid only whole: [`EngineSnapshot::from_reader`]
//! refuses a stream that stops before the end record or continues past
//! it, and any malformed record. Snapshots of the older `eirssn02`
//! format are refused by their magic. Each record is checked and decoded
//! in place in the reader's buffer ([`record::each`]), and
//! [`EngineSnapshot::load`] reads the file through one
//! [`record::BUF_CAPACITY`] buffer.
//!
//! The optional decision log ([`EngineConfig::record_decisions`]) is an
//! audit/debug surface, not state — it is not snapshotted.
//!
//! [`EngineConfig::record_decisions`]: crate::engine::EngineConfig::record_decisions

use crate::engine::{ChurnConfig, ClusterShard, EngineConfig, ServeEngine};
use crate::metrics::ShardMetrics;
use crate::table::CompiledTable;
use eirs_obs::LatencyHistogram;
use eirs_sim::job::{Job, JobClass};
use eirs_sim::policy::AllocationPolicy;
use eirs_sim::record::{self, Caps, Fields, Record, RecordError};
use std::io::{BufRead, BufReader, Write};
use std::ops::ControlFlow;

/// Stream magic of the snapshot format.
const MAGIC: [u8; 8] = *b"eirssn03";
const HEADER: u8 = 1;
const SHARD: u8 = 2;
const HIST: u8 = 3;
const RHIST: u8 = 4;
const JOB: u8 = 5;
const END: u8 = 6;
/// Payload bytes of one piece of a split value (hist, rhist).
const PIECE: usize = 1 << 15;
/// Payload length caps, indexed by record type − 1.
const CAPS: &Caps = &[
    (34, u16::MAX as usize),
    (140, 140),
    (1, PIECE),
    (1, PIECE),
    (32, 32),
    (0, 0),
];

/// One frozen shard: clock, digest, counters, fault-replay position,
/// and both queues in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard clock.
    pub time: f64,
    /// Running decision digest.
    pub digest: u64,
    /// Next job id.
    pub next_id: u64,
    /// Servers available at snapshot time (`k` when healthy).
    pub avail: u32,
    /// Applied-event count into the shard's fault schedule.
    pub fault_cursor: usize,
    /// Operational counters.
    pub metrics: ShardMetrics,
    /// Queued jobs, each with its id, remaining work, size and arrival
    /// epoch: the inelastic queue front-to-back, then the elastic queue
    /// front-to-back (the class tag separates them on restore).
    pub jobs: Vec<Job>,
}

/// A full engine snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Servers per shard.
    pub k: u32,
    /// Routing partition width.
    pub route_shards: usize,
    /// Global arrival sequence counter.
    pub seq: u64,
    /// Name of the compiled table that was serving (policy identity:
    /// family plus parameters). Restore refuses a table with a different
    /// name — continuing a snapshot under another policy would silently
    /// break the bit-identical-continuation contract.
    pub policy: String,
    /// Capacity-churn identity the engine was running under (fault
    /// model, seed, horizon). Restore refuses a mismatch for the same
    /// reason it refuses a different policy.
    pub churn: Option<ChurnConfig>,
    /// Policy generation serving at snapshot time (0 = boot policy;
    /// incremented by every [`ServeEngine::install_table`] hot-swap).
    pub generation: u32,
    /// [`CompiledTable::identity_hash`] of the serving table — a
    /// grid-size-independent behavioral fingerprint. Restore refuses a
    /// table with a different hash.
    pub policy_hash: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardSnapshot>,
}

/// Failures when parsing a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Underlying I/O failure, with the [`std::io::ErrorKind`] preserved
    /// so callers can distinguish a missing file from a truncated or
    /// unreadable one without string-matching.
    Io {
        /// The kind of the underlying I/O failure ([`std::io::ErrorKind::UnexpectedEof`]
        /// for truncated snapshots).
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// A malformed record: `(record number, message)`. The header is
    /// record 1; record 0 is the stream magic.
    Record(usize, String),
    /// Structurally valid but inconsistent with the restoring engine.
    Mismatch(String),
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { kind, message } => {
                write!(f, "snapshot I/O error ({kind}): {message}")
            }
            SnapshotError::Record(n, msg) => write!(f, "snapshot record {n}: {msg}"),
            SnapshotError::Mismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Appends an optional churn identity as the rest of a payload (`""` =
/// no churn).
pub(crate) fn put_churn(p: &mut Vec<u8>, churn: Option<ChurnConfig>) {
    p.extend_from_slice(churn.map(|c| c.identity()).unwrap_or_default().as_bytes());
}

/// Decodes a [`put_churn`] field.
pub(crate) fn churn_field(raw: &str) -> Result<Option<ChurnConfig>, RecordError> {
    if raw.is_empty() {
        return Ok(None);
    }
    ChurnConfig::parse_identity(raw)
        .map(Some)
        .map_err(RecordError::BadPayload)
}

impl EngineSnapshot {
    /// Serializes in the record format of the [module docs](self), with
    /// one `write_all`.
    pub fn to_writer(&self, w: &mut dyn Write) -> std::io::Result<()> {
        let mut out = MAGIC.to_vec();
        record::encode(&mut out, HEADER, 0, |p| {
            p.extend(self.k.to_le_bytes());
            p.extend((self.route_shards as u64).to_le_bytes());
            p.extend(self.seq.to_le_bytes());
            p.extend(self.generation.to_le_bytes());
            p.extend(self.policy_hash.to_le_bytes());
            record::put_str(p, &self.policy);
            put_churn(p, self.churn);
        });
        for s in &self.shards {
            let m = &s.metrics;
            record::encode(&mut out, SHARD, 0, |p| {
                p.extend(s.time.to_le_bytes());
                p.extend(s.digest.to_le_bytes());
                p.extend(s.next_id.to_le_bytes());
                p.extend(s.avail.to_le_bytes());
                for v in [
                    s.fault_cursor as u64,
                    m.arrivals,
                    m.arrivals_inelastic,
                    m.arrivals_elastic,
                    m.completions,
                    m.decisions,
                    m.overflow_lookups,
                    m.degraded_decisions,
                    m.rejections,
                    m.preemptions,
                    m.peak_inelastic as u64,
                    m.peak_elastic as u64,
                ] {
                    p.extend(v.to_le_bytes());
                }
                p.extend(m.total_response.to_le_bytes());
                p.extend(m.sim_time.to_le_bytes());
            });
            let hist: Vec<u8> = m
                .busy_histogram
                .iter()
                .flat_map(|b| b.to_le_bytes())
                .collect();
            let rhist = m.response_hist.encode().into_bytes();
            for (ty, value) in [(HIST, hist), (RHIST, rhist)] {
                for piece in value.chunks(PIECE) {
                    record::encode(&mut out, ty, 0, |p| p.extend_from_slice(piece));
                }
            }
            for job in &s.jobs {
                record::encode(&mut out, JOB, record::class_tag(job.class), |p| {
                    p.extend(job.id.to_le_bytes());
                    p.extend(job.remaining.to_le_bytes());
                    p.extend(job.size.to_le_bytes());
                    p.extend(job.arrival.to_le_bytes());
                });
            }
        }
        record::encode(&mut out, END, 0, |_| {});
        w.write_all(&out)
    }

    /// Decodes the format of [`EngineSnapshot::to_writer`].
    pub fn from_reader(r: &mut dyn BufRead) -> Result<Self, SnapshotError> {
        let at = |n: usize| {
            move |e: RecordError| match e {
                RecordError::Truncated => SnapshotError::Io {
                    kind: std::io::ErrorKind::UnexpectedEof,
                    message: format!("snapshot truncated at record {n}, before its end record"),
                },
                e => SnapshotError::Record(n, e.to_string()),
            }
        };
        record::read_magic(r, &MAGIC).map_err(at(0))?;
        let mut spill = Vec::new();
        let mut snap: Option<Self> = None;
        // The split values of the shard being read: hist, rhist.
        let mut pieces: [Vec<u8>; 2] = Default::default();
        // Records decoded so far; the walk stops after the end record.
        let mut n = 0;
        let ended = record::each(r, CAPS, &mut spill, |rec| {
            let end = decode(&mut snap, &mut pieces, rec)?;
            n += 1;
            Ok(if end {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        });
        if ended.map_err(at(n + 1))?.is_none() {
            return Err(at(n + 1)(RecordError::Truncated));
        }
        let after = record::each(r, CAPS, &mut spill, |_| Ok(ControlFlow::Break(())));
        if after.map_err(at(n + 1))?.is_some() {
            return Err(SnapshotError::Record(
                n + 1,
                "record after the end record".into(),
            ));
        }
        let snap = snap.expect("the end record follows a header");
        if snap.shards.len() != snap.route_shards {
            return Err(SnapshotError::Mismatch(format!(
                "header promises {} shards, found {}",
                snap.route_shards,
                snap.shards.len()
            )));
        }
        Ok(snap)
    }

    /// Writes the snapshot to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.to_writer(&mut std::fs::File::create(path)?)
    }

    /// Loads a snapshot written by [`EngineSnapshot::save`], through one
    /// [`record::BUF_CAPACITY`] buffer.
    pub fn load(path: &std::path::Path) -> Result<Self, SnapshotError> {
        let file = std::fs::File::open(path)?;
        Self::from_reader(&mut BufReader::with_capacity(record::BUF_CAPACITY, file))
    }
}

/// Applies one record to the snapshot being read; `Ok(true)` at the
/// end record.
fn decode(
    snap: &mut Option<EngineSnapshot>,
    pieces: &mut [Vec<u8>; 2],
    Record { ty, aux, payload }: Record<'_>,
) -> Result<bool, RecordError> {
    let mut f = Fields::new(payload);
    let misplaced = || RecordError::BadPayload(format!("record type {ty} out of place"));
    let Some(s) = snap else {
        if ty != HEADER {
            return Err(misplaced());
        }
        *snap = Some(EngineSnapshot {
            k: f.u32()?,
            route_shards: f.u64()? as usize,
            seq: f.u64()?,
            generation: f.u32()?,
            policy_hash: f.u64()?,
            policy: f.str()?.to_owned(),
            churn: churn_field(f.rest_str()?)?,
            shards: Vec::new(),
        });
        return Ok(false);
    };
    match ty {
        SHARD | END => {
            if let Some(last) = s.shards.last_mut() {
                finish_shard(&mut last.metrics, std::mem::take(pieces))?;
            }
            if ty == END {
                return Ok(true);
            }
            let (time, digest, next_id, avail) = (f.f64()?, f.u64()?, f.u64()?, f.u32()?);
            let fault_cursor = f.u64()? as usize;
            let mut m = ShardMetrics::new(0);
            for slot in [
                &mut m.arrivals,
                &mut m.arrivals_inelastic,
                &mut m.arrivals_elastic,
                &mut m.completions,
                &mut m.decisions,
                &mut m.overflow_lookups,
                &mut m.degraded_decisions,
                &mut m.rejections,
                &mut m.preemptions,
            ] {
                *slot = f.u64()?;
            }
            m.peak_inelastic = f.u64()? as usize;
            m.peak_elastic = f.u64()? as usize;
            m.total_response = f.f64()?;
            m.sim_time = f.f64()?;
            s.shards.push(ShardSnapshot {
                time,
                digest,
                next_id,
                avail,
                fault_cursor,
                metrics: m,
                jobs: Vec::new(),
            });
        }
        HIST | RHIST if !s.shards.is_empty() => {
            pieces[usize::from(ty - HIST)].extend_from_slice(payload);
        }
        JOB => s.shards.last_mut().ok_or_else(misplaced)?.jobs.push(Job {
            id: f.u64()?,
            class: record::class_from_tag(aux)?,
            remaining: f.f64()?,
            size: f.f64()?,
            arrival: f.f64()?,
        }),
        _ => return Err(misplaced()),
    }
    Ok(false)
}

/// Decodes a shard's reassembled split values into its metrics.
fn finish_shard(m: &mut ShardMetrics, [hist, rhist]: [Vec<u8>; 2]) -> Result<(), RecordError> {
    if hist.len() % 8 != 0 {
        return Err(RecordError::BadPayload(
            "busy histogram is not whole u64s".into(),
        ));
    }
    m.busy_histogram = hist
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    m.response_hist = LatencyHistogram::decode(Fields::new(&rhist).rest_str()?)
        .map_err(RecordError::BadPayload)?;
    Ok(())
}

impl ServeEngine {
    /// Freezes the engine's full state (see the [module docs](self)).
    pub fn snapshot(&self) -> EngineSnapshot {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let c = &s.cluster;
                let jobs = c
                    .queue(JobClass::Inelastic)
                    .chain(c.queue(JobClass::Elastic));
                ShardSnapshot {
                    time: c.now(),
                    digest: s.ledger.digest,
                    next_id: c.next_id(),
                    avail: c.avail(),
                    fault_cursor: c.fault_cursor(),
                    metrics: s.ledger.metrics.clone(),
                    jobs: jobs.cloned().collect(),
                }
            })
            .collect();
        EngineSnapshot {
            k: self.config.k,
            route_shards: self.config.route_shards,
            seq: self.seq,
            policy: self.table.name(),
            churn: self.config.churn,
            generation: self.generation,
            policy_hash: self.table.identity_hash(),
            shards,
        }
    }

    /// Rebuilds an engine from a snapshot. The table and config must
    /// match the snapshot's `k` and `route_shards`; worker count, batch
    /// size, and decision recording are free to differ (they are
    /// processing knobs, not state).
    pub fn from_snapshot(
        table: CompiledTable,
        config: EngineConfig,
        snap: &EngineSnapshot,
    ) -> Result<Self, SnapshotError> {
        if table.k() != snap.k || config.k != snap.k {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot is for k={}, table k={}, config k={}",
                snap.k,
                table.k(),
                config.k
            )));
        }
        if table.name() != snap.policy {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was serving '{}', restoring table is '{}' — continuing under a \
                 different policy would break the bit-identical continuation",
                snap.policy,
                table.name()
            )));
        }
        if table.identity_hash() != snap.policy_hash {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot pins policy identity hash {:#018x}, restoring table hashes to \
                 {:#018x} — same name, different decision behavior",
                snap.policy_hash,
                table.identity_hash()
            )));
        }
        if config.route_shards != snap.route_shards {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} route shards, config {}",
                snap.route_shards, config.route_shards
            )));
        }
        let identity = |c: &Option<ChurnConfig>| match c {
            Some(c) => c.identity(),
            None => "none".to_string(),
        };
        if config.churn != snap.churn {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken under churn '{}', restoring config has '{}' — the fault \
                 schedule is part of the serving identity",
                identity(&snap.churn),
                identity(&config.churn)
            )));
        }
        let mut engine = ServeEngine::new(table, config);
        engine.seq = snap.seq;
        engine.generation = snap.generation;
        for (shard, frozen) in engine.shards.iter_mut().zip(&snap.shards) {
            restore_shard(shard, frozen, snap.k)?;
        }
        Ok(engine)
    }
}

fn restore_shard(
    shard: &mut ClusterShard,
    frozen: &ShardSnapshot,
    k: u32,
) -> Result<(), SnapshotError> {
    if frozen.metrics.busy_histogram.len() != k as usize + 1 {
        return Err(SnapshotError::Mismatch(format!(
            "histogram has {} buckets, expected {}",
            frozen.metrics.busy_histogram.len(),
            k + 1
        )));
    }
    shard
        .cluster
        .restore(
            frozen.time,
            frozen.next_id,
            frozen.avail,
            frozen.fault_cursor,
            frozen.jobs.iter().cloned(),
        )
        .map_err(SnapshotError::Mismatch)?;
    shard.ledger.digest = frozen.digest;
    shard.ledger.metrics = frozen.metrics.clone();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_queueing::Exponential;
    use eirs_sim::arrivals::ArrivalTrace;
    use eirs_sim::policy::FairShare;

    fn running_engine() -> (ServeEngine, ArrivalTrace) {
        let trace = ArrivalTrace::record_poisson(
            0.8,
            0.5,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            5,
            120.0,
        );
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let config = EngineConfig::new(2).route_shards(3).batch(8);
        let mut engine = ServeEngine::new(table, config);
        // Ingest the first half of the trace so queues are mid-flight.
        let half = trace.len() / 2;
        engine.ingest_batch(&trace.arrivals()[..half]);
        (engine, trace)
    }

    /// Re-encodes `bytes` with `edit` applied to the payload of the first
    /// record of type `ty`, re-sealing its checksum so that only the
    /// payload decoder can catch the edit.
    fn reseal(bytes: &[u8], ty: u8, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let (mut r, mut out) = (&bytes[8..], bytes[..8].to_vec());
        let (mut payload, mut edited) = (Vec::new(), false);
        while let Some((t, aux)) = record::read(&mut r, CAPS, &mut payload).unwrap() {
            if t == ty && !edited {
                edit(&mut payload);
                edited = true;
            }
            record::encode(&mut out, t, aux, |p| p.extend_from_slice(&payload));
        }
        out
    }

    #[test]
    fn snapshot_round_trips_through_the_record_format() {
        let (engine, _) = running_engine();
        let snap = engine.snapshot();
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        let parsed = EngineSnapshot::from_reader(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(parsed, snap, "the round trip must be lossless");
    }

    #[test]
    fn values_too_long_for_one_record_are_split_not_truncated() {
        let k = 10_000;
        let table = || CompiledTable::compile(Box::new(FairShare), k, 4, 4);
        let config = EngineConfig::new(k).route_shards(2);
        let mut engine = ServeEngine::new(table(), config);
        let (_, trace) = running_engine();
        engine.ingest_batch(&trace.arrivals()[..40]);
        let snap = engine.snapshot();
        assert_eq!(snap.shards[0].metrics.busy_histogram.len(), 10_001);
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        assert!(
            buf.len() > 2 * 80_008,
            "both busy histograms are written whole"
        );
        let parsed = EngineSnapshot::from_reader(&mut &buf[..]).unwrap();
        assert_eq!(parsed, snap);
        let restored = ServeEngine::from_snapshot(table(), config, &parsed).unwrap();
        assert_eq!(restored.decision_digest(), engine.decision_digest());
    }

    #[test]
    fn restored_engine_continues_bit_identically() {
        let (mut original, trace) = running_engine();
        let snap = original.snapshot();
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let config = *original.config();
        let mut restored = ServeEngine::from_snapshot(table, config, &snap).unwrap();
        assert_eq!(restored.decision_digest(), original.decision_digest());
        // Continue both engines on the second half; they must agree on
        // everything observable.
        let half = trace.len() / 2;
        let rest = &trace.arrivals()[half..];
        original.ingest_batch(rest);
        original.drain();
        restored.ingest_batch(rest);
        restored.drain();
        assert_eq!(restored.decision_digest(), original.decision_digest());
        assert_eq!(restored.metrics_total(), original.metrics_total());
        assert_eq!(restored.ingested(), original.ingested());
    }

    #[test]
    fn restore_rejects_mismatched_shape() {
        let (engine, _) = running_engine();
        let snap = engine.snapshot();
        let wrong_k = CompiledTable::compile(Box::new(FairShare), 3, 8, 8);
        assert!(matches!(
            ServeEngine::from_snapshot(wrong_k, EngineConfig::new(3).route_shards(3), &snap),
            Err(SnapshotError::Mismatch(_))
        ));
        let table = CompiledTable::compile(Box::new(FairShare), 2, 8, 8);
        assert!(matches!(
            ServeEngine::from_snapshot(table, EngineConfig::new(2).route_shards(5), &snap),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn restore_rejects_a_different_policy() {
        use eirs_sim::policy::InelasticFirst;
        let (engine, _) = running_engine();
        let snap = engine.snapshot();
        assert_eq!(snap.policy, "Compiled[Fair-Share]");
        // Same k and shape, different policy: silently continuing would
        // diverge from the snapshotting engine, so restore must refuse.
        let other = CompiledTable::compile(Box::new(InelasticFirst), 2, 16, 16);
        let err = ServeEngine::from_snapshot(other, *engine.config(), &snap)
            .err()
            .expect("different policy must be rejected");
        assert!(
            matches!(&err, SnapshotError::Mismatch(m) if m.contains("Fair-Share")),
            "{err:?}"
        );
    }

    #[test]
    fn fault_state_round_trips_and_guards_the_churn_identity() {
        use eirs_sim::availability::FaultSpec;
        let churn = crate::engine::ChurnConfig {
            spec: FaultSpec::parse("crash:mtbf=40,mttr=8").unwrap(),
            seed: 7,
            horizon: 300.0,
        };
        let trace = ArrivalTrace::record_poisson(
            0.8,
            0.5,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            5,
            120.0,
        );
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let config = EngineConfig::new(2).route_shards(3).churn(churn);
        let mut engine = ServeEngine::new(table, config);
        engine.ingest_batch(trace.arrivals());
        let snap = engine.snapshot();
        assert_eq!(snap.churn, Some(churn));
        assert!(
            snap.shards.iter().any(|s| s.fault_cursor > 0),
            "a 120-epoch run under mtbf=40 churn should have applied fault events"
        );
        // The round trip preserves the fault-replay position exactly.
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        let parsed = EngineSnapshot::from_reader(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(parsed, snap);
        // Restoring without the churn config (or, symmetrically, with a
        // different one) must refuse: the fault schedule is identity.
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let err = ServeEngine::from_snapshot(table, EngineConfig::new(2).route_shards(3), &snap)
            .err()
            .expect("churn mismatch must be rejected");
        assert!(
            matches!(&err, SnapshotError::Mismatch(m) if m.contains("churn")),
            "{err:?}"
        );
        // With the matching churn the restore continues bit-identically.
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let mut restored = ServeEngine::from_snapshot(table, config, &snap).unwrap();
        engine.drain();
        restored.drain();
        assert_eq!(restored.decision_digest(), engine.decision_digest());
        assert_eq!(restored.metrics_total(), engine.metrics_total());
    }

    #[test]
    fn response_telemetry_state_round_trips_and_is_optional() {
        let (mut engine, _) = running_engine();
        engine.drain();
        let snap = engine.snapshot();
        let populated = snap
            .shards
            .iter()
            .any(|s| s.metrics.response_hist.count() > 0);
        assert!(populated, "drained engine must have recorded responses");
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        let parsed = EngineSnapshot::from_reader(&mut &buf[..]).unwrap();
        assert_eq!(parsed, snap);
        // A corrupted telemetry record is an error, not a silent skip —
        // even one re-sealed with a valid checksum.
        let bad = reseal(&buf, RHIST, |p| p[0] = b'x');
        assert!(matches!(
            EngineSnapshot::from_reader(&mut &bad[..]),
            Err(SnapshotError::Record(..))
        ));
    }

    #[test]
    fn v2_snapshots_are_refused_by_magic() {
        let (engine, _) = running_engine();
        let mut buf = Vec::new();
        engine.snapshot().to_writer(&mut buf).unwrap();
        buf[..8].copy_from_slice(b"eirssn02");
        let err = EngineSnapshot::from_reader(&mut &buf[..]).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Record(0, m) if m.contains("bad magic")),
            "{err:?}"
        );
    }

    #[test]
    fn generation_and_policy_hash_round_trip_and_guard_restore() {
        use eirs_sim::policy::{AllocationPolicy, ClassAllocation};
        let (mut engine, _) = running_engine();
        // Hot-swap: the snapshot must pin the new generation and the
        // swapped table's identity hash.
        engine.install_table(CompiledTable::compile(Box::new(FairShare), 2, 8, 8), "fs");
        let snap = engine.snapshot();
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.policy_hash, engine.table().identity_hash());
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        let parsed = EngineSnapshot::from_reader(&mut &buf[..]).unwrap();
        assert_eq!(parsed, snap);
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let restored = ServeEngine::from_snapshot(table, *engine.config(), &snap).unwrap();
        assert_eq!(restored.generation(), 1);
        // A policy with the same *name* but different decision behavior
        // is refused by the hash even though the name check passes.
        struct Impostor;
        impl AllocationPolicy for Impostor {
            fn allocate(&self, _: usize, _: usize, _: u32) -> ClassAllocation {
                ClassAllocation::IDLE
            }
            fn name(&self) -> String {
                "Fair-Share".into()
            }
        }
        let fake = CompiledTable::compile(Box::new(Impostor), 2, 16, 16);
        let err = ServeEngine::from_snapshot(fake, *engine.config(), &snap)
            .err()
            .expect("impostor policy must be rejected");
        assert!(
            matches!(&err, SnapshotError::Mismatch(m) if m.contains("identity hash")),
            "{err:?}"
        );
    }

    #[test]
    fn truncated_files_surface_as_unexpected_eof() {
        let (engine, _) = running_engine();
        let mut buf = Vec::new();
        engine.snapshot().to_writer(&mut buf).unwrap();
        // Chop the file anywhere before its end: structurally truncated,
        // reported as UnexpectedEof (the error kind survives, callers
        // need not string-match).
        for cut in 0..buf.len() {
            let err = EngineSnapshot::from_reader(&mut &buf[..cut])
                .expect_err("truncated snapshot must fail");
            assert!(
                matches!(err, SnapshotError::Io { kind, .. } if kind == std::io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corrupted_fields_report_the_offending_line() {
        let (engine, _) = running_engine();
        let mut buf = Vec::new();
        engine.snapshot().to_writer(&mut buf).unwrap();
        // Garble the digest of the first shard record (record 2): its
        // checksum catches the change and names the record.
        let header_len = u16::from_le_bytes([buf[10], buf[11]]) as usize;
        let digest_at = 8 + (4 + header_len + 8) + 4 + 8;
        let mut corrupted = buf.clone();
        corrupted[digest_at] ^= 0x01;
        let err = EngineSnapshot::from_reader(&mut &corrupted[..])
            .expect_err("corrupted snapshot must fail");
        assert!(
            matches!(&err, SnapshotError::Record(2, m) if m.contains("checksum")),
            "{err:?}"
        );
        // A bogus churn identity in a re-sealed header is rejected with
        // its record, not ignored.
        let bogus = reseal(&buf, HEADER, |p| {
            let name_len = u16::from_le_bytes([p[32], p[33]]) as usize;
            p.truncate(34 + name_len);
            p.extend_from_slice(b"spec=bogus seed=1 horizon=1");
        });
        let err = EngineSnapshot::from_reader(&mut &bogus[..])
            .expect_err("bogus churn identity must fail");
        assert!(matches!(err, SnapshotError::Record(1, _)), "{err:?}");
    }

    #[test]
    fn parser_rejects_malformed_snapshots() {
        let stream = |records: &[(u8, &[u8])]| {
            let mut out = MAGIC.to_vec();
            for (ty, payload) in records {
                record::encode(&mut out, *ty, 0, |p| p.extend_from_slice(payload));
            }
            out
        };
        let header = |route: u64| {
            let mut p = Vec::new();
            p.extend(2u32.to_le_bytes());
            p.extend(route.to_le_bytes());
            p.extend([0; 8 + 4 + 8]);
            record::put_str(&mut p, "Compiled[Fair-Share]");
            p
        };
        let (one, two, none) = (header(1), header(2), header(0));
        for (bad, why) in [
            (Vec::new(), "no magic"),
            (stream(&[(HEADER, &one)]), "truncated (no end)"),
            (
                stream(&[(HEADER, &two), (END, &[])]),
                "shard count mismatch",
            ),
            (stream(&[(HIST, &[0; 8]), (END, &[])]), "hist before header"),
            (
                stream(&[(HEADER, &one), (HIST, &[0; 8]), (END, &[])]),
                "hist before shard",
            ),
            (
                stream(&[(HEADER, &one), (JOB, &[0; 32]), (END, &[])]),
                "job before shard",
            ),
            (
                stream(&[(HEADER, &none), (9, &[3]), (END, &[])]),
                "unknown record",
            ),
            (
                stream(&[(HEADER, &none), (END, &[]), (END, &[])]),
                "record after end",
            ),
            (
                b"# eirs-serve-snapshot v1\nk 2 route_shards 0 seq 0\nend\n".to_vec(),
                "text snapshot",
            ),
        ] {
            assert!(
                EngineSnapshot::from_reader(&mut &bad[..]).is_err(),
                "snapshot with {why} should fail"
            );
        }
        assert!(
            EngineSnapshot::from_reader(&mut &stream(&[(HEADER, &none), (END, &[])])[..]).is_ok()
        );
    }
}
