//! Write-ahead decision journaling: crash recovery with bit-identical
//! replay.
//!
//! A snapshot freezes engine state at one instant; the journal covers the
//! gap between the last snapshot and a crash. The discipline is
//! write-ahead: every arrival batch is appended to the journal **and
//! flushed** before the engine ingests it, so after an abrupt kill the
//! journal always holds at least everything the engine has seen. Recovery
//! composes the two — restore the snapshot, then replay the journal's
//! suffix from the snapshot's sequence number — and, because the engine
//! is deterministic and batching does not affect semantics, the recovered
//! engine continues **bit-identically**: draining it yields the same
//! shard-ordered decision digest as the run that never crashed. The
//! `fault_tolerance` tests and the CI chaos gate assert exactly that,
//! including under capacity churn.
//!
//! One loop, [`feed`], moves arrivals from a source into an engine for
//! every run: [`ServeEngine::run`], [`run_journaled`], the replay behind
//! [`recover`], [`recover_with`] and [`replay_journal`], and every
//! offline `eirs serve` mode. It journals each batch write-ahead when
//! given a [`JournalWriter`] and cuts a batch exactly at each barrier
//! sequence number to run the caller's action there: a snapshot, a
//! kill, or a hot-swap install. Before replaying, [`recover_with`] and
//! [`replay_journal`] run one check that the journal describes the
//! engine at its resume point.
//!
//! The format is a [record stream](eirs_sim::record): the magic `eirsjn02`,
//! one header record with the serving identity, then one record per
//! arrival and per policy hot-swap, in write order:
//!
//! ```text
//! header   k u32 | route_shards u64 | boot table identity hash u64 |
//!          policy name | policy spec ("" = none) | churn identity ("" = none)
//! arrival  seq u64 | time f64 | size f64                  class in aux
//! swap     seq u64 | generation u32 | table hash u64 | policy spec
//! ```
//!
//! There is no end record: a journal is valid at every record boundary,
//! because a crash can happen at any time. [`Journal::load_prefix`] drops
//! a truncated final record — the artifact of a kill mid-write — and
//! [`Journal::from_reader`] refuses it. Any other malformed record (a
//! checksum mismatch, an unknown type, an illegal length) is an error in
//! both, so a recovered journal is always an exact prefix of what was
//! written.
//!
//! Loading checks and decodes each record in place in the reader's
//! buffer ([`record::each`]); only a record that straddles the buffer's
//! end is copied out first. [`Journal::load`] reads the file through one
//! [`record::BUF_CAPACITY`] buffer and reserves its entries from the
//! file's length, so it never holds the file whole.
//!
//! One corruption looks exactly like a tear: a flipped bit that
//! lengthens a swap record so that it runs past the end of the file.
//! `load_prefix` then drops that swap and every record after it without
//! an error — still an exact prefix, but records that were already
//! served are lost. Header and arrival records cannot do this (the
//! header is never dropped, and an arrival's length is fixed), and swap
//! specs are capped at [`MAX_SPEC`] bytes, so a flip in the high bits of
//! a swap's length is an illegal length; only a swap within a few KiB of
//! the end of the file is exposed.

use crate::engine::{ChurnConfig, EngineConfig, ServeEngine, SwapRecord};
use crate::snapshot::{churn_field, put_churn, EngineSnapshot, SnapshotError};
use crate::table::CompiledTable;
use eirs_sim::arrivals::{Arrival, ArrivalSource};
use eirs_sim::policy::AllocationPolicy;
use eirs_sim::record::{self, Caps, Fields, Record, RecordError};
use std::io::{BufRead, BufReader, Write};
use std::ops::ControlFlow;

/// Stream magic of the journal format.
const MAGIC: [u8; 8] = *b"eirsjn02";
const HEADER: u8 = 1;
const ARRIVAL: u8 = 2;
const SWAP: u8 = 3;
/// Longest policy spec a swap record carries: the wire's control-frame
/// payload cap, so every swap a client can request fits.
pub const MAX_SPEC: usize = 4096;
/// Bytes of one arrival record: at most one entry per this many bytes of
/// journal.
const ARRIVAL_BYTES: usize = record::OVERHEAD + record::ARRIVAL_LEN;
/// Payload length caps of the header, arrival and swap records.
const CAPS: &Caps = &[
    (24, u16::MAX as usize),
    (record::ARRIVAL_LEN, record::ARRIVAL_LEN),
    (20, 20 + MAX_SPEC),
];

/// One journaled arrival: the global routing sequence number it was
/// ingested as, plus the arrival itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEntry {
    /// Global arrival sequence number (the engine's `seq` at ingest).
    pub seq: u64,
    /// The arrival.
    pub arrival: Arrival,
}

/// Failures when parsing or validating a journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// Underlying I/O failure with its [`std::io::ErrorKind`] preserved.
    Io {
        /// The kind of the underlying failure.
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// A malformed record: `(record number, message)`. The header is
    /// record 1; record 0 is the stream magic.
    Record(usize, String),
    /// Structurally valid but inconsistent with the recovering engine
    /// (wrong policy, shape, churn identity, or a sequence gap).
    Mismatch(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { kind, message } => {
                write!(f, "journal I/O error ({kind}): {message}")
            }
            JournalError::Record(n, msg) => write!(f, "journal record {n}: {msg}"),
            JournalError::Mismatch(msg) => write!(f, "journal mismatch: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl From<SnapshotError> for JournalError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io { kind, message } => JournalError::Io { kind, message },
            SnapshotError::Record(n, m) => JournalError::Record(n, format!("snapshot: {m}")),
            SnapshotError::Mismatch(m) => JournalError::Mismatch(m),
        }
    }
}

/// Appends journal records ahead of ingestion (see the [module
/// docs](self) for the write-ahead contract).
#[derive(Debug)]
pub struct JournalWriter<W: Write> {
    w: W,
    /// Records encoded but not yet written (reused across appends).
    buf: Vec<u8>,
}

impl<W: Write> JournalWriter<W> {
    /// Starts a journal for `engine`, writing the identity header.
    pub fn create(w: W, engine: &ServeEngine) -> std::io::Result<Self> {
        Self::create_with_spec(w, engine, None)
    }

    /// [`JournalWriter::create`], additionally recording the parseable
    /// policy spec (the CLI `--policy` grammar) in the header. Replay
    /// from the journal alone ([`replay_journal`]) needs the spec to
    /// recompile the boot policy; plain crash recovery does not.
    pub fn create_with_spec(
        w: W,
        engine: &ServeEngine,
        spec: Option<&str>,
    ) -> std::io::Result<Self> {
        let (c, table) = (engine.config(), engine.table());
        let mut buf = MAGIC.to_vec();
        record::encode(&mut buf, HEADER, 0, |p| {
            p.extend(c.k.to_le_bytes());
            p.extend((c.route_shards as u64).to_le_bytes());
            p.extend(table.identity_hash().to_le_bytes());
            record::put_str(p, &table.name());
            record::put_str(p, spec.unwrap_or(""));
            put_churn(p, c.churn);
        });
        let mut journal = Self { w, buf };
        journal.write_buf()?;
        Ok(journal)
    }

    /// Appends one batch starting at global sequence `start_seq` and
    /// flushes. Must be called **before** the batch is ingested — the
    /// flush is what makes the journal a write-ahead log.
    pub fn append_batch(&mut self, start_seq: u64, batch: &[Arrival]) -> std::io::Result<()> {
        for (seq, a) in (start_seq..).zip(batch) {
            record::encode_arrival(&mut self.buf, ARRIVAL, seq, a);
        }
        self.write_buf()
    }

    /// Journals one policy hot-swap and flushes. Like arrival batches
    /// this is write-ahead: append the record **before** serving any
    /// arrival under the new generation, so a crash can never leave
    /// served-but-unjournaled generations behind. A spec longer than
    /// [`MAX_SPEC`] bytes is refused with [`std::io::ErrorKind::InvalidInput`]
    /// and nothing is written.
    pub fn append_swap(&mut self, rec: &SwapRecord) -> std::io::Result<()> {
        if rec.spec.len() > MAX_SPEC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "swap spec of {} bytes exceeds the journal's {MAX_SPEC}-byte cap",
                    rec.spec.len()
                ),
            ));
        }
        record::encode(&mut self.buf, SWAP, 0, |p| {
            p.extend(rec.seq.to_le_bytes());
            p.extend(rec.generation.to_le_bytes());
            p.extend(rec.hash.to_le_bytes());
            p.extend_from_slice(rec.spec.as_bytes());
        });
        self.write_buf()
    }

    /// Writes the encoded records and flushes.
    fn write_buf(&mut self) -> std::io::Result<()> {
        let written = self.w.write_all(&self.buf).and_then(|()| self.w.flush());
        self.buf.clear();
        written
    }

    /// Unwraps the underlying writer (flushing first).
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// A parsed journal: the identity header plus every entry in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Servers per shard the journaled engine was configured for.
    pub k: u32,
    /// Routing partition width.
    pub route_shards: usize,
    /// Compiled-table name the engine was serving when the journal
    /// started (generation 0; hot-swaps change the serving policy
    /// without rewriting the header — see [`Journal::swaps`]).
    pub policy: String,
    /// Parseable spec the boot policy was compiled from, when the
    /// journal was written with [`JournalWriter::create_with_spec`].
    /// Required by [`replay_journal`].
    pub policy_spec: Option<String>,
    /// [Identity hash](CompiledTable::identity_hash) of the boot table.
    pub policy_hash: u64,
    /// Churn identity, if the engine ran under capacity faults.
    pub churn: Option<ChurnConfig>,
    /// The generation schedule: every journaled hot-swap, in order
    /// (contiguous generations from 1, non-decreasing swap seqs).
    pub swaps: Vec<SwapRecord>,
    /// Journaled arrivals, in ingestion order with contiguous sequence
    /// numbers.
    pub entries: Vec<JournalEntry>,
}

impl Journal {
    /// Decodes the format of [`JournalWriter`]. Strict: a torn final
    /// record (the normal crash artifact) is an error here — use
    /// [`Journal::load_prefix`] to recover through it.
    pub fn from_reader(r: &mut dyn BufRead) -> Result<Self, JournalError> {
        Self::decode(r, false, 0)
    }

    /// Decodes a journal, dropping a truncated **final** record — the
    /// artifact of a crash mid-write. Malformed records anywhere are
    /// still errors.
    pub fn load_prefix(r: &mut dyn BufRead) -> Result<Self, JournalError> {
        Self::decode(r, true, 0)
    }

    /// Loads a journal file written by [`JournalWriter`], strictly. The
    /// entries are reserved from the file's length, and the file is read
    /// through one [`record::BUF_CAPACITY`] buffer.
    pub fn load(path: &std::path::Path) -> Result<Self, JournalError> {
        let file = std::fs::File::open(path)?;
        let entries = file.metadata()?.len() as usize / ARRIVAL_BYTES;
        let mut r = BufReader::with_capacity(record::BUF_CAPACITY, file);
        Self::decode(&mut r, false, entries)
    }

    /// Decodes each record in place in `r`'s buffer ([`record::each`]),
    /// with room reserved for `entries` arrivals.
    fn decode<R: BufRead + ?Sized>(
        r: &mut R,
        torn_tail_ok: bool,
        entries: usize,
    ) -> Result<Self, JournalError> {
        let at = |n: usize| move |e: RecordError| JournalError::Record(n, e.to_string());
        record::read_magic(r, &MAGIC).map_err(at(0))?;
        let mut spill = Vec::new();
        let header = |rec: Record<'_>| match rec.ty {
            HEADER => decode_header(rec.payload).map(|j| ControlFlow::Break(Some(j))),
            _ => Ok(ControlFlow::Break(None)),
        };
        let Some(Some(mut journal)) = record::each(r, CAPS, &mut spill, header).map_err(at(1))?
        else {
            return Err(JournalError::Record(1, "no header record".into()));
        };
        journal.entries.reserve(entries);
        // Records decoded so far; the walk stops at a second header.
        let mut n = 1;
        let walked = record::each(r, CAPS, &mut spill, |rec| {
            match rec.ty {
                ARRIVAL => {
                    let (seq, arrival) = record::decode_arrival(rec.aux, rec.payload)?;
                    journal.entries.push(JournalEntry { seq, arrival });
                }
                SWAP => journal.swaps.push(decode_swap(rec.payload)?),
                _ => return Ok(ControlFlow::Break(())),
            }
            n += 1;
            Ok(ControlFlow::Continue(()))
        });
        match walked {
            Ok(None) => {}
            Ok(Some(())) => return Err(JournalError::Record(n + 1, "second header record".into())),
            Err(RecordError::Truncated) if torn_tail_ok => {}
            Err(e) => return Err(at(n + 1)(e)),
        }
        journal.validate()?;
        Ok(journal)
    }

    /// Checks sequence contiguity and the generation schedule.
    fn validate(&self) -> Result<(), JournalError> {
        for pair in self.entries.windows(2) {
            if pair[1].seq != pair[0].seq + 1 {
                return Err(JournalError::Mismatch(format!(
                    "sequence gap: entry {} follows entry {}",
                    pair[1].seq, pair[0].seq
                )));
            }
        }
        // The generation schedule must be a valid swap history:
        // generations count 1, 2, … and swap points never move backward.
        for (n, s) in self.swaps.iter().enumerate() {
            if s.generation != n as u32 + 1 {
                return Err(JournalError::Mismatch(format!(
                    "swap record {} carries generation {}, expected {}",
                    n + 1,
                    s.generation,
                    n + 1
                )));
            }
        }
        for pair in self.swaps.windows(2) {
            if pair[1].seq < pair[0].seq {
                return Err(JournalError::Mismatch(format!(
                    "swap at seq {} follows swap at seq {}",
                    pair[1].seq, pair[0].seq
                )));
            }
        }
        Ok(())
    }
}

fn decode_header(payload: &[u8]) -> Result<Journal, RecordError> {
    let mut f = Fields::new(payload);
    Ok(Journal {
        k: f.u32()?,
        route_shards: f.u64()? as usize,
        policy_hash: f.u64()?,
        policy: f.str()?.to_owned(),
        policy_spec: Some(f.str()?).filter(|s| !s.is_empty()).map(str::to_owned),
        churn: churn_field(f.rest_str()?)?,
        swaps: Vec::new(),
        entries: Vec::new(),
    })
}

fn decode_swap(payload: &[u8]) -> Result<SwapRecord, RecordError> {
    let mut f = Fields::new(payload);
    Ok(SwapRecord {
        seq: f.u64()?,
        generation: f.u32()?,
        hash: f.u64()?,
        spec: f.rest_str()?.to_owned(),
    })
}

/// Feeds `source` into `engine` up to simulated time `until`, in batches
/// of at most [`EngineConfig::batch`] arrivals: the one arrival loop of
/// [`ServeEngine::run`], [`run_journaled`], the journal replay behind
/// [`recover_with`] and [`replay_journal`], and every offline `eirs
/// serve` run. With a `journal`, each batch is appended and flushed
/// **before** the engine ingests it (write-ahead). The engine is never
/// drained. Batching never changes semantics: per-shard arrival order is
/// the same under any batching, so the decision stream is too.
///
/// `barriers` is a sorted list of arrival sequence numbers. A batch ends
/// exactly at each one, and `at(engine, journal, n)` runs there, before
/// the engine ingests arrival `barriers[n]`: to take a snapshot, to
/// install a hot-swap, or to stop the feed with [`ControlFlow::Break`]
/// (a kill). A barrier the engine has already passed runs before the
/// first batch, and one the stream ends short of runs after the last,
/// so every action runs once, in order, unless an earlier one stopped
/// the feed; an action that must land on its barrier compares it with
/// [`ServeEngine::ingested`]. Returns whether an action stopped the
/// feed. (The first arrival past `until` is consumed and dropped.)
pub fn feed<W: Write, E: From<std::io::Error>>(
    engine: &mut ServeEngine,
    source: &mut dyn ArrivalSource,
    until: f64,
    mut journal: Option<&mut JournalWriter<W>>,
    barriers: &[u64],
    mut at: impl FnMut(
        &mut ServeEngine,
        Option<&mut JournalWriter<W>>,
        usize,
    ) -> Result<ControlFlow<()>, E>,
) -> Result<bool, E> {
    let batch = engine.config().batch as u64;
    let mut buf: Vec<Arrival> = Vec::with_capacity(batch as usize);
    let (mut next, mut ended) = (0, false);
    loop {
        while let Some(&barrier) = barriers.get(next) {
            if !ended && barrier > engine.ingested() {
                break;
            }
            if at(engine, journal.as_deref_mut(), next)?.is_break() {
                return Ok(true);
            }
            next += 1;
        }
        if ended {
            return Ok(false);
        }
        let room = barriers
            .get(next)
            .map_or(batch, |&b| batch.min(b - engine.ingested()));
        buf.clear();
        while (buf.len() as u64) < room {
            match source.next_arrival() {
                Some(a) if a.time <= until => buf.push(a),
                _ => {
                    ended = true;
                    break;
                }
            }
        }
        if !buf.is_empty() {
            if let Some(journal) = journal.as_deref_mut() {
                journal.append_batch(engine.ingested(), &buf)?;
            }
            engine.ingest_batch(&buf);
        }
    }
}

/// Knobs for a controlled (journaled, snapshot-taking, killable) run —
/// the ingredients of the crash-recovery tests and the `eirs serve`
/// `--journal`/`--snapshot-at`/`--kill-after` flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunControls {
    /// Take an [`EngineSnapshot`] exactly when this many arrivals have
    /// been ingested.
    pub snapshot_at: Option<u64>,
    /// Abort (as a crash would: no drain, no final flush beyond the
    /// write-ahead ones) once this many arrivals have been ingested.
    pub kill_after: Option<u64>,
}

impl RunControls {
    /// The [`feed`] barriers of these controls, sorted.
    pub fn barriers(&self) -> Vec<u64> {
        let mut barriers: Vec<u64> = [self.snapshot_at, self.kill_after]
            .into_iter()
            .flatten()
            .collect();
        barriers.sort_unstable();
        barriers
    }

    /// The [`feed`] action of these controls in a run that started at
    /// arrival `start`: at `snapshot_at` it takes the snapshot into
    /// `snapshot`, and at `kill_after` it stops the feed, unless the run
    /// started there.
    pub fn act(
        &self,
        engine: &ServeEngine,
        start: u64,
        snapshot: &mut Option<EngineSnapshot>,
    ) -> ControlFlow<()> {
        let at = engine.ingested();
        if self.snapshot_at == Some(at) {
            *snapshot = Some(engine.snapshot());
        }
        if self.kill_after == Some(at) && at > start {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// What a controlled run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Arrivals ingested by this run.
    pub ingested: u64,
    /// Whether the run was aborted by [`RunControls::kill_after`].
    pub killed: bool,
    /// The snapshot taken at [`RunControls::snapshot_at`], if reached.
    pub snapshot: Option<EngineSnapshot>,
}

/// Runs [`feed`] with every batch journaled write-ahead and the
/// [`RunControls`] barriers: a kill returns at once **without
/// draining** (simulating a crash), and a completed run drains as usual.
pub fn run_journaled<W: Write>(
    engine: &mut ServeEngine,
    source: &mut dyn ArrivalSource,
    until: f64,
    journal: &mut JournalWriter<W>,
    controls: RunControls,
) -> std::io::Result<RunOutcome> {
    let start = engine.ingested();
    let mut snapshot = None;
    let killed = feed(
        engine,
        source,
        until,
        Some(journal),
        &controls.barriers(),
        |engine, _, _| Ok::<_, std::io::Error>(controls.act(engine, start, &mut snapshot)),
    )?;
    if !killed {
        engine.drain();
    }
    Ok(RunOutcome {
        ingested: engine.ingested() - start,
        killed,
        snapshot,
    })
}

/// Rebuilds an engine after a crash: restores `snap`, then replays the
/// journal suffix from the snapshot's sequence number. The journal must
/// describe the restored engine (see [`recover_with`]). The returned
/// engine has ingested every journaled arrival but is **not drained**:
/// the caller resumes feeding it from arrival number
/// [`ServeEngine::ingested`] of the original workload.
pub fn recover(
    table: CompiledTable,
    config: EngineConfig,
    snap: &EngineSnapshot,
    journal: &Journal,
) -> Result<ServeEngine, JournalError> {
    recover_with(table, config, snap, journal, &|rec| {
        Err(format!(
            "journal hot-swaps to '{}' after the snapshot; plain recover cannot compile it — \
             use recover_with and supply a table compiler",
            rec.spec
        ))
    })
}

/// [`recover`] for journals whose suffix crosses hot-swap points:
/// `compile` turns each post-snapshot [`SwapRecord`] back into a
/// [`CompiledTable`] (normally by parsing `rec.spec` through the CLI
/// policy grammar and compiling at any grid size — decisions are
/// grid-size-invariant). The journal must describe the restored engine
/// at the snapshot point — its shape, churn identity, generation
/// schedule and policy in force, with entries from the snapshot's
/// sequence number on and no gap — and each compiled table must hash
/// and number its generation as journaled. Swaps are re-installed at
/// their exact sequence points, so the recovered engine's generation
/// schedule is bit-identical to the crashed run's.
pub fn recover_with(
    table: CompiledTable,
    config: EngineConfig,
    snap: &EngineSnapshot,
    journal: &Journal,
    compile: &dyn Fn(&SwapRecord) -> Result<CompiledTable, String>,
) -> Result<ServeEngine, JournalError> {
    let mut engine = ServeEngine::from_snapshot(table, config, snap)?;
    let from = check_resume(journal, &config, engine.table(), snap.seq, snap.generation)?;
    replay(&mut engine, journal, from, compile)?;
    Ok(engine)
}

/// Rebuilds the **entire** run from the journal alone: compiles the
/// boot policy from the journal's recorded `policy_spec`, ingests every
/// entry from seq 0, and re-installs each journaled hot-swap at its
/// exact sequence point. The returned engine is **not** drained (call
/// [`ServeEngine::drain`] to match a live run that shut down cleanly).
/// Because the engine is deterministic and decisions are
/// grid-size-invariant, the replayed decision digest is bit-identical
/// to the live run's — the hot-swap CI gate's currency.
///
/// `config` supplies processing knobs (workers, batch), and the journal
/// must describe a fresh engine of that shape serving the boot table
/// (see [`recover_with`]); `compile` turns a policy spec into a table.
pub fn replay_journal(
    config: EngineConfig,
    journal: &Journal,
    compile: &dyn Fn(&str) -> Result<CompiledTable, String>,
) -> Result<ServeEngine, JournalError> {
    let spec = journal.policy_spec.as_deref().ok_or_else(|| {
        JournalError::Mismatch(
            "journal records no policy_spec — it was not written for standalone replay \
             (re-serve with --policy to journal the spec)"
                .into(),
        )
    })?;
    let table = compile(spec).map_err(JournalError::Mismatch)?;
    let from = check_resume(journal, &config, &table, 0, 0)?;
    let mut engine = ServeEngine::new(table, config);
    replay(&mut engine, journal, from, &|rec| compile(&rec.spec))?;
    Ok(engine)
}

/// Checks that `journal` describes an engine serving `table` under
/// `config` that resumes at arrival `seq` in policy `generation`: the
/// same shape and churn identity; a generation schedule whose first
/// `generation` swaps lie at or before `seq` and the rest at or after
/// it; the same policy in force there; and entries that resume at `seq`
/// without a gap. Returns the index of the first entry to replay.
fn check_resume(
    journal: &Journal,
    config: &EngineConfig,
    table: &CompiledTable,
    seq: u64,
    generation: u32,
) -> Result<usize, JournalError> {
    let mismatch = |msg: String| Err(JournalError::Mismatch(msg));
    if (journal.k, journal.route_shards) != (config.k, config.route_shards) {
        return mismatch(format!(
            "journal is for k={} route_shards={}, engine k={} route_shards={}",
            journal.k, journal.route_shards, config.k, config.route_shards
        ));
    }
    if journal.churn != config.churn {
        return mismatch("journal and engine disagree on the churn identity".into());
    }
    // A journal from another run or policy history would replay into a
    // cross-policy decision stream: the engine's `generation` swaps must
    // be the journal's first ones, at or before `seq`, and the rest must
    // lie at or after it.
    let before = journal.swaps.iter().filter(|s| s.seq < seq).count();
    let through = journal.swaps.iter().filter(|s| s.seq <= seq).count();
    let g = generation as usize;
    if !(before..=through).contains(&g) {
        return mismatch(format!(
            "journal records {through} swaps at or before seq {seq}, the engine resumes there \
             in generation {generation} — the generation schedules disagree"
        ));
    }
    let (policy, hash) = journal.swaps[..g]
        .last()
        .map_or((journal.policy.as_str(), journal.policy_hash), |s| {
            (s.spec.as_str(), s.hash)
        });
    if hash != table.identity_hash() {
        return mismatch(format!(
            "journal has policy '{policy}' ({hash:#018x}) in force at seq {seq}, the engine \
             serves '{}' ({:#018x})",
            table.name(),
            table.identity_hash()
        ));
    }
    let from = journal.entries.partition_point(|e| e.seq < seq);
    match journal.entries.get(from) {
        Some(e) if e.seq != seq => mismatch(format!(
            "journal resumes at seq {}, the engine at seq {seq} — the gap is unrecoverable",
            e.seq
        )),
        _ => Ok(from),
    }
}

/// Journaled arrivals as an [`ArrivalSource`].
struct Entries<'a>(std::slice::Iter<'a, JournalEntry>);

impl ArrivalSource for Entries<'_> {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.0.next().map(|e| e.arrival)
    }
}

/// Feeds the journal's entries from index `from` into `engine`, which
/// [`check_resume`] matched with the journal, installing each swap past
/// the engine's generation at its sequence point; every installed table
/// must hash and number its generation as journaled.
fn replay(
    engine: &mut ServeEngine,
    journal: &Journal,
    from: usize,
    compile: &dyn Fn(&SwapRecord) -> Result<CompiledTable, String>,
) -> Result<(), JournalError> {
    let swaps = &journal.swaps[engine.generation() as usize..];
    let barriers: Vec<u64> = swaps.iter().map(|s| s.seq).collect();
    let mut entries = Entries(journal.entries[from..].iter());
    let no_journal = None::<&mut JournalWriter<std::io::Sink>>;
    feed(
        engine,
        &mut entries,
        f64::INFINITY,
        no_journal,
        &barriers,
        |engine, _, n| {
            let rec = &swaps[n];
            let table = compile(rec).map_err(JournalError::Mismatch)?;
            let installed = engine.install_table(table, &rec.spec);
            if (installed.hash, installed.generation) != (rec.hash, rec.generation) {
                return Err(JournalError::Mismatch(format!(
                    "recompiled swap '{}' hashes to {:#018x} generation {}, journal \
                     recorded {:#018x} generation {}",
                    rec.spec, installed.hash, installed.generation, rec.hash, rec.generation
                )));
            }
            Ok(ControlFlow::Continue(()))
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_queueing::Exponential;
    use eirs_sim::arrivals::ArrivalTrace;
    use eirs_sim::availability::FaultSpec;
    use eirs_sim::policy::FairShare;

    fn trace() -> ArrivalTrace {
        ArrivalTrace::record_poisson(
            0.9,
            0.6,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            9,
            150.0,
        )
    }

    fn table() -> CompiledTable {
        CompiledTable::compile(Box::new(FairShare), 2, 16, 16)
    }

    fn churned_config() -> EngineConfig {
        EngineConfig::new(2)
            .route_shards(3)
            .batch(8)
            .churn(ChurnConfig {
                spec: FaultSpec::parse("crash:mtbf=35,mttr=7").unwrap(),
                seed: 11,
                horizon: 200.0,
            })
    }

    #[test]
    fn journal_records_round_trip() {
        let engine = ServeEngine::new(table(), churned_config());
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        let t = trace();
        w.append_batch(0, &t.arrivals()[..6]).unwrap();
        w.append_batch(6, &t.arrivals()[6..10]).unwrap();
        let bytes = w.into_inner().unwrap();
        let j = Journal::from_reader(&mut std::io::Cursor::new(bytes)).unwrap();
        assert_eq!((j.k, j.route_shards), (2, 3));
        assert_eq!(j.policy, "Compiled[Fair-Share]");
        assert_eq!(j.churn, engine.config().churn);
        assert_eq!(j.entries.len(), 10);
        for (n, e) in j.entries.iter().enumerate() {
            assert_eq!(e.seq, n as u64);
            assert_eq!(e.arrival, t.arrivals()[n], "entry {n} must round-trip");
        }
    }

    #[test]
    fn torn_final_lines_are_recoverable_but_strict_load_refuses() {
        let engine = ServeEngine::new(table(), churned_config());
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        let t = trace();
        w.append_batch(0, &t.arrivals()[..4]).unwrap();
        let full = w.into_inner().unwrap();
        // Simulate a crash mid-write: the end of the fourth entry's size
        // and its checksum never reached the disk.
        let torn = &full[..full.len() - 12];
        assert!(matches!(
            Journal::from_reader(&mut &torn[..]),
            Err(JournalError::Record(5, _))
        ));
        let j = Journal::load_prefix(&mut &torn[..]).unwrap();
        assert_eq!(j.entries.len(), 3, "the torn fourth entry is dropped");
        for (n, e) in j.entries.iter().enumerate() {
            assert_eq!(e.arrival, t.arrivals()[n]);
        }
        // A malformed record that is NOT last stays an error either way:
        // the torn record followed by a whole one, or one flipped bit in
        // the second entry.
        let garbled = [torn, &full[full.len() - 36..]].concat();
        assert!(Journal::load_prefix(&mut &garbled[..]).is_err());
        let mut flipped = full.clone();
        flipped[full.len() - 3 * 36 + 20] ^= 0x10;
        assert!(Journal::load_prefix(&mut &flipped[..]).is_err());
        assert!(Journal::from_reader(&mut &flipped[..]).is_err());
    }

    #[test]
    fn text_journals_are_refused_by_magic() {
        let text = "# eirs-serve-journal v1\nk 2 route_shards 3\npolicy Compiled[Fair-Share]\n";
        let err = Journal::load_prefix(&mut text.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, JournalError::Record(0, m) if m.contains("bad magic")),
            "{err:?}"
        );
    }

    #[test]
    fn swap_specs_are_capped_so_high_length_flips_are_errors() {
        let engine = ServeEngine::new(table(), EngineConfig::new(2).route_shards(3));
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        let mut rec = SwapRecord {
            seq: 0,
            generation: 1,
            hash: 7,
            spec: "x".repeat(MAX_SPEC + 1),
        };
        let err = w.append_swap(&rec).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        rec.spec = "fs".into();
        w.append_swap(&rec).unwrap();
        let full = w.into_inner().unwrap();
        let j = Journal::from_reader(&mut &full[..]).unwrap();
        assert_eq!(j.swaps, vec![rec], "the refused swap wrote nothing");
        // Flipping bit 12 or higher of the final swap's length pushes it
        // past the cap: an error. A lower bit that makes it run past the
        // end of the file looks exactly like a tear, and the swap is
        // dropped (the documented exception); any other flip is an error.
        let len_at = full.len() - 8 - 22 - 2;
        for bit in 0..16 {
            let mut bad = full.clone();
            bad[len_at + bit / 8] ^= 1 << (bit % 8);
            match Journal::load_prefix(&mut &bad[..]) {
                Ok(j) => assert!(bit < 12 && j.swaps.is_empty(), "bit {bit} loaded {j:?}"),
                Err(e) => assert!(matches!(e, JournalError::Record(2, _)), "bit {bit}: {e:?}"),
            }
        }
    }

    #[test]
    fn feed_runs_each_barrier_once_in_order_and_stops_at_a_break() {
        let t = trace();
        let n = t.len() as u64;
        let mut engine = ServeEngine::new(table(), EngineConfig::new(2).route_shards(3).batch(8));
        let mut journal = JournalWriter::create(Vec::new(), &engine).unwrap();
        let mut src = t.stream();
        // Barrier 0 runs before the first batch, both 3s exactly at 3, a
        // barrier past the stream after the last batch; the kill at 20
        // stops the feed there.
        let mut seen = Vec::new();
        let barriers = [0, 3, 3, 20, n + 100];
        let stopped = feed(
            &mut engine,
            &mut src,
            f64::INFINITY,
            Some(&mut journal),
            &barriers,
            |engine, _, at| {
                seen.push((at, engine.ingested()));
                let stop = barriers[at] == 20;
                Ok::<_, std::io::Error>(if stop {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                })
            },
        )
        .unwrap();
        assert!(stopped);
        assert_eq!(seen, [(0, 0), (1, 3), (2, 3), (3, 20)]);
        // Resumed past a barrier: it runs first, the rest in order, and
        // the one the stream ends short of after the last batch.
        seen.clear();
        let stopped = feed(
            &mut engine,
            &mut src,
            f64::INFINITY,
            Some(&mut journal),
            &[5, 28, n + 100],
            |engine, _, at| {
                seen.push((at, engine.ingested()));
                Ok::<_, std::io::Error>(ControlFlow::Continue(()))
            },
        )
        .unwrap();
        assert!(!stopped);
        assert_eq!(seen, [(0, 20), (1, 28), (2, n)]);
        // Every arrival was journaled once, in order; nothing drained.
        let j = Journal::from_reader(&mut &journal.into_inner().unwrap()[..]).unwrap();
        assert_eq!(j.entries.len() as u64, n);
        assert!(engine.metrics_total().completions < n);
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let engine = ServeEngine::new(table(), EngineConfig::new(2).route_shards(3));
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        let t = trace();
        w.append_batch(0, &t.arrivals()[..2]).unwrap();
        w.append_batch(5, &t.arrivals()[2..4]).unwrap(); // gap: 1 → 5
        let bytes = w.into_inner().unwrap();
        let err = Journal::from_reader(&mut std::io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err:?}");
    }

    #[test]
    fn kill_and_recover_replays_bit_identically_under_churn() {
        let t = trace();
        let config = churned_config();
        // Reference: the run that never crashes.
        let mut reference = ServeEngine::new(table(), config);
        let mut src = t.stream();
        let mut sink = JournalWriter::create(Vec::new(), &reference).unwrap();
        run_journaled(
            &mut reference,
            &mut src,
            f64::INFINITY,
            &mut sink,
            RunControls::default(),
        )
        .unwrap();
        // Crashed run: snapshot at 40, killed at 90 of ~135 arrivals.
        let mut crashed = ServeEngine::new(table(), config);
        let mut src = t.stream();
        let mut journal = JournalWriter::create(Vec::new(), &crashed).unwrap();
        let outcome = run_journaled(
            &mut crashed,
            &mut src,
            f64::INFINITY,
            &mut journal,
            RunControls {
                snapshot_at: Some(40),
                kill_after: Some(90),
            },
        )
        .unwrap();
        assert!(outcome.killed);
        assert_eq!(outcome.ingested, 90);
        let snap = outcome.snapshot.expect("snapshot boundary was reached");
        assert_eq!(snap.seq, 40);
        // Recover from snapshot + journal, resume the workload where the
        // journal ends, drain, and compare against the unfaulted run.
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(journal.into_inner().unwrap())).unwrap();
        let mut recovered = recover(table(), config, &snap, &journal).unwrap();
        assert_eq!(recovered.ingested(), 90);
        let rest: Vec<Arrival> = t.arrivals()[90..].to_vec();
        recovered.ingest_batch(&rest);
        recovered.drain();
        assert_eq!(recovered.decision_digest(), reference.decision_digest());
        assert_eq!(recovered.metrics_total(), reference.metrics_total());
    }

    #[test]
    fn hot_swap_replay_from_journal_is_bit_identical_to_live() {
        use eirs_sim::policy::InelasticFirst;
        let t = trace();
        let config = EngineConfig::new(2).route_shards(3).batch(8);
        let compile = |spec: &str| -> Result<CompiledTable, String> {
            match spec {
                "fs" => Ok(CompiledTable::compile(Box::new(FairShare), 2, 16, 16)),
                "if" => Ok(CompiledTable::compile(Box::new(InelasticFirst), 2, 12, 12)),
                other => Err(format!("unknown spec '{other}'")),
            }
        };
        // Live run: boot on fair-share, hot-swap to inelastic-first at
        // arrival 50, journaling both the arrivals and the swap.
        let mut live = ServeEngine::new(compile("fs").unwrap(), config);
        let mut w = JournalWriter::create_with_spec(Vec::new(), &live, Some("fs")).unwrap();
        let arrivals = t.arrivals();
        for (n, chunk) in [&arrivals[..50], &arrivals[50..]].into_iter().enumerate() {
            if n == 1 {
                let rec = live.install_table(compile("if").unwrap(), "if");
                assert_eq!((rec.seq, rec.generation), (50, 1));
                w.append_swap(&rec).unwrap();
            }
            w.append_batch(live.ingested(), chunk).unwrap();
            live.ingest_batch(chunk);
        }
        live.drain();
        assert_eq!(live.generation(), 1);
        // Replay from the journal alone — different batch size AND a
        // different grid for the swapped table (decisions are
        // grid-size-invariant, so the digest must not care).
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(w.into_inner().unwrap())).unwrap();
        assert_eq!(journal.policy_spec.as_deref(), Some("fs"));
        assert_eq!(journal.swaps.len(), 1);
        let mut replayed = replay_journal(config.batch(32), &journal, &compile).unwrap();
        replayed.drain();
        assert_eq!(replayed.decision_digest(), live.decision_digest());
        assert_eq!(replayed.metrics_total(), live.metrics_total());
        assert_eq!(replayed.generation(), 1);
        // A compiler that resolves the swap spec to a different policy
        // is caught by the journaled identity hash.
        let lying = |spec: &str| -> Result<CompiledTable, String> {
            match spec {
                "fs" => compile("fs"),
                _ => compile("fs"), // claims "if", compiles fair-share
            }
        };
        let err = replay_journal(config, &journal, &lying)
            .err()
            .expect("lying compiler");
        assert!(
            matches!(&err, JournalError::Mismatch(m) if m.contains("hashes to")),
            "{err:?}"
        );
    }

    #[test]
    fn recover_refuses_a_mismatched_generation_schedule() {
        let t = trace();
        let config = EngineConfig::new(2).route_shards(3).batch(8);
        let compile = |spec: &str| -> Result<CompiledTable, String> {
            match spec {
                "fs" => Ok(CompiledTable::compile(Box::new(FairShare), 2, 16, 16)),
                other => Err(format!("unknown spec '{other}'")),
            }
        };
        let mut engine = ServeEngine::new(compile("fs").unwrap(), config);
        let mut w = JournalWriter::create_with_spec(Vec::new(), &engine, Some("fs")).unwrap();
        let arrivals = t.arrivals();
        w.append_batch(0, &arrivals[..40]).unwrap();
        engine.ingest_batch(&arrivals[..40]);
        let snap = engine.snapshot();
        assert_eq!(snap.generation, 0);
        w.append_batch(40, &arrivals[40..60]).unwrap();
        engine.ingest_batch(&arrivals[40..60]);
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(w.into_inner().unwrap())).unwrap();
        // Doctor the journal so it claims a swap happened before the
        // snapshot: recover must refuse the schedule, not replay across
        // a policy the snapshot never served.
        let mut doctored = journal.clone();
        doctored.swaps.push(SwapRecord {
            seq: 20,
            generation: 1,
            hash: 123,
            spec: "fs".into(),
        });
        let err = recover(compile("fs").unwrap(), config, &snap, &doctored)
            .err()
            .expect("doctored");
        assert!(
            matches!(&err, JournalError::Mismatch(m) if m.contains("generation schedules")),
            "{err:?}"
        );
        // The undoctored journal recovers fine, and a post-snapshot
        // swap is replayed through recover_with at its exact seq.
        let recovered = recover(compile("fs").unwrap(), config, &snap, &journal).unwrap();
        assert_eq!(recovered.ingested(), 60);
    }

    #[test]
    fn recover_with_replays_post_snapshot_swaps_bit_identically() {
        use eirs_sim::policy::InelasticFirst;
        let t = trace();
        let config = EngineConfig::new(2).route_shards(3).batch(8);
        let compile = |spec: &str| -> Result<CompiledTable, String> {
            match spec {
                "fs" => Ok(CompiledTable::compile(Box::new(FairShare), 2, 16, 16)),
                "if" => Ok(CompiledTable::compile(Box::new(InelasticFirst), 2, 16, 16)),
                other => Err(format!("unknown spec '{other}'")),
            }
        };
        let arrivals = trace_arrivals(&t);
        // Live: snapshot at 30, swap at 55 (or at the snapshot point,
        // right after the snapshot), crash at 80.
        for swap_at in [55, 30] {
            let mut live = ServeEngine::new(compile("fs").unwrap(), config);
            let mut w = JournalWriter::create_with_spec(Vec::new(), &live, Some("fs")).unwrap();
            w.append_batch(0, &arrivals[..30]).unwrap();
            live.ingest_batch(&arrivals[..30]);
            let snap = live.snapshot();
            w.append_batch(30, &arrivals[30..swap_at]).unwrap();
            live.ingest_batch(&arrivals[30..swap_at]);
            let rec = live.install_table(compile("if").unwrap(), "if");
            w.append_swap(&rec).unwrap();
            w.append_batch(swap_at as u64, &arrivals[swap_at..80])
                .unwrap();
            live.ingest_batch(&arrivals[swap_at..80]);
            // Reference continues to the end without crashing.
            live.ingest_batch(&arrivals[80..]);
            live.drain();
            let journal =
                Journal::from_reader(&mut std::io::Cursor::new(w.into_inner().unwrap())).unwrap();
            // Plain recover refuses the post-snapshot swap...
            let err = recover(compile("fs").unwrap(), config, &snap, &journal)
                .err()
                .expect("swap refused");
            assert!(
                matches!(&err, JournalError::Mismatch(m) if m.contains("recover_with")),
                "{err:?}"
            );
            // ...recover_with replays it and continues bit-identically.
            let mut recovered =
                recover_with(compile("fs").unwrap(), config, &snap, &journal, &|r| {
                    compile(&r.spec)
                })
                .unwrap();
            assert_eq!(recovered.ingested(), 80);
            assert_eq!(recovered.generation(), 1);
            recovered.ingest_batch(&arrivals[80..]);
            recovered.drain();
            assert_eq!(recovered.decision_digest(), live.decision_digest());
            assert_eq!(recovered.metrics_total(), live.metrics_total());
        }
    }

    fn trace_arrivals(t: &ArrivalTrace) -> Vec<Arrival> {
        t.arrivals().to_vec()
    }

    #[test]
    fn recover_rejects_identity_mismatches() {
        let t = trace();
        let config = churned_config();
        let mut engine = ServeEngine::new(table(), config);
        let mut src = t.stream();
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        let outcome = run_journaled(
            &mut engine,
            &mut src,
            f64::INFINITY,
            &mut w,
            RunControls {
                snapshot_at: Some(20),
                kill_after: Some(30),
            },
        )
        .unwrap();
        let snap = outcome.snapshot.unwrap();
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(w.into_inner().unwrap())).unwrap();
        // A journal whose churn identity disagrees with the snapshot.
        let mut other = journal.clone();
        other.churn = None;
        assert!(matches!(
            recover(table(), config, &snap, &other),
            Err(JournalError::Mismatch(_))
        ));
        // A journal that starts after the snapshot's seq: unrecoverable gap.
        let mut gapped = journal.clone();
        gapped.entries.retain(|e| e.seq >= 25);
        assert!(matches!(
            recover(table(), config, &snap, &gapped),
            Err(JournalError::Mismatch(_))
        ));
    }
}
