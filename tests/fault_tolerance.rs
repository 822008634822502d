//! Property tests of the fault-tolerance layer:
//!
//! 1. **Recovery at any index**: a journaled run snapshotted at *any*
//!    arrival index and killed at *any* later one recovers to a
//!    bit-identical decision digest and metrics total, across randomized
//!    routing partitions, worker counts, batch sizes, and fault
//!    schedules (the chaos harness asserts the serial / parallel /
//!    kill-and-recover triple internally);
//! 2. **Snapshot round-trip mid-flight**: freezing a churned engine at
//!    any prefix of the workload, serializing through the checksummed
//!    record format, restoring, and finishing the workload equals the
//!    uninterrupted run bit for bit — including fault cursors and
//!    degraded-mode counters;
//! 3. **Integrity under torn and flipped files**: a journal with a
//!    mid-stream hot-swap and a churned engine's snapshot, truncated at
//!    every byte offset and hit by seeded single-bit flips, load as an
//!    exact prefix of what was written (`Journal::load_prefix`), exactly
//!    what was written (the strict loaders), or an error — never as an
//!    altered run — and every accepted prefix that reaches the snapshot
//!    recovers to the engine that ingested that prefix directly. A binary
//!    trace cut or flipped the same way fails at open, whether read by
//!    `BinaryTraceReader` or by the `trace:` loader;
//! 4. **Saves report write errors** instead of dropping them with a
//!    buffered writer;
//! 5. **Buffer edges**: the loaders check and decode each record in place
//!    in their reader's buffer and copy out only a record that straddles
//!    its end, so the journal and snapshot above, whole, cut at every
//!    byte and flipped at every byte, decode through buffers of a few
//!    bytes to a few KiB exactly as through one buffer holding the whole
//!    file: the same journal, snapshot or error.

use eirs_repro::queueing::Exponential;
use eirs_repro::serve::{
    recover_with, run_chaos, ChurnConfig, CompiledTable, EngineConfig, EngineSnapshot, Journal,
    JournalWriter, ServeEngine, ShardMetrics,
};
use eirs_repro::sim::arrivals::{Arrival, ArrivalTrace};
use eirs_repro::sim::availability::FaultSpec;
use eirs_repro::sim::policy::{FairShare, InelasticFirst};
use eirs_repro::sim::trace::{
    load_binary, open_trace_source, BinaryTraceReader, BinaryTraceWriter,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufReader, Write};

fn trace(seed: u64) -> ArrivalTrace {
    ArrivalTrace::record_poisson(
        0.9,
        0.7,
        Box::new(Exponential::new(1.0)),
        Box::new(Exponential::new(0.8)),
        seed,
        110.0,
    )
}

fn make_table() -> CompiledTable {
    CompiledTable::compile(Box::new(FairShare), 3, 24, 24)
}

fn config(route: usize, workers: usize, batch: usize, churned: bool) -> EngineConfig {
    let mut config = EngineConfig::new(3)
        .route_shards(route)
        .workers(workers)
        .batch(batch);
    if churned {
        config = config
            .churn(ChurnConfig {
                spec: FaultSpec::parse("crash:mtbf=25,mttr=6").expect("valid spec"),
                seed: 5,
                horizon: 200.0,
            })
            .shed_limit(8);
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery is index-independent: wherever the snapshot and the kill
    /// land, the recovered digest equals the unfaulted serial run's.
    #[test]
    fn kill_and_recover_at_any_index_is_bit_identical(
        seed in 1u64..1000,
        route in 1usize..5,
        workers in 1usize..5,
        batch in 1usize..40,
        snap_frac in 0.02f64..0.9,
        kill_frac in 0.0f64..1.0,
        churn_sel in 0u32..2,
    ) {
        let churned = churn_sel == 1;
        let t = trace(seed);
        let n = t.len() as u64;
        // 110 epochs at rate 1.6 always yields far more than 4 arrivals;
        // the shim has no prop_assume, so assert the precondition.
        prop_assert!(n >= 4);
        let snapshot_at = (((n - 2) as f64 * snap_frac) as u64).min(n - 2);
        let kill_after =
            (snapshot_at + 1 + ((n - snapshot_at - 1) as f64 * kill_frac) as u64).min(n);
        // run_chaos panics (→ proptest failure) if the serial, parallel,
        // or kill-and-recover digests or metrics diverge.
        let report = run_chaos(
            &make_table,
            config(route, workers, batch, churned),
            &t,
            snapshot_at,
            kill_after,
        );
        prop_assert_eq!(report.serial_digest, report.recovered_digest);
        prop_assert_eq!(
            report.metrics.completions + report.metrics.rejections,
            report.metrics.arrivals,
            "every arrival is served or accounted as shed"
        );
    }

    /// Snapshots taken at any workload prefix survive the record format:
    /// restore + finish equals the uninterrupted run.
    #[test]
    fn snapshot_restore_at_any_prefix_continues_bit_identically(
        seed in 1u64..1000,
        route in 1usize..5,
        cut_frac in 0.0f64..1.0,
        churn_sel in 0u32..2,
    ) {
        let churned = churn_sel == 1;
        let t = trace(seed);
        let cut = ((t.len() as f64) * cut_frac) as usize;
        let config = config(route, 1, 16, churned);

        let mut reference = ServeEngine::new(make_table(), config);
        reference.ingest_batch(t.arrivals());
        reference.drain();

        let mut first = ServeEngine::new(make_table(), config);
        first.ingest_batch(&t.arrivals()[..cut]);
        let mut bytes = Vec::new();
        first.snapshot().to_writer(&mut bytes).expect("serialize");
        drop(first);

        let snap = EngineSnapshot::from_reader(&mut bytes.as_slice()).expect("parse");
        let mut resumed = ServeEngine::from_snapshot(make_table(), config, &snap)
            .expect("restore");
        resumed.ingest_batch(&t.arrivals()[cut..]);
        resumed.drain();

        prop_assert_eq!(resumed.decision_digest(), reference.decision_digest());
        prop_assert_eq!(resumed.metrics_total(), reference.metrics_total());
    }
}

/// Arrivals journaled by the integrity gate; the snapshot is taken after
/// `SNAP_AT` of them and the policy hot-swaps at `SWAP_AT`.
const GATE_ARRIVALS: usize = 100;
const SNAP_AT: usize = 30;
const SWAP_AT: usize = 60;
const FLIPS: usize = 1_000;

fn compile_spec(spec: &str) -> Result<CompiledTable, String> {
    match spec {
        "fs" => Ok(make_table()),
        "if" => Ok(CompiledTable::compile(Box::new(InelasticFirst), 3, 24, 24)),
        other => Err(format!("unknown spec '{other}'")),
    }
}

/// A byte sink that notes its length at every flush. The journal writer
/// flushes once per append, so appending one record at a time marks
/// every record boundary.
#[derive(Default)]
struct Boundaries {
    bytes: Vec<u8>,
    at: Vec<usize>,
}

impl Write for Boundaries {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.at.last() != Some(&self.bytes.len()) {
            self.at.push(self.bytes.len());
        }
        Ok(())
    }
}

/// The gate's files, as written, with the intact parses they must
/// reproduce.
struct Written {
    config: EngineConfig,
    arrivals: Vec<Arrival>,
    wal: Boundaries,
    journal: Journal,
    snap_bytes: Vec<u8>,
    snap: EngineSnapshot,
    /// Drained `(digest, totals)` of an engine that ingested the first
    /// `m` arrivals directly, keyed by `(m, swapped)`.
    direct: HashMap<(usize, bool), (u64, ShardMetrics)>,
}

impl Written {
    fn new() -> Self {
        let config = config(3, 1, 8, true);
        let arrivals = trace(7).arrivals()[..GATE_ARRIVALS].to_vec();
        let mut engine = ServeEngine::new(make_table(), config);
        let mut w =
            JournalWriter::create_with_spec(Boundaries::default(), &engine, Some("fs")).unwrap();
        let mut snap = None;
        for (seq, a) in arrivals.iter().enumerate() {
            if seq == SNAP_AT {
                snap = Some(engine.snapshot());
            }
            if seq == SWAP_AT {
                let swap = engine.install_table(compile_spec("if").unwrap(), "if");
                w.append_swap(&swap).unwrap();
            }
            w.append_batch(seq as u64, std::slice::from_ref(a)).unwrap();
            engine.ingest_batch(std::slice::from_ref(a));
        }
        let wal = w.into_inner().unwrap();
        assert_eq!(
            wal.at.len(),
            1 + GATE_ARRIVALS + 1,
            "one boundary per record"
        );
        let journal = Journal::from_reader(&mut &wal.bytes[..]).expect("intact journal");
        assert_eq!(journal.swaps.len(), 1);
        assert_eq!(journal.swaps[0].seq, SWAP_AT as u64);
        assert_eq!(journal.entries.len(), GATE_ARRIVALS);
        for (n, e) in journal.entries.iter().enumerate() {
            assert_eq!((e.seq, e.arrival), (n as u64, arrivals[n]));
        }
        let snap = snap.expect("the snapshot point lies inside the stream");
        let mut snap_bytes = Vec::new();
        snap.to_writer(&mut snap_bytes).unwrap();
        assert_eq!(
            EngineSnapshot::from_reader(&mut &snap_bytes[..]).unwrap(),
            snap
        );
        Self {
            config,
            arrivals,
            wal,
            journal,
            snap_bytes,
            snap,
            direct: HashMap::new(),
        }
    }

    /// The journal as written up to record boundary `i` (0 = the header):
    /// the swap record sits between entries `SWAP_AT - 1` and `SWAP_AT`.
    fn prefix_at(&self, i: usize) -> Journal {
        let (m, swaps) = if i <= SWAP_AT { (i, 0) } else { (i - 1, 1) };
        Journal {
            entries: self.journal.entries[..m].to_vec(),
            swaps: self.journal.swaps[..swaps].to_vec(),
            ..self.journal.clone()
        }
    }

    /// Recovers the snapshot plus an accepted journal prefix and compares
    /// it with an engine that ingested the same prefix directly.
    fn check_recovery(&mut self, j: &Journal, what: &str) {
        let (m, swapped) = (j.entries.len(), !j.swaps.is_empty());
        if m < SNAP_AT {
            return;
        }
        let mut recovered = recover_with(make_table(), self.config, &self.snap, j, &|rec| {
            compile_spec(&rec.spec)
        })
        .unwrap_or_else(|e| panic!("{what}: recovery of a {m}-entry prefix failed: {e}"));
        recovered.drain();
        let (config, arrivals) = (self.config, &self.arrivals);
        let direct = self.direct.entry((m, swapped)).or_insert_with(|| {
            let mut engine = ServeEngine::new(make_table(), config);
            if swapped {
                engine.ingest_batch(&arrivals[..SWAP_AT]);
                engine.install_table(compile_spec("if").unwrap(), "if");
                engine.ingest_batch(&arrivals[SWAP_AT..m]);
            } else {
                engine.ingest_batch(&arrivals[..m]);
            }
            engine.drain();
            (engine.decision_digest(), engine.metrics_total())
        });
        assert_eq!(
            (recovered.decision_digest(), recovered.metrics_total()),
            *direct,
            "{what}: recovery diverged from the directly ingested prefix"
        );
    }
}

/// Flips one seeded bit of `bytes`.
fn flip(bytes: &[u8], rng: &mut StdRng) -> (Vec<u8>, usize) {
    let bit = (rng.random::<u64>() % (bytes.len() as u64 * 8)) as usize;
    let mut out = bytes.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    (out, bit)
}

#[test]
fn torn_or_flipped_journals_and_snapshots_never_load_altered() {
    let mut w = Written::new();
    let wal = w.wal.bytes.clone();
    // A cut keeps exactly the records wholly before it: `load_prefix`
    // returns them, the strict loader only when nothing was torn.
    for cut in 0..=wal.len() {
        let what = format!("journal cut at byte {cut}");
        let loaded = Journal::load_prefix(&mut &wal[..cut]);
        let strict = Journal::from_reader(&mut &wal[..cut]);
        match w.wal.at.iter().rposition(|&b| b <= cut) {
            None => assert!(loaded.is_err(), "{what}: loaded without a whole header"),
            Some(i) => assert_eq!(loaded.as_ref().ok(), Some(&w.prefix_at(i)), "{what}"),
        }
        if w.wal.at.contains(&cut) {
            assert_eq!(
                strict.ok(),
                loaded.clone().ok(),
                "{what}: strict load differs"
            );
        } else {
            assert!(
                strict.is_err(),
                "{what}: strict load accepted a torn record"
            );
        }
        if let Ok(j) = loaded {
            w.check_recovery(&j, &what);
        }
    }
    for cut in 0..w.snap_bytes.len() {
        assert!(
            EngineSnapshot::from_reader(&mut &w.snap_bytes[..cut]).is_err(),
            "snapshot cut at byte {cut} loaded"
        );
    }
    // A flipped bit is caught by its record's checksum, type or length
    // check. The one flip a loader may survive is in a variable-length
    // record's length field, here the swap's: a length running past the
    // end reads as a torn tail, so `load_prefix` keeps the records before
    // the swap.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..FLIPS {
        let (bad, bit) = flip(&wal, &mut rng);
        let what = format!("journal bit {bit} flipped");
        assert!(
            Journal::from_reader(&mut &bad[..]).is_err(),
            "{what}: strict load accepted a damaged journal"
        );
        if let Ok(j) = Journal::load_prefix(&mut &bad[..]) {
            let record = w.wal.at.partition_point(|&b| b <= bit / 8);
            assert_eq!(record, SWAP_AT + 1, "{what}: a damaged record loaded");
            assert_eq!(
                j,
                w.prefix_at(SWAP_AT),
                "{what}: load_prefix altered the journal"
            );
            w.check_recovery(&j, &what);
        }
        let (bad, bit) = flip(&w.snap_bytes, &mut rng);
        assert!(
            EngineSnapshot::from_reader(&mut &bad[..]).is_err(),
            "snapshot bit {bit} flipped: a damaged snapshot loaded"
        );
    }
}

#[test]
fn torn_or_flipped_binary_traces_fail_at_open() {
    let path = std::env::temp_dir().join(format!("eirs-ft-trace-{}.bt", std::process::id()));
    let arrivals = trace(7).arrivals()[..GATE_ARRIVALS].to_vec();
    let mut w = BinaryTraceWriter::create(&path).unwrap();
    for a in &arrivals {
        w.push(a).unwrap();
    }
    assert_eq!(w.finish().unwrap(), GATE_ARRIVALS as u64);
    assert_eq!(load_binary(&path).unwrap().arrivals(), arrivals);
    let bytes = std::fs::read(&path).unwrap();
    let refused = |bad: &[u8], what: &str| {
        std::fs::write(&path, bad).unwrap();
        assert!(BinaryTraceReader::open(&path).is_err(), "{what}: opened");
        assert!(
            open_trace_source(&path).is_err(),
            "{what}: opened as a trace: workload"
        );
    };
    for cut in 0..bytes.len() {
        refused(&bytes[..cut], &format!("trace cut at byte {cut}"));
    }
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..FLIPS {
        let (bad, bit) = flip(&bytes, &mut rng);
        refused(&bad, &format!("trace bit {bit} flipped"));
    }
    std::fs::remove_file(&path).ok();
}

/// Read-buffer capacities that put record boundaries everywhere: smaller
/// than one record, about one record, and several records; then the
/// 64 KiB the file loaders use, which holds these files whole.
const EDGE_CAPACITIES: [usize; 5] = [7, 37, 500, 4096, 64 << 10];

#[test]
fn journals_and_snapshots_decode_alike_at_every_buffer_edge() {
    let w = Written::new();
    let (wal, snap) = (&w.wal.bytes, &w.snap_bytes);
    // Whole, cut at every byte, and flipped at every byte (one bit each,
    // moving through the byte): every kind of damage meets both the
    // in-place and the copying path.
    let damaged = |bytes: &[u8]| {
        let mut out = vec![(None, bytes.to_vec())];
        for at in 0..bytes.len() {
            out.push((None, bytes[..at].to_vec()));
            let mut bad = bytes.to_vec();
            bad[at] ^= 1 << (at % 8);
            out.push((Some(at), bad));
        }
        out
    };
    for (flipped, bytes) in damaged(wal) {
        let strict = Journal::from_reader(&mut &bytes[..]);
        let prefix = Journal::load_prefix(&mut &bytes[..]);
        if let Some(at) = flipped {
            // As in the seeded gate: only the swap's length can read as
            // a torn tail, and then the records before it load.
            assert!(strict.is_err(), "byte {at} flipped: strict load accepted");
            if let Ok(j) = &prefix {
                assert_eq!(w.wal.at.partition_point(|&b| b <= at), SWAP_AT + 1);
                assert_eq!(*j, w.prefix_at(SWAP_AT), "byte {at} flipped");
            }
        }
        for cap in EDGE_CAPACITIES {
            let what = format!("{}-byte journal, {cap}-byte buffer", bytes.len());
            let strict_at = Journal::from_reader(&mut BufReader::with_capacity(cap, &bytes[..]));
            let prefix_at = Journal::load_prefix(&mut BufReader::with_capacity(cap, &bytes[..]));
            assert_eq!(strict_at, strict, "{what}: strict load");
            assert_eq!(prefix_at, prefix, "{what}: prefix load");
        }
    }
    assert_eq!(Journal::from_reader(&mut &wal[..]), Ok(w.journal.clone()));
    for (flipped, bytes) in damaged(snap) {
        let whole = EngineSnapshot::from_reader(&mut &bytes[..]);
        assert!(
            whole.is_err() || bytes == *snap,
            "a damaged snapshot loaded (byte {flipped:?} flipped)"
        );
        for cap in EDGE_CAPACITIES {
            let at = EngineSnapshot::from_reader(&mut BufReader::with_capacity(cap, &bytes[..]));
            assert_eq!(
                at,
                whole,
                "{}-byte snapshot, {cap}-byte buffer",
                bytes.len()
            );
        }
    }
    assert_eq!(EngineSnapshot::from_reader(&mut &snap[..]), Ok(w.snap));
}

#[cfg(target_os = "linux")]
#[test]
fn saves_to_a_full_device_report_the_write_error() {
    let full = std::path::Path::new("/dev/full");
    let t = trace(3);
    let mut engine = ServeEngine::new(make_table(), config(2, 1, 8, true));
    engine.ingest_batch(&t.arrivals()[..40]);
    assert!(engine.snapshot().save(full).is_err(), "snapshot save");
    assert!(t.save(full).is_err(), "trace save");
}
