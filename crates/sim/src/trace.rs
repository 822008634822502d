//! Streaming binary trace storage and cluster-log import.
//!
//! [`crate::arrivals::ArrivalTrace`] is a text format that materializes
//! every arrival in RAM — fine for test fixtures, wrong for the
//! million-to-billion-arrival traces a production replay needs. This
//! module adds the scale path:
//!
//! * **Binary trace format** (`eirs-bt v1`): a 16-byte header (8-byte
//!   magic+version tag, 8-byte little-endian record count) followed by
//!   fixed-width 24-byte records (`f64` time, `f64` size, class byte,
//!   7 reserved zero bytes). Raw IEEE-754 bits are stored, so a binary ⇄
//!   text round-trip is **bit-exact** (the text format prints shortest
//!   round-trippable floats). The record count plus the fixed record
//!   width make truncation detectable: a file whose length disagrees
//!   with its header is rejected at open, never silently shortened —
//!   the same contract the text parser enforces per line.
//! * **[`BinaryTraceReader`]**: a chunked [`ArrivalSource`] that streams
//!   records through a fixed-size buffer, so replay memory is
//!   independent of trace length. [`open_trace_source`] sniffs the magic
//!   and picks the streaming reader for binary files and the in-memory
//!   text loader otherwise, which is how `trace:<path>` workload specs
//!   transparently accept either format.
//! * **SWF import** ([`import_swf`]): maps the standard workload format
//!   used by public cluster logs (and the malleable-HPC evaluations) to
//!   elastic/inelastic arrivals — multi-processor jobs are elastic
//!   (they can scale across servers), single-processor jobs are
//!   inelastic, and a job's size is its total CPU-seconds of work.

use crate::arrivals::{Arrival, ArrivalSource, ArrivalTrace, TraceError};
use crate::job::JobClass;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic + version tag opening every binary trace file.
pub const BINARY_TRACE_MAGIC: [u8; 8] = *b"eirsbt01";

/// Bytes per fixed-width binary record.
pub const BINARY_RECORD_BYTES: usize = 24;

/// Bytes in the binary header (magic + record count).
pub const BINARY_HEADER_BYTES: usize = 16;

/// Records buffered per refill by [`BinaryTraceReader`]; bounds replay
/// memory at `CHUNK_RECORDS * BINARY_RECORD_BYTES` bytes regardless of
/// trace length.
const CHUNK_RECORDS: usize = 4096;

fn io_err(e: std::io::Error) -> TraceError {
    TraceError::Io(e.to_string())
}

fn encode_record(a: &Arrival, out: &mut [u8; BINARY_RECORD_BYTES]) {
    out[0..8].copy_from_slice(&a.time.to_bits().to_le_bytes());
    out[8..16].copy_from_slice(&a.size.to_bits().to_le_bytes());
    out[16] = match a.class {
        JobClass::Inelastic => 0,
        JobClass::Elastic => 1,
    };
    out[17..].fill(0);
}

fn decode_record(index: u64, raw: &[u8]) -> Result<Arrival, TraceError> {
    let rec = index as usize + 1; // 1-based, like text line numbers
    let time = f64::from_bits(u64::from_le_bytes(raw[0..8].try_into().expect("8 bytes")));
    let size = f64::from_bits(u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")));
    let class = match raw[16] {
        0 => JobClass::Inelastic,
        1 => JobClass::Elastic,
        other => {
            return Err(TraceError::Line(rec, format!("invalid class byte {other}")));
        }
    };
    if !(time.is_finite() && time >= 0.0) {
        return Err(TraceError::Line(rec, format!("invalid time {time}")));
    }
    if !(size.is_finite() && size > 0.0) {
        return Err(TraceError::Line(rec, format!("invalid size {size}")));
    }
    Ok(Arrival { time, class, size })
}

/// Incremental writer for the binary trace format.
///
/// Records must be pushed in nondecreasing time order (the reader streams
/// and cannot sort); [`BinaryTraceWriter::push`] rejects out-of-order
/// arrivals. The header's record count is back-filled by
/// [`BinaryTraceWriter::finish`] — an unfinished file has count
/// `u64::MAX` and fails validation at open, so a writer crash can never
/// masquerade as a complete trace.
pub struct BinaryTraceWriter {
    out: BufWriter<File>,
    count: u64,
    last_time: f64,
}

impl BinaryTraceWriter {
    /// Creates `path` and writes the provisional header.
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        let mut out = BufWriter::new(File::create(path).map_err(io_err)?);
        out.write_all(&BINARY_TRACE_MAGIC).map_err(io_err)?;
        // Provisional count: u64::MAX never matches a real file length.
        out.write_all(&u64::MAX.to_le_bytes()).map_err(io_err)?;
        Ok(Self {
            out,
            count: 0,
            last_time: f64::NEG_INFINITY,
        })
    }

    /// Appends one arrival. Errors on a negative or non-finite time, a
    /// size that is not finite and positive, or a time earlier than the
    /// previous record.
    pub fn push(&mut self, a: &Arrival) -> Result<(), TraceError> {
        let rec = self.count as usize + 1;
        if !(a.time.is_finite() && a.time >= 0.0) {
            return Err(TraceError::Line(rec, format!("invalid time {}", a.time)));
        }
        if !(a.size.is_finite() && a.size > 0.0) {
            return Err(TraceError::Line(rec, format!("invalid size {}", a.size)));
        }
        if a.time < self.last_time {
            return Err(TraceError::Line(
                rec,
                format!(
                    "out-of-order arrival at t={} after t={}",
                    a.time, self.last_time
                ),
            ));
        }
        self.last_time = a.time;
        let mut raw = [0u8; BINARY_RECORD_BYTES];
        encode_record(a, &mut raw);
        self.out.write_all(&raw).map_err(io_err)?;
        self.count += 1;
        Ok(())
    }

    /// Back-fills the header record count and flushes. Returns the number
    /// of records written.
    pub fn finish(mut self) -> Result<u64, TraceError> {
        self.out.flush().map_err(io_err)?;
        let file = self.out.get_mut();
        file.seek(SeekFrom::Start(8)).map_err(io_err)?;
        file.write_all(&self.count.to_le_bytes()).map_err(io_err)?;
        file.flush().map_err(io_err)?;
        Ok(self.count)
    }
}

/// Writes a whole in-memory [`ArrivalTrace`] to `path` in the binary
/// format. The text and binary files of the same trace decode to
/// bit-identical arrivals.
pub fn save_binary(trace: &ArrivalTrace, path: &Path) -> Result<u64, TraceError> {
    let mut w = BinaryTraceWriter::create(path)?;
    for a in trace.arrivals() {
        w.push(a)?;
    }
    w.finish()
}

/// Loads a whole binary trace into memory (test-scale convenience; use
/// [`BinaryTraceReader`] for replay at scale).
pub fn load_binary(path: &Path) -> Result<ArrivalTrace, TraceError> {
    let mut reader = BinaryTraceReader::open(path)?;
    let mut arrivals = Vec::with_capacity(reader.len() as usize);
    while let Some(a) = reader.next_arrival() {
        arrivals.push(a);
    }
    Ok(ArrivalTrace::new(arrivals))
}

/// A chunked, bounded-memory [`ArrivalSource`] over a binary trace file.
///
/// Validation happens at [`BinaryTraceReader::open`]: the magic, the
/// header/file-length agreement (every truncation is caught before the
/// first record is served), and a full streaming pass over the records
/// (class bytes, finite nonnegative times, finite positive sizes,
/// nondecreasing times). After
/// `open` succeeds, replay itself can no longer fail — `next_arrival`
/// simply refills a fixed 4096-record buffer, so peak memory is
/// independent of trace length.
pub struct BinaryTraceReader {
    file: BufReader<File>,
    total: u64,
    served: u64,
    chunk: Vec<Arrival>,
    chunk_pos: usize,
}

impl std::fmt::Debug for BinaryTraceReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinaryTraceReader")
            .field("total", &self.total)
            .field("served", &self.served)
            .finish()
    }
}

impl BinaryTraceReader {
    /// Opens and fully validates `path`, then rewinds to the first record.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path).map_err(io_err)?;
        let actual_len = file.metadata().map_err(io_err)?.len();
        let mut reader = BufReader::new(file);

        let mut header = [0u8; BINARY_HEADER_BYTES];
        if actual_len < BINARY_HEADER_BYTES as u64 {
            return Err(TraceError::Io(format!(
                "binary trace header truncated: {actual_len} bytes, need {BINARY_HEADER_BYTES}"
            )));
        }
        reader.read_exact(&mut header).map_err(io_err)?;
        if header[0..8] != BINARY_TRACE_MAGIC {
            return Err(TraceError::Io(format!(
                "bad binary trace magic {:02x?} (expected {:02x?} — not an eirs binary trace, \
                 or an unsupported version)",
                &header[0..8],
                BINARY_TRACE_MAGIC
            )));
        }
        let total = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let expect_len = BINARY_HEADER_BYTES as u64
            + total
                .checked_mul(BINARY_RECORD_BYTES as u64)
                .ok_or_else(|| TraceError::Io(format!("absurd record count {total}")))?;
        if actual_len != expect_len {
            return Err(TraceError::Io(format!(
                "binary trace length mismatch: header claims {total} records \
                 ({expect_len} bytes), file is {actual_len} bytes \
                 (truncated or unfinished write)"
            )));
        }

        let mut me = Self {
            file: reader,
            total,
            served: 0,
            chunk: Vec::new(),
            chunk_pos: 0,
        };
        // Validation pass: stream every record once (bounded memory),
        // checking payloads and time ordering, then rewind. Replay after
        // a successful open cannot hit a decode error.
        let mut last_time = f64::NEG_INFINITY;
        let mut index = 0u64;
        loop {
            let batch = me.refill()?;
            if batch == 0 {
                break;
            }
            for a in &me.chunk {
                if a.time < last_time {
                    return Err(TraceError::Line(
                        index as usize + 1,
                        format!("out-of-order arrival at t={} after t={}", a.time, last_time),
                    ));
                }
                last_time = a.time;
                index += 1;
            }
        }
        me.file
            .seek(SeekFrom::Start(BINARY_HEADER_BYTES as u64))
            .map_err(io_err)?;
        me.served = 0;
        me.chunk.clear();
        me.chunk_pos = 0;
        Ok(me)
    }

    /// Total records in the trace (from the validated header).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Reads the next chunk into the buffer; returns records decoded.
    fn refill(&mut self) -> Result<usize, TraceError> {
        self.chunk.clear();
        self.chunk_pos = 0;
        let remaining = self.total - self.served;
        let take = remaining.min(CHUNK_RECORDS as u64) as usize;
        if take == 0 {
            return Ok(0);
        }
        let mut raw = vec![0u8; take * BINARY_RECORD_BYTES];
        self.file.read_exact(&mut raw).map_err(io_err)?;
        for i in 0..take {
            let a = decode_record(
                self.served + i as u64,
                &raw[i * BINARY_RECORD_BYTES..(i + 1) * BINARY_RECORD_BYTES],
            )?;
            self.chunk.push(a);
        }
        self.served += take as u64;
        Ok(take)
    }
}

impl ArrivalSource for BinaryTraceReader {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.chunk_pos >= self.chunk.len() {
            // Open validated the whole file; a refill error here would
            // mean the file changed underneath us mid-replay.
            let n = self.refill().expect("binary trace validated at open");
            if n == 0 {
                return None;
            }
        }
        let a = self.chunk[self.chunk_pos];
        self.chunk_pos += 1;
        Some(a)
    }
}

/// `true` when `path` opens with [`BINARY_TRACE_MAGIC`] (i.e. is a
/// binary trace rather than the text format). Only reads 8 bytes.
pub fn sniff_binary(path: &Path) -> Result<bool, TraceError> {
    let mut probe = [0u8; 8];
    let mut file = File::open(path).map_err(io_err)?;
    match file.read(&mut probe) {
        Ok(n) => Ok(n == 8 && probe == BINARY_TRACE_MAGIC),
        Err(e) => Err(io_err(e)),
    }
}

/// Opens `path` as an [`ArrivalSource`], sniffing the format: files
/// opening with [`BINARY_TRACE_MAGIC`] stream through a
/// [`BinaryTraceReader`] (bounded memory); anything else parses as the
/// text [`ArrivalTrace`] format (in-memory). This is the loader behind
/// `trace:<path>` workload specs.
pub fn open_trace_source(path: &Path) -> Result<Box<dyn ArrivalSource>, TraceError> {
    if sniff_binary(path)? {
        Ok(Box::new(BinaryTraceReader::open(path)?))
    } else {
        Ok(Box::new(ArrivalTrace::load(path)?.into_stream()))
    }
}

/// Import options for [`import_swf`].
#[derive(Debug, Clone)]
pub struct SwfOptions {
    /// Jobs requesting at least this many processors are elastic
    /// (they can spread across servers); below it they are inelastic.
    pub elastic_min_procs: u64,
    /// Keep at most this many jobs (`None` = all).
    pub max_jobs: Option<usize>,
}

impl Default for SwfOptions {
    fn default() -> Self {
        Self {
            elastic_min_procs: 2,
            max_jobs: None,
        }
    }
}

/// Parses a standard workload format (SWF) cluster log into an
/// [`ArrivalTrace`].
///
/// SWF is the interchange format of the parallel workloads archive: `;`
/// header/comment lines, then one whitespace-separated record per job
/// whose first five fields are job number, submit time (seconds), wait
/// time, run time (seconds), and allocated processor count. The mapping
/// to the paper's two-class model:
///
/// * **arrival time** = submit time;
/// * **class** = elastic when the job ran on ≥
///   [`SwfOptions::elastic_min_procs`] processors (a genuinely malleable
///   parallel job), inelastic otherwise;
/// * **size** = run time × processors (total CPU-seconds of work, the
///   unit the DES's unit-speed servers consume).
///
/// Jobs with unknown (`-1`) or zero run time / processor count — failed
/// or cancelled submissions — are skipped. Malformed records are hard
/// errors with their 1-based line number, never silently dropped.
pub fn import_swf(path: &Path, opts: &SwfOptions) -> Result<ArrivalTrace, TraceError> {
    let file = File::open(path).map_err(io_err)?;
    let reader = BufReader::new(file);
    let mut arrivals = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(io_err)?;
        let body = line.trim();
        if body.is_empty() || body.starts_with(';') || body.starts_with('#') {
            continue;
        }
        if let Some(cap) = opts.max_jobs {
            if arrivals.len() >= cap {
                break;
            }
        }
        let n = idx + 1;
        let fields: Vec<&str> = body.split_whitespace().collect();
        if fields.len() < 5 {
            return Err(TraceError::Line(
                n,
                format!("SWF record has {} fields, need at least 5", fields.len()),
            ));
        }
        let num = |i: usize, name: &str| -> Result<f64, TraceError> {
            fields[i]
                .parse::<f64>()
                .map_err(|_| TraceError::Line(n, format!("unparsable {name} '{}'", fields[i])))
        };
        let submit = num(1, "submit time")?;
        let run_time = num(3, "run time")?;
        let procs = num(4, "allocated processors")?;
        if !submit.is_finite() || submit < 0.0 {
            return Err(TraceError::Line(n, format!("invalid submit time {submit}")));
        }
        // -1 marks "unknown" throughout SWF; 0 marks cancelled jobs.
        if run_time <= 0.0 || procs <= 0.0 {
            continue;
        }
        let class = if procs >= opts.elastic_min_procs as f64 {
            JobClass::Elastic
        } else {
            JobClass::Inelastic
        };
        arrivals.push(Arrival {
            time: submit,
            class,
            size: run_time * procs,
        });
    }
    Ok(ArrivalTrace::new(arrivals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::PoissonStream;
    use crate::des::{DesConfig, Simulation};
    use crate::policy::FairShare;
    use eirs_queueing::Exponential;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("eirs-trace-test-{}-{name}", std::process::id()));
        p
    }

    fn sample_trace(n: usize, seed: u64) -> ArrivalTrace {
        let mut s = PoissonStream::new(
            0.6,
            0.9,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(0.7)),
            seed,
        );
        let mut arrivals = Vec::new();
        for _ in 0..n {
            arrivals.push(s.next_arrival().expect("poisson never exhausts"));
        }
        ArrivalTrace::new(arrivals)
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let trace = sample_trace(500, 7);
        let path = tmp("roundtrip.bt");
        assert_eq!(save_binary(&trace, &path).unwrap(), 500);
        let back = load_binary(&path).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.arrivals().iter().zip(back.arrivals()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.size.to_bits(), b.size.to_bits());
            assert_eq!(a.class, b.class);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trace_round_trips() {
        let path = tmp("empty.bt");
        save_binary(&ArrivalTrace::default(), &path).unwrap();
        let mut r = BinaryTraceReader::open(&path).unwrap();
        assert!(r.is_empty());
        assert!(r.next_arrival().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let trace = sample_trace(10, 3);
        let path = tmp("trunc.bt");
        save_binary(&trace, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let err = BinaryTraceReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_writer_is_rejected() {
        let path = tmp("unfinished.bt");
        let mut w = BinaryTraceWriter::create(&path).unwrap();
        w.push(&Arrival {
            time: 0.5,
            class: JobClass::Elastic,
            size: 1.0,
        })
        .unwrap();
        drop(w); // no finish(): header still claims u64::MAX records
        assert!(BinaryTraceReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("magic.bt");
        std::fs::write(&path, b"NOTATRACE-AT-ALL-1234567890").unwrap();
        let err = BinaryTraceReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_class_byte_is_rejected_at_open() {
        let trace = sample_trace(4, 9);
        let path = tmp("class.bt");
        save_binary(&trace, &path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[BINARY_HEADER_BYTES + 2 * BINARY_RECORD_BYTES + 16] = 9;
        std::fs::write(&path, &raw).unwrap();
        let err = BinaryTraceReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("class byte"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_out_of_order_arrivals() {
        let path = tmp("order.bt");
        let mut w = BinaryTraceWriter::create(&path).unwrap();
        let a = |t: f64| Arrival {
            time: t,
            class: JobClass::Inelastic,
            size: 1.0,
        };
        w.push(&a(2.0)).unwrap();
        assert!(w.push(&a(1.0)).is_err());
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_zero_size_jobs() {
        let path = tmp("zero-push.bt");
        let mut w = BinaryTraceWriter::create(&path).unwrap();
        let err = w
            .push(&Arrival {
                time: 0.5,
                class: JobClass::Elastic,
                size: 0.0,
            })
            .unwrap_err();
        assert_eq!(err, TraceError::Line(1, "invalid size 0".into()));
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_size_record_is_rejected_at_open() {
        let trace = sample_trace(4, 9);
        let path = tmp("zero-open.bt");
        save_binary(&trace, &path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let at = BINARY_HEADER_BYTES + 2 * BINARY_RECORD_BYTES + 8;
        raw[at..at + 8].copy_from_slice(&0.0f64.to_bits().to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let err = BinaryTraceReader::open(&path).unwrap_err();
        assert_eq!(err, TraceError::Line(3, "invalid size 0".into()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn binary_replay_matches_text_replay_through_the_des() {
        let trace = sample_trace(800, 21);
        let bpath = tmp("des.bt");
        save_binary(&trace, &bpath).unwrap();
        let mut bin = BinaryTraceReader::open(&bpath).unwrap();
        let via_bin = Simulation::new(DesConfig::drain(3)).run(&FairShare, &mut bin);
        let mut text = trace.stream();
        let via_text = Simulation::new(DesConfig::drain(3)).run(&FairShare, &mut text);
        assert_eq!(via_bin.completed, via_text.completed);
        assert_eq!(
            via_bin.total_response.to_bits(),
            via_text.total_response.to_bits()
        );
        std::fs::remove_file(&bpath).unwrap();
    }

    #[test]
    fn sniffing_loader_opens_both_formats() {
        let trace = sample_trace(20, 5);
        let tpath = tmp("sniff.trace");
        let bpath = tmp("sniff.bt");
        trace.save(&tpath).unwrap();
        save_binary(&trace, &bpath).unwrap();
        let mut from_text = open_trace_source(&tpath).unwrap();
        let mut from_bin = open_trace_source(&bpath).unwrap();
        for a in trace.arrivals() {
            let t = from_text.next_arrival().unwrap();
            let b = from_bin.next_arrival().unwrap();
            assert_eq!(a.time.to_bits(), t.time.to_bits());
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.size.to_bits(), b.size.to_bits());
        }
        assert!(from_text.next_arrival().is_none());
        assert!(from_bin.next_arrival().is_none());
        std::fs::remove_file(&tpath).unwrap();
        std::fs::remove_file(&bpath).unwrap();
    }

    #[test]
    fn swf_import_maps_classes_and_skips_failed_jobs() {
        let path = tmp("import.swf");
        std::fs::write(
            &path,
            "; SWF test fixture\n\
             ; MaxProcs: 8\n\
             1 0 0 100 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n\
             2 10 5 50 1 -1 -1 1 -1 -1 1 1 1 1 1 -1 -1 -1\n\
             3 20 0 -1 4 -1 -1 4 -1 -1 0 1 1 1 1 -1 -1 -1\n\
             4 30 0 10 0 -1 -1 0 -1 -1 0 1 1 1 1 -1 -1 -1\n\
             5 5 0 20 2 -1 -1 2 -1 -1 1 1 1 1 1 -1 -1 -1\n",
        )
        .unwrap();
        let trace = import_swf(&path, &SwfOptions::default()).unwrap();
        // Jobs 3 (run time -1) and 4 (0 procs) are skipped; 3 remain,
        // sorted by submit time.
        assert_eq!(trace.len(), 3);
        let a = trace.arrivals();
        assert_eq!(a[0].time, 0.0);
        assert_eq!(a[0].class, JobClass::Elastic); // 4 procs
        assert_eq!(a[0].size, 400.0); // 100 s × 4 procs
        assert_eq!(a[1].time, 5.0);
        assert_eq!(a[1].class, JobClass::Elastic); // 2 procs
        assert_eq!(a[2].time, 10.0);
        assert_eq!(a[2].class, JobClass::Inelastic); // 1 proc
        assert_eq!(a[2].size, 50.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn swf_fixture_imports_and_replays() {
        // The committed fixture (also exercised by external tooling):
        // 5 records, 2 of them failed/cancelled, classes split by the
        // default elastic_min_procs = 2.
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/tiny.swf"));
        let trace = import_swf(path, &SwfOptions::default()).unwrap();
        assert_eq!(trace.len(), 3, "jobs 2 and 4 must be skipped");
        let a = trace.arrivals();
        assert_eq!(
            (a[0].time, a[0].class, a[0].size),
            (0.0, JobClass::Inelastic, 120.0)
        );
        assert_eq!(
            (a[1].time, a[1].class, a[1].size),
            (60.0, JobClass::Elastic, 1200.0)
        );
        assert_eq!(
            (a[2].time, a[2].class, a[2].size),
            (150.0, JobClass::Elastic, 360.0)
        );

        // max_jobs caps the import after the cap is reached.
        let capped = import_swf(
            path,
            &SwfOptions {
                max_jobs: Some(2),
                ..SwfOptions::default()
            },
        )
        .unwrap();
        assert_eq!(capped.len(), 2);

        // A stricter elasticity threshold reclassifies the 4-proc job.
        let strict = import_swf(
            path,
            &SwfOptions {
                elastic_min_procs: 8,
                max_jobs: None,
            },
        )
        .unwrap();
        assert_eq!(strict.arrivals()[1].class, JobClass::Inelastic);

        // The imported trace drains through the simulator end to end.
        let mut stream = trace.stream();
        let report = Simulation::new(DesConfig::drain(4)).run(&FairShare, &mut stream);
        assert_eq!(report.completed[0] + report.completed[1], 3);
    }

    #[test]
    fn swf_malformed_record_is_a_hard_error() {
        let path = tmp("bad.swf");
        std::fs::write(&path, "1 0 0 not-a-number 4\n").unwrap();
        let err = import_swf(&path, &SwfOptions::default()).unwrap_err();
        assert!(err.to_string().contains("run time"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
