//! Streaming binary traces and cluster-log import.
//!
//! [`crate::arrivals::ArrivalTrace`] is a text format that materializes
//! every arrival in RAM — fine for test fixtures, wrong for the
//! million-to-billion-arrival traces a production replay needs. This
//! module adds the scale path:
//!
//! * **Binary trace format** (`eirsbt02`): a stream of the workspace's
//!   one checksummed [record codec](crate::record). The magic `eirsbt02`
//!   opens it, one arrival record per job follows in the journal's
//!   layout, and an end record carrying the count closes it:
//!
//!   ```text
//!   arrival  index u64 | time f64 | size f64      class in aux
//!   end      count u64
//!   ```
//!
//!   Raw IEEE-754 bits are stored, so a binary ⇄ text round-trip is
//!   **bit-exact** (the text format prints shortest round-trippable
//!   floats). Each arrival takes 36 bytes.
//! * **[`BinaryTraceReader`]**: a bounded-memory [`ArrivalSource`] over
//!   a binary trace. [`BinaryTraceReader::open`] reads every record once
//!   before serving the first. The codec checks each record's type,
//!   length and checksum; the trace's own checks are that each record
//!   carries its index, times are finite, non-negative and
//!   non-decreasing, sizes are finite and positive, and the end record
//!   carries the count and is the last record in the file. A cut at any
//!   byte, an unfinished writer and any single flipped bit therefore fail
//!   at open, and replay after a successful open cannot fail. Both
//!   passes check and decode each record in place in their own
//!   [`record::BUF_CAPACITY`] read buffer ([`record::each`]), and replay
//!   checks every checksum again, so a file changed after open panics
//!   the replay rather than feeding it altered arrivals. Traces of
//!   the older `eirsbt01` format are refused by their magic.
//!   [`open_trace_source`] sniffs the magic and picks the streaming
//!   reader for binary files and the in-memory text loader otherwise,
//!   which is how `trace:<path>` workload specs accept either format.
//! * **SWF import** ([`import_swf`]): maps the standard workload format
//!   used by public cluster logs (and the malleable-HPC evaluations) to
//!   elastic/inelastic arrivals — multi-processor jobs are elastic
//!   (they can scale across servers), single-processor jobs are
//!   inelastic, and a job's size is its total CPU-seconds of work.

use crate::arrivals::{Arrival, ArrivalSource, ArrivalTrace, TraceError};
use crate::job::JobClass;
use crate::record::{self, Caps, Fields, Record, RecordError};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::ops::ControlFlow;
use std::path::Path;

/// Stream magic of the binary trace format.
pub const BINARY_TRACE_MAGIC: [u8; 8] = *b"eirsbt02";
const ARRIVAL: u8 = 1;
const END: u8 = 2;
/// Payload length caps of the arrival and end records.
const CAPS: &Caps = &[(record::ARRIVAL_LEN, record::ARRIVAL_LEN), (8, 8)];

fn io_err(e: std::io::Error) -> TraceError {
    TraceError::Io(e.to_string())
}

/// Maps a codec error at 1-based record `rec` to a trace error.
fn at(rec: usize) -> impl Fn(RecordError) -> TraceError {
    move |e| TraceError::Line(rec, e.to_string())
}

/// A decoded record of the format.
enum Rec {
    /// An arrival record: its index and the arrival.
    Arrival(u64, Arrival),
    /// The end record: its arrival count.
    End(u64),
}

/// Decodes a record the codec has checked.
fn decode(rec: Record<'_>) -> Result<Rec, RecordError> {
    match rec.ty {
        ARRIVAL => record::decode_arrival(rec.aux, rec.payload).map(|(id, a)| Rec::Arrival(id, a)),
        _ => Fields::new(rec.payload).u64().map(Rec::End),
    }
}

fn read_magic(r: &mut impl Read) -> Result<(), TraceError> {
    record::read_magic(r, &BINARY_TRACE_MAGIC).map_err(|e| {
        TraceError::Io(format!(
            "binary trace header: {e} (expected \"{}\")",
            BINARY_TRACE_MAGIC.escape_ascii()
        ))
    })
}

/// The trace's own rules for record `rec`: a finite non-negative time no
/// earlier than `last_time`, and a finite positive size.
fn check(rec: usize, a: &Arrival, last_time: f64) -> Result<(), TraceError> {
    if !(a.time.is_finite() && a.time >= 0.0) {
        return Err(TraceError::Line(rec, format!("invalid time {}", a.time)));
    }
    if !(a.size.is_finite() && a.size > 0.0) {
        return Err(TraceError::Line(rec, format!("invalid size {}", a.size)));
    }
    if a.time < last_time {
        return Err(TraceError::Line(
            rec,
            format!("out-of-order arrival at t={} after t={last_time}", a.time),
        ));
    }
    Ok(())
}

/// Incremental writer for the binary trace format.
///
/// Records must be pushed in nondecreasing time order (the reader streams
/// and cannot sort); [`BinaryTraceWriter::push`] rejects out-of-order
/// arrivals. [`BinaryTraceWriter::finish`] appends the end record — a
/// file without one fails at open, so a writer crash can never
/// masquerade as a complete trace.
pub struct BinaryTraceWriter {
    out: BufWriter<File>,
    /// The record being written (reused across pushes).
    buf: Vec<u8>,
    count: u64,
    last_time: f64,
}

impl BinaryTraceWriter {
    /// Creates `path` and writes the magic.
    pub fn create(path: &Path) -> Result<Self, TraceError> {
        let mut out = BufWriter::new(File::create(path).map_err(io_err)?);
        out.write_all(&BINARY_TRACE_MAGIC).map_err(io_err)?;
        Ok(Self {
            out,
            buf: Vec::new(),
            count: 0,
            last_time: f64::NEG_INFINITY,
        })
    }

    /// Appends one arrival. Errors on a negative or non-finite time, a
    /// size that is not finite and positive, or a time earlier than the
    /// previous record.
    pub fn push(&mut self, a: &Arrival) -> Result<(), TraceError> {
        check(self.count as usize + 1, a, self.last_time)?;
        self.last_time = a.time;
        self.buf.clear();
        record::encode_arrival(&mut self.buf, ARRIVAL, self.count, a);
        self.out.write_all(&self.buf).map_err(io_err)?;
        self.count += 1;
        Ok(())
    }

    /// Appends the end record carrying the record count and flushes.
    /// Returns the number of records written.
    pub fn finish(mut self) -> Result<u64, TraceError> {
        let count = self.count;
        self.buf.clear();
        record::encode(&mut self.buf, END, 0, |p| p.extend(count.to_le_bytes()));
        self.out.write_all(&self.buf).map_err(io_err)?;
        self.out.flush().map_err(io_err)?;
        Ok(count)
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

/// A bounded-memory [`ArrivalSource`] over a binary trace file.
///
/// [`BinaryTraceReader::open`] validates the whole file (see the
/// [module docs](self)); after it succeeds, replay cannot fail.
/// `next_arrival` checks and decodes one record at a time in place in a
/// [`record::BUF_CAPACITY`] [`BufReader`], so peak memory is independent
/// of trace length.
#[derive(Debug)]
pub struct BinaryTraceReader {
    file: BufReader<File>,
    total: u64,
    /// A record that straddles the buffer's end is copied here.
    spill: Vec<u8>,
}

impl BinaryTraceReader {
    /// Opens `path` and reads every record once, refusing the file on
    /// the first record that fails a check, then rewinds to the first
    /// record.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::open_buffered(path, record::BUF_CAPACITY)
    }

    /// [`BinaryTraceReader::open`] through `capacity`-byte read buffers.
    fn open_buffered(path: &Path, capacity: usize) -> Result<Self, TraceError> {
        // Two handles on the one file: the first is read through to the
        // end record, the second replays from the first record.
        let open = || {
            let file = File::open(path).map_err(io_err)?;
            Ok(BufReader::with_capacity(capacity, file))
        };
        let (mut scan, mut file) = (open()?, open()?);
        let mut spill = Vec::new();
        read_magic(&mut scan)?;
        let mut total = 0u64;
        let mut last_time = f64::NEG_INFINITY;
        // The walk stops at the end record, or at an arrival that breaks
        // the trace's own rules.
        let stop = record::each(&mut scan, CAPS, &mut spill, |r| {
            Ok(match decode(r)? {
                Rec::Arrival(id, a) => {
                    let rec = total as usize + 1;
                    let checked = if id == total {
                        check(rec, &a, last_time)
                    } else {
                        Err(TraceError::Line(rec, format!("record carries index {id}")))
                    };
                    if let Err(e) = checked {
                        return Ok(ControlFlow::Break(Err(e)));
                    }
                    last_time = a.time;
                    total += 1;
                    ControlFlow::Continue(())
                }
                Rec::End(count) => ControlFlow::Break(Ok(count)),
            })
        })
        .map_err(|e| at(total as usize + 1)(e))?;
        let rec = total as usize + 1;
        match stop {
            None => {
                return Err(TraceError::Line(
                    rec,
                    "no end record (truncated or unfinished write)".into(),
                ))
            }
            Some(Err(e)) => return Err(e),
            Some(Ok(count)) if count != total => {
                return Err(TraceError::Line(
                    rec,
                    format!("end record counts {count} arrivals, the trace holds {total}"),
                ))
            }
            Some(Ok(_)) => {}
        }
        let after = record::each(&mut scan, CAPS, &mut spill, |_| Ok(ControlFlow::Break(())));
        if after.map_err(at(rec + 1))?.is_some() {
            return Err(TraceError::Line(
                rec + 1,
                "record after the end record".into(),
            ));
        }
        read_magic(&mut file)?;
        Ok(Self { file, total, spill })
    }

    /// Total records in the trace (from the validated end record).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

impl ArrivalSource for BinaryTraceReader {
    fn next_arrival(&mut self) -> Option<Arrival> {
        // Open validated the whole file; a decode error here would mean
        // the file changed underneath us mid-replay.
        let rec = record::each(&mut self.file, CAPS, &mut self.spill, |rec| {
            decode(rec).map(ControlFlow::Break)
        });
        match rec.expect("binary trace validated at open") {
            Some(Rec::Arrival(_, a)) => Some(a),
            _ => None,
        }
    }
}

/// `true` when `path` opens with the `eirsbt` tag of the binary trace
/// magic, whatever its version: a binary trace rather than the text
/// format. An unsupported version is then refused by
/// [`BinaryTraceReader::open`]'s magic check instead of being parsed as
/// text. Only reads 6 bytes.
pub fn sniff_binary(path: &Path) -> Result<bool, TraceError> {
    let tag = &BINARY_TRACE_MAGIC[..6];
    let mut probe = [0u8; 6];
    let mut file = File::open(path).map_err(io_err)?;
    match file.read(&mut probe) {
        Ok(n) => Ok(n == tag.len() && probe == tag),
        Err(e) => Err(io_err(e)),
    }
}

/// Opens `path` as an [`ArrivalSource`], sniffing the format: binary
/// traces ([`sniff_binary`]) stream through a [`BinaryTraceReader`]
/// (bounded memory); anything else parses as the text [`ArrivalTrace`]
/// format (in-memory). A trace of either format with no arrivals is
/// refused ([`TraceError::Empty`]). This is the loader behind
/// `trace:<path>` workload specs.
pub fn open_trace_source(path: &Path) -> Result<Box<dyn ArrivalSource>, TraceError> {
    let empty = || TraceError::Empty(path.display().to_string());
    if sniff_binary(path)? {
        let reader = BinaryTraceReader::open(path)?;
        if reader.is_empty() {
            return Err(empty());
        }
        Ok(Box::new(reader))
    } else {
        let trace = ArrivalTrace::load(path)?;
        if trace.is_empty() {
            return Err(empty());
        }
        Ok(Box::new(trace.into_stream()))
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

    /// Bytes of the magic, and of one arrival record.
    const MAGIC_BYTES: usize = 8;
    const RECORD_BYTES: usize = 4 + record::ARRIVAL_LEN + 8;

    /// Replaces arrival record `index` of `raw` with one sealed around
    /// `aux` and `payload` with a valid checksum, so that the bad value
    /// reaches the trace's own checks.
    fn reseal(raw: &mut Vec<u8>, index: usize, aux: u8, payload: &[u8]) {
        let at = MAGIC_BYTES + index * RECORD_BYTES;
        let mut sealed = Vec::new();
        record::encode(&mut sealed, ARRIVAL, aux, |p| p.extend_from_slice(payload));
        raw.splice(at..at + RECORD_BYTES, sealed);
    }

    /// The payload of arrival record `index` of `raw`.
    fn payload_of(raw: &[u8], index: usize) -> Vec<u8> {
        let at = MAGIC_BYTES + index * RECORD_BYTES + 4;
        raw[at..at + record::ARRIVAL_LEN].to_vec()
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

    /// Every arrival a reader replays.
    fn replay(mut r: BinaryTraceReader) -> Vec<Arrival> {
        std::iter::from_fn(|| r.next_arrival()).collect()
    }

    #[test]
    fn small_buffers_open_and_replay_alike_and_meet_every_damage() {
        let trace = sample_trace(30, 4);
        let path = tmp("edges.bt");
        save_binary(&trace, &path).unwrap();
        let raw = std::fs::read(&path).unwrap();
        // Capacities below one record, about one record, and several.
        let caps = [7, 37, 500];
        for cap in caps {
            let r = BinaryTraceReader::open_buffered(&path, cap).unwrap();
            assert_eq!(r.len(), 30);
            assert_eq!(replay(r), trace.arrivals(), "{cap}-byte buffer");
        }
        // Cut and flipped at every byte: each buffer refuses the file
        // with the error the full-size buffer reports.
        for at in 0..raw.len() {
            let mut flipped = raw.clone();
            flipped[at] ^= 1 << (at % 8);
            for bad in [&raw[..at], &flipped[..]] {
                std::fs::write(&path, bad).unwrap();
                let err = BinaryTraceReader::open(&path).unwrap_err();
                for cap in caps {
                    let got = BinaryTraceReader::open_buffered(&path, cap).unwrap_err();
                    assert_eq!(got, err, "byte {at}, {cap}-byte buffer");
                }
            }
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
        assert_eq!(
            err,
            TraceError::Line(11, RecordError::Truncated.to_string())
        );
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
        drop(w); // no finish(): no end record
        let err = BinaryTraceReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("no end record"), "{err}");
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
    fn eirsbt01_traces_are_refused_by_magic() {
        let path = tmp("v1.bt");
        let mut raw = b"eirsbt01".to_vec();
        raw.extend(1u64.to_le_bytes());
        raw.extend(0.5f64.to_le_bytes());
        raw.extend(1.0f64.to_le_bytes());
        raw.extend([1, 0, 0, 0, 0, 0, 0, 0]);
        std::fs::write(&path, &raw).unwrap();
        for err in [
            BinaryTraceReader::open(&path).unwrap_err(),
            open_trace_source(&path).err().unwrap(),
        ] {
            assert!(err.to_string().contains("bad magic \"eirsbt01\""), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_class_byte_is_rejected_at_open() {
        let trace = sample_trace(4, 9);
        let path = tmp("class.bt");
        save_binary(&trace, &path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let payload = payload_of(&raw, 2);
        reseal(&mut raw, 2, 9, &payload);
        std::fs::write(&path, &raw).unwrap();
        let err = BinaryTraceReader::open(&path).unwrap_err();
        assert!(
            matches!(&err, TraceError::Line(3, m) if m.contains("class tag 9")),
            "{err}"
        );
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
        let mut payload = payload_of(&raw, 2);
        payload[16..].copy_from_slice(&0.0f64.to_le_bytes());
        reseal(&mut raw, 2, 1, &payload);
        std::fs::write(&path, &raw).unwrap();
        let err = BinaryTraceReader::open(&path).unwrap_err();
        assert!(
            matches!(&err, TraceError::Line(3, m) if m.contains("size 0")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resealed_index_order_and_count_are_checked_at_open() {
        let trace = sample_trace(4, 9);
        let path = tmp("reseal.bt");
        save_binary(&trace, &path).unwrap();
        let raw = std::fs::read(&path).unwrap();
        // Record 3 re-sealed with record 2's index, then with a time
        // before record 2's.
        let mut dup = raw.clone();
        reseal(&mut dup, 2, 1, &payload_of(&raw, 1));
        let mut early = raw.clone();
        let mut payload = payload_of(&raw, 2);
        payload[8..16].copy_from_slice(&0.0f64.to_le_bytes());
        reseal(&mut early, 2, 1, &payload);
        // The end record re-sealed with one arrival too many.
        let mut count = raw.clone();
        let end = raw.len() - 20;
        count.truncate(end);
        record::encode(&mut count, END, 0, |p| p.extend(5u64.to_le_bytes()));
        for (bad, needle) in [
            (dup, "record carries index 1"),
            (early, "out-of-order arrival at t=0"),
            (count, "end record counts 5 arrivals, the trace holds 4"),
        ] {
            std::fs::write(&path, &bad).unwrap();
            let err = BinaryTraceReader::open(&path).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
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
