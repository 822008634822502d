//! The one checksummed record codec behind every binary stream the
//! workspace writes: binary arrival traces ([`crate::trace`]), and in
//! `eirs_serve` and `eirs_net` the `eirsnp01` wire frames, the
//! write-ahead journal and engine snapshots.
//!
//! A stream opens with an 8-byte magic naming its format and version,
//! then carries records:
//!
//! ```text
//! ┌──────┬──────┬──────────┬───────────────┬──────────────┐
//! │ type │ aux  │ len (LE) │    payload    │ checksum(LE) │
//! │ 1 B  │ 1 B  │   2 B    │   len bytes   │     8 B      │
//! └──────┴──────┴──────────┴───────────────┴──────────────┘
//! ```
//!
//! The checksum is a SplitMix64 fold over the header and payload
//! ([`checksum`]). Each format passes its per-type payload length caps
//! to the reader, which checks the declared length against them
//! **before** it allocates or waits for the payload. Decoding is strict:
//! an unknown type, a length outside the type's cap, or a checksum
//! mismatch is a hard [`RecordError`] — a reader stops rather than
//! resynchronizes, so corruption can shorten a stream but never alter a
//! record. Clean EOF is legal only *between* records (the readers return
//! `Ok(None)` there); EOF inside a record is [`RecordError::Truncated`].
//!
//! There is one record check and two byte sources for it. [`verify`]
//! checks the record at the front of a byte slice and hands back its
//! payload in place. [`each`], the reader of every file format, runs it
//! on the reader's own buffer ([`BufRead::fill_buf`]), so a record wholly
//! inside the buffer is checked and decoded where it lies; only a record
//! that straddles the buffer's end goes through [`read`], which copies
//! it out of any [`Read`] — the wire path, where a frame arrives on an
//! unbuffered socket. Files open with a [`BUF_CAPACITY`] (64 KiB) buffer,
//! so a loader holds at most that buffer plus one copied record, however
//! long the file.
//!
//! Payload fields are little-endian; floats travel as their raw IEEE-754
//! bits, so every value round-trips exactly. [`Fields`] reads them back
//! in order.

use crate::arrivals::Arrival;
use crate::job::JobClass;
use std::io::{BufRead, Read};
use std::ops::ControlFlow;

/// Legal `(min, max)` payload length of record type `t` at index
/// `t - 1`; a type past the end of a format's table is unknown.
pub type Caps = [(usize, usize)];

/// Payload bytes of an arrival record (see [`encode_arrival`]).
pub const ARRIVAL_LEN: usize = 24;

/// Bytes a record adds around its payload: the 4-byte header and the
/// 8-byte checksum.
pub const OVERHEAD: usize = 12;

/// Read-buffer capacity of every record file a loader opens: large
/// enough that nearly every record is checked in place, and the whole
/// memory a loader needs besides one copied record and what it decodes.
pub const BUF_CAPACITY: usize = 64 << 10;

/// Why a record stream failed to decode. Every variant is terminal: the
/// reader must stop, never skip bytes and resume.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The 8-byte stream magic did not match the format's.
    BadMagic([u8; 8]),
    /// Unknown record type tag.
    BadType(u8),
    /// Payload length outside the cap for this record type.
    BadLength {
        /// The offending record type.
        ty: u8,
        /// The declared payload length.
        len: usize,
    },
    /// Checksum mismatch: the record was altered after it was written.
    BadChecksum {
        /// Checksum computed over the received bytes.
        computed: u64,
        /// Checksum carried by the record.
        received: u64,
    },
    /// The payload did not decode (bad UTF-8, non-finite float, bad
    /// class tag, short field, ...).
    BadPayload(String),
    /// The stream ended inside a record (or inside the magic).
    Truncated,
    /// An I/O error from the underlying stream.
    Io(String),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(got) => write!(f, "bad magic \"{}\"", got.escape_ascii()),
            Self::BadType(ty) => write!(f, "unknown record type {ty}"),
            Self::BadLength { ty, len } => {
                write!(f, "record type {ty} declares illegal payload length {len}")
            }
            Self::BadChecksum { computed, received } => write!(
                f,
                "record checksum mismatch: computed {computed:#x}, received {received:#x}"
            ),
            Self::BadPayload(why) => write!(f, "bad record payload: {why}"),
            Self::Truncated => write!(f, "stream truncated mid-record"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<std::io::Error> for RecordError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Self::Truncated
        } else {
            Self::Io(e.to_string())
        }
    }
}

/// SplitMix64 finalizer: the hash the record [`checksum`] folds with,
/// and in `eirs_serve` the one behind shard routing, decision digests
/// and table identity hashes.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Record checksum: a SplitMix64 fold over the 4 header bytes followed
/// by the payload in 8-byte little-endian chunks (last chunk
/// zero-padded). Cheap, order-sensitive, and independent of framing
/// state — flipping any bit anywhere in the record changes it.
#[inline]
pub fn checksum(ty: u8, aux: u8, payload: &[u8]) -> u64 {
    let header = (ty as u64) | ((aux as u64) << 8) | ((payload.len() as u64) << 16);
    let mut h = mix64(header);
    let mut chunks = payload.chunks_exact(8);
    for chunk in &mut chunks {
        h = mix64(h ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        h = mix64(h ^ u64::from_le_bytes(buf));
    }
    h
}

/// Appends one record to `out`: `payload` writes the payload bytes,
/// then the length and checksum are filled in.
///
/// # Panics
///
/// If the payload exceeds the `u16` length field — a writer bug: long
/// values must be split across records, never truncated.
pub fn encode(out: &mut Vec<u8>, ty: u8, aux: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend([ty, aux, 0, 0]);
    payload(out);
    let len = u16::try_from(out.len() - start - 4).expect("record payload exceeds the u16 length");
    out[start + 2..start + 4].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(ty, aux, &out[start + 4..]);
    out.extend(sum.to_le_bytes());
}

/// Appends `s` to a payload as a `u16` byte length then its UTF-8 bytes
/// (read back by [`Fields::str`]).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("record string exceeds the u16 length");
    out.extend(len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The aux-byte tag of a job class: 0 = inelastic, 1 = elastic.
pub fn class_tag(class: JobClass) -> u8 {
    match class {
        JobClass::Inelastic => 0,
        JobClass::Elastic => 1,
    }
}

/// Inverse of [`class_tag`].
pub fn class_from_tag(tag: u8) -> Result<JobClass, RecordError> {
    match tag {
        0 => Ok(JobClass::Inelastic),
        1 => Ok(JobClass::Elastic),
        other => Err(RecordError::BadPayload(format!(
            "unknown job class tag {other}"
        ))),
    }
}

/// Appends an arrival record of type `ty`: `id | time | size` (24
/// bytes), class in aux. Wire arrival frames (`id` = request id),
/// journal arrival records (`id` = sequence number) and binary trace
/// records (`id` = record index) share this layout.
pub fn encode_arrival(out: &mut Vec<u8>, ty: u8, id: u64, a: &Arrival) {
    encode(out, ty, class_tag(a.class), |p| {
        p.extend(id.to_le_bytes());
        p.extend(a.time.to_le_bytes());
        p.extend(a.size.to_le_bytes());
    });
}

/// Decodes an [`encode_arrival`] payload, refusing a non-finite time or
/// a non-finite or non-positive size.
pub fn decode_arrival(aux: u8, payload: &[u8]) -> Result<(u64, Arrival), RecordError> {
    let class = class_from_tag(aux)?;
    let mut f = Fields::new(payload);
    let (id, time, size) = (f.u64()?, f.f64()?, f.f64()?);
    if !time.is_finite() || !size.is_finite() || size <= 0.0 {
        return Err(RecordError::BadPayload(format!(
            "arrival (time {time}, size {size}) is not a finite positive-size job"
        )));
    }
    Ok((id, Arrival { time, class, size }))
}

/// Reads and verifies an 8-byte stream magic.
pub fn read_magic<R: Read + ?Sized>(r: &mut R, magic: &[u8; 8]) -> Result<(), RecordError> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)?;
    if &got != magic {
        return Err(RecordError::BadMagic(got));
    }
    Ok(())
}

/// One checked record, borrowed from the bytes it was checked in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record<'a> {
    /// Record type.
    pub ty: u8,
    /// Aux byte.
    pub aux: u8,
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl Record<'_> {
    /// Bytes the record takes in its stream: payload plus [`OVERHEAD`].
    pub fn encoded_len(&self) -> usize {
        OVERHEAD + self.payload.len()
    }
}

/// The header half of the record check: the type must be in `caps` and
/// the length within its cap. Returns the payload length.
#[inline]
fn check_header([ty, _, lo, hi]: [u8; 4], caps: &Caps) -> Result<usize, RecordError> {
    let len = u16::from_le_bytes([lo, hi]) as usize;
    let &(min, max) = caps
        .get((ty as usize).wrapping_sub(1))
        .ok_or(RecordError::BadType(ty))?;
    if len < min || len > max {
        return Err(RecordError::BadLength { ty, len });
    }
    Ok(len)
}

/// The checksum half of the record check.
#[inline]
fn check_sum(ty: u8, aux: u8, payload: &[u8], sum: [u8; 8]) -> Result<(), RecordError> {
    let received = u64::from_le_bytes(sum);
    let computed = checksum(ty, aux, payload);
    if computed != received {
        return Err(RecordError::BadChecksum { computed, received });
    }
    Ok(())
}

/// The record check, over the record at the front of `bytes`: its type
/// and length against `caps`, then its checksum. `Ok(None)` when `bytes`
/// ends before the record does; a bad type or length is reported as soon
/// as the header is there, before the payload is.
#[inline]
pub fn verify<'a>(bytes: &'a [u8], caps: &Caps) -> Result<Option<Record<'a>>, RecordError> {
    let Some((&header, rest)) = bytes.split_first_chunk::<4>() else {
        return Ok(None);
    };
    let len = check_header(header, caps)?;
    let Some((payload, rest)) = rest.split_at_checked(len) else {
        return Ok(None);
    };
    let Some((&sum, _)) = rest.split_first_chunk::<8>() else {
        return Ok(None);
    };
    let [ty, aux, ..] = header;
    check_sum(ty, aux, payload, sum)?;
    Ok(Some(Record { ty, aux, payload }))
}

/// Reads one record into `payload`, returning its `(type, aux)`.
/// `Ok(None)` is a clean EOF **at a record boundary**; any EOF inside a
/// record is [`RecordError::Truncated`], and any validation failure is
/// terminal. The check is [`verify`]'s, run as the bytes arrive.
pub fn read<R: Read + ?Sized>(
    r: &mut R,
    caps: &Caps,
    payload: &mut Vec<u8>,
) -> Result<Option<(u8, u8)>, RecordError> {
    let mut header = [0u8; 4];
    // Distinguish clean EOF (zero bytes before a record) from truncation.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(RecordError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = check_header(header, caps)?;
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    let [ty, aux, ..] = header;
    check_sum(ty, aux, payload, sum)?;
    Ok(Some((ty, aux)))
}

/// Hands the records of `r` to `visit` in order until `visit` breaks
/// (`Ok(Some)` of its value) or the stream ends cleanly at a record
/// boundary (`Ok(None)`). Each record wholly inside `r`'s buffer is
/// checked ([`verify`]) and visited in place there, a buffer at a time;
/// one that straddles the buffer's end is copied into `spill` by
/// [`read`] first. The records visited are consumed from `r`, the one
/// `visit` broke on included. Errors are [`read`]'s, or `visit`'s.
pub fn each<R: BufRead + ?Sized, B>(
    r: &mut R,
    caps: &Caps,
    spill: &mut Vec<u8>,
    mut visit: impl FnMut(Record<'_>) -> Result<ControlFlow<B>, RecordError>,
) -> Result<Option<B>, RecordError> {
    loop {
        // A buffer that fails to fill reads as empty: `read` below meets
        // the failure again and reports it.
        let buffered = r.fill_buf().unwrap_or_default();
        let mut used = 0;
        while let Some(rec) = verify(&buffered[used..], caps)? {
            used += rec.encoded_len();
            if let ControlFlow::Break(value) = visit(rec)? {
                r.consume(used);
                return Ok(Some(value));
            }
        }
        if used > 0 {
            r.consume(used);
            continue;
        }
        let Some((ty, aux)) = read(r, caps, spill)? else {
            return Ok(None);
        };
        let payload = spill.as_slice();
        if let ControlFlow::Break(value) = visit(Record { ty, aux, payload })? {
            return Ok(Some(value));
        }
    }
}

/// Reads little-endian fields from the front of a record payload, in
/// the order the writer appended them.
#[derive(Debug)]
pub struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// A reader positioned at the start of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Self(payload)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], RecordError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or_else(|| RecordError::BadPayload("payload ends mid-field".into()))?;
        self.0 = rest;
        Ok(*head)
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, RecordError> {
        self.take().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, RecordError> {
        self.take().map(u64::from_le_bytes)
    }

    /// The next `f64`, bit-exact.
    pub fn f64(&mut self) -> Result<f64, RecordError> {
        self.take().map(f64::from_le_bytes)
    }

    /// The next [`put_str`] string.
    pub fn str(&mut self) -> Result<&'a str, RecordError> {
        let len = u16::from_le_bytes(self.take()?) as usize;
        if len > self.0.len() {
            return Err(RecordError::BadPayload(
                "string runs past the payload".into(),
            ));
        }
        let (text, rest) = self.0.split_at(len);
        self.0 = rest;
        utf8(text)
    }

    /// The rest of the payload as UTF-8 text.
    pub fn rest_str(self) -> Result<&'a str, RecordError> {
        utf8(self.0)
    }
}

fn utf8(bytes: &[u8]) -> Result<&str, RecordError> {
    std::str::from_utf8(bytes)
        .map_err(|_| RecordError::BadPayload("text payload is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAPS: &Caps = &[(0, 64), (ARRIVAL_LEN, ARRIVAL_LEN)];

    #[test]
    fn records_round_trip_and_reject_every_single_bit_flip() {
        let mut bytes = Vec::new();
        encode(&mut bytes, 1, 7, |p| put_str(p, "hello"));
        let a = Arrival {
            time: 0.1 + 0.2,
            class: JobClass::Elastic,
            size: 1e-300,
        };
        encode_arrival(&mut bytes, 2, 9, &a);
        let mut r = &bytes[..];
        let mut payload = Vec::new();
        assert_eq!(read(&mut r, CAPS, &mut payload).unwrap(), Some((1, 7)));
        assert_eq!(Fields::new(&payload).str().unwrap(), "hello");
        assert_eq!(read(&mut r, CAPS, &mut payload).unwrap(), Some((2, 1)));
        assert_eq!(decode_arrival(1, &payload).unwrap(), (9, a));
        assert_eq!(read(&mut r, CAPS, &mut payload).unwrap(), None);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut r = &bad[..];
            let outcome = (|| -> Result<(), RecordError> {
                while read(&mut r, CAPS, &mut payload)?.is_some() {}
                Ok(())
            })();
            assert!(outcome.is_err(), "bit {bit} flipped undetected");
        }
    }

    /// The `(type, aux, payload)` of every record read, then the error
    /// the reading stopped on, if any.
    type Outcome = Vec<Result<(u8, u8, Vec<u8>), RecordError>>;

    /// Every record `each` visits in `bytes` through a `cap`-byte buffer.
    fn through_each(bytes: &[u8], cap: usize) -> Outcome {
        let mut r = std::io::BufReader::with_capacity(cap, bytes);
        let mut spill = Vec::new();
        let mut out = Vec::new();
        let walked = each(&mut r, CAPS, &mut spill, |rec| {
            out.push(Ok((rec.ty, rec.aux, rec.payload.to_vec())));
            Ok(ControlFlow::<()>::Continue(()))
        });
        if let Err(e) = walked {
            out.push(Err(e));
        }
        out
    }

    /// The same with `each` called once per record, breaking on it.
    fn one_at_a_time(bytes: &[u8], cap: usize) -> Outcome {
        let mut r = std::io::BufReader::with_capacity(cap, bytes);
        let mut spill = Vec::new();
        let mut out = Vec::new();
        loop {
            let rec = each(&mut r, CAPS, &mut spill, |rec| {
                Ok(ControlFlow::Break((rec.ty, rec.aux, rec.payload.to_vec())))
            });
            match rec {
                Ok(Some(rec)) => out.push(Ok(rec)),
                Ok(None) => return out,
                Err(e) => {
                    out.push(Err(e));
                    return out;
                }
            }
        }
    }

    /// The same through `read` on an unbuffered byte source.
    fn through_read(mut bytes: &[u8]) -> Outcome {
        let mut payload = Vec::new();
        let mut out = Vec::new();
        loop {
            match read(&mut bytes, CAPS, &mut payload) {
                Ok(Some((ty, aux))) => out.push(Ok((ty, aux, payload.clone()))),
                Ok(None) => return out,
                Err(e) => {
                    out.push(Err(e));
                    return out;
                }
            }
        }
    }

    #[test]
    fn in_place_and_copied_records_decode_alike_at_every_buffer_edge() {
        let mut bytes = Vec::new();
        encode(&mut bytes, 1, 7, |p| put_str(p, "hello"));
        let a = Arrival {
            time: 2.5,
            class: JobClass::Inelastic,
            size: 0.75,
        };
        encode_arrival(&mut bytes, 2, 3, &a);
        encode(&mut bytes, 1, 0, |p| p.extend(0u8..50));
        encode(&mut bytes, 1, 2, |_| {});
        assert_eq!(through_read(&bytes).len(), 4);
        // Whole, cut at every byte, or with any one bit flipped: at every
        // buffer size, from one byte to more than the stream, `each`
        // yields what `read` does, records and error alike, whether it
        // walks the stream in one call or breaks on every record.
        let mut damaged: Vec<Vec<u8>> =
            (0..=bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            damaged.push(bad);
        }
        for stream in &damaged {
            let expected = through_read(stream);
            for cap in [1, 3, 4, 5, 12, 13, 36, 37, 40, 64, BUF_CAPACITY] {
                assert_eq!(through_each(stream, cap), expected, "{cap}-byte buffer");
                assert_eq!(one_at_a_time(stream, cap), expected, "{cap}-byte buffer");
            }
        }
    }
}
