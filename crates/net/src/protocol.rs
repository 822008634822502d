//! The `eirsnp01` wire protocol: length-prefixed, checksummed binary
//! frames over a byte stream.
//!
//! A connection opens with an 8-byte magic handshake ([`MAGIC`]): the
//! client sends it, the server echoes it back. Every subsequent message
//! is one frame:
//!
//! ```text
//! ┌──────┬──────┬──────────┬───────────────┬──────────────┐
//! │ type │ aux  │ len (LE) │    payload    │ checksum(LE) │
//! │ 1 B  │ 1 B  │   2 B    │   len bytes   │     8 B      │
//! └──────┴──────┴──────────┴───────────────┴──────────────┘
//! ```
//!
//! The checksum is a SplitMix64 fold over the header and payload
//! ([`frame_checksum`]). Decoding is **strict**: an unknown type, a
//! length outside the type's cap, a payload that does not parse, or a
//! checksum mismatch is a hard [`ProtocolError`] — the connection is
//! torn down rather than resynchronized, so a corrupt stream can never
//! silently truncate into a shorter valid one. Clean EOF is only legal
//! *between* frames ([`read_frame`] returns `Ok(None)` there); EOF
//! inside a frame is [`ProtocolError::Truncated`].

use eirs_sim::JobClass;
use std::io::{Read, Write};

/// Handshake magic: protocol name and version on the wire. Bump the
/// trailing digits on any incompatible frame-format change.
pub const MAGIC: [u8; 8] = *b"eirsnp01";

/// Frame type tags on the wire.
pub mod frame_type {
    /// Client → server: one job arrival awaiting an allocation decision.
    pub const ARRIVAL: u8 = 1;
    /// Server → client: the decision for one arrival.
    pub const DECISION: u8 = 2;
    /// Client → server: a control command (UTF-8 text).
    pub const CONTROL: u8 = 3;
    /// Server → client: a control command was accepted.
    pub const CONTROL_OK: u8 = 4;
    /// Either direction: terminal error description; sender closes.
    pub const ERROR: u8 = 5;
    /// Client → server: no more frames follow. Server echoes it back
    /// once every outstanding decision has been written.
    pub const BYE: u8 = 6;
}

/// Hard cap on any payload length; per-type caps are tighter.
pub const MAX_PAYLOAD: usize = 4096;

const ARRIVAL_LEN: usize = 24;
const DECISION_LEN: usize = 48;

/// SplitMix64 finalizer (the same mix the serving engine digests with).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Frame checksum: a SplitMix64 fold over the 4 header bytes followed
/// by the payload in 8-byte little-endian chunks (last chunk
/// zero-padded). Cheap, order-sensitive, and independent of framing
/// state — flipping any bit anywhere in the frame changes it.
pub fn frame_checksum(ty: u8, aux: u8, payload: &[u8]) -> u64 {
    let header = (ty as u64) | ((aux as u64) << 8) | ((payload.len() as u64) << 16);
    let mut h = mix64(header);
    for chunk in payload.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(buf));
    }
    h
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// One job arrival: the client's request id (echoed back in the
    /// decision), the job class, the arrival's stream time, and its
    /// size.
    Arrival {
        /// Client-chosen id correlating the decision with the request.
        req_id: u64,
        /// Job class (carried in the frame's aux byte: 0 = inelastic,
        /// 1 = elastic).
        class: JobClass,
        /// Arrival time on the client's workload clock.
        time: f64,
        /// Job size (inherent work).
        size: f64,
    },
    /// The allocation decision for one arrival.
    Decision {
        /// The request id from the matching [`Frame::Arrival`].
        req_id: u64,
        /// Global arrival sequence number the server assigned
        /// (`u64::MAX` when the arrival was shed at the ingest queue
        /// and never entered the stream).
        seq: u64,
        /// Route shard that served the arrival (`u32::MAX` on an
        /// ingest-queue shed).
        shard: u32,
        /// Shard inelastic occupancy after the arrival.
        i: u32,
        /// Shard elastic occupancy after the arrival.
        j: u32,
        /// Policy generation that decided the arrival.
        generation: u32,
        /// Inelastic allocation served at `(i, j)`.
        alloc_inelastic: f64,
        /// Elastic allocation served at `(i, j)`.
        alloc_elastic: f64,
        /// Whether the arrival was admitted (aux bit 0). `false` means
        /// shed — either at the full ingest queue or by the engine's
        /// degraded-mode admission control.
        admitted: bool,
    },
    /// A control command, e.g. `swap threshold:3`.
    Control(String),
    /// Acknowledgment text for an accepted control command.
    ControlOk(String),
    /// Terminal error description.
    Error(String),
    /// End of stream marker.
    Bye,
}

/// Why a byte stream failed to decode. Every variant is terminal: the
/// reader must close the connection, never skip bytes and resume.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The 8-byte handshake did not match [`MAGIC`].
    BadMagic([u8; 8]),
    /// Unknown frame type tag.
    BadType(u8),
    /// Payload length outside the cap for this frame type.
    BadLength {
        /// The offending frame type.
        ty: u8,
        /// The declared payload length.
        len: usize,
    },
    /// Checksum mismatch: the frame was corrupted in flight.
    BadChecksum {
        /// Checksum computed over the received bytes.
        computed: u64,
        /// Checksum carried by the frame.
        received: u64,
    },
    /// The payload did not decode (bad UTF-8, non-finite float, bad
    /// class tag, ...).
    BadPayload(String),
    /// The stream ended inside a frame (or inside the handshake).
    Truncated,
    /// An I/O error from the underlying stream.
    Io(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(got) => write!(f, "bad handshake magic {got:?}"),
            Self::BadType(ty) => write!(f, "unknown frame type {ty}"),
            Self::BadLength { ty, len } => {
                write!(f, "frame type {ty} declares illegal payload length {len}")
            }
            Self::BadChecksum { computed, received } => write!(
                f,
                "frame checksum mismatch: computed {computed:#x}, received {received:#x}"
            ),
            Self::BadPayload(why) => write!(f, "bad frame payload: {why}"),
            Self::Truncated => write!(f, "stream truncated mid-frame"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Self::Truncated
        } else {
            Self::Io(e.to_string())
        }
    }
}

/// Sends the handshake magic.
pub fn write_magic<W: Write>(w: &mut W) -> Result<(), ProtocolError> {
    w.write_all(&MAGIC)?;
    w.flush()?;
    Ok(())
}

/// Reads and verifies the handshake magic.
pub fn read_magic<R: Read>(r: &mut R) -> Result<(), ProtocolError> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)?;
    if got != MAGIC {
        return Err(ProtocolError::BadMagic(got));
    }
    Ok(())
}

/// Serializes `frame` into wire bytes (header, payload, checksum).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let (ty, aux, payload) = match frame {
        Frame::Arrival {
            req_id,
            class,
            time,
            size,
        } => {
            let mut p = Vec::with_capacity(ARRIVAL_LEN);
            p.extend_from_slice(&req_id.to_le_bytes());
            p.extend_from_slice(&time.to_le_bytes());
            p.extend_from_slice(&size.to_le_bytes());
            let aux = match class {
                JobClass::Inelastic => 0,
                JobClass::Elastic => 1,
            };
            (frame_type::ARRIVAL, aux, p)
        }
        Frame::Decision {
            req_id,
            seq,
            shard,
            i,
            j,
            generation,
            alloc_inelastic,
            alloc_elastic,
            admitted,
        } => {
            let mut p = Vec::with_capacity(DECISION_LEN);
            p.extend_from_slice(&req_id.to_le_bytes());
            p.extend_from_slice(&seq.to_le_bytes());
            p.extend_from_slice(&shard.to_le_bytes());
            p.extend_from_slice(&i.to_le_bytes());
            p.extend_from_slice(&j.to_le_bytes());
            p.extend_from_slice(&generation.to_le_bytes());
            p.extend_from_slice(&alloc_inelastic.to_le_bytes());
            p.extend_from_slice(&alloc_elastic.to_le_bytes());
            (frame_type::DECISION, u8::from(*admitted), p)
        }
        Frame::Control(text) => (frame_type::CONTROL, 0, text.as_bytes().to_vec()),
        Frame::ControlOk(text) => (frame_type::CONTROL_OK, 0, text.as_bytes().to_vec()),
        Frame::Error(text) => (frame_type::ERROR, 0, text.as_bytes().to_vec()),
        Frame::Bye => (frame_type::BYE, 0, Vec::new()),
    };
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut out = Vec::with_capacity(4 + payload.len() + 8);
    out.push(ty);
    out.push(aux);
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&frame_checksum(ty, aux, &payload).to_le_bytes());
    out
}

/// Writes one frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtocolError> {
    w.write_all(&encode_frame(frame))?;
    w.flush()?;
    Ok(())
}

/// Legal payload length range for a frame type (`None`: unknown type).
fn length_cap(ty: u8) -> Option<(usize, usize)> {
    match ty {
        frame_type::ARRIVAL => Some((ARRIVAL_LEN, ARRIVAL_LEN)),
        frame_type::DECISION => Some((DECISION_LEN, DECISION_LEN)),
        frame_type::CONTROL | frame_type::CONTROL_OK | frame_type::ERROR => Some((0, MAX_PAYLOAD)),
        frame_type::BYE => Some((0, 0)),
        _ => None,
    }
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4-byte slice"))
}

fn le_f64(field: &str, b: &[u8]) -> Result<f64, ProtocolError> {
    let v = f64::from_le_bytes(b.try_into().expect("8-byte slice"));
    if v.is_nan() {
        return Err(ProtocolError::BadPayload(format!("{field} is NaN")));
    }
    Ok(v)
}

fn utf8(payload: &[u8]) -> Result<String, ProtocolError> {
    String::from_utf8(payload.to_vec())
        .map_err(|_| ProtocolError::BadPayload("text payload is not UTF-8".into()))
}

/// Decodes a validated `(type, aux, payload)` triple into a [`Frame`].
fn decode_payload(ty: u8, aux: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
    match ty {
        frame_type::ARRIVAL => {
            let class = match aux {
                0 => JobClass::Inelastic,
                1 => JobClass::Elastic,
                other => {
                    return Err(ProtocolError::BadPayload(format!(
                        "unknown job class tag {other}"
                    )))
                }
            };
            let time = le_f64("arrival time", &payload[8..16])?;
            let size = le_f64("arrival size", &payload[16..24])?;
            if !time.is_finite() || !size.is_finite() || size <= 0.0 {
                return Err(ProtocolError::BadPayload(format!(
                    "arrival (time {time}, size {size}) is not a finite positive-size job"
                )));
            }
            Ok(Frame::Arrival {
                req_id: le_u64(&payload[0..8]),
                class,
                time,
                size,
            })
        }
        frame_type::DECISION => Ok(Frame::Decision {
            req_id: le_u64(&payload[0..8]),
            seq: le_u64(&payload[8..16]),
            shard: le_u32(&payload[16..20]),
            i: le_u32(&payload[20..24]),
            j: le_u32(&payload[24..28]),
            generation: le_u32(&payload[28..32]),
            alloc_inelastic: le_f64("inelastic allocation", &payload[32..40])?,
            alloc_elastic: le_f64("elastic allocation", &payload[40..48])?,
            admitted: aux & 1 == 1,
        }),
        frame_type::CONTROL => Ok(Frame::Control(utf8(payload)?)),
        frame_type::CONTROL_OK => Ok(Frame::ControlOk(utf8(payload)?)),
        frame_type::ERROR => Ok(Frame::Error(utf8(payload)?)),
        frame_type::BYE => Ok(Frame::Bye),
        other => Err(ProtocolError::BadType(other)),
    }
}

/// Reads one frame. `Ok(None)` is a clean EOF **at a frame boundary**;
/// any EOF inside a frame is [`ProtocolError::Truncated`], and any
/// validation failure is terminal — the caller must close the
/// connection rather than resynchronize.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, ProtocolError> {
    let mut header = [0u8; 4];
    // Distinguish clean EOF (zero bytes before a frame) from truncation.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let (ty, aux) = (header[0], header[1]);
    let len = u16::from_le_bytes([header[2], header[3]]) as usize;
    let (min, max) = length_cap(ty).ok_or(ProtocolError::BadType(ty))?;
    if len < min || len > max {
        return Err(ProtocolError::BadLength { ty, len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    let received = u64::from_le_bytes(sum);
    let computed = frame_checksum(ty, aux, &payload);
    if computed != received {
        return Err(ProtocolError::BadChecksum { computed, received });
    }
    // A payload failing semantic validation is terminal too.
    decode_payload(ty, aux, &payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let mut cursor = &bytes[..];
        let got = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(got, frame);
        assert!(cursor.is_empty(), "decoder must consume the whole frame");
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        round_trip(Frame::Arrival {
            req_id: 42,
            class: JobClass::Elastic,
            time: 1.25,
            size: 3.5,
        });
        round_trip(Frame::Decision {
            req_id: 42,
            seq: 7,
            shard: 3,
            i: 2,
            j: 5,
            generation: 1,
            alloc_inelastic: 2.0,
            alloc_elastic: 1.5,
            admitted: true,
        });
        round_trip(Frame::Control("swap threshold:3".into()));
        round_trip(Frame::ControlOk("generation 1".into()));
        round_trip(Frame::Error("boom".into()));
        round_trip(Frame::Bye);
    }

    #[test]
    fn corrupt_bytes_are_hard_errors_not_resyncs() {
        let good = encode_frame(&Frame::Control("swap if".into()));
        // Flip every single byte in turn: every corruption must be
        // caught (type, length, checksum, or payload validation), and
        // none may decode to a *different* valid frame.
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            let mut cursor = &bad[..];
            match read_frame(&mut cursor) {
                Err(_) => {}
                Ok(decoded) => panic!("byte {pos} corruption decoded as {decoded:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_distinguished_from_clean_eof() {
        let good = encode_frame(&Frame::Arrival {
            req_id: 1,
            class: JobClass::Inelastic,
            time: 0.0,
            size: 1.0,
        });
        // Clean EOF at the boundary.
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
        // EOF anywhere inside the frame is truncation.
        for cut in 1..good.len() {
            let mut cursor = &good[..cut];
            assert_eq!(
                read_frame(&mut cursor),
                Err(ProtocolError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_and_malformed_declarations_are_rejected() {
        // Unknown type.
        let mut raw = vec![99u8, 0, 0, 0];
        raw.extend_from_slice(&frame_checksum(99, 0, &[]).to_le_bytes());
        assert_eq!(
            read_frame(&mut &raw[..]),
            Err(ProtocolError::BadType(99)),
            "unknown type tag"
        );
        // BYE with a payload.
        let raw = [frame_type::BYE, 0, 1, 0, 0xAB];
        assert!(matches!(
            read_frame(&mut &raw[..]),
            Err(ProtocolError::BadLength { .. })
        ));
        // Arrival with a short payload declaration.
        let raw = [frame_type::ARRIVAL, 0, 8, 0];
        assert!(matches!(
            read_frame(&mut &raw[..]),
            Err(ProtocolError::BadLength { .. })
        ));
        // Control declaring more than the cap.
        let raw = [frame_type::CONTROL, 0, 0xFF, 0xFF];
        assert!(matches!(
            read_frame(&mut &raw[..]),
            Err(ProtocolError::BadLength { len: 0xFFFF, .. })
        ));
    }

    #[test]
    fn semantic_validation_rejects_hostile_arrivals() {
        for (time, size) in [
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (0.0, 0.0),
            (0.0, -1.0),
        ] {
            let mut p = Vec::new();
            p.extend_from_slice(&1u64.to_le_bytes());
            p.extend_from_slice(&time.to_le_bytes());
            p.extend_from_slice(&size.to_le_bytes());
            let mut raw = vec![frame_type::ARRIVAL, 0, p.len() as u8, 0];
            raw.extend_from_slice(&p);
            raw.extend_from_slice(&frame_checksum(frame_type::ARRIVAL, 0, &p).to_le_bytes());
            assert!(
                matches!(read_frame(&mut &raw[..]), Err(ProtocolError::BadPayload(_))),
                "time {time} size {size} must be rejected"
            );
        }
    }

    #[test]
    fn handshake_round_trips_and_rejects_imposters() {
        let mut buf = Vec::new();
        write_magic(&mut buf).unwrap();
        read_magic(&mut &buf[..]).unwrap();
        assert!(matches!(
            read_magic(&mut &b"eirsnp99"[..]),
            Err(ProtocolError::BadMagic(_))
        ));
        assert_eq!(read_magic(&mut &b"eir"[..]), Err(ProtocolError::Truncated));
    }
}
