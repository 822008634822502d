//! The `eirsnp01` wire protocol: checksummed binary frames over a byte
//! stream.
//!
//! A connection opens with an 8-byte magic handshake ([`MAGIC`]): the
//! client sends it, the server echoes it back. Every subsequent message
//! is one frame — a record of the workspace's one record codec,
//! [`eirs_sim::record`]: type, aux byte, little-endian `u16` length,
//! payload, and a SplitMix64 checksum over all of them. This module
//! fixes the frame types, their payload length caps, and the payload
//! layouts; the codec does the framing, so decoding is **strict**: an
//! unknown type, a length outside the type's cap, a payload that does
//! not parse, or a checksum mismatch is a hard [`ProtocolError`] — the
//! connection is torn down rather than resynchronized, so a corrupt
//! stream can never silently truncate into a shorter valid one. Clean
//! EOF is only legal *between* frames ([`read_frame`] returns `Ok(None)`
//! there); EOF inside a frame is [`ProtocolError::Truncated`].

use eirs_sim::record::{self, Caps, Fields};
use eirs_sim::{Arrival, JobClass};
use std::io::{Read, Write};

/// Why a byte stream failed to decode: the record codec's error. Every
/// variant is terminal — the reader must close the connection, never
/// skip bytes and resume.
pub use eirs_sim::record::RecordError as ProtocolError;

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

/// Payload length caps, indexed by frame type − 1.
const CAPS: &Caps = &[
    (record::ARRIVAL_LEN, record::ARRIVAL_LEN),
    (48, 48),
    (0, MAX_PAYLOAD),
    (0, MAX_PAYLOAD),
    (0, MAX_PAYLOAD),
    (0, 0),
];

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

/// Sends the handshake magic.
pub fn write_magic<W: Write>(w: &mut W) -> Result<(), ProtocolError> {
    w.write_all(&MAGIC)?;
    w.flush()?;
    Ok(())
}

/// Reads and verifies the handshake magic.
pub fn read_magic<R: Read>(r: &mut R) -> Result<(), ProtocolError> {
    record::read_magic(r, &MAGIC)
}

/// Serializes `frame` into wire bytes (header, payload, checksum).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_frame_into(&mut out, frame);
    out
}

/// Appends the wire bytes of `frame` to `out`, so a writer batching many
/// frames into one buffer allocates nothing per frame.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    let text = |out: &mut Vec<u8>, ty: u8, text: &str| {
        record::encode(out, ty, 0, |p| p.extend_from_slice(text.as_bytes()));
    };
    match frame {
        Frame::Arrival {
            req_id,
            class,
            time,
            size,
        } => {
            let arrival = Arrival {
                time: *time,
                class: *class,
                size: *size,
            };
            record::encode_arrival(out, frame_type::ARRIVAL, *req_id, &arrival);
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
        } => record::encode(out, frame_type::DECISION, u8::from(*admitted), |p| {
            p.extend(req_id.to_le_bytes());
            p.extend(seq.to_le_bytes());
            for v in [shard, i, j, generation] {
                p.extend(v.to_le_bytes());
            }
            p.extend(alloc_inelastic.to_le_bytes());
            p.extend(alloc_elastic.to_le_bytes());
        }),
        Frame::Control(t) => text(out, frame_type::CONTROL, t),
        Frame::ControlOk(t) => text(out, frame_type::CONTROL_OK, t),
        Frame::Error(t) => text(out, frame_type::ERROR, t),
        Frame::Bye => record::encode(out, frame_type::BYE, 0, |_| {}),
    }
}

/// Writes one frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtocolError> {
    w.write_all(&encode_frame(frame))?;
    w.flush()?;
    Ok(())
}

fn not_nan(field: &str, v: f64) -> Result<f64, ProtocolError> {
    if v.is_nan() {
        return Err(ProtocolError::BadPayload(format!("{field} is NaN")));
    }
    Ok(v)
}

/// Decodes a validated `(type, aux, payload)` triple into a [`Frame`].
fn decode_payload(ty: u8, aux: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
    let mut f = Fields::new(payload);
    match ty {
        frame_type::ARRIVAL => {
            let (req_id, a) = record::decode_arrival(aux, payload)?;
            Ok(Frame::Arrival {
                req_id,
                class: a.class,
                time: a.time,
                size: a.size,
            })
        }
        frame_type::DECISION => Ok(Frame::Decision {
            req_id: f.u64()?,
            seq: f.u64()?,
            shard: f.u32()?,
            i: f.u32()?,
            j: f.u32()?,
            generation: f.u32()?,
            alloc_inelastic: not_nan("inelastic allocation", f.f64()?)?,
            alloc_elastic: not_nan("elastic allocation", f.f64()?)?,
            admitted: aux & 1 == 1,
        }),
        frame_type::CONTROL => Ok(Frame::Control(f.rest_str()?.to_owned())),
        frame_type::CONTROL_OK => Ok(Frame::ControlOk(f.rest_str()?.to_owned())),
        frame_type::ERROR => Ok(Frame::Error(f.rest_str()?.to_owned())),
        frame_type::BYE => Ok(Frame::Bye),
        other => Err(ProtocolError::BadType(other)),
    }
}

/// Reads one frame. `Ok(None)` is a clean EOF **at a frame boundary**;
/// any EOF inside a frame is [`ProtocolError::Truncated`], and any
/// validation failure is terminal — the caller must close the
/// connection rather than resynchronize. Allocates a payload buffer per
/// frame: a reader of many frames keeps one for [`read_frame_with`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, ProtocolError> {
    read_frame_with(r, &mut Vec::new())
}

/// [`read_frame`] with the caller's payload buffer, which it clears and
/// refills, so a reader that keeps one buffer allocates nothing per
/// frame (text frames still allocate their `String`).
pub fn read_frame_with<R: Read>(
    r: &mut R,
    payload: &mut Vec<u8>,
) -> Result<Option<Frame>, ProtocolError> {
    match record::read(r, CAPS, payload)? {
        Some((ty, aux)) => decode_payload(ty, aux, payload).map(Some),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_sim::record::checksum;

    fn round_trip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let mut cursor = &bytes[..];
        let got = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(got, frame);
        assert!(cursor.is_empty(), "decoder must consume the whole frame");
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        let frames = [
            Frame::Arrival {
                req_id: 42,
                class: JobClass::Elastic,
                time: 1.25,
                size: 3.5,
            },
            Frame::Decision {
                req_id: 42,
                seq: 7,
                shard: 3,
                i: 2,
                j: 5,
                generation: 1,
                alloc_inelastic: 2.0,
                alloc_elastic: 1.5,
                admitted: true,
            },
            Frame::Control("swap threshold:3".into()),
            Frame::ControlOk("generation 1".into()),
            Frame::Error("boom".into()),
            Frame::Bye,
        ];
        for frame in &frames {
            round_trip(frame.clone());
        }
        // Back to back through one payload buffer, a shorter payload
        // after a longer one included.
        let mut wire = Vec::new();
        for frame in &frames {
            encode_frame_into(&mut wire, frame);
        }
        let mut cursor = &wire[..];
        let mut payload = Vec::new();
        for frame in frames {
            let got = read_frame_with(&mut cursor, &mut payload).unwrap();
            assert_eq!(got, Some(frame));
        }
        assert_eq!(read_frame_with(&mut cursor, &mut payload).unwrap(), None);
    }

    /// One frame of every type, pinned to the bytes `eirsnp01` has put on
    /// the wire since the protocol shipped: moving the framing into the
    /// shared record codec must not change a single byte.
    #[test]
    fn encode_frame_matches_the_golden_wire_bytes() {
        let golden = [
            (
                Frame::Arrival {
                    req_id: 42,
                    class: JobClass::Elastic,
                    time: 1.25,
                    size: 3.5,
                },
                "010118002a00000000000000000000000000f43f0000000000000c402abb4dfc8d8b98fd",
            ),
            (
                Frame::Decision {
                    req_id: 42,
                    seq: 7,
                    shard: 3,
                    i: 2,
                    j: 5,
                    generation: 1,
                    alloc_inelastic: 2.0,
                    alloc_elastic: 1.5,
                    admitted: true,
                },
                "020130002a00000000000000070000000000000003000000020000000500000001000000\
                 0000000000000040000000000000f83fae910dc2b2293dcf",
            ),
            (
                Frame::Control("swap threshold:3".into()),
                "0300100073776170207468726573686f6c643a33bde099390533d2c1",
            ),
            (
                Frame::ControlOk("generation 1".into()),
                "04000c0067656e65726174696f6e203184da84d77eb88d4e",
            ),
            (
                Frame::Error("boom".into()),
                "05000400626f6f6d9cc3fde3afc7ae26",
            ),
            (Frame::Bye, "0600000000e0efadd9a564bd"),
        ];
        for (frame, hex) in golden {
            let bytes: String = encode_frame(&frame)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(bytes, hex, "{frame:?}");
        }
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
        raw.extend_from_slice(&checksum(99, 0, &[]).to_le_bytes());
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
            raw.extend_from_slice(&checksum(frame_type::ARRIVAL, 0, &p).to_le_bytes());
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
