//! Property tests for the `ec serve` wire framing.
//!
//! Two obligations, mirroring `ec-store`'s `wal_props.rs`:
//!
//! 1. `encode` → `decode` (and the full `write_frame` → `read_frame`
//!    envelope) is the identity on every frame type;
//! 2. corrupt input — truncation, single-bit flips, oversized length
//!    prefixes, wrong preamble version, unknown tags, trailing bytes —
//!    always lands in a typed [`WireError`], never a panic, never a
//!    silent misparse.

use ec_events::Value;
use ec_runtime::serve::wire::{
    self, FlowState, Frame, Role, WireAlarm, WireError, MAX_FRAME, WIRE_MAGIC, WIRE_VERSION,
};
use proptest::prelude::*;
use std::io::{Cursor, Read};

/// An arbitrary `Value` covering every variant, from three raw draws.
/// Floats stay NaN-free so `Frame: PartialEq` compares cleanly; the
/// byte fixture covers the NaN bit pattern separately.
fn value_from(tag: u8, num: i64, frac: f64) -> Value {
    match tag % 6 {
        0 => Value::Unit,
        1 => Value::Bool(num % 2 == 0),
        2 => Value::Int(num),
        3 => Value::Float(frac),
        4 => Value::text(format!("s{num}")),
        _ => Value::vector(vec![frac, -frac, num as f64]),
    }
}

/// An arbitrary frame covering every tag, from raw draws. `kind`
/// selects the variant; the rest parameterize its fields.
fn frame_from(kind: u8, seq: u64, idx: u32, text: &str, cells: &[(u8, i64, f64)]) -> Frame {
    match kind % 20 {
        0 => Frame::Hello {
            token: format!("t-{text}"),
            tenant: text.to_string(),
            role: if seq.is_multiple_of(2) {
                Role::Producer
            } else {
                Role::Subscriber
            },
        },
        1 => Frame::HelloOk {
            tenant: text.to_string(),
            sources: cells
                .iter()
                .map(|&(t, n, _)| format!("src-{t}-{n}"))
                .collect(),
        },
        2 => Frame::Error {
            reason: text.to_string(),
        },
        3 => Frame::PushBatch {
            seq,
            source: idx,
            bins: cells
                .iter()
                .map(|&(t, n, f)| (t < 192).then(|| value_from(t, n, f)))
                .collect(),
        },
        4 => Frame::PushAck { seq, accepted: idx },
        5 => Frame::Seal,
        6 => Frame::SealOk { phases: seq },
        7 => Frame::FlowControl {
            source: idx,
            state: if seq.is_multiple_of(2) {
                FlowState::Open
            } else {
                FlowState::Block
            },
        },
        8 => Frame::SubscribeAlarms,
        9 => Frame::AlarmBatch {
            alarms: cells
                .iter()
                .map(|&(t, n, f)| WireAlarm {
                    phase: n.unsigned_abs(),
                    sink: format!("sink{t}").into(),
                    value: value_from(t, n, f),
                })
                .collect(),
        },
        10 => Frame::MetricsRequest,
        11 => Frame::MetricsReply {
            json: format!("{{\"name\":\"{text}\",\"seq\":{seq}}}"),
        },
        12 => Frame::Shutdown,
        13 => Frame::ShutdownOk,
        14 => Frame::SubscribeOk,
        15 => Frame::Ping { nonce: seq },
        16 => Frame::Pong { nonce: seq },
        17 => Frame::HelloResume {
            token: format!("t-{text}"),
            tenant: text.to_string(),
            session: format!("sess-{seq}"),
        },
        18 => Frame::Goodbye {
            reason: text.to_string(),
        },
        _ => Frame::Abort {
            reason: text.to_string(),
        },
    }
}

/// A reader that hands out bytes in a scripted sequence of chunk
/// sizes (0 ⇒ a `WouldBlock` tick), then unbounded reads — models a
/// socket dribbling bytes under read timeouts.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunks.get(self.next).copied().unwrap_or(usize::MAX);
        self.next += 1;
        if n == 0 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let take = n.min(buf.len()).min(self.data.len() - self.pos);
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `FrameReader` reassembles a frame stream identically no matter
    /// how the transport chunks it — byte dribbles, giant reads, and
    /// interleaved timeout ticks included.
    #[test]
    fn frame_reader_survives_arbitrary_chunking(
        kinds in proptest::collection::vec((0u8..=255, 0u64..1000, 0u32..1000), 1..8),
        chunks in proptest::collection::vec(0usize..64, 0..64),
    ) {
        let frames: Vec<Frame> = kinds
            .iter()
            .map(|&(k, s, i)| frame_from(k, s, i, "chunk", &[]))
            .collect();
        let mut data = Vec::new();
        for f in &frames {
            wire::write_frame(&mut data, f).expect("frame writes");
        }
        let mut reader = Chunked { data, pos: 0, chunks, next: 0 };
        let mut fr = wire::FrameReader::new();
        let mut got = Vec::new();
        while got.len() < frames.len() {
            match fr.read_from(&mut reader) {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) => {} // timeout tick: reader keeps its partial bytes
                Err(e) => prop_assert!(false, "chunked stream broke framing: {e}"),
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert!(!fr.mid_frame(), "leftover partial frame after full stream");
    }

    /// Every frame type round-trips exactly through the payload codec
    /// and through the full length+CRC envelope.
    #[test]
    fn frames_round_trip(
        kind in 0u8..=255,
        seq in 0u64..u64::MAX,
        idx in 0u32..u32::MAX,
        text_n in 0u32..10_000,
        cells in proptest::collection::vec((0u8..=255, -1000i64..1000, -1e6f64..1e6), 0..24),
    ) {
        let frame = frame_from(kind, seq, idx, &format!("name{text_n}"), &cells);

        let payload = wire::encode(&frame);
        let decoded = wire::decode(&payload);
        prop_assert_eq!(decoded.expect("payload decodes"), frame.clone());

        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &frame).expect("frame writes");
        let read = wire::read_frame(&mut Cursor::new(&buf));
        prop_assert_eq!(read.expect("frame reads"), frame);
    }

    /// A strict prefix of a valid payload never decodes: truncation is
    /// a typed error, not a shorter frame.
    #[test]
    fn truncated_payloads_error(
        kind in 0u8..=255,
        seq in 0u64..1000,
        idx in 0u32..1000,
        cells in proptest::collection::vec((0u8..=255, -50i64..50, -10.0f64..10.0), 0..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = frame_from(kind, seq, idx, "trunc", &cells);
        let payload = wire::encode(&frame);
        let cut = ((payload.len() as f64) * cut_frac) as usize;
        if cut >= payload.len() {
            continue;
        }
        let result = wire::decode(&payload[..cut]);
        prop_assert!(
            result.is_err(),
            "truncated payload decoded as {:?}",
            result.unwrap()
        );
    }

    /// Flipping any single bit of a framed message — length prefix,
    /// payload, or checksum — is caught. CRC32 detects all single-bit
    /// payload errors, and the length/tag validations cover the rest.
    #[test]
    fn bit_flips_are_detected(
        kind in 0u8..=255,
        seq in 0u64..1000,
        idx in 0u32..1000,
        cells in proptest::collection::vec((0u8..=255, -50i64..50, -10.0f64..10.0), 0..12),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let frame = frame_from(kind, seq, idx, "flip", &cells);
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &frame).expect("frame writes");
        let pos = ((buf.len() as f64) * flip_frac) as usize % buf.len();
        buf[pos] ^= 1 << bit;
        let result = wire::read_frame(&mut Cursor::new(&buf));
        prop_assert!(
            result.is_err(),
            "bit {bit} at byte {pos} flipped undetected: {:?}",
            result.unwrap()
        );
    }

    /// Trailing bytes after a well-formed body are rejected: a frame is
    /// exactly its body.
    #[test]
    fn trailing_bytes_error(
        kind in 0u8..=255,
        seq in 0u64..1000,
        idx in 0u32..1000,
        extra in 1usize..8,
    ) {
        let frame = frame_from(kind, seq, idx, "trail", &[]);
        let mut payload = wire::encode(&frame);
        payload.extend(std::iter::repeat_n(0u8, extra));
        let result = wire::decode(&payload);
        prop_assert!(matches!(result, Err(WireError::Malformed(_))), "{result:?}");
    }

    /// A length prefix beyond `MAX_FRAME` is refused before any
    /// allocation, whatever bytes follow.
    #[test]
    fn oversized_lengths_are_refused(
        excess in 1u32..1_000_000,
        junk in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let len = MAX_FRAME + excess;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend(&junk);
        let result = wire::read_frame(&mut Cursor::new(&buf));
        prop_assert!(
            matches!(result, Err(WireError::Oversized(n)) if n == len),
            "{result:?}"
        );
    }

    /// Unknown frame tags are a typed error even when the CRC envelope
    /// is intact.
    #[test]
    fn unknown_tags_are_refused(tag in 21u8..=255, body in proptest::collection::vec(0u8..=255, 0..32)) {
        let mut payload = vec![tag];
        payload.extend(&body);
        let result = wire::decode(&payload);
        prop_assert!(
            matches!(result, Err(WireError::UnknownFrame(t)) if t == tag),
            "{result:?}"
        );
    }

    /// Arbitrary garbage never panics the decoder — the fuzz floor.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = wire::decode(&bytes);
        let _ = wire::read_frame(&mut Cursor::new(&bytes));
        let _ = wire::read_preamble(&mut Cursor::new(&bytes));
    }

    /// A preamble with the right magic but any version other than
    /// `WIRE_VERSION` — every neighbour, older peers included, plus
    /// draws from the whole u32 range — is refused as version skew, not
    /// corruption.
    #[test]
    fn wrong_versions_are_refused(far in 0u32..u32::MAX) {
        for version in (0..=WIRE_VERSION + 1).chain([far, u32::MAX]) {
            if version == WIRE_VERSION {
                continue;
            }
            let mut buf = WIRE_MAGIC.to_le_bytes().to_vec();
            buf.extend(version.to_le_bytes());
            let result = wire::read_preamble(&mut Cursor::new(&buf));
            prop_assert!(
                matches!(result, Err(WireError::Version(v)) if v == version),
                "{result:?}"
            );
        }
    }

    /// A preamble with the wrong magic is refused before the version is
    /// even read — a stray HTTP client never reaches frame parsing.
    #[test]
    fn wrong_magic_is_refused(magic in 0u32..u32::MAX) {
        if magic == WIRE_MAGIC {
            continue;
        }
        let mut buf = magic.to_le_bytes().to_vec();
        buf.extend(WIRE_VERSION.to_le_bytes());
        let result = wire::read_preamble(&mut Cursor::new(&buf));
        prop_assert!(
            matches!(result, Err(WireError::BadMagic(m)) if m == magic),
            "{result:?}"
        );
    }

    /// A corrupt element count cannot trigger a giant allocation: counts
    /// larger than the payload are rejected up front.
    #[test]
    fn giant_counts_are_refused(count in 1_000u32..u32::MAX) {
        // A PushBatch header claiming `count` bins in a tiny payload.
        let mut payload = vec![4u8]; // TAG_PUSH_BATCH
        payload.extend(0u64.to_le_bytes());
        payload.extend(0u32.to_le_bytes());
        payload.extend(count.to_le_bytes());
        let result = wire::decode(&payload);
        prop_assert!(matches!(result, Err(WireError::Malformed(_))), "{result:?}");
    }
}
