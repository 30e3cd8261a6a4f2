//! The `ec serve` wire format: length-prefixed, CRC-framed binary
//! frames over TCP.
//!
//! The framing discipline is the WAL's (`ec-store`): every frame is
//!
//! ```text
//! [u32 payload_len (LE)] [payload bytes] [u32 crc32(payload) (LE)]
//! ```
//!
//! and the payload is a one-byte frame tag followed by a body encoded
//! with the same [`StateWriter`]/[`StateReader`] codec the snapshot
//! and WAL layers use — fixed-width LE scalars, length-prefixed
//! strings, tagged [`Value`]s, and the phase-column bin encoding
//! ([`StateWriter::put_bin`]) for producer batches, so a `PushBatch`
//! body is literally a miniature [`PhaseColumn`](ec_events::PhaseColumn)
//! slice.
//!
//! Each connection opens with an 8-byte preamble — magic
//! [`WIRE_MAGIC`] then [`WIRE_VERSION`], both u32 LE, sent by each
//! side — so a stray HTTP client or an old peer is refused before any
//! frame is parsed.
//!
//! Every decode path returns a typed [`WireError`]; corrupt input
//! (truncation, bit flips, oversized lengths, unknown tags, trailing
//! bytes) must never panic and never misparse. `tests/wire_props.rs`
//! holds the property suite and the pinned `wire_v1.bin` byte fixture.

use ec_events::{SnapshotError, StateReader, StateWriter, Value};
use std::io::{Read, Write};
use std::sync::Arc;

/// Connection preamble magic: `"ECWP"` as a little-endian u32.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"ECWP");

/// Protocol version spoken by this build. Version 2 added the liveness
/// and resume frames (`Ping`/`Pong`/`HelloResume`/`Goodbye`) without
/// changing any version-1 encoding, so version-1 peers are still
/// accepted ([`MIN_WIRE_VERSION`]) — they just never receive the new
/// frames. Bumping past a peer's version invalidates its fixture on
/// purpose: the old format must keep decoding or the bump must be
/// deliberate.
pub const WIRE_VERSION: u32 = 2;

/// Oldest peer version still accepted. Every frame tag that existed at
/// this version encodes identically today — `wire_v1.bin` pins that.
pub const MIN_WIRE_VERSION: u32 = 1;

/// Hard ceiling on a single frame's payload, applied on both encode
/// and decode. A corrupt length prefix must not convince the peer to
/// allocate gigabytes.
pub const MAX_FRAME: u32 = 1 << 20;

/// What a connection authenticates as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Pushes event batches into the tenant's live sources.
    Producer,
    /// Streams retired-phase alarms out of the tenant.
    Subscriber,
}

/// Producer-facing backpressure state of one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// The source accepts pushes again.
    Open,
    /// The source's striped buffer is full: stop sending until an
    /// `Open` arrives. The server keeps the pending event and retries
    /// it, so nothing acknowledged is ever dropped.
    Block,
}

/// One retired-phase sink emission, as streamed to subscribers.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAlarm {
    /// 1-based phase the sink emitted in (serial order).
    pub phase: u64,
    /// Sink vertex name. Shared: a sink's every alarm (and every
    /// subscriber's copy of it) points at one allocation.
    pub sink: Arc<str>,
    /// The emitted value.
    pub value: Value,
}

/// Every frame of the protocol.
///
/// | tag | frame | direction | body |
/// |-----|-------|-----------|------|
/// | 1 | `Hello` | client → server | token, tenant, role |
/// | 2 | `HelloOk` | server → client | tenant, source names |
/// | 3 | `Error` | server → client | reason (then close) |
/// | 4 | `PushBatch` | producer → server | seq, source index, bins |
/// | 5 | `PushAck` | server → producer | seq, events accepted |
/// | 6 | `Seal` | producer → server | — |
/// | 7 | `SealOk` | server → producer | phases committed |
/// | 8 | `FlowControl` | server → producer | source index, state |
/// | 9 | `SubscribeAlarms` | subscriber → server | — |
/// | 10 | `AlarmBatch` | server → subscriber | alarms in serial order |
/// | 15 | `SubscribeOk` | server → subscriber | — |
/// | 11 | `MetricsRequest` | client → server | — |
/// | 12 | `MetricsReply` | server → client | tenant metrics JSON |
/// | 13 | `Shutdown` | client → server | — |
/// | 14 | `ShutdownOk` | server → client | — |
/// | 16 | `Ping` | either | nonce (v2+) |
/// | 17 | `Pong` | either | echoed nonce (v2+) |
/// | 18 | `HelloResume` | client → server | token, tenant, session id (v2+) |
/// | 19 | `Goodbye` | either | reason, then clean close (v2+) |
/// | 20 | `Abort` | server → client | reason, then close; retry safe (v2+) |
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Authenticate this connection to one tenant.
    Hello {
        /// Shared secret; must match the server's token (empty when
        /// the server runs open).
        token: String,
        /// Tenant (session) name to attach to.
        tenant: String,
        /// Producer or subscriber.
        role: Role,
    },
    /// Hello accepted: the tenant's live sources in wiring order.
    /// `PushBatch.source` indexes this list.
    HelloOk {
        /// Echoed tenant name.
        tenant: String,
        /// Live source names in wiring order.
        sources: Vec<String>,
    },
    /// The request was refused or the connection is being dropped;
    /// `reason` is the diagnostic. The server closes after sending.
    Error {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// A batch of events for one source, in FIFO order. Bins use the
    /// phase-column encoding; `None` bins are allowed and skipped
    /// (they let a replayed column ship unmodified).
    PushBatch {
        /// Producer-assigned sequence number, echoed in the ack.
        seq: u64,
        /// Index into the `HelloOk` source list.
        source: u32,
        /// The events (phase-column bin encoding).
        bins: Vec<Option<Value>>,
    },
    /// Batch `seq` is fully buffered server-side: `accepted` events
    /// entered the source's striped buffer (acknowledged pushes
    /// survive a subsequent producer disconnect).
    PushAck {
        /// Echoed sequence number.
        seq: u64,
        /// Events accepted from the batch.
        accepted: u32,
    },
    /// Seal the tenant's current epoch (same commit point as
    /// [`StreamRuntime::flush`](crate::StreamRuntime::flush)).
    Seal,
    /// Seal done: `phases` phases committed by this seal.
    SealOk {
        /// Phases committed (0 if nothing was buffered).
        phases: u64,
    },
    /// Explicit backpressure for one source — sent instead of letting
    /// the TCP window stall silently.
    FlowControl {
        /// Index into the `HelloOk` source list.
        source: u32,
        /// Block or open.
        state: FlowState,
    },
    /// Start streaming retired-phase alarms on this connection.
    SubscribeAlarms,
    /// Subscription registered: every alarm retired from here on will
    /// be delivered (or the subscriber disconnected). Sent before the
    /// first `AlarmBatch` so a subscriber can sequence itself against
    /// producers without racing registration.
    SubscribeOk,
    /// Retired sink emissions, in serial (phase, vertex) order.
    AlarmBatch {
        /// The emissions.
        alarms: Vec<WireAlarm>,
    },
    /// Ask for the tenant's metrics row.
    MetricsRequest,
    /// The tenant's `SessionMetrics` as JSON.
    MetricsReply {
        /// JSON document (same shape as `SessionMetrics::to_json`).
        json: String,
    },
    /// Ask the whole server to shut down cleanly.
    Shutdown,
    /// Shutdown acknowledged; the server stops accepting and closes.
    ShutdownOk,
    /// Liveness probe (v2+). Either side may send one at any time; the
    /// peer answers with a [`Pong`](Frame::Pong) echoing the nonce. The
    /// server pings idle and flow-blocked producers so a half-open peer
    /// is detected by deadline instead of wedging forever.
    Ping {
        /// Opaque probe id, echoed back in the `Pong`.
        nonce: u64,
    },
    /// Answer to a [`Ping`](Frame::Ping) (v2+).
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
    /// Authenticate a producer connection to a resumable session
    /// (v2+). The server keeps a bounded per-(session, source) window
    /// of recently acked batch sequence numbers: a reconnecting client
    /// that replays its unacked suffix under the same session id gets
    /// already-applied batches re-acked instead of re-applied, so
    /// every acked event commits exactly once — which also makes
    /// multiple concurrent connections per source safe.
    HelloResume {
        /// Shared secret, as in [`Hello`](Frame::Hello).
        token: String,
        /// Tenant (session) name to attach to.
        tenant: String,
        /// Client-chosen session id; batch dedup is keyed by it.
        session: String,
    },
    /// Clean close (v2+). A client sends it before hanging up so the
    /// server can tell a deliberate close from a crashed peer; the
    /// server sends it to connections it is draining. No reply — the
    /// stream ends here.
    Goodbye {
        /// Why the sender is going away.
        reason: String,
    },
    /// Connection-level failure (v2+): the server can no longer trust
    /// this stream (corrupt framing, liveness deadline missed) and is
    /// closing it, but nothing was *refused* — a client with a
    /// resumable session should redial and replay. Contrast with
    /// [`Error`](Frame::Error), which is a terminal application
    /// refusal (bad token, unknown tenant, outside the resume window)
    /// that a retry would only repeat.
    Abort {
        /// Why the connection is being dropped.
        reason: String,
    },
}

/// Typed decode/transport failure. Corrupt bytes land here — never in
/// a panic.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes EOF mid-frame).
    Io(std::io::Error),
    /// The preamble's magic was not [`WIRE_MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    Version(u32),
    /// Frame payload checksum mismatch.
    Crc {
        /// CRC the frame carried.
        expected: u32,
        /// CRC of the bytes received.
        found: u32,
    },
    /// A length prefix larger than [`MAX_FRAME`].
    Oversized(u32),
    /// An unknown frame tag.
    UnknownFrame(u8),
    /// The payload failed to decode (truncated body, bad value tag,
    /// trailing bytes).
    Malformed(String),
    /// The peer refused the request (carries the `Error` frame's
    /// reason).
    Refused(String),
    /// The peer sent a well-formed frame that is invalid in the
    /// current protocol state.
    Unexpected(&'static str),
    /// The peer ended the stream deliberately with a
    /// [`Goodbye`](Frame::Goodbye) (carries its reason) — a clean
    /// close, not a failure.
    Closed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::BadMagic(m) => write!(f, "bad wire magic {m:#010x}"),
            WireError::Version(v) => {
                write!(f, "unsupported wire version {v} (speaking {WIRE_VERSION})")
            }
            WireError::Crc { expected, found } => {
                write!(
                    f,
                    "frame crc mismatch: carried {expected:#010x}, computed {found:#010x}"
                )
            }
            WireError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte ceiling")
            }
            WireError::UnknownFrame(t) => write!(f, "unknown frame tag {t}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Refused(r) => write!(f, "refused by peer: {r}"),
            WireError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
            WireError::Closed(reason) => write!(f, "peer said goodbye: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<SnapshotError> for WireError {
    fn from(e: SnapshotError) -> WireError {
        WireError::Malformed(e.to_string())
    }
}

impl WireError {
    /// True when the failure is a closed/broken connection rather than
    /// corrupt data — the "peer went away" case handlers treat as a
    /// normal disconnect.
    pub fn is_disconnect(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
            )
        )
    }

    /// True when the failure is a read/write deadline expiring rather
    /// than corrupt data or a dead socket — the idle tick the liveness
    /// layer acts on.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_OK: u8 = 2;
const TAG_ERROR: u8 = 3;
const TAG_PUSH_BATCH: u8 = 4;
const TAG_PUSH_ACK: u8 = 5;
const TAG_SEAL: u8 = 6;
const TAG_SEAL_OK: u8 = 7;
const TAG_FLOW_CONTROL: u8 = 8;
const TAG_SUBSCRIBE: u8 = 9;
const TAG_ALARM_BATCH: u8 = 10;
const TAG_METRICS_REQ: u8 = 11;
const TAG_METRICS_REPLY: u8 = 12;
const TAG_SHUTDOWN: u8 = 13;
const TAG_SHUTDOWN_OK: u8 = 14;
const TAG_SUBSCRIBE_OK: u8 = 15;
const TAG_PING: u8 = 16;
const TAG_PONG: u8 = 17;
const TAG_HELLO_RESUME: u8 = 18;
const TAG_GOODBYE: u8 = 19;
const TAG_ABORT: u8 = 20;

/// Encodes one frame's payload (tag + body), without the length/CRC
/// envelope.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut w = StateWriter::new();
    match frame {
        Frame::Hello {
            token,
            tenant,
            role,
        } => {
            w.put_u8(TAG_HELLO);
            w.put_str(token);
            w.put_str(tenant);
            w.put_u8(match role {
                Role::Producer => 0,
                Role::Subscriber => 1,
            });
        }
        Frame::HelloOk { tenant, sources } => {
            w.put_u8(TAG_HELLO_OK);
            w.put_str(tenant);
            w.put_u32(sources.len() as u32);
            for s in sources {
                w.put_str(s);
            }
        }
        Frame::Error { reason } => {
            w.put_u8(TAG_ERROR);
            w.put_str(reason);
        }
        Frame::PushBatch { seq, source, bins } => {
            w.put_u8(TAG_PUSH_BATCH);
            w.put_u64(*seq);
            w.put_u32(*source);
            w.put_u32(bins.len() as u32);
            for bin in bins {
                w.put_bin(bin.as_ref());
            }
        }
        Frame::PushAck { seq, accepted } => {
            w.put_u8(TAG_PUSH_ACK);
            w.put_u64(*seq);
            w.put_u32(*accepted);
        }
        Frame::Seal => w.put_u8(TAG_SEAL),
        Frame::SealOk { phases } => {
            w.put_u8(TAG_SEAL_OK);
            w.put_u64(*phases);
        }
        Frame::FlowControl { source, state } => {
            w.put_u8(TAG_FLOW_CONTROL);
            w.put_u32(*source);
            w.put_u8(match state {
                FlowState::Open => 0,
                FlowState::Block => 1,
            });
        }
        Frame::SubscribeAlarms => w.put_u8(TAG_SUBSCRIBE),
        Frame::SubscribeOk => w.put_u8(TAG_SUBSCRIBE_OK),
        Frame::AlarmBatch { alarms } => return encode_alarm_batch(&[alarms]),
        Frame::MetricsRequest => w.put_u8(TAG_METRICS_REQ),
        Frame::MetricsReply { json } => {
            w.put_u8(TAG_METRICS_REPLY);
            w.put_str(json);
        }
        Frame::Shutdown => w.put_u8(TAG_SHUTDOWN),
        Frame::ShutdownOk => w.put_u8(TAG_SHUTDOWN_OK),
        Frame::Ping { nonce } => {
            w.put_u8(TAG_PING);
            w.put_u64(*nonce);
        }
        Frame::Pong { nonce } => {
            w.put_u8(TAG_PONG);
            w.put_u64(*nonce);
        }
        Frame::HelloResume {
            token,
            tenant,
            session,
        } => {
            w.put_u8(TAG_HELLO_RESUME);
            w.put_str(token);
            w.put_str(tenant);
            w.put_str(session);
        }
        Frame::Goodbye { reason } => {
            w.put_u8(TAG_GOODBYE);
            w.put_str(reason);
        }
        Frame::Abort { reason } => {
            w.put_u8(TAG_ABORT);
            w.put_str(reason);
        }
    }
    w.into_bytes()
}

/// Encodes an [`AlarmBatch`](Frame::AlarmBatch) payload whose alarms
/// are the concatenation of `parts` — what the server's subscriber
/// writer holds (runs of shared delivery batches), encoded without
/// first copying them into an owned frame.
pub fn encode_alarm_batch(parts: &[&[WireAlarm]]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u8(TAG_ALARM_BATCH);
    w.put_u32(parts.iter().map(|p| p.len()).sum::<usize>() as u32);
    for a in parts.iter().copied().flatten() {
        w.put_u64(a.phase);
        w.put_str(&a.sink);
        w.put_value(&a.value);
    }
    w.into_bytes()
}

/// Decodes one frame payload (as produced by [`encode`]). Trailing
/// bytes are an error: a frame is exactly its body, nothing more.
pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = StateReader::new(payload);
    let tag = r.get_u8()?;
    let frame = match tag {
        TAG_HELLO => {
            let token = r.get_str()?;
            let tenant = r.get_str()?;
            let role = match r.get_u8()? {
                0 => Role::Producer,
                1 => Role::Subscriber,
                other => {
                    return Err(WireError::Malformed(format!("unknown role tag {other}")));
                }
            };
            Frame::Hello {
                token,
                tenant,
                role,
            }
        }
        TAG_HELLO_OK => {
            let tenant = r.get_str()?;
            let n = checked_count(r.get_u32()?, payload.len())?;
            let mut sources = Vec::with_capacity(n);
            for _ in 0..n {
                sources.push(r.get_str()?);
            }
            Frame::HelloOk { tenant, sources }
        }
        TAG_ERROR => Frame::Error {
            reason: r.get_str()?,
        },
        TAG_PUSH_BATCH => {
            let seq = r.get_u64()?;
            let source = r.get_u32()?;
            let n = checked_count(r.get_u32()?, payload.len())?;
            let mut bins = Vec::with_capacity(n);
            for _ in 0..n {
                bins.push(r.get_opt_value()?);
            }
            Frame::PushBatch { seq, source, bins }
        }
        TAG_PUSH_ACK => Frame::PushAck {
            seq: r.get_u64()?,
            accepted: r.get_u32()?,
        },
        TAG_SEAL => Frame::Seal,
        TAG_SEAL_OK => Frame::SealOk {
            phases: r.get_u64()?,
        },
        TAG_FLOW_CONTROL => {
            let source = r.get_u32()?;
            let state = match r.get_u8()? {
                0 => FlowState::Open,
                1 => FlowState::Block,
                other => {
                    return Err(WireError::Malformed(format!("unknown flow state {other}")));
                }
            };
            Frame::FlowControl { source, state }
        }
        TAG_SUBSCRIBE => Frame::SubscribeAlarms,
        TAG_SUBSCRIBE_OK => Frame::SubscribeOk,
        TAG_ALARM_BATCH => {
            let n = checked_count(r.get_u32()?, payload.len())?;
            let mut alarms: Vec<WireAlarm> = Vec::with_capacity(n);
            for _ in 0..n {
                let phase = r.get_u64()?;
                let name = r.get_str()?;
                // Runs of one sink share its name.
                let sink = match alarms.last() {
                    Some(prev) if *prev.sink == *name => Arc::clone(&prev.sink),
                    _ => Arc::from(name),
                };
                alarms.push(WireAlarm {
                    phase,
                    sink,
                    value: r.get_value()?,
                });
            }
            Frame::AlarmBatch { alarms }
        }
        TAG_METRICS_REQ => Frame::MetricsRequest,
        TAG_METRICS_REPLY => Frame::MetricsReply { json: r.get_str()? },
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_SHUTDOWN_OK => Frame::ShutdownOk,
        TAG_PING => Frame::Ping {
            nonce: r.get_u64()?,
        },
        TAG_PONG => Frame::Pong {
            nonce: r.get_u64()?,
        },
        TAG_HELLO_RESUME => Frame::HelloResume {
            token: r.get_str()?,
            tenant: r.get_str()?,
            session: r.get_str()?,
        },
        TAG_GOODBYE => Frame::Goodbye {
            reason: r.get_str()?,
        },
        TAG_ABORT => Frame::Abort {
            reason: r.get_str()?,
        },
        other => return Err(WireError::UnknownFrame(other)),
    };
    r.finish()?;
    Ok(frame)
}

/// Rejects element counts that could not possibly fit in the payload —
/// a flipped count byte must not trigger a giant allocation before the
/// per-element reads fail.
fn checked_count(n: u32, payload_len: usize) -> Result<usize, WireError> {
    // Every encoded element costs at least one byte.
    if n as usize > payload_len {
        return Err(WireError::Malformed(format!(
            "element count {n} exceeds payload size {payload_len}"
        )));
    }
    Ok(n as usize)
}

/// Writes the 8-byte connection preamble (magic + [`WIRE_VERSION`]) as
/// a single write, so an injected duplication or tear operates on the
/// whole preamble rather than splitting the magic from the version.
pub fn write_preamble(w: &mut impl Write) -> Result<(), WireError> {
    write_preamble_version(w, WIRE_VERSION)
}

/// Writes a preamble claiming a specific (still-supported) `version` —
/// how the byte-pinned v1 fixture stays writable after a bump.
pub fn write_preamble_version(w: &mut impl Write, version: u32) -> Result<(), WireError> {
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::Version(version));
    }
    let mut buf = [0u8; 8];
    buf[..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    buf[4..].copy_from_slice(&version.to_le_bytes());
    w.write_all(&buf)?;
    Ok(())
}

/// Reads and validates the peer's preamble; returns the version the
/// peer speaks (any of [`MIN_WIRE_VERSION`]..=[`WIRE_VERSION`]). The
/// caller must not send frames newer than that version.
pub fn read_preamble(r: &mut impl Read) -> Result<u32, WireError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    let magic = u32::from_le_bytes(buf);
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    r.read_exact(&mut buf)?;
    let version = u32::from_le_bytes(buf);
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::Version(version));
    }
    Ok(version)
}

/// Writes one frame (length + payload + CRC) and flushes. The whole
/// envelope goes down in a single write, so a transport that tears or
/// duplicates a write operates on frame boundaries — a duplicated
/// frame is two decodable copies, a torn one is a discarded prefix.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    write_payload(w, &encode(frame))
}

/// [`write_frame`] for an already encoded payload.
pub fn write_payload(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(WireError::Oversized(payload.len() as u32));
    }
    let mut buf = Vec::with_capacity(payload.len() + 8);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&ec_store::crc32(payload).to_le_bytes());
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// An incremental frame reader that survives read deadlines.
///
/// A bare [`read_frame`] over a socket with a read timeout desyncs the
/// stream: a timeout firing after `read_exact` consumed half a length
/// prefix loses those bytes. `FrameReader` accumulates partial bytes
/// across calls instead — [`read_from`](Self::read_from) returns
/// `Ok(None)` on a deadline tick and resumes exactly where it left
/// off, which is what lets the server run idle deadlines and
/// heartbeats on the same connection it is parsing.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes the current envelope needs in `buf`: 4 until the length
    /// prefix is complete, then `8 + payload_len`.
    want: usize,
}

impl FrameReader {
    /// A reader with no partial state.
    pub fn new() -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            want: 4,
        }
    }

    /// True while bytes of an incomplete frame are pending — a peer
    /// that goes silent here is mid-frame, not idle.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads until one complete frame is available (`Ok(Some)`), the
    /// read deadline expires (`Ok(None)`; partial progress is kept for
    /// the next call), or the stream fails. EOF — even on a frame
    /// boundary — is `WireError::Io(UnexpectedEof)`, the normal
    /// disconnect the caller classifies with
    /// [`WireError::is_disconnect`].
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Option<Frame>, WireError> {
        loop {
            if self.want == 4 && self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
                if len > MAX_FRAME {
                    self.reset();
                    return Err(WireError::Oversized(len));
                }
                self.want = 8 + len as usize;
            }
            if self.want > 4 && self.buf.len() >= self.want {
                let payload_end = self.want - 4;
                let expected =
                    u32::from_le_bytes(self.buf[payload_end..self.want].try_into().unwrap());
                let found = ec_store::crc32(&self.buf[4..payload_end]);
                if expected != found {
                    self.reset();
                    return Err(WireError::Crc { expected, found });
                }
                let frame = decode(&self.buf[4..payload_end]);
                // Keep any bytes of the next frame already buffered.
                self.buf.drain(..self.want);
                self.want = 4;
                match frame {
                    Ok(f) => return Ok(Some(f)),
                    Err(e) => {
                        self.reset();
                        return Err(e);
                    }
                }
            }
            let mut chunk = [0u8; 8192];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(WireError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed",
                    )));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.want = 4;
    }
}

/// Reads one frame, validating length, CRC, and payload.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    let len = u32::from_le_bytes(buf);
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    r.read_exact(&mut buf)?;
    let expected = u32::from_le_bytes(buf);
    let found = ec_store::crc32(&payload);
    if expected != found {
        return Err(WireError::Crc { expected, found });
    }
    decode(&payload)
}
