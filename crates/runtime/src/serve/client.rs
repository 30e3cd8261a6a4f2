//! A blocking client for the `ec serve` wire protocol — the benchmark
//! (`perfbench/`), the `ec push` CLI, the examples, and the test battery
//! all speak through this one implementation.
//!
//! ## Robustness
//!
//! A client built with a [`RetryPolicy`] survives the network: a
//! dropped, reset, or black-holed connection is redialed with bounded
//! exponential backoff + jitter, the session is resumed via
//! [`HelloResume`](Frame::HelloResume), and the in-flight frame is
//! replayed. The server's per-session dedup window re-acks batches
//! that were applied before the link died, so **every acked event
//! commits exactly once** — a retried `push_batch` can never
//! double-apply. Operations carry a deadline
//! ([`WireClientBuilder::op_deadline`]) so a black-holed peer fails
//! fast instead of wedging the caller; server `Ping`s received while
//! waiting are answered and reset the deadline.

use super::net::{real_net, NetConn, NetIo};
use super::wire::{self, FlowState, Frame, Role, WireAlarm, WireError};
use ec_events::Value;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-deadline granularity of a retrying client: how often a blocked
/// read wakes to check its op deadline.
const RETRY_TICK: Duration = Duration::from_millis(50);

/// Bounded exponential backoff with jitter for reconnects.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Dial attempts per reconnect episode (including the first);
    /// default 8.
    pub max_attempts: u32,
    /// First backoff step; attempt `n` waits `base * 2^(n-1)`, capped
    /// (attempt 0 redials immediately). Default 25ms.
    pub base: Duration,
    /// Backoff ceiling; default 1s.
    pub cap: Duration,
    /// Seeds the jitter (0.5×–1.5× of the capped step) and the
    /// auto-generated session id — deterministic for tests.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0x5EED_CAFE,
        }
    }
}

/// splitmix64 step — the same generator `FaultPlan`/`NetFaultPlan`
/// use, good enough for backoff jitter.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn backoff(policy: &RetryPolicy, attempt: u32, rng: &mut u64) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    let exp = policy.base.saturating_mul(1u32 << (attempt - 1).min(16));
    let jitter = 0.5 + (splitmix(rng) % 1024) as f64 / 1024.0;
    exp.min(policy.cap).mul_f64(jitter)
}

/// A process-unique producer session id: pid + counter + timestamp so
/// a restarted process never collides with its predecessor's window.
fn auto_session(seed: u64) -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Relaxed);
    let t = std::time::SystemTime::UNIX_EPOCH
        .elapsed()
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!("sess-{}-{}-{:x}", std::process::id(), n, t ^ seed)
}

fn deadline_error() -> WireError {
    WireError::Io(io::Error::new(
        io::ErrorKind::TimedOut,
        "op deadline exceeded",
    ))
}

/// Connects one socket and completes the handshake. Returns the
/// connection, the server's wire version, and the confirmed tenant +
/// source list.
#[allow(clippy::type_complexity)]
fn dial_once(
    net: &dyn NetIo,
    addr: &str,
    token: &str,
    tenant: &str,
    role: Role,
    session: Option<&str>,
    timeout: Option<Duration>,
) -> Result<(Box<dyn NetConn>, u32, String, Vec<String>), WireError> {
    let mut conn = net.connect(addr)?;
    let _ = conn.set_read_timeout(timeout);
    let _ = conn.set_write_timeout(timeout);
    // One combined write: preamble + hello leave in a single syscall,
    // so an injected mid-write reset tears them as one unit.
    let mut opening = Vec::new();
    wire::write_preamble(&mut opening)?;
    let hello = match session {
        Some(id) => Frame::HelloResume {
            token: token.into(),
            tenant: tenant.into(),
            session: id.into(),
        },
        None => Frame::Hello {
            token: token.into(),
            tenant: tenant.into(),
            role,
        },
    };
    wire::write_frame(&mut opening, &hello)?;
    conn.write_all(&opening).map_err(WireError::Io)?;
    conn.flush().map_err(WireError::Io)?;
    let server_version = wire::read_preamble(&mut conn)?;
    match wire::read_frame(&mut conn)? {
        Frame::HelloOk { tenant, sources } => Ok((conn, server_version, tenant, sources)),
        Frame::Error { reason } => Err(WireError::Refused(reason)),
        Frame::Abort { reason } => Err(abort_error(reason)),
        _ => Err(WireError::Unexpected("expected HelloOk or Error")),
    }
}

/// A server [`Frame::Abort`] as the disconnect it represents: the
/// stream is gone, nothing was refused, retrying with a resumable
/// session is safe. `ConnectionAborted` keeps it inside
/// [`WireError::is_disconnect`], so every retry path treats it like a
/// dropped socket.
fn abort_error(reason: String) -> WireError {
    WireError::Io(std::io::Error::new(
        std::io::ErrorKind::ConnectionAborted,
        format!("server aborted the connection: {reason}"),
    ))
}

/// Configuration for a [`WireClient`].
#[derive(Debug, Clone)]
pub struct WireClientBuilder {
    token: String,
    session: Option<String>,
    retry: Option<RetryPolicy>,
    net: Arc<dyn NetIo>,
    op_deadline: Duration,
}

impl Default for WireClientBuilder {
    fn default() -> WireClientBuilder {
        WireClientBuilder {
            token: String::new(),
            session: None,
            retry: None,
            net: real_net(),
            op_deadline: Duration::from_secs(10),
        }
    }
}

impl WireClientBuilder {
    /// Authentication token sent in the Hello.
    pub fn token(mut self, token: impl Into<String>) -> Self {
        self.token = token.into();
        self
    }

    /// Names the producer session explicitly (otherwise a retrying
    /// producer auto-generates a unique id). Two clients sharing a
    /// session id share one dedup window — safe, by design.
    pub fn session(mut self, id: impl Into<String>) -> Self {
        self.session = Some(id.into());
        self
    }

    /// Enables reconnect-with-resume under this policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Routes the connection through this transport plane (default
    /// [`super::RealNet`]); the chaos matrix injects a
    /// [`super::FaultNet`] here.
    pub fn net(mut self, net: Arc<dyn NetIo>) -> Self {
        self.net = net;
        self
    }

    /// Per-operation deadline when retrying (default 10s): an
    /// operation with no live reply — frames from the server, pings
    /// included, reset it — fails over to a reconnect.
    pub fn op_deadline(mut self, d: Duration) -> Self {
        self.op_deadline = d.max(Duration::from_millis(1));
        self
    }

    /// Connects, exchanges preambles, and authenticates to `tenant` as
    /// `role`. A refusal (bad token, unknown tenant, version skew,
    /// draining) surfaces as [`WireError::Refused`] and is never
    /// retried.
    pub fn connect(
        self,
        addr: impl ToString,
        tenant: &str,
        role: Role,
    ) -> Result<WireClient, WireError> {
        let addr = addr.to_string();
        let session = match (&self.retry, role, self.session) {
            // A retrying producer without a session could double-apply
            // a replayed batch; always give it one.
            (Some(p), Role::Producer, None) => Some(auto_session(p.seed)),
            (_, _, session) => session,
        };
        let mut rng = self.retry.as_ref().map_or(0, |p| p.seed);
        let handshake_timeout = self.retry.as_ref().map(|_| self.op_deadline);
        let mut attempt = 0;
        let (conn, server_version, tenant_ok, sources) = loop {
            match dial_once(
                self.net.as_ref(),
                &addr,
                &self.token,
                tenant,
                role,
                session.as_deref(),
                handshake_timeout,
            ) {
                Ok(dialed) => break dialed,
                Err(e @ (WireError::Refused(_) | WireError::Closed(_))) => return Err(e),
                Err(e) => {
                    let Some(policy) = &self.retry else {
                        return Err(e);
                    };
                    attempt += 1;
                    if attempt >= policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(backoff(policy, attempt, &mut rng));
                }
            }
        };
        let mut client = WireClient {
            net: self.net,
            conn,
            fr: wire::FrameReader::new(),
            addr,
            token: self.token,
            tenant_req: tenant.to_string(),
            role,
            session,
            retry: self.retry,
            op_deadline: self.op_deadline,
            rng,
            server_version,
            tenant: tenant_ok,
            sources,
            next_seq: 0,
            blocks_seen: 0,
            reconnects: 0,
            subscribed: false,
            closed: false,
        };
        client.steady_state_timeouts();
        Ok(client)
    }
}

/// One authenticated wire connection (producer or subscriber).
///
/// The protocol is synchronous per connection: a producer sends a
/// frame and reads until its reply arrives, treating interleaved
/// [`FlowControl`](Frame::FlowControl) frames as backpressure
/// bookkeeping (counted in [`blocks_seen`](Self::blocks_seen)) rather
/// than replies. Wire-level batching
/// ([`push_batch`](Self::push_batch)) amortizes the round trip over
/// many events. Server [`Ping`](Frame::Ping)s are answered
/// transparently inside every read. See the module docs for the
/// reconnect/resume behavior of a client built
/// [`with_retry`](Self::with_retry).
pub struct WireClient {
    net: Arc<dyn NetIo>,
    conn: Box<dyn NetConn>,
    fr: wire::FrameReader,
    addr: String,
    token: String,
    /// Tenant name as requested (redials resend this one).
    tenant_req: String,
    role: Role,
    session: Option<String>,
    retry: Option<RetryPolicy>,
    op_deadline: Duration,
    rng: u64,
    server_version: u32,
    tenant: String,
    sources: Vec<String>,
    next_seq: u64,
    blocks_seen: u64,
    reconnects: u64,
    subscribed: bool,
    closed: bool,
}

impl WireClient {
    /// A fresh configuration.
    pub fn builder() -> WireClientBuilder {
        WireClientBuilder::default()
    }

    /// Connects, exchanges preambles, and authenticates to `tenant` as
    /// `role`. A refusal (bad token, unknown tenant, version skew)
    /// surfaces as [`WireError::Refused`].
    pub fn connect(
        addr: impl ToString,
        token: &str,
        tenant: &str,
        role: Role,
    ) -> Result<WireClient, WireError> {
        WireClient::builder()
            .token(token)
            .connect(addr, tenant, role)
    }

    /// Connects with reconnect-with-resume enabled: dropped links are
    /// redialed under `policy`, the producer session is resumed, and
    /// the in-flight frame replayed — acked events commit exactly
    /// once.
    pub fn with_retry(
        addr: impl ToString,
        token: &str,
        tenant: &str,
        role: Role,
        policy: RetryPolicy,
    ) -> Result<WireClient, WireError> {
        WireClient::builder()
            .token(token)
            .retry(policy)
            .connect(addr, tenant, role)
    }

    /// The tenant this connection serves.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The tenant's live sources in wiring order —
    /// [`push_batch`](Self::push_batch)'s `source` indexes this list.
    pub fn sources(&self) -> &[String] {
        &self.sources
    }

    /// Index of a source by name.
    pub fn source_index(&self, name: &str) -> Option<u32> {
        self.sources
            .iter()
            .position(|s| s == name)
            .map(|i| i as u32)
    }

    /// `FlowControl(Block)` frames observed so far — each one is a
    /// backpressure episode the server surfaced explicitly.
    pub fn blocks_seen(&self) -> u64 {
        self.blocks_seen
    }

    /// The producer session id, if this client carries one.
    pub fn session(&self) -> Option<&str> {
        self.session.as_deref()
    }

    /// Successful reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The server's negotiated wire version.
    pub fn server_version(&self) -> u32 {
        self.server_version
    }

    /// Pushes a batch of events for one source and waits for the ack.
    /// Returns the number of events the server accepted into the
    /// source's striped buffer. With retry enabled, a dropped link is
    /// redialed and the batch replayed; the server's session window
    /// guarantees it is applied exactly once either way.
    pub fn push_batch(&mut self, source: u32, values: &[Value]) -> Result<u32, WireError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bins = values.iter().cloned().map(Some).collect();
        let frame = Frame::PushBatch { seq, source, bins };
        self.send_op(&frame)?;
        loop {
            match self.reply_or_replay(&frame)? {
                Frame::PushAck { seq: got, accepted } => {
                    if got == seq {
                        return Ok(accepted);
                    }
                    if got > seq {
                        return Err(WireError::Unexpected("ack for a future batch"));
                    }
                    // got < seq: a stale ack from a duplicated
                    // delivery of an earlier frame; skip it.
                }
                Frame::FlowControl { state, .. } => {
                    if state == FlowState::Block {
                        self.blocks_seen += 1;
                    }
                }
                Frame::SealOk { .. } => {
                    // Stale seal ack (duplicated delivery); skip.
                }
                Frame::Error { reason } => return Err(WireError::Refused(reason)),
                _ => return Err(WireError::Unexpected("expected PushAck")),
            }
        }
    }

    /// Seals the tenant's current epoch; returns the phases committed.
    pub fn seal(&mut self) -> Result<u64, WireError> {
        let frame = Frame::Seal;
        self.send_op(&frame)?;
        loop {
            match self.reply_or_replay(&frame)? {
                Frame::SealOk { phases } => return Ok(phases),
                Frame::FlowControl { state, .. } => {
                    if state == FlowState::Block {
                        self.blocks_seen += 1;
                    }
                }
                Frame::PushAck { .. } => {
                    // Stale push ack (duplicated delivery); skip.
                }
                Frame::Error { reason } => return Err(WireError::Refused(reason)),
                _ => return Err(WireError::Unexpected("expected SealOk")),
            }
        }
    }

    /// Fetches the tenant's metrics row as JSON.
    pub fn metrics_json(&mut self) -> Result<String, WireError> {
        wire::write_frame(&mut self.conn, &Frame::MetricsRequest)?;
        match self.next_reply()? {
            Frame::MetricsReply { json } => Ok(json),
            Frame::Error { reason } => Err(WireError::Refused(reason)),
            _ => Err(WireError::Unexpected("expected MetricsReply")),
        }
    }

    /// Asks the server to shut down; resolves once acknowledged. Never
    /// retried — redialing a stopping server is pointless.
    pub fn shutdown_server(&mut self) -> Result<(), WireError> {
        wire::write_frame(&mut self.conn, &Frame::Shutdown)?;
        loop {
            match self.next_reply()? {
                Frame::ShutdownOk => {
                    self.closed = true;
                    return Ok(());
                }
                Frame::FlowControl { .. } | Frame::PushAck { .. } => {}
                Frame::Error { reason } => return Err(WireError::Refused(reason)),
                _ => return Err(WireError::Unexpected("expected ShutdownOk")),
            }
        }
    }

    /// Starts the alarm stream on a subscriber connection; follow with
    /// [`next_alarms`](Self::next_alarms). Resolves once the server has
    /// registered the subscription, so any phase retired after this
    /// returns is guaranteed to be delivered (or the connection
    /// dropped) — no registration race against producers.
    pub fn subscribe(&mut self) -> Result<(), WireError> {
        wire::write_frame(&mut self.conn, &Frame::SubscribeAlarms)?;
        match self.next_reply()? {
            Frame::SubscribeOk => {
                self.subscribed = true;
                Ok(())
            }
            Frame::Error { reason } => Err(WireError::Refused(reason)),
            _ => Err(WireError::Unexpected("expected SubscribeOk")),
        }
    }

    /// Blocks for the next batch of retired-phase alarms, in serial
    /// order. A server-side disconnect (e.g. this reader was too slow)
    /// surfaces as [`WireError::Refused`] or a disconnect I/O error; a
    /// drain-complete server says goodbye, surfaced as
    /// [`WireError::Closed`].
    pub fn next_alarms(&mut self) -> Result<Vec<WireAlarm>, WireError> {
        loop {
            let reply = match self.next_reply() {
                Ok(f) => f,
                Err(e) if self.can_retry(&e) => {
                    self.reconnect_and_replay(None)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match reply {
                Frame::AlarmBatch { alarms } => return Ok(alarms),
                Frame::Error { reason } => return Err(WireError::Refused(reason)),
                _ => return Err(WireError::Unexpected("expected AlarmBatch")),
            }
        }
    }

    /// Steady-state socket deadlines: a retrying client ticks its
    /// reads so op deadlines are enforced; a plain client blocks
    /// forever, as before.
    fn steady_state_timeouts(&mut self) {
        if self.retry.is_some() {
            let _ = self
                .conn
                .set_read_timeout(Some(RETRY_TICK.min(self.op_deadline)));
            let _ = self.conn.set_write_timeout(Some(self.op_deadline));
        } else {
            let _ = self.conn.set_read_timeout(None);
            let _ = self.conn.set_write_timeout(None);
        }
    }

    /// Whether an error is worth a reconnect: transport trouble is,
    /// an explicit server refusal or goodbye is not.
    fn can_retry(&self, e: &WireError) -> bool {
        self.retry.is_some() && !matches!(e, WireError::Refused(_) | WireError::Closed(_))
    }

    /// Reads the next application frame, answering `Ping`s and
    /// swallowing `Pong`s transparently. Under retry, enforces the op
    /// deadline — any frame from the server (pings included) resets
    /// it, so a flow-blocked-but-alive server never trips it.
    fn next_reply(&mut self) -> Result<Frame, WireError> {
        let mut last_sign_of_life = Instant::now();
        loop {
            match self.fr.read_from(&mut self.conn) {
                Ok(Some(frame)) => {
                    last_sign_of_life = Instant::now();
                    match frame {
                        Frame::Ping { nonce } => {
                            wire::write_frame(&mut self.conn, &Frame::Pong { nonce })?;
                        }
                        Frame::Pong { .. } => {}
                        Frame::Goodbye { reason } => {
                            self.closed = true;
                            return Err(WireError::Closed(reason));
                        }
                        // The server dropped a stream it could no
                        // longer trust; nothing was refused. Surface
                        // it as the disconnect it is, so a retrying
                        // client redials and resumes.
                        Frame::Abort { reason } => return Err(abort_error(reason)),
                        other => return Ok(other),
                    }
                }
                Ok(None) => {
                    if self.retry.is_some() && last_sign_of_life.elapsed() >= self.op_deadline {
                        return Err(deadline_error());
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes one operation frame, failing over to a reconnect (which
    /// replays nothing — the caller's loop rewrites) when retryable.
    fn send_op(&mut self, frame: &Frame) -> Result<(), WireError> {
        loop {
            match wire::write_frame(&mut self.conn, frame) {
                Ok(()) => return Ok(()),
                Err(e) if self.can_retry(&e) => self.reconnect_and_replay(None)?,
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads the reply to `inflight`, failing over to reconnect +
    /// replay when retryable.
    fn reply_or_replay(&mut self, inflight: &Frame) -> Result<Frame, WireError> {
        loop {
            match self.next_reply() {
                Ok(f) => return Ok(f),
                Err(e) if self.can_retry(&e) => self.reconnect_and_replay(Some(inflight))?,
                Err(e) => return Err(e),
            }
        }
    }

    /// Redials under the retry policy, resumes the session, restores a
    /// subscription if one was active, and replays the in-flight
    /// frame. Refusals and goodbyes abort immediately; transport
    /// errors burn an attempt and back off.
    fn reconnect_and_replay(&mut self, inflight: Option<&Frame>) -> Result<(), WireError> {
        let Some(policy) = self.retry.clone() else {
            return Err(WireError::Unexpected("reconnect without a retry policy"));
        };
        let mut last = deadline_error();
        for attempt in 0..policy.max_attempts.max(1) {
            let wait = backoff(&policy, attempt, &mut self.rng);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let dialed = dial_once(
                self.net.as_ref(),
                &self.addr,
                &self.token,
                &self.tenant_req,
                self.role,
                self.session.as_deref(),
                Some(self.op_deadline),
            );
            let (conn, version, tenant, sources) = match dialed {
                Ok(d) => d,
                Err(e @ (WireError::Refused(_) | WireError::Closed(_))) => return Err(e),
                Err(e) => {
                    last = e;
                    continue;
                }
            };
            self.conn = conn;
            self.fr = wire::FrameReader::new();
            self.server_version = version;
            self.tenant = tenant;
            self.sources = sources;
            self.steady_state_timeouts();
            if self.subscribed {
                if wire::write_frame(&mut self.conn, &Frame::SubscribeAlarms).is_err() {
                    last = deadline_error();
                    continue;
                }
                match self.await_subscribe_ok() {
                    Ok(()) => {}
                    Err(e @ (WireError::Refused(_) | WireError::Closed(_))) => return Err(e),
                    Err(e) => {
                        last = e;
                        continue;
                    }
                }
            }
            if let Some(frame) = inflight {
                if let Err(e) = wire::write_frame(&mut self.conn, frame) {
                    last = e;
                    continue;
                }
            }
            self.reconnects += 1;
            return Ok(());
        }
        Err(last)
    }

    /// Waits for `SubscribeOk` on a fresh connection, answering pings,
    /// bounded by the op deadline.
    fn await_subscribe_ok(&mut self) -> Result<(), WireError> {
        let started = Instant::now();
        loop {
            match self.fr.read_from(&mut self.conn) {
                Ok(Some(Frame::SubscribeOk)) => return Ok(()),
                Ok(Some(Frame::Ping { nonce })) => {
                    wire::write_frame(&mut self.conn, &Frame::Pong { nonce })?;
                }
                Ok(Some(Frame::Pong { .. })) => {}
                Ok(Some(Frame::Error { reason })) => return Err(WireError::Refused(reason)),
                Ok(Some(Frame::Abort { reason })) => return Err(abort_error(reason)),
                Ok(Some(Frame::Goodbye { reason })) => {
                    self.closed = true;
                    return Err(WireError::Closed(reason));
                }
                Ok(Some(_)) => return Err(WireError::Unexpected("expected SubscribeOk")),
                Ok(None) => {
                    if started.elapsed() >= self.op_deadline {
                        return Err(deadline_error());
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for WireClient {
    /// Says goodbye before closing so the server counts a clean close,
    /// not a crash. v1 servers don't know the frame; they just see the
    /// FIN.
    fn drop(&mut self) {
        if !self.closed {
            if self.server_version >= 2 {
                let _ = wire::write_frame(
                    &mut self.conn,
                    &Frame::Goodbye {
                        reason: "client closing".into(),
                    },
                );
            }
            let _ = self.conn.shutdown_both();
        }
    }
}
