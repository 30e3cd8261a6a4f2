//! # `ec serve` — the TCP front end
//!
//! Nothing outside the process could reach the runtime before this
//! module: traffic entered via stdin or in-process callers only. A
//! [`WireServer`] puts a socket in front of a [`SessionPool`]: one
//! long-running listener serving many tenants, speaking the
//! length-prefixed, CRC-framed binary protocol of [`wire`]. Every
//! socket is reached through the injectable [`net`] transport plane
//! ([`NetIo`]) — production uses [`RealNet`], the chaos matrix routes
//! the same server and clients through a seeded [`FaultNet`].
//!
//! ## Connection model
//!
//! Every connection opens with the versioned preamble and a
//! [`Hello`](wire::Frame::Hello) (or, for resumable producers, a
//! [`HelloResume`](wire::Frame::HelloResume)) that authenticates it to
//! one tenant (token + tenant name) as either a **producer** or a
//! **subscriber**:
//!
//! * Producer connections push [`PushBatch`](wire::Frame::PushBatch)
//!   frames — wire-level batching amortizes syscalls — that land on
//!   the tenant's per-source striped ingest buffers in FIFO order.
//!   Each fully-buffered batch is acknowledged with a
//!   [`PushAck`](wire::Frame::PushAck); a producer that disconnects
//!   mid-epoch therefore commits a clean FIFO prefix of its
//!   acknowledged pushes (a torn frame is discarded whole, never
//!   half-applied). When a source's buffer fills under
//!   [`Backpressure::Reject`](crate::Backpressure::Reject) the server
//!   sends an explicit [`FlowControl`](wire::Frame::FlowControl)
//!   `Block` frame — not a silent TCP stall — keeps the pending event,
//!   retries it, and sends `Open` when it lands.
//!   [`Seal`](wire::Frame::Seal) is the remote
//!   [`flush`](crate::StreamRuntime::flush).
//! * Subscriber connections send
//!   [`SubscribeAlarms`](wire::Frame::SubscribeAlarms) once and then
//!   stream [`AlarmBatch`](wire::Frame::AlarmBatch) frames: retired
//!   sink emissions in serial (phase, vertex) order — exactly the
//!   sequential oracle's output order. Each subscriber owns a bounded
//!   buffer fed by the tenant's delivery loop; a reader too slow to
//!   drain it is disconnected (with an [`Error`](wire::Frame::Error)
//!   frame) rather than allowed to wedge retirement. Delivery is
//!   event-driven end to end: the delivery loop publishes each
//!   retirement drain to the tenant's hub as one shared batch, and
//!   the connection's writer thread — blocked on the hub, not on a
//!   timer — writes it at once; a frame holds more than one drain only
//!   when drains arrived while the previous write was in flight. A
//!   second thread per subscriber connection reads the socket
//!   (`Ping`, `Goodbye`, close) under the liveness deadlines below.
//!
//! ## Robustness
//!
//! * **Resumable sessions.** A producer that authenticates with
//!   `HelloResume` names a session id; the server keeps a bounded
//!   per-(session, source) window of recently acked batch sequence
//!   numbers. A reconnecting client replays its unacked suffix and
//!   already-applied batches are re-acked from the window instead of
//!   re-applied — every acked event commits exactly once, and
//!   concurrent connections on one source are safe (same-session
//!   batches serialize on the window lock).
//! * **Liveness.** Connections carry read/write deadlines. A silent
//!   peer (producer or subscriber) is pinged every ping interval; one
//!   silent past the idle deadline is reaped — a half-open socket
//!   cannot wedge retirement. The server also pings while a producer is
//!   flow-blocked, so the client's own deadline sees a live peer.
//! * **Graceful drain.** [`WireServer::drain`] refuses new `Hello`s,
//!   lets in-flight frames finish, flushes every acked prefix, lets
//!   subscribers catch up, sends [`Goodbye`](wire::Frame::Goodbye)
//!   both ways, then shuts down.
//!
//! Tenancy, fairness, durability, and observability are all the
//! session layer's: tenants keep their weighted lanes, per-tenant
//! durable stores, and `/metrics` + `/healthz` rows
//! ([`WireServerBuilder::metrics_addr`] binds the pool's endpoint with
//! the wire transport's per-connection series appended and the drain
//! state surfaced on the health plane).

pub mod net;
pub mod wire;

mod client;

pub use client::{RetryPolicy, WireClient, WireClientBuilder};
pub use net::{real_net, FaultNet, NetConn, NetFault, NetFaultPlan, NetIo, NetListener, RealNet};
pub use wire::{FlowState, Frame, Role, WireAlarm, WireError};

use crate::error::PushError;
use crate::runtime::{RuntimeReport, SinkEmission, SourceHandle, StreamRuntime};
use crate::sessions::{Session, SessionPool};
use crate::RuntimeError;
use ec_obs::LogHistogram;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a flow-blocked push waits on its source's stripe before
/// re-checking the stop flag and the heartbeat clock (a seal wakes it
/// at once), and how often [`WireServer::drain`] re-flushes tenants
/// while producers are still winding down.
const FLOW_RECHECK: Duration = Duration::from_millis(20);

/// Counters of the wire transport, rendered onto the pool's `/metrics`
/// page as `ec_wire_*` series.
#[derive(Debug, Default)]
struct WireStats {
    connections_total: AtomicU64,
    producers_open: AtomicU64,
    subscribers_open: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    events_in: AtomicU64,
    alarms_out: AtomicU64,
    flow_blocks: AtomicU64,
    refused: AtomicU64,
    reconnects: AtomicU64,
    dedup_hits: AtomicU64,
    pings: AtomicU64,
    reaped: AtomicU64,
    clean_closes: AtomicU64,
    crash_closes: AtomicU64,
    /// Hub residence per delivery batch: publish → the socket write
    /// that carried its last alarm returned (ns).
    hop_nanos: LogHistogram,
    /// Alarms per `AlarmBatch` frame written.
    frame_alarms: LogHistogram,
}

/// A point-in-time copy of the wire transport counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStatsSnapshot {
    /// Connections accepted since bind (any outcome).
    pub connections_total: u64,
    /// Producer connections currently authenticated.
    pub producers_open: u64,
    /// Subscriber connections currently authenticated.
    pub subscribers_open: u64,
    /// Frames read from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// Events accepted into striped ingest buffers.
    pub events_in: u64,
    /// Alarms streamed to subscribers.
    pub alarms_out: u64,
    /// `FlowControl(Block)` frames sent (backpressure episodes).
    pub flow_blocks: u64,
    /// Hellos refused (bad token / unknown tenant / bad preamble /
    /// draining).
    pub refused: u64,
    /// `HelloResume`s that attached to an already-known session — each
    /// one is a producer reconnect.
    pub reconnects: u64,
    /// Batches re-acked from a session's resume window instead of
    /// re-applied (duplicate delivery absorbed).
    pub dedup_hits: u64,
    /// `Ping` frames sent to clients (idle probes and flow-blocked
    /// heartbeats).
    pub pings: u64,
    /// Connections reaped for blowing the idle deadline (half-open
    /// peers).
    pub reaped: u64,
    /// Connections that ended with a client `Goodbye` — deliberate
    /// closes.
    pub clean_closes: u64,
    /// Connections that ended in a broken socket — crashes, resets,
    /// vanished peers.
    pub crash_closes: u64,
}

impl WireStats {
    fn snapshot(&self) -> WireStatsSnapshot {
        WireStatsSnapshot {
            connections_total: self.connections_total.load(Relaxed),
            producers_open: self.producers_open.load(Relaxed),
            subscribers_open: self.subscribers_open.load(Relaxed),
            frames_in: self.frames_in.load(Relaxed),
            frames_out: self.frames_out.load(Relaxed),
            events_in: self.events_in.load(Relaxed),
            alarms_out: self.alarms_out.load(Relaxed),
            flow_blocks: self.flow_blocks.load(Relaxed),
            refused: self.refused.load(Relaxed),
            reconnects: self.reconnects.load(Relaxed),
            dedup_hits: self.dedup_hits.load(Relaxed),
            pings: self.pings.load(Relaxed),
            reaped: self.reaped.load(Relaxed),
            clean_closes: self.clean_closes.load(Relaxed),
            crash_closes: self.crash_closes.load(Relaxed),
        }
    }

    fn render(&self, page: &mut ec_obs::PromText, draining: bool) {
        let s = self.snapshot();
        page.counter(
            "ec_wire_connections_total",
            "Wire connections accepted since bind",
            &[],
            s.connections_total,
        );
        page.gauge(
            "ec_wire_connections_open",
            "Authenticated wire connections by role",
            &[("role", "producer")],
            s.producers_open as f64,
        );
        page.gauge(
            "ec_wire_connections_open",
            "Authenticated wire connections by role",
            &[("role", "subscriber")],
            s.subscribers_open as f64,
        );
        page.counter(
            "ec_wire_frames_total",
            "Wire frames by direction",
            &[("dir", "in")],
            s.frames_in,
        );
        page.counter(
            "ec_wire_frames_total",
            "Wire frames by direction",
            &[("dir", "out")],
            s.frames_out,
        );
        page.counter(
            "ec_wire_events_total",
            "Events accepted into striped ingest buffers over the wire",
            &[],
            s.events_in,
        );
        page.counter(
            "ec_wire_alarms_total",
            "Retired-phase alarms streamed to subscribers",
            &[],
            s.alarms_out,
        );
        page.counter(
            "ec_wire_flow_blocks_total",
            "FlowControl(Block) frames sent (backpressure episodes)",
            &[],
            s.flow_blocks,
        );
        page.counter(
            "ec_wire_refused_total",
            "Hellos refused (bad token, unknown tenant, bad preamble, draining)",
            &[],
            s.refused,
        );
        page.counter(
            "ec_wire_reconnects_total",
            "Producer reconnects that resumed a known session",
            &[],
            s.reconnects,
        );
        page.counter(
            "ec_wire_dedup_hits_total",
            "Replayed batches re-acked from a resume window instead of re-applied",
            &[],
            s.dedup_hits,
        );
        page.counter(
            "ec_wire_pings_total",
            "Ping frames sent to clients (idle probes and flow-blocked heartbeats)",
            &[],
            s.pings,
        );
        page.counter(
            "ec_wire_reaped_total",
            "Connections reaped for blowing the idle deadline",
            &[],
            s.reaped,
        );
        page.counter(
            "ec_wire_disconnects_total",
            "Connection ends by kind",
            &[("kind", "clean")],
            s.clean_closes,
        );
        page.counter(
            "ec_wire_disconnects_total",
            "Connection ends by kind",
            &[("kind", "crash")],
            s.crash_closes,
        );
        page.latency_summary(
            "ec_wire_alarm_hop_seconds",
            "Alarm residence in the server: delivery-batch publish to socket write returned",
            &[],
            &self.hop_nanos.snapshot(),
        );
        page.count_summary(
            "ec_wire_alarm_batch_size",
            "Alarms per AlarmBatch frame written to subscribers",
            &[],
            &self.frame_alarms.snapshot(),
        );
        page.gauge(
            "ec_wire_draining",
            "1 while the server is draining (refusing new Hellos)",
            &[],
            if draining { 1.0 } else { 0.0 },
        );
    }
}

/// One delivery batch as the hub holds it: built once on the delivery
/// thread, shared by every subscriber slot.
struct Published {
    alarms: Vec<WireAlarm>,
    at: Instant,
}

/// A run of alarms taken from one published batch.
struct Chunk {
    batch: Arc<Published>,
    range: Range<usize>,
}

impl Chunk {
    fn alarms(&self) -> &[WireAlarm] {
        &self.batch.alarms[self.range.clone()]
    }
}

/// What a subscriber's writer half wakes up to.
enum Drained {
    /// Alarms to write, oldest first.
    Batch(Vec<Chunk>),
    /// The server has drained and this slot is empty: the alarm stream
    /// is complete.
    Complete,
    /// The slot overflowed: the reader was too slow.
    Overflowed,
    /// The slot was closed under the writer: the connection's reader
    /// half ended it, or the server is stopping.
    Closed,
}

/// Per-tenant fan-out from the runtime's serial delivery loop to any
/// number of bounded subscriber slots. `publish` runs on the delivery
/// thread, once per retirement drain, and never blocks: a full slot is
/// marked overflowed (its connection is then dropped) instead of
/// wedging retirement. Everything a subscriber's writer half can be
/// waiting for — alarms, overflow, the end of its connection, server
/// stop, drain completion — is slot state signalled through `cv`, so
/// the writer blocks without a timeout.
struct Hub {
    inner: Mutex<HubInner>,
    cv: Condvar,
}

#[derive(Default)]
struct HubInner {
    slots: Vec<Slot>,
    next: u64,
    /// Set by [`WireServer::drain`] once every retired alarm has been
    /// published: a slot that empties after this has seen it all.
    complete: bool,
    /// Server stopping: slots registered from now on are born closed.
    stopped: bool,
}

struct Slot {
    id: u64,
    cap: usize,
    /// Shared batches, oldest first.
    queue: VecDeque<Arc<Published>>,
    /// Alarms of the front batch already taken.
    head: usize,
    /// Alarms still queued (what `cap` bounds).
    len: usize,
    overflowed: bool,
    closed: bool,
}

impl Slot {
    /// Takes up to `max` queued alarms, oldest first.
    fn take(&mut self, max: usize) -> Vec<Chunk> {
        let mut want = max.min(self.len);
        self.len -= want;
        let mut chunks = Vec::new();
        while want > 0 {
            let front = self.queue.front().expect("len counts queued alarms");
            let end = front.alarms.len().min(self.head + want);
            chunks.push(Chunk {
                batch: Arc::clone(front),
                range: self.head..end,
            });
            want -= end - self.head;
            if end == front.alarms.len() {
                self.queue.pop_front();
                self.head = 0;
            } else {
                self.head = end;
            }
        }
        chunks
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.head = 0;
        self.len = 0;
    }
}

impl Hub {
    fn new() -> Arc<Hub> {
        Arc::new(Hub {
            inner: Mutex::new(HubInner::default()),
            cv: Condvar::new(),
        })
    }

    /// Hands one delivery batch to every live slot: one lock, one
    /// wake-up, one `WireAlarm` per emission however many subscribers
    /// there are.
    fn publish(&self, emissions: &[SinkEmission]) {
        let mut inner = self.inner.lock();
        if inner.slots.iter().all(|s| s.overflowed || s.closed) {
            return;
        }
        let batch = Arc::new(Published {
            alarms: emissions
                .iter()
                .map(|e| WireAlarm {
                    phase: e.phase,
                    sink: Arc::clone(&e.name),
                    value: e.value.clone(),
                })
                .collect(),
            at: Instant::now(),
        });
        for slot in &mut inner.slots {
            if slot.overflowed || slot.closed {
                continue;
            }
            if slot.len + batch.alarms.len() > slot.cap {
                slot.overflowed = true;
                slot.clear();
            } else {
                slot.len += batch.alarms.len();
                slot.queue.push_back(Arc::clone(&batch));
            }
        }
        drop(inner);
        self.cv.notify_all();
    }

    fn register(&self, cap: usize) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next;
        inner.next += 1;
        let closed = inner.stopped;
        inner.slots.push(Slot {
            id,
            cap: cap.max(1),
            queue: VecDeque::new(),
            head: 0,
            len: 0,
            overflowed: false,
            closed,
        });
        id
    }

    fn unregister(&self, id: u64) {
        self.inner.lock().slots.retain(|s| s.id != id);
    }

    /// Blocks until slot `id` has something for its writer: up to
    /// `max` alarms, or the reason there will be no more.
    fn next(&self, id: u64, max: usize) -> Drained {
        let mut inner = self.inner.lock();
        loop {
            let complete = inner.complete;
            let Some(slot) = inner.slots.iter_mut().find(|s| s.id == id) else {
                return Drained::Closed;
            };
            if slot.closed {
                return Drained::Closed;
            }
            if slot.overflowed {
                return Drained::Overflowed;
            }
            if slot.len > 0 {
                return Drained::Batch(slot.take(max));
            }
            if complete {
                return Drained::Complete;
            }
            self.cv.wait(&mut inner);
        }
    }

    /// Marks slot `id`'s connection as over. True for the first caller
    /// only — the one that accounts for the disconnect and sends any
    /// parting frame. Does not wake the writer half: the reader half
    /// does that on its way out ([`subscriber_conn`]), after its
    /// parting frame, so the writer's socket shutdown cannot cut it
    /// off.
    fn close(&self, id: u64) -> bool {
        let mut inner = self.inner.lock();
        inner
            .slots
            .iter_mut()
            .find(|s| s.id == id)
            .is_some_and(|slot| {
                slot.clear();
                !std::mem::replace(&mut slot.closed, true)
            })
    }

    fn is_closed(&self, id: u64) -> bool {
        let inner = self.inner.lock();
        inner
            .slots
            .iter()
            .find(|s| s.id == id)
            .is_none_or(|s| s.closed)
    }

    /// Server stop: closes every slot, present and future.
    fn stop(&self) {
        let mut inner = self.inner.lock();
        inner.stopped = true;
        for slot in &mut inner.slots {
            slot.clear();
            slot.closed = true;
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// Drain: everything retired has been published, so an empty slot
    /// is a finished stream.
    fn complete(&self) {
        self.inner.lock().complete = true;
        self.cv.notify_all();
    }
}

/// Dedup state of one resumable producer session: a bounded window of
/// recently acked `(seq, accepted)` pairs per source. The lock
/// serializes batch application across every connection claiming the
/// same session id — a concurrent duplicate blocks, then sees the
/// recorded entry and is re-acked.
#[derive(Default)]
struct ProducerSession {
    windows: Mutex<HashMap<u32, SourceWindow>>,
}

#[derive(Default)]
struct SourceWindow {
    /// Recently acked batches, oldest first, bounded by the server's
    /// resume window.
    recent: VecDeque<(u64, u32)>,
    /// Highest sequence number ever recorded — a replayed seq at or
    /// below it that fell out of the window is refused, never
    /// re-applied.
    max_seen: Option<u64>,
}

/// Per-tenant registry of producer sessions, LRU-bounded.
#[derive(Default)]
struct ResumeTable {
    sessions: HashMap<String, Arc<ProducerSession>>,
    order: VecDeque<String>,
}

/// One served tenant: its session plus the wiring the handlers need.
struct Tenant {
    name: String,
    session: Session,
    sources: Vec<String>,
    handles: Vec<SourceHandle>,
    hub: Arc<Hub>,
    resume: Mutex<ResumeTable>,
}

impl Tenant {
    /// Gets or creates the resume state for one producer session id
    /// (LRU-touched, bounded by `cap`); the bool reports whether it
    /// already existed — i.e. this Hello is a reconnect.
    fn resume_session(&self, id: &str, cap: usize) -> (Arc<ProducerSession>, bool) {
        let mut table = self.resume.lock();
        table.order.retain(|s| s != id);
        table.order.push_back(id.to_string());
        if let Some(sess) = table.sessions.get(id) {
            return (Arc::clone(sess), true);
        }
        let sess = Arc::new(ProducerSession::default());
        table.sessions.insert(id.to_string(), Arc::clone(&sess));
        while table.sessions.len() > cap.max(1) {
            match table.order.pop_front() {
                Some(old) => {
                    table.sessions.remove(&old);
                }
                None => break,
            }
        }
        (sess, false)
    }
}

struct ServerCtx {
    tenants: HashMap<String, Arc<Tenant>>,
    /// Tenant names in opening order (shutdown closes in this order).
    order: Vec<String>,
    token: String,
    stop: AtomicBool,
    /// Set by [`WireServer::drain`]: refuse new Hellos, wind down
    /// producer connections after their in-flight frame.
    draining: AtomicBool,
    /// Signalled (under `closed_lock`) whenever a producer or
    /// subscriber connection ends, for [`WireServer::drain`].
    closed_lock: Mutex<()>,
    closed_cv: Condvar,
    local_addr: SocketAddr,
    conns: Mutex<Vec<Box<dyn NetConn>>>,
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stats: WireStats,
    pool: SessionPool,
    subscriber_buffer: usize,
    alarm_batch: usize,
    ping_interval: Duration,
    idle_timeout: Duration,
    write_deadline: Duration,
    resume_window: usize,
    resume_sessions: usize,
    drain_grace: Duration,
}

impl ServerCtx {
    /// Asks the accept loop to exit: set the flag, release every
    /// subscriber writer, then poke the listener with a throwaway
    /// connection so `accept` returns.
    fn request_stop(&self) {
        self.stop.store(true, Relaxed);
        for t in self.tenants.values() {
            t.hub.stop();
        }
        let _ = std::net::TcpStream::connect(self.local_addr);
    }

    /// Blocks until `open` (one of the open-connection gauges) reads
    /// zero or `deadline` passes; true if it reached zero.
    fn wait_all_closed(&self, open: &AtomicU64, deadline: Instant) -> bool {
        let mut guard = self.closed_lock.lock();
        loop {
            if open.load(Relaxed) == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.closed_cv.wait_for(&mut guard, deadline - now);
        }
    }
}

/// Configuration for a [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireServerBuilder {
    token: String,
    metrics_addr: Option<String>,
    subscriber_buffer: usize,
    alarm_batch: usize,
    net: Arc<dyn NetIo>,
    ping_interval: Duration,
    idle_timeout: Duration,
    write_deadline: Duration,
    resume_window: usize,
    resume_sessions: usize,
    drain_grace: Duration,
}

impl Default for WireServerBuilder {
    fn default() -> WireServerBuilder {
        WireServerBuilder {
            token: String::new(),
            metrics_addr: None,
            subscriber_buffer: 1024,
            alarm_batch: 256,
            net: real_net(),
            ping_interval: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            write_deadline: Duration::from_secs(10),
            resume_window: 128,
            resume_sessions: 1024,
            drain_grace: Duration::from_secs(5),
        }
    }
}

impl WireServerBuilder {
    /// Requires every `Hello` to carry this token (default: open, any
    /// token accepted).
    pub fn token(mut self, token: impl Into<String>) -> Self {
        self.token = token.into();
        self
    }

    /// Also binds the pool's `/metrics` + `/healthz` endpoint at
    /// `addr` (port 0 picks a free one), with the wire transport's
    /// `ec_wire_*` series appended to every scrape and the drain state
    /// surfaced on `/healthz`.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Alarms buffered per subscriber before it is declared too slow
    /// and disconnected (default 1024, minimum 1).
    pub fn subscriber_buffer(mut self, n: usize) -> Self {
        self.subscriber_buffer = n.max(1);
        self
    }

    /// Maximum alarms per `AlarmBatch` frame (default 256).
    pub fn alarm_batch(mut self, n: usize) -> Self {
        self.alarm_batch = n.max(1);
        self
    }

    /// Routes the listener and every accepted connection through this
    /// transport plane (default [`RealNet`]). The chaos matrix injects
    /// a [`FaultNet`] here.
    pub fn net(mut self, net: Arc<dyn NetIo>) -> Self {
        self.net = net;
        self
    }

    /// How often an idle (or flow-blocked) v2 peer is pinged; also the
    /// read-deadline granularity of the connection loops (default 5s).
    pub fn ping_interval(mut self, d: Duration) -> Self {
        self.ping_interval = d.max(Duration::from_millis(1));
        self
    }

    /// A connection silent for this long — no frames, no pong — is
    /// reaped as half-open (default 30s; keep it a few multiples of
    /// the ping interval).
    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = d.max(Duration::from_millis(1));
        self
    }

    /// Write deadline per connection: a peer whose receive buffer
    /// stays full this long (black-holed, wedged) fails the write and
    /// is disconnected instead of stalling its handler (default 10s).
    pub fn write_deadline(mut self, d: Duration) -> Self {
        self.write_deadline = d.max(Duration::from_millis(1));
        self
    }

    /// Acked batches remembered per (session, source) for replay dedup
    /// (default 128, minimum 1). A synchronous client has at most one
    /// batch in flight, so even the minimum suffices for it.
    pub fn resume_window(mut self, n: usize) -> Self {
        self.resume_window = n.max(1);
        self
    }

    /// Producer sessions remembered per tenant, LRU-evicted beyond
    /// this (default 1024).
    pub fn resume_sessions(mut self, n: usize) -> Self {
        self.resume_sessions = n.max(1);
        self
    }

    /// How long [`WireServer::drain`] waits for producers to finish
    /// their in-flight frames and for subscribers to catch up before
    /// forcing the shutdown (default 5s).
    pub fn drain_grace(mut self, d: Duration) -> Self {
        self.drain_grace = d;
        self
    }

    /// Binds the wire listener at `addr` (port 0 picks a free one) and
    /// starts serving `sessions` — tenants already opened on `pool`.
    /// The server takes ownership of both; [`WireServer::shutdown`]
    /// closes them cleanly.
    pub fn bind(
        self,
        addr: &str,
        pool: SessionPool,
        sessions: Vec<Session>,
    ) -> Result<WireServer, RuntimeError> {
        if sessions.is_empty() {
            return Err(RuntimeError::Config(
                "a wire server needs at least one tenant session".into(),
            ));
        }
        let mut tenants = HashMap::new();
        let mut order = Vec::new();
        for session in sessions {
            let name = session.name().to_string();
            let sources = session.live_source_names();
            let handles = sources
                .iter()
                .map(|s| session.handle_by_name(s))
                .collect::<Result<Vec<_>, _>>()?;
            let hub = Hub::new();
            let pub_hub = Arc::clone(&hub);
            session.subscribe_batches(move |batch| pub_hub.publish(batch));
            order.push(name.clone());
            tenants.insert(
                name.clone(),
                Arc::new(Tenant {
                    name,
                    session,
                    sources,
                    handles,
                    hub,
                    resume: Mutex::new(ResumeTable::default()),
                }),
            );
        }
        let listener = self
            .net
            .bind(addr)
            .map_err(|e| RuntimeError::Config(format!("wire endpoint {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| RuntimeError::Config(format!("wire endpoint {addr}: {e}")))?;
        let ctx = Arc::new(ServerCtx {
            tenants,
            order,
            token: self.token,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            closed_lock: Mutex::new(()),
            closed_cv: Condvar::new(),
            local_addr,
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
            stats: WireStats::default(),
            pool,
            subscriber_buffer: self.subscriber_buffer,
            alarm_batch: self.alarm_batch,
            ping_interval: self.ping_interval,
            idle_timeout: self.idle_timeout,
            write_deadline: self.write_deadline,
            resume_window: self.resume_window,
            resume_sessions: self.resume_sessions,
            drain_grace: self.drain_grace,
        });
        let metrics_addr = match &self.metrics_addr {
            Some(addr) => {
                // Weak references: the registry closures live inside
                // the pool the ctx owns, so strong captures would keep
                // the ctx alive forever and break shutdown's unwrap.
                let stats_ctx = Arc::downgrade(&ctx);
                let health_ctx = Arc::downgrade(&ctx);
                Some(ctx.pool.serve_metrics_ext(
                    addr,
                    move |page| {
                        if let Some(ctx) = stats_ctx.upgrade() {
                            ctx.stats.render(page, ctx.draining.load(Relaxed));
                        }
                    },
                    move || {
                        let draining = health_ctx
                            .upgrade()
                            .is_some_and(|ctx| ctx.draining.load(Relaxed));
                        vec![("draining".to_string(), draining.to_string())]
                    },
                )?)
            }
            None => None,
        };
        let accept_ctx = Arc::clone(&ctx);
        let listener_thread = std::thread::Builder::new()
            .name("ec-wire-accept".into())
            .spawn(move || accept_loop(listener, accept_ctx))
            .map_err(|e| RuntimeError::Config(format!("spawn accept loop: {e}")))?;
        Ok(WireServer {
            ctx: Some(ctx),
            listener_thread: Some(listener_thread),
            local_addr,
            metrics_addr,
        })
    }
}

/// A live TCP front end over a [`SessionPool`]. See the module docs
/// for the connection model.
///
/// Dropping the server without calling [`shutdown`](Self::shutdown)
/// stops the listener and *drops* the tenant sessions — the simulated
/// crash of [`Session`]'s drop semantics. Durable tenants restore on
/// the next bind.
pub struct WireServer {
    ctx: Option<Arc<ServerCtx>>,
    listener_thread: Option<std::thread::JoinHandle<()>>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

/// Read-only view of one served tenant; derefs to its
/// [`StreamRuntime`] for observation (`metrics`, `script`,
/// `wait_idle`, …).
pub struct ServedTenant {
    inner: Arc<Tenant>,
}

impl std::ops::Deref for ServedTenant {
    type Target = StreamRuntime;

    fn deref(&self) -> &StreamRuntime {
        &self.inner.session
    }
}

impl WireServer {
    /// A fresh configuration.
    pub fn builder() -> WireServerBuilder {
        WireServerBuilder::default()
    }

    /// The bound wire address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound `/metrics` + `/healthz` address, if configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Tenant names, in opening order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.ctx.as_ref().map_or_else(Vec::new, |c| c.order.clone())
    }

    /// Observation handle on one tenant's runtime.
    pub fn tenant(&self, name: &str) -> Option<ServedTenant> {
        let ctx = self.ctx.as_ref()?;
        ctx.tenants.get(name).map(|t| ServedTenant {
            inner: Arc::clone(t),
        })
    }

    /// Wire transport counters.
    pub fn stats(&self) -> WireStatsSnapshot {
        self.ctx
            .as_ref()
            .map(|c| c.stats.snapshot())
            .unwrap_or_default()
    }

    /// True once a shutdown was requested — by [`shutdown`](Self::shutdown)
    /// or by a client's [`Shutdown`](wire::Frame::Shutdown) frame. The
    /// owner should then call [`shutdown`](Self::shutdown) (or
    /// [`drain`](Self::drain)).
    pub fn stop_requested(&self) -> bool {
        self.ctx.as_ref().is_some_and(|c| c.stop.load(Relaxed))
    }

    /// True while a [`drain`](Self::drain) is in progress: new Hellos
    /// are refused and connections are winding down.
    pub fn draining(&self) -> bool {
        self.ctx.as_ref().is_some_and(|c| c.draining.load(Relaxed))
    }

    /// Gracefully winds the server down, then shuts it down:
    ///
    /// 1. refuse new `Hello`s (with an explicit "draining" error);
    /// 2. let every producer finish its in-flight frame, then send it
    ///    [`Goodbye`](wire::Frame::Goodbye) — flushing tenants
    ///    throughout so a flow-blocked push can land;
    /// 3. flush every tenant's acked prefix, wait for retirement to go
    ///    idle and for delivery to hand the last emissions to the
    ///    subscriber slots;
    /// 4. let subscribers drain their remaining alarms, then send them
    ///    `Goodbye` — every retired alarm is in a slot before step 4
    ///    begins and a connection has one writer, so the goodbye never
    ///    overtakes an `AlarmBatch`;
    /// 5. run the normal [`shutdown`](Self::shutdown).
    ///
    /// Steps 2 and 4 each end the moment their last connection closes
    /// and are each bounded by
    /// [`drain_grace`](WireServerBuilder::drain_grace); a wedged peer
    /// delays the drain at most that long.
    pub fn drain(self) -> Vec<(String, Result<RuntimeReport, RuntimeError>)> {
        if let Some(ctx) = self.ctx.as_ref() {
            ctx.draining.store(true, Relaxed);
            let deadline = Instant::now() + ctx.drain_grace;
            loop {
                // A producer stuck on a full buffer needs a seal nobody
                // else will send: flushing lets its in-flight batch
                // complete and be recorded before the goodbye.
                for t in ctx.tenants.values() {
                    let _ = t.session.flush();
                }
                let now = Instant::now();
                if now >= deadline
                    || ctx.wait_all_closed(
                        &ctx.stats.producers_open,
                        deadline.min(now + FLOW_RECHECK),
                    )
                {
                    break;
                }
            }
            for t in ctx.tenants.values() {
                let _ = t.session.flush();
                let _ = t.session.wait_idle();
                t.session.wait_delivered();
                t.hub.complete();
            }
            // The producer wait above may have consumed the whole
            // grace period on a wedged peer; subscribers get their own.
            let deadline = Instant::now() + ctx.drain_grace;
            ctx.wait_all_closed(&ctx.stats.subscribers_open, deadline);
        }
        self.shutdown()
    }

    /// Stops accepting, disconnects every client, joins the handler
    /// threads, closes every tenant session cleanly (in opening
    /// order), and shuts the pool down. Returns one report per tenant.
    ///
    /// A tenant still held as a [`ServedTenant`] elsewhere cannot be
    /// closed cleanly; it is crash-dropped (durable tenants restore)
    /// and reported as an error row.
    pub fn shutdown(mut self) -> Vec<(String, Result<RuntimeReport, RuntimeError>)> {
        let ctx = match self.teardown() {
            Some(ctx) => ctx,
            None => return Vec::new(),
        };
        let mut ctx = match Arc::try_unwrap(ctx) {
            Ok(ctx) => ctx,
            Err(_) => return Vec::new(), // a leaked handle keeps everything alive
        };
        let mut reports = Vec::new();
        for name in std::mem::take(&mut ctx.order) {
            let Some(tenant) = ctx.tenants.remove(&name) else {
                continue;
            };
            match Arc::try_unwrap(tenant) {
                Ok(t) => reports.push((name, t.session.close())),
                Err(_held) => reports.push((
                    name.clone(),
                    Err(RuntimeError::Config(format!(
                        "tenant {name:?} still observed; crash-dropped instead of closed"
                    ))),
                )),
            }
        }
        ctx.pool.shutdown();
        reports
    }

    /// Stops the listener and connection threads and returns the ctx;
    /// shared by `shutdown` and `Drop`.
    fn teardown(&mut self) -> Option<Arc<ServerCtx>> {
        let ctx = self.ctx.take()?;
        ctx.request_stop();
        for conn in ctx.conns.lock().drain(..) {
            let _ = conn.shutdown_both();
        }
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        let handlers: Vec<_> = ctx.handlers.lock().drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
        Some(ctx)
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}

fn accept_loop(listener: Box<dyn NetListener>, ctx: Arc<ServerCtx>) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => {
                if ctx.stop.load(Relaxed) {
                    return;
                }
                continue;
            }
        };
        if ctx.stop.load(Relaxed) {
            return;
        }
        if let Ok(clone) = conn.try_clone_conn() {
            ctx.conns.lock().push(clone);
        }
        let conn_ctx = Arc::clone(&ctx);
        let spawned = std::thread::Builder::new()
            .name("ec-wire-conn".into())
            .spawn(move || handle_conn(conn_ctx, conn));
        if let Ok(h) = spawned {
            ctx.handlers.lock().push(h);
        }
    }
}

/// Counts one open connection in a gauge until scope exit, then tells
/// [`ServerCtx::wait_all_closed`].
struct OpenGuard<'a> {
    ctx: &'a ServerCtx,
    open: &'a AtomicU64,
}

impl<'a> OpenGuard<'a> {
    fn new(ctx: &'a ServerCtx, open: &'a AtomicU64) -> OpenGuard<'a> {
        open.fetch_add(1, Relaxed);
        OpenGuard { ctx, open }
    }
}

impl Drop for OpenGuard<'_> {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Relaxed);
        // Taking the lock orders this against a waiter's check-then-
        // wait, so the wake-up cannot fall between the two.
        let _guard = self.ctx.closed_lock.lock();
        self.ctx.closed_cv.notify_all();
    }
}

/// Sends one frame, counting it; false means the connection is gone.
fn send(ctx: &ServerCtx, w: &mut impl Write, frame: &Frame) -> bool {
    match wire::write_frame(w, frame) {
        Ok(()) => {
            ctx.stats.frames_out.fetch_add(1, Relaxed);
            true
        }
        Err(_) => false,
    }
}

fn refuse(ctx: &ServerCtx, w: &mut impl Write, reason: String) {
    ctx.stats.refused.fetch_add(1, Relaxed);
    send(ctx, w, &Frame::Error { reason });
}

/// Drops a connection the server can no longer trust (corrupt framing,
/// missed liveness deadline) without refusing anything: v2 peers get a
/// best-effort [`Frame::Abort`] telling them a resume is safe, v1
/// peers (which predate `Abort`) get the legacy `Error`.
fn abort(ctx: &ServerCtx, w: &mut impl Write, peer_version: u32, reason: String) {
    if peer_version >= 2 {
        send(ctx, w, &Frame::Abort { reason });
    } else {
        send(ctx, w, &Frame::Error { reason });
    }
}

fn handle_conn(ctx: Arc<ServerCtx>, mut reader: Box<dyn NetConn>) {
    ctx.stats.connections_total.fetch_add(1, Relaxed);
    let Ok(mut writer) = reader.try_clone_conn() else {
        return;
    };
    // Deadlines from the first byte: a peer that never completes its
    // handshake is timed out instead of parking this thread forever.
    let _ = reader.set_read_timeout(Some(ctx.idle_timeout));
    let _ = writer.set_write_timeout(Some(ctx.write_deadline));
    // Preamble exchange: validate the client's, then send ours so the
    // client can parse the reply even when we refuse.
    let preamble = wire::read_preamble(&mut reader);
    if wire::write_preamble(&mut writer).is_err() || writer.flush().is_err() {
        return;
    }
    let peer_version = match preamble {
        Ok(v) => v,
        Err(e) => {
            refuse(&ctx, &mut writer, e.to_string());
            return;
        }
    };
    let hello = match wire::read_frame(&mut reader) {
        Ok(f) => f,
        Err(e) => {
            refuse(&ctx, &mut writer, format!("bad first frame: {e}"));
            return;
        }
    };
    ctx.stats.frames_in.fetch_add(1, Relaxed);
    let (token, tenant, role, session_id) = match hello {
        Frame::Hello {
            token,
            tenant,
            role,
        } => (token, tenant, role, None),
        Frame::HelloResume {
            token,
            tenant,
            session,
        } => (token, tenant, Role::Producer, Some(session)),
        _ => {
            refuse(&ctx, &mut writer, "first frame must be Hello".into());
            return;
        }
    };
    if ctx.draining.load(Relaxed) {
        refuse(
            &ctx,
            &mut writer,
            "server draining: not accepting new sessions".into(),
        );
        return;
    }
    if !ctx.token.is_empty() && token != ctx.token {
        refuse(&ctx, &mut writer, "bad token".into());
        return;
    }
    let Some(t) = ctx.tenants.get(&tenant).map(Arc::clone) else {
        refuse(&ctx, &mut writer, format!("unknown tenant {tenant:?}"));
        return;
    };
    let session = session_id.map(|id| {
        let (sess, existed) = t.resume_session(&id, ctx.resume_sessions);
        if existed {
            ctx.stats.reconnects.fetch_add(1, Relaxed);
        }
        sess
    });
    if !send(
        &ctx,
        &mut writer,
        &Frame::HelloOk {
            tenant: t.name.clone(),
            sources: t.sources.clone(),
        },
    ) {
        return;
    }
    // Steady-state read deadline: one ping interval per tick.
    let _ = reader.set_read_timeout(Some(ctx.ping_interval));
    match role {
        Role::Producer => {
            let _open = OpenGuard::new(&ctx, &ctx.stats.producers_open);
            producer_loop(&ctx, &t, &mut reader, &mut writer, peer_version, session);
        }
        Role::Subscriber => {
            let _open = OpenGuard::new(&ctx, &ctx.stats.subscribers_open);
            subscriber_conn(&ctx, &t, reader, writer, peer_version);
        }
    }
}

fn producer_loop(
    ctx: &ServerCtx,
    t: &Tenant,
    reader: &mut Box<dyn NetConn>,
    writer: &mut Box<dyn NetConn>,
    peer_version: u32,
    session: Option<Arc<ProducerSession>>,
) {
    let mut fr = wire::FrameReader::new();
    let mut last_frame = Instant::now();
    let mut ping_nonce = 0u64;
    loop {
        if ctx.stop.load(Relaxed) {
            send(
                ctx,
                writer,
                &Frame::Error {
                    reason: "server shutting down".into(),
                },
            );
            return;
        }
        if ctx.draining.load(Relaxed) && !fr.mid_frame() {
            if peer_version >= 2 {
                send(
                    ctx,
                    writer,
                    &Frame::Goodbye {
                        reason: "server draining".into(),
                    },
                );
            }
            return;
        }
        let frame = match fr.read_from(reader) {
            Ok(Some(f)) => f,
            Ok(None) => {
                // Idle tick: the read deadline (one ping interval)
                // expired with no complete frame.
                if last_frame.elapsed() >= ctx.idle_timeout {
                    ctx.stats.reaped.fetch_add(1, Relaxed);
                    abort(
                        ctx,
                        writer,
                        peer_version,
                        "idle deadline exceeded: reaping half-open producer".into(),
                    );
                    return;
                }
                if peer_version >= 2 {
                    ping_nonce += 1;
                    ctx.stats.pings.fetch_add(1, Relaxed);
                    if !send(ctx, writer, &Frame::Ping { nonce: ping_nonce }) {
                        ctx.stats.crash_closes.fetch_add(1, Relaxed);
                        return;
                    }
                }
                continue;
            }
            Err(e) => {
                // A torn/corrupt frame is discarded whole: everything
                // pushed so far stays (the acknowledged FIFO prefix),
                // nothing from the bad frame enters a buffer. The
                // stream itself is untrusted from here, so this is an
                // abort, not a refusal — a resuming client redials and
                // replays, and dedup keeps the commit exactly-once.
                ctx.stats.crash_closes.fetch_add(1, Relaxed);
                if !e.is_disconnect() {
                    abort(ctx, writer, peer_version, e.to_string());
                }
                return;
            }
        };
        last_frame = Instant::now();
        ctx.stats.frames_in.fetch_add(1, Relaxed);
        match frame {
            Frame::PushBatch { seq, source, bins } => {
                let Some(handle) = t.handles.get(source as usize) else {
                    send(
                        ctx,
                        writer,
                        &Frame::Error {
                            reason: format!(
                                "unknown source index {source} (tenant has {})",
                                t.handles.len()
                            ),
                        },
                    );
                    return;
                };
                let mut conn_ok = true;
                let accepted = match &session {
                    Some(sess) => {
                        // The window lock serializes same-session
                        // batches across concurrent connections and is
                        // held through application, so a duplicate
                        // blocks and then dedups.
                        let mut windows = sess.windows.lock();
                        let win = windows.entry(source).or_default();
                        if let Some(&(_, accepted)) =
                            win.recent.iter().rev().find(|(s, _)| *s == seq)
                        {
                            ctx.stats.dedup_hits.fetch_add(1, Relaxed);
                            drop(windows);
                            if !send(ctx, writer, &Frame::PushAck { seq, accepted }) {
                                ctx.stats.crash_closes.fetch_add(1, Relaxed);
                                return;
                            }
                            continue;
                        }
                        if win.max_seen.is_some_and(|hi| seq <= hi) {
                            // Acked long ago and evicted — refusing is
                            // the only answer that cannot double-apply.
                            send(
                                ctx,
                                writer,
                                &Frame::Error {
                                    reason: format!(
                                        "batch seq {seq} is behind the session's resume window"
                                    ),
                                },
                            );
                            return;
                        }
                        let Some(accepted) = apply_batch(
                            ctx,
                            writer,
                            &mut conn_ok,
                            handle,
                            source,
                            bins,
                            peer_version,
                        ) else {
                            // Terminal (tenant closed / stopping): the
                            // partial batch stays unrecorded — a replay
                            // meets the same terminal refusal, never a
                            // double-apply.
                            return;
                        };
                        let win = windows.entry(source).or_default();
                        win.max_seen = Some(win.max_seen.map_or(seq, |hi| hi.max(seq)));
                        win.recent.push_back((seq, accepted));
                        while win.recent.len() > ctx.resume_window {
                            win.recent.pop_front();
                        }
                        accepted
                    }
                    None => {
                        let Some(accepted) = apply_batch(
                            ctx,
                            writer,
                            &mut conn_ok,
                            handle,
                            source,
                            bins,
                            peer_version,
                        ) else {
                            return;
                        };
                        accepted
                    }
                };
                ctx.stats.events_in.fetch_add(accepted as u64, Relaxed);
                if !conn_ok || !send(ctx, writer, &Frame::PushAck { seq, accepted }) {
                    ctx.stats.crash_closes.fetch_add(1, Relaxed);
                    return;
                }
            }
            Frame::Seal => match t.session.flush() {
                Ok(phases) => {
                    if !send(ctx, writer, &Frame::SealOk { phases }) {
                        ctx.stats.crash_closes.fetch_add(1, Relaxed);
                        return;
                    }
                }
                Err(e) => {
                    send(
                        ctx,
                        writer,
                        &Frame::Error {
                            reason: e.to_string(),
                        },
                    );
                    return;
                }
            },
            Frame::MetricsRequest => {
                let json = ctx
                    .pool
                    .metrics()
                    .iter()
                    .find(|r| r.name == t.name)
                    .map(|r| r.to_json())
                    .unwrap_or_else(|| "{}".into());
                if !send(ctx, writer, &Frame::MetricsReply { json }) {
                    ctx.stats.crash_closes.fetch_add(1, Relaxed);
                    return;
                }
            }
            Frame::Shutdown => {
                ctx.request_stop();
                send(ctx, writer, &Frame::ShutdownOk);
                return;
            }
            Frame::Ping { nonce } => {
                if !send(ctx, writer, &Frame::Pong { nonce }) {
                    ctx.stats.crash_closes.fetch_add(1, Relaxed);
                    return;
                }
            }
            Frame::Pong { .. } => {
                // Liveness answer; receiving any frame already reset
                // the idle clock.
            }
            Frame::Goodbye { .. } => {
                ctx.stats.clean_closes.fetch_add(1, Relaxed);
                return;
            }
            _ => {
                send(
                    ctx,
                    writer,
                    &Frame::Error {
                        reason: "unexpected frame on a producer connection".into(),
                    },
                );
                return;
            }
        }
    }
}

/// Applies a whole batch. Returns `Some(accepted)` once every bin has
/// entered the source's buffer — even if the client connection died
/// along the way (`conn_ok` flips false) — so that a recorded resume
/// entry always describes a fully-applied batch and a replay can be
/// re-acked safely. Returns `None` only on a terminal condition
/// (tenant closed, server stopping): then the partial batch must not
/// be recorded, and a replay meets the same terminal refusal.
fn apply_batch(
    ctx: &ServerCtx,
    writer: &mut impl Write,
    conn_ok: &mut bool,
    handle: &SourceHandle,
    source: u32,
    bins: Vec<Option<ec_events::Value>>,
    peer_version: u32,
) -> Option<u32> {
    let mut accepted = 0u32;
    for bin in bins {
        let Some(v) = bin else { continue };
        if !push_one(ctx, writer, conn_ok, handle, source, v, peer_version) {
            return None;
        }
        accepted += 1;
    }
    Some(accepted)
}

/// Pushes one event, surfacing a full buffer as `FlowControl(Block)`
/// and retrying until it lands (then `FlowControl(Open)`), pinging the
/// peer while blocked so its deadline sees a live server. A dead
/// client connection flips `conn_ok` but does not stop the push —
/// batch application must run to completion (see [`apply_batch`]).
/// False means a terminal condition: tenant closed or server stopping.
fn push_one(
    ctx: &ServerCtx,
    writer: &mut impl Write,
    conn_ok: &mut bool,
    handle: &SourceHandle,
    source: u32,
    value: ec_events::Value,
    peer_version: u32,
) -> bool {
    let mut blocked = false;
    let mut last_ping = Instant::now();
    loop {
        match handle.push(value.clone()) {
            Ok(()) => {
                if blocked
                    && *conn_ok
                    && !send(
                        ctx,
                        writer,
                        &Frame::FlowControl {
                            source,
                            state: FlowState::Open,
                        },
                    )
                {
                    *conn_ok = false;
                }
                return true;
            }
            Err(PushError::Full) => {
                if !blocked {
                    blocked = true;
                    ctx.stats.flow_blocks.fetch_add(1, Relaxed);
                    if *conn_ok
                        && !send(
                            ctx,
                            writer,
                            &Frame::FlowControl {
                                source,
                                state: FlowState::Block,
                            },
                        )
                    {
                        *conn_ok = false;
                    }
                }
                if ctx.stop.load(Relaxed) {
                    if *conn_ok {
                        send(
                            ctx,
                            writer,
                            &Frame::Error {
                                reason: "server shutting down".into(),
                            },
                        );
                    }
                    return false;
                }
                if *conn_ok && peer_version >= 2 && last_ping.elapsed() >= ctx.ping_interval {
                    last_ping = Instant::now();
                    ctx.stats.pings.fetch_add(1, Relaxed);
                    if !send(ctx, writer, &Frame::Ping { nonce: 0 }) {
                        *conn_ok = false;
                    }
                }
                handle.wait_space(FLOW_RECHECK.min(ctx.ping_interval));
            }
            Err(PushError::Closed) => {
                if *conn_ok {
                    send(
                        ctx,
                        writer,
                        &Frame::Error {
                            reason: "tenant closed".into(),
                        },
                    );
                }
                return false;
            }
        }
    }
}

/// The write side of a subscriber connection, shared by its two
/// halves. A frame is written whole under the lock, so the writer's
/// `AlarmBatch`es and the reader's `Pong`s never interleave.
type SharedWriter = Mutex<Box<dyn NetConn>>;

/// Serves one subscriber connection: waits for `SubscribeAlarms`,
/// registers a hub slot, then splits into a writer half (a second
/// thread, blocked on the hub) and a reader half (this thread, blocked
/// on the socket). Whichever half ends first closes the slot and shuts
/// the socket down, which is what unblocks the other.
fn subscriber_conn(
    ctx: &ServerCtx,
    t: &Tenant,
    mut reader: Box<dyn NetConn>,
    mut writer: Box<dyn NetConn>,
    peer_version: u32,
) {
    let mut fr = wire::FrameReader::new();
    let started = Instant::now();
    loop {
        match fr.read_from(&mut reader) {
            Ok(Some(Frame::SubscribeAlarms)) => {
                ctx.stats.frames_in.fetch_add(1, Relaxed);
                break;
            }
            Ok(Some(Frame::Goodbye { .. })) => {
                ctx.stats.frames_in.fetch_add(1, Relaxed);
                ctx.stats.clean_closes.fetch_add(1, Relaxed);
                return;
            }
            Ok(Some(_)) => {
                ctx.stats.frames_in.fetch_add(1, Relaxed);
                send(
                    ctx,
                    &mut writer,
                    &Frame::Error {
                        reason: "a subscriber must send SubscribeAlarms first".into(),
                    },
                );
                return;
            }
            Ok(None) => {
                if started.elapsed() >= ctx.idle_timeout {
                    ctx.stats.reaped.fetch_add(1, Relaxed);
                    abort(
                        ctx,
                        &mut writer,
                        peer_version,
                        "idle deadline exceeded: reaping half-open subscriber".into(),
                    );
                    return;
                }
            }
            Err(e) => {
                ctx.stats.crash_closes.fetch_add(1, Relaxed);
                if !e.is_disconnect() {
                    abort(ctx, &mut writer, peer_version, e.to_string());
                }
                return;
            }
        }
    }
    let id = t.hub.register(ctx.subscriber_buffer);
    // Acknowledge only once the slot exists: after SubscribeOk, every
    // retired alarm is either delivered or this subscriber is
    // disconnected — no silent registration gap.
    if send(ctx, &mut writer, &Frame::SubscribeOk) {
        let out: SharedWriter = Mutex::new(writer);
        std::thread::scope(|halves| {
            let spawned = std::thread::Builder::new()
                .name("ec-wire-sub-writer".into())
                .spawn_scoped(halves, || {
                    subscriber_writer(ctx, t, id, &out, peer_version);
                    // Unblocks the reader half's socket read.
                    let _ = out.lock().shutdown_both();
                });
            if spawned.is_ok() {
                subscriber_reader(ctx, t, id, &mut reader, fr, &out, peer_version);
            }
            // Unblocks the writer half, whether it waits on the hub or
            // is stuck in a socket write.
            t.hub.close(id);
            t.hub.cv.notify_all();
            let _ = reader.shutdown_both();
        });
    }
    t.hub.unregister(id);
}

/// Closes slot `id`, counting the disconnect in `counter` if this call
/// is the one that ended the connection (see [`Hub::close`]).
fn close_counting(t: &Tenant, id: u64, counter: &AtomicU64) -> bool {
    let first = t.hub.close(id);
    if first {
        counter.fetch_add(1, Relaxed);
    }
    first
}

/// The writer half: blocks on the hub and writes an `AlarmBatch` the
/// moment its slot holds alarms — whatever accumulated while the
/// previous write was in flight goes out as one frame, capped by
/// `alarm_batch`.
fn subscriber_writer(ctx: &ServerCtx, t: &Tenant, id: u64, out: &SharedWriter, peer_version: u32) {
    loop {
        match t.hub.next(id, ctx.alarm_batch) {
            Drained::Batch(chunks) => {
                let parts: Vec<&[WireAlarm]> = chunks.iter().map(Chunk::alarms).collect();
                let payload = wire::encode_alarm_batch(&parts);
                let alarms: usize = parts.iter().map(|p| p.len()).sum();
                if wire::write_payload(&mut *out.lock(), &payload).is_err() {
                    close_counting(t, id, &ctx.stats.crash_closes);
                    return;
                }
                let written = Instant::now();
                for chunk in &chunks {
                    // One residence sample per delivery batch, taken
                    // when its last alarm has gone out.
                    if chunk.range.end == chunk.batch.alarms.len() {
                        let hop = written.duration_since(chunk.batch.at);
                        ctx.stats.hop_nanos.record(hop.as_nanos() as u64);
                    }
                }
                ctx.stats.frame_alarms.record(alarms as u64);
                ctx.stats.alarms_out.fetch_add(alarms as u64, Relaxed);
                ctx.stats.frames_out.fetch_add(1, Relaxed);
            }
            Drained::Complete => {
                if t.hub.close(id) && peer_version >= 2 {
                    send(
                        ctx,
                        &mut *out.lock(),
                        &Frame::Goodbye {
                            reason: "server draining: alarm stream complete".into(),
                        },
                    );
                }
                return;
            }
            Drained::Overflowed => {
                if t.hub.close(id) {
                    send(
                        ctx,
                        &mut *out.lock(),
                        &Frame::Error {
                            reason: format!(
                                "subscriber buffer overflowed ({} alarms): reader too slow",
                                ctx.subscriber_buffer
                            ),
                        },
                    );
                }
                return;
            }
            Drained::Closed => return,
        }
    }
}

/// The reader half: blocks on the socket under the same deadlines as a
/// producer connection — each `ping_interval` of silence pings a v2
/// peer, `idle_timeout` of it reaps the connection — and handles what a
/// subscriber may send: `Ping`, `Pong`, `Goodbye`, or a close. (A v1
/// peer cannot answer a ping, so it is neither pinged nor reaped; its
/// death shows as a failed write.)
fn subscriber_reader(
    ctx: &ServerCtx,
    t: &Tenant,
    id: u64,
    reader: &mut Box<dyn NetConn>,
    mut fr: wire::FrameReader,
    out: &SharedWriter,
    peer_version: u32,
) {
    let mut last_frame = Instant::now();
    let mut ping_nonce = 0u64;
    loop {
        let frame = match fr.read_from(reader) {
            Ok(Some(f)) => f,
            Ok(None) => {
                if t.hub.is_closed(id) {
                    return;
                }
                if peer_version < 2 {
                    continue;
                }
                if last_frame.elapsed() >= ctx.idle_timeout {
                    if close_counting(t, id, &ctx.stats.reaped) {
                        abort(
                            ctx,
                            &mut *out.lock(),
                            peer_version,
                            "idle deadline exceeded: reaping half-open subscriber".into(),
                        );
                    }
                    return;
                }
                ping_nonce += 1;
                ctx.stats.pings.fetch_add(1, Relaxed);
                if !send(ctx, &mut *out.lock(), &Frame::Ping { nonce: ping_nonce }) {
                    close_counting(t, id, &ctx.stats.crash_closes);
                    return;
                }
                continue;
            }
            Err(e) => {
                if close_counting(t, id, &ctx.stats.crash_closes) && !e.is_disconnect() {
                    abort(ctx, &mut *out.lock(), peer_version, e.to_string());
                }
                return;
            }
        };
        last_frame = Instant::now();
        ctx.stats.frames_in.fetch_add(1, Relaxed);
        match frame {
            Frame::Ping { nonce } => {
                if !send(ctx, &mut *out.lock(), &Frame::Pong { nonce }) {
                    close_counting(t, id, &ctx.stats.crash_closes);
                    return;
                }
            }
            Frame::Pong { .. } => {}
            Frame::Goodbye { .. } => {
                close_counting(t, id, &ctx.stats.clean_closes);
                return;
            }
            _ => {
                if t.hub.close(id) {
                    send(
                        ctx,
                        &mut *out.lock(),
                        &Frame::Error {
                            reason: "unexpected frame on a subscriber connection".into(),
                        },
                    );
                }
                return;
            }
        }
    }
}
