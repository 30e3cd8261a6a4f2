//! The streaming runtime: live ingestion over the pipelined engine.
//!
//! ```text
//!  producers ──push──▶ sharded ingest buffers (one striped shard per
//!                         │ source; bounded, backpressured)
//!                         │ seal (flush / count / tick): O(1) swap per
//!                         ▼ source → pooled Arc'd epoch columns
//!            WAL append ── PhaseScript segment + LiveFeed columns
//!                         │ admit (batched + silence-aware: provably
//!                         ▼ silent source polls are never scheduled)
//!              LiveEngine (k workers, pipelined phases)
//!                         │ phases retire in order
//!                         ▼
//!              delivery thread ──▶ subscribers (serial order)
//! ```
//!
//! The runtime never touches the scheduling algorithm: it only decides
//! *when* the environment step runs (epoch sealing) and observes sink
//! emissions *after* their phase has retired. Serializability is
//! therefore inherited from the engine, and every run commits a
//! [`PhaseScript`] that replays the exact same history through the
//! sequential oracle.
//!
//! ## Durability
//!
//! With [`StreamRuntimeBuilder::durable`], sealing appends each
//! committed row to a write-ahead log (`ec-store`) *before* the phase
//! is admitted — the log is the authoritative commit, so a killed
//! process loses no accepted epoch. Periodic snapshots
//! ([`snapshot_every`](StreamRuntimeBuilder::snapshot_every),
//! [`snapshot_on_flush`](StreamRuntimeBuilder::snapshot_on_flush),
//! [`StreamRuntime::checkpoint`]) capture operator state at retired
//! phase boundaries to bound recovery time;
//! [`StreamRuntimeBuilder::restore`] rebuilds from the newest usable
//! snapshot, replays the log tail through the engine, and resumes at
//! the exact next phase with global phase numbering intact.

use crate::error::{PushError, RuntimeError};
use crate::ingest::IngestBuffers;
use crate::obs::MetricsRegistry;
use crate::policy::{Backpressure, EpochPolicy};
use crate::script::{PhaseScript, ScriptSegment};
use ec_core::{EnginePool, ExecutionHistory, LiveEngine, MetricsSnapshot, PathLatency};
use ec_events::{ColumnPool, FeedWriter, PhaseColumn, Value};
use ec_fusion::{CorrelatorBuilder, NodeHandle};
use ec_graph::VertexId;
use ec_obs::{
    FlightRecorder, HealthConfig, HealthMonitor, HealthReport, LaneObs, LogHistogram,
    MetricsServer, Observation, SourceObs, SpanKind,
};
use ec_store::{Recovery, Snapshotter, StoreIo, WalOptions, WalWriter};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One registered live source.
struct LiveSource {
    name: String,
    vertex: VertexId,
    writer: FeedWriter,
}

/// Durability configuration (immutable after build).
struct DurableCfg {
    dir: PathBuf,
    /// Snapshot automatically once this many phases have been admitted
    /// since the last snapshot.
    snapshot_every: Option<u64>,
    /// Snapshot after every explicit [`StreamRuntime::flush`].
    snapshot_on_flush: bool,
    /// WAL segment size bound (rotation threshold).
    segment_bytes: u64,
    /// Compact the WAL after this many successful snapshots (0 = never).
    compact_every: u64,
    /// Bounded retry for transient store errors.
    store_retry: StoreRetry,
    /// The I/O plane every store mutation goes through (swappable for
    /// fault injection).
    io: Arc<dyn StoreIo>,
}

impl DurableCfg {
    fn wal_options(&self) -> WalOptions {
        WalOptions {
            segment_bytes: self.segment_bytes,
            io: Arc::clone(&self.io),
        }
    }
}

/// Bounded-retry policy for transient store failures (see
/// [`StreamRuntimeBuilder::store_retry`]): `attempts` extra tries after
/// the first failure, sleeping `base_delay` before the first retry and
/// doubling it each time.
#[derive(Debug, Clone)]
pub struct StoreRetry {
    /// Extra attempts after the first failure.
    pub attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
}

impl Default for StoreRetry {
    fn default() -> Self {
        StoreRetry {
            attempts: 3,
            base_delay: Duration::from_millis(1),
        }
    }
}

/// Runs `op`, retrying transient failures per `retry` with exponential
/// backoff; counts retries into `retries`. Returns the first success or
/// the last error.
fn retry_store<T>(
    retry: &StoreRetry,
    retries: &AtomicU64,
    mut op: impl FnMut() -> Result<T, ec_store::StoreError>,
) -> Result<T, ec_store::StoreError> {
    let mut result = op();
    let mut delay = retry.base_delay;
    for _ in 0..retry.attempts {
        if result.is_ok() {
            break;
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        delay = delay.saturating_mul(2);
        retries.fetch_add(1, Relaxed);
        result = op();
    }
    result
}

/// Store-plane counters, rendered as `ec_store_*` on `/metrics`.
#[derive(Default)]
struct StoreStats {
    /// Successful WAL group commits.
    commits: AtomicU64,
    /// Retried store operations (commits, snapshots) after a failure.
    retries: AtomicU64,
    /// Live WAL bytes across all segments (gauge).
    wal_bytes: AtomicU64,
    /// Live WAL segment count (gauge).
    segments: AtomicU64,
    /// Full snapshots written.
    snapshots_full: AtomicU64,
    /// Incremental (delta) snapshots written.
    snapshots_delta: AtomicU64,
    /// Compactions that removed at least one segment.
    compactions: AtomicU64,
    /// 1 once durability was suspended (degraded mode).
    degraded: AtomicU64,
}

/// A plain copy of [`StoreStats`] for rendering.
pub(crate) struct StoreStatsSnapshot {
    pub(crate) commits: u64,
    pub(crate) retries: u64,
    pub(crate) wal_bytes: u64,
    pub(crate) segments: u64,
    pub(crate) snapshots_full: u64,
    pub(crate) snapshots_delta: u64,
    pub(crate) compactions: u64,
    pub(crate) degraded: bool,
}

impl StoreStats {
    fn snapshot(&self) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            commits: self.commits.load(Relaxed),
            retries: self.retries.load(Relaxed),
            wal_bytes: self.wal_bytes.load(Relaxed),
            segments: self.segments.load(Relaxed),
            snapshots_full: self.snapshots_full.load(Relaxed),
            snapshots_delta: self.snapshots_delta.load(Relaxed),
            compactions: self.compactions.load(Relaxed),
            degraded: self.degraded.load(Relaxed) != 0,
        }
    }
}

/// Seal-side state: the WAL, the committed columnar script and the
/// column pool. One mutex serializes *seals* (and snapshots) against
/// each other — producers never touch it; they push into the sharded
/// [`IngestBuffers`] and only the pusher that triggers an automatic
/// seal crosses over. The interleaving of pushes and flushes is still a
/// well-defined sequence of committed rows: each seal's drain is the
/// commit point, and the WAL records exactly that sequence.
struct SealState {
    wal: Option<WalWriter>,
    /// Committed script segments (empty when `record_script` is off):
    /// the same `Arc`'d columns handed to the WAL and the live feeds.
    script: Vec<ScriptSegment>,
    /// Recycler for epoch column storage: in steady state a seal
    /// allocates nothing.
    pool: ColumnPool,
    /// Phase of the last snapshot written (0 = none yet).
    last_snapshot: u64,
    /// First snapshot failure, if any: periodic snapshots stop (the WAL
    /// alone still guarantees recovery) and the error surfaces on the
    /// next explicit flush/tick/checkpoint call.
    snapshot_error: Option<RuntimeError>,
    /// Incremental-snapshot cadence: deltas between fulls, diffed
    /// against the previously captured state.
    snapshotter: Snapshotter,
    /// Successful snapshots since the last compaction.
    snapshots_since_compact: u64,
}

/// Default trace sampling rate: 1 in 64 pushes carries a causal trace.
const DEFAULT_TRACE_SAMPLING: u64 = 64;

/// Bound on traces awaiting delivery. Past it the oldest are dropped —
/// sampling loss, never memory growth, when subscribers lag far behind.
const MAX_PENDING_TRACES: usize = 4096;

/// One sampled event between its seal (phase assignment) and its
/// phase's sink delivery.
struct PendingTrace {
    phase: u64,
    /// Live-source slot the event entered through.
    slot: usize,
    trace_id: u64,
    /// Push timestamp, nanoseconds since [`TracePlane::epoch`].
    ingest_nanos: u64,
}

/// The causal-tracing plane: samples producer pushes 1-in-N, assigns
/// trace ids, and accumulates end-to-end (source, sink) latency
/// histograms as traced phases deliver.
struct TracePlane {
    /// Power-of-two sampling interval (a push is sampled when its
    /// source's counter hits a multiple of it).
    mask: u64,
    /// Per-source push counters (sampling is per source, so a quiet
    /// source still gets traces).
    counters: Vec<AtomicU64>,
    next_id: AtomicU64,
    /// The clock all trace timestamps are relative to.
    epoch: Instant,
    /// Traces sealed into phases, awaiting those phases' deliveries.
    /// Globally phase-sorted: seals serialize under the seal lock and
    /// each appends its batch in phase order.
    pending: Mutex<VecDeque<PendingTrace>>,
    /// End-to-end latency per (source slot, sink vertex index) path.
    /// Written only by the delivery thread; snapshotted by scrapes.
    e2e: Mutex<HashMap<(usize, usize), LogHistogram>>,
}

impl TracePlane {
    fn new(sample_every: u64, sources: usize) -> TracePlane {
        TracePlane {
            mask: sample_every.max(1).next_power_of_two() - 1,
            counters: (0..sources).map(|_| AtomicU64::new(0)).collect(),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            pending: Mutex::new(VecDeque::new()),
            e2e: Mutex::new(HashMap::new()),
        }
    }

    /// Nanoseconds since the trace epoch.
    fn nanos_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Decides whether this push is sampled; if so returns its
    /// `(trace_id, ingest_nanos)` stamp. One relaxed `fetch_add` on the
    /// unsampled path.
    fn maybe_stamp(&self, slot: usize) -> Option<(u64, u64)> {
        if self.counters[slot].fetch_add(1, Relaxed) & self.mask != 0 {
            return None;
        }
        let id = self.next_id.fetch_add(1, Relaxed);
        Some((id, self.nanos_now()))
    }

    /// Snapshots the accumulated (source, sink) histograms, resolving
    /// indices to names.
    fn path_snapshots(&self, live: &[LiveSource], names: &[Arc<str>]) -> Vec<PathLatency> {
        let e2e = self.e2e.lock();
        let mut paths: Vec<PathLatency> = e2e
            .iter()
            .map(|((slot, sink), hist)| PathLatency {
                source: live[*slot].name.clone(),
                sink: names[*sink].to_string(),
                hist: hist.snapshot(),
            })
            .collect();
        paths.sort_by(|a, b| a.source.cmp(&b.source).then(a.sink.cmp(&b.sink)));
        paths
    }
}

/// A sink emission delivered to subscribers, in serial (phase, vertex)
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkEmission {
    /// The sink node's name (as given to the builder). Shared, so
    /// fan-out to many subscribers does not copy the string.
    pub name: Arc<str>,
    /// The sink vertex.
    pub vertex: VertexId,
    /// The phase that produced the value.
    pub phase: u64,
    /// The emitted value.
    pub value: Value,
}

type Subscriber = Box<dyn FnMut(&SinkEmission) + Send>;
type BatchSubscriber = Box<dyn FnMut(&[SinkEmission]) + Send>;

/// Everything the delivery loop calls per retirement drain.
#[derive(Default)]
struct Subscribers {
    /// Called once per emission.
    each: Vec<Subscriber>,
    /// Called once per drain with all of its emissions.
    batch: Vec<BatchSubscriber>,
}

/// How far delivery has got, for [`StreamRuntime::wait_delivered`].
#[derive(Default)]
struct DeliveryProgress {
    /// Every emission of phases up to here has been handed to every
    /// subscriber (`u64::MAX` once the delivery loop has exited).
    frontier: u64,
    /// Callers blocked in `wait_delivered`; the delivery loop signals
    /// the condvar only when there are any.
    waiters: usize,
}

struct RuntimeShared {
    engine: LiveEngine,
    /// The sharded producer front door: per-source striped buffers.
    buffers: IngestBuffers,
    /// Seal/snapshot serialization and the state only seals touch.
    seal: Mutex<SealState>,
    subs: Mutex<Subscribers>,
    delivered: Mutex<DeliveryProgress>,
    delivered_cv: Condvar,
    /// No more pushes/seals accepted.
    stop: AtomicBool,
    /// Stops the interval ticker (set before the final flush so the
    /// ticker cannot race extra phases into a closing runtime).
    ticker_stop: AtomicBool,
    live: Vec<LiveSource>,
    /// Live-source slot per vertex, indexed by `VertexId::index()`
    /// (`None` for operators and scripted sources) — the map behind
    /// silence-aware admission.
    source_slot: Vec<Option<usize>>,
    /// Vertex names, indexed by `VertexId::index()`.
    names: Vec<Arc<str>>,
    policy: EpochPolicy,
    backpressure: Backpressure,
    capacity: usize,
    /// Record committed rows into the [`PhaseScript`]. Off for
    /// long-running services, where the script would grow without
    /// bound (the WAL, if enabled, still records every row).
    record_script: bool,
    durable: Option<DurableCfg>,
    /// Events committed to phases so far (counted at seal; per-tenant
    /// observability for session pools).
    events_committed: AtomicU64,
    /// Seals that committed at least one phase.
    seal_batches: AtomicU64,
    /// Events drained by those seals (mean drain batch size =
    /// `seal_events / seal_batches`).
    seal_events: AtomicU64,
    /// WAL group-commit durations (one sample per non-empty commit).
    wal_hist: LogHistogram,
    /// Producer push-wait durations: time a `push` spent bounced off a
    /// full ingest shard before succeeding.
    ingest_wait_hist: LogHistogram,
    /// Flight recorder shared with the engine, when one was configured
    /// ([`StreamRuntimeBuilder::flight_recorder`]). The runtime records
    /// its control-plane events (seal, WAL commit, snapshot) on lane 0.
    recorder: Option<Arc<FlightRecorder>>,
    /// Causal trace sampling, `None` when disabled
    /// ([`StreamRuntimeBuilder::trace_sampling`] of 0).
    trace: Option<TracePlane>,
    /// The watchdog, fed by the delivery loop; always on (its cost is
    /// one observation per delivery wakeup).
    health: HealthMonitor,
    /// `Some(reason)` once durability was suspended after a persistent
    /// store failure — ingest keeps flowing, the WAL is closed, and the
    /// reason (`"degraded: wal <path>: <cause>"`) is reported by the
    /// health plane until restart.
    degraded: Mutex<Option<String>>,
    /// Store-plane counters (`ec_store_*`).
    store_stats: StoreStats,
}

impl RuntimeShared {
    /// Seals the current epoch: swaps every source's buffered column
    /// out of the sharded ingest buffers (O(1) per source), commits
    /// `max(longest buffer, min_phases)` phases, stages the WAL frames
    /// (when durable), hands each frozen column to its live feed and
    /// the script as a shared `Arc`, then admits the whole batch
    /// through one or few lock acquisitions. Caller holds the seal
    /// lock; producers keep pushing into the buffers throughout.
    fn seal_locked(&self, seal: &mut SealState, min_phases: u64) -> Result<u64, RuntimeError> {
        // A closed runtime seals nothing: bins staged by an aborted
        // seal must never be consumed by a later admission, or live
        // phases would desynchronize from the WAL.
        if self.stop.load(Relaxed) {
            return Err(RuntimeError::Closed);
        }
        // The drain is the commit point: whatever each shard swap
        // observed is this epoch's binning. Pushes racing the drain
        // land in the next epoch.
        let mut drained = self.buffers.drain(&mut seal.pool);
        let longest = drained
            .iter()
            .map(|(bins, _)| bins.len())
            .max()
            .unwrap_or(0) as u64;
        let phases = longest.max(min_phases);
        if phases == 0 {
            for (bins, _) in drained {
                seal.pool.give_back(bins);
            }
            return Ok(0);
        }
        // Phase numbering for this epoch: bin `r` becomes phase
        // `base + r + 1`. All admission happens under the seal lock we
        // hold, so `admitted()` here is exactly the base the admit loop
        // below continues from — which lets sampled trace stamps be
        // resolved to their final phase numbers before admission.
        let base = self.engine.admitted();
        // Freeze the epoch: each drained buffer *is* its source's
        // column — pad the shorter ones with silent bins and share.
        // Events were appended in FIFO push order, so no per-event
        // move or per-row allocation happens here. Sampled trace stamps
        // ride their column; their phases are marked in the engine
        // *before* admission so exec/retire spans bypass sampling.
        let mut events = 0u64;
        let mut traces: Vec<PendingTrace> = Vec::new();
        let cols: Vec<Arc<PhaseColumn>> = drained
            .drain(..)
            .enumerate()
            .map(|(slot, (mut bins, stamps))| {
                events += bins.len() as u64;
                bins.resize(phases as usize, None);
                for s in &stamps {
                    let phase = base + s.bin as u64 + 1;
                    self.engine.mark_traced(phase);
                    traces.push(PendingTrace {
                        phase,
                        slot,
                        trace_id: s.trace_id,
                        ingest_nanos: s.ingest_nanos,
                    });
                }
                seal.pool.seal_stamped(bins, stamps)
            })
            .collect();
        // Stage all the epoch's WAL frames into the writer's buffer
        // (encoded row-major from the columns, via the writer's
        // recycled scratch) and flush them with a single `write_all` —
        // group commit, one syscall per epoch instead of one per row.
        // The commit is the durable cut point: bins are staged for the
        // engine only after the whole epoch has reached the OS. A WAL
        // failure (disk full, I/O error) gets a bounded retry with
        // exponential backoff — the writer's repair path truncates the
        // partial batch and rewrites it, so a retried commit is
        // exactly-once. If the failure persists the runtime flips to
        // DEGRADED instead of stopping: the WAL is closed, ingest keeps
        // flowing (this epoch included, now without a durability
        // guarantee), and the health plane reports `degraded: wal` with
        // the failing path until restart.
        let mut suspend_wal = false;
        if let Some(wal) = seal.wal.as_mut() {
            for r in 0..phases as usize {
                wal.stage_row_bins(cols.iter().map(|c| c[r].as_ref()));
            }
            let retry = self
                .durable
                .as_ref()
                .map(|cfg| cfg.store_retry.clone())
                .unwrap_or_default();
            match retry_store(&retry, &self.store_stats.retries, || wal.commit()) {
                Err(e) => {
                    let dir = self
                        .durable
                        .as_ref()
                        .map(|cfg| ec_store::wal_dir(&cfg.dir))
                        .unwrap_or_default();
                    let reason = format!("degraded: wal {}: {e}", dir.display());
                    *self.degraded.lock() = Some(reason);
                    self.store_stats.degraded.store(1, Relaxed);
                    suspend_wal = true;
                }
                Ok(rows) if rows > 0 => {
                    self.store_stats.commits.fetch_add(1, Relaxed);
                    self.store_stats.wal_bytes.store(wal.wal_bytes(), Relaxed);
                    self.store_stats
                        .segments
                        .store(wal.segment_count(), Relaxed);
                    let commit_nanos = wal.last_commit_nanos();
                    self.wal_hist.record(commit_nanos);
                    if let Some(r) = &self.recorder {
                        r.record_span(0, SpanKind::WalCommit, rows, 0, commit_nanos);
                    }
                }
                Ok(_) => {}
            }
        }
        if suspend_wal {
            // Dropping the writer is safe here: a failed commit leaves
            // it in its repair state, which skips the drop-time flush.
            seal.wal = None;
        }
        let staged = phases;
        for (source, col) in self.live.iter().zip(&cols) {
            source.writer.stage_column_sparse(Arc::clone(col));
        }
        self.events_committed.fetch_add(events, Relaxed);
        self.seal_batches.fetch_add(1, Relaxed);
        self.seal_events.fetch_add(events, Relaxed);
        if let Some(r) = &self.recorder {
            r.record(0, SpanKind::EpochSealed, phases, events);
        }
        // Admit the batch: one global-lock acquisition per in-flight
        // window instead of one per phase, and *silence-aware* — the
        // columns say exactly which sources are silent in which phases,
        // so those executions (provable no-ops: poll `None`, emit
        // nothing) are never scheduled at all. Admission may block on
        // the engine's throttle; the workers drain independently, so
        // this self-resolves.
        let mut admitted = 0u64;
        let mut refused = None;
        while admitted < staged {
            let base = admitted as usize;
            match self
                .engine
                .admit_batch_sparse(staged - admitted, |offset, vertex| {
                    self.live_slot(vertex)
                        .is_some_and(|slot| cols[slot][base + offset as usize].is_none())
                }) {
                Ok(n) => admitted += n,
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        // Register sealed traces for the delivery thread, only for
        // phases that were actually admitted. The deque stays globally
        // phase-sorted: seals serialize, and this batch's phases all
        // follow every previous batch's.
        if let Some(tp) = &self.trace {
            if !traces.is_empty() {
                let limit = base + admitted;
                traces.retain(|t| t.phase <= limit);
                traces.sort_by_key(|t| t.phase);
                let mut pending = tp.pending.lock();
                pending.extend(traces);
                while pending.len() > MAX_PENDING_TRACES {
                    pending.pop_front();
                }
            }
        }
        // Record only what actually ran: refused admissions (engine
        // failed or closing) must not leave committed rows behind. The
        // staged bins past the admitted point are never polled — the
        // engine admits no further phases. (WAL rows stay: the log is
        // the durable commit and restore will replay them.) Truncation
        // is O(1): the columns stay shared, only the bound moves.
        if self.record_script && admitted > 0 {
            let mut segment = ScriptSegment::new(cols, phases as usize);
            segment.truncate(admitted as usize);
            seal.script.push(segment);
        }
        match refused {
            Some(e) => Err(e.into()),
            None => Ok(staged),
        }
    }

    /// The live-source slot of a vertex (`None` for operators and
    /// scripted sources — the ones silence-aware admission must never
    /// skip).
    fn live_slot(&self, vertex: VertexId) -> Option<usize> {
        self.source_slot.get(vertex.index()).copied().flatten()
    }

    /// Engine counters plus the ingest-side counters the runtime owns.
    fn metrics_with_ingest(&self) -> MetricsSnapshot {
        let mut m = self.engine.metrics();
        self.fill_ingest(&mut m);
        m
    }

    /// Fills the ingest-side counters and runtime-owned latency
    /// histograms into a snapshot (shared by
    /// [`metrics_with_ingest`](Self::metrics_with_ingest) and the final
    /// shutdown report, so a new counter cannot be forgotten in one).
    fn fill_ingest(&self, m: &mut MetricsSnapshot) {
        m.ingest.depths = self.buffers.depths();
        m.ingest.sources = self.live.iter().map(|s| s.name.clone()).collect();
        m.ingest.waits = self.buffers.waits();
        m.ingest.source_waits = self.buffers.wait_counts();
        m.ingest.seal_batches = self.seal_batches.load(Relaxed);
        m.ingest.seal_events = self.seal_events.load(Relaxed);
        m.latency.wal_commit = self.wal_hist.snapshot();
        m.latency.ingest_wait = self.ingest_wait_hist.snapshot();
        if let Some(tp) = &self.trace {
            m.latency.e2e = tp.path_snapshots(&self.live, &self.names);
        }
    }

    /// Takes a snapshot at the current retired boundary. Caller holds
    /// the seal lock (so no seal can interleave); waits for every
    /// admitted phase to retire first — a stop-the-world pause, which is
    /// what makes the captured state a serializable cut. Producers keep
    /// buffering throughout: unsealed events are not yet committed, so
    /// they do not belong to the cut.
    fn checkpoint_locked(&self, seal: &mut SealState) -> Result<u64, RuntimeError> {
        let Some(cfg) = &self.durable else {
            return Err(RuntimeError::Config(
                "checkpoint requires a durable runtime (StreamRuntimeBuilder::durable)".into(),
            ));
        };
        if let Some(reason) = self.degraded.lock().clone() {
            return Err(RuntimeError::Store(format!(
                "checkpoint refused: durability suspended ({reason})"
            )));
        }
        let start = Instant::now();
        self.engine.wait_idle()?;
        let checkpoint = self.engine.checkpoint_vertices()?;
        let names: Vec<String> = self.names.iter().map(|n| n.to_string()).collect();
        // Incremental snapshots: the snapshotter writes a delta of the
        // changed vertices, falling back to a full snapshot every K
        // increments (and on its first write after a restart). Errors
        // leave its memory unchanged, so a retry rewrites the same
        // file.
        let outcome = retry_store(&cfg.store_retry, &self.store_stats.retries, || {
            seal.snapshotter
                .write(&cfg.dir, &names, &checkpoint, &cfg.io)
        })
        .map_err(RuntimeError::from)?;
        if outcome.full {
            self.store_stats.snapshots_full.fetch_add(1, Relaxed);
        } else {
            self.store_stats.snapshots_delta.fetch_add(1, Relaxed);
        }
        if let Some(wal) = seal.wal.as_mut() {
            retry_store(&cfg.store_retry, &self.store_stats.retries, || wal.sync())?;
        }
        seal.last_snapshot = checkpoint.phase;
        // Compaction: with the snapshot durable, segments whose every
        // row it covers are replay-dead — drop them so a long-running
        // stream's disk usage stays bounded. Best-effort: a failed
        // compaction only leaves extra segments behind.
        seal.snapshots_since_compact += 1;
        if cfg.compact_every > 0 && seal.snapshots_since_compact >= cfg.compact_every {
            seal.snapshots_since_compact = 0;
            if let Some(wal) = seal.wal.as_mut() {
                if let Ok(report) = wal.compact(seal.last_snapshot) {
                    if report.changed() {
                        self.store_stats.compactions.fetch_add(1, Relaxed);
                    }
                }
            }
        }
        if let Some(wal) = seal.wal.as_ref() {
            self.store_stats.wal_bytes.store(wal.wal_bytes(), Relaxed);
            self.store_stats
                .segments
                .store(wal.segment_count(), Relaxed);
        }
        if let Some(r) = &self.recorder {
            r.record_span(
                0,
                SpanKind::Snapshot,
                checkpoint.phase,
                0,
                start.elapsed().as_nanos() as u64,
            );
        }
        Ok(checkpoint.phase)
    }

    /// Runs the automatic every-k-phases snapshot policy after a seal.
    /// Failures do not poison the seal (the WAL remains authoritative):
    /// the first error is remembered, periodic snapshots stop, and the
    /// error surfaces on the next explicit flush/tick/checkpoint.
    fn maybe_checkpoint_locked(&self, seal: &mut SealState) {
        let Some(cfg) = &self.durable else { return };
        let Some(every) = cfg.snapshot_every else {
            return;
        };
        if seal.snapshot_error.is_some() {
            return;
        }
        if self.engine.admitted().saturating_sub(seal.last_snapshot) >= every {
            if let Err(e) = self.checkpoint_locked(seal) {
                seal.snapshot_error = Some(e);
            }
        }
    }

    /// Surfaces (and clears) a deferred snapshot failure.
    fn take_snapshot_error(&self, seal: &mut SealState) -> Result<(), RuntimeError> {
        match seal.snapshot_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Closes sampled traces against a retired-sink batch: for every
    /// record whose phase carries pending traces, records push→delivery
    /// latency into the (source, sink) path histogram and emits a
    /// `TraceDeliver` span. `records` arrive in (phase, vertex) order
    /// and the pending deque is phase-sorted, so one forward walk
    /// suffices; traces for phases *before* a record's (their phases
    /// produced no sink output up to here) are discarded as the walk
    /// passes them.
    fn match_traces(&self, records: &[ec_core::SinkRecord]) {
        let Some(tp) = &self.trace else { return };
        let mut pending = tp.pending.lock();
        if pending.is_empty() {
            return;
        }
        let now = tp.nanos_now();
        let mut e2e = tp.e2e.lock();
        for r in records {
            let phase = r.phase.get();
            while pending.front().is_some_and(|t| t.phase < phase) {
                pending.pop_front();
            }
            // Multiple sinks can deliver the same phase, so matching
            // traces are *read*, not popped — the purge after the drain
            // retires them.
            for t in pending.iter().take_while(|t| t.phase == phase) {
                let nanos = now.saturating_sub(t.ingest_nanos);
                e2e.entry((t.slot, r.vertex.index()))
                    .or_insert_with(LogHistogram::new)
                    .record(nanos);
                if let Some(rec) = &self.recorder {
                    rec.record_span(0, SpanKind::TraceDeliver, t.trace_id, phase, nanos);
                }
            }
        }
    }

    /// Drops pending traces whose phases have fully retired — they
    /// either matched sink records in [`match_traces`] or their phases
    /// produced no sink output at all.
    fn purge_traces(&self, frontier: u64) {
        if let Some(tp) = &self.trace {
            let mut pending = tp.pending.lock();
            while pending.front().is_some_and(|t| t.phase <= frontier) {
                pending.pop_front();
            }
        }
    }

    /// Feeds one progress sample to the watchdog (called from the
    /// delivery loop, throttled by its wait cadence).
    fn observe_health(&self) {
        let depths = self.buffers.depths();
        let waits = self.buffers.wait_counts();
        let sources = self
            .live
            .iter()
            .zip(depths.iter().zip(&waits))
            .map(|(s, (&depth, &w))| SourceObs {
                name: s.name.clone(),
                depth: depth as usize,
                capacity: self.capacity,
                waits: w,
            })
            .collect();
        self.health.observe(
            Instant::now(),
            Observation {
                admitted: self.engine.admitted(),
                retired: self.engine.completed_through(),
                sources,
                lanes: vec![LaneObs {
                    name: "runtime".into(),
                    events: self.events_committed.load(Relaxed),
                }],
                faults: self.degraded.lock().clone().into_iter().collect(),
            },
        );
    }

    fn deliver(&self, records: Vec<ec_core::SinkRecord>) {
        if records.is_empty() {
            return;
        }
        self.match_traces(&records);
        let emissions: Vec<SinkEmission> = records
            .into_iter()
            .map(|r| SinkEmission {
                name: Arc::clone(&self.names[r.vertex.index()]),
                vertex: r.vertex,
                phase: r.phase.get(),
                value: r.value,
            })
            .collect();
        let mut subs = self.subs.lock();
        for emission in &emissions {
            for sub in subs.each.iter_mut() {
                sub(emission);
            }
        }
        for sub in subs.batch.iter_mut() {
            sub(&emissions);
        }
    }

    /// Publishes the delivered frontier to `wait_delivered` callers.
    fn mark_delivered(&self, frontier: u64) {
        let mut progress = self.delivered.lock();
        progress.frontier = frontier;
        if progress.waiters > 0 {
            self.delivered_cv.notify_all();
        }
    }

    /// The delivery loop: waits for phases to retire and forwards their
    /// sink emissions to subscribers in serial order. Doubles as the
    /// watchdog driver: each wakeup (at most every ~50 ms when idle)
    /// feeds the health monitor a progress sample — no extra thread.
    fn delivery_loop(&self) {
        self.deliver_until_stopped();
        // Nothing further will be delivered: release any waiter.
        self.mark_delivered(u64::MAX);
    }

    fn deliver_until_stopped(&self) {
        let mut last = 0u64;
        let mut last_health = Instant::now();
        loop {
            let frontier = match self
                .engine
                .wait_progress_for(last, Duration::from_millis(50))
            {
                Ok(f) => f,
                Err(_) => {
                    // Engine failed: nothing further will retire (the
                    // error surfaces through shutdown()/wait_idle()),
                    // but phases that did retire still get delivered.
                    self.deliver(self.engine.drain_retired_sinks());
                    break;
                }
            };
            let progressed = frontier > last;
            if progressed {
                self.deliver(self.engine.drain_retired_sinks());
                self.purge_traces(frontier);
                last = frontier;
                self.mark_delivered(frontier);
            }
            if last_health.elapsed() >= Duration::from_millis(50) {
                self.observe_health();
                last_health = Instant::now();
            }
            if self.stop.load(Relaxed) {
                // Shutdown path: everything admitted has completed by
                // now; one final drain empties the buffer.
                self.deliver(self.engine.drain_retired_sinks());
                break;
            }
            if !progressed && self.engine.closing() {
                // The engine is quiescing for shutdown, so
                // wait_progress_for returns immediately — pause briefly
                // so that window doesn't busy-spin on the scheduler
                // lock while workers drain. (An idle stream's timed-out
                // wait goes straight back to waiting: a phase retiring
                // now must not sit out a sleep.)
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Builds a [`StreamRuntime`]: graph wiring plus runtime policy.
///
/// Wraps a [`CorrelatorBuilder`], adding live sources; operators and
/// scripted sources pass through to the correlator untouched.
pub struct StreamRuntimeBuilder {
    correlator: CorrelatorBuilder,
    live: Vec<LiveSource>,
    policy: EpochPolicy,
    backpressure: Backpressure,
    capacity: usize,
    threads: usize,
    max_inflight: u64,
    record_history: bool,
    record_script: bool,
    subs: Vec<Subscriber>,
    durable_dir: Option<PathBuf>,
    snapshot_every: Option<u64>,
    snapshot_on_flush: bool,
    wal_sync_every: Option<u64>,
    segment_bytes: u64,
    compact_every: u64,
    snapshot_full_every: u32,
    store_retry: StoreRetry,
    store_io: Option<Arc<dyn StoreIo>>,
    pool: Option<EnginePool>,
    pool_weight: u32,
    metrics_addr: Option<String>,
    recorder_capacity: Option<usize>,
    trace_sampling: u64,
    health_config: Option<HealthConfig>,
}

impl Default for StreamRuntimeBuilder {
    fn default() -> Self {
        StreamRuntimeBuilder::new()
    }
}

impl StreamRuntimeBuilder {
    /// New empty builder with defaults: manual epochs, blocking
    /// backpressure, 1024-event queues, 4 threads, engine-default
    /// in-flight bound, history recording on, no durability.
    pub fn new() -> StreamRuntimeBuilder {
        StreamRuntimeBuilder::from_correlator(CorrelatorBuilder::new(), Vec::new())
    }

    /// Wraps an already-started correlator. `feeds` lists its existing
    /// live sources (from [`CorrelatorBuilder::live_source`]) in wiring
    /// order; this is the path used by spec-driven construction.
    pub fn from_correlator(
        correlator: CorrelatorBuilder,
        feeds: Vec<(String, NodeHandle, FeedWriter)>,
    ) -> StreamRuntimeBuilder {
        StreamRuntimeBuilder {
            correlator,
            live: feeds
                .into_iter()
                .map(|(name, handle, writer)| LiveSource {
                    name,
                    vertex: handle.vertex(),
                    writer,
                })
                .collect(),
            policy: EpochPolicy::Manual,
            backpressure: Backpressure::Block,
            capacity: 1024,
            threads: 4,
            max_inflight: 64,
            record_history: true,
            record_script: true,
            subs: Vec::new(),
            durable_dir: None,
            snapshot_every: None,
            snapshot_on_flush: false,
            wal_sync_every: None,
            segment_bytes: ec_store::DEFAULT_SEGMENT_BYTES,
            compact_every: 1,
            snapshot_full_every: 4,
            store_retry: StoreRetry::default(),
            store_io: None,
            pool: None,
            pool_weight: 1,
            metrics_addr: None,
            recorder_capacity: None,
            trace_sampling: DEFAULT_TRACE_SAMPLING,
            health_config: None,
        }
    }

    /// Registers a subscriber **before** the runtime starts, so no
    /// emission can be missed — with a ticking epoch policy, phases can
    /// retire between `build()` and a later
    /// [`StreamRuntime::subscribe`] call.
    pub fn subscribe(mut self, f: impl FnMut(&SinkEmission) + Send + 'static) -> Self {
        self.subs.push(Box::new(f));
        self
    }

    /// Adds a live source; events are pushed through the runtime's
    /// [`SourceHandle`] for this node.
    pub fn live_source(&mut self, name: impl Into<String>) -> NodeHandle {
        let name = name.into();
        let (handle, writer) = self.correlator.live_source(name.clone());
        self.live.push(LiveSource {
            name,
            vertex: handle.vertex(),
            writer,
        });
        handle
    }

    /// Adds a scripted source (see
    /// [`CorrelatorBuilder::source`]) — useful for mixing live feeds
    /// with reference signals.
    pub fn source(
        &mut self,
        name: impl Into<String>,
        generator: impl ec_events::EventSource + 'static,
    ) -> NodeHandle {
        self.correlator.source(name, generator)
    }

    /// Adds a computation node (see [`CorrelatorBuilder::add`]).
    pub fn add(
        &mut self,
        name: impl Into<String>,
        module: impl ec_core::Module + 'static,
        inputs: &[NodeHandle],
    ) -> NodeHandle {
        self.correlator.add(name, module, inputs)
    }

    /// Direct access to the wrapped correlator for anything else.
    pub fn correlator_mut(&mut self) -> &mut CorrelatorBuilder {
        &mut self.correlator
    }

    /// Sets the epoch policy (default [`EpochPolicy::Manual`]).
    pub fn epoch_policy(mut self, policy: EpochPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the backpressure mode (default [`Backpressure::Block`]).
    pub fn backpressure(mut self, mode: Backpressure) -> Self {
        self.backpressure = mode;
        self
    }

    /// Sets the per-source ingest queue capacity (default 1024).
    pub fn ingest_capacity(mut self, events: usize) -> Self {
        self.capacity = events.max(1);
        self
    }

    /// Sets the engine worker count (default 4).
    pub fn threads(mut self, k: usize) -> Self {
        self.threads = k.max(1);
        self
    }

    /// Bounds started-but-incomplete phases (default 64).
    pub fn max_inflight(mut self, phases: u64) -> Self {
        self.max_inflight = phases.max(1);
        self
    }

    /// Records the full execution history (default on; turn off for
    /// long-running services and benchmarks).
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Records the committed [`PhaseScript`] (default on). The script
    /// grows by one row per phase forever, so long-running services
    /// should turn it off alongside
    /// [`record_history`](Self::record_history); [`StreamRuntime::script`]
    /// and the final report's script are then empty. A durable runtime
    /// still logs every row to the WAL regardless of this setting.
    pub fn record_script(mut self, on: bool) -> Self {
        self.record_script = on;
        self
    }

    /// Enables durability: every committed row is appended to a
    /// write-ahead log in `dir` before its phase is admitted, so a
    /// killed process can be [`restore`](Self::restore)d to the exact
    /// next phase. [`build`](Self::build) creates a fresh store and
    /// refuses to overwrite an existing one; [`restore`](Self::restore)
    /// opens an existing store.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// With [`durable`](Self::durable): automatically snapshot operator
    /// state once `phases` phases have been admitted since the last
    /// snapshot. Snapshots bound recovery time; without any, restore
    /// replays the whole WAL from phase 1 (always correct, just
    /// slower). Requires every module in the graph to support
    /// [`snapshot_state`](ec_core::Module::snapshot_state).
    pub fn snapshot_every(mut self, phases: u64) -> Self {
        self.snapshot_every = Some(phases.max(1));
        self
    }

    /// With [`durable`](Self::durable): snapshot after every explicit
    /// [`StreamRuntime::flush`].
    pub fn snapshot_on_flush(mut self, on: bool) -> Self {
        self.snapshot_on_flush = on;
        self
    }

    /// Runs this runtime's engine on a shared [`EnginePool`] instead of
    /// private worker threads — the multi-tenant mode (see
    /// [`SessionPool`](crate::SessionPool), which calls this for every
    /// session it opens). [`threads`](Self::threads) is ignored (the
    /// pool's worker count applies); [`max_inflight`](Self::max_inflight)
    /// becomes this tenant's in-flight cap on the shared pool.
    pub fn pool(mut self, pool: &EnginePool) -> Self {
        self.pool = Some(pool.clone());
        self
    }

    /// With [`pool`](Self::pool): this tenant's weighted-round-robin
    /// admission weight (default 1) — its relative share of the shared
    /// pool's admission bandwidth under contention.
    pub fn pool_weight(mut self, weight: u32) -> Self {
        self.pool_weight = weight.max(1);
        self
    }

    /// Serves live Prometheus metrics at `addr` (e.g.
    /// `"127.0.0.1:9184"`; port 0 picks a free one, reported by
    /// [`StreamRuntime::metrics_addr`]). The endpoint is a minimal
    /// std-only HTTP server answering `GET /metrics` with the full
    /// `ec_*` exposition — engine counters, scheduler and ingest
    /// planes, and the latency summaries — re-rendered on every
    /// scrape. Binding happens in [`build`](Self::build); a busy port
    /// fails the build rather than silently dropping observability.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Sets the causal-trace sampling interval: roughly 1 in `every`
    /// pushes per source carries an end-to-end trace stamp (rounded to
    /// a power of two; default 64). Sampled events yield the
    /// (source, sink) push→delivery latency histograms in
    /// [`MetricsSnapshot`] and `/metrics`, and their phases' spans
    /// bypass the flight recorder's 1-in-8 sampling so `ec trace`
    /// shows their full causal chain. `0` disables tracing entirely.
    /// Sampling never changes what a seal commits — a traced run's
    /// `PhaseScript` is identical to an untraced one's.
    pub fn trace_sampling(mut self, every: u64) -> Self {
        self.trace_sampling = every;
        self
    }

    /// Tunes the health watchdog (stall timeout, collapse threshold,
    /// baseline half-life). The watchdog itself is always on — this
    /// only overrides [`HealthConfig::default`].
    pub fn health_config(mut self, cfg: HealthConfig) -> Self {
        self.health_config = Some(cfg);
        self
    }

    /// Attaches a flight recorder: per-worker ring buffers holding the
    /// newest `capacity` span events each (phase admitted/retired,
    /// per-vertex executions, epoch seals, WAL commits, snapshots,
    /// steal/park/wake). Recording is one clock read plus one ring
    /// write; the rings overwrite oldest-first, so a recorder left on
    /// costs the same whether drained or not. Drain with
    /// [`StreamRuntime::dump_trace`] (Chrome `chrome://tracing` JSON).
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.recorder_capacity = Some(capacity);
        self
    }

    /// With [`durable`](Self::durable): fsync the WAL automatically
    /// once `rows` committed rows have accumulated since the last sync
    /// — a bounded-loss commit interval between the default (sync at
    /// checkpoint/shutdown only; group commit still reaches the OS
    /// every seal) and syncing every seal (`1`).
    pub fn wal_sync_every(mut self, rows: u64) -> Self {
        self.wal_sync_every = Some(rows.max(1));
        self
    }

    /// With [`durable`](Self::durable): the WAL segment size bound
    /// (default 64 MiB). Once the active segment exceeds it, the next
    /// group commit rotates to a fresh segment — the unit compaction
    /// reclaims once a snapshot covers it.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// With [`durable`](Self::durable): compact the WAL (drop segments
    /// fully covered by the newest snapshot) after every `snapshots`
    /// successful snapshots (default 1, i.e. after each one). `0`
    /// disables compaction; the log then grows without bound.
    pub fn compact_every(mut self, snapshots: u64) -> Self {
        self.compact_every = snapshots;
        self
    }

    /// With [`durable`](Self::durable): write a full snapshot every
    /// `k`-th snapshot and cheap incremental deltas (changed operators
    /// only) in between (default 4). `1` makes every snapshot full.
    pub fn snapshot_full_every(mut self, k: u32) -> Self {
        self.snapshot_full_every = k.max(1);
        self
    }

    /// With [`durable`](Self::durable): the bounded-retry policy for
    /// transient store failures (default 3 attempts starting at 1 ms,
    /// doubling). When the retries are exhausted on a WAL commit the
    /// runtime flips to *degraded* mode instead of stopping: ingest
    /// keeps flowing, durability is suspended, and
    /// [`StreamRuntime::degraded_reason`] / the `/healthz` verdict
    /// report `degraded: wal` with the failing path.
    pub fn store_retry(mut self, attempts: u32, base_delay: Duration) -> Self {
        self.store_retry = StoreRetry {
            attempts,
            base_delay,
        };
        self
    }

    /// With [`durable`](Self::durable): routes every mutating store
    /// operation through `io` instead of the real filesystem — the
    /// fault-injection hook ([`ec_store::FaultIo`]) the crash/fault
    /// matrix uses to prove recovery and degraded mode. Reads still go
    /// to the filesystem.
    pub fn store_io(mut self, io: Arc<dyn StoreIo>) -> Self {
        self.store_io = Some(io);
        self
    }

    /// Builds and starts the runtime (workers and delivery thread spawn
    /// immediately; the interval ticker too, if configured). With
    /// [`durable`](Self::durable), creates a fresh store — errors if
    /// one already exists at the directory (use
    /// [`restore`](Self::restore) to resume it).
    pub fn build(self) -> Result<StreamRuntime, RuntimeError> {
        self.build_inner(None)
    }

    /// Restores the runtime from the durable store configured with
    /// [`durable`](Self::durable): loads the newest usable snapshot,
    /// replays the WAL tail through the engine, and resumes at the
    /// exact next phase (global phase numbering continues across the
    /// restart).
    ///
    /// The builder must describe the **identical** graph the store was
    /// written by (same nodes, names, wiring and configuration) — this
    /// is validated against the recorded source and vertex names.
    /// Subscribers registered on this builder receive the replayed
    /// tail's sink emissions again (at-least-once delivery across
    /// restarts); emissions of phases at or before the snapshot are
    /// not repeated.
    pub fn restore(self) -> Result<StreamRuntime, RuntimeError> {
        let dir = self.durable_dir.clone().ok_or_else(|| {
            RuntimeError::Config("restore requires StreamRuntimeBuilder::durable(dir)".into())
        })?;
        let recovery = Recovery::open(&dir)?;
        // A torn tail is the expected shape of a crash and is dropped;
        // a checksum/decode failure in the body is real damage. Resuming
        // would silently discard acknowledged phases (the append writer
        // truncates past the valid prefix), so refuse — inspect with
        // `ec recover`, repair or move the store, then restore.
        if let ec_store::WalTail::Corrupt {
            at_row,
            dropped_bytes,
            message,
        } = &recovery.tail
        {
            return Err(RuntimeError::Store(format!(
                "WAL in store {} is corrupt at row {at_row} ({message}; {dropped_bytes} bytes \
                 affected): refusing to resume over damaged history",
                dir.display()
            )));
        }
        self.build_inner(Some(recovery))
    }

    /// Convenience for durable services: [`restore`](Self::restore) if
    /// the store already exists, otherwise [`build`](Self::build) a
    /// fresh one.
    pub fn build_or_restore(self) -> Result<StreamRuntime, RuntimeError> {
        let dir = self.durable_dir.clone().ok_or_else(|| {
            RuntimeError::Config(
                "build_or_restore requires StreamRuntimeBuilder::durable(dir)".into(),
            )
        })?;
        if ec_store::store_exists(&dir) {
            self.restore()
        } else {
            self.build()
        }
    }

    /// The configured durable store directory, if any (crate-internal:
    /// the session pool namespaces un-configured sessions under its
    /// root and rejects two sessions sharing one store directory).
    pub(crate) fn durable_dir_ref(&self) -> Option<&PathBuf> {
        self.durable_dir.as_ref()
    }

    fn build_inner(self, recovery: Option<Recovery>) -> Result<StreamRuntime, RuntimeError> {
        if self.correlator.is_empty() {
            return Err(RuntimeError::Config("graph has no nodes".into()));
        }
        let names: Vec<Arc<str>> = {
            let dag = self.correlator.dag();
            dag.vertices().map(|v| Arc::from(dag.name(v))).collect()
        };

        // Validate the store against this graph before touching the
        // engine: source columns and vertex names must line up, or the
        // replay would bin events into the wrong feeds.
        if let Some(rec) = &recovery {
            let live_names: Vec<&str> = self.live.iter().map(|s| s.name.as_str()).collect();
            let rec_names: Vec<&str> = rec.sources.iter().map(String::as_str).collect();
            if live_names != rec_names {
                return Err(RuntimeError::Config(format!(
                    "store records live sources {rec_names:?}, graph has {live_names:?}"
                )));
            }
            if let Some(snap) = &rec.snapshot {
                let graph_names: Vec<&str> = names.iter().map(|n| n.as_ref()).collect();
                let snap_names: Vec<&str> = snap.names.iter().map(String::as_str).collect();
                if graph_names != snap_names {
                    return Err(RuntimeError::Config(format!(
                        "snapshot covers vertices {snap_names:?}, graph has {graph_names:?}"
                    )));
                }
            }
        }

        let base = recovery.as_ref().map(|r| r.snapshot_phase()).unwrap_or(0);
        // Lane 0 is the runtime's control plane (seals, WAL commits,
        // snapshots, admission/retirement); lane w+1 is worker w.
        let worker_lanes = self
            .pool
            .as_ref()
            .map(EnginePool::threads)
            .unwrap_or(self.threads);
        let recorder = self
            .recorder_capacity
            .map(|cap| Arc::new(FlightRecorder::new(worker_lanes + 1, cap)));
        let mut engine_builder = self
            .correlator
            .engine()
            .threads(self.threads)
            .max_inflight(self.max_inflight)
            .record_history(self.record_history)
            .resume_from(base);
        if let Some(rec) = &recorder {
            engine_builder = engine_builder.flight_recorder(rec);
        }
        if let Some(pool) = &self.pool {
            engine_builder = engine_builder.pooled(pool).pool_weight(self.pool_weight);
        }
        let engine = engine_builder.build()?;
        if let Some(snap) = recovery.as_ref().and_then(|r| r.snapshot.as_ref()) {
            engine.restore_checkpoint(&snap.checkpoint)?;
        }
        let engine = engine.into_live();

        // The WAL half: fresh log, or reopen-and-truncate after the
        // validated prefix.
        let durable = self.durable_dir.map(|dir| DurableCfg {
            dir,
            snapshot_every: self.snapshot_every,
            snapshot_on_flush: self.snapshot_on_flush,
            segment_bytes: self.segment_bytes,
            compact_every: self.compact_every,
            store_retry: self.store_retry.clone(),
            io: self.store_io.clone().unwrap_or_else(ec_store::real_io),
        });
        let (mut wal, last_snapshot) = match (&durable, &recovery) {
            (Some(cfg), Some(rec)) => (
                Some(rec.append_writer_with(cfg.wal_options())?),
                rec.snapshot_phase(),
            ),
            (Some(cfg), None) => {
                let sources: Vec<String> = self.live.iter().map(|s| s.name.clone()).collect();
                (
                    Some(WalWriter::create_with(
                        &cfg.dir,
                        &sources,
                        cfg.wal_options(),
                    )?),
                    0,
                )
            }
            (None, _) => (None, 0),
        };
        if let Some(w) = wal.as_mut() {
            w.set_sync_every(self.wal_sync_every);
        }

        let queue_count = self.live.len();
        // Recovered rows become one columnar script segment (shared
        // storage, same as live seals produce).
        let script = match (&recovery, self.record_script) {
            (Some(rec), true) => {
                let sources: Vec<String> = self.live.iter().map(|s| s.name.clone()).collect();
                PhaseScript::from_rows(sources, rec.rows.clone()).into_segments()
            }
            _ => Vec::new(),
        };
        let mut source_slot: Vec<Option<usize>> = vec![None; names.len()];
        for (slot, source) in self.live.iter().enumerate() {
            source_slot[source.vertex.index()] = Some(slot);
        }
        let shared = Arc::new(RuntimeShared {
            engine,
            buffers: IngestBuffers::new(queue_count),
            seal: Mutex::new(SealState {
                wal,
                script,
                pool: ColumnPool::new(),
                last_snapshot,
                snapshot_error: None,
                snapshotter: Snapshotter::new(self.snapshot_full_every),
                snapshots_since_compact: 0,
            }),
            subs: Mutex::new(Subscribers {
                each: self.subs,
                batch: Vec::new(),
            }),
            delivered: Mutex::new(DeliveryProgress::default()),
            delivered_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            ticker_stop: AtomicBool::new(false),
            live: self.live,
            source_slot,
            names,
            policy: self.policy,
            backpressure: self.backpressure,
            capacity: self.capacity,
            record_script: self.record_script,
            durable,
            events_committed: AtomicU64::new(0),
            seal_batches: AtomicU64::new(0),
            seal_events: AtomicU64::new(0),
            wal_hist: LogHistogram::new(),
            ingest_wait_hist: LogHistogram::new(),
            recorder,
            trace: (self.trace_sampling > 0)
                .then(|| TracePlane::new(self.trace_sampling, queue_count)),
            health: HealthMonitor::new(self.health_config.unwrap_or_default(), Instant::now()),
            degraded: Mutex::new(None),
            store_stats: StoreStats::default(),
        });
        if let Some(wal) = shared.seal.lock().wal.as_ref() {
            shared.store_stats.wal_bytes.store(wal.wal_bytes(), Relaxed);
            shared
                .store_stats
                .segments
                .store(wal.segment_count(), Relaxed);
        }

        // Replay the WAL tail (rows after the snapshot) before any
        // thread can seal new epochs: transpose it into one column per
        // source, stage the columns, then admit the batch. After this,
        // operator state equals the crashed run's at its last committed
        // phase.
        if let Some(rec) = recovery {
            let tail = rec.tail_rows();
            let mut replayed_events = 0u64;
            let mut tail_cols: Vec<Arc<PhaseColumn>> = Vec::with_capacity(shared.live.len());
            if !tail.is_empty() {
                for (slot, source) in shared.live.iter().enumerate() {
                    let col: Vec<Option<Value>> =
                        tail.iter().map(|row| row[slot].clone()).collect();
                    replayed_events += col.iter().filter(|b| b.is_some()).count() as u64;
                    let col = Arc::new(PhaseColumn::from_bins(col));
                    source.writer.stage_column_sparse(Arc::clone(&col));
                    tail_cols.push(col);
                }
            }
            shared.events_committed.fetch_add(replayed_events, Relaxed);
            let total = tail.len() as u64;
            let mut admitted = 0u64;
            while admitted < total {
                let base = admitted as usize;
                admitted +=
                    shared
                        .engine
                        .admit_batch_sparse(total - admitted, |offset, vertex| {
                            shared.live_slot(vertex).is_some_and(|slot| {
                                tail_cols[slot][base + offset as usize].is_none()
                            })
                        })?;
            }
            shared.engine.wait_idle()?;
        }

        let delivery_shared = Arc::clone(&shared);
        let delivery = std::thread::Builder::new()
            .name("ec-runtime-delivery".into())
            .spawn(move || delivery_shared.delivery_loop())
            .expect("spawn delivery thread");

        let ticker = if let EpochPolicy::ByInterval(interval) = self.policy {
            let ticker_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("ec-runtime-ticker".into())
                    .spawn(move || {
                        // Sleep toward the next tick deadline in bounded
                        // chunks: long intervals don't busy-wake, and
                        // shutdown is noticed within ~20 ms.
                        let shutdown_check = Duration::from_millis(20);
                        let mut last_tick = Instant::now();
                        while !ticker_shared.ticker_stop.load(Relaxed) {
                            let remaining = interval.saturating_sub(last_tick.elapsed());
                            if !remaining.is_zero() {
                                std::thread::sleep(remaining.min(shutdown_check));
                                continue;
                            }
                            last_tick = Instant::now();
                            let mut seal = ticker_shared.seal.lock();
                            if ticker_shared.seal_locked(&mut seal, 1).is_err() {
                                break; // engine failed/closed; surfaced elsewhere
                            }
                            ticker_shared.maybe_checkpoint_locked(&mut seal);
                        }
                    })
                    .expect("spawn ticker thread"),
            )
        } else {
            None
        };

        // The live metrics plane: a registry rendering this runtime's
        // full snapshot on `/metrics` plus the watchdog's report on
        // `/healthz`, served until shutdown. Bound last so a busy port
        // cannot leave half-started background threads behind.
        let metrics_server = match &self.metrics_addr {
            Some(addr) => {
                let registry = MetricsRegistry::new();
                let obs_shared = Arc::clone(&shared);
                registry.register(move |page| {
                    crate::obs::render_snapshot(page, &[], &obs_shared.metrics_with_ingest());
                });
                if shared.durable.is_some() {
                    let store_shared = Arc::clone(&shared);
                    registry.register(move |page| {
                        crate::obs::render_store(page, &[], &store_shared.store_stats.snapshot());
                    });
                }
                let health_shared = Arc::clone(&shared);
                let healthz: ec_obs::RenderFn =
                    Arc::new(move || health_shared.health.report().to_json());
                Some(
                    registry
                        .serve_with(addr, vec![("/healthz", ec_obs::CONTENT_TYPE_JSON, healthz)])
                        .map_err(|e| {
                            RuntimeError::Config(format!("metrics endpoint {addr}: {e}"))
                        })?,
                )
            }
            None => None,
        };

        Ok(StreamRuntime {
            shared,
            delivery: Some(delivery),
            ticker,
            metrics_server,
        })
    }
}

/// The push side of one live source. Cloneable and `Send`: hand one to
/// each producer thread.
#[derive(Clone)]
pub struct SourceHandle {
    shared: Arc<RuntimeShared>,
    slot: usize,
}

impl SourceHandle {
    /// The source's name.
    pub fn name(&self) -> &str {
        &self.shared.live[self.slot].name
    }

    /// The source's graph vertex.
    pub fn vertex(&self) -> VertexId {
        self.shared.live[self.slot].vertex
    }

    /// Enqueues one event.
    ///
    /// Only this source's ingest shard is locked — producers on
    /// different sources never contend, and an in-progress seal delays
    /// a push by at most one buffer swap. With [`Backpressure::Block`]
    /// a full shard blocks the caller until an epoch seal drains it;
    /// with [`Backpressure::Reject`] it returns [`PushError::Full`].
    /// Under [`EpochPolicy::ByCount`] the push that reaches the
    /// threshold seals the epoch itself.
    pub fn push(&self, value: impl Into<Value>) -> Result<(), PushError> {
        let mut value = value.into();
        let shared = &*self.shared;
        // Sample the trace decision before the retry loop, so a traced
        // event's latency includes any time it spent bounced off a full
        // shard — that queueing delay is exactly what end-to-end
        // tracing exists to see.
        let stamp = shared.trace.as_ref().and_then(|tp| {
            let stamp = tp.maybe_stamp(self.slot);
            if let (Some((trace_id, _)), Some(r)) = (stamp, &shared.recorder) {
                r.record(0, SpanKind::TraceIngest, trace_id, self.slot as u64);
            }
            stamp
        });
        // Clock reads only off the fast path: a push that never bounces
        // never looks at the time. The first bounce starts the wait
        // clock; the eventual success records the whole wait.
        let mut wait_start: Option<Instant> = None;
        let total = loop {
            if shared.stop.load(Relaxed) {
                return Err(PushError::Closed);
            }
            match shared
                .buffers
                .try_push(self.slot, value, shared.capacity, stamp)
            {
                Ok(total) => {
                    if let Some(start) = wait_start {
                        shared
                            .ingest_wait_hist
                            .record(start.elapsed().as_nanos() as u64);
                    }
                    break total;
                }
                Err(bounced) => {
                    value = bounced;
                    wait_start.get_or_insert_with(Instant::now);
                    shared.buffers.count_wait(self.slot);
                    // Under ByCount, a full shard forces the epoch:
                    // waiting would deadlock whenever the count
                    // threshold cannot be reached (larger than
                    // capacity, or other sources idle) — nobody else is
                    // going to seal.
                    if matches!(shared.policy, EpochPolicy::ByCount(_)) {
                        let mut seal = shared.seal.lock();
                        if shared.seal_locked(&mut seal, 0).is_err() {
                            return Err(PushError::Closed);
                        }
                        shared.maybe_checkpoint_locked(&mut seal);
                        continue;
                    }
                    match shared.backpressure {
                        Backpressure::Reject => return Err(PushError::Full),
                        Backpressure::Block => {
                            // Bounded wait so shutdown can't strand us.
                            shared.buffers.wait_space(
                                self.slot,
                                shared.capacity,
                                Duration::from_millis(20),
                            );
                        }
                    }
                }
            }
        };
        if shared.policy.should_seal(total) {
            let mut seal = shared.seal.lock();
            // The push itself has succeeded — the value is buffered and
            // will be committed by whichever seal drains it (possibly
            // the final one at shutdown). A failing follow-on seal
            // (engine failed or closing) therefore does not bounce this
            // push; the root cause surfaces through
            // flush()/wait_idle()/shutdown(), and later pushes fail once
            // the runtime poisons or their shard fills.
            if shared.seal_locked(&mut seal, 0).is_ok() {
                shared.maybe_checkpoint_locked(&mut seal);
            }
        }
        Ok(())
    }

    /// Blocks until this source's ingest shard has room, a seal drains
    /// it, or `timeout` elapses — the wait between retries of a
    /// [`push`](Self::push) that returned [`PushError::Full`]. The
    /// caller still loops: a racing producer may refill the shard.
    pub fn wait_space(&self, timeout: Duration) {
        self.shared
            .buffers
            .wait_space(self.slot, self.shared.capacity, timeout);
    }

    /// Events currently buffered (unsealed) for this source.
    pub fn buffered(&self) -> usize {
        self.shared.buffers.depth(self.slot)
    }

    /// The configured per-source ingest queue capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

/// Final state of a completed run.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Phases committed and completed (cumulative across restore: a
    /// resumed runtime counts from the restored phase onward).
    pub phases: u64,
    /// Full execution history (if recording was enabled). After a
    /// restore, covers the replayed tail plus the live continuation —
    /// phases after the restored snapshot.
    pub history: Option<ExecutionHistory>,
    /// The committed event-to-phase binning. After a restore, includes
    /// the rows recovered from the WAL, so the script always spans
    /// phase 1 to the end.
    pub script: PhaseScript,
    /// Engine counters.
    pub metrics: MetricsSnapshot,
}

/// A running, push-based correlation service.
///
/// Built by [`StreamRuntimeBuilder`]. Producers push events through
/// [`SourceHandle`]s; epochs seal according to the configured policy;
/// subscribers receive sink emissions in serial order as phases retire;
/// [`shutdown`](StreamRuntime::shutdown) drains everything and returns
/// the report.
pub struct StreamRuntime {
    shared: Arc<RuntimeShared>,
    delivery: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
    metrics_server: Option<MetricsServer>,
}

impl StreamRuntime {
    /// Starts a builder.
    pub fn builder() -> StreamRuntimeBuilder {
        StreamRuntimeBuilder::new()
    }

    /// Restores a runtime from the durable store at `dir`, built over
    /// `builder`'s graph (which must match the one the store was
    /// written by). Shorthand for
    /// `builder.durable(dir).restore()`.
    pub fn restore(
        dir: impl Into<PathBuf>,
        builder: StreamRuntimeBuilder,
    ) -> Result<StreamRuntime, RuntimeError> {
        builder.durable(dir).restore()
    }

    /// The push handle for a live source node.
    pub fn handle(&self, node: NodeHandle) -> Result<SourceHandle, RuntimeError> {
        self.handle_at(
            self.shared
                .live
                .iter()
                .position(|s| s.vertex == node.vertex())
                .ok_or_else(|| {
                    RuntimeError::Config(format!("{:?} is not a live source", node.vertex()))
                })?,
        )
    }

    /// The push handle for a live source by name.
    pub fn handle_by_name(&self, name: &str) -> Result<SourceHandle, RuntimeError> {
        self.handle_at(
            self.shared
                .live
                .iter()
                .position(|s| s.name == name)
                .ok_or_else(|| RuntimeError::Config(format!("no live source named {name:?}")))?,
        )
    }

    fn handle_at(&self, slot: usize) -> Result<SourceHandle, RuntimeError> {
        Ok(SourceHandle {
            shared: Arc::clone(&self.shared),
            slot,
        })
    }

    /// Names of the live sources, in wiring order.
    pub fn live_source_names(&self) -> Vec<String> {
        self.shared.live.iter().map(|s| s.name.clone()).collect()
    }

    /// The durable store directory, if durability is enabled.
    pub fn store_dir(&self) -> Option<&Path> {
        self.shared.durable.as_ref().map(|cfg| cfg.dir.as_path())
    }

    /// Subscribes to sink emissions; `f` is called for every sink
    /// output, in serial order, as its phase retires. Emissions of
    /// phases that retired before this call are not replayed — to
    /// guarantee none are missed (ticking policies can retire phases
    /// immediately), register via
    /// [`StreamRuntimeBuilder::subscribe`] instead.
    pub fn subscribe(&self, f: impl FnMut(&SinkEmission) + Send + 'static) {
        self.shared.subs.lock().each.push(Box::new(f));
    }

    /// Subscribes to sink emissions a delivery batch at a time: `f` is
    /// called once per retirement drain with every emission it
    /// released, in serial order — the same sequence
    /// [`subscribe`](Self::subscribe) callbacks see one by one, cut
    /// wherever the delivery loop happened to wake. For consumers that
    /// pay per hand-off (a lock, a wake-up, a socket write) rather than
    /// per emission. Like `subscribe`, phases retired before this call
    /// are not replayed.
    pub fn subscribe_batches(&self, f: impl FnMut(&[SinkEmission]) + Send + 'static) {
        self.shared.subs.lock().batch.push(Box::new(f));
    }

    /// Seals the current epoch explicitly: all buffered events commit
    /// to phases (the longest per-source backlog determines the phase
    /// count). Returns the number of phases committed (0 if nothing was
    /// buffered). On a durable runtime this is also a snapshot point
    /// when [`snapshot_on_flush`](StreamRuntimeBuilder::snapshot_on_flush)
    /// is set, and surfaces any deferred periodic-snapshot failure.
    pub fn flush(&self) -> Result<u64, RuntimeError> {
        if self.shared.stop.load(Relaxed) {
            return Err(RuntimeError::Closed);
        }
        let mut seal = self.shared.seal.lock();
        let phases = self.shared.seal_locked(&mut seal, 0)?;
        if self
            .shared
            .durable
            .as_ref()
            .is_some_and(|cfg| cfg.snapshot_on_flush)
        {
            self.shared.checkpoint_locked(&mut seal)?;
        } else {
            self.shared.maybe_checkpoint_locked(&mut seal);
        }
        self.shared.take_snapshot_error(&mut seal)?;
        Ok(phases)
    }

    /// Like [`flush`](Self::flush) but commits at least one phase, even
    /// if no events are buffered — an *empty epoch*, which still polls
    /// scripted sources and advances time-driven operators.
    pub fn tick(&self) -> Result<u64, RuntimeError> {
        if self.shared.stop.load(Relaxed) {
            return Err(RuntimeError::Closed);
        }
        let mut seal = self.shared.seal.lock();
        let phases = self.shared.seal_locked(&mut seal, 1)?;
        self.shared.maybe_checkpoint_locked(&mut seal);
        self.shared.take_snapshot_error(&mut seal)?;
        Ok(phases)
    }

    /// Takes a snapshot now: waits for every admitted phase to retire,
    /// captures operator state, writes it to the store and syncs the
    /// WAL. Returns the snapshot's phase. Errors on a non-durable
    /// runtime or when a module does not support snapshots.
    pub fn checkpoint(&self) -> Result<u64, RuntimeError> {
        if self.shared.stop.load(Relaxed) {
            return Err(RuntimeError::Closed);
        }
        let mut seal = self.shared.seal.lock();
        self.shared.take_snapshot_error(&mut seal)?;
        self.shared.checkpoint_locked(&mut seal)
    }

    /// Phases committed so far.
    pub fn admitted(&self) -> u64 {
        self.shared.engine.admitted()
    }

    /// Events committed to phases so far (including a restored WAL
    /// tail's replayed events).
    pub fn events_committed(&self) -> u64 {
        self.shared.events_committed.load(Relaxed)
    }

    /// A cheap, cloneable observability handle that outlives mutable
    /// borrows of the runtime: a [`SessionPool`](crate::SessionPool)
    /// keeps one per session to build its per-tenant metrics rows while
    /// the sessions themselves are owned by the caller.
    pub fn probe(&self) -> RuntimeProbe {
        RuntimeProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Phases fully completed so far.
    pub fn completed_through(&self) -> u64 {
        self.shared.engine.completed_through()
    }

    /// Blocks until every committed phase has completed.
    pub fn wait_idle(&self) -> Result<u64, RuntimeError> {
        Ok(self.shared.engine.wait_idle()?)
    }

    /// Blocks until the sink emissions of every phase retired before
    /// this call have been handed to every subscriber. Retirement and
    /// delivery are different threads: after
    /// [`wait_idle`](Self::wait_idle) returns, the last emissions may
    /// still be on their way to the callbacks; after this returns they
    /// are not.
    pub fn wait_delivered(&self) {
        let target = self.shared.engine.completed_through();
        let mut progress = self.shared.delivered.lock();
        progress.waiters += 1;
        while progress.frontier < target {
            self.shared.delivered_cv.wait(&mut progress);
        }
        progress.waiters -= 1;
    }

    /// A snapshot of the committed script so far. O(epochs sealed), not
    /// O(events): the snapshot shares the committed columns with the
    /// runtime (`Arc` per source per epoch), so observability does not
    /// scale with run length.
    pub fn script(&self) -> PhaseScript {
        PhaseScript::from_segments(
            self.live_source_names(),
            self.shared.seal.lock().script.clone(),
        )
    }

    /// Engine counters plus ingest-side counters (per-source buffer
    /// depths, producer waits, seal drain batches) and the latency
    /// histograms (phase, exec, WAL commit, push wait).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics_with_ingest()
    }

    /// The bound address of the live `/metrics` endpoint, if one was
    /// configured with [`StreamRuntimeBuilder::metrics_addr`] (resolves
    /// port 0 to the actual port).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_server.as_ref().map(MetricsServer::local_addr)
    }

    /// The watchdog's current verdict: stalled retirement, wedged
    /// sources (with blame), throughput collapses. Served as JSON on
    /// `/healthz` when [`StreamRuntimeBuilder::metrics_addr`] is set;
    /// tune thresholds with [`StreamRuntimeBuilder::health_config`].
    pub fn health(&self) -> HealthReport {
        self.shared.health.report()
    }

    /// `Some(reason)` once the runtime suspended durability after a
    /// persistent store failure survived its bounded retries. The
    /// runtime keeps serving (pushes, seals, deliveries all proceed)
    /// but nothing further reaches the WAL; the same reason forces the
    /// `/healthz` verdict to `degraded`. Restart and
    /// [`restore`](StreamRuntimeBuilder::restore) to recover.
    pub fn degraded_reason(&self) -> Option<String> {
        self.shared.degraded.lock().clone()
    }

    /// Drains the flight recorder into a Chrome trace-viewer JSON
    /// document (load it at `chrome://tracing` or in Perfetto), or
    /// `None` if the runtime was built without
    /// [`StreamRuntimeBuilder::flight_recorder`]. Draining empties the
    /// rings: each call returns the events recorded since the last.
    pub fn dump_trace(&self) -> Option<String> {
        self.shared.recorder.as_ref().map(|r| r.chrome_trace())
    }

    /// Seals any remaining events, waits for completion, delivers every
    /// outstanding subscription callback, stops all threads and returns
    /// the final report. On a durable runtime the WAL is synced to
    /// stable storage; no final snapshot is taken (restore replays the
    /// tail from the last periodic snapshot).
    ///
    /// Events pushed concurrently with shutdown that miss the final
    /// seal are dropped (producers should quiesce first).
    pub fn shutdown(mut self) -> Result<RuntimeReport, RuntimeError> {
        // 0. Stop the metrics endpoint: scrapes must not race the
        //    teardown below.
        if let Some(mut server) = self.metrics_server.take() {
            server.stop();
        }
        // 1. Stop the ticker so it cannot admit more phases below.
        self.shared.ticker_stop.store(true, Relaxed);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        // 2. Final seal of whatever is buffered, then make the log
        //    durable.
        let seal_result = {
            let mut seal = self.shared.seal.lock();
            let sealed = self.shared.seal_locked(&mut seal, 0);
            if let Some(wal) = seal.wal.as_mut() {
                let _ = wal.sync();
            }
            sealed
        };
        // 3. Quiesce and stop the engine (workers join here).
        let engine_result = self.shared.engine.shutdown();
        // 4. Release pushers and the delivery thread.
        self.shared.stop.store(true, Relaxed);
        self.shared.engine.wake_all();
        self.shared.buffers.notify_all();
        if let Some(d) = self.delivery.take() {
            let _ = d.join();
        }
        let report = engine_result?;
        seal_result?;
        let mut metrics = report.metrics;
        self.shared.fill_ingest(&mut metrics);
        Ok(RuntimeReport {
            phases: report.phases,
            history: report.history,
            script: PhaseScript::from_segments(
                self.shared.live.iter().map(|s| s.name.clone()).collect(),
                std::mem::take(&mut self.shared.seal.lock().script),
            ),
            metrics,
        })
    }
}

/// Read-only observability handle for one runtime (see
/// [`StreamRuntime::probe`]). Holding a probe does not keep the
/// runtime's threads alive — only its counters readable.
#[derive(Clone)]
pub struct RuntimeProbe {
    shared: Arc<RuntimeShared>,
}

impl RuntimeProbe {
    /// Phases committed so far.
    pub fn admitted(&self) -> u64 {
        self.shared.engine.admitted()
    }

    /// Phases fully completed (retired) so far.
    pub fn completed_through(&self) -> u64 {
        self.shared.engine.completed_through()
    }

    /// Events committed to phases so far.
    pub fn events_committed(&self) -> u64 {
        self.shared.events_committed.load(Relaxed)
    }

    /// Events buffered in the ingest shards, not yet sealed.
    pub fn buffered(&self) -> usize {
        self.shared.buffers.total()
    }

    /// Engine counters plus ingest-side counters. For a pooled runtime,
    /// `injector_depth` is this tenant's admission-lane depth while
    /// steal/park/wake counters are pool-global.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics_with_ingest()
    }

    /// The watchdog's current verdict (see [`StreamRuntime::health`]).
    /// Each runtime's delivery loop keeps its own watchdog fed, so a
    /// [`SessionPool`](crate::SessionPool) can aggregate these without
    /// driving anything.
    pub fn health(&self) -> HealthReport {
        self.shared.health.report()
    }

    /// `Some(reason)` once durability was suspended (see
    /// [`StreamRuntime::degraded_reason`]).
    pub fn degraded_reason(&self) -> Option<String> {
        self.shared.degraded.lock().clone()
    }

    /// Takes a snapshot now, exactly like [`StreamRuntime::checkpoint`]
    /// — the handle a [`SessionPool`](crate::SessionPool) uses to
    /// schedule checkpoints across every durable tenant it hosts.
    /// Errors with [`RuntimeError::Closed`] once the runtime has shut
    /// down.
    pub fn checkpoint(&self) -> Result<u64, RuntimeError> {
        if self.shared.stop.load(Relaxed) {
            return Err(RuntimeError::Closed);
        }
        let mut seal = self.shared.seal.lock();
        self.shared.take_snapshot_error(&mut seal)?;
        self.shared.checkpoint_locked(&mut seal)
    }
}

impl Drop for StreamRuntime {
    fn drop(&mut self) {
        // Unclean drop (e.g. test unwind, or a simulated crash in the
        // durability tests): stop threads without sealing; LiveEngine's
        // own Drop stops the workers. The WAL needs no special
        // handling — every committed row was already written at seal
        // time, which is exactly what restore reads back.
        if let Some(mut server) = self.metrics_server.take() {
            server.stop();
        }
        self.shared.ticker_stop.store(true, Relaxed);
        self.shared.stop.store(true, Relaxed);
        self.shared.engine.wake_all();
        self.shared.buffers.notify_all();
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        if let Some(d) = self.delivery.take() {
            let _ = d.join();
        }
    }
}
