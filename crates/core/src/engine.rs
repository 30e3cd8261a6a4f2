//! The parallel engine: computation processes and the environment
//! process of §3.2, Listings 1 and 2.
//!
//! The engine runs `k` computation threads (Listing 1) plus one
//! environment thread (Listing 2) against the shared scheduler state
//! under a single global lock, exactly as the paper prescribes — "a lock
//! is used to guarantee that each thread has exclusive access to the
//! data structures while updating them". Module execution itself happens
//! *outside* the lock (statement 1.3 precedes statement 1.4), which is
//! what makes the speedup of §4 possible: while one worker updates the
//! sets, others are inside their modules.
//!
//! Differences from the listings, all behaviour-preserving:
//!
//! * The environment starts a bounded number of phases and then stops,
//!   instead of looping forever; the run ends when the last phase
//!   completes. Where the paper's environment "sleeps for some amount
//!   of time" between phases, ours throttles on a maximum number of
//!   in-flight phases ([`EngineBuilder::max_inflight`]) so memory stays
//!   bounded.
//! * A pair's waiting messages are physically attached to its run-queue
//!   task at ready-promotion time (they are complete by then — see
//!   `SchedState::try_promote`), so workers do not need to reacquire the
//!   lock to read inputs before executing.
//! * Module panics are caught and turn the run into an error instead of
//!   a hang.
//! * A task is a **phase run** `(v, p_1 < … < p_k)`, not one pair: every
//!   phase in which `v` was full when it was promoted (see
//!   `SchedState::try_promote`). The worker executes the run in phase
//!   order under one vertex-lock hold, one `catch_unwind` and one clock
//!   read per phase, then publishes all `k` finishes in one critical
//!   section (`SchedState::finish_run`) — Listing 1's loop body once
//!   per run instead of once per pair. Each vertex still executes its
//!   phases in the oracle's order. Run boundaries come from measured
//!   time only: a segment that passes `RUN_BUDGET` (5 µs) publishes
//!   what it finished and pushes the rest back onto the worker's own
//!   shard, and a vertex whose last phase took at least that long
//!   claims one phase at a time, so slow stages keep the per-phase
//!   hand-off that lets a second worker pipeline them.

use crate::checkpoint::EngineCheckpoint;
use crate::error::EngineError;
use crate::history::{ExecutionHistory, RecordedEmission};
use crate::metrics::{LatencyStats, Metrics, MetricsSnapshot, PhaseGauge, SchedulerCounters};
use crate::module::Module;
use crate::multi::{EnginePool, EngineQueue, PoolMembership};
use crate::pool::{payload_to_string, WorkerPool};
use crate::shard::Dequeued;
use crate::state::{Idx, SchedState, Task, Transition};
use crate::vertex::{route_emission, RoutedEmission, VertexSlot};
use ec_events::{Phase, Value};
use ec_graph::{Dag, Numbering, VertexId};
use ec_obs::{FlightRecorder, HistogramBank, SpanKind};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Exec ring spans are sampled 1-in-(mask+1) per (phase, vertex); the
/// exec histograms stay exact regardless. A ring write per vertex
/// execution is the recorder's dominant cost at full throughput.
const EXEC_SAMPLE_MASK: u64 = 7;

/// Time budget of one run segment. A worker stops a run once the
/// segment has taken this long, and a vertex whose last phase took at
/// least this long claims one phase per task. Set at several times the
/// fixed cost of publishing one execution (~0.75 µs), so runs amortize
/// that cost for light operators while stages slow enough to be worth
/// pipelining keep their per-phase hand-off.
pub(crate) const RUN_BUDGET: Duration = Duration::from_micros(5);

/// Configuration for [`Engine`] construction.
pub struct EngineBuilder {
    dag: Dag,
    modules: Vec<Box<dyn Module>>,
    threads: usize,
    max_inflight: u64,
    record_history: bool,
    check_invariants: bool,
    resume_from: u64,
    pool: Option<EnginePool>,
    pool_weight: u32,
    recorder: Option<Arc<FlightRecorder>>,
}

impl EngineBuilder {
    /// Starts a builder for `dag` with one module per vertex
    /// (`modules[v.index()]` runs at vertex `v`).
    pub fn new(dag: Dag, modules: Vec<Box<dyn Module>>) -> Self {
        EngineBuilder {
            dag,
            modules,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            max_inflight: 64,
            record_history: true,
            check_invariants: false,
            resume_from: 0,
            pool: None,
            pool_weight: 1,
            recorder: None,
        }
    }

    /// Number of computation threads (the paper's `k`). The environment
    /// process always runs on one additional thread, as in §4.
    pub fn threads(mut self, k: usize) -> Self {
        self.threads = k.max(1);
        self
    }

    /// Maximum number of started-but-incomplete phases before the
    /// environment throttles. Bounds scheduler memory.
    pub fn max_inflight(mut self, phases: u64) -> Self {
        self.max_inflight = phases.max(1);
        self
    }

    /// Record the full execution history (on by default; turn off for
    /// benchmarks).
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Re-derive and check every scheduler invariant after each
    /// transition (slow; for tests).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// Resumes phase numbering after `phase`: the first phase this
    /// engine starts is `phase + 1`, as if phases `1..=phase` had
    /// completed in a previous process. Used by checkpoint/restore
    /// (`ec-store`) together with [`Engine::restore_checkpoint`].
    pub fn resume_from(mut self, phase: u64) -> Self {
        self.resume_from = phase;
        self
    }

    /// Attaches the engine to a shared [`EnginePool`] instead of giving
    /// it private workers: [`build`](Self::build) reserves a tenant
    /// slot, and [`Engine::into_live`] registers with the pool.
    ///
    /// A pooled engine must be driven through the live API; the batch
    /// [`Engine::run`] refuses (it owns a private worker lifecycle).
    /// [`threads`](Self::threads) is ignored — the pool's worker count
    /// applies — while [`max_inflight`](Self::max_inflight) becomes the
    /// tenant's in-flight cap, bounding how much of the shared pool
    /// this engine can occupy.
    pub fn pooled(mut self, pool: &EnginePool) -> Self {
        self.pool = Some(pool.clone());
        self
    }

    /// With [`pooled`](Self::pooled): this tenant's weighted-round-robin
    /// admission weight (default 1). A weight-`w` tenant receives
    /// roughly `w` times the admission bandwidth of a weight-1 tenant
    /// when both are backlogged.
    pub fn pool_weight(mut self, weight: u32) -> Self {
        self.pool_weight = weight.max(1);
        self
    }

    /// Attaches a flight recorder: workers and the admission path emit
    /// span events (exec, phase admitted/retired, steal/park/wake) into
    /// its per-lane rings. Lane 0 is the control plane; worker `w`
    /// records into lane `w + 1`. Off by default — recording costs one
    /// `Instant` read plus one ring write per event, and the
    /// high-volume kinds (exec, phase retired) are sampled 1-in-8 so
    /// the recorder stays cheap enough to leave on; histograms and
    /// metrics counters see every event regardless.
    pub fn flight_recorder(mut self, recorder: &Arc<FlightRecorder>) -> Self {
        self.recorder = Some(Arc::clone(recorder));
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Result<Engine, EngineError> {
        let numbering = Numbering::compute(&self.dag);
        debug_assert!(numbering.verify(&self.dag).is_ok());
        let slots = VertexSlot::build(&self.dag, &numbering, self.modules)?;
        let n = slots.len();

        // Successors in schedule-index space, indexed by idx - 1.
        let succs_idx: Vec<Vec<Idx>> = numbering
            .schedule_order()
            .map(|v| {
                let mut s: Vec<Idx> = self
                    .dag
                    .succs(v)
                    .iter()
                    .map(|&w| numbering.index_of(w))
                    .collect();
                s.sort_unstable();
                s
            })
            .collect();

        let mut state = SchedState::new(numbering.m_table());
        if self.resume_from > 0 {
            state.resume_from(self.resume_from);
        }

        let (queue, membership) = match &self.pool {
            Some(pool) => {
                let (queue, membership) = pool.join_pool()?;
                membership.set_weight(self.pool_weight);
                (queue, Some(membership))
            }
            None => (EngineQueue::own(self.threads), None),
        };
        let threads = membership
            .as_ref()
            .map(|m| m.threads())
            .unwrap_or(self.threads);
        if let Some(recorder) = &self.recorder {
            queue.set_recorder(recorder);
        }

        Ok(Engine {
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                progress: Condvar::new(),
                progress_waiters: AtomicUsize::new(0),
                queue,
                vertices: slots.into_iter().map(Mutex::new).collect(),
                succs_idx,
                numbering,
                metrics: Metrics::new(),
                gauge: PhaseGauge::with_capacity(self.max_inflight),
                admit_clock: AdmitClock::new(self.max_inflight, self.resume_from),
                traced: TracedPhases::new(self.max_inflight),
                exec_hist: HistogramBank::new(threads),
                phase_hist: HistogramBank::new(threads),
                recorder: self.recorder,
                record_history: self.record_history,
                history: Mutex::new(if self.record_history {
                    Some(ExecutionHistory::new(n))
                } else {
                    None
                }),
                live_sinks: Mutex::new(None),
                failed_fast: AtomicBool::new(false),
                check_invariants: self.check_invariants,
            }),
            threads,
            max_inflight: self.max_inflight,
            membership,
        })
    }
}

/// Admission timestamps for in-flight phases, in a power-of-two ring of
/// atomic slots indexed `phase & mask` — the same windowing argument as
/// [`PhaseGauge`]: at most `max_inflight` consecutive phases are ever
/// in flight, so distinct in-flight phases never collide while the
/// capacity covers the window. Retirement walks the frontier exactly
/// once (a CAS claims the newly retired range), so each phase's
/// admission→retirement latency is recorded exactly once.
pub(crate) struct AdmitClock {
    epoch: Instant,
    slots: Vec<AtomicU64>,
    mask: u64,
    /// Highest phase whose retirement latency has been recorded.
    last_retired: AtomicU64,
}

impl AdmitClock {
    fn new(max_inflight: u64, resume_from: u64) -> AdmitClock {
        let cap = max_inflight.clamp(2, 1 << 16).next_power_of_two();
        AdmitClock {
            epoch: Instant::now(),
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap - 1,
            last_retired: AtomicU64::new(resume_from),
        }
    }

    /// Stamps `phase`'s admission time off a clock read the caller
    /// already made. Called under the state lock (right after
    /// `start_phase`), so a racing retirement of this very phase cannot
    /// read the slot before the stamp lands.
    #[inline]
    fn note_admitted_at(&self, phase: u64, now: Instant) {
        let nanos = now.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.slots[(phase & self.mask) as usize].store(nanos, Relaxed);
    }

    /// Claims the newly retired range `(prev, frontier]` and reports
    /// each phase's latency to `f(phase, nanos, end)` — `end` is the
    /// single clock read shared by the whole batch. Exactly-once: the
    /// CAS loop hands every phase to a single caller.
    fn drain_retired(&self, frontier: u64, mut f: impl FnMut(u64, u64, Instant)) {
        let mut prev = self.last_retired.load(Relaxed);
        loop {
            if frontier <= prev {
                return;
            }
            match self
                .last_retired
                .compare_exchange_weak(prev, frontier, Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => prev = seen,
            }
        }
        let end = Instant::now();
        let now = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        for phase in prev + 1..=frontier {
            let admitted = self.slots[(phase & self.mask) as usize].load(Relaxed);
            f(phase, now.saturating_sub(admitted), end);
        }
    }
}

/// Phases carrying a sampled causal trace, in a power-of-two ring of
/// atomic slots indexed `phase & mask` (the same windowing argument as
/// [`AdmitClock`]). A slot stores `phase + 1` and lookups require an
/// exact match, so a collision (a seal staging more phases ahead than
/// the ring covers) can only *lose* a mark — a traced phase silently
/// degrades to normal 1-in-8 span sampling — never force-trace the
/// wrong phase.
pub(crate) struct TracedPhases {
    slots: Vec<AtomicU64>,
    mask: u64,
}

impl TracedPhases {
    fn new(max_inflight: u64) -> TracedPhases {
        let cap = max_inflight.clamp(2, 1 << 16).next_power_of_two();
        TracedPhases {
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap - 1,
        }
    }

    /// Marks `phase` as traced (called before its admission).
    pub(crate) fn mark(&self, phase: u64) {
        self.slots[(phase & self.mask) as usize].store(phase + 1, Relaxed);
    }

    /// Whether `phase` carries a trace mark.
    #[inline]
    pub(crate) fn contains(&self, phase: u64) -> bool {
        self.slots[(phase & self.mask) as usize].load(Relaxed) == phase + 1
    }
}

/// One executed phase of a run, waiting to be recorded and published.
struct Executed {
    phase: u64,
    routed: RoutedEmission,
    /// Clock read right after the phase: the end of its execution and
    /// the start of the next one.
    ended: Instant,
}

/// Scratch a worker reuses across tasks, so steady-state execution
/// allocates nothing of its own: the transition written by
/// `finish_run`, the translated-inputs buffer and the executed phases
/// of the current run.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    transition: Transition,
    fresh: Vec<(VertexId, Value)>,
    done: Vec<Executed>,
}

/// Everything shared between worker threads, the environment thread and
/// the caller.
///
/// `pub(crate)` so the live (streaming) front end in [`crate::live`]
/// can drive the same scheduler with a caller-paced environment.
pub(crate) struct Shared {
    /// The paper's shared data structures, behind the global lock.
    pub(crate) state: Mutex<SchedState>,
    /// Signalled when `completed_through` advances or the run fails;
    /// waited on by the environment throttle and the run driver.
    pub(crate) progress: Condvar,
    /// Number of threads currently blocked on `progress`. Phase
    /// completions skip the notify entirely when nobody is waiting —
    /// the common case on the hot path.
    progress_waiters: AtomicUsize,
    /// The run queue of Listing 1, statement 1.2 — sharded across the
    /// workers, with work stealing (see [`crate::shard`]), owned
    /// privately or shared with other tenants through an
    /// [`EnginePool`](crate::EnginePool).
    pub(crate) queue: EngineQueue,
    /// Vertex slots in schedule order (`vertices[i]` = index `i + 1`).
    /// Each slot's mutex is uncontended: the ready-set rule guarantees
    /// at most one in-flight execution per vertex.
    vertices: Vec<Mutex<VertexSlot>>,
    /// Successors per schedule index.
    succs_idx: Vec<Vec<Idx>>,
    /// The vertex numbering.
    pub(crate) numbering: Numbering,
    /// Counters.
    pub(crate) metrics: Metrics,
    /// Distinct-phases-executing gauge (Figure 1 pipelining depth).
    gauge: PhaseGauge,
    /// Admission timestamps per in-flight phase, for the seal→retire
    /// latency histogram.
    admit_clock: AdmitClock,
    /// Phases carrying a sampled causal trace: their exec/retire spans
    /// bypass 1-in-8 sampling so `ec trace` shows the full chain.
    traced: TracedPhases,
    /// Per-worker module-execution duration histograms.
    exec_hist: HistogramBank,
    /// Per-worker phase admission→retirement latency histograms.
    phase_hist: HistogramBank,
    /// Optional flight recorder (lane 0 = control, lane `w+1` = worker
    /// `w`).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// Mirror of `history.is_some()`, readable without the lock.
    record_history: bool,
    /// Optional execution history.
    pub(crate) history: Mutex<Option<ExecutionHistory>>,
    /// Sink emissions not yet retired by a live front end. `Some` only
    /// in live mode; keyed by `(phase, vertex)` so draining everything
    /// up to the completed frontier yields serial order.
    pub(crate) live_sinks: Mutex<Option<std::collections::BTreeMap<(u64, VertexId), Value>>>,
    /// Fast-path failure flag (authoritative state is `state.failed`).
    failed_fast: AtomicBool,
    /// Check invariants after each transition.
    pub(crate) check_invariants: bool,
}

impl Shared {
    /// Number of vertex slots.
    pub(crate) fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The vertex slots, in schedule order.
    pub(crate) fn vertex_slots(&self) -> impl Iterator<Item = &Mutex<VertexSlot>> {
        self.vertices.iter()
    }

    /// Enqueues a transition's tasks. `worker` is the id of the calling
    /// worker, if any: its own shard receives the tasks (LIFO
    /// locality); admission paths pass `None` (the engine's injector
    /// lane).
    pub(crate) fn enqueue_all(&self, transition: &mut Transition, worker: Option<usize>) {
        let mut refused = false;
        for task in transition.tasks.drain(..) {
            refused |= !self.queue.enqueue(task, worker);
        }
        // A private queue refuses only while a failed run drains
        // (discarding is intended). A shared queue also refuses if the
        // pool was shut down under a still-attached tenant: losing the
        // tasks would strand `wait_idle` forever, so convert the
        // refusal into an engine failure that surfaces everywhere.
        if refused && self.queue.is_pooled() && !self.failed_fast.load(Relaxed) {
            self.fail(EngineError::Config(
                "engine pool shut down while this tenant was still attached".into(),
            ));
        }
    }

    /// Fast-path check of the failure flag (authoritative state is
    /// `state.failed`; this is the lock-free mirror workers poll).
    pub(crate) fn failed_fast(&self) -> bool {
        self.failed_fast.load(Relaxed)
    }

    /// Blocks on the progress condvar, counting the wait so notifiers
    /// can skip the syscall when nobody is listening.
    pub(crate) fn wait_progress(&self, st: &mut MutexGuard<'_, SchedState>) {
        self.progress_waiters.fetch_add(1, Relaxed);
        self.progress.wait(st);
        self.progress_waiters.fetch_sub(1, Relaxed);
    }

    /// Like [`wait_progress`](Self::wait_progress) with a timeout;
    /// returns true if the wait timed out.
    pub(crate) fn wait_progress_timeout(
        &self,
        st: &mut MutexGuard<'_, SchedState>,
        timeout: Duration,
    ) -> bool {
        self.progress_waiters.fetch_add(1, Relaxed);
        let timed_out = self.progress.wait_for(st, timeout).timed_out();
        self.progress_waiters.fetch_sub(1, Relaxed);
        timed_out
    }

    /// Wakes progress waiters, if there are any. The waiter count is
    /// incremented under the state lock before waiting and every
    /// notifier has just released that lock, so a skipped notify can
    /// never strand a waiter.
    pub(crate) fn notify_progress(&self) {
        if self.progress_waiters.load(Relaxed) > 0 {
            self.progress.notify_all();
        }
    }

    /// Stamps a freshly started phase's admission time and records the
    /// span event. Call under the state lock, right after
    /// `start_phase`.
    pub(crate) fn note_admitted(&self, phase: u64) {
        let now = Instant::now();
        self.admit_clock.note_admitted_at(phase, now);
        if let Some(r) = &self.recorder {
            // One clock read serves both the admit stamp and the span.
            r.record_span_ending(0, SpanKind::PhaseAdmitted, phase, 1, 0, now);
        }
    }

    /// Stamps `phase`'s admission time off a clock read the caller
    /// already made, without emitting a ring event. Batch admission
    /// stamps every phase in the batch with one shared read and emits
    /// a single [`Shared::record_admitted_batch`] span once the state
    /// lock is dropped, keeping the recorder off the serial section.
    #[inline]
    pub(crate) fn stamp_admitted(&self, phase: u64, now: Instant) {
        self.admit_clock.note_admitted_at(phase, now);
    }

    /// Emits one `PhaseAdmitted` span covering the contiguous batch
    /// `[first, first + count)`. Call after the state lock is dropped.
    pub(crate) fn record_admitted_batch(&self, first: u64, count: u64, now: Instant) {
        if let Some(r) = &self.recorder {
            r.record_span_ending(0, SpanKind::PhaseAdmitted, first, count, 0, now);
        }
    }

    /// Marks `phase` as carrying a sampled causal trace, forcing its
    /// exec/retire spans past 1-in-8 sampling. Call before the phase is
    /// admitted.
    pub(crate) fn mark_traced(&self, phase: u64) {
        self.traced.mark(phase);
    }

    /// Records admission→retirement latency for every phase newly
    /// covered by the completion frontier. `worker` is the calling
    /// worker, if any (`None` for the admission path's silent-phase
    /// completions).
    pub(crate) fn note_retired(&self, frontier: u64, worker: Option<usize>) {
        let lane = worker.map(|w| w + 1).unwrap_or(0);
        self.admit_clock
            .drain_retired(frontier, |phase, nanos, end| {
                self.phase_hist.record(worker.unwrap_or(0), nanos);
                if let Some(r) = &self.recorder {
                    // Sampled 1-in-8 like exec spans; the phase-latency
                    // histogram above sees every phase regardless. Phases
                    // number from 1, so `== 1` keeps the very first phase
                    // of a run (and therefore tiny runs) in the trace.
                    // Trace-marked phases always record, so a sampled
                    // event's causal chain is complete.
                    if phase & EXEC_SAMPLE_MASK == 1 || self.traced.contains(phase) {
                        r.record_span_ending(lane, SpanKind::PhaseRetired, phase, nanos, 0, end);
                    }
                }
            });
    }

    pub(crate) fn fail(&self, error: EngineError) {
        self.failed_fast.store(true, Relaxed);
        {
            let mut st = self.state.lock();
            if st.failed.is_none() {
                st.failed = Some(error.to_string());
            }
        }
        self.progress.notify_all();
        self.queue.close();
    }

    /// The body of Listing 1: dequeue, execute, update.
    pub(crate) fn worker_loop(&self, worker: usize) {
        // Private steal-RNG state; any per-worker nonzero seed works.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ ((worker as u64 + 1) << 17);
        let mut scratch = WorkerScratch::default();
        loop {
            let task = match self.queue.dequeue(worker, &mut seed) {
                Dequeued::Closed => return,
                Dequeued::Item(t) => t,
            };
            if self.failed_fast.load(Relaxed) {
                continue; // drain without executing
            }
            self.run_task(task, worker, &mut scratch);
        }
    }

    /// Executes one dequeued phase run and publishes its scheduler
    /// transition — the per-task body of Listing 1, shared by private
    /// workers and the multi-tenant pool dispatch ([`crate::multi`]).
    ///
    /// The run's phases execute in order under one vertex-lock hold
    /// until the run ends or the segment passes [`RUN_BUDGET`]; the
    /// executed prefix is published under one state-lock hold, and an
    /// unexecuted remainder (still claimed) goes back onto this
    /// worker's shard, after the tasks the publish made ready.
    pub(crate) fn run_task(&self, task: Task, worker: usize, scratch: &mut WorkerScratch) {
        let WorkerScratch {
            transition,
            fresh,
            done,
        } = scratch;
        let Task {
            idx,
            phase,
            inputs,
            mut rest,
        } = task;
        let slot_pos = (idx - 1) as usize;
        done.clear();

        // Statement 1.3, once per phase of the run: execute outside the
        // global lock.
        let depth = self.gauge.enter(phase);
        let start = Instant::now();
        let mut next = 0; // rest[next..] is not executed yet
        let mut current = phase;
        let result = catch_unwind(AssertUnwindSafe(|| -> Result<(), EngineError> {
            let mut slot = self.vertices[slot_pos].lock();
            let mut inputs = inputs;
            loop {
                let p = current;
                // The task owns its inputs: translate indices by value
                // instead of cloning every message payload.
                fresh.clear();
                fresh.extend(
                    inputs
                        .into_iter()
                        .map(|(i, v)| (self.numbering.vertex_at(i), v)),
                );
                let emission = slot.execute(Phase(p), fresh.as_slice());
                let routed = route_emission(
                    emission,
                    slot.is_sink,
                    slot.vertex_id,
                    &self.succs_idx[slot_pos],
                    &self.numbering,
                )?;
                let ended = Instant::now();
                done.push(Executed {
                    phase: p,
                    routed,
                    ended,
                });
                if next == rest.len() || ended.saturating_duration_since(start) >= RUN_BUDGET {
                    return Ok(());
                }
                (current, inputs) = std::mem::take(&mut rest[next]);
                next += 1;
            }
        }));
        self.gauge.exit(phase);
        match result {
            Err(payload) => {
                self.fail(EngineError::ModulePanic {
                    vertex: self.numbering.vertex_at(idx),
                    phase: current,
                    message: payload_to_string(&payload),
                });
                return;
            }
            Ok(Err(e)) => {
                self.fail(e);
                return;
            }
            Ok(Ok(())) => {}
        }

        let executed = done.len() as u64;
        let mut prev = start;
        let mut last_nanos = 0;
        let (mut messages, mut silent, mut sinks) = (0u64, 0u64, 0u64);
        for e in done.iter() {
            last_nanos = e.ended.saturating_duration_since(prev).as_nanos() as u64;
            if let Some(r) = &self.recorder {
                // Exec spans are sampled 1-in-8: the histograms stay
                // exact, but a ring write per vertex execution is the
                // single largest recorder cost at full throughput.
                if (e.phase ^ idx as u64) & EXEC_SAMPLE_MASK == 0 || self.traced.contains(e.phase) {
                    r.record_span_ending(
                        worker + 1,
                        SpanKind::Exec,
                        e.phase,
                        idx as u64,
                        last_nanos,
                        e.ended,
                    );
                }
            }
            prev = e.ended;
            let sent = e.routed.messages.len() as u64;
            let sink = e.routed.sink_value.is_some();
            messages += sent;
            sinks += sink as u64;
            silent += (sent == 0 && !sink) as u64;
        }
        let exec_nanos = prev.saturating_duration_since(start).as_nanos() as u64;
        self.metrics.exec_nanos.fetch_add(exec_nanos, Relaxed);
        self.exec_hist
            .record_n(worker, exec_nanos / executed, executed);
        self.metrics.sample_concurrent_phases(depth, executed);
        let slow = last_nanos >= RUN_BUDGET.as_nanos() as u64;

        self.record_run(idx, done, sinks > 0);

        // Statements 1.4–1.31 for every executed phase: update the
        // shared structures under one hold of the global lock.
        let wait_start = Instant::now();
        let mut st = self.state.lock();
        let locked = Instant::now();
        self.metrics.lock_wait_nanos.fetch_add(
            locked.saturating_duration_since(wait_start).as_nanos() as u64,
            Relaxed,
        );
        self.metrics.lock_acquisitions.fetch_add(1, Relaxed);
        if st.failed.is_some() {
            return;
        }
        transition.reset();
        st.mark_slow(idx, slow);
        st.finish_run(
            idx,
            done.drain(..).map(|e| (e.phase, e.routed.messages)),
            transition,
        );
        if self.check_invariants {
            if let Err(msg) = st.check_invariants() {
                drop(st);
                self.fail(EngineError::InvariantViolation(msg));
                return;
            }
        }
        let completed = transition.phases_completed;
        let frontier = if completed > 0 {
            st.completed_through()
        } else {
            0
        };
        self.metrics
            .critical_nanos
            .fetch_add(locked.elapsed().as_nanos() as u64, Relaxed);
        drop(st);
        // The unexecuted rest of the run stays claimed; enqueued last,
        // it is the next item this worker's LIFO shard hands out.
        if next < rest.len() {
            let (phase, inputs) = std::mem::take(&mut rest[next]);
            rest.drain(..=next);
            transition.tasks.push(Task {
                idx,
                phase,
                inputs,
                rest,
            });
        }
        // Enqueue outside the lock: ready runs are already claimed in
        // the scheduler state (at most one per vertex), so publication
        // order does not matter — but lock hold time does.
        self.enqueue_all(transition, Some(worker));

        self.metrics.executions.fetch_add(executed, Relaxed);
        if messages > 0 {
            self.metrics.messages_sent.fetch_add(messages, Relaxed);
        }
        if silent > 0 {
            self.metrics.silent_executions.fetch_add(silent, Relaxed);
        }
        if sinks > 0 {
            self.metrics.sink_outputs.fetch_add(sinks, Relaxed);
        }
        if completed > 0 {
            self.metrics.phases_completed.fetch_add(completed, Relaxed);
            self.note_retired(frontier, Some(worker));
            self.notify_progress();
        }
    }

    /// Records a run's executions into the history and, if any phase
    /// delivered a sink value, the live sink buffer — one lock hold
    /// each per run. Moves the records out of `done`: broadcast fan-out
    /// already shares payload buffers (`Value`'s heap variants are
    /// `Arc`-backed), so nothing is re-cloned per execution.
    fn record_run(&self, idx: Idx, done: &mut [Executed], has_sinks: bool) {
        let vertex = self.numbering.vertex_at(idx);
        if self.record_history {
            let mut guard = self.history.lock();
            if let Some(history) = guard.as_mut() {
                for e in done.iter_mut() {
                    let phase = Phase(e.phase);
                    let recorded =
                        std::mem::replace(&mut e.routed.recorded, RecordedEmission::Silent);
                    history.record(vertex, phase, recorded);
                    if let Some(v) = &e.routed.sink_value {
                        history.record_sink(vertex, phase, v.clone());
                    }
                }
            }
        }
        if has_sinks {
            let mut guard = self.live_sinks.lock();
            if let Some(pending) = guard.as_mut() {
                for e in done.iter_mut() {
                    if let Some(v) = e.routed.sink_value.take() {
                        pending.insert((e.phase, vertex), v);
                    }
                }
            }
        }
    }

    /// Snapshots the counters plus the sharded-queue observability
    /// fields (steal/park/wake counts, per-worker depths) and the
    /// engine-side latency histograms, merged across workers.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let stats = self.queue.stats();
        let scheduler = SchedulerCounters {
            steals: stats.steals.load(Relaxed),
            parks: stats.parks.load(Relaxed),
            wakes: stats.wakes.load(Relaxed),
            worker_queue_depths: self.queue.shard_depths(),
            injector_depth: self.queue.injector_depth(),
        };
        let latency = LatencyStats {
            phase: self.phase_hist.snapshot(),
            exec: self.exec_hist.snapshot(),
            ..Default::default()
        };
        self.metrics.snapshot_with(scheduler, latency)
    }

    /// The body of Listing 2's loop, bounded to `target` phases.
    fn environment_loop(&self, target: u64, max_inflight: u64) {
        let mut transition = Transition::default();
        loop {
            let mut st = self.state.lock();
            while st.failed.is_none() && st.next() <= target && st.inflight() >= max_inflight {
                self.wait_progress(&mut st);
            }
            if st.failed.is_some() || st.next() > target {
                return;
            }
            transition.reset();
            let phase = st.start_phase(&mut transition);
            self.note_admitted(phase);
            if self.check_invariants {
                if let Err(msg) = st.check_invariants() {
                    drop(st);
                    self.fail(EngineError::InvariantViolation(msg));
                    return;
                }
            }
            drop(st);
            self.enqueue_all(&mut transition, None);
            self.metrics.phases_started.fetch_add(1, Relaxed);
        }
    }
}

/// Result of one [`Engine::run`] call.
#[derive(Debug)]
pub struct RunReport {
    /// Number of phases completed in this run.
    pub phases: u64,
    /// Counter snapshot (cumulative across runs of the same engine).
    pub metrics: MetricsSnapshot,
    /// The execution history, if recording was enabled.
    pub history: Option<ExecutionHistory>,
}

/// The parallel Δ-dataflow engine.
///
/// Built by [`EngineBuilder`]; each [`run`](Engine::run) call executes a
/// further batch of phases (phase numbers continue across calls, so an
/// engine can drive an ongoing stream in chunks).
pub struct Engine {
    shared: Arc<Shared>,
    threads: usize,
    max_inflight: u64,
    /// `Some` when attached to a shared [`EnginePool`]; releases the
    /// tenant slot when dropped.
    membership: Option<PoolMembership>,
}

impl Engine {
    /// Shorthand for `EngineBuilder::new(dag, modules)`.
    pub fn builder(dag: Dag, modules: Vec<Box<dyn Module>>) -> EngineBuilder {
        EngineBuilder::new(dag, modules)
    }

    /// The vertex numbering in use.
    pub fn numbering(&self) -> &Numbering {
        &self.shared.numbering
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics_snapshot()
    }

    /// Executes `phases` further phases to completion.
    ///
    /// Spawns the computation processes and the environment process,
    /// waits until every started phase has completed (`x_p = N` for all
    /// of them), and joins all threads before returning.
    pub fn run(&mut self, phases: u64) -> Result<RunReport, EngineError> {
        if self.membership.is_some() {
            return Err(EngineError::Config(
                "a pooled engine has no private workers; drive it through into_live()".into(),
            ));
        }
        if phases == 0 {
            return Ok(RunReport {
                phases: 0,
                metrics: self.shared.metrics_snapshot(),
                history: None,
            });
        }
        let target = {
            let st = self.shared.state.lock();
            if let Some(msg) = &st.failed {
                return Err(EngineError::WorkerPanic(msg.clone()));
            }
            debug_assert_eq!(
                st.completed_through(),
                st.next() - 1,
                "previous run left phases incomplete"
            );
            st.completed_through() + phases
        };

        let shared = Arc::clone(&self.shared);
        let workers = WorkerPool::spawn("ec-worker", self.threads, move |i| {
            shared.worker_loop(i);
        });
        let env_shared = Arc::clone(&self.shared);
        let max_inflight = self.max_inflight;
        let env = thread::Builder::new()
            .name("ec-environment".into())
            .spawn(move || {
                env_shared.environment_loop(target, max_inflight);
            })
            .expect("spawn environment thread");

        // Wait for completion (or failure).
        {
            let mut st = self.shared.state.lock();
            while st.failed.is_none() && st.completed_through() < target {
                self.shared.wait_progress(&mut st);
            }
        }
        // Wake the environment in case it is throttled, and shut down.
        self.shared.progress.notify_all();
        env.join()
            .map_err(|p| EngineError::WorkerPanic(payload_to_string(&p)))?;
        self.shared.queue.close();
        let worker_panics = workers.join();
        self.shared.queue.reopen();

        if !worker_panics.is_empty() {
            return Err(EngineError::WorkerPanic(worker_panics.join("; ")));
        }
        let failed = self.shared.state.lock().failed.clone();
        if let Some(msg) = failed {
            return Err(EngineError::WorkerPanic(msg));
        }

        let history = {
            let mut guard = self.shared.history.lock();
            guard.as_mut().map(|h| {
                let mut taken = std::mem::replace(h, ExecutionHistory::new(h.vertex_count()));
                taken.finalize();
                taken
            })
        };

        Ok(RunReport {
            phases,
            metrics: self.shared.metrics_snapshot(),
            history,
        })
    }

    /// Applies an [`EngineCheckpoint`] to the (idle) engine: every
    /// vertex's module state and latest-value memory is restored from
    /// the captured state. The graph must have been rebuilt identically
    /// (same wiring, same modules); combine with
    /// [`EngineBuilder::resume_from`] so phase numbering continues where
    /// the checkpoint left off.
    pub fn restore_checkpoint(&self, checkpoint: &EngineCheckpoint) -> Result<(), EngineError> {
        let n = self.shared.vertices.len();
        if checkpoint.vertices.len() != n {
            return Err(EngineError::Config(format!(
                "checkpoint covers {} vertices, graph has {n}",
                checkpoint.vertices.len()
            )));
        }
        // Every vertex exactly once: with len == n, uniqueness makes the
        // mapping a bijection — a duplicated entry would otherwise leave
        // some other vertex silently unrestored.
        let mut restored = vec![false; n];
        for state in &checkpoint.vertices {
            if state.vertex.index() >= n {
                return Err(EngineError::Config(format!(
                    "checkpoint names unknown {:?}",
                    state.vertex
                )));
            }
            if std::mem::replace(&mut restored[state.vertex.index()], true) {
                return Err(EngineError::Config(format!(
                    "checkpoint lists {:?} twice",
                    state.vertex
                )));
            }
            let idx = self.shared.numbering.index_of(state.vertex);
            let slot_pos = (idx as usize)
                .checked_sub(1)
                .filter(|&i| i < n)
                .ok_or_else(|| {
                    EngineError::Config(format!("checkpoint names unknown {:?}", state.vertex))
                })?;
            self.shared.vertices[slot_pos].lock().restore(state)?;
        }
        Ok(())
    }

    /// Converts this (idle) engine into a [`LiveEngine`](crate::live::LiveEngine):
    /// workers are spawned immediately and stay up, and phases are
    /// admitted one at a time by the caller instead of by a scripted
    /// environment loop. This is the substrate the streaming runtime
    /// builds on.
    ///
    /// Phase numbering continues from any previous `run` calls.
    ///
    /// A [`pooled`](EngineBuilder::pooled) engine registers with its
    /// pool here instead of spawning private workers.
    pub fn into_live(self) -> crate::live::LiveEngine {
        match self.membership {
            Some(membership) => {
                membership.register(Arc::clone(&self.shared));
                crate::live::LiveEngine::spawn_pooled(self.shared, membership, self.max_inflight)
            }
            None => crate::live::LiveEngine::spawn(self.shared, self.threads, self.max_inflight),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RecordedEmission;
    use crate::module::Emission;
    use crate::module::ExecCtx;
    use crate::module::{FnModule, PassThrough, SourceModule, SumModule};
    use ec_events::sources::{Counter, Replay};
    use ec_graph::generators;

    fn counter_chain_engine(len: usize, threads: usize) -> Engine {
        let dag = generators::chain(len);
        let mut modules: Vec<Box<dyn Module>> = vec![Box::new(SourceModule::new(Counter::new()))];
        for _ in 1..len {
            modules.push(Box::new(PassThrough));
        }
        Engine::builder(dag, modules)
            .threads(threads)
            .check_invariants(true)
            .build()
            .unwrap()
    }

    #[test]
    fn chain_delivers_counter_to_sink() {
        let mut engine = counter_chain_engine(4, 3);
        let report = engine.run(5).unwrap();
        assert_eq!(report.phases, 5);
        let history = report.history.unwrap();
        let sink = engine.numbering().vertex_at(4);
        let outs = history.sink_outputs_of(sink);
        let vals: Vec<i64> = outs.iter().map(|(_, v)| v.as_i64().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5]);
        let phases: Vec<u64> = outs.iter().map(|(p, _)| p.get()).collect();
        assert_eq!(phases, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let run = |threads: usize| {
            let mut e = counter_chain_engine(6, threads);
            e.run(20).unwrap().history.unwrap()
        };
        let h1 = run(1);
        let h4 = run(4);
        assert_eq!(h1.equivalent(&h4), Ok(()));
    }

    #[test]
    fn diamond_sum_is_serializable() {
        let build = |threads: usize| {
            let dag = generators::diamond();
            let modules: Vec<Box<dyn Module>> = vec![
                Box::new(SourceModule::new(Counter::new())),
                Box::new(PassThrough),
                Box::new(PassThrough),
                Box::new(SumModule),
            ];
            Engine::builder(dag, modules)
                .threads(threads)
                .check_invariants(true)
                .build()
                .unwrap()
        };
        let mut a = build(1);
        let mut b = build(8);
        let ha = a.run(25).unwrap().history.unwrap();
        let hb = b.run(25).unwrap().history.unwrap();
        assert_eq!(ha.equivalent(&hb), Ok(()));
        // The sink sums both branches: 2 × counter value.
        let sink = a.numbering().vertex_at(4);
        for (i, (_, v)) in ha.sink_outputs_of(sink).iter().enumerate() {
            assert_eq!(v.as_f64().unwrap(), 2.0 * (i as f64 + 1.0));
        }
    }

    #[test]
    fn silent_sources_produce_no_downstream_work() {
        let dag = generators::chain(3);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Replay::new(vec![
                Some(Value::Int(1)),
                None,
                None,
                Some(Value::Int(2)),
            ]))),
            Box::new(PassThrough),
            Box::new(PassThrough),
        ];
        let mut engine = Engine::builder(dag, modules)
            .threads(2)
            .check_invariants(true)
            .build()
            .unwrap();
        let report = engine.run(4).unwrap();
        // Sources execute every phase (4), downstream only on change (2 each).
        assert_eq!(report.metrics.executions, 4 + 2 + 2);
        assert_eq!(report.metrics.messages_sent, 2 + 2); // edges × changes
        let history = report.history.unwrap();
        let mid = engine.numbering().vertex_at(2);
        assert_eq!(history.executed_phases(mid), vec![Phase(1), Phase(4)]);
    }

    #[test]
    fn phase_numbers_continue_across_runs() {
        let mut engine = counter_chain_engine(2, 2);
        engine.run(3).unwrap();
        let report = engine.run(2).unwrap();
        let history = report.history.unwrap();
        let sink = engine.numbering().vertex_at(2);
        let phases: Vec<u64> = history
            .sink_outputs_of(sink)
            .iter()
            .map(|(p, _)| p.get())
            .collect();
        // Second run covers phases 4 and 5 only (history is per-run).
        assert_eq!(phases, vec![4, 5]);
    }

    #[test]
    fn module_panic_surfaces_as_error() {
        let dag = generators::chain(2);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Counter::new())),
            Box::new(FnModule::new("bomb", |ctx: ExecCtx<'_>| {
                if ctx.phase == Phase(3) {
                    panic!("synthetic failure");
                }
                Emission::Silent
            })),
        ];
        let mut engine = Engine::builder(dag, modules).threads(4).build().unwrap();
        let err = engine.run(10).unwrap_err();
        match err {
            EngineError::WorkerPanic(msg) => assert!(msg.contains("synthetic failure")),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn bad_target_rejected() {
        let dag = generators::chain(3);
        let v0 = VertexId(0); // not a successor of vertex index 2
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Counter::new())),
            Box::new(FnModule::new("bad", move |_ctx: ExecCtx<'_>| {
                Emission::Targeted(vec![(v0, Value::Int(1))])
            })),
            Box::new(PassThrough),
        ];
        let mut engine = Engine::builder(dag, modules).threads(2).build().unwrap();
        let err = engine.run(2).unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanic(msg) if msg.contains("non-successor")));
    }

    #[test]
    fn metrics_count_messages_and_phases() {
        let mut engine = counter_chain_engine(3, 2);
        let report = engine.run(10).unwrap();
        assert_eq!(report.metrics.phases_started, 10);
        assert_eq!(report.metrics.phases_completed, 10);
        assert_eq!(report.metrics.executions, 30);
        assert_eq!(report.metrics.messages_sent, 20); // 2 edges × 10
        assert_eq!(report.metrics.sink_outputs, 10);
        assert!(report.metrics.max_concurrent_phases >= 1);
    }

    #[test]
    fn run_metrics_keep_per_execution_meaning() {
        // One worker, phases admitted eight at a time: vertices execute
        // phase runs, but every instrument still counts executions.
        let live = counter_chain_engine(3, 1).into_live();
        for _ in 0..4 {
            assert_eq!(live.admit_batch(8).unwrap(), 8);
        }
        let m = live.shutdown().unwrap().metrics;
        assert_eq!(m.executions, 3 * 32);
        assert_eq!(m.messages_sent, 2 * 32);
        assert_eq!(m.sink_outputs, 32);
        assert_eq!(m.silent_executions, 0);
        assert_eq!(m.latency.exec.count(), m.executions);
        assert_eq!(m.concurrent_phase_samples, m.executions);
        assert!(
            m.lock_acquisitions < m.executions,
            "{} publishes for {} executions: no runs formed",
            m.lock_acquisitions,
            m.executions
        );
    }

    #[test]
    fn zero_phases_is_a_noop() {
        let mut engine = counter_chain_engine(2, 1);
        let report = engine.run(0).unwrap();
        assert_eq!(report.phases, 0);
        assert!(report.history.is_none());
    }

    #[test]
    fn history_records_silent_executions() {
        let dag = generators::chain(2);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Replay::new(vec![None, None]))),
            Box::new(PassThrough),
        ];
        let mut engine = Engine::builder(dag, modules).threads(1).build().unwrap();
        let history = engine.run(2).unwrap().history.unwrap();
        let src = engine.numbering().vertex_at(1);
        assert_eq!(
            history.of(src),
            &[
                (Phase(1), RecordedEmission::Silent),
                (Phase(2), RecordedEmission::Silent)
            ]
        );
        // Downstream vertex never executed.
        let snd = engine.numbering().vertex_at(2);
        assert!(history.of(snd).is_empty());
    }

    #[test]
    fn throttle_limits_inflight_phases() {
        // The engine completes correctly under a tight throttle, and
        // pipelining depth is bounded by it. `max_inflight(1)` is the
        // no-pipelining regime (one phase at a time, §2's barrier
        // solution) that the serializability suite and the benchmark's
        // barrier baseline rely on: exactly one phase ever executes.
        for inflight in [2, 1] {
            let dag = generators::chain(8);
            let mut modules: Vec<Box<dyn Module>> =
                vec![Box::new(SourceModule::new(Counter::new()))];
            for _ in 1..8 {
                modules.push(Box::new(PassThrough));
            }
            let mut engine = Engine::builder(dag, modules)
                .threads(4)
                .max_inflight(inflight)
                .check_invariants(true)
                .build()
                .unwrap();
            let report = engine.run(30).unwrap();
            assert_eq!(report.metrics.phases_completed, 30);
            assert!(
                (1..=inflight).contains(&report.metrics.max_concurrent_phases),
                "max_inflight({inflight}): {} concurrent phases",
                report.metrics.max_concurrent_phases
            );
        }
    }
}
