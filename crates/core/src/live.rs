//! Caller-paced (live) execution: the incremental admission API.
//!
//! [`Engine::run`](crate::Engine::run) is batch: the environment thread
//! starts a fixed number of phases and the call returns when they have
//! all completed. A long-running service cannot work that way — events
//! arrive over time, and each phase can only be started once its input
//! snapshot exists. [`LiveEngine`] is the same scheduler, worker pool
//! and serializability machinery with the environment process replaced
//! by *the caller*: [`admit`](LiveEngine::admit) performs exactly the
//! environment's statements 2.11–2.19 for one phase, whenever the
//! caller decides the next snapshot is ready.
//!
//! The paper's Listing 2 environment "receives messages from sources
//! and sleeps for some amount of time" between phase starts; `admit` is
//! that loop body exposed as a method, which is what makes the
//! streaming runtime (`ec-runtime`) possible without any change to the
//! scheduling algorithm: serializability is a property of the shared
//! state transitions, not of who calls `start_phase`.
//!
//! Sink deliveries: in live mode the engine additionally buffers every
//! sink emission and releases it only once its phase has **retired**
//! (all phases up to it completed). Drained batches are therefore in
//! exact serial order — what an online subscriber must observe for the
//! runtime to remain serializable from the outside.

use crate::checkpoint::EngineCheckpoint;
use crate::engine::{RunReport, Shared};
use crate::error::EngineError;
use crate::history::{ExecutionHistory, SinkRecord};
use crate::multi::PoolMembership;
use crate::pool::WorkerPool;
use crate::state::Transition;
use ec_events::Phase;
use ec_graph::Numbering;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A long-running engine whose phases are admitted by the caller.
///
/// Created by [`Engine::into_live`](crate::Engine::into_live). Workers
/// run until [`shutdown`](LiveEngine::shutdown); all methods take
/// `&self`, so the engine can be shared behind an `Arc` between an
/// ingestion thread and a delivery thread.
pub struct LiveEngine {
    shared: Arc<Shared>,
    /// Joined (and replaced by `None`) at shutdown. `None` from the
    /// start for a pooled engine — the pool owns the workers.
    workers: Mutex<Option<WorkerPool>>,
    /// Set once shutdown begins; wakes [`wait_progress_for`] waiters.
    closing: AtomicBool,
    max_inflight: u64,
    /// Tenant-slot claim on a shared pool, released (slot freed, queued
    /// tasks invalidated) at shutdown or drop. `None` for an engine
    /// with private workers.
    membership: Mutex<Option<PoolMembership>>,
}

impl LiveEngine {
    /// Spawns the persistent worker pool (crate-internal; use
    /// [`Engine::into_live`](crate::Engine::into_live)).
    pub(crate) fn spawn(shared: Arc<Shared>, threads: usize, max_inflight: u64) -> LiveEngine {
        *shared.live_sinks.lock() = Some(std::collections::BTreeMap::new());
        let worker_shared = Arc::clone(&shared);
        let workers = WorkerPool::spawn("ec-live-worker", threads, move |i| {
            worker_shared.worker_loop(i);
        });
        LiveEngine {
            shared,
            workers: Mutex::new(Some(workers)),
            closing: AtomicBool::new(false),
            max_inflight,
            membership: Mutex::new(None),
        }
    }

    /// Wraps an engine already registered with a shared pool — no
    /// private workers; the pool's workers execute this tenant's tasks
    /// (crate-internal; use [`Engine::into_live`](crate::Engine::into_live)
    /// after [`EngineBuilder::pooled`](crate::EngineBuilder::pooled)).
    pub(crate) fn spawn_pooled(
        shared: Arc<Shared>,
        membership: PoolMembership,
        max_inflight: u64,
    ) -> LiveEngine {
        *shared.live_sinks.lock() = Some(std::collections::BTreeMap::new());
        LiveEngine {
            shared,
            workers: Mutex::new(None),
            closing: AtomicBool::new(false),
            max_inflight,
            membership: Mutex::new(Some(membership)),
        }
    }

    /// The vertex numbering in use.
    pub fn numbering(&self) -> &Numbering {
        &self.shared.numbering
    }

    /// Cumulative metrics.
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.shared.metrics_snapshot()
    }

    /// Starts the next phase (the environment process's step) and
    /// returns its number. Every source module will be polled for this
    /// phase, so the caller must stage source input *before* admitting.
    ///
    /// Blocks while `max_inflight` phases are already started but
    /// incomplete (the environment throttle), bounding scheduler
    /// memory. Returns an error if the engine has failed or is shut
    /// down.
    pub fn admit(&self) -> Result<u64, EngineError> {
        let mut st = self.shared.state.lock();
        while st.failed.is_none()
            && st.inflight() >= self.max_inflight
            && !self.closing.load(Relaxed)
        {
            self.shared.wait_progress(&mut st);
        }
        if let Some(msg) = &st.failed {
            return Err(EngineError::WorkerPanic(msg.clone()));
        }
        if self.closing.load(Relaxed) {
            return Err(EngineError::Config("engine is shut down".into()));
        }
        let mut transition = Transition::default();
        let phase = st.start_phase(&mut transition);
        self.shared.note_admitted(phase);
        if self.shared.check_invariants {
            if let Err(msg) = st.check_invariants() {
                drop(st);
                let error = EngineError::InvariantViolation(msg);
                self.shared.fail(error.clone());
                return Err(error);
            }
        }
        drop(st);
        self.shared.enqueue_all(&mut transition, None);
        self.shared.metrics.phases_started.fetch_add(1, Relaxed);
        Ok(phase)
    }

    /// Starts up to `limit` phases under a **single** acquisition of
    /// the global lock, returning how many were started.
    ///
    /// [`admit`](LiveEngine::admit) pays one lock round-trip per phase;
    /// a bursty ingestion front end sealing `k` queued events at once
    /// can amortize that to one acquisition per batch. Blocks (like
    /// `admit`) while the in-flight throttle is saturated, then starts
    /// `min(limit, remaining in-flight headroom)` phases — always at
    /// least one. Sources must have input staged for *every* started
    /// phase before the call.
    pub fn admit_batch(&self, limit: u64) -> Result<u64, EngineError> {
        self.admit_batch_inner(limit, None)
    }

    /// [`admit_batch`](Self::admit_batch) with silence-aware admission:
    /// for each started phase, `is_silent(offset, source)` is consulted
    /// for every source vertex (`offset` counts phases within this
    /// batch, from 0) and sources reported silent are not scheduled at
    /// all — no task, no poll, no execution.
    ///
    /// Soundness is the *caller's* contract: a source may only be
    /// reported silent when its execution would provably be a no-op —
    /// poll `None`, emit nothing, mutate nothing. The streaming runtime
    /// can promise this for its live feeds because it staged their bins
    /// and knows exactly which phases are silent; scripted sources
    /// (whose poll advances generator state) must never be skipped.
    /// Downstream vertices are unaffected: they are scheduled by
    /// message arrival, and a skipped execution would have sent none.
    /// A phase whose every source is silent completes without any
    /// execution.
    pub fn admit_batch_sparse(
        &self,
        limit: u64,
        mut is_silent: impl FnMut(u64, ec_graph::VertexId) -> bool,
    ) -> Result<u64, EngineError> {
        self.admit_batch_inner(limit, Some(&mut is_silent))
    }

    fn admit_batch_inner(
        &self,
        limit: u64,
        mut is_silent: Option<&mut dyn FnMut(u64, ec_graph::VertexId) -> bool>,
    ) -> Result<u64, EngineError> {
        if limit == 0 {
            return Ok(0);
        }
        let mut st = self.shared.state.lock();
        while st.failed.is_none()
            && st.inflight() >= self.max_inflight
            && !self.closing.load(Relaxed)
        {
            self.shared.wait_progress(&mut st);
        }
        if let Some(msg) = &st.failed {
            return Err(EngineError::WorkerPanic(msg.clone()));
        }
        if self.closing.load(Relaxed) {
            return Err(EngineError::Config("engine is shut down".into()));
        }
        let headroom = self.max_inflight - st.inflight();
        let batch = limit.min(headroom).max(1);
        let mut transition = Transition::default();
        // One clock read stamps the whole batch; the ring span for it
        // is emitted after the lock drops so the recorder never sits
        // on the admission serial section.
        let admitted_at = Instant::now();
        let mut first_phase = 0;
        for offset in 0..batch {
            let phase = match is_silent.as_mut() {
                Some(is_silent) => {
                    let numbering = &self.shared.numbering;
                    st.start_phase_filtered(&mut transition, |s| {
                        !is_silent(offset, numbering.vertex_at(s))
                    })
                }
                None => st.start_phase(&mut transition),
            };
            if offset == 0 {
                first_phase = phase;
            }
            self.shared.stamp_admitted(phase, admitted_at);
            if self.shared.check_invariants {
                if let Err(msg) = st.check_invariants() {
                    drop(st);
                    let error = EngineError::InvariantViolation(msg);
                    self.shared.fail(error.clone());
                    return Err(error);
                }
            }
        }
        let completed = transition.phases_completed;
        let frontier = if completed > 0 {
            st.completed_through()
        } else {
            0
        };
        drop(st);
        self.shared
            .record_admitted_batch(first_phase, batch, admitted_at);
        // All-silent phases complete at admission (no worker will ever
        // touch them): publish that progress exactly as a worker would.
        self.shared.enqueue_all(&mut transition, None);
        self.shared.metrics.phases_started.fetch_add(batch, Relaxed);
        if completed > 0 {
            self.shared
                .metrics
                .phases_completed
                .fetch_add(completed, Relaxed);
            self.shared.note_retired(frontier, None);
            self.shared.notify_progress();
        }
        Ok(batch)
    }

    /// Captures every vertex's state ([`EngineCheckpoint`]) at the
    /// current retired phase boundary.
    ///
    /// Requires the engine to be idle (every admitted phase completed);
    /// errors otherwise — a mid-flight capture would not be a
    /// serializable cut. The global lock is held for the duration, so
    /// no phase can be admitted while state is read; at idle no worker
    /// holds a vertex lock, so acquiring them here cannot deadlock.
    pub fn checkpoint_vertices(&self) -> Result<EngineCheckpoint, EngineError> {
        let st = self.shared.state.lock();
        if let Some(msg) = &st.failed {
            return Err(EngineError::WorkerPanic(msg.clone()));
        }
        if st.completed_through() != st.pmax() {
            return Err(EngineError::Config(format!(
                "checkpoint requires an idle engine ({} of {} phases complete)",
                st.completed_through(),
                st.pmax()
            )));
        }
        let phase = st.completed_through();
        let mut vertices = Vec::with_capacity(self.shared.vertex_count());
        for slot in self.shared.vertex_slots() {
            vertices.push(slot.lock().checkpoint()?);
        }
        drop(st);
        vertices.sort_by_key(|v| v.vertex);
        Ok(EngineCheckpoint { phase, vertices })
    }

    /// Highest phase admitted so far.
    pub fn admitted(&self) -> u64 {
        self.shared.state.lock().pmax()
    }

    /// Marks a not-yet-admitted phase as carrying a sampled causal
    /// trace: its exec/retire spans bypass the recorder's 1-in-8
    /// sampling so the event's full chain lands in the flight recorder.
    pub fn mark_traced(&self, phase: u64) {
        self.shared.mark_traced(phase);
    }

    /// All phases up to and including this have completed.
    pub fn completed_through(&self) -> u64 {
        self.shared.state.lock().completed_through()
    }

    /// Blocks until every admitted phase has completed (or the engine
    /// fails).
    pub fn wait_idle(&self) -> Result<u64, EngineError> {
        let mut st = self.shared.state.lock();
        while st.failed.is_none() && st.completed_through() < st.pmax() {
            self.shared.wait_progress(&mut st);
        }
        if let Some(msg) = &st.failed {
            return Err(EngineError::WorkerPanic(msg.clone()));
        }
        Ok(st.completed_through())
    }

    /// Blocks until the completed frontier advances past `seen`, the
    /// timeout elapses, the engine starts shutting down, or it fails.
    /// Returns the current frontier; a delivery loop calls this with
    /// the last frontier it has drained.
    pub fn wait_progress_for(&self, seen: u64, timeout: Duration) -> Result<u64, EngineError> {
        let mut st = self.shared.state.lock();
        while st.failed.is_none() && st.completed_through() <= seen && !self.closing.load(Relaxed) {
            if self.shared.wait_progress_timeout(&mut st, timeout) {
                break;
            }
        }
        if let Some(msg) = &st.failed {
            return Err(EngineError::WorkerPanic(msg.clone()));
        }
        Ok(st.completed_through())
    }

    /// True once [`shutdown`](Self::shutdown) has begun: admissions are
    /// refused and [`wait_progress_for`](Self::wait_progress_for) no
    /// longer blocks.
    pub fn closing(&self) -> bool {
        self.closing.load(Relaxed)
    }

    /// Wakes all blocked `admit` / `wait_*` callers (used by runtimes
    /// coordinating their own shutdown).
    pub fn wake_all(&self) {
        self.shared.progress.notify_all();
    }

    /// Drains the sink emissions of all **retired** phases (phase ≤
    /// completed frontier), in `(phase, vertex)` order — the serial
    /// order of the sequential oracle. Emissions of phases still in
    /// flight stay buffered.
    pub fn drain_retired_sinks(&self) -> Vec<SinkRecord> {
        let completed = self.shared.state.lock().completed_through();
        let mut guard = self.shared.live_sinks.lock();
        let Some(pending) = guard.as_mut() else {
            return Vec::new();
        };
        let mut rest = pending.split_off(&(completed + 1, ec_graph::VertexId(0)));
        std::mem::swap(pending, &mut rest);
        rest.into_iter()
            .map(|((phase, vertex), value)| SinkRecord {
                vertex,
                phase: Phase(phase),
                value,
            })
            .collect()
    }

    /// Waits for all admitted phases to complete, stops the workers and
    /// returns the run report (history since live start, if recording
    /// was enabled at build time).
    ///
    /// Idempotent: later calls return an empty report.
    pub fn shutdown(&self) -> Result<RunReport, EngineError> {
        // Bar new admissions FIRST, under the state lock: `admit`
        // checks `closing` and enqueues while holding that lock, so
        // after this block every phase is either fully admitted (and
        // covered by the wait below) or refused. Only then is it safe
        // to wait for quiescence and close the queue — the reverse
        // order would let a racing admit enqueue tasks into a closed
        // queue, which silently drops them and strands the phase.
        {
            let _st = self.shared.state.lock();
            self.closing.store(true, Relaxed);
        }
        self.shared.progress.notify_all(); // wake throttled admits
        let wait_result = self.wait_idle();
        self.shared.queue.close();
        let workers = self.workers.lock().take();
        let worker_panics = match workers {
            Some(pool) => pool.join(),
            None => Vec::new(), // pooled, or already shut down
        };
        // Detach from a shared pool only after the idle wait: every
        // admitted phase has been executed (or the engine failed), so
        // invalidating the tenant's remaining queued tasks is safe.
        drop(self.membership.lock().take());
        let completed = wait_result?;
        if !worker_panics.is_empty() {
            return Err(EngineError::WorkerPanic(worker_panics.join("; ")));
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
            phases: completed,
            metrics: self.shared.metrics_snapshot(),
            history,
        })
    }
}

impl Drop for LiveEngine {
    fn drop(&mut self) {
        // Don't leave detached workers behind if the caller never shut
        // down cleanly (e.g. unwinding out of a test).
        self.closing.store(true, Relaxed);
        self.shared.progress.notify_all();
        self.shared.queue.close();
        if let Some(pool) = self.workers.lock().take() {
            let _ = pool.join();
        }
        // An unclean drop of a pooled engine is the "killed tenant"
        // case: release the slot so the pool discards whatever this
        // tenant still had queued (a later occupant of the slot must
        // never receive it) and keeps serving the other tenants.
        drop(self.membership.lock().take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Module, PassThrough, SourceModule};
    use crate::sequential::Sequential;
    use crate::Engine;
    use ec_events::sources::Counter;
    use ec_events::Value;
    use ec_graph::generators;

    fn chain_modules(len: usize) -> Vec<Box<dyn Module>> {
        let mut modules: Vec<Box<dyn Module>> = vec![Box::new(SourceModule::new(Counter::new()))];
        for _ in 1..len {
            modules.push(Box::new(PassThrough));
        }
        modules
    }

    fn live_chain(len: usize, threads: usize) -> LiveEngine {
        let dag = generators::chain(len);
        Engine::builder(dag, chain_modules(len))
            .threads(threads)
            .check_invariants(true)
            .build()
            .unwrap()
            .into_live()
    }

    #[test]
    fn admit_one_phase_at_a_time() {
        let live = live_chain(3, 2);
        for expect in 1..=5u64 {
            assert_eq!(live.admit().unwrap(), expect);
            assert_eq!(live.wait_idle().unwrap(), expect);
        }
        let report = live.shutdown().unwrap();
        assert_eq!(report.phases, 5);
        let history = report.history.unwrap();
        let sink = live.numbering().vertex_at(3);
        let vals: Vec<i64> = history
            .sink_outputs_of(sink)
            .iter()
            .map(|(_, v)| v.as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn burst_admission_matches_oracle() {
        let live = live_chain(4, 4);
        for _ in 0..20 {
            live.admit().unwrap();
        }
        let report = live.shutdown().unwrap();

        let dag = generators::chain(4);
        let mut seq = Sequential::new(&dag, chain_modules(4)).unwrap();
        seq.run(20).unwrap();
        assert_eq!(
            seq.into_history().equivalent(&report.history.unwrap()),
            Ok(())
        );
    }

    #[test]
    fn retired_sinks_arrive_in_serial_order() {
        let live = live_chain(2, 3);
        let mut seen: Vec<(u64, i64)> = Vec::new();
        for _ in 0..10 {
            live.admit().unwrap();
        }
        let mut frontier = 0;
        while frontier < 10 {
            frontier = live
                .wait_progress_for(frontier, Duration::from_millis(100))
                .unwrap();
            for r in live.drain_retired_sinks() {
                seen.push((r.phase.get(), r.value.as_i64().unwrap()));
            }
        }
        assert_eq!(seen, (1..=10).map(|p| (p, p as i64)).collect::<Vec<_>>());
        // Nothing left after everything retired.
        assert!(live.drain_retired_sinks().is_empty());
        live.shutdown().unwrap();
    }

    #[test]
    fn inflight_sinks_stay_buffered() {
        // A 2-vertex chain where the sink blocks phase 1 until released:
        // phases 2 and 3 cannot retire before phase 1, so their sink
        // outputs must not be drained early.
        use crate::module::{Emission, ExecCtx, FnModule};
        use std::sync::mpsc;

        let dag = generators::chain(2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(release_rx);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Counter::new())),
            Box::new(FnModule::new("gated-sink", move |ctx: ExecCtx<'_>| {
                if ctx.phase == Phase(1) {
                    gate.lock().unwrap().recv().unwrap();
                }
                match ctx.inputs.fresh.last() {
                    Some((_, v)) => Emission::Broadcast(v.clone()),
                    None => Emission::Silent,
                }
            })),
        ];
        let live = Engine::builder(dag, modules)
            .threads(2)
            .build()
            .unwrap()
            .into_live();
        for _ in 0..3 {
            live.admit().unwrap();
        }
        // Give workers a moment; nothing may retire while phase 1 blocks.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(live.completed_through(), 0);
        assert!(live.drain_retired_sinks().is_empty());
        release_tx.send(()).unwrap();
        live.wait_idle().unwrap();
        let drained = live.drain_retired_sinks();
        assert_eq!(drained.len(), 3);
        assert!(drained.windows(2).all(|w| w[0].phase < w[1].phase));
        live.shutdown().unwrap();
    }

    #[test]
    fn throttle_bounds_inflight() {
        use crate::module::{Emission, ExecCtx, FnModule};
        use std::sync::mpsc;

        let dag = generators::chain(2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(release_rx);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Counter::new())),
            Box::new(FnModule::new("slow-sink", move |_ctx: ExecCtx<'_>| {
                gate.lock().unwrap().recv().unwrap();
                Emission::Broadcast(Value::Unit)
            })),
        ];
        let live = Engine::builder(dag, modules)
            .threads(1)
            .max_inflight(2)
            .build()
            .unwrap()
            .into_live();
        live.admit().unwrap();
        live.admit().unwrap();
        // Third admit must block on the throttle; release from a helper.
        let started = std::time::Instant::now();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            for _ in 0..3 {
                release_tx.send(()).unwrap();
            }
        });
        live.admit().unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "admit returned before the throttle released"
        );
        releaser.join().unwrap();
        live.wait_idle().unwrap();
        live.shutdown().unwrap();
    }

    #[test]
    fn module_failure_surfaces_through_admit_or_wait() {
        use crate::module::{Emission, ExecCtx, FnModule};
        let dag = generators::chain(2);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Counter::new())),
            Box::new(FnModule::new("bomb", |ctx: ExecCtx<'_>| {
                if ctx.phase == Phase(2) {
                    panic!("live failure");
                }
                Emission::Silent
            })),
        ];
        let live = Engine::builder(dag, modules)
            .threads(2)
            .build()
            .unwrap()
            .into_live();
        live.admit().unwrap();
        live.admit().unwrap();
        let err = live.wait_idle().unwrap_err();
        assert!(matches!(err, EngineError::WorkerPanic(msg) if msg.contains("live failure")));
        assert!(live.shutdown().is_err());
    }

    #[test]
    fn shutdown_then_admit_errors() {
        let live = live_chain(2, 1);
        live.admit().unwrap();
        live.shutdown().unwrap();
        assert!(live.admit().is_err());
    }

    #[test]
    fn admit_batch_matches_oracle() {
        let live = live_chain(4, 4);
        let mut remaining = 20u64;
        while remaining > 0 {
            remaining -= live.admit_batch(remaining).unwrap();
        }
        assert_eq!(live.admitted(), 20);
        let report = live.shutdown().unwrap();

        let dag = generators::chain(4);
        let mut seq = Sequential::new(&dag, chain_modules(4)).unwrap();
        seq.run(20).unwrap();
        assert_eq!(
            seq.into_history().equivalent(&report.history.unwrap()),
            Ok(())
        );
    }

    #[test]
    fn admit_batch_respects_inflight_headroom() {
        // max_inflight = 3: a batch of 10 admits at most 3 at once.
        let dag = generators::chain(2);
        let live = Engine::builder(dag, chain_modules(2))
            .threads(2)
            .max_inflight(3)
            .build()
            .unwrap()
            .into_live();
        let first = live.admit_batch(10).unwrap();
        assert!((1..=3).contains(&first), "batch of {first}");
        live.wait_idle().unwrap();
        live.shutdown().unwrap();
    }

    #[test]
    fn admit_batch_sparse_skips_silent_sources() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Counts its polls — executions are exactly polls for sources.
        struct CountingSource(Arc<AtomicU64>, i64);
        impl ec_events::EventSource for CountingSource {
            fn poll(&mut self, _phase: Phase) -> Option<Value> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Some(Value::Int(self.1))
            }
            fn kind(&self) -> &'static str {
                "counting"
            }
        }

        // Two sources; source B is declared silent on odd offsets. Its
        // module must only be polled on even ones.
        let polls_a = Arc::new(AtomicU64::new(0));
        let polls_b = Arc::new(AtomicU64::new(0));
        let dag = {
            let mut d = ec_graph::Dag::new();
            let a = d.add_vertex("a");
            let b = d.add_vertex("b");
            let sink = d.add_vertex("sink");
            d.add_edge(a, sink).unwrap();
            d.add_edge(b, sink).unwrap();
            d
        };
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(CountingSource(Arc::clone(&polls_a), 1))),
            Box::new(SourceModule::new(CountingSource(Arc::clone(&polls_b), 2))),
            Box::new(PassThrough),
        ];
        let live = Engine::builder(dag, modules)
            .threads(2)
            .check_invariants(true)
            .build()
            .unwrap()
            .into_live();
        let b_vertex = live.numbering().vertex_at(2);
        let started = live
            .admit_batch_sparse(6, |offset, vertex| vertex == b_vertex && offset % 2 == 1)
            .unwrap();
        assert_eq!(started, 6);
        live.wait_idle().unwrap();
        live.shutdown().unwrap();
        assert_eq!(polls_a.load(Ordering::Relaxed), 6);
        assert_eq!(polls_b.load(Ordering::Relaxed), 3, "silent phases polled");
    }

    #[test]
    fn all_silent_phases_complete_without_executions() {
        let live = live_chain(3, 2);
        // Every source silent in every phase: nothing is scheduled, yet
        // the phases are admitted, complete immediately, and ordinary
        // phases continue after them with numbering intact.
        let started = live.admit_batch_sparse(4, |_, _| true).unwrap();
        assert_eq!(started, 4);
        assert_eq!(live.wait_idle().unwrap(), 4);
        assert_eq!(live.completed_through(), 4);
        assert_eq!(live.admit().unwrap(), 5);
        live.wait_idle().unwrap();
        let report = live.shutdown().unwrap();
        assert_eq!(report.phases, 5);
        // The dense phase executed the whole chain; the silent ones
        // executed nothing.
        assert_eq!(report.metrics.executions, 3);
    }

    #[test]
    fn sparse_and_dense_admission_interleave_with_inflight_predecessors() {
        use crate::module::{Emission, ExecCtx, FnModule};
        use std::sync::mpsc;

        // Phase 1 blocks in the sink; an all-silent phase 2 and a dense
        // phase 3 are admitted behind it. Nothing may complete until
        // phase 1 releases; then all three must retire in order.
        let dag = generators::chain(2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(release_rx);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Counter::new())),
            Box::new(FnModule::new("gated", move |ctx: ExecCtx<'_>| {
                if ctx.phase == Phase(1) {
                    gate.lock().unwrap().recv().unwrap();
                }
                Emission::Silent
            })),
        ];
        let live = Engine::builder(dag, modules)
            .threads(2)
            .check_invariants(true)
            .build()
            .unwrap()
            .into_live();
        live.admit().unwrap();
        live.admit_batch_sparse(1, |_, _| true).unwrap();
        live.admit().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(live.completed_through(), 0, "silent phase retired early");
        release_tx.send(()).unwrap();
        assert_eq!(live.wait_idle().unwrap(), 3);
        live.shutdown().unwrap();
    }

    #[test]
    fn admit_batch_zero_is_noop() {
        let live = live_chain(2, 1);
        assert_eq!(live.admit_batch(0).unwrap(), 0);
        live.shutdown().unwrap();
    }

    #[test]
    fn checkpoint_restore_resumes_exactly() {
        // Run 5 phases live, checkpoint, rebuild a fresh engine from the
        // checkpoint, run 5 more — the continuation must match phases
        // 6..=10 of an uninterrupted run.
        let live = live_chain(3, 2);
        for _ in 0..5 {
            live.admit().unwrap();
        }
        live.wait_idle().unwrap();
        let chk = live.checkpoint_vertices().unwrap();
        assert_eq!(chk.phase, 5);
        live.shutdown().unwrap();

        // Round-trip through bytes, as ec-store will.
        let chk = EngineCheckpoint::decode(&chk.encode()).unwrap();

        let dag = generators::chain(3);
        let resumed = Engine::builder(dag, chain_modules(3))
            .threads(2)
            .resume_from(chk.phase)
            .build()
            .unwrap();
        resumed.restore_checkpoint(&chk).unwrap();
        let resumed = resumed.into_live();
        for _ in 0..5 {
            resumed.admit().unwrap();
        }
        let report = resumed.shutdown().unwrap();
        assert_eq!(report.phases, 10); // completed_through continues
        let history = report.history.unwrap();
        let sink = resumed.numbering().vertex_at(3);
        let outs: Vec<(u64, i64)> = history
            .sink_outputs_of(sink)
            .iter()
            .map(|(p, v)| (p.get(), v.as_i64().unwrap()))
            .collect();
        // Counter state (5) restored; phases continue at 6.
        assert_eq!(outs, (6..=10).map(|p| (p, p as i64)).collect::<Vec<_>>());
    }

    #[test]
    fn checkpoint_requires_idle() {
        use crate::module::{Emission, ExecCtx, FnModule};
        use std::sync::mpsc;

        let dag = generators::chain(2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(release_rx);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Counter::new())),
            Box::new(FnModule::new("slow", move |_ctx: ExecCtx<'_>| {
                gate.lock().unwrap().recv().unwrap();
                Emission::Silent
            })),
        ];
        let live = Engine::builder(dag, modules)
            .threads(1)
            .build()
            .unwrap()
            .into_live();
        live.admit().unwrap();
        let err = live.checkpoint_vertices().unwrap_err();
        assert!(matches!(err, EngineError::Config(msg) if msg.contains("idle")));
        release_tx.send(()).unwrap();
        live.wait_idle().unwrap();
        live.shutdown().unwrap();
    }

    #[test]
    fn checkpoint_rejects_unsupported_modules() {
        use crate::module::{Emission, ExecCtx, FnModule};
        let dag = generators::chain(2);
        let modules: Vec<Box<dyn Module>> = vec![
            Box::new(SourceModule::new(Counter::new())),
            // FnModule closures may capture arbitrary state: no default
            // snapshot support.
            Box::new(FnModule::new("opaque", |_ctx: ExecCtx<'_>| {
                Emission::Silent
            })),
        ];
        let live = Engine::builder(dag, modules)
            .threads(1)
            .build()
            .unwrap()
            .into_live();
        let err = live.checkpoint_vertices().unwrap_err();
        assert!(
            matches!(err, EngineError::Config(msg) if msg.contains("opaque")),
            "error should name the offending module"
        );
        live.shutdown().unwrap();
    }

    #[test]
    fn restore_rejects_duplicate_vertex_states() {
        let live = live_chain(3, 1);
        live.admit().unwrap();
        live.wait_idle().unwrap();
        let mut chk = live.checkpoint_vertices().unwrap();
        live.shutdown().unwrap();

        // Duplicate one entry in place of another: same length, all
        // indices valid — only the uniqueness check can catch it.
        chk.vertices[2] = chk.vertices[1].clone();
        let dag = generators::chain(3);
        let resumed = Engine::builder(dag, chain_modules(3)).build().unwrap();
        let err = resumed.restore_checkpoint(&chk).unwrap_err();
        assert!(matches!(err, EngineError::Config(msg) if msg.contains("twice")));
    }

    #[test]
    fn restore_rejects_mismatched_graph() {
        let live = live_chain(3, 1);
        live.admit().unwrap();
        live.wait_idle().unwrap();
        let chk = live.checkpoint_vertices().unwrap();
        live.shutdown().unwrap();

        let dag = generators::chain(2); // wrong shape
        let resumed = Engine::builder(dag, chain_modules(2)).build().unwrap();
        assert!(resumed.restore_checkpoint(&chk).is_err());
    }
}
