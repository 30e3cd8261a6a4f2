//! Multi-tenant execution: many engines, one worker pool.
//!
//! The paper's prototype dedicates a `ThreadPoolExecutor` to a single
//! correlation graph. At production scale a machine hosts *many*
//! independent graphs (tenants), and giving each its own pool
//! oversubscribes the cores while leaving most pools idle.
//! [`EnginePool`] is the shared substrate: one worker pool draining
//! one [`ShardedQueue`] whose tasks are tagged with the tenant that
//! admitted them, dispatched to that tenant's scheduler state.
//!
//! Serializability needs no new argument here: each tenant keeps its
//! own `SchedState`, vertex slots and progress condvar — the paper's
//! correctness proof is per-graph, and nothing about *which thread*
//! runs a task enters into it. What the pool adds is policy:
//!
//! * **tagging** — every task carries `(tenant, generation)`; a worker
//!   resolves the tag against the registry before executing, so tasks
//!   of a detached tenant are discarded instead of running against a
//!   dead (or recycled) slot;
//! * **per-tenant admission lanes** — a tenant's admissions land in its
//!   own injector lane of the shared [`ShardedQueue`]; workers refill
//!   in weighted round-robin over lanes, so a saturated tenant cannot
//!   starve a trickle tenant (see [`crate::shard`]);
//! * **per-tenant in-flight caps** — each tenant's engine keeps its own
//!   `max_inflight` throttle, bounding how much of the shared queue a
//!   single tenant can occupy.
//!
//! Construction: [`EngineBuilder::pooled`](crate::EngineBuilder::pooled)
//! reserves a tenant slot; [`Engine::into_live`](crate::Engine::into_live)
//! registers the engine with the pool instead of spawning private
//! workers. The pooled engine must be driven through the live API
//! (`admit` / `admit_batch`); the batch [`run`](crate::Engine::run)
//! entry point refuses, since it owns its own worker lifecycle.

use crate::engine::{Shared, WorkerScratch};
use crate::error::EngineError;
use crate::pool::WorkerPool;
use crate::shard::{Dequeued, ShardedQueue};
use crate::state::Task;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// A task tagged with the tenant (and slot generation) that admitted
/// it, so shared workers can dispatch it to the right scheduler state —
/// and drop it if that tenant has since detached.
pub(crate) struct TaggedTask {
    tenant: u32,
    generation: u32,
    task: Task,
}

/// The task-queue handle every engine enqueues through.
///
/// Single-tenant engines own their queue outright (close/reopen act on
/// it, exactly the pre-pool behaviour); pooled engines share the pool's
/// queue and tag every task, and their close/reopen are no-ops — a
/// failing tenant must not stop its neighbours.
pub(crate) struct EngineQueue {
    queue: Arc<ShardedQueue<TaggedTask>>,
    tenant: u32,
    generation: u32,
    owns: bool,
}

impl EngineQueue {
    /// A private queue for a classic single-tenant engine.
    pub(crate) fn own(workers: usize) -> EngineQueue {
        EngineQueue {
            queue: Arc::new(ShardedQueue::with_lanes(workers, 1)),
            tenant: 0,
            generation: 0,
            owns: true,
        }
    }

    /// A handle into a pool's shared queue for tenant `tenant`.
    fn pooled(queue: Arc<ShardedQueue<TaggedTask>>, tenant: u32, generation: u32) -> EngineQueue {
        EngineQueue {
            queue,
            tenant,
            generation,
            owns: false,
        }
    }

    /// True if this engine shares a pool's queue.
    pub(crate) fn is_pooled(&self) -> bool {
        !self.owns
    }

    /// Enqueues one task, tagged for this engine's tenant. Worker
    /// producers push to their own shard; admission goes to the
    /// tenant's lane. Returns `false` if the queue refused (closed).
    pub(crate) fn enqueue(&self, task: Task, worker: Option<usize>) -> bool {
        let tagged = TaggedTask {
            tenant: self.tenant,
            generation: self.generation,
            task,
        };
        match worker {
            Some(w) => self.queue.enqueue(tagged, Some(w)),
            None => self.queue.enqueue_lane(tagged, self.tenant as usize),
        }
    }

    /// Blocking dequeue for a private-queue worker (single-tenant mode
    /// only — pool workers dequeue through [`PoolInner::worker_loop`]).
    pub(crate) fn dequeue(&self, worker: usize, seed: &mut u64) -> Dequeued<Task> {
        debug_assert!(self.owns, "pooled engines have no private workers");
        match self.queue.dequeue(worker, seed) {
            Dequeued::Item(t) => Dequeued::Item(t.task),
            Dequeued::Closed => Dequeued::Closed,
        }
    }

    /// Closes the queue — if this engine owns it. A pooled engine's
    /// close is a no-op: its pending tasks drain through the tenant's
    /// `failed` flag / deregistration instead.
    pub(crate) fn close(&self) {
        if self.owns {
            self.queue.close();
        }
    }

    /// Reopens an owned queue (between batch `run` calls).
    pub(crate) fn reopen(&self) {
        if self.owns {
            self.queue.reopen();
        }
    }

    /// Steal/park/wake counters of the underlying queue.
    pub(crate) fn stats(&self) -> &crate::shard::QueueStats {
        &self.queue.stats
    }

    /// Attaches a flight recorder for steal/park/wake events (first
    /// setter wins on a pool-shared queue).
    pub(crate) fn set_recorder(&self, recorder: &Arc<ec_obs::FlightRecorder>) {
        self.queue.set_recorder(recorder);
    }

    /// Per-worker shard depths of the underlying queue.
    pub(crate) fn shard_depths(&self) -> Vec<u64> {
        self.queue.shard_depths()
    }

    /// Depth of this engine's own admission lane — for a pooled engine,
    /// the tenant's queued-but-undispatched admissions.
    pub(crate) fn injector_depth(&self) -> u64 {
        self.queue.lane_depth(self.tenant as usize)
    }
}

/// One tenant slot in the registry.
struct TenantSlot {
    /// Bumped on every release, so tasks tagged by an earlier occupant
    /// of this slot can never dispatch into a later one.
    generation: u32,
    /// Reserved by a builder (or registered engine).
    reserved: bool,
    /// The engine's shared state, once registered via `into_live`.
    shared: Option<Arc<Shared>>,
}

pub(crate) struct PoolInner {
    queue: Arc<ShardedQueue<TaggedTask>>,
    tenants: RwLock<Vec<TenantSlot>>,
    workers: Mutex<Option<WorkerPool>>,
    threads: usize,
    /// Bumped on every tenant release. Workers re-validate their
    /// dispatch cache against this, so a detached tenant's leftover
    /// shard tasks are discarded (and its `Arc<Shared>` released) at
    /// the next dispatched task instead of lingering in a stale cache.
    detaches: AtomicU64,
}

impl PoolInner {
    /// The shared worker body: dequeue a tagged task, resolve the
    /// tenant, execute against that tenant's scheduler state. Tasks
    /// whose tenant has detached (generation mismatch or empty slot)
    /// are dropped; tasks of a failed tenant drain without executing,
    /// exactly as a private pool would.
    fn worker_loop(&self, worker: usize) {
        let mut seed = 0xA076_1D64_78BD_642Fu64 ^ ((worker as u64 + 1) << 21);
        let mut scratch = WorkerScratch::default();
        // Dispatch cache: tasks arrive in per-tenant bursts (LIFO
        // locality), so remember the last resolved tenant. Keying by
        // `(tenant, generation)` means a hit can never hand a task to
        // a *later* occupant of the same slot — but it would keep
        // matching a *released* tenant's leftover shard tasks, which
        // the registry path discards. The detach-epoch check below
        // closes that hole: any release invalidates every worker's
        // cache, so post-detach tasks take the registry path (and are
        // dropped), and the dead tenant's `Arc<Shared>` is let go.
        let mut cached: Option<(u32, u32, Arc<Shared>)> = None;
        let mut seen_detaches = self.detaches.load(SeqCst);
        loop {
            // About to block on an empty queue: let go of the cached
            // `Arc<Shared>` so an idle pool does not pin the last
            // tenant's engine state (per worker, indefinitely) after
            // that tenant detaches. Racy check — an enqueue landing
            // right after it merely costs one registry lookup.
            if cached.is_some() && self.queue.is_empty() {
                cached = None;
            }
            let tagged = match self.queue.dequeue(worker, &mut seed) {
                Dequeued::Closed => return,
                Dequeued::Item(t) => t,
            };
            let detaches = self.detaches.load(SeqCst);
            if detaches != seen_detaches {
                seen_detaches = detaches;
                cached = None;
            }
            let hit = matches!(
                &cached,
                Some((t, g, _)) if *t == tagged.tenant && *g == tagged.generation
            );
            if !hit {
                let resolved = {
                    let tenants = self.tenants.read();
                    match tenants.get(tagged.tenant as usize) {
                        Some(slot) if slot.generation == tagged.generation => slot.shared.clone(),
                        _ => None,
                    }
                };
                cached = resolved.map(|s| (tagged.tenant, tagged.generation, s));
            }
            let Some((_, _, shared)) = &cached else {
                continue;
            };
            if shared.failed_fast() {
                continue; // drain this tenant without executing
            }
            shared.run_task(tagged.task, worker, &mut scratch);
        }
    }

    /// Reserves a free tenant slot, returning `(tenant, generation)`.
    fn reserve(&self) -> Result<(u32, u32), EngineError> {
        let mut tenants = self.tenants.write();
        for (i, slot) in tenants.iter_mut().enumerate() {
            if !slot.reserved {
                slot.reserved = true;
                return Ok((i as u32, slot.generation));
            }
        }
        Err(EngineError::Config(format!(
            "engine pool is full ({} tenant slots)",
            tenants.len()
        )))
    }

    /// Registers a live engine into its reserved slot.
    fn register(&self, tenant: u32, generation: u32, shared: Arc<Shared>) {
        let mut tenants = self.tenants.write();
        let slot = &mut tenants[tenant as usize];
        debug_assert!(slot.reserved && slot.generation == generation);
        if slot.generation == generation {
            slot.shared = Some(shared);
        }
    }

    /// Releases a slot: detaches the engine, invalidates any of its
    /// tasks still queued (generation bump), discards its undispatched
    /// admissions and resets the lane weight for the next occupant.
    fn release(&self, tenant: u32, generation: u32) {
        {
            let mut tenants = self.tenants.write();
            let slot = &mut tenants[tenant as usize];
            if slot.generation != generation {
                return; // stale release (double call)
            }
            slot.shared = None;
            slot.reserved = false;
            slot.generation = slot.generation.wrapping_add(1);
        }
        self.queue.drain_lane(tenant as usize);
        self.queue.set_lane_weight(tenant as usize, 1);
        // After the slot is visibly cleared: invalidate every worker's
        // dispatch cache so leftover shard tasks of this tenant are
        // dropped rather than executed from a stale cache hit.
        self.detaches.fetch_add(1, SeqCst);
    }
}

/// A tenant's claim on a pool slot. Held by the engine from build to
/// shutdown; dropping it releases the slot (and invalidates the
/// tenant's queued tasks), so every exit path — clean shutdown, error,
/// or a simulated crash via `drop` — detaches correctly.
pub(crate) struct PoolMembership {
    inner: Arc<PoolInner>,
    tenant: u32,
    generation: u32,
}

impl PoolMembership {
    /// Attaches the engine's shared state to the reserved slot.
    pub(crate) fn register(&self, shared: Arc<Shared>) {
        self.inner.register(self.tenant, self.generation, shared);
    }

    /// The number of workers in the pool (pooled engines report this
    /// instead of their builder's thread count).
    pub(crate) fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Sets this tenant's admission-lane weight (weighted round-robin
    /// share of refill bandwidth).
    pub(crate) fn set_weight(&self, weight: u32) {
        self.inner
            .queue
            .set_lane_weight(self.tenant as usize, weight);
    }
}

impl Drop for PoolMembership {
    fn drop(&mut self) {
        self.inner.release(self.tenant, self.generation);
    }
}

/// A shared worker pool serving many independent engines (tenants).
///
/// One worker pool drains one [`ShardedQueue`]; every tenant gets
/// its own admission lane (weighted round-robin refill) and in-flight
/// cap, so tenants make fair, independent progress — one saturating
/// tenant cannot starve a trickle tenant, and one failing tenant
/// drains without disturbing its neighbours.
///
/// ```
/// use ec_core::{Engine, EnginePool, Module, PassThrough, SourceModule};
/// use ec_events::sources::Counter;
/// use ec_graph::generators;
///
/// let pool = EnginePool::new(2, 4); // 2 workers, up to 4 tenants
/// let mk = |len: usize| -> Vec<Box<dyn Module>> {
///     let mut m: Vec<Box<dyn Module>> =
///         vec![Box::new(SourceModule::new(Counter::new()))];
///     (1..len).for_each(|_| m.push(Box::new(PassThrough)));
///     m
/// };
/// let a = Engine::builder(generators::chain(3), mk(3))
///     .pooled(&pool)
///     .build()
///     .unwrap()
///     .into_live();
/// let b = Engine::builder(generators::chain(2), mk(2))
///     .pooled(&pool)
///     .build()
///     .unwrap()
///     .into_live();
/// a.admit().unwrap();
/// b.admit().unwrap();
/// assert_eq!(a.wait_idle().unwrap(), 1);
/// assert_eq!(b.wait_idle().unwrap(), 1);
/// a.shutdown().unwrap();
/// b.shutdown().unwrap();
/// pool.shutdown();
/// ```
#[derive(Clone)]
pub struct EnginePool {
    inner: Arc<PoolInner>,
}

impl EnginePool {
    /// Spawns `threads` shared workers able to host up to `max_tenants`
    /// concurrently attached engines. Idle workers park; an empty pool
    /// costs nothing but the threads' stacks.
    pub fn new(threads: usize, max_tenants: usize) -> EnginePool {
        let threads = threads.max(1);
        let max_tenants = max_tenants.max(1);
        let inner = Arc::new(PoolInner {
            queue: Arc::new(ShardedQueue::with_lanes(threads, max_tenants)),
            tenants: RwLock::new(
                (0..max_tenants)
                    .map(|_| TenantSlot {
                        generation: 0,
                        reserved: false,
                        shared: None,
                    })
                    .collect(),
            ),
            workers: Mutex::new(None),
            threads,
            detaches: AtomicU64::new(0),
        });
        let worker_inner = Arc::clone(&inner);
        let workers = WorkerPool::spawn("ec-pool-worker", threads, move |i| {
            worker_inner.worker_loop(i);
        });
        *inner.workers.lock() = Some(workers);
        EnginePool { inner }
    }

    /// Number of shared worker threads.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Maximum number of concurrently attached tenants.
    pub fn capacity(&self) -> usize {
        self.inner.tenants.read().len()
    }

    /// Number of tenant slots currently reserved or attached.
    pub fn tenant_count(&self) -> usize {
        self.inner
            .tenants
            .read()
            .iter()
            .filter(|s| s.reserved)
            .count()
    }

    /// Total queued tasks across every tenant (racy; observability).
    pub fn queue_len(&self) -> usize {
        self.inner.queue.len()
    }

    /// Stops the shared workers after delivering the queued backlog of
    /// still-attached tenants, and joins them. Idempotent. Detach (shut
    /// down) tenants first: tasks a tenant admits after this point are
    /// refused and surface as an engine failure rather than a hang.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        if let Some(workers) = self.inner.workers.lock().take() {
            let panics = workers.join();
            debug_assert!(panics.is_empty(), "pool worker panicked: {panics:?}");
        }
    }

    /// Reserves a tenant slot and returns the engine-side queue handle
    /// plus the membership guard (crate-internal: used by
    /// [`EngineBuilder::build`](crate::EngineBuilder::build)).
    pub(crate) fn join_pool(&self) -> Result<(EngineQueue, PoolMembership), EngineError> {
        let (tenant, generation) = self.inner.reserve()?;
        let queue = EngineQueue::pooled(Arc::clone(&self.inner.queue), tenant, generation);
        let membership = PoolMembership {
            inner: Arc::clone(&self.inner),
            tenant,
            generation,
        };
        Ok((queue, membership))
    }
}
