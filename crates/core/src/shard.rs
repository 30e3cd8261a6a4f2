//! The sharded work-stealing run queue.
//!
//! The paper's §3.2 run queue is one blocking FIFO: one mutex, one
//! condvar, every worker contending on both for every task. That is
//! faithful, but it serializes the hot path — each enqueue takes the
//! global queue lock and signals a condvar shared by every parked
//! worker, so a burst of admissions stampedes the whole pool.
//!
//! [`ShardedQueue`] keeps the same contract (each item dequeued exactly
//! once; `close` delivers the backlog before consumers observe `Closed`)
//! with a scalable shape:
//!
//! * **per-worker deques** — a worker pushes follow-on tasks to its own
//!   shard (LIFO: the data it just produced is hot in cache) and pops
//!   locally without waking anyone;
//! * **a shared injector, sharded into lanes** — non-worker producers
//!   (the environment process / live admission) append here; idle
//!   workers refill from it in batches. The injector is split into one
//!   or more *lanes* so independent tenants sharing the pool each get
//!   their own admission queue: a worker refilling visits lanes in
//!   weighted round-robin order, which is what makes tenant fairness a
//!   routing policy instead of a scheduler rewrite (a saturated lane
//!   cannot starve a trickle lane — every refill rotation visits every
//!   lane, and a lane's batch size is proportional to its weight);
//! * **randomized stealing** — a worker whose shard and the injector are
//!   both empty picks a random sibling and takes the *oldest* half of
//!   its backlog (stealing FIFO keeps the oldest phases moving, which is
//!   what lets the completion frontier advance);
//! * **targeted parking** — each worker has its own parker (token +
//!   condvar). A producer wakes exactly one parked worker, and only when
//!   no other worker is already searching for work — the Go scheduler's
//!   wake-throttling rule — so an admission burst wakes one worker, and
//!   workers chain-wake siblings only while backlog remains.
//!
//! ## Why lost wakeups cannot happen
//!
//! A worker parks only after (1) failing to find work anywhere, (2)
//! pushing itself onto the sleeper stack, and (3) re-checking the global
//! item count *after* registering. A producer increments the item count
//! *before* consulting the sleeper stack. Both counters are sequentially
//! consistent, so for any enqueue/park race either the worker's re-check
//! sees the new item, or the producer's wake sees the registered sleeper
//! — there is no interleaving in which an item waits on a parked pool.

use ec_obs::{FlightRecorder, SpanKind};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Result of a blocking dequeue.
#[derive(Debug, PartialEq, Eq)]
pub enum Dequeued<T> {
    /// An item was removed from the queue.
    Item(T),
    /// The queue was closed and fully drained; the worker should exit.
    Closed,
}

/// Batch items a weight-1 lane contributes per refill visit. A lane of
/// weight `w` contributes up to `w * LANE_QUANTUM` (capped at
/// [`LANE_BATCH_CAP`]), so relative lane bandwidth is proportional to
/// relative weight while a single visit still amortizes the lane lock.
const LANE_QUANTUM: usize = 16;

/// Hard cap on items moved into a worker shard per refill visit, so one
/// heavy lane cannot swamp a shard (and a steal victim) in one go.
const LANE_BATCH_CAP: usize = 64;

/// One worker's private parking spot: a token consumed by `park` and
/// set by `unpark`, so a wake issued before the worker actually parks
/// is never lost.
struct Parker {
    token: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    fn new() -> Parker {
        Parker {
            token: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn park(&self) {
        let mut token = self.token.lock();
        while !*token {
            self.cv.wait(&mut token);
        }
        *token = false;
    }

    fn unpark(&self) {
        let mut token = self.token.lock();
        if !*token {
            *token = true;
            self.cv.notify_one();
        }
    }
}

/// One admission lane: a FIFO of injected items plus its round-robin
/// weight. Tenants sharing a pool each own a lane, so admission
/// bandwidth is divided by the refill policy rather than by arrival
/// order.
struct Lane<T> {
    q: Mutex<VecDeque<T>>,
    weight: AtomicU32,
}

impl<T> Lane<T> {
    fn new() -> Lane<T> {
        Lane {
            q: Mutex::new(VecDeque::new()),
            weight: AtomicU32::new(1),
        }
    }
}

/// Scheduler-observability counters (exposed through
/// [`MetricsSnapshot`](crate::metrics::MetricsSnapshot)).
#[derive(Debug, Default)]
pub struct QueueStats {
    /// Successful steals from a sibling's shard.
    pub steals: AtomicU64,
    /// Times a worker parked (found no work anywhere).
    pub parks: AtomicU64,
    /// Targeted wakeups issued to parked workers.
    pub wakes: AtomicU64,
}

/// A blocking multi-producer multi-consumer queue sharded across a
/// fixed set of worker consumers.
///
/// Consumers are identified by a worker id in `0..workers`; producers
/// without an id (the environment / admission path) go through the
/// shared injector. Non-worker threads must not call
/// [`dequeue`](ShardedQueue::dequeue).
pub struct ShardedQueue<T> {
    /// Per-worker deques. Owners push/pop at the back; thieves and the
    /// shutdown drain take from the front (oldest first).
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Admission lanes (the sharded injector), refilled from in
    /// weighted round-robin order. Single-tenant queues have one lane.
    lanes: Vec<Lane<T>>,
    /// Next lane a refill visits first (advanced per refill, so visits
    /// rotate across lanes regardless of which worker refills).
    rotor: AtomicUsize,
    /// Total items across the injector and every shard. SeqCst: pairs
    /// with sleeper registration (see module docs).
    len: AtomicUsize,
    /// No further enqueues accepted; drain and report `Closed`.
    closed: AtomicBool,
    /// Stack of parked worker ids (LIFO: the most recently parked
    /// worker has the warmest cache).
    sleepers: Mutex<Vec<usize>>,
    /// Number of registered sleepers (mirror of `sleepers.len()`).
    idle: AtomicUsize,
    /// Workers currently scanning for work (they will re-check the item
    /// count before parking, so producers may skip the wake).
    searching: AtomicUsize,
    /// Wakes issued to parked workers and not yet picked up: the wakee
    /// has been unparked but has not resumed scanning. Producers skip
    /// further wakes while one is pending — the throttle that keeps an
    /// admission burst from stampeding the whole pool. Decrements
    /// saturate at zero because `close` also unparks workers, without
    /// issuing a credit.
    pending_wakes: AtomicUsize,
    parkers: Vec<Parker>,
    /// Observability counters.
    pub stats: QueueStats,
    /// Optional flight recorder for steal/park/wake span events. All
    /// three sites are off the fast local-pop path, so the cost of the
    /// `OnceLock` load is paid only when a worker is already slow.
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl<T> ShardedQueue<T> {
    /// New empty open queue with one shard per worker and a single
    /// admission lane.
    pub fn new(workers: usize) -> Self {
        ShardedQueue::with_lanes(workers, 1)
    }

    /// New empty open queue with one shard per worker and `lanes`
    /// admission lanes (one per tenant sharing the pool), all at weight
    /// 1 until [`set_lane_weight`](Self::set_lane_weight).
    pub fn with_lanes(workers: usize, lanes: usize) -> Self {
        let workers = workers.max(1);
        let lanes = lanes.max(1);
        ShardedQueue {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            lanes: (0..lanes).map(|_| Lane::new()).collect(),
            rotor: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            sleepers: Mutex::new(Vec::with_capacity(workers)),
            idle: AtomicUsize::new(0),
            searching: AtomicUsize::new(0),
            pending_wakes: AtomicUsize::new(0),
            parkers: (0..workers).map(|_| Parker::new()).collect(),
            stats: QueueStats::default(),
            recorder: OnceLock::new(),
        }
    }

    /// Attaches a flight recorder for steal/park/wake events. First
    /// caller wins (a pool-shared queue keeps the recorder of the
    /// engine that set it first); later calls are ignored.
    pub fn set_recorder(&self, recorder: &Arc<FlightRecorder>) {
        let _ = self.recorder.set(Arc::clone(recorder));
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Number of admission lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Sets a lane's weighted-round-robin weight (clamped to ≥ 1): a
    /// refill visit moves up to `weight × LANE_QUANTUM` of the lane's
    /// backlog (capped at `LANE_BATCH_CAP`), so sustained admission
    /// bandwidth is approximately proportional to weight (exactly,
    /// under deep backlogs, up to the per-visit batch cap).
    pub fn set_lane_weight(&self, lane: usize, weight: u32) {
        self.lanes[lane].weight.store(weight.max(1), Relaxed);
    }

    /// Enqueues an item. `worker` is the id of the producing worker, if
    /// the producer is one — its shard receives the item (LIFO locality);
    /// `None` routes through admission lane 0.
    ///
    /// Returns `false` (and drops the item) after `close`: this happens
    /// only while a failed run is draining — where discarding work is
    /// the desired behaviour — or when a pooled producer races a pool
    /// shutdown, where the caller surfaces the refusal as an error.
    pub fn enqueue(&self, item: T, worker: Option<usize>) -> bool {
        if self.closed.load(SeqCst) {
            return false;
        }
        match worker {
            Some(w) => self.shards[w].lock().push_back(item),
            None => self.lanes[0].q.lock().push_back(item),
        }
        self.len.fetch_add(1, SeqCst);
        self.maybe_wake();
        true
    }

    /// Enqueues an item into admission lane `lane` — the multi-tenant
    /// admission path. Same close semantics as [`enqueue`](Self::enqueue).
    pub fn enqueue_lane(&self, item: T, lane: usize) -> bool {
        if self.closed.load(SeqCst) {
            return false;
        }
        self.lanes[lane].q.lock().push_back(item);
        self.len.fetch_add(1, SeqCst);
        self.maybe_wake();
        true
    }

    /// Removes and discards every item queued in admission lane `lane`,
    /// returning how many were dropped. Used when a tenant detaches
    /// from a shared pool: its not-yet-dispatched admissions must not
    /// execute against a dead (or recycled) tenant slot.
    pub fn drain_lane(&self, lane: usize) -> usize {
        let drained = {
            let mut q = self.lanes[lane].q.lock();
            let n = q.len();
            q.clear();
            n
        };
        if drained > 0 {
            self.len.fetch_sub(drained, SeqCst);
        }
        drained
    }

    /// Wakes one parked worker — unless another worker is already
    /// searching for work, or a previous wake has not been picked up
    /// yet (either will re-check the item count before parking, so the
    /// new item cannot be stranded). One wake per burst, not one per
    /// enqueue: the pool ramps up worker by worker via chain-wakes.
    fn maybe_wake(&self) {
        if self.idle.load(SeqCst) == 0
            || self.searching.load(SeqCst) > 0
            || self.pending_wakes.load(SeqCst) > 0
        {
            return;
        }
        let woken = {
            let mut sleepers = self.sleepers.lock();
            match sleepers.pop() {
                Some(id) => {
                    self.idle.fetch_sub(1, SeqCst);
                    self.pending_wakes.fetch_add(1, SeqCst);
                    Some(id)
                }
                None => None,
            }
        };
        if let Some(id) = woken {
            self.stats.wakes.fetch_add(1, Relaxed);
            if let Some(r) = self.recorder.get() {
                r.record(id + 1, SpanKind::Wake, id as u64, 0);
            }
            self.parkers[id].unpark();
        }
    }

    /// Acknowledges a wake on resume. Saturating: `close` unparks
    /// workers without issuing a credit, and a stale park token (from a
    /// wake that arrived after its target had already found work) can
    /// make `park` return with no credit outstanding.
    fn ack_wake(&self) {
        let _ = self
            .pending_wakes
            .fetch_update(SeqCst, SeqCst, |v| v.checked_sub(1));
    }

    /// Removes `worker`'s id from the sleeper stack if a producer has
    /// not already popped it. If it was popped, a wake is in flight to
    /// a worker that is not going to park: acknowledge the credit here
    /// — otherwise the pending-wake throttle would suppress every
    /// further wake while this worker drains its local queue, and the
    /// pool would degrade to a single busy worker. The stale park token
    /// is swallowed (with a saturating second ack) by the worker's next
    /// `park`.
    fn deregister(&self, worker: usize) {
        let popped_by_producer = {
            let mut sleepers = self.sleepers.lock();
            match sleepers.iter().position(|&id| id == worker) {
                Some(pos) => {
                    sleepers.swap_remove(pos);
                    self.idle.fetch_sub(1, SeqCst);
                    false
                }
                None => true,
            }
        };
        if popped_by_producer {
            self.ack_wake();
        }
    }

    /// Takes one item from the admission lanes; if more are queued,
    /// moves a batch into the worker's shard so subsequent pops are
    /// lock-local.
    ///
    /// With one lane this is the classic injector refill (take half the
    /// backlog, capped). With several, lanes are visited in rotating
    /// order starting past the last visit, and the first non-empty lane
    /// found contributes a batch bounded by its weight — weighted
    /// round-robin: a saturated tenant's lane yields at most its
    /// quantum per visit, and the rotation reaches every other lane
    /// before returning to it, so a trickle tenant's admission is
    /// picked up after a bounded amount of foreign work.
    fn refill_from_injector(&self, worker: usize) -> Option<T> {
        let n = self.lanes.len();
        if n == 1 {
            let mut q = self.lanes[0].q.lock();
            let first = q.pop_front()?;
            let batch = (q.len() / 2).min(32);
            if batch > 0 {
                let mut shard = self.shards[worker].lock();
                shard.extend(q.drain(..batch));
            }
            return Some(first);
        }
        let start = self.rotor.fetch_add(1, Relaxed);
        for i in 0..n {
            let li = (start + i) % n;
            let mut q = self.lanes[li].q.lock();
            let Some(first) = q.pop_front() else { continue };
            let weight = self.lanes[li].weight.load(Relaxed).max(1) as usize;
            let batch = q
                .len()
                .min(weight.saturating_mul(LANE_QUANTUM))
                .min(LANE_BATCH_CAP);
            if batch > 0 {
                let mut shard = self.shards[worker].lock();
                shard.extend(q.drain(..batch));
            }
            return Some(first);
        }
        None
    }

    /// Steals from siblings: visits every other shard starting at a
    /// pseudo-random offset and takes the oldest half of the first
    /// non-empty backlog found (one item minimum).
    fn steal(&self, worker: usize, seed: &mut u64) -> Option<T> {
        let n = self.shards.len();
        if n <= 1 {
            return None;
        }
        // xorshift64*: cheap, decent spread; no shared RNG state.
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let start = (*seed as usize) % n;
        for i in 0..n {
            let victim = (start + i) % n;
            if victim == worker {
                continue;
            }
            let mut shard = self.shards[victim].lock();
            if let Some(first) = shard.pop_front() {
                // Move the batch out and RELEASE the victim's lock
                // before touching our own shard: holding both would
                // deadlock two workers stealing from each other
                // (lock-order inversion). Steals are rare, so the
                // temporary buffer is off the hot path.
                let batch = (shard.len() / 2).min(32);
                let taken: Vec<T> = shard.drain(..batch).collect();
                drop(shard);
                if !taken.is_empty() {
                    self.shards[worker].lock().extend(taken);
                }
                self.stats.steals.fetch_add(1, Relaxed);
                if let Some(r) = self.recorder.get() {
                    r.record(worker + 1, SpanKind::Steal, victim as u64, batch as u64 + 1);
                }
                return Some(first);
            }
        }
        None
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// fully drained. Each item is returned exactly once. `seed` is the
    /// worker's private steal-RNG state (any nonzero init).
    pub fn dequeue(&self, worker: usize, seed: &mut u64) -> Dequeued<T> {
        loop {
            // Fast path: local LIFO pop, no coordination.
            if let Some(item) = self.shards[worker].lock().pop_back() {
                self.len.fetch_sub(1, SeqCst);
                return Dequeued::Item(item);
            }
            // Slow path: announce the search so producers skip wakes.
            self.searching.fetch_add(1, SeqCst);
            let found = self
                .refill_from_injector(worker)
                .or_else(|| self.steal(worker, seed));
            self.searching.fetch_sub(1, SeqCst);
            if let Some(item) = found {
                self.len.fetch_sub(1, SeqCst);
                // Chain-wake: if backlog remains, one more worker can
                // usefully join before this item is even executed.
                if self.len.load(SeqCst) > 0 {
                    self.maybe_wake();
                }
                return Dequeued::Item(item);
            }
            if self.closed.load(SeqCst) {
                if self.len.load(SeqCst) == 0 {
                    return Dequeued::Closed;
                }
                continue; // racing with a final drain: rescan
            }
            // Park protocol: register, then re-check (see module docs).
            {
                let mut sleepers = self.sleepers.lock();
                sleepers.push(worker);
                self.idle.fetch_add(1, SeqCst);
            }
            if self.len.load(SeqCst) > 0 || self.closed.load(SeqCst) {
                self.deregister(worker);
                continue;
            }
            self.stats.parks.fetch_add(1, Relaxed);
            if let Some(r) = self.recorder.get() {
                r.record(worker + 1, SpanKind::Park, worker as u64, 0);
            }
            self.parkers[worker].park();
            self.ack_wake();
        }
    }

    /// Closes the queue and wakes every parked worker. Items already
    /// enqueued are still delivered before consumers observe `Closed`.
    pub fn close(&self) {
        self.closed.store(true, SeqCst);
        let ids: Vec<usize> = {
            let mut sleepers = self.sleepers.lock();
            let ids = std::mem::take(&mut *sleepers);
            self.idle.fetch_sub(ids.len(), SeqCst);
            ids
        };
        for id in ids {
            self.parkers[id].unpark();
        }
    }

    /// Reopens a closed queue so a new pool of consumers can be served
    /// (used by the engine between `run` calls, after all workers have
    /// been joined).
    pub fn reopen(&self) {
        self.closed.store(false, SeqCst);
    }

    /// Total queued items (racy snapshot; for metrics only).
    pub fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// True if no items are queued (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard depths (racy snapshot; for metrics only).
    pub fn shard_depths(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().len() as u64).collect()
    }

    /// Total injector depth across all lanes (racy snapshot; for
    /// metrics only).
    pub fn injector_depth(&self) -> u64 {
        self.lanes.iter().map(|l| l.q.lock().len() as u64).sum()
    }

    /// One lane's depth (racy snapshot; for metrics only).
    pub fn lane_depth(&self, lane: usize) -> u64 {
        self.lanes[lane].q.lock().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn spawn_consumers(
        q: &Arc<ShardedQueue<usize>>,
        seen: &Arc<Vec<AtomicUsize>>,
        workers: usize,
    ) -> Vec<thread::JoinHandle<usize>> {
        (0..workers)
            .map(|w| {
                let q = Arc::clone(q);
                let seen = Arc::clone(seen);
                thread::spawn(move || {
                    let mut seed = w as u64 + 1;
                    let mut count = 0usize;
                    while let Dequeued::Item(i) = q.dequeue(w, &mut seed) {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                        count += 1;
                    }
                    count
                })
            })
            .collect()
    }

    #[test]
    fn single_worker_lifo_local_fifo_injector() {
        let q = ShardedQueue::new(1);
        let mut seed = 1;
        q.enqueue(1, None);
        q.enqueue(2, None);
        q.enqueue(3, Some(0));
        q.enqueue(4, Some(0));
        // Local shard pops LIFO first, then injector FIFO.
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Item(4));
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Item(3));
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Item(1));
        assert_eq!(q.len(), 1);
        q.close();
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Item(2));
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Closed);
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Closed);
    }

    #[test]
    fn enqueue_after_close_dropped() {
        let q = ShardedQueue::new(2);
        q.close();
        assert!(!q.enqueue(1, None));
        assert!(!q.enqueue(2, Some(0)));
        assert!(!q.enqueue_lane(3, 0));
        assert_eq!(q.len(), 0);
        let mut seed = 1;
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Closed);
    }

    #[test]
    fn trickle_lane_served_within_one_rotation() {
        // Lane 0 holds a deep backlog; lane 1 holds a single item. A
        // single worker must reach the lane-1 item after at most one
        // lane-0 quantum (1 popped + LANE_QUANTUM batched at weight 1)
        // — the bounded-latency property multi-tenant fairness rests
        // on.
        let q = ShardedQueue::with_lanes(1, 2);
        for i in 0..100 {
            assert!(q.enqueue_lane(i, 0));
        }
        assert!(q.enqueue_lane(1000, 1));
        let mut seed = 3;
        let mut position = None;
        for n in 0..q.len() {
            match q.dequeue(0, &mut seed) {
                Dequeued::Item(1000) => {
                    position = Some(n);
                    break;
                }
                Dequeued::Item(_) => {}
                Dequeued::Closed => panic!("queue closed early"),
            }
        }
        let position = position.expect("lane-1 item delivered");
        assert!(
            position <= 1 + LANE_QUANTUM,
            "trickle item served at position {position}, after more than one quantum"
        );
    }

    #[test]
    fn lane_weight_scales_refill_batch() {
        // A weight-4 lane contributes up to 4 × LANE_QUANTUM per visit
        // (subject to LANE_BATCH_CAP); a weight-1 lane contributes
        // LANE_QUANTUM. Drain order with one worker exposes the batch
        // sizes: count how many lane-0 items arrive before the first
        // lane-1 item and vice versa across a full drain.
        let q = ShardedQueue::with_lanes(1, 2);
        q.set_lane_weight(0, 4);
        for i in 0..200 {
            assert!(q.enqueue_lane(i, 0)); // heavy lane, weight 4
            assert!(q.enqueue_lane(1000 + i, 1)); // light lane, weight 1
        }
        let mut seed = 7;
        let (mut heavy, mut light) = (0usize, 0usize);
        // Sample the first half of the drain; bandwidth should skew
        // toward the heavy lane roughly 4:1 (loose bounds — the exact
        // interleaving depends on batching).
        for _ in 0..200 {
            match q.dequeue(0, &mut seed) {
                Dequeued::Item(v) if v < 1000 => heavy += 1,
                Dequeued::Item(_) => light += 1,
                Dequeued::Closed => panic!("closed early"),
            }
        }
        assert!(
            heavy > light * 2,
            "weight-4 lane got {heavy} of the first 200 slots vs {light}"
        );
        assert!(light > 0, "weight-1 lane starved");
        q.close();
    }

    #[test]
    fn drain_lane_discards_pending_admissions() {
        let q = ShardedQueue::with_lanes(2, 3);
        for i in 0..5 {
            assert!(q.enqueue_lane(i, 1));
        }
        assert!(q.enqueue_lane(99, 2));
        assert_eq!(q.drain_lane(1), 5);
        assert_eq!(q.drain_lane(1), 0);
        assert_eq!(q.len(), 1);
        let mut seed = 11;
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Item(99));
        q.close();
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Closed);
    }

    #[test]
    fn blocked_worker_wakes_on_enqueue() {
        let q = Arc::new(ShardedQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.dequeue(0, &mut 7));
        thread::sleep(Duration::from_millis(20));
        q.enqueue(42, None);
        assert_eq!(h.join().unwrap(), Dequeued::Item(42));
    }

    #[test]
    fn blocked_worker_wakes_on_close() {
        let q: Arc<ShardedQueue<i32>> = Arc::new(ShardedQueue::new(3));
        let handles: Vec<_> = (0..3)
            .map(|w| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.dequeue(w, &mut (w as u64 + 1)))
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), Dequeued::Closed);
        }
    }

    #[test]
    fn each_item_dequeued_exactly_once_across_stealing_workers() {
        // Items arrive through every path — injector, and each worker's
        // local shard (from producer threads impersonating workers) —
        // while all workers pop and steal concurrently.
        const ITEMS: usize = 20_000;
        const WORKERS: usize = 8;
        let q = Arc::new(ShardedQueue::<usize>::new(WORKERS));
        let seen: Arc<Vec<AtomicUsize>> =
            Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let consumers = spawn_consumers(&q, &seen, WORKERS);

        for i in 0..ITEMS {
            // Rotate across the injector and every shard so stealing is
            // actually exercised (shard owners are busy consumers).
            let route = i % (WORKERS + 1);
            if route == WORKERS {
                q.enqueue(i, None);
            } else {
                q.enqueue(i, Some(route));
            }
        }
        q.close();

        let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, ITEMS);
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), 1, "item {i} seen != once");
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_while_stealing_delivers_backlog_exactly_once() {
        // `close` races a pool that is mid-steal: every enqueued item
        // must still be delivered exactly once before Closed surfaces —
        // the §3.2 queue's close semantics, under the sharded design.
        const ROUNDS: usize = 50;
        const ITEMS: usize = 500;
        const WORKERS: usize = 4;
        for round in 0..ROUNDS {
            let q = Arc::new(ShardedQueue::<usize>::new(WORKERS));
            let seen: Arc<Vec<AtomicUsize>> =
                Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
            // Pile everything onto one shard so the other workers spend
            // the whole round stealing from it.
            for i in 0..ITEMS {
                q.enqueue(i, Some(round % WORKERS));
            }
            let consumers = spawn_consumers(&q, &seen, WORKERS);
            // Close at a jittered moment mid-drain.
            thread::sleep(Duration::from_micros((round as u64 % 7) * 100));
            q.close();
            let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(total, ITEMS, "round {round} lost or duplicated items");
            for (i, s) in seen.iter().enumerate() {
                assert_eq!(s.load(Ordering::Relaxed), 1, "round {round} item {i}");
            }
        }
    }

    #[test]
    fn randomized_producers_and_routes_drain_exactly_once() {
        // Randomized stress over producer interleavings: multiple
        // producer threads race each other and the consumers, routing
        // each item by a seeded xorshift — a lightweight property test
        // over schedules (seeded, so failures reproduce).
        const PRODUCERS: usize = 3;
        const PER_PRODUCER: usize = 4_000;
        const WORKERS: usize = 6;
        let q = Arc::new(ShardedQueue::<usize>::new(WORKERS));
        let total_items = PRODUCERS * PER_PRODUCER;
        let seen: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..total_items)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>(),
        );
        let consumers = spawn_consumers(&q, &seen, WORKERS);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut seed = 0x9E37_79B9u64 + p as u64;
                    for i in 0..PER_PRODUCER {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let item = p * PER_PRODUCER + i;
                        match seed % (WORKERS as u64 + 2) {
                            r if (r as usize) < WORKERS => q.enqueue(item, Some(r as usize)),
                            _ => q.enqueue(item, None),
                        };
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, total_items);
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), 1, "item {i} seen != once");
        }
    }

    #[test]
    fn stats_track_steals_and_parks() {
        let q = Arc::new(ShardedQueue::<usize>::new(2));
        // Park worker 1, then enqueue to worker 0's shard: the wake is
        // targeted and worker 1 must steal to get the item.
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.dequeue(1, &mut 3));
        thread::sleep(Duration::from_millis(20));
        q.enqueue(9, Some(0));
        assert_eq!(h.join().unwrap(), Dequeued::Item(9));
        assert!(q.stats.steals.load(Relaxed) >= 1);
        assert!(q.stats.parks.load(Relaxed) >= 1);
        assert!(q.stats.wakes.load(Relaxed) >= 1);
        q.close();
    }

    #[test]
    fn reopen_serves_a_second_generation() {
        let q = ShardedQueue::new(1);
        let mut seed = 5;
        q.enqueue(1, None);
        q.close();
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Item(1));
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Closed);
        q.reopen();
        q.enqueue(2, None);
        assert_eq!(q.dequeue(0, &mut seed), Dequeued::Item(2));
        q.close();
    }
}
