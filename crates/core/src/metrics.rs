//! Runtime metrics.
//!
//! The paper's performance claims (§4) are about the ratio of useful
//! vertex computation to data-structure bookkeeping, the number of
//! messages saved by change-only emission (§1), and how many phases the
//! engine keeps in flight (Figure 1). These counters capture exactly
//! those quantities so the benchmark harness can report them.
//!
//! Counters are plain atomics updated with `Relaxed` ordering: they are
//! statistics, not synchronisation, and every value is read only after
//! the worker threads have been joined (which provides the necessary
//! happens-before edge).

use ec_obs::HistogramSnapshot;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

/// Shared counters updated by workers and the environment thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Vertex-phase executions.
    pub executions: AtomicU64,
    /// Executions that produced no output (information conveyed by the
    /// absence of messages).
    pub silent_executions: AtomicU64,
    /// Point-to-point messages sent along edges.
    pub messages_sent: AtomicU64,
    /// Values delivered to the outside world by sinks.
    pub sink_outputs: AtomicU64,
    /// Phases started by the environment process.
    pub phases_started: AtomicU64,
    /// Phases whose `x_p` reached `N`.
    pub phases_completed: AtomicU64,
    /// Acquisitions of the global scheduler lock to publish finished
    /// executions: one per phase run, so `executions /
    /// lock_acquisitions` is the mean run length.
    pub lock_acquisitions: AtomicU64,
    /// Total nanoseconds spent waiting to acquire the scheduler lock.
    pub lock_wait_nanos: AtomicU64,
    /// Total nanoseconds spent inside module execution.
    pub exec_nanos: AtomicU64,
    /// Total nanoseconds spent inside the critical section.
    pub critical_nanos: AtomicU64,
    /// Maximum observed number of *distinct phases* executing
    /// simultaneously (the Figure 1 pipelining depth).
    pub max_concurrent_phases: AtomicU64,
    /// Sum and count of concurrent-phase samples, for the mean depth.
    pub concurrent_phase_sum: AtomicU64,
    /// Number of concurrent-phase samples.
    pub concurrent_phase_samples: AtomicU64,
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight` concurrent-phase depth samples (one per phase of a
    /// run that started at this depth) and updates the maximum.
    pub fn sample_concurrent_phases(&self, depth: u64, weight: u64) {
        self.concurrent_phase_sum.fetch_add(depth * weight, Relaxed);
        self.concurrent_phase_samples.fetch_add(weight, Relaxed);
        self.max_concurrent_phases.fetch_max(depth, Relaxed);
    }

    /// Snapshots all counters. The scheduler block is a *parameter*,
    /// not a default: only the engine can see the sharded run queue, so
    /// the type makes it impossible to build a snapshot that silently
    /// reports zero steals/parks/depths (the bug the old
    /// caller-overwrites-zeros contract invited). Latency histograms
    /// are likewise merged and passed in by their owner.
    pub fn snapshot_with(
        &self,
        scheduler: SchedulerCounters,
        latency: LatencyStats,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            executions: self.executions.load(Relaxed),
            silent_executions: self.silent_executions.load(Relaxed),
            messages_sent: self.messages_sent.load(Relaxed),
            sink_outputs: self.sink_outputs.load(Relaxed),
            phases_started: self.phases_started.load(Relaxed),
            phases_completed: self.phases_completed.load(Relaxed),
            lock_acquisitions: self.lock_acquisitions.load(Relaxed),
            lock_wait_nanos: self.lock_wait_nanos.load(Relaxed),
            exec_nanos: self.exec_nanos.load(Relaxed),
            critical_nanos: self.critical_nanos.load(Relaxed),
            max_concurrent_phases: self.max_concurrent_phases.load(Relaxed),
            concurrent_phase_sum: self.concurrent_phase_sum.load(Relaxed),
            concurrent_phase_samples: self.concurrent_phase_samples.load(Relaxed),
            scheduler,
            ingest: IngestCounters::default(),
            latency,
        }
    }
}

/// Scheduler-owned counters of a [`MetricsSnapshot`]: the engine reads
/// these off its sharded run queue at snapshot time. Kept as a separate
/// struct so [`Metrics::snapshot_with`] can *require* them — no
/// snapshot path can forget to fill them in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Successful steals between worker shards.
    pub steals: u64,
    /// Times a worker parked after finding no work anywhere.
    pub parks: u64,
    /// Targeted wakeups issued to parked workers.
    pub wakes: u64,
    /// Per-worker run-queue depth at snapshot time (racy; observability
    /// only).
    pub worker_queue_depths: Vec<u64>,
    /// Shared-injector depth at snapshot time (racy; observability
    /// only).
    pub injector_depth: u64,
}

/// Ingest-plane counters of a [`MetricsSnapshot`], filled by the
/// streaming runtime (zero for engines without an ingest plane — which
/// genuinely have none, unlike the scheduler fields).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestCounters {
    /// Per-source ingest buffer depths at snapshot time (racy;
    /// observability only).
    pub depths: Vec<u64>,
    /// Source names, parallel to `depths`/`source_waits` (spec names,
    /// so dashboards survive spec reordering; empty for engines without
    /// an ingest plane).
    pub sources: Vec<String>,
    /// Producer-side contention: pushes that found their source's
    /// buffer full and had to block, retry, or force a seal.
    pub waits: u64,
    /// Per-source breakdown of `waits`, parallel to `depths`.
    pub source_waits: Vec<u64>,
    /// Epoch seals that committed at least one phase.
    pub seal_batches: u64,
    /// Events drained by those seals; `seal_events / seal_batches` is
    /// the mean drain batch size.
    pub seal_events: u64,
}

/// End-to-end latency of one causally traced (source → sink) path:
/// producer push to subscriber delivery, from sampled trace stamps
/// (streaming runtime only). Nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathLatency {
    /// Source name where the sampled events entered.
    pub source: String,
    /// Sink name where their phases' outputs were delivered.
    pub sink: String,
    /// Push → delivery latency distribution.
    pub hist: HistogramSnapshot,
}

impl PathLatency {
    fn to_json(&self) -> String {
        format!(
            "{{\"source\":\"{}\",\"sink\":\"{}\",\"hist\":{}}}",
            self.source.replace(['"', '\\'], "_"),
            self.sink.replace(['"', '\\'], "_"),
            self.hist.to_json()
        )
    }
}

/// Latency distributions of a [`MetricsSnapshot`]: log2-bucketed
/// histograms merged across workers at snapshot time. All values are
/// nanoseconds; percentiles come from
/// [`HistogramSnapshot::percentile`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Admission → retirement latency per phase (how long a phase
    /// lived in the machine).
    pub phase: HistogramSnapshot,
    /// Per-vertex module execution duration.
    pub exec: HistogramSnapshot,
    /// WAL group-commit duration (streaming runtime only).
    pub wal_commit: HistogramSnapshot,
    /// Producer push-wait duration: time a `push` spent bounced off a
    /// full ingest buffer before succeeding (streaming runtime only).
    pub ingest_wait: HistogramSnapshot,
    /// End-to-end (source, sink) path latencies from sampled trace
    /// stamps (streaming runtime only; empty when tracing is off).
    pub e2e: Vec<PathLatency>,
}

impl LatencyStats {
    /// One histogram merging every traced (source, sink) path —
    /// "how long does an event take, regardless of route".
    pub fn e2e_merged(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for path in &self.e2e {
            merged.merge(&path.hist);
        }
        merged
    }

    /// Hand-rolled JSON object of the stage histograms plus the traced
    /// end-to-end paths.
    pub fn to_json(&self) -> String {
        let e2e: Vec<String> = self.e2e.iter().map(PathLatency::to_json).collect();
        format!(
            "{{\"phase\":{},\"exec\":{},\"wal_commit\":{},\"ingest_wait\":{},\"e2e\":[{}]}}",
            self.phase.to_json(),
            self.exec.to_json(),
            self.wal_commit.to_json(),
            self.ingest_wait.to_json(),
            e2e.join(",")
        )
    }
}

/// A plain-value copy of [`Metrics`] taken after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Vertex-phase executions.
    pub executions: u64,
    /// Executions that emitted nothing.
    pub silent_executions: u64,
    /// Messages sent along edges.
    pub messages_sent: u64,
    /// Values produced by sinks.
    pub sink_outputs: u64,
    /// Phases started.
    pub phases_started: u64,
    /// Phases completed.
    pub phases_completed: u64,
    /// Scheduler-lock acquisitions that published executions (one per
    /// phase run; `executions / lock_acquisitions` is the mean run
    /// length).
    pub lock_acquisitions: u64,
    /// Nanoseconds spent waiting for the scheduler lock.
    pub lock_wait_nanos: u64,
    /// Nanoseconds spent in module execution.
    pub exec_nanos: u64,
    /// Nanoseconds spent in the critical section.
    pub critical_nanos: u64,
    /// Peak distinct phases executing at once.
    pub max_concurrent_phases: u64,
    /// Sum of depth samples.
    pub concurrent_phase_sum: u64,
    /// Number of depth samples.
    pub concurrent_phase_samples: u64,
    /// Scheduler-owned counters, filled by the engine (required by
    /// [`Metrics::snapshot_with`]).
    pub scheduler: SchedulerCounters,
    /// Ingest-plane counters, filled by the streaming runtime.
    pub ingest: IngestCounters,
    /// Latency histograms, merged across workers at snapshot time.
    pub latency: LatencyStats,
}

impl MetricsSnapshot {
    /// Mean number of distinct phases executing concurrently, sampled at
    /// each run start and weighted by the run's phase count, so the
    /// mean stays per execution.
    pub fn mean_concurrent_phases(&self) -> f64 {
        if self.concurrent_phase_samples == 0 {
            0.0
        } else {
            self.concurrent_phase_sum as f64 / self.concurrent_phase_samples as f64
        }
    }

    /// Fraction of executions that sent no messages.
    pub fn silent_fraction(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.silent_executions as f64 / self.executions as f64
        }
    }

    /// Mean events drained per epoch seal (streaming runtime only).
    pub fn mean_seal_batch(&self) -> f64 {
        if self.ingest.seal_batches == 0 {
            0.0
        } else {
            self.ingest.seal_events as f64 / self.ingest.seal_batches as f64
        }
    }

    /// Ratio of bookkeeping time (lock wait + critical section) to
    /// module execution time — the quantity the paper predicts governs
    /// scalability (§4).
    pub fn bookkeeping_ratio(&self) -> f64 {
        if self.exec_nanos == 0 {
            f64::INFINITY
        } else {
            (self.lock_wait_nanos + self.critical_nanos) as f64 / self.exec_nanos as f64
        }
    }

    /// Hand-rolled JSON object: flat counters, derived ratios, the
    /// scheduler/ingest blocks, and the latency histograms as
    /// percentile summaries. The offline serde shim is a no-op, so
    /// serialization is spelled out here.
    pub fn to_json(&self) -> String {
        let depths = |v: &[u64]| {
            let items: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            "{{\"executions\":{},\"silent_executions\":{},\"messages_sent\":{},\
             \"sink_outputs\":{},\"phases_started\":{},\"phases_completed\":{},\
             \"lock_acquisitions\":{},\"lock_wait_nanos\":{},\"exec_nanos\":{},\
             \"critical_nanos\":{},\"max_concurrent_phases\":{},\"mean_concurrent_phases\":{:.3},\
             \"silent_fraction\":{:.4},\"bookkeeping_ratio\":{:.4},\
             \"scheduler\":{{\"steals\":{},\"parks\":{},\"wakes\":{},\
             \"worker_queue_depths\":{},\"injector_depth\":{}}},\
             \"ingest\":{{\"depths\":{},\"sources\":{},\"waits\":{},\"source_waits\":{},\
             \"seal_batches\":{},\"seal_events\":{},\
             \"mean_seal_batch\":{:.2}}},\"latency\":{}}}",
            self.executions,
            self.silent_executions,
            self.messages_sent,
            self.sink_outputs,
            self.phases_started,
            self.phases_completed,
            self.lock_acquisitions,
            self.lock_wait_nanos,
            self.exec_nanos,
            self.critical_nanos,
            self.max_concurrent_phases,
            self.mean_concurrent_phases(),
            self.silent_fraction(),
            if self.bookkeeping_ratio().is_finite() {
                self.bookkeeping_ratio()
            } else {
                0.0
            },
            self.scheduler.steals,
            self.scheduler.parks,
            self.scheduler.wakes,
            depths(&self.scheduler.worker_queue_depths),
            self.scheduler.injector_depth,
            depths(&self.ingest.depths),
            {
                let names: Vec<String> = self
                    .ingest
                    .sources
                    .iter()
                    .map(|s| format!("\"{}\"", s.replace(['"', '\\'], "_")))
                    .collect();
                format!("[{}]", names.join(","))
            },
            self.ingest.waits,
            depths(&self.ingest.source_waits),
            self.ingest.seal_batches,
            self.ingest.seal_events,
            self.mean_seal_batch(),
            self.latency.to_json()
        )
    }
}

/// Tracks the set of phases currently being executed by workers, to
/// measure pipelining depth (how many phases are simultaneously "in the
/// machine", as depicted in Figure 1).
///
/// Lock-free: this sits on the hot path of every execution, where the
/// previous `Mutex<BTreeMap>` implementation was a second global lock.
/// Phases in flight at once lie in a window of at most `max_inflight`
/// consecutive numbers (the environment throttle), so per-phase
/// executing counts live in a power-of-two ring of atomic slots — two
/// distinct in-flight phases never collide as long as the capacity
/// covers the window ([`PhaseGauge::with_capacity`] sizes it so, up to
/// a clamp for absurdly large windows).
#[derive(Debug)]
pub struct PhaseGauge {
    /// Executing vertices per phase, indexed by `phase & mask`.
    slots: Vec<AtomicU32>,
    mask: u64,
    /// Number of distinct phases with a nonzero slot.
    distinct: AtomicU64,
}

impl Default for PhaseGauge {
    fn default() -> Self {
        PhaseGauge::with_capacity(64)
    }
}

impl PhaseGauge {
    /// Fresh gauge for the engine-default in-flight window (64 phases).
    pub fn new() -> Self {
        Self::default()
    }

    /// Gauge able to track `max_inflight` simultaneously active phases
    /// without collisions. Capacity is clamped (the gauge is
    /// observability-only): beyond the clamp, two in-flight phases may
    /// share a slot, which merely merges them in the distinct count —
    /// never a panic or an unbounded allocation for an "effectively
    /// unbounded" `max_inflight`.
    pub fn with_capacity(max_inflight: u64) -> Self {
        let cap = max_inflight.clamp(2, 1 << 16).next_power_of_two();
        PhaseGauge {
            slots: (0..cap).map(|_| AtomicU32::new(0)).collect(),
            mask: cap - 1,
            distinct: AtomicU64::new(0),
        }
    }

    /// Marks a phase as having one more executing vertex; returns the
    /// number of distinct phases now executing.
    pub fn enter(&self, phase: u64) -> u64 {
        let slot = &self.slots[(phase & self.mask) as usize];
        if slot.fetch_add(1, Relaxed) == 0 {
            self.distinct.fetch_add(1, Relaxed) + 1
        } else {
            self.distinct.load(Relaxed)
        }
    }

    /// Marks a phase as having one fewer executing vertex.
    pub fn exit(&self, phase: u64) {
        let slot = &self.slots[(phase & self.mask) as usize];
        let prev = slot.fetch_sub(1, Relaxed);
        debug_assert!(prev > 0, "exit without enter for phase {phase}");
        if prev == 1 {
            self.distinct.fetch_sub(1, Relaxed);
        }
    }

    /// Number of distinct phases currently executing.
    pub fn depth(&self) -> u64 {
        self.distinct.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters_and_the_scheduler_block() {
        let m = Metrics::new();
        m.executions.fetch_add(3, Relaxed);
        m.messages_sent.fetch_add(5, Relaxed);
        let sched = SchedulerCounters {
            steals: 7,
            parks: 1,
            wakes: 2,
            worker_queue_depths: vec![0, 3],
            injector_depth: 4,
        };
        let s = m.snapshot_with(sched.clone(), LatencyStats::default());
        assert_eq!(s.executions, 3);
        assert_eq!(s.messages_sent, 5);
        assert_eq!(s.silent_executions, 0);
        // The engine-owned block is whatever the engine supplied — the
        // old API hard-zeroed these and hoped callers would overwrite.
        assert_eq!(s.scheduler, sched);
        assert_eq!(s.ingest, IngestCounters::default());
    }

    #[test]
    fn concurrent_phase_stats() {
        let m = Metrics::new();
        m.sample_concurrent_phases(2, 1);
        m.sample_concurrent_phases(4, 1);
        let s = m.snapshot_with(SchedulerCounters::default(), LatencyStats::default());
        assert_eq!(s.max_concurrent_phases, 4);
        assert!((s.mean_concurrent_phases() - 3.0).abs() < 1e-12);
        // A two-phase run at depth 1 counts as two executions.
        m.sample_concurrent_phases(1, 2);
        let s = m.snapshot_with(SchedulerCounters::default(), LatencyStats::default());
        assert_eq!(s.concurrent_phase_samples, 4);
        assert!((s.mean_concurrent_phases() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = Metrics::new();
        m.executions.fetch_add(2, Relaxed);
        let mut latency = LatencyStats::default();
        let h = ec_obs::LogHistogram::new();
        h.record(1_000);
        latency.exec = h.snapshot();
        let s = m.snapshot_with(
            SchedulerCounters {
                worker_queue_depths: vec![1, 2],
                ..Default::default()
            },
            latency,
        );
        let j = s.to_json();
        assert!(j.contains("\"executions\":2"), "{j}");
        assert!(j.contains("\"worker_queue_depths\":[1,2]"), "{j}");
        assert!(j.contains("\"exec\":{\"count\":1"), "{j}");
        // Balanced braces — the cheap structural check the bench
        // trajectory relies on.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
    }

    #[test]
    fn derived_ratios() {
        let s = MetricsSnapshot {
            executions: 10,
            silent_executions: 4,
            exec_nanos: 100,
            lock_wait_nanos: 30,
            critical_nanos: 20,
            ..Default::default()
        };
        assert!((s.silent_fraction() - 0.4).abs() < 1e-12);
        assert!((s.bookkeeping_ratio() - 0.5).abs() < 1e-12);
        let empty = MetricsSnapshot::default();
        assert_eq!(empty.silent_fraction(), 0.0);
        assert_eq!(empty.mean_concurrent_phases(), 0.0);
        assert!(empty.bookkeeping_ratio().is_infinite());
    }

    #[test]
    fn phase_gauge_capacity_is_clamped() {
        // An "effectively unbounded" in-flight window must not panic or
        // allocate terabytes of slots; collisions past the clamp only
        // merge phases in the distinct count.
        let g = PhaseGauge::with_capacity(u64::MAX);
        assert_eq!(g.enter(1), 1);
        assert_eq!(g.enter(2), 2);
        // Far-apart phases may share a slot past the clamp: merged in
        // the distinct count, still balanced on exit.
        g.enter(1 + (1 << 40));
        assert_eq!(g.depth(), 2);
        g.exit(1 + (1 << 40));
        g.exit(2);
        g.exit(1);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn phase_gauge_tracks_distinct_phases() {
        let g = PhaseGauge::new();
        assert_eq!(g.enter(1), 1);
        assert_eq!(g.enter(1), 1);
        assert_eq!(g.enter(2), 2);
        g.exit(1);
        assert_eq!(g.depth(), 2); // phase 1 still has one executor
        g.exit(1);
        assert_eq!(g.depth(), 1);
        g.exit(2);
        assert_eq!(g.depth(), 0);
    }
}
