//! # ec-bench — shared workload builders for the benchmark harness
//!
//! Each Criterion bench regenerates one figure/table of the paper (the
//! recorded, regression-guarded form of those comparisons is the
//! benchmark package: see `perfbench/EXPERIMENTS.md`). This library
//! holds the workload constructors they share so every experiment runs
//! the same graphs and module mixes.

use ec_core::{
    BarrierParallel, Engine, MetricsSnapshot, Module, PassThrough, Sequential, SourceModule,
    Workload,
};
use ec_events::sources::{Counter, RandomWalk, Sparse};
use ec_fusion::operators::aggregate::Aggregate;
use ec_graph::Dag;

/// Modules for a graph where every vertex does `spin` iterations of
/// synthetic work: sources count, interior vertices forward.
pub fn relay_modules(dag: &Dag, spin: u64) -> Vec<Box<dyn Module>> {
    dag.vertices()
        .map(|v| -> Box<dyn Module> {
            if dag.is_source(v) {
                Box::new(Workload::new(SourceModule::new(Counter::new()), spin))
            } else {
                Box::new(Workload::new(PassThrough, spin))
            }
        })
        .collect()
}

/// Modules for fusion workloads: sources are random walks, interior
/// vertices aggregate, all with `spin` synthetic work.
pub fn fusion_modules(dag: &Dag, spin: u64) -> Vec<Box<dyn Module>> {
    dag.vertices()
        .map(|v| -> Box<dyn Module> {
            if dag.is_source(v) {
                Box::new(Workload::new(
                    SourceModule::new(RandomWalk::new(10.0, 1.0, v.0 as u64)),
                    spin,
                ))
            } else {
                Box::new(Workload::new(Aggregate::sum(), spin))
            }
        })
        .collect()
}

/// Modules where sources emit with probability `p` per phase — the
/// sparse-anomaly workload of experiment E5.
pub fn sparse_modules(dag: &Dag, p: f64, spin: u64) -> Vec<Box<dyn Module>> {
    dag.vertices()
        .map(|v| -> Box<dyn Module> {
            if dag.is_source(v) {
                Box::new(Workload::new(
                    SourceModule::new(Sparse::counter(p, v.0 as u64 + 1)),
                    spin,
                ))
            } else {
                Box::new(Workload::new(PassThrough, spin))
            }
        })
        .collect()
}

/// Runs the parallel engine over `phases` phases and returns metrics.
pub fn run_engine(
    dag: &Dag,
    modules: Vec<Box<dyn Module>>,
    threads: usize,
    phases: u64,
) -> MetricsSnapshot {
    let mut engine = Engine::builder(dag.clone(), modules)
        .threads(threads)
        .max_inflight(32)
        .record_history(false)
        .build()
        .expect("engine builds");
    engine.run(phases).expect("run succeeds").metrics
}

/// Runs the sequential baseline.
pub fn run_sequential(dag: &Dag, modules: Vec<Box<dyn Module>>, phases: u64) -> (u64, u64) {
    let mut seq = Sequential::new(dag, modules).expect("sequential builds");
    seq.run(phases).expect("run succeeds");
    (seq.executions, seq.messages_sent)
}

/// Runs the phase-barrier baseline.
pub fn run_barrier(
    dag: &Dag,
    modules: Vec<Box<dyn Module>>,
    threads: usize,
    phases: u64,
) -> (u64, u64) {
    let mut bar = BarrierParallel::new(dag, modules, threads).expect("barrier builds");
    bar.run(phases).expect("run succeeds");
    (bar.executions, bar.messages_sent)
}

/// Events per sealed epoch in the streaming-runtime workload (per
/// source, alternating pushes).
pub const RUNTIME_EPOCH: usize = 16;

/// The streaming-runtime throughput workload: two live sources feeding
/// a shared aggregation spine, history recording off — the graph the
/// `runtime_throughput` bench and the `record` baseline writer share.
pub fn runtime_workload(threads: usize) -> ec_runtime::StreamRuntime {
    runtime_workload_inner(threads, false)
}

/// [`runtime_workload`] with the full observability plane switched on:
/// a flight recorder (4096-event rings), an ephemeral `/metrics`
/// endpoint, and causal trace sampling at the default 1-in-64 rate.
/// The instrumented arm of the overhead A/B that the `record` baseline
/// writer measures and CI gates at ≤5%.
pub fn runtime_workload_observed(threads: usize) -> ec_runtime::StreamRuntime {
    runtime_workload_inner(threads, true)
}

fn runtime_workload_inner(threads: usize, observed: bool) -> ec_runtime::StreamRuntime {
    use ec_fusion::operators::moving::MovingAverage;
    use ec_fusion::operators::threshold::Threshold;
    let mut b = ec_runtime::StreamRuntime::builder()
        .threads(threads)
        .epoch_policy(ec_runtime::EpochPolicy::ByCount(RUNTIME_EPOCH))
        .record_history(false)
        .record_script(false)
        .max_inflight(64);
    if observed {
        // Default trace sampling (1 in 64) stays on: the A/B overhead
        // gate covers the causal-tracing path, not just the recorder.
        b = b.flight_recorder(4096).metrics_addr("127.0.0.1:0");
    } else {
        b = b.trace_sampling(0);
    }
    let s1 = b.live_source("s1");
    let s2 = b.live_source("s2");
    let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
    let avg = b.add("avg", MovingAverage::new(8), &[sum]);
    let _alarm = b.add("alarm", Threshold::above(900.0), &[avg]);
    b.build().expect("runtime builds")
}

/// Pushes `events` events through the workload (alternating sources)
/// and waits until every sealed phase has completed.
pub fn drive_runtime(rt: &ec_runtime::StreamRuntime, events: u64) {
    let s1 = rt.handle_by_name("s1").unwrap();
    let s2 = rt.handle_by_name("s2").unwrap();
    for i in 0..events {
        let handle = if i % 2 == 0 { &s1 } else { &s2 };
        handle.push((i % 1000) as f64).expect("push accepted");
    }
    rt.flush().expect("flush");
    rt.wait_idle().expect("completes");
}

/// Events buffered per producer before the epoch seals in the
/// multi-producer ingest workload.
pub const INGEST_EPOCH: usize = 8;

/// The multi-producer ingest workload: `producers` live sources feeding
/// one aggregation spine, one source per producer thread — the front-end
/// contention case. Epochs seal every [`INGEST_EPOCH`] events per
/// producer, so phase granularity stays constant as producers scale.
pub fn ingest_workload(threads: usize, producers: usize) -> ec_runtime::StreamRuntime {
    use ec_fusion::operators::moving::MovingAverage;
    use ec_fusion::operators::threshold::Threshold;
    let mut b = ec_runtime::StreamRuntime::builder()
        .threads(threads)
        .epoch_policy(ec_runtime::EpochPolicy::ByCount(INGEST_EPOCH * producers))
        .record_history(false)
        .record_script(false)
        .max_inflight(64);
    let sources: Vec<_> = (0..producers)
        .map(|p| b.live_source(format!("p{p}")))
        .collect();
    let sum = b.add("sum", Aggregate::sum(), &sources);
    let avg = b.add("avg", MovingAverage::new(8), &[sum]);
    let _alarm = b.add("alarm", Threshold::above(900.0), &[avg]);
    b.build().expect("runtime builds")
}

/// Drives [`ingest_workload`] with one thread per producer, each
/// pushing `events / producers` events into its own source, then seals
/// the remainder and waits for every phase to complete.
pub fn drive_runtime_parallel(rt: &ec_runtime::StreamRuntime, producers: usize, events: u64) {
    let per_producer = events / producers as u64;
    std::thread::scope(|scope| {
        for p in 0..producers {
            let handle = rt.handle_by_name(&format!("p{p}")).unwrap();
            scope.spawn(move || {
                for i in 0..per_producer {
                    handle.push((i % 1000) as f64).expect("push accepted");
                }
            });
        }
    });
    rt.flush().expect("flush");
    rt.wait_idle().expect("completes");
}

/// The multi-tenant workload: `tenants` copies of the
/// [`runtime_workload`] graph opened as sessions on one shared
/// [`SessionPool`](ec_runtime::SessionPool) with `threads` workers.
pub fn session_workload(
    threads: usize,
    tenants: usize,
) -> (ec_runtime::SessionPool, Vec<ec_runtime::Session>) {
    use ec_fusion::operators::moving::MovingAverage;
    use ec_fusion::operators::threshold::Threshold;
    let pool = ec_runtime::SessionPool::builder()
        .threads(threads)
        .max_sessions(tenants)
        .build();
    let sessions = (0..tenants)
        .map(|t| {
            let mut b = ec_runtime::StreamRuntime::builder()
                .epoch_policy(ec_runtime::EpochPolicy::ByCount(RUNTIME_EPOCH))
                .record_history(false)
                .record_script(false)
                .max_inflight(64);
            let s1 = b.live_source("s1");
            let s2 = b.live_source("s2");
            let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
            let avg = b.add("avg", MovingAverage::new(8), &[sum]);
            let _alarm = b.add("alarm", Threshold::above(900.0), &[avg]);
            pool.open(format!("tenant-{t}"), b).expect("session opens")
        })
        .collect();
    (pool, sessions)
}

/// Pushes `events` events round-robin across the sessions (alternating
/// sources within each) and waits until every tenant is idle.
pub fn drive_sessions(sessions: &[ec_runtime::Session], events: u64) {
    let handles: Vec<_> = sessions
        .iter()
        .flat_map(|s| {
            [
                s.handle_by_name("s1").unwrap(),
                s.handle_by_name("s2").unwrap(),
            ]
        })
        .collect();
    for i in 0..events {
        handles[(i % handles.len() as u64) as usize]
            .push((i % 1000) as f64)
            .expect("push accepted");
    }
    for s in sessions {
        s.flush().expect("flush");
        s.wait_idle().expect("completes");
    }
}

/// Events per `PushBatch` frame in the wire loadgen — the wire-level
/// batching that amortizes the per-frame round trip.
pub const WIRE_BATCH: usize = 64;

/// The wire-serving workload: `tenants` copies of the
/// [`runtime_workload`] graph opened on one shared pool and exposed
/// over TCP by a [`WireServer`](ec_runtime::WireServer) on an
/// ephemeral port — the full `ec serve` path (framing, CRC, striped
/// ingest, epoch seals) that [`drive_wire`] loads from real sockets.
pub fn wire_workload(threads: usize, tenants: usize) -> ec_runtime::WireServer {
    use ec_fusion::operators::moving::MovingAverage;
    use ec_fusion::operators::threshold::Threshold;
    let pool = ec_runtime::SessionPool::builder()
        .threads(threads)
        .max_sessions(tenants)
        .build();
    let sessions = (0..tenants)
        .map(|t| {
            let mut b = ec_runtime::StreamRuntime::builder()
                .epoch_policy(ec_runtime::EpochPolicy::ByCount(RUNTIME_EPOCH))
                .record_history(false)
                .record_script(false)
                .max_inflight(64);
            let s1 = b.live_source("s1");
            let s2 = b.live_source("s2");
            let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
            let avg = b.add("avg", MovingAverage::new(8), &[sum]);
            let _alarm = b.add("alarm", Threshold::above(900.0), &[avg]);
            pool.open(format!("tenant-{t}"), b).expect("session opens")
        })
        .collect();
    ec_runtime::WireServer::builder()
        .bind("127.0.0.1:0", pool, sessions)
        .expect("wire server binds")
}

/// Drives a [`wire_workload`] server over real TCP: one producer
/// connection per tenant, `events` split evenly, pushed as
/// [`WIRE_BATCH`]-event frames alternating between the two sources,
/// with a final seal per tenant. Blocks until every tenant has
/// retired all committed phases; returns the total events the server
/// acked.
pub fn drive_wire(server: &ec_runtime::WireServer, events: u64) -> u64 {
    use ec_runtime::serve::Role;
    use std::sync::atomic::{AtomicU64, Ordering};
    let addr = server.local_addr().to_string();
    let names = server.tenant_names();
    let per_tenant = events / names.len() as u64;
    let acked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for name in &names {
            let (addr, acked) = (&addr, &acked);
            scope.spawn(move || {
                let mut client =
                    ec_runtime::WireClient::connect(addr.as_str(), "", name, Role::Producer)
                        .expect("producer connects");
                let s1 = client.source_index("s1").unwrap();
                let s2 = client.source_index("s2").unwrap();
                let mut batch = Vec::with_capacity(WIRE_BATCH);
                let mut sent = 0u64;
                let mut source = s1;
                while sent < per_tenant {
                    batch.clear();
                    while batch.len() < WIRE_BATCH && sent < per_tenant {
                        batch.push(ec_events::Value::Float((sent % 1000) as f64));
                        sent += 1;
                    }
                    let got = client.push_batch(source, &batch).expect("batch acked");
                    acked.fetch_add(got as u64, Ordering::Relaxed);
                    source = if source == s1 { s2 } else { s1 };
                }
                client.seal().expect("final seal");
            });
        }
    });
    for name in &names {
        server
            .tenant(name)
            .expect("tenant exists")
            .wait_idle()
            .expect("tenant drains");
    }
    acked.load(std::sync::atomic::Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_graph::generators;

    #[test]
    fn workload_builders_run() {
        let dag = generators::layered(3, 2, 2, 1);
        let m = run_engine(&dag, relay_modules(&dag, 0), 2, 5);
        assert_eq!(m.phases_completed, 5);
        let m = run_engine(&dag, fusion_modules(&dag, 0), 2, 5);
        assert_eq!(m.phases_completed, 5);
        let m = run_engine(&dag, sparse_modules(&dag, 0.5, 0), 2, 20);
        assert_eq!(m.phases_completed, 20);
    }

    #[test]
    fn ingest_workload_runs() {
        let rt = ingest_workload(2, 4);
        drive_runtime_parallel(&rt, 4, 400);
        assert_eq!(rt.events_committed(), 400);
        let m = rt.metrics();
        assert_eq!(m.ingest.depths.len(), 4);
        assert_eq!(m.ingest.depths.iter().sum::<u64>(), 0, "all drained");
        assert!(m.ingest.seal_batches > 0);
        assert_eq!(m.ingest.seal_events, 400);
        assert!(m.mean_seal_batch() > 0.0);
        rt.shutdown().unwrap();
    }

    #[test]
    fn session_workload_runs() {
        let (pool, sessions) = session_workload(2, 3);
        drive_sessions(&sessions, 300);
        let rows = pool.metrics();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.events_committed == 100));
        for s in sessions {
            s.close().unwrap();
        }
    }

    #[test]
    fn wire_workload_runs() {
        let server = wire_workload(2, 2);
        let acked = drive_wire(&server, 400);
        assert_eq!(acked, 400);
        let stats = server.stats();
        assert_eq!(stats.events_in, 400);
        assert_eq!(stats.connections_total, 2);
        for (name, report) in server.shutdown() {
            report.unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn baselines_run() {
        let dag = generators::chain(4);
        let (ex, msgs) = run_sequential(&dag, relay_modules(&dag, 0), 10);
        assert_eq!(ex, 40);
        assert_eq!(msgs, 30);
        let (ex, msgs) = run_barrier(&dag, relay_modules(&dag, 0), 2, 10);
        assert_eq!(ex, 40);
        assert_eq!(msgs, 30);
    }
}
