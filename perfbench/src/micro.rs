//! Isolated measurements of single layers, taken in every traced run:
//! operator execution, column recycling, WAL commit, checkpoints and
//! restore, the wire codec — and the paper's comparison (pipelined vs
//! phase-barrier vs sequential execution of the `engine_pipeline`
//! graph in batch mode).
//!
//! These do not depend on the workload being run; they give a later
//! change to one layer a number of that layer alone to point at.

use crate::drive::durable;
use crate::graphs::{runtime_builder, scripted_graph, Workload, ALARM_LEVEL, EPOCH, WIRE_BATCH};
use crate::spans::{Recorder, SpanId};
use crate::stats::{mean, median, quantile, Metrics, Walk};
use ec_core::{ExecCtx, InputView, Module};
use ec_events::{ColumnPool, Phase, Value};
use ec_fusion::operators::aggregate::Aggregate;
use ec_fusion::operators::moving::MovingAverage;
use ec_fusion::operators::threshold::Threshold;
use ec_graph::VertexId;
use ec_runtime::serve::wire::{decode, encode};
use ec_runtime::serve::{Frame, WireAlarm};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Runs every isolated measurement. `scale` shrinks the iteration
/// counts for short (smoke) runs; 1.0 is the full size.
pub fn run(
    seed: u64,
    scale: f64,
    store_dir: &Path,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<Metrics, String> {
    let iters = |full: usize| ((full as f64 * scale) as usize).max(64);
    let mut m = Metrics::new();
    let span = rec.open("isolated", parent);
    rec.time("isolated.fusion", span, || {
        m.insert(
            "fusion.execute_ns".into(),
            (fusion_execute_ns(seed, iters(200_000)), "ns"),
        );
    });
    rec.time("isolated.events", span, || {
        m.insert(
            "events.column_cycle_ns".into(),
            (column_cycle_ns(iters(50_000)), "ns"),
        );
    });
    rec.time("isolated.serve", span, || codec(&mut m, iters(20_000)));
    rec.time("isolated.store", span, || {
        store(&mut m, seed, iters(4_000), store_dir)
    })?;
    rec.time("isolated.core", span, || {
        paper_comparison(&mut m, seed, iters(1_200) as u64)
    })?;
    rec.close(span);
    Ok(m)
}

/// Mean `Module::execute` over the stream graph's three operators, each
/// fed the values it sees in the workloads.
fn fusion_execute_ns(seed: u64, iters: usize) -> f64 {
    let mut walks = [Walk::new(seed, 1), Walk::new(seed, 2)];
    let preds2 = [VertexId(0), VertexId(1)];
    let preds1 = [VertexId(2)];
    let mut sum = Aggregate::sum();
    let mut avg = MovingAverage::new(8);
    let mut alarm = Threshold::above(ALARM_LEVEL);
    let mut time_one = |module: &mut dyn Module, arity: usize| {
        let start = Instant::now();
        for i in 0..iters {
            let a = Value::Float(walks[0].next_value());
            let b = Value::Float(walks[1].next_value());
            let (latest, fresh, preds): (Vec<_>, Vec<_>, &[VertexId]) = if arity == 2 {
                (
                    vec![Some(a.clone()), Some(b.clone())],
                    vec![(preds2[0], a), (preds2[1], b)],
                    &preds2,
                )
            } else {
                (vec![Some(a.clone())], vec![(preds1[0], a)], &preds1)
            };
            black_box(module.execute(ExecCtx {
                phase: Phase(i as u64 + 1),
                vertex: VertexId(3),
                inputs: InputView {
                    preds,
                    latest: &latest,
                    fresh: &fresh,
                },
                is_source: false,
            }));
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    // The context vectors are built inside the loop for all three, so
    // the figure is an upper bound that moves with `execute`.
    mean(&[
        time_one(&mut sum, 2),
        time_one(&mut avg, 1),
        time_one(&mut alarm, 1),
    ])
}

/// One epoch column's life: take a buffer, fill 16 bins, freeze, release
/// (the next take reclaims it).
fn column_cycle_ns(iters: usize) -> f64 {
    let mut pool = ColumnPool::new();
    let start = Instant::now();
    for i in 0..iters {
        let mut bins = pool.checkout();
        for k in 0..EPOCH {
            bins.push(Some(Value::Float((i as u64 + k) as f64)));
        }
        drop(black_box(pool.seal(bins)));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Mean ns per call of `call` over `iters` calls.
fn per_call(iters: usize, mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        call();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `wire::encode` / `wire::decode` of the frames the wire workload
/// moves, 64 values each, and the bytes they put on the socket.
fn codec(m: &mut Metrics, iters: usize) {
    let push = Frame::PushBatch {
        seq: 7,
        source: 1,
        bins: (0..WIRE_BATCH)
            .map(|i| Some(Value::Float(i as f64 * 0.37)))
            .collect(),
    };
    let alarms = Frame::AlarmBatch {
        alarms: (0..WIRE_BATCH)
            .map(|i| WireAlarm {
                phase: 1_000_000 + i,
                sink: "tap".into(),
                value: Value::Float(i as f64 * 0.37),
            })
            .collect(),
    };
    let payload = encode(&push);
    m.insert(
        "serve.encode_push_ns".into(),
        (
            per_call(iters, || {
                black_box(encode(black_box(&push)));
            }),
            "ns",
        ),
    );
    m.insert(
        "serve.decode_push_ns".into(),
        (
            per_call(iters, || {
                black_box(decode(black_box(&payload)).expect("decodes"));
            }),
            "ns",
        ),
    );
    m.insert(
        "serve.encode_alarm_ns".into(),
        (
            per_call(iters, || {
                black_box(encode(black_box(&alarms)));
            }),
            "ns",
        ),
    );
    // Frame = 4-byte length + 4-byte CRC + payload. Per event: its share
    // of the push frame and of the ack, plus one tap alarm.
    let framed = |f: &Frame| (encode(f).len() + 8) as f64;
    let ack = Frame::PushAck {
        seq: 7,
        accepted: WIRE_BATCH as u32,
    };
    m.insert(
        "serve.wire_bytes_per_event".into(),
        (
            (framed(&push) + framed(&ack) + framed(&alarms)) / WIRE_BATCH as f64,
            "B",
        ),
    );
}

/// The store, alone: WAL group commit of one 8-row epoch; then a durable
/// runtime on the stream graph — warm-up, crash, timed `restore()`, and
/// full/delta `checkpoint()`s (full every 4th).
fn store(m: &mut Metrics, seed: u64, commits: usize, dir: &Path) -> Result<(), String> {
    let e = |what: &'static str| move |err: ec_store::StoreError| format!("{what}: {err}");
    let wal_dir = dir.join("isolated-wal");
    let sources = ["s1".to_string(), "s2".to_string()];
    let mut wal = ec_store::WalWriter::create(&wal_dir, &sources).map_err(e("create wal"))?;
    let mut walks = [Walk::new(seed, 1), Walk::new(seed, 2)];
    let mut commit_ns = Vec::with_capacity(commits);
    let rows_per_epoch = (EPOCH / 2) as usize;
    for _ in 0..commits {
        let rows: Vec<[Option<Value>; 2]> = (0..rows_per_epoch)
            .map(|_| walks.each_mut().map(|w| Some(Value::Float(w.next_value()))))
            .collect();
        let start = Instant::now();
        for row in &rows {
            wal.stage_row_bins(row.iter().map(Option::as_ref));
        }
        wal.commit().map_err(e("wal commit"))?;
        commit_ns.push(start.elapsed().as_nanos() as f64);
    }
    m.insert(
        "store.wal_commit_ns".into(),
        (quantile(&mut commit_ns, 0.5), "ns"),
    );
    m.insert(
        "store.wal_bytes_per_event".into(),
        (
            wal.wal_bytes() as f64 / (commits as u64 * EPOCH) as f64,
            "B",
        ),
    );
    drop(wal);

    let rt_err = |what: &'static str| move |err: ec_runtime::RuntimeError| format!("{what}: {err}");
    let w = Workload::DurableStream;
    let rt_dir = dir.join("isolated-runtime");
    let rt = durable(runtime_builder(w), &rt_dir)
        .build()
        .map_err(rt_err("build durable runtime"))?;
    let handles_of = |rt: &ec_runtime::StreamRuntime| {
        let handle = |name| rt.handle_by_name(name).map_err(rt_err("source handle"));
        Ok::<_, String>([handle("s1")?, handle("s2")?])
    };
    let handles = handles_of(&rt)?;
    let push = |handles: &[ec_runtime::SourceHandle; 2], walks: &mut [Walk; 2], events: u64| {
        for i in 0..events {
            let slot = (i % 2) as usize;
            handles[slot]
                .push(walks[slot].next_value())
                .map_err(|err| format!("push: {err}"))?;
        }
        Ok::<(), String>(())
    };
    push(&handles, &mut walks, w.plan().warmup_events)?;
    rt.flush().map_err(rt_err("flush"))?;
    rt.wait_idle().map_err(rt_err("wait_idle"))?;
    drop(handles);
    drop(rt); // crash
    let start = Instant::now();
    let rt = durable(runtime_builder(w), &rt_dir)
        .restore()
        .map_err(rt_err("restore"))?;
    rt.wait_idle().map_err(rt_err("wait_idle"))?;
    m.insert(
        "store.restore_ms".into(),
        (start.elapsed().as_secs_f64() * 1e3, "ms"),
    );
    let handles = handles_of(&rt)?;
    let (mut full, mut delta) = (Vec::new(), Vec::new());
    for round in 0..12 {
        push(&handles, &mut walks, 256)?;
        rt.flush().map_err(rt_err("flush"))?;
        let start = Instant::now();
        rt.checkpoint().map_err(rt_err("checkpoint"))?;
        let us = start.elapsed().as_secs_f64() * 1e6;
        // A restored snapshotter writes a full snapshot first, then
        // three deltas (the default `snapshot_full_every(4)`), and so on.
        if round % 4 == 0 {
            full.push(us);
        } else {
            delta.push(us);
        }
    }
    drop(handles);
    rt.shutdown().map_err(rt_err("shutdown"))?;
    m.insert("store.checkpoint_full_us".into(), (median(&mut full), "us"));
    m.insert(
        "store.checkpoint_delta_us".into(),
        (median(&mut delta), "us"),
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&rt_dir);
    Ok(())
}

/// The paper's comparison (§2/§3, Table 1) on the `engine_pipeline`
/// graph with scripted sources: the same `phases` phases run pipelined
/// (`Engine`, 2 threads, 32 phases in flight), with a phase barrier
/// (`Engine`, 2 threads, 1 phase in flight) and sequentially. Three
/// interleaved rounds; the median rate of each.
fn paper_comparison(m: &mut Metrics, seed: u64, phases: u64) -> Result<(), String> {
    let w = Workload::EnginePipeline;
    let engine = |max_inflight: u64| -> Result<f64, String> {
        let mut engine = scripted_graph(w, seed, None)
            .engine()
            .threads(w.plan().threads)
            .max_inflight(max_inflight)
            .record_history(false)
            .build()
            .map_err(|e| format!("batch engine: {e}"))?;
        let start = Instant::now();
        engine
            .run(phases)
            .map_err(|e| format!("batch engine run: {e}"))?;
        Ok(phases as f64 / start.elapsed().as_secs_f64())
    };
    let sequential = || -> Result<f64, String> {
        let mut seq = scripted_graph(w, seed, None)
            .sequential()
            .map_err(|e| format!("sequential: {e}"))?;
        let start = Instant::now();
        seq.run(phases)
            .map_err(|e| format!("sequential run: {e}"))?;
        Ok(phases as f64 / start.elapsed().as_secs_f64())
    };
    let (mut pipelined, mut barrier, mut serial) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        pipelined.push(engine(w.plan().max_inflight)?);
        barrier.push(engine(1)?);
        serial.push(sequential()?);
    }
    let (pipelined, barrier, serial) = (
        median(&mut pipelined),
        median(&mut barrier),
        median(&mut serial),
    );
    m.insert("core.pipelined_phases_per_s".into(), (pipelined, "1/s"));
    m.insert("core.barrier_phases_per_s".into(), (barrier, "1/s"));
    m.insert("core.sequential_phases_per_s".into(), (serial, "1/s"));
    m.insert("core.pipelining_speedup".into(), (pipelined / barrier, "x"));
    m.insert("core.parallel_speedup".into(), (pipelined / serial, "x"));
    Ok(())
}
