//! Multi-tenant session tests: fairness under a saturating neighbour,
//! per-tenant serializability on a shared pool, and the multi-tenant
//! kill/restore crash matrix.
//!
//! The bar (ISSUE 4): N independent tenant graphs share one worker
//! pool, every tenant's observable behaviour stays exactly what a
//! dedicated sequential run of its own committed script would produce,
//! a trickle tenant's phase-retirement latency stays bounded while a
//! neighbour saturates the pool, and killing a pool of durable tenants
//! mid-flight restores every one of them at its exact next phase.
//!
//! Thread count is `EC_SESSIONS_THREADS` (default 4) so CI can sweep a
//! 2/4/8 matrix over the same assertions.

use ec_core::ExecutionHistory;
use ec_fusion::operators::aggregate::Aggregate;
use ec_fusion::operators::moving::MovingAverage;
use ec_fusion::operators::threshold::Threshold;
use ec_runtime::{
    EpochPolicy, PhaseScript, RuntimeError, SessionPool, StreamRuntime, StreamRuntimeBuilder,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool size under test (CI sweeps 2/4/8).
fn pool_threads() -> usize {
    std::env::var("EC_SESSIONS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ec-runtime-sessions-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The per-tenant graph (all operators snapshot-capable):
///
/// ```text
/// s1 ─┬─ sum ── avg(3) ── alarm(>10)
/// s2 ─┘
/// ```
fn tenant_builder() -> StreamRuntimeBuilder {
    let mut b = StreamRuntime::builder();
    let s1 = b.live_source("s1");
    let s2 = b.live_source("s2");
    let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
    let avg = b.add("avg", MovingAverage::new(3), &[sum]);
    b.add("alarm", Threshold::above(10.0), &[avg]);
    b
}

/// Runs the sequential oracle, uninterrupted, over a committed script
/// of the tenant graph.
fn oracle_history(script: &PhaseScript) -> ExecutionHistory {
    let mut b = ec_fusion::CorrelatorBuilder::new();
    let s1 = b.source("s1", script.replay(0));
    let s2 = b.source("s2", script.replay(1));
    let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
    let avg = b.add("avg", MovingAverage::new(3), &[sum]);
    b.add("alarm", Threshold::above(10.0), &[avg]);
    let mut seq = b.sequential().expect("oracle builds");
    seq.run(script.phases()).expect("oracle runs");
    seq.into_history()
}

/// Asserts a restored run's history (phases `base+1..`) matches the
/// tail of the uninterrupted oracle run: every *observable* record.
/// Silent executions are filtered from both sides — the live engine's
/// silence-aware admission never schedules a provably silent
/// live-source poll, while the dense oracle records it (the contract
/// of `ExecutionHistory::equivalent`).
fn assert_tail_matches(full: &ExecutionHistory, restored: &ExecutionHistory, base: u64) {
    use ec_core::RecordedEmission;
    use ec_graph::VertexId;
    let observable =
        |(_, e): &&(ec_events::Phase, RecordedEmission)| !matches!(e, RecordedEmission::Silent);
    assert_eq!(full.vertex_count(), restored.vertex_count());
    for vi in 0..full.vertex_count() {
        let v = VertexId(vi as u32);
        let want: Vec<_> = full
            .of(v)
            .iter()
            .filter(|(p, _)| p.get() > base)
            .filter(observable)
            .collect();
        let got: Vec<_> = restored.of(v).iter().filter(observable).collect();
        assert_eq!(
            want.len(),
            got.len(),
            "{v:?}: oracle tail has {} executions after phase {base}, restored run has {}",
            want.len(),
            got.len()
        );
        for ((wp, we), (gp, ge)) in want.iter().zip(got.iter()) {
            assert_eq!(wp, gp, "{v:?}: phase mismatch");
            assert!(
                we.same_as(ge),
                "{v:?} phase {wp:?}: emission mismatch: {we:?} vs {ge:?}"
            );
        }
    }
}

/// Every tenant on a shared pool produces exactly its own sequential
/// oracle's history — serializability is preserved per tenant under
/// multiplexed execution.
#[test]
fn each_tenant_matches_its_own_oracle_on_a_shared_pool() {
    let pool = SessionPool::builder()
        .threads(pool_threads())
        .max_sessions(4)
        .build();
    let sessions: Vec<_> = (0..3)
        .map(|i| pool.open(format!("tenant-{i}"), tenant_builder()).unwrap())
        .collect();

    // Interleave pushes and flushes across tenants so their phases are
    // genuinely multiplexed on the shared workers.
    let mut rng = SmallRng::seed_from_u64(41);
    for step in 0..240 {
        let s = &sessions[step % sessions.len()];
        let which = if rng.gen_bool(0.5) { "s1" } else { "s2" };
        s.handle_by_name(which)
            .unwrap()
            .push(rng.gen_range(-20i64..30) as f64)
            .unwrap();
        if rng.gen_range(0u32..4) == 0 {
            s.flush().unwrap();
        }
    }
    for s in sessions {
        let name = s.name().to_string();
        let report = s.close().unwrap();
        let oracle = oracle_history(&report.script);
        let live = report.history.expect("history recorded");
        assert_eq!(
            oracle.equivalent(&live),
            Ok(()),
            "{name}: shared-pool run diverged from its sequential oracle"
        );
    }
}

/// The starvation test: one tenant saturates the pool continuously
/// while a trickle tenant commits one phase at a time. The trickle
/// tenant's phase-retirement latency must stay bounded (weighted
/// round-robin admission + the saturator's in-flight cap bound the
/// foreign work ahead of it), and both tenants must make progress.
#[test]
fn trickle_tenant_latency_stays_bounded_under_saturation() {
    let pool = SessionPool::builder()
        .threads(pool_threads())
        .max_sessions(2)
        .build();

    // Saturator: auto-sealing epochs, bounded in-flight, script and
    // history off so the run can push events indefinitely.
    let hot = pool
        .open(
            "hot",
            tenant_builder()
                .epoch_policy(EpochPolicy::ByCount(16))
                .max_inflight(16)
                .record_history(false)
                .record_script(false),
        )
        .unwrap();
    let trickle = pool
        .open(
            "trickle",
            tenant_builder().record_history(false).record_script(false),
        )
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let hot_handle = hot.handle_by_name("s1").unwrap();
    let stop2 = Arc::clone(&stop);
    let saturator = std::thread::spawn(move || {
        let mut i = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            // Pushes auto-seal every 16 events; backpressure blocks at
            // the in-flight cap, keeping the pool saturated throughout.
            if hot_handle.push((i % 100) as f64).is_err() {
                break;
            }
            i += 1;
        }
    });

    // Let the saturator build a real backlog before measuring.
    std::thread::sleep(Duration::from_millis(100));

    let trickle_s1 = trickle.handle_by_name("s1").unwrap();
    let mut max_latency = Duration::ZERO;
    const ROUNDS: u64 = 25;
    for i in 0..ROUNDS {
        trickle_s1.push(i as f64).unwrap();
        let start = Instant::now();
        trickle.flush().unwrap();
        trickle.wait_idle().unwrap();
        max_latency = max_latency.max(start.elapsed());
    }
    stop.store(true, Ordering::Relaxed);
    saturator.join().unwrap();

    let rows = pool.metrics();
    let hot_retired = rows
        .iter()
        .find(|r| r.name == "hot")
        .unwrap()
        .phases_retired;
    let trickle_retired = rows
        .iter()
        .find(|r| r.name == "trickle")
        .unwrap()
        .phases_retired;

    // Both made progress...
    assert!(
        hot_retired >= 50,
        "saturator should have retired many phases, got {hot_retired}"
    );
    assert_eq!(trickle_retired, ROUNDS, "every trickle phase retired");
    // ...and the trickle tenant was never starved: each of its phases
    // retired in bounded time despite a continuously saturated pool.
    // The bound is generous (debug builds, loaded CI machines); real
    // starvation shows up as seconds-to-forever.
    assert!(
        max_latency < Duration::from_secs(2),
        "trickle phase-retirement latency {max_latency:?} exceeds bound"
    );

    hot.close().unwrap();
    trickle.close().unwrap();
}

/// A failing tenant (module panic) must not disturb its neighbours:
/// the failure surfaces through that tenant's own API while the other
/// session keeps committing and retiring phases.
#[test]
fn tenant_failure_is_isolated() {
    use ec_core::{Emission, ExecCtx, FnModule};

    let pool = SessionPool::builder()
        .threads(pool_threads())
        .max_sessions(2)
        .build();

    let mut bomb_builder = StreamRuntime::builder();
    let src = bomb_builder.live_source("s");
    bomb_builder.add(
        "bomb",
        FnModule::new("bomb", |ctx: ExecCtx<'_>| {
            if ctx.phase.get() >= 3 {
                panic!("tenant exploded");
            }
            Emission::Silent
        }),
        &[src],
    );
    let bomb = pool.open("bomb", bomb_builder).unwrap();
    let healthy = pool.open("healthy", tenant_builder()).unwrap();

    let bs = bomb.handle_by_name("s").unwrap();
    for i in 0..5 {
        // Pushes may start failing once the panic propagates; that is
        // the expected surface.
        let _ = bs.push(i as f64);
        let _ = bomb.flush();
    }
    let err = match bomb.close() {
        Ok(_) => panic!("bombed tenant must fail"),
        Err(e) => e,
    };
    assert!(
        matches!(err, RuntimeError::Engine(_) | RuntimeError::Closed),
        "got {err:?}"
    );

    // The neighbour is unaffected, before and after the failure.
    let hs = healthy.handle_by_name("s1").unwrap();
    for i in 0..20 {
        hs.push(i as f64).unwrap();
        healthy.flush().unwrap();
    }
    healthy.wait_idle().unwrap();
    let report = healthy.close().unwrap();
    assert_eq!(report.phases, 20);
    let oracle = oracle_history(&report.script);
    assert_eq!(oracle.equivalent(&report.history.unwrap()), Ok(()));
}

/// A batch subscriber and a per-emission subscriber on one session see
/// one sequence: the batches, concatenated, are exactly the emissions
/// the per-emission callback got one by one — serial order, nothing
/// dropped or repeated at a batch boundary — and `wait_delivered`
/// returns only once both have them all.
#[test]
fn batch_subscribers_see_the_per_emission_sequence() {
    let pool = SessionPool::new(pool_threads(), 1);
    let session = pool.open("both", tenant_builder()).unwrap();
    let each = Arc::new(Mutex::new(Vec::new()));
    let batched = Arc::new(Mutex::new(Vec::new()));
    {
        let each = Arc::clone(&each);
        session.subscribe(move |e| each.lock().unwrap().push(e.clone()));
        let batched = Arc::clone(&batched);
        session.subscribe_batches(move |batch| {
            assert!(!batch.is_empty(), "an empty drain is not delivered");
            batched.lock().unwrap().push(batch.to_vec());
        });
    }
    let mut rng = SmallRng::seed_from_u64(5);
    apply_ops(&session, &random_ops(&mut rng, 600));
    session.flush().unwrap();
    session.wait_idle().unwrap();
    session.wait_delivered();

    let each = each.lock().unwrap();
    let batched = batched.lock().unwrap();
    assert!(!each.is_empty(), "the workload crosses the threshold");
    assert_eq!(batched.concat(), *each);
    assert!(
        each.windows(2).all(|w| w[0].phase < w[1].phase),
        "one sink: phases strictly increase"
    );
    drop((each, batched));
    let report = session.close().unwrap();
    let oracle = oracle_history(&report.script);
    assert_eq!(oracle.equivalent(&report.history.unwrap()), Ok(()));
}

/// One scripted interleaving step for the crash matrix.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push(usize, f64),
    Flush,
}

fn random_ops(rng: &mut SmallRng, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0usize..10) < 7 {
                Op::Push(rng.gen_range(0usize..2), rng.gen_range(-20i64..30) as f64)
            } else {
                Op::Flush
            }
        })
        .collect()
}

fn apply_ops(rt: &StreamRuntime, ops: &[Op]) {
    let handles = [
        rt.handle_by_name("s1").unwrap(),
        rt.handle_by_name("s2").unwrap(),
    ];
    for op in ops {
        match *op {
            Op::Push(which, v) => handles[which].push(v).unwrap(),
            Op::Flush => {
                rt.flush().unwrap();
            }
        }
    }
}

/// The multi-tenant crash matrix: a pool of 3 durable tenants is
/// killed mid-flight (sessions and pool dropped without shutdown) at a
/// random point per tenant; a fresh pool restores all of them, each
/// resumes at its exact committed phase, and after more traffic every
/// tenant's stitched run equals its own uninterrupted sequential
/// oracle — durability and serializability are per-tenant properties,
/// unaffected by sharing the pool.
#[test]
fn killed_pool_restores_every_tenant_to_its_own_oracle() {
    const TENANTS: usize = 3;
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(seed * 7177 + 13);
        let root = test_dir("kill-matrix");
        let ops: Vec<Vec<Op>> = (0..TENANTS).map(|_| random_ops(&mut rng, 50)).collect();
        let kill_at: Vec<usize> = (0..TENANTS).map(|_| rng.gen_range(5usize..45)).collect();

        // First incarnation: all tenants durable under the pool root,
        // traffic interleaved round-robin up to each tenant's kill
        // point, then the whole pool is dropped — no shutdown, no
        // final seal.
        {
            let pool = SessionPool::builder()
                .threads(pool_threads())
                .max_sessions(TENANTS)
                .durable_root(&root)
                .build();
            let sessions: Vec<_> = (0..TENANTS)
                .map(|i| {
                    pool.open(format!("tenant-{i}"), tenant_builder().snapshot_every(4))
                        .unwrap()
                })
                .collect();
            let mut cursor = [0usize; TENANTS];
            loop {
                let mut progressed = false;
                for (i, s) in sessions.iter().enumerate() {
                    if cursor[i] < kill_at[i] {
                        apply_ops(s, &ops[i][cursor[i]..cursor[i] + 1]);
                        cursor[i] += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            drop(sessions); // simulated crash of every tenant
            drop(pool);
        }

        // Peek at what each store committed (as `ec recover` would).
        let mut committed = Vec::new();
        let mut bases = Vec::new();
        for i in 0..TENANTS {
            let dir = ec_store::session_dir(&root, &format!("tenant-{i}"));
            let rec = ec_store::Recovery::open(&dir).unwrap();
            committed.push(rec.committed_phases());
            bases.push(rec.snapshot_phase());
        }

        // Second incarnation: fresh pool, same root, same names —
        // every tenant restores independently and continues.
        let pool = SessionPool::builder()
            .threads(pool_threads())
            .max_sessions(TENANTS)
            .durable_root(&root)
            .build();
        let sessions: Vec<_> = (0..TENANTS)
            .map(|i| {
                pool.open(format!("tenant-{i}"), tenant_builder().snapshot_every(4))
                    .unwrap()
            })
            .collect();
        for (i, s) in sessions.iter().enumerate() {
            assert_eq!(
                s.admitted(),
                committed[i],
                "tenant-{i} resumes at its exact committed phase (seed {seed})"
            );
            apply_ops(s, &ops[i][kill_at[i]..]);
        }
        for (i, s) in sessions.into_iter().enumerate() {
            let report = s.close().unwrap();
            assert!(report.script.phases() >= committed[i]);
            let full = oracle_history(&report.script);
            let live = report.history.expect("history recorded");
            assert_tail_matches(&full, &live, bases[i]);
        }
        drop(pool);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Opening more sessions than the pool has slots fails cleanly, and a
/// closed session's slot is reusable.
#[test]
fn session_slots_are_bounded_and_recycled() {
    let pool = SessionPool::builder().threads(2).max_sessions(2).build();
    let a = pool.open("a", tenant_builder()).unwrap();
    let b = pool.open("b", tenant_builder()).unwrap();
    let err = match pool.open("c", tenant_builder()) {
        Ok(_) => panic!("third session must be refused"),
        Err(e) => e,
    };
    assert!(matches!(err, RuntimeError::Engine(_)), "got {err:?}");
    // Duplicate names are refused while open.
    assert!(pool.open("a", tenant_builder()).is_err());
    a.close().unwrap();
    // The freed slot serves a new session, which runs normally.
    let c = pool.open("c", tenant_builder()).unwrap();
    let cs = c.handle_by_name("s1").unwrap();
    cs.push(1.0).unwrap();
    c.flush().unwrap();
    assert_eq!(c.wait_idle().unwrap(), 1);
    c.close().unwrap();
    b.close().unwrap();
    assert_eq!(pool.session_count(), 0);
}

/// `checkpoint_all` snapshots every durable tenant at its own retired
/// boundary; restore then replays nothing (snapshot == committed).
#[test]
fn checkpoint_all_snapshots_every_durable_tenant() {
    let root = test_dir("checkpoint-all");
    let pool = SessionPool::builder()
        .threads(pool_threads())
        .max_sessions(2)
        .durable_root(&root)
        .build();
    let sessions: Vec<_> = (0..2)
        .map(|i| pool.open(format!("t{i}"), tenant_builder()).unwrap())
        .collect();
    for (i, s) in sessions.iter().enumerate() {
        let h = s.handle_by_name("s1").unwrap();
        for k in 0..(3 + i as i64) {
            h.push(k as f64).unwrap();
            s.flush().unwrap();
        }
    }
    let rows = pool.checkpoint_all();
    assert_eq!(rows.len(), 2);
    for (i, (name, result)) in rows.iter().enumerate() {
        assert_eq!(name, &format!("t{i}"));
        assert_eq!(*result.as_ref().unwrap(), 3 + i as u64);
    }
    for s in sessions {
        s.close().unwrap();
    }
    for i in 0..2 {
        let dir = ec_store::session_dir(&root, &format!("t{i}"));
        let rec = ec_store::Recovery::open(&dir).unwrap();
        assert_eq!(rec.snapshot_phase(), 3 + i as u64);
        assert!(rec.tail_rows().is_empty(), "snapshot covers everything");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Two distinct session names that sanitize to the same durable store
/// directory must not both open — one store never gets two live WAL
/// writers.
#[test]
fn colliding_store_directories_are_refused() {
    let root = test_dir("dir-collision");
    let pool = SessionPool::builder()
        .threads(2)
        .max_sessions(2)
        .durable_root(&root)
        .build();
    // "a b" and "a_b" both sanitize to root/a_b.
    let first = pool.open("a b", tenant_builder()).unwrap();
    let err = match pool.open("a_b", tenant_builder()) {
        Ok(_) => panic!("colliding store directory must be refused"),
        Err(e) => e,
    };
    assert!(
        matches!(err, RuntimeError::Config(ref msg) if msg.contains("store directory")),
        "got {err:?}"
    );
    first.close().unwrap();
    // Freed with its holder: now the sanitized name can open (and
    // restores the first session's store, same graph).
    let second = pool.open("a_b", tenant_builder()).unwrap();
    second.close().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// A restored session's replayed WAL backlog counts toward
/// `events_committed` but not toward `events_per_sec` — the rate
/// reports live throughput of this incarnation only.
#[test]
fn restored_session_rate_excludes_replayed_backlog() {
    let root = test_dir("restore-rate");
    {
        let pool = SessionPool::builder()
            .threads(2)
            .max_sessions(1)
            .durable_root(&root)
            .build();
        let s = pool.open("t", tenant_builder()).unwrap();
        let h = s.handle_by_name("s1").unwrap();
        for i in 0..20 {
            h.push(i as f64).unwrap();
            s.flush().unwrap();
        }
        s.wait_idle().unwrap();
        drop(s); // crash: the 20 committed phases stay in the WAL
    }
    let pool = SessionPool::builder()
        .threads(2)
        .max_sessions(1)
        .durable_root(&root)
        .build();
    let s = pool.open("t", tenant_builder()).unwrap();
    assert_eq!(s.admitted(), 20, "tail replayed");
    let row = &pool.metrics()[0];
    assert_eq!(row.events_committed, 20, "cumulative count keeps replay");
    assert_eq!(
        row.events_per_sec, 0.0,
        "no live events yet — replay must not inflate the rate"
    );
    s.close().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// Per-tenant metrics rows report independent progress.
#[test]
fn metrics_rows_are_per_tenant() {
    let pool = SessionPool::builder()
        .threads(pool_threads())
        .max_sessions(3)
        .build();
    let busy = pool.open("busy", tenant_builder()).unwrap();
    let idle = pool.open("idle", tenant_builder()).unwrap();
    let h = busy.handle_by_name("s1").unwrap();
    for i in 0..10 {
        h.push(i as f64).unwrap();
        busy.flush().unwrap();
    }
    busy.wait_idle().unwrap();

    let rows = pool.metrics();
    assert_eq!(rows.len(), 2);
    let busy_row = rows.iter().find(|r| r.name == "busy").unwrap();
    let idle_row = rows.iter().find(|r| r.name == "idle").unwrap();
    assert_eq!(busy_row.phases_retired, 10);
    assert_eq!(busy_row.events_committed, 10);
    assert_eq!(idle_row.phases_retired, 0);
    assert_eq!(idle_row.events_committed, 0);
    assert!(busy_row.engine.executions > 0);

    busy.close().unwrap();
    idle.close().unwrap();
}

/// Aggregate throughput of 8 tenants sharing a pool must stay within
/// 80% of a single tenant using the same pool size — the pooling tax
/// is bounded. Ignored by default (a timing measurement); the CI
/// sessions-stress job runs it in release mode.
#[test]
#[ignore = "timing-sensitive; run explicitly (CI sessions-stress job)"]
fn aggregate_throughput_stays_within_80_percent_of_single_tenant() {
    const EVENTS_TOTAL: u64 = 64_000;
    let threads = pool_threads();

    fn bench_builder() -> StreamRuntimeBuilder {
        tenant_builder()
            .epoch_policy(EpochPolicy::ByCount(16))
            .max_inflight(64)
            .record_history(false)
            .record_script(false)
    }

    let run = |tenants: usize| -> f64 {
        let pool = SessionPool::builder()
            .threads(threads)
            .max_sessions(tenants)
            .build();
        let sessions: Vec<_> = (0..tenants)
            .map(|i| pool.open(format!("t{i}"), bench_builder()).unwrap())
            .collect();
        // One producer, round-robin across tenants: the same ingestion
        // topology as the single-tenant baseline, so the measured gap
        // is the pooling tax (tagged dispatch, lane rotation, per-
        // tenant scheduler states) rather than producer-thread
        // oversubscription noise.
        let handles: Vec<_> = sessions
            .iter()
            .map(|s| s.handle_by_name("s1").unwrap())
            .collect();
        let start = Instant::now();
        for i in 0..EVENTS_TOTAL {
            handles[i as usize % tenants]
                .push((i % 100) as f64)
                .unwrap();
        }
        for s in &sessions {
            s.flush().unwrap();
            s.wait_idle().unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64();
        for s in sessions {
            s.close().unwrap();
        }
        EVENTS_TOTAL as f64 / elapsed
    };

    // Warmup, then measure.
    run(1);
    let single = run(1);
    let multi = run(8);
    eprintln!(
        "threads={threads}: single-tenant {single:.0} ev/s, 8 tenants {multi:.0} ev/s \
         ({:.1}%)",
        100.0 * multi / single
    );
    assert!(
        multi >= 0.8 * single,
        "8-tenant aggregate {multi:.0} ev/s below 80% of single-tenant {single:.0} ev/s"
    );
}
