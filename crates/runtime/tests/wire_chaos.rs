//! Chaos matrix for the wire plane: the engine's guarantees must
//! survive the network misbehaving.
//!
//! Every test routes `WireClient` through a seeded [`FaultNet`]
//! (latency, torn mid-frame resets, black-holes, duplicated delivery,
//! kill-at-Nth-op) against a real `WireServer` on loopback, and then
//! checks the two invariants end to end:
//!
//! 1. **acked ⇒ committed exactly once** — every `push_batch` the
//!    client saw acknowledged appears in the committed script exactly
//!    once, in per-source FIFO order, however many times the link
//!    died, duplicated, or replayed;
//! 2. **oracle equivalence** — the committed script replayed through
//!    the sequential oracle reproduces the live history.
//!
//! Plus the liveness and drain obligations: a wedged half-open
//! producer is reaped by deadline without stalling retirement, and a
//! draining server refuses new Hellos, flushes acked prefixes, and
//! says goodbye to subscribers.

use ec_core::ExecutionHistory;
use ec_events::Value;
use ec_fusion::operators::aggregate::Aggregate;
use ec_fusion::operators::moving::MovingAverage;
use ec_fusion::operators::threshold::Threshold;
use ec_runtime::serve::wire::{self, Frame, Role, WireError};
use ec_runtime::serve::{FaultNet, NetFault, NetFaultPlan, RetryPolicy, WireClient, WireServer};
use ec_runtime::{PhaseScript, SessionPool, StreamRuntime, StreamRuntimeBuilder};
use ec_store::splitmix64;
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The per-tenant graph, shared with `serve.rs`:
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

/// One tenant on loopback with knobs sized for chaos: quick pings so
/// liveness machinery actually runs, a short drain grace, and enough
/// idle headroom that an honest-but-slow client isn't reaped.
fn chaos_server(tenant: &str) -> WireServer {
    let pool = SessionPool::builder().threads(4).max_sessions(1).build();
    let sessions = vec![pool.open(tenant.to_string(), tenant_builder()).unwrap()];
    WireServer::builder()
        .ping_interval(Duration::from_millis(100))
        .idle_timeout(Duration::from_secs(5))
        .drain_grace(Duration::from_secs(2))
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap()
}

/// A retry policy that keeps going long past any seeded fault plan:
/// kills only poison connections already open, so a later dial always
/// lands — the client must simply outlast the plan.
fn stubborn(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        seed,
    }
}

/// The committed FIFO column of one source as `f64`s.
fn committed_column(script: &PhaseScript, source: usize) -> Vec<f64> {
    script
        .column(source)
        .filter_map(|cell| match cell {
            Some(Value::Float(f)) => Some(*f),
            Some(other) => panic!("unexpected committed value {other:?}"),
            None => None,
        })
        .collect()
}

fn assert_oracle_equivalent(name: &str, script: &PhaseScript, history: ExecutionHistory) {
    let oracle = oracle_history(script);
    assert_eq!(
        oracle.equivalent(&history),
        Ok(()),
        "{name}: chaos run diverged from its sequential oracle"
    );
}

/// Drives one producer through a seeded fault plan and checks both
/// invariants. Returns (acked per source, reconnects) for extra
/// assertions.
fn run_chaos_producer(seed: u64) {
    let server = chaos_server("solo");
    let addr = server.local_addr().to_string();
    let fault = FaultNet::new(NetFaultPlan::seeded(seed, 400));
    let mut client = WireClient::builder()
        .retry(stubborn(seed))
        .net(fault.handle())
        .op_deadline(Duration::from_millis(300))
        .connect(&addr, "solo", Role::Producer)
        .expect("producer connects through the fault plan");
    assert!(
        client.session().is_some(),
        "retrying producer has a session"
    );

    // Distinct values per (source, index) so exactly-once is a simple
    // sequence comparison on the committed columns.
    let mut acked: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rng = seed ^ 0xD1CE;
    for i in 0..30u64 {
        let source = (splitmix64(&mut rng) % 2) as u32;
        let n = 1 + (splitmix64(&mut rng) % 4) as usize;
        let values: Vec<Value> = (0..n)
            .map(|j| Value::Float((source as f64) * 1_000_000.0 + (i * 10 + j as u64) as f64))
            .collect();
        let accepted = client
            .push_batch(source, &values)
            .expect("push survives the fault plan");
        assert_eq!(accepted as usize, values.len(), "acked batch is whole");
        acked[source as usize].extend(values.iter().map(|v| match v {
            Value::Float(f) => *f,
            _ => unreachable!(),
        }));
        if splitmix64(&mut rng).is_multiple_of(5) {
            client.seal().expect("seal survives the fault plan");
        }
    }
    client.seal().expect("final seal");
    let reconnects = client.reconnects();
    drop(client);

    let stats = server.stats();
    let mut reports = server.shutdown();
    let (name, report) = reports.remove(0);
    let report = report.expect("tenant closes cleanly");
    for (source, acked_column) in acked.iter().enumerate() {
        assert_eq!(
            &committed_column(&report.script, source),
            acked_column,
            "{name} seed {seed}: source {source} committed column must equal \
             the acked FIFO sequence exactly once (reconnects={reconnects}, \
             dedup_hits={}, ops={})",
            stats.dedup_hits,
            fault.ops(),
        );
    }
    assert_oracle_equivalent(
        &name,
        &report.script,
        report.history.expect("history recorded"),
    );
}

proptest! {
    // Each case stands up a real server + pool; keep the count modest
    // and let CI's release-mode job widen it via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded fault plans — resets, black-holes, duplicate delivery,
    /// latency, kill-at-Nth — never break exactly-once or oracle
    /// equivalence for a resumable producer.
    #[test]
    fn seeded_chaos_acked_commits_exactly_once(seed in 0u64..1_000_000) {
        run_chaos_producer(seed);
    }
}

/// Duplicated delivery specifically: every producer frame is written
/// twice for a stretch of the connection. The session window must
/// absorb the duplicates (re-ack, never re-apply) and the server must
/// count the dedup hits.
#[test]
fn duplicated_delivery_is_deduped() {
    let server = chaos_server("dup");
    let addr = server.local_addr().to_string();
    let mut plan = NetFaultPlan::new();
    for op in 2..40 {
        plan = plan.fail_at(op, NetFault::Duplicate);
    }
    let fault = FaultNet::new(plan);
    let mut client = WireClient::builder()
        .retry(stubborn(7))
        .net(fault.handle())
        .op_deadline(Duration::from_millis(300))
        .connect(&addr, "dup", Role::Producer)
        .unwrap();
    let mut acked = Vec::new();
    for i in 0..10 {
        let v = Value::Float(i as f64 + 0.5);
        assert_eq!(client.push_batch(0, std::slice::from_ref(&v)).unwrap(), 1);
        acked.push(i as f64 + 0.5);
    }
    client.seal().unwrap();
    drop(client);

    let stats = server.stats();
    assert!(
        stats.dedup_hits > 0,
        "duplicated frames must be re-acked from the session window \
         (dedup_hits={}, ops={})",
        stats.dedup_hits,
        fault.ops()
    );
    let (_, report) = server.shutdown().remove(0);
    let report = report.unwrap();
    assert_eq!(
        committed_column(&report.script, 0),
        acked,
        "duplicated delivery must commit exactly once"
    );
}

/// A reconnect storm: N producers on one source, each killed and
/// resumed at random points. The committed script must equal the
/// per-producer FIFO interleaving — zero duplicates, zero losses —
/// and the server must have seen real session resumes.
#[test]
fn reconnect_storm_one_source_commits_fifo_per_producer() {
    const PRODUCERS: u64 = 4;
    const BATCHES: u64 = 20;
    let server = chaos_server("storm");
    let addr = server.local_addr().to_string();

    let mut workers = Vec::new();
    for p in 0..PRODUCERS {
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || {
            // Every producer gets its own fault plan with a guaranteed
            // mid-run kill, so each one is forced through at least one
            // resume.
            let mut rng = 0xBAD_5EED ^ p;
            let kill = 6 + splitmix64(&mut rng) % 60;
            let plan = NetFaultPlan::seeded(p.wrapping_mul(977) + 13, 200).kill_at(kill);
            let fault = FaultNet::new(plan);
            let mut client = WireClient::builder()
                .retry(stubborn(p))
                .net(fault.handle())
                .op_deadline(Duration::from_millis(300))
                .connect(&addr, "storm", Role::Producer)
                .expect("storm producer connects");
            for k in 0..BATCHES {
                let v = Value::Float((p * 100_000 + k) as f64);
                let accepted = client
                    .push_batch(0, &[v])
                    .expect("storm push survives kills");
                assert_eq!(accepted, 1);
                if k % 7 == 3 {
                    client.seal().expect("storm seal survives kills");
                }
            }
            client.reconnects()
        }));
    }
    let reconnects: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();

    // Flush whatever the last producer left buffered.
    let mut sealer = WireClient::connect(&addr, "", "storm", Role::Producer).unwrap();
    sealer.seal().unwrap();
    drop(sealer);

    let stats = server.stats();
    let (_, report) = server.shutdown().remove(0);
    let report = report.unwrap();
    let committed = committed_column(&report.script, 0);
    assert_eq!(
        committed.len() as u64,
        PRODUCERS * BATCHES,
        "every acked push commits exactly once (reconnects={reconnects}, \
         server reconnects={}, dedup_hits={})",
        stats.reconnects,
        stats.dedup_hits
    );
    // Per-producer FIFO: each producer's values appear in its own push
    // order; and globally there are no duplicates.
    for p in 0..PRODUCERS {
        let mine: Vec<u64> = committed
            .iter()
            .map(|f| *f as u64)
            .filter(|v| v / 100_000 == p)
            .map(|v| v % 100_000)
            .collect();
        let want: Vec<u64> = (0..BATCHES).collect();
        assert_eq!(mine, want, "producer {p} column is not FIFO/complete");
    }
    assert!(
        stats.reconnects > 0,
        "kills must force at least one session resume"
    );
    assert_oracle_equivalent(
        "storm",
        &report.script,
        report.history.expect("history recorded"),
    );
}

/// A half-open producer — handshake completed, then silence — is
/// pinged, then reaped by the idle deadline, while a live producer on
/// the same tenant keeps committing the whole time: a wedged peer
/// cannot stall retirement.
#[test]
fn half_open_producer_is_reaped_without_stalling_retirement() {
    let pool = SessionPool::builder().threads(4).max_sessions(1).build();
    let sessions = vec![pool.open("reap".to_string(), tenant_builder()).unwrap()];
    let server = WireServer::builder()
        .ping_interval(Duration::from_millis(50))
        .idle_timeout(Duration::from_millis(200))
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr();

    // The wedged peer: says hello, then never another byte.
    let mut wedged = TcpStream::connect(addr).unwrap();
    wire::write_preamble(&mut wedged).unwrap();
    wire::write_frame(
        &mut wedged,
        &Frame::Hello {
            token: String::new(),
            tenant: "reap".into(),
            role: Role::Producer,
        },
    )
    .unwrap();
    wedged.flush().unwrap();

    // The honest producer keeps working while the wedged one decays.
    let mut live = WireClient::connect(addr, "", "reap", Role::Producer).unwrap();
    let mut acked = Vec::new();
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(700) {
        let v = Value::Float(acked.len() as f64);
        assert_eq!(live.push_batch(0, std::slice::from_ref(&v)).unwrap(), 1);
        acked.push(acked.len() as f64);
        live.seal().unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }
    let stats = server.stats();
    assert!(
        stats.reaped >= 1,
        "half-open producer must be reaped by the idle deadline (stats: {stats:?})"
    );
    assert!(
        stats.pings >= 1,
        "the server must have probed the silent peer before reaping it"
    );
    drop(live);
    let (_, report) = server.shutdown().remove(0);
    let report = report.unwrap();
    assert_eq!(
        committed_column(&report.script, 0),
        acked,
        "the live producer's pushes all committed while the wedge decayed"
    );
}

/// `drain()` refuses new Hellos with an explicit reason, flushes the
/// acked prefix without any client seal, and closes subscribers with
/// a Goodbye once the alarm stream is complete.
#[test]
fn drain_refuses_hellos_flushes_acked_prefix_and_says_goodbye() {
    let server = chaos_server("drain");
    let addr = server.local_addr().to_string();

    // Acked-but-unsealed pushes: drain itself must flush these.
    let mut producer = WireClient::connect(&addr, "", "drain", Role::Producer).unwrap();
    // Alternating values flip the avg(3) across the threshold every
    // phase; the edge-triggered alarm therefore emits once per phase,
    // so the subscriber's count pins the whole flushed prefix.
    let values: Vec<f64> = (0..8)
        .map(|i| if i % 2 == 0 { 20.0 } else { 0.0 })
        .collect();
    for v in &values {
        assert_eq!(producer.push_batch(0, &[Value::Float(*v)]).unwrap(), 1);
    }

    // A subscriber that drains until the server says goodbye.
    let mut sub = WireClient::connect(&addr, "", "drain", Role::Subscriber).unwrap();
    sub.subscribe().unwrap();
    let collector = std::thread::spawn(move || {
        let mut alarms = Vec::new();
        loop {
            match sub.next_alarms() {
                Ok(batch) => alarms.extend(batch),
                Err(WireError::Closed(reason)) => return (alarms, reason),
                Err(e) => panic!("subscriber died without a goodbye: {e}"),
            }
        }
    });

    // A wedged producer mid-frame keeps the drain window open long
    // enough to observe the refusal deterministically: drain won't
    // interrupt a frame in flight, so it waits out the grace period.
    let mut wedged = TcpStream::connect(&addr).unwrap();
    wire::write_preamble(&mut wedged).unwrap();
    wire::write_frame(
        &mut wedged,
        &Frame::Hello {
            token: String::new(),
            tenant: "drain".into(),
            role: Role::Producer,
        },
    )
    .unwrap();
    let mut partial = Vec::new();
    wire::write_frame(
        &mut partial,
        &Frame::PushBatch {
            seq: 0,
            source: 0,
            bins: vec![Some(Value::Float(99.0))],
        },
    )
    .unwrap();
    wedged.write_all(&partial[..partial.len() / 2]).unwrap();
    wedged.flush().unwrap();
    // Let the server accept the wedge and read the torn prefix before
    // draining starts.
    std::thread::sleep(Duration::from_millis(100));

    let drainer = std::thread::spawn(move || server.drain());

    // New Hellos are refused while draining.
    let refusal = loop {
        match WireClient::connect(&addr, "", "drain", Role::Producer) {
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => break e,
        }
    };
    match refusal {
        WireError::Refused(reason) => {
            assert!(
                reason.contains("draining"),
                "refusal must name the drain: {reason}"
            )
        }
        // The drain can complete between attempts; a dead listener is
        // an acceptable (if less precise) outcome on a slow machine.
        WireError::Io(_) | WireError::Closed(_) => {}
        other => panic!("unexpected refusal: {other}"),
    }

    // The idle producer is told goodbye; its next op fails cleanly.
    // Probes that race the drain flag and still get acked are held to
    // the same contract: acked ⇒ committed, even mid-drain.
    let mut acked_probes = 0usize;
    let err = loop {
        match producer.push_batch(0, &[Value::Float(0.0)]) {
            Ok(_) => {
                acked_probes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => break e,
        }
    };
    assert!(
        matches!(
            &err,
            WireError::Closed(_) | WireError::Io(_) | WireError::Refused(_)
        ),
        "drained producer fails with a typed close: {err}"
    );
    drop(producer);

    let (alarms, reason) = collector.join().unwrap();
    assert!(
        reason.contains("complete"),
        "subscriber goodbye explains the drain: {reason}"
    );
    // avg(3) of 20,0,20,… sits at 20, 10, 13.3, 6.7, … — above, then
    // not-above, alternating: the threshold state flips every phase,
    // so one alarm per flushed phase.
    assert_eq!(
        alarms.len(),
        values.len(),
        "subscriber saw the flushed prefix"
    );

    let mut reports = drainer.join().unwrap();
    let (_, report) = reports.remove(0);
    let report = report.expect("drained tenant closes cleanly");
    // The acked probes commit as trailing 0.0 phases; their avg stays
    // below the threshold, so they add no alarms.
    let mut want = values.clone();
    want.extend(std::iter::repeat_n(0.0, acked_probes));
    assert_eq!(
        committed_column(&report.script, 0),
        want,
        "drain must flush the acked-but-unsealed prefix"
    );
}

/// Clean closes (client Goodbye) and crashes (abrupt RST/EOF) land in
/// different counters, so operators can tell deploys from failures.
#[test]
fn disconnect_counters_distinguish_clean_from_crash() {
    let server = chaos_server("counts");
    let addr = server.local_addr().to_string();

    // Clean: a real client's Drop says goodbye.
    let clean = WireClient::connect(&addr, "", "counts", Role::Producer).unwrap();
    drop(clean);

    // Crash: a raw socket that completes the handshake then vanishes.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        wire::write_preamble(&mut raw).unwrap();
        wire::write_frame(
            &mut raw,
            &Frame::Hello {
                token: String::new(),
                tenant: "counts".into(),
                role: Role::Producer,
            },
        )
        .unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
    } // dropped without goodbye

    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let stats = server.stats();
        if stats.clean_closes >= 1 && stats.crash_closes >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "counters never settled: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
