//! Wire-path tests for the `ec serve` TCP front end.
//!
//! The bar: traffic arriving over real sockets changes nothing about
//! the engine's guarantees. N remote producers pushing interleaved
//! batches to M tenants commit the exact same `PhaseScript` as the
//! in-process path, and the committed script replayed through the
//! sequential oracle reproduces the live history; a producer that
//! disconnects mid-epoch commits a clean FIFO prefix of its
//! acknowledged pushes; a full source surfaces as explicit
//! `FlowControl` frames and resumes; a slow subscriber is disconnected
//! rather than allowed to wedge retirement; and a killed server
//! restarts over its durable stores with every tenant at its exact
//! next phase.

use ec_core::ExecutionHistory;
use ec_events::Value;
use ec_fusion::operators::aggregate::Aggregate;
use ec_fusion::operators::moving::MovingAverage;
use ec_fusion::operators::threshold::Threshold;
use ec_runtime::serve::wire::{self, Frame, Role, WireAlarm, WireError};
use ec_runtime::serve::{FaultNet, NetFaultPlan, NetIo, WireClient, WireServer};
use ec_runtime::{Backpressure, PhaseScript, SessionPool, StreamRuntime, StreamRuntimeBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("ec-runtime-serve-{}-{tag}-{n}", std::process::id()));
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

fn serve(tenants: &[&str], build: impl Fn() -> StreamRuntimeBuilder) -> WireServer {
    let pool = SessionPool::builder()
        .threads(4)
        .max_sessions(tenants.len())
        .build();
    let sessions = tenants
        .iter()
        .map(|name| pool.open(name.to_string(), build()).unwrap())
        .collect();
    WireServer::builder()
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap()
}

/// Polls `cond` until it holds; panics with `what` after 5 s. For
/// server-side counters that settle a few instructions after the
/// socket event the test just observed.
fn settle(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "never settled: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A hand-rolled subscriber connection: handshake and `SubscribeAlarms`
/// done, then the test owns every byte — so it can go silent, say
/// goodbye, or ping at a moment of its choosing.
fn raw_subscriber(addr: std::net::SocketAddr, tenant: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::write_preamble(&mut stream).unwrap();
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            token: String::new(),
            tenant: tenant.into(),
            role: Role::Subscriber,
        },
    )
    .unwrap();
    wire::read_preamble(&mut stream).unwrap();
    assert!(matches!(
        wire::read_frame(&mut stream).unwrap(),
        Frame::HelloOk { .. }
    ));
    wire::write_frame(&mut stream, &Frame::SubscribeAlarms).unwrap();
    assert_eq!(wire::read_frame(&mut stream).unwrap(), Frame::SubscribeOk);
    stream
}

/// A server whose liveness timers are far beyond any test's patience:
/// whatever happens promptly on it was not driven by a timer.
fn serve_without_timers(tenant: &str, net: Option<Arc<dyn NetIo>>) -> WireServer {
    let pool = SessionPool::builder().threads(2).max_sessions(1).build();
    let sessions = vec![pool.open(tenant.to_string(), tenant_builder()).unwrap()];
    let mut builder = WireServer::builder()
        .ping_interval(Duration::from_secs(30))
        .idle_timeout(Duration::from_secs(90));
    if let Some(net) = net {
        builder = builder.net(net);
    }
    builder.bind("127.0.0.1:0", pool, sessions).unwrap()
}

/// N remote producers over real TCP, pushing interleaved batches into
/// M tenants, commit exactly what the sequential oracle of the
/// committed script would — serializability survives the socket.
/// A wire subscriber sees the same emissions, in the same serial
/// order, as an in-process subscription on the same tenant.
#[test]
fn remote_producers_match_the_sequential_oracle() {
    let server = serve(&["alpha", "beta"], tenant_builder);
    let addr = server.local_addr().to_string();

    // In-process view of alpha's emissions, for the subscriber check.
    let inproc: Arc<Mutex<Vec<(u64, Value)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&inproc);
        server
            .tenant("alpha")
            .expect("alpha served")
            .subscribe(move |e| seen.lock().unwrap().push((e.phase, e.value.clone())));
    }
    let mut wire_sub = WireClient::connect(&addr, "", "alpha", Role::Subscriber).unwrap();
    wire_sub.subscribe().unwrap();

    // Two producers per tenant, each interleaving both sources with
    // occasional seals; batch sizes vary so wire batching is exercised.
    let mut workers = Vec::new();
    for (t, tenant) in ["alpha", "beta"].into_iter().enumerate() {
        for p in 0..2 {
            let addr = addr.clone();
            workers.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64((t * 2 + p) as u64 + 7);
                let mut client = WireClient::connect(&addr, "", tenant, Role::Producer).unwrap();
                assert_eq!(client.sources(), ["s1", "s2"]);
                for _ in 0..30 {
                    let source = rng.gen_range(0u32..2);
                    let batch: Vec<Value> = (0..rng.gen_range(1usize..6))
                        .map(|_| Value::Float(rng.gen_range(-20i64..30) as f64))
                        .collect();
                    let accepted = client.push_batch(source, &batch).unwrap();
                    assert_eq!(accepted as usize, batch.len());
                    if rng.gen_range(0u32..4) == 0 {
                        client.seal().unwrap();
                    }
                }
                client.seal().unwrap();
            }));
        }
    }
    for w in workers {
        w.join().unwrap();
    }

    // Drain the wire subscriber until it has everything the in-process
    // subscription saw (both feed from the same serial delivery loop,
    // which runs on its own thread behind retirement).
    let want = {
        let alpha = server.tenant("alpha").unwrap();
        alpha.wait_idle().unwrap();
        alpha.wait_delivered();
        inproc.lock().unwrap().clone()
    };
    let mut got: Vec<(u64, Value)> = Vec::new();
    while got.len() < want.len() {
        let alarms = wire_sub.next_alarms().expect("alarm stream live");
        for a in alarms {
            assert_eq!(&*a.sink, "alarm");
            got.push((a.phase, a.value));
        }
    }
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.0, w.0, "wire subscriber diverged from serial order");
        assert!(g.1.same_as(&w.1), "phase {}: {:?} vs {:?}", g.0, g.1, w.1);
    }
    let increasing = got.windows(2).all(|p| p[0].0 < p[1].0);
    assert!(increasing, "alarm phases must arrive in serial order");

    drop(wire_sub);
    for (name, report) in server.shutdown() {
        let report = report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
        assert!(report.phases > 0, "{name} committed no phases");
        let oracle = oracle_history(&report.script);
        let live = report.history.expect("history recorded");
        assert_eq!(
            oracle.equivalent(&live),
            Ok(()),
            "{name}: wire-fed run diverged from its sequential oracle"
        );
    }
}

/// A producer that dies mid-epoch — torn frame, then a corrupt frame
/// on a second connection — commits exactly the FIFO prefix it was
/// acked for. Nothing from an unacknowledged or undecodable frame
/// reaches a buffer.
#[test]
fn disconnected_producer_commits_acked_fifo_prefix() {
    let server = serve(&["solo"], tenant_builder);
    let addr = server.local_addr();

    // Hand-rolled connection so the frame boundary can be torn.
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    let mut r = BufReader::new(stream);
    wire::write_preamble(&mut w).unwrap();
    w.flush().unwrap();
    wire::write_frame(
        &mut w,
        &Frame::Hello {
            token: String::new(),
            tenant: "solo".into(),
            role: Role::Producer,
        },
    )
    .unwrap();
    wire::read_preamble(&mut r).unwrap();
    assert!(matches!(
        wire::read_frame(&mut r).unwrap(),
        Frame::HelloOk { .. }
    ));

    let acked = [vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]];
    for (seq, batch) in acked.iter().enumerate() {
        let bins = batch.iter().map(|&v| Some(Value::Float(v))).collect();
        wire::write_frame(
            &mut w,
            &Frame::PushBatch {
                seq: seq as u64,
                source: 0,
                bins,
            },
        )
        .unwrap();
        match wire::read_frame(&mut r).unwrap() {
            Frame::PushAck { seq: got, accepted } => {
                assert_eq!(got, seq as u64);
                assert_eq!(accepted as usize, batch.len());
            }
            other => panic!("expected PushAck, got {other:?}"),
        }
    }

    // Tear the next frame in half: length prefix plus a partial
    // payload, then hang up. The server must discard it whole.
    let torn = wire::encode(&Frame::PushBatch {
        seq: 3,
        source: 0,
        bins: vec![Some(Value::Float(6.0)), Some(Value::Float(7.0))],
    });
    w.write_all(&(torn.len() as u32).to_le_bytes()).unwrap();
    w.write_all(&torn[..torn.len() / 2]).unwrap();
    w.flush().unwrap();
    drop(w);
    drop(r);

    // Second kind of death: a fully-delivered frame with a flipped
    // payload bit. The CRC catches it; the server answers with a typed
    // Abort (the stream is untrusted, but nothing was refused — a
    // resumable session may redial) and drops the connection,
    // committing nothing from it.
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    let mut r = BufReader::new(stream);
    wire::write_preamble(&mut w).unwrap();
    w.flush().unwrap();
    wire::write_frame(
        &mut w,
        &Frame::Hello {
            token: String::new(),
            tenant: "solo".into(),
            role: Role::Producer,
        },
    )
    .unwrap();
    wire::read_preamble(&mut r).unwrap();
    assert!(matches!(
        wire::read_frame(&mut r).unwrap(),
        Frame::HelloOk { .. }
    ));
    let payload = wire::encode(&Frame::PushBatch {
        seq: 0,
        source: 0,
        bins: vec![Some(Value::Float(8.0))],
    });
    let crc = ec_store::crc32(&payload);
    let mut corrupt = payload;
    *corrupt.last_mut().unwrap() ^= 0x40;
    w.write_all(&(corrupt.len() as u32).to_le_bytes()).unwrap();
    w.write_all(&corrupt).unwrap();
    w.write_all(&crc.to_le_bytes()).unwrap();
    w.flush().unwrap();
    match wire::read_frame(&mut r).unwrap() {
        Frame::Abort { reason } => assert!(reason.contains("crc"), "{reason}"),
        other => panic!("expected Abort for a corrupt frame, got {other:?}"),
    }
    drop(w);
    drop(r);

    // Seal from a healthy client and inspect the commit.
    let mut sealer = WireClient::connect(addr, "", "solo", Role::Producer).unwrap();
    sealer.seal().unwrap();
    let mut reports = server.shutdown();
    let (_, report) = reports.remove(0);
    let report = report.expect("solo closes cleanly");
    let want: Vec<f64> = acked.iter().flatten().copied().collect();
    let got: Vec<f64> = report
        .script
        .column(0)
        .flatten()
        .map(|v| match v {
            Value::Float(f) => *f,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    assert_eq!(
        got, want,
        "committed column must be exactly the acked FIFO prefix"
    );
    let oracle = oracle_history(&report.script);
    assert_eq!(oracle.equivalent(&report.history.unwrap()), Ok(()));
}

/// A full source under `Backpressure::Reject` surfaces as an explicit
/// `FlowControl(Block)` frame — not a TCP stall — and the push resumes
/// (with `Open`) once a seal drains the buffer. No acknowledged event
/// is lost across the episode.
#[test]
fn full_source_emits_flow_control_and_resumes() {
    let server = serve(&["tight"], || {
        tenant_builder()
            .backpressure(Backpressure::Reject)
            .ingest_capacity(4)
    });
    let addr = server.local_addr().to_string();

    // One big batch: far beyond capacity, so the handler must block
    // and wait for seals from the second connection.
    let pusher = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = WireClient::connect(&addr, "", "tight", Role::Producer).unwrap();
            let batch: Vec<Value> = (0..64).map(|i| Value::Float(i as f64)).collect();
            let accepted = client.push_batch(0, &batch).unwrap();
            (accepted, client.blocks_seen())
        })
    };
    let mut sealer = WireClient::connect(&addr, "", "tight", Role::Producer).unwrap();
    let mut phases = 0u64;
    while !pusher.is_finished() {
        phases += sealer.seal().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let (accepted, blocks_seen) = pusher.join().unwrap();
    assert_eq!(accepted, 64, "every event lands despite backpressure");
    assert!(
        blocks_seen >= 1,
        "a full source must surface at least one FlowControl(Block)"
    );
    assert!(phases > 0);
    assert!(server.stats().flow_blocks >= 1);

    sealer.seal().unwrap();
    let mut reports = server.shutdown();
    let report = reports.remove(0).1.expect("tight closes cleanly");
    assert_eq!(report.script.column(0).flatten().count(), 64);
    let oracle = oracle_history(&report.script);
    assert_eq!(oracle.equivalent(&report.history.unwrap()), Ok(()));
}

/// A subscriber too slow to drain its bounded buffer is disconnected —
/// with a diagnostic — while retirement keeps going at full speed for
/// everyone else: a healthy subscriber on the same tenant, fed from
/// the same shared batches, receives every alarm.
#[test]
fn slow_subscriber_is_disconnected_not_obeyed() {
    // A fat sink name makes each alarm frame heavy, so an unread
    // subscriber connection exhausts the socket buffers quickly and
    // the server-side writer actually blocks (the precondition for the
    // hub slot overflowing).
    // Sized so the ~1000 alarms total well beyond what the kernel will
    // buffer for an unread connection (tcp_wmem max 4 MiB + a ~128 KiB
    // unread receive window), while a full 32-alarm frame stays under
    // MAX_FRAME.
    let fat_sink = format!("alarm-{}", "x".repeat(16 * 1024));
    let server = {
        let pool = SessionPool::builder().threads(4).max_sessions(1).build();
        let fat = fat_sink.clone();
        let builder = {
            // A moving average broadcasts every phase (a threshold
            // would only emit on crossings) — this sink is a firehose.
            let mut b = StreamRuntime::builder();
            let s1 = b.live_source("s1");
            b.add(&fat, MovingAverage::new(3), &[s1]);
            b.record_history(false).record_script(false)
        };
        let sessions = vec![pool.open("noisy", builder).unwrap()];
        WireServer::builder()
            .subscriber_buffer(32)
            .bind("127.0.0.1:0", pool, sessions)
            .unwrap()
    };
    let addr = server.local_addr().to_string();

    let mut lazy = WireClient::connect(&addr, "", "noisy", Role::Subscriber).unwrap();
    lazy.subscribe().unwrap();
    // ... and then it reads nothing at all while the firehose runs.

    // Its neighbour reads as fast as alarms come.
    let healthy_seen = Arc::new(AtomicUsize::new(0));
    let healthy = {
        let mut sub = WireClient::connect(&addr, "", "noisy", Role::Subscriber).unwrap();
        sub.subscribe().unwrap();
        let seen = Arc::clone(&healthy_seen);
        std::thread::spawn(move || {
            let mut phases = Vec::new();
            while phases.len() < 1000 {
                let alarms = sub
                    .next_alarms()
                    .expect("the healthy subscriber stays connected");
                phases.extend(alarms.iter().map(|a| a.phase));
                seen.store(phases.len(), Ordering::Release);
            }
            phases
        })
    };

    let mut producer = WireClient::connect(&addr, "", "noisy", Role::Producer).unwrap();
    let mut pushed = 0usize;
    for round in 0..125 {
        let batch: Vec<Value> = (0..8)
            .map(|i| Value::Float((round * 8 + i) as f64))
            .collect();
        pushed += producer.push_batch(0, &batch).unwrap() as usize;
        producer.seal().unwrap();
        // Closed loop on the healthy reader, so its slot never holds
        // more than one round and only the lazy one can overflow.
        settle("healthy subscriber keeps up", || {
            healthy_seen.load(Ordering::Acquire) >= pushed
        });
    }
    assert_eq!(pushed, 1000, "retirement never wedged on the slow reader");
    assert_eq!(
        healthy.join().unwrap(),
        (1..=1000).collect::<Vec<u64>>(),
        "the healthy subscriber saw every alarm, in order"
    );

    // Now the lazy reader finally drains: it gets some alarms, then the
    // server's verdict. (The disconnect may also surface as a raw EOF
    // if the Error frame raced the socket close.)
    let verdict = loop {
        match lazy.next_alarms() {
            Ok(alarms) => {
                for a in &alarms {
                    assert_eq!(*a.sink, *fat_sink);
                }
            }
            Err(e) => break e,
        }
    };
    match verdict {
        wire::WireError::Refused(reason) => {
            assert!(reason.contains("too slow"), "{reason}")
        }
        other => assert!(other.is_disconnect(), "unexpected error: {other}"),
    }

    // A fresh subscriber still gets served after the episode.
    let mut fresh = WireClient::connect(&addr, "", "noisy", Role::Subscriber).unwrap();
    fresh.subscribe().unwrap();
    producer.push_batch(0, &[Value::Float(999.0)]).unwrap();
    producer.seal().unwrap();
    let alarms = fresh.next_alarms().unwrap();
    assert!(!alarms.is_empty());

    drop(fresh);
    for (name, report) in server.shutdown() {
        report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
    }
}

/// Kill the server process-style (drop, no shutdown), rebind over the
/// same durable root: every tenant restores at its exact next phase
/// and keeps serving wire traffic.
#[test]
fn killed_server_restarts_over_durable_stores() {
    let root = test_dir("restart");
    let open_pool = || {
        SessionPool::builder()
            .threads(4)
            .max_sessions(2)
            .durable_root(&root)
            .build()
    };
    let open_sessions = |pool: &SessionPool| {
        ["alpha", "beta"]
            .iter()
            .map(|name| {
                pool.open(name.to_string(), tenant_builder().snapshot_every(4))
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };

    // First incarnation: acked wire traffic, then a crash.
    let mut committed = Vec::new();
    {
        let pool = open_pool();
        let sessions = open_sessions(&pool);
        let server = WireServer::builder()
            .bind("127.0.0.1:0", pool, sessions)
            .unwrap();
        let addr = server.local_addr().to_string();
        for (i, tenant) in ["alpha", "beta"].into_iter().enumerate() {
            let mut client = WireClient::connect(&addr, "", tenant, Role::Producer).unwrap();
            let batch: Vec<Value> = (0..6 + i).map(|k| Value::Float((k * 3) as f64)).collect();
            client.push_batch(0, &batch).unwrap();
            client.push_batch(1, &batch).unwrap();
            client.seal().unwrap();
        }
        for tenant in ["alpha", "beta"] {
            let t = server.tenant(tenant).unwrap();
            t.wait_idle().unwrap();
            committed.push(t.admitted());
        }
        drop(server); // simulated crash: no clean close, sessions dropped
    }

    // Second incarnation: same root, same names — every tenant resumes
    // at its exact committed phase and accepts new wire pushes.
    let pool = open_pool();
    let sessions = open_sessions(&pool);
    for (s, want) in sessions.iter().zip(&committed) {
        assert_eq!(
            s.admitted(),
            *want,
            "{} must resume at its committed phase",
            s.name()
        );
    }
    let server = WireServer::builder()
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr().to_string();
    for tenant in ["alpha", "beta"] {
        let mut client = WireClient::connect(&addr, "", tenant, Role::Producer).unwrap();
        client.push_batch(0, &[Value::Float(100.0)]).unwrap();
        let phases = client.seal().unwrap();
        assert!(phases > 0);
    }
    for (i, (name, report)) in server.shutdown().into_iter().enumerate() {
        let report = report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
        assert!(
            report.script.phases() > committed[i],
            "{name}: restored script spans the crash"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The served `/metrics` page carries the pool's tenant rows plus the
/// wire transport's own series, and `/healthz` aggregates a verdict —
/// the surface `ec doctor` reads.
#[test]
fn metrics_endpoint_serves_wire_series_and_health() {
    let pool = SessionPool::builder().threads(2).max_sessions(1).build();
    let sessions = vec![pool.open("obs".to_string(), tenant_builder()).unwrap()];
    let server = WireServer::builder()
        .metrics_addr("127.0.0.1:0")
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr().to_string();
    let metrics = server.metrics_addr().expect("metrics bound").to_string();

    let mut sub = WireClient::connect(&addr, "", "obs", Role::Subscriber).unwrap();
    sub.subscribe().unwrap();
    let mut client = WireClient::connect(&addr, "", "obs", Role::Producer).unwrap();
    client
        .push_batch(0, &[Value::Float(100.0), Value::Float(2.0)])
        .unwrap();
    client.seal().unwrap();
    // The first phase crosses the threshold; once its alarm has been
    // read, its hop and batch-size samples are recorded.
    assert!(!sub.next_alarms().unwrap().is_empty());
    settle("alarm frame accounted", || server.stats().alarms_out >= 1);

    let page = ec_obs::http_get(&metrics, "/metrics").unwrap();
    ec_obs::validate_exposition(&page).unwrap();
    for series in [
        "ec_wire_connections_total",
        "ec_wire_frames_total",
        "ec_wire_events_total",
        "ec_wire_alarm_hop_seconds{quantile=\"0.5\"}",
        "ec_wire_alarm_hop_seconds_count 1",
        "ec_wire_alarm_batch_size{quantile=\"0.5\"}",
        "ec_wire_alarm_batch_size_sum 1",
        "ec_session_events_per_sec",
    ] {
        assert!(page.contains(series), "missing {series} in:\n{page}");
    }
    drop(sub);
    let health = ec_obs::http_get(&metrics, "/healthz").unwrap();
    assert!(health.contains("\"verdict\""), "{health}");
    assert!(health.contains("\"obs\""), "{health}");

    // The wire-level metrics frame answers with the same tenant row.
    let row = client.metrics_json().unwrap();
    assert!(row.contains("\"name\":\"obs\""), "{row}");

    // A wire Shutdown frame flips stop_requested — the signal `ec
    // serve` polls to exit cleanly.
    client.shutdown_server().unwrap();
    assert!(server.stop_requested());
    for (name, report) in server.shutdown() {
        report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
    }
}

/// Hellos with a bad token or an unknown tenant are refused with a
/// diagnostic; the refusal counter ticks.
#[test]
fn bad_hellos_are_refused() {
    let pool = SessionPool::builder().threads(2).max_sessions(1).build();
    let sessions = vec![pool.open("guarded".to_string(), tenant_builder()).unwrap()];
    let server = WireServer::builder()
        .token("sesame")
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr().to_string();

    let Err(err) = WireClient::connect(&addr, "wrong", "guarded", Role::Producer) else {
        panic!("a wrong token must be refused");
    };
    match err {
        wire::WireError::Refused(reason) => assert!(reason.contains("token"), "{reason}"),
        other => panic!("expected a refusal, got {other}"),
    }
    let Err(err) = WireClient::connect(&addr, "sesame", "nosuch", Role::Producer) else {
        panic!("an unknown tenant must be refused");
    };
    match err {
        wire::WireError::Refused(reason) => {
            assert!(reason.contains("unknown tenant"), "{reason}")
        }
        other => panic!("expected a refusal, got {other}"),
    }
    let ok = WireClient::connect(&addr, "sesame", "guarded", Role::Producer);
    assert!(ok.is_ok(), "the right token must still work");
    assert_eq!(server.stats().refused, 2);
    for (name, report) in server.shutdown() {
        report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
    }
}

/// A subscriber that leaves while the stream is idle — with a
/// `Goodbye`, or by just hanging up — frees its hub slot at once: the
/// reader half is blocked on the socket, not waiting out a ping
/// interval, and its exit wakes the writer half through the hub.
#[test]
fn idle_subscriber_departure_frees_its_slot_promptly() {
    let server = serve_without_timers("idle", None);
    let addr = server.local_addr();

    let mut polite = raw_subscriber(addr, "idle");
    let rude = raw_subscriber(addr, "idle");
    assert_eq!(server.stats().subscribers_open, 2);

    wire::write_frame(
        &mut polite,
        &Frame::Goodbye {
            reason: "done".into(),
        },
    )
    .unwrap();
    settle("goodbye frees the slot", || {
        let s = server.stats();
        s.subscribers_open == 1 && s.clean_closes == 1
    });
    // The server hung up in turn.
    assert!(wire::read_frame(&mut polite).unwrap_err().is_disconnect());

    drop(rude);
    settle("a vanished peer frees the slot", || {
        let s = server.stats();
        s.subscribers_open == 0 && s.crash_closes == 1
    });
    // One disconnect each, however many threads noticed it.
    let stats = server.stats();
    assert_eq!((stats.clean_closes, stats.crash_closes), (1, 1));
    assert_eq!(stats.pings, 0, "no timer fired: {stats:?}");
    server.shutdown();
}

/// A half-open subscriber — subscribed, then silent: no pongs, no
/// reads — is pinged and then reaped at the idle deadline.
#[test]
fn half_open_subscriber_is_reaped_at_the_idle_deadline() {
    let pool = SessionPool::builder().threads(2).max_sessions(1).build();
    let sessions = vec![pool.open("reap".to_string(), tenant_builder()).unwrap()];
    let server = WireServer::builder()
        .ping_interval(Duration::from_millis(40))
        .idle_timeout(Duration::from_millis(200))
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let mut wedged = raw_subscriber(server.local_addr(), "reap");
    settle("reaped", || {
        let s = server.stats();
        s.reaped == 1 && s.subscribers_open == 0
    });
    let stats = server.stats();
    assert!(stats.pings >= 1, "probed before reaping: {stats:?}");
    assert_eq!((stats.clean_closes, stats.crash_closes), (0, 0));
    // What the peer would have seen, had it been reading: pings, then
    // the typed abort.
    let mut last = None;
    while let Ok(frame) = wire::read_frame(&mut wedged) {
        assert!(matches!(frame, Frame::Ping { .. } | Frame::Abort { .. }));
        last = Some(frame);
    }
    assert!(matches!(last, Some(Frame::Abort { .. })), "{last:?}");
    server.shutdown();
}

/// The reader half answers a subscriber's `Ping` while the writer half
/// is in the middle of an alarm burst, and the two halves' frames never
/// interleave on the socket (every frame still passes its CRC).
#[test]
fn subscriber_ping_is_answered_mid_burst() {
    let pool = SessionPool::builder().threads(2).max_sessions(1).build();
    let builder = {
        let mut b = StreamRuntime::builder();
        let s1 = b.live_source("s1");
        // Emits every phase: one alarm per event.
        b.add("avg", MovingAverage::new(3), &[s1]);
        b.record_history(false).record_script(false)
    };
    let sessions = vec![pool.open("burst", builder).unwrap()];
    let server = WireServer::builder()
        .subscriber_buffer(1 << 16)
        .ping_interval(Duration::from_secs(30))
        .idle_timeout(Duration::from_secs(90))
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr();
    let mut sub = raw_subscriber(addr, "burst");

    // The burst lasts until the pong has been seen.
    let ponged = Arc::new(AtomicBool::new(false));
    let producer = {
        let ponged = Arc::clone(&ponged);
        std::thread::spawn(move || {
            let mut client = WireClient::connect(addr, "", "burst", Role::Producer).unwrap();
            let mut pushed = 0u64;
            while !ponged.load(Ordering::Acquire) {
                let batch: Vec<Value> = (0..32).map(|i| Value::Float(i as f64)).collect();
                pushed += client.push_batch(0, &batch).unwrap() as u64;
                client.seal().unwrap();
            }
            pushed
        })
    };

    let mut last_phase = 0u64;
    let mut pinged = false;
    loop {
        match wire::read_frame(&mut sub).expect("stream stays decodable") {
            Frame::AlarmBatch { alarms } => {
                for a in &alarms {
                    assert_eq!(a.phase, last_phase + 1, "serial order, no gaps");
                    last_phase = a.phase;
                }
                if !pinged {
                    // Alarms are flowing: ping into the burst.
                    wire::write_frame(&mut sub, &Frame::Ping { nonce: 77 }).unwrap();
                    pinged = true;
                }
            }
            Frame::Pong { nonce } => {
                assert_eq!(nonce, 77);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    ponged.store(true, Ordering::Release);
    let pushed = producer.join().unwrap();
    assert!(pushed > 0);
    drop(sub);
    server.shutdown();
}

/// The latency contract, without a stopwatch race: every timer on the
/// server is tens of seconds and the subscriber sends nothing after
/// subscribing, so an alarm that arrives well inside a second was
/// pushed to the socket by its retirement, not found by a poll.
fn alarm_arrives_without_a_timer(net: Option<Arc<dyn NetIo>>) {
    let server = serve_without_timers("now", net.clone());
    let addr = server.local_addr();
    let connect = |role| {
        let mut b = WireClient::builder();
        if let Some(net) = &net {
            b = b.net(Arc::clone(net));
        }
        b.connect(addr, "now", role).unwrap()
    };
    let mut sub = connect(Role::Subscriber);
    sub.subscribe().unwrap();
    let mut producer = connect(Role::Producer);
    for round in 0..3 {
        // Alternate above/below so every phase flips the threshold.
        let v = if round % 2 == 0 { 1000.0 } else { -1000.0 };
        producer.push_batch(0, &[Value::Float(v)]).unwrap();
        let sealed = Instant::now();
        producer.seal().unwrap();
        let alarms = sub.next_alarms().unwrap();
        let took = sealed.elapsed();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].phase, round + 1);
        assert!(
            took < Duration::from_secs(1),
            "alarm {round} took {took:?} with every timer at 30 s+"
        );
    }
    assert_eq!(server.stats().pings, 0);
    drop((sub, producer));
    server.shutdown();
}

#[test]
fn alarm_arrives_without_a_timer_on_real_net() {
    alarm_arrives_without_a_timer(None);
}

#[test]
fn alarm_arrives_without_a_timer_on_a_faultless_fault_net() {
    alarm_arrives_without_a_timer(Some(FaultNet::new(NetFaultPlan::new()).handle()));
}

/// `drain()` called the instant the final epoch has been sealed: the
/// subscriber's `Goodbye` must come after the last `AlarmBatch`, every
/// time. (Retirement, delivery and the socket write are three threads
/// behind the seal's ack; drain waits for each rather than sleeping.)
/// `EC_DRAIN_ITERS` raises the iteration count — CI runs 200 in
/// release.
#[test]
fn drain_goodbye_never_beats_the_last_alarm_batch() {
    let iters: usize = std::env::var("EC_DRAIN_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    for iter in 0..iters {
        let pool = SessionPool::builder().threads(2).max_sessions(1).build();
        let sessions = vec![pool.open("last".to_string(), tenant_builder()).unwrap()];
        let server = WireServer::builder()
            .ping_interval(Duration::from_secs(30))
            .idle_timeout(Duration::from_secs(90))
            .bind("127.0.0.1:0", pool, sessions)
            .unwrap();
        let addr = server.local_addr();
        let mut sub = WireClient::connect(addr, "", "last", Role::Subscriber).unwrap();
        sub.subscribe().unwrap();
        let collector = std::thread::spawn(move || {
            let mut alarms = Vec::new();
            loop {
                match sub.next_alarms() {
                    Ok(batch) => alarms.extend(batch),
                    Err(WireError::Closed(_)) => return alarms,
                    Err(e) => panic!("iteration {iter}: no goodbye: {e}"),
                }
            }
        });
        let mut producer = WireClient::connect(addr, "", "last", Role::Producer).unwrap();
        // avg(3) of 20,0,20,… crosses the threshold every phase: one
        // alarm per event.
        let values: Vec<Value> = (0..6)
            .map(|i| Value::Float(if i % 2 == 0 { 20.0 } else { 0.0 }))
            .collect();
        producer.push_batch(0, &values).unwrap();
        producer.seal().unwrap();
        drop(producer);
        let reports = server.drain();
        let alarms = collector.join().unwrap();
        assert_eq!(
            alarms.iter().map(|a| a.phase).collect::<Vec<_>>(),
            (1..=6).collect::<Vec<u64>>(),
            "iteration {iter}: goodbye overtook the alarm stream"
        );
        for (name, report) in reports {
            report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
        }
    }
}

/// Batch publishing keeps the delivery contract. Two sinks, frames
/// capped at three alarms so they straddle delivery batches: two wire
/// subscribers and an in-process per-emission `subscribe` callback
/// (registered beside the server's batch hook) all see one sequence,
/// in serial (phase, vertex) order.
#[test]
fn shared_batches_reach_every_subscriber_in_serial_order() {
    let pool = SessionPool::builder().threads(2).max_sessions(1).build();
    let builder = {
        let mut b = StreamRuntime::builder();
        let s1 = b.live_source("s1");
        b.add("fast", MovingAverage::new(2), &[s1]);
        b.add("slow", MovingAverage::new(5), &[s1]);
        b
    };
    let sessions = vec![pool.open("pair", builder).unwrap()];
    let server = WireServer::builder()
        .alarm_batch(3)
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr();

    let inproc: Arc<Mutex<Vec<WireAlarm>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&inproc);
        server.tenant("pair").unwrap().subscribe(move |e| {
            seen.lock().unwrap().push(WireAlarm {
                phase: e.phase,
                sink: Arc::clone(&e.name),
                value: e.value.clone(),
            })
        });
    }
    const PHASES: u64 = 400;
    let subscribers: Vec<_> = (0..2)
        .map(|_| {
            let mut sub = WireClient::connect(addr, "", "pair", Role::Subscriber).unwrap();
            sub.subscribe().unwrap();
            std::thread::spawn(move || {
                let mut got: Vec<WireAlarm> = Vec::new();
                while got.len() < 2 * PHASES as usize {
                    let frame = sub.next_alarms().unwrap();
                    assert!(frame.len() <= 3, "alarm_batch caps a frame");
                    got.extend(frame);
                }
                got
            })
        })
        .collect();

    let mut producer = WireClient::connect(addr, "", "pair", Role::Producer).unwrap();
    let mut rng = SmallRng::seed_from_u64(11);
    let mut pushed = 0;
    while pushed < PHASES {
        let n = rng.gen_range(1u64..9).min(PHASES - pushed);
        let batch: Vec<Value> = (0..n)
            .map(|_| Value::Float(rng.gen_range(-50i64..50) as f64))
            .collect();
        producer.push_batch(0, &batch).unwrap();
        producer.seal().unwrap();
        pushed += n;
    }

    let streams: Vec<Vec<WireAlarm>> = subscribers.into_iter().map(|s| s.join().unwrap()).collect();
    let order: Vec<(u64, &str)> = streams[0].iter().map(|a| (a.phase, &*a.sink)).collect();
    let serial: Vec<(u64, &str)> = (1..=PHASES)
        .flat_map(|p| [(p, "fast"), (p, "slow")])
        .collect();
    assert_eq!(order, serial, "serial (phase, vertex) order");
    assert_eq!(streams[0], streams[1], "subscribers share one stream");
    {
        let pair = server.tenant("pair").unwrap();
        pair.wait_idle().unwrap();
        pair.wait_delivered();
    }
    assert_eq!(
        streams[0],
        *inproc.lock().unwrap(),
        "per-emission callbacks see what the batch hook sees"
    );
    drop(producer);
    server.shutdown();
}
