//! Integration tests for the observability plane: a live `/metrics`
//! endpoint scraped over real TCP, flight-recorder traces dumped from a
//! real run, the per-tenant endpoint of a [`SessionPool`], and the
//! plane's throughput overhead.

use ec_fusion::operators::aggregate::Aggregate;
use ec_fusion::operators::moving::MovingAverage;
use ec_obs::{http_get, validate_chrome_trace, validate_exposition};
use ec_runtime::{EpochPolicy, SessionPool, StreamRuntime, StreamRuntimeBuilder};
use std::time::Instant;

/// Builds a small live graph: two sources into an aggregation spine.
fn observed_builder() -> StreamRuntimeBuilder {
    let mut b = StreamRuntimeBuilder::new()
        .threads(2)
        .epoch_policy(EpochPolicy::ByCount(8))
        .max_inflight(16)
        .record_history(false)
        .record_script(false);
    let s1 = b.live_source("s1");
    let s2 = b.live_source("s2");
    let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
    b.add("avg", MovingAverage::new(4), &[sum]);
    b
}

/// Pushes `events` events alternating across the two sources and waits
/// for every sealed phase to retire.
fn drive(rt: &StreamRuntime, events: u64) {
    let s1 = rt.handle_by_name("s1").unwrap();
    let s2 = rt.handle_by_name("s2").unwrap();
    for i in 0..events {
        let h = if i % 2 == 0 { &s1 } else { &s2 };
        h.push(i as f64).expect("push accepted");
    }
    rt.flush().expect("flush");
    rt.wait_idle().expect("idle");
}

#[test]
fn metrics_endpoint_serves_live_exposition() {
    let rt = observed_builder()
        .metrics_addr("127.0.0.1:0")
        .flight_recorder(1024)
        .build()
        .expect("runtime builds");
    let addr = rt.metrics_addr().expect("endpoint bound").to_string();
    drive(&rt, 256);

    let body = http_get(&addr, "/metrics").expect("scrape succeeds");
    let samples = validate_exposition(&body).expect("well-formed exposition");
    assert!(samples > 20, "expected a full page, got {samples} samples");
    for series in [
        "ec_executions_total",
        "ec_phases_completed_total",
        "ec_seal_events_total 256",
        "ec_worker_queue_depth{worker=\"0\"}",
        "ec_phase_seconds{quantile=\"0.99\"}",
        "ec_exec_seconds_count",
        "ec_ingest_depth{source=\"s1\"}",
        "ec_ingest_depth{source=\"s2\"}",
        "ec_ingest_source_waits_total{source=\"s1\"}",
        "ec_e2e_seconds_count{source=\"s1\",sink=\"avg\"}",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }

    // The health plane serves next door and reports a healthy verdict.
    let health = http_get(&addr, "/healthz").expect("healthz responds");
    assert!(health.contains("\"verdict\":\"ok\""), "{health}");
    assert!(health.contains("\"sources\""), "{health}");

    // A scrape observes *live* numbers: more work moves the counters.
    drive(&rt, 64);
    let body2 = http_get(&addr, "/metrics").expect("second scrape");
    assert!(body2.contains("ec_seal_events_total 320"), "{body2}");

    let report = rt.shutdown().expect("clean shutdown");
    assert_eq!(report.metrics.ingest.seal_events, 320);
    // Shutdown stops the listener: the endpoint must be gone.
    assert!(
        http_get(&addr, "/metrics").is_err(),
        "endpoint survived shutdown"
    );
}

#[test]
fn dump_trace_replays_a_real_run() {
    let rt = observed_builder()
        .flight_recorder(4096)
        .build()
        .expect("runtime builds");
    drive(&rt, 200);

    let trace = rt.dump_trace().expect("recorder attached");
    let events = validate_chrome_trace(&trace).expect("well-formed chrome trace");
    // 3 lanes of thread metadata (control + 2 workers) plus real spans.
    assert!(events > 3, "trace is empty: {trace}");
    for name in ["phase_admitted", "exec", "phase_retired", "epoch_sealed"] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "missing {name}"
        );
    }
    assert!(trace.contains("\"name\":\"control\""));
    assert!(trace.contains("\"name\":\"worker 1\""));

    // Draining empties the rings; a second dump holds only what was
    // recorded since.
    let again = rt.dump_trace().expect("recorder still attached");
    assert!(
        !again.contains("\"name\":\"epoch_sealed\""),
        "rings not drained"
    );
    rt.shutdown().expect("clean shutdown");
}

#[test]
fn unobserved_runtimes_opt_out_cleanly() {
    let rt = observed_builder().build().expect("runtime builds");
    assert!(rt.metrics_addr().is_none());
    assert!(rt.dump_trace().is_none());
    drive(&rt, 32);
    rt.shutdown().expect("clean shutdown");
}

#[test]
fn session_pool_endpoint_exposes_per_tenant_rows() {
    let pool = SessionPool::builder().threads(2).max_sessions(2).build();
    let addr = pool
        .serve_metrics("127.0.0.1:0")
        .expect("endpoint binds")
        .to_string();
    assert_eq!(
        pool.metrics_addr().map(|a| a.to_string()),
        Some(addr.clone())
    );

    let mut sessions = Vec::new();
    for name in ["alpha", "beta"] {
        let mut b = StreamRuntimeBuilder::new()
            .epoch_policy(EpochPolicy::ByCount(4))
            .record_history(false)
            .record_script(false);
        let s = b.live_source("s");
        b.add("sum", Aggregate::sum(), &[s]);
        sessions.push(pool.open(name.to_string(), b).expect("session opens"));
    }
    for (i, session) in sessions.iter().enumerate() {
        let h = session.handle_by_name("s").unwrap();
        for k in 0..(20 * (i as u64 + 1)) {
            h.push(k as f64).expect("push accepted");
        }
        session.flush().expect("flush");
        session.wait_idle().expect("idle");
    }

    let body = http_get(&addr, "/metrics").expect("scrape succeeds");
    validate_exposition(&body).expect("well-formed exposition");
    for series in [
        "ec_session_events_committed_total{session=\"alpha\"} 20",
        "ec_session_events_committed_total{session=\"beta\"} 40",
        "ec_session_phases_retired_total{session=\"alpha\"}",
        "ec_executions_total{session=\"beta\"}",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }

    for session in sessions {
        session.close().expect("clean close");
    }
    pool.shutdown();
    assert!(
        http_get(&addr, "/metrics").is_err(),
        "endpoint survived shutdown"
    );
}

/// The overhead budget: the flight recorder, a live `/metrics` endpoint
/// and default causal-trace sampling together may cost at most 5 % of
/// throughput against `trace_sampling(0)` with nothing attached. Runs
/// are interleaved (base, observed, base, …) and compared by median, so
/// drift on a shared host reads as noise rather than overhead. A timing
/// measurement, so ignored by default; run it in release:
///
/// ```text
/// cargo test --release -p ec-runtime --test observability -- --ignored --nocapture
/// ```
#[test]
#[ignore]
fn observability_overhead_within_five_percent() {
    const PAIRS: usize = 9;
    const EVENTS: u64 = 20_000;
    let base = || observed_builder().trace_sampling(0).build().unwrap();
    let observed = || {
        observed_builder()
            .flight_recorder(4096)
            .metrics_addr("127.0.0.1:0")
            .build()
            .unwrap()
    };
    // Events per second of one run; building the runtime is untimed.
    let rate = |rt: StreamRuntime| {
        let start = Instant::now();
        drive(&rt, EVENTS);
        let rate = EVENTS as f64 / start.elapsed().as_secs_f64();
        rt.shutdown().expect("clean shutdown");
        rate
    };
    let median = |mut rates: Vec<f64>| {
        rates.sort_by(f64::total_cmp);
        rates[rates.len() / 2]
    };
    // Warm up both arms (thread spawn, allocator, caches).
    rate(base());
    rate(observed());
    let (mut base_rates, mut observed_rates) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        base_rates.push(rate(base()));
        observed_rates.push(rate(observed()));
    }
    let (base, observed) = (median(base_rates), median(observed_rates));
    let overhead_pct = (base / observed - 1.0) * 100.0;
    println!(
        "observability A/B, {PAIRS} pairs of {EVENTS} events: observed {observed:.0} ev/s, \
         trace_sampling(0) {base:.0} ev/s, overhead {overhead_pct:.2}%"
    );
    assert!(
        overhead_pct <= 5.0,
        "observability overhead {overhead_pct:.2}% exceeds the 5% budget"
    );
}
