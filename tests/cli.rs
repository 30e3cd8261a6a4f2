//! Integration tests for the `ec` command-line tool.

use std::process::{Command, Output};

fn ec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ec"))
        .args(args)
        .output()
        .expect("ec binary runs")
}

fn write_spec(name: &str, body: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ec-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

const SPEC: &str = r#"<computation phases="30" threads="2">
  <node id="tx" type="counter"/>
  <node id="avg" type="moving-average" window="4"><input ref="tx"/></node>
  <node id="big" type="threshold" level="10"><input ref="avg"/></node>
</computation>"#;

#[test]
fn help_prints_usage() {
    for args in [vec!["--help"], vec![]] {
        let out = ec(&args);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage:"), "{text}");
    }
}

#[test]
fn validate_reports_graph_stats() {
    let path = write_spec("validate.xml", SPEC);
    let out = ec(&["validate", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("3 nodes (1 sources, 1 sinks), 2 edges"),
        "{text}"
    );
    assert!(text.contains("depth 3"), "{text}");
}

#[test]
fn run_parallel_and_sequential() {
    let path = write_spec("run.xml", SPEC);
    let par = ec(&["run", path.to_str().unwrap()]);
    assert!(par.status.success());
    let par_text = String::from_utf8_lossy(&par.stdout);
    assert!(par_text.contains("parallel run: 30 phases"), "{par_text}");
    assert!(par_text.contains("big:"), "{par_text}");

    let seq = ec(&["run", path.to_str().unwrap(), "--sequential"]);
    assert!(seq.status.success());
    let seq_text = String::from_utf8_lossy(&seq.stdout);
    assert!(seq_text.contains("sequential run: 30 phases"), "{seq_text}");
}

#[test]
fn run_flag_overrides() {
    let path = write_spec("flags.xml", SPEC);
    let out = ec(&[
        "run",
        path.to_str().unwrap(),
        "--phases",
        "5",
        "--threads",
        "1",
        "--quiet",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("5 phases on 1 threads"), "{text}");
    // --quiet suppresses sink listings.
    assert!(!text.contains("big:"), "{text}");
}

#[test]
fn dot_emits_graphviz() {
    let path = write_spec("dot.xml", SPEC);
    let out = ec(&["dot", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph computation {"), "{text}");
    assert!(text.contains("1: tx"), "{text}");
}

#[test]
fn errors_exit_nonzero() {
    let out = ec(&["run", "/no/such/spec.xml"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");

    let out = ec(&["frobnicate"]);
    assert!(!out.status.success());

    let bad = write_spec("bad.xml", "<computation><node id=");
    let out = ec(&["run", bad.to_str().unwrap()]);
    assert!(!out.status.success());
}

#[test]
fn demo_runs() {
    let out = ec(&["demo"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("demo:"), "{text}");
}

/// Runs `ec` with the given stdin content piped in.
fn ec_with_stdin(args: &[&str], stdin: &str) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ec"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ec binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("stdin writes");
    child.wait_with_output().expect("ec binary runs")
}

const LIVE_SPEC: &str = r#"<computation threads="2">
  <node id="tx" type="live"/>
  <node id="avg" type="moving-average" window="3"><input ref="tx"/></node>
  <node id="big" type="threshold" level="100"><input ref="avg"/></node>
</computation>"#;

#[test]
fn stream_ingests_csv_and_ndjson() {
    let path = write_spec("live.xml", LIVE_SPEC);
    let input = "tx,10\ntx,20\n\n{\"source\": \"tx\", \"value\": 400}\n\ntx,5\n";
    let out = ec_with_stdin(&["stream", path.to_str().unwrap()], input);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // The moving average crosses 100 once the 400 event lands (phase 3).
    assert!(text.contains("[phase 1] big = false"), "{text}");
    assert!(text.contains("[phase 3] big = true"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("4 events in, 0 dropped, 4 phases"), "{err}");
}

#[test]
fn stream_epoch_count_policy() {
    let path = write_spec("live_count.xml", LIVE_SPEC);
    // No explicit flushes: the count policy seals every 2 events.
    let input = "tx,10\ntx,20\ntx,400\ntx,400\n";
    let out = ec_with_stdin(
        &[
            "stream",
            path.to_str().unwrap(),
            "--epoch-count",
            "2",
            "--quiet",
        ],
        input,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("big = true"), "{text}");
}

#[test]
fn stream_reports_bad_lines_and_unknown_sources() {
    let path = write_spec("live_bad.xml", LIVE_SPEC);
    let input = "not-an-event\nnope,1\ntx,10\n";
    let out = ec_with_stdin(&["stream", path.to_str().unwrap()], input);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning:"), "{err}");
    assert!(err.contains("1 events in, 2 dropped"), "{err}");
}

#[test]
fn stream_rejects_conflicting_epoch_flags() {
    let path = write_spec("live_conflict.xml", LIVE_SPEC);
    let out = ec_with_stdin(
        &[
            "stream",
            path.to_str().unwrap(),
            "--epoch-count",
            "2",
            "--epoch-ms",
            "5",
        ],
        "",
    );
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn stream_flushes_on_full_queue_instead_of_hanging() {
    let path = write_spec("live_full.xml", LIVE_SPEC);
    // 10 events, no blank lines, capacity 4: the CLI must self-seal
    // when a queue fills (blocking would deadlock the single-threaded
    // reader) and still ingest every event.
    let mut input = String::new();
    for i in 0..10 {
        input.push_str(&format!("tx,{}\n", i * 50));
    }
    let out = ec_with_stdin(
        &["stream", path.to_str().unwrap(), "--capacity", "4"],
        &input,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("10 events in, 0 dropped, 10 phases"), "{err}");
}

#[test]
fn stream_reject_mode_drops_overflow() {
    let path = write_spec("live_reject.xml", LIVE_SPEC);
    let mut input = String::new();
    for i in 0..10 {
        input.push_str(&format!("tx,{}\n", i * 50));
    }
    let out = ec_with_stdin(
        &[
            "stream",
            path.to_str().unwrap(),
            "--capacity",
            "4",
            "--reject",
        ],
        &input,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // First 4 fill the queue; the rest drop; shutdown seals the 4.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("4 events in, 6 dropped, 4 phases"), "{err}");
    assert!(err.contains("queue full, event dropped"), "{err}");
}

const DURABLE_SPEC_TEMPLATE: &str = r#"<computation threads="2">
  <durability dir="__DIR__" snapshot-every="2"/>
  <node id="tx" type="live"/>
  <node id="avg" type="moving-average" window="3"><input ref="tx"/></node>
  <node id="alarm" type="threshold" level="10"><input ref="avg"/></node>
</computation>"#;

#[test]
fn stream_checkpoint_then_recover_then_resume() {
    let store = std::env::temp_dir().join(format!("ec-cli-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let spec_body = DURABLE_SPEC_TEMPLATE.replace("__DIR__", store.to_str().unwrap());
    let path = write_spec("durable.xml", &spec_body);
    let spec = path.to_str().unwrap();

    // First run: three sealed epochs through the spec's durability dir.
    let out = ec_with_stdin(&["stream", spec], "tx,5\n\ntx,20\n\ntx,30\n\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resuming at phase 1"), "{err}");

    // Recover: resumable phase and the replayed tail.
    let out = ec(&["recover", store.to_str().unwrap(), spec]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("committed phases: 3"), "{text}");
    assert!(text.contains("resumable at phase 4"), "{text}");
    assert!(text.contains("wal tail: clean"), "{text}");

    // Second run resumes at phase 4 (global numbering).
    let out = ec_with_stdin(&["stream", spec], "tx,40\n\n");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resuming at phase 4"), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // avg(20,30,40) = 30 > 10: alarm already true before the kill, so
    // the new phase is silent; the replayed tail re-emits nothing new.
    assert!(!stdout.contains("phase 1]"), "{stdout}");

    // --checkpoint flag (fresh dir) overrides the spec's element.
    let store2 = std::env::temp_dir().join(format!("ec-cli-durable2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store2);
    let out = ec_with_stdin(
        &["stream", spec, "--checkpoint", store2.to_str().unwrap()],
        "tx,50\n\n",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resuming at phase 1"), "{err}");

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&store2);
}

#[test]
fn store_inspect_verify_compact() {
    let store = std::env::temp_dir().join(format!("ec-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let spec_body = DURABLE_SPEC_TEMPLATE.replace("__DIR__", store.to_str().unwrap());
    let path = write_spec("store-cli.xml", &spec_body);
    let spec = path.to_str().unwrap();
    let dir = store.to_str().unwrap();

    // Build a real store: three sealed epochs (snapshot-every=2).
    let out = ec_with_stdin(&["stream", spec], "tx,5\n\ntx,20\n\ntx,30\n\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // inspect shows the segments end to end.
    let out = ec(&["store", dir, "inspect"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("committed phases: 3"), "{text}");
    assert!(text.contains("seg-000000000001.log"), "{text}");
    assert!(text.contains("resumable at phase 4"), "{text}");

    // verify walks every CRC and reports a healthy store.
    let out = ec(&["store", dir, "verify"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("OK"), "{text}");

    // compact is safe to run any time (here nothing is dead yet:
    // every segment still carries rows past the snapshot).
    let out = ec(&["store", dir, "compact"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Flip one byte inside the segment: verify must exit nonzero.
    let seg = store.join("wal").join("seg-000000000001.log");
    let mut bytes = std::fs::read(&seg).unwrap();
    let n = bytes.len();
    bytes[n - 10] ^= 0xff;
    std::fs::write(&seg, &bytes).unwrap();
    let out = ec(&["store", dir, "verify"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("problem"), "{err}");

    // Unknown action and missing store both fail cleanly.
    let out = ec(&["store", dir, "frobnicate"]);
    assert!(!out.status.success());
    let out = ec(&["store", "/definitely/not/a/store", "verify"]);
    assert!(!out.status.success());

    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn recover_errors_without_store() {
    let path = write_spec("recover-missing.xml", SPEC);
    let out = ec(&["recover", "/definitely/not/a/store", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no write-ahead log"), "{err}");
}

#[test]
fn sessions_serve_multiple_specs_on_one_pool() {
    let a = write_spec("sess_a.xml", LIVE_SPEC);
    let b = write_spec("sess_b.xml", LIVE_SPEC);
    // Session names are the file stems (sess_a / sess_b); a blank line
    // ticks every session.
    let input = "sess_a,tx,400\nsess_b,tx,10\n\nsess_a,tx,5\nnope,tx,1\nsess_b,oops,2\n";
    let out = ec_with_stdin(
        &[
            "sessions",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--threads",
            "2",
        ],
        input,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Each tenant's alarms are tagged with its session name and keep
    // independent phase numbering.
    assert!(text.contains("[sess_a phase 1] big = true"), "{text}");
    assert!(text.contains("[sess_b phase 1] big = false"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("3 events in, 2 dropped"), "{err}");
    assert!(err.contains("unknown session \"nope\""), "{err}");
    assert!(err.contains("unknown source \"oops\""), "{err}");
    // Per-tenant summary rows (the tick seals each tenant's buffered
    // event as phase 1; sess_a's second event seals at the final
    // flush).
    assert!(err.contains("sess_a: 2 phases retired, 2 events"), "{err}");
    assert!(err.contains("sess_b: 1 phases retired, 1 events"), "{err}");
}

#[test]
fn sessions_with_root_restore_each_tenant() {
    let a = write_spec("sess_dur_a.xml", LIVE_SPEC);
    let b = write_spec("sess_dur_b.xml", LIVE_SPEC);
    let root = std::env::temp_dir().join(format!("ec-cli-sessions-root-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let args = [
        "sessions",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--root",
        root.to_str().unwrap(),
    ];
    let out = ec_with_stdin(&args, "sess_dur_a,tx,1\nsess_dur_a,tx,2\nsess_dur_b,tx,3\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Second run resumes each tenant at its own committed phase.
    let out = ec_with_stdin(&args, "sess_dur_b,tx,4\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("session \"sess_dur_a\"") && err.contains("resuming at phase 3"),
        "{err}"
    );
    assert!(err.contains("resuming at phase 2"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sessions_reject_duplicate_names_and_bad_weights() {
    let a = write_spec("sess_dup.xml", LIVE_SPEC);
    let out = ec_with_stdin(&["sessions", a.to_str().unwrap(), a.to_str().unwrap()], "");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unique"), "{err}");

    let out = ec_with_stdin(
        &["sessions", a.to_str().unwrap(), "--weight", "nonsense"],
        "",
    );
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("NAME=W"), "{err}");

    // A weight naming no session is a typo, not a no-op.
    let out = ec_with_stdin(&["sessions", a.to_str().unwrap(), "--weight", "typo=4"], "");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown session \"typo\""), "{err}");
}

#[test]
fn trace_writes_chrome_json() {
    let path = write_spec("trace.xml", LIVE_SPEC);
    let out_file = std::env::temp_dir()
        .join("ec-cli-tests")
        .join("trace-out.json");
    let _ = std::fs::remove_file(&out_file);
    let out = ec_with_stdin(
        &[
            "trace",
            path.to_str().unwrap(),
            "--out",
            out_file.to_str().unwrap(),
        ],
        "tx,10\ntx,20\n\ntx,5\n",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace written to"), "{err}");
    let json = std::fs::read_to_string(&out_file).expect("trace file written");
    let events = event_correlation::obs::validate_chrome_trace(&json).expect("well-formed trace");
    assert!(events > 0, "{json}");
    assert!(json.contains("\"name\":\"epoch_sealed\""), "{json}");
    assert!(json.contains("\"name\":\"phase_retired\""), "{json}");
    let _ = std::fs::remove_file(&out_file);
}

#[test]
fn stream_metrics_flag_serves_exposition() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let path = write_spec("metrics.xml", LIVE_SPEC);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ec"))
        .args(["stream", path.to_str().unwrap(), "--metrics", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ec binary spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    // The endpoint line is printed before stdin is consumed; find the
    // ephemeral port in it while the stream is still live.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("stderr readable") > 0,
            "stream exited before announcing the metrics endpoint"
        );
        if let Some(rest) = line.trim().strip_prefix("metrics endpoint: http://") {
            break rest
                .split_once("/metrics")
                .expect("endpoint line has a path")
                .0
                .to_string();
        }
    };
    stdin.write_all(b"tx,10\ntx,20\n\n").expect("stdin writes");
    stdin.flush().unwrap();
    let body = event_correlation::obs::http_get(&addr, "/metrics").expect("scrape live stream");
    event_correlation::obs::validate_exposition(&body).expect("well-formed exposition");
    assert!(body.contains("ec_executions_total"), "{body}");
    drop(stdin); // EOF: the stream shuts down cleanly.
    let status = child.wait().expect("ec binary exits");
    assert!(status.success());
}

#[test]
fn top_renders_one_frame() {
    use std::sync::Arc;
    let page = "\
# TYPE ec_executions_total counter\nec_executions_total 42\n\
# TYPE ec_phases_completed_total counter\nec_phases_completed_total 7\n\
# TYPE ec_seal_events_total counter\nec_seal_events_total 99\n\
# TYPE ec_phase_seconds summary\nec_phase_seconds{quantile=\"0.5\"} 0.002\n\
ec_phase_seconds{quantile=\"0.95\"} 0.004\nec_phase_seconds{quantile=\"0.99\"} 0.008\n\
ec_phase_seconds{quantile=\"1\"} 0.016\nec_phase_seconds_sum 1.5\nec_phase_seconds_count 7\n\
# TYPE ec_session_events_per_sec gauge\n\
ec_session_events_per_sec{session=\"alpha\"} 123\n";
    let server = event_correlation::obs::MetricsServer::bind(
        "127.0.0.1:0",
        Arc::new(move || page.to_string()),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let out = ec(&["top", &addr, "--once"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("completed 7"), "{text}");
    assert!(text.contains("sealed 99"), "{text}");
    assert!(text.contains("p50 2.0ms"), "{text}");
    assert!(text.contains("session alpha"), "{text}");
}

#[test]
fn doctor_exits_by_verdict() {
    use std::sync::Arc;
    // Healthy endpoint: doctor prints the report and exits 0.
    let ok_body = "{\"verdict\":\"ok\",\"reasons\":[],\"admitted\":5,\"retired\":5}";
    let server = event_correlation::obs::MetricsServer::bind_routes(
        "127.0.0.1:0",
        vec![(
            "/healthz",
            event_correlation::obs::CONTENT_TYPE_JSON,
            Arc::new(move || ok_body.to_string()),
        )],
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let out = ec(&["doctor", &addr]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"verdict\":\"ok\""), "{text}");
    assert!(text.contains("healthy"), "{text}");
    drop(server);

    // Stalled endpoint: nonzero exit, reasons surfaced on stderr.
    let bad_body = "{\"verdict\":\"stalled\",\"reasons\":[\"ingest wedged: source s1 full\"],\
                    \"admitted\":5,\"retired\":3}";
    let server = event_correlation::obs::MetricsServer::bind_routes(
        "127.0.0.1:0",
        vec![(
            "/healthz",
            event_correlation::obs::CONTENT_TYPE_JSON,
            Arc::new(move || bad_body.to_string()),
        )],
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let out = ec(&["doctor", &addr]);
    assert!(!out.status.success(), "stalled verdict must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("health verdict: stalled"), "{err}");
    assert!(err.contains("ingest wedged"), "{err}");
}

#[test]
fn doctor_reads_a_live_stream_runtime() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let path = write_spec("doctor_live.xml", LIVE_SPEC);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ec"))
        .args(["stream", path.to_str().unwrap(), "--metrics", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ec binary spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("stderr readable") > 0,
            "stream exited before announcing the metrics endpoint"
        );
        if let Some(rest) = line.trim().strip_prefix("metrics endpoint: http://") {
            break rest
                .split_once("/metrics")
                .expect("endpoint line has a path")
                .0
                .to_string();
        }
    };
    stdin.write_all(b"tx,10\ntx,20\n\n").expect("stdin writes");
    stdin.flush().unwrap();
    let out = ec(&["doctor", &addr]);
    assert!(
        out.status.success(),
        "doctor on a healthy stream: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    drop(stdin);
    let status = child.wait().expect("ec binary exits");
    assert!(status.success());
}

#[test]
fn top_errors_helpfully_when_nothing_listens() {
    // Bind-then-drop guarantees a dead port.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let out = ec(&["top", &dead, "--once"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("is the runtime up with --metrics?"), "{err}");
}

/// Spawns `ec serve` on an ephemeral port and scrapes the endpoint
/// lines from stderr while the server is live. Returns the child, its
/// stdin handle (drop it for a clean EOF shutdown), the stderr reader
/// (positioned after the endpoint lines), the wire address, and the
/// metrics address when `--metrics` was passed.
fn spawn_serve(
    spec: &std::path::Path,
    extra: &[&str],
) -> (
    std::process::Child,
    std::process::ChildStdin,
    std::io::BufReader<std::process::ChildStderr>,
    String,
    Option<String>,
) {
    use std::io::BufRead;
    use std::process::Stdio;

    let mut args = vec!["serve", spec.to_str().unwrap(), "--addr", "127.0.0.1:0"];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ec"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ec binary spawns");
    let stdin = child.stdin.take().expect("stdin piped");
    let mut stderr = std::io::BufReader::new(child.stderr.take().expect("stderr piped"));
    let want_metrics = extra.contains(&"--metrics");
    let mut wire = None;
    let mut metrics = None;
    while wire.is_none() || (want_metrics && metrics.is_none()) {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("stderr readable") > 0,
            "serve exited before announcing its endpoints"
        );
        if let Some(rest) = line.trim().strip_prefix("wire endpoint: ") {
            wire = Some(
                rest.split_once(' ')
                    .expect("endpoint line has tenants")
                    .0
                    .to_string(),
            );
        } else if let Some(rest) = line.trim().strip_prefix("metrics endpoint: http://") {
            metrics = Some(
                rest.split_once("/metrics")
                    .expect("endpoint line has a path")
                    .0
                    .to_string(),
            );
        }
    }
    (child, stdin, stderr, wire.unwrap(), metrics)
}

#[test]
fn serve_accepts_a_push_client_and_exits_on_stdin_close() {
    let path = write_spec("serve_live.xml", LIVE_SPEC);
    let (mut child, stdin, mut stderr, wire, _) = spawn_serve(&path, &[]);

    // A full producer session over the wire: three events, two seals.
    let out = ec_with_stdin(&["push", &wire, "serve_live"], "tx,10\ntx,20\n\ntx,400\n\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sources [\"tx\"]"), "{err}");
    assert!(
        err.contains("3 events in (3 acked), 0 dropped, 2 seals"),
        "{err}"
    );

    // Closing stdin is the supervisor hanging up: the server drains,
    // reports per-tenant phase counts, and exits zero.
    drop(stdin);
    let status = child.wait().expect("ec binary exits");
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).expect("stderr drains");
    assert!(rest.contains("serve done:"), "{rest}");
    assert!(rest.contains("3 events in"), "{rest}");
    assert!(rest.contains("serve_live: 3 phases committed"), "{rest}");
}

#[test]
fn serve_metrics_healthz_and_doctor() {
    let path = write_spec("serve_metrics.xml", LIVE_SPEC);
    let (mut child, stdin, _stderr, wire, metrics) =
        spawn_serve(&path, &["--metrics", "127.0.0.1:0", "--quiet"]);
    let metrics = metrics.expect("metrics endpoint announced");

    let out = ec_with_stdin(&["push", &wire, "serve_metrics", "--quiet"], "tx,10\n\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let body = event_correlation::obs::http_get(&metrics, "/metrics").expect("scrape server");
    event_correlation::obs::validate_exposition(&body).expect("well-formed exposition");
    assert!(body.contains("ec_wire_connections_total"), "{body}");
    assert!(body.contains("ec_session_events_per_sec"), "{body}");

    let health = event_correlation::obs::http_get(&metrics, "/healthz").expect("healthz");
    assert!(health.contains("\"verdict\""), "{health}");

    let out = ec(&["doctor", &metrics]);
    assert!(
        out.status.success(),
        "doctor on a healthy server: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    drop(stdin);
    let status = child.wait().expect("ec binary exits");
    assert!(status.success());
}

#[test]
fn push_with_session_replays_exactly_once_across_process_restarts() {
    let path = write_spec("serve_resume.xml", LIVE_SPEC);
    let (mut child, stdin, mut stderr, wire, _) = spawn_serve(&path, &[]);

    let args = [
        "push",
        &wire,
        "serve_resume",
        "--retry",
        "3",
        "--session",
        "cli-sess",
    ];
    let input = "tx,10\ntx,20\n\n";
    let out = ec_with_stdin(&args, input);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("session \"cli-sess\""), "{err}");
    assert!(err.contains("2 events in (2 acked)"), "{err}");

    // The same input under the same session id — a crash-retry replay.
    // The server's dedup window re-acks every batch without
    // re-applying, so the client still sees full acks while the commit
    // stays exactly-once.
    let out = ec_with_stdin(&args, input);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("2 events in (2 acked)"), "{err}");

    drop(stdin);
    let status = child.wait().expect("ec binary exits");
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).expect("stderr drains");
    // Two identical runs, one commit: the replay added no phases.
    assert!(rest.contains("serve_resume: 2 phases committed"), "{rest}");
}

#[test]
fn push_refusals_exit_nonzero_with_diagnostics() {
    let path = write_spec("serve_auth.xml", LIVE_SPEC);
    let (mut child, stdin, _stderr, wire, _) =
        spawn_serve(&path, &["--token", "sesame", "--quiet"]);

    // Wrong token: refused at Hello, before any stdin is consumed.
    let out = ec_with_stdin(&["push", &wire, "serve_auth", "--token", "wrong"], "");
    assert!(!out.status.success(), "bad token must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("token"), "{err}");

    // Unknown tenant, correct token: refused with the tenant named.
    let out = ec_with_stdin(&["push", &wire, "nope", "--token", "sesame"], "");
    assert!(!out.status.success(), "unknown tenant must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown tenant"), "{err}");

    // The right credentials still work on the same server.
    let out = ec_with_stdin(
        &["push", &wire, "serve_auth", "--token", "sesame", "--quiet"],
        "tx,1\n\n",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    drop(stdin);
    let status = child.wait().expect("ec binary exits");
    assert!(status.success());
}
