//! Runs the benchmark binary end to end at its smallest size: all four
//! workloads, untraced and traced, so a change that breaks the
//! benchmark (or an API it uses) fails `cargo test` in this package
//! rather than the next measurement.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "inproc_stream",
    "durable_stream",
    "wire_stream",
    "engine_pipeline",
];

/// Names declared in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let body = &json[json.find(&format!("\"{section}\": [")).expect("section")..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

struct Outcome {
    line: String,
    values: BTreeMap<String, f64>,
}

fn run(workload: &str, trace: bool, out: &std::path::Path) -> Outcome {
    let output = Command::new(env!("CARGO_BIN_EXE_ec-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed: {line}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // `"name": {"value": 1.5, "unit": "ms"}` entries.
    let mut values = BTreeMap::new();
    for (head, tail) in line
        .split("\": {\"value\": ")
        .zip(line.split("\": {\"value\": ").skip(1))
    {
        let name = &head[head.rfind('"').expect("name opens") + 1..];
        let value = &tail[..tail.find(',').expect("value ends")];
        assert!(tail[value.len()..].starts_with(", \"unit\": \""), "{name}");
        values.insert(
            name.to_string(),
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("{workload} {name} = {value}")),
        );
    }
    Outcome { line, values }
}

/// All workloads of one mode, side by side: the values do not matter
/// here, only that every run completes and reports.
fn run_all(trace: bool, out: &std::path::Path) -> Vec<Outcome> {
    std::thread::scope(|scope| {
        let runs: Vec<_> = WORKLOADS
            .iter()
            .map(|w| scope.spawn(move || run(w, trace, out)))
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("run completes"))
            .collect()
    })
}

#[test]
fn every_workload_reports_every_declared_metric_and_passes_the_oracle() {
    let out = std::env::temp_dir().join(format!("ec-perfbench-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);

    let end_to_end = declared("end_to_end");
    assert_eq!(end_to_end.len(), 5);
    for (workload, outcome) in WORKLOADS.iter().zip(run_all(false, &out)) {
        assert!(
            outcome
                .line
                .starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {}",
            outcome.line
        );
        assert!(outcome.line.contains("\"failed\": 0,"), "{workload}");
        let names: Vec<&String> = outcome.values.keys().collect();
        let mut want: Vec<&String> = end_to_end.iter().collect();
        want.sort();
        assert_eq!(names, want, "{workload}");
        for (name, value) in &outcome.values {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
        }
    }

    let per_layer = declared("per_layer");
    let first = run_all(true, &out);
    let second = run_all(true, &out);
    for ((workload, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        assert!(a.line.contains("\"correct\": true"), "{workload}");
        let mut want: Vec<&String> = per_layer.iter().collect();
        want.sort();
        assert_eq!(a.values.keys().collect::<Vec<_>>(), want, "{workload}");
        assert!(a.values.values().all(|v| v.is_finite()), "{workload}");
        // Computed byte counts repeat exactly with one seed; the
        // engine's per-event execution count up to the segment count.
        for exact in ["store.wal_bytes_per_event", "serve.wire_bytes_per_event"] {
            assert_eq!(a.values[exact], b.values[exact], "{workload} {exact}");
        }
        let (x, y) = (
            a.values["core.executions_per_event"],
            b.values["core.executions_per_event"],
        );
        assert!((x - y).abs() / x < 0.01, "{workload}: {x} vs {y}");
        assert!(a.values["trace.spans"] > 0.0, "{workload}");

        // The trace file is one JSON object of complete events, one
        // per span (the subscriber reader's come on top).
        let path = out.join(format!("{workload}-seed7.trace.json"));
        let trace = std::fs::read_to_string(&path).expect("trace file written");
        assert!(trace.starts_with("{\"displayTimeUnit\""), "{workload}");
        assert!(trace.trim_end().ends_with("]}"), "{workload}");
        assert_eq!(
            trace.matches('{').count(),
            trace.matches('}').count(),
            "{workload}: unbalanced trace JSON"
        );
        let events = trace.matches("\"ph\": \"X\"").count();
        let reader = trace.matches("\"name\": \"next_alarms\"").count();
        assert_eq!(
            (events - reader) as f64,
            b.values["trace.spans"],
            "{workload}"
        );
    }
    let engine = &first[3].values;
    assert!(engine["core.pipelining_speedup"] > 0.0);
    assert!(engine["core.parallel_speedup"] > 0.0);
    let _ = std::fs::remove_dir_all(&out);
}
