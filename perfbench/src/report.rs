//! The declared metrics, and the two parent modes: all workloads (one
//! child process each) and the A/A self-check.

use crate::graphs::{Workload, ALL_WORKLOADS};
use crate::stats::{median, parse_result_line, spread, ParsedResult};
use crate::Args;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit, better, bound)`. Mirrors
/// `BENCHMARK.json` (a test below compares the two). `bound` is
/// the share of the parent's median by which the metric may worsen.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("events_per_s", "1/s", "higher", 0.25),
    ("alarm_p50_us", "us", "lower", 0.25),
    ("alarm_p90_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics, reported by traced runs: `(name, unit, better)`.
/// Mirrors `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("runtime.push_ns", "ns", "lower"),
    ("runtime.seal_push_ns", "ns", "lower"),
    ("runtime.producer_busy_share", "ratio", "lower"),
    ("runtime.drain_ms", "ms", "lower"),
    ("runtime.backlog_phases_mean", "count", "lower"),
    ("runtime.backlog_phases_max", "count", "lower"),
    ("runtime.paced_backlog_phases_mean", "count", "lower"),
    ("runtime.ingest_waits", "count", "lower"),
    ("runtime.mean_seal_batch", "count", "higher"),
    ("core.exec_ns_per_event", "ns", "lower"),
    ("core.critical_ns_per_event", "ns", "lower"),
    ("core.lock_wait_ns_per_event", "ns", "lower"),
    ("core.bookkeeping_ratio", "ratio", "lower"),
    ("core.mean_concurrent_phases", "count", "higher"),
    ("core.max_concurrent_phases", "count", "higher"),
    ("core.executions_per_event", "count", "lower"),
    ("core.silent_fraction", "ratio", "lower"),
    ("core.parks_per_kevent", "count", "lower"),
    ("core.wakes_per_kevent", "count", "lower"),
    ("core.steals_per_kevent", "count", "lower"),
    ("core.pipelined_phases_per_s", "1/s", "higher"),
    ("core.barrier_phases_per_s", "1/s", "higher"),
    ("core.sequential_phases_per_s", "1/s", "higher"),
    ("core.pipelining_speedup", "x", "higher"),
    ("core.parallel_speedup", "x", "higher"),
    ("fusion.execute_ns", "ns", "lower"),
    ("events.column_cycle_ns", "ns", "lower"),
    ("store.wal_commit_ns", "ns", "lower"),
    ("store.wal_bytes_per_event", "B", "lower"),
    ("store.checkpoint_full_us", "us", "lower"),
    ("store.checkpoint_delta_us", "us", "lower"),
    ("store.restore_ms", "ms", "lower"),
    ("store.commits", "count", "lower"),
    ("store.retries", "count", "lower"),
    ("store.segments", "count", "lower"),
    ("store.compactions", "count", "higher"),
    ("store.durable_tax_pct", "%", "lower"),
    ("serve.encode_push_ns", "ns", "lower"),
    ("serve.decode_push_ns", "ns", "lower"),
    ("serve.encode_alarm_ns", "ns", "lower"),
    ("serve.push_rtt_p50_us", "us", "lower"),
    ("serve.alarm_hop_p50_us", "us", "lower"),
    ("serve.alarms_per_batch", "count", "higher"),
    ("serve.wire_bytes_per_event", "B", "lower"),
    ("serve.blocks_seen", "count", "lower"),
    ("serve.reconnects", "count", "lower"),
    ("serve.dedup_hits", "count", "lower"),
    ("e2e.events_per_s_total", "1/s", "higher"),
    ("e2e.alarm_p99_us", "us", "lower"),
    ("e2e.cpu_ns_per_event", "ns", "lower"),
    ("gen.lag_p90_us", "us", "lower"),
    ("gen.rate_achieved", "1/s", "higher"),
    ("gen.self_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Runs one workload in a child process of this same binary, so its
/// peak memory is its own. Kills it at the contract's 180 s limit.
fn run_child(w: Workload, args: &Args, seed: u64, trace: bool) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(out) = &args.out {
        cmd.arg("--out").arg(out);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if start.elapsed() > Duration::from_secs(180) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{}: no result within 180 s; killed", w.name()));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut stdout);
    }
    let parsed = stdout.lines().last().and_then(parse_result_line);
    match parsed {
        Some(r) if status.success() => Ok(r),
        Some(r) => Err(format!(
            "{}: failed: correct={} failed={} of {}",
            w.name(),
            r.correct,
            r.failed,
            r.attempted
        )),
        None => Err(format!("{}: exited with {status} and no result", w.name())),
    }
}

fn print_result(w: Workload, r: &ParsedResult) {
    println!(
        "{} — oracle check passed, {} events attempted, {} failed",
        w.name(),
        r.attempted,
        r.failed
    );
    for (name, value) in &r.values {
        println!("  {name:<36} {value:>16.4} {}", r.units[name]);
    }
}

/// All four workloads, one child each; with `--trace 1` each workload
/// is then repeated traced, for the per-layer numbers.
pub fn run_all(args: &Args) -> i32 {
    let mut code = 0;
    for trace in [false, true] {
        if trace && !args.trace {
            break;
        }
        for w in ALL_WORKLOADS {
            match run_child(w, args, args.seed, trace) {
                Ok(r) => print_result(w, &r),
                Err(e) => {
                    eprintln!("ec-perfbench: {e}");
                    code = 1;
                }
            }
        }
    }
    code
}

/// A/A self-check: two interleaved sets (`A`, `B`) of `n` full runs of
/// this binary, seeds `seed..seed+n`. For every (workload, end-to-end
/// metric) prints both medians, their relative difference, each set's
/// run-to-run spread (interquartile range over median) and the bound.
/// Fails if a difference in the worse direction exceeds its bound.
pub fn run_aa(args: &Args, n: usize) -> i32 {
    // (workload, metric) → values of set A, values of set B.
    let mut sets: BTreeMap<(&str, &str), [Vec<f64>; 2]> = BTreeMap::new();
    for i in 0..n {
        // Alternate which set goes first, so drift favours neither.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for w in ALL_WORKLOADS {
                let r = match run_child(w, args, args.seed + i as u64, false) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("ec-perfbench: {e}");
                        return 1;
                    }
                };
                for (name, ..) in END_TO_END {
                    sets.entry((w.name(), name)).or_default()[set].push(r.values[*name]);
                }
            }
            eprintln!(
                "ec-perfbench: A/A pair {} of {n}, set {}",
                i + 1,
                ["A", "B"][set]
            );
        }
    }
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "diff %", "spread A%", "spread B%", "bound %"
    );
    let mut code = 0;
    for w in ALL_WORKLOADS {
        for (name, _, better, bound) in END_TO_END {
            let [a, b] = &sets[&(w.name(), *name)];
            let (ma, mb) = (median(&mut a.clone()), median(&mut b.clone()));
            let diff = (mb - ma) / ma;
            let worse = if *better == "higher" { -diff } else { diff };
            let verdict = if worse.abs() > *bound {
                code = 1;
                "  EXCEEDS BOUND"
            } else {
                ""
            };
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>8.2} {:>9.2} {:>9.2} {:>7.1}{verdict}",
                w.name(),
                name,
                ma,
                mb,
                diff * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
                bound * 100.0,
            );
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string value of `"key": "…"` in one flat JSON object.
    fn string_field<'a>(object: &'a str, key: &str) -> &'a str {
        let at = object
            .find(&format!("\"{key}\": \""))
            .unwrap_or_else(|| panic!("no {key} in {object}"));
        let rest = &object[at + key.len() + 5..];
        &rest[..rest.find('"').expect("string closes")]
    }

    /// The objects of the array that follows `"section": [`.
    fn section<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
        let start = json
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{').skip(1).collect()
    }

    /// `BENCHMARK.json` is the contract the driver reads; the tables
    /// above are what the binary reports and `--aa` judges by. They
    /// must say the same thing.
    #[test]
    fn tables_mirror_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = section(json, "end_to_end");
        assert_eq!(declared.len(), END_TO_END.len());
        for (object, (name, unit, better, bound)) in declared.iter().zip(END_TO_END) {
            assert_eq!(string_field(object, "name"), *name);
            assert_eq!(string_field(object, "unit"), *unit, "{name}");
            assert_eq!(string_field(object, "better"), *better, "{name}");
            let at = object.find("\"bound\": ").expect("bound") + 9;
            let number: String = object[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            assert_eq!(number.parse::<f64>().expect("bound"), *bound, "{name}");
            assert!(*bound <= 0.25, "{name}");
        }
        let declared = section(json, "per_layer");
        assert_eq!(declared.len(), PER_LAYER.len());
        for (object, (name, unit, better)) in declared.iter().zip(PER_LAYER) {
            assert_eq!(string_field(object, "name"), *name);
            assert_eq!(string_field(object, "unit"), *unit, "{name}");
            assert_eq!(string_field(object, "better"), *better, "{name}");
        }
        let names: Vec<&str> = section(json, "workloads")
            .iter()
            .map(|object| string_field(object, "name"))
            .collect();
        assert_eq!(names, ALL_WORKLOADS.map(Workload::name));
    }
}
