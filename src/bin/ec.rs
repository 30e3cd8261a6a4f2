//! `ec` — command-line front end for the event-correlation engine.
//!
//! ```text
//! ec run <spec.xml> [--threads N] [--phases N] [--sequential] [--quiet]
//! ec stream <spec.xml> [--threads N] [--epoch-count N | --epoch-ms N]
//!           [--checkpoint DIR [--snapshot-every N]]
//!           [--metrics ADDR] [--trace FILE] [--quiet]
//! ec sessions <spec.xml>... [--threads N] [--epoch-count N]
//!             [--root DIR] [--weight NAME=W] [--metrics ADDR] [--quiet]
//! ec trace <spec.xml> [stream flags] [--out FILE]
//! ec top <addr> [--interval MS] [--once]
//! ec doctor <addr> [--quiet]
//! ec recover <dir> <spec.xml> [--quiet]
//! ec validate <spec.xml>
//! ec dot <spec.xml>
//! ec demo
//! ```
//!
//! `run` executes a computation spec and prints metrics and sink
//! outputs; `stream` serves a spec live, reading CSV/NDJSON events from
//! stdin and printing sink alarms as their phases retire — with
//! `--checkpoint` the run is durable (write-ahead log + operator
//! snapshots) and restarting the same command resumes at the next
//! phase, with `--metrics` it serves live Prometheus exposition and
//! with `--trace` it records a flight-recorder timeline and writes
//! Chrome `chrome://tracing` JSON at shutdown; `sessions` serves
//! several specs as tenant sessions on one shared worker pool (events
//! are prefixed with the session name; with `--root` every tenant is
//! durable and restartable independently; `--metrics` exposes
//! per-tenant rows); `trace` is `stream` with the recorder always on,
//! writing the timeline to `--out`; `top` polls a `/metrics` endpoint
//! and renders a live one-screen summary; `doctor` fetches a runtime's
//! `/healthz` watchdog report and exits nonzero unless the verdict is
//! healthy; `recover` inspects a store,
//! prints the resumable phase and replays the logged tail through the
//! sequential oracle; `validate` checks the spec, graph and numbering;
//! `dot` emits Graphviz for the spec's graph; `demo` runs a built-in
//! correlator.

use event_correlation::core::EngineError;
use event_correlation::events::Value;
use event_correlation::graph::{dot, Numbering, Topology};
use event_correlation::runtime::{Backpressure, EpochPolicy, PushError, StreamRuntimeBuilder};
use event_correlation::spec::{load_file, LoadedSpec};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  ec run <spec.xml> [--threads N] [--phases N] [--sequential] [--quiet]
  ec stream <spec.xml> [--threads N] [--epoch-count N | --epoch-ms N]
            [--capacity N] [--reject] [--quiet]
            [--checkpoint DIR] [--snapshot-every N]
            [--metrics ADDR] [--trace FILE]
  ec sessions <spec.xml>... [--threads N] [--epoch-count N]
              [--root DIR] [--weight NAME=W] [--metrics ADDR] [--quiet]
  ec serve <spec.xml>... [--addr ADDR] [--threads N]
           [--epoch-count N | --epoch-ms N] [--capacity N] [--block]
           [--root DIR] [--weight NAME=W] [--metrics ADDR]
           [--token TOK] [--quiet]
  ec push <addr> <tenant> [--token TOK] [--batch N] [--quiet]
          [--retry N] [--session ID]
  ec trace <spec.xml> [stream flags] [--out FILE]
  ec top <addr> [--interval MS] [--once]
  ec doctor <addr> [--quiet]
  ec recover <dir> <spec.xml> [--quiet]
  ec store <dir> <inspect|verify|compact>
  ec validate <spec.xml>
  ec dot <spec.xml>
  ec demo

stream input (stdin), one event per line:
  source,value             CSV
  {\"source\": s, \"value\": v} NDJSON
  (blank line)             seal the current epoch (even an empty one)

sessions input (stdin), one event per line (session = spec file stem):
  session,source,value     CSV
  (blank line)             seal every session's epoch

durability: --checkpoint makes the stream durable (or use the spec's
  <durability dir=... snapshot-every=.../> element); rerunning the same
  command resumes at the exact next phase. `ec recover` inspects the
  store and replays the tail through the sequential oracle. `ec store`
  works on the store alone: inspect lists segments and snapshots,
  verify CRC-walks every file (nonzero exit on corruption), compact
  drops segments a snapshot already covers. For
  `ec sessions`, --root DIR namespaces an independent store per
  session under DIR; rerunning restores every tenant.

serving: `ec serve` binds a TCP wire endpoint (--addr, default
  127.0.0.1:0) in front of one session per spec (tenant = spec file
  stem) and runs until stdin closes or a client sends a Shutdown
  frame. Connections speak the length-prefixed, CRC-framed binary
  protocol (see README \"Serving\"): producers push event batches and
  get explicit FlowControl backpressure frames; subscribers stream
  retired-phase alarms in serial order. --token TOK requires clients
  to authenticate; --root DIR makes every tenant durable. `ec push`
  is the matching producer client: stdin lines as in `ec stream`
  (CSV/NDJSON, blank line seals), batched over the wire (--batch,
  default 256). With --retry N a dropped connection is redialed up to
  N times (bounded exponential backoff with jitter) under a resumable
  session (--session ID, or an auto-generated id): the client replays
  its unacked suffix and the server's per-source dedup window commits
  every acknowledged batch exactly once — reconnects never duplicate
  and never reorder a source's events. On SIGTERM/SIGINT or stdin
  EOF, `ec serve` drains instead of dropping: new sessions are
  refused, acknowledged events are flushed and committed, and
  subscribers get a Goodbye once the alarm stream is complete.

observability: --metrics ADDR (e.g. 127.0.0.1:9184, port 0 for
  ephemeral) serves Prometheus text exposition at /metrics; watch it
  live with `ec top ADDR`. The same endpoint serves the watchdog's
  health report at /healthz — `ec doctor ADDR` prints it and exits
  nonzero unless the verdict is ok. --trace FILE (or
  `ec trace ... --out FILE`) keeps a per-worker flight recorder on and
  writes the timeline as Chrome trace JSON on shutdown — open it at
  chrome://tracing.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("sessions") => cmd_sessions(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("push") => cmd_push(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("doctor") => cmd_doctor(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct RunOpts {
    spec_path: String,
    threads: Option<usize>,
    phases: Option<u64>,
    sequential: bool,
    quiet: bool,
}

fn parse_run_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        spec_path: String::new(),
        threads: None,
        phases: None,
        sequential: false,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                opts.threads = Some(v.parse().map_err(|_| format!("bad thread count {v:?}"))?);
            }
            "--phases" => {
                let v = it.next().ok_or("--phases needs a value")?;
                opts.phases = Some(v.parse().map_err(|_| format!("bad phase count {v:?}"))?);
            }
            "--sequential" => opts.sequential = true,
            "--quiet" => opts.quiet = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            path => {
                if !opts.spec_path.is_empty() {
                    return Err(format!("unexpected extra argument {path:?}"));
                }
                opts.spec_path = path.to_string();
            }
        }
    }
    if opts.spec_path.is_empty() {
        return Err(format!("missing spec path\n{USAGE}"));
    }
    Ok(opts)
}

fn load(path: &str) -> Result<LoadedSpec, String> {
    load_file(path).map_err(|e| format!("loading {path:?}: {e}"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let opts = parse_run_opts(args)?;
    let loaded = load(&opts.spec_path)?;
    let phases = opts.phases.unwrap_or(loaded.settings.phases);
    let threads = opts.threads.unwrap_or(loaded.settings.threads);
    let mut handles: Vec<(String, _)> = loaded
        .handles
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    handles.sort_by(|a, b| a.0.cmp(&b.0));

    let history = if opts.sequential {
        let mut seq = loaded
            .sequential()
            .map_err(|e| format!("building sequential executor: {e}"))?;
        seq.run(phases).map_err(fmt_engine_err)?;
        println!(
            "sequential run: {phases} phases, {} executions, {} messages",
            seq.executions, seq.messages_sent
        );
        seq.into_history()
    } else {
        let mut engine = loaded
            .engine()
            .threads(threads)
            .build()
            .map_err(fmt_engine_err)?;
        let report = engine.run(phases).map_err(fmt_engine_err)?;
        let m = &report.metrics;
        println!(
            "parallel run: {phases} phases on {threads} threads, {} executions, \
             {} messages, {} silent",
            m.executions, m.messages_sent, m.silent_executions
        );
        println!(
            "pipelining: max {} / mean {:.2} concurrent phases; \
             bookkeeping/compute ratio {:.3}",
            m.max_concurrent_phases,
            m.mean_concurrent_phases(),
            m.bookkeeping_ratio()
        );
        report.history.ok_or("history missing")?
    };

    if !opts.quiet {
        for (id, handle) in handles {
            let outs = history.sink_outputs_of(handle.vertex());
            if !outs.is_empty() {
                println!("\n{id}: {} output(s)", outs.len());
                for (phase, value) in outs.iter().take(20) {
                    println!("  phase {phase}: {value}");
                }
                if outs.len() > 20 {
                    println!("  … {} more", outs.len() - 20);
                }
            }
        }
    }
    Ok(())
}

struct StreamOpts {
    spec_path: String,
    threads: Option<usize>,
    epoch_count: Option<usize>,
    epoch_ms: Option<u64>,
    capacity: Option<usize>,
    reject: bool,
    quiet: bool,
    checkpoint: Option<String>,
    snapshot_every: Option<u64>,
    metrics: Option<String>,
    trace_out: Option<String>,
}

/// Ring capacity (events per worker lane) of the CLI flight recorder.
const TRACE_CAPACITY: usize = 8192;

fn parse_stream_opts(args: &[String]) -> Result<StreamOpts, String> {
    let mut opts = StreamOpts {
        spec_path: String::new(),
        threads: None,
        epoch_count: None,
        epoch_ms: None,
        capacity: None,
        reject: false,
        quiet: false,
        checkpoint: None,
        snapshot_every: None,
        metrics: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
        };
        match arg.as_str() {
            "--threads" => opts.threads = Some(num("--threads")? as usize),
            "--epoch-count" => opts.epoch_count = Some(num("--epoch-count")? as usize),
            "--epoch-ms" => opts.epoch_ms = Some(num("--epoch-ms")?),
            "--capacity" => opts.capacity = Some(num("--capacity")? as usize),
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a directory")?;
                opts.checkpoint = Some(v.clone());
            }
            "--snapshot-every" => opts.snapshot_every = Some(num("--snapshot-every")?),
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs an address")?;
                opts.metrics = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file")?;
                opts.trace_out = Some(v.clone());
            }
            "--reject" => opts.reject = true,
            "--quiet" => opts.quiet = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            path => {
                if !opts.spec_path.is_empty() {
                    return Err(format!("unexpected extra argument {path:?}"));
                }
                opts.spec_path = path.to_string();
            }
        }
    }
    if opts.spec_path.is_empty() {
        return Err(format!("missing spec path\n{USAGE}"));
    }
    if opts.epoch_count.is_some() && opts.epoch_ms.is_some() {
        return Err("--epoch-count and --epoch-ms are mutually exclusive".into());
    }
    Ok(opts)
}

/// Parses an event line: `source,value` CSV or
/// `{"source": ..., "value": ...}` NDJSON. Returns `(source, value)`.
fn parse_event_line(line: &str) -> Result<(String, Value), String> {
    let line = line.trim();
    if line.starts_with('{') {
        let source = json_field(line, "source")?;
        let value = json_field(line, "value")?;
        Ok((unquote(&source), parse_value(&value)))
    } else {
        let (source, value) = line
            .split_once(',')
            .ok_or_else(|| format!("expected source,value: {line:?}"))?;
        Ok((source.trim().to_string(), parse_value(value.trim())))
    }
}

/// Extracts the raw text of one field from a flat JSON object. Minimal
/// by design (no external deps): handles string, number and boolean
/// values, and quoted keys in any order.
fn json_field(obj: &str, key: &str) -> Result<String, String> {
    let needle = format!("\"{key}\"");
    let at = obj
        .find(&needle)
        .ok_or_else(|| format!("missing {key:?} in {obj:?}"))?;
    let rest = &obj[at + needle.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("expected ':' after {key:?}"))?
        .trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped
            .find('"')
            .ok_or_else(|| format!("unterminated string for {key:?}"))?;
        Ok(format!("\"{}\"", &stripped[..end]))
    } else {
        let end = rest
            .find([',', '}'])
            .ok_or_else(|| format!("unterminated value for {key:?}"))?;
        Ok(rest[..end].trim().to_string())
    }
}

fn unquote(s: &str) -> String {
    s.trim_matches('"').to_string()
}

fn parse_value(raw: &str) -> Value {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        return Value::text(stripped.trim_end_matches('"'));
    }
    match raw {
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Value::Float(f);
    }
    Value::text(raw)
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    use std::io::BufRead;

    let opts = parse_stream_opts(args)?;
    let doc = std::fs::read_to_string(&opts.spec_path)
        .map_err(|e| format!("reading {:?}: {e}", opts.spec_path))?;
    let live = event_correlation::spec::load_str_live(&doc)
        .map_err(|e| format!("loading {:?}: {e}", opts.spec_path))?;
    let settings = live.settings.clone();

    let policy = if let Some(n) = opts.epoch_count {
        EpochPolicy::ByCount(n.max(1))
    } else if let Some(ms) = opts.epoch_ms {
        EpochPolicy::ByInterval(std::time::Duration::from_millis(ms.max(1)))
    } else {
        EpochPolicy::Manual
    };
    // Durability: the --checkpoint flag wins, the spec's <durability>
    // element is the default. --snapshot-every overrides either.
    let (store_dir, mut snapshot_every, snapshot_on_flush) =
        match (&opts.checkpoint, &live.durability) {
            (Some(dir), d) => (
                Some(dir.clone()),
                d.as_ref().and_then(|d| d.snapshot_every),
                d.as_ref().is_some_and(|d| d.on_flush),
            ),
            (None, Some(d)) => (Some(d.dir.clone()), d.snapshot_every, d.on_flush),
            (None, None) => (None, None, false),
        };
    if opts.snapshot_every.is_some() {
        snapshot_every = opts.snapshot_every;
    }

    let mut builder = StreamRuntimeBuilder::from_correlator(live.builder, live.feeds)
        .threads(opts.threads.unwrap_or(settings.threads))
        .max_inflight(settings.max_inflight)
        .epoch_policy(policy)
        .record_history(false)
        .record_script(false)
        .subscribe(|e| {
            println!("[phase {}] {} = {}", e.phase, e.name, e.value);
        });
    if let Some(capacity) = opts.capacity {
        builder = builder.ingest_capacity(capacity);
    }
    if opts.reject {
        builder = builder.backpressure(Backpressure::Reject);
    }
    if let Some(addr) = &opts.metrics {
        builder = builder.metrics_addr(addr);
    }
    if opts.trace_out.is_some() {
        builder = builder.flight_recorder(TRACE_CAPACITY);
    }
    let rt = if let Some(dir) = &store_dir {
        builder = builder.durable(dir);
        if let Some(every) = snapshot_every {
            builder = builder.snapshot_every(every);
        }
        builder = builder.snapshot_on_flush(snapshot_on_flush);
        builder.build_or_restore().map_err(|e| e.to_string())?
    } else {
        builder.build().map_err(|e| e.to_string())?
    };
    if let Some(dir) = &store_dir {
        if !opts.quiet {
            eprintln!(
                "durable store {dir:?}: resuming at phase {}",
                rt.admitted() + 1
            );
        }
    }

    if let Some(addr) = rt.metrics_addr() {
        if !opts.quiet {
            eprintln!("metrics endpoint: http://{addr}/metrics (try `ec top {addr}`)");
        }
    }

    let names = rt.live_source_names();
    if !opts.quiet {
        eprintln!(
            "streaming {:?}: live sources {:?}, epoch policy {policy:?}",
            opts.spec_path, names
        );
    }
    let mut handles = std::collections::HashMap::new();
    for name in &names {
        handles.insert(
            name.clone(),
            rt.handle_by_name(name).map_err(|e| e.to_string())?,
        );
    }

    let stdin = std::io::stdin();
    let mut events: u64 = 0;
    let mut skipped: u64 = 0;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        if line.trim().is_empty() {
            // A blank line is an explicit epoch boundary: tick, not
            // flush, so it commits a phase even with nothing buffered
            // (scripted sources still advance).
            rt.tick().map_err(|e| e.to_string())?;
            continue;
        }
        match parse_event_line(&line) {
            Ok((source, value)) => match handles.get(&source) {
                Some(handle) => {
                    // This thread is the only sealer under the manual
                    // policy, so a full queue must be flushed here —
                    // blocking in push would deadlock the stream. Under
                    // --reject the queue is left full so overflow drops
                    // (that mode's contract).
                    if !opts.reject && handle.buffered() >= handle.capacity() {
                        rt.flush().map_err(|e| e.to_string())?;
                    }
                    match handle.push(value) {
                        Ok(()) => events += 1,
                        Err(PushError::Full) => {
                            skipped += 1;
                            eprintln!("warning: {source:?} queue full, event dropped");
                        }
                        Err(e) => return Err(e.to_string()),
                    }
                }
                None => {
                    skipped += 1;
                    eprintln!("warning: unknown source {source:?}, event dropped");
                }
            },
            Err(msg) => {
                skipped += 1;
                eprintln!("warning: {msg}, line dropped");
            }
        }
    }
    // Dump the flight-recorder timeline before shutdown consumes the
    // runtime (draining leaves the rings empty, which is fine: the
    // process is exiting). Quiesce first so the tail of the input —
    // including its retirements — is on the timeline.
    if let Some(path) = &opts.trace_out {
        rt.flush().map_err(|e| e.to_string())?;
        rt.wait_idle().map_err(|e| e.to_string())?;
        let trace = rt.dump_trace().ok_or("flight recorder missing")?;
        std::fs::write(path, &trace).map_err(|e| format!("writing {path:?}: {e}"))?;
        if !opts.quiet {
            eprintln!(
                "trace written to {path} ({} bytes) — open chrome://tracing",
                trace.len()
            );
        }
    }
    let report = rt.shutdown().map_err(|e| e.to_string())?;
    if !opts.quiet {
        eprintln!(
            "stream done: {events} events in, {skipped} dropped, {} phases, \
             {} executions, {} sink outputs",
            report.phases, report.metrics.executions, report.metrics.sink_outputs
        );
    }
    Ok(())
}

/// `ec trace` — `ec stream` with the flight recorder always on and the
/// Chrome trace written to `--out FILE` (default `trace.json`).
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut rewritten: Vec<String> = Vec::with_capacity(args.len() + 2);
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" || arg == "--trace" {
            let v = it.next().ok_or(format!("{arg} needs a file"))?;
            out = Some(v.clone());
        } else {
            rewritten.push(arg.clone());
        }
    }
    rewritten.push("--trace".into());
    rewritten.push(out.unwrap_or_else(|| "trace.json".into()));
    cmd_stream(&rewritten)
}

/// One parsed Prometheus sample from a text-exposition page.
struct PromSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses Prometheus text exposition into samples, skipping comments
/// and anything unparsable (`ec top` is a viewer, not a validator).
fn parse_exposition(body: &str) -> Vec<PromSample> {
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let body = rest.strip_suffix('}').unwrap_or(rest);
                let labels = body
                    .split(',')
                    .filter_map(|kv| {
                        let (k, v) = kv.split_once('=')?;
                        Some((k.trim().to_string(), v.trim().trim_matches('"').to_string()))
                    })
                    .collect();
                (n.to_string(), labels)
            }
            None => (series.to_string(), Vec::new()),
        };
        out.push(PromSample {
            name,
            labels,
            value,
        });
    }
    out
}

/// Sum of every sample named `name`, across all label sets — on a
/// session endpoint this aggregates the tenant rows.
fn prom_sum(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Worst (largest) value of quantile `q` of the summary `name` across
/// label sets.
fn prom_quantile(samples: &[PromSample], name: &str, q: &str) -> Option<f64> {
    samples
        .iter()
        .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "quantile" && v == q))
        .map(|s| s.value)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        })
}

/// Human-readable seconds: `1.23s`, `4.5ms`, `6.7us`, `890ns`.
fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.1}ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.1}us", secs * 1e6)
    } else {
        format!("{:.0}ns", secs * 1e9)
    }
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut addr = String::new();
    let mut interval_ms: u64 = 2000;
    let mut once = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => {
                let v = it.next().ok_or("--interval needs milliseconds")?;
                interval_ms = v.parse().map_err(|_| format!("bad interval {v:?}"))?;
            }
            "--once" => once = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            a => {
                if !addr.is_empty() {
                    return Err(format!("unexpected extra argument {a:?}"));
                }
                addr = a.to_string();
            }
        }
    }
    if addr.is_empty() {
        return Err(format!("missing metrics address\n{USAGE}"));
    }

    let mut prev: Option<TopFrame> = None;
    loop {
        let body = event_correlation::obs::http_get(&addr, "/metrics").map_err(|e| {
            format!("fetching http://{addr}/metrics: {e} (is the runtime up with --metrics?)")
        })?;
        let samples = parse_exposition(&body);
        let frame = TopFrame {
            sealed: prom_sum(&samples, "ec_seal_events_total"),
            session_events: samples
                .iter()
                .filter(|s| s.name == "ec_session_events_committed_total")
                .filter_map(|s| {
                    let session = s.labels.iter().find(|(k, _)| k == "session")?;
                    Some((session.1.clone(), s.value))
                })
                .collect(),
            at: std::time::Instant::now(),
        };
        // Rates are deltas against the previous refresh, so they track
        // *current* throughput rather than the lifetime average.
        let (rate, session_rates) = match &prev {
            Some(last) => {
                let dt = frame.at.duration_since(last.at).as_secs_f64().max(1e-9);
                let per_session = frame
                    .session_events
                    .iter()
                    .map(|(name, events)| {
                        let before = last.session_events.get(name).copied().unwrap_or(0.0);
                        (name.clone(), (events - before) / dt)
                    })
                    .collect();
                (Some((frame.sealed - last.sealed) / dt), per_session)
            }
            None => (None, std::collections::HashMap::new()),
        };
        prev = Some(frame);
        render_top(&addr, &samples, rate, &session_rates);
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

/// Counter values remembered between `ec top` refreshes (rate deltas).
struct TopFrame {
    sealed: f64,
    session_events: std::collections::HashMap<String, f64>,
    at: std::time::Instant,
}

/// Fetches `/healthz` from a runtime's metrics endpoint, prints the
/// watchdog report and exits nonzero unless every verdict is ok.
fn cmd_doctor(args: &[String]) -> Result<(), String> {
    let mut addr = String::new();
    let mut quiet = false;
    for arg in args {
        match arg.as_str() {
            "--quiet" => quiet = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            a => {
                if !addr.is_empty() {
                    return Err(format!("unexpected extra argument {a:?}"));
                }
                addr = a.to_string();
            }
        }
    }
    if addr.is_empty() {
        return Err(format!("missing metrics address\n{USAGE}"));
    }
    let body = event_correlation::obs::http_get(&addr, "/healthz").map_err(|e| {
        format!("fetching http://{addr}/healthz: {e} (is the runtime up with --metrics?)")
    })?;
    if !quiet {
        println!("{body}");
    }
    let verdict = json_field(&body, "verdict").map(|v| unquote(&v))?;
    let mut reasons = Vec::new();
    for chunk in body.split("\"reasons\":[").skip(1) {
        let end = chunk.find(']').unwrap_or(chunk.len());
        for reason in chunk[..end].split("\",\"") {
            let reason = reason.trim_matches('"');
            if !reason.is_empty() {
                reasons.push(reason.to_string());
            }
        }
    }
    match verdict.as_str() {
        "ok" => {
            println!("healthy: verdict ok");
            Ok(())
        }
        other => {
            for reason in &reasons {
                eprintln!("  - {reason}");
            }
            Err(format!("health verdict: {other}"))
        }
    }
}

/// Renders one `ec top` frame from a scraped sample set.
fn render_top(
    addr: &str,
    samples: &[PromSample],
    rate: Option<f64>,
    session_rates: &std::collections::HashMap<String, f64>,
) {
    let g = |name: &str| prom_sum(samples, name);
    let rate = rate.map_or(String::new(), |r| format!("   {r:.0} ev/s"));
    println!("ec top {addr} — {} samples", samples.len());
    println!(
        "  phases   started {:.0}   completed {:.0}   max pipeline depth {:.0}",
        g("ec_phases_started_total"),
        g("ec_phases_completed_total"),
        g("ec_pipeline_depth_max"),
    );
    println!(
        "  events   sealed {:.0}{rate}   executions {:.0} ({:.0} silent)   \
         messages {:.0}   sinks {:.0}",
        g("ec_seal_events_total"),
        g("ec_executions_total"),
        g("ec_silent_executions_total"),
        g("ec_messages_total"),
        g("ec_sink_outputs_total"),
    );
    println!(
        "  sched    steals {:.0}   parks {:.0}   wakes {:.0}   injector {:.0}",
        g("ec_steals_total"),
        g("ec_parks_total"),
        g("ec_wakes_total"),
        g("ec_injector_depth"),
    );
    println!(
        "  ingest   depth {:.0}   waits {:.0}   seal batches {:.0}",
        g("ec_ingest_depth"),
        g("ec_ingest_waits_total"),
        g("ec_seal_batches_total"),
    );
    for (label, series) in [
        ("phase", "ec_phase_seconds"),
        ("exec", "ec_exec_seconds"),
        ("wal", "ec_wal_commit_seconds"),
        ("in-wait", "ec_ingest_wait_seconds"),
        ("e2e", "ec_e2e_seconds"),
        ("wire-hop", "ec_wire_alarm_hop_seconds"),
    ] {
        let count = prom_sum(samples, &format!("{series}_count"));
        if count == 0.0 {
            continue;
        }
        let q = |q: &str| prom_quantile(samples, series, q).map_or_else(|| "-".into(), fmt_secs);
        println!(
            "  {label:<8} p50 {}   p95 {}   p99 {}   max {}   (n={count:.0})",
            q("0.5"),
            q("0.95"),
            q("0.99"),
            q("1"),
        );
    }
    // Per-tenant rows, present when the endpoint is a SessionPool's.
    let mut tenants: Vec<&PromSample> = samples
        .iter()
        .filter(|s| s.name == "ec_session_events_per_sec")
        .collect();
    let session_of = |s: &PromSample| {
        s.labels
            .iter()
            .find(|(k, _)| k == "session")
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    tenants.sort_by_key(|s| session_of(s));
    for t in tenants {
        let session = session_of(t);
        let f = |name: &str| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels
                            .iter()
                            .any(|(k, v)| k == "session" && *v == session)
                })
                .map_or(0.0, |s| s.value)
        };
        // Per-tenant e2e quantiles from the merged session summary.
        let q = |q: &str| {
            samples
                .iter()
                .find(|s| {
                    s.name == "ec_session_e2e_seconds"
                        && s.labels
                            .iter()
                            .any(|(k, v)| k == "session" && *v == session)
                        && s.labels.iter().any(|(k, v)| k == "quantile" && v == q)
                })
                .map_or_else(|| "-".into(), |s| fmt_secs(s.value))
        };
        let delta = session_rates
            .get(&session)
            .map_or(String::new(), |r| format!(", {r:.0} ev/s now"));
        println!(
            "  session {session}: {:.0} phases retired, {:.0} events, {:.0} ev/s{delta}, \
             {:.0} in flight, e2e p95 {} p99 {}",
            f("ec_session_phases_retired_total"),
            f("ec_session_events_committed_total"),
            t.value,
            f("ec_session_inflight"),
            q("0.95"),
            q("0.99"),
        );
    }
    println!();
}

struct SessionsOpts {
    spec_paths: Vec<String>,
    threads: Option<usize>,
    epoch_count: Option<usize>,
    root: Option<String>,
    weights: Vec<(String, u32)>,
    metrics: Option<String>,
    quiet: bool,
}

fn parse_sessions_opts(args: &[String]) -> Result<SessionsOpts, String> {
    let mut opts = SessionsOpts {
        spec_paths: Vec::new(),
        threads: None,
        epoch_count: None,
        root: None,
        weights: Vec::new(),
        metrics: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
        };
        match arg.as_str() {
            "--threads" => opts.threads = Some(num("--threads")? as usize),
            "--epoch-count" => opts.epoch_count = Some(num("--epoch-count")? as usize),
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                opts.root = Some(v.clone());
            }
            "--weight" => {
                let v = it.next().ok_or("--weight needs NAME=W")?;
                let (name, w) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--weight expects NAME=W, got {v:?}"))?;
                let w: u32 = w.parse().map_err(|_| format!("bad weight in {v:?}"))?;
                opts.weights.push((name.to_string(), w));
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs an address")?;
                opts.metrics = Some(v.clone());
            }
            "--quiet" => opts.quiet = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            path => opts.spec_paths.push(path.to_string()),
        }
    }
    if opts.spec_paths.is_empty() {
        return Err(format!("missing spec paths\n{USAGE}"));
    }
    Ok(opts)
}

/// Session name for a spec path: the file stem.
fn session_name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

fn cmd_sessions(args: &[String]) -> Result<(), String> {
    use event_correlation::runtime::SessionPool;
    use std::io::BufRead;

    let opts = parse_sessions_opts(args)?;
    let names: Vec<String> = opts.spec_paths.iter().map(|p| session_name(p)).collect();
    {
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != names.len() {
            return Err(format!(
                "session names (spec file stems) must be unique, got {names:?}"
            ));
        }
    }
    // A --weight for a session that does not exist is almost certainly
    // a typo; failing beats silently running with the default weight.
    for (weight_name, _) in &opts.weights {
        if !names.iter().any(|n| n == weight_name) {
            return Err(format!(
                "--weight names unknown session {weight_name:?} (sessions: {names:?})"
            ));
        }
    }

    let mut pool_builder = SessionPool::builder()
        .threads(opts.threads.unwrap_or(4))
        .max_sessions(opts.spec_paths.len());
    if let Some(root) = &opts.root {
        pool_builder = pool_builder.durable_root(root);
    }
    let pool = pool_builder.build();
    if let Some(addr) = &opts.metrics {
        let bound = pool.serve_metrics(addr).map_err(|e| e.to_string())?;
        if !opts.quiet {
            eprintln!("metrics endpoint: http://{bound}/metrics (try `ec top {bound}`)");
        }
    }

    let mut sessions = std::collections::HashMap::new();
    for (path, name) in opts.spec_paths.iter().zip(&names) {
        let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
        let live = event_correlation::spec::load_str_live(&doc)
            .map_err(|e| format!("loading {path:?}: {e}"))?;
        let mut builder = StreamRuntimeBuilder::from_correlator(live.builder, live.feeds)
            .max_inflight(live.settings.max_inflight)
            .record_history(false)
            .record_script(false);
        if let Some(n) = opts.epoch_count {
            builder = builder.epoch_policy(EpochPolicy::ByCount(n.max(1)));
        }
        // Last --weight wins when a name is repeated.
        if let Some(&(_, w)) = opts.weights.iter().rev().find(|(n, _)| n == name) {
            builder = builder.pool_weight(w);
        }
        let tag = name.clone();
        builder = builder.subscribe(move |e| {
            println!("[{tag} phase {}] {} = {}", e.phase, e.name, e.value);
        });
        let session = pool
            .open(name.clone(), builder)
            .map_err(|e| format!("opening session {name:?}: {e}"))?;
        if !opts.quiet {
            eprintln!(
                "session {name:?} ({path}): live sources {:?}, resuming at phase {}",
                session.live_source_names(),
                session.admitted() + 1
            );
        }
        sessions.insert(name.clone(), session);
    }
    if !opts.quiet {
        eprintln!(
            "serving {} session(s) on {} shared worker(s)",
            sessions.len(),
            pool.threads()
        );
    }

    let stdin = std::io::stdin();
    let mut events: u64 = 0;
    let mut skipped: u64 = 0;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        if line.trim().is_empty() {
            for session in sessions.values() {
                session.tick().map_err(|e| e.to_string())?;
            }
            continue;
        }
        let Some((session_name, rest)) = line.split_once(',') else {
            skipped += 1;
            eprintln!("warning: expected session,source,value: {line:?}, line dropped");
            continue;
        };
        let Some(session) = sessions.get(session_name.trim()) else {
            skipped += 1;
            eprintln!("warning: unknown session {session_name:?}, event dropped");
            continue;
        };
        match parse_event_line(rest) {
            Ok((source, value)) => match session.handle_by_name(&source) {
                Ok(handle) => {
                    // The manual policy's only sealer is this thread:
                    // flush a full queue here instead of blocking.
                    if handle.buffered() >= handle.capacity() {
                        session.flush().map_err(|e| e.to_string())?;
                    }
                    handle.push(value).map_err(|e| e.to_string())?;
                    events += 1;
                }
                Err(_) => {
                    skipped += 1;
                    eprintln!("warning: unknown source {source:?}, event dropped");
                }
            },
            Err(msg) => {
                skipped += 1;
                eprintln!("warning: {msg}, line dropped");
            }
        }
    }

    // Final seal + per-tenant summary rows, then clean shutdown.
    for session in sessions.values() {
        session.flush().map_err(|e| e.to_string())?;
        session.wait_idle().map_err(|e| e.to_string())?;
    }
    if !opts.quiet {
        eprintln!("sessions done: {events} events in, {skipped} dropped");
        let mut rows = pool.metrics();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        for row in rows {
            eprintln!(
                "  {}: {} phases retired, {} events, {} executions, {:.0} ev/s",
                row.name,
                row.phases_retired,
                row.events_committed,
                row.engine.executions,
                row.events_per_sec
            );
        }
    }
    for (_, session) in sessions.drain() {
        session.close().map_err(|e| e.to_string())?;
    }
    Ok(())
}

struct ServeOpts {
    spec_paths: Vec<String>,
    addr: String,
    threads: Option<usize>,
    epoch_count: Option<usize>,
    epoch_ms: Option<u64>,
    capacity: Option<usize>,
    block: bool,
    root: Option<String>,
    weights: Vec<(String, u32)>,
    metrics: Option<String>,
    token: Option<String>,
    quiet: bool,
}

fn parse_serve_opts(args: &[String]) -> Result<ServeOpts, String> {
    let mut opts = ServeOpts {
        spec_paths: Vec::new(),
        addr: "127.0.0.1:0".into(),
        threads: None,
        epoch_count: None,
        epoch_ms: None,
        capacity: None,
        block: false,
        root: None,
        weights: Vec::new(),
        metrics: None,
        token: None,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
        };
        match arg.as_str() {
            "--addr" => {
                let v = it.next().ok_or("--addr needs an address")?;
                opts.addr = v.clone();
            }
            "--threads" => opts.threads = Some(num("--threads")? as usize),
            "--epoch-count" => opts.epoch_count = Some(num("--epoch-count")? as usize),
            "--epoch-ms" => opts.epoch_ms = Some(num("--epoch-ms")?),
            "--capacity" => opts.capacity = Some(num("--capacity")? as usize),
            "--block" => opts.block = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                opts.root = Some(v.clone());
            }
            "--weight" => {
                let v = it.next().ok_or("--weight needs NAME=W")?;
                let (name, w) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--weight expects NAME=W, got {v:?}"))?;
                let w: u32 = w.parse().map_err(|_| format!("bad weight in {v:?}"))?;
                opts.weights.push((name.to_string(), w));
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs an address")?;
                opts.metrics = Some(v.clone());
            }
            "--token" => {
                let v = it.next().ok_or("--token needs a value")?;
                opts.token = Some(v.clone());
            }
            "--quiet" => opts.quiet = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            path => opts.spec_paths.push(path.to_string()),
        }
    }
    if opts.spec_paths.is_empty() {
        return Err(format!("missing spec paths\n{USAGE}"));
    }
    if opts.epoch_count.is_some() && opts.epoch_ms.is_some() {
        return Err("--epoch-count and --epoch-ms are mutually exclusive".into());
    }
    Ok(opts)
}

/// Termination-signal latch for `ec serve`: SIGTERM/SIGINT set a flag
/// the serve loop polls, turning supervisor stops into graceful
/// drains. Raw `signal(2)` FFI — the handler only stores an atomic,
/// which is async-signal-safe, and no external crate is needed.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FIRED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        FIRED.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn fired() -> bool {
        FIRED.load(Ordering::Relaxed)
    }
}

#[cfg(not(unix))]
mod term_signal {
    pub fn install() {}

    pub fn fired() -> bool {
        false
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use event_correlation::runtime::{SessionPool, WireServer};

    let opts = parse_serve_opts(args)?;
    let names: Vec<String> = opts.spec_paths.iter().map(|p| session_name(p)).collect();
    {
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != names.len() {
            return Err(format!(
                "tenant names (spec file stems) must be unique, got {names:?}"
            ));
        }
    }
    for (weight_name, _) in &opts.weights {
        if !names.iter().any(|n| n == weight_name) {
            return Err(format!(
                "--weight names unknown tenant {weight_name:?} (tenants: {names:?})"
            ));
        }
    }

    let mut pool_builder = SessionPool::builder()
        .threads(opts.threads.unwrap_or(4))
        .max_sessions(opts.spec_paths.len());
    if let Some(root) = &opts.root {
        pool_builder = pool_builder.durable_root(root);
    }
    let pool = pool_builder.build();

    let mut sessions = Vec::new();
    for (path, name) in opts.spec_paths.iter().zip(&names) {
        let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
        let live = event_correlation::spec::load_str_live(&doc)
            .map_err(|e| format!("loading {path:?}: {e}"))?;
        let mut builder = StreamRuntimeBuilder::from_correlator(live.builder, live.feeds)
            .max_inflight(live.settings.max_inflight)
            .record_history(false)
            .record_script(false)
            // Reject turns a full source into explicit FlowControl
            // frames; --block trades that for in-server waiting.
            .backpressure(if opts.block {
                Backpressure::Block
            } else {
                Backpressure::Reject
            });
        if let Some(n) = opts.capacity {
            builder = builder.ingest_capacity(n.max(1));
        }
        if let Some(n) = opts.epoch_count {
            builder = builder.epoch_policy(EpochPolicy::ByCount(n.max(1)));
        }
        if let Some(ms) = opts.epoch_ms {
            builder = builder.epoch_policy(EpochPolicy::ByInterval(
                std::time::Duration::from_millis(ms.max(1)),
            ));
        }
        if let Some(&(_, w)) = opts.weights.iter().rev().find(|(n, _)| n == name) {
            builder = builder.pool_weight(w);
        }
        let session = pool
            .open(name.clone(), builder)
            .map_err(|e| format!("opening tenant {name:?}: {e}"))?;
        if !opts.quiet {
            eprintln!(
                "tenant {name:?} ({path}): live sources {:?}, resuming at phase {}",
                session.live_source_names(),
                session.admitted() + 1
            );
        }
        sessions.push(session);
    }

    let mut server_builder = WireServer::builder();
    if let Some(token) = &opts.token {
        server_builder = server_builder.token(token.clone());
    }
    if let Some(addr) = &opts.metrics {
        server_builder = server_builder.metrics_addr(addr.clone());
    }
    let server = server_builder
        .bind(&opts.addr, pool, sessions)
        .map_err(|e| e.to_string())?;
    // The endpoint lines go to stderr before any blocking read so a
    // harness can scrape the ephemeral ports while the server is live.
    eprintln!(
        "wire endpoint: {} (tenants: {names:?})",
        server.local_addr()
    );
    if let Some(m) = server.metrics_addr() {
        eprintln!("metrics endpoint: http://{m}/metrics (try `ec doctor {m}`)");
    }
    if !opts.quiet {
        eprintln!("serving until stdin closes or a Shutdown frame arrives");
    }

    // Serve until the process is asked to stop: stdin EOF (the
    // supervisor hung up), SIGTERM/SIGINT, or a client's Shutdown
    // frame. The first two drain — refuse new sessions, flush and
    // commit every acknowledged event, say goodbye to subscribers —
    // because the peers were given no say; a Shutdown frame is an
    // explicit client request, so it stops directly.
    term_signal::install();
    let stdin_eof = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let eof_flag = std::sync::Arc::clone(&stdin_eof);
    std::thread::spawn(move || {
        use std::io::Read;
        let mut sink = Vec::new();
        let _ = std::io::stdin().lock().read_to_end(&mut sink);
        eof_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let drain = loop {
        if server.stop_requested() {
            break false;
        }
        if stdin_eof.load(std::sync::atomic::Ordering::Relaxed) || term_signal::fired() {
            break true;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };

    let stats = server.stats();
    if drain && !opts.quiet {
        eprintln!("draining: refusing new sessions, flushing acked events");
    }
    let reports = if drain {
        server.drain()
    } else {
        server.shutdown()
    };
    if !opts.quiet {
        eprintln!(
            "serve done: {} connections, {} events in, {} alarms out, {} flow blocks, \
             {} refused",
            stats.connections_total,
            stats.events_in,
            stats.alarms_out,
            stats.flow_blocks,
            stats.refused
        );
    }
    let mut failed = Vec::new();
    for (name, report) in reports {
        match report {
            Ok(r) => {
                if !opts.quiet {
                    eprintln!("  {name}: {} phases committed", r.phases);
                }
            }
            Err(e) => failed.push(format!("{name}: {e}")),
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("tenant shutdown failed: {}", failed.join("; ")))
    }
}

struct PushOpts {
    addr: String,
    tenant: String,
    token: String,
    batch: usize,
    retry: Option<u32>,
    session: Option<String>,
    quiet: bool,
}

fn parse_push_opts(args: &[String]) -> Result<PushOpts, String> {
    let mut positional = Vec::new();
    let mut token = String::new();
    let mut batch = 256usize;
    let mut retry = None;
    let mut session = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--token" => {
                token = it.next().ok_or("--token needs a value")?.clone();
            }
            "--batch" => {
                let v = it.next().ok_or("--batch needs a value")?;
                batch = v.parse().map_err(|_| format!("bad --batch value {v:?}"))?;
            }
            "--retry" => {
                let v = it.next().ok_or("--retry needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad --retry value {v:?}"))?;
                retry = Some(n.max(1));
            }
            "--session" => {
                session = Some(it.next().ok_or("--session needs a value")?.clone());
            }
            "--quiet" => quiet = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            _ => positional.push(arg.clone()),
        }
    }
    let [addr, tenant] = positional.as_slice() else {
        return Err(format!("usage: ec push <addr> <tenant>\n{USAGE}"));
    };
    Ok(PushOpts {
        addr: addr.clone(),
        tenant: tenant.clone(),
        token,
        batch: batch.max(1),
        retry,
        session,
        quiet,
    })
}

fn cmd_push(args: &[String]) -> Result<(), String> {
    use event_correlation::runtime::serve::Role;
    use event_correlation::runtime::{RetryPolicy, WireClient};
    use std::io::BufRead;

    let opts = parse_push_opts(args)?;
    let mut builder = WireClient::builder().token(&opts.token);
    if let Some(attempts) = opts.retry {
        builder = builder.retry(RetryPolicy {
            max_attempts: attempts,
            ..RetryPolicy::default()
        });
    }
    if let Some(session) = &opts.session {
        builder = builder.session(session.clone());
    }
    let mut client = builder
        .connect(&opts.addr, &opts.tenant, Role::Producer)
        .map_err(|e| format!("connecting to {}: {e}", opts.addr))?;
    if !opts.quiet {
        eprintln!(
            "connected to {} as tenant {:?}, sources {:?}{}",
            opts.addr,
            client.tenant(),
            client.sources(),
            match client.session() {
                Some(id) => format!(", session {id:?}"),
                None => String::new(),
            }
        );
    }

    // One pending batch per source; flushed at --batch events, on a
    // blank line (followed by a Seal), and at EOF.
    let mut pending: Vec<Vec<Value>> = vec![Vec::new(); client.sources().len()];
    let mut events: u64 = 0;
    let mut acked: u64 = 0;
    let mut skipped: u64 = 0;
    let mut seals: u64 = 0;
    let flush_pending = |client: &mut WireClient,
                         pending: &mut Vec<Vec<Value>>,
                         acked: &mut u64|
     -> Result<(), String> {
        for (i, values) in pending.iter_mut().enumerate() {
            if values.is_empty() {
                continue;
            }
            let accepted = client
                .push_batch(i as u32, values)
                .map_err(|e| format!("push batch for source {i}: {e}"))?;
            *acked += accepted as u64;
            values.clear();
        }
        Ok(())
    };

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        if line.trim().is_empty() {
            flush_pending(&mut client, &mut pending, &mut acked)?;
            client.seal().map_err(|e| format!("seal: {e}"))?;
            seals += 1;
            continue;
        }
        match parse_event_line(&line) {
            Ok((source, value)) => match client.source_index(&source) {
                Some(i) => {
                    pending[i as usize].push(value);
                    events += 1;
                    if pending[i as usize].len() >= opts.batch {
                        flush_pending(&mut client, &mut pending, &mut acked)?;
                    }
                }
                None => {
                    skipped += 1;
                    eprintln!("warning: unknown source {source:?}, event dropped");
                }
            },
            Err(msg) => {
                skipped += 1;
                eprintln!("warning: {msg}, line dropped");
            }
        }
    }
    flush_pending(&mut client, &mut pending, &mut acked)?;
    if !opts.quiet {
        eprintln!(
            "push done: {events} events in ({acked} acked), {skipped} dropped, {seals} seals, \
             {} flow blocks, {} reconnects",
            client.blocks_seen(),
            client.reconnects()
        );
    }
    Ok(())
}

fn cmd_recover(args: &[String]) -> Result<(), String> {
    use event_correlation::store::{Recovery, WalTail};

    let mut positional: Vec<&String> = Vec::new();
    let mut quiet = false;
    for arg in args {
        match arg.as_str() {
            "--quiet" => quiet = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            _ => positional.push(arg),
        }
    }
    let [dir, spec_path] = positional.as_slice() else {
        return Err(format!("usage: ec recover <dir> <spec.xml>\n{USAGE}"));
    };

    let rec = Recovery::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    println!("store {dir}:");
    println!("  sources: {:?}", rec.sources);
    println!("  committed phases: {}", rec.committed_phases());
    println!(
        "  wal: {} segment(s), {} row(s) compacted away",
        rec.segments.len(),
        rec.base_rows
    );
    match &rec.tail {
        WalTail::Clean => println!("  wal tail: clean"),
        WalTail::Torn { dropped_bytes } => {
            println!("  wal tail: torn record dropped ({dropped_bytes} bytes)")
        }
        WalTail::Corrupt {
            at_row,
            dropped_bytes,
            message,
        } => println!(
            "  wal tail: CORRUPT at row {at_row} ({message}); {dropped_bytes} bytes dropped"
        ),
    }
    for (path, reason) in &rec.skipped_snapshots {
        println!("  skipped snapshot {}: {reason}", path.display());
    }
    println!(
        "  snapshot: phase {} ({} tail row(s) to replay)",
        rec.snapshot_phase(),
        rec.tail_rows().len()
    );
    println!("  resumable at phase {}", rec.resume_phase());

    // Replay the whole committed log through the sequential oracle —
    // the uninterrupted reference run — and show the tail's outputs.
    let doc =
        std::fs::read_to_string(spec_path).map_err(|e| format!("reading {spec_path:?}: {e}"))?;
    let live = event_correlation::spec::load_str_live(&doc)
        .map_err(|e| format!("loading {spec_path:?}: {e}"))?;
    let live_names: Vec<&str> = live.feeds.iter().map(|(id, _, _)| id.as_str()).collect();
    let rec_names: Vec<&str> = rec.sources.iter().map(String::as_str).collect();
    if live_names != rec_names {
        return Err(format!(
            "store records live sources {rec_names:?}, spec has {live_names:?}"
        ));
    }
    if rec.base_rows > 0 {
        // The oracle needs the log from phase 1; a compacted store
        // only holds the tail — its early state lives in the snapshot
        // chain, which `restore` (not a scripted replay) reconstructs.
        println!(
            "\n{} row(s) compacted away; skipping oracle replay (state \
             comes from the snapshot chain — see `ec store {dir} inspect`)",
            rec.base_rows
        );
        return Ok(());
    }
    for row in &rec.rows {
        for ((_, _, writer), bin) in live.feeds.iter().zip(row.iter()) {
            writer.stage(bin.clone());
        }
    }
    let mut handles: Vec<(String, _)> = live.handles.iter().map(|(k, v)| (k.clone(), *v)).collect();
    handles.sort_by(|a, b| a.0.cmp(&b.0));
    let mut seq = live
        .builder
        .sequential()
        .map_err(|e| format!("building oracle: {e}"))?;
    seq.run(rec.committed_phases())
        .map_err(|e| format!("oracle replay: {e}"))?;
    let history = seq.into_history();
    if !quiet {
        let base = rec.snapshot_phase();
        println!(
            "\nreplayed tail (phases {}..={}):",
            base + 1,
            rec.committed_phases()
        );
        for (id, handle) in handles {
            let outs: Vec<_> = history
                .sink_outputs_of(handle.vertex())
                .into_iter()
                .filter(|(p, _)| p.get() > base)
                .collect();
            if outs.is_empty() {
                continue;
            }
            println!("  {id}: {} output(s)", outs.len());
            for (phase, value) in outs.iter().take(20) {
                println!("    phase {phase}: {value}");
            }
            if outs.len() > 20 {
                println!("    … {} more", outs.len() - 20);
            }
        }
    }
    Ok(())
}

fn cmd_store(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag {flag:?}"));
    }
    let [dir, action] = args else {
        return Err(format!(
            "usage: ec store <dir> <inspect|verify|compact>\n{USAGE}"
        ));
    };
    let dir = std::path::Path::new(dir.as_str());
    match action.as_str() {
        "inspect" => store_inspect(dir),
        "verify" => store_verify(dir),
        "compact" => store_compact(dir),
        other => Err(format!(
            "unknown store action {other:?}; expected inspect, verify or compact"
        )),
    }
}

fn store_inspect(dir: &std::path::Path) -> Result<(), String> {
    use event_correlation::store::{list_snapshot_files, Recovery, WalTail};

    let rec = Recovery::open(dir).map_err(|e| e.to_string())?;
    println!("store {}:", dir.display());
    println!(
        "  layout: {}",
        if rec.is_segmented() {
            "segmented"
        } else {
            "legacy single-file"
        }
    );
    println!("  sources: {:?}", rec.sources);
    println!(
        "  committed phases: {} ({} compacted away)",
        rec.committed_phases(),
        rec.base_rows
    );
    println!("  segments:");
    for seg in &rec.segments {
        let name = seg
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| seg.path.display().to_string());
        println!(
            "    {name}: {} row(s) after row {}, {} bytes",
            seg.rows, seg.first_row, seg.bytes
        );
    }
    let snaps = list_snapshot_files(dir).map_err(|e| e.to_string())?;
    println!("  snapshot files:");
    for f in &snaps {
        println!(
            "    phase {} ({})",
            f.phase,
            if f.delta { "delta" } else { "full" }
        );
    }
    println!(
        "  usable snapshot: phase {} ({} tail row(s) to replay)",
        rec.snapshot_phase(),
        rec.tail_rows().len()
    );
    match &rec.tail {
        WalTail::Clean => println!("  wal tail: clean"),
        WalTail::Torn { dropped_bytes } => {
            println!("  wal tail: torn record dropped ({dropped_bytes} bytes)")
        }
        WalTail::Corrupt {
            at_row,
            dropped_bytes,
            message,
        } => println!(
            "  wal tail: CORRUPT at row {at_row} ({message}); {dropped_bytes} bytes dropped"
        ),
    }
    for (path, reason) in &rec.skipped_manifests {
        println!("  skipped manifest {}: {reason}", path.display());
    }
    for (path, reason) in &rec.skipped_snapshots {
        println!("  skipped snapshot {}: {reason}", path.display());
    }
    println!("  resumable at phase {}", rec.resume_phase());
    Ok(())
}

fn store_verify(dir: &std::path::Path) -> Result<(), String> {
    use event_correlation::store::{list_snapshot_files, read_snapshot, Recovery, WalTail};

    // Recovery::open CRC-walks every WAL segment and the manifest
    // chain; list + read covers every snapshot file on disk, deltas
    // included, not just the chain recovery would pick.
    let rec = Recovery::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    let mut problems = Vec::new();
    match &rec.tail {
        WalTail::Clean => {}
        // A torn final record is the expected shape of a crash;
        // recovery drops it. Report it, but it is not corruption.
        WalTail::Torn { dropped_bytes } => {
            println!("note: torn WAL tail ({dropped_bytes} bytes) — recovery will drop it")
        }
        WalTail::Corrupt {
            at_row,
            dropped_bytes,
            message,
        } => problems.push(format!(
            "WAL corrupt at row {at_row}: {message} ({dropped_bytes} bytes dropped)"
        )),
    }
    for (path, reason) in &rec.skipped_manifests {
        problems.push(format!("manifest {}: {reason}", path.display()));
    }
    let snaps = list_snapshot_files(dir).map_err(|e| e.to_string())?;
    for f in &snaps {
        if let Err(e) = read_snapshot(&f.path) {
            problems.push(format!("snapshot {}: {e}", f.path.display()));
        }
    }
    if problems.is_empty() {
        println!(
            "store {} OK: {} segment(s), {} replayable row(s), {} snapshot file(s)",
            dir.display(),
            rec.segments.len(),
            rec.rows.len(),
            snaps.len()
        );
        Ok(())
    } else {
        Err(format!(
            "store {} has {} problem(s):\n  {}",
            dir.display(),
            problems.len(),
            problems.join("\n  ")
        ))
    }
}

fn store_compact(dir: &std::path::Path) -> Result<(), String> {
    let report = event_correlation::store::compact_store(dir).map_err(|e| e.to_string())?;
    if report.changed() {
        println!(
            "compacted store {}: dropped {} segment(s) ({} bytes); log now starts at row {}",
            dir.display(),
            report.removed_segments.len(),
            report.removed_bytes,
            report.base_rows
        );
    } else {
        println!(
            "store {}: nothing to compact (log starts at row {})",
            dir.display(),
            report.base_rows
        );
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(format!("missing spec path\n{USAGE}"))?;
    let loaded = load(path)?;
    let dag = loaded.builder.dag();
    let numbering = Numbering::compute(dag);
    numbering
        .verify(dag)
        .map_err(|e| format!("numbering invalid (engine bug, please report): {e}"))?;
    let topo = Topology::analyze(dag);
    println!("spec OK: {path}");
    println!(
        "  {} nodes ({} sources, {} sinks), {} edges",
        dag.vertex_count(),
        dag.sources().len(),
        dag.sinks().len(),
        dag.edge_count()
    );
    println!(
        "  depth {} (max pipelinable phases), max width {}",
        topo.depth(),
        topo.max_width()
    );
    println!(
        "  settings: {} phases, {} threads, {} max in-flight",
        loaded.settings.phases, loaded.settings.threads, loaded.settings.max_inflight
    );
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(format!("missing spec path\n{USAGE}"))?;
    let loaded = load(path)?;
    let dag = loaded.builder.dag();
    let numbering = Numbering::compute(dag);
    print!("{}", dot::to_dot_numbered(dag, "computation", &numbering));
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    use event_correlation::events::sources::RandomWalk;
    use event_correlation::fusion::prelude::*;

    let mut b = CorrelatorBuilder::new();
    let sensor = b.source("sensor", RandomWalk::new(20.0, 0.5, 42));
    let avg = b.add("avg", MovingAverage::new(8), &[sensor]);
    let alarm = b.add("alarm", Threshold::above(22.0), &[avg]);
    let mut engine = b.engine().threads(4).build().map_err(fmt_engine_err)?;
    let report = engine.run(200).map_err(fmt_engine_err)?;
    let history = report.history.ok_or("history missing")?;
    println!("demo: sensor → moving-average(8) → threshold(>22), 200 phases");
    for (phase, value) in history.sink_outputs_of(alarm.vertex()) {
        println!("  phase {phase}: alarm = {value}");
    }
    Ok(())
}

fn fmt_engine_err(e: EngineError) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parsing_handles_labels_and_comments() {
        let page = "# HELP ec_executions_total x\n# TYPE ec_executions_total counter\n\
                    ec_executions_total 42\n\
                    ec_worker_queue_depth{worker=\"0\"} 3\n\
                    ec_worker_queue_depth{worker=\"1\"} 4\n\
                    ec_phase_seconds{quantile=\"0.5\"} 0.001\n\
                    ec_phase_seconds{quantile=\"0.99\"} 0.25\n\
                    garbage line without a number x\n";
        let samples = parse_exposition(page);
        assert_eq!(samples.len(), 5);
        assert_eq!(prom_sum(&samples, "ec_executions_total"), 42.0);
        assert_eq!(prom_sum(&samples, "ec_worker_queue_depth"), 7.0);
        assert_eq!(
            prom_quantile(&samples, "ec_phase_seconds", "0.5"),
            Some(0.001)
        );
        assert_eq!(prom_quantile(&samples, "ec_phase_seconds", "0.95"), None);
    }

    #[test]
    fn quantile_takes_the_worst_tenant() {
        let page = "ec_phase_seconds{session=\"a\",quantile=\"0.5\"} 0.001\n\
                    ec_phase_seconds{session=\"b\",quantile=\"0.5\"} 0.030\n";
        let samples = parse_exposition(page);
        assert_eq!(
            prom_quantile(&samples, "ec_phase_seconds", "0.5"),
            Some(0.030)
        );
    }

    #[test]
    fn seconds_format_picks_a_sane_unit() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0042), "4.2ms");
        assert_eq!(fmt_secs(0.0000042), "4.2us");
        assert_eq!(fmt_secs(0.000000250), "250ns");
    }

    #[test]
    fn stream_opts_parse_observability_flags() {
        let args: Vec<String> = ["spec.xml", "--metrics", "127.0.0.1:0", "--trace", "t.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_stream_opts(&args).expect("parses");
        assert_eq!(opts.metrics.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
    }
}
