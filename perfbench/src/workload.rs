//! One workload run, in this process: set-up cycles, saturation, paced,
//! oracle check, and — traced — the per-layer numbers.

use crate::drive::{pace, paced_samples, saturate, Paced, RunCfg, Saturation, Sut, WireRemains};
use crate::graphs::{oracle, Workload};
use crate::report::{END_TO_END, PER_LAYER};
use crate::spans::{write_chrome_trace, Recorder, Span, ROOT};
use crate::stats::{mean, median, quantile, Metrics, RunResult};
use crate::{micro, Args};
use ec_core::MetricsSnapshot;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fresh set-up cycles per run; `setup_s` is their median and the last
/// instance is the one measured.
const SETUP_CYCLES: usize = 5;
/// Window of the paced part over which p50/p90 are taken; the reported
/// value is the median across windows, which ignores a window that a
/// neighbour's burst disturbed.
const LATENCY_WINDOW_NS: u64 = 500_000_000;
/// Quantile of the per-segment rates reported as `events_per_s` (and
/// used wherever two sets of segment rates are compared).
const RATE_QUANTILE: f64 = 0.9;
/// Segment pairs of the durable-vs-in-process comparison (traced
/// `durable_stream` runs only).
const TAX_PAIRS: usize = 16;

/// The directory run artefacts go to: beside the executable, so inside
/// the build directory of whichever checkout built it — never the
/// current directory, never outside the checkout.
fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn work_dir(w: Workload) -> PathBuf {
    exe_dir().join(format!("ec-benchmark-{}-{}", std::process::id(), w.name()))
}

/// A field of `/proc/self/status`, in kB.
fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// CPU time of this process so far (user + system), ns. `/proc` counts
/// in clock ticks of 1/100 s, which over a multi-second part resolves
/// better than 1%.
fn process_cpu_ns() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the ')'.
    let after = stat.rsplit(')').next().unwrap_or("");
    let field = |i: usize| -> f64 {
        after
            .split_whitespace()
            .nth(i)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (field(11) + field(12)) * 1e7
}

/// `GET /metrics` from a runtime's own endpoint: the Prometheus page,
/// empty if the endpoint does not answer.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut page = String::new();
    if let Ok(mut s) = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
        let _ = s.read_to_string(&mut page);
    }
    page
}

/// The value of an unlabelled series on a Prometheus page (0 if absent).
fn series(page: &str, name: &str) -> f64 {
    page.lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Fails the run instead of letting it hang: three times the expected
/// length, and inside the 180 s the contract allows.
fn start_watchdog(seconds: f64, dir: PathBuf) {
    let limit = Duration::from_secs_f64((3.0 * (seconds + 15.0)).min(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("ec-perfbench: deadline of {limit:?} exceeded; giving up");
        let _ = std::fs::remove_dir_all(&dir);
        std::process::exit(3);
    });
}

/// Everything the timed parts produced.
struct Measured {
    setup_s: Vec<f64>,
    sat: Saturation,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    sat_cpu_ns: f64,
    paced: Paced,
    /// Latency (µs) and due time (ns) of every paced sample.
    latency_us: Vec<(u64, f64)>,
    hop_us: Vec<f64>,
    peak_rss_mb: f64,
    /// The kept instance's `/metrics` page (empty over the wire), for
    /// the store-plane counters `metrics()` does not carry.
    metrics_page: String,
    durable_tax_pct: f64,
    events: u64,
    missing: u64,
}

fn measure(
    cfg: &RunCfg,
    seconds: f64,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<(Measured, Sut), String> {
    let w = cfg.workload;
    let plan = w.plan();
    // (a) set-up: fresh cycles; the last instance is kept.
    let part = rec.open("setup", ROOT);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for cycle in 0..SETUP_CYCLES {
        let span = rec.open("setup_cycle", part);
        let store_dir = dir.join(format!("store-{cycle}"));
        let (sut, seconds) = Sut::set_up(cfg, &store_dir, rec, span)?;
        rec.close(span);
        setup_s.push(seconds);
        if cycle + 1 < SETUP_CYCLES {
            sut.shut_down()?;
            let _ = std::fs::remove_dir_all(&store_dir);
        } else {
            kept = Some(sut);
        }
    }
    rec.close(part);
    let mut sut = kept.expect("at least one set-up cycle");

    // (b) saturation, closed loop.
    let part = rec.open("saturation", ROOT);
    let before = sut.metrics();
    let cpu0 = process_cpu_ns();
    let sat = saturate(&mut sut, Duration::from_secs_f64(seconds / 2.0), rec, part)?;
    let sat_cpu_ns = process_cpu_ns() - cpu0;
    let after = sut.metrics();
    rec.close(part);

    // (c) paced, open loop.
    let part = rec.open("paced", ROOT);
    let paced = pace(&mut sut, cfg.paced_samples, rec, part)?;
    rec.close(part);
    let peak_rss_mb = proc_status_kb("VmHWM:") / 1024.0;

    let mut missing = 0;
    let mut latency_us = Vec::with_capacity(paced.due_ns.len());
    let mut hop_us = Vec::new();
    for (i, &due) in paced.due_ns.iter().enumerate() {
        let delivered = sut.probe.delivered_ns(i);
        if delivered == 0 {
            missing += plan.sample_events;
            continue;
        }
        latency_us.push((due, delivered.saturating_sub(due) as f64 / 1e3));
        if let Some(hop) = &sut.hop_probe {
            hop_us.push(delivered.saturating_sub(hop.delivered_ns(i)) as f64 / 1e3);
        }
    }

    // Traced durable run: what the store costs, as interleaved segment
    // pairs against a non-durable twin of the same graph and load.
    let mut durable_tax_pct = 0.0;
    if cfg.traced && w == Workload::DurableStream {
        let part = rec.open("durable_tax", ROOT);
        let twin_cfg = RunCfg {
            workload: Workload::InprocStream,
            traced: false,
            ..*cfg
        };
        let (mut twin, _) = Sut::set_up(&twin_cfg, dir, rec, part)?;
        let mut quiet = Recorder::off(cfg.clock);
        let (mut durable_rates, mut twin_rates) = (Vec::new(), Vec::new());
        for _ in 0..TAX_PAIRS {
            for (side, rates) in [(&mut sut, &mut durable_rates), (&mut twin, &mut twin_rates)] {
                rates.extend(saturate(side, Duration::ZERO, &mut quiet, ROOT)?.rates(None));
            }
        }
        twin.shut_down()?;
        durable_tax_pct = (1.0
            - quantile(&mut durable_rates, RATE_QUANTILE)
                / quantile(&mut twin_rates, RATE_QUANTILE))
            * 100.0;
        rec.close(part);
    }

    let metrics_page = sut.metrics_addr().map(scrape).unwrap_or_default();
    let events = sut.events_sent - plan.warmup_events;
    Ok((
        Measured {
            setup_s,
            sat,
            before,
            after,
            sat_cpu_ns,
            paced,
            latency_us,
            hop_us,
            peak_rss_mb,
            metrics_page,
            durable_tax_pct,
            events,
            missing,
        },
        sut,
    ))
}

/// Median across 0.5 s windows of the per-window quantile `q`.
fn windowed(latency_us: &[(u64, f64)], q: f64) -> f64 {
    let Some(&(first, _)) = latency_us.first() else {
        return 0.0;
    };
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(due, us) in latency_us {
        let w = ((due - first) / LATENCY_WINDOW_NS) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(us);
    }
    // A trailing sliver of a window has too few samples for a p90.
    let full = windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut per_window: Vec<f64> = windows
        .iter_mut()
        .filter(|w| w.len() * 2 >= full)
        .map(|w| quantile(w, q))
        .collect();
    median(&mut per_window)
}

fn end_to_end(m: &Measured) -> Metrics {
    let mut rates = m.sat.rates(None);
    let mut out = Metrics::new();
    // Interference only ever slows a segment down, so a high quantile
    // of the per-segment rates estimates the undisturbed speed.
    out.insert(
        "events_per_s".into(),
        (quantile(&mut rates, RATE_QUANTILE), "1/s"),
    );
    out.insert("alarm_p50_us".into(), (windowed(&m.latency_us, 0.5), "us"));
    out.insert("alarm_p90_us".into(), (windowed(&m.latency_us, 0.9), "us"));
    out.insert("setup_s".into(), (median(&mut m.setup_s.clone()), "s"));
    out.insert("peak_rss_mb".into(), (m.peak_rss_mb, "MB"));
    out
}

/// Durations (ns) of spans called `name` whose parent is a `segment`.
fn in_segments(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| {
            s.name == name
                && spans
                    .get(s.parent as usize)
                    .is_some_and(|p| p.name == "segment")
        })
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

fn per_layer(
    w: Workload,
    m: &Measured,
    wire: Option<&WireRemains>,
    rec: &Recorder,
    isolated: Metrics,
) -> Metrics {
    let plan = w.plan();
    let mut out = isolated;
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.insert(name.to_string(), (value, unit));
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let events = m.sat.events as f64;
    let spans = &rec.spans;

    // runtime: the generator's own calls, saturation part.
    let push = in_segments(spans, "push");
    let seal_push = in_segments(spans, "seal_push");
    let push_batch = in_segments(spans, "push_batch");
    let segment_ns = sum(&rec.durations("segment"));
    let (mut traced, mut untraced) = (m.sat.rates(Some(true)), m.sat.rates(Some(false)));
    let traced_segments = traced.len() as f64;
    let drain_ns = sum(&in_segments(spans, "flush")) + sum(&in_segments(spans, "wait_idle"));
    // Plain pushes are sampled; scale their mean to the pushes made.
    let plain_pushes = if w == Workload::WireStream {
        0.0
    } else {
        traced_segments * (plan.segment_events - plan.segment_events / plan.epoch_events) as f64
    };
    let send_ns = mean(&push) * plain_pushes + sum(&seal_push) + sum(&push_batch);
    put("runtime.push_ns", mean(&push), "ns");
    put("runtime.seal_push_ns", mean(&seal_push), "ns");
    put("runtime.producer_busy_share", send_ns / segment_ns, "ratio");
    put(
        "runtime.drain_ms",
        drain_ns / traced_segments.max(1.0) / 1e6,
        "ms",
    );
    put("runtime.backlog_phases_mean", mean(&m.sat.backlog), "count");
    put(
        "runtime.backlog_phases_max",
        m.sat.backlog.iter().copied().fold(0.0, f64::max),
        "count",
    );
    put(
        "runtime.paced_backlog_phases_mean",
        mean(&m.paced.backlog),
        "count",
    );
    put(
        "runtime.ingest_waits",
        (m.after.ingest.waits - m.before.ingest.waits) as f64,
        "count",
    );
    let seal_batches = (m.after.ingest.seal_batches - m.before.ingest.seal_batches) as f64;
    put(
        "runtime.mean_seal_batch",
        (m.after.ingest.seal_events - m.before.ingest.seal_events) as f64 / seal_batches.max(1.0),
        "count",
    );

    // core: the engine's own counters over the saturation part.
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(&m.after) - f(&m.before)) as f64;
    let exec = d(|s| s.exec_nanos);
    let executions = d(|s| s.executions);
    put("core.exec_ns_per_event", exec / events, "ns");
    put(
        "core.critical_ns_per_event",
        d(|s| s.critical_nanos) / events,
        "ns",
    );
    put(
        "core.lock_wait_ns_per_event",
        d(|s| s.lock_wait_nanos) / events,
        "ns",
    );
    put(
        "core.bookkeeping_ratio",
        (d(|s| s.lock_wait_nanos) + d(|s| s.critical_nanos)) / exec.max(1.0),
        "ratio",
    );
    put(
        "core.mean_concurrent_phases",
        d(|s| s.concurrent_phase_sum) / d(|s| s.concurrent_phase_samples).max(1.0),
        "count",
    );
    put(
        "core.max_concurrent_phases",
        m.after.max_concurrent_phases as f64,
        "count",
    );
    put("core.executions_per_event", executions / events, "count");
    put(
        "core.silent_fraction",
        d(|s| s.silent_executions) / executions.max(1.0),
        "ratio",
    );
    put(
        "core.parks_per_kevent",
        d(|s| s.scheduler.parks) / events * 1e3,
        "count",
    );
    put(
        "core.wakes_per_kevent",
        d(|s| s.scheduler.wakes) / events * 1e3,
        "count",
    );
    put(
        "core.steals_per_kevent",
        d(|s| s.scheduler.steals) / events * 1e3,
        "count",
    );

    // store: the kept instance's own counters (zero without a store).
    put(
        "store.commits",
        series(&m.metrics_page, "ec_store_commits_total"),
        "count",
    );
    put(
        "store.retries",
        series(&m.metrics_page, "ec_store_retries_total"),
        "count",
    );
    put(
        "store.segments",
        series(&m.metrics_page, "ec_store_wal_segments"),
        "count",
    );
    put(
        "store.compactions",
        series(&m.metrics_page, "ec_store_compactions_total"),
        "count",
    );
    put("store.durable_tax_pct", m.durable_tax_pct, "%");

    // serve: the wire connections (zero in process).
    put(
        "serve.push_rtt_p50_us",
        quantile(&mut push_batch.clone(), 0.5) / 1e3,
        "us",
    );
    put(
        "serve.alarm_hop_p50_us",
        quantile(&mut m.hop_us.clone(), 0.5),
        "us",
    );
    put(
        "serve.alarms_per_batch",
        wire.map_or(0.0, |r| r.sub_alarms as f64 / r.sub_frames.max(1) as f64),
        "count",
    );
    put(
        "serve.blocks_seen",
        wire.map_or(0.0, |r| r.blocks_seen as f64),
        "count",
    );
    put(
        "serve.reconnects",
        wire.map_or(0.0, |r| (r.reconnects + r.stats.reconnects) as f64),
        "count",
    );
    put(
        "serve.dedup_hits",
        wire.map_or(0.0, |r| r.stats.dedup_hits as f64),
        "count",
    );

    // Run health.
    put("e2e.events_per_s_total", events / m.sat.wall_s, "1/s");
    let mut all_latency: Vec<f64> = m.latency_us.iter().map(|&(_, us)| us).collect();
    put("e2e.alarm_p99_us", quantile(&mut all_latency, 0.99), "us");
    put("e2e.cpu_ns_per_event", m.sat_cpu_ns / events, "ns");
    let mut lag_us: Vec<f64> = m.paced.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    put("gen.lag_p90_us", quantile(&mut lag_us, 0.9), "us");
    put(
        "gen.rate_achieved",
        m.paced.events as f64 / m.paced.send_wall_s,
        "1/s",
    );
    put(
        "gen.self_share",
        1.0 - (send_ns + drain_ns) / segment_ns,
        "ratio",
    );
    put(
        "trace.overhead_pct",
        (1.0 - quantile(&mut traced, RATE_QUANTILE) / quantile(&mut untraced, RATE_QUANTILE))
            * 100.0,
        "%",
    );
    put("trace.spans", spans.len() as f64, "count");
    out
}

/// The metrics reported must be exactly the ones `BENCHMARK.json`
/// declares (`report.rs` mirrors it; a test compares the two).
fn check_names<'a>(got: &Metrics, declared: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let declared: std::collections::BTreeSet<&str> = declared.collect();
    let got: std::collections::BTreeSet<&str> = got.keys().map(String::as_str).collect();
    if got == declared {
        return Ok(());
    }
    Err(format!(
        "metrics out of step with the declared list: missing {:?}, undeclared {:?}",
        declared.difference(&got).collect::<Vec<_>>(),
        got.difference(&declared).collect::<Vec<_>>()
    ))
}

/// Runs workload `w` here and prints its result line. Returns the
/// process exit code: 0 only if every output matched the oracle.
pub fn run_in_this_process(w: Workload, args: &Args) -> i32 {
    let dir = work_dir(w);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("ec-perfbench: cannot create {}: {e}", dir.display());
        return 2;
    }
    start_watchdog(args.seconds, dir.clone());
    let outcome = run(w, args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(result) => {
            println!("{}", result.to_json_line());
            if result.correct && result.failed == 0 {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("ec-perfbench: {}: {e}", w.name());
            2
        }
    }
}

fn run(w: Workload, args: &Args, dir: &Path) -> Result<RunResult, String> {
    let plan = w.plan();
    let clock = Instant::now();
    let cfg = RunCfg {
        workload: w,
        seed: args.seed,
        clock,
        paced_samples: paced_samples(&plan, args.seconds / 2.0),
        traced: args.trace,
    };
    let mut rec = Recorder::new(clock, args.trace, 1 << 19);
    let (measured, sut) = measure(&cfg, args.seconds, dir, &mut rec)?;
    let (digest, taps, alarms) = (sut.probe.digest(), sut.probe.taps(), sut.probe.alarms());
    let total_phases = sut.phases_sent();
    let wire = sut.shut_down()?;

    // (d) verify, untimed: the same seed's binning through `Sequential`.
    let expected = rec.time("oracle", ROOT, || {
        oracle(w, args.seed, total_phases, w.phases_for(plan.warmup_events))
    });
    let correct = expected.digest == digest && expected.taps == taps && expected.alarms == alarms;
    if !correct {
        eprintln!(
            "ec-perfbench: {}: oracle mismatch: digest {digest:016x} vs {:016x}, \
             taps {taps} vs {}, alarms {alarms} vs {}",
            w.name(),
            expected.digest,
            expected.taps,
            expected.alarms
        );
    }
    let mut result = RunResult {
        correct,
        attempted: measured.events,
        failed: if correct {
            measured.missing
        } else {
            measured.events
        },
        metrics: Metrics::new(),
    };
    if args.trace {
        // The shortest full-size run is 10 s; shorter runs shrink the
        // isolated measurements with them.
        let scale = (args.seconds / 10.0).min(1.0);
        let isolated = micro::run(args.seed, scale, dir, &mut rec, ROOT)?;
        result.metrics = per_layer(w, &measured, wire.as_ref(), &rec, isolated);
        check_names(&result.metrics, PER_LAYER.iter().map(|(name, ..)| *name))?;
        let reader = wire.as_ref().map_or(&[][..], |r| &r.reader_spans[..]);
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| exe_dir().join("ec-benchmark-traces"))
            .join(format!("{}-seed{}.trace.json", w.name(), args.seed));
        write_chrome_trace(
            &path,
            w.name(),
            &[("generator", &rec.spans), ("subscriber", reader)],
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "ec-perfbench: {}: trace written to {}",
            w.name(),
            path.display()
        );
    } else {
        result.metrics = end_to_end(&measured);
        check_names(&result.metrics, END_TO_END.iter().map(|(name, ..)| *name))?;
    }
    let mut rates = measured.sat.rates(None);
    eprintln!(
        "{:<16} {} segments of {} events: p25 {:.0}  p50 {:.0}  p90 {:.0}  max {:.0} events/s",
        w.name(),
        rates.len(),
        plan.segment_events,
        quantile(&mut rates, 0.25),
        quantile(&mut rates, 0.5),
        quantile(&mut rates, RATE_QUANTILE),
        quantile(&mut rates, 1.0),
    );
    for (name, (value, unit)) in &result.metrics {
        eprintln!("{:<16} {name:<36} {value:>16.4} {unit}", w.name());
    }
    Ok(result)
}
