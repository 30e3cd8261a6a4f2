//! The system under test and the load generator: set-up cycles, the
//! closed-loop saturation part and the open-loop paced part.
//!
//! One generator thread (the caller's) drives every workload. The
//! delivery side — the runtime's `subscribe` callback, or the
//! subscriber connection's reader thread for the wire workload — only
//! writes atomics in a [`SinkProbe`], which the generator reads.

use crate::graphs::{runtime_builder, Plan, Workload, WIRE_BATCH};
use crate::spans::{Recorder, Span, SpanId, ROOT};
use crate::stats::{fold_emission, Walk, FNV_OFFSET};
use ec_core::MetricsSnapshot;
use ec_events::Value;
use ec_runtime::serve::{Role, WireStatsSnapshot};
use ec_runtime::{RuntimeProbe, SessionPool, SourceHandle, StreamRuntime, WireClient, WireServer};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenant name of the wire workload.
const TENANT: &str = "bench";
/// How long the generator waits for an emission it knows must come
/// before it declares it missing.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(20);
/// One plain (non-sealing) push in this many is timed in a traced run;
/// every sealing push is. Coprime with the epoch size, so the sampled
/// push rotates through every position of the epoch.
const PLAIN_PUSH_SAMPLING: u64 = 17;
/// The paced generator sleeps through gaps longer than this and polls
/// (`yield_now`) through shorter ones. A sleep overshoots by the
/// kernel's timer slack — 50–100 µs here, and varying with the host —
/// which a due-time latency then includes: sleeping through
/// `engine_pipeline`'s 208 µs gaps put p50 at 395–505 µs run to run,
/// polling at 317–322 µs. The wire workload's 1.28 ms gaps are slept.
const PACING_SLEEP_NS: u64 = 400_000;
/// The backlog probe takes the scheduler lock, so it runs on one latency
/// sample in this many, traced runs only.
const BACKLOG_SAMPLING: u64 = 8;

/// What the delivery side has seen. Single writer (the delivery thread
/// or the subscriber reader), so plain load/store pairs suffice.
pub struct SinkProbe {
    clock: Instant,
    /// Emissions at or before this phase belong to the warm-up (or to a
    /// restore's replayed tail) and are ignored.
    skip_phases: u64,
    phases_per_sample: u64,
    digest: AtomicU64,
    taps: AtomicU64,
    alarms: AtomicU64,
    last_tap_phase: AtomicU64,
    /// Phase the paced part starts after; `u64::MAX` while not pacing.
    sample_base: AtomicU64,
    /// Delivery time (ns on `clock`) of each latency sample's emission.
    /// Preallocated to the paced part's fixed sample count.
    delivered_ns: Vec<AtomicU64>,
}

impl SinkProbe {
    pub fn new(clock: Instant, skip_phases: u64, phases_per_sample: u64, samples: usize) -> Self {
        SinkProbe {
            clock,
            skip_phases,
            phases_per_sample,
            digest: AtomicU64::new(FNV_OFFSET),
            taps: AtomicU64::new(0),
            alarms: AtomicU64::new(0),
            last_tap_phase: AtomicU64::new(0),
            sample_base: AtomicU64::new(u64::MAX),
            delivered_ns: (0..samples).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Called for every delivered emission, in delivery order.
    /// `received_ns` is the socket-receipt time of the frame that
    /// carried it (wire); `None` reads the clock on demand (in process).
    pub fn on_emission(&self, phase: u64, sink: &str, value: &Value, received_ns: Option<u64>) {
        use Ordering::Relaxed;
        if phase <= self.skip_phases {
            // Not digested, but the warm-up's drain still waits on it.
            if sink == "tap" {
                self.last_tap_phase.store(phase, Ordering::Release);
            }
            return;
        }
        let digest = fold_emission(self.digest.load(Relaxed), phase, sink, value);
        self.digest.store(digest, Relaxed);
        if sink != "tap" {
            self.alarms.store(self.alarms.load(Relaxed) + 1, Relaxed);
            return;
        }
        self.taps.store(self.taps.load(Relaxed) + 1, Relaxed);
        let base = self.sample_base.load(Relaxed);
        if phase > base && (phase - base).is_multiple_of(self.phases_per_sample) {
            let sample = ((phase - base) / self.phases_per_sample - 1) as usize;
            if let Some(slot) = self.delivered_ns.get(sample) {
                let now = received_ns.unwrap_or_else(|| self.clock.elapsed().as_nanos() as u64);
                slot.store(now, Relaxed);
            }
        }
        self.last_tap_phase.store(phase, Ordering::Release);
    }

    pub fn digest(&self) -> u64 {
        self.digest.load(Ordering::Relaxed)
    }

    pub fn taps(&self) -> u64 {
        self.taps.load(Ordering::Relaxed)
    }

    pub fn alarms(&self) -> u64 {
        self.alarms.load(Ordering::Relaxed)
    }

    pub fn delivered_ns(&self, sample: usize) -> u64 {
        self.delivered_ns[sample].load(Ordering::Relaxed)
    }

    /// Blocks the generator until the tap emission of `phase` has been
    /// delivered — the end of a segment's, or a part's, last result.
    fn wait_delivered(&self, phase: u64) -> Result<(), String> {
        let start = Instant::now();
        while self.last_tap_phase.load(Ordering::Acquire) < phase {
            if start.elapsed() > DELIVERY_TIMEOUT {
                return Err(format!(
                    "emission of phase {phase} missing (last delivered: {})",
                    self.last_tap_phase.load(Ordering::Acquire)
                ));
            }
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// Counters of the subscriber connection's reader thread.
#[derive(Default)]
pub struct SubscriberStats {
    pub frames: AtomicU64,
    pub alarms: AtomicU64,
}

enum Target {
    Inproc {
        rt: StreamRuntime,
        handles: [SourceHandle; 2],
    },
    Wire(Box<WireTarget>),
}

/// The wire workload's server, its two client connections and the
/// thread that reads the subscriber connection.
struct WireTarget {
    producer: WireClient,
    server: WireServer,
    sources: [u32; 2],
    batch: Vec<Value>,
    reader: std::thread::JoinHandle<Vec<Span>>,
    sub_stats: Arc<SubscriberStats>,
}

/// What a wire run leaves behind once it is shut down.
pub struct WireRemains {
    pub stats: WireStatsSnapshot,
    pub blocks_seen: u64,
    pub reconnects: u64,
    pub sub_frames: u64,
    pub sub_alarms: u64,
    pub reader_spans: Vec<Span>,
}

/// One instance of the system under test, with the generator state
/// (walks, counters) that continues across its parts.
pub struct Sut {
    pub workload: Workload,
    pub plan: Plan,
    pub probe: Arc<SinkProbe>,
    /// In traced wire runs: a second probe fed by an in-process
    /// subscription on the same tenant, for the alarm-hop measurement.
    pub hop_probe: Option<Arc<SinkProbe>>,
    target: Target,
    rt_probe: RuntimeProbe,
    walks: [Walk; 2],
    /// Send units issued so far (events in process, batches on the wire).
    units_sent: u64,
    pub events_sent: u64,
}

/// What every set-up cycle of a run shares.
#[derive(Clone, Copy)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    /// The run's time base: every span and sample is ns since this.
    pub clock: Instant,
    /// Latency samples the paced part will take (sizes the buffers).
    pub paced_samples: usize,
    pub traced: bool,
}

fn subscribe_probe(probe: &Arc<SinkProbe>) -> impl FnMut(&ec_runtime::SinkEmission) + Send {
    let probe = Arc::clone(probe);
    move |e| probe.on_emission(e.phase, &e.name, &e.value, None)
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl Sut {
    /// One set-up cycle: build the system (create the store; bind and
    /// connect), drive the fixed warm-up to idle and — for the durable
    /// workload — crash it and `restore()` it. Returns the instance and
    /// the seconds the whole cycle took.
    pub fn set_up(
        cfg: &RunCfg,
        store_dir: &Path,
        rec: &mut Recorder,
        parent: SpanId,
    ) -> Result<(Sut, f64), String> {
        let RunCfg {
            workload,
            seed,
            clock,
            paced_samples,
            traced,
        } = *cfg;
        let plan = workload.plan();
        let warmup_phases = workload.phases_for(plan.warmup_events);
        let phases_per_sample = workload.phases_for(plan.sample_events);
        let new_probe = || {
            Arc::new(SinkProbe::new(
                clock,
                warmup_phases,
                phases_per_sample,
                paced_samples,
            ))
        };
        let probe = new_probe();
        let start = Instant::now();
        let mut hop_probe = None;
        let (target, rt_probe) = match workload {
            Workload::WireStream => {
                let pool = SessionPool::builder()
                    .threads(plan.threads)
                    .max_sessions(1)
                    .build();
                let session = pool
                    .open(TENANT, runtime_builder(workload))
                    .map_err(err("open tenant"))?;
                if traced {
                    let hop = new_probe();
                    session.subscribe(subscribe_probe(&hop));
                    hop_probe = Some(hop);
                }
                let rt_probe = session.probe();
                // One tap emission per event at up to the saturation
                // rate: the defaults (1024 buffered, 256 per frame)
                // would declare the subscriber too slow and drop it.
                let server = WireServer::builder()
                    .subscriber_buffer(1 << 16)
                    .alarm_batch(1024)
                    .bind("127.0.0.1:0", pool, vec![session])
                    .map_err(err("bind wire server"))?;
                let addr = server.local_addr();
                let mut subscriber = WireClient::connect(addr, "", TENANT, Role::Subscriber)
                    .map_err(err("connect subscriber"))?;
                subscriber.subscribe().map_err(err("subscribe"))?;
                let sub_stats = Arc::new(SubscriberStats::default());
                let reader = {
                    let probe = Arc::clone(&probe);
                    let stats = Arc::clone(&sub_stats);
                    let mut rec = Recorder::new(clock, traced, 1 << 14);
                    std::thread::Builder::new()
                        .name("bench-subscriber".into())
                        .spawn(move || {
                            // Ends when the server closes the connection.
                            while let Ok(alarms) =
                                rec.time("next_alarms", ROOT, || subscriber.next_alarms())
                            {
                                let now = rec.now_ns();
                                stats.frames.fetch_add(1, Ordering::Relaxed);
                                stats
                                    .alarms
                                    .fetch_add(alarms.len() as u64, Ordering::Relaxed);
                                for a in &alarms {
                                    probe.on_emission(a.phase, &a.sink, &a.value, Some(now));
                                }
                            }
                            rec.spans
                        })
                        .map_err(err("spawn subscriber reader"))?
                };
                let producer = WireClient::connect(addr, "", TENANT, Role::Producer)
                    .map_err(err("connect producer"))?;
                let source = |name| {
                    producer
                        .source_index(name)
                        .ok_or_else(|| format!("tenant has no source {name}"))
                };
                let sources = [source("s1")?, source("s2")?];
                (
                    Target::Wire(Box::new(WireTarget {
                        producer,
                        server,
                        sources,
                        batch: Vec::with_capacity(WIRE_BATCH as usize),
                        reader,
                        sub_stats,
                    })),
                    rt_probe,
                )
            }
            _ => {
                let mut builder = runtime_builder(workload)
                    // An idle listener thread; scraped once, after the
                    // timed parts, for the store-plane counters that
                    // `metrics()` does not carry.
                    .metrics_addr("127.0.0.1:0")
                    .subscribe(subscribe_probe(&probe));
                if workload == Workload::DurableStream {
                    builder = durable(builder, store_dir);
                }
                let rt = builder.build().map_err(err("build runtime"))?;
                let rt_probe = rt.probe();
                (inproc_target(rt)?, rt_probe)
            }
        };
        let mut sut = Sut {
            workload,
            plan,
            probe,
            hop_probe,
            target,
            rt_probe,
            walks: [Walk::new(seed, 1), Walk::new(seed, 2)],
            units_sent: 0,
            events_sent: 0,
        };
        let mut idle = Recorder::off(clock);
        for _ in 0..plan.warmup_events / plan.unit_events {
            sut.send()?;
        }
        sut.drain(&mut idle, ROOT)?;
        sut.await_delivery(&mut idle, ROOT)?;
        if workload == Workload::DurableStream {
            // Simulated crash: drop without shutdown. Every sealed row
            // is already in the WAL; restore replays the tail after the
            // newest snapshot and resumes at the exact next phase.
            let Target::Inproc { rt, handles } = sut.target else {
                unreachable!("the durable workload runs in process")
            };
            drop(handles);
            drop(rt);
            let builder = durable(
                runtime_builder(workload)
                    .metrics_addr("127.0.0.1:0")
                    .subscribe(subscribe_probe(&sut.probe)),
                store_dir,
            );
            let rt = rec
                .time("restore", parent, || builder.restore())
                .map_err(err("restore"))?;
            rt.wait_idle().map_err(err("restored runtime idles"))?;
            if rt.admitted() != warmup_phases {
                return Err(format!(
                    "restore resumed at phase {}, warm-up committed {warmup_phases}",
                    rt.admitted()
                ));
            }
            sut.rt_probe = rt.probe();
            sut.target = inproc_target(rt)?;
        }
        Ok((sut, start.elapsed().as_secs_f64()))
    }

    /// Phases committed by everything sent so far.
    pub fn phases_sent(&self) -> u64 {
        self.workload.phases_for(self.events_sent)
    }

    /// True if the next send completes a latency sample (seals an
    /// epoch in process; is a whole batch on the wire).
    fn next_send_seals(&self) -> bool {
        ((self.units_sent + 1) * self.plan.unit_events).is_multiple_of(self.plan.sample_events)
    }

    /// Issues the next send unit: one `push` alternating `s1`/`s2`, or
    /// one 64-event `push_batch` alternating sources per batch.
    fn send(&mut self) -> Result<(), String> {
        let slot = (self.units_sent % 2) as usize;
        match &mut self.target {
            Target::Inproc { handles, .. } => {
                handles[slot]
                    .push(self.walks[slot].next_value())
                    .map_err(err("push"))?;
            }
            Target::Wire(wire) => {
                wire.batch.clear();
                for _ in 0..WIRE_BATCH {
                    wire.batch.push(Value::Float(self.walks[slot].next_value()));
                }
                let accepted = wire
                    .producer
                    .push_batch(wire.sources[slot], &wire.batch)
                    .map_err(err("push_batch"))?;
                if u64::from(accepted) != WIRE_BATCH {
                    return Err(format!(
                        "batch refused: {accepted} of {WIRE_BATCH} accepted"
                    ));
                }
            }
        }
        self.units_sent += 1;
        self.events_sent += self.plan.unit_events;
        Ok(())
    }

    /// [`send`](Self::send), recorded as a span in a traced run: every
    /// sealing push and every batch, and a sample of the plain pushes.
    fn send_traced(&mut self, rec: &mut Recorder, parent: SpanId) -> Result<(), String> {
        if !rec.on {
            return self.send();
        }
        let name = match (&self.target, self.next_send_seals()) {
            (Target::Wire(_), _) => "push_batch",
            (Target::Inproc { .. }, true) => "seal_push",
            (Target::Inproc { .. }, false) => {
                if !self.units_sent.is_multiple_of(PLAIN_PUSH_SAMPLING) {
                    return self.send();
                }
                "push"
            }
        };
        rec.time(name, parent, || self.send())
    }

    /// Seals what is buffered and waits until every committed phase has
    /// retired: the end of a timed segment.
    fn drain(&mut self, rec: &mut Recorder, parent: SpanId) -> Result<(), String> {
        match &mut self.target {
            Target::Inproc { rt, .. } => {
                rec.time("flush", parent, || rt.flush())
                    .map_err(err("flush"))?;
                rec.time("wait_idle", parent, || rt.wait_idle())
                    .map_err(err("wait_idle"))?;
            }
            Target::Wire(wire) => {
                rec.time("flush", parent, || wire.producer.seal())
                    .map_err(err("seal"))?;
                let tenant = wire.server.tenant(TENANT).ok_or("tenant gone")?;
                rec.time("wait_idle", parent, || tenant.wait_idle())
                    .map_err(err("wait_idle"))?;
            }
        }
        Ok(())
    }

    /// Waits until the emission of the last phase sent has reached the
    /// delivery side. Untimed in the saturation part: over the wire the
    /// subscriber connection hands alarms over on a poll timer of a few
    /// milliseconds, which would quantize every segment's time. The
    /// paced part measures that path.
    fn await_delivery(&mut self, rec: &mut Recorder, parent: SpanId) -> Result<(), String> {
        let last = self.phases_sent();
        rec.time("await_delivery", parent, || self.probe.wait_delivered(last))
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.rt_probe.metrics()
    }

    /// Phases admitted and not yet retired.
    fn backlog(&self) -> u64 {
        self.rt_probe
            .admitted()
            .saturating_sub(self.rt_probe.completed_through())
    }

    /// The bound `/metrics` address of an in-process runtime.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.target {
            Target::Inproc { rt, .. } => rt.metrics_addr(),
            Target::Wire(_) => None,
        }
    }

    /// Clean shutdown. Joins every thread the instance started.
    pub fn shut_down(self) -> Result<Option<WireRemains>, String> {
        match self.target {
            Target::Inproc { rt, handles } => {
                drop(handles);
                rt.shutdown().map_err(err("shutdown"))?;
                Ok(None)
            }
            Target::Wire(wire) => {
                let WireTarget {
                    producer,
                    server,
                    reader,
                    sub_stats,
                    ..
                } = *wire;
                // The producer says goodbye before the server stops; the
                // reader ends when the server closes its connection.
                let (blocks_seen, reconnects) = (producer.blocks_seen(), producer.reconnects());
                drop(producer);
                let stats = server.stats();
                for (name, report) in server.shutdown() {
                    report.map_err(|e| format!("close tenant {name}: {e}"))?;
                }
                let reader_spans = reader.join().map_err(|_| "subscriber reader panicked")?;
                Ok(Some(WireRemains {
                    stats,
                    blocks_seen,
                    reconnects,
                    sub_frames: sub_stats.frames.load(Ordering::Relaxed),
                    sub_alarms: sub_stats.alarms.load(Ordering::Relaxed),
                    reader_spans,
                }))
            }
        }
    }
}

fn inproc_target(rt: StreamRuntime) -> Result<Target, String> {
    let handle = |name| rt.handle_by_name(name).map_err(err("source handle"));
    let handles = [handle("s1")?, handle("s2")?];
    Ok(Target::Inproc { rt, handles })
}

/// The durable workload's store settings: default fsync cadence;
/// snapshots every 4096 phases and 4 MiB segments, so that incremental
/// snapshots, segment rotation and compaction all happen inside the
/// measured window.
pub fn durable(
    builder: ec_runtime::StreamRuntimeBuilder,
    dir: &Path,
) -> ec_runtime::StreamRuntimeBuilder {
    builder
        .durable(dir)
        .snapshot_every(4096)
        .segment_bytes(4 << 20)
}

/// One timed saturation segment.
pub struct Segment {
    pub events_per_s: f64,
    pub traced: bool,
}

pub struct Saturation {
    pub segments: Vec<Segment>,
    pub events: u64,
    pub wall_s: f64,
    /// Backlog (phases admitted, not retired) sampled by the generator.
    pub backlog: Vec<f64>,
}

impl Saturation {
    /// Per-segment rates: all of them, or only the traced (`Some(true)`)
    /// or untraced (`Some(false)`) segments.
    pub fn rates(&self, traced: Option<bool>) -> Vec<f64> {
        self.segments
            .iter()
            .filter(|s| traced.is_none_or(|t| s.traced == t))
            .map(|s| s.events_per_s)
            .collect()
    }
}

/// Part (b): closed loop. Fixed-size segments, each sent flat out, then
/// drained (sealed, every phase retired) and timed, until `budget` has
/// passed. In a traced run every other segment records
/// spans, so traced and untraced rates are interleaved pairs.
pub fn saturate(
    sut: &mut Sut,
    budget: Duration,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<Saturation, String> {
    let traced_run = rec.on;
    let units = sut.plan.segment_events / sut.plan.unit_events;
    let mut out = Saturation {
        segments: Vec::with_capacity(1024),
        events: 0,
        wall_s: 0.0,
        backlog: Vec::with_capacity(if traced_run { 1 << 14 } else { 0 }),
    };
    let start = Instant::now();
    let mut samples = 0u64;
    // At least one segment, so a zero budget means "one segment".
    loop {
        rec.on = traced_run && out.segments.len().is_multiple_of(2);
        let span = rec.open("segment", parent);
        let t = Instant::now();
        for _ in 0..units {
            let seals = sut.next_send_seals();
            sut.send_traced(rec, span)?;
            if rec.on && seals {
                samples += 1;
                if samples.is_multiple_of(BACKLOG_SAMPLING) {
                    out.backlog.push(sut.backlog() as f64);
                }
            }
        }
        sut.drain(rec, span)?;
        let dt = t.elapsed().as_secs_f64();
        rec.close(span);
        sut.await_delivery(rec, parent)?;
        out.segments.push(Segment {
            events_per_s: sut.plan.segment_events as f64 / dt,
            traced: rec.on,
        });
        out.events += sut.plan.segment_events;
        if start.elapsed() >= budget {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    rec.on = traced_run;
    Ok(out)
}

pub struct Paced {
    /// Due time (ns) of the send that completed each latency sample.
    pub due_ns: Vec<u64>,
    /// How late that send started (ns).
    pub lag_ns: Vec<u64>,
    pub events: u64,
    /// From the first send's due time to the return of the last send.
    pub send_wall_s: f64,
    pub backlog: Vec<f64>,
}

/// Number of latency samples the paced part takes in `seconds`.
pub fn paced_samples(plan: &Plan, seconds: f64) -> usize {
    (plan.paced_rate * seconds / plan.sample_events as f64) as usize
}

/// Part (c): open loop at the plan's frozen rate. Each send has a due
/// time on a fixed schedule and goes out as soon as it is due — late if
/// the system stalled the generator, never skipped. Latency samples are
/// taken against the *due* time of the send that seals an epoch (sends
/// a batch), so a stall charges every later result it delays.
pub fn pace(
    sut: &mut Sut,
    samples: usize,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<Paced, String> {
    let plan = sut.plan;
    let units_per_sample = plan.sample_events / plan.unit_events;
    let interval_ns = 1e9 * plan.unit_events as f64 / plan.paced_rate;
    let mut out = Paced {
        due_ns: Vec::with_capacity(samples),
        lag_ns: Vec::with_capacity(samples),
        events: 0,
        send_wall_s: 0.0,
        backlog: Vec::with_capacity(samples / BACKLOG_SAMPLING as usize + 1),
    };
    sut.probe
        .sample_base
        .store(sut.phases_sent(), Ordering::Relaxed);
    if let Some(hop) = &sut.hop_probe {
        hop.sample_base.store(sut.phases_sent(), Ordering::Relaxed);
    }
    let t0 = rec.now_ns() + 1_000_000;
    let total_units = samples as u64 * units_per_sample;
    for k in 0..total_units {
        let due = t0 + (k as f64 * interval_ns) as u64;
        let mut now = rec.now_ns();
        while now < due {
            // Sleep through long gaps; poll through the rest, giving
            // the core away between looks (on a two-core box a spinning
            // generator would take a core from the very threads it is
            // timing).
            if due - now > PACING_SLEEP_NS {
                std::thread::sleep(Duration::from_nanos(due - now));
            } else {
                std::thread::yield_now();
            }
            now = rec.now_ns();
        }
        let seals = sut.next_send_seals();
        sut.send_traced(rec, parent)?;
        if seals {
            out.due_ns.push(due);
            out.lag_ns.push(now - due);
            if rec.on && (out.due_ns.len() as u64).is_multiple_of(BACKLOG_SAMPLING) {
                out.backlog.push(sut.backlog() as f64);
            }
        }
    }
    out.send_wall_s = (rec.now_ns() - t0) as f64 / 1e9;
    sut.drain(rec, parent)?;
    sut.await_delivery(rec, parent)?;
    out.events = total_units * plan.unit_events;
    sut.probe.sample_base.store(u64::MAX, Ordering::Relaxed);
    Ok(out)
}
