//! The flight recorder: per-worker rings of timestamped span events.
//!
//! A profiler answers "where did the time go?" *after* the run; a
//! flight recorder answers it for the *last few milliseconds before you
//! looked* — which is what matters when a pipeline stalls in
//! production. Each worker owns one fixed-capacity ring; recording is
//! one `Instant` read plus one ring write behind a per-lane lock no
//! other recorder contends (drains take the lock briefly). When a ring
//! fills, it overwrites its oldest entries: the recorder always holds
//! the newest window of activity, never a stale prefix.
//!
//! Lane 0 is the control plane (admission, epoch seals, WAL commits,
//! snapshots); lanes `1..` belong to workers. The drained rings render
//! into Chrome `chrome://tracing` JSON via
//! [`FlightRecorder::chrome_trace`].

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

/// What a [`SpanEvent`] marks. Duration-carrying kinds render as Chrome
/// complete (`"X"`) events; the rest are instants (`"i"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A phase entered the scheduler (environment process admitted it).
    PhaseAdmitted,
    /// One vertex-phase execution (duration = module run time).
    Exec,
    /// The completion frontier advanced past this phase.
    PhaseRetired,
    /// An ingest epoch was sealed into phases (duration = seal time).
    EpochSealed,
    /// A WAL group commit (duration = write time).
    WalCommit,
    /// An operator-state snapshot was written (duration = write time).
    Snapshot,
    /// A worker stole a batch from another worker's shard.
    Steal,
    /// A worker parked on an empty queue.
    Park,
    /// A parked worker was woken.
    Wake,
    /// A sampled producer push entered the ingest plane (start of a
    /// causal trace; `a` = trace id, `b` = source slot).
    TraceIngest,
    /// A sampled event's phase retired and its sink output reached the
    /// delivery plane (end of a causal trace; `a` = trace id, `b` =
    /// phase; duration = ingest→delivery latency).
    TraceDeliver,
}

impl SpanKind {
    /// Stable lowercase name used in traces and tests.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::PhaseAdmitted => "phase_admitted",
            SpanKind::Exec => "exec",
            SpanKind::PhaseRetired => "phase_retired",
            SpanKind::EpochSealed => "epoch_sealed",
            SpanKind::WalCommit => "wal_commit",
            SpanKind::Snapshot => "snapshot",
            SpanKind::Steal => "steal",
            SpanKind::Park => "park",
            SpanKind::Wake => "wake",
            SpanKind::TraceIngest => "trace_ingest",
            SpanKind::TraceDeliver => "trace_deliver",
        }
    }

    /// Labels for the two payload words in trace `args`.
    fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            SpanKind::PhaseAdmitted | SpanKind::Exec | SpanKind::PhaseRetired => ("phase", "aux"),
            SpanKind::EpochSealed => ("phases", "events"),
            SpanKind::WalCommit => ("rows", "aux"),
            SpanKind::Snapshot => ("phase", "aux"),
            SpanKind::Steal => ("victim", "batch"),
            SpanKind::Park | SpanKind::Wake => ("worker", "aux"),
            SpanKind::TraceIngest => ("trace", "source"),
            SpanKind::TraceDeliver => ("trace", "phase"),
        }
    }
}

/// One recorded event: a completion timestamp (nanoseconds since the
/// recorder's epoch), an optional duration, a kind and two payload
/// words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// When the event *finished*, in nanoseconds since the recorder was
    /// created. Monotonic within a lane (events are recorded in
    /// completion order off one clock).
    pub at_nanos: u64,
    /// How long the spanned work took; 0 for instant events.
    pub dur_nanos: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Primary payload (phase number, victim worker, row count — see
    /// [`SpanKind`]).
    pub a: u64,
    /// Secondary payload.
    pub b: u64,
}

/// A fixed-capacity ring: newest events win, oldest are overwritten.
struct Ring {
    buf: VecDeque<SpanEvent>,
    cap: usize,
    /// Events recorded into this lane, ever.
    recorded: u64,
    /// Events overwritten before any drain saw them.
    overwritten: u64,
}

impl Ring {
    fn push(&mut self, e: SpanEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.overwritten += 1;
        }
        self.buf.push_back(e);
        self.recorded += 1;
    }
}

/// Per-lane rings of [`SpanEvent`]s: lane 0 is the control plane, lanes
/// `1..` belong to workers, and a full ring overwrites its oldest entry.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    lanes: Vec<Mutex<Ring>>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("len", &self.buf.len())
            .field("cap", &self.cap)
            .field("recorded", &self.recorded)
            .field("overwritten", &self.overwritten)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with `lanes` rings of `capacity` events each. Lane 0
    /// is conventionally the control plane, lanes `1..` the workers;
    /// both arguments are clamped to at least 1 / 8.
    pub fn new(lanes: usize, capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(8);
        FlightRecorder {
            epoch: Instant::now(),
            lanes: (0..lanes.max(1))
                .map(|_| {
                    Mutex::new(Ring {
                        buf: VecDeque::with_capacity(capacity),
                        cap: capacity,
                        recorded: 0,
                        overwritten: 0,
                    })
                })
                .collect(),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Nanoseconds since the recorder was created (the trace clock).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an instant event into `lane` (wrapped into range): one
    /// `Instant` read, one ring write.
    #[inline]
    pub fn record(&self, lane: usize, kind: SpanKind, a: u64, b: u64) {
        self.record_span(lane, kind, a, b, 0);
    }

    /// Records an event that took `dur_nanos` and finished now.
    #[inline]
    pub fn record_span(&self, lane: usize, kind: SpanKind, a: u64, b: u64, dur_nanos: u64) {
        self.record_span_ending(lane, kind, a, b, dur_nanos, Instant::now());
    }

    /// Records an event that took `dur_nanos` and finished at `end` —
    /// the zero-clock-read variant for hot paths that already timed the
    /// work: converting `end` to the trace clock is a subtraction, not
    /// another `Instant::now()`.
    #[inline]
    pub fn record_span_ending(
        &self,
        lane: usize,
        kind: SpanKind,
        a: u64,
        b: u64,
        dur_nanos: u64,
        end: Instant,
    ) {
        let at_nanos = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let e = SpanEvent {
            at_nanos,
            dur_nanos,
            kind,
            a,
            b,
        };
        self.lanes[lane % self.lanes.len()].lock().push(e);
    }

    /// Empties every ring, returning each lane's events oldest-first.
    pub fn drain(&self) -> Vec<Vec<SpanEvent>> {
        self.lanes
            .iter()
            .map(|l| l.lock().buf.drain(..).collect())
            .collect()
    }

    /// `(recorded, overwritten)` counters for `lane` — overwritten
    /// events were lost to ring wraparound before a drain saw them.
    pub fn lane_stats(&self, lane: usize) -> (u64, u64) {
        let ring = self.lanes[lane % self.lanes.len()].lock();
        (ring.recorded, ring.overwritten)
    }

    /// Drains every ring and renders the events as Chrome
    /// `chrome://tracing` JSON (load via `chrome://tracing` or
    /// <https://ui.perfetto.dev>).
    pub fn chrome_trace(&self) -> String {
        chrome_trace_from(&self.drain())
    }
}

/// Renders per-lane event lists (lane index = Chrome `tid`) as a Chrome
/// trace. Duration-carrying events become complete (`"X"`) slices whose
/// `ts` is the span *start*; the rest become instants.
pub fn chrome_trace_from(lanes: &[Vec<SpanEvent>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, _) in lanes.iter().enumerate() {
        let name = if tid == 0 {
            "control".to_string()
        } else {
            format!("worker {}", tid - 1)
        };
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (tid, events) in lanes.iter().enumerate() {
        for e in events {
            let (ka, kb) = e.kind.arg_names();
            let args = format!("{{\"{ka}\":{},\"{kb}\":{}}}", e.a, e.b);
            out.push(',');
            if e.dur_nanos > 0 {
                let start = e.at_nanos.saturating_sub(e.dur_nanos);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"ec\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                    e.kind.name(),
                    start as f64 / 1_000.0,
                    e.dur_nanos as f64 / 1_000.0,
                );
            } else {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"ec\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\
                     \"pid\":1,\"tid\":{tid},\"args\":{args}}}",
                    e.kind.name(),
                    e.at_nanos as f64 / 1_000.0,
                );
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Checks a Chrome trace produced by [`chrome_trace_from`] for
/// well-formedness: balanced JSON structure, and every event carrying
/// `name`, `ph`, `pid`, `tid` and a non-negative numeric `ts`. Returns
/// the number of events (including thread-name metadata).
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let body = json
        .strip_prefix("{\"traceEvents\":[")
        .ok_or("missing traceEvents prefix")?;
    let end = body.rfind(']').ok_or("missing closing bracket")?;
    // Balance check over the whole document, string-aware.
    let (mut depth, mut in_str, mut escape) = (0i64, false, false);
    for c in json.chars() {
        if in_str {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced braces".into());
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unbalanced document".into());
    }
    let events_src = &body[..end];
    if events_src.trim().is_empty() {
        return Ok(0);
    }
    // Events are flat objects with one nested `args` object — split on
    // top-level commas.
    let mut events = Vec::new();
    let (mut start, mut depth) = (0usize, 0i64);
    for (i, c) in events_src.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                events.push(&events_src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    events.push(&events_src[start..]);
    for (i, ev) in events.iter().enumerate() {
        let ev = ev.trim();
        if !ev.starts_with('{') || !ev.ends_with('}') {
            return Err(format!("event {i} is not an object: {ev}"));
        }
        for key in ["\"name\":", "\"ph\":", "\"pid\":", "\"tid\":", "\"ts\":"] {
            if !ev.contains(key) {
                return Err(format!("event {i} missing {key}: {ev}"));
            }
        }
        let ts = ev
            .split("\"ts\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .ok_or_else(|| format!("event {i} has malformed ts"))?;
        let ts: f64 = ts
            .trim()
            .parse()
            .map_err(|_| format!("event {i} ts is not numeric: {ts}"))?;
        if ts < 0.0 {
            return Err(format!("event {i} ts is negative"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_the_newest_events() {
        let r = FlightRecorder::new(1, 8);
        for i in 0..20u64 {
            r.record(0, SpanKind::Exec, i, 0);
        }
        let lanes = r.drain();
        let kept: Vec<u64> = lanes[0].iter().map(|e| e.a).collect();
        assert_eq!(kept, (12..20).collect::<Vec<_>>());
        let (recorded, overwritten) = r.lane_stats(0);
        assert_eq!(recorded, 20);
        assert_eq!(overwritten, 12);
    }

    #[test]
    fn lane_timestamps_are_monotonic() {
        let r = FlightRecorder::new(2, 64);
        for i in 0..50u64 {
            r.record(i as usize % 2, SpanKind::Park, i, 0);
        }
        for lane in r.drain() {
            for w in lane.windows(2) {
                assert!(w[0].at_nanos <= w[1].at_nanos);
            }
        }
    }

    #[test]
    fn drain_empties_the_rings() {
        let r = FlightRecorder::new(1, 8);
        r.record(0, SpanKind::Wake, 1, 0);
        assert_eq!(r.drain()[0].len(), 1);
        assert_eq!(r.drain()[0].len(), 0);
    }

    #[test]
    fn chrome_trace_validates() {
        let r = FlightRecorder::new(3, 32);
        r.record_span(1, SpanKind::Exec, 4, 2, 1500);
        r.record(0, SpanKind::PhaseAdmitted, 4, 0);
        r.record_span(0, SpanKind::WalCommit, 16, 0, 90_000);
        r.record(2, SpanKind::Steal, 1, 8);
        let json = r.chrome_trace();
        let n = validate_chrome_trace(&json).expect("well-formed");
        assert_eq!(n, 3 + 4); // 3 thread-name metadata + 4 events
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"wal_commit\""));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{]}").is_err());
    }

    #[test]
    fn empty_trace_validates() {
        let json = chrome_trace_from(&[]);
        assert_eq!(validate_chrome_trace(&json), Ok(0));
    }
}
