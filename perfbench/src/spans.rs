//! Spans recorded *by the benchmark* around its calls into each layer's
//! public functions. Kept in memory; written out as one Chrome-trace
//! JSON file when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder; `ROOT` is "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

/// One thread's span buffer. `on` gates recording, so the traced and
/// untraced arms of a run share one code path.
pub struct Recorder {
    clock: Instant,
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans when `on` — one
    /// allocation up front, because growth pauses would land inside
    /// timed segments.
    pub fn new(clock: Instant, on: bool, capacity: usize) -> Recorder {
        Recorder {
            clock,
            on,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    /// A recorder that records nothing.
    pub fn off(clock: Instant) -> Recorder {
        Recorder::new(clock, false, 0)
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones; close it with
    /// [`close`](Self::close). Returns [`ROOT`] when recording is off.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if id != ROOT {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a finished call.
    pub fn leaf(&mut self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
            });
        }
    }

    /// Times `call` as a leaf span when recording is on.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, call: impl FnOnce() -> T) -> T {
        if !self.on {
            return call();
        }
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.leaf(name, parent, start_ns, end_ns);
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Writes the threads' spans as Chrome trace-viewer "complete" events
/// (`ph: "X"`, microsecond timestamps). Each event carries its own id,
/// its parent's id and the workload name, so the span tree survives the
/// format.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    threads: &[(&str, &[Span])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
    for (i, (thread, spans)) in threads.iter().enumerate() {
        let tid = i + 1;
        if i > 0 {
            write!(out, ",")?;
        }
        write!(
            out,
            "\n{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{thread}\"}}}}"
        )?;
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                ",\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}, \"workload\": \"{workload}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}
