//! The four workloads: their frozen run shape, their graphs, and the
//! `Sequential` oracle over the same seed-derived inputs.
//!
//! Everything here is a constant of the benchmark. A change that claims
//! a gain must not edit it (see EXPERIMENTS.md).

use crate::stats::{fold_emission, Walk, FNV_OFFSET};
use ec_core::{PassThrough, Workload as Spin};
use ec_events::{EventSource, Phase, Value};
use ec_fusion::operators::aggregate::Aggregate;
use ec_fusion::operators::moving::MovingAverage;
use ec_fusion::operators::threshold::Threshold;
use ec_fusion::{CorrelatorBuilder, NodeHandle};
use ec_runtime::{EpochPolicy, StreamRuntime, StreamRuntimeBuilder};

/// Events per sealed epoch (`EpochPolicy::ByCount`) of the stream
/// workloads: 8 phases in process, 16 over the wire.
pub const EPOCH: u64 = 16;
/// Events per sealed epoch of `engine_pipeline`: one phase. Phases then
/// enter the chain one by one, as the paper's environment thread feeds
/// them, and the paced part times single phases through the pipeline.
/// (Sealing 8 phases at a time made the paced latency bistable — 1.9 ms
/// when both workers picked the burst up, 2.6 ms when one did — and it
/// flipped between runs.)
pub const PIPELINE_EPOCH: u64 = 2;
/// Events per `PushBatch` frame of the wire workload.
pub const WIRE_BATCH: u64 = 64;
/// Depth of the `engine_pipeline` operator chain.
pub const CHAIN_DEPTH: usize = 10;
/// Synthetic work per chain vertex: ~10–20 µs of dependent `mul_add`s,
/// the paper's regime where vertex work dominates bookkeeping (§4).
pub const SPIN_ITERS: u64 = 10_000;
/// Threshold the `alarm` sink watches; the walks revert to 0, so the
/// smoothed sum keeps crossing it at a steady rate.
pub const ALARM_LEVEL: f64 = 0.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InprocStream,
    DurableStream,
    WireStream,
    EnginePipeline,
}

pub const ALL_WORKLOADS: [Workload; 4] = [
    Workload::InprocStream,
    Workload::DurableStream,
    Workload::WireStream,
    Workload::EnginePipeline,
];

/// The frozen run shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    /// Events driven to idle in every set-up cycle.
    pub warmup_events: u64,
    /// Events per timed saturation segment (~50 ms at the seed commit).
    pub segment_events: u64,
    /// Open-loop rate of the paced part, events/s: ~40% of the
    /// saturation rate measured at the seed commit.
    pub paced_rate: f64,
    /// Events per send call: 1 (`push`) or [`WIRE_BATCH`] (`push_batch`).
    pub unit_events: u64,
    /// Events per sealed epoch.
    pub epoch_events: u64,
    /// Events per latency sample: one epoch, or one wire batch.
    pub sample_events: u64,
    /// Engine workers.
    pub threads: usize,
    /// Bound on started-but-incomplete phases.
    pub max_inflight: u64,
}

impl Workload {
    pub fn plan(self) -> Plan {
        match self {
            Workload::InprocStream => Plan {
                name: "inproc_stream",
                warmup_events: 51_200,
                segment_events: 16_384,
                paced_rate: 120_000.0,
                unit_events: 1,
                epoch_events: EPOCH,
                sample_events: EPOCH,
                threads: 1,
                max_inflight: 64,
            },
            Workload::DurableStream => Plan {
                name: "durable_stream",
                ..Workload::InprocStream.plan()
            },
            Workload::WireStream => Plan {
                name: "wire_stream",
                warmup_events: 51_200,
                segment_events: 6_400,
                paced_rate: 50_000.0,
                unit_events: WIRE_BATCH,
                epoch_events: EPOCH,
                sample_events: WIRE_BATCH,
                threads: 1,
                max_inflight: 64,
            },
            Workload::EnginePipeline => Plan {
                name: "engine_pipeline",
                warmup_events: 5_120,
                segment_events: 576,
                paced_rate: 4_800.0,
                unit_events: 1,
                epoch_events: PIPELINE_EPOCH,
                sample_events: PIPELINE_EPOCH,
                threads: 2,
                max_inflight: 32,
            },
        }
    }

    pub fn name(self) -> &'static str {
        self.plan().name
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Phases that `events` pushed events commit. In process the two
    /// sources alternate, so an epoch of 16 events is 8 phases with both
    /// sources fresh; over the wire each 64-event batch carries one
    /// source, so every event is a phase of its own with the other
    /// source silent.
    pub fn phases_for(self, events: u64) -> u64 {
        match self {
            Workload::WireStream => events,
            _ => events / 2,
        }
    }

    fn spin(self) -> Option<u64> {
        (self == Workload::EnginePipeline).then_some(SPIN_ITERS)
    }
}

/// Wires the operators behind the two sources. `spin` is `None` for the
/// shared stream graph (`sum → avg(8) → alarm, tap`) and `Some(iters)`
/// for the pipeline graph (`sum → 10 × spin(avg(4)) → alarm, tap`).
/// `tap` forwards every smoothed value, so each phase with fresh input
/// yields one emission to time and to digest.
pub fn add_operators(c: &mut CorrelatorBuilder, s1: NodeHandle, s2: NodeHandle, spin: Option<u64>) {
    let sum = c.add("sum", Aggregate::sum(), &[s1, s2]);
    let smoothed = match spin {
        None => c.add("avg", MovingAverage::new(8), &[sum]),
        Some(iters) => (0..CHAIN_DEPTH).fold(sum, |prev, i| {
            c.add(
                format!("stage{i}"),
                Spin::new(MovingAverage::new(4), iters),
                &[prev],
            )
        }),
    };
    c.add("alarm", Threshold::above(ALARM_LEVEL), &[smoothed]);
    c.add("tap", PassThrough, &[smoothed]);
}

/// The live runtime builder of a workload (durability and pooling are
/// the caller's to add).
pub fn runtime_builder(w: Workload) -> StreamRuntimeBuilder {
    let plan = w.plan();
    let mut b = StreamRuntime::builder()
        .threads(plan.threads)
        .epoch_policy(EpochPolicy::ByCount(plan.epoch_events as usize))
        .max_inflight(plan.max_inflight)
        .record_history(false)
        .record_script(false)
        .trace_sampling(0);
    let s1 = b.live_source("s1");
    let s2 = b.live_source("s2");
    add_operators(b.correlator_mut(), s1, s2, w.spin());
    b
}

/// One source of the oracle's (and the batch engine's) scripted graph:
/// the same walk the generator pushes, binned the way the workload's
/// sends commit.
pub struct ScriptSource {
    walk: Walk,
    /// Source slot: 0 for `s1`, 1 for `s2`.
    slot: u64,
    /// Wire binning: batches of [`WIRE_BATCH`] phases alternate sources.
    sparse: bool,
}

impl ScriptSource {
    pub fn new(seed: u64, slot: u64, sparse: bool) -> ScriptSource {
        ScriptSource {
            walk: Walk::new(seed, slot + 1),
            slot,
            sparse,
        }
    }
}

impl EventSource for ScriptSource {
    fn poll(&mut self, phase: Phase) -> Option<Value> {
        if self.sparse && ((phase.get() - 1) / WIRE_BATCH) % 2 != self.slot {
            return None;
        }
        Some(Value::Float(self.walk.next_value()))
    }

    fn kind(&self) -> &'static str {
        "bench-script"
    }
}

/// The workload's graph over scripted sources. `spin` overrides the
/// chain's synthetic work (the oracle passes `Some(0)`: the spin has no
/// effect on any value, only on the time the replay takes).
pub fn scripted_graph(w: Workload, seed: u64, spin: Option<u64>) -> CorrelatorBuilder {
    let sparse = w == Workload::WireStream;
    let mut c = CorrelatorBuilder::new();
    let s1 = c.source("s1", ScriptSource::new(seed, 0, sparse));
    let s2 = c.source("s2", ScriptSource::new(seed, 1, sparse));
    add_operators(&mut c, s1, s2, w.spin().map(|own| spin.unwrap_or(own)));
    c
}

/// What the oracle says the timed parts must have delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub digest: u64,
    pub taps: u64,
    pub alarms: u64,
}

/// Replays `total_phases` phases of the seed's binning through
/// `Sequential` and folds every sink emission after `skip_phases` (the
/// warm-up) into the digest, in serial order.
pub fn oracle(w: Workload, seed: u64, total_phases: u64, skip_phases: u64) -> Expected {
    let graph = scripted_graph(w, seed, Some(0));
    let names: Vec<String> = {
        let dag = graph.dag();
        dag.vertices().map(|v| dag.name(v).to_string()).collect()
    };
    let mut seq = graph.sequential().expect("oracle graph builds");
    seq.run(total_phases).expect("oracle replay");
    let history = seq.into_history();
    let mut expected = Expected {
        digest: FNV_OFFSET,
        taps: 0,
        alarms: 0,
    };
    for record in history.sink_outputs() {
        let phase = record.phase.get();
        if phase <= skip_phases {
            continue;
        }
        let sink = names[record.vertex.index()].as_str();
        expected.digest = fold_emission(expected.digest, phase, sink, &record.value);
        if sink == "tap" {
            expected.taps += 1;
        } else {
            expected.alarms += 1;
        }
    }
    expected
}
