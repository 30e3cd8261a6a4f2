//! Deterministic single-stepping executor.
//!
//! [`Stepper`] drives the same scheduler state as the parallel engine
//! but executes one claimed phase run at a time, chosen by the caller.
//! A run is what an engine worker dequeues: a vertex with every phase
//! in which it was full when promoted (see the `state` module docs),
//! identified by the vertex and its first — ready — phase. The stepper
//! never splits a run. It exists for three purposes:
//!
//! * reproducing the paper's **Figure 3** exactly — the figure shows a
//!   specific interleaving of phase starts and executions, with the
//!   partial/full/ready memberships after each step;
//! * debugging module graphs (watch the sets evolve step by step);
//! * schedule-exploration tests (execute ready pairs in adversarial
//!   orders and check serializability).
//!
//! The stepper maintains the identical data structures as the engine,
//! so what it shows is what the parallel run does — just one transition
//! at a time. Figure 3's interleaving is unaffected by runs: a claim
//! holds only phases that are already full, and in the figure every
//! promotion finds exactly one.

use crate::error::EngineError;
use crate::history::ExecutionHistory;
use crate::module::Module;
use crate::state::{Idx, SchedState, Task, Transition};
use crate::trace::{SetSnapshot, Trace};
use crate::vertex::{route_emission, VertexSlot};
use ec_events::{Phase, Value};
use ec_graph::{Dag, Numbering, VertexId};

/// One executed step: a phase run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// 1-based schedule index of the executed vertex.
    pub vertex_index: u32,
    /// First phase of the run.
    pub phase: u64,
    /// Number of phases the run executed.
    pub phases: usize,
    /// Number of messages emitted, over all of the run's phases.
    pub emitted: usize,
}

/// A deterministic, caller-driven executor over the paper's scheduler
/// state.
pub struct Stepper {
    state: SchedState,
    slots: Vec<VertexSlot>,
    succs_idx: Vec<Vec<Idx>>,
    numbering: Numbering,
    pending: Vec<Task>,
    history: ExecutionHistory,
}

impl Stepper {
    /// Builds a stepper with tracing enabled.
    pub fn new(dag: &Dag, modules: Vec<Box<dyn Module>>) -> Result<Stepper, EngineError> {
        let numbering = Numbering::compute(dag);
        let slots = VertexSlot::build(dag, &numbering, modules)?;
        let succs_idx = numbering
            .schedule_order()
            .map(|v| {
                let mut s: Vec<Idx> = dag
                    .succs(v)
                    .iter()
                    .map(|&w| numbering.index_of(w))
                    .collect();
                s.sort_unstable();
                s
            })
            .collect();
        let mut state = SchedState::new(numbering.m_table());
        state.enable_trace();
        let n = slots.len();
        Ok(Stepper {
            state,
            slots,
            succs_idx,
            numbering,
            pending: Vec::new(),
            history: ExecutionHistory::new(n),
        })
    }

    /// The numbering in use.
    pub fn numbering(&self) -> &Numbering {
        &self.numbering
    }

    /// Starts the next phase (the environment process's step) and
    /// returns its number.
    pub fn start_phase(&mut self) -> u64 {
        let mut tr = Transition::default();
        let p = self.state.start_phase(&mut tr);
        self.pending.extend(tr.tasks);
        debug_assert!(self.state.check_invariants().is_ok());
        p
    }

    /// Ready-but-unexecuted runs, as `(index, first phase)` — each
    /// run's ready pair — in the order they became ready.
    pub fn ready_pairs(&self) -> Vec<(u32, u64)> {
        self.pending.iter().map(|t| (t.idx, t.phase)).collect()
    }

    /// Executes the oldest ready run (FIFO). Returns `None` when nothing
    /// is ready.
    pub fn step(&mut self) -> Result<Option<StepOutcome>, EngineError> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let task = self.pending.remove(0);
        self.execute(task).map(Some)
    }

    /// Executes the run whose ready pair is `(index, phase)` (for
    /// reproducing a chosen interleaving, e.g. Figure 3's).
    ///
    /// Returns an error if the pair is not currently ready.
    pub fn step_pair(&mut self, index: u32, phase: u64) -> Result<StepOutcome, EngineError> {
        let pos = self
            .pending
            .iter()
            .position(|t| t.idx == index && t.phase == phase)
            .ok_or_else(|| EngineError::Config(format!("pair ({index}, {phase}) is not ready")))?;
        let task = self.pending.remove(pos);
        self.execute(task)
    }

    fn execute(&mut self, task: Task) -> Result<StepOutcome, EngineError> {
        let Task {
            idx,
            phase,
            inputs,
            rest,
        } = task;
        let pos = (idx - 1) as usize;
        let vertex = self.slots[pos].vertex_id;
        let mut outputs = Vec::with_capacity(1 + rest.len());
        let mut emitted = 0;
        for (p, inputs) in std::iter::once((phase, inputs)).chain(rest) {
            let fresh: Vec<(VertexId, Value)> = inputs
                .into_iter()
                .map(|(i, v)| (self.numbering.vertex_at(i), v))
                .collect();
            let emission = self.slots[pos].execute(Phase(p), &fresh);
            let routed = route_emission(
                emission,
                self.slots[pos].is_sink,
                vertex,
                &self.succs_idx[pos],
                &self.numbering,
            )?;
            self.history.record(vertex, Phase(p), routed.recorded);
            if let Some(v) = routed.sink_value {
                self.history.record_sink(vertex, Phase(p), v);
            }
            emitted += routed.messages.len();
            outputs.push((p, routed.messages));
        }
        let phases = outputs.len();
        let mut tr = Transition::default();
        self.state.finish_run(idx, outputs, &mut tr);
        self.pending.extend(tr.tasks);
        self.state
            .check_invariants()
            .map_err(EngineError::InvariantViolation)?;
        Ok(StepOutcome {
            vertex_index: idx,
            phase,
            phases,
            emitted,
        })
    }

    /// Runs steps (FIFO) until nothing is ready; returns how many runs
    /// executed.
    pub fn drain(&mut self) -> Result<usize, EngineError> {
        let mut steps = 0;
        while self.step()?.is_some() {
            steps += 1;
        }
        Ok(steps)
    }

    /// Current set memberships (the Figure 3 view).
    pub fn snapshot(&self) -> SetSnapshot {
        self.state.snapshot()
    }

    /// All phases up to and including this have completed.
    pub fn completed_through(&self) -> u64 {
        self.state.completed_through()
    }

    /// Takes the recorded trace (one step per transition so far).
    pub fn take_trace(&mut self) -> Trace {
        let t = self.state.take_trace().unwrap_or_default();
        self.state.enable_trace();
        t
    }

    /// The execution history so far (finalised copy).
    pub fn history(&self) -> ExecutionHistory {
        let mut h = self.history.clone();
        h.finalize();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{PassThrough, SourceModule};
    use ec_events::sources::Counter;
    use ec_graph::generators;

    fn chain_stepper(len: usize) -> Stepper {
        let dag = generators::chain(len);
        let mut modules: Vec<Box<dyn Module>> = vec![Box::new(SourceModule::new(Counter::new()))];
        for _ in 1..len {
            modules.push(Box::new(PassThrough));
        }
        Stepper::new(&dag, modules).unwrap()
    }

    #[test]
    fn fifo_steps_complete_a_phase() {
        let mut s = chain_stepper(3);
        assert_eq!(s.start_phase(), 1);
        assert_eq!(s.ready_pairs(), vec![(1, 1)]);
        let o = s.step().unwrap().unwrap();
        assert_eq!((o.vertex_index, o.phase, o.phases, o.emitted), (1, 1, 1, 1));
        assert_eq!(s.drain().unwrap(), 2);
        assert_eq!(s.completed_through(), 1);
        assert!(s.step().unwrap().is_none());
    }

    #[test]
    fn step_pair_selects_interleaving() {
        let mut s = chain_stepper(2);
        s.start_phase();
        s.start_phase();
        // (1,1) ready; (1,2) is full but not ready yet.
        assert!(s.step_pair(1, 2).is_err());
        s.step_pair(1, 1).unwrap();
        // Now both (2,1) and (1,2) are ready; pick the later phase first.
        let mut ready = s.ready_pairs();
        ready.sort_unstable();
        assert_eq!(ready, vec![(1, 2), (2, 1)]);
        s.step_pair(1, 2).unwrap();
        s.drain().unwrap();
        assert_eq!(s.completed_through(), 2);
    }

    #[test]
    fn snapshot_shows_memberships() {
        let mut s = chain_stepper(2);
        s.start_phase();
        let snap = s.snapshot();
        assert_eq!(snap.ready(), vec![(1, 1)]);
        s.step().unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.ready(), vec![(2, 1)]);
    }

    #[test]
    fn history_matches_sequential_semantics() {
        let mut s = chain_stepper(3);
        for _ in 0..3 {
            s.start_phase();
            s.drain().unwrap();
        }
        let h = s.history();
        let sink = s.numbering().vertex_at(3);
        let vals: Vec<i64> = h
            .sink_outputs_of(sink)
            .iter()
            .map(|(_, v)| v.as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn trace_accumulates_steps() {
        let mut s = chain_stepper(2);
        s.start_phase();
        s.drain().unwrap();
        let t = s.take_trace();
        assert_eq!(t.len(), 3); // 1 start + 2 executions
                                // Trace continues recording after take.
        s.start_phase();
        s.drain().unwrap();
        let t = s.take_trace();
        assert_eq!(t.len(), 3);
    }
}
