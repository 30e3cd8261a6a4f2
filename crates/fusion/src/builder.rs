//! Fluent construction of correlation graphs.
//!
//! [`CorrelatorBuilder`] assembles the computation graph and its modules
//! together, so wiring mistakes (wrong vertex/module pairing, dangling
//! inputs) are impossible by construction: a [`NodeHandle`] can only
//! name a vertex that already exists, and edges always run from existing
//! vertices to the new one — which also makes the graph acyclic by
//! construction.

use ec_core::{Engine, EngineBuilder, EngineError, Module, Sequential, SourceModule};
use ec_events::{EventSource, FeedWriter, LiveFeed};
use ec_graph::{Dag, VertexId};

/// A reference to a node created by the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHandle {
    vertex: VertexId,
}

impl NodeHandle {
    /// The underlying graph vertex (usable with
    /// [`ExecutionHistory`](ec_core::ExecutionHistory) lookups).
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }
}

/// Builds a correlation graph and its modules in lock-step.
#[derive(Default)]
pub struct CorrelatorBuilder {
    dag: Dag,
    modules: Vec<Box<dyn Module>>,
}

impl CorrelatorBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source node driven by `generator`.
    pub fn source(
        &mut self,
        name: impl Into<String>,
        generator: impl EventSource + 'static,
    ) -> NodeHandle {
        let vertex = self.dag.add_vertex(name);
        self.modules.push(Box::new(SourceModule::new(generator)));
        NodeHandle { vertex }
    }

    /// Adds a live source node: its per-phase values are staged through
    /// the returned [`FeedWriter`] while the engine runs, instead of
    /// being scripted up front. The streaming runtime (`ec-runtime`)
    /// builds on this to ingest external events.
    pub fn live_source(&mut self, name: impl Into<String>) -> (NodeHandle, FeedWriter) {
        let (feed, writer) = LiveFeed::channel();
        let handle = self.source(name, feed);
        (handle, writer)
    }

    /// Adds a source node from a boxed generator.
    pub fn source_box(
        &mut self,
        name: impl Into<String>,
        generator: Box<dyn EventSource>,
    ) -> NodeHandle {
        let vertex = self.dag.add_vertex(name);
        self.modules
            .push(Box::new(SourceModule::from_box(generator)));
        NodeHandle { vertex }
    }

    /// Adds a computation node running `module`, fed by `inputs`.
    ///
    /// # Panics
    /// Panics if `inputs` is empty (use [`source`](Self::source) for
    /// sources) or contains duplicates.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        module: impl Module + 'static,
        inputs: &[NodeHandle],
    ) -> NodeHandle {
        self.add_box(name, Box::new(module), inputs)
    }

    /// Adds a computation node from a boxed module.
    pub fn add_box(
        &mut self,
        name: impl Into<String>,
        module: Box<dyn Module>,
        inputs: &[NodeHandle],
    ) -> NodeHandle {
        assert!(
            !inputs.is_empty(),
            "non-source nodes need at least one input; use source() for sources"
        );
        let vertex = self.dag.add_vertex(name);
        self.modules.push(module);
        for h in inputs {
            self.dag
                .add_edge(h.vertex, vertex)
                .unwrap_or_else(|e| panic!("invalid input wiring: {e}"));
        }
        NodeHandle { vertex }
    }

    /// Number of nodes so far.
    pub fn len(&self) -> usize {
        self.dag.vertex_count()
    }

    /// True if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.dag.is_empty()
    }

    /// Read access to the graph under construction.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Finishes into a parallel-engine builder.
    pub fn engine(self) -> EngineBuilder {
        Engine::builder(self.dag, self.modules)
    }

    /// Finishes into the sequential reference executor.
    pub fn sequential(self) -> Result<Sequential, EngineError> {
        Sequential::new(&self.dag, self.modules)
    }

    /// Deconstructs into the raw graph and modules (for the spec layer
    /// and custom executors).
    pub fn into_parts(self) -> (Dag, Vec<Box<dyn Module>>) {
        (self.dag, self.modules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::aggregate::Aggregate;
    use crate::operators::threshold::Threshold;
    use ec_events::sources::Counter;

    #[test]
    fn builds_a_working_graph() {
        let mut b = CorrelatorBuilder::new();
        let s1 = b.source("s1", Counter::new());
        let s2 = b.source("s2", Counter::new());
        let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
        let alarm = b.add("alarm", Threshold::above(5.0), &[sum]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.dag().sources().len(), 2);

        let mut seq = b.sequential().unwrap();
        seq.run(5).unwrap();
        let h = seq.into_history();
        // Sum = 2·counter; crosses 5 at counter = 3 (sum 6), phase 3.
        let alarms = h.sink_outputs_of(alarm.vertex());
        assert_eq!(alarms.len(), 2); // initial false + the crossing
        assert_eq!(alarms[0].0.get(), 1);
        assert_eq!(alarms[1].0.get(), 3);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let build = || {
            let mut b = CorrelatorBuilder::new();
            let s1 = b.source("s1", Counter::new());
            let s2 = b.source("s2", Counter::new());
            let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
            let _ = b.add("alarm", Threshold::above(10.0), &[sum]);
            b
        };
        let mut seq = build().sequential().unwrap();
        seq.run(20).unwrap();
        let mut eng = build().engine().threads(4).build().unwrap();
        let h_par = eng.run(20).unwrap().history.unwrap();
        assert_eq!(seq.into_history().equivalent(&h_par), Ok(()));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn rejects_inputless_node() {
        let mut b = CorrelatorBuilder::new();
        b.add("orphan", Aggregate::sum(), &[]);
    }

    #[test]
    #[should_panic(expected = "invalid input wiring")]
    fn rejects_duplicate_inputs() {
        let mut b = CorrelatorBuilder::new();
        let s = b.source("s", Counter::new());
        b.add("dup", Aggregate::sum(), &[s, s]);
    }

    #[test]
    fn live_source_is_fed_at_runtime() {
        use ec_events::Value;
        let mut b = CorrelatorBuilder::new();
        let (tx, writer) = b.live_source("tx");
        let alarm = b.add("alarm", Threshold::above(5.0), &[tx]);
        // Stage three phases of input, then run them.
        for v in [1.0, 9.0, 2.0] {
            writer.stage(Some(Value::Float(v)));
        }
        let mut seq = b.sequential().unwrap();
        seq.run(3).unwrap();
        let outs = seq.into_history().sink_outputs_of(alarm.vertex());
        // false (phase 1), true (phase 2), false (phase 3).
        assert_eq!(
            outs.iter()
                .map(|(p, v)| (p.get(), v.clone()))
                .collect::<Vec<_>>(),
            vec![
                (1, Value::Bool(false)),
                (2, Value::Bool(true)),
                (3, Value::Bool(false)),
            ]
        );
        assert_eq!(writer.underruns(), 0);
    }

    #[test]
    fn into_parts_roundtrip() {
        let mut b = CorrelatorBuilder::new();
        let s = b.source("s", Counter::new());
        b.add("agg", Aggregate::mean(), &[s]);
        let (dag, modules) = b.into_parts();
        assert_eq!(dag.vertex_count(), modules.len());
    }
}
