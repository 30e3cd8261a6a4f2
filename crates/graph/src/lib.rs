//! # ec-graph — computation-graph substrate
//!
//! This crate provides the directed-acyclic-graph substrate used by the
//! serializable Δ-dataflow engine of Zimmerman & Chandy, *A Parallel
//! Algorithm for Correlating Event Streams* (IPPS 2005).
//!
//! The paper models a data-fusion computation as an acyclic directed graph
//! in which vertices are computational modules and edges carry messages
//! (§2). The scheduling algorithm of §3 requires a vertex numbering that is
//! topologically sorted **and** satisfies an additional *serial-prefix*
//! restriction: for every `v`, the set `S(v)` of vertices all of whose
//! predecessors are indexed `v` or lower must be exactly `{1, …, m(v)}`
//! (§3.1.1). This crate provides:
//!
//! * [`Dag`] — a mutable DAG builder with cycle detection ([`dag`]).
//! * [`Numbering`] — construction (Kahn's algorithm with a FIFO ready
//!   queue) and independent verification of numberings satisfying the
//!   paper's restriction, together with the `m(v)` table ([`numbering`]).
//! * Topology analysis: levels, width, critical path ([`topology`]).
//! * Graph generators for the paper's figures and for synthetic workloads
//!   ([`generators`]).
//! * Graphviz DOT export ([`dot`]).
//!
//! ## Quick example
//!
//! ```
//! use ec_graph::{Dag, Numbering};
//!
//! let mut dag = Dag::new();
//! let a = dag.add_vertex("sensor-a");
//! let b = dag.add_vertex("sensor-b");
//! let f = dag.add_vertex("fuse");
//! dag.add_edge(a, f).unwrap();
//! dag.add_edge(b, f).unwrap();
//!
//! let numbering = Numbering::compute(&dag);
//! assert!(numbering.verify(&dag).is_ok());
//! // Sources occupy the first indices; m(0) is the number of sources.
//! assert_eq!(numbering.m(0), 2);
//! ```

#![warn(missing_docs)]

pub mod dag;
pub mod dot;
pub mod error;
pub mod generators;
pub mod numbering;
pub mod topology;

pub use dag::{Dag, EdgeId, VertexId};
pub use error::GraphError;
pub use numbering::{Numbering, NumberingError};
pub use topology::Topology;
