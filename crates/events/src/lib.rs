//! # ec-events — event model and stream substrate
//!
//! Event primitives for the serializable Δ-dataflow correlation engine
//! (Zimmerman & Chandy, IPPS 2005):
//!
//! * [`Phase`] — logical execution phases. All events arriving at the
//!   same instant form one phase; phases are indexed sequentially (§2).
//! * [`Timestamp`] — event generation times. The paper assumes perfect
//!   timestamps and zero transmission delay, so events with timestamp `t`
//!   all belong to the phase at time `t`.
//! * [`Value`] — the typed payload carried on graph edges.
//! * [`Event`] — a timestamped value.
//! * [`sources`] — synthetic stream sources (sensors, random walks,
//!   rare-anomaly streams) used as workload generators. These replace the
//!   paper's proprietary sensor feeds with seeded generators exercising
//!   the same code paths.
//! * [`window`], [`stats`] — ring buffers, sliding windows and online
//!   statistics (mean/σ, EWMA, linear regression) for the "predicates
//!   over event stream histories" the paper's §1 motivates, such as a
//!   moving average being two standard deviations away from a regression
//!   model.
//! * [`snapshot`] — the [`StateSnapshot`] capability and byte codec
//!   behind checkpoint/restore (`ec-store`).
//! * [`column`](mod@column) — pooled, `Arc`-shared per-source epoch columns: the
//!   zero-copy unit the streaming runtime seals and fans out to the
//!   WAL, the live feeds and the committed script.

#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod event;
pub mod live;
pub mod phase;
pub mod reorder;
pub mod snapshot;
pub mod sources;
pub mod stats;
pub mod timestamp;
pub mod value;
pub mod window;

pub use column::{BinStamp, ColumnPool, PhaseColumn};
pub use event::Event;
pub use live::{FeedWriter, LiveFeed};
pub use phase::Phase;
pub use snapshot::{SnapshotError, StateReader, StateSnapshot, StateWriter};
pub use sources::EventSource;
pub use timestamp::Timestamp;
pub use value::Value;
