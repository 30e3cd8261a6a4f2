//! # ec-store — durable checkpoint/restore for the streaming runtime
//!
//! The paper's serializability guarantee makes a live run *replayable*:
//! the committed `PhaseScript` (one row of source bins per admitted
//! phase) fed back through the sequential oracle reproduces the history
//! exactly. This crate makes that log **durable**, turning the
//! reproduction into a service that survives restarts:
//!
//! * [`WalWriter`] / [`read_wal`] — a crash-safe, length-prefixed and
//!   CRC-checksummed write-ahead log of committed rows, kept as a
//!   directory of size-bounded segments listed by a monotonically
//!   named manifest. Appends happen at epoch seal, *before* the phase
//!   is admitted: a row the outside world saw accepted is never lost.
//!   Recovery drops a torn tail record (crash mid-append) and reports
//!   real corruption. A directory holding a single-file `wal.log` from
//!   an earlier release is refused, never read or overwritten.
//! * [`write_snapshot`] / [`read_snapshot`] / [`Snapshotter`] —
//!   operator state ([`ec_core::EngineCheckpoint`]) at a retired phase
//!   boundary, written atomically; incremental deltas carry only the
//!   vertices that changed, with a full-snapshot fallback every K
//!   increments. Snapshots bound recovery time — and once a segment's
//!   every row is covered by one, [`compact_store`] (or
//!   [`WalWriter::compact`]) drops the segment, bounding disk usage.
//! * [`Recovery`] — opens a store, validates everything, resolves the
//!   newest usable snapshot chain and exposes the log tail to replay.
//!   The resumed run continues at the exact next phase with global
//!   phase numbering intact, compaction included.
//! * [`StoreIo`] / [`FaultIo`] — every mutating file operation goes
//!   through an injectable I/O plane, so tests drive the whole
//!   lifecycle through deterministic fault plans (torn writes, fsync
//!   failures, disk-full, kill-at-Nth-op) and prove recovery at every
//!   crash point.
//!
//! The streaming integration (`StreamRuntimeBuilder::durable`,
//! `StreamRuntime::restore`) lives in `ec-runtime`; this crate owns the
//! on-disk formats and is deliberately independent of the runtime so
//! future subsystems (multi-tenant session stores, sharded logs) can
//! reuse it.
//!
//! ## Store layout
//!
//! ```text
//! <dir>/wal/seg-<seq>.log            append-only row log segments
//! <dir>/wal/manifest-<gen>.ecm       authoritative segment list
//! <dir>/snapshot-<phase>.ecs         full operator state at a phase
//! <dir>/delta-<phase>.ecs            changed vertices since a parent
//! ```

#![warn(missing_docs)]

mod compact;
mod crc;
mod error;
mod io;
mod manifest;
mod recovery;
mod snapshot;
mod wal;

pub use compact::{compact_store, compact_store_with, CompactReport};
pub use crc::crc32;
pub use error::StoreError;
pub use io::{real_io, splitmix64, Fault, FaultIo, FaultPlan, RealIo, StoreFile, StoreIo};
pub use manifest::SegmentEntry;
pub use recovery::Recovery;
pub use snapshot::{
    delta_path, list_snapshot_files, list_snapshots, read_snapshot, snapshot_path, write_snapshot,
    SnapshotData, SnapshotFile, SnapshotKind, SnapshotOutcome, Snapshotter,
};
pub use wal::{
    read_wal, segment_path, store_exists, wal_dir, Row, SegmentInfo, WalContents, WalOptions,
    WalTail, WalWriter, DEFAULT_SEGMENT_BYTES, WAL_DIR,
};

/// The store directory for tenant session `name` under `root` — the
/// namespacing rule multi-tenant session pools use so every tenant gets
/// an independent WAL + snapshot directory.
///
/// The session name is sanitized into a single path component: ASCII
/// alphanumerics, `.`, `_` and `-` pass through, every other byte
/// (path separators included) becomes `_`, and a name that is empty or
/// all-dots maps to `"_"` — so a hostile or merely unusual tenant name
/// can never escape `root`.
pub fn session_dir(root: &std::path::Path, name: &str) -> std::path::PathBuf {
    let mut component: String = name
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '.' | '_' | '-' => c,
            _ => '_',
        })
        .collect();
    if component.is_empty() || component.chars().all(|c| c == '.') {
        component = "_".into();
    }
    root.join(component)
}

/// Fresh per-test directory under the system temp dir (no external
/// tempfile dependency in the offline build).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ec-store-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod session_dir_tests {
    use super::session_dir;
    use std::path::Path;

    #[test]
    fn plain_names_pass_through() {
        assert_eq!(
            session_dir(Path::new("/root/store"), "tenant-1"),
            Path::new("/root/store/tenant-1")
        );
        assert_eq!(
            session_dir(Path::new("r"), "A.b_c-9"),
            Path::new("r/A.b_c-9")
        );
    }

    #[test]
    fn hostile_names_cannot_escape_root() {
        let root = Path::new("/root/store");
        for (name, want) in [
            ("../evil", ".._evil"),
            ("a/b", "a_b"),
            ("a\\b", "a_b"),
            ("..", "_"),
            (".", "_"),
            ("", "_"),
            ("spaced name", "spaced_name"),
        ] {
            let dir = session_dir(root, name);
            assert_eq!(dir, root.join(want), "{name:?}");
            assert!(dir.parent() == Some(root), "{name:?} escaped root");
        }
    }
}
