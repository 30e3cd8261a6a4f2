//! Opening a store and working out where to resume.
//!
//! [`Recovery`] reads the WAL (manifest + segments), drops a torn
//! tail, resolves the newest *usable* snapshot chain (delta → … → full, see [`crate::snapshot`]), and
//! presents the pieces a runtime needs to resume: the committed rows
//! still on disk, the merged checkpoint to restore operator state
//! from, and the tail of rows after it that must be replayed through
//! the engine. Phase numbering is global and survives compaction: if
//! `B` rows were compacted away and the log holds `W` more, the run
//! resumes at phase `B + W + 1` — exactly where the crashed process
//! would have continued.
//!
//! A compacted store *requires* a usable snapshot: rows below the base
//! exist nowhere else. If every candidate is damaged, recovery reports
//! a typed [`StoreError::Corrupt`] rather than restarting from a
//! history it cannot have.

use crate::error::StoreError;
use crate::manifest::SegmentEntry;
use crate::snapshot::{list_snapshot_files, resolve_chain, SnapshotData};
use crate::wal::{read_wal, Row, SegmentInfo, WalContents, WalOptions, WalTail, WalWriter};
use std::path::{Path, PathBuf};

/// The newest snapshot the log in `contents` can resume from. Heads
/// ahead of the log or behind its compacted base, and chains that fail
/// to resolve, are pushed to `skipped` as `(path, reason)`. The one
/// selection rule shared by [`Recovery::open`] and offline compaction.
pub(crate) fn newest_usable_snapshot(
    dir: &Path,
    contents: &WalContents,
    skipped: &mut Vec<(PathBuf, String)>,
) -> Result<Option<SnapshotData>, StoreError> {
    let base = contents.base_rows;
    let committed = base + contents.rows.len() as u64;
    for head in list_snapshot_files(dir)?.iter().rev() {
        let reason = if head.phase > committed {
            format!(
                "snapshot at phase {} is ahead of the log ({committed} rows)",
                head.phase
            )
        } else if head.phase < base {
            format!(
                "snapshot at phase {} predates the compacted base ({base})",
                head.phase
            )
        } else {
            match resolve_chain(dir, head) {
                Ok(data) => return Ok(Some(data)),
                Err(reason) => reason,
            }
        };
        skipped.push((head.path.clone(), reason));
    }
    Ok(None)
}

/// A store opened for recovery.
#[derive(Debug)]
pub struct Recovery {
    dir: PathBuf,
    /// Live source names (the WAL header).
    pub sources: Vec<String>,
    /// Valid committed rows still on disk, phase order (`rows[p]` =
    /// phase `base_rows + p + 1`).
    pub rows: Vec<Row>,
    /// State of the WAL tail (clean / torn / corrupt).
    pub tail: WalTail,
    /// The newest usable snapshot, delta chains already resolved into
    /// a complete state.
    pub snapshot: Option<SnapshotData>,
    /// Snapshot heads present but skipped (unreadable, broken chain,
    /// or outside the log's range), as `(path, reason)`.
    pub skipped_snapshots: Vec<(PathBuf, String)>,
    /// Rows compacted away before `rows[0]`.
    pub base_rows: u64,
    /// Per-segment accounting, log order.
    pub segments: Vec<SegmentInfo>,
    /// Manifest generations skipped as unreadable, `(path, reason)`.
    pub skipped_manifests: Vec<(PathBuf, String)>,
    valid_len: u64,
    resumable: bool,
    gen: u64,
    entries: Vec<SegmentEntry>,
}

impl Recovery {
    /// Opens the store at `dir`.
    ///
    /// Errors when there is nothing to recover (no WAL, unreadable
    /// first header, a hole in the manifest chain) or when compacted
    /// history is unreachable (no usable snapshot at or beyond the
    /// base). A torn WAL tail is dropped silently — that is the
    /// expected shape of a crash — and damaged snapshots are skipped
    /// in favour of older ones whenever the log can fill the gap.
    pub fn open(dir: &Path) -> Result<Recovery, StoreError> {
        let contents = read_wal(dir)?;
        let mut skipped = Vec::new();
        let snapshot = newest_usable_snapshot(dir, &contents, &mut skipped)?;
        if snapshot.is_none() && contents.base_rows > 0 {
            return Err(StoreError::corrupt(
                dir,
                format!(
                    "log starts at row {} (earlier segments compacted) but no usable \
                     snapshot covers the missing history",
                    contents.base_rows
                ),
            ));
        }
        Ok(Recovery {
            dir: dir.to_path_buf(),
            sources: contents.sources,
            rows: contents.rows,
            tail: contents.tail,
            snapshot,
            skipped_snapshots: skipped,
            base_rows: contents.base_rows,
            segments: contents.segments,
            skipped_manifests: contents.skipped_manifests,
            valid_len: contents.valid_len,
            resumable: contents.resumable,
            gen: contents.gen,
            entries: contents.entries,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Phases committed to the log, compacted history included.
    pub fn committed_phases(&self) -> u64 {
        self.base_rows + self.rows.len() as u64
    }

    /// The phase the resumed run will admit next.
    pub fn resume_phase(&self) -> u64 {
        self.committed_phases() + 1
    }

    /// The phase of the usable snapshot (0 = none; replay starts from
    /// the beginning). Always within `[base_rows, committed_phases]`.
    pub fn snapshot_phase(&self) -> u64 {
        self.snapshot.as_ref().map(|s| s.phase).unwrap_or(0)
    }

    /// Rows after the snapshot, which must be replayed through the
    /// engine to rebuild state up to the resume point.
    pub fn tail_rows(&self) -> &[Row] {
        &self.rows[(self.snapshot_phase() - self.base_rows) as usize..]
    }

    /// Reopens the WAL for appending with default [`WalOptions`].
    pub fn append_writer(&self) -> Result<WalWriter, StoreError> {
        self.append_writer_with(WalOptions::default())
    }

    /// Reopens the WAL for appending, truncating any torn tail so new
    /// commits extend the validated prefix. Refuses stores whose
    /// damage is not confined to the final segment.
    pub fn append_writer_with(&self, opts: WalOptions) -> Result<WalWriter, StoreError> {
        if !self.resumable {
            let last = self.entries.last().expect("manifest entries are non-empty");
            return Err(StoreError::corrupt(
                crate::wal::segment_path(&self.dir, last.seq),
                "damage before the final segment; refusing to resume",
            ));
        }
        let sealed_bytes = self
            .segments
            .iter()
            .take(self.segments.len().saturating_sub(1))
            .map(|s| s.bytes)
            .sum();
        WalWriter::reopen(
            &self.dir,
            &self.sources,
            self.gen,
            &self.entries,
            self.committed_phases(),
            self.valid_len,
            sealed_bytes,
            opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{write_snapshot, Snapshotter};
    use crate::test_dir;
    use crate::wal::segment_path;
    use ec_core::{EngineCheckpoint, VertexState};
    use ec_events::{StateSnapshot, Value};
    use ec_graph::VertexId;

    fn store_with_rows(dir: &Path, n: u64) {
        let mut w = WalWriter::create(dir, &["s".into()]).unwrap();
        for i in 0..n {
            w.append_row(&[Some(Value::Int(i as i64))]).unwrap();
        }
    }

    fn empty_checkpoint(phase: u64) -> EngineCheckpoint {
        EngineCheckpoint {
            phase,
            vertices: vec![],
        }
    }

    #[test]
    fn picks_newest_covered_snapshot() {
        let dir = test_dir("rec-pick");
        store_with_rows(&dir, 10);
        for phase in [2u64, 6] {
            write_snapshot(&dir, &["s".into()], &empty_checkpoint(phase)).unwrap();
        }
        // A snapshot *ahead* of the log (e.g. the log was truncated by
        // a torn tail) must be skipped.
        write_snapshot(&dir, &["s".into()], &empty_checkpoint(12)).unwrap();
        let rec = Recovery::open(&dir).unwrap();
        assert_eq!(rec.committed_phases(), 10);
        assert_eq!(rec.resume_phase(), 11);
        assert_eq!(rec.snapshot_phase(), 6);
        assert_eq!(rec.tail_rows().len(), 4);
        assert_eq!(rec.skipped_snapshots.len(), 1);
    }

    #[test]
    fn damaged_snapshot_falls_back_to_older() {
        let dir = test_dir("rec-fallback");
        store_with_rows(&dir, 5);
        write_snapshot(&dir, &["s".into()], &empty_checkpoint(2)).unwrap();
        let newest = write_snapshot(&dir, &["s".into()], &empty_checkpoint(4)).unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let rec = Recovery::open(&dir).unwrap();
        assert_eq!(rec.snapshot_phase(), 2);
        assert_eq!(rec.skipped_snapshots.len(), 1);
    }

    #[test]
    fn no_snapshot_replays_everything() {
        let dir = test_dir("rec-nosnap");
        store_with_rows(&dir, 4);
        let rec = Recovery::open(&dir).unwrap();
        assert_eq!(rec.snapshot_phase(), 0);
        assert_eq!(rec.tail_rows().len(), 4);
        assert!(rec.snapshot.is_none());
    }

    #[test]
    fn torn_tail_reduces_committed_phases() {
        let dir = test_dir("rec-torn");
        store_with_rows(&dir, 3);
        let path = segment_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let rec = Recovery::open(&dir).unwrap();
        assert_eq!(rec.committed_phases(), 2);
        assert!(matches!(rec.tail, WalTail::Torn { .. }));
        // Appending resumes cleanly past the dropped tail.
        let mut w = rec.append_writer().unwrap();
        w.append_row(&[Some(Value::Int(99))]).unwrap();
        drop(w);
        let rec = Recovery::open(&dir).unwrap();
        assert_eq!(rec.committed_phases(), 3);
        assert!(matches!(rec.tail, WalTail::Clean));
    }

    fn vertex_state(phase: u64) -> EngineCheckpoint {
        EngineCheckpoint {
            phase,
            vertices: vec![VertexState {
                vertex: VertexId(0),
                module: StateSnapshot::Bytes(vec![phase as u8]),
                latest: vec![],
            }],
        }
    }

    #[test]
    fn delta_chain_resolves_during_recovery() {
        let dir = test_dir("rec-delta");
        store_with_rows(&dir, 6);
        let io = crate::io::real_io();
        let mut snap = Snapshotter::new(10);
        for phase in [2u64, 4] {
            snap.write(&dir, &["s".into()], &vertex_state(phase), &io)
                .unwrap();
        }
        let rec = Recovery::open(&dir).unwrap();
        assert_eq!(rec.snapshot_phase(), 4);
        assert_eq!(rec.tail_rows().len(), 2);
        let snap = rec.snapshot.unwrap();
        assert_eq!(snap.checkpoint, vertex_state(4), "delta merged over full");
    }

    #[test]
    fn compacted_store_keeps_global_phase_numbering() {
        let dir = test_dir("rec-compacted");
        let mut w = WalWriter::create_with(
            &dir,
            &["s".into()],
            WalOptions {
                segment_bytes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..5 {
            w.append_row(&[Some(Value::Int(i))]).unwrap();
        }
        write_snapshot(&dir, &["s".into()], &empty_checkpoint(3)).unwrap();
        let report = w.compact(3).unwrap();
        assert!(report.changed());
        drop(w);

        let rec = Recovery::open(&dir).unwrap();
        assert_eq!(rec.base_rows, 3);
        assert_eq!(rec.committed_phases(), 5);
        assert_eq!(rec.resume_phase(), 6);
        assert_eq!(rec.snapshot_phase(), 3);
        assert_eq!(rec.tail_rows().len(), 2);
        // And the store still appends.
        let mut w = rec.append_writer().unwrap();
        w.append_row(&[Some(Value::Int(5))]).unwrap();
        drop(w);
        assert_eq!(Recovery::open(&dir).unwrap().committed_phases(), 6);
    }

    #[test]
    fn compacted_store_without_usable_snapshot_is_corrupt() {
        let dir = test_dir("rec-compacted-nosnap");
        let mut w = WalWriter::create_with(
            &dir,
            &["s".into()],
            WalOptions {
                segment_bytes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..5 {
            w.append_row(&[Some(Value::Int(i))]).unwrap();
        }
        write_snapshot(&dir, &["s".into()], &empty_checkpoint(3)).unwrap();
        w.compact(3).unwrap();
        drop(w);
        std::fs::remove_file(crate::snapshot::snapshot_path(&dir, 3)).unwrap();

        // Rows 0..3 exist nowhere: a typed error, not a wrong answer.
        assert!(matches!(
            Recovery::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
