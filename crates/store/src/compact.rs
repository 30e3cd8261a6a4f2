//! Compaction: dropping WAL segments made replay-dead by a snapshot.
//!
//! A segment is *dead* once some durable snapshot's phase is at or
//! beyond the segment's last row — recovery restores from the snapshot
//! and replays only rows after it, so the segment can never be read
//! again. Compaction removes the dead prefix of the segment list:
//!
//! 1. write manifest generation `g+1` listing only the live suffix
//!    (temp file, fsync, rename — same protocol as rotation);
//! 2. only then remove the old manifest and the dead segment files,
//!    best-effort.
//!
//! A crash anywhere in between leaves either the old manifest (every
//! file it lists still present) or the new one (unlisted leftovers are
//! scrubbed on the next resume). Disk usage for a long-running durable
//! stream is therefore bounded by snapshot cadence × segment size, not
//! by stream lifetime.

use crate::error::StoreError;
use crate::io::{real_io, StoreIo};
use crate::manifest::{self, SegmentEntry};
use crate::wal::segment_path;
use std::path::Path;
use std::sync::Arc;

/// What one compaction pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Sequence numbers of the segments dropped (possibly empty).
    pub removed_segments: Vec<u64>,
    /// Bytes those segments held on disk.
    pub removed_bytes: u64,
    /// Absolute rows compacted away, after this pass: the log now
    /// physically starts at this row index.
    pub base_rows: u64,
}

impl CompactReport {
    /// A pass that dropped nothing.
    pub fn noop(base_rows: u64) -> CompactReport {
        CompactReport {
            removed_segments: Vec::new(),
            removed_bytes: 0,
            base_rows,
        }
    }

    /// Whether anything was dropped.
    pub fn changed(&self) -> bool {
        !self.removed_segments.is_empty()
    }
}

/// Drops the dead prefix of `entries`: every sealed segment whose rows
/// all sit at or below `keep_phase`. Returns `None` when nothing is
/// dead, else the new entry list, new manifest generation, and report.
pub(crate) fn drop_dead_segments(
    dir: &Path,
    io: &Arc<dyn StoreIo>,
    entries: &[SegmentEntry],
    gen: u64,
    keep_phase: u64,
) -> Result<Option<(Vec<SegmentEntry>, u64, CompactReport)>, StoreError> {
    // Segment i holds rows [entries[i].first_row, entries[i+1].first_row)
    // — phases first_row+1 ..= next.first_row — so it is dead iff the
    // *next* segment starts at or below keep_phase. The active (last)
    // segment is never dropped.
    let mut dead = 0;
    while dead + 1 < entries.len() && entries[dead + 1].first_row <= keep_phase {
        dead += 1;
    }
    if dead == 0 {
        return Ok(None);
    }
    let new_entries = entries[dead..].to_vec();
    let new_gen = gen + 1;
    manifest::write_manifest(dir, new_gen, &new_entries, io)?;
    // The new generation is authoritative; everything below is cleanup
    // that a crash may skip and a later resume will redo.
    let _ = io.remove(&manifest::manifest_path(dir, gen));
    let mut removed_segments = Vec::with_capacity(dead);
    let mut removed_bytes = 0;
    for entry in &entries[..dead] {
        let path = segment_path(dir, entry.seq);
        if let Ok(meta) = std::fs::metadata(&path) {
            removed_bytes += meta.len();
        }
        let _ = io.remove(&path);
        removed_segments.push(entry.seq);
    }
    let report = CompactReport {
        removed_segments,
        removed_bytes,
        base_rows: new_entries[0].first_row,
    };
    Ok(Some((new_entries, new_gen, report)))
}

/// Offline compaction of the store in `dir` (the `ec store … compact`
/// path): finds the newest usable snapshot and drops every segment it
/// makes dead. A store with no usable snapshot compacts to a no-op.
pub fn compact_store(dir: &Path) -> Result<CompactReport, StoreError> {
    compact_store_with(dir, &real_io())
}

/// [`compact_store`] through an explicit I/O plane.
pub fn compact_store_with(dir: &Path, io: &Arc<dyn StoreIo>) -> Result<CompactReport, StoreError> {
    let contents = crate::wal::read_wal(dir)?;
    // The newest snapshot recovery would restore bounds what is dead.
    let snapshot = crate::recovery::newest_usable_snapshot(dir, &contents, &mut Vec::new())?;
    let Some(keep_phase) = snapshot.map(|s| s.phase) else {
        return Ok(CompactReport::noop(contents.base_rows));
    };
    match drop_dead_segments(dir, io, &contents.entries, contents.gen, keep_phase)? {
        None => Ok(CompactReport::noop(contents.base_rows)),
        Some((_, _, report)) => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;
    use crate::test_dir;
    use crate::wal::{read_wal, WalOptions, WalWriter};
    use ec_core::EngineCheckpoint;
    use ec_events::Value;

    fn sources() -> Vec<String> {
        vec!["s".into()]
    }

    /// A store with one row per segment (phases 1..=n).
    fn tiny_segments(dir: &std::path::Path, n: u64) -> WalWriter {
        let mut w = WalWriter::create_with(
            dir,
            &sources(),
            WalOptions {
                segment_bytes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..n {
            w.append_row(&[Some(Value::Int(i as i64))]).unwrap();
        }
        w.sync().unwrap();
        w
    }

    fn snapshot_at(dir: &std::path::Path, phase: u64) {
        write_snapshot(
            dir,
            &sources(),
            &EngineCheckpoint {
                phase,
                vertices: vec![],
            },
        )
        .unwrap();
    }

    #[test]
    fn drops_segments_covered_by_snapshot() {
        let dir = test_dir("compact-basic");
        let mut w = tiny_segments(&dir, 3);
        assert_eq!(w.segment_count(), 3);
        let report = w.compact(2).unwrap();
        assert_eq!(report.removed_segments, vec![1, 2]);
        assert_eq!(report.base_rows, 2);
        assert!(report.removed_bytes > 0);
        assert_eq!(w.segment_count(), 1);
        assert_eq!(w.base_rows(), 2);
        assert_eq!(w.rows(), 3, "absolute row count unchanged");
        // The survivor still appends and reads back.
        w.append_row(&[Some(Value::Int(9))]).unwrap();
        drop(w);
        let c = read_wal(&dir).unwrap();
        assert_eq!(c.base_rows, 2);
        assert_eq!(c.rows.len(), 2);
        assert_eq!(c.rows[1], vec![Some(Value::Int(9))]);
    }

    #[test]
    fn active_segment_is_never_dropped() {
        let dir = test_dir("compact-active");
        let mut w = tiny_segments(&dir, 3);
        let report = w.compact(u64::MAX).unwrap();
        assert_eq!(report.removed_segments, vec![1, 2]);
        assert_eq!(w.segment_count(), 1);
        // Compacting again is a no-op.
        let report = w.compact(u64::MAX).unwrap();
        assert!(!report.changed());
    }

    #[test]
    fn keep_phase_zero_is_a_noop() {
        let dir = test_dir("compact-keep0");
        let mut w = tiny_segments(&dir, 3);
        let report = w.compact(0).unwrap();
        assert!(!report.changed());
        assert_eq!(w.segment_count(), 3);
    }

    #[test]
    fn offline_compaction_uses_newest_usable_snapshot() {
        let dir = test_dir("compact-offline");
        drop(tiny_segments(&dir, 3));
        snapshot_at(&dir, 2);
        let report = compact_store(&dir).unwrap();
        assert_eq!(report.removed_segments, vec![1, 2]);
        let c = read_wal(&dir).unwrap();
        assert_eq!(c.base_rows, 2);
        assert_eq!(c.rows.len(), 1);
    }

    #[test]
    fn offline_compaction_without_snapshot_is_noop() {
        let dir = test_dir("compact-offline-nosnap");
        drop(tiny_segments(&dir, 3));
        let report = compact_store(&dir).unwrap();
        assert!(!report.changed());
        assert_eq!(read_wal(&dir).unwrap().segments.len(), 3);
    }

    #[test]
    fn snapshot_beyond_the_log_is_ignored() {
        let dir = test_dir("compact-overreach");
        drop(tiny_segments(&dir, 3));
        // Claims a phase the log never committed — unusable.
        snapshot_at(&dir, 50);
        let report = compact_store(&dir).unwrap();
        assert!(!report.changed());
    }

    #[test]
    fn crash_at_any_point_mid_compaction_recovers() {
        use crate::io::{FaultIo, FaultPlan};
        // First, count the ops a clean compaction takes.
        let dir = test_dir("compact-crash-probe");
        drop(tiny_segments(&dir, 3));
        snapshot_at(&dir, 2);
        let probe = FaultIo::new(FaultPlan::new());
        compact_store_with(&dir, &probe.handle()).unwrap();
        let total_ops = probe.ops();
        assert!(total_ops >= 4, "manifest swap alone is 4 ops");

        for kill_at in 0..total_ops {
            let dir = test_dir(&format!("compact-crash-{kill_at}"));
            drop(tiny_segments(&dir, 3));
            snapshot_at(&dir, 2);
            let io = FaultIo::new(FaultPlan::new().kill_at(kill_at));
            let _ = compact_store_with(&dir, &io.handle());
            // However far it got, the store still reads to the same
            // committed history.
            let c = read_wal(&dir).unwrap();
            assert_eq!(
                c.base_rows + c.rows.len() as u64,
                3,
                "kill at op {kill_at} lost rows"
            );
            // And a re-run with healthy I/O converges.
            compact_store(&dir).unwrap();
            let c = read_wal(&dir).unwrap();
            assert_eq!(c.base_rows, 2);
            assert_eq!(c.rows.len(), 1);
        }
    }
}
