//! Snapshot files: operator state at a retired phase boundary.
//!
//! A snapshot captures an [`EngineCheckpoint`] (module state +
//! latest-value memory per vertex, see `ec-core`) together with the
//! graph's vertex names, so restore can verify it is being applied to
//! the same computation. Files are written to a temporary name and
//! renamed into place, so a crash mid-snapshot leaves either the old
//! set of snapshots or the new one — never a half-written file that
//! parses. A snapshot that fails validation is simply ignored by
//! recovery (the WAL can fill the gap by replaying more rows).
//!
//! Snapshots come in two flavours:
//!
//! * **full** (`snapshot-<phase>.ecs`) — every vertex's state;
//! * **delta** (`delta-<phase>.ecs`) — only vertices whose state
//!   changed since the parent snapshot, plus the parent's phase.
//!   Recovery resolves the chain delta → … → full and merges, newest
//!   vertex state winning.
//!
//! The [`Snapshotter`] drives the cadence: deltas while cheap, a full
//! snapshot every K increments as the fallback that keeps chains short
//! — after which everything older is pruned, bounding disk usage.

use crate::crc::crc32;
use crate::error::StoreError;
use crate::io::{real_io, StoreIo};
use ec_core::{EngineCheckpoint, VertexState};
use ec_events::{StateReader, StateWriter};
use ec_graph::VertexId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SNAP_MAGIC: &[u8; 8] = b"ECSNAP1\0";
const DELTA_MAGIC: &[u8; 8] = b"ECSNPD1\0";
/// Bumped whenever an operator's state encoding changes, so a file
/// written by older code is refused instead of mis-decoded. Version 2:
/// sliding windows carry their running sums.
const SNAP_VERSION: u32 = 2;

/// Path of the full snapshot taken at `phase` inside `dir`. Phases are
/// zero-padded so lexicographic directory order is phase order.
pub fn snapshot_path(dir: &Path, phase: u64) -> PathBuf {
    dir.join(format!("snapshot-{phase:020}.ecs"))
}

/// Path of the incremental (delta) snapshot taken at `phase`.
pub fn delta_path(dir: &Path, phase: u64) -> PathBuf {
    dir.join(format!("delta-{phase:020}.ecs"))
}

/// What a snapshot file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Every vertex's state; self-sufficient.
    Full,
    /// Only vertices changed since the snapshot at `parent`.
    Delta {
        /// Phase of the snapshot this delta applies on top of.
        parent: u64,
    },
}

/// A parsed snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// The retired phase the state was captured at.
    pub phase: u64,
    /// Vertex names in `VertexId` order, for graph validation.
    pub names: Vec<String>,
    /// The captured engine state. For [`SnapshotKind::Delta`], only the
    /// changed vertices; a resolved chain presents as `Full`.
    pub checkpoint: EngineCheckpoint,
    /// Full or delta.
    pub kind: SnapshotKind,
}

fn encode_payload(names: &[String], checkpoint: &EngineCheckpoint, parent: Option<u64>) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u32(SNAP_VERSION);
    if let Some(parent) = parent {
        w.put_u64(parent);
    }
    w.put_u32(names.len() as u32);
    for name in names {
        w.put_str(name);
    }
    w.put_bytes(&checkpoint.encode());
    w.into_bytes()
}

fn frame_file(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + 16);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

fn write_file(path: &Path, bytes: &[u8], io: &Arc<dyn StoreIo>) -> Result<(), StoreError> {
    let tmp = path.with_extension("ecs.tmp");
    // Debris from an earlier crashed attempt at this same file.
    crate::io::scrub(&tmp);
    {
        let mut file = io.open(&tmp, true).map_err(|e| StoreError::io(&tmp, e))?;
        file.append(bytes).map_err(|e| StoreError::io(&tmp, e))?;
        file.fsync().map_err(|e| StoreError::io(&tmp, e))?;
    }
    io.rename(&tmp, path).map_err(|e| StoreError::io(path, e))?;
    Ok(())
}

/// Writes a full snapshot of `checkpoint` (taken at `checkpoint.phase`)
/// to `dir`, atomically. Returns the final path.
pub fn write_snapshot(
    dir: &Path,
    names: &[String],
    checkpoint: &EngineCheckpoint,
) -> Result<PathBuf, StoreError> {
    write_snapshot_with(dir, names, checkpoint, &real_io())
}

/// [`write_snapshot`] through an explicit I/O plane.
pub fn write_snapshot_with(
    dir: &Path,
    names: &[String],
    checkpoint: &EngineCheckpoint,
    io: &Arc<dyn StoreIo>,
) -> Result<PathBuf, StoreError> {
    let bytes = frame_file(SNAP_MAGIC, &encode_payload(names, checkpoint, None));
    let path = snapshot_path(dir, checkpoint.phase);
    write_file(&path, &bytes, io)?;
    Ok(path)
}

/// Writes a delta snapshot: `checkpoint.vertices` holds only the
/// vertices changed since the snapshot at phase `parent`.
pub fn write_delta_with(
    dir: &Path,
    names: &[String],
    parent: u64,
    checkpoint: &EngineCheckpoint,
    io: &Arc<dyn StoreIo>,
) -> Result<PathBuf, StoreError> {
    let bytes = frame_file(
        DELTA_MAGIC,
        &encode_payload(names, checkpoint, Some(parent)),
    );
    let path = delta_path(dir, checkpoint.phase);
    write_file(&path, &bytes, io)?;
    Ok(path)
}

/// Reads and validates one snapshot file (full or delta).
pub fn read_snapshot(path: &Path) -> Result<SnapshotData, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    if bytes.len() < 16 {
        return Err(StoreError::corrupt(path, "bad snapshot magic"));
    }
    let delta = match &bytes[..8] {
        m if m == SNAP_MAGIC => false,
        m if m == DELTA_MAGIC => true,
        _ => return Err(StoreError::corrupt(path, "bad snapshot magic")),
    };
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if bytes.len() != 16 + len {
        return Err(StoreError::corrupt(
            path,
            format!("payload length {} != declared {len}", bytes.len() - 16),
        ));
    }
    let payload = &bytes[16..];
    if crc32(payload) != crc {
        return Err(StoreError::corrupt(path, "checksum mismatch"));
    }
    let mut r = StateReader::new(payload);
    let version = r.get_u32()?;
    if version != SNAP_VERSION {
        return Err(StoreError::corrupt(
            path,
            format!("unsupported snapshot version {version}"),
        ));
    }
    let kind = if delta {
        SnapshotKind::Delta {
            parent: r.get_u64()?,
        }
    } else {
        SnapshotKind::Full
    };
    let n = r.get_u32()? as usize;
    let mut names = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(r.get_str()?);
    }
    let checkpoint = EngineCheckpoint::decode(&r.get_bytes()?)?;
    r.finish()?;
    if let SnapshotKind::Delta { parent } = kind {
        if parent >= checkpoint.phase {
            return Err(StoreError::corrupt(
                path,
                format!("delta at phase {} claims parent {parent}", checkpoint.phase),
            ));
        }
    }
    Ok(SnapshotData {
        phase: checkpoint.phase,
        names,
        checkpoint,
        kind,
    })
}

/// Lists **full** snapshot files in `dir`, sorted ascending by phase
/// (parsed from the file name; malformed names are skipped).
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    Ok(list_snapshot_files(dir)?
        .into_iter()
        .filter(|f| !f.delta)
        .map(|f| (f.phase, f.path))
        .collect())
}

/// One snapshot file on disk (full or delta), by name only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// Phase parsed from the file name.
    pub phase: u64,
    /// `delta-*.ecs` rather than `snapshot-*.ecs`.
    pub delta: bool,
    /// The file.
    pub path: PathBuf,
}

/// Lists all snapshot files (full and delta) in `dir`, sorted ascending
/// by phase; at equal phase the delta sorts first, so reverse iteration
/// prefers the full. Malformed names are skipped.
pub fn list_snapshot_files(dir: &Path) -> Result<Vec<SnapshotFile>, StoreError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_suffix(".ecs") else {
            continue;
        };
        let (delta, stem) = if let Some(stem) = rest.strip_prefix("snapshot-") {
            (false, stem)
        } else if let Some(stem) = rest.strip_prefix("delta-") {
            (true, stem)
        } else {
            continue;
        };
        if let Ok(phase) = stem.parse::<u64>() {
            out.push(SnapshotFile {
                phase,
                delta,
                path: entry.path(),
            });
        }
    }
    out.sort_by_key(|f| (f.phase, !f.delta));
    Ok(out)
}

/// Resolves a snapshot head (possibly a delta) into a complete state:
/// follows parent links down to a full snapshot and merges upward,
/// newest vertex state winning. Returns a human-readable reason when
/// any link is unreadable or inconsistent, so recovery can skip this
/// head for an older one.
pub(crate) fn resolve_chain(dir: &Path, head: &SnapshotFile) -> Result<SnapshotData, String> {
    // Collect head → … → full, newest first.
    let mut chain: Vec<SnapshotData> = Vec::new();
    let mut next = head.path.clone();
    loop {
        let data =
            read_snapshot(&next).map_err(|e| format!("chain link {}: {e}", next.display()))?;
        let kind = data.kind;
        let phase = data.phase;
        chain.push(data);
        match kind {
            SnapshotKind::Full => break,
            SnapshotKind::Delta { parent } => {
                // read_snapshot enforces parent < phase, so this walk
                // strictly descends and terminates.
                debug_assert!(parent < phase);
                let full = snapshot_path(dir, parent);
                let delta = delta_path(dir, parent);
                next = if full.exists() {
                    full
                } else if delta.exists() {
                    delta
                } else {
                    return Err(format!(
                        "delta at phase {phase} needs parent {parent}, which is missing"
                    ));
                };
            }
        }
    }
    let names = chain[0].names.clone();
    for link in &chain[1..] {
        if link.names != names {
            return Err("snapshot chain crosses different graphs".into());
        }
    }
    // Merge bottom-up: full first, then each delta in ascending phase.
    let mut vertices: BTreeMap<VertexId, VertexState> = BTreeMap::new();
    for link in chain.iter().rev() {
        for v in &link.checkpoint.vertices {
            vertices.insert(v.vertex, v.clone());
        }
    }
    let phase = chain[0].phase;
    Ok(SnapshotData {
        phase,
        names,
        checkpoint: EngineCheckpoint {
            phase,
            vertices: vertices.into_values().collect(),
        },
        kind: SnapshotKind::Full,
    })
}

/// Outcome of one [`Snapshotter::write`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotOutcome {
    /// The file written.
    pub path: PathBuf,
    /// Full rather than delta.
    pub full: bool,
    /// Vertices serialized (all of them for a full).
    pub changed: usize,
}

/// Drives the incremental snapshot cadence for one store: remembers the
/// state as of the last snapshot, writes deltas of only the changed
/// vertices, and falls back to a full snapshot every `full_every`-th
/// write (and always for the first). After a successful full, older
/// snapshot files are pruned (best-effort), bounding disk usage.
#[derive(Debug)]
pub struct Snapshotter {
    full_every: u32,
    /// Deltas written since the last full.
    since_full: u32,
    /// Phase and per-vertex state as of the last successful write.
    last: Option<(u64, BTreeMap<VertexId, VertexState>)>,
}

impl Snapshotter {
    /// `full_every` = 1 writes only full snapshots; `k` writes `k-1`
    /// deltas between fulls.
    pub fn new(full_every: u32) -> Snapshotter {
        Snapshotter {
            full_every: full_every.max(1),
            since_full: 0,
            last: None,
        }
    }

    /// Phase of the last successful write, if any.
    pub fn last_phase(&self) -> Option<u64> {
        self.last.as_ref().map(|(phase, _)| *phase)
    }

    /// Writes `checkpoint` as a delta if cheap and due, else as a full
    /// snapshot. On error the snapshotter's memory is unchanged, so a
    /// retried write produces the same file.
    pub fn write(
        &mut self,
        dir: &Path,
        names: &[String],
        checkpoint: &EngineCheckpoint,
        io: &Arc<dyn StoreIo>,
    ) -> Result<SnapshotOutcome, StoreError> {
        let full_due = match &self.last {
            None => true,
            // A re-checkpoint at (or before) the last phase would make
            // a delta its own ancestor; rewrite a full instead.
            Some((phase, _)) => {
                checkpoint.phase <= *phase || self.since_full >= self.full_every - 1
            }
        };
        if full_due {
            let path = write_snapshot_with(dir, names, checkpoint, io)?;
            prune_older(dir, checkpoint.phase);
            self.last = Some((
                checkpoint.phase,
                checkpoint
                    .vertices
                    .iter()
                    .map(|v| (v.vertex, v.clone()))
                    .collect(),
            ));
            self.since_full = 0;
            return Ok(SnapshotOutcome {
                path,
                full: true,
                changed: checkpoint.vertices.len(),
            });
        }
        let (parent, last_vertices) = self.last.as_ref().expect("delta requires a parent");
        let parent = *parent;
        let changed: Vec<VertexState> = checkpoint
            .vertices
            .iter()
            .filter(|v| last_vertices.get(&v.vertex) != Some(*v))
            .cloned()
            .collect();
        let delta = EngineCheckpoint {
            phase: checkpoint.phase,
            vertices: changed,
        };
        let path = write_delta_with(dir, names, parent, &delta, io)?;
        let (last_phase, last_vertices) = self.last.as_mut().expect("checked above");
        *last_phase = checkpoint.phase;
        for v in &delta.vertices {
            last_vertices.insert(v.vertex, v.clone());
        }
        self.since_full += 1;
        Ok(SnapshotOutcome {
            path,
            full: false,
            changed: delta.vertices.len(),
        })
    }
}

/// Removes snapshot files (full and delta) older than `phase`,
/// best-effort: they are garbage once a full at `phase` is in place.
fn prune_older(dir: &Path, phase: u64) {
    let Ok(files) = list_snapshot_files(dir) else {
        return;
    };
    for f in files {
        if f.phase < phase {
            crate::io::scrub(&f.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use ec_events::{StateSnapshot, Value};

    fn checkpoint(phase: u64) -> EngineCheckpoint {
        EngineCheckpoint {
            phase,
            vertices: vec![
                VertexState {
                    vertex: VertexId(0),
                    module: StateSnapshot::Bytes(vec![7, 7, 7]),
                    latest: vec![],
                },
                VertexState {
                    vertex: VertexId(1),
                    module: StateSnapshot::Stateless,
                    latest: vec![Some(Value::Float(1.5)), None],
                },
            ],
        }
    }

    /// Like [`checkpoint`], but vertex 1's latest value tracks `phase`
    /// while vertex 0 never changes.
    fn evolving(phase: u64) -> EngineCheckpoint {
        let mut chk = checkpoint(phase);
        chk.vertices[1].latest = vec![Some(Value::Int(phase as i64)), None];
        chk
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = test_dir("snap-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let names = vec!["src".to_string(), "alarm".to_string()];
        let path = write_snapshot(&dir, &names, &checkpoint(17)).unwrap();
        let data = read_snapshot(&path).unwrap();
        assert_eq!(data.phase, 17);
        assert_eq!(data.names, names);
        assert_eq!(data.checkpoint, checkpoint(17));
        assert_eq!(data.kind, SnapshotKind::Full);
    }

    #[test]
    fn delta_round_trips() {
        let dir = test_dir("snap-delta-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let io = real_io();
        let names = vec!["a".to_string()];
        let delta = EngineCheckpoint {
            phase: 9,
            vertices: checkpoint(9).vertices[..1].to_vec(),
        };
        let path = write_delta_with(&dir, &names, 6, &delta, &io).unwrap();
        let data = read_snapshot(&path).unwrap();
        assert_eq!(data.kind, SnapshotKind::Delta { parent: 6 });
        assert_eq!(data.phase, 9);
        assert_eq!(data.checkpoint.vertices.len(), 1);
    }

    #[test]
    fn listing_sorts_by_phase() {
        let dir = test_dir("snap-list");
        std::fs::create_dir_all(&dir).unwrap();
        for phase in [30u64, 5, 200] {
            write_snapshot(&dir, &["a".into()], &checkpoint(phase)).unwrap();
        }
        // Unrelated files are skipped.
        std::fs::write(dir.join("wal.log"), b"x").unwrap();
        std::fs::write(dir.join("snapshot-junk.ecs"), b"x").unwrap();
        let phases: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        assert_eq!(phases, vec![5, 30, 200]);
    }

    #[test]
    fn damaged_snapshot_rejected() {
        let dir = test_dir("snap-damage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_snapshot(&dir, &["a".into()], &checkpoint(3)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let flip_at = bytes.len() - 2;
        bytes[flip_at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StoreError::Corrupt { .. })
        ));
        // Truncation is also rejected.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_snapshot(&path).is_err());
    }

    #[test]
    fn older_snapshot_version_refused() {
        let dir = test_dir("snap-old-version");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_snapshot(&dir, &["a".into()], &checkpoint(3)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Re-frame the same payload as version 1, with a valid CRC.
        let mut payload = bytes[16..].to_vec();
        payload[..4].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, frame_file(SNAP_MAGIC, &payload)).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(
            err.to_string().contains("unsupported snapshot version 1"),
            "{err}"
        );
    }

    #[test]
    fn snapshotter_writes_deltas_then_full() {
        let dir = test_dir("snap-cadence");
        std::fs::create_dir_all(&dir).unwrap();
        let io = real_io();
        let names = vec!["a".to_string(), "b".to_string()];
        let mut snap = Snapshotter::new(3);
        // First write is always full.
        let out = snap.write(&dir, &names, &evolving(2), &io).unwrap();
        assert!(out.full);
        // Two deltas (only the changed vertex serialized) …
        let out = snap.write(&dir, &names, &evolving(4), &io).unwrap();
        assert!(!out.full);
        assert_eq!(out.changed, 1, "only vertex 1 changed");
        let out = snap.write(&dir, &names, &evolving(6), &io).unwrap();
        assert!(!out.full);
        // … then the full fallback, which prunes everything older.
        let out = snap.write(&dir, &names, &evolving(8), &io).unwrap();
        assert!(out.full);
        let files = list_snapshot_files(&dir).unwrap();
        assert_eq!(files.len(), 1, "older files pruned: {files:?}");
        assert_eq!(files[0].phase, 8);
        assert!(!files[0].delta);
    }

    #[test]
    fn delta_with_no_changes_still_advances_phase() {
        let dir = test_dir("snap-nochange");
        std::fs::create_dir_all(&dir).unwrap();
        let io = real_io();
        let names = vec!["a".to_string(), "b".to_string()];
        let mut snap = Snapshotter::new(10);
        snap.write(&dir, &names, &evolving(1), &io).unwrap();
        let mut same = evolving(1);
        same.phase = 5; // nothing changed, phase moved
        let out = snap.write(&dir, &names, &same, &io).unwrap();
        assert!(!out.full);
        assert_eq!(out.changed, 0);
        let head = list_snapshot_files(&dir).unwrap().pop().unwrap();
        let resolved = resolve_chain(&dir, &head).unwrap();
        assert_eq!(resolved.phase, 5);
        assert_eq!(resolved.checkpoint.vertices.len(), 2);
    }

    #[test]
    fn chain_resolves_to_merged_state() {
        let dir = test_dir("snap-chain");
        std::fs::create_dir_all(&dir).unwrap();
        let io = real_io();
        let names = vec!["a".to_string(), "b".to_string()];
        let mut snap = Snapshotter::new(5);
        for phase in [2u64, 4, 6] {
            snap.write(&dir, &names, &evolving(phase), &io).unwrap();
        }
        let head = list_snapshot_files(&dir).unwrap().pop().unwrap();
        assert!(head.delta);
        let resolved = resolve_chain(&dir, &head).unwrap();
        assert_eq!(resolved.phase, 6);
        assert_eq!(resolved.checkpoint, evolving(6), "merged state is exact");
    }

    #[test]
    fn broken_chain_reports_missing_parent() {
        let dir = test_dir("snap-chain-broken");
        std::fs::create_dir_all(&dir).unwrap();
        let io = real_io();
        let names = vec!["a".to_string(), "b".to_string()];
        let mut snap = Snapshotter::new(5);
        for phase in [2u64, 4, 6] {
            snap.write(&dir, &names, &evolving(phase), &io).unwrap();
        }
        std::fs::remove_file(snapshot_path(&dir, 2)).unwrap();
        let head = list_snapshot_files(&dir).unwrap().pop().unwrap();
        let err = resolve_chain(&dir, &head).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn re_checkpoint_at_same_phase_writes_full() {
        let dir = test_dir("snap-rephase");
        std::fs::create_dir_all(&dir).unwrap();
        let io = real_io();
        let names = vec!["a".to_string(), "b".to_string()];
        let mut snap = Snapshotter::new(10);
        snap.write(&dir, &names, &evolving(3), &io).unwrap();
        let out = snap.write(&dir, &names, &evolving(3), &io).unwrap();
        assert!(out.full, "same-phase rewrite must not self-parent");
    }
}
