//! The write-ahead log of committed phase-script rows.
//!
//! A store's log is a directory of size-bounded **segments**
//! (`wal/seg-<seq>.log`) listed by a monotonically named manifest
//! (`wal/manifest-<gen>.ecm`, see [`crate::manifest`]). Each segment
//! opens with a header record naming the live sources (the script's
//! column order); every subsequent record is one committed row — the
//! bins staged for one admitted phase, exactly the unit the streaming
//! runtime commits when it seals an epoch. Appending the row *before*
//! the phase is admitted makes the log the authoritative commit: a
//! phase the outside world saw accepted is never lost to a crash.
//! This is the only layout: a directory holding a single-file `wal.log`
//! from an earlier release is refused, never read or overwritten.
//!
//! ## Framing
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! ```
//!
//! `payload[0]` is the record kind (header / row); the rest is encoded
//! with the [`StateWriter`] codec. Recovery reads records until the
//! file ends or a record fails validation:
//!
//! * bytes missing to complete the record → **torn tail** (the process
//!   died mid-append); the partial record is dropped, recovery
//!   proceeds with the valid prefix;
//! * full record present but checksum or decode fails → **corruption**;
//!   the valid prefix is still returned, with the damage reported so
//!   callers can refuse or alert.
//!
//! Damage is only tolerated in the *final* segment — earlier segments
//! were sealed and fsynced before the log moved on, so a hole there is
//! real corruption, not a crash artifact.
//!
//! ## Rotation ordering
//!
//! Rotation keeps one invariant: **every committed row lives in a
//! manifest-listed segment**. The old segment is fsynced, the new
//! segment is created with its header and fsynced, the next manifest
//! generation is renamed into place — and only then do commits land in
//! the new segment. A crash anywhere in that sequence leaves either
//! the old manifest (the orphan new segment holds no committed rows
//! and is scrubbed on resume) or the new one (both segments listed,
//! rows intact).

use crate::crc::crc32;
use crate::error::StoreError;
use crate::io::{real_io, StoreFile, StoreIo};
use crate::manifest::{self, SegmentEntry};
use ec_events::{StateReader, StateWriter, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One committed phase-script row: one bin per live source, in wiring
/// order (`None` = the source was silent that phase).
pub type Row = Vec<Option<Value>>;

/// Directory of WAL segments and manifests inside a store directory.
pub const WAL_DIR: &str = "wal";

/// Default segment size bound: large enough that short-lived runs stay
/// in one segment, small enough that long runs compact usefully.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

const KIND_HEADER: u8 = 0;
const KIND_ROW: u8 = 1;
const WAL_MAGIC: &[u8; 6] = b"ECWAL1";
/// Upper bound on a single record; lengths beyond this are treated as
/// corruption rather than attempted as allocations.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// The segment directory inside `dir`.
pub fn wal_dir(dir: &Path) -> PathBuf {
    dir.join(WAL_DIR)
}

/// Path of segment `seq` inside `dir`. Sequence numbers are zero-padded
/// so lexicographic directory order is log order.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    wal_dir(dir).join(format!("seg-{seq:012}.log"))
}

/// Whether `dir` holds a store (a manifest generation). This — not the
/// presence of any one file — is the create-vs-restore test.
pub fn store_exists(dir: &Path) -> bool {
    manifest::list_manifests(dir)
        .map(|m| !m.is_empty())
        .unwrap_or(true)
}

/// Refuses a directory holding the single-file log of an earlier
/// release: it is neither read nor shadowed by a fresh store.
fn refuse_single_file_log(dir: &Path) -> Result<(), StoreError> {
    let path = dir.join("wal.log");
    if path.exists() {
        return Err(StoreError::corrupt(
            path,
            "single-file log from an earlier release; only segmented stores are supported",
        ));
    }
    Ok(())
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn encode_header(sources: &[String]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u8(KIND_HEADER);
    for &b in WAL_MAGIC {
        w.put_u8(b);
    }
    w.put_u32(1); // format version
    w.put_u32(sources.len() as u32);
    for s in sources {
        w.put_str(s);
    }
    w.into_bytes()
}

/// Knobs for opening a WAL: the segment size bound and the I/O plane
/// (production [`real_io`] or a fault-injecting wrapper).
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a new segment once the active one holds at least this
    /// many bytes. Segments exceed the bound by at most one epoch.
    pub segment_bytes: u64,
    /// The I/O plane every mutating operation goes through.
    pub io: Arc<dyn StoreIo>,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            io: real_io(),
        }
    }
}

/// Append half of the log, with group commit: rows are staged into an
/// in-memory buffer ([`stage_row`](WalWriter::stage_row)) and flushed
/// to the OS in one contiguous append per [`commit`](WalWriter::commit)
/// — one syscall per sealed epoch instead of one per row. The on-disk
/// framing is unchanged (byte-compatible with per-row appends), so
/// existing stores recover identically.
///
/// A failed commit **keeps the staged buffer**: the writer remembers
/// the last known-good file length, truncates any torn bytes away on
/// the next attempt and rewrites the whole batch, so callers can retry
/// transient errors without losing or duplicating rows.
pub struct WalWriter {
    io: Arc<dyn StoreIo>,
    dir: PathBuf,
    sources: Vec<String>,
    /// Rotation bound for the active segment.
    segment_bytes: u64,
    /// Live segments as listed by manifest generation `gen`.
    entries: Vec<SegmentEntry>,
    gen: u64,
    /// The active file (the last segment).
    path: PathBuf,
    file: Box<dyn StoreFile>,
    /// Absolute committed rows, compacted history included.
    rows: u64,
    /// Committed bytes in the active file.
    active_len: u64,
    /// Bytes in sealed (non-active) live segments.
    sealed_bytes: u64,
    /// A failed append may have left a partial frame after
    /// `active_len`; truncate before the next append, and never
    /// best-effort-flush over it.
    needs_repair: bool,
    /// An automatic fsync failed; retry it on the next commit instead
    /// of silently reporting the batch durable.
    pending_sync: bool,
    /// Frames staged since the last commit.
    buf: Vec<u8>,
    staged_rows: u64,
    /// `Some(n)`: fsync automatically once `n` committed rows have
    /// accumulated since the last sync. `None`: sync only on explicit
    /// [`sync`](WalWriter::sync) calls (checkpoint/shutdown).
    sync_every: Option<u64>,
    rows_since_sync: u64,
    /// Reusable row-payload encoding buffer: staging a row is an
    /// in-place encode plus one memcpy into `buf`, no allocation.
    scratch: Vec<u8>,
    /// Wall-clock duration of the most recent non-empty
    /// [`commit`](WalWriter::commit), including any automatic fsync.
    last_commit_nanos: u64,
}

impl WalWriter {
    /// Creates a fresh segmented store with default [`WalOptions`].
    pub fn create(dir: &Path, sources: &[String]) -> Result<WalWriter, StoreError> {
        WalWriter::create_with(dir, sources, WalOptions::default())
    }

    /// Creates a fresh store: the directory (if missing), the first
    /// segment with a header naming the live sources, and manifest
    /// generation 1. Fails with [`StoreError::AlreadyExists`] if a
    /// store — or any leftover snapshot file — is already present: an
    /// existing store is restored, never silently overwritten, and a
    /// stale snapshot next to a fresh log would later restore the *old*
    /// run's operator state over the new run's history. A single-file
    /// `wal.log` from an earlier release is refused as
    /// [`StoreError::Corrupt`].
    pub fn create_with(
        dir: &Path,
        sources: &[String],
        opts: WalOptions,
    ) -> Result<WalWriter, StoreError> {
        let io = opts.io;
        io.create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        refuse_single_file_log(dir)?;
        if let Some((_, stale)) = manifest::list_manifests(dir)?.into_iter().next_back() {
            return Err(StoreError::AlreadyExists(stale));
        }
        if let Some(stale) = crate::snapshot::list_snapshot_files(dir)?
            .into_iter()
            .next()
        {
            return Err(StoreError::AlreadyExists(stale.path));
        }
        let seg_dir = wal_dir(dir);
        io.create_dir_all(&seg_dir)
            .map_err(|e| StoreError::io(&seg_dir, e))?;
        // With no manifest present, any segment files are debris from
        // a run that died before its first manifest write.
        scrub_segment_debris(dir, u64::MAX, 0);

        let path = segment_path(dir, 1);
        let mut file = io.open(&path, true).map_err(|e| {
            if e.kind() == std::io::ErrorKind::AlreadyExists {
                StoreError::AlreadyExists(path.clone())
            } else {
                StoreError::io(&path, e)
            }
        })?;
        let header = frame(&encode_header(sources));
        file.append(&header).map_err(|e| StoreError::io(&path, e))?;
        file.fsync().map_err(|e| StoreError::io(&path, e))?;
        let entries = vec![SegmentEntry {
            seq: 1,
            first_row: 0,
        }];
        manifest::write_manifest(dir, 1, &entries, &io)?;
        Ok(WalWriter {
            io,
            dir: dir.to_path_buf(),
            sources: sources.to_vec(),
            segment_bytes: opts.segment_bytes.max(1),
            entries,
            gen: 1,
            path,
            file,
            rows: 0,
            active_len: header.len() as u64,
            sealed_bytes: 0,
            needs_repair: false,
            pending_sync: false,
            buf: Vec::new(),
            staged_rows: 0,
            sync_every: None,
            rows_since_sync: 0,
            scratch: Vec::new(),
            last_commit_nanos: 0,
        })
    }

    /// Reopens the final segment of a validated store for appending
    /// (through [`Recovery`](crate::Recovery)). `rows` is absolute
    /// (compacted history included); `valid_len` is the validated prefix
    /// of the final segment, and anything beyond it — a torn tail — is
    /// truncated away so new appends start on a record boundary.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reopen(
        dir: &Path,
        sources: &[String],
        gen: u64,
        entries: &[SegmentEntry],
        rows: u64,
        valid_len: u64,
        sealed_bytes: u64,
        opts: WalOptions,
    ) -> Result<WalWriter, StoreError> {
        let last = entries.last().expect("manifest entries are non-empty");
        // Segments outside the manifest are debris: past it, a crashed
        // rotation (no committed rows by construction); before it, a
        // dead prefix a crashed compaction didn't finish removing.
        scrub_segment_debris(dir, entries[0].seq, last.seq);
        let io = opts.io;
        let path = segment_path(dir, last.seq);
        let mut file = io
            .open(&path, false)
            .map_err(|e| StoreError::io(&path, e))?;
        file.truncate_to(valid_len)
            .map_err(|e| StoreError::io(&path, e))?;
        Ok(WalWriter {
            io,
            dir: dir.to_path_buf(),
            sources: sources.to_vec(),
            segment_bytes: opts.segment_bytes.max(1),
            entries: entries.to_vec(),
            gen,
            path,
            file,
            rows,
            active_len: valid_len,
            sealed_bytes,
            needs_repair: false,
            pending_sync: false,
            buf: Vec::new(),
            staged_rows: 0,
            sync_every: None,
            rows_since_sync: 0,
            scratch: Vec::new(),
            last_commit_nanos: 0,
        })
    }

    /// Configures the automatic fsync interval: force the log to stable
    /// storage once `rows` committed rows have accumulated since the
    /// last sync. `None` (the default) syncs only on explicit
    /// [`sync`](Self::sync) calls.
    pub fn set_sync_every(&mut self, rows: Option<u64>) {
        self.sync_every = rows;
    }

    /// Stages one committed row into the group-commit buffer. Purely
    /// in-memory and infallible; nothing reaches the file until
    /// [`commit`](Self::commit).
    pub fn stage_row(&mut self, row: &[Option<Value>]) {
        self.stage_row_bins(row.iter().map(Option::as_ref));
    }

    /// Like [`stage_row`](Self::stage_row), but over borrowed bins — the
    /// shape a columnar seal holds (bin `r` of each source's shared
    /// epoch column). The payload is encoded into a recycled scratch
    /// buffer and memcpy'd after its frame header: staging allocates
    /// nothing in steady state and the on-disk bytes are identical to
    /// [`stage_row`](Self::stage_row)'s.
    pub fn stage_row_bins<'a>(&mut self, bins: impl ExactSizeIterator<Item = Option<&'a Value>>) {
        let mut w = StateWriter::reuse(std::mem::take(&mut self.scratch));
        w.put_u8(KIND_ROW);
        w.put_u32(bins.len() as u32);
        for bin in bins {
            w.put_bin(bin);
        }
        let payload = w.into_bytes();
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.scratch = payload;
        self.staged_rows += 1;
    }

    /// Rows staged and not yet committed.
    pub fn staged(&self) -> u64 {
        self.staged_rows
    }

    /// Seals the active segment and starts the next one. See the
    /// module docs for the crash-safe ordering.
    fn rotate(&mut self) -> Result<(), StoreError> {
        self.file
            .fsync()
            .map_err(|e| StoreError::io(&self.path, e))?;
        let next_seq = self.entries.last().expect("entries non-empty").seq + 1;
        let path = segment_path(&self.dir, next_seq);
        // Debris from a rotation that crashed between creating the
        // segment and writing the manifest.
        crate::io::scrub(&path);
        let mut file = self
            .io
            .open(&path, true)
            .map_err(|e| StoreError::io(&path, e))?;
        let header = frame(&encode_header(&self.sources));
        file.append(&header).map_err(|e| StoreError::io(&path, e))?;
        file.fsync().map_err(|e| StoreError::io(&path, e))?;
        let mut new_entries = self.entries.clone();
        new_entries.push(SegmentEntry {
            seq: next_seq,
            first_row: self.rows,
        });
        manifest::write_manifest(&self.dir, self.gen + 1, &new_entries, &self.io)?;
        let _ = self
            .io
            .remove(&manifest::manifest_path(&self.dir, self.gen));
        // Only now — with the new generation authoritative — does the
        // writer move over.
        self.sealed_bytes += self.active_len;
        self.path = path;
        self.file = file;
        self.active_len = header.len() as u64;
        self.entries = new_entries;
        self.gen += 1;
        Ok(())
    }

    /// Commits every staged row in one contiguous append: the whole
    /// batch reaches the OS before this returns (surviving a process
    /// kill). Returns the number of rows committed. On error the
    /// staged batch is **retained** — the file may hold a torn prefix
    /// of it, which the next attempt truncates away before rewriting
    /// the batch, so a retried commit is exactly-once.
    pub fn commit(&mut self) -> Result<u64, StoreError> {
        if self.buf.is_empty() && !self.needs_repair && !self.pending_sync {
            return Ok(0);
        }
        let start = std::time::Instant::now();
        if self.needs_repair {
            self.file
                .truncate_to(self.active_len)
                .map_err(|e| StoreError::io(&self.path, e))?;
            self.needs_repair = false;
        }
        // Rotate when the active segment is over its bound *and* holds
        // at least one row — never leaving an empty segment behind.
        if !self.buf.is_empty()
            && self.active_len >= self.segment_bytes
            && self.rows > self.entries.last().expect("entries non-empty").first_row
        {
            self.rotate()?;
        }
        let mut batch = 0;
        if !self.buf.is_empty() {
            if let Err(e) = self.file.append(&self.buf) {
                self.needs_repair = true;
                return Err(StoreError::io(&self.path, e));
            }
            self.active_len += self.buf.len() as u64;
            batch = self.staged_rows;
            self.buf.clear();
            self.staged_rows = 0;
            self.rows += batch;
            self.rows_since_sync += batch;
        }
        if self.pending_sync
            || self
                .sync_every
                .is_some_and(|every| self.rows_since_sync >= every)
        {
            if let Err(e) = self.sync() {
                self.pending_sync = true;
                return Err(e);
            }
        }
        self.last_commit_nanos = start.elapsed().as_nanos() as u64;
        Ok(batch)
    }

    /// Nanoseconds the most recent non-empty [`commit`](Self::commit)
    /// spent appending (plus any automatic fsync it triggered). `0`
    /// until the first commit. Timed here — at the syscall — so
    /// callers get the true group-commit latency without wrapping the
    /// call site.
    pub fn last_commit_nanos(&self) -> u64 {
        self.last_commit_nanos
    }

    /// Appends one committed row and flushes it to the OS immediately
    /// (a one-row group commit). Call [`sync`](Self::sync) to force it
    /// to the device.
    pub fn append_row(&mut self, row: &[Option<Value>]) -> Result<(), StoreError> {
        self.stage_row(row);
        self.commit()?;
        Ok(())
    }

    /// Rows committed through this writer plus any it resumed over,
    /// compacted history included. Staged-but-uncommitted rows are not
    /// counted.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Rows compacted away: the log physically starts at this absolute
    /// row index. `0` before any compaction.
    pub fn base_rows(&self) -> u64 {
        self.entries[0].first_row
    }

    /// Live segments.
    pub fn segment_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Committed bytes across all live segments.
    pub fn wal_bytes(&self) -> u64 {
        self.sealed_bytes + self.active_len
    }

    /// Drops sealed segments whose every row is at or below
    /// `keep_phase` (i.e. covered by a durable snapshot at that phase).
    /// The active segment is never dropped.
    pub fn compact(
        &mut self,
        keep_phase: u64,
    ) -> Result<crate::compact::CompactReport, StoreError> {
        let dropped = crate::compact::drop_dead_segments(
            &self.dir,
            &self.io,
            &self.entries,
            self.gen,
            keep_phase,
        )?;
        match dropped {
            None => Ok(crate::compact::CompactReport::noop(self.base_rows())),
            Some((new_entries, new_gen, report)) => {
                self.sealed_bytes = self.sealed_bytes.saturating_sub(report.removed_bytes);
                self.entries = new_entries;
                self.gen = new_gen;
                Ok(report)
            }
        }
    }

    /// Forces everything committed to stable storage (`fsync` of the
    /// active segment; sealed segments were fsynced at rotation).
    /// Staged rows are *not* implicitly committed — stage/commit
    /// boundaries belong to the caller.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file
            .fsync()
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.rows_since_sync = 0;
        self.pending_sync = false;
        Ok(())
    }
}

impl Drop for WalWriter {
    /// Best-effort flush of staged rows: a writer dropped mid-epoch
    /// (e.g. unwinding) should not silently lose frames it could still
    /// hand to the OS. Errors are ignored — the crash-recovery contract
    /// only covers rows whose `commit` returned. Skipped after a
    /// failed append: the file may end in a partial frame, and
    /// appending after it would bury valid-looking rows behind garbage.
    fn drop(&mut self) {
        if !self.buf.is_empty() && !self.needs_repair {
            let _ = self.file.append(&self.buf);
        }
    }
}

/// Removes segment files outside `[first_listed, last_listed]`
/// (best-effort, plain `std::fs`): above the range is debris from a
/// rotation or creation that died before its manifest write (such
/// segments hold no committed rows, by the rotation ordering); below it
/// is a dead prefix whose removal a crashed compaction never finished.
fn scrub_segment_debris(dir: &Path, first_listed: u64, last_listed: u64) {
    let Ok(entries) = std::fs::read_dir(wal_dir(dir)) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            crate::io::scrub(&entry.path());
            continue;
        }
        let Some(stem) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".log"))
        else {
            continue;
        };
        if stem
            .parse::<u64>()
            .is_ok_and(|seq| seq < first_listed || seq > last_listed)
        {
            crate::io::scrub(&entry.path());
        }
    }
}

/// How the end of the log looked during a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte belonged to a valid record.
    Clean,
    /// The final record was incomplete (crash mid-append); its bytes
    /// were dropped.
    Torn {
        /// Bytes discarded after the last valid record.
        dropped_bytes: u64,
    },
    /// A complete record failed its checksum or decode — or a sealed
    /// (non-final) segment was damaged. The valid prefix is still
    /// usable; everything from the bad record on was dropped.
    Corrupt {
        /// 0-based absolute index of the offending row record.
        at_row: u64,
        /// Bytes discarded from the bad record to end of file.
        dropped_bytes: u64,
        /// What failed.
        message: String,
    },
}

/// One live segment as read back, for accounting and inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment sequence number (names `seg-<seq>.log`).
    pub seq: u64,
    /// The segment file.
    pub path: PathBuf,
    /// Absolute committed rows preceding this segment.
    pub first_row: u64,
    /// Valid rows read from this segment.
    pub rows: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// Everything recovered from a WAL.
#[derive(Debug)]
pub struct WalContents {
    /// Live source names from the header (column order of `rows`).
    pub sources: Vec<String>,
    /// Valid committed rows still on disk, in phase order: `rows[p]`
    /// is phase `base_rows + p + 1`.
    pub rows: Vec<Row>,
    /// State of the log's tail.
    pub tail: WalTail,
    /// Byte length of the validated prefix of the **final** segment —
    /// where appending resumes.
    pub valid_len: u64,
    /// Rows compacted away before `rows[0]` (covered by a snapshot).
    pub base_rows: u64,
    /// Per-segment accounting, log order.
    pub segments: Vec<SegmentInfo>,
    /// Manifest generations skipped as unreadable, `(path, reason)`.
    pub skipped_manifests: Vec<(PathBuf, String)>,
    /// Damage, if any, is confined to the final segment, so truncating
    /// to `valid_len` and appending is sound.
    pub(crate) resumable: bool,
    /// The authoritative manifest generation and its segment list.
    pub(crate) gen: u64,
    pub(crate) entries: Vec<SegmentEntry>,
}

enum RawRecord {
    Complete { payload: Vec<u8>, end: u64 },
    Torn,
    BadChecksum,
    BadLength(u32),
}

fn read_record(buf: &[u8], offset: usize) -> Option<RawRecord> {
    let remaining = buf.len() - offset;
    if remaining == 0 {
        return None;
    }
    if remaining < 8 {
        return Some(RawRecord::Torn);
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return Some(RawRecord::BadLength(len));
    }
    if remaining - 8 < len as usize {
        return Some(RawRecord::Torn);
    }
    let payload = &buf[offset + 8..offset + 8 + len as usize];
    if crc32(payload) != crc {
        return Some(RawRecord::BadChecksum);
    }
    Some(RawRecord::Complete {
        payload: payload.to_vec(),
        end: (offset + 8 + len as usize) as u64,
    })
}

fn decode_header(payload: &[u8]) -> Result<Vec<String>, String> {
    let mut r = StateReader::new(payload);
    let kind = r.get_u8().map_err(|e| e.to_string())?;
    if kind != KIND_HEADER {
        return Err(format!("first record has kind {kind}, expected header"));
    }
    for &expect in WAL_MAGIC {
        let got = r.get_u8().map_err(|e| e.to_string())?;
        if got != expect {
            return Err("bad WAL magic".into());
        }
    }
    let version = r.get_u32().map_err(|e| e.to_string())?;
    if version != 1 {
        return Err(format!("unsupported WAL version {version}"));
    }
    let n = r.get_u32().map_err(|e| e.to_string())? as usize;
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        sources.push(r.get_str().map_err(|e| e.to_string())?);
    }
    r.finish().map_err(|e| e.to_string())?;
    Ok(sources)
}

fn decode_row(payload: &[u8], columns: usize) -> Result<Row, String> {
    let mut r = StateReader::new(payload);
    let kind = r.get_u8().map_err(|e| e.to_string())?;
    if kind != KIND_ROW {
        return Err(format!("record has kind {kind}, expected row"));
    }
    let n = r.get_u32().map_err(|e| e.to_string())? as usize;
    if n != columns {
        return Err(format!("row has {n} columns, header declared {columns}"));
    }
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(r.get_opt_value().map_err(|e| e.to_string())?);
    }
    r.finish().map_err(|e| e.to_string())?;
    Ok(row)
}

/// Outcome of scanning one file's records after its header.
struct FileScan {
    rows: Vec<Row>,
    tail: WalTail,
    /// End of the validated prefix within the file.
    valid_len: u64,
}

/// Scans `buf` from `offset` (just past the header) collecting rows.
/// `row_base` is the absolute index of the first row in this file, for
/// corruption reports.
fn scan_rows(buf: &[u8], mut offset: u64, columns: usize, row_base: u64) -> FileScan {
    let mut rows: Vec<Row> = Vec::new();
    let tail = loop {
        match read_record(buf, offset as usize) {
            None => break WalTail::Clean,
            Some(RawRecord::Torn) => {
                break WalTail::Torn {
                    dropped_bytes: buf.len() as u64 - offset,
                }
            }
            Some(RawRecord::BadChecksum) => {
                break WalTail::Corrupt {
                    at_row: row_base + rows.len() as u64,
                    dropped_bytes: buf.len() as u64 - offset,
                    message: "checksum mismatch".into(),
                }
            }
            Some(RawRecord::BadLength(len)) => {
                break WalTail::Corrupt {
                    at_row: row_base + rows.len() as u64,
                    dropped_bytes: buf.len() as u64 - offset,
                    message: format!("impossible record length {len}"),
                }
            }
            Some(RawRecord::Complete { payload, end }) => match decode_row(&payload, columns) {
                Ok(row) => {
                    rows.push(row);
                    offset = end;
                }
                Err(m) => {
                    break WalTail::Corrupt {
                        at_row: row_base + rows.len() as u64,
                        dropped_bytes: buf.len() as u64 - offset,
                        message: m,
                    }
                }
            },
        }
    };
    FileScan {
        rows,
        tail,
        valid_len: offset,
    }
}

/// Reads and validates the WAL in `dir`.
///
/// Errors only when no usable log exists (missing store, unreadable
/// first header, a hole in the manifest chain, a single-file `wal.log`
/// from an earlier release). Damage in the *final*
/// segment is reported through [`WalContents::tail`] — the valid
/// prefix is always returned, because a prefix of a committed history
/// is itself a committed history. Damage in a sealed earlier segment
/// also surfaces as a [`WalTail::Corrupt`] tail (with the valid prefix
/// up to the damage), but marks the store non-resumable.
pub fn read_wal(dir: &Path) -> Result<WalContents, StoreError> {
    refuse_single_file_log(dir)?;
    match manifest::load_latest(dir)? {
        Some((gen, entries, skipped)) => read_segmented(dir, gen, entries, skipped),
        None => Err(StoreError::NotFound(wal_dir(dir))),
    }
}

fn read_segmented(
    dir: &Path,
    gen: u64,
    entries: Vec<SegmentEntry>,
    skipped_manifests: Vec<(PathBuf, String)>,
) -> Result<WalContents, StoreError> {
    let base_rows = entries[0].first_row;
    let mut sources: Vec<String> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut segments: Vec<SegmentInfo> = Vec::new();
    let mut tail = WalTail::Clean;
    let mut valid_len = 0u64;
    let mut resumable = true;

    for (i, entry) in entries.iter().enumerate() {
        let path = segment_path(dir, entry.seq);
        let is_first = i == 0;
        let is_last = i + 1 == entries.len();
        let absolute = base_rows + rows.len() as u64;

        let soft_corrupt = |message: String, rows_here: u64| WalTail::Corrupt {
            at_row: absolute,
            dropped_bytes: rows_here,
            message,
        };

        let buf = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                let message = format!("listed segment unreadable: {e}");
                if is_first {
                    return Err(StoreError::corrupt(&path, message));
                }
                tail = soft_corrupt(message, 0);
                resumable = false;
                break;
            }
        };

        if entry.first_row != absolute {
            let message = format!(
                "manifest says segment starts at row {}, log holds {absolute}",
                entry.first_row
            );
            if is_first {
                return Err(StoreError::corrupt(&path, message));
            }
            tail = soft_corrupt(message, buf.len() as u64);
            resumable = false;
            break;
        }

        let (seg_sources, offset) = match read_record(&buf, 0) {
            Some(RawRecord::Complete { payload, end }) => match decode_header(&payload) {
                Ok(s) => (s, end),
                Err(m) => {
                    let message = format!("header: {m}");
                    if is_first {
                        return Err(StoreError::corrupt(&path, message));
                    }
                    tail = soft_corrupt(message, buf.len() as u64);
                    resumable = false;
                    break;
                }
            },
            other => {
                let message = if other.is_none() {
                    "empty segment (no header)".to_string()
                } else {
                    "unreadable header record".to_string()
                };
                if is_first {
                    return Err(StoreError::corrupt(&path, message));
                }
                tail = soft_corrupt(message, buf.len() as u64);
                resumable = false;
                break;
            }
        };
        if is_first {
            sources = seg_sources;
        } else if seg_sources != sources {
            tail = soft_corrupt(
                "segment header names different sources".into(),
                buf.len() as u64,
            );
            resumable = false;
            break;
        }

        let scan = scan_rows(&buf, offset, sources.len(), absolute);
        let seg_rows = scan.rows.len() as u64;
        rows.extend(scan.rows);
        segments.push(SegmentInfo {
            seq: entry.seq,
            path: path.clone(),
            first_row: entry.first_row,
            rows: seg_rows,
            bytes: buf.len() as u64,
        });
        match scan.tail {
            WalTail::Clean => {
                if is_last {
                    valid_len = scan.valid_len;
                }
            }
            WalTail::Torn { dropped_bytes } if is_last => {
                tail = WalTail::Torn { dropped_bytes };
                valid_len = scan.valid_len;
            }
            WalTail::Torn { dropped_bytes } => {
                // A sealed segment was fsynced before the log moved on;
                // a truncation here is damage, not a crash artifact.
                tail = WalTail::Corrupt {
                    at_row: base_rows + rows.len() as u64,
                    dropped_bytes,
                    message: "sealed segment truncated mid-record".into(),
                };
                valid_len = scan.valid_len;
                resumable = false;
                break;
            }
            WalTail::Corrupt {
                at_row,
                dropped_bytes,
                message,
            } => {
                tail = WalTail::Corrupt {
                    at_row,
                    dropped_bytes,
                    message,
                };
                valid_len = scan.valid_len;
                resumable = is_last;
                break;
            }
        }
    }

    Ok(WalContents {
        sources,
        rows,
        tail,
        valid_len,
        base_rows,
        segments,
        skipped_manifests,
        resumable,
        gen,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn sources() -> Vec<String> {
        vec!["a".into(), "b".into()]
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![Some(Value::Int(1)), None],
            vec![None, Some(Value::text("x"))],
            vec![Some(Value::Float(2.5)), Some(Value::vector(vec![1.0, 2.0]))],
        ]
    }

    #[test]
    fn round_trips_rows() {
        let dir = test_dir("wal-roundtrip");
        let mut w = WalWriter::create(&dir, &sources()).unwrap();
        for row in sample_rows() {
            w.append_row(&row).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.rows(), 3);
        assert_eq!(w.segment_count(), 1);

        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.sources, sources());
        assert_eq!(contents.rows, sample_rows());
        assert_eq!(contents.tail, WalTail::Clean);
        assert_eq!(contents.base_rows, 0);
        assert_eq!(contents.segments.len(), 1);
        assert_eq!(contents.segments[0].rows, 3);
    }

    #[test]
    fn group_commit_is_byte_compatible_with_per_row_appends() {
        // Same rows, two writers: one staging the whole epoch and
        // committing once, one appending row by row. The files must be
        // byte-identical — group commit changes syscall granularity,
        // never the on-disk format.
        let dir_group = test_dir("wal-group");
        let dir_rows = test_dir("wal-perrow");
        let mut grouped = WalWriter::create(&dir_group, &sources()).unwrap();
        for row in sample_rows() {
            grouped.stage_row(&row);
        }
        assert_eq!(grouped.staged(), 3);
        assert_eq!(grouped.rows(), 0, "staged rows are not yet committed");
        assert_eq!(grouped.commit().unwrap(), 3);
        assert_eq!(grouped.rows(), 3);
        assert_eq!(grouped.commit().unwrap(), 0, "empty commit is a no-op");
        drop(grouped);

        let mut per_row = WalWriter::create(&dir_rows, &sources()).unwrap();
        for row in sample_rows() {
            per_row.append_row(&row).unwrap();
        }
        drop(per_row);

        assert_eq!(
            std::fs::read(segment_path(&dir_group, 1)).unwrap(),
            std::fs::read(segment_path(&dir_rows, 1)).unwrap()
        );
        let contents = read_wal(&dir_group).unwrap();
        assert_eq!(contents.rows, sample_rows());
        assert_eq!(contents.tail, WalTail::Clean);
    }

    #[test]
    fn drop_flushes_staged_rows() {
        let dir = test_dir("wal-drop-flush");
        let mut w = WalWriter::create(&dir, &sources()).unwrap();
        w.stage_row(&[Some(Value::Int(5)), None]);
        drop(w); // no explicit commit
        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.rows, vec![vec![Some(Value::Int(5)), None]]);
    }

    #[test]
    fn sync_every_interval_commits_cleanly() {
        let dir = test_dir("wal-sync-every");
        let mut w = WalWriter::create(&dir, &sources()).unwrap();
        w.set_sync_every(Some(2));
        for row in sample_rows() {
            w.stage_row(&row);
        }
        assert_eq!(w.commit().unwrap(), 3); // crosses the interval once
        w.append_row(&[None, None]).unwrap();
        drop(w);
        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.rows.len(), 4);
        assert_eq!(contents.tail, WalTail::Clean);
    }

    #[test]
    fn refuses_to_overwrite_existing_store() {
        let dir = test_dir("wal-exists");
        WalWriter::create(&dir, &sources()).unwrap();
        assert!(store_exists(&dir));
        assert!(matches!(
            WalWriter::create(&dir, &sources()),
            Err(StoreError::AlreadyExists(_))
        ));
    }

    #[test]
    fn single_file_log_is_refused_never_read_or_shadowed() {
        // An earlier release's store: the same framing, but in one
        // `wal.log` with no manifest.
        let old = test_dir("wal-single-file-src");
        let mut w = WalWriter::create(&old, &sources()).unwrap();
        for row in sample_rows() {
            w.append_row(&row).unwrap();
        }
        drop(w);
        let dir = test_dir("wal-single-file");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(segment_path(&old, 1), dir.join("wal.log")).unwrap();

        assert!(!store_exists(&dir));
        assert!(matches!(read_wal(&dir), Err(StoreError::Corrupt { .. })));
        assert!(matches!(
            crate::Recovery::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            WalWriter::create(&dir, &sources()),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(!wal_dir(&dir).exists(), "no fresh store beside it");
    }

    #[test]
    fn create_refuses_stale_snapshots() {
        use crate::snapshot::write_snapshot;
        use ec_core::EngineCheckpoint;
        let dir = test_dir("wal-stale-snap");
        std::fs::create_dir_all(&dir).unwrap();
        // A snapshot from a previous incarnation, but no WAL (e.g. the
        // user deleted the log to "reset" the store).
        write_snapshot(
            &dir,
            &["s".into()],
            &EngineCheckpoint {
                phase: 5,
                vertices: vec![],
            },
        )
        .unwrap();
        assert!(matches!(
            WalWriter::create(&dir, &sources()),
            Err(StoreError::AlreadyExists(_))
        ));
    }

    #[test]
    fn missing_wal_is_not_found() {
        let dir = test_dir("wal-missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(!store_exists(&dir));
        assert!(matches!(read_wal(&dir), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn orphan_segments_without_manifest_are_debris() {
        // A run that died between creating seg 1 and writing manifest
        // gen 1 left a segment but no manifest: not a store.
        let dir = test_dir("wal-orphan-create");
        std::fs::create_dir_all(wal_dir(&dir)).unwrap();
        std::fs::write(segment_path(&dir, 1), b"half a header").unwrap();
        assert!(!store_exists(&dir));
        assert!(matches!(read_wal(&dir), Err(StoreError::NotFound(_))));
        // Creation scrubs the debris and succeeds.
        let mut w = WalWriter::create(&dir, &sources()).unwrap();
        w.append_row(&[None, None]).unwrap();
        drop(w);
        assert_eq!(read_wal(&dir).unwrap().rows.len(), 1);
    }

    #[test]
    fn rotation_spreads_rows_across_segments() {
        let dir = test_dir("wal-rotate");
        let mut w = WalWriter::create_with(
            &dir,
            &sources(),
            WalOptions {
                segment_bytes: 1, // rotate on every commit
                ..Default::default()
            },
        )
        .unwrap();
        for row in sample_rows() {
            w.append_row(&row).unwrap();
        }
        assert_eq!(w.segment_count(), 3, "each commit after the first rotates");
        assert_eq!(w.rows(), 3);
        drop(w);

        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.rows, sample_rows());
        assert_eq!(contents.tail, WalTail::Clean);
        assert_eq!(contents.segments.len(), 3);
        assert_eq!(
            contents
                .segments
                .iter()
                .map(|s| s.first_row)
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Exactly one manifest generation survives steady state.
        assert_eq!(manifest::list_manifests(&dir).unwrap().len(), 1);
    }

    #[test]
    fn resume_continues_in_final_segment() {
        let dir = test_dir("wal-resume-seg");
        let opts = WalOptions {
            segment_bytes: 1,
            ..Default::default()
        };
        let mut w = WalWriter::create_with(&dir, &sources(), opts.clone()).unwrap();
        for row in sample_rows() {
            w.append_row(&row).unwrap();
        }
        drop(w);
        // Tear the final segment's last record.
        let contents = read_wal(&dir).unwrap();
        let last = contents.segments.last().unwrap().path.clone();
        let bytes = std::fs::read(&last).unwrap();
        std::fs::write(&last, &bytes[..bytes.len() - 3]).unwrap();

        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.rows.len(), 2);
        assert!(matches!(contents.tail, WalTail::Torn { .. }));
        let rec = crate::Recovery::open(&dir).unwrap();
        let mut w = rec.append_writer_with(opts).unwrap();
        assert_eq!(w.rows(), 2);
        w.append_row(&[Some(Value::Int(9)), None]).unwrap();
        drop(w);
        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.tail, WalTail::Clean);
        assert_eq!(contents.rows.len(), 3);
        assert_eq!(contents.rows[2], vec![Some(Value::Int(9)), None]);
    }

    #[test]
    fn damage_in_sealed_segment_is_corrupt_and_non_resumable() {
        let dir = test_dir("wal-sealed-damage");
        let opts = WalOptions {
            segment_bytes: 1,
            ..Default::default()
        };
        let mut w = WalWriter::create_with(&dir, &sources(), opts.clone()).unwrap();
        for row in sample_rows() {
            w.append_row(&row).unwrap();
        }
        drop(w);
        // Truncate the *middle* segment.
        let middle = segment_path(&dir, 2);
        let bytes = std::fs::read(&middle).unwrap();
        std::fs::write(&middle, &bytes[..bytes.len() - 2]).unwrap();

        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.rows.len(), 1, "prefix before the damage survives");
        assert!(
            matches!(contents.tail, WalTail::Corrupt { .. }),
            "tail: {:?}",
            contents.tail
        );
        let rec = crate::Recovery::open(&dir).unwrap();
        assert!(rec.append_writer_with(opts).is_err());
    }

    #[test]
    fn failed_commit_retains_batch_for_retry() {
        use crate::io::{Fault, FaultIo, FaultPlan};
        let dir = test_dir("wal-retry");
        // Ops: create dirs (0,1), open seg (2), header append (3),
        // fsync (4), manifest open/append/fsync/rename (5-8). The
        // first row append is op 9.
        let io = FaultIo::new(FaultPlan::new().fail_at(9, Fault::TornWrite));
        let mut w = WalWriter::create_with(
            &dir,
            &sources(),
            WalOptions {
                segment_bytes: DEFAULT_SEGMENT_BYTES,
                io: Arc::new(io),
            },
        )
        .unwrap();
        w.stage_row(&[Some(Value::Int(1)), None]);
        assert!(w.commit().is_err(), "torn append must surface");
        assert_eq!(w.rows(), 0);
        // Retry: truncates the torn prefix, rewrites the batch.
        assert_eq!(w.commit().unwrap(), 1);
        assert_eq!(w.rows(), 1);
        w.append_row(&[None, Some(Value::Int(2))]).unwrap();
        drop(w);
        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.tail, WalTail::Clean);
        assert_eq!(contents.rows.len(), 2);
        assert_eq!(contents.rows[0], vec![Some(Value::Int(1)), None]);
    }

    #[test]
    fn torn_tail_dropped_at_every_truncation_point() {
        let dir = test_dir("wal-torn");
        let mut w = WalWriter::create(&dir, &sources()).unwrap();
        for row in sample_rows() {
            w.append_row(&row).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();

        // Record boundaries, to classify expectations.
        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.valid_len, full.len() as u64);

        for cut in 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            match read_wal(&dir) {
                Ok(c) => {
                    // A truncation mid-record drops exactly the torn
                    // record; at a boundary the tail is clean.
                    assert!(c.rows.len() <= 3);
                    assert_eq!(c.rows[..], sample_rows()[..c.rows.len()]);
                    match c.tail {
                        WalTail::Clean => assert_eq!(c.valid_len, cut as u64),
                        WalTail::Torn { dropped_bytes } => {
                            assert_eq!(c.valid_len + dropped_bytes, cut as u64)
                        }
                        WalTail::Corrupt { .. } => {
                            panic!("truncation must read as torn, not corrupt")
                        }
                    }
                }
                // Cuts inside the header leave no usable store.
                Err(StoreError::Corrupt { .. }) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn bit_flip_detected_as_corruption() {
        let dir = test_dir("wal-bitflip");
        let mut w = WalWriter::create(&dir, &sources()).unwrap();
        for row in sample_rows() {
            w.append_row(&row).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        let header_end = {
            let len = u32::from_le_bytes(full[0..4].try_into().unwrap()) as usize;
            8 + len
        };
        // Flip one bit in the payload of the second row record.
        let first_row_len =
            u32::from_le_bytes(full[header_end..header_end + 4].try_into().unwrap()) as usize;
        let second_start = header_end + 8 + first_row_len;
        let mut damaged = full.clone();
        damaged[second_start + 10] ^= 0x40;
        std::fs::write(&path, &damaged).unwrap();

        let c = read_wal(&dir).unwrap();
        assert_eq!(c.rows, sample_rows()[..1].to_vec());
        assert!(
            matches!(c.tail, WalTail::Corrupt { at_row: 1, .. }),
            "tail: {:?}",
            c.tail
        );
    }

    #[test]
    fn wrong_column_count_is_corruption() {
        let dir = test_dir("wal-columns");
        let mut w = WalWriter::create(&dir, &sources()).unwrap();
        w.append_row(&[Some(Value::Int(1)), None]).unwrap();
        drop(w);
        // Append a validly framed row with the wrong arity.
        let bad = {
            let mut w = StateWriter::new();
            w.put_u8(KIND_ROW);
            w.put_u32(1);
            w.put_opt_value(&Some(Value::Int(1)));
            frame(&w.into_bytes())
        };
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&bad);
        std::fs::write(&path, &bytes).unwrap();
        let c = read_wal(&dir).unwrap();
        assert_eq!(c.rows.len(), 1);
        assert!(matches!(c.tail, WalTail::Corrupt { at_row: 1, .. }));
    }
}
