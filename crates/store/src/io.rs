//! The store's injectable I/O plane.
//!
//! Every mutating filesystem operation the durability layer performs —
//! opening a file, appending bytes, fsyncing, renaming a temp file into
//! place, removing a dead segment — goes through [`StoreIo`]. Production
//! stores use [`RealIo`] (a thin veneer over `std::fs`); the crash/fault
//! test matrix wraps it in [`FaultIo`], which injects failures from a
//! deterministic [`FaultPlan`]: torn writes (a prefix of the buffer
//! lands, then the error), short writes, fsync failures, disk-full, and
//! *kill-at-Nth-op* — from that operation on, every call fails, exactly
//! as if the process had died there. Re-running the same plan replays
//! the same failure, so every recovery path is a reproducible test case
//! rather than a production surprise.
//!
//! Reads stay on plain `std::fs`: recovery always runs in a *new*
//! process whose reads see whatever the dead one managed to persist, so
//! fault injection on the read path would model nothing real.

use std::fmt;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// An open, append-only store file.
pub trait StoreFile: Send {
    /// Appends the whole buffer at the current end of file.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Forces everything appended so far to stable storage.
    fn fsync(&mut self) -> io::Result<()>;
    /// Truncates the file to `len` bytes and repositions at the new
    /// end — the repair step after a torn or failed append.
    fn truncate_to(&mut self, len: u64) -> io::Result<()>;
}

/// The mutating filesystem operations a store performs.
///
/// Implementations must be shareable across threads (`Arc<dyn
/// StoreIo>`): one store directory has one writer, but snapshots,
/// compaction and the WAL share the same plane.
pub trait StoreIo: Send + Sync + fmt::Debug {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Opens `path` for appending. With `create_new` the file must not
    /// already exist; without it the file must exist (positioned at the
    /// current end).
    fn open(&self, path: &Path, create_new: bool) -> io::Result<Box<dyn StoreFile>>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The production [`StoreIo`]: plain `std::fs`, no failures beyond the
/// operating system's own.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

/// A shared handle to the production I/O plane.
pub fn real_io() -> Arc<dyn StoreIo> {
    Arc::new(RealIo)
}

struct RealFile {
    file: std::fs::File,
}

impl StoreFile for RealFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }
}

impl StoreIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn open(&self, path: &Path, create_new: bool) -> io::Result<Box<dyn StoreFile>> {
        let mut opts = std::fs::OpenOptions::new();
        opts.write(true);
        if create_new {
            opts.create_new(true);
        }
        let mut file = opts.open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(RealFile { file }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// One splitmix64 step: advances `state` and returns its next output.
/// The seeded fault plans (disk and network), the wire client's backoff
/// jitter and the chaos tests all draw from this one generator, so a
/// recorded seed replays bit-identically.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// An append writes roughly half its buffer, then fails — the torn
    /// frame a crash mid-`write` leaves behind. On non-append
    /// operations, a plain injected error.
    TornWrite,
    /// An append writes all but the final byte, then fails — the
    /// nastiest prefix, one byte short of a valid record.
    ShortWrite,
    /// The operation fails without touching the file (fsyncs report
    /// failure with the data still in the page cache; appends write
    /// nothing).
    FsyncFail,
    /// The operation fails with "no space left on device", writing
    /// nothing.
    Enospc,
}

impl Fault {
    fn error(self) -> io::Error {
        match self {
            Fault::TornWrite => io::Error::other("injected torn write"),
            Fault::ShortWrite => io::Error::other("injected short write"),
            Fault::FsyncFail => io::Error::other("injected fsync failure"),
            Fault::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                "no space left on device (injected)",
            ),
        }
    }

    /// Bytes of an `n`-byte append that land before the error.
    fn keep_of(self, n: usize) -> usize {
        match self {
            Fault::TornWrite => n / 2,
            Fault::ShortWrite => n.saturating_sub(1),
            Fault::FsyncFail | Fault::Enospc => 0,
        }
    }
}

/// A deterministic schedule of injected failures, keyed by the global
/// operation index ([`FaultIo`] counts every mutating call).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<(u64, Fault)>,
    kill_at: Option<u64>,
}

impl FaultPlan {
    /// An empty plan: the wrapper only counts operations. Useful for a
    /// first pass that measures how many ops a scenario performs, so a
    /// matrix can then kill at every one of them.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Injects `fault` at operation index `op` (0-based).
    pub fn fail_at(mut self, op: u64, fault: Fault) -> FaultPlan {
        self.faults.push((op, fault));
        self
    }

    /// Kills the process model at operation `op`: that operation and
    /// every later one fail without touching the filesystem.
    pub fn kill_at(mut self, op: u64) -> FaultPlan {
        self.kill_at = Some(op);
        self
    }

    /// A pseudorandom plan derived from `seed`: each operation below
    /// `horizon` has a 1-in-8 chance of a random fault, and half of all
    /// seeds additionally kill at a random point. Same seed, same plan.
    pub fn seeded(seed: u64, horizon: u64) -> FaultPlan {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = || splitmix64(&mut state);
        let mut plan = FaultPlan::new();
        for op in 0..horizon {
            if next() % 8 == 0 {
                let fault = match next() % 4 {
                    0 => Fault::TornWrite,
                    1 => Fault::ShortWrite,
                    2 => Fault::FsyncFail,
                    _ => Fault::Enospc,
                };
                plan.faults.push((op, fault));
            }
        }
        if next() % 2 == 0 && horizon > 0 {
            plan.kill_at = Some(next() % horizon);
        }
        plan
    }

    /// The configured kill point, if any.
    pub fn kill_point(&self) -> Option<u64> {
        self.kill_at
    }

    fn fault_for(&self, op: u64) -> Option<Fault> {
        self.faults
            .iter()
            .find(|(at, _)| *at == op)
            .map(|(_, f)| *f)
    }
}

#[derive(Debug)]
struct FaultCore {
    inner: Arc<dyn StoreIo>,
    ops: AtomicU64,
    state: Mutex<FaultState>,
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    killed: bool,
}

impl FaultCore {
    /// Takes the next operation ticket: `Err` if the process model is
    /// dead or dies at this op, `Ok(Some(fault))` if this op faults,
    /// `Ok(None)` for a clean op.
    fn ticket(&self) -> io::Result<Option<Fault>> {
        let op = self.ops.fetch_add(1, Relaxed);
        let mut st = self.state.lock().unwrap();
        if st.killed {
            return Err(io::Error::other("injected kill: process is dead"));
        }
        if st.plan.kill_at.is_some_and(|at| op >= at) {
            st.killed = true;
            return Err(io::Error::other(format!("injected kill at op {op}")));
        }
        Ok(st.plan.fault_for(op))
    }
}

/// A [`StoreIo`] that injects failures from a [`FaultPlan`]. Cloning
/// yields handles to the same plan and operation counter.
///
/// Operations are counted globally across the handle and every file it
/// opened; the plan is keyed by that count, so a scenario replayed with
/// the same plan fails at exactly the same operation. Once the kill
/// point is reached the wrapper behaves like a dead process: every call
/// fails and nothing further reaches the disk.
#[derive(Debug, Clone)]
pub struct FaultIo {
    core: Arc<FaultCore>,
}

impl FaultIo {
    /// Wraps the production I/O plane with `plan`.
    pub fn new(plan: FaultPlan) -> FaultIo {
        FaultIo::wrapping(real_io(), plan)
    }

    /// Wraps an arbitrary inner plane with `plan`.
    pub fn wrapping(inner: Arc<dyn StoreIo>, plan: FaultPlan) -> FaultIo {
        FaultIo {
            core: Arc::new(FaultCore {
                inner,
                ops: AtomicU64::new(0),
                state: Mutex::new(FaultState {
                    plan,
                    killed: false,
                }),
            }),
        }
    }

    /// This handle as the trait object stores take.
    pub fn handle(&self) -> Arc<dyn StoreIo> {
        Arc::new(self.clone())
    }

    /// Mutating operations attempted so far (faulted ones included).
    pub fn ops(&self) -> u64 {
        self.core.ops.load(Relaxed)
    }

    /// Whether the kill point has been reached.
    pub fn killed(&self) -> bool {
        self.core.state.lock().unwrap().killed
    }
}

struct FaultFile {
    inner: Box<dyn StoreFile>,
    core: Arc<FaultCore>,
}

impl StoreFile for FaultFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.core.ticket()? {
            None => self.inner.append(buf),
            Some(fault) => {
                let keep = fault.keep_of(buf.len());
                if keep > 0 {
                    // The prefix lands even though the call fails —
                    // the torn frame recovery must cope with.
                    self.inner.append(&buf[..keep])?;
                }
                Err(fault.error())
            }
        }
    }

    fn fsync(&mut self) -> io::Result<()> {
        match self.core.ticket()? {
            None => self.inner.fsync(),
            Some(fault) => Err(fault.error()),
        }
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        match self.core.ticket()? {
            None => self.inner.truncate_to(len),
            Some(fault) => Err(fault.error()),
        }
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match self.core.ticket()? {
            None => self.core.inner.create_dir_all(dir),
            Some(fault) => Err(fault.error()),
        }
    }

    fn open(&self, path: &Path, create_new: bool) -> io::Result<Box<dyn StoreFile>> {
        match self.core.ticket()? {
            None => {
                let inner = self.core.inner.open(path, create_new)?;
                Ok(Box::new(FaultFile {
                    inner,
                    core: Arc::clone(&self.core),
                }))
            }
            Some(fault) => Err(fault.error()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.core.ticket()? {
            None => self.core.inner.rename(from, to),
            Some(fault) => Err(fault.error()),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.core.ticket()? {
            None => self.core.inner.remove(path),
            Some(fault) => Err(fault.error()),
        }
    }
}

/// Best-effort removal of a stale file outside the faultable plane
/// (cleanup of our own earlier crash debris; never a durability step).
pub(crate) fn scrub(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    #[test]
    fn real_io_appends_and_truncates() {
        let dir = test_dir("io-real");
        std::fs::create_dir_all(&dir).unwrap();
        let io = real_io();
        let path = dir.join("f");
        let mut f = io.open(&path, true).unwrap();
        f.append(b"hello world").unwrap();
        f.truncate_to(5).unwrap();
        f.append(b"!").unwrap();
        f.fsync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello!");
        assert!(io.open(&path, true).is_err(), "create_new must refuse");
        io.rename(&path, &dir.join("g")).unwrap();
        io.remove(&dir.join("g")).unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn torn_write_keeps_a_prefix() {
        let dir = test_dir("io-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let io = FaultIo::new(FaultPlan::new().fail_at(1, Fault::TornWrite));
        let path = dir.join("f");
        let mut f = io.open(&path, true).unwrap(); // op 0
        assert!(f.append(b"0123456789").is_err()); // op 1: torn
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        f.append(b"ok").unwrap(); // op 2: clean again
        assert_eq!(io.ops(), 3);
    }

    #[test]
    fn kill_fails_everything_after() {
        let dir = test_dir("io-kill");
        std::fs::create_dir_all(&dir).unwrap();
        let io = FaultIo::new(FaultPlan::new().kill_at(2));
        let path = dir.join("f");
        let mut f = io.open(&path, true).unwrap(); // op 0
        f.append(b"a").unwrap(); // op 1
        assert!(f.append(b"b").is_err()); // op 2: dead
        assert!(f.fsync().is_err());
        assert!(io.remove(&path).is_err());
        assert!(io.killed());
        assert_eq!(std::fs::read(&path).unwrap(), b"a");
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 100);
        let b = FaultPlan::seeded(42, 100);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.kill_at, b.kill_at);
        // Pinned: recorded seeds must keep replaying the same plan.
        assert_eq!(
            format!("{:?} {:?}", a.faults, a.kill_at),
            "[(18, TornWrite), (22, ShortWrite), (35, TornWrite), (47, TornWrite), \
             (53, FsyncFail), (87, FsyncFail), (92, FsyncFail), (94, FsyncFail), \
             (98, Enospc)] None"
        );
        let c = FaultPlan::seeded(43, 100);
        assert!(a.faults != c.faults || a.kill_at != c.kill_at);
    }
}
