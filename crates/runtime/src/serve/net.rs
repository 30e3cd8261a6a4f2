//! The wire plane's injectable transport.
//!
//! Every socket the serve layer touches — the listener, accepted
//! connections, client dials — goes through [`NetIo`]/[`NetConn`],
//! mirroring the store's `StoreIo` plane. Production traffic uses
//! [`RealNet`] (std TCP with per-connection read/write deadlines); the
//! chaos matrix wraps it in [`FaultNet`], which injects network
//! misbehaviour from a deterministic [`NetFaultPlan`]: added latency,
//! connection resets that tear a write mid-frame, sticky black-holes
//! (writes vanish, reads stall — the half-open peer), duplicated
//! delivery of a whole write, and *kill-at-Nth-op* — at that operation
//! every connection open at the time dies, exactly as a network blip
//! would kill them, while connections dialed afterwards are clean.
//! Re-running the same plan replays the same failure, so every
//! reconnect/resume path is a reproducible test case.

use parking_lot::Mutex;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// One bidirectional byte stream (a connection). `Read`/`Write` carry
/// the data; the extra methods are the socket controls the wire plane
/// needs: deadlines, a second handle for the reader/writer split, and
/// a hard close.
pub trait NetConn: Read + Write + Send {
    /// Sets the read deadline: reads block at most this long, then
    /// fail with `WouldBlock`/`TimedOut`. `None` blocks forever.
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()>;
    /// Sets the write deadline (a black-holed peer's full send buffer
    /// surfaces as `TimedOut` instead of a silent stall).
    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()>;
    /// A second handle to the same connection (shared fault state).
    fn try_clone_conn(&self) -> io::Result<Box<dyn NetConn>>;
    /// Shuts both directions down; concurrent reads unblock with EOF.
    fn shutdown_both(&self) -> io::Result<()>;
}

/// A bound listener producing [`NetConn`]s.
pub trait NetListener: Send {
    /// Blocks for the next inbound connection.
    fn accept(&self) -> io::Result<Box<dyn NetConn>>;
    /// The bound address.
    fn local_addr(&self) -> io::Result<SocketAddr>;
}

/// The transport operations the wire plane performs. Implementations
/// are shared (`Arc<dyn NetIo>`): server and clients under test route
/// through one plane so a plan's operation count covers both sides.
pub trait NetIo: Send + Sync + fmt::Debug {
    /// Binds a listener at `addr` (port 0 picks a free one).
    fn bind(&self, addr: &str) -> io::Result<Box<dyn NetListener>>;
    /// Dials `addr`.
    fn connect(&self, addr: &str) -> io::Result<Box<dyn NetConn>>;
}

/// The production [`NetIo`]: std TCP with `TCP_NODELAY`, no failures
/// beyond the operating system's own.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealNet;

/// A shared handle to the production transport.
pub fn real_net() -> Arc<dyn NetIo> {
    Arc::new(RealNet)
}

struct RealConn {
    stream: TcpStream,
}

impl Read for RealConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for RealConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl NetConn for RealConn {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(t)
    }

    fn try_clone_conn(&self) -> io::Result<Box<dyn NetConn>> {
        Ok(Box::new(RealConn {
            stream: self.stream.try_clone()?,
        }))
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.stream.shutdown(Shutdown::Both)
    }
}

struct RealListener {
    listener: TcpListener,
}

impl NetListener for RealListener {
    fn accept(&self) -> io::Result<Box<dyn NetConn>> {
        let (stream, _) = self.listener.accept()?;
        let _ = stream.set_nodelay(true);
        Ok(Box::new(RealConn { stream }))
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

impl NetIo for RealNet {
    fn bind(&self, addr: &str) -> io::Result<Box<dyn NetListener>> {
        Ok(Box::new(RealListener {
            listener: TcpListener::bind(addr)?,
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn NetConn>> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Box::new(RealConn { stream }))
    }
}

/// One injectable network misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The operation succeeds after sleeping this many milliseconds.
    Delay(u64),
    /// A write delivers roughly half its buffer, then the connection
    /// dies with `ConnectionReset` — the torn mid-frame send. On a
    /// read or connect, a plain reset. The connection stays dead.
    Reset,
    /// The connection goes half-open, stickily: writes report success
    /// but vanish, reads see silence until the read deadline. The peer
    /// cannot tell — exactly the wedge the liveness layer must reap.
    BlackHole,
    /// A write is delivered twice in full. Because frames go down in
    /// single writes, the peer sees a duplicated, decodable frame —
    /// the at-least-once delivery resume dedup must absorb.
    Duplicate,
}

/// A deterministic schedule of injected network faults, keyed by the
/// global operation index ([`FaultNet`] counts every connect, read and
/// write across all its connections).
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    faults: Vec<(u64, NetFault)>,
    kill_at: Option<u64>,
}

impl NetFaultPlan {
    /// An empty plan: the wrapper only counts operations.
    pub fn new() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// Injects `fault` at operation index `op` (0-based).
    pub fn fail_at(mut self, op: u64, fault: NetFault) -> NetFaultPlan {
        self.faults.push((op, fault));
        self
    }

    /// Kills the network at operation `op`: every connection open when
    /// that operation is reached fails from then on, as if a blip
    /// reset them all. Connections dialed afterwards are clean — the
    /// reconnect path under test.
    pub fn kill_at(mut self, op: u64) -> NetFaultPlan {
        self.kill_at = Some(op);
        self
    }

    /// A pseudorandom plan derived from `seed`: each operation below
    /// `horizon` has a 1-in-6 chance of a fault (resets and duplicated
    /// deliveries most common, short delays next, black-holes rare —
    /// they each cost a full deadline), and half of all seeds kill the
    /// live connections at a random point. Same seed, same plan.
    pub fn seeded(seed: u64, horizon: u64) -> NetFaultPlan {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = || ec_store::splitmix64(&mut state);
        let mut plan = NetFaultPlan::new();
        for op in 0..horizon {
            if next() % 6 == 0 {
                let fault = match next() % 8 {
                    0..=2 => NetFault::Reset,
                    3..=4 => NetFault::Duplicate,
                    5..=6 => NetFault::Delay(1 + next() % 4),
                    _ => NetFault::BlackHole,
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

    fn fault_for(&self, op: u64) -> Option<NetFault> {
        self.faults
            .iter()
            .find(|(at, _)| *at == op)
            .map(|(_, f)| *f)
    }
}

#[derive(Debug)]
struct NetFaultCore {
    inner: Arc<dyn NetIo>,
    ops: AtomicU64,
    plan: NetFaultPlan,
    /// Bumped once when the kill point is reached; connections carry
    /// the generation they were dialed under and die when it is stale.
    generation: AtomicU64,
}

impl NetFaultCore {
    fn reset_error() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
    }

    /// Takes the next operation ticket for a connection dialed under
    /// `conn_gen`: `Err` if that connection is dead (killed network),
    /// `Ok(Some(fault))` if this op faults, `Ok(None)` for a clean op.
    fn ticket(&self, conn_gen: u64) -> io::Result<Option<NetFault>> {
        let op = self.ops.fetch_add(1, Relaxed);
        if self.plan.kill_at.is_some_and(|at| op >= at) {
            self.generation.store(1, Relaxed);
        }
        if conn_gen < self.generation.load(Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("injected network kill (op {op})"),
            ));
        }
        Ok(self.plan.fault_for(op))
    }
}

/// A [`NetIo`] that injects failures from a [`NetFaultPlan`]. Cloning
/// yields handles to the same plan and operation counter; connections
/// accepted from its listeners are wrapped too, so either side of the
/// wire (or both) can run under the plan.
#[derive(Debug, Clone)]
pub struct FaultNet {
    core: Arc<NetFaultCore>,
}

impl FaultNet {
    /// Wraps the production transport with `plan`.
    pub fn new(plan: NetFaultPlan) -> FaultNet {
        FaultNet::wrapping(real_net(), plan)
    }

    /// Wraps an arbitrary inner transport with `plan`.
    pub fn wrapping(inner: Arc<dyn NetIo>, plan: NetFaultPlan) -> FaultNet {
        FaultNet {
            core: Arc::new(NetFaultCore {
                inner,
                ops: AtomicU64::new(0),
                plan,
                generation: AtomicU64::new(0),
            }),
        }
    }

    /// This handle as the trait object the wire plane takes.
    pub fn handle(&self) -> Arc<dyn NetIo> {
        Arc::new(self.clone())
    }

    /// Transport operations attempted so far (faulted ones included).
    pub fn ops(&self) -> u64 {
        self.core.ops.load(Relaxed)
    }

    /// Whether the kill point has been reached.
    pub fn killed(&self) -> bool {
        self.core.generation.load(Relaxed) > 0
    }
}

/// Fault state shared by every clone of one connection — the reader
/// and writer halves of a black-holed socket must both be black-holed.
struct ConnShared {
    poisoned: AtomicBool,
    black_holed: AtomicBool,
    read_timeout: Mutex<Option<Duration>>,
    generation: u64,
}

struct FaultConn {
    inner: Box<dyn NetConn>,
    core: Arc<NetFaultCore>,
    shared: Arc<ConnShared>,
}

impl FaultConn {
    fn poison(&self) {
        self.shared.poisoned.store(true, Relaxed);
        let _ = self.inner.shutdown_both();
    }

    /// Emulates the silence of a half-open peer: honor the configured
    /// read deadline, then time out. With no deadline set, stall
    /// briefly and time out anyway — a test harness must never hang.
    fn black_hole_read(&self) -> io::Error {
        let wait = (*self.shared.read_timeout.lock()).unwrap_or(Duration::from_millis(100));
        std::thread::sleep(wait);
        io::Error::new(io::ErrorKind::TimedOut, "injected black-hole: peer silent")
    }
}

impl Read for FaultConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.shared.poisoned.load(Relaxed) {
            return Err(NetFaultCore::reset_error());
        }
        if self.shared.black_holed.load(Relaxed) {
            return Err(self.black_hole_read());
        }
        match self.core.ticket(self.shared.generation) {
            Err(e) => {
                self.poison();
                Err(e)
            }
            Ok(None) | Ok(Some(NetFault::Duplicate)) => self.inner.read(buf),
            Ok(Some(NetFault::Delay(ms))) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.read(buf)
            }
            Ok(Some(NetFault::Reset)) => {
                self.poison();
                Err(NetFaultCore::reset_error())
            }
            Ok(Some(NetFault::BlackHole)) => {
                self.shared.black_holed.store(true, Relaxed);
                Err(self.black_hole_read())
            }
        }
    }
}

impl Write for FaultConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.shared.poisoned.load(Relaxed) {
            return Err(NetFaultCore::reset_error());
        }
        if self.shared.black_holed.load(Relaxed) {
            return Ok(buf.len()); // vanishes
        }
        match self.core.ticket(self.shared.generation) {
            Err(e) => {
                self.poison();
                Err(e)
            }
            Ok(None) => self.inner.write(buf),
            Ok(Some(NetFault::Delay(ms))) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write(buf)
            }
            Ok(Some(NetFault::Duplicate)) => {
                self.inner.write_all(buf)?;
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            Ok(Some(NetFault::Reset)) => {
                // The torn mid-frame send: a prefix reaches the peer,
                // then the connection dies.
                let keep = buf.len() / 2;
                if keep > 0 {
                    let _ = self.inner.write_all(&buf[..keep]);
                    let _ = self.inner.flush();
                }
                self.poison();
                Err(NetFaultCore::reset_error())
            }
            Ok(Some(NetFault::BlackHole)) => {
                self.shared.black_holed.store(true, Relaxed);
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.shared.poisoned.load(Relaxed) {
            return Err(NetFaultCore::reset_error());
        }
        if self.shared.black_holed.load(Relaxed) {
            return Ok(());
        }
        self.inner.flush()
    }
}

impl NetConn for FaultConn {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        *self.shared.read_timeout.lock() = t;
        self.inner.set_read_timeout(t)
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(t)
    }

    fn try_clone_conn(&self) -> io::Result<Box<dyn NetConn>> {
        Ok(Box::new(FaultConn {
            inner: self.inner.try_clone_conn()?,
            core: Arc::clone(&self.core),
            shared: Arc::clone(&self.shared),
        }))
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.inner.shutdown_both()
    }
}

struct FaultListener {
    inner: Box<dyn NetListener>,
    core: Arc<NetFaultCore>,
}

impl NetListener for FaultListener {
    fn accept(&self) -> io::Result<Box<dyn NetConn>> {
        // Accept itself is not ticketed: faults live on the dial and
        // the data path, where a real network misbehaves.
        let inner = self.inner.accept()?;
        Ok(Box::new(FaultConn {
            inner,
            core: Arc::clone(&self.core),
            shared: Arc::new(ConnShared {
                poisoned: AtomicBool::new(false),
                black_holed: AtomicBool::new(false),
                read_timeout: Mutex::new(None),
                generation: self.core.generation.load(Relaxed),
            }),
        }))
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

impl NetIo for FaultNet {
    fn bind(&self, addr: &str) -> io::Result<Box<dyn NetListener>> {
        Ok(Box::new(FaultListener {
            inner: self.core.inner.bind(addr)?,
            core: Arc::clone(&self.core),
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn NetConn>> {
        let generation = self.core.generation.load(Relaxed);
        let fault = self.core.ticket(generation)?;
        let black_holed = match fault {
            Some(NetFault::Reset) => return Err(NetFaultCore::reset_error()),
            Some(NetFault::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                false
            }
            Some(NetFault::BlackHole) => true,
            Some(NetFault::Duplicate) | None => false,
        };
        let inner = self.core.inner.connect(addr)?;
        Ok(Box::new(FaultConn {
            inner,
            core: Arc::clone(&self.core),
            shared: Arc::new(ConnShared {
                poisoned: AtomicBool::new(false),
                black_holed: AtomicBool::new(black_holed),
                read_timeout: Mutex::new(None),
                generation,
            }),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes on up to `conns` connections, then exits.
    fn echo_server(conns: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut workers = Vec::new();
            for _ in 0..conns {
                let Ok((mut conn, _)) = listener.accept() else {
                    break;
                };
                workers.push(std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    while let Ok(n) = conn.read(&mut buf) {
                        if n == 0 || conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }));
            }
            for w in workers {
                let _ = w.join();
            }
        });
        (addr, handle)
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = NetFaultPlan::seeded(42, 200);
        let b = NetFaultPlan::seeded(42, 200);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.kill_at, b.kill_at);
        // Pinned: recorded seeds must keep replaying the same plan.
        assert_eq!(
            format!("{:?} {:?}", a.faults, a.kill_at),
            "[(1, Duplicate), (3, Delay(1)), (15, Reset), (41, BlackHole), (51, Reset), \
             (53, Delay(3)), (63, Duplicate), (75, Reset), (78, BlackHole), (87, Reset), \
             (98, Delay(2)), (120, Delay(3)), (122, Reset), (123, Reset), (128, Reset), \
             (136, Reset), (140, Reset), (141, Reset), (149, Delay(1)), (150, Duplicate), \
             (151, Delay(4)), (163, Delay(3)), (170, Delay(3)), (172, Reset), \
             (188, Delay(2)), (195, Delay(4)), (196, Reset)] Some(40)"
        );
        let c = NetFaultPlan::seeded(43, 200);
        assert!(a.faults != c.faults || a.kill_at != c.kill_at);
    }

    #[test]
    fn reset_tears_a_write_and_poisons_the_connection() {
        let (addr, server) = echo_server(1);
        let net = FaultNet::new(NetFaultPlan::new().fail_at(1, NetFault::Reset));
        let mut conn = net.connect(&addr.to_string()).unwrap(); // op 0
        let err = conn.write(b"0123456789").unwrap_err(); // op 1: torn
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        let err = conn.write(b"more").unwrap_err(); // dead for good
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        server.join().unwrap();
    }

    #[test]
    fn duplicate_delivers_a_write_twice() {
        let (addr, server) = echo_server(1);
        let net = FaultNet::new(NetFaultPlan::new().fail_at(1, NetFault::Duplicate));
        let mut conn = net.connect(&addr.to_string()).unwrap(); // op 0
        conn.write_all(b"ab").unwrap(); // op 1: doubled
        conn.flush().unwrap();
        let mut got = [0u8; 4];
        conn.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"abab");
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn black_hole_swallows_writes_and_times_out_reads() {
        let (addr, server) = echo_server(1);
        let net = FaultNet::new(NetFaultPlan::new().fail_at(1, NetFault::BlackHole));
        let mut conn = net.connect(&addr.to_string()).unwrap(); // op 0
        conn.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        conn.write_all(b"gone").unwrap(); // op 1: vanishes, reports ok
        let err = conn.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // Sticky: later writes vanish too, without consuming tickets.
        conn.write_all(b"also gone").unwrap();
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn kill_fails_live_connections_but_not_new_ones() {
        let (addr, server) = echo_server(2);
        let net = FaultNet::new(NetFaultPlan::new().kill_at(2));
        let mut old = net.connect(&addr.to_string()).unwrap(); // op 0
        old.write_all(b"a").unwrap(); // op 1
        let err = old.write(b"b").unwrap_err(); // op 2: network blip
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(net.killed());
        // A fresh dial lands in the new generation and works.
        let mut fresh = net.connect(&addr.to_string()).unwrap();
        fresh.write_all(b"cd").unwrap();
        let mut got = [0u8; 2];
        fresh.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"cd");
        drop((old, fresh));
        server.join().unwrap();
    }
}
