//! Worker thread pool.
//!
//! The paper's prototype used Java's `ThreadPoolExecutor` to host "an
//! arbitrary number" of computation processes (§3.2, §4). This is the
//! minimal Rust equivalent: named OS threads running a supplied closure,
//! joined on shutdown, with panic capture so a crashing computation
//! process surfaces as an error instead of a hang.

use std::thread::{self, JoinHandle};

/// A set of named worker threads.
pub(crate) struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `count` threads named `"{name}-{i}"`, each running
    /// `body(i)`.
    pub(crate) fn spawn<F>(name: &str, count: usize, body: F) -> WorkerPool
    where
        F: Fn(usize) + Send + Sync + Clone + 'static,
    {
        let handles = (0..count)
            .map(|i| {
                let body = body.clone();
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || body(i))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Joins all threads. Returns the panic payloads (as strings) of any
    /// workers that panicked.
    pub(crate) fn join(self) -> Vec<String> {
        let mut panics = Vec::new();
        for h in self.handles {
            if let Err(payload) = h.join() {
                panics.push(payload_to_string(&payload));
            }
        }
        panics
    }
}

/// Best-effort extraction of a panic message.
pub(crate) fn payload_to_string(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn all_workers_run() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let pool = WorkerPool::spawn("t", 4, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert!(pool.join().is_empty());
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn worker_indices_distinct() {
        let seen = Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let s = Arc::clone(&seen);
        let pool = WorkerPool::spawn("ix", 3, move |i| {
            s[i].fetch_add(1, Ordering::SeqCst);
        });
        pool.join();
        for a in seen.iter() {
            assert_eq!(a.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn panics_are_captured() {
        let pool = WorkerPool::spawn("boom", 2, |i| {
            if i == 1 {
                panic!("worker exploded");
            }
        });
        let panics = pool.join();
        assert_eq!(panics.len(), 1);
        assert!(panics[0].contains("worker exploded"));
    }

    #[test]
    fn empty_pool() {
        let pool = WorkerPool::spawn("none", 0, |_| {});
        assert!(pool.handles.is_empty());
        assert!(pool.join().is_empty());
    }
}
