//! Offline stand-in for `rayon`.
//!
//! Implements the subset this workspace uses — `ThreadPoolBuilder`,
//! `ThreadPool::install`, and `vec.into_par_iter().map(f).collect()` —
//! with `std::thread::scope` fan-out. Work is split into one contiguous
//! chunk per worker; results are returned in input order. No crate in
//! the workspace calls it any more; it remains a dependency of `ec-core`
//! only so the benchmark package's lock file stays as it is.

use std::cell::Cell;
use std::fmt;

thread_local! {
    /// Worker count installed by the innermost `ThreadPool::install`.
    static INSTALLED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Error from [`ThreadPoolBuilder::build`] (never produced by the shim;
/// kept for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder with default (auto) thread count.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count (0 = number of cores).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Accepted for compatibility; the shim spawns unnamed scoped
    /// threads per operation instead of persistent named workers.
    pub fn thread_name<F>(self, _f: F) -> ThreadPoolBuilder
    where
        F: FnMut(usize) -> String,
    {
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A (virtual) pool: records the worker count that `install` makes
/// current for parallel iterators executed inside it.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's worker count installed.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        INSTALLED_THREADS.with(|t| {
            let prev = t.replace(self.num_threads);
            let result = op();
            t.set(prev);
            result
        })
    }

    /// The configured worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Rayon-style prelude.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

/// Conversion into a (shim) parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// The iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts self.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

/// Minimal parallel-iterator interface: `map(...).collect()`.
pub trait ParallelIterator: Sized {
    /// Item type.
    type Item: Send;

    /// Maps each item through `f` (executed across worker threads at
    /// collect time).
    fn map<R, F>(self, f: F) -> ParMap<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        ParMap { inner: self, f }
    }

    /// Drives the pipeline, producing items in input order.
    fn run(self) -> Vec<Self::Item>;

    /// Collects results (in input order, like rayon's indexed collect).
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.run().into_iter().collect()
    }
}

/// Parallel iterator over a vector.
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;
    fn run(self) -> Vec<T> {
        self.items
    }
}

/// The result of [`ParallelIterator::map`].
pub struct ParMap<I, F> {
    inner: I,
    f: F,
}

impl<I, R, F> ParallelIterator for ParMap<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        let items = self.inner.run();
        let threads = INSTALLED_THREADS
            .with(Cell::get)
            .max(1)
            .min(items.len().max(1));
        let f = &self.f;
        if threads <= 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let chunk = items.len().div_ceil(threads);
        let mut slots: Vec<Option<Vec<R>>> = Vec::new();
        slots.resize_with(threads, || None);
        let mut chunks: Vec<Vec<I::Item>> = Vec::with_capacity(threads);
        {
            let mut it = items.into_iter();
            loop {
                let c: Vec<I::Item> = it.by_ref().take(chunk).collect();
                if c.is_empty() {
                    break;
                }
                chunks.push(c);
            }
        }
        std::thread::scope(|scope| {
            for (slot, chunk_items) in slots.iter_mut().zip(chunks) {
                scope.spawn(move || {
                    *slot = Some(chunk_items.into_iter().map(f).collect());
                });
            }
        });
        slots.into_iter().flatten().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = pool.install(|| input.into_par_iter().map(|x| x * 2).collect());
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let ids = Mutex::new(HashSet::new());
        pool.install(|| {
            (0..64u32)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|x| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    x
                })
                .collect::<Vec<_>>()
        });
        assert!(ids.lock().unwrap().len() > 1);
    }

    #[test]
    fn outside_install_runs_inline() {
        let out: Vec<i32> = vec![1, 2, 3].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out: Vec<i32> = pool.install(|| Vec::<i32>::new().into_par_iter().map(|x| x).collect());
        assert!(out.is_empty());
    }
}
