//! Ring buffers and sliding windows over event histories.
//!
//! The paper's predicates are defined over *event stream histories* (§1):
//! one-week moving averages, one-month regression windows, and so on.
//! [`RingBuffer`] is a fixed-capacity FIFO; [`SlidingWindow`] specialises
//! it to `f64` samples and maintains running sums so mean and variance
//! are O(1) per update.

use crate::snapshot::{SnapshotError, StateReader, StateWriter};

/// A fixed-capacity FIFO buffer; pushing to a full buffer evicts the
/// oldest element.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    head: usize,
    len: usize,
    capacity: usize,
}

impl<T: Clone> RingBuffer<T> {
    /// Creates a buffer holding at most `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingBuffer capacity must be positive");
        RingBuffer {
            buf: Vec::with_capacity(capacity),
            head: 0,
            len: 0,
            capacity,
        }
    }

    /// Pushes `item`, returning the evicted element if the buffer was full.
    pub fn push(&mut self, item: T) -> Option<T> {
        if self.len < self.capacity {
            if self.buf.len() < self.capacity {
                self.buf.push(item);
            } else {
                let idx = (self.head + self.len) % self.capacity;
                self.buf[idx] = item;
            }
            self.len += 1;
            None
        } else {
            let evicted = std::mem::replace(&mut self.buf[self.head], item);
            self.head = (self.head + 1) % self.capacity;
            Some(evicted)
        }
    }

    /// Number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Maximum number of elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The `i`-th oldest element (0 = oldest).
    pub fn get(&self, i: usize) -> Option<&T> {
        if i < self.len {
            Some(&self.buf[(self.head + i) % self.capacity])
        } else {
            None
        }
    }

    /// Oldest element.
    pub fn front(&self) -> Option<&T> {
        self.get(0)
    }

    /// Newest element.
    pub fn back(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.get(self.len - 1)
        }
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| self.get(i).expect("index in range"))
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
    }
}

/// A sliding window of `f64` samples with O(1) mean and variance.
///
/// Maintains `Σx` and `Σx²` incrementally as samples enter and leave.
/// For the window sizes used in stream predicates (tens to thousands of
/// samples) the incremental sums are numerically adequate; the unit tests
/// compare against direct summation.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    ring: RingBuffer<f64>,
    sum: f64,
    sum_sq: f64,
}

impl SlidingWindow {
    /// Creates a window over the last `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        SlidingWindow {
            ring: RingBuffer::new(capacity),
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Pushes a sample, evicting the oldest if full.
    pub fn push(&mut self, x: f64) {
        if let Some(old) = self.ring.push(x) {
            self.sum -= old;
            self.sum_sq -= old * old;
        }
        self.sum += x;
        self.sum_sq += x * x;
    }

    /// Number of samples currently in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if the window holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// True once the window has reached capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ring.is_full()
    }

    /// Window mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.ring.is_empty() {
            None
        } else {
            Some(self.sum / self.ring.len() as f64)
        }
    }

    /// Population variance; `None` when empty. Clamped at zero to guard
    /// against negative values from floating-point cancellation.
    pub fn variance(&self) -> Option<f64> {
        let n = self.ring.len() as f64;
        if self.ring.is_empty() {
            return None;
        }
        let mean = self.sum / n;
        Some((self.sum_sq / n - mean * mean).max(0.0))
    }

    /// Population standard deviation; `None` when empty.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Z-score of `x` against the window; `None` when the window is empty
    /// or has zero spread.
    pub fn zscore(&self, x: f64) -> Option<f64> {
        let sd = self.stddev()?;
        if sd == 0.0 {
            None
        } else {
            Some((x - self.mean()?) / sd)
        }
    }

    /// Iterates samples oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.ring.iter().copied()
    }

    /// Newest sample.
    pub fn last(&self) -> Option<f64> {
        self.ring.back().copied()
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.sum = 0.0;
        self.sum_sq = 0.0;
    }

    /// Serializes the window contents and the two running sums (not the
    /// capacity — that is configuration, re-established by whoever
    /// rebuilds the owner).
    pub fn snapshot_into(&self, w: &mut StateWriter) {
        w.put_u32(self.ring.len() as u32);
        for x in self.iter() {
            w.put_f64(x);
        }
        w.put_f64(self.sum);
        w.put_f64(self.sum_sq);
    }

    /// Restores contents captured by
    /// [`snapshot_into`](Self::snapshot_into). The running sums are
    /// restored verbatim rather than rebuilt: they carry the rounding of
    /// every sample that ever passed through the window, so re-summing
    /// the survivors would differ in the last bits for non-dyadic
    /// samples and the restored instance would drift from the live one.
    pub fn restore_from(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_u32()? as usize;
        self.ring.clear();
        for _ in 0..n {
            self.ring.push(r.get_f64()?);
        }
        self.sum = r.get_f64()?;
        self.sum_sq = r.get_f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fills_then_evicts_fifo() {
        let mut r = RingBuffer::new(3);
        assert_eq!(r.push(1), None);
        assert_eq!(r.push(2), None);
        assert_eq!(r.push(3), None);
        assert!(r.is_full());
        assert_eq!(r.push(4), Some(1));
        assert_eq!(r.push(5), Some(2));
        let got: Vec<i32> = r.iter().copied().collect();
        assert_eq!(got, vec![3, 4, 5]);
        assert_eq!(r.front(), Some(&3));
        assert_eq!(r.back(), Some(&5));
    }

    #[test]
    fn ring_get_out_of_range() {
        let mut r = RingBuffer::new(2);
        r.push(10);
        assert_eq!(r.get(0), Some(&10));
        assert_eq!(r.get(1), None);
    }

    #[test]
    fn ring_clear() {
        let mut r = RingBuffer::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.front(), None);
        r.push(9);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    #[should_panic]
    fn ring_zero_capacity_panics() {
        let _ = RingBuffer::<i32>::new(0);
    }

    #[test]
    fn window_mean_and_variance_match_direct() {
        let mut w = SlidingWindow::new(4);
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for (i, &x) in data.iter().enumerate() {
            w.push(x);
            let lo = i.saturating_sub(3);
            let slice = &data[lo..=i];
            let n = slice.len() as f64;
            let mean = slice.iter().sum::<f64>() / n;
            let var = slice.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            assert!((w.mean().unwrap() - mean).abs() < 1e-12);
            assert!((w.variance().unwrap() - var).abs() < 1e-9);
        }
    }

    #[test]
    fn window_empty_stats() {
        let w = SlidingWindow::new(3);
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        assert_eq!(w.stddev(), None);
        assert_eq!(w.zscore(1.0), None);
        assert_eq!(w.last(), None);
    }

    #[test]
    fn zscore_flags_outlier() {
        let mut w = SlidingWindow::new(100);
        for i in 0..100 {
            w.push((i % 5) as f64); // mean 2, bounded spread
        }
        let z = w.zscore(50.0).unwrap();
        assert!(z > 10.0, "z = {z}");
    }

    #[test]
    fn zscore_zero_spread_is_none() {
        let mut w = SlidingWindow::new(5);
        for _ in 0..5 {
            w.push(2.0);
        }
        assert_eq!(w.zscore(3.0), None);
    }

    #[test]
    fn variance_never_negative() {
        let mut w = SlidingWindow::new(8);
        for _ in 0..100 {
            w.push(1e9 + 0.001); // cancellation-prone values
        }
        assert!(w.variance().unwrap() >= 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// RingBuffer behaves exactly like a capacity-capped VecDeque.
        #[test]
        fn ring_matches_model(
            capacity in 1usize..16,
            ops in proptest::collection::vec(0i32..1000, 0..64),
        ) {
            let mut ring = RingBuffer::new(capacity);
            let mut model: VecDeque<i32> = VecDeque::new();
            for x in ops {
                let evicted = ring.push(x);
                model.push_back(x);
                let expect_evicted = if model.len() > capacity {
                    model.pop_front()
                } else {
                    None
                };
                prop_assert_eq!(evicted, expect_evicted);
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.front().copied(), model.front().copied());
                prop_assert_eq!(ring.back().copied(), model.back().copied());
                let got: Vec<i32> = ring.iter().copied().collect();
                let want: Vec<i32> = model.iter().copied().collect();
                prop_assert_eq!(got, want);
            }
        }

        /// SlidingWindow statistics match direct recomputation over the
        /// window contents, for arbitrary inputs.
        #[test]
        fn window_stats_match_direct(
            capacity in 1usize..12,
            xs in proptest::collection::vec(-1e3f64..1e3, 1..48),
        ) {
            let mut w = SlidingWindow::new(capacity);
            for (i, &x) in xs.iter().enumerate() {
                w.push(x);
                let lo = (i + 1).saturating_sub(capacity);
                let slice = &xs[lo..=i];
                let n = slice.len() as f64;
                let mean = slice.iter().sum::<f64>() / n;
                let var = slice
                    .iter()
                    .map(|v| (v - mean) * (v - mean))
                    .sum::<f64>() / n;
                prop_assert!((w.mean().unwrap() - mean).abs() < 1e-6);
                prop_assert!((w.variance().unwrap() - var).abs() < 1e-4);
                prop_assert_eq!(w.len(), slice.len());
                prop_assert_eq!(w.last(), Some(x));
            }
        }
    }
}
