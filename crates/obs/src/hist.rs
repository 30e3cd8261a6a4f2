//! Lock-free log2-bucketed latency histograms.
//!
//! The engine's hot paths cannot afford a sorted reservoir or a mutex:
//! a [`LogHistogram::record`] is one `leading_zeros` and three relaxed
//! atomic adds. Resolution is one power of two — plenty to tell a 2 µs
//! execution from a 200 µs seal stall — and percentiles are recovered
//! from the bucket counts on demand, off the hot path.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
/// 64 value buckets cover the whole `u64` range.
const BUCKETS: usize = 65;

/// A lock-free histogram of `u64` samples (typically nanoseconds) in
/// log2 buckets.
///
/// Writers call [`record`](Self::record) concurrently; a reader takes a
/// [`snapshot`](Self::snapshot) whenever it likes. All orderings are
/// relaxed — a snapshot is a racy-but-complete view, which is all
/// observability needs.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Index of the bucket holding `value`.
    #[inline]
    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample. Lock-free: one `leading_zeros` plus three
    /// relaxed atomic RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same `value` at the cost of one: the
    /// engine uses it for a run of `n` phases timed as a whole, where
    /// each phase is credited the run's mean.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket(value)].fetch_add(n, Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// A point-in-time copy of the counts (racy across buckets, exact
    /// per bucket).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// One histogram per worker lane, so concurrent recorders never share a
/// counter; [`snapshot`](Self::snapshot) merges the lanes.
#[derive(Debug)]
pub struct HistogramBank {
    lanes: Vec<LogHistogram>,
}

impl HistogramBank {
    /// A bank of `lanes` independent histograms (clamped to at least 1).
    pub fn new(lanes: usize) -> HistogramBank {
        HistogramBank {
            lanes: (0..lanes.max(1)).map(|_| LogHistogram::new()).collect(),
        }
    }

    /// Records into `lane` (wrapped into range, so any worker index is
    /// safe).
    #[inline]
    pub fn record(&self, lane: usize, value: u64) {
        self.lanes[lane % self.lanes.len()].record(value);
    }

    /// [`LogHistogram::record_n`] into `lane`.
    #[inline]
    pub fn record_n(&self, lane: usize, value: u64, n: u64) {
        self.lanes[lane % self.lanes.len()].record_n(value, n);
    }

    /// Merges every lane into one snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for lane in &self.lanes {
            merged.merge(&lane.snapshot());
        }
        merged
    }
}

/// An owned copy of a [`LogHistogram`]'s counts, with percentile
/// accessors. Integer-only, so it keeps `Eq` and survives hand-rolled
/// JSON round trips exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`buckets[0]` = zeros, `buckets[i]` =
    /// samples in `[2^(i-1), 2^i)`).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q ∈ [0, 1]`, as the upper bound of the
    /// bucket the quantile falls in (capped at [`max`](Self::max), which
    /// is exact). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (bucket upper bound).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Hand-rolled JSON object with count, sum, max and the standard
    /// percentiles, all in nanoseconds.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum_nanos\":{},\"max_nanos\":{},\"p50_nanos\":{},\"p95_nanos\":{},\"p99_nanos\":{}}}",
            self.count(),
            self.sum,
            self.max,
            self.p50(),
            self.p95(),
            self.p99()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(LogHistogram::bucket(0), 0);
        assert_eq!(LogHistogram::bucket(1), 1);
        assert_eq!(LogHistogram::bucket(2), 2);
        assert_eq!(LogHistogram::bucket(3), 2);
        assert_eq!(LogHistogram::bucket(4), 3);
        assert_eq!(LogHistogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn percentiles_of_a_known_distribution() {
        let h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // p50 falls in bucket [32,64) → upper bound 63.
        assert_eq!(s.p50(), 63);
        // p99 and the max live in the top bucket [64,128) → capped at
        // the exact max.
        assert_eq!(s.p99(), 100);
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(s.percentile(0.0), 1);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn bank_merges_lanes() {
        let bank = HistogramBank::new(4);
        bank.record(0, 10);
        bank.record(1, 20);
        bank.record(7, 30); // wraps into lane 3
        let s = bank.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum, 60);
        assert_eq!(s.max, 30);
    }

    #[test]
    fn record_n_counts_every_sample() {
        let bank = HistogramBank::new(2);
        bank.record_n(1, 100, 8);
        bank.record_n(1, 7, 0); // no samples, no trace
        bank.record(0, 3);
        let s = bank.snapshot();
        assert_eq!(s.count(), 9);
        assert_eq!(s.sum, 803);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50(), 100);
    }

    #[test]
    fn merge_is_additive() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(5);
        b.record(500);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum, 505);
        assert_eq!(m.max, 500);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = LogHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 4000);
    }

    #[test]
    fn json_shape_is_stable() {
        let h = LogHistogram::new();
        h.record(7);
        let j = h.snapshot().to_json();
        assert!(j.starts_with("{\"count\":1,"), "{j}");
        assert!(j.contains("\"p99_nanos\":7"), "{j}");
    }
}
