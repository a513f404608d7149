//! Fixed-bucket log2 latency histograms with a deterministic, commutative
//! merge.
//!
//! # Bucket layout
//!
//! A [`Histogram`] has exactly 65 buckets. Bucket 0 holds the value `0`;
//! bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)` — i.e. a value `v > 0`
//! lands in bucket `64 - v.leading_zeros()` (its bit length). The layout
//! is fixed and value-independent, so merging histograms is plain
//! element-wise addition: **commutative and associative**. That is what
//! makes per-thread recording deterministic — however a sweep's instances
//! are partitioned across worker threads, the merged histogram is
//! identical (pinned by the partition-invariance proptest in
//! `tests/histogram_props.rs`).
//!
//! Alongside the buckets the histogram keeps exact `count`, `sum`, `min`,
//! and `max`, so sum-style reporting (the legacy `wall_*_ns` fields) stays
//! exact; only the percentiles are bucket-resolution approximations
//! (within 2× of the true value, clamped to the observed `[min, max]`).

/// Number of histogram buckets: one for zero plus one per bit length.
pub const NUM_BUCKETS: usize = 65;

/// Fixed-bucket log2 histogram of `u64` samples (typically nanoseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, else the value's bit length.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of a bucket's value range.
    fn bucket_upper(index: usize) -> u64 {
        match index {
            0 => 0,
            64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merge another histogram into this one. Element-wise bucket
    /// addition plus exact-stat combination: commutative and associative,
    /// so any partition of the same samples merges to the same result.
    pub fn merge(&mut self, other: &Histogram) {
        // DetSan (debug builds): spot-check the commutativity claim above
        // on the actual operands — merge the other way around and compare.
        #[cfg(debug_assertions)]
        let flipped = {
            let mut f = other.clone();
            f.merge_unchecked(self);
            f
        };
        self.merge_unchecked(other);
        #[cfg(debug_assertions)]
        assert!(
            *self == flipped,
            "DetSan: histogram merge is not commutative for these operands"
        );
    }

    fn merge_unchecked(&mut self, other: &Histogram) {
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Approximate percentile (`p` in `[0, 100]`): the upper bound of the
    /// bucket containing the sample of rank `ceil(count · p / 100)`,
    /// clamped to the observed `[min, max]`. Returns 0 on an empty
    /// histogram. Exact for `p = 0` (min) and `p = 100` (max).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return self.min;
        }
        if p == 100.0 {
            return self.max;
        }
        let rank = ((self.count as f64) * p / 100.0).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= rank {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Raw bucket counts (index 0 = zero values, index `i` = values with
    /// bit length `i`).
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn exact_stats_and_percentile_bounds() {
        let mut h = Histogram::new();
        let samples = [0u64, 1, 5, 100, 1000, 1_000_000];
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 1_000_000);
        // Every percentile lies within [min, max] and within 2× of the
        // true order statistic's bucket.
        for p in [10.0, 50.0, 90.0, 99.0] {
            let v = h.percentile(p);
            assert!(v <= h.max());
        }
        // p50 of 6 samples is the 3rd order statistic (5): bucket upper
        // bound is 7.
        assert_eq!(h.percentile(50.0), 7);
    }

    #[test]
    fn merge_is_commutative_and_matches_single_recording() {
        let samples: Vec<u64> = (0..100).map(|i| i * i * 37 % 10_000).collect();
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let (left, right) = samples.split_at(33);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &s in left {
            a.record(s);
        }
        for &s in right {
            b.record(s);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }
}
