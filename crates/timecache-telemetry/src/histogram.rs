//! A log2-bucketed histogram of cycle latencies: the input to an
//! attacker's threshold calibration (`Threshold::from_histogram` in
//! `timecache-attacks`).
//!
//! ```
//! use timecache_telemetry::Histogram;
//!
//! let mut h = Histogram::default();
//! for latency in [2, 2, 200] {
//!     h.observe(latency);
//! }
//! assert_eq!(h.count(), 3);
//! assert_eq!(h.bucket_counts()[Histogram::bucket_index(2)], 2);
//! ```

/// Number of latency buckets: powers of two from `2^0` through `2^31`,
/// plus the implicit `+Inf` overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A log2-bucketed histogram of nonnegative integer observations (cycle
/// latencies). Bucket upper bounds are `1, 2, 4, …, 2^31, +Inf` — covering
/// every latency the simulator can produce while keeping observation O(1)
/// and allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observations with `value <= 2^i`; the final
    /// bucket is the `+Inf` overflow.
    buckets: [u64; HISTOGRAM_BUCKETS + 1],
    sum: u64,
    count: u64,
}

// Derived `Default` is unavailable for arrays longer than 32 elements.
impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS + 1],
            sum: 0,
            count: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.sum = self.sum.wrapping_add(value);
        self.count += 1;
    }

    /// The bucket an observation falls into: the smallest `i` with
    /// `value <= 2^i`, or the overflow bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            let i = 64 - (value - 1).leading_zeros() as usize;
            i.min(HISTOGRAM_BUCKETS)
        }
    }

    /// The inclusive upper bound of bucket `i` (`f64::INFINITY` for the
    /// overflow bucket).
    pub fn bucket_bound(i: usize) -> f64 {
        if i >= HISTOGRAM_BUCKETS {
            f64::INFINITY
        } else {
            (1u64 << i) as f64
        }
    }

    /// Per-bucket (non-cumulative) observation counts.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1 << 31), 31);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
        assert_eq!(Histogram::bucket_bound(0), 1.0);
        assert_eq!(Histogram::bucket_bound(5), 32.0);
        assert!(Histogram::bucket_bound(HISTOGRAM_BUCKETS).is_infinite());
    }

    #[test]
    fn histogram_tracks_sum_count_mean() {
        let mut h = Histogram::default();
        for v in [2u64, 30, 200] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 232);
        assert!((h.mean() - 232.0 / 3.0).abs() < 1e-12);
        let counts = h.bucket_counts();
        assert_eq!(counts[1], 1); // 2 -> le 2
        assert_eq!(counts[5], 1); // 30 -> le 32
        assert_eq!(counts[8], 1); // 200 -> le 256
    }
}
