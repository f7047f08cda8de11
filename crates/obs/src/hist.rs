//! Power-of-two-bucket histograms.
//!
//! Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
//! `[2^(i-1), 2^i)`. Recording a value is `leading_zeros` plus an array
//! increment — integer-only, branch-light, and allocation-free, so it is
//! safe inside the engine's per-step path (per-chunk instances, merged in
//! chunk order; never shared across threads).

/// Number of buckets: one for zero plus one per bit of a `u64`.
const N_BUCKETS: usize = 65;

/// A fixed-shape histogram over `u64` values with power-of-two buckets.
#[derive(Debug, Clone)]
pub struct Pow2Histogram {
    // Scalars first: the merge fast path (empty `other`) reads only this
    // header cache line, never the bucket array.
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// One past the highest touched bucket index. Bounds the scan in
    /// [`merge`](Self::merge): the engine merges short-lived per-chunk
    /// histograms at every exchange barrier, and their buckets are cold by
    /// then — reading only the live prefix keeps the merge off the memory
    /// bus (typical values span a handful of buckets out of 65).
    hi: u32,
    buckets: [u64; N_BUCKETS],
}

impl Default for Pow2Histogram {
    fn default() -> Self {
        Pow2Histogram {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            hi: 0,
        }
    }
}

impl Pow2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Pow2Histogram::default()
    }

    /// Index of the bucket holding `v`.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// `[lo, hi]` value range of bucket `i`. The top bucket's upper bound
    /// saturates at `u64::MAX` (the doubling wraps to 0, so subtract
    /// wrapping too).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (i - 1);
            (lo, lo.wrapping_mul(2).wrapping_sub(1))
        }
    }

    /// Records one observation. Integer-only: no floats, no allocation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        self.buckets[b] += 1;
        self.hi = self.hi.max(b as u32 + 1);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0.0 if empty. (Report-time
    /// only; the hot path never calls this.)
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or 0 if empty: the bucket
    /// holding the quantile's observation is found exactly, and the value
    /// is interpolated linearly by rank inside it, with the bucket's range
    /// first clamped to the observed min and max. The error is at most
    /// the width of that clamped bucket — below a factor of two, and zero
    /// at `q = 1` and for single-valued buckets at the extremes.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if below + c >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let (lo, hi) = (lo.max(self.min), hi.min(self.max));
                // The bucket's `c` observations are taken as evenly
                // spread: the k-th of them sits k/c of the way up.
                let up = (hi - lo) as u128 * (rank - below) as u128 / c as u128;
                return lo + up as u64;
            }
            below += c;
        }
        self.max
    }

    /// Merges another histogram into this one. Empty histograms merge for
    /// free, and only `other`'s touched bucket prefix is read.
    pub fn merge(&mut self, other: &Pow2Histogram) {
        if other.count == 0 {
            return;
        }
        let hi = other.hi as usize;
        for (a, b) in self.buckets[..hi].iter_mut().zip(&other.buckets[..hi]) {
            *a += *b;
        }
        self.hi = self.hi.max(other.hi);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Iterates the non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Pow2Histogram::bucket_of(0), 0);
        assert_eq!(Pow2Histogram::bucket_of(1), 1);
        assert_eq!(Pow2Histogram::bucket_of(2), 2);
        assert_eq!(Pow2Histogram::bucket_of(3), 2);
        assert_eq!(Pow2Histogram::bucket_of(4), 3);
        assert_eq!(Pow2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Pow2Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Pow2Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Pow2Histogram::bucket_bounds(3), (4, 7));
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Pow2Histogram::new();
        for v in [0u64, 1, 5, 5, 80] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 91);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 80);
        assert!((h.mean() - 18.2).abs() < 1e-9);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 0, 1), (1, 1, 1), (4, 7, 2), (64, 127, 1)]);
    }

    #[test]
    fn quantiles_interpolate_inside_the_bucket() {
        let mut h = Pow2Histogram::new();
        for _ in 0..99 {
            h.record(4); // bucket [4, 7]
        }
        h.record(1000); // bucket [512, 1023]

        // Rank 50 of the 99 in [4, 7]: 4 + 3 * 50 / 99.
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.99), 7);
        assert_eq!(h.quantile(1.0), 1000, "clamped to observed max");
        let empty = Pow2Histogram::new();
        assert_eq!(empty.quantile(0.5), 0);

        // Evenly spread values inside one bucket come back to within a
        // rank's worth of the truth, not as the bucket's upper bound.
        let mut h = Pow2Histogram::new();
        for v in 1100..1900 {
            h.record(v); // all in [1024, 2047]
        }
        assert_eq!(h.quantile(0.5), 1499);
        assert_eq!(h.quantile(0.25), 1299);
        assert_eq!(h.quantile(0.0), 1100, "rank 1 is the observed min");
        assert_eq!(h.quantile(1.0), 1899);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Pow2Histogram::new();
        a.record(2);
        let mut b = Pow2Histogram::new();
        b.record(100);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 100);
        let merged_empty = {
            let mut x = Pow2Histogram::new();
            x.merge(&Pow2Histogram::new());
            x
        };
        assert_eq!(merged_empty.count(), 0);
        assert_eq!(merged_empty.min(), 0);
    }

    #[test]
    fn quantile_edge_cases_on_empty_and_single_bucket() {
        let empty = Pow2Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0, "empty histogram at q={q}");
        }
        // Out-of-range q is clamped, not a panic.
        assert_eq!(empty.quantile(-1.0), 0);
        assert_eq!(empty.quantile(2.0), 0);

        // Every observation one value: the clamped bucket has zero
        // width, so every quantile is that value.
        let mut single = Pow2Histogram::new();
        for _ in 0..10 {
            single.record(5); // bucket [4, 7]
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 5, "single-bucket at q={q}");
        }
        assert_eq!(single.quantile(-3.0), 5, "clamped q hits the same bucket");

        // A lone zero observation lives in the zero bucket.
        let mut zero = Pow2Histogram::new();
        zero.record(0);
        assert_eq!(zero.quantile(0.5), 0);
        assert_eq!(zero.quantile(1.0), 0);
    }

    #[test]
    fn merge_of_disjoint_bucket_ranges_keeps_both() {
        // `merge` scans only `other`'s touched prefix (`hi`); merging a
        // low-bucket histogram into a high-bucket one must not lose the
        // high buckets, and vice versa.
        let mut low = Pow2Histogram::new();
        low.record(1);
        low.record(3);
        let mut high = Pow2Histogram::new();
        high.record(1 << 40);
        high.record((1 << 40) + 5);

        let mut a = low.clone();
        a.merge(&high);
        let mut b = high.clone();
        b.merge(&low);
        for m in [&a, &b] {
            assert_eq!(m.count(), 4);
            assert_eq!(m.min(), 1);
            assert_eq!(m.max(), (1 << 40) + 5);
            let buckets: Vec<_> = m.nonzero_buckets().collect();
            assert_eq!(buckets.len(), 3, "both ranges survive: {buckets:?}");
            assert_eq!(buckets.iter().map(|&(_, _, c)| c).sum::<u64>(), 4);
        }
        assert_eq!(a.quantile(0.5), 3);
        assert_eq!(a.quantile(1.0), (1 << 40) + 5);
    }

    #[test]
    fn top_bucket_saturates_without_overflow() {
        // Values at and near u64::MAX land in the last bucket, whose
        // upper bound computation must not overflow.
        let mut h = Pow2Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 3);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 1, "all three in the top bucket");
        let (lo, hi, c) = buckets[0];
        assert_eq!(lo, 1u64 << 63);
        assert_eq!(hi, u64::MAX);
        assert_eq!(c, 3);
        // Quantiles stay inside the observed range and reach the
        // observed max, not the bucket bound.
        assert!(h.quantile(0.5) >= 1u64 << 63);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // Merging two saturated histograms keeps the top bucket intact.
        let mut other = Pow2Histogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.nonzero_buckets().next().unwrap().2, 4);
    }

    #[test]
    fn saturating_sum_does_not_wrap() {
        let mut h = Pow2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }
}
