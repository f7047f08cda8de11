//! Exact-sample statistics.
//!
//! Every timing in the benchmark is kept as a raw `u64` nanosecond
//! sample and summarised from the sorted samples: no histogram sits
//! between a measurement and its quantile. (`Pow2Histogram` rounds every
//! latency to a power of two, which is why every committed serve p50
//! used to read exactly 2047 µs.)

/// A sorted set of exact samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Takes ownership of raw samples and sorts them.
    pub fn new(mut raw: Vec<u64>) -> Self {
        raw.sort_unstable();
        Samples { sorted: raw }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.sorted.iter().copied()
    }

    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&v| v as f64).sum::<f64>() / self.sorted.len() as f64
    }

    /// The `q`-quantile by linear interpolation between the two nearest
    /// order statistics (the "inclusive" method; `q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] as f64 * (1.0 - frac) + self.sorted[hi] as f64 * frac
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples strictly beyond the `q`-quantile's position.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.sorted.len();
        if n == 0 {
            return 0;
        }
        n - 1 - (q * (n - 1) as f64).ceil() as usize
    }

    /// The highest percentile of the ladder p50 < p90 < p99 < p99.9 that
    /// still has at least ten samples beyond it. With fewer than ~20
    /// samples that is the median itself.
    pub fn tail(&self) -> (f64, f64) {
        let mut best = 0.5;
        for q in [0.9, 0.99, 0.999] {
            if self.beyond(q) >= 10 {
                best = q;
            }
        }
        (best, self.quantile(best))
    }

    pub fn summary(&self) -> Summary {
        Summary {
            n: self.len(),
            p25: self.quantile(0.25),
            p50: self.median(),
            p75: self.quantile(0.75),
        }
    }
}

/// What every printed row carries besides its value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Summary {
    /// A row backed by a single observation.
    pub fn single(v: f64) -> Self {
        Summary {
            n: 1,
            p25: v,
            p50: v,
            p75: v,
        }
    }

    /// The summary of the samples seen through a monotone `f` (which
    /// may be decreasing: the quartiles are put back in order).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.p25), f(self.p75));
        Summary {
            n: self.n,
            p25: a.min(b),
            p50: f(self.p50),
            p75: a.max(b),
        }
    }

    /// The same summary in another unit.
    pub fn scaled(self, k: f64) -> Self {
        self.map(|v| v * k)
    }
}

/// Median of a small `f64` series (used for per-run medians of derived
/// values such as set-up seconds).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method) — the rule the acceptance driver uses
/// for run-to-run spread.
pub fn py_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |i: usize| -> f64 {
        // Cut point i of 4 at position i*(n+1)/4 (1-based), clamped.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median, by [`py_quartiles`].
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = py_quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Pow2Histogram` failure: 2 047 µs and 1 100 µs share a bucket
    /// there and report the same median; exact samples must not.
    #[test]
    fn medians_of_2047us_and_1100us_differ() {
        let a = Samples::new(vec![2_047_000; 101]);
        let b = Samples::new(vec![1_100_000; 101]);
        assert_eq!(a.median(), 2_047_000.0);
        assert_eq!(b.median(), 1_100_000.0);
        assert_ne!(a.median(), b.median());
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Samples::new(vec![40, 10, 30, 20]);
        assert_eq!(s.median(), 25.0);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert_eq!(s.max(), 40);
        assert_eq!(s.mean(), 25.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: nothing above the median qualifies.
        assert_eq!(Samples::new((0..19).collect()).tail().0, 0.5);
        // 200 samples: p90 has 20 beyond, p99 only 1.
        assert_eq!(Samples::new((0..200).collect()).tail().0, 0.9);
        // 2 000 samples: p99 has 19 beyond, p99.9 only 1.
        assert_eq!(Samples::new((0..2_000).collect()).tail().0, 0.99);
        assert_eq!(Samples::new((0..20_000).collect()).tail().0, 0.999);
    }

    #[test]
    fn python_quartiles_match_reference() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = py_quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_medians() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
