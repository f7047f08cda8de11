//! Inverse Transform Sampling over a discrete distribution.
//!
//! ITS (§3, Figure 1a of the paper) stores the prefix sums of the
//! unnormalized weights — the cumulative distribution function — and samples
//! by drawing `r ∈ [0, total)` and binary-searching for the first bucket
//! whose cumulative weight exceeds `r`. Build is O(n), sampling O(log n).
//!
//! KnightKing itself prefers the [alias method](crate::alias) for its O(1)
//! sample cost, but ITS remains important: the Gemini-style baseline's
//! two-phase sampler uses it, dynamic full-scan sampling builds a throwaway
//! CDF per step, and the benchmark suite compares the two head-to-head.

use crate::{rng::DeterministicRng, validate_weights, SamplingError};

/// A prefix-sum (CDF) table supporting O(log n) weighted sampling.
///
/// # Examples
///
/// ```
/// use knightking_sampling::{CdfTable, DeterministicRng};
///
/// let cdf = CdfTable::new(&[2.0, 0.0, 2.0]).unwrap();
/// let mut rng = DeterministicRng::new(5);
/// for _ in 0..100 {
///     assert_ne!(cdf.sample(&mut rng), 1, "zero-weight bucket");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CdfTable {
    /// `cumulative[i]` = sum of weights `0..=i`; strictly positive tail.
    cumulative: Vec<f64>,
}

impl CdfTable {
    /// Builds the CDF from unnormalized, non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError`] if `weights` is empty, contains a
    /// negative/NaN/infinite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, SamplingError> {
        validate_weights(weights)?;
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut run = 0.0f64;
        for &w in weights {
            run += w;
            cumulative.push(run);
        }
        Ok(CdfTable { cumulative })
    }

    /// Builds a CDF in a caller-provided buffer, avoiding allocation.
    ///
    /// The full-scan baseline rebuilds a CDF at every walker step; reusing
    /// one scratch buffer per thread keeps that honest-but-slow path from
    /// also being allocation-bound.
    pub fn fill_scratch(weights: &[f64], scratch: &mut Vec<f64>) -> Result<f64, SamplingError> {
        validate_weights(weights)?;
        scratch.clear();
        scratch.reserve(weights.len());
        let mut run = 0.0f64;
        for &w in weights {
            run += w;
            scratch.push(run);
        }
        Ok(run)
    }

    /// Samples a bucket index via binary search over a prepared CDF slice.
    ///
    /// Exposed so the scratch-buffer path can share the exact search logic.
    ///
    /// # Panics
    ///
    /// Panics if `cumulative` is empty.
    #[inline]
    pub fn sample_prepared(cumulative: &[f64], rng: &mut DeterministicRng) -> usize {
        let total = *cumulative
            .last()
            .expect("sample_prepared requires a non-empty CDF");
        let r = rng.next_f64_below(total);
        // First index with cumulative weight strictly greater than r.
        let idx = cumulative.partition_point(|&c| c <= r);
        // Guard against r landing exactly on `total` through rounding.
        idx.min(cumulative.len() - 1)
    }

    /// Draws one outcome index in O(log n).
    #[inline]
    pub fn sample(&self, rng: &mut DeterministicRng) -> usize {
        Self::sample_prepared(&self.cumulative, rng)
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` if the table has no outcomes (never constructible).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Sum of the unnormalized weights the table was built from.
    pub fn total_weight(&self) -> f64 {
        *self.cumulative.last().unwrap_or(&0.0)
    }

    /// Approximate heap footprint in bytes, for memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.cumulative.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let cdf = CdfTable::new(weights).unwrap();
        let mut rng = DeterministicRng::new(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[cdf.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn matches_distribution() {
        let weights = [5.0, 1.0, 3.0, 1.0];
        let total: f64 = weights.iter().sum();
        let freqs = empirical(&weights, 200_000, 31);
        for (f, w) in freqs.iter().zip(weights.iter()) {
            assert!((f - w / total).abs() < 0.01);
        }
    }

    #[test]
    fn zero_weight_head_and_tail_never_sampled() {
        let freqs = empirical(&[0.0, 1.0, 0.0], 20_000, 32);
        assert_eq!(freqs[0], 0.0);
        assert_eq!(freqs[2], 0.0);
        assert_eq!(freqs[1], 1.0);
    }

    #[test]
    fn single_bucket() {
        let freqs = empirical(&[0.1], 100, 33);
        assert_eq!(freqs[0], 1.0);
    }

    #[test]
    fn build_errors_propagate() {
        assert!(CdfTable::new(&[]).is_err());
        assert!(CdfTable::new(&[0.0, 0.0]).is_err());
        assert!(CdfTable::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn scratch_matches_owned() {
        let weights = [1.0, 2.0, 3.0];
        let mut scratch = Vec::new();
        let total = CdfTable::fill_scratch(&weights, &mut scratch).unwrap();
        assert!((total - 6.0).abs() < 1e-12);
        let owned = CdfTable::new(&weights).unwrap();
        assert_eq!(scratch, owned.cumulative);

        // The scratch path samples identically given identical RNG state.
        let mut r1 = DeterministicRng::new(9);
        let mut r2 = DeterministicRng::new(9);
        for _ in 0..1000 {
            assert_eq!(
                CdfTable::sample_prepared(&scratch, &mut r1),
                owned.sample(&mut r2)
            );
        }
    }

    #[test]
    fn agrees_with_alias_statistically() {
        use crate::alias::AliasTable;
        let weights = [1.0, 4.0, 2.0, 8.0, 1.0];
        let alias = AliasTable::new(&weights).unwrap();
        let cdf = CdfTable::new(&weights).unwrap();
        let draws = 200_000;
        let mut rng = DeterministicRng::new(34);
        let mut ca = vec![0f64; weights.len()];
        let mut cc = vec![0f64; weights.len()];
        for _ in 0..draws {
            ca[alias.sample(&mut rng)] += 1.0;
            cc[cdf.sample(&mut rng)] += 1.0;
        }
        for (a, c) in ca.iter().zip(cc.iter()) {
            assert!((a - c).abs() / (draws as f64) < 0.01);
        }
    }

    #[test]
    fn accessors() {
        let cdf = CdfTable::new(&[1.0, 1.0]).unwrap();
        assert_eq!(cdf.len(), 2);
        assert!(!cdf.is_empty());
        assert!((cdf.total_weight() - 2.0).abs() < 1e-12);
        assert_eq!(cdf.heap_bytes(), 16);
    }
}
