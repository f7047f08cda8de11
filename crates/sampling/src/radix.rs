//! Radix-factorized sampler with O(log n) point reweights.
//!
//! The alias method samples in O(1) but any weight change invalidates the
//! whole table: one reweight on a degree-1M hub costs an O(degree) rebuild.
//! BINGO-style radix factorization groups each weight under its
//! power-of-two ceiling ("slab"): sampling draws proportionally to the
//! slabs, then accepts the drawn outcome with probability
//! `weight / slab ∈ (1/2, 1]`, so a draw needs fewer than 2 trials in
//! expectation and remains *exact* — outcome `i` is returned with
//! probability `slab_i/Σslab · w_i/slab_i = w_i/Σslab`, identical for all
//! outcomes up to the common normalization.
//!
//! The slab masses live in a complete binary segment tree, so a reweight
//! is an O(log n) root-path refresh instead of an O(n) rebuild. Crucially
//! the tree is *canonical*: every internal node is exactly
//! `left + right` of its children, recomputed identically by a fresh
//! bottom-up build and by a point update. An incrementally maintained
//! table is therefore bitwise identical to one rebuilt from scratch over
//! the same weights — the property the dynamic-graph layer's byte-identity
//! invariant rests on. (A bucket directory with swap-remove deletion, the
//! textbook radix layout, would make member order history-dependent and
//! break exactly that invariant.)

use crate::{rng::DeterministicRng, validate_weights, SamplingError};

/// Largest weight a [`RadixTable`] accepts: its slab, `2^1023`, must stay
/// finite. Graph weights are `f32`-sourced (≤ 2^128) in practice.
const MAX_WEIGHT: f64 = 8.98846567431158e307; // 2^1023

/// Smallest power-of-two upper bound of `w`, or `0.0` for `w == 0`.
///
/// Exact bit manipulation — `log2().ceil()` rounds unreliably near exact
/// powers of two. Subnormal weights get the smallest *normal* bound
/// (`2^-1022`), which is still a valid envelope; only the ≤2-trial bound
/// degrades there, and graph weights never reach the subnormal range.
fn slab_of(w: f64) -> f64 {
    debug_assert!(w.is_finite() && (0.0..=MAX_WEIGHT).contains(&w));
    if w == 0.0 {
        return 0.0;
    }
    let bits = w.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    let mantissa = bits & ((1u64 << 52) - 1);
    if exp == 0 {
        return f64::MIN_POSITIVE;
    }
    if mantissa == 0 {
        w // already an exact power of two
    } else {
        f64::from_bits((exp + 1) << 52)
    }
}

/// A radix-factorized sampler over `n` outcomes supporting O(log n)
/// reweights.
///
/// # Examples
///
/// ```
/// use knightking_sampling::{RadixTable, DeterministicRng};
///
/// let mut table = RadixTable::new(&[1.0, 3.0]).unwrap();
/// table.reweight(0, 9.0); // O(log n), no rebuild
/// let mut rng = DeterministicRng::new(1);
/// let mut counts = [0u32; 2];
/// for _ in 0..10_000 {
///     counts[table.sample(&mut rng)] += 1;
/// }
/// // Outcome 0 now carries 3/4 of the mass.
/// assert!(counts[0] > counts[1] * 2);
/// ```
#[derive(Debug, Clone)]
pub struct RadixTable {
    /// Segment tree of slab masses: `slab_sum[1]` is the root, leaves at
    /// `[cap, cap + n)`, padding leaves zero. Drives the sampling descent.
    slab_sum: Vec<f64>,
    /// Same shape, `max` combiner over slabs: `slab_max[1]` bounds every
    /// outcome's weight from above (the mixed-mode `max_ps` substitute).
    slab_max: Vec<f64>,
    /// Same shape, sum over the *true* weights: `w_sum[1]` is the
    /// canonical total, and leaf `w_sum[cap + i]` the true weight used in
    /// the acceptance test.
    w_sum: Vec<f64>,
    /// Leaf base: `n.next_power_of_two()`.
    cap: usize,
    /// Number of real outcomes.
    n: usize,
}

/// Rebuilds every internal node bottom-up as `combine(left, right)`.
///
/// Point updates recompute root paths with the same formula, so the two
/// construction orders agree bitwise on every node.
fn build_parents(tree: &mut [f64], cap: usize, combine: fn(f64, f64) -> f64) {
    for i in (1..cap).rev() {
        tree[i] = combine(tree[2 * i], tree[2 * i + 1]);
    }
}

fn refresh_path(tree: &mut [f64], mut node: usize, combine: fn(f64, f64) -> f64) {
    node /= 2;
    while node >= 1 {
        tree[node] = combine(tree[2 * node], tree[2 * node + 1]);
        node /= 2;
    }
}

impl RadixTable {
    /// Builds a radix table from unnormalized, non-negative weights.
    ///
    /// Zero-weight outcomes are representable and will never be sampled.
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError`] if `weights` is empty, contains a
    /// negative/NaN/infinite value or one above 2^1023 (whose slab would
    /// overflow), or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, SamplingError> {
        validate_weights(weights)?;
        if let Some(index) = weights.iter().position(|&w| w > MAX_WEIGHT) {
            return Err(SamplingError::InvalidWeight { index });
        }
        let n = weights.len();
        let cap = n.next_power_of_two();
        let mut slab_sum = vec![0.0f64; 2 * cap];
        let mut slab_max = vec![0.0f64; 2 * cap];
        let mut w_sum = vec![0.0f64; 2 * cap];
        for (i, &w) in weights.iter().enumerate() {
            let slab = slab_of(w);
            slab_sum[cap + i] = slab;
            slab_max[cap + i] = slab;
            w_sum[cap + i] = w;
        }
        build_parents(&mut slab_sum, cap, |a, b| a + b);
        build_parents(&mut slab_max, cap, f64::max);
        build_parents(&mut w_sum, cap, |a, b| a + b);
        Ok(RadixTable {
            slab_sum,
            slab_max,
            w_sum,
            cap,
            n,
        })
    }

    /// Replaces the weight of outcome `idx` in O(log n).
    ///
    /// The result is bitwise identical to `RadixTable::new` over the
    /// updated weight list. Reweighting to zero is allowed (the outcome is
    /// never sampled again); if *every* weight reaches zero the table has
    /// no mass left and [`sample`](Self::sample) panics — callers gate on
    /// [`total_weight`](Self::total_weight) first.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `w` is negative, NaN, infinite,
    /// or above 2^1023.
    pub fn reweight(&mut self, idx: usize, w: f64) {
        assert!(idx < self.n, "reweight index {idx} out of range {}", self.n);
        assert!(
            w.is_finite() && (0.0..=MAX_WEIGHT).contains(&w),
            "invalid reweight value {w}"
        );
        let leaf = self.cap + idx;
        let slab = slab_of(w);
        self.slab_sum[leaf] = slab;
        self.slab_max[leaf] = slab;
        self.w_sum[leaf] = w;
        refresh_path(&mut self.slab_sum, leaf, |a, b| a + b);
        refresh_path(&mut self.slab_max, leaf, f64::max);
        refresh_path(&mut self.w_sum, leaf, |a, b| a + b);
    }

    /// Draws one outcome index: a slab-tree descent plus one rejection
    /// test per trial, fewer than 2 trials expected.
    ///
    /// # Panics
    ///
    /// Panics if the table's remaining mass is zero (every weight has been
    /// reweighted to zero); gate on [`total_weight`](Self::total_weight).
    #[inline]
    pub fn sample(&self, rng: &mut DeterministicRng) -> usize {
        let root = self.slab_sum[1];
        assert!(root > 0.0, "sampling from a zero-mass radix table");
        loop {
            let mut u = rng.next_f64() * root;
            let mut node = 1usize;
            while node < self.cap {
                let left = self.slab_sum[2 * node];
                if u < left {
                    node *= 2;
                } else {
                    u -= left;
                    node = 2 * node + 1;
                }
            }
            // `slab` is a power of two, so the multiplication is exact and
            // the test accepts with probability exactly `w / slab`. A
            // floating-point boundary descent can land on a zero-slab
            // (or padding) leaf; that trial simply rejects.
            let slab = self.slab_sum[node];
            if node - self.cap < self.n && rng.next_f64() * slab < self.w_sum[node] {
                return node - self.cap;
            }
        }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the table has no outcomes (never constructible).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Canonical sum of the true weights (the segment-tree root, identical
    /// for incrementally maintained and freshly built tables).
    pub fn total_weight(&self) -> f64 {
        self.w_sum[1]
    }

    /// Largest slab: a power-of-two upper bound on every outcome's weight,
    /// within 2× of the true maximum. Canonical under reweights, unlike a
    /// running max — the mixed-mode envelope's `max_ps` substitute.
    pub fn max_slab(&self) -> f64 {
        self.slab_max[1]
    }

    /// Approximate heap footprint in bytes, for memory accounting.
    ///
    /// Three `2·cap` trees of `f64` — roughly 4× an alias table's 12 bytes
    /// per outcome; the price of O(log n) maintenance.
    pub fn heap_bytes(&self) -> usize {
        3 * self.slab_sum.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let table = RadixTable::new(weights).unwrap();
        let mut rng = DeterministicRng::new(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    fn assert_bitwise_eq(a: &RadixTable, b: &RadixTable) {
        assert_eq!(a.cap, b.cap);
        assert_eq!(a.n, b.n);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.slab_sum), bits(&b.slab_sum), "slab trees differ");
        assert_eq!(bits(&a.slab_max), bits(&b.slab_max), "max trees differ");
        assert_eq!(bits(&a.w_sum), bits(&b.w_sum), "weight trees differ");
    }

    #[test]
    fn slab_is_the_pow2_ceiling() {
        assert_eq!(slab_of(0.0), 0.0);
        assert_eq!(slab_of(1.0), 1.0);
        assert_eq!(slab_of(0.25), 0.25);
        assert_eq!(slab_of(1.5), 2.0);
        assert_eq!(slab_of(3.0), 4.0);
        assert_eq!(slab_of(4.0), 4.0);
        assert_eq!(slab_of(4.000001), 8.0);
        let tiny = slab_of(1e-300);
        assert!((1e-300..2e-300).contains(&tiny) && tiny.to_bits().trailing_zeros() >= 52);
        assert_eq!(slab_of(f64::MIN_POSITIVE / 4.0), f64::MIN_POSITIVE);
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let freqs = empirical(&[1.0; 8], 80_000, 11);
        for &f in &freqs {
            assert!((f - 0.125).abs() < 0.01, "freq {f}");
        }
    }

    #[test]
    fn skewed_weights_match_distribution() {
        let weights = [1.0, 2.0, 4.0, 8.0, 16.0];
        let total: f64 = weights.iter().sum();
        let freqs = empirical(&weights, 200_000, 12);
        for (f, w) in freqs.iter().zip(weights.iter()) {
            let expect = w / total;
            assert!((f - expect).abs() < 0.01, "freq {f} expected {expect}");
        }
    }

    #[test]
    fn non_pow2_weights_match_distribution() {
        // Worst-case acceptance (just above a power of two) and a
        // non-power-of-two outcome count, so padding leaves exist.
        let weights = [1.01, 2.01, 0.7, 5.3, 4.1, 0.0, 2.2];
        let total: f64 = weights.iter().sum();
        let freqs = empirical(&weights, 300_000, 13);
        for (f, w) in freqs.iter().zip(weights.iter()) {
            let expect = w / total;
            assert!((f - expect).abs() < 0.01, "freq {f} expected {expect}");
        }
    }

    #[test]
    fn zero_weight_outcome_never_sampled() {
        let freqs = empirical(&[1.0, 0.0, 1.0], 50_000, 14);
        assert_eq!(freqs[1], 0.0);
    }

    #[test]
    fn single_outcome_always_sampled() {
        let freqs = empirical(&[3.5], 1000, 15);
        assert_eq!(freqs[0], 1.0);
    }

    #[test]
    fn extreme_skew_still_exact() {
        let weights = [1e9, 1.0];
        let table = RadixTable::new(&weights).unwrap();
        let mut rng = DeterministicRng::new(16);
        let mut rare = 0usize;
        for _ in 0..1_000_000 {
            if table.sample(&mut rng) == 1 {
                rare += 1;
            }
        }
        assert!(rare <= 2, "rare outcome sampled {rare} times");
    }

    #[test]
    fn reweight_is_bitwise_identical_to_rebuild() {
        let mut weights = vec![1.0, 2.5, 3.0, 0.75, 8.0, 1.25, 0.5];
        let mut table = RadixTable::new(&weights).unwrap();
        let edits = [(2usize, 9.5f64), (0, 0.25), (6, 4.0), (2, 1.0), (4, 0.0)];
        for &(idx, w) in &edits {
            weights[idx] = w;
            table.reweight(idx, w);
            let fresh = RadixTable::new(&weights).unwrap();
            assert_bitwise_eq(&table, &fresh);
            // Bitwise-equal tables necessarily consume the RNG identically.
            let mut ra = DeterministicRng::new(777);
            let mut rb = DeterministicRng::new(777);
            for _ in 0..200 {
                assert_eq!(table.sample(&mut ra), fresh.sample(&mut rb));
                assert_eq!(ra, rb, "draw-sequence RNG states diverged");
            }
        }
    }

    #[test]
    fn reweight_to_zero_drains_mass() {
        let mut table = RadixTable::new(&[1.0, 2.0]).unwrap();
        table.reweight(1, 0.0);
        assert_eq!(table.total_weight(), 1.0);
        let mut rng = DeterministicRng::new(17);
        for _ in 0..1000 {
            assert_eq!(table.sample(&mut rng), 0);
        }
        table.reweight(0, 0.0);
        assert_eq!(table.total_weight(), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero-mass radix table")]
    fn sampling_zero_mass_panics() {
        let mut table = RadixTable::new(&[1.0]).unwrap();
        table.reweight(0, 0.0);
        table.sample(&mut DeterministicRng::new(1));
    }

    #[test]
    fn max_slab_bounds_and_tracks_reweights() {
        let mut table = RadixTable::new(&[1.0, 3.0, 0.5]).unwrap();
        assert_eq!(table.max_slab(), 4.0);
        table.reweight(1, 0.5);
        assert_eq!(table.max_slab(), 1.0);
        table.reweight(2, 100.0);
        assert_eq!(table.max_slab(), 128.0);
    }

    #[test]
    fn build_errors_propagate() {
        assert!(RadixTable::new(&[]).is_err());
        assert!(RadixTable::new(&[0.0]).is_err());
        assert!(RadixTable::new(&[-1.0, 2.0]).is_err());
        assert!(matches!(
            RadixTable::new(&[1.0, f64::MAX]),
            Err(SamplingError::InvalidWeight { index: 1 })
        ));
    }

    #[test]
    fn totals_are_canonical() {
        let table = RadixTable::new(&[0.25, 0.5, 0.75]).unwrap();
        assert!((table.total_weight() - 1.5).abs() < 1e-12);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        assert!(table.heap_bytes() > 0);
    }

    #[test]
    fn expected_trials_stay_below_two() {
        // Worst-case acceptance ratio: every weight just above a power of
        // two. Count RNG draws per sample; each trial consumes 2 draws.
        let weights = vec![1.000001f64; 33];
        let table = RadixTable::new(&weights).unwrap();
        let mut rng = DeterministicRng::new(18);
        let before = rng;
        let draws = 20_000usize;
        for _ in 0..draws {
            table.sample(&mut rng);
        }
        let mut consumed = 0u64;
        let mut probe = before;
        while probe != rng {
            probe.next_u64();
            consumed += 1;
        }
        let trials_per_draw = consumed as f64 / 2.0 / draws as f64;
        assert!(trials_per_draw < 2.2, "expected trials {trials_per_draw}");
    }
}
