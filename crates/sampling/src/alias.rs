//! Walker's alias method for O(1) sampling from a discrete distribution.
//!
//! The alias table is KnightKing's static sampler of choice (§3 of the
//! paper): building takes O(n) time and space, and each sample costs O(1) —
//! one bounded integer draw plus one coin flip. The engine builds one table
//! per vertex whose static component `Ps` is non-uniform, and reuses it
//! across all sampling trials of all walkers.

use crate::{rng::DeterministicRng, validate_weights, SamplingError};

/// A pre-built alias table over `n` outcomes.
///
/// Each of the `n` buckets holds (a piece of) up to two outcomes: the bucket
/// index itself with probability `prob[i]`, and `alias[i]` with probability
/// `1 - prob[i]`. Sampling draws a uniform bucket, then flips the bucket's
/// coin — the classic Vose construction.
///
/// # Examples
///
/// ```
/// use knightking_sampling::{AliasTable, DeterministicRng};
///
/// let table = AliasTable::new(&[1.0, 3.0]).unwrap();
/// let mut rng = DeterministicRng::new(1);
/// let mut counts = [0u32; 2];
/// for _ in 0..10_000 {
///     counts[table.sample(&mut rng)] += 1;
/// }
/// // Outcome 1 carries 3/4 of the mass.
/// assert!(counts[1] > counts[0] * 2);
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Probability of staying on the bucket's own index, scaled to `[0, 1]`.
    prob: Vec<f64>,
    /// The other outcome sharing the bucket.
    alias: Vec<u32>,
    /// Sum of the (unnormalized) input weights.
    total_weight: f64,
}

/// Work lists of the Vose construction, kept by the caller so a run of
/// builds (one per vertex) allocates them once.
#[derive(Debug, Default)]
pub struct VoseScratch {
    small: Vec<u32>,
    large: Vec<u32>,
}

/// Builds the alias buckets of `weights` into `prob`/`alias` and returns
/// the total weight. The one Vose routine: [`AliasTable::new`] and
/// [`FlatAlias`] rows both go through it, so they agree bit for bit.
///
/// `prob` doubles as the scaled-weight work array: a bucket's value is
/// final once it leaves the small list, and leftovers are set to 1.
///
/// # Errors
///
/// As [`AliasTable::new`]; the output slices are then unspecified.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn build_into(
    weights: &[f64],
    prob: &mut [f64],
    alias: &mut [u32],
    scratch: &mut VoseScratch,
) -> Result<f64, SamplingError> {
    let n = weights.len();
    assert!(prob.len() == n && alias.len() == n, "alias row length");
    assert!(
        n <= u32::MAX as usize,
        "alias table limited to 2^32 outcomes"
    );
    let total = validate_weights(weights)?;

    // Vose's algorithm: scale weights so the average bucket is 1, then
    // pair each under-full bucket with an over-full donor.
    let scale = n as f64 / total;
    let VoseScratch { small, large } = scratch;
    small.clear();
    large.clear();
    for (i, &w) in weights.iter().enumerate() {
        let s = w * scale;
        prob[i] = s;
        alias[i] = i as u32;
        if s < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }

    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        alias[s as usize] = l;
        prob[l as usize] -= 1.0 - prob[s as usize];
        if prob[l as usize] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Leftovers in either list are numerically-full buckets.
    for &i in small.iter().chain(large.iter()) {
        prob[i as usize] = 1.0;
    }
    Ok(total)
}

/// The random half of an alias draw over `len` buckets: the bucket and
/// its coin, in the order every alias draw consumes them. Split from
/// [`resolve`] so a caller can fetch the bucket's cell in between.
#[inline]
pub fn draw_cell(len: usize, rng: &mut DeterministicRng) -> (usize, f64) {
    let bucket = rng.next_index(len);
    (bucket, rng.next_f64())
}

/// The memory half of an alias draw: reads bucket `bucket` of a row.
#[inline]
pub fn resolve(prob: &[f64], alias: &[u32], bucket: usize, coin: f64) -> usize {
    if coin < prob[bucket] {
        bucket
    } else {
        alias[bucket] as usize
    }
}

impl AliasTable {
    /// Builds an alias table from unnormalized, non-negative weights.
    ///
    /// Zero-weight outcomes are representable and will never be sampled.
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError`] if `weights` is empty, contains a
    /// negative/NaN/infinite value, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, SamplingError> {
        let mut prob = vec![0.0f64; weights.len()];
        let mut alias = vec![0u32; weights.len()];
        let total_weight = build_into(weights, &mut prob, &mut alias, &mut VoseScratch::default())?;
        Ok(AliasTable {
            prob,
            alias,
            total_weight,
        })
    }

    /// Draws one outcome index in O(1).
    #[inline]
    pub fn sample(&self, rng: &mut DeterministicRng) -> usize {
        let (bucket, coin) = draw_cell(self.prob.len(), rng);
        resolve(&self.prob, &self.alias, bucket, coin)
    }

    /// The `prob`/`alias` buckets, as [`FlatAlias::row`] gives a row's.
    pub fn cells(&self) -> (&[f64], &[u32]) {
        (&self.prob, &self.alias)
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Returns `true` if the table has no outcomes (never constructible).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Sum of the unnormalized weights the table was built from.
    ///
    /// The rejection sampler needs this to size the envelope rectangle
    /// (`Q(v) · ΣPs`) relative to outlier appendix areas.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Approximate heap footprint in bytes, for memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.prob.len() * (std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
    }
}

/// Alias rows of many distributions in two flat arrays.
///
/// Row `r` occupies cells `offsets[r]..offsets[r + 1]` of `prob` and
/// `alias` — the CSR layout, so when rows are a graph's adjacency lists
/// cell `p` belongs to edge `p` and a row's length is its vertex's degree.
/// A row that has no table (empty, zero mass, or an invalid weight) has
/// total `0.0` and must not be drawn from.
#[derive(Debug, Clone)]
pub struct FlatAlias {
    prob: Vec<f64>,
    alias: Vec<u32>,
    offsets: Vec<u64>,
    total: Vec<f64>,
}

/// A run of consecutive rows of a [`FlatAlias`] under construction.
/// Blocks of one store are disjoint, so threads fill them concurrently.
#[derive(Debug)]
pub struct RowBlockMut<'a> {
    /// Index of the block's first row in the store.
    pub first_row: usize,
    offsets: &'a [u64],
    prob: &'a mut [f64],
    alias: &'a mut [u32],
    total: &'a mut [f64],
}

impl RowBlockMut<'_> {
    /// Rows in this block.
    pub fn rows(&self) -> usize {
        self.total.len()
    }

    /// Builds row `first_row + k` from `weights` (one per cell).
    pub fn fill(&mut self, k: usize, weights: &[f64], scratch: &mut VoseScratch) {
        let lo = (self.offsets[k] - self.offsets[0]) as usize;
        let hi = (self.offsets[k + 1] - self.offsets[0]) as usize;
        let (prob, alias) = (&mut self.prob[lo..hi], &mut self.alias[lo..hi]);
        self.total[k] = build_into(weights, prob, alias, scratch).unwrap_or(0.0);
    }
}

impl FlatAlias {
    /// An unfilled store with one row per entry of `lens`, row `r` having
    /// `lens[r]` cells; every row reads as "no table" until filled.
    pub fn with_row_lens(lens: impl IntoIterator<Item = usize>) -> Self {
        let mut cells = 0u64;
        let mut offsets = vec![0u64];
        offsets.extend(lens.into_iter().map(|n| {
            cells += n as u64;
            cells
        }));
        FlatAlias {
            prob: vec![0.0; cells as usize],
            alias: vec![0; cells as usize],
            total: vec![0.0; offsets.len() - 1],
            offsets,
        }
    }

    /// Splits the store into fill blocks of `rows_per_block` rows.
    pub fn row_blocks_mut(&mut self, rows_per_block: usize) -> Vec<RowBlockMut<'_>> {
        let step = rows_per_block.max(1);
        let (mut prob, mut alias) = (&mut self.prob[..], &mut self.alias[..]);
        let mut blocks = Vec::with_capacity(self.total.len().div_ceil(step));
        for (b, total) in self.total.chunks_mut(step).enumerate() {
            let first_row = b * step;
            let offsets = &self.offsets[first_row..=first_row + total.len()];
            let cells = (offsets[total.len()] - offsets[0]) as usize;
            let (p, prob_rest) = prob.split_at_mut(cells);
            let (a, alias_rest) = alias.split_at_mut(cells);
            (prob, alias) = (prob_rest, alias_rest);
            blocks.push(RowBlockMut {
                first_row,
                offsets,
                prob: p,
                alias: a,
                total,
            });
        }
        blocks
    }

    /// Number of cells over all rows.
    pub fn cells(&self) -> usize {
        self.prob.len()
    }

    /// Total weight of row `r`; `0.0` when the row has no table.
    #[inline]
    pub fn total(&self, r: usize) -> f64 {
        self.total[r]
    }

    /// The `prob`/`alias` cells of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[f64], &[u32]) {
        let (lo, hi) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
        (&self.prob[lo..hi], &self.alias[lo..hi])
    }

    /// Draws from row `r`, exactly as an [`AliasTable`] of the same
    /// weights would.
    #[inline]
    pub fn sample(&self, r: usize, rng: &mut DeterministicRng) -> usize {
        let (prob, alias) = self.row(r);
        let (bucket, coin) = draw_cell(prob.len(), rng);
        resolve(prob, alias, bucket, coin)
    }

    /// Hints that row `r`'s total is about to be read.
    #[inline]
    pub fn prefetch_total(&self, r: usize) {
        crate::prefetch::read(self.total.as_ptr().wrapping_add(r));
    }

    /// Hints that cell `cell` (a row's first cell plus a drawn bucket) is
    /// about to be resolved.
    #[inline]
    pub fn prefetch_cell(&self, cell: usize) {
        crate::prefetch::read(self.prob.as_ptr().wrapping_add(cell));
        crate::prefetch::read(self.alias.as_ptr().wrapping_add(cell));
    }

    /// Finishes a draw begun with [`draw_cell`] on the row starting at
    /// cell `row_start`.
    #[inline]
    pub fn resolve_at(&self, row_start: usize, bucket: usize, coin: f64) -> usize {
        let (prob, alias) = (&self.prob[row_start..], &self.alias[row_start..]);
        resolve(prob, alias, bucket, coin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let table = AliasTable::new(weights).unwrap();
        let mut rng = DeterministicRng::new(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
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
    fn zero_weight_outcome_never_sampled() {
        let freqs = empirical(&[1.0, 0.0, 1.0], 50_000, 13);
        assert_eq!(freqs[1], 0.0);
    }

    #[test]
    fn single_outcome_always_sampled() {
        let freqs = empirical(&[3.5], 1000, 14);
        assert_eq!(freqs[0], 1.0);
    }

    #[test]
    fn extreme_skew_still_exact() {
        // One outcome with 10^9 times the weight of its sibling.
        let weights = [1e9, 1.0];
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = DeterministicRng::new(15);
        let mut rare = 0usize;
        let draws = 1_000_000;
        for _ in 0..draws {
            if table.sample(&mut rng) == 1 {
                rare += 1;
            }
        }
        // Expected ~1e-9 * 1e6 = 0.001 hits; must be essentially never.
        assert!(rare <= 2, "rare outcome sampled {rare} times");
    }

    #[test]
    fn build_errors_propagate() {
        assert!(AliasTable::new(&[]).is_err());
        assert!(AliasTable::new(&[0.0]).is_err());
        assert!(AliasTable::new(&[-1.0, 2.0]).is_err());
    }

    #[test]
    fn total_weight_preserved() {
        let table = AliasTable::new(&[0.25, 0.5, 0.75]).unwrap();
        assert!((table.total_weight() - 1.5).abs() < 1e-12);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        assert!(table.heap_bytes() > 0);
    }
}
