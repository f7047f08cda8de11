#![warn(missing_docs)]

//! Sampling substrate for the KnightKing random walk engine.
//!
//! This crate implements the three sampling building blocks described in the
//! KnightKing paper (SOSP '19):
//!
//! * [`rng`] — deterministic, splittable pseudo-random number generation.
//!   Every walker owns its own stream derived from `(run_seed, walker_id)`,
//!   which makes whole-run results independent of thread scheduling and
//!   node counts.
//! * [`alias`] and [`its`] — the two classic static samplers (§3 of the
//!   paper): Walker's alias method with O(n) build / O(1) sample, and
//!   Inverse Transform Sampling with O(n) build / O(log n) sample.
//! * [`radix`] — the dynamic-graph sampler: BINGO-style radix (power-of-two
//!   slab) factorization over a canonical segment tree, O(log n) sample
//!   *and* O(log n) reweight, bitwise identical whether maintained
//!   incrementally or rebuilt from scratch.
//! * [`rejection`] — the rejection-sampling state machine at the heart of
//!   KnightKing (§4): envelope `Q(v)`, optional lower bound `L(v)`
//!   pre-acceptance, and outlier "appendix" folding.
//!
//! The [`stats`] module provides the chi-squared helpers used by this
//! repository's statistical tests, and [`prefetch`] the dependency-free
//! software-prefetch hint the staged step kernel issues between drawing a
//! walker's alias cell and resolving it.

pub mod alias;
pub mod its;
pub mod prefetch;
pub mod radix;
pub mod rejection;
pub mod rng;
pub mod stats;

pub use alias::{AliasTable, FlatAlias};
pub use its::CdfTable;
pub use radix::RadixTable;
pub use rejection::{Envelope, OutlierSlot, Trial};
pub use rng::{DeterministicRng, SplitMix64};

/// Errors produced while constructing sampling structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplingError {
    /// The weight list handed to a sampler builder was empty.
    EmptyWeights,
    /// A weight was negative, NaN, or infinite.
    InvalidWeight {
        /// Index of the offending weight.
        index: usize,
    },
    /// All weights were zero, leaving nothing to sample.
    ZeroTotalWeight,
}

impl std::fmt::Display for SamplingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplingError::EmptyWeights => write!(f, "cannot sample from an empty weight list"),
            SamplingError::InvalidWeight { index } => {
                write!(f, "weight at index {index} is negative, NaN, or infinite")
            }
            SamplingError::ZeroTotalWeight => {
                write!(f, "all weights are zero; nothing to sample")
            }
        }
    }
}

impl std::error::Error for SamplingError {}

/// Validates a weight slice for sampler construction.
///
/// Returns the total weight on success.
pub(crate) fn validate_weights(weights: &[f64]) -> Result<f64, SamplingError> {
    if weights.is_empty() {
        return Err(SamplingError::EmptyWeights);
    }
    let mut total = 0.0f64;
    for (index, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(SamplingError::InvalidWeight { index });
        }
        total += w;
    }
    if total <= 0.0 {
        return Err(SamplingError::ZeroTotalWeight);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(validate_weights(&[]), Err(SamplingError::EmptyWeights));
    }

    #[test]
    fn validate_rejects_negative() {
        assert_eq!(
            validate_weights(&[1.0, -0.5]),
            Err(SamplingError::InvalidWeight { index: 1 })
        );
    }

    #[test]
    fn validate_rejects_nan_and_inf() {
        assert_eq!(
            validate_weights(&[f64::NAN]),
            Err(SamplingError::InvalidWeight { index: 0 })
        );
        assert_eq!(
            validate_weights(&[f64::INFINITY, 1.0]),
            Err(SamplingError::InvalidWeight { index: 0 })
        );
    }

    #[test]
    fn validate_rejects_all_zero() {
        assert_eq!(
            validate_weights(&[0.0, 0.0]),
            Err(SamplingError::ZeroTotalWeight)
        );
    }

    #[test]
    fn validate_accepts_and_totals() {
        assert_eq!(validate_weights(&[1.0, 2.0, 3.0]), Ok(6.0));
    }

    #[test]
    fn error_display_is_readable() {
        let s = SamplingError::InvalidWeight { index: 7 }.to_string();
        assert!(s.contains("index 7"));
    }
}
