//! Personalized PageRank via random walk (Fogaras et al.; PowerWalk).
//!
//! A biased/unbiased *static* walk with non-deterministic termination:
//! before each step, the walker flips a coin and stops with probability
//! `termination_prob` (the `Pe` component becoming 0, §2.2). With
//! `Pt = 1/80` the expected walk length matches DeepWalk's fixed 80, but
//! the geometric tail produces walks over 1000 steps long — the straggler
//! workload of §6.2 / Figure 9.
//!
//! The stationary visit frequencies of these walks estimate the
//! personalized PageRank vector of each walker's start vertex with
//! restart probability `Pt`; see the `ppr_index` example for a query
//! layer built on top.

use knightking_core::{VertexId, Walker, WalkerProgram};

/// The PPR random walk program.
///
/// # Examples
///
/// ```
/// use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
/// use knightking_graph::gen;
/// use knightking_walks::Ppr;
///
/// let g = gen::uniform_degree(64, 6, gen::GenOptions::seeded(1));
/// let r = RandomWalkEngine::new(&g, Ppr::new(0.125), WalkConfig::single_node(1))
///     .run(WalkerStarts::Count(2_000));
/// // Geometric termination: expected walk length is (1 - Pt)/Pt = 7.
/// let mean = r.metrics.steps as f64 / 2_000.0;
/// assert!((mean - 7.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ppr {
    /// Per-step termination probability (`Pt`).
    pub termination_prob: f64,
    /// Hard safety cap on walk length (0 = none). The paper runs without
    /// one; the cap exists for memory-bounded experiments.
    pub max_length: u32,
}

impl Ppr {
    /// A PPR walk with per-step termination probability `pt`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < pt <= 1`.
    pub fn new(pt: f64) -> Self {
        assert!(
            pt > 0.0 && pt <= 1.0,
            "termination probability must be in (0, 1]"
        );
        Ppr {
            termination_prob: pt,
            max_length: 0,
        }
    }

    /// The paper's main configuration: `Pt = 1/80` (§7.1).
    pub fn paper() -> Self {
        Ppr::new(crate::PAPER_PPR_TERMINATION)
    }

    /// The straggler-study configuration: `Pt = 0.149` (§7.5).
    pub fn straggler_study() -> Self {
        Ppr::new(crate::PAPER_PPR_TERMINATION_STRAGGLER)
    }
}

impl WalkerProgram for Ppr {
    type Data = ();
    type Query = ();
    type Answer = ();
    const DYNAMIC: bool = false;

    fn init_data(&self, _id: u64, _start: VertexId) {}

    fn should_terminate(&self, walker: &mut Walker<()>) -> bool {
        if self.max_length > 0 && walker.step >= self.max_length {
            return true;
        }
        walker.rng.chance(self.termination_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
    use knightking_graph::gen;

    #[test]
    fn expected_length_matches_geometric_mean() {
        let g = gen::uniform_degree(100, 6, gen::GenOptions::seeded(6));
        let r = RandomWalkEngine::new(&g, Ppr::new(0.125), WalkConfig::single_node(7))
            .run(WalkerStarts::Count(20_000));
        let total_steps: usize = r.paths.iter().map(|p| p.len() - 1).sum();
        let mean = total_steps as f64 / 20_000.0;
        // Geometric with success prob 1/8 checked before each step:
        // E[steps] = (1 - pt)/pt = 7.
        assert!((mean - 7.0).abs() < 0.2, "mean walk length {mean}");
    }

    #[test]
    fn lengths_are_heavy_tailed() {
        let g = gen::uniform_degree(50, 4, gen::GenOptions::seeded(8));
        let r = RandomWalkEngine::new(&g, Ppr::new(1.0 / 80.0), WalkConfig::single_node(9))
            .run(WalkerStarts::Count(5_000));
        let max = r.paths.iter().map(|p| p.len()).max().unwrap();
        // P(len > 4×mean) is substantial for a geometric; with 5000
        // walkers the max should far exceed the mean of ~80.
        assert!(max > 300, "max walk length {max}");
    }

    #[test]
    fn max_length_caps_walks() {
        let g = gen::uniform_degree(50, 4, gen::GenOptions::seeded(10));
        let mut ppr = Ppr::new(0.001);
        ppr.max_length = 16;
        let r = RandomWalkEngine::new(&g, ppr, WalkConfig::single_node(11))
            .run(WalkerStarts::Count(200));
        assert!(r.paths.iter().all(|p| p.len() <= 17));
    }

    #[test]
    fn pt_one_stops_immediately() {
        let g = gen::uniform_degree(10, 4, gen::GenOptions::seeded(12));
        let r = RandomWalkEngine::new(&g, Ppr::new(1.0), WalkConfig::single_node(13))
            .run(WalkerStarts::PerVertex);
        assert!(r.paths.iter().all(|p| p.len() == 1));
    }

    #[test]
    #[should_panic(expected = "termination probability")]
    fn zero_pt_rejected() {
        Ppr::new(0.0);
    }

    #[test]
    fn presets() {
        assert!((Ppr::paper().termination_prob - 0.0125).abs() < 1e-12);
        assert!((Ppr::straggler_study().termination_prob - 0.149).abs() < 1e-12);
    }
}
