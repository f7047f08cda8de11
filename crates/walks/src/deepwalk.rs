//! DeepWalk (Perozzi et al., KDD '14): truncated random walk for graph
//! embedding.
//!
//! A biased (on weighted graphs) or unbiased, *static* walk: the transition
//! probability of an edge is proportional to its weight, constant
//! throughout the run, and every walker runs for exactly `walk_length`
//! steps. The engine handles it on the static fast path — alias-table (or
//! uniform) candidate selection with no rejection sampling at all.

use knightking_core::{VertexId, Walker, WalkerProgram};

/// The DeepWalk program.
///
/// # Examples
///
/// ```
/// use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
/// use knightking_graph::gen;
/// use knightking_walks::DeepWalk;
///
/// let g = gen::uniform_degree(64, 6, gen::GenOptions::seeded(1));
/// let r = RandomWalkEngine::new(&g, DeepWalk::new(10), WalkConfig::single_node(1))
///     .run(WalkerStarts::PerVertex);
/// assert!(r.paths.iter().all(|p| p.len() == 11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepWalk {
    /// Fixed walk length (the paper uses 80).
    pub walk_length: u32,
}

impl DeepWalk {
    /// A DeepWalk truncated at `walk_length` steps.
    pub fn new(walk_length: u32) -> Self {
        DeepWalk { walk_length }
    }

    /// The paper's configuration: length-80 walks.
    pub fn paper() -> Self {
        DeepWalk::new(crate::PAPER_WALK_LENGTH)
    }
}

impl WalkerProgram for DeepWalk {
    type Data = ();
    type Query = ();
    type Answer = ();
    const DYNAMIC: bool = false;

    fn init_data(&self, _id: u64, _start: VertexId) {}

    fn should_terminate(&self, walker: &mut Walker<()>) -> bool {
        walker.step >= self.walk_length
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
    use knightking_graph::{gen, GraphBuilder};
    use knightking_sampling::stats::assert_distribution_matches;

    #[test]
    fn paths_have_fixed_length() {
        let g = gen::uniform_degree(100, 4, gen::GenOptions::seeded(2));
        let r = RandomWalkEngine::new(&g, DeepWalk::new(20), WalkConfig::single_node(3))
            .run(WalkerStarts::PerVertex);
        assert_eq!(r.paths.len(), 100);
        assert!(r.paths.iter().all(|p| p.len() == 21));
        assert_eq!(r.metrics.edges_evaluated, 0, "static walk computes no Pd");
    }

    #[test]
    fn weighted_graph_biases_transitions() {
        // Star: spoke weights 1 and 9; ~90% of first hops take the heavy
        // spoke.
        let mut b = GraphBuilder::undirected(3).with_weights();
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 9.0);
        let g = b.build();
        let r = RandomWalkEngine::new(&g, DeepWalk::new(1), WalkConfig::single_node(4))
            .run(WalkerStarts::Explicit(vec![0; 50_000]));
        let mut counts = [0u64; 2];
        for p in &r.paths {
            counts[(p[1] - 1) as usize] += 1;
        }
        assert_distribution_matches(&counts, &[0.1, 0.9], "deepwalk weighted hop");
    }

    #[test]
    fn paper_preset() {
        assert_eq!(DeepWalk::paper().walk_length, 80);
    }

    #[test]
    fn dead_ends_truncate_early() {
        // Directed path 0 → 1 → 2 with no out-edge at 2.
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let r = RandomWalkEngine::new(&g, DeepWalk::new(10), WalkConfig::single_node(5))
            .run(WalkerStarts::Explicit(vec![0]));
        assert_eq!(r.paths[0], vec![0, 1, 2]);
    }
}
