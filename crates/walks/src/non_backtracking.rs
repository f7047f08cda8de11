//! Non-backtracking random walk — the simplest second-order walk.
//!
//! A walker never immediately revisits the vertex it just came from
//! (`Pd = 0` on the return edge, 1 elsewhere). Non-backtracking walks mix
//! faster than simple random walks and underpin spectral methods like
//! non-backtracking community detection; the paper's related-work survey
//! cites this family ("Remember where you came from", VLDB '16) among the
//! second-order proximity measures KnightKing generalizes.
//!
//! Unlike node2vec, no state query is needed: the return edge is
//! identified locally from `walker.prev`, so this is a second-order walk
//! that runs entirely on the first-order fast path — a useful
//! demonstration that order (history length) and query requirements are
//! independent axes.

use knightking_core::{EdgeView, GraphRef, OutlierSlot, VertexId, Walker, WalkerProgram};

/// The non-backtracking walk program.
///
/// # Examples
///
/// ```
/// use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
/// use knightking_graph::gen;
/// use knightking_walks::NonBacktracking;
///
/// let g = gen::uniform_degree(50, 6, gen::GenOptions::seeded(1));
/// let r = RandomWalkEngine::new(&g, NonBacktracking::new(30), WalkConfig::single_node(2))
///     .run(WalkerStarts::PerVertex);
/// for p in &r.paths {
///     for w in p.windows(3) {
///         assert_ne!(w[0], w[2]);
///     }
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonBacktracking {
    /// Fixed walk length.
    pub walk_length: u32,
}

impl NonBacktracking {
    /// A non-backtracking walk truncated at `walk_length` steps.
    pub fn new(walk_length: u32) -> Self {
        NonBacktracking { walk_length }
    }
}

impl WalkerProgram for NonBacktracking {
    type Data = ();
    type Query = ();
    type Answer = ();

    fn init_data(&self, _id: u64, _start: VertexId) {}

    fn should_terminate(&self, walker: &mut Walker<()>) -> bool {
        walker.step >= self.walk_length
    }

    fn dynamic_comp(
        &self,
        _graph: &GraphRef<'_>,
        walker: &Walker<()>,
        edge: EdgeView,
        _answer: Option<()>,
    ) -> f64 {
        match walker.prev {
            Some(prev) if edge.dst == prev => 0.0,
            _ => 1.0,
        }
    }

    fn upper_bound(&self, _graph: &GraphRef<'_>, _walker: &Walker<()>) -> f64 {
        1.0
    }

    // No useful lower bound exists (the return edge's bar is zero), and
    // the zero bar needs no outlier declaration (outliers handle bars
    // *above* the envelope, not below).
    fn declare_outliers(
        &self,
        _graph: &GraphRef<'_>,
        _walker: &Walker<()>,
        _out: &mut Vec<OutlierSlot>,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
    use knightking_graph::{gen, GraphBuilder};

    #[test]
    fn never_backtracks() {
        let g = gen::presets::livejournal_like(10, gen::GenOptions::seeded(220));
        let r = RandomWalkEngine::new(&g, NonBacktracking::new(40), WalkConfig::with_nodes(3, 221))
            .run(WalkerStarts::Count(500));
        for p in &r.paths {
            for w in p.windows(3) {
                assert_ne!(w[0], w[2], "backtracked: {:?}", w);
            }
        }
    }

    #[test]
    fn degree_one_dead_end_terminates() {
        // Path graph 0 - 1: after 0 → 1 the only edge returns, so the
        // walk must end (zero probability mass, found by the fallback).
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(0, 1);
        let g = b.build();
        let r = RandomWalkEngine::new(&g, NonBacktracking::new(10), WalkConfig::single_node(222))
            .run(WalkerStarts::Explicit(vec![0]));
        assert_eq!(r.paths[0], vec![0, 1]);
        assert!(r.metrics.fallback_scans > 0);
    }

    #[test]
    fn ring_walk_goes_one_direction_forever() {
        // On a cycle, non-backtracking forces a consistent direction.
        let n = 10u32;
        let mut b = GraphBuilder::undirected(n as usize);
        for v in 0..n {
            b.add_edge(v, (v + 1) % n);
        }
        let g = b.build();
        let r = RandomWalkEngine::new(&g, NonBacktracking::new(50), WalkConfig::single_node(223))
            .run(WalkerStarts::Explicit(vec![0; 20]));
        for p in &r.paths {
            assert_eq!(p.len(), 51);
            // Direction fixed after the first step.
            let dir = (p[1] + n - p[0]) % n;
            for w in p.windows(2) {
                assert_eq!((w[1] + n - w[0]) % n, dir);
            }
        }
    }

    #[test]
    fn first_step_is_uniform() {
        use knightking_sampling::stats::assert_distribution_matches;
        let mut b = GraphBuilder::undirected(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        let g = b.build();
        let r = RandomWalkEngine::new(&g, NonBacktracking::new(1), WalkConfig::single_node(224))
            .run(WalkerStarts::Explicit(vec![0; 30_000]));
        let mut counts = [0u64; 3];
        for p in &r.paths {
            counts[(p[1] - 1) as usize] += 1;
        }
        assert_distribution_matches(&counts, &[1.0 / 3.0; 3], "first hop");
    }
}
