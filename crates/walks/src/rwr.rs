//! Random Walk with Restart (Tong et al., ICDM '06) — an extension beyond
//! the paper's four evaluated algorithms, exercising the engine's
//! teleport hook.
//!
//! At each step the walker restarts to its *origin* vertex with
//! probability `restart_prob` (the classic damping jump); otherwise it
//! walks a weighted edge as usual. Unlike PPR-by-termination (many short
//! walks), RWR keeps a single long walk per source whose visit
//! frequencies converge to the RWR proximity vector — the measure behind
//! fast personalized recommendation.
//!
//! The restart is a *teleport*, not an edge traversal: KnightKing's
//! rejection machinery only governs edge steps, and the engine's
//! [`teleport`](knightking_core::WalkerProgram::teleport) hook relocates
//! the walker directly.

use knightking_core::{GraphRef, VertexId, Walker, WalkerProgram};

/// The RWR program.
///
/// # Examples
///
/// ```
/// use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
/// use knightking_graph::gen;
/// use knightking_walks::Rwr;
///
/// let g = gen::uniform_degree(50, 6, gen::GenOptions::seeded(1));
/// let r = RandomWalkEngine::new(&g, Rwr::new(0.15, 200), WalkConfig::single_node(2))
///     .run(WalkerStarts::Explicit(vec![7; 4]));
/// // Every restart lands back on the origin.
/// for p in &r.paths {
///     assert_eq!(p[0], 7);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rwr {
    /// Per-step restart probability (`c`, typically 0.1–0.2).
    pub restart_prob: f64,
    /// Total steps per walker (restarts included).
    pub walk_length: u32,
}

impl Rwr {
    /// An RWR walk with restart probability `c` and `walk_length` steps.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= c < 1`.
    pub fn new(c: f64, walk_length: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&c),
            "restart probability must be in [0, 1)"
        );
        Rwr {
            restart_prob: c,
            walk_length,
        }
    }
}

impl WalkerProgram for Rwr {
    /// The origin vertex, fixed at initialization.
    type Data = VertexId;
    type Query = ();
    type Answer = ();
    const DYNAMIC: bool = false;

    fn init_data(&self, _id: u64, start: VertexId) -> VertexId {
        start
    }

    fn should_terminate(&self, walker: &mut Walker<VertexId>) -> bool {
        walker.step >= self.walk_length
    }

    fn teleport(&self, _graph: &GraphRef<'_>, walker: &mut Walker<VertexId>) -> Option<VertexId> {
        if walker.rng.chance(self.restart_prob) {
            Some(walker.data)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
    use knightking_graph::{gen, GraphBuilder};

    #[test]
    fn restarts_return_to_origin() {
        let g = gen::uniform_degree(100, 6, gen::GenOptions::seeded(160));
        let r = RandomWalkEngine::new(&g, Rwr::new(0.3, 100), WalkConfig::single_node(161))
            .run(WalkerStarts::Explicit(vec![42; 50]));
        // Roughly 30% of hops are teleports to 42; since hops to 42 along
        // edges are rare (degree 6 of 100 vertices), visits to 42 after
        // step 0 are dominated by restarts.
        let mut visits_origin = 0usize;
        let mut hops = 0usize;
        for p in &r.paths {
            assert_eq!(p.len(), 101);
            for &v in &p[1..] {
                hops += 1;
                if v == 42 {
                    visits_origin += 1;
                }
            }
        }
        let rate = visits_origin as f64 / hops as f64;
        assert!((0.25..0.40).contains(&rate), "origin visit rate {rate}");
    }

    #[test]
    fn zero_restart_prob_is_plain_walk() {
        let g = gen::uniform_degree(50, 4, gen::GenOptions::seeded(162));
        let r = RandomWalkEngine::new(&g, Rwr::new(0.0, 30), WalkConfig::single_node(163))
            .run(WalkerStarts::PerVertex);
        for p in &r.paths {
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]), "no teleports expected");
            }
        }
    }

    #[test]
    fn teleport_escapes_dead_ends() {
        // Directed: 0 → 1, and 1 has no out-edges. Without restart the
        // walk dies at 1; with restart it can continue from 0.
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 1);
        let g = b.build();
        let r = RandomWalkEngine::new(&g, Rwr::new(0.5, 50), WalkConfig::single_node(164))
            .run(WalkerStarts::Explicit(vec![0; 200]));
        // Some walks must exceed length 2 (teleport out of the dead end).
        assert!(r.paths.iter().any(|p| p.len() > 3));
        // And every multi-step path alternates within {0, 1}.
        for p in &r.paths {
            for &v in p {
                assert!(v < 2);
            }
        }
    }

    #[test]
    fn rwr_proximity_concentrates_near_origin() {
        // Two communities joined by one bridge; RWR from community A
        // should visit A far more than B.
        let mut b = GraphBuilder::undirected(20);
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                b.add_edge(i, j);
                b.add_edge(i + 10, j + 10);
            }
        }
        b.add_edge(9, 10); // bridge
        let g = b.build();
        let r = RandomWalkEngine::new(&g, Rwr::new(0.2, 400), WalkConfig::single_node(165))
            .run(WalkerStarts::Explicit(vec![0; 20]));
        let mut in_a = 0usize;
        let mut in_b = 0usize;
        for p in &r.paths {
            for &v in p {
                if v < 10 {
                    in_a += 1;
                } else {
                    in_b += 1;
                }
            }
        }
        assert!(in_a > in_b * 3, "A {in_a} vs B {in_b}");
    }

    #[test]
    fn multi_node_identical() {
        let g = gen::uniform_degree(200, 5, gen::GenOptions::seeded(166));
        let a = RandomWalkEngine::new(&g, Rwr::new(0.15, 40), WalkConfig::single_node(167))
            .run(WalkerStarts::Count(100));
        let b = RandomWalkEngine::new(&g, Rwr::new(0.15, 40), WalkConfig::with_nodes(4, 167))
            .run(WalkerStarts::Count(100));
        assert_eq!(a.paths, b.paths);
    }

    #[test]
    #[should_panic(expected = "restart probability")]
    fn invalid_restart_prob() {
        Rwr::new(1.0, 10);
    }
}
