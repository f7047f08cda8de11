//! Property-based tests of the whole engine: structural invariants and
//! distributed equivalence over arbitrary graphs, program shapes, and
//! configurations.

use knightking_core::{
    CsrGraph, EdgeView, GraphRef, RandomWalkEngine, VertexId, WalkConfig, Walker, WalkerProgram,
    WalkerStarts,
};
use knightking_graph::GraphBuilder;
use proptest::prelude::*;

/// First-order program with an arbitrary Pd lookup table keyed by
/// `dst mod k` — enough freedom to hit pre-acceptance, rejection, and
/// full-scan paths.
#[derive(Clone)]
struct TableWalk {
    pd: Vec<f64>,
    len: u32,
}

impl WalkerProgram for TableWalk {
    type Data = ();
    type Query = ();
    type Answer = ();
    fn init_data(&self, _id: u64, _start: VertexId) {}
    fn should_terminate(&self, w: &mut Walker<()>) -> bool {
        w.step >= self.len
    }
    fn dynamic_comp(&self, _g: &GraphRef<'_>, _w: &Walker<()>, e: EdgeView, _a: Option<()>) -> f64 {
        self.pd[e.dst as usize % self.pd.len()]
    }
    fn upper_bound(&self, _g: &GraphRef<'_>, _w: &Walker<()>) -> f64 {
        self.pd.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-9)
    }
    fn lower_bound(&self, _g: &GraphRef<'_>, _w: &Walker<()>) -> f64 {
        self.pd.iter().fold(f64::INFINITY, |a, &b| a.min(b))
    }
}

/// Static program with an RNG-driven prelude (termination coin, then a
/// teleport coin): the shape the kernel stages.
#[derive(Clone, Copy)]
struct StaticWalk {
    len: u32,
}

impl WalkerProgram for StaticWalk {
    type Data = VertexId;
    type Query = ();
    type Answer = ();
    const DYNAMIC: bool = false;
    fn init_data(&self, _id: u64, start: VertexId) -> VertexId {
        start
    }
    fn should_terminate(&self, w: &mut Walker<VertexId>) -> bool {
        w.step >= self.len || w.rng.chance(0.05)
    }
    fn teleport(&self, _g: &GraphRef<'_>, w: &mut Walker<VertexId>) -> Option<VertexId> {
        w.rng.chance(0.15).then_some(w.data)
    }
}

/// Second-order program: Pd depends on adjacency with the previous
/// vertex, exercising the query machinery.
#[derive(Clone, Copy)]
struct AdjacencyWalk {
    len: u32,
    near: f64,
    far: f64,
}

impl WalkerProgram for AdjacencyWalk {
    type Data = ();
    type Query = VertexId;
    type Answer = bool;
    const SECOND_ORDER: bool = true;
    fn init_data(&self, _id: u64, _start: VertexId) {}
    fn should_terminate(&self, w: &mut Walker<()>) -> bool {
        w.step >= self.len
    }
    fn state_query(&self, w: &Walker<()>, e: EdgeView) -> Option<(VertexId, VertexId)> {
        w.prev.filter(|&t| t != e.dst).map(|t| (t, e.dst))
    }
    fn answer_query(&self, g: &GraphRef<'_>, t: VertexId, x: VertexId) -> bool {
        g.has_edge(t, x)
    }
    fn dynamic_comp(&self, _g: &GraphRef<'_>, w: &Walker<()>, e: EdgeView, a: Option<bool>) -> f64 {
        match w.prev {
            None => 1.0,
            Some(t) if e.dst == t => 1.0,
            _ => {
                if a.expect("queried") {
                    self.near
                } else {
                    self.far
                }
            }
        }
    }
    fn upper_bound(&self, _g: &GraphRef<'_>, _w: &Walker<()>) -> f64 {
        self.near.max(self.far).max(1.0)
    }
}

fn arbitrary_graph() -> impl Strategy<Value = CsrGraph> {
    (
        2usize..40,
        prop::collection::vec((0u32..40, 0u32..40), 1..120),
    )
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::undirected(n);
            for (s, d) in edges {
                b.add_edge(s % n as u32, d % n as u32);
            }
            b.build()
        })
}

fn check_paths(g: &CsrGraph, paths: &[Vec<VertexId>]) {
    for p in paths {
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "phantom edge ({}, {})", w[0], w[1]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary first-order programs on arbitrary graphs produce valid
    /// paths and complete, under arbitrary engine knob settings.
    #[test]
    fn first_order_structural_invariants(
        g in arbitrary_graph(),
        pd in prop::collection::vec(0.0f64..3.0, 1..6),
        len in 1u32..12,
        nodes in 1usize..5,
        lower in any::<bool>(),
        trials in 1u32..70,
        seed in 0u64..500,
    ) {
        let walk = TableWalk { pd, len };
        let mut cfg = WalkConfig::with_nodes(nodes, seed);
        cfg.use_lower_bound = lower;
        cfg.max_local_trials = trials;
        let n_walkers = 30u64;
        let r = RandomWalkEngine::new(&g, walk, cfg).run(WalkerStarts::Count(n_walkers));
        prop_assert_eq!(r.metrics.finished_walkers, n_walkers);
        prop_assert_eq!(r.paths.len() as u64, n_walkers);
        check_paths(&g, &r.paths);
        for p in &r.paths {
            prop_assert!(p.len() as u32 <= len + 1);
        }
        // Activity series is monotone for fixed-length first-order walks.
        prop_assert!(r.active_per_iteration.windows(2).all(|w| w[0] >= w[1]));
    }

    /// The same, for second-order programs with the query round-trips.
    #[test]
    fn second_order_structural_invariants(
        g in arbitrary_graph(),
        near in 0.1f64..3.0,
        far in 0.0f64..3.0,
        len in 1u32..10,
        nodes in 1usize..5,
        seed in 0u64..500,
    ) {
        let walk = AdjacencyWalk { len, near, far };
        let r = RandomWalkEngine::new(&g, walk, WalkConfig::with_nodes(nodes, seed))
            .run(WalkerStarts::Count(25));
        prop_assert_eq!(r.metrics.finished_walkers, 25);
        check_paths(&g, &r.paths);
    }

    /// Node count never changes trajectories (first- and second-order).
    #[test]
    fn node_count_equivalence(
        g in arbitrary_graph(),
        len in 1u32..10,
        nodes in 2usize..6,
        seed in 0u64..500,
    ) {
        let walk = AdjacencyWalk { len, near: 2.0, far: 0.5 };
        let single = RandomWalkEngine::new(&g, walk, WalkConfig::single_node(seed))
            .run(WalkerStarts::Count(20));
        let multi = RandomWalkEngine::new(&g, walk, WalkConfig::with_nodes(nodes, seed))
            .run(WalkerStarts::Count(20));
        prop_assert_eq!(single.paths, multi.paths);
    }

    /// Tiny trial budgets (forcing constant full-scan fallbacks) never
    /// break completion or path validity — the fallback is exact and
    /// always terminates.
    #[test]
    fn fallback_pressure_is_safe(
        g in arbitrary_graph(),
        seed in 0u64..500,
    ) {
        // Pd mostly zero: most darts miss, trials exhaust immediately.
        let walk = TableWalk { pd: vec![0.0, 0.0, 0.0, 0.05], len: 8 };
        let mut cfg = WalkConfig::single_node(seed);
        cfg.max_local_trials = 1;
        let r = RandomWalkEngine::new(&g, walk, cfg).run(WalkerStarts::Count(20));
        prop_assert_eq!(r.metrics.finished_walkers, 20);
        check_paths(&g, &r.paths);
    }

    /// The staged step kernel is byte-identical to its lookahead-0
    /// schedule on arbitrary graphs — weighted (alias draws, some rows
    /// without mass) or not (uniform draws) — for static, rejection-sampled
    /// and second-order programs, at any chunk size: paths, metrics and
    /// the per-iteration active series.
    #[test]
    fn staged_kernel_matches_lookahead0(
        g in arbitrary_graph(),
        weights in prop::collection::vec(0u8..4, 1..9),
        pd in prop::collection::vec(0.0f64..3.0, 1..6),
        len in 1u32..12,
        chunk in 1usize..160,
        nodes in 1usize..3,
        shape in 0usize..3,
        seed in 0u64..500,
    ) {
        // Reweight the arbitrary graph; a one-element weight list leaves
        // it unweighted. Weight 0 makes zero-mass rows likely.
        let g = if weights.len() == 1 {
            g
        } else {
            let mut b = GraphBuilder::directed(g.vertex_count()).with_weights();
            let mut k = 0usize;
            for v in 0..g.vertex_count() as VertexId {
                for &d in g.neighbors(v) {
                    b.add_weighted_edge(v, d, weights[k % weights.len()] as f32);
                    k += 1;
                }
            }
            b.build()
        };
        let mut cfg = WalkConfig::with_nodes(nodes, seed);
        cfg.chunk_size = chunk;
        let starts = WalkerStarts::Count(25);
        let (a, b) = match shape {
            0 => {
                let walk = StaticWalk { len };
                (
                    RandomWalkEngine::new(&g, walk, cfg.clone()).lookahead0().run(starts.clone()),
                    RandomWalkEngine::new(&g, walk, cfg).run(starts),
                )
            }
            1 => {
                let walk = TableWalk { pd, len };
                (
                    RandomWalkEngine::new(&g, walk.clone(), cfg.clone()).lookahead0().run(starts.clone()),
                    RandomWalkEngine::new(&g, walk, cfg).run(starts),
                )
            }
            _ => {
                let walk = AdjacencyWalk { len, near: 2.0, far: 0.5 };
                (
                    RandomWalkEngine::new(&g, walk, cfg.clone()).lookahead0().run(starts.clone()),
                    RandomWalkEngine::new(&g, walk, cfg).run(starts),
                )
            }
        };
        prop_assert_eq!(a.paths, b.paths);
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.active_per_iteration, b.active_per_iteration);
    }
}
