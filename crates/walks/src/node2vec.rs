//! node2vec (Grover & Leskovec, KDD '16): second-order biased random walk.
//!
//! The flagship workload of the paper. A walker remembering its previous
//! stop `t` samples its next edge `(v, x)` with dynamic component (Eq. 2):
//!
//! ```text
//! Pd = 1/p  if d_tx = 0   (x = t: the return edge)
//!      1    if d_tx = 1   (x adjacent to t)
//!      1/q  if d_tx = 2   (otherwise)
//! ```
//!
//! Checking `d_tx = 1` requires consulting `t`'s adjacency — a
//! walker-to-vertex state query answered by the node owning `t` with an
//! O(log d) membership test (§5.2's `postNeighborQuery`). The first step
//! (`w.step == 0`) has no previous vertex and samples purely statically,
//! exactly as the paper's Figure 4 sample code does.
//!
//! The §4.2 optimizations are expressed through the standard program API:
//!
//! * **lower bound** `min(1/p, 1, 1/q)` pre-accepts low darts without any
//!   query round-trip;
//! * when `1/p > max(1, 1/q)` (e.g. the paper's worst case `p = 0.5,
//!   q = 2`), the **return edge is declared an outlier**, letting the
//!   envelope stay at `max(1, 1/q)` instead of `1/p`.

use knightking_core::{CsrGraph, EdgeView, GraphRef, OutlierSlot, VertexId, Walker, WalkerProgram};

/// The node2vec walk program.
///
/// # Examples
///
/// ```
/// use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
/// use knightking_graph::gen;
/// use knightking_walks::Node2Vec;
///
/// let g = gen::uniform_degree(64, 6, gen::GenOptions::seeded(1));
/// let n2v = Node2Vec::new(2.0, 0.5, 20);
/// let r = RandomWalkEngine::new(&g, n2v, WalkConfig::single_node(1))
///     .run(WalkerStarts::PerVertex);
/// assert!(r.paths.iter().all(|p| p.len() == 21));
/// assert!(r.metrics.queries > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node2Vec {
    /// Return parameter `p`: higher values discourage immediately
    /// revisiting the previous vertex.
    pub p: f64,
    /// In-out parameter `q`: higher values keep walks local (BFS-like),
    /// lower values push them outward (DFS-like).
    pub q: f64,
    /// Fixed walk length.
    pub walk_length: u32,
}

impl Node2Vec {
    /// A node2vec walk with the given hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `p` and `q` are positive and finite.
    pub fn new(p: f64, q: f64, walk_length: u32) -> Self {
        assert!(p.is_finite() && p > 0.0, "p must be positive");
        assert!(q.is_finite() && q > 0.0, "q must be positive");
        Node2Vec { p, q, walk_length }
    }

    /// The paper's default evaluation setting: `p = 2`, `q = 0.5`,
    /// length 80.
    pub fn paper() -> Self {
        Node2Vec::new(2.0, 0.5, crate::PAPER_WALK_LENGTH)
    }

    /// The paper's most skewed setting (`p = 0.5`, `q = 2`), where the
    /// return edge's `Pd = 2` towers over everything else — the stress
    /// test for outlier folding (Table 5b).
    pub fn skewed() -> Self {
        Node2Vec::new(0.5, 2.0, crate::PAPER_WALK_LENGTH)
    }

    /// `max(1/p, 1, 1/q)` — the first-step `Pd` and the naive envelope.
    #[inline]
    fn hi(&self) -> f64 {
        (1.0 / self.p).max(1.0).max(1.0 / self.q)
    }

    /// `max(1, 1/q)` — the envelope over non-return edges.
    #[inline]
    fn hi_non_return(&self) -> f64 {
        1.0f64.max(1.0 / self.q)
    }

    /// Whether the return edge's `Pd` exceeds every other possible value,
    /// making it worth declaring as an outlier.
    #[inline]
    pub fn return_edge_is_outlier(&self) -> bool {
        1.0 / self.p > self.hi_non_return()
    }
}

impl WalkerProgram for Node2Vec {
    type Data = ();
    /// The candidate destination `x`, routed to the owner of `t`.
    type Query = VertexId;
    /// Whether `x` is adjacent to `t`.
    type Answer = bool;
    const SECOND_ORDER: bool = true;

    fn init_data(&self, _id: u64, _start: VertexId) {}

    fn should_terminate(&self, walker: &mut Walker<()>) -> bool {
        walker.step >= self.walk_length
    }

    fn state_query(
        &self,
        walker: &Walker<()>,
        candidate: EdgeView,
    ) -> Option<(VertexId, VertexId)> {
        match walker.prev {
            // First step: pure static sampling, no query (Figure 4).
            None => None,
            // Return edge: Pd = 1/p is known locally.
            Some(prev) if candidate.dst == prev => None,
            Some(prev) => Some((prev, candidate.dst)),
        }
    }

    fn answer_query(&self, graph: &GraphRef<'_>, target: VertexId, candidate: VertexId) -> bool {
        graph.has_edge(target, candidate)
    }

    fn dynamic_comp(
        &self,
        _graph: &GraphRef<'_>,
        walker: &Walker<()>,
        edge: EdgeView,
        answer: Option<bool>,
    ) -> f64 {
        match walker.prev {
            None => self.hi(),
            Some(prev) if edge.dst == prev => 1.0 / self.p,
            Some(_) => {
                if answer.expect("non-return node2vec candidates carry a neighbor answer") {
                    1.0
                } else {
                    1.0 / self.q
                }
            }
        }
    }

    fn upper_bound(&self, _graph: &GraphRef<'_>, walker: &Walker<()>) -> f64 {
        if walker.prev.is_none() {
            self.hi()
        } else if self.return_edge_is_outlier() {
            // The return edge is declared an outlier, so the envelope only
            // needs to cover {1, 1/q}. The engine raises it back when the
            // outlier ablation is off.
            self.hi_non_return()
        } else {
            self.hi()
        }
    }

    fn lower_bound(&self, _graph: &GraphRef<'_>, _walker: &Walker<()>) -> f64 {
        (1.0 / self.p).min(1.0).min(1.0 / self.q)
    }

    fn declare_outliers(
        &self,
        graph: &GraphRef<'_>,
        walker: &Walker<()>,
        out: &mut Vec<OutlierSlot>,
    ) {
        let Some(prev) = walker.prev else { return };
        if !self.return_edge_is_outlier() {
            return;
        }
        // Width bound: total static weight of the return edge(s) —
        // exact, via the sorted-adjacency range lookup.
        let width: f64 = graph
            .edge_range(walker.current, prev)
            .map(|i| graph.edge(walker.current, i).weight as f64)
            .sum();
        if width > 0.0 {
            out.push(OutlierSlot {
                target: prev,
                width_bound: width,
                height_bound: 1.0 / self.p,
            });
        }
    }
}

/// node2vec with Bloom-filter-accelerated neighbor queries.
///
/// Functionally identical to [`Node2Vec`]; the node owning `t` answers
/// each `d_tx` membership query through a
/// [`NeighborIndex`](knightking_graph::NeighborIndex) instead of a bare
/// binary search, short-circuiting the (common) negative case in O(1) at
/// hub vertices — the optimization the original C++ KnightKing applies.
#[derive(Debug, Clone)]
pub struct IndexedNode2Vec {
    /// The underlying algorithm.
    pub inner: Node2Vec,
    /// Shared neighbor index (each simulated node queries only vertices
    /// it owns, so sharing one index is equivalent to per-node indexes).
    pub index: std::sync::Arc<knightking_graph::NeighborIndex>,
}

impl IndexedNode2Vec {
    /// Wraps `inner`, building an index over vertices of degree ≥
    /// `min_degree`.
    pub fn new(inner: Node2Vec, graph: &CsrGraph, min_degree: usize) -> Self {
        IndexedNode2Vec {
            inner,
            index: std::sync::Arc::new(knightking_graph::NeighborIndex::build(graph, min_degree)),
        }
    }
}

impl WalkerProgram for IndexedNode2Vec {
    type Data = ();
    type Query = VertexId;
    type Answer = bool;
    const SECOND_ORDER: bool = true;

    fn init_data(&self, id: u64, start: VertexId) {
        self.inner.init_data(id, start)
    }
    fn should_terminate(&self, walker: &mut Walker<()>) -> bool {
        self.inner.should_terminate(walker)
    }
    fn state_query(
        &self,
        walker: &Walker<()>,
        candidate: EdgeView,
    ) -> Option<(VertexId, VertexId)> {
        self.inner.state_query(walker, candidate)
    }
    fn answer_query(&self, graph: &GraphRef<'_>, target: VertexId, candidate: VertexId) -> bool {
        match graph.as_csr() {
            Some(csr) => self.index.has_edge(csr, target, candidate),
            // The index was built over a static snapshot; a dynamic graph
            // mutates underneath it, so answer from the graph exactly.
            None => graph.has_edge(target, candidate),
        }
    }
    fn dynamic_comp(
        &self,
        graph: &GraphRef<'_>,
        walker: &Walker<()>,
        edge: EdgeView,
        answer: Option<bool>,
    ) -> f64 {
        self.inner.dynamic_comp(graph, walker, edge, answer)
    }
    fn upper_bound(&self, graph: &GraphRef<'_>, walker: &Walker<()>) -> f64 {
        self.inner.upper_bound(graph, walker)
    }
    fn lower_bound(&self, graph: &GraphRef<'_>, walker: &Walker<()>) -> f64 {
        self.inner.lower_bound(graph, walker)
    }
    fn declare_outliers(
        &self,
        graph: &GraphRef<'_>,
        walker: &Walker<()>,
        out: &mut Vec<OutlierSlot>,
    ) {
        self.inner.declare_outliers(graph, walker, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
    use knightking_graph::{gen, GraphBuilder};
    use knightking_sampling::stats::assert_distribution_matches;

    /// Brute-force node2vec next-hop distribution for a walker at `v`
    /// having come from `t`.
    fn brute_force(g: &CsrGraph, n2v: &Node2Vec, t: VertexId, v: VertexId) -> Vec<f64> {
        let probs: Vec<f64> = g
            .edges(v)
            .map(|e| {
                let pd = if e.dst == t {
                    1.0 / n2v.p
                } else if g.has_edge(t, e.dst) {
                    1.0
                } else {
                    1.0 / n2v.q
                };
                e.weight as f64 * pd
            })
            .collect();
        let total: f64 = probs.iter().sum();
        probs.into_iter().map(|p| p / total).collect()
    }

    /// Runs many 2-step walks from `start` and checks the second hop
    /// against the exact distribution, conditioned on the first hop.
    fn check_exactness(g: &CsrGraph, n2v: Node2Vec, start: VertexId, seed: u64) {
        let walkers = 120_000usize;
        let mut prog = n2v;
        prog.walk_length = 2;
        let r = RandomWalkEngine::new(g, prog, WalkConfig::single_node(seed))
            .run(WalkerStarts::Explicit(vec![start; walkers]));

        // Group second hops by first hop.
        use std::collections::HashMap;
        let mut by_first: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for p in &r.paths {
            if p.len() == 3 {
                by_first.entry(p[1]).or_default().push(p[2]);
            }
        }
        let mut checked = 0;
        for (&v, seconds) in &by_first {
            if seconds.len() < 5_000 {
                continue; // not enough samples for a tight test
            }
            let expected = brute_force(g, &n2v, start, v);
            let mut counts = vec![0u64; g.degree(v)];
            for &x in seconds {
                // Attribute the hop to the first edge with this dst; with
                // parallel edges, merge their expected mass instead.
                let idx = g.edge_range(v, x).start;
                counts[idx] += 1;
            }
            // Merge expected mass of parallel edges into the first index.
            let mut merged = vec![0.0f64; g.degree(v)];
            for (i, e) in g.edges(v).enumerate() {
                merged[g.edge_range(v, e.dst).start] += expected[i];
            }
            assert_distribution_matches(
                &counts,
                &merged,
                &format!("node2vec hop from {v} (prev {start})"),
            );
            checked += 1;
        }
        assert!(checked > 0, "no first-hop bucket had enough samples");
    }

    #[test]
    fn exact_distribution_default_params() {
        let g = gen::uniform_degree(30, 5, gen::GenOptions::seeded(30));
        check_exactness(&g, Node2Vec::new(2.0, 0.5, 2), 0, 31);
    }

    #[test]
    fn exact_distribution_skewed_params_with_outlier() {
        let g = gen::uniform_degree(30, 5, gen::GenOptions::seeded(32));
        let n2v = Node2Vec::new(0.5, 2.0, 2);
        assert!(n2v.return_edge_is_outlier());
        check_exactness(&g, n2v, 0, 33);
    }

    #[test]
    fn exact_distribution_weighted_graph() {
        let g = gen::uniform_degree(30, 5, gen::GenOptions::paper_weighted(34));
        check_exactness(&g, Node2Vec::new(2.0, 0.5, 2), 0, 35);
    }

    #[test]
    fn exact_distribution_neutral_params() {
        let g = gen::uniform_degree(30, 5, gen::GenOptions::seeded(36));
        check_exactness(&g, Node2Vec::new(1.0, 1.0, 2), 0, 37);
    }

    #[test]
    fn neutral_params_pre_accept_everything() {
        // p = q = 1 ⇒ Pd ≡ 1 ⇒ lower bound 1 ⇒ every dart pre-accepts:
        // zero Pd evaluations and zero queries after the first step.
        let g = gen::uniform_degree(100, 8, gen::GenOptions::seeded(38));
        let r = RandomWalkEngine::new(&g, Node2Vec::new(1.0, 1.0, 10), WalkConfig::single_node(39))
            .run(WalkerStarts::PerVertex);
        assert_eq!(r.metrics.edges_evaluated, 0, "Table 5a: edges/step = 0");
        assert_eq!(r.metrics.queries, 0);
        assert!(r.paths.iter().all(|p| p.len() == 11));
    }

    #[test]
    fn outlier_params_exercise_appendix() {
        let g = gen::uniform_degree(100, 8, gen::GenOptions::seeded(40));
        let r = RandomWalkEngine::new(&g, Node2Vec::skewed(), WalkConfig::single_node(41))
            .run(WalkerStarts::Count(200));
        assert!(r.metrics.appendix_hits > 0);
    }

    #[test]
    fn outlier_folding_reduces_trials() {
        let g = gen::uniform_degree(200, 16, gen::GenOptions::seeded(42));
        let n2v = Node2Vec::new(0.5, 2.0, 20);
        let folded = RandomWalkEngine::new(&g, n2v, WalkConfig::single_node(43))
            .run(WalkerStarts::Count(500));
        let mut naive_cfg = WalkConfig::single_node(43);
        naive_cfg.use_outliers = false;
        let naive = RandomWalkEngine::new(&g, n2v, naive_cfg).run(WalkerStarts::Count(500));
        assert!(
            folded.metrics.trials_per_step() < naive.metrics.trials_per_step() * 0.8,
            "folded {} vs naive {}",
            folded.metrics.trials_per_step(),
            naive.metrics.trials_per_step()
        );
    }

    #[test]
    fn lower_bound_reduces_queries() {
        let g = gen::uniform_degree(200, 16, gen::GenOptions::seeded(44));
        let n2v = Node2Vec::paper(); // lower bound = 0.5
        let with = RandomWalkEngine::new(&g, n2v, WalkConfig::single_node(45))
            .run(WalkerStarts::Count(500));
        let mut cfg = WalkConfig::single_node(45);
        cfg.use_lower_bound = false;
        let without = RandomWalkEngine::new(&g, n2v, cfg).run(WalkerStarts::Count(500));
        assert!(with.metrics.pre_accepts > 0);
        assert!(
            with.metrics.queries < without.metrics.queries,
            "lower bound must prune query traffic"
        );
        assert!(with.metrics.edges_evaluated < without.metrics.edges_evaluated);
    }

    #[test]
    fn high_p_discourages_returning() {
        // Triangle: every vertex adjacent to every other, so after one
        // step Pd(return) = 1/p, others 1. With p = 100 returns are rare.
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        let g = b.build();
        let r = RandomWalkEngine::new(
            &g,
            Node2Vec::new(100.0, 1.0, 10),
            WalkConfig::single_node(46),
        )
        .run(WalkerStarts::Count(2000));
        let mut returns = 0usize;
        let mut hops = 0usize;
        for p in &r.paths {
            for w in p.windows(3) {
                hops += 1;
                if w[0] == w[2] {
                    returns += 1;
                }
            }
        }
        let rate = returns as f64 / hops as f64;
        // Expected return rate = (1/100)/(1/100 + 1) ≈ 0.0099.
        assert!(rate < 0.03, "return rate {rate}");
    }

    #[test]
    fn multi_node_matches_single_node() {
        let g = gen::presets::livejournal_like(8, gen::GenOptions::seeded(47));
        let reference = RandomWalkEngine::new(&g, Node2Vec::paper(), WalkConfig::single_node(48))
            .run(WalkerStarts::Count(150));
        let four = RandomWalkEngine::new(&g, Node2Vec::paper(), WalkConfig::with_nodes(4, 48))
            .run(WalkerStarts::Count(150));
        assert_eq!(reference.paths, four.paths);
    }

    #[test]
    #[should_panic(expected = "p must be positive")]
    fn invalid_p_rejected() {
        Node2Vec::new(0.0, 1.0, 10);
    }

    #[test]
    fn indexed_variant_walks_identically() {
        // The Bloom filter only short-circuits negatives: trajectories
        // must be bit-identical to the plain variant.
        let g = gen::presets::twitter_like(10, gen::GenOptions::seeded(210));
        let plain = RandomWalkEngine::new(
            &g,
            Node2Vec::new(0.5, 2.0, 15),
            WalkConfig::single_node(211),
        )
        .run(WalkerStarts::Count(300));
        let indexed = IndexedNode2Vec::new(Node2Vec::new(0.5, 2.0, 15), &g, 16);
        let accel = RandomWalkEngine::new(&g, indexed, WalkConfig::with_nodes(3, 211))
            .run(WalkerStarts::Count(300));
        assert_eq!(plain.paths, accel.paths);
    }

    #[test]
    fn presets() {
        let d = Node2Vec::paper();
        assert_eq!((d.p, d.q, d.walk_length), (2.0, 0.5, 80));
        assert!(!d.return_edge_is_outlier());
        let s = Node2Vec::skewed();
        assert!(s.return_edge_is_outlier());
    }
}
