//! Meta-path based random walk (metapath2vec and friends).
//!
//! A *dynamic, first-order* walk over heterogeneous graphs: each walker is
//! assigned one of `N` user-supplied meta-path schemes — cyclic patterns of
//! edge types — and at step `k` may only traverse edges whose type matches
//! `scheme[k mod |scheme|]` (Eq. 1 of the paper):
//!
//! ```text
//! Pd(e) = 1  if type(e) = S[k mod |S|],  else 0
//! ```
//!
//! The transition distribution depends on the walker's scheme and step, so
//! it cannot be pre-computed per vertex — but it needs no information from
//! other vertices, so the engine resolves every step locally (first-order
//! fast path). When a vertex has *no* edge of the required type, rejection
//! trials all miss and the engine's exact full-scan fallback detects the
//! zero probability mass and terminates the walk (§2.2).

use knightking_core::{EdgeView, GraphRef, VertexId, Walker, WalkerProgram, Wire, WireError};
use knightking_graph::EdgeTypeId;
use knightking_sampling::DeterministicRng;

/// Per-walker state: the assigned scheme.
#[derive(Debug, Clone, Copy)]
pub struct MetaPathState {
    /// Index into [`MetaPath::schemes`].
    pub scheme: u32,
}

impl Wire for MetaPathState {
    fn wire_size(&self) -> usize {
        self.scheme.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.scheme.encode(out)
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(MetaPathState {
            scheme: u32::decode(input)?,
        })
    }
}

/// The Meta-path walk program.
///
/// §7.1 evaluates 5 edge types with 10 cyclic schemes of length 5, each
/// walker randomly assigned one scheme; [`MetaPath::paper`] builds that
/// setup.
///
/// # Examples
///
/// ```
/// use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
/// use knightking_graph::gen::{self, GenOptions, WeightKind};
/// use knightking_walks::MetaPath;
///
/// let opts = GenOptions { weights: WeightKind::None, edge_types: Some(3), seed: 1 };
/// let g = gen::uniform_degree(64, 12, opts);
/// let walk = MetaPath::new(vec![vec![0, 1], vec![2]], 10, 7);
/// let r = RandomWalkEngine::new(&g, walk, WalkConfig::single_node(2))
///     .run(WalkerStarts::PerVertex);
/// assert_eq!(r.paths.len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct MetaPath {
    /// The meta-path schemes; walkers are randomly assigned one each.
    pub schemes: Vec<Vec<EdgeTypeId>>,
    /// Fixed walk length.
    pub walk_length: u32,
    /// Seed for the random walker-to-scheme assignment.
    pub assignment_seed: u64,
}

impl MetaPath {
    /// A Meta-path walk over the given schemes.
    ///
    /// # Panics
    ///
    /// Panics if `schemes` is empty or any scheme is empty.
    pub fn new(schemes: Vec<Vec<EdgeTypeId>>, walk_length: u32, assignment_seed: u64) -> Self {
        assert!(!schemes.is_empty(), "need at least one scheme");
        assert!(
            schemes.iter().all(|s| !s.is_empty()),
            "schemes must be non-empty"
        );
        MetaPath {
            schemes,
            walk_length,
            assignment_seed,
        }
    }

    /// The paper's setup: 5 edge types, 10 cyclic schemes of length 5,
    /// walks of length 80 (§7.1).
    ///
    /// Scheme `s` is the deterministic pseudo-random type sequence used by
    /// the benchmark harness; the exact patterns are unspecified in the
    /// paper, only their shape.
    pub fn paper(assignment_seed: u64) -> Self {
        MetaPath::paper_with_types(5, assignment_seed)
    }

    /// The paper's scheme shape (10 cyclic schemes of length 5, walk
    /// length 80) over an arbitrary number of edge types — more types
    /// make matching edges rarer, stressing the rejection fallback.
    ///
    /// # Panics
    ///
    /// Panics if `types == 0`.
    pub fn paper_with_types(types: EdgeTypeId, assignment_seed: u64) -> Self {
        assert!(types > 0, "need at least one edge type");
        let mut rng = DeterministicRng::for_stream(0x4D50, assignment_seed);
        let schemes = (0..10)
            .map(|_| {
                (0..5)
                    .map(|_| rng.next_bounded(types as u64) as EdgeTypeId)
                    .collect()
            })
            .collect();
        MetaPath::new(schemes, crate::PAPER_WALK_LENGTH, assignment_seed)
    }

    /// The edge type walker `w` must follow at its current step.
    #[inline]
    pub fn required_type(&self, walker: &Walker<MetaPathState>) -> EdgeTypeId {
        let scheme = &self.schemes[walker.data.scheme as usize];
        scheme[walker.step as usize % scheme.len()]
    }
}

impl WalkerProgram for MetaPath {
    type Data = MetaPathState;
    type Query = ();
    type Answer = ();

    fn init_data(&self, id: u64, _start: VertexId) -> MetaPathState {
        // Random scheme assignment, reproducible per (seed, walker id).
        let mut rng = DeterministicRng::for_stream(self.assignment_seed ^ 0x4D45_5441, id);
        MetaPathState {
            scheme: rng.next_bounded(self.schemes.len() as u64) as u32,
        }
    }

    fn should_terminate(&self, walker: &mut Walker<MetaPathState>) -> bool {
        walker.step >= self.walk_length
    }

    fn dynamic_comp(
        &self,
        _graph: &GraphRef<'_>,
        walker: &Walker<MetaPathState>,
        edge: EdgeView,
        _answer: Option<()>,
    ) -> f64 {
        if edge.edge_type == self.required_type(walker) {
            1.0
        } else {
            0.0
        }
    }

    fn upper_bound(&self, _graph: &GraphRef<'_>, _walker: &Walker<MetaPathState>) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_core::{RandomWalkEngine, WalkConfig, WalkerStarts};
    use knightking_graph::{gen, GraphBuilder};

    fn typed_graph(
        n: usize,
        deg: usize,
        types: EdgeTypeId,
        seed: u64,
    ) -> knightking_core::CsrGraph {
        let opts = gen::GenOptions {
            weights: gen::WeightKind::None,
            edge_types: Some(types),
            seed,
        };
        gen::uniform_degree(n, deg, opts)
    }

    /// Every step of every path must follow the walker's scheme.
    #[test]
    fn paths_follow_schemes() {
        let g = typed_graph(200, 16, 3, 20);
        let mp = MetaPath::new(vec![vec![0, 1], vec![2]], 12, 99);
        let r = RandomWalkEngine::new(&g, mp.clone(), WalkConfig::single_node(21))
            .run(WalkerStarts::PerVertex);
        for (id, p) in r.paths.iter().enumerate() {
            // Recover the walker's scheme the same way init_data does.
            let mut rng = DeterministicRng::for_stream(99 ^ 0x4D45_5441, id as u64);
            let scheme = &mp.schemes[rng.next_bounded(2) as usize];
            for (k, hop) in p.windows(2).enumerate() {
                let required = scheme[k % scheme.len()];
                // The traversed edge must have the required type. With
                // parallel edges of different types we accept any matching
                // edge existing.
                let has_matching = g
                    .edges(hop[0])
                    .any(|e| e.dst == hop[1] && e.edge_type == required);
                assert!(
                    has_matching,
                    "walker {id} step {k}: no type-{required} edge ({}, {})",
                    hop[0], hop[1]
                );
            }
        }
    }

    /// A walker at a vertex with no edge of the required type terminates.
    #[test]
    fn dead_end_type_terminates() {
        // Path graph: 0 -(type 0)- 1 -(type 1)- 2, scheme [0, 1, 0]. The
        // walker follows type 0 to vertex 1, type 1 to vertex 2, then
        // needs type 0 again — but vertex 2 only has its mirrored type-1
        // edge, so the walk ends after two steps.
        let mut b = GraphBuilder::undirected(3).with_edge_types();
        b.add_typed_edge(0, 1, 0);
        b.add_typed_edge(1, 2, 1);
        let g = b.build();
        let mp = MetaPath::new(vec![vec![0, 1, 0]], 10, 1);
        let r = RandomWalkEngine::new(&g, mp, WalkConfig::single_node(22))
            .run(WalkerStarts::Explicit(vec![0]));
        assert_eq!(r.paths[0], vec![0, 1, 2]);
        assert!(r.metrics.fallback_scans > 0, "fallback detects zero mass");
    }

    #[test]
    fn cyclic_scheme_repeats() {
        // Triangle with alternating types; scheme [0, 1] cycles.
        let mut b = GraphBuilder::undirected(2).with_edge_types();
        b.add_typed_edge(0, 1, 0);
        b.add_typed_edge(0, 1, 1);
        let g = b.build();
        let mp = MetaPath::new(vec![vec![0, 1]], 8, 2);
        let r = RandomWalkEngine::new(&g, mp, WalkConfig::single_node(23))
            .run(WalkerStarts::Explicit(vec![0]));
        assert_eq!(r.paths[0].len(), 9, "both types always available");
    }

    #[test]
    fn scheme_assignment_covers_all_schemes() {
        let mp = MetaPath::paper(7);
        let mut seen = vec![false; mp.schemes.len()];
        for id in 0..1000u64 {
            let s = mp.init_data(id, 0).scheme;
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all schemes assigned");
    }

    #[test]
    fn paper_preset_shape() {
        let mp = MetaPath::paper(1);
        assert_eq!(mp.schemes.len(), 10);
        assert!(mp.schemes.iter().all(|s| s.len() == 5));
        assert!(mp.schemes.iter().flatten().all(|&t| t < 5));
        assert_eq!(mp.walk_length, 80);
    }

    #[test]
    #[should_panic(expected = "at least one scheme")]
    fn empty_schemes_rejected() {
        MetaPath::new(vec![], 10, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_scheme_rejected() {
        MetaPath::new(vec![vec![]], 10, 1);
    }
}
