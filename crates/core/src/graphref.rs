//! [`GraphRef`]: the engine's view of a graph — static CSR or a pinned
//! epoch of a dynamic graph.
//!
//! The execution engine and every [`WalkerProgram`] hook read the graph
//! through this enum. For a static run it is a transparent wrapper over
//! [`CsrGraph`] (one match on a `Copy` value per accessor — the CSR hot
//! path is unchanged). For a dynamic run it carries a
//! [`DynGraph`] plus a **pinned epoch**, and every accessor resolves at
//! that epoch: re-pinning with [`GraphRef::at`] is how the engine gives
//! each walker the snapshot current at its admission, which is what keeps
//! an in-flight walk byte-identical to a batch walk on the materialized
//! graph at that epoch while updates land underneath it.
//!
//! [`WalkerProgram`]: crate::WalkerProgram

use knightking_dyn::DynGraph;
use knightking_graph::{CsrGraph, EdgeView, VertexId};

/// A borrowed graph: a static CSR, or a dynamic graph pinned at an epoch.
///
/// `Copy`: pass it around by value; [`at`](GraphRef::at) re-pins cheaply.
#[derive(Clone, Copy)]
pub enum GraphRef<'g> {
    /// An immutable CSR graph. Epoch is always 0.
    Csr(&'g CsrGraph),
    /// A dynamic graph read at a pinned epoch.
    Dyn {
        /// The epoch-versioned graph.
        graph: &'g DynGraph,
        /// The epoch every accessor resolves at.
        epoch: u64,
    },
}

impl<'g> From<&'g CsrGraph> for GraphRef<'g> {
    fn from(g: &'g CsrGraph) -> Self {
        GraphRef::Csr(g)
    }
}

/// Pins the dynamic graph's *current* epoch at conversion time.
impl<'g> From<&'g DynGraph> for GraphRef<'g> {
    fn from(g: &'g DynGraph) -> Self {
        GraphRef::Dyn {
            graph: g,
            epoch: g.epoch(),
        }
    }
}

impl<'g> GraphRef<'g> {
    /// Re-pins to `epoch`. A no-op for CSR graphs (their only epoch is 0).
    #[inline]
    pub fn at(self, epoch: u64) -> Self {
        match self {
            GraphRef::Csr(g) => GraphRef::Csr(g),
            GraphRef::Dyn { graph, .. } => GraphRef::Dyn { graph, epoch },
        }
    }

    /// The pinned epoch (0 for CSR graphs).
    #[inline]
    pub fn epoch(self) -> u64 {
        match self {
            GraphRef::Csr(_) => 0,
            GraphRef::Dyn { epoch, .. } => epoch,
        }
    }

    /// The CSR, if this is a static graph.
    #[inline]
    pub fn as_csr(self) -> Option<&'g CsrGraph> {
        match self {
            GraphRef::Csr(g) => Some(g),
            GraphRef::Dyn { .. } => None,
        }
    }

    /// The dynamic graph, if this is one.
    #[inline]
    pub fn dyn_graph(self) -> Option<&'g DynGraph> {
        match self {
            GraphRef::Csr(_) => None,
            GraphRef::Dyn { graph, .. } => Some(graph),
        }
    }

    /// The underlying CSR: the graph itself when static, the epoch-0 base
    /// when dynamic. Partitioning is computed from this — ownership must
    /// not shift under in-flight walkers, so it binds to the base even as
    /// epochs advance.
    #[inline]
    pub fn base_csr(self) -> &'g CsrGraph {
        match self {
            GraphRef::Csr(g) => g,
            GraphRef::Dyn { graph, .. } => graph.base(),
        }
    }

    /// Number of vertices (epoch-independent: updates mutate edges only).
    #[inline]
    pub fn vertex_count(self) -> usize {
        self.base_csr().vertex_count()
    }

    /// Whether edges carry weights.
    #[inline]
    pub fn is_weighted(self) -> bool {
        self.base_csr().is_weighted()
    }

    /// Whether edges carry types.
    #[inline]
    pub fn is_typed(self) -> bool {
        self.base_csr().is_typed()
    }

    /// Out-degree of `v` at the pinned epoch.
    #[inline]
    pub fn degree(self, v: VertexId) -> usize {
        match self {
            GraphRef::Csr(g) => g.degree(v),
            GraphRef::Dyn { graph, epoch } => graph.degree_at(v, epoch),
        }
    }

    /// The `i`-th out-edge of `v` at the pinned epoch.
    #[inline]
    pub fn edge(self, v: VertexId, i: usize) -> EdgeView {
        match self {
            GraphRef::Csr(g) => g.edge(v, i),
            GraphRef::Dyn { graph, epoch } => graph.edge_at(v, i, epoch),
        }
    }

    /// Index range of the out-edges of `v` targeting `x` (empty when
    /// absent). Adjacency is destination-sorted at every epoch.
    #[inline]
    pub fn edge_range(self, v: VertexId, x: VertexId) -> std::ops::Range<usize> {
        match self {
            GraphRef::Csr(g) => g.edge_range(v, x),
            GraphRef::Dyn { graph, epoch } => graph.edge_range_at(v, x, epoch),
        }
    }

    /// Whether `v -> x` exists at the pinned epoch — the O(log d)
    /// membership probe second-order programs answer queries with.
    #[inline]
    pub fn has_edge(self, v: VertexId, x: VertexId) -> bool {
        match self {
            GraphRef::Csr(g) => g.has_edge(v, x),
            GraphRef::Dyn { graph, epoch } => graph.has_edge_at(v, x, epoch),
        }
    }

    /// Index of the first out-edge of `v` targeting `x`.
    #[inline]
    pub fn find_edge(self, v: VertexId, x: VertexId) -> Option<usize> {
        match self {
            GraphRef::Csr(g) => g.find_edge(v, x),
            GraphRef::Dyn { graph, epoch } => graph.find_edge_at(v, x, epoch),
        }
    }

    /// Sum of out-edge weights of `v` (1.0 per edge when unweighted).
    #[inline]
    pub fn weight_sum(self, v: VertexId) -> f64 {
        match self {
            GraphRef::Csr(g) => g.weight_sum(v),
            GraphRef::Dyn { graph, epoch } => graph.weight_sum_at(v, epoch),
        }
    }

    /// Walks the out-edges of `v` in index order. One virtual-free lock
    /// acquisition per vertex on the dynamic path, against per-edge
    /// resolution with [`edge`](GraphRef::edge).
    #[inline]
    pub fn for_each_edge(self, v: VertexId, f: impl FnMut(EdgeView)) {
        match self {
            GraphRef::Csr(g) => {
                let mut f = f;
                for e in g.edges(v) {
                    f(e);
                }
            }
            GraphRef::Dyn { graph, epoch } => graph.for_each_edge_at(v, epoch, f),
        }
    }
}

impl std::fmt::Debug for GraphRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphRef::Csr(g) => f
                .debug_struct("GraphRef::Csr")
                .field("vertices", &g.vertex_count())
                .field("edges", &g.edge_count())
                .finish(),
            GraphRef::Dyn { graph, epoch } => f
                .debug_struct("GraphRef::Dyn")
                .field("vertices", &graph.vertex_count())
                .field("epoch", epoch)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_dyn::{DynConfig, EdgeAdd, UpdateBatch};
    use knightking_graph::GraphBuilder;

    fn base() -> CsrGraph {
        let mut b = GraphBuilder::directed(3).with_weights();
        b.add_weighted_edge(0, 1, 2.0);
        b.add_weighted_edge(0, 2, 3.0);
        b.add_weighted_edge(1, 0, 1.0);
        b.build()
    }

    #[test]
    fn csr_ref_is_transparent() {
        let g = base();
        let r = GraphRef::from(&g);
        assert_eq!(r.epoch(), 0);
        assert_eq!(r.vertex_count(), 3);
        assert_eq!(r.degree(0), 2);
        assert_eq!(r.edge(0, 1).dst, 2);
        assert!(r.has_edge(0, 1));
        assert_eq!(r.find_edge(1, 0), Some(0));
        assert_eq!(r.weight_sum(0), 5.0);
        assert!(r.as_csr().is_some());
        assert!(r.dyn_graph().is_none());
        // at() is a no-op for CSR graphs.
        assert_eq!(r.at(99).epoch(), 0);
    }

    #[test]
    fn dyn_ref_pins_and_repins_epochs() {
        let d = DynGraph::new(base(), DynConfig::default());
        let r0 = GraphRef::from(&d);
        assert_eq!(r0.epoch(), 0);
        d.apply(&UpdateBatch {
            adds: vec![EdgeAdd {
                src: 0,
                dst: 0,
                weight: 4.0,
                edge_type: 0,
            }],
            dels: vec![],
            reweights: vec![],
        })
        .unwrap();
        // The old pin still reads the old snapshot.
        assert_eq!(r0.degree(0), 2);
        assert_eq!(r0.weight_sum(0), 5.0);
        // A fresh pin (or a re-pin) sees the update.
        let r1 = GraphRef::from(&d);
        assert_eq!(r1.epoch(), 1);
        assert_eq!(r1.degree(0), 3);
        assert_eq!(r0.at(1).weight_sum(0), 9.0);
        let mut dsts = Vec::new();
        r1.for_each_edge(0, |e| dsts.push(e.dst));
        assert_eq!(dsts, vec![0, 1, 2]);
        assert_eq!(r1.base_csr().degree(0), 2);
    }
}
