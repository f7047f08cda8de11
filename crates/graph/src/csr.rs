//! Compressed sparse row graph storage (§6.1 of the paper).
//!
//! All out-edges of a vertex are stored contiguously and *sorted by
//! destination*, which is what lets a node answer "is `x` a neighbor of
//! `t`?" — the walker-to-vertex state query behind second-order walks — in
//! O(log d) with no auxiliary index. Undirected graphs store each edge
//! twice, once per direction, exactly as the paper prescribes.

use crate::{EdgeTypeId, VertexId, Weight};

/// An immutable graph in compressed sparse row form.
///
/// Constructed through [`crate::GraphBuilder`]; never mutated afterwards,
/// so it can be shared freely across the simulated cluster's node threads.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` (len `|V| + 1`).
    offsets: Vec<u64>,
    /// Destination of each edge, sorted within each vertex's range.
    targets: Vec<VertexId>,
    /// Optional per-edge weights, parallel to `targets`.
    weights: Option<Vec<Weight>>,
    /// Optional per-edge types, parallel to `targets`.
    edge_types: Option<Vec<EdgeTypeId>>,
}

/// A borrowed view of one out-edge, handed to user transition functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeView {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (`1.0` on unweighted graphs).
    pub weight: Weight,
    /// Edge type (`0` on homogeneous graphs).
    pub edge_type: EdgeTypeId,
    /// Index of this edge within `src`'s out-edge range.
    pub index: usize,
}

/// Entries [`CsrGraph::has_edge`] scans once its binary search has
/// narrowed a row this far (32 measured slower, 128 equal).
const PROBE_LEAF: usize = 64;

impl CsrGraph {
    /// Assembles a graph from raw CSR arrays.
    ///
    /// Intended for [`crate::GraphBuilder`]; invariants (monotone offsets,
    /// sorted adjacency, parallel array lengths) are asserted in debug
    /// builds.
    pub(crate) fn from_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
        edge_types: Option<Vec<EdgeTypeId>>,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        if let Some(w) = &weights {
            debug_assert_eq!(w.len(), targets.len());
        }
        if let Some(t) = &edge_types {
            debug_assert_eq!(t.len(), targets.len());
        }
        debug_assert!((0..offsets.len() - 1).all(|v| {
            let range = offsets[v] as usize..offsets[v + 1] as usize;
            targets[range].windows(2).all(|w| w[0] <= w[1])
        }));
        CsrGraph {
            offsets,
            targets,
            weights,
            edge_types,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (directed) edges. An undirected graph reports
    /// twice its logical edge count.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Destinations of `v`'s out-edges, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Weights of `v`'s out-edges, or `None` on unweighted graphs.
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.weights.as_ref().map(|w| {
            let lo = self.offsets[v as usize] as usize;
            let hi = self.offsets[v as usize + 1] as usize;
            &w[lo..hi]
        })
    }

    /// Types of `v`'s out-edges, or `None` on homogeneous graphs.
    #[inline]
    pub fn edge_types_of(&self, v: VertexId) -> Option<&[EdgeTypeId]> {
        self.edge_types.as_ref().map(|t| {
            let lo = self.offsets[v as usize] as usize;
            let hi = self.offsets[v as usize + 1] as usize;
            &t[lo..hi]
        })
    }

    /// Whether the graph carries per-edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Whether the graph carries per-edge types.
    #[inline]
    pub fn is_typed(&self) -> bool {
        self.edge_types.is_some()
    }

    /// The `i`-th out-edge of `v` as an [`EdgeView`].
    ///
    /// # Panics
    ///
    /// Panics if `v` or `i` is out of range.
    #[inline]
    pub fn edge(&self, v: VertexId, i: usize) -> EdgeView {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        let pos = lo + i;
        assert!(pos < hi, "edge index {i} out of range for vertex {v}");
        EdgeView {
            src: v,
            dst: self.targets[pos],
            weight: self.weights.as_ref().map_or(1.0, |w| w[pos]),
            edge_type: self.edge_types.as_ref().map_or(0, |t| t[pos]),
            index: i,
        }
    }

    /// Checks whether `v` has an out-edge to `x` in O(log d).
    ///
    /// This is the primitive behind `postNeighborQuery`: node2vec's
    /// distance test `d_tx ∈ {0, 1, 2}` reduces to this membership check
    /// at the node owning `t`.
    ///
    /// Every level of a binary search is a load that depends on the one
    /// before it, so the search halves only down to [`PROBE_LEAF`] entries
    /// and scans those: a few adjacent cache lines compared without a
    /// dependent step between them, in place of the six levels that would
    /// have picked among them.
    #[inline]
    pub fn has_edge(&self, v: VertexId, x: VertexId) -> bool {
        let adj = self.neighbors(v);
        let (mut base, mut size) = (0, adj.len());
        while size > PROBE_LEAF {
            let half = size / 2;
            if adj[base + half] <= x {
                base += half;
            }
            size -= half;
        }
        adj[base..base + size].contains(&x)
    }

    /// Finds the index (within `v`'s out-edges) of some edge leading to
    /// `x`, in O(log d).
    ///
    /// With parallel edges, any one of them may be returned; the rejection
    /// sampler's outlier path only needs *an* edge with the declared
    /// destination.
    #[inline]
    pub fn find_edge(&self, v: VertexId, x: VertexId) -> Option<usize> {
        self.neighbors(v).binary_search(&x).ok()
    }

    /// Returns the contiguous range of edge indices (within `v`'s
    /// out-edges) whose destination is `x`, in O(log d).
    ///
    /// Empty when no such edge exists; longer than 1 for parallel edges.
    /// The rejection sampler's outlier path uses this to spread appendix
    /// probability mass across parallel outlier edges exactly.
    pub fn edge_range(&self, v: VertexId, x: VertexId) -> std::ops::Range<usize> {
        let adj = self.neighbors(v);
        let lo = adj.partition_point(|&d| d < x);
        let hi = adj.partition_point(|&d| d <= x);
        lo..hi
    }

    /// Iterates the out-edges of `v` as [`EdgeView`]s.
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = EdgeView> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (lo..hi).map(move |pos| EdgeView {
            src: v,
            dst: self.targets[pos],
            weight: self.weights.as_ref().map_or(1.0, |w| w[pos]),
            edge_type: self.edge_types.as_ref().map_or(0, |t| t[pos]),
            index: pos - lo,
        })
    }

    /// Sum of `v`'s out-edge weights (its out-degree when unweighted).
    pub fn weight_sum(&self, v: VertexId) -> f64 {
        match self.edge_weights(v) {
            Some(ws) => ws.iter().map(|&w| w as f64).sum(),
            None => self.degree(v) as f64,
        }
    }

    /// Mean and variance of the out-degree distribution (Table 2 columns).
    pub fn degree_stats(&self) -> (f64, f64) {
        knightking_sampling::stats::mean_variance(
            (0..self.vertex_count()).map(|v| self.degree(v as VertexId) as f64),
        )
    }

    /// Largest out-degree in the graph.
    pub fn max_degree(&self) -> usize {
        (0..self.vertex_count())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Position of `v`'s first out-edge in the flat edge arrays, and its
    /// out-degree. With [`target`](CsrGraph::target) this is the step
    /// kernel's view of a row: one bounds read, then cells by position.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn row(&self, v: VertexId) -> (usize, usize) {
        let lo = self.offsets[v as usize];
        (lo as usize, (self.offsets[v as usize + 1] - lo) as usize)
    }

    /// Destination of the edge at flat position `pos` (a [`row`] start
    /// plus an index below that row's degree).
    ///
    /// [`row`]: CsrGraph::row
    #[inline]
    pub fn target(&self, pos: usize) -> VertexId {
        self.targets[pos]
    }

    /// Hints that `v`'s row bounds (`offsets[v]`, `offsets[v + 1]`) are
    /// about to be read. Both share a cache line except at line
    /// boundaries. Purely a performance hint — never faults, even for
    /// out-of-range `v`.
    #[inline]
    pub fn prefetch_row_bounds(&self, v: VertexId) {
        let p = self.offsets.as_ptr().wrapping_add(v as usize);
        knightking_sampling::prefetch::read(p);
        knightking_sampling::prefetch::read(p.wrapping_add(1));
    }

    /// Hints that [`target`](CsrGraph::target)`(pos)` is about to be
    /// read. Never faults, whatever `pos`.
    #[inline]
    pub fn prefetch_target(&self, pos: usize) {
        knightking_sampling::prefetch::read(self.targets.as_ptr().wrapping_add(pos));
    }

    /// Hints that the edge at flat position `pos` is about to be read as
    /// an [`EdgeView`]: its target and, where the graph carries them, its
    /// weight and type. Never faults, whatever `pos`.
    #[inline]
    pub fn prefetch_edge(&self, pos: usize) {
        self.prefetch_target(pos);
        if let Some(w) = &self.weights {
            knightking_sampling::prefetch::read(w.as_ptr().wrapping_add(pos));
        }
        if let Some(t) = &self.edge_types {
            knightking_sampling::prefetch::read(t.as_ptr().wrapping_add(pos));
        }
    }

    /// Hints that `v`'s adjacency is about to be searched
    /// ([`has_edge`](CsrGraph::has_edge), [`edge_range`](CsrGraph::edge_range)):
    /// the row's first line, which is the whole row for a short one, and
    /// the line a binary search probes first. Reads `v`'s row bounds, so
    /// hint those a stage earlier.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn prefetch_adjacency(&self, v: VertexId) {
        let (lo, deg) = self.row(v);
        self.prefetch_target(lo);
        self.prefetch_target(lo + deg / 2);
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.targets.len() * 4
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)
            + self.edge_types.as_ref().map_or(0, |t| t.len())
    }
}

#[cfg(test)]
mod tests {
    use super::PROBE_LEAF;
    use crate::builder::GraphBuilder;

    #[test]
    fn has_edge_agrees_with_a_scan_around_the_probe_leaf() {
        // Row `v` holds every third id below `3 * len(v)`, one of them
        // twice: lengths on both sides of the leaf, of its double, and far
        // beyond.
        const L: usize = PROBE_LEAF;
        let lens = [0, 1, 2, L - 1, L, L + 1, 2 * L, 2 * L + 1, 1000, 4097];
        let n = 3 * lens.iter().max().unwrap() + 3;
        let mut b = GraphBuilder::directed(n);
        for (v, &len) in lens.iter().enumerate() {
            for i in 0..len {
                b.add_edge(v as u32, 3 * i as u32 + 1);
            }
            if len > 0 {
                b.add_edge(v as u32, 3 * (len / 2) as u32 + 1);
            }
        }
        let g = b.build();
        for (v, &len) in lens.iter().enumerate() {
            assert!(g.degree(v as u32) >= len);
            for x in 0..n as u32 {
                assert_eq!(
                    g.has_edge(v as u32, x),
                    g.neighbors(v as u32).contains(&x),
                    "row of {len}, target {x}"
                );
            }
        }
    }

    #[test]
    fn small_directed_graph_accessors() {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.add_edge(3, 0);
        let g = b.build();

        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.degree(3), 1);
        assert!(!g.is_weighted());
        assert!(!g.is_typed());
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.find_edge(1, 3), Some(0));
        assert_eq!(g.find_edge(1, 0), None);
    }

    #[test]
    fn adjacency_is_sorted_regardless_of_insertion_order() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[0, 1, 2]);
    }

    #[test]
    fn undirected_stores_both_directions() {
        let mut b = GraphBuilder::undirected(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn weighted_edges_round_trip() {
        let mut b = GraphBuilder::undirected(2).with_weights();
        b.add_weighted_edge(0, 1, 2.5);
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weights(0).unwrap(), &[2.5]);
        assert_eq!(g.edge_weights(1).unwrap(), &[2.5]);
        assert_eq!(g.edge(0, 0).weight, 2.5);
        assert!((g.weight_sum(0) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn typed_edges_round_trip() {
        let mut b = GraphBuilder::directed(3).with_edge_types();
        b.add_typed_edge(0, 1, 4);
        b.add_typed_edge(0, 2, 7);
        let g = b.build();
        assert!(g.is_typed());
        // Adjacency sorted by destination, so types follow the sort.
        assert_eq!(g.edge_types_of(0).unwrap(), &[4, 7]);
        assert_eq!(g.edge(0, 1).edge_type, 7);
    }

    #[test]
    fn isolated_vertices_have_empty_ranges() {
        let mut b = GraphBuilder::directed(5);
        b.add_edge(0, 4);
        let g = b.build();
        for v in 1..4 {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn self_loops_and_parallel_edges_kept() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.neighbors(0), &[0, 1, 1]);
        assert!(g.find_edge(0, 1).is_some());
    }

    #[test]
    fn edge_range_covers_parallel_edges() {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        let g = b.build();
        assert_eq!(g.edge_range(0, 1), 0..1);
        assert_eq!(g.edge_range(0, 2), 1..3);
        assert_eq!(g.edge_range(0, 3), 3..4);
        assert!(g.edge_range(0, 0).is_empty());
        assert!(g.edge_range(1, 0).is_empty());
    }

    #[test]
    fn edge_views_enumerate_in_order() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        let g = b.build();
        let views: Vec<_> = g.edges(0).collect();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].dst, 1);
        assert_eq!(views[0].index, 0);
        assert_eq!(views[1].dst, 2);
        assert_eq!(views[1].index, 1);
        assert_eq!(views[0].weight, 1.0);
    }

    #[test]
    fn degree_stats_match() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build();
        let (mean, var) = g.degree_stats();
        assert!((mean - 1.0).abs() < 1e-12);
        // Degrees 2, 1, 0 → variance 2/3.
        assert!((var - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::directed(0).build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_index_panics() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 1);
        let g = b.build();
        g.edge(0, 1);
    }
}
