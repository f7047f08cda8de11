//! Per-vertex row versions and the merged-row read path.
//!
//! A vertex's adjacency at an epoch is the **merged row**: the live
//! underlying edges (the CSR base row — or the most recent compacted
//! full row — minus tombstones, with weight overrides applied) merged
//! with the appended edges, ordered by destination with
//! underlying-before-appended on ties, appended edges in insertion
//! order within a destination. This is exactly the order
//! `GraphBuilder::build` leaves a row in when fed the same edges, which
//! is what makes a pinned reader byte-identical to the materialized CSR.

use knightking_graph::{EdgeTypeId, VertexId, Weight};

/// One appended edge (destination-sorted inside [`Overlay::adds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AddEdge {
    pub dst: VertexId,
    pub weight: Weight,
    pub edge_type: EdgeTypeId,
}

/// Cumulative deltas relative to the nearest full row at or below this
/// version (the CSR base row if none).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Overlay {
    /// Appended edges, sorted by destination, insertion-stable.
    pub adds: Vec<AddEdge>,
    /// Tombstoned underlying edge indices, sorted ascending.
    pub dead: Vec<u32>,
    /// Weight overrides `(underlying index, weight)` for live underlying
    /// edges, sorted by index.
    pub rew: Vec<(u32, Weight)>,
}

impl Overlay {
    /// Number of delta entries — the numerator of the compaction ratio.
    pub fn delta_len(&self) -> usize {
        self.adds.len() + self.dead.len() + self.rew.len()
    }
}

/// A compacted, self-contained CSR-shaped row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FullRow {
    pub targets: Vec<VertexId>,
    pub weights: Option<Vec<Weight>>,
    pub types: Option<Vec<EdgeTypeId>>,
}

impl FullRow {
    pub fn as_und(&self) -> UndRow<'_> {
        UndRow {
            targets: &self.targets,
            weights: self.weights.as_deref(),
            types: self.types.as_deref(),
        }
    }
}

/// The row's state as of one epoch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RowKind {
    Overlay(Overlay),
    Full(FullRow),
}

/// One epoch-stamped row version. Versions within a vertex are sorted by
/// epoch; a reader pinned at epoch `e` uses the latest version with
/// `epoch <= e` (or the base row when none exists).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowVersion {
    pub epoch: u64,
    pub kind: RowKind,
}

/// Borrowed slices of an underlying row (base CSR row or full row).
#[derive(Debug, Clone, Copy)]
pub(crate) struct UndRow<'a> {
    pub targets: &'a [VertexId],
    pub weights: Option<&'a [Weight]>,
    pub types: Option<&'a [EdgeTypeId]>,
}

/// One edge of a merged row, fully resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MergedEdge {
    pub dst: VertexId,
    pub weight: Weight,
    pub edge_type: EdgeTypeId,
}

/// A resolved read view: underlying row plus (optionally) an overlay.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowView<'a> {
    pub und: UndRow<'a>,
    pub ov: Option<&'a Overlay>,
}

impl<'a> RowView<'a> {
    /// Number of live underlying edges.
    fn live_len(&self) -> usize {
        self.und.targets.len() - self.ov.map_or(0, |o| o.dead.len())
    }

    /// Merged-row degree.
    pub fn degree(&self) -> usize {
        self.live_len() + self.ov.map_or(0, |o| o.adds.len())
    }

    /// Maps the `j`-th *live* underlying edge to its underlying index,
    /// skipping tombstones. Iterative fixed point: each round accounts
    /// for the tombstones at or below the current candidate index.
    fn live_to_und(&self, j: usize) -> usize {
        let Some(ov) = self.ov else { return j };
        if ov.dead.is_empty() {
            return j;
        }
        let mut k = j;
        loop {
            let d = ov.dead.partition_point(|&x| (x as usize) <= k);
            let next = j + d;
            if next == k {
                return k;
            }
            k = next;
        }
    }

    /// Weight of the underlying edge at underlying index `k`, override
    /// applied.
    fn und_weight(&self, k: usize) -> Weight {
        if let Some(ov) = self.ov {
            if let Ok(p) = ov.rew.binary_search_by_key(&(k as u32), |&(i, _)| i) {
                return ov.rew[p].1;
            }
        }
        self.und.weights.map_or(1.0, |w| w[k])
    }

    fn und_edge(&self, k: usize) -> MergedEdge {
        MergedEdge {
            dst: self.und.targets[k],
            weight: self.und_weight(k),
            edge_type: self.und.types.map_or(0, |t| t[k]),
        }
    }

    /// Random access into the merged row: the `i`-th edge in destination
    /// order (underlying before appended on ties). Selection over the
    /// two sorted sequences — O(log² degree), no materialization.
    pub fn get(&self, i: usize) -> MergedEdge {
        debug_assert!(i < self.degree(), "merged row index out of range");
        let adds: &[AddEdge] = self.ov.map_or(&[], |o| &o.adds);
        let la = self.live_len();
        let lb = adds.len();
        if lb == 0 {
            return self.und_edge(self.live_to_und(i));
        }
        let key_a = |j: usize| self.und.targets[self.live_to_und(j)];
        // Find the split (a, b), a + b = i, of the first i merged
        // elements: the smallest a such that no taken appended edge has
        // a destination >= the next untaken underlying one (underlying
        // wins ties, so `>=` is the violation).
        let mut lo = i.saturating_sub(lb);
        let mut hi = i.min(la);
        while lo < hi {
            let a = (lo + hi) / 2;
            let b = i - a;
            if b > 0 && a < la && adds[b - 1].dst >= key_a(a) {
                lo = a + 1;
            } else {
                hi = a;
            }
        }
        let a = lo;
        let b = i - a;
        if a < la && (b == lb || key_a(a) <= adds[b].dst) {
            self.und_edge(self.live_to_und(a))
        } else {
            let e = adds[b];
            MergedEdge {
                dst: e.dst,
                weight: e.weight,
                edge_type: e.edge_type,
            }
        }
    }

    /// Index range of the merged-row edges targeting `dst` — the merged
    /// counterpart of `CsrGraph::edge_range`.
    pub fn range_of(&self, dst: VertexId) -> std::ops::Range<usize> {
        let bp_lo = self.und.targets.partition_point(|&t| t < dst);
        let bp_hi = self.und.targets.partition_point(|&t| t <= dst);
        let (dead_lo, dead_hi, add_lo, add_hi) = match self.ov {
            None => (0, 0, 0, 0),
            Some(o) => (
                o.dead.partition_point(|&x| (x as usize) < bp_lo),
                o.dead.partition_point(|&x| (x as usize) < bp_hi),
                o.adds.partition_point(|e| e.dst < dst),
                o.adds.partition_point(|e| e.dst <= dst),
            ),
        };
        (bp_lo - dead_lo + add_lo)..(bp_hi - dead_hi + add_hi)
    }

    /// Walks the merged row in order — the sequential path alias
    /// building, compaction, and materialization use.
    pub fn for_each(&self, mut f: impl FnMut(MergedEdge)) {
        let (adds, dead): (&[AddEdge], &[u32]) = self.ov.map_or((&[], &[]), |o| (&o.adds, &o.dead));
        let n = self.und.targets.len();
        let (mut ai, mut bi, mut di) = (0usize, 0usize, 0usize);
        while ai < n || bi < adds.len() {
            if ai < n && di < dead.len() && dead[di] as usize == ai {
                ai += 1;
                di += 1;
                continue;
            }
            let take_und = ai < n && (bi >= adds.len() || self.und.targets[ai] <= adds[bi].dst);
            if take_und {
                f(self.und_edge(ai));
                ai += 1;
            } else {
                let e = adds[bi];
                f(MergedEdge {
                    dst: e.dst,
                    weight: e.weight,
                    edge_type: e.edge_type,
                });
                bi += 1;
            }
        }
    }

    /// Compacts the view into a self-contained full row.
    pub fn compact(&self, weighted: bool, typed: bool) -> FullRow {
        let deg = self.degree();
        let mut row = FullRow {
            targets: Vec::with_capacity(deg),
            weights: weighted.then(|| Vec::with_capacity(deg)),
            types: typed.then(|| Vec::with_capacity(deg)),
        };
        self.for_each(|e| {
            row.targets.push(e.dst);
            if let Some(w) = &mut row.weights {
                w.push(e.weight);
            }
            if let Some(t) = &mut row.types {
                t.push(e.edge_type);
            }
        });
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn und(targets: &[VertexId]) -> UndRow<'_> {
        UndRow {
            targets,
            weights: None,
            types: None,
        }
    }

    fn add(dst: VertexId, weight: Weight) -> AddEdge {
        AddEdge {
            dst,
            weight,
            edge_type: 0,
        }
    }

    /// Reference implementation: materialize the merged row naively.
    fn naive(view: &RowView<'_>) -> Vec<MergedEdge> {
        let mut out = Vec::new();
        view.for_each(|e| out.push(e));
        out
    }

    #[test]
    fn plain_base_row_passes_through() {
        let targets = [1, 3, 3, 7];
        let view = RowView {
            und: und(&targets),
            ov: None,
        };
        assert_eq!(view.degree(), 4);
        assert_eq!(view.get(2).dst, 3);
        assert_eq!(view.get(2).weight, 1.0);
        assert_eq!(view.range_of(3), 1..3);
        assert_eq!(view.range_of(5), 3..3);
    }

    #[test]
    fn tombstones_skip_and_reindex() {
        let targets = [1, 3, 5, 7];
        let ov = Overlay {
            adds: vec![],
            dead: vec![0, 2],
            rew: vec![],
        };
        let view = RowView {
            und: und(&targets),
            ov: Some(&ov),
        };
        assert_eq!(view.degree(), 2);
        assert_eq!(view.get(0).dst, 3);
        assert_eq!(view.get(1).dst, 7);
        assert_eq!(view.range_of(5), 1..1);
        assert_eq!(view.range_of(7), 1..2);
    }

    #[test]
    fn adds_merge_in_dst_order_und_first_on_ties() {
        let targets = [2, 4, 4];
        let ov = Overlay {
            adds: vec![add(1, 0.5), add(4, 2.0), add(9, 3.0)],
            dead: vec![],
            rew: vec![],
        };
        let view = RowView {
            und: und(&targets),
            ov: Some(&ov),
        };
        let dsts: Vec<_> = naive(&view).iter().map(|e| e.dst).collect();
        assert_eq!(dsts, vec![1, 2, 4, 4, 4, 9]);
        // The appended 4 comes after both underlying 4s.
        assert_eq!(view.get(4).weight, 2.0);
        assert_eq!(view.get(2).weight, 1.0);
        // Random access agrees with the sequential walk everywhere.
        for (i, e) in naive(&view).into_iter().enumerate() {
            assert_eq!(view.get(i), e, "index {i}");
        }
        assert_eq!(view.range_of(4), 2..5);
        assert_eq!(view.range_of(1), 0..1);
        assert_eq!(view.range_of(9), 5..6);
    }

    #[test]
    fn reweight_overrides_underlying_weight() {
        let targets = [2, 4];
        let weights = [1.0f32, 5.0];
        let ov = Overlay {
            adds: vec![],
            dead: vec![],
            rew: vec![(1, 0.25)],
        };
        let view = RowView {
            und: UndRow {
                targets: &targets,
                weights: Some(&weights),
                types: None,
            },
            ov: Some(&ov),
        };
        assert_eq!(view.get(0).weight, 1.0);
        assert_eq!(view.get(1).weight, 0.25);
    }

    #[test]
    fn compact_then_read_matches_overlay_read() {
        let targets = [2, 4, 6];
        let ov = Overlay {
            adds: vec![add(3, 9.0), add(6, 1.5)],
            dead: vec![1],
            rew: vec![(2, 4.0)],
        };
        let view = RowView {
            und: UndRow {
                targets: &targets,
                weights: Some(&[1.0, 2.0, 3.0]),
                types: None,
            },
            ov: Some(&ov),
        };
        let full = view.compact(true, false);
        let flat = full.as_und();
        let compacted = RowView {
            und: flat,
            ov: None,
        };
        assert_eq!(naive(&view), naive(&compacted));
        assert_eq!(full.targets, vec![2, 3, 6, 6]);
        assert_eq!(full.weights.as_deref(), Some(&[1.0f32, 9.0, 4.0, 1.5][..]));
    }

    #[test]
    fn random_access_agrees_with_walk_under_mixed_deltas() {
        let targets = [1, 1, 4, 6, 6, 8];
        let ov = Overlay {
            adds: vec![add(0, 0.1), add(1, 0.2), add(6, 0.3), add(6, 0.4)],
            dead: vec![1, 4],
            rew: vec![(3, 7.0)],
        };
        let view = RowView {
            und: und(&targets),
            ov: Some(&ov),
        };
        let walked = naive(&view);
        assert_eq!(walked.len(), view.degree());
        for (i, e) in walked.iter().enumerate() {
            assert_eq!(view.get(i), *e, "index {i}");
        }
        for dst in 0..10u32 {
            let r = view.range_of(dst);
            let expected: Vec<usize> = walked
                .iter()
                .enumerate()
                .filter(|(_, e)| e.dst == dst)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                (r.start..r.end).collect::<Vec<_>>(),
                expected,
                "range_of({dst})"
            );
        }
    }
}
