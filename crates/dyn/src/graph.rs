//! [`DynGraph`]: the epoch-versioned dynamic graph.

use std::collections::BTreeMap;
use std::sync::RwLock;

use knightking_graph::{CsrGraph, EdgeView, GraphBuilder, VertexId, Weight};

use crate::row::{AddEdge, RowKind, RowVersion, RowView, UndRow};
use crate::{DynError, UpdateBatch};

/// Tuning knobs for the dynamic layer.
#[derive(Debug, Clone, Copy)]
pub struct DynConfig {
    /// Compaction trigger: when a vertex's delta entry count exceeds
    /// `compact_ratio × underlying degree` after an apply, its overlay is
    /// compacted into a fresh full row. `0.0` compacts on every touch;
    /// `f64::INFINITY` never compacts.
    pub compact_ratio: f64,
}

impl Default for DynConfig {
    fn default() -> Self {
        DynConfig { compact_ratio: 0.5 }
    }
}

/// Result of applying one update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedUpdate {
    /// The epoch the batch was stamped with.
    pub epoch: u64,
    /// Source vertices whose rows were rebuilt by *this* call, sorted.
    /// Restricted to the kept (owned) vertices of a distributed apply —
    /// exactly the set whose sampling structures need rebuilding here.
    pub touched: Vec<VertexId>,
}

/// Counters and sizes describing the dynamic layer's state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynStats {
    /// Current (latest applied) graph epoch.
    pub epoch: u64,
    /// Per-vertex row rebuilds performed by applies, cumulative. An
    /// update batch touching `k` owned vertices adds exactly `k`.
    pub rows_rebuilt: u64,
    /// Overlay → full-row compactions performed, cumulative.
    pub compactions: u64,
    /// Row versions currently held across all vertices.
    pub versions: u64,
}

struct Inner {
    epoch: u64,
    /// Row versions per vertex, epoch-sorted; empty = base row only.
    rows: Vec<Vec<RowVersion>>,
    rows_rebuilt: u64,
    compactions: u64,
}

/// An epoch-versioned dynamic graph: an immutable CSR base plus
/// per-vertex delta rows (see the crate docs for the layout).
///
/// Reads are made *at* an epoch and are internally synchronized (a
/// reader lock per accessor); writes ([`DynGraph::apply_at`],
/// [`DynGraph::retire`]) take the writer side. The engine separates the
/// two in time anyway — updates land at superstep boundaries while no
/// walker is mid-step — so the lock is uncontended; it exists to make
/// the separation safe rather than to arbitrate real contention.
pub struct DynGraph {
    base: CsrGraph,
    cfg: DynConfig,
    inner: RwLock<Inner>,
}

impl DynGraph {
    /// Wraps an immutable base graph. The base is epoch 0; the first
    /// applied batch is epoch 1 (unless stamped higher).
    pub fn new(base: CsrGraph, cfg: DynConfig) -> Self {
        let rows = (0..base.vertex_count()).map(|_| Vec::new()).collect();
        DynGraph {
            base,
            cfg,
            inner: RwLock::new(Inner {
                epoch: 0,
                rows,
                rows_rebuilt: 0,
                compactions: 0,
            }),
        }
    }

    /// The immutable base CSR (epoch 0). Partitioning is computed from
    /// base degrees and stays fixed across epochs.
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Number of vertices (fixed: updates add/remove edges, not
    /// vertices).
    pub fn vertex_count(&self) -> usize {
        self.base.vertex_count()
    }

    /// Whether edges carry weights (inherited from the base).
    pub fn is_weighted(&self) -> bool {
        self.base.is_weighted()
    }

    /// Whether edges carry types (inherited from the base).
    pub fn is_typed(&self) -> bool {
        self.base.is_typed()
    }

    /// The current (latest applied) graph epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.read().expect("dyn lock poisoned").epoch
    }

    /// Snapshot of the layer's counters.
    pub fn stats(&self) -> DynStats {
        let inner = self.inner.read().expect("dyn lock poisoned");
        DynStats {
            epoch: inner.epoch,
            rows_rebuilt: inner.rows_rebuilt,
            compactions: inner.compactions,
            versions: inner.rows.iter().map(|r| r.len() as u64).sum(),
        }
    }

    fn base_und(&self, v: VertexId) -> UndRow<'_> {
        UndRow {
            targets: self.base.neighbors(v),
            weights: self.base.edge_weights(v),
            types: self.base.edge_types_of(v),
        }
    }

    /// Resolves the row view for `v` at `epoch` given a locked `rows`
    /// slice for that vertex.
    fn view<'a>(&'a self, rows: &'a [RowVersion], v: VertexId, epoch: u64) -> RowView<'a> {
        let n = rows.partition_point(|rv| rv.epoch <= epoch);
        if n == 0 {
            return RowView {
                und: self.base_und(v),
                ov: None,
            };
        }
        match &rows[n - 1].kind {
            RowKind::Full(fr) => RowView {
                und: fr.as_und(),
                ov: None,
            },
            RowKind::Overlay(ov) => {
                let und = rows[..n - 1]
                    .iter()
                    .rev()
                    .find_map(|rv| match &rv.kind {
                        RowKind::Full(fr) => Some(fr.as_und()),
                        RowKind::Overlay(_) => None,
                    })
                    .unwrap_or_else(|| self.base_und(v));
                RowView { und, ov: Some(ov) }
            }
        }
    }

    /// Runs `f` against the resolved row view of `v` at `epoch`.
    fn with_row<R>(&self, v: VertexId, epoch: u64, f: impl FnOnce(RowView<'_>) -> R) -> R {
        let inner = self.inner.read().expect("dyn lock poisoned");
        f(self.view(&inner.rows[v as usize], v, epoch))
    }

    /// Out-degree of `v` at `epoch`.
    pub fn degree_at(&self, v: VertexId, epoch: u64) -> usize {
        self.with_row(v, epoch, |row| row.degree())
    }

    /// The `i`-th out-edge of `v` at `epoch`, in merged-row order — the
    /// same index the materialized CSR at that epoch would use.
    pub fn edge_at(&self, v: VertexId, i: usize, epoch: u64) -> EdgeView {
        self.with_row(v, epoch, |row| {
            let e = row.get(i);
            EdgeView {
                src: v,
                dst: e.dst,
                weight: e.weight,
                edge_type: e.edge_type,
                index: i,
            }
        })
    }

    /// Index range of the out-edges of `v` targeting `x` at `epoch`.
    pub fn edge_range_at(&self, v: VertexId, x: VertexId, epoch: u64) -> std::ops::Range<usize> {
        self.with_row(v, epoch, |row| row.range_of(x))
    }

    /// Index of the first out-edge of `v` targeting `x` at `epoch`.
    pub fn find_edge_at(&self, v: VertexId, x: VertexId, epoch: u64) -> Option<usize> {
        let r = self.edge_range_at(v, x, epoch);
        if r.is_empty() {
            None
        } else {
            Some(r.start)
        }
    }

    /// Whether `v -> x` exists at `epoch`.
    pub fn has_edge_at(&self, v: VertexId, x: VertexId, epoch: u64) -> bool {
        !self.edge_range_at(v, x, epoch).is_empty()
    }

    /// Sum of the out-edge weights of `v` at `epoch` (1.0 per edge when
    /// unweighted).
    pub fn weight_sum_at(&self, v: VertexId, epoch: u64) -> f64 {
        self.with_row(v, epoch, |row| {
            let mut total = 0.0f64;
            row.for_each(|e| total += f64::from(e.weight));
            total
        })
    }

    /// Walks the out-edges of `v` at `epoch` in merged-row order.
    pub fn for_each_edge_at(&self, v: VertexId, epoch: u64, mut f: impl FnMut(EdgeView)) {
        self.with_row(v, epoch, |row| {
            let mut i = 0usize;
            row.for_each(|e| {
                f(EdgeView {
                    src: v,
                    dst: e.dst,
                    weight: e.weight,
                    edge_type: e.edge_type,
                    index: i,
                });
                i += 1;
            });
        });
    }

    /// Total edge count at `epoch` (an O(V) scan over row versions).
    pub fn edge_count_at(&self, epoch: u64) -> u64 {
        let inner = self.inner.read().expect("dyn lock poisoned");
        (0..self.vertex_count() as VertexId)
            .map(|v| self.view(&inner.rows[v as usize], v, epoch).degree() as u64)
            .sum()
    }

    /// Validates a batch against the base's shape and flags, without
    /// applying anything. Independent of vertex ownership: every rank of
    /// a distributed apply accepts or rejects a batch identically.
    ///
    /// # Errors
    ///
    /// See [`DynError`].
    pub fn validate(&self, batch: &UpdateBatch) -> Result<(), DynError> {
        let n = self.vertex_count();
        let check_v = |vertex: VertexId| {
            if (vertex as usize) < n {
                Ok(())
            } else {
                Err(DynError::VertexOutOfRange {
                    vertex,
                    vertex_count: n,
                })
            }
        };
        for a in &batch.adds {
            check_v(a.src)?;
            check_v(a.dst)?;
            if !a.weight.is_finite() || a.weight < 0.0 {
                return Err(DynError::InvalidWeight {
                    src: a.src,
                    dst: a.dst,
                    weight: a.weight,
                });
            }
            if !self.is_weighted() && a.weight != 1.0 {
                return Err(DynError::WeightOnUnweighted {
                    src: a.src,
                    dst: a.dst,
                });
            }
            if !self.is_typed() && a.edge_type != 0 {
                return Err(DynError::TypeOnUntyped {
                    src: a.src,
                    dst: a.dst,
                });
            }
        }
        for d in &batch.dels {
            check_v(d.src)?;
            check_v(d.dst)?;
        }
        for r in &batch.reweights {
            check_v(r.src)?;
            check_v(r.dst)?;
            if !self.is_weighted() {
                return Err(DynError::ReweightUnweighted {
                    src: r.src,
                    dst: r.dst,
                });
            }
            if !r.weight.is_finite() || r.weight < 0.0 {
                return Err(DynError::InvalidWeight {
                    src: r.src,
                    dst: r.dst,
                    weight: r.weight,
                });
            }
        }
        Ok(())
    }

    /// Applies a batch under the next epoch, touching every source
    /// vertex. The single-owner (non-distributed) entry point.
    ///
    /// # Errors
    ///
    /// Fails with [`DynError`] (graph untouched) on an invalid batch.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<AppliedUpdate, DynError> {
        let epoch = self.epoch() + 1;
        self.apply_at(epoch, batch, &|_| true)
    }

    /// Applies a batch stamped with `epoch`, rebuilding only the rows of
    /// source vertices selected by `keep` — each rank of a distributed
    /// apply passes its ownership predicate, so every rank applies the
    /// same batch under the same epoch in lockstep while rebuilding only
    /// its own partition.
    ///
    /// `epoch` must be at least the current epoch + 1 on the first call;
    /// re-applying at the current epoch is idempotent (vertices already
    /// stamped are skipped), which lets in-process ranks share one
    /// instance.
    ///
    /// # Errors
    ///
    /// Fails with [`DynError`] (graph untouched) on an invalid batch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is older than the current epoch — updates apply
    /// in order.
    pub fn apply_at(
        &self,
        epoch: u64,
        batch: &UpdateBatch,
        keep: &dyn Fn(VertexId) -> bool,
    ) -> Result<AppliedUpdate, DynError> {
        self.validate(batch)?;

        // Fold the batch into per-vertex op lists, preserving batch
        // order within each kind. BTreeMap: vertices process in sorted
        // order, so `touched` comes out sorted.
        #[derive(Default)]
        struct VertexOps {
            dels: Vec<VertexId>,
            adds: Vec<AddEdge>,
            rews: Vec<(VertexId, Weight)>,
        }
        let mut ops: BTreeMap<VertexId, VertexOps> = BTreeMap::new();
        for d in &batch.dels {
            if keep(d.src) {
                ops.entry(d.src).or_default().dels.push(d.dst);
            }
        }
        for a in &batch.adds {
            if keep(a.src) {
                ops.entry(a.src).or_default().adds.push(AddEdge {
                    dst: a.dst,
                    weight: a.weight,
                    edge_type: a.edge_type,
                });
            }
        }
        for r in &batch.reweights {
            if keep(r.src) {
                ops.entry(r.src).or_default().rews.push((r.dst, r.weight));
            }
        }

        let mut inner = self.inner.write().expect("dyn lock poisoned");
        assert!(
            epoch >= inner.epoch,
            "update epoch {epoch} is older than the graph's epoch {} — \
             updates must apply in order",
            inner.epoch
        );

        let mut touched = Vec::with_capacity(ops.len());
        for (v, vops) in &ops {
            let v = *v;
            let rows = &inner.rows[v as usize];
            if rows.last().is_some_and(|rv| rv.epoch >= epoch) {
                // Already stamped at (or past) this epoch: a shared
                // in-process instance saw another rank apply it.
                continue;
            }

            // Current head view (underlying + cumulative overlay).
            let head = self.view(rows, v, u64::MAX);
            let und = head.und;
            let mut ov = head.ov.cloned().unwrap_or_default();

            // Deletions: tombstone all live underlying instances, drop
            // appended instances, forget overrides of killed edges.
            for &dst in &vops.dels {
                let lo = und.targets.partition_point(|&t| t < dst);
                let hi = und.targets.partition_point(|&t| t <= dst);
                for k in lo..hi {
                    let k = k as u32;
                    if let Err(pos) = ov.dead.binary_search(&k) {
                        ov.dead.insert(pos, k);
                    }
                }
                ov.adds.retain(|e| e.dst != dst);
                ov.rew.retain(|&(k, _)| ov.dead.binary_search(&k).is_err());
            }

            // Additions: destination-sorted insert, stable after
            // existing instances of the same destination.
            for &a in &vops.adds {
                let pos = ov.adds.partition_point(|e| e.dst <= a.dst);
                ov.adds.insert(pos, a);
            }

            // Reweights: override every live underlying instance, set
            // appended instances (including ones added by this batch)
            // directly.
            for &(dst, w) in &vops.rews {
                let lo = und.targets.partition_point(|&t| t < dst);
                let hi = und.targets.partition_point(|&t| t <= dst);
                for k in lo..hi {
                    let k = k as u32;
                    if ov.dead.binary_search(&k).is_ok() {
                        continue;
                    }
                    match ov.rew.binary_search_by_key(&k, |&(i, _)| i) {
                        Ok(p) => ov.rew[p].1 = w,
                        Err(p) => ov.rew.insert(p, (k, w)),
                    }
                }
                for e in ov.adds.iter_mut().filter(|e| e.dst == dst) {
                    e.weight = w;
                }
            }

            // Compaction: fold the overlay into a fresh full row when
            // the deltas outgrow the configured fraction of the
            // underlying row.
            let und_deg = und.targets.len().max(1);
            let kind = if ov.delta_len() as f64 > self.cfg.compact_ratio * und_deg as f64 {
                let full =
                    RowView { und, ov: Some(&ov) }.compact(self.is_weighted(), self.is_typed());
                inner.compactions += 1;
                RowKind::Full(full)
            } else {
                RowKind::Overlay(ov)
            };
            inner.rows[v as usize].push(RowVersion { epoch, kind });
            inner.rows_rebuilt += 1;
            touched.push(v);
        }

        inner.epoch = inner.epoch.max(epoch);
        Ok(AppliedUpdate { epoch, touched })
    }

    /// Materializes the graph at `epoch` into a standalone CSR. The
    /// result is **byte-identical** to what a pinned reader at that
    /// epoch observes edge-by-edge — the anchor of the determinism
    /// invariant, and the offline path `kk graph apply` uses.
    pub fn materialize_at(&self, epoch: u64) -> CsrGraph {
        let n = self.vertex_count();
        let mut b = GraphBuilder::directed(n);
        if self.is_weighted() {
            b = b.with_weights();
        }
        if self.is_typed() {
            b = b.with_edge_types();
        }
        let inner = self.inner.read().expect("dyn lock poisoned");
        for v in 0..n as VertexId {
            self.view(&inner.rows[v as usize], v, epoch)
                .for_each(|e| b.add_full_edge(v, e.dst, e.weight, e.edge_type));
        }
        drop(inner);
        b.build()
    }

    /// Materializes the current epoch.
    pub fn materialize(&self) -> CsrGraph {
        self.materialize_at(self.epoch())
    }

    /// Drops row versions no live reader can observe: given the minimum
    /// epoch still pinned by any in-flight walker (and below any future
    /// admission), keeps — per vertex — the version such a reader
    /// resolves to, the full row it references, and everything newer.
    /// Idempotent; safe to call from several in-process ranks sharing
    /// one instance.
    pub fn retire(&self, watermark: u64) {
        let mut inner = self.inner.write().expect("dyn lock poisoned");
        for rows in &mut inner.rows {
            if rows.is_empty() {
                continue;
            }
            let n = rows.partition_point(|rv| rv.epoch <= watermark);
            if n == 0 {
                continue;
            }
            let idx = n - 1;
            let keep_full = match &rows[idx].kind {
                RowKind::Overlay(_) => rows[..idx]
                    .iter()
                    .rposition(|rv| matches!(rv.kind, RowKind::Full(_))),
                RowKind::Full(_) => None,
            };
            let mut i = 0;
            rows.retain(|_| {
                let keep = i >= idx || Some(i) == keep_full;
                i += 1;
                keep
            });
        }
    }
}

impl std::fmt::Debug for DynGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("DynGraph")
            .field("vertices", &self.vertex_count())
            .field("base_edges", &self.base.edge_count())
            .field("epoch", &stats.epoch)
            .field("versions", &stats.versions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeAdd, EdgeRef, EdgeReweight};

    /// base: 0->{1,2}, 1->{2}, 2->{0} (weighted)
    fn weighted_base() -> CsrGraph {
        let mut b = GraphBuilder::directed(3).with_weights();
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(0, 2, 2.0);
        b.add_weighted_edge(1, 2, 3.0);
        b.add_weighted_edge(2, 0, 4.0);
        b.build()
    }

    fn add(src: VertexId, dst: VertexId, weight: Weight) -> EdgeAdd {
        EdgeAdd {
            src,
            dst,
            weight,
            edge_type: 0,
        }
    }

    /// Asserts the dynamic view at `epoch` equals `expect` edge-by-edge
    /// — and that the materialized CSR at that epoch agrees exactly.
    fn assert_row(g: &DynGraph, v: VertexId, epoch: u64, expect: &[(VertexId, Weight)]) {
        assert_eq!(g.degree_at(v, epoch), expect.len(), "degree of {v}");
        for (i, &(dst, w)) in expect.iter().enumerate() {
            let e = g.edge_at(v, i, epoch);
            assert_eq!((e.dst, e.weight), (dst, w), "edge {i} of {v}");
        }
        let m = g.materialize_at(epoch);
        assert_eq!(m.degree(v), expect.len(), "materialized degree of {v}");
        for (i, &(dst, w)) in expect.iter().enumerate() {
            let e = m.edge(v, i);
            assert_eq!((e.dst, e.weight), (dst, w), "materialized edge {i} of {v}");
        }
    }

    #[test]
    fn epoch_pinned_readers_see_consistent_snapshots() {
        let g = DynGraph::new(weighted_base(), DynConfig::default());
        assert_eq!(g.epoch(), 0);
        let applied = g
            .apply(&UpdateBatch {
                adds: vec![add(0, 0, 5.0)],
                dels: vec![EdgeRef { src: 0, dst: 2 }],
                reweights: vec![EdgeReweight {
                    src: 1,
                    dst: 2,
                    weight: 9.0,
                }],
            })
            .unwrap();
        assert_eq!(applied.epoch, 1);
        assert_eq!(applied.touched, vec![0, 1]);

        // Epoch 0 still reads the base graph.
        assert_row(&g, 0, 0, &[(1, 1.0), (2, 2.0)]);
        assert_row(&g, 1, 0, &[(2, 3.0)]);
        // Epoch 1 sees the update.
        assert_row(&g, 0, 1, &[(0, 5.0), (1, 1.0)]);
        assert_row(&g, 1, 1, &[(2, 9.0)]);
        assert_row(&g, 2, 1, &[(0, 4.0)]);
    }

    #[test]
    fn delete_then_add_same_pair_replaces() {
        let g = DynGraph::new(weighted_base(), DynConfig::default());
        g.apply(&UpdateBatch {
            adds: vec![add(0, 2, 7.0)],
            dels: vec![EdgeRef { src: 0, dst: 2 }],
            reweights: vec![],
        })
        .unwrap();
        assert_row(&g, 0, 1, &[(1, 1.0), (2, 7.0)]);
    }

    #[test]
    fn parallel_edges_preserve_order() {
        let g = DynGraph::new(
            weighted_base(),
            DynConfig {
                compact_ratio: f64::INFINITY,
            },
        );
        g.apply(&UpdateBatch {
            adds: vec![add(0, 1, 10.0), add(0, 1, 11.0)],
            dels: vec![],
            reweights: vec![],
        })
        .unwrap();
        // Underlying first, then appended in insertion order.
        assert_row(&g, 0, 1, &[(1, 1.0), (1, 10.0), (1, 11.0), (2, 2.0)]);
        assert_eq!(g.edge_range_at(0, 1, 1), 0..3);
        assert_eq!(g.find_edge_at(0, 1, 1), Some(0));
        assert!(g.has_edge_at(0, 1, 1));
        assert_eq!(g.weight_sum_at(0, 1), 24.0);
    }

    #[test]
    fn compaction_threshold_zero_compacts_every_touch() {
        let g = DynGraph::new(weighted_base(), DynConfig { compact_ratio: 0.0 });
        g.apply(&UpdateBatch {
            adds: vec![add(2, 1, 1.5)],
            dels: vec![],
            reweights: vec![],
        })
        .unwrap();
        let stats = g.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.rows_rebuilt, 1);
        assert_eq!(stats.versions, 1);
        assert_row(&g, 2, 1, &[(0, 4.0), (1, 1.5)]);
    }

    #[test]
    fn rebuilds_count_touched_vertices_only() {
        let g = DynGraph::new(weighted_base(), DynConfig::default());
        g.apply(&UpdateBatch {
            adds: vec![add(0, 0, 1.0), add(0, 1, 2.0), add(2, 2, 3.0)],
            dels: vec![],
            reweights: vec![],
        })
        .unwrap();
        // Two distinct sources touched → exactly two rows rebuilt.
        assert_eq!(g.stats().rows_rebuilt, 2);
    }

    #[test]
    fn shared_instance_partitioned_apply_is_idempotent() {
        // Two in-process "ranks" share the instance and each apply the
        // same batch at the same epoch with their own keep predicate.
        let g = DynGraph::new(weighted_base(), DynConfig::default());
        let batch = UpdateBatch {
            adds: vec![add(0, 0, 1.0), add(2, 1, 2.0)],
            dels: vec![],
            reweights: vec![],
        };
        let a0 = g.apply_at(1, &batch, &|v| v < 2).unwrap();
        let a1 = g.apply_at(1, &batch, &|v| v >= 2).unwrap();
        // And a straggler re-applying changes nothing.
        let again = g.apply_at(1, &batch, &|_| true).unwrap();
        assert_eq!(a0.touched, vec![0]);
        assert_eq!(a1.touched, vec![2]);
        assert!(again.touched.is_empty());
        assert_eq!(g.stats().rows_rebuilt, 2);
        assert_row(&g, 0, 1, &[(0, 1.0), (1, 1.0), (2, 2.0)]);
        assert_row(&g, 2, 1, &[(0, 4.0), (1, 2.0)]);
    }

    #[test]
    fn retire_drops_unreachable_versions() {
        let g = DynGraph::new(
            weighted_base(),
            DynConfig {
                compact_ratio: f64::INFINITY,
            },
        );
        for e in 1..=4u64 {
            g.apply(&UpdateBatch {
                adds: vec![add(0, 2, e as f32)],
                dels: vec![],
                reweights: vec![],
            })
            .unwrap();
            assert_eq!(g.epoch(), e);
        }
        assert_eq!(g.stats().versions, 4);
        let before = g.materialize_at(3);
        g.retire(3);
        // Epoch-3 and epoch-4 readers are unaffected.
        let after = g.materialize_at(3);
        assert_eq!(before.edge_count(), after.edge_count());
        assert_eq!(g.degree_at(0, 3), 5);
        assert_eq!(g.degree_at(0, 4), 6);
        assert_eq!(g.stats().versions, 2);
    }

    #[test]
    fn validation_rejects_bad_batches_atomically() {
        let g = DynGraph::new(weighted_base(), DynConfig::default());
        let err = g
            .apply(&UpdateBatch {
                adds: vec![add(0, 1, 1.0), add(0, 99, 1.0)],
                dels: vec![],
                reweights: vec![],
            })
            .unwrap_err();
        assert_eq!(
            err,
            DynError::VertexOutOfRange {
                vertex: 99,
                vertex_count: 3
            }
        );
        // Nothing applied, epoch unchanged.
        assert_eq!(g.epoch(), 0);
        assert_eq!(g.stats().rows_rebuilt, 0);

        let err = g
            .apply(&UpdateBatch {
                adds: vec![add(0, 1, f32::NAN)],
                dels: vec![],
                reweights: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, DynError::InvalidWeight { .. }));
    }

    #[test]
    fn unweighted_base_rejects_weights_and_reweights() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 1);
        let g = DynGraph::new(b.build(), DynConfig::default());
        assert!(matches!(
            g.apply(&UpdateBatch {
                adds: vec![add(0, 1, 2.0)],
                dels: vec![],
                reweights: vec![],
            }),
            Err(DynError::WeightOnUnweighted { .. })
        ));
        assert!(matches!(
            g.apply(&UpdateBatch {
                adds: vec![],
                dels: vec![],
                reweights: vec![EdgeReweight {
                    src: 0,
                    dst: 1,
                    weight: 2.0
                }],
            }),
            Err(DynError::ReweightUnweighted { .. })
        ));
        // Unit-weight adds are fine, and the merged row stays
        // unweighted (weight defaults to 1.0).
        g.apply(&UpdateBatch {
            adds: vec![add(0, 0, 1.0)],
            dels: vec![],
            reweights: vec![],
        })
        .unwrap();
        assert!(!g.materialize().is_weighted());
        assert_eq!(g.edge_at(0, 0, 1).weight, 1.0);
    }

    #[test]
    fn deleting_missing_edges_is_a_noop() {
        let g = DynGraph::new(weighted_base(), DynConfig::default());
        g.apply(&UpdateBatch {
            adds: vec![],
            dels: vec![EdgeRef { src: 1, dst: 0 }],
            reweights: vec![],
        })
        .unwrap();
        assert_eq!(g.epoch(), 1);
        assert_row(&g, 1, 1, &[(2, 3.0)]);
    }
}
