//! `knightking-dyn`: the workload's own update batches replayed offline
//! on a fresh `DynGraph` (apply cost, row reads through an overlay,
//! materialization), plus the sampler-maintenance counters the service
//! reported while those batches were live.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use knightking_dyn::{DynConfig, DynGraph, UpdateBatch};
use knightking_graph::{CsrGraph, VertexId};
use knightking_serve::StatsReport;

use super::{time_per_call, TENTHS};
use crate::loadgen::PhaseOut;
use crate::report::Ctx;
use crate::span::SpanId;
use crate::stats::Samples;

/// Sampler maintenance per applied batch over phase A, and the furthest
/// a pinned walker lagged the live epoch in the phase's snapshots.
pub fn report_from_stats(ctx: &mut Ctx, before: &StatsReport, after: &StatsReport, a: &PhaseOut) {
    let batches = (after.updates - before.updates).max(1) as f64;
    ctx.put1(
        "dyn.sampler_rebuilds_per_batch",
        (after.sampler_rebuilds - before.sampler_rebuilds) as f64 / batches,
    );
    ctx.put1(
        "dyn.sampler_rebuild_cost_per_batch",
        (after.sampler_rebuild_cost - before.sampler_rebuild_cost) as f64 / batches,
    );
    let lag = Samples::new(a.stats.iter().map(|s| s.pinned_lag).collect());
    ctx.put("dyn.pinned_lag_max", lag.max() as f64, lag.summary());
}

/// Mean nanoseconds to read one row (every edge of it) at `epoch`.
fn row_read_ns(graph: &DynGraph, rows: &[VertexId], epoch: u64) -> Samples {
    let mut i = 0usize;
    time_per_call(10, 50_000.min(rows.len() * 20).max(10), || {
        let mut acc = 0u64;
        graph.for_each_edge_at(rows[i % rows.len()], epoch, |e| acc += e.dst as u64);
        black_box(acc);
        i += 1;
    })
}

pub fn probe(ctx: &mut Ctx, parent: SpanId, base: &CsrGraph, batches: &[UpdateBatch]) {
    let span = ctx.tracer.begin("layers.dyn", parent);
    let graph = DynGraph::new(base.clone(), DynConfig::default());
    let mut apply_ns = Vec::with_capacity(batches.len());
    let mut touched: BTreeSet<VertexId> = BTreeSet::new();
    for batch in batches {
        let begin = Instant::now();
        let applied = graph
            .apply(batch)
            .expect("the workload's batches are valid");
        apply_ns.push(begin.elapsed().as_nanos() as u64);
        touched.extend(applied.touched);
    }
    let s = Samples::new(apply_ns);
    ctx.put_samples("dyn.apply_us_per_batch", &s, 1e-3);
    let stats = graph.stats();
    // Row rebuilds that stayed overlays rather than compacting into a
    // full row. Exact for one seed.
    ctx.put1(
        "dyn.overlay_rows",
        (stats.rows_rebuilt - stats.compactions) as f64,
    );
    ctx.put1("dyn.compactions", stats.compactions as f64);

    // Rows the batches touched are read through their newest version;
    // untouched rows of similar degree come straight from the base CSR.
    let epoch = graph.epoch();
    let over: Vec<VertexId> = touched.iter().copied().collect();
    let mean_deg = over.iter().map(|&v| base.degree(v)).sum::<usize>() / over.len().max(1);
    let plain: Vec<VertexId> = (0..base.vertex_count() as VertexId)
        .filter(|v| {
            !touched.contains(v)
                && base.degree(*v) >= mean_deg / 2
                && base.degree(*v) <= mean_deg * 2
        })
        .take(over.len().max(16))
        .collect();
    if !over.is_empty() && !plain.is_empty() {
        let s = row_read_ns(&graph, &plain, epoch);
        ctx.put_samples("dyn.row_read_ns.base", &s, TENTHS);
        let s = row_read_ns(&graph, &over, epoch);
        ctx.put_samples("dyn.row_read_ns.overlay", &s, TENTHS);
        ctx.note(format!(
            "dyn: {} batches replayed, {} rows touched (mean base degree {mean_deg}), {} untouched rows of comparable degree read for contrast",
            batches.len(),
            over.len(),
            plain.len()
        ));
    }
    let begin = Instant::now();
    black_box(graph.materialize_at(epoch));
    ctx.put1("dyn.materialize_s", begin.elapsed().as_secs_f64());
    ctx.tracer.end(span);
}
