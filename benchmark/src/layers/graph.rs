//! `knightking-graph`: generation, the KKG binary format, partition
//! extraction, and the CSR's size.

use std::time::Instant;

use knightking_graph::binfmt::{read_binary, write_binary};
use knightking_graph::{CsrGraph, Partition};

use crate::report::Ctx;
use crate::span::SpanId;
use crate::stats::Samples;

pub fn probe(ctx: &mut Ctx, parent: SpanId, graph: &CsrGraph, gen_ns: &[u64]) {
    let span = ctx.tracer.begin("layers.graph", parent);
    ctx.put_samples("graph.gen_s", &Samples::new(gen_ns.to_vec()), 1e-9);

    // KKG round trip through memory: the format's encode and decode
    // cost without the disk's.
    let mut bytes = Vec::new();
    let begin = Instant::now();
    write_binary(graph, &mut bytes).expect("write KKG to memory");
    let write_s = begin.elapsed().as_secs_f64();
    let begin = Instant::now();
    let loaded = read_binary(bytes.as_slice()).expect("read KKG back");
    ctx.put1("graph.kkg_load_s", begin.elapsed().as_secs_f64());
    ctx.check(loaded.edge_count() == graph.edge_count(), || {
        "KKG round trip lost edges".into()
    });
    ctx.note(format!(
        "graph: KKG image {:.1} MB, written in {write_s:.3} s",
        bytes.len() as f64 / 1e6
    ));
    drop((loaded, bytes));

    // Computed from array sizes, not measured.
    ctx.put1(
        "graph.bytes_per_edge",
        graph.heap_bytes() as f64 / graph.edge_count().max(1) as f64,
    );

    let begin = Instant::now();
    let partition = Partition::balanced(graph, 2, 1.0);
    let local = partition.extract_local(graph, 0);
    ctx.put1("graph.extract_local_s", begin.elapsed().as_secs_f64());
    std::hint::black_box(local);
    ctx.tracer.end(span);
}
