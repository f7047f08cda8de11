//! `knightking-sampling`: draw, build and maintenance cost of the three
//! static-component samplers, by degree bucket, on rows of the
//! workload's own graph.
//!
//! A draw loop cycles through every table of its bucket, so consecutive
//! draws touch different tables; how cold that is depends on the pool's
//! size against the last-level cache, which the notes state.

use std::hint::black_box;
use std::time::Instant;

use knightking_graph::{CsrGraph, VertexId};
use knightking_sampling::{AliasTable, CdfTable, DeterministicRng, Envelope, RadixTable};

use super::{time_per_call, TENTHS};
use crate::inputs::{self, Stream};
use crate::report::Ctx;
use crate::span::SpanId;
use crate::stats::Samples;

const DRAWS: usize = 1_000_000;
const ROUNDS: usize = 10;

struct Bucket {
    name: &'static str,
    /// Degree range, inclusive.
    lo: usize,
    hi: usize,
    /// Most tables a pool holds.
    cap: usize,
}

const BUCKETS: [Bucket; 3] = [
    Bucket {
        name: "lo",
        lo: 1,
        hi: 8,
        cap: 65_536,
    },
    Bucket {
        name: "mid",
        lo: 64,
        hi: 256,
        cap: 16_384,
    },
    Bucket {
        name: "hub",
        lo: 4_096,
        hi: usize::MAX,
        cap: 64,
    },
];

fn weights_of(graph: &CsrGraph, v: VertexId) -> Vec<f64> {
    match graph.edge_weights(v) {
        Some(w) => w.iter().map(|&x| x as f64).collect(),
        None => vec![1.0; graph.degree(v)],
    }
}

/// Rows of one bucket, in vertex order. A graph too small to have hubs
/// of degree 4 096 lends its highest-degree rows instead.
fn rows_of(graph: &CsrGraph, b: &Bucket) -> Vec<Vec<f64>> {
    let n = graph.vertex_count() as VertexId;
    let mut vs: Vec<VertexId> = (0..n)
        .filter(|&v| (b.lo..=b.hi).contains(&graph.degree(v)))
        .take(b.cap)
        .collect();
    if vs.is_empty() {
        let mut all: Vec<VertexId> = (0..n).collect();
        all.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
        vs = all.into_iter().take(8).collect();
    }
    vs.into_iter().map(|v| weights_of(graph, v)).collect()
}

struct Built<T> {
    tables: Vec<T>,
    build_ns: u64,
}

fn build<T>(rows: &[Vec<f64>], new: impl Fn(&[f64]) -> T) -> Built<T> {
    let begin = Instant::now();
    let tables = rows.iter().map(|r| new(r)).collect();
    Built {
        tables,
        build_ns: begin.elapsed().as_nanos() as u64,
    }
}

fn draw_loop<T>(
    tables: &[T],
    rng: &mut DeterministicRng,
    sample: impl Fn(&T, &mut DeterministicRng) -> usize,
) -> Samples {
    let mut i = 0usize;
    time_per_call(ROUNDS, DRAWS, || {
        black_box(sample(&tables[i], rng));
        i += 1;
        if i == tables.len() {
            i = 0;
        }
    })
}

pub fn probe(ctx: &mut Ctx, parent: SpanId, graph: &CsrGraph) {
    let span = ctx.tracer.begin("layers.sampling", parent);
    let mut rng = inputs::rng(ctx.seed, Stream::Probe);
    let mut edges = 0u64;
    let (mut alias_ns, mut its_ns, mut radix_ns) = (0u64, 0u64, 0u64);
    let (mut alias_b, mut its_b, mut radix_b) = (0usize, 0usize, 0usize);

    for b in &BUCKETS {
        let rows = rows_of(graph, b);
        let row_edges: u64 = rows.iter().map(|r| r.len() as u64).sum();
        edges += row_edges;
        let alias = build(&rows, |w| {
            AliasTable::new(w).expect("graph rows have positive weights")
        });
        let its = build(&rows, |w| {
            CdfTable::new(w).expect("graph rows have positive weights")
        });
        let mut radix = build(&rows, |w| {
            RadixTable::new(w).expect("graph rows have positive weights")
        });
        alias_ns += alias.build_ns;
        its_ns += its.build_ns;
        radix_ns += radix.build_ns;
        alias_b += alias
            .tables
            .iter()
            .map(AliasTable::heap_bytes)
            .sum::<usize>();
        its_b += its.tables.iter().map(CdfTable::heap_bytes).sum::<usize>();
        radix_b += radix
            .tables
            .iter()
            .map(RadixTable::heap_bytes)
            .sum::<usize>();
        ctx.note(format!(
            "sampling: bucket {} holds {} tables, {} edges, mean degree {:.0}",
            b.name,
            rows.len(),
            row_edges,
            row_edges as f64 / rows.len() as f64
        ));

        let s = draw_loop(&alias.tables, &mut rng, AliasTable::sample);
        ctx.put_samples(&format!("sampling.alias.draw_ns.{}", b.name), &s, TENTHS);
        let s = draw_loop(&its.tables, &mut rng, CdfTable::sample);
        ctx.put_samples(&format!("sampling.its.draw_ns.{}", b.name), &s, TENTHS);
        let s = draw_loop(&radix.tables, &mut rng, RadixTable::sample);
        ctx.put_samples(&format!("sampling.radix.draw_ns.{}", b.name), &s, TENTHS);

        if b.name != "lo" {
            // Maintenance after one edge's weight changes: alias rebuilds
            // the whole row, radix patches one leaf-to-root path.
            let mut i = 0usize;
            let rebuilds =
                (200_000 / (row_edges / rows.len() as u64).max(1) as usize).clamp(50, 2_000);
            let s = time_per_call(ROUNDS, rebuilds, || {
                black_box(AliasTable::new(&rows[i % rows.len()]).expect("valid row"));
                i += 1;
            });
            ctx.put_samples(&format!("sampling.alias.rebuild_ns.{}", b.name), &s, TENTHS);
            let mut i = 0usize;
            let n_tables = radix.tables.len();
            let s = time_per_call(ROUNDS, 200_000, || {
                let t = &mut radix.tables[i % n_tables];
                let idx = (i / n_tables) % t.len();
                t.reweight(idx, 1.0 + (i % 40) as f64 * 0.1);
                i += 1;
            });
            ctx.put_samples(
                &format!("sampling.radix.reweight_ns.{}", b.name),
                &s,
                TENTHS,
            );
        }
    }

    let per_edge = |ns: u64| ns as f64 / edges.max(1) as f64;
    ctx.put1("sampling.alias.build_ns_per_edge", per_edge(alias_ns));
    ctx.put1("sampling.its.build_ns_per_edge", per_edge(its_ns));
    ctx.put1("sampling.radix.build_ns_per_edge", per_edge(radix_ns));
    // Computed from `heap_bytes()`, not measured.
    ctx.put1(
        "sampling.bytes_per_edge.alias",
        alias_b as f64 / edges.max(1) as f64,
    );
    ctx.put1(
        "sampling.bytes_per_edge.its",
        its_b as f64 / edges.max(1) as f64,
    );
    ctx.put1(
        "sampling.bytes_per_edge.radix",
        radix_b as f64 / edges.max(1) as f64,
    );
    ctx.note(format!(
        "sampling: table pools total alias {:.1} MB, its {:.1} MB, radix {:.1} MB; last-level cache {}",
        alias_b as f64 / 1e6,
        its_b as f64 / 1e6,
        radix_b as f64 / 1e6,
        llc()
    ));

    // The node2vec board at p = 2, q = 0.5: envelope 1/q, floor 1/p.
    let board = Envelope {
        q: 2.0,
        lower: 0.5,
        static_total: 192.0,
        outliers: Vec::new(),
    };
    let s = time_per_call(ROUNDS, DRAWS, || {
        black_box(board.draw(&mut rng));
    });
    ctx.put_samples("sampling.envelope.draw_ns", &s, TENTHS);
    let s = time_per_call(ROUNDS, 4 * DRAWS, || {
        black_box(rng.next_u64());
    });
    ctx.put_samples("sampling.rng.next_ns", &s, TENTHS);
    ctx.tracer.end(span);
}

/// The last-level cache size as sysfs states it.
fn llc() -> String {
    (0..=4)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
