//! The batch workloads: `batch_deepwalk` (1 rank x 2 threads, in
//! process) and `batch_node2vec_2rank` (2 ranks x 1 thread, each rank a
//! thread driving a `TcpTransport` over loopback).
//!
//! One "request" of a batch workload is one `run()` /
//! `run_distributed()` call: its wall time is what a `kk walk` user
//! waits for, table build included.

use std::time::Instant;

use knightking_cluster::metrics::MetricCounts;
use knightking_core::{
    RandomWalkEngine, WalkConfig, WalkMetrics, WalkResult, WalkerProgram, WalkerStarts,
};
use knightking_graph::CsrGraph;
use knightking_net::TcpTransport;
use knightking_walks::{DeepWalk, Node2Vec};

use crate::inputs::{self, Stream};
use crate::layers;
use crate::report::{peak_rss_mb, Ctx};
use crate::span::{SpanId, ROOT};
use crate::stats::Samples;

/// Scale of the batch graph: 262 144 vertices, 8 388 608 stored edges.
/// CSR is ~69 MB and the alias tables ~100 MB — several times the
/// last-level cache, so draws miss.
const SCALE: u32 = 18;
const QUICK_SCALE: u32 = 12;
/// Scale of the side graph the path checks run on.
const CHECK_SCALE: u32 = 12;
const WALK_LEN: u32 = 80;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

pub fn deepwalk(ctx: &mut Ctx) {
    run(ctx, DeepWalk::new(WALK_LEN), false);
}

pub fn node2vec_2rank(ctx: &mut Ctx) {
    run(ctx, Node2Vec::new(2.0, 0.5, WALK_LEN), true);
}

/// How a workload executes one rep.
enum Exec {
    /// `engine.run`: ranks are simulated in process.
    InProcess,
    /// `engine.run_distributed` on two threads over loopback TCP. The
    /// mesh's traffic counters are cumulative, so `seen` remembers what
    /// earlier reps sent and each rep reports its own share.
    Tcp {
        pair: Box<(TcpTransport, TcpTransport)>,
        seen: MetricCounts,
    },
}

impl Exec {
    fn tcp(epoch: u64) -> Exec {
        Exec::Tcp {
            pair: Box::new(layers::net::establish_pair(epoch)),
            seen: MetricCounts::default(),
        }
    }
}

/// Ranks x threads of either batch workload.
const WORKERS: usize = 2;

/// One walker per vertex for the 1-rank workload, |V|/4 for the 2-rank.
fn starts_for(graph: &CsrGraph, two_rank: bool) -> WalkerStarts {
    if two_rank {
        WalkerStarts::Count(graph.vertex_count() as u64 / 4)
    } else {
        WalkerStarts::PerVertex
    }
}

struct Rep {
    wall_ns: u64,
    result: WalkResult,
}

fn one_rep<P: WalkerProgram>(
    ctx: &mut Ctx,
    parent: SpanId,
    name: &str,
    engine: &RandomWalkEngine<'_, P>,
    exec: &mut Exec,
    starts: &WalkerStarts,
) -> Rep {
    let span = ctx.tracer.begin(name, parent);
    let begin = Instant::now();
    let result = match exec {
        Exec::InProcess => engine.run(starts.clone()),
        Exec::Tcp { pair, seen } => {
            let (t0, t1) = &mut **pair;
            let (result, rank1) = std::thread::scope(|s| {
                let h = s.spawn(|| {
                    let b = Instant::now();
                    let none = engine.run_distributed(t1, starts.clone());
                    assert!(none.is_none(), "rank 1 must not receive the result");
                    (b, Instant::now())
                });
                let b = Instant::now();
                let r = engine
                    .run_distributed(t0, starts.clone())
                    .expect("rank 0 assembles the result");
                let rank0 = (b, Instant::now());
                (r, (rank0, h.join().expect("rank 1 thread")))
            });
            let ((b0, e0), (b1, e1)) = rank1;
            let (b0, e0, b1, e1) = (
                ctx.tracer.at(b0),
                ctx.tracer.at(e0),
                ctx.tracer.at(b1),
                ctx.tracer.at(e1),
            );
            ctx.tracer.record("rank0.run_distributed", span, b0, e0, 0);
            ctx.tracer.record("rank1.run_distributed", span, b1, e1, 0);
            let mut result = result;
            let total = result.comm;
            result.comm = MetricCounts {
                messages: total.messages - seen.messages,
                bytes: total.bytes - seen.bytes,
                exchanges: total.exchanges - seen.exchanges,
            };
            *seen = total;
            result
        }
    };
    let wall_ns = begin.elapsed().as_nanos() as u64;
    ctx.tracer.end(span);
    Rep { wall_ns, result }
}

fn run<P: WalkerProgram + Copy>(ctx: &mut Ctx, program: P, two_rank: bool) {
    let root = ctx.tracer.begin("workload", ROOT);
    let scale = if ctx.quick { QUICK_SCALE } else { SCALE };
    let (ranks, threads) = if two_rank { (2, 1) } else { (1, WORKERS) };
    let mut cfg = WalkConfig::with_nodes(ranks, inputs::derive(ctx.seed, Stream::Engine));
    cfg.threads_per_node = threads;
    cfg.record_paths = false;

    // Set-up, several times over; the last one is kept and measured on.
    let setups = if ctx.traced || ctx.quick { 1 } else { SETUPS };
    let mut setup_ns = Vec::new();
    let mut gen_ns = Vec::new();
    let mut kept = None;
    for i in 0..setups {
        drop(kept.take());
        let span = ctx.tracer.begin("setup", root);
        let begin = Instant::now();
        let graph = ctx
            .tracer
            .scope("graph.gen", span, |_, _| inputs::graph(ctx.seed, scale));
        gen_ns.push(begin.elapsed().as_nanos() as u64);
        let exec = if two_rank {
            ctx.tracer.scope("transport.establish", span, |_, _| {
                Exec::tcp(ctx.seed.wrapping_add(i as u64))
            })
        } else {
            Exec::InProcess
        };
        setup_ns.push(begin.elapsed().as_nanos() as u64);
        ctx.tracer.end(span);
        kept = Some((graph, exec));
    }
    let (graph, mut exec) = kept.expect("at least one set-up");
    let starts = starts_for(&graph, two_rank);
    let walkers = starts.materialize(graph.vertex_count()).len() as u64;
    let (plain, profiled) = ctx.tracer.scope("engine.new", root, |_, _| {
        let mut pcfg = cfg.clone();
        pcfg.profile = true;
        (
            RandomWalkEngine::new(&graph, program, cfg.clone()),
            RandomWalkEngine::new(&graph, program, pcfg),
        )
    });
    ctx.note(format!(
        "graph: twitter_like scale {scale}, {} vertices, {} stored edges, CSR {:.1} MB; {walkers} walkers x len {WALK_LEN}; {ranks} rank(s) x {threads} thread(s); nproc {}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.heap_bytes() as f64 / 1e6,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    ));

    // Measured window: one warm-up, then timed reps until the window is
    // spent. The traced run alternates plain and profiled reps.
    if !ctx.quick {
        one_rep(ctx, root, "engine.warmup", &plain, &mut exec, &starts);
    }
    let min_reps = if ctx.quick { 1 } else { 3 };
    let window = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut prof_reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || window.elapsed().as_secs_f64() < ctx.seconds {
        reps.push(one_rep(ctx, root, "engine.run", &plain, &mut exec, &starts));
        if ctx.traced {
            prof_reps.push(one_rep(
                ctx,
                root,
                "engine.run.profiled",
                &profiled,
                &mut exec,
                &starts,
            ));
        }
    }

    // End-to-end.
    let walls = Samples::new(reps.iter().map(|r| r.wall_ns).collect());
    let steps = reps[0].result.metrics.steps;
    let per_rep_rate: Vec<u64> = reps
        .iter()
        .map(|r| (r.result.metrics.steps as f64 / (r.wall_ns as f64 / 1e9)) as u64)
        .collect();
    ctx.put(
        "steps_per_s",
        steps as f64 / (walls.median() / 1e9),
        Samples::new(per_rep_rate).summary(),
    );
    ctx.put_samples("req_p50_ms", &walls, 1e-6);
    // Fewer than twenty calls fit a run, so no percentile above the
    // median has ten samples beyond it: the tail reported is the slowest
    // timed call.
    ctx.put(
        "req_p99_ms",
        walls.max() as f64 / 1e6,
        walls.summary().scaled(1e-6),
    );
    ctx.put_samples("setup_s", &Samples::new(setup_ns), 1e-9);

    // Checks: every walker of every rep finished, and the counters of
    // one seed repeat exactly.
    let all = || reps.iter().chain(&prof_reps);
    ctx.attempted += walkers * all().count() as u64;
    ctx.failed += all()
        .map(|r| walkers - r.result.metrics.finished_walkers.min(walkers))
        .sum::<u64>();
    let first: WalkMetrics = reps[0].result.metrics;
    let same = all().all(|r| r.result.metrics == first);
    ctx.check(same, || {
        "WalkMetrics differ between reps of one seed".into()
    });
    let span = ctx.tracer.begin("check.paths", root);
    check_paths(ctx, span, program, two_rank);
    ctx.tracer.end(span);

    if ctx.traced {
        per_layer(
            ctx, root, &graph, &plain, &mut exec, &starts, &reps, &prof_reps, &gen_ns, two_rank,
        );
    }
    drop(exec);
    ctx.tracer.end(root);
    ctx.put1("peak_rss_mb", peak_rss_mb());
    if ctx.traced {
        let self_ns = ctx.tracer.self_times()[root];
        let s = &ctx.tracer.spans()[root];
        let covered = 1.0 - self_ns as f64 / (s.end_ns - s.start_ns).max(1) as f64;
        ctx.note(format!(
            "named spans cover {:.1} % of the traced wall",
            covered * 100.0
        ));
        ctx.check(covered >= 0.95, || {
            format!(
                "span self times leave {:.1} % of wall unaccounted (limit 5 %)",
                (1.0 - covered) * 100.0
            )
        });
    }
}

/// FNV-1a over every path's length and vertices.
fn checksum(paths: &[Vec<u32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in paths {
        eat(p.len() as u32);
        p.iter().copied().for_each(&mut eat);
    }
    h
}

/// The side run: the workload's program on a scale-12 graph with paths
/// recorded, once on one in-process rank and once on two TCP ranks.
/// Every hop must be an edge and both runs must produce the same paths.
fn check_paths<P: WalkerProgram + Copy>(ctx: &mut Ctx, parent: SpanId, program: P, two_rank: bool) {
    let graph = inputs::graph(ctx.seed, CHECK_SCALE);
    let starts = starts_for(&graph, two_rank);
    let seed = inputs::derive(ctx.seed, Stream::Engine);
    let mut one = WalkConfig::with_nodes(1, seed);
    one.threads_per_node = 2;
    let single = RandomWalkEngine::new(&graph, program, one).run(starts.clone());
    let mut two = WalkConfig::with_nodes(2, seed);
    two.threads_per_node = 1;
    let engine = RandomWalkEngine::new(&graph, program, two);
    let mut exec = Exec::tcp(ctx.seed ^ 0xC4EC);
    let tcp = one_rep(ctx, parent, "check.tcp", &engine, &mut exec, &starts).result;

    let walkers = single.paths.len() as u64;
    ctx.attempted += 2 * walkers;
    let bad_hops = single
        .paths
        .iter()
        .filter(|p| {
            p.len() > WALK_LEN as usize + 1 || p.windows(2).any(|h| !graph.has_edge(h[0], h[1]))
        })
        .count() as u64;
    ctx.failed += bad_hops;
    ctx.check(bad_hops == 0, || {
        format!("{bad_hops} side-run paths take a hop that is not an edge")
    });
    ctx.check(single.metrics.finished_walkers == walkers, || {
        "side run left walkers unfinished".into()
    });
    ctx.check(checksum(&single.paths) == checksum(&tcp.paths), || {
        "path checksum differs between 1 in-process rank and 2 TCP ranks".into()
    });
}

#[allow(clippy::too_many_arguments)]
fn per_layer<P: WalkerProgram + Copy>(
    ctx: &mut Ctx,
    root: SpanId,
    graph: &CsrGraph,
    engine: &RandomWalkEngine<'_, P>,
    exec: &mut Exec,
    starts: &WalkerStarts,
    reps: &[Rep],
    prof_reps: &[Rep],
    gen_ns: &[u64],
    two_rank: bool,
) {
    let walls = Samples::new(reps.iter().map(|r| r.wall_ns).collect());
    let prof_walls = Samples::new(prof_reps.iter().map(|r| r.wall_ns).collect());
    let first = &reps[0].result;

    // core: counts from the run itself, fixed cost from one-walker runs.
    let span = ctx.tracer.begin("layers.core", root);
    let fixed: Vec<u64> = (0..3)
        .map(|_| {
            one_rep(
                ctx,
                span,
                "engine.run.one_walker",
                engine,
                exec,
                &WalkerStarts::Count(1),
            )
            .wall_ns
        })
        .collect();
    ctx.tracer.end(span);
    let profiles: Vec<_> = prof_reps
        .iter()
        .filter_map(|r| r.result.profile.as_ref())
        .collect();
    layers::core::report(
        ctx,
        &first.metrics,
        &walls,
        WORKERS,
        &Samples::new(fixed),
        &profiles,
    );

    // cluster + net: exact traffic of one rep.
    let (msgs, bytes) = (first.comm.messages, first.comm.bytes);
    layers::cluster::report_counts(ctx, first.comm.exchanges, msgs, bytes, first.metrics.steps);
    if two_rank {
        layers::cluster::probe(ctx, root);
        ctx.put1("net.wire.bytes_per_msg", bytes as f64 / msgs.max(1) as f64);
        layers::net::probe(ctx, root);
        // The TCP tax: the same 2-rank shape with ranks simulated in
        // process, where exchange moves `Vec`s and encodes nothing.
        let span = ctx.tracer.begin("layers.net.inprocess_reps", root);
        let inproc: Vec<u64> = (0..2)
            .map(|_| {
                one_rep(
                    ctx,
                    span,
                    "engine.run.inprocess",
                    engine,
                    &mut Exec::InProcess,
                    starts,
                )
                .wall_ns
            })
            .collect();
        ctx.tracer.end(span);
        let inproc = Samples::new(inproc);
        let tax = |inproc_ns: f64| (walls.median() - inproc_ns) / walls.median();
        ctx.put(
            "net.tcp_tax_share",
            tax(inproc.median()),
            inproc.summary().map(tax),
        );
    }

    layers::graph::probe(ctx, root, graph, gen_ns);
    layers::sampling::probe(ctx, root, graph);

    let overhead = |prof_ns: f64| (prof_ns - walls.median()) / walls.median();
    ctx.put(
        "obs.profile_overhead_share",
        overhead(prof_walls.median()),
        prof_walls.summary().map(overhead),
    );
}
