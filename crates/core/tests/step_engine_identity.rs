//! Byte-identity of the staged step kernel with its lookahead-0 schedule.
//!
//! `begin_step` runs `LOOKAHEAD` walkers ahead of `finish_step`; the
//! reference schedule (`RandomWalkEngine::lookahead0`) finishes every
//! walker's step before the next one begins. The two must agree in every
//! observable output: paths, `WalkMetrics`, the per-iteration active
//! series and the observability histograms. The sweep crosses chunk sizes
//! around the lookahead with unweighted / weighted / degenerate-row
//! graphs, three program shapes, one and two nodes, static CSR and
//! dynamic graphs — the latter also served, with sampler overrides and
//! walkers pinned at two epochs. The second-order shape runs twice more
//! in its hard corner: the return edge a declared outlier (appendix
//! darts) under a trial budget of one or two, so rounds close on inline
//! answers and full scans mix local and remote targets.

use knightking_cluster::comm::run_cluster_with_metrics;
use knightking_core::{
    AdmitRequest, CsrGraph, Directives, DynConfig, DynGraph, EdgeView, EpochUpdate, GraphRef, Msg,
    OutlierSlot, RandomWalkEngine, ServeDelta, ServeDriver, VertexId, WalkConfig, WalkMetrics,
    WalkResult, Walker, WalkerProgram, WalkerStarts, LOOKAHEAD,
};
use knightking_dyn::{EdgeAdd, EdgeRef, EdgeReweight, UpdateBatch};
use knightking_graph::{gen, GraphBuilder};
use knightking_sampling::DeterministicRng;

const CHUNKS: [usize; 6] = [1, 2, LOOKAHEAD - 1, LOOKAHEAD, LOOKAHEAD + 1, 128];
const SEED: u64 = 0xD15C0;

/// Static walk of fixed length: alias draws on weighted graphs, uniform
/// draws on unweighted ones — the two staged shapes.
#[derive(Clone, Copy)]
struct DeepWalk(u32);
impl WalkerProgram for DeepWalk {
    type Data = ();
    type Query = ();
    type Answer = ();
    const DYNAMIC: bool = false;
    fn init_data(&self, _id: u64, _start: VertexId) {}
    fn should_terminate(&self, w: &mut Walker<()>) -> bool {
        w.step >= self.0
    }
}

/// Static walk whose prelude draws from the walker's RNG twice: a
/// termination coin, then a restart coin that teleports to the start
/// vertex (which another node may own).
#[derive(Clone, Copy)]
struct Ppr;
impl WalkerProgram for Ppr {
    type Data = VertexId;
    type Query = ();
    type Answer = ();
    const DYNAMIC: bool = false;
    fn init_data(&self, _id: u64, start: VertexId) -> VertexId {
        start
    }
    fn should_terminate(&self, w: &mut Walker<VertexId>) -> bool {
        w.step >= 40 || w.rng.chance(0.1)
    }
    fn teleport(&self, _g: &GraphRef<'_>, w: &mut Walker<VertexId>) -> Option<VertexId> {
        w.rng.chance(0.2).then_some(w.data)
    }
}

/// Second-order rejection-sampled walk with node2vec's `Pd`. When the
/// return edge's `1/p` towers over `{1, 1/q}` it is declared an outlier
/// and the envelope covers only the rest.
#[derive(Clone, Copy)]
struct Node2Vec {
    p: f64,
    q: f64,
    len: u32,
}
impl Node2Vec {
    fn return_edge_is_outlier(&self) -> bool {
        1.0 / self.p > (1.0f64).max(1.0 / self.q)
    }
}
impl WalkerProgram for Node2Vec {
    type Data = ();
    type Query = VertexId;
    type Answer = bool;
    const SECOND_ORDER: bool = true;
    fn init_data(&self, _id: u64, _start: VertexId) {}
    fn should_terminate(&self, w: &mut Walker<()>) -> bool {
        w.step >= self.len
    }
    fn state_query(&self, w: &Walker<()>, e: EdgeView) -> Option<(VertexId, VertexId)> {
        w.prev.filter(|&t| t != e.dst).map(|t| (t, e.dst))
    }
    fn answer_query(&self, g: &GraphRef<'_>, t: VertexId, x: VertexId) -> bool {
        g.has_edge(t, x)
    }
    fn dynamic_comp(&self, _g: &GraphRef<'_>, w: &Walker<()>, e: EdgeView, a: Option<bool>) -> f64 {
        match w.prev {
            None => 1.0,
            Some(t) if e.dst == t => 1.0 / self.p,
            _ if a.expect("non-return candidates carry an answer") => 1.0,
            _ => 1.0 / self.q,
        }
    }
    fn upper_bound(&self, _g: &GraphRef<'_>, w: &Walker<()>) -> f64 {
        let rest = (1.0f64).max(1.0 / self.q);
        if w.prev.is_some() && self.return_edge_is_outlier() {
            rest
        } else {
            rest.max(1.0 / self.p)
        }
    }
    fn lower_bound(&self, _g: &GraphRef<'_>, _w: &Walker<()>) -> f64 {
        (1.0f64).min(1.0 / self.p).min(1.0 / self.q)
    }
    fn declare_outliers(&self, g: &GraphRef<'_>, w: &Walker<()>, out: &mut Vec<OutlierSlot>) {
        let Some(t) = w.prev.filter(|_| self.return_edge_is_outlier()) else {
            return;
        };
        let width: f64 = g
            .edge_range(w.current, t)
            .map(|i| g.edge(w.current, i).weight as f64)
            .sum();
        if width > 0.0 {
            out.push(OutlierSlot {
                target: t,
                width_bound: width,
                height_bound: 1.0 / self.p,
            });
        }
    }
}

/// A weighted graph with every degenerate row: vertices without
/// out-edges, and vertices whose out-edges all weigh zero. Walkers start
/// on them and wander into them.
fn degenerate_graph(n: u32, seed: u64) -> CsrGraph {
    let mut rng = DeterministicRng::new(seed);
    let mut b = GraphBuilder::directed(n as usize).with_weights();
    for v in 0..n {
        let degree = if v % 7 == 3 { 0 } else { 1 + rng.next_index(6) };
        for _ in 0..degree {
            let w = if v % 5 == 1 {
                0.0
            } else {
                // Some zero-weight edges in live rows too.
                rng.next_index(4) as f32
            };
            b.add_weighted_edge(v, rng.next_index(n as usize) as u32, w);
        }
    }
    b.build()
}

/// A dynamic graph with a non-trivial overlay (adds, deletes, reweights),
/// so the engine's alias rows are built from merged rows.
fn overlay_graph(n: usize, seed: u64) -> DynGraph {
    let base = gen::uniform_degree(n, 5, gen::GenOptions::paper_weighted(seed));
    let dg = DynGraph::new(base, DynConfig::default());
    dg.apply(&first_batch(n as u32))
        .expect("overlay batch applies");
    dg
}

fn first_batch(n: u32) -> UpdateBatch {
    let add = |src, dst, weight| EdgeAdd {
        src,
        dst,
        weight,
        edge_type: 0,
    };
    UpdateBatch {
        adds: vec![add(0, n / 2, 9.0), add(n / 2, 0, 9.0), add(9, 2, 6.5)],
        dels: vec![EdgeRef { src: 5, dst: 1 }],
        reweights: vec![EdgeReweight {
            src: 0,
            dst: n / 2,
            weight: 12.0,
        }],
    }
}

/// Phase timers are wall-clock and legitimately differ; everything else
/// must match to the byte.
fn assert_identical(reference: &WalkResult, staged: &WalkResult, label: &str) {
    assert_eq!(reference.paths, staged.paths, "{label}: paths diverged");
    assert_eq!(
        reference.metrics, staged.metrics,
        "{label}: metrics diverged"
    );
    assert_eq!(
        reference.active_per_iteration, staged.active_per_iteration,
        "{label}: per-iteration actives diverged"
    );
    let (rp, sp) = (
        reference.profile.as_ref().expect("reference profile"),
        staged.profile.as_ref().expect("staged profile"),
    );
    assert_eq!(rp.nodes.len(), sp.nodes.len(), "{label}: node count");
    for (rn, sn) in rp.nodes.iter().zip(&sp.nodes) {
        for ((name, rh), (_, sh)) in rn.histograms().iter().zip(sn.histograms()) {
            let rb: Vec<_> = rh.nonzero_buckets().collect();
            let sb: Vec<_> = sh.nonzero_buckets().collect();
            assert_eq!(
                rb, sb,
                "{label}: node {} histogram {name} diverged",
                rn.node
            );
        }
    }
}

fn configs() -> impl Iterator<Item = (String, WalkConfig)> {
    CHUNKS.into_iter().flat_map(|chunk| {
        [1usize, 2].into_iter().map(move |nodes| {
            let mut cfg = WalkConfig::with_nodes(nodes, SEED);
            cfg.threads_per_node = 2;
            cfg.chunk_size = chunk;
            // Light mode would serialize the small test batches.
            cfg.light_threshold = 0;
            cfg.profile = true;
            (format!("chunk={chunk} nodes={nodes}"), cfg)
        })
    })
}

/// Runs `program` on `graph` under every config, default schedule
/// against lookahead 0.
fn sweep<'g, P: WalkerProgram + Copy>(
    label: &str,
    graph: impl Into<GraphRef<'g>>,
    program: P,
    starts: WalkerStarts,
) {
    sweep_tuned(label, graph, program, starts, |_| {});
}

/// [`sweep`] with every config adjusted by `tune`; returns the metrics of
/// the last run for the caller to check the sweep reached what it meant to.
fn sweep_tuned<'g, P: WalkerProgram + Copy>(
    label: &str,
    graph: impl Into<GraphRef<'g>>,
    program: P,
    starts: WalkerStarts,
    tune: impl Fn(&mut WalkConfig),
) -> WalkMetrics {
    let graph = graph.into();
    let mut last = WalkMetrics::default();
    for (cfg_label, mut cfg) in configs() {
        tune(&mut cfg);
        let reference = RandomWalkEngine::new(graph, program, cfg.clone())
            .lookahead0()
            .run(starts.clone());
        let staged = RandomWalkEngine::new(graph, program, cfg).run(starts.clone());
        assert!(reference.metrics.steps > 0, "{label}: nothing walked");
        assert_identical(&reference, &staged, &format!("{label} {cfg_label}"));
        last = staged.metrics;
    }
    last
}

fn sweep_programs<'g>(label: &str, graph: impl Into<GraphRef<'g>>) {
    let graph = graph.into();
    let starts = WalkerStarts::Count(graph.vertex_count() as u64 + 37);
    sweep(
        &format!("{label} deepwalk"),
        graph,
        DeepWalk(16),
        starts.clone(),
    );
    sweep(&format!("{label} ppr"), graph, Ppr, starts.clone());
    let n2v = Node2Vec {
        p: 2.0,
        q: 0.5,
        len: 10,
    };
    sweep(&format!("{label} node2vec"), graph, n2v, starts.clone());
    // The hard corner: the return edge an outlier, so darts land in its
    // appendix, and a budget so short that rounds run out — on the spot
    // after an inline answer, an iteration later after a remote one — and
    // full scans ask about local and remote targets alike.
    let skewed = Node2Vec {
        p: 0.25,
        q: 4.0,
        len: 10,
    };
    for budget in [1, 2] {
        let m = sweep_tuned(
            &format!("{label} node2vec p=0.25 q=4 budget={budget}"),
            graph,
            skewed,
            starts.clone(),
            |cfg| cfg.max_local_trials = budget,
        );
        assert!(
            m.fallback_scans > 0,
            "{label} budget={budget}: no full scan"
        );
        assert!(
            m.appendix_hits > 0,
            "{label} budget={budget}: no appendix dart"
        );
    }
}

#[test]
fn unweighted_csr() {
    let g = gen::presets::twitter_like(8, gen::GenOptions::seeded(3));
    sweep_programs("unweighted", &g);
}

#[test]
fn weighted_csr() {
    let g = gen::uniform_degree(300, 6, gen::GenOptions::paper_weighted(5));
    sweep_programs("weighted", &g);
}

#[test]
fn weighted_csr_with_zero_mass_and_degree_zero_rows() {
    let g = degenerate_graph(280, 21);
    sweep_programs("degenerate", &g);
    // The rows the name promises exist, and walkers end on them early.
    let r = RandomWalkEngine::new(&g, DeepWalk(16), WalkConfig::single_node(SEED))
        .run(WalkerStarts::PerVertex);
    assert_eq!(r.paths[3].len(), 1, "degree-0 start must not move");
    assert_eq!(r.paths[1].len(), 1, "zero-mass start must not move");
    assert!(r.paths.iter().any(|p| p.len() > 1 && p.len() < 17));
}

#[test]
fn dyn_overlay_batch() {
    let dg = overlay_graph(240, 13);
    sweep_programs("dyn overlay", &dg);
}

/// Admits one request at superstep 0; at superstep 2 applies an update
/// (epoch 1) and admits a second request, so walkers pinned at epochs 0
/// and 1 share supersteps and the touched vertices carry sampler
/// overrides; shuts down when both drained.
struct TwoEpochDriver {
    starts: Vec<VertexId>,
    batch: UpdateBatch,
    paths: Vec<knightking_core::result::PathEntry>,
    done: usize,
}

impl ServeDriver for TwoEpochDriver {
    fn absorb(&mut self, _node: usize, delta: ServeDelta) {
        self.paths.extend(delta.paths);
        self.done += delta.finished.len();
    }
    fn poll(&mut self, superstep: u64) -> Directives {
        let mut dir = Directives::default();
        let request = |tag: u64| AdmitRequest {
            tag,
            base_id: (tag - 1) * self.starts.len() as u64,
            seed: SEED + tag,
            starts: self.starts.clone(),
            trace: false,
        };
        match superstep {
            0 => dir.admit.push(request(1)),
            2 => {
                dir.update = Some(EpochUpdate {
                    epoch: 1,
                    batch: self.batch.clone(),
                });
                dir.admit.push(request(2));
            }
            _ => {}
        }
        dir.shutdown = superstep > 2 && self.done >= 2 * self.starts.len();
        dir
    }
    fn wait_for_work(&mut self) {}
}

/// One served run: assembled paths of both requests and per-node metrics.
fn serve_two_epochs<P: WalkerProgram + Copy>(
    program: P,
    cfg: &WalkConfig,
    lookahead0: bool,
) -> (Vec<Vec<VertexId>>, Vec<WalkMetrics>) {
    let n = 200u32;
    let base = gen::uniform_degree(n as usize, 5, gen::GenOptions::paper_weighted(29));
    let dg = DynGraph::new(base, DynConfig::default());
    let mut engine = RandomWalkEngine::new(&dg, program, cfg.clone());
    if lookahead0 {
        engine = engine.lookahead0();
    }
    let starts: Vec<VertexId> = (0..n).collect();
    let (outs, _comm) = run_cluster_with_metrics::<Msg<P>, _, _>(cfg.n_nodes, |ctx| {
        let mut ctx = ctx;
        let mut driver = TwoEpochDriver {
            starts: starts.clone(),
            batch: first_batch(n),
            paths: Vec::new(),
            done: 0,
        };
        let leader = (ctx.node == 0).then_some(&mut driver);
        let metrics = engine.run_service(&mut ctx, leader);
        (driver.paths, metrics)
    });
    assert_eq!(dg.epoch(), 1, "the update applied");
    let (fragments, metrics): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    let fragments = fragments.into_iter().flatten().collect();
    (WalkResult::assemble_paths(2 * n as u64, fragments), metrics)
}

fn sweep_served<P: WalkerProgram + Copy>(label: &str, program: P) {
    for (cfg_label, mut cfg) in configs() {
        cfg.profile = false;
        let reference = serve_two_epochs(program, &cfg, true);
        let staged = serve_two_epochs(program, &cfg, false);
        assert!(reference.1.iter().any(|m| m.sampler_rebuilds > 0));
        assert_eq!(reference, staged, "{label} {cfg_label}");
    }
}

#[test]
fn dyn_served_with_overrides_pinned_at_two_epochs() {
    sweep_served("served deepwalk", DeepWalk(12));
    sweep_served("served ppr", Ppr);
    let n2v = Node2Vec {
        p: 2.0,
        q: 0.5,
        len: 8,
    };
    sweep_served("served node2vec", n2v);
}
