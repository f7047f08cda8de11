//! node2vec walks pinned to literal values.
//!
//! The literals were captured at the commit before local state queries
//! were answered inline and the first dart of a round was staged: paths
//! and every sampling counter are a function of the seed alone — not of
//! the rank count, the transport, or how a step's trials are spread over
//! BSP iterations. Only `iterations` may differ, and only downwards: a
//! rank that owns the queried vertex decides in the same iteration.

use knightking::net::reserve_loopback_addrs;
use knightking::prelude::*;

/// FNV-1a over every path's length and vertices.
fn checksum(paths: &[Vec<VertexId>]) -> u64 {
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

/// What one pinned row must reproduce at every rank count.
struct Pin {
    label: &'static str,
    weighted: bool,
    p: f64,
    q: f64,
    max_local_trials: u32,
    checksum: u64,
    steps: u64,
    trials: u64,
    queries: u64,
    edges_evaluated: u64,
    pre_accepts: u64,
    appendix_hits: u64,
    fallback_scans: u64,
    /// Iterations of the 2-node run at the capture commit.
    parent_iterations: u64,
}

const SEED: u64 = 0x16_0002;
const WALKERS: u64 = 700;
const LENGTH: u32 = 24;

fn graph(weighted: bool) -> CsrGraph {
    let opts = if weighted {
        gen::GenOptions::paper_weighted(41)
    } else {
        gen::GenOptions::seeded(43)
    };
    gen::presets::twitter_like(9, opts)
}

fn config(pin: &Pin, nodes: usize) -> WalkConfig {
    let mut cfg = WalkConfig::with_nodes(nodes, SEED);
    cfg.max_local_trials = pin.max_local_trials;
    cfg
}

/// The same walk on two ranks joined by loopback TCP.
fn run_tcp(g: &CsrGraph, pin: &Pin) -> WalkResult {
    let peers = reserve_loopback_addrs(2).expect("reserve loopback ports");
    let engine = RandomWalkEngine::new(g, Node2Vec::new(pin.p, pin.q, LENGTH), config(pin, 2));
    std::thread::scope(|s| {
        let rank1 = s.spawn(|| {
            let mut t = TcpTransport::establish(TcpConfig::new(1, peers.clone(), SEED))
                .expect("establish rank 1");
            engine.run_distributed(&mut t, WalkerStarts::Count(WALKERS))
        });
        let mut t = TcpTransport::establish(TcpConfig::new(0, peers.clone(), SEED))
            .expect("establish rank 0");
        let result = engine.run_distributed(&mut t, WalkerStarts::Count(WALKERS));
        assert!(rank1.join().expect("rank 1 thread").is_none());
        result.expect("rank 0 assembles the result")
    })
}

fn assert_pinned(pin: &Pin, how: &str, r: &WalkResult) {
    let label = format!("{} {how}", pin.label);
    let m = &r.metrics;
    assert_eq!(checksum(&r.paths), pin.checksum, "{label}: path checksum");
    assert_eq!(m.steps, pin.steps, "{label}: steps");
    assert_eq!(m.trials, pin.trials, "{label}: trials");
    assert_eq!(m.queries, pin.queries, "{label}: queries");
    assert_eq!(
        m.edges_evaluated, pin.edges_evaluated,
        "{label}: edges_evaluated"
    );
    assert_eq!(m.pre_accepts, pin.pre_accepts, "{label}: pre_accepts");
    assert_eq!(m.appendix_hits, pin.appendix_hits, "{label}: appendix_hits");
    assert_eq!(
        m.fallback_scans, pin.fallback_scans,
        "{label}: fallback_scans"
    );
    assert_eq!(m.finished_walkers, WALKERS, "{label}: finished walkers");
}

fn check(pin: Pin) {
    let g = graph(pin.weighted);
    let run = |nodes: usize| {
        RandomWalkEngine::new(&g, Node2Vec::new(pin.p, pin.q, LENGTH), config(&pin, nodes))
            .run(WalkerStarts::Count(WALKERS))
    };
    let (one, two, three) = (run(1), run(2), run(3));
    let tcp = run_tcp(&g, &pin);
    assert_pinned(&pin, "1 node", &one);
    assert_pinned(&pin, "2 nodes", &two);
    assert_pinned(&pin, "3 nodes", &three);
    assert_pinned(&pin, "2 TCP ranks", &tcp);
    // A walker needs one iteration per step plus one per rejection it
    // had to wait a message round for; fewer ranks own more targets.
    let (i1, i2) = (one.metrics.iterations, two.metrics.iterations);
    assert!(
        i1 <= i2 && i2 <= pin.parent_iterations,
        "{}: iterations {i1} (1 node) <= {i2} (2 nodes) <= {} (pinned)",
        pin.label,
        pin.parent_iterations
    );
    assert_eq!(tcp.metrics.iterations, i2, "{}: TCP iterations", pin.label);
}

#[test]
fn weighted_p2_q05() {
    check(Pin {
        label: "weighted p=2 q=0.5",
        weighted: true,
        p: 2.0,
        q: 0.5,
        max_local_trials: 64,
        checksum: 0xf6c608e3801c0a0e,
        steps: 15312,
        trials: 21968,
        queries: 14894,
        edges_evaluated: 16462,
        pre_accepts: 5506,
        appendix_hits: 0,
        fallback_scans: 0,
        parent_iterations: 49,
    });
}

#[test]
fn unweighted_p2_q05() {
    check(Pin {
        label: "unweighted p=2 q=0.5",
        weighted: false,
        p: 2.0,
        q: 0.5,
        max_local_trials: 64,
        checksum: 0x0876305a5cc6b13c,
        steps: 15168,
        trials: 21602,
        queries: 14660,
        edges_evaluated: 16118,
        pre_accepts: 5484,
        appendix_hits: 0,
        fallback_scans: 0,
        parent_iterations: 48,
    });
}

/// `p = 0.25, q = 4`: the return edge is a declared outlier (appendix
/// darts) and most candidates are rejected, so with a budget of two
/// trials walkers fall back to full scans whose targets are spread over
/// the ranks.
#[test]
fn weighted_p025_q4_short_budget() {
    check(Pin {
        label: "weighted p=0.25 q=4 budget 2",
        weighted: true,
        p: 0.25,
        q: 4.0,
        max_local_trials: 2,
        checksum: 0xe5d3805a3309f514,
        steps: 15312,
        trials: 20784,
        queries: 289504,
        edges_evaluated: 293634,
        pre_accepts: 4766,
        appendix_hits: 1649,
        fallback_scans: 697,
        parent_iterations: 49,
    });
}

#[test]
fn unweighted_p025_q4_short_budget() {
    check(Pin {
        label: "unweighted p=0.25 q=4 budget 2",
        weighted: false,
        p: 0.25,
        q: 4.0,
        max_local_trials: 2,
        checksum: 0x9cd83c5c31ea9e0e,
        steps: 15168,
        trials: 20495,
        queries: 270730,
        edges_evaluated: 274777,
        pre_accepts: 4736,
        appendix_hits: 1574,
        fallback_scans: 703,
        parent_iterations: 45,
    });
}
