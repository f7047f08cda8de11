//! Observability-layer tests: profile aggregation across a real
//! multi-node run, determinism with profiling on/off, and the JSON-lines
//! report format.

use knightking_core::obs::Phase;
use knightking_core::{
    EdgeView, GraphRef, RandomWalkEngine, VertexId, WalkConfig, Walker, WalkerProgram, WalkerStarts,
};
use knightking_graph::gen;

/// First-order dynamic walk: even destinations preferred 4:1.
struct EvenLover;
impl WalkerProgram for EvenLover {
    type Data = ();
    type Query = ();
    type Answer = ();
    fn init_data(&self, _id: u64, _start: VertexId) {}
    fn should_terminate(&self, w: &mut Walker<()>) -> bool {
        w.step >= 20
    }
    fn dynamic_comp(&self, _g: &GraphRef<'_>, _w: &Walker<()>, e: EdgeView, _a: Option<()>) -> f64 {
        if e.dst.is_multiple_of(2) {
            1.0
        } else {
            0.25
        }
    }
    fn upper_bound(&self, _g: &GraphRef<'_>, _w: &Walker<()>) -> f64 {
        1.0
    }
}

/// Second-order walk that never revisits the previous vertex (exercises
/// the two-round query protocol).
struct NoReturn;
impl WalkerProgram for NoReturn {
    type Data = ();
    type Query = VertexId;
    type Answer = bool;
    const SECOND_ORDER: bool = true;
    fn init_data(&self, _id: u64, _start: VertexId) {}
    fn should_terminate(&self, w: &mut Walker<()>) -> bool {
        w.step >= 10
    }
    fn state_query(&self, w: &Walker<()>, e: EdgeView) -> Option<(VertexId, VertexId)> {
        match w.prev {
            Some(prev) if e.dst != prev => Some((prev, e.dst)),
            _ => None,
        }
    }
    fn answer_query(&self, g: &GraphRef<'_>, target: VertexId, candidate: VertexId) -> bool {
        g.has_edge(target, candidate)
    }
    fn dynamic_comp(&self, _g: &GraphRef<'_>, w: &Walker<()>, e: EdgeView, a: Option<bool>) -> f64 {
        match w.prev {
            None => 1.0,
            Some(prev) if e.dst == prev => 0.0,
            _ => {
                if a.expect("non-return candidates carry an answer") {
                    1.0
                } else {
                    0.5
                }
            }
        }
    }
    fn upper_bound(&self, _g: &GraphRef<'_>, _w: &Walker<()>) -> f64 {
        1.0
    }
}

/// All `Pd` mass is zero under a nonzero upper bound: every walker
/// exhausts its trials and takes the exact full-scan fallback.
struct ZeroMass;
impl WalkerProgram for ZeroMass {
    type Data = ();
    type Query = ();
    type Answer = ();
    fn init_data(&self, _id: u64, _start: VertexId) {}
    fn should_terminate(&self, w: &mut Walker<()>) -> bool {
        w.step >= 5
    }
    fn dynamic_comp(
        &self,
        _g: &GraphRef<'_>,
        _w: &Walker<()>,
        _e: EdgeView,
        _a: Option<()>,
    ) -> f64 {
        0.0
    }
    fn upper_bound(&self, _g: &GraphRef<'_>, _w: &Walker<()>) -> f64 {
        1.0
    }
}

fn profiled_cfg(n_nodes: usize) -> WalkConfig {
    let mut cfg = WalkConfig::with_nodes(n_nodes, 11);
    cfg.threads_per_node = 2;
    cfg.profile = true;
    cfg
}

#[test]
fn profile_absent_without_flag() {
    let g = gen::uniform_degree(100, 6, gen::GenOptions::seeded(4));
    let r = RandomWalkEngine::new(&g, EvenLover, WalkConfig::single_node(11))
        .run(WalkerStarts::Count(50));
    assert!(r.profile.is_none());
}

#[test]
fn multi_node_profile_aggregates_consistently() {
    let g = gen::uniform_degree(600, 8, gen::GenOptions::seeded(4));
    let n_walkers = 400u64;
    let r =
        RandomWalkEngine::new(&g, EvenLover, profiled_cfg(3)).run(WalkerStarts::Count(n_walkers));
    assert_eq!(r.metrics.finished_walkers, n_walkers);

    let p = r.profile.as_ref().expect("profile requested");
    assert_eq!(p.nodes.len(), 3);
    assert!(p.wall_nanos > 0);
    let iterations = r.metrics.iterations as usize;
    assert!(iterations > 0);

    for (i, np) in p.nodes.iter().enumerate() {
        assert_eq!(np.node as usize, i, "profiles arrive in node order");
        // Every node runs the same number of BSP iterations.
        assert_eq!(np.timers.rows.len(), iterations);
        // A node's phases run sequentially on its thread, so their sum is
        // bounded by the run's wall clock.
        assert!(
            np.timers.total() <= p.wall_nanos,
            "node {i}: phase sum {} > wall {}",
            np.timers.total(),
            p.wall_nanos
        );
        // Totals are the fold of the per-iteration rows (plus setup
        // phases, which have no rows) — monotone accumulation.
        for phase in Phase::ALL {
            let row_sum: u64 = np.timers.rows.iter().map(|r| r[phase.index()]).sum();
            assert!(
                np.timers.totals[phase.index()] >= row_sum,
                "{}",
                phase.name()
            );
        }
        // One active-walker sample and one move exchange per iteration.
        assert_eq!(np.active_walkers.count(), iterations as u64);
        assert_eq!(np.exchange_bytes.count(), iterations as u64);
        // One superstep event per iteration survives the ring.
        let supersteps = np
            .events
            .iter()
            .filter(|e| e.kind.name() == "superstep")
            .count();
        assert_eq!(supersteps + np.dropped_events as usize, iterations);
        assert!(np
            .events
            .iter()
            .any(|e| e.kind.name() == "light_mode_switch"));
    }

    // Every walker finishes on exactly one node.
    let finished: u64 = p.nodes.iter().map(|n| n.walk_length.count()).sum();
    assert_eq!(finished, n_walkers);
    // A dynamic program records rejection trials.
    assert!(
        p.nodes
            .iter()
            .map(|n| n.trials_per_step.count())
            .sum::<u64>()
            > 0
    );
}

#[test]
fn profiling_does_not_change_walk_results() {
    let g = gen::uniform_degree(300, 6, gen::GenOptions::seeded(9));
    let mut plain = profiled_cfg(2);
    plain.profile = false;
    let r0 = RandomWalkEngine::new(&g, EvenLover, plain).run(WalkerStarts::Count(200));
    let r1 = RandomWalkEngine::new(&g, EvenLover, profiled_cfg(2)).run(WalkerStarts::Count(200));
    assert_eq!(r0.paths, r1.paths);
    assert_eq!(r0.metrics, r1.metrics);
    assert_eq!(r0.comm, r1.comm);
    assert!(r0.profile.is_none() && r1.profile.is_some());
}

#[test]
fn second_order_rounds_are_attributed() {
    let g = gen::uniform_degree(400, 8, gen::GenOptions::seeded(6));
    let r = RandomWalkEngine::new(&g, NoReturn, profiled_cfg(2)).run(WalkerStarts::Count(300));
    let p = r.profile.as_ref().unwrap();
    let iterations = r.metrics.iterations as u64;
    for np in &p.nodes {
        assert!(np.timers.counts[Phase::QueryRound.index()] > 0);
        assert!(np.timers.counts[Phase::AnswerRound.index()] > 0);
        // Three exchanges per second-order iteration: queries, answers,
        // late moves.
        assert_eq!(np.exchange_bytes.count(), 3 * iterations);
    }
}

#[test]
fn full_scan_fallback_is_traced() {
    let g = gen::uniform_degree(50, 4, gen::GenOptions::seeded(2));
    let r = RandomWalkEngine::new(&g, ZeroMass, profiled_cfg(1)).run(WalkerStarts::Count(20));
    assert!(r.metrics.fallback_scans >= 20);
    let p = r.profile.as_ref().unwrap();
    let fallbacks: usize = p.nodes[0]
        .events
        .iter()
        .filter(|e| e.kind.name() == "full_scan_fallback")
        .count();
    assert!(fallbacks >= 20, "got {fallbacks} fallback events");
}

#[test]
fn jsonl_report_is_parseable() {
    let g = gen::uniform_degree(200, 6, gen::GenOptions::seeded(4));
    let r = RandomWalkEngine::new(&g, EvenLover, profiled_cfg(2)).run(WalkerStarts::Count(100));
    let p = r.profile.as_ref().unwrap();

    let mut buf = Vec::new();
    p.write_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("{\"type\":\"run\""));
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        let open = line.matches(['{', '[']).count();
        let close = line.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced: {line}");
    }
    assert!(lines.iter().any(|l| l.contains("\"type\":\"phase\"")));
    assert!(lines.iter().any(|l| l.contains("\"type\":\"phase_total\"")));
    assert!(lines.iter().any(|l| l.contains("\"kind\":\"superstep\"")));
    for name in [
        "walk_length",
        "trials_per_step",
        "active_walkers",
        "exchange_bytes",
    ] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{name}\""))),
            "{name} histogram missing"
        );
    }

    let table = p.render_table();
    assert!(table.contains("2 node(s)"));
    assert!(table.contains("exchange"));
}
