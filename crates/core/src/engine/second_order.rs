//! Second-order execution: the two-round query protocol (§5.1).
//!
//! Each iteration implements the paper's five steps:
//!
//! 1. walkers generate candidate edges and perform preliminary screening
//!    (pre-acceptance below `L(v)`, locally-resolvable `Pd` cases);
//! 2. walkers issue walker-to-vertex state queries for candidates whose
//!    `Pd` depends on another vertex's state;
//! 3. all nodes process received queries and send back results;
//! 4. walkers retrieve their query results;
//! 5. walkers decide the sampling outcome and move if successful —
//!    rejected walkers stay put and retry next iteration (the straggler
//!    behaviour §6.2 discusses).
//!
//! Three all-to-all exchanges carry this: queries (+ early moves),
//! answers, then late moves.
//!
//! A walker that exhausts `max_local_trials` darts switches to an exact
//! distributed **full scan**: it queries the state of every out-edge in
//! windows of [`FULL_SCAN_WINDOW`](super::FULL_SCAN_WINDOW) per iteration,
//! accumulates the true `Ps·Pd` of each edge, then either samples from the
//! exact distribution or — if the total mass is zero — terminates, which
//! is how "no out edges with positive transition probability" (§2.2) is
//! detected without sacrificing exactness.

use knightking_cluster::Scheduler;
use knightking_net::{Transport, Wire};
use knightking_sampling::CdfTable;

use crate::{
    metrics::WalkMetrics,
    program::{WalkObserver, WalkerProgram},
    result::PathEntry,
};

use super::{
    finish_step, finish_walk,
    instrument::{NodeObs, Phase},
    merge_accs, open_superstep, post_query, run_chunk, ChunkAcc, FinishedWalk, FullScanState, Msg,
    NodeRt, Slot, SlotState, Staged, StepOutcome, FULL_SCAN_WINDOW,
};

/// Runs one second-order BSP iteration on this node.
#[allow(clippy::too_many_arguments)]
pub(super) fn iteration<P: WalkerProgram, O: WalkObserver<P::Data>, T: Transport<Msg<P>>>(
    rt: &NodeRt<'_, P, O>,
    ctx: &mut T,
    scheduler: &Scheduler,
    slots: &mut Vec<Slot<P>>,
    paths: &mut Vec<PathEntry>,
    finished: &mut Vec<FinishedWalk>,
    metrics: &mut WalkMetrics,
    obs_acc: &mut O::Acc,
    prof: &mut NodeObs,
) {
    let n = ctx.n_nodes();
    let (compute_phase, obs_ctx) = open_superstep(scheduler, slots.len(), prof);

    // ---- Phase A: candidates, screening, queries (steps 1-2). ----
    let accs = prof.time(compute_phase, || {
        scheduler.run_chunks(
            slots,
            || ChunkAcc::new(n, rt.observer, obs_ctx),
            |base, slice, acc| {
                run_chunk(rt, slice, base, acc, |slot, idx, staged, acc| {
                    if matches!(slot.state, SlotState::Active { .. }) {
                        phase_a_active(rt, slot, idx, staged, acc);
                    } else if matches!(slot.state, SlotState::FullScan(_)) {
                        post_scan_queries(rt, slot, idx, acc);
                    } else {
                        unreachable!("awaiting/departed/finished slots cannot start an iteration")
                    }
                })
            },
        )
    });
    let finished_before = finished.len();
    let outbox = merge_accs(
        rt.observer,
        accs,
        n,
        paths,
        finished,
        metrics,
        obs_acc,
        prof,
    );

    // ---- Exchange 1: queries out, early moves along for the ride. ----
    let mut any_left = outbox.iter().any(|o| !o.is_empty());
    let (inbox, q_stats) = prof.time(Phase::QueryRound, || {
        ctx.exchange_with_stats(outbox, &Msg::<P>::wire_size)
    });
    prof.record_exchange_bytes(q_stats.sent_bytes);
    let mut arrivals: Vec<Slot<P>> = Vec::new();
    let mut queries: Vec<(u32, u32, u32, knightking_graph::VertexId, u64, P::Query)> = Vec::new();
    for msg in inbox {
        match msg {
            Msg::Move(walker) => arrivals.push(Slot {
                walker,
                state: SlotState::fresh(),
            }),
            Msg::Query {
                from,
                slot,
                tag,
                target,
                epoch,
                payload,
            } => queries.push((from, slot, tag, target, epoch, payload)),
            Msg::Answer { .. } => unreachable!("no answers in the query round"),
        }
    }

    // ---- Step 3: execute queries at the owned vertices. ----
    let answer_outbox = prof.time(Phase::QueryRound, || {
        let answer_accs = scheduler.run_chunks(
            &mut queries,
            || -> Vec<Vec<Msg<P>>> { (0..n).map(|_| Vec::new()).collect() },
            |_base, slice, acc| {
                for &mut (from, slot, tag, target, epoch, payload) in slice {
                    debug_assert_eq!(rt.partition.owner(target), rt.me);
                    // Answer against the asking walker's snapshot, not
                    // this node's build epoch.
                    let answer = rt
                        .program
                        .answer_query(&rt.graph.at(epoch), target, payload);
                    acc[from as usize].push(Msg::Answer {
                        slot,
                        tag,
                        payload: answer,
                    });
                }
            },
        );
        let mut answer_outbox: Vec<Vec<Msg<P>>> = (0..n).map(|_| Vec::new()).collect();
        for mut acc in answer_accs {
            for (to, msgs) in acc.iter_mut().enumerate() {
                answer_outbox[to].append(msgs);
            }
        }
        answer_outbox
    });

    // ---- Exchange 2 + step 4: answers come back. ----
    let (answers, a_stats) = prof.time(Phase::AnswerRound, || {
        ctx.exchange_with_stats(answer_outbox, &Msg::<P>::wire_size)
    });
    prof.record_exchange_bytes(a_stats.sent_bytes);
    prof.time(Phase::AnswerRound, || {
        for msg in answers {
            let Msg::Answer { slot, tag, payload } = msg else {
                unreachable!("only answers in the answer round")
            };
            match &mut slots[slot as usize].state {
                SlotState::Awaiting { edge, answer, .. } => {
                    debug_assert_eq!(*edge, tag);
                    *answer = Some(payload);
                }
                SlotState::FullScan(scan) => scan.received.push((tag, payload)),
                _ => unreachable!("answer addressed to a slot that asked nothing"),
            }
        }
    });

    // ---- Phase B (step 5): decide outcomes; movers move. Timed as its
    // own `Commit` phase so the answer-application cost of second-order
    // walks is visible separately from phase A's sampling. ----
    let accs = prof.time(Phase::Commit, || {
        scheduler.run_chunks(
            slots,
            || ChunkAcc::new(n, rt.observer, obs_ctx),
            |_base, slice, acc| {
                for slot in slice {
                    let answered = match &slot.state {
                        SlotState::Awaiting {
                            edge,
                            y,
                            answer: Some(a),
                            stuck,
                        } => Some((*edge, *y, *a, *stuck)),
                        SlotState::Awaiting { answer: None, .. } => {
                            unreachable!("every posted query is answered in its iteration")
                        }
                        _ => None,
                    };
                    if let Some((edge, y, a, stuck)) = answered {
                        let g = rt.graph.at(slot.walker.epoch);
                        let view = g.edge(slot.walker.current, edge as usize);
                        let pd = rt.pd(&slot.walker, view, Some(a), &mut acc.metrics);
                        if y < pd {
                            rt.commit_move(slot, view.dst, acc);
                        } else {
                            // Rejected: stuck at the current vertex until the
                            // next iteration. Too many consecutive rejections
                            // switch the walker to the exact full scan, which
                            // both bounds the retry cost and guarantees
                            // termination when the true probability mass is
                            // zero.
                            slot.state = SlotState::Active {
                                fresh: false,
                                stuck: stuck + 1,
                            };
                        }
                    } else if matches!(slot.state, SlotState::FullScan(_)) {
                        fold_scan_answers(rt, slot, acc);
                    }
                }
            },
        )
    });
    let outbox = merge_accs(
        rt.observer,
        accs,
        n,
        paths,
        finished,
        metrics,
        obs_acc,
        prof,
    );

    // ---- Exchange 3: late moves. ----
    any_left |= finished.len() > finished_before || outbox.iter().any(|o| !o.is_empty());
    let (inbox, m_stats) = prof.time(Phase::Exchange, || {
        ctx.exchange_with_stats(outbox, &Msg::<P>::wire_size)
    });
    prof.record_exchange_bytes(m_stats.sent_bytes);
    for msg in inbox {
        match msg {
            Msg::Move(walker) => arrivals.push(Slot {
                walker,
                state: SlotState::fresh(),
            }),
            _ => unreachable!("only moves in the move round"),
        }
    }

    // As in the first-order path: a superstep in which nothing finished
    // and nothing was sent has no slot to drop.
    if any_left {
        slots.retain(|s| !matches!(s.state, SlotState::Departed | SlotState::Finished));
    }
    slots.append(&mut arrivals);
}

/// Phase A handling of an `Active` walker: throw darts until a move, a
/// posted query, termination, or trial exhaustion.
fn phase_a_active<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    idx: u32,
    staged: Staged,
    acc: &mut ChunkAcc<P, O>,
) {
    let SlotState::Active { stuck, .. } = slot.state else {
        unreachable!("phase_a_active requires an Active slot")
    };
    if stuck > rt.cfg.max_local_trials {
        init_full_scan(rt, slot, acc);
        post_scan_queries(rt, slot, idx, acc);
        return;
    }
    let trials_before = acc.metrics.trials;
    match finish_step(rt, slot, idx, staged, acc) {
        StepOutcome::Finished => finish_walk(slot, acc),
        StepOutcome::Moved(dst) => {
            rt.commit_move(slot, dst, acc);
        }
        StepOutcome::Posted { edge, y } => {
            slot.state = SlotState::Awaiting {
                edge,
                y,
                answer: None,
                stuck,
            };
        }
        StepOutcome::NeedFullScan => {
            init_full_scan(rt, slot, acc);
            post_scan_queries(rt, slot, idx, acc);
        }
    }
    acc.obs.record_trials(acc.metrics.trials - trials_before);
}

/// Starts an exact full scan: pre-fills the `Ps·Pd` of every edge whose
/// `Pd` is locally computable; the rest await queried answers.
fn init_full_scan<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    acc: &mut ChunkAcc<P, O>,
) {
    acc.metrics.fallback_scans += 1;
    acc.obs.fallback(slot.walker.id);
    let v = slot.walker.current;
    let g = rt.graph.at(slot.walker.epoch);
    let deg = g.degree(v);
    let mut products = vec![f64::NAN; deg];
    let mut unfilled = deg;
    for (i, product) in products.iter_mut().enumerate() {
        let edge = g.edge(v, i);
        if rt.program.state_query(&slot.walker, edge).is_none() {
            let pd = rt.pd(&slot.walker, edge, None, &mut acc.metrics);
            *product = scan_product(rt, g, edge, pd);
            unfilled -= 1;
        }
    }
    slot.state = SlotState::FullScan(Box::new(FullScanState {
        products,
        received: Vec::new(),
        unfilled,
        next_unqueried: 0,
    }));
}

/// `Ps·Pd` with mixed-mode folding handled (mixed mode's `pd` already
/// includes `Ps`).
fn scan_product<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    g: crate::graphref::GraphRef<'_>,
    edge: knightking_graph::EdgeView,
    pd: f64,
) -> f64 {
    let ps = if rt.cfg.decoupled_static {
        rt.ps(g, edge)
    } else {
        1.0
    };
    (ps * pd).max(0.0)
}

/// Posts the next window of state queries for an in-progress full scan.
fn post_scan_queries<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    idx: u32,
    acc: &mut ChunkAcc<P, O>,
) {
    let v = slot.walker.current;
    let epoch = slot.walker.epoch;
    let g = rt.graph.at(epoch);
    let deg = g.degree(v);
    let SlotState::FullScan(scan) = &mut slot.state else {
        unreachable!("post_scan_queries requires a FullScan slot")
    };
    let mut posted = 0usize;
    let mut i = scan.next_unqueried;
    // Collect this window's queries first: `post_query` needs `&acc`
    // while `scan` borrows the slot, so stage then emit.
    let mut staged: Vec<(u32, knightking_graph::VertexId, P::Query)> = Vec::new();
    while i < deg && posted < FULL_SCAN_WINDOW {
        if scan.products[i].is_nan() {
            let edge = g.edge(v, i);
            if let Some((target, payload)) = rt.program.state_query(&slot.walker, edge) {
                staged.push((i as u32, target, payload));
                posted += 1;
            }
        }
        i += 1;
    }
    scan.next_unqueried = i;
    for (tag, target, payload) in staged {
        post_query(rt, acc, idx, target, tag, epoch, payload);
    }
}

/// Folds received answers into the scan; completes it when every edge's
/// product is known.
fn fold_scan_answers<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    acc: &mut ChunkAcc<P, O>,
) {
    let v = slot.walker.current;
    let g = rt.graph.at(slot.walker.epoch);
    let SlotState::FullScan(scan) = &mut slot.state else {
        unreachable!("fold_scan_answers requires a FullScan slot")
    };
    let received = std::mem::take(&mut scan.received);
    // Split borrows: compute products against an immutable walker view.
    for (tag, answer) in received {
        let edge = g.edge(v, tag as usize);
        acc.metrics.edges_evaluated += 1;
        let base = rt
            .program
            .dynamic_comp(&g, &slot.walker, edge, Some(answer));
        let pd = if rt.cfg.decoupled_static {
            base
        } else {
            base * rt.program.static_comp(&g, edge)
        };
        let product = scan_product(rt, g, edge, pd);
        debug_assert!(scan.products[tag as usize].is_nan(), "duplicate answer");
        scan.products[tag as usize] = product;
        scan.unfilled -= 1;
    }
    if scan.unfilled > 0 {
        return;
    }

    // Scan complete: sample exactly or terminate on zero mass.
    acc.cdf_scratch.clear();
    let mut run = 0.0f64;
    for &p in &scan.products {
        run += p;
        acc.cdf_scratch.push(run);
    }
    if run <= 0.0 {
        finish_walk(slot, acc);
        return;
    }
    let idx = CdfTable::sample_prepared(&acc.cdf_scratch, &mut slot.walker.rng);
    let dst = g.edge(v, idx).dst;
    rt.commit_move(slot, dst, acc);
}
