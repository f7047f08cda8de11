//! Second-order execution: the two-round query protocol (§5.1), with a
//! rank answering its own questions on the spot.
//!
//! A second-order step throws darts like any other (`finish_step`); what
//! sets it apart is that a candidate's `Pd` may depend on the state of
//! another vertex — for node2vec, whether the candidate is a neighbour of
//! the previous stop. Every such question goes through one ask-point,
//! [`post_query`]:
//!
//! * the asking rank **owns** the vertex: `answer_query` runs then and
//!   there against the walker's pinned snapshot, and the walker decides —
//!   accepts and moves, or counts a rejection and throws its next dart —
//!   within the same visit;
//! * another rank owns it: the question becomes a [`Msg::Query`], the
//!   walker waits in [`SlotState::Awaiting`], and the paper's remaining
//!   steps run: (3) all nodes process received queries and send back
//!   results, (4) walkers retrieve them, (5) walkers decide, and a
//!   rejected walker stays put and retries next iteration (the straggler
//!   behaviour §6.2 discusses).
//!
//! Three all-to-all exchanges carry an iteration on every rank, whether
//! or not it has anything to send: queries (+ the moves decided in phase
//! A), answers, then the moves decided on remote answers.
//!
//! **What is staged.** On CSR rows with alias or uniform candidates
//! (decoupled mode) the first dart of every round goes through the step
//! kernel's stages ([`run_chunk`]): `begin_step` fills the envelope,
//! throws the dart, draws the candidate and hints its cells and the
//! previous stop's row bounds; a lookahead later the probe hint reads the
//! candidate and hints the adjacency lines a locally answered query will
//! search; a lookahead after that `finish_step` resolves, pre-accepts
//! below `L(v)`, asks, decides. Only the darts after a rejection — about
//! one step in nine — run unstaged. The remote answer loop
//! ([`answer_queries`]) walks its inbox with the same two hints ahead of
//! each probe. Radix, mixed-mode and dynamic-graph rows step eagerly
//! through the same `finish_step`, inline answers included.
//!
//! **Why paths cannot change with the rank count.** A walker's RNG stream
//! is private, an answer is a pure function of the graph snapshot the
//! walker pinned, and a rejection on a local answer closes the round of
//! darts exactly where one on a remote answer does (`throw_darts`). So a
//! walker draws the same numbers and takes the same decisions wherever
//! its targets live; the ownership of a target only decides *when* — in
//! which iteration — the next dart is thrown. Paths, `steps`, `trials`,
//! `queries` (an inline answer is still a query), `edges_evaluated`,
//! `pre_accepts`, `appendix_hits` and `fallback_scans` are functions of
//! the seed; `iterations`, the per-iteration active series, message and
//! byte counts and the phase shares depend on the partition. On one rank
//! no query is ever sent and a length-`L` walk takes `L + 1` iterations.
//!
//! A walker that exhausts `max_local_trials` darts switches to an exact
//! distributed **full scan**: it asks about every out-edge — remote
//! targets in windows of [`FULL_SCAN_WINDOW`](super::FULL_SCAN_WINDOW)
//! per iteration — accumulates the true `Ps·Pd` of each edge, then either
//! samples from the exact distribution or — if the total mass is zero —
//! terminates, which is how "no out edges with positive transition
//! probability" (§2.2) is detected without sacrificing exactness.

use knightking_cluster::Scheduler;
use knightking_graph::EdgeView;
use knightking_net::{Transport, Wire};
use knightking_sampling::{rejection::Envelope, CdfTable};

use crate::{
    graphref::GraphRef,
    metrics::WalkMetrics,
    program::{WalkObserver, WalkerProgram},
    result::PathEntry,
};

use super::{
    finish_step, finish_walk,
    instrument::{NodeObs, Phase},
    merge_accs, open_superstep, post_query, run_chunk, Asked, ChunkAcc, FinishedWalk,
    FullScanState, Msg, NodeRt, Slot, SlotState, Staged, StepOutcome, FULL_SCAN_WINDOW,
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

    // ---- Phase A: darts, local answers and decisions, remote queries. ----
    let accs = prof.time(compute_phase, || {
        scheduler.run_chunks(
            slots,
            || ChunkAcc::new(n, rt.observer, obs_ctx),
            |base, slice, acc| {
                run_chunk(rt, slice, base, acc, |slot, idx, staged, env, acc| {
                    if matches!(slot.state, SlotState::Active { .. }) {
                        phase_a_active(rt, slot, idx, staged, env, acc);
                    } else if matches!(slot.state, SlotState::FullScan(_)) {
                        continue_scan(rt, slot, idx, acc);
                    } else {
                        unreachable!("awaiting/departed/finished slots cannot start an iteration")
                    }
                })
            },
        )
    });
    let finished_before = finished.len();
    let (outbox, asked) = merge_accs(
        rt.observer,
        accs,
        n,
        paths,
        finished,
        metrics,
        obs_acc,
        prof,
    );
    debug_assert!(
        !outbox[rt.me].iter().any(|m| matches!(m, Msg::Query { .. })),
        "a query about a vertex this rank owns is answered inline"
    );

    // ---- Exchange 1: queries out, early moves along for the ride. ----
    let mut any_left = outbox.iter().any(|o| !o.is_empty());
    let (mut inbox, q_stats) = prof.time(Phase::QueryRound, || {
        ctx.exchange_with_stats(outbox, &Msg::<P>::wire_size)
    });
    prof.record_exchange_bytes(q_stats.sent_bytes);

    // ---- Step 3: execute the other ranks' queries at the owned vertices. ----
    let answer_outbox = prof.time(Phase::QueryRound, || {
        let answer_accs = scheduler.run_chunks(
            &mut inbox,
            || -> Vec<Vec<Msg<P>>> { (0..n).map(|_| Vec::new()).collect() },
            |_base, slice, acc| answer_queries(rt, slice, acc),
        );
        let mut answer_outbox: Vec<Vec<Msg<P>>> = (0..n).map(|_| Vec::new()).collect();
        for mut acc in answer_accs {
            for (to, msgs) in acc.iter_mut().enumerate() {
                answer_outbox[to].append(msgs);
            }
        }
        answer_outbox
    });
    let mut arrivals: Vec<Slot<P>> = Vec::new();
    for msg in inbox {
        match msg {
            Msg::Move(walker) => arrivals.push(Slot {
                walker,
                state: SlotState::fresh(),
            }),
            Msg::Query { .. } => {} // answered above
            Msg::Answer { .. } => unreachable!("no answers in the query round"),
        }
    }

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
                SlotState::Awaiting { answer, .. } => *answer = Some(payload),
                SlotState::FullScan(scan) => scan.received.push((tag, payload)),
                _ => unreachable!("answer addressed to a slot that asked nothing"),
            }
        }
    });

    // ---- Phase B (step 5): the walkers that asked another rank decide;
    // movers move. Timed as its own `Commit` phase so the answer-
    // application cost of second-order walks is visible separately from
    // phase A's sampling. ----
    let accs = prof.time(Phase::Commit, || {
        scheduler.run_chunks(
            &mut pick(slots, asked),
            || ChunkAcc::new(n, rt.observer, obs_ctx),
            |_base, slice, acc| {
                for (slot, asked) in slice {
                    decide(rt, slot, asked, acc);
                }
            },
        )
    });
    let (outbox, _) = merge_accs(
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

/// Pairs every entry of `asked` — slot indices strictly ascending — with
/// its slot, the slots borrowed apart.
fn pick<P: WalkerProgram>(
    mut slots: &mut [Slot<P>],
    asked: Vec<Asked>,
) -> Vec<(&mut Slot<P>, Asked)> {
    let mut out = Vec::with_capacity(asked.len());
    let mut skipped = 0;
    for a in asked {
        let i = a.slot() as usize;
        let (head, tail) = slots.split_at_mut(i - skipped + 1);
        out.push((head.last_mut().expect("split after index i"), a));
        slots = tail;
        skipped = i + 1;
    }
    out
}

/// Answers the queries among one chunk of the query round's inbox (the
/// moves riding along are skipped), each against its asker's pinned
/// snapshot, not this node's build epoch. Staged like a walker step: the
/// probe of query `i` reads adjacency lines hinted one lookahead earlier,
/// found through row bounds hinted one before that.
fn answer_queries<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    inbox: &[Msg<P>],
    out: &mut [Vec<Msg<P>>],
) {
    // A dynamic row has no fixed address to hint.
    let csr = rt.graph.as_csr();
    let target_of = |i: usize| match (csr, inbox.get(i)) {
        (Some(csr), Some(Msg::Query { target, .. })) => Some((csr, *target)),
        _ => None,
    };
    let d = rt.lookahead;
    for t in 0..inbox.len() + 2 * d {
        if let Some((csr, target)) = target_of(t) {
            csr.prefetch_row_bounds(target);
        }
        if let Some((csr, target)) = t.checked_sub(d).and_then(target_of) {
            csr.prefetch_adjacency(target);
        }
        let Some(Msg::Query {
            from,
            slot,
            tag,
            target,
            epoch,
            payload,
        }) = t.checked_sub(2 * d).and_then(|i| inbox.get(i))
        else {
            continue;
        };
        debug_assert!(
            rt.owns(*target),
            "query routed to a rank that does not own its target"
        );
        let answer = rt
            .program
            .answer_query(&rt.graph.at(*epoch), *target, *payload);
        out[*from as usize].push(Msg::Answer {
            slot: *slot,
            tag: *tag,
            payload: answer,
        });
    }
}

/// Phase A handling of an `Active` walker: throw darts until a move, a
/// query to another rank, termination, or trial exhaustion.
fn phase_a_active<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    idx: u32,
    staged: Staged,
    env: &mut Envelope,
    acc: &mut ChunkAcc<P, O>,
) {
    let SlotState::Active { stuck, .. } = slot.state else {
        unreachable!("phase_a_active requires an Active slot")
    };
    if stuck > rt.cfg.max_local_trials {
        init_full_scan(rt, slot, acc);
        continue_scan(rt, slot, idx, acc);
        return;
    }
    let trials_before = acc.metrics.trials;
    match finish_step(rt, slot, idx, staged, env, acc) {
        StepOutcome::Finished => finish_walk(slot, acc),
        StepOutcome::Moved(dst) => {
            rt.commit_move(slot, dst, acc);
        }
        StepOutcome::Posted => {}
        StepOutcome::NeedFullScan => {
            init_full_scan(rt, slot, acc);
            continue_scan(rt, slot, idx, acc);
        }
    }
    acc.obs.record_trials(acc.metrics.trials - trials_before);
}

/// Phase B handling of a walker that asked another rank this iteration.
fn decide<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    asked: &Asked,
    acc: &mut ChunkAcc<P, O>,
) {
    match *asked {
        Asked::Dart { edge, y, .. } => {
            let SlotState::Awaiting { answer, stuck } = slot.state else {
                unreachable!("a walker that posted a dart's query awaits its answer")
            };
            let answer = answer.expect("every posted query is answered in its iteration");
            let pd = rt.pd(&slot.walker, edge, Some(answer), &mut acc.metrics);
            if y < pd {
                rt.commit_move(slot, edge.dst, acc);
            } else {
                // Rejected: stuck at the current vertex until the next
                // iteration. Too many consecutive rejections switch the
                // walker to the exact full scan, which both bounds the
                // retry cost and guarantees termination when the true
                // probability mass is zero.
                slot.state = SlotState::Active {
                    fresh: false,
                    stuck: stuck + 1,
                };
            }
        }
        Asked::Scan { .. } => {
            let Slot { walker, state } = slot;
            let SlotState::FullScan(scan) = state else {
                unreachable!("a walker that posted a scan's queries is scanning")
            };
            let g = rt.graph.at(walker.epoch);
            for (tag, answer) in std::mem::take(&mut scan.received) {
                let edge = g.edge(walker.current, tag as usize);
                let pd = rt.pd(walker, edge, Some(answer), &mut acc.metrics);
                scan.fill(tag, scan_product(rt, g, edge, pd));
            }
            if scan.unfilled == 0 {
                complete_scan(rt, slot, acc);
            }
        }
    }
}

/// Starts an exact full scan: pre-fills the `Ps·Pd` of every edge whose
/// `Pd` is locally computable; the rest await answers.
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
    g: GraphRef<'_>,
    edge: EdgeView,
    pd: f64,
) -> f64 {
    let ps = if rt.cfg.decoupled_static {
        rt.ps(g, edge)
    } else {
        1.0
    };
    (ps * pd).max(0.0)
}

/// Phase A handling of a full scan: asks about the edges still unknown,
/// in edge order. Answers from this node fill their product at once;
/// queries to other ranks stop at [`FULL_SCAN_WINDOW`] per iteration. A
/// scan that needed no other rank completes here.
fn continue_scan<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    idx: u32,
    acc: &mut ChunkAcc<P, O>,
) {
    let Slot { walker, state } = slot;
    let SlotState::FullScan(scan) = state else {
        unreachable!("continue_scan requires a FullScan slot")
    };
    let v = walker.current;
    let g = rt.graph.at(walker.epoch);
    let deg = g.degree(v);
    let mut posted = 0usize;
    let mut i = scan.next_unqueried;
    while i < deg && posted < FULL_SCAN_WINDOW {
        if scan.products[i].is_nan() {
            let edge = g.edge(v, i);
            if let Some((target, payload)) = rt.program.state_query(walker, edge) {
                match post_query(rt, acc, idx, target, i as u32, walker.epoch, payload) {
                    Some(answer) => {
                        let pd = rt.pd(walker, edge, Some(answer), &mut acc.metrics);
                        scan.fill(i as u32, scan_product(rt, g, edge, pd));
                    }
                    None => posted += 1,
                }
            }
        }
        i += 1;
    }
    scan.next_unqueried = i;
    if posted > 0 {
        acc.asked.push(Asked::Scan { slot: idx });
    } else if scan.unfilled == 0 {
        complete_scan(rt, slot, acc);
    }
}

/// Ends a full scan whose every product is known: samples from the exact
/// distribution, or terminates the walk on zero mass.
fn complete_scan<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    acc: &mut ChunkAcc<P, O>,
) {
    let SlotState::FullScan(scan) = &slot.state else {
        unreachable!("complete_scan requires a FullScan slot")
    };
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
    let g = rt.graph.at(slot.walker.epoch);
    let dst = g.edge(slot.walker.current, idx).dst;
    rt.commit_move(slot, dst, acc);
}
