//! Static and first-order dynamic execution: one exchange per iteration.
//!
//! With no walker-to-vertex state queries, a walker's whole step — the
//! termination check, rejection sampling (or direct static sampling), and
//! the move — resolves locally within one iteration, and all walkers
//! advance in lockstep (§5.1: "For such algorithms, all walkers can move
//! lockstep").

use knightking_cluster::Scheduler;
use knightking_net::{Transport, Wire};
use knightking_sampling::rejection::Envelope;

use crate::{
    metrics::WalkMetrics,
    program::{WalkObserver, WalkerProgram},
    result::PathEntry,
};

use super::{
    finish_step, finish_walk,
    instrument::{NodeObs, Phase},
    merge_accs, open_superstep, run_chunk, ChunkAcc, FinishedWalk, Msg, NodeRt, Slot, SlotState,
    Staged, StepOutcome,
};

/// The second half of one walker's first-order step: the sampling
/// decision `begin_step` staged (or the whole eager step) plus outcome
/// handling.
fn step_one<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    idx: u32,
    staged: Staged,
    env: &mut Envelope,
    acc: &mut ChunkAcc<P, O>,
) {
    let trials_before = acc.metrics.trials;
    match finish_step(rt, slot, idx, staged, env, acc) {
        StepOutcome::Finished => finish_walk(slot, acc),
        StepOutcome::Moved(dst) => {
            rt.commit_move(slot, dst, acc);
        }
        StepOutcome::Posted | StepOutcome::NeedFullScan => {
            unreachable!("first-order walks resolve every step locally")
        }
    }
    if P::DYNAMIC {
        acc.obs.record_trials(acc.metrics.trials - trials_before);
    }
}

/// Runs one first-order BSP iteration on this node.
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
    let accs = prof.time(compute_phase, || {
        scheduler.run_chunks(
            slots,
            || ChunkAcc::new(n, rt.observer, obs_ctx),
            |base, slice, acc| {
                run_chunk(rt, slice, base, acc, |slot, idx, staged, env, acc| {
                    step_one(rt, slot, idx, staged, env, acc)
                })
            },
        )
    });
    let finished_before = finished.len();
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

    // Every walker that left its slot this superstep either finished or
    // departed in a message; most supersteps neither happens, and the
    // pass over every slot is skipped.
    let any_left = finished.len() > finished_before || outbox.iter().any(|o| !o.is_empty());
    let (inbox, stats) = prof.time(Phase::Exchange, || {
        ctx.exchange_with_stats(outbox, &Msg::<P>::wire_size)
    });
    prof.record_exchange_bytes(stats.sent_bytes);
    if any_left {
        slots.retain(|s| matches!(s.state, SlotState::Active { .. }));
    }
    for msg in inbox {
        match msg {
            Msg::Move(walker) => slots.push(Slot {
                walker,
                state: SlotState::fresh(),
            }),
            _ => unreachable!("first-order iterations exchange only walker moves"),
        }
    }
}
