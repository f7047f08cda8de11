//! `knightking-core` (with the `knightking-walks` programs): what a run
//! reports about itself — exact counters, wall per step, fixed cost per
//! call, and the profiled phase split.

use knightking_core::WalkMetrics;
use knightking_obs::{Phase, RunProfile};

use crate::report::Ctx;
use crate::spec::PHASE_NAMES;
use crate::stats::Samples;

/// `walls`: timed plain reps. `workers`: ranks x threads.
/// `fixed`: walls of one-walker runs. `profiles`: profiled reps.
pub fn report(
    ctx: &mut Ctx,
    m: &WalkMetrics,
    walls: &Samples,
    workers: usize,
    fixed: &Samples,
    profiles: &[&RunProfile],
) {
    let steps = m.steps.max(1) as f64;
    // Counts repeat exactly for one seed; a pure performance change must
    // not move them.
    ctx.put1("core.steps", m.steps as f64);
    ctx.put1("core.iterations", m.iterations as f64);
    ctx.put1("core.trials_per_step", m.trials as f64 / steps);
    ctx.put1("core.edges_per_step", m.edges_evaluated as f64 / steps);
    ctx.put1(
        "core.pre_accept_share",
        m.pre_accepts as f64 / m.trials.max(1) as f64,
    );
    ctx.put1(
        "core.appendix_hit_share",
        m.appendix_hits as f64 / m.trials.max(1) as f64,
    );
    ctx.put1("core.fallback_scans", m.fallback_scans as f64);
    ctx.put1("core.queries_per_step", m.queries as f64 / steps);

    let k = workers as f64 / steps;
    ctx.put_samples("core.step_cpu_ns", walls, k);
    ctx.put_samples("core.run_fixed_s", fixed, 1e-9);

    // Phase shares: each phase's nanoseconds over all phases', summed
    // over nodes and profiled reps. Busy and blocked time are not yet
    // told apart inside a phase (ROADMAP item 4).
    let mut by_name = [0u64; PHASE_NAMES.len()];
    for profile in profiles {
        for node in &profile.nodes {
            for phase in Phase::ALL {
                if let Some(i) = PHASE_NAMES.iter().position(|&n| n == phase.name()) {
                    by_name[i] += node.timers.totals[phase.index()];
                }
            }
        }
    }
    let total = by_name.iter().sum::<u64>().max(1) as f64;
    for (name, ns) in PHASE_NAMES.iter().zip(by_name) {
        ctx.put1(&format!("core.phase.{name}_share"), ns as f64 / total);
    }
}
