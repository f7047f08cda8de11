//! Engine-side observability shim over `knightking-obs`.
//!
//! The engine code calls one fixed API (`NodeObs` per node, `ChunkObs` per
//! chunk accumulator) that records into `knightking-obs` primitives when
//! `WalkConfig::profile` is set and is a branch on a `false` otherwise.
//!
//! Determinism contract: `ChunkObs` is owned by its chunk accumulator
//! (thread-owned, no atomics or locks), and is absorbed into `NodeObs` in
//! chunk order by `merge_accs` — instrumentation follows the same merge
//! discipline as walk results, so enabling it cannot perturb them.

use knightking_obs::{Event, EventKind, EventRing, NodeProfile, Pow2Histogram};

pub(crate) use knightking_obs::{Phase, N_PHASES};

/// Per-chunk trace ring capacity: a chunk processes at most
/// `chunk_size` walkers per iteration, so fallback events rarely
/// exceed this.
const CHUNK_RING_CAP: usize = 256;

/// Node-level trace ring capacity: bounds profile memory on long runs
/// (oldest events are overwritten and counted as dropped).
const NODE_RING_CAP: usize = 65_536;

/// Immutable per-chunk recording context, cheap to copy into the
/// scheduler's accumulator-init closure.
#[derive(Clone, Copy)]
pub(crate) struct ChunkCtx {
    enabled: bool,
    iteration: u32,
    node: u32,
}

/// Chunk-local instrumentation: owned by one `ChunkAcc`, never shared
/// across threads, absorbed in chunk order.
pub(crate) struct ChunkObs {
    ctx: ChunkCtx,
    ring: EventRing,
    walk_length: Pow2Histogram,
    trials_per_step: Pow2Histogram,
}

impl ChunkObs {
    pub(crate) fn new(ctx: ChunkCtx) -> Self {
        ChunkObs {
            ctx,
            // Disabled chunks keep an empty (1-slot) ring so the
            // accumulator stays allocation-free on unprofiled runs.
            ring: EventRing::new(if ctx.enabled { CHUNK_RING_CAP } else { 1 }),
            walk_length: Pow2Histogram::new(),
            trials_per_step: Pow2Histogram::new(),
        }
    }

    /// Records the rejection trials one sampling step consumed.
    #[inline]
    pub(crate) fn record_trials(&mut self, trials: u64) {
        if self.ctx.enabled && trials > 0 {
            self.trials_per_step.record(trials);
        }
    }

    /// Records a finished walk of `steps` steps.
    #[inline]
    pub(crate) fn walk_finished(&mut self, steps: u64) {
        if self.ctx.enabled {
            self.walk_length.record(steps);
        }
    }

    /// Records a full-scan fallback for `walker`.
    #[inline]
    pub(crate) fn fallback(&mut self, walker: u64) {
        if self.ctx.enabled {
            self.ring.push(Event {
                iteration: self.ctx.iteration,
                node: self.ctx.node,
                kind: EventKind::FullScanFallback { walker },
            });
        }
    }
}

/// Node-level instrumentation: phase timers, the node trace ring, and
/// the per-node histograms, assembled into a [`NodeProfile`] at the
/// end of the run.
pub(crate) struct NodeObs {
    enabled: bool,
    /// Live-service mode: fold phase times into run totals without
    /// per-iteration rows, so a resident loop's profile stays bounded.
    live: bool,
    iteration: u32,
    profile: NodeProfile,
    ring: EventRing,
    last_light: Option<bool>,
    exchange_total: u64,
}

impl NodeObs {
    pub(crate) fn new(enabled: bool, node: usize) -> Self {
        NodeObs {
            enabled,
            live: false,
            iteration: 0,
            profile: NodeProfile::new(node as u32),
            ring: EventRing::new(if enabled { NODE_RING_CAP } else { 1 }),
            last_light: None,
            exchange_total: 0,
        }
    }

    /// A profile for a resident service: everything unbounded
    /// (per-iteration timer rows) is folded instead of stored, so the
    /// loop can run for days while gauges stay scrapeable.
    pub(crate) fn new_live(enabled: bool, node: usize) -> Self {
        let mut obs = NodeObs::new(enabled, node);
        obs.live = true;
        obs
    }

    /// Cumulative nanoseconds per phase since the node started.
    pub(crate) fn phase_ns_totals(&self) -> [u64; N_PHASES] {
        self.profile.timers.totals
    }

    /// Cumulative exchange bytes this node has sent since it started.
    pub(crate) fn exchange_bytes_total(&self) -> u64 {
        self.exchange_total
    }

    /// Times `f` under `phase` (runs it untimed when profiling is
    /// off).
    #[inline]
    pub(crate) fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        if self.enabled {
            self.profile.timers.time(phase, f)
        } else {
            f()
        }
    }

    /// Folds pre-loop setup time (`Init`, `AliasBuild`) into the run
    /// totals without an iteration row.
    pub(crate) fn flush_setup(&mut self) {
        if self.enabled {
            self.profile.timers.flush_setup();
        }
    }

    /// Context handed to each chunk accumulator this iteration.
    pub(crate) fn chunk_ctx(&self) -> ChunkCtx {
        ChunkCtx {
            enabled: self.enabled,
            iteration: self.iteration,
            node: self.profile.node,
        }
    }

    /// Records the start of a BSP superstep, plus a light-mode switch
    /// event whenever the mode differs from the previous iteration
    /// (the first iteration establishes the mode and is recorded too).
    pub(crate) fn superstep(&mut self, active: u64, chunks: u64, light: bool) {
        if !self.enabled {
            return;
        }
        self.profile.active_walkers.record(active);
        self.ring.push(Event {
            iteration: self.iteration,
            node: self.profile.node,
            kind: EventKind::Superstep {
                active,
                chunks,
                light,
            },
        });
        if self.last_light != Some(light) {
            self.ring.push(Event {
                iteration: self.iteration,
                node: self.profile.node,
                kind: EventKind::LightModeSwitch { light, active },
            });
            self.last_light = Some(light);
        }
    }

    /// Records the remote bytes one exchange sent from this node.
    #[inline]
    pub(crate) fn record_exchange_bytes(&mut self, bytes: u64) {
        if self.enabled {
            self.profile.exchange_bytes.record(bytes);
            self.exchange_total += bytes;
        }
    }

    /// Absorbs one chunk's instrumentation, in chunk order.
    pub(crate) fn absorb(&mut self, mut chunk: ChunkObs) {
        if !self.enabled {
            return;
        }
        self.profile.walk_length.merge(&chunk.walk_length);
        self.profile.trials_per_step.merge(&chunk.trials_per_step);
        for e in chunk.ring.drain() {
            self.ring.push(e);
        }
        self.profile.dropped_events += chunk.ring.dropped();
    }

    /// Closes the current BSP iteration: snapshots a timer row (or, in
    /// live mode, folds it without a row) and advances the iteration
    /// counter.
    pub(crate) fn end_iteration(&mut self) {
        if self.enabled {
            if self.live {
                self.profile.timers.flush_setup();
            } else {
                self.profile.timers.end_iteration();
            }
        }
        self.iteration += 1;
    }

    /// Finishes the run and yields this node's profile (`None` when
    /// profiling is off).
    pub(crate) fn finish(mut self) -> Option<NodeProfile> {
        if !self.enabled {
            return None;
        }
        self.profile.events = self.ring.drain();
        self.profile.dropped_events += self.ring.dropped();
        Some(self.profile)
    }
}
