//! Per-layer probes, one file per crate so that a later change can drop
//! a layer's probe together with the layer. Each probe times calls into
//! the crate's public functions from outside; none reaches into a
//! crate's private state.

pub mod cluster;
pub mod core;
pub mod dynamic;
pub mod graph;
pub mod net;
pub mod reactor;
pub mod sampling;
pub mod serve;

use std::time::Instant;

use crate::stats::Samples;

/// Times `iters` calls of `f` as `rounds` equal batches and returns the
/// per-call nanoseconds of each batch (so the row can show quartiles).
pub fn time_per_call(rounds: usize, iters: usize, mut f: impl FnMut()) -> Samples {
    let per_round = (iters / rounds).max(1);
    let mut out = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let begin = Instant::now();
        for _ in 0..per_round {
            f();
        }
        // Tenths of a nanosecond keep sub-ns costs from rounding to 0.
        out.push((begin.elapsed().as_nanos() as f64 * 10.0 / per_round as f64) as u64);
    }
    Samples::new(out)
}

/// Unit factor of [`time_per_call`] samples back to nanoseconds.
pub const TENTHS: f64 = 0.1;
