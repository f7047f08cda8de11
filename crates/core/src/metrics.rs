//! Per-run walk metrics.
//!
//! The paper's key machine-independent quantity is **edges per step** —
//! the average number of per-edge transition probability computations per
//! walker move (Tables 1 and 5, Figure 6). These counters are accumulated
//! locally inside scheduler chunk accumulators (no atomics on the hot
//! path) and summed across nodes at the end of a run.

/// Aggregated counters for one walk execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkMetrics {
    /// Walker moves actually taken (the denominator of edges/step).
    pub steps: u64,
    /// Dynamic component (`Pd`) evaluations (the numerator of edges/step).
    pub edges_evaluated: u64,
    /// Rejection trials (darts thrown).
    pub trials: u64,
    /// Darts pre-accepted at or below the lower bound `L(v)` — each saved
    /// a `Pd` evaluation (and, for second-order walks, a query round
    /// trip).
    pub pre_accepts: u64,
    /// Darts landing in outlier appendix areas.
    pub appendix_hits: u64,
    /// Exact full-scan fallbacks after exhausting rejection trials.
    pub fallback_scans: u64,
    /// Walker-to-vertex state queries sent.
    pub queries: u64,
    /// Walks completed.
    pub finished_walkers: u64,
    /// BSP iterations executed.
    pub iterations: u64,
    /// Per-vertex sampling structures (alias table / radix table / trial
    /// bound) rebuilt in response to dynamic graph updates. Zero on
    /// static runs.
    pub sampler_rebuilds: u64,
    /// Sampler maintenance cost in entry-edits: the vertex degree for
    /// every O(degree) rebuild, the number of edges actually touched for
    /// every O(log degree) radix point-patch. The counter that makes the
    /// alias-vs-radix maintenance asymptotics observable.
    pub sampler_rebuild_cost: u64,
}

impl WalkMetrics {
    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &WalkMetrics) {
        self.steps += other.steps;
        self.edges_evaluated += other.edges_evaluated;
        self.trials += other.trials;
        self.pre_accepts += other.pre_accepts;
        self.appendix_hits += other.appendix_hits;
        self.fallback_scans += other.fallback_scans;
        self.queries += other.queries;
        self.finished_walkers += other.finished_walkers;
        self.iterations = self.iterations.max(other.iterations);
        self.sampler_rebuilds += other.sampler_rebuilds;
        self.sampler_rebuild_cost += other.sampler_rebuild_cost;
    }

    /// Average `Pd` computations per walker move — the paper's
    /// "edges/step" (Table 1, Table 5, Figure 6).
    pub fn edges_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.edges_evaluated as f64 / self.steps as f64
        }
    }

    /// Average rejection trials per walker move.
    pub fn trials_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.trials as f64 / self.steps as f64
        }
    }
}

use knightking_net::{Wire, WireError};

/// Metrics travel to the leader in the end-of-run result gather of
/// multi-process runs.
impl Wire for WalkMetrics {
    fn wire_size(&self) -> usize {
        11 * 8
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        for v in [
            self.steps,
            self.edges_evaluated,
            self.trials,
            self.pre_accepts,
            self.appendix_hits,
            self.fallback_scans,
            self.queries,
            self.finished_walkers,
            self.iterations,
            self.sampler_rebuilds,
            self.sampler_rebuild_cost,
        ] {
            v.encode(out)?;
        }
        Ok(())
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(WalkMetrics {
            steps: u64::decode(input)?,
            edges_evaluated: u64::decode(input)?,
            trials: u64::decode(input)?,
            pre_accepts: u64::decode(input)?,
            appendix_hits: u64::decode(input)?,
            fallback_scans: u64::decode(input)?,
            queries: u64::decode(input)?,
            finished_walkers: u64::decode(input)?,
            iterations: u64::decode(input)?,
            sampler_rebuilds: u64::decode(input)?,
            sampler_rebuild_cost: u64::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = WalkMetrics {
            steps: 10,
            edges_evaluated: 15,
            trials: 12,
            iterations: 5,
            ..Default::default()
        };
        let b = WalkMetrics {
            steps: 5,
            edges_evaluated: 5,
            trials: 8,
            iterations: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.steps, 15);
        assert_eq!(a.edges_evaluated, 20);
        assert_eq!(a.trials, 20);
        assert_eq!(a.iterations, 7);
    }

    #[test]
    fn rates_guard_division_by_zero() {
        let m = WalkMetrics::default();
        assert_eq!(m.edges_per_step(), 0.0);
        assert_eq!(m.trials_per_step(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let m = WalkMetrics {
            steps: 4,
            edges_evaluated: 6,
            trials: 8,
            ..Default::default()
        };
        assert_eq!(m.edges_per_step(), 1.5);
        assert_eq!(m.trials_per_step(), 2.0);
    }
}
