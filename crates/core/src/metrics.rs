//! Per-run walk metrics.
//!
//! The paper's key machine-independent quantity is **edges per step** —
//! the average number of per-edge transition probability computations per
//! walker move (Tables 1 and 5, Figure 6). These counters are accumulated
//! locally inside scheduler chunk accumulators (no atomics on the hot
//! path) and summed across nodes at the end of a run.

knightking_net::metric_set! {
    /// Aggregated counters for one walk execution. Declared once: the
    /// struct, `merge` and the [`Wire`](knightking_net::Wire) codec that
    /// carries it to the leader in the end-of-run result gather of
    /// multi-process runs all come from this list.
    #[derive(Copy)]
    pub struct WalkMetrics {
        /// Walker moves actually taken (the denominator of edges/step).
        counter sum steps,
        /// Dynamic component (`Pd`) evaluations (the numerator of edges/step).
        counter sum edges_evaluated,
        /// Rejection trials (darts thrown).
        counter sum trials,
        /// Darts pre-accepted at or below the lower bound `L(v)` — each saved
        /// a `Pd` evaluation (and, for second-order walks, a query round
        /// trip).
        counter sum pre_accepts,
        /// Darts landing in outlier appendix areas.
        counter sum appendix_hits,
        /// Exact full-scan fallbacks after exhausting rejection trials.
        counter sum fallback_scans,
        /// Walker-to-vertex state queries sent.
        counter sum queries,
        /// Walks completed.
        counter sum finished_walkers,
        /// BSP iterations executed (every node executes them all).
        counter max iterations,
        /// Per-vertex sampling structures (alias table / radix table / trial
        /// bound) rebuilt in response to dynamic graph updates. Zero on
        /// static runs.
        counter sum sampler_rebuilds,
        /// Sampler maintenance cost in entry-edits: the vertex degree for
        /// every O(degree) rebuild, the number of edges actually touched for
        /// every O(log degree) radix point-patch. The counter that makes the
        /// alias-vs-radix maintenance asymptotics observable.
        counter sum sampler_rebuild_cost,
    }
}

impl WalkMetrics {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// For every set this crate declares: the codec writes exactly
    /// `wire_size()` bytes, and `merge` combines each field by the rule
    /// its declaration line states — checked through the declaration, so
    /// a new field is covered the day it is added.
    #[test]
    fn declared_sets_size_and_merge_as_declared() {
        use knightking_net::{to_bytes, MergeRule, Wire};
        macro_rules! check {
            ($S:ty) => {{
                let (mut a, mut b) = (<$S>::default(), <$S>::default());
                for (i, m) in a.metrics().into_iter().enumerate() {
                    assert!(a.set(m.export, 10 + i as u64));
                    assert!(b.set(m.export, 40 - 3 * i as u64));
                }
                assert!(!a.set("no such metric", 1));
                assert_eq!(to_bytes(&a).unwrap().len(), a.wire_size());
                let before = a.metrics();
                a.merge(&b);
                for ((m, a0), b0) in a.metrics().into_iter().zip(before).zip(b.metrics()) {
                    let want = match m.merge {
                        MergeRule::Sum => a0.value + b0.value,
                        MergeRule::Max => a0.value.max(b0.value),
                    };
                    assert_eq!(m.value, want, "{}::{}", stringify!($S), m.name);
                }
            }};
        }
        check!(WalkMetrics);
        check!(crate::LiveSample);
        let rules = WalkMetrics::default().metrics().map(|m| (m.name, m.merge));
        for (name, rule) in rules {
            let want = if name == "iterations" {
                MergeRule::Max
            } else {
                MergeRule::Sum
            };
            assert_eq!(rule, want, "{name}");
        }
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
