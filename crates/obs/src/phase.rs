//! The fixed engine phase taxonomy and per-iteration phase timers.

use std::time::Instant;

/// Number of phases in the fixed taxonomy.
pub const N_PHASES: usize = 9;

/// One engine execution phase.
///
/// The taxonomy is fixed so every profile row has the same shape and
/// cross-run comparisons need no schema negotiation:
///
/// * `Init` — walker instantiation (start-vertex placement).
/// * `AliasBuild` — alias-table construction for owned vertices (§3).
/// * `LocalCompute` — chunked walker processing on the thread pool.
/// * `Exchange` — all-to-all walker-move exchanges and allreduces.
/// * `QueryRound` — second-order exchange 1 plus query execution (§5.1
///   steps 2–3).
/// * `AnswerRound` — second-order exchange 2 plus answer application
///   (§5.1 step 4).
/// * `LightMode` — walker processing while the node is in light mode
///   (§6.2); disjoint from `LocalCompute` so the tail is visible.
/// * `Finalize` — result merging and path reassembly after the walk.
/// * `Commit` — second-order phase B: applying answers and committing
///   moves. Previously folded into `LocalCompute`/`LightMode`.
///
/// `Commit` is appended *after* `Finalize` so the indices of the original
/// eight phases stay stable across profile schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Walker instantiation.
    Init,
    /// Alias-table construction.
    AliasBuild,
    /// Chunked walker processing (parallel).
    LocalCompute,
    /// Move exchanges and allreduces.
    Exchange,
    /// Query exchange plus query execution.
    QueryRound,
    /// Answer exchange plus answer application.
    AnswerRound,
    /// Walker processing while in light mode.
    LightMode,
    /// Result merging and path reassembly.
    Finalize,
    /// Second-order answer application and move commits.
    Commit,
}

impl Phase {
    /// Every phase, in taxonomy order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Init,
        Phase::AliasBuild,
        Phase::LocalCompute,
        Phase::Exchange,
        Phase::QueryRound,
        Phase::AnswerRound,
        Phase::LightMode,
        Phase::Finalize,
        Phase::Commit,
    ];

    /// Stable snake-case name used in the JSON-lines schema.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::AliasBuild => "alias_build",
            Phase::LocalCompute => "local_compute",
            Phase::Exchange => "exchange",
            Phase::QueryRound => "query_round",
            Phase::AnswerRound => "answer_round",
            Phase::LightMode => "light_mode",
            Phase::Finalize => "finalize",
            Phase::Commit => "commit",
        }
    }

    /// This phase's index into timer arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Monotonic phase timers for one node, accumulated per BSP iteration.
///
/// Timing is two-level: `current` collects nanoseconds for the iteration
/// in flight; [`end_iteration`](PhaseTimers::end_iteration) snapshots it
/// into [`rows`](PhaseTimers::rows) (one row per iteration) and folds it
/// into [`totals`](PhaseTimers::totals). Setup work that precedes the
/// iteration loop (`Init`, `AliasBuild`) is folded into the totals without
/// a row via [`flush_setup`](PhaseTimers::flush_setup).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimers {
    current: [u64; N_PHASES],
    /// Accumulated nanoseconds per phase over the whole run.
    pub totals: [u64; N_PHASES],
    /// Number of timed intervals per phase over the whole run.
    pub counts: [u64; N_PHASES],
    /// Per-iteration nanoseconds per phase, one row per BSP iteration.
    pub rows: Vec<[u64; N_PHASES]>,
}

impl PhaseTimers {
    /// Fresh, zeroed timers.
    pub fn new() -> Self {
        PhaseTimers::default()
    }

    /// Adds `nanos` to `phase` in the current iteration.
    #[inline]
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        self.current[phase.index()] += nanos;
        self.counts[phase.index()] += 1;
    }

    /// Times `f` under `phase`.
    #[inline]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let begin = Instant::now();
        let out = f();
        self.add(phase, begin.elapsed().as_nanos() as u64);
        out
    }

    /// Folds pre-loop setup time into the totals without emitting an
    /// iteration row.
    pub fn flush_setup(&mut self) {
        for (total, cur) in self.totals.iter_mut().zip(&mut self.current) {
            *total += *cur;
            *cur = 0;
        }
    }

    /// Ends the current BSP iteration: snapshots the in-flight times as a
    /// new row and folds them into the totals.
    pub fn end_iteration(&mut self) {
        self.rows.push(self.current);
        self.flush_setup();
    }

    /// Total accumulated nanoseconds across all phases.
    pub fn total(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Merges another timer set into this one (totals, counts, and rows
    /// appended index-wise; rows are extended with zero-padding as
    /// needed).
    pub fn merge(&mut self, other: &PhaseTimers) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += *b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        if self.rows.len() < other.rows.len() {
            self.rows.resize(other.rows.len(), [0; N_PHASES]);
        }
        for (row, orow) in self.rows.iter_mut().zip(&other.rows) {
            for (a, b) in row.iter_mut().zip(orow) {
                *a += *b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_PHASES);
        assert_eq!(Phase::Exchange.name(), "exchange");
        assert_eq!(Phase::ALL[Phase::LightMode.index()], Phase::LightMode);
    }

    #[test]
    fn rows_and_totals_track_iterations() {
        let mut t = PhaseTimers::new();
        t.add(Phase::Init, 100);
        t.flush_setup();
        assert!(t.rows.is_empty());
        assert_eq!(t.totals[Phase::Init.index()], 100);

        t.add(Phase::LocalCompute, 10);
        t.add(Phase::Exchange, 5);
        t.end_iteration();
        t.add(Phase::LocalCompute, 20);
        t.end_iteration();

        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][Phase::LocalCompute.index()], 10);
        assert_eq!(t.rows[1][Phase::LocalCompute.index()], 20);
        assert_eq!(t.totals[Phase::LocalCompute.index()], 30);
        assert_eq!(t.total(), 135);
        assert_eq!(t.counts[Phase::LocalCompute.index()], 2);
    }

    #[test]
    fn timing_closure_returns_value_and_accumulates() {
        let mut t = PhaseTimers::new();
        let x = t.time(Phase::Finalize, || 41 + 1);
        assert_eq!(x, 42);
        assert_eq!(t.counts[Phase::Finalize.index()], 1);
    }

    #[test]
    fn merge_sums_rows_with_padding() {
        let mut a = PhaseTimers::new();
        a.add(Phase::Exchange, 1);
        a.end_iteration();
        let mut b = PhaseTimers::new();
        b.add(Phase::Exchange, 2);
        b.end_iteration();
        b.add(Phase::Exchange, 3);
        b.end_iteration();
        a.merge(&b);
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.rows[0][Phase::Exchange.index()], 3);
        assert_eq!(a.rows[1][Phase::Exchange.index()], 3);
        assert_eq!(a.totals[Phase::Exchange.index()], 6);
    }
}
