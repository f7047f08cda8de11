#![warn(missing_docs)]

//! Observability primitives for the KnightKing engine.
//!
//! The paper's evaluation (§7) reasons entirely about *where time goes* —
//! sampling vs. communication vs. synchronization, light-mode tail
//! behaviour (§6.2/§7.5), per-node load imbalance. This crate provides the
//! instrumentation those arguments need, with two hard constraints the
//! engine imposes:
//!
//! * **zero external dependencies** — everything here is `std` only,
//!   including the JSON-lines serialization (no serde);
//! * **no atomics, no locks, no floats on the hot path** — recording a
//!   value is an integer bucket increment into thread-owned state; data is
//!   merged in deterministic chunk order at exchange barriers, mirroring
//!   the scheduler's determinism contract. Whether a run records at all
//!   is the runtime `WalkConfig::profile`; there is no build-time switch.
//!
//! Four building blocks:
//!
//! * [`Phase`] / [`PhaseTimers`] — monotonic wall-time accumulation over a
//!   fixed phase taxonomy, per node per BSP iteration.
//! * [`EventRing`] — a bounded, overwrite-oldest trace buffer for
//!   [`Event`]s (superstep transitions, light-mode switches, full-scan
//!   fallbacks). Rings are thread-owned (hence lock-free) and drained at
//!   exchange barriers.
//! * [`Pow2Histogram`] — power-of-two-bucket histograms: `record` is two
//!   integer ops and an array increment, no floats.
//! * [`BoundedRing`] — a bounded, overwrite-oldest time-series ring for
//!   per-superstep gauge snapshots in resident services, where history
//!   must stay bounded over days of uptime.
//! * [`RunProfile`] / [`NodeProfile`] — the aggregated per-run report,
//!   rendering both a human-readable table and machine-readable JSON
//!   lines (see [`report`] for the schema).

pub mod hist;
pub mod phase;
pub mod report;
pub mod ring;
pub mod series;

pub use hist::Pow2Histogram;
pub use phase::{Phase, PhaseTimers, N_PHASES};
pub use report::{write_hist_jsonl, NodeProfile, RunProfile};
pub use ring::{Event, EventKind, EventRing};
pub use series::BoundedRing;
