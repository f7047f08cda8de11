#![warn(missing_docs)]

//! KnightKing: a walker-centric distributed graph random walk engine.
//!
//! This crate is the core of the KnightKing reproduction — the paper's
//! primary contribution. It provides:
//!
//! * the **unified transition probability model** (§2.2): each edge's
//!   unnormalized probability is `Ps(e) · Pd(e, v, w) · Pe(v, w)`, where
//!   users supply the static component `Ps`, the dynamic component `Pd`
//!   with upper/lower bounds and optional outlier declarations, and the
//!   termination component `Pe` — all through the [`WalkerProgram`] trait
//!   (the `edgeStaticComp` / `edgeDynamicComp` / `postStateQuery` /
//!   `dynamicCompUpperBound` / `dynamicCompLowerBound` APIs of §5.2);
//! * the **rejection-sampling execution engine** (§4): per-vertex alias
//!   tables for the static component, dart-board trials against the
//!   envelope `Q(v)`, lower-bound pre-acceptance, and outlier folding —
//!   O(1) expected cost per step regardless of vertex degree, with *exact*
//!   sampling;
//! * the **walker-centric BSP workflow** (§5.1): iterations over active
//!   walkers with walker migration across vertex partitions, and the
//!   two-round walker-to-vertex state query protocol that second-order
//!   algorithms (like node2vec) need;
//! * the system optimizations of §6: 1-D workload-balanced partitioning,
//!   chunked dynamic task scheduling, and straggler-aware light mode.
//!
//! # Quick start
//!
//! ```
//! use knightking_core::{RandomWalkEngine, WalkConfig, WalkerProgram, Walker, WalkerStarts};
//! use knightking_graph::gen;
//!
//! /// An unbiased truncated random walk of fixed length.
//! struct SimpleWalk;
//!
//! impl WalkerProgram for SimpleWalk {
//!     type Data = ();
//!     type Query = ();
//!     type Answer = ();
//!     const DYNAMIC: bool = false;
//!
//!     fn init_data(&self, _id: u64, _start: u32) {}
//!     fn should_terminate(&self, walker: &mut Walker<()>) -> bool {
//!         walker.step >= 10
//!     }
//! }
//!
//! let graph = gen::uniform_degree(100, 8, gen::GenOptions::seeded(3));
//! let result = RandomWalkEngine::new(&graph, SimpleWalk, WalkConfig::single_node(7))
//!     .run(WalkerStarts::Count(50));
//! assert_eq!(result.paths.len(), 50);
//! assert!(result.paths.iter().all(|p| p.len() == 11)); // start + 10 steps
//! ```

pub mod config;
pub mod engine;
pub mod graphref;
pub mod metrics;
pub mod program;
pub mod result;
pub mod walker;

pub use config::{CancelToken, SamplerBackend, WalkConfig, WalkerStarts};
#[doc(hidden)]
pub use engine::LOOKAHEAD;
pub use engine::{
    AdmitRequest, Directives, EpochUpdate, FinishedWalk, LiveSample, Msg, NoopDriver,
    RandomWalkEngine, ServeDelta, ServeDriver, SpanEvent, SpanEventKind,
};
pub use graphref::GraphRef;
pub use metrics::WalkMetrics;
pub use program::{NoopObserver, WalkObserver, WalkerProgram};
pub use result::WalkResult;
pub use walker::Walker;

// Re-export the substrate types users need to write programs.
pub use knightking_dyn::{DynConfig, DynGraph, UpdateBatch};
pub use knightking_graph::{CsrGraph, EdgeView, VertexId};
pub use knightking_net::{Transport, Wire, WireError};
pub use knightking_sampling::{rejection::OutlierSlot, DeterministicRng};

/// The observability primitives backing `WalkResult::profile` (phase
/// timers, event rings, histograms, report sinks).
pub use knightking_obs as obs;
