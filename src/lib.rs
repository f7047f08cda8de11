#![warn(missing_docs)]

//! # KnightKing-RS
//!
//! A Rust reproduction of **KnightKing: A Fast Distributed Graph Random
//! Walk Engine** (SOSP '19) — a general-purpose, walker-centric engine
//! executing user-defined random walk algorithms with exact,
//! rejection-sampling-based edge selection at O(1) expected cost per step.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR storage, builders, loaders, synthetic generators,
//!   1-D partitioning ([`knightking_graph`]).
//! * [`sampling`] — deterministic RNG, alias tables, inverse transform
//!   sampling, rejection-sampling primitives ([`knightking_sampling`]).
//! * [`cluster`] — the simulated distributed runtime: all-to-all message
//!   exchange, BSP collectives, chunked scheduling with light mode
//!   ([`knightking_cluster`]).
//! * [`net`] — the pluggable transport layer: the [`Transport`] trait the
//!   engine's collectives run on, the dependency-free [`Wire`] codec, and
//!   a real TCP backend for multi-process clusters ([`knightking_net`]).
//! * [`core`] — the engine: [`WalkerProgram`] API, rejection sampling
//!   with lower-bound pre-acceptance and outlier folding, the two-round
//!   state query protocol for second-order walks ([`knightking_core`]).
//! * [`walks`] — DeepWalk, PPR, Meta-path, node2vec
//!   ([`knightking_walks`]).
//! * [`baseline`] — the comparison systems: traditional full-scan
//!   sampling and a Gemini-style two-phase distributed engine
//!   ([`knightking_baseline`]).
//! * [`dynamic`] — the epoch-versioned dynamic graph layer: per-vertex
//!   delta adjacency over the immutable CSR base, with epoch-pinned
//!   snapshot reads and incremental sampler maintenance
//!   ([`knightking_dyn`]).
//! * [`serve`] — the resident walk service: the graph loads once and walk
//!   requests are admitted continuously at superstep boundaries, with
//!   bounded-queue backpressure, per-request deadlines, and live graph
//!   updates ([`knightking_serve`]).
//!
//! # Quick start
//!
//! ```
//! use knightking::prelude::*;
//!
//! // A small social-like graph.
//! let graph = gen::presets::livejournal_like(10, gen::GenOptions::seeded(42));
//!
//! // node2vec with the paper's parameters, on a 4-node simulated cluster.
//! let result = RandomWalkEngine::new(
//!     &graph,
//!     Node2Vec::new(2.0, 0.5, 20),
//!     WalkConfig::with_nodes(4, 7),
//! )
//! .run(WalkerStarts::Count(100));
//!
//! assert_eq!(result.paths.len(), 100);
//! println!(
//!     "{} steps, {:.2} Pd evaluations per step",
//!     result.metrics.steps,
//!     result.metrics.edges_per_step()
//! );
//! ```

pub use knightking_baseline as baseline;
pub use knightking_cluster as cluster;
pub use knightking_core as core;
pub use knightking_dyn as dynamic;
pub use knightking_graph as graph;
pub use knightking_net as net;
pub use knightking_sampling as sampling;
pub use knightking_serve as serve;
pub use knightking_walks as walks;

pub use knightking_core::{
    NoopObserver, RandomWalkEngine, Transport, WalkConfig, WalkMetrics, WalkObserver, WalkResult,
    Walker, WalkerProgram, WalkerStarts, Wire,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use knightking_baseline::{FullScanRunner, GeminiConfig, GeminiEngine};
    pub use knightking_core::{
        CsrGraph, DeterministicRng, EdgeView, GraphRef, NoopObserver, OutlierSlot,
        RandomWalkEngine, SamplerBackend, Transport, VertexId, WalkConfig, WalkMetrics,
        WalkObserver, WalkResult, Walker, WalkerProgram, WalkerStarts, Wire, WireError,
    };
    pub use knightking_dyn::{DynConfig, DynGraph, UpdateBatch};
    pub use knightking_graph::{gen, io, GraphBuilder, Partition};
    pub use knightking_net::{TcpConfig, TcpTransport};
    pub use knightking_serve::{ServiceConfig, ServiceHandle, StartSpec, WalkRequest, WalkService};
    pub use knightking_walks::{
        DeepWalk, IndexedNode2Vec, MetaPath, Node2Vec, NonBacktracking, Ppr, Rwr,
    };
}
