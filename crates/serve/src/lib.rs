#![warn(missing_docs)]

//! `knightking-serve`: a resident walk service.
//!
//! Batch execution (`RandomWalkEngine::run`) loads the graph, runs one
//! walk workload, and exits — fine for offline embedding pipelines,
//! wasteful when walks arrive continuously. This crate keeps the graph
//! **resident**: a [`WalkService`] runs the engine's BSP loop forever
//! and admits new walk requests at superstep boundaries, so a request's
//! latency is its own walk length plus at most one superstep of queueing,
//! not a full graph reload.
//!
//! The pieces:
//!
//! * [`protocol`] — the request/response wire protocol (`REQ`/`RESP`
//!   frames on `knightking-net`'s frame layer) plus client helpers;
//! * [`service`] — [`WalkService`] / [`ServiceHandle`]: the bounded
//!   admission queue (reject-with-retry-after on overflow), per-request
//!   deadlines, and drain-then-exit shutdown;
//! * [`listener`] — the TCP front door: every client connection lives
//!   in one `knightking-reactor` event-loop thread, and each request is
//!   queued under its tenant's weighted-fair-queueing lane (tenants come
//!   from the hello; weights and quotas from [`ServiceConfig`]);
//! * [`stats`] — request latency and queue-depth histograms in the same
//!   report schemas as `knightking-obs` profiles, plus the live metrics
//!   plane: per-superstep gauges, a bounded time series, the
//!   `Request::Stats` snapshot, and Prometheus text exposition;
//! * [`trace`] — the bounded leader-side log of sampled request traces,
//!   exporting JSONL and Chrome trace-event JSON (Perfetto-viewable);
//! * [`metrics_http`] — the `--metrics-addr` scrape endpoint;
//! * [`signal`] — SIGINT/SIGTERM → [`knightking_core::CancelToken`].
//!
//! Served walks are **byte-deterministic**: a request carries its own
//! seed, and each of its walkers draws from the private RNG stream of
//! its request-local index, so the paths returned for a request are
//! byte-identical to a batch `run` with the same seed and starts — on
//! one node or many, in-process or over TCP.
//!
//! ```
//! use knightking_core::{WalkConfig, Walker, WalkerProgram};
//! use knightking_graph::gen;
//! use knightking_serve::{ServiceConfig, StartSpec, Status, WalkRequest, WalkService};
//!
//! struct Fixed(u32);
//! impl WalkerProgram for Fixed {
//!     type Data = ();
//!     type Query = ();
//!     type Answer = ();
//!     const DYNAMIC: bool = false;
//!     fn init_data(&self, _id: u64, _start: u32) {}
//!     fn should_terminate(&self, w: &mut Walker<()>) -> bool {
//!         w.step >= self.0
//!     }
//! }
//!
//! let graph = gen::uniform_degree(64, 4, gen::GenOptions::seeded(1));
//! let (service, handle) = WalkService::new(ServiceConfig::default());
//! let client = handle.clone();
//! let t = std::thread::spawn(move || {
//!     let rx = client.submit(WalkRequest {
//!         seed: 7,
//!         starts: StartSpec::Count(5),
//!         deadline_ms: 0,
//!         stitch: false,
//!     });
//!     let resp = rx.recv().unwrap();
//!     assert_eq!(resp.status, Status::Ok);
//!     assert_eq!(resp.paths.len(), 5);
//!     client.shutdown();
//! });
//! service.run(&graph, Fixed(8), WalkConfig::single_node(0));
//! t.join().unwrap();
//! ```

pub mod listener;
pub mod metrics_http;
pub mod protocol;
mod qos;
pub mod service;
pub mod signal;
pub mod stats;
pub mod trace;

pub use listener::{serve_listener, serve_listener_with, ListenerConfig};
pub use metrics_http::metrics_listener;
pub use protocol::{
    Request, StartSpec, Status, WalkRequest, WalkResponse, DEFAULT_TENANT, SERVE_MAGIC,
    SERVE_VERSION,
};
pub use service::{Responder, ServiceConfig, ServiceHandle, WalkService};
pub use stats::{SeriesPoint, ServeCounters, ServeStats, StatsReport, TenantStat};
pub use trace::TraceLog;
