#![warn(missing_docs)]

//! Pluggable transport layer for the KnightKing engine.
//!
//! The paper runs KnightKing on an 8-node cluster over OpenMPI (§6.2,
//! §7.1). This crate abstracts the engine's communication surface — the
//! three MPI-style collectives it actually uses plus a result gather —
//! behind the [`Transport`] trait, with two interchangeable backends:
//!
//! * the **in-process simulated cluster** of `knightking-cluster`
//!   ([`NodeCtx`](knightking_cluster::NodeCtx) implements [`Transport`]
//!   with zero behavior change), and
//! * a real **TCP backend** ([`TcpTransport`]) that runs each node as a
//!   separate OS process over a full mesh of framed, handshake-validated
//!   socket connections.
//!
//! Messages cross process boundaries through the dependency-free
//! [`Wire`] codec; its exact `wire_size` doubles as the byte-accounting
//! function for both backends, so communication-volume histograms agree
//! whether the cluster is simulated or real.

pub mod frame;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use tcp::{reserve_loopback_addrs, TcpConfig, TcpTransport};
pub use transport::Transport;
pub use wire::{from_bytes, to_bytes, MergeRule, Metric, MetricKind, Wire, WireError};
