#![warn(missing_docs)]

//! Graph substrate for the KnightKing random walk engine.
//!
//! Implements §6.1 of the paper plus everything the evaluation needs:
//!
//! * [`csr`] — compressed sparse row storage with per-vertex sorted
//!   adjacency, optional edge weights and edge types, and O(log d)
//!   neighbor membership checks (the primitive behind node2vec's
//!   walker-to-vertex state queries).
//! * [`builder`] — incremental construction from edge lists, with directed
//!   and undirected (stored-twice) modes.
//! * [`partition`] — 1-D contiguous vertex partitioning balancing
//!   `α·|V| + |E|` per node, exactly the heuristic of §6.1.
//! * [`gen`] — the synthetic graph generators used in §7.3 (uniform
//!   degree, truncated power-law, hotspot injection) plus an R-MAT
//!   generator standing in for the paper's real-world social graphs, and
//!   the `[1, 5)` random weight assignment of §7.1.
//! * [`io`] — plain-text edge-list load/save; [`binfmt`] — compact
//!   binary CSR format for fast reloads.
//! * [`filter`] — optional per-vertex Bloom filters accelerating the
//!   neighbor membership queries of second-order walks at hub vertices.

pub mod binfmt;
pub mod builder;
pub mod components;
pub mod csr;
pub mod filter;
pub mod gen;
pub mod io;
pub mod partition;

pub use builder::GraphBuilder;
pub use components::{connected_components, Components};
pub use csr::{CsrGraph, EdgeView};
pub use filter::NeighborIndex;
pub use partition::Partition;

/// Identifies a vertex. Dense ids in `[0, |V|)`.
pub type VertexId = u32;

/// Identifies an edge type (for heterogeneous graphs / Meta-path walks).
pub type EdgeTypeId = u8;

/// Edge weight, the static transition component `Ps` of biased walks.
pub type Weight = f32;

/// Errors produced by graph construction and loading.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id at or beyond the declared count.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The declared vertex count.
        vertex_count: usize,
    },
    /// An edge weight was negative, NaN, or infinite.
    InvalidWeight {
        /// The offending weight.
        weight: Weight,
    },
    /// A malformed line was encountered while parsing an edge list.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                vertex_count,
            } => {
                write!(f, "vertex {vertex} out of range (|V| = {vertex_count})")
            }
            GraphError::InvalidWeight { weight } => {
                write!(f, "invalid edge weight {weight}")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
