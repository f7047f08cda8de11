//! Engine configuration and walker placement.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use knightking_graph::VertexId;

/// A cooperative cancellation flag for long batch runs.
///
/// Cloning shares the flag. When [`WalkConfig::cancel`] carries a token,
/// the engine checks it once per superstep (as a collective, so every
/// node agrees) and, once cancelled, stops iterating: walkers freeze
/// where they are and the run finalizes normally — partial paths,
/// metrics, and the obs profile are all still assembled and flushed.
/// This is what lets `kk walk` turn SIGINT/SIGTERM into "drain and
/// flush" instead of dropping buffered output on the floor.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Safe to call from any thread (including a
    /// signal-watcher); idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Tokens compare by identity: two tokens are equal when they share the
/// same flag (`WalkConfig` derives `PartialEq` for config comparisons,
/// and "same config" means "same cancellation scope").
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Where walkers start (§5.2 "Initialization and termination").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkerStarts {
    /// `n` walkers placed by the paper's default strategy: walker `i`
    /// starts at vertex `i mod |V|`.
    Count(u64),
    /// One walker per vertex — the `|V|` walkers setup of §7.1.
    PerVertex,
    /// Explicit start vertices; walker `i` starts at `starts[i]`.
    Explicit(Vec<VertexId>),
}

impl WalkerStarts {
    /// Builds an explicit start list with `n` walkers placed at vertices
    /// sampled proportionally to out-degree — the natural "start from the
    /// stationary distribution" setup (§5.2 lets users supply a start
    /// *distribution*).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no edges but walkers were requested.
    pub fn degree_proportional(graph: &knightking_graph::CsrGraph, n: u64, seed: u64) -> Self {
        use knightking_sampling::DeterministicRng;
        if n == 0 {
            return WalkerStarts::Explicit(Vec::new());
        }
        let weights: Vec<f64> = (0..graph.vertex_count())
            .map(|v| graph.degree(v as VertexId) as f64)
            .collect();
        let cdf = knightking_sampling::CdfTable::new(&weights)
            .expect("degree-proportional starts need at least one edge");
        let mut rng = DeterministicRng::for_stream(seed, 0x57A2);
        WalkerStarts::Explicit((0..n).map(|_| cdf.sample(&mut rng) as VertexId).collect())
    }

    /// Checks every start vertex against the graph bounds, naming the
    /// first offending vertex instead of leaving the engine to hit a deep
    /// index panic later.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid start.
    pub fn validate(&self, vertex_count: usize) -> Result<(), String> {
        match self {
            WalkerStarts::Count(n) => {
                if vertex_count == 0 && *n > 0 {
                    return Err(format!(
                        "cannot start {n} walker(s): the graph has no vertices"
                    ));
                }
            }
            WalkerStarts::PerVertex => {}
            WalkerStarts::Explicit(starts) => {
                if let Some((i, &s)) = starts
                    .iter()
                    .enumerate()
                    .find(|&(_, &s)| (s as usize) >= vertex_count)
                {
                    return Err(format!(
                        "start vertex {s} (walker {i}) is out of range: the graph has \
                         {vertex_count} vertices (valid ids are 0..={})",
                        vertex_count.saturating_sub(1)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Materializes the start vertex of every walker.
    ///
    /// # Panics
    ///
    /// Panics with the [`validate`](WalkerStarts::validate) message if any
    /// start vertex is out of range (or the graph is empty but walkers
    /// were requested).
    pub fn materialize(&self, vertex_count: usize) -> Vec<VertexId> {
        if let Err(msg) = self.validate(vertex_count) {
            panic!("{msg}");
        }
        match self {
            WalkerStarts::Count(n) => (0..*n)
                .map(|i| (i % vertex_count as u64) as VertexId)
                .collect(),
            WalkerStarts::PerVertex => (0..vertex_count as VertexId).collect(),
            WalkerStarts::Explicit(starts) => starts.clone(),
        }
    }
}

/// Which static-component sampler backend the engine builds per vertex.
///
/// Both backends sample the *same* distribution exactly; they differ in
/// maintenance cost under graph updates and in RNG consumption pattern,
/// so walks are byte-identical *per backend* (an alias run never matches
/// a radix run draw-for-draw, but each backend matches itself against a
/// freshly rebuilt reference at the same epoch). Backend choice is
/// config, pinned for the lifetime of a run or service — never switched
/// mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerBackend {
    /// Walker's alias method: O(1) sample, O(degree) rebuild on any
    /// weight change. Best for static graphs.
    #[default]
    Alias,
    /// Radix (power-of-two slab) factorization over a canonical segment
    /// tree: O(log degree) sample, O(log degree) per-edge reweight. Best
    /// under churn — a batch reweighting k edges costs O(k log d), not
    /// O(Σ degree).
    Radix,
}

impl SamplerBackend {
    /// Parses a CLI spelling (`alias` | `radix`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the valid spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "alias" => Ok(SamplerBackend::Alias),
            "radix" => Ok(SamplerBackend::Radix),
            other => Err(format!("unknown sampler {other:?} (alias|radix)")),
        }
    }

    /// The canonical CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SamplerBackend::Alias => "alias",
            SamplerBackend::Radix => "radix",
        }
    }
}

impl std::fmt::Display for SamplerBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Engine configuration.
///
/// The ablation flags (`use_lower_bound`, `use_outliers`,
/// `decoupled_static`) exist to reproduce the paper's Table 5 and
/// Figure 8; production users leave them at the defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkConfig {
    /// Number of simulated cluster nodes.
    pub n_nodes: usize,
    /// Compute threads per node (`0` = auto: available parallelism divided
    /// by `n_nodes`, at least 1).
    pub threads_per_node: usize,
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Record full walk paths (excluded from the paper's timings; cheap
    /// but memory-proportional to total steps).
    pub record_paths: bool,
    /// Light-mode threshold: a node with fewer active walkers processes
    /// them on one thread (§6.2; paper default 4000). `0` disables.
    pub light_threshold: usize,
    /// Task granularity for walkers and messages (paper default 128).
    pub chunk_size: usize,
    /// Local rejection trials before falling back to an exact full scan.
    /// The fallback guarantees liveness when all `Pd` mass is (nearly)
    /// zero — e.g. a Meta-path walker at a vertex with no matching edge
    /// type.
    pub max_local_trials: u32,
    /// Honor the program's `lower_bound` (pre-acceptance, Table 5a).
    pub use_lower_bound: bool,
    /// Honor the program's outlier declarations (appendix folding,
    /// Table 5b).
    pub use_outliers: bool,
    /// Keep `Ps` decoupled from `Pd` (Figure 8). When `false` ("mixed"
    /// mode), the engine emulates traditional samplers that fold edge
    /// weights into the dynamic component: candidates are drawn uniformly
    /// and `Pd` is multiplied by the weight, inflating the envelope by the
    /// vertex's maximum weight.
    pub decoupled_static: bool,
    /// Collect a per-run observability profile (phase timers, trace
    /// events, histograms) into `WalkResult::profile`. Profiling never
    /// changes walk results: instrumentation is accumulated per chunk and
    /// merged in chunk order, like every other engine output.
    pub profile: bool,
    /// Optional cooperative cancellation token (see [`CancelToken`]).
    /// When set, the engine spends one extra allreduce per superstep to
    /// agree on cancellation; when `None` the run pays nothing. The same
    /// token must be configured on every node of a distributed run (the
    /// check is a collective).
    pub cancel: Option<CancelToken>,
    /// Static-component sampler backend (see [`SamplerBackend`]).
    /// Epoch-pinned by construction: config is immutable for the lifetime
    /// of a run or resident service, so every walker of a run samples
    /// through the same backend regardless of its admission epoch.
    pub sampler: SamplerBackend,
}

impl WalkConfig {
    /// A single-node configuration with auto threads.
    pub fn single_node(seed: u64) -> Self {
        WalkConfig::with_nodes(1, seed)
    }

    /// An `n`-node configuration with auto threads.
    pub fn with_nodes(n_nodes: usize, seed: u64) -> Self {
        WalkConfig {
            n_nodes,
            threads_per_node: 0,
            seed,
            record_paths: true,
            light_threshold: knightking_cluster::scheduler::DEFAULT_LIGHT_THRESHOLD,
            chunk_size: knightking_cluster::scheduler::DEFAULT_CHUNK,
            max_local_trials: 64,
            use_lower_bound: true,
            use_outliers: true,
            decoupled_static: true,
            profile: false,
            cancel: None,
            sampler: SamplerBackend::default(),
        }
    }

    /// Resolved threads per node.
    pub fn resolved_threads(&self) -> usize {
        if self.threads_per_node > 0 {
            self.threads_per_node
        } else {
            let total = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            (total / self.n_nodes).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_proportional_favors_hubs() {
        use knightking_graph::GraphBuilder;
        let mut b = GraphBuilder::directed(3);
        // Vertex 0: degree 8; vertex 1: degree 2; vertex 2: degree 0.
        for _ in 0..8 {
            b.add_edge(0, 1);
        }
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        let g = b.build();
        let WalkerStarts::Explicit(starts) = WalkerStarts::degree_proportional(&g, 10_000, 1)
        else {
            panic!("expected explicit starts")
        };
        let at0 = starts.iter().filter(|&&s| s == 0).count();
        let at2 = starts.iter().filter(|&&s| s == 2).count();
        assert!(at0 > 7_500 && at0 < 8_500, "hub share {at0}");
        assert_eq!(at2, 0, "degree-0 vertex must never start a walker");
    }

    #[test]
    fn degree_proportional_zero_walkers() {
        use knightking_graph::GraphBuilder;
        let g = GraphBuilder::directed(1).build();
        assert_eq!(
            WalkerStarts::degree_proportional(&g, 0, 1),
            WalkerStarts::Explicit(Vec::new())
        );
    }

    #[test]
    fn count_uses_modulo_placement() {
        let starts = WalkerStarts::Count(7).materialize(3);
        assert_eq!(starts, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn per_vertex_places_one_each() {
        let starts = WalkerStarts::PerVertex.materialize(4);
        assert_eq!(starts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn explicit_passes_through() {
        let starts = WalkerStarts::Explicit(vec![2, 2, 0]).materialize(3);
        assert_eq!(starts, vec![2, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_out_of_range_panics() {
        WalkerStarts::Explicit(vec![5]).materialize(3);
    }

    #[test]
    fn zero_walkers_on_empty_graph_is_fine() {
        assert!(WalkerStarts::Count(0).materialize(0).is_empty());
    }

    #[test]
    fn validate_names_the_offending_vertex() {
        let err = WalkerStarts::Explicit(vec![0, 2, 9])
            .validate(3)
            .unwrap_err();
        assert!(err.contains("start vertex 9"), "{err}");
        assert!(err.contains("walker 2"), "{err}");
        assert!(err.contains("3 vertices"), "{err}");
        assert!(WalkerStarts::Explicit(vec![0, 2]).validate(3).is_ok());
        assert!(WalkerStarts::Count(5).validate(0).is_err());
        assert!(WalkerStarts::Count(0).validate(0).is_ok());
        assert!(WalkerStarts::PerVertex.validate(0).is_ok());
    }

    #[test]
    fn cancel_token_shares_state_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
        assert_eq!(t, t2, "clones compare equal (same flag)");
        assert_ne!(t, CancelToken::new(), "distinct tokens differ");
    }

    #[test]
    fn resolved_threads_positive() {
        let mut c = WalkConfig::with_nodes(64, 1);
        assert!(c.resolved_threads() >= 1);
        c.threads_per_node = 3;
        assert_eq!(c.resolved_threads(), 3);
    }
}
