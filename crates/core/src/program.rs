//! The KnightKing programming model: user-defined random walk algorithms.
//!
//! [`WalkerProgram`] is the Rust rendering of the paper's API surface
//! (§5.2, Figure 4). The correspondence:
//!
//! | Paper API                 | Trait member                       |
//! |---------------------------|------------------------------------|
//! | `edgeStaticComp`          | [`WalkerProgram::static_comp`]     |
//! | `edgeDynamicComp`         | [`WalkerProgram::dynamic_comp`]    |
//! | `postStateQuery`          | [`WalkerProgram::state_query`]     |
//! | query execution at owner  | [`WalkerProgram::answer_query`]    |
//! | `dynamicCompUpperBound`   | [`WalkerProgram::upper_bound`]     |
//! | `dynamicCompLowerBound`   | [`WalkerProgram::lower_bound`]     |
//! | outlier declaration       | [`WalkerProgram::declare_outliers`]|
//! | termination (`Pe`)        | [`WalkerProgram::should_terminate`]|
//! | walker state init/update  | [`WalkerProgram::init_data`], [`WalkerProgram::on_move`] |
//!
//! The engine consults the two associated consts to pick its execution
//! path: [`WalkerProgram::DYNAMIC`] distinguishes static from dynamic
//! walks (static walks skip rejection sampling entirely, as §7.2 notes),
//! and [`WalkerProgram::SECOND_ORDER`] enables the two-round
//! walker-to-vertex query protocol within each iteration.

use std::io;

use knightking_graph::{EdgeView, VertexId};
use knightking_net::{Wire, WireError};
use knightking_sampling::rejection::OutlierSlot;

use crate::graphref::GraphRef;
use crate::walker::{Walker, WalkerData};

/// A user-defined random walk algorithm.
///
/// Implementations must be cheap to call and thread-safe (`Sync`): the
/// engine invokes these hooks from every node's worker threads.
///
/// # Exactness contract
///
/// Rejection sampling stays *exact* as long as the declared bounds are
/// true bounds:
///
/// * [`upper_bound`] ≥ `Pd(e)` for every non-outlier out-edge `e`,
/// * [`lower_bound`] ≤ `Pd(e)` for every out-edge `e`,
/// * each [`OutlierSlot`]'s `width_bound` ≥ the outlier edge's `Ps` and
///   `height_bound` ≥ its `Pd`.
///
/// Loose bounds cost extra trials; *wrong* bounds skew the distribution.
///
/// [`upper_bound`]: WalkerProgram::upper_bound
/// [`lower_bound`]: WalkerProgram::lower_bound
pub trait WalkerProgram: Sync + Sized {
    /// Algorithm-defined per-walker state.
    ///
    /// The [`Wire`] bound lets walkers migrate between *processes* on the
    /// TCP transport; in-process runs never serialize, but the encoding
    /// must exist so the same program runs on either backend.
    type Data: WalkerData + Wire;
    /// Payload of a walker-to-vertex state query.
    type Query: Copy + Send + Wire + 'static;
    /// Payload of a query response.
    type Answer: Copy + Send + Wire + 'static;

    /// Whether the walk has a non-trivial dynamic component `Pd`.
    ///
    /// When `false` (static walks: DeepWalk, PPR), the engine accepts the
    /// first static candidate directly — no rejection sampling, matching
    /// the paper's "executes its unified sampling workflow, but without
    /// actually performing rejection sampling".
    const DYNAMIC: bool = true;

    /// Whether evaluating `Pd` may require consulting *another* vertex's
    /// state (second-order walks: node2vec). Enables the two-round query
    /// message passing of §5.1.
    const SECOND_ORDER: bool = false;

    /// The static component `Ps(e)` — `edgeStaticComp`.
    ///
    /// Defaults to the edge weight (1 on unweighted graphs). The engine
    /// pre-computes per-vertex alias tables from this during
    /// initialization, so it must not depend on walker state.
    fn static_comp(&self, _graph: &GraphRef<'_>, edge: EdgeView) -> f64 {
        edge.weight as f64
    }

    /// The dynamic component `Pd(e, v, w)` — `edgeDynamicComp`.
    ///
    /// `answer` carries the response to the state query this program
    /// posted for this candidate (always `None` for first-order walks, and
    /// for candidates the program declined to query).
    fn dynamic_comp(
        &self,
        _graph: &GraphRef<'_>,
        _walker: &Walker<Self::Data>,
        _edge: EdgeView,
        _answer: Option<Self::Answer>,
    ) -> f64 {
        1.0
    }

    /// Envelope `Q(v)` — `dynamicCompUpperBound`. Mandatory for dynamic
    /// walks: must bound `Pd` over all non-outlier out-edges of the
    /// walker's residing vertex.
    fn upper_bound(&self, _graph: &GraphRef<'_>, _walker: &Walker<Self::Data>) -> f64 {
        1.0
    }

    /// Optional `L(v)` — `dynamicCompLowerBound`. Darts at or below this
    /// height are pre-accepted without evaluating `Pd` (or sending state
    /// queries). Return 0 to disable.
    fn lower_bound(&self, _graph: &GraphRef<'_>, _walker: &Walker<Self::Data>) -> f64 {
        0.0
    }

    /// Optional outlier declaration (§4.2).
    ///
    /// Push one [`OutlierSlot`] per edge whose `Pd` may exceed `Q(v)`;
    /// the engine folds their excess probability mass into appendix areas
    /// instead of raising the whole envelope. The engine locates each
    /// outlier edge by its `target` vertex via binary search.
    fn declare_outliers(
        &self,
        _graph: &GraphRef<'_>,
        _walker: &Walker<Self::Data>,
        _out: &mut Vec<OutlierSlot>,
    ) {
    }

    /// Decides whether this candidate needs a walker-to-vertex state query
    /// — `postStateQuery`. Returns the vertex to consult and the payload.
    ///
    /// The engine runs [`answer_query`](WalkerProgram::answer_query) at
    /// the node owning the target vertex — on the spot when that is the
    /// asking node, through a query message otherwise — and hands the
    /// response to [`dynamic_comp`](WalkerProgram::dynamic_comp) in the
    /// same iteration. Must be a pure function of its arguments: the
    /// engine also calls it ahead of time to hint the answer's memory.
    fn state_query(
        &self,
        _walker: &Walker<Self::Data>,
        _candidate: EdgeView,
    ) -> Option<(VertexId, Self::Query)> {
        None
    }

    /// Executes a state query at the node owning `target`, against the
    /// asking walker's pinned snapshot. Must be a pure function of its
    /// arguments — that is what makes a walk independent of which node
    /// owns the vertices it asks about.
    ///
    /// Default panics: programs that never post queries never get here.
    fn answer_query(
        &self,
        _graph: &GraphRef<'_>,
        _target: VertexId,
        _query: Self::Query,
    ) -> Self::Answer {
        unreachable!("program posted no state queries but answer_query was invoked")
    }

    /// Creates the custom state for walker `id` starting at `start`.
    fn init_data(&self, id: u64, start: VertexId) -> Self::Data;

    /// The termination component `Pe`: called before each step; returning
    /// `true` ends the walk. May draw from `walker.rng` (e.g. PPR's
    /// termination coin).
    fn should_terminate(&self, walker: &mut Walker<Self::Data>) -> bool;

    /// Optional teleport: called once per step after the termination
    /// check; returning `Some(v)` relocates the walker to `v` *without*
    /// traversing an edge (counted as a step, recorded in the path).
    ///
    /// This is how restart-style algorithms (random walk with restart,
    /// PageRank's damping jump) are expressed; edge sampling is skipped
    /// for teleport steps. May draw from `walker.rng`.
    fn teleport(
        &self,
        _graph: &GraphRef<'_>,
        _walker: &mut Walker<Self::Data>,
    ) -> Option<VertexId> {
        None
    }

    /// Hook invoked after a walker advances along an accepted edge.
    fn on_move(&self, _graph: &GraphRef<'_>, _walker: &mut Walker<Self::Data>) {}
}

/// In-flight aggregation over walker moves (§5.1: "output can be
/// generated by computation embedded during the random walk process").
///
/// An observer sees every accepted move (edge steps and teleports alike)
/// and folds it into an accumulator — visit counts, hit times, endpoint
/// histograms — without the engine retaining O(total steps) of path
/// memory. Accumulators are chunk-local during execution (no locks on
/// the hot path) and merged hierarchically: chunk → node → run.
///
/// # Examples
///
/// ```
/// use knightking_core::{
///     RandomWalkEngine, VertexId, WalkConfig, WalkObserver, Walker, WalkerProgram,
///     WalkerStarts,
/// };
/// use knightking_graph::gen;
///
/// struct Fixed;
/// impl WalkerProgram for Fixed {
///     type Data = ();
///     type Query = ();
///     type Answer = ();
///     const DYNAMIC: bool = false;
///     fn init_data(&self, _id: u64, _start: VertexId) {}
///     fn should_terminate(&self, w: &mut Walker<()>) -> bool { w.step >= 5 }
/// }
///
/// /// Counts visits per vertex.
/// struct VisitCounts(usize);
/// impl WalkObserver<()> for VisitCounts {
///     type Acc = Vec<u64>;
///     fn make_acc(&self) -> Vec<u64> { vec![0; self.0] }
///     fn on_move(&self, acc: &mut Vec<u64>, w: &Walker<()>) {
///         acc[w.current as usize] += 1;
///     }
///     fn merge(&self, into: &mut Vec<u64>, from: Vec<u64>) {
///         for (a, b) in into.iter_mut().zip(from) { *a += b; }
///     }
/// }
///
/// let g = gen::uniform_degree(50, 4, gen::GenOptions::seeded(1));
/// let mut cfg = WalkConfig::single_node(2);
/// cfg.record_paths = false; // no paths needed: the observer aggregates
/// let (result, visits) = RandomWalkEngine::new(&g, Fixed, cfg)
///     .run_with_observer(WalkerStarts::PerVertex, &VisitCounts(50));
/// assert_eq!(visits.iter().sum::<u64>(), result.metrics.steps);
/// ```
pub trait WalkObserver<D>: Sync {
    /// The accumulator type.
    type Acc: Send;

    /// Creates a fresh (chunk-local) accumulator.
    fn make_acc(&self) -> Self::Acc;

    /// Called after every accepted walker move, with the walker already
    /// advanced (`walker.current` is the new vertex, `walker.prev` the
    /// old one).
    fn on_move(&self, acc: &mut Self::Acc, walker: &Walker<D>);

    /// Folds one accumulator into another.
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc);
}

/// The do-nothing observer used by [`RandomWalkEngine::run`].
///
/// [`RandomWalkEngine::run`]: crate::RandomWalkEngine::run
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl<D> WalkObserver<D> for NoopObserver {
    type Acc = ();
    fn make_acc(&self) {}
    fn on_move(&self, _acc: &mut (), _walker: &Walker<D>) {}
    fn merge(&self, _into: &mut (), _from: ()) {}
}

/// The standard neighbor-membership query of the paper's
/// `postNeighborQuery` utility: "does `target` have an edge to `subject`?".
///
/// Second-order programs like node2vec can use this as their `Query`
/// payload and answer it with [`answer_neighbor_query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborQuery {
    /// The vertex whose adjacency is tested (walker's previous stop `t`).
    /// This is the vertex the query is routed to.
    pub subject: VertexId,
}

impl Wire for NeighborQuery {
    fn wire_size(&self) -> usize {
        self.subject.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.subject.encode(out)
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        Ok(NeighborQuery {
            subject: VertexId::decode(input)?,
        })
    }
}

/// Answers a [`NeighborQuery`] at the owner of `target`: O(log d) binary
/// search over the sorted adjacency (§6.1).
pub fn answer_neighbor_query(graph: &GraphRef<'_>, target: VertexId, query: NeighborQuery) -> bool {
    graph.has_edge(target, query.subject)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_graph::GraphBuilder;

    struct Trivial;
    impl WalkerProgram for Trivial {
        type Data = ();
        type Query = ();
        type Answer = ();
        fn init_data(&self, _id: u64, _start: VertexId) {}
        fn should_terminate(&self, walker: &mut Walker<()>) -> bool {
            walker.step >= 1
        }
    }

    #[test]
    fn defaults_are_sensible() {
        let mut b = GraphBuilder::directed(2).with_weights();
        b.add_weighted_edge(0, 1, 2.5);
        let csr = b.build();
        let g = GraphRef::from(&csr);
        let p = Trivial;
        let w: Walker<()> = Walker::new(0, 0, 1, ());
        let e = g.edge(0, 0);
        assert_eq!(p.static_comp(&g, e), 2.5);
        let mut w2 = w.clone();
        assert_eq!(p.dynamic_comp(&g, &w2, e, None), 1.0);
        assert_eq!(p.upper_bound(&g, &w2), 1.0);
        assert_eq!(p.lower_bound(&g, &w2), 0.0);
        assert!(p.state_query(&w2, e).is_none());
        let mut outs = Vec::new();
        p.declare_outliers(&g, &w2, &mut outs);
        assert!(outs.is_empty());
        assert!(!p.should_terminate(&mut w2));
        w2.advance(1);
        assert!(p.should_terminate(&mut w2));
    }

    #[test]
    #[should_panic(expected = "no state queries")]
    fn default_answer_query_panics() {
        let csr = GraphBuilder::directed(1).build();
        Trivial.answer_query(&GraphRef::from(&csr), 0, ());
    }

    #[test]
    fn neighbor_query_checks_membership() {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(1, 2);
        b.add_edge(1, 3);
        let csr = b.build();
        let g = GraphRef::from(&csr);
        assert!(answer_neighbor_query(&g, 1, NeighborQuery { subject: 2 }));
        assert!(!answer_neighbor_query(&g, 1, NeighborQuery { subject: 0 }));
        assert!(!answer_neighbor_query(&g, 2, NeighborQuery { subject: 1 }));
    }
}
