//! Open-world ("serve") execution: a resident BSP loop with continuous
//! walker admission.
//!
//! Batch runs ([`RandomWalkEngine::run`]) instantiate every walker up
//! front and iterate until none remain. Serve mode inverts that: the
//! engine loads the graph once and runs supersteps forever, and a
//! [`ServeDriver`] on the leader node injects new tagged walkers between
//! supersteps and collects per-request results as walkers terminate.
//! This is the continuous-batching idea from model inference serving
//! applied to random walks — walkers from many requests share every
//! superstep's compute and exchanges.
//!
//! # Protocol per superstep
//!
//! 1. every node gathers its [`ServeDelta`] (new path fragments + newly
//!    finished walkers) to the leader;
//! 2. the leader feeds the deltas to the driver and broadcasts the
//!    driver's [`Directives`] (admissions, kills, graph updates,
//!    retirement, shutdown) to all nodes;
//! 3. every node applies kills, then the graph update (if any) in
//!    lockstep, then retirement, then instantiates the admitted walkers
//!    it owns — each pinned at the now-current graph epoch;
//! 4. an allreduce agrees on the active-walker count: the loop exits when
//!    a shutdown was directed *and* no walker remains (drain-then-exit);
//!    with no walker and no shutdown the leader parks in
//!    [`ServeDriver::wait_for_work`] and the boundary repeats when it
//!    returns;
//! 5. one normal BSP iteration advances every active walker.
//!
//! # Determinism
//!
//! A served walk is byte-identical to a batch run of the same request:
//! walker trajectories depend only on the private RNG stream derived from
//! `(request seed, walker index within the request)`, so neither the
//! superstep at which a request is admitted nor which other requests
//! share its supersteps can perturb its paths. The request-local walker
//! index feeds `init_data` and the RNG stream; the globally unique id
//! (`base_id + index`) only labels path fragments, and the driver shifts
//! it back out before reassembly.

use std::mem;

use knightking_cluster::Scheduler;
use knightking_dyn::UpdateBatch;
use knightking_graph::{Partition, VertexId};
use knightking_net::{from_bytes, to_bytes, Transport, Wire, WireError};

use crate::{
    graphref::GraphRef,
    metrics::WalkMetrics,
    program::{NoopObserver, WalkObserver, WalkerProgram},
    result::PathEntry,
    walker::Walker,
};

use super::{
    first_order,
    instrument::{NodeObs, N_PHASES},
    second_order, Msg, NodeRt, RandomWalkEngine, Slot, SlotState,
};

/// A walker that terminated, reported to the leader so it can complete
/// the request the walker belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedWalk {
    /// The request tag the walker carried ([`Walker::tag`]).
    ///
    /// [`Walker::tag`]: crate::Walker::tag
    pub tag: u64,
    /// The walker's globally unique id.
    pub walker: u64,
    /// Steps taken when the walk ended.
    pub steps: u32,
}

impl Wire for FinishedWalk {
    fn wire_size(&self) -> usize {
        self.tag.wire_size() + self.walker.wire_size() + self.steps.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.tag.encode(out)?;
        self.walker.encode(out)?;
        self.steps.encode(out)
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(FinishedWalk {
            tag: u64::decode(input)?,
            walker: u64::decode(input)?,
            steps: u32::decode(input)?,
        })
    }
}

/// What a span event marks in a traced request's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEventKind {
    /// The node instantiated `walkers` walkers of the request.
    Admit {
        /// Number of start vertices this node owned.
        walkers: u64,
    },
    /// The node advanced `hops` of the request's walkers one superstep.
    Superstep {
        /// Active walkers of the request on this node this superstep.
        hops: u64,
    },
    /// The node's exchange volume for a superstep the request was part
    /// of. Node-level, not per-request: walkers from concurrent requests
    /// share each exchange, so the bytes are attributed to every traced
    /// request active in that superstep.
    Exchange {
        /// Remote bytes this node sent in the superstep's exchanges.
        bytes: u64,
    },
    /// The request's walkers were force-terminated on this node
    /// (deadline kill).
    Kill,
    /// `walkers` walkers of the request finished on this node.
    Complete {
        /// Walkers that terminated this superstep.
        walkers: u64,
    },
}

impl SpanEventKind {
    /// Stable name used in JSONL and Chrome trace-event exports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanEventKind::Admit { .. } => "admit",
            SpanEventKind::Superstep { .. } => "superstep",
            SpanEventKind::Exchange { .. } => "exchange",
            SpanEventKind::Kill => "kill",
            SpanEventKind::Complete { .. } => "complete",
        }
    }

    /// The kind's payload value (`walkers`, `hops`, or `bytes`; 0 for
    /// `Kill`), for flat export schemas.
    pub fn value(&self) -> u64 {
        match *self {
            SpanEventKind::Admit { walkers } => walkers,
            SpanEventKind::Superstep { hops } => hops,
            SpanEventKind::Exchange { bytes } => bytes,
            SpanEventKind::Kill => 0,
            SpanEventKind::Complete { walkers } => walkers,
        }
    }
}

impl Wire for SpanEventKind {
    fn wire_size(&self) -> usize {
        match self {
            SpanEventKind::Kill => 1,
            _ => 1 + 8,
        }
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match *self {
            SpanEventKind::Admit { walkers } => {
                out.push(0);
                walkers.encode(out)
            }
            SpanEventKind::Superstep { hops } => {
                out.push(1);
                hops.encode(out)
            }
            SpanEventKind::Exchange { bytes } => {
                out.push(2);
                bytes.encode(out)
            }
            SpanEventKind::Kill => {
                out.push(3);
                Ok(())
            }
            SpanEventKind::Complete { walkers } => {
                out.push(4);
                walkers.encode(out)
            }
        }
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        let tag = u8::decode(input)?;
        Ok(match tag {
            0 => SpanEventKind::Admit {
                walkers: u64::decode(input)?,
            },
            1 => SpanEventKind::Superstep {
                hops: u64::decode(input)?,
            },
            2 => SpanEventKind::Exchange {
                bytes: u64::decode(input)?,
            },
            3 => SpanEventKind::Kill,
            4 => SpanEventKind::Complete {
                walkers: u64::decode(input)?,
            },
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unknown span event kind tag {other}"),
                ))
            }
        })
    }
}

/// One event in a traced request's distributed timeline, recorded
/// node-side at superstep boundaries and gathered to the leader in the
/// next [`ServeDelta`].
///
/// The trace id is the request tag ([`Walker::tag`]), which already rides
/// the walker wire format through exchanges — tracing adds no bytes to
/// the per-walker hot path, only to the once-per-superstep delta.
///
/// [`Walker::tag`]: crate::Walker::tag
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace id: the tag of the request this event belongs to.
    pub trace: u64,
    /// Rank that recorded the event.
    pub node: u32,
    /// Superstep at which the event happened.
    pub superstep: u64,
    /// Microseconds since this rank's service started. Ranks' clocks are
    /// not synchronized; cross-rank skew is bounded by service startup
    /// skew and is fine for timeline visualization.
    pub ts_us: u64,
    /// Event duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// What happened.
    pub kind: SpanEventKind,
}

impl Wire for SpanEvent {
    fn wire_size(&self) -> usize {
        self.trace.wire_size()
            + self.node.wire_size()
            + self.superstep.wire_size()
            + self.ts_us.wire_size()
            + self.dur_us.wire_size()
            + self.kind.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.trace.encode(out)?;
        self.node.encode(out)?;
        self.superstep.encode(out)?;
        self.ts_us.encode(out)?;
        self.dur_us.encode(out)?;
        self.kind.encode(out)
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(SpanEvent {
            trace: u64::decode(input)?,
            node: u32::decode(input)?,
            superstep: u64::decode(input)?,
            ts_us: u64::decode(input)?,
            dur_us: u64::decode(input)?,
            kind: SpanEventKind::decode(input)?,
        })
    }
}

knightking_net::metric_set! {
    /// One node's per-superstep gauge/counter sample, shipped in every
    /// [`ServeDelta`] so the leader always has a live, cluster-wide view.
    ///
    /// All fields except `active` are **cumulative** since the node started
    /// (Prometheus-counter style): the leader keeps only the latest sample
    /// per node and sums across nodes, so a lost superstep never loses
    /// counts. A field reaches the service's stats through its exported
    /// name: the serve tier copies every metric here into the one it
    /// declares under the same name.
    #[derive(Copy)]
    pub struct LiveSample {
        /// Active walker slots on this node right now.
        gauge sum active => "kk_active_walkers",
        /// Total walker steps taken.
        counter sum steps => "kk_walker_steps_total",
        /// Total rejection-sampling trials.
        counter sum trials => "kk_sampler_trials_total",
        /// Total remote exchange bytes sent.
        counter sum exchange_bytes => "kk_exchange_bytes_total",
        /// Total sampler versions rebuilt or patched for graph updates.
        counter sum sampler_rebuilds => "kk_sampler_rebuilds_total",
        /// Total sampler maintenance cost in entry-edits (degree per rebuild,
        /// edges touched per radix point-patch).
        counter sum sampler_rebuild_cost => "kk_sampler_rebuild_cost_total",
    }
    also {
        /// Cumulative nanoseconds per engine phase (the `knightking-obs`
        /// phase taxonomy, index order). The slot count is part of the
        /// wire format, so all ranks of a cluster must run the same build.
        pub phase_ns: [u64; N_PHASES],
    }
}

/// One node's per-superstep report to the leader: everything that
/// happened since the previous report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeDelta {
    /// Path fragments recorded since the last superstep (includes the
    /// step-0 entries of freshly admitted walkers).
    pub paths: Vec<PathEntry>,
    /// Walkers that terminated since the last superstep.
    pub finished: Vec<FinishedWalk>,
    /// The smallest graph epoch any of this node's live walkers has
    /// pinned; `u64::MAX` when the node has no walkers. The leader folds
    /// the cluster-wide minimum into [`Directives::retire`] so nodes can
    /// drop row and sampler versions no walker can read anymore.
    pub min_pinned: u64,
    /// Span events recorded for traced requests since the last superstep
    /// (empty when nothing is traced).
    pub spans: Vec<SpanEvent>,
    /// This node's live metrics sample.
    pub live: LiveSample,
}

impl Default for ServeDelta {
    fn default() -> Self {
        ServeDelta {
            paths: Vec::new(),
            finished: Vec::new(),
            min_pinned: u64::MAX,
            spans: Vec::new(),
            live: LiveSample::default(),
        }
    }
}

impl Wire for ServeDelta {
    fn wire_size(&self) -> usize {
        self.paths.wire_size()
            + self.finished.wire_size()
            + self.min_pinned.wire_size()
            + self.spans.wire_size()
            + self.live.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.paths.encode(out)?;
        self.finished.encode(out)?;
        self.min_pinned.encode(out)?;
        self.spans.encode(out)?;
        self.live.encode(out)
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(ServeDelta {
            paths: Vec::decode(input)?,
            finished: Vec::decode(input)?,
            min_pinned: u64::decode(input)?,
            spans: Vec::decode(input)?,
            live: LiveSample::decode(input)?,
        })
    }
}

/// One request's walkers, to be instantiated at the next superstep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmitRequest {
    /// Request tag stamped on every admitted walker (must be nonzero and
    /// unique among in-flight requests; 0 is reserved for batch walkers).
    pub tag: u64,
    /// Global id of the request's first walker; walker `i` of the request
    /// gets id `base_id + i`. The driver keeps bases disjoint so path
    /// fragments route unambiguously.
    pub base_id: u64,
    /// Per-request seed: walker `i` draws from the stream `(seed, i)`,
    /// exactly as a batch run with this seed would.
    pub seed: u64,
    /// Start vertices; walker `i` starts at `starts[i]`. Must be within
    /// graph bounds (validate before admitting).
    pub starts: Vec<VertexId>,
    /// Whether this request is traced: every node records span events
    /// for the request's tag until the leader ends the trace
    /// ([`Directives::end_traces`]). Tracing never touches walker RNG
    /// state, so traced and untraced runs are byte-identical.
    pub trace: bool,
}

impl Wire for AdmitRequest {
    fn wire_size(&self) -> usize {
        self.tag.wire_size()
            + self.base_id.wire_size()
            + self.seed.wire_size()
            + self.starts.wire_size()
            + self.trace.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.tag.encode(out)?;
        self.base_id.encode(out)?;
        self.seed.encode(out)?;
        self.starts.encode(out)?;
        self.trace.encode(out)
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(AdmitRequest {
            tag: u64::decode(input)?,
            base_id: u64::decode(input)?,
            seed: u64::decode(input)?,
            starts: Vec::decode(input)?,
            trace: bool::decode(input)?,
        })
    }
}

/// A graph update batch stamped with the epoch it produces, broadcast to
/// every node so all ranks apply it in lockstep at the same superstep
/// boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochUpdate {
    /// The epoch the graph advances to when this batch applies (strictly
    /// greater than the previous epoch; the leader assigns it).
    pub epoch: u64,
    /// The edge mutations.
    pub batch: UpdateBatch,
}

impl Wire for EpochUpdate {
    fn wire_size(&self) -> usize {
        self.epoch.wire_size() + self.batch.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.epoch.encode(out)?;
        self.batch.encode(out)
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(EpochUpdate {
            epoch: u64::decode(input)?,
            batch: UpdateBatch::decode(input)?,
        })
    }
}

/// The leader's verdict for one superstep boundary, broadcast to every
/// node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Directives {
    /// Requests to admit this superstep.
    pub admit: Vec<AdmitRequest>,
    /// Request tags whose walkers must be force-terminated (deadline
    /// expiry). Their remaining path fragments are dropped.
    pub kill: Vec<u64>,
    /// Ask the loop to exit. Draining, not dropping: the loop keeps
    /// iterating until every in-flight walker has finished, then exits.
    pub shutdown: bool,
    /// A graph update to apply at this boundary, *before* this
    /// superstep's admissions — admitted walkers pin the post-update
    /// epoch. Requires the service to be running over a `DynGraph`.
    pub update: Option<EpochUpdate>,
    /// Retirement watermark: when nonzero, nodes drop graph row versions
    /// and sampler overrides superseded at or before this epoch. The
    /// leader derives it from the cluster-wide minimum pinned epoch
    /// ([`ServeDelta::min_pinned`]); 0 means "retire nothing".
    pub retire: u64,
    /// Trace ids whose requests have completed (or been killed): nodes
    /// stop recording spans for these tags. Without this, a node's traced
    /// set would grow for the life of the service.
    pub end_traces: Vec<u64>,
}

impl Wire for Directives {
    fn wire_size(&self) -> usize {
        self.admit.wire_size()
            + self.kill.wire_size()
            + self.shutdown.wire_size()
            + self.update.wire_size()
            + self.retire.wire_size()
            + self.end_traces.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.admit.encode(out)?;
        self.kill.encode(out)?;
        self.shutdown.encode(out)?;
        self.update.encode(out)?;
        self.retire.encode(out)?;
        self.end_traces.encode(out)
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        Ok(Directives {
            admit: Vec::decode(input)?,
            kill: Vec::decode(input)?,
            shutdown: bool::decode(input)?,
            update: Option::decode(input)?,
            retire: u64::decode(input)?,
            end_traces: Vec::decode(input)?,
        })
    }
}

/// The leader-side brain of a walk service.
///
/// [`RandomWalkEngine::run_service`] calls `absorb` once per node per
/// superstep with that node's delta, then `poll` once to learn what to
/// do next. Both run on the leader only; non-leader nodes receive the
/// poll result via broadcast.
pub trait ServeDriver {
    /// Absorbs one node's superstep delta (path fragments + completions).
    fn absorb(&mut self, node: usize, delta: ServeDelta);
    /// Decides admissions, kills, and shutdown for the next superstep.
    fn poll(&mut self, superstep: u64) -> Directives;
    /// Blocks the leader while the service is idle: called after a
    /// boundary that left no walker anywhere and directed no shutdown,
    /// and must return once `poll` would have something to do (a queued
    /// request or update, a shutdown). Returning early only costs an
    /// empty boundary; returning late, or never, stalls the service —
    /// the other ranks are blocked in their transport's next receive
    /// until the leader comes back.
    fn wait_for_work(&mut self);
}

/// A driver that never admits anything and immediately asks to shut
/// down. Useful as the `D` type parameter on non-leader nodes (which
/// pass `None`) and in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopDriver;

impl ServeDriver for NoopDriver {
    fn absorb(&mut self, _node: usize, _delta: ServeDelta) {}
    fn poll(&mut self, _superstep: u64) -> Directives {
        Directives {
            shutdown: true,
            ..Directives::default()
        }
    }
    fn wait_for_work(&mut self) {}
}

impl<'g, P: WalkerProgram> RandomWalkEngine<'g, P> {
    /// Runs the engine as a **resident walk service**: the BSP loop stays
    /// up, admitting tagged walkers whenever the leader's `driver` says
    /// so and reporting completions back to it, until the driver directs
    /// a shutdown *and* every in-flight walker has drained.
    ///
    /// Call once per node of the cluster — in-process (`NodeCtx`) or
    /// multi-process (`TcpTransport`), exactly like
    /// [`run_distributed`](RandomWalkEngine::run_distributed). The leader
    /// (rank 0) must pass `Some(driver)`; every other rank passes `None`
    /// and is steered entirely by broadcast directives, so only the
    /// leader needs a request queue.
    ///
    /// Returns this node's accumulated [`WalkMetrics`] over the service's
    /// lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `transport.n_nodes() != config.n_nodes`, if
    /// `config.record_paths` is off (a service that records no paths can
    /// answer no queries), or if the leader passes no driver.
    pub fn run_service<T: Transport<Msg<P>>, D: ServeDriver>(
        &self,
        transport: &mut T,
        mut driver: Option<&mut D>,
    ) -> WalkMetrics {
        let cfg = &self.config;
        assert_eq!(
            transport.n_nodes(),
            cfg.n_nodes,
            "transport has {} nodes but config.n_nodes is {}",
            transport.n_nodes(),
            cfg.n_nodes
        );
        assert!(
            cfg.record_paths,
            "serve mode requires record_paths: responses are the paths"
        );
        let me = transport.node();
        assert!(
            !transport.is_leader() || driver.is_some(),
            "the leader node must supply a ServeDriver"
        );

        let partition = Partition::balanced(self.graph.base_csr(), cfg.n_nodes, 1.0);
        let local_owned;
        let local: GraphRef<'_> = match self.graph {
            GraphRef::Csr(g) if cfg.n_nodes > 1 => {
                local_owned = partition.extract_local(g, me);
                GraphRef::Csr(&local_owned)
            }
            // Dynamic graphs are shared whole (see `run_with_observer`);
            // the partition-ownership discipline separates the ranks.
            other => other,
        };
        let scheduler = Scheduler {
            threads: cfg.resolved_threads(),
            chunk_size: cfg.chunk_size,
            light_threshold: cfg.light_threshold,
        };
        let observer = NoopObserver;
        // Live-mode profile: phase times fold into bounded run totals
        // (no per-iteration rows), so a resident loop can keep it on and
        // ship cumulative counters in every delta.
        let mut prof = NodeObs::new_live(cfg.profile, me);
        // `mut`: superstep boundaries rebuild sampler structures for
        // update-touched vertices; iterations only ever borrow `&rt`.
        let mut rt = NodeRt::build(
            local,
            &self.program,
            &observer,
            &partition,
            cfg,
            me,
            &scheduler,
            self.lookahead,
        );

        let mut slots: Vec<Slot<P>> = Vec::new();
        let mut paths: Vec<PathEntry> = Vec::new();
        let mut finished: Vec<FinishedWalk> = Vec::new();
        let mut metrics = WalkMetrics::default();
        #[allow(clippy::let_unit_value)] // NoopObserver's Acc happens to be ()
        let mut obs_acc = <NoopObserver as WalkObserver<P::Data>>::make_acc(&observer);
        // The epoch newly admitted walkers pin: advances when an update
        // directive applies. Always 0 on static graphs.
        let mut live_epoch: u64 = local.epoch();
        let mut superstep: u64 = 0;
        // Tracing state: tags of requests currently traced on this node
        // (bounded by the leader's sampling), and the span events recorded
        // since the last delta. Timestamps are relative to this rank's
        // service start.
        let service_start = std::time::Instant::now();
        let mut traced: Vec<u64> = Vec::new();
        let mut spans: Vec<SpanEvent> = Vec::new();
        loop {
            // (1) Ship this node's delta to the leader.
            let delta = ServeDelta {
                min_pinned: slots
                    .iter()
                    .map(|s| s.walker.epoch)
                    .min()
                    .unwrap_or(u64::MAX),
                paths: mem::take(&mut paths),
                finished: mem::take(&mut finished),
                spans: mem::take(&mut spans),
                live: LiveSample {
                    active: slots.len() as u64,
                    steps: metrics.steps,
                    trials: metrics.trials,
                    exchange_bytes: prof.exchange_bytes_total(),
                    sampler_rebuilds: metrics.sampler_rebuilds,
                    sampler_rebuild_cost: metrics.sampler_rebuild_cost,
                    phase_ns: prof.phase_ns_totals(),
                },
            };
            let delta_bytes = to_bytes(&delta).expect("serve delta exceeds wire limits");
            let gathered = transport.gather_bytes(delta_bytes);

            // (2) Leader: drive; everyone: learn the directives.
            let dir_bytes = match gathered {
                Some(parts) => {
                    let d = driver.as_mut().expect("leader has a driver (asserted)");
                    for (node, part) in parts.into_iter().enumerate() {
                        let delta: ServeDelta = from_bytes(&part).unwrap_or_else(|e| {
                            panic!("corrupt serve delta from rank {node}: {e}")
                        });
                        d.absorb(node, delta);
                    }
                    to_bytes(&d.poll(superstep)).expect("serve directives exceed wire limits")
                }
                None => Vec::new(),
            };
            let dir_bytes = transport.broadcast_bytes(dir_bytes);
            let directives: Directives =
                from_bytes(&dir_bytes).unwrap_or_else(|e| panic!("corrupt serve directives: {e}"));

            // (3) Kills: drop every walker of an expired request. Path
            // fragments already shipped are discarded leader-side.
            if !directives.kill.is_empty() {
                slots.retain(|s| !directives.kill.contains(&s.walker.tag));
                for &tag in &directives.kill {
                    if let Some(i) = traced.iter().position(|&t| t == tag) {
                        traced.swap_remove(i);
                        spans.push(SpanEvent {
                            trace: tag,
                            node: me as u32,
                            superstep,
                            ts_us: service_start.elapsed().as_micros() as u64,
                            dur_us: 0,
                            kind: SpanEventKind::Kill,
                        });
                    }
                }
            }
            if !directives.end_traces.is_empty() {
                traced.retain(|t| !directives.end_traces.contains(t));
            }

            // (4) Graph update: applied on all ranks in lockstep at this
            // boundary, each rank rebuilding only its owned rows and
            // sampler structures. In-flight walkers keep their pinned
            // epochs; everything admitted below pins the new one.
            if let Some(up) = &directives.update {
                let dyn_graph = local.dyn_graph().expect(
                    "update directive received while serving a static CSR graph — \
                     serve a DynGraph to accept live updates",
                );
                let applied = dyn_graph
                    .apply_at(up.epoch, &up.batch, &|v| partition.owner(v) == me)
                    .unwrap_or_else(|e| panic!("invalid update batch at epoch {}: {e}", up.epoch));
                let (rebuilt, cost) = rt.apply_update(up.epoch, &up.batch, &applied.touched);
                metrics.sampler_rebuilds += rebuilt;
                metrics.sampler_rebuild_cost += cost;
                live_epoch = up.epoch;
            }

            // (5) Retirement: drop row and sampler versions no walker can
            // pin anymore (the leader's watermark is the cluster-wide
            // minimum pinned epoch).
            if directives.retire > 0 {
                if let Some(dyn_graph) = local.dyn_graph() {
                    dyn_graph.retire(directives.retire);
                }
                rt.retire_samplers(directives.retire);
            }

            // (6) Admissions: instantiate owned walkers. The *request-local*
            // index seeds the RNG stream and `init_data` — the same values a
            // batch run of this request would use — while the global id
            // (`base_id + i`) labels the path fragments.
            for req in &directives.admit {
                let mut owned = 0u64;
                for (i, &start) in req.starts.iter().enumerate() {
                    if partition.owner(start) != me {
                        continue;
                    }
                    owned += 1;
                    let data = self.program.init_data(i as u64, start);
                    let mut walker = Walker::new(i as u64, start, req.seed, data);
                    walker.id = req.base_id + i as u64;
                    walker.tag = req.tag;
                    walker.epoch = live_epoch;
                    paths.push(PathEntry {
                        walker: walker.id,
                        step: 0,
                        vertex: start,
                    });
                    slots.push(Slot {
                        walker,
                        state: SlotState::fresh(),
                    });
                }
                if req.trace {
                    traced.push(req.tag);
                    spans.push(SpanEvent {
                        trace: req.tag,
                        node: me as u32,
                        superstep,
                        ts_us: service_start.elapsed().as_micros() as u64,
                        dur_us: 0,
                        kind: SpanEventKind::Admit { walkers: owned },
                    });
                }
            }

            // (7) Collective census: exit only when a shutdown has been
            // directed and the last walker has drained.
            let active = transport.allreduce_sum(slots.len() as u64);
            if active == 0 {
                if directives.shutdown {
                    break;
                }
                // Idle service: the leader parks in its driver until
                // work arrives. The other ranks ship their next delta
                // and block where their transport blocks — a socket
                // read, or the in-process barrier's park — so an idle
                // cluster exchanges nothing until the leader returns.
                if let Some(d) = driver.as_mut() {
                    d.wait_for_work();
                }
                superstep += 1;
                continue;
            }

            // (8) One ordinary BSP iteration. For traced requests, count
            // their active walkers before the step and their completions
            // after — all outside the per-walker hot path.
            let pre_hops: Vec<(u64, u64)> = traced
                .iter()
                .map(|&t| (t, slots.iter().filter(|s| s.walker.tag == t).count() as u64))
                .collect();
            let xbytes_before = prof.exchange_bytes_total();
            let finished_before = finished.len();
            let iter_start_us = service_start.elapsed().as_micros() as u64;
            metrics.iterations += 1;
            if P::SECOND_ORDER {
                second_order::iteration(
                    &rt,
                    transport,
                    &scheduler,
                    &mut slots,
                    &mut paths,
                    &mut finished,
                    &mut metrics,
                    &mut obs_acc,
                    &mut prof,
                );
            } else {
                first_order::iteration(
                    &rt,
                    transport,
                    &scheduler,
                    &mut slots,
                    &mut paths,
                    &mut finished,
                    &mut metrics,
                    &mut obs_acc,
                    &mut prof,
                );
            }
            prof.end_iteration();
            if !traced.is_empty() {
                let now_us = service_start.elapsed().as_micros() as u64;
                let dur_us = now_us.saturating_sub(iter_start_us);
                let xbytes = prof.exchange_bytes_total() - xbytes_before;
                for &(tag, hops) in &pre_hops {
                    if hops == 0 {
                        continue;
                    }
                    spans.push(SpanEvent {
                        trace: tag,
                        node: me as u32,
                        superstep,
                        ts_us: iter_start_us,
                        dur_us,
                        kind: SpanEventKind::Superstep { hops },
                    });
                    if xbytes > 0 {
                        spans.push(SpanEvent {
                            trace: tag,
                            node: me as u32,
                            superstep,
                            ts_us: iter_start_us,
                            dur_us,
                            kind: SpanEventKind::Exchange { bytes: xbytes },
                        });
                    }
                }
                for &tag in &traced {
                    let done = finished[finished_before..]
                        .iter()
                        .filter(|f| f.tag == tag)
                        .count() as u64;
                    if done > 0 {
                        spans.push(SpanEvent {
                            trace: tag,
                            node: me as u32,
                            superstep,
                            ts_us: now_us,
                            dur_us: 0,
                            kind: SpanEventKind::Complete { walkers: done },
                        });
                    }
                }
            }
            superstep += 1;
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{config::WalkConfig, config::WalkerStarts, result::WalkResult};
    use knightking_cluster::comm::run_cluster_with_metrics;
    use knightking_graph::gen;

    #[test]
    fn wire_round_trips() {
        let dir = Directives {
            admit: vec![AdmitRequest {
                tag: 3,
                base_id: 1000,
                seed: 42,
                starts: vec![0, 5, 9],
                trace: true,
            }],
            kill: vec![7, 8],
            shutdown: true,
            update: Some(EpochUpdate {
                epoch: 4,
                batch: UpdateBatch {
                    adds: vec![knightking_dyn::EdgeAdd {
                        src: 1,
                        dst: 2,
                        weight: 1.5,
                        edge_type: 0,
                    }],
                    dels: vec![knightking_dyn::EdgeRef { src: 0, dst: 5 }],
                    reweights: vec![],
                },
            }),
            retire: 2,
            end_traces: vec![11, 12],
        };
        let bytes = to_bytes(&dir).unwrap();
        assert_eq!(bytes.len(), dir.wire_size());
        let back: Directives = from_bytes(&bytes).unwrap();
        assert_eq!(back, dir);

        let delta = ServeDelta {
            paths: vec![PathEntry {
                walker: 1,
                step: 2,
                vertex: 3,
            }],
            finished: vec![FinishedWalk {
                tag: 3,
                walker: 1,
                steps: 2,
            }],
            min_pinned: 4,
            spans: vec![
                SpanEvent {
                    trace: 3,
                    node: 1,
                    superstep: 9,
                    ts_us: 1000,
                    dur_us: 50,
                    kind: SpanEventKind::Superstep { hops: 5 },
                },
                SpanEvent {
                    trace: 3,
                    node: 1,
                    superstep: 9,
                    ts_us: 1050,
                    dur_us: 0,
                    kind: SpanEventKind::Kill,
                },
            ],
            live: LiveSample {
                active: 7,
                steps: 120,
                trials: 300,
                exchange_bytes: 4096,
                sampler_rebuilds: 11,
                sampler_rebuild_cost: 57,
                phase_ns: [1, 2, 3, 4, 5, 6, 7, 8, 9],
            },
        };
        let bytes = to_bytes(&delta).unwrap();
        assert_eq!(bytes.len(), delta.wire_size());
        let back: ServeDelta = from_bytes(&bytes).unwrap();
        assert_eq!(back, delta);
    }

    #[test]
    fn span_event_kinds_round_trip() {
        let kinds = [
            SpanEventKind::Admit { walkers: 3 },
            SpanEventKind::Superstep { hops: 17 },
            SpanEventKind::Exchange { bytes: u64::MAX },
            SpanEventKind::Kill,
            SpanEventKind::Complete { walkers: 0 },
        ];
        for kind in kinds {
            let ev = SpanEvent {
                trace: 42,
                node: 2,
                superstep: 1,
                ts_us: 123,
                dur_us: 456,
                kind,
            };
            let bytes = to_bytes(&ev).unwrap();
            assert_eq!(bytes.len(), ev.wire_size(), "{kind:?}");
            let back: SpanEvent = from_bytes(&bytes).unwrap();
            assert_eq!(back, ev);
        }
    }

    struct FixedLen(u32);
    impl WalkerProgram for FixedLen {
        type Data = ();
        type Query = ();
        type Answer = ();
        const DYNAMIC: bool = false;
        fn init_data(&self, _id: u64, _start: VertexId) {}
        fn should_terminate(&self, w: &mut Walker<()>) -> bool {
            w.step >= self.0
        }
    }

    /// Admits one request at superstep 0, collects its fragments, and
    /// shuts down once all its walkers have finished.
    struct OneShotDriver {
        request: AdmitRequest,
        admitted: bool,
        paths: Vec<PathEntry>,
        done: u64,
    }

    impl ServeDriver for OneShotDriver {
        fn absorb(&mut self, _node: usize, delta: ServeDelta) {
            self.paths.extend(delta.paths);
            self.done += delta.finished.len() as u64;
        }
        fn poll(&mut self, _superstep: u64) -> Directives {
            let mut dir = Directives::default();
            if !self.admitted {
                self.admitted = true;
                dir.admit.push(self.request.clone());
            }
            dir.shutdown = self.done >= self.request.starts.len() as u64;
            dir
        }
        fn wait_for_work(&mut self) {}
    }

    /// A served request's paths are byte-identical to a batch run with
    /// the request's seed — even though the service itself was built with
    /// a different seed, proving trajectories bind to the request.
    #[test]
    fn served_request_matches_batch_run() {
        let g = gen::uniform_degree(60, 5, gen::GenOptions::seeded(3));
        let starts: Vec<VertexId> = vec![0, 7, 14, 21, 59];

        let batch = RandomWalkEngine::new(&g, FixedLen(12), WalkConfig::single_node(7))
            .run(WalkerStarts::Explicit(starts.clone()));

        let mut serve_cfg = WalkConfig::single_node(999);
        serve_cfg.threads_per_node = 2;
        let engine = RandomWalkEngine::new(&g, FixedLen(12), serve_cfg);
        let request = AdmitRequest {
            tag: 1,
            base_id: 0,
            seed: 7,
            starts: starts.clone(),
            trace: false,
        };
        let n = starts.len() as u64;
        let (outs, _comm) = run_cluster_with_metrics::<Msg<FixedLen>, _, _>(1, |ctx| {
            let mut ctx = ctx;
            let mut driver = OneShotDriver {
                request: request.clone(),
                admitted: false,
                paths: Vec::new(),
                done: 0,
            };
            engine.run_service(&mut ctx, Some(&mut driver));
            driver.paths
        });
        let fragments = outs.into_iter().next().unwrap();
        let served = WalkResult::assemble_paths(n, fragments);
        assert_eq!(served, batch.paths);
    }

    /// Two nodes, driver on the leader only; non-leader is steered by
    /// broadcasts alone.
    #[test]
    fn two_node_service_matches_batch_run() {
        let g = gen::uniform_degree(80, 4, gen::GenOptions::seeded(5));
        let starts: Vec<VertexId> = (0..10).map(|i| i * 7).collect();

        let batch = RandomWalkEngine::new(&g, FixedLen(9), WalkConfig::with_nodes(2, 11))
            .run(WalkerStarts::Explicit(starts.clone()));

        let mut serve_cfg = WalkConfig::with_nodes(2, 1234);
        serve_cfg.threads_per_node = 1;
        let engine = RandomWalkEngine::new(&g, FixedLen(9), serve_cfg);
        let request = AdmitRequest {
            tag: 9,
            base_id: 0,
            seed: 11,
            starts: starts.clone(),
            trace: false,
        };
        let n = starts.len() as u64;
        let (outs, _comm) = run_cluster_with_metrics::<Msg<FixedLen>, _, _>(2, |ctx| {
            let mut ctx = ctx;
            if ctx.node == 0 {
                let mut driver = OneShotDriver {
                    request: request.clone(),
                    admitted: false,
                    paths: Vec::new(),
                    done: 0,
                };
                engine.run_service(&mut ctx, Some(&mut driver));
                Some(driver.paths)
            } else {
                engine.run_service(&mut ctx, None::<&mut OneShotDriver>);
                None
            }
        });
        let fragments = outs.into_iter().flatten().next().unwrap();
        let served = WalkResult::assemble_paths(n, fragments);
        assert_eq!(served, batch.paths);
    }

    /// Killed requests disappear: their walkers stop producing fragments
    /// and the service still drains to a clean exit.
    #[test]
    fn kill_terminates_request_walkers() {
        let g = gen::uniform_degree(40, 4, gen::GenOptions::seeded(2));

        struct KillDriver {
            admitted: bool,
            killed: bool,
            finished: Vec<FinishedWalk>,
        }
        impl ServeDriver for KillDriver {
            fn absorb(&mut self, _node: usize, delta: ServeDelta) {
                self.finished.extend(delta.finished);
            }
            fn poll(&mut self, superstep: u64) -> Directives {
                let mut dir = Directives::default();
                if !self.admitted {
                    self.admitted = true;
                    dir.admit.push(AdmitRequest {
                        tag: 5,
                        base_id: 0,
                        seed: 1,
                        starts: vec![0, 1, 2],
                        trace: false,
                    });
                }
                if superstep >= 3 && !self.killed {
                    self.killed = true;
                    dir.kill.push(5);
                }
                dir.shutdown = self.killed;
                dir
            }
            fn wait_for_work(&mut self) {}
        }

        // Walk length far beyond the kill point: only the kill can end it.
        let engine = RandomWalkEngine::new(&g, FixedLen(1_000_000), WalkConfig::single_node(1));
        let (outs, _comm) = run_cluster_with_metrics::<Msg<FixedLen>, _, _>(1, |ctx| {
            let mut ctx = ctx;
            let mut driver = KillDriver {
                admitted: false,
                killed: false,
                finished: Vec::new(),
            };
            engine.run_service(&mut ctx, Some(&mut driver));
            driver.finished.len()
        });
        // The service exited (we got here) and no walker finished
        // normally — the kill took them all out.
        assert_eq!(outs[0], 0);
    }

    /// Issues one update at superstep 0 alongside an admission, then
    /// shuts down once the walkers drain.
    struct UpdateDriver {
        batch: UpdateBatch,
        issued: bool,
        done: u64,
        want: u64,
    }

    impl ServeDriver for UpdateDriver {
        fn absorb(&mut self, _node: usize, delta: ServeDelta) {
            self.done += delta.finished.len() as u64;
        }
        fn poll(&mut self, _superstep: u64) -> Directives {
            let mut dir = Directives::default();
            if !self.issued {
                self.issued = true;
                dir.admit.push(AdmitRequest {
                    tag: 1,
                    base_id: 0,
                    seed: 3,
                    starts: vec![0, 25],
                    trace: false,
                });
                dir.update = Some(EpochUpdate {
                    epoch: 1,
                    batch: self.batch.clone(),
                });
            }
            dir.shutdown = self.done >= self.want;
            dir
        }
        fn wait_for_work(&mut self) {}
    }

    /// Incremental sampler maintenance: a batch touching k vertices
    /// rebuilds exactly k alias tables across the cluster, not O(V).
    /// Both ranks share one DynGraph instance (idempotent partitioned
    /// apply), each rebuilding only its owned slice of the touched set.
    #[test]
    fn update_rebuilds_exactly_touched_samplers() {
        use knightking_dyn::{DynConfig, DynGraph, EdgeAdd, EdgeRef, EdgeReweight};

        let g = gen::uniform_degree(50, 4, gen::GenOptions::paper_weighted(9));
        let dyn_graph = DynGraph::new(g, DynConfig::default());
        // Touched sources: {1, 7, 40} — the reweight of 1 folds into the
        // same touch as its add.
        let batch = UpdateBatch {
            adds: vec![
                EdgeAdd {
                    src: 1,
                    dst: 2,
                    weight: 3.0,
                    edge_type: 0,
                },
                EdgeAdd {
                    src: 40,
                    dst: 3,
                    weight: 2.0,
                    edge_type: 0,
                },
            ],
            dels: vec![EdgeRef { src: 7, dst: 0 }],
            reweights: vec![EdgeReweight {
                src: 1,
                dst: 2,
                weight: 5.0,
            }],
        };

        let mut cfg = WalkConfig::with_nodes(2, 5);
        cfg.threads_per_node = 1;
        let engine = RandomWalkEngine::new(&dyn_graph, FixedLen(8), cfg);
        let (outs, _comm) = run_cluster_with_metrics::<Msg<FixedLen>, _, _>(2, |ctx| {
            let mut ctx = ctx;
            if ctx.node == 0 {
                let mut driver = UpdateDriver {
                    batch: batch.clone(),
                    issued: false,
                    done: 0,
                    want: 2,
                };
                engine
                    .run_service(&mut ctx, Some(&mut driver))
                    .sampler_rebuilds
            } else {
                engine
                    .run_service(&mut ctx, None::<&mut UpdateDriver>)
                    .sampler_rebuilds
            }
        });
        assert_eq!(outs.iter().sum::<u64>(), 3, "per-rank rebuilds: {outs:?}");
        assert_eq!(dyn_graph.epoch(), 1);
        assert_eq!(dyn_graph.stats().rows_rebuilt, 3);
    }

    /// The O(k)-maintenance claim, counter-verified: a reweight-only
    /// batch touching k edges costs the radix backend exactly k bucket
    /// edits, while the alias backend pays Σ degree of the touched
    /// vertices. Structural edits cost degree on both.
    #[test]
    fn radix_patch_cost_counts_touched_edges_not_degree() {
        use knightking_dyn::{DynConfig, DynGraph, EdgeReweight};

        let g = gen::uniform_degree(50, 4, gen::GenOptions::paper_weighted(9));
        // Reweight one existing edge at each of two vertices: k = 2.
        let batch = UpdateBatch {
            reweights: vec![
                EdgeReweight {
                    src: 1,
                    dst: g.edge(1, 0).dst,
                    weight: 5.0,
                },
                EdgeReweight {
                    src: 40,
                    dst: g.edge(40, 2).dst,
                    weight: 0.25,
                },
            ],
            ..UpdateBatch::default()
        };

        let run = |sampler: crate::SamplerBackend| {
            let dyn_graph = DynGraph::new(g.clone(), DynConfig::default());
            let mut cfg = WalkConfig::single_node(5);
            cfg.threads_per_node = 1;
            cfg.sampler = sampler;
            let engine = RandomWalkEngine::new(&dyn_graph, FixedLen(8), cfg);
            let (outs, _comm) = run_cluster_with_metrics::<Msg<FixedLen>, _, _>(1, |ctx| {
                let mut ctx = ctx;
                let mut driver = UpdateDriver {
                    batch: batch.clone(),
                    issued: false,
                    done: 0,
                    want: 2,
                };
                let m = engine.run_service(&mut ctx, Some(&mut driver));
                (m.sampler_rebuilds, m.sampler_rebuild_cost)
            });
            outs[0]
        };

        let (alias_rebuilds, alias_cost) = run(crate::SamplerBackend::Alias);
        let (radix_rebuilds, radix_cost) = run(crate::SamplerBackend::Radix);
        assert_eq!(alias_rebuilds, 2);
        assert_eq!(radix_rebuilds, 2);
        // Alias: full rebuild of both degree-4 vertices.
        assert_eq!(alias_cost, 8);
        // Radix: one point edit per reweighted live edge instance.
        assert_eq!(radix_cost, 2);
    }
}
