//! The KnightKing execution engine.
//!
//! One [`RandomWalkEngine`] run executes a [`WalkerProgram`] over a graph
//! on a simulated cluster (§5.1, §6):
//!
//! 1. The vertex set is 1-D partitioned across nodes, balancing
//!    `|V_i| + |E_i]` (§6.1).
//! 2. Each node builds alias tables for its owned vertices when the
//!    static component is non-uniform (§3), and instantiates the walkers
//!    whose start vertices it owns.
//! 3. BSP iterations run until no walker remains active. Static and
//!    first-order walks resolve each step locally in one exchange
//!    (`first_order` module); second-order walks add the two-round
//!    walker-to-vertex query protocol (`second_order` module).
//!
//! Rejection sampling (with lower-bound pre-acceptance and outlier
//! folding) happens in the per-step helpers in this module; when
//! `max_local_trials` darts all miss, the engine falls back to an *exact*
//! full scan, which both preserves exactness under adversarially-bad
//! bounds and detects the "no eligible edge" termination condition (§2.2).

mod first_order;
mod instrument;
mod second_order;
mod serve;

pub use serve::{
    AdmitRequest, Directives, EpochUpdate, FinishedWalk, LiveSample, NoopDriver, ServeDelta,
    ServeDriver, SpanEvent, SpanEventKind,
};

use std::collections::HashMap;
use std::time::Instant;

use knightking_cluster::{comm::run_cluster_with_metrics, Scheduler};
use knightking_graph::{CsrGraph, EdgeView, Partition, VertexId};
use knightking_net::{Transport, Wire, WireError};
use knightking_sampling::{
    alias::{self, VoseScratch},
    rejection::{Envelope, OutlierSlot},
    AliasTable, CdfTable, DeterministicRng, FlatAlias, RadixTable, Trial,
};

use knightking_dyn::UpdateBatch;

use crate::{
    config::{SamplerBackend, WalkConfig, WalkerStarts},
    graphref::GraphRef,
    metrics::WalkMetrics,
    program::{NoopObserver, WalkObserver, WalkerProgram},
    result::{PathEntry, WalkResult},
    walker::Walker,
};

use instrument::{ChunkCtx, ChunkObs, NodeObs, Phase};

/// Window of outstanding state queries per walker during a full-scan
/// fallback, bounding per-iteration message burst at hub vertices.
const FULL_SCAN_WINDOW: usize = 4096;

/// Vertices per task of the parallel alias-row build: small enough that
/// hub-heavy blocks still balance across threads.
const ALIAS_BLOCK_ROWS: usize = 1024;

/// Messages exchanged between nodes.
///
/// Public because [`RandomWalkEngine::run_distributed`] is generic over
/// `Transport<Msg<P>>`; user code never constructs these.
pub enum Msg<P: WalkerProgram> {
    /// A walker migrating to the node owning its new residing vertex.
    Move(Walker<P::Data>),
    /// A walker-to-vertex state query (§5.1 step 2).
    Query {
        /// Node to route the answer back to.
        from: u32,
        /// Slot index of the asking walker on `from`.
        slot: u32,
        /// Caller-defined tag (edge index) echoed in the answer.
        tag: u32,
        /// Vertex whose owner executes the query.
        target: VertexId,
        /// The asking walker's pinned graph epoch: the owner answers
        /// against the same snapshot the walker samples (0 on static
        /// runs).
        epoch: u64,
        /// Program-defined payload.
        payload: P::Query,
    },
    /// A query response (§5.1 step 3).
    Answer {
        /// Slot index of the asking walker on the receiving node.
        slot: u32,
        /// Echoed tag.
        tag: u32,
        /// Program-defined result.
        payload: P::Answer,
    },
}

/// One tag byte plus the active variant's fields — no padding, no unused
/// variants. The same function prices messages for the in-process byte
/// statistics (`size_of::<Msg<P>>()` would charge every small `Query` and
/// `Answer` a `Move`'s footprint) and frames them on the TCP transport,
/// which is what makes the two backends' byte histograms agree.
impl<P: WalkerProgram> Wire for Msg<P> {
    fn wire_size(&self) -> usize {
        1 + match self {
            Msg::Move(walker) => walker.wire_size(),
            Msg::Query {
                from,
                slot,
                tag,
                target,
                epoch,
                payload,
            } => {
                from.wire_size()
                    + slot.wire_size()
                    + tag.wire_size()
                    + target.wire_size()
                    + epoch.wire_size()
                    + payload.wire_size()
            }
            Msg::Answer { slot, tag, payload } => {
                slot.wire_size() + tag.wire_size() + payload.wire_size()
            }
        }
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Msg::Move(walker) => {
                out.push(0);
                walker.encode(out)
            }
            Msg::Query {
                from,
                slot,
                tag,
                target,
                epoch,
                payload,
            } => {
                out.push(1);
                from.encode(out)?;
                slot.encode(out)?;
                tag.encode(out)?;
                target.encode(out)?;
                epoch.encode(out)?;
                payload.encode(out)
            }
            Msg::Answer { slot, tag, payload } => {
                out.push(2);
                slot.encode(out)?;
                tag.encode(out)?;
                payload.encode(out)
            }
        }
    }
    fn decode(input: &mut &[u8]) -> std::io::Result<Self> {
        match u8::decode(input)? {
            0 => Ok(Msg::Move(Walker::decode(input)?)),
            1 => Ok(Msg::Query {
                from: u32::decode(input)?,
                slot: u32::decode(input)?,
                tag: u32::decode(input)?,
                target: VertexId::decode(input)?,
                epoch: u64::decode(input)?,
                payload: P::Query::decode(input)?,
            }),
            2 => Ok(Msg::Answer {
                slot: u32::decode(input)?,
                tag: u32::decode(input)?,
                payload: P::Answer::decode(input)?,
            }),
            b => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("wire: invalid Msg tag {b}"),
            )),
        }
    }
}

/// Walker bookkeeping within a node.
///
/// Step-progress flags (`fresh`, `stuck`) live inside the states that
/// need them rather than alongside every walker: `Departed` and
/// `Finished` slots — retained through the exchange until the iteration's
/// `retain` pass — carry no dead flag bytes, and a state transition can
/// never leave a stale flag behind.
pub(crate) struct Slot<P: WalkerProgram> {
    pub(crate) walker: Walker<P::Data>,
    pub(crate) state: SlotState<P>,
}

/// Per-walker execution state.
pub(crate) enum SlotState<P: WalkerProgram> {
    /// Ready to throw darts.
    Active {
        /// Whether the walker is about to *start* a step (the termination
        /// component `Pe` is evaluated once per step, not once per trial).
        fresh: bool,
        /// Consecutive remote-answer rejections for the current step.
        /// Second-order walks reject across iterations; once this exceeds
        /// the trial budget the engine switches to the exact full scan,
        /// which guarantees liveness even when all queried `Pd` are zero.
        stuck: u32,
    },
    /// One dart thrown; awaiting another rank's answer to the state
    /// query for its candidate. The dart itself waits in the iteration's
    /// [`Asked`] list, so a slot stays small.
    Awaiting {
        answer: Option<P::Answer>,
        /// Rejection count carried across the query round (see
        /// [`SlotState::Active`]).
        stuck: u32,
    },
    /// Exact full-scan fallback in progress (rare; see module docs).
    FullScan(Box<FullScanState<P::Answer>>),
    /// Walker moved to another node this iteration.
    Departed,
    /// Walk complete.
    Finished,
}

impl<P: WalkerProgram> SlotState<P> {
    /// A freshly (re)started walker: about to begin a step, no rejections.
    #[inline]
    pub(crate) fn fresh() -> Self {
        SlotState::Active {
            fresh: true,
            stuck: 0,
        }
    }
}

/// State of an in-progress exact full scan over a walker's out-edges.
pub(crate) struct FullScanState<A> {
    /// `Ps·Pd` per edge; `NaN` = not yet known.
    pub(crate) products: Vec<f64>,
    /// Answers received this iteration, to fold in at phase B.
    pub(crate) received: Vec<(u32, A)>,
    /// Edges whose product is still unknown.
    pub(crate) unfilled: usize,
    /// Next edge index not yet queried.
    pub(crate) next_unqueried: usize,
}

impl<A> FullScanState<A> {
    /// Records the now-known `Ps·Pd` of edge `tag`.
    #[inline]
    pub(crate) fn fill(&mut self, tag: u32, product: f64) {
        debug_assert!(self.products[tag as usize].is_nan(), "duplicate answer");
        self.products[tag as usize] = product;
        self.unfilled -= 1;
    }
}

/// A walker that put a question to another rank in phase A, with what
/// phase B needs besides the answer.
pub(crate) enum Asked {
    /// A dart at height `y` on candidate `edge`, kept whole so deciding
    /// on the answer reads no graph memory.
    Dart { slot: u32, edge: EdgeView, y: f64 },
    /// A full scan with queries outstanding.
    Scan { slot: u32 },
}

impl Asked {
    /// Index of the asking walker's slot.
    pub(crate) fn slot(&self) -> u32 {
        match *self {
            Asked::Dart { slot, .. } | Asked::Scan { slot } => slot,
        }
    }
}

/// Per-chunk accumulator used by both execution paths.
pub(crate) struct ChunkAcc<P: WalkerProgram, O: WalkObserver<P::Data>> {
    pub(crate) outbox: Vec<Vec<Msg<P>>>,
    pub(crate) paths: Vec<PathEntry>,
    /// Walkers that terminated this iteration, tagged with the request
    /// they belong to. Batch runs discard these; serve mode ships them to
    /// the leader so it can complete requests.
    pub(crate) finished: Vec<FinishedWalk>,
    pub(crate) metrics: WalkMetrics,
    /// Observer accumulator (chunk-local; merged at iteration end).
    pub(crate) obs_acc: O::Acc,
    /// Chunk-local instrumentation (thread-owned, merged in chunk order).
    pub(crate) obs: ChunkObs,
    /// The walkers that posted a query to another rank this phase, in
    /// slot order: the only slots the answers concern.
    pub(crate) asked: Vec<Asked>,
    /// Scratch buffer for full-scan CDF sampling.
    pub(crate) cdf_scratch: Vec<f64>,
}

impl<P: WalkerProgram, O: WalkObserver<P::Data>> ChunkAcc<P, O> {
    fn new(n_nodes: usize, obs: &O, obs_ctx: ChunkCtx) -> Self {
        ChunkAcc {
            outbox: (0..n_nodes).map(|_| Vec::new()).collect(),
            paths: Vec::new(),
            finished: Vec::new(),
            metrics: WalkMetrics::default(),
            obs_acc: obs.make_acc(),
            obs: ChunkObs::new(obs_ctx),
            asked: Vec::new(),
            cdf_scratch: Vec::new(),
        }
    }
}

/// How far each stage of the step kernel runs ahead of the next within a
/// chunk: far enough for a DRAM miss to land while the walkers in between
/// finish, small enough that the hinted lines are still in L1 when read
/// (8 and 16 measured equal). Public for the identity tests' chunk-size
/// sweep.
#[doc(hidden)]
pub const LOOKAHEAD: usize = 8;

/// What `begin_step` hands the matching `finish_step`.
#[derive(Clone, Copy)]
pub(crate) enum Staged {
    /// Nothing was staged: `finish_step` runs the whole step.
    Eager,
    /// The step was decided without sampling (termination, teleport,
    /// dead end, zero static mass, a board without area).
    Done(StepOutcome),
    /// An alias bucket and its coin are drawn and the bucket's cells
    /// hinted; `lo` is the row's first cell.
    Alias { lo: usize, bucket: usize, coin: f64 },
    /// A uniform edge is drawn and its target cell, at `pos`, hinted.
    Uniform { pos: usize },
    /// (Dynamic programs.) The first dart of a rejection round is thrown
    /// at the envelope `begin_step` filled — `trial` says where it landed
    /// — and for a dart in the main rectangle the candidate is drawn as
    /// well: an alias `bucket` and `coin`, or a uniform edge index in
    /// `bucket`, its cells hinted. `lo` is the row's first cell.
    Dart {
        lo: usize,
        trial: Trial,
        bucket: usize,
        coin: f64,
    },
}

/// Drives one chunk of walkers through the staged step kernel, one stage
/// per [`NodeRt::lookahead`] walkers: hint the row bounds, `begin`,
/// (second-order programs) hint the state probe, `finish`.
///
/// A step is a chain of dependent loads — row bounds → the RNG-chosen
/// `prob`/`alias` cell → the `targets` cell, and for a second-order walk
/// the previous vertex's row bounds → the adjacency lines its membership
/// probe reads — and too much happens between two walkers' chains for the
/// out-of-order window to overlap them. The kernel makes the overlap
/// explicit: each stage reads what the stage before it hinted and hints
/// what the next one reads.
///
/// Byte-identity with `lookahead == 0` (every stage of a walker before
/// the next walker's first) holds by construction: `begin_step` touches
/// only its own walker — whose RNG stream is private — its own scratch
/// envelope, and immutable graph and sampler data; the probe hint writes
/// nothing; everything shared (`acc`) is written by `finish`, in slot
/// order, in both schedules.
pub(crate) fn run_chunk<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slice: &mut [Slot<P>],
    base: usize,
    acc: &mut ChunkAcc<P, O>,
    mut finish: impl FnMut(&mut Slot<P>, u32, Staged, &mut Envelope, &mut ChunkAcc<P, O>),
) {
    // One more entry than walkers in flight, so `begin` never lands on
    // the entry `finish` is about to read.
    const RING: usize = (2 * LOOKAHEAD + 1).next_power_of_two();
    let mut ring = [Staged::Eager; RING];
    // The kernel's scratch envelopes, one per walker in flight: filled by
    // `begin` (or by an eager `finish`), read by the stages after it.
    let mut envs: [Envelope; RING] = std::array::from_fn(|_| Envelope::simple(1.0, 1.0));
    let n = slice.len();
    let d = rt.lookahead;
    // How far `begin` runs ahead of `finish`: the probe hint takes a stage
    // in between.
    let ahead = if P::SECOND_ORDER { 2 * d } else { d };
    for t in 0..n + ahead {
        rt.prefetch_row(slice.get(t + d));
        if t < n {
            ring[t % RING] = begin_step(rt, &mut slice[t], &mut envs[t % RING]);
        }
        if P::SECOND_ORDER && (d..n + d).contains(&t) {
            let i = t - d;
            rt.prefetch_probe(&slice[i], ring[i % RING], &envs[i % RING]);
        }
        if t >= ahead {
            let i = t - ahead;
            let idx = (base + i) as u32;
            finish(&mut slice[i], idx, ring[i % RING], &mut envs[i % RING], acc);
        }
    }
}

/// One vertex's rebuilt static sampling structures, stamped at the epoch
/// of the update that invalidated them. Only the field matching the
/// run's backend and mode is populated: `alias` for decoupled-biased
/// alias runs, `max_ps` for alias mixed mode, `radix` for the radix
/// backend (which serves both decoupled candidates and the mixed-mode
/// max bound via [`RadixTable::max_slab`]).
pub(crate) struct SamplerEntry {
    pub(crate) alias: Option<AliasTable>,
    pub(crate) radix: Option<RadixTable>,
    pub(crate) max_ps: f64,
}

/// Per-node runtime shared by the execution paths. Immutable during an
/// iteration; dynamic runs mutate the sampler overrides between
/// supersteps via [`NodeRt::apply_update`] (exclusive access — the serve
/// loop holds `&mut`).
pub(crate) struct NodeRt<'a, P: WalkerProgram, O: WalkObserver<P::Data>> {
    /// This node's graph view. Static runs: the local CSR slice (owned
    /// vertices' out-edges only). Dynamic runs: the shared/full dynamic
    /// graph pinned at the build epoch; per-walker access re-pins via
    /// [`GraphRef::at`].
    pub(crate) graph: GraphRef<'a>,
    pub(crate) program: &'a P,
    pub(crate) observer: &'a O,
    pub(crate) partition: &'a Partition,
    pub(crate) cfg: &'a WalkConfig,
    pub(crate) me: usize,
    /// First vertex owned by this node.
    pub(crate) base: VertexId,
    /// Alias rows of the owned vertices, one cell per out-edge (a row
    /// without mass has total `0.0`); no rows when the static component
    /// is uniform or the radix backend is selected. Built at
    /// [`NodeRt::graph`]'s epoch, so on a CSR graph cell `p` belongs to
    /// edge `p` of the local slice; superseded per vertex by `overrides`.
    pub(crate) alias: FlatAlias,
    /// Radix tables for owned vertices when `cfg.sampler` is
    /// [`SamplerBackend::Radix`] and the graph is weighted (`None` for
    /// degree-0 / zero-mass vertices). Serves biased candidate draws in
    /// decoupled mode and the `max_ps`-equivalent envelope bound in mixed
    /// mode; superseded per vertex by `overrides`.
    pub(crate) radix: Vec<Option<RadixTable>>,
    /// Per-owned-vertex maximum `Ps`, used only in alias-backend mixed
    /// mode (Figure 8); the radix backend reads
    /// [`RadixTable::max_slab`] instead.
    pub(crate) max_ps: Vec<f64>,
    /// Epoch-versioned sampler rebuilds, keyed by local vertex index —
    /// only the vertices graph updates touched ever get an entry, which
    /// is what makes maintenance incremental. Versions are epoch-sorted;
    /// a walker pinned at epoch `e` uses the latest version ≤ `e`,
    /// falling back to the build-time `alias`/`max_ps` tables.
    pub(crate) overrides: HashMap<u32, Vec<(u64, SamplerEntry)>>,
    /// Whether candidates are drawn from per-vertex sampler tables
    /// (biased static component, decoupled mode).
    pub(crate) biased: bool,
    /// Whether the radix backend is active (epoch-pinned config: chosen
    /// once at build, constant for the run).
    pub(crate) radix_on: bool,
    /// The CSR whose rows `begin_step` stages: set when candidates are
    /// alias or uniform draws on a CSR graph, where no row can be
    /// overridden — static programs, and dynamic ones in decoupled mode.
    /// Everything else (radix, mixed mode, dynamic graphs) steps eagerly
    /// in `finish_step`.
    staged: Option<&'a CsrGraph>,
    /// Distance between the stages of the step kernel ([`LOOKAHEAD`]; 0
    /// on the identity tests' reference path).
    pub(crate) lookahead: usize,
}

/// What one local sampling attempt decided.
#[derive(Clone, Copy)]
pub(crate) enum StepOutcome {
    /// Walk over (termination, dead end, or zero probability mass).
    Finished,
    /// Edge accepted; move to this vertex.
    Moved(VertexId),
    /// (Second-order only) a state query for the candidate went to
    /// another rank; the slot is [`SlotState::Awaiting`] its answer and
    /// listed as [`Asked`].
    Posted,
    /// (Second-order only) rejection trials exhausted; switch to full
    /// scan.
    NeedFullScan,
}

impl<'a, P: WalkerProgram, O: WalkObserver<P::Data>> NodeRt<'a, P, O> {
    /// Builds the per-node runtime, including alias rows for owned
    /// vertices (filled in place, in parallel over vertex ranges).
    #[allow(clippy::too_many_arguments)]
    fn build(
        graph: GraphRef<'a>,
        program: &'a P,
        observer: &'a O,
        partition: &'a Partition,
        cfg: &'a WalkConfig,
        me: usize,
        scheduler: &Scheduler,
        lookahead: usize,
    ) -> Self {
        let range = partition.range(me);
        let base = range.start;
        let n_local = (range.end - range.start) as usize;
        let biased = cfg.decoupled_static && graph.is_weighted();
        let radix_on = cfg.sampler == SamplerBackend::Radix && graph.is_weighted();

        let alias_rows = if biased && !radix_on {
            range.clone()
        } else {
            base..base
        };
        let mut alias = FlatAlias::with_row_lens(alias_rows.map(|v| graph.degree(v)));
        // One task per block of rows, whatever the walker chunk size.
        let blocks = Scheduler {
            chunk_size: 1,
            light_threshold: 0,
            ..*scheduler
        };
        blocks.run_chunks(
            &mut alias.row_blocks_mut(ALIAS_BLOCK_ROWS),
            || (Vec::new(), VoseScratch::default()),
            |_, block, (weights, scratch): &mut (Vec<f64>, VoseScratch)| {
                let block = &mut block[0];
                for k in 0..block.rows() {
                    let v = base + (block.first_row + k) as VertexId;
                    static_weights(program, graph, v, weights);
                    block.fill(k, weights, scratch);
                }
            },
        );
        // A dart staged for a round that has no trial to spend would draw
        // from the walker's stream out of turn.
        let dartable = cfg.decoupled_static && cfg.max_local_trials > 0;
        let staged = match graph {
            GraphRef::Csr(csr) if !radix_on && (!P::DYNAMIC || dartable) => {
                // `begin_step` addresses alias cells by edge position.
                assert!(!biased || alias.cells() == csr.edge_count());
                Some(csr)
            }
            _ => None,
        };

        let radix = if radix_on {
            let mut locals: Vec<VertexId> = range.clone().collect();
            let tables = scheduler.run_chunks(
                &mut locals,
                Vec::new,
                |_base, slice, acc: &mut Vec<Option<RadixTable>>| {
                    let mut weights = Vec::new();
                    for &v in slice.iter() {
                        static_weights(program, graph, v, &mut weights);
                        acc.push(RadixTable::new(&weights).ok());
                    }
                },
            );
            tables.into_iter().flatten().collect()
        } else {
            Vec::new()
        };

        let max_ps = if !cfg.decoupled_static && !radix_on {
            (0..n_local)
                .map(|i| {
                    let v = base + i as VertexId;
                    let mut m = 0.0f64;
                    graph.for_each_edge(v, |e| m = m.max(program.static_comp(&graph, e)));
                    m
                })
                .collect()
        } else {
            Vec::new()
        };

        NodeRt {
            graph,
            program,
            observer,
            partition,
            cfg,
            me,
            base,
            alias,
            radix,
            max_ps,
            overrides: HashMap::new(),
            biased,
            radix_on,
            staged,
            lookahead,
        }
    }

    /// Refreshes the static sampling structures of the update-touched
    /// owned vertices, versioned at `epoch`. Called by the serve loop at
    /// the superstep boundary right after the graph update applies —
    /// exactly the touched vertices are refreshed, nothing else.
    ///
    /// The alias backend always rebuilds a touched vertex from scratch
    /// (O(degree)). The radix backend patches in place when it can: a
    /// vertex whose edits are *reweights only* keeps its merged-row edge
    /// indices, so the previous table is cloned and each touched edge
    /// gets an O(log degree) point reweight — O(k) bucket edits for a
    /// batch touching k edges, independent of vertex degree. Structural
    /// edits (adds/dels shift the merged row) or a vertex with no prior
    /// table still rebuild. Point updates and fresh builds produce
    /// bitwise-identical tables, so the patched sampler is
    /// indistinguishable from a rebuild.
    ///
    /// Returns `(rebuilt, cost)`: the number of sampler versions pushed
    /// (feeds `WalkMetrics::sampler_rebuilds`) and the maintenance cost
    /// in entry-edits — degree per rebuilt vertex, edges-touched per
    /// patched vertex (feeds `WalkMetrics::sampler_rebuild_cost`).
    pub(crate) fn apply_update(
        &mut self,
        epoch: u64,
        batch: &UpdateBatch,
        touched: &[VertexId],
    ) -> (u64, u64) {
        if self.cfg.decoupled_static && !self.biased {
            // Uniform static component: no per-vertex structures exist.
            return (0, 0);
        }
        let mut rebuilt = 0u64;
        let mut cost = 0u64;
        let mut weights = Vec::new();
        let g = self.graph.at(epoch);
        // Vertices with structural edits cannot be patched in place.
        let structural: std::collections::HashSet<VertexId> = batch
            .adds
            .iter()
            .map(|a| a.src)
            .chain(batch.dels.iter().map(|d| d.src))
            .collect();
        for &v in touched {
            debug_assert_eq!(self.partition.owner(v), self.me);
            let local = v - self.base;
            let deg = g.degree(v);

            if self.radix_on {
                // Structural edits shift merged-row indices, so those
                // vertices rebuild below; reweight-only vertices patch.
                let radix = if deg == 0 || structural.contains(&v) {
                    None
                } else {
                    // Reweight-only vertex: clone the version the previous
                    // epoch used and point-patch the touched edges. The
                    // merged row is index-stable under reweights, and a
                    // reweight hits every live parallel (v, dst) instance —
                    // exactly `edge_range(v, dst)` at the new epoch.
                    let prev = self.radix_at(local, epoch).cloned();
                    prev.filter(|t| t.len() == deg).map(|mut table| {
                        for r in batch.reweights.iter().filter(|r| r.src == v) {
                            for i in g.edge_range(v, r.dst) {
                                table.reweight(i, self.program.static_comp(&g, g.edge(v, i)));
                                cost += 1;
                            }
                        }
                        table
                    })
                };
                let radix = radix.or_else(|| {
                    static_weights(self.program, g, v, &mut weights);
                    cost += deg as u64;
                    RadixTable::new(&weights).ok()
                });
                self.overrides.entry(local).or_default().push((
                    epoch,
                    SamplerEntry {
                        alias: None,
                        radix,
                        max_ps: 0.0,
                    },
                ));
                rebuilt += 1;
                continue;
            }

            let alias = if self.biased {
                static_weights(self.program, g, v, &mut weights);
                AliasTable::new(&weights).ok()
            } else {
                None
            };
            let max_ps = if !self.cfg.decoupled_static {
                let mut m = 0.0f64;
                g.for_each_edge(v, |e| m = m.max(self.program.static_comp(&g, e)));
                m
            } else {
                0.0
            };
            cost += deg as u64;
            self.overrides.entry(local).or_default().push((
                epoch,
                SamplerEntry {
                    alias,
                    radix: None,
                    max_ps,
                },
            ));
            rebuilt += 1;
        }
        (rebuilt, cost)
    }

    /// Drops sampler versions no live walker can pin anymore — the
    /// sampler-side mirror of `DynGraph::retire`.
    pub(crate) fn retire_samplers(&mut self, watermark: u64) {
        for vers in self.overrides.values_mut() {
            let n = vers.partition_point(|(ep, _)| *ep <= watermark);
            if n > 1 {
                vers.drain(..n - 1);
            }
        }
    }

    /// The sampler override in effect for `local` at `epoch`, if any.
    #[inline]
    fn override_at(&self, local: u32, epoch: u64) -> Option<&SamplerEntry> {
        if self.overrides.is_empty() {
            return None; // static runs: zero-cost path
        }
        let vers = self.overrides.get(&local)?;
        vers.iter()
            .rev()
            .find(|(ep, _)| *ep <= epoch)
            .map(|(_, e)| e)
    }

    /// The radix table in effect for `local` at `epoch` (radix backend).
    #[inline]
    fn radix_at(&self, local: u32, epoch: u64) -> Option<&RadixTable> {
        match self.override_at(local, epoch) {
            Some(entry) => entry.radix.as_ref(),
            None => self.radix[local as usize].as_ref(),
        }
    }

    /// Static component of an edge, as the program defines it, against
    /// the pinned graph view `g`.
    #[inline]
    pub(crate) fn ps(&self, g: GraphRef<'_>, edge: EdgeView) -> f64 {
        self.program.static_comp(&g, edge)
    }

    /// Draws a candidate edge index from the static distribution at the
    /// walker's pinned epoch.
    #[inline]
    pub(crate) fn candidate(
        &self,
        v: VertexId,
        deg: usize,
        epoch: u64,
        rng: &mut DeterministicRng,
    ) -> usize {
        if self.biased {
            let local = v - self.base;
            if self.radix_on {
                return match self.radix_at(local, epoch) {
                    Some(table) => table.sample(rng),
                    // Zero static mass: callers gate on `static_total`
                    // (decoupled) or `Envelope::total_area` before
                    // drawing candidates.
                    None => unreachable!("candidate drawn at zero-mass vertex {v}"),
                };
            }
            match self.override_at(local, epoch) {
                Some(entry) => match &entry.alias {
                    Some(table) => table.sample(rng),
                    None => unreachable!("candidate drawn at zero-mass vertex {v}"),
                },
                None => self.alias.sample(local as usize, rng),
            }
        } else {
            rng.next_index(deg)
        }
    }

    /// Sum of static components at `v` (the envelope's width) at `epoch`.
    ///
    /// A biased vertex with no sampler table (all static weights zero or
    /// invalid) reports `0.0`, and the step paths finish the walker —
    /// matching [`NodeRt::local_full_scan`], which finishes on a zero
    /// total. Degree never substitutes for missing mass.
    #[inline]
    pub(crate) fn static_total(&self, v: VertexId, deg: usize, epoch: u64) -> f64 {
        if self.biased {
            let local = v - self.base;
            if self.radix_on {
                return self
                    .radix_at(local, epoch)
                    .map_or(0.0, |t| t.total_weight());
            }
            match self.override_at(local, epoch) {
                Some(entry) => entry.alias.as_ref().map_or(0.0, |t| t.total_weight()),
                None => self.alias.total(local as usize),
            }
        } else {
            deg as f64
        }
    }

    /// Owner of `v`. Single-node runs own everything, so the partition's
    /// range check and boundary search are skipped.
    #[inline]
    pub(crate) fn owner(&self, v: VertexId) -> usize {
        if self.cfg.n_nodes == 1 {
            0
        } else {
            self.partition.owner(v)
        }
    }

    /// Whether this node owns `v`.
    #[inline]
    pub(crate) fn owns(&self, v: VertexId) -> bool {
        self.partition.range(self.me).contains(&v)
    }

    /// Hints the row bounds and alias total of the vertex `slot`'s walker
    /// resides at — what `begin_step` reads first, one lookahead later.
    /// No-op off the staged path.
    #[inline]
    fn prefetch_row(&self, slot: Option<&Slot<P>>) {
        if let (Some(csr), Some(slot)) = (self.staged, slot) {
            let v = slot.walker.current;
            csr.prefetch_row_bounds(v);
            if self.biased {
                self.alias
                    .prefetch_total(v.wrapping_sub(self.base) as usize);
            }
        }
    }

    /// The edge index a staged candidate draw resolves to, on the row
    /// starting at cell `lo`.
    #[inline]
    fn staged_candidate(&self, lo: usize, bucket: usize, coin: f64) -> usize {
        if self.biased {
            self.alias.resolve_at(lo, bucket, coin)
        } else {
            bucket
        }
    }

    /// Middle stage of a staged second-order step: reads the candidate
    /// `begin_step` hinted and, when the dart will put a state query to a
    /// vertex this node owns, hints the adjacency lines the answer's
    /// probe reads — `finish_step` asks a stage later. Writes nothing.
    #[inline]
    fn prefetch_probe(&self, slot: &Slot<P>, staged: Staged, env: &Envelope) {
        let Staged::Dart {
            lo,
            trial: Trial::Main { y },
            bucket,
            coin,
        } = staged
        else {
            return;
        };
        let csr = self.staged.expect("staged on a CSR");
        if y < env.lower {
            return; // pre-accepted: asks nothing
        }
        let idx = self.staged_candidate(lo, bucket, coin);
        let edge = csr.edge(slot.walker.current, idx);
        if let Some((target, _)) = self.program.state_query(&slot.walker, edge) {
            if self.owns(target) {
                csr.prefetch_adjacency(target);
            }
        }
    }

    /// Mixed-mode per-vertex maximum `Ps` bound at `epoch`.
    ///
    /// Alias backend: the exact per-vertex maximum from the build/rebuild
    /// scan. Radix backend: the table's largest slab — a power-of-two
    /// upper bound within 2× of the true maximum that stays canonical
    /// under O(log n) reweights (a running max cannot shrink without an
    /// O(degree) rescan). Both keep the envelope sound; they differ in
    /// envelope height, which per-backend byte-identity permits.
    #[inline]
    fn max_ps_at(&self, v: VertexId, epoch: u64) -> f64 {
        let local = v - self.base;
        if self.radix_on {
            return self.radix_at(local, epoch).map_or(0.0, |t| t.max_slab());
        }
        match self.override_at(local, epoch) {
            Some(entry) => entry.max_ps,
            None => self.max_ps[local as usize],
        }
    }

    /// Evaluates the effective dynamic component for rejection testing.
    ///
    /// In decoupled mode this is the program's `Pd`; in mixed mode
    /// (Figure 8) it is `Ps·Pd`, emulating traditional samplers.
    #[inline]
    pub(crate) fn pd(
        &self,
        walker: &Walker<P::Data>,
        edge: EdgeView,
        answer: Option<P::Answer>,
        metrics: &mut WalkMetrics,
    ) -> f64 {
        metrics.edges_evaluated += 1;
        let g = self.graph.at(walker.epoch);
        let base = self.program.dynamic_comp(&g, walker, edge, answer);
        debug_assert!(
            base.is_finite() && base >= 0.0,
            "dynamic_comp returned invalid probability {base} for edge ({}, {})",
            edge.src,
            edge.dst
        );
        if self.cfg.decoupled_static {
            base
        } else {
            base * self.ps(g, edge)
        }
    }

    /// Rebuilds the scratch envelope for one step of `walker` at its
    /// residing vertex, against the walker's pinned snapshot.
    pub(crate) fn fill_envelope(&self, walker: &Walker<P::Data>, deg: usize, env: &mut Envelope) {
        let v = walker.current;
        let g = self.graph.at(walker.epoch);
        let q = self.program.upper_bound(&g, walker);
        env.outliers.clear();
        if self.cfg.decoupled_static {
            env.q = q;
            env.lower = if self.cfg.use_lower_bound {
                self.program.lower_bound(&g, walker)
            } else {
                0.0
            };
            env.static_total = self.static_total(v, deg, walker.epoch);
            self.program.declare_outliers(&g, walker, &mut env.outliers);
            if !self.cfg.use_outliers && !env.outliers.is_empty() {
                // Ablation mode (Table 5b "naive"): instead of folding the
                // outliers into appendix areas, raise the whole envelope
                // to cover them — the traditional, wasteful board shape.
                for o in &env.outliers {
                    env.q = env.q.max(o.height_bound);
                }
                env.outliers.clear();
            }
        } else {
            // Mixed mode: uniform candidates, weight folded into Pd, so
            // the envelope must absorb the vertex's largest weight — and
            // any declared outlier heights, since appendix folding assumes
            // decoupled static sampling.
            let mut q = q;
            self.program.declare_outliers(&g, walker, &mut env.outliers);
            for o in &env.outliers {
                q = q.max(o.height_bound);
            }
            env.outliers.clear();
            env.q = q * self.max_ps_at(v, walker.epoch);
            env.lower = 0.0;
            env.static_total = deg as f64;
        }
    }

    /// Records a path entry if path recording is on.
    #[inline]
    pub(crate) fn record(&self, acc: &mut ChunkAcc<P, O>, walker: &Walker<P::Data>) {
        if self.cfg.record_paths {
            acc.paths.push(PathEntry {
                walker: walker.id,
                step: walker.step,
                vertex: walker.current,
            });
        }
    }

    /// Performs the exact full scan for a walker whose `Pd` is locally
    /// computable, sampling from the true `Ps·Pd` distribution — or
    /// finishing the walk if no edge has positive probability.
    pub(crate) fn local_full_scan(
        &self,
        walker: &mut Walker<P::Data>,
        deg: usize,
        acc: &mut ChunkAcc<P, O>,
    ) -> StepOutcome {
        acc.metrics.fallback_scans += 1;
        acc.obs.fallback(walker.id);
        let graph = self.graph.at(walker.epoch);
        let v = walker.current;
        acc.cdf_scratch.clear();
        let mut run = 0.0f64;
        for i in 0..deg {
            let edge = graph.edge(v, i);
            let pd = self.pd(walker, edge, None, &mut acc.metrics);
            let ps = if self.cfg.decoupled_static {
                self.ps(graph, edge)
            } else {
                // Mixed mode folded Ps into `pd` already.
                1.0
            };
            run += (ps * pd).max(0.0);
            acc.cdf_scratch.push(run);
        }
        if run <= 0.0 {
            return StepOutcome::Finished;
        }
        let idx = CdfTable::sample_prepared(&acc.cdf_scratch, &mut walker.rng);
        StepOutcome::Moved(graph.edge(v, idx).dst)
    }

    /// Commits an accepted move: advances the walker, fires `on_move`,
    /// records the path entry, and emits a migration message if the new
    /// vertex lives on another node. Returns `true` if the walker stayed
    /// local.
    pub(crate) fn commit_move(
        &self,
        slot: &mut Slot<P>,
        dst: VertexId,
        acc: &mut ChunkAcc<P, O>,
    ) -> bool {
        slot.walker.advance(dst);
        let g = self.graph.at(slot.walker.epoch);
        self.program.on_move(&g, &mut slot.walker);
        acc.metrics.steps += 1;
        self.observer.on_move(&mut acc.obs_acc, &slot.walker);
        self.record(acc, &slot.walker);
        let owner = self.owner(dst);
        if owner == self.me {
            slot.state = SlotState::fresh();
            true
        } else {
            slot.state = SlotState::Departed;
            let walker = slot.walker.clone();
            acc.outbox[owner].push(Msg::Move(walker));
            false
        }
    }
}

/// Collects `Ps` of every out-edge of `v`, in edge order, into `out` —
/// the weights a sampler table for `v` is built from.
fn static_weights<P: WalkerProgram>(program: &P, g: GraphRef<'_>, v: VertexId, out: &mut Vec<f64>) {
    out.clear();
    g.for_each_edge(v, |e| out.push(program.static_comp(&g, e)));
}

/// Output of one node's run.
struct NodeOut {
    paths: Vec<PathEntry>,
    metrics: WalkMetrics,
    active_series: Vec<u64>,
    profile: Option<knightking_obs::NodeProfile>,
}

/// The engine: a graph, a program, and a configuration.
///
/// See the [crate-level docs](crate) for an end-to-end example.
pub struct RandomWalkEngine<'g, P: WalkerProgram> {
    pub(crate) graph: GraphRef<'g>,
    pub(crate) program: P,
    pub(crate) config: WalkConfig,
    /// Lookahead of the staged step kernel ([`LOOKAHEAD`] outside tests).
    pub(crate) lookahead: usize,
}

impl<'g, P: WalkerProgram> RandomWalkEngine<'g, P> {
    /// Creates an engine over `graph` running `program`.
    ///
    /// `graph` is anything convertible to a [`GraphRef`]: a `&CsrGraph`
    /// (static run) or a `&DynGraph` (dynamic run — the engine pins the
    /// graph's current epoch at this call, and every walker of a batch
    /// run samples that snapshot).
    pub fn new(graph: impl Into<GraphRef<'g>>, program: P, config: WalkConfig) -> Self {
        RandomWalkEngine {
            graph: graph.into(),
            program,
            config,
            lookahead: LOOKAHEAD,
        }
    }

    /// The reference schedule of the staged step kernel: every walker's
    /// step begins and finishes before the next walker's begins. Results
    /// are byte-identical to the default schedule; the identity tests
    /// hold the engine to that.
    #[doc(hidden)]
    pub fn lookahead0(mut self) -> Self {
        self.lookahead = 0;
        self
    }

    /// Access the configuration.
    pub fn config(&self) -> &WalkConfig {
        &self.config
    }

    /// Runs the walk to completion and returns the result.
    ///
    /// Timing covers walker and sampling-structure initialization plus the
    /// walk itself, matching §7.1's methodology (graph loading and
    /// partitioning excluded).
    pub fn run(&self, starts: WalkerStarts) -> WalkResult {
        self.run_with_observer(starts, &NoopObserver).0
    }

    /// Runs the walk with an in-flight [`WalkObserver`], returning the
    /// result plus the merged observation (§5.1's "computation embedded
    /// during the random walk process").
    pub fn run_with_observer<O: WalkObserver<P::Data>>(
        &self,
        starts: WalkerStarts,
        observer: &O,
    ) -> (WalkResult, O::Acc) {
        let starts = starts.materialize(self.graph.vertex_count());
        let partition = Partition::balanced(self.graph.base_csr(), self.config.n_nodes, 1.0);
        let n_walkers = starts.len() as u64;
        let threads = self.config.resolved_threads();

        // Physically partition the graph: each node receives only the
        // out-edges of its owned vertices, as on a real cluster.
        // Out-of-partition accesses become structurally impossible (a
        // foreign vertex has degree zero on this node). Single-node runs
        // use the input graph directly. Like graph loading/partitioning,
        // this is excluded from the timed region (§7.1). Dynamic graphs
        // are shared whole instead of sliced — their row versions can't
        // be cheaply split — so only the partition-ownership discipline
        // (debug-asserted on every sampled vertex) separates the nodes.
        let locals: Vec<CsrGraph> = match self.graph {
            GraphRef::Csr(g) if self.config.n_nodes > 1 => (0..self.config.n_nodes)
                .map(|node| partition.extract_local(g, node))
                .collect(),
            _ => Vec::new(),
        };

        let begin = Instant::now();
        let (outs, comm): (Vec<(NodeOut, O::Acc)>, _) =
            run_cluster_with_metrics::<Msg<P>, _, _>(self.config.n_nodes, |ctx| {
                let mut ctx = ctx;
                let local = if locals.is_empty() {
                    self.graph
                } else {
                    GraphRef::Csr(&locals[ctx.node])
                };
                self.node_main(&mut ctx, local, observer, &partition, &starts, threads)
            });
        let elapsed = begin.elapsed();

        // Post-run finalization (merge + path reassembly) is timed into
        // node 0's `Finalize` phase so per-node phase sums stay bounded by
        // the profile's wall clock.
        let finalize_begin = Instant::now();
        let mut fragments = Vec::new();
        let mut metrics = WalkMetrics::default();
        let mut active_series = Vec::new();
        let mut observation: Option<O::Acc> = None;
        let mut node_profiles: Vec<knightking_obs::NodeProfile> = Vec::new();
        for (i, (out, obs_acc)) in outs.into_iter().enumerate() {
            fragments.extend(out.paths);
            metrics.merge(&out.metrics);
            if i == 0 {
                active_series = out.active_series;
            }
            match &mut observation {
                None => observation = Some(obs_acc),
                Some(into) => observer.merge(into, obs_acc),
            }
            node_profiles.extend(out.profile);
        }
        let paths = if self.config.record_paths {
            WalkResult::assemble_paths(n_walkers, fragments)
        } else {
            Vec::new()
        };
        let profile = if node_profiles.is_empty() {
            None
        } else {
            if let Some(n0) = node_profiles.first_mut() {
                n0.timers
                    .add(Phase::Finalize, finalize_begin.elapsed().as_nanos() as u64);
                n0.timers.flush_setup();
            }
            Some(knightking_obs::RunProfile {
                nodes: node_profiles,
                wall_nanos: begin.elapsed().as_nanos() as u64,
            })
        };
        let result = WalkResult {
            paths,
            active_per_iteration: active_series,
            metrics,
            comm,
            elapsed,
            profile,
        };
        (result, observation.unwrap_or_else(|| observer.make_acc()))
    }

    /// Body executed by each node — simulated (in-process `NodeCtx`) or
    /// real (one OS process driving a `TcpTransport`). `local` is this
    /// node's slice of the graph: out-edges of owned vertices only.
    fn node_main<O: WalkObserver<P::Data>, T: Transport<Msg<P>>>(
        &self,
        ctx: &mut T,
        local: GraphRef<'_>,
        observer: &O,
        partition: &Partition,
        starts: &[VertexId],
        threads: usize,
    ) -> (NodeOut, O::Acc) {
        let cfg = &self.config;
        let me = ctx.node();
        let scheduler = Scheduler {
            threads,
            chunk_size: cfg.chunk_size,
            light_threshold: cfg.light_threshold,
        };
        let mut prof = NodeObs::new(cfg.profile, me);
        let rt = prof.time(Phase::AliasBuild, || {
            NodeRt::build(
                local,
                &self.program,
                observer,
                partition,
                cfg,
                me,
                &scheduler,
                self.lookahead,
            )
        });

        // Instantiate locally-owned walkers, recording their start vertex
        // as path step 0.
        let (mut slots, mut paths) = prof.time(Phase::Init, || {
            let mut slots: Vec<Slot<P>> = Vec::new();
            let mut paths: Vec<PathEntry> = Vec::new();
            for (id, &start) in starts.iter().enumerate() {
                if partition.owner(start) == me {
                    let data = self.program.init_data(id as u64, start);
                    let mut walker = Walker::new(id as u64, start, cfg.seed, data);
                    // Batch runs pin every walker at the engine's snapshot
                    // epoch (0 for CSR graphs).
                    walker.epoch = local.epoch();
                    if cfg.record_paths {
                        paths.push(PathEntry {
                            walker: walker.id,
                            step: 0,
                            vertex: start,
                        });
                    }
                    slots.push(Slot {
                        walker,
                        state: SlotState::fresh(),
                    });
                }
            }
            (slots, paths)
        });
        prof.flush_setup();

        let mut metrics = WalkMetrics::default();
        let mut active_series = Vec::new();
        let mut obs_acc = observer.make_acc();
        // Batch runs don't route per-request completions anywhere; the
        // scratch buffer just absorbs them each iteration.
        let mut finished_scratch: Vec<FinishedWalk> = Vec::new();
        loop {
            metrics.iterations += 1;
            finished_scratch.clear();
            if P::SECOND_ORDER {
                second_order::iteration(
                    &rt,
                    ctx,
                    &scheduler,
                    &mut slots,
                    &mut paths,
                    &mut finished_scratch,
                    &mut metrics,
                    &mut obs_acc,
                    &mut prof,
                );
            } else {
                first_order::iteration(
                    &rt,
                    ctx,
                    &scheduler,
                    &mut slots,
                    &mut paths,
                    &mut finished_scratch,
                    &mut metrics,
                    &mut obs_acc,
                    &mut prof,
                );
            }
            let active = prof.time(Phase::Exchange, || ctx.allreduce_sum(slots.len() as u64));
            if ctx.is_leader() {
                active_series.push(active);
            }
            prof.end_iteration();
            // Cooperative cancellation is a collective: every node votes
            // with its local token, so all nodes agree on the same
            // superstep to stop at — walkers freeze and the run finalizes
            // with whatever paths/metrics exist so far.
            if let Some(token) = &cfg.cancel {
                let cancelled = prof.time(Phase::Exchange, || {
                    ctx.allreduce_sum(token.is_cancelled() as u64)
                });
                if cancelled > 0 {
                    break;
                }
            }
            if active == 0 {
                break;
            }
        }

        (
            NodeOut {
                paths,
                metrics,
                active_series,
                profile: prof.finish(),
            },
            obs_acc,
        )
    }

    /// Runs the walk as **one node of a real multi-process cluster**, with
    /// inter-node communication carried by `transport` (e.g. a
    /// [`TcpTransport`] over a full mesh of sockets).
    ///
    /// Every process must call this with the same graph, program, config,
    /// and starts (the SPMD contract); `config.n_nodes` must equal
    /// `transport.n_nodes()`. Each process derives its own partition from
    /// the shared graph, walks its owned walkers, and at the end sends its
    /// path fragments and metrics to rank 0, which assembles the full
    /// [`WalkResult`] — byte-identical to an in-process
    /// [`run`](RandomWalkEngine::run) with the same seed and node count.
    ///
    /// Returns `Some(result)` on rank 0 and `None` on every other rank.
    ///
    /// [`TcpTransport`]: https://docs.rs/knightking-net
    ///
    /// # Panics
    ///
    /// Panics if `transport.n_nodes() != config.n_nodes`.
    pub fn run_distributed<T: Transport<Msg<P>>>(
        &self,
        transport: &mut T,
        starts: WalkerStarts,
    ) -> Option<WalkResult> {
        assert_eq!(
            transport.n_nodes(),
            self.config.n_nodes,
            "transport has {} nodes but config.n_nodes is {}",
            transport.n_nodes(),
            self.config.n_nodes
        );
        let starts = starts.materialize(self.graph.vertex_count());
        let partition = Partition::balanced(self.graph.base_csr(), self.config.n_nodes, 1.0);
        let n_walkers = starts.len() as u64;
        let threads = self.config.resolved_threads();
        let me = transport.node();

        // Every process loads the full graph and extracts its own slice —
        // the same physical partitioning as the in-process path, just
        // without materializing the other nodes' slices. Dynamic graphs
        // stay whole (see `run_with_observer`).
        let local_owned;
        let local: GraphRef<'_> = match self.graph {
            GraphRef::Csr(g) if self.config.n_nodes > 1 => {
                local_owned = partition.extract_local(g, me);
                GraphRef::Csr(&local_owned)
            }
            other => other,
        };

        let begin = Instant::now();
        let (out, ()) = self.node_main(
            transport,
            local,
            &NoopObserver,
            &partition,
            &starts,
            threads,
        );
        let elapsed = begin.elapsed();

        // Result collection: each rank ships (metrics, path fragments) to
        // the leader as one opaque blob; counters are snapshotted as a
        // collective so every rank agrees the run is over.
        let finalize_begin = Instant::now();
        let blob = knightking_net::to_bytes(&(out.metrics, out.paths))
            .expect("result blob exceeds wire limits");
        let gathered = transport.gather_bytes(blob);
        let comm = transport.cluster_counts();
        let parts = gathered?;

        let mut fragments = Vec::new();
        let mut metrics = WalkMetrics::default();
        for (rank, part) in parts.iter().enumerate() {
            let (m, paths): (WalkMetrics, Vec<PathEntry>) = knightking_net::from_bytes(part)
                .unwrap_or_else(|e| panic!("corrupt result blob from rank {rank}: {e}"));
            metrics.merge(&m);
            fragments.extend(paths);
        }
        let paths = if self.config.record_paths {
            WalkResult::assemble_paths(n_walkers, fragments)
        } else {
            Vec::new()
        };
        let profile = {
            // Only the leader's own node profile is collected; shipping
            // every rank's profile through the gather would require a wire
            // encoding for the whole obs tree.
            let mut node_profile = out.profile;
            if let Some(n0) = node_profile.as_mut() {
                n0.timers
                    .add(Phase::Finalize, finalize_begin.elapsed().as_nanos() as u64);
                n0.timers.flush_setup();
            }
            node_profile.map(|n0| knightking_obs::RunProfile {
                nodes: vec![n0],
                wall_nanos: begin.elapsed().as_nanos() as u64,
            })
        };
        Some(WalkResult {
            paths,
            active_per_iteration: out.active_series,
            metrics,
            comm,
            elapsed,
            profile,
        })
    }
}

/// Opens a superstep over `n_slots` walkers: records it in the profile
/// and returns the phase its compute is timed under (light mode is its
/// own phase) with the chunks' recording context.
pub(crate) fn open_superstep(
    scheduler: &Scheduler,
    n_slots: usize,
    prof: &mut NodeObs,
) -> (Phase, ChunkCtx) {
    // A one-thread node runs every superstep serially; only the switch
    // itself is light mode.
    let light = scheduler.below_light_threshold(n_slots);
    prof.superstep(n_slots as u64, scheduler.chunk_count(n_slots) as u64, light);
    let phase = if light {
        Phase::LightMode
    } else {
        Phase::LocalCompute
    };
    (phase, prof.chunk_ctx())
}

/// Merges chunk accumulators into node-level buffers and returns the
/// combined outbox and asked list. Chunk instrumentation is absorbed
/// here too — in chunk order, so profiles inherit the scheduler's
/// determinism contract.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_accs<P: WalkerProgram, O: WalkObserver<P::Data>>(
    observer: &O,
    accs: Vec<ChunkAcc<P, O>>,
    n_nodes: usize,
    paths: &mut Vec<PathEntry>,
    finished: &mut Vec<FinishedWalk>,
    metrics: &mut WalkMetrics,
    obs_acc: &mut O::Acc,
    prof: &mut NodeObs,
) -> (Vec<Vec<Msg<P>>>, Vec<Asked>) {
    let mut outbox: Vec<Vec<Msg<P>>> = (0..n_nodes).map(|_| Vec::new()).collect();
    let mut asked = Vec::new();
    let mut iter_metrics = WalkMetrics::default();
    for mut acc in accs {
        for (to, msgs) in acc.outbox.iter_mut().enumerate() {
            outbox[to].append(msgs);
        }
        asked.append(&mut acc.asked);
        paths.append(&mut acc.paths);
        finished.append(&mut acc.finished);
        iter_metrics.merge(&acc.metrics);
        observer.merge(obs_acc, acc.obs_acc);
        prof.absorb(acc.obs);
    }
    // Chunk accumulators start from zero each iteration; fold their sums
    // into the running node totals (iterations tracked by the caller).
    let saved_iterations = metrics.iterations;
    metrics.merge(&iter_metrics);
    metrics.iterations = saved_iterations;
    (outbox, asked)
}

/// The once-per-step checks that precede sampling: the termination
/// component `Pe`, then the program's teleport. `Some` ends the step.
#[inline]
fn step_prelude<P: WalkerProgram>(
    program: &P,
    graph: GraphRef<'_>,
    walker: &mut Walker<P::Data>,
) -> Option<StepOutcome> {
    if program.should_terminate(walker) {
        return Some(StepOutcome::Finished);
    }
    let dst = program.teleport(&graph, walker)?;
    // Restart-style jump: no edge traversed, no sampling.
    assert!(
        (dst as usize) < graph.vertex_count(),
        "teleport destination {dst} out of range"
    );
    Some(StepOutcome::Moved(dst))
}

/// First half of a step. On the staged path (see [`NodeRt::staged`]) it
/// runs everything up to the memory the RNG chooses — prelude, degree and
/// zero-mass checks, for a dynamic program the envelope fill (into `env`)
/// and the round's first dart, then the candidate draw, all in the RNG
/// order of `local_step` — and hints that memory; `finish_step` reads it.
/// Touches nothing but the slot and `env`.
#[inline]
fn begin_step<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    env: &mut Envelope,
) -> Staged {
    // Distributed-memory discipline: a node only ever samples at vertices
    // it owns. The CSR is shared for simulation convenience, but every
    // access in the walk path must stay partition-local.
    debug_assert_eq!(
        rt.owner(slot.walker.current),
        rt.me,
        "walker resides on a vertex this node does not own"
    );
    let (Some(csr), &SlotState::Active { fresh, stuck }) = (rt.staged, &slot.state) else {
        return Staged::Eager;
    };
    if P::SECOND_ORDER && stuck > rt.cfg.max_local_trials {
        // Out of rejections: `finish` switches the walker to a full scan.
        return Staged::Eager;
    }
    if fresh {
        if let Some(done) = step_prelude(rt.program, GraphRef::Csr(csr), &mut slot.walker) {
            return Staged::Done(done);
        }
        if P::DYNAMIC {
            // The step may outlive this iteration: its prelude has run.
            slot.state = SlotState::Active {
                fresh: false,
                stuck,
            };
        }
    }
    let v = slot.walker.current;
    let (lo, deg) = csr.row(v);
    if deg == 0 {
        return Staged::Done(StepOutcome::Finished);
    }
    if P::DYNAMIC {
        rt.fill_envelope(&slot.walker, deg, env);
        // No dart lands on a board without area: the walk ends.
        let Some(trial) = env.draw(&mut slot.walker.rng) else {
            return Staged::Done(StepOutcome::Finished);
        };
        // An appendix dart names its edge by the outlier's target; a dart
        // in the main rectangle draws it from the static distribution.
        let (mut bucket, mut coin) = (0, 0.0);
        if let Trial::Main { .. } = trial {
            if rt.biased {
                (bucket, coin) = alias::draw_cell(deg, &mut slot.walker.rng);
                rt.alias.prefetch_cell(lo + bucket);
            } else {
                bucket = slot.walker.rng.next_index(deg);
            }
            csr.prefetch_edge(lo + bucket);
        }
        if P::SECOND_ORDER {
            // Where a second-order candidate's state query usually goes.
            if let Some(prev) = slot.walker.prev.filter(|&t| rt.owns(t)) {
                csr.prefetch_row_bounds(prev);
            }
        }
        return Staged::Dart {
            lo,
            trial,
            bucket,
            coin,
        };
    }
    if !rt.biased {
        let pos = lo + slot.walker.rng.next_index(deg);
        csr.prefetch_target(pos);
        return Staged::Uniform { pos };
    }
    // A row without static mass has no edge to draw: the walk ends there,
    // exactly as the full-scan fallback decides.
    if rt.alias.total((v - rt.base) as usize) <= 0.0 {
        return Staged::Done(StepOutcome::Finished);
    }
    let (bucket, coin) = alias::draw_cell(deg, &mut slot.walker.rng);
    rt.alias.prefetch_cell(lo + bucket);
    csr.prefetch_target(lo + bucket);
    Staged::Alias { lo, bucket, coin }
}

/// Second half of a step: resolves what `begin_step` staged, or runs the
/// whole step when nothing was. `slot_idx` is the walker's index in the
/// node's slot vector, used to address query answers back to it; `env` is
/// the envelope `begin_step` filled, or scratch for the eager step.
#[inline]
pub(crate) fn finish_step<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    slot_idx: u32,
    staged: Staged,
    env: &mut Envelope,
    acc: &mut ChunkAcc<P, O>,
) -> StepOutcome {
    let csr = || rt.staged.expect("staged on a CSR");
    let target = |pos| csr().target(pos);
    match staged {
        Staged::Eager => local_step(rt, slot, slot_idx, env, acc),
        Staged::Done(outcome) => outcome,
        Staged::Alias { lo, bucket, coin } => {
            StepOutcome::Moved(target(lo + rt.alias.resolve_at(lo, bucket, coin)))
        }
        Staged::Uniform { pos } => StepOutcome::Moved(target(pos)),
        Staged::Dart {
            lo,
            trial,
            bucket,
            coin,
        } => {
            let first = (trial, rt.staged_candidate(lo, bucket, coin));
            let deg = csr().degree(slot.walker.current);
            throw_darts(rt, slot, slot_idx, deg, Some(first), env, acc)
        }
    }
}

/// The eager step: one *local* sampling decision for a walker, start to
/// end (everything except remote-answer cases). The radix backend, mixed
/// mode and dynamic graphs step here, and so does every round of darts
/// after a step's first.
///
/// When the walker is `fresh`, the prelude runs first (once per step, not
/// per trial).
fn local_step<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    slot_idx: u32,
    env: &mut Envelope,
    acc: &mut ChunkAcc<P, O>,
) -> StepOutcome {
    // All graph reads in this step resolve at the walker's pinned epoch.
    let graph = rt.graph.at(slot.walker.epoch);
    let SlotState::Active { fresh, stuck } = slot.state else {
        unreachable!("local_step requires an Active slot")
    };
    if fresh {
        if let Some(done) = step_prelude(rt.program, graph, &mut slot.walker) {
            return done;
        }
        slot.state = SlotState::Active {
            fresh: false,
            stuck,
        };
    }
    let v = slot.walker.current;
    let deg = graph.degree(v);
    if deg == 0 {
        return StepOutcome::Finished;
    }

    // Static walks: the sampler/uniform candidate *is* the sample. A
    // biased vertex whose static mass is zero (every edge reweighted to
    // zero, or the table invalid) has no edge to draw — the walk ends
    // there, exactly as the full-scan fallback decides.
    if !P::DYNAMIC {
        if rt.static_total(v, deg, slot.walker.epoch) <= 0.0 {
            return StepOutcome::Finished;
        }
        let idx = rt.candidate(v, deg, slot.walker.epoch, &mut slot.walker.rng);
        return StepOutcome::Moved(graph.edge(v, idx).dst);
    }

    rt.fill_envelope(&slot.walker, deg, env);
    if env.total_area() <= 0.0 {
        return StepOutcome::Finished;
    }
    throw_darts(rt, slot, slot_idx, deg, None, env, acc)
}

/// Throws darts at `env` for an `Active` walker at a vertex of degree
/// `deg` until its step is decided or has to wait for another rank (the
/// slot turns `Awaiting`, listed in `acc.asked`): rounds of up to
/// `max_local_trials` darts, `first` — the dart and candidate
/// `begin_step` drew — leading the first round.
///
/// A dart whose candidate needs a state query asks through
/// [`post_query`]. An answer from this node settles the dart at once; a
/// rejection on it closes the round — one more `stuck`, the full-scan
/// threshold, a fresh trial budget — exactly where a rejection on a
/// remote answer closes it an iteration later, so a walker's draws and
/// every counter fall the same whichever rank owns the target.
fn throw_darts<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    slot: &mut Slot<P>,
    slot_idx: u32,
    deg: usize,
    mut first: Option<(Trial, usize)>,
    env: &Envelope,
    acc: &mut ChunkAcc<P, O>,
) -> StepOutcome {
    let SlotState::Active { mut stuck, .. } = slot.state else {
        unreachable!("throw_darts requires an Active slot")
    };
    let v = slot.walker.current;
    let epoch = slot.walker.epoch;
    let graph = rt.graph.at(epoch);
    'round: loop {
        for _ in 0..rt.cfg.max_local_trials {
            acc.metrics.trials += 1;
            let (trial, candidate) = match first.take() {
                Some(staged) => staged,
                None => {
                    let Some(trial) = env.draw(&mut slot.walker.rng) else {
                        return StepOutcome::Finished;
                    };
                    let candidate = match trial {
                        Trial::Main { .. } => rt.candidate(v, deg, epoch, &mut slot.walker.rng),
                        Trial::Appendix { .. } => 0,
                    };
                    (trial, candidate)
                }
            };
            let (edge, y) = match trial {
                Trial::Main { y } => {
                    let edge = graph.edge(v, candidate);
                    if y < env.lower {
                        acc.metrics.pre_accepts += 1;
                        return StepOutcome::Moved(edge.dst);
                    }
                    (edge, y)
                }
                Trial::Appendix { index, x_mass, y } => {
                    acc.metrics.appendix_hits += 1;
                    let slot_decl: OutlierSlot = env.outliers[index];
                    // Spread the appendix's horizontal mass across all
                    // (possibly parallel) edges leading to the declared
                    // target, proportionally to their Ps — exact even on
                    // multigraphs.
                    let mut chosen = None;
                    let mut cum = 0.0f64;
                    for i in graph.edge_range(v, slot_decl.target) {
                        let e = graph.edge(v, i);
                        cum += rt.ps(graph, e);
                        if x_mass < cum {
                            chosen = Some(e);
                            break;
                        }
                    }
                    let Some(edge) = chosen else {
                        continue;
                    };
                    (edge, y)
                }
            };
            if P::SECOND_ORDER {
                if let Some((target, payload)) = rt.program.state_query(&slot.walker, edge) {
                    let tag = edge.index as u32;
                    let Some(answer) = post_query(rt, acc, slot_idx, target, tag, epoch, payload)
                    else {
                        slot.state = SlotState::Awaiting {
                            answer: None,
                            stuck,
                        };
                        acc.asked.push(Asked::Dart {
                            slot: slot_idx,
                            edge,
                            y,
                        });
                        return StepOutcome::Posted;
                    };
                    let pd = rt.pd(&slot.walker, edge, Some(answer), &mut acc.metrics);
                    if y < pd {
                        return StepOutcome::Moved(edge.dst);
                    }
                    stuck += 1;
                    if stuck > rt.cfg.max_local_trials {
                        return StepOutcome::NeedFullScan;
                    }
                    continue 'round;
                }
            }
            let pd = rt.pd(&slot.walker, edge, None, &mut acc.metrics);
            if y < pd {
                return StepOutcome::Moved(edge.dst);
            }
        }
        return if P::SECOND_ORDER {
            StepOutcome::NeedFullScan
        } else {
            rt.local_full_scan(&mut slot.walker, deg, acc)
        };
    }
}

/// Ends a walk: marks the slot finished and reports the walker, tagged
/// with its request, for serve mode to route.
pub(crate) fn finish_walk<P: WalkerProgram, O: WalkObserver<P::Data>>(
    slot: &mut Slot<P>,
    acc: &mut ChunkAcc<P, O>,
) {
    acc.metrics.finished_walkers += 1;
    slot.state = SlotState::Finished;
    acc.obs.walk_finished(slot.walker.step as u64);
    acc.finished.push(FinishedWalk {
        tag: slot.walker.tag,
        walker: slot.walker.id,
        steps: slot.walker.step,
    });
}

/// The one place a walker asks about another vertex's state. A `target`
/// this node owns is answered on the spot, against the asking walker's
/// pinned snapshot — `Some(answer)`. Any other becomes a [`Msg::Query`]
/// to its owner, carrying that epoch so the owner answers against the
/// same snapshot, and `None`: the answer comes back through the answer
/// round, addressed to `slot_idx` and `tag`.
pub(crate) fn post_query<P: WalkerProgram, O: WalkObserver<P::Data>>(
    rt: &NodeRt<'_, P, O>,
    acc: &mut ChunkAcc<P, O>,
    slot_idx: u32,
    target: VertexId,
    tag: u32,
    epoch: u64,
    payload: P::Query,
) -> Option<P::Answer> {
    acc.metrics.queries += 1;
    let owner = rt.owner(target);
    if owner == rt.me {
        return Some(
            rt.program
                .answer_query(&rt.graph.at(epoch), target, payload),
        );
    }
    acc.outbox[owner].push(Msg::Query {
        from: rt.me as u32,
        slot: slot_idx,
        tag,
        target,
        epoch,
        payload,
    });
    None
}
