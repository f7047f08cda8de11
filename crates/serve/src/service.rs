//! The resident walk service: admission queue, leader-side driver, and
//! the handles clients use to reach them.
//!
//! A [`WalkService`] owns the shared state (queue, stats, shutdown flag)
//! and runs the engine's serve loop; any number of cloned
//! [`ServiceHandle`]s feed it requests from listener threads or
//! in-process callers. The `QueueDriver` is the `ServeDriver` the
//! leader node plugs into [`RandomWalkEngine::run_service`]: it admits
//! queued requests at superstep boundaries (bounded per superstep),
//! routes path fragments back to their requests, enforces deadlines, and
//! answers each request's response channel when its last walker lands.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use knightking_cluster::comm::run_cluster_with_metrics;
use knightking_core::result::PathEntry;
use knightking_core::{
    AdmitRequest, Directives, EpochUpdate, GraphRef, Msg, NoopDriver, RandomWalkEngine, ServeDelta,
    ServeDriver, Transport, WalkConfig, WalkMetrics, WalkResult, WalkerProgram, WalkerStarts,
};
use knightking_dyn::{DynGraph, UpdateBatch};
use knightking_graph::VertexId;

use crate::protocol::{StartSpec, Status, WalkRequest, WalkResponse, DEFAULT_TENANT};
use crate::qos::{FairQueue, Shed};
use crate::stats::{SeriesPoint, ServeStats, StatsReport};
use crate::trace::TraceLog;

/// Admission-control knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Requests the admission queue holds before rejecting with
    /// `Status::Rejected` — the service's backpressure bound.
    pub queue_capacity: usize,
    /// Requests admitted into the engine per superstep. Bounds how much
    /// one superstep's admission can stall in-flight walkers.
    pub max_admit_per_superstep: usize,
    /// `retry_after_ms` carried by rejections.
    pub retry_after_ms: u64,
    /// Trace one of every `trace_sample` admitted requests (`0` disables
    /// tracing). Sampling keeps heavy traffic cheap: untraced requests
    /// record nothing anywhere.
    pub trace_sample: u64,
    /// Fair-queueing weights for named tenants: tenant `i`'s share of
    /// admitted walkers tracks `weight_i / Σ weight_j` over any busy
    /// interval. Tenants not listed here get `default_tenant_weight`.
    pub tenant_weights: Vec<(String, u32)>,
    /// Weight for tenants absent from `tenant_weights`.
    pub default_tenant_weight: u32,
    /// Max requests one tenant may hold queued at once; `0` disables the
    /// quota. Exceeding it sheds with `Status::Rejected` while the
    /// global queue may still have room for other tenants.
    pub tenant_quota: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            max_admit_per_superstep: 8,
            retry_after_ms: 50,
            trace_sample: 0,
            tenant_weights: Vec::new(),
            default_tenant_weight: 1,
            tenant_quota: 0,
        }
    }
}

/// How a finished request's response reaches its client.
pub enum Responder {
    /// In-process callers: the response travels over an mpsc channel
    /// (what [`ServiceHandle::submit`] hands back).
    Channel(mpsc::Sender<WalkResponse>),
    /// The reactor listener: the callback encodes the response into a
    /// `RESP` frame and hands it to the poller thread. Runs on whatever
    /// thread resolves the request (driver or submitter), so it must be
    /// quick and non-blocking.
    Callback(Box<dyn FnOnce(WalkResponse) + Send>),
}

impl Responder {
    pub(crate) fn respond(self, resp: WalkResponse) {
        match self {
            // A dropped receiver means the client went away; nothing to
            // deliver to.
            Responder::Channel(tx) => {
                let _ = tx.send(resp);
            }
            Responder::Callback(f) => f(resp),
        }
    }
}

/// A queued request plus everything needed to answer it.
pub(crate) struct QueuedReq {
    pub(crate) tenant: String,
    pub(crate) req: WalkRequest,
    pub(crate) enqueued: Instant,
    pub(crate) responder: Responder,
}

/// A queued graph update awaiting its superstep boundary.
struct QueuedUpdate {
    batch: UpdateBatch,
    responder: Responder,
}

/// State shared between the service loop and its handles.
///
/// Lock order: `stats` → `queue` → `updates` → `wake`. A thread holding
/// one of them takes only locks to its right.
pub(crate) struct ServeShared {
    cfg: ServiceConfig,
    queue: Mutex<FairQueue>,
    updates: Mutex<VecDeque<QueuedUpdate>>,
    shutdown: AtomicBool,
    stats: Mutex<ServeStats>,
    trace: Mutex<TraceLog>,
    conns: AtomicUsize,
    /// Whether the leader is parked in [`ServeShared::wait_for_work`].
    /// Submitters read it before signalling, so a busy loop costs them a
    /// lock and no futex call.
    wake: Mutex<bool>,
    /// Signalled when a walk request, an update or a shutdown arrives
    /// while the leader is parked.
    work: Condvar,
    /// Signalled by [`ServiceHandle::shutdown`]; waited on (with `wake`)
    /// by [`ServiceHandle::wait_shutdown`].
    down: Condvar,
}

impl ServeShared {
    /// Parks the calling (leader) thread until a walk request or an
    /// update is queued or a shutdown is requested; returns at once if
    /// one already is.
    fn wait_for_work(&self) {
        loop {
            // Checked with all three locks held, `wake` last: anything
            // pushed after this check finds `wake` taken, so its signal
            // cannot fire before the wait below has released the lock —
            // no wake-up is lost, and a non-empty queue never parks.
            let queue = lock(&self.queue);
            let updates = lock(&self.updates);
            let mut parked = lock(&self.wake);
            if !queue.is_empty() || !updates.is_empty() || self.shutdown.load(Ordering::Acquire) {
                return;
            }
            drop(updates);
            drop(queue);
            *parked = true;
            parked = wait(&self.work, parked);
            *parked = false;
        }
    }

    /// Wakes the leader if it is parked.
    fn wake_leader(&self) {
        if *lock(&self.wake) {
            self.work.notify_one();
        }
    }
}

/// A clonable handle for submitting requests and steering the service.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<ServeShared>,
}

impl ServiceHandle {
    /// Submits a walk request as [`DEFAULT_TENANT`]. The response
    /// arrives on the returned channel — immediately for rejections
    /// ([`Status::Rejected`] when the queue or the tenant's quota is
    /// full, [`Status::ShuttingDown`] after shutdown), or once the walk
    /// completes, misses its deadline, or fails validation.
    pub fn submit(&self, req: WalkRequest) -> mpsc::Receiver<WalkResponse> {
        self.submit_as("", req)
    }

    /// Like [`submit`](ServiceHandle::submit), under `tenant`'s
    /// fair-queueing lane and quota (empty means [`DEFAULT_TENANT`]).
    pub fn submit_as(&self, tenant: &str, req: WalkRequest) -> mpsc::Receiver<WalkResponse> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(tenant, req, Responder::Channel(tx));
        rx
    }

    /// The responder-parameterized submit the listener uses: the
    /// response is delivered through `responder` — synchronously (before
    /// this returns) for rejections and shutdown, later from the driver
    /// otherwise.
    pub fn submit_with(&self, tenant: &str, req: WalkRequest, responder: Responder) {
        if self.is_shutdown() {
            responder.respond(WalkResponse {
                status: Status::ShuttingDown,
                paths: Vec::new(),
            });
            return;
        }
        let tenant = if tenant.is_empty() {
            DEFAULT_TENANT
        } else {
            tenant
        };
        let queued = QueuedReq {
            tenant: tenant.to_string(),
            req,
            enqueued: Instant::now(),
            responder,
        };
        let mut queue = lock(&self.shared.queue);
        match queue.push(queued) {
            // queue → wake: in order, and `wait_for_work` nests the same
            // way.
            Ok(()) => self.shared.wake_leader(),
            Err((back, why)) => {
                // Release the queue before touching stats: the lock
                // order is stats → queue → updates → wake (poll() nests
                // stats → queue), so holding queue → stats here could
                // deadlock.
                drop(queue);
                {
                    let mut stats = lock(&self.shared.stats);
                    stats.rejected += 1;
                    if why == Shed::TenantQuota {
                        stats.shed += 1;
                    }
                }
                back.responder.respond(WalkResponse {
                    status: Status::Rejected {
                        retry_after_ms: self.shared.cfg.retry_after_ms,
                    },
                    paths: Vec::new(),
                });
            }
        }
    }

    /// Submits a graph update batch. The service broadcasts it to every
    /// rank and applies it at the next superstep boundary; the response
    /// carries [`Status::Updated`] with the new graph epoch once the
    /// batch has been scheduled, [`Status::Invalid`] if it fails
    /// validation or the served graph is a static CSR, or the usual
    /// backpressure/shutdown statuses. Walkers admitted before the
    /// update keep sampling their pinned epoch.
    pub fn submit_update(&self, batch: UpdateBatch) -> mpsc::Receiver<WalkResponse> {
        let (tx, rx) = mpsc::channel();
        self.submit_update_with(batch, Responder::Channel(tx));
        rx
    }

    /// The responder-parameterized update submit (listener-side twin of
    /// [`submit_with`](ServiceHandle::submit_with)).
    pub fn submit_update_with(&self, batch: UpdateBatch, responder: Responder) {
        if self.is_shutdown() {
            responder.respond(WalkResponse {
                status: Status::ShuttingDown,
                paths: Vec::new(),
            });
            return;
        }
        let mut updates = lock(&self.shared.updates);
        if updates.len() >= self.shared.cfg.queue_capacity {
            // Same lock-order discipline as `submit_with`: never hold a
            // queue lock while taking stats.
            drop(updates);
            lock(&self.shared.stats).rejected += 1;
            responder.respond(WalkResponse {
                status: Status::Rejected {
                    retry_after_ms: self.shared.cfg.retry_after_ms,
                },
                paths: Vec::new(),
            });
            return;
        }
        updates.push_back(QueuedUpdate { batch, responder });
        self.shared.wake_leader();
    }

    /// Asks the service to drain in-flight and already-queued work, then
    /// exit. New submissions are refused from this point on. Idempotent;
    /// callable from any thread (e.g. a signal watcher).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Both waits check the flag holding `wake`, and `wake_leader`
        // passes through that lock after the store: a waiter either saw
        // the flag or is asleep by the time these signals fire.
        self.shared.wake_leader();
        self.shared.down.notify_all();
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until a shutdown has been requested (returns at once if
    /// one already was).
    pub fn wait_shutdown(&self) {
        let mut wake = lock(&self.shared.wake);
        while !self.is_shutdown() {
            wake = wait(&self.shared.down, wake);
        }
    }

    /// A snapshot of the service's counters and histograms.
    pub fn stats(&self) -> ServeStats {
        lock(&self.shared.stats).clone()
    }

    /// The flat stats snapshot served to `Request::Stats` clients and
    /// the metrics endpoint. Locks stats, the trace log, and the queue
    /// in sequence (never nested).
    pub fn report(&self) -> StatsReport {
        let stats = lock(&self.shared.stats).clone();
        let (spans, dropped) = {
            let t = lock(&self.shared.trace);
            (t.len() as u64, t.dropped())
        };
        let mut report = stats.report(spans, dropped);
        report.tenants = lock(&self.shared.queue).tenant_stats();
        report
    }

    /// A snapshot of the gathered trace log (spans from every rank).
    pub fn trace_log(&self) -> TraceLog {
        lock(&self.shared.trace).clone()
    }

    /// Listener connections currently open (used to drain writers before
    /// process exit).
    pub fn active_connections(&self) -> usize {
        self.shared.conns.load(Ordering::Acquire)
    }

    pub(crate) fn conn_opened(&self) {
        self.shared.conns.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn conn_closed(&self) {
        self.shared.conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Locks a mutex, ignoring poisoning: every guarded structure here stays
/// consistent under panic (counters and queues, no multi-step
/// invariants).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Waits on a condvar with [`lock`]'s view of poisoning.
fn wait<'a, T>(cv: &Condvar, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// The resident walk service.
pub struct WalkService {
    shared: Arc<ServeShared>,
}

impl WalkService {
    /// Creates a service and its first handle.
    pub fn new(cfg: ServiceConfig) -> (WalkService, ServiceHandle) {
        let queue = FairQueue::new(
            cfg.queue_capacity,
            cfg.tenant_quota,
            cfg.default_tenant_weight,
            &cfg.tenant_weights,
        );
        let shared = Arc::new(ServeShared {
            cfg,
            queue: Mutex::new(queue),
            updates: Mutex::new(VecDeque::new()),
            shutdown: AtomicBool::new(false),
            stats: Mutex::new(ServeStats::default()),
            trace: Mutex::new(TraceLog::default()),
            conns: AtomicUsize::new(0),
            wake: Mutex::new(false),
            work: Condvar::new(),
            down: Condvar::new(),
        });
        (
            WalkService {
                shared: shared.clone(),
            },
            ServiceHandle { shared },
        )
    }

    /// Runs the service on an in-process cluster of `cfg.n_nodes` node
    /// threads, blocking until a shutdown drains. Path recording is
    /// forced on (responses are the paths).
    ///
    /// Accepts a `&CsrGraph` (static: update submissions are refused
    /// with `Status::Invalid`) or a `&DynGraph` (live updates apply at
    /// superstep boundaries).
    ///
    /// Returns the leader node's accumulated [`WalkMetrics`].
    pub fn run<'g, P: WalkerProgram>(
        &self,
        graph: impl Into<GraphRef<'g>>,
        program: P,
        mut cfg: WalkConfig,
    ) -> WalkMetrics {
        cfg.record_paths = true;
        let n_nodes = cfg.n_nodes;
        let graph: GraphRef<'g> = graph.into();
        let engine = RandomWalkEngine::new(graph, program, cfg);
        let shared = &self.shared;
        let (mut outs, _comm) = run_cluster_with_metrics::<Msg<P>, _, _>(n_nodes, |ctx| {
            let mut ctx = ctx;
            if ctx.node == 0 {
                let mut driver = QueueDriver::new(shared.clone(), graph);
                engine.run_service(&mut ctx, Some(&mut driver))
            } else {
                engine.run_service(&mut ctx, None::<&mut NoopDriver>)
            }
        });
        self.drain_queue_shutting_down();
        outs.swap_remove(0)
    }

    /// Runs the service as the **leader rank of a real cluster** (e.g.
    /// rank 0 over a `TcpTransport` mesh). Blocks until shutdown drains.
    pub fn run_leader<'g, P: WalkerProgram, T: Transport<Msg<P>>>(
        &self,
        graph: impl Into<GraphRef<'g>>,
        program: P,
        mut cfg: WalkConfig,
        transport: &mut T,
    ) -> WalkMetrics {
        cfg.record_paths = true;
        let graph: GraphRef<'g> = graph.into();
        let engine = RandomWalkEngine::new(graph, program, cfg);
        let mut driver = QueueDriver::new(self.shared.clone(), graph);
        let metrics = engine.run_service(transport, Some(&mut driver));
        self.drain_queue_shutting_down();
        metrics
    }

    /// Runs a **non-leader rank** of a real cluster: no queue, no
    /// driver — the rank is steered entirely by the leader's broadcast
    /// directives. Call with the same graph, program, and config as the
    /// leader (the SPMD contract).
    pub fn run_worker<'g, P: WalkerProgram, T: Transport<Msg<P>>>(
        graph: impl Into<GraphRef<'g>>,
        program: P,
        mut cfg: WalkConfig,
        transport: &mut T,
    ) -> WalkMetrics {
        cfg.record_paths = true;
        let engine = RandomWalkEngine::new(graph, program, cfg);
        engine.run_service(transport, None::<&mut NoopDriver>)
    }

    /// Winds a drained service down: answers any request or update that
    /// slipped into a queue after the final poll (the submit/shutdown
    /// race window) so no client blocks on a response that will never
    /// come, then hands the engine's freed memory back to the OS.
    fn drain_queue_shutting_down(&self) {
        // Collect under the locks, respond after releasing them: a
        // callback responder may itself take service locks (e.g. a
        // stats snapshot).
        let drained: Vec<QueuedReq> = lock(&self.shared.queue).drain_all();
        for q in drained {
            q.responder.respond(WalkResponse {
                status: Status::ShuttingDown,
                paths: Vec::new(),
            });
        }
        let drained: Vec<QueuedUpdate> = lock(&self.shared.updates).drain(..).collect();
        for u in drained {
            u.responder.respond(WalkResponse {
                status: Status::ShuttingDown,
                paths: Vec::new(),
            });
        }
        release_freed_memory();
    }
}

/// Returns the pages of freed heap memory to the OS.
///
/// glibc parks freed memory in the arena of the thread that allocated it
/// and only ever trims an arena's top; a few small chunks freed on another
/// thread (and so parked in *its* cache) are enough to pin a rank thread's
/// whole arena. A host that runs services one after another in a process
/// then carries every ended service's working set: over its three service
/// lifetimes `serve_churn` peaked at 170–226 MB (EXPERIMENTS.md,
/// "Step-engine interleaving") until the wind-down trimmed, 138–148 MB
/// since. A no-op off glibc.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer, may be called from any
        // thread, and only releases pages inside chunks that are free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One admitted request awaiting completion.
struct Pending {
    tenant: String,
    base: u64,
    n: u64,
    finished: u64,
    frags: Vec<PathEntry>,
    deadline: Option<Instant>,
    enqueued: Instant,
    responder: Responder,
}

/// The leader-side [`ServeDriver`] bridging the admission queue and the
/// engine's serve loop.
pub(crate) struct QueueDriver<'g> {
    shared: Arc<ServeShared>,
    vertex_count: usize,
    /// `Some` when serving a dynamic graph: the leader validates update
    /// batches and assigns their epochs. `None` (static CSR) refuses
    /// updates with `Status::Invalid`.
    dyn_graph: Option<&'g DynGraph>,
    /// The graph epoch of the most recently scheduled update (starts at
    /// the graph's epoch at service start). Leader-authoritative: the
    /// engine applies updates at exactly these epochs, in order.
    epoch: u64,
    /// Cluster-wide minimum pinned epoch gathered from this superstep's
    /// deltas; `u64::MAX` when no node reported a live walker.
    min_pinned: u64,
    /// The last retirement watermark broadcast, so idle supersteps don't
    /// re-issue O(V) retirement sweeps.
    last_retire: u64,
    /// Next request tag; 0 is reserved for batch walkers.
    next_tag: u64,
    /// Next global walker-id base. Bases grow monotonically, so every
    /// in-flight request owns a disjoint id range.
    next_base: u64,
    pending: HashMap<u64, Pending>,
    /// Walker-id base → request tag, for routing path fragments. A
    /// fragment's owner is the greatest base at or below its walker id
    /// (checked against the request's range before accepting).
    bases: BTreeMap<u64, u64>,
    /// The latest cumulative [`LiveSample`] per node, refreshed from
    /// each superstep's deltas.
    ///
    /// [`LiveSample`]: knightking_core::LiveSample
    live_nodes: Vec<knightking_core::LiveSample>,
    /// Requests admitted so far, for trace sampling (request `k` is
    /// traced when `k % trace_sample == 0`).
    admit_seq: u64,
    /// Tags of in-flight traced requests, so their completion can end
    /// the trace on every node via `Directives::end_traces`.
    traced: Vec<u64>,
}

impl<'g> QueueDriver<'g> {
    pub(crate) fn new(shared: Arc<ServeShared>, graph: GraphRef<'g>) -> Self {
        QueueDriver {
            shared,
            vertex_count: graph.vertex_count(),
            dyn_graph: graph.dyn_graph(),
            epoch: graph.dyn_graph().map_or(0, |g| g.epoch()),
            min_pinned: u64::MAX,
            last_retire: 0,
            next_tag: 1,
            next_base: 0,
            pending: HashMap::new(),
            bases: BTreeMap::new(),
            live_nodes: Vec::new(),
            admit_seq: 0,
            traced: Vec::new(),
        }
    }

    /// Completes one request: shifts fragment ids back to request-local,
    /// reassembles paths, and responds.
    fn complete(&mut self, tag: u64, stats: &mut ServeStats) {
        let p = self.pending.remove(&tag).expect("completing a known tag");
        self.bases.remove(&p.base);
        let mut frags = p.frags;
        for e in &mut frags {
            e.walker -= p.base;
        }
        let paths = WalkResult::assemble_paths(p.n, frags);
        stats.completed += 1;
        stats
            .latency_us
            .record(p.enqueued.elapsed().as_micros() as u64);
        // stats → queue nesting matches poll()'s lock order.
        lock(&self.shared.queue).note_completed(&p.tenant);
        p.responder.respond(WalkResponse {
            status: Status::Ok,
            paths,
        });
    }

    /// Materializes and validates a request's start vertices, reusing the
    /// engine's own validation so the error names the offending vertex.
    fn materialize_starts(&self, spec: &StartSpec) -> Result<Vec<VertexId>, String> {
        let starts = match spec {
            StartSpec::Count(n) => WalkerStarts::Count(*n),
            StartSpec::Explicit(v) => WalkerStarts::Explicit(v.clone()),
        };
        starts.validate(self.vertex_count)?;
        Ok(starts.materialize(self.vertex_count))
    }
}

impl ServeDriver for QueueDriver<'_> {
    fn absorb(&mut self, node: usize, delta: ServeDelta) {
        self.min_pinned = self.min_pinned.min(delta.min_pinned);
        if self.live_nodes.len() <= node {
            self.live_nodes
                .resize(node + 1, knightking_core::LiveSample::default());
        }
        self.live_nodes[node] = delta.live;
        if !delta.spans.is_empty() {
            lock(&self.shared.trace).extend(delta.spans);
        }
        for e in delta.paths {
            // Route by id range. Fragments of killed requests find either
            // no base or a foreign range and are dropped.
            let Some((&base, &tag)) = self.bases.range(..=e.walker).next_back() else {
                continue;
            };
            if let Some(p) = self.pending.get_mut(&tag) {
                if e.walker < base + p.n {
                    p.frags.push(e);
                }
            }
        }
        for f in delta.finished {
            if let Some(p) = self.pending.get_mut(&f.tag) {
                p.finished += 1;
            }
        }
    }

    fn poll(&mut self, _superstep: u64) -> Directives {
        let mut dir = Directives::default();
        let shared = self.shared.clone();
        let mut stats = lock(&shared.stats);
        // A boundary with nothing in flight that finds nothing queued —
        // the first of a service's life, the last before its exit — is
        // not a superstep: the per-superstep series below skip it.
        let mut busy = !self.pending.is_empty();
        stats.apply_live(&self.live_nodes);
        stats.epoch = self.epoch;
        // Lag of the oldest pinned walker behind the live epoch (0 when
        // idle or fully caught up). min_pinned is this superstep's
        // gather; it resets below after retirement uses it.
        stats.pinned_lag = self.epoch - self.min_pinned.min(self.epoch);

        // Completions first: every walker of the request has landed.
        let done: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.finished >= p.n)
            .map(|(&t, _)| t)
            .collect();
        let completed_now = done.len() as u64;
        for tag in done {
            if let Some(i) = self.traced.iter().position(|&t| t == tag) {
                self.traced.swap_remove(i);
                dir.end_traces.push(tag);
            }
            self.complete(tag, &mut stats);
        }

        // Deadlines: force-terminate overdue requests. Their walkers are
        // killed engine-side; fragments already collected are dropped.
        let now = Instant::now();
        let overdue: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline.is_some_and(|d| now >= d))
            .map(|(&t, _)| t)
            .collect();
        for tag in overdue {
            let p = self.pending.remove(&tag).expect("expiring a known tag");
            self.bases.remove(&p.base);
            // Traced tags leave `traced` too: the kill directive already
            // ends span recording on every node.
            self.traced.retain(|&t| t != tag);
            dir.kill.push(tag);
            stats.deadline_exceeded += 1;
            p.responder.respond(WalkResponse {
                status: Status::DeadlineExceeded,
                paths: Vec::new(),
            });
        }

        // Updates: at most one batch per superstep, so each batch gets
        // its own epoch and every rank applies it at one well-defined
        // boundary (before that superstep's admissions). The response
        // goes out at scheduling time — the apply itself is infallible
        // once the batch validates, since validation is ownership- and
        // rank-independent.
        if let Some(u) = lock(&shared.updates).pop_front() {
            busy = true;
            let verdict = match self.dyn_graph {
                None => Err("the served graph is a static CSR and cannot take live \
                     updates; serve a dynamic graph"
                    .to_string()),
                Some(g) => g.validate(&u.batch).map_err(|e| e.to_string()),
            };
            match verdict {
                Err(msg) => {
                    u.responder.respond(WalkResponse {
                        status: Status::Invalid(msg),
                        paths: Vec::new(),
                    });
                }
                Ok(()) => {
                    self.epoch += 1;
                    dir.update = Some(EpochUpdate {
                        epoch: self.epoch,
                        batch: u.batch,
                    });
                    stats.updates += 1;
                    u.responder.respond(WalkResponse {
                        status: Status::Updated { epoch: self.epoch },
                        paths: Vec::new(),
                    });
                }
            }
        }

        // Retirement: nothing below the cluster-wide minimum pinned
        // epoch (or the live epoch, when no walker is in flight) can
        // ever be read again. Re-broadcast only when the watermark
        // advances — a retirement sweep is O(V) on every rank.
        if self.dyn_graph.is_some() {
            let watermark = self.min_pinned.min(self.epoch);
            if watermark > self.last_retire {
                dir.retire = watermark;
                self.last_retire = watermark;
            }
        }
        self.min_pinned = u64::MAX;

        // Admissions: bounded batch off the queue, in weighted
        // fair-queueing order across tenants.
        let mut queue = lock(&shared.queue);
        let depth = queue.len() as u64;
        let mut admitted_now = 0u64;
        while (admitted_now as usize) < shared.cfg.max_admit_per_superstep {
            let Some(q) = queue.pop() else { break };
            busy = true;
            if q.req.stitch {
                q.responder.respond(WalkResponse {
                    status: Status::Invalid(
                        "stitched execution was removed (serve protocol v6); resend the \
                         request with the reserved stitch byte clear"
                            .to_string(),
                    ),
                    paths: Vec::new(),
                });
                continue;
            }
            let starts = match self.materialize_starts(&q.req.starts) {
                Ok(s) => s,
                Err(msg) => {
                    q.responder.respond(WalkResponse {
                        status: Status::Invalid(msg),
                        paths: Vec::new(),
                    });
                    continue;
                }
            };
            if starts.is_empty() {
                // Zero walkers: trivially complete.
                stats.completed += 1;
                stats
                    .latency_us
                    .record(q.enqueued.elapsed().as_micros() as u64);
                queue.note_completed(&q.tenant);
                q.responder.respond(WalkResponse {
                    status: Status::Ok,
                    paths: Vec::new(),
                });
                continue;
            }
            let tag = self.next_tag;
            self.next_tag += 1;
            let base = self.next_base;
            self.next_base += starts.len() as u64;
            self.bases.insert(base, tag);
            self.pending.insert(
                tag,
                Pending {
                    tenant: q.tenant,
                    base,
                    n: starts.len() as u64,
                    finished: 0,
                    frags: Vec::new(),
                    deadline: (q.req.deadline_ms > 0)
                        .then(|| q.enqueued + Duration::from_millis(q.req.deadline_ms)),
                    enqueued: q.enqueued,
                    responder: q.responder,
                },
            );
            let trace = shared.cfg.trace_sample > 0
                && self.admit_seq.is_multiple_of(shared.cfg.trace_sample);
            self.admit_seq += 1;
            if trace {
                self.traced.push(tag);
            }
            dir.admit.push(AdmitRequest {
                tag,
                base_id: base,
                seed: q.req.seed,
                starts,
                trace,
            });
            stats.admitted += 1;
            admitted_now += 1;
        }
        stats.queue_len = queue.len() as u64;
        if busy {
            stats.supersteps += 1;
            stats.completed_per_superstep.record(completed_now);
            stats.queue_depth.record(depth);
            stats.admitted_per_superstep.record(admitted_now);
            let point = SeriesPoint {
                superstep: stats.supersteps,
                active_walkers: stats.active_walkers,
                queue_depth: stats.queue_len,
                admitted: stats.admitted,
                completed: stats.completed,
            };
            stats.series.push(point);
        }

        // Drain-then-exit: requests already queued at shutdown are still
        // admitted and finished; only new submissions are refused (the
        // handle gates those). The engine exits once no walker remains.
        dir.shutdown = shared.shutdown.load(Ordering::Acquire) && queue.is_empty();
        dir
    }

    fn wait_for_work(&mut self) {
        self.shared.wait_for_work();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_core::Walker;
    use knightking_graph::gen;

    struct Fixed(u32);

    impl WalkerProgram for Fixed {
        type Data = ();
        type Query = ();
        type Answer = ();
        const DYNAMIC: bool = false;

        fn init_data(&self, _id: u64, _start: VertexId) {}
        fn should_terminate(&self, w: &mut Walker<()>) -> bool {
            w.step >= self.0
        }
    }

    /// A boundary that finds nothing queued and nothing in flight — what
    /// a wake-up for a shutdown, or a service's very first poll, sees —
    /// leaves the per-superstep series alone; one that admits counts.
    #[test]
    fn idle_boundary_is_not_a_superstep() {
        let graph = gen::uniform_degree(96, 6, gen::GenOptions::seeded(11));
        let (service, handle) = WalkService::new(ServiceConfig::default());
        let mut driver = QueueDriver::new(service.shared.clone(), GraphRef::from(&graph));

        let dir = driver.poll(0);
        assert!(dir.admit.is_empty() && !dir.shutdown);
        let stats = handle.stats();
        assert_eq!(stats.supersteps, 0);
        assert!(stats.series.is_empty());
        assert_eq!(stats.queue_depth.count(), 0);
        assert_eq!(stats.admitted_per_superstep.count(), 0);
        assert_eq!(stats.completed_per_superstep.count(), 0);

        let _rx = handle.submit(WalkRequest {
            seed: 7,
            starts: StartSpec::Count(3),
            deadline_ms: 0,
            stitch: false,
        });
        assert_eq!(driver.poll(1).admit.len(), 1);
        // In flight now, so the next boundary counts although it admits
        // nothing.
        assert!(driver.poll(2).admit.is_empty());
        let stats = handle.stats();
        assert_eq!(stats.supersteps, 2);
        assert_eq!(stats.series.len(), 2);
        assert_eq!(stats.admitted_per_superstep.count(), 2);
    }

    /// While the leader is parked on its empty queue, the other ranks of
    /// an in-process service sleep in the barrier rather than spin on it
    /// — and the barrier still delivers them to the next request.
    /// ([`WalkService::run`] hides the node contexts, so this drives the
    /// same loop through `run_cluster_with_metrics` itself.)
    #[test]
    fn idle_in_process_ranks_park_in_the_barrier() {
        let graph = gen::uniform_degree(96, 6, gen::GenOptions::seeded(11));
        let batch = RandomWalkEngine::new(&graph, Fixed(6), WalkConfig::single_node(7))
            .run(WalkerStarts::Count(10));

        let (service, handle) = WalkService::new(ServiceConfig::default());
        let asker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            let resp = handle
                .submit(WalkRequest {
                    seed: 7,
                    starts: StartSpec::Count(10),
                    deadline_ms: 0,
                    stitch: false,
                })
                .recv()
                .expect("request after idleness answered");
            handle.shutdown();
            resp
        });

        let mut cfg = WalkConfig::with_nodes(2, 999);
        cfg.record_paths = true;
        let graph_ref = GraphRef::from(&graph);
        let engine = RandomWalkEngine::new(graph_ref, Fixed(6), cfg);
        let (parks, _comm) = run_cluster_with_metrics::<Msg<Fixed>, _, _>(2, |ctx| {
            let mut ctx = ctx;
            if ctx.node == 0 {
                let mut driver = QueueDriver::new(service.shared.clone(), graph_ref);
                engine.run_service(&mut ctx, Some(&mut driver));
            } else {
                engine.run_service(&mut ctx, None::<&mut NoopDriver>);
            }
            ctx.barrier_parks()
        });
        assert!(parks[0] > 0, "the idle worker never parked");

        let resp = asker.join().expect("asker thread");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.paths, batch.paths);
    }
}
