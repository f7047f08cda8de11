//! The serve workloads: `serve_static` and `serve_churn`.
//!
//! A resident DeepWalk (length 20) service sits behind the real TCP
//! front door — `serve_listener_with` → reactor → listener → protocol →
//! qos → service loop — at 1 rank x 1 thread, in this process; one
//! client thread drives it over two pipelined connections (see
//! `loadgen`). Every request asks for 16 walkers (320 steps).
//!
//! Phase A offers a fixed open-loop Poisson rate and yields the latency
//! metrics; phase B keeps a fixed number of requests outstanding and
//! yields the saturated step rate. `serve_churn` serves the same graph
//! as a `DynGraph` and also sends update batches at a fixed open-loop
//! rate through both phases.

use std::net::{SocketAddr, TcpListener};
use std::time::Instant;

use knightking_core::{RandomWalkEngine, SamplerBackend, WalkConfig, WalkerStarts};
use knightking_dyn::{DynConfig, DynGraph, UpdateBatch};
use knightking_graph::CsrGraph;
use knightking_net::to_bytes;
use knightking_serve::{
    serve_listener_with, ListenerConfig, Request, ServiceConfig, ServiceHandle, WalkService,
};
use knightking_walks::DeepWalk;

use crate::inputs::{self, ChurnSource, Stream};
use crate::layers;
use crate::loadgen::{Arrival, Client, Kind, Outcome, PhaseOut, Plan, TENANTS, WALKERS};
use crate::report::{peak_rss_mb, Ctx};
use crate::span::{SpanId, ROOT};
use crate::stats::{median_f64, Samples};

const SCALE: u32 = 16;
const QUICK_SCALE: u32 = 12;
pub const WALK_LEN: u32 = 20;
/// Walk requests per second offered in phase A (both tenants together):
/// about a sixth of the rate the service sustains within the SLO.
pub const BASE_RATE: f64 = 2_000.0;
/// Update batches per second (`serve_churn`).
pub const UPDATE_RATE: f64 = 100.0;
/// Closed-loop requests kept outstanding per connection in phase B.
pub const WINDOW_PER_CONN: usize = 128;
/// Share of the measured window spent in phase A.
const PHASE_A_SHARE: f64 = 0.8;
/// Responses checked byte for byte against a batch run.
const CHECKED: usize = 32;
const SETUPS: usize = 3;

pub fn service_config(trace_sample: u64) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 4096,
        max_admit_per_superstep: 64,
        trace_sample,
        tenant_weights: TENANTS.iter().map(|&(n, w)| (n.to_string(), w)).collect(),
        ..ServiceConfig::default()
    }
}

/// The graph behind a service.
pub enum Backend {
    Static(CsrGraph),
    Dynamic(DynGraph),
}

impl Backend {
    pub fn base(&self) -> &CsrGraph {
        match self {
            Backend::Static(g) => g,
            Backend::Dynamic(d) => d.base(),
        }
    }
}

/// A running service: what the phases need to reach and stop it.
pub struct Live<'a> {
    pub handle: &'a ServiceHandle,
    pub addr: SocketAddr,
    pub client: Client,
}

/// Starts a service over `backend`, waits until it answers a request
/// through the front door, runs `body`, then shuts the service down and
/// joins its threads. Returns `body`'s result and the seconds from the
/// call to the first answer.
pub fn with_service<R>(
    backend: &Backend,
    scfg: ServiceConfig,
    wcfg: WalkConfig,
    body: impl FnOnce(&mut Live<'_>) -> R,
) -> (R, f64) {
    let begin = Instant::now();
    let (service, handle) = WalkService::new(scfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|s| {
        let front_handle = handle.clone();
        let front =
            s.spawn(move || serve_listener_with(listener, front_handle, ListenerConfig::default()));
        let service = &service;
        let runner = s.spawn(move || match backend {
            Backend::Static(g) => service.run(g, DeepWalk::new(WALK_LEN), wcfg),
            Backend::Dynamic(d) => service.run(d, DeepWalk::new(WALK_LEN), wcfg),
        });
        let mut client = Client::connect(addr).expect("connect both tenants");
        // Ready means a walk came back through the whole path.
        let probe = client.drive(&Plan {
            arrivals: vec![Arrival {
                due_ns: 0,
                conn: 0,
                kind: Kind::Walk,
                arg: 0,
            }],
            ..Plan::default()
        });
        assert_eq!(
            probe.recs[0].outcome,
            Outcome::Ok,
            "service did not answer its first request"
        );
        let ready_s = begin.elapsed().as_secs_f64();
        let mut live = Live {
            handle: &handle,
            addr,
            client,
        };
        let out = body(&mut live);
        drop(live);
        handle.shutdown();
        runner.join().expect("service thread");
        front
            .join()
            .expect("listener thread")
            .expect("listener exits cleanly");
        (out, ready_s)
    })
}

pub fn walk_config(seed: u64, sampler: SamplerBackend) -> WalkConfig {
    let mut cfg = WalkConfig::with_nodes(1, inputs::derive(seed, Stream::Engine));
    cfg.threads_per_node = 1;
    cfg.sampler = sampler;
    cfg
}

/// What one phase offers.
#[derive(Default)]
pub struct Offer {
    /// Open-loop walk requests per second (0 for none).
    pub rate: f64,
    pub seconds: f64,
    /// Closed-loop window per connection (0 for none).
    pub window_per_conn: usize,
    /// Send a `Request::Stats` every this many seconds (0 for never).
    pub stats_every: f64,
    pub keep_paths: usize,
}

/// Builds a phase's plan from the run's random streams. Walks alternate
/// at random between the two tenants (equal offered rate); updates ride
/// the first connection, whose in-order processing makes their epochs
/// increase in send order.
pub fn plan(rngs: &mut Rngs<'_>, offer: &Offer) -> Plan {
    let mut arrivals: Vec<Arrival> = Vec::new();
    if offer.rate > 0.0 {
        for due_ns in inputs::poisson_schedule(&mut rngs.arrivals, offer.rate, offer.seconds) {
            arrivals.push(Arrival {
                due_ns,
                conn: rngs.arrivals.next_bounded(TENANTS.len() as u64) as usize,
                kind: Kind::Walk,
                arg: rngs.seeds.next_u64(),
            });
        }
    }
    let mut updates = Vec::new();
    if let Some(churn) = rngs.churn.as_mut() {
        for due_ns in inputs::poisson_schedule(&mut rngs.arrivals, UPDATE_RATE, offer.seconds) {
            let batch = churn.next_batch();
            arrivals.push(Arrival {
                due_ns,
                conn: 0,
                kind: Kind::Update,
                arg: updates.len() as u64,
            });
            updates.push(to_bytes(&Request::Update(batch.clone())).expect("encode update batch"));
            rngs.sent_batches.push(batch);
        }
    }
    if offer.stats_every > 0.0 {
        let mut t = offer.stats_every;
        while t < offer.seconds {
            arrivals.push(Arrival {
                due_ns: (t * 1e9) as u64,
                conn: 1,
                kind: Kind::Stats,
                arg: 0,
            });
            t += offer.stats_every;
        }
    }
    arrivals.sort_by_key(|a| a.due_ns);
    Plan {
        arrivals,
        updates,
        window_per_conn: offer.window_per_conn,
        closed_ns: if offer.window_per_conn > 0 {
            (offer.seconds * 1e9) as u64
        } else {
            0
        },
        closed_seed: rngs.seeds.next_u64() >> 1,
        keep_paths: offer.keep_paths,
    }
}

/// The run's random streams, shared by every phase so that no two
/// phases replay the same arrivals.
pub struct Rngs<'g> {
    pub arrivals: knightking_sampling::DeterministicRng,
    pub seeds: knightking_sampling::DeterministicRng,
    pub churn: Option<ChurnSource<'g>>,
    /// Every batch planned so far, in send order.
    pub sent_batches: Vec<UpdateBatch>,
}

impl<'g> Rngs<'g> {
    /// The streams of a run's `lifetime`-th service.
    pub fn new(seed: u64, lifetime: u64, churn_on: Option<&'g CsrGraph>) -> Self {
        Rngs {
            arrivals: inputs::rng_of(seed, Stream::Arrivals, lifetime),
            seeds: inputs::rng_of(seed, Stream::RequestSeeds, lifetime),
            churn: churn_on.map(|g| ChurnSource::new(g, seed, lifetime)),
            sent_batches: Vec::new(),
        }
    }
}

/// Records a phase's per-request spans: scheduled → sent → first byte →
/// decoded, for the first requests of the phase.
pub fn record_request_spans(ctx: &mut Ctx, parent: SpanId, name: &str, out: &PhaseOut) {
    if !ctx.tracer.enabled() {
        return;
    }
    let t0 = ctx.tracer.at(out.started);
    let span = ctx.tracer.record(name, parent, t0, t0 + out.wall_ns, 0);
    for (i, r) in out.recs.iter().enumerate().take(2_000) {
        if !r.outcome.is_success() {
            continue;
        }
        let id = i as u64 + 1;
        let kind = match r.kind {
            Kind::Walk => "request.walk",
            Kind::Update => "request.update",
            Kind::Stats => "request.stats",
        };
        let req = ctx
            .tracer
            .record(kind, span, t0 + r.sched_ns, t0 + r.done_ns, id);
        ctx.tracer
            .record("loadgen.late", req, t0 + r.sched_ns, t0 + r.sent_ns, id);
        ctx.tracer
            .record("server", req, t0 + r.sent_ns, t0 + r.first_byte_ns, id);
        ctx.tracer.record(
            "client.decode",
            req,
            t0 + r.first_byte_ns,
            t0 + r.done_ns,
            id,
        );
    }
}

/// Counts a phase into the run's attempted/failed totals.
fn tally(ctx: &mut Ctx, out: &PhaseOut) {
    for kind in [Kind::Walk, Kind::Update] {
        ctx.attempted += out.of(kind).count() as u64;
        ctx.failed += out.failures(kind);
    }
}

pub fn static_graph(ctx: &mut Ctx) {
    run(ctx, false);
}

pub fn churn(ctx: &mut Ctx) {
    run(ctx, true);
}

fn build_backend(ctx: &mut Ctx, parent: SpanId, churn: bool) -> (Backend, u64) {
    let scale = if ctx.quick { QUICK_SCALE } else { SCALE };
    let begin = Instant::now();
    let graph = ctx
        .tracer
        .scope("graph.gen", parent, |_, _| inputs::graph(ctx.seed, scale));
    let gen_ns = begin.elapsed().as_nanos() as u64;
    let backend = if churn {
        ctx.tracer.scope("dyn.new", parent, |_, _| {
            Backend::Dynamic(DynGraph::new(graph, DynConfig::default()))
        })
    } else {
        Backend::Static(graph)
    };
    (backend, gen_ns)
}

/// One set-up: backend, service, listener, both client connections,
/// first answered request; then `body` on the live service. Returns
/// `body`'s result, the set-up nanoseconds and the graph-generation
/// nanoseconds.
fn set_up_and<R>(
    ctx: &mut Ctx,
    root: SpanId,
    churn: bool,
    scfg: ServiceConfig,
    wcfg: &WalkConfig,
    body: impl FnOnce(&mut Ctx, &Backend, &mut Live<'_>) -> R,
) -> (R, u64, u64) {
    let span = ctx.tracer.begin("setup", root);
    let begin = Instant::now();
    let (backend, gen_ns) = build_backend(ctx, span, churn);
    let build_s = begin.elapsed().as_secs_f64();
    let (out, ready_s) = with_service(&backend, scfg, wcfg.clone(), |live| {
        ctx.tracer.end(span);
        body(ctx, &backend, live)
    });
    (out, ((build_s + ready_s) * 1e9) as u64, gen_ns)
}

/// What one service lifetime measured.
struct Lifetime {
    /// Phase A walk latencies, from the due time.
    latencies: Samples,
    /// Phase A's p99 of each whole second.
    second_p99s: Samples,
    /// Phase B: steps answered per second once the window had filled,
    /// and per 100 ms slice.
    steps_per_s: f64,
    slices: Samples,
}

fn run(ctx: &mut Ctx, churn: bool) {
    let root = ctx.tracer.begin("workload", ROOT);
    let wcfg = walk_config(ctx.seed, SamplerBackend::default());

    // Several service lifetimes per run, the measured window shared
    // among them: set-up is timed on each, and what differs between
    // lifetimes (thread start-up, allocator state) is averaged within a
    // run rather than left to vary between runs.
    let lifetimes = if ctx.traced || ctx.quick { 1 } else { SETUPS };
    let mut setup_ns = Vec::new();
    let mut gen_ns = 0;
    let mut measured: Vec<Lifetime> = Vec::new();
    for i in 0..lifetimes {
        let (m, s, g) = set_up_and(
            ctx,
            root,
            churn,
            service_config(0),
            &wcfg,
            |ctx, backend, live| measure(ctx, root, backend, live, i as u64, lifetimes),
        );
        setup_ns.push(s);
        gen_ns = g;
        measured.push(m);
    }

    let pooled = |f: fn(&Lifetime) -> &Samples| {
        Samples::new(measured.iter().flat_map(|m| f(m).iter()).collect())
    };
    let p50s: Vec<f64> = measured.iter().map(|m| m.latencies.median()).collect();
    let latencies = pooled(|m| &m.latencies);
    ctx.put(
        "req_p50_ms",
        median_f64(&p50s) / 1e6,
        latencies.summary().scaled(1e-6),
    );
    let p99s = pooled(|m| &m.second_p99s);
    ctx.put_samples("req_p99_ms", &p99s, 1e-6);
    let rates: Vec<f64> = measured.iter().map(|m| m.steps_per_s).collect();
    ctx.put(
        "steps_per_s",
        median_f64(&rates),
        pooled(|m| &m.slices).summary().scaled(10.0),
    );
    ctx.put_samples("setup_s", &Samples::new(setup_ns), 1e-9);
    if ctx.traced {
        traced_extras(ctx, root, churn, p50s[0], gen_ns);
    }
    ctx.tracer.end(root);
    ctx.put1("peak_rss_mb", peak_rss_mb());
}

/// Phases A and B on one live service — its share of the measured
/// window — with the correctness checks and, traced, the probes that
/// need the live service.
fn measure(
    ctx: &mut Ctx,
    root: SpanId,
    backend: &Backend,
    live: &mut Live<'_>,
    lifetime: u64,
    lifetimes: usize,
) -> Lifetime {
    let base = backend.base();
    let churn = matches!(backend, Backend::Dynamic(_));
    let mut rngs = Rngs::new(ctx.seed, lifetime, churn.then_some(base));
    let a_secs = ctx.seconds * PHASE_A_SHARE / lifetimes as f64;
    let b_secs = ctx.seconds * (1.0 - PHASE_A_SHARE) / lifetimes as f64;
    let checked = CHECKED.div_ceil(lifetimes);

    // Phase A: fixed open-loop rate.
    let before = ctx.traced.then(|| layers::serve::stats_now(live));
    let plan_a = plan(
        &mut rngs,
        &Offer {
            rate: BASE_RATE,
            seconds: a_secs,
            stats_every: if ctx.traced { 0.25 } else { 0.0 },
            keep_paths: if churn { 0 } else { checked },
            ..Offer::default()
        },
    );
    let a = live.client.drive(&plan_a);
    let after = ctx.traced.then(|| layers::serve::stats_now(live));
    record_request_spans(ctx, root, "phase_a.open_loop", &a);
    tally(ctx, &a);

    // Phase B: closed loop, the window kept full.
    let plan_b = plan(
        &mut rngs,
        &Offer {
            seconds: b_secs,
            window_per_conn: WINDOW_PER_CONN,
            ..Offer::default()
        },
    );
    let b = live.client.drive(&plan_b);
    record_request_spans(ctx, root, "phase_b.closed_loop", &b);
    tally(ctx, &b);

    // Steps answered per second once the window has filled: the first
    // tenth of the phase is ramp-up.
    let warm_ns = b.offered_ns / 10;
    let steps: u64 = b
        .of(Kind::Walk)
        .filter(|r| r.outcome == Outcome::Ok && r.done_ns > warm_ns && r.done_ns <= b.offered_ns)
        .map(|r| r.steps as u64)
        .sum();
    let out = Lifetime {
        latencies: a.latencies(Kind::Walk),
        second_p99s: windowed_p99(&a, Kind::Walk),
        steps_per_s: steps as f64 / ((b.offered_ns - warm_ns) as f64 / 1e9),
        slices: steps_per_slice(&b, warm_ns, 100_000_000),
    };
    if lifetime == 0 {
        ctx.note(format!(
            "graph: twitter_like scale {}, {} vertices, {} stored edges, CSR {:.1} MB; deepwalk len {WALK_LEN}, {WALKERS} walkers/request; server 1 rank x 1 thread + reactor thread, one client thread + ticker; nproc {}; {lifetimes} service lifetime(s) per run",
            base.vertex_count().trailing_zeros(),
            base.vertex_count(),
            base.edge_count(),
            base.heap_bytes() as f64 / 1e6,
            std::thread::available_parallelism().map_or(0, |p| p.get()),
        ));
    }
    ctx.note(format!(
        "lifetime {lifetime}: phase A {} walks at {BASE_RATE} req/s open loop over {a_secs:.1} s, {} updates, p50 {:.3} ms, generator late p50 {:.0} / p99 {:.0} us; phase B {} walks with {} outstanding over {b_secs:.1} s, {:.0} steps/s",
        a.of(Kind::Walk).count(),
        a.of(Kind::Update).count(),
        out.latencies.median() / 1e6,
        a.lateness().median() / 1e3,
        a.lateness().quantile(0.99) / 1e3,
        b.of(Kind::Walk).count(),
        2 * WINDOW_PER_CONN,
        out.steps_per_s,
    ));

    // Checks.
    let span = ctx.tracer.begin("check.responses", root);
    let epochs: Vec<u64> = a
        .recs
        .iter()
        .chain(&b.recs)
        .filter_map(|r| match r.outcome {
            Outcome::Updated { epoch } => Some(epoch),
            _ => None,
        })
        .collect();
    ctx.check(epochs.windows(2).all(|w| w[0] < w[1]), || {
        "update acknowledgements do not carry strictly increasing epochs".into()
    });
    match backend {
        Backend::Static(graph) => check_against_batch(ctx, graph, &a, checked),
        Backend::Dynamic(dyn_graph) => {
            // Every update is acknowledged (the phases drained), so the
            // graph is quiet at its final epoch: fresh requests must
            // match a batch run on that epoch's materialization.
            let final_epoch = epochs.last().copied().unwrap_or(0);
            ctx.check(dyn_graph.epoch() == final_epoch, || {
                format!("graph is at epoch {} but the last acknowledged update made epoch {final_epoch}", dyn_graph.epoch())
            });
            let post = live.client.drive(&Plan {
                arrivals: (0..checked as u64)
                    .map(|i| Arrival {
                        due_ns: i * 1_000_000,
                        conn: (i % 2) as usize,
                        kind: Kind::Walk,
                        arg: rngs.seeds.next_u64(),
                    })
                    .collect(),
                keep_paths: checked,
                ..Plan::default()
            });
            tally(ctx, &post);
            let reference = dyn_graph.materialize_at(final_epoch);
            check_against_batch(ctx, &reference, &post, checked);
        }
    }
    ctx.tracer.end(span);

    if let (Some(before), Some(after)) = (before, after) {
        layers::serve::report_phase_a(ctx, &before, &after, &a);
        if let Backend::Dynamic(_) = backend {
            layers::dynamic::report_from_stats(ctx, &before.0, &after.0, &a);
            layers::dynamic::probe(ctx, root, base, &rngs.sent_batches);
        }
        layers::serve::probe(ctx, root, live, &mut rngs);
    }
    out
}

/// The p99 latency of each whole second of a phase, by due time (at the
/// base rate a second holds ~2 000 walks, 20 of them beyond its p99).
/// The metric is the median of these: one scheduling hiccup spoils one
/// second, not the run.
pub fn windowed_p99(out: &PhaseOut, kind: Kind) -> Samples {
    let seconds = (out.offered_ns / 1_000_000_000).max(1) as usize;
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); seconds];
    for r in out.of(kind).filter(|r| r.outcome.is_success()) {
        let w = ((r.sched_ns / 1_000_000_000) as usize).min(seconds - 1);
        per[w].push(r.latency_ns());
    }
    Samples::new(
        per.into_iter()
            .filter(|w| !w.is_empty())
            .map(|w| Samples::new(w).quantile(0.99) as u64)
            .collect(),
    )
}

/// Steps completed in each `slice_ns` of the closed-loop window after
/// `from_ns`.
fn steps_per_slice(out: &PhaseOut, from_ns: u64, slice_ns: u64) -> Samples {
    let slices = ((out.offered_ns.saturating_sub(from_ns)) / slice_ns) as usize;
    let mut per = vec![0u64; slices];
    for r in out
        .of(Kind::Walk)
        .filter(|r| r.outcome == Outcome::Ok && r.done_ns > from_ns)
    {
        if let Some(slot) = per.get_mut(((r.done_ns - from_ns) / slice_ns) as usize) {
            *slot += r.steps as u64;
        }
    }
    Samples::new(per)
}

/// Every kept response must equal, byte for byte, what a batch run with
/// the request's seed produces on `graph`.
fn check_against_batch(ctx: &mut Ctx, graph: &CsrGraph, out: &PhaseOut, checked: usize) {
    ctx.check(
        out.kept.len() == checked.min(out.of(Kind::Walk).count()),
        || {
            format!(
                "only {} of {checked} sampled responses were kept",
                out.kept.len()
            )
        },
    );
    let mut mismatched = 0u64;
    for (idx, paths) in &out.kept {
        let mut cfg = WalkConfig::with_nodes(1, out.recs[*idx].seed);
        cfg.threads_per_node = 1;
        let batch = RandomWalkEngine::new(graph, DeepWalk::new(WALK_LEN), cfg)
            .run(WalkerStarts::Count(WALKERS));
        mismatched += (&batch.paths != paths) as u64;
    }
    ctx.failed += mismatched;
    ctx.check(mismatched == 0, || {
        format!(
            "{mismatched} of {} sampled responses differ from a batch run with the same seed",
            out.kept.len()
        )
    });
}

/// A short phase A on a service of its own, for the traced passes that
/// need the service configured differently. Returns the phase, the
/// stats snapshots around it, and the trace log.
fn side_phase(
    ctx: &mut Ctx,
    root: SpanId,
    name: &str,
    churn: bool,
    scfg: ServiceConfig,
    wcfg: &WalkConfig,
) -> (
    PhaseOut,
    knightking_serve::StatsReport,
    knightking_serve::StatsReport,
    knightking_serve::TraceLog,
) {
    let seconds = (ctx.seconds * 0.3).max(0.5);
    let (out, _, _) = set_up_and(ctx, root, churn, scfg, wcfg, |ctx, backend, live| {
        let mut rngs = Rngs::new(ctx.seed, 0, churn.then_some(backend.base()));
        let before = layers::serve::stats_now(live).0;
        let p = plan(
            &mut rngs,
            &Offer {
                rate: BASE_RATE,
                seconds,
                ..Offer::default()
            },
        );
        let out = live.client.drive(&p);
        let after = layers::serve::stats_now(live).0;
        record_request_spans(ctx, root, name, &out);
        (out, before, after, live.handle.trace_log())
    });
    out
}

/// Traced passes on services of their own, after the measured one has
/// shut down: every request traced (span shares, tracing overhead) and,
/// for `serve_churn`, the radix sampler under the same churn.
fn traced_extras(ctx: &mut Ctx, root: SpanId, churn: bool, plain_p50_ns: f64, gen_ns: u64) {
    let wcfg = walk_config(ctx.seed, SamplerBackend::default());
    let (out, before, after, log) =
        side_phase(ctx, root, "phase_a.traced", churn, service_config(1), &wcfg);
    layers::serve::report_span_shares(ctx, &log, &before, &after, &out);
    let traced_p50 = out.latencies(Kind::Walk).median();
    ctx.put1(
        "obs.trace_overhead_share",
        (traced_p50 - plain_p50_ns) / plain_p50_ns,
    );

    if churn {
        let radix = SamplerBackend::parse("radix").expect("the radix backend exists");
        let wcfg = walk_config(ctx.seed, radix);
        let (out, before, after, _) =
            side_phase(ctx, root, "phase_a.radix", true, service_config(0), &wcfg);
        let lat = out.latencies(Kind::Walk);
        ctx.put_samples("serve.churn.req_p50_ms.radix", &lat, 1e-6);
        let p99s = windowed_p99(&out, Kind::Walk);
        ctx.put_samples("serve.churn.req_p99_ms.radix", &p99s, 1e-6);
        ctx.put1(
            "serve.churn.rebuild_cost_per_batch.radix",
            (after.sampler_rebuild_cost - before.sampler_rebuild_cost) as f64
                / (after.updates - before.updates).max(1) as f64,
        );
    }

    // Layers probed apart from any service.
    let scale = if ctx.quick { QUICK_SCALE } else { SCALE };
    let graph = inputs::graph(ctx.seed, scale);
    layers::graph::probe(ctx, root, &graph, &[gen_ns]);
    layers::sampling::probe(ctx, root, &graph);
    layers::cluster::probe(ctx, root);
    layers::reactor::probe(ctx, root);
    layers::net::probe_codec(ctx, root);
}
