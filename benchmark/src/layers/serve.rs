//! `knightking-serve` (listener, protocol, qos, service): the counters
//! `kk top` shows, read as `Request::Stats` deltas over phase A; the
//! floor of a round trip with and without the front door; the protocol
//! codec; the highest rate inside the SLO; and behaviour under twice
//! that rate.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use knightking_net::{from_bytes, to_bytes};
use knightking_serve::{
    protocol, Request, StartSpec, StatsReport, Status, TraceLog, WalkRequest, WalkResponse,
};

use super::{time_per_call, TENTHS};
use crate::loadgen::{Kind, Outcome, PhaseOut, WALKERS};
use crate::report::{rss_mb, Ctx};
use crate::serve::{plan, Live, Offer, Rngs};
use crate::span::SpanId;
use crate::stats::Samples;

/// The latency limit on p99 that `rate_at_slo_rps` is defined by.
pub const SLO_MS: f64 = 25.0;
/// Bisection range for `rate_at_slo_rps`, requests per second.
pub const RATE_RANGE: (f64, f64) = (1_000.0, 64_000.0);
const BISECTION_PROBES: usize = 6;

/// A `Request::Stats` snapshot over its own short-lived connection, and
/// when it was taken.
pub fn stats_now(live: &mut Live<'_>) -> (StatsReport, Instant) {
    let mut stream = protocol::connect(live.addr).expect("connect for stats");
    let resp = protocol::round_trip(&mut stream, 1, &Request::Stats).expect("stats round trip");
    match resp.status {
        Status::Stats(report) => (*report, Instant::now()),
        other => panic!("stats request answered {other:?}"),
    }
}

/// Rows read off phase A: server counters as deltas between the two
/// snapshots, gauges from the periodic in-phase snapshots, and the
/// generator's own health.
pub fn report_phase_a(
    ctx: &mut Ctx,
    before: &(StatsReport, Instant),
    after: &(StatsReport, Instant),
    a: &PhaseOut,
) {
    let dt = after.1.duration_since(before.1).as_secs_f64();
    let (b, e) = (&before.0, &after.0);
    let supersteps = (e.supersteps - b.supersteps).max(1) as f64;
    ctx.put1("serve.supersteps_per_s", supersteps / dt);
    ctx.put1("serve.superstep_ms", dt * 1e3 / supersteps);
    ctx.put1(
        "serve.admitted_per_superstep",
        (e.admitted - b.admitted) as f64 / supersteps,
    );
    ctx.put1("serve.steps_per_s", (e.steps - b.steps) as f64 / dt);
    ctx.put1(
        "serve.server_latency_mean_ms",
        (e.latency_sum_us - b.latency_sum_us) as f64
            / (e.latency_count - b.latency_count).max(1) as f64
            / 1e3,
    );
    let queue = Samples::new(a.stats.iter().map(|s| s.queue_len).collect());
    ctx.put("serve.queue_len_max", queue.max() as f64, queue.summary());
    let active = Samples::new(a.stats.iter().map(|s| s.active_walkers).collect());
    ctx.put("serve.active_walkers_mean", active.mean(), active.summary());

    let walks = a.latencies(Kind::Walk);
    ctx.put(
        "serve.req_p999_ms",
        walks.quantile(0.999) / 1e6,
        walks.summary().scaled(1e-6),
    );
    let updates = a.latencies(Kind::Update);
    if !updates.is_empty() {
        ctx.put_samples("serve.update_p50_ms", &updates, 1e-6);
        // ~600 acknowledgements: p99 has 6 beyond it, so it is shown but
        // the trustworthy tail is `tail()`'s p90.
        ctx.put(
            "serve.update_p99_ms",
            updates.quantile(0.99) / 1e6,
            updates.summary().scaled(1e-6),
        );
        let (q, v) = updates.tail();
        ctx.note(format!(
            "serve: update acks n={}, highest percentile with 10 samples beyond it is p{} = {:.3} ms",
            updates.len(),
            q * 100.0,
            v / 1e6
        ));
    }
    let bytes = Samples::new(
        a.of(Kind::Walk)
            .filter(|r| r.outcome == Outcome::Ok)
            .map(|r| r.resp_bytes as u64)
            .collect(),
    );
    ctx.put("serve.resp_bytes_per_req", bytes.mean(), bytes.summary());

    let late = a.lateness();
    ctx.put(
        "loadgen.late_p99_us",
        late.quantile(0.99) / 1e3,
        late.summary().scaled(1e-3),
    );
    ctx.put1("loadgen.sent", a.recs.len() as f64);
    ctx.put1("loadgen.outstanding_max", a.outstanding_max as f64);
}

/// The verdict on one open-loop probe.
struct Probe {
    rate: f64,
    p99_ms: f64,
    fail_share: f64,
    late_p90_us: f64,
    growing: bool,
}

impl Probe {
    /// A probe whose generator ran a millisecond late measured the
    /// client, not the server. Judged at p90: a generator that cannot
    /// keep up falls behind on most sends, whereas the scheduler of a
    /// two-core box delays a percent of the client's wake-ups by a
    /// timeslice whatever the rate (`loadgen.late_p99_us` shows that).
    fn void(&self) -> bool {
        self.late_p90_us >= 1_000.0
    }

    fn pass(&self) -> bool {
        !self.void() && self.p99_ms <= SLO_MS && self.fail_share <= 0.001 && !self.growing
    }
}

fn probe_rate(
    ctx: &mut Ctx,
    parent: SpanId,
    live: &mut Live<'_>,
    rngs: &mut Rngs<'_>,
    rate: f64,
    seconds: f64,
) -> (Probe, PhaseOut) {
    let p = plan(
        rngs,
        &Offer {
            rate,
            seconds,
            ..Offer::default()
        },
    );
    let out = live.client.drive(&p);
    crate::serve::record_request_spans(ctx, parent, &format!("probe.{rate:.0}rps"), &out);
    let sent = out.of(Kind::Walk).count().max(1) as f64;
    // Failures count as missing the SLO: the p99 is taken over every
    // request sent, a failed one standing at the drain cap.
    let mut lat: Vec<u64> = out
        .of(Kind::Walk)
        .map(|r| {
            if r.outcome == Outcome::Ok {
                r.latency_ns()
            } else {
                crate::loadgen::DRAIN_CAP.as_nanos() as u64
            }
        })
        .collect();
    lat.sort_unstable();
    let p99 = lat[((lat.len() - 1) as f64 * 0.99) as usize];
    let probe = Probe {
        rate,
        p99_ms: p99 as f64 / 1e6,
        fail_share: out.failures(Kind::Walk) as f64 / sent,
        late_p90_us: out.lateness().quantile(0.9) / 1e3,
        growing: out.outstanding_end as f64 > out.outstanding_mid as f64 + 0.01 * sent,
    };
    (probe, out)
}

/// Probes on the live service, after the measured phases.
pub fn probe(ctx: &mut Ctx, root: SpanId, live: &mut Live<'_>, rngs: &mut Rngs<'_>) {
    let span = ctx.tracer.begin("layers.serve", root);

    // Round-trip floor on an idle service: one walker, one request at a
    // time. In process, then through the front door; the difference is
    // listener + reactor + protocol.
    let one = || WalkRequest {
        seed: 1,
        starts: StartSpec::Count(1),
        deadline_ms: 0,
        stitch: false,
    };
    let inproc: Vec<u64> = (0..200)
        .map(|_| {
            let begin = Instant::now();
            let resp = live.handle.submit(one()).recv().expect("service answers");
            assert_eq!(resp.status, Status::Ok);
            begin.elapsed().as_nanos() as u64
        })
        .collect();
    let s = Samples::new(inproc);
    ctx.put_samples("serve.min_rtt_us.inproc", &s, 1e-3);
    let mut stream = protocol::connect(live.addr).expect("connect for round trips");
    let tcp: Vec<u64> = (0..200)
        .map(|i| {
            let begin = Instant::now();
            let resp = protocol::round_trip(&mut stream, i + 1, &Request::Walk(one()))
                .expect("round trip");
            assert_eq!(resp.status, Status::Ok);
            begin.elapsed().as_nanos() as u64
        })
        .collect();
    drop(stream);
    let s = Samples::new(tcp);
    ctx.put_samples("serve.min_rtt_us.tcp", &s, 1e-3);

    // Protocol codec at the workload's shapes.
    let req = Request::Walk(WalkRequest {
        seed: 7,
        starts: StartSpec::Count(WALKERS),
        deadline_ms: 0,
        stitch: false,
    });
    let s = time_per_call(10, 1_000_000, || {
        black_box(to_bytes(black_box(&req)).expect("encode request"));
    });
    ctx.put_samples("serve.protocol.req_encode_ns", &s, TENTHS);
    let resp = to_bytes(&WalkResponse {
        status: Status::Ok,
        paths: (0..WALKERS as u32).map(|w| (w..w + 21).collect()).collect(),
    })
    .expect("encode response");
    let s = time_per_call(10, 200_000, || {
        black_box(from_bytes::<WalkResponse>(black_box(&resp)).expect("decode response"));
    });
    ctx.put_samples("serve.protocol.resp_decode_ns", &s, TENTHS);

    // Highest rate inside the SLO: geometric bisection, each probe an
    // open-loop window drained to zero before the next.
    let probe_s = (ctx.seconds * 0.15).max(0.5);
    let (mut lo, mut hi) = RATE_RANGE;
    let mut passed_any = false;
    for _ in 0..BISECTION_PROBES {
        let rate = (lo * hi).sqrt();
        let (p, _) = probe_rate(ctx, span, live, rngs, rate, probe_s);
        ctx.note(format!(
            "serve: probe {:.0} req/s: p99 {:.2} ms, fail {:.4}, late p90 {:.0} us, backlog {}{} -> {}",
            p.rate,
            p.p99_ms,
            p.fail_share,
            p.late_p90_us,
            if p.growing { "growing" } else { "flat" },
            if p.void() { ", VOID" } else { "" },
            if p.pass() { "pass" } else { "fail" },
        ));
        if p.pass() {
            lo = rate;
            passed_any = true;
        } else {
            hi = rate;
        }
    }
    if !passed_any {
        ctx.note("serve: no probed rate met the SLO; rate_at_slo_rps reads the range's lower end");
    }
    ctx.put1("serve.rate_at_slo_rps", lo);

    // Twice that rate: the overload path must shed, not grow.
    let rss_before = rss_mb();
    let (_, out) = probe_rate(ctx, span, live, rngs, 2.0 * lo, probe_s.max(1.0));
    let sent = out.of(Kind::Walk).count().max(1) as f64;
    let shed = out
        .of(Kind::Walk)
        .filter(|r| r.outcome == Outcome::Rejected)
        .count() as f64;
    ctx.put1("serve.shed_share_overload", shed / sent);
    let ok = || out.of(Kind::Walk).filter(|r| r.outcome == Outcome::Ok);
    let within = ok()
        .filter(|r| r.latency_ns() as f64 <= SLO_MS * 1e6)
        .count() as f64;
    ctx.put1(
        "serve.goodput_rps_overload",
        within / (out.offered_ns as f64 / 1e9),
    );
    // Connection 0 is tenant `gold` (weight 4 of 5).
    let gold = ok().filter(|r| r.conn == 0).count() as f64;
    ctx.put1(
        "serve.qos.gold_share_overload",
        gold / ok().count().max(1) as f64,
    );
    ctx.put1(
        "serve.rss_growth_mb_overload",
        (rss_mb() - rss_before).max(0.0),
    );
    ctx.tracer.end(span);
}

/// Where a traced request's time went, as shares of the client-side
/// mean latency: waiting in the admission queue, stepping, and the
/// front door (request in, response out).
pub fn report_span_shares(
    ctx: &mut Ctx,
    log: &TraceLog,
    before: &StatsReport,
    after: &StatsReport,
    a: &PhaseOut,
) {
    let mut admit: BTreeMap<u64, u64> = BTreeMap::new();
    let mut complete: BTreeMap<u64, u64> = BTreeMap::new();
    for s in log.spans() {
        match s.kind.name() {
            "admit" => {
                admit
                    .entry(s.trace)
                    .and_modify(|t| *t = (*t).min(s.ts_us))
                    .or_insert(s.ts_us);
            }
            "complete" => {
                complete
                    .entry(s.trace)
                    .and_modify(|t| *t = (*t).max(s.ts_us))
                    .or_insert(s.ts_us);
            }
            _ => {}
        }
    }
    let stepping: Vec<u64> = admit
        .iter()
        .filter_map(|(id, &a)| complete.get(id).map(|&c| c.saturating_sub(a)))
        .collect();
    let stepping = Samples::new(stepping);
    let client_us = a.latencies(Kind::Walk).mean() / 1e3;
    let server_us = (after.latency_sum_us - before.latency_sum_us) as f64
        / (after.latency_count - before.latency_count).max(1) as f64;
    let step_us = stepping.mean();
    ctx.put1(
        "serve.span.queue_wait_share",
        ((server_us - step_us) / client_us).max(0.0),
    );
    ctx.put(
        "serve.span.supersteps_share",
        step_us / client_us,
        stepping.summary().scaled(1.0 / client_us),
    );
    ctx.put1(
        "serve.span.respond_share",
        ((client_us - server_us) / client_us).max(0.0),
    );
    ctx.note(format!(
        "serve: traced requests n={} (log dropped {} spans); mean latency client {client_us:.0} us, server {server_us:.0} us, stepping {step_us:.0} us",
        stepping.len(),
        log.dropped(),
    ));
}
