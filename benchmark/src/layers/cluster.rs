//! `knightking-cluster`: a run's exact message traffic, and the cost of
//! the in-process collectives on a 2-node `run_cluster`.

use std::time::Instant;

use knightking_cluster::comm::run_cluster;

use crate::report::Ctx;
use crate::span::SpanId;
use crate::stats::Samples;

/// Exact traffic of one rep, from `WalkResult.comm`.
pub fn report_counts(ctx: &mut Ctx, exchanges: u64, msgs: u64, bytes: u64, steps: u64) {
    let steps = steps.max(1) as f64;
    ctx.put1("cluster.exchanges", exchanges as f64);
    ctx.put1("cluster.msgs_per_step", msgs as f64 / steps);
    ctx.put1("cluster.bytes_per_step", bytes as f64 / steps);
}

/// The exchange workload's message: 16 bytes, like a small query.
type Msg = (u64, u64);

const ROUNDS: usize = 10;

/// Micro-loops on two node threads; node 0's timings are reported.
pub fn probe(ctx: &mut Ctx, parent: SpanId) {
    let span = ctx.tracer.begin("layers.cluster", parent);
    let per_peer = 4_096usize;
    let exchanges = 20usize;
    let collectives = 2_000usize;
    let out = run_cluster::<Msg, _, _>(2, |ctx| {
        let me = ctx.node as u64;
        let mut exchange_ns = Vec::new();
        let mut barrier_ns = Vec::new();
        let mut allreduce_ns = Vec::new();
        for _ in 0..ROUNDS {
            ctx.barrier();
            let begin = Instant::now();
            for round in 0..exchanges {
                let outbox: Vec<Vec<Msg>> = (0..2)
                    .map(|_| {
                        (0..per_peer)
                            .map(|i| (me, (round * per_peer + i) as u64))
                            .collect()
                    })
                    .collect();
                let (inbox, _) = ctx.exchange_with_stats(outbox, |_| 16);
                assert_eq!(inbox.len(), 2 * per_peer, "exchange lost messages");
            }
            // Messages this node handled per round: 2 x per_peer sent.
            exchange_ns
                .push(begin.elapsed().as_nanos() as u64 * 10 / (exchanges * 2 * per_peer) as u64);
            let begin = Instant::now();
            for _ in 0..collectives {
                ctx.barrier();
            }
            barrier_ns.push(begin.elapsed().as_nanos() as u64 / collectives as u64);
            let begin = Instant::now();
            let mut acc = 0u64;
            for i in 0..collectives {
                acc += ctx.allreduce_sum(i as u64);
            }
            std::hint::black_box(acc);
            allreduce_ns.push(begin.elapsed().as_nanos() as u64 / collectives as u64);
        }
        (exchange_ns, barrier_ns, allreduce_ns)
    });
    let (exchange_ns, barrier_ns, allreduce_ns) = out.into_iter().next().expect("node 0's timings");
    let s = Samples::new(exchange_ns);
    ctx.put_samples("cluster.inproc_exchange_ns_per_msg", &s, 0.1);
    let s = Samples::new(barrier_ns);
    ctx.put_samples("cluster.barrier_us", &s, 1e-3);
    let s = Samples::new(allreduce_ns);
    ctx.put_samples("cluster.allreduce_us", &s, 1e-3);
    ctx.tracer.end(span);
}
