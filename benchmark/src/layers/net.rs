//! `knightking-net`: the `Wire` codec on walkers, frame write and split,
//! and the TCP transport over loopback (bulk exchange, empty-exchange
//! round trip, mesh establishment).

use std::hint::black_box;
use std::time::Instant;

use knightking_core::Walker;
use knightking_net::frame::{split_frame, tag, write_frame};
use knightking_net::{
    from_bytes, reserve_loopback_addrs, to_bytes, TcpConfig, TcpTransport, Transport, Wire,
};

use super::{time_per_call, TENTHS};
use crate::report::Ctx;
use crate::span::SpanId;
use crate::stats::Samples;

/// Bulk-exchange message: 16 wire bytes.
type Msg = (u64, u64);

/// Both ranks of a loopback TCP mesh, established side by side.
pub fn establish_pair(epoch: u64) -> (TcpTransport, TcpTransport) {
    let peers = reserve_loopback_addrs(2).expect("reserve loopback ports");
    let p1 = peers.clone();
    std::thread::scope(|s| {
        let h = s.spawn(move || {
            TcpTransport::establish(TcpConfig::new(1, p1, epoch)).expect("establish rank 1")
        });
        let t0 =
            TcpTransport::establish(TcpConfig::new(0, peers, epoch)).expect("establish rank 0");
        (t0, h.join().expect("rank 1 establish thread"))
    })
}

/// Rank-local body of the TCP micro-loops; returns
/// (ns per bulk round, ns per empty round).
fn drive(
    t: &mut TcpTransport,
    bulk_rounds: usize,
    per_peer: usize,
    empty_rounds: usize,
) -> (Vec<u64>, Vec<u64>) {
    let me = Transport::<Msg>::node(t) as u64;
    let mut bulk = Vec::new();
    let mut empty = Vec::new();
    for _ in 0..5 {
        Transport::<Msg>::barrier(t);
        let begin = Instant::now();
        for round in 0..bulk_rounds {
            let outbox: Vec<Vec<Msg>> = (0..2)
                .map(|_| {
                    (0..per_peer)
                        .map(|i| (me, (round * per_peer + i) as u64))
                        .collect()
                })
                .collect();
            let (inbox, _) = t.exchange_with_stats(outbox, &|m: &Msg| m.wire_size());
            assert_eq!(inbox.len(), 2 * per_peer, "exchange lost messages");
        }
        bulk.push(begin.elapsed().as_nanos() as u64 / bulk_rounds as u64);
        let begin = Instant::now();
        for _ in 0..empty_rounds {
            let (inbox, _) = t
                .exchange_with_stats(vec![Vec::<Msg>::new(), Vec::new()], &|m: &Msg| {
                    m.wire_size()
                });
            black_box(inbox);
        }
        empty.push(begin.elapsed().as_nanos() as u64 / empty_rounds as u64);
    }
    (bulk, empty)
}

/// Codec and TCP transport: the layers a distributed batch run crosses.
pub fn probe(ctx: &mut Ctx, parent: SpanId) {
    probe_codec(ctx, parent);
    probe_tcp(ctx, parent);
}

/// `Wire` and frames only — all of this crate that the serve tier's
/// front door uses (its sockets belong to the reactor).
pub fn probe_codec(ctx: &mut Ctx, parent: SpanId) {
    let span = ctx.tracer.begin("layers.net.codec", parent);

    // Wire: a migrating walker (id, position, step, tag, epoch and the
    // full xoshiro state) is the engine's bulk message.
    let walkers: Vec<Walker<()>> = (0..4_096u64)
        .map(|i| Walker::new(i, i as u32, 7, ()))
        .collect();
    let n = walkers.len();
    let bytes = to_bytes(&walkers).expect("encode walkers");
    let s = time_per_call(10, 200, || {
        black_box(to_bytes(black_box(&walkers)).expect("encode walkers"));
    });
    let k = TENTHS / n as f64;
    ctx.put_samples("net.wire.encode_ns_per_msg", &s, k);
    let s = time_per_call(10, 200, || {
        black_box(from_bytes::<Vec<Walker<()>>>(black_box(&bytes)).expect("decode walkers"));
    });
    ctx.put_samples("net.wire.decode_ns_per_msg", &s, k);

    // Frames at the size of a served response (16 paths x 21 vertices).
    let payload = vec![0xA5u8; 1_408];
    let mut buf = Vec::with_capacity(2_048);
    let s = time_per_call(10, 1_000_000, || {
        buf.clear();
        write_frame(&mut buf, tag::RESP, 9, black_box(&payload)).expect("frame");
    });
    ctx.put_samples("net.frame.write_ns", &s, TENTHS);
    let s = time_per_call(10, 1_000_000, || {
        black_box(split_frame(black_box(&buf)).expect("split"));
    });
    ctx.put_samples("net.frame.split_ns", &s, TENTHS);
    ctx.tracer.end(span);
}

/// Mesh establishment, then 1 MiB outboxes and empty exchanges.
fn probe_tcp(ctx: &mut Ctx, parent: SpanId) {
    let span = ctx.tracer.begin("layers.net.tcp", parent);
    let mut establish = Vec::new();
    let mut pair = None;
    for i in 0..5 {
        drop(pair.take());
        let begin = Instant::now();
        pair = Some(establish_pair(0x4E47 + i));
        establish.push(begin.elapsed().as_nanos() as u64);
    }
    let s = Samples::new(establish);
    ctx.put_samples("net.tcp.establish_ms", &s, 1e-6);
    let (mut t0, mut t1) = pair.expect("five meshes were established");
    let per_peer = (1 << 20) / 16;
    let (bulk, empty) = std::thread::scope(|s| {
        let h = s.spawn(|| drive(&mut t1, 8, per_peer, 500));
        let out = drive(&mut t0, 8, per_peer, 500);
        h.join().expect("rank 1 micro-loop");
        out
    });
    // Each round moves 1 MiB in each direction between the two ranks.
    let to_mb_s = |ns: f64| 2.0 * (per_peer * 16) as f64 / 1e6 / (ns / 1e9);
    let s = Samples::new(bulk);
    ctx.put(
        "net.tcp.exchange_mb_s",
        to_mb_s(s.median()),
        s.summary().map(to_mb_s),
    );
    let s = Samples::new(empty);
    ctx.put_samples("net.tcp.small_rtt_us", &s, 1e-3);
    ctx.tracer.end(span);
}
