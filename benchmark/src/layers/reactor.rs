//! `knightking-reactor`: the event loop alone, under a trivial echo
//! handler — what a round trip and a fresh connection cost before any
//! protocol or service is attached.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

use knightking_reactor::{CloseReason, ConnHandler, ConnIo, Reactor, ReactorConfig, Token};

use crate::report::Ctx;
use crate::span::SpanId;
use crate::stats::Samples;

struct Echo;

impl ConnHandler for Echo {
    type Conn = ();

    fn on_open(&mut self, _token: Token, _peer: SocketAddr) {}

    fn on_data(
        &mut self,
        io: &mut ConnIo<'_>,
        _conn: &mut (),
        input: &mut Vec<u8>,
    ) -> io::Result<()> {
        io.send(input);
        input.clear();
        Ok(())
    }

    fn on_close(&mut self, _token: Token, _conn: (), _reason: CloseReason) {}
}

const ROUND_TRIPS: usize = 20_000;
const CONNECTS: usize = 1_000;

pub fn probe(ctx: &mut Ctx, parent: SpanId) {
    let span = ctx.tracer.begin("layers.reactor", parent);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
    let addr = listener.local_addr().expect("echo address");
    let reactor =
        Reactor::new(listener, ReactorConfig::default(), |_| Echo).expect("start echo reactor");
    let handle = reactor.handle();
    std::thread::scope(|s| {
        let looper = s.spawn(move || reactor.run());

        // One connection, closed loop, 64-byte messages.
        let mut stream = TcpStream::connect(addr).expect("connect to echo");
        stream.set_nodelay(true).expect("nodelay");
        let msg = [0x5Au8; 64];
        let mut back = [0u8; 64];
        let mut rtt = Vec::with_capacity(ROUND_TRIPS);
        for _ in 0..ROUND_TRIPS {
            let begin = Instant::now();
            stream.write_all(&msg).expect("echo write");
            stream.read_exact(&mut back).expect("echo read");
            rtt.push(begin.elapsed().as_nanos() as u64);
        }
        drop(stream);
        let s = Samples::new(rtt);
        ctx.put_samples("reactor.echo_rtt_us.p50", &s, 1e-3);
        ctx.put(
            "reactor.echo_rtt_us.p99",
            s.quantile(0.99) / 1e3,
            s.summary().scaled(1e-3),
        );

        // Sequential fresh connections: connect, first byte echoed back
        // (accept + registration + first dispatch), minus nothing — the
        // echo round trip above is the part that is not accept.
        let mut accept = Vec::with_capacity(CONNECTS);
        for _ in 0..CONNECTS {
            let begin = Instant::now();
            let mut c = TcpStream::connect(addr).expect("connect to echo");
            c.set_nodelay(true).expect("nodelay");
            c.write_all(&[1]).expect("first byte");
            c.read_exact(&mut back[..1]).expect("first echo");
            accept.push(begin.elapsed().as_nanos() as u64);
        }
        let s = Samples::new(accept);
        ctx.put_samples("reactor.accept_us", &s, 1e-3);

        handle.stop();
        looper
            .join()
            .expect("echo reactor thread")
            .expect("echo reactor exits cleanly");
    });
    ctx.tracer.end(span);
}
