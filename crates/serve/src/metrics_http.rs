//! A minimal HTTP/1.1 exposition endpoint for the metrics plane.
//!
//! `kk serve --metrics-addr` binds a second listener that answers every
//! request with the Prometheus text exposition (0.0.4) rendered from the
//! service's live [`StatsReport`] — `curl http://addr/metrics` (any path
//! works; scrapers only ever GET). Hand-rolled like every other wire
//! format in the repo: no HTTP library, just enough of the protocol for
//! Prometheus, `curl`, and browsers to scrape one plaintext document per
//! connection.
//!
//! Scrapes ride the same `knightking-reactor` event loop as the serve
//! front door, which is what makes them robust against misbehaving
//! peers: a client that trickles its request head one byte at a time is
//! parsed incrementally, a reader too slow to absorb the exposition is
//! flushed under write-interest and evicted at the write deadline, and
//! a half-open socket is reaped by the idle timer — all without a
//! thread parked on any of them.
//!
//! [`StatsReport`]: crate::stats::StatsReport

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::thread;
use std::time::Duration;

use knightking_reactor::{CloseReason, ConnHandler, ConnIo, Reactor, ReactorConfig, Token};

use crate::service::ServiceHandle;

/// Longest request head accepted before the connection is dropped.
const MAX_HEAD: usize = 8192;

/// The scrape handler: accumulate the request head, answer once, close.
struct ScrapeHandler {
    service: ServiceHandle,
}

/// Finds the end of an HTTP request head (`\r\n\r\n` or bare `\n\n`),
/// returning the offset just past it.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

impl ConnHandler for ScrapeHandler {
    type Conn = ();

    fn on_open(&mut self, _token: Token, _peer: SocketAddr) {}

    fn on_data(
        &mut self,
        io_: &mut ConnIo<'_>,
        _conn: &mut (),
        input: &mut Vec<u8>,
    ) -> io::Result<()> {
        let Some(end) = head_end(input) else {
            if input.len() > MAX_HEAD {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request head exceeds 8 KiB",
                ));
            }
            return Ok(());
        };
        input.drain(..end);
        let body = self.service.report().render_prometheus();
        let header = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        io_.send(header.as_bytes());
        io_.send(body.as_bytes());
        // One exposition per connection (how Prometheus scrapes):
        // close once the buffered response has flushed.
        io_.close();
        Ok(())
    }

    fn on_close(&mut self, _token: Token, _conn: (), _reason: CloseReason) {}
}

/// Accepts scrape connections on `listener` until the service shuts
/// down, serving them all from one reactor thread. Each connection gets
/// one rendered exposition and is closed (`Connection: close`), which
/// is how Prometheus scrapes by default.
///
/// # Errors
///
/// Propagates reactor setup failures. Per-connection errors only end
/// that connection.
pub fn metrics_listener(listener: TcpListener, handle: ServiceHandle) -> io::Result<()> {
    let rcfg = ReactorConfig {
        max_connections: 256,
        idle_timeout: Duration::from_secs(5),
        write_deadline: Duration::from_secs(2),
        ..ReactorConfig::default()
    };
    let reactor = {
        let service = handle.clone();
        Reactor::new(listener, rcfg, move |_rh| ScrapeHandler { service })?
    };
    let rh = reactor.handle();
    let watcher = thread::spawn(move || {
        handle.wait_shutdown();
        rh.stop();
    });
    let res = reactor.run();
    let _ = watcher.join();
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, WalkService};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn scrape_returns_prometheus_text() {
        let (_service, handle) = WalkService::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = handle.clone();
        let t = thread::spawn(move || metrics_listener(listener, h));

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"));
        let body = resp.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("kk_requests_admitted_total 0"));
        assert!(body.contains("kk_supersteps_total 0"));
        // Content-Length matches the body exactly.
        let len: usize = resp
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());

        handle.shutdown();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn scrape_survives_one_byte_at_a_time_requests() {
        let (_service, handle) = WalkService::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = handle.clone();
        let t = thread::spawn(move || metrics_listener(listener, h));

        let mut conn = TcpStream::connect(addr).unwrap();
        for &b in b"GET / HTTP/1.1\r\n\r\n" {
            conn.write_all(&[b]).unwrap();
            conn.flush().unwrap();
        }
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("kk_supersteps_total"));

        handle.shutdown();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_scrapes_all_answered() {
        let (_service, handle) = WalkService::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = handle.clone();
        let t = thread::spawn(move || metrics_listener(listener, h));

        // Open all connections first, then send all requests: every
        // scrape is concurrently resident in the one reactor.
        let mut conns: Vec<TcpStream> =
            (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for c in &mut conns {
            c.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        }
        for mut c in conns {
            let mut resp = String::new();
            c.read_to_string(&mut resp).unwrap();
            assert!(resp.contains("kk_requests_admitted_total"), "{resp}");
        }

        handle.shutdown();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_head_drops_the_connection() {
        let (_service, handle) = WalkService::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = handle.clone();
        let t = thread::spawn(move || metrics_listener(listener, h));

        let mut conn = TcpStream::connect(addr).unwrap();
        // No blank line anywhere: the head never ends.
        let junk = vec![b'x'; MAX_HEAD + 1024];
        let _ = conn.write_all(&junk);
        let mut resp = Vec::new();
        let _ = conn.read_to_end(&mut resp);
        assert!(resp.is_empty(), "got a response to a bogus head");

        handle.shutdown();
        t.join().unwrap().unwrap();
    }
}
