//! The TCP front door: a single reactor thread bridging query clients
//! to a [`ServiceHandle`].
//!
//! Every client connection lives in `knightking-reactor`'s
//! edge-triggered event loop — one poller thread holds them all, so ten
//! thousand idle subscribers cost ten thousand slab slots, not ten
//! thousand stacks. Bytes arriving on a connection run an incremental
//! state machine (hello → frames); a complete `REQ` frame dispatches
//! into the service with a callback [`Responder`] that encodes the
//! `RESP` frame and hands it back to the poller thread, which flushes
//! it under write-interest. Requests may be pipelined; responses are
//! written as their walks finish, matched to requests by the echoed
//! sequence number.
//!
//! The per-peer rank mesh (`knightking-net`'s `TcpTransport`) stays
//! thread-per-peer: a cluster has a handful of hot peers, exactly the
//! shape blocking I/O is best at. The reactor is for the many-cold-
//! clients shape only.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use knightking_net::frame::{split_frame, tag, write_frame};
use knightking_net::{from_bytes, to_bytes};
use knightking_reactor::{
    CloseReason, ConnHandler, ConnIo, Reactor, ReactorConfig, ReactorHandle, Token,
};

use crate::protocol::{split_hello, Request, Status, WalkResponse};
use crate::service::{Responder, ServiceHandle};

/// Front-door knobs (`kk serve` flags map onto these).
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// Connections held at once; accepts beyond this are shed at the
    /// doorstep (closed before the hello) and counted.
    pub max_connections: usize,
    /// A connection with no traffic for this long is evicted.
    pub idle_timeout: Duration,
    /// A connection that cannot absorb its pending responses within
    /// this window is dropped (slow-reader protection).
    pub write_deadline: Duration,
}

impl Default for ListenerConfig {
    fn default() -> Self {
        ListenerConfig {
            max_connections: 10_000,
            idle_timeout: Duration::from_secs(60),
            write_deadline: Duration::from_secs(10),
        }
    }
}

/// Per-connection protocol position.
enum ConnState {
    /// Waiting for (the rest of) the hello.
    Hello,
    /// Hello accepted; `tenant` keys this connection's QoS lane.
    Frames { tenant: String },
}

/// Reactor-side connection state.
struct KksvConn {
    state: ConnState,
}

/// The [`ConnHandler`] speaking KKSV on the poller thread.
struct KksvHandler {
    service: ServiceHandle,
    reactor: ReactorHandle,
    /// Requests handed to the service whose responders have not yet
    /// fired, plus one hold the listener itself keeps until the service
    /// shuts down. Gates reactor shutdown — the loop must outlive every
    /// response still owed to a client: whoever drops the count to zero
    /// stops the reactor.
    inflight: Arc<AtomicUsize>,
}

/// Drops one hold on `inflight`; the last one out stops the reactor.
/// Everything owed has by then been handed to the reactor's command
/// queue or is already buffered, and `stop()` drains both.
fn release(inflight: &AtomicUsize, reactor: &ReactorHandle) {
    if inflight.fetch_sub(1, Ordering::AcqRel) == 1 {
        reactor.stop();
    }
}

/// Encodes one `RESP` frame for `resp` answering request `seq`.
fn encode_resp(seq: u64, resp: &WalkResponse) -> io::Result<Vec<u8>> {
    let payload = to_bytes(resp).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let mut out = Vec::with_capacity(payload.len() + 16);
    write_frame(&mut out, tag::RESP, seq, &payload)?;
    Ok(out)
}

impl KksvHandler {
    /// A responder that routes the response back through the reactor to
    /// `token`, tagged with request id `seq`. May fire from any thread
    /// (the driver, or synchronously from `submit_with` on rejection).
    fn responder(&self, token: Token, seq: u64) -> Responder {
        self.inflight.fetch_add(1, Ordering::AcqRel);
        let reactor = self.reactor.clone();
        let inflight = self.inflight.clone();
        Responder::Callback(Box::new(move |resp| {
            match encode_resp(seq, &resp) {
                Ok(bytes) => reactor.send(token, bytes),
                // An unencodable response can never reach this client;
                // drop the connection rather than leave it hung.
                Err(_) => reactor.close(token),
            }
            release(&inflight, &reactor);
        }))
    }

    fn dispatch(
        &mut self,
        io_: &mut ConnIo<'_>,
        tenant: &str,
        seq: u64,
        payload: &[u8],
    ) -> io::Result<()> {
        match from_bytes::<Request>(payload)? {
            Request::Walk(req) => {
                let responder = self.responder(io_.token(), seq);
                self.service.submit_with(tenant, req, responder);
            }
            Request::Update(batch) => {
                let responder = self.responder(io_.token(), seq);
                self.service.submit_update_with(batch, responder);
            }
            Request::Shutdown => {
                self.service.shutdown();
                io_.send(&encode_resp(
                    seq,
                    &WalkResponse {
                        status: Status::Ok,
                        paths: Vec::new(),
                    },
                )?);
            }
            // Answered inline off the shared stats — never queued, so a
            // saturated or draining service still reports.
            Request::Stats => {
                io_.send(&encode_resp(
                    seq,
                    &WalkResponse {
                        status: Status::Stats(Box::new(self.service.report())),
                        paths: Vec::new(),
                    },
                )?);
            }
        }
        Ok(())
    }
}

impl ConnHandler for KksvHandler {
    type Conn = KksvConn;

    fn on_open(&mut self, _token: Token, _peer: SocketAddr) -> KksvConn {
        self.service.conn_opened();
        KksvConn {
            state: ConnState::Hello,
        }
    }

    fn on_data(
        &mut self,
        io_: &mut ConnIo<'_>,
        conn: &mut KksvConn,
        input: &mut Vec<u8>,
    ) -> io::Result<()> {
        loop {
            match &conn.state {
                ConnState::Hello => match split_hello(input)? {
                    None => return Ok(()),
                    Some((tenant, used)) => {
                        input.drain(..used);
                        conn.state = ConnState::Frames { tenant };
                    }
                },
                ConnState::Frames { tenant } => match split_frame(input)? {
                    None => return Ok(()),
                    Some((frame, used)) => {
                        input.drain(..used);
                        if frame.tag != tag::REQ {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("expected a REQ frame, got tag {}", frame.tag),
                            ));
                        }
                        let tenant = tenant.clone();
                        self.dispatch(io_, &tenant, frame.seq, &frame.payload)?;
                    }
                },
            }
        }
    }

    fn on_close(&mut self, _token: Token, _conn: KksvConn, _reason: CloseReason) {
        self.service.conn_closed();
    }
}

/// Accepts query clients on `listener` with default [`ListenerConfig`],
/// serving them from one reactor thread until the service shuts down
/// and every owed response has been flushed.
///
/// # Errors
///
/// Propagates reactor setup failures (poller fd creation, listener
/// registration). Per-connection errors (bad hello, mid-stream
/// disconnect) only end that connection.
pub fn serve_listener(listener: TcpListener, handle: ServiceHandle) -> io::Result<()> {
    serve_listener_with(listener, handle, ListenerConfig::default())
}

/// [`serve_listener`] with explicit front-door limits.
///
/// Shutdown sequencing: once [`ServiceHandle::shutdown`] has been
/// called *and* every request handed to the service has had its
/// responder fire, the reactor is told to stop; it then flushes every
/// connection's pending bytes before exiting, so no client loses a
/// response it was owed.
///
/// # Errors
///
/// Propagates reactor setup failures.
pub fn serve_listener_with(
    listener: TcpListener,
    handle: ServiceHandle,
    cfg: ListenerConfig,
) -> io::Result<()> {
    let inflight = Arc::new(AtomicUsize::new(1));
    let rcfg = ReactorConfig {
        max_connections: cfg.max_connections,
        idle_timeout: cfg.idle_timeout,
        write_deadline: cfg.write_deadline,
        ..ReactorConfig::default()
    };
    let reactor = {
        let service = handle.clone();
        let inflight = inflight.clone();
        Reactor::new(listener, rcfg, move |rh| KksvHandler {
            service,
            reactor: rh,
            inflight,
        })?
    };
    let rh = reactor.handle();
    let watcher = thread::spawn(move || {
        handle.wait_shutdown();
        release(&inflight, &rh);
    });
    let res = reactor.run();
    let _ = watcher.join();
    res
}
