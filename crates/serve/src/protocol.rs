//! The serve request/response protocol.
//!
//! Rides on `knightking-net`'s frame layer: after the client hello
//! ([`SERVE_MAGIC`] + [`SERVE_VERSION`] + a tenant id), every request
//! travels as one `REQ` frame whose sequence number is a client-chosen
//! request id, and every response as one `RESP` frame echoing that id.
//! Payloads use the same hand-rolled [`Wire`] codec as every other byte
//! that crosses a KnightKing socket.
//!
//! The hello exists so a serve listener can immediately distinguish a
//! query client from a stray cluster peer (whose handshake starts with
//! `KKNT`) and fail with a clear error instead of a frame-decode panic.
//! Since version 4 it also names the client's **tenant** — the identity
//! per-tenant fair queueing and quotas key on ([`connect_as`]); clients
//! that name none land in [`DEFAULT_TENANT`].

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use knightking_dyn::UpdateBatch;
use knightking_graph::VertexId;
use knightking_net::frame::{read_frame, tag, write_frame};
use knightking_net::{from_bytes, to_bytes, Wire, WireError};

use crate::stats::StatsReport;

/// First four bytes a query client sends ("KnightKing SerVe").
pub const SERVE_MAGIC: [u8; 4] = *b"KKSV";

/// Serve-protocol version, bumped on any wire change. Version 2 added
/// [`Request::Update`] and [`Status::Updated`]; version 3 added
/// [`Request::Stats`] and [`Status::Stats`]; version 4 added the tenant
/// id to the hello and per-tenant counters to [`StatsReport`]; version 5
/// added stitched (segment-pool) execution; version 6 removed it again —
/// [`WalkRequest::stitch`] became a reserved byte, `Status` tag 7 and the
/// three stitch counters of [`StatsReport`] went away.
pub const SERVE_VERSION: u16 = 6;

/// Longest tenant id a hello may carry.
pub const MAX_TENANT_LEN: usize = 64;

/// The tenant requests fall under when the hello names none.
pub const DEFAULT_TENANT: &str = "default";

/// Checks a tenant id: at most [`MAX_TENANT_LEN`] bytes of
/// `[A-Za-z0-9._-]` (empty is allowed and means [`DEFAULT_TENANT`]).
///
/// # Errors
///
/// Fails with `InvalidInput` naming the violation.
pub fn validate_tenant(tenant: &str) -> io::Result<()> {
    if tenant.len() > MAX_TENANT_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "tenant id of {} bytes exceeds the {MAX_TENANT_LEN}-byte limit",
                tenant.len()
            ),
        ));
    }
    if let Some(b) = tenant
        .bytes()
        .find(|b| !(b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-')))
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("tenant id contains byte {b:#04x}; only [A-Za-z0-9._-] is allowed"),
        ));
    }
    Ok(())
}

/// Encodes the client hello: magic, version, and a length-prefixed
/// tenant id.
///
/// # Errors
///
/// Fails with `InvalidInput` when the tenant id is invalid.
pub fn hello_bytes(tenant: &str) -> io::Result<Vec<u8>> {
    validate_tenant(tenant)?;
    let mut out = Vec::with_capacity(7 + tenant.len());
    out.extend_from_slice(&SERVE_MAGIC);
    out.extend_from_slice(&SERVE_VERSION.to_le_bytes());
    out.push(tenant.len() as u8);
    out.extend_from_slice(tenant.as_bytes());
    Ok(out)
}

/// Tries to split one hello off the front of `buf` — the listener-side
/// incremental parser. Returns the (normalized) tenant plus the bytes
/// consumed, or `None` when the hello is still incomplete. An empty
/// tenant id normalizes to [`DEFAULT_TENANT`].
///
/// # Errors
///
/// Fails with `InvalidData` on a bad magic (likely a stray cluster
/// peer), an unsupported version, or a malformed tenant id.
pub fn split_hello(buf: &[u8]) -> io::Result<Option<(String, usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    if buf[0..4] != SERVE_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a serve client: bad hello magic (is this a cluster peer?)",
        ));
    }
    if buf.len() < 7 {
        return Ok(None);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != SERVE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("serve protocol version {version} not supported (want {SERVE_VERSION})"),
        ));
    }
    let n = buf[6] as usize;
    if n > MAX_TENANT_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("tenant id of {n} bytes exceeds the {MAX_TENANT_LEN}-byte limit"),
        ));
    }
    if buf.len() < 7 + n {
        return Ok(None);
    }
    let tenant = std::str::from_utf8(&buf[7..7 + n])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "tenant id is not UTF-8"))?;
    validate_tenant(tenant).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let tenant = if tenant.is_empty() {
        DEFAULT_TENANT.to_string()
    } else {
        tenant.to_string()
    };
    Ok(Some((tenant, 7 + n)))
}

/// Where a request's walkers start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartSpec {
    /// `n` walkers placed by the engine's default strategy (walker `i`
    /// starts at vertex `i mod |V|`), matching `WalkerStarts::Count`.
    Count(u64),
    /// Explicit start vertices; walker `i` starts at `starts[i]`.
    Explicit(Vec<VertexId>),
}

impl Wire for StartSpec {
    fn wire_size(&self) -> usize {
        1 + match self {
            StartSpec::Count(n) => n.wire_size(),
            StartSpec::Explicit(v) => v.wire_size(),
        }
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            StartSpec::Count(n) => {
                out.push(0);
                n.encode(out)
            }
            StartSpec::Explicit(v) => {
                out.push(1);
                v.encode(out)
            }
        }
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        match u8::decode(input)? {
            0 => Ok(StartSpec::Count(u64::decode(input)?)),
            1 => Ok(StartSpec::Explicit(Vec::decode(input)?)),
            b => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire: invalid StartSpec tag {b}"),
            )),
        }
    }
}

/// One walk query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkRequest {
    /// Per-request seed: the served paths are byte-identical to a batch
    /// run with this seed and the same starts.
    pub seed: u64,
    /// Start placement.
    pub starts: StartSpec,
    /// Deadline in milliseconds from admission-queue entry; `0` means
    /// none. An expired request's walkers are force-terminated and the
    /// response carries [`Status::DeadlineExceeded`].
    pub deadline_ms: u64,
    /// Reserved: once asked for stitched (segment-pool) execution, which
    /// was removed. The byte stays on the wire and must be `false`; a
    /// request that sets it is answered [`Status::Invalid`].
    pub stitch: bool,
}

impl Wire for WalkRequest {
    fn wire_size(&self) -> usize {
        self.seed.wire_size()
            + self.starts.wire_size()
            + self.deadline_ms.wire_size()
            + self.stitch.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.seed.encode(out)?;
        self.starts.encode(out)?;
        self.deadline_ms.encode(out)?;
        self.stitch.encode(out)
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        Ok(WalkRequest {
            seed: u64::decode(input)?,
            starts: StartSpec::decode(input)?,
            deadline_ms: u64::decode(input)?,
            stitch: bool::decode(input)?,
        })
    }
}

/// Everything a client can ask of a serve listener.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a walk and return its paths.
    Walk(WalkRequest),
    /// Ask the service to drain in-flight work and exit. Acked with
    /// [`Status::Ok`] before the drain completes.
    Shutdown,
    /// Apply a graph update batch (edge adds, deletions, reweights). The
    /// service applies the batch at the next superstep boundary on every
    /// rank in lockstep; already-admitted walkers keep sampling their
    /// pinned epoch, walkers admitted afterwards see the new one. Acked
    /// with [`Status::Updated`] carrying the new graph epoch, or
    /// [`Status::Invalid`] if the batch references out-of-range vertices
    /// or the served graph is a static CSR.
    Update(UpdateBatch),
    /// Ask for a live stats snapshot. Answered with [`Status::Stats`];
    /// never queued — the listener reads the shared stats directly, so a
    /// busy or draining service still answers.
    Stats,
}

impl Wire for Request {
    fn wire_size(&self) -> usize {
        1 + match self {
            Request::Walk(r) => r.wire_size(),
            Request::Shutdown => 0,
            Request::Update(b) => b.wire_size(),
            Request::Stats => 0,
        }
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Request::Walk(r) => {
                out.push(0);
                r.encode(out)
            }
            Request::Shutdown => {
                out.push(1);
                Ok(())
            }
            Request::Update(b) => {
                out.push(2);
                b.encode(out)
            }
            Request::Stats => {
                out.push(3);
                Ok(())
            }
        }
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        match u8::decode(input)? {
            0 => Ok(Request::Walk(WalkRequest::decode(input)?)),
            1 => Ok(Request::Shutdown),
            2 => Ok(Request::Update(UpdateBatch::decode(input)?)),
            3 => Ok(Request::Stats),
            b => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire: invalid Request tag {b}"),
            )),
        }
    }
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// The walk completed; the response carries its paths.
    Ok,
    /// Admission queue full — backpressure, not failure. Retry after the
    /// indicated delay.
    Rejected {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before its walkers finished; they
    /// were force-terminated and their paths discarded.
    DeadlineExceeded,
    /// The service is draining toward exit and admits nothing new.
    ShuttingDown,
    /// The request was malformed (e.g. a start vertex outside the graph);
    /// the message names the problem.
    Invalid(String),
    /// An update batch was applied; walkers admitted from now on sample
    /// the graph at this epoch.
    Updated {
        /// The graph epoch the batch created.
        epoch: u64,
    },
    /// A live stats snapshot (the answer to [`Request::Stats`]).
    Stats(Box<StatsReport>),
}

impl Wire for Status {
    fn wire_size(&self) -> usize {
        1 + match self {
            Status::Ok | Status::DeadlineExceeded | Status::ShuttingDown => 0,
            Status::Rejected { retry_after_ms } => retry_after_ms.wire_size(),
            Status::Invalid(msg) => 4 + msg.len(),
            Status::Updated { epoch } => epoch.wire_size(),
            Status::Stats(r) => r.wire_size(),
        }
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Status::Ok => out.push(0),
            Status::Rejected { retry_after_ms } => {
                out.push(1);
                retry_after_ms.encode(out)?;
            }
            Status::DeadlineExceeded => out.push(2),
            Status::ShuttingDown => out.push(3),
            Status::Invalid(msg) => {
                out.push(4);
                (msg.len() as u32).encode(out)?;
                out.extend_from_slice(msg.as_bytes());
            }
            Status::Updated { epoch } => {
                out.push(5);
                epoch.encode(out)?;
            }
            Status::Stats(r) => {
                out.push(6);
                r.encode(out)?;
            }
        }
        Ok(())
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        match u8::decode(input)? {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Rejected {
                retry_after_ms: u64::decode(input)?,
            }),
            2 => Ok(Status::DeadlineExceeded),
            3 => Ok(Status::ShuttingDown),
            4 => {
                let len = u32::decode(input)? as usize;
                if input.len() < len {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "wire: truncated Status message",
                    ));
                }
                let (head, tail) = input.split_at(len);
                let msg = String::from_utf8(head.to_vec()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "wire: Status message not UTF-8")
                })?;
                *input = tail;
                Ok(Status::Invalid(msg))
            }
            5 => Ok(Status::Updated {
                epoch: u64::decode(input)?,
            }),
            6 => Ok(Status::Stats(Box::new(StatsReport::decode(input)?))),
            b => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire: invalid Status tag {b}"),
            )),
        }
    }
}

/// The answer to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkResponse {
    /// Outcome.
    pub status: Status,
    /// One walk per admitted walker, in walker order; empty unless
    /// `status` is [`Status::Ok`] (a zero-walker request yields `Ok` with
    /// no paths).
    pub paths: Vec<Vec<VertexId>>,
}

impl Wire for WalkResponse {
    fn wire_size(&self) -> usize {
        self.status.wire_size() + self.paths.wire_size()
    }
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.status.encode(out)?;
        self.paths.encode(out)
    }
    fn decode(input: &mut &[u8]) -> io::Result<Self> {
        Ok(WalkResponse {
            status: Status::decode(input)?,
            paths: Vec::decode(input)?,
        })
    }
}

/// Connects to a serve listener and sends the protocol hello as
/// [`DEFAULT_TENANT`].
///
/// # Errors
///
/// Propagates connection failures.
pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
    connect_as(addr, "")
}

/// Connects to a serve listener announcing `tenant` (empty means
/// [`DEFAULT_TENANT`]). The tenant determines which fair-queueing lane
/// and quota the connection's requests fall under.
///
/// # Errors
///
/// Propagates connection failures; an invalid tenant id fails with
/// `InvalidInput` before anything is sent.
pub fn connect_as<A: ToSocketAddrs>(addr: A, tenant: &str) -> io::Result<TcpStream> {
    let hello = hello_bytes(tenant)?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&hello)?;
    Ok(stream)
}

/// Sends one request as a `REQ` frame; `req_id` is echoed in the
/// response.
///
/// # Errors
///
/// Propagates I/O failures; an unencodable request (e.g. an update batch
/// over wire limits) fails with `InvalidInput`.
pub fn send_request<W: Write>(w: &mut W, req_id: u64, req: &Request) -> io::Result<()> {
    let payload = to_bytes(req).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    write_frame(w, tag::REQ, req_id, &payload)?;
    w.flush()
}

/// Reads one `RESP` frame and checks it answers `req_id`.
///
/// # Errors
///
/// Fails with `InvalidData` on a non-`RESP` frame or a mismatched
/// request id, or with the underlying I/O error.
pub fn read_response<R: Read>(r: &mut R, req_id: u64) -> io::Result<WalkResponse> {
    let frame = read_frame(r)?;
    if frame.tag != tag::RESP {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a RESP frame, got tag {}", frame.tag),
        ));
    }
    if frame.seq != req_id {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response answers request {}, expected {req_id}", frame.seq),
        ));
    }
    from_bytes(&frame.payload)
}

/// One full round trip: send `req`, await its response.
///
/// # Errors
///
/// Propagates I/O and protocol failures.
pub fn round_trip(stream: &mut TcpStream, req_id: u64, req: &Request) -> io::Result<WalkResponse> {
    send_request(stream, req_id, req)?;
    read_response(stream, req_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knightking_dyn::{EdgeAdd, EdgeRef, EdgeReweight};

    fn round_trips<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).unwrap();
        assert_eq!(bytes.len(), v.wire_size(), "wire_size must be exact");
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn requests_round_trip() {
        round_trips(Request::Walk(WalkRequest {
            seed: 7,
            starts: StartSpec::Count(100),
            deadline_ms: 0,
            stitch: false,
        }));
        round_trips(Request::Walk(WalkRequest {
            seed: u64::MAX,
            starts: StartSpec::Explicit(vec![0, 9, 3]),
            deadline_ms: 250,
            stitch: true,
        }));
        round_trips(Request::Shutdown);
        round_trips(Request::Update(UpdateBatch {
            adds: vec![EdgeAdd {
                src: 3,
                dst: 4,
                weight: 2.5,
                edge_type: 1,
            }],
            dels: vec![EdgeRef { src: 0, dst: 1 }],
            reweights: vec![EdgeReweight {
                src: 2,
                dst: 3,
                weight: 0.5,
            }],
        }));
        round_trips(Request::Update(UpdateBatch::default()));
        round_trips(Request::Stats);
    }

    #[test]
    fn responses_round_trip() {
        round_trips(WalkResponse {
            status: Status::Ok,
            paths: vec![vec![1, 2, 3], vec![], vec![9]],
        });
        round_trips(WalkResponse {
            status: Status::Rejected { retry_after_ms: 50 },
            paths: Vec::new(),
        });
        round_trips(WalkResponse {
            status: Status::DeadlineExceeded,
            paths: Vec::new(),
        });
        round_trips(WalkResponse {
            status: Status::ShuttingDown,
            paths: Vec::new(),
        });
        round_trips(WalkResponse {
            status: Status::Invalid("start vertex 99 is out of range".into()),
            paths: Vec::new(),
        });
        round_trips(WalkResponse {
            status: Status::Updated { epoch: 12 },
            paths: Vec::new(),
        });
        let mut report = StatsReport {
            counters: crate::stats::ServeCounters {
                admitted: 4,
                completed: 3,
                supersteps: 99,
                ..Default::default()
            },
            latency_p99_us: 1234,
            phase_ns: [9, 8, 7, 6, 5, 4, 3, 2, 1],
            ..StatsReport::default()
        };
        report.series.push(crate::stats::SeriesPoint {
            superstep: 98,
            active_walkers: 6,
            queue_depth: 1,
            admitted: 4,
            completed: 3,
        });
        round_trips(WalkResponse {
            status: Status::Stats(Box::new(report)),
            paths: Vec::new(),
        });
    }

    #[test]
    fn retired_status_tag_is_a_typed_error() {
        // Tag 7 was `Stitched` in v5; nothing took its place.
        let err =
            from_bytes::<Status>(&[7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("invalid Status tag 7"), "{err}");
    }

    #[test]
    fn truncated_status_message_is_an_error_not_a_panic() {
        let full = to_bytes(&Status::Invalid("hello".into())).unwrap();
        let cut = &full[..full.len() - 2];
        assert!(from_bytes::<Status>(cut).is_err());
    }

    #[test]
    fn hello_round_trips_through_incremental_parse() {
        for tenant in ["", "default", "team-a", "p99.critical_7"] {
            let bytes = hello_bytes(tenant).unwrap();
            for cut in 0..bytes.len() {
                assert_eq!(split_hello(&bytes[..cut]).unwrap(), None, "prefix {cut}");
            }
            let (got, used) = split_hello(&bytes).unwrap().unwrap();
            let want = if tenant.is_empty() {
                DEFAULT_TENANT
            } else {
                tenant
            };
            assert_eq!(got, want);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn hello_rejects_bad_magic_version_and_tenant() {
        let mut bytes = hello_bytes("x").unwrap();
        bytes[0] = b'X';
        assert!(split_hello(&bytes)
            .unwrap_err()
            .to_string()
            .contains("magic"));

        let mut bytes = hello_bytes("x").unwrap();
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(split_hello(&bytes)
            .unwrap_err()
            .to_string()
            .contains("version 99"));

        // The previous protocol version is refused, both versions named.
        let mut bytes = hello_bytes("x").unwrap();
        bytes[4..6].copy_from_slice(&5u16.to_le_bytes());
        let err = split_hello(&bytes).unwrap_err().to_string();
        assert!(err.contains("version 5") && err.contains("want 6"), "{err}");

        // An overlong length byte fails before the name even arrives.
        let mut bytes = hello_bytes("x").unwrap();
        bytes[6] = (MAX_TENANT_LEN + 1) as u8;
        assert!(split_hello(&bytes[..7])
            .unwrap_err()
            .to_string()
            .contains("64-byte"));

        // Client side refuses bad tenant ids outright.
        assert!(hello_bytes("has space").is_err());
        assert!(hello_bytes(&"x".repeat(MAX_TENANT_LEN + 1)).is_err());
        assert!(hello_bytes(&"x".repeat(MAX_TENANT_LEN)).is_ok());

        // Server side: a non-allowed byte inside the name.
        let mut bytes = hello_bytes("ab").unwrap();
        let n = bytes.len();
        bytes[n - 1] = b'!';
        assert!(split_hello(&bytes).is_err());
    }
}
