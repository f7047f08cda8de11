//! The load generator: one client thread, two pipelined KKSV
//! connections (tenants `gold` and `bronze`), driven by the same
//! `Poller` the server's reactor uses.
//!
//! Open loop: every arrival has a due time fixed before the clock
//! starts and is sent at that time whether or not earlier requests have
//! answered; latency runs from the *due* time, so a stall is charged to
//! every request it delays. How late the generator itself ran is
//! reported (`late_p99_us`), and a probe whose generator ran a
//! millisecond late is void — it measured the client, not the server.
//!
//! Closed loop (the saturation phase): a fixed number of walk requests
//! is kept outstanding per connection; a completion triggers the next
//! send.
//!
//! The client thread only ever blocks in `Poller::wait`. The poller's
//! timeout has millisecond granularity, too coarse for arrivals half a
//! millisecond apart, and spinning instead would make the client the
//! busiest thread on a two-core box — the scheduler then preempts it
//! for whole timeslices and the latency tail measures the client. So a
//! ticker thread sleeps until each due time and writes one byte to a
//! socket pair the poller watches: the client wakes for a due arrival
//! exactly as it wakes for a response. The ticker touches no request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use knightking_net::frame::{split_frame, tag, write_frame, HEADER_LEN};
use knightking_net::{from_bytes, to_bytes};
use knightking_reactor::{Event, Interest, Poller};
use knightking_serve::{
    protocol, Request, StartSpec, StatsReport, Status, WalkRequest, WalkResponse,
};

use crate::stats::Samples;

pub const TENANTS: [(&str, u32); 2] = [("gold", 4), ("bronze", 1)];
/// Walkers per request.
pub const WALKERS: u64 = 16;
/// Unanswered requests are failures once this long has passed since the
/// last send.
pub const DRAIN_CAP: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Walk,
    Update,
    Stats,
}

/// One scheduled request.
pub struct Arrival {
    pub due_ns: u64,
    pub conn: usize,
    pub kind: Kind,
    /// Walk: the request seed. Update: index into `Plan::updates`.
    pub arg: u64,
}

/// Everything a phase will send, fixed before its clock starts.
#[derive(Default)]
pub struct Plan {
    /// Ascending by `due_ns`.
    pub arrivals: Vec<Arrival>,
    /// Pre-encoded `Request::Update` payloads.
    pub updates: Vec<Vec<u8>>,
    /// Closed-loop walk requests to keep outstanding on each connection
    /// for `closed_ns`; 0 for a purely open-loop phase.
    pub window_per_conn: usize,
    pub closed_ns: u64,
    /// Seeds of closed-loop requests are `closed_seed + n`.
    pub closed_seed: u64,
    /// Keep the paths of this many evenly spaced scheduled walks.
    pub keep_paths: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Pending,
    Ok,
    Updated {
        epoch: u64,
    },
    Stats,
    Rejected,
    DeadlineExceeded,
    Invalid,
    ShuttingDown,
    Undecodable,
    /// Ok, but not 16 paths of at most 21 vertices.
    BadShape,
    Unanswered,
}

impl Outcome {
    pub fn is_success(self) -> bool {
        matches!(self, Outcome::Ok | Outcome::Updated { .. } | Outcome::Stats)
    }
}

/// One request's timeline, in nanoseconds since the phase started.
#[derive(Debug, Clone)]
pub struct Rec {
    pub kind: Kind,
    pub conn: usize,
    pub seed: u64,
    /// Due time (open loop) or send time (closed loop).
    pub sched_ns: u64,
    pub sent_ns: u64,
    /// When the read that delivered the response's bytes returned.
    pub first_byte_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
    pub steps: u32,
    pub resp_bytes: u32,
    /// Sent by the closed loop rather than the schedule.
    pub closed: bool,
    /// Keep this response's paths for the correctness check.
    keep: bool,
}

impl Rec {
    fn pending(kind: Kind, conn: usize, seed: u64, sched_ns: u64, sent_ns: u64) -> Rec {
        Rec {
            kind,
            conn,
            seed,
            sched_ns,
            sent_ns,
            first_byte_ns: 0,
            done_ns: 0,
            outcome: Outcome::Pending,
            steps: 0,
            resp_bytes: 0,
            closed: false,
            keep: false,
        }
    }

    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.sched_ns)
    }
}

pub struct PhaseOut {
    /// When the phase's clock started.
    pub started: Instant,
    pub recs: Vec<Rec>,
    /// Scheduled walks whose paths were kept: (index into `recs`, paths).
    pub kept: Vec<(usize, Vec<Vec<u32>>)>,
    pub stats: Vec<StatsReport>,
    /// Outstanding requests: the most seen, at half the offered window,
    /// and when the offered window ended.
    pub outstanding_max: usize,
    pub outstanding_mid: usize,
    pub outstanding_end: usize,
    /// Length of the offered window.
    pub offered_ns: u64,
    /// Phase start to last response.
    pub wall_ns: u64,
}

impl PhaseOut {
    pub fn of(&self, kind: Kind) -> impl Iterator<Item = &Rec> {
        self.recs.iter().filter(move |r| r.kind == kind)
    }

    /// Latencies of successful requests of one kind, from due time.
    pub fn latencies(&self, kind: Kind) -> Samples {
        Samples::new(
            self.of(kind)
                .filter(|r| r.outcome.is_success())
                .map(Rec::latency_ns)
                .collect(),
        )
    }

    /// Send instant minus due instant of every scheduled request.
    pub fn lateness(&self) -> Samples {
        Samples::new(
            self.recs
                .iter()
                .filter(|r| !r.closed)
                .map(|r| r.sent_ns.saturating_sub(r.sched_ns))
                .collect(),
        )
    }

    pub fn failures(&self, kind: Kind) -> u64 {
        self.of(kind).filter(|r| !r.outcome.is_success()).count() as u64
    }
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Parsed prefix of `inbuf`, compacted lazily.
    in_off: usize,
    outbuf: Vec<u8>,
    out_off: usize,
    writable_armed: bool,
    dead: bool,
    /// Closed-loop requests in flight on this connection.
    closed_inflight: usize,
}

/// Poller key of the ticker's socket.
const TICK_KEY: u64 = u64::MAX;

/// Sleeps until each due time (nanoseconds after `started`, ascending)
/// and writes one byte to `tx`; due times already past share a tick.
fn ticker(started: Instant, dues: &[u64], mut tx: UnixStream, stop: &AtomicBool) {
    let mut i = 0;
    // `stop` publishes nothing else, so relaxed loads are enough.
    while i < dues.len() && !stop.load(Ordering::Relaxed) {
        let due = started + Duration::from_nanos(dues[i]);
        let now = Instant::now();
        if due > now {
            // Parks may wake early; the loop re-checks the clock.
            std::thread::park_timeout(due - now);
            continue;
        }
        let elapsed = now.duration_since(started).as_nanos() as u64;
        while i < dues.len() && dues[i] <= elapsed {
            i += 1;
        }
        // Non-blocking: a full socket already holds a pending tick.
        let _ = tx.write(&[1]);
    }
}

pub struct Client {
    poller: Poller,
    conns: Vec<Conn>,
    /// The ticker's socket pair: the read end is registered with the
    /// poller, the write end is cloned into each phase's ticker thread.
    tick_rx: UnixStream,
    tick_tx: UnixStream,
    events: Vec<Event>,
    /// Request ids are never reused across phases, so a straggler from
    /// an earlier phase cannot be mistaken for a current response.
    next_seq: u64,
}

impl Client {
    /// Connects one pipelined connection per tenant.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let poller = Poller::new()?;
        let mut conns = Vec::new();
        for (i, (tenant, _)) in TENANTS.iter().enumerate() {
            let stream = protocol::connect_as(addr, tenant)?;
            stream.set_nonblocking(true)?;
            poller.register(stream.as_raw_fd(), i as u64, Interest::READ)?;
            conns.push(Conn {
                stream,
                inbuf: Vec::with_capacity(1 << 16),
                in_off: 0,
                outbuf: Vec::with_capacity(1 << 16),
                out_off: 0,
                writable_armed: false,
                dead: false,
                closed_inflight: 0,
            });
        }
        let (tick_rx, tick_tx) = UnixStream::pair()?;
        tick_rx.set_nonblocking(true)?;
        tick_tx.set_nonblocking(true)?;
        poller.register(tick_rx.as_raw_fd(), TICK_KEY, Interest::READ)?;
        Ok(Client {
            poller,
            conns,
            tick_rx,
            tick_tx,
            events: Vec::new(),
            next_seq: 1,
        })
    }

    fn flush(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        while conn.out_off < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.out_off..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.out_off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.out_off == conn.outbuf.len() {
            conn.outbuf.clear();
            conn.out_off = 0;
        }
        let want = !conn.outbuf.is_empty();
        if want != conn.writable_armed {
            let interest = if want {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), ci as u64, interest)
                .is_ok()
            {
                conn.writable_armed = want;
            }
        }
    }

    /// Runs one phase to completion: sends the plan, keeps the closed
    /// window full while it lasts, then drains.
    pub fn drive(&mut self, plan: &Plan) -> PhaseOut {
        let mut dues: Vec<u64> = plan.arrivals.iter().map(|a| a.due_ns).collect();
        if plan.closed_ns > 0 {
            dues.push(plan.closed_ns);
            dues.sort_unstable();
        }
        let tx = self.tick_tx.try_clone().expect("clone the ticker socket");
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        std::thread::scope(|s| {
            let t = s.spawn(|| ticker(started, &dues, tx, &stop));
            let out = self.drive_from(plan, started);
            stop.store(true, Ordering::Relaxed);
            t.thread().unpark();
            out
        })
    }

    fn drive_from(&mut self, plan: &Plan, started: Instant) -> PhaseOut {
        let base_seq = self.next_seq;
        let n_sched = plan.arrivals.len();
        let mut recs: Vec<Rec> = Vec::with_capacity(n_sched + 1024);
        let scheduled_walks = plan
            .arrivals
            .iter()
            .filter(|a| a.kind == Kind::Walk)
            .count();
        let keep_stride = scheduled_walks
            .checked_div(plan.keep_paths)
            .map_or(usize::MAX, |s| s.max(1));
        let mut kept = Vec::new();
        let mut stats = Vec::new();
        let (mut walk_ordinal, mut flagged) = (0usize, 0usize);
        let offered_ns = plan
            .arrivals
            .last()
            .map_or(0, |a| a.due_ns)
            .max(plan.closed_ns);
        let mut payload = Vec::with_capacity(64);
        let mut outstanding = 0usize;
        let (mut out_max, mut out_mid, mut out_end) = (0usize, None, None);
        let mut next = 0usize;
        let mut closed_sent = 0u64;
        let mut last_send_ns = 0u64;
        let mut last_done_ns = 0u64;
        let mut chunk = vec![0u8; 64 * 1024];
        let now_ns = || started.elapsed().as_nanos() as u64;

        loop {
            let now = now_ns();
            // Scheduled arrivals that are due.
            while next < n_sched && plan.arrivals[next].due_ns <= now {
                let a = &plan.arrivals[next];
                next += 1;
                let seq = base_seq + recs.len() as u64;
                let mut keep = false;
                if a.kind == Kind::Walk {
                    keep = walk_ordinal % keep_stride == 0 && flagged < plan.keep_paths;
                    walk_ordinal += 1;
                    flagged += keep as usize;
                }
                let body: &[u8] = match a.kind {
                    Kind::Walk => {
                        encode_walk(&mut payload, a.arg);
                        &payload
                    }
                    Kind::Update => &plan.updates[a.arg as usize],
                    Kind::Stats => {
                        payload.clear();
                        payload.extend_from_slice(
                            &to_bytes(&Request::Stats).expect("encode stats request"),
                        );
                        &payload
                    }
                };
                let conn = &mut self.conns[a.conn];
                write_frame(&mut conn.outbuf, tag::REQ, seq, body).expect("frame into memory");
                recs.push(Rec {
                    keep,
                    ..Rec::pending(a.kind, a.conn, a.arg, a.due_ns, now_ns())
                });
                outstanding += 1;
                self.flush(a.conn);
                last_send_ns = now;
            }
            // Closed loop: top the window up.
            if now < plan.closed_ns {
                for ci in 0..self.conns.len() {
                    let mut wrote = false;
                    while self.conns[ci].closed_inflight < plan.window_per_conn {
                        let seq = base_seq + recs.len() as u64;
                        let seed = plan.closed_seed.wrapping_add(closed_sent);
                        closed_sent += 1;
                        encode_walk(&mut payload, seed);
                        let conn = &mut self.conns[ci];
                        write_frame(&mut conn.outbuf, tag::REQ, seq, &payload)
                            .expect("frame into memory");
                        conn.closed_inflight += 1;
                        let t = now_ns();
                        recs.push(Rec {
                            closed: true,
                            ..Rec::pending(Kind::Walk, ci, seed, t, t)
                        });
                        outstanding += 1;
                        wrote = true;
                    }
                    if wrote {
                        self.flush(ci);
                        last_send_ns = now;
                    }
                }
            }

            out_max = out_max.max(outstanding);
            if out_mid.is_none() && now >= offered_ns / 2 {
                out_mid = Some(outstanding);
            }
            let sending_done = next >= n_sched && now >= plan.closed_ns;
            if sending_done && out_end.is_none() {
                out_end = Some(outstanding);
            }
            if sending_done && outstanding == 0 {
                break;
            }
            if sending_done && now.saturating_sub(last_send_ns) > DRAIN_CAP.as_nanos() as u64 {
                break;
            }
            if self.conns.iter().all(|c| c.dead) {
                break;
            }

            // Wait for a response or a tick. The timeout is only a net
            // under a lost tick: two milliseconds past the next due time.
            let until_due = if next < n_sched {
                plan.arrivals[next].due_ns.saturating_sub(now)
            } else if now < plan.closed_ns {
                plan.closed_ns - now
            } else {
                50_000_000
            };
            let timeout = Duration::from_nanos(until_due.min(48_000_000) + 2_000_000);
            self.poller
                .wait(&mut self.events, Some(timeout))
                .expect("client poll");
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                if ev.key == TICK_KEY {
                    // Edge-triggered: drain, so the next tick is an edge.
                    while matches!((&self.tick_rx).read(&mut chunk), Ok(n) if n > 0) {}
                    continue;
                }
                let ci = ev.key as usize;
                if self.conns[ci].dead {
                    continue;
                }
                if ev.readable || ev.closed {
                    // Edge-triggered: read to `WouldBlock`.
                    let conn = &mut self.conns[ci];
                    loop {
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => {
                                conn.dead = true;
                                break;
                            }
                            Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                conn.dead = true;
                                break;
                            }
                        }
                    }
                    let read_ns = now_ns();
                    loop {
                        let conn = &mut self.conns[ci];
                        let Ok(Some((frame, used))) = split_frame(&conn.inbuf[conn.in_off..])
                        else {
                            break;
                        };
                        conn.in_off += used;
                        if frame.tag != tag::RESP || frame.seq < base_seq {
                            continue;
                        }
                        let Some(rec) = recs.get_mut((frame.seq - base_seq) as usize) else {
                            continue;
                        };
                        if rec.outcome != Outcome::Pending {
                            continue;
                        }
                        rec.first_byte_ns = read_ns;
                        rec.resp_bytes = (HEADER_LEN + frame.payload.len()) as u32;
                        match from_bytes::<WalkResponse>(&frame.payload) {
                            Err(_) => rec.outcome = Outcome::Undecodable,
                            Ok(resp) => {
                                rec.outcome = classify(rec.kind, &resp);
                                rec.steps = resp
                                    .paths
                                    .iter()
                                    .map(|p| p.len().saturating_sub(1) as u32)
                                    .sum();
                                if let Status::Stats(report) = resp.status {
                                    stats.push(*report);
                                } else if rec.keep && rec.outcome == Outcome::Ok {
                                    kept.push(((frame.seq - base_seq) as usize, resp.paths));
                                }
                            }
                        }
                        rec.done_ns = now_ns();
                        last_done_ns = rec.done_ns;
                        outstanding -= 1;
                        if rec.closed {
                            self.conns[ci].closed_inflight -= 1;
                        }
                    }
                    let conn = &mut self.conns[ci];
                    if conn.in_off == conn.inbuf.len() {
                        conn.inbuf.clear();
                        conn.in_off = 0;
                    } else if conn.in_off > (1 << 20) {
                        conn.inbuf.drain(..conn.in_off);
                        conn.in_off = 0;
                    }
                }
                if ev.writable && !self.conns[ci].dead {
                    self.flush(ci);
                }
            }
            self.events = events;
        }

        for r in &mut recs {
            if r.outcome == Outcome::Pending {
                r.outcome = Outcome::Unanswered;
            }
        }
        for c in &mut self.conns {
            c.closed_inflight = 0;
        }
        self.next_seq = base_seq + recs.len() as u64;
        PhaseOut {
            started,
            recs,
            kept,
            stats,
            outstanding_max: out_max,
            outstanding_mid: out_mid.unwrap_or(0),
            outstanding_end: out_end.unwrap_or(outstanding),
            offered_ns,
            wall_ns: last_done_ns.max(offered_ns),
        }
    }
}

fn encode_walk(payload: &mut Vec<u8>, seed: u64) {
    payload.clear();
    let req = Request::Walk(WalkRequest {
        seed,
        starts: StartSpec::Count(WALKERS),
        deadline_ms: 0,
        stitch: false,
    });
    payload.extend_from_slice(&to_bytes(&req).expect("encode walk request"));
}

fn classify(kind: Kind, resp: &WalkResponse) -> Outcome {
    match (&resp.status, kind) {
        (Status::Ok, Kind::Walk) => {
            if resp.paths.len() == WALKERS as usize
                && resp.paths.iter().all(|p| (1..=21).contains(&p.len()))
            {
                Outcome::Ok
            } else {
                Outcome::BadShape
            }
        }
        (Status::Updated { epoch }, Kind::Update) => Outcome::Updated { epoch: *epoch },
        (Status::Stats(_), Kind::Stats) => Outcome::Stats,
        (Status::Rejected { .. }, _) => Outcome::Rejected,
        (Status::DeadlineExceeded, _) => Outcome::DeadlineExceeded,
        (Status::ShuttingDown, _) => Outcome::ShuttingDown,
        _ => Outcome::Invalid,
    }
}
