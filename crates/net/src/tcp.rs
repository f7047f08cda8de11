//! The TCP backend: one OS process per node, full-mesh sockets.
//!
//! # Connection establishment
//!
//! Every rank binds its listener first, then connects to all *lower*
//! ranks (with bounded exponential-backoff retry, since peers may still
//! be starting) and accepts from all *higher* ranks. Rank 0 only
//! accepts; rank n−1 only connects. Because each rank's outbound
//! connections target ranks that accept unconditionally after their own
//! (inductively terminating) connect phase, the mesh always completes or
//! fails by the deadline — never deadlocks.
//!
//! Both sides of every connection exchange a [`Handshake`] validating
//! magic, protocol version, launch epoch, cluster size, and peer rank
//! before any frame flows.
//!
//! # Data flow
//!
//! Each peer connection gets a dedicated reader thread draining frames
//! into a channel. This is what makes naive blocking writes safe: a
//! collective writes to all peers then reads from all peers, and even if
//! every rank writes more than the kernel buffers hold, the peers'
//! reader threads keep consuming, so no write can block forever.
//!
//! # Failure propagation
//!
//! A peer process that panics (or is killed) closes its sockets; the
//! reader thread surfaces the EOF/reset, and the next collective call
//! panics with a message naming the lost rank — the multi-process
//! analogue of the in-process cluster's poisoned barrier. The panic
//! unwinds this process's `TcpTransport`, whose `Drop` shuts down its
//! own sockets, cascading the failure through the whole cluster.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use knightking_cluster::metrics::MetricCounts;
use knightking_cluster::{ClusterMetrics, ExchangeStats};

use crate::frame::{read_frame, tag, write_frame, Frame, Handshake};
use crate::transport::Transport;
use crate::wire::Wire;

/// Configuration for one rank of a TCP cluster.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This process's rank in `[0, peers.len())`.
    pub rank: usize,
    /// `peers[r]` is the address rank `r` listens on. The length is the
    /// cluster size.
    pub peers: Vec<SocketAddr>,
    /// Launch epoch: any unique value shared by all ranks of one run.
    /// Connections from processes with a different epoch (stale runs)
    /// are rejected during the handshake.
    pub epoch: u64,
    /// Total deadline for establishing the full mesh.
    pub connect_deadline: Duration,
}

impl TcpConfig {
    /// Standard configuration with a 30-second establishment deadline.
    pub fn new(rank: usize, peers: Vec<SocketAddr>, epoch: u64) -> Self {
        TcpConfig {
            rank,
            peers,
            epoch,
            connect_deadline: Duration::from_secs(30),
        }
    }
}

/// One fully-handshaken peer connection.
struct Peer {
    /// Buffered writer over the socket (flushed once per collective).
    writer: BufWriter<TcpStream>,
    /// Frames drained off the socket by the reader thread.
    rx: mpsc::Receiver<io::Result<Frame>>,
    /// The raw socket, kept for shutdown on drop.
    stream: TcpStream,
    /// Reader thread handle, joined on drop.
    reader: Option<std::thread::JoinHandle<()>>,
}

/// A [`Transport`] over real sockets: this process is one node of an
/// `n`-process cluster.
pub struct TcpTransport {
    rank: usize,
    n_nodes: usize,
    /// `peers[r]` is the connection to rank `r`; `None` at our own rank.
    peers: Vec<Option<Peer>>,
    /// Collective sequence number; every collective increments it on all
    /// ranks, and every frame carries it for SPMD-violation detection.
    seq: u64,
    /// Local socket-level communication counters (allreduced into
    /// cluster-wide totals by `cluster_counts`).
    metrics: ClusterMetrics,
    /// Scratch encode buffer reused across collectives.
    scratch: Vec<u8>,
}

impl TcpTransport {
    /// Binds this rank's listener and establishes the full mesh.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind, a peer cannot be reached
    /// before the deadline, or any handshake is invalid (wrong magic,
    /// version, epoch, cluster size, or rank).
    pub fn establish(cfg: TcpConfig) -> io::Result<TcpTransport> {
        let n = cfg.peers.len();
        if n == 0 || cfg.rank >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("rank {} out of range for {} peers", cfg.rank, n),
            ));
        }
        let ours = Handshake {
            epoch: cfg.epoch,
            n_nodes: n as u32,
            rank: cfg.rank as u32,
        };
        let mut peers: Vec<Option<Peer>> = (0..n).map(|_| None).collect();

        if n > 1 {
            // Bind before connecting to anyone, so peers that start
            // earlier can reach us while we are still dialing out.
            let listener = TcpListener::bind(cfg.peers[cfg.rank]).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("rank {} cannot bind {}: {e}", cfg.rank, cfg.peers[cfg.rank]),
                )
            })?;
            let deadline = Instant::now() + cfg.connect_deadline;

            // Dial all lower ranks (they accept us below, symmetrically).
            for (r, slot) in peers.iter_mut().enumerate().take(cfg.rank) {
                let stream = connect_with_backoff(cfg.peers[r], deadline)?;
                prepare_stream(&stream, deadline)?;
                let mut stream = stream;
                ours.write_to(&mut stream)?;
                Handshake::read_validated(&mut stream, ours, Some(r as u32)).map_err(|e| {
                    io::Error::new(e.kind(), format!("handshake with rank {r} failed: {e}"))
                })?;
                stream.set_read_timeout(None)?;
                *slot = Some(Peer::spawn(stream, r)?);
            }

            // Accept all higher ranks.
            listener.set_nonblocking(true)?;
            for _ in 0..(n - cfg.rank - 1) {
                let stream = accept_with_deadline(&listener, deadline)?;
                prepare_stream(&stream, deadline)?;
                let mut stream = stream;
                let theirs = Handshake::read_validated(&mut stream, ours, None).map_err(|e| {
                    io::Error::new(e.kind(), format!("inbound handshake failed: {e}"))
                })?;
                let r = theirs.rank as usize;
                if r <= cfg.rank || peers[r].is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "unexpected inbound connection from rank {r} (to rank {})",
                            cfg.rank
                        ),
                    ));
                }
                ours.write_to(&mut stream)?;
                stream.set_read_timeout(None)?;
                peers[r] = Some(Peer::spawn(stream, r)?);
            }
        }

        Ok(TcpTransport {
            rank: cfg.rank,
            n_nodes: n,
            peers,
            seq: 0,
            metrics: ClusterMetrics::new(n),
            scratch: Vec::new(),
        })
    }

    /// Local socket-level counters of *this process* (remote messages,
    /// frame bytes on the wire, exchanges observed by rank 0).
    pub fn local_counts(&self) -> MetricCounts {
        self.metrics.clone_counts()
    }

    /// This process's rank in the cluster.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processes in the cluster.
    pub fn world_size(&self) -> usize {
        self.n_nodes
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Writes one frame to `to`, returning its socket footprint in bytes.
    fn send(&mut self, to: usize, tag: u8, seq: u64, payload: &[u8]) -> u64 {
        let peer = self.peers[to].as_mut().expect("send to self");
        match write_frame(&mut peer.writer, tag, seq, payload) {
            Ok(bytes) => bytes,
            Err(e) => die(to, &e),
        }
    }

    fn flush(&mut self, to: usize) {
        let peer = self.peers[to].as_mut().expect("flush to self");
        if let Err(e) = peer.writer.flush() {
            die(to, &e);
        }
    }

    fn flush_all(&mut self) {
        for to in 0..self.n_nodes {
            if to != self.rank {
                self.flush(to);
            }
        }
    }

    /// Receives the next frame from `from`, enforcing tag and sequence.
    fn recv(&self, from: usize, want_tag: u8, want_seq: u64) -> Frame {
        let peer = self.peers[from].as_ref().expect("recv from self");
        let frame = match peer.rx.recv() {
            Ok(Ok(f)) => f,
            Ok(Err(e)) => die(from, &e),
            Err(mpsc::RecvError) => die(
                from,
                &io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"),
            ),
        };
        if frame.tag != want_tag || frame.seq != want_seq {
            panic!(
                "knightking-net: protocol violation from rank {from}: expected tag {want_tag} \
                 seq {want_seq}, got tag {} seq {} — the ranks' collective call order diverged \
                 (SPMD contract broken)",
                frame.tag, frame.seq
            );
        }
        frame
    }
}

/// Aborts the collective with a clear message naming the lost peer.
/// The surviving process must fail loudly here: the alternative is
/// hanging forever on a rank that will never answer.
fn die(peer: usize, err: &io::Error) -> ! {
    panic!(
        "knightking-net: lost connection to rank {peer}: {err} — a peer process crashed or \
         closed its sockets; aborting this rank instead of hanging"
    );
}

impl Peer {
    /// Wraps a handshaken stream: spawns its reader thread and sets up
    /// buffered writing.
    fn spawn(stream: TcpStream, peer_rank: usize) -> io::Result<Peer> {
        let read_half = stream.try_clone()?;
        let write_half = stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name(format!("kk-net-rx-{peer_rank}"))
            .spawn(move || {
                let mut input = BufReader::new(read_half);
                loop {
                    match read_frame(&mut input) {
                        Ok(f) => {
                            if tx.send(Ok(f)).is_err() {
                                return; // transport dropped; stop quietly
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                }
            })?;
        Ok(Peer {
            writer: BufWriter::new(write_half),
            rx,
            stream,
            reader: Some(reader),
        })
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Shut down every socket first (unblocks all reader threads and
        // tells peers we are gone), then join the readers.
        for peer in self.peers.iter().flatten() {
            let _ = peer.stream.shutdown(Shutdown::Both);
        }
        for peer in self.peers.iter_mut().flatten() {
            if let Some(handle) = peer.reader.take() {
                let _ = handle.join();
            }
        }
    }
}

impl<M: Wire> Transport<M> for TcpTransport {
    fn node(&self) -> usize {
        self.rank
    }

    fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    fn barrier(&mut self) {
        if self.n_nodes == 1 {
            return;
        }
        let seq = self.next_seq();
        let mut socket_bytes = 0u64;
        for to in 0..self.n_nodes {
            if to != self.rank {
                socket_bytes += self.send(to, tag::BARRIER, seq, &[]);
            }
        }
        self.flush_all();
        for from in 0..self.n_nodes {
            if from != self.rank {
                self.recv(from, tag::BARRIER, seq);
            }
        }
        self.metrics.record_send_sized(0, socket_bytes);
    }

    fn allreduce_sum(&mut self, value: u64) -> u64 {
        if self.n_nodes == 1 {
            return value;
        }
        let seq = self.next_seq();
        let payload = value.to_le_bytes();
        let mut socket_bytes = 0u64;
        for to in 0..self.n_nodes {
            if to != self.rank {
                socket_bytes += self.send(to, tag::REDUCE, seq, &payload);
            }
        }
        self.flush_all();
        let mut total = value;
        for from in 0..self.n_nodes {
            if from == self.rank {
                continue;
            }
            let frame = self.recv(from, tag::REDUCE, seq);
            let bytes: [u8; 8] = frame.payload.as_slice().try_into().unwrap_or_else(|_| {
                panic!(
                    "knightking-net: malformed allreduce payload from rank {from} \
                     ({} bytes, want 8)",
                    frame.payload.len()
                )
            });
            total = total.wrapping_add(u64::from_le_bytes(bytes));
        }
        self.metrics.record_send_sized(0, socket_bytes);
        total
    }

    fn exchange_with_stats(
        &mut self,
        outbox: Vec<Vec<M>>,
        wire_bytes: &dyn Fn(&M) -> usize,
    ) -> (Vec<M>, ExchangeStats) {
        let n = self.n_nodes;
        assert_eq!(outbox.len(), n, "outbox must address every node");
        let seq = self.next_seq();

        let mut own: Vec<M> = Vec::new();
        let mut sent_messages = 0u64;
        let mut sent_bytes = 0u64;
        let mut socket_bytes = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        for (to, msgs) in outbox.into_iter().enumerate() {
            if to == self.rank {
                own = msgs;
                continue;
            }
            sent_messages += msgs.len() as u64;
            scratch.clear();
            (msgs.len() as u32)
                .encode(&mut scratch)
                .expect("u32 encode is infallible");
            for m in &msgs {
                sent_bytes += wire_bytes(m) as u64;
                m.encode(&mut scratch)
                    .expect("message exceeds wire encoding limits");
            }
            socket_bytes += self.send(to, tag::DATA, seq, &scratch);
        }
        self.scratch = scratch;
        self.flush_all();

        // Inbox in sender-rank order, self included at index `rank` —
        // the delivery order the engine's determinism contract needs,
        // identical to the in-process backend.
        let mut inbox = Vec::new();
        for from in 0..n {
            if from == self.rank {
                inbox.append(&mut own);
                continue;
            }
            let frame = self.recv(from, tag::DATA, seq);
            let mut input = frame.payload.as_slice();
            let count = decode_or_die::<u32>(&mut input, from);
            inbox.reserve(count as usize);
            for _ in 0..count {
                inbox.push(decode_or_die::<M>(&mut input, from));
            }
            if !input.is_empty() {
                panic!(
                    "knightking-net: {} trailing bytes in exchange payload from rank {from}",
                    input.len()
                );
            }
        }
        self.metrics.record_send_sized(sent_messages, socket_bytes);
        self.metrics.record_exchange(self.rank);
        let received = inbox.len();
        (
            inbox,
            ExchangeStats {
                sent_messages,
                sent_bytes,
                received,
            },
        )
    }

    fn gather_bytes(&mut self, payload: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        if self.n_nodes == 1 {
            return Some(vec![payload]);
        }
        let seq = self.next_seq();
        if self.rank == 0 {
            let mut parts = Vec::with_capacity(self.n_nodes);
            parts.push(payload);
            for from in 1..self.n_nodes {
                parts.push(self.recv(from, tag::GATHER, seq).payload);
            }
            Some(parts)
        } else {
            let payload_len = payload.len() as u64;
            let socket_bytes = self.send(0, tag::GATHER, seq, &payload);
            self.flush(0);
            // One remote "message" whose payload is the gathered blob.
            let _ = payload_len;
            self.metrics.record_send_sized(1, socket_bytes);
            None
        }
    }

    fn broadcast_bytes(&mut self, payload: Vec<u8>) -> Vec<u8> {
        if self.n_nodes == 1 {
            return payload;
        }
        let seq = self.next_seq();
        if self.rank == 0 {
            let mut socket_bytes = 0u64;
            for to in 1..self.n_nodes {
                socket_bytes += self.send(to, tag::BCAST, seq, &payload);
            }
            self.flush_all();
            self.metrics
                .record_send_sized((self.n_nodes - 1) as u64, socket_bytes);
            payload
        } else {
            self.recv(0, tag::BCAST, seq).payload
        }
    }

    fn cluster_counts(&mut self) -> MetricCounts {
        // Snapshot *before* the allreduces below so their own traffic
        // does not skew the totals mid-flight.
        let local = self.metrics.clone_counts();
        MetricCounts {
            messages: Transport::<M>::allreduce_sum(self, local.messages),
            bytes: Transport::<M>::allreduce_sum(self, local.bytes),
            // Only rank 0 counts exchanges (same convention as the
            // in-process backend), so the sum is the collective count.
            exchanges: Transport::<M>::allreduce_sum(self, local.exchanges),
        }
    }
}

fn decode_or_die<T: Wire>(input: &mut &[u8], from: usize) -> T {
    T::decode(input).unwrap_or_else(|e| {
        panic!("knightking-net: corrupt exchange payload from rank {from}: {e}")
    })
}

/// Dials `addr`, retrying with exponential backoff (10 ms doubling,
/// capped at 1 s) until `deadline`.
fn connect_with_backoff(addr: SocketAddr, deadline: Instant) -> io::Result<TcpStream> {
    let mut delay = Duration::from_millis(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() + delay >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("could not connect to peer {addr} before the deadline: {e}"),
                    ));
                }
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// Accepts one connection from a non-blocking listener, polling until
/// `deadline`.
fn accept_with_deadline(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out waiting for inbound peer connections",
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Per-connection socket options: no Nagle batching (collectives are
/// latency-bound), and a handshake read timeout so a silent peer cannot
/// stall establishment past the deadline.
fn prepare_stream(stream: &TcpStream, deadline: Instant) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let remaining = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(10));
    stream.set_read_timeout(Some(remaining))?;
    Ok(())
}

/// Reserves `n` distinct loopback addresses by briefly binding port 0.
///
/// The sockets are closed before returning, so a small race window
/// exists in which another process could claim a port; on a loopback
/// smoke-test machine this is vanishingly unlikely, and the TCP
/// handshake's epoch check catches any actual collision.
///
/// # Errors
///
/// Propagates bind failures.
pub fn reserve_loopback_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let holds: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)))
        .collect::<io::Result<_>>()?;
    holds.iter().map(|l| l.local_addr()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;

    /// Runs `f` on every rank of a freshly-established loopback mesh,
    /// with a watchdog so a hang fails the test instead of wedging it.
    fn mesh<R: Send + 'static>(
        n: usize,
        f: impl Fn(TcpTransport) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let peers = reserve_loopback_addrs(n).unwrap();
        let f = std::sync::Arc::new(f);
        let (tx, rx) = mpsc::channel();
        for rank in 0..n {
            let peers = peers.clone();
            let f = f.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut cfg = TcpConfig::new(rank, peers, 0x5EED);
                cfg.connect_deadline = Duration::from_secs(10);
                let t = TcpTransport::establish(cfg).expect("establish");
                let _ = tx.send((rank, f(t)));
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok((rank, r)) => out[rank] = Some(r),
                Err(RecvTimeoutError::Timeout) => panic!("mesh test hung"),
                Err(RecvTimeoutError::Disconnected) => panic!("a rank died"),
            }
        }
        out.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn exchange_delivers_in_sender_order_including_self() {
        let results = mesh(4, |mut t| {
            let me = Transport::<(u64, u64)>::node(&t);
            let outbox: Vec<Vec<(u64, u64)>> = (0..4)
                .map(|to| vec![(me as u64, to as u64), (me as u64, to as u64)])
                .collect();
            let (inbox, stats) = t.exchange_with_stats(outbox, &|m: &(u64, u64)| m.wire_size());
            assert_eq!(stats.received, 8);
            assert_eq!(stats.sent_messages, 6);
            assert_eq!(stats.sent_bytes, 6 * 16);
            inbox
        });
        for (me, inbox) in results.iter().enumerate() {
            let senders: Vec<u64> = inbox.iter().map(|&(s, _)| s).collect();
            assert_eq!(senders, vec![0, 0, 1, 1, 2, 2, 3, 3], "rank {me}");
            assert!(inbox.iter().all(|&(_, to)| to as usize == me));
        }
    }

    #[test]
    fn allreduce_and_barrier() {
        let results = mesh(3, |mut t| {
            let me = Transport::<u64>::node(&t) as u64;
            Transport::<u64>::barrier(&mut t);
            let mut sums = Vec::new();
            for round in 0..3 {
                sums.push(Transport::<u64>::allreduce_sum(&mut t, me + round));
            }
            Transport::<u64>::barrier(&mut t);
            sums
        });
        for sums in results {
            assert_eq!(sums, vec![3, 6, 9]);
        }
    }

    #[test]
    fn gather_collects_rank_ordered_payloads_at_leader() {
        let results = mesh(3, |mut t| {
            let me = Transport::<u64>::node(&t);
            Transport::<u64>::gather_bytes(&mut t, vec![me as u8; me + 1])
        });
        assert!(results[1].is_none() && results[2].is_none());
        let parts = results[0].as_ref().unwrap();
        assert_eq!(parts.len(), 3);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p, &vec![i as u8; i + 1]);
        }
    }

    #[test]
    fn broadcast_delivers_leader_payload_everywhere() {
        let results = mesh(3, |mut t| {
            let me = Transport::<u64>::node(&t);
            let mut got = Vec::new();
            for round in 0..3u8 {
                let payload = if me == 0 {
                    vec![round; round as usize + 1]
                } else {
                    Vec::new()
                };
                got.push(Transport::<u64>::broadcast_bytes(&mut t, payload));
            }
            got
        });
        for (rank, rounds) in results.iter().enumerate() {
            for (round, bytes) in rounds.iter().enumerate() {
                assert_eq!(
                    bytes,
                    &vec![round as u8; round + 1],
                    "rank {rank} round {round}"
                );
            }
        }
    }

    /// What an idle serve cluster relies on: a rank that has shipped its
    /// gather contribution and waits for the leader's broadcast blocks
    /// in `recv` without writing a byte, however long the leader takes.
    #[test]
    fn rank_blocked_in_broadcast_sends_nothing() {
        let results = mesh(2, |mut t| {
            let me = Transport::<u64>::node(&t);
            Transport::<u64>::gather_bytes(&mut t, vec![me as u8]);
            let before = t.local_counts();
            let payload = if me == 0 {
                std::thread::sleep(Duration::from_millis(100));
                vec![7]
            } else {
                Vec::new()
            };
            let got = Transport::<u64>::broadcast_bytes(&mut t, payload);
            (before, t.local_counts(), got)
        });
        let (before, after, got) = &results[1];
        assert_eq!(before, after, "the waiting rank wrote frames");
        assert_eq!(got, &vec![7]);
        let (before, after, _) = &results[0];
        assert!(
            after.bytes > before.bytes,
            "the broadcast itself is counted"
        );
    }

    #[test]
    fn cluster_counts_are_collective_and_nonzero() {
        let results = mesh(2, |mut t| {
            let outbox: Vec<Vec<u64>> = vec![vec![1], vec![2, 3]];
            let outbox = if Transport::<u64>::node(&t) == 0 {
                outbox
            } else {
                vec![vec![4], vec![5]]
            };
            let _ = t.exchange_with_stats(outbox, &|m: &u64| m.wire_size());
            Transport::<u64>::cluster_counts(&mut t)
        });
        // Both ranks must agree on the totals.
        assert_eq!(results[0], results[1]);
        // rank0 sent 2 remote messages, rank1 sent 1.
        assert_eq!(results[0].messages, 3);
        assert!(results[0].bytes > 0, "socket bytes must be accounted");
        assert_eq!(results[0].exchanges, 1);
    }

    #[test]
    fn single_rank_runs_without_sockets() {
        let mut t =
            TcpTransport::establish(TcpConfig::new(0, vec!["127.0.0.1:1".parse().unwrap()], 7))
                .unwrap();
        Transport::<u32>::barrier(&mut t);
        assert_eq!(Transport::<u32>::allreduce_sum(&mut t, 5), 5);
        let (inbox, _) = t.exchange_with_stats(vec![vec![9u32]], &|_| 4);
        assert_eq!(inbox, vec![9]);
        assert_eq!(
            Transport::<u32>::gather_bytes(&mut t, vec![1, 2]),
            Some(vec![vec![1, 2]])
        );
        assert_eq!(
            Transport::<u32>::broadcast_bytes(&mut t, vec![3, 4]),
            vec![3, 4]
        );
    }

    #[test]
    fn stale_epoch_is_rejected_at_handshake() {
        let peers = reserve_loopback_addrs(2).unwrap();
        let peers2 = peers.clone();
        let h0 = std::thread::spawn(move || {
            let mut cfg = TcpConfig::new(0, peers2, 111);
            cfg.connect_deadline = Duration::from_secs(5);
            TcpTransport::establish(cfg)
        });
        let mut cfg = TcpConfig::new(1, peers, 222); // different launch epoch
        cfg.connect_deadline = Duration::from_secs(5);
        let r1 = TcpTransport::establish(cfg);
        let r0 = h0.join().unwrap();
        // Rank 0 (the acceptor) sees the mismatched epoch; rank 1 fails
        // too (its handshake read dies when rank 0 hangs up).
        let err = match r0 {
            Ok(_) => panic!("stale epoch must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("epoch mismatch"), "{err}");
        assert!(r1.is_err());
    }

    #[test]
    fn dead_peer_fails_collectives_instead_of_hanging() {
        let results = mesh(2, |mut t| {
            if Transport::<u64>::node(&t) == 1 {
                // Rank 1 "crashes": drops its transport, closing sockets.
                drop(t);
                return String::new();
            }
            // Rank 0 must observe the loss, not hang.
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Transport::<u64>::barrier(&mut t);
            }))
            .expect_err("barrier against a dead peer must fail");
            *panic.downcast::<String>().expect("panic message")
        });
        assert!(
            results[0].contains("lost connection to rank 1"),
            "got: {}",
            results[0]
        );
    }

    #[test]
    fn spmd_violation_is_detected() {
        // Rank 0 calls barrier while rank 1 calls allreduce: mismatched
        // tags on the same sequence number → both abort with a protocol
        // error instead of mis-delivering.
        let results = mesh(2, |mut t| {
            let me = Transport::<u64>::node(&t);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if me == 0 {
                    Transport::<u64>::barrier(&mut t);
                } else {
                    Transport::<u64>::allreduce_sum(&mut t, 1);
                }
            }))
            .expect_err("tag mismatch must be detected");
            panic.downcast::<String>().map(|s| *s).unwrap_or_default()
        });
        for msg in &results {
            assert!(
                msg.contains("protocol violation") || msg.contains("lost connection"),
                "got: {msg}"
            );
        }
    }

    #[test]
    fn large_exchange_does_not_deadlock_on_kernel_buffers() {
        // Each rank sends ~4 MiB to the other simultaneously — far more
        // than default socket buffers hold. The per-peer reader threads
        // must keep the pipes draining.
        let results = mesh(2, |mut t| {
            let big: Vec<u64> = (0..500_000).collect();
            let outbox = vec![big.clone(), big];
            let (inbox, _) = t.exchange_with_stats(outbox, &|m: &u64| m.wire_size());
            inbox.len()
        });
        assert_eq!(results, vec![1_000_000, 1_000_000]);
    }
}
