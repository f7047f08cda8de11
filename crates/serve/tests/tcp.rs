//! End-to-end serving over real sockets: a 2-rank TCP cluster runs the
//! service, a listener accepts protocol clients, and a served query's
//! paths are byte-identical to a one-shot batch run with the same seed.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use knightking_cluster::metrics::MetricCounts;
use knightking_cluster::ExchangeStats;
use knightking_core::{
    RandomWalkEngine, SpanEventKind, WalkConfig, Walker, WalkerProgram, WalkerStarts,
};
use knightking_graph::gen;
use knightking_net::{reserve_loopback_addrs, TcpConfig, TcpTransport, Transport};
use knightking_serve::{
    protocol, serve_listener, Request, ServiceConfig, StartSpec, Status, WalkRequest, WalkService,
};

struct Fixed(u32);

impl WalkerProgram for Fixed {
    type Data = ();
    type Query = ();
    type Answer = ();
    const DYNAMIC: bool = false;

    fn init_data(&self, _id: u64, _start: u32) {}
    fn should_terminate(&self, w: &mut Walker<()>) -> bool {
        w.step >= self.0
    }
}

#[test]
fn tcp_served_query_matches_batch_and_shuts_down() {
    let graph = gen::uniform_degree(80, 5, gen::GenOptions::seeded(23));
    let batch = RandomWalkEngine::new(&graph, Fixed(9), WalkConfig::single_node(7))
        .run(WalkerStarts::Count(12));

    let peers = reserve_loopback_addrs(2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let (service, handle) = WalkService::new(ServiceConfig::default());

    thread::scope(|scope| {
        let graph = &graph;
        let service = &service;

        // Rank 0: the leader, driving admissions off the shared queue.
        let peers0 = peers.clone();
        scope.spawn(move || {
            let mut t = TcpTransport::establish(TcpConfig::new(0, peers0, 0x5E12)).unwrap();
            service.run_leader(graph, Fixed(9), WalkConfig::with_nodes(2, 999), &mut t);
        });

        // Rank 1: a worker steered entirely by broadcast directives.
        let peers1 = peers.clone();
        scope.spawn(move || {
            let mut t = TcpTransport::establish(TcpConfig::new(1, peers1, 0x5E12)).unwrap();
            WalkService::run_worker(graph, Fixed(9), WalkConfig::with_nodes(2, 999), &mut t);
        });

        // The front door.
        let lh = handle.clone();
        scope.spawn(move || serve_listener(listener, lh).unwrap());

        // A protocol client: query, verify, then ask for shutdown.
        let mut stream = protocol::connect(addr).unwrap();
        let resp = protocol::round_trip(
            &mut stream,
            41,
            &Request::Walk(WalkRequest {
                seed: 7,
                starts: StartSpec::Count(12),
                deadline_ms: 0,
                stitch: false,
            }),
        )
        .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.paths, batch.paths);

        let ack = protocol::round_trip(&mut stream, 42, &Request::Shutdown).unwrap();
        assert_eq!(ack.status, Status::Ok);
    });

    assert_eq!(handle.stats().completed, 1);
}

/// The same cluster with tracing and profiling on: paths stay
/// byte-identical, a `Request::Stats` round trip returns a live
/// [`StatsReport`], and the gathered trace log holds spans from *both*
/// ranks — the distributed timeline the Chrome export renders.
#[test]
fn tcp_traced_query_gathers_spans_from_both_ranks() {
    let graph = gen::uniform_degree(80, 5, gen::GenOptions::seeded(23));
    let batch = RandomWalkEngine::new(&graph, Fixed(9), WalkConfig::single_node(7))
        .run(WalkerStarts::Count(12));

    let peers = reserve_loopback_addrs(2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let cfg = ServiceConfig {
        trace_sample: 1,
        ..ServiceConfig::default()
    };
    let (service, handle) = WalkService::new(cfg);
    let mut walk_cfg = WalkConfig::with_nodes(2, 999);
    walk_cfg.profile = true;

    thread::scope(|scope| {
        let graph = &graph;
        let service = &service;
        let walk_cfg = &walk_cfg;

        let peers0 = peers.clone();
        scope.spawn(move || {
            let mut t = TcpTransport::establish(TcpConfig::new(0, peers0, 0x5E13)).unwrap();
            service.run_leader(graph, Fixed(9), walk_cfg.clone(), &mut t);
        });

        let peers1 = peers.clone();
        scope.spawn(move || {
            let mut t = TcpTransport::establish(TcpConfig::new(1, peers1, 0x5E13)).unwrap();
            WalkService::run_worker(graph, Fixed(9), walk_cfg.clone(), &mut t);
        });

        let lh = handle.clone();
        scope.spawn(move || serve_listener(listener, lh).unwrap());

        let mut stream = protocol::connect(addr).unwrap();
        let resp = protocol::round_trip(
            &mut stream,
            41,
            &Request::Walk(WalkRequest {
                seed: 7,
                starts: StartSpec::Count(12),
                deadline_ms: 0,
                stitch: false,
            }),
        )
        .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.paths, batch.paths, "tracing must not perturb walks");

        // A live stats snapshot over the same wire protocol.
        let stats = protocol::round_trip(&mut stream, 42, &Request::Stats).unwrap();
        match stats.status {
            Status::Stats(report) => {
                assert_eq!(report.admitted, 1);
                assert_eq!(report.completed, 1);
                assert!(report.supersteps > 0);
                assert!(report.spans > 0, "completed trace must be gathered");
                assert!(report
                    .render_prometheus()
                    .contains("kk_requests_completed_total 1"));
            }
            other => panic!("expected Stats, got {other:?}"),
        }

        let ack = protocol::round_trip(&mut stream, 43, &Request::Shutdown).unwrap();
        assert_eq!(ack.status, Status::Ok);
    });

    // The gathered log shows the request on both ranks.
    let log = handle.trace_log();
    assert_eq!(log.dropped(), 0);
    let spans = log.spans();
    for node in [0u32, 1] {
        assert!(
            spans.iter().any(|s| s.node == node),
            "expected spans from rank {node}"
        );
    }
    let trace_id = spans[0].trace;
    assert!(spans.iter().all(|s| s.trace == trace_id));
    let admitted: u64 = spans
        .iter()
        .map(|s| match s.kind {
            SpanEventKind::Admit { walkers } => walkers,
            _ => 0,
        })
        .sum();
    let completed: u64 = spans
        .iter()
        .map(|s| match s.kind {
            SpanEventKind::Complete { walkers } => walkers,
            _ => 0,
        })
        .sum();
    assert_eq!(admitted, 12, "admit spans across ranks cover every walker");
    assert_eq!(
        completed, 12,
        "complete spans across ranks cover every walker"
    );

    // The export is one coherent Chrome trace across both processes.
    let mut buf = Vec::new();
    log.write_chrome_trace(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("\"pid\":0") && text.contains("\"pid\":1"));
}

/// A [`TcpTransport`] that publishes its socket-level counters after
/// every collective, so a test can read them while the service loop
/// owns the transport.
struct Watched {
    inner: TcpTransport,
    seen: Arc<Mutex<MetricCounts>>,
}

impl Watched {
    fn publish<R>(&self, r: R) -> R {
        *self.seen.lock().unwrap() = self.inner.local_counts();
        r
    }
}

impl<M> Transport<M> for Watched
where
    TcpTransport: Transport<M>,
{
    fn node(&self) -> usize {
        Transport::<M>::node(&self.inner)
    }
    fn n_nodes(&self) -> usize {
        Transport::<M>::n_nodes(&self.inner)
    }
    fn barrier(&mut self) {
        Transport::<M>::barrier(&mut self.inner);
        self.publish(())
    }
    fn allreduce_sum(&mut self, value: u64) -> u64 {
        let r = Transport::<M>::allreduce_sum(&mut self.inner, value);
        self.publish(r)
    }
    fn exchange_with_stats(
        &mut self,
        outbox: Vec<Vec<M>>,
        wire_bytes: &dyn Fn(&M) -> usize,
    ) -> (Vec<M>, ExchangeStats) {
        let r = self.inner.exchange_with_stats(outbox, wire_bytes);
        self.publish(r)
    }
    fn gather_bytes(&mut self, payload: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        let r = Transport::<M>::gather_bytes(&mut self.inner, payload);
        self.publish(r)
    }
    fn broadcast_bytes(&mut self, payload: Vec<u8>) -> Vec<u8> {
        let r = Transport::<M>::broadcast_bytes(&mut self.inner, payload);
        self.publish(r)
    }
    fn cluster_counts(&mut self) -> MetricCounts {
        let r = Transport::<M>::cluster_counts(&mut self.inner);
        self.publish(r)
    }
}

/// An idle cluster is silent: with the leader parked on its empty queue
/// the worker blocks in the directive broadcast's `recv`, and neither
/// rank writes a frame — where the polling loop exchanged a gather, a
/// broadcast and an allreduce every millisecond. A request after the
/// silence is still answered byte-identically to batch.
#[test]
fn idle_tcp_cluster_sends_no_frames() {
    let graph = gen::uniform_degree(80, 5, gen::GenOptions::seeded(23));
    let batch = RandomWalkEngine::new(&graph, Fixed(9), WalkConfig::single_node(7))
        .run(WalkerStarts::Count(12));

    let peers = reserve_loopback_addrs(2).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (service, handle) = WalkService::new(ServiceConfig::default());
    let seen: [Arc<Mutex<MetricCounts>>; 2] = Default::default();

    // Judged after the scope: a failed assertion inside it would leave
    // the ranks running and turn a failure into a hang.
    let (before, idle, resp, after) = thread::scope(|scope| {
        let graph = &graph;
        let service = &service;
        for (rank, seen) in seen.iter().enumerate() {
            let peers = peers.clone();
            let seen = seen.clone();
            scope.spawn(move || {
                let inner = TcpTransport::establish(TcpConfig::new(rank, peers, 0x5E14)).unwrap();
                let mut t = Watched { inner, seen };
                let cfg = WalkConfig::with_nodes(2, 999);
                if rank == 0 {
                    service.run_leader(graph, Fixed(9), cfg, &mut t);
                } else {
                    WalkService::run_worker(graph, Fixed(9), cfg, &mut t);
                }
            });
        }
        let lh = handle.clone();
        scope.spawn(move || serve_listener(listener, lh).unwrap());

        let mut stream = protocol::connect(addr).unwrap();
        let query = Request::Walk(WalkRequest {
            seed: 7,
            starts: StartSpec::Count(12),
            deadline_ms: 0,
            stitch: false,
        });
        // One answered request proves both loops are up; 50 ms later
        // they have run out of boundaries to cross.
        let warm = protocol::round_trip(&mut stream, 1, &query).unwrap();
        assert_eq!(warm.status, Status::Ok);
        thread::sleep(Duration::from_millis(50));
        let snapshot = || [*seen[0].lock().unwrap(), *seen[1].lock().unwrap()];
        let before = snapshot();
        thread::sleep(Duration::from_millis(300));
        let idle = snapshot();
        let resp = protocol::round_trip(&mut stream, 2, &query).unwrap();
        let after = snapshot();
        let ack = protocol::round_trip(&mut stream, 3, &Request::Shutdown).unwrap();
        assert_eq!(ack.status, Status::Ok);
        (before, idle, resp, after)
    });

    assert!(before.iter().all(|c| c.bytes > 0), "both ranks have spoken");
    assert_eq!(idle, before, "an idle cluster exchanged frames");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.paths, batch.paths);
    assert!(after[1].bytes > before[1].bytes);
    assert_eq!(handle.stats().completed, 2);
}
