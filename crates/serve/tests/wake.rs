//! The service loop's park/wake protocol: an idle service sleeps until a
//! request, an update or a shutdown arrives, loses none of them, and
//! counts no supersteps while nothing happens.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use knightking_core::{RandomWalkEngine, WalkConfig, Walker, WalkerProgram, WalkerStarts};
use knightking_dyn::{DynConfig, DynGraph, EdgeAdd, UpdateBatch};
use knightking_graph::{gen, CsrGraph};
use knightking_serve::{
    ServiceConfig, ServiceHandle, StartSpec, Status, WalkRequest, WalkResponse, WalkService,
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

fn test_graph() -> CsrGraph {
    gen::uniform_degree(96, 6, gen::GenOptions::seeded(11))
}

fn walk(seed: u64, starts: StartSpec) -> WalkRequest {
    WalkRequest {
        seed,
        starts,
        deadline_ms: 0,
        stitch: false,
    }
}

/// Runs a one-rank `Fixed(6)` service over `graph` on its own thread; the
/// returned channel fires when `run` returns. Detached on purpose: a test
/// that times out must fail, not hang joining a wedged service.
fn spawn_service<G>(graph: G, cfg: ServiceConfig) -> (ServiceHandle, mpsc::Receiver<()>)
where
    G: Send + 'static,
    for<'g> &'g G: Into<knightking_core::GraphRef<'g>>,
{
    let (service, handle) = WalkService::new(cfg);
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        service.run(&graph, Fixed(6), WalkConfig::single_node(999));
        let _ = done_tx.send(());
    });
    (handle, done_rx)
}

/// Answers one warm-up request, then waits until the superstep counter
/// has stood still for 20 ms: the loop is parked. (A polling loop never
/// stands still, so this is also where these tests fail without the
/// park.)
fn settle(handle: &ServiceHandle) {
    let resp = handle
        .submit(walk(1, StartSpec::Count(2)))
        .recv_timeout(Duration::from_secs(5))
        .expect("warm-up request answered");
    assert_eq!(resp.status, Status::Ok);
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let before = handle.stats().supersteps;
        thread::sleep(Duration::from_millis(20));
        if handle.stats().supersteps == before {
            return;
        }
        assert!(Instant::now() < deadline, "the service never went idle");
    }
}

/// Four threads submit single-walker requests with random 0–300 µs gaps,
/// so submissions keep landing on every point of the loop's
/// drain → census → park sequence. Every one must be answered; a lost
/// wake-up shows as a response that never comes, caught by the 5 s
/// watchdog.
#[test]
fn hammered_service_loses_no_wakeup() {
    const THREADS: u64 = 4;
    const REQUESTS: usize = 2000;
    let watchdog = Instant::now() + Duration::from_secs(5);
    let remaining = move || watchdog.saturating_duration_since(Instant::now());

    let graph = test_graph();
    let want: Vec<_> = (0..4u32)
        .map(|v| {
            RandomWalkEngine::new(&graph, Fixed(6), WalkConfig::single_node(v as u64))
                .run(WalkerStarts::Explicit(vec![v]))
                .paths
        })
        .collect();
    // Room for every request: overflow rejections are not under test.
    let cfg = ServiceConfig {
        queue_capacity: THREADS as usize * REQUESTS,
        ..ServiceConfig::default()
    };
    let (handle, done) = spawn_service(graph, cfg);

    let (tx, rx) = mpsc::channel();
    for t in 0..THREADS {
        let handle = handle.clone();
        let tx = tx.clone();
        thread::spawn(move || {
            // xorshift64: a different gap sequence per thread.
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
            let pending: Vec<_> = (0..REQUESTS)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let v = (x % 4) as u32;
                    let rx = handle.submit(walk(v as u64, StartSpec::Explicit(vec![v])));
                    let gap = Duration::from_micros((x >> 32) % 301);
                    if !gap.is_zero() {
                        thread::sleep(gap);
                    }
                    (v, rx)
                })
                .collect();
            let _ = tx.send(pending);
        });
    }
    drop(tx);

    let mut answered = 0;
    for _ in 0..THREADS {
        let pending = rx
            .recv_timeout(remaining())
            .expect("a submitter did not finish before the watchdog");
        for (v, rx) in pending {
            let resp: WalkResponse = rx
                .recv_timeout(remaining())
                .expect("a response never arrived: lost wake-up");
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.paths, want[v as usize]);
            answered += 1;
        }
    }
    assert_eq!(answered, THREADS as usize * REQUESTS);

    handle.shutdown();
    done.recv_timeout(remaining())
        .expect("shutdown did not wake the service before the watchdog");
}

/// Scheduling noise on a shared box only ever adds to a measured wake
/// latency, so promptness is judged on the best of three attempts. A
/// wake-up that is lost outright fails inside `attempt`, on its timeout.
fn wakes_within_50ms(what: &str, mut attempt: impl FnMut() -> Duration) {
    let best = (0..3).map(|_| attempt()).min().expect("three attempts");
    assert!(
        best < Duration::from_millis(50),
        "{what} took {best:?} to wake a parked service"
    );
}

fn dyn_service() -> (ServiceHandle, mpsc::Receiver<()>) {
    let base = gen::uniform_degree(96, 6, gen::GenOptions::paper_weighted(11));
    spawn_service(
        DynGraph::new(base, DynConfig::default()),
        ServiceConfig::default(),
    )
}

#[test]
fn update_wakes_a_parked_service() {
    let (handle, done) = dyn_service();
    let mut epoch = 0;
    wakes_within_50ms("an update", || {
        settle(&handle);
        epoch += 1;
        let batch = UpdateBatch {
            adds: vec![EdgeAdd {
                src: 0,
                dst: 33,
                weight: 2.0,
                edge_type: 0,
            }],
            ..UpdateBatch::default()
        };
        let sent = Instant::now();
        let resp = handle
            .submit_update(batch)
            .recv_timeout(Duration::from_secs(5))
            .expect("the update never woke the service");
        assert_eq!(resp.status, Status::Updated { epoch });
        sent.elapsed()
    });
    handle.shutdown();
    done.recv_timeout(Duration::from_secs(5))
        .expect("service exits");
}

#[test]
fn shutdown_wakes_a_parked_service() {
    wakes_within_50ms("shutdown", || {
        let (handle, done) = dyn_service();
        settle(&handle);
        let sent = Instant::now();
        handle.shutdown();
        done.recv_timeout(Duration::from_secs(5))
            .expect("shutdown never woke the service");
        sent.elapsed()
    });
}

/// Shutdown of a parked service with more queued than one boundary
/// admits: the wake must not turn drain-then-exit into exit.
#[test]
fn shutdown_right_after_a_burst_still_drains_it() {
    let graph = test_graph();
    let batch = RandomWalkEngine::new(&graph, Fixed(6), WalkConfig::single_node(42))
        .run(WalkerStarts::Count(5));
    let (handle, done) = spawn_service(graph, ServiceConfig::default());
    settle(&handle);

    // 40 requests against `max_admit_per_superstep` = 8.
    let pending: Vec<_> = (0..40)
        .map(|_| handle.submit(walk(42, StartSpec::Count(5))))
        .collect();
    handle.shutdown();
    for rx in pending {
        let resp = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a queued request was dropped at shutdown");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.paths, batch.paths);
    }
    done.recv_timeout(Duration::from_secs(5))
        .expect("the drained service never exited");
    let refused = handle.submit(walk(1, StartSpec::Count(1))).recv().unwrap();
    assert_eq!(refused.status, Status::ShuttingDown);
}

/// Idleness is not a superstep: nothing is polled, counted or sampled
/// while no request is in flight.
#[test]
fn idle_service_counts_no_supersteps() {
    let (handle, done) = spawn_service(test_graph(), ServiceConfig::default());
    settle(&handle);

    let before = handle.stats();
    thread::sleep(Duration::from_millis(200));
    let after = handle.stats();
    assert_eq!(after.supersteps, before.supersteps);
    assert_eq!(after.series.len(), before.series.len());
    assert_eq!(after.queue_depth.count(), before.queue_depth.count());
    assert_eq!(
        after.admitted_per_superstep.count(),
        before.admitted_per_superstep.count()
    );
    assert_eq!(
        after.completed_per_superstep.count(),
        before.completed_per_superstep.count()
    );

    // And the parked loop still answers.
    let resp = handle
        .submit(walk(3, StartSpec::Count(4)))
        .recv_timeout(Duration::from_secs(5))
        .expect("request after idleness answered");
    assert_eq!(resp.status, Status::Ok);
    assert!(handle.stats().supersteps > after.supersteps);

    handle.shutdown();
    done.recv_timeout(Duration::from_secs(5))
        .expect("service exits");
}
