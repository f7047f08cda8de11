//! Service-level integration tests: byte-identity with batch runs,
//! admission control (overflow, deadlines), and shutdown draining.

use std::thread;
use std::time::Duration;

use knightking_core::{
    RandomWalkEngine, SpanEventKind, WalkConfig, Walker, WalkerProgram, WalkerStarts,
};
use knightking_graph::gen;
use knightking_serve::{ServiceConfig, StartSpec, Status, WalkRequest, WalkService};
use knightking_walks::Node2Vec;

/// An unbiased fixed-length walk for tests that don't need bias.
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

fn test_graph() -> knightking_graph::CsrGraph {
    gen::uniform_degree(96, 6, gen::GenOptions::seeded(11))
}

/// A served node2vec query returns byte-identical paths to a one-shot
/// batch run with the same seed — the service was built with a
/// *different* seed, proving request-local determinism.
#[test]
fn served_node2vec_matches_batch_byte_for_byte() {
    let graph = test_graph();
    let program = || Node2Vec::new(2.0, 0.5, 20);

    let batch = RandomWalkEngine::new(&graph, program(), WalkConfig::single_node(7))
        .run(WalkerStarts::Count(16));

    let (service, handle) = WalkService::new(ServiceConfig::default());
    let client = handle.clone();
    let asker = thread::spawn(move || {
        let rx = client.submit(WalkRequest {
            seed: 7,
            starts: StartSpec::Count(16),
            deadline_ms: 0,
            stitch: false,
        });
        let resp = rx.recv().expect("service dropped the responder");
        client.shutdown();
        resp
    });
    service.run(&graph, program(), WalkConfig::single_node(999));
    let resp = asker.join().unwrap();

    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.paths, batch.paths);
}

/// The reserved stitch byte is refused with a `Status::Invalid` naming
/// the removal — not silently served as an exact walk — and the refusal
/// leaves the service intact: the next exact request on it is
/// byte-identical to batch.
#[test]
fn stitch_requests_are_refused_and_the_service_keeps_serving() {
    let graph = test_graph();

    let batch = RandomWalkEngine::new(&graph, Fixed(10), WalkConfig::single_node(7))
        .run(WalkerStarts::Count(4));

    let (service, handle) = WalkService::new(ServiceConfig::default());
    let client = handle.clone();
    let asker = thread::spawn(move || {
        let ask = |stitch| {
            let rx = client.submit(WalkRequest {
                seed: 7,
                starts: StartSpec::Count(4),
                deadline_ms: 0,
                stitch,
            });
            rx.recv().expect("service dropped the responder")
        };
        let refused = ask(true);
        let exact = ask(false);
        client.shutdown();
        (refused, exact)
    });
    service.run(&graph, Fixed(10), WalkConfig::single_node(999));
    let (refused, exact) = asker.join().unwrap();

    match refused.status {
        Status::Invalid(msg) => assert!(
            msg.contains("stitched execution was removed"),
            "the refusal names the removal: {msg}"
        ),
        other => panic!("expected Status::Invalid, got {other:?}"),
    }
    assert!(refused.paths.is_empty());
    assert_eq!(exact.status, Status::Ok);
    assert_eq!(exact.paths, batch.paths);
}

/// Same byte-identity on a 2-node in-process cluster, with the request
/// interleaved against another in-flight request.
#[test]
fn served_walks_interleave_without_cross_talk() {
    let graph = test_graph();

    let batch_a = RandomWalkEngine::new(&graph, Fixed(12), WalkConfig::single_node(7))
        .run(WalkerStarts::Count(10));
    let batch_b = RandomWalkEngine::new(&graph, Fixed(12), WalkConfig::single_node(31))
        .run(WalkerStarts::Explicit(vec![5, 5, 80]));

    let (service, handle) = WalkService::new(ServiceConfig::default());
    let client = handle.clone();
    let asker = thread::spawn(move || {
        let rx_a = client.submit(WalkRequest {
            seed: 7,
            starts: StartSpec::Count(10),
            deadline_ms: 0,
            stitch: false,
        });
        let rx_b = client.submit(WalkRequest {
            seed: 31,
            starts: StartSpec::Explicit(vec![5, 5, 80]),
            deadline_ms: 0,
            stitch: false,
        });
        let a = rx_a.recv().unwrap();
        let b = rx_b.recv().unwrap();
        client.shutdown();
        (a, b)
    });
    service.run(&graph, Fixed(12), WalkConfig::with_nodes(2, 999));
    let (a, b) = asker.join().unwrap();

    assert_eq!(a.status, Status::Ok);
    assert_eq!(b.status, Status::Ok);
    assert_eq!(a.paths, batch_a.paths);
    assert_eq!(b.paths, batch_b.paths);
}

/// Tracing and profiling must be pure observers: with `trace_sample: 1`
/// and the obs profile on, served paths are still byte-identical to an
/// untraced batch run, and the gathered trace log holds the request's
/// full admit → superstep(s) → complete timeline.
#[test]
fn traced_request_is_byte_identical_and_leaves_spans() {
    let graph = test_graph();
    let program = || Node2Vec::new(2.0, 0.5, 20);

    let batch = RandomWalkEngine::new(&graph, program(), WalkConfig::single_node(7))
        .run(WalkerStarts::Count(16));

    let cfg = ServiceConfig {
        trace_sample: 1,
        ..ServiceConfig::default()
    };
    let (service, handle) = WalkService::new(cfg);
    let client = handle.clone();
    let asker = thread::spawn(move || {
        let rx = client.submit(WalkRequest {
            seed: 7,
            starts: StartSpec::Count(16),
            deadline_ms: 0,
            stitch: false,
        });
        let resp = rx.recv().expect("service dropped the responder");
        client.shutdown();
        resp
    });
    let mut walk_cfg = WalkConfig::single_node(999);
    walk_cfg.profile = true;
    service.run(&graph, program(), walk_cfg);
    let resp = asker.join().unwrap();

    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.paths, batch.paths, "tracing must not perturb walks");

    // The trace log tells the request's whole story.
    let log = handle.trace_log();
    assert_eq!(log.dropped(), 0);
    let spans = log.spans();
    let admits: Vec<_> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanEventKind::Admit { .. }))
        .collect();
    assert_eq!(admits.len(), 1, "one traced request, one admit anchor");
    let trace_id = admits[0].trace;
    assert!(matches!(
        admits[0].kind,
        SpanEventKind::Admit { walkers: 16 }
    ));
    assert!(
        spans
            .iter()
            .any(|s| matches!(s.kind, SpanEventKind::Superstep { hops } if hops > 0)),
        "a 20-hop walk must record superstep spans"
    );
    let completed: u64 = spans
        .iter()
        .filter(|s| s.trace == trace_id)
        .map(|s| match s.kind {
            SpanEventKind::Complete { walkers } => walkers,
            _ => 0,
        })
        .sum();
    assert_eq!(completed, 16, "every admitted walker must complete");
    assert!(spans.iter().all(|s| s.trace == trace_id && s.node == 0));

    // The flat report sees the same life: one request admitted and
    // completed, a populated series, and the span count.
    let report = handle.report();
    assert_eq!(report.admitted, 1);
    assert_eq!(report.completed, 1);
    assert!(report.supersteps > 0);
    assert!(report.steps >= 16 * 20, "16 walkers × 20 hops of work");
    assert_eq!(report.spans, spans.len() as u64);
    assert_eq!(report.spans_dropped, 0);
    assert!(!report.series.is_empty());
    assert!(report.series.iter().any(|p| p.active_walkers > 0));
    // Exposition renders without panicking and names the request count.
    assert!(report
        .render_prometheus()
        .contains("kk_requests_completed_total 1"));
}

/// `trace_sample: 3` traces every third admission: the sampler is
/// deterministic (admission order), so exactly requests 0 and 3 of four
/// leave spans.
#[test]
fn trace_sampling_traces_every_nth_request() {
    let graph = test_graph();
    let cfg = ServiceConfig {
        trace_sample: 3,
        ..ServiceConfig::default()
    };
    let (service, handle) = WalkService::new(cfg);
    let client = handle.clone();
    let asker = thread::spawn(move || {
        let rxs: Vec<_> = (0..4)
            .map(|i| {
                client.submit(WalkRequest {
                    seed: i,
                    starts: StartSpec::Count(2),
                    deadline_ms: 0,
                    stitch: false,
                })
            })
            .collect();
        for rx in rxs {
            assert_eq!(rx.recv().unwrap().status, Status::Ok);
        }
        client.shutdown();
    });
    service.run(&graph, Fixed(6), WalkConfig::single_node(0));
    asker.join().unwrap();

    let log = handle.trace_log();
    let admits = log
        .spans()
        .iter()
        .filter(|s| matches!(s.kind, SpanEventKind::Admit { .. }))
        .count();
    assert_eq!(admits, 2, "admissions 0 and 3 of 4 are sampled at N=3");
    assert_eq!(handle.report().admitted, 4);
}

/// A full queue rejects immediately with the configured retry-after —
/// backpressure, not a hang.
#[test]
fn overflow_rejects_with_retry_after() {
    let cfg = ServiceConfig {
        queue_capacity: 1,
        retry_after_ms: 123,
        ..ServiceConfig::default()
    };
    let (service, handle) = WalkService::new(cfg);

    let req = || WalkRequest {
        seed: 1,
        starts: StartSpec::Count(4),
        deadline_ms: 0,
        stitch: false,
    };
    // Nothing is draining the queue yet, so the second submit overflows.
    let _rx_first = handle.submit(req());
    let rejected = handle.submit(req()).recv().unwrap();
    assert_eq!(
        rejected.status,
        Status::Rejected {
            retry_after_ms: 123
        }
    );
    assert!(rejected.paths.is_empty());
    assert_eq!(handle.stats().rejected, 1);

    // Drain so the service exits cleanly.
    handle.shutdown();
    service.run(&test_graph(), Fixed(3), WalkConfig::single_node(0));
}

/// An expired deadline force-terminates the request's walkers and
/// responds `DeadlineExceeded` while the service keeps running.
#[test]
fn expired_deadline_reports_deadline_exceeded() {
    let graph = test_graph();
    let (service, handle) = WalkService::new(ServiceConfig::default());
    let client = handle.clone();
    let asker = thread::spawn(move || {
        // A walk that would take ~forever, bounded by a 50ms deadline.
        let rx = client.submit(WalkRequest {
            seed: 3,
            starts: StartSpec::Count(4),
            deadline_ms: 50,
            stitch: false,
        });
        let overdue = rx.recv().unwrap();

        // The service must still admit fresh requests afterwards (this
        // one also expires — the program is endless — but its admission
        // and kill prove the loop survived the first force-terminate).
        let rx = client.submit(WalkRequest {
            seed: 3,
            starts: StartSpec::Explicit(vec![0]),
            deadline_ms: 50,
            stitch: false,
        });
        let after = rx.recv().unwrap();
        client.shutdown();
        (overdue, after)
    });
    service.run(&graph, Fixed(u32::MAX), WalkConfig::single_node(0));
    let (overdue, after) = asker.join().unwrap();

    assert_eq!(overdue.status, Status::DeadlineExceeded);
    assert!(overdue.paths.is_empty());
    assert_eq!(after.status, Status::DeadlineExceeded);
    assert_eq!(handle.stats().deadline_exceeded, 2);
}

/// Requests already queued when shutdown arrives are still served —
/// drain-then-exit, not drop.
#[test]
fn shutdown_drains_queued_requests() {
    let graph = test_graph();
    let batch = RandomWalkEngine::new(&graph, Fixed(5), WalkConfig::single_node(42))
        .run(WalkerStarts::Count(6));

    let (service, handle) = WalkService::new(ServiceConfig::default());
    let rx = handle.submit(WalkRequest {
        seed: 42,
        starts: StartSpec::Count(6),
        deadline_ms: 0,
        stitch: false,
    });
    // Shutdown lands before the service loop ever polls the queue.
    handle.shutdown();
    service.run(&graph, Fixed(5), WalkConfig::single_node(0));

    let resp = rx.recv().unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.paths, batch.paths);

    // Post-shutdown submissions are refused outright.
    let refused = handle
        .submit(WalkRequest {
            seed: 1,
            starts: StartSpec::Count(1),
            deadline_ms: 0,
            stitch: false,
        })
        .recv()
        .unwrap();
    assert_eq!(refused.status, Status::ShuttingDown);
}

/// Invalid start vertices are answered with an error naming the vertex,
/// without disturbing the service.
#[test]
fn invalid_start_names_the_offending_vertex() {
    let graph = test_graph(); // 96 vertices
    let (service, handle) = WalkService::new(ServiceConfig::default());
    let client = handle.clone();
    let asker = thread::spawn(move || {
        let rx = client.submit(WalkRequest {
            seed: 1,
            starts: StartSpec::Explicit(vec![3, 7, 4096]),
            deadline_ms: 0,
            stitch: false,
        });
        let bad = rx.recv().unwrap();

        let rx = client.submit(WalkRequest {
            seed: 1,
            starts: StartSpec::Count(2),
            deadline_ms: 0,
            stitch: false,
        });
        let good = rx.recv().unwrap();
        client.shutdown();
        (bad, good)
    });
    service.run(&graph, Fixed(4), WalkConfig::single_node(0));
    let (bad, good) = asker.join().unwrap();

    match bad.status {
        Status::Invalid(msg) => {
            assert!(msg.contains("4096"), "error should name the vertex: {msg}");
            assert!(msg.contains("96"), "error should name the bound: {msg}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert_eq!(good.status, Status::Ok);
}

/// A zero-walker request completes trivially with no paths.
#[test]
fn zero_walker_request_is_trivially_ok() {
    let graph = test_graph();
    let (service, handle) = WalkService::new(ServiceConfig::default());
    let client = handle.clone();
    let asker = thread::spawn(move || {
        let rx = client.submit(WalkRequest {
            seed: 1,
            starts: StartSpec::Count(0),
            deadline_ms: 0,
            stitch: false,
        });
        let resp = rx.recv().unwrap();
        client.shutdown();
        resp
    });
    service.run(&graph, Fixed(4), WalkConfig::single_node(0));
    let resp = asker.join().unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.paths.is_empty());

    let stats = handle.stats();
    assert_eq!(stats.completed, 1);
    assert!(stats.supersteps > 0);
    assert!(Duration::from_micros(stats.latency_us.max()) < Duration::from_secs(60));
}
