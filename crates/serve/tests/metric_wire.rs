//! The byte layout of the stats a `Request::Stats` client receives
//! (KKSV v6): `SeriesPoint` and `StatsReport`. The expected bytes were
//! captured before the scalar sets were declared through `metric_set!`;
//! a client built from another commit of v6 must keep decoding them.

use std::io::ErrorKind;

use knightking_net::{from_bytes, to_bytes, Wire};
use knightking_serve::stats::{SeriesPoint, TenantStat};
use knightking_serve::{protocol::SERVE_VERSION, StatsReport};

/// `values`, each as 8 little-endian bytes, back to back.
fn le_u64s(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// `value` encodes to exactly `golden` and decodes back; every strict
/// prefix of the encoding is a typed `UnexpectedEof`, never a panic.
fn pins<T: Wire + PartialEq + std::fmt::Debug>(value: &T, golden: &[u8]) {
    let bytes = to_bytes(value).unwrap();
    assert_eq!(bytes, golden);
    assert_eq!(bytes.len(), value.wire_size());
    assert_eq!(&from_bytes::<T>(&bytes).unwrap(), value);
    for cut in 0..bytes.len() {
        let err = from_bytes::<T>(&bytes[..cut]).unwrap_err();
        assert_eq!(
            err.kind(),
            ErrorKind::UnexpectedEof,
            "prefix of {cut} bytes"
        );
    }
}

const POINT: SeriesPoint = SeriesPoint {
    superstep: 39,
    active_walkers: 12,
    queue_depth: 3,
    admitted: 10,
    completed: 8,
};

#[test]
fn series_point_bytes_are_pinned() {
    pins(&POINT, &le_u64s(&[39, 12, 3, 10, 8]));
}

/// Fills every scalar with its 1-based position on the wire.
fn fill(r: &mut StatsReport) {
    r.admitted = 1;
    r.completed = 2;
    r.rejected = 3;
    r.shed = 4;
    r.deadline_exceeded = 5;
    r.updates = 6;
    r.supersteps = 7;
    r.active_walkers = 8;
    r.queue_len = 9;
    r.epoch = 10;
    r.pinned_lag = 11;
    r.steps = 12;
    r.trials = 13;
    r.exchange_bytes = 14;
    r.sampler_rebuilds = 15;
    r.sampler_rebuild_cost = 16;
    r.latency_p50_us = 17;
    r.latency_p99_us = 18;
    r.latency_max_us = 19;
    r.latency_count = 20;
    r.latency_sum_us = 21;
    r.spans = 22;
    r.spans_dropped = 23;
    r.phase_ns = [31, 32, 33, 34, 35, 36, 37, 38, 39];
    r.series = vec![POINT];
    r.tenants = vec![TenantStat {
        name: "pro".into(),
        weight: 4,
        queued: 41,
        admitted: 42,
        completed: 43,
        rejected: 44,
        shed: 45,
    }];
}

#[test]
fn stats_report_bytes_are_pinned() {
    assert_eq!(SERVE_VERSION, 6, "a new layout needs a new KKSV version");
    let mut r = StatsReport::default();
    fill(&mut r);
    let mut golden = le_u64s(&(1..=23).collect::<Vec<u64>>());
    golden.extend(le_u64s(&[31, 32, 33, 34, 35, 36, 37, 38, 39]));
    golden.extend(1u32.to_le_bytes()); // series length
    golden.extend(le_u64s(&[39, 12, 3, 10, 8]));
    golden.extend(1u32.to_le_bytes()); // tenants length
    golden.extend(3u32.to_le_bytes()); // tenant name length
    golden.extend(b"pro");
    golden.extend(4u32.to_le_bytes()); // weight
    golden.extend(le_u64s(&[41, 42, 43, 44, 45]));
    pins(&r, &golden);
}
