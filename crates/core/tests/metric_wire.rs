//! The byte layout of the counter sets that cross a process boundary.
//!
//! `WalkMetrics` rides the end-of-run result gather (KKNT) and
//! `LiveSample` rides every serve delta; ranks built from different
//! commits must agree on both. The expected bytes below were captured
//! before the sets were declared through `metric_set!`: every value is a
//! little-endian `u64`, in the order listed, nothing else on the wire.

use std::io::ErrorKind;

use knightking_core::{LiveSample, WalkMetrics};
use knightking_net::{from_bytes, to_bytes, Wire};

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

#[test]
fn walk_metrics_bytes_are_pinned() {
    let m = WalkMetrics {
        steps: 0x0101,
        edges_evaluated: 0x0202,
        trials: 0x0303,
        pre_accepts: 0x0404,
        appendix_hits: 0x0505,
        fallback_scans: 0x0606,
        queries: 0x0707,
        finished_walkers: 0x0808,
        iterations: 0x0909,
        sampler_rebuilds: 0x0a0a,
        sampler_rebuild_cost: u64::MAX,
    };
    pins(
        &m,
        &le_u64s(&[
            0x0101,
            0x0202,
            0x0303,
            0x0404,
            0x0505,
            0x0606,
            0x0707,
            0x0808,
            0x0909,
            0x0a0a,
            u64::MAX,
        ]),
    );
}

#[test]
fn live_sample_bytes_are_pinned() {
    let s = LiveSample {
        active: 3,
        steps: 100,
        trials: 40,
        exchange_bytes: 1 << 40,
        sampler_rebuilds: 4,
        sampler_rebuild_cost: 64,
        phase_ns: [11, 12, 13, 14, 15, 16, 17, 18, 19],
    };
    pins(
        &s,
        &le_u64s(&[
            3,
            100,
            40,
            1 << 40,
            4,
            64,
            11,
            12,
            13,
            14,
            15,
            16,
            17,
            18,
            19,
        ]),
    );
}
