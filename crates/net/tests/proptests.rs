//! Property tests for the `Wire` codec round-trip contract, including
//! the serve protocol's REQ/RESP payloads.

use knightking_net::{from_bytes, to_bytes, Wire};
use knightking_serve::{Request, StartSpec, Status, WalkRequest, WalkResponse};
use proptest::prelude::*;

fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
    let bytes = to_bytes(&v).unwrap();
    assert_eq!(bytes.len(), v.wire_size(), "wire_size must be exact");
    assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
}

fn start_spec() -> impl Strategy<Value = StartSpec> {
    prop_oneof![
        any::<u64>().prop_map(StartSpec::Count),
        proptest::collection::vec(any::<u32>(), 0..8).prop_map(StartSpec::Explicit),
    ]
}

fn status() -> impl Strategy<Value = Status> {
    prop_oneof![
        Just(Status::Ok),
        any::<u64>().prop_map(|retry_after_ms| Status::Rejected { retry_after_ms }),
        Just(Status::DeadlineExceeded),
        Just(Status::ShuttingDown),
        ".{0,40}".prop_map(Status::Invalid),
    ]
}

proptest! {
    #[test]
    fn prop_u64_round_trip(v: u64) {
        round_trip(v);
    }

    #[test]
    fn prop_f64_round_trip(v in proptest::num::f64::NORMAL | proptest::num::f64::ZERO) {
        round_trip(v);
    }

    #[test]
    fn prop_vec_round_trip(v: Vec<u32>) {
        round_trip(v);
    }

    #[test]
    fn prop_nested_round_trip(v: Vec<(u64, Option<u32>)>) {
        round_trip(v);
    }

    #[test]
    fn prop_decode_never_panics_on_garbage(bytes: Vec<u8>) {
        // Arbitrary input must produce a value or an error — never panic.
        let _ = from_bytes::<Vec<(u64, Option<u32>, bool)>>(&bytes);
        let _ = from_bytes::<Option<u64>>(&bytes);
    }

    #[test]
    fn prop_serve_request_round_trip(
        seed: u64,
        starts in start_spec(),
        deadline_ms: u64,
        stitch: bool,
        shutdown: bool,
    ) {
        let req = if shutdown {
            Request::Shutdown
        } else {
            Request::Walk(WalkRequest { seed, starts, deadline_ms, stitch })
        };
        round_trip(req);
    }

    #[test]
    fn prop_serve_response_round_trip(
        status in status(),
        paths in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..6),
            0..6,
        ),
    ) {
        round_trip(WalkResponse { status, paths });
    }

    #[test]
    fn prop_serve_decode_never_panics_on_garbage(bytes: Vec<u8>) {
        let _ = from_bytes::<Request>(&bytes);
        let _ = from_bytes::<WalkResponse>(&bytes);
        let _ = from_bytes::<Status>(&bytes);
    }
}

// --- Adversarial chunking: incremental framing must agree with a ---
// --- whole-buffer decode no matter how the bytes arrive.          ---

use knightking_net::frame::{read_frame, split_frame, tag, write_frame, Frame};
use knightking_serve::protocol::{hello_bytes, split_hello, DEFAULT_TENANT};

/// One well-formed frame: any in-range tag, any seq, a small payload.
fn frame_parts() -> impl Strategy<Value = (u8, u64, Vec<u8>)> {
    (
        tag::DATA..=tag::RESP,
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..96),
    )
}

/// Encodes `frames` back-to-back the way a peer's socket would carry them.
fn encode_stream(frames: &[(u8, u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (t, seq, payload) in frames {
        write_frame(&mut out, *t, *seq, payload).unwrap();
    }
    out
}

/// Cuts `stream` into adversarial pieces: each piece's size comes from
/// `cuts` (cycled), so 1-byte trickles, split headers, and coalesced
/// frames all occur.
fn chunks<'a>(stream: &'a [u8], cuts: &'a [usize]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let (mut pos, mut i) = (0usize, 0usize);
    while pos < stream.len() {
        let n = cuts[i % cuts.len()].max(1).min(stream.len() - pos);
        out.push(&stream[pos..pos + n]);
        pos += n;
        i += 1;
    }
    out
}

/// Drains every complete frame currently in `buf`.
fn drain_frames(buf: &mut Vec<u8>) -> Vec<Frame> {
    let mut out = Vec::new();
    while let Some((frame, used)) = split_frame(buf).unwrap() {
        buf.drain(..used);
        out.push(frame);
    }
    out
}

proptest! {
    #[test]
    fn prop_chunked_split_frame_agrees_with_read_frame(
        frames in proptest::collection::vec(frame_parts(), 1..6),
        cuts in proptest::collection::vec(1usize..32, 1..24),
    ) {
        let stream = encode_stream(&frames);

        // Ground truth: the blocking reader over the whole stream.
        let mut cursor = std::io::Cursor::new(stream.clone());
        let whole: Vec<Frame> =
            (0..frames.len()).map(|_| read_frame(&mut cursor).unwrap()).collect();

        // Incremental: feed adversarial chunks, draining after each.
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for chunk in chunks(&stream, &cuts) {
            buf.extend_from_slice(chunk);
            got.extend(drain_frames(&mut buf));
        }
        prop_assert!(buf.is_empty(), "complete stream must be fully consumed");
        prop_assert_eq!(got, whole);
    }

    #[test]
    fn prop_chunked_hello_then_frames_decodes_identically(
        tenant in "[A-Za-z0-9._-]{0,64}",
        frames in proptest::collection::vec(frame_parts(), 0..4),
        cuts in proptest::collection::vec(1usize..16, 1..24),
    ) {
        let mut stream = hello_bytes(&tenant).unwrap();
        stream.extend_from_slice(&encode_stream(&frames));
        let want_tenant = if tenant.is_empty() { DEFAULT_TENANT } else { &tenant };

        let mut buf: Vec<u8> = Vec::new();
        let mut seen_tenant: Option<String> = None;
        let mut got = Vec::new();
        for chunk in chunks(&stream, &cuts) {
            buf.extend_from_slice(chunk);
            if seen_tenant.is_none() {
                if let Some((t, used)) = split_hello(&buf).unwrap() {
                    buf.drain(..used);
                    seen_tenant = Some(t);
                }
            }
            if seen_tenant.is_some() {
                got.extend(drain_frames(&mut buf));
            }
        }
        prop_assert_eq!(seen_tenant.as_deref(), Some(want_tenant));
        prop_assert!(buf.is_empty());
        prop_assert_eq!(got.len(), frames.len());
        for (g, (t, seq, payload)) in got.iter().zip(&frames) {
            prop_assert_eq!(g.tag, *t);
            prop_assert_eq!(g.seq, *seq);
            prop_assert_eq!(&g.payload, payload);
        }
    }

    #[test]
    fn prop_split_parsers_never_panic_on_garbage(bytes: Vec<u8>) {
        // Arbitrary prefixes must yield Some, None, or Err — never panic,
        // and never consume more than the buffer holds.
        if let Ok(Some((_, used))) = split_frame(&bytes) {
            prop_assert!(used <= bytes.len());
        }
        if let Ok(Some((_, used))) = split_hello(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }
}
