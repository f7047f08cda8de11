//! The byte layout of `Msg<P>`, the one type every engine exchange
//! carries between ranks.
//!
//! A node2vec-shaped program (`Data = ()`, `Query = VertexId`,
//! `Answer = bool`) fixes the generic parts. The expected bytes were
//! captured before local queries were answered inline: one tag byte
//! (0 = `Move`, 1 = `Query`, 2 = `Answer`), then the variant's fields in
//! declaration order, little-endian, unpadded. Hostile input — a cut
//! frame, an unknown tag — is a typed error, never a panic.

use std::io::ErrorKind;

use knightking_core::{DeterministicRng, Msg, VertexId, Walker, WalkerProgram};
use knightking_net::{from_bytes, to_bytes, Wire};

struct Node2VecShaped;
impl WalkerProgram for Node2VecShaped {
    type Data = ();
    type Query = VertexId;
    type Answer = bool;
    const SECOND_ORDER: bool = true;
    fn init_data(&self, _id: u64, _start: VertexId) {}
    fn should_terminate(&self, _w: &mut Walker<()>) -> bool {
        true
    }
}

type M = Msg<Node2VecShaped>;

/// `msg` encodes to exactly `golden`, sizes itself correctly, survives a
/// round trip, and every strict prefix is an `UnexpectedEof`.
fn pins(msg: &M, golden: &[u8]) {
    let bytes = to_bytes(msg).unwrap();
    assert_eq!(bytes, golden);
    assert_eq!(msg.wire_size(), bytes.len());
    // `Msg` has no `PartialEq`: equal values re-encode to equal bytes.
    let back: M = from_bytes(&bytes).unwrap();
    assert_eq!(to_bytes(&back).unwrap(), golden);
    for cut in 0..bytes.len() {
        let err = from_bytes::<M>(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes decoded"));
        assert_eq!(
            err.kind(),
            ErrorKind::UnexpectedEof,
            "prefix of {cut} bytes"
        );
    }
}

#[test]
fn move_bytes_are_pinned() {
    let walker = Walker {
        id: 0x0102_0304_0506_0708,
        current: 0x1112_1314,
        prev: Some(0x2122_2324),
        step: 0x3132_3334,
        tag: 0x4142_4344_4546_4748,
        epoch: 0x5152_5354_5556_5758,
        rng: DeterministicRng::from_state([1, 2, 3, 0x6162_6364_6566_6768]),
        data: (),
    };
    let mut golden = vec![0u8]; // tag: Move
    golden.extend(0x0102_0304_0506_0708u64.to_le_bytes());
    golden.extend(0x1112_1314u32.to_le_bytes());
    golden.push(1); // prev: Some
    golden.extend(0x2122_2324u32.to_le_bytes());
    golden.extend(0x3132_3334u32.to_le_bytes());
    golden.extend(0x4142_4344_4546_4748u64.to_le_bytes());
    golden.extend(0x5152_5354_5556_5758u64.to_le_bytes());
    for word in [1u64, 2, 3, 0x6162_6364_6566_6768] {
        golden.extend(word.to_le_bytes());
    }
    assert_eq!(golden.len(), 70);
    pins(&Msg::Move(walker), &golden);
}

#[test]
fn move_without_history_is_four_bytes_shorter() {
    let mut walker: Walker<()> = Walker::new(7, 9, 11, ());
    let with = {
        walker.prev = Some(3);
        to_bytes(&M::Move(walker.clone())).unwrap()
    };
    walker.prev = None;
    let without = to_bytes(&M::Move(walker)).unwrap();
    assert_eq!(with.len(), without.len() + 4);
    assert_eq!(without[13], 0, "prev: None is a lone zero tag");
}

#[test]
fn query_bytes_are_pinned() {
    let msg = M::Query {
        from: 0x0102_0304,
        slot: 0x1112_1314,
        tag: 0x2122_2324,
        target: 0x3132_3334,
        epoch: 0x4142_4344_4546_4748,
        payload: 0x5152_5354,
    };
    let mut golden = vec![1u8]; // tag: Query
    golden.extend(0x0102_0304u32.to_le_bytes());
    golden.extend(0x1112_1314u32.to_le_bytes());
    golden.extend(0x2122_2324u32.to_le_bytes());
    golden.extend(0x3132_3334u32.to_le_bytes());
    golden.extend(0x4142_4344_4546_4748u64.to_le_bytes());
    golden.extend(0x5152_5354u32.to_le_bytes());
    assert_eq!(golden.len(), 29);
    pins(&msg, &golden);
}

#[test]
fn answer_bytes_are_pinned() {
    let msg = M::Answer {
        slot: 0x0102_0304,
        tag: 0x1112_1314,
        payload: true,
    };
    let mut golden = vec![2u8]; // tag: Answer
    golden.extend(0x0102_0304u32.to_le_bytes());
    golden.extend(0x1112_1314u32.to_le_bytes());
    golden.push(1);
    assert_eq!(golden.len(), 10);
    pins(&msg, &golden);
}

#[test]
fn unknown_tags_are_typed_errors() {
    // A full-size body behind the tag: the tag alone must decide.
    let body = [0u8; 80];
    for tag in 3..=255u8 {
        let mut bytes = vec![tag];
        bytes.extend(body);
        let err = from_bytes::<M>(&bytes)
            .err()
            .unwrap_or_else(|| panic!("tag {tag} decoded"));
        assert_eq!(err.kind(), ErrorKind::InvalidData, "tag {tag}");
        assert!(
            err.to_string().contains("invalid Msg tag"),
            "tag {tag}: {err}"
        );
    }
}

#[test]
fn corrupt_fields_behind_a_valid_tag_are_typed_errors() {
    // Move with an all-zero rng state, Move with a bad `prev` tag, Answer
    // with a bool byte of 2.
    let walker: Walker<()> = Walker::new(1, 2, 3, ());
    let mut zero_rng = to_bytes(&M::Move(walker.clone())).unwrap();
    let rng_at = 1 + 8 + 4 + 1 + 4 + 8 + 8;
    zero_rng[rng_at..rng_at + 32].fill(0);
    let mut bad_prev = to_bytes(&M::Move(walker)).unwrap();
    bad_prev[1 + 8 + 4] = 9;
    let bad_bool = [2u8, 0, 0, 0, 0, 0, 0, 0, 0, 2];
    for bytes in [&zero_rng[..], &bad_prev[..], &bad_bool[..]] {
        let err = from_bytes::<M>(bytes).err().expect("corrupt field decoded");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
}
