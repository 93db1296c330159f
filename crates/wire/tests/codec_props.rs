//! Property tests for the wire codecs: `Request`, `Response` and the
//! replication stream's `ReplMsg`, on well-formed, truncated,
//! bit-flipped and random payloads.
//!
//! The decoders accept exactly what the encoders produce, so every
//! payload must either decode to `None` or to a message that re-encodes
//! to the very same bytes — and no payload may make a decoder panic.

use hcc_wire::msg::{OpResult, Request, Response, TypeTag, View, WireFault, WireMsg, WireOp};
use hcc_wire::repl::ReplMsg;
use proptest::prelude::*;
use std::fmt::Debug;

/// Names and prose mix one-, two- and three-byte UTF-8 characters, so a
/// cut or a flipped bit can land inside a character.
fn text() -> impl Strategy<Value = String> {
    const CHARS: [char; 8] = ['a', 'q', 'Z', '0', '-', ' ', 'é', '✓'];
    prop::collection::vec(0usize..CHARS.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..max)
}

fn int() -> impl Strategy<Value = i64> {
    prop_oneof![-3i64..4, i64::MIN..i64::MAX]
}

fn tag() -> impl Strategy<Value = TypeTag> {
    (0u8..3).prop_map(|i| [TypeTag::Account, TypeTag::Counter, TypeTag::QueueI64][i as usize])
}

fn wire_op() -> impl Strategy<Value = WireOp> {
    prop_oneof![
        (text(), int()).prop_map(|(name, amount)| WireOp::Credit { name, amount }),
        (text(), int()).prop_map(|(name, amount)| WireOp::Debit { name, amount }),
        (text(), int()).prop_map(|(name, delta)| WireOp::Inc { name, delta }),
        (text(), int()).prop_map(|(name, item)| WireOp::Enq { name, item }),
        text().prop_map(|name| WireOp::Deq { name }),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0u32..u32::MAX, text(), 0u32..64).prop_map(|(version, token, max_in_flight)| {
            Request::Hello { version, token, max_in_flight }
        }),
        (tag(), text()).prop_map(|(tag, name)| Request::Open { tag, name }),
        prop::collection::vec(wire_op(), 0..6).prop_map(|ops| Request::Transact { ops }),
        (0u8..2, 0u64..u64::MAX, prop::collection::vec((tag(), text()), 0..5)).prop_map(
            |(has_at, ts, queries)| Request::Read { at: (has_at == 1).then_some(ts), queries }
        ),
        (0u8..3).prop_map(|i| [Request::Shutdown, Request::Goodbye, Request::Stats][i as usize]
            .clone()),
    ]
}

fn fault() -> impl Strategy<Value = WireFault> {
    prop_oneof![
        (0u32..u32::MAX, 0u32..u32::MAX)
            .prop_map(|(server, client)| WireFault::VersionMismatch { server, client }),
        (0u32..u32::MAX, 0u32..u32::MAX)
            .prop_map(|(in_flight, cap)| WireFault::Overloaded { in_flight, cap }),
        text().prop_map(|object| WireFault::TypeMismatch { object }),
        (0u64..u64::MAX, 0u64..u64::MAX)
            .prop_map(|(requested, floor)| WireFault::SnapshotCompacted { requested, floor }),
        (0u64..u64::MAX).prop_map(|requested| WireFault::SnapshotContended { requested }),
        text().prop_map(|detail| WireFault::Transient { detail }),
        text().prop_map(|detail| WireFault::Fatal { detail }),
        (0u8..2).prop_map(|i| [WireFault::BadToken, WireFault::ShuttingDown][i as usize].clone()),
    ]
}

fn op_result() -> impl Strategy<Value = OpResult> {
    prop_oneof![
        (0u8..1).prop_map(|_| OpResult::Unit),
        (0u8..2).prop_map(|b| OpResult::Debited(b == 1)),
        int().prop_map(OpResult::Int),
    ]
}

fn view() -> impl Strategy<Value = View> {
    prop_oneof![
        (int(), 1i64..i64::MAX).prop_map(|(num, den)| View::Balance { num, den }),
        int().prop_map(View::Count),
        prop::collection::vec(int(), 0..6).prop_map(View::Items),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u32..u32::MAX, 0u64..u64::MAX, 0u32..64).prop_map(|(version, session, max_in_flight)| {
            Response::Welcome { version, session, max_in_flight }
        }),
        (0u64..u64::MAX, prop::collection::vec(op_result(), 0..6))
            .prop_map(|(ts, results)| Response::Committed { ts, results }),
        (0u64..u64::MAX, prop::collection::vec(view(), 0..4))
            .prop_map(|(watermark, views)| Response::Views { watermark, views }),
        fault().prop_map(Response::Fault),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX).prop_map(
            |(watermark, committed, aborted)| Response::Stats { watermark, committed, aborted }
        ),
        (0u8..2).prop_map(|i| [Response::OpenOk, Response::Bye][i as usize].clone()),
    ]
}

fn repl_msg() -> impl Strategy<Value = ReplMsg> {
    prop_oneof![
        (0u32..u32::MAX, text(), 0u64..u64::MAX).prop_map(|(version, token, last_ticket)| {
            ReplMsg::Hello { version, token, last_ticket }
        }),
        (0u32..u32::MAX, 0u64..u64::MAX)
            .prop_map(|(version, frontier)| ReplMsg::Welcome { version, frontier }),
        (0u64..u64::MAX, 0u64..u64::MAX, bytes(64))
            .prop_map(|(watermark, ticket, frames)| ReplMsg::Batch { watermark, ticket, frames }),
        (0u64..u64::MAX).prop_map(|ticket| ReplMsg::Ack { ticket }),
        text().prop_map(|detail| ReplMsg::Fault { detail }),
    ]
}

fn encode<M: WireMsg>(msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode_payload(&mut out);
    out
}

/// `bytes` decodes to nothing, or to a message whose encoding is `bytes`.
fn decodes_canonically<M: WireMsg + Debug>(bytes: &[u8]) {
    if let Some(msg) = M::decode_payload(bytes) {
        assert_eq!(encode(&msg), bytes, "{msg:?} was decoded from bytes it does not encode to");
    }
}

/// The full property for one generated message: it round-trips, every
/// cut of its encoding decodes canonically or not at all (a proper
/// prefix never decodes), and so does every bit-flipped copy.
fn check<M: WireMsg + PartialEq + Debug>(msg: &M, cut: usize, flips: &[(usize, u8)]) {
    let buf = encode(msg);
    assert_eq!(M::decode_payload(&buf).as_ref(), Some(msg), "roundtrip");
    let cut = cut % buf.len();
    assert_eq!(M::decode_payload(&buf[..cut]), None, "a {cut}-byte prefix of {msg:?} decoded");
    let mut flipped = buf.clone();
    for &(at, bit) in flips {
        flipped[at % buf.len()] ^= 1 << bit;
    }
    decodes_canonically::<M>(&flipped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_roundtrip_and_resist_cuts_and_flips(
        msg in request(),
        cut in 0usize..1 << 16,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 1..4),
    ) {
        check(&msg, cut, &flips);
    }

    #[test]
    fn responses_roundtrip_and_resist_cuts_and_flips(
        msg in response(),
        cut in 0usize..1 << 16,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 1..4),
    ) {
        check(&msg, cut, &flips);
    }

    #[test]
    fn repl_messages_roundtrip_and_resist_cuts_and_flips(
        msg in repl_msg(),
        cut in 0usize..1 << 16,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 1..4),
    ) {
        check(&msg, cut, &flips);
    }

    /// Random payloads behind a plausible tag byte, so the decoders get
    /// past the tag dispatch into the field parsing.
    #[test]
    fn random_payloads_decode_canonically_or_not_at_all(tag in 0u8..10, body in bytes(48)) {
        let mut payload = vec![tag];
        payload.extend_from_slice(&body);
        decodes_canonically::<Request>(&payload);
        decodes_canonically::<Response>(&payload);
        decodes_canonically::<ReplMsg>(&payload);
    }
}
