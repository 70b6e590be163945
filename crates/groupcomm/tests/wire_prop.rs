//! Property tests for the group-communication wire format.

use proptest::prelude::*;

use groupcomm::{GcsSplitter, GcsWire, MAX_FRAME};
use obs::CodecError;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/_.-]{1,40}"
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..200)
}

fn arb_members() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_name(), 0..8)
}

fn arb_msg() -> impl Strategy<Value = GcsWire> {
    prop_oneof![
        arb_name().prop_map(|member| GcsWire::Attach { member }),
        arb_name().prop_map(|group| GcsWire::Join { group }),
        arb_name().prop_map(|group| GcsWire::Leave { group }),
        (arb_name(), arb_payload())
            .prop_map(|(group, payload)| GcsWire::Multicast { group, payload }),
        Just(GcsWire::Attached),
        (arb_name(), any::<u64>(), arb_members()).prop_map(|(group, view_id, members)| {
            GcsWire::View {
                group,
                view_id,
                members,
            }
        }),
        (arb_name(), arb_name(), arb_payload()).prop_map(|(group, sender, payload)| {
            GcsWire::Deliver {
                group,
                sender,
                payload,
            }
        }),
        any::<u32>().prop_map(|node| GcsWire::Hello { node }),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(group, member, daemon)| {
            GcsWire::FwdJoin {
                group,
                member,
                daemon,
            }
        }),
        (arb_name(), arb_name()).prop_map(|(group, member)| GcsWire::FwdLeave { group, member }),
        (arb_name(), arb_name(), arb_payload()).prop_map(|(group, sender, payload)| {
            GcsWire::FwdMulticast {
                group,
                sender,
                payload,
            }
        }),
        (any::<u64>(), arb_name(), any::<u64>(), arb_members()).prop_map(
            |(seq, group, view_id, members)| GcsWire::OrdView {
                seq,
                group,
                view_id,
                members
            }
        ),
        (any::<u64>(), arb_name(), arb_name(), arb_payload()).prop_map(
            |(seq, group, sender, payload)| GcsWire::OrdDeliver {
                seq,
                group,
                sender,
                payload
            }
        ),
        prop::collection::vec(any::<u8>(), 0..128).prop_map(|pad| GcsWire::Heartbeat { pad }),
    ]
}

proptest! {
    #[test]
    fn every_message_roundtrips(msg in arb_msg()) {
        let framed = msg.encode();
        let mut s = GcsSplitter::new();
        s.push(&framed);
        prop_assert_eq!(s.next_message().expect("decodes").expect("complete"), msg);
    }

    #[test]
    fn splitter_reassembles_under_arbitrary_chunking(
        msgs in prop::collection::vec(arb_msg(), 1..8),
        chunks in prop::collection::vec(1usize..64, 1..32),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode());
        }
        let mut s = GcsSplitter::new();
        let mut got = Vec::new();
        let mut offset = 0;
        let mut it = chunks.iter().cycle();
        while offset < stream.len() {
            let n = (*it.next().expect("cycle")).min(stream.len() - offset);
            s.push(&stream[offset..offset + n]);
            offset += n;
            while let Some(m) = s.next_message().expect("valid stream") {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn decoder_never_panics_on_noise(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = GcsWire::decode(&bytes);
        let mut s = GcsSplitter::new();
        s.push(&bytes);
        // Either a message, None (incomplete) or a decode error — no panic.
        while let Ok(Some(_)) = s.next_message() {}
    }
}

/// What a GCS splitter yields while a stream is fed to it (see the GIOP
/// twin in `crates/giop/tests/proptests.rs`).
#[derive(Debug, PartialEq)]
enum Split {
    Message(GcsWire),
    Error(CodecError),
}

/// Feeds `stream` in segments of `chunks` (cycled), each by copy or as a
/// view of one shared receive buffer according to `zero_copy` (cycled).
fn split_stream(stream: &[u8], chunks: &[usize], zero_copy: &[bool]) -> Vec<Split> {
    let shared = bytes::Bytes::copy_from_slice(stream);
    let mut s = GcsSplitter::new();
    let mut out = Vec::new();
    let mut offset = 0;
    for (&n, &by_view) in chunks.iter().cycle().zip(zero_copy.iter().cycle()) {
        if offset >= stream.len() {
            break;
        }
        let end = (offset + n).min(stream.len());
        if by_view {
            s.push_bytes(shared.slice(offset..end));
        } else {
            s.push(&stream[offset..end]);
        }
        offset = end;
        loop {
            match s.next_message() {
                Ok(Some(m)) => out.push(Split::Message(m)),
                Ok(None) => break,
                Err(e) => {
                    out.push(Split::Error(e));
                    return out;
                }
            }
        }
    }
    out
}

/// Valid frames, then optionally a tail that is corrupt: an oversize
/// length prefix, or arbitrary bytes.
fn arb_gcs_stream() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(arb_msg(), 0..6),
        0u8..3,
        prop::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(msgs, tail, garbage)| {
            let mut stream = Vec::new();
            for m in &msgs {
                stream.extend_from_slice(&m.encode());
            }
            match tail {
                0 => {}
                1 => stream.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes()),
                _ => stream.extend_from_slice(&garbage),
            }
            stream
        })
}

proptest! {
    /// The zero-copy path is observationally the copying path: identical
    /// messages and identical errors (`Oversize`, decode errors) for every
    /// segmentation and every mix of copied and shared segments.
    #[test]
    fn zero_copy_splitting_matches_the_copying_path(
        stream in arb_gcs_stream(),
        chunks in prop::collection::vec(1usize..80, 1..16),
        mix in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let copied = split_stream(&stream, &chunks, &[false]);
        prop_assert_eq!(&split_stream(&stream, &chunks, &[true]), &copied);
        prop_assert_eq!(&split_stream(&stream, &chunks, &mix), &copied);
    }
}
