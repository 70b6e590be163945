//! Panic-freedom fuzzing for the GIOP decode paths (detlint R3's dynamic
//! counterpart): every decoder entry point must return a typed error —
//! never panic — on truncated, bit-flipped, or outright arbitrary input.

use proptest::prelude::*;

use giop::*;

fn arb_endian() -> impl Strategy<Value = Endian> {
    prop_oneof![Just(Endian::Big), Just(Endian::Little)]
}

/// A representative well-formed message of every shape the simulator
/// sends, to serve as the mutation baseline.
fn arb_valid_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u32>(),
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 1..40),
            "[a-z_][a-z0-9_]{0,20}",
            prop::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(|(request_id, response_expected, key, operation, body)| {
                Message::Request(RequestMessage {
                    request_id,
                    response_expected,
                    object_key: ObjectKey::from_bytes(key),
                    operation,
                    body,
                })
            }),
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..40)).prop_map(|(request_id, body)| {
            Message::Reply(ReplyMessage {
                request_id,
                body: ReplyBody::NoException(body),
            })
        }),
        (
            any::<u32>(),
            "[A-Za-z0-9:/._-]{1,30}",
            any::<u32>(),
            0u32..3
        )
            .prop_map(|(request_id, repo_id, minor, completed)| Message::Reply(
                ReplyMessage {
                    request_id,
                    body: ReplyBody::SystemException {
                        repo_id,
                        minor,
                        completed,
                    },
                }
            )),
        Just(Message::CloseConnection),
        Just(Message::MessageError),
    ]
}

proptest! {
    /// Every prefix of a valid frame decodes to a typed error (or, for the
    /// full frame, the original message) without panicking.
    #[test]
    fn truncation_at_every_length_is_a_typed_error(
        msg in arb_valid_message(),
        endian in arb_endian(),
    ) {
        let wire = msg.encode(endian);
        for cut in 0..wire.len() {
            prop_assert!(
                Message::decode(&wire[..cut]).is_err(),
                "truncated frame ({cut}/{} bytes) decoded successfully",
                wire.len()
            );
        }
        prop_assert!(Message::decode(&wire).is_ok());
    }

    /// Flipping any single byte of a valid frame never panics the decoder.
    /// (It may still decode: most body bytes are opaque payload.)
    #[test]
    fn single_byte_mutation_never_panics(
        msg in arb_valid_message(),
        endian in arb_endian(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let wire = msg.encode(endian).to_vec();
        let pos = pos_seed % wire.len();
        let mut mutated = wire;
        mutated[pos] ^= xor;
        let _ = Message::decode(&mutated);
    }

    /// The frame splitter survives arbitrary garbage pushed in arbitrary
    /// chunks: it either yields frames or a typed error, and any yielded
    /// frame feeds into `Message::decode` without panicking.
    #[test]
    fn splitter_never_panics_on_garbage(
        stream in prop::collection::vec(any::<u8>(), 0..512),
        chunk_sizes in prop::collection::vec(1usize..48, 1..32),
    ) {
        let mut splitter = FrameSplitter::new();
        let mut offset = 0;
        let mut chunks = chunk_sizes.iter().cycle();
        'outer: while offset < stream.len() {
            let n = (*chunks.next().unwrap()).min(stream.len() - offset);
            splitter.push(&stream[offset..offset + n]);
            offset += n;
            loop {
                match splitter.next_frame() {
                    Ok(Some(frame)) => {
                        let _ = frame.msg_type();
                        let _ = frame.body();
                        let _ = Message::decode(&frame.bytes);
                    }
                    Ok(None) => break,
                    // A corrupt stream is fatal for the connection; the
                    // splitter must not be pumped further.
                    Err(_) => break 'outer,
                }
            }
        }
    }

    /// The CDR reader never panics under an arbitrary sequence of read
    /// operations over arbitrary bytes.
    #[test]
    fn cdr_reader_never_panics(
        buf in prop::collection::vec(any::<u8>(), 0..128),
        ops in prop::collection::vec(0u8..8, 1..24),
        endian in arb_endian(),
    ) {
        let mut r = CdrReader::new(&buf, endian);
        for op in ops {
            match op {
                0 => { let _ = r.read_u8(); }
                1 => { let _ = r.read_bool(); }
                2 => { let _ = r.read_u16(); }
                3 => { let _ = r.read_u32(); }
                4 => { let _ = r.read_u64(); }
                5 => { let _ = r.read_f64(); }
                6 => { let _ = r.read_string(); }
                _ => { let _ = r.read_octets(); }
            }
            let _ = r.remaining();
        }
    }

    /// IOR decoding never panics on arbitrary bytes, and always errors on
    /// strict prefixes of a valid encoding.
    #[test]
    fn ior_decode_never_panics(
        type_id in "[A-Za-z0-9:/._-]{1,30}",
        host in "[a-z0-9.-]{1,20}",
        port in any::<u16>(),
        key in prop::collection::vec(any::<u8>(), 1..40),
        garbage in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let ior = Ior {
            type_id,
            profiles: vec![IiopProfile {
                version_major: 1,
                version_minor: 0,
                host,
                port,
                object_key: ObjectKey::from_bytes(key),
            }],
        };
        let wire = ior.encode();
        for cut in 0..wire.len() {
            prop_assert!(Ior::decode(&wire[..cut]).is_err());
        }
        prop_assert!(Ior::decode(&wire).is_ok());
        let _ = Ior::decode(&garbage);
    }
}
