//! Wire-format round-trips for edge-case metadata: one segment, the
//! maximum planned segments, and an empty payload — plus corruption cases
//! that must surface as `RecoilError::Wire`, never as a panic.

use recoil::prelude::*;

fn codec(max_segments: u64) -> Codec {
    Codec::builder().max_segments(max_segments).build().unwrap()
}

fn roundtrip(meta: &RecoilMetadata) -> RecoilMetadata {
    let bytes = metadata_to_bytes(meta);
    metadata_from_bytes(&bytes).unwrap()
}

#[test]
fn one_segment_metadata_round_trips() {
    let data: Vec<u8> = (0..50_000u32).map(|i| (i % 97) as u8).collect();
    let encoded = codec(1).encode(&data).unwrap();
    let meta = &encoded.container.metadata;
    assert_eq!(meta.num_segments(), 1);
    assert!(meta.splits.is_empty());
    assert_eq!(&roundtrip(meta), meta);
}

#[test]
fn max_segments_metadata_round_trips() {
    let data = recoil::data::exponential_bytes(400_000, 50.0, 9);
    let encoded = codec(512).encode(&data).unwrap();
    let meta = &encoded.container.metadata;
    assert!(
        meta.num_segments() > 256,
        "planner placed {}",
        meta.num_segments()
    );
    assert_eq!(&roundtrip(meta), meta);
}

#[test]
fn empty_payload_metadata_round_trips() {
    let encoded = codec(8).encode(&[]).unwrap();
    let meta = &encoded.container.metadata;
    assert_eq!(meta.num_symbols, 0);
    assert_eq!(meta.num_segments(), 1);
    assert_eq!(&roundtrip(meta), meta);
}

#[test]
fn corrupted_bytes_return_wire_error_not_panic() {
    let data = recoil::data::text_like_bytes(100_000, 5.0, 10);
    let encoded = codec(16).encode(&data).unwrap();
    let bytes = metadata_to_bytes(&encoded.container.metadata);

    // Bad magic.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        metadata_from_bytes(&bad_magic),
        Err(RecoilError::Wire { .. })
    ));

    // Every single-byte corruption either parses to valid metadata or is a
    // Wire error — never a panic, never a decode-layer error.
    for at in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[at] ^= 0x55;
        match metadata_from_bytes(&mutated) {
            Ok(meta) => meta.validate().unwrap(),
            Err(RecoilError::Wire { .. }) => {}
            Err(other) => panic!("byte {at}: unexpected error variant {other:?}"),
        }
    }

    // Every truncation is a Wire error.
    for cut in 0..bytes.len() {
        assert!(
            matches!(
                metadata_from_bytes(&bytes[..cut]),
                Err(RecoilError::Wire { .. })
            ),
            "cut {cut}"
        );
    }
}

#[test]
fn container_file_corruption_is_wire_error() {
    use recoil::core::read_container;
    let data = recoil::data::exponential_bytes(50_000, 200.0, 11);
    let bytes = codec(8).encode(&data).unwrap().container_bytes();
    assert!(read_container(&bytes).is_ok());
    for cut in [0, 3, 9, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            matches!(read_container(&bytes[..cut]), Err(RecoilError::Wire { .. })),
            "cut {cut}"
        );
    }
}

/// One refusal, at rest and in flight: each mutation of an item section is
/// fed to the container parser and, inside a TRANSMIT carrying the same
/// section, to the client's header parser (then, for the words, to the
/// verdict the client's payload check runs on them) — and both refuse it
/// with the same error.
#[test]
fn an_item_is_refused_alike_at_rest_and_in_flight() {
    use recoil::core::{check_words_crc, crc32, read_container};
    use recoil::net::TransmitHeader;

    // One segment: no split is placed relative to N, so an absurd N meets
    // the capacity bound rather than a split check.
    let data = recoil::data::text_like_bytes(40_000, 5.0, 12);
    let encoded = codec(1).encode(&data).unwrap();
    let n = encoded.model.quant_bits();
    let container = encoded.container_bytes();
    let item_end = container.len() - 2 * encoded.container.stream.words.len();
    // The item section's parts, as offsets into the container.
    let meta_len = u32::from_le_bytes(container[5..9].try_into().unwrap()) as usize;
    let meta = 9..9 + meta_len;
    let freqs = meta.end + 4..meta.end + 4 + 2 * encoded.model.table().alphabet_size();
    let states = freqs.end..freqs.end + 4 * encoded.container.stream.ways as usize;
    let block = meta.end..states.end;
    assert_eq!(states.end + 8, item_end, "the two CRCs end the section");

    let put = |bytes: &mut [u8], at: usize, v: &[u8]| bytes[at..at + v.len()].copy_from_slice(v);
    let resign = |bytes: &mut Vec<u8>| {
        let footer = crc32(&bytes[meta.start..meta.end - 4]);
        put(bytes, meta.end - 4, &footer.to_le_bytes());
        let crc = crc32(&bytes[block.clone()]);
        put(bytes, block.end, &crc.to_le_bytes());
    };
    let refusals = |bytes: &[u8]| {
        let at_rest = read_container(bytes).map(|_| ());
        let mut transmit = vec![0u8; 17]; // segments, cache hit, combine time
        transmit.extend_from_slice(&bytes[5..item_end]);
        transmit.extend_from_slice(&1u32.to_le_bytes()); // chunk count
        let in_flight = TransmitHeader::decode(&transmit).and_then(|(header, ..)| {
            check_words_crc(crc32(&bytes[item_end..]), header.payload_crc)
        });
        (at_rest, in_flight)
    };
    assert_eq!(refusals(&container), (Ok(()), Ok(())));

    for (what, expect) in [
        ("frequencies that sum to 2^(n+1)", "sum"),
        ("a frequency that reaches 2^n", "reaches"),
        ("a final state below L", "lower bound"),
        ("an impossible N", "impossible"),
        ("a flipped metadata byte", "metadata checksum"),
        ("a flipped model block byte", "model block checksum"),
        ("a flipped word byte", "words checksum"),
    ] {
        let mut bytes = container.clone();
        match what {
            "frequencies that sum to 2^(n+1)" => {
                for at in freqs.clone().step_by(2) {
                    let f = u16::from_le_bytes([bytes[at], bytes[at + 1]]);
                    put(&mut bytes, at, &(2 * f).to_le_bytes());
                }
                resign(&mut bytes);
            }
            "a frequency that reaches 2^n" => {
                bytes[freqs.clone()].fill(0);
                put(&mut bytes, freqs.start, &(1u16 << n).to_le_bytes());
                resign(&mut bytes);
            }
            "a final state below L" => {
                put(&mut bytes, states.start, &0u32.to_le_bytes());
                resign(&mut bytes);
            }
            "an impossible N" => {
                put(&mut bytes, meta.start + 8, &(u64::MAX / 2).to_le_bytes());
                resign(&mut bytes);
            }
            "a flipped metadata byte" => bytes[meta.start + 10] ^= 0x40,
            "a flipped model block byte" => bytes[freqs.start] ^= 0x40,
            _ => bytes[item_end] ^= 0x40,
        }
        let (at_rest, in_flight) = refusals(&bytes);
        let err = at_rest.expect_err(what);
        assert!(matches!(err, RecoilError::Wire { .. }), "{what}: {err:?}");
        assert!(err.to_string().contains(expect), "{what}: {err}");
        assert_eq!(in_flight, Err(err), "{what}");
    }
}
