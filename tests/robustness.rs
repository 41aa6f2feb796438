//! Robustness at the trust boundaries: the wire parsers must never panic on
//! arbitrary or mutated input — they either parse to validated structures
//! or return a [`RecoilError`]. (Decoding a *corrupt payload* with valid
//! metadata is garbage-in/garbage-out, as for any entropy coder; the
//! parsers are the layer that must be hostile-input safe.)
//!
//! The registry `proptest` crate is unavailable offline, so the properties
//! run over deterministic seeded cases.

use recoil::core::{metadata_from_bytes, read_container};
use recoil::prelude::*;

mod common;
use common::Cases;

fn codec(max_segments: u64, quant_bits: u32) -> Codec {
    Codec::builder()
        .max_segments(max_segments)
        .quant_bits(quant_bits)
        .build()
        .unwrap()
}

/// Arbitrary bytes into the metadata parser: error or valid, no panic.
#[test]
fn metadata_parser_never_panics() {
    for seed in 0..256u64 {
        let mut rng = Cases::new(0xFEED ^ seed);
        let len = rng.below(512) as usize;
        let bytes = rng.bytes(len);
        if let Ok(meta) = metadata_from_bytes(&bytes) {
            assert!(meta.validate().is_ok(), "seed {seed}");
        }
    }
}

/// Arbitrary bytes into the file parser: error or valid, no panic.
#[test]
fn file_parser_never_panics() {
    for seed in 0..256u64 {
        let mut rng = Cases::new(0xF11E ^ seed);
        let len = rng.below(512) as usize;
        let bytes = rng.bytes(len);
        if let Ok((container, _model, _)) = read_container(&bytes) {
            assert!(container.stream.validate().is_ok(), "seed {seed}");
        }
    }
}

/// Single-byte mutations of a real file: every outcome is a parse error,
/// or a still-valid container (whose decode may legitimately fail or
/// produce different symbols — but must not panic at the parse layer).
#[test]
fn mutated_file_parses_or_errors() {
    for seed in 0..96u64 {
        let mut rng = Cases::new(0x3117 ^ seed);
        let len = 500 + rng.below(2500) as usize;
        let seed_data = rng.bytes(len);
        let enc = codec(4, 10).encode(&seed_data).unwrap();
        let mut bytes = enc.container_bytes();
        let at = rng.below(bytes.len() as u64) as usize;
        let flip_bit = rng.below(8) as u8;
        bytes[at] ^= 1 << flip_bit;
        match read_container(&bytes) {
            Err(_) => {}
            Ok((c, _m, _)) => {
                assert!(c.stream.validate().is_ok(), "seed {seed} at {at}");
                assert!(
                    c.metadata.validate_against(&c.stream).is_ok(),
                    "seed {seed} at {at}"
                );
            }
        }
    }
}

/// Truncated metadata at every cut point errors cleanly (and with the
/// `Wire` variant, not a decode error).
#[test]
fn truncated_metadata_errors() {
    for seed in 0..16u64 {
        let mut rng = Cases::new(0x7C07 ^ seed);
        let len = 2000 + rng.below(4000) as usize;
        let seed_data = rng.bytes(len);
        let enc = codec(8, 11).encode(&seed_data).unwrap();
        let bytes = metadata_to_bytes(&enc.container.metadata);
        for cut in 0..bytes.len() {
            let err = metadata_from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, RecoilError::Wire { .. }),
                "seed {seed} cut {cut}: {err}"
            );
        }
    }
}

#[test]
fn pathological_inputs_round_trip() {
    // Degenerate but legal inputs through the whole pipeline.
    let cases: Vec<Vec<u8>> = vec![
        vec![0u8; 10_000],                         // single symbol
        (0..=255u8).cycle().take(9_999).collect(), // uniform
        {
            let mut v = vec![0u8; 20_000]; // one rare symbol
            v[19_999] = 255;
            v
        },
        vec![7u8, 7, 7, 8], // tiny input
        vec![],             // empty payload
    ];
    for (i, data) in cases.iter().enumerate() {
        for n in [8u32, 11, 16] {
            let codec = codec(16, n);
            let enc = codec.encode(data).unwrap();
            let got: Vec<u8> = codec.decode_with(&ScalarBackend, &enc).unwrap();
            assert_eq!(&got, data, "case {i} n={n}");
            // And through the file format.
            let (back, m2, _) = read_container(&enc.container_bytes()).unwrap();
            let mut got2 = vec![0u8; back.stream.num_symbols as usize];
            let model = DecodeModel::Static(&m2);
            let req = DecodeRequest::whole(&back.stream, &back.metadata, model, &mut got2);
            ScalarBackend.decode(req.unwrap()).unwrap();
            assert_eq!(&got2, data, "file case {i} n={n}");
        }
    }
}
