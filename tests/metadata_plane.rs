//! The metadata plane's bytes, pinned: what the split planner chooses and
//! what `metadata_to_bytes` writes for it are part of the wire contract, so
//! both are held to CRC-32 values recorded before the plane was rewritten
//! for speed. A change to any pin means deployed clients parse something
//! else.
//!
//! The same file holds the plane's cost-model contract: a combined tier
//! *shares* the stored lane arrays rather than copying them, and a server's
//! tier — bytes written from split bodies stored once ([`WireSplits`]) — is
//! the same bytes as combining and serializing. The pins were
//! recorded against the serializer that wrote every tier afresh, so they
//! hold the selection to that serializer's bytes too.

use recoil::core::{crc32, metadata_wire_len, WireSplits};
use recoil::prelude::*;

const SEEDS: [u64; 2] = [3, 11];
const WAYS: [u32; 3] = [1, 4, 32];
/// Requested decoder widths; the last clamps to the encoded maximum.
const WIDTHS: [u64; 6] = [1, 2, 4, 16, 64, u64::MAX];
const MAX_SEGMENTS: u64 = 128;

/// CRC-32 of the serialized body. (Of the whole buffer it would be the
/// same constant for every input: the format ends in its own CRC.)
fn pin(bytes: &[u8]) -> u32 {
    crc32(&bytes[..bytes.len() - 4])
}

fn corpus_u8(seed: u64) -> Vec<u8> {
    recoil::data::text_like_bytes(120_000, 5.1, seed)
}

/// A ~10-bit alphabet with the byte corpus' skew.
fn corpus_u16(seed: u64) -> Vec<u16> {
    corpus_u8(seed)
        .iter()
        .enumerate()
        .map(|(i, &b)| u16::from(b) * 4 + (i % 4) as u16)
        .collect()
}

fn encode(ways: u32, wide: bool, seed: u64) -> RecoilMetadata {
    let codec = Codec::builder()
        .ways(ways)
        .max_segments(MAX_SEGMENTS)
        .build()
        .unwrap();
    let encoded = if wide {
        codec.encode_u16(&corpus_u16(seed))
    } else {
        codec.encode(&corpus_u8(seed))
    };
    encoded.unwrap().container.metadata
}

/// `(crc32, length)` of the serialized tier for every seed × ways × symbol
/// width × decoder width, in iteration order — each length also checked
/// against `metadata_wire_len`, which must predict it exactly.
fn observed_wire() -> Vec<(u32, usize)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        for ways in WAYS {
            for wide in [false, true] {
                let meta = encode(ways, wide, seed);
                for width in WIDTHS {
                    let tier = try_combine_splits(&meta, width).unwrap();
                    let bytes = metadata_to_bytes(&tier);
                    assert_eq!(metadata_wire_len(&tier), bytes.len());
                    out.push((pin(&bytes), bytes.len()));
                }
            }
        }
    }
    out
}

fn planner_sample(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 22) as u8)
        .collect()
}

fn sparse(len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    for i in (0..len).step_by(37) {
        data[i] = 1 + (i % 3) as u8;
    }
    data
}

/// CRC-32 of the full planned metadata for the corpora the planner,
/// robustness and wire tests already encode.
fn observed_plans() -> Vec<u32> {
    let plan = |data: &[u8], segments: u64| {
        let codec = Codec::builder().max_segments(segments).build().unwrap();
        pin(&metadata_to_bytes(
            &codec.encode(data).unwrap().container.metadata,
        ))
    };
    vec![
        plan(&planner_sample(400_000), 2),
        plan(&planner_sample(400_000), 16),
        plan(&planner_sample(400_000), 64),
        plan(&planner_sample(300), 1000),
        plan(&sparse(200_000), 16),
        plan(&recoil::data::text_like_bytes(100_000, 5.0, 10), 16),
        plan(&recoil::data::exponential_bytes(400_000, 50.0, 9), 512),
        plan(&recoil::data::exponential_bytes(50_000, 200.0, 11), 8),
        plan(&recoil::data::text_like_bytes(256 << 10, 5.1, 5), 256),
    ]
}

/// [`observed_wire`] at the commit before the accumulator bit writer, the
/// division-free serializer and the shared lane arrays: one row of six
/// decoder widths per seed × ways × symbol width.
#[rustfmt::skip]
const WIRE_PINS: [(u32, usize); 72] = [
    (0x4ce4ab23, 32),
    (0x2957ad6b, 38),
    (0x57ab2cfe, 48),
    (0x34141dee, 105),
    (0xabfedd6f, 325),
    (0xa586aeb1, 621),
    (0x9f15476a, 32),
    (0x333b8efd, 38),
    (0x3435df41, 48),
    (0xcbc04a88, 105),
    (0x3a97408d, 333),
    (0x4f4f19fa, 637),
    (0xa0553294, 32),
    (0xbf17fd83, 45),
    (0x89c26b23, 68),
    (0xeb2f9630, 208),
    (0x74372659, 773),
    (0x29cfe914, 1493),
    (0x73a4dedd, 32),
    (0xe372f7a8, 45),
    (0x015c5740, 68),
    (0xffe3d061, 206),
    (0x46938f3e, 758),
    (0xd01a5d51, 1492),
    (0x98ed0306, 32),
    (0xda32f3a2, 112),
    (0x3731fce8, 260),
    (0xaafdb126, 1171),
    (0xc654b998, 4839),
    (0xa14a3d95, 9241),
    (0x913e00b5, 32),
    (0x1b4e6a05, 108),
    (0x43ee3e13, 256),
    (0x348d48a1, 1149),
    (0xc08d2f24, 4735),
    (0x9364b4ac, 9213),
    (0x499856c9, 32),
    (0xdd00739c, 38),
    (0x9a616213, 48),
    (0x5041735f, 103),
    (0x902d6277, 325),
    (0x490f0fd5, 605),
    (0x8a3fab04, 32),
    (0x39293fe1, 38),
    (0x9047df5a, 47),
    (0x2b0f74f7, 99),
    (0xb5e80a45, 309),
    (0x74b8e240, 589),
    (0x491251e1, 32),
    (0xb56ad4b1, 45),
    (0x1a91738d, 68),
    (0x018b96ea, 209),
    (0x1ac52414, 769),
    (0xf94a8f4b, 1507),
    (0xfe2d45a3, 32),
    (0xd813c4d2, 45),
    (0xf3d8c367, 69),
    (0xa909c912, 208),
    (0xb56b7a6e, 763),
    (0x62ebf605, 1490),
    (0x35278e67, 32),
    (0x4e07fbcd, 108),
    (0x9d22c8c5, 261),
    (0xe8d83dcf, 1181),
    (0x75616e16, 4835),
    (0xec797d64, 9214),
    (0x9c253723, 32),
    (0x2c3205f6, 108),
    (0x2991682d, 257),
    (0x93ee9dd1, 1151),
    (0x122bc6ad, 4735),
    (0x8bb73490, 9228),
];

/// [`observed_plans`] at the commit before the planner scored candidates
/// without materializing them.
const PLAN_PINS: [u32; 9] = [
    0xe5b4cc53, 0x0e0f14ad, 0xc7182912, 0x25bd5915, 0x1a989733, 0xda063e0c, 0xdbfe0049, 0x5ce57760,
    0x2eda2a17,
];

#[test]
fn serialized_tiers_are_the_bytes_they_always_were() {
    assert_eq!(observed_wire(), WIRE_PINS);
}

#[test]
fn the_planner_chooses_the_splits_it_always_chose() {
    assert_eq!(observed_plans(), PLAN_PINS);
}

/// Every width a decoder can ask for: the tier parses back to itself and
/// shares every lane array it keeps with the stored metadata. Its size
/// grows with the width — at least the raw states of each added split, and
/// strictly from each width to its double; between neighbours a rounder
/// selection can narrow the two difference series by a few bytes.
#[test]
fn every_width_round_trips_and_shares_the_stored_splits() {
    for (ways, wide) in [(32, false), (4, true)] {
        let meta = encode(ways, wide, SEEDS[0]);
        let mut lens = vec![0usize];
        for width in 1..=meta.num_segments() {
            let tier = try_combine_splits(&meta, width).unwrap();
            assert_eq!(tier.num_segments(), width);
            let bytes = metadata_to_bytes(&tier);
            assert_eq!(metadata_from_bytes(&bytes).unwrap(), tier, "width {width}");
            assert!(bytes.len() >= 32 + tier.splits.len() * ways as usize * 2);
            lens.push(bytes.len());
            let mut stored = meta.splits.iter();
            for kept in &tier.splits {
                let shared =
                    stored.any(|s| s.offset == kept.offset && s.lanes.shares_storage(&kept.lanes));
                assert!(
                    shared,
                    "width {width}: a kept split is a copy, or out of order"
                );
            }
        }
        for width in 1..lens.len() / 2 {
            assert!(lens[width] < lens[2 * width], "width {width} vs its double");
        }
    }
}

/// A tier written from the stored table is what combining and serializing
/// give, at every width from one segment to one past the encoded maximum:
/// the same bytes, parsing back to the combined metadata. (That a combine
/// shares the stored lane arrays is the test above.)
#[test]
fn selected_tiers_are_the_combined_tiers_at_every_width() {
    for (ways, wide) in [(32, false), (4, true)] {
        let meta = encode(ways, wide, SEEDS[0]);
        let wire = WireSplits::of(&meta).unwrap();
        for width in 1..=meta.num_segments() + 1 {
            let combined = try_combine_splits(&meta, width).unwrap();
            let bytes = wire.tier(width).unwrap();
            assert_eq!(bytes, metadata_to_bytes(&combined), "width {width}");
            assert_eq!(
                metadata_from_bytes(&bytes).unwrap(),
                combined,
                "width {width}"
            );
        }
    }
}
