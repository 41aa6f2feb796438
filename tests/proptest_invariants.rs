//! Randomized tests of the paper's core invariants over arbitrary inputs,
//! distributions, lane counts and split requests.
//!
//! The registry `proptest` crate is unavailable offline, so the properties
//! run over deterministic seeded cases; every assertion message carries the
//! seed for replay.

use recoil::core::plan_from_events;
use recoil::prelude::*;

mod common;
use common::Cases;

fn encode_with_events(
    data: &[u8],
    n: u32,
    ways: u32,
) -> (
    EncodedStream,
    Vec<recoil::rans::RenormEvent>,
    StaticModelProvider,
) {
    let p = StaticModelProvider::new(CdfTable::of_bytes(data, n));
    let mut enc = InterleavedEncoder::new(&p, ways);
    let mut sink = VecSink::new();
    enc.encode_all_fast(data, &mut sink).unwrap();
    (enc.finish(), sink.events, p)
}

fn scalar_decode(
    stream: &EncodedStream,
    meta: &RecoilMetadata,
    p: &StaticModelProvider,
) -> Vec<u8> {
    let mut out = vec![0u8; stream.num_symbols as usize];
    let req = DecodeRequest::whole(stream, meta, DecodeModel::Static(p), &mut out);
    ScalarBackend.decode(req.unwrap()).unwrap();
    out
}

/// Round-trip over arbitrary data, n, and lane counts.
#[test]
fn interleaved_round_trip() {
    for seed in 0..48u64 {
        let mut rng = Cases::new(0x1A7E ^ seed);
        let len = rng.range(1, 4000) as usize;
        let data = rng.data(len);
        let n = rng.range(8, 17) as u32;
        let ways = rng.pick(&[1u32, 2, 3, 8, 32]);
        let (stream, _, p) = encode_with_events(&data, n, ways);
        let back: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        assert_eq!(back, data, "seed {seed} n {n} ways {ways}");
    }
}

/// Lemma 3.1: every recorded renorm state is below L = 2^16, and every
/// event maps offsets/positions consistently.
#[test]
fn renorm_events_are_bounded_and_ordered() {
    for seed in 0..48u64 {
        let mut rng = Cases::new(0x2B0B ^ seed);
        let len = rng.range(64, 4000) as usize;
        let data = rng.data(len);
        let n = rng.range(8, 13) as u32;
        let (stream, events, _) = encode_with_events(&data, n, 32);
        assert_eq!(events.len(), stream.words.len(), "seed {seed}");
        let mut prev_pos = 0i128;
        for (k, e) in events.iter().enumerate() {
            assert_eq!(e.offset, k as u64, "seed {seed}");
            if e.pos != recoil::rans::NO_SYMBOL {
                assert_eq!((e.pos % 32) as u32, e.lane, "seed {seed}");
                assert!(e.pos as i128 >= prev_pos, "seed {seed}");
                prev_pos = e.pos as i128;
            }
        }
    }
}

/// Recoil parallel decode equals serial decode for arbitrary inputs and
/// requested segment counts — the paper's central correctness claim.
#[test]
fn recoil_decode_equals_serial() {
    for seed in 0..32u64 {
        let mut rng = Cases::new(0x3C0D ^ seed);
        let len = rng.range(2000, 20_000) as usize;
        let data = rng.data(len);
        let segments = rng.range(2, 24);
        let n = rng.pick(&[10u32, 11, 14, 16]);
        let (stream, events, p) = encode_with_events(&data, n, 32);
        let meta = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            n,
            segments,
        );
        let serial: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        let recoil = scalar_decode(&stream, &meta, &p);
        assert_eq!(&serial, &data, "seed {seed}");
        assert_eq!(recoil, serial, "seed {seed} segments {segments} n {n}");
    }
}

/// Combining to any smaller segment count yields valid metadata that still
/// decodes identically (decoder-adaptive scalability).
#[test]
fn any_combine_target_decodes_identically() {
    for seed in 0..32u64 {
        let mut rng = Cases::new(0x4D1E ^ seed);
        let len = rng.range(4000, 16_000) as usize;
        let data = rng.data(len);
        let target = rng.range(1, 12);
        let (stream, events, p) = encode_with_events(&data, 11, 32);
        let meta = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            24,
        );
        let combined = try_combine_splits(&meta, target).unwrap();
        assert!(combined.num_segments() <= target.max(1), "seed {seed}");
        let got = scalar_decode(&stream, &combined, &p);
        assert_eq!(got, data, "seed {seed} target {target}");
    }
}

/// Metadata wire format round-trips exactly.
#[test]
fn metadata_wire_round_trip() {
    for seed in 0..32u64 {
        let mut rng = Cases::new(0x5E2F ^ seed);
        let len = rng.range(2000, 12_000) as usize;
        let data = rng.data(len);
        let segments = rng.range(2, 16);
        let (stream, events, _) = encode_with_events(&data, 11, 32);
        let meta = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            segments,
        );
        let bytes = metadata_to_bytes(&meta);
        let back = metadata_from_bytes(&bytes).unwrap();
        assert_eq!(back, meta, "seed {seed} segments {segments}");
    }
}

/// SIMD kernels are bit-exact against the scalar decoder on arbitrary
/// streams (both LUT layouts).
#[test]
fn simd_kernels_bit_exact() {
    for seed in 0..32u64 {
        let mut rng = Cases::new(0x6F30 ^ seed);
        let len = rng.range(100, 8000) as usize;
        let data = rng.data(len);
        let n = rng.pick(&[11u32, 16]);
        let (stream, _, p) = encode_with_events(&data, n, 32);
        let serial: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
            assert_eq!(&out, &serial, "seed {seed} kernel {kernel:?}");
        }
    }
}

/// Quantization invariants: sums to 2^n, support preserved, capped.
#[test]
fn quantizer_invariants() {
    for seed in 0..48u64 {
        let mut rng = Cases::new(0x8152 ^ seed);
        let len = rng.range(2, 256) as usize;
        let mut counts: Vec<u64> = (0..len).map(|_| rng.below(100_000)).collect();
        if counts.iter().all(|&c| c == 0) {
            counts[0] = 1;
        }
        let n = rng.range(8, 17) as u32;
        let freqs = recoil::models::quantize_counts(&counts, n);
        assert_eq!(
            freqs.iter().map(|&f| f as u64).sum::<u64>(),
            1u64 << n,
            "seed {seed}"
        );
        for (i, (&c, &f)) in counts.iter().zip(&freqs).enumerate() {
            assert!(
                (c > 0) == (f > 0) || (c == 0 && f == 1),
                "seed {seed} symbol {i}"
            );
            assert!((f as u64) < (1u64 << n), "seed {seed} symbol {i}");
        }
    }
}
