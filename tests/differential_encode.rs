//! Cross-engine differential encode harness — the encode-side sibling of
//! `differential_decode.rs`.
//!
//! Two encoders must produce **byte-identical containers** for every
//! input: the retained per-symbol careful reference
//! (`recoil_rans::encode_span_careful`) and the branchless fast engine behind
//! `Codec::encode*` (`recoil_rans::encode_span`). One seeded corpus covers
//! empty and one-symbol inputs, heavily skewed streams, alphabets from
//! binary to the full byte range, lane counts 1 and 32, and planner
//! segment budgets 1/2/7/64 — and every container must round-trip through
//! every decode backend this host can run.

use recoil::prelude::*;
use recoil::rans::{encode_span_careful, EncodedStream};

/// SplitMix-style deterministic generator — the corpus is fully seeded.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One corpus entry: `len` symbols drawn from `alphabet` distinct values,
/// with a skewed distribution so streams stay compressible.
fn corpus_entry(len: usize, alphabet: u16, seed: u64) -> Vec<u8> {
    let mut rng = seed;
    (0..len)
        .map(|_| {
            let r = next_u64(&mut rng);
            // Square the draw to skew mass toward small symbols.
            let frac = (r % 1000) as f64 / 1000.0;
            ((frac * frac * alphabet as f64) as u16).min(alphabet - 1) as u8
        })
        .collect()
}

/// The reference encode: the careful per-symbol encoder driving the split
/// planner, exactly as the codec did before the fast engine existed.
fn careful_container<S: Symbol>(
    data: &[S],
    model: &StaticModelProvider,
    ways: u32,
    segments: u64,
) -> RecoilContainer {
    let mut planner = SplitPlanner::new(ways, data.len() as u64, segments);
    let mut final_states = vec![recoil::rans::params::INITIAL_STATE; ways as usize];
    let mut words = Vec::new();
    encode_span_careful(
        model,
        data,
        0,
        &mut final_states,
        &mut words,
        0,
        &mut planner,
    )
    .unwrap();
    let stream = EncodedStream {
        words,
        final_states,
        num_symbols: data.len() as u64,
        ways,
    };
    let metadata = planner.finish(stream.words.len() as u64, model.quant_bits());
    RecoilContainer { stream, metadata }
}

/// Every decode backend that can read a `ways`-lane stream on this host
/// (the SIMD kernels are hardwired to the 32-way interleave).
fn backends(ways: u32) -> Vec<(&'static str, Box<dyn DecodeBackend>)> {
    let mut b: Vec<(&'static str, Box<dyn DecodeBackend>)> = vec![
        ("scalar", Box::new(ScalarBackend)),
        ("pooled", Box::new(AutoBackend::fixed(Kernel::Scalar, 4))),
    ];
    if ways == 32 {
        b.push(("auto", Box::new(AutoBackend::with_threads(2))));
        let avx2 = AutoBackend::fixed(Kernel::Avx2, 1);
        if avx2.is_available() {
            b.push(("avx2", Box::new(avx2)));
        }
        let avx512 = AutoBackend::fixed(Kernel::Avx512, 1);
        if avx512.is_available() {
            b.push(("avx512", Box::new(avx512)));
        }
    }
    b
}

#[test]
fn fast_encode_matches_careful_serial_everywhere() {
    // (len, alphabet, quant_bits): empty, 1-symbol, sub-lane-width, a
    // binary (heavily skewed) stream, odd sizes, and bulk entries.
    let shapes: [(usize, u16, u32); 8] = [
        (0, 2, 11),
        (1, 2, 8),
        (31, 7, 9),
        (100, 2, 11),
        (4_097, 251, 11),
        (20_000, 2, 10),
        (90_000, 16, 10),
        (150_000, 256, 11),
    ];
    let segment_budgets: [u64; 4] = [1, 2, 7, 64];
    let mut seed = 0xE4C0_DE5E_u64;

    for &(len, alphabet, quant_bits) in &shapes {
        let data = corpus_entry(len, alphabet, next_u64(&mut seed));
        let model = StaticModelProvider::new(if data.is_empty() {
            // The codec's own empty-input model, reproduced for the
            // reference encoder.
            CdfTable::from_freqs(vec![1 << (quant_bits - 1); 2], quant_bits)
        } else {
            CdfTable::of_bytes(&data, quant_bits)
        });

        for ways in [1u32, 32] {
            let backends = backends(ways);
            for &segments in &segment_budgets {
                let codec = Codec::builder()
                    .ways(ways)
                    .max_segments(segments)
                    .quant_bits(quant_bits)
                    .build()
                    .unwrap();
                let ctx = format!(
                    "len={len} alphabet={alphabet} n={quant_bits} ways={ways} \
                     segments={segments}"
                );

                let reference = careful_container(&data, &model, ways, codec.config().max_segments);
                let fast = codec.encode_with_provider(&data, &model).unwrap();
                assert_eq!(fast.stream, reference.stream, "fast stream: {ctx}");
                assert_eq!(fast.metadata, reference.metadata, "fast metadata: {ctx}");

                // Every decode backend reads the bytes back.
                let enc = Encoded {
                    container: fast,
                    model: model.clone(),
                    symbol_bits: 8,
                };
                for (name, backend) in &backends {
                    let got: Vec<u8> = codec.decode_with(backend.as_ref(), &enc).unwrap();
                    assert_eq!(got, data, "round-trip {name}: {ctx}");
                }
            }
        }
    }
}

#[test]
fn u16_fast_encode_matches_careful_and_round_trips() {
    let mut seed = 0x16E4_C0DE_u64;
    let raw = corpus_entry(120_000, 256, next_u64(&mut seed));
    let data: Vec<u16> = raw.iter().map(|&b| (b as u16) << 2).collect();
    let codec = Codec::builder()
        .quant_bits(12)
        .max_segments(16)
        .build()
        .unwrap();
    let fast = codec.encode_u16(&data).unwrap();
    let reference = careful_container(&data, &fast.model, 32, codec.config().max_segments);
    assert_eq!(fast.container.stream, reference.stream);
    assert_eq!(fast.container.metadata, reference.metadata);
    for (name, backend) in &backends(32) {
        let got: Vec<u16> = codec.decode_with(backend.as_ref(), &fast).unwrap();
        assert_eq!(got, data, "u16 round-trip {name}");
    }
}
