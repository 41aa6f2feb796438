//! Microbenchmarks: single-thread decode kernels (scalar vs AVX2 vs
//! AVX-512, packed vs wide LUT layouts), the sweep that chose each vector
//! kernel's interleave depth, plus the retained careful reference loop and
//! single-state rANS (no interleaving, the baseline of §2.2) on the same
//! n = 11 input. The scalar fast loop (`Span::advance_scalar`) is
//! `single_thread_decode_n11/Scalar`.

use recoil::core::decode_segments;
use recoil::prelude::*;
use recoil::rans::fast::decode_span_careful;
use recoil::rans::{decode_single, SingleEncoder};
use recoil::simd::decode_spans_at_depth;
use recoil_bench::bench;

fn main() {
    let data = recoil::data::text_like_bytes(2_000_000, 5.1, 99);
    bench_kernels(&data);
    bench_interleave_depth(&data);
    bench_references(&data);
}

fn bench_kernels(data: &[u8]) {
    for n in [11u32, 16] {
        let model = StaticModelProvider::new(CdfTable::of_bytes(data, n));
        let mut enc = InterleavedEncoder::new(&model, 32);
        enc.encode_all_fast(data, &mut NullSink).unwrap();
        let stream = enc.finish();

        let group = format!("single_thread_decode_n{n}");
        let mut out = vec![0u8; data.len()];
        for kernel in Kernel::all_available() {
            bench(&group, &format!("{kernel:?}"), 10, Some(data.len()), || {
                decode_interleaved_simd(kernel, &stream, &model, &mut out).unwrap();
                std::hint::black_box(&out);
            });
        }
    }
}

/// The vector span kernel at interleave depth `K` as the segment engine's
/// kernel: what a backend would run if its kernel's depth were `K`.
fn bench_depth<const K: usize>(group: &str, kernel: Kernel, enc: &Encoded, out: &mut [u8]) {
    let (stream, meta, model) = (&enc.container.stream, &enc.container.metadata, &enc.model);
    let name = format!("{kernel:?}/K{K}");
    bench(group, &name, 10, Some(out.len()), || {
        let all = 0..meta.num_segments();
        decode_segments(stream, meta, model, None, all, out, K, |spans| {
            decode_spans_at_depth::<K, u8>(kernel, model, spans)
        })
        .unwrap();
        std::hint::black_box(&out);
    });
}

/// The interleave-depth sweep behind `Kernel::interleave_depth`: one thread
/// decoding 1, 2, 3, 4 and 64 segments with K = 1, 2, 4, 6, 8 spans in
/// flight, per ISA, packed (n = 11) and wide (n = 16) tables. At one
/// segment every depth runs the K = 1 loop; two and three segments are the
/// descent's cases (a K > 2 kernel runs them through its K = 2 loop); past
/// the chosen depth the loop's lane states no longer fit the register file
/// (check the generated loop for spills before raising a constant).
fn bench_interleave_depth(data: &[u8]) {
    let mut out = vec![0u8; data.len()];
    for (tables, n) in [("packed", 11u32), ("wide", 16)] {
        for segments in [1u64, 2, 3, 4, 64] {
            let codec = Codec::builder()
                .quant_bits(n)
                .max_segments(segments)
                .build()
                .unwrap();
            let enc = codec.encode(data).unwrap();
            let group = format!("interleave_depth_{tables}_{segments}seg");
            for kernel in [Kernel::Avx2, Kernel::Avx512] {
                if !kernel.is_available() {
                    continue;
                }
                bench_depth::<1>(&group, kernel, &enc, &mut out);
                bench_depth::<2>(&group, kernel, &enc, &mut out);
                bench_depth::<4>(&group, kernel, &enc, &mut out);
                bench_depth::<6>(&group, kernel, &enc, &mut out);
                bench_depth::<8>(&group, kernel, &enc, &mut out);
            }
            assert_eq!(out, data);
        }
    }
}

/// The careful reference loop on the stream `single_thread_decode_n11`
/// decodes, and single-state rANS on the same bytes and model.
fn bench_references(data: &[u8]) {
    let model = StaticModelProvider::new(CdfTable::of_bytes(data, 11));
    let mut enc = InterleavedEncoder::new(&model, 32);
    enc.encode_all_fast(data, &mut NullSink).unwrap();
    let stream = enc.finish();
    let next = stream.end_cursor();
    let mut single = SingleEncoder::new(&model);
    single.encode_all(data, &mut NullSink);
    let single_stream = single.finish();

    let group = "scalar_fast_vs_reference";
    let mut out = vec![0u8; data.len()];
    bench(group, "careful_reference", 10, Some(data.len()), || {
        let mut states = stream.final_states.clone();
        decode_span_careful(&model, &stream.words, next, &mut states, 0, &mut out).unwrap();
        std::hint::black_box(&out);
    });
    bench(group, "rans_single_state", 10, Some(data.len()), || {
        decode_single::<u8, _>(&single_stream, &model).unwrap()
    });
}
