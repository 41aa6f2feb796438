//! Criterion microbenchmarks: single-thread decode kernels
//! (scalar vs AVX2 vs AVX-512, packed vs wide LUT layouts), the sweep that
//! chose each vector kernel's interleave depth, plus the scalar fast-loop
//! engine against the retained careful reference loop.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use recoil::core::decode_segments;
use recoil::prelude::*;
use recoil::rans::fast::decode_span_careful;
use recoil::simd::decode_spans_at_depth;

/// The scalar fast loop (`Span::advance_scalar`) vs the careful reference
/// on the same whole stream.
fn bench_fast_vs_reference(c: &mut Criterion) {
    let data = recoil::data::text_like_bytes(2_000_000, 5.1, 99);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    let mut enc = InterleavedEncoder::new(&model, 32);
    enc.encode_all_fast(&data, &mut NullSink).unwrap();
    let stream = enc.finish();
    let next = stream.end_cursor();

    let mut group = c.benchmark_group("scalar_fast_vs_reference");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("fast", |b| {
        let mut out = vec![0u8; data.len()];
        b.iter(|| {
            let len = out.len();
            stream
                .tail_span(0, &mut out)
                .advance_scalar(&model, len)
                .unwrap();
            std::hint::black_box(&out);
        });
    });
    group.bench_function("careful_reference", |b| {
        let mut out = vec![0u8; data.len()];
        b.iter(|| {
            let mut states = stream.final_states.clone();
            decode_span_careful(&model, &stream.words, next, &mut states, 0, &mut out).unwrap();
            std::hint::black_box(&out);
        });
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let data = recoil::data::text_like_bytes(2_000_000, 5.1, 99);
    for n in [11u32, 16] {
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, n));
        let mut enc = InterleavedEncoder::new(&model, 32);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();

        let mut group = c.benchmark_group(format!("single_thread_decode_n{n}"));
        group.throughput(Throughput::Bytes(data.len() as u64));
        group.sample_size(10);
        for kernel in Kernel::all_available() {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{kernel:?}")),
                &kernel,
                |b, &kernel| {
                    let mut out = vec![0u8; data.len()];
                    b.iter(|| {
                        decode_interleaved_simd(kernel, &stream, &model, &mut out).unwrap();
                        std::hint::black_box(&out);
                    });
                },
            );
        }
        group.finish();
    }
}

/// The vector span kernel at interleave depth `K` as the segment engine's
/// kernel: what a backend would run if its kernel's depth were `K`.
fn bench_depth<const K: usize>(
    group: &mut BenchmarkGroup<'_>,
    kernel: Kernel,
    enc: &Encoded,
    out: &mut [u8],
) {
    let (stream, meta, model) = (&enc.container.stream, &enc.container.metadata, &enc.model);
    group.bench_function(
        BenchmarkId::new(format!("{kernel:?}"), format!("K{K}")),
        |b| {
            b.iter(|| {
                let all = 0..meta.num_segments();
                decode_segments(stream, meta, model, None, all, out, K, |spans| {
                    decode_spans_at_depth::<K, u8>(kernel, model, spans)
                })
                .unwrap();
                std::hint::black_box(&out);
            });
        },
    );
}

/// The interleave-depth sweep behind `Kernel::interleave_depth`: one thread
/// decoding 1, 2, 3, 4 and 64 segments with K = 1, 2, 4, 6, 8 spans in
/// flight, per ISA, packed (n = 11) and wide (n = 16) tables. At one
/// segment every depth runs the K = 1 loop; two and three segments are the
/// descent's cases (a K > 2 kernel runs them through its K = 2 loop); past
/// the chosen depth the loop's lane states no longer fit the register file
/// (check the generated loop for spills before raising a constant).
fn bench_interleave_depth(c: &mut Criterion) {
    let data = recoil::data::text_like_bytes(2_000_000, 5.1, 99);
    let mut out = vec![0u8; data.len()];
    for (tables, n) in [("packed", 11u32), ("wide", 16)] {
        for segments in [1u64, 2, 3, 4, 64] {
            let codec = Codec::builder()
                .quant_bits(n)
                .max_segments(segments)
                .build()
                .unwrap();
            let enc = codec.encode(&data).unwrap();
            let mut group = c.benchmark_group(format!("interleave_depth_{tables}_{segments}seg"));
            group.throughput(Throughput::Bytes(data.len() as u64));
            group.sample_size(10);
            for kernel in [Kernel::Avx2, Kernel::Avx512] {
                if !kernel.is_available() {
                    continue;
                }
                bench_depth::<1>(&mut group, kernel, &enc, &mut out);
                bench_depth::<2>(&mut group, kernel, &enc, &mut out);
                bench_depth::<4>(&mut group, kernel, &enc, &mut out);
                bench_depth::<6>(&mut group, kernel, &enc, &mut out);
                bench_depth::<8>(&mut group, kernel, &enc, &mut out);
            }
            group.finish();
            assert_eq!(out, data);
        }
    }
}

criterion_group!(
    benches,
    bench_kernels,
    bench_interleave_depth,
    bench_fast_vs_reference
);
criterion_main!(benches);
