//! Criterion microbenchmarks: single-thread decode kernels
//! (scalar vs AVX2 vs AVX-512, packed vs wide LUT layouts), plus the
//! scalar fast-loop engine against the retained careful reference loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use recoil::prelude::*;
use recoil::rans::fast::{decode_span, decode_span_careful};

/// The scalar fast loop vs the careful `LaneDecoder::step` reference on
/// the same whole stream.
fn bench_fast_vs_reference(c: &mut Criterion) {
    let data = recoil::data::text_like_bytes(2_000_000, 5.1, 99);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    let mut enc = InterleavedEncoder::new(&model, 32);
    enc.encode_all(&data, &mut NullSink);
    let stream = enc.finish();
    let next = stream.end_cursor();

    let mut group = c.benchmark_group("scalar_fast_vs_reference");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);
    group.bench_function("fast", |b| {
        let mut out = vec![0u8; data.len()];
        b.iter(|| {
            let mut states = stream.final_states.clone();
            decode_span(&model, &stream.words, next, &mut states, 0, &mut out).unwrap();
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
        enc.encode_all(&data, &mut NullSink);
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

criterion_group!(benches, bench_kernels, bench_fast_vs_reference);
criterion_main!(benches);
