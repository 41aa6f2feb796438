//! Criterion microbenchmarks of the Recoil pipeline pieces: encode+plan
//! and parallel decode vs the conventional baseline. (The metadata wire
//! codec and split combining have their own bench, `metadata_plane`.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use recoil::conventional::encode_conventional;
use recoil::core::codec::decode_pooled;
use recoil::prelude::*;

fn bench_pipeline(c: &mut Criterion) {
    let data = recoil::data::exponential_bytes(2_000_000, 100.0, 42);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    let codec = Codec::builder().max_segments(256).build().unwrap();
    let container = codec.encode_with_provider(&data, &model).unwrap();
    let conv = encode_conventional(&data, &model, 32, 256);
    let pool = ThreadPool::with_default_parallelism();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(data.len() as u64));

    group.bench_function("encode_with_split_planning", |b| {
        b.iter(|| std::hint::black_box(codec.encode_with_provider(&data, &model).unwrap()));
    });
    group.bench_function("encode_plain_interleaved", |b| {
        b.iter(|| {
            let mut enc = InterleavedEncoder::new(&model, 32);
            enc.encode_all_fast(&data, &mut NullSink).unwrap();
            std::hint::black_box(enc.finish())
        });
    });
    group.bench_function("decode_recoil_parallel", |b| {
        let mut out = vec![0u8; data.len()];
        b.iter(|| {
            decode_pooled(
                &container.stream,
                &container.metadata,
                &model,
                Some(&pool),
                &mut out,
            )
            .unwrap();
            std::hint::black_box(&out);
        });
    });
    group.bench_function("decode_conventional_parallel", |b| {
        let mut out = vec![0u8; data.len()];
        b.iter(|| {
            recoil::conventional::decode_conventional_into(&conv, &model, Some(&pool), &mut out)
                .unwrap();
            std::hint::black_box(&out);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
