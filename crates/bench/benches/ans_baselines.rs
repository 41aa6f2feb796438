//! Criterion microbenchmarks of the ANS baselines: single rANS vs
//! interleaved rANS (the ILP win of §2.2).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use recoil::prelude::*;
use recoil::rans::{decode_single, SingleEncoder};

fn bench_baselines(c: &mut Criterion) {
    let data = recoil::data::text_like_bytes(1_000_000, 5.1, 7);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));

    let mut single = SingleEncoder::new(&model);
    single.encode_all(&data, &mut NullSink);
    let single_stream = single.finish();

    let mut inter = InterleavedEncoder::new(&model, 32);
    inter.encode_all_fast(&data, &mut NullSink).unwrap();
    let inter_stream = inter.finish();

    let mut group = c.benchmark_group("ans_baselines");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("rans_single_state", |b| {
        b.iter(|| std::hint::black_box(decode_single::<u8, _>(&single_stream, &model).unwrap()));
    });
    group.bench_function("rans_interleaved_32", |b| {
        b.iter(|| {
            std::hint::black_box(decode_interleaved::<u8, _>(&inter_stream, &model).unwrap())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
