//! Criterion microbenchmarks of the metadata plane on the ladder's
//! `serve_churn` item (256 KiB, W = 32): what one tier-cache miss runs
//! (`build` = combine + validate + serialise), its two halves, the
//! client's parse of the same tier, and the split planner over the item's
//! recorded renormalization events — each at 16, 64 and 256 segments. The
//! two `encode` rows are the facade with and without that planning.
//!
//! `crc32/{table,clmul}/{64B,4KiB,64KiB,4MiB}` puts the checksum's two
//! paths side by side — metadata footers live at the small sizes, chunk
//! bodies at 64 KiB, a whole payload at 4 MiB. `clmul` is the dispatching
//! `update_crc32`, so on a host without carry-less multiply both rows read
//! the table rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use recoil::core::{update_crc32, update_crc32_table};
use recoil::prelude::*;

const SEGMENTS: [u64; 3] = [16, 64, 256];

fn bench_metadata_plane(c: &mut Criterion) {
    let data = recoil::data::text_like_bytes(256 << 10, 5.1, 5);
    let codec = |segments| Codec::builder().max_segments(segments).build().unwrap();
    let stored = codec(256).encode(&data).unwrap().container.metadata;
    println!("stored metadata: {} segments", stored.num_segments());

    let mut group = c.benchmark_group("metadata_plane");
    group.sample_size(2000);
    for segments in SEGMENTS {
        let tier = try_combine_splits(&stored, segments).unwrap();
        let bytes = metadata_to_bytes(&tier);
        group.bench_with_input(BenchmarkId::new("combine", segments), &segments, |b, &s| {
            b.iter(|| try_combine_splits(&stored, s).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("serialise", segments), &tier, |b, tier| {
            b.iter(|| metadata_to_bytes(tier));
        });
        group.bench_with_input(BenchmarkId::new("build", segments), &segments, |b, &s| {
            b.iter(|| metadata_to_bytes(&try_combine_splits(&stored, s).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("parse", segments), &bytes, |b, bytes| {
            b.iter(|| metadata_from_bytes(bytes).unwrap());
        });
    }

    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    let mut enc = InterleavedEncoder::new(&model, 32);
    let mut events = recoil::rans::VecSink::new();
    enc.encode_all_fast(&data, &mut events).unwrap();
    let words = enc.finish().words.len() as u64;
    group.sample_size(50);
    for segments in SEGMENTS {
        group.bench_with_input(BenchmarkId::new("planner", segments), &segments, |b, &s| {
            let config = || PlannerConfig::with_segments(s);
            let n = data.len() as u64;
            b.iter(|| recoil::core::plan_from_events(&events.events, 32, n, words, 11, config()));
        });
    }
    for segments in [1, 256] {
        let codec = codec(segments);
        group.bench_with_input(BenchmarkId::new("encode", segments), &data, |b, data| {
            b.iter(|| codec.encode(data).unwrap());
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let data = recoil::data::text_like_bytes(4 << 20, 5.1, 5);
    let mut group = c.benchmark_group("crc32");
    for (label, len) in [
        ("64B", 64),
        ("4KiB", 4 << 10),
        ("64KiB", 64 << 10),
        ("4MiB", 4 << 20),
    ] {
        let bytes = &data[..len];
        group.throughput(Throughput::Bytes(len as u64));
        group.sample_size(if len > 1 << 20 { 50 } else { 2000 });
        group.bench_with_input(BenchmarkId::new("table", label), &bytes, |b, bytes| {
            b.iter(|| update_crc32_table(0xFFFF_FFFF, bytes));
        });
        group.bench_with_input(BenchmarkId::new("clmul", label), &bytes, |b, bytes| {
            b.iter(|| update_crc32(0xFFFF_FFFF, bytes));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_metadata_plane, bench_crc32);
criterion_main!(benches);
