//! Microbenchmarks of the Recoil pipeline pieces: encode+plan
//! and parallel decode vs the conventional baseline. (The metadata wire
//! codec and split combining have their own bench, `metadata_plane`.)
//!
//! `encode/{scalar,avx512}[+planner]/{256KiB,8MiB}` is the span engine's two
//! group loops side by side on text-like bytes, 32 lanes, `n = 11`: alone
//! (`NullSink`) and with the split planner listening (256 segments at
//! 256 KiB, 64 at 8 MiB — the ladder's `serve_churn` and `codec_bulk`
//! shapes). `avx512` is the dispatching `encode_span`, so on a host without
//! AVX-512F both rows read the scalar rate.

use recoil::conventional::encode_conventional;
use recoil::prelude::*;
use recoil::rans::fast_encode::{encode_span, encode_span_scalar, takes_vector_path};
use recoil::rans::RenormSink;
use recoil_bench::bench;

fn main() {
    bench_pipeline();
    bench_encode_loops();
}

fn bench_pipeline() {
    let data = recoil::data::exponential_bytes(2_000_000, 100.0, 42);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    let codec = Codec::builder().max_segments(256).build().unwrap();
    let container = codec.encode_with_provider(&data, &model).unwrap();
    let conv = encode_conventional(&data, &model, 32, 256);
    let pool = ThreadPool::with_default_parallelism();
    // The scalar kernel on as many threads, so that Recoil and the baseline
    // run the same loop.
    let backend = AutoBackend::fixed(Kernel::Scalar, pool.threads());

    let (group, bytes) = ("pipeline", Some(data.len()));
    bench(group, "encode_with_split_planning", 10, bytes, || {
        codec.encode_with_provider(&data, &model).unwrap()
    });
    bench(group, "encode_plain_interleaved", 10, bytes, || {
        let mut enc = InterleavedEncoder::new(&model, 32);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        enc.finish()
    });
    let mut out = vec![0u8; data.len()];
    bench(group, "decode_recoil_parallel", 10, bytes, || {
        let (stream, metadata) = (&container.stream, &container.metadata);
        let model = DecodeModel::Static(&model);
        let req = DecodeRequest::whole(stream, metadata, model, &mut out);
        backend.decode(req.unwrap()).unwrap();
        std::hint::black_box(&out);
    });
    bench(group, "decode_conventional_parallel", 10, bytes, || {
        recoil::conventional::decode_conventional_into(&conv, &model, Some(&pool), &mut out)
            .unwrap();
        std::hint::black_box(&out);
    });
}

/// One span over all of `data` from fresh lane states, on the group loop
/// asked for.
fn encode_once(
    vector: bool,
    model: &StaticModelProvider,
    data: &[u8],
    sink: &mut impl RenormSink,
) -> Vec<u16> {
    let mut states = [recoil::rans::params::INITIAL_STATE; 32];
    let mut words = Vec::new();
    let encode = if vector {
        encode_span(model, data, 0, &mut states, &mut words, 0, sink)
    } else {
        encode_span_scalar(model, data, 0, &mut states, &mut words, 0, sink)
    };
    encode.unwrap();
    words
}

fn bench_encode_loops() {
    for (label, len, segments) in [("256KiB", 256 << 10, 256), ("8MiB", 8 << 20, 64)] {
        let data = recoil::data::text_like_bytes(len, 5.1, 5);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        println!(
            "encode/{label}: encode_span takes the {} loop here",
            if takes_vector_path(&model, &data[..], 32) {
                "avx512"
            } else {
                "scalar"
            }
        );
        let samples = if len > 1 << 20 { 15 } else { 300 };
        for (path, vector) in [("scalar", false), ("avx512", true)] {
            bench(
                "encode",
                &format!("{path}/{label}"),
                samples,
                Some(len),
                || encode_once(vector, &model, &data, &mut NullSink),
            );
            let name = format!("{path}+planner/{label}");
            bench("encode", &name, samples, Some(len), || {
                let mut planner = SplitPlanner::new(32, len as u64, segments);
                let words = encode_once(vector, &model, &data, &mut planner);
                planner.finish(words.len() as u64, 11)
            });
        }
    }
}
