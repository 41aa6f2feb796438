//! Ablation studies beyond the paper's tables:
//!
//! 1. **Heuristic**: Definition 4.1's sync-aware scoring vs. naive
//!    nearest-to-target splitting — sync-section length and workload
//!    balance.
//! 2. **Metadata scaling**: serialized metadata bytes per split across
//!    split counts (the paper's ≈76 B/split at W = 32).
//! 3. **Combine cost**: the real-time split-combining latency for a range
//!    of requested parallelism levels (§3.3 claims it is negligible).

use recoil::core::{plan_from_events, Heuristic, PlannerConfig};
use recoil::prelude::*;
use recoil_bench::report::print_table;
use recoil_bench::BenchConfig;
use std::time::Instant;

fn heuristic_study(data: &[u8]) {
    let model = StaticModelProvider::new(CdfTable::of_bytes(data, 11));
    let mut enc = InterleavedEncoder::new(&model, 32);
    let mut sink = VecSink::new();
    enc.encode_all_fast(data, &mut sink)
        .expect("the model was built from this data");
    let stream = enc.finish();

    let mut rows = Vec::new();
    for (name, heuristic) in [
        ("Def4.1 sync-aware", Heuristic::SyncAware),
        ("naive nearest", Heuristic::NearestOnly),
    ] {
        for segments in [16u64, 256, 2176] {
            let mut cfg = PlannerConfig::with_segments(segments);
            cfg.heuristic = heuristic;
            let meta = plan_from_events(
                &sink.events,
                32,
                stream.num_symbols,
                stream.words.len() as u64,
                11,
                cfg,
            );
            let syncs: Vec<u64> = meta.splits.iter().map(|s| s.sync_len()).collect();
            let avg_sync = syncs.iter().sum::<u64>() as f64 / syncs.len().max(1) as f64;
            let max_sync = syncs.iter().max().copied().unwrap_or(0);
            let bounds = meta.segment_bounds();
            let spans: Vec<u64> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
            let target = stream.num_symbols as f64 / segments as f64;
            let worst = spans.iter().max().copied().unwrap_or(0) as f64 / target;
            rows.push(vec![
                name.into(),
                segments.to_string(),
                format!("{:.1}", avg_sync),
                max_sync.to_string(),
                format!("{:.3}x", worst),
            ]);
        }
    }
    print_table(
        "Ablation 1: split heuristic (10 MB text, n=11)",
        &[
            "heuristic",
            "segments",
            "avg sync len",
            "max sync len",
            "worst span/target",
        ],
        &rows,
    );
}

fn metadata_scaling(data: &[u8]) {
    let model = StaticModelProvider::new(CdfTable::of_bytes(data, 11));
    let mut rows = Vec::new();
    for segments in [16u64, 64, 256, 1024, 2176, 4096] {
        let codec = Codec::builder().max_segments(segments).build().unwrap();
        let c = codec.encode_with_provider(data, &model).unwrap();
        let meta_bytes = c.metadata_bytes();
        let per_split = meta_bytes as f64 / (c.metadata.num_segments() - 1).max(1) as f64;
        let pct = 100.0 * meta_bytes as f64 / c.stream_bytes() as f64;
        rows.push(vec![
            segments.to_string(),
            c.metadata.num_segments().to_string(),
            meta_bytes.to_string(),
            format!("{per_split:.1}"),
            format!("{pct:.3}%"),
        ]);
    }
    print_table(
        "Ablation 2: metadata size vs split count (10 MB rand_100, n=11, W=32)",
        &[
            "requested",
            "planned",
            "metadata bytes",
            "bytes/split",
            "of payload",
        ],
        &rows,
    );
    println!("paper §5.2 ballpark: ≈76 B/split at W=32 (64 B of raw u16 states + diffs)");
}

fn combine_cost(data: &[u8]) {
    let model = StaticModelProvider::new(CdfTable::of_bytes(data, 11));
    let codec = Codec::builder().max_segments(2176).build().unwrap();
    let c = codec.encode_with_provider(data, &model).unwrap();
    let mut rows = Vec::new();
    for target in [1u64, 4, 16, 64, 256, 1024] {
        let runs = 200;
        let t0 = Instant::now();
        for _ in 0..runs {
            let m = combine_splits(&c.metadata, target);
            std::hint::black_box(&m);
        }
        let each = t0.elapsed().as_secs_f64() / runs as f64;
        // Include serialization, as a server response would.
        let t0 = Instant::now();
        for _ in 0..runs {
            let m = combine_splits(&c.metadata, target);
            std::hint::black_box(metadata_to_bytes(&m));
        }
        let with_ser = t0.elapsed().as_secs_f64() / runs as f64;
        rows.push(vec![
            target.to_string(),
            format!("{:.1} µs", each * 1e6),
            format!("{:.1} µs", with_ser * 1e6),
        ]);
    }
    print_table(
        "Ablation 3: real-time combine cost from 2176 splits (§3.3)",
        &["target segments", "combine", "combine+serialize"],
        &rows,
    );
}

fn main() {
    let _cfg = BenchConfig::from_args();
    let text = recoil::data::Dataset::by_name("enwik9")
        .unwrap()
        .generate_bytes(10_000_000);
    heuristic_study(&text);
    let rand = recoil::data::Dataset::by_name("rand_100")
        .unwrap()
        .generate_bytes(10_000_000);
    metadata_scaling(&rand);
    combine_cost(&rand);
}
