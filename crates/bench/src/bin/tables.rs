//! Tables 4, 5 and 6: baseline compressed sizes and the size deltas of the
//! five variations, for every dataset and both quantization levels.
//!
//! ```sh
//! cargo run -p recoil-bench --release --bin tables            # scaled sizes
//! cargo run -p recoil-bench --release --bin tables -- --full  # paper sizes
//! ```

use recoil::data::ALL_DATASETS;
use recoil::prelude::*;
use recoil_bench::report::{fmt_delta, print_table};
use recoil_bench::variations::{ByteVariations, LARGE, SMALL};
use recoil_bench::BenchConfig;
use std::sync::Arc;

/// Paper deltas for Tables 5/6: (dataset, n, variation) → percent.
/// Used for the side-by-side "paper" column.
fn paper_pct(dataset: &str, n: u32, variation: &str) -> Option<f64> {
    let t5: &[(&str, [f64; 4])] = &[
        // (b) ConvL, (c) RecL, (d) ConvS, (e) RecS — n=11
        ("rand_10", [2.70, 2.09, 0.02, 0.01]),
        ("rand_50", [3.95, 3.18, 0.03, 0.02]),
        ("rand_100", [5.08, 4.16, 0.03, 0.03]),
        ("rand_200", [6.94, 5.89, 0.04, 0.04]),
        ("rand_500", [14.57, 13.59, 0.09, 0.08]),
        ("dickens", [3.38, 2.63, 0.02, 0.02]),
        ("webster", [0.77, 0.60, 0.01, 0.00]),
        ("enwik8", [0.32, 0.25, 0.00, 0.00]),
        ("enwik9", [0.03, 0.02, 0.00, 0.00]),
    ];
    let t6: &[(&str, [f64; 4])] = &[
        ("rand_10", [2.76, 2.14, 0.02, 0.01]),
        ("rand_50", [4.41, 3.59, 0.03, 0.02]),
        ("rand_100", [5.97, 4.87, 0.04, 0.03]),
        ("rand_200", [9.02, 7.81, 0.06, 0.05]),
        ("rand_500", [23.54, 21.53, 0.14, 0.13]),
        ("dickens", [3.65, 2.84, 0.03, 0.02]),
        ("webster", [0.82, 0.64, 0.01, 0.00]),
        ("enwik8", [0.33, 0.26, 0.00, 0.00]),
        ("enwik9", [0.03, 0.03, 0.00, 0.00]),
        ("div2k801", [10.31, 8.28, 0.07, 0.06]),
        ("div2k803", [6.99, 5.37, 0.05, 0.04]),
        ("div2k805", [14.20, 11.80, 0.10, 0.08]),
    ];
    let table = if n == 11 { t5 } else { t6 };
    let idx = match variation {
        "(b)" => 0,
        "(c)" => 1,
        "(d)" => 2,
        "(e)" => 3,
        _ => return None,
    };
    table
        .iter()
        .find(|(d, _)| *d == dataset)
        .map(|(_, v)| v[idx])
}

fn byte_dataset_tables(cfg: &BenchConfig) {
    for &n in &[11u32, 16] {
        let mut t4_rows = Vec::new();
        let mut delta_rows = Vec::new();
        for d in ALL_DATASETS.iter().filter(|d| !d.is_latent()) {
            let bytes = cfg.dataset_bytes(d);
            let scale = bytes as f64 / d.full_bytes() as f64;
            eprintln!(
                "[{} n={n}: generating {bytes} bytes + building 5 variations]",
                d.name
            );
            let data = d.generate_bytes(bytes);
            let v = ByteVariations::build(&data, n);
            let a = v.baseline_bytes();

            // Table 4 row: baseline size vs paper (paper value scaled when
            // we run a scaled dataset).
            let paper_a = if n == 11 {
                d.paper.baseline_n11_kb.unwrap() as f64
            } else {
                d.paper.baseline_n16_kb as f64
            } * 1000.0
                * scale;
            t4_rows.push(vec![
                d.name.to_string(),
                format!("{:.0} KB", bytes as f64 / 1e3),
                format!("{:.0} KB", a as f64 / 1e3),
                format!("{:.0} KB", paper_a / 1e3),
                format!("{:+.1}%", 100.0 * (a as f64 - paper_a) / paper_a),
            ]);

            // Table 5/6 row: deltas of (b)-(f) vs (a).
            let mut row = vec![d.name.to_string()];
            for (label, total) in v.sizes() {
                let code = &label[..3];
                let delta = total as i64 - a as i64;
                let paper = paper_pct(d.name, n, code);
                row.push(format!(
                    "{} [paper {}]",
                    fmt_delta(delta, a),
                    paper.map_or("-".into(), |p| format!("{p:+.2}%"))
                ));
            }
            delta_rows.push(row);
        }
        print_table(
            &format!("Table 4 (n={n}): baseline (a) compressed sizes"),
            &["dataset", "input", "ours", "paper(scaled)", "diff"],
            &t4_rows,
        );
        print_table(
            &format!(
                "Table {} (n={n}): size deltas vs (a); Large={LARGE}, Small={SMALL}",
                if n == 11 { 5 } else { 6 }
            ),
            &[
                "dataset",
                "(b) ConvLarge",
                "(c) RecoilLarge",
                "(d) ConvSmall",
                "(e) RecoilSmall",
            ],
            &delta_rows,
        );
    }
}

fn latent_tables(cfg: &BenchConfig) {
    eprintln!("[building n=16 Gaussian scale bank]");
    let bank = Arc::new(GaussianScaleBank::default_latent_bank());
    let mut rows = Vec::new();
    for d in ALL_DATASETS.iter().filter(|d| d.is_latent()) {
        let bytes = cfg.dataset_bytes(d);
        eprintln!("[{}: generating {bytes} latent bytes + variations]", d.name);
        let ds = d.generate_latents(Arc::clone(&bank), bytes);
        let codec = Codec::builder()
            .max_segments(2176)
            .quant_bits(16)
            .build()
            .unwrap();
        let recoil_large = codec
            .encode_with_provider(&ds.symbols, &ds.provider)
            .unwrap();
        let recoil_small =
            try_combine_splits(&recoil_large.metadata, 16).expect("a fresh encode combines");
        let conv_large =
            recoil::conventional::encode_conventional(&ds.symbols, &ds.provider, 32, 2176);
        let conv_small =
            recoil::conventional::encode_conventional(&ds.symbols, &ds.provider, 32, 16);

        let a = recoil_large.stream_bytes();
        let paper_a =
            d.paper.baseline_n16_kb as f64 * 1000.0 * (bytes as f64 / d.full_bytes() as f64);

        let deltas = [
            ("(b)", conv_large.payload_bytes() as i64 - a as i64),
            ("(c)", recoil_large.metadata_bytes() as i64),
            ("(d)", conv_small.payload_bytes() as i64 - a as i64),
            ("(e)", metadata_to_bytes(&recoil_small).len() as i64),
        ];
        let mut row = vec![
            d.name.to_string(),
            format!("{:.0}/{:.0} KB", a as f64 / 1e3, paper_a / 1e3),
        ];
        for (code, delta) in deltas {
            let paper = paper_pct(d.name, 16, code);
            row.push(format!(
                "{} [paper {}]",
                fmt_delta(delta, a),
                paper.map_or("-".into(), |p| format!("{p:+.2}%"))
            ));
        }
        rows.push(row);
    }
    print_table(
        "Table 6 (div2k, adaptive n=16): size deltas vs (a)",
        &[
            "dataset",
            "(a) ours/paper",
            "(b) ConvLarge",
            "(c) RecoilLarge",
            "(d) ConvSmall",
            "(e) RecoilSmall",
        ],
        &rows,
    );
}

fn main() {
    let cfg = BenchConfig::from_args();
    byte_dataset_tables(&cfg);
    latent_tables(&cfg);

    // §5.2 headline: the max overhead reduction from serving Recoil Small
    // instead of Conventional Large is checked on rand_500 at n=16.
    println!("\nheadline (§5.2): serve (e) instead of (b) for a 16-way client on rand_500/n=16;");
    println!(
        "the paper reports a -23.41% overhead reduction (ours: Table 6, rand_500, (b) vs (e))."
    );
}
