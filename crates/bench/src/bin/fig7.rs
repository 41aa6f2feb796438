//! Figure 7, CPU half: decoding throughput per kernel. Single-Thread
//! decodes variation (a); Conventional decodes (d) and Recoil decodes (e) on
//! `--threads` threads (default 16; paper: 16C Xeon W-3245, AVX-512 & AVX2).
//! The div2k rows decode their adaptive models on the scalar kernel. The
//! paper's CUDA bars (multians, and (b)/(c) at 2176-way) have no
//! counterpart here.
//!
//! A printout, not a test: it times full-size datasets that the tier-1
//! suite cannot afford, and a wall-clock ratio there would be a flaky gate
//! (`tests/paper_claims.rs` asserts the paper's size and scaling claims).
//!
//! ```sh
//! cargo run -p recoil-bench --release --bin fig7
//! cargo run -p recoil-bench --release --bin fig7 -- --full --runs 10
//! ```

use recoil::data::ALL_DATASETS;
use recoil::prelude::*;
use recoil_bench::report::{gb_per_s, print_table};
use recoil_bench::variations::{ByteVariations, LARGE, SMALL};
use recoil_bench::{time, BenchConfig};
use std::sync::Arc;

/// Paper Figure 7 CPU values in GB/s: (dataset, n) → per-configuration
/// numbers, in the order [ST-512, Conv-512, Recoil-512, ST-AVX2, Conv-AVX2,
/// Recoil-AVX2].
#[rustfmt::skip]
fn paper_fig7(dataset: &str, n: u32) -> [f64; 6] {
    let t: &[(&str, u32, [f64; 6])] = &[
        ("rand_10",  11, [0.9, 7.6, 7.5, 0.5, 5.1, 4.9]),
        ("rand_50",  11, [0.9, 7.9, 7.7, 0.5, 5.2, 5.0]),
        ("rand_100", 11, [0.9, 7.8, 7.9, 0.7, 6.1, 6.1]),
        ("rand_200", 11, [0.7, 6.6, 7.2, 0.7, 5.8, 5.1]),
        ("rand_500", 11, [0.8, 6.5, 6.4, 0.5, 5.3, 5.2]),
        ("dickens",  11, [0.9, 8.1, 8.1, 0.7, 6.3, 6.3]),
        ("webster",  11, [0.9, 8.9, 8.9, 0.7, 7.0, 6.6]),
        ("enwik8",   11, [0.9, 10.5, 10.4, 0.7, 6.7, 6.4]),
        ("enwik9",   11, [0.9, 11.0, 11.2, 0.6, 7.5, 7.8]),
        ("rand_10",  16, [0.6, 5.7, 5.1, 0.5, 4.7, 4.9]),
        ("rand_50",  16, [0.6, 5.3, 5.8, 0.5, 4.9, 4.9]),
        ("rand_100", 16, [0.6, 5.5, 5.5, 0.5, 3.9, 3.5]),
        ("rand_200", 16, [0.4, 4.2, 4.1, 0.5, 5.0, 4.8]),
        ("rand_500", 16, [0.5, 4.3, 4.1, 0.5, 5.0, 4.9]),
        ("dickens",  16, [0.6, 5.1, 5.3, 0.5, 4.2, 3.7]),
        ("webster",  16, [0.6, 6.8, 7.0, 0.5, 5.9, 5.8]),
        ("enwik8",   16, [0.6, 6.3, 6.1, 0.6, 6.7, 6.7]),
        ("enwik9",   16, [0.6, 7.9, 7.9, 0.6, 7.7, 7.4]),
        ("div2k801", 16, [0.3, 2.6, 2.6, 0.2, 2.4, 2.2]),
        ("div2k803", 16, [0.3, 3.3, 3.4, 0.3, 2.8, 2.7]),
        ("div2k805", 16, [0.3, 2.6, 2.7, 0.2, 2.4, 2.3]),
    ];
    t.iter()
        .find(|(d, nn, _)| *d == dataset && *nn == n)
        .map(|&(_, _, v)| v)
        .expect("every Table 4 dataset has a Figure 7 row")
}

fn fmt(v: f64, paper: f64) -> String {
    format!("{v:.2} [{paper}]")
}

fn byte_dataset_fig7(cfg: &BenchConfig, cpu_pool: &ThreadPool) {
    let kernels: Vec<Kernel> = [Kernel::Avx512, Kernel::Avx2]
        .into_iter()
        .filter(|k| k.is_available())
        .collect();
    let cpu_backends: Vec<(Kernel, AutoBackend)> = kernels
        .iter()
        .map(|&k| (k, AutoBackend::fixed(k, cfg.threads)))
        .collect();

    for &n in &[11u32, 16] {
        let mut cpu_rows = Vec::new();
        for d in ALL_DATASETS.iter().filter(|d| !d.is_latent()) {
            let bytes = cfg.dataset_bytes(d);
            eprintln!("[fig7 {} n={n}: {bytes} bytes]", d.name);
            let data = d.generate_bytes(bytes);
            let v = ByteVariations::build(&data, n);
            let paper = paper_fig7(d.name, n);
            let mut out = vec![0u8; data.len()];

            // Single-Thread (a), Conventional (d), Recoil (e).
            let mut row = vec![d.name.to_string()];
            for (kernel, cpu_backend) in &cpu_backends {
                let kernel = *kernel;
                let pbase = if kernel == Kernel::Avx512 { 0 } else { 3 };
                let single = time(cfg.runs, || {
                    decode_interleaved_simd(kernel, &v.recoil_large.stream, &v.model, &mut out)
                        .unwrap();
                });
                let conv = time(cfg.runs, || {
                    decode_conventional_simd(
                        kernel,
                        &v.conv_small,
                        &v.model,
                        Some(cpu_pool),
                        &mut out,
                    )
                    .unwrap();
                });
                let rec = time(cfg.runs, || {
                    let stream = &v.recoil_large.stream;
                    let model = DecodeModel::Static(&v.model);
                    let req = DecodeRequest::whole(stream, &v.recoil_small, model, &mut out);
                    cpu_backend.decode(req.unwrap()).unwrap();
                });
                for (i, t) in [single, conv, rec].iter().enumerate() {
                    row.push(fmt(gb_per_s(bytes, t.mean), paper[pbase + i]));
                }
            }
            cpu_rows.push(row);
        }
        let mut headers = vec!["dataset"];
        for k in &kernels {
            match k {
                Kernel::Avx512 => headers.extend(["ST-512", "Conv-512", "Rec-512"]),
                Kernel::Avx2 => headers.extend(["ST-AVX2", "Conv-AVX2", "Rec-AVX2"]),
                Kernel::Scalar => {}
            }
        }
        print_table(
            &format!(
                "Figure 7 CPU ({} threads, n={n}), GB/s [paper]",
                cfg.threads
            ),
            &headers,
            &cpu_rows,
        );
    }
}

fn latent_fig7(cfg: &BenchConfig, cpu_pool: &ThreadPool) {
    // Adaptive models have no flat-LUT SIMD path (per-position indirection):
    // the backend runs them on the scalar kernel — the paper's adaptive rows
    // are likewise its slowest (§5.3).
    eprintln!("[fig7 div2k: building n=16 scale bank]");
    let bank = Arc::new(GaussianScaleBank::default_latent_bank());
    let backend = AutoBackend::with_threads(cfg.threads);
    let mut rows = Vec::new();
    for d in ALL_DATASETS.iter().filter(|d| d.is_latent()) {
        let bytes = cfg.dataset_bytes(d);
        eprintln!("[fig7 {}: {bytes} latent bytes]", d.name);
        let ds = d.generate_latents(Arc::clone(&bank), bytes);
        let codec = Codec::builder()
            .max_segments(LARGE as u64)
            .quant_bits(16)
            .build()
            .unwrap();
        let recoil_large = codec
            .encode_with_provider(&ds.symbols, &ds.provider)
            .unwrap();
        let recoil_small = try_combine_splits(&recoil_large.metadata, SMALL as u64)
            .expect("a fresh encode combines");
        let conv_small =
            recoil::conventional::encode_conventional(&ds.symbols, &ds.provider, 32, SMALL);
        let paper = paper_fig7(d.name, 16);

        let mut out = vec![0u16; ds.symbols.len()];
        let conv = time(cfg.runs, || {
            recoil::conventional::decode_conventional_into(
                &conv_small,
                &ds.provider,
                Some(cpu_pool),
                &mut out,
            )
            .unwrap();
        });
        let rec = time(cfg.runs, || {
            let stream = &recoil_large.stream;
            let model = DecodeModel::Adaptive(&ds.provider);
            let req = DecodeRequest::whole(stream, &recoil_small, model, &mut out);
            backend.decode(req.unwrap()).unwrap();
        });
        rows.push(vec![
            d.name.into(),
            fmt(gb_per_s(bytes, conv.mean), paper[1]),
            fmt(gb_per_s(bytes, rec.mean), paper[2]),
        ]);
    }
    print_table(
        &format!(
            "Figure 7 div2k ({} threads, adaptive n=16, scalar kernel), GB/s [paper AVX-512]",
            cfg.threads
        ),
        &["dataset", "Conv(d)", "Recoil(e)"],
        &rows,
    );
}

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "fig7: CPU = {} threads, {} runs/point, kernels {:?}",
        cfg.threads,
        cfg.runs,
        Kernel::all_available()
    );
    // One pool for the conventional decodes of the whole run (each Recoil
    // backend owns its own): the measurements time decoding, never pool
    // construction or thread churn.
    let cpu_pool = ThreadPool::new(cfg.threads.saturating_sub(1));
    byte_dataset_fig7(&cfg, &cpu_pool);
    latent_fig7(&cfg, &cpu_pool);
}
