//! Figure 7: decoding throughput of the six bitstream variations.
//!
//! CPU experiments (paper: 16C Xeon W-3245, AVX-512 & AVX2): Single-Thread
//! decodes variation (a); Conventional decodes (d) and Recoil decodes (e)
//! on 16 threads. GPU experiments (paper: RTX 2080 Ti, CUDA): multians
//! decodes (f), Conventional (b) and Recoil (c) at 2176-way parallelism —
//! here run as a thread-pool "GPU-sim" over the identical per-split code
//! path (absolute GB/s is hardware, relative shape is the claim).
//!
//! ```sh
//! cargo run -p recoil-bench --release --bin fig7
//! cargo run -p recoil-bench --release --bin fig7 -- --full --runs 10
//! ```

use recoil::core::codec::decode_pooled;
use recoil::data::ALL_DATASETS;
use recoil::prelude::*;
use recoil_bench::report::print_table;
use recoil_bench::variations::{ByteVariations, LARGE};
use recoil_bench::{measure_gbps, BenchConfig};
use std::sync::Arc;

/// Paper Figure 7 values in GB/s: (dataset, n) → per-configuration numbers.
/// Order: [multians, ConvCUDA, RecoilCUDA, ST-512, Conv-512, Recoil-512,
/// ST-AVX2, Conv-AVX2, Recoil-AVX2]; NaN where the paper has no bar.
#[rustfmt::skip]
fn paper_fig7(dataset: &str, n: u32) -> Option<[f64; 9]> {
    const NAN: f64 = f64::NAN;
    let t: &[(&str, u32, [f64; 9])] = &[
        ("rand_10",  11, [9.5, 71.2, 76.4, 0.9, 7.6, 7.5, 0.5, 5.1, 4.9]),
        ("rand_50",  11, [4.8, 73.1, 77.9, 0.9, 7.9, 7.7, 0.5, 5.2, 5.0]),
        ("rand_100", 11, [3.2, 71.4, 76.5, 0.9, 7.8, 7.9, 0.7, 6.1, 6.1]),
        ("rand_200", 11, [4.8, 72.7, 74.9, 0.7, 6.6, 7.2, 0.7, 5.8, 5.1]),
        ("rand_500", 11, [1.6, 75.8, 68.9, 0.8, 6.5, 6.4, 0.5, 5.3, 5.2]),
        ("dickens",  11, [4.9, 72.3, 76.3, 0.9, 8.1, 8.1, 0.7, 6.3, 6.3]),
        ("webster",  11, [6.6, 87.1, 90.3, 0.9, 8.9, 8.9, 0.7, 7.0, 6.6]),
        ("enwik8",   11, [6.8, 87.4, 89.5, 0.9, 10.5, 10.4, 0.7, 6.7, 6.4]),
        ("enwik9",   11, [6.9, 96.9, 94.8, 0.9, 11.0, 11.2, 0.6, 7.5, 7.8]),
        ("rand_10",  16, [0.3, 27.3, 29.3, 0.6, 5.7, 5.1, 0.5, 4.7, 4.9]),
        ("rand_50",  16, [0.1, 28.3, 29.6, 0.6, 5.3, 5.8, 0.5, 4.9, 4.9]),
        ("rand_100", 16, [0.1, 28.8, 29.8, 0.6, 5.5, 5.5, 0.5, 3.9, 3.5]),
        ("rand_200", 16, [0.1, 28.9, 29.7, 0.4, 4.2, 4.1, 0.5, 5.0, 4.8]),
        ("rand_500", 16, [0.1, 30.4, 27.6, 0.5, 4.3, 4.1, 0.5, 5.0, 4.9]),
        ("dickens",  16, [0.2, 28.1, 29.5, 0.6, 5.1, 5.3, 0.5, 4.2, 3.7]),
        ("webster",  16, [0.5, 29.8, 31.0, 0.6, 6.8, 7.0, 0.5, 5.9, 5.8]),
        ("enwik8",   16, [0.7, 30.4, 31.5, 0.6, 6.3, 6.1, 0.6, 6.7, 6.7]),
        ("enwik9",   16, [1.0, 31.4, 31.9, 0.6, 7.9, 7.9, 0.6, 7.7, 7.4]),
        ("div2k801", 16, [NAN, 11.7, 11.6, 0.3, 2.6, 2.6, 0.2, 2.4, 2.2]),
        ("div2k803", 16, [NAN, 23.3, 21.9, 0.3, 3.3, 3.4, 0.3, 2.8, 2.7]),
        ("div2k805", 16, [NAN, 10.5, 10.2, 0.3, 2.6, 2.7, 0.2, 2.4, 2.3]),
    ];
    t.iter().find(|(d, nn, _)| *d == dataset && *nn == n).map(|&(_, _, v)| v)
}

fn fmt(v: f64, paper: f64) -> String {
    if paper.is_nan() {
        format!("{v:.2}")
    } else {
        format!("{v:.2} [{paper}]")
    }
}

fn byte_dataset_fig7(cfg: &BenchConfig, cpu_pool: &ThreadPool, gpu_pool: &ThreadPool) {
    let gpu_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let gpu_backend = AutoBackend::fixed(Kernel::best(), gpu_threads);
    let kernels: Vec<Kernel> = [Kernel::Avx512, Kernel::Avx2]
        .into_iter()
        .filter(|k| k.is_available())
        .collect();
    let cpu_backends: Vec<(Kernel, AutoBackend)> = kernels
        .iter()
        .map(|&k| (k, AutoBackend::fixed(k, cfg.threads)))
        .collect();

    for &n in &[11u32, 16] {
        let mut gpu_rows = Vec::new();
        let mut cpu_rows = Vec::new();
        for d in ALL_DATASETS.iter().filter(|d| !d.is_latent()) {
            let bytes = cfg.dataset_bytes(d);
            eprintln!("[fig7 {} n={n}: {bytes} bytes]", d.name);
            let data = d.generate_bytes(bytes);
            let v = ByteVariations::build(&data, n);
            let paper = paper_fig7(d.name, n).unwrap_or([f64::NAN; 9]);
            let mut out = vec![0u8; data.len()];

            // --- GPU-sim: multians (f), Conventional (b), Recoil (c). ---
            let kern = Kernel::best();
            let g_mult = measure_gbps(cfg.runs, bytes, || {
                let (o, _) =
                    decode_multians::<u8>(&v.tans.0, &v.tans.1, LARGE, Some(gpu_pool)).unwrap();
                assert_eq!(o.len(), data.len());
            });
            let g_conv = measure_gbps(cfg.runs, bytes, || {
                decode_conventional_simd(kern, &v.conv_large, &v.model, Some(gpu_pool), &mut out)
                    .unwrap();
            });
            let g_rec = measure_gbps(cfg.runs, bytes, || {
                let large = &v.recoil_large;
                let model = DecodeModel::Static(&v.model);
                let req = DecodeRequest::whole(&large.stream, &large.metadata, model, &mut out);
                gpu_backend.decode(req.unwrap()).unwrap();
            });
            gpu_rows.push(vec![
                d.name.into(),
                fmt(g_mult, paper[0]),
                fmt(g_conv, paper[1]),
                fmt(g_rec, paper[2]),
            ]);

            // --- CPU: Single-Thread (a), Conventional (d), Recoil (e). ---
            let mut row = vec![d.name.to_string()];
            for (kernel, cpu_backend) in &cpu_backends {
                let kernel = *kernel;
                let pbase = if kernel == Kernel::Avx512 { 3 } else { 6 };
                let c_single = measure_gbps(cfg.runs, bytes, || {
                    decode_interleaved_simd(kernel, &v.recoil_large.stream, &v.model, &mut out)
                        .unwrap();
                });
                let c_conv = measure_gbps(cfg.runs, bytes, || {
                    decode_conventional_simd(
                        kernel,
                        &v.conv_small,
                        &v.model,
                        Some(cpu_pool),
                        &mut out,
                    )
                    .unwrap();
                });
                let c_rec = measure_gbps(cfg.runs, bytes, || {
                    let stream = &v.recoil_large.stream;
                    let model = DecodeModel::Static(&v.model);
                    let req = DecodeRequest::whole(stream, &v.recoil_small, model, &mut out);
                    cpu_backend.decode(req.unwrap()).unwrap();
                });
                row.push(fmt(c_single, paper[pbase]));
                row.push(fmt(c_conv, paper[pbase + 1]));
                row.push(fmt(c_rec, paper[pbase + 2]));
            }
            cpu_rows.push(row);
        }
        print_table(
            &format!("Figure 7 GPU-sim (n={n}), GB/s [paper CUDA]"),
            &["dataset", "multians(f)", "Conventional(b)", "Recoil(c)"],
            &gpu_rows,
        );
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

fn latent_fig7(cfg: &BenchConfig, cpu_pool: &ThreadPool, gpu_pool: &ThreadPool) {
    // Adaptive models have no flat-LUT SIMD path (per-position indirection);
    // both CPU and GPU-sim rows run the scalar trait-based decoder — the
    // paper's adaptive rows are likewise its slowest (§5.3).
    eprintln!("[fig7 div2k: building n=16 scale bank]");
    let bank = Arc::new(GaussianScaleBank::default_latent_bank());
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
        let recoil_small = combine_splits(&recoil_large.metadata, 16);
        let conv_large =
            recoil::conventional::encode_conventional(&ds.symbols, &ds.provider, 32, LARGE);
        let conv_small =
            recoil::conventional::encode_conventional(&ds.symbols, &ds.provider, 32, 16);
        let paper = paper_fig7(d.name, 16).unwrap();

        let mut out = vec![0u16; ds.symbols.len()];
        let g_conv = measure_gbps(cfg.runs, bytes, || {
            recoil::conventional::decode_conventional_into(
                &conv_large,
                &ds.provider,
                Some(gpu_pool),
                &mut out,
            )
            .unwrap();
        });
        let g_rec = measure_gbps(cfg.runs, bytes, || {
            decode_pooled(
                &recoil_large.stream,
                &recoil_large.metadata,
                &ds.provider,
                Some(gpu_pool),
                &mut out,
            )
            .unwrap();
        });
        let c_conv = measure_gbps(cfg.runs, bytes, || {
            recoil::conventional::decode_conventional_into(
                &conv_small,
                &ds.provider,
                Some(cpu_pool),
                &mut out,
            )
            .unwrap();
        });
        let c_rec = measure_gbps(cfg.runs, bytes, || {
            decode_pooled(
                &recoil_large.stream,
                &recoil_small,
                &ds.provider,
                Some(cpu_pool),
                &mut out,
            )
            .unwrap();
        });
        rows.push(vec![
            d.name.into(),
            fmt(g_conv, paper[1]),
            fmt(g_rec, paper[2]),
            fmt(c_conv, paper[4]),
            fmt(c_rec, paper[5]),
        ]);
    }
    print_table(
        "Figure 7 div2k (adaptive n=16, scalar decoder), GB/s [paper]",
        &[
            "dataset",
            "GPU-sim Conv(b)",
            "GPU-sim Recoil(c)",
            "CPU Conv(d)",
            "CPU Recoil(e)",
        ],
        &rows,
    );
}

fn main() {
    let cfg = BenchConfig::from_args();
    println!(
        "fig7: CPU = {} threads, GPU-sim = all cores, {} runs/point, kernels {:?}",
        cfg.threads,
        cfg.runs,
        Kernel::all_available()
    );
    // One pool per hardware configuration for the whole run, shared by both
    // experiment families: the measurements time decoding, never pool
    // construction or thread churn.
    let cpu_pool = ThreadPool::new(cfg.threads.saturating_sub(1));
    let gpu_pool = ThreadPool::with_default_parallelism();
    byte_dataset_fig7(&cfg, &cpu_pool, &gpu_pool);
    latent_fig7(&cfg, &cpu_pool, &gpu_pool);
}
