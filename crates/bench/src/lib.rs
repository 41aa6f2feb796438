//! Shared harness for the binaries that print the paper's evaluation (§5)
//! at full dataset sizes:
//!
//! | binary | artifact |
//! |---|---|
//! | `tables` | Tables 4, 5, 6 — baseline sizes and per-variation deltas |
//! | `fig7` | Figure 7 — CPU decode throughput per kernel |
//!
//! The paper's size and scaling claims are asserted at tier-1 sizes in
//! `tests/paper_claims.rs`; performance is measured by the delivery ladder
//! (`src/bin/ladder/`, run by `BENCHMARK.json`), not by these binaries.
//!
//! Results are printed as aligned tables with the paper's reference values
//! side by side.

// Safe crate: `unsafe` lives only in the audited allowlist (cargo xtask check).
#![forbid(unsafe_code)]

pub mod report;
pub mod variations;

use recoil::data::Dataset;
use std::time::Instant;

/// Harness configuration shared by the binaries.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Use the paper's full dataset sizes (1 GB enwik9!) instead of the
    /// scaled defaults.
    pub full: bool,
    /// Decode threads for CPU experiments (paper: 16-core Xeon W-3245).
    pub threads: usize,
    /// Throughput runs to average (paper: 10).
    pub runs: usize,
}

impl BenchConfig {
    /// Parses `--full`, `--threads N`, `--runs N` from argv.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut cfg = Self {
            full: false,
            threads: 16,
            runs: 5,
        };
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => cfg.full = true,
                "--threads" => {
                    i += 1;
                    cfg.threads = args[i].parse().expect("--threads N");
                }
                "--runs" => {
                    i += 1;
                    cfg.runs = args[i].parse().expect("--runs N");
                }
                _ => {}
            }
            i += 1;
        }
        cfg
    }

    /// Bytes to generate for `d`: the paper's full size, or a scaled default
    /// that keeps the whole suite laptop-friendly (enwik8 → 50 MB, enwik9 →
    /// 100 MB; everything else is already ≤ 41 MB and runs at full size).
    pub fn dataset_bytes(&self, d: &Dataset) -> usize {
        let full = d.full_bytes();
        if self.full {
            return full;
        }
        match d.name {
            "enwik8" => full.min(50_000_000),
            "enwik9" => full.min(100_000_000),
            _ => full,
        }
    }
}

/// Mean throughput in GB/s of `f` over `runs` runs processing `bytes`
/// (uncompressed bytes, matching the paper's definition).
pub fn measure_gbps<F: FnMut()>(runs: usize, bytes: usize, mut f: F) -> f64 {
    // One warm-up run (page faults, pool spin-up).
    f();
    let mut total = 0.0;
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        f();
        total += t0.elapsed().as_secs_f64();
    }
    bytes as f64 / (total / runs.max(1) as f64) / 1e9
}
