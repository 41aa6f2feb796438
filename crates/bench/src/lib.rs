//! The one printing harness beside the delivery ladder. Performance is
//! measured by the ladder (`src/bin/ladder/`, run by `BENCHMARK.json`);
//! everything else here prints, through one clock ([`time`]) and one table
//! module ([`report`]):
//!
//! | target | prints |
//! |---|---|
//! | `tables` (bin) | Tables 4, 5, 6 — baseline sizes and per-variation deltas |
//! | `fig7` (bin) | Figure 7 — CPU decode throughput per kernel |
//! | `decode_kernels`, `metadata_plane`, `recoil_pipeline` (benches) | one [`bench`] row per kernel call |
//!
//! The paper's size and scaling claims are asserted at tier-1 sizes in
//! `tests/paper_claims.rs`; the binaries print the full-size numbers with
//! the paper's reference values side by side, and assert nothing.

// Safe crate: `forbid` keeps any module from allowing `unsafe`.
#![forbid(unsafe_code)]

pub mod report;
pub mod variations;

use recoil::data::Dataset;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Harness configuration shared by the binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Parses `--full`, `--threads N`, `--runs N` from argv; on a missing or
    /// non-numeric `N`, prints the usage error and exits with code 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|err| {
            eprintln!("error: {err}\nusage: [--full] [--threads N] [--runs N]");
            std::process::exit(2)
        })
    }

    /// Parses `--full`, `--threads N`, `--runs N` (argv without the
    /// program name); other arguments are ignored.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self {
            full: false,
            threads: 16,
            runs: 5,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let count = match arg.as_str() {
                "--full" => {
                    cfg.full = true;
                    continue;
                }
                "--threads" => &mut cfg.threads,
                "--runs" => &mut cfg.runs,
                _ => continue,
            };
            *count = args
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("{arg} takes a number"))?;
        }
        Ok(cfg)
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

/// Most batches [`time`] splits its calls into.
const BATCHES: usize = 10;

/// What [`time`] measured, over the mean call time of each batch. On a
/// shared host a neighbour's burst moves a plain mean, while the median
/// batch stays put and the minimum says what the code costs undisturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Median of the batch means.
    pub median: Duration,
    /// Fastest batch mean.
    pub min: Duration,
    /// Mean of the batch means: the average the paper reports.
    pub mean: Duration,
}

impl Timing {
    /// The summary of `batch_means`, or `None` when nothing was timed.
    fn of(mut batch_means: Vec<Duration>) -> Option<Self> {
        batch_means.sort_unstable();
        let min = *batch_means.first()?;
        let mid = batch_means.len() / 2;
        let median = if batch_means.len().is_multiple_of(2) {
            (batch_means[mid - 1] + batch_means[mid]) / 2
        } else {
            batch_means[mid]
        };
        let mean = batch_means.iter().sum::<Duration>() / batch_means.len() as u32;
        Some(Self { median, min, mean })
    }
}

/// Calls in each batch of `samples` timed calls: `min(samples, 10)`
/// batches, whose sizes differ by at most one.
fn batch_sizes(samples: usize) -> impl Iterator<Item = usize> {
    let batches = samples.min(BATCHES);
    (0..batches).map(move |b| samples / batches + usize::from(b < samples % batches))
}

/// Times `f`: one warm-up call (page faults, pool spin-up), then `samples`
/// calls (at least one) in up to ten batches, each timed as a whole.
pub fn time<O>(samples: usize, mut f: impl FnMut() -> O) -> Timing {
    black_box(f());
    let batch_means = batch_sizes(samples.max(1))
        .map(|calls| {
            let t0 = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t0.elapsed().div_f64(calls as f64)
        })
        .collect();
    Timing::of(batch_means).expect("at least one batch is timed")
}

/// Times `f` over `samples` calls and prints its row (see
/// [`report::bench_row`]); `bytes` is what one call processes, for the
/// rate.
pub fn bench<O>(
    group: &str,
    name: &str,
    samples: usize,
    bytes: Option<usize>,
    f: impl FnMut() -> O,
) {
    println!(
        "{}",
        report::bench_row(group, name, &time(samples, f), bytes)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_bad_ones_are_usage_errors() {
        let cfg = BenchConfig::parse(&args("--full --threads 4 --runs 3")).unwrap();
        assert_eq!(
            cfg,
            BenchConfig {
                full: true,
                threads: 4,
                runs: 3
            }
        );
        let err = BenchConfig::parse(&args("--runs 3 --threads")).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = BenchConfig::parse(&args("--runs three")).unwrap_err();
        assert!(err.contains("--runs"), "{err}");
    }

    #[test]
    fn time_warms_up_then_times_every_sample_in_batches() {
        for (samples, timed, batches) in [(0, 1, 1), (3, 3, 3), (10, 10, 10), (25, 25, 10)] {
            let mut calls = 0;
            time(samples, || calls += 1);
            assert_eq!(
                calls,
                1 + timed,
                "1 warm-up + {timed} for {samples} samples"
            );
            assert_eq!(batch_sizes(samples.max(1)).count(), batches);
            assert_eq!(batch_sizes(samples.max(1)).sum::<usize>(), timed);
        }

        let mut calls = 0u64;
        let t = time(25, || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(calls % 3 * 50));
        });
        assert!(t.min > Duration::ZERO && t.min <= t.median, "{t:?}");
        assert!(t.min <= t.mean, "{t:?}");
        let row = report::bench_row("timer", "sleep", &t, Some(1000));
        assert!(row.starts_with("timer/sleep "), "{row}");
        assert!(row.contains("(min ") && row.contains("GB/s"), "{row}");

        assert_eq!(Timing::of(Vec::new()), None, "nothing timed");
    }
}
