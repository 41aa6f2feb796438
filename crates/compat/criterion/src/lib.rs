//! Offline stand-in for the `criterion` benchmarking crate.
//!
//! The build environment has no registry access, so this shim implements the
//! subset the workspace benches use — `Criterion::benchmark_group`,
//! `BenchmarkGroup::{sample_size, throughput, bench_function,
//! bench_with_input, finish}`, `Bencher::iter`, `BenchmarkId`, `Throughput`,
//! and the `criterion_group!`/`criterion_main!` macros. After one warm-up
//! call, the `sample_size` calls are timed in ten batches, and the
//! median and the minimum of the per-batch means are printed as
//! `group/name  median  (min …)  [throughput at the median]`: on a shared
//! host a neighbour's burst moves a plain mean, while the median batch
//! stays put and the minimum says what the code costs when undisturbed. No
//! HTML reports — just enough to keep the bench targets building and
//! producing usable numbers.

// Safe crate: `unsafe` lives only in the audited allowlist (cargo xtask check).
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Batches each benchmark's samples are timed in (the sample count is
/// rounded up to a multiple of it).
const BATCHES: usize = 10;

/// Declared throughput of a benchmark, used to derive rate output.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// Identifier for parameterized benchmarks.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Id from a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Id from a parameter value alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            samples: 10,
            throughput: None,
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Declares per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.samples);
        f(&mut b);
        self.report(&id.to_string(), &b);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl std::fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.samples);
        f(&mut b, input);
        self.report(&id.to_string(), &b);
        self
    }

    /// Ends the group (printing is per-benchmark; nothing is buffered).
    pub fn finish(&mut self) {}

    fn report(&self, id: &str, b: &Bencher) {
        println!("{}", self.line(id, b));
    }

    /// The printed result of one benchmark.
    fn line(&self, id: &str, b: &Bencher) -> String {
        let (median, min) = b.summary().unwrap_or_default();
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) if median > Duration::ZERO => {
                format!("  {:8.3} GB/s", n as f64 / median.as_secs_f64() / 1e9)
            }
            Some(Throughput::Elements(n)) if median > Duration::ZERO => {
                format!("  {:8.3} Melem/s", n as f64 / median.as_secs_f64() / 1e6)
            }
            _ => String::new(),
        };
        format!(
            "{}/{id:<32} {median:>12.3?}  (min {min:.3?}){rate}",
            self.name
        )
    }
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    samples: usize,
    /// Mean time per call of each timed batch.
    batch_means: Vec<Duration>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Self {
            samples,
            batch_means: Vec::new(),
        }
    }

    /// Times `routine`: one warm-up call, then ten timed batches of
    /// `ceil(sample_size / 10)` calls each.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        std::hint::black_box(routine());
        let per_batch = self.samples.div_ceil(BATCHES).max(1);
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                std::hint::black_box(routine());
            }
            self.batch_means
                .push(t0.elapsed().div_f64(per_batch as f64));
        }
    }

    /// The median and the minimum of the per-batch means, once timed.
    fn summary(&self) -> Option<(Duration, Duration)> {
        let mut means = self.batch_means.clone();
        means.sort_unstable();
        let min = *means.first()?;
        let mid = means.len() / 2;
        let median = if means.len().is_multiple_of(2) {
            (means[mid - 1] + means[mid]) / 2
        } else {
            means[mid]
        };
        Some((median, min))
    }
}

/// Declares a benchmark group entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3).throughput(Throughput::Bytes(1000));
        let mut runs = 0u32;
        g.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        assert_eq!(
            runs, 11,
            "1 warm-up + 3 samples rounded up to 10 batches of 1"
        );

        let mut b = Bencher::new(25);
        let mut runs = 0u32;
        b.iter(|| {
            runs += 1;
            std::thread::sleep(Duration::from_micros(u64::from(runs % 3) * 50));
        });
        assert_eq!(runs, 31, "1 warm-up + 25 samples in 10 batches of 3");
        assert_eq!(b.batch_means.len(), BATCHES);
        let (median, min) = b.summary().unwrap();
        assert!(
            min > Duration::ZERO && min <= median,
            "{min:?} / {median:?}"
        );
        let line = g.line("sleep", &b);
        assert!(line.starts_with("shim/sleep "), "{line}");
        assert!(line.contains("(min ") && line.contains("GB/s"), "{line}");
        g.finish();

        assert_eq!(Bencher::new(5).summary(), None, "nothing timed yet");
    }
}
