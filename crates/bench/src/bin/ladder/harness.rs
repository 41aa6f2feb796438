//! What every workload shares: the per-trial context, verification
//! tallies, per-trial readings, and the median-of-trials aggregation.
//!
//! Noise controls live here. A run is [`TRIALS`] trials; each trial sets
//! its workload up from scratch (so `setup_s` is sampled eight times and
//! no trial inherits another's buffers), places its hot buffers at a
//! trial-dependent 64-byte offset, and interleaves its operations
//! round-robin. A metric's value is the median over trials of the
//! per-trial median (or rate).

use crate::catalog::{END_TO_END, HEADLINE, PER_LAYER};
use crate::stats::{median, Samples};
use crate::trace::{self, Span, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Trials per run; the timed budget is split evenly between them.
pub const TRIALS: usize = 8;

/// Everything a workload's trial function is handed.
pub struct Ctx {
    pub seed: u64,
    pub trial: usize,
    /// Length of this trial's timed loop.
    pub budget: Duration,
    /// `Some` in a traced trial; spans go here.
    pub tracer: Option<Tracer>,
    /// Cores of the host: the client's decode threads.
    pub nproc: usize,
}

impl Ctx {
    /// Deterministic per-trial stream of draws.
    pub fn rng(&self, salt: u64) -> Rng {
        Rng(self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((self.trial as u64) << 32)
            ^ salt)
    }
}

/// SplitMix64: the item/width draws must not depend on anything the
/// program under test exports.
pub struct Rng(u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A byte buffer that starts on a cache-line boundary `trial + 1` lines
/// into its allocation, so each trial's hot buffers sit at a different
/// line and page offset. One process here held auto decode at 670 MB/s
/// instead of 995 for its whole life on an unlucky placement; moving the
/// buffers per trial lets the median step over it.
pub struct Shifted {
    buf: Vec<u8>,
    start: usize,
    len: usize,
}

impl Shifted {
    pub fn zeroed(len: usize, trial: usize) -> Self {
        let buf = vec![0u8; len + 64 * (TRIALS + 2)];
        let to_line = (64 - buf.as_ptr() as usize % 64) % 64;
        Self {
            start: to_line + 64 * (trial % TRIALS + 1),
            buf,
            len,
        }
    }

    pub fn copy_of(data: &[u8], trial: usize) -> Self {
        let mut s = Self::zeroed(data.len(), trial);
        s.as_mut().copy_from_slice(data);
        s
    }

    pub fn as_ref(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    pub fn as_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// Verification tally: every operation is one attempt; one that errored,
/// was refused, or produced wrong output is one failure.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Check {
    /// Counts one operation whose output was checked.
    pub fn that(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Counts one operation by its `Result`; an `Err` is a failure.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, res: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// A further check on an operation already counted.
    pub fn also(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// One metric's value within one trial, with the quartiles of the samples
/// behind it (in the metric's unit) and their count.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

impl Reading {
    /// A count, a ratio of other readings, or anything else without
    /// samples of its own.
    pub fn exact(name: &'static str, value: f64) -> Self {
        Self::counted(name, value, 1)
    }

    /// A value derived from `n` events rather than from timed samples.
    pub fn counted(name: &'static str, value: f64, n: u64) -> Self {
        Self {
            name,
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// The `q` quantile of `samples`, in units of `unit_ns` nanoseconds
    /// (1e6 for ms, 1e3 for us, 1.0 for ns).
    pub fn quantile(name: &'static str, samples: &mut Samples, q: f64, unit_ns: f64) -> Self {
        Self {
            name,
            value: samples.q(q) / unit_ns,
            q1: samples.q(0.25) / unit_ns,
            q3: samples.q(0.75) / unit_ns,
            n: samples.len() as u64,
        }
    }

    /// `bytes` over the median sample, in MB/s (10^6 bytes).
    pub fn mb_per_s(name: &'static str, bytes: u64, samples: &mut Samples) -> Self {
        let rate = |nanos: f64| bytes as f64 * 1e3 / nanos.max(1.0);
        Self {
            name,
            value: rate(samples.q(0.5)),
            q1: rate(samples.q(0.75)),
            q3: rate(samples.q(0.25)),
            n: samples.len() as u64,
        }
    }
}

/// What one trial hands back.
pub struct Trial {
    pub check: Check,
    /// Every metric the trial measured, `setup_s` (trial start to first
    /// timed operation) among them.
    pub readings: Vec<Reading>,
    /// Payload bytes one primary operation delivers (for the MB/s note).
    pub payload_bytes: u64,
}

impl Trial {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }
}

/// The two readings every single-threaded closed loop derives the same
/// way from its primary-operation samples: operations per second the load
/// thread spends inside them, and the median a caller waits.
pub fn primary_readings(op: &mut Samples) -> [Reading; 2] {
    let n = op.len() as u64;
    [
        Reading::counted("ops_per_s", n as f64 * 1e9 / (op.sum() as f64).max(1.0), n),
        Reading::quantile("op_ms_p50", op, 0.5, 1e6),
    ]
}

/// A metric across the trials of one run.
#[derive(Debug, Clone)]
pub struct Agg {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
    /// The per-trial values behind `value`, in trial order.
    pub trials: Vec<f64>,
}

pub struct Outcome {
    pub workload: &'static str,
    pub metrics: BTreeMap<&'static str, Agg>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub payload_bytes: u64,
    pub trace_file: Option<std::path::PathBuf>,
    pub wall_s: f64,
}

impl Outcome {
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |a| a.value)
    }
}

pub struct RunSpec<'a> {
    pub workload: &'static str,
    pub run: fn(&mut Ctx) -> Trial,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: &'a std::path::Path,
}

/// Runs one workload: [`TRIALS`] trials, then medians. With `trace`, the
/// trials go plain, traced, traced, plain and round again, so every
/// end-to-end value still comes from untraced trials, drift lands on both
/// kinds alike, and the difference between them is the tracing overhead.
pub fn run_workload(spec: &RunSpec<'_>) -> Outcome {
    let t0 = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let budget = Duration::from_secs_f64(spec.seconds / TRIALS as f64);
    let mut trials: Vec<(bool, Trial)> = Vec::with_capacity(TRIALS);
    let mut spans: Vec<Span> = Vec::new();
    for trial in 0..TRIALS {
        let traced = spec.trace && matches!(trial % 4, 1 | 2);
        let mut ctx = Ctx {
            seed: spec.seed,
            trial,
            budget,
            tracer: traced.then(|| Tracer::new(t0)),
            nproc,
        };
        trials.push((traced, (spec.run)(&mut ctx)));
        if let Some(tracer) = ctx.tracer {
            trace::merge(&mut spans, tracer.into_spans());
        }
    }

    let agg = |picked: &[&Reading]| {
        let col = |f: fn(&Reading) -> f64| median(&picked.iter().map(|r| f(r)).collect::<Vec<_>>());
        let values: Vec<f64> = picked.iter().map(|r| r.value).collect();
        Agg {
            value: median(&values),
            q1: col(|r| r.q1),
            q3: col(|r| r.q3),
            n: picked.iter().map(|r| r.n).sum(),
            trials: values,
        }
    };
    // End-to-end values come from the untraced trials only.
    let mut metrics: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let picked: Vec<&Reading> = trials
            .iter()
            .filter(|(traced, _)| !(m.bound.is_some() && *traced))
            .filter_map(|(_, t)| t.readings.iter().find(|r| r.name == m.name))
            .collect();
        if !picked.is_empty() {
            metrics.insert(m.name, agg(&picked));
        }
    }

    let mut trace_file = None;
    if spec.trace {
        let headline = |want_traced: bool| {
            median(
                &trials
                    .iter()
                    .filter(|(traced, _)| *traced == want_traced)
                    .filter_map(|(_, t)| t.value(HEADLINE))
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = 100.0 * (headline(false) / headline(true).max(1e-12) - 1.0);
        let name = "bench.trace_overhead_pct";
        metrics.insert(name, agg(&[&Reading::exact(name, overhead)]));

        let busy = trace::busy_pct_by_layer(&spans);
        for m in &PER_LAYER {
            if let Some(layer) = m.name.strip_suffix(".busy_pct") {
                let pct = busy.get(layer).copied().unwrap_or(0.0);
                metrics.insert(m.name, agg(&[&Reading::exact(m.name, pct)]));
            }
        }
        match trace::write_json(spec.trace_dir, spec.workload, spec.seed, &spans) {
            Ok(path) => trace_file = Some(path),
            Err(e) => eprintln!("could not write the trace of {}: {e}", spec.workload),
        }
    }

    let mut check = Check::default();
    let mut payload_bytes = 0;
    for (_, t) in trials {
        check.absorb(t.check);
        payload_bytes = t.payload_bytes;
    }
    Outcome {
        workload: spec.workload,
        metrics,
        attempted: check.attempted,
        failed: check.failed,
        first_failure: check.first_failure,
        payload_bytes,
        trace_file,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_buffers_move_by_a_cache_line_per_trial() {
        for t in 0..TRIALS {
            let s = Shifted::zeroed(1000, t);
            assert_eq!(s.as_ref().as_ptr() as usize % 64, 0, "line-aligned");
            assert_eq!(s.as_ref().len(), 1000);
            assert!((64 * (t + 1)..64 * (t + 2)).contains(&s.start));
        }
        let mut s = Shifted::copy_of(&[1, 2, 3], 2);
        assert_eq!(s.as_ref(), &[1, 2, 3]);
        s.as_mut()[0] = 9;
        assert_eq!(s.as_ref(), &[9, 2, 3]);
    }

    #[test]
    fn check_counts_attempts_failures_and_keeps_the_first_reason() {
        let mut c = Check::default();
        assert!(c.that(true, || unreachable!()));
        assert!(!c.that(false, || "wrong bytes".into()));
        assert_eq!(c.ok("fetch", Err::<(), _>("refused")), None);
        assert_eq!(c.ok("fetch", Ok::<_, String>(5)), Some(5));
        c.also(false, || "resent".into());
        assert_eq!((c.attempted, c.failed), (4, 3));
        assert_eq!(c.first_failure.as_deref(), Some("wrong bytes"));
    }

    #[test]
    fn primary_readings_are_the_mean_rate_and_the_median_wait() {
        let mut op = Samples::default();
        for v in [1_000_000, 1_000_000, 4_000_000] {
            op.push(v);
        }
        let [rate, p50] = primary_readings(&mut op);
        assert_eq!((rate.name, rate.value, rate.n), ("ops_per_s", 500.0, 3));
        assert_eq!((p50.name, p50.value), ("op_ms_p50", 1.0));
    }

    #[test]
    fn mb_per_s_uses_the_median_call_and_inverts_the_quartiles() {
        let mut s = Samples::default();
        for v in [1_000_000, 2_000_000, 4_000_000] {
            s.push(v);
        }
        let r = Reading::mb_per_s("publish_mb_s", 2_000_000, &mut s);
        assert_eq!(r.value, 1000.0);
        assert!(r.q1 <= r.value && r.value <= r.q3);
    }
}
