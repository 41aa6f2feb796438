//! The delivery ladder: one runner, five workloads, every layer timed
//! from outside. See `README.md` beside this file for the metric
//! catalogue, and `BENCHMARK.json` at the repository root for the
//! contract a driver runs it under.
//!
//! ```sh
//! cargo run --release -p recoil-bench --bin ladder                  # all five, 20 s each
//! cargo run --release -p recoil-bench --bin ladder -- --trace       # plus spans and busy shares
//! cargo run --release -p recoil-bench --bin ladder -- --workload net_small --seed 7
//! cargo run --release -p recoil-bench --bin ladder -- --repeat-check
//! cargo run --release -p recoil-bench --bin ladder -- --smoke       # 1 s each, never comparable
//! ```
//!
//! With `--workload`, the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics, or with `--trace 1` the per-layer ones.

mod catalog;
mod codec_bulk;
mod fabric_failover;
mod harness;
mod net_small;
mod net_stream;
mod netutil;
mod serve_churn;
mod stats;
mod trace;

use catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use harness::{run_workload, Ctx, Outcome, RunSpec, Trial, TRIALS};
use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.0;

const RUNNERS: [fn(&mut Ctx) -> Trial; WORKLOADS.len()] = [
    codec_bulk::trial,
    serve_churn::trial,
    net_small::trial,
    net_stream::trial,
    fabric_failover::trial,
];

struct Args {
    workload: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
}

const USAGE: &str = "usage: ladder [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--repeat-check]";

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut a = Self {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            repeat_check: false,
        };
        let mut seconds_given = false;
        let mut rest = argv.iter().peekable();
        while let Some(arg) = rest.next() {
            let mut value = || {
                rest.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} needs a value"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    let at = WORKLOADS.iter().position(|w| w.0 == name);
                    a.workload = Some(at.ok_or_else(|| {
                        let known: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
                        format!("unknown workload `{name}`; one of {}", known.join(", "))
                    })?);
                }
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds takes a positive number")?;
                    seconds_given = true;
                }
                // A bare flag for people, `--trace 0|1` for the driver.
                "--trace" => {
                    a.trace = rest
                        .next_if(|v| *v == "0" || *v == "1")
                        .is_none_or(|v| v == "1");
                }
                "--smoke" => a.smoke = true,
                "--repeat-check" => a.repeat_check = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if a.smoke && !seconds_given {
            a.seconds = SMOKE_SECONDS;
        }
        Ok(a)
    }
}

/// Where span files go: beside the build products, inside the checkout.
fn trace_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("ladder")
}

fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn print_fingerprint(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512) = (false, false);
    println!(
        "ladder host: nproc {nproc}, avx2 {avx2}, avx512f {avx512}, auto kernel {:?}, {}, git {}",
        recoil::prelude::AutoBackend::new().selected_kernel(32),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    println!(
        "ladder run: seed {}, {} s per workload in {TRIALS} trials of {:.2} s, trace {}, {}",
        args.seed,
        args.seconds,
        args.seconds / TRIALS as f64,
        if args.trace { "on" } else { "off" },
        if args.smoke || args.seconds < DEFAULT_SECONDS {
            "SMOKE (short run: never compare these numbers)"
        } else {
            "full"
        },
    );
}

fn print_metric(m: &Metric, out: &Outcome) {
    let Some(a) = out.metrics.get(m.name) else {
        return;
    };
    let bound = m
        .bound
        .map_or_else(String::new, |b| format!(" bound {:.0}%", b * 100.0));
    let note = if m.name == "ops_per_s" && out.payload_bytes > 0 {
        format!(
            " = {:.1} MB/s of payload",
            a.value * out.payload_bytes as f64 / 1e6
        )
    } else {
        String::new()
    };
    let trials: Vec<String> = a.trials.iter().map(|v| format!("{v:.4}")).collect();
    println!(
        "    {:<32} {:>14.4} {:<5} {:<6}{bound} | samples q1 {:.4} q3 {:.4} n {} | trials {}{note}",
        m.name,
        a.value,
        m.unit,
        m.better.word(),
        a.q1,
        a.q3,
        a.n,
        trials.join(" "),
    );
}

fn print_outcome(out: &Outcome) {
    println!(
        "== {}: {} operations verified, {} failed (fail_ratio {}), {:.1} s wall",
        out.workload,
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.wall_s,
    );
    if let Some(why) = &out.first_failure {
        println!("  first failure: {why}");
    }
    println!("  end-to-end (untraced trials)");
    for m in &END_TO_END {
        print_metric(m, out);
    }
    println!("  per-layer");
    for m in &PER_LAYER {
        print_metric(m, out);
    }
    if let Some(path) = &out.trace_file {
        println!("  spans written to {}", path.display());
    }
}

/// The one-line result a driver reads.
fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                out.value(m.name),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn run_set(args: &Args, dir: &std::path::Path) -> Vec<Outcome> {
    let picked: Vec<usize> = args
        .workload
        .map_or_else(|| (0..WORKLOADS.len()).collect(), |w| vec![w]);
    picked
        .into_iter()
        .map(|w| {
            let out = run_workload(&RunSpec {
                workload: WORKLOADS[w].0,
                run: RUNNERS[w],
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                trace_dir: dir,
            });
            print_outcome(&out);
            let listed: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", result_json(&out, listed));
            out
        })
        .collect()
}

/// Two sets of the same code must agree within the benchmark's own
/// bounds; returns whether they did.
fn repeat_check(first: &[Outcome], second: &[Outcome]) -> bool {
    println!("== repeat check: two sets back to back");
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (va, vb) = (a.value(m.name), b.value(m.name));
            let diff = (vb - va).abs() / va.abs().max(1e-12);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if diff <= bound { "ok" } else { "EXCEEDS" };
            ok &= diff <= bound;
            println!(
                "    {:<16} {:<12} {va:>14.4} {vb:>14.4} {:<5} diff {:>6.2}%  bound {:>4.0}%  {verdict}",
                a.workload,
                m.name,
                m.unit,
                diff * 100.0,
                bound * 100.0,
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print_fingerprint(&args);
    let dir = trace_dir();
    let first = run_set(&args, &dir);
    let mut ok = first.iter().all(|o| o.failed == 0 && o.attempted > 0);
    if args.repeat_check {
        let second = run_set(&args, &dir);
        ok &= second.iter().all(|o| o.failed == 0 && o.attempted > 0);
        ok &= repeat_check(&first, &second);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::parse(&argv)
    }

    #[test]
    fn driver_and_human_forms_of_trace_both_parse() {
        let a = parse("--workload net_small --seed 9 --seconds 20 --trace 0").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(2), 9, 20.0, false)
        );
        assert!(parse("--workload codec_bulk --trace 1").unwrap().trace);
        let a = parse("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!(a.seconds, SMOKE_SECONDS);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn result_line_lists_exactly_the_requested_metrics() {
        let mut metrics = std::collections::BTreeMap::new();
        for (m, v) in END_TO_END.iter().zip([0.5f64, 100.0, 2.0, 64.25]) {
            metrics.insert(
                m.name,
                harness::Agg {
                    value: v,
                    q1: v,
                    q3: v,
                    n: 1,
                    trials: vec![v],
                },
            );
        }
        let out = Outcome {
            workload: "codec_bulk",
            metrics,
            attempted: 10,
            failed: 0,
            first_failure: None,
            payload_bytes: 0,
            trace_file: None,
            wall_s: 1.0,
        };
        let line = result_json(&out, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"size_pct\": {\"value\": 64.25, \"unit\": \"%\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // A per-layer metric the workload never measured reads 0.
        let line = result_json(&out, &PER_LAYER);
        assert_eq!(line.matches("\"value\": 0,").count(), PER_LAYER.len());
    }
}
