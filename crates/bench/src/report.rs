//! Printing for the paper-artifact binaries and the microbenches.

use crate::Timing;
use std::time::Duration;

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        line(row);
    }
}

/// Formats a byte delta the way the paper's Tables 5/6 do:
/// `"+163.67 KB (+2.09%)"`.
pub fn fmt_delta(delta_bytes: i64, baseline: u64) -> String {
    format!(
        "{:+.2} KB {:+.2}%",
        delta_bytes as f64 / 1000.0,
        100.0 * delta_bytes as f64 / baseline as f64
    )
}

/// GB/s of `bytes` processed per `per_call` (uncompressed bytes, as the
/// paper counts them).
pub fn gb_per_s(bytes: usize, per_call: Duration) -> f64 {
    bytes as f64 / per_call.as_secs_f64() / 1e9
}

/// One microbench row: `group/name  median  (min …)`, then the rate of
/// `bytes` per call at the median when given.
pub fn bench_row(group: &str, name: &str, t: &Timing, bytes: Option<usize>) -> String {
    let rate = bytes.map_or(String::new(), |n| {
        format!("  {:8.3} GB/s", gb_per_s(n, t.median))
    });
    format!(
        "{group}/{name:<32} {:>12.3?}  (min {:.3?}){rate}",
        t.median, t.min
    )
}
