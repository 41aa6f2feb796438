//! Table printing for the paper-artifact binaries.

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
