//! Workspace safety-audit lint engine — `cargo xtask check`.
//!
//! PR 5's branchless fast loop and PR 6's reactor bought their throughput
//! with `unsafe`: `get_unchecked` word reads justified by the
//! one-renorm-word-per-symbol budget (the paper's b ≥ n invariant), raw
//! `epoll`/pipe syscalls, and a thread-pool lifetime transmute. Those
//! justifications are *proofs about invariants*, and nothing in plain
//! `cargo test` notices when a new PR adds an unchecked read with no
//! stated invariant. This crate is the machine check:
//!
//! * [`scanner`] — a dependency-free, comment/string/char-literal-aware
//!   source scanner (no `syn`: the workspace builds without registry
//!   crates).
//! * [`policy`] — the safety policy as data: which files may say
//!   `unsafe`, which crates are wire-facing, which casts are narrowing.
//! * [`lints`] — the rules:
//!   * `safety-comment`: every `unsafe` block/impl carries an immediately
//!     preceding `// SAFETY:` comment; every `unsafe fn` documents its
//!     caller contract (`# Safety` doc section or `// SAFETY:`).
//!   * `unsafe-allowlist`: `unsafe` may appear only in the audited files
//!     listed in [`policy::UNSAFE_ALLOWLIST`].
//!   * `crate-attr`: safe crates pin `#![forbid(unsafe_code)]`; unsafe
//!     crates pin `#![deny(unsafe_op_in_unsafe_fn)]`.
//!   * `wire-cast` / `wire-index` / `wire-unwrap` / `wire-capacity`:
//!     wire-facing parsing code ([`policy::WIRE_FILES`]) may not use
//!     narrowing `as` casts, panicking slice indexing, `unwrap`/`expect`,
//!     or length-driven preallocation outside `#[cfg(test)]` — typed
//!     errors and `try_from` only. This is the hostile-frame hardening
//!     from PRs 3–4 made permanent.
//! * [`report`] — stable-sorted diagnostics plus a hand-rolled JSON
//!   rendering for the CI artifact.
//!
//! Escape hatch: a finding can be suppressed by a comment marker on the
//! same or preceding line — `// xtask: allow(<rule>): <reason>` — and the
//! reason is mandatory. Suppressions are counted and printed, never
//! silent.
//!
//! Run `cargo xtask check` (alias for `cargo run -p xtask -- check`) at
//! the workspace root; CI runs it as a tier-1 gate and uploads
//! `lint-report.json`. The negative fixtures proving each rule fires live
//! in `tests/fixtures/` and are asserted by `tests/lint_policy.rs`.

#![forbid(unsafe_code)]

pub mod lints;
pub mod policy;
pub mod report;
pub mod scanner;

use report::Report;
use std::io;
use std::path::{Path, PathBuf};

/// Scans every `.rs` file under `root` (skipping [`policy::SKIP_DIRS`])
/// and returns the sorted report.
pub fn run_check(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, Path::new(""), &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        let sf = scanner::SourceFile::parse(&src);
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        lints::check_file(&rel_str, &sf, &mut report);
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}

fn walk(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(root.join(rel))?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name_str = name.to_string_lossy();
        let child = rel.join(&name);
        if entry.file_type()?.is_dir() {
            if policy::SKIP_DIRS.contains(&name_str.as_ref()) || name_str.starts_with('.') {
                continue;
            }
            walk(root, &child, out)?;
        } else if name_str.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}
