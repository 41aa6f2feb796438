//! Negative fixture suite for the lint engine.
//!
//! Each lint rule has a tiny bad-source tree under `tests/fixtures/` that
//! must produce *exactly* the expected finding — file, 1-based line, and
//! rule ID — and nothing else. A final test runs the engine over the real
//! workspace and requires a clean report, which is the same gate CI
//! enforces via `cargo xtask check`.
//!
//! The engine's directory walker skips any directory named `fixtures`, so
//! these deliberately bad sources never pollute a real-tree run.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use xtask::report::Report;
use xtask::run_check;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_fixture(name: &str) -> Report {
    run_check(&fixture_root(name)).expect("fixture tree must scan")
}

/// Asserts the fixture yields exactly one finding with the given shape.
fn assert_single_finding(name: &str, file: &str, line: usize, rule: &str) {
    let report = check_fixture(name);
    let got: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(
        got,
        vec![(file, line, rule)],
        "fixture `{name}` produced the wrong findings"
    );
}

#[test]
fn missing_safety_comment_is_flagged_at_the_unsafe_line() {
    // The file sits at an allowlisted path, so only the proof is missing.
    assert_single_finding(
        "safety_comment",
        "crates/rans/src/fast.rs",
        2,
        "safety-comment",
    );
}

#[test]
fn unsafe_outside_the_allowlist_is_flagged_even_when_justified() {
    assert_single_finding("unsafe_allowlist", "src/helper.rs", 3, "unsafe-allowlist");
}

#[test]
fn safe_crate_without_forbid_attr_is_flagged() {
    assert_single_finding("crate_attr", "crates/widget/src/lib.rs", 1, "crate-attr");
}

#[test]
fn unsafe_crate_without_deny_attr_is_flagged() {
    assert_single_finding(
        "crate_attr_unsafe",
        "crates/rans/src/lib.rs",
        1,
        "crate-attr",
    );
}

#[test]
fn narrowing_cast_in_wire_code_is_flagged() {
    assert_single_finding("wire_cast", "crates/net/src/proto.rs", 2, "wire-cast");
}

#[test]
fn slice_indexing_in_wire_code_is_flagged() {
    assert_single_finding("wire_index", "crates/net/src/frame.rs", 2, "wire-index");
}

#[test]
fn unwrap_in_wire_code_is_flagged() {
    assert_single_finding("wire_unwrap", "crates/core/src/wire.rs", 2, "wire-unwrap");
}

#[test]
fn length_driven_with_capacity_in_wire_code_is_flagged() {
    assert_single_finding(
        "wire_capacity",
        "crates/core/src/file.rs",
        2,
        "wire-capacity",
    );
}

/// The payload integrity rule's file faces network bytes: the chunk-prefix
/// parse it replaced (`payload[..4].try_into().expect("4")`) trips two
/// wire rules there.
#[test]
fn the_integrity_rule_file_is_wire_facing() {
    let report = check_fixture("wire_integrity");
    let got: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    let file = "crates/net/src/integrity.rs";
    assert_eq!(got, [(file, 2, "wire-index"), (file, 2, "wire-unwrap")]);
}

#[test]
fn allow_marker_suppresses_and_records_the_reason() {
    let report = check_fixture("suppression");
    assert!(
        report.findings.is_empty(),
        "marker failed to suppress: {:?}",
        report.findings
    );
    let sup: Vec<(&str, usize, &str, &str)> = report
        .suppressed
        .iter()
        .map(|s| (s.file.as_str(), s.line, s.rule, s.reason.as_str()))
        .collect();
    assert_eq!(
        sup,
        vec![(
            "crates/net/src/proto.rs",
            3,
            "wire-cast",
            "fixture proving the suppression plumbing records a reason."
        )]
    );
}

#[test]
fn cfg_test_regions_are_exempt_from_wire_rules() {
    let report = check_fixture("test_region");
    assert!(
        report.findings.is_empty(),
        "test-only code must not trip wire rules: {:?}",
        report.findings
    );
    assert!(report.suppressed.is_empty());
}

/// A wire rule covers a file only by its path: a parser moved to a file
/// the list does not name would drop out of the `wire-*` lints unseen.
#[test]
fn every_wire_file_exists_in_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in xtask::policy::WIRE_FILES {
        assert!(
            root.join(file).is_file(),
            "WIRE_FILES names `{file}`, which is not in the workspace"
        );
    }
}

#[test]
fn the_real_workspace_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_check(&root).expect("workspace must scan");
    assert!(
        report.findings.is_empty(),
        "the tree must pass its own lint gate:\n{}",
        report.render_text()
    );
    // Sanity: the walk actually covered the workspace, not an empty dir.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
}
