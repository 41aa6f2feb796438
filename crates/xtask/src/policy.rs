//! The workspace safety policy, as data.
//!
//! Everything the lint engine enforces is declared here so a policy change
//! is a one-line diff with a reviewable blame trail. Paths are relative to
//! the workspace root with `/` separators.

/// Files allowed to contain the `unsafe` keyword. Every entry is an
/// audited hot path whose invariants are documented in-file; adding a new
/// entry requires writing the `// SAFETY:` proofs the [`SAFETY_COMMENT`]
/// rule demands and extending the Miri/sanitizer CI coverage.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/core/src/crc/clmul.rs",
    // Test only: a counting `#[global_allocator]` that forwards to `System`.
    "crates/net/tests/alloc_per_fetch.rs",
    "crates/parallel/src/pool.rs",
    "crates/rans/src/fast.rs",
    "crates/rans/src/fast_encode.rs",
    "crates/rans/src/fast_encode_avx512.rs",
    "crates/reactor/src/poller.rs",
    "crates/reactor/src/sys.rs",
    "crates/reactor/src/wake.rs",
    "crates/simd/src/avx2.rs",
    "crates/simd/src/avx512.rs",
    "crates/simd/src/driver.rs",
];

/// Crates (by directory name under `crates/`) that contain `unsafe` and
/// therefore carry `#![deny(unsafe_op_in_unsafe_fn)]` instead of
/// `#![forbid(unsafe_code)]`.
pub const UNSAFE_CRATES: &[&str] = &["core", "parallel", "rans", "reactor", "simd"];

/// Wire-facing parsing files: code here faces bytes from the network or
/// disk, so panics and silent truncation are protocol bugs. The
/// `wire-*` rules ban `unwrap`/`expect`, narrowing `as` casts, raw slice
/// indexing, and length-driven `with_capacity` outside `#[cfg(test)]`.
pub const WIRE_FILES: &[&str] = &[
    "crates/core/src/file.rs",
    "crates/core/src/wire.rs",
    "crates/net/src/frame.rs",
    "crates/net/src/integrity.rs",
    "crates/net/src/proto.rs",
];

/// Cast targets banned in wire files: on a 64-bit host each of these can
/// silently truncate a length or offset parsed from the wire. Widening
/// casts (`as u64`, `as i64`, `as u128`, `as f64`) remain legal.
pub const NARROWING_CASTS: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize"];

/// Rule identifiers, as they appear in diagnostics and allow markers.
pub const SAFETY_COMMENT: &str = "safety-comment";
pub const UNSAFE_ALLOWLIST_RULE: &str = "unsafe-allowlist";
pub const CRATE_ATTR: &str = "crate-attr";
pub const WIRE_CAST: &str = "wire-cast";
pub const WIRE_INDEX: &str = "wire-index";
pub const WIRE_UNWRAP: &str = "wire-unwrap";
pub const WIRE_CAPACITY: &str = "wire-capacity";

/// Directory names skipped during the walk. `fixtures` holds the lint
/// engine's own deliberately-bad test inputs.
pub const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];
