//! Baseline (B): the conventional "partitioning symbols" approach
//! (paper §2.3, Figure 2).
//!
//! The input symbol sequence is cut into `P` contiguous sub-sequences
//! *before* encoding; each is encoded by a completely independent group of
//! W-way interleaved rANS coders. The container concatenates the per-chunk
//! bitstreams behind an offset table. Decoding parallelizes trivially across
//! chunks — but the partition count is **fixed at encode time**: a client
//! with less parallelism still downloads every chunk's fixed overhead
//! (final states + table entry), which is exactly the inflexibility Recoil
//! removes.
//!
//! A baseline may build on the product, never the reverse: this crate uses
//! `recoil-simd`'s span kernels ([`decode_conventional_simd`] hands
//! [`decode_partitions`] the same batches the Recoil segment engine gives
//! them, so the two layouts are compared like for like) and nothing the
//! delivery stack ships depends on it.

// Safe crate: `forbid` keeps any module from allowing `unsafe`.
#![forbid(unsafe_code)]

mod container;
mod decode;
mod encode;

pub use container::ConventionalContainer;
pub use decode::{
    decode_conventional, decode_conventional_into, decode_conventional_simd, decode_partitions,
};
pub use encode::{encode_conventional, OffsetProvider};
