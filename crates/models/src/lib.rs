//! Probability models for Recoil's rANS codecs.
//!
//! The paper (Def. 2.1, Table 3) codes each symbol against a PDF/CDF pair
//! quantized to `[0, 2^n]` with `n <= 16`. This crate provides:
//!
//! * [`Histogram`]: symbol counting over 8- or 16-bit alphabets.
//! * [`quantize_counts`]: normalization of counts to frequencies summing to
//!   exactly `2^n`, every present symbol getting a nonzero frequency, and no
//!   frequency reaching `2^n` (so renormalization completes in one step and
//!   packed decode-table entries fit their bit fields).
//! * [`CdfTable`]: the static model — `f(s)`, `F(s)` and slot→symbol lookup.
//! * [`DecodeTables`]: decode-side acceleration structures (§4.4): a packed
//!   single-gather LUT for 8-bit symbols with `n <= 12`, or a wide
//!   two-gather LUT otherwise.
//! * [`GaussianScaleBank`] / [`LatentModelProvider`]: the adaptive
//!   ("hyperprior") per-symbol-index models used for the div2k experiments,
//!   where every symbol index selects its own mean and quantized scale.
//! * [`ModelProvider`]: the interface the codecs consume, keyed by symbol
//!   index so adaptive coding works across Recoil's split boundaries.

// Safe crate: `forbid` keeps any module from allowing `unsafe`.
#![forbid(unsafe_code)]

mod counts;
mod gaussian;
mod lut;
mod provider;
mod quantize;
mod static_model;

pub use counts::Histogram;
pub use gaussian::{GaussianScaleBank, LatentModelProvider, LatentSpec};
pub use lut::{decode_table_builds, DecodeTables, PackedLut, WideLut};
pub use provider::{ModelProvider, StaticModelProvider, Symbol};
pub use quantize::quantize_counts;
pub use static_model::CdfTable;

/// Maximum supported quantization level (`n <= b = 16`, paper §4.4).
pub const MAX_QUANT_BITS: u32 = 16;
