//! SIMD interleaved-rANS decode kernels (paper §4.4).
//!
//! "For the AVX2 implementation, we use 8-way 32-bit interleaved decoders in
//! each instruction, and manually unroll four times; for the AVX512
//! implementation, we use 16 ways in each instruction and unroll twice" —
//! both operate on the recommended 32-way interleave, which "naturally fits"
//! the vector widths.
//!
//! Per 32-symbol group the kernels execute, register by register in
//! *descending* lane order:
//!
//! 1. **Renormalization**: compare-under-`L` mask; the underflowing lanes
//!    pull consecutive u16 words off the shared backward cursor (highest
//!    lane reads first). AVX2 distributes the loaded words with a
//!    per-mask `vpermd` permutation table; AVX-512 uses `vpexpandd`.
//! 2. **Transform** (Eq. 2): slot mask, one `vpgatherdd` into the packed
//!    LUT (8-bit symbols, `n <= 12`) or two gathers into the wide LUT
//!    (everything else), then `x = f * (x >> n) + slot - F`.
//!
//! All kernels are bit-exact mirrors of the scalar decoder — property tests
//! in this crate and `tests/` enforce equality on arbitrary streams — and
//! they plug into the Recoil segment engine (`recoil_core::decode_segments`)
//! and the Conventional baseline as a span kernel ([`decode_segment`]),
//! falling back to the scalar span engine at stream and segment edges.

// Audited unsafe crate: every unsafe operation sits in an explicit block.
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod backend;
mod driver;
mod kernel;
mod model;

pub use backend::{AutoBackend, Avx2Backend, Avx512Backend};
pub use driver::{decode_conventional_simd, decode_interleaved_simd, decode_segment};
pub use kernel::Kernel;
pub use model::SimdModel;

/// The interleave width all SIMD kernels are built for.
pub const SIMD_WAYS: u32 = 32;
