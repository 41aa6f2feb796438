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
//!    pull consecutive u16 words off the span's backward cursor (highest
//!    lane reads first), branchlessly. AVX2 distributes the loaded words
//!    with a per-mask `vpermd` permutation table; AVX-512 uses `vpexpandd`.
//! 2. **Transform** (Eq. 2): slot mask, one `vpgatherdd` into the packed
//!    LUT (8-bit symbols, `n <= 12`) or two gathers into the wide LUT
//!    (everything else), then `x = f * (x >> n) + slot - F`; the symbols
//!    are narrowed straight into the output slice. A packed entry already
//!    holds `slot - F` (`recoil_models::PackedLut`), so there the addend is
//!    one mask and `f` one shift.
//!
//! ## Batches: splits are instruction-level parallelism too
//!
//! That per-group sequence is one serial chain per register — compare →
//! `popcnt` → word load → expand → gather → multiply → add, some 50 cycles —
//! and a 32-way stream is only two `zmm` (four `ymm`) registers wide, so a
//! thread decoding one span leaves the pipeline mostly empty: the rung is
//! latency-bound, not work-bound. The answer is Giesen's ("Interleaved
//! entropy coders"): interleave *more independent coders* — and
//! independent coders are exactly what Recoil's splits (and the
//! conventional layout's partitions) are. So the engines hand a kernel a
//! **batch** of up to `K` adjacent spans ([`Kernel::interleave_depth`]: 4
//! for AVX-512, 2 for AVX2, 1 for the scalar loop, which already carries
//! 32 chains), and there is one span loop per ISA, generic over the number
//! of spans in flight: lane states, cursors and output pointers stay in
//! registers for the whole run, each span's cursor guards are checked
//! every group. The joint loop runs until one span of the batch cannot take
//! another group; the spans left then descend through the `K = 2` and
//! `K = 1` instantiations of the same loop, so two spans always run
//! interleaved. A decoder's capability is therefore `threads × K` splits:
//! a single-thread client reaches the kernel's full rate only on a tier of
//! at least `K` segments (two segments run at the `K = 2` rate; only a
//! one-segment tier decodes at the `K = 1` rate, roughly half).
//!
//! All kernels are bit-exact mirrors of the scalar decoder — property tests
//! in this crate and `tests/` enforce equality on arbitrary streams, batch
//! by batch. This crate is kernels only: it sits *below* the engines,
//! depending on nothing but the rANS substrate and the model tables. The
//! Recoil segment engine (`recoil_core::decode_segments`, driven by
//! `recoil_core::backend::AutoBackend`) and the Conventional baseline call
//! the span kernel ([`decode_spans`]) on their batches; it falls back to the
//! scalar span engine at stream and span edges and for [`Kernel::Scalar`].

// Audited crate: `unsafe` is allowed only in `avx2.rs`, `avx512.rs` and
// `driver.rs` (the vector span loops and their entry), each stating its
// invariant; the workspace lints deny it elsewhere.

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
mod driver;
mod kernel;
mod model;

pub use driver::{decode_interleaved_simd, decode_spans, decode_spans_at_depth, require_32_ways};
pub use kernel::Kernel;
pub use model::SimdModel;

/// The interleave width all SIMD kernels are built for.
pub const SIMD_WAYS: u32 = 32;
