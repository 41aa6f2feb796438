//! Word- and bit-granular I/O primitives shared by every Recoil codec.
//!
//! Two stream shapes appear throughout the paper:
//!
//! * **u16 word streams** (renormalization output, `b = 16` in Table 3),
//!   held as their little-endian wire image. The encoder appends words at
//!   the back; the decoder consumes them from the back toward the front
//!   ([`WordStream`], [`BackwardWordReader`]).
//! * **Bit-packed metadata series** (§4.3), which need bit-granular
//!   writers/readers ([`BitWriter`], [`BitSliceWriter`], [`BitReader`]).

// Safe crate: `unsafe` lives only in the audited allowlist (cargo xtask check).
#![forbid(unsafe_code)]

mod bits;
mod words;

pub use bits::{BitReader, BitSliceWriter, BitWriter};
pub use words::{BackwardWordReader, OddLength, WordStream};
