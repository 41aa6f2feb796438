//! The rANS substrate: single-state and W-way interleaved codecs.
//!
//! Implements the Range variant of Asymmetric Numeral Systems exactly as in
//! the paper's preliminaries (Definitions 2.1 and 2.2) with the recommended
//! parameters of Table 3: 32-bit states, `b = 16`-bit renormalization words,
//! lower bound `L = 2^16`, quantization level `n <= 16`, and (by default)
//! 32 interleaved lanes in the style of Giesen's interleaved entropy coders
//! (paper §2.2).
//!
//! Streams are encoded forward (`s_1 .. s_N`) and decoded backward
//! (`s_N .. s_1`); the decoder writes each symbol to its known position, so
//! round-trips are identity. The words live in a [`WordStream`], their
//! little-endian wire image, which encoders append to and decoders read. Because `b >= n`, **every renormalization moves
//! exactly one u16 word** — Lemma 3.1's precondition — and every renorm
//! event leaves the encoder state below `L`, representable in 16 bits.
//! Encoders report these events through [`RenormSink`], a group of up to
//! 32 symbols at a time ([`RenormGroup`]); Recoil's split planner listens to
//! them to place split points.
//!
//! Decode discipline (load-bearing for Recoil): per symbol slot, descending
//! position, the owning lane *renormalizes first (if its state is below `L`)
//! and then applies the decode transform*. Reads are therefore issued lazily,
//! immediately before the owning lane's next transform, which keeps the
//! global read order the exact reverse of the encoder's write order — and is
//! what lets Recoil initialize a lane "immediately before the first time
//! it reads the bitstream" (paper §4.1.1).
//!
//! Both directions have a branchless fast-loop engine over whole 32-symbol
//! groups with a retained careful reference: [`fast`] for decode
//! ([`Span::advance_scalar`], fast loop while both the symbol and word
//! budgets allow it), [`fast_encode`] for
//! encode (no underflow hazard, so the group loop — AVX-512 where the host
//! and the input allow, scalar otherwise — covers every whole group, with
//! zero-frequency symbols detected branchlessly and reported as
//! [`RansError::ZeroFrequency`] at the first offending position).
//!
//! The API is small on purpose. Encode: [`InterleavedEncoder`] (one bulk
//! body, [`encode_span`]) reporting to a [`RenormSink`]. Decode: a [`Span`]
//! — [`EncodedStream::tail_span`] makes the whole-stream one — consumed by
//! [`Span::advance_scalar`]; [`decode_interleaved`] and
//! [`decode_interleaved_into`] are exactly that pair, and the primitive
//! steps [`renorm_read`] / [`decode_transform`] are what a Synchronization
//! Phase is written in. The careful loops and the single-state codec the
//! tests compare against stay exported but hidden from these docs.

// Audited unsafe crate: every unsafe operation sits in an explicit block.
#![deny(unsafe_op_in_unsafe_fn)]

mod error;
pub mod fast;
pub mod fast_encode;
mod interleaved;
pub mod params;
mod single;
mod sink;
mod span;
mod step;
mod stream;

pub use error::RansError;
pub use fast::{decode_span_careful, SpanStats, GROUP as FAST_GROUP};
pub use fast_encode::{encode_span, encode_span_careful};
pub use interleaved::{decode_interleaved, decode_interleaved_into, InterleavedEncoder};
pub use recoil_bitio::WordStream;
pub use single::{decode_single, SingleEncoder};
pub use sink::{NullSink, RenormEvent, RenormGroup, RenormSink, VecSink, NO_SYMBOL};
pub use span::{LaneStates, Span};
pub use step::{decode_transform, renorm_read};
pub use stream::EncodedStream;
