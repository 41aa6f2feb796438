//! CRC-32 by carry-less-multiply folding (Gopal et al., "Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ Instruction") —
//! the one file of this crate that holds `unsafe`.
//!
//! A CRC register is a polynomial remainder, and remainders fold:
//! `A·x^T + B ≡ (A·x^T mod P) + B (mod P)`, where multiplying the 128-bit
//! `A` by the *constant* `x^T mod P` is two 64×64 carry-less multiplies.
//! Four 128-bit accumulators each swallow the 16 bytes that lie 64 bytes
//! further on (`T = 512`), so one step takes a 64-byte block with four
//! independent multiply chains in flight; at the end the four fold into one
//! (`T = 128`), 128 bits fold to 64, and a Barrett reduction (two more
//! multiplies, by `⌊x^64 / P⌋` and by `P`) leaves the 32-bit register —
//! the same value the table loop in the parent module reaches, for every
//! input, which is what its tests assert at every length and alignment.
//!
//! Only whole 64-byte blocks are folded here; [`fold`] hands the rest back
//! and the caller finishes it with the tables. 128-bit lanes only: a
//! VPCLMULQDQ fork would be a third path to keep bit-identical for bytes
//! that already move at several times the decoder's rate.
//!
//! CRC-32 is *reflected*: bit 0 of byte 0 is the highest-degree
//! coefficient. A carry-less product of two reflected 64-bit values comes
//! out one bit low, so every constant below is stored shifted left by one.

#![allow(unsafe_code, reason = "loads read whole blocks; PCLMULQDQ is detected")]

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Bytes folded per step: four 128-bit lanes.
const BLOCK: usize = 64;

/// `x^n mod P` in the reflected, pre-shifted form the multiplies take.
const fn x_pow_mod_p(n: u32) -> i64 {
    let mut r: u32 = 0x8000_0000; // x^0
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 {
            (r >> 1) ^ super::POLY
        } else {
            r >> 1
        };
        i += 1;
    }
    (r as i64) << 1
}

/// `⌊x^64 / P⌋`, the Barrett constant, bit-reflected over its 33 bits.
const fn barrett_mu() -> i64 {
    // Long division in the unreflected domain, where P is 0x104C11DB7.
    const P: u128 = 0x1_04C1_1DB7;
    let mut rem: u128 = 1 << 64;
    let mut quotient: u64 = 0;
    let mut bit = 64;
    while bit >= 32 {
        if (rem >> bit) & 1 == 1 {
            rem ^= P << (bit - 32);
            quotient |= 1 << (bit - 32);
        }
        bit -= 1;
    }
    (quotient.reverse_bits() >> 31) as i64
}

/// A lane's low half holds its higher-degree coefficients, so it takes the
/// larger exponent: `T + 32` for the low half, `T − 32` for the high half.
const X_544: i64 = x_pow_mod_p(544);
const X_480: i64 = x_pow_mod_p(480);
const X_160: i64 = x_pow_mod_p(160);
const X_96: i64 = x_pow_mod_p(96);
const X_64: i64 = x_pow_mod_p(64);
/// P itself, reflected over 33 bits.
const P_X: i64 = ((super::POLY as i64) << 1) | 1;
const MU: i64 = barrett_mu();

/// True when this host folds with carry-less multiplies (std caches the
/// CPUID probe, so this is one relaxed load after the first call).
pub(super) fn available() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Feeds the whole 64-byte blocks at the front of `bytes` into the raw
/// register `state` and returns the new register with the bytes still to be
/// fed — all of them, on a host without the instructions.
pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
    let (blocks, tail) = bytes.as_chunks::<BLOCK>();
    if blocks.is_empty() || !available() {
        return (state, bytes);
    }
    // SAFETY: `available()` just reported both CPU features `fold_blocks`
    // is compiled for.
    (unsafe { fold_blocks(state, blocks) }, tail)
}

fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: the reference is 16 readable bytes and `loadu` asks for no
    // alignment.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

fn lanes(block: &[u8; BLOCK]) -> [__m128i; 4] {
    let (lane, _) = block.as_chunks::<16>();
    [
        load(&lane[0]),
        load(&lane[1]),
        load(&lane[2]),
        load(&lane[3]),
    ]
}

/// `acc · x^T + next (mod P)`, with `keys` holding `x^(T+32)` low and
/// `x^(T−32)` high.
///
/// # Safety
/// PCLMULQDQ and SSE4.1 must be available.
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_lane(acc: __m128i, keys: __m128i, next: __m128i) -> __m128i {
    let low = _mm_clmulepi64_si128(acc, keys, 0x00);
    let high = _mm_clmulepi64_si128(acc, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(low, high), next)
}

/// [`fold`] on a host with the instructions: the register after `blocks`.
///
/// # Safety
/// PCLMULQDQ and SSE4.1 must be available.
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_blocks(state: u32, blocks: &[[u8; BLOCK]]) -> u32 {
    let Some((first, rest)) = blocks.split_first() else {
        return state;
    };
    let mut x = lanes(first);
    // The register is the remainder of everything fed so far: it joins the
    // first four bytes, exactly as the table loop xors it in.
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let across_block = _mm_set_epi64x(X_480, X_544);
    for block in rest {
        let next = lanes(block);
        for (acc, next) in x.iter_mut().zip(next) {
            *acc = fold_lane(*acc, across_block, next);
        }
    }
    let across_lane = _mm_set_epi64x(X_96, X_160);
    let [mut acc, x1, x2, x3] = x;
    for next in [x1, x2, x3] {
        acc = fold_lane(acc, across_lane, next);
    }

    let low_32 = _mm_set_epi32(0, 0, 0, !0);
    // 128 → 96 bits: the low half times x^96 lands on the high half.
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128(acc, across_lane, 0x10),
        _mm_srli_si128(acc, 8),
    );
    // 96 → 64 bits: the low 32 bits times x^64.
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(acc, low_32), _mm_set_epi64x(0, X_64), 0x00),
        _mm_srli_si128(acc, 4),
    );
    // Barrett: R mod P = R + ⌊⌊R / x^32⌋ · μ / x^32⌋ · P, of which the
    // register is the part below x^32 — bits 32..64 in reflected order.
    let p_mu = _mm_set_epi64x(MU, P_X);
    let t = _mm_clmulepi64_si128(_mm_and_si128(acc, low_32), p_mu, 0x10);
    let t = _mm_clmulepi64_si128(_mm_and_si128(t, low_32), p_mu, 0x00);
    _mm_extract_epi32(_mm_xor_si128(acc, t), 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_are_the_published_ones() {
        // The values every PCLMULQDQ CRC-32 (zlib, the Linux kernel) carries.
        assert_eq!(X_544, 0x1_5444_2bd4);
        assert_eq!(X_480, 0x1_c6e4_1596);
        assert_eq!(X_160, 0x1_7519_97d0);
        assert_eq!(X_96, 0x0_ccaa_009e);
        assert_eq!(X_64, 0x1_63cd_6124);
        assert_eq!(P_X, 0x1_db71_0641);
        assert_eq!(MU, 0x1_f701_1641);
    }
}
