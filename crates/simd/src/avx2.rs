//! AVX2 span loop: 8 lanes per register, four registers per span (paper
//! §4.4, implementation (2)), `K` spans interleaved.

#![allow(unsafe_code, reason = "loads stay inside the group cursor guards")]

use crate::driver::{outside_guards, signed_cursor, SpanLoop, OVERREAD_WORDS};
use recoil_rans::Span;
use std::arch::x86_64::*;

/// Per-mask `vpermd` indices distributing `k = popcount(mask)` loaded words
/// (ascending memory order) onto the mask's set lanes (ascending lane
/// order) — the backward-read equivalent of the classic SSE/AVX rANS
/// renormalization shuffle.
static PERM: [[i32; 8]; 256] = build_perm();

const fn build_perm() -> [[i32; 8]; 256] {
    let mut t = [[0i32; 8]; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut rank = 0i32;
        let mut b = 0usize;
        while b < 8 {
            if m & (1 << b) != 0 {
                t[m][b] = rank;
                rank += 1;
            }
            b += 1;
        }
        m += 1;
    }
    t
}

/// The AVX2 span loop.
pub(crate) struct Avx2;

impl SpanLoop for Avx2 {
    /// The one AVX2 decode loop (see [`SpanLoop::span_loop`]).
    ///
    /// A span is four registers here, so it already carries four chains
    /// (coupled only through the cursor); a second span is what the sixteen
    /// `ymm` registers leave room for.
    ///
    /// # Safety
    /// As [`SpanLoop::span_loop`], and AVX2 and POPCNT must be available.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn span_loop<const K: usize, const WIDE: bool, S>(
        t0: *const i32,
        t1: *const i32,
        n: u32,
        mut spans: [&mut Span<'_, S>; K],
    ) -> usize {
        let zero = _mm256_setzero_si256();
        let maskv = _mm256_set1_epi32(((1u32 << n) - 1) as i32);
        let nv = _mm256_set1_epi32(n as i32);

        let common = spans.iter().map(|s| s.out.len() / 32).min().unwrap_or(0);
        let words: [*const u8; K] = std::array::from_fn(|i| spans[i].words.as_ptr());
        // A group may run while `MIN_WORDS_BELOW <= p <= top`.
        let top: [isize; K] =
            std::array::from_fn(|i| (spans[i].words.len() / 2) as isize - OVERREAD_WORDS);
        let mut p: [isize; K] = std::array::from_fn(|i| signed_cursor(spans[i].cursor));
        // One past the top of each span's output; a group steps it down.
        let mut out: [*mut S; K] = std::array::from_fn(|i| spans[i].out.as_mut_ptr_range().end);
        let mut x = [[zero; 4]; K];
        for i in 0..K {
            let sp = spans[i].states.as_ptr();
            for (r, xr) in x[i].iter_mut().enumerate() {
                // SAFETY: the caller guarantees 32 lane states per span.
                *xr = unsafe { _mm256_loadu_si256(sp.add(r * 8).cast()) };
            }
        }

        let mut done = 0;
        while done < common {
            // Negative iff some cursor is outside its guarded region. One
            // branch for the whole batch: with an exit per comparison LLVM
            // kept most lane states on the stack.
            let mut outside = 0;
            for i in 0..K {
                outside |= outside_guards(p[i], top[i]);
            }
            if outside < 0 {
                break;
            }
            for i in 0..K {
                let mut sym = [zero; 4];
                // Registers in descending lane order, so the span's backward
                // cursor is consumed exactly as the scalar decoder would.
                for r in (0..4usize).rev() {
                    let mut xr = x[i][r];

                    // Renormalization, branchless: the lanes below `L` (high
                    // half zero) take the `k` words under the cursor, ascending.
                    let small = _mm256_cmpeq_epi32(_mm256_srli_epi32::<16>(xr), zero);
                    let m = _mm256_movemask_ps(_mm256_castsi256_ps(small)) as u8;
                    let k = m.count_ones() as isize;
                    // SAFETY: the guards held at group entry and the group has
                    // consumed at most 24 words since, so `p - k + 1 >= 33`;
                    // and `p <= len - OVERREAD_WORDS` keeps the 8-word load at
                    // `p - k + 1 <= p + 1` inside the span's words.
                    let w = unsafe { _mm_loadu_si128(words[i].offset(2 * (p[i] - k + 1)).cast()) };
                    // SAFETY: `PERM[m]` is eight `i32`s.
                    let perm = unsafe { _mm256_loadu_si256(PERM[m as usize].as_ptr().cast()) };
                    let wperm = _mm256_permutevar8x32_epi32(_mm256_cvtepu16_epi32(w), perm);
                    let renormed = _mm256_or_si256(_mm256_slli_epi32::<16>(xr), wperm);
                    xr = _mm256_blendv_epi8(xr, renormed, small);
                    p[i] -= k;

                    // Transform (Eq. 2).
                    let slot = _mm256_and_si256(xr, maskv);
                    // `d` is `slot - cdf`; a packed entry holds it as is.
                    // SAFETY: `slot < 2^n` indexes the model's tables (the
                    // wide `inv` carries a padding entry for the 32-bit
                    // gather), and `inv`'s symbols index `ff`.
                    let (f, d, s) = unsafe {
                        if WIDE {
                            let half = _mm256_set1_epi32(0xFFFF);
                            let s = _mm256_and_si256(_mm256_i32gather_epi32::<2>(t0, slot), half);
                            let e = _mm256_i32gather_epi32::<4>(t1, s);
                            let d = _mm256_sub_epi32(slot, _mm256_and_si256(e, half));
                            (_mm256_srli_epi32::<16>(e), d, s)
                        } else {
                            // `(slot - cdf) | sym << 12 | freq << 20`; the
                            // saturating packs below need the symbol masked.
                            let e = _mm256_i32gather_epi32::<4>(t0, slot);
                            let s = _mm256_and_si256(
                                _mm256_srli_epi32::<12>(e),
                                _mm256_set1_epi32(0xFF),
                            );
                            // `slot - cdf < f < 2^n`: the slot mask reads it.
                            let d = _mm256_and_si256(e, maskv);
                            (_mm256_srli_epi32::<20>(e), d, s)
                        }
                    };
                    let xsh = _mm256_srlv_epi32(xr, nv);
                    x[i][r] = _mm256_add_epi32(_mm256_mullo_epi32(f, xsh), d);
                    sym[r] = s;
                }

                // Narrow the group's 32 symbols straight into the output
                // slice. The packs interleave 128-bit halves; one permute puts
                // the symbols back in lane order.
                // SAFETY: `done < common` leaves the span 32 symbols below
                // `out[i]`, and `S` is `u8` or `u16` by the caller's contract.
                unsafe {
                    out[i] = out[i].sub(32);
                    let lo = _mm256_packus_epi32(sym[0], sym[1]);
                    let hi = _mm256_packus_epi32(sym[2], sym[3]);
                    if size_of::<S>() == 1 {
                        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
                        let bytes = _mm256_packus_epi16(lo, hi);
                        let bytes = _mm256_permutevar8x32_epi32(bytes, order);
                        _mm256_storeu_si256(out[i].cast(), bytes);
                    } else {
                        let lo = _mm256_permute4x64_epi64::<0b11_01_10_00>(lo);
                        let hi = _mm256_permute4x64_epi64::<0b11_01_10_00>(hi);
                        _mm256_storeu_si256(out[i].cast(), lo);
                        _mm256_storeu_si256(out[i].add(16).cast(), hi);
                    }
                }
            }
            done += 1;
        }

        for i in 0..K {
            let sp = spans[i].states.as_mut_ptr();
            for (r, xr) in x[i].iter().enumerate() {
                // SAFETY: 32 lane states per span, as at the loads above.
                unsafe { _mm256_storeu_si256(sp.add(r * 8).cast(), *xr) };
            }
            spans[i].cursor = (p[i] >= 0).then_some(p[i] as u64);
            spans[i].take_top(done * 32);
        }
        done
    }
}
