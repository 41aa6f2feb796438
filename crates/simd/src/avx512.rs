//! AVX-512 span loop: 16 lanes per register, two registers per span
//! (paper §4.4, implementation (3)), `K` spans interleaved. Mask registers
//! make the renormalization gather a single `vpexpandd`.

#![allow(unsafe_code, reason = "loads stay inside the group cursor guards")]

use crate::driver::{outside_guards, signed_cursor, SpanLoop, OVERREAD_WORDS};
use recoil_rans::Span;
use std::arch::x86_64::*;

/// The AVX-512 span loop.
pub(crate) struct Avx512;

impl SpanLoop for Avx512 {
    /// The one AVX-512 decode loop (see [`SpanLoop::span_loop`]).
    ///
    /// The `K` spans are independent dependency chains. One span's chain —
    /// compare → `popcnt` → word load → `vpexpandd` → `vpgatherdd` →
    /// `vpmulld` → add — is some 50 cycles a group and only two registers
    /// wide, so alone it leaves the pipeline mostly empty; interleaving
    /// fills it.
    ///
    /// # Safety
    /// As [`SpanLoop::span_loop`], and AVX-512F and POPCNT must be
    /// available.
    #[target_feature(enable = "avx512f,popcnt")]
    unsafe fn span_loop<const K: usize, const WIDE: bool, S>(
        t0: *const i32,
        t1: *const i32,
        n: u32,
        mut spans: [&mut Span<'_, S>; K],
    ) -> usize {
        let lbound = _mm512_set1_epi32(1 << 16);
        let maskv = _mm512_set1_epi32(((1u32 << n) - 1) as i32);
        let nv = _mm512_set1_epi32(n as i32);

        let common = spans.iter().map(|s| s.out.len() / 32).min().unwrap_or(0);
        let words: [*const u8; K] = std::array::from_fn(|i| spans[i].words.as_ptr());
        // A group may run while `MIN_WORDS_BELOW <= p <= top`.
        let top: [isize; K] =
            std::array::from_fn(|i| (spans[i].words.len() / 2) as isize - OVERREAD_WORDS);
        let mut p: [isize; K] = std::array::from_fn(|i| signed_cursor(spans[i].cursor));
        // One past the top of each span's output; a group steps it down.
        let mut out: [*mut S; K] = std::array::from_fn(|i| spans[i].out.as_mut_ptr_range().end);
        let mut x = [[_mm512_setzero_si512(); 2]; K];
        for i in 0..K {
            let sp = spans[i].states.as_ptr();
            // SAFETY: the caller guarantees 32 lane states per span.
            x[i] = unsafe {
                [
                    _mm512_loadu_si512(sp.cast()),
                    _mm512_loadu_si512(sp.add(16).cast()),
                ]
            };
        }

        let mut done = 0;
        while done < common {
            // Negative iff some cursor is outside its guarded region. One
            // branch for the whole batch: with an exit per comparison LLVM
            // kept six of the eight lane-state registers on the stack at
            // K = 4 (`codec_bulk` +10 %).
            let mut outside = 0;
            for i in 0..K {
                outside |= outside_guards(p[i], top[i]);
            }
            if outside < 0 {
                break;
            }
            for o in &mut out {
                // SAFETY: `done < common` leaves every span 32 symbols.
                *o = unsafe { o.sub(32) };
            }
            // Registers in descending lane order, so each span's backward
            // cursor is consumed exactly as the scalar decoder would.
            for r in (0..2usize).rev() {
                for i in 0..K {
                    let mut xr = x[i][r];

                    // Renormalization, branchless: the lanes below `L` take the
                    // `k` words under the cursor, ascending (`vpexpandd`).
                    let m: __mmask16 = _mm512_cmplt_epu32_mask(xr, lbound);
                    let k = m.count_ones() as isize;
                    let at = 2 * (p[i] - k + 1);
                    // SAFETY: the guards held at group entry and the group has
                    // consumed at most 16 words since, so `p - k + 1 >= 33`;
                    // and `p <= len - OVERREAD_WORDS` keeps the 16-word load
                    // at word `p - k + 1 <= p + 1` (byte `at`) inside the
                    // span's words.
                    let w = unsafe { _mm256_loadu_si256(words[i].offset(at).cast()) };
                    let expanded = _mm512_maskz_expand_epi32(m, _mm512_cvtepu16_epi32(w));
                    xr = _mm512_mask_or_epi32(xr, m, _mm512_slli_epi32::<16>(xr), expanded);
                    p[i] -= k;

                    // Transform (Eq. 2).
                    let slot = _mm512_and_si512(xr, maskv);
                    // `d` is `slot - cdf`; a packed entry holds it as is.
                    // SAFETY: `slot < 2^n` indexes the model's tables (the
                    // wide `inv` carries a padding entry for the 32-bit
                    // gather), and `inv`'s symbols index `ff`.
                    let (f, d, sym) = unsafe {
                        if WIDE {
                            let half = _mm512_set1_epi32(0xFFFF);
                            let sym = _mm512_and_si512(_mm512_i32gather_epi32::<2>(slot, t0), half);
                            let e = _mm512_i32gather_epi32::<4>(sym, t1);
                            let d = _mm512_sub_epi32(slot, _mm512_and_si512(e, half));
                            (_mm512_srli_epi32::<16>(e), d, sym)
                        } else {
                            // `(slot - cdf) | sym << 12 | freq << 20`. The
                            // byte store's narrowing drops the freq bits above
                            // the symbol; the 16-bit one needs them masked.
                            let e = _mm512_i32gather_epi32::<4>(slot, t0);
                            let mut sym = _mm512_srli_epi32::<12>(e);
                            if size_of::<S>() != 1 {
                                sym = _mm512_and_si512(sym, _mm512_set1_epi32(0xFF));
                            }
                            // `slot - cdf < f < 2^n`: the slot mask reads it.
                            let d = _mm512_and_si512(e, maskv);
                            (_mm512_srli_epi32::<20>(e), d, sym)
                        }
                    };
                    let xsh = _mm512_srlv_epi32(xr, nv);
                    x[i][r] = _mm512_add_epi32(_mm512_mullo_epi32(f, xsh), d);

                    // Narrow the 16 symbols straight into the output slice.
                    // SAFETY: `out[i]` points at this group's 32 symbols, and
                    // `S` is `u8` or `u16` by the caller's contract.
                    unsafe {
                        let dst = out[i].add(r * 16);
                        if size_of::<S>() == 1 {
                            _mm_storeu_si128(dst.cast(), _mm512_cvtepi32_epi8(sym));
                        } else {
                            _mm256_storeu_si256(dst.cast(), _mm512_cvtepi32_epi16(sym));
                        }
                    }
                }
            }
            done += 1;
        }

        for i in 0..K {
            // SAFETY: 32 lane states per span, as at the loads above.
            unsafe {
                let sp = spans[i].states.as_mut_ptr();
                _mm512_storeu_si512(sp.cast(), x[i][0]);
                _mm512_storeu_si512(sp.add(16).cast(), x[i][1]);
            }
            spans[i].cursor = (p[i] >= 0).then_some(p[i] as u64);
            spans[i].take_top(done * 32);
        }
        done
    }
}
