//! The AVX-512 group loop of [`super::encode_span`]: 32 lanes as two `zmm`
//! registers, one symbol per lane per step — the write-side twin of
//! `recoil_simd`'s span loop (Giesen, "Interleaved entropy coders": encoder
//! and decoder are symmetric) and the one file of the encode side that
//! holds raw loads and stores.
//!
//! Per half-group (16 lanes, ascending, so words leave in the scalar
//! loop's order):
//!
//! 1. load 16 symbol bytes, widen to 32-bit gather indices;
//! 2. gather `f << 16 | F` and the reciprocal from the per-call
//!    [`SymbolTable`] (8-byte entries, so both come from one cache line);
//! 3. `vpcmpud` the states against `f << (32 - n)`: the renorm mask;
//! 4. `vpcompressd` the renormalizing states to the front, narrow their low
//!    halves to 16 words and store all 16 (32 little-endian bytes) at the
//!    output cursor, unmasked —
//!    the cursor advances by the mask's popcount, the next store overwrites
//!    the rest — and store the compressed states themselves, the same way,
//!    into the group's slot of the block's report;
//! 5. shift the renormalizing lanes down 16 bits (masked `vpsrld`);
//! 6. quotient by reciprocal: 32×32→64 multiplies of the even and odd lanes
//!    (`vpmuludq`), high halves blended back, one remainder, one fix-up
//!    compare (exactness: the parent module's docs);
//! 7. `x = (q << n) + F + r`.
//!
//! A zero frequency never divides (its table entry is all zeros); it sets a
//! flag the loop tests once per group, before the group is counted.
//!
//! The loop calls nothing. A sink called from inside it — the split
//! planner's pushes are a `VecDeque` and a copy — made LLVM keep eight `zmm`
//! on the stack across every group; so the loop writes each group's summary
//! (mask, compressed states) into a per-block
//! [`BlockReport`] and the sink hears the block's groups after it, from
//! ordinary code. `NullSink` pays three stores a group for summaries nobody
//! reads (not measurable: 0.130 ms for 256 KiB with them and without).
//!
//! Codegen, checked once with `objdump -d` on the release `ladder` binary
//! (rustc 1.95): the loop body is 82 instructions per group of 32 symbols —
//! 4 `vpgatherdd`, 4 `vpmuludq`, 2 `vpmulld`, 2 `vpcompressd`, 2 `vpmovdw`
//! stores, 2 `popcnt` — with both lane-state registers, the constants and
//! the table pointers in registers throughout: no `(%rsp)` operand, vector
//! or scalar, and no call.

#![allow(unsafe_code, reason = "stores stay in the block's word window")]

use crate::sink::{RenormGroup, RenormSink};
use recoil_bitio::WordStream;
use std::arch::x86_64::*;

use super::{reciprocal, BLOCK_GROUPS, GROUP};

/// True when this host runs the loop (std caches the CPUID probe, so this
/// is two relaxed loads after the first call): AVX-512F, which is what the
/// AVX-512 decode kernel asks for, and POPCNT, which every CPU with
/// AVX-512F has had since long before it.
pub(super) fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("popcnt")
}

/// A position-independent byte model as the loop gathers it: per symbol,
/// `f << 16 | F` and `reciprocal(f)`. Built by the encoder per call — 2 KiB
/// on its stack — never stored with the model, which every decoding client
/// would pay for.
pub(super) struct SymbolTable {
    entries: [[u32; 2]; 256],
    n: u32,
}

/// What one block's groups report to the sink, written by the loop and read
/// back once the block is done — so that the loop itself calls nothing and
/// keeps its lane states in registers.
struct BlockReport {
    /// Per group: which of its symbols renormalized.
    masks: [u32; BLOCK_GROUPS],
    /// Per group: [`RenormGroup::renormed`].
    renormed: [[u32; GROUP]; BLOCK_GROUPS],
}

impl SymbolTable {
    /// Tabulates `stats` over the symbols below `alphabet` (at most 256);
    /// the rest read as zero frequency.
    pub(super) fn new(n: u32, alphabet: usize, stats: impl Fn(u16) -> (u32, u32)) -> Self {
        let mut entries = [[0u32; 2]; 256];
        for (sym, entry) in (0u16..).zip(&mut entries).take(alphabet) {
            let (f, c) = stats(sym);
            if f != 0 {
                debug_assert!(f < 1 << 16 && c < 1 << 16, "f + F <= 2^n <= 2^16");
                *entry = [f << 16 | c, reciprocal(f)];
            }
        }
        Self { entries, n }
    }

    /// Encodes whole groups — `groups[g]` is positions `first_pos + 32 g ..`,
    /// and `first_pos % 32 == 0`, so lane `k` owns each group's `k`-th
    /// symbol — appending the words to `out` and reporting each group to
    /// `sink` with offsets from `offset`. Returns the words written, or the
    /// index of the first group holding a zero-frequency symbol.
    pub(super) fn encode_groups(
        &self,
        groups: &[[u8; GROUP]],
        first_pos: u64,
        lanes: &mut [u32; GROUP],
        out: &mut WordStream,
        offset: u64,
        sink: &mut impl RenormSink,
    ) -> Result<u64, usize> {
        assert!(available(), "the caller selects this loop by `available()`");
        debug_assert!(first_pos.is_multiple_of(GROUP as u64));
        let mut report = BlockReport {
            masks: [0; BLOCK_GROUPS],
            renormed: [[0; GROUP]; BLOCK_GROUPS],
        };
        // Each block is stored straight into the stream at the words kept
        // so far, in a window of its whole budget (at most one word per
        // symbol, Lemma 3.1), since the loop stores 16 words at a time past
        // what it keeps. The stream is cut to what was kept once, at the
        // end, so only each window's growth past the end is ever zeroed.
        let start = out.len();
        let mut written = 0u64;
        for (b, block) in groups.chunks(BLOCK_GROUPS).enumerate() {
            let done = b * BLOCK_GROUPS;
            let dst = out.window_mut(start + written as usize, block.len() * GROUP);
            // SAFETY: `available()` holds, which is the features
            // `encode_block` is compiled for, and `dst` is the
            // `block.len() * GROUP` words of the window.
            let words = unsafe { self.encode_block(block, lanes, dst.as_mut_ptr(), &mut report) }
                .map_err(|g| done + g)?;
            // SAFETY: `available()`, as above.
            unsafe {
                report.deliver(
                    block.len(),
                    first_pos + (done * GROUP) as u64,
                    offset + written,
                    sink,
                );
            }
            written += words as u64;
        }
        out.truncate(start + written as usize);
        Ok(written)
    }

    /// One block of [`SymbolTable::encode_groups`]: the loop itself. Returns
    /// the number of words stored at `dst`, with the groups' summaries in
    /// `report`.
    ///
    /// # Safety
    ///
    /// AVX-512F and POPCNT must be available, and `dst` must be valid for
    /// writes of `groups.len() * GROUP` words (twice as many bytes; no
    /// alignment is needed).
    #[target_feature(enable = "avx512f,popcnt")]
    unsafe fn encode_block(
        &self,
        groups: &[[u8; GROUP]],
        lanes: &mut [u32; GROUP],
        dst: *mut u8,
        report: &mut BlockReport,
    ) -> Result<usize, usize> {
        let table = self.entries.as_ptr().cast::<i32>();
        let threshold_shift = _mm_cvtsi32_si128((32 - self.n) as i32);
        let n = _mm_cvtsi32_si128(self.n as i32);
        let low_half = _mm512_set1_epi32(0xFFFF);
        let one = _mm512_set1_epi32(1);
        let (lo, hi) = lanes.split_at_mut(GROUP / 2);
        // SAFETY: each half of `lanes` is 16 `u32`s, one unaligned `zmm`.
        let mut x = unsafe {
            [
                _mm512_loadu_si512(lo.as_ptr().cast()),
                _mm512_loadu_si512(hi.as_ptr().cast()),
            ]
        };

        // Words stored so far. Each half-group stores 16 words at word `cur`
        // (byte `2 cur`) and advances by at most 16, so after `h` half-groups
        // `cur <= 16 h` and every store ends inside the `32 * groups.len()`
        // words at `dst`.
        let mut cur = 0usize;
        let summaries = report.masks.iter_mut().zip(&mut report.renormed);
        for ((g, group), (mask, renormed)) in groups.iter().enumerate().zip(summaries) {
            let mut renorms = 0u32;
            let mut count = 0;
            let mut zero: __mmask16 = 0;
            let (halves, _) = group.as_chunks::<16>();
            for (h, (x, half)) in x.iter_mut().zip(halves).enumerate() {
                // SAFETY: `half` is 16 readable bytes.
                let sym = _mm512_cvtepu8_epi32(unsafe { _mm_loadu_si128(half.as_ptr().cast()) });
                // SAFETY: `sym < 256` indexes the table's 256 8-byte
                // entries; the second gather reads each entry's upper half.
                let (ff, rcp) = unsafe {
                    (
                        _mm512_i32gather_epi32::<8>(sym, table),
                        _mm512_i32gather_epi32::<8>(sym, table.add(1)),
                    )
                };
                let f = _mm512_srli_epi32::<16>(ff);
                let c = _mm512_and_si512(ff, low_half);
                zero |= _mm512_testn_epi32_mask(f, f);

                // Renormalization (Eq. 3), branchless.
                let m = _mm512_cmpge_epu32_mask(*x, _mm512_sll_epi32(f, threshold_shift));
                let leaving = _mm512_maskz_compress_epi32(m, *x);
                // SAFETY: `cur + count + 16` is inside `dst`'s words (see
                // `cur`), and `count <= 16` leaves 16 entries of `renormed`.
                unsafe {
                    let words = _mm512_cvtepi32_epi16(leaving);
                    _mm256_storeu_si256(dst.add(2 * (cur + count)).cast(), words);
                    _mm512_storeu_si512(renormed.as_mut_ptr().add(count).cast(), leaving);
                }
                count += m.count_ones() as usize;
                renorms |= u32::from(m) << (16 * h);
                let xr = _mm512_mask_srli_epi32::<16>(*x, m, *x);

                // `q = xr / f` within one, by the reciprocal: the high
                // halves of the even and the odd lanes' 64-bit products.
                let even = _mm512_mul_epu32(xr, rcp);
                let odd =
                    _mm512_mul_epu32(_mm512_srli_epi64::<32>(xr), _mm512_srli_epi64::<32>(rcp));
                let q = _mm512_mask_blend_epi32(0xAAAA, _mm512_srli_epi64::<32>(even), odd);
                let r = _mm512_sub_epi32(xr, _mm512_mullo_epi32(q, f));
                let short = _mm512_cmpge_epu32_mask(r, f);
                let q = _mm512_mask_add_epi32(q, short, q, one);
                let r = _mm512_mask_sub_epi32(r, short, r, f);
                // Transform (Eq. 1).
                *x = _mm512_add_epi32(_mm512_add_epi32(_mm512_sll_epi32(q, n), c), r);
            }
            if zero != 0 {
                return Err(g);
            }
            *mask = renorms;
            cur += count;
        }

        // SAFETY: as at the loads.
        unsafe {
            _mm512_storeu_si512(lo.as_mut_ptr().cast(), x[0]);
            _mm512_storeu_si512(hi.as_mut_ptr().cast(), x[1]);
        }
        Ok(cur)
    }
}

impl BlockReport {
    /// Reports the first `groups` groups of the block that starts at
    /// position `first_pos` and word `offset`. (Compiled with POPCNT so that
    /// this loop and a sink inlined into it count a mask's bits in one
    /// instruction; for `NullSink` nothing is left of it.)
    ///
    /// # Safety
    ///
    /// POPCNT must be available.
    #[target_feature(enable = "popcnt")]
    unsafe fn deliver(
        &self,
        groups: usize,
        first_pos: u64,
        offset: u64,
        sink: &mut impl RenormSink,
    ) {
        let summaries = self.masks.iter().zip(&self.renormed);
        let positions = (first_pos..).step_by(GROUP);
        let mut offset = offset;
        for (first_pos, (&mask, renormed)) in positions.zip(summaries).take(groups) {
            sink.on_group(RenormGroup {
                first_pos,
                ways: GROUP as u32,
                mask,
                offset,
                renormed,
            });
            offset += u64::from(mask.count_ones());
        }
    }
}
