//! The vector span kernel and the whole-stream composition built on it.
//!
//! The vector loops run only on aligned 32-symbol groups away from the
//! stream edges (memory guards); everything else — group-unaligned span
//! edges, the first and last few words of the stream — falls back to the
//! scalar span engine (`recoil_rans::Span::advance_scalar`), which is
//! bit-identical by construction. SIMD decoding supports static models (the
//! adaptive hyperprior path stays on the scalar engine, as the per-position
//! model indirection defeats flat gathers).
//!
//! There is no segment driver here: [`decode_spans`] is a *span kernel*
//! the engines above this crate call — `recoil_core::decode_segments` (from
//! `recoil_core::backend`) and the conventional baseline's
//! `decode_partitions`. Both give it batches of up to
//! [`Kernel::interleave_depth`] spans, which it decodes interleaved.

// Off x86_64 there is no vector loop and what only they use is dead.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code, unused_imports))]

use crate::kernel::{Kernel, AVX2_DEPTH, AVX512_DEPTH};
use crate::model::SimdModel;
use recoil_models::{StaticModelProvider, Symbol};
use recoil_rans::{EncodedStream, RansError, Span, SpanStats};
use std::any::TypeId;

/// Words that must remain below the cursor for a vector group (underread
/// guard: a group consumes at most 32 words).
pub(crate) const MIN_WORDS_BELOW: isize = 64;
/// Words that must remain from the cursor up (overread guard: the widest
/// renorm load is 16 words, starting as high as one past the cursor).
pub(crate) const OVERREAD_WORDS: isize = 17;

/// `Option` cursor as the loops keep it: -1 once exhausted — and for a
/// cursor no slice could hold, which keeps the guard arithmetic free of
/// overflow and fails the guards, so the scalar engine's cursor assertion
/// gets to report the caller's bug.
pub(crate) fn signed_cursor(cursor: Option<u64>) -> isize {
    cursor.map_or(-1, |o| isize::try_from(o).unwrap_or(-1))
}

/// Set bits of a renormalization mask, by table: the kernels may assume no
/// CPU feature beyond their vector extension, and without `popcnt` a
/// `count_ones` is a dozen dependent operations on every cursor update.
#[inline(always)]
pub(crate) fn popcount16(m: u16) -> isize {
    static BITS: [u8; 256] = {
        let mut t = [0u8; 256];
        let mut i = 1;
        while i < 256 {
            t[i] = t[i / 2] + (i & 1) as u8;
            i += 1;
        }
        t
    };
    let m = m as usize;
    BITS[m & 0xFF] as isize + BITS[m >> 8] as isize
}

/// One ISA's decode loop, instantiated by [`decode_groups`] at the kernel's
/// interleave depth and at 1.
#[cfg(target_arch = "x86_64")]
pub(crate) trait SpanLoop {
    /// Takes whole 32-symbol groups off the top of `K` spans in lockstep —
    /// lane states, cursors and output pointers in registers throughout —
    /// until the shortest span has none left or some span's cursor leaves
    /// the guarded region (`MIN_WORDS_BELOW <= cursor <= len -
    /// OVERREAD_WORDS`, checked every group). Returns the groups decoded
    /// per span and leaves every span consumed that far.
    ///
    /// # Safety
    /// The ISA must be available, `S` must be `u8` or `u16`, every span
    /// must carry exactly 32 lane states and, if it has a whole group
    /// left, end on a multiple of 32 (`(lo + out.len()) % 32 == 0`), and
    /// `t0`/`t1` must be the packed LUT and null (`WIDE = false`) or the
    /// wide `inv` and `ff` tables (`WIDE = true`) of a model with
    /// quantization level `n`.
    unsafe fn span_loop<const K: usize, const WIDE: bool, S>(
        t0: *const i32,
        t1: *const i32,
        n: u32,
        spans: &mut [Span<'_, S>; K],
    ) -> usize;
}

/// Decodes whole groups off the top of every span: chunks of `K` spans
/// jointly, then each span on its own through the `K = 1` instantiation of
/// the same loop (the spans of a batch shorter than `K`, and the groups a
/// span has beyond its chunk's common count). Returns the total number of
/// groups decoded.
///
/// # Safety
/// As [`SpanLoop::span_loop`], except that the tables come from `model`.
#[cfg(target_arch = "x86_64")]
unsafe fn decode_groups<L: SpanLoop, const K: usize, S>(
    model: &SimdModel<'_>,
    spans: &mut [Span<'_, S>],
) -> u64 {
    // The model match is hoisted out of the loops into `WIDE`.
    let (t0, t1, n, wide) = match *model {
        SimdModel::Packed { lut, n } => (lut.as_ptr().cast(), std::ptr::null(), n, false),
        SimdModel::Wide { inv, ff, n } => (inv.as_ptr().cast(), ff.as_ptr().cast(), n, true),
    };
    let mut groups = 0;
    for chunk in spans.chunks_mut(K) {
        if let Ok(batch) = <&mut [Span<'_, S>; K]>::try_from(&mut *chunk) {
            // SAFETY: the caller's contract, and `wide` names the variant
            // the table pointers came from.
            groups += K * unsafe {
                match wide {
                    false => L::span_loop::<K, false, S>(t0, t1, n, batch),
                    true => L::span_loop::<K, true, S>(t0, t1, n, batch),
                }
            };
        }
        if K == 1 {
            continue;
        }
        for span in chunk {
            let single = std::array::from_mut(span);
            // SAFETY: as above.
            groups += unsafe {
                match wide {
                    false => L::span_loop::<1, false, S>(t0, t1, n, single),
                    true => L::span_loop::<1, true, S>(t0, t1, n, single),
                }
            };
        }
    }
    groups as u64
}

/// The vector span kernel: decodes every span of the batch to completion
/// — chunks of [`Kernel::interleave_depth`] spans interleaved, leftovers
/// one at a time through the same loop — and returns how the batch
/// decoded, summed (vector groups count as fast groups).
///
/// Spans need not be group-aligned, and their words may be a prefix of
/// the stream: the guards keep every vector load inside them. A `kernel`
/// this host cannot run (and [`Kernel::Scalar`]), symbols other than
/// `u8`/`u16` and spans that are not 32-way decode through the scalar
/// engine.
pub fn decode_spans<S: Symbol>(
    kernel: Kernel,
    provider: &StaticModelProvider,
    spans: &mut [Span<'_, S>],
) -> Result<SpanStats, RansError> {
    match kernel {
        Kernel::Scalar => decode_spans_at_depth::<1, S>(kernel, provider, spans),
        Kernel::Avx2 => decode_spans_at_depth::<AVX2_DEPTH, S>(kernel, provider, spans),
        Kernel::Avx512 => decode_spans_at_depth::<AVX512_DEPTH, S>(kernel, provider, spans),
    }
}

/// [`decode_spans`] at an explicit interleave depth `K`. Decoders use the
/// per-kernel constant; this entry exists for the depth sweep in
/// `benches/decode_kernels.rs` that chose it.
#[doc(hidden)]
pub fn decode_spans_at_depth<const K: usize, S: Symbol>(
    kernel: Kernel,
    provider: &StaticModelProvider,
    spans: &mut [Span<'_, S>],
) -> Result<SpanStats, RansError> {
    let mut stats = SpanStats::default();
    #[cfg(target_arch = "x86_64")]
    if kernel != Kernel::Scalar
        && kernel.is_available()
        && [TypeId::of::<u8>(), TypeId::of::<u16>()].contains(&TypeId::of::<S>())
        && spans.iter().all(|s| s.states.len() == 32)
    {
        let model = SimdModel::from_provider(provider);
        for span in spans.iter_mut() {
            lead_in(provider, span, &mut stats)?;
        }
        let unread = |spans: &[Span<'_, S>]| -> u64 {
            spans.iter().map(|s| s.cursor.map_or(0, |o| o + 1)).sum()
        };
        let before = unread(spans);
        // SAFETY: `kernel.is_available()` reported the CPU feature; `S` is
        // `u8` or `u16`; every span has 32 lane states and `lead_in` left
        // it ending on a group boundary or shorter than a group.
        let groups = unsafe {
            match kernel {
                Kernel::Avx2 => decode_groups::<crate::avx2::Avx2, K, S>(&model, spans),
                Kernel::Avx512 => decode_groups::<crate::avx512::Avx512, K, S>(&model, spans),
                Kernel::Scalar => unreachable!("excluded above"),
            }
        };
        stats.fast_groups += groups;
        stats.fast_symbols += groups * 32;
        // The vector groups moved the cursors: count words off the delta.
        stats.words_consumed += before - unread(spans);
    }
    // Scalar tails: the sub-group remainders, and everything left once a
    // span's words ran low (a cursor only moves down, so its vector loop
    // could not resume).
    for span in spans {
        stats.merge(&span.advance_scalar(provider, span.out.len())?);
    }
    Ok(stats)
}

/// The scalar steps that bring a span to where a vector loop can take
/// over: down to a group boundary, and — for a span whose cursor starts
/// within [`OVERREAD_WORDS`] of the end of its words, as the final segment
/// and a streaming decoder's newest always do — on through whole groups
/// until the overread guard opens, so one such span cannot hold its whole
/// batch out of the joint loop.
#[cfg(target_arch = "x86_64")]
fn lead_in<S: Symbol>(
    provider: &StaticModelProvider,
    span: &mut Span<'_, S>,
    stats: &mut SpanStats,
) -> Result<(), RansError> {
    let head = (span.end() % 32).min(span.out.len() as u64) as usize;
    stats.merge(&span.advance_scalar(provider, head)?);
    while span.out.len() >= 32 && {
        let p = signed_cursor(span.cursor);
        p >= MIN_WORDS_BELOW && p > span.words.len() as isize - OVERREAD_WORDS
    } {
        stats.merge(&span.advance_scalar(provider, 32)?);
    }
    Ok(())
}

/// The vector loops are built for the paper's 32-way interleave; anything
/// else is reported as a malformed stream.
pub fn require_32_ways(ways: u32) -> Result<(), RansError> {
    if ways != crate::SIMD_WAYS {
        return Err(RansError::MalformedStream(format!(
            "SIMD kernels require the 32-way interleave, stream has {ways}"
        )));
    }
    Ok(())
}

/// Baseline (A) with SIMD: single-thread full-stream decode.
pub fn decode_interleaved_simd<S: Symbol>(
    kernel: Kernel,
    stream: &EncodedStream,
    provider: &StaticModelProvider,
    out: &mut [S],
) -> Result<(), RansError> {
    stream.validate()?;
    require_32_ways(stream.ways)?;
    stream.check_output_len(out.len())?;
    decode_spans(kernel, provider, &mut [stream.tail_span(0, out)])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_models::{CdfTable, DecodeTables};
    use recoil_rans::{decode_interleaved, InterleavedEncoder, NullSink};

    fn sample(len: usize, seed: u32, spread: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (((i ^ seed).wrapping_mul(2654435761)) >> spread) as u8)
            .collect()
    }

    fn encode(data: &[u8], n: u32) -> (EncodedStream, StaticModelProvider) {
        let p = StaticModelProvider::new(CdfTable::of_bytes(data, n));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all_fast(data, &mut NullSink).unwrap();
        (enc.finish(), p)
    }

    #[test]
    fn all_kernels_match_reference_packed() {
        let data = sample(123_457, 0, 23);
        let (stream, p) = encode(&data, 11);
        let reference: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        assert_eq!(reference, data);
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn all_kernels_match_reference_wide_n16() {
        let data = sample(90_001, 1, 22);
        let (stream, p) = encode(&data, 16);
        assert!(matches!(p.decode_tables(), DecodeTables::Wide(_)));
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn sixteen_bit_symbols_wide_path() {
        let bytes = sample(80_000, 2, 22);
        let data: Vec<u16> = bytes.iter().map(|&b| (b as u16) * 17).collect();
        let p = StaticModelProvider::new(CdfTable::of_u16(&data, 1 << 13, 14));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();
        for kernel in Kernel::all_available() {
            let mut out = vec![0u16; data.len()];
            decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn short_streams_fall_back_to_scalar_paths() {
        for len in [1usize, 31, 32, 33, 63, 65, 100] {
            let data = sample(len, 5, 24);
            let (stream, p) = encode(&data, 10);
            for kernel in Kernel::all_available() {
                let mut out = vec![0u8; len];
                decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
                assert_eq!(out, data, "kernel {kernel:?} len {len}");
            }
        }
    }

    #[test]
    fn non_32_way_streams_rejected() {
        let data = sample(1000, 6, 24);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 10));
        let mut enc = InterleavedEncoder::new(&p, 8);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();
        let mut out = vec![0u8; 1000];
        assert!(decode_interleaved_simd(Kernel::Scalar, &stream, &p, &mut out).is_err());
    }
}

#[cfg(test)]
mod segment_tests {
    use super::*;
    use recoil_models::CdfTable;
    use recoil_rans::{InterleavedEncoder, NullSink};

    /// A finished span hands over its cursor and states so callers can
    /// chain spans: two chained calls must equal one full-stream call for
    /// any (unaligned) split position and any kernel.
    #[test]
    fn chained_segments_equal_full_decode() {
        let data: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect();
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();
        for kernel in Kernel::all_available() {
            for cut in [1usize, 31, 32, 4097, 50_000, 99_999] {
                let mut full = vec![0u8; data.len()];
                decode_interleaved_simd(kernel, &stream, &p, &mut full).unwrap();

                let mut hi_part = vec![0u8; data.len() - cut];
                let mut hi = [stream.tail_span(cut as u64, &mut hi_part)];
                let hi_stats = decode_spans(kernel, &p, &mut hi).unwrap();
                let [hi] = hi;
                let mut lo_part = vec![0u8; cut];
                let mut lo = [Span {
                    words: &stream.words,
                    cursor: hi.cursor,
                    states: hi.states,
                    lo: 0,
                    out: &mut lo_part,
                }];
                let lo_stats = decode_spans(kernel, &p, &mut lo).unwrap();
                let end = lo[0].cursor;
                // The stats account for every symbol and every word.
                assert_eq!(hi_stats.symbols() + lo_stats.symbols(), data.len() as u64);
                assert_eq!(
                    hi_stats.words_consumed + lo_stats.words_consumed,
                    stream.words.len() as u64 - end.map_or(0, |o| o + 1)
                );
                assert_eq!(
                    &lo_part[..],
                    &full[..cut],
                    "kernel {kernel:?} cut {cut} low"
                );
                assert_eq!(
                    &hi_part[..],
                    &full[cut..],
                    "kernel {kernel:?} cut {cut} high"
                );
            }
        }
    }
}
