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
//! [`Kernel::interleave_depth`] spans, which it decodes interleaved: `K`
//! at a time while `K` spans still have groups, then two at a time, then
//! one (`decode_groups`), so a batch of two or three spans and the spans a
//! `K` run leaves unfinished still run interleaved.

#![allow(unsafe_code, reason = "runs a loop only on its detected ISA")]
#![cfg_attr(
    not(target_arch = "x86_64"),
    allow(
        dead_code,
        unused_imports,
        reason = "what only the vector loops use is dead without them"
    )
)]

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

/// Negative iff `cursor` is outside the region where a group may run
/// (`MIN_WORDS_BELOW <= cursor <= top`, `top` = word count −
/// [`OVERREAD_WORDS`]). The loops OR this over their spans into one branch;
/// [`decode_groups`] asks it of one span to pick the next run.
#[inline(always)]
pub(crate) fn outside_guards(cursor: isize, top: isize) -> isize {
    (cursor - MIN_WORDS_BELOW) | (top - cursor)
}

/// True if a vector loop given `span` would decode a group of it: it has
/// a whole group left and its cursor is inside the guards.
#[cfg(target_arch = "x86_64")]
fn takes_a_group<S>(span: &Span<'_, S>) -> bool {
    let top = (span.words.len() / 2) as isize - OVERREAD_WORDS;
    span.out.len() >= 32 && outside_guards(signed_cursor(span.cursor), top) >= 0
}

/// One ISA's decode loop, instantiated by [`decode_groups`] at the kernel's
/// interleave depth, at 2 and at 1.
#[cfg(target_arch = "x86_64")]
pub(crate) trait SpanLoop {
    /// Takes whole 32-symbol groups off the top of `K` spans in lockstep —
    /// lane states, cursors and output pointers in registers throughout —
    /// until the shortest span has none left or some span's cursor leaves
    /// the guarded region ([`outside_guards`], checked every group).
    /// Returns the groups decoded per span and leaves every span consumed
    /// that far.
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
        spans: [&mut Span<'_, S>; K],
    ) -> usize;
}

/// A model's tables as the loops take them: `t0`, `t1`, `n`, and whether
/// they are the wide pair.
#[cfg(target_arch = "x86_64")]
type Tables = (*const i32, *const i32, u32, bool);

/// One run of `L`'s loop over the next `K` spans of `spans`; returns the
/// groups it decoded, over all of them.
///
/// # Safety
/// As [`SpanLoop::span_loop`], with `wide` naming the variant the table
/// pointers came from. `spans` must have `K` spans left.
#[cfg(target_arch = "x86_64")]
unsafe fn run<'a, 'b: 'a, L: SpanLoop, const K: usize, S: 'b>(
    (t0, t1, n, wide): Tables,
    spans: &mut impl Iterator<Item = &'a mut Span<'b, S>>,
) -> u64 {
    let batch = std::array::from_fn(|_| spans.next().expect("K spans left"));
    // SAFETY: the caller's contract.
    let groups = unsafe {
        match wide {
            false => L::span_loop::<K, false, S>(t0, t1, n, batch),
            true => L::span_loop::<K, true, S>(t0, t1, n, batch),
        }
    };
    (K * groups) as u64
}

/// Decodes whole groups off the top of every span, as many spans
/// interleaved as can still take a group — `K` while at least `K` can,
/// then 2, then 1 — and returns the total number of groups decoded.
///
/// A run ends when one of its spans cannot take another group (it has
/// none left, or its cursor left the guards), so every run retires at
/// least one span and the next run refills from the rest: a batch of two
/// or three spans, and the groups the spans of a `K` run have beyond its
/// common count, decode two at a time instead of one after the other.
///
/// # Safety
/// As [`SpanLoop::span_loop`], except that the tables come from `model`.
#[cfg(target_arch = "x86_64")]
unsafe fn decode_groups<L: SpanLoop, const K: usize, S>(
    model: &SimdModel<'_>,
    spans: &mut [Span<'_, S>],
) -> u64 {
    // The model match is hoisted out of the loops into `WIDE`.
    let tables: Tables = match *model {
        SimdModel::Packed { lut, n } => (lut.as_ptr().cast(), std::ptr::null(), n, false),
        SimdModel::Wide { inv, ff, n } => (inv.as_ptr().cast(), ff.as_ptr().cast(), n, true),
    };
    let mut groups = 0;
    loop {
        let live = spans.iter().filter(|s| takes_a_group(s)).count();
        let next = &mut spans.iter_mut().filter(|s| takes_a_group(s));
        // SAFETY: the caller's contract, `tables` came from `model`, and
        // `live` spans are left in `next`.
        groups += unsafe {
            if live >= K {
                run::<L, K, S>(tables, next)
            } else if live >= 2 {
                run::<L, 2, S>(tables, next)
            } else if live == 1 {
                run::<L, 1, S>(tables, next)
            } else {
                return groups;
            }
        };
    }
}

/// The vector span kernel: decodes every span of the batch to completion
/// — [`Kernel::interleave_depth`] spans interleaved at a time, then the
/// spans still left two and one at a time through the same loop — and
/// returns how the batch decoded, summed (vector groups count as fast
/// groups).
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
/// per-kernel constant; this entry exists for the depth sweep that chose
/// it (`interleave_depth_*` in `recoil-bench`'s `decode_kernels` bench).
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
        p >= MIN_WORDS_BELOW && p > (span.words.len() / 2) as isize - OVERREAD_WORDS
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

    /// The packed entry's extremes through every kernel's packed branch:
    /// at every level a symbol of freq `2^n - 1` beside one of freq 1, the
    /// top byte symbol on either side, so the largest `slot - cdf`, freq
    /// and symbol fields and the last slot all decode.
    #[test]
    fn packed_extremes_at_every_level() {
        for n in 1..=12u32 {
            for (common, rare) in [(255u8, 0u8), (0, 255)] {
                let mut freqs = vec![0u32; 256];
                freqs[common as usize] = (1 << n) - 1;
                freqs[rare as usize] = 1;
                let p = StaticModelProvider::new(CdfTable::from_freqs(freqs, n));
                assert!(matches!(p.decode_tables(), DecodeTables::Packed(_)));
                let data: Vec<u8> = sample(20_000, n, 29)
                    .iter()
                    .map(|&b| if b % 64 == 0 { rare } else { common })
                    .collect();
                let mut enc = InterleavedEncoder::new(&p, 32);
                enc.encode_all_fast(&data, &mut NullSink).unwrap();
                let stream = enc.finish();
                for kernel in Kernel::all_available() {
                    let mut out = vec![0u8; data.len()];
                    decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
                    assert_eq!(out, data, "kernel {kernel:?} n={n} common {common}");
                    let mut wide = vec![0u16; data.len()];
                    decode_interleaved_simd(kernel, &stream, &p, &mut wide).unwrap();
                    assert!(
                        wide.iter().zip(&data).all(|(&w, &b)| w == b as u16),
                        "kernel {kernel:?} n={n} common {common}, 16-bit symbols"
                    );
                }
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
                    words: stream.words.as_bytes(),
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

/// The descent of [`decode_groups`], against a loop that records the width
/// of every run and takes the batch's common group count off each span
/// (no decoding: only the schedule is under test).
#[cfg(all(test, target_arch = "x86_64"))]
mod descent_tests {
    use super::*;
    use recoil_rans::LaneStates;
    use std::cell::RefCell;

    thread_local! {
        static RUNS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    struct Recorder;

    impl SpanLoop for Recorder {
        /// # Safety
        /// None beyond the trait's: it reads no table and no word.
        unsafe fn span_loop<const K: usize, const WIDE: bool, S>(
            _: *const i32,
            _: *const i32,
            _: u32,
            spans: [&mut Span<'_, S>; K],
        ) -> usize {
            RUNS.with(|r| r.borrow_mut().push(K));
            let common = spans.iter().map(|s| s.out.len() / 32).min().unwrap();
            for span in spans {
                span.take_top(common * 32);
            }
            common
        }
    }

    /// The widths of the runs `decode_groups::<Recorder, K, _>` makes over
    /// spans of `groups[i]` whole groups each (plus `extra` symbols on the
    /// first, fewer than a group), and the total it reports.
    fn runs<const K: usize>(groups: &[usize], extra: usize) -> (Vec<usize>, u64) {
        let words = vec![0u8; 2_000];
        let mut outs: Vec<Vec<u8>> = groups.iter().map(|&g| vec![0; g * 32]).collect();
        outs[0].extend(std::iter::repeat_n(0, extra));
        let mut spans: Vec<Span<'_, u8>> = outs
            .iter_mut()
            .map(|out| Span {
                words: &words,
                cursor: Some(500),
                states: LaneStates::from(&[0u32; 32][..]),
                lo: 0,
                out,
            })
            .collect();
        let lut = [0u32; 2];
        let model = SimdModel::Packed { lut: &lut, n: 1 };
        RUNS.with(|r| r.borrow_mut().clear());
        // SAFETY: the recorder touches neither the tables nor the words.
        let total = unsafe { decode_groups::<Recorder, K, u8>(&model, &mut spans) };
        for (span, &g) in spans.iter().zip(groups) {
            assert!(span.out.len() < 32, "a span of {g} groups kept a group");
        }
        (RUNS.with(|r| r.take()), total)
    }

    #[test]
    fn k_then_two_then_one() {
        // [5, 3, 8, 1] → common 1 → [4, 2, 7, 0]: three left, so K = 2
        // on [4, 2] → [2, 0, 7], then [2, 7] → [0, 5], then 5 alone.
        assert_eq!(runs::<4>(&[5, 3, 8, 1], 0), (vec![4, 2, 2, 1], 17));
        // Refill: after the first run four spans still take a group.
        assert_eq!(runs::<4>(&[5, 3, 8, 1, 2], 31), (vec![4, 4, 2, 1], 19));
        // Two or three spans run interleaved at K = 4 too.
        assert_eq!(runs::<4>(&[6, 6], 0), (vec![2], 12));
        assert_eq!(runs::<4>(&[6, 2, 6], 0), (vec![2, 2, 1], 14));
        assert_eq!(runs::<2>(&[3, 1, 2], 0), (vec![2, 2], 6));
        assert_eq!(runs::<1>(&[3, 1], 0), (vec![1, 1], 4));
        // Spans shorter than a group, and a batch of them, run nothing.
        assert_eq!(runs::<4>(&[0, 4, 0], 5), (vec![1], 4));
        assert_eq!(runs::<4>(&[0, 0], 7), (vec![], 0));
    }
}
