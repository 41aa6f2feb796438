//! The fast-loop / careful-tail decode engine — the scalar hot path every
//! decoder in the workspace runs through.
//!
//! # Why it exists
//!
//! The per-symbol decode step is three cheap operations (renormalize,
//! table lookup, state update — Eq. 2 / Eq. 4), but the straightforward
//! loop pays for much more than that on every symbol: a `Result`-wrapped
//! underflow check, a bounds-checked word read through an
//! `Option<u64>` cursor, a 64-bit `pos % ways` division to find the owning
//! lane, and a bounds-checked output write. Giesen's interleaved entropy
//! coders observation (PAPERS.md) removes all of it: because `b >= n`,
//! **each symbol consumes at most one renormalization word** (Lemma 3.1's
//! precondition, see [`crate::params`]), so a group of `GROUP` symbols can
//! run entirely check-free whenever at least `GROUP` unread words remain.
//!
//! # Structure
//!
//! [`Span::advance_scalar`] is the engine: an outer loop runs while
//! `remaining_symbols >= GROUP && words_left >= GROUP`; the inner
//! `GROUP`-symbol loop is branchless (the renorm is a speculative in-bounds
//! load plus a conditional move), uses `get_unchecked` reads of each word's
//! byte pair justified by the word budget, tracks the owning lane with a
//! rotating counter instead of `pos % ways`, hoists `n`/`mask`, and writes
//! output through a per-group chunk so the write bounds check happens once
//! per `GROUP` symbols. Once either budget runs out, the remaining symbols
//! go through [`decode_span_careful`] — one checked step per symbol, which
//! stays both the **careful tail** (it reports
//! [`RansError::BitstreamUnderflow`] on truncated streams) and the
//! **bit-exactness reference** the fast loop is tested against.
//!
//! # Safety invariant
//!
//! The only `unsafe` here is `get_unchecked` on the word stream, the lane
//! states, and the per-group output chunk. Each is justified by a loop
//! invariant, restated at the call site and checked by debug assertions:
//!
//! * **words**: the entry assertion pins `p` below the word count; the
//!   outer loop guard establishes `p >= GROUP - 1`, and each of the `GROUP`
//!   inner symbols decrements `p` at most once, so every read index stays in
//!   `0 ..= p_entry`.
//! * **states**: the rotating `lane` starts at `hi % ways` and wraps
//!   modulo `states.len()`, so it is always `< states.len()`.
//! * **output**: the group chunk is taken with a checked slice once per
//!   group; the inner loop walks it with an exact-length iterator.

#![allow(unsafe_code, reason = "b >= n: a symbol reads at most one word")]

use crate::params::{LOWER_BOUND, RENORM_BITS};
use crate::span::Span;
use crate::step::{decode_transform, renorm_read};
use crate::RansError;
use recoil_bitio::BackwardWordReader;
use recoil_models::{ModelProvider, Symbol};

/// Symbols per unchecked batch of the fast loop. 32 matches the default
/// lane count, but the engine does not require `ways == GROUP` — any
/// interleave width works, because the budget argument only needs "at most
/// one word per symbol".
pub const GROUP: usize = 32;

/// Per-span decode-engine statistics, filled by
/// [`Span::advance_scalar`]: how much work the branchless fast loop did
/// versus the careful tail, and how many compressed words the span ate.
///
/// Plain data by design — `recoil-rans` is leaf code and knows nothing
/// about telemetry handles; callers fold these into whatever counters they
/// keep. The cost of collecting them is one add per *group* (not per
/// symbol) plus arithmetic on the already-tracked cursor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Full `GROUP`-symbol iterations the branchless fast loop ran.
    pub fast_groups: u64,
    /// Symbols decoded by the fast loop (`fast_groups * GROUP`).
    pub fast_symbols: u64,
    /// Symbols decoded by the bounds-checked careful tail.
    pub careful_symbols: u64,
    /// Compressed u16 words consumed by renormalizations in this span.
    pub words_consumed: u64,
}

impl SpanStats {
    /// Folds another span's stats into this one (for per-task or global
    /// accumulation across chained spans).
    pub fn merge(&mut self, other: &SpanStats) {
        self.fast_groups = self.fast_groups.wrapping_add(other.fast_groups);
        self.fast_symbols = self.fast_symbols.wrapping_add(other.fast_symbols);
        self.careful_symbols = self.careful_symbols.wrapping_add(other.careful_symbols);
        self.words_consumed = self.words_consumed.wrapping_add(other.words_consumed);
    }

    /// Total symbols this span decoded.
    pub fn symbols(&self) -> u64 {
        self.fast_symbols.wrapping_add(self.careful_symbols)
    }
}

impl<S: Symbol> Span<'_, S> {
    /// Decodes the span's top `count` positions (descending) and shrinks
    /// the span to the rest, leaving `cursor` and `states` where that rest
    /// starts — the scalar engine behind [`crate::decode_interleaved_into`],
    /// the scalar span kernel of the segment decoder in `recoil-core`, and
    /// the fallback of the SIMD crate's vector kernel at stream and segment
    /// edges. Output, lane states and cursor are bit-identical to
    /// [`decode_span_careful`]; the differential suites enforce it.
    ///
    /// # Errors
    ///
    /// [`RansError::BitstreamUnderflow`] when a renormalization needs a word
    /// the stream does not have (always detected in the careful tail — the
    /// fast loop only runs while the word budget makes underflow
    /// impossible). The stats are lost along with the (partial) output:
    /// underflow already means the whole span is unusable.
    ///
    /// # Panics
    ///
    /// If `count > out.len()`, if the span has no lane states, or if
    /// `cursor` is `Some(o)` with `o >= words.len()` — caller bugs, not data
    /// errors (checked once per call; the unchecked inner loop relies on
    /// them).
    pub fn advance_scalar<P: ModelProvider + ?Sized>(
        &mut self,
        provider: &P,
        count: usize,
    ) -> Result<SpanStats, RansError> {
        let out = self.take_top(count);
        let lo = self.end();
        let (words, states) = (self.words.as_chunks::<2>().0, &mut self.states[..]);
        assert!(!states.is_empty(), "need at least one lane state");
        let ways = states.len();
        let n = provider.quant_bits();
        let mask = (1u32 << n) - 1;

        // Backward cursor as a raw index: offset of the next unread word, -1
        // once exhausted. The assertion (not a debug assertion: the unchecked
        // reads below rely on it) pins `p < words.len()`, and `p` only ever
        // decreases.
        let mut p: isize = match self.cursor {
            Some(o) => {
                assert!(
                    (o as usize) < words.len(),
                    "cursor {o} out of range for {} words",
                    words.len()
                );
                o as isize
            }
            None => -1,
        };

        let entry_p = p;
        let mut fast_groups = 0u64;

        let mut remaining = out.len();
        // Lane owning the highest (first-decoded) position, then maintained by
        // rotation — the one `% ways` of the whole span.
        let mut lane = if remaining == 0 {
            0
        } else {
            ((lo + remaining as u64 - 1) % ways as u64) as usize
        };

        // Fast loop: GROUP symbols per iteration, no underflow Result, no
        // bounds checks, branchless renorm.
        while remaining >= GROUP && p >= GROUP as isize - 1 {
            fast_groups += 1;
            let base = remaining - GROUP;
            let mut pos = lo + remaining as u64;
            // One checked slice per group; the iterator below is exact-length.
            let chunk = &mut out[base..remaining];
            for slot_out in chunk.iter_mut().rev() {
                pos -= 1;
                debug_assert!(lane < ways);
                // SAFETY: `lane` starts `< ways == states.len()` and the
                // rotation below keeps it there.
                let x = unsafe { *states.get_unchecked(lane) };
                debug_assert!(p >= 0 && (p as usize) < words.len());
                // SAFETY: the loop guard established `p >= GROUP - 1` at group
                // entry, each symbol decrements `p` at most once, and the
                // entry assertion pinned `p < words.len()`; so `0 <= p` holds
                // for every one of the GROUP speculative loads here.
                let w: u32 = u16::from_le_bytes(unsafe { *words.get_unchecked(p as usize) }).into();
                let renorm = x < LOWER_BOUND;
                // Both arms are side-effect free: LLVM lowers this to cmov.
                let x = if renorm { (x << RENORM_BITS) | w } else { x };
                p -= renorm as isize;
                debug_assert!(x >= LOWER_BOUND, "state must recover in one step");
                let slot = x & mask;
                let (sym, f, c) = provider.lookup(pos, slot);
                debug_assert!(f > 0, "decoded a zero-frequency slot");
                // SAFETY: same `lane < states.len()` invariant as the read.
                unsafe { *states.get_unchecked_mut(lane) = f * (x >> n) + slot - c };
                *slot_out = S::from_u16(sym);
                lane = if lane == 0 { ways - 1 } else { lane - 1 };
            }
            remaining = base;
        }

        // Careful tail: either fewer than GROUP symbols remain, or the word
        // stream is nearly drained (underflow is now possible and must be
        // reported). `decode_span_careful` re-derives the lane by modulo; the
        // states and cursor hand over exactly.
        let cursor = decode_span_careful(
            provider,
            self.words,
            (p >= 0).then_some(p as u64),
            states,
            lo,
            &mut out[..remaining],
        )?;

        let final_p = cursor.map_or(-1, |o| o as isize);
        self.cursor = cursor;
        Ok(SpanStats {
            fast_groups,
            fast_symbols: (out.len() - remaining) as u64,
            careful_symbols: remaining as u64,
            words_consumed: (entry_p - final_p) as u64,
        })
    }
}

/// The retained careful reference loop: one checked renormalize-then-transform
/// step per symbol with `pos % ways` lane selection — exactly the loop every
/// decoder ran before the fast engine existed. Decodes positions
/// `lo .. lo + out.len()` (descending) of a `states.len()`-way stream,
/// whose wire image is `words`, from the backward word cursor `next_read`
/// (`None` = exhausted) and returns the cursor after them.
///
/// [`Span::advance_scalar`] must be bit-identical to this function (same
/// output, same final `states`, same cursor, same errors); it is public as
/// the reference for the differential tests, not as API.
#[doc(hidden)]
pub fn decode_span_careful<S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    words: &[u8],
    next_read: Option<u64>,
    states: &mut [u32],
    lo: u64,
    out: &mut [S],
) -> Result<Option<u64>, RansError> {
    assert!(!states.is_empty(), "need at least one lane state");
    let ways = states.len() as u64;
    let n = provider.quant_bits();
    let mask = (1u32 << n) - 1;
    let mut reader = BackwardWordReader::at(words, next_read);
    for rel in (0..out.len()).rev() {
        let pos = lo + rel as u64;
        let lane = (pos % ways) as usize;
        let x = renorm_read(states[lane], &mut reader, pos)?;
        let (x, sym) = decode_transform(x, pos, provider, n, mask);
        states[lane] = x;
        out[rel] = S::from_u16(sym);
    }
    Ok(reader.offset())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use crate::span::LaneStates;
    use crate::InterleavedEncoder;
    use recoil_models::{CdfTable, StaticModelProvider};

    /// The engine in the argument shape of [`decode_span_careful`].
    fn decode_span_with_stats<S: Symbol>(
        provider: &StaticModelProvider,
        words: &[u8],
        next_read: Option<u64>,
        states: &mut [u32],
        lo: u64,
        out: &mut [S],
    ) -> Result<(Option<u64>, SpanStats), RansError> {
        let mut span = Span {
            words,
            cursor: next_read,
            states: LaneStates::from(&states[..]),
            lo,
            out,
        };
        let stats = span.advance_scalar(provider, span.out.len())?;
        states.copy_from_slice(&span.states);
        Ok((span.cursor, stats))
    }

    fn decode_span<S: Symbol>(
        provider: &StaticModelProvider,
        words: &[u8],
        next_read: Option<u64>,
        states: &mut [u32],
        lo: u64,
        out: &mut [S],
    ) -> Result<Option<u64>, RansError> {
        decode_span_with_stats(provider, words, next_read, states, lo, out).map(|(c, _)| c)
    }

    fn provider(data: &[u8], n: u32) -> StaticModelProvider {
        StaticModelProvider::new(CdfTable::of_bytes(data, n))
    }

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
            .collect()
    }

    fn encode(data: &[u8], n: u32, ways: u32) -> (crate::EncodedStream, StaticModelProvider) {
        let p = provider(data, n);
        let mut enc = InterleavedEncoder::new(&p, ways);
        enc.encode_all_fast(data, &mut NullSink).unwrap();
        (enc.finish(), p)
    }

    /// Fast engine vs careful reference: identical symbols, final states,
    /// and returned cursor, across lane widths and lengths straddling
    /// every group-boundary shape.
    #[test]
    fn fast_matches_careful_across_ways_and_lengths() {
        for ways in [1u32, 2, 3, 7, 32, 33] {
            for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 1000, 4097, 40_000] {
                let data = sample(len, ways * 31 + len as u32);
                if data.is_empty() {
                    continue;
                }
                let (stream, p) = encode(&data, 10, ways);
                let next = stream.end_cursor();

                let mut fast_states = stream.final_states.clone();
                let mut fast_out = vec![0u8; len];
                let fast_cursor = decode_span(
                    &p,
                    stream.words.as_bytes(),
                    next,
                    &mut fast_states,
                    0,
                    &mut fast_out,
                )
                .unwrap();

                let mut ref_states = stream.final_states.clone();
                let mut ref_out = vec![0u8; len];
                let ref_cursor = decode_span_careful(
                    &p,
                    stream.words.as_bytes(),
                    next,
                    &mut ref_states,
                    0,
                    &mut ref_out,
                )
                .unwrap();

                assert_eq!(fast_out, data, "ways={ways} len={len}");
                assert_eq!(ref_out, data, "ways={ways} len={len}");
                assert_eq!(fast_states, ref_states, "ways={ways} len={len}");
                assert_eq!(fast_cursor, ref_cursor, "ways={ways} len={len}");
            }
        }
    }

    /// A stream's bytes need no alignment: both loops decode a span whose
    /// wire image sits at an odd address exactly as from the stream itself.
    #[test]
    fn fast_and_careful_decode_from_an_odd_offset_view() {
        let data = sample(10_000, 5);
        let (stream, p) = encode(&data, 11, 32);
        let mut shifted = vec![0xA5u8; stream.words.as_bytes().len() + 1];
        shifted[1..].copy_from_slice(stream.words.as_bytes());
        let odd = &shifted[1..];
        assert_eq!(
            odd.as_ptr() as usize % 2,
            1,
            "the view starts at an odd address"
        );
        let next = stream.end_cursor();
        let mut fast_states = stream.final_states.clone();
        let mut fast_out = vec![0u8; data.len()];
        let fast_cursor = decode_span(&p, odd, next, &mut fast_states, 0, &mut fast_out).unwrap();
        let mut ref_states = stream.final_states.clone();
        let mut ref_out = vec![0u8; data.len()];
        let ref_cursor =
            decode_span_careful(&p, odd, next, &mut ref_states, 0, &mut ref_out).unwrap();
        assert_eq!(fast_out, data);
        assert_eq!(ref_out, data);
        assert_eq!((fast_cursor, &fast_states), (ref_cursor, &ref_states));
    }

    /// Highly compressible data exhausts the word budget long before the
    /// symbols run out — the fast loop must hand a long remainder to the
    /// careful tail and still be exact.
    #[test]
    fn skewed_data_with_long_careful_tail() {
        let mut data = vec![0u8; 120_000];
        for (i, b) in data.iter_mut().enumerate() {
            if i % 29 == 0 {
                *b = (i % 5) as u8 + 1;
            }
        }
        let (stream, p) = encode(&data, 12, 32);
        // Few words per symbol on purpose.
        assert!(stream.words.len() * 4 < data.len());
        let next = Some(stream.words.len() as u64 - 1);
        let mut states = stream.final_states.clone();
        let mut out = vec![0u8; data.len()];
        decode_span(&p, stream.words.as_bytes(), next, &mut states, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    /// Chained spans (the segment decoder's usage) equal one full span for
    /// arbitrary cut points, fast vs fast and fast vs careful.
    #[test]
    fn chained_spans_hand_over_cursor_and_states() {
        let data = sample(50_000, 9);
        let (stream, p) = encode(&data, 11, 32);
        for cut in [1usize, 31, 32, 33, 4096, 49_999] {
            let next = Some(stream.words.len() as u64 - 1);
            let mut states = stream.final_states.clone();
            let mut hi = vec![0u8; data.len() - cut];
            let mid = decode_span(
                &p,
                stream.words.as_bytes(),
                next,
                &mut states,
                cut as u64,
                &mut hi,
            )
            .unwrap();
            let mut lo_part = vec![0u8; cut];
            decode_span(
                &p,
                stream.words.as_bytes(),
                mid,
                &mut states,
                0,
                &mut lo_part,
            )
            .unwrap();
            assert_eq!(&hi[..], &data[cut..], "cut={cut}");
            assert_eq!(&lo_part[..], &data[..cut], "cut={cut}");
        }
    }

    /// Truncated streams report underflow (from the careful tail) exactly
    /// like the reference loop — never a silent misdecode past the head.
    #[test]
    fn truncated_streams_underflow_like_the_reference() {
        let data = sample(30_000, 4);
        let (stream, p) = encode(&data, 11, 32);
        let mut truncated = stream.words.clone();
        truncated.truncate(truncated.len() / 2);
        let next = (!truncated.is_empty()).then(|| truncated.len() as u64 - 1);

        let mut fast_states = stream.final_states.clone();
        let mut out = vec![0u8; data.len()];
        let fast = decode_span(
            &p,
            truncated.as_bytes(),
            next,
            &mut fast_states,
            0,
            &mut out,
        );

        let mut ref_states = stream.final_states.clone();
        let mut ref_out = vec![0u8; data.len()];
        let reference = decode_span_careful(
            &p,
            truncated.as_bytes(),
            next,
            &mut ref_states,
            0,
            &mut ref_out,
        );

        match (fast, reference) {
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("expected matching underflow errors, got {a:?} vs {b:?}"),
        }
    }

    /// The stats account for every symbol and every consumed word, and the
    /// stats variant stays bit-identical to the plain one.
    #[test]
    fn span_stats_account_for_symbols_and_words() {
        for (len, ways) in [(40_000usize, 32u32), (100, 4), (31, 32)] {
            let data = sample(len, 77);
            let (stream, p) = encode(&data, 10, ways);
            let next = stream.end_cursor();
            let mut states = stream.final_states.clone();
            let mut out = vec![0u8; len];
            let (cursor, stats) =
                decode_span_with_stats(&p, stream.words.as_bytes(), next, &mut states, 0, &mut out)
                    .unwrap();
            assert_eq!(out, data, "len={len} ways={ways}");
            assert_eq!(stats.symbols(), len as u64, "every symbol is accounted");
            assert_eq!(
                stats.fast_symbols,
                stats.fast_groups * GROUP as u64,
                "fast symbols come in whole groups"
            );
            let entry = next.map_or(0, |o| o + 1);
            let left = cursor.map_or(0, |o| o + 1);
            assert_eq!(stats.words_consumed, entry - left, "len={len} ways={ways}");
            if len >= 2 * GROUP {
                assert!(stats.fast_groups > 0, "long spans must hit the fast loop");
            }
        }
        let mut total = SpanStats::default();
        total.merge(&SpanStats {
            fast_groups: 1,
            fast_symbols: 32,
            careful_symbols: 3,
            words_consumed: 20,
        });
        total.merge(&SpanStats {
            fast_groups: 2,
            fast_symbols: 64,
            careful_symbols: 0,
            words_consumed: 40,
        });
        assert_eq!(total.symbols(), 99);
        assert_eq!(total.words_consumed, 60);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cursor_is_a_caller_bug() {
        let data = sample(100, 1);
        let (stream, p) = encode(&data, 8, 4);
        let mut states = stream.final_states.clone();
        let mut out = vec![0u8; 100];
        let _ = decode_span(
            &p,
            stream.words.as_bytes(),
            Some(stream.words.len() as u64),
            &mut states,
            0,
            &mut out,
        );
    }
}
