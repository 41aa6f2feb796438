//! The fast-loop / careful-tail **encode** engine — the write-side twin of
//! [`crate::fast`].
//!
//! # Why it exists
//!
//! The per-symbol encode step is as cheap as the decode step (threshold
//! compare, one renorm word, state transform — Def. 2.2), but the
//! straightforward loop pays the same overheads the decode side shed in its
//! fast engine: a 64-bit `pos % ways` division to find the owning lane, a
//! branchy renormalization with a per-word `Vec` push, and a virtual-feeling
//! per-event sink call. Giesen's interleaved entropy coders observation
//! applies symmetrically: because `b >= n`, **each symbol emits at most one
//! renormalization word** (Lemma 3.1's precondition, see [`crate::params`]),
//! so a group of [`GROUP`] symbols has a hard word budget of `GROUP` — the
//! group can run branchless into fixed-size scratch and flush once.
//!
//! # Structure
//!
//! [`encode_span`] is the engine: the outer loop takes whole `GROUP`-symbol
//! chunks; the inner loop is branchless — the renormalization is a
//! speculative scratch store plus a cmov-style select (`x >> 16` vs `x`)
//! with the scratch cursor advanced by `renorm as usize`, the owning lane is
//! a rotating counter instead of `pos % ways`, and `n`/the shift are
//! hoisted. Words and renorm events accumulate in per-group scratch and are
//! flushed in one `extend_from_slice` plus one (usually empty, for
//! [`NullSink`]) event drain per group. The sub-group remainder goes through
//! [`encode_span_careful`] — the original per-symbol loop, which stays both
//! the **careful tail** and the **bit-exactness reference** the fast loop is
//! tested against.
//!
//! Unlike decoding, encoding has no underflow hazard — the output stream
//! grows as needed — so the fast loop covers every whole group and only the
//! `len % GROUP` remainder is careful. The one failure mode is a symbol with
//! zero quantized frequency (the state transform would divide by zero); the
//! fast loop substitutes a divisor of 1, accumulates an `any_zero` flag, and
//! reports a typed [`RansError::ZeroFrequency`] once per group before any
//! result is used — identical to the error the careful loop raises at the
//! same symbol.
//!
//! # Safety invariant
//!
//! The only `unsafe` here is `get_unchecked` on the lane states, justified
//! by the same invariant as the decode engine and checked by debug
//! assertions: the rotating `lane` starts at `lo % ways` and wraps modulo
//! `states.len()`, so it is always `< states.len()`. The per-group scratch
//! writes need no `unsafe` at all — the scratch cursor is masked with
//! `GROUP - 1` (a no-op for in-budget cursors, see the comment at the store
//! site), which makes the indices provably in bounds.

use crate::params::{self, RENORM_BITS};
use crate::sink::{RenormEvent, RenormSink, NO_SYMBOL};
use crate::RansError;
use recoil_models::{ModelProvider, Symbol};

pub use crate::fast::GROUP;

/// Encodes `data` (positions `lo .. lo + data.len()`, ascending) onto the
/// `states.len()`-way interleaved lane states, appending renormalization
/// words to `out` and reporting one [`RenormEvent`] per word to `sink`.
/// Returns the number of words written.
///
/// `word_base` is the global offset of the next word `out` receives — event
/// offsets are `word_base + k` for the `k`-th word of this span, so chained
/// spans produce globally consistent event streams. Events are delivered in write order, as
/// [`RenormSink::on_renorm`] requires, batched once per group.
///
/// Output words, final lane states, and the event sequence are bit-identical
/// to [`encode_span_careful`]; the differential suites enforce it.
///
/// # Errors
///
/// [`RansError::ZeroFrequency`] at the first symbol the model gives no
/// probability mass. On error the lane states and `out` tail are
/// unspecified — the span is unusable, exactly like a decode-side underflow.
///
/// # Panics
///
/// If `states` is empty — a caller bug, not a data error.
pub fn encode_span<S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    data: &[S],
    lo: u64,
    states: &mut [u32],
    out: &mut Vec<u16>,
    word_base: u64,
    sink: &mut impl RenormSink,
) -> Result<u64, RansError> {
    assert!(!states.is_empty(), "need at least one lane state");
    let ways = states.len();
    let n = provider.quant_bits();
    let shift = 32 - n;

    // Lane owning the first position, then maintained by rotation — the one
    // `% ways` of the whole span.
    let mut lane = (lo % ways as u64) as usize;
    let mut pos = lo;
    let mut written = 0u64;

    let mut groups = data.chunks_exact(GROUP);
    for chunk in &mut groups {
        // Per-group scratch: the word budget (at most one word per symbol,
        // Lemma 3.1) caps all three at GROUP entries.
        let mut words_buf = [0u16; GROUP];
        let mut ev_pos = [0u64; GROUP];
        let mut ev_state = [0u16; GROUP];
        let mut wcur = 0usize;
        let mut any_zero = false;

        for &s in chunk {
            debug_assert!(lane < ways);
            // SAFETY: `lane` starts `< ways == states.len()` and the
            // rotation below keeps it there.
            let x = unsafe { *states.get_unchecked(lane) };
            let (f, c) = provider.stats(pos, s.to_u16());
            // Zero frequency means the divide below is undefined; substitute
            // a divisor of 1 and flag the group (cold check after the loop).
            any_zero |= f == 0;
            let fs = f | (f == 0) as u32;
            let renorm = (x as u64) >= (f as u64) << shift;
            // Speculative scratch stores; the cursor advances only on a
            // renorm, so a non-renorm symbol's stores are overwritten. The
            // `& (GROUP - 1)` mask is a no-op (`wcur < GROUP` at every
            // store: at most one increment per symbol of the GROUP-symbol
            // chunk, and stores precede the increment) that makes the index
            // provably in bounds — no bounds check, no `unsafe`.
            words_buf[wcur & (GROUP - 1)] = x as u16;
            ev_pos[wcur & (GROUP - 1)] = pos;
            ev_state[wcur & (GROUP - 1)] = (x >> RENORM_BITS) as u16;
            // Both arms are side-effect free: LLVM lowers this to cmov.
            let xr = if renorm { x >> RENORM_BITS } else { x };
            wcur += renorm as usize;
            debug_assert!(
                !renorm || ((xr as u64) < (fs as u64) << shift),
                "one-step renorm violated"
            );
            // SAFETY: same `lane < states.len()` invariant as the read.
            unsafe { *states.get_unchecked_mut(lane) = ((xr / fs) << n) + c + (xr % fs) };
            lane += 1;
            if lane == ways {
                lane = 0;
            }
            pos += 1;
        }

        if any_zero {
            // Cold path: rescan the group for the first offender so the
            // error matches the careful loop's symbol exactly.
            let gbase = pos - GROUP as u64;
            for (k, &s) in chunk.iter().enumerate() {
                if provider.stats(gbase + k as u64, s.to_u16()).0 == 0 {
                    return Err(RansError::ZeroFrequency {
                        pos: gbase + k as u64,
                        sym: s.to_u16(),
                    });
                }
            }
            unreachable!("a zero frequency was observed in this group");
        }

        out.extend_from_slice(&words_buf[..wcur]);
        // Event drain, in write order. For `NullSink` this loop (and the
        // event scratch feeding it) compiles away.
        for k in 0..wcur {
            let p = ev_pos[k];
            sink.on_renorm(RenormEvent {
                lane: (p % ways as u64) as u32,
                pos: p.checked_sub(ways as u64).unwrap_or(NO_SYMBOL),
                state: ev_state[k],
                offset: word_base + written + k as u64,
            });
        }
        written += wcur as u64;
    }

    // Careful tail: the sub-group remainder re-derives the lane by modulo;
    // the states and word count hand over exactly.
    written += encode_span_careful(
        provider,
        groups.remainder(),
        pos,
        states,
        out,
        word_base + written,
        sink,
    )?;
    Ok(written)
}

/// The retained careful reference loop: one bounds-checked, branchy encode
/// step per symbol with `pos % ways` lane selection — Eq. 1–4 per lane,
/// span-shaped ([`crate::SingleEncoder`] is the independent transcription
/// it agrees with at one lane).
///
/// [`encode_span`] must be bit-identical to this function (same words, same
/// final `states`, same events, same errors); it is kept public as the tail
/// path and as the reference for differential tests.
pub fn encode_span_careful<S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    data: &[S],
    lo: u64,
    states: &mut [u32],
    out: &mut Vec<u16>,
    word_base: u64,
    sink: &mut impl RenormSink,
) -> Result<u64, RansError> {
    assert!(!states.is_empty(), "need at least one lane state");
    let ways = states.len() as u64;
    let n = provider.quant_bits();
    let mut written = 0u64;
    for (k, &s) in data.iter().enumerate() {
        let pos = lo + k as u64;
        let lane = (pos % ways) as usize;
        let (f, c) = provider.stats(pos, s.to_u16());
        if f == 0 {
            return Err(RansError::ZeroFrequency {
                pos,
                sym: s.to_u16(),
            });
        }
        let mut x = states[lane];
        if (x as u64) >= params::renorm_threshold(f, n) {
            out.push(x as u16);
            x >>= RENORM_BITS;
            debug_assert!(x < params::LOWER_BOUND, "one-step renorm violated");
            sink.on_renorm(RenormEvent {
                lane: lane as u32,
                pos: pos.checked_sub(ways).unwrap_or(NO_SYMBOL),
                state: x as u16,
                offset: word_base + written,
            });
            written += 1;
        }
        states[lane] = ((x / f) << n) + c + (x % f);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::INITIAL_STATE;
    use crate::sink::{NullSink, VecSink};
    use crate::InterleavedEncoder;
    use recoil_models::{CdfTable, StaticModelProvider};

    fn provider(data: &[u8], n: u32) -> StaticModelProvider {
        StaticModelProvider::new(CdfTable::of_bytes(data, n))
    }

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
            .collect()
    }

    /// The engine, through `InterleavedEncoder`, vs the careful reference:
    /// identical words, final states, and events, across lane widths and
    /// lengths straddling every group-boundary shape.
    #[test]
    fn fast_matches_interleaved_encoder_across_ways_and_lengths() {
        for ways in [1u32, 2, 3, 7, 32, 33] {
            for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 1000, 4097, 40_000] {
                let data = sample(len, ways * 31 + len as u32);
                let p = provider(if data.is_empty() { b"x" } else { &data }, 10);

                let mut fast = InterleavedEncoder::new(&p, ways);
                let mut fast_sink = VecSink::new();
                fast.encode_all_fast(&data, &mut fast_sink).unwrap();
                let fast = fast.finish();

                let mut ref_states = vec![INITIAL_STATE; ways as usize];
                let mut ref_words = Vec::new();
                let mut ref_sink = VecSink::new();
                let written = encode_span_careful(
                    &p,
                    &data,
                    0,
                    &mut ref_states,
                    &mut ref_words,
                    0,
                    &mut ref_sink,
                )
                .unwrap();
                assert_eq!(written as usize, ref_words.len());

                assert_eq!(fast.words, ref_words, "ways={ways} len={len}");
                assert_eq!(fast.final_states, ref_states, "ways={ways} len={len}");
                assert_eq!(fast_sink.events, ref_sink.events, "ways={ways} len={len}");
            }
        }
    }

    /// Chained spans (`InterleavedEncoder::encode_all_fast`'s usage) equal one full
    /// span for arbitrary cut points: words concatenate, events continue
    /// with consistent offsets, states hand over.
    #[test]
    fn chained_spans_concatenate_exactly() {
        let data = sample(50_000, 9);
        let p = provider(&data, 11);
        let mut whole_states = vec![INITIAL_STATE; 32];
        let mut whole_words = Vec::new();
        let mut whole_sink = VecSink::new();
        encode_span(
            &p,
            &data,
            0,
            &mut whole_states,
            &mut whole_words,
            0,
            &mut whole_sink,
        )
        .unwrap();

        for cut in [1usize, 31, 32, 33, 4096, 49_999] {
            let mut states = vec![INITIAL_STATE; 32];
            let mut words = Vec::new();
            let mut sink = VecSink::new();
            let first =
                encode_span(&p, &data[..cut], 0, &mut states, &mut words, 0, &mut sink).unwrap();
            encode_span(
                &p,
                &data[cut..],
                cut as u64,
                &mut states,
                &mut words,
                first,
                &mut sink,
            )
            .unwrap();
            assert_eq!(words, whole_words, "cut={cut}");
            assert_eq!(states, whole_states, "cut={cut}");
            assert_eq!(sink.events, whole_sink.events, "cut={cut}");
        }
    }

    /// A non-zero `word_base` shifts every event offset and nothing else.
    #[test]
    fn word_base_offsets_events_only() {
        let data = sample(5_000, 3);
        let p = provider(&data, 11);
        let run = |base: u64| {
            let mut states = vec![INITIAL_STATE; 32];
            let mut words = Vec::new();
            let mut sink = VecSink::new();
            encode_span(&p, &data, 0, &mut states, &mut words, base, &mut sink).unwrap();
            (words, states, sink.events)
        };
        let (w0, s0, e0) = run(0);
        let (w9, s9, e9) = run(900);
        assert_eq!(w0, w9);
        assert_eq!(s0, s9);
        assert_eq!(e0.len(), e9.len());
        for (a, b) in e0.iter().zip(&e9) {
            assert_eq!(a.offset + 900, b.offset);
            assert_eq!((a.lane, a.pos, a.state), (b.lane, b.pos, b.state));
        }
    }

    /// Zero-frequency symbols are a typed error at the same position from
    /// the fast loop and the careful loop — in both the branchless group and
    /// the careful tail.
    #[test]
    fn zero_frequency_is_typed_and_position_exact() {
        // Model built without byte 200 anywhere.
        let data = sample(10_000, 5)
            .iter()
            .map(|&b| b % 100)
            .collect::<Vec<_>>();
        let p = provider(&data, 11);
        for poison_at in [7usize, 40, 9_990] {
            let mut poisoned = data.clone();
            poisoned[poison_at] = 200;
            let expect = RansError::ZeroFrequency {
                pos: poison_at as u64,
                sym: 200,
            };
            let mut states = vec![INITIAL_STATE; 32];
            let mut words = Vec::new();
            assert_eq!(
                encode_span(&p, &poisoned, 0, &mut states, &mut words, 0, &mut NullSink),
                Err(expect.clone()),
                "fast, poison at {poison_at}"
            );
            let mut states = vec![INITIAL_STATE; 32];
            let mut words = Vec::new();
            assert_eq!(
                encode_span_careful(&p, &poisoned, 0, &mut states, &mut words, 0, &mut NullSink),
                Err(expect),
                "careful, poison at {poison_at}"
            );
        }
    }

    /// Encode with the fast engine, decode with the fast decode engine:
    /// the two branchless paths round-trip through each other.
    #[test]
    fn fast_encode_round_trips_through_fast_decode() {
        for ways in [1usize, 32] {
            let data = sample(30_000, 21);
            let p = provider(&data, 11);
            let mut states = vec![INITIAL_STATE; ways];
            let mut words = Vec::new();
            encode_span(&p, &data, 0, &mut states, &mut words, 0, &mut NullSink).unwrap();

            let next = (!words.is_empty()).then(|| words.len() as u64 - 1);
            let mut out = vec![0u8; data.len()];
            crate::fast::decode_span(&p, &words, next, &mut states, 0, &mut out).unwrap();
            assert_eq!(out, data, "ways={ways}");
        }
    }
}
