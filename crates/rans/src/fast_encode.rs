//! The bulk **encode** engine — the write-side twin of [`crate::fast`].
//!
//! # Why it exists
//!
//! The per-symbol encode step is as cheap as the decode step (threshold
//! compare, one renorm word, state transform — Def. 2.2), but the
//! straightforward loop pays the same overheads the decode side shed in its
//! fast engine: a 64-bit `pos % ways` division to find the owning lane, a
//! branchy renormalization with a per-word `Vec` push, and a sink call per
//! event. Giesen's interleaved entropy coders observation applies
//! symmetrically: because `b >= n`, **each symbol emits at most one
//! renormalization word** (Lemma 3.1's precondition, see [`crate::params`]),
//! so a group of [`GROUP`] symbols has a hard word budget of `GROUP` — the
//! group can run branchless and report itself to the sink once, as one
//! [`RenormGroup`].
//!
//! # Three loops, one result
//!
//! [`encode_span`] is the engine and picks a group loop per call, from what
//! it can observe:
//!
//! * **Vector** (`fast_encode_avx512.rs`): on an x86-64 host that reports
//!   AVX-512F (and POPCNT, which every such CPU has), for 8-bit symbols on
//!   32 lanes under a position-independent
//!   model ([`ModelProvider::static_alphabet`]), a group of 32 symbols is one
//!   symbol per lane and the whole step — statistics by gather, renorm by
//!   compare + compress-store, the divide by a reciprocal multiply — runs
//!   on two `zmm` registers of lane states. The model is tabulated once per
//!   call (256 `stats` calls and as many divisions), so calls shorter than
//!   [`MIN_VECTOR_SYMBOLS`] stay scalar. Symbols before the first position
//!   that is a multiple of 32 and after the last whole group go through the
//!   scalar loops below, which hand the lane states over exactly.
//! * **Scalar groups** ([`encode_span_scalar`]): every other shape — other
//!   lane counts, 16-bit alphabets, adaptive providers, other architectures,
//!   Miri. The inner loop is branchless: the renormalization is a speculative
//!   scratch store plus a cmov-style select (`x >> 16` vs `x`) with the
//!   scratch cursor advanced by `renorm as usize`, the owning lane is a
//!   rotating counter instead of `pos % ways`, and `n`/the shift are hoisted.
//!   This is the **bit-exactness reference** for the vector loop: same
//!   words, same final states, same groups, same error.
//! * **Careful** ([`encode_span_careful`]): the original per-symbol loop,
//!   the tail of both of the above and the reference the scalar groups are
//!   tested against in turn.
//!
//! Unlike decoding, encoding has no underflow hazard — the output stream
//! grows as needed — so the group loops cover every whole group and only the
//! `len % GROUP` remainder is careful. The one failure mode is a symbol with
//! zero quantized frequency (the state transform would divide by zero); the
//! group loops never divide by it (the scalar one substitutes a divisor of
//! 1, the vector one multiplies by an all-zero table entry), flag the group, and
//! report a typed [`RansError::ZeroFrequency`] before any of the group's
//! results is used — identical to the error the careful loop raises at the
//! same symbol.
//!
//! # The reciprocal is exact
//!
//! The vector loop needs `q = x / f` and `x % f` for a 32-bit state `x` and
//! a frequency `1 <= f < 2^16`, sixteen lanes at a time, and there is no
//! vector integer divide. [`reciprocal`] tabulates `r = (2^32 - 1) / f` per
//! symbol; the kernel takes `q' = (x * r) >> 32` per lane and corrects it
//! once (the test `reciprocal_division_is_exact` states the same arithmetic
//! in scalar code and checks it against `/` and `%`):
//!
//! * `r * f <= 2^32 - 1 < (r + 1) * f`, so `e = 2^32 - r * f` satisfies
//!   `1 <= e <= f`.
//! * `x / f - x * r / 2^32 = x * e / (f * 2^32)`, which lies in
//!   `[0, x / 2^32]`, hence in `[0, 1)` for every 32-bit `x`.
//! * Two reals less than 1 apart have floors at most 1 apart, and the
//!   smaller real has the smaller floor: `q' ∈ {q - 1, q}`.
//!
//! So `x - q' * f` is either the remainder or the remainder plus `f`, and
//! one compare against `f` tells which. The argument holds for every `u32`,
//! in particular under the renorm bound `x < f * 2^(32 - n)` the encoder
//! guarantees at that point; the bound is what makes the *next* state
//! `(q << n) + F + x % f` fit 32 bits, as in the scalar loops.
//!
//! # Output reservation
//!
//! The vector loop stores 16 words (32 bytes) at a time, unmasked, and
//! advances by the number that were real. Each block of [`BLOCK_GROUPS`]
//! groups lands in the stream's block word budget (`32 * BLOCK_GROUPS`,
//! which by the at-most-one-word-per-symbol bound also covers the slack of
//! the last store; [`WordStream::land`] grows the stream by it and the
//! words past those written are truncated away) — never `data.len()` words
//! up front, which would be several times the stream. The store still grows
//! by doubling; [`crate::InterleavedEncoder::finish`] shrinks it to fit.
//!
//! # Safety invariant
//!
//! The only `unsafe` here is `get_unchecked` on the lane states, justified
//! by the same invariant as the decode engine and checked by debug
//! assertions: the rotating `lane` starts at `lo % ways` and wraps modulo
//! `states.len()`, so it is always `< states.len()`. The per-group scratch
//! writes need no `unsafe` at all — the scratch cursor is masked with
//! `GROUP - 1` (a no-op for in-budget cursors, see the comment at the store
//! site), which makes the indices provably in bounds. The vector loop's raw
//! loads and stores live in its own file.

use crate::params::{self, RENORM_BITS};
use crate::sink::{RenormGroup, RenormSink};
use crate::RansError;
use recoil_bitio::WordStream;
use recoil_models::{ModelProvider, Symbol};

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[path = "fast_encode_avx512.rs"]
mod avx512;

pub use crate::fast::GROUP;

/// Groups the vector loop encodes per output reservation and per round of
/// reports to the sink (1024 symbols, at most 2 KiB of words).
pub const BLOCK_GROUPS: usize = 32;

/// Calls shorter than this stay on the scalar loops: tabulating the model
/// (256 `stats` calls and divisions, ≈ 0.4 µs) costs what the vector loop
/// saves on about 160 symbols.
pub const MIN_VECTOR_SYMBOLS: usize = 256;

/// `(2^32 - 1) / f`, the per-symbol multiplier the vector loop divides by
/// (see the module docs).
///
/// # Panics
///
/// If `f` is zero.
#[inline]
pub fn reciprocal(f: u32) -> u32 {
    u32::MAX / f
}

/// The input of a call the vector loop takes: the symbols as bytes and the
/// model's alphabet. `None` sends the call to [`encode_span_scalar`].
#[allow(unused_variables)]
fn vector_input<'d, S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    data: &'d [S],
    ways: usize,
) -> Option<(&'d [u8], usize)> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if ways == GROUP && data.len() >= MIN_VECTOR_SYMBOLS && avx512::available() {
        return S::as_bytes(data).zip(provider.static_alphabet());
    }
    None
}

/// True when [`encode_span`] would encode this call's whole groups with the
/// vector loop — for tests and benches that must say which path they ran.
#[doc(hidden)]
pub fn takes_vector_path<S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    data: &[S],
    ways: usize,
) -> bool {
    vector_input(provider, data, ways).is_some()
}

/// Encodes `data` (positions `lo .. lo + data.len()`, ascending) onto the
/// `states.len()`-way interleaved lane states, appending renormalization
/// words to `out` and reporting them to `sink` group by group. Returns the
/// number of words written.
///
/// `word_base` is the global offset of the next word `out` receives — a
/// group's offset is `word_base` plus the words this span wrote before it,
/// so chained spans report globally consistent offsets. Groups are delivered
/// in write order, as [`RenormSink::on_group`] requires.
///
/// Output words, final lane states, and the groups' events are bit-identical
/// to [`encode_span_careful`] whichever loop runs; the differential suites
/// enforce it.
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
    out: &mut WordStream,
    word_base: u64,
    sink: &mut impl RenormSink,
) -> Result<u64, RansError> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if let Some((bytes, alphabet)) = vector_input(provider, data, states.len()) {
        return encode_span_vector(provider, bytes, alphabet, lo, states, out, word_base, sink);
    }
    encode_span_scalar(provider, data, lo, states, out, word_base, sink)
}

/// [`encode_span`] with the whole groups on the vector loop: a careful head
/// up to the first position that is a multiple of 32 (where lane `k` owns
/// the group's `k`-th symbol), the groups, a careful tail.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(clippy::too_many_arguments)]
fn encode_span_vector<P: ModelProvider + ?Sized>(
    provider: &P,
    data: &[u8],
    alphabet: usize,
    lo: u64,
    states: &mut [u32],
    out: &mut WordStream,
    word_base: u64,
    sink: &mut impl RenormSink,
) -> Result<u64, RansError> {
    let n = provider.quant_bits();
    let lanes: &mut [u32; GROUP] = states.try_into().expect("vector_input checked 32 lanes");
    let (head, rest) = data.split_at(((lo as usize).wrapping_neg() % GROUP).min(data.len()));
    let (groups, tail) = rest.as_chunks::<GROUP>();

    let mut written = encode_span_careful(provider, head, lo, lanes, out, word_base, sink)?;
    let first = lo + head.len() as u64;
    let table = avx512::SymbolTable::new(n, alphabet, |sym| provider.stats(0, sym));
    written += table
        .encode_groups(groups, first, lanes, out, word_base + written, sink)
        .map_err(|g| zero_frequency_in(provider, &groups[g], first + (g * GROUP) as u64))?;
    let pos = first + (groups.len() * GROUP) as u64;
    written += encode_span_careful(provider, tail, pos, lanes, out, word_base + written, sink)?;
    Ok(written)
}

/// The error for a group the branchless loops flagged: the first of its
/// symbols the model gives no mass, so it matches the careful loop's.
#[cold]
fn zero_frequency_in<S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    group: &[S],
    first_pos: u64,
) -> RansError {
    for (pos, &s) in (first_pos..).zip(group) {
        if provider.stats(pos, s.to_u16()).0 == 0 {
            return RansError::ZeroFrequency {
                pos,
                sym: s.to_u16(),
            };
        }
    }
    unreachable!("a zero frequency was observed in this group");
}

/// [`encode_span`] on the scalar group loop whatever the host and the
/// input's shape: the path of everything the vector loop does not take, and
/// the reference it is tested (and benchmarked) against.
#[doc(hidden)]
pub fn encode_span_scalar<S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    data: &[S],
    lo: u64,
    states: &mut [u32],
    out: &mut WordStream,
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

    let (groups, tail) = data.as_chunks::<GROUP>();
    for group in groups {
        // Per-group scratch — the renormalizing lanes' states, word in the
        // low half: the word budget (at most one word per symbol, Lemma
        // 3.1) caps it at GROUP entries.
        let mut renormed = [0u32; GROUP];
        let mut mask = 0u32;
        let mut wcur = 0usize;
        let mut any_zero = false;

        for (k, &s) in group.iter().enumerate() {
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
            // Speculative scratch store; the cursor advances only on a
            // renorm, so a non-renorm symbol's store is overwritten. The
            // `& (GROUP - 1)` mask is a no-op (`wcur < GROUP` at every
            // store: at most one increment per symbol of the GROUP-symbol
            // chunk, and stores precede the increment) that makes the index
            // provably in bounds — no bounds check, no `unsafe`.
            renormed[wcur & (GROUP - 1)] = x;
            mask |= (renorm as u32) << k;
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
            return Err(zero_frequency_in(provider, group, pos - GROUP as u64));
        }

        for &x in &renormed[..wcur] {
            out.push(x as u16);
        }
        // For `NullSink` this call (and the scratch feeding it) compiles
        // away.
        sink.on_group(RenormGroup {
            first_pos: pos - GROUP as u64,
            ways: ways as u32,
            mask,
            offset: word_base + written,
            renormed: &renormed,
        });
        written += wcur as u64;
    }

    // Careful tail: the sub-group remainder re-derives the lane by modulo;
    // the states and word count hand over exactly.
    written += encode_span_careful(provider, tail, pos, states, out, word_base + written, sink)?;
    Ok(written)
}

/// The retained careful reference loop: one bounds-checked, branchy encode
/// step per symbol with `pos % ways` lane selection — Eq. 1–4 per lane,
/// span-shaped ([`crate::SingleEncoder`] is the independent transcription
/// it agrees with at one lane). Each renormalization is reported as a group
/// of its own.
///
/// [`encode_span`] must be bit-identical to this function (same words, same
/// final `states`, same events, same errors); it is kept public as the tail
/// path and as the reference for differential tests.
#[doc(hidden)]
pub fn encode_span_careful<S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    data: &[S],
    lo: u64,
    states: &mut [u32],
    out: &mut WordStream,
    word_base: u64,
    sink: &mut impl RenormSink,
) -> Result<u64, RansError> {
    assert!(!states.is_empty(), "need at least one lane state");
    let ways = states.len() as u64;
    let n = provider.quant_bits();
    let mut written = 0u64;
    let mut renormed = [0u32; GROUP];
    for (pos, &s) in (lo..).zip(data) {
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
            renormed[0] = x;
            x >>= RENORM_BITS;
            debug_assert!(x < params::LOWER_BOUND, "one-step renorm violated");
            sink.on_group(RenormGroup {
                first_pos: pos,
                ways: ways as u32,
                mask: 1,
                offset: word_base + written,
                renormed: &renormed,
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
                let mut ref_words = WordStream::new();
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
        let mut whole_words = WordStream::new();
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
            let mut words = WordStream::new();
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
            let mut words = WordStream::new();
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
            let mut words = WordStream::new();
            assert_eq!(
                encode_span(&p, &poisoned, 0, &mut states, &mut words, 0, &mut NullSink),
                Err(expect.clone()),
                "fast, poison at {poison_at}"
            );
            let mut states = vec![INITIAL_STATE; 32];
            let mut words = WordStream::new();
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
            let mut words = WordStream::new();
            encode_span(&p, &data, 0, &mut states, &mut words, 0, &mut NullSink).unwrap();

            let mut out = vec![0u8; data.len()];
            let mut span = crate::Span {
                cursor: (!words.is_empty()).then(|| words.len() as u64 - 1),
                words: words.as_bytes(),
                states: crate::LaneStates::from(&states[..]),
                lo: 0,
                out: &mut out,
            };
            span.advance_scalar(&p, data.len()).unwrap();
            assert_eq!(out, data, "ways={ways}");
        }
    }

    /// What the vector loop computes per lane: `(x / f, x % f)` by one
    /// multiply with `r = reciprocal(f)` and one fix-up.
    fn div_rem_by_reciprocal(x: u32, f: u32, r: u32) -> (u32, u32) {
        let q = ((u64::from(x) * u64::from(r)) >> 32) as u32;
        let rem = x - q * f;
        if rem >= f {
            (q + 1, rem - f)
        } else {
            (q, rem)
        }
    }

    /// The reciprocal divide is exact for every frequency a model can hold,
    /// at the edges of every quotient step and at random states below the
    /// renorm bound (and above it: the argument needs no bound).
    #[test]
    fn reciprocal_division_is_exact() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in [8u32, 11, 12, 16] {
            // (Every frequency; a sample of them under Miri's interpreter.)
            for f in (1..1u32 << n).step_by(if cfg!(miri) { 61 } else { 1 }) {
                let r = reciprocal(f);
                let bound = params::renorm_threshold(f, n);
                let check = |x: u64| {
                    let x = x.min(u64::from(u32::MAX)) as u32;
                    assert_eq!(
                        div_rem_by_reciprocal(x, f, r),
                        (x / f, x % f),
                        "n={n} f={f} x={x}"
                    );
                };
                for x in [0, 1, u64::from(f) - 1, u64::from(f), bound - 1, bound] {
                    check(x);
                }
                // Around multiples of f, small and up to the bound.
                for k in [1, 2, 3, 255, 65_535, (bound / u64::from(f)) - 1] {
                    let kf = k * u64::from(f);
                    check(kf - 1);
                    check(kf);
                    check(kf + 1);
                }
                for _ in 0..4 {
                    check(random() % bound);
                    check(random() >> 32);
                }
            }
        }
    }

    /// Checks each group as it is reported and keeps the words it names.
    #[derive(Default)]
    struct GroupLog {
        events: VecSink,
        words: WordStream,
        next_offset: Option<u64>,
    }

    impl RenormSink for GroupLog {
        fn on_group(&mut self, group: RenormGroup<'_>) {
            if let Some(expected) = self.next_offset {
                assert_eq!(group.offset, expected, "offsets run on");
            }
            self.next_offset = Some(group.offset + group.count() as u64);
            for w in group.words() {
                self.words.push(w);
            }
            self.events.on_group(group);
        }
    }

    /// One span through `encode`, from exact-size allocations so that a load
    /// or store past either end is a heap overflow under ASan.
    #[allow(clippy::type_complexity)]
    fn run_span(
        encode: impl Fn(
            &StaticModelProvider,
            &[u8],
            u64,
            &mut [u32],
            &mut WordStream,
            u64,
            &mut GroupLog,
        ) -> Result<u64, RansError>,
        p: &StaticModelProvider,
        data: &[u8],
        lo: u64,
    ) -> Result<(WordStream, Vec<u32>, Vec<crate::RenormEvent>), RansError> {
        let data: Box<[u8]> = data.into();
        let mut states: Box<[u32]> = vec![INITIAL_STATE; 32].into();
        // Distinct states, as mid-stream.
        for (k, x) in states.iter_mut().enumerate() {
            *x += (k as u32).wrapping_mul(2_654_435_761) >> 17;
        }
        let mut words = WordStream::new();
        let mut log = GroupLog::default();
        let written = encode(p, &data, lo, &mut states, &mut words, 7, &mut log)?;
        assert_eq!(written as usize, words.len());
        assert_eq!(log.words, words, "the groups' words are the output");
        Ok((words, states.into(), log.events.events))
    }

    /// The vector loop against the careful loop: same words, final states
    /// and events at every quantization level the packed models use, for
    /// lengths straddling every group and block boundary and spans starting
    /// at every `lo % 32`.
    #[test]
    fn vector_matches_careful_across_levels_lengths_and_alignments() {
        let block = BLOCK_GROUPS * GROUP;
        let mut lengths = vec![MIN_VECTOR_SYMBOLS, 3 * block + 17];
        for edge in [MIN_VECTOR_SYMBOLS + GROUP, block, 2 * block] {
            lengths.extend([edge - 1, edge, edge + 1, edge + GROUP - 1, edge + GROUP]);
        }
        let corpus = sample(4 * block, 77);
        for n in [8u32, 11, 12] {
            let p = provider(&corpus, n);
            for &len in &lengths {
                for lo in [0u64, 32 * 1000].into_iter().chain(1..32) {
                    if lo % 32 != 0 && len > MIN_VECTOR_SYMBOLS + 2 * GROUP {
                        continue; // every alignment, at the short lengths
                    }
                    let data = &corpus[..len];
                    assert_eq!(
                        run_span(encode_span, &p, data, lo).unwrap(),
                        run_span(encode_span_careful, &p, data, lo).unwrap(),
                        "n={n} len={len} lo={lo}"
                    );
                }
            }
        }
    }

    /// A span cut in two at every `lo % 32`, both halves long enough for
    /// the vector loop, equals the uncut span from the scalar group loop.
    #[test]
    fn vector_spans_chain_at_every_alignment() {
        let data = sample(6_000, 13);
        let p = provider(&data, 11);
        let mut whole_states = vec![INITIAL_STATE; 32];
        let mut whole_words = WordStream::new();
        let mut whole_sink = VecSink::new();
        encode_span_scalar(
            &p,
            &data,
            0,
            &mut whole_states,
            &mut whole_words,
            0,
            &mut whole_sink,
        )
        .unwrap();
        for cut in 2048..=2048 + GROUP {
            let mut states = vec![INITIAL_STATE; 32];
            let mut words = WordStream::new();
            let mut sink = VecSink::new();
            let (a, b) = data.split_at(cut);
            let first = encode_span(&p, a, 0, &mut states, &mut words, 0, &mut sink).unwrap();
            encode_span(&p, b, cut as u64, &mut states, &mut words, first, &mut sink).unwrap();
            assert_eq!(words, whole_words, "cut={cut}");
            assert_eq!(states, whole_states, "cut={cut}");
            assert_eq!(sink.events, whole_sink.events, "cut={cut}");
        }
    }

    /// A symbol without mass is the careful loop's error — same position,
    /// same symbol — wherever the vector path meets it: its careful head,
    /// either half of a group, the last group of a block, its careful tail.
    #[test]
    fn vector_zero_frequency_matches_careful() {
        let clean: Vec<u8> = sample(2 * BLOCK_GROUPS * GROUP + 50, 5)
            .iter()
            .map(|&b| b % 100)
            .collect();
        let p = provider(&clean, 11);
        let lo = 7u64; // head of 25 symbols, then groups
        let head = 32 - lo as usize;
        let last_of_block = head + (BLOCK_GROUPS - 1) * GROUP;
        for at in [
            3,
            head + 5,
            head + 16 + 5,
            head + 9 * GROUP + 31,
            last_of_block + 2,
            last_of_block + GROUP,
            clean.len() - 2,
        ] {
            let mut poisoned = clean.clone();
            poisoned[at] = 200;
            // A second one later must not be the one reported.
            if let Some(later) = poisoned.get_mut(at + 40) {
                *later = 201;
            }
            let careful = run_span(encode_span_careful, &p, &poisoned, lo).unwrap_err();
            assert_eq!(
                careful,
                RansError::ZeroFrequency {
                    pos: lo + at as u64,
                    sym: 200
                }
            );
            assert_eq!(
                run_span(encode_span, &p, &poisoned, lo).unwrap_err(),
                careful,
                "poison at {at}"
            );
        }
    }

    /// Says which group loop `encode_span` runs here, and that only the
    /// shapes the vector loop is written for are sent to it.
    #[test]
    fn the_vector_path_takes_exactly_its_shapes() {
        let data = sample(4096, 1);
        let p = provider(&data, 11);
        let host = cfg!(all(target_arch = "x86_64", not(miri)))
            && std::arch::is_x86_feature_detected!("avx512f");
        println!(
            "encode_span group loop on this host: {}",
            if host { "avx512" } else { "scalar" }
        );
        assert_eq!(takes_vector_path(&p, &data[..], 32), host);
        assert_eq!(takes_vector_path(&p, &data[..MIN_VECTOR_SYMBOLS], 32), host);
        // Too short to pay for the table, other lane counts, wide symbols,
        // models that look at the position.
        assert!(!takes_vector_path(&p, &data[..MIN_VECTOR_SYMBOLS - 1], 32));
        assert!(!takes_vector_path(&p, &data[..], 16));
        assert!(!takes_vector_path(&p, &data[..], 33));
        let wide: Vec<u16> = data.iter().map(|&b| b.into()).collect();
        assert!(!takes_vector_path(&p, &wide[..], 32));
        struct Adaptive<'a>(&'a StaticModelProvider);
        impl ModelProvider for Adaptive<'_> {
            fn quant_bits(&self) -> u32 {
                self.0.quant_bits()
            }
            fn stats(&self, pos: u64, sym: u16) -> (u32, u32) {
                self.0.stats(pos, sym)
            }
            fn lookup(&self, pos: u64, slot: u32) -> (u16, u32, u32) {
                self.0.lookup(pos, slot)
            }
        }
        assert!(!takes_vector_path(&Adaptive(&p), &data[..], 32));
    }

    /// A model over fewer than 256 symbols tabulates only those; a byte
    /// beyond them is what it is to the scalar loops.
    #[test]
    fn vector_path_respects_a_small_alphabet() {
        let data: Vec<u8> = sample(5_000, 3).iter().map(|&b| b % 7).collect();
        let p = StaticModelProvider::new(CdfTable::from_freqs(
            vec![300, 300, 300, 300, 300, 300, 248],
            11,
        ));
        assert_eq!(
            run_span(encode_span, &p, &data, 0).unwrap(),
            run_span(encode_span_careful, &p, &data, 0).unwrap()
        );
    }

    /// The words' capacity follows the words, block by block: no
    /// `data.len()`-word reservation up front.
    #[test]
    fn output_grows_by_blocks_not_by_input_length() {
        // ~0.1 bits a symbol: far fewer words than symbols.
        let mut data = vec![0u8; 64 * BLOCK_GROUPS * GROUP];
        for i in (0..data.len()).step_by(97) {
            data[i] = 1;
        }
        let p = provider(&data, 11);
        let mut states = vec![INITIAL_STATE; 32];
        let mut words = WordStream::new();
        encode_span(&p, &data, 0, &mut states, &mut words, 0, &mut NullSink).unwrap();
        assert!(words.len() < data.len() / 64);
        assert!(
            words.capacity() <= 2 * (words.len() + BLOCK_GROUPS * GROUP),
            "{} words in a capacity of {}",
            words.len(),
            words.capacity()
        );
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();
        assert_eq!(stream.words, words);
        assert!(stream.words.capacity() <= stream.words.len() + BLOCK_GROUPS * GROUP);
    }
}
