//! The span kernels against the careful reference, batch by batch.
//!
//! For every kernel this host can run and every batch size `1..=2K + 1`
//! (`K` the kernel's interleave depth), a batch of spans decoded by
//! [`decode_spans`] must leave, span by span, exactly what
//! `decode_span_careful` leaves: output, final lane states and cursor — and
//! stats that account for every symbol and word. The spans are of unequal
//! lengths, some shorter than a group and some starting inside the upper
//! guard region, so the kernel's descent runs every rung: `K` spans
//! interleaved, then the spans left two at a time, then one. Every batch
//! runs twice: over the words as allocated, and over a copy at an odd
//! address, since a stream's bytes promise no alignment.

use recoil_models::{CdfTable, DecodeTables, StaticModelProvider, Symbol};
use recoil_rans::fast::decode_span_careful;
use recoil_rans::{
    EncodedStream, InterleavedEncoder, LaneStates, NullSink, RansError, Span, SpanStats,
};
use recoil_simd::{decode_spans, decode_spans_at_depth, Kernel};

/// A span by value: where it starts and what it covers.
#[derive(Clone)]
struct Case {
    cursor: Option<u64>,
    states: Vec<u32>,
    lo: u64,
    len: usize,
    /// The wire image of the words visible to the span: a prefix of the
    /// stream in an exact allocation of its own, `shift` bytes into it, so
    /// a read past either end is a heap overflow the sanitizer job sees.
    words: Box<[u8]>,
    shift: usize,
}

impl Case {
    /// The span's words, two little-endian bytes each.
    fn words(&self) -> &[u8] {
        &self.words[self.shift..]
    }

    /// The span over only its first `words` words.
    fn prefix(&self, words: usize) -> Case {
        Case {
            words: self.words()[..2 * words].into(),
            shift: 0,
            ..self.clone()
        }
    }

    /// The same span over a copy of its words at a 1-byte offset inside
    /// exactly `2·len + 1` bytes.
    fn at_odd_address(&self) -> Case {
        let mut words = vec![0xA5; self.words().len() + 1];
        words[1..].copy_from_slice(self.words());
        Case {
            words: words.into(),
            shift: 1,
            ..self.clone()
        }
    }
}

/// One encoded stream plus the decoder's state at every position asked
/// for, so spans can start anywhere.
struct Corpus<S> {
    stream: EncodedStream,
    provider: StaticModelProvider,
    data: Vec<S>,
}

fn bytes(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i ^ seed).wrapping_mul(2654435761) >> 23) as u8)
        .collect()
}

fn corpus<S: Symbol>(data: Vec<S>, table: CdfTable) -> Corpus<S> {
    let provider = StaticModelProvider::new(table);
    let mut enc = InterleavedEncoder::new(&provider, 32);
    enc.encode_all_fast(&data, &mut NullSink).unwrap();
    Corpus {
        stream: enc.finish(),
        provider,
        data,
    }
}

/// The cases as spans writing into `outs`.
fn spans_of<'a, S>(cases: &'a [Case], outs: &'a mut [Vec<S>]) -> Vec<Span<'a, S>> {
    cases
        .iter()
        .zip(outs)
        .map(|(c, out)| Span {
            words: c.words(),
            cursor: c.cursor,
            states: LaneStates::from(&c.states[..]),
            lo: c.lo,
            out,
        })
        .collect()
}

impl<S: Symbol> Corpus<S> {
    /// The span covering positions `lo .. hi`, with the states and cursor
    /// the careful decoder has on reaching `hi` from the stream's tail.
    fn case(&self, lo: u64, hi: u64) -> Case {
        let mut states = self.stream.final_states.clone();
        let mut sink = vec![S::from_u16(0); self.data.len() - hi as usize];
        let cursor = decode_span_careful(
            &self.provider,
            self.stream.words.as_bytes(),
            self.stream.end_cursor(),
            &mut states,
            hi,
            &mut sink,
        )
        .unwrap();
        Case {
            cursor,
            states,
            lo,
            len: (hi - lo) as usize,
            words: self.stream.words.as_bytes().into(),
            shift: 0,
        }
    }

    /// Decodes `cases` as one batch with `run` and checks every span
    /// against the careful reference, then the same batch with every
    /// span's words at an odd address. Returns the batch's stats.
    fn check(
        &self,
        ctx: &str,
        cases: &[Case],
        run: impl Fn(&mut [Span<'_, S>]) -> Result<SpanStats, RansError>,
    ) -> SpanStats {
        let stats = self.check_at(ctx, cases, &run);
        let odd: Vec<Case> = cases.iter().map(Case::at_odd_address).collect();
        let odd_stats = self.check_at(&format!("{ctx} odd address"), &odd, &run);
        assert_eq!(odd_stats, stats, "{ctx}: stats at an odd address");
        stats
    }

    /// [`Self::check`] over the words where `cases` hold them.
    fn check_at(
        &self,
        ctx: &str,
        cases: &[Case],
        run: impl Fn(&mut [Span<'_, S>]) -> Result<SpanStats, RansError>,
    ) -> SpanStats {
        let mut outs: Vec<Vec<S>> = cases
            .iter()
            .map(|c| vec![S::from_u16(0xAA); c.len])
            .collect();
        let mut spans = spans_of(cases, &mut outs);
        let stats = run(&mut spans).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let ends: Vec<(Option<u64>, Vec<u32>)> = spans
            .iter()
            .map(|s| {
                assert!(s.out.is_empty(), "{ctx}: span left undecoded");
                (s.cursor, s.states.to_vec())
            })
            .collect();
        drop(spans);

        let mut words = 0;
        for (i, ((c, out), (cursor, states))) in cases.iter().zip(&outs).zip(ends).enumerate() {
            let mut ref_states = c.states.clone();
            let mut ref_out = vec![S::from_u16(0); c.len];
            let ref_cursor = decode_span_careful(
                &self.provider,
                c.words(),
                c.cursor,
                &mut ref_states,
                c.lo,
                &mut ref_out,
            )
            .unwrap();
            assert_eq!(*out, ref_out, "{ctx}: span {i} output");
            assert_eq!(
                out[..],
                self.data[c.lo as usize..][..c.len],
                "{ctx}: span {i} data"
            );
            assert_eq!(states, ref_states, "{ctx}: span {i} lane states");
            assert_eq!(cursor, ref_cursor, "{ctx}: span {i} cursor");
            words += c.cursor.map_or(0, |o| o + 1) - ref_cursor.map_or(0, |o| o + 1);
        }
        let symbols: usize = cases.iter().map(|c| c.len).sum();
        assert_eq!(stats.symbols(), symbols as u64, "{ctx}: symbols");
        assert_eq!(stats.fast_symbols, stats.fast_groups * 32, "{ctx}: groups");
        assert_eq!(stats.words_consumed, words, "{ctx}: words");
        stats
    }

    /// [`Self::check`] for every kernel and every batch size `1..=2K + 1`
    /// taken from the front of `cases`.
    fn check_all_kernels(&self, ctx: &str, cases: &[Case]) {
        for kernel in Kernel::all_available() {
            for size in 1..=(2 * kernel.interleave_depth() + 1).min(cases.len()) {
                let ctx = format!("{ctx} {kernel:?} batch {size}");
                self.check(&ctx, &cases[..size], |spans| {
                    decode_spans(kernel, &self.provider, spans)
                });
            }
        }
    }
}

fn packed_u8() -> Corpus<u8> {
    let data = bytes(70_000, 1);
    let table = CdfTable::of_bytes(&data, 11);
    corpus(data, table)
}

fn wide_u8() -> Corpus<u8> {
    let data = bytes(70_000, 2);
    let table = CdfTable::of_bytes(&data, 16);
    corpus(data, table)
}

/// Byte-alphabet data decoded into `u16` symbols: the packed LUT with the
/// 16-bit store.
fn packed_u16() -> Corpus<u16> {
    let data: Vec<u16> = bytes(70_000, 3).iter().map(|&b| b as u16).collect();
    let table = CdfTable::of_u16(&data, 256, 11);
    corpus(data, table)
}

fn wide_u16() -> Corpus<u16> {
    let data: Vec<u16> = bytes(70_000, 4).iter().map(|&b| b as u16 * 17).collect();
    let table = CdfTable::of_u16(&data, 1 << 13, 14);
    corpus(data, table)
}

/// Ten adjacent spans of unequal lengths tiling the stream, cut off the
/// group grid: the first segment (cursor runs out below the underread
/// guard, and shorter than a group) leads the batch, another is shorter
/// than a group, one sees only its words up to just above its cursor, as a
/// streaming decoder's newest segment does, and the final one is last.
/// Those two start inside the upper guard region (overread guard closed at
/// entry).
fn tiling<S: Symbol>(c: &Corpus<S>) -> Vec<Case> {
    let n = c.data.len() as u64;
    let cuts = [
        0, 20, 9_000, 9_031, 21_500, 33_333, 34_000, 47_777, 52_100, 61_000, n,
    ];
    let mut cases: Vec<Case> = cuts.windows(2).map(|w| c.case(w[0], w[1])).collect();
    let top = cases[4].cursor.unwrap() as usize + 9;
    cases[4] = cases[4].prefix(top);
    cases
}

#[test]
fn every_model_and_symbol_width_matches_the_careful_reference() {
    fn run<S: Symbol>(name: &str, c: Corpus<S>, wide: bool) {
        assert_eq!(
            matches!(c.provider.decode_tables(), DecodeTables::Wide(_)),
            wide,
            "{name}"
        );
        let mut cases = tiling(&c);
        c.check_all_kernels(name, &cases);
        // The final segment first, so it is in every batch size.
        cases.reverse();
        c.check_all_kernels(&format!("{name} reversed"), &cases);
        // The short spans and the truncated one in the middle of a batch.
        cases.rotate_left(3);
        c.check_all_kernels(&format!("{name} rotated"), &cases);
    }
    run("packed u8", packed_u8(), false);
    run("wide u8", wide_u8(), true);
    run("packed u16", packed_u16(), false);
    run("wide u16", wide_u16(), true);
}

#[test]
fn span_bounds_at_every_residue_and_very_unequal_lengths() {
    let c = packed_u8();
    for r in 0..32u64 {
        // One long span, one that exhausts early, one shorter than a
        // group, one of a group and a bit, one empty, then four more of
        // other lengths (two under a group) — top and bottom edges walking
        // through every residue mod 32.
        let lens = [
            9_000 + 3 * r,
            700 + r,
            20,
            33 + r,
            0,
            2_500 + 7 * r,
            64 + r,
            31,
            5_000 + r,
        ];
        let mut cases = Vec::new();
        let mut hi = 60_000 + r;
        for (j, len) in lens.into_iter().enumerate() {
            cases.push(c.case(hi - len, hi));
            hi -= len + 5 * j as u64 + r;
        }
        c.check_all_kernels(&format!("residue {r}"), &cases);
        cases.rotate_left(2);
        c.check_all_kernels(&format!("residue {r} rotated"), &cases);
    }
}

#[test]
fn every_sweep_depth_is_the_same_decode() {
    fn at<const K: usize>(c: &Corpus<u8>, cases: &[Case]) {
        for kernel in Kernel::all_available() {
            let stats = c.check(&format!("depth {K} {kernel:?}"), cases, |spans| {
                decode_spans_at_depth::<K, u8>(kernel, &c.provider, spans)
            });
            if kernel != Kernel::Scalar {
                assert!(stats.fast_groups > 2_000, "the vector loops ran");
            }
        }
    }
    let c = packed_u8();
    let mut cases = tiling(&c);
    cases.extend(tiling(&c));
    at::<1>(&c, &cases);
    at::<2>(&c, &cases);
    at::<3>(&c, &cases);
    at::<4>(&c, &cases);
    at::<6>(&c, &cases);
    at::<8>(&c, &cases);
}

/// Word prefixes that end at, just above and well above a span's cursor
/// (a streaming decoder's newest segment), and cursors near the stream
/// head: the guards route those groups to the scalar engine, and the
/// kernels never read outside the words they were given (ASan job).
#[test]
fn truncated_prefixes_and_stream_edges_take_the_guarded_path() {
    let c = packed_u8();
    let mid = c.case(20_000, 40_000);
    let at = mid.cursor.unwrap() as usize;
    let mut cases = Vec::new();
    for extra in [1usize, 2, 15, 16, 17, 18, 33, 64, 1000] {
        cases.push(mid.prefix(at + extra));
    }
    for chunk in cases.chunks(3) {
        c.check_all_kernels("prefix", chunk);
    }
    // Spans whose cursor starts inside the underread guard region, alone
    // and next to one that does not.
    let low = (0..2_000u64)
        .step_by(97)
        .map(|hi| c.case(0, hi))
        .find(|case| case.cursor.is_some_and(|p| p < 64) && case.len > 64)
        .expect("a span that starts within 64 words of the stream head");
    c.check_all_kernels("head", &[low.clone(), mid.clone(), low, mid]);
}

/// Hostile spans keep their typed errors: a cursor that runs out of words
/// before the span ends is `BitstreamUnderflow` from every kernel at every
/// batch position, exactly as from the careful reference — never a panic.
#[test]
fn underflow_is_the_reference_error_in_any_batch_position() {
    let c = packed_u8();
    let good = c.case(30_000, 50_000);
    // Same span, but the cursor claims far fewer words than it needs.
    let starved = Case {
        cursor: Some(200),
        ..good.prefix(201)
    };
    let mut ref_states = starved.states.clone();
    let mut ref_out = vec![0u8; starved.len];
    let reference = decode_span_careful(
        &c.provider,
        starved.words(),
        starved.cursor,
        &mut ref_states,
        starved.lo,
        &mut ref_out,
    )
    .unwrap_err();
    assert!(matches!(reference, RansError::BitstreamUnderflow { .. }));

    for kernel in Kernel::all_available() {
        for at in 0..=kernel.interleave_depth() {
            for odd in [false, true] {
                let mut cases = vec![good.clone(); kernel.interleave_depth() + 1];
                cases[at] = starved.clone();
                if odd {
                    cases = cases.iter().map(Case::at_odd_address).collect();
                }
                let mut outs: Vec<Vec<u8>> = cases.iter().map(|c| vec![0; c.len]).collect();
                let mut spans = spans_of(&cases, &mut outs);
                let got = decode_spans(kernel, &c.provider, &mut spans).unwrap_err();
                assert_eq!(got, reference, "{kernel:?} starved span at {at}, odd {odd}");
            }
        }
    }
}

/// Spans the vector loops cannot take — not 32-way — decode through the
/// scalar engine inside the same call.
#[test]
fn non_32_way_spans_fall_back_to_scalar() {
    let data = bytes(20_000, 9);
    let provider = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    let mut enc = InterleavedEncoder::new(&provider, 8);
    enc.encode_all_fast(&data, &mut NullSink).unwrap();
    let stream = enc.finish();
    for kernel in Kernel::all_available() {
        let mut out = vec![0u8; data.len()];
        let stats = decode_spans(kernel, &provider, &mut [stream.tail_span(0, &mut out)]).unwrap();
        assert_eq!(out, data, "{kernel:?}");
        assert_eq!(stats.symbols(), data.len() as u64);
    }
}
