//! The Recoil three-phase parallel decoder (paper §4.1, Figure 6).
//!
//! Each decoder thread `m` handles one split and runs:
//!
//! 1. **Synchronization Phase** — start at the split position `P_m` with
//!    only the split-defining lane known; walking positions downward, each
//!    lane is initialized from its 16-bit metadata state exactly at its
//!    recorded position — immediately before its first bitstream read, so
//!    the shared backward read pointer stays aligned even while some lanes
//!    are absent. Symbols produced here are a side effect and are discarded.
//! 2. **Decoding Phase** — from the sync completion point `Q_m - 1` down,
//!    plain interleaved decoding, writing real output.
//! 3. **Cross-Boundary Decoding Phase** — past the *previous* split's
//!    position the thread keeps going through that split's Synchronization
//!    Section (it inherently carries the correct states) and stops at its
//!    sync completion point `Q_{m-1}`.
//!
//! Phases 2 and 3 need no code boundary: together they decode positions
//! `Q_{m-1} .. Q_m` — exactly thread `m`'s disjoint output range, which is
//! why the output buffer can be handed out as non-overlapping sub-slices.
//!
//! [`decode_segments`] is the one driver for all of it. What varies between
//! decoders is only the span kernel that runs phases 2–3 — a closure over a
//! batch of spans: the scalar fast loop (`Span::advance_scalar`) or
//! `recoil_simd::decode_spans` on an AVX2/AVX-512 loop — and whether a
//! thread pool is attached, so "scalar", "pooled", "SIMD" and "streaming
//! over a word prefix" are arguments to this function, not separate
//! drivers. [`crate::backend`] is where those arguments are chosen.
//!
//! Splits are independent entry points into one bitstream, and that is
//! worth as much *inside* a thread as across threads: a kernel that can
//! decode `K` spans interleaved (the `depth` argument) is handed batches of
//! up to `K` adjacent segments, so a decoder's capability is `threads × K`
//! splits, not `threads`.

use crate::metadata::{RecoilMetadata, SplitPoint};
use recoil_bitio::BackwardWordReader;
use recoil_models::{ModelProvider, Symbol};
use recoil_parallel::{batch_bounds, for_each_disjoint, ThreadPool};
use recoil_rans::{
    decode_transform, renorm_read, EncodedStream, LaneStates, RansError, Span, SpanStats,
};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// What one decode did, summed over its spans. [`decode_segments`] returns
/// it and every [`crate::DecodeBackend`] passes it on, so a decode's facts
/// belong to whoever asked for it: a client records its own decodes, and
/// nothing is kept per process.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStats {
    /// Spans decoded: one per metadata segment.
    pub spans: u64,
    /// Symbols decoded by a kernel's fast loop.
    pub fast_symbols: u64,
    /// Symbols decoded by the bounds-checked careful tail.
    pub careful_symbols: u64,
    /// Compressed u16 words consumed (each word by exactly one span).
    pub words_consumed: u64,
}

impl DecodeStats {
    /// Adds `other` to this total.
    pub fn merge(&mut self, other: DecodeStats) {
        self.spans = self.spans.wrapping_add(other.spans);
        self.fast_symbols = self.fast_symbols.wrapping_add(other.fast_symbols);
        self.careful_symbols = self.careful_symbols.wrapping_add(other.careful_symbols);
        self.words_consumed = self.words_consumed.wrapping_add(other.words_consumed);
    }
}

/// Checks the invariants of a segment-range decode where `stream.words` may
/// be an incomplete **prefix** of the stream `meta` describes.
///
/// This is the validation contract of the streaming path: segment `m`
/// (interior) only reads words at offsets `<= splits[m].offset`, so a
/// prefix of `splits[m].offset + 1` words makes it decodable before the
/// rest of the bitstream has arrived. The final segment starts from the
/// explicitly transmitted final states at the stream tail, so it requires
/// the complete word stream.
///
/// The output buffer is indexed **absolutely** (segment `m` writes
/// `bounds[m]..bounds[m+1]`), so it must cover at least the requested
/// segments' symbols; it may be shorter than the full stream — a streaming
/// receiver grows it as segments become resident, so a hostile header
/// alone never drives a full-stream allocation.
pub fn validate_segment_decode(
    stream: &EncodedStream,
    meta: &RecoilMetadata,
    segments: &Range<u64>,
    out_len: usize,
) -> Result<(), RansError> {
    stream.validate()?;
    meta.validate()?;
    if stream.ways != meta.ways
        || stream.num_symbols != meta.num_symbols
        || stream.words.len() as u64 > meta.num_words
    {
        return Err(RansError::MalformedMetadata(format!(
            "metadata (W={}, N={}, B={}) does not describe stream prefix (W={}, N={}, B<={})",
            meta.ways,
            meta.num_symbols,
            meta.num_words,
            stream.ways,
            stream.num_symbols,
            stream.words.len()
        )));
    }
    let nseg = meta.num_segments();
    if segments.start > segments.end || segments.end > nseg {
        return Err(RansError::MalformedMetadata(format!(
            "segment range {}..{} invalid for {nseg} segments",
            segments.start, segments.end
        )));
    }
    let covered = if segments.end == nseg {
        meta.num_symbols
    } else if segments.end > 0 {
        meta.splits[segments.end as usize - 1].sync_start()
    } else {
        0
    };
    if (out_len as u64) < covered {
        return Err(RansError::MalformedStream(format!(
            "output buffer holds {out_len} symbols, requested segments end at {covered}"
        )));
    }
    let have = stream.words.len() as u64;
    if segments.end == nseg {
        if have != meta.num_words {
            return Err(RansError::MalformedStream(format!(
                "final segment needs the complete stream: {have} of {} words resident",
                meta.num_words
            )));
        }
    } else if segments.end > 0 {
        let need = meta.splits[segments.end as usize - 1].offset + 1;
        if have < need {
            return Err(RansError::MalformedStream(format!(
                "segment {} needs a {need}-word prefix, only {have} words resident",
                segments.end - 1
            )));
        }
    }
    Ok(())
}

/// The scalar span kernel: `Span::advance_scalar` over each span in turn
/// (its fast loop already carries `ways` independent chains, so its depth
/// is 1) — what every decoder runs for adaptive models, and for static
/// ones when no vector kernel applies.
pub(crate) fn decode_spans_scalar<S: Symbol, P: ModelProvider + ?Sized>(
    provider: &P,
    spans: &mut [Span<'_, S>],
) -> Result<SpanStats, RansError> {
    let mut stats = SpanStats::default();
    for span in spans {
        stats.merge(&span.advance_scalar(provider, span.out.len())?);
    }
    Ok(stats)
}

/// The segment decode engine: for every metadata segment in `segments`,
/// recover the lane states (scalar Synchronization Phase, or the
/// transmitted final states for the last segment), run `decode_batch` over
/// the segment's positions, and write that segment's disjoint region of `out`
/// (indexed absolutely: segment `m` owns `bounds[m]..bounds[m+1]`).
/// `stream.words` may be a prefix — see [`validate_segment_decode`], which
/// runs first, so every backend rejects the same inputs with the same
/// errors.
///
/// Each task is a batch of `min(depth, ceil(segments / threads))` adjacent
/// segments — `depth` being how many independent spans the kernel decodes
/// interleaved, 1 for one that takes them one by one — handed to
/// `decode_batch` as one `&mut [Span]`. It must decode every span to
/// completion (each `out` empty, `cursor` and `states` where its decode
/// stopped), bit-identically, span by span, to
/// `recoil_rans::decode_span_careful` for any batch length, and return how
/// the batch decoded, summed. With a `pool` the batches run concurrently;
/// the first error wins. Returns the batches' stats, summed.
#[allow(clippy::too_many_arguments)]
pub fn decode_segments<S, P>(
    stream: &EncodedStream,
    meta: &RecoilMetadata,
    provider: &P,
    pool: Option<&ThreadPool>,
    segments: Range<u64>,
    out: &mut [S],
    depth: usize,
    decode_batch: impl Fn(&mut [Span<'_, S>]) -> Result<SpanStats, RansError> + Sync,
) -> Result<DecodeStats, RansError>
where
    S: Symbol,
    P: ModelProvider + ?Sized,
{
    validate_segment_decode(stream, meta, &segments, out.len())?;
    let (a, b) = (segments.start as usize, segments.end as usize);
    let bounds = meta.segment_bounds();
    let (batch, batches) = batch_bounds(pool, &bounds[a..=b], depth);
    let words = stream.words.as_bytes();
    let total = Mutex::new(DecodeStats::default());
    for_each_disjoint(pool, out, &batches, |t, mut region| {
        let first = a + t * batch;
        let mut spans = Vec::with_capacity(batch);
        for m in first..(first + batch).min(b) {
            let (seg, rest) = region.split_at_mut((bounds[m + 1] - bounds[m]) as usize);
            region = rest;
            spans.push(match meta.splits.get(m) {
                Some(split) => sync_phase(split, words, provider, bounds[m], seg)?,
                // The last segment starts from the exact, explicitly
                // transmitted final states; no synchronization is needed.
                None => stream.tail_span(bounds[m], seg),
            });
        }
        // Decoding Phase + Cross-Boundary Phase: each span's positions
        // bounds[m] .. bounds[m+1], stopping at the previous split's sync
        // completion point.
        let stats = decode_batch(&mut spans)?;
        // One uncontended lock per batch: batches are disjoint work.
        total
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(DecodeStats {
                spans: spans.len() as u64,
                fast_symbols: stats.fast_symbols,
                careful_symbols: stats.careful_symbols,
                words_consumed: stats.words_consumed,
            });
        Ok(())
    })?;
    Ok(total.into_inner().unwrap_or_else(PoisonError::into_inner))
}

/// Synchronization Phase (§4.1.1): recover full decoder states from the
/// split's 16-bit metadata states, discarding the side-effect symbols.
/// Returns the span the segment below the split decodes: the synchronized
/// lane states and the next backward read cursor (`None` when the stream
/// head was reached), over positions `lo .. lo + out.len()`.
fn sync_phase<'a, S, P: ModelProvider + ?Sized>(
    split: &SplitPoint,
    words: &'a [u8],
    provider: &P,
    lo: u64,
    out: &'a mut [S],
) -> Result<Span<'a, S>, RansError> {
    let ways = split.lanes.len() as u64;
    let n = provider.quant_bits();
    let mask = (1u32 << n) - 1;
    let q = split.sync_start();
    let mut reader = BackwardWordReader::new(words, split.offset);
    let mut states = LaneStates::zeroed(ways as usize);

    for pos in (q..=split.split_pos()).rev() {
        let lane = (pos % ways) as usize;
        let init = split.lanes[lane];
        // A lane's positions descend from the one it is initialized at, so
        // it is live exactly below that position. Slots of lanes not yet
        // initialized are skipped entirely: absent decoders neither
        // transform nor read, keeping the read offset correct (§4.1.1).
        if pos > init.pos {
            continue;
        }
        let x = if pos == init.pos {
            // Initialize this lane immediately before its first read: the
            // metadata state is < L, so renorm_read pulls exactly the word
            // its encoder-side renormalization emitted here.
            init.state as u32
        } else {
            states[lane]
        };
        let x = renorm_read(x, &mut reader, pos)?;
        let (nx, _discard) = decode_transform(x, pos, provider, n, mask);
        states[lane] = nx;
    }
    Ok(Span {
        words,
        cursor: reader.offset(),
        states,
        lo,
        out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        AutoBackend, CodecSymbol, DecodeBackend, DecodeModel, DecodeRequest, Kernel,
    };
    use crate::planner::plan_from_events;
    use crate::RecoilError;
    use recoil_models::{CdfTable, StaticModelProvider};
    use recoil_rans::{decode_interleaved, InterleavedEncoder, VecSink};

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 22) as u8)
            .collect()
    }

    fn setup(
        data: &[u8],
        n: u32,
        ways: u32,
        segments: u64,
    ) -> (EncodedStream, RecoilMetadata, StaticModelProvider) {
        let p = StaticModelProvider::new(CdfTable::of_bytes(data, n));
        let mut enc = InterleavedEncoder::new(&p, ways);
        let mut sink = VecSink::new();
        enc.encode_all_fast(data, &mut sink).unwrap();
        let stream = enc.finish();
        let meta = plan_from_events(
            &sink.events,
            ways,
            stream.num_symbols,
            stream.words.len() as u64,
            n,
            segments,
        );
        (stream, meta, p)
    }

    /// Whole-stream decode through the engine's scalar composition on
    /// `threads` threads.
    fn decode_all<S: CodecSymbol>(
        stream: &EncodedStream,
        meta: &RecoilMetadata,
        model: DecodeModel<'_>,
        threads: usize,
    ) -> Result<Vec<S>, RecoilError> {
        let mut out = vec![S::from_u16(0); stream.num_symbols as usize];
        let backend = AutoBackend::fixed(Kernel::Scalar, threads);
        backend.decode(DecodeRequest::whole(stream, meta, model, &mut out)?)?;
        Ok(out)
    }

    #[test]
    fn recoil_decode_matches_serial_decode() {
        let data = sample(200_000, 1);
        let (stream, meta, p) = setup(&data, 11, 32, 16);
        assert_eq!(meta.num_segments(), 16);
        let serial: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        let recoil: Vec<u8> = decode_all(&stream, &meta, DecodeModel::Static(&p), 1).unwrap();
        assert_eq!(serial, data);
        assert_eq!(recoil, data);
    }

    #[test]
    fn parallel_pool_decode_matches() {
        let data = sample(300_000, 2);
        let (stream, meta, p) = setup(&data, 11, 32, 64);
        let got: Vec<u8> = decode_all(&stream, &meta, DecodeModel::Static(&p), 8).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn no_split_metadata_decodes_whole_stream() {
        let data = sample(50_000, 3);
        let (stream, meta, p) = setup(&data, 11, 32, 1);
        assert!(meta.splits.is_empty());
        let got: Vec<u8> = decode_all(&stream, &meta, DecodeModel::Static(&p), 1).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn many_way_and_segment_combinations() {
        for ways in [1u32, 2, 4, 8, 32] {
            for segments in [2u64, 3, 8] {
                let data = sample(60_000, ways + segments as u32);
                let (stream, meta, p) = setup(&data, 10, ways, segments);
                let got: Vec<u8> = decode_all(&stream, &meta, DecodeModel::Static(&p), 1).unwrap();
                assert_eq!(got, data, "ways={ways} segments={segments}");
            }
        }
    }

    #[test]
    fn massive_split_count_gpu_style() {
        let data = sample(400_000, 9);
        let (stream, meta, p) = setup(&data, 11, 32, 512);
        assert!(meta.num_segments() > 400, "got {}", meta.num_segments());
        let got: Vec<u8> = decode_all(&stream, &meta, DecodeModel::Static(&p), 8).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn sixteen_bit_symbols_and_n16() {
        let raw = sample(120_000, 4);
        let data: Vec<u16> = raw.iter().map(|&b| (b as u16) << 3).collect();
        let p = StaticModelProvider::new(CdfTable::of_u16(&data, 1 << 12, 16));
        let mut enc = InterleavedEncoder::new(&p, 32);
        let mut sink = VecSink::new();
        enc.encode_all_fast(&data, &mut sink).unwrap();
        let stream = enc.finish();
        let meta = plan_from_events(
            &sink.events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            16,
            16,
        );
        let got: Vec<u16> = decode_all(&stream, &meta, DecodeModel::Static(&p), 1).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn adaptive_models_across_split_boundaries() {
        use recoil_models::{GaussianScaleBank, LatentModelProvider, LatentSpec};
        use std::sync::Arc;
        let bank = Arc::new(GaussianScaleBank::build(12, 256, 8, 0.5, 32.0));
        let count = 80_000usize;
        let specs: Vec<LatentSpec> = (0..count)
            .map(|i| LatentSpec {
                mean: 2000 + (i % 700) as u16,
                scale_idx: (i % 8) as u8,
            })
            .collect();
        let p = LatentModelProvider::new(bank, specs.clone());
        let data: Vec<u16> = (0..count)
            .map(|i| {
                let d = ((i as i64).wrapping_mul(2654435761) % 31) - 15;
                p.clamp_to_window(specs[i], specs[i].mean as i64 + d)
            })
            .collect();
        let mut enc = InterleavedEncoder::new(&p, 32);
        let mut sink = VecSink::new();
        enc.encode_all_fast(&data, &mut sink).unwrap();
        let stream = enc.finish();
        let meta = plan_from_events(
            &sink.events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            12,
            8,
        );
        assert!(meta.num_segments() >= 2);
        let got: Vec<u16> = decode_all(&stream, &meta, DecodeModel::Adaptive(&p), 1).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn corrupted_metadata_is_rejected_not_misdecoded() {
        let data = sample(100_000, 5);
        let (stream, mut meta, p) = setup(&data, 11, 32, 8);
        meta.num_symbols += 1;
        assert!(decode_all::<u8>(&stream, &meta, DecodeModel::Static(&p), 1).is_err());
    }

    #[test]
    fn wrong_output_len_is_rejected() {
        let data = sample(10_000, 6);
        let (stream, meta, p) = setup(&data, 11, 32, 4);
        let mut out = vec![0u8; 9_999];
        assert!(DecodeRequest::whole(&stream, &meta, DecodeModel::Static(&p), &mut out).is_err());
    }
}
