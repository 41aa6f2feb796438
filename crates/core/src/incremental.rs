//! Streaming decode: accept bitstream bytes as they arrive, decode segments
//! the moment they are resident.
//!
//! Recoil's split metadata makes every segment independently decodable, and
//! each interior segment only reads bitstream words at offsets up to its
//! split's recorded offset. A receiver that gets the bitstream front-to-back
//! (a network transfer, a file read) therefore never has to wait for the
//! whole payload: segment `m` becomes decodable as soon as the first
//! `splits[m].offset + 1` words have arrived. [`IncrementalDecoder`] tracks
//! exactly that — push bytes in, ask which segments turned ready, and decode
//! them through any [`DecodeBackend`] into their region of a caller-provided
//! full-stream output buffer.
//!
//! ```
//! use recoil_core::{Codec, ScalarBackend};
//! use recoil_core::IncrementalDecoder;
//!
//! let data: Vec<u8> = (0..80_000u32).map(|i| (i % 199) as u8).collect();
//! let codec = Codec::builder().max_segments(16).build().unwrap();
//! let enc = codec.encode(&data).unwrap();
//!
//! // Stream the bitstream bytes in slices of whole words.
//! let bytes = enc.container.stream.words.as_bytes();
//! let mut incr = IncrementalDecoder::new(
//!     enc.container.metadata.clone(),
//!     enc.container.stream.final_states.clone(),
//!     enc.model.clone(),
//! )
//! .unwrap();
//! let mut out = vec![0u8; data.len()];
//! for piece in bytes.chunks(4096) {
//!     incr.push_bytes(piece).unwrap();
//!     incr.decode_ready_segments(&ScalarBackend, &mut out).unwrap();
//! }
//! assert!(incr.is_finished());
//! assert_eq!(out, data);
//! ```

use crate::backend::{CodecSymbol, DecodeBackend, DecodeModel, DecodeRequest};
use crate::bounds::{reserve_declared_words, symbols_fit};
use crate::decoder::DecodeStats;
use crate::error::RecoilError;
use crate::metadata::RecoilMetadata;
use recoil_models::{ModelProvider, StaticModelProvider};
use recoil_rans::{EncodedStream, RansError, WordStream};
use std::ops::Range;

/// Streaming segment decoder over split metadata (see the module docs).
///
/// The decoder owns a growing word buffer shaped like the final
/// [`EncodedStream`]; arriving words land in it
/// ([`IncrementalDecoder::land_words`]), and
/// [`IncrementalDecoder::decode_ready_segments`] decodes every
/// newly-resident segment through a [`DecodeBackend`]. Segments become
/// ready strictly in order, so the decoded region of the output buffer is
/// always a prefix-aligned run of whole segments.
#[derive(Debug)]
pub struct IncrementalDecoder {
    stream: EncodedStream,
    metadata: RecoilMetadata,
    model: StaticModelProvider,
    bounds: Vec<u64>,
    /// Segments already decoded (a prefix of `0..num_segments`).
    decoded: u64,
    /// What the backend reported for those segments, summed.
    stats: DecodeStats,
}

impl IncrementalDecoder {
    /// Decoder for the stream `metadata` describes, with the per-lane final
    /// states from the transmission header and the static model to decode
    /// with.
    ///
    /// Everything is validated up front: the metadata invariants, the
    /// final-state count and range, and the model's quantization level
    /// against the metadata's.
    pub fn new(
        metadata: RecoilMetadata,
        final_states: Vec<u32>,
        model: StaticModelProvider,
    ) -> Result<Self, RecoilError> {
        Self::with_words(metadata, final_states, model, WordStream::new())
    }

    /// [`IncrementalDecoder::new`], receiving into `words`: a store kept
    /// from an earlier stream (its contents are cleared) and handed back by
    /// [`IncrementalDecoder::into_words`], so a receiver that fetches again
    /// and again grows one store rather than a fresh one per stream. The
    /// header alone reserves no more than [`crate::MAX_RESERVED_WORDS`], and
    /// nothing at all in a store that already holds that much or the whole
    /// declared stream; past that the store grows only with received bytes.
    pub fn with_words(
        metadata: RecoilMetadata,
        final_states: Vec<u32>,
        model: StaticModelProvider,
        mut words: WordStream,
    ) -> Result<Self, RecoilError> {
        metadata.validate()?;
        if model.quant_bits() != metadata.quant_bits {
            return Err(RecoilError::Decode(RansError::MalformedMetadata(format!(
                "model quantizes to 2^{} but the metadata records 2^{}",
                model.quant_bits(),
                metadata.quant_bits
            ))));
        }
        // Information-capacity bound, per readiness prefix: the symbols a
        // word prefix is claimed to carry must fit in its bits. Without
        // this, hostile metadata could mark a near-empty prefix as a giant
        // ready segment and drive the receiver's output allocation from a
        // handful of received bytes.
        let (n, ways) = (metadata.quant_bits, metadata.ways);
        if !symbols_fit(n, ways, metadata.num_symbols, metadata.num_words) {
            return Err(RecoilError::Decode(RansError::MalformedMetadata(format!(
                "symbol count {} impossible for {} bitstream words",
                metadata.num_symbols, metadata.num_words
            ))));
        }
        for (k, s) in metadata.splits.iter().enumerate() {
            if !symbols_fit(n, ways, s.sync_start(), s.offset + 1) {
                return Err(RecoilError::Decode(RansError::MalformedMetadata(format!(
                    "split {k}: {} symbols claimed decodable from a {}-word prefix",
                    s.sync_start(),
                    s.offset + 1
                ))));
            }
        }
        reserve_declared_words(&mut words, metadata.num_words);
        let stream = EncodedStream {
            words,
            final_states,
            num_symbols: metadata.num_symbols,
            ways: metadata.ways,
        };
        stream.validate()?;
        let bounds = metadata.segment_bounds();
        Ok(Self {
            stream,
            metadata,
            model,
            bounds,
            decoded: 0,
            stats: DecodeStats::default(),
        })
    }

    /// The word store, handed back for the next stream's
    /// [`IncrementalDecoder::with_words`]. Read what the stream came to
    /// ([`IncrementalDecoder::payload_bytes`], the stats) first.
    pub fn into_words(self) -> WordStream {
        self.stream.words
    }

    /// The metadata this decoder streams against.
    pub fn metadata(&self) -> &RecoilMetadata {
        &self.metadata
    }

    /// Bitstream bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        self.stream.words.len() as u64 * 2
    }

    /// Payload size of the stream as received so far, counted the way
    /// [`EncodedStream::payload_bytes`] counts a whole one.
    pub fn payload_bytes(&self) -> u64 {
        self.stream.payload_bytes()
    }

    /// True once the complete bitstream has arrived.
    pub fn is_complete(&self) -> bool {
        self.stream.words.len() as u64 == self.metadata.num_words
    }

    /// Total number of segments in the metadata.
    pub fn num_segments(&self) -> u64 {
        self.metadata.num_segments()
    }

    /// Segments already decoded by [`IncrementalDecoder::decode_ready_segments`].
    pub fn decoded_segments(&self) -> u64 {
        self.decoded
    }

    /// What the backend's decodes of those segments did, summed.
    pub fn decode_stats(&self) -> DecodeStats {
        self.stats
    }

    /// True once every segment has been decoded.
    pub fn is_finished(&self) -> bool {
        self.decoded == self.num_segments()
    }

    /// Number of fully resident (decodable) segments — always a prefix of
    /// the segment sequence, because segment `m` needs the word prefix up
    /// to `splits[m].offset` and offsets ascend with `m`.
    pub fn ready_segments(&self) -> u64 {
        if self.is_complete() {
            return self.num_segments();
        }
        let have = self.stream.words.len() as u64;
        self.metadata.splits.partition_point(|s| s.offset < have) as u64
    }

    /// Symbols covered by the currently ready segments — the minimum
    /// output-buffer length the next [`IncrementalDecoder::decode_ready_segments`]
    /// call needs. Receivers size their output from this (which grows only
    /// as real bytes arrive) rather than from the declared total.
    pub fn ready_symbols(&self) -> usize {
        self.bounds[self.ready_segments() as usize] as usize
    }

    /// Appends arriving bitstream bytes, two little-endian bytes a word.
    /// An odd-length slice ends mid-word, and it and words past the
    /// declared stream are rejected with [`RecoilError::Decode`].
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Result<(), RecoilError> {
        self.check_room(bytes.len() / 2)?;
        self.stream
            .words
            .extend_from_le_bytes(bytes)
            .map_err(|odd| RecoilError::Decode(RansError::MalformedStream(odd.to_string())))
    }

    /// Lands `n` received words whose bytes `fill` writes in place
    /// ([`WordStream::land`]). Words past the declared stream are rejected
    /// with [`RecoilError::Decode`] before `fill` runs.
    pub fn land_words<E: From<RecoilError>>(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.check_room(n)?;
        self.stream.words.land(n, fill)
    }

    /// Refuses `n` more words if they overrun the declared stream.
    fn check_room(&self, n: usize) -> Result<(), RecoilError> {
        let words = self.stream.words.len() as u64 + n as u64;
        if words > self.metadata.num_words {
            return Err(RecoilError::Decode(RansError::MalformedStream(format!(
                "stream overrun: {words} words pushed into a {}-word bitstream",
                self.metadata.num_words
            ))));
        }
        Ok(())
    }

    /// Decodes every segment that became resident since the last call,
    /// through `backend`, into the matching (absolutely indexed) region of
    /// `out`. The buffer must hold at least
    /// [`IncrementalDecoder::ready_symbols`] entries — a full
    /// `num_symbols` buffer always works, but a receiver may grow it with
    /// readiness instead. Returns the symbol range newly written — empty
    /// when nothing new is ready.
    ///
    /// The backend receives the current word prefix; outputs are
    /// bit-identical to a buffered full decode of the complete stream.
    pub fn decode_ready_segments<S: CodecSymbol>(
        &mut self,
        backend: &dyn DecodeBackend,
        out: &mut [S],
    ) -> Result<Range<usize>, RecoilError> {
        let ready = self.ready_segments();
        if ready <= self.decoded {
            let at = self.bounds[self.decoded as usize] as usize;
            return Ok(at..at);
        }
        let stats = backend.decode(DecodeRequest {
            stream: &self.stream,
            metadata: &self.metadata,
            model: DecodeModel::Static(&self.model),
            segments: self.decoded..ready,
            out: S::output(out),
        })?;
        self.stats.merge(stats);
        let range =
            self.bounds[self.decoded as usize] as usize..self.bounds[ready as usize] as usize;
        self.decoded = ready;
        Ok(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AutoBackend, ScalarBackend};
    use crate::codec::{Codec, Encoded};
    use crate::combine::try_combine_splits;
    use crate::MAX_RESERVED_WORDS;
    use recoil_simd::Kernel;

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
            .collect()
    }

    fn encode(data: &[u8], segments: u64) -> Encoded {
        Codec::builder()
            .max_segments(segments)
            .build()
            .unwrap()
            .encode(data)
            .unwrap()
    }

    fn stream_bytes(enc: &Encoded) -> Vec<u8> {
        enc.container.stream.words.as_bytes().to_vec()
    }

    fn incr_for(enc: &Encoded, meta: &RecoilMetadata) -> IncrementalDecoder {
        IncrementalDecoder::new(
            meta.clone(),
            enc.container.stream.final_states.clone(),
            enc.model.clone(),
        )
        .unwrap()
    }

    #[test]
    fn streamed_decode_matches_buffered_at_any_granularity() {
        let data = sample(120_000, 1);
        let enc = encode(&data, 16);
        let bytes = stream_bytes(&enc);
        // Each pattern is a cycle of slice lengths in words. `[1, 65_535]`
        // puts a lone word in front of every bulk copy.
        let whole = [(bytes.len() / 2).max(1)];
        let patterns: [&[usize]; 8] = [
            &[1],
            &[2],
            &[3],
            &[997],
            &[8192],
            &[65_536],
            &[1, 65_535],
            &whole,
        ];
        for pattern in patterns {
            let mut incr = incr_for(&enc, &enc.container.metadata);
            let mut out = vec![0u8; data.len()];
            let mut covered = 0usize;
            let mut rest = &bytes[..];
            for &piece in pattern.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at((2 * piece).min(rest.len()));
                rest = tail;
                incr.push_bytes(chunk).unwrap();
                let r = incr
                    .decode_ready_segments(&ScalarBackend, &mut out)
                    .unwrap();
                assert_eq!(r.start, covered, "ranges are contiguous");
                covered = r.end;
                // Already-decoded symbols are final and correct.
                assert_eq!(&out[..covered], &data[..covered], "pieces {pattern:?}");
            }
            assert!(incr.is_complete() && incr.is_finished());
            assert_eq!(out, data, "pieces {pattern:?}");
        }

        // A slice that ends mid-word is refused and lands nothing.
        let mut incr = incr_for(&enc, &enc.container.metadata);
        incr.push_bytes(&bytes[..4]).unwrap();
        assert!(matches!(
            incr.push_bytes(&bytes[4..7]),
            Err(RecoilError::Decode(_))
        ));
        assert_eq!(incr.bytes_received(), 4);
        incr.push_bytes(&bytes[4..]).unwrap();
        assert!(incr.is_complete());
    }

    #[test]
    fn readiness_follows_each_split_offset() {
        let data = sample(200_000, 2);
        let enc = encode(&data, 8);
        let meta = &enc.container.metadata;
        let mut incr = incr_for(&enc, meta);
        assert_eq!(incr.ready_segments(), 0);
        let bytes = stream_bytes(&enc);
        // One word short of the first split's words: nothing ready.
        let first_need = (meta.splits[0].offset as usize + 1) * 2;
        incr.push_bytes(&bytes[..first_need - 2]).unwrap();
        assert_eq!(incr.ready_segments(), 0);
        incr.push_bytes(&bytes[first_need - 2..first_need]).unwrap();
        assert_eq!(incr.ready_segments(), 1);
        // Everything but the last word: all interior segments, not the final.
        incr.push_bytes(&bytes[first_need..bytes.len() - 2])
            .unwrap();
        assert_eq!(incr.ready_segments(), meta.num_segments() - 1);
        incr.push_bytes(&bytes[bytes.len() - 2..]).unwrap();
        assert_eq!(incr.ready_segments(), meta.num_segments());
    }

    #[test]
    fn combined_tier_streams_identically() {
        let data = sample(150_000, 3);
        let enc = encode(&data, 64);
        let small = try_combine_splits(&enc.container.metadata, 5).unwrap();
        let bytes = stream_bytes(&enc);
        let mut incr = incr_for(&enc, &small);
        let mut out = vec![0u8; data.len()];
        for chunk in bytes.chunks(4096) {
            incr.push_bytes(chunk).unwrap();
            incr.decode_ready_segments(&AutoBackend::fixed(Kernel::Scalar, 3), &mut out)
                .unwrap();
        }
        assert!(incr.is_finished());
        assert_eq!(out, data);
    }

    #[test]
    fn empty_and_tiny_streams_finish() {
        for len in [0usize, 1, 2, 33] {
            let data = sample(len, 4);
            let enc = encode(&data, 4);
            let bytes = stream_bytes(&enc);
            let mut incr = incr_for(&enc, &enc.container.metadata);
            let mut out = vec![0u8; len];
            incr.push_bytes(&bytes).unwrap();
            incr.decode_ready_segments(&ScalarBackend, &mut out)
                .unwrap();
            assert!(incr.is_finished(), "len {len}");
            assert_eq!(out, data, "len {len}");
        }
    }

    #[test]
    fn overrun_is_a_typed_decode_error() {
        let data = sample(10_000, 5);
        let enc = encode(&data, 4);
        let bytes = stream_bytes(&enc);
        let mut incr = incr_for(&enc, &enc.container.metadata);
        incr.push_bytes(&bytes).unwrap();
        assert!(matches!(
            incr.push_bytes(&[0, 0]),
            Err(RecoilError::Decode(_))
        ));
    }

    #[test]
    fn hostile_capacity_claims_rejected_at_construction() {
        use crate::metadata::{LaneInit, SplitPoint};
        let enc = encode(&sample(10_000, 9), 4);
        let model = enc.model.clone();
        let states = enc.container.stream.final_states.clone();
        let ways = enc.container.metadata.ways;

        // A header-only attack: giant declared stream, no splits. The
        // whole-stream capacity bound rejects it before any allocation.
        let whole = RecoilMetadata {
            ways,
            quant_bits: 11,
            num_symbols: u64::MAX / 2,
            num_words: 4,
            splits: vec![],
        };
        assert!(matches!(
            IncrementalDecoder::new(whole, states.clone(), model.clone()),
            Err(RecoilError::Decode(_))
        ));

        // A prefix attack: structurally valid metadata whose first split
        // claims ~2^40 symbols become ready after a 1-word prefix. Without
        // the per-split bound, a streaming receiver would size its output
        // from two received bytes. (The declared stream is sized so the
        // split sits within the wire format's 2^32 of its expected offset
        // and group: only such metadata can arrive in a header.)
        let huge_pos = (1u64 << 40) * ways as u64;
        let prefix = RecoilMetadata {
            ways,
            quant_bits: 11,
            num_symbols: 2 * huge_pos,
            num_words: 1 << 32,
            splits: vec![SplitPoint {
                offset: 0,
                lanes: (0..ways as u64)
                    .map(|l| LaneInit {
                        state: 1,
                        pos: huge_pos + l,
                    })
                    .collect(),
            }],
        };
        prefix.validate().expect("structurally valid on purpose");
        assert!(matches!(
            IncrementalDecoder::new(prefix, states, model),
            Err(RecoilError::Decode(_))
        ));
    }

    #[test]
    fn word_store_grows_with_received_bytes_not_the_declared_size() {
        // The streaming client promises its memory follows bytes actually
        // sent. A header may declare a stream of any size; the word store
        // must stay within a small multiple of what has been pushed.
        let enc = encode(&sample(10_000, 11), 4);
        let declared = RecoilMetadata {
            num_words: u64::MAX / 32,
            splits: vec![],
            ..enc.container.metadata.clone()
        };
        let mut incr = incr_for(&enc, &declared);
        assert!(incr.stream.words.capacity() <= MAX_RESERVED_WORDS);
        // Well past the up-front reservation, in slices of an odd number
        // of words, so the store never grows by a power of two.
        let piece = vec![0x5Au8; 65_534];
        let mut pushed = 0usize;
        while pushed < 6 * MAX_RESERVED_WORDS {
            incr.push_bytes(&piece).unwrap();
            pushed += piece.len();
            assert_eq!(incr.bytes_received(), pushed as u64);
        }
        let words = pushed / 2;
        assert_eq!(incr.stream.words.len(), words);
        assert!(
            incr.stream.words.capacity() <= 4 * words,
            "capacity {} for {words} received words",
            incr.stream.words.capacity()
        );

        // A store handed in keeps the bound: the header reserves nothing
        // in one that already holds a larger stream, and grows a small one
        // to the bound at most. Either way it arrives empty, and pushes
        // past it grow it with the bytes alone.
        let kept = incr.into_words();
        let kept_capacity = kept.capacity();
        assert!(kept_capacity > MAX_RESERVED_WORDS);
        let incr = IncrementalDecoder::with_words(
            declared.clone(),
            enc.container.stream.final_states.clone(),
            enc.model.clone(),
            kept,
        )
        .unwrap();
        assert_eq!(incr.bytes_received(), 0, "a handed-in store is cleared");
        assert_eq!(incr.stream.words.capacity(), kept_capacity);
        let mut small = WordStream::new();
        small.reserve_exact(1000);
        let mut incr = IncrementalDecoder::with_words(
            declared,
            enc.container.stream.final_states.clone(),
            enc.model.clone(),
            small,
        )
        .unwrap();
        assert!(incr.stream.words.capacity() <= MAX_RESERVED_WORDS);
        let mut pushed = 0usize;
        while pushed < 3 * MAX_RESERVED_WORDS {
            incr.push_bytes(&piece).unwrap();
            pushed += piece.len();
        }
        assert!(incr.stream.words.capacity() <= 4 * (pushed / 2));
    }

    #[test]
    fn output_buffer_may_grow_with_readiness() {
        let data = sample(90_000, 10);
        let enc = encode(&data, 8);
        let bytes = stream_bytes(&enc);
        let mut incr = incr_for(&enc, &enc.container.metadata);
        let mut out: Vec<u8> = Vec::new();
        for chunk in bytes.chunks(4096) {
            incr.push_bytes(chunk).unwrap();
            let need = incr.ready_symbols();
            if need > out.len() {
                out.resize(need, 0);
            }
            incr.decode_ready_segments(&ScalarBackend, &mut out)
                .unwrap();
        }
        assert!(incr.is_finished());
        assert_eq!(out, data);
    }

    #[test]
    fn model_mismatch_rejected_at_construction() {
        let data = sample(20_000, 8);
        let enc = encode(&data, 4);
        let wrong = Codec::builder()
            .quant_bits(9)
            .build()
            .unwrap()
            .encode(&data)
            .unwrap()
            .model;
        assert!(matches!(
            IncrementalDecoder::new(
                enc.container.metadata.clone(),
                enc.container.stream.final_states.clone(),
                wrong,
            ),
            Err(RecoilError::Decode(_))
        ));
    }
}
