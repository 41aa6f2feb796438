//! Reference non-interleaved rANS codec — a direct transcription of
//! Equations 1–4, used by the paper's §3 proof-of-concept (Figure 4) and by
//! our tests as an independent cross-check of the interleaved codec
//! (`W = 1` interleaved must match it word-for-word).

use crate::params::{self, INITIAL_STATE};
use crate::sink::{RenormGroup, RenormSink};
use crate::step::{decode_transform, renorm_read};
use crate::{EncodedStream, RansError};
use recoil_bitio::{BackwardWordReader, WordStream};
use recoil_models::{ModelProvider, Symbol};

/// Single-state rANS encoder.
#[doc(hidden)]
pub struct SingleEncoder<'p, P: ModelProvider> {
    provider: &'p P,
    n: u32,
    state: u32,
    stream: WordStream,
    next_pos: u64,
}

impl<'p, P: ModelProvider> SingleEncoder<'p, P> {
    /// New encoder starting at the canonical initial state.
    pub fn new(provider: &'p P) -> Self {
        let n = provider.quant_bits();
        assert!(n <= params::MAX_QUANT_BITS);
        Self {
            provider,
            n,
            state: INITIAL_STATE,
            stream: WordStream::new(),
            next_pos: 0,
        }
    }

    /// Encodes one symbol (Eq. 3 renormalization, then Eq. 1 transform).
    #[inline]
    pub fn encode<S: Symbol>(&mut self, sym: S, sink: &mut impl RenormSink) {
        let pos = self.next_pos;
        let (f, c) = self.provider.stats(pos, sym.to_u16());
        debug_assert!(f > 0, "encoding a zero-frequency symbol at position {pos}");
        let mut x = self.state;
        if (x as u64) >= params::renorm_threshold(f, self.n) {
            let mut renormed = [0; crate::fast::GROUP];
            renormed[0] = x;
            let offset = self.stream.push((x & 0xFFFF) as u16);
            x >>= params::RENORM_BITS;
            debug_assert!(x < params::LOWER_BOUND, "one-step renorm violated");
            sink.on_group(RenormGroup {
                first_pos: pos,
                ways: 1,
                mask: 1,
                offset,
                renormed: &renormed,
            });
        }
        self.state = ((x / f) << self.n) + c + (x % f);
        self.next_pos = pos + 1;
    }

    /// Encodes a whole slice.
    pub fn encode_all<S: Symbol>(&mut self, data: &[S], sink: &mut impl RenormSink) {
        for &s in data {
            self.encode(s, sink);
        }
    }

    /// Finishes, returning the stream container (a `ways = 1` stream).
    pub fn finish(self) -> EncodedStream {
        EncodedStream {
            words: self.stream.into_words(),
            final_states: vec![self.state],
            num_symbols: self.next_pos,
            ways: 1,
        }
    }
}

/// Decodes a single-state stream produced by [`SingleEncoder`].
#[doc(hidden)]
pub fn decode_single<S: Symbol, P: ModelProvider>(
    stream: &EncodedStream,
    provider: &P,
) -> Result<Vec<S>, RansError> {
    stream.validate()?;
    if stream.ways != 1 {
        return Err(RansError::MalformedStream(format!(
            "decode_single on a {}-way stream",
            stream.ways
        )));
    }
    let n = provider.quant_bits();
    let mask = (1u32 << n) - 1;
    let mut x = stream.final_states[0];
    let mut reader = BackwardWordReader::from_end(&stream.words);
    let count = stream.num_symbols as usize;
    let mut out = vec![S::from_u16(0); count];
    for pos in (0..count as u64).rev() {
        x = renorm_read(x, &mut reader, pos)?;
        let (nx, sym) = decode_transform(x, pos, provider, n, mask);
        x = nx;
        out[pos as usize] = S::from_u16(sym);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NullSink, VecSink, NO_SYMBOL};
    use recoil_models::{CdfTable, StaticModelProvider};

    fn provider(data: &[u8], n: u32) -> StaticModelProvider {
        StaticModelProvider::new(CdfTable::of_bytes(data, n))
    }

    #[test]
    fn round_trip_small() {
        let data = b"hello rans world, hello again".to_vec();
        let p = provider(&data, 8);
        let mut enc = SingleEncoder::new(&p);
        enc.encode_all(&data, &mut NullSink);
        let stream = enc.finish();
        let back: Vec<u8> = decode_single(&stream, &p).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn round_trip_various_n() {
        let data: Vec<u8> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        for n in [8u32, 10, 11, 12, 14, 16] {
            let p = provider(&data, n);
            let mut enc = SingleEncoder::new(&p);
            enc.encode_all(&data, &mut NullSink);
            let stream = enc.finish();
            let back: Vec<u8> = decode_single(&stream, &p).unwrap();
            assert_eq!(back, data, "n={n}");
        }
    }

    #[test]
    fn compressed_size_tracks_entropy() {
        // Skewed distribution: size must be well under 1 byte/symbol and
        // within a few percent of the quantized cross-entropy.
        let mut data = vec![0u8; 100_000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = if i % 10 == 0 { (i % 7) as u8 + 1 } else { 0 };
        }
        let p = provider(&data, 12);
        let mut enc = SingleEncoder::new(&p);
        enc.encode_all(&data, &mut NullSink);
        let stream = enc.finish();
        let h = recoil_models::Histogram::of_bytes(&data);
        let ideal_bits = p.table().cross_entropy_bits(&h);
        let actual_bits = stream.words.len() as f64 * 16.0;
        assert!(
            actual_bits < ideal_bits * 1.02 + 64.0,
            "{actual_bits} vs ideal {ideal_bits}"
        );
        assert!(actual_bits > ideal_bits * 0.98 - 64.0);
    }

    #[test]
    fn renorm_events_have_bounded_states_and_ordered_offsets() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 256) as u8).collect();
        let p = provider(&data, 11);
        let mut enc = SingleEncoder::new(&p);
        let mut sink = VecSink::new();
        enc.encode_all(&data, &mut sink);
        let stream = enc.finish();
        assert_eq!(sink.events.len(), stream.words.len(), "one event per word");
        for (k, e) in sink.events.iter().enumerate() {
            assert_eq!(e.offset, k as u64);
            assert_eq!(e.lane, 0);
            // state is u16 by construction; also check against Lemma 3.1.
            assert!((e.state as u32) < params::LOWER_BOUND);
        }
        // Event positions are non-decreasing.
        for w in sink.events.windows(2) {
            assert!(w[0].pos <= w[1].pos || w[0].pos == NO_SYMBOL);
        }
    }

    #[test]
    fn figure4_style_intermediate_decode() {
        // The §3 proof of concept: restart decoding from a recorded renorm
        // event and recover the suffix that event covers.
        let data: Vec<u8> = (0..10_000u32).map(|i| ((i * 31) % 200) as u8).collect();
        let p = provider(&data, 11);
        let mut enc = SingleEncoder::new(&p);
        let mut sink = VecSink::new();
        enc.encode_all(&data, &mut sink);
        let stream = enc.finish();

        // Pick an event near the middle with a concrete position.
        let e = sink
            .events
            .iter()
            .find(|e| e.pos != NO_SYMBOL && e.pos >= 5_000)
            .copied()
            .expect("mid-stream renorm event");

        // Thread-1 style decode: start from the recorded state, renormalize
        // with the word at the recorded offset, then decode s_pos .. s_0.
        let n = p.quant_bits();
        let mask = (1u32 << n) - 1;
        let mut x = e.state as u32;
        let mut reader = BackwardWordReader::new(&stream.words, e.offset);
        let mut got = vec![0u8; (e.pos + 1) as usize];
        for pos in (0..=e.pos).rev() {
            x = renorm_read(x, &mut reader, pos).unwrap();
            let (nx, sym) = decode_transform(x, pos, &p, n, mask);
            x = nx;
            got[pos as usize] = sym as u8;
        }
        assert_eq!(&got[..], &data[..=e.pos as usize]);
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let data = vec![7u8; 1000];
        let p = provider(b"mixed content 777", 8);
        // Build a stream then truncate its words.
        let data2: Vec<u8> = data.iter().map(|_| b'7').collect();
        let mut enc = SingleEncoder::new(&p);
        enc.encode_all(&data2, &mut NullSink);
        let mut stream = enc.finish();
        if !stream.words.is_empty() {
            stream.words.truncate(stream.words.len() / 2);
        }
        let r: Result<Vec<u8>, _> = decode_single(&stream, &p);
        // Either decodes garbage of right length (if no underflow was hit)
        // or reports underflow; it must never panic. Underflow expected for
        // this input.
        if let Err(e) = r {
            assert!(matches!(e, RansError::BitstreamUnderflow { .. }));
        }
    }
}
