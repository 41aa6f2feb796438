//! W-way interleaved rANS (paper §2.2, Figure 1).
//!
//! Lane `j` owns symbol positions `j, j+W, j+2W, ...` (round-robin). During
//! encoding each lane renormalizes — writing at most one u16 word — right
//! before its own encode transform, so the global word order is "increasing
//! lane ID within a symbol group", exactly as Figure 1 shows. Decoding
//! mirrors this lazily: a lane reads its pending renorm word immediately
//! before its next decode transform, which reproduces the reverse global
//! write order word-for-word (see the crate docs for why this discipline is
//! what Recoil's Sync Phase relies on).

use crate::params::{self, INITIAL_STATE};
use crate::sink::RenormSink;
use crate::{EncodedStream, RansError};
use recoil_bitio::WordStream;
use recoil_models::{ModelProvider, Symbol};

/// Group-of-interleaved-lanes rANS encoder.
pub struct InterleavedEncoder<'p, P: ModelProvider> {
    provider: &'p P,
    ways: u64,
    states: Vec<u32>,
    stream: WordStream,
    next_pos: u64,
}

impl<'p, P: ModelProvider> InterleavedEncoder<'p, P> {
    /// New encoder with `ways` lanes (Table 3 recommends 32).
    pub fn new(provider: &'p P, ways: u32) -> Self {
        assert!(ways >= 1, "need at least one lane");
        assert!(provider.quant_bits() <= params::MAX_QUANT_BITS);
        Self {
            provider,
            ways: ways as u64,
            states: vec![INITIAL_STATE; ways as usize],
            stream: WordStream::new(),
            next_pos: 0,
        }
    }

    /// Number of symbols encoded so far.
    pub fn position(&self) -> u64 {
        self.next_pos
    }

    /// Encodes a whole slice through the one bulk encode engine
    /// ([`crate::fast_encode::encode_span`]; its retained reference is
    /// [`crate::fast_encode::encode_span_careful`]). Calls chain: each
    /// continues at [`InterleavedEncoder::position`], and the concatenation
    /// is bit-identical to one call over the whole input.
    ///
    /// # Errors
    ///
    /// [`RansError::ZeroFrequency`] at the first symbol the model gives no
    /// probability mass. On error the encoder is left mid-span and must be
    /// discarded.
    pub fn encode_all_fast<S: Symbol>(
        &mut self,
        data: &[S],
        sink: &mut impl RenormSink,
    ) -> Result<(), RansError> {
        let lo = self.next_pos;
        let word_base = self.stream.len();
        crate::fast_encode::encode_span(
            self.provider,
            data,
            lo,
            &mut self.states,
            self.stream.vec_mut(),
            word_base,
            sink,
        )?;
        self.next_pos = lo + data.len() as u64;
        Ok(())
    }

    /// Finishes, returning the stream container (its words shrunk to fit:
    /// the engine grows them by doubling).
    pub fn finish(self) -> EncodedStream {
        let mut words = self.stream.into_words();
        words.shrink_to_fit();
        EncodedStream {
            words,
            final_states: self.states,
            num_symbols: self.next_pos,
            ways: self.ways as u32,
        }
    }
}

/// Serial decode of a whole interleaved stream (baseline (A),
/// "Single-Thread ... 32-way interleaved rANS").
pub fn decode_interleaved<S: Symbol, P: ModelProvider>(
    stream: &EncodedStream,
    provider: &P,
) -> Result<Vec<S>, RansError> {
    let mut out = vec![S::from_u16(0); stream.num_symbols as usize];
    decode_interleaved_into(stream, provider, &mut out)?;
    Ok(out)
}

/// Serial decode into a caller-provided buffer of exactly `num_symbols`.
pub fn decode_interleaved_into<S: Symbol, P: ModelProvider>(
    stream: &EncodedStream,
    provider: &P,
    out: &mut [S],
) -> Result<(), RansError> {
    stream.validate()?;
    stream.check_output_len(out.len())?;
    let len = out.len();
    stream.tail_span(0, out).advance_scalar(provider, len)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleEncoder;
    use crate::sink::{NullSink, VecSink, NO_SYMBOL};
    use recoil_models::{CdfTable, StaticModelProvider};

    fn provider(data: &[u8], n: u32) -> StaticModelProvider {
        StaticModelProvider::new(CdfTable::of_bytes(data, n))
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| ((i.wrapping_mul(2654435761)) >> 23) as u8)
            .collect()
    }

    #[test]
    fn round_trip_default_ways() {
        let data = sample(100_000);
        let p = provider(&data, 11);
        let mut enc = InterleavedEncoder::new(&p, params::DEFAULT_WAYS);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();
        assert_eq!(stream.ways, 32);
        let back: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn round_trip_many_way_counts_and_lengths() {
        for ways in [1u32, 2, 3, 4, 8, 32, 33] {
            for len in [0usize, 1, 5, 31, 32, 33, 1000, 4097] {
                let data = sample(len);
                if data.is_empty() {
                    let p = provider(b"x", 8);
                    let enc = InterleavedEncoder::new(&p, ways);
                    let stream = enc.finish();
                    let back: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
                    assert!(back.is_empty());
                    continue;
                }
                let p = provider(&data, 10);
                let mut enc = InterleavedEncoder::new(&p, ways);
                enc.encode_all_fast(&data, &mut NullSink).unwrap();
                let stream = enc.finish();
                let back: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
                assert_eq!(back, data, "ways={ways} len={len}");
            }
        }
    }

    #[test]
    fn one_way_interleaved_matches_single_codec() {
        let data = sample(30_000);
        let p = provider(&data, 12);
        let mut a = InterleavedEncoder::new(&p, 1);
        a.encode_all_fast(&data, &mut NullSink).unwrap();
        let sa = a.finish();
        let mut b = SingleEncoder::new(&p);
        b.encode_all(&data, &mut NullSink);
        let sb = b.finish();
        assert_eq!(sa.words, sb.words, "identical bitstreams");
        assert_eq!(sa.final_states, sb.final_states);
    }

    #[test]
    fn events_match_words_one_to_one() {
        let data = sample(64_000);
        let p = provider(&data, 11);
        let mut enc = InterleavedEncoder::new(&p, 32);
        let mut sink = VecSink::new();
        enc.encode_all_fast(&data, &mut sink).unwrap();
        let stream = enc.finish();
        assert_eq!(sink.events.len(), stream.words.len());
        for (k, e) in sink.events.iter().enumerate() {
            assert_eq!(e.offset, k as u64);
            assert!(e.lane < 32);
            if e.pos != NO_SYMBOL {
                // The event's symbol belongs to the event's lane.
                assert_eq!((e.pos % 32) as u32, e.lane);
            }
        }
    }

    #[test]
    fn interleaving_overhead_is_small() {
        // 32 lanes cost at most the final states + per-lane setup vs 1 lane.
        let data = sample(200_000);
        let p = provider(&data, 11);
        let mut one = InterleavedEncoder::new(&p, 1);
        one.encode_all_fast(&data, &mut NullSink).unwrap();
        let s1 = one.finish();
        let mut many = InterleavedEncoder::new(&p, 32);
        many.encode_all_fast(&data, &mut NullSink).unwrap();
        let s32 = many.finish();
        let d = s32.payload_bytes() as i64 - s1.payload_bytes() as i64;
        assert!(
            d.unsigned_abs() < 32 * 8,
            "unexpected interleave overhead: {d} bytes"
        );
    }

    #[test]
    fn decode_into_rejects_wrong_buffer() {
        let data = sample(100);
        let p = provider(&data, 8);
        let mut enc = InterleavedEncoder::new(&p, 4);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();
        let mut small = vec![0u8; 99];
        assert!(decode_interleaved_into(&stream, &p, &mut small).is_err());
    }

    #[test]
    fn adaptive_models_round_trip() {
        use recoil_models::{GaussianScaleBank, LatentModelProvider, LatentSpec};
        use std::sync::Arc;
        let bank = Arc::new(GaussianScaleBank::build(12, 256, 8, 0.5, 32.0));
        let count = 5_000usize;
        let specs: Vec<LatentSpec> = (0..count)
            .map(|i| LatentSpec {
                mean: 1000 + (i % 300) as u16,
                scale_idx: (i % 8) as u8,
            })
            .collect();
        let p = LatentModelProvider::new(bank, specs.clone());
        // Symbols near each position's mean, clamped into the window.
        let data: Vec<u16> = (0..count)
            .map(|i| {
                let d = ((i as i64 * 37) % 41) - 20;
                p.clamp_to_window(specs[i], specs[i].mean as i64 + d)
            })
            .collect();
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();
        let back: Vec<u16> = decode_interleaved(&stream, &p).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn n16_freq1_edge_round_trips() {
        // n = 16 with a frequency-1 symbol triggers the "renorm before a
        // lane's first symbol" edge (pos = NO_SYMBOL events).
        let mut data = vec![0u8; 10_000];
        data[137] = 1; // symbol 1 gets frequency 1 at n=16?-> tiny freq
        let p = provider(&data, 16);
        let mut enc = InterleavedEncoder::new(&p, 32);
        let mut sink = VecSink::new();
        enc.encode_all_fast(&data, &mut sink).unwrap();
        let stream = enc.finish();
        let back: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        assert_eq!(back, data);
    }
}

#[cfg(test)]
mod invariant_tests {
    use super::*;
    use crate::sink::NullSink;
    use recoil_models::{CdfTable, StaticModelProvider};

    /// The linchpin of Recoil's Sync Phase: with the lazy renorm-before-
    /// transform discipline, the decoder's global read order is the exact
    /// reverse of the encoder's write order. We verify it by decoding with
    /// an instrumented reader that records consumed offsets.
    #[test]
    fn decode_read_order_is_reverse_of_write_order() {
        let data: Vec<u8> = (0..40_000u32)
            .map(|i| (i.wrapping_mul(747796405) >> 23) as u8)
            .collect();
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all_fast(&data, &mut NullSink).unwrap();
        let stream = enc.finish();

        let n = p.quant_bits();
        let mask = (1u32 << n) - 1;
        let mut states = stream.final_states.clone();
        let mut reader = recoil_bitio::BackwardWordReader::from_end(&stream.words);
        let mut read_offsets = Vec::new();
        for pos in (0..stream.num_symbols).rev() {
            let lane = (pos % 32) as usize;
            let mut x = states[lane];
            if x < crate::params::LOWER_BOUND {
                read_offsets.push(reader.offset().expect("word available"));
                x = (x << 16) | reader.next().unwrap() as u32;
            }
            let (nx, _s) = crate::step::decode_transform(x, pos, &p, n, mask);
            states[lane] = nx;
        }
        // Every word is read exactly once, in strictly descending offsets.
        assert_eq!(read_offsets.len(), stream.words.len());
        for (k, &off) in read_offsets.iter().enumerate() {
            assert_eq!(off, (stream.words.len() - 1 - k) as u64);
        }
    }

    /// Encoder lane states stay >= L between symbols, so the transmitted
    /// final states are always full (the last decode task needs no sync).
    #[test]
    fn encoder_states_keep_lower_bound_invariant() {
        let data: Vec<u8> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 26) as u8)
            .collect();
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 12));
        let mut enc = InterleavedEncoder::new(&p, 8);
        // In uneven pieces, so states are checked across chained calls too.
        for piece in data.chunks(777) {
            enc.encode_all_fast(piece, &mut NullSink).unwrap();
        }
        let stream = enc.finish();
        assert!(stream
            .final_states
            .iter()
            .all(|&s| s >= crate::params::LOWER_BOUND));
    }
}
