//! The encoded-stream container shared by all decoders.

use crate::params;
use crate::span::{LaneStates, Span};

/// Output of an interleaved rANS encode: the forward-written u16 word
/// stream, the final lane states, and the symbol count.
///
/// This corresponds to the paper's variation (a) payload: "standard rANS
/// bitstream". Recoil's split metadata is carried *separately* (§4: "Recoil
/// does not actually modify the rANS bitstream, but instead works on
/// independent metadata").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedStream {
    /// Renormalization words in write order; decoded back-to-front.
    pub words: Vec<u16>,
    /// State of each lane after its last symbol (read first when decoding).
    pub final_states: Vec<u32>,
    /// Number of symbols `N` encoded in the stream.
    pub num_symbols: u64,
    /// Interleave width `W` the stream was produced with.
    pub ways: u32,
}

impl EncodedStream {
    /// Backward read cursor positioned at the end of the word stream —
    /// the cursor a whole-stream [`Span`] starts from
    /// (`None` when the stream carries no words).
    #[inline]
    pub fn end_cursor(&self) -> Option<u64> {
        (!self.words.is_empty()).then(|| self.words.len() as u64 - 1)
    }

    /// The span that decodes from the stream's tail: the transmitted final
    /// states and the end cursor, for positions `lo .. lo + out.len()`
    /// (`lo = 0` and a full-length `out` make it the whole stream).
    pub fn tail_span<'a, S>(&'a self, lo: u64, out: &'a mut [S]) -> Span<'a, S> {
        Span {
            words: &self.words,
            cursor: self.end_cursor(),
            states: LaneStates::from(&self.final_states[..]),
            lo,
            out,
        }
    }

    /// Payload bytes as counted in the paper's size tables: words plus the
    /// explicitly transmitted final states plus the fixed header
    /// (symbol count + lane count + quantization byte).
    pub fn payload_bytes(&self) -> u64 {
        self.words.len() as u64 * 2 + self.final_states.len() as u64 * 4 + Self::HEADER_BYTES
    }

    /// Fixed header cost: u64 symbol count, u32 word count, u8 ways, u8 n,
    /// u16 reserved.
    pub const HEADER_BYTES: u64 = 8 + 4 + 1 + 1 + 2;

    /// The whole-stream decode contract: the output buffer holds exactly
    /// `num_symbols` entries. Every whole-stream entry point reports a
    /// mismatch through this one message.
    pub fn check_output_len(&self, out_len: usize) -> Result<(), crate::RansError> {
        if out_len as u64 != self.num_symbols {
            return Err(crate::RansError::MalformedStream(format!(
                "output buffer holds {out_len} symbols, stream has {}",
                self.num_symbols
            )));
        }
        Ok(())
    }

    /// Validates the basic invariants shared by every decoder.
    pub fn validate(&self) -> Result<(), crate::RansError> {
        if self.ways == 0 {
            return Err(crate::RansError::MalformedStream(
                "ways must be >= 1".into(),
            ));
        }
        if self.final_states.len() != self.ways as usize {
            return Err(crate::RansError::MalformedStream(format!(
                "{} final states for {} lanes",
                self.final_states.len(),
                self.ways
            )));
        }
        if self.final_states.iter().any(|&s| s < params::LOWER_BOUND) {
            return Err(crate::RansError::MalformedStream(
                "final state below lower bound".into(),
            ));
        }
        Ok(())
    }
}

/// Appends the wire image of `words` to `dst`: each word as two
/// little-endian bytes, in stream order.
///
/// Every byte format that carries the bitstream (chunk frames, the
/// container file, the payload CRC) uses this image, and [`land_words_le`]
/// is its inverse: the byte order is decided in these two. On a
/// little-endian target this is a block copy, and landing copies nothing.
pub fn append_words_le(dst: &mut Vec<u8>, words: &[u16]) {
    let start = dst.len();
    dst.resize(start + words.len() * 2, 0);
    for (pair, w) in dst[start..].chunks_exact_mut(2).zip(words) {
        pair.copy_from_slice(&w.to_le_bytes());
    }
}

/// Grows `words` by `n` zeroed words and hands their bytes to `fill`, then
/// reads what it wrote as the wire image (the inverse of
/// [`append_words_le`]): received bytes land where the words stay. A failed
/// fill truncates `words` back, so a torn or refused body leaves nothing.
pub fn land_words_le<E>(
    words: &mut Vec<u16>,
    n: usize,
    fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<(), E> {
    let start = words.len();
    words.resize(start + n, 0);
    if let Err(e) = fill(bytes_of_mut(&mut words[start..])) {
        words.truncate(start);
        return Err(e);
    }
    for w in &mut words[start..] {
        *w = u16::from_le(*w);
    }
    Ok(())
}

/// The memory of `words` as bytes, for as long as the words are borrowed.
fn bytes_of_mut(words: &mut [u16]) -> &mut [u8] {
    // SAFETY: the view is exactly the memory of `words` (initialized, and
    // `2 * len` bytes of one allocation) and holds its unique borrow for
    // its whole life. `u8` has alignment 1, and any bytes are a valid `u16`.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), 2 * words.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(ways: u32, states: usize) -> EncodedStream {
        EncodedStream {
            words: vec![0; 4],
            final_states: vec![params::INITIAL_STATE; states],
            num_symbols: 10,
            ways,
        }
    }

    #[test]
    fn payload_accounts_words_states_header() {
        let s = stream(2, 2);
        assert_eq!(
            s.payload_bytes(),
            4 * 2 + 2 * 4 + EncodedStream::HEADER_BYTES
        );
    }

    #[test]
    fn validation_rejects_bad_streams() {
        assert!(stream(0, 0).validate().is_err());
        assert!(stream(4, 3).validate().is_err());
        let mut s = stream(2, 2);
        s.final_states[1] = 5; // below L
        assert!(s.validate().is_err());
        assert!(stream(2, 2).validate().is_ok());
    }

    fn ramp(n: usize) -> Vec<u16> {
        (0..n)
            .map(|i| (i as u16).wrapping_mul(0x9E37) ^ 0x0102)
            .collect()
    }

    /// Lands `bytes` (a whole-word image) onto `words` through the routine.
    fn land(words: &mut Vec<u16>, bytes: &[u8]) {
        land_words_le(words, bytes.len() / 2, |dst| {
            dst.copy_from_slice(bytes);
            Ok::<(), ()>(())
        })
        .unwrap();
    }

    #[test]
    fn wire_image_round_trips_at_block_copy_edges() {
        for n in [0usize, 1, 2, 31, 32, 33, 65_537] {
            let words = ramp(n);
            let mut bytes = Vec::new();
            append_words_le(&mut bytes, &words);
            assert_eq!(bytes.len(), n * 2);
            // The image is little-endian whatever the host is.
            for (pair, w) in bytes.chunks_exact(2).zip(&words) {
                assert_eq!(pair, w.to_le_bytes());
            }
            let mut back = Vec::new();
            land(&mut back, &bytes);
            assert_eq!(back, words, "{n} words");
        }
    }

    #[test]
    fn appending_preserves_the_destination() {
        for n in 0..=64 {
            let words = ramp(n);
            let mut bytes = vec![0xAA, 0xBB, 0xCC];
            append_words_le(&mut bytes, &words);
            assert_eq!(&bytes[..3], [0xAA, 0xBB, 0xCC], "{n} words");
            let mut back = vec![7u16, 8];
            land(&mut back, &bytes[3..]);
            assert_eq!(back[..2], [7, 8], "{n} words");
            assert_eq!(back[2..], words, "{n} words");
        }
    }

    #[test]
    fn a_failed_fill_truncates_back() {
        let words = ramp(40);
        let mut got = words[..3].to_vec();
        let capacity = got.capacity();
        let err = land_words_le(&mut got, 37, |dst| {
            assert_eq!(dst.len(), 74, "the fill sees the new words' bytes");
            assert!(dst.iter().all(|&b| b == 0), "zeroed, never uninitialized");
            // A torn fill: half the bytes arrive, then the source fails.
            dst[..37].fill(0xEE);
            Err("torn")
        });
        assert_eq!(err, Err("torn"));
        assert_eq!(got, words[..3], "nothing of the torn fill is left");
        assert!(got.capacity() >= capacity);
        // The store lands the next fill where the failed one began.
        let mut bytes = Vec::new();
        append_words_le(&mut bytes, &words[3..]);
        land(&mut got, &bytes);
        assert_eq!(got, words);
    }
}
