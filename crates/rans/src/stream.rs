//! The encoded-stream container shared by all decoders.

use crate::params;

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
    /// Lane (0-based) that owns the symbol at 0-based position `pos`.
    #[inline(always)]
    pub fn lane_of(&self, pos: u64) -> u32 {
        (pos % self.ways as u64) as u32
    }

    /// Backward read cursor positioned at the end of the word stream —
    /// the `next_read` a whole-stream [`crate::decode_span`] starts from
    /// (`None` when the stream carries no words).
    #[inline]
    pub fn end_cursor(&self) -> Option<u64> {
        (!self.words.is_empty()).then(|| self.words.len() as u64 - 1)
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
    fn lane_mapping_is_round_robin() {
        let s = stream(4, 4);
        assert_eq!(s.lane_of(0), 0);
        assert_eq!(s.lane_of(3), 3);
        assert_eq!(s.lane_of(4), 0);
        assert_eq!(s.lane_of(9), 1);
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
}
