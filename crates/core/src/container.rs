//! One-call encode API and the stream+metadata container.

use crate::metadata::RecoilMetadata;
use crate::planner::SplitPlanner;
use crate::wire::metadata_wire_len;
use recoil_models::{ModelProvider, Symbol};
use recoil_rans::params::INITIAL_STATE;
use recoil_rans::{encode_span, EncodedStream, RansError, WordStream};

/// An encoded bitstream together with its (independent) Recoil metadata.
///
/// The server keeps the Large-variation container and derives per-client
/// metadata with [`crate::try_combine_splits`]; the bitstream bytes never change.
#[derive(Debug, Clone)]
pub struct RecoilContainer {
    /// The interleaved rANS bitstream (+ final states).
    pub stream: EncodedStream,
    /// Split metadata enabling parallel decoding.
    pub metadata: RecoilMetadata,
}

impl RecoilContainer {
    /// Bytes of the bitstream payload alone — the paper's variation (a)
    /// baseline size.
    pub fn stream_bytes(&self) -> u64 {
        self.stream.payload_bytes()
    }

    /// Serialized metadata size in bytes — the Recoil overhead the size
    /// tables report relative to variation (a).
    pub fn metadata_bytes(&self) -> u64 {
        metadata_wire_len(&self.metadata) as u64
    }

    /// Total transfer size: payload + metadata.
    pub fn total_bytes(&self) -> u64 {
        self.stream_bytes() + self.metadata_bytes()
    }
}

/// The one encode path behind every `Codec::encode*`: one pass of the
/// span engine (`recoil_rans::encode_span`, on its vector loop where the
/// host, the model and the symbols allow) over the whole input with the
/// split planner listening to its renorm groups for up to `segments`
/// segments. Byte-identical to the retained per-symbol reference encoder.
pub(crate) fn encode_container<S: Symbol, P: ModelProvider>(
    data: &[S],
    provider: &P,
    ways: u32,
    segments: u64,
) -> Result<RecoilContainer, RansError> {
    let mut planner = SplitPlanner::new(ways, data.len() as u64, segments);
    let mut states = vec![INITIAL_STATE; ways as usize];
    let mut words = WordStream::new();
    encode_span(provider, data, 0, &mut states, &mut words, 0, &mut planner)?;
    // The engine grows `words` by doubling; a stored item keeps this store
    // for as long as it is published.
    words.shrink_to(words.len());
    let metadata = planner.finish(words.len() as u64, provider.quant_bits());
    let stream = EncodedStream {
        words,
        final_states: states,
        num_symbols: data.len() as u64,
        ways,
    };
    Ok(RecoilContainer { stream, metadata })
}

#[cfg(test)]
mod tests {
    use crate::backend::ScalarBackend;
    use crate::codec::Codec;

    #[test]
    fn one_call_encode_decodes_back() {
        let data: Vec<u8> = (0..150_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 22) as u8)
            .collect();
        let codec = Codec::builder().max_segments(16).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        assert_eq!(enc.container.metadata.num_segments(), 16);
        let got: Vec<u8> = codec.decode_with(&ScalarBackend, &enc).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn metadata_bytes_scale_with_segments() {
        let data: Vec<u8> = (0..400_000u32)
            .map(|i| (i.wrapping_mul(747796405) >> 21) as u8)
            .collect();
        let encode = |segments| {
            let codec = Codec::builder().max_segments(segments).build().unwrap();
            codec.encode(&data).unwrap().container
        };
        let small = encode(8);
        let large = encode(128);
        assert_eq!(
            small.stream_bytes(),
            large.stream_bytes(),
            "bitstream is unchanged"
        );
        assert!(large.metadata_bytes() > small.metadata_bytes() * 8);
    }
}
