//! The unified codec facade: a builder-validated encoder and a decode that
//! names its backend.
//!
//! The paper's whole point is that **one** encoded bitstream serves every
//! decoder capability, and the artifact knows nothing of its decoder; this
//! module makes the API match. A [`Codec`] is an encoder configuration —
//! configure it once, encode with it — and each decode names the
//! [`DecodeBackend`] it runs on:
//!
//! ```
//! use recoil_core::backend::AutoBackend;
//! use recoil_core::codec::Codec;
//!
//! let data: Vec<u8> = (0..50_000u32).map(|i| (i % 200) as u8).collect();
//! let codec = Codec::builder()
//!     .ways(32)
//!     .max_segments(64)
//!     .quant_bits(11)
//!     .build()
//!     .unwrap();
//! let encoded = codec.encode(&data).unwrap();
//! let decoded: Vec<u8> = codec
//!     .decode_with(&AutoBackend::with_threads(4), &encoded)
//!     .unwrap();
//! assert_eq!(decoded, data);
//! ```
//!
//! Decoding goes through the object-safe [`DecodeBackend`] trait of
//! [`crate::backend`] — one decode method over one [`DecodeRequest`] — and
//! [`Codec::decode_with`] and [`Codec::decode_with_into`] are a
//! whole-stream request ([`DecodeRequest::whole`]) handed to it; an
//! adaptively modelled stream is that request with
//! [`DecodeModel::Adaptive`], made on the backend directly. Every error on
//! this surface is a typed [`RecoilError`] — configuration mistakes are
//! rejected at [`CodecBuilder::build`], not deep inside a decode loop.

use crate::backend::{CodecSymbol, DecodeBackend, DecodeModel, DecodeRequest};
use crate::container::{encode_container, RecoilContainer};
use crate::error::RecoilError;
use recoil_models::{
    quantize_counts, CdfTable, Histogram, ModelProvider, StaticModelProvider, Symbol,
    MAX_QUANT_BITS,
};

/// Validated encoder configuration: everything the encode side of a
/// [`Codec`] needs, and what the content server's publications accept.
///
/// Lane width, split budget and quantization level are *codec
/// configuration*, not call-site trivia — construct once, reuse everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Interleaved lane count `W` (Table 3 recommends 32, which is also
    /// what the SIMD backends require).
    pub ways: u32,
    /// Maximum parallel segments `M` planned into the metadata. The planner
    /// is best-effort: it may place fewer splits on sparse streams.
    pub max_segments: u64,
    /// Quantization level `n` (frequencies sum to `2^n`, `1..=16`).
    pub quant_bits: u32,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            ways: 32,
            max_segments: 64,
            quant_bits: 11,
        }
    }
}

impl EncoderConfig {
    /// Checks every field, returning the first violation as a typed error.
    pub fn validate(&self) -> Result<(), RecoilError> {
        if self.ways == 0 {
            return Err(RecoilError::config("ways", "lane count must be >= 1"));
        }
        if self.ways > u16::MAX as u32 {
            return Err(RecoilError::config(
                "ways",
                format!(
                    "lane count {} exceeds the wire format's 16-bit field",
                    self.ways
                ),
            ));
        }
        if self.max_segments == 0 {
            return Err(RecoilError::config(
                "max_segments",
                "at least one decode segment is required",
            ));
        }
        if self.quant_bits == 0 || self.quant_bits > MAX_QUANT_BITS {
            return Err(RecoilError::config(
                "quant_bits",
                format!(
                    "quantization level {} outside 1..={MAX_QUANT_BITS}",
                    self.quant_bits
                ),
            ));
        }
        Ok(())
    }
}

/// One encoded payload: the container (bitstream + split metadata) bundled
/// with the static model the codec built for it.
///
/// The model travels with the content because decoding needs it; the
/// paper's size tables exclude it (identical across variations), and the
/// [`RecoilContainer`] inside remains the unit the server stores and the
/// wire format serializes.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Bitstream and split metadata.
    pub container: RecoilContainer,
    /// The static model the payload was encoded with.
    pub model: StaticModelProvider,
    /// Width of the original symbols (8 or 16) — decoding checks it.
    pub symbol_bits: u32,
}

impl Encoded {
    /// Total transfer size: payload + metadata.
    pub fn total_bytes(&self) -> u64 {
        self.container.total_bytes()
    }
}

/// Builder for [`Codec`]; see the module docs for the shape of the API.
pub struct CodecBuilder {
    config: EncoderConfig,
}

impl CodecBuilder {
    /// Sets the interleaved lane count `W` (default 32).
    pub fn ways(mut self, ways: u32) -> Self {
        self.config.ways = ways;
        self
    }

    /// Sets the maximum parallel segments planned into metadata
    /// (default 64).
    pub fn max_segments(mut self, max_segments: u64) -> Self {
        self.config.max_segments = max_segments;
        self
    }

    /// Sets the quantization level `n` (default 11).
    pub fn quant_bits(mut self, quant_bits: u32) -> Self {
        self.config.quant_bits = quant_bits;
        self
    }

    /// Validates the configuration and produces the codec
    /// ([`Codec::from_config`]).
    pub fn build(self) -> Result<Codec, RecoilError> {
        Codec::from_config(self.config)
    }
}

/// A validated, reusable encoder; each decode names its backend.
#[derive(Debug)]
pub struct Codec {
    config: EncoderConfig,
}

impl Codec {
    /// Starts a builder with the default configuration
    /// (`ways = 32`, `max_segments = 64`, `quant_bits = 11`).
    pub fn builder() -> CodecBuilder {
        CodecBuilder {
            config: EncoderConfig::default(),
        }
    }

    /// Codec from a ready-made configuration. Invalid values (`ways == 0`,
    /// `quant_bits > 16`, `max_segments == 0`) are rejected here with
    /// [`RecoilError::InvalidConfig`].
    pub fn from_config(config: EncoderConfig) -> Result<Self, RecoilError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The validated encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Builds the order-0 model over symbols `0..alphabet` that
    /// [`Codec::encode`] and [`Codec::encode_u16`] use, in one pass over the
    /// payload: the support is read off the histogram quantization needs
    /// anyway. Every occurring symbol needs a nonzero quantized frequency,
    /// so a support that cannot fit in `2^quant_bits` is a typed error here
    /// instead of the quantizer's assert.
    fn build_model<S: Symbol>(
        &self,
        data: &[S],
        alphabet: usize,
    ) -> Result<StaticModelProvider, RecoilError> {
        let n = self.config.quant_bits;
        let freqs = if data.is_empty() {
            // A zero-symbol payload still needs a well-formed model for the
            // container; an even two-symbol split satisfies every quantizer
            // invariant at any level n >= 1.
            vec![1 << (n - 1); 2]
        } else {
            let hist = match S::as_bytes(data) {
                Some(bytes) if alphabet == 256 => Histogram::of_bytes(bytes),
                _ => {
                    let mut hist = Histogram::new(alphabet);
                    for &s in data {
                        hist.add(usize::from(s.to_u16()));
                    }
                    hist
                }
            };
            let support = hist.counts().iter().filter(|&&c| c > 0).count();
            if support as u64 > 1u64 << n {
                return Err(RecoilError::config(
                    "quant_bits",
                    format!(
                        "data has {support} distinct symbols but only 2^{n} frequency slots; \
                         raise quant_bits"
                    ),
                ));
            }
            quantize_counts(hist.counts(), n)
        };
        Ok(StaticModelProvider::new(CdfTable::from_freqs(freqs, n)))
    }

    /// Encodes bytes: builds an order-0 static model at the configured
    /// quantization level, encodes one interleaved bitstream, and plans
    /// split metadata for up to `max_segments` parallel decoders.
    pub fn encode(&self, data: &[u8]) -> Result<Encoded, RecoilError> {
        let model = self.build_model(data, 256)?;
        let container = self.encode_with_provider(data, &model)?;
        Ok(Encoded {
            container,
            model,
            symbol_bits: 8,
        })
    }

    /// Encodes 16-bit symbols; the model's alphabet covers `0..=max(data)`.
    pub fn encode_u16(&self, data: &[u16]) -> Result<Encoded, RecoilError> {
        let alphabet = data.iter().max().map_or(0, |&max| usize::from(max) + 1);
        let model = self.build_model(data, alphabet)?;
        let container = self.encode_with_provider(data, &model)?;
        Ok(Encoded {
            container,
            model,
            symbol_bits: 16,
        })
    }

    /// Encodes against a caller-supplied model (the adaptive/hyperprior
    /// path, or a pre-built static model shared across payloads). The
    /// caller keeps the provider; only the container is returned.
    ///
    /// A symbol the model assigns zero frequency — possible exactly here,
    /// where the model does not come from the data — is reported as
    /// [`RecoilError::UnsupportedSymbol`] with its position, instead of the
    /// divide-by-zero this used to hit inside the encode loop.
    pub fn encode_with_provider<S: Symbol, P: ModelProvider>(
        &self,
        data: &[S],
        provider: &P,
    ) -> Result<RecoilContainer, RecoilError> {
        self.check_provider(provider)?;
        encode_container(data, provider, self.config.ways, self.config.max_segments)
            .map_err(RecoilError::from)
    }

    fn check_provider<P: ModelProvider>(&self, provider: &P) -> Result<(), RecoilError> {
        if provider.quant_bits() != self.config.quant_bits {
            return Err(RecoilError::config(
                "quant_bits",
                format!(
                    "model quantizes to 2^{} but the codec is configured for 2^{}",
                    provider.quant_bits(),
                    self.config.quant_bits
                ),
            ));
        }
        Ok(())
    }

    /// Decodes the whole payload on `backend`.
    pub fn decode_with<S: CodecSymbol>(
        &self,
        backend: &dyn DecodeBackend,
        encoded: &Encoded,
    ) -> Result<Vec<S>, RecoilError> {
        let mut out = vec![S::from_u16(0); encoded.container.stream.num_symbols as usize];
        self.decode_with_into(backend, encoded, &mut out)?;
        Ok(out)
    }

    /// [`Codec::decode_with`] into a caller-provided buffer of exactly the
    /// payload's length. Both discard the decode's [`crate::DecodeStats`]:
    /// a codec has no handle to record them in, so a caller that counts
    /// decodes calls [`DecodeBackend::decode`] itself.
    pub fn decode_with_into<S: CodecSymbol>(
        &self,
        backend: &dyn DecodeBackend,
        encoded: &Encoded,
        out: &mut [S],
    ) -> Result<(), RecoilError> {
        if encoded.symbol_bits != S::BITS {
            return Err(RecoilError::config(
                "symbol_bits",
                format!(
                    "payload holds {}-bit symbols but a {}-bit decode was requested",
                    encoded.symbol_bits,
                    S::BITS
                ),
            ));
        }
        let container = &encoded.container;
        let model = DecodeModel::Static(&encoded.model);
        backend.decode(DecodeRequest::whole(
            &container.stream,
            &container.metadata,
            model,
            out,
        )?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AutoBackend, ScalarBackend};
    use recoil_simd::Kernel;

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 22) as u8)
            .collect()
    }

    #[test]
    fn builder_round_trip_scalar_and_pooled() {
        let data = sample(150_000, 1);
        let codec = Codec::builder().max_segments(16).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        assert_eq!(enc.container.metadata.num_segments(), 16);
        let scalar: Vec<u8> = codec.decode_with(&ScalarBackend, &enc).unwrap();
        assert_eq!(scalar, data);
        let pooled: Vec<u8> = codec
            .decode_with(&AutoBackend::fixed(Kernel::Scalar, 4), &enc)
            .unwrap();
        assert_eq!(pooled, data);
    }

    #[test]
    fn invalid_configs_rejected_at_build() {
        assert!(matches!(
            Codec::builder().ways(0).build(),
            Err(RecoilError::InvalidConfig { field: "ways", .. })
        ));
        // The wire formats store `ways` in 16 bits; wider configs must be
        // rejected here, not truncated at serialization time.
        assert!(matches!(
            Codec::builder().ways(70_000).build(),
            Err(RecoilError::InvalidConfig { field: "ways", .. })
        ));
        assert!(matches!(
            Codec::builder().max_segments(0).build(),
            Err(RecoilError::InvalidConfig {
                field: "max_segments",
                ..
            })
        ));
        assert!(matches!(
            Codec::builder().quant_bits(17).build(),
            Err(RecoilError::InvalidConfig {
                field: "quant_bits",
                ..
            })
        ));
        assert!(matches!(
            Codec::builder().quant_bits(0).build(),
            Err(RecoilError::InvalidConfig {
                field: "quant_bits",
                ..
            })
        ));
    }

    #[test]
    fn u16_payloads_round_trip_and_width_is_checked() {
        let data: Vec<u16> = (0..60_000u32).map(|i| (i % 700) as u16).collect();
        let codec = Codec::builder()
            .quant_bits(12)
            .max_segments(8)
            .build()
            .unwrap();
        let enc = codec.encode_u16(&data).unwrap();
        let back: Vec<u16> = codec.decode_with(&ScalarBackend, &enc).unwrap();
        assert_eq!(back, data);
        let wrong: Result<Vec<u8>, _> = codec.decode_with(&ScalarBackend, &enc);
        assert!(matches!(
            wrong,
            Err(RecoilError::InvalidConfig {
                field: "symbol_bits",
                ..
            })
        ));
    }

    #[test]
    fn oversized_alphabet_is_config_error_not_quantizer_panic() {
        // 256 distinct bytes cannot each get a nonzero frequency at n = 7.
        let bytes: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let codec = Codec::builder().quant_bits(7).build().unwrap();
        assert!(matches!(
            codec.encode(&bytes),
            Err(RecoilError::InvalidConfig {
                field: "quant_bits",
                ..
            })
        ));
        // Same for 16-bit payloads whose support exceeds 2^n.
        let wide: Vec<u16> = (0..5000u16).collect();
        let codec = Codec::builder().quant_bits(11).build().unwrap();
        assert!(matches!(
            codec.encode_u16(&wide),
            Err(RecoilError::InvalidConfig {
                field: "quant_bits",
                ..
            })
        ));
    }

    #[test]
    fn empty_payload_round_trips() {
        let codec = Codec::builder().build().unwrap();
        let enc = codec.encode(&[]).unwrap();
        assert_eq!(enc.container.stream.num_symbols, 0);
        let back: Vec<u8> = codec.decode_with(&ScalarBackend, &enc).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn provider_quant_mismatch_is_config_error() {
        let data = sample(10_000, 2);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 12));
        let codec = Codec::builder().quant_bits(11).build().unwrap();
        assert!(matches!(
            codec.encode_with_provider(&data, &model),
            Err(RecoilError::InvalidConfig {
                field: "quant_bits",
                ..
            })
        ));
    }

    #[test]
    fn out_of_alphabet_symbol_is_typed_error_not_panic() {
        // Regression: a release build used to die on a raw divide-by-zero
        // inside the encode loop when a caller-supplied model lacked a
        // symbol present in the data.
        let mut data: Vec<u8> = sample(50_000, 4).iter().map(|&b| b % 64).collect();
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        data[12_345] = 200; // not in the model's support
        let codec = Codec::builder().build().unwrap();
        match codec.encode_with_provider(&data, &model) {
            Err(RecoilError::UnsupportedSymbol { pos, sym }) => {
                assert_eq!((pos, sym), (12_345, 200));
            }
            other => panic!("expected UnsupportedSymbol, got {other:?}"),
        }
    }
}
