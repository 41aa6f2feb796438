//! The unified codec facade: builder-based encode configuration and
//! pluggable decode backends.
//!
//! The paper's whole point is that **one** encoded bitstream serves every
//! decoder capability; this module makes the API match: callers configure
//! a reusable [`Codec`] once,
//!
//! ```
//! use recoil_core::codec::{Codec, PooledBackend};
//!
//! let data: Vec<u8> = (0..50_000u32).map(|i| (i % 200) as u8).collect();
//! let codec = Codec::builder()
//!     .ways(32)
//!     .max_segments(64)
//!     .quant_bits(11)
//!     .backend(PooledBackend::new(4))
//!     .build()
//!     .unwrap();
//! let encoded = codec.encode(&data).unwrap();
//! let decoded: Vec<u8> = codec.decode(&encoded).unwrap();
//! assert_eq!(decoded, data);
//! ```
//!
//! Decoding goes through the object-safe [`DecodeBackend`] trait:
//! [`ScalarBackend`] and [`PooledBackend`] live here; the SIMD crate adds
//! `Avx2Backend`, `Avx512Backend`, and a runtime-dispatching `AutoBackend`.
//! All of them are the one segment engine ([`crate::decode_segments`]) with
//! a different span kernel and thread pool plugged in, and a backend method
//! always takes a segment range; the whole-stream contract (exact output
//! length, all segments) is added once, in [`DecodeRequest::decode_into`].
//! Every error on this surface is a typed [`RecoilError`] — configuration
//! mistakes are rejected at [`CodecBuilder::build`], not deep inside a
//! decode loop.

use crate::container::{encode_container, RecoilContainer};
use crate::decoder::{decode_segments, ScalarKernel};
use crate::error::RecoilError;
use crate::metadata::RecoilMetadata;
use crate::planner::{Heuristic, PlannerConfig};
use recoil_models::{
    quantize_counts, CdfTable, Histogram, ModelProvider, StaticModelProvider, Symbol,
    MAX_QUANT_BITS,
};
use recoil_parallel::ThreadPool;
use recoil_rans::EncodedStream;
use std::ops::Range;

/// Validated encoder configuration: everything the encode side of a
/// [`Codec`] needs, and what [`crate::…`] server publications accept.
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
    /// Split-candidate scoring strategy (Definition 4.1 by default).
    pub heuristic: Heuristic,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            ways: 32,
            max_segments: 64,
            quant_bits: 11,
            heuristic: Heuristic::default(),
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

    /// The planner configuration this encoder config induces.
    pub fn planner_config(&self) -> PlannerConfig {
        PlannerConfig {
            segments: self.max_segments,
            heuristic: self.heuristic,
        }
    }
}

/// Everything a backend needs to decode one static-model stream.
#[derive(Clone, Copy)]
pub struct DecodeRequest<'a> {
    /// The interleaved rANS bitstream.
    pub stream: &'a EncodedStream,
    /// Split metadata (possibly combined down from the encoded maximum).
    pub metadata: &'a RecoilMetadata,
    /// The static model the stream was encoded with.
    pub model: &'a StaticModelProvider,
}

impl DecodeRequest<'_> {
    /// Decodes the whole stream through `backend` into `out`, which must
    /// hold exactly `stream.num_symbols` symbols.
    ///
    /// This is the one place the whole-stream contract lives: the backend
    /// must be available, the buffer length exact, and every metadata
    /// segment is requested. [`Codec`] and the server/net clients all decode
    /// through it, so every backend reports the same errors.
    pub fn decode_into<S: CodecSymbol>(
        &self,
        backend: &dyn DecodeBackend,
        out: &mut [S],
    ) -> Result<(), RecoilError> {
        ensure_available(backend)?;
        self.stream.check_output_len(out.len())?;
        S::run_backend(backend, self, 0..self.metadata.num_segments(), out)
    }
}

/// An object-safe decode strategy.
///
/// Implementations decide *how* the segment engine runs (serial, thread
/// pool, AVX2/AVX-512 kernels, runtime dispatch); the bitstream and metadata
/// are identical across all of them — that is the paper's decoder-adaptive
/// scalability. Backends must produce bit-exact output; equivalence tests
/// in `tests/` enforce it.
///
/// Every decode method takes a contiguous range of metadata segments and
/// writes each segment's **absolutely indexed** region of `out`
/// (`bounds[m]..bounds[m+1]`), leaving the rest untouched. `out` must cover
/// at least the requested segments' symbols; it may be shorter than the
/// full stream. The stream's `words` may be an incomplete prefix, as long
/// as it covers every word the requested segments read (interior segment
/// `m` needs `splits[m].offset + 1` words; the final segment needs the
/// complete stream) — see [`crate::validate_segment_decode`] for the exact
/// contract. Output must be bit-identical to the matching region of a full
/// decode. For a whole-stream decode use [`DecodeRequest::decode_into`].
pub trait DecodeBackend: Send + Sync {
    /// Stable, lowercase backend name (used in errors and logs).
    fn name(&self) -> &'static str;

    /// True when this backend can run on the current host. Calling a
    /// `decode_*` method on an unavailable backend returns
    /// [`RecoilError::BackendUnavailable`] instead of panicking.
    fn is_available(&self) -> bool {
        true
    }

    /// Independent spans one decode call keeps in flight on this host: its
    /// threads times the interleave depth of its kernel (a thread reaches
    /// the kernel's full rate only on a batch of that many). Callers read
    /// it through [`preferred_segments`].
    fn parallel_spans(&self) -> usize;

    /// Decodes `segments` of a byte stream.
    fn decode_u8(
        &self,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [u8],
    ) -> Result<(), RecoilError>;

    /// Decodes `segments` of a 16-bit-symbol stream.
    fn decode_u16(
        &self,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [u16],
    ) -> Result<(), RecoilError>;

    /// Decodes `segments` of a stream whose model varies per symbol
    /// position (the hyperprior/latents path). Per-symbol model indirection
    /// defeats flat gathers, so every backend runs the scalar span kernel
    /// here — on its own thread pool, if it has one.
    fn decode_adaptive(
        &self,
        stream: &EncodedStream,
        metadata: &RecoilMetadata,
        provider: &dyn ModelProvider,
        segments: Range<u64>,
        out: &mut [u16],
    ) -> Result<(), RecoilError>;
}

/// [`DecodeBackend::is_available`] as a typed result, for call sites that
/// refuse an unavailable backend up front.
pub fn ensure_available(backend: &dyn DecodeBackend) -> Result<(), RecoilError> {
    if backend.is_available() {
        return Ok(());
    }
    Err(RecoilError::BackendUnavailable {
        backend: backend.name(),
    })
}

/// The decoder's capability — the segment count it should ask a server
/// for, and the batch a streaming receiver should let accumulate before it
/// dispatches: [`DecodeBackend::parallel_spans`], never below one. Fewer
/// segments leave threads or kernel lanes idle; more are metadata bytes
/// that buy nothing (the paper's decoder-adaptive point, with the number
/// being threads × kernel depth rather than threads).
pub fn preferred_segments(backend: &dyn DecodeBackend) -> u64 {
    backend.parallel_spans().max(1) as u64
}

/// The segment engine with the scalar span kernel ([`ScalarKernel`])
/// plugged in: what the scalar and
/// pooled backends run, and what every backend runs for adaptive models.
///
/// Generic over the provider on purpose: backends that hold a concrete
/// [`StaticModelProvider`] get a monomorphized decode loop whose LUT
/// lookup inlines into the fast loop (`recoil_rans::fast`), while the
/// adaptive path can still pass `&dyn ModelProvider`.
pub fn decode_segments_pooled<S: Symbol, P: ModelProvider + ?Sized>(
    stream: &EncodedStream,
    metadata: &RecoilMetadata,
    provider: &P,
    pool: Option<&ThreadPool>,
    segments: Range<u64>,
    out: &mut [S],
) -> Result<(), RecoilError> {
    let kernel = ScalarKernel(provider);
    decode_segments(stream, metadata, provider, pool, segments, out, &kernel)
        .map_err(RecoilError::from)
}

/// Whole-stream [`decode_segments_pooled`] for callers that hold a stream,
/// metadata and an arbitrary model provider rather than an [`Encoded`]:
/// `out` must hold exactly `stream.num_symbols` symbols.
pub fn decode_pooled<S: Symbol, P: ModelProvider + ?Sized>(
    stream: &EncodedStream,
    metadata: &RecoilMetadata,
    provider: &P,
    pool: Option<&ThreadPool>,
    out: &mut [S],
) -> Result<(), RecoilError> {
    stream.check_output_len(out.len())?;
    let all = 0..metadata.num_segments();
    decode_segments_pooled(stream, metadata, provider, pool, all, out)
}

/// Serial reference backend: always available, no threads, no SIMD.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarBackend;

impl DecodeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn parallel_spans(&self) -> usize {
        1
    }

    fn decode_u8(
        &self,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [u8],
    ) -> Result<(), RecoilError> {
        decode_segments_pooled(req.stream, req.metadata, req.model, None, segments, out)
    }

    fn decode_u16(
        &self,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [u16],
    ) -> Result<(), RecoilError> {
        decode_segments_pooled(req.stream, req.metadata, req.model, None, segments, out)
    }

    fn decode_adaptive(
        &self,
        stream: &EncodedStream,
        metadata: &RecoilMetadata,
        provider: &dyn ModelProvider,
        segments: Range<u64>,
        out: &mut [u16],
    ) -> Result<(), RecoilError> {
        decode_segments_pooled(stream, metadata, provider, None, segments, out)
    }
}

/// Thread-pool backend: one decode task per metadata segment, dynamically
/// balanced over a persistent [`ThreadPool`].
pub struct PooledBackend {
    pool: ThreadPool,
}

impl PooledBackend {
    /// Backend decoding on `threads` threads (`threads - 1` workers plus
    /// the calling thread).
    pub fn new(threads: usize) -> Self {
        Self {
            pool: ThreadPool::new(threads.saturating_sub(1)),
        }
    }

    /// Backend sized to the machine's logical CPU count.
    pub fn with_default_parallelism() -> Self {
        Self {
            pool: ThreadPool::with_default_parallelism(),
        }
    }

    /// Wraps an existing pool.
    pub fn from_pool(pool: ThreadPool) -> Self {
        Self { pool }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }
}

impl DecodeBackend for PooledBackend {
    fn name(&self) -> &'static str {
        "pooled"
    }

    fn parallel_spans(&self) -> usize {
        self.pool.threads()
    }

    fn decode_u8(
        &self,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [u8],
    ) -> Result<(), RecoilError> {
        let pool = Some(&self.pool);
        decode_segments_pooled(req.stream, req.metadata, req.model, pool, segments, out)
    }

    fn decode_u16(
        &self,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [u16],
    ) -> Result<(), RecoilError> {
        let pool = Some(&self.pool);
        decode_segments_pooled(req.stream, req.metadata, req.model, pool, segments, out)
    }

    fn decode_adaptive(
        &self,
        stream: &EncodedStream,
        metadata: &RecoilMetadata,
        provider: &dyn ModelProvider,
        segments: Range<u64>,
        out: &mut [u16],
    ) -> Result<(), RecoilError> {
        decode_segments_pooled(stream, metadata, provider, Some(&self.pool), segments, out)
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
}

/// Symbol types the [`Codec`] facade can route through a boxed
/// [`DecodeBackend`] (the backend trait is object-safe, so dispatch by
/// symbol width happens here instead of via generic trait methods).
pub trait CodecSymbol: Symbol + sealed::Sealed {
    /// Routes a segment-range decode to the width-matching backend entry
    /// point.
    fn run_backend(
        backend: &dyn DecodeBackend,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [Self],
    ) -> Result<(), RecoilError>;
}

impl CodecSymbol for u8 {
    fn run_backend(
        backend: &dyn DecodeBackend,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [Self],
    ) -> Result<(), RecoilError> {
        backend.decode_u8(req, segments, out)
    }
}

impl CodecSymbol for u16 {
    fn run_backend(
        backend: &dyn DecodeBackend,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: &mut [Self],
    ) -> Result<(), RecoilError> {
        backend.decode_u16(req, segments, out)
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
    /// Payload bytes of the bitstream alone (variation (a) baseline).
    pub fn stream_bytes(&self) -> u64 {
        self.container.stream_bytes()
    }

    /// Serialized metadata size in bytes.
    pub fn metadata_bytes(&self) -> u64 {
        self.container.metadata_bytes()
    }

    /// Total transfer size: payload + metadata.
    pub fn total_bytes(&self) -> u64 {
        self.container.total_bytes()
    }
}

/// Builder for [`Codec`]; see the module docs for the shape of the API.
pub struct CodecBuilder {
    config: EncoderConfig,
    backend: Option<Box<dyn DecodeBackend>>,
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

    /// Sets the split-candidate scoring strategy (default
    /// [`Heuristic::SyncAware`]).
    pub fn heuristic(mut self, heuristic: Heuristic) -> Self {
        self.config.heuristic = heuristic;
        self
    }

    /// Replaces the whole encoder configuration at once.
    pub fn encoder_config(mut self, config: EncoderConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the decode backend (default [`ScalarBackend`]).
    pub fn backend(mut self, backend: impl DecodeBackend + 'static) -> Self {
        self.backend = Some(Box::new(backend));
        self
    }

    /// Validates the configuration and produces the codec.
    ///
    /// Invalid values (`ways == 0`, `quant_bits > 16`, `max_segments == 0`)
    /// are rejected here with [`RecoilError::InvalidConfig`]; an explicitly
    /// chosen backend that cannot run on this host is rejected with
    /// [`RecoilError::BackendUnavailable`].
    pub fn build(self) -> Result<Codec, RecoilError> {
        self.config.validate()?;
        let backend = self.backend.unwrap_or_else(|| Box::new(ScalarBackend));
        ensure_available(backend.as_ref())?;
        Ok(Codec {
            config: self.config,
            backend,
        })
    }
}

/// A validated, reusable encode/decode pipeline.
pub struct Codec {
    config: EncoderConfig,
    backend: Box<dyn DecodeBackend>,
}

impl Codec {
    /// Starts a builder with the default configuration
    /// (`ways = 32`, `max_segments = 64`, `quant_bits = 11`,
    /// sync-aware heuristic, scalar backend).
    pub fn builder() -> CodecBuilder {
        CodecBuilder {
            config: EncoderConfig::default(),
            backend: None,
        }
    }

    /// Codec from a ready-made configuration and the default scalar
    /// backend.
    pub fn from_config(config: EncoderConfig) -> Result<Self, RecoilError> {
        Self::builder().encoder_config(config).build()
    }

    /// The validated encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The decode backend `decode`/`decode_into` dispatch to.
    pub fn backend(&self) -> &dyn DecodeBackend {
        self.backend.as_ref()
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
        encode_container(
            data,
            provider,
            self.config.ways,
            self.config.planner_config(),
        )
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

    /// Decodes through the codec's configured backend.
    pub fn decode<S: CodecSymbol>(&self, encoded: &Encoded) -> Result<Vec<S>, RecoilError> {
        self.decode_with(self.backend.as_ref(), encoded)
    }

    /// Decodes into a caller-provided buffer through the configured
    /// backend.
    pub fn decode_into<S: CodecSymbol>(
        &self,
        encoded: &Encoded,
        out: &mut [S],
    ) -> Result<(), RecoilError> {
        self.decode_with_into(self.backend.as_ref(), encoded, out)
    }

    /// Decodes through an explicit backend — the per-call escape hatch for
    /// callers juggling several capabilities at once.
    pub fn decode_with<S: CodecSymbol>(
        &self,
        backend: &dyn DecodeBackend,
        encoded: &Encoded,
    ) -> Result<Vec<S>, RecoilError> {
        let mut out = vec![S::from_u16(0); encoded.container.stream.num_symbols as usize];
        self.decode_with_into(backend, encoded, &mut out)?;
        Ok(out)
    }

    /// [`Codec::decode_with`] into a caller-provided buffer.
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
        let req = DecodeRequest {
            stream: &encoded.container.stream,
            metadata: &encoded.container.metadata,
            model: &encoded.model,
        };
        req.decode_into(backend, out)
    }

    /// Decodes an adaptively modelled stream (per-position models) through
    /// the configured backend's adaptive path.
    pub fn decode_adaptive(
        &self,
        stream: &EncodedStream,
        metadata: &RecoilMetadata,
        provider: &dyn ModelProvider,
    ) -> Result<Vec<u16>, RecoilError> {
        let mut out = vec![0u16; stream.num_symbols as usize];
        let all = 0..metadata.num_segments();
        self.backend
            .decode_adaptive(stream, metadata, provider, all, &mut out)?;
        Ok(out)
    }
}

impl std::fmt::Debug for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Codec")
            .field("config", &self.config)
            .field("backend", &self.backend.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let scalar: Vec<u8> = codec.decode(&enc).unwrap();
        assert_eq!(scalar, data);
        let pooled: Vec<u8> = codec.decode_with(&PooledBackend::new(4), &enc).unwrap();
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
        let back: Vec<u16> = codec.decode(&enc).unwrap();
        assert_eq!(back, data);
        let wrong: Result<Vec<u8>, _> = codec.decode(&enc);
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
        let back: Vec<u8> = codec.decode(&enc).unwrap();
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
