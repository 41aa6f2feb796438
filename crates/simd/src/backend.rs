//! SIMD [`DecodeBackend`] implementations plugging the AVX2/AVX-512 kernels
//! into the `recoil_core::codec` facade.
//!
//! There is one decode body, `decode_static`: it picks a [`Kernel`] for
//! the stream and hands the matching span kernel to the segment engine
//! (`recoil_core::decode_segments`), which owns validation, the scalar
//! Synchronization Phase, the batching, the thread split and telemetry.
//! The three public backends differ only in how the kernel is picked.
//!
//! ## Backend selection semantics
//!
//! * [`Avx2Backend`] / [`Avx512Backend`] run their kernel or fail: decoding
//!   on a host without the CPU feature returns
//!   [`RecoilError::BackendUnavailable`] (and `is_available()` reports it
//!   up front, so [`recoil_core::codec::CodecBuilder::build`] rejects the
//!   configuration early).
//! * [`AutoBackend`] dispatches at decode time in the order
//!   **AVX-512 → AVX2 → scalar**: the best kernel the CPU supports wins,
//!   and when neither vector extension is present it degrades to the
//!   scalar span kernel rather than erroring — one binary serves every
//!   host.
//! * The vector kernels are built for the paper's 32-way interleave and
//!   static models. For non-32-way streams [`AutoBackend`] falls back to
//!   the scalar kernel, while the explicit AVX backends report the stream
//!   as malformed. Adaptive (per-position-model) decodes always take the
//!   scalar kernel — per-symbol model indirection defeats flat gathers.
//!
//! All backends optionally carry a [`ThreadPool`], in which case decode
//! tasks — batches of up to [`Kernel::interleave_depth`] adjacent segments,
//! fewer when that would leave a thread idle — are distributed across it;
//! the kernels then run *inside* each task, the batch's spans interleaved.

use crate::driver::{decode_spans, require_32_ways};
use crate::kernel::Kernel;
use recoil_core::codec::{decode_segments_pooled, DecodeBackend, DecodeRequest};
use recoil_core::{decode_segments, RecoilError, RecoilMetadata, SpanKernel};
use recoil_models::{ModelProvider, StaticModelProvider, Symbol};
use recoil_parallel::ThreadPool;
use recoil_rans::{EncodedStream, RansError, Span, SpanStats};
use std::ops::Range;

/// How a backend picks its kernel.
#[derive(Clone, Copy)]
enum Select {
    /// This kernel or an error.
    Fixed(Kernel),
    /// The best kernel the host and the stream allow.
    Auto,
}

impl Select {
    fn is_available(self) -> bool {
        match self {
            Select::Fixed(kernel) => kernel.is_available(),
            Select::Auto => true,
        }
    }

    /// Interleave depth of the kernel a 32-way stream decodes with here.
    fn depth(self) -> usize {
        match self {
            Select::Fixed(kernel) => kernel.interleave_depth(),
            Select::Auto => Kernel::best().interleave_depth(),
        }
    }

    /// The kernel a `ways`-way stream decodes with.
    fn kernel(self, name: &'static str, ways: u32) -> Result<Kernel, RecoilError> {
        match self {
            Select::Auto => Ok(auto_kernel(ways)),
            Select::Fixed(kernel) if !kernel.is_available() => {
                Err(RecoilError::BackendUnavailable { backend: name })
            }
            Select::Fixed(kernel) => {
                require_32_ways(ways)?;
                Ok(kernel)
            }
        }
    }
}

/// The best kernel this host has for a `ways`-way stream.
fn auto_kernel(ways: u32) -> Kernel {
    if ways == crate::SIMD_WAYS {
        Kernel::best()
    } else {
        Kernel::Scalar
    }
}

/// [`decode_spans`] as the segment engine's kernel.
struct VectorKernel<'a> {
    kernel: Kernel,
    model: &'a StaticModelProvider,
}

impl<S: Symbol> SpanKernel<S> for VectorKernel<'_> {
    fn depth(&self) -> usize {
        self.kernel.interleave_depth()
    }

    fn decode_batch(&self, spans: &mut [Span<'_, S>]) -> Result<SpanStats, RansError> {
        decode_spans(self.kernel, self.model, spans)
    }
}

/// The decode body of every SIMD backend.
fn decode_static<S: Symbol>(
    select: Select,
    name: &'static str,
    pool: Option<&ThreadPool>,
    req: &DecodeRequest<'_>,
    segments: Range<u64>,
    out: &mut [S],
) -> Result<(), RecoilError> {
    let (stream, model) = (req.stream, req.model);
    let kernel = VectorKernel {
        kernel: select.kernel(name, stream.ways)?,
        model,
    };
    decode_segments(stream, req.metadata, model, pool, segments, out, &kernel)
        .map_err(RecoilError::from)
}

/// Defines one SIMD backend: its constructors and its [`DecodeBackend`]
/// impl, which is [`decode_static`] with the backend's [`Select`].
macro_rules! simd_backend {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $select:expr) => {
        $(#[$doc])*
        #[derive(Default)]
        pub struct $ty {
            pool: Option<ThreadPool>,
        }

        impl $ty {
            /// Single-threaded backend (kernels still vectorize within the
            /// calling thread).
            pub fn new() -> Self {
                Self { pool: None }
            }

            /// Backend decoding on `threads` threads.
            pub fn with_threads(threads: usize) -> Self {
                Self {
                    pool: (threads > 1).then(|| ThreadPool::new(threads - 1)),
                }
            }

            /// Backend decoding on an existing pool.
            pub fn with_pool(pool: ThreadPool) -> Self {
                Self { pool: Some(pool) }
            }
        }

        impl DecodeBackend for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn is_available(&self) -> bool {
                $select.is_available()
            }

            fn parallel_spans(&self) -> usize {
                self.pool.as_ref().map_or(1, ThreadPool::threads) * $select.depth()
            }

            fn decode_u8(
                &self,
                req: &DecodeRequest<'_>,
                segments: Range<u64>,
                out: &mut [u8],
            ) -> Result<(), RecoilError> {
                decode_static($select, $name, self.pool.as_ref(), req, segments, out)
            }

            fn decode_u16(
                &self,
                req: &DecodeRequest<'_>,
                segments: Range<u64>,
                out: &mut [u16],
            ) -> Result<(), RecoilError> {
                decode_static($select, $name, self.pool.as_ref(), req, segments, out)
            }

            fn decode_adaptive(
                &self,
                stream: &EncodedStream,
                metadata: &RecoilMetadata,
                provider: &dyn ModelProvider,
                segments: Range<u64>,
                out: &mut [u16],
            ) -> Result<(), RecoilError> {
                let pool = self.pool.as_ref();
                decode_segments_pooled(stream, metadata, provider, pool, segments, out)
            }
        }
    };
}

simd_backend!(
    /// AVX2 kernel backend (8 lanes × 4 registers, paper implementation (2)).
    Avx2Backend,
    "avx2",
    Select::Fixed(Kernel::Avx2)
);
simd_backend!(
    /// AVX-512 kernel backend (16 lanes × 2 registers, paper implementation (3)).
    Avx512Backend,
    "avx512",
    Select::Fixed(Kernel::Avx512)
);
simd_backend!(
    /// Runtime-dispatch backend: AVX-512 → AVX2 → scalar, never unavailable.
    AutoBackend,
    "auto",
    Select::Auto
);

impl AutoBackend {
    /// The kernel a decode will use for a `ways`-way stream on this host.
    pub fn selected_kernel(&self, ways: u32) -> Kernel {
        auto_kernel(ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_core::codec::Codec;
    use recoil_models::{CdfTable, StaticModelProvider};

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (((i ^ seed).wrapping_mul(2654435761)) >> 23) as u8)
            .collect()
    }

    #[test]
    fn auto_matches_scalar_on_any_host() {
        let data = sample(200_000, 1);
        let codec = Codec::builder().max_segments(24).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        let reference: Vec<u8> = codec.decode(&enc).unwrap();
        let auto: Vec<u8> = codec
            .decode_with(&AutoBackend::with_threads(4), &enc)
            .unwrap();
        assert_eq!(reference, data);
        assert_eq!(auto, data);
    }

    #[test]
    fn auto_falls_back_to_scalar_for_narrow_streams() {
        let data = sample(50_000, 2);
        let codec = Codec::builder().ways(8).max_segments(8).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        let backend = AutoBackend::new();
        assert_eq!(backend.selected_kernel(8), Kernel::Scalar);
        let got: Vec<u8> = codec.decode_with(&backend, &enc).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn explicit_backends_error_when_unavailable() {
        let data = sample(20_000, 3);
        let codec = Codec::builder().max_segments(4).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        for (avail, result) in [
            (
                Kernel::Avx2.is_available(),
                codec.decode_with::<u8>(&Avx2Backend::new(), &enc),
            ),
            (
                Kernel::Avx512.is_available(),
                codec.decode_with::<u8>(&Avx512Backend::new(), &enc),
            ),
        ] {
            if avail {
                assert_eq!(result.unwrap(), data);
            } else {
                assert!(matches!(
                    result,
                    Err(RecoilError::BackendUnavailable { .. })
                ));
            }
        }
    }

    #[test]
    fn adaptive_path_is_scalar_but_correct() {
        use recoil_models::{GaussianScaleBank, LatentModelProvider, LatentSpec};
        use std::sync::Arc;
        let bank = Arc::new(GaussianScaleBank::build(12, 256, 8, 0.5, 32.0));
        let count = 40_000usize;
        let specs: Vec<LatentSpec> = (0..count)
            .map(|i| LatentSpec {
                mean: 2000 + (i % 700) as u16,
                scale_idx: (i % 8) as u8,
            })
            .collect();
        let provider = LatentModelProvider::new(bank, specs.clone());
        let data: Vec<u16> = (0..count)
            .map(|i| {
                let d = ((i as i64).wrapping_mul(2654435761) % 31) - 15;
                provider.clamp_to_window(specs[i], specs[i].mean as i64 + d)
            })
            .collect();
        let codec = Codec::builder()
            .quant_bits(12)
            .max_segments(8)
            .build()
            .unwrap();
        let container = codec.encode_with_provider(&data, &provider).unwrap();
        for backend in [
            &AutoBackend::with_threads(4) as &dyn DecodeBackend,
            &Avx2Backend::new(),
        ] {
            let mut out = vec![0u16; data.len()];
            let all = 0..container.metadata.num_segments();
            backend
                .decode_adaptive(
                    &container.stream,
                    &container.metadata,
                    &provider,
                    all,
                    &mut out,
                )
                .unwrap();
            assert_eq!(out, data, "backend {}", backend.name());
        }
    }

    #[test]
    fn model_quant_check_rejects_mismatch() {
        let data = sample(5_000, 4);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 10));
        let codec = Codec::builder().quant_bits(11).build().unwrap();
        assert!(codec.encode_with_provider(&data, &model).is_err());
    }
}
