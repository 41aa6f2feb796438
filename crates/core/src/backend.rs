//! Decode backends: a kernel and a pool.
//!
//! The bitstream and the metadata are the same for every decoder; what
//! differs is its *capability*, and that is two numbers — how many spans
//! its kernel decodes interleaved in one thread
//! ([`Kernel::interleave_depth`]) and how many threads it has. So there is
//! one backend struct, [`AutoBackend`]: a kernel selection (the best this
//! host has, or one fixed [`Kernel`]) plus an optional [`ThreadPool`]; and
//! [`ScalarBackend`], the unit value for "scalar kernel, calling thread".
//! Both are the one segment engine ([`crate::decode_segments`]: validate →
//! synchronize → span kernel → disjoint output slice) with a span kernel
//! and a pool plugged in.
//!
//! [`DecodeBackend`] has one decode method over one [`DecodeRequest`]:
//! stream, metadata, model, segment range, output slice. The model is
//! [`DecodeModel::Static`] or [`DecodeModel::Adaptive`], the output `u8` or
//! `u16` symbols ([`DecodeOutput`]); it returns what the decode did
//! ([`DecodeStats`]) for the caller to record. This is the one place a
//! kernel is chosen for a request:
//!
//! | Selection | Static model, 32-way stream | anything else |
//! |---|---|---|
//! | [`ScalarBackend`], `AutoBackend::fixed(Kernel::Scalar, _)` | scalar fast loop | scalar fast loop |
//! | [`AutoBackend::new`] / [`AutoBackend::with_threads`] | best of **AVX-512 → AVX2 → scalar** | scalar fast loop |
//! | `AutoBackend::fixed(Kernel::Avx2 / Avx512, _)` | that vector loop | adaptive model: scalar fast loop; other lane counts: the stream is reported malformed |
//!
//! A fixed kernel the host lacks reports `is_available() == false` and its
//! decode returns [`RecoilError::BackendUnavailable`]; the automatic
//! selection is never unavailable. Adaptive (per-position) models always
//! take the scalar kernel — per-symbol model indirection defeats flat
//! gathers — on the backend's pool, if it has one.

use crate::decoder::{decode_segments, decode_spans_scalar, DecodeStats};
use crate::error::RecoilError;
use crate::metadata::RecoilMetadata;
use recoil_models::{ModelProvider, StaticModelProvider, Symbol};
use recoil_parallel::ThreadPool;
use recoil_rans::EncodedStream;
pub use recoil_simd::Kernel;
use recoil_simd::{decode_spans, require_32_ways, SIMD_WAYS};
use std::ops::Range;

/// The model a stream was encoded with.
#[derive(Clone, Copy)]
pub enum DecodeModel<'a> {
    /// One table for every position: eligible for the vector kernels.
    Static(&'a StaticModelProvider),
    /// A model that varies per symbol position (the hyperprior/latents
    /// path): always the scalar kernel.
    Adaptive(&'a dyn ModelProvider),
}

/// Where decoded symbols go, tagged with their width (the backend trait is
/// object-safe, so the width travels as a value; [`CodecSymbol::output`]
/// makes one from a typed slice).
pub enum DecodeOutput<'a> {
    /// 8-bit symbols.
    U8(&'a mut [u8]),
    /// 16-bit symbols.
    U16(&'a mut [u16]),
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
}

/// Symbol types a [`DecodeRequest`] can carry: the conversion of a typed
/// output slice into [`DecodeOutput`].
pub trait CodecSymbol: Symbol + sealed::Sealed {
    /// `out` tagged with this symbol width.
    fn output(out: &mut [Self]) -> DecodeOutput<'_>;
}

impl CodecSymbol for u8 {
    fn output(out: &mut [Self]) -> DecodeOutput<'_> {
        DecodeOutput::U8(out)
    }
}

impl CodecSymbol for u16 {
    fn output(out: &mut [Self]) -> DecodeOutput<'_> {
        DecodeOutput::U16(out)
    }
}

/// One decode: a contiguous range of metadata segments of one stream.
///
/// The backend writes each requested segment's **absolutely indexed**
/// region of `out` (`bounds[m]..bounds[m+1]`) and leaves the rest
/// untouched. `out` must cover at least the requested segments' symbols; it
/// may be shorter than the full stream. The stream's `words` may be an
/// incomplete prefix, as long as it covers every word the requested
/// segments read (interior segment `m` needs `splits[m].offset + 1` words;
/// the final segment needs the complete stream) — see
/// [`crate::validate_segment_decode`] for the exact contract. Output is
/// bit-identical to the matching region of a full decode.
pub struct DecodeRequest<'a> {
    /// The interleaved rANS bitstream.
    pub stream: &'a EncodedStream,
    /// Split metadata (possibly combined down from the encoded maximum).
    pub metadata: &'a RecoilMetadata,
    /// The model the stream was encoded with.
    pub model: DecodeModel<'a>,
    /// The metadata segments to decode.
    pub segments: Range<u64>,
    /// Output, indexed by absolute symbol position.
    pub out: DecodeOutput<'a>,
}

impl<'a> DecodeRequest<'a> {
    /// The whole-stream request: every metadata segment, into a buffer of
    /// exactly `stream.num_symbols` symbols. This is the one place that
    /// contract lives; [`crate::Codec`] and the server/net clients all
    /// build their requests here, so every caller reports a wrong buffer
    /// with the same error.
    pub fn whole<S: CodecSymbol>(
        stream: &'a EncodedStream,
        metadata: &'a RecoilMetadata,
        model: DecodeModel<'a>,
        out: &'a mut [S],
    ) -> Result<Self, RecoilError> {
        stream.check_output_len(out.len())?;
        Ok(Self {
            stream,
            metadata,
            model,
            segments: 0..metadata.num_segments(),
            out: S::output(out),
        })
    }
}

/// An object-safe decode strategy.
///
/// Implementations decide *how* the segment engine runs (which span
/// kernel, how many threads); the bitstream and metadata are identical
/// across all of them — that is the paper's decoder-adaptive scalability.
/// Backends must produce bit-exact output; equivalence tests in `tests/`
/// enforce it.
pub trait DecodeBackend: Send + Sync {
    /// Stable, lowercase backend name (used in errors and logs).
    fn name(&self) -> &'static str;

    /// True when this backend can run on the current host.
    /// [`DecodeBackend::decode`] on an unavailable backend returns
    /// [`RecoilError::BackendUnavailable`] instead of panicking.
    fn is_available(&self) -> bool {
        true
    }

    /// Independent spans one decode call keeps in flight on this host: its
    /// threads times the interleave depth of its kernel (a thread reaches
    /// the kernel's full rate only on a batch of that many). Callers read
    /// it through [`preferred_segments`].
    fn parallel_spans(&self) -> usize;

    /// Runs one request — the only decode entry point — and returns what
    /// the decode did, for the caller to record.
    fn decode(&self, req: DecodeRequest<'_>) -> Result<DecodeStats, RecoilError>;
}

/// [`DecodeBackend::is_available`] as a typed result, for call sites that
/// refuse an unavailable backend before doing anything else (a client that
/// would otherwise send a request it cannot decode the answer to).
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

/// The kernel a selection (`None`: automatic) decodes a static-model,
/// `ways`-way stream with.
fn kernel_for(select: Option<Kernel>, ways: u32) -> Kernel {
    match select {
        Some(kernel) => kernel,
        None if ways == SIMD_WAYS => Kernel::best(),
        None => Kernel::Scalar,
    }
}

/// The decode body of both backends: resolve the selection to a kernel for
/// this stream, then the segment engine with that kernel and `pool`.
fn run(
    select: Option<Kernel>,
    name: &'static str,
    pool: Option<&ThreadPool>,
    req: DecodeRequest<'_>,
) -> Result<DecodeStats, RecoilError> {
    let kernel = kernel_for(select, req.stream.ways);
    if !kernel.is_available() {
        return Err(RecoilError::BackendUnavailable { backend: name });
    }
    let DecodeRequest {
        stream,
        metadata,
        model,
        segments,
        out,
    } = req;
    match out {
        DecodeOutput::U8(out) => engine(kernel, pool, stream, metadata, model, segments, out),
        DecodeOutput::U16(out) => engine(kernel, pool, stream, metadata, model, segments, out),
    }
}

/// [`decode_segments`] with the span kernel `model` and `kernel` call for.
fn engine<S: Symbol>(
    kernel: Kernel,
    pool: Option<&ThreadPool>,
    stream: &EncodedStream,
    metadata: &RecoilMetadata,
    model: DecodeModel<'_>,
    segments: Range<u64>,
    out: &mut [S],
) -> Result<DecodeStats, RecoilError> {
    match model {
        DecodeModel::Static(model) => {
            if kernel != Kernel::Scalar {
                require_32_ways(stream.ways)?;
            }
            let depth = kernel.interleave_depth();
            decode_segments(
                stream,
                metadata,
                model,
                pool,
                segments,
                out,
                depth,
                |spans| decode_spans(kernel, model, spans),
            )
        }
        DecodeModel::Adaptive(provider) => decode_segments(
            stream,
            metadata,
            provider,
            pool,
            segments,
            out,
            1,
            |spans| decode_spans_scalar(provider, spans),
        ),
    }
    .map_err(RecoilError::from)
}

/// Serial reference backend: the scalar kernel on the calling thread.
/// Always available; equal to `AutoBackend::fixed(Kernel::Scalar, 1)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarBackend;

impl DecodeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn parallel_spans(&self) -> usize {
        1
    }

    fn decode(&self, req: DecodeRequest<'_>) -> Result<DecodeStats, RecoilError> {
        run(Some(Kernel::Scalar), self.name(), None, req)
    }
}

/// The backend: a kernel selection and an optional thread pool.
///
/// With a pool, decode tasks — batches of up to
/// [`Kernel::interleave_depth`] adjacent segments, fewer when that would
/// leave a thread idle — are distributed across it; the kernel then runs
/// *inside* each task, the batch's spans interleaved.
#[derive(Default)]
pub struct AutoBackend {
    /// `None`: the best kernel the host and the stream allow.
    kernel: Option<Kernel>,
    pool: Option<ThreadPool>,
}

impl AutoBackend {
    /// Runtime dispatch (AVX-512 → AVX2 → scalar) on the calling thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runtime dispatch on `threads` threads (`threads - 1` pool workers
    /// plus the calling thread).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            kernel: None,
            pool: (threads > 1).then(|| ThreadPool::new(threads - 1)),
        }
    }

    /// This `kernel` or an error, on `threads` threads: for measurements
    /// and differential tests that must know which loop ran.
    pub fn fixed(kernel: Kernel, threads: usize) -> Self {
        Self {
            kernel: Some(kernel),
            ..Self::with_threads(threads)
        }
    }

    /// The kernel a decode of a static-model, `ways`-way stream uses on
    /// this host (a fixed selection answers with its kernel whether or not
    /// the host can run it).
    pub fn selected_kernel(&self, ways: u32) -> Kernel {
        kernel_for(self.kernel, ways)
    }
}

impl DecodeBackend for AutoBackend {
    fn name(&self) -> &'static str {
        match self.kernel {
            None => "auto",
            Some(Kernel::Scalar) => "scalar",
            Some(Kernel::Avx2) => "avx2",
            Some(Kernel::Avx512) => "avx512",
        }
    }

    fn is_available(&self) -> bool {
        self.kernel.is_none_or(Kernel::is_available)
    }

    fn parallel_spans(&self) -> usize {
        let threads = self.pool.as_ref().map_or(1, ThreadPool::threads);
        threads * self.selected_kernel(SIMD_WAYS).interleave_depth()
    }

    fn decode(&self, req: DecodeRequest<'_>) -> Result<DecodeStats, RecoilError> {
        run(self.kernel, self.name(), self.pool.as_ref(), req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;
    use recoil_models::{CdfTable, GaussianScaleBank, LatentModelProvider, LatentSpec};
    use recoil_rans::{decode_span_careful, RansError};
    use std::sync::Arc;

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (((i ^ seed).wrapping_mul(2654435761)) >> 23) as u8)
            .collect()
    }

    /// A model by value, so a case can lend it out as a [`DecodeModel`].
    enum Model {
        Static(StaticModelProvider),
        Adaptive(LatentModelProvider),
    }

    /// One encoded stream with its 8-segment metadata and its model.
    struct Case {
        stream: EncodedStream,
        metadata: RecoilMetadata,
        model: Model,
    }

    impl Case {
        fn of<S: Symbol>(data: &[S], model: Model) -> Self {
            let config = |n| Codec::builder().quant_bits(n).max_segments(8).build();
            let container = match &model {
                Model::Static(p) => config(p.quant_bits())
                    .unwrap()
                    .encode_with_provider(data, p),
                Model::Adaptive(p) => config(p.quant_bits())
                    .unwrap()
                    .encode_with_provider(data, p),
            }
            .unwrap();
            assert_eq!(container.metadata.num_segments(), 8);
            Self {
                stream: container.stream,
                metadata: container.metadata,
                model,
            }
        }

        /// Bytes against a static model at level `n` (packed tables up to
        /// 12, wide beyond).
        fn bytes(n: u32) -> Self {
            let data = sample(60_000, n);
            let provider = StaticModelProvider::new(CdfTable::of_bytes(&data, n));
            Self::of(&data, Model::Static(provider))
        }

        /// Latents against a per-position Gaussian model, kept below 256 so
        /// that they decode into either symbol width.
        fn latents() -> Self {
            let bank = Arc::new(GaussianScaleBank::build(12, 64, 8, 0.5, 8.0));
            let specs: Vec<LatentSpec> = (0..40_000usize)
                .map(|i| LatentSpec {
                    mean: 100 + (i % 40) as u16,
                    scale_idx: (i % 8) as u8,
                })
                .collect();
            let provider = LatentModelProvider::new(bank, specs.clone());
            let data: Vec<u16> = (0..specs.len())
                .map(|i| {
                    let d = ((i as i64).wrapping_mul(2654435761) % 31) - 15;
                    provider.clamp_to_window(specs[i], specs[i].mean as i64 + d)
                })
                .collect();
            Self::of(&data, Model::Adaptive(provider))
        }

        fn model(&self) -> DecodeModel<'_> {
            match &self.model {
                Model::Static(p) => DecodeModel::Static(p),
                Model::Adaptive(p) => DecodeModel::Adaptive(p),
            }
        }

        /// The whole stream through the careful reference loop.
        fn reference<S: Symbol>(&self) -> Vec<S> {
            let provider: &dyn ModelProvider = match &self.model {
                Model::Static(p) => p,
                Model::Adaptive(p) => p,
            };
            let mut out = vec![S::from_u16(0); self.stream.num_symbols as usize];
            let mut states = self.stream.final_states.clone();
            let (words, end) = (self.stream.words.as_bytes(), self.stream.end_cursor());
            decode_span_careful(provider, words, end, &mut states, 0, &mut out).unwrap();
            out
        }
    }

    /// Every backend this host can run: the unit value, and the struct at
    /// every selection (automatic, each available kernel fixed) with no
    /// pool and with a 3-thread one.
    fn backends() -> Vec<Box<dyn DecodeBackend>> {
        let mut all: Vec<Box<dyn DecodeBackend>> = vec![Box::new(ScalarBackend)];
        for threads in [1, 3] {
            all.push(Box::new(AutoBackend::with_threads(threads)));
            for kernel in Kernel::all_available() {
                all.push(Box::new(AutoBackend::fixed(kernel, threads)));
            }
        }
        all
    }

    /// The matrix, for one case and one symbol width: on every backend the
    /// whole stream, and a segment sub-range over a word *prefix*, equal
    /// the careful reference — and the sub-range writes nothing else. Each
    /// decode returns exactly what it did: its segments as spans, its
    /// symbols as fast plus careful ones, and (for the whole stream, where
    /// every word is consumed by exactly one span) its words.
    fn matrix_at_width<S: CodecSymbol + std::fmt::Debug>(case: &Case, what: &str) {
        let want: Vec<S> = case.reference();
        let (stream, metadata) = (&case.stream, &case.metadata);
        // Segments 1..5 need the words up to split 4's offset and no more —
        // in an exact-size allocation, so that under the sanitizer job a
        // load past the prefix is a heap overflow.
        let segments = 1..5u64;
        let need = metadata.splits[segments.end as usize - 1].offset as usize + 1;
        let prefix = EncodedStream {
            words: stream.words.iter().take(need).collect(),
            ..stream.clone()
        };
        let bounds = metadata.segment_bounds();
        let region =
            bounds[segments.start as usize] as usize..bounds[segments.end as usize] as usize;
        let untouched = S::from_u16(0xA5);

        for backend in backends() {
            let ctx = format!(
                "{what}, {}-bit, {} x{}",
                S::BITS,
                backend.name(),
                backend.parallel_spans()
            );
            let mut got = vec![S::from_u16(0); want.len()];
            let whole = DecodeRequest::whole(stream, metadata, case.model(), &mut got).unwrap();
            let stats = backend.decode(whole).unwrap();
            assert_eq!(got, want, "whole stream: {ctx}");
            let counts = |s: DecodeStats| (s.spans, s.fast_symbols + s.careful_symbols);
            assert_eq!(counts(stats), (8, want.len() as u64), "whole stats: {ctx}");
            assert_eq!(stats.words_consumed, stream.words.len() as u64, "{ctx}");

            let mut got = vec![untouched; want.len()];
            let stats = backend
                .decode(DecodeRequest {
                    stream: &prefix,
                    metadata,
                    model: case.model(),
                    segments: segments.clone(),
                    out: S::output(&mut got),
                })
                .unwrap();
            assert_eq!(
                counts(stats),
                (4, region.len() as u64),
                "range stats: {ctx}"
            );
            assert_eq!(
                got[region.clone()],
                want[region.clone()],
                "prefix range: {ctx}"
            );
            let outside = got[..region.start].iter().chain(&got[region.end..]);
            assert!(
                outside.eq(std::iter::repeat_n(&untouched, want.len() - region.len())),
                "wrote outside its range: {ctx}"
            );
        }
    }

    fn matrix(case: &Case, what: &str) {
        matrix_at_width::<u8>(case, what);
        matrix_at_width::<u16>(case, what);
    }

    #[test]
    fn packed_tables_on_every_backend_equal_the_careful_reference() {
        matrix(&Case::bytes(11), "packed n=11");
    }

    #[test]
    fn wide_tables_on_every_backend_equal_the_careful_reference() {
        matrix(&Case::bytes(16), "wide n=16");
    }

    #[test]
    fn adaptive_path_is_scalar_but_correct() {
        matrix(&Case::latents(), "adaptive latents");
    }

    /// `ScalarBackend` is the struct fixed to the scalar kernel with no
    /// pool, by every observable; and the automatic selection agrees with
    /// it through the `Codec` facade whatever kernel it picked.
    #[test]
    fn auto_matches_scalar_on_any_host() {
        let fixed = AutoBackend::fixed(Kernel::Scalar, 1);
        assert_eq!(fixed.name(), ScalarBackend.name());
        assert_eq!(fixed.parallel_spans(), ScalarBackend.parallel_spans());
        assert!(fixed.is_available() && ScalarBackend.is_available());
        assert_eq!(fixed.selected_kernel(32), Kernel::Scalar);

        let data = sample(200_000, 1);
        let codec = Codec::builder().max_segments(24).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        let auto = AutoBackend::with_threads(4);
        assert_eq!(auto.selected_kernel(32), Kernel::best());
        assert_eq!(auto.parallel_spans(), 4 * Kernel::best().interleave_depth());
        for backend in [&ScalarBackend as &dyn DecodeBackend, &fixed, &auto] {
            let got: Vec<u8> = codec.decode_with(backend, &enc).unwrap();
            assert_eq!(got, data, "{}", backend.name());
        }
    }

    #[test]
    fn auto_falls_back_to_scalar_for_narrow_streams() {
        let data = sample(50_000, 2);
        let codec = Codec::builder().ways(8).max_segments(8).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        let auto = AutoBackend::new();
        assert_eq!(auto.selected_kernel(8), Kernel::Scalar);
        for backend in [&auto, &AutoBackend::fixed(Kernel::Scalar, 3)] {
            let got: Vec<u8> = codec.decode_with(backend, &enc).unwrap();
            assert_eq!(got, data, "{}", backend.name());
        }
        // A fixed vector kernel has no 8-way loop and does not pretend to.
        for kernel in Kernel::all_available() {
            if kernel == Kernel::Scalar {
                continue;
            }
            let got = codec.decode_with::<u8>(&AutoBackend::fixed(kernel, 1), &enc);
            assert!(
                matches!(got, Err(RecoilError::Decode(RansError::MalformedStream(_)))),
                "{kernel:?}: {got:?}"
            );
        }
    }

    #[test]
    fn explicit_backends_error_when_unavailable() {
        let data = sample(20_000, 3);
        let codec = Codec::builder().max_segments(4).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        for kernel in [Kernel::Avx2, Kernel::Avx512] {
            let backend = AutoBackend::fixed(kernel, 1);
            assert_eq!(backend.is_available(), kernel.is_available());
            let result = codec.decode_with::<u8>(&backend, &enc);
            if kernel.is_available() {
                assert_eq!(result.unwrap(), data);
                continue;
            }
            // Refused by the decode method itself and, for callers that
            // must not get that far, up front.
            let name = backend.name();
            assert!(
                matches!(result, Err(RecoilError::BackendUnavailable { backend }) if backend == name)
            );
            assert!(matches!(
                ensure_available(&backend),
                Err(RecoilError::BackendUnavailable { .. })
            ));
            assert!(Codec::builder().backend(backend).build().is_err());
        }
    }
}
