//! # Recoil: Parallel rANS Decoding with Decoder-Adaptive Scalability
//!
//! A from-scratch Rust implementation of *Recoil* (Lin, Arunruangsirilert,
//! Sun, Katto — ICPP 2023) and everything it is evaluated against: the
//! interleaved rANS substrate, the conventional "partitioning symbols"
//! baseline, AVX2/AVX-512 decode kernels, and a content-delivery server
//! that scales parallelism metadata to each client in real time.
//!
//! ## The idea in one paragraph
//!
//! Classic parallel rANS cuts the *symbols* into chunks before encoding, so
//! the parallelism level is burned into the file: a phone that can decode
//! 4 chunks still downloads the overhead of 2176. Recoil instead encodes
//! **one** interleaved rANS bitstream and records, at chosen
//! renormalization points, tiny per-lane resume states (16 bits each,
//! because a freshly renormalized state is provably below `2^16`) plus
//! their symbol indices. Decoders can start mid-stream from this metadata
//! via a three-phase synchronization procedure — and the server can drop
//! metadata entries per client, shrinking the transfer without touching
//! the bitstream.
//!
//! ## Quickstart
//!
//! The primary API is the [`core::codec::Codec`] facade: configure the
//! encoder once with the builder, and name a [`DecodeBackend`] in each
//! decode — the encoded artifact knows nothing about its decoder.
//!
//! ```
//! use recoil::prelude::*;
//!
//! // Some data to compress.
//! let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
//!
//! // A reusable codec: 32 interleaved lanes, split metadata for up to 64
//! // parallel decoders and an order-0 model quantized to 2^11.
//! let codec = Codec::builder()
//!     .ways(32)
//!     .max_segments(64)
//!     .quant_bits(11)
//!     .build()?;
//!
//! // Encode once. The planner is best-effort: up to 64 segments.
//! let encoded = codec.encode(&data)?;
//! assert!(encoded.container.metadata.num_segments() > 56);
//!
//! // A 4-thread client needs only 4 segments: combine in real time — the
//! // bitstream bytes are untouched, only metadata entries are dropped.
//! let small = try_combine_splits(&encoded.container.metadata, 4)?;
//! assert_eq!(small.num_segments(), 4);
//!
//! // Decode on a backend that auto-selects AVX-512 → AVX2 → scalar at
//! // runtime and runs on 4 threads…
//! let decoded: Vec<u8> = codec.decode_with(&AutoBackend::with_threads(4), &encoded)?;
//! assert_eq!(decoded, data);
//!
//! // …or on any other, per call.
//! let scalar: Vec<u8> = codec.decode_with(&ScalarBackend, &encoded)?;
//! assert_eq!(scalar, data);
//! # Ok::<(), RecoilError>(())
//! ```
//!
//! ## Backend selection semantics
//!
//! A codec encodes; each decode names its decoder. A decoder is a kernel
//! and a pool. There is one segment engine
//! (`core::decode_segments`: validate → synchronize → span kernel →
//! disjoint output slice) and one backend struct, [`AutoBackend`]
//! (`core::backend`): a kernel selection plus an optional thread pool,
//! behind a [`DecodeBackend`] trait with exactly one decode method. A
//! kernel is handed batches of up to `K` adjacent segments (its interleave
//! depth: 4 for AVX-512, 2 for AVX2, 1 for the scalar loop) and decodes
//! them interleaved in one thread, so a decoder's capability is
//! `threads × K` splits — request a tier at least that wide
//! (`core::backend::preferred_segments`). One row per selection:
//!
//! | Selection | Span kernel | Threads | Behaviour |
//! |---|---|---|---|
//! | [`ScalarBackend`] | scalar fast loop | caller | portable serial reference; always available; equals `AutoBackend::fixed(Kernel::Scalar, 1)` |
//! | [`AutoBackend::new`] / [`AutoBackend::with_threads`] | best of **AVX-512 → AVX2 → scalar** | caller / pool | never unavailable; scalar for non-32-way streams and adaptive models |
//! | [`AutoBackend::fixed`]`(kernel, threads)` | that [`Kernel`] | caller / pool | decoding errors with [`RecoilError::BackendUnavailable`] on hosts without the CPU feature; a vector kernel reports a non-32-way stream as malformed |
//!
//! [`AutoBackend`]: prelude::AutoBackend
//! [`AutoBackend::new`]: prelude::AutoBackend::new
//! [`AutoBackend::with_threads`]: prelude::AutoBackend::with_threads
//! [`AutoBackend::fixed`]: prelude::AutoBackend::fixed
//! [`ScalarBackend`]: prelude::ScalarBackend
//! [`Kernel`]: prelude::Kernel
//!
//! Every selection refuses to decode a static model of more than 256
//! symbols into `u8` ([`RecoilError::InvalidConfig`], field
//! `symbol_bits`), before writing any output. An adaptively modelled
//! stream is one [`DecodeBackend::decode`] call over
//! `DecodeRequest::whole(.., DecodeModel::Adaptive(provider), ..)`.
//!
//! Invalid configurations (`ways = 0`, `quant_bits > 16`,
//! `max_segments = 0`) are rejected at [`Codec::builder`]'s `build()` with
//! typed [`RecoilError`] variants — the public API surface does not panic.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`rans`] | single & W-way interleaved rANS codec (Table 3 parameters) |
//! | [`core`] | `Codec` facade, split planner, metadata wire format, combining, the segment decode engine and the decode backends |
//! | [`models`] | histograms, quantization, decode LUTs, hyperprior models |
//! | [`simd`] | AVX2 / AVX-512 span kernels (below `core`: depends on `rans` + `models` only) |
//! | [`conventional`] | baseline (B): partitioning-symbols codec, scalar and on the `simd` kernels |
//! | [`parallel`] | persistent thread pool, the disjoint-slice thread split |
//! | [`data`] | Table 4 dataset generators |
//! | [`server`] | encode-once / combine-per-request content delivery |
//! | [`net`] | framed TCP transport: `NetServer` / pooling `NetClient` |
//! | [`fabric`] | multi-node routing, replication, failover with segment resume |

// Safe crate: `forbid` keeps any module from allowing `unsafe`.
#![forbid(unsafe_code)]

pub use recoil_bitio as bitio;
pub use recoil_conventional as conventional;
pub use recoil_core as core;
pub use recoil_data as data;
pub use recoil_fabric as fabric;
pub use recoil_models as models;
pub use recoil_net as net;
pub use recoil_parallel as parallel;
pub use recoil_rans as rans;
pub use recoil_server as server;
pub use recoil_simd as simd;
pub use recoil_telemetry as telemetry;

#[doc(no_inline)]
pub use recoil_core::RecoilError;
#[doc(no_inline)]
pub use recoil_core::{Codec, DecodeBackend, Encoded, EncoderConfig};

/// The commonly used names in one import.
pub mod prelude {
    pub use recoil_conventional::{
        decode_conventional, decode_conventional_simd, encode_conventional,
    };
    pub use recoil_core::backend::{
        AutoBackend, CodecSymbol, DecodeBackend, DecodeModel, DecodeOutput, DecodeRequest,
        ScalarBackend,
    };
    pub use recoil_core::codec::{Codec, CodecBuilder, Encoded, EncoderConfig};
    pub use recoil_core::{
        metadata_from_bytes, metadata_to_bytes, try_combine_splits, IncrementalDecoder,
        RecoilContainer, RecoilError, RecoilMetadata, SplitPlanner,
    };
    pub use recoil_models::{
        CdfTable, GaussianScaleBank, Histogram, LatentModelProvider, LatentSpec, ModelProvider,
        StaticModelProvider, Symbol,
    };
    pub use recoil_net::{
        NetClient, NetClientConfig, NetConfig, NetServer, NetServerHandle, StreamedFetch,
    };
    pub use recoil_parallel::ThreadPool;
    pub use recoil_rans::{
        decode_interleaved, EncodedStream, InterleavedEncoder, NullSink, RansError, VecSink,
    };
    pub use recoil_simd::{decode_interleaved_simd, Kernel, SimdModel};
}
