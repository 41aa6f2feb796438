//! The vector span kernel and the whole-stream / conventional compositions
//! built on it.
//!
//! The vector kernels run only on aligned 32-symbol groups away from the
//! stream edges (memory guards); everything else — group-unaligned segment
//! edges, the first and last few words of the stream — falls back to the
//! scalar span engine (`recoil_rans::decode_span_with_stats`), which is
//! bit-identical by construction. SIMD decoding supports static models (the
//! adaptive hyperprior path stays on the scalar engine, as the per-position
//! model indirection defeats flat gathers).
//!
//! There is no segment driver here: [`decode_segment`] is a *span kernel*
//! handed to `recoil_core::decode_segments` (see [`crate::backend`]), and
//! the conventional baseline hands it to
//! `recoil_conventional::decode_partitions`.

use crate::kernel::Kernel;
use crate::model::SimdModel;
use recoil_conventional::{decode_partitions, ConventionalContainer};
use recoil_models::{ModelProvider, StaticModelProvider, Symbol};
use recoil_parallel::ThreadPool;
use recoil_rans::{decode_span_with_stats, EncodedStream, RansError, SpanStats};

/// Words that must remain below the cursor for a vector group (underread
/// guard: four sub-registers consume at most 32 words).
const MIN_WORDS_BELOW: isize = 64;
/// Words that must remain above the cursor (overread guard: the widest
/// renorm load touches 16 u16 past the base).
const OVERREAD_WORDS: isize = 16;

/// The vector span kernel: decodes positions `lo .. lo + out.len()`
/// (descending) of a 32-way interleaved stream, starting from `states` and
/// backward word cursor `next_read`. Returns the cursor after the span and
/// how it decoded (vector groups count as fast groups).
///
/// `lo` need not be group-aligned, and `words` may be a prefix of the
/// stream: the guards keep every vector load inside it. A `kernel` this
/// host cannot run (and [`Kernel::Scalar`]) decodes the whole span through
/// the scalar engine.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused))]
pub fn decode_segment<S: Symbol>(
    kernel: Kernel,
    provider: &StaticModelProvider,
    words: &[u16],
    next_read: Option<u64>,
    states: &mut [u32; 32],
    lo: u64,
    out: &mut [S],
) -> Result<(Option<u64>, SpanStats), RansError> {
    let model = SimdModel::from_provider(provider);
    let n = provider.quant_bits();
    let mask = (1u32 << n) - 1;
    let vector = kernel != Kernel::Scalar && kernel.is_available();
    // The loop state stays in plain locals: bundled into a struct it spilled
    // to the stack every group, which cost `AutoBackend` 18% on the ladder.
    // Backward word cursor: index of the next unread word, -1 once exhausted.
    let entry_p = next_read.map_or(-1, |o| o as isize);
    let mut p = entry_p;
    // Positions `lo .. pos` are still to decode.
    let mut pos = lo + out.len() as u64;
    let mut stats = SpanStats::default();

    // Decodes positions `to .. pos` through the scalar span engine and
    // returns the cursor it stopped at.
    let scalar_down_to = |p: isize,
                          states: &mut [u32; 32],
                          out: &mut [S],
                          pos: u64,
                          to: u64,
                          stats: &mut SpanStats|
     -> Result<isize, RansError> {
        let (cursor, span) = decode_span_with_stats(
            provider,
            words,
            (p >= 0).then_some(p as u64),
            states,
            to,
            &mut out[(to - lo) as usize..(pos - lo) as usize],
        )?;
        stats.merge(&span);
        Ok(cursor.map_or(-1, |o| o as isize))
    };

    // Scalar head down to a group boundary.
    if vector && !pos.is_multiple_of(32) {
        let to = lo.max(pos - pos % 32);
        p = scalar_down_to(p, states, out, pos, to, &mut stats)?;
        pos = to;
    }

    // Full groups while enough words remain below the cursor. Within a few
    // words of the stream end only the overread guard fails; it reopens as
    // the cursor moves down, so those groups go scalar one at a time.
    let mut vector_groups = 0u64;
    let mut buf = [0u16; 32];
    while vector && pos >= lo + 32 && p >= MIN_WORDS_BELOW {
        let base = pos - 32;
        if p + OVERREAD_WORDS > words.len() as isize {
            p = scalar_down_to(p, states, out, pos, base, &mut stats)?;
            pos = base;
            continue;
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `vector` holds only if `kernel.is_available()` reported
        // the CPU feature above; the loop guard gives `p >= 64` and the
        // check just above gives `p + 16 <= words.len()`, so every load
        // the group issues is inside `words`.
        unsafe {
            match kernel {
                Kernel::Avx2 => crate::avx2::group_avx2(
                    &model,
                    words.as_ptr(),
                    &mut p,
                    states,
                    n,
                    mask,
                    &mut buf,
                ),
                Kernel::Avx512 => crate::avx512::group_avx512(
                    &model,
                    words.as_ptr(),
                    &mut p,
                    states,
                    n,
                    mask,
                    &mut buf,
                ),
                Kernel::Scalar => unreachable!("`vector` excludes the scalar kernel"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("no vector kernel is available off x86_64");
        let group = &mut out[(base - lo) as usize..][..32];
        for (o, &s) in group.iter_mut().zip(buf.iter()) {
            *o = S::from_u16(s);
        }
        pos = base;
        vector_groups += 1;
    }

    // Scalar tail: the sub-group remainder, or everything left once the
    // words run low (the cursor only moves down, so the vector loop could
    // not resume).
    p = scalar_down_to(p, states, out, pos, lo, &mut stats)?;

    stats.fast_groups += vector_groups;
    stats.fast_symbols += vector_groups * 32;
    // The vector groups moved the cursor too: count words off its delta.
    stats.words_consumed = (entry_p - p) as u64;
    Ok(((p >= 0).then_some(p as u64), stats))
}

pub(crate) fn require_32_ways(ways: u32) -> Result<(), RansError> {
    if ways != 32 {
        return Err(RansError::MalformedStream(format!(
            "SIMD kernels require the 32-way interleave, stream has {ways}"
        )));
    }
    Ok(())
}

/// Baseline (A) with SIMD: single-thread full-stream decode.
pub fn decode_interleaved_simd<S: Symbol>(
    kernel: Kernel,
    stream: &EncodedStream,
    provider: &StaticModelProvider,
    out: &mut [S],
) -> Result<(), RansError> {
    stream.validate()?;
    require_32_ways(stream.ways)?;
    stream.check_output_len(out.len())?;
    let mut states = [0u32; 32];
    states.copy_from_slice(&stream.final_states);
    let cursor = stream.end_cursor();
    decode_segment(kernel, provider, &stream.words, cursor, &mut states, 0, out)?;
    Ok(())
}

/// Baseline (B) with SIMD: per-partition vector decode (static models only —
/// a chunk's positions restart at zero, which only a position-independent
/// model tolerates).
pub fn decode_conventional_simd<S: Symbol>(
    kernel: Kernel,
    container: &ConventionalContainer,
    provider: &StaticModelProvider,
    pool: Option<&ThreadPool>,
    out: &mut [S],
) -> Result<(), RansError> {
    require_32_ways(container.ways)?;
    decode_partitions(container, pool, out, |chunk, _base, seg| {
        decode_interleaved_simd(kernel, chunk, provider, seg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AutoBackend, Avx2Backend, Avx512Backend};
    use recoil_core::codec::{Codec, DecodeBackend, ScalarBackend};
    use recoil_models::{CdfTable, DecodeTables};
    use recoil_rans::{decode_interleaved, InterleavedEncoder, NullSink};

    fn sample(len: usize, seed: u32, spread: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (((i ^ seed).wrapping_mul(2654435761)) >> spread) as u8)
            .collect()
    }

    fn encode(data: &[u8], n: u32) -> (EncodedStream, StaticModelProvider) {
        let p = StaticModelProvider::new(CdfTable::of_bytes(data, n));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all(data, &mut NullSink);
        (enc.finish(), p)
    }

    #[test]
    fn all_kernels_match_reference_packed() {
        let data = sample(123_457, 0, 23);
        let (stream, p) = encode(&data, 11);
        let reference: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        assert_eq!(reference, data);
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn all_kernels_match_reference_wide_n16() {
        let data = sample(90_001, 1, 22);
        let (stream, p) = encode(&data, 16);
        assert!(matches!(p.decode_tables(), DecodeTables::Wide(_)));
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn sixteen_bit_symbols_wide_path() {
        let bytes = sample(80_000, 2, 22);
        let data: Vec<u16> = bytes.iter().map(|&b| (b as u16) * 17).collect();
        let p = StaticModelProvider::new(CdfTable::of_u16(&data, 1 << 13, 14));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all(&data, &mut NullSink);
        let stream = enc.finish();
        for kernel in Kernel::all_available() {
            let mut out = vec![0u16; data.len()];
            decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn recoil_simd_matches_scalar_recoil() {
        let data = sample(300_000, 3, 23);
        let codec = Codec::builder().max_segments(16).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        let backends: [Box<dyn DecodeBackend>; 4] = [
            Box::new(ScalarBackend),
            Box::new(Avx2Backend::with_threads(8)),
            Box::new(Avx512Backend::with_threads(8)),
            Box::new(AutoBackend::with_threads(8)),
        ];
        for backend in backends.iter().filter(|b| b.is_available()) {
            let out: Vec<u8> = codec.decode_with(backend.as_ref(), &enc).unwrap();
            assert_eq!(out, data, "backend {}", backend.name());
        }
    }

    #[test]
    fn conventional_simd_matches() {
        let data = sample(200_000, 4, 23);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let c = recoil_conventional::encode_conventional(&data, &p, 32, 16);
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_conventional_simd(kernel, &c, &p, None, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn short_streams_fall_back_to_scalar_paths() {
        for len in [1usize, 31, 32, 33, 63, 65, 100] {
            let data = sample(len, 5, 24);
            let (stream, p) = encode(&data, 10);
            for kernel in Kernel::all_available() {
                let mut out = vec![0u8; len];
                decode_interleaved_simd(kernel, &stream, &p, &mut out).unwrap();
                assert_eq!(out, data, "kernel {kernel:?} len {len}");
            }
        }
    }

    #[test]
    fn non_32_way_streams_rejected() {
        let data = sample(1000, 6, 24);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 10));
        let mut enc = InterleavedEncoder::new(&p, 8);
        enc.encode_all(&data, &mut NullSink);
        let stream = enc.finish();
        let mut out = vec![0u8; 1000];
        assert!(decode_interleaved_simd(Kernel::Scalar, &stream, &p, &mut out).is_err());
    }
}

#[cfg(test)]
mod segment_tests {
    use super::*;
    use recoil_models::CdfTable;
    use recoil_rans::{InterleavedEncoder, NullSink};

    /// `decode_segment` returns the read cursor so callers can chain
    /// segments: two chained calls must equal one full-stream call for any
    /// (unaligned) split position and any kernel.
    #[test]
    fn chained_segments_equal_full_decode() {
        let data: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect();
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all(&data, &mut NullSink);
        let stream = enc.finish();
        for kernel in Kernel::all_available() {
            for cut in [1usize, 31, 32, 4097, 50_000, 99_999] {
                let mut full = vec![0u8; data.len()];
                decode_interleaved_simd(kernel, &stream, &p, &mut full).unwrap();

                let mut states = [0u32; 32];
                states.copy_from_slice(&stream.final_states);
                let next = Some(stream.words.len() as u64 - 1);
                let mut hi_part = vec![0u8; data.len() - cut];
                let (next, hi_stats) = decode_segment(
                    kernel,
                    &p,
                    &stream.words,
                    next,
                    &mut states,
                    cut as u64,
                    &mut hi_part,
                )
                .unwrap();
                let mut lo_part = vec![0u8; cut];
                let (end, lo_stats) = decode_segment(
                    kernel,
                    &p,
                    &stream.words,
                    next,
                    &mut states,
                    0,
                    &mut lo_part,
                )
                .unwrap();
                // The stats account for every symbol and every word.
                assert_eq!(hi_stats.symbols() + lo_stats.symbols(), data.len() as u64);
                assert_eq!(
                    hi_stats.words_consumed + lo_stats.words_consumed,
                    stream.words.len() as u64 - end.map_or(0, |o| o + 1)
                );
                assert_eq!(
                    &lo_part[..],
                    &full[..cut],
                    "kernel {kernel:?} cut {cut} low"
                );
                assert_eq!(
                    &hi_part[..],
                    &full[cut..],
                    "kernel {kernel:?} cut {cut} high"
                );
            }
        }
    }
}
