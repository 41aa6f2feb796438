//! Parallel decode of partitioned streams: one task per batch of chunks
//! (a batch is one chunk unless the kernel interleaves several).

use crate::container::ConventionalContainer;
use crate::encode::OffsetProvider;
use recoil_models::{ModelProvider, StaticModelProvider, Symbol};
use recoil_parallel::{batch_bounds, for_each_disjoint, ThreadPool};
use recoil_rans::{RansError, Span};
use recoil_simd::{decode_spans, require_32_ways, Kernel};

/// Decodes all partitions, optionally on a pool, into a fresh buffer.
pub fn decode_conventional<S: Symbol, P: ModelProvider>(
    container: &ConventionalContainer,
    provider: &P,
    pool: Option<&ThreadPool>,
) -> Result<Vec<S>, RansError> {
    let mut out = vec![S::from_u16(0); container.num_symbols() as usize];
    decode_conventional_into(container, provider, pool, &mut out)?;
    Ok(out)
}

/// [`decode_conventional`] into a caller-provided buffer.
pub fn decode_conventional_into<S: Symbol, P: ModelProvider>(
    container: &ConventionalContainer,
    provider: &P,
    pool: Option<&ThreadPool>,
    out: &mut [S],
) -> Result<(), RansError> {
    // The scalar span engine decodes one span at a time: depth 1.
    decode_partitions(container, pool, out, 1, |mut base, spans| {
        for span in spans {
            let len = span.out.len();
            span.advance_scalar(&OffsetProvider::new(provider, base), len)?;
            base += len as u64;
        }
        Ok(())
    })
}

/// Baseline (B) with SIMD: per-partition vector decode, in the same
/// batches the Recoil segment engine gets (static models only — a chunk's
/// positions restart at zero, which only a position-independent model
/// tolerates).
pub fn decode_conventional_simd<S: Symbol>(
    kernel: Kernel,
    container: &ConventionalContainer,
    provider: &StaticModelProvider,
    pool: Option<&ThreadPool>,
    out: &mut [S],
) -> Result<(), RansError> {
    require_32_ways(container.ways)?;
    for chunk in &container.chunks {
        require_32_ways(chunk.ways)?;
    }
    let depth = kernel.interleave_depth();
    decode_partitions(container, pool, out, depth, |_base, spans| {
        decode_spans(kernel, provider, spans).map(drop)
    })
}

/// The partition fan-out shared by the scalar and SIMD baselines — the
/// same batches the Recoil segment engine hands its kernels, so the two
/// layouts are compared like for like: each task is a batch of
/// `min(depth, ceil(partitions / threads))` adjacent partitions, one
/// whole-stream [`Span`] each (positions restart at zero in every
/// partition), and runs `decode_batch(first_symbol_position, spans)` over
/// the batch's disjoint region of `out`, optionally on a pool.
pub fn decode_partitions<S: Symbol>(
    container: &ConventionalContainer,
    pool: Option<&ThreadPool>,
    out: &mut [S],
    depth: usize,
    decode_batch: impl Fn(u64, &mut [Span<'_, S>]) -> Result<(), RansError> + Sync,
) -> Result<(), RansError> {
    if out.len() as u64 != container.num_symbols() {
        return Err(RansError::MalformedStream(format!(
            "output buffer holds {} symbols, container has {}",
            out.len(),
            container.num_symbols()
        )));
    }
    let bounds = container.symbol_bounds();
    let (batch, batches) = batch_bounds(pool, &bounds, depth);
    for_each_disjoint(pool, out, &batches, |t, mut region| {
        let first = t * batch;
        let mut spans = Vec::with_capacity(batch);
        for chunk in container.chunks.iter().skip(first).take(batch) {
            chunk.validate()?;
            let (seg, rest) = region.split_at_mut(chunk.num_symbols as usize);
            region = rest;
            spans.push(chunk.tail_span(0, seg));
        }
        decode_batch(bounds[first], &mut spans)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_conventional;
    use recoil_models::CdfTable;

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| ((i ^ seed).wrapping_mul(2654435761) >> 23) as u8)
            .collect()
    }

    #[test]
    fn round_trip_serial_and_parallel() {
        let data = sample(250_000, 0);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let c = encode_conventional(&data, &p, 32, 16);
        let serial: Vec<u8> = decode_conventional(&c, &p, None).unwrap();
        assert_eq!(serial, data);
        let pool = ThreadPool::new(7);
        let parallel: Vec<u8> = decode_conventional(&c, &p, Some(&pool)).unwrap();
        assert_eq!(parallel, data);
    }

    #[test]
    fn conventional_simd_matches() {
        let data = sample(200_000, 4);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let c = encode_conventional(&data, &p, 32, 16);
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_conventional_simd(kernel, &c, &p, None, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn round_trip_gpu_scale_partitions() {
        let data = sample(400_000, 1);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let c = encode_conventional(&data, &p, 32, 2176);
        assert_eq!(c.partitions(), 2176);
        let pool = ThreadPool::new(7);
        let got: Vec<u8> = decode_conventional(&c, &p, Some(&pool)).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn adaptive_models_respect_global_positions() {
        use recoil_models::{GaussianScaleBank, LatentModelProvider, LatentSpec};
        use std::sync::Arc;
        let bank = Arc::new(GaussianScaleBank::build(12, 256, 8, 0.5, 32.0));
        let count = 50_000usize;
        let specs: Vec<LatentSpec> = (0..count)
            .map(|i| LatentSpec {
                mean: 3000 + (i % 512) as u16,
                scale_idx: (i % 8) as u8,
            })
            .collect();
        let p = LatentModelProvider::new(bank, specs.clone());
        let data: Vec<u16> = (0..count)
            .map(|i| {
                let d = ((i as i64).wrapping_mul(40503) % 21) - 10;
                p.clamp_to_window(specs[i], specs[i].mean as i64 + d)
            })
            .collect();
        let c = encode_conventional(&data, &p, 32, 13);
        let got: Vec<u16> = decode_conventional(&c, &p, None).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn wrong_buffer_rejected() {
        let data = sample(1000, 2);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 8));
        let c = encode_conventional(&data, &p, 4, 4);
        let mut bad = vec![0u8; 999];
        assert!(decode_conventional_into(&c, &p, None, &mut bad).is_err());
    }
}
