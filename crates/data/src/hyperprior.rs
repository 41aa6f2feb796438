//! Synthetic hyperprior latents standing in for the div2k experiments.
//!
//! The paper transforms DIV2K images with the mbt2018-mean learned codec and
//! entropy-codes the resulting 16-bit latents, "adaptively model[ing] each
//! symbol with different Gaussian distributions using hyperpriors" (§5.1).
//! We reproduce the coding problem without the neural network: a smooth
//! hyper-field assigns every symbol position a Gaussian (mean, scale); the
//! symbol is a sample of that Gaussian clamped into the model window. The
//! decoder uses the identical per-position models — exactly the adaptive
//! path that forces Recoil to store symbol indices in its metadata.

use crate::rng::Rng;
use recoil_models::{GaussianScaleBank, LatentModelProvider, LatentSpec};
use std::sync::Arc;

/// A generated latent dataset: symbols plus their per-position models.
pub struct LatentDataset {
    /// 16-bit latent symbols.
    pub symbols: Vec<u16>,
    /// Adaptive provider shared between encoder and decoder.
    pub provider: LatentModelProvider,
}

/// Builds a latent dataset of `count` symbols around typical scale
/// `sigma_typ` (larger → less compressible), deterministic in `seed`.
///
/// `bank` supplies the quantized scale tables (n = 16 for the div2k runs).
pub fn latent_dataset(
    bank: Arc<GaussianScaleBank>,
    count: usize,
    sigma_typ: f64,
    seed: u64,
) -> LatentDataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mean_lo = bank.min_mean() as f64;
    let mean_hi = bank.max_mean() as f64;
    let mid = 0.5 * (mean_lo + mean_hi);

    // Smooth hyper-fields: random-walk mean, log-random-walk scale —
    // mimicking the spatial smoothness of hyperprior predictions.
    let mut mean = mid;
    let mut log_sigma = sigma_typ.ln();
    let mut specs = Vec::with_capacity(count);
    let mut symbols = Vec::with_capacity(count);

    for _ in 0..count {
        mean += rng.range(-3.0, 3.0);
        mean = mean.clamp(mean_lo, mean_hi);
        log_sigma += rng.range(-0.05, 0.05);
        // Keep scales within the bank's representable range.
        log_sigma = log_sigma.clamp((sigma_typ * 0.25).ln(), (sigma_typ * 4.0).ln());
        let sigma = log_sigma.exp();
        let spec = LatentSpec {
            mean: mean as u16,
            scale_idx: bank.nearest_scale(sigma),
        };
        specs.push(spec);
        // Box–Muller sample of N(mean, sigma).
        let (u1, u2) = (rng.range(f64::MIN_POSITIVE, 1.0), rng.unit());
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let raw = (spec.mean as f64 + z * sigma).round() as i64;
        symbols.push(raw);
    }
    let provider = LatentModelProvider::new(bank, specs);
    let symbols: Vec<u16> = symbols
        .into_iter()
        .enumerate()
        .map(|(i, raw)| provider.clamp_to_window(provider.specs()[i], raw))
        .collect();
    LatentDataset { symbols, provider }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_models::ModelProvider;

    fn small_bank() -> Arc<GaussianScaleBank> {
        Arc::new(GaussianScaleBank::build(12, 512, 16, 0.5, 64.0))
    }

    #[test]
    fn every_symbol_is_encodable() {
        let ds = latent_dataset(small_bank(), 20_000, 6.0, 3);
        for (i, &s) in ds.symbols.iter().enumerate() {
            let (f, _) = ds.provider.stats(i as u64, s);
            assert!(f > 0, "symbol at {i} not encodable");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = latent_dataset(small_bank(), 5_000, 6.0, 9);
        let b = latent_dataset(small_bank(), 5_000, 6.0, 9);
        assert_eq!(a.symbols, b.symbols);
    }

    #[test]
    fn sigma_controls_compressibility() {
        // Larger typical scale → higher entropy → more bits.
        let tight = latent_dataset(small_bank(), 30_000, 1.0, 5);
        let wide = latent_dataset(small_bank(), 30_000, 16.0, 5);
        let spread = |ds: &LatentDataset| -> f64 {
            let diffs: Vec<f64> = ds
                .symbols
                .iter()
                .zip(ds.provider.specs())
                .map(|(&s, sp)| (s as f64 - sp.mean as f64).abs())
                .collect();
            diffs.iter().sum::<f64>() / diffs.len() as f64
        };
        assert!(spread(&wide) > 4.0 * spread(&tight));
    }

    #[test]
    fn round_trips_through_recoil_ready_codec() {
        use recoil_rans::{decode_interleaved, InterleavedEncoder, NullSink};
        let ds = latent_dataset(small_bank(), 30_000, 4.0, 11);
        let mut enc = InterleavedEncoder::new(&ds.provider, 32);
        enc.encode_all_fast(&ds.symbols, &mut NullSink).unwrap();
        let stream = enc.finish();
        let back: Vec<u16> = decode_interleaved(&stream, &ds.provider).unwrap();
        assert_eq!(back, ds.symbols);
    }
}
