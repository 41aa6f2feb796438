//! Synthetic substitutes for the ASCII text corpora (dickens, webster,
//! enwik8, enwik9).
//!
//! A static-model entropy coder only sees order-0 symbol statistics, so a
//! faithful substitute needs (a) a text-shaped alphabet and (b) the paper's
//! measured order-0 entropy. We sample i.i.d. from a Zipf-like distribution
//! over a ranked "English text + markup" alphabet whose exponent is solved
//! numerically to hit the target entropy.

use crate::rng::Rng;

/// Ranked alphabet approximating English prose + wiki markup: most frequent
/// first. 96 symbols keeps the support realistic for byte text.
const RANKED: &[u8] = b" etaoinshrdlcumwfgypbvkjxqz.,ETAOINSHRDLCUMWFGYPBVKJXQZ'\"-;:!?()[]{}<>/=&#%@*+_0123456789|~^\n\t";

/// Zipf-like probabilities `p_i ∝ (i + 1)^(-s)` whose entropy equals
/// `target_bits` (binary-searched over `s`). Returns the probabilities.
pub fn zipf_distribution_for_entropy(alphabet: usize, target_bits: f64) -> Vec<f64> {
    assert!(alphabet >= 2);
    let max_bits = (alphabet as f64).log2();
    assert!(
        target_bits > 0.1 && target_bits < max_bits,
        "target {target_bits} outside (0.1, {max_bits})"
    );
    let entropy_of = |s: f64| -> f64 {
        let weights: Vec<f64> = (0..alphabet).map(|i| ((i + 1) as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .map(|w| -(w / total) * (w / total).log2())
            .sum()
    };
    // Entropy is monotone-decreasing in s: s = 0 is uniform (max entropy).
    let (mut lo, mut hi) = (0.0f64, 8.0f64);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if entropy_of(mid) > target_bits {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let s = 0.5 * (lo + hi);
    let weights: Vec<f64> = (0..alphabet).map(|i| ((i + 1) as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / total).collect()
}

/// `len` bytes of text-like data with order-0 entropy `target_bits`,
/// deterministic in `seed`.
pub fn text_like_bytes(len: usize, target_bits: f64, seed: u64) -> Vec<u8> {
    let probs = zipf_distribution_for_entropy(RANKED.len(), target_bits);
    // Cumulative table for inverse-CDF sampling.
    let mut cdf = Vec::with_capacity(probs.len());
    let mut acc = 0.0;
    for p in &probs {
        acc += p;
        cdf.push(acc);
    }
    let mut rng = Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u = rng.unit();
            let idx = cdf.partition_point(|&c| c < u).min(RANKED.len() - 1);
            RANKED[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_models::Histogram;

    #[test]
    fn hits_requested_entropy() {
        for target in [3.5f64, 4.92, 5.29, 6.0] {
            let data = text_like_bytes(300_000, target, 11);
            let h = Histogram::of_bytes(&data).entropy_bits();
            assert!(
                (h - target).abs() < 0.05,
                "target {target}: measured {h:.3}"
            );
        }
    }

    #[test]
    fn output_is_text_shaped() {
        let data = text_like_bytes(50_000, 5.0, 3);
        // Most frequent byte should be space, as in English text.
        let h = Histogram::of_bytes(&data);
        let top = (0..256).max_by_key(|&b| h.count(b)).unwrap();
        assert_eq!(top as u8, b' ');
        assert!(data.iter().all(|b| RANKED.contains(b)));
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(text_like_bytes(1000, 5.0, 9), text_like_bytes(1000, 5.0, 9));
        assert_ne!(
            text_like_bytes(1000, 5.0, 9),
            text_like_bytes(1000, 5.0, 10)
        );
    }

    #[test]
    fn distribution_solver_is_monotone() {
        let lo = zipf_distribution_for_entropy(96, 3.0);
        let hi = zipf_distribution_for_entropy(96, 6.0);
        // Lower entropy → more mass on the top rank.
        assert!(lo[0] > hi[0]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn impossible_entropy_panics() {
        let _ = zipf_distribution_for_entropy(96, 7.5); // > log2(96)
    }
}
