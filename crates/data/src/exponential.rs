//! The `rand_*` datasets: "10-Megabyte files generated with random
//! exponentially distributed bytes, with λ = 10, 50, 100, 200, 500
//! respectively representing different compression rates" (§5.1).
//!
//! A byte is `floor(Exp(mean = 256 / λ))` clamped to 255: λ = 10 is nearly
//! incompressible (≈ 6.3 bits/byte), λ = 500 concentrates almost all mass
//! at zero (≈ 0.7 bits/byte) — matching Table 4's baseline sizes.

use crate::rng::Rng;

/// Generates `len` exponentially distributed bytes for rate parameter
/// `lambda`, deterministic in `seed`.
pub fn exponential_bytes(len: usize, lambda: f64, seed: u64) -> Vec<u8> {
    assert!(lambda > 0.0);
    let mean = 256.0 / lambda;
    let mut rng = Rng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            // Inverse-CDF sampling: -mean * ln(U), U in (0, 1].
            let u = rng.range(f64::MIN_POSITIVE, 1.0);
            let v = -mean * u.ln();
            if v >= 255.0 {
                255
            } else {
                v as u8
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_models::Histogram;

    #[test]
    fn deterministic_in_seed() {
        let a = exponential_bytes(10_000, 100.0, 7);
        let b = exponential_bytes(10_000, 100.0, 7);
        let c = exponential_bytes(10_000, 100.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn entropy_matches_paper_compression_ratios() {
        // Table 4 baseline ratios at n=16 ≈ source entropy / 8.
        let cases = [
            (10.0, 7657.0 / 10_000.0),
            (50.0, 4774.0 / 10_000.0),
            (100.0, 3534.0 / 10_000.0),
            (200.0, 2317.0 / 10_000.0),
            (500.0, 886.0 / 10_000.0),
        ];
        for (lambda, paper_ratio) in cases {
            let data = exponential_bytes(400_000, lambda, 42);
            let h = Histogram::of_bytes(&data).entropy_bits() / 8.0;
            let err = (h - paper_ratio).abs() / paper_ratio;
            assert!(
                err < 0.08,
                "λ={lambda}: entropy ratio {h:.4} vs paper {paper_ratio:.4} ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn higher_lambda_is_more_compressible() {
        let h10 = Histogram::of_bytes(&exponential_bytes(100_000, 10.0, 1)).entropy_bits();
        let h500 = Histogram::of_bytes(&exponential_bytes(100_000, 500.0, 1)).entropy_bits();
        assert!(h10 > 5.5 && h500 < 1.2);
    }
}
