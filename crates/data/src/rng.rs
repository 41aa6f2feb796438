//! The generators' one random source: xoshiro256++ seeded through
//! splitmix64. Every dataset is a fixed function of its seed through this
//! arithmetic (`tests/dataset_digests.rs` pins them), so none of it may
//! change.

/// xoshiro256++, deterministic in its seed.
#[derive(Debug)]
pub(crate) struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is four splitmix64 outputs from `seed`.
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut splitmix64 = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (sm ^ (sm >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [splitmix64(), splitmix64(), splitmix64(), splitmix64()],
        }
    }

    /// Next 64 uniformly distributed bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in [0, 1): 53 random mantissa bits.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `lo + u * (hi - lo)` for `u = self.unit()`: in [lo, hi), though
    /// rounding may land on `hi` itself.
    pub(crate) fn range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi, "empty range");
        lo + self.unit() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn deterministic_in_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let mut c = Rng::seed_from_u64(8);
        let (xa, xb, xc): (f64, f64, f64) = (a.unit(), b.unit(), c.unit());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn uniform_unit_interval() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_respected() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = rng.range(-3.0, 3.0);
            assert!((-3.0..3.0).contains(&x));
            let y = rng.range(f64::MIN_POSITIVE, 1.0);
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn first_outputs_are_the_reference_ones() {
        for (seed, expected) in [
            (
                0,
                [
                    0x5317_5d61_490b_23df,
                    0x61da_6f3d_c380_d507,
                    0x5c0f_df91_ec9a_7bfc,
                    0x02ee_bf8c_3bbe_5e1a,
                ],
            ),
            (
                1,
                [
                    0xcfc5_d07f_6f03_c29b,
                    0xbf42_4132_963f_e08d,
                    0x19a3_7d57_57aa_f520,
                    0xbf08_119f_05cd_56d6,
                ],
            ),
        ] {
            let mut rng = Rng::seed_from_u64(seed);
            assert_eq!(expected.map(|_| rng.next_u64()), expected, "seed {seed}");
        }
    }
}
