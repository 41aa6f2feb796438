//! Every Table 4 dataset pinned by digest: the generators are a fixed
//! function of their seeds, and every size, ratio and benchmark figure the
//! workspace reports depends on them staying so.
//!
//! The digest is FNV-1a-64, written here rather than taken from
//! `std::hash::DefaultHasher`, whose algorithm may change between Rust
//! releases.

use recoil_data::ALL_DATASETS;
use recoil_models::GaussianScaleBank;
use std::sync::Arc;

/// Bytes of each dataset pinned.
const LEN: usize = 64 * 1024;

/// `(name, digest)`: byte datasets over `generate_bytes(LEN)`; latent ones
/// over the symbols then the specs of `generate_latents(bank, LEN)`.
const DIGESTS: [(&str, u64); 12] = [
    ("rand_10", 0x490b_c565_8f57_46f7),
    ("rand_50", 0xb77a_aaad_7d43_d8d6),
    ("rand_100", 0xa26d_03d7_17bc_0357),
    ("rand_200", 0x5c46_cd70_f84c_758c),
    ("rand_500", 0xdde8_7d28_45ff_2733),
    ("dickens", 0x165d_cf62_0b0c_480c),
    ("webster", 0x0b7b_8119_deb7_ed71),
    ("enwik8", 0xc616_99e3_52df_453a),
    ("enwik9", 0xf9da_7926_9025_e1c2),
    ("div2k801", 0xefa5_74ad_1472_2eaf),
    ("div2k803", 0x887c_3ebd_775b_ed59),
    ("div2k805", 0xa174_9812_d0f6_5811),
];

struct Fnv1a64(u64);

impl Fnv1a64 {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn every_dataset_is_the_bytes_it_always_was() {
    let bank = Arc::new(GaussianScaleBank::build(12, 512, 16, 0.5, 64.0));
    assert_eq!(ALL_DATASETS.len(), DIGESTS.len());
    for (d, &(name, digest)) in ALL_DATASETS.iter().zip(&DIGESTS) {
        assert_eq!(d.name, name);
        let mut h = Fnv1a64::new();
        if d.is_latent() {
            let ds = d.generate_latents(Arc::clone(&bank), LEN);
            for s in &ds.symbols {
                h.write(&s.to_le_bytes());
            }
            for spec in ds.provider.specs() {
                h.write(&spec.mean.to_le_bytes());
                h.write(&[spec.scale_idx]);
            }
        } else {
            h.write(&d.generate_bytes(LEN));
        }
        assert_eq!(h.0, digest, "{name}: {:#018x}", h.0);
    }
}
