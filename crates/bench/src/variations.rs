//! The bitstream variations of §5.2, built once per dataset/n:
//!
//! * (a) standard rANS bitstream (Single-Thread baseline, Table 4 sizes)
//! * (b) Conventional Large — 2176 partitions (massively parallel GPU)
//! * (c) Recoil Large — 2176 splits (same bitstream as (a) + metadata)
//! * (d) Conventional Small — 16 partitions (parallel CPU), re-encoded
//! * (e) Recoil Small — converted from (c) by combining splits
//!
//! Recoil's bitstream **is** the baseline bitstream — variation (c) costs
//! exactly the metadata bytes, and (e) is derived without re-encoding.

use recoil::conventional::{encode_conventional, ConventionalContainer};
use recoil::prelude::*;

/// Partition/split counts of the paper's Large and Small variations.
pub const LARGE: usize = 2176;
pub const SMALL: usize = 16;

/// All variations for one byte dataset at one quantization level.
pub struct ByteVariations {
    /// Static model shared by (a)–(e).
    pub model: StaticModelProvider,
    /// (c) Recoil Large; `recoil_large.stream` is also variation (a).
    pub recoil_large: RecoilContainer,
    /// (e) Recoil Small metadata (combined from (c), no re-encode).
    pub recoil_small: RecoilMetadata,
    /// (b) Conventional Large.
    pub conv_large: ConventionalContainer,
    /// (d) Conventional Small.
    pub conv_small: ConventionalContainer,
}

impl ByteVariations {
    /// Builds every variation for `data` at level `n`.
    pub fn build(data: &[u8], n: u32) -> Self {
        let model = StaticModelProvider::new(CdfTable::of_bytes(data, n));
        let codec = Codec::builder()
            .ways(32)
            .max_segments(LARGE as u64)
            .quant_bits(n)
            .build()
            .expect("static variation config is valid");
        let recoil_large = codec
            .encode_with_provider(data, &model)
            .expect("matching model");
        let recoil_small = try_combine_splits(&recoil_large.metadata, SMALL as u64)
            .expect("a fresh encode combines");
        let conv_large = encode_conventional(data, &model, 32, LARGE);
        let conv_small = encode_conventional(data, &model, 32, SMALL);
        Self {
            model,
            recoil_large,
            recoil_small,
            conv_large,
            conv_small,
        }
    }

    /// Variation (a) baseline payload bytes.
    pub fn baseline_bytes(&self) -> u64 {
        self.recoil_large.stream_bytes()
    }

    /// `(label, total_bytes)` for variations (b)–(e), paper order.
    pub fn sizes(&self) -> [(&'static str, u64); 4] {
        let a = self.baseline_bytes();
        [
            ("(b) Conventional Large", self.conv_large.payload_bytes()),
            ("(c) Recoil Large", a + self.recoil_large.metadata_bytes()),
            ("(d) Conventional Small", self.conv_small.payload_bytes()),
            (
                "(e) Recoil Small",
                a + metadata_to_bytes(&self.recoil_small).len() as u64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variations_have_paper_size_ordering() {
        let data = recoil::data::exponential_bytes(2_000_000, 200.0, 1);
        let v = ByteVariations::build(&data, 11);
        let a = v.baseline_bytes();
        let s = v.sizes();
        let (b, c, d, e) = (s[0].1, s[1].1, s[2].1, s[3].1);
        // Large variations cost more than Small; Recoil beats Conventional
        // at both sizes; everything exceeds the baseline.
        assert!(b > c && c > d.max(e), "b={b} c={c} d={d} e={e}");
        assert!(d > e);
        assert!(e > a);
    }

    #[test]
    fn all_variations_decode_to_the_input() {
        let data = recoil::data::text_like_bytes(500_000, 5.0, 2);
        let v = ByteVariations::build(&data, 11);
        let pool = ThreadPool::new(3);
        let backend = AutoBackend::with_threads(3);
        let recoil = |metadata: &RecoilMetadata| {
            let mut out = vec![0u8; data.len()];
            let model = DecodeModel::Static(&v.model);
            let req = DecodeRequest::whole(&v.recoil_large.stream, metadata, model, &mut out);
            backend.decode(req.unwrap()).unwrap();
            out
        };
        let a: Vec<u8> = decode_interleaved(&v.recoil_large.stream, &v.model).unwrap();
        let b: Vec<u8> = decode_conventional(&v.conv_large, &v.model, Some(&pool)).unwrap();
        let c = recoil(&v.recoil_large.metadata);
        let d: Vec<u8> = decode_conventional(&v.conv_small, &v.model, Some(&pool)).unwrap();
        let e = recoil(&v.recoil_small);
        for (label, got) in [("a", a), ("b", b), ("c", c), ("d", d), ("e", e)] {
            assert_eq!(got, data, "variation ({label})");
        }
    }
}
