//! Partition-then-encode (paper §2.3).

use crate::container::ConventionalContainer;
use recoil_models::{ModelProvider, Symbol};
use recoil_rans::{InterleavedEncoder, NullSink};

/// Adapts a provider so a chunk encoded from local position 0 still sees its
/// global per-symbol models — required for adaptive (hyperprior) coding,
/// where the distribution is keyed by absolute symbol index.
pub struct OffsetProvider<'a, P: ModelProvider> {
    inner: &'a P,
    base: u64,
}

impl<'a, P: ModelProvider> OffsetProvider<'a, P> {
    /// Provider translating local positions by `base`.
    pub fn new(inner: &'a P, base: u64) -> Self {
        Self { inner, base }
    }
}

impl<P: ModelProvider> ModelProvider for OffsetProvider<'_, P> {
    #[inline]
    fn quant_bits(&self) -> u32 {
        self.inner.quant_bits()
    }
    #[inline]
    fn stats(&self, pos: u64, sym: u16) -> (u32, u32) {
        self.inner.stats(self.base + pos, sym)
    }
    #[inline]
    fn lookup(&self, pos: u64, slot: u32) -> (u16, u32, u32) {
        self.inner.lookup(self.base + pos, slot)
    }
    #[inline]
    fn static_alphabet(&self) -> Option<usize> {
        self.inner.static_alphabet()
    }
}

/// Splits `data` into `partitions` near-equal contiguous sub-sequences and
/// encodes each with an independent `ways`-way interleaved coder group.
///
/// # Panics
///
/// If the model gives a symbol of `data` no probability mass.
pub fn encode_conventional<S: Symbol, P: ModelProvider>(
    data: &[S],
    provider: &P,
    ways: u32,
    partitions: usize,
) -> ConventionalContainer {
    assert!(partitions >= 1);
    let partitions = partitions.min(data.len().max(1));
    let n = data.len();
    let mut chunks = Vec::with_capacity(partitions);
    let mut start = 0usize;
    for p in 0..partitions {
        let end = (n as u64 * (p as u64 + 1) / partitions as u64) as usize;
        let local = OffsetProvider::new(provider, start as u64);
        let mut enc = InterleavedEncoder::new(&local, ways);
        enc.encode_all_fast(&data[start..end], &mut NullSink)
            .expect("the model must cover every symbol of the data it encodes");
        chunks.push(enc.finish());
        start = end;
    }
    ConventionalContainer { chunks, ways }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_models::{CdfTable, StaticModelProvider};

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect()
    }

    #[test]
    fn partitions_cover_input_evenly() {
        let data = sample(100_003);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let c = encode_conventional(&data, &p, 32, 16);
        assert_eq!(c.partitions(), 16);
        assert_eq!(c.num_symbols(), 100_003);
        let sizes: Vec<u64> = c.chunks.iter().map(|ch| ch.num_symbols).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "uneven partition: {lo}..{hi}");
    }

    #[test]
    fn more_partitions_than_symbols_clamps() {
        let data = sample(5);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 8));
        let c = encode_conventional(&data, &p, 4, 100);
        assert_eq!(c.partitions(), 5);
        assert_eq!(c.num_symbols(), 5);
    }

    #[test]
    fn overhead_grows_with_partitions_figure3_shape() {
        // Figure 3: more sub-sequences → larger file, roughly linearly.
        let data = sample(500_000);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let base = encode_conventional(&data, &p, 32, 1).payload_bytes();
        let p16 = encode_conventional(&data, &p, 32, 16).payload_bytes();
        let p128 = encode_conventional(&data, &p, 32, 128).payload_bytes();
        assert!(p16 > base);
        assert!(p128 > p16);
        let per_chunk = (p128 - base) as f64 / 127.0;
        assert!(
            per_chunk > 100.0 && per_chunk < 200.0,
            "per-chunk cost {per_chunk}"
        );
    }
}
