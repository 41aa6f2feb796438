//! The model interface consumed by every codec in the workspace.
//!
//! Models are keyed by the **0-based symbol position** in the uncompressed
//! sequence. Static models ignore the position; the adaptive hyperprior
//! models (paper §5.1, div2k experiments) select a different distribution per
//! position — which is exactly why Recoil's split metadata records symbol
//! indices (paper §3.1, advantage (3)).

use crate::{CdfTable, DecodeTables};

/// Symbol value types the codecs can process (Table 3: 8- or 16-bit).
pub trait Symbol: Copy + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Widens to the common 16-bit working representation.
    fn to_u16(self) -> u16;
    /// Narrows from the working representation.
    fn from_u16(v: u16) -> Self;
    /// Bits per symbol (for byte accounting).
    const BITS: u32;
    /// `symbols` as bytes when `Self` is `u8`: the byte-specialised paths
    /// (the vector encode kernel, the word-at-a-time histogram) take this in
    /// place of a cast.
    #[inline]
    fn as_bytes(symbols: &[Self]) -> Option<&[u8]> {
        let _ = symbols;
        None
    }
}

impl Symbol for u8 {
    #[inline]
    fn to_u16(self) -> u16 {
        self as u16
    }
    #[inline]
    fn from_u16(v: u16) -> Self {
        debug_assert!(v <= u8::MAX as u16);
        v as u8
    }
    const BITS: u32 = 8;
    #[inline]
    fn as_bytes(symbols: &[Self]) -> Option<&[u8]> {
        Some(symbols)
    }
}

impl Symbol for u16 {
    #[inline]
    fn to_u16(self) -> u16 {
        self
    }
    #[inline]
    fn from_u16(v: u16) -> Self {
        v
    }
    const BITS: u32 = 16;
}

/// Supplies per-position quantized statistics to encoders and decoders.
///
/// All positions share one quantization level `n` (`F` totals `2^n`), as in
/// the paper, but the distribution itself may vary by position.
pub trait ModelProvider: Sync {
    /// Quantization level `n` (1..=16).
    fn quant_bits(&self) -> u32;

    /// Encode-side stats `(freq, cdf)` of symbol `sym` at position `pos`.
    fn stats(&self, pos: u64, sym: u16) -> (u32, u32);

    /// Decode-side lookup: the `(symbol, freq, cdf)` whose CDF interval
    /// contains `slot` at position `pos` (Eq. 2).
    fn lookup(&self, pos: u64, slot: u32) -> (u16, u32, u32);

    /// `Some(a)` when [`ModelProvider::stats`] ignores `pos` and accepts
    /// every `sym < a`: an encoder may then tabulate the model once per call
    /// instead of asking per symbol. Adaptive models keep the default.
    #[inline]
    fn static_alphabet(&self) -> Option<usize> {
        None
    }
}

/// Position-independent model backed by a [`CdfTable`] plus decode LUTs.
#[derive(Debug, Clone)]
pub struct StaticModelProvider {
    table: CdfTable,
    decode: DecodeTables,
}

impl StaticModelProvider {
    /// Wraps a table, building its decode acceleration structures.
    pub fn new(table: CdfTable) -> Self {
        let decode = DecodeTables::build(&table);
        Self { table, decode }
    }

    /// The underlying table.
    pub fn table(&self) -> &CdfTable {
        &self.table
    }

    /// The decode LUTs (used directly by the SIMD kernels).
    pub fn decode_tables(&self) -> &DecodeTables {
        &self.decode
    }
}

impl ModelProvider for StaticModelProvider {
    #[inline]
    fn quant_bits(&self) -> u32 {
        self.table.quant_bits()
    }

    #[inline]
    fn stats(&self, _pos: u64, sym: u16) -> (u32, u32) {
        let s = sym as usize;
        (self.table.freq(s), self.table.cdf(s))
    }

    #[inline]
    fn lookup(&self, _pos: u64, slot: u32) -> (u16, u32, u32) {
        self.decode.lookup(slot)
    }

    #[inline]
    fn static_alphabet(&self) -> Option<usize> {
        Some(self.table.alphabet_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_provider_matches_table() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 11) as u8).collect();
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 10));
        assert_eq!(p.quant_bits(), 10);
        for slot in 0..(1u32 << 10) {
            let (s, f, c) = p.lookup(999, slot);
            let (ef, ec) = p.stats(0, s);
            assert_eq!((f, c), (ef, ec));
            assert!(c <= slot && slot < c + f);
        }
    }

    #[test]
    fn symbol_round_trips() {
        assert_eq!(u8::from_u16(200u8.to_u16()), 200);
        assert_eq!(u16::from_u16(40_000u16.to_u16()), 40_000);
        assert_eq!(u8::BITS, 8);
        assert_eq!(<u16 as Symbol>::BITS, 16);
    }
}
