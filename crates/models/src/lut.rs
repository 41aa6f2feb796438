//! Decode-side lookup tables (paper §4.4).
//!
//! "We build LUTs for the symbol lookup process shown in equation 2. Here we
//! apply a common optimization: if `sizeof(s) = 8` and `n <= 12`, we pack the
//! symbol, its quantized probability and quantized CDF into a single 32-bit
//! integer." — [`PackedLut`] is that optimization (one gather per symbol in
//! the SIMD kernels); [`WideLut`] is the general fallback (two gathers).
//!
//! The packed entry stores `slot - cdf` rather than `cdf`, so the decode
//! step `x' = f * (x >> n) + (slot - cdf)` reads its addend straight out of
//! the entry: `(slot - cdf) | sym << 12 | freq << 20`, with `freq` in the
//! top bits (one shift) and the addend in the bottom ones (one mask).

use crate::CdfTable;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`DecodeTables::build`] calls.
///
/// Building the LUTs is the expensive part of standing up a
/// [`crate::StaticModelProvider`] (a `2^n`-entry fill), so it must happen
/// once per content — not once per decode call or per streamed segment
/// batch. This counter exists so regression tests can assert exactly that;
/// see [`decode_table_builds`].
static DECODE_TABLE_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total [`DecodeTables::build`] calls in this process so far.
///
/// Intended for tests that pin down table-reuse behavior: snapshot before
/// an operation, run it, and assert on the delta. Note the counter is
/// global — such tests should run in their own test binary to avoid
/// counting concurrent builds from unrelated tests.
pub fn decode_table_builds() -> u64 {
    DECODE_TABLE_BUILDS.load(Ordering::Relaxed)
}

/// Bit position of the symbol field in a [`PackedLut`] entry
/// (`(slot - cdf) | sym << 12 | freq << 20`).
pub const PACKED_SYM_SHIFT: u32 = 12;
/// Bit position of the freq field: the top 12 bits, so one shift reads it.
pub const PACKED_FREQ_SHIFT: u32 = 20;
/// Mask of the `slot - cdf` field (and width of the freq field).
pub const PACKED_FIELD_MASK: u32 = (1 << 12) - 1;

/// One-gather decode LUT: `2^n` packed entries, valid for 8-bit symbols and
/// `n <= 12`. The entry for `slot` is `(slot - cdf) | sym << 12 | freq << 20`
/// (`slot - cdf < freq <= 2^n - 1` fits 12 bits, as does `freq`).
#[derive(Debug, Clone)]
pub struct PackedLut {
    n: u32,
    entries: Vec<u32>,
}

impl PackedLut {
    /// Builds the packed LUT; `None` if the table does not qualify
    /// (alphabet > 256 or `n > 12`).
    pub fn build(table: &CdfTable) -> Option<Self> {
        let n = table.quant_bits();
        if n > 12 || table.alphabet_size() > 256 {
            return None;
        }
        let mut entries = vec![0u32; 1 << n];
        for s in 0..table.alphabet_size() {
            let f = table.freq(s);
            if f == 0 {
                continue;
            }
            let base = table.cdf(s);
            debug_assert!(f <= PACKED_FIELD_MASK);
            let packed = ((s as u32) << PACKED_SYM_SHIFT) | (f << PACKED_FREQ_SHIFT);
            for (d, entry) in entries[base as usize..][..f as usize]
                .iter_mut()
                .enumerate()
            {
                *entry = packed | d as u32;
            }
        }
        Some(Self { n, entries })
    }

    /// Quantization level.
    #[inline]
    pub fn quant_bits(&self) -> u32 {
        self.n
    }

    /// Raw entries (for SIMD gathers): `(slot - cdf) | sym << 12 | freq << 20`.
    #[inline]
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Decodes one slot into `(symbol, freq, cdf)`.
    #[inline]
    pub fn lookup(&self, slot: u32) -> (u16, u32, u32) {
        let e = self.entries[slot as usize];
        (
            (e >> PACKED_SYM_SHIFT) as u8 as u16,
            e >> PACKED_FREQ_SHIFT,
            slot - (e & PACKED_FIELD_MASK),
        )
    }
}

/// Two-gather decode LUT for the general case (16-bit symbols or `n > 12`):
/// `inv[slot]` maps a slot to its symbol; `ff[sym]` packs
/// `freq << 16 | cdf` (both `< 2^16` because `n <= 16` and `f <= 2^n - 1`).
///
/// `inv` carries one trailing padding entry so SIMD kernels can gather
/// 32 bits at 2-byte offsets without reading past the allocation.
#[derive(Debug, Clone)]
pub struct WideLut {
    n: u32,
    inv: Vec<u16>,
    ff: Vec<u32>,
}

impl WideLut {
    /// Builds the wide LUT for any supported table.
    pub fn build(table: &CdfTable) -> Self {
        let n = table.quant_bits();
        let mut inv = vec![0u16; (1 << n) + 1];
        let mut ff = vec![0u32; table.alphabet_size()];
        for (s, entry) in ff.iter_mut().enumerate() {
            let f = table.freq(s);
            let base = table.cdf(s);
            *entry = (f << 16) | base;
            for slot in base..base + f {
                inv[slot as usize] = s as u16;
            }
        }
        Self { n, inv, ff }
    }

    /// Quantization level.
    #[inline]
    pub fn quant_bits(&self) -> u32 {
        self.n
    }

    /// Slot→symbol table including the trailing padding entry
    /// (for SIMD gathers).
    #[inline]
    pub fn inv(&self) -> &[u16] {
        &self.inv
    }

    /// Per-symbol `freq << 16 | cdf` table (for SIMD gathers).
    #[inline]
    pub fn ff(&self) -> &[u32] {
        &self.ff
    }

    /// Decodes one slot into `(symbol, freq, cdf)`.
    #[inline]
    pub fn lookup(&self, slot: u32) -> (u16, u32, u32) {
        let s = self.inv[slot as usize];
        let e = self.ff[s as usize];
        (s, e >> 16, e & 0xFFFF)
    }

    /// Encode-side stats `(freq, cdf)` for `sym`.
    #[inline]
    pub fn stats(&self, sym: u16) -> (u32, u32) {
        let e = self.ff[sym as usize];
        (e >> 16, e & 0xFFFF)
    }
}

/// The preferred decode structure for a static table.
#[derive(Debug, Clone)]
pub enum DecodeTables {
    /// One-gather packed LUT (8-bit symbols, `n <= 12`).
    Packed(PackedLut),
    /// Two-gather wide LUT (everything else).
    Wide(WideLut),
}

impl DecodeTables {
    /// Builds the best structure for `table`.
    pub fn build(table: &CdfTable) -> Self {
        DECODE_TABLE_BUILDS.fetch_add(1, Ordering::Relaxed);
        match PackedLut::build(table) {
            Some(p) => Self::Packed(p),
            None => Self::Wide(WideLut::build(table)),
        }
    }

    /// Quantization level.
    #[inline]
    pub fn quant_bits(&self) -> u32 {
        match self {
            Self::Packed(p) => p.quant_bits(),
            Self::Wide(w) => w.quant_bits(),
        }
    }

    /// Decodes one slot into `(symbol, freq, cdf)`.
    #[inline]
    pub fn lookup(&self, slot: u32) -> (u16, u32, u32) {
        match self {
            Self::Packed(p) => p.lookup(slot),
            Self::Wide(w) => w.lookup(slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table(n: u32) -> CdfTable {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * i % 251) as u8).collect();
        CdfTable::of_bytes(&data, n)
    }

    #[test]
    fn packed_matches_reference_lookup() {
        let t = sample_table(11);
        let p = PackedLut::build(&t).expect("qualifies");
        for slot in 0..(1u32 << 11) {
            let (s, f, c) = p.lookup(slot);
            assert_eq!(s, t.symbol_of_slot(slot));
            assert_eq!(f, t.freq(s as usize));
            assert_eq!(c, t.cdf(s as usize));
        }
    }

    /// Every level the packed layout takes, with the extremes of both
    /// fields: a symbol of freq `2^n - 1` (the largest freq field, and at
    /// the top slots the largest `slot - cdf`), the top symbol and the last
    /// slot, in either order, and (from `n = 8`) a table spread over the
    /// byte alphabet.
    #[test]
    fn packed_entries_hold_slot_minus_cdf_at_every_level() {
        for n in 1..=12u32 {
            let big = (1u32 << n) - 1;
            let mut high = vec![0u32; 256];
            (high[0], high[255]) = (1, big);
            let mut low = vec![0u32; 256];
            (low[0], low[255]) = (big, 1);
            let mut tables = vec![CdfTable::from_freqs(high, n), CdfTable::from_freqs(low, n)];
            // The sample's ~250 symbols need 256 slots.
            if n >= 8 {
                tables.push(sample_table(n));
            }
            for t in tables {
                let p = PackedLut::build(&t).expect("qualifies");
                assert_eq!(p.entries().len(), 1 << n);
                for slot in 0..(1u32 << n) {
                    let s = t.symbol_of_slot(slot);
                    let (f, c) = (t.freq(s as usize), t.cdf(s as usize));
                    assert_eq!(p.lookup(slot), (s, f, c), "n={n} slot {slot}");
                    let e = p.entries()[slot as usize];
                    assert_eq!(e & PACKED_FIELD_MASK, slot - c, "n={n} slot {slot}");
                    assert_eq!(e >> PACKED_FREQ_SHIFT, f, "n={n} slot {slot}");
                }
            }
        }
    }

    #[test]
    fn wide_matches_reference_lookup() {
        let t = sample_table(12);
        let w = WideLut::build(&t);
        for slot in 0..(1u32 << 12) {
            let (s, f, c) = w.lookup(slot);
            assert_eq!(s, t.symbol_of_slot(slot));
            assert_eq!(f, t.freq(s as usize));
            assert_eq!(c, t.cdf(s as usize));
        }
    }

    #[test]
    fn packed_rejected_above_n12() {
        let t = sample_table(13);
        assert!(PackedLut::build(&t).is_none());
        matches!(DecodeTables::build(&t), DecodeTables::Wide(_))
            .then_some(())
            .expect("wide fallback");
    }

    #[test]
    fn packed_rejected_for_16bit_alphabet() {
        let data: Vec<u16> = (0..4096u16).collect();
        let t = CdfTable::of_u16(&data, 4096, 12);
        assert!(PackedLut::build(&t).is_none());
    }

    #[test]
    fn wide_handles_16bit_symbols_at_n16() {
        let data: Vec<u16> = (0..60_000u32).map(|i| (i % 3000) as u16).collect();
        let t = CdfTable::of_u16(&data, 1 << 16, 16);
        let w = WideLut::build(&t);
        for probe in [0u32, 1, 1234, 65_535] {
            let (s, f, c) = w.lookup(probe);
            assert_eq!(s, t.symbol_of_slot(probe));
            assert_eq!(f, t.freq(s as usize));
            assert_eq!(c, t.cdf(s as usize));
        }
    }

    #[test]
    fn wide_stats_match_table() {
        let t = sample_table(11);
        let w = WideLut::build(&t);
        for s in 0..251u16 {
            let (f, c) = w.stats(s);
            assert_eq!(f, t.freq(s as usize));
            assert_eq!(c, t.cdf(s as usize));
        }
    }
}
