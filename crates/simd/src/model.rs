//! The static-model view the kernels gather from.

use recoil_models::{DecodeTables, StaticModelProvider};

/// Borrowed decode tables in kernel-friendly form.
#[derive(Debug, Clone, Copy)]
pub enum SimdModel<'a> {
    /// One-gather packed LUT (8-bit symbols, `n <= 12`):
    /// `(slot - cdf) | sym << 12 | freq << 20` per slot, so a lane update
    /// is `freq * (x >> n) + (entry & (2^n - 1))` with no subtraction.
    Packed {
        /// `2^n` packed entries.
        lut: &'a [u32],
        /// Quantization level.
        n: u32,
    },
    /// Two-gather wide LUT: `inv[slot] -> sym`, `ff[sym] = freq << 16 | cdf`.
    Wide {
        /// Slot→symbol (with one trailing padding entry for 32-bit gathers).
        inv: &'a [u16],
        /// Per-symbol packed frequency/cdf.
        ff: &'a [u32],
        /// Quantization level.
        n: u32,
    },
}

impl<'a> SimdModel<'a> {
    /// Kernel view of a provider's decode tables.
    pub fn from_provider(provider: &'a StaticModelProvider) -> Self {
        Self::from_tables(provider.decode_tables())
    }

    /// Kernel view of raw decode tables.
    pub fn from_tables(tables: &'a DecodeTables) -> Self {
        match tables {
            DecodeTables::Packed(p) => SimdModel::Packed {
                lut: p.entries(),
                n: p.quant_bits(),
            },
            DecodeTables::Wide(w) => SimdModel::Wide {
                inv: w.inv(),
                ff: w.ff(),
                n: w.quant_bits(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_models::CdfTable;

    #[test]
    fn views_match_underlying_tables() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 97) as u8).collect();
        for n in [7u32, 11, 12, 13, 14] {
            let table = CdfTable::of_bytes(&data, n);
            let tables = DecodeTables::build(&table);
            match (SimdModel::from_tables(&tables), &tables) {
                (SimdModel::Packed { lut, n: level }, DecodeTables::Packed(p)) => {
                    assert_eq!((lut, level), (p.entries(), n));
                    // The kernels' addend is the entry under the slot mask.
                    for (slot, &e) in (0u32..).zip(lut) {
                        let cdf = table.cdf(table.symbol_of_slot(slot) as usize);
                        assert_eq!(e & ((1 << n) - 1), slot - cdf, "n={n} slot {slot}");
                    }
                }
                (SimdModel::Wide { inv, ff, n: level }, DecodeTables::Wide(w)) => {
                    assert_eq!((inv, ff, level), (w.inv(), w.ff(), n));
                }
                (view, _) => panic!("n={n}: {view:?} is not a view of its tables"),
            }
        }
    }
}
