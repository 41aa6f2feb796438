//! The primitive decode steps, shared verbatim by the serial decoder,
//! Recoil's three-phase decoder, and the conventional baseline — one source
//! of truth for the Eq. 2 / Eq. 4 arithmetic.

use crate::params::{LOWER_BOUND, RENORM_BITS};
use crate::RansError;
use recoil_bitio::BackwardWordReader;
use recoil_models::ModelProvider;

/// Eq. 4 (one step, because `b >= n`): if `x` underflowed `L`, pull one u16
/// word from the stream; otherwise leave it unchanged.
#[inline(always)]
pub fn renorm_read(
    x: u32,
    reader: &mut BackwardWordReader<'_>,
    pos: u64,
) -> Result<u32, RansError> {
    if x < LOWER_BOUND {
        let w = reader.next().ok_or(RansError::BitstreamUnderflow { pos })? as u32;
        let x = (x << RENORM_BITS) | w;
        debug_assert!(x >= LOWER_BOUND, "state must recover in one step (b >= n)");
        Ok(x)
    } else {
        Ok(x)
    }
}

/// Eq. 2: decodes one symbol from state `x` at position `pos`, returning the
/// successor state and the symbol. `x` must be renormalized (`>= L`).
#[inline(always)]
pub fn decode_transform<P: ModelProvider + ?Sized>(
    x: u32,
    pos: u64,
    provider: &P,
    n: u32,
    mask: u32,
) -> (u32, u16) {
    debug_assert!(x >= LOWER_BOUND);
    let slot = x & mask;
    let (sym, f, c) = provider.lookup(pos, slot);
    debug_assert!(f > 0, "decoded a zero-frequency slot");
    let x = f * (x >> n) + slot - c;
    (x, sym)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_models::{CdfTable, StaticModelProvider};

    #[test]
    fn renorm_reads_only_below_bound() {
        let words = [0xBEEFu16];
        let mut r = BackwardWordReader::from_end(&words);
        let x = renorm_read(LOWER_BOUND, &mut r, 0).unwrap();
        assert_eq!(x, LOWER_BOUND); // no read
        assert_eq!(r.remaining(), 1);
        let x = renorm_read(0x1234, &mut r, 0).unwrap();
        assert_eq!(x, 0x1234_BEEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn renorm_underflow_is_reported() {
        let words: [u16; 0] = [];
        let mut r = BackwardWordReader::from_end(&words);
        let err = renorm_read(5, &mut r, 42).unwrap_err();
        assert_eq!(err, RansError::BitstreamUnderflow { pos: 42 });
    }

    #[test]
    fn transform_inverts_encode_formula() {
        // Encode x' = (x/f) << n + F + x%f by hand, then invert via
        // decode_transform.
        let provider = StaticModelProvider::new(CdfTable::from_freqs(vec![4, 8, 4], 4));
        let (n, mask) = (4u32, 15u32);
        for sym in 0u16..3 {
            let (f, c) = (
                provider.table().freq(sym as usize),
                provider.table().cdf(sym as usize),
            );
            for x0 in [LOWER_BOUND, 123_456, 0xFFFF_FF00u32 >> 4] {
                let enc = ((x0 / f) << n) + c + (x0 % f);
                let (back, s) = decode_transform(enc, 0, &provider, n, mask);
                assert_eq!(s, sym);
                assert_eq!(back, x0);
            }
        }
    }
}
