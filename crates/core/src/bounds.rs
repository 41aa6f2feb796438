//! The checks every parser of a hostile stream header runs before it sizes
//! anything from the declared geometry — shared by the item-section parser
//! (`file.rs`: files, PUBLISH and TRANSMIT alike) and the incremental
//! decoder, so a header is judged by one rule everywhere.

use recoil_models::CdfTable;
use recoil_rans::WordStream;

/// Most bitstream words a receiver reserves up front from a *declared* word
/// count (1 MiB); beyond this a word store grows only as real bytes arrive,
/// so a hostile header cannot drive the allocation. Applied by
/// [`reserve_declared_words`].
pub const MAX_RESERVED_WORDS: usize = 1 << 19;

/// Empties `words` to receive a stream whose header declares `declared`
/// words, reserving exactly `min(declared, MAX_RESERVED_WORDS)`: exact, so
/// a header never grows a store past the bound by doubling either,
/// and nothing at all in a store that already holds that many.
pub fn reserve_declared_words(words: &mut WordStream, declared: u64) {
    words.truncate(0);
    let declared = usize::try_from(declared).unwrap_or(usize::MAX);
    words.reserve_exact(declared.min(MAX_RESERVED_WORDS));
}

/// Information-capacity bound: can `num_symbols` symbols have been coded
/// into `num_words` 16-bit words over `ways` lanes at level `quant_bits`?
///
/// Every encoded symbol multiplies a lane state by at least
/// `2^n / (2^n − 1)`, and all of that growth must fit in the renorm words
/// plus the per-lane states. The slack (48 bits per lane, 64 flat, 0.1 %)
/// is the loosest any caller needs: it also holds for a readiness *prefix*
/// of a stream, whose lane states are mid-flight. Rejecting a header that
/// exceeds this keeps every decode-side allocation proportional to the
/// bytes actually received.
pub(crate) fn symbols_fit(quant_bits: u32, ways: u32, num_symbols: u64, num_words: u64) -> bool {
    let scale = (1u64 << quant_bits.min(63)) as f64;
    let min_bits_per_symbol = scale.log2() - (scale - 1.0).log2();
    let capacity_bits = 16.0 * num_words as f64 + 48.0 * f64::from(ways) + 64.0;
    num_symbols as f64 * min_bits_per_symbol <= capacity_bits * 1.001
}

/// Builds the model table from transmitted frequencies after checking the
/// quantizer's invariants: a level in `1..=16`, a non-empty alphabet,
/// frequencies that sum to exactly `2^n`, none reaching `2^n`. The error is
/// the reason, for the caller to wrap in its own error kind.
pub(crate) fn checked_cdf_table(freqs: Vec<u32>, quant_bits: u32) -> Result<CdfTable, String> {
    if !(1..=16).contains(&quant_bits) {
        return Err(format!("bad quantization level {quant_bits}"));
    }
    if freqs.is_empty() {
        return Err("empty model frequency table".into());
    }
    let sum: u64 = freqs.iter().map(|&f| u64::from(f)).sum();
    if sum != 1 << quant_bits {
        return Err(format!(
            "model frequencies sum to {sum}, expected 2^{quant_bits}"
        ));
    }
    if freqs.iter().any(|&f| u64::from(f) >= 1 << quant_bits) {
        return Err("model frequency reaches 2^n".into());
    }
    Ok(CdfTable::from_freqs(freqs, quant_bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_declared_word_count_reserves_at_most_the_bound() {
        let bound = MAX_RESERVED_WORDS as u64;
        for declared in [0, 1000, bound, bound + 1, u64::MAX] {
            let mut words = WordStream::new();
            reserve_declared_words(&mut words, declared);
            assert!(words.capacity() <= MAX_RESERVED_WORDS, "{declared}");
            assert!(words.capacity() as u64 >= declared.min(bound), "{declared}");
        }
        let mut kept: WordStream = std::iter::repeat_n(7, MAX_RESERVED_WORDS).collect();
        let (capacity, at) = (kept.capacity(), kept.as_bytes().as_ptr());
        reserve_declared_words(&mut kept, u64::MAX);
        assert!(kept.is_empty());
        assert_eq!(
            (kept.capacity(), kept.as_bytes().as_ptr()),
            (capacity, at),
            "reserved nothing"
        );
    }

    #[test]
    fn capacity_bound_is_total_over_hostile_levels() {
        assert!(symbols_fit(11, 32, 10_000, 4_000));
        assert!(!symbols_fit(11, 32, u64::MAX / 2, 4_000));
        // Out-of-range levels never panic; a level of zero admits nothing.
        assert!(!symbols_fit(0, 32, 1, 4_000));
        for n in [17, 63, 64, u32::MAX] {
            let _ = symbols_fit(n, 32, 10_000, 4_000);
        }
    }

    #[test]
    fn model_invariants_are_typed_reasons_not_panics() {
        assert!(checked_cdf_table(vec![1024, 1024], 11).is_ok());
        for (freqs, n, why) in [
            (vec![1024, 1024], 0, "level"),
            (vec![1024, 1024], 17, "level"),
            (vec![], 11, "empty"),
            (vec![1024, 1023], 11, "sum"),
            (vec![2048, 0], 11, "reaches"),
        ] {
            let err = checked_cdf_table(freqs, n).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }
}
