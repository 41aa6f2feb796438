//! Symbol counting for static model construction (paper §5.1: "static
//! probability distributions generated by symbol statistics").

/// Occurrence counts over a contiguous alphabet `0..alphabet_size`.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Empty histogram over `alphabet_size` symbols (max 65536).
    pub fn new(alphabet_size: usize) -> Self {
        assert!((1..=1 << 16).contains(&alphabet_size));
        Self {
            counts: vec![0; alphabet_size],
            total: 0,
        }
    }

    /// Histogram of a byte slice over the full 256-symbol alphabet.
    ///
    /// Counted eight bytes at a time into eight sub-tables, one per byte of
    /// the word, summed at the end: with one table a run of equal bytes
    /// chains every increment through the previous one's store.
    pub fn of_bytes(data: &[u8]) -> Self {
        let mut sub = [[0u64; 256]; 8];
        let (words, tail) = data.as_chunks::<8>();
        for word in words {
            let w = u64::from_le_bytes(*word);
            for (i, table) in sub.iter_mut().enumerate() {
                table[(w >> (8 * i)) as usize & 0xFF] += 1;
            }
        }
        for &b in tail {
            sub[0][usize::from(b)] += 1;
        }
        let mut h = Self::new(256);
        for (s, count) in h.counts.iter_mut().enumerate() {
            *count = sub.iter().map(|table| table[s]).sum();
        }
        h.total = data.len() as u64;
        h
    }

    /// Histogram of 16-bit symbols; `alphabet_size` must exceed every value.
    pub fn of_u16(data: &[u16], alphabet_size: usize) -> Self {
        let mut h = Self::new(alphabet_size);
        for &s in data {
            h.counts[s as usize] += 1;
        }
        h.total = data.len() as u64;
        h
    }

    /// Records one occurrence of `sym`.
    #[inline]
    pub fn add(&mut self, sym: usize) {
        self.counts[sym] += 1;
        self.total += 1;
    }

    /// Count for `sym`.
    #[inline]
    pub fn count(&self, sym: usize) -> u64 {
        self.counts[sym]
    }

    /// All counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded symbols.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Alphabet size this histogram covers.
    pub fn alphabet_size(&self) -> usize {
        self.counts.len()
    }

    /// Number of symbols with a nonzero count.
    pub fn support(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Order-0 Shannon entropy in bits per symbol (0.0 for empty input).
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let t = self.total as f64;
        self.counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / t;
                -p * p.log2()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_histogram_counts() {
        let h = Histogram::of_bytes(&[0, 1, 1, 255, 255, 255]);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(255), 3);
        assert_eq!(h.total(), 6);
        assert_eq!(h.support(), 3);
    }

    #[test]
    fn byte_histogram_matches_counting_one_by_one() {
        // Lengths around the 8-byte step, runs of one value included.
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4099] {
            let data: Vec<u8> = (0..len as u32)
                .map(|i| {
                    if i % 5 < 3 {
                        42
                    } else {
                        (i.wrapping_mul(2654435761) >> 24) as u8
                    }
                })
                .collect();
            let mut one_by_one = Histogram::new(256);
            for &b in &data {
                one_by_one.add(usize::from(b));
            }
            let h = Histogram::of_bytes(&data);
            assert_eq!(h.counts(), one_by_one.counts(), "len {len}");
            assert_eq!(h.total(), one_by_one.total());
        }
    }

    #[test]
    fn u16_histogram_counts() {
        let h = Histogram::of_u16(&[7, 7, 1000], 2048);
        assert_eq!(h.count(7), 2);
        assert_eq!(h.count(1000), 1);
        assert_eq!(h.alphabet_size(), 2048);
    }

    #[test]
    fn uniform_entropy_is_log2() {
        let h = Histogram::of_bytes(&(0..=255u8).collect::<Vec<_>>());
        assert!((h.entropy_bits() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn single_symbol_entropy_is_zero() {
        let h = Histogram::of_bytes(&[42; 100]);
        assert_eq!(h.entropy_bits(), 0.0);
    }

    #[test]
    fn empty_entropy_is_zero() {
        let h = Histogram::new(256);
        assert_eq!(h.entropy_bits(), 0.0);
    }
}
