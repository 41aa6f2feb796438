//! Container for partitioned streams: offset table + concatenated chunks.

use recoil_rans::EncodedStream;

/// `P` independent interleaved streams over consecutive symbol ranges.
#[derive(Debug, Clone)]
pub struct ConventionalContainer {
    /// Per-partition streams, in symbol order.
    pub chunks: Vec<EncodedStream>,
    /// Interleave width shared by all chunks.
    pub ways: u32,
}

impl ConventionalContainer {
    /// Total symbols across all partitions.
    pub fn num_symbols(&self) -> u64 {
        self.chunks.iter().map(|c| c.num_symbols).sum()
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.chunks.len()
    }

    /// Starting symbol position of each chunk plus the total (len P+1).
    pub fn symbol_bounds(&self) -> Vec<u64> {
        let mut b = Vec::with_capacity(self.chunks.len() + 1);
        let mut acc = 0u64;
        b.push(0);
        for c in &self.chunks {
            acc += c.num_symbols;
            b.push(acc);
        }
        b
    }

    /// Per-chunk fixed cost in the container: one offset-table entry
    /// (u32 word offset + u32 symbol count) plus the chunk's `W` u32 final
    /// states — "the initial setup cost of rANS codecs, the final states,
    /// etc." (§2.3) that grows linearly with the partition count.
    pub fn per_chunk_fixed_bytes(&self) -> u64 {
        8 + self.ways as u64 * 4
    }

    /// Total payload bytes: global header, offset table, states, words.
    pub fn payload_bytes(&self) -> u64 {
        let header = 8 + 4 + 1 + 1 + 2; // total symbols, chunk count, ways, n, pad
        let words: u64 = self.chunks.iter().map(|c| c.words.len() as u64 * 2).sum();
        header + self.chunks.len() as u64 * self.per_chunk_fixed_bytes() + words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_rans::params::INITIAL_STATE;

    fn chunk(words: usize, symbols: u64, ways: u32) -> EncodedStream {
        EncodedStream {
            words: std::iter::repeat_n(0, words).collect(),
            final_states: vec![INITIAL_STATE; ways as usize],
            num_symbols: symbols,
            ways,
        }
    }

    #[test]
    fn bounds_accumulate() {
        let c = ConventionalContainer {
            chunks: vec![chunk(4, 100, 8), chunk(6, 120, 8), chunk(2, 30, 8)],
            ways: 8,
        };
        assert_eq!(c.symbol_bounds(), vec![0, 100, 220, 250]);
        assert_eq!(c.num_symbols(), 250);
        assert_eq!(c.partitions(), 3);
    }

    #[test]
    fn payload_grows_linearly_with_partitions() {
        let mk = |p: usize| ConventionalContainer {
            chunks: (0..p).map(|_| chunk(100, 1000, 32)).collect(),
            ways: 32,
        };
        let c1 = mk(1).payload_bytes();
        let c10 = mk(10).payload_bytes();
        // Same total words; difference is 9 chunks of fixed cost.
        assert_eq!(c10 - c1 - 9 * 200, 9 * mk(1).per_chunk_fixed_bytes());
    }
}
