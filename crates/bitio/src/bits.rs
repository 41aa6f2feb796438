//! Bit-granular writers/reader used by the §4.3 metadata format.
//!
//! Bits are packed LSB-first within each byte: the first bit written lands in
//! bit 0 of byte 0. `write(v, n)` stores the low `n` bits of `v`; `read(n)`
//! returns them in the same order. This matches how the metadata series are
//! specified (a width field followed by fixed-width values) and keeps the
//! reader branch-light.
//!
//! Two writers share one accumulator: [`BitWriter`] grows a vector, for
//! output of unknown length; [`BitSliceWriter`] fills a slice the caller
//! sized, for output whose length is known before the first bit.

/// Pending bits, first-written in bit 0, that leave a writer eight bytes at
/// a time.
#[derive(Debug, Default, Clone, Copy)]
struct Pending {
    acc: u64,
    /// Bits pending in `acc` (0..64).
    used: u32,
}

impl Pending {
    /// Adds the low `n` bits of `v` (`n <= 64`); returns the accumulator
    /// when it fills, with the bits that did not fit pending in its place.
    #[inline]
    fn push(&mut self, v: u64, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        debug_assert!(
            n == 64 || v < (1u64 << n),
            "value {v} does not fit in {n} bits"
        );
        let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
        let full = self.acc | v << self.used;
        let total = self.used + n;
        if total < 64 {
            (self.acc, self.used) = (full, total);
            return None;
        }
        // The high bits of `v` that did not fit; none when `acc` was empty.
        let fitted = 64 - self.used;
        self.acc = if fitted == 64 { 0 } else { v >> fitted };
        self.used = total - 64;
        Some(full)
    }

    /// The pending bits' bytes, the last zero-padded.
    fn tail(&self) -> ([u8; 8], usize) {
        (self.acc.to_le_bytes(), self.used.div_ceil(8) as usize)
    }
}

/// LSB-first bit writer backed by a byte vector.
///
/// Bits collect in a 64-bit accumulator and reach the vector eight bytes at
/// a time, so a `write` is a shift, an OR and (every 64 bits) one
/// `extend_from_slice` — whatever the field width or the alignment it
/// lands on.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Whole flushed accumulators, 8 bytes each.
    bytes: Vec<u8>,
    pending: Pending,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `n` bits of `v` (`n <= 64`).
    #[inline]
    pub fn write(&mut self, v: u64, n: u32) {
        if let Some(full) = self.pending.push(v, n) {
            self.bytes.extend_from_slice(&full.to_le_bytes());
        }
    }

    /// Zero-fills to the next 64-bit boundary, so that what is written next
    /// starts word [`BitWriter::word_len`] of [`BitWriter::into_words`].
    pub fn align_to_word(&mut self) {
        if self.pending.used > 0 {
            self.bytes
                .extend_from_slice(&self.pending.acc.to_le_bytes());
            self.pending = Pending::default();
        }
    }

    /// Whole 64-bit words written so far.
    pub fn word_len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending.used)
    }

    /// Finish and return the packed bytes (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let (tail, len) = self.pending.tail();
        self.bytes.extend_from_slice(&tail[..len]);
        self.bytes
    }

    /// Finish and return the packed bits as 64-bit words, the first-written
    /// bit in bit 0 of word 0 (final partial word zero-padded): the form
    /// [`BitSliceWriter::append`] copies from.
    pub fn into_words(mut self) -> Vec<u64> {
        self.align_to_word();
        self.bytes
            .chunks_exact(8)
            .map(|word| u64::from_le_bytes(word.try_into().expect("8 bytes")))
            .collect()
    }
}

/// LSB-first bit writer over a slice the caller sized: the same bytes as a
/// [`BitWriter`] given the same writes, written in place, so output whose
/// length is known up front takes one allocation and no capacity check per
/// word.
///
/// # Panics
///
/// A write or [`BitSliceWriter::finish`] panics if the bits written so far
/// need more bytes than the slice holds.
#[derive(Debug)]
pub struct BitSliceWriter<'a> {
    out: &'a mut [u8],
    /// Bytes of `out` written: whole flushed accumulators, 8 bytes each.
    at: usize,
    pending: Pending,
}

impl<'a> BitSliceWriter<'a> {
    /// A writer whose first bit lands in bit 0 of `out[0]`.
    pub fn new(out: &'a mut [u8]) -> Self {
        Self {
            out,
            at: 0,
            pending: Pending::default(),
        }
    }

    /// Writes the low `n` bits of `v` (`n <= 64`).
    #[inline]
    pub fn write(&mut self, v: u64, n: u32) {
        if let Some(full) = self.pending.push(v, n) {
            self.out[self.at..self.at + 8].copy_from_slice(&full.to_le_bytes());
            self.at += 8;
        }
    }

    /// Appends the first `bits` bits of `words`, a bit sequence in the
    /// layout [`BitWriter::into_words`] returns, at whatever alignment this
    /// writer is at: per whole word one funnel shift and one store.
    ///
    /// # Panics
    ///
    /// If `words` holds fewer than `bits` bits.
    #[inline]
    pub fn append(&mut self, words: &[u64], bits: u64) {
        let (whole, rest) = words.split_at((bits / 64) as usize);
        let used = self.pending.used;
        let end = self.at + 8 * whole.len();
        let mut acc = self.pending.acc;
        for (out, &word) in self.out[self.at..end].chunks_exact_mut(8).zip(whole) {
            out.copy_from_slice(&(acc | word << used).to_le_bytes());
            // The word's top `used` bits, which did not fit (none at 0).
            acc = word >> 1 >> (63 - used);
        }
        (self.at, self.pending.acc) = (end, acc);
        let tail = (bits % 64) as u32;
        if tail > 0 {
            self.write(rest[0] & ((1u64 << tail) - 1), tail);
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.at as u64 * 8 + u64::from(self.pending.used)
    }

    /// Writes the pending bits (the last byte zero-padded) and returns how
    /// many bytes of the slice hold the output.
    pub fn finish(self) -> usize {
        let (tail, len) = self.pending.tail();
        self.out[self.at..self.at + len].copy_from_slice(&tail[..len]);
        self.at + len
    }
}

/// LSB-first bit reader over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Reader starting at bit 0 of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads `n` bits (`n <= 64`); returns `None` if the stream is short.
    #[inline]
    pub fn read(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        // Fast path: one unaligned u64 load covers any `n <= 57` plus the
        // sub-byte offset.
        let byte = (self.pos / 8) as usize;
        if n <= 57 && byte + 8 <= self.bytes.len() {
            let word = u64::from_le_bytes(self.bytes[byte..byte + 8].try_into().expect("8 bytes"));
            let off = (self.pos % 8) as u32;
            self.pos += n as u64;
            // `n == 0` must yield 0 (shift-by-64 is UB-adjacent otherwise).
            let mask = (1u64 << n).wrapping_sub(1);
            return Some(if n == 0 { 0 } else { (word >> off) & mask });
        }
        self.read_wide(n)
    }

    /// Fields of 58..=64 bits (the metadata parser's four-states-at-once
    /// reads): the same load plus the ninth byte for the bits the sub-byte
    /// offset pushed out of it.
    #[inline]
    fn read_wide(&mut self, n: u32) -> Option<u64> {
        let byte = (self.pos / 8) as usize;
        if n > 57 && byte + 9 <= self.bytes.len() {
            let word = u64::from_le_bytes(self.bytes[byte..byte + 8].try_into().expect("8 bytes"));
            let off = (self.pos % 8) as u32;
            self.pos += n as u64;
            let high = u64::from(self.bytes[byte + 8]);
            let bits = if off == 0 {
                word
            } else {
                (word >> off) | (high << (64 - off))
            };
            return Some(if n == 64 {
                bits
            } else {
                bits & ((1u64 << n) - 1)
            });
        }
        self.read_slow(n)
    }

    #[cold]
    fn read_slow(&mut self, n: u32) -> Option<u64> {
        if self.pos + n as u64 > self.bytes.len() as u64 * 8 {
            return None;
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < n {
            let byte = self.bytes[(self.pos / 8) as usize];
            let off = (self.pos % 8) as u32;
            let room = 8 - off;
            let take = room.min(n - got);
            let chunk = ((byte >> off) & ((1u16 << take) - 1) as u8) as u64;
            out |= chunk << got;
            got += take;
            self.pos += take as u64;
        }
        Some(out)
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Jumps to an absolute bit position.
    pub fn set_pos(&mut self, bit: u64) {
        debug_assert!(bit <= self.bytes.len() as u64 * 8);
        self.pos = bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time writer [`BitWriter`] replaced, kept as the
    /// reference for what the packed bytes must be.
    #[derive(Default)]
    struct ByteAtATimeWriter {
        bytes: Vec<u8>,
        /// Bits already used in the last byte (0..8); 0 means byte-aligned.
        used: u32,
    }

    impl ByteAtATimeWriter {
        fn write(&mut self, v: u64, n: u32) {
            let mut v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            let mut left = n;
            while left > 0 {
                if self.used == 0 {
                    self.bytes.push(0);
                }
                let room = 8 - self.used;
                let take = room.min(left);
                let last = self.bytes.last_mut().expect("just ensured non-empty");
                *last |= ((v & ((1u64 << take) - 1)) as u8) << self.used;
                v >>= take;
                self.used = (self.used + take) % 8;
                left -= take;
            }
        }

        fn bit_len(&self) -> u64 {
            self.bytes.len() as u64 * 8 - u64::from((8 - self.used) % 8)
        }
    }

    /// xorshift64* — enough to vary values and widths reproducibly.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn fit(v: u64, n: u32) -> u64 {
        if n == 64 {
            v
        } else {
            v & ((1u64 << n) - 1)
        }
    }

    #[test]
    fn accumulator_writer_matches_the_byte_at_a_time_reference() {
        // Every starting alignment within an accumulator, then a seeded mix
        // that is dense in the edge widths.
        const EDGES: [u32; 5] = [0, 1, 57, 63, 64];
        for start in 0..64u32 {
            for seed in 1..=8u64 {
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(start);
                let mut fields = vec![(fit(next(&mut rng), start), start)];
                for i in 0..96 {
                    let r = next(&mut rng);
                    let n = if i % 3 == 0 {
                        EDGES[(r % 5) as usize]
                    } else {
                        (r % 65) as u32
                    };
                    fields.push((fit(next(&mut rng), n), n));
                }
                let mut new = BitWriter::new();
                let mut old = ByteAtATimeWriter::default();
                for &(v, n) in &fields {
                    new.write(v, n);
                    old.write(v, n);
                    assert_eq!(new.bit_len(), old.bit_len(), "start {start} seed {seed}");
                }
                let bits = new.bit_len();
                let bytes = new.into_bytes();
                assert_eq!(bytes, old.bytes, "start {start} seed {seed}");
                assert_eq!(bytes.len() as u64, bits.div_ceil(8));
                if !bits.is_multiple_of(8) {
                    let pad = bytes[bytes.len() - 1] >> (bits % 8);
                    assert_eq!(pad, 0, "tail of the last byte is zero-padded");
                }
                let mut r = BitReader::new(&bytes);
                for &(v, n) in &fields {
                    assert_eq!(r.read(n), Some(v), "start {start} seed {seed}");
                }
                // The slice writer, over a slice of exactly that length
                // whose every byte it must overwrite.
                let mut in_place = vec![0xFF; bytes.len()];
                let mut w = BitSliceWriter::new(&mut in_place);
                for &(v, n) in &fields {
                    w.write(v, n);
                }
                assert_eq!(w.bit_len(), bits);
                assert_eq!(w.finish(), bytes.len());
                assert_eq!(in_place, bytes, "start {start} seed {seed}");
            }
        }
    }

    #[test]
    fn appended_words_match_writing_their_bits() {
        // Stored sequences of every length around a word edge, padded to
        // words, appended at every alignment: the same bytes as writing the
        // fields one by one.
        let mut rng = 0x5DEE_CE66_D1CE_4E5Bu64;
        for start in 0..64u32 {
            for len in [0u64, 1, 5, 63, 64, 65, 127, 128, 200] {
                let mut stored = BitWriter::new();
                let mut fields = Vec::new();
                let mut left = len;
                while left > 0 {
                    let n = (next(&mut rng) % 64 + 1).min(left) as u32;
                    let v = fit(next(&mut rng), n);
                    stored.write(v, n);
                    fields.push((v, n));
                    left -= u64::from(n);
                }
                assert_eq!(stored.bit_len(), len);
                let words = stored.into_words();
                assert_eq!(words.len() as u64, len.div_ceil(64));
                let lead = fit(next(&mut rng), start);
                let mut by_write = BitWriter::new();
                by_write.write(lead, start);
                for &(v, n) in &fields {
                    by_write.write(v, n);
                }
                by_write.write(0b101, 3);
                let mut out = vec![0xFF; (u64::from(start) + len + 3).div_ceil(8) as usize];
                let mut by_append = BitSliceWriter::new(&mut out);
                by_append.write(lead, start);
                by_append.append(&words, len);
                by_append.write(0b101, 3);
                assert_eq!(by_append.bit_len(), by_write.bit_len());
                assert_eq!(by_append.finish(), out.len());
                assert_eq!(out, by_write.into_bytes(), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn aligning_pads_to_the_next_word() {
        let mut w = BitWriter::new();
        w.align_to_word();
        assert_eq!((w.bit_len(), w.word_len()), (0, 0));
        w.write(0b11, 2);
        w.align_to_word();
        assert_eq!((w.bit_len(), w.word_len()), (64, 1));
        w.write(u64::MAX, 64);
        w.align_to_word();
        assert_eq!((w.bit_len(), w.word_len()), (128, 2));
        w.write(1, 1);
        assert_eq!(w.into_words(), [0b11, u64::MAX, 1]);
    }

    #[test]
    fn wide_reads_at_every_alignment() {
        for off in 0..8u32 {
            for n in 58..=64u32 {
                let v = fit(0xFEDC_BA98_7654_3210 ^ u64::from(n), n);
                let mut w = BitWriter::new();
                w.write(0, off);
                w.write(v, n);
                w.write(0x5A, 8); // a ninth byte, so the wide path is taken
                w.write(u64::MAX, 64);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read(off), Some(0));
                assert_eq!(r.read(n), Some(v), "offset {off} width {n}");
                assert_eq!(r.read(8), Some(0x5A));
                assert_eq!(r.read(64), Some(u64::MAX));
            }
        }
    }

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xFFFF, 16);
        w.write(0, 1);
        w.write(0x1234_5678_9ABC_DEF0, 64);
        w.write(1, 1);
        let bits = w.bit_len();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(16), Some(0xFFFF));
        assert_eq!(r.read(1), Some(0));
        assert_eq!(r.read(64), Some(0x1234_5678_9ABC_DEF0));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.bit_pos(), bits);
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write(0b11, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn reader_detects_underflow() {
        let mut w = BitWriter::new();
        w.write(0b1010, 4);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // One padded byte is present, so 8 bits are readable but not 9.
        assert_eq!(r.read(8), Some(0b1010));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn zero_width_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write(0, 0);
        assert_eq!(w.bit_len(), 0);
        w.write(0b1, 1);
        w.write(0, 0);
        assert_eq!(w.bit_len(), 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(0), Some(0));
        assert_eq!(r.read(1), Some(1));
    }

    #[test]
    fn many_single_bits_round_trip() {
        let pattern: Vec<bool> = (0..1000).map(|i| (i * 7) % 3 == 0).collect();
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write(b as u64, 1);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read(1), Some(b as u64));
        }
    }
}
