//! Forward-written, backward-read u16 word streams.
//!
//! rANS renormalization (paper Def. 2.2, `b = 16`) writes one u16 word per
//! renorm event during encoding and reads the words back in exactly the
//! reverse order during decoding. In memory, as in every format that
//! carries it, a stream is its little-endian bytes, two a word in stream
//! order. Offsets are word indices, as in the paper's split metadata
//! ("Bitstream Offset").

use std::fmt;

/// Append-only stream of u16 renormalization words, held as their
/// little-endian bytes: the one owner of the byte order and of the
/// whole-word (even length) invariant.
///
/// The offset [`WordStream::push`] returns is what Recoil records in split
/// metadata. Received bytes land in place ([`WordStream::land`]), and the
/// stream is served, checksummed and decoded as it is stored
/// ([`WordStream::as_bytes`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WordStream {
    bytes: Vec<u8>,
}

/// Bytes offered as words that end mid-word (their length is odd).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OddLength(pub usize);

impl fmt::Display for OddLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a {}-byte slice ends mid-word", self.0)
    }
}

impl WordStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one word and returns the offset it was written at.
    #[inline]
    pub fn push(&mut self, word: u16) -> u64 {
        let at = self.len() as u64;
        self.bytes.extend_from_slice(&word.to_le_bytes());
        at
    }

    /// Number of words written so far (= offset of the next word).
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / 2
    }

    /// True when no words have been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The word at offset `i` (panics past the end).
    pub fn word(&self, i: usize) -> u16 {
        u16::from_le_bytes(self.bytes.as_chunks().0[i])
    }

    /// The words in stream order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        let (words, _) = self.bytes.as_chunks();
        words.iter().map(|&w| u16::from_le_bytes(w))
    }

    /// The stream's wire image: what decoders read and formats carry.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Grows the stream by `n` zeroed words and hands their bytes to `fill`
    /// to write in place. A failed fill truncates the stream back, so a torn
    /// or refused body leaves nothing (and the capacity stays).
    pub fn land<E>(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.bytes.len();
        self.bytes.resize(start + 2 * n, 0);
        fill(&mut self.bytes[start..]).inspect_err(|_| self.bytes.truncate(start))
    }

    /// The bytes of words `at .. at + n`, to overwrite in place: the stream
    /// grows by zeroed words only as far as that reaches past its end, and
    /// the words already there keep their values until written. A writer
    /// that stores ahead of what it keeps (the vector encoder) walks the
    /// window forward and truncates once at the end, so only what it keeps
    /// and one window are ever zeroed.
    pub fn window_mut(&mut self, at: usize, n: usize) -> &mut [u8] {
        let end = 2 * (at + n);
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        &mut self.bytes[2 * at..end]
    }

    /// Appends words given as their wire image; bytes that end mid-word are
    /// refused, and nothing of them is stored.
    pub fn extend_from_le_bytes(&mut self, bytes: &[u8]) -> Result<(), OddLength> {
        if !bytes.len().is_multiple_of(2) {
            return Err(OddLength(bytes.len()));
        }
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    /// Keeps the first `words` words (all of them when there are fewer).
    pub fn truncate(&mut self, words: usize) {
        self.bytes.truncate(words.saturating_mul(2));
    }

    /// Words the stream can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.bytes.capacity() / 2
    }

    /// Reserves room for exactly `words` more words.
    pub fn reserve_exact(&mut self, words: usize) {
        self.bytes.reserve_exact(words.saturating_mul(2));
    }

    /// Shrinks the allocation to at least `words` words and the length.
    pub fn shrink_to(&mut self, words: usize) {
        self.bytes.shrink_to(words.saturating_mul(2));
    }
}

impl FromIterator<u16> for WordStream {
    fn from_iter<I: IntoIterator<Item = u16>>(words: I) -> Self {
        let words = words.into_iter();
        let mut stream = Self::new();
        stream.reserve_exact(words.size_hint().0);
        for w in words {
            stream.push(w);
        }
        stream
    }
}

/// Cursor reading a word stream from a start offset toward the front.
///
/// `next()` returns the word at the current offset and moves one word toward
/// offset 0 — the decode-side mirror of the encoder's forward writes. Each
/// decoder thread in Recoil owns an independent reader positioned at its
/// split's recorded bitstream offset; readers never mutate the stream, so
/// overlapping tail reads between neighbouring threads (which the
/// Cross-Boundary Phase performs by design) are safe.
#[derive(Debug, Clone, Copy)]
pub struct BackwardWordReader<'a> {
    /// The words, two little-endian bytes each ([`WordStream::as_bytes`]).
    words: &'a [[u8; 2]],
    /// Offset of the next word to read, or `None` once the front is passed.
    next: Option<u64>,
}

impl<'a> BackwardWordReader<'a> {
    /// Reader over the stream whose wire image is `bytes`, whose first
    /// `next()` returns word `start`.
    ///
    /// `start` may be the last word (full stream) or any interior split
    /// offset. Panics if `start` is not a word of a non-empty stream.
    pub fn new(bytes: &'a [u8], start: u64) -> Self {
        Self::at(bytes, Some(start))
    }

    /// Reader positioned at the back of the stream (normal full decode).
    pub fn from_end(bytes: &'a [u8]) -> Self {
        let last = (bytes.len() / 2).checked_sub(1);
        Self::at(bytes, last.map(|last| last as u64))
    }

    /// Reader resuming from a saved cursor (`None` = already exhausted) —
    /// the inverse of [`BackwardWordReader::offset`], used when a fast
    /// decode loop hands its raw cursor back to the careful tail path.
    pub fn at(bytes: &'a [u8], next: Option<u64>) -> Self {
        let words = bytes.as_chunks().0;
        if let Some(start) = next {
            assert!(
                (start as usize) < words.len() || words.is_empty(),
                "start offset {start} out of range for {} words",
                words.len()
            );
        }
        let next = next.filter(|_| !words.is_empty());
        Self { words, next }
    }

    /// Offset of the next word to be read, if any.
    #[inline]
    pub fn offset(&self) -> Option<u64> {
        self.next
    }

    /// Number of words still readable.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.next.map_or(0, |n| n + 1)
    }

    /// Reads one word moving toward the front. `None` once exhausted.
    ///
    /// Deliberately named like `Iterator::next` (it is a consuming cursor),
    /// but not an `Iterator` impl: the decode hot paths need the inherent
    /// method to inline without trait dispatch.
    #[inline]
    #[expect(clippy::should_implement_trait, reason = "inlines without dispatch")]
    pub fn next(&mut self) -> Option<u16> {
        let at = self.next?;
        let w = u16::from_le_bytes(self.words[at as usize]);
        self.next = at.checked_sub(1);
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(words: &[u16]) -> WordStream {
        words.iter().copied().collect()
    }

    #[test]
    fn push_reports_offsets() {
        let mut s = WordStream::new();
        assert_eq!(s.push(0xAAAA), 0);
        assert_eq!(s.push(0xBBBB), 1);
        assert_eq!(s.push(0xCCCC), 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.word(1), 0xBBBB);
    }

    #[test]
    fn backward_reader_reverses_writes() {
        let s = stream(&[1, 2, 3, 4, 5]);
        let mut r = BackwardWordReader::from_end(s.as_bytes());
        let got: Vec<u16> = std::iter::from_fn(|| r.next()).collect();
        assert_eq!(got, vec![5, 4, 3, 2, 1]);
        assert_eq!(r.next(), None);
    }

    #[test]
    fn backward_reader_from_interior_offset() {
        let s = stream(&[10, 20, 30, 40]);
        let mut r = BackwardWordReader::new(s.as_bytes(), 2);
        assert_eq!(r.offset(), Some(2));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.next(), Some(30));
        assert_eq!(r.next(), Some(20));
        assert_eq!(r.next(), Some(10));
        assert_eq!(r.next(), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn at_round_trips_offsets() {
        let s = stream(&[10, 20, 30]);
        let mut r = BackwardWordReader::from_end(s.as_bytes());
        assert_eq!(r.next(), Some(30));
        let mut resumed = BackwardWordReader::at(s.as_bytes(), r.offset());
        assert_eq!(resumed.next(), Some(20));
        let exhausted = BackwardWordReader::at(s.as_bytes(), None);
        assert_eq!(exhausted.remaining(), 0);
    }

    #[test]
    fn empty_stream_reader_is_exhausted() {
        let s = WordStream::new();
        let mut r = BackwardWordReader::from_end(s.as_bytes());
        assert_eq!(r.next(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_start_panics() {
        let s = stream(&[1]);
        let _ = BackwardWordReader::new(s.as_bytes(), 1);
    }

    #[test]
    fn two_readers_share_tail_words() {
        // Mirrors the Cross-Boundary Phase: two threads read overlapping
        // offsets of the same stream independently.
        let s = stream(&[7, 8, 9]);
        let mut a = BackwardWordReader::new(s.as_bytes(), 2);
        let mut b = BackwardWordReader::new(s.as_bytes(), 2);
        assert_eq!(a.next(), Some(9));
        assert_eq!(b.next(), Some(9));
        assert_eq!(a.next(), Some(8));
        assert_eq!(b.next(), Some(8));
    }

    fn ramp(n: usize) -> Vec<u16> {
        (0..n)
            .map(|i| (i as u16).wrapping_mul(0x9E37) ^ 0x0102)
            .collect()
    }

    /// Lands `bytes` (a whole-word image) onto `words` through the fill.
    fn land(words: &mut WordStream, bytes: &[u8]) {
        words
            .land(bytes.len() / 2, |dst| {
                dst.copy_from_slice(bytes);
                Ok::<(), ()>(())
            })
            .unwrap();
    }

    #[test]
    fn wire_image_round_trips_at_block_copy_edges() {
        for n in [0usize, 1, 2, 31, 32, 33, 65_537] {
            let words = ramp(n);
            let s = stream(&words);
            let bytes = s.as_bytes();
            assert_eq!(bytes.len(), n * 2);
            // The image is little-endian whatever the host is.
            for (pair, w) in bytes.chunks_exact(2).zip(&words) {
                assert_eq!(pair, w.to_le_bytes());
            }
            let mut back = WordStream::new();
            land(&mut back, bytes);
            assert!(back.iter().eq(words.iter().copied()), "{n} words");
            let mut copied = WordStream::new();
            copied.extend_from_le_bytes(bytes).unwrap();
            assert_eq!(copied, s, "{n} words");
            assert_eq!(s.len(), n);
            assert!((0..n).all(|i| s.word(i) == words[i]), "{n} words");
        }
    }

    #[test]
    fn appending_preserves_the_destination() {
        for n in 0..=64 {
            let words = ramp(n);
            let image = stream(&words);
            let mut back = stream(&[7, 8]);
            land(&mut back, image.as_bytes());
            assert_eq!(back.as_bytes()[..4], [7, 0, 8, 0], "{n} words");
            assert_eq!(back.iter().take(2).collect::<Vec<_>>(), [7, 8], "{n} words");
            assert!(back.iter().skip(2).eq(words.iter().copied()), "{n} words");
            let pushed: WordStream = [7, 8].into_iter().chain(words).collect();
            assert_eq!(pushed, back, "{n} words");
        }
    }

    #[test]
    fn a_window_zeroes_only_its_growth() {
        let words = ramp(10);
        let mut got = stream(&words[..6]);
        // Words 4 .. 8: two already there keep their values, two are new.
        let window = got.window_mut(4, 4);
        assert_eq!(window[..4], stream(&words[4..6]).as_bytes()[..]);
        assert!(window[4..].iter().all(|&b| b == 0));
        window.copy_from_slice(stream(&words[4..8]).as_bytes());
        assert_eq!(got, stream(&words[..8]));
        // A window inside the stream grows nothing; one past it zero-fills
        // the gap.
        assert_eq!(got.window_mut(0, 2).len(), 4);
        assert_eq!(got.len(), 8);
        got.window_mut(9, 1)
            .copy_from_slice(&words[9].to_le_bytes());
        assert_eq!(got.len(), 10);
        assert_eq!(got.word(8), 0);
        assert_eq!(got.word(9), words[9]);
    }

    #[test]
    fn a_failed_fill_truncates_back() {
        let words = ramp(40);
        let mut got = stream(&words[..3]);
        let capacity = got.capacity();
        let err = got.land(37, |dst| {
            assert_eq!(dst.len(), 74, "the fill sees the new words' bytes");
            assert!(dst.iter().all(|&b| b == 0), "zeroed, never uninitialized");
            // A torn fill: half the bytes arrive, then the source fails.
            dst[..37].fill(0xEE);
            Err("torn")
        });
        assert_eq!(err, Err("torn"));
        assert_eq!(got, stream(&words[..3]), "nothing of the torn fill is left");
        assert!(got.capacity() >= capacity);
        // The store lands the next fill where the failed one began.
        land(&mut got, stream(&words[3..]).as_bytes());
        assert_eq!(got, stream(&words));
    }

    #[test]
    fn bytes_that_end_mid_word_are_refused_and_store_nothing() {
        let mut s = stream(&[1, 2]);
        for odd in [1usize, 3, 65] {
            let err = s.extend_from_le_bytes(&vec![0xAB; odd]).unwrap_err();
            assert_eq!(err, OddLength(odd));
            assert!(err.to_string().contains("mid-word"), "{err}");
            assert_eq!(s, stream(&[1, 2]), "{odd} bytes left nothing");
        }
        s.extend_from_le_bytes(&[3, 0]).unwrap();
        assert_eq!(s, stream(&[1, 2, 3]));
    }
}
