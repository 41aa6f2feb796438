//! Forward-written, backward-read u16 word streams.
//!
//! rANS renormalization (paper Def. 2.2, `b = 16`) writes one u16 word per
//! renorm event during encoding and reads the words back in exactly the
//! reverse order during decoding. Offsets are word indices, as in the
//! paper's split metadata ("Bitstream Offset").

/// Append-only stream of u16 renormalization words.
///
/// The encoder owns one of these; `offset()` before a push is the offset the
/// pushed word will occupy, which is what Recoil records in split metadata.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WordStream {
    words: Vec<u16>,
}

impl WordStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty stream with room for `cap` words.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            words: Vec::with_capacity(cap),
        }
    }

    /// Appends one word and returns the offset it was written at.
    #[inline]
    pub fn push(&mut self, word: u16) -> u64 {
        let at = self.words.len() as u64;
        self.words.push(word);
        at
    }

    /// Number of words written so far (= offset of the next word).
    #[inline]
    pub fn len(&self) -> u64 {
        self.words.len() as u64
    }

    /// True when no words have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Borrow the words for decoding.
    #[inline]
    pub fn as_slice(&self) -> &[u16] {
        &self.words
    }

    /// Mutable access to the backing vector, for bulk writers: the fast
    /// encode engine appends whole renorm groups at once instead of going
    /// through per-word [`WordStream::push`] calls. The stream stays
    /// append-only by convention — callers must only extend the vector.
    #[inline]
    pub fn vec_mut(&mut self) -> &mut Vec<u16> {
        &mut self.words
    }

    /// Consume the stream, returning the raw words.
    pub fn into_words(self) -> Vec<u16> {
        self.words
    }
}

impl From<Vec<u16>> for WordStream {
    fn from(words: Vec<u16>) -> Self {
        Self { words }
    }
}

/// Cursor reading a word slice from a start offset toward the front.
///
/// `next()` returns the word at the current offset and moves one word toward
/// offset 0 — the decode-side mirror of the encoder's forward writes. Each
/// decoder thread in Recoil owns an independent reader positioned at its
/// split's recorded bitstream offset; readers never mutate the stream, so
/// overlapping tail reads between neighbouring threads (which the
/// Cross-Boundary Phase performs by design) are safe.
#[derive(Debug, Clone, Copy)]
pub struct BackwardWordReader<'a> {
    words: &'a [u16],
    /// Offset of the next word to read, or `None` once the front is passed.
    next: Option<u64>,
}

impl<'a> BackwardWordReader<'a> {
    /// Reader whose first `next()` returns `words[start]`.
    ///
    /// `start` may be `words.len() - 1` (full stream) or any interior split
    /// offset. Panics if `start >= words.len()` on a non-empty request.
    pub fn new(words: &'a [u16], start: u64) -> Self {
        assert!(
            (start as usize) < words.len() || words.is_empty(),
            "start offset {start} out of range for {} words",
            words.len()
        );
        let next = if words.is_empty() { None } else { Some(start) };
        Self { words, next }
    }

    /// Reader positioned at the back of the stream (normal full decode).
    pub fn from_end(words: &'a [u16]) -> Self {
        if words.is_empty() {
            Self { words, next: None }
        } else {
            Self::new(words, words.len() as u64 - 1)
        }
    }

    /// Reader resuming from a saved cursor (`None` = already exhausted) —
    /// the inverse of [`BackwardWordReader::offset`], used when a fast
    /// decode loop hands its raw cursor back to the careful tail path.
    pub fn at(words: &'a [u16], next: Option<u64>) -> Self {
        match next {
            Some(start) => Self::new(words, start),
            None => Self { words, next: None },
        }
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
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<u16> {
        let at = self.next?;
        let w = self.words[at as usize];
        self.next = at.checked_sub(1);
        Some(w)
    }

    /// Underlying word slice (shared with other readers).
    #[inline]
    pub fn words(&self) -> &'a [u16] {
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_reports_offsets() {
        let mut s = WordStream::new();
        assert_eq!(s.push(0xAAAA), 0);
        assert_eq!(s.push(0xBBBB), 1);
        assert_eq!(s.push(0xCCCC), 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn backward_reader_reverses_writes() {
        let mut s = WordStream::new();
        for w in [1u16, 2, 3, 4, 5] {
            s.push(w);
        }
        let mut r = BackwardWordReader::from_end(s.as_slice());
        let got: Vec<u16> = std::iter::from_fn(|| r.next()).collect();
        assert_eq!(got, vec![5, 4, 3, 2, 1]);
        assert_eq!(r.next(), None);
    }

    #[test]
    fn backward_reader_from_interior_offset() {
        let s: WordStream = vec![10u16, 20, 30, 40].into();
        let mut r = BackwardWordReader::new(s.as_slice(), 2);
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
        let s: WordStream = vec![10u16, 20, 30].into();
        let mut r = BackwardWordReader::from_end(s.as_slice());
        assert_eq!(r.next(), Some(30));
        let mut resumed = BackwardWordReader::at(s.as_slice(), r.offset());
        assert_eq!(resumed.next(), Some(20));
        let exhausted = BackwardWordReader::at(s.as_slice(), None);
        assert_eq!(exhausted.remaining(), 0);
    }

    #[test]
    fn empty_stream_reader_is_exhausted() {
        let s = WordStream::new();
        let mut r = BackwardWordReader::from_end(s.as_slice());
        assert_eq!(r.next(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_start_panics() {
        let s: WordStream = vec![1u16].into();
        let _ = BackwardWordReader::new(s.as_slice(), 1);
    }

    #[test]
    fn two_readers_share_tail_words() {
        // Mirrors the Cross-Boundary Phase: two threads read overlapping
        // offsets of the same stream independently.
        let s: WordStream = vec![7u16, 8, 9].into();
        let mut a = BackwardWordReader::new(s.as_slice(), 2);
        let mut b = BackwardWordReader::new(s.as_slice(), 2);
        assert_eq!(a.next(), Some(9));
        assert_eq!(b.next(), Some(9));
        assert_eq!(a.next(), Some(8));
        assert_eq!(b.next(), Some(8));
    }
}
