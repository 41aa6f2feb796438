//! The unit of decode work every engine hands its kernel: a [`Span`].
//!
//! A span is everything needed to decode a run of positions downward from
//! a known point of one interleaved stream — the words, the backward
//! cursor, the lane states, the positions and where their symbols go.
//! Spans share nothing mutable, so a kernel may decode several of them
//! *interleaved in one thread*: each is an independent dependency chain,
//! which is how the vector kernels fill a pipeline one 32-way stream
//! cannot (Giesen, "Interleaved entropy coders": interleave more coders).
//! The segment engine (`recoil_core::decode_segments`) builds one per
//! metadata segment, the conventional baseline one per partition.

use std::ops::{Deref, DerefMut};

/// Lanes held inline: every width the vector kernels take (and the
/// paper's recommended 32) fits, so building a span allocates nothing.
const INLINE_LANES: usize = 32;

/// One span's lane states: a `[u32]` of `ways` entries, stored inline up
/// to 32 lanes and on the heap beyond. Aligned to a cache line (`repr(C)`
/// keeps `inline` first) so the vector kernels' whole-register state loads
/// never straddle one.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct LaneStates {
    inline: [u32; INLINE_LANES],
    /// Holds the states instead of `inline` when there are more than 32.
    spill: Vec<u32>,
    ways: usize,
}

impl LaneStates {
    /// `ways` zeroed lanes (what a Synchronization Phase starts from).
    pub fn zeroed(ways: usize) -> Self {
        let spill = if ways > INLINE_LANES {
            vec![0; ways]
        } else {
            Vec::new()
        };
        Self {
            inline: [0; INLINE_LANES],
            spill,
            ways,
        }
    }
}

impl From<&[u32]> for LaneStates {
    fn from(states: &[u32]) -> Self {
        let mut lanes = Self::zeroed(states.len());
        lanes.copy_from_slice(states);
        lanes
    }
}

impl Deref for LaneStates {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        if self.ways > INLINE_LANES {
            &self.spill
        } else {
            &self.inline[..self.ways]
        }
    }
}

impl DerefMut for LaneStates {
    fn deref_mut(&mut self) -> &mut [u32] {
        if self.ways > INLINE_LANES {
            &mut self.spill
        } else {
            &mut self.inline[..self.ways]
        }
    }
}

/// Positions `lo .. lo + out.len()` of one interleaved stream, still to be
/// decoded (descending) from `cursor` and `states` into `out`.
///
/// A span is *consumed* as it decodes: every step (the scalar engine is
/// [`Span::advance_scalar`], in [`crate::fast`]) takes positions off the
/// top, shrinks `out` to what remains and leaves `cursor` and `states`
/// where the next step starts, so a kernel can mix scalar and vector
/// steps freely. A finished span has an empty `out`, the final lane
/// states and the cursor the decode stopped at.
#[derive(Debug)]
pub struct Span<'a, S> {
    /// The word stream's little-endian bytes (possibly a prefix; a span
    /// never reads above `cursor`). Each span carries its own: the
    /// partitions of the conventional baseline are separate streams.
    pub words: &'a [u8],
    /// Index of the next unread word, `None` once exhausted.
    pub cursor: Option<u64>,
    /// Lane states at position `lo + out.len()`.
    pub states: LaneStates,
    /// Lowest position of the span.
    pub lo: u64,
    /// Output for positions `lo ..`, one symbol each.
    pub out: &'a mut [S],
}

impl<'a, S> Span<'a, S> {
    /// One past the highest position still to decode.
    pub fn end(&self) -> u64 {
        self.lo + self.out.len() as u64
    }

    /// Shrinks the span by its top `count` positions and returns their
    /// output slice. The caller decodes them (or has) and leaves `cursor`
    /// and `states` where the rest of the span starts.
    ///
    /// # Panics
    ///
    /// If `count > out.len()`.
    pub fn take_top(&mut self, count: usize) -> &'a mut [S] {
        let out = std::mem::take(&mut self.out);
        let (rest, top) = out.split_at_mut(out.len() - count);
        self.out = rest;
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::{decode_span_careful, SpanStats};
    use crate::{InterleavedEncoder, NullSink};
    use recoil_models::{CdfTable, StaticModelProvider};

    #[test]
    fn lane_states_are_a_slice_of_ways_entries_inline_or_spilled() {
        for ways in [1usize, 7, 32, 33, 200] {
            let init: Vec<u32> = (0..ways as u32).map(|i| i * 3 + 1).collect();
            let mut lanes = LaneStates::from(&init[..]);
            assert_eq!(&lanes[..], &init[..], "ways {ways}");
            lanes[ways - 1] = 9;
            assert_eq!(lanes.clone()[ways - 1], 9);
            assert_eq!(LaneStates::zeroed(ways).len(), ways);
            if ways <= INLINE_LANES {
                assert_eq!(lanes.as_ptr() as usize % 64, 0, "inline lanes are aligned");
            }
        }
    }

    /// Consuming a span in uneven scalar steps equals one careful decode:
    /// output, lane states, cursor and the stats' totals.
    #[test]
    fn stepwise_scalar_advance_equals_the_careful_reference() {
        let data: Vec<u8> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        for ways in [4u32, 32, 40] {
            let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
            let mut enc = InterleavedEncoder::new(&p, ways);
            enc.encode_all_fast(&data, &mut NullSink).unwrap();
            let stream = enc.finish();

            let mut ref_states = stream.final_states.clone();
            let mut ref_out = vec![0u8; data.len()];
            let ref_cursor = decode_span_careful(
                &p,
                stream.words.as_bytes(),
                stream.end_cursor(),
                &mut ref_states,
                0,
                &mut ref_out,
            )
            .unwrap();

            let mut out = vec![0u8; data.len()];
            let mut span = stream.tail_span(0, &mut out);
            let mut stats = SpanStats::default();
            for step in [0usize, 1, 31, 32, 33, 4096] {
                stats.merge(&span.advance_scalar(&p, step).unwrap());
            }
            let rest = span.out.len();
            stats.merge(&span.advance_scalar(&p, rest).unwrap());
            assert!(span.out.is_empty() && span.end() == 0);
            assert_eq!(span.cursor, ref_cursor, "ways {ways}");
            assert_eq!(&span.states[..], &ref_states[..], "ways {ways}");
            assert_eq!(stats.symbols(), data.len() as u64);
            assert_eq!(
                stats.words_consumed,
                stream.words.len() as u64 - ref_cursor.map_or(0, |c| c + 1)
            );
            assert_eq!(out, ref_out, "ways {ways}");
        }
    }
}
