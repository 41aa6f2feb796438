//! Renormalization reporting.
//!
//! Recoil's key observation (paper §3.2) is that split points should sit at
//! renormalization points, because the state right after a renorm write is
//! below `L = 2^16` and fits a u16. Listeners range from the no-op
//! [`NullSink`] (plain compression) to Recoil's streaming split planner.
//!
//! # Groups, not events
//!
//! The encoders report one [`RenormGroup`] per run of at most 32 consecutive
//! symbols — the bulk engine's 32-symbol group, a shorter tail, or a single
//! symbol from the per-symbol reference loops — never one call per
//! renormalization: a call per event costs the vector encode kernel more
//! than the events' arithmetic does. A group is a summary: which of its
//! symbols renormalized (a bit mask) and the 32-bit states those lanes held
//! when they did, in write order — the low half of each is the word that
//! was written, the high half the state left behind. The array has the
//! group's full width whatever the mask, so a listener can keep it with one
//! fixed-size copy. Everything an event-level listener wants follows: the
//! lane and position from the bit index, the word offset from the group's
//! first offset plus the rank of the bit — [`RenormGroup::events`] spells
//! that out as [`RenormEvent`]s, which is what [`VecSink`] records.

use crate::fast::GROUP;

/// Sentinel for [`RenormEvent::pos`] when a lane renormalizes before having
/// encoded any symbol (only reachable at `n = 16` with a frequency-1 first
/// symbol). Such events cannot anchor a split.
pub const NO_SYMBOL: u64 = u64::MAX;

/// One renormalization event: lane `lane` emitted the u16 word at
/// `offset`, leaving its state at `state` (< `2^16`), with `pos` being the
/// 0-based position of the last symbol that lane had encoded.
///
/// In the paper's 1-based notation this is the tuple
/// (`x_{i,j}` with `i = pos + 1`, `j = lane + 1`, bitstream offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenormEvent {
    /// 0-based encoder lane.
    pub lane: u32,
    /// 0-based position of the lane's most recent symbol, or [`NO_SYMBOL`].
    pub pos: u64,
    /// Post-renorm state, always below `2^16` (Lemma 3.1).
    pub state: u16,
    /// Word offset the renorm word was written at.
    pub offset: u64,
}

/// The renormalizations of up to [`GROUP`] consecutive symbols.
///
/// Bit `k` of `mask` is set when the lane owning symbol `first_pos + k`
/// (lane `(first_pos + k) % ways`) renormalized right before encoding it;
/// the `j`-th set bit, counted from bit 0, found its lane at state
/// `renormed[j]`, wrote that state's low half at word offset `offset + j`
/// and left the lane at its high half. Bits past the group's last symbol
/// are zero.
#[derive(Debug, Clone, Copy)]
pub struct RenormGroup<'a> {
    /// Position of the symbol bit 0 stands for.
    pub first_pos: u64,
    /// Number of interleaved lanes.
    pub ways: u32,
    /// Which of the group's symbols renormalized.
    pub mask: u32,
    /// Word offset of the group's first word.
    pub offset: u64,
    /// The renormalizing lanes' states before the write, one per set bit, in
    /// write order: word in the low half, post-renorm state (below `2^16`
    /// by Lemma 3.1) in the high half. Entries past the mask's population
    /// count are unspecified.
    pub renormed: &'a [u32; GROUP],
}

impl RenormGroup<'_> {
    /// Renormalizations in the group.
    #[inline]
    pub fn count(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// The words the group wrote, in write order.
    pub fn words(&self) -> impl Iterator<Item = u16> + '_ {
        self.renormed[..self.count()].iter().map(|&x| x as u16)
    }

    /// The group spelled out event by event, in write order.
    pub fn events(&self) -> impl Iterator<Item = RenormEvent> + '_ {
        let ways = u64::from(self.ways);
        let mut mask = self.mask;
        (0u64..)
            .zip(&self.renormed[..self.count()])
            .map(move |(j, &x)| {
                let sym = self.first_pos + u64::from(mask.trailing_zeros());
                mask &= mask - 1;
                RenormEvent {
                    lane: (sym % ways) as u32,
                    pos: sym.checked_sub(ways).unwrap_or(NO_SYMBOL),
                    state: (x >> 16) as u16,
                    offset: self.offset + j,
                }
            })
    }
}

/// Receives renormalization summaries during encoding.
pub trait RenormSink {
    /// Called in write order, once per group of symbols. A group in which
    /// nothing renormalized may be reported (with an empty mask) or left out.
    fn on_group(&mut self, group: RenormGroup<'_>);
}

/// Ignores all events (plain, non-splittable encoding).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl RenormSink for NullSink {
    #[inline(always)]
    fn on_group(&mut self, _group: RenormGroup<'_>) {}
}

/// Records every event; used by tests and small-input split planning.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// Events in write order.
    pub events: Vec<RenormEvent>,
}

impl VecSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RenormSink for VecSink {
    #[inline]
    fn on_group(&mut self, group: RenormGroup<'_>) {
        self.events.extend(group.events());
    }
}

impl<S: RenormSink + ?Sized> RenormSink for &mut S {
    #[inline(always)]
    fn on_group(&mut self, group: RenormGroup<'_>) {
        (**self).on_group(group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_group_expands_to_its_events() {
        // Seven lanes; the group starts at symbol 5, so bit 0 is lane 5 on
        // its first symbol and bit 2 is lane 0 on its second.
        let mut renormed = [0xDEAD_BEEF; GROUP];
        renormed[..3].copy_from_slice(&[0x000B_AAAA, 0x0016_BBBB, 0x0021_CCCC]);
        let group = RenormGroup {
            first_pos: 5,
            ways: 7,
            mask: 0b1000_0101,
            offset: 40,
            renormed: &renormed,
        };
        let event = |lane, pos, state, offset| RenormEvent {
            lane,
            pos,
            state,
            offset,
        };
        assert_eq!(
            group.events().collect::<Vec<_>>(),
            [
                event(5, NO_SYMBOL, 11, 40),
                event(0, 0, 22, 41),
                event(5, 5, 33, 42),
            ]
        );
        assert_eq!(group.words().collect::<Vec<_>>(), [0xAAAA, 0xBBBB, 0xCCCC]);
    }
}
