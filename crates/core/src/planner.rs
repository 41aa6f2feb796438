//! Split-point planning (paper §4.1 backward scan + §4.2 heuristic).
//!
//! The planner listens to the encoder's renormalizations. Around every
//! workload target (`T = ceil(N / M)` symbols past the previous split) it
//! evaluates nearby renorm events as split candidates: a **backward scan**
//! over recent events finds each lane's last renormalization at-or-before
//! the candidate, giving the Synchronization Section; Definition 4.1's
//! heuristic `H(t, t_s) = |t - T| + |t - t_s - T|` then picks the candidate
//! balancing the workload both including and excluding the sync section.
//!
//! # A ring of summaries
//!
//! The encoder reports [`RenormGroup`]s — per run of up to 32 symbols, which
//! of them renormalized and the states those lanes held — and the planner
//! keeps them as they come: one small record per group (first position, bit
//! mask, first word offset, arrival index of its first event) and the
//! post-renorm states in a ring of `u16`s indexed by arrival. Nothing is
//! expanded into per-event records on the encode path; an event's lane and
//! position are read off its bit index, and only around a target. Because
//! every u16 word corresponds to exactly one renorm event (`b >= n`),
//! events arrive in strictly increasing symbol position, so the last
//! [`RING_CAPACITY`] of them suffice — no full log is kept even for
//! gigabyte streams (on text-like data ≈ 350 KB: 256 KB of states and a
//! record per group that renormalized at all; the event ring this replaced
//! was 1.5 MB for the same reach).
//!
//! # Scans a record at a time
//!
//! Scoring a candidate needs only how far its backward scan reaches (the
//! smallest lane position; the largest is its own). With 32 lanes — the
//! recommended count, and the only one the vector encoder takes — a record
//! covers at most 32 consecutive symbols, so its mask rotated by where it
//! starts *is* the set of lanes it holds an event of, and a backward scan
//! is an OR of a handful of such sets until all 32 lanes are in
//! ([`Ring::reach_back_by_masks`]): a few instructions a record where the
//! event-by-event scan ([`Ring::scan_back`]) visits a hundred events. That
//! scan remains what other lane counts are scored by, what gathers the
//! lanes — for the winner of each target alone, appended to the one
//! allocation all the planned [`SplitPoint`]s share — and the reference the
//! record-at-a-time scan is tested against
//! ([`SplitPlanner::scanning_event_by_event`]).
//!
//! [`SplitPoint`]: crate::SplitPoint

use crate::metadata::{pack_splits, Extent, LaneInit, RecoilMetadata, GROUP_DIFF_BITS};
use recoil_rans::{RenormEvent, RenormGroup, RenormSink, FAST_GROUP as GROUP, NO_SYMBOL};
use std::collections::VecDeque;

/// Renorm events kept for candidate search and backward scans; bounds
/// planner memory whatever the stream length. Never set to anything else
/// while it was a config field.
const RING_CAPACITY: u64 = 1 << 16;

/// Split candidates scored per workload target. 24 keeps planning under
/// ~15% of encode time at 2176 splits while matching the workload balance
/// of denser search. A constant, not a config field: it is not in the
/// PUBLISH message, so no remote publisher could ever have set it.
const MAX_CANDIDATES: u64 = 24;

/// The bits of `mask` at and below bit `k`.
fn through_bit(mask: u32, k: u32) -> u32 {
    mask & (u32::MAX >> (31 - k))
}

/// One reported group as the ring keeps it. Bit `k` of `mask` is the event
/// of the lane that renormalized before symbol `first_pos + k`; the `j`-th
/// set bit is event `first_idx + j` in arrival order and wrote the word at
/// `offset + j`. Never empty, and every event of a record precedes the next
/// record's `first_pos`.
#[derive(Debug, Clone, Copy)]
struct GroupRecord {
    first_pos: u64,
    first_idx: u64,
    offset: u64,
    mask: u32,
}

/// Where an event sits: its record (an index into the ring's `groups`), its
/// bit there, and its arrival index.
#[derive(Debug, Clone, Copy)]
struct Place {
    at: usize,
    bit: u32,
    idx: u64,
}

/// The most recent renormalizations, as reported: group records plus the
/// post-renorm states in a ring indexed by arrival.
struct Ring {
    ways: u64,
    /// `log2(ways)` when `ways` is a power of two: the usual lane counts
    /// spare every event read a division.
    lane_bits: Option<u32>,
    groups: VecDeque<GroupRecord>,
    /// Events the ring reaches back: a power of two, at least [`GROUP`].
    reach: u64,
    /// Event `idx`'s post-renorm state at `idx % (2 * reach)`. Twice the
    /// reach, so that a push can write a group's full width whatever its
    /// count — the surplus lands on events out of reach — and a group's
    /// width more, for the push that starts at the ring's last entry.
    states: Box<[u16]>,
    /// Events reported so far: the next arrival index.
    events: u64,
    /// Whether scans for scoring go a record at a time: with 32 lanes,
    /// unless switched off.
    scan_by_masks: bool,
}

impl Ring {
    /// A ring for a stream of `num_symbols` (which bounds its events).
    fn new(ways: u32, num_symbols: u64) -> Self {
        let reach = num_symbols
            .next_power_of_two()
            .clamp(GROUP as u64, RING_CAPACITY);
        Self {
            ways: u64::from(ways),
            lane_bits: ways.is_power_of_two().then(|| ways.trailing_zeros()),
            groups: VecDeque::new(),
            reach,
            states: vec![0; 2 * reach as usize + GROUP].into(),
            events: 0,
            scan_by_masks: ways as usize == GROUP,
        }
    }

    /// Appends a group's events, `renormed` as [`RenormGroup::renormed`].
    /// The front record may keep events older than the ring reaches until
    /// [`Ring::trim_front`].
    #[inline]
    fn push(&mut self, first_pos: u64, mask: u32, offset: u64, renormed: &[u32; GROUP]) {
        if mask == 0 {
            return;
        }
        let count = mask.count_ones() as usize;
        let ring = 2 * self.reach as usize;
        let at = self.events as usize & (ring - 1);
        let room = self.states[at..].first_chunk_mut::<GROUP>();
        for (slot, &x) in room
            .expect("a group's width past the ring")
            .iter_mut()
            .zip(renormed)
        {
            *slot = (x >> 16) as u16;
        }
        // A group written across the ring's end continues at its start.
        if let Some(spill) = (at + count).checked_sub(ring) {
            self.states.copy_within(ring..ring + spill, 0);
        }
        self.groups.push_back(GroupRecord {
            first_pos,
            first_idx: self.events,
            offset,
            mask,
        });
        self.events += count as u64;
        // A record is out of reach once the next one starts out of reach.
        let oldest = self.oldest();
        while (self.groups.get(1)).is_some_and(|next| next.first_idx <= oldest) {
            self.groups.pop_front();
        }
    }

    /// Arrival index of the oldest event the ring reaches back to.
    fn oldest(&self) -> u64 {
        self.events.saturating_sub(self.reach)
    }

    /// Drops the front record's events older than [`Ring::oldest`], so the
    /// records hold exactly the events the ring reaches. Done when the ring
    /// is about to be read, not per push.
    fn trim_front(&mut self) {
        let oldest = self.oldest();
        if let Some(front) = self.groups.front_mut() {
            while front.first_idx < oldest {
                front.mask &= front.mask - 1;
                front.first_idx += 1;
                front.offset += 1;
            }
        }
    }

    /// The post-renorm state of event `idx`, which the ring must reach.
    fn state(&self, idx: u64) -> u16 {
        self.states[(idx & (2 * self.reach - 1)) as usize]
    }

    /// Position of the newest event (0 when there is none, or it has none).
    fn newest_pos(&self) -> u64 {
        self.groups.back().map_or(0, |g| {
            let sym = g.first_pos + u64::from(31 - g.mask.leading_zeros());
            sym.saturating_sub(self.ways)
        })
    }

    /// Arrival index of the first event whose position is at least `pos`
    /// ([`NO_SYMBOL`] events sort before every position).
    fn first_at_or_after(&self, pos: u64) -> u64 {
        let sym = pos + self.ways;
        let after = self.groups.partition_point(|g| g.first_pos < sym);
        // Only the last record starting below `sym` can straddle it.
        match after.checked_sub(1).map(|i| self.groups[i]) {
            None => self.groups.front().map_or(self.events, |g| g.first_idx),
            Some(g) => {
                let below = match sym - g.first_pos {
                    d @ 1..=31 => g.mask & ((1 << d) - 1),
                    _ => g.mask,
                };
                g.first_idx + u64::from(below.count_ones())
            }
        }
    }

    /// Where event `idx` sits; the ring must reach it. `after`, a place not
    /// past it, bounds the search: every record holds an event, so `idx` is
    /// at most as many records on as it is events on.
    fn locate(&self, idx: u64, after: Option<Place>) -> Place {
        let (mut lo, mut hi) = match after {
            None => (0, self.groups.len()),
            Some(p) => (
                p.at,
                (p.at + (idx - p.idx) as usize + 1).min(self.groups.len()),
            ),
        };
        // The first record starting after `idx`; the one before holds it.
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.groups[mid].first_idx <= idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let g = &self.groups[lo - 1];
        let mut mask = g.mask;
        for _ in g.first_idx..idx {
            mask &= mask - 1;
        }
        Place {
            at: lo - 1,
            bit: mask.trailing_zeros(),
            idx,
        }
    }

    /// Word offset of the event at `place`.
    fn offset_of(&self, place: Place) -> u64 {
        let g = &self.groups[place.at];
        g.offset + (place.idx - g.first_idx)
    }

    /// The symbol group (`position / ways`) of `pos`.
    #[inline]
    fn group_of(&self, pos: u64) -> u64 {
        match self.lane_bits {
            Some(bits) => pos >> bits,
            None => pos / self.ways,
        }
    }

    /// Lane and position of the event before symbol `sym`.
    #[inline]
    fn event_at(&self, sym: u64) -> (usize, u64) {
        let lane = match self.lane_bits {
            Some(bits) => sym & ((1 << bits) - 1),
            None => sym % self.ways,
        };
        (
            lane as usize,
            sym.checked_sub(self.ways).unwrap_or(NO_SYMBOL),
        )
    }

    /// Position of the event at `place`.
    fn pos_of(&self, place: Place) -> u64 {
        self.event_at(self.groups[place.at].first_pos + u64::from(place.bit))
            .1
    }

    /// Backward scan from the event at `from` (paper §4.1, Figure 6):
    /// `visit` sees the lane, position and arrival index of each lane's
    /// most recent event at-or-before it. Returns false when some lane has
    /// none the ring reaches, or none with a position.
    fn scan_back(
        &self,
        marks: &mut ScanMarks,
        from: Place,
        mut visit: impl FnMut(usize, u64, u64),
    ) -> bool {
        marks.scans += 1;
        let mut missing = self.ways;
        let mut arrival = from.idx;
        let mut bits = through_bit(self.groups[from.at].mask, from.bit);
        for at in (0..=from.at).rev() {
            let g = &self.groups[at];
            if at != from.at {
                bits = g.mask;
            }
            while bits != 0 {
                let k = 31 - bits.leading_zeros();
                bits ^= 1 << k;
                let (lane, pos) = self.event_at(g.first_pos + u64::from(k));
                if marks.met[lane] != marks.scans {
                    if pos == NO_SYMBOL {
                        return false; // lane state predates its first symbol
                    }
                    marks.met[lane] = marks.scans;
                    visit(lane, pos, arrival);
                    missing -= 1;
                    if missing == 0 {
                        return true;
                    }
                }
                arrival = arrival.wrapping_sub(1);
            }
        }
        false // ring exhausted before all lanes were found
    }

    /// How far back the scan from `from` reaches: the smallest position
    /// among the lanes' most recent events at-or-before it, or `None` when
    /// the scan is incomplete (see [`Ring::scan_back`]).
    fn reach_back(&self, marks: &mut ScanMarks, from: Place) -> Option<u64> {
        if self.scan_by_masks {
            return self.reach_back_by_masks(from);
        }
        let mut lo = NO_SYMBOL;
        self.scan_back(marks, from, |_, pos, _| lo = lo.min(pos))
            .then_some(lo)
    }

    /// [`Ring::reach_back`] for 32 lanes, a record at a time: a record spans
    /// at most 32 consecutive symbols, so its mask, rotated by where it
    /// starts, *is* the set of lanes it holds an event of. The scan is an OR
    /// of those sets, newest first, until every lane is in; it ends at the
    /// earliest lane the last record added.
    fn reach_back_by_masks(&self, from: Place) -> Option<u64> {
        let mut seen = 0u32;
        let mut bits = through_bit(self.groups[from.at].mask, from.bit);
        for at in (0..=from.at).rev() {
            let g = &self.groups[at];
            if at != from.at {
                bits = g.mask;
            }
            let turn = (g.first_pos % GROUP as u64) as u32;
            let lanes = bits.rotate_left(turn);
            let new = lanes & !seen;
            seen |= lanes;
            if seen == u32::MAX {
                let sym = g.first_pos + u64::from(new.rotate_right(turn).trailing_zeros());
                // A lane whose only event predates its first symbol has the
                // smallest symbol of all: no position, no split.
                return sym.checked_sub(self.ways);
            }
        }
        None // ring exhausted before all lanes were found
    }
}

/// Backward-scan scratch: the scan (by number) that last met each lane, so
/// starting a scan is a counter bump rather than a clear.
struct ScanMarks {
    met: Vec<u64>,
    scans: u64,
}

/// Streaming split planner; plug into the encoder as its [`RenormSink`].
pub struct SplitPlanner {
    ways: u32,
    num_symbols: u64,
    target: u64,
    /// Candidate search half-window around a target.
    window: u64,
    max_interior: u64,
    ring: Ring,
    /// Position of the last committed split (`-1` before the first).
    prev_p: i64,
    /// Next workload target position.
    next_target: u64,
    /// Offset and measured extent of each committed split, in order.
    chosen: Vec<(u64, Extent)>,
    /// The committed splits' lanes, `ways` each, back to back.
    chosen_lanes: Vec<LaneInit>,
    marks: ScanMarks,
    /// Buffer the winning candidate's lanes are gathered in.
    lane_buf: Vec<LaneInit>,
}

impl SplitPlanner {
    /// Planner for a stream of `num_symbols` symbols over `ways` lanes, for
    /// up to `segments` parallel segments (the paper's split count `M`).
    pub fn new(ways: u32, num_symbols: u64, segments: u64) -> Self {
        assert!(ways >= 1);
        assert!(segments >= 1);
        let segments = segments.min(num_symbols.max(1));
        let target = num_symbols.div_ceil(segments).max(1);
        Self {
            ways,
            num_symbols,
            target,
            window: (target / 8).max(4 * ways as u64).max(16),
            max_interior: segments - 1,
            ring: Ring::new(ways, num_symbols),
            prev_p: -1,
            next_target: target,
            chosen: Vec::new(),
            chosen_lanes: Vec::new(),
            marks: ScanMarks {
                met: vec![0; ways as usize],
                scans: 0,
            },
            lane_buf: vec![LaneInit { state: 0, pos: 0 }; ways as usize],
        }
    }

    /// Scores every candidate from an event-by-event backward scan whatever
    /// the lane count — what every lane count but 32 gets anyway, and the
    /// reference the record-at-a-time scan must choose the same splits as
    /// (and its "before", `plan/event-scan/*` in `recoil-bench`'s
    /// `metadata_plane` bench).
    #[doc(hidden)]
    pub fn scanning_event_by_event(mut self) -> Self {
        self.ring.scan_by_masks = false;
        self
    }

    /// The candidates among events `start..end`: all of them, or
    /// [`MAX_CANDIDATES`] evenly thinned, always keeping first and last.
    fn candidates(start: u64, end: u64) -> impl Iterator<Item = u64> {
        let span = end.saturating_sub(start);
        let picks = span.min(MAX_CANDIDATES);
        (0..picks).map(move |k| start + k * (span - 1) / (picks - 1).max(1))
    }

    /// Whether a split whose scan spans `extent` keeps every invariant the
    /// decoder and the wire format depend on.
    fn viable(&self, Extent { lo: q, hi: p, .. }: Extent) -> bool {
        q as i64 > self.prev_p
            && p + 1 < self.num_symbols
            // §4.3 stores each lane's distance below the split's group in
            // at most 16 bits; a scan reaching further back is not a split
            // the metadata could carry.
            && (self.ring.group_of(p) - self.ring.group_of(q)) >> GROUP_DIFF_BITS == 0
    }

    /// Definition 4.1: `H(t, t_s) = |t - T| + |t - t_s - T|` for a candidate
    /// whose scan spans `q ..= p`, `t_s = p - q + 1` — the workload balanced
    /// both including and excluding the Synchronization Section.
    fn score(&self, Extent { lo: q, hi: p, .. }: Extent) -> u64 {
        let t = p as i64 - self.prev_p;
        let target = self.target as i64;
        let ts = (p - q + 1) as i64;
        (t - target).unsigned_abs() + (t - ts - target).unsigned_abs()
    }

    /// The best candidate among events `start..end`: the lowest (score,
    /// sync length), the earliest on ties. Scoring a candidate needs only
    /// how far its backward scan reaches.
    fn best(&mut self, start: u64, end: u64) -> Option<(Place, Extent)> {
        let mut best: Option<((u64, u64), Place, Extent)> = None;
        let mut place = None;
        for idx in Self::candidates(start, end) {
            let here = self.ring.locate(idx, place);
            place = Some(here);
            let Some(lo) = self.ring.reach_back(&mut self.marks, here) else {
                continue;
            };
            // (Ownership is the encoder's to keep — an event's lane is its
            // position's — and holds by construction of the ring.)
            let extent = Extent {
                lo,
                hi: self.ring.pos_of(here),
                owned: true,
            };
            if self.viable(extent) {
                let key = (self.score(extent), extent.hi - extent.lo + 1);
                if best.is_none_or(|(best_key, ..)| key < best_key) {
                    best = Some((key, here, extent));
                }
            }
        }
        best.map(|(_, place, extent)| (place, extent))
    }

    /// Commits the split at `place`, whose scan measured `extent`: gathers
    /// its lanes and records them with the split's offset.
    fn commit(&mut self, place: Place, extent: Extent) {
        let (ring, lanes) = (&self.ring, &mut self.lane_buf);
        ring.scan_back(&mut self.marks, place, |lane, pos, arrival| {
            lanes[lane] = LaneInit {
                state: ring.state(arrival),
                pos,
            };
        });
        self.chosen.push((ring.offset_of(place), extent));
        self.chosen_lanes.extend_from_slice(lanes);
    }

    /// Scores candidates around the current target and commits the best.
    /// Returns false when no viable candidate exists (the target is skipped).
    fn plan_one(&mut self) -> bool {
        self.ring.trim_front();
        let mut half = self.window;
        let hi_cap = self.ring.newest_pos();
        // Widen up to half the target on sparse data, then give up.
        loop {
            let lo = self.next_target.saturating_sub(half);
            let hi = (self.next_target + half).min(hi_cap);
            // Events are position-sorted; binary search the boundaries.
            let start = self.ring.first_at_or_after(lo);
            let end = self.ring.first_at_or_after(hi + 1);
            if let Some((place, extent)) = self.best(start, end) {
                self.commit(place, extent);
                self.prev_p = extent.hi as i64;
                self.next_target = extent.hi + self.target;
                return true;
            }
            if half >= self.target {
                return false;
            }
            half = (half * 2).min(self.target);
        }
    }

    /// Finalizes planning after the encoder is done and returns metadata.
    ///
    /// `num_words` is the finished stream's word count; `quant_bits` is the
    /// model's `n` (recorded in the metadata header).
    pub fn finish(mut self, num_words: u64, quant_bits: u32) -> RecoilMetadata {
        // Plan any targets the stream tail still allows.
        while self.planning() && self.next_target + 1 < self.num_symbols {
            if !self.plan_one() {
                self.next_target += self.target;
            }
        }
        let meta = RecoilMetadata {
            ways: self.ways,
            quant_bits,
            num_symbols: self.num_symbols,
            num_words,
            splits: pack_splits(
                std::mem::take(&mut self.chosen_lanes).into(),
                self.ways as usize,
                std::mem::take(&mut self.chosen).into_iter(),
            ),
        };
        debug_assert!(meta.validate().is_ok(), "planner produced invalid metadata");
        meta
    }

    /// Splits committed so far.
    pub fn planned(&self) -> usize {
        self.chosen.len()
    }

    /// True while splits remain to be placed.
    fn planning(&self) -> bool {
        (self.chosen.len() as u64) < self.max_interior
    }

    /// The first symbol position whose event would be a window past the
    /// current target.
    fn due(&self) -> u64 {
        self.next_target + self.window + u64::from(self.ways)
    }

    /// [`RenormSink::on_group`] on the fields the planner reads.
    #[inline]
    fn take(&mut self, first_pos: u64, mask: u32, offset: u64, renormed: &[u32; GROUP]) {
        if mask == 0 {
            return;
        }
        let newest = first_pos + u64::from(31 - mask.leading_zeros());
        if self.planning() && newest >= self.due() {
            self.take_and_plan(first_pos, mask, offset, *renormed);
        } else {
            self.ring.push(first_pos, mask, offset, renormed);
        }
    }

    /// [`SplitPlanner::take`] for a group that planning is due in.
    #[cold]
    fn take_and_plan(
        &mut self,
        mut first_pos: u64,
        mut mask: u32,
        mut offset: u64,
        mut renormed: [u32; GROUP],
    ) {
        while mask != 0 && self.planning() {
            let newest = first_pos + u64::from(31 - mask.leading_zeros());
            if newest < self.due() {
                break;
            }
            // The first event that is due, and the group up to it.
            let from = self.due().saturating_sub(first_pos) as u32;
            let k = (mask >> from << from).trailing_zeros();
            let seen = through_bit(mask, k);
            self.ring.push(first_pos, seen, offset, &renormed);
            if !self.plan_one() {
                self.next_target += self.target;
            }
            // The rest of the group, re-based past bit `k`.
            let taken = seen.count_ones() as usize;
            mask = mask.checked_shr(k + 1).unwrap_or(0);
            first_pos += u64::from(k) + 1;
            offset += taken as u64;
            renormed.copy_within(taken.., 0);
        }
        self.ring.push(first_pos, mask, offset, &renormed);
    }
}

impl RenormSink for SplitPlanner {
    /// Takes the group into the ring. The planner runs as soon as an event
    /// lies a window past the current target, seeing the events up to that
    /// one and no later — so a group holding such an event is taken in
    /// parts, around the planning.
    #[inline]
    fn on_group(&mut self, group: RenormGroup<'_>) {
        debug_assert_eq!(group.ways, self.ways);
        self.take(group.first_pos, group.mask, group.offset, group.renormed);
    }
}

/// Offline planning for up to `segments` segments over a recorded event log
/// (tests, small inputs). The events must be an encoder's: in write order,
/// each lane's own.
pub fn plan_from_events(
    events: &[RenormEvent],
    ways: u32,
    num_symbols: u64,
    num_words: u64,
    quant_bits: u32,
    segments: u64,
) -> RecoilMetadata {
    let planner = SplitPlanner::new(ways, num_symbols, segments);
    // Grouped as the bulk encoder reports a span that starts at 0.
    feed_events(planner, events, |sym| sym - sym % GROUP as u64).finish(num_words, quant_bits)
}

/// `planner` after listening to `events` packed into groups:
/// `first_pos_of(sym)` is the first position of the group that holds the
/// event before symbol `sym` — at most 31 below `sym`, and the same for all
/// of a group's symbols.
fn feed_events(
    mut planner: SplitPlanner,
    events: &[RenormEvent],
    first_pos_of: impl Fn(u64) -> u64,
) -> SplitPlanner {
    let ways = u64::from(planner.ways);
    // The symbol an event preceded: its lane's next.
    let symbol = |e: &RenormEvent| {
        debug_assert!(e.pos == NO_SYMBOL || e.pos % ways == u64::from(e.lane));
        match e.pos {
            NO_SYMBOL => u64::from(e.lane),
            pos => pos + ways,
        }
    };
    for group in events.chunk_by(|a, b| first_pos_of(symbol(a)) == first_pos_of(symbol(b))) {
        let first_pos = first_pos_of(symbol(&group[0]));
        let mut renormed = [0; GROUP];
        let mut mask = 0u32;
        for (slot, e) in renormed.iter_mut().zip(group) {
            *slot = u32::from(e.state) << 16;
            mask |= 1 << (symbol(e) - first_pos);
        }
        debug_assert_eq!(
            group.last().map(|e| e.offset),
            Some(group[0].offset + group.len() as u64 - 1),
            "a group's words are consecutive"
        );
        planner.take(first_pos, mask, group[0].offset, &renormed);
    }
    planner
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_models::{CdfTable, StaticModelProvider};
    use recoil_rans::{InterleavedEncoder, VecSink};

    fn encode_with_events(
        data: &[u8],
        n: u32,
        ways: u32,
    ) -> (recoil_rans::EncodedStream, Vec<RenormEvent>) {
        let p = StaticModelProvider::new(CdfTable::of_bytes(data, n));
        let mut enc = InterleavedEncoder::new(&p, ways);
        let mut sink = VecSink::new();
        enc.encode_all_fast(data, &mut sink).unwrap();
        (enc.finish(), sink.events)
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 22) as u8)
            .collect()
    }

    #[test]
    fn plans_requested_segment_count_on_plain_data() {
        let data = sample(400_000);
        let (stream, events) = encode_with_events(&data, 11, 32);
        for segments in [2u64, 4, 16, 64] {
            let meta = plan_from_events(
                &events,
                32,
                stream.num_symbols,
                stream.words.len() as u64,
                11,
                segments,
            );
            assert_eq!(
                meta.splits.len() as u64,
                segments - 1,
                "segments={segments}"
            );
            meta.validate().unwrap();
        }
    }

    #[test]
    fn workload_is_roughly_balanced() {
        let data = sample(500_000);
        let (stream, events) = encode_with_events(&data, 11, 32);
        let segments = 16u64;
        let meta = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            segments,
        );
        let t = stream.num_symbols / segments;
        let mut prev = -1i64;
        for s in &meta.splits {
            let span = s.split_pos() as i64 - prev;
            assert!(
                (span - t as i64).unsigned_abs() < t / 4,
                "segment span {span} far from target {t}"
            );
            prev = s.split_pos() as i64;
        }
    }

    #[test]
    fn sync_sections_are_short() {
        // With 32 lanes and ~5 bits/symbol, each lane renorms every few of
        // its symbols, so sync sections should be a small multiple of W.
        let data = sample(300_000);
        let (stream, events) = encode_with_events(&data, 11, 32);
        let meta = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            32,
        );
        for s in &meta.splits {
            assert!(
                s.sync_len() < 32 * 24,
                "sync section {} too long",
                s.sync_len()
            );
        }
    }

    #[test]
    fn split_states_match_recorded_events() {
        let data = sample(100_000);
        let (stream, events) = encode_with_events(&data, 11, 32);
        let meta = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            8,
        );
        // Every recorded lane state must be an actual event with matching
        // lane, position and state.
        for sp in &meta.splits {
            for (lane, li) in sp.lanes.iter().enumerate() {
                assert!(
                    events
                        .iter()
                        .any(|e| e.lane == lane as u32 && e.pos == li.pos && e.state == li.state),
                    "lane {lane} init not found among events"
                );
            }
            // The split-defining event sits exactly at the stored offset.
            assert!(events
                .iter()
                .any(|e| e.offset == sp.offset && e.pos == sp.split_pos()));
        }
    }

    #[test]
    fn more_segments_than_symbols_degrades_gracefully() {
        let data = sample(300);
        let (stream, events) = encode_with_events(&data, 8, 4);
        let meta = plan_from_events(
            &events,
            4,
            stream.num_symbols,
            stream.words.len() as u64,
            8,
            1000,
        );
        meta.validate().unwrap();
        assert!(meta.num_segments() <= 300);
    }

    #[test]
    fn single_segment_means_no_splits() {
        let data = sample(10_000);
        let (stream, events) = encode_with_events(&data, 11, 32);
        let meta = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            1,
        );
        assert!(meta.splits.is_empty());
    }

    #[test]
    fn highly_compressible_data_still_plans_validly() {
        // ~0.2 bits/symbol: renorm events are sparse; planner may produce
        // fewer splits but must stay valid.
        let mut data = vec![0u8; 200_000];
        for i in (0..data.len()).step_by(37) {
            data[i] = 1 + (i % 3) as u8;
        }
        let (stream, events) = encode_with_events(&data, 11, 32);
        let meta = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            16,
        );
        meta.validate().unwrap();
        assert!(meta.num_segments() >= 2, "should find at least one split");
    }

    #[test]
    fn streaming_matches_offline_on_large_ring() {
        let data = sample(200_000);
        let (stream, events) = encode_with_events(&data, 11, 32);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let mut enc = InterleavedEncoder::new(&p, 32);
        let mut planner = SplitPlanner::new(32, data.len() as u64, 16);
        enc.encode_all_fast(&data, &mut planner).unwrap();
        let streamed = planner.finish(stream.words.len() as u64, 11);
        let offline = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            16,
        );
        assert_eq!(streamed, offline);
    }

    #[test]
    fn candidates_the_wire_format_cannot_carry_are_skipped() {
        // Two lanes; lane 1 renormalizes every 100th of its symbols, lane 0
        // only at positions 0 and 399 000. Around the first target (200 000)
        // every backward scan reaches back to lane 0's position 0: 100 000
        // symbol groups, more than the format's 16-bit group differences.
        // Such a split used to be planned, declared valid, and serialized
        // to bytes that parse back to different positions.
        let mut events = vec![RenormEvent {
            lane: 0,
            pos: 0,
            state: 1,
            offset: 0,
        }];
        for pos in (201..600_000u64).step_by(200) {
            if pos == 399_001 {
                events.push(RenormEvent {
                    lane: 0,
                    pos: 399_000,
                    state: 2,
                    offset: events.len() as u64,
                });
            }
            events.push(RenormEvent {
                lane: 1,
                pos,
                state: 3,
                offset: events.len() as u64,
            });
        }
        let meta = plan_every_way(&events, 2, 600_000, 3);
        // The widened search settles for a far-from-target candidate that
        // the format can carry; the second target plans normally.
        meta.validate().unwrap();
        assert_eq!(meta.splits.len(), 2);
        let groups_spanned = |s: &crate::SplitPoint| s.split_pos() / 2 - s.sync_start() / 2;
        assert!(groups_spanned(&meta.splits[0]) < 1 << GROUP_DIFF_BITS);
        assert_eq!(meta.splits[1].sync_start(), 399_000);
        let bytes = crate::metadata_to_bytes(&meta);
        assert_eq!(crate::metadata_from_bytes(&bytes).unwrap(), meta);
    }

    /// Skewed seeded bytes, about five bits a symbol.
    fn text_like(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // The product of two uniforms leans toward small symbols.
                (((x & 0xFF) * ((x >> 8) & 0xFF)) >> 9) as u8
            })
            .collect()
    }

    /// Plans `events` scanning event by event — the reference — and a
    /// record at a time, over one record per event and over 32-symbol
    /// groups at two alignments; returns the plan once all agree.
    fn plan_every_way(
        events: &[RenormEvent],
        ways: u32,
        num_symbols: u64,
        segments: u64,
    ) -> RecoilMetadata {
        let planner = || SplitPlanner::new(ways, num_symbols, segments);
        let finish = |planner: SplitPlanner| planner.finish(events.len() as u64, 11);
        let singly = |sym: u64| sym;
        let reference = finish(feed_events(
            planner().scanning_event_by_event(),
            events,
            singly,
        ));
        let label = format!("ways {ways}, {segments} segments");
        assert_eq!(
            finish(feed_events(planner(), events, singly)),
            reference,
            "{label}"
        );
        // Groups of the 32 symbols from each `phase + 32 j`, as an encoder
        // whose spans start there would report them.
        for phase in [0, 13] {
            let from = |sym: u64| ((sym + 32 - phase) / 32 * 32).saturating_sub(32 - phase);
            assert_eq!(
                finish(feed_events(planner(), events, from)),
                reference,
                "{label}, groups from {phase}"
            );
        }
        reference
    }

    #[test]
    fn record_scans_choose_the_event_scans_splits_on_text_like_streams() {
        for (ways, seed) in [(32u32, 5u64), (32, 6), (7, 7), (1, 8)] {
            let data = text_like(150_000, seed);
            let (stream, events) = encode_with_events(&data, 11, ways);
            // From a window of tens of thousands of events thinned to
            // MAX_CANDIDATES down to windows holding fewer than that.
            for segments in [2u64, 16, 256, 2176, 40_000] {
                let plan = plan_every_way(&events, ways, stream.num_symbols, segments);
                assert!(!plan.splits.is_empty() && (plan.splits.len() as u64) < segments);
            }
        }
    }

    #[test]
    fn record_scans_choose_the_event_scans_splits_when_lanes_rarely_renormalize() {
        // A few hundredths of a bit a symbol: most groups report nothing,
        // windows hold a handful of events or none and widen.
        let mut data = vec![0u8; 600_000];
        for i in (0..data.len()).step_by(211) {
            data[i] = 1 + (i % 3) as u8;
        }
        let (stream, events) = encode_with_events(&data, 11, 32);
        assert!(events.len() < data.len() / 20);
        for segments in [2u64, 8, 64, 512] {
            plan_every_way(&events, 32, stream.num_symbols, segments);
        }
    }

    #[test]
    fn record_scans_choose_the_event_scans_splits_with_a_silent_lane() {
        // 32 lanes; 31 renormalize at every other symbol of theirs, the last
        // once in a hundred of its own: every scan reaches back to it,
        // through thousands of the others' events.
        let ways = 32u64;
        let num_symbols = 400_000u64;
        let mut events = Vec::new();
        for sym in ways..num_symbols {
            let lane = sym % ways;
            let nth = sym / ways;
            if (lane < 31 && nth.is_multiple_of(2)) || (lane == 31 && nth.is_multiple_of(100)) {
                events.push(RenormEvent {
                    lane: lane as u32,
                    pos: sym - ways,
                    state: (sym % 60_000) as u16,
                    offset: events.len() as u64,
                });
            }
        }
        for segments in [2u64, 5, 48] {
            let plan = plan_every_way(&events, ways as u32, num_symbols, segments);
            assert!(!plan.splits.is_empty(), "{segments} segments");
        }
    }

    #[test]
    fn record_scans_choose_the_event_scans_splits_past_the_ring() {
        // More events in a window than the ring reaches back.
        let data = text_like(700_000, 9);
        let (stream, events) = encode_with_events(&data, 11, 32);
        assert!(events.len() as u64 > 4 * RING_CAPACITY);
        plan_every_way(&events, 32, stream.num_symbols, 2);
        plan_every_way(&events, 32, stream.num_symbols, 3);
    }

    #[test]
    fn groups_plan_as_their_events_do() {
        // The encoder's 32-symbol groups against one group per event, with
        // targets so close that one group triggers the planner repeatedly.
        for (ways, len, segments) in [
            (32u32, 200_000usize, 16u64),
            (7, 50_000, 300),
            (4, 20_000, 2_000),
        ] {
            let data = text_like(len, 21);
            let (stream, events) = encode_with_events(&data, 11, ways);
            let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
            let mut enc = InterleavedEncoder::new(&p, ways);
            let mut planner = SplitPlanner::new(ways, len as u64, segments);
            enc.encode_all_fast(&data, &mut planner).unwrap();
            let streamed = planner.finish(stream.words.len() as u64, 11);
            let offline = plan_every_way(&events, ways, len as u64, segments);
            assert_eq!(streamed, offline, "ways {ways}");
        }
    }
}
