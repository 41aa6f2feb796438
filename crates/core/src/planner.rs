//! Split-point planning (paper §4.1 backward scan + §4.2 heuristic).
//!
//! The planner listens to the encoder's renormalization events. Around every
//! workload target (`T = ceil(N / M)` symbols past the previous split) it
//! evaluates nearby renorm events as split candidates: a **backward scan**
//! over recent events finds each lane's last renormalization at-or-before
//! the candidate, giving the Synchronization Section; Definition 4.1's
//! heuristic `H(t, t_s) = |t - T| + |t - t_s - T|` then picks the candidate
//! balancing the workload both including and excluding the sync section.
//!
//! Because every u16 word corresponds to exactly one renorm event
//! (`b >= n`), events arrive in strictly increasing symbol position, so a
//! bounded ring of recent events suffices — no full event log is kept even
//! for gigabyte streams.
//!
//! Scoring a candidate needs only how far its backward scan reaches (the
//! smallest and largest lane position), so candidates are scored from scans
//! that track just that in reused scratch; lanes are gathered for the
//! winner of each target alone, appended to the one allocation all the
//! planned [`SplitPoint`]s share.

use crate::error::RecoilError;
use crate::metadata::{pack_splits, Extent, LaneInit, RecoilMetadata, GROUP_DIFF_BITS};
use recoil_rans::{RansError, RenormEvent, RenormSink, NO_SYMBOL};
use std::collections::VecDeque;
use std::ops::Range;

/// Candidate-scoring strategy (for the ablation study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Heuristic {
    /// Definition 4.1: `H(t, t_s) = |t - T| + |t - t_s - T|` — balances the
    /// workload both including and excluding the Synchronization Section.
    #[default]
    SyncAware,
    /// Naive: nearest renorm point to the target, ignoring sync length
    /// (`H = |t - T|`). Used to quantify what Def. 4.1 buys.
    NearestOnly,
}

/// Renorm events kept for candidate search and backward scans; bounds
/// planner memory whatever the stream length. Never set to anything else
/// while it was a config field.
const RING_CAPACITY: usize = 1 << 16;

/// Split candidates scored per workload target. 24 keeps planning under
/// ~15% of encode time at 2176 splits while matching the workload balance
/// of denser search (the ablation harness compared them). A constant, not
/// a config field: it is not in the PUBLISH message, so no remote
/// publisher could ever have set it.
const MAX_CANDIDATES: usize = 24;

/// What a caller chooses about the plan.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Desired number of parallel segments `M` (the paper's split count).
    pub segments: u64,
    /// Scoring strategy.
    pub heuristic: Heuristic,
}

impl PlannerConfig {
    /// Config for `segments` parallel segments with the paper's heuristic.
    pub fn with_segments(segments: u64) -> Self {
        Self {
            segments,
            heuristic: Heuristic::SyncAware,
        }
    }

    /// Same, with the naive scoring strategy (ablation).
    pub fn with_segments_naive(segments: u64) -> Self {
        Self {
            heuristic: Heuristic::NearestOnly,
            ..Self::with_segments(segments)
        }
    }
}

/// Streaming split planner; plug into the encoder as its [`RenormSink`].
pub struct SplitPlanner {
    ways: u32,
    num_symbols: u64,
    target: u64,
    max_interior: u64,
    ring: VecDeque<RenormEvent>,
    heuristic: Heuristic,
    /// Position of the last committed split (`-1` before the first).
    prev_p: i64,
    /// Next workload target position.
    next_target: u64,
    /// Offset and measured extent of each committed split, in order.
    chosen: Vec<(u64, Extent)>,
    /// The committed splits' lanes, `ways` each, back to back.
    chosen_lanes: Vec<LaneInit>,
    /// Backward-scan scratch: the scan (by number) that last met each lane,
    /// so starting a scan is a counter bump rather than a clear.
    met_in_scan: Vec<u64>,
    scans: u64,
    /// Buffer the winning candidate's lanes are gathered in.
    lane_buf: Vec<LaneInit>,
}

impl SplitPlanner {
    /// Planner for a stream of `num_symbols` symbols over `ways` lanes.
    pub fn new(ways: u32, num_symbols: u64, config: PlannerConfig) -> Self {
        assert!(ways >= 1);
        assert!(config.segments >= 1);
        let segments = config.segments.min(num_symbols.max(1));
        let target = num_symbols.div_ceil(segments).max(1);
        Self {
            ways,
            num_symbols,
            target,
            max_interior: segments - 1,
            ring: VecDeque::with_capacity(RING_CAPACITY),
            heuristic: config.heuristic,
            prev_p: -1,
            next_target: target,
            chosen: Vec::new(),
            chosen_lanes: Vec::new(),
            met_in_scan: vec![0; ways as usize],
            scans: 0,
            lane_buf: vec![LaneInit { state: 0, pos: 0 }; ways as usize],
        }
    }

    /// Candidate search half-window around a target.
    fn window(&self) -> u64 {
        (self.target / 8).max(4 * self.ways as u64).max(16)
    }

    /// Ring indices whose event position lies within `[lo, hi]`, thinned to
    /// at most [`MAX_CANDIDATES`] entries.
    fn candidates_in(&self, lo: u64, hi: u64) -> impl Iterator<Item = usize> {
        // Events are position-sorted; binary search the boundaries.
        let start = self
            .ring
            .partition_point(|e| e.pos == NO_SYMBOL || e.pos < lo);
        let end = self
            .ring
            .partition_point(|e| e.pos == NO_SYMBOL || e.pos <= hi);
        let span = end.saturating_sub(start);
        // All of them, or evenly thinned, always keeping first and last.
        let picks = span.min(MAX_CANDIDATES);
        (0..picks).map(move |k| start + k * (span - 1) / (picks - 1).max(1))
    }

    /// Backward scan from ring index `idx` (paper §4.1, Figure 6): `visit`
    /// sees each lane's most recent renorm event at-or-before the
    /// candidate. Returns false when some lane has none.
    fn scan_back(&mut self, idx: usize, mut visit: impl FnMut(&RenormEvent)) -> bool {
        self.scans += 1;
        let mut missing = self.ways;
        for e in self.ring.range(..=idx).rev() {
            let met = &mut self.met_in_scan[e.lane as usize];
            if *met != self.scans {
                if e.pos == NO_SYMBOL {
                    return false; // lane state predates its first symbol
                }
                *met = self.scans;
                visit(e);
                missing -= 1;
                if missing == 0 {
                    return true;
                }
            }
        }
        false // ring exhausted before all lanes were found
    }

    /// The candidate's extent (`lo` its sync start, `hi` its split
    /// position) — all that scoring needs — or `None` when splitting there
    /// would break an invariant the decoder or the wire format depends on.
    fn extent(&mut self, idx: usize) -> Option<Extent> {
        // (Ownership is the encoder's to keep — an event's lane is its
        // position's — and is checked for the winner, in `commit`.)
        let mut extent = Extent::EMPTY;
        let complete = self.scan_back(idx, |e| extent.include(e.pos));
        let Extent { lo: q, hi: p, .. } = extent;
        let ways = u64::from(self.ways);
        let viable = complete
            && q as i64 > self.prev_p
            && p + 1 < self.num_symbols
            // §4.3 stores each lane's distance below the split's group in
            // at most 16 bits; a scan reaching further back is not a split
            // the metadata could carry.
            && (p / ways - q / ways) >> GROUP_DIFF_BITS == 0;
        viable.then_some(extent)
    }

    /// Definition 4.1: `H(t, t_s) = |t - T| + |t - t_s - T|` (or the naive
    /// `|t - T|` under [`Heuristic::NearestOnly`]) for a candidate whose
    /// scan spans `q ..= p`, `t_s = p - q + 1`.
    fn score(&self, Extent { lo: q, hi: p, .. }: Extent) -> u64 {
        let t = p as i64 - self.prev_p;
        let target = self.target as i64;
        match self.heuristic {
            Heuristic::SyncAware => {
                let ts = (p - q + 1) as i64;
                (t - target).unsigned_abs() + (t - ts - target).unsigned_abs()
            }
            Heuristic::NearestOnly => (t - target).unsigned_abs(),
        }
    }

    /// Commits the split at ring index `idx`, whose scan measured `extent`:
    /// gathers its lanes and records them with the split's offset.
    fn commit(&mut self, idx: usize, mut extent: Extent) {
        let mut lanes = std::mem::take(&mut self.lane_buf);
        let ways = u64::from(self.ways);
        self.scan_back(idx, |e| {
            extent.owned &= e.pos % ways == u64::from(e.lane);
            lanes[e.lane as usize] = LaneInit {
                state: e.state,
                pos: e.pos,
            };
        });
        self.chosen.push((self.ring[idx].offset, extent));
        self.chosen_lanes.extend_from_slice(&lanes);
        self.lane_buf = lanes;
    }

    /// Scores candidates around the current target and commits the best.
    /// Returns false when no viable candidate exists (the target is skipped).
    fn plan_one(&mut self) -> bool {
        let mut half = self.window();
        let hi_cap = self
            .ring
            .back()
            .map_or(0, |e| if e.pos == NO_SYMBOL { 0 } else { e.pos });
        // Widen up to half the target on sparse data, then give up.
        loop {
            let lo = self.next_target.saturating_sub(half);
            let hi = (self.next_target + half).min(hi_cap);
            // Lowest (score, sync length), the earliest candidate on ties.
            let mut best: Option<((u64, u64), usize, Extent)> = None;
            for idx in self.candidates_in(lo, hi) {
                let Some(extent) = self.extent(idx) else {
                    continue;
                };
                let key = (self.score(extent), extent.hi - extent.lo + 1);
                if best.is_none_or(|(best_key, ..)| key < best_key) {
                    best = Some((key, idx, extent));
                }
            }
            if let Some((_, idx, extent)) = best {
                self.commit(idx, extent);
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
        while (self.chosen.len() as u64) < self.max_interior
            && self.next_target + 1 < self.num_symbols
        {
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
}

impl RenormSink for SplitPlanner {
    #[inline]
    fn on_renorm(&mut self, e: RenormEvent) {
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(e);
        if e.pos != NO_SYMBOL
            && (self.chosen.len() as u64) < self.max_interior
            && e.pos >= self.next_target + self.window()
            && !self.plan_one()
        {
            self.next_target += self.target;
        }
    }
}

/// One transmission chunk of a [`ChunkPlan`]: a word range of the bitstream
/// plus the metadata segments that become fully resident once every chunk
/// up to and including this one has arrived.
///
/// Interior segment `m` reads only words at offsets `<= splits[m].offset`,
/// so it completes with the chunk containing word `splits[m].offset`; the
/// final segment completes with the last chunk. A chunk cutting through a
/// large segment completes no segments (`segments` is empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedChunk {
    /// Bitstream word range `[start, end)` this chunk carries.
    pub words: Range<u64>,
    /// Segments newly decodable after this chunk arrived (may be empty).
    pub segments: Range<u64>,
}

/// A transmission schedule whose chunk boundaries are aligned to split
/// boundaries, so a streaming receiver can start decoding whole segments
/// the moment a chunk lands instead of waiting for the full bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Chunks in wire order; word ranges tile `0..meta.num_words` and
    /// segment ranges tile `0..meta.num_segments()`.
    pub chunks: Vec<PlannedChunk>,
}

impl ChunkPlan {
    /// Number of chunks on the wire.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the plan carries no chunks (never produced by
    /// [`plan_chunks`]; even an empty stream gets one empty chunk so the
    /// receiver observes completion).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Checks that this plan is a faithful transmission schedule for
    /// `meta`: word ranges must tile the stream, segment ranges must tile
    /// `0..num_segments` **without overlap or gaps**, and each segment must
    /// be reported complete in exactly the chunk that delivers its last
    /// word. Malformed plans are rejected with [`RecoilError::Decode`] —
    /// a decoder driving `decode_ready_segments` off a bad plan would
    /// otherwise read words that have not arrived.
    pub fn validate_against(&self, meta: &RecoilMetadata) -> Result<(), RecoilError> {
        let fail = |msg: String| Err(RecoilError::Decode(RansError::MalformedMetadata(msg)));
        if self.chunks.is_empty() {
            return fail("chunk plan is empty".into());
        }
        let nseg = meta.num_segments();
        // Words an interior/final segment needs before it is decodable.
        let seg_end = |m: u64| {
            if m + 1 == nseg {
                meta.num_words
            } else {
                meta.splits[m as usize].offset + 1
            }
        };
        let mut word = 0u64;
        let mut seg = 0u64;
        for (k, c) in self.chunks.iter().enumerate() {
            if c.words.start != word || c.words.end < c.words.start {
                return fail(format!(
                    "chunk {k}: word range {}..{} breaks contiguity at word {word}",
                    c.words.start, c.words.end
                ));
            }
            if c.segments.start != seg || c.segments.end < c.segments.start {
                return fail(format!(
                    "chunk {k}: segment range {}..{} overlaps or leaves a gap at segment {seg}",
                    c.segments.start, c.segments.end
                ));
            }
            if c.segments.end > nseg {
                return fail(format!(
                    "chunk {k}: segment range ends at {} but the metadata has {nseg} segments",
                    c.segments.end
                ));
            }
            for m in c.segments.clone() {
                if seg_end(m) > c.words.end {
                    return fail(format!(
                        "chunk {k}: claims segment {m} complete before word {} arrived",
                        seg_end(m)
                    ));
                }
            }
            if c.segments.end < nseg && seg_end(c.segments.end) <= c.words.end {
                return fail(format!(
                    "chunk {k}: segment {} is resident but not reported complete",
                    c.segments.end
                ));
            }
            word = c.words.end;
            seg = c.segments.end;
        }
        if word != meta.num_words {
            return fail(format!(
                "chunk plan covers {word} of {} words",
                meta.num_words
            ));
        }
        if seg != nseg {
            return fail(format!("chunk plan completes {seg} of {nseg} segments"));
        }
        Ok(())
    }
}

/// Plans split-aligned transmission chunks for `meta`, aiming at
/// `target_chunk_bytes` of bitstream per chunk (2 bytes per word).
///
/// Boundary placement prefers the furthest segment-completion point within
/// the target, so nearly every chunk finishes whole segments; a segment
/// larger than the target is cut at raw target boundaries (those interior
/// chunks complete nothing) and finishes in the chunk carrying its last
/// word. The degenerate cases stay well-formed: a single-segment stream
/// degrades to plain fixed-size chunking, and an empty stream yields one
/// empty chunk so the receiver still observes completion.
pub fn plan_chunks(meta: &RecoilMetadata, target_chunk_bytes: usize) -> ChunkPlan {
    let mut plan = ChunkPlan { chunks: Vec::new() };
    plan_chunks_into(meta, target_chunk_bytes, &mut plan);
    plan
}

/// In-place variant of [`plan_chunks`]: clears and refills `plan`, reusing
/// its chunk storage so a steady-state server can plan every response
/// without allocating.
pub fn plan_chunks_into(meta: &RecoilMetadata, target_chunk_bytes: usize, plan: &mut ChunkPlan) {
    let target = (target_chunk_bytes as u64 / 2).max(1);
    let nseg = meta.num_segments();
    let seg_end = |m: u64| {
        if m + 1 == nseg {
            meta.num_words
        } else {
            meta.splits[m as usize].offset + 1
        }
    };
    let chunks = &mut plan.chunks;
    chunks.clear();
    let mut word = 0u64;
    let mut seg = 0u64;
    while word < meta.num_words {
        let limit = word + target;
        // Furthest segment completion within the target, if any.
        let mut cut = word;
        let mut done = seg;
        while done < nseg && seg_end(done) <= limit {
            cut = seg_end(done);
            done += 1;
        }
        if done == seg {
            // The next segment overshoots the target: cut mid-segment.
            cut = limit.min(meta.num_words);
        }
        chunks.push(PlannedChunk {
            words: word..cut,
            segments: seg..done,
        });
        word = cut;
        seg = done;
    }
    // Trailing zero-word segments (and the empty-stream case) complete in
    // one final empty chunk so the schedule always reports every segment.
    if seg < nseg {
        chunks.push(PlannedChunk {
            words: word..word,
            segments: seg..nseg,
        });
    }
    debug_assert!(
        plan.validate_against(meta).is_ok(),
        "planner produced an invalid chunk plan"
    );
}

/// Offline planning over a recorded event log (tests, small inputs).
pub fn plan_from_events(
    events: &[RenormEvent],
    ways: u32,
    num_symbols: u64,
    num_words: u64,
    quant_bits: u32,
    config: PlannerConfig,
) -> RecoilMetadata {
    let mut planner = SplitPlanner::new(ways, num_symbols, config);
    for &e in events {
        planner.on_renorm(e);
    }
    planner.finish(num_words, quant_bits)
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
                PlannerConfig::with_segments(segments),
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
            PlannerConfig::with_segments(segments),
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
            PlannerConfig::with_segments(32),
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
            PlannerConfig::with_segments(8),
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
            PlannerConfig::with_segments(1000),
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
            PlannerConfig::with_segments(1),
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
            PlannerConfig::with_segments(16),
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
        let mut planner =
            SplitPlanner::new(32, data.len() as u64, PlannerConfig::with_segments(16));
        enc.encode_all_fast(&data, &mut planner).unwrap();
        let streamed = planner.finish(stream.words.len() as u64, 11);
        let offline = plan_from_events(
            &events,
            32,
            stream.num_symbols,
            stream.words.len() as u64,
            11,
            PlannerConfig::with_segments(16),
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
        let meta = plan_from_events(
            &events,
            2,
            600_000,
            events.len() as u64,
            11,
            PlannerConfig::with_segments(3),
        );
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
}
