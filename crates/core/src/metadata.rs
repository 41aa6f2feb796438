//! The split metadata model (paper §4.1, Figure 6).
//!
//! One [`SplitPoint`] records everything a decoder thread needs to start at
//! an intermediate position: per interleaved lane, the 16-bit intermediate
//! state taken at that lane's **last renormalization point** before the
//! split, and the symbol position it belongs to; plus the bitstream offset
//! of the split-defining renorm word. Positions are 0-based here (the
//! paper's `s_i` is our position `i - 1`).
//!
//! A split's lane array is an immutable, measured value ([`SplitLanes`]):
//! shared by reference count — many splits' arrays lie back to back in one
//! allocation — and carrying its smallest and largest position and whether
//! every lane owns the position it records, all fixed when it was built.
//! Cloning a split, which is all [`crate::try_combine_splits`] does to the
//! ones it keeps, is a refcount bump; dropping the combined metadata is a
//! decrement per split; and validating a selection of splits compares
//! those recorded facts without reading a single lane. (The server's
//! real-time combine clones no split at all: it writes the tier's bytes
//! from [`crate::WireSplits`].)

use recoil_rans::{EncodedStream, RansError};
use std::hint::select_unpredictable;
use std::ops::Deref;
use std::sync::Arc;

/// Widest per-lane group difference the §4.3 wire format can store: the
/// unsigned series' width field is 4 bits, so a split's lanes may span
/// fewer than `2^16` symbol groups.
pub(crate) const GROUP_DIFF_BITS: u32 = 16;
/// Widest offset/anchor difference from its expectation: the signed series'
/// width field is 5 bits.
pub(crate) const SERIES_DIFF_BITS: u32 = 32;

/// One lane's recorded intermediate state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneInit {
    /// Post-renormalization state, `< 2^16` by Lemma 3.1.
    pub state: u16,
    /// 0-based position of the last symbol this lane had encoded when the
    /// state was recorded ("Symbol Indices" row of Table 2).
    pub pos: u64,
}

/// What a lane array is measured for when it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    /// Smallest recorded position (`u64::MAX` for no lanes).
    pub lo: u64,
    /// Largest recorded position (`0` for no lanes).
    pub hi: u64,
    /// Whether lane `l` of `n` records a position `p` with `p % n == l`,
    /// for every lane.
    pub owned: bool,
}

impl Extent {
    /// The extent of no lanes, to [`Extent::include`] positions into.
    pub(crate) const EMPTY: Self = Self {
        lo: u64::MAX,
        hi: 0,
        owned: true,
    };

    /// Measures `lanes` by scanning them.
    pub(crate) fn of(lanes: &[LaneInit]) -> Self {
        let n = lanes.len() as u64;
        let mut extent = Self::EMPTY;
        for (lane, l) in (0u64..).zip(lanes) {
            extent.include(l.pos);
            extent.owned &= l.pos % n == lane;
        }
        extent
    }

    /// Widens the extent to cover `pos`. Lane positions within a split come
    /// in no order, so as branches these two selects mispredict; they are
    /// kept conditional moves.
    #[inline]
    pub(crate) fn include(&mut self, pos: u64) {
        self.lo = select_unpredictable(pos < self.lo, pos, self.lo);
        self.hi = select_unpredictable(pos > self.hi, pos, self.hi);
    }
}

/// A split's per-lane records, indexed by lane `0..ways`: immutable, shared
/// by reference count, and measured once when built.
///
/// Dereferences to `[LaneInit]`. Build one from a `Vec<LaneInit>` or an
/// iterator; the encoder and the wire parser pack all the arrays of one
/// metadata into a single allocation. A clone points at the same storage.
#[derive(Clone)]
pub struct SplitLanes {
    /// Storage shared with every clone, and with the other splits packed
    /// beside this one.
    all: Arc<[LaneInit]>,
    start: usize,
    len: usize,
    extent: Extent,
}

impl SplitLanes {
    /// Whether `self` and `other` are the same lanes of the same storage —
    /// one a clone of the other, not merely equal.
    pub fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.all, &other.all) && (self.start, self.len) == (other.start, other.len)
    }
}

impl Deref for SplitLanes {
    type Target = [LaneInit];

    #[inline]
    fn deref(&self) -> &[LaneInit] {
        &self.all[self.start..self.start + self.len]
    }
}

impl From<Vec<LaneInit>> for SplitLanes {
    fn from(lanes: Vec<LaneInit>) -> Self {
        Self {
            extent: Extent::of(&lanes),
            start: 0,
            len: lanes.len(),
            all: lanes.into(),
        }
    }
}

impl FromIterator<LaneInit> for SplitLanes {
    fn from_iter<I: IntoIterator<Item = LaneInit>>(lanes: I) -> Self {
        Vec::from_iter(lanes).into()
    }
}

impl PartialEq for SplitLanes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SplitLanes {}

impl std::fmt::Debug for SplitLanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Builds split points whose lane arrays lie back to back in `all`, `ways`
/// lanes each, sharing it. `splits` gives each one's offset and extent,
/// which the caller vouches for (it measured the lanes as it produced
/// them); debug builds re-measure.
pub(crate) fn pack_splits(
    all: Arc<[LaneInit]>,
    ways: usize,
    splits: impl ExactSizeIterator<Item = (u64, Extent)>,
) -> Vec<SplitPoint> {
    assert_eq!(all.len(), splits.len() * ways);
    splits
        .enumerate()
        .map(|(i, (offset, extent))| {
            let lanes = SplitLanes {
                all: Arc::clone(&all),
                start: i * ways,
                len: ways,
                extent,
            };
            debug_assert_eq!(extent, Extent::of(&lanes));
            SplitPoint { offset, lanes }
        })
        .collect()
}

/// A recorded split point: the metadata block of one decoder thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPoint {
    /// Word offset of the split-defining renorm word ("Bitstream Offset").
    pub offset: u64,
    /// Per-lane intermediate states, indexed by lane `0..ways`.
    pub lanes: SplitLanes,
}

impl SplitPoint {
    /// The split position `P`: the largest recorded symbol position. The
    /// thread starting here owns symbols up to `P`; the next split's thread
    /// begins at `P + 1`.
    pub fn split_pos(&self) -> u64 {
        assert!(!self.lanes.is_empty(), "at least one lane");
        self.lanes.extent.hi
    }

    /// The synchronization completion point `Q`: the smallest recorded
    /// position. Symbols `Q ..= P` form the Synchronization Section.
    pub fn sync_start(&self) -> u64 {
        assert!(!self.lanes.is_empty(), "at least one lane");
        self.lanes.extent.lo
    }

    /// Number of symbols in the Synchronization Section (`t_s` of Def. 4.1).
    pub fn sync_len(&self) -> u64 {
        self.split_pos() - self.sync_start() + 1
    }
}

/// A split in the wire format's terms: its anchor group and how wide the
/// per-lane group differences are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitShape {
    /// Symbol group of the split position ("Max Symbol Group ID").
    pub anchor: u64,
    /// Bits of the largest `anchor - group(lane)`, zero counting as one.
    pub diff_bits: u32,
}

/// Lane-position arithmetic for one stream's fixed interleave width, with
/// the per-lane division by `ways` done as a multiplication: a lane's
/// distance below its split's anchor is under `2^32` whenever the split is
/// representable, and for such `x`, `x / ways == (x * ceil(2^63 / ways)) >> 63`
/// (`ways < 2^16` keeps the rounding error `x * (ways - 1) / 2^63` below
/// the `1 / ways` that could carry into the next integer). A 32-bit `/` in
/// its place costs a full-width tier's serializer a fifth more time (7 776
/// divides at ≈ 6 cycles each; 24 → 29 µs measured).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneGroups {
    ways: u64,
    /// `ceil(2^63 / ways)`.
    reciprocal: u64,
}

impl LaneGroups {
    /// `ways` must be in `1..=u16::MAX` ([`RecoilMetadata::validate`]
    /// rejects anything else before building one).
    pub(crate) fn new(ways: u32) -> Self {
        assert!((1..=u32::from(u16::MAX)).contains(&ways));
        let ways = u64::from(ways);
        Self {
            ways,
            reciprocal: ((1u64 << 63) - 1) / ways + 1,
        }
    }

    /// `x / ways`, for `x < 2^32`.
    #[inline]
    fn quotient(&self, x: u64) -> u64 {
        ((u128::from(x) * u128::from(self.reciprocal)) >> 63) as u64
    }

    /// Position of lane 0's slot in group `anchor` (wrapping: only
    /// differences from it are ever used, and those fit).
    #[inline]
    pub(crate) fn group_start(&self, anchor: u64) -> u64 {
        anchor.wrapping_mul(self.ways)
    }

    /// `anchor - group(pos)` for lane `lane` of a split that has a
    /// [`LaneGroups::shape`], whose anchor group starts at `start`
    /// ([`LaneGroups::group_start`]).
    #[inline]
    pub(crate) fn diff_below(&self, start: u64, lane: u64, pos: u64) -> u64 {
        self.quotient(start.wrapping_add(lane).wrapping_sub(pos))
    }

    /// The wire shape of `lanes` — from what they were measured for when
    /// built, no lane is read — or `None` if the format cannot carry them:
    /// not `ways` lanes, one recording a position it does not own, or
    /// `2^16` or more groups between the smallest and largest position.
    pub(crate) fn shape(&self, lanes: &SplitLanes) -> Option<SplitShape> {
        let Extent { lo, hi, owned } = lanes.extent;
        if lanes.len() as u64 != self.ways || !owned {
            return None;
        }
        let anchor = hi / self.ways;
        // Whole groups from `lo`'s up to the anchor: `lo`'s distance below
        // the anchor group's last slot, divided down.
        let reach = self
            .group_start(anchor)
            .wrapping_add(self.ways - 1)
            .wrapping_sub(lo);
        (reach < self.ways << GROUP_DIFF_BITS).then(|| SplitShape {
            anchor,
            diff_bits: bits_for(self.quotient(reach)),
        })
    }
}

/// Bits needed for unsigned `v`, counting zero as one.
pub(crate) fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

/// The §4.3 expectations the offset and anchor series are stored against:
/// with `M` segments, split `i` is expected at word `(i + 1) * ceil(B / M)`
/// and symbol group `(i + 1) * ceil(G / M)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Expected {
    offset_step: u64,
    anchor_step: u64,
}

impl Expected {
    pub(crate) fn new(ways: u32, num_symbols: u64, num_words: u64, splits: usize) -> Self {
        let segments = splits as u64 + 1;
        Self {
            offset_step: num_words.div_ceil(segments),
            anchor_step: num_symbols.div_ceil(u64::from(ways)).div_ceil(segments),
        }
    }

    /// Split `i`'s expected `(offset, anchor)`; `None` past `u64`.
    pub(crate) fn at(&self, i: usize) -> Option<(u64, u64)> {
        let nth = i as u64 + 1;
        Some((
            nth.checked_mul(self.offset_step)?,
            nth.checked_mul(self.anchor_step)?,
        ))
    }

    /// Signed differences of split `i`'s actual `(offset, anchor)` from the
    /// expectation, or `None` when either magnitude needs more than
    /// [`SERIES_DIFF_BITS`] bits.
    pub(crate) fn diffs(&self, i: usize, offset: u64, anchor: u64) -> Option<(i64, i64)> {
        let (expected_offset, expected_anchor) = self.at(i)?;
        let signed = |actual: u64, expected: u64| {
            let magnitude = actual.abs_diff(expected);
            (magnitude >> SERIES_DIFF_BITS == 0).then(|| {
                let magnitude = magnitude as i64;
                if actual < expected {
                    -magnitude
                } else {
                    magnitude
                }
            })
        };
        Some((
            signed(offset, expected_offset)?,
            signed(anchor, expected_anchor)?,
        ))
    }
}

/// The complete Recoil metadata for one encoded stream.
///
/// Kept separate from the bitstream on purpose: "Recoil does not actually
/// modify the rANS bitstream, but instead works on independent metadata"
/// (§1), which is what makes real-time split combining possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoilMetadata {
    /// Interleave width `W` of the stream this metadata belongs to.
    pub ways: u32,
    /// Quantization level `n` (recorded for container self-description).
    pub quant_bits: u32,
    /// Total symbol count `N` of the stream.
    pub num_symbols: u64,
    /// Total word count `B` of the stream.
    pub num_words: u64,
    /// Interior split points, ascending by [`SplitPoint::split_pos`].
    /// `splits.len() + 1` decoder threads can run in parallel.
    pub splits: Vec<SplitPoint>,
}

impl RecoilMetadata {
    /// Number of independently decodable segments (paper's split count `M`).
    pub fn num_segments(&self) -> u64 {
        self.splits.len() as u64 + 1
    }

    /// Output-range boundaries per decoder thread:
    /// `[0, Q_0, Q_1, .., Q_{K-1}, N]`. Thread `m` produces the symbols in
    /// `bounds[m] .. bounds[m+1]` — its Sync Phase output is discarded and
    /// re-produced by thread `m+1`'s Cross-Boundary Phase (§4.1.3).
    pub fn segment_bounds(&self) -> Vec<u64> {
        let mut b = Vec::with_capacity(self.splits.len() + 2);
        b.push(0);
        for s in &self.splits {
            b.push(s.sync_start());
        }
        b.push(self.num_symbols);
        b
    }

    /// Checks every structural invariant the decoder relies on, and that
    /// the §4.3 wire format can represent this metadata (header fields in
    /// their widths, each split's lanes within `2^16` groups of its anchor,
    /// offsets and anchors within `2^32` of their expectations) — so what
    /// the planner emits, what a combine returns and what the parser
    /// accepts are all things the serializer can write back unchanged.
    ///
    /// No lane is read: a split's extent and lane ownership were measured
    /// when its [`SplitLanes`] was built, so validating is comparing `K`
    /// splits' recorded facts.
    pub fn validate(&self) -> Result<(), RansError> {
        let fail = |msg: String| Err(RansError::MalformedMetadata(msg));
        if self.ways == 0 {
            return fail("ways must be >= 1".into());
        }
        if self.ways > u32::from(u16::MAX) || self.quant_bits > u32::from(u8::MAX) {
            return fail(format!(
                "ways {} or quantization level {} exceeds its wire field",
                self.ways, self.quant_bits
            ));
        }
        if u32::try_from(self.splits.len()).is_err() {
            return fail("split count exceeds its 32-bit wire field".into());
        }
        if self.num_symbols == 0 && !self.splits.is_empty() {
            return fail("splits recorded for an empty stream".into());
        }
        let groups = LaneGroups::new(self.ways);
        let expected = Expected::new(
            self.ways,
            self.num_symbols,
            self.num_words,
            self.splits.len(),
        );
        let mut prev_p: Option<u64> = None;
        let mut prev_off: Option<u64> = None;
        for (k, s) in self.splits.iter().enumerate() {
            if s.lanes.len() != self.ways as usize {
                return fail(format!(
                    "split {k}: {} lane entries for {} ways",
                    s.lanes.len(),
                    self.ways
                ));
            }
            let Some(shape) = groups.shape(&s.lanes) else {
                return fail(self.lane_fault(k, s));
            };
            let (p, q) = (s.split_pos(), s.sync_start());
            // (`num_symbols >= 1` here: an empty stream has no splits.)
            if p >= self.num_symbols - 1 {
                return fail(format!(
                    "split {k}: split position {p} leaves no symbols for the final thread"
                ));
            }
            if s.offset >= self.num_words {
                return fail(format!(
                    "split {k}: offset {} beyond stream of {} words",
                    s.offset, self.num_words
                ));
            }
            if let Some(pp) = prev_p {
                // The sync section must not cross the previous split point,
                // or two threads' output ranges would overlap.
                if q <= pp {
                    return fail(format!(
                        "split {k}: sync start {q} crosses previous split position {pp}"
                    ));
                }
            }
            if let Some(po) = prev_off {
                if s.offset <= po {
                    return fail(format!("split {k}: offsets not strictly ascending"));
                }
            }
            if expected.diffs(k, s.offset, shape.anchor).is_none() {
                return fail(format!(
                    "split {k}: offset {} or anchor group {} is 2^{SERIES_DIFF_BITS} or more \
                     from its expected place, beyond the wire format",
                    s.offset, shape.anchor
                ));
            }
            prev_p = Some(p);
            prev_off = Some(s.offset);
        }
        Ok(())
    }

    /// Names what [`LaneGroups::shape`] rejected about split `k`.
    #[cold]
    fn lane_fault(&self, k: usize, s: &SplitPoint) -> String {
        let ways = u64::from(self.ways);
        for (lane, li) in s.lanes.iter().enumerate() {
            if li.pos % ways != lane as u64 {
                return format!(
                    "split {k}: lane {lane} records position {} owned by lane {}",
                    li.pos,
                    li.pos % ways
                );
            }
        }
        format!(
            "split {k}: lanes span positions {}..={}, 2^{GROUP_DIFF_BITS} or more symbol groups, \
             beyond the wire format",
            s.sync_start(),
            s.split_pos()
        )
    }

    /// Validates against the stream this metadata claims to describe.
    pub fn validate_against(&self, stream: &EncodedStream) -> Result<(), RansError> {
        self.validate()?;
        if stream.ways != self.ways
            || stream.num_symbols != self.num_symbols
            || stream.words.len() as u64 != self.num_words
        {
            return Err(RansError::MalformedMetadata(format!(
                "metadata (W={}, N={}, B={}) does not describe stream (W={}, N={}, B={})",
                self.ways,
                self.num_symbols,
                self.num_words,
                stream.ways,
                stream.num_symbols,
                stream.words.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The Figure 6 split in 0-based coordinates: W = 4,
    /// states x_{9,1}, x_{14,2}, x_{11,3}, x_{16,4} → positions 8, 13, 10, 15.
    fn figure6_split() -> SplitPoint {
        SplitPoint {
            offset: 6,
            lanes: vec![
                LaneInit {
                    state: 0x1111,
                    pos: 8,
                },
                LaneInit {
                    state: 0x2222,
                    pos: 13,
                },
                LaneInit {
                    state: 0x3333,
                    pos: 10,
                },
                LaneInit {
                    state: 0x4444,
                    pos: 15,
                },
            ]
            .into(),
        }
    }

    /// Lane arrays are immutable; "corrupting" one means recording another.
    fn set_pos(split: &mut SplitPoint, lane: usize, pos: u64) {
        let mut lanes = split.lanes.to_vec();
        lanes[lane].pos = pos;
        split.lanes = lanes.into();
    }

    fn figure6_meta() -> RecoilMetadata {
        RecoilMetadata {
            ways: 4,
            quant_bits: 11,
            num_symbols: 20,
            num_words: 9,
            splits: vec![figure6_split()],
        }
    }

    #[test]
    fn figure6_split_geometry() {
        let s = figure6_split();
        assert_eq!(s.split_pos(), 15); // s_16 in the paper's 1-based indexing
        assert_eq!(s.sync_start(), 8); // s_9
        assert_eq!(s.sync_len(), 8); // sync section s_9 ..= s_16
    }

    #[test]
    fn segment_bounds_cover_stream() {
        let m = figure6_meta();
        assert_eq!(m.segment_bounds(), vec![0, 8, 20]);
        assert_eq!(m.num_segments(), 2);
    }

    #[test]
    fn valid_metadata_passes() {
        figure6_meta().validate().unwrap();
    }

    #[test]
    fn lane_position_parity_checked() {
        let mut m = figure6_meta();
        set_pos(&mut m.splits[0], 1, 14); // lane 1 cannot own position 14
        assert!(m.validate().is_err());
    }

    #[test]
    fn split_too_close_to_end_rejected() {
        let mut m = figure6_meta();
        m.num_symbols = 16; // split_pos 15 == N-1: final thread empty
        assert!(m.validate().is_err());
    }

    #[test]
    fn sync_crossing_previous_split_rejected() {
        let mut m = figure6_meta();
        let mut second = figure6_split();
        // Second split at P=19, but with a lane reaching back to pos 9 <= 15.
        second.offset = 8;
        second.lanes = vec![
            LaneInit { state: 1, pos: 16 },
            LaneInit { state: 2, pos: 17 },
            LaneInit { state: 3, pos: 18 },
            LaneInit { state: 4, pos: 19 },
        ]
        .into();
        m.num_symbols = 25;
        m.splits.push(second.clone());
        m.validate().unwrap(); // fine: q = 16 > 15

        set_pos(&mut m.splits[1], 0, 12); // q = 12 <= 15: crossing
        assert!(m.validate().is_err());
    }

    #[test]
    fn offsets_must_ascend() {
        let mut m = figure6_meta();
        let mut second = figure6_split();
        second.offset = 6; // duplicate offset
        second.lanes = second
            .lanes
            .iter()
            .map(|l| LaneInit {
                pos: l.pos + 8,
                ..*l
            })
            .collect();
        m.num_symbols = 30;
        m.splits.push(second);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_against_checks_stream_shape() {
        let m = figure6_meta();
        let stream = EncodedStream {
            words: std::iter::repeat_n(0, 9).collect(),
            final_states: vec![recoil_rans::params::INITIAL_STATE; 4],
            num_symbols: 20,
            ways: 4,
        };
        m.validate_against(&stream).unwrap();
        let mut wrong = stream.clone();
        wrong.num_symbols = 21;
        assert!(m.validate_against(&wrong).is_err());
    }

    #[test]
    fn lane_group_quotient_matches_division() {
        // The multiply-for-divide identity, against `/`, at the edges of its
        // 32-bit domain and across lane counts that are and are not powers
        // of two.
        for ways in [1u32, 2, 3, 4, 5, 7, 12, 31, 32, 33, 1000, 4096, 65_535] {
            let groups = LaneGroups::new(ways);
            let w = u64::from(ways);
            let mut x = 0x9E37_79B9u64;
            let mut probes: Vec<u64> = vec![0, 1, w - 1, w, w + 1, (w << 16) - 1, w << 16];
            probes.push(u64::from(u32::MAX));
            for _ in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                probes.extend([x >> 32, (x >> 32) / w * w]);
            }
            for x in probes {
                assert_eq!(groups.quotient(x), x / w, "ways {ways} x {x}");
            }
        }
    }

    #[test]
    fn shape_agrees_with_the_definitions_on_shuffled_splits() {
        // Random valid splits: the measured extent is min and max, the shape
        // is max / ways and the width of the largest group difference; then
        // one lane moved to a position it does not own, or out of reach, is
        // refused.
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for ways in [1u32, 2, 3, 4, 12, 32, 33, 257] {
            let groups = LaneGroups::new(ways);
            let w = u64::from(ways);
            for case in 0..200 {
                let anchor = 200_000 + next() % 1_000_000;
                let reach = [1, 2, 4, 300, 1 << GROUP_DIFF_BITS][case % 5];
                let mut lanes: Vec<LaneInit> = (0..w)
                    .map(|lane| LaneInit {
                        state: 0,
                        pos: (anchor - next() % reach) * w + lane,
                    })
                    .collect();
                let at_anchor = (next() % w) as usize;
                lanes[at_anchor].pos = anchor * w + at_anchor as u64;
                let lo = lanes.iter().map(|l| l.pos).min().unwrap();
                let hi = lanes.iter().map(|l| l.pos).max().unwrap();
                let split = SplitPoint {
                    offset: 0,
                    lanes: lanes.clone().into(),
                };
                assert_eq!((split.sync_start(), split.split_pos()), (lo, hi));
                let shape = groups.shape(&split.lanes).expect("valid split");
                assert_eq!(shape.anchor, anchor);
                assert_eq!(shape.diff_bits, bits_for(anchor - lo / w));
                for (lane, l) in lanes.iter().enumerate() {
                    let diff = groups.diff_below(groups.group_start(anchor), lane as u64, l.pos);
                    assert_eq!(diff, anchor - l.pos / w);
                }
                if ways == 1 {
                    continue; // one lane owns everything and spans nothing
                }
                let victim = (at_anchor + 1) % ways as usize;
                let mut stray = lanes.clone();
                stray[victim].pos += 1 + next() % (w - 1);
                assert_eq!(groups.shape(&stray.into()), None, "ways {ways}: unowned");
                let mut far = lanes.clone();
                far[victim].pos -= w << GROUP_DIFF_BITS;
                assert_eq!(groups.shape(&far.into()), None, "ways {ways}: out of reach");
                let short: SplitLanes = lanes[1..].to_vec().into();
                assert_eq!(groups.shape(&short), None, "ways {ways}: a lane short");
            }
        }
    }

    #[test]
    fn packed_splits_share_one_allocation_and_compare_by_content() {
        let all: Vec<LaneInit> = (0..12u64)
            .map(|i| LaneInit {
                state: i as u16,
                pos: 100 * (i / 4) + i % 4,
            })
            .collect();
        let extents = all.chunks(4).map(Extent::of).collect::<Vec<_>>();
        let offsets = [5u64, 9, 14];
        let packed = pack_splits(all.clone().into(), 4, offsets.into_iter().zip(extents));
        assert_eq!(packed.len(), 3);
        for (i, split) in packed.iter().enumerate() {
            assert_eq!(&*split.lanes, &all[4 * i..4 * i + 4]);
            assert_eq!(split.sync_start(), 100 * i as u64);
            assert_eq!(split.split_pos(), 100 * i as u64 + 3);
            // Equal to a split built on its own, but not the same storage.
            let alone: SplitLanes = all[4 * i..4 * i + 4].to_vec().into();
            assert_eq!(split.lanes, alone);
            assert!(!split.lanes.shares_storage(&alone));
            assert!(split.lanes.shares_storage(&split.clone().lanes));
        }
        assert!(!packed[0].lanes.shares_storage(&packed[1].lanes));
    }

    /// One 4-lane split whose lane 0 sits `span` groups below the others,
    /// in a stream long enough to hold it.
    pub(crate) fn spanning_meta(span: u64) -> RecoilMetadata {
        let anchor = span + 10;
        let lanes = (0..4u64)
            .map(|lane| LaneInit {
                state: lane as u16,
                pos: if lane == 0 { 40 } else { anchor * 4 + lane },
            })
            .collect();
        RecoilMetadata {
            ways: 4,
            quant_bits: 11,
            num_symbols: 8 * (anchor + 1),
            num_words: 1000,
            splits: vec![SplitPoint { offset: 500, lanes }],
        }
    }

    #[test]
    fn a_split_wider_than_the_wire_format_is_invalid() {
        // 2^16 - 1 groups fit the 16-bit difference series; 2^16 do not. The
        // old check admitted both, and the serializer wrote the second with
        // a masked width field and a correct CRC.
        spanning_meta((1 << GROUP_DIFF_BITS) - 1)
            .validate()
            .unwrap();
        let err = spanning_meta(1 << GROUP_DIFF_BITS).validate().unwrap_err();
        assert!(err.to_string().contains("beyond the wire format"), "{err}");
    }

    #[test]
    fn a_split_far_from_its_expected_place_is_invalid() {
        // Offsets and anchors are stored as differences from an even
        // spacing, in at most 32 bits of magnitude.
        let mut m = figure6_meta();
        m.num_words = 1 << 40; // expected offset 2^39, actual 6
        let err = m.validate().unwrap_err();
        assert!(err.to_string().contains("beyond the wire format"), "{err}");
        let mut m = figure6_meta();
        m.num_symbols = 1 << 50; // expected anchor group 2^47, actual 3
        assert!(m.validate().is_err());
        // Within 2^32 either way is fine.
        let mut m = figure6_meta();
        m.num_words = 1 << 32;
        m.num_symbols = 1 << 33;
        m.validate().unwrap();
    }

    #[test]
    fn header_fields_wider_than_their_wire_fields_are_invalid() {
        let mut m = figure6_meta();
        m.quant_bits = 256;
        assert!(m.validate().is_err());
        let m = RecoilMetadata {
            ways: 1 << 16,
            quant_bits: 11,
            num_symbols: 100,
            num_words: 10,
            splits: vec![],
        };
        assert!(m.validate().is_err());
    }
}
