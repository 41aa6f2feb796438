//! Efficient metadata storage (paper §4.3, Tables 1 and 2).
//!
//! The wire format stores only *differences from expectations*:
//!
//! * Header: segment count, stream geometry — stored as-is.
//! * Bitstream offsets: the `i`-th split point is expected at `i * ceil(B/M)`;
//!   the signed differences form one data series.
//! * Max Symbol Group IDs (anchors): expected at `i * ceil(G/M)` where `G`
//!   is the total group count; signed differences form a second series.
//! * Per split: the `W` intermediate states raw ("stored as-is since they
//!   are difficult to be encoded further"), then the per-lane differences
//!   `anchor - group(lane)` — guaranteed non-negative ("we drop the sign
//!   bits"), as one unsigned series per split.
//!
//! Every series is `width-field, then fixed-width values`: the width field
//! stores `max_bits - 1` (zeros still take one bit, paper footnote 1) in
//! 4 bits for the unsigned 16-bit-max series and 5 bits for the signed
//! 32-bit-max series; signed values carry an extra sign bit each.
//!
//! The format (version 2) ends in a little-endian CRC-32 footer over all
//! preceding bytes; the parser verifies it before interpreting anything
//! else, so corrupt frames are rejected as [`RecoilError::Wire`] instead of
//! reconstructing garbage split points. Any other version — the footerless
//! version 1 included — is rejected: a peer cannot choose to skip the check.
//!
//! Cost model: a split's body — its raw states, its difference width and
//! its lane differences below its own anchor — reads the same in every
//! tier that keeps the split; only the header's split count, the two signed
//! series and the bit each body lands on depend on the selection. So
//! [`WireSplits::of`] validates the metadata once and writes every split's
//! body once, into one word vector (states four to a 64-bit field, group
//! differences as many as fit), beside a dense table of four integers per
//! split: offset, anchor, first body word, body bits. [`WireSplits::tier`]
//! is a selection from that table and nothing else: the kept entries'
//! differences and the series widths first, then the header, the two
//! series against the tier's own expectations, a bit-aligned copy of each
//! kept body (a funnel shift per word; no lane is read) and the CRC,
//! written in place into one allocation of the exact length. It returns
//! those bytes — no parsed metadata, no reference count touched.
//! [`metadata_to_bytes`] and [`metadata_wire_len`] are that table built and
//! every split selected — there is one writer. The parser reads straight
//! into the one allocation all the returned splits share, measuring each
//! split as it goes. Neither direction allocates per split or divides per
//! lane: positions and groups are related through [`LaneGroups`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::as_conversions, clippy::disallowed_methods)]

use crate::combine::kept;
use crate::crc::crc32;
use crate::error::RecoilError;
use crate::metadata::{
    bits_for, pack_splits, Expected, Extent, LaneGroups, LaneInit, RecoilMetadata, SplitShape,
    GROUP_DIFF_BITS, SERIES_DIFF_BITS,
};
use recoil_bitio::{BitReader, BitSliceWriter, BitWriter};
use recoil_rans::RansError;
use std::sync::Arc;

const MAGIC: u64 = 0x5243_4C31; // "RCL1"
/// The format: CRC-32 footer after the bit-packed body.
const VERSION: u64 = 2;
/// Magic, version, ways, quantization level, symbols, words, split count.
const HEADER_BITS: u64 = 32 + 8 + 16 + 8 + 64 + 64 + 32;
/// Width-field sizes of the signed (offset, anchor) and unsigned (group
/// difference) series: each stores `width - 1`.
const SIGNED_WIDTH_FIELD: u32 = 5;
const UNSIGNED_WIDTH_FIELD: u32 = 4;
const FOOTER_BYTES: usize = 4;
// The width fields hold exactly the widths `RecoilMetadata::validate` admits.
const _: () = assert!(SERIES_DIFF_BITS == 1 << SIGNED_WIDTH_FIELD);
const _: () = assert!(GROUP_DIFF_BITS == 1 << UNSIGNED_WIDTH_FIELD);

#[cold]
fn unrepresentable(e: RecoilError) -> ! {
    panic!("metadata is not representable in the wire format ({e}); validate() it")
}

/// A tier whose selection puts a kept split too far from its expectation.
#[cold]
fn far_from_expected(split: usize, splits: usize) -> RecoilError {
    RansError::MalformedMetadata(format!(
        "split {split} of a {}-segment tier: offset or anchor group is 2^{SERIES_DIFF_BITS} \
         or more from its expected place, beyond the wire format",
        splits + 1
    ))
    .into()
}

/// One split of a [`WireSplits`]: what a tier reads of it.
#[derive(Debug)]
struct StoredSplit {
    /// Its word offset in the stream.
    offset: u64,
    /// Its symbol group ("Max Symbol Group ID").
    anchor: u64,
    /// Its body's first word in [`WireSplits`]' word vector.
    word: usize,
    /// Its body's length in bits; the rest of its last word is padding.
    bits: u64,
}

/// A metadata's §4.3 wire form with the selection factored out: every
/// split's body written once, so that serving a decoder of any width is a
/// selection of stored bits — §3.3's "combined simply by eliminating extra
/// metadata entries", down to the bytes.
///
/// Build one per stored item ([`WireSplits::of`]) and ask it for tiers
/// ([`WireSplits::tier`]). It holds a dense table of four integers per
/// split — no handle on the metadata it was built from — and one word
/// vector about as long as the full-width tier's bytes.
#[derive(Debug)]
pub struct WireSplits {
    ways: u32,
    quant_bits: u32,
    num_symbols: u64,
    num_words: u64,
    splits: Vec<StoredSplit>,
    /// Every split's body, LSB-first, each starting a word of its own.
    words: Vec<u64>,
}

impl WireSplits {
    /// Validates `meta` in full ([`RecoilMetadata::validate`]; a failure is
    /// [`RecoilError::Decode`]) and writes every split's body: its raw
    /// states, then its per-lane group differences below its anchor behind
    /// their width field.
    pub fn of(meta: &RecoilMetadata) -> Result<Self, RecoilError> {
        meta.validate()?;
        let groups = LaneGroups::new(meta.ways);
        let mut w = BitWriter::new();
        let splits = meta
            .splits
            .iter()
            .enumerate()
            .map(|(i, split)| {
                let shape = groups.shape(&split.lanes).ok_or_else(|| {
                    RansError::MalformedMetadata(format!("split {i}: lanes beyond the wire format"))
                })?;
                let (word, first_bit) = (w.word_len(), w.bit_len());
                write_body(&mut w, groups, &split.lanes, shape);
                let bits = w.bit_len() - first_bit;
                w.align_to_word();
                Ok(StoredSplit {
                    offset: split.offset,
                    anchor: shape.anchor,
                    word,
                    bits,
                })
            })
            .collect::<Result<Vec<_>, RecoilError>>()?;
        Ok(Self {
            ways: meta.ways,
            quant_bits: meta.quant_bits,
            num_symbols: meta.num_symbols,
            num_words: meta.num_words,
            splits,
            words: w.into_words(),
        })
    }

    /// The tier for a decoder of `segments` parallel segments: the bytes
    /// [`metadata_to_bytes`] writes for [`crate::try_combine_splits`]`(..,
    /// segments)`. A caller that wants the parsed tier parses the bytes, as a remote
    /// decoder does.
    ///
    /// Validation is moved, not dropped: the splits were validated when the
    /// table was built, and any subset of them is still ascending and
    /// non-crossing. What a selection changes is where each kept split is
    /// expected, so that is what is checked — each offset and anchor
    /// difference must fit the format's 32 bits, else
    /// [`RecoilError::Decode`]. Debug builds parse the bytes back, which
    /// validates the whole tier again. `segments == 0` is
    /// [`RecoilError::InvalidConfig`].
    pub fn tier(&self, segments: u64) -> Result<Vec<u8>, RecoilError> {
        let tier = self.write(segments)?;
        debug_assert!(metadata_from_bytes(&tier).is_ok());
        Ok(tier)
    }

    /// Writes the tier of `segments`, in one pass into one allocation of
    /// the exact length: first the kept splits, their two differences and
    /// the two series' widths, then the header, the offset and anchor
    /// series against this tier's expectations, each kept body, and the
    /// CRC-32.
    fn write(&self, segments: u64) -> Result<Vec<u8>, RecoilError> {
        let kept = kept(&self.splits, segments)?;
        let count = kept.len();
        let count_field =
            u32::try_from(count).map_err(|_| RecoilError::wire("more than 2^32 splits"))?;
        let expected = Expected::new(self.ways, self.num_symbols, self.num_words, count);
        let (mut offset_mags, mut anchor_mags, mut bodies) = (0u64, 0u64, 0u64);
        #[expect(
            clippy::disallowed_methods,
            reason = "one entry per kept split of the stored table"
        )]
        let mut entries = Vec::with_capacity(count);
        for (i, s) in kept.enumerate() {
            let (offset_diff, anchor_diff) = expected
                .diffs(i, s.offset, s.anchor)
                .ok_or_else(|| far_from_expected(i, count))?;
            offset_mags |= offset_diff.unsigned_abs();
            anchor_mags |= anchor_diff.unsigned_abs();
            bodies += s.bits;
            entries.push((s, offset_diff, anchor_diff));
        }
        let (offset_bits, anchor_bits) = (bits_for(offset_mags), bits_for(anchor_mags));
        let mut body_bits = HEADER_BITS + bodies;
        if count > 0 {
            // Two signed series: width field, then magnitude + sign each.
            body_bits += 2 * u64::from(SIGNED_WIDTH_FIELD)
                + u64::from(count_field) * u64::from(offset_bits + anchor_bits + 2);
        }
        let body_len = usize::try_from(body_bits.div_ceil(8)).unwrap_or(usize::MAX);
        let mut bytes = vec![0u8; body_len.saturating_add(FOOTER_BYTES)];
        let (body, tail) = bytes.split_at_mut(body_len);
        let mut w = BitSliceWriter::new(body);
        w.write(MAGIC, 32);
        w.write(VERSION, 8);
        w.write(u64::from(self.ways), 16);
        w.write(u64::from(self.quant_bits), 8);
        w.write(self.num_symbols, 64);
        w.write(self.num_words, 64);
        w.write(u64::from(count_field), 32);
        if count > 0 {
            write_signed_series(&mut w, entries.iter().map(|e| e.1), offset_bits);
            write_signed_series(&mut w, entries.iter().map(|e| e.2), anchor_bits);
            for (s, ..) in &entries {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "a word `of` recorded in its own vector"
                )]
                w.append(&self.words[s.word..], s.bits);
            }
        }
        debug_assert_eq!(w.bit_len(), body_bits);
        let written = w.finish();
        debug_assert_eq!(written, body_len);
        tail.copy_from_slice(&crc32(body).to_le_bytes());
        Ok(bytes)
    }
}

/// Exact length of [`metadata_to_bytes`]`(meta)`, which it writes.
///
/// # Panics
///
/// If `meta` fails [`RecoilMetadata::validate`].
pub fn metadata_wire_len(meta: &RecoilMetadata) -> usize {
    metadata_to_bytes(meta).len()
}

/// Writes a signed series: `width-1` in 5 bits, then `magnitude, sign` per
/// value (one `width + 1`-bit field: the sign lands above the magnitude).
fn write_signed_series(w: &mut BitSliceWriter<'_>, vals: impl Iterator<Item = i64>, width: u32) {
    w.write(u64::from(width - 1), SIGNED_WIDTH_FIELD);
    for v in vals {
        w.write(v.unsigned_abs() | u64::from(v < 0) << width, width + 1);
    }
}

#[expect(
    clippy::as_conversions,
    reason = "a `field_bits`-wide read (at most 5 bits) always fits u32"
)]
fn read_width(r: &mut BitReader<'_>, field_bits: u32) -> Result<u32, RecoilError> {
    let field = r
        .read(field_bits)
        .ok_or_else(|| RecoilError::wire("truncated series header"))?;
    Ok(field as u32 + 1)
}

fn read_signed_series(r: &mut BitReader<'_>, count: usize) -> Result<Vec<i64>, RecoilError> {
    let width = read_width(r, SIGNED_WIDTH_FIELD)?;
    (0..count)
        .map(|_| {
            let field = r
                .read(width + 1)
                .ok_or_else(|| RecoilError::wire("truncated series"))?;
            let mag = i64::try_from(field & ((1u64 << width) - 1))
                .map_err(|_| RecoilError::wire("series value exceeds 63 bits"))?;
            Ok(if field >> width == 1 { -mag } else { mag })
        })
        .collect()
}

/// Writes a split's raw states, four to a 64-bit field.
fn write_states(w: &mut BitWriter, lanes: &[LaneInit]) {
    for chunk in lanes.chunks(4) {
        if let [a, b, c, d] = chunk {
            let packed = u64::from(a.state)
                | u64::from(b.state) << 16
                | u64::from(c.state) << 32
                | u64::from(d.state) << 48;
            w.write(packed, 64);
        } else {
            for li in chunk {
                w.write(u64::from(li.state), 16);
            }
        }
    }
}

/// The four 16-bit states packed LSB-first in `field`.
fn unpack_states(field: u64) -> [u16; 4] {
    let [a0, a1, b0, b1, c0, c1, d0, d1] = field.to_le_bytes();
    [[a0, a1], [b0, b1], [c0, c1], [d0, d1]].map(u16::from_le_bytes)
}

/// Reads one split's raw states into `lanes` (one entry per lane).
fn read_states(r: &mut BitReader<'_>, lanes: &mut [LaneInit]) -> Result<(), RecoilError> {
    let truncated = || RecoilError::wire("truncated states");
    let mut quads = lanes.chunks_exact_mut(4);
    for quad in &mut quads {
        let field = r.read(64).ok_or_else(truncated)?;
        for (li, state) in quad.iter_mut().zip(unpack_states(field)) {
            li.state = state;
        }
    }
    for li in quads.into_remainder() {
        [li.state, ..] = unpack_states(r.read(16).ok_or_else(truncated)?);
    }
    Ok(())
}

/// Reads one split's group-difference series and reconstructs each lane's
/// position below `anchor` into `lanes` (all of the split's, at least one,
/// in lane order);
/// returns the positions' extent, measured as they are produced.
///
/// The anchor group's last slot must fit in 64 bits; every lane then sits a
/// whole number of groups below its own slot there — a position it owns by
/// construction — so the per-lane arithmetic needs no checks of its own
/// beyond the one on the widest difference after the loop: a difference
/// within the anchor cannot wrap.
fn read_positions(
    r: &mut BitReader<'_>,
    lanes: &mut [LaneInit],
    anchor: u64,
) -> Result<Extent, RecoilError> {
    let bad = |msg: &str| RecoilError::wire(msg);
    let ways = u64::try_from(lanes.len()).map_err(|_| bad("lane count exceeds 64 bits"))?;
    let width = read_width(r, UNSIGNED_WIDTH_FIELD)?;
    let start = anchor
        .checked_mul(ways)
        .filter(|start| start.checked_add(ways - 1).is_some())
        .ok_or_else(|| bad("lane position exceeds 64 bits"))?;
    // As many differences to a read as its fast path takes (at most 57
    // bits, so the count conversions cannot fail).
    let per_read = usize::try_from(57 / width).unwrap_or(1);
    let mask = (1u64 << width) - 1;
    let mut widest = 0u64;
    let mut extent = Extent::EMPTY;
    // The position lane `l` would record in the anchor group.
    let mut slot = start;
    for chunk in lanes.chunks_mut(per_read) {
        let count = u32::try_from(chunk.len()).unwrap_or(1);
        let mut packed = r
            .read(count * width)
            .ok_or_else(|| bad("truncated series"))?;
        for li in chunk {
            let diff = packed & mask;
            packed >>= width;
            widest = widest.max(diff);
            li.pos = slot.wrapping_sub(diff * ways);
            slot = slot.wrapping_add(1);
            extent.include(li.pos);
        }
    }
    if widest > anchor {
        return Err(bad("group difference exceeds anchor"));
    }
    Ok(extent)
}

/// Writes one split's body: its raw states, then the per-lane group
/// differences below `shape.anchor` behind their width field, as many to a
/// write as fit in 64 bits.
fn write_body(w: &mut BitWriter, groups: LaneGroups, lanes: &[LaneInit], shape: SplitShape) {
    write_states(w, lanes);
    let width = shape.diff_bits;
    w.write(u64::from(width - 1), UNSIGNED_WIDTH_FIELD);
    let start = groups.group_start(shape.anchor);
    // (At most 64 values to a write, so the count conversions cannot fail.)
    let per_write = usize::try_from(64 / width).unwrap_or(1);
    let mut lane = 0u64;
    for chunk in lanes.chunks(per_write) {
        // Each difference enters at the top and shifts down as the next
        // arrives, so the first ends up lowest. (Accumulating by a growing
        // shift instead gets auto-vectorized two wide, which is slower than
        // this scalar chain.)
        let mut packed = 0u64;
        for li in chunk {
            packed = packed >> width | groups.diff_below(start, lane, li.pos) << (64 - width);
            lane += 1;
        }
        let bits = width * u32::try_from(chunk.len()).unwrap_or(1);
        w.write(packed >> (64 - bits), bits);
    }
}

/// Serializes metadata to its compact byte form (current version, with the
/// CRC-32 integrity footer): [`WireSplits::of`] with every split selected.
///
/// # Panics
///
/// If `meta` fails [`RecoilMetadata::validate`].
pub fn metadata_to_bytes(meta: &RecoilMetadata) -> Vec<u8> {
    WireSplits::of(meta)
        .and_then(|wire| wire.write(u64::MAX))
        .unwrap_or_else(|e| unrepresentable(e))
}

/// Parses metadata back from its byte form. Only the current version is
/// read; its CRC-32 footer is checked before anything else.
pub fn metadata_from_bytes(bytes: &[u8]) -> Result<RecoilMetadata, RecoilError> {
    let bad = |msg: &str| RecoilError::wire(msg);
    let mut peek = BitReader::new(bytes);
    if peek.read(32) != Some(MAGIC) {
        return Err(bad("bad magic"));
    }
    match peek.read(8) {
        Some(VERSION) => {}
        Some(_) => return Err(bad("unsupported version")),
        None => return Err(bad("truncated header")),
    }
    // Verify the integrity footer before interpreting anything: a corrupt
    // frame must never reconstruct garbage split points.
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_BYTES);
    let footer: [u8; FOOTER_BYTES] = footer.try_into().map_err(|_| bad("truncated footer"))?;
    if crc32(body) != u32::from_le_bytes(footer) {
        return Err(bad("metadata checksum mismatch"));
    }
    let mut r = BitReader::new(body);
    r.read(32).ok_or_else(|| bad("truncated header"))?;
    r.read(8).ok_or_else(|| bad("truncated header"))?;
    #[expect(clippy::as_conversions, reason = "a 16-bit read always fits u32")]
    let ways = r.read(16).ok_or_else(|| bad("truncated header"))? as u32;
    #[expect(clippy::as_conversions, reason = "an 8-bit read always fits u32")]
    let quant_bits = r.read(8).ok_or_else(|| bad("truncated header"))? as u32;
    let num_symbols = r.read(64).ok_or_else(|| bad("truncated header"))?;
    let num_words = r.read(64).ok_or_else(|| bad("truncated header"))?;
    let k_field = r.read(32).ok_or_else(|| bad("truncated header"))?;
    let k = usize::try_from(k_field).map_err(|_| bad("split count exceeds the address space"))?;
    if ways == 0 {
        return Err(bad("zero ways"));
    }
    if k_field > num_symbols {
        return Err(bad("more splits than symbols"));
    }
    // Every split stores 16 bits of raw state per lane, so a body of
    // `body.len()` bytes cannot hold more than `body.len() / 2` lanes in
    // all. A hostile header claiming billions of splits is rejected here
    // instead of sizing an allocation from an attacker-chosen count — and
    // what is allocated below (16 bytes a lane) stays within 8x the input.
    let ways_n = usize::try_from(ways).map_err(|_| bad("lane count exceeds the address space"))?;
    let total_lanes = k
        .checked_mul(ways_n)
        .filter(|&lanes| lanes <= body.len() / 2)
        .ok_or_else(|| bad("split count exceeds the input size"))?;

    let mut splits = Vec::new();
    if k > 0 {
        let expected = Expected::new(ways, num_symbols, num_words, k);
        let off_diffs = read_signed_series(&mut r, k)?;
        let anchor_diffs = read_signed_series(&mut r, k)?;
        // Every split's lanes, back to back, read straight into the one
        // allocation the parsed splits will share.
        let blank = LaneInit { state: 0, pos: 0 };
        let mut all: Arc<[LaneInit]> = std::iter::repeat_n(blank, total_lanes).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "`k` is bounded by the physical input length above"
        )]
        let mut measured = Vec::with_capacity(k);
        let series = off_diffs.iter().zip(&anchor_diffs).enumerate();
        // (`make_mut` on the sole owner hands out the slice; nothing is cloned.)
        for ((i, (&off_diff, &anchor_diff)), lanes) in
            series.zip(Arc::make_mut(&mut all).chunks_exact_mut(ways_n))
        {
            let (offset, anchor) = expected
                .at(i)
                .and_then(|(offset, anchor)| {
                    Some((
                        offset.checked_add_signed(off_diff)?,
                        anchor.checked_add_signed(anchor_diff)?,
                    ))
                })
                .ok_or_else(|| bad("negative reconstructed offset or anchor"))?;
            read_states(&mut r, lanes)?;
            let extent = read_positions(&mut r, lanes, anchor)?;
            measured.push((offset, extent));
        }
        splits = pack_splits(all, ways_n, measured.into_iter());
    }

    let meta = RecoilMetadata {
        ways,
        quant_bits,
        num_symbols,
        num_words,
        splits,
    };
    meta.validate()
        .map_err(|e| RecoilError::wire(format!("parsed metadata is inconsistent: {e}")))?;
    Ok(meta)
}

#[cfg(test)]
#[allow(clippy::as_conversions, reason = "test inputs are built in-process")]
mod tests {
    use super::*;
    use crate::metadata::tests::spanning_meta;
    use crate::metadata::SplitPoint;

    fn meta_with(splits: Vec<SplitPoint>, ways: u32, n: u64, b: u64) -> RecoilMetadata {
        RecoilMetadata {
            ways,
            quant_bits: 11,
            num_symbols: n,
            num_words: b,
            splits,
        }
    }

    /// Figure 6 / Table 2 in 0-based coordinates (W = 4): positions
    /// 8, 13, 10, 15 → groups 2, 3, 2, 3, anchor 3, differences 1,0,1,0.
    fn figure6_meta() -> RecoilMetadata {
        let split = SplitPoint {
            offset: 6,
            lanes: vec![
                LaneInit {
                    state: 0x0A01,
                    pos: 8,
                },
                LaneInit {
                    state: 0x0B02,
                    pos: 13,
                },
                LaneInit {
                    state: 0x0C03,
                    pos: 10,
                },
                LaneInit {
                    state: 0x0D04,
                    pos: 15,
                },
            ]
            .into(),
        };
        meta_with(vec![split], 4, 20, 9)
    }

    #[test]
    fn round_trip_figure6() {
        let meta = figure6_meta();
        let bytes = metadata_to_bytes(&meta);
        let back = metadata_from_bytes(&bytes).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn paper_worked_example_group_difference_series() {
        // Table 2's "Differences" row is -1, 0, -1, 0 stored sign-dropped in
        // 1-bit values after a 4-bit zero width field: 0000 | 1 0 1 0.
        let bytes = metadata_to_bytes(&figure6_meta());
        let mut r = BitReader::new(&bytes);
        for field in [32, 8, 16, 8, 64, 64, 32] {
            r.read(field).unwrap();
        }
        for _ in 0..2 {
            let width = read_width(&mut r, SIGNED_WIDTH_FIELD).unwrap();
            r.read(width + 1).unwrap(); // the one split's magnitude and sign
        }
        assert_eq!(r.read(64), Some(0x0D04_0C03_0B02_0A01)); // raw states
        assert_eq!(r.read(4), Some(0)); // width - 1 = 0 → 1-bit values
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(1), Some(0));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(1), Some(0));
        assert_eq!(r.bit_pos().div_ceil(8) as usize + FOOTER_BYTES, bytes.len());
    }

    #[test]
    fn empty_split_list_round_trips() {
        let meta = meta_with(vec![], 32, 1000, 400);
        let bytes = metadata_to_bytes(&meta);
        assert_eq!(
            bytes.len(),
            32,
            "header-only metadata is the 224-bit header plus the CRC footer"
        );
        assert_eq!(metadata_from_bytes(&bytes).unwrap(), meta);
    }

    #[test]
    fn multi_split_round_trip() {
        // Two well-separated splits over a 4-way stream.
        let s1 = SplitPoint {
            offset: 40,
            lanes: (0..4)
                .map(|l| LaneInit {
                    state: 100 + l as u16,
                    pos: 96 + l as u64,
                })
                .collect(),
        };
        let s2 = SplitPoint {
            offset: 81,
            lanes: (0..4)
                .map(|l| LaneInit {
                    state: 200 + l as u16,
                    pos: 196 + l as u64,
                })
                .collect(),
        };
        let meta = meta_with(vec![s1, s2], 4, 300, 130);
        let bytes = metadata_to_bytes(&meta);
        assert_eq!(metadata_from_bytes(&bytes).unwrap(), meta);
    }

    #[test]
    fn per_split_cost_matches_paper_estimate() {
        // §5.2: Recoil Large ≈ 76 bytes per split at W = 32 — the 64 raw
        // state bytes dominate; diffs/offsets add a dozen more bits each.
        let ways = 32u32;
        let splits: Vec<SplitPoint> = (0..100u64)
            .map(|i| SplitPoint {
                offset: (i + 1) * 1000 + (i % 7),
                lanes: (0..32)
                    .map(|l| LaneInit {
                        state: (l * 17) as u16,
                        pos: (i + 1) * 3200 + 32 * (l as u64 % 3) + l as u64,
                    })
                    .collect(),
            })
            .collect();
        let meta = meta_with(splits, ways, 400_000, 120_000);
        let bytes = metadata_to_bytes(&meta);
        let per_split = (bytes.len() as f64 - 32.0) / 100.0;
        assert!(
            (64.0..90.0).contains(&per_split),
            "per-split metadata cost {per_split} bytes out of expected range"
        );
    }

    #[test]
    fn truncated_bytes_error_cleanly() {
        let meta = figure6_meta();
        let bytes = metadata_to_bytes(&meta);
        for cut in 0..bytes.len() {
            assert!(
                metadata_from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let meta = figure6_meta();
        let mut bytes = metadata_to_bytes(&meta);
        bytes[0] ^= 0xFF;
        assert!(metadata_from_bytes(&bytes).is_err());
    }

    #[test]
    fn version1_bytes_are_rejected() {
        // A v1 header skipped the CRC; a peer that tags its bytes v1 must
        // not get them read unchecked. Both the footerless v1 layout and
        // the current bytes retagged as v1 are refused.
        let meta = figure6_meta();
        let mut v1 = metadata_to_bytes(&meta);
        v1[4] = 1;
        let footerless = &v1[..v1.len() - 4];
        for bytes in [&v1[..], footerless] {
            let err = metadata_from_bytes(bytes).expect_err("v1 bytes accepted");
            assert!(matches!(err, RecoilError::Wire { .. }), "{err:?}");
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn corrupt_body_is_caught_by_checksum() {
        let meta = figure6_meta();
        let bytes = metadata_to_bytes(&meta);
        // Flip one bit in every body byte after the version field: the CRC
        // footer must reject each one before structural interpretation.
        for at in 5..bytes.len() - 4 {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x10;
            let err = metadata_from_bytes(&corrupt).expect_err("corruption undetected");
            assert!(err.to_string().contains("checksum"), "byte {at}: {err}");
        }
    }

    #[test]
    fn hostile_split_count_rejected_before_allocation() {
        // A header claiming u32::MAX splits (with num_symbols large enough
        // to pass the splits-vs-symbols check) must fail on the physical
        // input-size bound, not size a multi-gigabyte Vec from the claim.
        let mut w = BitWriter::new();
        w.write(MAGIC, 32);
        w.write(VERSION, 8);
        w.write(4, 16); // ways
        w.write(11, 8); // quant_bits
        w.write(u64::MAX / 2, 64); // num_symbols
        w.write(1_000_000, 64); // num_words
        w.write(u64::from(u32::MAX), 32); // split count
        let mut bytes = w.into_bytes();
        let footer = crc32(&bytes);
        bytes.extend_from_slice(&footer.to_le_bytes());
        let err = metadata_from_bytes(&bytes).expect_err("hostile split count accepted");
        assert!(err.to_string().contains("split count"), "{err}");
    }

    #[test]
    fn bits_for_zero_is_one() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(u16::MAX as u64), 16);
    }

    #[test]
    fn reconstructed_positions_are_measured_as_they_are_built() {
        // The parser vouches to `pack_splits` for each split's extent — its
        // lanes owned by construction — and only debug builds re-measure
        // there. Pin the claim in every profile, on bodies no serializer
        // writes: differences above the anchor, anchors around the largest
        // whose group fits 64 bits, lane counts that are not powers of two.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut accepted, mut refused) = (0, 0);
        for ways in [1u64, 3, 4, 5, 32, 33, 1000] {
            let top = u64::MAX / ways;
            for anchor in [
                0,
                1,
                7,
                1 << 16,
                top - 1,
                top,
                top.saturating_add(1),
                u64::MAX,
            ] {
                for width in 1..=GROUP_DIFF_BITS {
                    for case in 0..6 {
                        let diffs: Vec<u64> = (0..ways)
                            .map(|_| match case {
                                0 => 0,
                                1 => (1 << width) - 1,
                                2 => next() % 2,
                                _ => next() % (1 << width),
                            })
                            .collect();
                        let mut w = BitWriter::new();
                        w.write(u64::from(width - 1), UNSIGNED_WIDTH_FIELD);
                        for &diff in &diffs {
                            w.write(diff, width);
                        }
                        let body = w.into_bytes();
                        let mut lanes = vec![LaneInit { state: 0, pos: 0 }; diffs.len()];
                        let fits = anchor
                            .checked_mul(ways)
                            .is_some_and(|start| start.checked_add(ways - 1).is_some());
                        let within = diffs.iter().all(|&diff| diff <= anchor);
                        match read_positions(&mut BitReader::new(&body), &mut lanes, anchor) {
                            Ok(extent) => {
                                assert!(fits && within, "ways {ways} anchor {anchor}: accepted");
                                assert_eq!(extent, Extent::of(&lanes));
                                assert!(extent.owned);
                                for ((lane, li), diff) in (0u64..).zip(&lanes).zip(&diffs) {
                                    assert_eq!(li.pos, (anchor - diff) * ways + lane);
                                }
                                accepted += 1;
                            }
                            Err(err) => {
                                assert!(!(fits && within), "ways {ways} anchor {anchor}: {err}");
                                refused += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(accepted > 1000 && refused > 1000, "{accepted} / {refused}");
    }

    #[test]
    fn widest_representable_split_round_trips() {
        let meta = spanning_meta((1 << GROUP_DIFF_BITS) - 1);
        let bytes = metadata_to_bytes(&meta);
        assert_eq!(bytes.len(), metadata_wire_len(&meta));
        assert_eq!(metadata_from_bytes(&bytes).unwrap(), meta);
    }

    #[test]
    fn a_tier_too_far_from_its_expectations_is_an_error() {
        // Two one-lane splits exactly where a 3-segment stream expects
        // them (words and groups 2^34 and 2^35 of 3·2^34). Keeping only the
        // first for 2 segments puts it 2^33 from its new expectation, past
        // the series' 32 bits: the table, which validated the full list,
        // refuses that tier with an error, as the combine's validation does.
        let at = |i: u64| SplitPoint {
            offset: i << 34,
            lanes: vec![LaneInit {
                state: 7,
                pos: i << 34,
            }]
            .into(),
        };
        let meta = meta_with(vec![at(1), at(2)], 1, 3 << 34, 3 << 34);
        let wire = WireSplits::of(&meta).unwrap();
        let err = wire.tier(2).expect_err("a 2^33 difference was written");
        assert!(matches!(err, RecoilError::Decode(_)), "{err}");
        assert!(err.to_string().contains("beyond the wire format"), "{err}");
        assert!(crate::try_combine_splits(&meta, 2).is_err());
        for segments in [1, 3, 4] {
            let tier = crate::try_combine_splits(&meta, segments).unwrap();
            assert_eq!(wire.tier(segments).unwrap(), metadata_to_bytes(&tier));
        }
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn unrepresentable_split_is_refused_not_mis_serialized() {
        // At 2^16 groups the difference width no longer fits its 4-bit
        // field. This used to serialize (in release) with the width masked
        // to 1, a correct CRC over the wrong bytes, and parse back to
        // different positions.
        let meta = spanning_meta(1 << GROUP_DIFF_BITS);
        assert!(matches!(WireSplits::of(&meta), Err(RecoilError::Decode(_))));
        let _ = metadata_to_bytes(&meta);
    }
}
