//! Decoder-adaptive split combining (paper §3.3, §4.2).
//!
//! "Combining splits is trivial, since it only requires removing the
//! metadata in a way that combines the splits into bigger ones with close
//! symbol counts." The bitstream is untouched; the server runs this in real
//! time per client request. With `K + 1` original segments and `M` requested,
//! we keep the split point nearest each fraction `i/M` of the original
//! segmentation — the paper's "every other ceil(N/M)" selection, robust to
//! non-divisible counts.
//!
//! Cost model: a combine is a *selection*. Split points share their lane
//! arrays by reference count and carry what those arrays were measured for
//! when built, so the result costs one `Vec` of `M - 1` split handles and
//! `M - 1` refcount bumps, and validating it compares the kept splits'
//! recorded facts — no lane of the stored metadata is copied or read. The
//! server builds no metadata at all: it writes a tier's bytes from a
//! [`crate::WireSplits`], a dense table of the splits validated once when
//! it was built, and checks only the two series the selection changes.
//! [`kept`] is the one selection rule both paths use, and walks it without
//! a division per kept split.

use crate::error::RecoilError;
use crate::metadata::RecoilMetadata;

/// The entries of `splits` a combine down to `segments` keeps, in order:
/// all of them when `segments` exceeds their count `K`, else, for each
/// `i` in `1..segments`, the cut nearest the `i/segments` fraction of the
/// original `K + 1` segments — the one after original segment
/// `⌊i (K + 1) / segments⌋`. (With `segments <= K` those quotients lie in
/// `1..=K` and grow by at least `⌊(K + 1) / segments⌋ >= 1` per step, so
/// no cut is picked twice.)
///
/// Both cases are `⌊i (K + 1) / d⌋` with `d = min(segments, K + 1)`, and
/// the iterator walks it as a running quotient and remainder: one division
/// per selection, none per kept split.
///
/// `segments == 0` is reported as [`RecoilError::InvalidConfig`].
pub(crate) fn kept<T>(
    splits: &[T],
    segments: u64,
) -> Result<impl ExactSizeIterator<Item = &T> + Clone, RecoilError> {
    if segments == 0 {
        return Err(RecoilError::config(
            "segments",
            "cannot combine splits down to zero segments",
        ));
    }
    let whole = splits.len() as u64 + 1;
    let d = segments.min(whole);
    let (step, carry) = (whole / d, whole % d);
    let (mut cut, mut rem) = (0u64, 0u64);
    // (`d - 1 <= K`, so the count fits `usize`.)
    Ok((0..(d - 1) as usize).map(move |_| {
        cut += step;
        rem += carry;
        if rem >= d {
            cut += 1;
            rem -= d;
        }
        &splits[(cut - 1) as usize]
    }))
}

/// Returns metadata scaled down to at most `segments` parallel segments,
/// rejecting malformed requests instead of panicking — the one combine.
///
/// Dropping entries only merges neighbouring segments, so all decoder
/// invariants are preserved; requesting more segments than available returns
/// the metadata unchanged. Every kept [`crate::SplitPoint`] shares its lane
/// array with `meta`'s.
///
/// * `segments == 0` is reported as [`RecoilError::InvalidConfig`];
/// * the combined metadata is re-validated **in every build profile**, so
///   corrupt input metadata surfaces as [`RecoilError::Decode`] rather than
///   as undefined decoder behaviour downstream.
pub fn try_combine_splits(
    meta: &RecoilMetadata,
    segments: u64,
) -> Result<RecoilMetadata, RecoilError> {
    let combined = RecoilMetadata {
        ways: meta.ways,
        quant_bits: meta.quant_bits,
        num_symbols: meta.num_symbols,
        num_words: meta.num_words,
        splits: kept(&meta.splits, segments)?.cloned().collect(),
    };
    combined.validate()?;
    Ok(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{LaneInit, SplitPoint};

    fn synthetic_meta(interior: u64, ways: u32) -> RecoilMetadata {
        // Evenly spaced valid splits: split i at position (i+1)*G*W - 1 .. etc.
        let group_span = 100u64;
        let splits = (0..interior)
            .map(|i| {
                let base_group = (i + 1) * group_span;
                SplitPoint {
                    offset: (i + 1) * 500,
                    lanes: (0..ways as u64)
                        .map(|l| LaneInit {
                            state: (i * 31 + l) as u16,
                            pos: (base_group - (l % 2)) * ways as u64 + l,
                        })
                        .collect(),
                }
            })
            .collect();
        let meta = RecoilMetadata {
            ways,
            quant_bits: 11,
            num_symbols: (interior + 2) * group_span * ways as u64,
            num_words: (interior + 2) * 500,
            splits,
        };
        meta.validate().unwrap();
        meta
    }

    #[test]
    fn combine_to_fewer_segments_picks_even_subset() {
        let meta = synthetic_meta(135, 32); // 136 segments, like 2176/16
        let small = try_combine_splits(&meta, 16).unwrap();
        assert_eq!(small.num_segments(), 16);
        small.validate().unwrap();
        // Kept points must be original points, order preserved.
        let mut iter = meta.splits.iter();
        for s in &small.splits {
            assert!(iter.any(|orig| orig == s), "combined split not a subset");
        }
    }

    #[test]
    fn combine_is_subset_selection_only() {
        let meta = synthetic_meta(63, 8);
        let small = try_combine_splits(&meta, 4).unwrap();
        for s in &small.splits {
            assert!(meta.splits.contains(s));
        }
        assert_eq!(small.num_symbols, meta.num_symbols);
        assert_eq!(small.num_words, meta.num_words);
        assert_eq!(small.ways, meta.ways);
    }

    #[test]
    fn requesting_more_segments_is_identity() {
        let meta = synthetic_meta(7, 4);
        let same = try_combine_splits(&meta, 100).unwrap();
        assert_eq!(same, meta);
    }

    #[test]
    fn combine_to_one_drops_everything() {
        let meta = synthetic_meta(31, 4);
        let one = try_combine_splits(&meta, 1).unwrap();
        assert!(one.splits.is_empty());
        assert_eq!(one.num_segments(), 1);
    }

    #[test]
    fn combine_is_idempotent_per_target() {
        let meta = synthetic_meta(99, 8);
        let a = try_combine_splits(&meta, 10).unwrap();
        let b = try_combine_splits(&a, 10).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nested_combine_matches_direct_when_divisible() {
        // 64 segments → 16 → 4 must equal 64 → 4 when counts divide evenly.
        let meta = synthetic_meta(63, 8);
        let via16 = try_combine_splits(&try_combine_splits(&meta, 16).unwrap(), 4).unwrap();
        let direct = try_combine_splits(&meta, 4).unwrap();
        assert_eq!(via16, direct);
    }

    #[test]
    fn zero_segments_is_config_error_not_panic() {
        let meta = synthetic_meta(7, 4);
        assert!(matches!(
            try_combine_splits(&meta, 0),
            Err(RecoilError::InvalidConfig {
                field: "segments",
                ..
            })
        ));
    }

    #[test]
    fn one_segment_and_overshoot_succeed_fallibly() {
        let meta = synthetic_meta(31, 4);
        let one = try_combine_splits(&meta, 1).unwrap();
        assert_eq!(one.num_segments(), 1);
        assert!(one.splits.is_empty());
        // More segments than available: identity, not an error.
        let same = try_combine_splits(&meta, 10_000).unwrap();
        assert_eq!(same, meta);
    }

    #[test]
    fn corrupt_metadata_is_decode_error_in_release_too() {
        // The combine rejects corrupt input in every build profile.
        let mut meta = synthetic_meta(15, 4);
        // Lane 0 of split 3 records a position lane 1 owns, far too early.
        let mut lanes = meta.splits[3].lanes.to_vec();
        lanes[0].pos = 1;
        meta.splits[3].lanes = lanes.into();
        assert!(matches!(
            try_combine_splits(&meta, 8),
            Err(RecoilError::Decode(_))
        ));
        // Identity requests validate too.
        assert!(matches!(
            try_combine_splits(&meta, 10_000),
            Err(RecoilError::Decode(_))
        ));
        // The server's path validates once, when the item's wire table is
        // built, and refuses the same metadata there.
        assert!(matches!(
            crate::WireSplits::of(&meta),
            Err(RecoilError::Decode(_))
        ));
    }

    #[test]
    fn kept_cuts_ascend_strictly_at_every_width() {
        // No cut falls outside 1..=K or repeats, so the selection is exactly
        // `min(segments, K + 1) - 1` distinct, ascending cuts.
        for k in 0..300usize {
            let splits: Vec<usize> = (0..k).collect();
            for segments in 1..=k as u64 + 3 {
                let cuts: Vec<usize> = kept(&splits, segments).unwrap().copied().collect();
                assert_eq!(cuts.len() as u64, segments.min(k as u64 + 1) - 1);
                assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{k} / {segments}");
            }
        }
    }

    #[test]
    fn kept_walks_the_closed_form_selection() {
        // The running quotient and remainder pick exactly the cuts the
        // closed form names: `i` when every split is kept, else
        // `⌊i (K + 1) / segments⌋`.
        for k in 0..=600u64 {
            let splits: Vec<u64> = (1..=k).collect();
            for segments in 1..=k + 2 {
                let walked = kept(&splits, segments).unwrap();
                let count = segments.min(k + 1) - 1;
                assert_eq!(walked.len() as u64, count, "{k} / {segments}");
                let closed = (1..=count).map(|i| {
                    if segments > k {
                        i
                    } else {
                        i * (k + 1) / segments
                    }
                });
                assert!(walked.copied().eq(closed), "{k} / {segments}");
            }
        }
    }

    #[test]
    fn non_divisible_targets_stay_close_to_even() {
        let meta = synthetic_meta(99, 8); // 100 segments → 7
        let c = try_combine_splits(&meta, 7).unwrap();
        assert_eq!(c.num_segments(), 7);
        let bounds = c.segment_bounds();
        let spans: Vec<u64> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        let avg = meta.num_symbols / 7;
        for s in spans {
            assert!(s as f64 > avg as f64 * 0.5 && (s as f64) < avg as f64 * 1.6);
        }
    }
}
