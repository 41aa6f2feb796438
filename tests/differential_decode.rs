//! Cross-backend differential decode harness.
//!
//! Drives every available [`DecodeBackend`] selection (scalar, scalar on a
//! pool, auto, plus the fixed AVX2/AVX-512 kernels on hosts that have them,
//! with and without a pool) and both the
//! buffered and streaming decode paths over one seeded corpus — varied
//! alphabet sizes, segment counts including 1 and clamp-edge values, empty
//! and one-symbol inputs — asserting **byte-identity everywhere**. The
//! paper's whole premise is that one bitstream serves every decoder
//! capability; this harness is the executable form of that claim.

use recoil::prelude::*;
use recoil::rans::{LaneStates, Span};
use recoil_core::{DecodeStats, IncrementalDecoder};
use std::ops::Range;

/// SplitMix-style deterministic generator — the corpus is fully seeded.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One corpus entry: `len` symbols drawn from `alphabet` distinct values,
/// with a skewed distribution so streams stay compressible.
fn corpus_entry(len: usize, alphabet: u16, seed: u64) -> Vec<u8> {
    let mut rng = seed;
    (0..len)
        .map(|_| {
            let r = next_u64(&mut rng);
            // Square the draw to skew mass toward small symbols.
            let frac = (r % 1000) as f64 / 1000.0;
            ((frac * frac * alphabet as f64) as u16).min(alphabet - 1) as u8
        })
        .collect()
}

/// Every backend this host can run, with its name for failure messages.
fn backends() -> Vec<(&'static str, Box<dyn DecodeBackend>)> {
    let mut b: Vec<(&'static str, Box<dyn DecodeBackend>)> = vec![
        ("scalar", Box::new(ScalarBackend)),
        ("pooled", Box::new(AutoBackend::fixed(Kernel::Scalar, 4))),
        ("auto", Box::new(AutoBackend::with_threads(2))),
    ];
    // The vector kernels unpooled (every batch is a full interleave depth
    // until the range runs out) and pooled (batches shrink so that no
    // thread idles).
    let avx2 = AutoBackend::fixed(Kernel::Avx2, 1);
    if avx2.is_available() {
        b.push(("avx2", Box::new(avx2)));
        b.push(("avx2 x3", Box::new(AutoBackend::fixed(Kernel::Avx2, 3))));
    }
    let avx512 = AutoBackend::fixed(Kernel::Avx512, 1);
    if avx512.is_available() {
        b.push(("avx512", Box::new(avx512)));
        b.push(("avx512 x3", Box::new(AutoBackend::fixed(Kernel::Avx512, 3))));
    }
    b
}

/// The streaming byte-granularities a transfer is replayed at: one word, an
/// odd number of words, and a 64 KiB chunk.
const GRANULARITIES: [usize; 3] = [2, 1022, 64 * 1024];

/// Streams `enc` through an [`IncrementalDecoder`] against `meta`, pushing
/// `piece`-byte slices, and returns the decoded bytes.
fn stream_decode(
    enc: &Encoded,
    meta: &RecoilMetadata,
    backend: &dyn DecodeBackend,
    piece: usize,
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(enc.container.stream.words.len() * 2);
    for w in enc.container.stream.words.iter() {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let mut incr = IncrementalDecoder::new(
        meta.clone(),
        enc.container.stream.final_states.clone(),
        enc.model.clone(),
    )
    .unwrap();
    let mut out = vec![0u8; enc.container.stream.num_symbols as usize];
    let mut covered = 0usize;
    for chunk in bytes.chunks(piece.max(1)) {
        incr.push_bytes(chunk).unwrap();
        let r = incr.decode_ready_segments(backend, &mut out).unwrap();
        assert_eq!(r.start, covered, "decoded ranges must be contiguous");
        covered = r.end;
    }
    if !incr.is_finished() {
        // Zero-word streams have no bytes to push; one explicit drain.
        incr.decode_ready_segments(backend, &mut out).unwrap();
    }
    assert!(incr.is_complete() && incr.is_finished());
    out
}

#[test]
fn every_backend_and_path_is_byte_identical() {
    // (len, alphabet, quant_bits): empty, 1-symbol, sub-lane-width, odd
    // sizes, and a bulk entry; alphabets from binary up to full byte range.
    let shapes: [(usize, u16, u32); 8] = [
        (0, 2, 11),
        (1, 2, 8),
        (31, 7, 9),
        (100, 2, 11),
        (4_097, 251, 11),
        (20_000, 16, 10),
        (60_000, 256, 11),
        (120_000, 256, 12),
    ];
    // Segment targets: 1 (no splits), tiny, typical, and clamp-edge values
    // far beyond what the planner can place.
    let tiers: [u64; 5] = [1, 2, 7, 64, u64::MAX];
    let backends = backends();
    let mut seed = 0xD1FF_5EED_u64;

    for &(len, alphabet, quant_bits) in &shapes {
        let data = corpus_entry(len, alphabet, next_u64(&mut seed));
        let codec = Codec::builder()
            .max_segments(64)
            .quant_bits(quant_bits)
            .build()
            .unwrap();
        let enc = codec.encode(&data).unwrap();

        for &tier in &tiers {
            let meta = try_combine_splits(&enc.container.metadata, tier).unwrap();
            let ctx = format!(
                "len={len} alphabet={alphabet} n={quant_bits} tier={tier} \
                 segments={}",
                meta.num_segments()
            );
            let shrunk = Encoded {
                container: RecoilContainer {
                    stream: enc.container.stream.clone(),
                    metadata: meta.clone(),
                },
                model: enc.model.clone(),
                symbol_bits: 8,
            };

            // Buffered: every backend against the reference input.
            for (name, backend) in &backends {
                let got: Vec<u8> = codec.decode_with(backend.as_ref(), &shrunk).unwrap();
                assert_eq!(got, data, "buffered {name}: {ctx}");
            }

            // Streaming: every backend at several byte granularities.
            for (name, backend) in &backends {
                for piece in GRANULARITIES {
                    let got = stream_decode(&enc, &meta, backend.as_ref(), piece);
                    assert_eq!(got, data, "streaming {name} piece={piece}: {ctx}");
                }
            }

            // Streaming in the server's 8 KiB chunks exactly.
            let mut bytes = Vec::new();
            for w in enc.container.stream.words.iter() {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            for (name, backend) in &backends {
                let mut incr = IncrementalDecoder::new(
                    meta.clone(),
                    enc.container.stream.final_states.clone(),
                    enc.model.clone(),
                )
                .unwrap();
                let mut out = vec![0u8; data.len()];
                let mut have = 0u64;
                for chunk in bytes.chunks(8 * 1024) {
                    incr.push_bytes(chunk).unwrap();
                    have += chunk.len() as u64 / 2;
                    incr.decode_ready_segments(backend.as_ref(), &mut out)
                        .unwrap();
                    // The metadata's promise: after a chunk, exactly the
                    // segments whose last word has arrived are decoded —
                    // every interior one whose split offset lies below
                    // `have`, and the final one with the last word.
                    let ready = if have == meta.num_words {
                        meta.num_segments()
                    } else {
                        meta.splits.iter().filter(|s| s.offset < have).count() as u64
                    };
                    assert_eq!(incr.decoded_segments(), ready, "chunked {name}: {ctx}");
                }
                // An empty stream arrives in no chunk: its one segment is
                // decoded at the end of the transfer, as a client does.
                incr.decode_ready_segments(backend.as_ref(), &mut out)
                    .unwrap();
                assert!(incr.is_finished(), "chunked {name}: {ctx}");
                assert_eq!(out, data, "chunked {name}: {ctx}");
            }
        }
    }
}

/// Shapes targeting the fast-loop/careful-tail seam of
/// `recoil_rans::Span::advance_scalar`: streams whose word count exhausts
/// exactly at a group boundary, one word short of a group (the budget
/// check fails with `GROUP - 1` words still unread), one word past it, and
/// symbol counts that end mid-group on the final lane. Each shape is
/// checked three ways: fast engine vs the retained careful reference
/// (symbols, lane states, and final cursor), every backend buffered, and
/// the streaming path at a fine granularity.
#[test]
fn fast_tail_seam_word_exhaustion_shapes() {
    use recoil::rans::fast::{decode_span_careful, GROUP};

    // Scan seeded corpus lengths until every target (word-count residue,
    // symbol-count residue) pair is represented; the encoder is fast
    // enough that a few hundred small encodes are negligible.
    let word_residues = [0usize, 1, GROUP - 1];
    let sym_residues = [0usize, 13];
    let mut wanted: Vec<(usize, usize)> = word_residues
        .iter()
        .flat_map(|&w| sym_residues.iter().map(move |&s| (w, s)))
        .collect();
    let mut cases = Vec::new();
    let mut seed = 0x5EA4_5EED_u64;
    let codec = Codec::builder().max_segments(7).build().unwrap();
    for len in 2048..6144usize {
        if wanted.is_empty() {
            break;
        }
        let data = corpus_entry(len, 256, next_u64(&mut seed));
        let enc = codec.encode(&data).unwrap();
        let key = (enc.container.stream.words.len() % GROUP, len % GROUP);
        if let Some(at) = wanted.iter().position(|&w| w == key) {
            wanted.remove(at);
            cases.push((data, enc));
        }
    }
    assert!(
        wanted.is_empty(),
        "scan did not produce shapes for residues {wanted:?}"
    );

    let backends = backends();
    for (data, enc) in &cases {
        let stream = &enc.container.stream;
        let meta = &enc.container.metadata;
        let ctx = format!(
            "len={} words={} (w%G={}, n%G={})",
            data.len(),
            stream.words.len(),
            stream.words.len() % GROUP,
            data.len() % GROUP
        );
        let next = stream.end_cursor();

        // Fast engine vs careful reference: identical output, identical
        // final lane states, identical leftover cursor.
        let mut fast_out = vec![0u8; data.len()];
        let mut span = Span {
            words: stream.words.as_bytes(),
            cursor: next,
            states: LaneStates::from(&stream.final_states[..]),
            lo: 0,
            out: &mut fast_out,
        };
        span.advance_scalar(&enc.model, data.len()).unwrap();
        let (fast_states, fast_cursor) = (span.states.to_vec(), span.cursor);
        let mut ref_states = stream.final_states.clone();
        let mut ref_out = vec![0u8; data.len()];
        let ref_cursor = decode_span_careful(
            &enc.model,
            stream.words.as_bytes(),
            next,
            &mut ref_states,
            0,
            &mut ref_out,
        )
        .unwrap();
        assert_eq!(fast_out, *data, "fast engine: {ctx}");
        assert_eq!(ref_out, *data, "careful reference: {ctx}");
        assert_eq!(fast_states, ref_states, "lane states: {ctx}");
        assert_eq!(fast_cursor, ref_cursor, "cursor: {ctx}");

        // All backends, buffered and streaming.
        for (name, backend) in &backends {
            let got: Vec<u8> = codec.decode_with(backend.as_ref(), enc).unwrap();
            assert_eq!(got, *data, "buffered {name}: {ctx}");
            let got = stream_decode(enc, meta, backend.as_ref(), 64);
            assert_eq!(got, *data, "streaming {name}: {ctx}");
        }
    }
}

#[test]
fn sixteen_bit_streams_are_differentially_identical() {
    let mut seed = 0x16B1_7555_u64;
    let raw = corpus_entry(40_000, 256, next_u64(&mut seed));
    let data: Vec<u16> = raw.iter().map(|&b| (b as u16) << 2).collect();
    let codec = Codec::builder()
        .quant_bits(12)
        .max_segments(16)
        .build()
        .unwrap();
    let enc = codec.encode_u16(&data).unwrap();
    for (name, backend) in &backends() {
        let got: Vec<u16> = codec.decode_with(backend.as_ref(), &enc).unwrap();
        assert_eq!(got, data, "buffered u16 {name}");
    }
}

/// `segments` of `enc` — its words as far as `stream` has them — through
/// `backend`'s one decode method into `out`.
fn decode_range(
    backend: &dyn DecodeBackend,
    stream: &EncodedStream,
    enc: &Encoded,
    segments: Range<u64>,
    out: &mut [u8],
) -> Result<DecodeStats, RecoilError> {
    backend.decode(DecodeRequest {
        stream,
        metadata: &enc.container.metadata,
        model: DecodeModel::Static(&enc.model),
        segments,
        out: DecodeOutput::U8(out),
    })
}

/// Every segment range `a..b` of an 11-segment stream — lengths that are
/// and are not a multiple of any kernel's interleave depth, single
/// segments, ranges with and without the first and the final segment — on
/// every backend: the range's region is decoded and nothing else is
/// written.
#[test]
fn every_segment_range_decodes_its_region_and_nothing_else() {
    let mut seed = 0xBA7C_4ED5_u64;
    let data = corpus_entry(90_000, 256, next_u64(&mut seed));
    let codec = Codec::builder().max_segments(11).build().unwrap();
    let enc = codec.encode(&data).unwrap();
    let meta = &enc.container.metadata;
    let nseg = meta.num_segments();
    assert_eq!(nseg, 11);
    let bounds = meta.segment_bounds();
    let stream = &enc.container.stream;
    for (name, backend) in &backends() {
        for a in 0..=nseg {
            for b in a..=nseg {
                let mut out = vec![0xA5u8; data.len()];
                let stats = decode_range(backend.as_ref(), stream, &enc, a..b, &mut out)
                    .unwrap_or_else(|e| panic!("{name} {a}..{b}: {e}"));
                let (lo, hi) = (bounds[a as usize] as usize, bounds[b as usize] as usize);
                assert_eq!(
                    (stats.spans, stats.fast_symbols + stats.careful_symbols),
                    (b - a, (hi - lo) as u64),
                    "{name} {a}..{b} stats"
                );
                assert_eq!(&out[lo..hi], &data[lo..hi], "{name} {a}..{b}");
                assert!(
                    out[..lo].iter().chain(&out[hi..]).all(|&s| s == 0xA5),
                    "{name} {a}..{b} wrote outside its region"
                );
            }
        }
    }
}

#[test]
fn pooled_and_scalar_segment_ranges_agree_mid_stream() {
    // A segment-range request against a word *prefix*: decode
    // the first half of the segments before the rest of the stream exists.
    let mut seed = 77u64;
    let data = corpus_entry(80_000, 256, next_u64(&mut seed));
    let codec = Codec::builder().max_segments(16).build().unwrap();
    let enc = codec.encode(&data).unwrap();
    let meta = &enc.container.metadata;
    let nseg = meta.num_segments();
    assert!(nseg >= 4);
    let half = nseg / 2;
    let need = meta.splits[half as usize - 1].offset as usize + 1;

    let mut prefix = enc.container.stream.clone();
    prefix.words.truncate(need);
    let bounds = meta.segment_bounds();
    let cut = bounds[half as usize] as usize;
    let mut short = prefix.clone();
    short.words.truncate(need - 1);
    let (prefix, short) = (&prefix, &short);
    // (stream prefix, range) pairs every backend must reject with a typed error —
    // the same one, since they share one validator, which runs before any
    // batch arithmetic on the range: the final segment on a prefix, a
    // prefix one word short, reversed ranges (by one, and by as much as a
    // `u64` allows), ranges past the last segment.
    #[allow(clippy::reversed_empty_ranges)]
    let rejected = [
        (prefix, 0..nseg),
        (short, 0..half),
        (prefix, 3..1),
        (prefix, u64::MAX..0),
        (prefix, nseg..nseg - 1),
        (prefix, 0..nseg + 1),
        (prefix, 0..u64::MAX),
        (prefix, u64::MAX - 1..u64::MAX),
    ];
    let mut expected: Vec<String> = Vec::new();
    for (name, backend) in &backends() {
        let backend = backend.as_ref();
        let mut out = vec![0u8; data.len()];
        decode_range(backend, prefix, &enc, 0..half, &mut out)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&out[..cut], &data[..cut], "prefix decode {name}");
        assert!(
            out[cut..].iter().all(|&b| b == 0),
            "{name} wrote past range"
        );

        // An empty range the prefix covers is valid and writes nothing.
        let mut untouched = vec![0xAAu8; data.len()];
        for at in [0, half] {
            decode_range(backend, prefix, &enc, at..at, &mut untouched)
                .unwrap_or_else(|e| panic!("{name} empty range at {at}: {e}"));
        }
        assert!(
            untouched.iter().all(|&b| b == 0xAA),
            "{name} wrote on an empty range"
        );

        let errors: Vec<String> = rejected
            .iter()
            .map(
                |(r, range)| match decode_range(backend, r, &enc, range.clone(), &mut out) {
                    Err(RecoilError::Decode(e)) => e.to_string(),
                    other => panic!("{name} {range:?}: expected a decode error, got {other:?}"),
                },
            )
            .collect();
        if expected.is_empty() {
            expected = errors;
        } else {
            assert_eq!(errors, expected, "{name} disagrees on error text");
        }
    }
}
