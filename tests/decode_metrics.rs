//! The stats a decode returns, exactly: every backend, at segment counts that
//! leave whole, partial and single batches.

use recoil::prelude::*;

/// Whatever the kernel and however the segments are batched, a decode
/// returns exactly its segments as `spans`, its symbols as `fast_symbols +
/// careful_symbols` and its words as `words_consumed` (every word is
/// consumed by exactly one segment's span). `Codec` discards these (it has
/// no handle); a caller that records them decodes through the backend.
#[test]
fn a_decode_adds_exactly_its_segments_symbols_and_words() {
    let data = recoil::data::text_like_bytes(300_000, 5.0, 19);
    let backends: Vec<Box<dyn DecodeBackend>> = vec![
        Box::new(ScalarBackend),
        Box::new(AutoBackend::fixed(Kernel::Scalar, 3)),
        Box::new(AutoBackend::new()),
        Box::new(AutoBackend::with_threads(3)),
        Box::new(AutoBackend::fixed(Kernel::Avx2, 1)),
        Box::new(AutoBackend::fixed(Kernel::Avx512, 2)),
    ];
    for max_segments in [1u64, 2, 7, 64] {
        let codec = Codec::builder().max_segments(max_segments).build().unwrap();
        let encoded = codec.encode(&data).unwrap();
        let (stream, metadata) = (&encoded.container.stream, &encoded.container.metadata);
        let segments = metadata.num_segments();
        let words = stream.words.len() as u64;
        for backend in backends.iter().filter(|b| b.is_available()) {
            let mut got = vec![0u8; data.len()];
            let model = DecodeModel::Static(&encoded.model);
            let request = DecodeRequest::whole(stream, metadata, model, &mut got).unwrap();
            let stats = backend.decode(request).unwrap();
            assert_eq!(got, data);
            assert_eq!(
                (
                    stats.spans,
                    stats.fast_symbols + stats.careful_symbols,
                    stats.words_consumed
                ),
                (segments, data.len() as u64, words),
                "{} x{} at {segments} segments",
                backend.name(),
                backend.parallel_spans()
            );
            assert_eq!(
                stats.fast_symbols % 32,
                0,
                "fast symbols come in whole groups"
            );
        }
    }
}
