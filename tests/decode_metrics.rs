//! `DecodeMetrics` totals, exactly. The metrics are process-global, so this
//! file holds a single test: nothing else decodes in its process and the
//! deltas can be asserted with `==`.

use recoil::prelude::*;

/// Whatever the kernel and however the segments are batched, a decode adds
/// exactly its segments to `spans`, its symbols to `fast_symbols +
/// careful_symbols` and its words to `words_consumed` (every word is
/// consumed by exactly one segment's span).
#[test]
fn a_decode_adds_exactly_its_segments_symbols_and_words() {
    let metrics = recoil::telemetry::decode_metrics();
    metrics.enable();
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
        let segments = encoded.container.metadata.num_segments();
        let words = encoded.container.stream.words.len() as u64;
        for backend in backends.iter().filter(|b| b.is_available()) {
            let totals = || {
                (
                    metrics.spans.get(),
                    metrics.fast_symbols.get() + metrics.careful_symbols.get(),
                    metrics.words_consumed.get(),
                    metrics.fast_groups.get() * 32 - metrics.fast_symbols.get(),
                )
            };
            let before = totals();
            let got: Vec<u8> = codec.decode_with(backend.as_ref(), &encoded).unwrap();
            assert_eq!(got, data);
            let after = totals();
            assert_eq!(
                (after.0 - before.0, after.1 - before.1, after.2 - before.2),
                (segments, data.len() as u64, words),
                "{} at {segments} segments",
                backend.name()
            );
            assert_eq!(after.3, 0, "fast symbols come in whole groups");
        }
    }
}
