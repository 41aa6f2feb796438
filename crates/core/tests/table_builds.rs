//! Decode tables are built once per content and reused across streamed
//! segment batches.
//!
//! Standing up a [`StaticModelProvider`] fills a `2^n`-entry LUT
//! (`DecodeTables::build`); an [`IncrementalDecoder`] that rebuilt it per
//! `decode_ready_segments` call would pay that cost on every chunk of a
//! streamed transfer. This regression test pins the contract with the
//! process-wide build counter — it lives in its own test binary so no
//! concurrent test can bump the counter mid-measurement.

use recoil_core::backend::{AutoBackend, DecodeBackend, Kernel, ScalarBackend};
use recoil_core::Codec;
use recoil_core::IncrementalDecoder;
use recoil_models::decode_table_builds;

#[test]
fn streaming_decode_reuses_the_tables_across_batches() {
    let data: Vec<u8> = (0..200_000u32)
        .map(|i| ((i.wrapping_mul(2654435761)) >> 23) as u8)
        .collect();
    let codec = Codec::builder().max_segments(64).build().unwrap();
    let enc = codec.encode(&data).unwrap();
    let mut bytes = Vec::with_capacity(enc.container.stream.words.len() * 2);
    for w in &enc.container.stream.words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }

    // Everything below decodes with already-built tables: constructing the
    // decoder (the model is cloned in, not rebuilt), pushing hundreds of
    // chunks, and draining ready segments through two backends must not
    // trigger a single further `DecodeTables::build`.
    let before = decode_table_builds();
    for backend in [
        &ScalarBackend as &dyn DecodeBackend,
        &AutoBackend::fixed(Kernel::Scalar, 3),
    ] {
        let mut incr = IncrementalDecoder::new(
            enc.container.metadata.clone(),
            enc.container.stream.final_states.clone(),
            enc.model.clone(),
        )
        .unwrap();
        let mut out = vec![0u8; data.len()];
        let mut batches = 0u32;
        for chunk in bytes.chunks(1024) {
            incr.push_bytes(chunk).unwrap();
            if !incr
                .decode_ready_segments(backend, &mut out)
                .unwrap()
                .is_empty()
            {
                batches += 1;
            }
        }
        assert!(incr.is_finished());
        assert_eq!(out, data);
        assert!(
            batches > 4,
            "expected several decode batches, got {batches}"
        );
    }
    assert_eq!(
        decode_table_builds(),
        before,
        "decode tables must be built once per content, not per segment batch"
    );
}
