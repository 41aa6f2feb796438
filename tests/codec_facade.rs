//! Acceptance tests for the `Codec` facade: every Table-4-style dataset
//! family round-trips through every available `DecodeBackend` with
//! identical output, and invalid configurations are rejected with typed
//! errors — no panics anywhere on the public surface.

use recoil::data::{exponential_bytes, text_like_bytes};
use recoil::prelude::*;

/// Four Table-4-style datasets: two exponential rates (incompressible and
/// highly compressible) and two text entropies, scaled for CI.
fn datasets() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("rand_10", exponential_bytes(400_000, 10.0, 41)),
        ("rand_500", exponential_bytes(400_000, 500.0, 42)),
        ("dickens", text_like_bytes(400_000, 4.548, 43)),
        ("enwik", text_like_bytes(400_000, 5.087, 44)),
    ]
}

fn all_backends() -> Vec<Box<dyn DecodeBackend>> {
    vec![
        Box::new(ScalarBackend),
        Box::new(AutoBackend::fixed(Kernel::Scalar, 8)),
        Box::new(AutoBackend::fixed(Kernel::Avx2, 8)),
        Box::new(AutoBackend::fixed(Kernel::Avx512, 8)),
        Box::new(AutoBackend::with_threads(8)),
    ]
}

#[test]
fn every_dataset_through_every_available_backend() {
    let codec = Codec::builder()
        .ways(32)
        .max_segments(64)
        .quant_bits(11)
        .build()
        .unwrap();
    for (name, data) in datasets() {
        let encoded = codec.encode(&data).unwrap();
        let reference: Vec<u8> = codec.decode_with(&ScalarBackend, &encoded).unwrap();
        assert_eq!(reference, data, "{name} scalar");
        for backend in all_backends() {
            if !backend.is_available() {
                // Explicit SIMD backends on hosts without the feature:
                // typed error, not a panic.
                let err = codec
                    .decode_with::<u8>(backend.as_ref(), &encoded)
                    .unwrap_err();
                assert!(
                    matches!(err, RecoilError::BackendUnavailable { .. }),
                    "{name} {}",
                    backend.name()
                );
                continue;
            }
            let got: Vec<u8> = codec.decode_with(backend.as_ref(), &encoded).unwrap();
            assert_eq!(got, reference, "{name} {}", backend.name());
        }
    }
}

#[test]
fn codec_is_reusable_across_payloads() {
    let codec = Codec::builder().max_segments(16).build().unwrap();
    let backend = AutoBackend::with_threads(4);
    for (name, data) in datasets() {
        let encoded = codec.encode(&data).unwrap();
        assert!(encoded.container.metadata.num_segments() <= 16);
        let got: Vec<u8> = codec.decode_with(&backend, &encoded).unwrap();
        assert_eq!(got, data, "{name}");
    }
}

#[test]
fn invalid_configs_are_typed_errors() {
    for (build, field) in [
        (Codec::builder().ways(0).build(), "ways"),
        (Codec::builder().max_segments(0).build(), "max_segments"),
        (Codec::builder().quant_bits(17).build(), "quant_bits"),
        (Codec::builder().quant_bits(0).build(), "quant_bits"),
    ] {
        match build {
            Err(RecoilError::InvalidConfig { field: got, .. }) => {
                assert_eq!(got, field);
            }
            other => panic!("expected InvalidConfig for {field}, got {other:?}"),
        }
    }
    // EncoderConfig validation is shared with the builder.
    let bad = EncoderConfig {
        quant_bits: 22,
        ..EncoderConfig::default()
    };
    assert!(matches!(
        bad.validate(),
        Err(RecoilError::InvalidConfig {
            field: "quant_bits",
            ..
        })
    ));
}

#[test]
fn decoding_wrong_width_is_an_error_not_a_panic() {
    let codec = Codec::builder().build().unwrap();
    let data: Vec<u16> = (0..20_000u32).map(|i| (i % 300) as u16).collect();
    let encoded = codec.encode_u16(&data).unwrap();
    assert!(codec.decode_with::<u8>(&ScalarBackend, &encoded).is_err());
    let ok: Vec<u16> = codec.decode_with(&ScalarBackend, &encoded).unwrap();
    assert_eq!(ok, data);
}

#[test]
fn mismatched_buffer_is_an_error_not_a_panic() {
    let codec = Codec::builder().max_segments(4).build().unwrap();
    let data = exponential_bytes(10_000, 100.0, 45);
    let encoded = codec.encode(&data).unwrap();
    let mut short = vec![0u8; data.len() - 1];
    assert!(codec
        .decode_with_into(&ScalarBackend, &encoded, &mut short)
        .is_err());
    // One whole-stream check in the facade: every backend names both sizes,
    // in the same words, for short and long buffers alike.
    for len in [data.len() - 1, data.len() + 1] {
        let expected = format!(
            "decode failed: malformed stream: output buffer holds {len} symbols, stream has {}",
            data.len()
        );
        let mut wrong = vec![0u8; len];
        for backend in all_backends().iter().filter(|b| b.is_available()) {
            let err = codec
                .decode_with_into(backend.as_ref(), &encoded, &mut wrong)
                .unwrap_err();
            assert_eq!(err.to_string(), expected, "{}", backend.name());
        }
    }
}

/// A 700-symbol `u16` stream: its model's alphabet does not fit a `u8`.
fn wide_alphabet() -> (Vec<u16>, Encoded) {
    let data: Vec<u16> = (0..60_000u32).map(|i| (i % 700) as u16).collect();
    let codec = Codec::builder()
        .quant_bits(12)
        .max_segments(16)
        .build()
        .unwrap();
    let encoded = codec.encode_u16(&data).unwrap();
    assert_eq!(encoded.model.table().alphabet_size(), 700);
    (data, encoded)
}

fn is_symbol_bits_error<T: std::fmt::Debug>(got: &Result<T, RecoilError>) -> bool {
    matches!(
        got,
        Err(RecoilError::InvalidConfig {
            field: "symbol_bits",
            ..
        })
    )
}

/// Below the facade nothing carries the payload's symbol width, so the
/// backend checks the output against the model: a static model of more
/// than 256 symbols decoded into `u8` is a typed error on every backend,
/// written before any output, and the same stream's `u16` decode still
/// round-trips.
#[test]
fn u8_decode_of_a_wide_alphabet_is_refused_on_every_backend() {
    let (data, encoded) = wide_alphabet();
    let (stream, metadata) = (&encoded.container.stream, &encoded.container.metadata);
    for backend in all_backends().iter().filter(|b| b.is_available()) {
        let untouched = 0xA5u8;
        let mut narrow = vec![untouched; data.len()];
        let model = DecodeModel::Static(&encoded.model);
        let request = DecodeRequest::whole(stream, metadata, model, &mut narrow).unwrap();
        let got = backend.decode(request);
        assert!(is_symbol_bits_error(&got), "{}: {got:?}", backend.name());
        assert!(narrow.iter().all(|&b| b == untouched), "{}", backend.name());

        let mut wide = vec![0u16; data.len()];
        let model = DecodeModel::Static(&encoded.model);
        let request = DecodeRequest::whole(stream, metadata, model, &mut wide).unwrap();
        backend.decode(request).unwrap();
        assert_eq!(wide, data, "{}", backend.name());
    }
}

/// The streaming receiver decodes through the same backend call, so it
/// refuses the same way.
#[test]
fn incremental_u8_decode_of_a_wide_alphabet_is_refused() {
    let (data, encoded) = wide_alphabet();
    let stream = &encoded.container.stream;
    let incr = || {
        let mut incr = IncrementalDecoder::new(
            encoded.container.metadata.clone(),
            stream.final_states.clone(),
            encoded.model.clone(),
        )
        .unwrap();
        incr.push_bytes(stream.words.as_bytes()).unwrap();
        incr
    };
    for backend in all_backends().iter().filter(|b| b.is_available()) {
        let mut narrow = vec![0u8; data.len()];
        let got = incr().decode_ready_segments(backend.as_ref(), &mut narrow);
        assert!(is_symbol_bits_error(&got), "{}: {got:?}", backend.name());

        let mut wide = vec![0u16; data.len()];
        let mut ok = incr();
        ok.decode_ready_segments(backend.as_ref(), &mut wide)
            .unwrap();
        assert!(ok.is_finished());
        assert_eq!(wide, data, "{}", backend.name());
    }
}

/// Decode stats are recorded in the segment engine, so they move on every
/// backend — including the SIMD ones, which used to leave them at zero.
/// They are returned per decode, so the counts are exact; the full
/// segment-count matrix is in `decode_metrics.rs`.
#[test]
fn decode_metrics_move_on_every_backend() {
    let codec = Codec::builder().max_segments(16).build().unwrap();
    let data = text_like_bytes(200_000, 5.0, 47);
    let encoded = codec.encode(&data).unwrap();
    let (stream, metadata) = (&encoded.container.stream, &encoded.container.metadata);
    let segments = metadata.num_segments();
    // Every word is consumed by exactly one segment's span.
    let words = stream.words.len() as u64;
    for backend in all_backends().iter().filter(|b| b.is_available()) {
        let mut got = vec![0u8; data.len()];
        let model = DecodeModel::Static(&encoded.model);
        let request = DecodeRequest::whole(stream, metadata, model, &mut got).unwrap();
        let stats = backend.decode(request).unwrap();
        assert_eq!(got, data, "{}", backend.name());
        assert_eq!(
            (
                stats.spans,
                stats.words_consumed,
                stats.fast_symbols + stats.careful_symbols
            ),
            (segments, words, data.len() as u64),
            "{}",
            backend.name()
        );
    }
}
