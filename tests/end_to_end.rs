//! Cross-crate integration tests: realistic datasets through the full
//! encode → plan → serialize → combine → parallel-decode pipeline, all via
//! the `Codec` facade.

use recoil::data::{exponential_bytes, text_like_bytes};
use recoil::prelude::*;
use recoil::server::{Client, ContentServer};

fn codec(max_segments: u64, quant_bits: u32) -> Codec {
    Codec::builder()
        .max_segments(max_segments)
        .quant_bits(quant_bits)
        .build()
        .unwrap()
}

#[test]
fn text_dataset_full_pipeline() {
    let data = text_like_bytes(1_000_000, 5.1, 1);
    let codec = codec(128, 11);
    let encoded = codec.encode(&data).unwrap();

    // Wire round-trip of the metadata.
    let bytes = metadata_to_bytes(&encoded.container.metadata);
    let meta = metadata_from_bytes(&bytes).unwrap();
    assert_eq!(meta, encoded.container.metadata);

    // Decode at several parallelism levels; all must be identical.
    let backend = AutoBackend::with_threads(8);
    for segments in [1u64, 2, 16, 128] {
        let m = try_combine_splits(&meta, segments).unwrap();
        let mut got = vec![0u8; data.len()];
        let model = DecodeModel::Static(&encoded.model);
        let req = DecodeRequest::whole(&encoded.container.stream, &m, model, &mut got);
        backend.decode(req.unwrap()).unwrap();
        assert_eq!(got, data, "segments={segments}");
    }
}

#[test]
fn recoil_never_loses_to_conventional_at_equal_parallelism() {
    // §5.2: Recoil's overhead undercuts Conventional at every split count.
    let data = exponential_bytes(1_000_000, 200.0, 3);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
    for parallelism in [16usize, 256] {
        let encoded = codec(parallelism as u64, 11).encode(&data).unwrap();
        let conv = encode_conventional(&data, &model, 32, parallelism);
        let recoil_total = encoded.total_bytes();
        let conv_total = conv.payload_bytes();
        assert!(
            recoil_total < conv_total,
            "parallelism {parallelism}: recoil {recoil_total} vs conventional {conv_total}"
        );
    }
}

#[test]
fn conventional_and_recoil_decode_identically() {
    let data = text_like_bytes(500_000, 4.6, 4);
    let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 12));
    let pool = ThreadPool::new(7);

    let conv = encode_conventional(&data, &model, 32, 64);
    let a: Vec<u8> = decode_conventional(&conv, &model, Some(&pool)).unwrap();

    let codec = Codec::builder()
        .max_segments(64)
        .quant_bits(12)
        .build()
        .unwrap();
    let encoded = codec.encode(&data).unwrap();
    let backend = AutoBackend::fixed(Kernel::Scalar, 8);
    let b: Vec<u8> = codec.decode_with(&backend, &encoded).unwrap();
    assert_eq!(a, data);
    assert_eq!(b, data);
}

#[test]
fn server_scales_per_client_and_all_clients_agree() {
    let data = exponential_bytes(1_500_000, 50.0, 6);
    let server = ContentServer::new();
    let config = EncoderConfig {
        max_segments: 512,
        ..EncoderConfig::default()
    };
    server.publish("item", &data, &config).unwrap();

    let mut sizes = Vec::new();
    let mut capacities = Vec::new();
    for threads in [1usize, 2, 8, 24] {
        let client = Client::new(threads);
        capacities.push(client.parallel_segments);
        // One atomic lookup: the transmission and the content it decodes
        // against come from the same store resolution.
        let (t, item) = server.fetch("item", client.parallel_segments).unwrap();
        let decoded = client.decode(&item.stream, &t, &item.model).unwrap();
        assert_eq!(decoded, data, "threads={threads}");
        sizes.push(t.total_bytes());
    }
    // Transfer size is monotone in requested parallelism.
    assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");

    // The same capacities again: every tier is now cached and serves the
    // same bytes.
    for (capacity, expect) in capacities.into_iter().zip(&sizes) {
        let t = server.request("item", capacity).unwrap();
        assert!(t.cache_hit);
        assert_eq!(t.total_bytes(), *expect);
    }
    let stats = server.stats();
    assert_eq!(stats.cache_hits, 4);
    assert_eq!(stats.cache_misses, 4);
}

#[test]
fn simd_and_scalar_recoil_decoders_agree_on_all_variations() {
    let data = text_like_bytes(600_000, 5.2, 7);
    for n in [11u32, 16] {
        let codec = codec(64, n);
        let encoded = codec.encode(&data).unwrap();
        let scalar: Vec<u8> = codec.decode_with(&ScalarBackend, &encoded).unwrap();
        for backend in [
            &AutoBackend::fixed(Kernel::Avx2, 1) as &dyn DecodeBackend,
            &AutoBackend::fixed(Kernel::Avx512, 1),
            &AutoBackend::new(),
        ] {
            if !backend.is_available() {
                continue;
            }
            let got: Vec<u8> = codec.decode_with(backend, &encoded).unwrap();
            assert_eq!(got, scalar, "backend {} n={n}", backend.name());
        }
    }
}

#[test]
fn mutual_compatibility_one_bitstream_every_decoder() {
    // §4.4: "All four implementations are mutually compatible; generated
    // bitstreams by the encoder can be decoded by any of them."
    let data = exponential_bytes(800_000, 100.0, 8);
    let codec = codec(96, 11);
    let encoded = codec.encode(&data).unwrap();

    let serial: Vec<u8> = decode_interleaved(&encoded.container.stream, &encoded.model).unwrap();
    let recoil_scalar: Vec<u8> = codec
        .decode_with(&AutoBackend::fixed(Kernel::Scalar, 8), &encoded)
        .unwrap();
    assert_eq!(serial, recoil_scalar);
    for kernel in Kernel::all_available() {
        let mut out = vec![0u8; data.len()];
        decode_interleaved_simd(kernel, &encoded.container.stream, &encoded.model, &mut out)
            .unwrap();
        assert_eq!(out, serial, "single-thread {kernel:?}");
    }
    for backend in [
        &AutoBackend::fixed(Kernel::Avx2, 8) as &dyn DecodeBackend,
        &AutoBackend::fixed(Kernel::Avx512, 8),
        &AutoBackend::with_threads(8),
    ] {
        if !backend.is_available() {
            continue;
        }
        let out: Vec<u8> = codec.decode_with(backend, &encoded).unwrap();
        assert_eq!(out, serial, "recoil backend {}", backend.name());
    }
}
