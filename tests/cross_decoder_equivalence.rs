//! Exhaustive cross-decoder equivalence over every dataset family in
//! Table 4 (scaled), all backends, scalar/pool execution, and both the
//! Recoil and Conventional containers — one bitstream, every decoder.

use recoil::data::{Dataset, ALL_DATASETS};
use recoil::prelude::*;
use std::sync::Arc;

const SCALE_BYTES: usize = 300_000;

fn check_byte_dataset(d: &Dataset, n: u32) {
    let data = d.generate_bytes(SCALE_BYTES);
    let codec = Codec::builder()
        .max_segments(64)
        .quant_bits(n)
        .build()
        .unwrap();
    let encoded = codec.encode(&data).unwrap();
    let pool = ThreadPool::new(7);

    let reference: Vec<u8> = decode_interleaved(&encoded.container.stream, &encoded.model).unwrap();
    assert_eq!(reference, data, "{} serial", d.name);

    // Recoil: every available backend must agree bit for bit.
    let backends: Vec<Box<dyn DecodeBackend>> = vec![
        Box::new(ScalarBackend),
        Box::new(AutoBackend::fixed(Kernel::Scalar, 8)),
        Box::new(AutoBackend::fixed(Kernel::Avx2, 8)),
        Box::new(AutoBackend::fixed(Kernel::Avx512, 8)),
        Box::new(AutoBackend::with_threads(8)),
    ];
    for backend in backends.iter().filter(|b| b.is_available()) {
        let got: Vec<u8> = codec.decode_with(backend.as_ref(), &encoded).unwrap();
        assert_eq!(got, data, "{} recoil {}", d.name, backend.name());
    }

    // Conventional: scalar and SIMD.
    let conv = encode_conventional(&data, &encoded.model, 32, 64);
    let got: Vec<u8> = decode_conventional(&conv, &encoded.model, Some(&pool)).unwrap();
    assert_eq!(got, data, "{} conventional", d.name);
    for kernel in Kernel::all_available() {
        let mut out = vec![0u8; data.len()];
        decode_conventional_simd(kernel, &conv, &encoded.model, Some(&pool), &mut out).unwrap();
        assert_eq!(out, data, "{} conventional {:?}", d.name, kernel);
    }
}

#[test]
fn all_byte_datasets_n11() {
    for d in ALL_DATASETS.iter().filter(|d| !d.is_latent()) {
        check_byte_dataset(d, 11);
    }
}

#[test]
fn all_byte_datasets_n16() {
    for d in ALL_DATASETS.iter().filter(|d| !d.is_latent()) {
        check_byte_dataset(d, 16);
    }
}

#[test]
fn latent_datasets_adaptive_paths() {
    // Smaller bank than production (build time) but the same structure.
    let bank = Arc::new(GaussianScaleBank::build(14, 2048, 32, 0.4, 64.0));
    let pool = ThreadPool::new(7);
    let codec = Codec::builder()
        .max_segments(48)
        .quant_bits(14)
        .build()
        .unwrap();
    let backend = AutoBackend::with_threads(8);
    for d in ALL_DATASETS.iter().filter(|d| d.is_latent()) {
        let ds = d.generate_latents(Arc::clone(&bank), SCALE_BYTES);
        let container = codec
            .encode_with_provider(&ds.symbols, &ds.provider)
            .unwrap();
        let serial: Vec<u16> = decode_interleaved(&container.stream, &ds.provider).unwrap();
        assert_eq!(serial, ds.symbols, "{} serial", d.name);
        let mut par = vec![0u16; ds.symbols.len()];
        let model = DecodeModel::Adaptive(&ds.provider);
        let (stream, metadata) = (&container.stream, &container.metadata);
        let request = DecodeRequest::whole(stream, metadata, model, &mut par).unwrap();
        backend.decode(request).unwrap();
        assert_eq!(par, ds.symbols, "{} recoil", d.name);

        let conv = encode_conventional(&ds.symbols, &ds.provider, 32, 16);
        let got: Vec<u16> = decode_conventional(&conv, &ds.provider, Some(&pool)).unwrap();
        assert_eq!(got, ds.symbols, "{} conventional", d.name);
    }
}
