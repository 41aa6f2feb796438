//! Quickstart: configure a codec once, encode once, scale the metadata to
//! the decoder, decode in parallel on a backend the decode names.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use recoil::prelude::*;

fn main() -> Result<(), RecoilError> {
    // 4 MB of moderately compressible synthetic text.
    let data = recoil::data::text_like_bytes(4_000_000, 5.0, 42);
    println!(
        "input: {} bytes ({:.2} bits/byte order-0 entropy)",
        data.len(),
        { Histogram::of_bytes(&data).entropy_bits() }
    );

    // The codec is configured once and reused: 32 interleaved lanes, an
    // order-0 model quantized to 2^11 (Table 3 recommends n <= 16) and split
    // metadata for up to 2176 parallel decoders (the paper's "Large"
    // variation). It encodes; the decoder is chosen per decode.
    let codec = Codec::builder()
        .ways(32)
        .quant_bits(11)
        .max_segments(2176)
        .build()?;

    // Encode ONE interleaved rANS bitstream.
    let encoded = codec.encode(&data)?;
    println!(
        "encoded: {} payload bytes + {} metadata bytes ({} segments)",
        encoded.container.stream_bytes(),
        encoded.container.metadata_bytes(),
        encoded.container.metadata.num_segments()
    );

    // A 16-thread client doesn't need 2176 segments: combine in real time.
    // The bitstream is untouched; only metadata entries are dropped.
    let small = try_combine_splits(&encoded.container.metadata, 16)?;
    println!(
        "combined for 16 threads: {} metadata bytes (was {})",
        metadata_to_bytes(&small).len(),
        encoded.container.metadata_bytes()
    );

    // Parallel three-phase decode on a backend that auto-selects
    // AVX-512 → AVX2 → scalar and runs on every core.
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let backend = AutoBackend::with_threads(threads);
    let t0 = std::time::Instant::now();
    let decoded: Vec<u8> = codec.decode_with(&backend, &encoded)?;
    let dt = t0.elapsed();
    assert_eq!(decoded, data);
    println!(
        "decoded {} bytes in {:.2?} ({:.2} GB/s) — bit-exact",
        decoded.len(),
        dt,
        decoded.len() as f64 / dt.as_secs_f64() / 1e9
    );

    // The same payload on another backend: a portable scalar pass that any
    // host can run.
    let t0 = std::time::Instant::now();
    let scalar: Vec<u8> = codec.decode_with(&ScalarBackend, &encoded)?;
    let dt = t0.elapsed();
    assert_eq!(scalar, data);
    println!(
        "decoded with ScalarBackend in {:.2?} ({:.2} GB/s)",
        dt,
        scalar.len() as f64 / dt.as_secs_f64() / 1e9
    );
    Ok(())
}
