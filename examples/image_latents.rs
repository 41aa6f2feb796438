//! Adaptive (hyperprior) coding across Recoil split boundaries — the div2k
//! scenario of §5.1: every 16-bit symbol has its own Gaussian model, keyed
//! by symbol index. Recoil's metadata stores symbol indices precisely so
//! that threads starting mid-stream know which model each position uses
//! (§3.1, advantage (3)).
//!
//! ```sh
//! cargo run --release --example image_latents
//! ```

use recoil::data::latent_dataset;
use recoil::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), RecoilError> {
    // The n=16 scale bank used for all div2k-style runs (64 scales).
    println!("building Gaussian scale bank (n=16, 64 scales)...");
    let bank = Arc::new(GaussianScaleBank::default_latent_bank());

    // ~3.6M latents ≈ one DIV2K image through mbt2018-mean.
    let ds = latent_dataset(Arc::clone(&bank), 3_600_000, 6.0, 801);
    let bytes = ds.symbols.len() * 2;
    println!(
        "latents: {} symbols ({} bytes uncompressed)",
        ds.symbols.len(),
        bytes
    );

    // One codec for the whole pipeline: split metadata for 256 parallel
    // decoders. Adaptive decodes are distributed over all cores. (The SIMD
    // kernels need flat static LUTs, so adaptive content always takes the
    // scalar/pooled path — exactly as in the paper's div2k rows.)
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let codec = Codec::builder().quant_bits(16).max_segments(256).build()?;
    let backend = AutoBackend::fixed(Kernel::Scalar, threads);

    // Encode with the caller-owned adaptive provider.
    let container = codec.encode_with_provider(&ds.symbols, &ds.provider)?;
    println!(
        "compressed: {} bytes ({:.1}% of raw) + {} metadata bytes, {} segments",
        container.stream_bytes(),
        100.0 * container.stream_bytes() as f64 / bytes as f64,
        container.metadata_bytes(),
        container.metadata.num_segments()
    );

    // An adaptive decode is one request on the backend: each thread's Sync
    // Phase looks up models by absolute symbol index, so split boundaries
    // are invisible to the model.
    let decode = |metadata: &RecoilMetadata| -> Result<Vec<u16>, RecoilError> {
        let mut out = vec![0u16; ds.symbols.len()];
        let model = DecodeModel::Adaptive(&ds.provider);
        backend.decode(DecodeRequest::whole(
            &container.stream,
            metadata,
            model,
            &mut out,
        )?)?;
        Ok(out)
    };
    let t0 = std::time::Instant::now();
    let decoded = decode(&container.metadata)?;
    let dt = t0.elapsed();
    assert_eq!(decoded, ds.symbols);
    println!(
        "adaptive parallel decode: {:.2?} ({:.2} GB/s of latent bytes) — bit-exact",
        dt,
        bytes as f64 / dt.as_secs_f64() / 1e9
    );

    // Scale down for a 4-thread tablet: same bitstream, less metadata.
    let small = try_combine_splits(&container.metadata, 4)?;
    assert_eq!(decode(&small)?, ds.symbols);
    println!(
        "4-segment variant: metadata {} bytes (was {})",
        metadata_to_bytes(&small).len(),
        container.metadata_bytes()
    );
    Ok(())
}
