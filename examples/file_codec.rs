//! A small self-contained file compressor/decompressor built on the public
//! API — what a downstream adopter's CLI would look like.
//!
//! ```sh
//! cargo run --release --example file_codec -- compress   INPUT OUTPUT.rcl
//! cargo run --release --example file_codec -- decompress INPUT.rcl OUTPUT
//! ```
//!
//! With no arguments, runs a self-demo on generated data in a temp dir.

use recoil::core::read_container;
use recoil::prelude::*;

fn file_codec() -> Codec {
    // Plan enough splits for any realistic client; they cost ~80 B each and
    // a weaker decoder simply ignores (or is served fewer of) them.
    Codec::builder()
        .quant_bits(12)
        .max_segments(256)
        .build()
        .expect("static file-codec config is valid")
}

fn compress(input: &[u8]) -> Result<Vec<u8>, RecoilError> {
    Ok(file_codec().encode(input)?.container_bytes())
}

fn decompress(bytes: &[u8]) -> Result<Vec<u8>, RecoilError> {
    let (container, model, _) = read_container(bytes)?;
    // Every core, each on the best vector kernel this host has.
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let backend = AutoBackend::with_threads(threads);
    let mut out = vec![0u8; container.stream.num_symbols as usize];
    let model = DecodeModel::Static(&model);
    backend.decode(DecodeRequest::whole(
        &container.stream,
        &container.metadata,
        model,
        &mut out,
    )?)?;
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("compress") => {
            let input = std::fs::read(&args[2]).expect("readable input");
            let out = compress(&input).expect("encodable input");
            println!(
                "{} -> {}: {} -> {} bytes ({:.1}%)",
                args[2],
                args[3],
                input.len(),
                out.len(),
                100.0 * out.len() as f64 / input.len() as f64
            );
            std::fs::write(&args[3], out).expect("writable output");
        }
        Some("decompress") => {
            let bytes = std::fs::read(&args[2]).expect("readable input");
            let out = decompress(&bytes).unwrap_or_else(|e| {
                // Typed errors name the offending layer (Wire vs Decode).
                eprintln!("error: {}: {e}", args[2]);
                std::process::exit(1);
            });
            println!("{} -> {}: {} bytes restored", args[2], args[3], out.len());
            std::fs::write(&args[3], out).expect("writable output");
        }
        _ => {
            // Self-demo round trip through real files.
            let dir = std::env::temp_dir();
            let src = dir.join("recoil_demo_input.bin");
            let rcl = dir.join("recoil_demo.rcl");
            let data = recoil::data::text_like_bytes(3_000_000, 4.8, 5);
            std::fs::write(&src, &data).expect("temp write");

            let input = std::fs::read(&src).unwrap();
            let packed = compress(&input).expect("encodable input");
            std::fs::write(&rcl, &packed).unwrap();
            println!(
                "compressed {} -> {} bytes ({:.1}%), file: {}",
                input.len(),
                packed.len(),
                100.0 * packed.len() as f64 / input.len() as f64,
                rcl.display()
            );

            let restored = decompress(&std::fs::read(&rcl).unwrap()).expect("valid file");
            assert_eq!(restored, data);
            println!("decompressed and verified {} bytes — OK", restored.len());
            let _ = std::fs::remove_file(src);
            let _ = std::fs::remove_file(rcl);
        }
    }
}
