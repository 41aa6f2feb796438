//! A remote fetch builds its decode tables exactly once.
//!
//! The TRANSMIT header carries the model frequencies, so the client must
//! reconstruct the `StaticModelProvider` (one `DecodeTables::build`) per
//! fetch — and then reuse it for every chunk-driven segment batch of the
//! streaming pipeline. This lives in its own test binary so the
//! process-wide build counter is not disturbed by concurrent tests.

use recoil_core::{AutoBackend, EncoderConfig};
use recoil_models::decode_table_builds;
use recoil_net::{NetClient, NetConfig, NetServer};
use recoil_server::ContentServer;
use std::sync::Arc;

#[test]
fn one_table_build_per_remote_fetch() {
    let server = NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            // Small chunks so the streaming fetch decodes in many batches.
            chunk_bytes: 2048,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let data: Vec<u8> = (0..300_000u32)
        .map(|i| ((i.wrapping_mul(747796405)) >> 22) as u8)
        .collect();
    let client = NetClient::connect(server.addr())
        .unwrap()
        .with_backend(AutoBackend::with_threads(2));
    let config = EncoderConfig {
        max_segments: 64,
        ..EncoderConfig::default()
    };
    client.publish("movie", &data, &config).unwrap();

    let before = decode_table_builds();
    let buffered = client.fetch_and_decode("movie", 8).unwrap();
    assert_eq!(buffered, data);
    assert_eq!(
        decode_table_builds() - before,
        1,
        "a buffered fetch builds the transmitted model's tables exactly once"
    );

    // 64 segments on two threads: at least eight whole batches (a batch is
    // threads × kernel depth segments, and no kernel is deeper than four).
    let before = decode_table_builds();
    let streamed = client.fetch_and_decode_streaming("movie", 64).unwrap();
    assert_eq!(streamed.data, data);
    assert!(
        streamed.decode_batches > 1,
        "expected a multi-batch streaming decode, got {}",
        streamed.decode_batches
    );
    assert_eq!(
        decode_table_builds() - before,
        1,
        "a streaming fetch builds tables once and reuses them across all \
         {} decode batches",
        streamed.decode_batches
    );

    server.shutdown();
}
