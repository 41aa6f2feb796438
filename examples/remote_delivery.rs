//! The paper's §3.3 scenario over a real TCP socket: a content server on
//! one side, clients with different parallel capacities on the other.
//!
//! Everything crosses the wire — the publish (encoded once, by the
//! publisher; the server stores the container it is sent), each
//! request with the client's capacity in the header, and the chunked
//! TRANSMIT response carrying the shrunk metadata, model, and bitstream.
//! Every decode is verified byte-identical to the published input.
//!
//! ```sh
//! cargo run --release --example remote_delivery
//! ```

use recoil::net::{NetClient, NetConfig, NetServer};
use recoil::prelude::*;
use recoil::server::ContentServer;
use std::sync::Arc;

fn main() -> Result<(), RecoilError> {
    let data = recoil::data::exponential_bytes(4_000_000, 500.0, 7);

    // --- Server side: bind an ephemeral loopback port. Chunks are the
    //     next 64 KiB of the bitstream each; the streaming client below
    //     decodes during the transfer because the metadata says which word
    //     each segment needs last, whatever chunk carries it. ---
    let server = NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            chunk_bytes: 64 * 1024,
            ..NetConfig::default()
        },
    )?;
    println!("content server listening on {}\n", server.addr());

    // --- Publish over the wire: encoded ONCE, here, at max parallelism;
    //     the server stores that container and only shrinks metadata
    //     per client. ---
    let publisher = NetClient::connect(server.addr())?;
    let config = EncoderConfig {
        max_segments: 1024,
        ..EncoderConfig::default()
    };
    let ok = publisher.publish("movie", &data, &config)?;
    println!(
        "published `movie`: {} B bitstream, {} planned segments (encode-once)\n",
        ok.stream_bytes, ok.segments
    );

    // --- Client side: one device per capacity class, each a separate TCP
    //     client that decodes with its own backend. ---
    println!(
        "{:>8} | {:>10} | {:>14} | {:>9} | cache | decoded",
        "client", "segments", "transfer (B)", "combine"
    );
    println!("{}", "-".repeat(70));
    let mut sizes = Vec::new();
    for capacity in [1u64, 4, 16, 256, 1024] {
        let client = NetClient::connect(server.addr())?;
        let content = client.request("movie", capacity)?;
        // The acceptance bar: remote decode is byte-identical to the
        // published input, at every capacity.
        let decoded = content.decode_with(client.backend())?;
        assert_eq!(decoded, data, "capacity {capacity}");
        println!(
            "{:>8} | {:>10} | {:>14} | {:>9.2?} | {:>5} | byte-identical",
            format!("{capacity}-way"),
            content.segments,
            content.total_bytes(),
            std::time::Duration::from_nanos(content.combine_nanos),
            if content.cache_hit { "hit" } else { "miss" },
        );
        sizes.push(content.total_bytes());
    }
    assert!(
        sizes.windows(2).all(|w| w[0] <= w[1]),
        "transfer size is monotone in capacity"
    );

    // --- Streaming pipelined decode: chunks feed an IncrementalDecoder as
    //     they arrive, so segment decode overlaps the network transfer.
    //     The first symbols are ready long before the last chunk lands. ---
    let streamer = NetClient::connect(server.addr())?;
    let streamed = streamer.fetch_and_decode_streaming("movie", 256)?;
    assert_eq!(streamed.data, data, "streaming decode is byte-identical");
    println!(
        "\nstreaming fetch (256-way, {} chunks, {} decode batches):",
        streamed.chunk_count, streamed.decode_batches
    );
    println!(
        "  first segment decoded at {:>9.2?}  <- usable output this early",
        std::time::Duration::from_nanos(streamed.first_segment_nanos)
    );
    println!(
        "  transfer finished at     {:>9.2?}",
        std::time::Duration::from_nanos(streamed.transfer_nanos)
    );
    println!(
        "  all segments decoded at  {:>9.2?}",
        std::time::Duration::from_nanos(streamed.total_nanos)
    );

    // --- The serving counters, read out of the node's TELEMETRY reply. ---
    let reply = publisher.stats()?;
    let s = reply.stats;
    println!(
        "\nserver stats over the wire: {} items, {} requests, \
         {} hits / {} misses, {} B served, {} active connections",
        reply.items, s.requests, s.cache_hits, s.cache_misses, s.bytes_served, s.active_connections
    );

    // --- Graceful shutdown: in-flight responses finish first. ---
    server.shutdown();
    println!("server shut down cleanly");
    Ok(())
}
