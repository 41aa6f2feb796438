//! Pulls the server's telemetry over the wire and dumps it: counters and
//! stage histograms in the Prometheus-style text exposition, plus the raw
//! stage-trace ring (the server runs at [`TelemetryLevel::Trace`] here).
//!
//! The flow mirrors a real monitoring scrape: drive a little traffic
//! (publish, cold fetch, warm fetches, a streaming fetch), then send one
//! TELEMETRY frame and render the reply. A second scrape at the end shows
//! the trace ring draining — events are consumed by the first reader.
//!
//! ```sh
//! cargo run --release --example telemetry_dump
//! ```

use recoil::net::{NetClient, NetClientConfig, NetConfig, NetServer};
use recoil::prelude::*;
use recoil::server::ContentServer;
use recoil::telemetry::TelemetryLevel;
use std::sync::Arc;

fn main() -> Result<(), RecoilError> {
    // --- Server with full tracing on; clients record their own streaming
    //     histograms (the client default is Counters already). ---
    let server = NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            telemetry: TelemetryLevel::Trace,
            ..NetConfig::default()
        },
    )?;
    println!(
        "server listening on {} (telemetry level: trace)\n",
        server.addr()
    );

    // --- Generate some pipeline activity worth looking at. ---
    let data = recoil::data::exponential_bytes(1_000_000, 220.0, 11);
    let client = NetClient::connect_with(server.addr(), NetClientConfig::default())?;
    let config = EncoderConfig {
        max_segments: 256,
        ..EncoderConfig::default()
    };
    client.publish("report", &data, &config)?; // dispatch pool: validate + store
    client.request("report", 64)?; // tier-cache miss: combine, inline
    client.request("report", 64)?; // warm hit, inline
    client.request("report", 8)?; // second tier, another inline miss
    let streamed = client.fetch_and_decode_streaming("report", 64)?;
    assert_eq!(streamed.data, data);

    // --- Scrape 1: the TELEMETRY frame. ---
    let reply = client.remote_telemetry()?;
    println!("=== server text exposition ===");
    print!("{}", reply.snapshot.render_text());

    println!("\n=== stage trace ({} events) ===", reply.trace.len());
    for (ticket, ev) in &reply.trace {
        println!(
            "trace[{ticket:>4}] {:<18} conn_gen={:<6} t_ns={:<12} detail={}",
            ev.stage.name(),
            ev.conn_gen,
            ev.t_ns,
            ev.detail
        );
    }

    // --- The client keeps its own histograms (streaming latencies) and
    // counts the decodes it ran; the server's `decode_*` counters are zero.
    // ---
    println!("\n=== client-side streaming histograms ===");
    let local = client.telemetry().snapshot();
    for name in [
        "stream_first_segment_ns",
        "stream_transfer_ns",
        "stream_total_ns",
    ] {
        if let Some(h) = local.hist(name) {
            println!(
                "{name}: count={} p50={}ns p99={}ns max={}ns",
                h.count,
                h.p50(),
                h.p99(),
                h.max
            );
        }
    }
    for name in ["decode_spans", "decode_words_consumed"] {
        println!("{name}: {}", local.counter(name).unwrap_or(0));
    }

    // --- Scrape 2: counters persist, but the trace ring was drained. ---
    let again = client.remote_telemetry()?;
    println!(
        "\nsecond scrape: {} new trace events (ring drained by the first), \
         frames_read now {}",
        again.trace.len(),
        again.snapshot.counter("frames_read").unwrap_or(0)
    );

    server.shutdown();
    Ok(())
}
