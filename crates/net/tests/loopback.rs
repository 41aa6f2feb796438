//! Loopback integration tests for the framed TCP transport: real sockets,
//! real threads, byte-identical decodes.

use recoil_core::backend::{
    preferred_segments, AutoBackend, DecodeBackend, DecodeRequest, ScalarBackend,
};
use recoil_core::{
    metadata_to_bytes, read_container, try_combine_splits, write_item_section, Codec, DecodeModel,
    DecodeStats, EncoderConfig, RecoilError, RecoilMetadata,
};
use recoil_net::raw::{decode_error, read_frame, write_frame, ReadOutcome};
use recoil_net::{
    ContentRequest, FrameType, Hello, NetClient, NetConfig, NetServer, NetServerHandle,
    PublishRequest, ResumeRequest, TransmitHeader, BUSY_RETRY_AFTER_MS,
};
use recoil_server::ContentServer;
use recoil_telemetry::TelemetryLevel;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn sample(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
        .collect()
}

fn config(max_segments: u64) -> EncoderConfig {
    EncoderConfig {
        max_segments,
        ..EncoderConfig::default()
    }
}

/// Server on an ephemeral loopback port with test-sized knobs.
fn start_server(net: NetConfig) -> NetServerHandle {
    NetServer::bind(Arc::new(ContentServer::new()), "127.0.0.1:0", net).unwrap()
}

fn small_net_config() -> NetConfig {
    NetConfig {
        workers: 3,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    }
}

#[test]
fn loopback_round_trip_at_multiple_capacities() {
    let server = start_server(small_net_config());
    let data = sample(300_000, 1);
    let client = NetClient::connect(server.addr()).unwrap();

    let ok = client.publish("movie", &data, &config(64)).unwrap();
    assert_eq!(ok.segments, 64);
    assert!(ok.stream_bytes > 0);

    // Different capacities: byte-identical decode, scaled metadata.
    let small = client.request("movie", 2).unwrap();
    let large = client.request("movie", 64).unwrap();
    assert_eq!(small.segments, 2);
    assert_eq!(large.segments, 64);
    assert_eq!(small.metadata.num_segments(), 2);
    assert!(small.total_bytes() < large.total_bytes());
    assert_eq!(small.decode_with(&ScalarBackend).unwrap(), data);
    assert_eq!(client.fetch_and_decode("movie", 64).unwrap(), data);

    // A repeated tier is served from the remote cache.
    let again = client.request("movie", 2).unwrap();
    assert!(again.cache_hit);
    assert_eq!(again.combine_nanos, 0);

    // Stats flow over the wire, including the new counters; the connection
    // serving the stats query is itself active.
    let stats = client.stats().unwrap();
    assert_eq!(stats.items, 1);
    assert_eq!(stats.stats.publishes, 1);
    assert!(stats.stats.bytes_served >= small.total_bytes() + large.total_bytes());
    assert!(stats.stats.active_connections >= 1);

    server.shutdown();
}

#[test]
fn empty_payload_round_trips_over_the_wire() {
    let server = start_server(small_net_config());
    let client = NetClient::connect(server.addr()).unwrap();
    client.publish("empty", &[], &config(4)).unwrap();
    let content = client.request("empty", 4).unwrap();
    assert_eq!(content.stream.num_symbols, 0);
    assert!(client.fetch_and_decode("empty", 4).unwrap().is_empty());
}

#[test]
fn remote_errors_come_back_typed() {
    let server = start_server(small_net_config());
    let client = NetClient::connect(server.addr()).unwrap();

    assert!(matches!(
        client.request("nope", 4),
        Err(RecoilError::NotFound { ref name }) if name == "nope"
    ));

    let data = sample(50_000, 2);
    client.publish("x", &data, &config(8)).unwrap();
    assert!(matches!(
        client.publish("x", &data, &config(8)),
        Err(RecoilError::AlreadyPublished { ref name }) if name == "x"
    ));

    // InvalidConfig cannot reconstruct its static field name remotely; it
    // degrades to a Net error carrying the detail.
    match client.request("x", 0) {
        Err(RecoilError::Net { detail }) => assert!(detail.contains("parallel_segments")),
        other => panic!("expected Net error, got {other:?}"),
    }

    // In-band ERROR frames leave the connection synchronized: the pooled
    // connection is reused, not dropped and re-dialed, across all of the
    // error responses above.
    assert_eq!(client.pooled_connections(), 1);
    assert_eq!(client.fetch_and_decode("x", 8).unwrap(), data);
    assert_eq!(client.pooled_connections(), 1);

    // Oversized publishes and oversized names fail client-side with a
    // typed config error before any bytes go out.
    assert!(matches!(
        client.publish(&"n".repeat(70_000), &data, &config(8)),
        Err(RecoilError::InvalidConfig { field: "name", .. })
    ));
    assert!(matches!(
        client.request(&"n".repeat(70_000), 4),
        Err(RecoilError::InvalidConfig { field: "name", .. })
    ));
}

/// Raw-socket HELLO exchange for protocol-violation tests.
fn raw_hello(addr: std::net::SocketAddr) -> TcpStream {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut conn, FrameType::Hello, &Hello::ours().encode()).unwrap();
    match read_frame(&mut conn).unwrap() {
        ReadOutcome::Frame(FrameType::Hello, _) => conn,
        other => panic!("expected HELLO reply, got {other:?}"),
    }
}

/// Reads frames until the server closes the connection, returning whether
/// an ERROR frame was seen on the way out.
fn drain_to_eof(conn: &mut TcpStream) -> bool {
    let mut saw_error = false;
    loop {
        match read_frame(conn) {
            Ok(ReadOutcome::Frame(FrameType::Error, _)) => saw_error = true,
            Ok(ReadOutcome::Frame(..)) | Ok(ReadOutcome::Idle) => {}
            Ok(ReadOutcome::Eof) | Err(_) => return saw_error,
        }
    }
}

#[test]
fn malformed_frames_are_rejected_and_server_survives() {
    let server = start_server(small_net_config());
    let data = sample(40_000, 3);
    let client = NetClient::connect(server.addr()).unwrap();
    client.publish("x", &data, &config(4)).unwrap();

    // Garbage frame type after a valid HELLO.
    let mut conn = raw_hello(server.addr());
    use std::io::Write;
    conn.write_all(&[0xAB, 4, 0, 0, 0, 1, 2, 3, 4]).unwrap();
    assert!(drain_to_eof(&mut conn), "garbage type must earn an ERROR");

    // Oversized length prefix.
    let mut conn = raw_hello(server.addr());
    let mut bad = vec![FrameType::Request as u8];
    bad.extend_from_slice(&(recoil_net::MAX_FRAME_LEN + 1).to_le_bytes());
    conn.write_all(&bad).unwrap();
    assert!(
        drain_to_eof(&mut conn),
        "oversized frame must earn an ERROR"
    );

    // Truncated frame: promise 100 payload bytes, send 3, hang up.
    let mut conn = raw_hello(server.addr());
    conn.write_all(&[FrameType::Request as u8, 100, 0, 0, 0, 1, 2, 3])
        .unwrap();
    drop(conn);

    // A frame that parses but violates the protocol (client-sent CHUNK).
    let mut conn = raw_hello(server.addr());
    write_frame(&mut conn, FrameType::Chunk, &[0, 0, 0, 0]).unwrap();
    assert!(
        drain_to_eof(&mut conn),
        "unexpected CHUNK must earn an ERROR"
    );

    // A HELLO of any other version earns an ERROR that names it, and then
    // the close: a future one, the previous one (version 4 still spoke
    // STATS), and a version-2 peer's, whose four trailing capability bytes
    // must not turn it into a framing complaint.
    let mut v2 = Hello { version: 2 }.encode();
    v2.extend_from_slice(&7u32.to_le_bytes());
    for (version, payload) in [
        (99, Hello { version: 99 }.encode()),
        (4, Hello { version: 4 }.encode()),
        (2, v2),
    ] {
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut conn, FrameType::Hello, &payload).unwrap();
        let err = match read_frame(&mut conn).unwrap() {
            ReadOutcome::Frame(FrameType::Error, payload) => decode_error(&payload).to_string(),
            other => panic!("version {version}: expected an ERROR, got {other:?}"),
        };
        let named = format!("unsupported protocol version {version} ");
        assert!(err.contains(&named), "version {version}: {err}");
        assert!(!drain_to_eof(&mut conn), "one ERROR, then the close");
    }

    // After all that abuse, a well-behaved client still gets served.
    assert_eq!(client.fetch_and_decode("x", 4).unwrap(), data);
    server.shutdown();
}

#[test]
fn concurrent_clients_hammer_one_server() {
    let server = start_server(NetConfig {
        workers: 4,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let datasets: Vec<Vec<u8>> = (0..2).map(|i| sample(120_000, 10 + i)).collect();
    let publisher = NetClient::connect(server.addr()).unwrap();
    for (i, data) in datasets.iter().enumerate() {
        publisher
            .publish(&format!("item{i}"), data, &config(32))
            .unwrap();
    }

    let served = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..6usize {
            let addr = server.addr();
            let datasets = &datasets;
            let served = &served;
            s.spawn(move || {
                let client = NetClient::connect(addr)
                    .unwrap()
                    .with_backend(ScalarBackend);
                for r in 0..12 {
                    let item = (t + r) % datasets.len();
                    let tier = [1u64, 4, 16, 1000][(t + r) % 4];
                    let got = client
                        .fetch_and_decode(&format!("item{item}"), tier)
                        .unwrap();
                    assert_eq!(got, datasets[item], "thread {t} round {r}");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(served.load(Ordering::Relaxed), 6 * 12);

    let stats = publisher.stats().unwrap();
    assert_eq!(stats.stats.publishes, 2);
    assert!(stats.stats.requests >= 6 * 12);
    assert!(stats.stats.cache_hits > 0, "repeated tiers must hit");
    server.shutdown();
}

#[test]
fn connection_cap_rejects_with_typed_busy_error() {
    let server = start_server(NetConfig {
        workers: 1,
        max_connections: 1,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    // The first client parks one negotiated connection in its pool; the
    // server worker stays on it, so the cap is reached.
    let first = NetClient::connect(server.addr()).unwrap();
    assert_eq!(first.pooled_connections(), 1);
    match NetClient::connect(server.addr()) {
        Err(RecoilError::Busy { retry_after_ms }) => {
            assert_eq!(
                retry_after_ms, BUSY_RETRY_AFTER_MS,
                "the shed must carry the server's retry-after hint"
            )
        }
        other => panic!("expected busy rejection, got {other:?}"),
    }
    drop(first);
    server.shutdown();
}

/// Regression test: two transports, one store. `NetServer::bind` accepts a
/// shared `Arc<ContentServer>`, but the transports used to keep their gauges
/// *in the store* (each overwrote the other's: the 8-slot server answered
/// STATS with 99 open slots, the 100-slot one with 7, both with two active
/// connections) and the store kept the first transport's telemetry handle
/// (so the second one's TELEMETRY never saw a tier hit or a combine). Each
/// transport now owns its facts and records what it serves.
#[test]
fn two_transports_over_one_store_report_their_own_facts() {
    let content = Arc::new(ContentServer::new());
    let bind = |max_connections, telemetry| {
        let net = NetConfig {
            max_connections,
            telemetry,
            ..small_net_config()
        };
        NetServer::bind(Arc::clone(&content), "127.0.0.1:0", net).unwrap()
    };
    let small = bind(8, TelemetryLevel::Off);
    let large = bind(100, TelemetryLevel::Counters);
    let via_small = NetClient::connect(small.addr()).unwrap();
    let via_large = NetClient::connect(large.addr()).unwrap();

    // Published through one transport, served by both: the large one pays
    // the combine and then hits twice, the small one hits once.
    let data = sample(80_000, 5);
    via_small.publish("movie", &data, &config(16)).unwrap();
    for expect_hit in [false, true, true] {
        assert_eq!(via_large.request("movie", 4).unwrap().cache_hit, expect_hit);
    }
    assert!(via_small.request("movie", 4).unwrap().cache_hit);

    let small_stats = via_small.stats().unwrap().stats;
    let large_stats = via_large.stats().unwrap().stats;
    for (stats, open_slots) in [(small_stats, 7), (large_stats, 99)] {
        assert_eq!(
            (
                stats.open_slots,
                stats.active_connections,
                stats.queue_depth
            ),
            (open_slots, 1, 0)
        );
        // The store's counters are the store's: one truth through either.
        assert_eq!((stats.publishes, stats.requests), (1, 4));
        assert_eq!((stats.cache_hits, stats.cache_misses), (3, 1));
    }

    // The `Counters` transport recorded what *it* served. Inline hits are
    // sampled, and the first request of every read burst always is: each
    // of its two hits arrived in a read of its own (the client waits for
    // each response), so both are recorded.
    let seen = via_large.remote_telemetry().unwrap().snapshot;
    let count = |name: &str| seen.hist(name).map(|h| h.count);
    assert_eq!(count("tier_miss_segments"), Some(1));
    assert_eq!(count("combine_ns"), Some(1));
    let hits = seen.hist("tier_hit_segments").unwrap();
    assert_eq!(hits.count, 2, "{hits:?}");
    assert_eq!(hits.max, 4, "the width it served");
    assert_eq!(
        count("publish_ns"),
        Some(0),
        "the other transport's publish"
    );
    assert_eq!(seen.counter("server_cache_hits"), Some(3));
    assert_eq!(seen.gauge("open_slots"), Some(99));
    // The `Off` transport records no distributions, and still reports the
    // exact counts and its own gauges.
    let quiet = via_small.remote_telemetry().unwrap().snapshot;
    assert_eq!(quiet.hist("tier_hit_segments").map(|h| h.count), Some(0));
    assert_eq!(quiet.counter("server_cache_hits"), Some(3));
    assert_eq!(quiet.gauge("open_slots"), Some(7));

    small.shutdown();
    large.shutdown();
}

/// A request at or past the encoded maximum is served the item's own full
/// tier: a hit the reactor answers inline, even on the item's first
/// request — nothing is dispatched and nothing is combined.
#[test]
fn a_full_width_request_is_served_inline_without_a_combine() {
    let server = start_server(NetConfig {
        telemetry: TelemetryLevel::Counters,
        ..small_net_config()
    });
    let client = NetClient::connect(server.addr()).unwrap();
    let data = sample(80_000, 9);
    client.publish("movie", &data, &config(16)).unwrap();
    let dispatched = client
        .remote_telemetry()
        .unwrap()
        .snapshot
        .counter("dispatched_jobs");
    assert_eq!(dispatched, Some(1), "the publish");

    for width in [16, 17, u64::MAX] {
        let reply = client.request("movie", width).unwrap();
        assert_eq!(reply.segments, 16);
        assert!(reply.cache_hit, "width {width}");
        assert_eq!(reply.combine_nanos, 0, "width {width}");
    }
    let seen = client.remote_telemetry().unwrap().snapshot;
    assert_eq!(seen.counter("dispatched_jobs"), dispatched);
    assert_eq!(seen.hist("tier_miss_segments").map(|h| h.count), Some(0));
    assert_eq!(seen.hist("combine_ns").map(|h| h.count), Some(0));
    assert_eq!(seen.counter("server_cache_misses"), Some(0));
    assert_eq!(seen.counter("server_cache_hits"), Some(3));
    server.shutdown();
}

/// A tier-cache miss is served on the reactor like a hit: a pipelined
/// burst of fourteen REQUESTs — thirteen misses and the one-segment tier
/// the item holds, a hit — and a mid-stream RESUME miss comes back in
/// order, each TRANSMIT carrying the combined tier's bytes, and only the
/// publish ever reached the dispatch pool. Every miss is recorded.
#[test]
fn a_tier_cache_miss_is_served_inline() {
    let server = start_server(NetConfig {
        telemetry: TelemetryLevel::Counters,
        ..small_net_config()
    });
    let client = NetClient::connect(server.addr()).unwrap();
    client
        .publish("movie", &sample(80_000, 13), &config(16))
        .unwrap();
    // Read off the store directly: `get` moves none of its counters.
    let item = server.content().get("movie").unwrap();
    assert_eq!(item.max_segments(), 16);
    let total_words = item.stream.words.len() as u64;
    let from_word = total_words / 2;

    let mut conn = raw_hello(server.addr());
    let mut burst = Vec::new();
    for w in 1..=14u64 {
        let req = ContentRequest {
            name: "movie",
            parallel_segments: w,
        };
        write_frame(&mut burst, FrameType::Request, &req.encode()).unwrap();
    }
    let resume = ResumeRequest {
        name: "movie",
        parallel_segments: 15,
        from_word,
    };
    write_frame(&mut burst, FrameType::Resume, &resume.encode()).unwrap();
    use std::io::Write;
    conn.write_all(&burst).unwrap();

    let mut next_frame = || loop {
        match read_frame(&mut conn).unwrap() {
            ReadOutcome::Frame(ty, payload) => return (ty, payload),
            ReadOutcome::Idle => {}
            ReadOutcome::Eof => panic!("server closed mid-burst"),
        }
    };
    for w in 1..=15u64 {
        let (ty, payload) = next_frame();
        assert_eq!(ty, FrameType::Transmit, "width {w}");
        let (header, metadata, _) = TransmitHeader::decode(&payload).unwrap();
        assert_eq!((header.segments, header.cache_hit), (w, w == 1));
        let combined = try_combine_splits(item.metadata(), w).unwrap();
        let mut section = Vec::new();
        write_item_section(
            &mut section,
            &metadata_to_bytes(&combined),
            item.model_block(),
            item.payload_crc32(),
        );
        assert_eq!(header.item, section, "width {w}");
        assert_eq!(metadata, combined, "width {w}");
        // The chunks follow in sequence and carry the words the peer is
        // missing: all of them, or the resumed tail.
        let skipped = if w == 15 { from_word } else { 0 };
        let mut word_bytes = 0;
        for seq in 0..header.chunk_count {
            let (ty, chunk) = next_frame();
            assert_eq!(ty, FrameType::Chunk, "width {w}");
            assert_eq!(chunk[..4], seq.to_le_bytes(), "width {w}");
            word_bytes += chunk.len() as u64 - 4;
        }
        assert_eq!(word_bytes, 2 * (total_words - skipped), "width {w}");
    }

    let seen = client.remote_telemetry().unwrap().snapshot;
    assert_eq!(seen.counter("dispatched_jobs"), Some(1), "the publish");
    assert_eq!(seen.hist("dispatch_wait_ns").map(|h| h.count), Some(1));
    assert_eq!(seen.hist("tier_miss_segments").map(|h| h.count), Some(14));
    assert_eq!(seen.hist("combine_ns").map(|h| h.count), Some(14));
    assert_eq!(seen.counter("server_cache_misses"), Some(14));
    assert_eq!(seen.counter("server_cache_hits"), Some(1));
    server.shutdown();
}

#[test]
fn graceful_shutdown_finishes_inflight_requests() {
    // One publisher + three hammering clients, each holding a keep-alive
    // connection that pins a worker: size the pool for all of them.
    let server = start_server(NetConfig {
        workers: 6,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let addr = server.addr();
    let data = sample(400_000, 7);
    let client = NetClient::connect(addr).unwrap();
    client.publish("big", &data, &config(64)).unwrap();

    let stop = AtomicBool::new(false);
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..3usize {
            let addr = server.addr();
            let data = &data;
            let stop = &stop;
            let ok = &ok;
            let failed = &failed;
            s.spawn(move || {
                let client = NetClient::connect(addr)
                    .unwrap()
                    .with_backend(ScalarBackend);
                while !stop.load(Ordering::Relaxed) {
                    match client.fetch_and_decode("big", 1 + t as u64) {
                        // Completed responses are complete: the CRC and
                        // structural checks passed, and the bytes match.
                        Ok(got) => {
                            assert_eq!(got, *data);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        // Once shutdown lands, refusals are clean errors.
                        Err(RecoilError::Net { .. }) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
        // Let the hammering overlap the shutdown.
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown(); // joins all server threads
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        ok.load(Ordering::Relaxed) > 0,
        "some requests must have completed before shutdown"
    );
    // After shutdown the port no longer accepts.
    assert!(NetClient::connect(addr).is_err());
}

#[test]
fn streaming_fetch_is_byte_identical_and_pipelined() {
    // Small chunks force a real multi-chunk pipeline even on smoke-sized
    // payloads.
    let server = start_server(NetConfig {
        workers: 3,
        chunk_bytes: 4 * 1024,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let data = sample(400_000, 21);
    // Two threads whatever the host has: a batch is then at most eight
    // segments, so tiers of 16 and up dispatch before the transfer ends.
    let client = NetClient::connect(server.addr())
        .unwrap()
        .with_backend(AutoBackend::with_threads(2));
    client.publish("movie", &data, &config(64)).unwrap();

    for tier in [1u64, 2, 16, 64, 100_000] {
        let buffered = client.fetch_and_decode("movie", tier).unwrap();
        let request = client.request("movie", tier).unwrap();
        let streamed = client.fetch_and_decode_streaming("movie", tier).unwrap();
        assert_eq!(streamed.data, buffered, "tier {tier}");
        assert_eq!(streamed.data, data, "tier {tier}");
        assert_eq!(streamed.segments, tier.min(64), "tier {tier}");
        // The sizes are the buffered fetch's at every tier: 1 and 2 are
        // one batch, 16 and up are decoded while chunks arrive.
        assert_eq!(streamed.total_bytes, request.total_bytes(), "tier {tier}");
        assert_eq!(streamed.segments, request.segments, "tier {tier}");
        // A chunk is the next 4 KiB of the stream, whatever the tier.
        let word_bytes = request.stream.words.len() as u64 * 2;
        assert_eq!(
            u64::from(streamed.chunk_count),
            word_bytes.div_ceil(4 * 1024),
            "tier {tier}"
        );
        assert!(streamed.chunk_count > 1, "tier {tier}: single chunk");
        assert!(
            streamed.transfer_nanos <= streamed.total_nanos,
            "tier {tier}"
        );
        assert!(streamed.decode_batches >= 1, "tier {tier}");
        assert!(
            streamed.first_segment_nanos <= streamed.total_nanos,
            "tier {tier}"
        );
        // The pipeline's point: with more segments than one batch, the
        // first ones are decoded before the whole payload has even arrived.
        // No race in that: dozens of chunks follow the first segment's, and
        // the receive loop decodes and stamps the first batch before it
        // reads the next one.
        if tier >= 16 {
            assert!(
                streamed.first_segment_nanos < streamed.transfer_nanos,
                "tier {tier}: first segment at {} ns, transfer ended {} ns",
                streamed.first_segment_nanos,
                streamed.transfer_nanos
            );
        }
    }

    // The empty edge case streams too, in no chunk, as one (empty) batch.
    client.publish("empty", &[], &config(4)).unwrap();
    let request = client.request("empty", 4).unwrap();
    let empty = client.fetch_and_decode_streaming("empty", 4).unwrap();
    assert!(empty.data.is_empty());
    assert_eq!(
        (empty.segments, empty.chunk_count, empty.decode_batches),
        (1, 0, 1)
    );
    assert_eq!(empty.segments, request.segments);
    assert_eq!(empty.total_bytes, request.total_bytes());
    assert!(empty.first_segment_nanos <= empty.total_nanos);
    assert!(empty.transfer_nanos <= empty.total_nanos);
    server.shutdown();

    // An odd chunk size is rounded down to whole words: 5 sends 4-byte
    // bodies, and the count follows the body size, not the knob.
    let server = start_server(NetConfig {
        chunk_bytes: 5,
        ..small_net_config()
    });
    let client = NetClient::connect(server.addr()).unwrap();
    let data = sample(20_000, 22);
    client.publish("odd", &data, &config(16)).unwrap();
    let word_bytes = client.request("odd", 16).unwrap().stream.words.len() as u64 * 2;
    let streamed = client.fetch_and_decode_streaming("odd", 16).unwrap();
    assert_eq!(streamed.data, data);
    assert_eq!(u64::from(streamed.chunk_count), word_bytes.div_ceil(4));
    assert_ne!(word_bytes.div_ceil(4), word_bytes.div_ceil(5));
    server.shutdown();
}

/// `decode_batches` the documented dispatch rule yields for `tier` served
/// in chunks of `chunk_words` words: after each chunk, a whole batch goes
/// out, or whatever is left at the end of the stream, or — once — the first
/// resident segments of a stream with a whole batch still to come. What a
/// chunk makes resident is read off the tier's split offsets: every
/// interior segment whose split offset lies below the words received, and
/// the final one with the last word.
fn batches_by_the_rule(tier: &RecoilMetadata, chunk_words: u64, capability: u64) -> u64 {
    let total = tier.num_segments();
    let (mut decoded, mut batches) = (0, 0);
    for k in 1..=tier.num_words.div_ceil(chunk_words) {
        let have = tier.num_words.min(k * chunk_words);
        let ready = if have == tier.num_words {
            total
        } else {
            tier.splits.iter().filter(|s| s.offset < have).count() as u64
        };
        let waiting = ready - decoded;
        let first_of_many = decoded == 0 && total - ready >= capability;
        if waiting >= capability || (waiting > 0 && (ready == total || first_of_many)) {
            batches += 1;
            decoded = ready;
        }
    }
    batches
}

/// The dispatch rule, counted: which chunk makes which segment resident is
/// for the fixed chunk grid and the tier's split offsets to say, not the
/// clock, so the count is exact. A stream of at most one batch is one
/// dispatch however many chunks carry it; a capability of 1 dispatches
/// every newly resident run, which is what every backend used to get.
#[test]
fn streaming_dispatches_whole_batches() {
    const CHUNK_WORDS: u64 = 1024;
    let server = start_server(NetConfig {
        workers: 3,
        chunk_bytes: CHUNK_WORDS as usize * 2,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let data = sample(1_600_000, 23);
    let publisher = NetClient::connect(server.addr()).unwrap();
    publisher.publish("movie", &data, &config(256)).unwrap();

    let auto = AutoBackend::with_threads(2);
    let capability = preferred_segments(&auto);
    assert!(capability >= 2, "two threads are worth at least two spans");
    assert_eq!(preferred_segments(&ScalarBackend), 1);
    let clients = [
        (capability, publisher.with_backend(auto)),
        (
            1,
            NetClient::connect(server.addr())
                .unwrap()
                .with_backend(ScalarBackend),
        ),
    ];
    for (capability, client) in &clients {
        let capability = *capability;
        for width in [1, 2, capability - 1, capability, capability + 1, 256] {
            let width = width.max(1);
            let tier = client.request("movie", width).unwrap();
            let chunks = tier.metadata.num_words.div_ceil(CHUNK_WORDS);
            let streamed = client.fetch_and_decode_streaming("movie", width).unwrap();
            assert_eq!(streamed.data, data, "width {width}");
            assert_eq!(streamed.segments, width, "the item holds 256 segments");
            assert_eq!(u64::from(streamed.chunk_count), chunks);
            assert!(chunks > 256, "segments arrive in several chunks each");

            let what = format!(
                "width {width} on {} (capability {capability})",
                client.backend().name()
            );
            assert_eq!(
                streamed.decode_batches,
                batches_by_the_rule(&tier.metadata, CHUNK_WORDS, capability),
                "{what}"
            );
            // What the rule comes to: one dispatch for a stream of at most
            // one batch; beyond it, the first segment ahead and then whole
            // batches (one fewer where a chunk completed two segments).
            let in_batches = 1 + (width - 1).div_ceil(capability);
            match width {
                w if w <= capability => assert_eq!(streamed.decode_batches, 1, "{what}"),
                w if w == capability + 1 => assert_eq!(streamed.decode_batches, 2, "{what}"),
                _ => assert!(
                    (in_batches - 1..=in_batches).contains(&streamed.decode_batches),
                    "{what}: {} batches",
                    streamed.decode_batches
                ),
            }
        }
    }
    server.shutdown();
}

#[test]
fn streaming_clients_survive_graceful_shutdown_with_typed_errors() {
    let server = start_server(NetConfig {
        workers: 6,
        chunk_bytes: 2 * 1024,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let addr = server.addr();
    let data = sample(500_000, 22);
    let client = NetClient::connect(addr).unwrap();
    client.publish("big", &data, &config(64)).unwrap();

    let stop = AtomicBool::new(false);
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..3usize {
            let data = &data;
            let stop = &stop;
            let ok = &ok;
            let failed = &failed;
            s.spawn(move || {
                let client = NetClient::connect(addr)
                    .unwrap()
                    .with_backend(ScalarBackend);
                while !stop.load(Ordering::Relaxed) {
                    match client.fetch_and_decode_streaming("big", 8 + t as u64) {
                        // Completed streams are complete: CRC verified and
                        // byte-identical.
                        Ok(streamed) => {
                            assert_eq!(streamed.data, *data);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        // Mid-stream shutdown must surface as a typed
                        // error — never a hang, never a partial buffer.
                        Err(RecoilError::Net { .. }) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown(); // joins all server threads
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        ok.load(Ordering::Relaxed) > 0,
        "some streaming fetches must have completed before shutdown"
    );
    // After shutdown the port refuses new streams outright.
    assert!(NetClient::connect(addr).is_err());
}

#[test]
fn concurrent_streaming_clients_under_the_connection_cap() {
    let server = start_server(NetConfig {
        workers: 5,
        max_connections: 5,
        chunk_bytes: 4 * 1024,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let datasets: Vec<Vec<u8>> = (0..2).map(|i| sample(150_000, 30 + i)).collect();
    let publisher = NetClient::connect(server.addr()).unwrap();
    for (i, data) in datasets.iter().enumerate() {
        publisher
            .publish(&format!("item{i}"), data, &config(32))
            .unwrap();
    }

    let served = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let addr = server.addr();
            let datasets = &datasets;
            let served = &served;
            s.spawn(move || {
                let client = NetClient::connect(addr)
                    .unwrap()
                    .with_backend(ScalarBackend);
                for r in 0..8 {
                    let item = (t + r) % datasets.len();
                    let tier = [1u64, 4, 32, 1000][(t + r) % 4];
                    let streamed = client
                        .fetch_and_decode_streaming(&format!("item{item}"), tier)
                        .unwrap();
                    assert_eq!(streamed.data, datasets[item], "thread {t} round {r}");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(served.load(Ordering::Relaxed), 4 * 8);
    server.shutdown();
}

#[test]
fn pooled_connection_survives_and_is_reused() {
    let server = start_server(small_net_config());
    let data = sample(60_000, 9);
    let client = NetClient::connect(server.addr()).unwrap();
    client.publish("x", &data, &config(8)).unwrap();
    for _ in 0..5 {
        assert_eq!(client.fetch_and_decode("x", 8).unwrap(), data);
    }
    // One probe connection, reused serially: the pool never grows past it.
    assert_eq!(client.pooled_connections(), 1);
    server.shutdown();
}

/// A backend that cannot run on this host (what an explicit AVX-512
/// backend is on a machine without it).
struct Unavailable;

impl DecodeBackend for Unavailable {
    fn name(&self) -> &'static str {
        "unavailable-stub"
    }
    fn is_available(&self) -> bool {
        false
    }
    fn parallel_spans(&self) -> usize {
        1
    }
    fn decode(&self, _: DecodeRequest<'_>) -> Result<DecodeStats, RecoilError> {
        unreachable!("an unavailable backend is never dispatched to")
    }
}

/// Regression test: the streaming fetch used to discover an unavailable
/// backend *after* the REQUEST was on the wire and report it as a transport
/// failure, so the retry policy re-sent the request (free redial + the whole
/// budget, with backoff sleeps) for an error no retry can fix.
#[test]
fn unavailable_backend_is_refused_before_anything_is_sent() {
    let server = start_server(small_net_config());
    let client = NetClient::connect(server.addr())
        .unwrap()
        .with_backend(Unavailable);
    client
        .publish("movie", &sample(50_000, 9), &config(8))
        .unwrap();
    let requests_before = client.stats().unwrap().stats.requests;

    match client.fetch_and_decode_streaming("movie", 8) {
        Err(RecoilError::BackendUnavailable { backend }) => assert_eq!(backend, "unavailable-stub"),
        other => panic!("expected BackendUnavailable, got {other:?}"),
    }
    assert_eq!(client.telemetry().counters.retries.get(), 0);
    assert_eq!(client.stats().unwrap().stats.requests, requests_before);
    server.shutdown();
}

/// A session verifies the whole stream's CRC, so the public `start_fetch`
/// refuses a non-zero word offset (typed, before dialling) and points at
/// `FetchSession::resume_on`, which continues a session that saw the prefix.
#[test]
fn a_fetch_session_cannot_start_mid_stream() {
    let server = start_server(small_net_config());
    let client = NetClient::connect(server.addr()).unwrap();
    client
        .publish("movie", &sample(50_000, 4), &config(8))
        .unwrap();
    match client.start_fetch("movie", 8, 1) {
        Err(RecoilError::InvalidConfig { field, detail }) => {
            assert_eq!(field, "from_word");
            assert!(detail.contains("resume_on"), "{detail}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(client.stats().unwrap().stats.requests, 0);
    server.shutdown();
}

/// The next whole frame off a raw connection, waiting out idle ticks.
fn next_frame(conn: &mut TcpStream) -> (FrameType, Vec<u8>) {
    loop {
        match read_frame(conn).unwrap() {
            ReadOutcome::Frame(ty, payload) => return (ty, payload),
            ReadOutcome::Idle => {}
            ReadOutcome::Eof => panic!("server closed the connection"),
        }
    }
}

/// REQUESTs `name` at `width` on a raw connection and returns the response
/// as it crossed the wire: the TRANSMIT payload, then every CHUNK payload.
fn raw_response(conn: &mut TcpStream, name: &str, width: u64) -> Vec<Vec<u8>> {
    let req = ContentRequest {
        name,
        parallel_segments: width,
    };
    write_frame(conn, FrameType::Request, &req.encode()).unwrap();
    let (ty, header) = next_frame(conn);
    assert_eq!(ty, FrameType::Transmit, "{name} at width {width}");
    let chunks = TransmitHeader::decode(&header).unwrap().0.chunk_count;
    let mut frames = vec![header];
    for _ in 0..chunks {
        let (ty, chunk) = next_frame(conn);
        assert_eq!(ty, FrameType::Chunk, "{name} at width {width}");
        frames.push(chunk);
    }
    frames
}

/// A server for raw-socket exchanges. `write_frame` sends a frame's header
/// and payload in two writes; a read timeout as short as
/// `small_net_config`'s could evict the peer between them on a loaded host.
fn patient_server() -> NetServerHandle {
    start_server(NetConfig {
        read_timeout: Duration::from_secs(5),
        ..small_net_config()
    })
}

/// The container `NetClient::publish` sends for `data` under `config`.
fn container_of(data: &[u8], config: &EncoderConfig) -> Vec<u8> {
    Codec::from_config(config.clone())
        .unwrap()
        .encode(data)
        .unwrap()
        .container_bytes()
}

/// A PUBLISH whose container fails its checks — one flipped byte (the CRC
/// no longer matches), a version-1 tag (which would skip the CRC), a
/// truncation — is refused in-band with a typed `Wire` error. Nothing is
/// stored, and the same connection goes on to serve a REQUEST.
#[test]
fn a_container_that_fails_its_checks_is_refused_in_band() {
    let server = patient_server();
    let data = sample(40_000, 6);
    let client = NetClient::connect(server.addr()).unwrap();
    client.publish("good", &data, &config(8)).unwrap();

    let bytes = container_of(&data, &config(8));
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x10;
    let mut v1 = bytes.clone();
    v1[4] = 1;
    let truncated = bytes[..bytes.len() - 1].to_vec();

    let mut conn = raw_hello(server.addr());
    for (what, container) in [("flipped", flipped), ("v1", v1), ("truncated", truncated)] {
        let publish = PublishRequest {
            name: "bad",
            container: &container,
        };
        write_frame(&mut conn, FrameType::Publish, &publish.encode()).unwrap();
        match next_frame(&mut conn) {
            (FrameType::Error, payload) => match decode_error(&payload) {
                RecoilError::Wire { .. } => {}
                other => panic!("{what}: expected a Wire error, got {other:?}"),
            },
            (ty, _) => panic!("{what}: expected ERROR, got {ty:?}"),
        }
        let served = raw_response(&mut conn, "good", 4);
        assert!(served.len() > 1, "{what}: the connection still serves");
    }
    assert!(server.content().get("bad").is_none());
    assert_eq!(server.content().stats().publishes, 1);
    // The same bytes, intact, are accepted under that name.
    client.publish_container("bad", &bytes).unwrap();
    assert_eq!(client.fetch_and_decode("bad", 8).unwrap(), data);
    server.shutdown();
}

/// A container published as it is serves what the same data published
/// through `NetClient::publish` serves, frame for frame: the client encodes
/// either way and the server stores the container without re-encoding.
#[test]
fn a_published_container_serves_what_publish_serves() {
    let server = patient_server();
    let data = sample(120_000, 8);
    let client = NetClient::connect(server.addr()).unwrap();
    let by_data = client.publish("by-data", &data, &config(16)).unwrap();
    let by_bytes = client
        .publish_container("by-bytes", &container_of(&data, &config(16)))
        .unwrap();
    assert_eq!(by_data, by_bytes);

    let mut conn = raw_hello(server.addr());
    // A first request at a combined width is a miss whose TRANSMIT carries
    // its combine time; compare the hits that follow. The full and the
    // one-segment tiers are hits from the start.
    for name in ["by-data", "by-bytes"] {
        raw_response(&mut conn, name, 4);
    }
    for width in [4, 16, u64::MAX, 1] {
        assert_eq!(
            raw_response(&mut conn, "by-data", width),
            raw_response(&mut conn, "by-bytes", width),
            "width {width}"
        );
    }

    // A fetch is the container: at full width, its item section and words
    // behind magic and version are the published bytes; at any width, a
    // container of its tier that parses and decodes to the data.
    let full = client.request("by-data", u64::MAX).unwrap();
    assert_eq!(full.container_bytes(), container_of(&data, &config(16)));
    let narrow = client.request("by-bytes", 4).unwrap().container_bytes();
    let (container, model, _) = read_container(&narrow).unwrap();
    assert_eq!(container.metadata.num_segments(), 4);
    let mut decoded = vec![0u8; data.len()];
    let request = DecodeRequest::whole(
        &container.stream,
        &container.metadata,
        DecodeModel::Static(&model),
        &mut decoded,
    );
    ScalarBackend.decode(request.unwrap()).unwrap();
    assert_eq!(decoded, data);
    server.shutdown();
}

/// A published stream of 700 `u16` symbols decodes into bytes on no path:
/// the buffered and the streaming fetch both return the typed width error —
/// not a panic, not wrong bytes — and the client goes on to serve a byte
/// fetch. Its `u16` decode still round-trips.
#[test]
fn a_wide_alphabet_fetched_as_bytes_is_a_typed_error() {
    let server = start_server(small_net_config());
    let data: Vec<u16> = (0..60_000u32).map(|i| (i % 700) as u16).collect();
    let encoded = Codec::builder()
        .quant_bits(12)
        .max_segments(16)
        .build()
        .unwrap()
        .encode_u16(&data)
        .unwrap();
    let client = NetClient::connect(server.addr()).unwrap();
    client
        .publish_container("wide", &encoded.container_bytes())
        .unwrap();
    let is_width_error = |e: &RecoilError| {
        matches!(
            e,
            RecoilError::InvalidConfig {
                field: "symbol_bits",
                ..
            }
        )
    };
    for width in [1, 16] {
        let buffered = client.fetch_and_decode("wide", width).unwrap_err();
        assert!(is_width_error(&buffered), "width {width}: {buffered:?}");
        match client.fetch_and_decode_streaming("wide", width) {
            Err(e) => assert!(is_width_error(&e), "width {width}: {e:?}"),
            Ok(_) => panic!("width {width}: a streamed byte decode succeeded"),
        }
    }

    let content = client.request("wide", 16).unwrap();
    let mut wide = vec![0u16; data.len()];
    let request = DecodeRequest::whole(
        &content.stream,
        &content.metadata,
        DecodeModel::Static(&content.model),
        &mut wide,
    );
    ScalarBackend.decode(request.unwrap()).unwrap();
    assert_eq!(wide, data);

    let bytes = sample(40_000, 31);
    client.publish("bytes", &bytes, &config(8)).unwrap();
    assert_eq!(client.fetch_and_decode("bytes", 8).unwrap(), bytes);
    let streamed = client.fetch_and_decode_streaming("bytes", 8).unwrap();
    assert_eq!(streamed.data, bytes);
    server.shutdown();
}

/// A decode's stats belong to the client that ran it. Two `Counters`
/// clients share a server: the one that streams (and once buffers) fetches
/// counts exactly the segments, symbols and words it decoded; the one that
/// only publishes and receives counts nothing; and the server, which never
/// decodes, reports zero for every `decode_*` counter.
#[test]
fn decode_counters_belong_to_the_client_that_decoded() {
    let server = start_server(NetConfig {
        telemetry: TelemetryLevel::Counters,
        ..small_net_config()
    });
    let data = sample(200_000, 29);
    let idle = NetClient::connect(server.addr()).unwrap();
    idle.publish("movie", &data, &config(16)).unwrap();
    let received = idle.request("movie", 4).unwrap(); // never decoded
    let decoder = NetClient::connect(server.addr()).unwrap();

    let mut segments = 0;
    let widths = [1u64, 2, 16];
    for width in widths {
        let fetched = decoder.fetch_and_decode_streaming("movie", width).unwrap();
        assert_eq!(fetched.data, data);
        segments += fetched.segments;
    }
    assert_eq!(decoder.fetch_and_decode("movie", 4).unwrap(), data);
    segments += received.segments;
    let decodes = widths.len() as u64 + 1;

    let decode_counters = |snapshot: &recoil_telemetry::TelemetrySnapshot| {
        [
            "decode_spans",
            "decode_fast_symbols",
            "decode_careful_symbols",
            "decode_words_consumed",
        ]
        .map(|name| snapshot.counter(name).unwrap())
    };
    let [spans, fast, careful, words] = decode_counters(&decoder.telemetry().snapshot());
    assert_eq!(spans, segments);
    assert_eq!(fast + careful, decodes * data.len() as u64);
    assert_eq!(words, decodes * received.stream.words.len() as u64);
    assert_eq!(decode_counters(&idle.telemetry().snapshot()), [0; 4]);
    let remote = idle.remote_telemetry().unwrap().snapshot;
    assert_eq!(remote.level, TelemetryLevel::Counters);
    assert_eq!(
        decode_counters(&remote),
        [0; 4],
        "the server decoded nothing"
    );
    server.shutdown();
}
