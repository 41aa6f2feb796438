//! Scale and lifecycle tests for the event-driven server backend: a
//! thousand-plus mostly-idle connections, slow-loris eviction, slab slot
//! reuse across connection churn, and graceful shutdown under load.

use recoil_core::RecoilError;
use recoil_core::{EncoderConfig, ScalarBackend};
use recoil_net::raw::{decode_error, read_frame, write_frame, ReadOutcome};
use recoil_net::{FrameType, Hello, NetClient, NetConfig, NetServer, NetServerHandle};
use recoil_server::ContentServer;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn start_server(net: NetConfig) -> NetServerHandle {
    NetServer::bind(Arc::new(ContentServer::new()), "127.0.0.1:0", net).unwrap()
}

/// Opens a raw connection and completes the HELLO exchange, returning a
/// negotiated socket the test controls byte-by-byte.
fn raw_handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, FrameType::Hello, &Hello::ours().encode()).unwrap();
    match read_frame(&mut stream).unwrap() {
        ReadOutcome::Frame(FrameType::Hello, _) => stream,
        other => panic!("expected HELLO reply, got {other:?}"),
    }
}

/// Polls until `cond` holds (the reactor applies closures asynchronously).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_thousand_idle_connections_and_traffic_still_flows() {
    let server = start_server(NetConfig {
        workers: 2,
        max_connections: 1200,
        ..NetConfig::default()
    });
    let addr = server.addr();

    // 1024 negotiated connections that then just sit there. Idle peers
    // between frames have no deadline: none of them may be evicted.
    let idle: Vec<TcpStream> = (0..1024).map(|_| raw_handshake(addr)).collect();
    assert!(server.active_connections() >= 1024);

    // Active traffic threads through the idle crowd, byte-identically.
    let data = sample(200_000, 7);
    let client = NetClient::connect(addr)
        .unwrap()
        .with_backend(ScalarBackend);
    client.publish("movie", &data, &config(32)).unwrap();
    for tier in [1u64, 8, 32] {
        assert_eq!(client.fetch_and_decode("movie", tier).unwrap(), data);
    }
    let stats = client.stats().unwrap();
    assert!(
        stats.stats.active_connections >= 1025,
        "idle connections must stay counted: {}",
        stats.stats.active_connections
    );
    assert_eq!(stats.stats.evicted_connections, 0);
    assert_eq!(stats.stats.rejected_connections, 0);

    // The idle crowd hangs up; the server notices every close.
    drop(idle);
    wait_until("idle connections to close", || {
        server.active_connections() <= 1
    });
    assert_eq!(client.fetch_and_decode("movie", 8).unwrap(), data);
    server.shutdown();
}

#[test]
fn slow_loris_peers_are_evicted_with_a_typed_error() {
    let server = start_server(NetConfig {
        workers: 2,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let addr = server.addr();

    // Variant 1: a frame header that never finishes (type byte + half the
    // length field).
    let mut torn_header = raw_handshake(addr);
    torn_header
        .write_all(&[FrameType::Request as u8, 9, 0])
        .unwrap();
    // Variant 2: a complete header promising 100 payload bytes, 3 sent.
    let mut torn_payload = raw_handshake(addr);
    torn_payload
        .write_all(&[FrameType::Request as u8, 100, 0, 0, 0, 1, 2, 3])
        .unwrap();

    for (name, mut stream) in [("torn header", torn_header), ("torn payload", torn_payload)] {
        match read_frame(&mut stream).unwrap() {
            ReadOutcome::Frame(FrameType::Error, payload) => {
                let e = decode_error(&payload);
                assert!(
                    e.to_string().contains("stalled"),
                    "{name}: eviction must say why: {e}"
                );
            }
            other => panic!("{name}: expected a typed ERROR, got {other:?}"),
        }
        // After the courtesy frame the connection drains to clean EOF.
        assert!(matches!(read_frame(&mut stream).unwrap(), ReadOutcome::Eof));
    }

    // Evicted slots are free again, the server still serves, and its stats
    // (the transport's own count, not the store's) hold both evictions.
    let client = NetClient::connect(addr).unwrap();
    wait_until("evictions to be counted", || {
        client.stats().unwrap().stats.evicted_connections >= 2
    });
    let data = sample(50_000, 3);
    client.publish("after", &data, &config(8)).unwrap();
    assert_eq!(client.fetch_and_decode("after", 8).unwrap(), data);
    server.shutdown();
}

#[test]
fn slab_slots_are_reused_across_connection_churn() {
    let server = start_server(NetConfig {
        workers: 2,
        max_connections: 8,
        ..NetConfig::default()
    });
    let addr = server.addr();
    let data = sample(60_000, 11);
    {
        let publisher = NetClient::connect(addr).unwrap();
        publisher.publish("movie", &data, &config(16)).unwrap();
    }
    wait_until("publisher to close", || server.active_connections() == 0);

    // 64 connect → request → disconnect cycles against 8 slots: after the
    // first few accepts, every connection must land in a parked slot and
    // recycle its buffers instead of allocating.
    for i in 0..64 {
        let client = NetClient::connect(addr)
            .unwrap()
            .with_backend(ScalarBackend);
        assert_eq!(
            client.fetch_and_decode("movie", 1 + (i % 16)).unwrap(),
            data
        );
        drop(client);
        wait_until("connection to close", || server.active_connections() == 0);
    }

    let slab = server.slab_stats();
    assert!(
        slab.allocations <= 2,
        "steady-state churn must not allocate slots: {slab:?}"
    );
    assert!(slab.reuses >= 60, "parked slots must be recycled: {slab:?}");
    // The open-slots gauge recovered to the full cap.
    assert_eq!(server.telemetry().gauge("open_slots"), Some(8));
    server.shutdown();
}

#[test]
fn graceful_shutdown_with_hundreds_of_connections_mid_stream() {
    let server = start_server(NetConfig {
        workers: 4,
        max_connections: 400,
        chunk_bytes: 2 * 1024,
        ..NetConfig::default()
    });
    let addr = server.addr();
    let data = sample(400_000, 17);
    let client = NetClient::connect(addr).unwrap();
    client.publish("big", &data, &config(64)).unwrap();
    drop(client);

    // A crowd of idle connections plus streaming clients mid-transfer.
    let idle: Vec<TcpStream> = (0..300).map(|_| raw_handshake(addr)).collect();
    let stop = AtomicBool::new(false);
    let ok = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..3usize {
            let (data, stop, ok) = (&data, &stop, &ok);
            s.spawn(move || {
                let client = NetClient::connect(addr)
                    .unwrap()
                    .with_backend(ScalarBackend);
                while !stop.load(Ordering::Relaxed) {
                    match client.fetch_and_decode_streaming("big", 4 + t as u64) {
                        Ok(streamed) => {
                            assert_eq!(streamed.data, *data);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        // Mid-stream shutdown: typed error, never a hang.
                        Err(RecoilError::Net { .. }) => break,
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown(); // joins the reactor with 300+ connections open
        stop.store(true, Ordering::Relaxed);
    });
    assert!(ok.load(Ordering::Relaxed) > 0);
    drop(idle);
    assert!(NetClient::connect(addr).is_err());
}

#[test]
fn reactor_backend_round_trips_with_few_workers() {
    // A small worker pool and an aggressive progress deadline.
    let server = start_server(NetConfig {
        workers: 3,
        read_timeout: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let data = sample(120_000, 5);
    let client = NetClient::connect(server.addr()).unwrap();
    client.publish("movie", &data, &config(16)).unwrap();
    assert_eq!(client.fetch_and_decode("movie", 16).unwrap(), data);
    // The reactor's slab served the connection: a slot was allocated.
    assert!(server.slab_stats().allocations > 0);
    server.shutdown();
}
