//! Loopback tests for the TELEMETRY wire frame and the instruments behind
//! it: a real server, a real client, and assertions that the numbers the
//! wire reports match the numbers the server-side handle sees.

use recoil_core::{EncoderConfig, ScalarBackend};
use recoil_net::raw::{read_frame, write_frame, ReadOutcome};
use recoil_net::{
    FrameType, Hello, NetClient, NetClientConfig, NetConfig, NetServer, NetServerHandle, StatsReply,
};
use recoil_server::ContentServer;
use recoil_telemetry::{Stage, TelemetryLevel};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn sample(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
        .collect()
}

fn start_server(telemetry: TelemetryLevel) -> NetServerHandle {
    NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            read_timeout: Duration::from_millis(50),
            telemetry,
            ..NetConfig::default()
        },
    )
    .unwrap()
}

/// Raw-socket HELLO exchange; returns the connection past it.
fn raw_hello(addr: std::net::SocketAddr) -> TcpStream {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut conn, FrameType::Hello, &Hello::ours().encode()).unwrap();
    match read_frame(&mut conn).unwrap() {
        ReadOutcome::Frame(FrameType::Hello, payload) => {
            assert_eq!(Hello::decode(&payload).unwrap(), Hello::ours());
            conn
        }
        other => panic!("expected HELLO reply, got {other:?}"),
    }
}

/// A known request mix against a `Trace`-level server, then the TELEMETRY
/// frame: the reply's counters, histograms, and trace must describe that
/// mix, and must agree with what the server-side handle renders locally.
#[test]
fn telemetry_round_trip_matches_server_side_snapshot() {
    let server = start_server(TelemetryLevel::Trace);
    let data = sample(200_000, 7);
    // The scalar backend keeps the decode deterministic on any host (the
    // auto backend's SIMD paths skip the instrumented span decoder).
    let client = NetClient::connect(server.addr())
        .unwrap()
        .with_backend(ScalarBackend);

    // Mix: 1 publish (dispatch + validate), 1 cache-miss request (inline
    // combine), 2 cache-hit requests (inline), 1 streaming fetch (hit).
    client
        .publish("movie", &data, &EncoderConfig::default())
        .unwrap();
    assert_eq!(client.fetch_and_decode("movie", 8).unwrap(), data);
    assert_eq!(client.fetch_and_decode("movie", 8).unwrap(), data);
    assert_eq!(client.fetch_and_decode("movie", 8).unwrap(), data);
    let streamed = client.fetch_and_decode_streaming("movie", 8).unwrap();
    assert_eq!(streamed.data, data);

    let reply = client.remote_telemetry().unwrap();
    let remote = &reply.snapshot;
    assert_eq!(remote.level, TelemetryLevel::Trace);

    // The mix, as the wire reports it.
    assert_eq!(remote.counter("dispatched_jobs"), Some(1), "publish");
    assert_eq!(remote.hist("publish_ns").map(|h| h.count), Some(1));
    assert_eq!(remote.hist("combine_ns").map(|h| h.count), Some(1));
    assert_eq!(remote.hist("tier_miss_segments").map(|h| h.count), Some(1));
    assert_eq!(
        remote.hist("tier_hit_segments").map(|h| h.count),
        Some(3),
        "two buffered re-fetches and one streamed fetch hit the tier cache"
    );
    assert!(remote.counter("frames_read").unwrap() >= 6);
    assert!(remote.counter("inline_serves").unwrap() >= 3);
    assert!(remote.counter("bytes_read").unwrap() > data.len() as u64);
    assert!(remote.counter("bytes_written").unwrap() > 0);
    assert!(remote.counter("write_flushes").unwrap() >= 5);
    assert_eq!(remote.counter("evictions"), Some(0));
    assert!(remote.hist("dispatch_wait_ns").map(|h| h.count) == Some(1));
    let inline = remote.hist("inline_serve_ns").unwrap();
    assert!(inline.count >= 3);
    assert!(inline.p50() <= inline.p99());
    assert!(inline.p99() <= inline.max);

    // The trace ring (drained into this reply) saw the pipeline stages.
    assert!(!reply.trace.is_empty());
    let stages: Vec<Stage> = reply.trace.iter().map(|(_, ev)| ev.stage).collect();
    for want in [
        Stage::FrameRead,
        Stage::InlineServe,
        Stage::DispatchQueue,
        Stage::DispatchRun,
        Stage::Publish,
        Stage::Combine,
        Stage::WriteFlush,
    ] {
        assert!(stages.contains(&want), "missing {want:?} in {stages:?}");
    }
    // Tickets arrive in ring order.
    assert!(reply.trace.windows(2).all(|w| w[0].0 < w[1].0));

    // The server-side handle renders the same story. Counters that the
    // TELEMETRY exchange itself advances (frames, bytes, flushes) may only
    // grow; the request-mix counters must match exactly.
    let local = server.telemetry();
    for name in ["dispatched_jobs", "evictions"] {
        assert_eq!(local.counter(name), remote.counter(name), "{name}");
    }
    for name in [
        "publish_ns",
        "combine_ns",
        "tier_hit_segments",
        "tier_miss_segments",
    ] {
        assert_eq!(
            local.hist(name).map(|h| h.count),
            remote.hist(name).map(|h| h.count),
            "{name}"
        );
    }
    assert!(local.counter("frames_read") >= remote.counter("frames_read"));
    let local_text = local.render_text();
    let remote_text = remote.render_text();
    for line in [
        "recoil_dispatched_jobs 1",
        "# TYPE recoil_inline_serve_ns histogram",
    ] {
        assert!(local_text.contains(line), "local exposition missing {line}");
        assert!(
            remote_text.contains(line),
            "remote exposition missing {line}"
        );
    }

    // The drain consumed the ring: a second exchange reports only the
    // events generated since (the first reply's flush, this request).
    let again = client.remote_telemetry().unwrap();
    assert!(again.trace.len() < reply.trace.len());

    // Client-side instruments captured the streaming breakdown.
    let mine = client.telemetry().snapshot();
    let first = mine.hist("stream_first_segment_ns").unwrap();
    let total = mine.hist("stream_total_ns").unwrap();
    assert_eq!(first.count, 1);
    assert_eq!(total.count, 1);
    assert!(first.max <= total.max);

    server.shutdown();
}

/// `NetClient::stats` is a view of the node's TELEMETRY snapshot, at every
/// level (the ladder's nodes run at `Off` and read the rejected and evicted
/// connections there): it equals `StatsReply::from_snapshot` of a TELEMETRY
/// exchange taken right after it and of the in-process handle's snapshot,
/// and both are the facts of a known mix of traffic — a publish, a miss,
/// two hits and a request that fails — with two connections open and
/// nothing queued. Being a TELEMETRY exchange, at `Trace` it consumes the
/// buffered events: the drain after it holds none of that traffic.
#[test]
fn stats_and_telemetry_report_the_same_gauges() {
    for level in [
        TelemetryLevel::Off,
        TelemetryLevel::Counters,
        TelemetryLevel::Trace,
    ] {
        let server = start_server(level);
        let client = NetClient::connect(server.addr()).unwrap();
        let data = sample(60_000, 3);
        client
            .publish("movie", &data, &EncoderConfig::default())
            .unwrap();
        for _ in 0..3 {
            client.request("movie", 4).unwrap();
        }
        assert!(client.request("nope", 4).is_err());
        // A second open connection beside the client's pooled one.
        let _second = raw_hello(server.addr());

        let reply = client.stats().unwrap();
        let remote = client.remote_telemetry().unwrap();
        let view = StatsReply::from_snapshot(&remote.snapshot).unwrap();
        assert_eq!(view, reply, "{level:?}");
        let local = StatsReply::from_snapshot(&server.telemetry()).unwrap();
        assert_eq!(local, reply, "{level:?}");

        let StatsReply { stats, items } = reply;
        assert_eq!(
            (
                stats.publishes,
                stats.requests,
                stats.cache_hits,
                stats.cache_misses,
                items
            ),
            (1, 4, 2, 1, 1),
            "{level:?}"
        );
        let open = NetConfig::default().max_connections as u64 - 2;
        assert_eq!(
            (
                stats.active_connections,
                stats.queue_depth,
                stats.open_slots
            ),
            (2, 0, open),
            "{level:?}"
        );
        assert_eq!(
            (stats.rejected_connections, stats.evicted_connections),
            (0, 0),
            "{level:?}"
        );

        let stages: Vec<Stage> = remote.trace.iter().map(|(_, ev)| ev.stage).collect();
        for gone in [Stage::Publish, Stage::DispatchRun, Stage::Combine] {
            assert!(!stages.contains(&gone), "{level:?}: {stages:?}");
        }
        let traced = level == TelemetryLevel::Trace;
        assert_eq!(stages.contains(&Stage::FrameRead), traced, "{stages:?}");
        server.shutdown();
    }
}

/// The TELEMETRY frame is part of the protocol, not of a level: an
/// `Off`-level server still answers it — with an `off` snapshot.
#[test]
fn an_off_server_answers_telemetry_with_an_off_snapshot() {
    let quiet = start_server(TelemetryLevel::Off);
    let client = NetClient::connect_with(
        quiet.addr(),
        NetClientConfig {
            telemetry: TelemetryLevel::Off,
            ..NetClientConfig::default()
        },
    )
    .unwrap();
    let reply = client.remote_telemetry().unwrap();
    assert_eq!(reply.snapshot.level, TelemetryLevel::Off);
    assert!(reply.trace.is_empty());
    quiet.shutdown();
}
