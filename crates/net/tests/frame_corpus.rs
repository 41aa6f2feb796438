//! Deterministic adversarial corpus for the frame parser and the chunked
//! transfer path.
//!
//! Three layers of abuse, all seeded and reproducible:
//!
//! 1. **Parser corpus** — `read_frame` over in-memory byte strings:
//!    truncated headers at every cut, length fields at and over the 64 MiB
//!    cap, unknown type bytes, garbage payloads.
//! 2. **Live server corpus** — the same shapes thrown at a real
//!    [`NetServer`] socket: the server must answer with typed ERROR frames
//!    (or close cleanly on mid-frame hangups) and keep serving well-behaved
//!    clients afterwards — never panic.
//! 3. **Hostile server replays** — a fake server replays captured
//!    TRANSMIT/CHUNK exchanges with a corrupted chunk byte, a truncated
//!    chunk stream, or a mid-stream disconnect; both the buffered and the
//!    streaming client paths must fail with a typed [`RecoilError`], never
//!    hang or misdecode — nor reserve more than a header may make them.

use recoil_core::backend::{preferred_segments, AutoBackend};
use recoil_core::codec::EncoderConfig;
use recoil_core::{
    metadata_to_bytes, model_block, try_combine_splits, write_item_section, Codec, RecoilError,
    RecoilMetadata, MAX_RESERVED_WORDS,
};
use recoil_net::raw::{read_frame, write_frame, PayloadWriter, ReadOutcome};
use recoil_net::{
    FrameType, Hello, NetClient, NetClientConfig, NetConfig, NetServer, NetServerHandle,
    TransmitHeader, WordStore, MAX_FRAME_LEN,
};
use recoil_server::ContentServer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sample(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
        .collect()
}

/// The deterministic corpus: (name, raw bytes as they would hit the parser
/// after HELLO).
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let mut entries: Vec<(&'static str, Vec<u8>)> = Vec::new();

    // Unknown frame types, including the extremes.
    for ty in [0x00u8, 0x0B, 0x7F, 0xAB, 0xFF] {
        let mut b = vec![ty];
        b.extend_from_slice(&4u32.to_le_bytes());
        b.extend_from_slice(&[1, 2, 3, 4]);
        entries.push(("unknown type", b));
    }

    // The retired STATS (0x07) and STATS_REPLY (0x08) bytes are unknown now.
    for ty in [0x07u8, 0x08] {
        let mut b = vec![ty];
        b.extend_from_slice(&0u32.to_le_bytes());
        entries.push(("retired stats type", b));
    }

    // A TELEMETRY request must carry an empty payload.
    let mut fat_telemetry = Vec::new();
    write_frame(&mut fat_telemetry, FrameType::Telemetry, &[1, 2, 3, 4]).unwrap();
    entries.push(("telemetry with unexpected payload", fat_telemetry));

    // Length field exactly at the cap, but the payload never arrives.
    let mut at_cap = vec![FrameType::Request as u8];
    at_cap.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    at_cap.extend_from_slice(&[0; 64]);
    entries.push(("length at cap, truncated payload", at_cap));

    // Length fields over the cap — rejected before any allocation.
    for over in [MAX_FRAME_LEN + 1, u32::MAX / 2, u32::MAX] {
        let mut b = vec![FrameType::Chunk as u8];
        b.extend_from_slice(&over.to_le_bytes());
        entries.push(("length over cap", b));
    }

    // A parseable frame type whose payload is garbage for its codec.
    let mut bad_payload = Vec::new();
    write_frame(&mut bad_payload, FrameType::Request, &[0xFF; 13]).unwrap();
    entries.push(("request with garbage payload", bad_payload));

    // Protocol-violating but well-framed messages from a client.
    for ty in [
        FrameType::PublishOk,
        FrameType::Transmit,
        FrameType::Chunk,
        FrameType::TelemetryReply,
        FrameType::Error,
    ] {
        let mut b = Vec::new();
        write_frame(&mut b, ty, &[0, 0, 0, 0]).unwrap();
        entries.push(("server-only frame from client", b));
    }

    entries
}

#[test]
fn parser_rejects_the_corpus_without_panicking() {
    for (_what, bytes) in corpus() {
        let mut r = &bytes[..];
        // Drain the reader: every outcome must be a clean value or a typed
        // error, never a panic. (Protocol-violating frames *parse* fine here;
        // the server layer rejects them.)
        while let Ok(ReadOutcome::Frame(..)) = read_frame(&mut r) {}
    }

    // Truncated headers: every strict prefix of a valid frame must fail (or
    // report EOF at the empty cut), never panic.
    let mut valid = Vec::new();
    write_frame(&mut valid, FrameType::Publish, b"0123456789abcdef").unwrap();
    for cut in 0..valid.len() {
        let mut r = &valid[..cut];
        match read_frame(&mut r) {
            Ok(ReadOutcome::Eof) => assert_eq!(cut, 0, "only the empty prefix is EOF"),
            Err(_) => assert!(cut > 0),
            other => panic!("cut {cut}: unexpected {other:?}"),
        }
    }
}

/// Server on an ephemeral loopback port with fast test timeouts.
fn start_server() -> NetServerHandle {
    NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            workers: 3,
            read_timeout: Duration::from_millis(50),
            ..NetConfig::default()
        },
    )
    .unwrap()
}

/// Raw-socket HELLO exchange.
fn raw_hello(addr: SocketAddr) -> TcpStream {
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
fn live_server_survives_the_corpus_and_keeps_serving() {
    let server = start_server();
    let data = sample(50_000, 1);
    let client = NetClient::connect(server.addr()).unwrap();
    client
        .publish("survivor", &data, &EncoderConfig::default())
        .unwrap();

    for (what, bytes) in corpus() {
        let mut conn = raw_hello(server.addr());
        conn.write_all(&bytes).unwrap();
        if what.starts_with("length at cap") {
            // The server is now waiting for 64 MiB that will never come;
            // hang up instead of waiting out its stalled-peer budget.
            drop(conn);
        } else {
            // Either a typed ERROR frame or a clean close; the assertion is
            // that the exchange terminates and the server lives on.
            let _ = drain_to_eof(&mut conn);
        }

        // The server still serves a well-behaved client after each entry.
        assert_eq!(
            client.fetch_and_decode("survivor", 8).unwrap(),
            data,
            "server degraded after corpus entry: {what}"
        );
    }

    // Mid-frame disconnects at assorted cuts of a valid REQUEST frame.
    let mut valid = Vec::new();
    write_frame(&mut valid, FrameType::Request, &[9; 40]).unwrap();
    for cut in [1usize, 5, 6, 20, valid.len() - 1] {
        let mut conn = raw_hello(server.addr());
        conn.write_all(&valid[..cut]).unwrap();
        drop(conn);
    }
    assert_eq!(client.fetch_and_decode("survivor", 8).unwrap(), data);
    server.shutdown();
}

/// Captures the full frame sequence (TRANSMIT + CHUNKs) a real server sends
/// for one request, as raw on-the-wire bytes.
fn capture_transmission(name: &str, data: &[u8], chunk_bytes: usize) -> Vec<u8> {
    let server = NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            chunk_bytes,
            read_timeout: Duration::from_millis(50),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let publisher = NetClient::connect(server.addr()).unwrap();
    publisher
        .publish(name, data, &EncoderConfig::default())
        .unwrap();

    let mut conn = raw_hello(server.addr());
    let mut req = recoil_net::raw::PayloadWriter::new();
    req.name(name);
    req.u64(16);
    write_frame(&mut conn, FrameType::Request, &req.0).unwrap();

    // Read the TRANSMIT + every CHUNK, re-serializing them verbatim.
    let mut raw = Vec::new();
    let mut chunks_left = None;
    loop {
        match read_frame(&mut conn).unwrap() {
            ReadOutcome::Frame(FrameType::Transmit, payload) => {
                let (header, ..) = recoil_net::TransmitHeader::decode(&payload).unwrap();
                chunks_left = Some(header.chunk_count);
                write_frame(&mut raw, FrameType::Transmit, &payload).unwrap();
            }
            ReadOutcome::Frame(FrameType::Chunk, payload) => {
                write_frame(&mut raw, FrameType::Chunk, &payload).unwrap();
                let left = chunks_left.as_mut().unwrap();
                *left -= 1;
                if *left == 0 {
                    break;
                }
            }
            ReadOutcome::Idle => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
    raw
}

/// A fake server that completes HELLO + swallows one REQUEST per
/// connection, then replays `script` verbatim and closes. Serves up to
/// `conns` connections so the client's one-shot retry also sees the replay.
fn hostile_server(script: Vec<u8>, conns: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        for _ in 0..conns {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            // HELLO negotiation.
            match read_frame(&mut conn) {
                Ok(ReadOutcome::Frame(FrameType::Hello, _)) => {}
                _ => continue,
            }
            if write_frame(&mut conn, FrameType::Hello, &Hello::ours().encode()).is_err() {
                continue;
            }
            // Wait for a REQUEST (the pooled probe connection may be dropped
            // without one; that is fine).
            match read_frame(&mut conn) {
                Ok(ReadOutcome::Frame(FrameType::Request, _)) => {}
                _ => continue,
            }
            let _ = conn.write_all(&script);
            // Half-close and linger briefly so the bytes flush before RST.
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let mut sink = [0u8; 1024];
            while let Ok(n) = conn.read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
        }
    });
    (addr, handle)
}

/// Unblocks any accept slots the hostile server still holds, then joins it.
fn finish_hostile(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    while !handle.is_finished() {
        drop(TcpStream::connect(addr));
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().unwrap();
}

/// Byte ranges of the non-empty CHUNK bodies in a captured frame sequence
/// (past each frame header and 4-byte sequence number).
fn chunk_bodies(raw: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut at = 0usize;
    let mut bodies = Vec::new();
    while at + 5 <= raw.len() {
        let ty = raw[at];
        let len = u32::from_le_bytes(raw[at + 1..at + 5].try_into().unwrap()) as usize;
        let end = at + 5 + len;
        if ty == FrameType::Chunk as u8 && len > 4 {
            bodies.push(at + 9..end);
        }
        at = end;
    }
    bodies
}

#[test]
fn crc_corrupted_chunk_stream_is_a_typed_error_on_both_paths() {
    let data = sample(120_000, 2);
    let good = capture_transmission("movie", &data, 8 * 1024);
    let bodies = chunk_bodies(&good);
    assert!(bodies.len() > 1, "several chunks with a body");
    let payload: Vec<u8> = bodies
        .iter()
        .flat_map(|b| &good[b.clone()])
        .copied()
        .collect();

    // The last byte of the last chunk, and the first body byte of the first
    // chunk — the one adjacent to the sequence prefix the client strips.
    // Each as (offset in the capture, offset in the reassembled payload).
    let last = (bodies[bodies.len() - 1].end - 1, payload.len() - 1);
    let first = (bodies[0].start, 0);
    for (flip_at, payload_at) in [last, first] {
        let mut evil = good.clone();
        evil[flip_at] ^= 0x40;

        for streaming in [false, true] {
            let (addr, handle) = hostile_server(evil.clone(), 4);
            let client = NetClient::connect(addr).unwrap();
            let got = if streaming {
                client
                    .fetch_and_decode_streaming("movie", 16)
                    .map(|s| s.data)
            } else {
                client.fetch_and_decode("movie", 16)
            };
            match got {
                // The reassembled-payload CRC catches the flip, with the
                // verdict a container's words get…
                Err(RecoilError::Wire { detail }) => {
                    assert!(
                        detail.contains("checksum"),
                        "streaming={streaming}: {detail}"
                    )
                }
                // …unless (streaming only) the already-dispatched decode of the
                // corrupt segment trips a typed decode error first. Both are
                // clean typed failures; silence or wrong bytes would be the bug.
                Err(RecoilError::Decode(_)) if streaming => {}
                other => panic!("streaming={streaming}: expected CRC failure, got {other:?}"),
            }
            drop(client);
            finish_hostile(addr, handle);
        }

        // `FetchSession` owns the payload check: the bodies it hands out
        // are the wire bytes exactly — nothing of the prefix left in or of
        // the body cut off — and on the flipped capture the body that would
        // complete the stream is withheld for the checksum error instead.
        for (script, flipped) in [(&good, false), (&evil, true)] {
            let (addr, handle) = hostile_server(script.clone(), 4);
            // No probe connection: the replay server takes one connection
            // at a time, and the session dials its own.
            let client = NetClient::connect_lazy(addr, NetClientConfig::default()).unwrap();
            let mut session = client.start_fetch("movie", 16, 0).unwrap();
            let mut got = Vec::new();
            let mut failure = None;
            while session.remaining_chunks() > 0 {
                match session.next_chunk() {
                    Ok(body) => got.extend_from_slice(&body),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            if flipped {
                match failure {
                    Some(RecoilError::Wire { detail }) => {
                        assert!(detail.contains("checksum"), "{detail}")
                    }
                    other => panic!("expected the session's checksum error, got {other:?}"),
                }
                // Everything before the withheld last body was delivered.
                let delivered = payload.len() - bodies[bodies.len() - 1].len();
                assert_eq!(got.len(), delivered);
                let differing: Vec<usize> =
                    (0..delivered).filter(|&i| got[i] != payload[i]).collect();
                // …flip included, when it sat in a delivered body.
                let expect = Some(payload_at).filter(|&at| at < delivered);
                assert_eq!(differing, Vec::from_iter(expect));
            } else {
                assert!(failure.is_none(), "{failure:?}");
                assert_eq!(got, payload);
                assert_eq!(recoil_core::crc32(&got), session.header.payload_crc);
            }
            drop((session, client));
            finish_hostile(addr, handle);
        }
    }
}

/// A CHUNK *header* is a claim about bytes that may never come. Inside a
/// transfer the client knows what is still owed, and holds the header to
/// it before it makes room: a node that announces a small stream and then
/// a 64 MiB chunk is refused on the header — and so is a 64 MiB ERROR in a
/// chunk's place, which an honest node fills with a sentence. The script
/// ends there — not one payload byte behind it — so a client that sized a
/// buffer from the header and went on to read would report the hangup, not
/// the overrun.
#[test]
fn an_oversized_chunk_header_is_refused_before_its_payload() {
    let data = sample(600, 5);
    let good = capture_transmission("movie", &data, 8 * 1024);
    // The TRANSMIT frame alone, then the lie.
    let transmit_len = 5 + u32::from_le_bytes(good[1..5].try_into().unwrap()) as usize;
    assert_eq!(good[0], FrameType::Transmit as u8);
    let (header, ..) = recoil_net::TransmitHeader::decode(&good[5..transmit_len]).unwrap();
    assert!(
        header.word_bytes < 1024,
        "a small stream: {}",
        header.word_bytes
    );
    for (lie, refusal) in [
        (FrameType::Chunk, "owes at most"),
        (FrameType::Error, "announced mid-transfer"),
    ] {
        let mut evil = good[..transmit_len].to_vec();
        evil.push(lie as u8);
        evil.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());

        for streaming in [false, true] {
            // The failure is the connection's, so the client spends its
            // retry budget on it: the probe, the first attempt, the free
            // redial and two retries.
            let (addr, handle) = hostile_server(evil.clone(), 6);
            let client = NetClient::connect(addr).unwrap();
            let started = std::time::Instant::now();
            let got = if streaming {
                client
                    .fetch_and_decode_streaming("movie", 16)
                    .map(|s| s.data)
            } else {
                client.fetch_and_decode("movie", 16)
            };
            match got {
                Err(RecoilError::Net { detail }) => assert!(
                    detail.contains(refusal) && detail.contains(&MAX_FRAME_LEN.to_string()),
                    "{lie:?}, streaming={streaming}: {detail}"
                ),
                other => {
                    panic!("{lie:?}, streaming={streaming}: expected a refusal, got {other:?}")
                }
            }
            // Nobody waited for 64 MiB to arrive.
            assert!(started.elapsed() < Duration::from_secs(5));
            drop(client);
            finish_hostile(addr, handle);
        }
    }

    // The same header one byte inside what is owed is a frame like any
    // other: the session reads on and fails on the missing payload instead.
    let mut honest = good[..transmit_len].to_vec();
    honest.push(FrameType::Chunk as u8);
    honest.extend_from_slice(&(header.word_bytes as u32 + 4).to_le_bytes());
    let (addr, handle) = hostile_server(honest, 1);
    let client = NetClient::connect_lazy(addr, NetClientConfig::default()).unwrap();
    let mut session = client.start_fetch("movie", 16, 0).unwrap();
    match session.next_chunk() {
        Err(RecoilError::Net { detail }) => assert!(detail.contains("mid-frame"), "{detail}"),
        other => panic!("expected a hangup mid-frame, got {other:?}"),
    }
    drop((session, client));
    finish_hostile(addr, handle);
}

/// Every CHUNK body is whole words, and a RESUME offset is a word offset:
/// a body that ends mid-word is a protocol violation, refused on its length
/// before a byte of it lands, and so is a frame too short to hold its
/// sequence number. Each lie is the one CHUNK after an honest TRANSMIT, and
/// each is a typed `Net` error on the buffered, the streaming and the
/// driven path alike.
#[test]
fn a_chunk_body_that_ends_mid_word_is_refused_on_every_path() {
    let data = sample(60_000, 8);
    let good = capture_transmission("movie", &data, 8 * 1024);
    let transmit_len = 5 + u32::from_le_bytes(good[1..5].try_into().unwrap()) as usize;
    assert_eq!(good[0], FrameType::Transmit as u8);
    // The first CHUNK's sequence number and its body less one byte.
    let first = chunk_bodies(&good)[0].clone();
    let mut odd = Vec::new();
    write_frame(
        &mut odd,
        FrameType::Chunk,
        &good[first.start - 4..first.end - 1],
    )
    .unwrap();
    let mut short = Vec::new();
    write_frame(&mut short, FrameType::Chunk, &[0, 0]).unwrap();

    for (lie, refusal) in [(odd, "mid-word"), (short, "frame of 2 bytes")] {
        let mut evil = good[..transmit_len].to_vec();
        evil.extend_from_slice(&lie);
        for path in ["request", "fetch_and_decode_streaming", "next_chunk"] {
            // Enough replays for the retry budget the first two spend.
            let (addr, handle) = hostile_server(evil.clone(), 6);
            let client = NetClient::connect_lazy(addr, NetClientConfig::default()).unwrap();
            let got = match path {
                "request" => client.request("movie", 16).map(drop),
                "fetch_and_decode_streaming" => {
                    client.fetch_and_decode_streaming("movie", 16).map(drop)
                }
                _ => client
                    .start_fetch("movie", 16, 0)
                    .and_then(|mut session| session.next_chunk())
                    .map(drop),
            };
            match got {
                Err(RecoilError::Net { detail }) => {
                    assert!(detail.contains(refusal), "{path}: {detail}")
                }
                other => panic!("{path}: expected a typed Net refusal, got {other:?}"),
            }
            drop(client);
            finish_hostile(addr, handle);
        }
    }
}

#[test]
fn mid_stream_disconnect_is_a_typed_error_not_a_hang() {
    let data = sample(150_000, 3);
    let good = capture_transmission("movie", &data, 4 * 1024);

    // Truncate the replay in the middle of the chunk sequence — the server
    // vanishes after a few chunks.
    let cut = good.len() / 3;
    let truncated = good[..cut].to_vec();

    for streaming in [false, true] {
        let (addr, handle) = hostile_server(truncated.clone(), 4);
        let client = NetClient::connect(addr).unwrap();
        let got = if streaming {
            client
                .fetch_and_decode_streaming("movie", 16)
                .map(|s| s.data)
        } else {
            client.fetch_and_decode("movie", 16)
        };
        assert!(
            matches!(got, Err(RecoilError::Net { .. })),
            "streaming={streaming}: expected typed Net error, got {got:?}"
        );
        drop(client);
        finish_hostile(addr, handle);
    }
}

#[test]
fn tampered_transmit_headers_are_rejected() {
    let data = sample(60_000, 4);
    let good = capture_transmission("movie", &data, 8 * 1024);

    // The TRANSMIT payload begins after the 5-byte frame header; corrupt a
    // byte inside the serialized shrunk metadata (its CRC footer catches
    // it) — offset 40 lands in the metadata blob for this capture.
    let mut evil = good.clone();
    evil[40] ^= 0xFF;
    let (addr, handle) = hostile_server(evil, 4);
    let client = NetClient::connect(addr).unwrap();
    let got = client.fetch_and_decode("movie", 16);
    assert!(got.is_err(), "corrupted header must not decode: {got:?}");
    drop(client);
    finish_hostile(addr, handle);
}

/// A TRANSMIT is a claim about a stream that may never come. One that
/// declares 2^30 words (2 GiB) and then closes the connection costs a
/// client a typed error and at most the header's bounded reservation: for
/// a stream of one decode batch and one wider than a batch, in a fresh word
/// store and in one kept from a real 5 MiB fetch, which the header must not
/// grow.
#[test]
fn a_huge_declared_stream_reserves_no_more_than_the_bound() {
    const DECLARED_WORDS: u64 = 1 << 30;
    let backend = AutoBackend::with_threads(2);
    let batch = preferred_segments(&backend);
    // An honest item's metadata, combined to a width and inflated to
    // 2^30 words; everything else in the section is the item's own.
    let enc = Codec::builder()
        .max_segments(64)
        .build()
        .unwrap()
        .encode(&sample(200_000, 6))
        .unwrap();
    assert!(batch < 64, "the item is wider than one batch");
    let hostile = |segments: u64| -> Vec<u8> {
        let metadata = RecoilMetadata {
            num_words: DECLARED_WORDS,
            ..try_combine_splits(&enc.container.metadata, segments).unwrap()
        };
        assert_eq!(metadata.num_segments(), segments);
        let mut w = PayloadWriter::new();
        w.u64(segments);
        w.u8(0);
        w.u64(0);
        write_item_section(
            &mut w.0,
            &metadata_to_bytes(&metadata),
            &model_block(enc.model.table(), &enc.container.stream.final_states),
            0,
        );
        w.u32(1 << 20);
        let (header, ..) = TransmitHeader::decode(&w.0).expect("a well-formed lie");
        assert_eq!(header.word_bytes, 2 * DECLARED_WORDS);
        let mut script = Vec::new();
        write_frame(&mut script, FrameType::Transmit, &w.0).unwrap();
        script
    };

    // A store kept from a real 5 MiB fetch: 2.5 Mi words, so the doubling
    // that received them went past the stream's size.
    let kept = WordStore::default();
    let received_words = {
        let server = NetServer::bind(
            Arc::new(ContentServer::new()),
            "127.0.0.1:0",
            NetConfig {
                workers: 2,
                chunk_bytes: 64 * 1024,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let data = sample(5 << 20, 7);
        let client = NetClient::connect(server.addr()).unwrap();
        client
            .publish("movie", &data, &EncoderConfig::default())
            .unwrap();
        let session = client.start_fetch("movie", 2, 0).unwrap();
        let words = session.header.word_bytes / 2;
        let fetched = session
            .decode_streaming(
                &backend,
                client.telemetry(),
                &kept,
                Instant::now(),
                |_, e| Err(e),
            )
            .unwrap();
        assert_eq!(fetched.data, data);
        server.shutdown();
        words
    };
    // Kept at the stream's size: what the fetch received, not the
    // doubling that received it.
    let kept_capacity = kept.capacity();
    assert!(kept_capacity > MAX_RESERVED_WORDS);
    assert_eq!(kept_capacity as u64, received_words);

    for segments in [1, batch + 1] {
        let what = format!("{segments} segments, a batch of {batch}");
        let (addr, handle) = hostile_server(hostile(segments), 16);
        // Through the client, under its retry policy, on both paths.
        let client = NetClient::connect(addr)
            .unwrap()
            .with_backend(AutoBackend::with_threads(2));
        let got = client.fetch_and_decode_streaming("movie", segments);
        assert!(
            matches!(got, Err(RecoilError::Net { .. })),
            "{what}: expected a typed Net error, got {got:?}"
        );
        let got = client.fetch_and_decode("movie", segments);
        assert!(
            matches!(got, Err(RecoilError::Net { .. })),
            "{what}: {got:?}"
        );

        // Into a fresh store, which the header grows to the bound at most,
        // and into the kept one, where it reserves nothing.
        let fresh = WordStore::default();
        for store in [&fresh, &kept] {
            let got = client
                .start_fetch("movie", segments, 0)
                .unwrap()
                .decode_streaming(
                    &backend,
                    client.telemetry(),
                    store,
                    Instant::now(),
                    |_, e| Err(e),
                );
            assert!(
                matches!(got, Err(RecoilError::Net { .. })),
                "{what}: expected a typed Net error, got {got:?}"
            );
        }
        assert!(fresh.capacity() <= MAX_RESERVED_WORDS, "{what}: {fresh:?}");
        assert_eq!(kept.capacity(), kept_capacity, "{what}");
        drop(client);
        finish_hostile(addr, handle);
    }
}
