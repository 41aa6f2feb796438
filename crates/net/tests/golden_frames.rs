//! Golden wire bytes: one fixed item driven through `NetClient` and a real
//! `NetServer`, with a recording relay between them, and the CRC-32 of one
//! frame of every payload-carrying type pinned.
//!
//! Both ends are the production encoders (nothing here builds a payload by
//! hand), so a change to either side of any message changes a CRC below.
//! The test uses only the high-level client API on purpose: it must keep
//! compiling, unchanged, across refactors of the message types.

use recoil_core::codec::EncoderConfig;
use recoil_core::crc32;
use recoil_net::raw::{read_frame, ReadOutcome};
use recoil_net::{FrameType, NetClient, NetConfig, NetServer};
use recoil_server::ContentServer;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

/// Both directions of one relayed connection, as the bytes crossed it.
#[derive(Default)]
struct Recording {
    to_server: Mutex<Vec<u8>>,
    to_client: Mutex<Vec<u8>>,
}

/// Copies `from` to `to` until EOF, recording every byte *before* it is
/// forwarded — whoever has read a reply can rely on it being recorded.
fn pipe(mut from: TcpStream, mut to: TcpStream, record: impl Fn(&[u8])) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                record(&buf[..n]);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// A relay in front of `upstream`; connections are recorded in accept order.
fn record_in_front_of(upstream: SocketAddr) -> (SocketAddr, Arc<Mutex<Vec<Arc<Recording>>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let recordings = Arc::new(Mutex::new(Vec::new()));
    let shared = Arc::clone(&recordings);
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(client) = client else { return };
            let server = TcpStream::connect(upstream).unwrap();
            let _ = client.set_nodelay(true);
            let _ = server.set_nodelay(true);
            let recording = Arc::new(Recording::default());
            shared.lock().unwrap().push(Arc::clone(&recording));
            let (c2, s2, r2) = (
                client.try_clone().unwrap(),
                server.try_clone().unwrap(),
                Arc::clone(&recording),
            );
            std::thread::spawn(move || {
                pipe(client, server, |b| {
                    recording.to_server.lock().unwrap().extend_from_slice(b)
                })
            });
            std::thread::spawn(move || {
                pipe(s2, c2, |b| {
                    r2.to_client.lock().unwrap().extend_from_slice(b)
                })
            });
        }
    });
    (addr, recordings)
}

/// Splits a recorded byte stream into `(type, whole frame bytes)`.
fn frames(stream: &[u8]) -> Vec<(FrameType, &[u8])> {
    let mut rest = stream;
    let mut out = Vec::new();
    loop {
        let before = rest;
        match read_frame(&mut rest).unwrap() {
            ReadOutcome::Frame(ty, _) => out.push((ty, &before[..before.len() - rest.len()])),
            ReadOutcome::Eof => return out,
            ReadOutcome::Idle => unreachable!("a slice never times out"),
        }
    }
}

/// The `nth` recorded frame of type `ty`.
fn nth<'a>(all: &[(FrameType, &'a [u8])], ty: FrameType, index: usize) -> &'a [u8] {
    all.iter()
        .filter(|(t, _)| *t == ty)
        .nth(index)
        .unwrap_or_else(|| panic!("no {ty:?} frame #{index} was recorded"))
        .1
}

/// The pinned part of a TELEMETRY_REPLY frame: frame header aside, the
/// level byte and the first fifteen `(name, value)` counter entries — the
/// instruments that exist today, all zero on an `Off`-level server (a
/// server never decodes, so its `decode_*` counters are zero at any
/// level). The series count between them is *not* pinned: instruments are
/// named on the wire so that the list may grow.
fn telemetry_prefix(frame: &[u8]) -> Vec<u8> {
    let payload = &frame[5..];
    let mut at = 3;
    for _ in 0..15 {
        let name_len = u16::from_le_bytes([payload[at], payload[at + 1]]) as usize;
        at += 2 + name_len + 8;
    }
    [&payload[..1], &payload[3..at]].concat()
}

#[test]
fn wire_bytes_of_every_message_are_pinned() {
    let server = NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            chunk_bytes: 4096,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let (relay, recordings) = record_in_front_of(server.addr());

    let data: Vec<u8> = (0..20_000u32)
        .map(|i| ((i.wrapping_add(5).wrapping_mul(2654435761)) >> 24) as u8 % 61)
        .collect();
    let config = EncoderConfig {
        max_segments: 8,
        ..EncoderConfig::default()
    };

    // Connection 0 (pooled): HELLO, PUBLISH, a miss, a hit, then two
    // TELEMETRY exchanges (the first is `stats()`, read as a view).
    let client = NetClient::connect(relay).unwrap();
    client.publish("golden", &data, &config).unwrap();
    let miss = client.request("golden", 4).unwrap();
    let hit = client.request("golden", 4).unwrap();
    assert!(!miss.cache_hit && hit.cache_hit);
    let stats = client.stats().unwrap();
    assert_eq!((stats.stats.requests, stats.items), (2, 1));
    client.remote_telemetry().unwrap();

    // Connection 1 (dedicated) dies after one chunk; connection 2 RESUMEs.
    let mut session = client.start_fetch("golden", 4, 0).unwrap();
    session.next_chunk().unwrap();
    assert!(session.words_received() > 0 && session.remaining_chunks() > 0);
    session.resume_on(&client).unwrap();
    while session.remaining_chunks() > 0 {
        session.next_chunk().unwrap();
    }

    let recordings = recordings.lock().unwrap();
    assert_eq!(recordings.len(), 3, "pooled + dedicated + resumed");
    let (up0, down0) = (
        recordings[0].to_server.lock().unwrap().clone(),
        recordings[0].to_client.lock().unwrap().clone(),
    );
    let up2 = recordings[2].to_server.lock().unwrap().clone();
    let (up0, down0, up2) = (frames(&up0), frames(&down0), frames(&up2));

    let telemetry = telemetry_prefix(nth(&down0, FrameType::TelemetryReply, 0));
    let got = [
        ("HELLO c>s", crc32(nth(&up0, FrameType::Hello, 0))),
        ("HELLO s>c", crc32(nth(&down0, FrameType::Hello, 0))),
        ("PUBLISH", crc32(nth(&up0, FrameType::Publish, 0))),
        ("PUBLISH_OK", crc32(nth(&down0, FrameType::PublishOk, 0))),
        ("REQUEST", crc32(nth(&up0, FrameType::Request, 0))),
        // The second TRANSMIT is the cache hit: no combine time in it.
        ("TRANSMIT", crc32(nth(&down0, FrameType::Transmit, 1))),
        ("CHUNK", crc32(nth(&down0, FrameType::Chunk, 0))),
        ("TELEMETRY_REPLY prefix", crc32(&telemetry)),
        ("RESUME", crc32(nth(&up2, FrameType::Resume, 0))),
    ];
    let want: [(&str, u32); 9] = [
        ("HELLO c>s", 0xC99F_A226),
        ("HELLO s>c", 0xC99F_A226),
        ("PUBLISH", 0x5286_01D0),
        ("PUBLISH_OK", 0xF0FA_7AD8),
        ("REQUEST", 0xCA49_76B8),
        ("TRANSMIT", 0x8DAC_06EC),
        ("CHUNK", 0x6EF6_6137),
        ("TELEMETRY_REPLY prefix", 0xBD85_CC19),
        ("RESUME", 0x0681_3624),
    ];
    assert_eq!(got, want, "wire bytes changed: {got:#010X?}");
    server.shutdown();
}
