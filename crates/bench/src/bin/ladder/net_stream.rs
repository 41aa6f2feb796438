//! Workload `net_stream`: the client's view. One client streams a 4 MiB
//! item at width 2 — its own core count, the paper's adaptive case — over
//! loopback, back to back. Bytes dominate: `net` chunking,
//! `core::incremental` and `simd`; `server` does one cached lookup.
//!
//! Op: `NetClient::fetch_and_decode_streaming(name, 2)`, request start to
//! all bytes decoded and CRC-checked. Every 16th fetch the same 4 MiB is
//! published over the wire under a second name, beside the reads.
//!
//! Widths 1, 16 and 256 and a buffered, undecoded request are sampled
//! every 8th fetch, into per-layer metrics only: at width 16, two decode
//! threads plus reactor plus client on 2 cores spread 14 %.

use crate::harness::{primary_readings, Check, Ctx, Reading, Trial};
use crate::netutil::{bind, probe_connect, socket_readings, Republish};
use crate::stats::Samples;
use crate::trace::{timed, Tracer};
use recoil::net::{NetClient, NetConfig};
use recoil::prelude::*;
use std::time::Instant;

const ITEM_BYTES: usize = 4 << 20;
const ENTROPY_BITS: f64 = 5.1;
const MAX_SEGMENTS: u64 = 256;
const CHUNK_BYTES: usize = 64 << 10;
const WIDTH: u64 = 2;
const NAME: &str = "item";
const SIDE_EVERY: u64 = 8;
const PUBLISH_EVERY: u64 = 16;
const CONNECT_EVERY: u64 = 64;

#[derive(Default)]
struct Series {
    fetch: Samples,
    ttfs: Samples,
    transfer: Samples,
    decode_tail: Samples,
    buffered: Samples,
    ttfs_w16: Samples,
    ttfs_w256: Samples,
    fetch_w1: Samples,
    connect: Samples,
    publish: Samples,
    chunks: u64,
    wire_bytes: u64,
}

/// One streaming fetch, timed from outside and checked against `data`.
fn fetch(
    tr: &mut Option<Tracer>,
    check: &mut Check,
    op: u64,
    client: &NetClient,
    width: u64,
    data: &[u8],
) -> Option<(StreamedFetch, u64)> {
    let (fetched, ns) = timed(tr, "net.fetch_and_decode_streaming", op, || {
        client.fetch_and_decode_streaming(NAME, width)
    });
    let fetched = check.ok("fetch_and_decode_streaming", fetched)?;
    check.also(fetched.data == data, || {
        format!("width {width} streamed other bytes")
    });
    Some((fetched, ns))
}

/// The same fetch driven one layer down, so the wire, the word buffer and
/// the decode kernel each get a span of their own. Traced trials only.
fn driven_fetch(
    tr: &mut Option<Tracer>,
    check: &mut Check,
    op: u64,
    client: &NetClient,
    data: &[u8],
) {
    let backend = client.backend();
    let parent = tr.as_mut().map(|t| t.begin("bench.driven_fetch", op));
    let run = |tr: &mut Option<Tracer>| -> Result<Vec<u8>, RecoilError> {
        let mut session = timed(tr, "net.start_fetch", op, || {
            client.start_fetch(NAME, WIDTH, 0)
        })
        .0?;
        let mut incr = timed(tr, "core.IncrementalDecoder::new", op, || {
            IncrementalDecoder::new(
                session.metadata.clone(),
                session.header.final_states.clone(),
                session.model.clone(),
            )
        })
        .0?;
        let mut out = Vec::new();
        while session.remaining_chunks() > 0 {
            let body = timed(tr, "net.next_chunk", op, || session.next_chunk()).0?;
            timed(tr, "core.push_bytes", op, || incr.push_bytes(&body)).0?;
            out.resize(incr.ready_symbols(), 0u8);
            timed(tr, "simd.decode_ready_segments", op, || {
                incr.decode_ready_segments(backend, &mut out)
            })
            .0?;
        }
        Ok(out)
    };
    let decoded = run(tr);
    if let (Some(t), Some(id)) = (tr.as_mut(), parent) {
        t.end(id);
    }
    let decoded = check.ok("driven fetch", decoded);
    check.also(decoded.is_some_and(|d| d == data), || {
        "the driven fetch decoded other bytes".into()
    });
}

pub fn trial(ctx: &mut Ctx) -> Trial {
    let t_setup = Instant::now();
    let mut check = Check::default();
    let data = recoil::data::text_like_bytes(ITEM_BYTES, ENTROPY_BITS, ctx.seed);
    let config = EncoderConfig {
        max_segments: MAX_SEGMENTS,
        ..EncoderConfig::default()
    };
    let server = bind(NetConfig {
        chunk_bytes: CHUNK_BYTES,
        ..NetConfig::default()
    });
    let client = NetClient::connect(server.addr())
        .expect("dialling a server just bound")
        .with_backend(AutoBackend::with_threads(ctx.nproc));
    let published = client
        .publish(NAME, &data, &config)
        .expect("publishing a fresh name");
    let republish = Republish {
        server: &server,
        client: &client,
        name: "beside",
        data: &data,
        config: &config,
        stream_bytes: published.stream_bytes,
    };
    // Warm-up: every width the loop asks for, so each tier is cached.
    for width in [WIDTH, WIDTH, 1, 16, 256] {
        fetch(&mut None, &mut check, 0, &client, width, &data);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut s = Series::default();
    let tr = &mut ctx.tracer;
    let deadline = Instant::now() + ctx.budget;
    let mut n = 0u64;
    while Instant::now() < deadline {
        n += 1;
        let op = (ctx.trial as u64) << 32 | n;
        if let Some((f, ns)) = fetch(tr, &mut check, op, &client, WIDTH, &data) {
            s.fetch.push(ns);
            s.ttfs.push(f.first_segment_nanos);
            s.transfer.push(f.transfer_nanos);
            s.decode_tail
                .push(f.total_nanos.saturating_sub(f.transfer_nanos));
            s.chunks += u64::from(f.chunk_count);
            s.wire_bytes = f.total_bytes;
        }
        if n.is_multiple_of(SIDE_EVERY) {
            match (n / SIDE_EVERY) % 4 {
                0 => {
                    if let Some((f, _)) = fetch(tr, &mut check, op, &client, 16, &data) {
                        s.ttfs_w16.push(f.first_segment_nanos);
                    }
                }
                1 => {
                    if let Some((f, _)) = fetch(tr, &mut check, op, &client, 256, &data) {
                        s.ttfs_w256.push(f.first_segment_nanos);
                    }
                }
                2 => {
                    if let Some((_, ns)) = fetch(tr, &mut check, op, &client, 1, &data) {
                        s.fetch_w1.push(ns);
                    }
                }
                _ => {
                    let (content, ns) =
                        timed(tr, "net.request", op, || client.request(NAME, WIDTH));
                    s.buffered.push(ns);
                    let decoded = check
                        .ok("request", content)
                        .and_then(|c| c.decode_with(client.backend()).ok());
                    check.also(decoded.is_some_and(|d| d == data), || {
                        "the buffered reply decoded other bytes".into()
                    });
                }
            }
        }
        if n % PUBLISH_EVERY == PUBLISH_EVERY / 2 {
            republish.run(tr, &mut check, op, &mut s.publish);
            if tr.is_some() {
                driven_fetch(tr, &mut check, op, &client, &data);
            }
        }
        if n % CONNECT_EVERY == 1 {
            probe_connect(tr, &mut check, op, server.addr(), &mut s.connect);
        }
    }

    let fetches = s.fetch.len().max(1) as f64;
    let mut readings = primary_readings(&mut s.fetch).to_vec();
    let goodput = readings[0].value * ITEM_BYTES as f64 / 1e6;
    readings.extend(socket_readings(
        &mut check,
        &client,
        &mut s.connect,
        &mut s.publish,
    ));
    readings.extend([
        Reading::exact("setup_s", setup_s),
        Reading::exact("size_pct", 100.0 * s.wire_bytes as f64 / ITEM_BYTES as f64),
        Reading::exact("net.goodput_mb_s", goodput),
        Reading::quantile("net.ttfs_ms_p50", &mut s.ttfs, 0.5, 1e6),
        Reading::quantile("net.transfer_ms_p50", &mut s.transfer, 0.5, 1e6),
        Reading::quantile("net.decode_tail_ms_p50", &mut s.decode_tail, 0.5, 1e6),
        Reading::quantile("net.buffered_ms_p50", &mut s.buffered, 0.5, 1e6),
        Reading::exact("net.chunks_per_fetch", s.chunks as f64 / fetches),
        Reading::quantile("net.ttfs_ms_w16_p50", &mut s.ttfs_w16, 0.5, 1e6),
        Reading::quantile("net.ttfs_ms_w256_p50", &mut s.ttfs_w256, 0.5, 1e6),
        Reading::quantile("net.fetch_ms_w1_p50", &mut s.fetch_w1, 0.5, 1e6),
        Reading::quantile("net.fetch_ms_p90", &mut s.fetch, 0.9, 1e6),
        Reading::quantile("net.fetch_ms.p99", &mut s.fetch, 0.99, 1e6),
    ]);
    server.shutdown();
    Trial {
        check,
        readings,
        payload_bytes: ITEM_BYTES as u64,
    }
}
