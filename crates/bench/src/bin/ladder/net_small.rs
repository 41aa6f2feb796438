//! Workload `net_small`: the smallest message over loopback, where
//! per-request cost in `net` (frame, reactor, write path) is everything
//! and the codec is bypassed: one 4 KiB item, width 4, always a tier hit.
//!
//! Load: 2 raw pipelined connections, each carrying bursts of 64 REQUESTs,
//! driven by one thread that refills a connection as soon as it has read
//! its 64 replies — so the server always holds a queued burst. Load thread
//! and reactor thread together keep one core busy without a gap (the
//! kernel's wake-affine placement pairs them), so a per-message saving
//! shows as `ops_per_s`. Two *threads* of drivers were bimodal on the
//! 2-vCPU box (308k vs 445k req/s by how the scheduler paired three busy
//! threads); single-request ping-pong is bimodal too (13.6k vs 42.6k).
//!
//! Op: one request (`ops_per_s` counts replies per second of load time);
//! the latency a caller waits is its burst's round trip, queueing behind
//! the other connection's burst included. Every 256th burst a second
//! 4 KiB item is published and a connection dialled, beside the reads.
//!
//! The trial alternates between two identical servers, telemetry `Off`
//! and `Counters`, in six equal segments `O C O O C O`. Every end-to-end
//! number comes from the `Off` segments; each `O C O` triplet gives one
//! paired `telemetry.counters_overhead_pct` that host drift cancels out of.

use crate::harness::{Check, Ctx, Reading, Trial};
use crate::netutil::{
    bind, probe_connect, raw_handshake, read_reply, request_frame, socket_readings, Reply,
    Republish,
};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use recoil::net::{NetClient, NetConfig};
use recoil::prelude::*;
use recoil::telemetry::{Histogram, TelemetryLevel};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const ITEM_BYTES: usize = 4096;
const ENTROPY_BITS: f64 = 5.1;
const MAX_SEGMENTS: u64 = 16;
const WIDTH: u64 = 4;
const BURST: usize = 64;
const CONNECTIONS: usize = 2;
const PROBE_EVERY: u64 = 256;
const WARM_BURSTS: usize = 512;
const NAME: &str = "tiny";
const HIST_RECORDS: u64 = 1_000_000;

/// Which server each segment of a trial loads: 0 is `Off`, 1 `Counters`.
const SEGMENTS: [usize; 6] = [0, 1, 0, 0, 1, 0];

/// One pipelined connection and the burst in flight on it, if any.
struct Pipe {
    conn: TcpStream,
    reader: BufReader<TcpStream>,
    /// When the burst in flight was written, on both clocks.
    sent: Option<(Instant, u64)>,
}

impl Pipe {
    fn dial(addr: SocketAddr) -> Result<Self, String> {
        let conn = raw_handshake(addr)?;
        let reader = conn.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            conn,
            reader: BufReader::with_capacity(64 << 10, reader),
            sent: None,
        })
    }

    /// Writes one burst: ~30 B per request, so the write never blocks on
    /// the replies still unread.
    fn send(&mut self, burst: &[u8], tracer: &Option<Tracer>) -> Result<(), String> {
        self.sent = Some((Instant::now(), tracer.as_ref().map_or(0, Tracer::now)));
        self.conn.write_all(burst).map_err(|e| e.to_string())
    }
}

struct Target {
    server: NetServerHandle,
    client: NetClient,
    /// A cache-hit reply, byte for byte; every later reply must equal it.
    reference: Reply,
    stream_bytes: u64,
    size_pct: f64,
}

fn launch(level: TelemetryLevel, data: &[u8], config: &EncoderConfig, check: &mut Check) -> Target {
    let server = bind(NetConfig {
        telemetry: level,
        ..NetConfig::default()
    });
    let client = NetClient::connect(server.addr()).expect("dialling a server just bound");
    let published = client
        .publish(NAME, data, config)
        .expect("publishing a fresh name");
    // Twice: the first fills the tier cache, the second is the hit path.
    for _ in 0..2 {
        let decoded = check.ok("fetch_and_decode", client.fetch_and_decode(NAME, WIDTH));
        check.also(decoded.is_some_and(|d| d == data), || {
            "the served item decoded to other bytes".into()
        });
    }
    let size_pct = client
        .request(NAME, WIDTH)
        .map_or(0.0, |c| 100.0 * c.total_bytes() as f64 / data.len() as f64);
    // The reference reply, then the hot path itself run warm: socket
    // buffers grown, reactor slab and write buffer at their working size.
    let reference = Pipe::dial(server.addr())
        .and_then(|mut pipe| {
            pipe.send(&request_frame(NAME, WIDTH), &None)?;
            let reference = read_reply(&mut pipe.reader)?;
            let burst = request_frame(NAME, WIDTH).repeat(BURST);
            for _ in 0..WARM_BURSTS {
                pipe.send(&burst, &None)?;
                for _ in 0..BURST {
                    let reply = read_reply(&mut pipe.reader)?;
                    check.that(reply == reference, || "a warm-up reply differs".into());
                }
            }
            Ok(reference)
        })
        .expect("raw requests against a warm server");
    Target {
        server,
        client,
        reference,
        stream_bytes: published.stream_bytes,
        size_pct,
    }
}

#[derive(Default)]
struct Segment {
    /// Burst round trips, write to last reply read.
    bursts: Samples,
    replies: u64,
    /// Wall time of the segment less the time inside probes.
    load_nanos: u64,
}

impl Segment {
    fn rate(&self) -> f64 {
        self.replies as f64 * 1e9 / (self.load_nanos as f64).max(1.0)
    }
}

#[derive(Default)]
struct Load {
    segments: [Segment; SEGMENTS.len()],
    wire_bytes: u64,
    connect: Samples,
    publish: Samples,
}

/// Drives the six segments. Returns early, with the failure counted, if a
/// connection loses its framing.
fn drive(
    targets: &[Target; 2],
    segment: Duration,
    republish: &Republish<'_>,
    tracer: &mut Option<Tracer>,
    check: &mut Check,
) -> Load {
    let mut load = Load::default();
    let burst = request_frame(NAME, WIDTH).repeat(BURST);
    let dial_pair = |t: &Target| -> Result<[Pipe; CONNECTIONS], String> {
        Ok([Pipe::dial(t.server.addr())?, Pipe::dial(t.server.addr())?])
    };
    let pipes: Result<Vec<_>, _> = targets.iter().map(dial_pair).collect();
    let Some(mut pipes) = check.ok("raw connect", pipes) else {
        return load;
    };
    let start = Instant::now();
    let mut n = 0u64;
    for (k, &which) in SEGMENTS.iter().enumerate() {
        let end = start + segment * (k as u32 + 1);
        let target = &targets[which];
        let seg = &mut load.segments[k];
        let t_seg = Instant::now();
        let mut probe_nanos = 0u64;
        let mut run = || -> Result<(), String> {
            for pipe in pipes[which].iter_mut() {
                pipe.send(&burst, tracer)?;
            }
            while pipes[which].iter().any(|p| p.sent.is_some()) {
                for pipe in pipes[which].iter_mut() {
                    let Some((sent, sent_ns)) = pipe.sent.take() else {
                        continue;
                    };
                    n += 1;
                    let replies = (0..BURST)
                        .map(|_| read_reply(&mut pipe.reader))
                        .collect::<Result<Vec<_>, _>>()?;
                    seg.bursts.push(sent.elapsed().as_nanos() as u64);
                    if let Some(t) = tracer.as_mut() {
                        t.record("net.burst", n, sent_ns, t.now());
                    }
                    // Refill first, so the server is never without a
                    // queued burst while this one is checked.
                    if Instant::now() < end {
                        pipe.send(&burst, tracer)?;
                    }
                    for reply in &replies {
                        seg.replies += 1;
                        load.wire_bytes += reply.wire_bytes();
                        check.that(*reply == target.reference, || {
                            "a reply differs from the reference".into()
                        });
                    }
                    if which == 0 && n.is_multiple_of(PROBE_EVERY) {
                        let t0 = Instant::now();
                        republish.run(tracer, check, n, &mut load.publish);
                        probe_connect(tracer, check, n, target.server.addr(), &mut load.connect);
                        probe_nanos += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
            Ok(())
        };
        let ran = run();
        seg.load_nanos = (t_seg.elapsed().as_nanos() as u64).saturating_sub(probe_nanos);
        if check.ok("burst", ran).is_none() {
            break;
        }
    }
    load
}

pub fn trial(ctx: &mut Ctx) -> Trial {
    let t_setup = Instant::now();
    let mut check = Check::default();
    // The seed orders a fixed multiset of bytes: an item this small would
    // otherwise change its own compressed size by a percent per seed.
    let mut data = recoil::data::text_like_bytes(ITEM_BYTES, ENTROPY_BITS, 0);
    let mut rng = ctx.rng(0x5a11);
    for i in (1..data.len()).rev() {
        data.swap(i, rng.below(i + 1));
    }
    let config = EncoderConfig {
        max_segments: MAX_SEGMENTS,
        ..EncoderConfig::default()
    };
    let targets = [
        launch(TelemetryLevel::Off, &data, &config, &mut check),
        launch(TelemetryLevel::Counters, &data, &config, &mut check),
    ];
    let setup_s = t_setup.elapsed().as_secs_f64();

    let republish = Republish {
        server: &targets[0].server,
        client: &targets[0].client,
        name: "beside",
        data: &data,
        config: &config,
        stream_bytes: targets[0].stream_bytes,
    };
    let segment = ctx.budget / SEGMENTS.len() as u32;
    let mut load = drive(&targets, segment, &republish, &mut ctx.tracer, &mut check);

    // One relaxed-atomic histogram record, the unit telemetry is built of.
    let hist = Histogram::new();
    let t0 = Instant::now();
    for i in 0..HIST_RECORDS {
        hist.record(std::hint::black_box(
            i.wrapping_mul(2_654_435_761) % 1_000_000,
        ));
    }
    let hist_ns = t0.elapsed().as_nanos() as f64 / HIST_RECORDS as f64;
    check.that(hist.snapshot().count == HIST_RECORDS, || {
        "the histogram lost records".into()
    });

    let overheads: Vec<f64> = load
        .segments
        .chunks(3)
        .map(|t| 100.0 * ((t[0].rate() + t[2].rate()) / 2.0 / t[1].rate().max(1e-9) - 1.0))
        .collect();
    let mut off = Samples::default();
    let (mut replies, mut load_nanos) = (0u64, 0u64);
    for (seg, _) in load
        .segments
        .iter()
        .zip(SEGMENTS)
        .filter(|(_, which)| *which == 0)
    {
        off.extend(&seg.bursts);
        replies += seg.replies;
        load_nanos += seg.load_nanos;
    }
    let all_replies: u64 = load.segments.iter().map(|s| s.replies).sum();

    let mut readings = vec![
        Reading::exact("setup_s", setup_s),
        Reading::counted(
            "ops_per_s",
            replies as f64 * 1e9 / (load_nanos as f64).max(1.0),
            replies,
        ),
        Reading::quantile("op_ms_p50", &mut off, 0.5, 1e6),
        Reading::exact("size_pct", targets[0].size_pct),
        Reading::quantile("net.burst_ms_p50", &mut off, 0.5, 1e6),
        Reading::quantile("net.burst_ms_p99", &mut off, 0.99, 1e6),
        Reading::exact(
            "net.bytes_per_req",
            load.wire_bytes as f64 / all_replies.max(1) as f64,
        ),
        Reading::counted(
            "telemetry.counters_overhead_pct",
            median(&overheads),
            overheads.len() as u64,
        ),
        Reading::counted("telemetry.hist_record_ns", hist_ns, HIST_RECORDS),
    ];
    readings.extend(socket_readings(
        &mut check,
        &targets[0].client,
        &mut load.connect,
        &mut load.publish,
    ));
    for target in targets {
        target.server.shutdown();
    }
    Trial {
        check,
        readings,
        payload_bytes: ITEM_BYTES as u64,
    }
}
