//! Seeded chaos suite: node deaths at exact byte offsets, resume
//! correctness down to wire-level byte accounting, and what a client sees
//! of a torn, stalled, killed or resetting node — every fault injected by
//! the node's own `FaultPlan`.

use recoil_core::backend::preferred_segments;
use recoil_core::{Codec, EncoderConfig, RecoilError};
use recoil_fabric::{FabricRouter, FetchAttempt, RouterConfig};
use recoil_net::raw::{read_frame, write_frame, ReadOutcome};
use recoil_net::{
    ContentRequest, FaultPlan, FrameType, Hello, NetClient, NetClientConfig, NetConfig, NetServer,
    NetServerHandle, TransmitHeader,
};
use recoil_server::ContentServer;
use recoil_telemetry::TelemetryLevel;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const DATA_LEN: usize = 120_000;
const SEGMENTS: u64 = 8;
const FRAME_HDR: u64 = 5; // [type u8][len u32]
const CHUNK_SEQ: u64 = 4; // seq u32 prefix inside a CHUNK payload

fn sample(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
        .collect()
}

fn enc() -> EncoderConfig {
    enc_at(SEGMENTS)
}

fn enc_at(max_segments: u64) -> EncoderConfig {
    EncoderConfig {
        max_segments,
        ..EncoderConfig::default()
    }
}

fn node_config(fault: Option<FaultPlan>) -> NetConfig {
    NetConfig {
        workers: 2,
        chunk_bytes: 16 * 1024,
        telemetry: TelemetryLevel::Counters,
        fault_plan: fault,
        ..NetConfig::default()
    }
}

fn start(fault: Option<FaultPlan>) -> NetServerHandle {
    NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        node_config(fault),
    )
    .unwrap()
}

fn router_config() -> RouterConfig {
    RouterConfig {
        rebalance_interval: 0,
        client: NetClientConfig {
            retry_budget: 0,
            ..NetClientConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// Wire geometry of one undisturbed fetch: per-chunk body sizes plus the
/// response-byte offset where the first chunk starts, measured off a
/// clean server so fault offsets can be computed exactly.
struct Geometry {
    /// Server→client bytes before the first CHUNK frame (HELLO reply +
    /// TRANSMIT frame).
    prefix: u64,
    /// CHUNK body sizes in order (whole words each).
    bodies: Vec<u64>,
    /// Total bitstream bytes (Σ bodies, cross-checked with the header).
    word_bytes: u64,
    /// Segments the served tier holds.
    segments: u64,
}

impl Geometry {
    /// The geometry of `data` published at `width` segments and fetched at
    /// that width.
    fn measure(data: &[u8], width: u64) -> Self {
        let server = start(None);
        let client = NetClient::connect(server.addr()).unwrap();
        client.publish("probe", data, &enc_at(width)).unwrap();
        // A raw fetch: every response frame's size is read off the wire.
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let mut send = |ty, payload: &[u8]| write_frame(&mut conn, ty, payload).unwrap();
        send(FrameType::Hello, &Hello::ours().encode());
        let request = ContentRequest {
            name: "probe".to_string(),
            parallel_segments: width,
        };
        send(FrameType::Request, &request.encode());
        let mut next = |want| match read_frame(&mut conn).unwrap() {
            ReadOutcome::Frame(ty, payload) if ty == want => payload,
            other => panic!("expected {want:?}, got {other:?}"),
        };
        let hello_len = next(FrameType::Hello).len() as u64;
        let transmit = next(FrameType::Transmit);
        let (header, ..) = TransmitHeader::decode(&transmit).unwrap();
        let bodies: Vec<u64> = (0..header.chunk_count)
            .map(|_| next(FrameType::Chunk).len() as u64 - CHUNK_SEQ)
            .collect();
        assert_eq!(bodies.iter().sum::<u64>(), header.word_bytes);
        assert!(bodies.len() >= 4, "sweep needs several chunks");
        server.shutdown();
        Self {
            prefix: (FRAME_HDR + hello_len) + (FRAME_HDR + transmit.len() as u64),
            bodies,
            word_bytes: header.word_bytes,
            segments: header.segments,
        }
    }

    /// Total server→client bytes of the whole response.
    fn total(&self) -> u64 {
        self.prefix
            + self
                .bodies
                .iter()
                .map(|b| FRAME_HDR + CHUNK_SEQ + b)
                .sum::<u64>()
    }

    /// Cumulative body-byte prefix sums — every legal resume offset (in
    /// bitstream bytes) is one of these, because a client keeps only whole
    /// chunks.
    fn boundaries(&self) -> Vec<u64> {
        let mut acc = 0;
        let mut out = vec![0];
        for b in &self.bodies {
            acc += b;
            out.push(acc);
        }
        out
    }
}

/// The router's decode batch (`preferred_segments` of its backend): the
/// widest stream a fetch decodes in one batch.
fn router_batch() -> u64 {
    let node = start(None);
    let router = FabricRouter::connect(&[node.addr()], router_config()).unwrap();
    let batch = preferred_segments(router.backend());
    node.shutdown();
    batch
}

/// Runs one kill-at-`cut` failover scenario: node 0 (the rendezvous
/// primary for the chosen name) severs every connection after exactly
/// `cut` response bytes; node 1 is clean and holds an identical copy of
/// `data` published at `width` segments. Returns the completed fetch (at
/// `width`) for assertions.
fn fetch_with_kill_at(data: &[u8], cut: u64, width: u64) -> recoil_fabric::FabricFetch {
    let primary = node_config(Some(FaultPlan::kill_at(cut)));
    fetch_failing_over(data, primary, node_config(None), width)
}

/// [`fetch_with_kill_at`] with each node's config given: node 0 serves
/// with `primary` (whose fault plan kills it), node 1 with `standby`.
fn fetch_failing_over(
    data: &[u8],
    primary: NetConfig,
    standby: NetConfig,
    width: u64,
) -> recoil_fabric::FabricFetch {
    let bind =
        |config| NetServer::bind(Arc::new(ContentServer::new()), "127.0.0.1:0", config).unwrap();
    let (killer, clean) = (bind(primary), bind(standby));
    let router = FabricRouter::connect(&[killer.addr(), clean.addr()], router_config()).unwrap();
    // Pick a name whose rendezvous primary is the faulty node, so the
    // fetch must start there.
    let name = (0..256)
        .map(|k| format!("cut-{k}"))
        .find(|n| router.primary(n) == 0)
        .expect("some name lands on node 0");
    // Encode once and publish the same container to both nodes: they
    // store, and serve, the same bytes by construction.
    let container = Codec::from_config(enc_at(width))
        .unwrap()
        .encode(data)
        .unwrap()
        .container_bytes();
    for handle in [&killer, &clean] {
        let publisher = NetClient::connect(handle.addr()).unwrap();
        publisher.publish_container(&name, &container).unwrap();
    }
    let fetched = router.fetch(&name, width).unwrap();
    killer.shutdown();
    clean.shutdown();
    fetched
}

/// The corpus test: kill the serving node at every chunk boundary,
/// mid-chunk, inside the TRANSMIT header, inside a CHUNK frame
/// header, and past the end — the resumed decode must be byte-identical
/// every time, and the wire-level byte accounting must show no word was
/// ever served twice. It runs at two widths, so that both dispatch
/// regimes are swept on every host: one batch of the router's backend (the
/// stream is decoded once, after the failover) and twice that (batches are
/// decoded between chunks, before and after it).
#[test]
fn kill_sweep_resumes_byte_identical_with_no_resends() {
    let batch = router_batch();
    for (width, one_batch) in [(batch.min(SEGMENTS), true), (2 * batch, false)] {
        // Where a batch is wide (many cores), enough symbols for the
        // planner to cut the item into more segments than one batch.
        let data = sample(DATA_LEN.max(2_000 * width as usize), 42);
        let geo = Geometry::measure(&data, width);
        assert_eq!(
            geo.segments <= batch,
            one_batch,
            "{} segments served at width {width}, a batch of {batch}",
            geo.segments
        );
        kill_sweep(&data, width, &geo);
    }
}

fn kill_sweep(data: &[u8], width: u64, geo: &Geometry) {
    let boundaries = geo.boundaries();

    let mut cuts = vec![
        geo.prefix - 7,     // torn TRANSMIT header
        geo.prefix + 4,     // torn first CHUNK frame header
        geo.total() + 4096, // beyond the end: the kill never fires
    ];
    let mut acc = geo.prefix;
    for body in &geo.bodies {
        cuts.push(acc + FRAME_HDR + CHUNK_SEQ + body / 2); // mid-chunk
        acc += FRAME_HDR + CHUNK_SEQ + body;
        cuts.push(acc); // chunk boundary
    }

    for &cut in &cuts {
        let fetched = fetch_with_kill_at(data, cut, width);
        assert_eq!(fetched.data, data, "width {width}, cut at byte {cut}");
        assert_eq!(fetched.segments, geo.segments);

        // Wire-level accounting: every word arrived exactly once, each
        // resume continued at precisely the words already held, and
        // every resume offset is a chunk boundary.
        let delivered: u64 = fetched.attempts.iter().map(|a| a.chunk_bytes).sum();
        assert_eq!(
            delivered, geo.word_bytes,
            "width {width}, cut at byte {cut}"
        );
        for w in fetched.attempts.windows(2) {
            assert_eq!(
                w[1].from_word,
                w[0].from_word + w[0].chunk_bytes / 2,
                "width {width}, cut at byte {cut}: resume must skip exactly the delivered words"
            );
        }
        for resume in &fetched.attempts[1..] {
            assert!(
                boundaries.contains(&(resume.from_word * 2)),
                "width {width}, cut at byte {cut}: resume offset {} is not a chunk boundary",
                resume.from_word * 2
            );
        }

        if cut >= geo.total() {
            // The kill threshold sits past the response: undisturbed.
            assert_eq!(fetched.failovers, 0, "width {width}, cut at byte {cut}");
            assert_eq!(fetched.attempts.len(), 1);
            assert!(fetched.attempts[0].completed);
        } else if cut < geo.prefix {
            // Died before the stream started: a refetch, not a resume.
            assert_eq!(fetched.failovers, 0, "width {width}, cut at byte {cut}");
            assert_eq!(fetched.attempts.len(), 2);
            assert_eq!(fetched.attempts[1].from_word, 0);
        } else {
            // Mid-stream death: exactly one failover, resumed partway.
            assert_eq!(fetched.failovers, 1, "width {width}, cut at byte {cut}");
            assert_eq!(fetched.attempts.len(), 2);
            assert!(!fetched.attempts[0].completed);
            assert!(fetched.attempts[1].completed);
        }
    }
}

/// A resume served on another chunk size: node 0 cuts 16 KiB chunks and
/// dies two and a half chunks in; node 1 cuts 5 KiB ones, so its response
/// starts at an offset off its own grid. A chunk is the next words from
/// wherever the response starts, so the two nodes' words still tile the
/// stream: byte-identical, none delivered twice, every attempt accounted.
#[test]
fn a_resume_on_another_chunk_size_delivers_every_word_once() {
    let data = sample(DATA_LEN, 17);
    let geo = Geometry::measure(&data, SEGMENTS);
    assert_eq!(geo.bodies[0], 16 * 1024, "node 0's chunk size");
    let frame = |body: u64| FRAME_HDR + CHUNK_SEQ + body;
    let cut = geo.prefix + frame(geo.bodies[0]) + frame(geo.bodies[1]) + frame(geo.bodies[2] / 2);
    let standby = NetConfig {
        chunk_bytes: 5 * 1024,
        ..node_config(None)
    };
    let primary = node_config(Some(FaultPlan::kill_at(cut)));
    let fetched = fetch_failing_over(&data, primary, standby, SEGMENTS);
    assert_eq!(fetched.data, data);
    assert_eq!(fetched.segments, geo.segments);
    assert_eq!(fetched.failovers, 1);
    // Node 0 delivered its two whole chunks (the torn third is dropped),
    // node 1 every word after them.
    let held = geo.bodies[0] + geo.bodies[1];
    assert_ne!(
        (held / 2) % (5 * 1024 / 2),
        0,
        "node 1 resumes off its grid"
    );
    let attempt = |node, from_word, chunk_bytes, completed| FetchAttempt {
        node,
        from_word,
        chunk_bytes,
        completed,
    };
    assert_eq!(
        fetched.attempts,
        [
            attempt(0, 0, held, false),
            attempt(1, held / 2, geo.word_bytes - held, true)
        ]
    );
}

/// Seeded kills are reproducible end to end: the same seed produces the
/// same cut, the same attempt trace, and the same resume offset.
#[test]
fn seeded_kill_replays_identically() {
    let data = sample(DATA_LEN, 9);
    let geo = Geometry::measure(&data, SEGMENTS);
    let plan = FaultPlan::seeded_kill(0xC0FFEE, geo.prefix, geo.total());
    let cut = match plan.kill_after_write_bytes {
        Some(cut) => cut,
        None => unreachable!("seeded_kill always arms a cut"),
    };
    let first = fetch_with_kill_at(&data, cut, SEGMENTS);
    let second = fetch_with_kill_at(&data, cut, SEGMENTS);
    assert_eq!(first.attempts, second.attempts);
    assert_eq!(first.data, data);
    assert_eq!(second.data, data);
    assert_eq!(first.failovers, 1);
}

/// A node that accepts and immediately resets is routed around.
#[test]
fn accept_rst_node_is_routed_around() {
    let rster = start(Some(FaultPlan::accept_rst()));
    let clean = start(None);
    let router = FabricRouter::connect(&[rster.addr(), clean.addr()], router_config()).unwrap();
    let name = (0..256)
        .map(|k| format!("rst-{k}"))
        .find(|n| router.primary(n) == 0)
        .unwrap();
    let data = sample(30_000, 3);
    NetClient::connect(clean.addr())
        .unwrap()
        .publish(&name, &data, &enc())
        .unwrap();

    let fetched = router.fetch(&name, 4).unwrap();
    assert_eq!(fetched.data, data);
    assert!(!fetched.attempts[0].completed);
    assert_eq!(fetched.attempts[0].chunk_bytes, 0);
    assert_eq!(fetched.attempts.last().unwrap().node, 1);
    assert_eq!(router.healthy_nodes(), 1);
    rster.shutdown();
    clean.shutdown();
}

/// Dribbled (delayed, torn) server writes still produce a byte-identical
/// decode — frame reassembly is cut-point agnostic.
#[test]
fn dribbled_writes_decode_byte_identical() {
    let server = start(Some(FaultPlan::dribble(1024, Duration::from_micros(200))));
    let data = sample(40_000, 17);
    let client = NetClient::connect(server.addr()).unwrap();
    client.publish("dribble", &data, &enc()).unwrap();
    assert_eq!(client.fetch_and_decode("dribble", SEGMENTS).unwrap(), data);
    server.shutdown();
}

/// Publishes the client-fault cases' item on `server` over a connection of
/// its own (a plan's byte counts are per connection).
fn publish_client_item(server: &NetServerHandle) -> Vec<u8> {
    let data = sample(30_000, 29);
    NetClient::connect(server.addr())
        .unwrap()
        .publish("item", &data, &enc())
        .unwrap();
    data
}

/// A node that tears every write at 9 bytes: frame headers arrive split
/// across reads, and the decode is byte-identical.
#[test]
fn torn_writes_decode_byte_identical() {
    let server = start(Some(FaultPlan {
        torn_write_bytes: Some(9),
        ..FaultPlan::default()
    }));
    let data = publish_client_item(&server);
    let client = NetClient::connect(server.addr()).unwrap();
    assert_eq!(client.fetch_and_decode("item", 4).unwrap(), data);
    server.shutdown();
}

/// A node that pauses longer than the client's read timeout between torn
/// writes still completes: the 8 KiB tears land inside the 16 KiB CHUNK
/// frames, so the client's socket read times out mid-frame and its
/// mid-frame retry runs on a real socket.
#[test]
fn writes_stalled_past_the_read_timeout_mid_chunk_still_complete() {
    let read_timeout = NetClientConfig::default().read_timeout;
    let pause = read_timeout + Duration::from_millis(50);
    let server = start(Some(FaultPlan::dribble(8 * 1024, pause)));
    let data = publish_client_item(&server);
    let client = NetClient::connect(server.addr()).unwrap();
    let started = std::time::Instant::now();
    assert_eq!(client.fetch_and_decode("item", 4).unwrap(), data);
    assert!(started.elapsed() > read_timeout);
    server.shutdown();
}

/// A node that dies 2 000 bytes into a connection's responses surfaces as
/// a typed transport error to a client that may not retry.
#[test]
fn killed_node_surfaces_a_transport_error_without_retry() {
    let server = start(Some(FaultPlan::kill_at(2_000)));
    publish_client_item(&server);
    let client = NetClient::connect_with(
        server.addr(),
        NetClientConfig {
            retry_budget: 0,
            ..NetClientConfig::default()
        },
    )
    .unwrap();
    match client.fetch_and_decode("item", 4) {
        Err(RecoilError::Net { .. }) => {}
        other => panic!("expected a transport error from the killed node, got {other:?}"),
    }
    server.shutdown();
}

/// A node that resets every accept fails the dial itself.
#[test]
fn accept_rst_node_fails_the_dial() {
    let server = start(Some(FaultPlan::accept_rst()));
    assert!(NetClient::connect(server.addr()).is_err());
    server.shutdown();
}
