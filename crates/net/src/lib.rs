//! Framed TCP transport for the content-delivery service (paper §1, §3.3).
//!
//! The paper's use case is inherently remote: "the client requests content,
//! and also attaches its parallel capacity inside the request header; the
//! server receives the request, shrinks down the metadata in real-time, and
//! serves the bitstream and the shrunk metadata to the decoder." This crate
//! puts that exchange on a real socket: a length-prefixed binary protocol
//! over `std::net` TCP, an event-driven [`NetServer`] wrapping the sharded
//! in-process [`ContentServer`], and a pooling [`NetClient`] whose
//! [`NetClient::fetch_and_decode`] turns a remote fetch into one call that
//! ends in decoded bytes.
//!
//! ## Wire protocol
//!
//! Every frame is `[type: u8][len: u32 LE][payload]`; unknown types and
//! payloads over 64 MiB are rejected before allocation. A connection opens
//! with a HELLO exchange, then carries any number of requests. A HELLO is
//! its [`PROTOCOL_VERSION`] and nothing else: both ends speak one version
//! exactly ([`Hello::decode`] refuses any other with a typed error, which
//! the server sends back before it closes), so every frame below is
//! available on every connection:
//!
//! | Frame | Dir | Payload | Encoder → decoder |
//! |---|---|---|---|
//! | `HELLO` (0x01) | both | magic, protocol version | [`Hello::encode`] → [`Hello::decode`] |
//! | `PUBLISH` (0x02) | C→S | name, an encoded container: magic, version, the full-width item section (metadata, model block, words CRC), the words — an `.rcl` file's bytes | [`PublishRequest::encode`] → [`PublishRequest::decode`] (both borrowed views) |
//! | `PUBLISH_OK` (0x03) | S→C | planned segments, bitstream bytes | [`PublishOk::encode`] → [`PublishOk::decode`] |
//! | `REQUEST` (0x04) | C→S | name, client's `parallel_segments` | [`ContentRequest::encode`] → `ContentRequest::<&str>::decode` |
//! | `TRANSMIT` (0x05) | S→C | segments, cache hit, combine time, the served tier's item section, chunk count | `proto::write_transmit_header` (in place, from bytes the stored item holds) → [`TransmitHeader::decode`] ([`recoil_core::item_from_bytes`]) |
//! | `CHUNK` (0x06) | S→C | sequence number + the next whole words of the bitstream | the reactor's `fill_chunks` → `integrity.rs` (`PayloadCheck::admit`, then `commit` on the landed body) |
//! | `TELEMETRY` (0x09) | C→S | *(empty)* | — |
//! | `TELEMETRY_REPLY` (0x0A) | S→C | level byte, named counters, gauges and stage histograms (every [`StatsReply`] value among them) + drained stage-trace events | [`TelemetryReply::encode`] → [`TelemetryReply::decode`] |
//! | `RESUME` (0x0B) | C→S | name, `parallel_segments`, `from_word` | [`ResumeRequest::encode`] → `ResumeRequest::<&str>::decode` |
//! | `ERROR` (0x0E) | both | error code + detail, maps onto [`RecoilError`] | `encode_error` → `decode_error` |
//!
//! Each message has that one encoder and that one decoder, and production
//! runs both, on opposite ends; the frame-header rule (known type byte,
//! 64 MiB cap) is one function, `frame::parse_header`, under both the
//! blocking reader and the reactor's buffer parser.
//!
//! Large bitstreams are **chunked**: `TRANSMIT` carries everything except
//! the words, which follow as ordered `CHUNK` frames. An item is one byte
//! layout at rest and in flight: a TRANSMIT's item section is a
//! container's, checked by the one parser a container goes through
//! ([`recoil_core::item_from_bytes`]: metadata and model block each behind
//! their own CRC-32, n, W, N and the word count written only in the
//! metadata), and the client holds the reassembled words to the section's
//! words CRC with the verdict a container's words get
//! ([`recoil_core::check_words_crc`]). A full-width fetch's section and
//! chunk bodies behind a container's magic and version are the published
//! container, byte for byte ([`RemoteContent::container_bytes`]).
//!
//! Typed `ERROR` frames round-trip [`RecoilError`]:
//! `NotFound`/`AlreadyPublished`/`Busy` reconstruct exactly, the rest
//! degrade to [`RecoilError::Net`] with the remote display text.
//!
//! ## Segment resume
//!
//! `RESUME` is `REQUEST` plus a word offset: "serve `name` at this
//! parallelism, but I already hold the first `from_word` complete words."
//! The server replies with the same `TRANSMIT` header an original fetch
//! gets (whole-stream geometry and payload CRC, so the client can
//! cross-check against the header it saw before the failure), whose chunks
//! carry only the missing words. Recoil's split metadata is what
//! makes this cheap: segment *m* is decodable once `splits[m].offset + 1`
//! words arrived, so readiness is a strict prefix of the word stream and a
//! byte offset *is* a resume point — no per-segment state to rebuild, no
//! interleaved stream to unpick. On the client this is
//! [`FetchSession::resume_on`]: the same session — same payload check, same
//! decoder — continues on another node, which is accepted only if its
//! header declares the stream the first one did. The fabric crate's
//! failover path is that call.
//!
//! ## Fault injection
//!
//! [`NetConfig::fault_plan`] arms a deterministic [`FaultPlan`] on a
//! server: reset every accept, delay or tear each write syscall, or sever
//! connections at a fixed response-byte offset (a mid-stream crash). Plans
//! are plain data with seeded constructors, so the chaos suite and the
//! ladder's `fabric_failover` workload replay the same failures on every
//! run. It is the only fault injector: every fault a client can observe
//! (a torn, stalled, killed or reset connection) is one of these.
//!
//! ## Streaming decode
//!
//! A CHUNK is the next [`NetConfig::chunk_bytes`] of the bitstream, rounded
//! down to whole words and cut without regard to segments: the served metadata says when segment *m* is
//! resident — once the words up to `splits[m].offset` arrived, whatever
//! carried them ([`recoil_core::IncrementalDecoder::ready_segments`]).
//! [`FetchSession::decode_streaming`] exploits that: each arriving body is
//! read straight into the word store of a
//! [`recoil_core::IncrementalDecoder`] and checked where it landed, and the
//! decoder hands the given backend
//! **whole batches** — [`recoil_core::backend::preferred_segments`] newly
//! resident segments at a time, threads × kernel depth — while later
//! chunks are still on the wire. One thread does it, the caller's: it
//! applies the dispatch rule after every chunk, and while a batch decodes
//! on the backend's pool the socket buffers what the server goes on
//! sending. A stream of at most one batch (the paper's adaptive width) has
//! nothing to decode before its last word, so it is decoded once. The
//! words land in a [`WordStore`] the fetcher keeps between fetches (the
//! client, or the fabric router), so a fetch does not grow a fresh one. It
//! is the one place the network drives a decoder:
//! [`NetClient::fetch_and_decode_streaming`] runs it on a pooled
//! connection under the retry policy, the fabric router with a failover
//! hook. The decoded bytes are byte-identical to the buffered
//! [`NetClient::fetch_and_decode`] path, and the returned
//! [`StreamedFetch`] reports time-to-first-segment, transfer, and total
//! latency so callers can see how much decode time the transfer hid.
//!
//! Every fetch is one [`FetchSession`], which owns the *payload integrity
//! rule* (`integrity.rs`: chunk sequence, byte accounting, overrun/short,
//! whole-stream CRC-32, a resumed node's header agreeing with the first)
//! as a socket-free, clock-free state machine; every public way to drain
//! a session goes through it, so no transfer can complete unverified.
//!
//! ## Server concurrency model
//!
//! [`NetServer::bind`] starts one **reactor thread** that multiplexes
//! every connection through `recoil-reactor`'s readiness plumbing:
//! edge-triggered epoll (each socket registered once for both directions
//! and pumped until `WouldBlock` on every edge), per-connection state in a
//! generation-checked slab whose buffers are parked on close and recycled
//! on the next accept, and a deadline queue for progress timeouts.
//! Connections are **not** pinned to threads: thousands of mostly-idle
//! peers cost one slab slot each. The HELLO exchange, stats snapshots and
//! every `REQUEST`/`RESUME` are served inline on the loop: a request goes
//! through [`ContentServer::fetch`], the atomic name→(transmission,
//! content) lookup, whether its tier is cached or not — the real-time
//! combine behind a tier-cache miss writes the tier's bytes from the item's
//! stored split bits, cheaper than a trip to another thread, and misses
//! serialized on one loop can never build one tier twice. A response's
//! chunks are arithmetic on the word count; no request builds parsed
//! metadata. Only a `PUBLISH` runs on [`NetConfig::workers`] dispatch
//! threads blocked on the reactor's job queue, and completes back to the
//! loop through a wake pipe. Nothing is encoded there: the publisher
//! encoded ([`NetClient::publish`] runs the encoder on the caller, or
//! [`NetClient::publish_container`] sends a container as it is), and a
//! worker checks each section's CRC-32, parses and validates it
//! ([`recoil_core::read_container`]) and stores it as it is, with the words
//! CRC it carried ([`ContentServer::insert`]) — work linear in a payload of up to 64 MiB,
//! which is why it stays off the loop. A container that fails any check is
//! refused in-band with a typed [`RecoilError::Wire`] and the connection
//! stays open; a payload that is not a PUBLISH message closes it.
//!
//! `max_connections` caps open connections (excess accepts get a typed
//! busy error carrying [`BUSY_RETRY_AFTER_MS`]; a connection holds at most
//! one dispatched publish, so the job queue is bounded by it too). Timeouts
//! are *progress* deadlines managed by the reactor: a peer that starts a
//! frame must keep bytes flowing within
//! [`NetConfig::read_timeout`] or it is evicted with a typed `ERROR`
//! frame (slow-loris defense, counted in the `evicted_connections`
//! stat); a peer that stops consuming its response is dropped after
//! [`NetConfig::write_timeout`]. Idle connections *between* frames are
//! never timed. Shutdown is graceful: the loop stops accepting, closes
//! idle connections, and lets every in-flight response finish before the
//! threads join.
//!
//! ## One stats plane
//!
//! Every operational fact has one home. The store counts requests, tier
//! hits/misses/evictions, bytes served and publishes
//! ([`ContentServer::stats`] — exact with no transport at all). The
//! transport owns its facts, each one atomic written at one site in the
//! reactor: active connections (mirrored off the slab on accept/close),
//! rejected connections (at the over-cap accept), the dispatch-queue depth
//! (under the job lock) and evicted connections (the telemetry handle's
//! `evictions` counter — evicting is a cold path, so it counts at every
//! level; nothing per-request records ungated); open slots are
//! `max_connections` minus the active ones, worked out when read. A node's
//! counters cross the wire once: `TELEMETRY` and
//! [`NetServerHandle::telemetry`] are assembled from those atomics plus
//! `content.stats()` at reply time, written through the one table in
//! `proto.rs` that [`StatsReply::from_snapshot`] reads back, and
//! [`NetClient::stats`] is that typed view of a `TELEMETRY` exchange. Two
//! servers bound over one `Arc<ContentServer>` each report their own
//! transport.
//!
//! ## Observability
//!
//! [`NetConfig::telemetry`] selects a [`recoil_telemetry`] level for the
//! reactor: `Off` (default, near-zero cost), `Counters` (pipeline counters,
//! gauges, and stage histograms; hot-path spans are sampled), or `Trace`
//! (adds a lock-free stage-event ring and times every span). Either side of
//! the wire can hold the instruments, and each holds only its own facts:
//! servers expose theirs through the `TELEMETRY` frame
//! ([`NetClient::remote_telemetry`]; answered at every level, an `Off`
//! server's snapshot reading `off`), and clients keep their own handle
//! ([`NetClient::telemetry`]) recording streaming-fetch latencies and the
//! decodes they ran. A decode returns its stats
//! ([`recoil_core::DecodeStats`]) to its caller; nothing about decoding is
//! kept per process.
//!
//! Who records which instrument: the reactor loop records `frames_read`,
//! `bytes_read`, `inline_serves`, `write_flushes`, `bytes_written`,
//! `busy_rejections`, `evictions`, `inline_serve_ns`, `write_flush_ns`
//! and, from the [`Transmission`](recoil_server::Transmission) the store
//! hands back with each request it serves, `tier_miss_segments` +
//! `combine_ns` for every miss and `tier_hit_segments` for the hits it
//! samples (the first request of every read burst, and 1 in 32 after it);
//! `push_job` records `dispatched_jobs`; a dispatch worker records
//! `dispatch_wait_ns` and `publish_ns` (it times the container's parse and
//! the store's `insert`) — so those three count publishes only. The store
//! records nothing: it has no handle. Clients record `retries`, the
//! `stream_*_ns` breakdown and, from the stats each decode returns,
//! `decode_spans`, `decode_fast_symbols`, `decode_careful_symbols` and
//! `decode_words_consumed` ([`NetClient::fetch_and_decode`] into the
//! client's handle, [`FetchSession::decode_streaming`] into the handle it
//! is given: the client's, or the fabric router's shared one). A server
//! never decodes, so its `decode_*` counters read zero. The fabric router
//! records `failovers`, `replica_promotions` and `healthy_nodes`.
//!
//! ## Client
//!
//! [`NetClient`] keeps a small pool of connections past their HELLO and retries
//! failed calls under a real policy: only idempotent operations (fetch,
//! stats — never PUBLISH over a live connection), a per-call retry budget
//! ([`NetClientConfig::retry_budget`]), jittered exponential backoff, and
//! typed [`RecoilError::Busy`] shed responses honor the server's
//! retry-after hint. A dead pooled connection still gets one immediate
//! free redial (staleness is bookkeeping, not server failure). Decode goes
//! through any [`DecodeBackend`] — AVX-512 → AVX2 → scalar auto-dispatch
//! by default, its thread pool started by the first decode — and the
//! client keeps the word store of the largest stream it fetched, so a
//! remote fetch-and-decode is:
//!
//! ```no_run
//! use recoil_net::NetClient;
//! let client = NetClient::connect("127.0.0.1:4870")?;
//! let bytes = client.fetch_and_decode("movie", 16)?;
//! # Ok::<(), recoil_core::RecoilError>(())
//! ```
//!
//! [`ContentServer`]: recoil_server::ContentServer
//! [`ContentServer::fetch`]: recoil_server::ContentServer::fetch
//! [`ContentServer::insert`]: recoil_server::ContentServer::insert
//! [`RecoilError::Wire`]: recoil_core::RecoilError::Wire
//! [`ContentServer::stats`]: recoil_server::ContentServer::stats
//! [`RecoilError::Busy`]: recoil_core::RecoilError::Busy
//! [`RecoilError`]: recoil_core::RecoilError
//! [`RecoilError::Net`]: recoil_core::RecoilError::Net
//! [`DecodeBackend`]: recoil_core::backend::DecodeBackend

// Safe crate: `forbid` keeps any module from allowing `unsafe`.
#![forbid(unsafe_code)]

use std::sync::{LockResult, PoisonError};

mod client;
mod fault;
mod frame;
mod integrity;
mod proto;
mod server;

pub use client::{
    FetchSession, NetClient, NetClientConfig, RemoteContent, StreamedFetch, WordStore,
};
pub use fault::{splitmix64, FaultPlan};
pub use frame::{FrameType, HELLO_MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use proto::{
    ContentRequest, Hello, PublishOk, PublishRequest, ResumeRequest, StatsReply, TelemetryReply,
    TransmitHeader,
};
pub use recoil_reactor::SlabStats;
pub use server::{NetConfig, NetServer, NetServerHandle, BUSY_RETRY_AFTER_MS};

/// The guard or value of a lock, whether or not a panic poisoned it: every
/// critical section in this crate leaves its data valid at each point it
/// can unwind, so one panicking caller does not fail every later one.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

// Framing internals the integration tests poke at (sending deliberately
// malformed frames requires the raw read/write entry points).
#[doc(hidden)]
pub mod raw {
    pub use crate::frame::{
        append_frame, begin_frame, decode_error, encode_error, end_frame, read_frame, write_frame,
        PayloadReader, PayloadWriter, ReadOutcome,
    };
}
