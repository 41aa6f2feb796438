//! The event-driven `NetServer` backend: every connection multiplexed on
//! one reactor thread, which serves every request itself; only a publish —
//! parsing, validating and storing the container it carries, which is
//! linear in its size — is offloaded to a dispatch pool.
//!
//! Built from `recoil-reactor`'s primitives:
//!
//! - [`Poller`] — edge-triggered epoll tells the loop which sockets are
//!   ready.
//! - [`Slab`] — per-connection state lives in generation-checked slots
//!   whose buffers are *parked* on close and recycled on the next accept,
//!   so the steady-state accept → serve → close cycle allocates nothing.
//! - [`DeadlineQueue`] — progress deadlines (partial frame in, response
//!   out, post-error drain) are armed lazily and re-validated on expiry
//!   against the connection's `last_progress`, so a busy peer is never
//!   evicted and an idle-between-frames peer is never timed.
//! - [`WakePipe`] — a dispatch worker finishes a publish, pushes a
//!   [`Completion`], and wakes the loop through the pipe.
//!
//! Each connection is a small state machine:
//!
//! ```text
//!            accept
//!              │
//!              ▼
//!         Handshake ──HELLO ok──▶ Write(HELLO) ─┐
//!              │                                │
//!              ▼                                ▼
//!   (violation) ERROR          ┌──────────▶ ReadFrame ◀────────────┐
//!              │               │               │                   │
//!              ▼               │     ┌─────────┼───────────┐       │
//!            Write             │ TELEMETRY  REQUEST/    PUBLISH    │
//!              │               │     │      RESUME         │       │
//!              ▼               │     │   (hit, or miss     ▼       │
//!            Drain             │     │    and combine) Dispatching │
//!              │               │     │        │       (worker      │
//!              ▼               │     │        │        validates)  │
//!            close             │     ▼        ▼            │       │
//!                              │   Write ◀── Write ◀── completion  │
//!                              │     │ (chunks stream in 64 KiB    │
//!                              │     │  coalesced refills)         │
//!                              └─────┴─────────────────────────────┘
//! ```
//!
//! The HELLO exchange, telemetry snapshots and every REQUEST/RESUME — a tier
//! cache hit, or a miss whose combine is a selection of stored split bits —
//! are served inline on the loop with zero per-request allocation beyond a
//! miss's new tier (responses are framed straight into the connection's
//! pending-write buffer; a CHUNK is the next `chunk_words` words, so a
//! response's chunks are a cursor, not a list); only a PUBLISH (the
//! container's parse, validation and store; nothing is encoded server-side)
//! touches a worker.
//!
//! Edge-triggered discipline: sockets are registered once for both
//! directions and never modified — an event is only a hint, and [`pump`]
//! always reads/writes until `WouldBlock` before returning, so no edge is
//! ever left unconsumed.

use super::NetConfig;
use crate::frame::{
    append_frame, begin_frame, encode_error, end_frame, io_err, parse_header, FrameType,
    PayloadWriter, FRAME_HEADER_LEN,
};
use crate::proto::{
    self, ContentRequest, Hello, PublishOk, PublishRequest, ResumeRequest, StatsReply,
    TelemetryReply,
};
use crate::unpoisoned;
use recoil_core::{read_container, RecoilError};
use recoil_reactor::{DeadlineQueue, Poller, Slab, SlabStats, Token, WakePipe};
use recoil_server::{ContentServer, ServerStats, StoredContent, Transmission};
use recoil_telemetry::{Stage, Telemetry, TelemetrySnapshot};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::mem;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Reserved token for the listening socket.
const LISTENER: Token = Token(u64::MAX);
/// Reserved token for the wake pipe's read end.
const WAKE: Token = Token(u64::MAX - 1);
/// Chunk frames are coalesced into the write buffer up to this many pending
/// bytes per refill, bounding a streaming connection's memory to roughly
/// this plus one chunk frame.
const WRITE_HIGH_WATER: usize = 64 * 1024;
/// Stack scratch per read syscall.
const READ_CHUNK: usize = 16 * 1024;
/// How long a half-closed connection may take to drain to EOF so a final
/// ERROR frame actually reaches the peer (dropping a socket with unread
/// inbound data would RST away our own queued bytes).
const DRAIN_BUDGET: Duration = Duration::from_millis(250);
/// Poll cap while rejected connections are still draining in the morgue
/// (they are not registered with the poller).
const MORGUE_TICK: Duration = Duration::from_millis(25);
/// Poll cap during shutdown so the exit condition is re-checked promptly.
const SHUTDOWN_TICK: Duration = Duration::from_millis(50);
/// Parked buffers larger than this are shrunk before reuse, so one huge
/// publish does not pin its buffer forever.
const PARKED_BUFFER_CAP: usize = 64 * 1024;
/// Dispatch-queue depth at which PUBLISH frames are shed with a typed busy
/// error. A connection holds at most one job (nothing more is parsed from
/// it in `Phase::Dispatching`), so the queue is never deeper than the open
/// connections: this sheds only when `max_connections` exceeds it.
const MAX_QUEUE_DEPTH: u64 = 1024;
/// Retry-after hint (milliseconds) in every typed busy error the server
/// sheds load with — over-cap accepts and a full dispatch queue alike; a
/// well-behaved client backs off at least this long before retrying.
pub const BUSY_RETRY_AFTER_MS: u32 = 25;

/// State shared between the event loop, the dispatch workers, and the
/// owning handle.
///
/// This is also where the transport's facts live, each in one atomic
/// written at one site: `active` (mirrored off the slab by
/// [`EventLoop::mirror_slab`]), `rejected` ([`EventLoop::reject`]),
/// `queue_len` (under the job lock), and evicted connections, which is the
/// telemetry handle's `evictions` counter ([`EventLoop::note_eviction`]; a
/// cold path, so it records at every level). Open slots are
/// `max_connections − active`, worked out when read.
/// [`Shared::telemetry_snapshot`] reads them for TELEMETRY and the
/// in-process handle alike.
struct Shared {
    content: Arc<ContentServer>,
    config: NetConfig,
    /// Pre-clamped words per chunk frame.
    chunk_words: usize,
    shutdown: AtomicBool,
    /// Abrupt-death flag ([`super::NetServerHandle::kill`]): the loop
    /// severs every connection without draining and exits immediately,
    /// mimicking a crashed node for failover tests.
    killed: AtomicBool,
    /// Set only after the event loop has been joined — workers must keep
    /// draining the queue while the loop is still dispatching.
    jobs_closed: AtomicBool,
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: recoil_reactor::Waker,
    active: AtomicU64,
    rejected: AtomicU64,
    slab_allocations: AtomicU64,
    slab_reuses: AtomicU64,
    /// Pipeline telemetry (level fixed at bind; `Off` reduces every
    /// instrument to one branch).
    telemetry: Arc<Telemetry>,
    /// The locked job queue's length, written under the job lock on every
    /// push/pop: the queue-depth fact, read lock-free by the shed check and
    /// by every stats reply.
    queue_len: AtomicU64,
}

impl Shared {
    fn push_job(&self, token: Token, buf: Vec<u8>, end: usize) {
        let job = Job {
            token,
            queued_at: Instant::now(),
            buf,
            end,
        };
        let mut jobs = unpoisoned(self.jobs.lock());
        jobs.push_back(job);
        let depth = jobs.len() as u64;
        self.queue_len.store(depth, Ordering::Relaxed);
        self.jobs_cv.notify_one();
        drop(jobs);
        let tel = &self.telemetry;
        if tel.counters_enabled() {
            tel.counters.dispatched_jobs.bump();
            tel.trace(Stage::DispatchQueue, token.0, depth);
        }
    }

    /// The TELEMETRY view: the handle's instruments, then the node's
    /// [`StatsReply`] — the store's six counters and item count plus this
    /// transport's facts — written through its one table. Exact at every
    /// level: the written values are views, not gated instruments.
    fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let active = self.active.load(Ordering::Relaxed);
        // The slab holds at most `u32::MAX` connections, whatever the config.
        let slots = u32::try_from(self.config.max_connections).unwrap_or(u32::MAX);
        let reply = StatsReply {
            stats: ServerStats {
                active_connections: active,
                rejected_connections: self.rejected.load(Ordering::Relaxed),
                evicted_connections: self.telemetry.counters.evictions.get(),
                queue_depth: self.queue_len.load(Ordering::Relaxed),
                open_slots: u64::from(slots).saturating_sub(active),
                ..self.content.stats()
            },
            items: self.content.len() as u64,
        };
        let mut snapshot = self.telemetry.snapshot();
        reply.write_into(&mut snapshot);
        snapshot
    }
}

/// Records what a served transmission says about the tier cache. The store
/// hands these facts back with every response; the transport is the
/// recorder. A miss is the cold path, so at `Counters` every one records
/// its width and the combine it paid for (and traces `Combine`); a hit
/// records its width only on a `sampled` frame (exact hit counts are the
/// store's).
fn record_tier(tel: &Telemetry, token: Token, tx: &Transmission, sampled: bool) {
    if tx.cache_hit {
        if sampled {
            tel.hists.tier_hit_segments.record(tx.tier.segments);
        }
    } else if tel.counters_enabled() {
        let ns = u64::try_from(tx.combine_nanos).unwrap_or(u64::MAX);
        tel.hists.tier_miss_segments.record(tx.tier.segments);
        tel.hists.combine_ns.record(ns);
        tel.trace(Stage::Combine, token.0, ns);
    }
}

/// A PUBLISH shipped to a dispatch worker. The whole read buffer is *lent*
/// (the payload can be tens of MiB; slicing it out would copy): the frame
/// occupies `buf[..end]`, and pipelined bytes behind it survive the trip.
struct Job {
    token: Token,
    queued_at: Instant,
    buf: Vec<u8>,
    end: usize,
}

/// A finished publish: its framed reply (PUBLISH_OK or ERROR) and the lent
/// read buffer coming home.
struct Completion {
    token: Token,
    buf: Vec<u8>,
    end: usize,
    reply: Vec<u8>,
    close_after: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the client's HELLO.
    Handshake,
    /// Between or inside a request frame.
    ReadFrame,
    /// A worker is storing this connection's PUBLISH; the loop ignores the
    /// socket until the completion arrives.
    Dispatching,
    /// Flushing `write_buf` (and refilling it with the next chunks).
    Write,
    /// Half-closed after a fatal error; reading to EOF so the final frame
    /// lands.
    Drain,
}

/// Per-connection state. Slab-parked on close: buffers keep their capacity
/// for the next accept, only the socket is dropped.
struct Conn {
    stream: Option<TcpStream>,
    phase: Phase,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    close_after_write: bool,
    /// The content being chunk-streamed while chunks remain.
    item: Option<Arc<StoredContent>>,
    /// Where the streamed item's CHUNK frames stand; read only while
    /// `item` is set, which staging does after setting it.
    cursor: ChunkCursor,
    last_progress: Instant,
    /// The deadline currently armed in the queue, if any.
    armed: Option<Instant>,
    drain_deadline: Instant,
    /// When the current pending write first hit the socket phase — the
    /// write-flush histogram measures from here to the buffer draining.
    write_started: Option<Instant>,
    /// Completed flush bursts on this connection — the sampling phase for
    /// the write-flush span (timed 1-in-8 at `Counters`, always at
    /// `Trace`; the `write_flushes` counter itself stays exact).
    flushes: u64,
    /// Response bytes written over this connection's lifetime — the
    /// fault plan's `kill_after_write_bytes` trigger point.
    written_total: u64,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream: Some(stream),
            phase: Phase::Handshake,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            close_after_write: false,
            item: None,
            cursor: ChunkCursor::default(),
            last_progress: now,
            armed: None,
            drain_deadline: now,
            write_started: None,
            flushes: 0,
            written_total: 0,
        }
    }

    /// Re-arms a parked slot for a fresh socket, reusing its buffers.
    fn reset_for(&mut self, stream: TcpStream, now: Instant) {
        self.stream = Some(stream);
        self.phase = Phase::Handshake;
        self.read_buf.clear();
        self.write_buf.clear();
        self.write_pos = 0;
        self.close_after_write = false;
        self.item = None;
        self.last_progress = now;
        self.armed = None;
        self.drain_deadline = now;
        self.write_started = None;
        self.written_total = 0;
    }

    /// Parks the slot: drops the socket (closing it) and any streamed
    /// item, keeps the buffers — capped so one huge publish does not pin
    /// its buffer forever.
    fn park(&mut self) {
        self.stream = None;
        self.item = None;
        self.read_buf.clear();
        self.read_buf.shrink_to(PARKED_BUFFER_CAP);
        self.write_buf.clear();
        self.write_buf.shrink_to(PARKED_BUFFER_CAP);
        self.write_pos = 0;
        self.close_after_write = false;
        self.armed = None;
        self.write_started = None;
    }

    /// Appends the streamed item's next CHUNK frames to the write buffer
    /// ([`fill_chunks`]), and lets the item go after its last.
    fn stream_chunks(&mut self, chunk_words: usize) {
        if let Some(item) = &self.item {
            let words = item.stream.words.as_bytes();
            fill_chunks(&mut self.write_buf, words, &mut self.cursor, chunk_words);
            if 2 * self.cursor.word == words.len() {
                self.item = None;
            }
        }
    }

    /// The progress deadline this phase wants, if any. Idle connections
    /// *between* frames are deliberately deadline-free — only a peer that
    /// owes bytes (mid-handshake, mid-frame, mid-response, mid-drain) is
    /// timed.
    fn desired_deadline(&self, read_timeout: Duration, write_timeout: Duration) -> Option<Instant> {
        match self.phase {
            Phase::Handshake | Phase::ReadFrame if !self.read_buf.is_empty() => {
                Some(self.last_progress + read_timeout)
            }
            Phase::Handshake | Phase::ReadFrame | Phase::Dispatching => None,
            Phase::Write => Some(self.last_progress + write_timeout),
            Phase::Drain => Some(self.drain_deadline),
        }
    }
}

/// What one pump of a connection decided.
enum Fate {
    Keep,
    /// Kept, and one job went to the dispatch pool during this pump.
    Dispatched,
    Close,
}

/// Tries to parse one frame header + payload from the front of `buf`.
/// `Ok(Some((ty, end)))` means a complete frame occupies `buf[..end]`
/// (payload after the header); `Ok(None)` means more bytes are needed.
/// The header is judged by [`parse_header`] as soon as its bytes arrive,
/// before any payload accumulates.
fn parse_frame(buf: &[u8]) -> Result<Option<(FrameType, usize)>, RecoilError> {
    Ok(parse_header(buf)?
        .map(|(ty, len)| (ty, FRAME_HEADER_LEN + len))
        .filter(|&(_, end)| buf.len() >= end))
}

/// Frames `payload` straight into the pending-write buffer and enters
/// `Write`. Control payloads staged here (HELLO, TELEMETRY_REPLY, ERROR)
/// are far below the frame cap.
fn stage_payload(conn: &mut Conn, ty: FrameType, payload: &[u8], close_after: bool) {
    append_frame(&mut conn.write_buf, ty, payload)
        .expect("staged control frames are far below the frame cap");
    conn.close_after_write |= close_after;
    conn.phase = Phase::Write;
}

fn stage_error(conn: &mut Conn, e: &RecoilError, close_after: bool) {
    stage_payload(conn, FrameType::Error, &encode_error(e), close_after);
}

/// Stages a served transmission: TRANSMIT header framed in place (no
/// owned header struct, no metadata/freqs/final-states copies), then its
/// CHUNK frames streamed, coalesced, from the `Write` phase.
///
/// A non-zero `from_word` (RESUME) starts the chunks at the first word the
/// peer is missing: split metadata makes word-stream readiness a strict
/// prefix, so a resuming client continues exactly where the dead node
/// stopped. The header keeps whole-stream geometry and CRC (the client
/// cross-checks them against the header it saw before the failure); only
/// `chunk_count` counts from `from_word`, and sequence numbers restart at
/// zero.
fn stage_transmission(
    conn: &mut Conn,
    chunk_words: usize,
    transmission: Transmission,
    item: Arc<StoredContent>,
    from_word: u64,
) {
    let chunk_count = match chunk_count(from_word, item.stream.words.len(), chunk_words) {
        Ok(count) => count,
        Err(e) => return stage_error(conn, &e, true),
    };
    let at = begin_frame(&mut conn.write_buf, FrameType::Transmit);
    let mut w = PayloadWriter(mem::take(&mut conn.write_buf));
    proto::write_transmit_header(&mut w, &transmission, &item, chunk_count);
    conn.write_buf = w.0;
    if end_frame(&mut conn.write_buf, at).is_err() {
        // A tier whose metadata outgrows the frame cap is unservable on
        // this wire; roll the header back and report instead.
        conn.write_buf.truncate(at - FRAME_HEADER_LEN);
        stage_error(
            conn,
            &RecoilError::net("transmit header exceeds the frame cap"),
            true,
        );
        return;
    }
    // `chunk_count` checked `from_word <= words.len()`, so it is an index.
    conn.cursor = ChunkCursor::default();
    conn.cursor.word = from_word as usize;
    conn.item = Some(item);
    conn.phase = Phase::Write;
    // Eager first fill: small streams land whole in the buffer (clearing
    // `item` so pipelined follow-up requests can batch behind them); big
    // streams stop at the high-water mark and refill from `Write`.
    conn.stream_chunks(chunk_words);
}

/// Where a response's CHUNK frames stand: the next word to send and the
/// next frame's sequence number.
#[derive(Default)]
struct ChunkCursor {
    word: usize,
    seq: u32,
}

/// How many CHUNK frames a response from word `from` of a `total`-word
/// stream carries: `ceil((total − from) / chunk_words)`, none for an empty
/// remainder. A RESUME offset beyond the stream is refused.
fn chunk_count(from: u64, total: usize, chunk_words: usize) -> Result<u32, RecoilError> {
    let total = total as u64;
    if from > total {
        return Err(RecoilError::net(format!(
            "resume offset {from} is beyond the stream ({total} words)"
        )));
    }
    u32::try_from((total - from).div_ceil(chunk_words as u64))
        .map_err(|_| RecoilError::net("stream needs more than 2^32 chunk frames"))
}

/// Appends the next CHUNK frames of `words` to `buf`, up to the high-water
/// mark or the stream's end. Chunk `k` of a response from word `from` holds
/// words `[from + k·c, min(from + (k+1)·c, words.len()))` for `c =
/// chunk_words`, which `NetConfig::effective_chunk_words` pre-clamps to the
/// frame cap.
fn fill_chunks(buf: &mut Vec<u8>, words: &[u8], cursor: &mut ChunkCursor, chunk_words: usize) {
    let total = words.len() / 2;
    while cursor.word < total && buf.len() < WRITE_HIGH_WATER {
        let end = total.min(cursor.word + chunk_words);
        let at = begin_frame(buf, FrameType::Chunk);
        buf.extend_from_slice(&cursor.seq.to_le_bytes());
        buf.extend_from_slice(&words[2 * cursor.word..2 * end]);
        end_frame(buf, at).expect("chunk frames are pre-clamped to the frame cap");
        cursor.word = end;
        cursor.seq += 1;
    }
}

/// Judges the client's HELLO ([`Hello::decode`]) and stages ours in reply,
/// or a typed rejection that closes the connection.
fn handle_hello(conn: &mut Conn, ty: FrameType, end: usize) {
    if ty != FrameType::Hello {
        let e = RecoilError::net(format!("expected HELLO, got {ty:?}"));
        stage_error(conn, &e, true);
        return;
    }
    if let Err(e) = Hello::decode(&conn.read_buf[FRAME_HEADER_LEN..end]) {
        stage_error(conn, &e, true);
        return;
    }
    conn.read_buf.drain(..end);
    conn.phase = Phase::ReadFrame;
    stage_payload(conn, FrameType::Hello, &Hello::ours().encode(), false);
}

/// Decodes a REQUEST or RESUME payload and serves it through the store,
/// tier-cache hit or miss alike: a miss's combine is a selection of the
/// item's stored split bits, cheaper than a trip through the dispatch pool.
/// Returns the transmission, its item and `from_word` (zero for a fresh
/// REQUEST), or the error to stage and whether it closes the connection.
fn request_action(
    shared: &Shared,
    token: Token,
    payload: &[u8],
    resume: bool,
    sampled: bool,
) -> Result<(Transmission, Arc<StoredContent>, u64), (RecoilError, bool)> {
    let (name, parallel_segments, from_word) = if resume {
        ResumeRequest::decode(payload).map(|r| (r.name, r.parallel_segments, r.from_word))
    } else {
        ContentRequest::decode(payload).map(|r| (r.name, r.parallel_segments, 0))
    }
    .map_err(|e| (e, true))?;
    let (tx, item) = shared
        .content
        .fetch(name, parallel_segments)
        .map_err(|e| (e, false))?;
    record_tier(&shared.telemetry, token, &tx, sampled);
    Ok((tx, item, from_word))
}

/// Handles one complete request frame at the front of `read_buf`;
/// `sampled` says whether this frame's spans are being recorded. A PUBLISH
/// leaves the connection in `Dispatching`; everything else is answered
/// here.
fn handle_frame(
    conn: &mut Conn,
    token: Token,
    shared: &Shared,
    ty: FrameType,
    end: usize,
    sampled: bool,
) {
    match ty {
        FrameType::Publish => {
            if shared.queue_len.load(Ordering::Relaxed) >= MAX_QUEUE_DEPTH {
                // Shed with the typed busy error rather than queueing
                // unboundedly behind a slow pool. The connection stays
                // open: the publish never started, so the peer may retry
                // on this socket after the hint.
                conn.read_buf.drain(..end);
                let tel = &shared.telemetry;
                if tel.counters_enabled() {
                    tel.counters.busy_rejections.bump();
                }
                stage_error(conn, &RecoilError::busy(BUSY_RETRY_AFTER_MS), false);
                return;
            }
            // Validation is linear in a payload of up to 64 MiB: lend the
            // whole read buffer to a worker rather than copying it out.
            let buf = mem::take(&mut conn.read_buf);
            conn.phase = Phase::Dispatching;
            shared.push_job(token, buf, end);
        }
        FrameType::Request | FrameType::Resume => {
            let resume = ty == FrameType::Resume;
            let payload = &conn.read_buf[FRAME_HEADER_LEN..end];
            let served = request_action(shared, token, payload, resume, sampled);
            conn.read_buf.drain(..end);
            match served {
                Ok((tx, item, from_word)) => {
                    stage_transmission(conn, shared.chunk_words, tx, item, from_word)
                }
                Err((e, close)) => stage_error(conn, &e, close),
            }
        }
        FrameType::Telemetry => {
            let well_formed = end == FRAME_HEADER_LEN;
            conn.read_buf.drain(..end);
            if !well_formed {
                let e = RecoilError::net("telemetry request carries an unexpected payload");
                stage_error(conn, &e, true);
                return;
            }
            let tel = &shared.telemetry;
            // Draining is consuming: each buffered trace event is delivered
            // to exactly one TELEMETRY response.
            let trace = if tel.trace_enabled() {
                tel.drain_trace()
            } else {
                Vec::new()
            };
            let reply = TelemetryReply {
                snapshot: shared.telemetry_snapshot(),
                trace,
            };
            stage_payload(conn, FrameType::TelemetryReply, &reply.encode(), false);
        }
        other => {
            let e = RecoilError::net(format!("unexpected {other:?} frame from client"));
            stage_error(conn, &e, true);
        }
    }
}

/// Per-`pump` instrument tallies, kept in plain locals on the stack and
/// flushed to the sharded counters once per call — one atomic add per
/// counter per socket wakeup instead of per frame, which keeps the
/// `Counters` level within noise of `Off` on the pipelined hot path.
#[derive(Default)]
struct PumpTally {
    frames: u64,
    /// Request frames parsed since the last successful socket read: the
    /// sample phase, so the first request of every read burst is sampled.
    since_read: u64,
    inline: u64,
    bytes_read: u64,
    bytes_written: u64,
}

/// Drives one connection until it blocks: parse and serve every complete
/// frame, read until `WouldBlock`, flush and refill until `WouldBlock`.
/// This *must* exhaust the socket in both directions before returning —
/// under edge-triggered polling an unconsumed edge never fires again.
fn pump(conn: &mut Conn, token: Token, shared: &Shared) -> Fate {
    let mut tally = PumpTally::default();
    let out = pump_inner(conn, token, shared, &mut tally);
    let tel = &shared.telemetry;
    if tel.counters_enabled() {
        let c = &tel.counters;
        if tally.frames > 0 {
            c.frames_read.add(tally.frames);
        }
        if tally.inline > 0 {
            c.inline_serves.add(tally.inline);
        }
        if tally.bytes_read > 0 {
            c.bytes_read.add(tally.bytes_read);
        }
        if tally.bytes_written > 0 {
            c.bytes_written.add(tally.bytes_written);
        }
    }
    out
}

fn pump_inner(conn: &mut Conn, token: Token, shared: &Shared, tally: &mut PumpTally) -> Fate {
    let mut scratch = [0u8; READ_CHUNK];
    // Armed fault schedule, if any (chaos testing only; a faultless server
    // pays one `Option` check per write). The write delay sleeps on the
    // event-loop thread — faulted nodes are slow for *everyone*, which is
    // exactly the failure shape being simulated.
    let fault = shared.config.fault_plan.as_ref();
    loop {
        match conn.phase {
            Phase::Handshake | Phase::ReadFrame => match parse_frame(&conn.read_buf) {
                Err(e) => stage_error(conn, &e, true),
                Ok(Some((ty, end))) => {
                    let tel = &shared.telemetry;
                    tally.frames += 1;
                    if tel.trace_enabled() {
                        tel.trace(Stage::FrameRead, token.0, u64::from(ty.byte()));
                    }
                    if conn.phase == Phase::Handshake {
                        handle_hello(conn, ty, end);
                    } else {
                        // Span timing needs two clock reads, which are not
                        // cheap on every host (~40 ns each): `Counters`
                        // samples the first request of each read burst and
                        // 1 in 32 after it (the histogram stays
                        // statistically sound at serving rates), `Trace`
                        // times every frame.
                        let sampled = tel.counters_enabled()
                            && (tel.trace_enabled() || tally.since_read & 31 == 0);
                        tally.since_read += 1;
                        let started = sampled.then(Instant::now);
                        handle_frame(conn, token, shared, ty, end, sampled);
                        if conn.phase == Phase::Dispatching {
                            return Fate::Dispatched;
                        }
                        // Anything that went straight from a parsed frame to
                        // staged response bytes was served inline on the
                        // event loop, without touching the dispatch pool.
                        if conn.phase == Phase::Write {
                            tally.inline += 1;
                            if let Some(t0) = started {
                                let ns = elapsed_ns(t0);
                                tel.hists.inline_serve_ns.record(ns);
                                tel.trace(Stage::InlineServe, token.0, ns);
                            }
                        }
                    }
                    // Response batching: if the response landed whole in
                    // the write buffer and another complete request is
                    // already pipelined behind it, keep parsing — the
                    // whole burst then flushes in one write.
                    if conn.phase == Phase::Write
                        && conn.item.is_none()
                        && !conn.close_after_write
                        && conn.write_buf.len() < WRITE_HIGH_WATER
                        && matches!(parse_frame(&conn.read_buf), Ok(Some(_)))
                    {
                        conn.phase = Phase::ReadFrame;
                    }
                }
                Ok(None) => {
                    let mut s = conn.stream.as_ref().expect("live conn has a stream");
                    match s.read(&mut scratch) {
                        Ok(0) => return Fate::Close,
                        Ok(n) => {
                            conn.read_buf.extend_from_slice(&scratch[..n]);
                            conn.last_progress = Instant::now();
                            tally.bytes_read += n as u64;
                            tally.since_read = 0;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => return Fate::Keep,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return Fate::Close,
                    }
                }
            },
            Phase::Dispatching => return Fate::Keep,
            Phase::Write => {
                if conn.write_started.is_none() {
                    let tel = &shared.telemetry;
                    if tel.counters_enabled() && (tel.trace_enabled() || conn.flushes & 7 == 0) {
                        conn.write_started = Some(Instant::now());
                    }
                }
                loop {
                    while conn.write_pos < conn.write_buf.len() {
                        let pending = conn.write_buf.len() - conn.write_pos;
                        let (take, dies) = match fault {
                            None => (pending, false),
                            Some(f) => {
                                if let Some(d) = f.write_delay {
                                    std::thread::sleep(d);
                                }
                                f.clamp_write(conn.written_total, pending)
                            }
                        };
                        let mut s = conn.stream.as_ref().expect("live conn has a stream");
                        match s.write(&conn.write_buf[conn.write_pos..][..take]) {
                            Ok(0) => return Fate::Close,
                            Ok(n) => {
                                conn.write_pos += n;
                                conn.written_total += n as u64;
                                conn.last_progress = Instant::now();
                                tally.bytes_written += n as u64;
                                if dies && n == take {
                                    // Fault: die abruptly mid-frame, no drain.
                                    return Fate::Close;
                                }
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => return Fate::Keep,
                            Err(e) if e.kind() == ErrorKind::Interrupted => {}
                            Err(_) => return Fate::Close,
                        }
                    }
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    if conn.item.is_none() {
                        break;
                    }
                    conn.stream_chunks(shared.chunk_words);
                }
                // The staged response (header + every chunk) is fully on the
                // wire: count the burst, and close out the flush span when
                // this burst was one of the sampled ones.
                {
                    let tel = &shared.telemetry;
                    if tel.counters_enabled() {
                        conn.flushes = conn.flushes.wrapping_add(1);
                        tel.counters.write_flushes.bump();
                        if let Some(t0) = conn.write_started.take() {
                            let ns = elapsed_ns(t0);
                            tel.hists.write_flush_ns.record(ns);
                            tel.trace(Stage::WriteFlush, token.0, ns);
                        }
                    } else {
                        conn.write_started = None;
                    }
                }
                if conn.close_after_write {
                    conn.close_after_write = false;
                    let s = conn.stream.as_ref().expect("live conn has a stream");
                    let _ = s.shutdown(Shutdown::Write);
                    conn.drain_deadline = Instant::now() + DRAIN_BUDGET;
                    conn.phase = Phase::Drain;
                    continue;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    // The in-flight response above was fully written.
                    return Fate::Close;
                }
                conn.phase = Phase::ReadFrame;
            }
            Phase::Drain => {
                let mut s = conn.stream.as_ref().expect("live conn has a stream");
                loop {
                    match s.read(&mut scratch) {
                        Ok(0) => return Fate::Close,
                        Ok(_) => {}
                        Err(e) if e.kind() == ErrorKind::WouldBlock => return Fate::Keep,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return Fate::Close,
                    }
                }
            }
        }
    }
}

/// A rejected over-cap connection draining its courtesy ERROR frame. Not
/// registered with the poller — the loop drives the morgue on a short
/// tick until each socket flushes + reaches EOF or its deadline passes.
struct Doomed {
    stream: TcpStream,
    bytes: Vec<u8>,
    written: usize,
    half_closed: bool,
    deadline: Instant,
}

/// One best-effort push on a doomed socket; `false` means done (or given
/// up) and the socket can drop.
fn drive_doomed(d: &mut Doomed) -> bool {
    if Instant::now() >= d.deadline {
        return false;
    }
    while d.written < d.bytes.len() {
        let mut s = &d.stream;
        match s.write(&d.bytes[d.written..]) {
            Ok(0) => return false,
            Ok(n) => d.written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if !d.half_closed {
        d.half_closed = true;
        let _ = d.stream.shutdown(Shutdown::Write);
    }
    let mut buf = [0u8; 1024];
    loop {
        let mut s = &d.stream;
        match s.read(&mut buf) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    wake: Arc<WakePipe>,
    listener: Option<TcpListener>,
    conns: Slab<Conn>,
    deadlines: DeadlineQueue,
    morgue: Vec<Doomed>,
    ready: Vec<Token>,
    expired: Vec<Token>,
    /// Jobs dispatched whose completions have not come back yet.
    in_flight: usize,
}

impl EventLoop {
    fn run(&mut self) {
        loop {
            if self.shared.killed.load(Ordering::Acquire) {
                self.kill_now();
                return;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.begin_shutdown();
                self.process_completions();
                if self.conns.is_empty() && self.in_flight == 0 && self.morgue.is_empty() {
                    return;
                }
            }
            let timeout = self.poll_timeout();
            let mut ready = mem::take(&mut self.ready);
            if self.poller.wait(&mut ready, timeout).is_err() {
                ready.clear();
                std::thread::sleep(Duration::from_millis(5));
            }
            for &token in &ready {
                match token {
                    LISTENER => self.accept_ready(),
                    WAKE => self.process_completions(),
                    token => self.pump_token(token),
                }
            }
            self.ready = ready;
            self.drive_morgue();
            self.check_deadlines();
        }
    }

    /// How long the poller may sleep: until the next deadline, capped when
    /// unpolled work (morgue, shutdown drain) needs a tick.
    fn poll_timeout(&mut self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout = self
            .deadlines
            .next_deadline()
            .map(|d| d.saturating_duration_since(now));
        if !self.morgue.is_empty() {
            timeout = Some(timeout.map_or(MORGUE_TICK, |t| t.min(MORGUE_TICK)));
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            timeout = Some(timeout.map_or(SHUTDOWN_TICK, |t| t.min(SHUTDOWN_TICK)));
        }
        timeout
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self
            .shared
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|f| f.rst_on_accept)
        {
            // Fault: accept, then drop without reading the peer's HELLO.
            // The unread inbound bytes turn the close into an RST.
            return;
        }
        let now = Instant::now();
        if self.conns.len() >= self.shared.config.max_connections {
            self.reject(stream, now);
            return;
        }
        let fd = stream.as_raw_fd();
        let mut stream = Some(stream);
        let token = self.conns.insert_with(|parked| {
            let stream = stream.take().expect("insert_with runs its closure once");
            match parked {
                Some(mut conn) => {
                    conn.reset_for(stream, now);
                    conn
                }
                None => Conn::new(stream, now),
            }
        });
        let Some(token) = token else {
            // Lost a race past the length check; reject after all.
            if let Some(stream) = stream {
                self.reject(stream, now);
            }
            return;
        };
        // Registered once for both directions, never modified — zero
        // epoll_ctl calls on the steady path.
        if self.poller.register(fd, token).is_err() {
            self.conns.remove_with(token, |mut conn| {
                conn.park();
                Some(conn)
            });
            return;
        }
        self.mirror_slab();
        self.pump_token(token);
    }

    /// Rejects an over-cap connection with a typed busy error (code +
    /// retry-after hint, so backoff-aware clients pace themselves), then
    /// parks it in the morgue until the frame flushes and the peer hangs
    /// up.
    fn reject(&mut self, stream: TcpStream, now: Instant) {
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        let tel = &self.shared.telemetry;
        if tel.counters_enabled() {
            tel.counters.busy_rejections.bump();
        }
        let e = RecoilError::busy(BUSY_RETRY_AFTER_MS);
        let mut doomed = Doomed {
            stream,
            bytes: framed(FrameType::Error, &encode_error(&e)),
            written: 0,
            half_closed: false,
            deadline: now + DRAIN_BUDGET,
        };
        if drive_doomed(&mut doomed) {
            self.morgue.push(doomed);
        }
    }

    fn drive_morgue(&mut self) {
        self.morgue.retain_mut(drive_doomed);
    }

    fn pump_token(&mut self, token: Token) {
        let Self { conns, shared, .. } = self;
        let Some(conn) = conns.get_mut(token) else {
            return;
        };
        match pump(conn, token, shared) {
            Fate::Keep => self.after_pump(token),
            Fate::Dispatched => {
                self.in_flight += 1;
                self.after_pump(token)
            }
            Fate::Close => self.close_conn(token),
        }
    }

    /// Post-pump bookkeeping: lazily arm the phase's deadline — set once at
    /// phase entry, re-validated against `last_progress` on expiry instead
    /// of being re-pushed on every pump.
    fn after_pump(&mut self, token: Token) {
        let config = &self.shared.config;
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        match conn.desired_deadline(config.read_timeout, config.write_timeout) {
            None => {
                if conn.armed.take().is_some() {
                    self.deadlines.clear(token);
                }
            }
            Some(d) => {
                if conn.armed.is_none() {
                    conn.armed = Some(d);
                    self.deadlines.set(token, d);
                }
            }
        }
    }

    fn close_conn(&mut self, token: Token) {
        let Some(conn) = self.conns.get(token) else {
            return;
        };
        if let Some(stream) = conn.stream.as_ref() {
            let _ = self.poller.deregister(stream.as_raw_fd());
        }
        self.conns.remove_with(token, |mut conn| {
            conn.park();
            Some(conn)
        });
        self.deadlines.clear(token);
        self.mirror_slab();
    }

    fn process_completions(&mut self) {
        // Drain the pipe *before* taking the vec: a worker that pushes
        // after the take but before the drain still leaves a byte behind,
        // whereas the reverse order would lose its wakeup.
        self.wake.drain();
        let completions = mem::take(&mut *unpoisoned(self.shared.completions.lock()));
        for completion in completions {
            self.in_flight -= 1;
            self.apply_completion(completion);
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        let Completion {
            token,
            mut buf,
            end,
            reply,
            close_after,
        } = completion;
        // Generation-checked: a completion for a connection that died while
        // its job ran resolves to nothing.
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        // The lent read buffer comes home; drop the handled frame but keep
        // any pipelined bytes queued behind it.
        buf.drain(..end);
        conn.read_buf = buf;
        conn.write_buf.extend_from_slice(&reply);
        conn.close_after_write |= close_after;
        conn.phase = Phase::Write;
        self.pump_token(token);
    }

    fn check_deadlines(&mut self) {
        let now = Instant::now();
        let mut expired = mem::take(&mut self.expired);
        expired.clear();
        self.deadlines.expired(now, &mut expired);
        for &token in &expired {
            self.handle_expiry(token, now);
        }
        self.expired = expired;
    }

    /// A deadline fired. Deadlines are armed once at phase entry, so the
    /// connection may have made progress since: re-validate against the
    /// phase's *current* desired deadline and only evict a peer that has
    /// genuinely stalled past its timeout.
    fn handle_expiry(&mut self, token: Token, now: Instant) {
        let read_timeout = self.shared.config.read_timeout;
        let write_timeout = self.shared.config.write_timeout;
        enum Action {
            Nothing,
            Rearm(Instant),
            EvictRead,
            EvictWrite,
            Drop,
        }
        let action = {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            conn.armed = None;
            match conn.desired_deadline(read_timeout, write_timeout) {
                None => Action::Nothing,
                Some(d) if d > now => {
                    conn.armed = Some(d);
                    Action::Rearm(d)
                }
                Some(_) => match conn.phase {
                    Phase::Handshake | Phase::ReadFrame => Action::EvictRead,
                    Phase::Write => Action::EvictWrite,
                    Phase::Drain => Action::Drop,
                    Phase::Dispatching => Action::Nothing,
                },
            }
        };
        match action {
            Action::Nothing => {}
            Action::Rearm(d) => self.deadlines.set(token, d),
            Action::EvictRead => {
                // Consume anything already queued in the kernel before
                // judging the peer: if the event loop itself fell behind,
                // the bytes are here and the peer is innocent.
                self.pump_token(token);
                let now = Instant::now();
                let stalled = self.conns.get(token).is_some_and(|c| {
                    matches!(c.phase, Phase::Handshake | Phase::ReadFrame)
                        && c.desired_deadline(read_timeout, write_timeout)
                            .is_some_and(|d| d <= now)
                });
                if stalled {
                    // Slow loris: the peer started a frame (or the
                    // handshake) and stopped feeding it. Tell it why,
                    // then drain out.
                    self.note_eviction(token);
                    if let Some(conn) = self.conns.get_mut(token) {
                        stage_error(conn, &RecoilError::net("peer stalled mid-frame"), true);
                    }
                    self.pump_token(token);
                }
            }
            Action::EvictWrite => {
                // The peer stopped consuming its response; nothing more
                // can be said on a jammed pipe.
                self.note_eviction(token);
                self.close_conn(token);
            }
            Action::Drop => self.close_conn(token),
        }
    }

    /// Counts an eviction — the `evicted_connections` fact. A cold path, so
    /// the counter records at every telemetry level.
    fn note_eviction(&self, token: Token) {
        let tel = &self.shared.telemetry;
        tel.counters.evictions.bump();
        tel.trace(Stage::Evict, token.0, 0);
    }

    /// Abrupt death ([`super::NetServerHandle::kill`]): drop the listener
    /// and sever every connection without draining its response or saying
    /// goodbye — in-flight transfers cut off mid-frame, like a crashed
    /// process.
    fn kill_now(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        let mut tokens = Vec::new();
        self.conns.collect_tokens(&mut tokens);
        for token in tokens {
            self.close_conn(token);
        }
        self.morgue.clear();
    }

    /// Stops accepting and closes every connection not owed a response;
    /// connections mid-response (or mid-dispatch) finish first.
    fn begin_shutdown(&mut self) {
        let Some(listener) = self.listener.take() else {
            return;
        };
        let _ = self.poller.deregister(listener.as_raw_fd());
        drop(listener);
        let mut tokens = Vec::new();
        self.conns.collect_tokens(&mut tokens);
        for token in tokens {
            let idle = self.conns.get(token).is_some_and(|c| {
                matches!(c.phase, Phase::Handshake | Phase::ReadFrame | Phase::Drain)
            });
            if idle {
                self.close_conn(token);
            }
        }
    }

    /// Mirrors what the slab knows into `Shared` after every insert and
    /// remove: open connections for the telemetry snapshot, the
    /// allocation/reuse tallies for the handle.
    fn mirror_slab(&self) {
        let (shared, stats) = (&self.shared, self.conns.stats());
        let set = |slot: &AtomicU64, v: u64| slot.store(v, Ordering::Relaxed);
        set(&shared.active, self.conns.len() as u64);
        set(&shared.slab_allocations, stats.allocations);
        set(&shared.slab_reuses, stats.reuses);
    }
}

/// One dispatch worker: pop a job, run it, push the completion, wake the
/// loop. Exits only when the handle closes the queue *after* joining the
/// event loop, so no job is ever stranded.
fn dispatch_worker(shared: &Shared) {
    let mut jobs = unpoisoned(shared.jobs.lock());
    loop {
        if let Some(job) = jobs.pop_front() {
            shared.queue_len.store(jobs.len() as u64, Ordering::Relaxed);
            drop(jobs);
            let tel = &shared.telemetry;
            if tel.counters_enabled() {
                let wait = elapsed_ns(job.queued_at);
                tel.hists.dispatch_wait_ns.record(wait);
                tel.trace(Stage::DispatchRun, job.token.0, wait);
            }
            let completion = run_job(shared, job);
            unpoisoned(shared.completions.lock()).push(completion);
            shared.waker.wake();
            jobs = unpoisoned(shared.jobs.lock());
        } else if shared.jobs_closed.load(Ordering::Acquire) {
            return;
        } else {
            jobs = unpoisoned(shared.jobs_cv.wait(jobs));
        }
    }
}

/// Saturating nanoseconds since `t0`, sized for histogram/trace fields.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One complete frame as owned bytes, for a completion to carry home.
fn framed(ty: FrameType, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    append_frame(&mut bytes, ty, payload).expect("control frames are far below the frame cap");
    bytes
}

fn run_job(shared: &Shared, job: Job) -> Completion {
    let Job {
        token, buf, end, ..
    } = job;
    let tel = &shared.telemetry;
    let started = tel.counters_enabled().then(Instant::now);
    let outcome = publish(shared, &buf[FRAME_HEADER_LEN..end]);
    if let Some(t0) = started {
        // The histogram holds successful publishes only; the trace covers
        // every publish job.
        let ns = elapsed_ns(t0);
        if outcome.is_ok() {
            tel.hists.publish_ns.record(ns);
        }
        tel.trace(Stage::Publish, token.0, ns);
    }
    let (reply, close_after) = match outcome {
        Ok(ok) => (framed(FrameType::PublishOk, &ok.encode()), false),
        Err((e, close)) => (framed(FrameType::Error, &encode_error(&e)), close),
    };
    Completion {
        token,
        buf,
        end,
        reply,
        close_after,
    }
}

/// PUBLISH off the loop: decode the message in place, parse the container
/// (each section's CRC first, then every structural check) and store it as
/// it is, with the words CRC it carried.
/// Application failures (a container that does not parse or validate, a
/// duplicate name) are in-band and keep the connection; a payload that is
/// not a PUBLISH message is a protocol violation and closes it (the
/// `bool`).
fn publish(shared: &Shared, payload: &[u8]) -> Result<PublishOk, (RecoilError, bool)> {
    let msg = PublishRequest::decode(payload).map_err(|e| (e, true))?;
    let (container, model, words_crc) = read_container(msg.container).map_err(|e| (e, false))?;
    let item = shared
        .content
        .insert(msg.name, container, model, words_crc)
        .map_err(|e| (e, false))?;
    Ok(PublishOk {
        segments: item.max_segments(),
        stream_bytes: item.stream.payload_bytes(),
    })
}

/// Starts the reactor backend on an already-bound listener.
pub(super) fn bind(
    content: Arc<ContentServer>,
    listener: TcpListener,
    config: NetConfig,
) -> Result<ReactorHandle, RecoilError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err("set_nonblocking", e))?;
    let mut poller = Poller::new().map_err(|e| io_err("create poller", e))?;
    let wake = WakePipe::new().map_err(|e| io_err("create wake pipe", e))?;
    poller
        .register(listener.as_raw_fd(), LISTENER)
        .map_err(|e| io_err("register listener", e))?;
    poller
        .register(wake.read_fd(), WAKE)
        .map_err(|e| io_err("register wake pipe", e))?;

    let chunk_words = config.effective_chunk_words().max(1);
    let workers = config.workers.max(1);
    let max_connections = config.max_connections;
    let telemetry = Arc::new(Telemetry::new(config.telemetry));
    let shared = Arc::new(Shared {
        content,
        config,
        chunk_words,
        telemetry,
        shutdown: AtomicBool::new(false),
        killed: AtomicBool::new(false),
        jobs_closed: AtomicBool::new(false),
        jobs: Mutex::new(VecDeque::new()),
        jobs_cv: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker: wake.waker(),
        active: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        queue_len: AtomicU64::new(0),
        slab_allocations: AtomicU64::new(0),
        slab_reuses: AtomicU64::new(0),
    });

    let mut event_loop = EventLoop {
        shared: Arc::clone(&shared),
        poller,
        wake,
        listener: Some(listener),
        conns: Slab::with_capacity(max_connections),
        deadlines: DeadlineQueue::new(),
        morgue: Vec::new(),
        ready: Vec::new(),
        expired: Vec::new(),
        in_flight: 0,
    };
    let loop_thread = std::thread::Builder::new()
        .name("recoil-net-serve".into())
        .spawn(move || event_loop.run())
        .map_err(|e| io_err("spawn event loop", e))?;

    let mut handle = ReactorHandle {
        shared,
        loop_thread: Some(loop_thread),
        dispatch_threads: Vec::with_capacity(workers),
    };
    for i in 0..workers {
        let shared = Arc::clone(&handle.shared);
        let spawned = std::thread::Builder::new()
            .name(format!("recoil-net-dispatch-{i}"))
            .spawn(move || dispatch_worker(&shared));
        match spawned {
            Ok(t) => handle.dispatch_threads.push(t),
            Err(e) => {
                // Stop what already runs: a dropped handle joins nothing.
                handle.stop(true);
                return Err(io_err("spawn dispatch worker", e));
            }
        }
    }
    Ok(handle)
}

/// Owner of a running reactor backend.
pub(super) struct ReactorHandle {
    shared: Arc<Shared>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    /// The `workers` threads blocked on the job queue.
    dispatch_threads: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    pub(super) fn content(&self) -> &Arc<ContentServer> {
        &self.shared.content
    }

    pub(super) fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed) as usize
    }

    pub(super) fn slab_stats(&self) -> SlabStats {
        SlabStats {
            allocations: self.shared.slab_allocations.load(Ordering::Relaxed),
            reuses: self.shared.slab_reuses.load(Ordering::Relaxed),
        }
    }

    pub(super) fn telemetry(&self) -> TelemetrySnapshot {
        self.shared.telemetry_snapshot()
    }

    /// Stops the backend and joins its threads; idempotent. With `kill` the
    /// event loop severs every connection instead of draining in-flight
    /// responses (abrupt death).
    pub(super) fn stop(&mut self, kill: bool) {
        if kill {
            self.shared.killed.store(true, Ordering::Release);
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        // Only after the loop is gone can the job queue close: a worker
        // exiting while the loop still dispatches would strand a publish.
        self.shared.jobs_closed.store(true, Ordering::Release);
        {
            // Lock-then-notify: a worker between its queue check and its
            // wait would otherwise sleep through the notification.
            let _guard = unpoisoned(self.shared.jobs.lock());
        }
        self.shared.jobs_cv.notify_all();
        for t in self.dispatch_threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{write_frame, MAX_FRAME_LEN};

    #[test]
    fn parse_frame_handles_partial_and_hostile_input() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Telemetry, b"xyz").unwrap();
        for cut in 0..buf.len() {
            assert!(
                parse_frame(&buf[..cut]).unwrap().is_none(),
                "cut {cut} is incomplete"
            );
        }
        assert_eq!(
            parse_frame(&buf).unwrap(),
            Some((FrameType::Telemetry, buf.len()))
        );
        // Pipelined trailing bytes do not confuse the parse.
        buf.push(0xFF);
        assert_eq!(
            parse_frame(&buf).unwrap(),
            Some((FrameType::Telemetry, buf.len() - 1))
        );

        assert!(parse_frame(&[0xABu8])
            .unwrap_err()
            .to_string()
            .contains("unknown frame type"));
        let mut oversized = vec![FrameType::Publish as u8];
        oversized.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(parse_frame(&oversized)
            .unwrap_err()
            .to_string()
            .contains("oversized frame"));
    }

    /// Every response a stream of `total` words can get, at every chunk
    /// size: the CHUNK frames tile `[from, total)` in order, each holds at
    /// most `chunk_words` words and only the last is short, and there are
    /// exactly as many as the TRANSMIT header announces.
    #[test]
    fn chunks_tile_the_rest_of_the_stream_from_every_offset() {
        for c in [1usize, 3, 2048] {
            for total in [0, 1, c - 1, c, c + 1, 5 * c + 3] {
                let words: recoil_rans::WordStream =
                    (0..total).map(|i| i as u16 ^ 0xA5C3).collect();
                let mut buf = Vec::new();
                for from in 0..=total {
                    let count = chunk_count(from as u64, total, c).unwrap();
                    let mut cursor = ChunkCursor { word: from, seq: 0 };
                    let (mut next, mut seen) = (from, 0u32);
                    while cursor.word < total {
                        buf.clear();
                        fill_chunks(&mut buf, words.as_bytes(), &mut cursor, c);
                        let mut rest = &buf[..];
                        while let Some((ty, end)) = parse_frame(rest).unwrap() {
                            assert_eq!(ty, FrameType::Chunk);
                            let (seq, body) = rest[FRAME_HEADER_LEN..end].split_at(4);
                            assert_eq!(seq, seen.to_le_bytes(), "c {c} B {total} from {from}");
                            let len = body.len() / 2;
                            assert!(len > 0 && len <= c, "c {c} B {total} from {from}");
                            assert!(len == c || next + len == total, "only the last is short");
                            // Its first and last words are the stream's.
                            let word =
                                |i: usize| u16::from_le_bytes([body[2 * i], body[2 * i + 1]]);
                            assert_eq!(
                                (word(0), word(len - 1)),
                                (words.word(next), words.word(next + len - 1)),
                                "c {c} B {total} from {from}"
                            );
                            (next, seen) = (next + len, seen + 1);
                            rest = &rest[end..];
                        }
                        assert!(rest.is_empty());
                    }
                    assert_eq!(next, total, "no gap at the end");
                    assert_eq!(seen, count, "c {c} B {total} from {from}");
                }
                let beyond = chunk_count(total as u64 + 1, total, c).unwrap_err();
                assert!(beyond.to_string().contains("beyond the stream"), "{beyond}");
            }
        }
    }
}
