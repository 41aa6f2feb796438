//! The pooling TCP client (remote publish / request / stats under a retry
//! policy) and [`FetchSession`], the one chunked fetch every decode path —
//! buffered, streaming, failed over — is a composition of.

use crate::fault::splitmix64;
use crate::frame::{
    decode_error, io_err, read_exact_patient, read_header, read_payload, write_frame, FrameType,
    HeaderOutcome, MAX_FRAME_LEN,
};
use crate::integrity::{PayloadCheck, CHUNK_SEQ_BYTES};
use crate::proto::{
    ContentRequest, Hello, PublishOk, PublishRequest, ResumeRequest, StatsReply, TelemetryReply,
    TransmitHeader,
};
use crate::unpoisoned;
use recoil_core::backend::{
    ensure_available, preferred_segments, AutoBackend, DecodeBackend, DecodeModel, DecodeRequest,
};
use recoil_core::{
    container_of_item, reserve_declared_words, Codec, DecodeStats, EncoderConfig,
    IncrementalDecoder, RecoilError, RecoilMetadata,
};
use recoil_models::StaticModelProvider;
use recoil_rans::{land_words_le, EncodedStream};
use recoil_telemetry::{Stage, Telemetry, TelemetryLevel};
use std::borrow::BorrowMut;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Idle connections kept for reuse; overflow is closed on check-in.
const MAX_POOL: usize = 4;
/// The longest ERROR payload read in place of a CHUNK. What a node says
/// mid-transfer (shutting down, busy, an internal failure) is a code and a
/// sentence; a header that announces more is refused like an oversized CHUNK.
const MAX_MIDSTREAM_ERROR_LEN: usize = 4096;
/// Retry backoff growth cap.
const RETRY_MAX_BACKOFF: Duration = Duration::from_millis(250);
/// Seed of the backoff jitter sequence (splitmix64): schedules replay.
const RETRY_JITTER_SEED: u64 = 0x005E_EDCA_B1E5;

/// Construction knobs for [`NetClient`].
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Socket read timeout per attempt (idle poll granularity).
    pub read_timeout: Duration,
    /// Total time to wait for a response to one request — on a PUBLISH
    /// that includes the server parsing, validating and storing the
    /// container (the encode runs here, before the request is sent).
    pub response_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Client-side observability. Defaults to `Counters` (unlike the
    /// server): the client records only a handful of histogram samples per
    /// *call*, not per hot-loop iteration, so the cost is negligible and
    /// the streaming latency breakdown is available by default through
    /// [`NetClient::telemetry`].
    pub telemetry: TelemetryLevel,
    /// Retries per call after the first attempt, spent only on
    /// **idempotent** operations (fetch, stats, telemetry — never
    /// PUBLISH) for transport failures and typed busy sheds. A stale
    /// pooled connection additionally gets one immediate free redial that
    /// costs no budget.
    pub retry_budget: u32,
    /// First retry backoff; each further retry doubles it (capped at
    /// 250 ms) and jitters the result by ±50% to decorrelate clients
    /// hitting the same overloaded server.
    pub retry_base_backoff: Duration,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_millis(250),
            response_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            telemetry: TelemetryLevel::Counters,
            retry_budget: 2,
            retry_base_backoff: Duration::from_millis(10),
        }
    }
}

/// How one remote operation failed — the distinction drives connection
/// reuse.
enum OpError {
    /// The server reported a typed error **in-band** (an ERROR frame): the
    /// framing is still synchronized, so the connection goes back to the
    /// pool and there is nothing to retry.
    Remote(RecoilError),
    /// The transport or protocol state is broken (I/O failure, unexpected
    /// frame, corrupt payload): the connection is dropped, and idempotent
    /// operations retry once on a fresh dial.
    Transport(RecoilError),
}

impl OpError {
    fn into_inner(self) -> RecoilError {
        match self {
            Self::Remote(e) | Self::Transport(e) => e,
        }
    }
}

/// A remote content fetch, fully received and integrity-checked: the
/// client-side mirror of what [`recoil_server::Transmission`] plus the
/// stored content provide in-process.
#[derive(Debug)]
pub struct RemoteContent {
    /// The reassembled bitstream.
    pub stream: EncodedStream,
    /// Parsed shrunk metadata for this client's capacity.
    pub metadata: RecoilMetadata,
    /// The served tier's item section as it crossed the wire.
    pub item: Vec<u8>,
    /// Bytes of the section's metadata.
    pub metadata_len: u64,
    /// The static model rebuilt from the transmitted frequencies.
    pub model: StaticModelProvider,
    /// Post-clamp segment count the server actually served.
    pub segments: u64,
    /// Whether the server answered from its shrunk-metadata cache.
    pub cache_hit: bool,
    /// Server-side combine cost in nanoseconds (zero on a cache hit).
    pub combine_nanos: u64,
}

impl RemoteContent {
    /// Transfer size: bitstream payload plus metadata, as the paper counts
    /// it (the model is excluded, §5.2).
    pub fn total_bytes(&self) -> u64 {
        self.stream.payload_bytes() + self.metadata_len
    }

    /// This fetch as a container of its tier; at full width, the published
    /// container byte for byte.
    pub fn container_bytes(&self) -> Vec<u8> {
        container_of_item(&self.item, &self.stream.words)
    }

    /// Decodes through an explicit backend.
    pub fn decode_with(&self, backend: &dyn DecodeBackend) -> Result<Vec<u8>, RecoilError> {
        self.decode_counted(backend).map(|(out, _)| out)
    }

    /// [`RemoteContent::decode_with`], with what the decode did.
    fn decode_counted(
        &self,
        backend: &dyn DecodeBackend,
    ) -> Result<(Vec<u8>, DecodeStats), RecoilError> {
        let mut out = vec![0u8; self.stream.num_symbols as usize];
        let model = DecodeModel::Static(&self.model);
        let stats = backend.decode(DecodeRequest::whole(
            &self.stream,
            &self.metadata,
            model,
            &mut out,
        )?)?;
        Ok((out, stats))
    }
}

/// Adds one decode's stats to a client-side handle's `decode_*` counters —
/// the only place they are recorded: a decode's facts belong to the client
/// (or router) that asked for it.
fn record_decode(telemetry: &Telemetry, stats: DecodeStats) {
    if telemetry.counters_enabled() {
        let c = &telemetry.counters;
        c.decode_spans.add(stats.spans);
        c.decode_fast_symbols.add(stats.fast_symbols);
        c.decode_careful_symbols.add(stats.careful_symbols);
        c.decode_words_consumed.add(stats.words_consumed);
    }
}

/// Result of one [`NetClient::fetch_and_decode_streaming`] call: the decoded
/// bytes plus the fetch's latency breakdown, so callers can see how much
/// decode time the network transfer hid.
#[derive(Debug, Clone)]
pub struct StreamedFetch {
    /// The decoded content, byte-identical to
    /// [`NetClient::fetch_and_decode`]'s result.
    pub data: Vec<u8>,
    /// Post-clamp segment count the server served.
    pub segments: u64,
    /// Whether the server answered from its shrunk-metadata cache.
    pub cache_hit: bool,
    /// Server-side combine cost in nanoseconds (zero on a cache hit).
    pub combine_nanos: u64,
    /// Transfer size: bitstream payload plus metadata, as the paper counts
    /// it (the model is excluded, §5.2).
    pub total_bytes: u64,
    /// CHUNK frames the first node announced: `ceil(word bytes / body
    /// bytes)`, where a body is [`crate::NetConfig::chunk_bytes`] clamped
    /// and rounded down to whole words (so `5` counts 4-byte bodies). A
    /// failover does not change it.
    pub chunk_count: u32,
    /// Batches dispatched to the backend: one whenever `preferred`
    /// ([`preferred_segments`]) undecoded segments are resident, one for
    /// whatever is left when the stream completes, and — when the stream
    /// holds more than a batch beyond them — one for the first segments to
    /// arrive. So a stream of at most `preferred` segments is one batch,
    /// decoded once its last word arrived, and a backend whose capability
    /// is 1 gets one per newly resident run.
    pub decode_batches: u64,
    /// Nanoseconds from request start until the **first** batch's symbols
    /// were fully decoded — the streaming win: with more segments than one
    /// batch this lands well before the transfer itself finishes.
    pub first_segment_nanos: u64,
    /// Nanoseconds from request start until the last chunk was received and
    /// the payload CRC verified.
    pub transfer_nanos: u64,
    /// Nanoseconds from request start until every segment was decoded.
    pub total_nanos: u64,
}

/// The bitstream word store a fetcher keeps between streaming fetches, so
/// each fetch receives into memory that is already there instead of a
/// fresh allocation growing page by page. A fetch takes the store and puts
/// it back after its decode; a fetch running while another holds it
/// receives into a store of its own, and of the two the larger is kept.
/// What it holds is the largest stream a fetch received into it — trimmed
/// to that on the way back, so the `Vec`'s doubling pins nothing more — or
/// the [`recoil_core::MAX_RESERVED_WORDS`] a header reserved.
#[derive(Debug, Default)]
pub struct WordStore(Mutex<Kept>);

/// A [`WordStore`]'s contents.
#[derive(Debug, Default)]
struct Kept {
    words: Vec<u16>,
    /// The most words a fetch has received into the store.
    largest: usize,
}

impl WordStore {
    /// Words the store can hold without growing.
    pub fn capacity(&self) -> usize {
        unpoisoned(self.0.lock()).words.capacity()
    }

    /// The store, leaving an empty one behind for a concurrent fetch.
    fn take(&self) -> Vec<u16> {
        std::mem::take(&mut unpoisoned(self.0.lock()).words)
    }

    /// Trims `words` to the largest stream received so far, and keeps it
    /// if it is larger than what the store holds now.
    fn put_back(&self, mut words: Vec<u16>) {
        let mut kept = unpoisoned(self.0.lock());
        kept.largest = kept.largest.max(words.len());
        words.shrink_to(kept.largest);
        if words.capacity() > kept.words.capacity() {
            kept.words = words;
        }
    }
}

/// A client for one [`crate::NetServer`] address, holding a small pool of
/// reusable connections, a decode backend for one-call remote decodes and
/// the [`WordStore`] its streaming fetches receive into — after a fetch,
/// a client keeps the word store of the largest stream it fetched.
pub struct NetClient {
    addr: SocketAddr,
    config: NetClientConfig,
    pool: Mutex<Vec<TcpStream>>,
    /// Built on first use ([`NetClient::backend`]): a client whose fetches
    /// decode elsewhere — the fabric router's per-node clients — never
    /// starts a thread pool.
    backend: OnceLock<Box<dyn DecodeBackend>>,
    words: WordStore,
    /// Client-side instruments (streaming latency breakdown and this
    /// client's decodes land here).
    telemetry: Arc<Telemetry>,
    /// Backoff-jitter sequence state (one splitmix64 draw per retry keeps
    /// schedules deterministic).
    jitter_state: AtomicU64,
}

impl NetClient {
    /// Connects to `addr` with default config: dials one connection and
    /// exchanges HELLOs to fail fast on a bad address or a server of
    /// another protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, RecoilError> {
        Self::connect_with(addr, NetClientConfig::default())
    }

    /// [`NetClient::connect`] with explicit knobs.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: NetClientConfig,
    ) -> Result<Self, RecoilError> {
        let client = Self::connect_lazy(addr, config)?;
        let probe = client.dial()?;
        client.checkin(probe);
        Ok(client)
    }

    /// [`NetClient::connect_with`] without the probe connection: resolves
    /// the address but does not dial, so construction succeeds even while
    /// the server is down. The first operation dials (and HELLO-checks)
    /// normally. The fabric router uses this to hold clients for nodes
    /// that may be dead right now and come back later.
    pub fn connect_lazy(
        addr: impl ToSocketAddrs,
        config: NetClientConfig,
    ) -> Result<Self, RecoilError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| io_err("resolve", e))?
            .next()
            .ok_or_else(|| RecoilError::net("address resolved to nothing"))?;
        let telemetry = Arc::new(Telemetry::new(config.telemetry));
        Ok(Self {
            addr,
            config,
            pool: Mutex::new(Vec::new()),
            backend: OnceLock::new(),
            words: WordStore::default(),
            telemetry,
            jitter_state: AtomicU64::new(RETRY_JITTER_SEED),
        })
    }

    /// Replaces the decode backend used by
    /// [`NetClient::fetch_and_decode`]. The default one is built on first
    /// use, so this replaces nothing that ran.
    pub fn with_backend(mut self, backend: impl DecodeBackend + 'static) -> Self {
        self.backend = OnceLock::from(Box::new(backend) as Box<dyn DecodeBackend>);
        self
    }

    /// Replaces this client's instrument handle with a shared one, so
    /// several clients can aggregate into a single [`Telemetry`] — the
    /// fabric router injects one handle into every per-node client and
    /// its `retries` counter then reflects the whole fleet.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend remote fetches decode with: the one given to
    /// [`NetClient::with_backend`], or else an [`AutoBackend`] over every
    /// available core, built by the first call.
    pub fn backend(&self) -> &dyn DecodeBackend {
        self.backend
            .get_or_init(|| {
                Box::new(AutoBackend::with_threads(
                    std::thread::available_parallelism().map_or(1, |p| p.get()),
                ))
            })
            .as_ref()
    }

    /// Dials a fresh connection and exchanges HELLOs ([`Hello::decode`]
    /// judges the server's).
    fn dial(&self) -> Result<TcpStream, RecoilError> {
        let mut conn = TcpStream::connect(self.addr).map_err(|e| io_err("connect", e))?;
        let _ = conn.set_nodelay(true);
        conn.set_read_timeout(Some(self.config.read_timeout))
            .map_err(|e| io_err("set_read_timeout", e))?;
        conn.set_write_timeout(Some(self.config.write_timeout))
            .map_err(|e| io_err("set_write_timeout", e))?;
        let ours = Hello::ours().encode();
        let reply = self
            .exchange(&mut conn, FrameType::Hello, &ours, FrameType::Hello)
            .map_err(OpError::into_inner)?;
        Hello::decode(&reply)?;
        Ok(conn)
    }

    /// This client's own instruments — streaming fetch latency breakdowns
    /// land in `stream_first_segment_ns` / `stream_transfer_ns` /
    /// `stream_total_ns`, and every decode this client ran in its
    /// `decode_*` counters, when [`NetClientConfig::telemetry`] is at least
    /// `Counters`.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Fetches the **server's** telemetry snapshot over the wire (counters,
    /// gauges, histograms, and — at `Trace` level — the drained stage-event
    /// ring). A server answers at every level: an `Off` one with an `off`
    /// snapshot. The server decodes nothing, so its `decode_*` counters are
    /// zero; this client's own are in [`NetClient::telemetry`].
    pub fn remote_telemetry(&self) -> Result<TelemetryReply, RecoilError> {
        self.with_conn(true, |client, conn| {
            let reply =
                client.exchange(conn, FrameType::Telemetry, &[], FrameType::TelemetryReply)?;
            TelemetryReply::decode(&reply).map_err(OpError::Transport)
        })
    }

    fn checkout(&self) -> Result<(TcpStream, bool), RecoilError> {
        if let Some(conn) = unpoisoned(self.pool.lock()).pop() {
            return Ok((conn, true));
        }
        Ok((self.dial()?, false))
    }

    fn checkin(&self, conn: TcpStream) {
        let mut pool = unpoisoned(self.pool.lock());
        if pool.len() < MAX_POOL {
            pool.push(conn);
        }
    }

    /// Idle connections currently pooled.
    pub fn pooled_connections(&self) -> usize {
        unpoisoned(self.pool.lock()).len()
    }

    /// Runs `op` on a pooled (or fresh) connection under the retry policy.
    ///
    /// In-band server errors ([`OpError::Remote`]) leave the connection
    /// synchronized: it goes straight back to the pool. They are terminal,
    /// with one exception: a typed [`RecoilError::Busy`] shed is retried
    /// (idempotent ops only) after honoring the server's retry-after hint.
    /// Transport failures and dial failures drop the connection and are
    /// retried for idempotent operations under jittered exponential
    /// backoff, up to [`NetClientConfig::retry_budget`] retries. A
    /// transport failure on a **pooled** connection — typically a
    /// server-side close while the connection idled — first gets one
    /// immediate free redial: staleness is pool bookkeeping, not server
    /// failure, so it costs neither budget nor backoff.
    fn with_conn<T>(
        &self,
        idempotent: bool,
        op: impl Fn(&Self, &mut TcpStream) -> Result<T, OpError>,
    ) -> Result<T, RecoilError> {
        let budget = if idempotent {
            self.config.retry_budget
        } else {
            0
        };
        let mut spent = 0u32;
        let mut free_redial = idempotent;
        loop {
            // (error, server's retry-after hint, whether a pooled conn died)
            let (err, hint, pool_death) = match self.checkout() {
                Err(e) => (e, None, false),
                Ok((mut conn, from_pool)) => match op(self, &mut conn) {
                    Ok(v) => {
                        self.checkin(conn);
                        return Ok(v);
                    }
                    Err(OpError::Remote(e)) => {
                        self.checkin(conn); // the ERROR frame was a complete response
                        match e {
                            RecoilError::Busy { retry_after_ms } if idempotent => (
                                RecoilError::busy(retry_after_ms),
                                Some(retry_after_ms),
                                false,
                            ),
                            e => return Err(e),
                        }
                    }
                    Err(OpError::Transport(e)) => {
                        drop(conn); // never pool a connection in an unknown state
                        (e, None, from_pool)
                    }
                },
            };
            if pool_death && free_redial {
                free_redial = false;
                self.note_retry();
                continue;
            }
            if spent >= budget {
                return Err(err);
            }
            spent += 1;
            self.note_retry();
            std::thread::sleep(self.backoff_delay(spent - 1, hint));
        }
    }

    fn note_retry(&self) {
        if self.telemetry.counters_enabled() {
            self.telemetry.counters.retries.bump();
        }
    }

    /// Backoff before retry number `retry` (zero-based): base × 2^retry,
    /// capped, jittered to 50–150%, and never below the server's
    /// retry-after hint when one was given.
    fn backoff_delay(&self, retry: u32, retry_after_ms: Option<u32>) -> Duration {
        let exp = self
            .config
            .retry_base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(RETRY_MAX_BACKOFF);
        let draw = splitmix64(self.jitter_state.fetch_add(1, Ordering::Relaxed));
        let jittered = exp.mul_f64(0.5 + draw as f64 / (u64::MAX as f64));
        match retry_after_ms {
            Some(ms) => jittered.max(Duration::from_millis(u64::from(ms))),
            None => jittered,
        }
    }

    /// Sends one frame and returns the payload of the reply, which must be
    /// an `expect` frame.
    fn exchange(
        &self,
        conn: &mut TcpStream,
        ty: FrameType,
        payload: &[u8],
        expect: FrameType,
    ) -> Result<Vec<u8>, OpError> {
        write_frame(conn, ty, payload).map_err(OpError::Transport)?;
        let (got, reply) = await_frame_on(conn, self.config.response_timeout)?;
        if got != expect {
            return Err(OpError::Transport(RecoilError::net(format!(
                "expected {expect:?}, got {got:?}"
            ))));
        }
        Ok(reply)
    }

    /// Rejects names the u16 length prefix cannot carry, before any bytes
    /// hit the wire.
    fn check_name(name: &str) -> Result<(), RecoilError> {
        if name.len() > u16::MAX as usize {
            return Err(RecoilError::config(
                "name",
                format!(
                    "content name is {} bytes; the wire format caps it at {}",
                    name.len(),
                    u16::MAX
                ),
            ));
        }
        Ok(())
    }

    /// Encodes `data` under `config` here, on the caller, and publishes the
    /// result under `name` on the remote server: its container
    /// ([`recoil_core::Encoded::container_bytes`]), through
    /// [`NetClient::publish_container`]. Not retried: a publish is not
    /// idempotent.
    pub fn publish(
        &self,
        name: &str,
        data: &[u8],
        config: &EncoderConfig,
    ) -> Result<PublishOk, RecoilError> {
        Self::check_name(name)?;
        let container = Codec::from_config(config.clone())?
            .encode(data)?
            .container_bytes();
        self.publish_container(name, &container)
    }

    /// Publishes an already-encoded container — an `.rcl` file's bytes,
    /// such as `examples/file_codec.rs` writes, or a fetch's
    /// [`RemoteContent::container_bytes`] — under `name`. The server checks
    /// every section's CRC and validates it, then stores it as it is:
    /// nothing is encoded there. A container that fails to parse is refused
    /// in-band as [`RecoilError::Wire`]. Not retried: a publish is not
    /// idempotent.
    pub fn publish_container(
        &self,
        name: &str,
        container: &[u8],
    ) -> Result<PublishOk, RecoilError> {
        Self::check_name(name)?;
        // One payload buffer, encoded straight from the borrowed slices.
        let payload = PublishRequest { name, container }.encode();
        if payload.len() as u64 > MAX_FRAME_LEN as u64 {
            return Err(RecoilError::config(
                "container",
                format!(
                    "publish payload is {} bytes; one frame carries at most {MAX_FRAME_LEN}",
                    payload.len()
                ),
            ));
        }
        self.with_conn(false, move |client, conn| {
            let reply =
                client.exchange(conn, FrameType::Publish, &payload, FrameType::PublishOk)?;
            PublishOk::decode(&reply).map_err(OpError::Transport)
        })
    }

    /// Requests `name` for a decoder with `parallel_segments` capacity and
    /// receives the full chunked response.
    pub fn request(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<RemoteContent, RecoilError> {
        Self::check_name(name)?;
        self.with_conn(true, |client, conn| {
            client
                .open(conn, name, parallel_segments)?
                .into_content()
                // Past the header every failure leaves unread chunks on
                // the wire: the connection is desynchronized.
                .map_err(OpError::Transport)
        })
    }

    /// One call from name to decoded bytes: remote request, integrity
    /// check, then a local parallel decode through the configured backend,
    /// recorded in this client's `decode_*` counters.
    pub fn fetch_and_decode(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<Vec<u8>, RecoilError> {
        let content = self.request(name, parallel_segments)?;
        let (out, stats) = content.decode_counted(self.backend())?;
        record_decode(&self.telemetry, stats);
        Ok(out)
    }

    /// Remote serving counters: [`NetClient::remote_telemetry`], read as a
    /// [`StatsReply`] through [`StatsReply::from_snapshot`]. Being a
    /// TELEMETRY exchange, on a `Trace`-level server it also consumes the
    /// buffered trace events.
    pub fn stats(&self) -> Result<StatsReply, RecoilError> {
        StatsReply::from_snapshot(&self.remote_telemetry()?.snapshot)
    }

    /// One call from name to decoded bytes, with the network transfer and
    /// the decode **overlapped** wherever there is something to overlap:
    /// one [`FetchSession`] on a pooled connection, driven through
    /// [`FetchSession::decode_streaming`] on the calling thread with the
    /// configured backend into this client's [`WordStore`], under this
    /// client's retry policy. A stream of at most one batch is decoded once,
    /// after its last word arrived. The result is byte-identical to
    /// [`NetClient::fetch_and_decode`]. An unavailable backend is refused
    /// before anything is sent — no retry could change it.
    pub fn fetch_and_decode_streaming(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<StreamedFetch, RecoilError> {
        Self::check_name(name)?;
        let backend = self.backend();
        ensure_available(backend)?;
        self.with_conn(true, |client, conn| {
            let t0 = Instant::now();
            client
                .open(conn, name, parallel_segments)?
                .decode_streaming(backend, &client.telemetry, &client.words, t0, |_, err| {
                    Err(err)
                })
                // Mid-stream failures leave unread chunks on the wire.
                .map_err(OpError::Transport)
        })
    }

    /// Requests `name` on `conn` (owned, or borrowed from the pool) and
    /// opens the session its TRANSMIT header describes.
    fn open<C: BorrowMut<TcpStream>>(
        &self,
        mut conn: C,
        name: &str,
        parallel_segments: u64,
    ) -> Result<FetchSession<C>, OpError> {
        let request = ContentRequest {
            name: name.to_string(),
            parallel_segments,
        };
        let body = request.encode();
        let reply = self.exchange(
            conn.borrow_mut(),
            FrameType::Request,
            &body,
            FrameType::Transmit,
        )?;
        let (header, metadata, model) =
            TransmitHeader::decode(&reply).map_err(OpError::Transport)?;
        let check = PayloadCheck::begin(&header).map_err(OpError::Transport)?;
        Ok(FetchSession {
            conn,
            response_timeout: self.config.response_timeout,
            request,
            header,
            model,
            metadata,
            check,
        })
    }

    /// Opens a **dedicated** (never pooled) connection and starts a
    /// chunked fetch of `name`. No retry policy applies: the caller owns
    /// failure handling — this is the primitive the fabric router builds
    /// mid-stream failover on, so a died connection must surface
    /// immediately, with the session still in the caller's hands for
    /// [`FetchSession::resume_on`]. `from_word` must be zero: a session
    /// checks the *whole* stream's CRC, so it cannot be born mid-stream.
    pub fn start_fetch(
        &self,
        name: &str,
        parallel_segments: u64,
        from_word: u64,
    ) -> Result<FetchSession, RecoilError> {
        Self::check_name(name)?;
        if from_word != 0 {
            return Err(RecoilError::config(
                "from_word",
                "a fetch session verifies the whole stream and cannot start mid-stream; \
                 continue the original session with FetchSession::resume_on",
            ));
        }
        self.open(self.dial()?, name, parallel_segments)
            .map_err(OpError::into_inner)
    }
}

/// One chunked transfer, from its first TRANSMIT header to the verified
/// end of the stream — over as many connections as that takes.
///
/// The session owns the transfer's payload check (`integrity.rs`), so no
/// way of draining it can skip one: [`FetchSession::remaining_chunks`]
/// reaches zero only on a verified stream, and the call that would take
/// it there returns the typed error instead. When the connection dies,
/// [`FetchSession::resume_on`] continues **the same session** on another
/// node: all it needs is the word offset it already holds. `C` is how the
/// connection is held — owned when dedicated, borrowed from the pool
/// inside [`NetClient::request`] / [`NetClient::fetch_and_decode_streaming`].
pub struct FetchSession<C = TcpStream> {
    conn: C,
    response_timeout: Duration,
    request: ContentRequest,
    /// The checked TRANSMIT header the transfer began with.
    pub header: TransmitHeader,
    /// The static model rebuilt from the item section's frequencies.
    pub model: StaticModelProvider,
    /// The item section's metadata, for the requested capacity.
    pub metadata: RecoilMetadata,
    check: PayloadCheck,
}

impl FetchSession {
    /// Continues this transfer on `client`'s node after the current
    /// connection died: dials a dedicated connection, sends RESUME at
    /// [`FetchSession::words_received`], and accepts the node only if its
    /// header declares the same stream (size and CRC) the first one did.
    /// On an error the session is unchanged, so the next node can be tried.
    pub fn resume_on(&mut self, client: &NetClient) -> Result<(), RecoilError> {
        let mut conn = client.dial()?;
        let resume = ResumeRequest {
            name: self.request.name.as_str(),
            parallel_segments: self.request.parallel_segments,
            from_word: self.words_received(),
        };
        let reply = client
            .exchange(
                &mut conn,
                FrameType::Resume,
                &resume.encode(),
                FrameType::Transmit,
            )
            .map_err(OpError::into_inner)?;
        let (header, ..) = TransmitHeader::decode(&reply)?;
        self.check.resume(&header)?;
        self.conn = conn;
        self.response_timeout = client.config.response_timeout;
        Ok(())
    }
}

impl<C: BorrowMut<TcpStream>> FetchSession<C> {
    /// CHUNK frames the current connection still owes. Zero means the
    /// transfer is complete and verified.
    pub fn remaining_chunks(&self) -> u32 {
        self.check.remaining_chunks()
    }

    /// Complete bitstream words received and accepted so far, over every
    /// connection: the offset a RESUME continues from.
    pub fn words_received(&self) -> u64 {
        self.check.words_received()
    }

    /// Receives the next CHUNK body (4-byte sequence prefix stripped),
    /// checked against the transfer so far; the body that completes the
    /// stream is returned only if the whole stream verifies. Call until
    /// [`FetchSession::remaining_chunks`] is zero. The body is a buffer the
    /// caller keeps: the session's own drains read bodies straight into
    /// their word store instead.
    pub fn next_chunk(&mut self) -> Result<Vec<u8>, RecoilError> {
        let words = self.admit_chunk().map_err(Miss::into_inner)?;
        let mut body = vec![0; 2 * words];
        self.fill_body(&mut body).map_err(Miss::into_inner)?;
        Ok(body)
    }

    /// Reads the next CHUNK's header and sequence prefix, and returns the
    /// words of the body (still on the wire) the payload check admitted.
    /// The header is held to a bound before anything grows for it — a CHUNK
    /// to what the transfer still owes, an ERROR to
    /// [`MAX_MIDSTREAM_ERROR_LEN`] — so a header alone cannot make the
    /// client reserve more than the stream it was promised.
    fn admit_chunk(&mut self) -> Result<usize, Miss> {
        let conn = self.conn.borrow_mut();
        let (ty, len) = await_header_on(conn, self.response_timeout).map_err(Miss::Connection)?;
        let refuse = |detail: String| Miss::Connection(RecoilError::net(detail));
        match ty {
            FrameType::Chunk => {
                let owed = self.check.max_frame_len();
                if !(CHUNK_SEQ_BYTES..=owed).contains(&len) {
                    return Err(refuse(format!(
                        "chunk frame of {len} bytes announced where the transfer owes at most \
                         {owed} (a {CHUNK_SEQ_BYTES}-byte sequence number first)"
                    )));
                }
                let mut seq = [0; CHUNK_SEQ_BYTES];
                read_exact_patient(conn, &mut seq).map_err(Miss::Connection)?;
                Ok(self
                    .check
                    .admit(u32::from_le_bytes(seq), len - CHUNK_SEQ_BYTES)?)
            }
            FrameType::Error if len > MAX_MIDSTREAM_ERROR_LEN => Err(refuse(format!(
                "error frame of {len} bytes announced mid-transfer, where at most \
                 {MAX_MIDSTREAM_ERROR_LEN} are read"
            ))),
            FrameType::Error => {
                let payload = read_payload(conn, len).map_err(Miss::Connection)?;
                Err(Miss::Connection(decode_error(&payload)))
            }
            ty => Err(refuse(format!("expected CHUNK, got {ty:?}"))),
        }
    }

    /// Reads the admitted body into `body`, where it lands, and commits it.
    fn fill_body(&mut self, body: &mut [u8]) -> Result<(), Miss> {
        read_exact_patient(self.conn.borrow_mut(), body).map_err(Miss::Connection)?;
        Ok(self.check.commit(body)?)
    }

    /// Receives every CHUNK the transfer still owes: the one receive loop
    /// every drain runs. `land` gets each admitted body's word count and
    /// the fill to land them with ([`land_words_le`]), and may act on them.
    /// A failed *connection* goes to `recover` (see
    /// [`FetchSession::decode_streaming`]); a body that fails the payload
    /// check ends the loop with the check's error, and so does `land`'s.
    fn receive(
        &mut self,
        recover: &mut impl FnMut(&mut Self, RecoilError) -> Result<(), RecoilError>,
        mut land: impl FnMut(usize, &mut dyn FnMut(&mut [u8]) -> Result<(), Miss>) -> Result<(), Miss>,
    ) -> Result<(), RecoilError> {
        while self.remaining_chunks() > 0 {
            let landed = self
                .admit_chunk()
                .and_then(|words| land(words, &mut |body| self.fill_body(body)));
            match landed {
                Ok(()) => {}
                Err(Miss::Connection(err)) => recover(self, err)?,
                Err(Miss::Stream(err)) => return Err(err),
            }
        }
        Ok(())
    }

    /// Drains the session into a word store: the buffered fetch (its item
    /// section was checked at open, its words by the payload check).
    fn into_content(mut self) -> Result<RemoteContent, RecoilError> {
        // Beyond the cap the store grows only with real chunk bytes,
        // whatever the header declares.
        let mut words = Vec::new();
        reserve_declared_words(&mut words, self.metadata.num_words);
        self.receive(&mut |_, err| Err(err), |n, fill| {
            land_words_le(&mut words, n, fill)
        })?;
        let header = self.header;
        let stream = EncodedStream {
            words,
            final_states: header.final_states,
            num_symbols: self.metadata.num_symbols,
            ways: self.metadata.ways,
        };
        Ok(RemoteContent {
            stream,
            metadata: self.metadata,
            item: header.item,
            metadata_len: header.metadata_len,
            model: self.model,
            segments: header.segments,
            cache_hit: header.cache_hit,
            combine_nanos: header.combine_nanos,
        })
    }

    /// Drives the session to the end of the stream into an
    /// [`IncrementalDecoder`] — the one place one is fed from the network —
    /// decoding batches while later chunks are still on the wire. The words
    /// are received into the store taken from `words` (the caller's
    /// [`WordStore`]), which is put back after the decode, whether or not
    /// it succeeded.
    ///
    /// One thread does it all, the caller's: it reads each CHUNK body
    /// straight into the word store, checks it where it landed, and then
    /// applies the dispatch rule. While a batch decodes on the backend's
    /// pool, the socket's receive buffer holds what the server goes on
    /// sending.
    ///
    /// The backend takes **whole batches**: [`preferred_segments`]
    /// undecoded segments (threads × kernel depth — the spans it decodes
    /// side by side) or what is left when the stream is complete. Not
    /// decoding a lone segment at the single-span rate is what keeps the
    /// wire moving. One exception, for time to first symbols: a stream with
    /// more than a batch still to come has its first resident segments
    /// dispatched at once. So a stream of at most one batch (the paper's
    /// adaptive case) is decoded once, after its last word arrived.
    ///
    /// The rule is tuned for a link at or above the decode rate, where the
    /// whole stream is resident about when the first segment would have
    /// finished alone. On a slower link a stream of at most one batch
    /// starts decoding only when its last byte arrives, and its tail is the
    /// whole batch rather than the last segment alone.
    ///
    /// `recover` is called when the *connection* fails mid-stream: return
    /// `Ok` after [`FetchSession::resume_on`] moved the session to another
    /// node and the transfer carries on, or the error to give up. A stream
    /// that fails the payload check is never recoverable. Latencies count
    /// from `t0` (the caller's request start) and land in `telemetry`'s
    /// `stream_*_ns` histograms on success, and the decode's stats in its
    /// `decode_*` counters.
    pub fn decode_streaming(
        mut self,
        backend: &dyn DecodeBackend,
        telemetry: &Telemetry,
        words: &WordStore,
        t0: Instant,
        mut recover: impl FnMut(&mut Self, RecoilError) -> Result<(), RecoilError>,
    ) -> Result<StreamedFetch, RecoilError> {
        let mut incr = IncrementalDecoder::with_words(
            self.metadata.clone(),
            self.header.final_states.clone(),
            self.model.clone(),
            words.take(),
        )?;
        let fetched = self.drain(&mut incr, backend, &mut recover, t0);
        let stats = incr.decode_stats();
        words.put_back(incr.into_words());
        let fetched = fetched?;
        if telemetry.counters_enabled() {
            let h = &telemetry.hists;
            h.stream_first_segment_ns
                .record(fetched.first_segment_nanos);
            h.stream_transfer_ns.record(fetched.transfer_nanos);
            h.stream_total_ns.record(fetched.total_nanos);
            telemetry.trace(Stage::StreamFirstSegment, 0, fetched.first_segment_nanos);
        }
        record_decode(telemetry, stats);
        Ok(fetched)
    }

    /// [`FetchSession::decode_streaming`]'s receive loop and dispatch rule,
    /// into `incr`.
    fn drain(
        &mut self,
        incr: &mut IncrementalDecoder,
        backend: &dyn DecodeBackend,
        recover: &mut impl FnMut(&mut Self, RecoilError) -> Result<(), RecoilError>,
        t0: Instant,
    ) -> Result<StreamedFetch, RecoilError> {
        let since = || t0.elapsed().as_nanos() as u64;
        let batch = preferred_segments(backend);
        // Grown with readiness, never from the declared header: a hostile
        // server must actually send bytes to make this allocation happen
        // (the buffered path's invariant).
        let mut data: Vec<u8> = Vec::new();
        let mut first: Option<u64> = None;
        let mut batches = 0u64;
        let mut dispatch = |incr: &mut IncrementalDecoder, data: &mut Vec<u8>| {
            let (decoded, ready) = (incr.decoded_segments(), incr.ready_segments());
            let waiting = ready - decoded;
            // A whole batch, or the end of the stream — or the first
            // segments to arrive, when a whole batch is still to come after
            // them: first symbols early, at the cost of one short dispatch
            // and never of the tail's batch.
            let first_of_many = decoded == 0 && incr.num_segments() - ready >= batch;
            if waiting >= batch || (waiting > 0 && (incr.is_complete() || first_of_many)) {
                data.resize(incr.ready_symbols(), 0);
                incr.decode_ready_segments(backend, data)?;
                batches += 1;
                first.get_or_insert_with(since);
            }
            Ok::<(), RecoilError>(())
        };
        self.receive(recover, |n, fill| {
            incr.land_words(n, fill)?;
            // The last body's batch goes out after the transfer's time.
            if incr.is_complete() {
                return Ok(());
            }
            Ok(dispatch(incr, &mut data)?)
        })?;
        let transfer_nanos = since();
        // The rest, an empty stream's one segment included.
        dispatch(incr, &mut data)?;
        if !incr.is_finished() {
            return Err(RecoilError::net(
                "bitstream transfer ended before every segment arrived",
            ));
        }
        let first_segment_nanos = first.unwrap_or_else(since);
        Ok(StreamedFetch {
            data,
            segments: self.header.segments,
            cache_hit: self.header.cache_hit,
            combine_nanos: self.header.combine_nanos,
            total_bytes: incr.payload_bytes() + self.header.metadata_len,
            chunk_count: self.header.chunk_count,
            decode_batches: batches,
            first_segment_nanos,
            transfer_nanos,
            total_nanos: since(),
        })
    }
}

impl<C> std::fmt::Debug for FetchSession<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchSession")
            .field("name", &self.request.name)
            .field("check", &self.check)
            .finish()
    }
}

/// Why a CHUNK did not land.
enum Miss {
    /// The connection failed: the transfer may resume on another node.
    Connection(RecoilError),
    /// The stream failed (the payload check, or the receiver): final.
    Stream(RecoilError),
}

impl Miss {
    fn into_inner(self) -> RecoilError {
        let (Self::Connection(e) | Self::Stream(e)) = self;
        e
    }
}

impl From<RecoilError> for Miss {
    fn from(e: RecoilError) -> Self {
        Self::Stream(e)
    }
}

/// Blocks until a frame header arrives (bounded by `response_timeout`); the
/// payload is still on the wire, for the caller to bound and place.
fn await_header_on(
    conn: &mut TcpStream,
    response_timeout: Duration,
) -> Result<(FrameType, usize), RecoilError> {
    let start = Instant::now();
    loop {
        match read_header(conn)? {
            HeaderOutcome::Header(ty, len) => return Ok((ty, len)),
            HeaderOutcome::Eof => return Err(RecoilError::net("server closed the connection")),
            HeaderOutcome::Idle if start.elapsed() > response_timeout => {
                return Err(RecoilError::net("timed out waiting for server response"))
            }
            HeaderOutcome::Idle => {}
        }
    }
}

/// Blocks until a non-idle frame arrives and reads it whole; `Error` frames
/// come back as [`OpError::Remote`] carrying the decoded [`RecoilError`],
/// anything that breaks the transport as [`OpError::Transport`].
fn await_frame_on(
    conn: &mut TcpStream,
    response_timeout: Duration,
) -> Result<(FrameType, Vec<u8>), OpError> {
    let (ty, len) = await_header_on(conn, response_timeout).map_err(OpError::Transport)?;
    let payload = read_payload(conn, len).map_err(OpError::Transport)?;
    if ty == FrameType::Error {
        return Err(OpError::Remote(decode_error(&payload)));
    }
    Ok((ty, payload))
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .field("pooled", &self.pooled_connections())
            .field("backend", &self.backend.get().map(|b| b.name()))
            .field("word_store", &self.words.capacity())
            .finish()
    }
}
