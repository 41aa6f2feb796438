//! The pooling TCP client: remote publish / request / stats, and a
//! one-call remote fetch-and-decode through the [`DecodeBackend`]
//! machinery.

use crate::fault::splitmix64;
use crate::frame::{
    decode_error, io_err, read_frame, write_frame, FrameType, ReadOutcome, CAP_CHUNKED, CAP_RESUME,
    CAP_TELEMETRY, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::proto::{
    encode_publish, ContentRequest, Hello, PublishOk, ResumeRequest, StatsReply, TelemetryReply,
    TransmitHeader,
};
use parking_lot::Mutex;
use recoil_core::codec::{DecodeBackend, DecodeRequest, EncoderConfig};
use recoil_core::{
    metadata_from_bytes, update_crc32, IncrementalDecoder, RecoilError, RecoilMetadata,
};
use recoil_models::{CdfTable, StaticModelProvider};
use recoil_rans::{extend_words_from_le, EncodedStream};
use recoil_simd::AutoBackend;
use recoil_telemetry::{Stage, Telemetry, TelemetryLevel};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Construction knobs for [`NetClient`].
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Idle connections kept for reuse (checkout prefers these; overflow
    /// connections are simply closed on check-in).
    pub max_pool: usize,
    /// Socket read timeout per attempt (idle poll granularity).
    pub read_timeout: Duration,
    /// Total time to wait for a response to one request — covers the
    /// server's encode on a PUBLISH, so it is generous.
    pub response_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Bounded in-flight budget of the streaming decode pipeline: how many
    /// received-but-not-yet-decoded chunks
    /// [`NetClient::fetch_and_decode_streaming`] buffers before the network
    /// receive loop blocks (backpressure). Memory beyond the output buffer
    /// and the word store stays constant at roughly `budget × chunk size`.
    pub streaming_inflight_chunks: usize,
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
    /// First retry backoff; each further retry doubles it (capped by
    /// [`NetClientConfig::retry_max_backoff`]) and jitters the result by
    /// ±50% to decorrelate clients hitting the same overloaded server.
    pub retry_base_backoff: Duration,
    /// Backoff growth cap.
    pub retry_max_backoff: Duration,
    /// Seed for the deterministic backoff jitter sequence (splitmix64), so
    /// tests replay identical schedules.
    pub retry_jitter_seed: u64,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        Self {
            max_pool: 4,
            read_timeout: Duration::from_millis(250),
            response_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            streaming_inflight_chunks: 4,
            telemetry: TelemetryLevel::Counters,
            retry_budget: 2,
            retry_base_backoff: Duration::from_millis(10),
            retry_max_backoff: Duration::from_millis(250),
            retry_jitter_seed: 0x005E_EDCA_B1E5,
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
    /// The raw metadata bytes as they crossed the wire.
    pub metadata_bytes: Vec<u8>,
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
        self.stream.payload_bytes() + self.metadata_bytes.len() as u64
    }

    /// Decodes through an explicit backend.
    pub fn decode_with(&self, backend: &dyn DecodeBackend) -> Result<Vec<u8>, RecoilError> {
        let mut out = vec![0u8; self.stream.num_symbols as usize];
        let req = DecodeRequest {
            stream: &self.stream,
            metadata: &self.metadata,
            model: &self.model,
        };
        req.decode_into(backend, &mut out)?;
        Ok(out)
    }
}

/// Result of one [`NetClient::fetch_and_decode_streaming`] call: the decoded
/// bytes plus the pipeline's latency breakdown, so callers can see how much
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
    /// CHUNK frames the transfer arrived in (split-aligned server plan).
    pub chunk_count: u32,
    /// Decode dispatches the pipeline issued (each covering one or more
    /// newly resident segments).
    pub decode_batches: u64,
    /// Nanoseconds from request start until the **first** segment's symbols
    /// were fully decoded — the streaming win: this lands well before the
    /// transfer itself finishes.
    pub first_segment_nanos: u64,
    /// Nanoseconds from request start until the last chunk was received and
    /// the payload CRC verified.
    pub transfer_nanos: u64,
    /// Nanoseconds from request start until every segment was decoded.
    pub total_nanos: u64,
}

/// A client for one [`crate::NetServer`] address, holding a small pool of
/// reusable connections and a decode backend for one-call remote decodes.
pub struct NetClient {
    addr: SocketAddr,
    config: NetClientConfig,
    pool: Mutex<Vec<TcpStream>>,
    backend: Box<dyn DecodeBackend>,
    /// Client-side instruments (streaming latency breakdown lands here).
    telemetry: Arc<Telemetry>,
    /// Capability bits the server granted in the most recent HELLO
    /// exchange; gates [`NetClient::remote_telemetry`].
    server_caps: AtomicU32,
    /// Backoff-jitter sequence state (seeded from the config; one
    /// splitmix64 draw per retry keeps schedules deterministic per seed).
    jitter_state: AtomicU64,
}

impl NetClient {
    /// Connects to `addr` with default config: dials one connection and
    /// completes the HELLO negotiation to fail fast on a bad address or an
    /// incompatible server.
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
        let jitter_state = AtomicU64::new(config.retry_jitter_seed);
        Ok(Self {
            addr,
            config,
            pool: Mutex::new(Vec::new()),
            backend: Box::new(AutoBackend::with_threads(
                std::thread::available_parallelism().map_or(1, |p| p.get()),
            )),
            telemetry,
            server_caps: AtomicU32::new(0),
            jitter_state,
        })
    }

    /// Replaces the decode backend used by
    /// [`NetClient::fetch_and_decode`].
    pub fn with_backend(mut self, backend: impl DecodeBackend + 'static) -> Self {
        self.backend = Box::new(backend);
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

    /// The backend remote fetches decode with.
    pub fn backend(&self) -> &dyn DecodeBackend {
        self.backend.as_ref()
    }

    /// Dials and HELLO-negotiates a fresh connection.
    fn dial(&self) -> Result<TcpStream, RecoilError> {
        let conn = TcpStream::connect(self.addr).map_err(|e| io_err("connect", e))?;
        let _ = conn.set_nodelay(true);
        conn.set_read_timeout(Some(self.config.read_timeout))
            .map_err(|e| io_err("set_read_timeout", e))?;
        conn.set_write_timeout(Some(self.config.write_timeout))
            .map_err(|e| io_err("set_write_timeout", e))?;
        let mut conn = conn;
        write_frame(&mut conn, FrameType::Hello, &Hello::ours().encode())?;
        let (ty, payload) = self.await_frame(&mut conn).map_err(OpError::into_inner)?;
        if ty != FrameType::Hello {
            return Err(RecoilError::net(format!(
                "expected HELLO reply, got {ty:?}"
            )));
        }
        let hello = Hello::decode(&payload)?;
        if hello.version != PROTOCOL_VERSION {
            return Err(RecoilError::net(format!(
                "server speaks protocol version {}, this client speaks {PROTOCOL_VERSION}",
                hello.version
            )));
        }
        if hello.capabilities & CAP_CHUNKED == 0 {
            return Err(RecoilError::net(
                "server did not negotiate the chunked-streaming capability",
            ));
        }
        self.server_caps
            .store(hello.capabilities, Ordering::Relaxed);
        Ok(conn)
    }

    /// This client's own instruments — streaming fetch latency breakdowns
    /// land in `stream_first_segment_ns` / `stream_transfer_ns` /
    /// `stream_total_ns` when [`NetClientConfig::telemetry`] is at least
    /// `Counters`.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Fetches the **server's** telemetry snapshot over the wire (counters,
    /// gauges, histograms, and — at `Trace` level — the drained stage-event
    /// ring). Requires the server to have negotiated the TELEMETRY
    /// capability; servers predating it yield a typed error without
    /// touching the wire.
    pub fn remote_telemetry(&self) -> Result<TelemetryReply, RecoilError> {
        if self.server_caps.load(Ordering::Relaxed) & CAP_TELEMETRY == 0 {
            return Err(RecoilError::net(
                "server did not negotiate the telemetry capability",
            ));
        }
        self.with_conn(true, |client, conn| {
            write_frame(conn, FrameType::Telemetry, &[]).map_err(OpError::Transport)?;
            let (ty, payload) = client.await_frame(conn)?;
            if ty != FrameType::TelemetryReply {
                return Err(OpError::Transport(RecoilError::net(format!(
                    "expected TELEMETRY_REPLY, got {ty:?}"
                ))));
            }
            TelemetryReply::decode(&payload).map_err(OpError::Transport)
        })
    }

    fn checkout(&self) -> Result<(TcpStream, bool), RecoilError> {
        if let Some(conn) = self.pool.lock().pop() {
            return Ok((conn, true));
        }
        Ok((self.dial()?, false))
    }

    fn checkin(&self, conn: TcpStream) {
        let mut pool = self.pool.lock();
        if pool.len() < self.config.max_pool {
            pool.push(conn);
        }
    }

    /// Idle connections currently pooled.
    pub fn pooled_connections(&self) -> usize {
        self.pool.lock().len()
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
            .min(self.config.retry_max_backoff);
        let draw = splitmix64(self.jitter_state.fetch_add(1, Ordering::Relaxed));
        let jittered = exp.mul_f64(0.5 + draw as f64 / (u64::MAX as f64));
        match retry_after_ms {
            Some(ms) => jittered.max(Duration::from_millis(u64::from(ms))),
            None => jittered,
        }
    }

    /// Blocks until a non-idle frame arrives (bounded by
    /// `response_timeout`); `Error` frames come back as
    /// [`OpError::Remote`] carrying the decoded [`RecoilError`], anything
    /// that breaks the transport as [`OpError::Transport`].
    fn await_frame(&self, conn: &mut TcpStream) -> Result<(FrameType, Vec<u8>), OpError> {
        await_frame_on(conn, self.config.response_timeout)
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

    /// Publishes `data` under `name` on the remote server (the server
    /// encodes). Not retried: a publish is not idempotent.
    pub fn publish(
        &self,
        name: &str,
        data: &[u8],
        config: &EncoderConfig,
    ) -> Result<PublishOk, RecoilError> {
        Self::check_name(name)?;
        // One payload buffer, encoded straight from the borrowed slices.
        let payload = encode_publish(
            name,
            config.ways,
            config.max_segments,
            config.quant_bits,
            data,
        );
        if payload.len() as u64 > MAX_FRAME_LEN as u64 {
            return Err(RecoilError::config(
                "data",
                format!(
                    "publish payload is {} bytes; one frame carries at most {MAX_FRAME_LEN}",
                    payload.len()
                ),
            ));
        }
        self.with_conn(false, move |client, conn| {
            write_frame(conn, FrameType::Publish, &payload).map_err(OpError::Transport)?;
            let (ty, reply) = client.await_frame(conn)?;
            if ty != FrameType::PublishOk {
                return Err(OpError::Transport(RecoilError::net(format!(
                    "expected PUBLISH_OK, got {ty:?}"
                ))));
            }
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
        let msg = ContentRequest {
            name: name.to_string(),
            parallel_segments,
        };
        self.with_conn(true, move |client, conn| {
            write_frame(conn, FrameType::Request, &msg.encode()).map_err(OpError::Transport)?;
            let (ty, payload) = client.await_frame(conn)?;
            if ty != FrameType::Transmit {
                return Err(OpError::Transport(RecoilError::net(format!(
                    "expected TRANSMIT, got {ty:?}"
                ))));
            }
            let header = TransmitHeader::decode(&payload).map_err(OpError::Transport)?;
            client.receive_content(conn, header)
        })
    }

    /// One call from name to decoded bytes: remote request, integrity
    /// check, then a local parallel decode through the configured backend.
    pub fn fetch_and_decode(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<Vec<u8>, RecoilError> {
        self.request(name, parallel_segments)?
            .decode_with(self.backend.as_ref())
    }

    /// Remote serving counters.
    pub fn stats(&self) -> Result<StatsReply, RecoilError> {
        self.with_conn(true, |client, conn| {
            write_frame(conn, FrameType::Stats, &[]).map_err(OpError::Transport)?;
            let (ty, payload) = client.await_frame(conn)?;
            if ty != FrameType::StatsReply {
                return Err(OpError::Transport(RecoilError::net(format!(
                    "expected STATS_REPLY, got {ty:?}"
                ))));
            }
            StatsReply::decode(&payload).map_err(OpError::Transport)
        })
    }

    /// Drains the chunked word payload and rebuilds validated decode
    /// inputs. Any failure here is a transport error: frames were consumed
    /// or corrupt, so the connection is not reusable.
    fn receive_content(
        &self,
        conn: &mut TcpStream,
        header: TransmitHeader,
    ) -> Result<RemoteContent, OpError> {
        self.receive_content_inner(conn, header)
            .map_err(|e| match e {
                // A mid-stream ERROR frame still means desynchronized
                // framing for this op (some chunks may remain unread).
                OpError::Remote(e) | OpError::Transport(e) => OpError::Transport(e),
            })
    }

    fn receive_content_inner(
        &self,
        conn: &mut TcpStream,
        header: TransmitHeader,
    ) -> Result<RemoteContent, OpError> {
        let bad = |msg: String| OpError::Transport(RecoilError::net(msg));
        let (model, metadata) = validate_transmit_header(&header).map_err(OpError::Transport)?;

        // The reservation is capped: `word_bytes` is attacker-controlled,
        // so growth beyond 1 MiB only happens as real chunk bytes arrive
        // (each bounded by the frame cap and the declared total).
        let mut words = Vec::with_capacity((header.word_bytes as usize / 2).min(1 << 19));
        // A chunk body may end mid-word; its last byte waits here.
        let mut carry = None;
        let mut received = 0u64;
        let mut crc_state = 0xFFFF_FFFFu32;
        for seq in 0..header.chunk_count {
            let body = self.await_chunk(conn, seq)?;
            received += body.len() as u64;
            if received > header.word_bytes {
                return Err(bad("chunked payload overruns declared size".into()));
            }
            crc_state = update_crc32(crc_state, &body);
            carry = extend_words_from_le(&mut words, carry, &body);
        }
        if received != header.word_bytes {
            return Err(bad(format!(
                "chunked payload short: {received} of {} bytes",
                header.word_bytes
            )));
        }
        if crc_state ^ 0xFFFF_FFFF != header.payload_crc {
            return Err(bad("bitstream payload checksum mismatch".into()));
        }

        let stream = EncodedStream {
            words,
            final_states: header.final_states.clone(),
            num_symbols: header.num_symbols,
            ways: header.ways,
        };
        stream
            .validate()
            .map_err(|e| bad(format!("received stream is inconsistent: {e}")))?;
        metadata
            .validate_against(&stream)
            .map_err(|e| bad(format!("received metadata is inconsistent: {e}")))?;

        Ok(RemoteContent {
            stream,
            metadata,
            metadata_bytes: header.metadata,
            model,
            segments: header.segments,
            cache_hit: header.cache_hit,
            combine_nanos: header.combine_nanos,
        })
    }

    /// Reads one CHUNK frame, checks its sequence number, and returns the
    /// body with the 4-byte sequence prefix stripped in place.
    fn await_chunk(&self, conn: &mut TcpStream, seq: u32) -> Result<Vec<u8>, OpError> {
        await_chunk_on(conn, self.config.response_timeout, seq)
    }

    /// One call from name to decoded bytes with the network transfer and
    /// the decode **overlapped**: chunks feed an [`IncrementalDecoder`] as
    /// they arrive, and every segment that becomes resident is dispatched
    /// to the configured backend (whose thread pool, if any, decodes the
    /// batch in parallel) while later chunks are still on the wire.
    ///
    /// The pipeline is two stages under a bounded in-flight budget
    /// ([`NetClientConfig::streaming_inflight_chunks`]): the calling thread
    /// receives and CRC-checks chunks, a scoped decoder thread drains them.
    /// When the decoder falls behind, the receive loop blocks on the full
    /// channel — backpressure, not unbounded buffering. The result is
    /// byte-identical to [`NetClient::fetch_and_decode`]; the streaming CRC
    /// over the reassembled payload is still verified, and the call fails
    /// (discarding output) if it mismatches.
    pub fn fetch_and_decode_streaming(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<StreamedFetch, RecoilError> {
        Self::check_name(name)?;
        let msg = ContentRequest {
            name: name.to_string(),
            parallel_segments,
        };
        self.with_conn(true, move |client, conn| {
            let t0 = Instant::now();
            write_frame(conn, FrameType::Request, &msg.encode()).map_err(OpError::Transport)?;
            let (ty, payload) = client.await_frame(conn)?;
            if ty != FrameType::Transmit {
                return Err(OpError::Transport(RecoilError::net(format!(
                    "expected TRANSMIT, got {ty:?}"
                ))));
            }
            let header = TransmitHeader::decode(&payload).map_err(OpError::Transport)?;
            client
                .receive_streaming(conn, header, t0)
                .map_err(|e| match e {
                    // Mid-stream failures leave unread chunks on the wire:
                    // the connection is desynchronized either way.
                    OpError::Remote(e) | OpError::Transport(e) => OpError::Transport(e),
                })
        })
    }

    /// The streaming receive/decode pipeline behind
    /// [`NetClient::fetch_and_decode_streaming`].
    fn receive_streaming(
        &self,
        conn: &mut TcpStream,
        header: TransmitHeader,
        t0: Instant,
    ) -> Result<StreamedFetch, OpError> {
        let bad = |msg: String| OpError::Transport(RecoilError::net(msg));
        let (model, metadata) = validate_transmit_header(&header).map_err(OpError::Transport)?;
        // Same accounting as `RemoteContent::total_bytes` /
        // `EncodedStream::payload_bytes`: words + final states + fixed
        // stream header, plus the metadata blob.
        let total_bytes = header.word_bytes
            + header.final_states.len() as u64 * 4
            + EncodedStream::HEADER_BYTES
            + header.metadata.len() as u64;
        let incr = IncrementalDecoder::new(metadata, header.final_states.clone(), model)
            .map_err(OpError::Transport)?;
        let backend = self.backend.as_ref();
        if !backend.is_available() {
            return Err(OpError::Transport(RecoilError::BackendUnavailable {
                backend: backend.name(),
            }));
        }

        /// How the receive loop ended when it did not fail outright.
        enum RecvEnd {
            /// Every chunk arrived and the payload CRC verified.
            Complete { transfer_nanos: u64 },
            /// The decoder hung up mid-transfer (its error is authoritative).
            DecoderClosed,
        }

        let budget = self.config.streaming_inflight_chunks.max(1);
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(budget);
        let (recv_result, decode_result) = std::thread::scope(|s| {
            let decoder = s.spawn(move || -> Result<(Vec<u8>, u64, u64), RecoilError> {
                let mut incr = incr;
                // Grown with readiness, never from the declared header: a
                // hostile server must actually send bytes to make this
                // allocation happen (the buffered path's invariant).
                let mut out: Vec<u8> = Vec::new();
                let mut first: Option<u64> = None;
                let mut batches = 0u64;
                let mut drain =
                    |incr: &mut IncrementalDecoder, out: &mut Vec<u8>| -> Result<(), RecoilError> {
                        let need = incr.ready_symbols();
                        if need > out.len() {
                            out.resize(need, 0);
                        }
                        let before = incr.decoded_segments();
                        incr.decode_ready_segments(backend, out)?;
                        if incr.decoded_segments() > before {
                            batches += 1;
                            if first.is_none() {
                                first = Some(t0.elapsed().as_nanos() as u64);
                            }
                        }
                        Ok(())
                    };
                while let Ok(body) = rx.recv() {
                    incr.push_bytes(&body)?;
                    drain(&mut incr, &mut out)?;
                }
                // Sender dropped: the transfer finished (possibly with zero
                // chunks for an empty stream) or the receive loop failed.
                drain(&mut incr, &mut out)?;
                if !incr.is_finished() {
                    return Err(RecoilError::net(
                        "bitstream transfer ended before every segment arrived",
                    ));
                }
                Ok((
                    out,
                    first.unwrap_or_else(|| t0.elapsed().as_nanos() as u64),
                    batches,
                ))
            });

            let recv = (|| -> Result<RecvEnd, OpError> {
                let mut crc_state = 0xFFFF_FFFFu32;
                let mut received = 0u64;
                for seq in 0..header.chunk_count {
                    let body = self.await_chunk(conn, seq)?;
                    received += body.len() as u64;
                    if received > header.word_bytes {
                        return Err(bad("chunked payload overruns declared size".into()));
                    }
                    crc_state = update_crc32(crc_state, &body);
                    if tx.send(body).is_err() {
                        return Ok(RecvEnd::DecoderClosed);
                    }
                }
                if received != header.word_bytes {
                    return Err(bad(format!(
                        "chunked payload short: {received} of {} bytes",
                        header.word_bytes
                    )));
                }
                if crc_state ^ 0xFFFF_FFFF != header.payload_crc {
                    return Err(bad("bitstream payload checksum mismatch".into()));
                }
                Ok(RecvEnd::Complete {
                    transfer_nanos: t0.elapsed().as_nanos() as u64,
                })
            })();
            drop(tx); // unblock the decoder's recv loop
            let decode = decoder
                .join()
                .unwrap_or_else(|_| Err(RecoilError::net("streaming decoder thread panicked")));
            (recv, decode)
        });

        match (recv_result, decode_result) {
            // A real transport failure outranks the decoder's secondary
            // "transfer ended early" complaint.
            (Err(e), _) => Err(e),
            // The receive loop stopped because the decoder hit an error;
            // that error is the root cause.
            (Ok(RecvEnd::DecoderClosed), Err(e)) => Err(OpError::Transport(e)),
            (Ok(RecvEnd::DecoderClosed), Ok(_)) => {
                Err(bad("decoder hung up without reporting an error".into()))
            }
            (Ok(RecvEnd::Complete { .. }), Err(e)) => Err(OpError::Transport(e)),
            (Ok(RecvEnd::Complete { transfer_nanos }), Ok((data, first, batches))) => {
                let total_nanos = t0.elapsed().as_nanos() as u64;
                if self.telemetry.counters_enabled() {
                    let h = &self.telemetry.hists;
                    h.stream_first_segment_ns.record(first);
                    h.stream_transfer_ns.record(transfer_nanos);
                    h.stream_total_ns.record(total_nanos);
                    self.telemetry.trace(Stage::StreamFirstSegment, 0, first);
                }
                Ok(StreamedFetch {
                    data,
                    segments: header.segments,
                    cache_hit: header.cache_hit,
                    combine_nanos: header.combine_nanos,
                    total_bytes,
                    chunk_count: header.chunk_count,
                    decode_batches: batches,
                    first_segment_nanos: first,
                    transfer_nanos,
                    total_nanos,
                })
            }
        }
    }

    /// Opens a **dedicated** (never pooled) connection and starts a
    /// chunked fetch of `name`, resuming after the first `from_word`
    /// complete words when non-zero (requires the server to have
    /// negotiated [`CAP_RESUME`]). No retry policy applies: the caller
    /// owns failure handling — this is the primitive the fabric router
    /// builds mid-stream failover on, so a died session must surface
    /// immediately with its partial state still in the caller's hands.
    pub fn start_fetch(
        &self,
        name: &str,
        parallel_segments: u64,
        from_word: u64,
    ) -> Result<FetchSession, RecoilError> {
        Self::check_name(name)?;
        let mut conn = self.dial()?;
        if from_word > 0 && self.server_caps.load(Ordering::Relaxed) & CAP_RESUME == 0 {
            return Err(RecoilError::net(
                "server did not negotiate the resume capability",
            ));
        }
        let (ty, body) = if from_word > 0 {
            let msg = ResumeRequest {
                name: name.to_string(),
                parallel_segments,
                from_word,
            };
            (FrameType::Resume, msg.encode())
        } else {
            let msg = ContentRequest {
                name: name.to_string(),
                parallel_segments,
            };
            (FrameType::Request, msg.encode())
        };
        write_frame(&mut conn, ty, &body)?;
        let (rty, payload) = self.await_frame(&mut conn).map_err(OpError::into_inner)?;
        if rty != FrameType::Transmit {
            return Err(RecoilError::net(format!("expected TRANSMIT, got {rty:?}")));
        }
        let header = TransmitHeader::decode(&payload)?;
        let (model, metadata) = validate_transmit_header(&header)?;
        Ok(FetchSession {
            conn,
            response_timeout: self.config.response_timeout,
            header,
            model,
            metadata,
            next_seq: 0,
        })
    }
}

/// A low-level chunked fetch in progress on its own dedicated connection —
/// the building block failover is driven with. [`NetClient::start_fetch`]
/// sends REQUEST (or RESUME for `from_word > 0`) and validates the
/// TRANSMIT header; the caller then pulls chunk bodies one at a time and
/// feeds them wherever it likes (typically an
/// [`IncrementalDecoder`](recoil_core::IncrementalDecoder)), keeping
/// enough state — words received so far — to resume on another node if
/// this connection dies mid-stream.
pub struct FetchSession {
    conn: TcpStream,
    response_timeout: Duration,
    /// The validated TRANSMIT header. On a resumed serve it still carries
    /// **whole-stream** geometry and payload CRC (for cross-checking
    /// against the pre-failure header); only `chunk_count` is trimmed to
    /// the remaining words.
    pub header: TransmitHeader,
    /// The static model rebuilt from the transmitted frequencies.
    pub model: StaticModelProvider,
    /// Parsed shrunk metadata for the requested capacity.
    pub metadata: RecoilMetadata,
    next_seq: u32,
}

impl FetchSession {
    /// CHUNK frames this session has not received yet.
    pub fn remaining_chunks(&self) -> u32 {
        self.header.chunk_count - self.next_seq
    }

    /// Receives the next CHUNK body (sequence-checked, 4-byte prefix
    /// stripped). Call until [`FetchSession::remaining_chunks`] is zero.
    pub fn next_chunk(&mut self) -> Result<Vec<u8>, RecoilError> {
        let body = await_chunk_on(&mut self.conn, self.response_timeout, self.next_seq)
            .map_err(OpError::into_inner)?;
        self.next_seq += 1;
        Ok(body)
    }
}

impl std::fmt::Debug for FetchSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchSession")
            .field("chunks", &self.header.chunk_count)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// The free-function core of [`NetClient::await_frame`], shared with
/// [`FetchSession`] (which outlives the client call that opened it).
fn await_frame_on(
    conn: &mut TcpStream,
    response_timeout: Duration,
) -> Result<(FrameType, Vec<u8>), OpError> {
    let start = Instant::now();
    loop {
        match read_frame(conn).map_err(OpError::Transport)? {
            ReadOutcome::Frame(FrameType::Error, payload) => {
                return Err(OpError::Remote(decode_error(&payload)))
            }
            ReadOutcome::Frame(ty, payload) => return Ok((ty, payload)),
            ReadOutcome::Eof => {
                return Err(OpError::Transport(RecoilError::net(
                    "server closed the connection",
                )))
            }
            ReadOutcome::Idle => {
                if start.elapsed() > response_timeout {
                    return Err(OpError::Transport(RecoilError::net(
                        "timed out waiting for server response",
                    )));
                }
            }
        }
    }
}

/// The free-function core of [`NetClient::await_chunk`], shared with
/// [`FetchSession`].
fn await_chunk_on(
    conn: &mut TcpStream,
    response_timeout: Duration,
    seq: u32,
) -> Result<Vec<u8>, OpError> {
    let bad = |msg: String| OpError::Transport(RecoilError::net(msg));
    let (ty, mut payload) = await_frame_on(conn, response_timeout)?;
    if ty != FrameType::Chunk {
        return Err(bad(format!("expected CHUNK, got {ty:?}")));
    }
    if payload.len() < 4 {
        return Err(bad("chunk frame too short".into()));
    }
    let got_seq = u32::from_le_bytes(payload[..4].try_into().expect("4"));
    if got_seq != seq {
        return Err(bad(format!(
            "chunk sequence mismatch: expected {seq}, got {got_seq}"
        )));
    }
    // In place: the frame's own buffer, shifted down over the prefix.
    payload.drain(..4);
    Ok(payload)
}

/// Validates a TRANSMIT header before any chunk bytes arrive and returns
/// the rebuilt model plus the parsed shrunk metadata — the shared front
/// half of the buffered and streaming receive paths, public so callers
/// driving [`FetchSession`]-level resume (the fabric router) can
/// cross-check a replica's header against the original.
///
/// The checks mirror the container file parser: an information-capacity
/// bound so a hostile header cannot drive the decode-side allocation, the
/// quantizer invariants on the transmitted frequencies, the metadata's own
/// CRC footer, and the metadata's geometry against the header's.
pub fn validate_transmit_header(
    header: &TransmitHeader,
) -> Result<(StaticModelProvider, RecoilMetadata), RecoilError> {
    let bad = |msg: String| RecoilError::net(msg);
    if !header.word_bytes.is_multiple_of(2) {
        return Err(bad("odd bitstream byte count".into()));
    }
    let n = header.quant_bits;
    if n == 0 || n > 16 {
        return Err(bad(format!("bad quantization level {n}")));
    }
    let min_bits = ((1u64 << n) as f64).log2() - ((1u64 << n) as f64 - 1.0).log2();
    let capacity_bits = 8.0 * header.word_bytes as f64 + 16.0 * header.ways as f64;
    if header.num_symbols as f64 * min_bits > capacity_bits * 1.001 + 64.0 {
        return Err(bad(format!(
            "symbol count {} impossible for {} bitstream bytes",
            header.num_symbols, header.word_bytes
        )));
    }

    // Model reconstruction with the container parser's invariants.
    let freqs: Vec<u32> = header.freqs.iter().map(|&f| f as u32).collect();
    if freqs.is_empty() {
        return Err(bad("empty model frequency table".into()));
    }
    let sum: u64 = freqs.iter().map(|&f| f as u64).sum();
    if sum != 1 << n {
        return Err(bad(format!(
            "model frequencies sum to {sum}, expected 2^{n}"
        )));
    }
    if freqs.iter().any(|&f| (f as u64) >= (1u64 << n)) {
        return Err(bad("model frequency reaches 2^n".into()));
    }
    let model = StaticModelProvider::new(CdfTable::from_freqs(freqs, n));

    // Metadata bytes carry their own CRC footer; this parses + checks.
    let metadata = metadata_from_bytes(&header.metadata)?;
    if metadata.ways != header.ways
        || metadata.num_symbols != header.num_symbols
        || metadata.num_words * 2 != header.word_bytes
    {
        return Err(bad(format!(
            "metadata (W={}, N={}, B={}) does not match the transmit header \
             (W={}, N={}, B={})",
            metadata.ways,
            metadata.num_symbols,
            metadata.num_words,
            header.ways,
            header.num_symbols,
            header.word_bytes / 2
        )));
    }
    Ok((model, metadata))
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .field("pooled", &self.pooled_connections())
            .field("backend", &self.backend.name())
            .finish()
    }
}
