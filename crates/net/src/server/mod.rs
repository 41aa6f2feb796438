//! The TCP front end over [`ContentServer`](recoil_server::ContentServer):
//! public configuration and handle types over the event-driven backend.
//!
//! The backend ([`reactor`]) multiplexes every connection on one
//! event-driven thread built from `recoil-reactor`'s readiness plumbing
//! (edge-triggered epoll, slab-pooled connection state, reactor-managed
//! deadlines). That thread serves every request itself, tier-cache misses
//! included; only a publish — validating and storing the container it
//! carries — goes to a small dispatch pool. Connections are *not* pinned to threads, so thousands of
//! mostly-idle peers cost one slab slot each, not a worker.

mod reactor;

pub use reactor::BUSY_RETRY_AFTER_MS;

use crate::fault::FaultPlan;
use crate::frame::{io_err, MAX_FRAME_LEN};
use recoil_core::RecoilError;
use recoil_reactor::SlabStats;
use recoil_server::ContentServer;
use recoil_telemetry::{TelemetryLevel, TelemetrySnapshot};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Construction knobs for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Dispatch workers for the one request whose cost grows with its
    /// payload: a worker validates and stores a published container (its
    /// CRC-32, model and metadata, then the item's tier table), in time
    /// linear in the container. It never encodes; the publisher did.
    ///
    /// Connections are **not** pinned to workers: the reactor backend
    /// serves every connection — every request, tier-cache misses
    /// included — from one event loop and touches a worker only for a
    /// PUBLISH, so this sizes publish concurrency, not connection
    /// concurrency.
    pub workers: usize,
    /// Hard cap on concurrently open connections; excess accepts are
    /// rejected with a typed busy error carrying [`BUSY_RETRY_AFTER_MS`].
    pub max_connections: usize,
    /// Progress deadline while a frame is partially received: a peer that
    /// starts a frame must keep bytes flowing at least this often or be
    /// evicted (slow-loris defense). Idle connections *between* frames are
    /// not subject to it.
    pub read_timeout: Duration,
    /// Progress deadline while a response is being written.
    pub write_timeout: Duration,
    /// Bitstream bytes per [`crate::FrameType::Chunk`] body: clamped to
    /// `[2, MAX_FRAME_LEN − 4]` (one word, and what one frame carries past
    /// its sequence number) and rounded down to whole words, so `5` sends
    /// 4-byte bodies. Every body but a response's last is that long.
    pub chunk_bytes: usize,
    /// How much the pipeline observes itself. `Off` (the default) reduces
    /// every instrument to one branch on the hot path; `Counters` adds
    /// counters, gauges, and latency histograms; `Trace` additionally keeps
    /// the last N stage events in a lock-free ring. Snapshots are served
    /// over the wire in reply to a TELEMETRY frame (at every level, `Off`
    /// included) and locally via [`NetServerHandle::telemetry`].
    pub telemetry: TelemetryLevel,
    /// Deterministic fault schedule for chaos testing ([`FaultPlan`]). A
    /// `None` (the default) serves faithfully; a plan makes this node
    /// reset accepts, tear/delay writes, or die mid-stream at a fixed
    /// write offset — reproducibly, for failover tests and chaos benches.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for NetConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self {
            workers: cpus.clamp(2, 8),
            max_connections: 64,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(10),
            chunk_bytes: 256 * 1024,
            telemetry: TelemetryLevel::Off,
            fault_plan: None,
        }
    }
}

impl NetConfig {
    /// Chunk size clamped to what one frame can carry (minus the sequence
    /// number) and to whole words.
    fn effective_chunk_words(&self) -> usize {
        (self.chunk_bytes.clamp(2, MAX_FRAME_LEN as usize - 4)) / 2
    }
}

/// The framed TCP server. Constructed via [`NetServer::bind`], which
/// returns the owning [`NetServerHandle`].
pub struct NetServer;

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `content` in background threads. The returned handle owns the
    /// server; dropping it shuts the server down.
    pub fn bind(
        content: Arc<ContentServer>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> Result<NetServerHandle, RecoilError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
        let backend = reactor::bind(content, listener, config)?;
        Ok(NetServerHandle { addr, backend })
    }
}

/// Owner of a running [`NetServer`]; shuts it down when dropped.
pub struct NetServerHandle {
    addr: SocketAddr,
    backend: reactor::ReactorHandle,
}

impl NetServerHandle {
    /// The bound address (with the resolved port for ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The content store this server fronts.
    pub fn content(&self) -> &Arc<ContentServer> {
        self.backend.content()
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.backend.active_connections()
    }

    /// Connection-slot reuse tallies from the reactor's slab: steady-state
    /// accepts recycle parked buffers instead of allocating, and this is
    /// how tests assert it.
    pub fn slab_stats(&self) -> SlabStats {
        self.backend.slab_stats()
    }

    /// The snapshot a TELEMETRY frame would carry right now — this
    /// server's instruments plus every serving counter, assembled at the
    /// same point the wire replies are — for in-process consumers (benches,
    /// tests). Unlike the frame it leaves the trace ring undrained.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.backend.telemetry()
    }

    /// Stops accepting, lets in-flight requests finish, and joins every
    /// server thread. Idempotent (also runs on drop).
    pub fn shutdown(mut self) {
        self.backend.stop(false);
    }

    /// Kills the node **abruptly**: the listener closes and every open
    /// connection is severed without draining its response or sending an
    /// ERROR frame — in-flight transfers die mid-frame, exactly like a
    /// crashed process (modulo the OS closing its sockets). This is the
    /// failover trigger the fabric's chaos tests exercise; for orderly
    /// teardown use [`NetServerHandle::shutdown`].
    pub fn kill(mut self) {
        self.backend.stop(true);
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.backend.stop(false);
    }
}

impl std::fmt::Debug for NetServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServerHandle")
            .field("addr", &self.addr)
            .field("active", &self.active_connections())
            .finish()
    }
}
