//! [`FabricRouter`]: client-side placement, promotion, and failover.
//!
//! The router is the fabric's brain and it lives entirely on the client:
//! nodes never talk to each other and hold no cluster state, so a "node"
//! is just a stock [`recoil_net::NetServer`]. Placement is rendezvous
//! hashing (stable under membership change), replication is a byte copy
//! (the holder's container, published on the target as it is, so a replica
//! is its holder's bytes by construction), and failover is RESUME at the
//! exact word offset already received — split metadata makes that offset
//! the complete resume state.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use recoil_core::backend::{ensure_available, AutoBackend, DecodeBackend};
use recoil_core::{Codec, EncoderConfig, RecoilError};
use recoil_net::{splitmix64, NetClient, NetClientConfig, PublishOk, StatsReply, WordStore};
use recoil_telemetry::{Telemetry, TelemetryLevel};

/// Construction knobs for [`FabricRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Target holder count for promoted (hot) names, primary included.
    /// Cold names live on their rendezvous primary only.
    pub replicas: usize,
    /// Router-observed fetch count after which a name is hot enough to
    /// promote onto extra replicas.
    pub promote_min_hits: u64,
    /// Run a promotion pass automatically every this many fetches
    /// (0 disables; call [`FabricRouter::rebalance`] manually).
    pub rebalance_interval: u64,
    /// Per-node client knobs (retry policy, timeouts, pool size).
    pub client: NetClientConfig,
    /// Level for the router's shared instruments ([`FabricRouter::telemetry`]).
    pub telemetry: TelemetryLevel,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            promote_min_hits: 8,
            rebalance_interval: 64,
            client: NetClientConfig::default(),
            telemetry: TelemetryLevel::Counters,
        }
    }
}

struct RouterNode {
    client: NetClient,
    healthy: AtomicBool,
}

/// One node's slice of a (possibly failed-over) fetch — the wire-level
/// byte accounting chaos tests assert resume correctness with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchAttempt {
    /// Node index the attempt was served by.
    pub node: usize,
    /// Word offset the attempt resumed from (0 for the first).
    pub from_word: u64,
    /// Bitstream bytes this node actually delivered (whole words).
    pub chunk_bytes: u64,
    /// False when the node died mid-stream and the fetch moved on.
    pub completed: bool,
}

impl FetchAttempt {
    /// `node` delivered the stream's `words`.
    fn of(node: usize, words: std::ops::Range<u64>, completed: bool) -> Self {
        Self {
            node,
            from_word: words.start,
            chunk_bytes: (words.end - words.start) * 2,
            completed,
        }
    }
}

/// A completed (possibly failed-over) fabric fetch.
#[derive(Debug)]
pub struct FabricFetch {
    /// The decoded content — byte-identical to an undisturbed fetch.
    pub data: Vec<u8>,
    /// Segments in the served metadata tier.
    pub segments: u64,
    /// Every node attempt in order; `attempts.len() - failovers` always
    /// equals the number of nodes that declined to even start a stream.
    pub attempts: Vec<FetchAttempt>,
    /// Mid-stream deaths survived during this fetch.
    pub failovers: u32,
    /// Nanoseconds until the first segment was decoded.
    pub first_segment_nanos: u64,
    /// Nanoseconds for the whole fetch, failovers included.
    pub total_nanos: u64,
}

/// Client-side router over a set of fabric nodes.
pub struct FabricRouter {
    nodes: Vec<RouterNode>,
    config: RouterConfig,
    /// The router's one decode pool: its per-node clients only receive, so
    /// they never build one of their own.
    backend: Box<dyn DecodeBackend>,
    /// The word store every fetch receives into, kept between fetches.
    words: WordStore,
    /// Shared instruments: injected into every per-node client so
    /// `retries` aggregates fleet-wide next to the router's own
    /// `failovers` / `replica_promotions` counters and `healthy_nodes`
    /// gauge.
    telemetry: Arc<Telemetry>,
    /// Extra holders per name, appended by promotion (primary excluded).
    promoted: Mutex<HashMap<String, Vec<usize>>>,
    /// Router-observed per-name fetch counts driving promotion.
    hits: Mutex<HashMap<String, u64>>,
    fetches: AtomicU64,
    /// Set while a promotion pass runs, so concurrent callers run one pass
    /// rather than racing to place the same replicas.
    rebalancing: AtomicBool,
}

impl FabricRouter {
    /// Connects one (lazy) [`NetClient`] per node address and probes
    /// reachability: unreachable nodes start out unhealthy rather than
    /// failing construction — a fabric is allowed to be degraded at
    /// router startup. At least one node must answer its probe.
    pub fn connect(addrs: &[SocketAddr], config: RouterConfig) -> Result<Self, RecoilError> {
        if addrs.is_empty() {
            return Err(RecoilError::config(
                "addrs",
                "a router needs at least one node",
            ));
        }
        let telemetry = Arc::new(Telemetry::new(config.telemetry));
        let mut nodes = Vec::with_capacity(addrs.len());
        for &addr in addrs {
            let client = NetClient::connect_lazy(addr, config.client.clone())?
                .with_telemetry(Arc::clone(&telemetry));
            // Plain TCP reachability probe; full HELLO validation happens
            // on the node's first real use.
            let healthy = std::net::TcpStream::connect(addr).is_ok();
            nodes.push(RouterNode {
                client,
                healthy: AtomicBool::new(healthy),
            });
        }
        let healthy_now = nodes
            .iter()
            .filter(|n| n.healthy.load(Ordering::Relaxed))
            .count();
        if healthy_now == 0 {
            return Err(RecoilError::net("no fabric node answered its probe"));
        }
        if telemetry.counters_enabled() {
            telemetry.gauges.healthy_nodes.set(healthy_now as u64);
        }
        Ok(Self {
            nodes,
            config,
            backend: Box::new(AutoBackend::with_threads(
                std::thread::available_parallelism().map_or(1, |p| p.get()),
            )),
            words: WordStore::default(),
            telemetry,
            promoted: Mutex::new(HashMap::new()),
            hits: Mutex::new(HashMap::new()),
            fetches: AtomicU64::new(0),
            rebalancing: AtomicBool::new(false),
        })
    }

    /// Nodes currently believed healthy. Health is observational: a node
    /// is marked down when a dial or stream fails and back up on the
    /// next successful exchange.
    pub fn healthy_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.healthy.load(Ordering::Relaxed))
            .count()
    }

    /// The shared instrument handle: fleet-wide `retries` plus the
    /// router's `failovers`, `replica_promotions`, and the
    /// `healthy_nodes` gauge.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The backend every fetch decodes with: its
    /// [`recoil_core::backend::preferred_segments`] is the widest stream a
    /// fetch decodes in one batch.
    pub fn backend(&self) -> &dyn DecodeBackend {
        self.backend.as_ref()
    }

    /// Node `i`'s serving counters ([`NetClient::stats`]: a TELEMETRY
    /// exchange, so on a `Trace`-level node it consumes the buffered trace
    /// events). A node the router does not have is
    /// [`RecoilError::InvalidConfig`].
    pub fn node_stats(&self, i: usize) -> Result<StatsReply, RecoilError> {
        let node = self.nodes.get(i).ok_or_else(|| {
            RecoilError::config("node", format!("no node {i} among {}", self.nodes.len()))
        })?;
        node.client.stats()
    }

    /// Rendezvous (highest-random-weight) score of `node` for `name`:
    /// FNV-1a over the name, mixed per node through splitmix64. Every
    /// router instance computes the same placement with no coordination.
    fn score(name: &str, node: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in name.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        splitmix64(h ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The rendezvous winner for `name` — where a publish lands.
    pub fn primary(&self, name: &str) -> usize {
        (0..self.nodes.len())
            .max_by_key(|&i| Self::score(name, i))
            .unwrap_or(0)
    }

    /// Every node ordered by descending rendezvous score for `name`;
    /// promotion walks this list, so replica placement is as stable as
    /// primary placement.
    pub fn candidates(&self, name: &str) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(Self::score(name, i)));
        order
    }

    /// Current holders of `name`: the primary, then promoted replicas.
    pub fn holders(&self, name: &str) -> Vec<usize> {
        let mut holders = vec![self.primary(name)];
        let promoted = self.promoted.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(extra) = promoted.get(name) {
            for &i in extra {
                if !holders.contains(&i) {
                    holders.push(i);
                }
            }
        }
        holders
    }

    fn mark_health(&self, node: usize, healthy: bool) {
        let was = self.nodes[node].healthy.swap(healthy, Ordering::Relaxed);
        if was != healthy && self.telemetry.counters_enabled() {
            self.telemetry
                .gauges
                .healthy_nodes
                .set(self.healthy_nodes() as u64);
        }
    }

    /// Encodes `data` under `config` once, here, and publishes the
    /// container on the best healthy rendezvous candidate (normally the
    /// primary). A candidate that fails at the transport level is marked
    /// unhealthy and the same bytes go to the next one; typed refusals
    /// (e.g. [`RecoilError::AlreadyPublished`]) propagate.
    pub fn publish(
        &self,
        name: &str,
        data: &[u8],
        config: &EncoderConfig,
    ) -> Result<PublishOk, RecoilError> {
        let container = Codec::from_config(config.clone())?
            .encode(data)?
            .container_bytes();
        let mut last_err = RecoilError::net("no healthy fabric node to publish to");
        for target in self.candidates(name) {
            if !self.nodes[target].healthy.load(Ordering::Relaxed) {
                continue;
            }
            match self.nodes[target]
                .client
                .publish_container(name, &container)
            {
                Ok(ok) => {
                    self.mark_health(target, true);
                    if target != self.primary(name) {
                        // Degraded-primary publish: remember where the
                        // bytes really live so fetches route there.
                        self.promoted
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .entry(name.to_string())
                            .or_default()
                            .push(target);
                    }
                    return Ok(ok);
                }
                Err(err @ RecoilError::Net { .. }) => {
                    self.mark_health(target, false);
                    last_err = err;
                }
                Err(err) => return Err(err),
            }
        }
        Err(last_err)
    }

    /// The attempt of a node that could not start (or resume) a stream.
    /// Transport-level failures mark it down; typed refusals (NotFound,
    /// Busy) leave health alone.
    fn declined(&self, node: usize, from_word: u64, err: &RecoilError) -> FetchAttempt {
        if matches!(err, RecoilError::Net { .. }) {
            self.mark_health(node, false);
        }
        FetchAttempt::of(node, from_word..from_word, false)
    }

    /// Fetches and decodes `name` at `parallel_segments`: one
    /// [`recoil_net::FetchSession`], opened on the best holder and driven
    /// through [`recoil_net::FetchSession::decode_streaming`] on this
    /// thread, into the router's [`WordStore`]. If the serving node dies
    /// mid-stream the *same session* is resumed on the next holder at the
    /// exact word offset it already holds — decoded segments are never
    /// re-sent — and the session's payload check (whole-stream CRC, every
    /// node's header agreeing with the first) makes the result
    /// byte-identical to an undisturbed fetch, or a typed error.
    pub fn fetch(&self, name: &str, parallel_segments: u64) -> Result<FabricFetch, RecoilError> {
        let n = self.fetches.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.rebalance_interval > 0 && n.is_multiple_of(self.config.rebalance_interval) {
            self.rebalance();
        }
        let backend = self.backend.as_ref();
        // Nothing any node sends could be decoded: refuse before asking.
        ensure_available(backend)?;
        // Serving order: holders first (primary, then replicas), then —
        // as a last resort — every other node, in case content moved
        // under a topology the router did not see. Healthy nodes go
        // before unhealthy ones, preserving that relative order.
        let mut order = self.holders(name);
        for i in 0..self.nodes.len() {
            if !order.contains(&i) {
                order.push(i);
            }
        }
        order.sort_by_key(|&i| !self.nodes[i].healthy.load(Ordering::Relaxed));
        let mut untried = order.into_iter();

        let start = Instant::now();
        let mut attempts: Vec<FetchAttempt> = Vec::new();
        let mut last_err = RecoilError::net(format!("no fabric node could serve `{name}`"));
        let (mut serving, session) = loop {
            let Some(node) = untried.next() else {
                return Err(last_err);
            };
            match self.nodes[node]
                .client
                .start_fetch(name, parallel_segments, 0)
            {
                Ok(session) => break (node, session),
                Err(err) => {
                    attempts.push(self.declined(node, 0, &err));
                    last_err = err;
                }
            }
        };

        let total_words = session.metadata.num_words;
        let mut from_word = 0;
        let mut failovers = 0u32;
        let streamed = session.decode_streaming(
            backend,
            &self.telemetry,
            &self.words,
            start,
            |session, mut last_err| {
                // Mid-stream death: the failover the fabric exists for.
                let held = session.words_received();
                attempts.push(FetchAttempt::of(serving, from_word..held, false));
                from_word = held;
                self.mark_health(serving, false);
                failovers += 1;
                if self.telemetry.counters_enabled() {
                    self.telemetry.counters.failovers.bump();
                }
                for node in untried.by_ref() {
                    match session.resume_on(&self.nodes[node].client) {
                        Ok(()) => {
                            serving = node;
                            return Ok(());
                        }
                        Err(err) => {
                            attempts.push(self.declined(node, held, &err));
                            last_err = err;
                        }
                    }
                }
                Err(last_err)
            },
        )?;
        self.mark_health(serving, true);
        // Only a delivered fetch heats its name: one no node could serve
        // must not be promoted, nor grow `hits`.
        *self
            .hits
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert(0) += 1;
        attempts.push(FetchAttempt::of(serving, from_word..total_words, true));
        Ok(FabricFetch {
            data: streamed.data,
            segments: streamed.segments,
            attempts,
            failovers,
            first_segment_nanos: streamed.first_segment_nanos,
            total_nanos: streamed.total_nanos,
        })
    }

    /// One promotion pass: every name the router has seen at least
    /// [`RouterConfig::promote_min_hits`] fetches of is copied onto its
    /// next-best healthy rendezvous candidates until it has
    /// [`RouterConfig::replicas`] holders — whoever published it, through
    /// this router or straight to a node. Returns the number of
    /// (name, node) promotions performed. Runs automatically every
    /// [`RouterConfig::rebalance_interval`] fetches; call directly for
    /// deterministic tests.
    pub fn rebalance(&self) -> usize {
        // One pass at a time (see the field).
        if self.rebalancing.swap(true, Ordering::Acquire) {
            return 0;
        }
        let hot: Vec<String> = {
            let hits = self.hits.lock().unwrap_or_else(PoisonError::into_inner);
            let mut by_heat: Vec<(&String, u64)> = hits
                .iter()
                .filter(|&(_, &count)| count >= self.config.promote_min_hits)
                .map(|(name, &count)| (name, count))
                .collect();
            // Hottest first; ties broken by name so the pass order is
            // deterministic under a fixed workload.
            by_heat.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            by_heat.into_iter().map(|(name, _)| name.clone()).collect()
        };
        let mut promotions = 0;
        for name in hot {
            while self.holders(&name).len() < self.config.replicas.max(1) {
                let holders = self.holders(&name);
                let healthy = |i: &usize| self.nodes[*i].healthy.load(Ordering::Relaxed);
                let Some(&holder) = holders.iter().find(|i| healthy(i)) else {
                    break;
                };
                let mut candidates = self.candidates(&name).into_iter();
                let Some(target) = candidates.find(|i| !holders.contains(i) && healthy(i)) else {
                    break;
                };
                if self.replicate(&name, holder, target).is_err() {
                    break; // the holder or the target failed; retry on a later pass
                }
                self.promoted
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entry(name.clone())
                    .or_default()
                    .push(target);
                promotions += 1;
                if self.telemetry.counters_enabled() {
                    self.telemetry.counters.replica_promotions.bump();
                }
            }
        }
        self.rebalancing.store(false, Ordering::Release);
        promotions
    }

    /// Copies `name` from `holder` onto `target` as bytes: a buffered
    /// full-width fetch (checked on receipt, never decoded) is the holder's
    /// item section and words, which behind a container's magic and version
    /// are the holder's container, and are published on the target as they
    /// are. The replica is the holder's bytes by construction, which is
    /// what keeps cross-node resume valid.
    fn replicate(&self, name: &str, holder: usize, target: usize) -> Result<(), RecoilError> {
        let held = self.nodes[holder].client.request(name, u64::MAX)?;
        let bytes = held.container_bytes();
        match self.nodes[target].client.publish_container(name, &bytes) {
            Ok(_) | Err(RecoilError::AlreadyPublished { .. }) => Ok(()),
            Err(err) => Err(err),
        }
    }
}
