//! The encode-once, combine-per-request server.

use crate::cache::{ShrunkTier, TierCache};
use crate::stats::{add, bump, ServerStats, StatsCounters};
use crate::unpoisoned;
use recoil_core::codec::{Codec, EncoderConfig};
use recoil_core::{crc32, model_block, RecoilContainer, RecoilError, RecoilMetadata, WireSplits};
use recoil_models::StaticModelProvider;
use recoil_rans::EncodedStream;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// One published content item: the Large-variation artifact.
///
/// Besides the stream, an item keeps what it built at publish: the two
/// tiers that select nothing — its full tier (every split kept: the
/// published metadata and its wire bytes, served to a decoder at or beyond
/// the encoded maximum) and its one-segment tier (no split kept: the
/// header and the CRC, 32 bytes) — a table of every split's wire body,
/// written once ([`WireSplits`]), from which every tier in between is
/// written, and the rest of an item section as bytes: the model block and
/// the words' CRC. Encode once, serve many: both trivial tiers are hits
/// from the first request, a tier-cache miss writes only its own bytes, and
/// no request pays for what the item holds.
#[derive(Debug)]
pub struct StoredContent {
    /// The single encoded bitstream (shared by every response).
    pub stream: Arc<EncodedStream>,
    /// The static model clients decode with (transmitted out of band; its
    /// size is identical across variations so the paper's size tables
    /// exclude it).
    pub model: Arc<StaticModelProvider>,
    /// The published metadata at maximum supported parallelism and its
    /// wire bytes, held for the item's lifetime outside the LRU.
    full: Arc<ShrunkTier>,
    /// The tier of one segment, held beside the full one.
    one: Arc<ShrunkTier>,
    /// The full tier's split bodies, written once; every combined tier is
    /// written from it.
    wire: WireSplits,
    /// Combined tiers this item has served (LRU).
    cache: TierCache<ShrunkTier>,
    /// Its item sections' model block ([`recoil_core::model_block`]).
    model_block: Vec<u8>,
    /// See [`StoredContent::payload_crc32`].
    payload_crc: u32,
}

impl StoredContent {
    /// Full metadata at maximum supported parallelism, as published.
    pub fn metadata(&self) -> &RecoilMetadata {
        self.full.metadata()
    }

    /// The maximum parallelism this item was encoded for; requests beyond
    /// it are clamped to this tier.
    pub fn max_segments(&self) -> u64 {
        self.full.segments
    }

    /// CRC-32 of every bitstream word's little-endian bytes, in stream
    /// order (the same for every tier), set when the item was stored: the
    /// CRC its container carried, or computed once by an in-process publish.
    pub fn payload_crc32(&self) -> u32 {
        self.payload_crc
    }

    /// The model block of every item section this item serves: alphabet,
    /// frequencies, final states and the block's CRC.
    pub fn model_block(&self) -> &[u8] {
        &self.model_block
    }
}

/// What the server puts on the wire for one request.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Shared bitstream payload bytes.
    pub stream_bytes: u64,
    /// The served metadata tier, shared with the item (its full or
    /// one-segment tier, or a cached combined one) and with every other
    /// response for the same tier.
    pub tier: Arc<ShrunkTier>,
    /// Wall-clock nanoseconds the real-time combine took — writing the
    /// tier's bytes from its kept splits' stored wire bits (zero on a hit:
    /// a tier the item holds, or a combined tier out of the cache).
    pub combine_nanos: u128,
    /// Whether this response was served without a combine: one of the
    /// item's own tiers (the full tier at the encoded maximum, the
    /// one-segment tier), or a combined tier from its LRU.
    pub cache_hit: bool,
}

impl Transmission {
    /// Parsed metadata for the client's capability (for in-process
    /// clients): parsed from the tier's bytes on the first call for a
    /// combined or one-segment tier ([`ShrunkTier::metadata`]).
    pub fn metadata(&self) -> &RecoilMetadata {
        self.tier.metadata()
    }

    /// Serialized metadata bytes, what a remote client would wire-parse.
    pub fn metadata_bytes(&self) -> &[u8] {
        &self.tier.metadata_bytes
    }

    /// Total bytes transferred for this response.
    pub fn total_bytes(&self) -> u64 {
        self.stream_bytes + self.tier.metadata_bytes.len() as u64
    }
}

/// RAII claim on a name in [`ContentServer`]'s in-flight publish set; the
/// drop releases the name on every exit path, so a failed publish (bad
/// config, unsupported symbol, invalid metadata) frees it for retry.
struct InflightGuard<'a> {
    set: &'a Mutex<HashSet<String>>,
    name: &'a str,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        unpoisoned(self.set.lock()).remove(self.name);
    }
}

/// Construction knobs for [`ContentServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Store shards (each an independent `RwLock<HashMap>`); publishes only
    /// write-lock one shard, so reads elsewhere never block. Minimum 1.
    pub shards: usize,
    /// Combined metadata tiers cached per published item (LRU), beside
    /// the full tier every item holds outside it. Minimum 1.
    pub tier_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            tier_cache_capacity: 8,
        }
    }
}

/// In-memory content store with decoder-adaptive responses.
///
/// All methods take `&self`: the store is sharded under reader-writer
/// locks, the tier caches and counters use interior mutability, so one
/// instance is shared freely across request threads — and across
/// transports: it knows nothing of connections, queues or telemetry
/// handles. What a caller wants to observe about a request it reads off
/// the returned [`Transmission`] (`cache_hit`, `tier.segments`,
/// `combine_nanos`).
pub struct ContentServer {
    shards: Vec<RwLock<HashMap<String, Arc<StoredContent>>>>,
    /// Names with a publish or an insert in flight. Claimed before the
    /// encode (or the tier table) starts, so a racing duplicate fails fast
    /// instead of doing the whole work and losing at the store insert.
    publishing: Mutex<HashSet<String>>,
    stats: StatsCounters,
    tier_cache_capacity: usize,
}

impl Default for ContentServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentServer {
    /// Empty server with the default configuration (16 shards, 8 cached
    /// combined tiers per item).
    pub fn new() -> Self {
        Self::with_config(ServerConfig::default())
    }

    /// Empty server with explicit sharding/caching sizes.
    pub fn with_config(config: ServerConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            publishing: Mutex::new(HashSet::new()),
            stats: StatsCounters::default(),
            tier_cache_capacity: config.tier_cache_capacity.max(1),
        }
    }

    /// The shard owning `name`.
    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Arc<StoredContent>>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    /// Encodes `data` once under `config` (lane width, split budget,
    /// quantization) and stores the result as `name`: the in-process
    /// publisher, for callers that hold raw data rather than a container.
    /// It is [`ContentServer::insert`] with the encode (and the words' CRC)
    /// in front, under the same name claim; nothing goes through bytes.
    ///
    /// Encoding happens outside any store lock — a slow publish never stalls
    /// requests, not even for other names on the same shard.
    ///
    /// Publishing over an existing name is rejected with
    /// [`RecoilError::AlreadyPublished`] — republishing would silently
    /// invalidate bitstreams clients may still be downloading. Use
    /// [`ContentServer::unpublish`] first to replace content. Two *racing*
    /// publishes of one name are also arbitrated here: the name is claimed
    /// in an in-flight set before any encoding work, so the loser fails
    /// fast instead of burning a full encode it can never store.
    pub fn publish(
        &self,
        name: &str,
        data: &[u8],
        config: &EncoderConfig,
    ) -> Result<Arc<StoredContent>, RecoilError> {
        self.store(name, || {
            let encoded = Codec::from_config(config.clone())?.encode(data)?;
            let words_crc = crc32(encoded.container.stream.words.as_bytes());
            Ok((encoded.container, encoded.model, words_crc))
        })
    }

    /// Stores an already-encoded container as `name`, exactly as its
    /// publisher encoded it: the stream, the model, the full metadata and
    /// `words_crc` (the CRC-32 of the words' little-endian bytes) are kept
    /// as given, and only the item's tier table and model block are built
    /// from them. This is how a remote publish lands (the transport parses
    /// the container's bytes first, [`recoil_core::read_container`]) and
    /// why a replica is its holder's bytes.
    ///
    /// The metadata is validated when the tier table is built; its
    /// geometry describing `container.stream`, and `words_crc` being its
    /// words', are the caller's to ensure, as a parsed container always
    /// does. Names are claimed and refused as in [`ContentServer::publish`].
    pub fn insert(
        &self,
        name: &str,
        container: RecoilContainer,
        model: StaticModelProvider,
        words_crc: u32,
    ) -> Result<Arc<StoredContent>, RecoilError> {
        self.store(name, || Ok((container, model, words_crc)))
    }

    /// Claims `name`, builds its item from what `encoded` returns — outside
    /// any store lock — and inserts it.
    fn store(
        &self,
        name: &str,
        encoded: impl FnOnce() -> Result<(RecoilContainer, StaticModelProvider, u32), RecoilError>,
    ) -> Result<Arc<StoredContent>, RecoilError> {
        let taken = || RecoilError::AlreadyPublished {
            name: name.to_string(),
        };
        let _inflight = {
            let mut publishing = unpoisoned(self.publishing.lock());
            if unpoisoned(self.shard(name).read()).contains_key(name) || publishing.contains(name) {
                return Err(taken());
            }
            publishing.insert(name.to_string());
            InflightGuard {
                set: &self.publishing,
                name,
            }
        };
        let (RecoilContainer { stream, metadata }, model, payload_crc) = encoded()?;
        let wire = WireSplits::of(&metadata)?;
        // Every split selected (`metadata_to_bytes(&metadata)`) and none,
        // written from the table just built. The full tier holds the
        // published metadata itself, parsed.
        let full = wire.tier(metadata.num_segments())?;
        let one = ShrunkTier::new(1, wire.tier(1)?);
        let content = Arc::new(StoredContent {
            model_block: model_block(model.table(), &stream.final_states),
            stream: Arc::new(stream),
            model: Arc::new(model),
            full: Arc::new(ShrunkTier::full(metadata, full)),
            one: Arc::new(one),
            wire,
            cache: TierCache::new(self.tier_cache_capacity),
            payload_crc,
        });
        match unpoisoned(self.shard(name).write()).entry(name.to_string()) {
            // Unreachable while every insert goes through the in-flight
            // claim above; kept as a cheap belt-and-braces re-check.
            Entry::Occupied(_) => Err(taken()),
            Entry::Vacant(v) => {
                v.insert(Arc::clone(&content));
                bump(&self.stats.publishes);
                Ok(content)
            }
        }
    }

    /// Removes published content, returning whether it existed. In-flight
    /// responses keep their `Arc`s; the bitstream outlives the unpublish.
    pub fn unpublish(&self, name: &str) -> bool {
        unpoisoned(self.shard(name).write()).remove(name).is_some()
    }

    /// Published item lookup.
    pub fn get(&self, name: &str) -> Option<Arc<StoredContent>> {
        unpoisoned(self.shard(name).read()).get(name).cloned()
    }

    /// Number of published items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| unpoisoned(s.read()).len()).sum()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| unpoisoned(s.read()).is_empty())
    }

    /// Snapshot of the serving counters (cache hits/misses/evictions,
    /// publishes, requests).
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Serves `name` for a client that can decode `parallel_segments`
    /// segments in parallel: resolves the capacity to a tier (clamped to
    /// the item's encoded maximum) and serves it — the maximum and one
    /// segment from the item's own tiers, anything in between from the
    /// item's LRU cache, combining splits in real time only on a miss —
    /// never touching the bitstream either way.
    ///
    /// `parallel_segments` is validated at this API boundary: a request for
    /// zero segments is a malformed client header, reported as
    /// [`RecoilError::InvalidConfig`] rather than silently clamped deep in
    /// the combine path.
    pub fn request(&self, name: &str, parallel_segments: u64) -> Result<Transmission, RecoilError> {
        self.fetch(name, parallel_segments).map(|(t, _)| t)
    }

    /// Like [`ContentServer::request`], but also returns the
    /// [`StoredContent`] handle the transmission was served from — in **one
    /// atomic lookup**.
    ///
    /// `request` followed by a separate [`ContentServer::get`] is a TOCTOU
    /// hazard: a concurrent [`ContentServer::unpublish`] between the two
    /// calls hands the caller a `Transmission` with no content to decode
    /// against. `fetch` resolves the name exactly once; the returned `Arc`s
    /// stay valid however the store changes afterwards.
    pub fn fetch(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<(Transmission, Arc<StoredContent>), RecoilError> {
        bump(&self.stats.requests);
        let (item, segments) = self.resolve(name, parallel_segments)?;
        let transmission = match self.serve_cached(&item, segments) {
            Some(hit) => hit,
            None => self.serve_combined(&item, segments)?,
        };
        Ok((transmission, item))
    }

    /// Validates a request and resolves it to its item and the tier it will
    /// be served: the post-clamp segment count, which is also the cache
    /// key — a request beyond capacity and an exact maximum-capacity
    /// request are both served the item's full tier.
    fn resolve(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<(Arc<StoredContent>, u64), RecoilError> {
        if parallel_segments == 0 {
            return Err(RecoilError::config(
                "parallel_segments",
                "a client must request at least one decode segment",
            ));
        }
        let item = self.get(name).ok_or_else(|| RecoilError::NotFound {
            name: name.to_string(),
        })?;
        let segments = parallel_segments.min(item.max_segments());
        Ok((item, segments))
    }

    /// The hit path, counted: the one place a stored tier becomes a
    /// [`Transmission`] — the item's own full tier at the encoded maximum
    /// or its one-segment tier, else a combined tier from its LRU.
    fn serve_cached(&self, item: &StoredContent, segments: u64) -> Option<Transmission> {
        let tier = if segments == item.max_segments() {
            Arc::clone(&item.full)
        } else if segments == 1 {
            Arc::clone(&item.one)
        } else {
            item.cache.get(segments)?
        };
        bump(&self.stats.cache_hits);
        Some(self.transmit(item, tier, 0, true))
    }

    /// The miss path: the real-time combine — the tier's bytes written
    /// from the item's stored wire table — timed, then cached.
    fn serve_combined(
        &self,
        item: &StoredContent,
        segments: u64,
    ) -> Result<Transmission, RecoilError> {
        let t0 = Instant::now();
        let wire = item.wire.tier(segments)?;
        let combine_nanos = t0.elapsed().as_nanos();
        // Counted only after the combine succeeds, keeping
        // `cache_hits + cache_misses` equal to successfully served requests
        // even if stored metadata ever fails validation.
        bump(&self.stats.cache_misses);
        let tier = item
            .cache
            .insert(Arc::new(ShrunkTier::new(segments, wire)), &self.stats);
        Ok(self.transmit(item, tier, combine_nanos, false))
    }

    /// Wraps a served tier and counts its bytes.
    fn transmit(
        &self,
        item: &StoredContent,
        tier: Arc<ShrunkTier>,
        combine_nanos: u128,
        cache_hit: bool,
    ) -> Transmission {
        let transmission = Transmission {
            stream_bytes: item.stream.payload_bytes(),
            tier,
            combine_nanos,
            cache_hit,
        };
        add(&self.stats.bytes_served, transmission.total_bytes());
        transmission
    }
}

impl std::fmt::Debug for ContentServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentServer")
            .field("items", &self.len())
            .field("shards", &self.shards.len())
            .field("tier_cache_capacity", &self.tier_cache_capacity)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect()
    }

    fn config(max_segments: u64) -> EncoderConfig {
        EncoderConfig {
            max_segments,
            ..EncoderConfig::default()
        }
    }

    fn small_server() -> ContentServer {
        ContentServer::with_config(ServerConfig {
            shards: 4,
            tier_cache_capacity: 8,
        })
    }

    #[test]
    fn publish_then_request_scales_metadata() {
        let data = sample(400_000);
        let server = small_server();
        server.publish("movie", &data, &config(128)).unwrap();
        let big = server.request("movie", 128).unwrap();
        let small = server.request("movie", 4).unwrap();
        assert_eq!(big.stream_bytes, small.stream_bytes, "bitstream is shared");
        assert!(big.metadata_bytes().len() > 10 * small.metadata_bytes().len());
        assert_eq!(small.metadata().num_segments(), 4);
    }

    #[test]
    fn request_beyond_capacity_serves_max_and_shares_cache_tier() {
        let data = sample(100_000);
        let server = small_server();
        server.publish("x", &data, &config(16)).unwrap();
        let t = server.request("x", 10_000).unwrap();
        assert_eq!(t.metadata().num_segments(), 16);
        // The post-clamp tier is the item's own full tier: even the first
        // request past capacity is a hit, and an exact 16-segment request
        // (and another absurd one) share it.
        assert!(t.cache_hit);
        assert_eq!(t.combine_nanos, 0);
        let exact = server.request("x", 16).unwrap();
        let huge = server.request("x", u64::MAX).unwrap();
        assert!(exact.cache_hit && huge.cache_hit);
        assert!(Arc::ptr_eq(&t.tier, &exact.tier));
        assert!(Arc::ptr_eq(&t.tier, &huge.tier));
        let s = server.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (3, 0));
    }

    #[test]
    fn the_full_tier_never_takes_an_lru_slot() {
        let data = sample(100_000);
        let server = ContentServer::with_config(ServerConfig {
            shards: 1,
            tier_cache_capacity: 1,
        });
        let item = server.publish("x", &data, &config(16)).unwrap();
        for _ in 0..4 {
            server.request("x", item.max_segments()).unwrap();
            server.request("x", 4).unwrap();
        }
        let s = server.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (7, 1));
        assert_eq!(s.cache_evictions, 0, "the full tier evicted width 4");
    }

    #[test]
    fn republishing_builds_a_fresh_full_tier() {
        use recoil_core::metadata_to_bytes;
        let server = small_server();
        server.publish("x", &sample(60_000), &config(16)).unwrap();
        let old = server.request("x", 16).unwrap();
        let old_bytes = old.metadata_bytes().to_vec();
        assert!(server.unpublish("x"));
        let item = server.publish("x", &sample(90_000), &config(32)).unwrap();
        let new = server.request("x", u64::MAX).unwrap();
        assert!(new.cache_hit);
        assert!(!Arc::ptr_eq(&old.tier, &new.tier));
        assert_eq!(new.metadata().num_segments(), 32);
        assert_eq!(new.metadata_bytes(), metadata_to_bytes(item.metadata()));
        // A transmission taken before the unpublish keeps the old tier.
        assert_eq!(old.metadata().num_segments(), 16);
        assert_eq!(old.metadata_bytes(), old_bytes);
    }

    #[test]
    fn repeated_capacity_hits_the_lru() {
        let data = sample(200_000);
        let server = small_server();
        server.publish("movie", &data, &config(64)).unwrap();
        let first = server.request("movie", 8).unwrap();
        assert!(!first.cache_hit);
        assert!(first.combine_nanos > 0);
        let second = server.request("movie", 8).unwrap();
        assert!(second.cache_hit, "repeated capacity must hit the LRU");
        assert_eq!(second.combine_nanos, 0, "no re-shrink on a hit");
        assert!(Arc::ptr_eq(&first.tier, &second.tier), "tiers are shared");
        let s = server.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.requests, 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_miss_and_its_hit_serve_the_combined_bytes_at_every_width() {
        use recoil_core::{metadata_to_bytes, try_combine_splits};
        let data = sample(120_000);
        let server = small_server();
        let item = server.publish("x", &data, &config(48)).unwrap();
        let max = item.max_segments();
        // (Every combined tier is a distinct cache key; the maximum and one
        // segment are the item's own tiers.)
        for width in 2..max {
            let miss = server.request("x", width).unwrap();
            let hit = server.request("x", width).unwrap();
            assert!(!miss.cache_hit && hit.cache_hit, "width {width}");
            assert_eq!(miss.metadata_bytes(), hit.metadata_bytes(), "width {width}");
            let combined = try_combine_splits(item.metadata(), width).unwrap();
            assert_eq!(miss.metadata(), &combined, "width {width}");
            assert_eq!(
                miss.metadata_bytes(),
                metadata_to_bytes(&combined),
                "width {width}"
            );
        }
        for width in [1, max] {
            let held = server.request("x", width).unwrap();
            assert!(
                held.cache_hit,
                "width {width} is a hit on its first request"
            );
            assert_eq!(held.combine_nanos, 0);
            let combined = try_combine_splits(item.metadata(), width).unwrap();
            assert_eq!(held.metadata(), &combined, "width {width}");
            assert_eq!(held.metadata_bytes(), metadata_to_bytes(&combined));
        }
        assert_eq!(
            server.request("x", max).unwrap().metadata(),
            item.metadata()
        );
    }

    #[test]
    fn the_trivial_tiers_never_take_an_lru_slot() {
        let data = sample(100_000);
        let server = ContentServer::with_config(ServerConfig {
            shards: 1,
            tier_cache_capacity: 1,
        });
        let item = server.publish("x", &data, &config(16)).unwrap();
        let max = item.max_segments();
        let served: Vec<bool> = [1, max, 2, 3, 1, max, 3]
            .into_iter()
            .map(|width| server.request("x", width).unwrap().cache_hit)
            .collect();
        assert_eq!(served, [true, true, false, false, true, true, true]);
        let s = server.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (5, 2));
        assert_eq!(s.cache_evictions, 1, "only width 3 evicted width 2");
    }

    #[test]
    fn tier_cache_evicts_and_counts() {
        let data = sample(150_000);
        let server = ContentServer::with_config(ServerConfig {
            shards: 2,
            tier_cache_capacity: 2,
        });
        server.publish("x", &data, &config(64)).unwrap();
        for tier in [2u64, 4, 8, 16] {
            server.request("x", tier).unwrap();
        }
        let s = server.stats();
        assert_eq!(s.cache_misses, 4);
        assert_eq!(s.cache_evictions, 2, "capacity 2, four distinct tiers");
        // Tier 2 was evicted; re-requesting it is a miss again.
        let again = server.request("x", 2).unwrap();
        assert!(!again.cache_hit);
    }

    #[test]
    fn duplicate_publish_is_rejected_and_preserves_original() {
        let data = sample(50_000);
        let server = small_server();
        server.publish("x", &data, &config(16)).unwrap();
        let before = server.get("x").unwrap().metadata().num_segments();
        let err = match server.publish("x", &data, &config(4)) {
            Err(e) => e,
            Ok(_) => panic!("duplicate publish must be rejected"),
        };
        assert!(matches!(err, RecoilError::AlreadyPublished { ref name } if name == "x"));
        assert_eq!(server.get("x").unwrap().metadata().num_segments(), before);
        assert_eq!(server.stats().publishes, 1, "failed publish not counted");
        // After unpublishing, the name is free again.
        assert!(server.unpublish("x"));
        server.publish("x", &data, &config(4)).unwrap();
        assert_eq!(server.len(), 1);
    }

    #[test]
    fn an_inserted_container_is_stored_as_encoded_under_the_same_claim() {
        let data = sample(60_000);
        let encoded = Codec::from_config(config(16))
            .unwrap()
            .encode(&data)
            .unwrap();
        let server = small_server();
        let words_crc = crc32(encoded.container.stream.words.as_bytes());
        let item = server
            .insert(
                "x",
                encoded.container.clone(),
                encoded.model.clone(),
                words_crc,
            )
            .unwrap();
        assert_eq!(item.payload_crc32(), words_crc);
        assert_eq!(*item.stream, encoded.container.stream);
        assert_eq!(item.metadata(), &encoded.container.metadata);
        assert_eq!(item.model.table(), encoded.model.table());
        // One name space for both paths, either way round.
        let taken = |r: Result<Arc<StoredContent>, RecoilError>, want: &str| matches!(r, Err(RecoilError::AlreadyPublished { ref name }) if name == want);
        assert!(taken(server.publish("x", &data, &config(16)), "x"));
        server.publish("y", &data, &config(16)).unwrap();
        assert!(taken(
            server.insert("y", encoded.container, encoded.model, words_crc),
            "y"
        ));
        assert_eq!(server.stats().publishes, 2);
    }

    #[test]
    fn failed_publish_releases_the_inflight_claim() {
        // An in-flight claim must not leak when the encode errors out, or
        // the name would be poisoned forever.
        let data = sample(10_000);
        let server = small_server();
        let bad = EncoderConfig {
            quant_bits: 0,
            ..EncoderConfig::default()
        };
        assert!(server.publish("x", &data, &bad).is_err());
        server.publish("x", &data, &config(8)).unwrap();
        assert!(server.get("x").is_some());
    }

    #[test]
    fn a_panic_under_a_store_lock_fails_no_later_call() {
        let data = sample(20_000);
        let server = small_server();
        server.publish("x", &data, &config(8)).unwrap();
        // Poison x's shard and the in-flight set, as a panic inside either
        // critical section would.
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _shard = server.shard("x").write();
                let _claims = server.publishing.lock();
                panic!("poison the store's locks");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(server.shard("x").is_poisoned() && server.publishing.is_poisoned());
        assert_eq!(server.request("x", 4).unwrap().metadata().num_segments(), 4);
        assert!(server.publish("x", &data, &config(8)).is_err());
        server.publish("y", &data, &config(8)).unwrap();
        assert_eq!(server.len(), 2);
        assert!(server.unpublish("x"));
        assert!(server.get("x").is_none() && server.get("y").is_some());
    }

    #[test]
    fn invalid_publish_config_is_rejected() {
        let data = sample(10_000);
        let server = small_server();
        let bad = EncoderConfig {
            ways: 0,
            ..EncoderConfig::default()
        };
        assert!(matches!(
            server.publish("x", &data, &bad),
            Err(RecoilError::InvalidConfig { field: "ways", .. })
        ));
        assert!(server.get("x").is_none());
        assert!(server.is_empty());
    }

    #[test]
    fn zero_segment_request_is_invalid() {
        let data = sample(10_000);
        let server = small_server();
        server.publish("x", &data, &config(8)).unwrap();
        assert!(matches!(
            server.request("x", 0),
            Err(RecoilError::InvalidConfig {
                field: "parallel_segments",
                ..
            })
        ));
        // A rejected request is still a request, counted exactly once.
        let s = server.stats();
        assert_eq!((s.requests, s.cache_hits, s.cache_misses), (1, 0, 0));
    }

    #[test]
    fn combine_is_real_time() {
        // §3.3: "this process is very lightweight ... can be done in real
        // time by the content delivery server before data transmission".
        let data = sample(2_000_000);
        let server = small_server();
        server.publish("big", &data, &config(2176)).unwrap();
        let t = server.request("big", 16).unwrap();
        assert!(
            t.combine_nanos < 50_000_000,
            "combine took {} ns — not real-time",
            t.combine_nanos
        );
    }

    #[test]
    fn unknown_content_is_not_found() {
        let server = small_server();
        assert!(matches!(
            server.request("nope", 4),
            Err(RecoilError::NotFound { ref name }) if name == "nope"
        ));
    }

    #[test]
    fn fetch_is_atomic_across_unpublish() {
        let data = sample(80_000);
        let server = small_server();
        server.publish("x", &data, &config(16)).unwrap();
        // The returned handles survive an unpublish that lands immediately
        // after — the hazard the two-call request+get flow had.
        let (t, item) = server.fetch("x", 4).unwrap();
        assert!(server.unpublish("x"));
        assert!(server.get("x").is_none(), "name is gone from the store");
        assert_eq!(t.metadata().num_segments(), 4);
        assert_eq!(item.max_segments(), 16);
        assert_eq!(t.stream_bytes, item.stream.payload_bytes());
        // And fetching the now-unpublished name is a clean NotFound.
        assert!(matches!(
            server.fetch("x", 4),
            Err(RecoilError::NotFound { .. })
        ));
    }

    #[test]
    fn a_stored_stream_pins_no_more_than_its_words() {
        // The encoder reserves output a block of groups at a time and the
        // store grows by doubling; what a publish stores for the item's
        // lifetime must not keep that slack.
        let data = sample(300_000);
        let server = small_server();
        let stored = server.publish("x", &data, &config(16)).unwrap();
        let words = &stored.stream.words;
        let block = recoil_rans::fast_encode::BLOCK_GROUPS * recoil_rans::FAST_GROUP;
        assert!(
            words.capacity() <= words.len() + block,
            "{} words stored in a capacity of {}",
            words.len(),
            words.capacity()
        );
    }

    #[test]
    fn bytes_served_is_tracked() {
        let data = sample(90_000);
        let server = small_server();
        server.publish("x", &data, &config(8)).unwrap();
        assert_eq!(server.stats().bytes_served, 0);
        let a = server.request("x", 2).unwrap();
        let b = server.request("x", 8).unwrap();
        let c = server.request("x", 2).unwrap(); // cache hit counts too
        assert!(c.cache_hit);
        assert_eq!(
            server.stats().bytes_served,
            a.total_bytes() + b.total_bytes() + c.total_bytes()
        );
        // Failed requests serve no bytes.
        let before = server.stats().bytes_served;
        assert!(server.request("missing", 2).is_err());
        assert_eq!(server.stats().bytes_served, before);
    }

    #[test]
    fn payload_crc_is_memoized_and_matches_streaming() {
        let server = small_server();
        let mut word_counts = Vec::new();
        for (i, len) in [70_000usize, 12_345, 0].into_iter().enumerate() {
            let item = server
                .publish(&format!("x{i}"), &sample(len), &config(8))
                .unwrap();
            word_counts.push(item.stream.words.len());
            // Reference: one streaming pass over every word's LE bytes.
            let mut state = 0xFFFF_FFFFu32;
            for w in item.stream.words.iter() {
                state = recoil_core::update_crc32(state, &w.to_le_bytes());
            }
            let expect = state ^ 0xFFFF_FFFF;
            assert_eq!(item.payload_crc32(), expect, "{len} bytes");
            // Memoized: the second call returns the same value.
            assert_eq!(item.payload_crc32(), expect);
        }
        // The inputs cover a scratch-sized multiple-block stream, a word
        // count that ends inside a 16-byte CRC block, and no words at all
        // (the CRC of nothing is 0).
        assert!(word_counts[0] > 4096);
        assert!(word_counts.iter().any(|n| n % 8 != 0), "{word_counts:?}");
        assert_eq!(word_counts[2], 0);
        assert_eq!(server.get("x2").unwrap().payload_crc32(), 0);
    }

    #[test]
    fn concurrent_publish_and_request_stress() {
        let data = sample(60_000);
        let server = ContentServer::with_config(ServerConfig {
            shards: 8,
            tier_cache_capacity: 4,
        });
        for i in 0..3 {
            server
                .publish(&format!("seed{i}"), &data, &config(32))
                .unwrap();
        }
        let ok_count = AtomicU64::new(0);
        let issued = AtomicU64::new(0);
        std::thread::scope(|s| {
            // Publishers: new names (some raced duplicates) mid-traffic.
            for p in 0..2 {
                let server = &server;
                let data = &data;
                s.spawn(move || {
                    for i in 0..3 {
                        // Both publishers try "shared{i}": exactly one wins.
                        let _ = server.publish(&format!("shared{i}"), data, &config(16));
                        server
                            .publish(&format!("pub{p}_{i}"), data, &config(16))
                            .unwrap();
                    }
                });
            }
            // Readers: skewed tier mix across seeded + appearing items.
            for r in 0..4usize {
                let server = &server;
                let ok_count = &ok_count;
                let issued = &issued;
                s.spawn(move || {
                    let tiers = [8u64, 8, 8, 4, 16, 1, 500];
                    for i in 0..120 {
                        let name = match (r + i) % 5 {
                            0 => "seed0".to_string(),
                            1 => "seed1".to_string(),
                            2 => "seed2".to_string(),
                            3 => format!("shared{}", i % 3),
                            _ => format!("pub{}_{}", r % 2, i % 3),
                        };
                        issued.fetch_add(1, Ordering::Relaxed);
                        match server.request(&name, tiers[i % tiers.len()]) {
                            Ok(t) => {
                                assert!(t.metadata().num_segments() <= 32);
                                ok_count.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(RecoilError::NotFound { .. }) => {} // not yet published
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });
        let s = server.stats();
        let ok = ok_count.load(Ordering::Relaxed);
        assert_eq!(s.requests, issued.load(Ordering::Relaxed));
        assert_eq!(
            s.cache_hits + s.cache_misses,
            ok,
            "every served request is exactly one hit or one miss"
        );
        assert!(s.cache_hits > 0, "skewed mix must produce hits");
        // 3 seeds + 3 shared (single winner each) + 2×3 per-publisher names.
        assert_eq!(s.publishes, 12);
        assert_eq!(server.len(), 12);
    }
}
