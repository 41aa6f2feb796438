//! Per-content LRU cache of combined metadata tiers.
//!
//! Only combined tiers live here: keys `2..max` for an item encoded with
//! `max` segments. The two tiers that select nothing — the full tier (the
//! published metadata, which §3.3 serves with nothing eliminated) and the
//! one-segment tier (no split kept) — are built once at publish and held by
//! the item itself for its lifetime, so they never take a slot, never evict
//! a combined tier, and are never rebuilt.
//!
//! The server's real-time combine (§3.3) is lightweight but not free: a
//! miss walks the kept entries of the item's dense split table
//! (`recoil_core::WireSplits`, written once at publish), checks the two
//! difference series the selection changes, and writes the tier's wire
//! bytes — header, the two series, a copy of each kept split's stored body,
//! the CRC — into one allocation of the exact length. It reads no lane and
//! touches no reference count, and what it builds is plain data: the
//! bytes. Client capacities are heavily
//! clustered in practice (a handful of device classes), so each published
//! item carries a small LRU cache of the tiers it has actually served;
//! evicting one frees its bytes after the cache lock is released.
//!
//! The cache key is the **post-clamp** segment count — the tier actually
//! served, not the capacity the client asked for. A request at or past the
//! maximum (10 000 segments against content encoded with 128) is the full
//! tier's, a request for one segment the one-segment tier's, and neither
//! reaches this cache.

use crate::stats::{bump, StatsCounters};
use crate::unpoisoned;
use recoil_core::{metadata_from_bytes, RecoilMetadata};
use std::sync::{Arc, Mutex, OnceLock};

/// One ready-to-serve metadata tier — one an item holds or a combined one
/// from its cache: the wire bytes, shared by every response for this tier.
#[derive(Debug)]
pub struct ShrunkTier {
    /// The tier's segment count (post-clamp: `min(requested, available)`).
    pub segments: u64,
    /// Serialized metadata, what goes on the wire.
    pub metadata_bytes: Vec<u8>,
    /// The parsed tier, for in-process clients: the published metadata in
    /// a full tier, else parsed from `metadata_bytes` on first ask.
    metadata: OnceLock<RecoilMetadata>,
}

impl ShrunkTier {
    /// The tier of `segments` from its bytes, as
    /// `recoil_core::WireSplits::tier` returns them.
    pub(crate) fn new(segments: u64, metadata_bytes: Vec<u8>) -> Self {
        Self {
            segments,
            metadata_bytes,
            metadata: OnceLock::new(),
        }
    }

    /// An item's full tier: the published `metadata`, held parsed, and the
    /// bytes written for it.
    pub(crate) fn full(metadata: RecoilMetadata, wire: Vec<u8>) -> Self {
        let tier = Self::new(metadata.num_segments(), wire);
        Self {
            metadata: OnceLock::from(metadata),
            ..tier
        }
    }

    /// The tier's parsed metadata. A combined or one-segment tier parses
    /// its own bytes on the first call — what every remote decoder does —
    /// and keeps the result; serving it never does.
    ///
    /// # Panics
    ///
    /// If the bytes do not parse, which a tier written from a validated
    /// table cannot do.
    pub fn metadata(&self) -> &RecoilMetadata {
        self.metadata.get_or_init(|| {
            metadata_from_bytes(&self.metadata_bytes).expect("a served tier's bytes parse")
        })
    }
}

/// What a [`TierCache`] keys its entries by.
pub(crate) trait Tier {
    /// The tier's post-clamp segment count.
    fn segments(&self) -> u64;
}

impl Tier for ShrunkTier {
    fn segments(&self) -> u64 {
        self.segments
    }
}

/// A small LRU (most-recently-served first) of [`Tier`]s (the server's are
/// [`ShrunkTier`]s) keyed by their segment count.
///
/// Capacities are tiny (default 8) and entries are `Arc`-shared, so the
/// inner structure is a plain vector under a mutex: lookup is a short scan,
/// promotion a rotate — cheaper than any linked-list bookkeeping at this
/// size, and the lock is held only for the scan, never during a combine.
#[derive(Debug)]
pub(crate) struct TierCache<T> {
    capacity: usize,
    /// `(segments, tier)` pairs, most recently used first.
    tiers: Mutex<Vec<(u64, Arc<T>)>>,
}

impl<T: Tier> TierCache<T> {
    /// Cache holding at most `capacity` tiers (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tiers: Mutex::new(Vec::new()),
        }
    }

    /// Looks up `segments`, promoting the entry to most-recently-used.
    pub fn get(&self, segments: u64) -> Option<Arc<T>> {
        let mut tiers = unpoisoned(self.tiers.lock());
        let idx = tiers.iter().position(|(t, _)| *t == segments)?;
        // Promote: rotate the hit to the front, preserving relative order
        // of everything in between.
        tiers[..=idx].rotate_right(1);
        Some(Arc::clone(&tiers[0].1))
    }

    /// Inserts `tier` as most-recently-used, evicting the least recently
    /// used entry when full (and bumping `stats.cache_evictions`).
    ///
    /// Two threads can miss the same tier concurrently and both compute it
    /// (combining happens outside the cache lock on purpose); whichever
    /// insert lands second adopts the already-cached entry, so every caller
    /// ends up sharing one allocation. Returns the entry to serve.
    ///
    /// The evicted entry leaves the critical section alive and is dropped
    /// here after the unlock: tearing a tier down (its frees) must not
    /// stall the item's cache hits.
    pub fn insert(&self, tier: Arc<T>, stats: &StatsCounters) -> Arc<T> {
        let segments = tier.segments();
        let evicted = {
            let mut tiers = unpoisoned(self.tiers.lock());
            if let Some(idx) = tiers.iter().position(|(t, _)| *t == segments) {
                tiers[..=idx].rotate_right(1);
                return Arc::clone(&tiers[0].1);
            }
            let evicted = if tiers.len() == self.capacity {
                bump(&stats.cache_evictions);
                tiers.pop()
            } else {
                None
            };
            tiers.insert(0, (segments, Arc::clone(&tier)));
            evicted
        };
        drop(evicted);
        tier
    }

    /// Number of currently cached tiers.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        unpoisoned(self.tiers.lock()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Weak;

    /// The smallest tier: nothing but its key.
    impl Tier for u64 {
        fn segments(&self) -> u64 {
            *self
        }
    }

    fn insert(cache: &TierCache<u64>, segments: u64, stats: &StatsCounters) -> Arc<u64> {
        cache.insert(Arc::new(segments), stats)
    }

    #[test]
    fn lru_evicts_least_recently_served() {
        let stats = StatsCounters::default();
        let cache = TierCache::new(2);
        insert(&cache, 1, &stats);
        insert(&cache, 2, &stats);
        assert!(cache.get(1).is_some()); // 1 is now MRU
        insert(&cache, 3, &stats); // evicts 2
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(stats.snapshot().cache_evictions, 1);
    }

    #[test]
    fn racing_inserts_converge_on_one_entry() {
        let stats = StatsCounters::default();
        let cache = TierCache::new(4);
        let first = insert(&cache, 7, &stats);
        let second = insert(&cache, 7, &stats);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        assert_eq!(stats.snapshot().cache_evictions, 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let stats = StatsCounters::default();
        let cache = TierCache::new(0);
        insert(&cache, 1, &stats);
        assert!(cache.get(1).is_some());
        insert(&cache, 2, &stats);
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
    }

    /// A tier that, when dropped, notes whether its cache's lock was free.
    struct LockProbe {
        segments: u64,
        cache: Weak<TierCache<LockProbe>>,
        dropped_unlocked: Arc<AtomicU32>,
    }

    impl Tier for LockProbe {
        fn segments(&self) -> u64 {
            self.segments
        }
    }

    impl Drop for LockProbe {
        fn drop(&mut self) {
            // (`None` only for the entry the cache itself drops last.)
            if let Some(cache) = self.cache.upgrade() {
                if cache.tiers.try_lock().is_ok() {
                    self.dropped_unlocked.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    #[test]
    fn an_evicted_tier_is_dropped_after_the_lock_is_released() {
        let stats = StatsCounters::default();
        let cache = Arc::new(TierCache::new(1));
        let dropped_unlocked = Arc::new(AtomicU32::new(0));
        for segments in 1..=3 {
            let probe = LockProbe {
                segments,
                cache: Arc::downgrade(&cache),
                dropped_unlocked: Arc::clone(&dropped_unlocked),
            };
            cache.insert(Arc::new(probe), &stats);
        }
        assert_eq!(stats.snapshot().cache_evictions, 2);
        assert_eq!(
            dropped_unlocked.load(Ordering::Relaxed),
            2,
            "an eviction tore its tier down inside the cache lock"
        );
    }
}
