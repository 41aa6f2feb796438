//! Per-content cache of combined metadata tiers, evicting the tier that is
//! cheapest to rebuild.
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
//! item carries a small cache of the tiers it has actually served;
//! evicting one frees its bytes after the cache lock is released.
//!
//! What a miss pays is mostly that write, and it grows with the tier: ≈ 76
//! bytes per kept split. When clients ask evenly for more widths than the
//! cache holds, any rule misses about as often; what a miss costs depends on
//! which tier it rebuilds. So a full cache evicts by GreedyDual (Young
//! 1994) with each tier's byte length as its cost: the cheapest tier to
//! rebuild goes first, and each eviction
//! raises the bar every later one is measured against, so a costly tier
//! nobody asks for any more ages out.
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

/// What a [`TierCache`] keys and weighs its entries by.
pub(crate) trait Tier {
    /// The tier's post-clamp segment count.
    fn segments(&self) -> u64;
    /// What rebuilding the tier would write: its wire byte length.
    fn cost(&self) -> u64;
}

impl Tier for ShrunkTier {
    fn segments(&self) -> u64 {
        self.segments
    }

    fn cost(&self) -> u64 {
        self.metadata_bytes.len() as u64
    }
}

/// A small GreedyDual cache (Young 1994; weighted caching, uniform sizes)
/// of [`Tier`]s (the server's are [`ShrunkTier`]s) keyed by their segment
/// count: a miss rebuilds the evicted tier's bytes, so a full cache evicts
/// the tier that is cheapest to write again, aged by how long ago it was
/// served.
///
/// Each entry carries a priority `H = L + cost`, set on insert and on every
/// hit; a full cache evicts the lowest `H` (ties go to the least recently
/// served entry) and raises the inflation `L` to it. A costly tier nobody
/// asks for any more therefore goes once `L` has climbed past it. With
/// equal costs the rule is exactly LRU. No clock is read.
///
/// Capacities are tiny (default 8) and entries are `Arc`-shared, so the
/// inner structure is a plain vector under a mutex: lookup is a short scan,
/// promotion a rotate, eviction a scan for the lowest priority — cheaper
/// than any heap or linked-list bookkeeping at this size, and the lock is
/// held only for the scan, never during a combine.
#[derive(Debug)]
pub(crate) struct TierCache<T> {
    capacity: usize,
    tiers: Mutex<Entries<T>>,
}

/// A [`TierCache`]'s state under its lock.
#[derive(Debug)]
struct Entries<T> {
    /// GreedyDual's `L`: the priority of the last evicted entry.
    inflation: u64,
    /// Most recently served first.
    served: Vec<Entry<T>>,
}

#[derive(Debug)]
struct Entry<T> {
    segments: u64,
    /// `L + cost` when the tier was last served.
    priority: u64,
    tier: Arc<T>,
}

impl<T: Tier> Entries<T> {
    /// Serves `segments` if held: refreshes its priority and moves it to
    /// the front.
    fn serve(&mut self, segments: u64) -> Option<Arc<T>> {
        let idx = self.served.iter().position(|e| e.segments == segments)?;
        // Rotate the hit to the front, preserving the relative order of
        // everything in between.
        self.served[..=idx].rotate_right(1);
        let hit = &mut self.served[0];
        hit.priority = self.inflation.saturating_add(hit.tier.cost());
        Some(Arc::clone(&hit.tier))
    }

    /// Removes the lowest-priority entry, the least recently served of
    /// equals, and raises the inflation to its priority.
    fn evict(&mut self) -> Option<Arc<T>> {
        let (idx, _) = self
            .served
            .iter()
            .enumerate()
            .rev()
            .min_by_key(|(_, e)| e.priority)?;
        let evicted = self.served.remove(idx);
        self.inflation = evicted.priority;
        Some(evicted.tier)
    }
}

impl<T: Tier> TierCache<T> {
    /// Cache holding at most `capacity` tiers (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tiers: Mutex::new(Entries {
                inflation: 0,
                served: Vec::new(),
            }),
        }
    }

    /// Looks up `segments`, refreshing the entry's priority.
    pub fn get(&self, segments: u64) -> Option<Arc<T>> {
        unpoisoned(self.tiers.lock()).serve(segments)
    }

    /// Inserts `tier` at priority `L + cost`, evicting the lowest-priority
    /// entry when full (and bumping `stats.cache_evictions`).
    ///
    /// Two threads can miss the same tier concurrently and both compute it
    /// (combining happens outside the cache lock on purpose); whichever
    /// insert lands second adopts the already-cached entry, as a hit, so
    /// every caller ends up sharing one allocation. Returns the entry to
    /// serve.
    ///
    /// The evicted entry leaves the critical section alive and is dropped
    /// here after the unlock: tearing a tier down (its frees) must not
    /// stall the item's cache hits.
    pub fn insert(&self, tier: Arc<T>, stats: &StatsCounters) -> Arc<T> {
        let segments = tier.segments();
        let evicted = {
            let mut entries = unpoisoned(self.tiers.lock());
            if let Some(held) = entries.serve(segments) {
                return held;
            }
            let evicted = if entries.served.len() == self.capacity {
                bump(&stats.cache_evictions);
                entries.evict()
            } else {
                None
            };
            let priority = entries.inflation.saturating_add(tier.cost());
            entries.served.insert(
                0,
                Entry {
                    segments,
                    priority,
                    tier: Arc::clone(&tier),
                },
            );
            evicted
        };
        drop(evicted);
        tier
    }

    /// Number of currently cached tiers.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        unpoisoned(self.tiers.lock()).served.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Weak;

    /// The smallest tier: nothing but its key, at unit cost.
    impl Tier for u64 {
        fn segments(&self) -> u64 {
            *self
        }

        fn cost(&self) -> u64 {
            1
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

        fn cost(&self) -> u64 {
            1
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

    /// A tier of a given rebuild cost.
    struct Weighed {
        segments: u64,
        cost: u64,
    }

    impl Tier for Weighed {
        fn segments(&self) -> u64 {
            self.segments
        }

        fn cost(&self) -> u64 {
            self.cost
        }
    }

    /// Serves `segments` at `cost`, inserting it on a miss; whether it hit.
    fn serve(cache: &TierCache<Weighed>, segments: u64, cost: u64, stats: &StatsCounters) -> bool {
        if cache.get(segments).is_some() {
            return true;
        }
        cache.insert(Arc::new(Weighed { segments, cost }), stats);
        false
    }

    /// Misses and bytes rebuilt by a seeded uniform mix over the combined
    /// widths 4–64 of a 256-split item (their tier byte lengths below) at
    /// capacity 4, with the cache weighing each tier at `weigh(bytes)`.
    fn uniform_mix(weigh: impl Fn(u64) -> u64) -> (u64, u64) {
        const TIERS: [(u64, u64); 5] = [(4, 260), (8, 558), (16, 1165), (32, 2399), (64, 4855)];
        let stats = StatsCounters::default();
        let cache = TierCache::new(4);
        let (mut misses, mut rebuilt) = (0, 0);
        let mut state = 0x5e47e_u64;
        for _ in 0..20_000 {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ z >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ z >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
            let (segments, bytes) = TIERS[((z ^ z >> 31) % 5) as usize];
            if !serve(&cache, segments, weigh(bytes), &stats) {
                misses += 1;
                rebuilt += bytes;
            }
        }
        (misses, rebuilt)
    }

    #[test]
    fn a_uniform_mix_rebuilds_the_cheap_tiers() {
        // Five tiers share four slots, so every policy misses about one
        // request in five; the costs decide which tier the miss rebuilds.
        let (lru_misses, lru_rebuilt) = uniform_mix(|_| 1);
        let (misses, rebuilt) = uniform_mix(|bytes| bytes);
        assert!(
            rebuilt * 2 <= lru_rebuilt,
            "rebuilt {rebuilt} B against {lru_rebuilt} B at unit cost"
        );
        assert!(
            misses.abs_diff(lru_misses) * 20 <= lru_misses,
            "{misses} misses against {lru_misses} at unit cost"
        );
    }

    /// At capacity 2: serves a `costly` tier, then three cheap tiers in
    /// turn (each a miss), serving the costly one again after `hit_after`
    /// cheap misses if given; returns the cheap miss that evicted it.
    fn cheap_misses_to_evict(costly: u64, cheap: u64, hit_after: Option<u64>) -> u64 {
        let stats = StatsCounters::default();
        let cache = TierCache::new(2);
        let held = Arc::downgrade(&cache.insert(
            Arc::new(Weighed {
                segments: 0,
                cost: costly,
            }),
            &stats,
        ));
        for miss in 1..=1000 {
            assert!(!serve(&cache, 1 + miss % 3, cheap, &stats));
            if held.strong_count() == 0 {
                return miss;
            }
            if hit_after == Some(miss) {
                assert!(serve(&cache, 0, costly, &stats));
            }
        }
        panic!("the costly tier was never evicted");
    }

    #[test]
    fn an_unrequested_costly_tier_ages_out() {
        // Each cheap miss raises the inflation by one cheap cost, so the
        // costly tier goes once it has climbed past the costly one's
        // priority: bounded, but far later than LRU's second miss.
        assert_eq!(cheap_misses_to_evict(4855, 260, None), 4855 / 260 + 2);
        assert_eq!(cheap_misses_to_evict(1000, 100, None), 1000 / 100 + 1);
    }

    #[test]
    fn a_hit_refreshes_the_priority() {
        // Served again at inflation 800, the costly tier's priority is
        // 800 + 1000: it now outlives ten more cheap misses, not two.
        assert_eq!(cheap_misses_to_evict(1000, 100, Some(9)), 9 + 1000 / 100);
    }
}
