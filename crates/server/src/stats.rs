//! Serving-layer observability: lock-free counters and their snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal counter block; every field is bumped with relaxed atomics on
/// the hot path (no lock, no contention beyond the cache line).
#[derive(Debug, Default)]
pub(crate) struct StatsCounters {
    pub publishes: AtomicU64,
    /// Requests that returned an error; a served request is counted once,
    /// as its hit or its miss, so the request total is the sum.
    pub refused: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub cache_evictions: AtomicU64,
    pub bytes_served: AtomicU64,
}

impl StatsCounters {
    /// Point-in-time copy of every counter.
    ///
    /// Counters are read individually with relaxed ordering: under load the
    /// snapshot is not a single global instant, but each value is exact and
    /// monotone, and once the server quiesces the arithmetic invariants
    /// hold exactly (`cache_hits + cache_misses` = successfully served
    /// requests). `requests` is `refused + cache_hits + cache_misses`, so it
    /// is exact and monotone too.
    pub fn snapshot(&self) -> ServerStats {
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        ServerStats {
            publishes: self.publishes.load(Ordering::Relaxed),
            requests: self.refused.load(Ordering::Relaxed) + cache_hits + cache_misses,
            cache_hits,
            cache_misses,
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            bytes_served: self.bytes_served.load(Ordering::Relaxed),
            // The store has no transport; see the field docs.
            ..ServerStats::default()
        }
    }
}

/// Bumps one counter by one.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Adds `n` to one counter.
pub(crate) fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// A snapshot of the serving counters.
///
/// The first six fields are the store's own and are what
/// [`crate::ContentServer::stats`] fills. The last five describe a
/// transport: a store has none, so it reports them as zero, and
/// `recoil-net`'s server fills them from its own atomics when it answers a
/// TELEMETRY frame (two transports over one store each report their own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Successful content publications.
    pub publishes: u64,
    /// Total `request` calls, including ones that returned an error: each
    /// is counted once, when it returns (a served one as its hit or its
    /// miss).
    pub requests: u64,
    /// Requests served without a combine: from one of a content item's own
    /// tiers (the full tier at its encoded maximum, the one-segment tier)
    /// or from its cache of combined tiers.
    pub cache_hits: u64,
    /// Requests that had to write a combined tier's bytes on demand.
    pub cache_misses: u64,
    /// Cached combined tiers dropped to make room for newly served ones.
    pub cache_evictions: u64,
    /// Total response bytes served (bitstream payload + shrunk metadata)
    /// across every successful request, in-process or over a transport.
    pub bytes_served: u64,
    /// Transport: currently open connections.
    pub active_connections: u64,
    /// Transport: connections turned away at accept because the transport
    /// was at its connection capacity.
    pub rejected_connections: u64,
    /// Transport: connections evicted for missing a progress deadline
    /// (slow-loris peers, stalled writes).
    pub evicted_connections: u64,
    /// Transport gauge: publishes currently queued for the dispatch workers
    /// (a request never queues: the reactor serves it inline).
    pub queue_depth: u64,
    /// Transport gauge: connection slots still open in the slab.
    pub open_slots: u64,
}

impl ServerStats {
    /// Fraction of served requests answered without a combine
    /// (`0.0` when nothing has been served yet).
    pub fn hit_rate(&self) -> f64 {
        let served = self.cache_hits + self.cache_misses;
        if served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / served as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        assert_eq!(ServerStats::default().hit_rate(), 0.0);
        let s = ServerStats {
            cache_hits: 9,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn snapshot_copies_counters() {
        let c = StatsCounters::default();
        bump(&c.refused);
        bump(&c.cache_hits);
        add(&c.cache_misses, 2);
        let s = c.snapshot();
        assert_eq!(s.requests, 4, "a refusal, a hit and two misses");
        assert_eq!((s.cache_hits, s.cache_misses), (1, 2));
        assert_eq!(s.publishes, 0);
    }
}
