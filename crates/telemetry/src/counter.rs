//! Sharded relaxed-atomic counters and plain gauges.
//!
//! A [`Counter`] spreads its increments over a small set of cache-line-
//! padded shards indexed by a per-thread ticket, so concurrent bumps from
//! a server's reactor loop and dispatch workers, or from the threads that
//! call one client handle, do not bounce one cache line between cores.
//! Decode threads bump nothing: `recoil-core` does not depend on this
//! crate, and a client records a decode's stats once, on the calling
//! thread, after the decode returned. Reads sum the shards — counters are
//! write-hot and read-cold (a read happens once per TELEMETRY snapshot).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shard count. Eight padded lines cover the thread counts this workspace
/// runs (one reactor loop + a handful of dispatch workers, or a handful of
/// threads fetching through one client) without bloating every counter to a
/// page.
const SHARDS: usize = 8;

/// One cache line per shard so two shards never share a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

/// Monotone counter: relaxed sharded `add`, summed on read.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [Shard; SHARDS],
}

/// Threads take a ticket once and keep hitting the same shard.
static NEXT_TICKET: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_INDEX: usize = NEXT_TICKET.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

impl Counter {
    pub const fn new() -> Self {
        Self {
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Adds `n` on this thread's shard (relaxed; never a read-modify-write
    /// on a contended line from more threads than collide on one shard).
    #[inline]
    pub fn add(&self, n: u64) {
        let idx = SHARD_INDEX.with(|s| *s);
        self.shards[idx].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Sum of every shard. Each shard is exact and monotone; the sum is a
    /// point-in-time snapshot, exact once writers quiesce.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A value that goes up *and* down, written by one publisher (the fabric
/// router's health tracker) and read by snapshots.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        c.add(2);
        assert_eq!(c.get(), 40_002);
    }

    #[test]
    fn gauge_goes_both_ways() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }
}
