//! The lock-free ring-buffer event trace.
//!
//! A [`TraceRing`] keeps the last N pipeline events in fixed storage:
//! writers claim a monotonically increasing ticket with one `fetch_add`
//! and stamp the slot the ticket maps to under a per-slot seqlock
//! (odd sequence = write in progress). [`TraceRing::drain`] walks the
//! slots, discards anything torn or checksum-inconsistent, and returns
//! the surviving events in ticket order — so after a stall or an eviction
//! the last N reactor/decode events are inspectable without ever having
//! blocked the hot path.
//!
//! The trace is deliberately *lossy* under pathological contention: if two
//! writers race cap tickets apart onto the same slot, the checksum catches
//! the mix with overwhelming probability and the slot is dropped. Metrics
//! that must be exact belong in [`crate::Counter`]s, not the trace.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pipeline stages a [`TraceEvent`] can tag. One byte on the wire; bytes
/// 7–9 are retired (stages nothing recorded) and parse as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// A complete frame was parsed off a connection (detail: frame type byte).
    FrameRead = 1,
    /// A request was served inline on the reactor loop (detail: serve ns;
    /// sampled 1-in-32 at `Counters`, every frame at `Trace`).
    InlineServe = 2,
    /// A publish was queued for the dispatch pool (detail: queue depth
    /// after push).
    DispatchQueue = 3,
    /// A dispatch worker picked a publish up (detail: queue wait in ns).
    DispatchRun = 4,
    /// A published container was validated and stored on a worker
    /// (detail: ns from decoding the message to the stored item).
    Publish = 5,
    /// A tier-cache miss's combine finished on the reactor (detail:
    /// combine ns).
    Combine = 6,
    /// A connection's pending write burst fully flushed (detail: ns from
    /// entering the write phase to the last byte leaving the socket).
    WriteFlush = 10,
    /// A connection was evicted for missing a progress deadline.
    Evict = 11,
    /// A streaming fetch decoded its first segment (detail: ns since request).
    StreamFirstSegment = 12,
}

impl Stage {
    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => Self::FrameRead,
            2 => Self::InlineServe,
            3 => Self::DispatchQueue,
            4 => Self::DispatchRun,
            5 => Self::Publish,
            6 => Self::Combine,
            10 => Self::WriteFlush,
            11 => Self::Evict,
            12 => Self::StreamFirstSegment,
            _ => return None,
        })
    }

    /// Stable lowercase name for the text exposition.
    pub fn name(self) -> &'static str {
        match self {
            Self::FrameRead => "frame_read",
            Self::InlineServe => "inline_serve",
            Self::DispatchQueue => "dispatch_queue",
            Self::DispatchRun => "dispatch_run",
            Self::Publish => "publish",
            Self::Combine => "combine",
            Self::WriteFlush => "write_flush",
            Self::Evict => "evict",
            Self::StreamFirstSegment => "stream_first_segment",
        }
    }
}

/// One traced pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The connection's generation-checked slab token (0 when the event is
    /// not tied to a connection, e.g. a client's first streamed segment).
    pub conn_gen: u64,
    /// Which pipeline stage fired.
    pub stage: Stage,
    /// Nanoseconds since the owning [`crate::Telemetry`] was created.
    pub t_ns: u64,
    /// Stage-specific payload (see each [`Stage`] variant).
    pub detail: u64,
}

/// One ring slot: a seqlock word plus the event fields and a checksum.
#[derive(Debug, Default)]
struct Slot {
    /// 0 = empty; odd = write in progress; even `2t + 2` = ticket `t`
    /// published.
    seq: AtomicU64,
    t_ns: AtomicU64,
    conn_gen: AtomicU64,
    stage: AtomicU64,
    detail: AtomicU64,
    /// XOR of the published seq and every field — catches the mixed-fields
    /// case two colliding writers can leave behind.
    check: AtomicU64,
}

fn checksum(seq: u64, t_ns: u64, conn_gen: u64, stage: u64, detail: u64) -> u64 {
    seq ^ t_ns.rotate_left(1)
        ^ conn_gen.rotate_left(2)
        ^ stage.rotate_left(3)
        ^ detail.rotate_left(4)
}

/// Fixed-capacity multi-writer event ring. All methods take `&self`.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Slot>,
    /// Next ticket to claim; `ticket & mask` is the owning slot.
    cursor: AtomicU64,
    mask: u64,
}

impl TraceRing {
    /// A ring holding the last `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        Self {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            cursor: AtomicU64::new(0),
            mask: cap as u64 - 1,
        }
    }

    /// Events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (tickets issued).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records one event: claim a ticket, stamp the slot. Never blocks;
    /// overwrites the event `capacity` tickets older.
    pub fn record(&self, ev: TraceEvent) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let published = ticket.wrapping_mul(2).wrapping_add(2);
        // Seqlock write: go odd, stamp fields, publish even. Release on the
        // final store orders the field writes before the new seq for any
        // Acquire reader.
        slot.seq.store(published.wrapping_sub(1), Ordering::Release);
        slot.t_ns.store(ev.t_ns, Ordering::Relaxed);
        slot.conn_gen.store(ev.conn_gen, Ordering::Relaxed);
        slot.stage.store(ev.stage as u8 as u64, Ordering::Relaxed);
        slot.detail.store(ev.detail, Ordering::Relaxed);
        slot.check.store(
            checksum(
                published,
                ev.t_ns,
                ev.conn_gen,
                ev.stage as u8 as u64,
                ev.detail,
            ),
            Ordering::Relaxed,
        );
        slot.seq.store(published, Ordering::Release);
    }

    /// Drains every readable event in ticket order (oldest first), marking
    /// drained slots empty. Slots mid-write, torn, or checksum-mismatched
    /// are skipped — the trace is lossy by design, never blocking.
    ///
    /// Returns `(ticket, event)` pairs; gaps in the tickets show exactly
    /// how many events were overwritten or dropped.
    pub fn drain(&self) -> Vec<(u64, TraceEvent)> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 || seq % 2 == 1 {
                continue; // empty or mid-write
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let conn_gen = slot.conn_gen.load(Ordering::Relaxed);
            let stage = slot.stage.load(Ordering::Relaxed);
            let detail = slot.detail.load(Ordering::Relaxed);
            let check = slot.check.load(Ordering::Relaxed);
            // Re-read under Acquire: a writer that intervened bumped seq.
            if slot.seq.load(Ordering::Acquire) != seq {
                continue;
            }
            if checksum(seq, t_ns, conn_gen, stage, detail) != check {
                continue;
            }
            let Ok(stage_byte) = u8::try_from(stage) else {
                continue;
            };
            let Some(stage) = Stage::from_u8(stage_byte) else {
                continue;
            };
            // Consume: only if no writer raced past in the meantime.
            if slot
                .seq
                .compare_exchange(seq, 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let ticket = seq / 2 - 1;
                out.push((
                    ticket,
                    TraceEvent {
                        conn_gen,
                        stage,
                        t_ns,
                        detail,
                    },
                ));
            }
        }
        out.sort_unstable_by_key(|(ticket, _)| *ticket);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every stage, in byte order.
    fn stages() -> Vec<Stage> {
        (0..=u8::MAX).filter_map(Stage::from_u8).collect()
    }

    fn ev(i: u64) -> TraceEvent {
        let stages = stages();
        TraceEvent {
            conn_gen: i * 31,
            stage: stages[i as usize % stages.len()],
            t_ns: i * 1000,
            detail: i,
        }
    }

    #[test]
    fn wraparound_keeps_the_newest_events_in_order() {
        let ring = TraceRing::with_capacity(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20u64 {
            ring.record(ev(i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 8, "only the last capacity events survive");
        let tickets: Vec<u64> = drained.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, (12..20).collect::<Vec<u64>>());
        for (ticket, event) in drained {
            assert_eq!(event, ev(ticket), "slot content matches its ticket");
        }
        assert!(ring.drain().is_empty(), "drain consumes");
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn non_power_of_two_capacity_rounds_up() {
        let ring = TraceRing::with_capacity(100);
        assert_eq!(ring.capacity(), 128);
        let ring = TraceRing::with_capacity(0);
        assert_eq!(ring.capacity(), 2);
    }

    #[test]
    fn concurrent_writers_then_drain_sees_every_event_intact() {
        // No wraparound (4 * 64 = 256 <= 512), so no slot collisions: the
        // drain must see all events, each internally consistent.
        let ring = TraceRing::with_capacity(512);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..64u64 {
                        let id = t * 64 + i;
                        ring.record(TraceEvent {
                            conn_gen: id,
                            stage: Stage::Combine,
                            t_ns: id.wrapping_mul(7),
                            detail: id.wrapping_mul(13),
                        });
                    }
                });
            }
        });
        let drained = ring.drain();
        assert_eq!(drained.len(), 256);
        let mut seen = vec![false; 256];
        for (_, event) in drained {
            let id = event.conn_gen as usize;
            assert!(!seen[id], "event {id} drained twice");
            seen[id] = true;
            assert_eq!(event.t_ns, event.conn_gen.wrapping_mul(7), "torn t_ns");
            assert_eq!(event.detail, event.conn_gen.wrapping_mul(13), "torn detail");
        }
        assert!(seen.iter().all(|&s| s), "every event must survive");
    }

    #[test]
    fn drain_while_writers_race_returns_only_consistent_events() {
        // Writers hammer a tiny ring while a reader drains concurrently:
        // whatever comes out must be internally consistent (the seqlock +
        // checksum reject torn slots); losses are fine.
        let ring = TraceRing::with_capacity(8);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let id = t * 10_000 + i;
                        ring.record(TraceEvent {
                            conn_gen: id,
                            stage: Stage::FrameRead,
                            t_ns: id.wrapping_mul(3),
                            detail: id.wrapping_mul(5),
                        });
                    }
                });
            }
            let ring = &ring;
            s.spawn(move || {
                for _ in 0..200 {
                    for (_, event) in ring.drain() {
                        assert_eq!(event.t_ns, event.conn_gen.wrapping_mul(3));
                        assert_eq!(event.detail, event.conn_gen.wrapping_mul(5));
                    }
                }
            });
        });
    }

    #[test]
    fn stage_bytes_round_trip() {
        let stages = stages();
        let bytes: Vec<u8> = stages.iter().map(|&s| s as u8).collect();
        // Every stage keeps its byte; the retired 7–9 parse as unknown.
        assert_eq!(bytes, [1, 2, 3, 4, 5, 6, 10, 11, 12]);
        for stage in stages {
            assert_eq!(Stage::from_u8(stage as u8), Some(stage));
            assert!(!stage.name().is_empty());
        }
    }
}
