//! # recoil-telemetry — lock-free metrics and stage tracing
//!
//! Observability substrate for the recoil serve/decode pipeline. Everything
//! here is dependency-free, allocation-free on the record path, and safe
//! code (`#![forbid(unsafe_code)]`): the primitives sit inside the reactor
//! loop and the rANS decode hot loop, where a mutex or a malloc would show
//! up directly in the latency distributions they exist to measure.
//!
//! Three primitives, one handle:
//!
//! - [`Counter`] / [`Gauge`] — sharded relaxed-atomic counters (write-hot,
//!   read-cold) and single-publisher gauges.
//! - [`Histogram`] — fixed-size log2-bucketed latency histogram; `record(ns)`
//!   is a leading-zeros plus two relaxed adds (and, rarely, a max update),
//!   snapshots merge across threads and expose `p50/p90/p99/max`.
//! - [`TraceRing`] — a lock-free ring of [`TraceEvent`]s (per-connection
//!   generation, [`Stage`], timestamp, detail word) with a consuming
//!   [`TraceRing::drain`], so the last N pipeline events are inspectable
//!   after a stall or an eviction.
//!
//! The [`Telemetry`] handle bundles the pipeline's named instruments behind
//! a [`TelemetryLevel`]:
//!
//! - `Off` — every record call is a single branch on a `Copy` enum; no
//!   atomics are touched.
//! - `Counters` — counters, gauges, and histograms record; the trace ring
//!   stays silent.
//! - `Trace` — everything, including the event ring.
//!
//! Snapshots ([`Telemetry::snapshot`]) carry stable-ordered name/value
//! lists and render to a Prometheus-style text exposition via
//! [`TelemetrySnapshot::render_text`] — the same data the TELEMETRY wire
//! frame ships, so a client-side dump and a server-side dump line up.
//!
//! A handle holds only what its owner *records into it*. Facts that already
//! have a home elsewhere are not copied in: a net server appends its own
//! atomics (queue depth, open slots, active and rejected connections) and
//! its store's counters (`server_*`) to the snapshot when it serves one, so
//! a server's TELEMETRY reply carries every serving counter it has. Who
//! records which instrument is listed in `recoil-net`'s crate docs.
//!
//! Decode-engine counts (spans, fast-loop vs careful-tail symbols, words
//! consumed) are no exception: a decode returns them to its caller, and the
//! client that asked for the decode adds them to its own handle's
//! `decode_*` counters. A server never decodes, so its `decode_*` counters
//! stay zero.

#![forbid(unsafe_code)]

mod counter;
mod hist;
mod trace;

pub use counter::{Counter, Gauge};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use trace::{Stage, TraceEvent, TraceRing};

use std::time::Instant;

/// How much the pipeline records. Ordered: each level includes the ones
/// below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Nothing is recorded; every instrument call is one branch.
    #[default]
    Off,
    /// Counters, gauges, and histograms record.
    Counters,
    /// Everything, including the event trace ring.
    Trace,
}

impl TelemetryLevel {
    /// Wire byte for the TELEMETRY reply.
    pub fn byte(self) -> u8 {
        match self {
            Self::Off => 0,
            Self::Counters => 1,
            Self::Trace => 2,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => Self::Off,
            1 => Self::Counters,
            2 => Self::Trace,
            _ => return None,
        })
    }

    /// Stable lowercase name for expositions and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Counters => "counters",
            Self::Trace => "trace",
        }
    }
}

/// Event-count instruments, one per pipeline stage worth counting.
#[derive(Debug, Default)]
pub struct PipelineCounters {
    /// Complete frames parsed off connections by the reactor.
    pub frames_read: Counter,
    /// Payload + header bytes taken off the wire.
    pub bytes_read: Counter,
    /// Requests answered on the reactor thread without dispatch.
    pub inline_serves: Counter,
    /// Jobs handed to the dispatch pool: one per PUBLISH (the worker
    /// parses, validates and stores the container; nothing is encoded).
    pub dispatched_jobs: Counter,
    /// Times a connection's pending write buffer fully drained.
    pub write_flushes: Counter,
    /// Bytes pushed onto sockets.
    pub bytes_written: Counter,
    /// Connections evicted for missing a progress deadline. The one home of
    /// that fact (a net client's `stats()` reads it back as
    /// `evicted_connections`), so the reactor bumps it at every level —
    /// evicting is a cold path.
    pub evictions: Counter,
    /// Requests shed with a typed busy error (connection cap or a full
    /// dispatch queue) instead of being served.
    pub busy_rejections: Counter,
    /// Client/router side: fetches re-issued to a replica after the
    /// serving node died mid-stream.
    pub failovers: Counter,
    /// Client side: operation retries after a transport failure or a
    /// typed busy error (the first attempt is not a retry).
    pub retries: Counter,
    /// Router side: content names promoted onto additional replicas by
    /// hot-key tracking.
    pub replica_promotions: Counter,
    /// Client side: spans decoded (one per metadata segment).
    pub decode_spans: Counter,
    /// Client side: symbols decoded by a kernel's fast loop.
    pub decode_fast_symbols: Counter,
    /// Client side: symbols decoded by the bounds-checked careful tail.
    pub decode_careful_symbols: Counter,
    /// Client side: compressed u16 words the decodes consumed.
    pub decode_words_consumed: Counter,
}

/// Point-in-time values a handle's owner publishes into it. A net server's
/// own gauges (queue depth, open slots, active connections) are *not* here:
/// they live in the transport, which appends them to the snapshot it serves.
#[derive(Debug, Default)]
pub struct PipelineGauges {
    /// Router side: fabric nodes currently considered healthy (equals the
    /// node count when no failures have been observed).
    pub healthy_nodes: Gauge,
}

/// Latency / size distributions, one per measured stage.
#[derive(Debug, Default)]
pub struct PipelineHistograms {
    /// ns to serve a request inline on the reactor thread (sampled 1-in-32
    /// at [`TelemetryLevel::Counters`]; every request at `Trace`).
    pub inline_serve_ns: Histogram,
    /// ns a PUBLISH waited in the dispatch queue before a worker picked it
    /// up (publishes are the only dispatched work).
    pub dispatch_wait_ns: Histogram,
    /// ns a successful PUBLISH took on a dispatch worker: decoding the
    /// message, parsing and validating the container (the publisher
    /// encoded it) and storing the item (recorded by the worker, which
    /// times the parse and the store's `insert`).
    pub publish_ns: Histogram,
    /// ns a tier-cache miss's combine took, inline on the reactor thread
    /// (the store reports it with the transmission; the reactor records
    /// every miss at [`TelemetryLevel::Counters`]).
    pub combine_ns: Histogram,
    /// ns from a write becoming pending to the buffer fully flushing.
    pub write_flush_ns: Histogram,
    /// Segment count of requests that hit the tier cache (inline hits are
    /// sampled with their `inline_serve_ns` span: 1-in-32 at
    /// [`TelemetryLevel::Counters`], every hit at `Trace` — exact hit
    /// counts are the store's, `server_cache_hits` in a server's snapshot).
    pub tier_hit_segments: Histogram,
    /// Segment count of requests that missed and forced a combine.
    pub tier_miss_segments: Histogram,
    /// Client streaming: ns from request to first decoded segment.
    pub stream_first_segment_ns: Histogram,
    /// Client streaming: ns spent receiving/decoding the chunk stream.
    pub stream_transfer_ns: Histogram,
    /// Client streaming: ns for the whole fetch.
    pub stream_total_ns: Histogram,
}

/// Default trace-ring capacity: big enough to hold the full event history
/// of a burst, small enough to bound the TELEMETRY reply payload.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// The handle a server, client, or bench threads through its pipeline.
/// Construction fixes the level; instruments no-op below their level.
#[derive(Debug)]
pub struct Telemetry {
    level: TelemetryLevel,
    start: Instant,
    pub counters: PipelineCounters,
    pub gauges: PipelineGauges,
    pub hists: PipelineHistograms,
    trace: TraceRing,
}

impl Telemetry {
    pub fn new(level: TelemetryLevel) -> Self {
        Self {
            level,
            start: Instant::now(),
            counters: PipelineCounters::default(),
            gauges: PipelineGauges::default(),
            hists: PipelineHistograms::default(),
            trace: TraceRing::with_capacity(DEFAULT_TRACE_CAPACITY),
        }
    }

    /// A disabled handle — what `NetConfig::default()` threads through.
    pub fn off() -> Self {
        Self::new(TelemetryLevel::Off)
    }

    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether counters/gauges/histograms record. Call sites gate `Instant`
    /// reads on this so `Off` costs one branch, not a clock read.
    #[inline]
    pub fn counters_enabled(&self) -> bool {
        self.level >= TelemetryLevel::Counters
    }

    /// Whether [`Telemetry::trace`] records.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.level >= TelemetryLevel::Trace
    }

    /// Nanoseconds since this handle was created — the trace timebase.
    /// Saturates at `u64::MAX` (584 years of uptime).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a trace event if the level allows it. The timestamp is taken
    /// here so disabled tracing never reads the clock.
    #[inline]
    pub fn trace(&self, stage: Stage, conn_gen: u64, detail: u64) {
        if self.trace_enabled() {
            self.trace.record(TraceEvent {
                conn_gen,
                stage,
                t_ns: self.now_ns(),
                detail,
            });
        }
    }

    /// Consumes and returns the buffered trace events in ticket order.
    pub fn drain_trace(&self) -> Vec<(u64, TraceEvent)> {
        self.trace.drain()
    }

    /// Snapshots every instrument into stable-ordered name/value lists.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let c = &self.counters;
        let counters = vec![
            ("frames_read", c.frames_read.get()),
            ("bytes_read", c.bytes_read.get()),
            ("inline_serves", c.inline_serves.get()),
            ("dispatched_jobs", c.dispatched_jobs.get()),
            ("write_flushes", c.write_flushes.get()),
            ("bytes_written", c.bytes_written.get()),
            ("evictions", c.evictions.get()),
            ("busy_rejections", c.busy_rejections.get()),
            ("failovers", c.failovers.get()),
            ("retries", c.retries.get()),
            ("replica_promotions", c.replica_promotions.get()),
            ("decode_spans", c.decode_spans.get()),
            ("decode_fast_symbols", c.decode_fast_symbols.get()),
            ("decode_careful_symbols", c.decode_careful_symbols.get()),
            ("decode_words_consumed", c.decode_words_consumed.get()),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
        let gauges = vec![("healthy_nodes".to_string(), self.gauges.healthy_nodes.get())];
        let h = &self.hists;
        let hists = vec![
            ("inline_serve_ns", h.inline_serve_ns.snapshot()),
            ("dispatch_wait_ns", h.dispatch_wait_ns.snapshot()),
            ("publish_ns", h.publish_ns.snapshot()),
            ("combine_ns", h.combine_ns.snapshot()),
            ("write_flush_ns", h.write_flush_ns.snapshot()),
            ("tier_hit_segments", h.tier_hit_segments.snapshot()),
            ("tier_miss_segments", h.tier_miss_segments.snapshot()),
            (
                "stream_first_segment_ns",
                h.stream_first_segment_ns.snapshot(),
            ),
            ("stream_transfer_ns", h.stream_transfer_ns.snapshot()),
            ("stream_total_ns", h.stream_total_ns.snapshot()),
        ]
        .into_iter()
        .map(|(name, s)| (name.to_string(), s))
        .collect();
        TelemetrySnapshot {
            level: self.level,
            counters,
            gauges,
            hists,
        }
    }
}

/// Owned snapshot of a [`Telemetry`] handle — what the TELEMETRY wire frame
/// carries and what [`TelemetrySnapshot::render_text`] renders. Names are
/// part of the wire payload, so new instruments can appear without a frame
/// version bump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    pub level: TelemetryLevel,
    /// `(name, value)` in stable order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` in stable order.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` in stable order.
    pub hists: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// Looks a counter up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks a gauge up by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks a histogram up by name.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders a Prometheus-style text exposition: counters and gauges as
    /// single samples, histograms as cumulative `_bucket{le="..."}` series
    /// (non-empty buckets only, plus `+Inf`) with `_sum`/`_count` and a
    /// `p50/p90/p99/max` comment line per histogram.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# recoil telemetry (level={})", self.level.name());
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE recoil_{name} counter");
            let _ = writeln!(out, "recoil_{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE recoil_{name} gauge");
            let _ = writeln!(out, "recoil_{name} {v}");
        }
        for (name, h) in &self.hists {
            let _ = writeln!(out, "# TYPE recoil_{name} histogram");
            let _ = writeln!(
                out,
                "# recoil_{name}: p50={} p90={} p99={} max={}",
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            );
            let mut cumulative = 0u64;
            for (b, &n) in h.buckets.iter().enumerate() {
                cumulative = cumulative.wrapping_add(n);
                if n != 0 && b < BUCKETS - 1 {
                    let _ = writeln!(
                        out,
                        "recoil_{name}_bucket{{le=\"{}\"}} {cumulative}",
                        bucket_upper_bound(b)
                    );
                }
            }
            let _ = writeln!(out, "recoil_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "recoil_{name}_sum {}", h.sum);
            let _ = writeln!(out, "recoil_{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_round_trip() {
        assert!(TelemetryLevel::Off < TelemetryLevel::Counters);
        assert!(TelemetryLevel::Counters < TelemetryLevel::Trace);
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Counters,
            TelemetryLevel::Trace,
        ] {
            assert_eq!(TelemetryLevel::from_u8(level.byte()), Some(level));
        }
        assert_eq!(TelemetryLevel::from_u8(3), None);
        assert_eq!(TelemetryLevel::default(), TelemetryLevel::Off);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn off_handle_records_nothing_through_trace() {
        let t = Telemetry::off();
        assert!(!t.counters_enabled());
        assert!(!t.trace_enabled());
        t.trace(Stage::FrameRead, 1, 2);
        assert!(t.drain_trace().is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn trace_handle_records_and_drains_in_order() {
        let t = Telemetry::new(TelemetryLevel::Trace);
        assert!(t.counters_enabled() && t.trace_enabled());
        t.trace(Stage::FrameRead, 7, 100);
        t.trace(Stage::InlineServe, 7, 200);
        let events = t.drain_trace();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].1.stage, Stage::FrameRead);
        assert_eq!(events[1].1.stage, Stage::InlineServe);
        assert!(events[0].1.t_ns <= events[1].1.t_ns);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn snapshot_names_are_stable_and_lookups_work() {
        let t = Telemetry::new(TelemetryLevel::Counters);
        t.counters.frames_read.add(5);
        t.gauges.healthy_nodes.set(3);
        t.hists.inline_serve_ns.record(1500);
        let s = t.snapshot();
        assert_eq!(s.counter("frames_read"), Some(5));
        assert_eq!(s.gauge("healthy_nodes"), Some(3));
        assert_eq!(
            s.gauge("queue_depth"),
            None,
            "a transport's, not the handle's"
        );
        assert_eq!(s.hist("inline_serve_ns").unwrap().count, 1);
        assert_eq!(s.counter("no_such_counter"), None);
        // Every name a downstream consumer keys on must be present.
        for name in [
            "frames_read",
            "bytes_read",
            "inline_serves",
            "dispatched_jobs",
            "write_flushes",
            "bytes_written",
            "evictions",
            "busy_rejections",
            "failovers",
            "retries",
            "replica_promotions",
            "decode_spans",
            "decode_fast_symbols",
            "decode_careful_symbols",
            "decode_words_consumed",
        ] {
            assert!(s.counter(name).is_some(), "missing counter {name}");
        }
        for name in [
            "inline_serve_ns",
            "dispatch_wait_ns",
            "publish_ns",
            "combine_ns",
            "write_flush_ns",
            "tier_hit_segments",
            "tier_miss_segments",
            "stream_first_segment_ns",
            "stream_transfer_ns",
            "stream_total_ns",
        ] {
            assert!(s.hist(name).is_some(), "missing histogram {name}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn render_text_exposes_buckets_and_percentiles() {
        let t = Telemetry::new(TelemetryLevel::Counters);
        t.counters.inline_serves.add(2);
        t.hists.inline_serve_ns.record(1000);
        t.hists.inline_serve_ns.record(2000);
        let text = t.snapshot().render_text();
        assert!(text.contains("# TYPE recoil_inline_serves counter"));
        assert!(text.contains("recoil_inline_serves 2"));
        assert!(text.contains("# TYPE recoil_inline_serve_ns histogram"));
        assert!(text.contains("recoil_inline_serve_ns_count 2"));
        assert!(text.contains("recoil_inline_serve_ns_sum 3000"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("p50="));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn decode_counters_belong_to_the_handle_that_records_them() {
        let client = Telemetry::new(TelemetryLevel::Counters);
        let server = Telemetry::new(TelemetryLevel::Counters);
        client.counters.decode_spans.add(3);
        client.counters.decode_words_consumed.add(40);
        let (c, s) = (client.snapshot(), server.snapshot());
        assert_eq!(c.counter("decode_spans"), Some(3));
        assert_eq!(c.counter("decode_words_consumed"), Some(40));
        for name in [
            "decode_spans",
            "decode_fast_symbols",
            "decode_careful_symbols",
            "decode_words_consumed",
        ] {
            assert_eq!(
                s.counter(name),
                Some(0),
                "{name} leaked into another handle"
            );
        }
    }
}
