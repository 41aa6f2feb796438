//! Every name the ladder prints: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root lists the same names;
//! a unit test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The five rungs, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "codec_bulk",
        "8 MB through models/rans/simd/core on one thread, no server or socket: kernel and facade work shows only here",
    ),
    (
        "serve_churn",
        "in-process ContentServer, 32 items x 8 widths over a 4-tier cache with a republish every 256th op: ~40% of reads run a real-time combine",
    ),
    (
        "net_small",
        "one cached 4 KB item over loopback from 2 pipelined raw connections: the reactor is saturated and per-message cost dominates",
    ),
    (
        "net_stream",
        "one client streaming a 4 MB item at width 2 over loopback: the client's view, bytes and decode dominate",
    ),
    (
        "fabric_failover",
        "2-node fabric whose serving node is killed mid-stream each iteration: only router, retry and RESUME work moves it",
    ),
];

/// What a user of the rung waits on or pays for. Every workload reports
/// every one of these; the README says what the "op" of each workload is.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("size_pct", "%", Lower, 0.01),
];

/// The end-to-end metric (higher is better) whose untraced median over its
/// traced median gives `bench.trace_overhead_pct`.
pub const HEADLINE: &str = "ops_per_s";

/// Single-layer readings, timed from outside around public calls or read
/// from public stats. A metric reads 0 on a workload that never makes the
/// call it measures.
pub const PER_LAYER: [Metric; 66] = [
    // codec_bulk
    layer("models.build_ms", "ms", Lower),
    layer("rans.encode_mb_s", "MB/s", Higher),
    layer("rans.decode_mb_s", "MB/s", Higher),
    layer("rans.words_per_ksym", "count", Lower),
    layer("core.encode_mb_s", "MB/s", Higher),
    layer("core.encode_facade_ratio", "ratio", Higher),
    layer("core.decode_facade_ratio", "ratio", Higher),
    layer("core.decode_scalar_mb_s", "MB/s", Higher),
    layer("core.combine_us_w1", "us", Lower),
    layer("core.combine_us_w2", "us", Lower),
    layer("core.combine_us_w16", "us", Lower),
    layer("core.metadata_bytes_w1", "count", Lower),
    layer("core.metadata_bytes_w2", "count", Lower),
    layer("core.metadata_bytes_w16", "count", Lower),
    layer("core.metadata_bytes_w256", "count", Lower),
    layer("core.metadata_parse_us", "us", Lower),
    layer("core.incremental_mb_s", "MB/s", Higher),
    layer("simd.speedup_over_scalar", "ratio", Higher),
    layer("parallel.decode_speedup", "ratio", Higher),
    // serve_churn
    layer("server.hit_ratio", "ratio", Higher),
    layer("server.evictions", "count", Lower),
    layer("server.hit_us_p50", "us", Lower),
    layer("server.miss_us_p50", "us", Lower),
    layer("server.miss_us_p99", "us", Lower),
    layer("server.miss_time_share", "ratio", Lower),
    layer("server.publish_ms_p50", "ms", Lower),
    layer("server.unpublish_us_p50", "us", Lower),
    // net_small
    layer("net.burst_ms_p50", "ms", Lower),
    layer("net.burst_ms_p99", "ms", Lower),
    layer("net.bytes_per_req", "count", Lower),
    layer("telemetry.counters_overhead_pct", "%", Lower),
    layer("telemetry.hist_record_ns", "ns", Lower),
    // every workload with a socket
    layer("net.rejected", "count", Lower),
    layer("net.evicted", "count", Lower),
    layer("net.connect_us_p50", "us", Lower),
    layer("net.publish_ms_p50", "ms", Lower),
    // net_stream
    layer("net.ttfs_ms_p50", "ms", Lower),
    layer("net.transfer_ms_p50", "ms", Lower),
    layer("net.decode_tail_ms_p50", "ms", Lower),
    layer("net.buffered_ms_p50", "ms", Lower),
    layer("net.chunks_per_fetch", "count", Lower),
    layer("net.ttfs_ms_w16_p50", "ms", Lower),
    layer("net.ttfs_ms_w256_p50", "ms", Lower),
    layer("net.fetch_ms_w1_p50", "ms", Lower),
    layer("net.fetch_ms_p90", "ms", Lower),
    layer("net.fetch_ms.p99", "ms", Lower),
    layer("net.goodput_mb_s", "MB/s", Higher),
    // fabric_failover
    layer("fabric.failover_ms_p90", "ms", Lower),
    layer("fabric.clean_fetch_ms_p50", "ms", Lower),
    layer("fabric.clean_fetch_ms_p90", "ms", Lower),
    layer("fabric.ttfs_ms_p50", "ms", Lower),
    layer("fabric.router_overhead_ms", "ms", Lower),
    layer("fabric.failover_extra_ms_p50", "ms", Lower),
    layer("fabric.resent_bytes", "count", Lower),
    layer("fabric.attempts_per_fetch", "count", Lower),
    layer("fabric.node_launch_ms_p50", "ms", Lower),
    layer("fabric.publish_ms_p50", "ms", Lower),
    // every workload, from the traced trials
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("models.busy_pct", "%", Lower),
    layer("rans.busy_pct", "%", Lower),
    layer("core.busy_pct", "%", Lower),
    layer("simd.busy_pct", "%", Lower),
    layer("server.busy_pct", "%", Lower),
    layer("net.busy_pct", "%", Lower),
    layer("fabric.busy_pct", "%", Lower),
    layer("bench.busy_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative to this file so the test reads the same manifest whether
    /// the ladder is built as `recoil-bench`'s bin or as its own package.
    const MANIFEST: &str = include_str!("../../../../../BENCHMARK.json");

    /// The `"name"` strings inside the top-level array called `key`.
    fn names_in(key: &str) -> Vec<String> {
        let at = MANIFEST
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
        let body = &MANIFEST[at..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let open = rest.find('"').expect("name value opens") + 1;
                let len = rest[open..].find('"').expect("name value closes");
                rest[open..open + len].to_string()
            })
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(well_formed(name), "`{name}` breaks [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
    }

    #[test]
    fn catalogue_agrees_with_benchmark_json() {
        let ours = |names: &mut dyn Iterator<Item = &'static str>| -> Vec<String> {
            names.map(str::to_string).collect()
        };
        assert_eq!(
            names_in("workloads"),
            ours(&mut WORKLOADS.iter().map(|w| w.0))
        );
        assert_eq!(
            names_in("end_to_end"),
            ours(&mut END_TO_END.iter().map(|m| m.name))
        );
        assert_eq!(
            names_in("per_layer"),
            ours(&mut PER_LAYER.iter().map(|m| m.name))
        );
    }

    #[test]
    fn bounds_and_whys_fit_the_manifest_limits() {
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        let headline = END_TO_END.iter().find(|m| m.name == HEADLINE);
        assert_eq!(headline.map(|m| m.better), Some(Higher));
    }
}
