//! Workload `fabric_failover`: the top rung. Each iteration launches a
//! fresh 2-node fabric whose primary carries a seeded mid-stream kill,
//! publishes one 1 MiB item to both nodes, and fetches it through the
//! router: the stream dies somewhere in its last three quarters and is
//! RESUMEd on the other node. A long-lived clean fabric holding the same
//! item gives the undisturbed fetch beside it.
//!
//! Op: the killed `FabricRouter::fetch`. Retries and rebalancing are off
//! (`retry_budget: 0`, `rebalance_interval: 0`) and the name is one whose
//! rendezvous primary is node 0, so every fetch starts on the node that
//! will die.

use crate::harness::{primary_readings, Check, Ctx, Reading, Trial};
use crate::netutil::{bind, refusal_readings};
use crate::stats::Samples;
use crate::trace::timed;
use recoil::fabric::{FabricFetch, FabricRouter, RouterConfig};
use recoil::net::{FaultPlan, NetClient, NetClientConfig, NetConfig};
use recoil::prelude::*;
use std::net::SocketAddr;
use std::time::Instant;

const ITEM_BYTES: usize = 1 << 20;
const ENTROPY_BITS: f64 = 5.1;
const CHUNK_BYTES: usize = 64 << 10;
const WIDTH: u64 = 2;

#[derive(Default)]
struct Series {
    failover: Samples,
    clean: Samples,
    clean_ttfs: Samples,
    direct: Samples,
    launch: Samples,
    publish: Samples,
    attempts: u64,
    resent_bytes: u64,
    delivered_bytes: u64,
}

fn node(fault_plan: Option<FaultPlan>) -> NetServerHandle {
    bind(NetConfig {
        workers: 2,
        chunk_bytes: CHUNK_BYTES,
        fault_plan,
        ..NetConfig::default()
    })
}

fn router(addrs: &[SocketAddr]) -> FabricRouter {
    FabricRouter::connect(
        addrs,
        RouterConfig {
            rebalance_interval: 0,
            client: NetClientConfig {
                retry_budget: 0,
                ..NetClientConfig::default()
            },
            ..RouterConfig::default()
        },
    )
    .expect("both nodes were just bound")
}

/// Checks a fabric fetch's bytes and how many failovers it took; returns
/// the bitstream bytes its nodes delivered between them.
fn verify(
    check: &mut Check,
    what: &str,
    fetched: &FabricFetch,
    data: &[u8],
    failovers: u32,
) -> u64 {
    check.also(fetched.data == data, || {
        format!("{what} decoded other bytes")
    });
    check.also(fetched.failovers == failovers, || {
        format!(
            "{what} took {} failovers, expected {failovers}",
            fetched.failovers
        )
    });
    fetched.attempts.iter().map(|a| a.chunk_bytes).sum()
}

pub fn trial(ctx: &mut Ctx) -> Trial {
    let t_setup = Instant::now();
    let mut check = Check::default();
    let data = recoil::data::text_like_bytes(ITEM_BYTES, ENTROPY_BITS, ctx.seed);
    let config = EncoderConfig::default();
    let clean_nodes = [node(None), node(None)];
    let clean_router = router(&[clean_nodes[0].addr(), clean_nodes[1].addr()]);
    let name = (0..256)
        .map(|k| format!("ladder-{k}"))
        .find(|n| clean_router.primary(n) == 0)
        .expect("some name lands on node 0");
    let publish_to = |addr: SocketAddr| {
        NetClient::connect(addr).and_then(|client| client.publish(&name, &data, &config))
    };
    let stream_bytes = publish_to(clean_nodes[0].addr())
        .expect("publishing a fresh name")
        .stream_bytes;
    publish_to(clean_nodes[1].addr()).expect("publishing a fresh name");
    // The same node and item without the router, for its overhead.
    let direct = NetClient::connect(clean_nodes[0].addr())
        .expect("dialling a node just bound")
        .with_backend(AutoBackend::with_threads(ctx.nproc));
    let mut word_bytes = 0;
    for _ in 0..2 {
        if let Some(f) = check.ok("warm-up fetch", clean_router.fetch(&name, WIDTH)) {
            word_bytes = verify(&mut check, "warm-up fetch", &f, &data, 0);
        }
        let streamed = check.ok(
            "warm-up direct",
            direct.fetch_and_decode_streaming(&name, WIDTH),
        );
        check.also(streamed.is_some_and(|f| f.data == data), || {
            "the direct fetch decoded other bytes".into()
        });
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut s = Series::default();
    let tr = &mut ctx.tracer;
    let deadline = Instant::now() + ctx.budget;
    let mut n = 0u64;
    loop {
        n += 1;
        let op = (ctx.trial as u64) << 32 | n;
        let plan =
            FaultPlan::seeded_kill(ctx.seed.wrapping_add(op), stream_bytes / 4, stream_bytes);
        let ((killer, survivor, failing_router), ns) = timed(tr, "fabric.launch", op, || {
            let (killer, survivor) = (node(Some(plan)), node(None));
            let r = router(&[killer.addr(), survivor.addr()]);
            (killer, survivor, r)
        });
        s.launch.push(ns);
        for addr in [killer.addr(), survivor.addr()] {
            let (ok, ns) = timed(tr, "net.publish", op, || publish_to(addr));
            s.publish.push(ns);
            if let Some(ok) = check.ok("publish to a fabric node", ok) {
                check.also(ok.stream_bytes == stream_bytes, || {
                    "a node encoded the item to a different stream".into()
                });
            }
        }

        let (fetched, ns) = timed(tr, "fabric.fetch", op, || clean_router.fetch(&name, WIDTH));
        if let Some(f) = check.ok("clean fabric fetch", fetched) {
            s.clean.push(ns);
            s.clean_ttfs.push(f.first_segment_nanos);
            verify(&mut check, "the clean fetch", &f, &data, 0);
        }

        let (streamed, ns) = timed(tr, "net.fetch_and_decode_streaming", op, || {
            direct.fetch_and_decode_streaming(&name, WIDTH)
        });
        if let Some(f) = check.ok("direct fetch", streamed) {
            s.direct.push(ns);
            check.also(f.data == data, || {
                "the direct fetch decoded other bytes".into()
            });
        }

        let (fetched, ns) = timed(tr, "fabric.fetch_failover", op, || {
            failing_router.fetch(&name, WIDTH)
        });
        if let Some(f) = check.ok("fabric fetch across a node death", fetched) {
            s.failover.push(ns);
            let delivered = verify(&mut check, "the failed-over fetch", &f, &data, 1);
            s.attempts += f.attempts.len() as u64;
            s.delivered_bytes += delivered;
            s.resent_bytes += delivered.saturating_sub(word_bytes);
            check.also(delivered == word_bytes, || {
                format!("{delivered} bitstream bytes delivered for a {word_bytes}-byte stream")
            });
        }
        drop(failing_router);
        killer.shutdown();
        survivor.shutdown();
        if Instant::now() >= deadline {
            break;
        }
    }

    let killed = s.failover.len().max(1) as f64;
    let p50_ms = |samples: &mut Samples| samples.q(0.5) / 1e6;
    let (failover_p50, clean_p50) = (p50_ms(&mut s.failover), p50_ms(&mut s.clean));
    let mut readings = primary_readings(&mut s.failover).to_vec();
    readings.extend([
        Reading::exact("setup_s", setup_s),
        // Bitstream bytes summed over every node that served the fetch:
        // a resend after failover would show here as size.
        Reading::exact(
            "size_pct",
            100.0 * s.delivered_bytes as f64 / (killed * ITEM_BYTES as f64),
        ),
        Reading::quantile("fabric.failover_ms_p90", &mut s.failover, 0.9, 1e6),
        Reading::quantile("fabric.clean_fetch_ms_p50", &mut s.clean, 0.5, 1e6),
        Reading::quantile("fabric.clean_fetch_ms_p90", &mut s.clean, 0.9, 1e6),
        Reading::quantile("fabric.ttfs_ms_p50", &mut s.clean_ttfs, 0.5, 1e6),
        Reading::exact(
            "fabric.router_overhead_ms",
            clean_p50 - p50_ms(&mut s.direct),
        ),
        Reading::exact("fabric.failover_extra_ms_p50", failover_p50 - clean_p50),
        Reading::exact("fabric.resent_bytes", s.resent_bytes as f64),
        Reading::exact("fabric.attempts_per_fetch", s.attempts as f64 / killed),
        Reading::quantile("fabric.node_launch_ms_p50", &mut s.launch, 0.5, 1e6),
        Reading::quantile("fabric.publish_ms_p50", &mut s.publish, 0.5, 1e6),
    ]);
    readings.extend(refusal_readings(&mut check, clean_router.node_stats(0)));
    drop(clean_router);
    drop(direct);
    for node in clean_nodes {
        node.shutdown();
    }
    Trial {
        check,
        readings,
        payload_bytes: ITEM_BYTES as u64,
    }
}
