//! Fabric integration tests: real loopback clusters, rendezvous routing,
//! zipf promotion, node kills, and the telemetry a node's stats are read from.

use recoil_core::{EncoderConfig, RecoilError};
use recoil_fabric::{Fabric, FabricRouter, RouterConfig};
use recoil_net::{
    FaultPlan, NetClient, NetClientConfig, NetConfig, NetServer, BUSY_RETRY_AFTER_MS,
};
use recoil_server::ContentServer;
use recoil_telemetry::TelemetryLevel;
use std::sync::Arc;
use std::time::Duration;

fn sample(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
        .collect()
}

fn enc(max_segments: u64) -> EncoderConfig {
    EncoderConfig {
        max_segments,
        ..EncoderConfig::default()
    }
}

fn node_config() -> NetConfig {
    NetConfig {
        workers: 2,
        chunk_bytes: 16 * 1024,
        telemetry: TelemetryLevel::Counters,
        ..NetConfig::default()
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        replicas: 2,
        promote_min_hits: 3,
        rebalance_interval: 0, // manual passes keep the tests deterministic
        client: NetClientConfig {
            retry_budget: 1,
            retry_base_backoff: Duration::from_millis(2),
            ..NetClientConfig::default()
        },
        telemetry: TelemetryLevel::Counters,
    }
}

#[test]
fn publish_lands_on_the_rendezvous_primary_only() {
    let fabric = Fabric::launch(3, node_config()).unwrap();
    let router = FabricRouter::connect(&fabric.addrs(), router_config()).unwrap();
    let data = sample(60_000, 7);

    router.publish("solo", &data, &enc(8)).unwrap();
    let primary = router.primary("solo");
    for i in 0..fabric.len() {
        let items = router.node_stats(i).unwrap().items;
        assert_eq!(items, u64::from(i == primary), "node {i}");
    }

    let fetched = router.fetch("solo", 8).unwrap();
    assert_eq!(fetched.data, data);
    assert_eq!(fetched.failovers, 0);
    assert_eq!(fetched.attempts.len(), 1);
    assert_eq!(fetched.attempts[0].node, primary);
    assert!(fetched.first_segment_nanos > 0);
    assert!(fetched.total_nanos >= fetched.first_segment_nanos);
    fabric.shutdown();
}

#[test]
fn hot_content_promotes_and_survives_a_node_kill() {
    let mut fabric = Fabric::launch(3, node_config()).unwrap();
    let router = FabricRouter::connect(&fabric.addrs(), router_config()).unwrap();
    let data = sample(120_000, 11);

    router.publish("hot", &data, &enc(8)).unwrap();
    let primary = router.primary("hot");

    // Heat the name past the promotion threshold; a cold name stays
    // unreplicated, so promotion is demand-driven, not blanket.
    router.publish("cold", &sample(5_000, 3), &enc(4)).unwrap();
    for _ in 0..3 {
        assert_eq!(router.fetch("hot", 8).unwrap().data, data);
    }
    assert_eq!(router.rebalance(), 1);
    assert_eq!(router.holders("hot").len(), 2);
    assert_eq!(router.holders("cold").len(), 1);
    let replica = router.holders("hot")[1];
    assert_ne!(replica, primary);
    let replica_store = fabric.node(replica).unwrap().content();
    assert!(
        replica_store.get("hot").is_some(),
        "promotion copied the item"
    );
    assert_eq!(router.telemetry().counters.replica_promotions.get(), 1);

    // Kill the primary: the fetch fails over to the promoted replica and
    // the decoded bytes are identical to the pre-kill fetches.
    fabric.kill(primary);
    let fetched = router.fetch("hot", 8).unwrap();
    assert_eq!(fetched.data, data);
    let served_by = fetched.attempts.last().unwrap();
    assert_eq!(served_by.node, replica);
    assert!(served_by.completed);
    assert!(!fetched.attempts[0].completed);
    assert_eq!(router.healthy_nodes(), 2);
    assert_eq!(router.telemetry().gauges.healthy_nodes.get(), 2);

    // Subsequent fetches go straight to the replica: the dead node is
    // unhealthy and sorts last.
    let again = router.fetch("hot", 8).unwrap();
    assert_eq!(again.attempts.len(), 1);
    assert_eq!(again.attempts[0].node, replica);
    fabric.shutdown();
}

/// The replica on `replica` stores exactly what `holder` stores for
/// `name`: the stream, the model's frequencies, the full metadata and the
/// full tier's wire bytes.
fn assert_replica_is_its_holder(fabric: &Fabric, name: &str, holder: usize, replica: usize) {
    let stores = [holder, replica].map(|i| Arc::clone(fabric.node(i).unwrap().content()));
    let [held, copy] = stores.each_ref().map(|store| store.get(name).unwrap());
    // Words, final states and geometry.
    assert_eq!(copy.stream, held.stream);
    assert_eq!(copy.model.table(), held.model.table());
    assert_eq!(copy.metadata(), held.metadata());
    let [held_full, copy_full] = stores.map(|store| store.request(name, u64::MAX).unwrap());
    assert!(!held_full.metadata_bytes().is_empty());
    assert_eq!(copy_full.metadata_bytes(), held_full.metadata_bytes());
    // And over the wire: the replica's full-width fetch is the holder's,
    // byte for byte — item section and words, as a container.
    let [held_bytes, copy_bytes] = [holder, replica].map(|i| {
        NetClient::connect(fabric.node(i).unwrap().addr())
            .unwrap()
            .request(name, u64::MAX)
            .unwrap()
            .container_bytes()
    });
    assert_eq!(copy_bytes, held_bytes);
}

/// A replica is a byte copy of its holder: promotion fetches the holder's
/// container and publishes it as it is, so the replica's stream, model and
/// full tier are the holder's bytes.
#[test]
fn a_replica_stores_its_holders_bytes() {
    let fabric = Fabric::launch(3, node_config()).unwrap();
    let router = FabricRouter::connect(&fabric.addrs(), router_config()).unwrap();
    let data = sample(90_000, 5);
    router.publish("copied", &data, &enc(16)).unwrap();
    for _ in 0..3 {
        router.fetch("copied", 4).unwrap();
    }
    assert_eq!(router.rebalance(), 1);
    let holders = router.holders("copied");
    assert_eq!(holders.len(), 2);
    assert_replica_is_its_holder(&fabric, "copied", holders[0], holders[1]);
    fabric.shutdown();
}

/// A name published straight to a node — not through the router, so the
/// router never saw how it was encoded — is promoted like any other: the
/// replica is copied from the holder's bytes and serves after the holder
/// dies.
#[test]
fn a_name_published_straight_to_a_node_is_promoted() {
    let mut fabric = Fabric::launch(3, node_config()).unwrap();
    let router = FabricRouter::connect(&fabric.addrs(), router_config()).unwrap();
    let data = sample(70_000, 9);
    let primary = router.primary("direct");
    NetClient::connect(fabric.addr(primary))
        .unwrap()
        .publish("direct", &data, &enc(8))
        .unwrap();
    for _ in 0..3 {
        assert_eq!(router.fetch("direct", 8).unwrap().data, data);
    }
    assert_eq!(router.rebalance(), 1);
    let holders = router.holders("direct");
    assert_eq!(holders.len(), 2);
    assert_replica_is_its_holder(&fabric, "direct", primary, holders[1]);

    fabric.kill(primary);
    let fetched = router.fetch("direct", 8).unwrap();
    assert_eq!(fetched.data, data);
    assert_eq!(fetched.attempts.last().unwrap().node, holders[1]);
    fabric.shutdown();
}

/// A fetch heats its name only once it delivered: asking for a name no
/// node holds, however often, promotes nothing, and the pass after it sends
/// no node a request.
#[test]
fn fetches_of_a_missing_name_do_not_promote_it() {
    let fabric = Fabric::launch(3, node_config()).unwrap();
    let router = FabricRouter::connect(&fabric.addrs(), router_config()).unwrap();
    for _ in 0..router_config().promote_min_hits {
        assert!(matches!(
            router.fetch("nowhere", 8),
            Err(RecoilError::NotFound { .. })
        ));
    }
    let requests = || -> Vec<u64> {
        let stats = |addr| NetClient::connect(addr).unwrap().stats().unwrap();
        fabric
            .addrs()
            .into_iter()
            .map(|a| stats(a).stats.requests)
            .collect()
    };
    let before = requests();
    assert_eq!(router.rebalance(), 0);
    assert_eq!(requests(), before, "the pass asked a node for the name");
    assert_eq!(router.holders("nowhere").len(), 1);
    fabric.shutdown();
}

#[test]
fn publish_routes_around_a_dead_primary() {
    let mut fabric = Fabric::launch(3, node_config()).unwrap();
    let router = FabricRouter::connect(&fabric.addrs(), router_config()).unwrap();
    let data = sample(40_000, 23);

    let primary = router.primary("later");
    fabric.kill(primary);
    // Publish discovers the dead primary (dial fails → unhealthy) and
    // re-routes to the next rendezvous candidate in one call.
    router.publish("later", &data, &enc(4)).unwrap();
    assert_eq!(router.healthy_nodes(), 2);
    assert!(router.holders("later").len() >= 2);
    let fetched = router.fetch("later", 4).unwrap();
    assert_eq!(fetched.data, data);
    assert!(fetched.attempts.last().unwrap().completed);
    fabric.shutdown();
}

#[test]
fn router_survives_a_node_that_is_down_at_connect_time() {
    let mut fabric = Fabric::launch(2, node_config()).unwrap();
    let addrs = fabric.addrs();
    fabric.kill(0);
    let router = FabricRouter::connect(&addrs, router_config()).unwrap();
    assert_eq!(router.healthy_nodes(), 1);
    let data = sample(30_000, 5);
    router.publish("up", &data, &enc(4)).unwrap();
    assert_eq!(router.fetch("up", 4).unwrap().data, data);
    fabric.shutdown();
}

/// The new counters flow over the TELEMETRY wire frame, and its busy count
/// agrees with the rejections `NetClient::stats` reads out of it.
#[test]
fn telemetry_frame_agrees_with_stats_on_busy_rejections() {
    let fabric = Fabric::launch(
        1,
        NetConfig {
            max_connections: 2,
            ..node_config()
        },
    )
    .unwrap();
    let addr = fabric.addr(0);

    // Fill both slots with idle raw connections, then watch a client's
    // dial get shed with the typed busy error.
    let hold_a = std::net::TcpStream::connect(addr).unwrap();
    let hold_b = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let shed = NetClient::connect_with(
        addr,
        NetClientConfig {
            retry_budget: 0,
            ..NetClientConfig::default()
        },
    );
    match shed {
        Err(RecoilError::Busy { retry_after_ms }) => {
            assert_eq!(retry_after_ms, BUSY_RETRY_AFTER_MS)
        }
        other => panic!("expected a typed busy shed, got {other:?}"),
    }
    drop(hold_a);
    drop(hold_b);

    // The server frees the slots asynchronously; retry until it admits us.
    let client = (0..100)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            NetClient::connect(addr).ok()
        })
        .expect("server admits connections again after the holders close");

    let stats = client.stats().unwrap();
    let telemetry = client.remote_telemetry().unwrap();
    let busy = telemetry.snapshot.counter("busy_rejections").unwrap();
    assert!(busy >= 1);
    assert_eq!(busy, stats.stats.rejected_connections);

    // The fabric-era instrument names all round-trip the wire.
    for name in ["failovers", "retries", "replica_promotions"] {
        assert_eq!(telemetry.snapshot.counter(name), Some(0), "{name}");
    }
    assert_eq!(telemetry.snapshot.gauge("healthy_nodes"), Some(0));
    fabric.shutdown();
}

/// A node index the fabric does not have is an answer, not a panic:
/// `node_stats` refuses it as a typed config error naming `node`, and
/// `Fabric::node` has no handle for it.
#[test]
fn an_out_of_range_node_is_refused_not_a_panic() {
    let fabric = Fabric::launch(2, node_config()).unwrap();
    let router = FabricRouter::connect(&fabric.addrs(), router_config()).unwrap();
    for i in [2, usize::MAX] {
        match router.node_stats(i) {
            Err(RecoilError::InvalidConfig { field, .. }) => assert_eq!(field, "node"),
            other => panic!("node {i}: {other:?}"),
        }
        assert!(fabric.node(i).is_none(), "node {i}");
    }
    assert!(fabric.node(1).is_some());
    assert_eq!(router.node_stats(1).unwrap().items, 0);
    fabric.shutdown();
}

/// Router-side counters: failovers and retries aggregate fleet-wide in
/// the router's shared telemetry handle.
#[test]
fn router_telemetry_counts_failovers_and_retries() {
    let mut fabric = Fabric::launch(2, node_config()).unwrap();
    let router = FabricRouter::connect(&fabric.addrs(), router_config()).unwrap();
    let data = sample(50_000, 31);
    router.publish("counted", &data, &enc(4)).unwrap();
    let holder = router.holders("counted")[0];
    let other = 1 - holder;

    // Replicate manually (via heat + rebalance) so the kill leaves a
    // serving copy.
    for _ in 0..3 {
        router.fetch("counted", 4).unwrap();
    }
    assert_eq!(router.rebalance(), 1);
    fabric.kill(holder);

    let fetched = router.fetch("counted", 4).unwrap();
    assert_eq!(fetched.data, data);
    assert_eq!(fetched.attempts.last().unwrap().node, other);
    assert_eq!(router.healthy_nodes(), 1);
    assert_eq!(router.telemetry().gauges.healthy_nodes.get(), 1);

    // An idempotent call against the dead node spends the client retry
    // budget, and those retries land in the router's shared counters.
    assert!(router.node_stats(holder).is_err());
    assert!(router.telemetry().counters.retries.get() >= 1);
    fabric.shutdown();
}

/// A router fetch runs the same pipeline as the direct client's streaming
/// fetch, so it feeds the same three latency histograms — on a clean fetch
/// and on one that failed over mid-stream — and the numbers it reports in
/// [`recoil_fabric::FabricFetch`] are the ones it recorded.
#[test]
fn router_fetches_record_the_streaming_histograms() {
    let bind = |fault_plan| {
        let config = NetConfig {
            fault_plan,
            ..node_config()
        };
        NetServer::bind(Arc::new(ContentServer::new()), "127.0.0.1:0", config).unwrap()
    };
    // Node 0 severs every connection 40 000 response bytes in — mid-stream
    // for this item; node 1 is clean. Both hold byte-identical copies.
    let (killer, clean) = (bind(Some(FaultPlan::kill_at(40_000))), bind(None));
    let router = FabricRouter::connect(&[killer.addr(), clean.addr()], router_config()).unwrap();
    let data = sample(120_000, 17);
    let name_on = |node: usize| {
        let name = (0..256)
            .map(|k| format!("timed-{k}"))
            .find(|n| router.primary(n) == node)
            .expect("some name lands on each node");
        for handle in [&killer, &clean] {
            let publisher = NetClient::connect(handle.addr()).unwrap();
            publisher.publish(&name, &data, &enc(8)).unwrap();
        }
        name
    };

    let hists = &router.telemetry().hists;
    let totals = || {
        [
            hists.stream_first_segment_ns.snapshot(),
            hists.stream_transfer_ns.snapshot(),
            hists.stream_total_ns.snapshot(),
        ]
        .map(|h| (h.count, h.sum))
    };
    for (node, failovers) in [(1, 0), (0, 1)] {
        let name = name_on(node);
        let before = totals();
        let fetched = router.fetch(&name, 8).unwrap();
        assert_eq!(fetched.data, data);
        assert_eq!(fetched.failovers, failovers);
        let moved: Vec<(u64, u64)> = totals()
            .iter()
            .zip(before)
            .map(|(after, before)| (after.0 - before.0, after.1 - before.1))
            .collect();
        let [first, transfer, total] = moved[..] else {
            unreachable!("three histograms")
        };
        assert_eq!(first, (1, fetched.first_segment_nanos), "node {node}");
        assert_eq!(total, (1, fetched.total_nanos), "node {node}");
        assert_eq!(transfer.0, 1, "node {node}");
        assert!(first.1 <= total.1 && transfer.1 <= total.1, "{moved:?}");
    }
    killer.shutdown();
    clean.shutdown();
}
