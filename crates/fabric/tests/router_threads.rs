//! A router decodes every fetch with its own backend, so it starts one
//! decode pool however many nodes it holds clients for: a per-node
//! [`recoil_net::NetClient`] builds its default backend only when something
//! asks it to decode, and a router's clients never do.
//!
//! Linux only (`/proc/self/status`), and a binary of its own, so that no
//! other test starts or stops threads while this one counts them.

#![cfg(target_os = "linux")]

use recoil_core::backend::AutoBackend;
use recoil_core::EncoderConfig;
use recoil_fabric::{FabricRouter, RouterConfig};
use recoil_net::{NetConfig, NetServer};
use recoil_server::ContentServer;
use std::sync::Arc;

/// This process's thread count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_router_over_two_nodes_starts_one_decode_pool() {
    let nodes: Vec<_> = (0..2)
        .map(|_| {
            NetServer::bind(
                Arc::new(ContentServer::new()),
                "127.0.0.1:0",
                NetConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.addr()).collect();

    // One pool's workers, counted the same way: the backend a router (and
    // a client's default) builds over every available core.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let before = threads();
    let pool = AutoBackend::with_threads(cores);
    let one_pool = threads().saturating_sub(before);
    drop(pool);

    let before = threads();
    let router = FabricRouter::connect(&addrs, RouterConfig::default()).unwrap();
    let rise = threads().saturating_sub(before);
    assert!(
        rise <= one_pool,
        "a router over {} nodes started {rise} threads; one pool is {one_pool}",
        addrs.len()
    );

    // Publishing and fetching through it start none of the clients' pools.
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    router
        .publish("movie", &data, &EncoderConfig::default())
        .unwrap();
    assert_eq!(router.fetch("movie", 2).unwrap().data, data);
    let rise = threads().saturating_sub(before);
    assert!(
        rise <= one_pool,
        "{rise} threads after a fetch; one pool is {one_pool}"
    );

    drop(router);
    for node in nodes {
        node.shutdown();
    }
}
