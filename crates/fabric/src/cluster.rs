//! [`Fabric`]: a supervisor for N independent content-server nodes.
//!
//! Each node is a full [`NetServer`] on its own ephemeral loopback port
//! with its own [`ContentServer`] store — nothing is shared between
//! nodes, exactly like separate processes on separate hosts. The fabric
//! exists so tests and benches can stand a cluster up in one call and
//! kill member nodes abruptly mid-transfer.

use std::net::SocketAddr;
use std::sync::Arc;

use recoil_core::RecoilError;
use recoil_net::{NetConfig, NetServer, NetServerHandle};
use recoil_server::ContentServer;

/// A running cluster of [`NetServer`] nodes.
///
/// Killed nodes keep their slot (and address) so node indices stay
/// stable for the lifetime of the fabric — a router holding index `i`
/// keeps dialing the same dead port and gets connection-refused, exactly
/// like a crashed remote host.
pub struct Fabric {
    nodes: Vec<Option<NetServerHandle>>,
    addrs: Vec<SocketAddr>,
}

impl Fabric {
    /// Launches one node per config, each on an ephemeral loopback port
    /// with a fresh empty [`ContentServer`].
    pub fn launch_with(configs: Vec<NetConfig>) -> Result<Self, RecoilError> {
        if configs.is_empty() {
            return Err(RecoilError::config(
                "nodes",
                "a fabric needs at least one node",
            ));
        }
        let mut nodes = Vec::with_capacity(configs.len());
        let mut addrs = Vec::with_capacity(configs.len());
        for config in configs {
            let handle = NetServer::bind(Arc::new(ContentServer::new()), "127.0.0.1:0", config)?;
            addrs.push(handle.addr());
            nodes.push(Some(handle));
        }
        Ok(Self { nodes, addrs })
    }

    /// Launches `n` nodes sharing one config.
    pub fn launch(n: usize, config: NetConfig) -> Result<Self, RecoilError> {
        Self::launch_with(vec![config; n])
    }

    /// Number of node slots (live or killed).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the fabric has no node slots (never, post-launch).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The bound address of node `i` (stable even after a kill).
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    /// Every node address, in slot order — feed this to
    /// [`crate::FabricRouter::connect`].
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.addrs.clone()
    }

    /// The live handle for node `i`, if the fabric has one and it has not
    /// been killed.
    pub fn node(&self, i: usize) -> Option<&NetServerHandle> {
        self.nodes.get(i)?.as_ref()
    }

    /// Kills node `i` **abruptly**: open connections are severed without
    /// draining (in-flight transfers die mid-frame) and the port stops
    /// accepting. Idempotent. This is the failover trigger.
    pub fn kill(&mut self, i: usize) {
        if let Some(handle) = self.nodes[i].take() {
            handle.kill();
        }
    }

    /// Orderly shutdown of every remaining node.
    pub fn shutdown(mut self) {
        for node in self.nodes.iter_mut() {
            if let Some(handle) = node.take() {
                handle.shutdown();
            }
        }
    }
}
