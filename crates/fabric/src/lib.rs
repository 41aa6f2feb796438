//! Multi-node content fabric: rendezvous routing, hot-content
//! replication, and typed failover with segment-resume streaming.
//!
//! The paper's serving story (§1, §3.3) is a single content server that
//! shrinks metadata per request. This crate scales that sideways without
//! touching the wire protocol: a [`Fabric`] launches N independent
//! [`recoil_net::NetServer`] nodes (real loopback sockets, nothing
//! shared), and a client-side [`FabricRouter`] decides which node holds
//! which name and what to do when one dies.
//!
//! ## Placement
//!
//! Names map to nodes by **rendezvous (highest-random-weight) hashing**:
//! every node gets a deterministic score per name and the argmax holds
//! the content. Adding or losing a node moves only the names whose argmax
//! changed — no ring rebuild, no shared directory service. The router
//! additionally tracks per-name hit counts; under zipf-like demand (the
//! realistic case for content delivery) the hot head of the distribution
//! is **promoted** onto extra replicas ([`RouterConfig::replicas`] total
//! holders) by copying bytes: the router fetches the holder's stream,
//! model and full metadata at full width (CRC-checked, not decoded) and
//! publishes that container on the target, which stores it as it is.
//! Nothing is re-encoded, so every replica serves its holder's stream by
//! construction — which is what makes cross-node resume sound — and any
//! name a node holds can be promoted, however it was published.
//!
//! ## Failover
//!
//! [`FabricRouter::fetch`] opens one [`recoil_net::FetchSession`] on the
//! best holder and drives it through the streaming decode pipeline a
//! direct client uses. If the node dies mid-stream (connection severed,
//! frame torn) the router marks it unhealthy, picks the next holder, and
//! resumes *the same session* there
//! ([`recoil_net::FetchSession::resume_on`]: RESUME at the exact word
//! offset already held) — decoded segments are never re-sent. The
//! session, not the router, owns the payload check (whole-stream CRC-32,
//! every node's TRANSMIT header agreeing with the first), so a failed-over
//! fetch is byte-identical to an undisturbed one or a typed error.
//! Recoil's split metadata is why this is nearly free: segment readiness
//! is a strict prefix of the word stream, so "how many words I have" is
//! the complete resume state.
//!
//! ## Chaos
//!
//! Failures are injected deterministically by the faulted node itself,
//! through its [`recoil_net::FaultPlan`]: seeded byte-exact kill offsets,
//! accept-RST, and delayed and torn writes. That one injector covers
//! every fault a client can observe — a torn, stalled, killed or reset
//! connection — so the chaos test suite and the ladder's
//! `fabric_failover` workload replay the same failures, and failover cost
//! is a tracked number, not an anecdote.

#![forbid(unsafe_code)]

mod cluster;
mod router;

pub use cluster::Fabric;
pub use router::{FabricFetch, FabricRouter, FetchAttempt, RouterConfig};
