//! Content-delivery service (paper §1, §3.3).
//!
//! "We consider the use case where the client requests content, and also
//! attaches its parallel capacity inside the request header; the server
//! receives the request, shrinks down the metadata in real-time, and serves
//! the bitstream and the shrunk metadata to the decoder. No compression
//! rate is wasted to provide unnecessary parallelism."
//!
//! Each item is encoded **once**, at the maximum parallelism it is meant to
//! support (the Large variation). Every client request is served from that
//! single artifact: the bitstream bytes never change, only the metadata is
//! filtered. The store keeps what was encoded: an in-process caller either
//! hands it raw data ([`ContentServer::publish`], which encodes) or an
//! already-encoded container ([`ContentServer::insert`], which is how a
//! remote publish or a replica lands — nothing is re-encoded).
//!
//! ## Concurrency model
//!
//! [`ContentServer`] is built to be shared across request threads — every
//! method takes `&self`:
//!
//! * the item store is split over `N` shards (default 16), each an
//!   independent `RwLock<HashMap>` keyed by a hash of the content name.
//!   Requests take a shard read lock for the duration of one `HashMap`
//!   lookup; publishing encodes and builds the item **outside** any lock
//!   and write-locks only the owning shard for the final insert, so a slow
//!   publish never stalls reads — not even of other names on the same
//!   shard.
//!
//! It is *only* a store: it owns no thread, no connection count and no
//! telemetry handle, so any number of transports can front one instance
//! without sharing anything but the content. A transport that wants
//! distributions times its own `publish` or `insert` call and reads `cache_hit`,
//! `tier.segments` and `combine_nanos` off the [`Transmission`] it is
//! handed (`recoil-net`'s reactor does exactly that).
//!
//! ## Shrunk-metadata caching and capacity tiers
//!
//! A tier is what decoders of one width are served: its wire bytes, behind
//! one `Arc` shared by every response (its parsed [`RecoilMetadata`] is
//! built from the bytes only if an in-process caller asks). Its width is the
//! **post-clamp segment count** — the tier actually served, not the
//! capacity the client asked for. There are three kinds:
//!
//! * the **full tier**, at the item's encoded maximum, needs nothing
//!   eliminated: it *is* the published metadata. Content encoded with 128
//!   segments serves a 10 000-segment request and a 128-segment request
//!   from it;
//! * the **one-segment tier** eliminates everything: the header and the
//!   CRC, 32 bytes. Each item builds both trivial tiers once, at publish,
//!   and holds them for its lifetime outside any cache, so even the first
//!   request for either is a hit;
//! * every tier in between is **combined**. Real-world capacities cluster
//!   into a handful of device classes, so each item carries a small cache
//!   (default 8 entries) of the combined tiers it has actually served,
//!   keyed by their segment count. A full cache evicts the tier cheapest to
//!   rebuild — its byte length, aged GreedyDual-style by how long ago it
//!   was served — because a miss rewrites those bytes; with equal lengths
//!   that is LRU.
//!
//! A hit — a tier the item holds, or a cached combined one — is a borrow:
//! name, item and tier are resolved under the shard's read guard, and it
//! costs two atomic counter bumps and the served tier's `Arc` clone. Only a
//! miss pays the real-time combine, after leaving the guard: it writes the
//! tier's bytes from split bodies stored at publish, and its
//! [`Transmission::combine_nanos`] records exactly that cost (hits report
//! zero). The store's six counters —
//! requests, hits, misses, evictions, bytes served, publishes — are exact
//! with or without a transport and are exposed as a [`ServerStats`]
//! snapshot via [`ContentServer::stats`]; the snapshot's transport fields
//! are zero there and are filled by whichever transport reports it
//! (`recoil-net` writes the whole snapshot into its TELEMETRY reply).
//!
//! [`RecoilMetadata`]: recoil_core::RecoilMetadata

// Safe crate: `forbid` keeps any module from allowing `unsafe`.
#![forbid(unsafe_code)]

use std::sync::{LockResult, PoisonError};

mod cache;
mod client;
mod server;
mod stats;

pub use cache::ShrunkTier;
pub use client::Client;
pub use server::{ContentServer, ServerConfig, StoredContent, Transmission};
pub use stats::ServerStats;

/// The guard or value of a lock, whether or not a panic poisoned it: every
/// critical section in this crate leaves its data valid at each point it
/// can unwind, so one panicking caller does not fail every later one.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
