//! **Recoil** — parallel rANS decoding with decoder-adaptive scalability
//! (Lin et al., ICPP 2023). This crate is the paper's contribution.
//!
//! Instead of partitioning the symbol sequence before encoding (which fixes
//! the parallelism/compression trade-off forever, §2.3), Recoil encodes the
//! whole sequence with **one** group of interleaved rANS encoders and then
//! records *metadata* at chosen renormalization points: the 16-bit
//! intermediate lane states, the symbol indices they belong to, and the
//! bitstream offset (§3, §4). Decoders can start at any recorded split
//! through a three-phase procedure (Synchronization → Decoding →
//! Cross-Boundary, §4.1), and a content server can scale the parallelism
//! *down* for a weaker client by simply dropping metadata entries (§3.3) —
//! no re-encode, no wasted bytes.
//!
//! Pipeline:
//!
//! ```text
//! symbols ──InterleavedEncoder──▶ bitstream + renorm events
//!                   │                         │
//!                   ▼                         ▼
//!            final states            SplitPlanner (Def. 4.1 heuristic,
//!                                      backward scan at renorm points)
//!                                             │
//!                                             ▼
//!                                     RecoilMetadata ──wire──▶ bytes
//!                                             │
//!                              combine(M) ────┤  (server, real-time)
//!                                             ▼
//!                       three-phase parallel decoder (thread pool)
//! ```

// Audited crate: `unsafe` is allowed only in `crc/clmul.rs` (the carry-less
// multiply kernel), which states its invariant; the workspace lints deny it
// elsewhere.

pub mod backend;
mod bounds;
pub mod codec;
mod combine;
mod container;
mod crc;
mod decoder;
mod error;
mod file;
mod incremental;
mod metadata;
mod planner;
mod wire;

pub use backend::{
    AutoBackend, CodecSymbol, DecodeBackend, DecodeModel, DecodeOutput, DecodeRequest,
    ScalarBackend,
};
pub use bounds::{reserve_declared_words, MAX_RESERVED_WORDS};
pub use codec::{Codec, CodecBuilder, Encoded, EncoderConfig};
pub use combine::try_combine_splits;
pub use container::RecoilContainer;
pub use crc::{crc32, update_crc32, update_crc32_table};
pub use decoder::{decode_segments, validate_segment_decode, DecodeStats};
pub use error::RecoilError;
pub use file::{
    check_words_crc, container_of_item, item_from_bytes, model_block, read_container,
    write_item_section, ItemSection,
};
pub use incremental::IncrementalDecoder;
pub use metadata::{LaneInit, RecoilMetadata, SplitLanes, SplitPoint};
pub use planner::{plan_from_events, SplitPlanner};
pub use wire::{metadata_from_bytes, metadata_to_bytes, metadata_wire_len, WireSplits};
