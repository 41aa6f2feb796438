//! Dataset generators reproducing the paper's Table 4 workloads.
//!
//! The environment has no network access, so the text corpora (dickens,
//! webster, enwik8/9) are replaced by seeded synthetic generators whose
//! order-0 statistics are tuned to the paper's measured compressibility —
//! which is all a static-model entropy coder can see. The `rand_*` datasets
//! are generated exactly as described ("random exponentially distributed
//! bytes"), and the div2k image latents are modelled as hyperprior-style
//! Gaussian mixtures over 16-bit symbols.
//!
//! Every generator draws from one source, `rng::Rng`: xoshiro256++ seeded
//! through splitmix64, so each dataset is a fixed function of its seed.

// Safe crate: `forbid` keeps any module from allowing `unsafe`.
#![forbid(unsafe_code)]

mod exponential;
mod hyperprior;
mod registry;
mod rng;
mod textlike;

pub use exponential::exponential_bytes;
pub use hyperprior::{latent_dataset, LatentDataset};
pub use registry::{Dataset, DatasetKind, PaperRef, ALL_DATASETS};
pub use textlike::{text_like_bytes, zipf_distribution_for_entropy};
