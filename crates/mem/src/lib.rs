//! # bgp-mem — the Blue Gene/P node memory hierarchy
//!
//! Models the full on-chip memory system of a compute node (paper §III,
//! Fig. 2): per-core 32 KB L1 instruction/data caches (32-byte lines),
//! per-core small prefetching L2s with sequential stream engines
//! (128-byte lines), the shared multi-bank L3 (0–8 MB, the paper's
//! Fig. 11 sweep variable), snoop-filter coherence between the private
//! caches, and two DDR2 controllers with a queueing-contention model
//! (the mechanism behind Figs. 12–13).
//!
//! The entry point is [`MemorySystem`]; the cache and prefetcher
//! building blocks ([`cache::Cache`], [`prefetch::StreamPrefetcher`])
//! are public for unit benchmarking and ablation experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cache;
mod ddr;
pub mod hierarchy;
pub mod prefetch;

pub use cache::{Cache, Hit};
pub use hierarchy::{HitLevel, MemAccess, MemStats, MemorySystem, Outcome};
pub use prefetch::StreamPrefetcher;
