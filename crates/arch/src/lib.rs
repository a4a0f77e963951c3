//! # bgp-arch — shared architectural vocabulary for the Blue Gene/P model
//!
//! This crate defines the types every other crate in the workspace speaks:
//!
//! * the **event catalog** of the Universal Performance Counter unit
//!   (1024 possible events arranged as 4 counter modes × 256 slots,
//!   mirroring §III-A of the paper) — [`events`],
//! * the **node operating modes** (SMP/1, SMP/4, Dual, Virtual Node Mode;
//!   Fig. 3 of the paper) — [`modes`],
//! * machine **geometry** (torus dimensions, node/core identifiers,
//!   address-space partitioning) — [`geometry`],
//! * the **machine configuration** knobs the paper sweeps (L3 size,
//!   prefetch depth, …) — [`config`],
//! * clock constants and the common error type.
//!
//! Nothing in here simulates anything; it is the stable vocabulary layer,
//! analogous to the SPR/DCR definition headers that ship with the real
//! Blue Gene/P driver source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cli;
pub mod config;
pub mod error;
pub mod events;
pub mod geometry;
pub mod modes;
pub mod rng;
pub mod sync;
pub mod wire;

pub use config::MachineConfig;
pub use error::BgpError;
pub use events::{CounterMode, EventId};
pub use geometry::{NodeId, TorusCoord};
pub use modes::OpMode;

/// Processor clock frequency of the PowerPC 450 cores (Hz).
///
/// Blue Gene/P runs its compute cores at 850 MHz; MFLOPS numbers reported
/// by the post-processing tools divide flop counts by cycle counts scaled
/// with this constant.
pub const CORE_CLOCK_HZ: u64 = 850_000_000;

/// Number of processor cores on one compute chip.
pub const CORES_PER_NODE: usize = 4;

/// Cache-line size of the L2/L3/DDR levels (bytes).
pub const LINE_BYTES: usize = 128;

/// Cache-line size of the private L1 caches (bytes).
pub const L1_LINE_BYTES: usize = 32;

/// Default main-store capacity per node (bytes): 2 GB DDR2.
pub(crate) const NODE_MEMORY_BYTES: u64 = 2 << 30;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_sizes_are_powers_of_two() {
        assert!(LINE_BYTES.is_power_of_two());
        assert!(L1_LINE_BYTES.is_power_of_two());
        assert_eq!(LINE_BYTES % L1_LINE_BYTES, 0);
    }
}
