//! # bgp-postproc — post-processing and data mining for counter dumps
//!
//! The paper ships post-processing tools that read the per-node binary
//! files, sanity-check them, compute per-counter statistics (minimum,
//! maximum, arithmetic mean) across all nodes, derive user-defined
//! metrics (MFLOPS from the FPU counters, L3-DDR traffic from the L3/DDR
//! counters), and print `.csv` records per application (§IV). This crate
//! is those tools:
//!
//! * [`frame::Frame`] — the one counter estimator: per-(node, mode)
//!   observations, weighted by the share of the run each covered, reduced
//!   to per-event statistics strictly ([`Frame::from_dumps`], integrity
//!   checks) or over the nodes that survived a faulted run
//!   ([`Frame::from_survivors`], coverage floor and outlier rule),
//! * [`metrics`] — MFLOPS, DDR traffic/bandwidth, L3 miss ratio, and the
//!   Fig. 6 instruction-mix categories,
//! * [`csv`] — CSV emission, including the "all 512 counters" option,
//! * [`validate`] — ground-truth event validation: exact,
//!   multiplexed-reconstructed, and fault-degraded counts, estimated by
//!   the same observations, checked against the simulator's independent
//!   bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod csv;
pub mod frame;
pub mod metrics;
mod report;
pub mod validate;

pub use csv::{stats_csv, Csv};
pub use frame::{mux_weights, EventStats, Frame};
pub use metrics::{
    ddr_traffic_bytes_per_node, fp_mix, l3_miss_ratio, mflops_per_chip, mflops_per_core,
    MixCategory,
};
pub use report::render as render_report;
pub use validate::{NodeTruth, TruthEntry, ValidationReport};
