//! # bgp-mpi — a deterministic MPI-like rank runtime over simulated nodes
//!
//! The paper's experiments run the NAS benchmarks as MPI jobs of 121–128
//! processes over 32–128 Blue Gene/P nodes in different operating modes
//! (§V–§VIII). This crate provides that substrate:
//!
//! * [`machine::Machine`] — a partition of [`bgp_node::Node`]s plus the
//!   torus/collective/barrier networks,
//! * [`machine::JobSpec`] / `machine::place` — rank placement per
//!   operating mode (VNM packs 4 ranks per node, SMP/1 gives each rank a
//!   whole node, …),
//! * `sched::PhaseEngine` — the deterministic *parallel* scheduler:
//!   every rank is a resumable `async` state machine multiplexed over a
//!   fixed worker pool (no per-rank OS thread, so 294,912-rank jobs
//!   fit); ranks on different nodes run concurrently between MPI
//!   synchronization points, ranks sharing a node rotate at
//!   memory-access quanta, and cross-node effects merge in canonical
//!   rank order at phase boundaries,
//! * [`ctx::RankCtx`] — the API kernels program against: simulated
//!   arrays, compiled arithmetic, sends/receives, collectives; each
//!   blocking point is an explicit `.await` suspension,
//! * `comm` — payload codecs, reduce operators, rendezvous slots.
//!
//! Determinism contract: the same [`machine::JobSpec`] and kernel produce
//! bit-identical counter values on every run (tested in `tests/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod comm;
pub mod ctx;
pub mod machine;
mod mux;
mod sched;
mod simvec;

pub use comm::{bytes_to_f64s, bytes_to_u64s, f64s_to_bytes, u64s_to_bytes, ReduceOp};
pub use ctx::{RankCtx, SemOp};
pub use machine::{AppState, CheckpointConfig, CounterPolicy, JobSpec, Machine, SnapshotStats};
pub use mux::{MuxMark, MuxSummary};
pub use simvec::{SimElem, SimVec};
