//! # bgp-compiler — the XL compiler optimization model
//!
//! The paper compiles the NAS benchmarks with IBM's XL compilers at
//! `-O -qstrict`, `-O3`, `-O4` and `-O5`, with and without
//! `-qarch=440d`, and reads the consequences off the UPC counters
//! (§VI, Figs. 6–10). Without those proprietary compilers, this crate
//! models the *decisions* that matter to the counters: FMA fusion,
//! SIMD-ization of data-parallel loops onto the double-hummer FPU
//! (including quadload/quadstore selection), loop unrolling, and the
//! residual overhead instructions of each level.
//!
//! [`opts::CompileOpts`] is the flag vocabulary; [`lowering::CodeGen`]
//! makes the per-element-pair instruction-selection decisions that the
//! workload layer turns into retired instructions on a simulated core.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod lowering;
pub mod opts;

pub use lowering::{CodeGen, CodeGenParams, FractionSelector, LibmProfile, Overhead, PairPlan};
pub use opts::{CompileOpts, OptLevel, QArch};
