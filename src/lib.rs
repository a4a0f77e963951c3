//! # bgp — Blue Gene/P performance-counter workload characterization, reproduced
//!
//! Facade crate re-exporting the whole workspace. See the README for the
//! architecture overview and DESIGN.md for the paper-to-module map.
//!
//! The short story: [`arch`] is the vocabulary, [`mem`]/[`fpu`]/[`upc`]/
//! [`net`] are the hardware blocks, [`node`] assembles them into a compute
//! node, [`compiler`] models the XL compiler's instruction selection,
//! [`mpi`] runs ranks across nodes, [`counters`] is the paper's interface
//! library, [`postproc`] mines the dumps, [`nas`] holds the NAS parallel
//! benchmark kernels, [`faults`] injects deterministic, seeded
//! failures so collection and aggregation can be tested under fire, and
//! [`trace`] is the deterministic flight recorder: per-rank ring-buffer
//! timelines in simulated cycles, exported as Chrome-trace JSON and
//! per-phase metrics CSV (a job property: on exactly when
//! [`JobSpec`]`::trace` is `Some`). [`snapshot`] is the checkpoint
//! container: enable periodic snapshots via [`JobSpec`]`::checkpoint`
//! and resume a crashed job byte-identically with `Machine::resume`
//! (or let `counters::supervisor::supervise` do both automatically).
//! [`serve`] turns determinism into a service: a std-only TCP daemon
//! (`bgpc-serve`) that treats submitted [`JobSpec`]s as traffic and
//! deterministic results as cache hits — content-addressed by
//! `(spec fingerprint, seed)`, coalescing identical in-flight jobs,
//! backpressuring with 429-style rejects, and streaming live phase
//! updates (drive it with `bgpc-load`). The shared hand-rolled JSON
//! layer all of this rides on is re-exported as [`json`].
//!
//! ## The Session API
//!
//! Instrumentation goes through the typestate [`Session`]: the
//! initialize → start → stop → finalize protocol of the paper's
//! interface library is enforced by the type system, so out-of-order
//! calls do not compile. One unified [`Error`]/[`Result`] covers the
//! whole workspace (every crate already reports through it).
//!
//! Kernels are `async`: every blocking point (memory walk, message,
//! collective) is an explicit `.await` suspension, so a fixed worker
//! pool can multiplex any number of ranks without one OS thread each.
//!
//! ```
//! use bgp::{JobSpec, Machine, Session};
//! use bgp::arch::OpMode;
//! use bgp::mpi::SemOp;
//!
//! let machine = Machine::new(JobSpec::new(2, OpMode::VirtualNode));
//! let libs = machine.run(|mut ctx| async move {
//!     let mut session = Session::initialize(&mut ctx).start(0)?;
//!     session.fp1(SemOp::MulAdd); // the measured region
//!     session.stop()?.finalize()
//! });
//! let lib = libs.into_iter().next().unwrap().unwrap();
//! assert_eq!(lib.dumps().unwrap().len(), 1);
//! ```
//!
//! ## The paper's calls
//!
//! Each of the paper's four interface-library calls is one session
//! transition; the rank-execution entry points (`Machine::run`,
//! `counters::run_instrumented`, `counters::supervisor::supervise`) are
//! the only public ways in:
//!
//! | Paper (§IV)         | Session                                         |
//! |---------------------|-------------------------------------------------|
//! | `BGP_Initialize()`  | `let s = Session::initialize(ctx)`              |
//! | `BGP_Start(set)`    | `let s = s.start(set)?`                         |
//! | *(measured code)*   | run it on `s` (derefs to `RankCtx`) or `&mut *s` |
//! | `BGP_Stop(set)`     | `let s = s.stop()?` *(set id from the typestate)* |
//! | `BGP_Finalize()`    | `let lib = s.finalize()?`, then `lib.dumps()?`  |
//!
//! The counter modes are chosen per job, as on the machine, where the
//! even/odd split is fixed when the job is launched: set
//! [`JobSpec`]`::counter_policy`. Sessions of one job share the
//! machine's one `counters::CounterLibrary`.
//!
//! Whole-program instrumentation (the paper's "link the instrumented
//! MPI library" flow) is `counters::run_instrumented(&machine, |ctx| ...)`,
//! whose kernel takes the [`RankCtx`] by value and hands it back:
//! `move |ctx| kernel.exec(class, ctx)`.
//!
//! What the paper's library reports as runtime protocol errors — start
//! before initialize, nested sets, mismatched stop, finalize with an
//! open set — are compile errors here: the methods simply do not exist
//! on the wrong state. Runtime errors remain only where the type system
//! cannot see them (divergent SPMD usage across ranks of one node).

#![forbid(unsafe_code)]

pub use bgp_arch as arch;
pub use bgp_compiler as compiler;
pub use bgp_core as counters;
pub use bgp_faults as faults;
pub use bgp_fpu as fpu;
pub use bgp_mem as mem;
pub use bgp_mpi as mpi;
pub use bgp_nas as nas;
pub use bgp_net as net;
pub use bgp_node as node;
pub use bgp_postproc as postproc;
pub use bgp_serve as serve;
pub use bgp_snapshot as snapshot;
pub use bgp_trace as trace;
pub use bgp_upc as upc;

/// The workspace's shared wire-text layer (writer builders + parser),
/// re-exported from [`trace`] where it grew up.
pub use bgp_trace::json;

/// The workspace-wide error type (every crate reports through it).
pub use bgp_arch::BgpError as Error;

/// Workspace-wide result alias over [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

pub use bgp_core::{Counting, Initialized, Session};
pub use bgp_mpi::{JobSpec, Machine, RankCtx};
