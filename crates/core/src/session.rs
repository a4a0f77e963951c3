//! The **typestate session API** over the counter interface library.
//!
//! The paper's four C-style calls (`BGP_Initialize` → `BGP_Start(set)`
//! → `BGP_Stop(set)` → `BGP_Finalize`) leave their protocol to runtime
//! checking: starting before initializing, nesting sets, stopping a set
//! that is not the active one, or finalizing with a set still open are
//! all errors a run only discovers when it happens. The session encodes
//! that protocol in the type system instead:
//!
//! ```text
//! Session::initialize(ctx)              : Session<'_, Initialized>
//!     .start(set)?                      : Session<'_, Counting>
//!     .stop()?                          : Session<'_, Initialized>
//!     .finalize()?                      : Arc<CounterLibrary>
//! ```
//!
//! * `start` exists only on `Session<Initialized>` — *start before
//!   initialize* and *nested sets* do not compile.
//! * `stop` exists only on `Session<Counting>` and takes **no set id**:
//!   the state carries the one opened by `start`, so *stopping the wrong
//!   set* is unrepresentable.
//! * `finalize` exists only on `Session<Initialized>` — *finalize with
//!   an active set* does not compile.
//!
//! Between `start` and `stop` the session [`std::ops::Deref`]s to
//! [`RankCtx`], so the measured kernel runs against the session
//! directly (or via [`Session::ctx`] for helpers that take
//! `&mut RankCtx`).
//!
//! Sessions of the ranks of one job share the per-machine
//! [`CounterLibrary`] (looked up via [`CounterLibrary::for_machine`]),
//! exactly like the linked interface library on the real machine: one
//! copy per job, state per node. The counter modes are the job's
//! [`bgp_mpi::JobSpec::counter_policy`]; a session only scopes regions.
//!
//! ```
//! use bgp_arch::OpMode;
//! use bgp_core::{Session, WHOLE_PROGRAM_SET};
//! use bgp_mpi::{JobSpec, Machine, SemOp};
//!
//! let machine = Machine::new(JobSpec::new(2, OpMode::Smp1));
//! let libs = machine.run(|mut ctx| async move {
//!     let session = Session::initialize(&mut ctx); // BGP_Initialize
//!     let mut session = session.start(WHOLE_PROGRAM_SET).unwrap(); // BGP_Start
//!     session.fp1(SemOp::MulAdd); // the measured region
//!     let session = session.stop().unwrap(); // BGP_Stop: no set id, it cannot mismatch
//!     session.finalize().unwrap() // BGP_Finalize
//! });
//! let dumps = libs[0].dumps().unwrap();
//! assert_eq!(dumps.len(), 2);
//! ```

use crate::CounterLibrary;
use bgp_arch::error::Result;
use bgp_mpi::RankCtx;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Typestate marker: UPC programmed, no counting window open.
#[derive(Debug)]
pub struct Initialized(());

/// Typestate: a counting window is open for [`Counting::set`].
#[derive(Debug)]
pub struct Counting {
    set: u32,
}

impl Counting {
    /// The set id this window accumulates into.
    pub fn set(&self) -> u32 {
        self.set
    }
}

/// One rank's handle on the counter protocol. See the [module
/// docs](self) for the state machine.
pub struct Session<'a, S> {
    ctx: &'a mut RankCtx,
    lib: Arc<CounterLibrary>,
    state: S,
}

impl<'a, S> Session<'a, S> {
    /// The rank context, for helpers that take `&mut RankCtx` (the
    /// session also [`Deref`]s to it).
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.ctx
    }
}

impl<S> Deref for Session<'_, S> {
    type Target = RankCtx;
    fn deref(&self) -> &RankCtx {
        self.ctx
    }
}

impl<S> DerefMut for Session<'_, S> {
    fn deref_mut(&mut self) -> &mut RankCtx {
        self.ctx
    }
}

impl<'a> Session<'a, Initialized> {
    /// `BGP_Initialize`: zero this rank's node's counters (the machine
    /// already programmed its mode from the job's counter policy) and
    /// leave counting disabled.
    pub fn initialize(ctx: &'a mut RankCtx) -> Session<'a, Initialized> {
        let lib = CounterLibrary::for_machine(ctx.machine());
        lib.initialize_impl(ctx);
        Session { ctx, lib, state: Initialized(()) }
    }

    /// `BGP_Start(set)`: open a counting window. The returned
    /// `Session<Counting>` is the only value `stop` exists on, so the
    /// window cannot be left open past `finalize` by construction.
    ///
    /// # Errors
    /// Fails if `set` is not below [`crate::dump::SET_ID_LIMIT`], or if a
    /// peer rank on the same node already opened a *different* set
    /// (runtime SPMD divergence the types cannot see).
    pub fn start(self, set: u32) -> Result<Session<'a, Counting>> {
        self.lib.start_impl(self.ctx, set)?;
        Ok(Session { ctx: self.ctx, lib: self.lib, state: Counting { set } })
    }

    /// `BGP_Finalize`: close the protocol; the last rank of each node
    /// assembles the node's binary dump. Returns the job's library,
    /// whose dumps are complete once every rank has finalized, i.e.
    /// after [`bgp_mpi::Machine::run`] returns.
    pub fn finalize(self) -> Result<Arc<CounterLibrary>> {
        self.lib.finalize_impl(self.ctx)?;
        Ok(self.lib)
    }
}

impl<'a> Session<'a, Counting> {
    /// The set id the open window accumulates into.
    pub fn set(&self) -> u32 {
        self.state.set
    }

    /// `BGP_Stop`: close the window opened by [`Session::start`] — the
    /// set id comes from the typestate, so it cannot mismatch.
    pub fn stop(self) -> Result<Session<'a, Initialized>> {
        self.lib.stop_impl(self.ctx, self.state.set)?;
        Ok(Session { ctx: self.ctx, lib: self.lib, state: Initialized(()) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CounterMode;
    use bgp_arch::OpMode;
    use bgp_mpi::{CounterPolicy, JobSpec, Machine, SemOp};

    fn fixed(ranks: usize, mode: OpMode, m: CounterMode) -> Arc<Machine> {
        let mut spec = JobSpec::new(ranks, mode);
        spec.counter_policy = CounterPolicy::Fixed(m);
        Machine::new(spec)
    }

    #[test]
    fn session_round_trip_produces_dumps() {
        let m = fixed(4, OpMode::VirtualNode, CounterMode::Mode0);
        let libs = m.run(|mut ctx| async move {
            let mut s = Session::initialize(&mut ctx).start(7).unwrap();
            assert_eq!(s.set(), 7);
            s.fp1(SemOp::Add);
            s.stop().unwrap().finalize().unwrap()
        });
        let dumps = libs[0].dumps().unwrap();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].mode, CounterMode::Mode0);
        assert_eq!(dumps[0].set(7).unwrap().records, 1);
    }

    #[test]
    fn sessions_share_one_library_per_machine() {
        let job = |m: &Arc<Machine>| {
            m.run(|mut ctx| async move { Session::initialize(&mut ctx).finalize().unwrap() })
        };
        let m = Machine::new(JobSpec::new(2, OpMode::VirtualNode));
        let libs = job(&m);
        assert!(
            Arc::ptr_eq(&libs[0], &libs[1]),
            "both ranks must resolve to the same per-machine library"
        );
        assert!(Arc::ptr_eq(&libs[0], &CounterLibrary::for_machine(&m)));
        let other = job(&Machine::new(JobSpec::new(2, OpMode::VirtualNode)));
        assert!(
            !Arc::ptr_eq(&libs[0], &other[0]),
            "a second machine must get a library of its own"
        );
    }

    /// The job's policy alone picks every node's mode: the dump header,
    /// the machine's home mode and the unit agree on every node.
    #[test]
    fn fixed_policy_programs_every_node_in_its_mode() {
        // Two SMP/1 nodes, which the default even/odd policy would put
        // in modes 0 and 1.
        let m = fixed(2, OpMode::Smp1, CounterMode::Mode2);
        let libs = m.run(|mut ctx| async move {
            let s = Session::initialize(&mut ctx);
            s.start(1).unwrap().stop().unwrap().finalize().unwrap()
        });
        let dumps = libs[0].dumps().unwrap();
        assert_eq!(dumps.len(), 2);
        for (node, d) in dumps.iter().enumerate() {
            assert_eq!(d.mode, CounterMode::Mode2, "node {node} header");
            assert_eq!(m.home_mode(node), CounterMode::Mode2, "node {node} home mode");
            let upc = m.with_node(node, |n| n.upc().mode());
            assert_eq!(upc, CounterMode::Mode2, "node {node} UPC");
        }
    }

    #[test]
    fn consecutive_sets_accumulate_separately() {
        let m = Machine::new(JobSpec::new(1, OpMode::Smp1));
        let libs = m.run(|mut ctx| async move {
            let s = Session::initialize(&mut ctx);
            let mut s1 = s.start(1).unwrap();
            s1.fp1(SemOp::Add);
            let s = s1.stop().unwrap();
            let mut s2 = s.start(2).unwrap();
            s2.fp1(SemOp::Mul);
            s2.stop().unwrap().finalize().unwrap()
        });
        let dumps = libs[0].dumps().unwrap();
        let d = &dumps[0];
        assert!(d.set(1).is_some() && d.set(2).is_some());
    }
}
