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
//! Session::builder(ctx).build()?        : Session<'_, Initialized>
//!     .start(set)?                      : Session<'_, Counting>
//!     .stop()?                          : Session<'_, Initialized>
//!     .finalize()?                      : JobDump
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
//! copy per job, state per node.
//!
//! # Migrating from the four-call API
//!
//! ```
//! use bgp_arch::OpMode;
//! use bgp_core::{Session, WHOLE_PROGRAM_SET};
//! use bgp_mpi::{JobSpec, Machine, SemOp};
//!
//! let machine = Machine::new(JobSpec::new(2, OpMode::Smp1));
//! let dumps = machine.run(|mut ctx| async move {
//!     // Before: lib.bgp_initialize(ctx)?;
//!     let session = Session::builder(&mut ctx).build().unwrap();
//!     // Before: lib.bgp_start(ctx, set)?;
//!     let mut session = session.start(WHOLE_PROGRAM_SET).unwrap();
//!     session.fp1(SemOp::MulAdd); // the measured region
//!     // Before: lib.bgp_stop(ctx, set)?; — no set id: it cannot mismatch
//!     let session = session.stop().unwrap();
//!     // Before: lib.bgp_finalize(ctx)?;
//!     session.finalize().unwrap()
//! });
//! let dumps = dumps.into_iter().next().unwrap().dumps().unwrap();
//! assert_eq!(dumps.len(), 2);
//! ```

use crate::dump::NodeDump;
use crate::CounterLibrary;
use bgp_arch::error::Result;
use bgp_arch::events::CounterMode;
use bgp_arch::BgpError;
use bgp_mpi::{CounterPolicy, Machine, RankCtx};
use bgp_trace::TraceConfig;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
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

    /// The shared per-job counter library backing this session.
    pub fn library(&self) -> &Arc<CounterLibrary> {
        &self.lib
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

/// Builder for a [`Session`]; performs `BGP_Initialize` on
/// [`SessionBuilder::build`].
pub struct SessionBuilder<'a> {
    ctx: &'a mut RankCtx,
    policy: Option<CounterPolicy>,
    trace: Option<TraceConfig>,
}

impl<'a> SessionBuilder<'a> {
    /// Program every node into the single counter mode `m` instead of
    /// the job's [`CounterPolicy`]. All ranks of a job must agree
    /// (SPMD); divergent choices fail at [`SessionBuilder::build`].
    pub fn counter_mode(self, m: CounterMode) -> Self {
        self.counter_policy(CounterPolicy::Fixed(m))
    }

    /// Override the job's counter-mode assignment (e.g. the paper's
    /// even/odd 512-event trick). All ranks of a job must agree.
    pub fn counter_policy(mut self, p: CounterPolicy) -> Self {
        self.policy = Some(p);
        self
    }

    /// Arm the rank's deterministic flight recorder with `cfg` (and, if
    /// `cfg.enabled`, start recording at build time). All ranks of a
    /// job must supply equal configurations; divergence fails at
    /// [`SessionBuilder::build`]. Whole-job tracing from cycle 0 is
    /// configured via `JobSpec::trace` instead.
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// `BGP_Initialize`: program this rank's node per the policy, zero
    /// the counters, leave counting disabled.
    ///
    /// # Errors
    /// Fails if this rank's policy override disagrees with a peer's, or
    /// arrives after a node was already programmed differently.
    pub fn build(self) -> Result<Session<'a, Initialized>> {
        let lib = CounterLibrary::for_machine(self.ctx.machine());
        if let Some(p) = self.policy {
            lib.set_policy_override(self.ctx.machine(), p)?;
        }
        if let Some(cfg) = &self.trace {
            self.ctx.enable_tracing(cfg).map_err(BgpError::protocol)?;
        }
        lib.initialize_impl(self.ctx)?;
        Ok(Session { ctx: self.ctx, lib, state: Initialized(()) })
    }
}

impl<'a> Session<'a, Initialized> {
    /// Begin building a session for `ctx`'s rank.
    pub fn builder(ctx: &'a mut RankCtx) -> SessionBuilder<'a> {
        SessionBuilder { ctx, policy: None, trace: None }
    }

    /// `BGP_Start(set)`: open a counting window. The returned
    /// `Session<Counting>` is the only value `stop` exists on, so the
    /// window cannot be left open past `finalize` by construction.
    ///
    /// # Errors
    /// Fails if a peer rank on the same node already opened a
    /// *different* set (runtime SPMD divergence the types cannot see).
    pub fn start(self, set: u32) -> Result<Session<'a, Counting>> {
        self.lib.start_impl(self.ctx, set)?;
        Ok(Session { ctx: self.ctx, lib: self.lib, state: Counting { set } })
    }

    /// `BGP_Finalize`: close the protocol; the last rank of each node
    /// assembles the node's binary dump. Returns the job-wide dump
    /// handle (complete once every rank has finalized, i.e. after
    /// [`bgp_mpi::Machine::run`] returns).
    pub fn finalize(self) -> Result<JobDump> {
        self.lib.finalize_impl(self.ctx)?;
        Ok(JobDump { lib: self.lib })
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

/// Job-wide dump handle returned by [`Session::finalize`]. Complete
/// once every rank of the job has finalized.
#[derive(Clone)]
pub struct JobDump {
    lib: Arc<CounterLibrary>,
}

impl JobDump {
    /// Decoded dumps of all nodes.
    ///
    /// # Errors
    /// Fails while any node has not finalized yet.
    pub fn dumps(&self) -> Result<Vec<NodeDump>> {
        self.lib.dumps()
    }

    /// The encoded dump bytes of one node, if it finalized.
    pub fn encoded(&self, node: usize) -> Option<Vec<u8>> {
        self.lib.encoded_dump(node)
    }

    /// Write one `node_<id>.bgpc` file per node into `dir`.
    pub fn write(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        self.lib.write_dumps(dir)
    }

    /// The backing library (retry-aware collection, faulted writes).
    pub fn library(&self) -> &Arc<CounterLibrary> {
        &self.lib
    }
}

impl CounterLibrary {
    /// Adopt a session's counter-policy override. The first one
    /// reprograms the machine's one-mode schedules, so it must precede
    /// every node's initialization.
    pub(crate) fn set_policy_override(&self, machine: &Machine, p: CounterPolicy) -> Result<()> {
        // Rotation state (sentinel thresholds, the mux engine itself) is
        // wired when the machine is built, so an override can neither
        // switch multiplexing on or off nor re-tune its dwell.
        let spec_p = self.spec.counter_policy;
        if (p.is_multiplexed() || spec_p.is_multiplexed()) && p != spec_p {
            return Err(BgpError::protocol(format!(
                "multiplexed counter policy is fixed at machine construction: \
                 job runs {spec_p:?}, override asks for {p:?}"
            )));
        }
        let mut cur = self.policy_override.lock();
        match *cur {
            None => {
                if self.any_node_initialized() {
                    return Err(BgpError::protocol(
                        "counter policy override after a node was already programmed",
                    ));
                }
                machine.reprogram_counter_modes(&p);
                *cur = Some(p);
                Ok(())
            }
            Some(existing) if existing == p => Ok(()),
            Some(existing) => Err(BgpError::protocol(format!(
                "divergent counter policy across ranks: {existing:?} vs {p:?}"
            ))),
        }
    }

    fn any_node_initialized(&self) -> bool {
        self.nodes.lock().iter().any(|st| st.initialized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CounterMode;
    use bgp_arch::OpMode;
    use bgp_mpi::{JobSpec, Machine, SemOp};

    #[test]
    fn session_round_trip_produces_dumps() {
        let m = Machine::new(JobSpec::new(4, OpMode::VirtualNode));
        let handles = m.run(|mut ctx| async move {
            let s = Session::builder(&mut ctx)
                .counter_mode(CounterMode::Mode0)
                .build()
                .unwrap();
            let mut s = s.start(7).unwrap();
            assert_eq!(s.set(), 7);
            s.fp1(SemOp::Add);
            s.stop().unwrap().finalize().unwrap()
        });
        let dumps = handles[0].dumps().unwrap();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].mode, CounterMode::Mode0);
        assert_eq!(dumps[0].set(7).unwrap().records, 1);
    }

    #[test]
    fn sessions_share_one_library_per_machine() {
        let m = Machine::new(JobSpec::new(2, OpMode::VirtualNode));
        let libs = m.run(|mut ctx| async move {
            let s = Session::builder(&mut ctx).build().unwrap();
            let lib = Arc::clone(s.library());
            s.finalize().unwrap();
            lib
        });
        assert!(
            Arc::ptr_eq(&libs[0], &libs[1]),
            "both ranks must resolve to the same per-machine library"
        );
    }

    #[test]
    fn divergent_policies_are_rejected_at_build() {
        let m = Machine::new(JobSpec::new(2, OpMode::Smp1));
        let oks = m.run(|mut ctx| async move {
            let mode = if ctx.rank() == 0 { CounterMode::Mode0 } else { CounterMode::Mode1 };
            match Session::builder(&mut ctx).counter_mode(mode).build() {
                Ok(s) => {
                    s.finalize().unwrap();
                    true
                }
                Err(_) => false,
            }
        });
        assert_eq!(
            oks.iter().filter(|&&ok| ok).count(),
            1,
            "exactly one rank wins the policy race; the other errors: {oks:?}"
        );
    }

    #[test]
    fn static_override_reprograms_every_node_before_initialization() {
        // Two SMP/1 nodes under the default even/odd policy (modes 0, 1).
        let m = Machine::new(JobSpec::new(2, OpMode::Smp1));
        let handles = m.run(|mut ctx| async move {
            let s = Session::builder(&mut ctx).counter_mode(CounterMode::Mode2).build().unwrap();
            s.start(1).unwrap().stop().unwrap().finalize().unwrap()
        });
        for (node, d) in handles[0].dumps().unwrap().iter().enumerate() {
            assert_eq!(d.mode, CounterMode::Mode2, "node {node} header");
            assert_eq!(m.home_mode(node), CounterMode::Mode2);
            assert_eq!(m.with_node(node, |n| n.upc().mode()), CounterMode::Mode2);
        }

        // Once a node is programmed, an override is refused and changes
        // nothing.
        let m = Machine::new(JobSpec::new(1, OpMode::Smp1));
        let late = m.run(|mut ctx| async move {
            Session::builder(&mut ctx).build().unwrap().finalize().unwrap();
            Session::builder(&mut ctx).counter_mode(CounterMode::Mode3).build().is_err()
        });
        assert!(late[0], "override after initialization must fail");
        assert_eq!(m.home_mode(0), CounterMode::Mode0);
    }

    #[test]
    fn mux_policy_cannot_be_switched_by_override() {
        let mut spec = JobSpec::new(1, OpMode::Smp1);
        spec.counter_policy = bgp_mpi::CounterPolicy::multiplexed();
        let m = Machine::new(spec);
        let errs = m.run(|mut ctx| async move {
            // Turning rotation *off* is rejected...
            let off = Session::builder(&mut ctx).counter_mode(CounterMode::Mode1).build();
            let off_err = off.is_err();
            // ...while restating the job's own policy is a no-op.
            let same = Session::builder(&mut ctx)
                .counter_policy(bgp_mpi::CounterPolicy::multiplexed())
                .build()
                .unwrap();
            same.finalize().unwrap();
            off_err
        });
        assert!(errs[0], "fixed-mode override over a multiplexed job must fail");
    }

    #[test]
    fn consecutive_sets_accumulate_separately() {
        let m = Machine::new(JobSpec::new(1, OpMode::Smp1));
        let dump = m.run(|mut ctx| async move {
            let s = Session::builder(&mut ctx).build().unwrap();
            let mut s1 = s.start(1).unwrap();
            s1.fp1(SemOp::Add);
            let s = s1.stop().unwrap();
            let mut s2 = s.start(2).unwrap();
            s2.fp1(SemOp::Mul);
            s2.stop().unwrap().finalize().unwrap()
        });
        let dumps = dump[0].dumps().unwrap();
        let d = &dumps[0];
        assert!(d.set(1).is_some() && d.set(2).is_some());
    }
}
