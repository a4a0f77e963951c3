//! # bgp-core — the UPC performance-counter **interface library**
//!
//! This is the paper's contribution (§IV): a thin library over the UPC
//! unit that lets applications instrument themselves. The public
//! surface is the typestate [`Session`] API ([`session`] module), which
//! makes the protocol — initialize, then bracket code regions in
//! start/stop *sets*, then finalize into a per-node binary dump — a
//! compile-time property. The paper's original four C-style calls
//! (`BGP_Initialize` / `BGP_Start(set)` / `BGP_Stop(set)` /
//! `BGP_Finalize`) exist only as the session's internal steps; the
//! deprecated free-call wrappers were removed (see the migration table
//! in the facade crate docs). Dumps are written per node by
//! [`CounterLibrary::write_dumps`].
//!
//! Key properties reproduced from the paper:
//!
//! * **512 events in one run** — even-numbered nodes count in one
//!   counter mode and odd-numbered nodes in another
//!   ([`bgp_mpi::CounterPolicy::EvenOdd`]), doubling event coverage of an
//!   SPMD job. Each node's mode comes from its counter-mode schedule in
//!   [`bgp_mpi::mux`], a one-mode schedule here; the library reads every
//!   counting window as the difference of two schedule marks, the same
//!   way for static and multiplexed policies.
//! * **Tiny overhead** — initialize + start + stop together charge
//!   [`TOTAL_OVERHEAD_CYCLES`] (= 196, the number the paper measured
//!   against the Time Base register). Dump assembly happens after
//!   counting stops, so it lengthens execution without perturbing any
//!   counter — exactly the behaviour §IV describes.
//! * **MPI integration** — [`run_instrumented`] wraps a kernel the way
//!   the paper's replacement `MPI_Init`/`MPI_Finalize` do, so an
//!   application is instrumented "without any need for changing the
//!   code".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bglperfctr;
pub mod collect;
pub mod dump;
pub mod session;
pub mod state;
pub mod supervisor;

use bgp_arch::error::Result;
use bgp_arch::events::{CounterMode, NUM_COUNTERS, NUM_MODES};
use bgp_arch::BgpError;
use bgp_arch::sync::Mutex;
use bgp_faults::{CounterFault, FaultPlan};
use bgp_mpi::{CounterPolicy, JobSpec, Machine, MuxMark, RankCtx};
use bgp_trace::{EventKind, FaultEvent};
use dump::{NodeDump, RecoveredDump, SetDump};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, Weak};

pub use session::{Counting, Initialized, JobDump, Session, SessionBuilder};

/// Cycles charged by `BGP_Initialize` (UPC programming via the memory
/// map).
pub const INIT_CYCLES: u64 = 150;
/// Cycles charged by one `BGP_Start` call.
pub const START_CYCLES: u64 = 23;
/// Cycles charged by one `BGP_Stop` call.
pub const STOP_CYCLES: u64 = 23;
/// The paper's §IV measurement: initialize + one start + one stop.
pub const TOTAL_OVERHEAD_CYCLES: u64 = INIT_CYCLES + START_CYCLES + STOP_CYCLES;
/// Cycles charged by `BGP_Finalize` (assembling and "printing" the dump —
/// after counting stopped, so invisible to the counters).
pub const FINALIZE_CYCLES: u64 = 4200;

/// The set id [`run_instrumented`] brackets the whole kernel with
/// (mirroring instrumentation injected into `MPI_Init`/`MPI_Finalize`).
pub const WHOLE_PROGRAM_SET: u32 = 0;

#[derive(Default)]
struct SetState {
    /// Schedule mark taken at the open window's first `BGP_Start`.
    start: Option<MuxMark>,
    /// The closed windows, accumulated mark to mark: counts per mode
    /// the node's schedule visits, plus per-mode phases and job cycles
    /// (the occupancy weights reconstruction scales by — phases vary in
    /// length, cycles are the honest time base).
    window: MuxMark,
    records: u32,
}

#[derive(Default)]
struct NodeState {
    initialized: bool,
    init_arrivals: usize,
    active_set: Option<u32>,
    start_arrivals: usize,
    stop_arrivals: usize,
    finalize_arrivals: usize,
    /// The node's sets, sorted by id (the order dumps list them in).
    sets: Vec<(u32, SetState)>,
    dump: Option<Vec<u8>>,
}

impl NodeState {
    /// Where set `id` sits in `sets`, or where it would be inserted.
    fn find_set(&self, id: u32) -> std::result::Result<usize, usize> {
        self.sets.binary_search_by_key(&id, |&(k, _)| k)
    }
}

/// The interface library, shared by all ranks of one job.
///
/// ```
/// use bgp_arch::{events::{CoreEvent, CounterMode}, OpMode};
/// use bgp_core::{run_instrumented, WHOLE_PROGRAM_SET};
/// use bgp_mpi::{CounterPolicy, JobSpec, Machine, SemOp};
///
/// let mut spec = JobSpec::new(1, OpMode::Smp1);
/// spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
/// let machine = Machine::new(spec);
/// let (_, lib) = run_instrumented(&machine, |mut ctx| async move {
///     ctx.fp1(SemOp::MulAdd); // "the application"
///     (ctx, ())
/// });
/// let dumps = lib.dumps().unwrap();
/// let set = dumps[0].set(WHOLE_PROGRAM_SET).unwrap();
/// assert_eq!(set.counts[CoreEvent::FpFma.id(0).slot().0 as usize], 1);
/// ```
pub struct CounterLibrary {
    spec: JobSpec,
    pub(crate) nodes: Mutex<Vec<NodeState>>,
    ranks_per_node: Vec<usize>,
    /// Session-supplied counter policy taking precedence over the
    /// job's (see [`SessionBuilder::counter_policy`]). The machine's
    /// schedules carry its effect; it is kept to reject divergent
    /// overrides across ranks.
    pub(crate) policy_override: Mutex<Option<CounterPolicy>>,
}

/// Process-wide map from live machines to their shared counter library,
/// so every rank's [`Session`] resolves to the same instance — the way
/// one linked copy of the interface library serves a whole job. Entries
/// die with their machine (the library holds no machine reference, so
/// there is no cycle).
type LibraryRegistry = Mutex<Vec<(Weak<Machine>, Arc<CounterLibrary>)>>;
static REGISTRY: OnceLock<LibraryRegistry> = OnceLock::new();

impl CounterLibrary {
    /// Bind the library to a machine (one instance per job). The
    /// library registers itself for checkpoint capture (snapshot
    /// section `app:counters`, see the [`state`] module), so only one
    /// library may be bound per machine — use
    /// [`CounterLibrary::for_machine`] to share an instance.
    ///
    /// # Panics
    /// Panics if a library is already bound to `machine`.
    pub fn new(machine: Arc<Machine>) -> Arc<CounterLibrary> {
        let n_nodes = machine.num_nodes();
        let mut ranks_per_node = vec![0usize; n_nodes];
        for r in 0..machine.spec().ranks {
            ranks_per_node[bgp_mpi::place(machine.spec(), r).node.0] += 1;
        }
        let lib = Arc::new(CounterLibrary {
            spec: machine.spec().clone(),
            nodes: Mutex::new((0..n_nodes).map(|_| NodeState::default()).collect()),
            ranks_per_node,
            policy_override: Mutex::new(None),
        });
        machine.register_app_state(Arc::clone(&lib) as Arc<dyn bgp_mpi::machine::AppState>);
        lib
    }

    /// The shared library of `machine`, created on first use. All
    /// [`Session`]s of a job meet here; concurrently-arriving ranks get
    /// the same instance.
    pub fn for_machine(machine: &Arc<Machine>) -> Arc<CounterLibrary> {
        let reg = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
        let mut reg = reg.lock();
        reg.retain(|(m, _)| m.strong_count() > 0);
        for (m, lib) in reg.iter() {
            if m.upgrade().is_some_and(|m| Arc::ptr_eq(&m, machine)) {
                return Arc::clone(lib);
            }
        }
        let lib = CounterLibrary::new(Arc::clone(machine));
        reg.push((Arc::downgrade(machine), Arc::clone(&lib)));
        lib
    }

    /// `BGP_Initialize()`: zero the node's UPC counters and leave
    /// counting disabled until the first `BGP_Start`. The machine
    /// already programmed the unit into the node's home mode (per the
    /// job's [`bgp_mpi::CounterPolicy`] or a session override). Reached
    /// through [`SessionBuilder::build`].
    pub(crate) fn initialize_impl(&self, ctx: &mut RankCtx) -> Result<()> {
        let node = ctx.node_id().0;
        {
            let mut nodes = self.nodes.lock();
            let st = &mut nodes[node];
            if st.init_arrivals == 0 {
                // A planned saturation fault manifests as the unit
                // clamping at u64::MAX instead of wrapping.
                let saturate = self.spec.faults.as_ref().is_some_and(|p| {
                    p.counter_faults(node as u32)
                        .iter()
                        .any(|f| matches!(f, CounterFault::Saturate { .. }))
                });
                ctx.with_own_node(|n| {
                    let upc = n.upc_mut();
                    upc.set_enabled(false);
                    upc.clear();
                    upc.set_saturating(saturate);
                });
                st.initialized = true;
            }
            st.init_arrivals += 1;
        }
        ctx.charge_cycles(INIT_CYCLES);
        ctx.trace_event(EventKind::SessionInit);
        Ok(())
    }

    /// `BGP_Start(set)`: open a counting window for `set` on this rank's
    /// node. The first arriving rank enables the unit and takes the
    /// window's start mark; peers on the same node join the same window.
    /// Reached through [`Session::start`].
    pub(crate) fn start_impl(&self, ctx: &mut RankCtx, set: u32) -> Result<()> {
        let node = ctx.node_id().0;
        {
            let mut nodes = self.nodes.lock();
            let st = &mut nodes[node];
            if !st.initialized {
                return Err(BgpError::Protocol(
                    "BGP_Start before BGP_Initialize".into(),
                ));
            }
            match st.active_set {
                None => {
                    st.active_set = Some(set);
                    st.start_arrivals = 1;
                    st.stop_arrivals = 0;
                    // `with_own_node` retires the rank's queued work, so
                    // the mark (taken outside it: it locks the node
                    // itself) sees every count before the window.
                    ctx.with_own_node(|n| n.upc_mut().set_enabled(true));
                    let mark = ctx.machine().mux_mark(node);
                    let i = st.find_set(set).unwrap_or_else(|i| {
                        st.sets.insert(i, (set, SetState::default()));
                        i
                    });
                    st.sets[i].1.start = Some(mark);
                }
                Some(active) if active == set => {
                    st.start_arrivals += 1;
                    if st.start_arrivals > self.ranks_per_node[node] {
                        return Err(BgpError::protocol(format!(
                            "set {set} started more times than ranks on node {node}"
                        )));
                    }
                }
                Some(active) => {
                    return Err(BgpError::protocol(format!(
                        "BGP_Start({set}) while set {active} is active (sets must not nest)"
                    )));
                }
            }
        }
        ctx.charge_cycles(START_CYCLES);
        ctx.trace_event(EventKind::SessionStart { set });
        Ok(())
    }

    /// `BGP_Stop(set)`: close the counting window. The last rank of the
    /// node to stop disables the unit ("monitoring of counters is
    /// stopped after the BGP_Stop()"), takes the closing mark and
    /// accumulates the window into the set. Reached through
    /// [`Session::stop`].
    pub(crate) fn stop_impl(&self, ctx: &mut RankCtx, set: u32) -> Result<()> {
        // Charge before the closing mark so the call's own cost is
        // visible to the counters exactly once (the paper includes
        // start/stop cost in its 196-cycle figure).
        ctx.charge_cycles(STOP_CYCLES);
        let node = ctx.node_id().0;
        let mut nodes = self.nodes.lock();
        let st = &mut nodes[node];
        match st.active_set {
            Some(active) if active == set => {
                st.stop_arrivals += 1;
                // The node's window spans first start → last stop: it
                // closes when every resident rank has stopped (SPMD
                // programs instrument the same regions on every rank).
                if st.stop_arrivals == self.ranks_per_node[node] {
                    // Fault injection: planned counter faults strike as
                    // the window closes — a bit flip in the counter
                    // SRAM, or a counter pegged at the saturation
                    // ceiling — so they land in the closing mark.
                    if let Some(plan) = &self.spec.faults {
                        for f in plan.counter_faults(node as u32) {
                            ctx.with_own_node(|n| match f {
                                CounterFault::BitFlip { slot, bit } => {
                                    n.upc_mut().flip_bit(slot, bit);
                                }
                                CounterFault::Saturate { slot } => {
                                    n.upc_mut().preset(slot, u64::MAX);
                                }
                            });
                            ctx.trace_event(EventKind::Fault(match f {
                                CounterFault::BitFlip { slot, bit } => {
                                    FaultEvent::CounterBitFlip { slot: slot as u16, bit }
                                }
                                CounterFault::Saturate { slot } => {
                                    FaultEvent::CounterSaturate { slot: slot as u16 }
                                }
                            }));
                        }
                    }
                    ctx.with_own_node(|n| n.upc_mut().set_enabled(false));
                    let stop = ctx.machine().mux_mark(node);
                    let i = st.find_set(set).expect("set created at start");
                    let s = &mut st.sets[i].1;
                    let start = s.start.take().expect("start mark present");
                    s.window.accumulate(&start, &stop);
                    s.records += 1;
                    st.active_set = None;
                }
                ctx.trace_event(EventKind::SessionStop { set });
                Ok(())
            }
            Some(active) => Err(BgpError::protocol(format!(
                "BGP_Stop({set}) while set {active} is active"
            ))),
            None => Err(BgpError::protocol(format!(
                "BGP_Stop({set}) without a matching BGP_Start"
            ))),
        }
    }

    /// `BGP_Finalize()`: after the last rank of a node arrives, assemble
    /// the node's binary dump. Charged after counting is disabled, so the
    /// "printing" cost never pollutes the data. Reached through
    /// [`Session::finalize`].
    pub(crate) fn finalize_impl(&self, ctx: &mut RankCtx) -> Result<()> {
        let node = ctx.node_id().0;
        {
            let mut nodes = self.nodes.lock();
            let st = &mut nodes[node];
            st.finalize_arrivals += 1;
            if st.finalize_arrivals == self.ranks_per_node[node] {
                // Ranks finalize in their own time; only the last one can
                // check the window (its own stop preceded this call, and
                // SPMD order means everyone else's did too).
                if let Some(active) = st.active_set {
                    st.finalize_arrivals -= 1;
                    return Err(BgpError::protocol(format!(
                        "BGP_Finalize with set {active} still active"
                    )));
                }
                // The dump header advertises the node's home mode — the
                // block the primary sets report (under rotation the unit
                // sits in whatever mode the last dwell left it).
                let mode = ctx.machine().home_mode(node);
                let mut sets: Vec<SetDump> = st
                    .sets
                    .iter()
                    .map(|(id, s)| SetDump {
                        id: *id,
                        records: s.records,
                        counts: s.window.block(mode).to_vec(),
                    })
                    .collect();
                // Rotating schedules add synthetic per-mode sets: the raw
                // block each mode observed, with the mode's occupancy as
                // the record count (see [`dump::MUX_SET_BASE`]).
                for (id, s) in st.sets.iter().filter(|(_, s)| s.window.rotates()) {
                    for (m, &mode) in CounterMode::ALL.iter().enumerate() {
                        sets.push(SetDump {
                            id: dump::mux_set_id(*id, m),
                            records: s.window.occupancy[m].min(u64::from(u32::MAX)) as u32,
                            counts: s.window.block(mode).to_vec(),
                        });
                    }
                    // Schedule set: per-mode enabled job cycles (the
                    // honest occupancy weight — dwell phases vary wildly
                    // in length) and enabled phase counts (see
                    // [`dump::MUX_SCHED_BASE`]).
                    let mut counts = vec![0u64; NUM_COUNTERS];
                    counts[..NUM_MODES].copy_from_slice(&s.window.cycles);
                    counts[NUM_MODES..2 * NUM_MODES].copy_from_slice(&s.window.occupancy);
                    sets.push(SetDump {
                        id: dump::mux_sched_id(*id),
                        records: 1,
                        counts,
                    });
                }
                let d = NodeDump { node: node as u32, mode, sets };
                let encoded = dump::encode(&d);
                ctx.trace_event(EventKind::CounterDump { bytes: encoded.len() as u64 });
                st.dump = Some(encoded);
            }
        }
        ctx.charge_cycles(FINALIZE_CYCLES);
        ctx.trace_event(EventKind::SessionFinalize);
        Ok(())
    }

    /// Decoded dumps of all nodes (available after every rank finalized).
    pub fn dumps(&self) -> Result<Vec<NodeDump>> {
        let nodes = self.nodes.lock();
        nodes
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let bytes = st.dump.as_ref().ok_or_else(|| {
                    BgpError::protocol(format!("node {i} never finalized"))
                })?;
                dump::decode(bytes)
            })
            .collect()
    }

    /// Write one `node_<id>.bgpc` file per node into `dir`; returns the
    /// paths.
    pub fn write_dumps(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let nodes = self.nodes.lock();
        let mut paths = Vec::with_capacity(nodes.len());
        for (i, st) in nodes.iter().enumerate() {
            let bytes = st
                .dump
                .as_ref()
                .ok_or_else(|| BgpError::protocol(format!("node {i} never finalized")))?;
            let p = dir.join(format!("node_{i:05}.bgpc"));
            std::fs::write(&p, bytes)?;
            paths.push(p);
        }
        Ok(paths)
    }

    /// Like [`CounterLibrary::write_dumps`], but filtered through a
    /// fault plan: lost nodes and planned-missing files are skipped,
    /// truncation and byte flips are applied to the written bytes.
    /// Returns the paths actually written.
    pub fn write_dumps_with_faults(
        &self,
        dir: &Path,
        plan: &FaultPlan,
    ) -> Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let nodes = self.nodes.lock();
        let mut paths = Vec::with_capacity(nodes.len());
        for (i, st) in nodes.iter().enumerate() {
            if plan.node_lost(i as u32) {
                continue; // died before flushing anything
            }
            let bytes = st
                .dump
                .as_ref()
                .ok_or_else(|| BgpError::protocol(format!("node {i} never finalized")))?;
            let bytes = match plan.dump_fault(i as u32) {
                Some(f) => match f.apply(bytes.clone()) {
                    Some(b) => b,
                    None => continue, // planned-missing file
                },
                None => bytes.clone(),
            };
            let p = dir.join(format!("node_{i:05}.bgpc"));
            std::fs::write(&p, &bytes)?;
            paths.push(p);
        }
        Ok(paths)
    }

    /// The encoded dump bytes of one node, if it finalized (the raw
    /// material the collection pipeline fetches and decodes).
    pub fn encoded_dump(&self, node: usize) -> Option<Vec<u8>> {
        let nodes = self.nodes.lock();
        nodes.get(node).and_then(|st| st.dump.clone())
    }
}

/// Read every `*.bgpc` file in `dir` (sorted by name) and decode it.
pub fn read_dumps(dir: &Path) -> Result<Vec<NodeDump>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bgpc"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| dump::decode(&std::fs::read(p)?))
        .collect()
}

/// Outcome of [`read_dumps_lenient`]: everything salvageable from a
/// directory of possibly-damaged dump files.
#[derive(Debug)]
pub struct LenientRead {
    /// Per-file recovery results (one per readable file, sorted by
    /// file name). Partially damaged files appear here with their
    /// surviving sets; check [`RecoveredDump::is_intact`].
    pub recovered: Vec<RecoveredDump>,
    /// Files whose header was unusable, with the decode error.
    pub unreadable: Vec<(PathBuf, BgpError)>,
}

impl LenientRead {
    /// The surviving per-node dumps (damaged sets already dropped).
    pub fn dumps(&self) -> Vec<NodeDump> {
        self.recovered.iter().cloned().map(RecoveredDump::into_dump).collect()
    }
}

/// Read every `*.bgpc` file in `dir` (sorted by name), salvaging what
/// each file's per-set checksums allow. Only an unreadable *directory*
/// is an error; unusable files are reported, not fatal.
pub fn read_dumps_lenient(dir: &Path) -> Result<LenientRead> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bgpc"))
        .collect();
    paths.sort();
    let mut out = LenientRead { recovered: Vec::new(), unreadable: Vec::new() };
    for p in paths {
        let bytes = match std::fs::read(&p) {
            Ok(b) => b,
            Err(e) => {
                out.unreadable.push((p, e.into()));
                continue;
            }
        };
        match dump::decode_lenient(&bytes) {
            Ok(r) => out.recovered.push(r),
            Err(e) => out.unreadable.push((p, e)),
        }
    }
    Ok(out)
}

/// Run `kernel` under whole-program instrumentation, the way linking the
/// paper's replacement MPI library instruments an application without
/// source changes: `BGP_Initialize` + `BGP_Start(0)` happen "inside
/// MPI_Init", `BGP_Stop(0)` + `BGP_Finalize` "inside MPI_Finalize".
///
/// The kernel takes its [`RankCtx`] by value and hands it back alongside
/// its result, so the finalization bracket can run against the same
/// context after the measured region (`async fn kernel(mut ctx: RankCtx)
/// -> (RankCtx, R)` is the natural shape).
///
/// Returns the per-rank kernel results and the library holding the dumps.
pub fn run_instrumented<R, F, Fut>(
    machine: &Arc<Machine>,
    kernel: F,
) -> (Vec<R>, Arc<CounterLibrary>)
where
    R: Send,
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: std::future::Future<Output = (RankCtx, R)> + Send,
{
    let lib = CounterLibrary::for_machine(machine);
    let kernel = &kernel;
    let lib_ref = &lib;
    let out =
        machine.run(move |ctx| instrumented_body(Arc::clone(lib_ref), ctx, kernel));
    (out, lib)
}

/// The whole-program bracket shared by [`run_instrumented`] and the
/// [`supervisor`]: initialize + start(0) before the kernel, stop(0) +
/// finalize after, all against the rank's own context.
pub(crate) async fn instrumented_body<R, F, Fut>(
    lib: Arc<CounterLibrary>,
    mut ctx: RankCtx,
    kernel: &F,
) -> R
where
    F: Fn(RankCtx) -> Fut,
    Fut: std::future::Future<Output = (RankCtx, R)>,
{
    lib.initialize_impl(&mut ctx).expect("BGP_Initialize");
    lib.start_impl(&mut ctx, WHOLE_PROGRAM_SET).expect("BGP_Start");
    let (mut ctx, r) = kernel(ctx).await;
    lib.stop_impl(&mut ctx, WHOLE_PROGRAM_SET).expect("BGP_Stop");
    lib.finalize_impl(&mut ctx).expect("BGP_Finalize");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::{CoreEvent, CounterMode};
    use bgp_arch::OpMode;
    use bgp_mpi::{CounterPolicy, JobSpec, SemOp};

    fn machine(ranks: usize, mode: OpMode, policy: CounterPolicy) -> Arc<Machine> {
        let mut spec = JobSpec::new(ranks, mode);
        spec.counter_policy = policy;
        Machine::new(spec)
    }

    #[test]
    fn overhead_constant_matches_paper() {
        assert_eq!(TOTAL_OVERHEAD_CYCLES, 196);
    }

    #[test]
    fn whole_program_instrumentation_produces_dumps() {
        let m = machine(
            4,
            OpMode::VirtualNode,
            CounterPolicy::Fixed(CounterMode::Mode0),
        );
        let (_, lib) = run_instrumented(&m, |mut ctx| async move {
            let mut v = ctx.alloc::<f64>(64);
            for i in 0..64 {
                ctx.st(&mut v, i, 1.0).await;
                ctx.fp1(SemOp::MulAdd);
            }
            (ctx, ())
        });
        let dumps = lib.dumps().unwrap();
        assert_eq!(dumps.len(), 1);
        let set = dumps[0].set(WHOLE_PROGRAM_SET).unwrap();
        assert_eq!(set.records, 1);
        // Core 0 retired FMAs (visible in mode 0).
        let slot = CoreEvent::FpFma.id(0).slot().0 as usize;
        assert!(set.counts[slot] >= 64, "fma count: {}", set.counts[slot]);
    }

    #[test]
    fn even_odd_policy_yields_512_event_coverage() {
        let m = machine(
            8, // two VNM nodes
            OpMode::VirtualNode,
            CounterPolicy::EvenOdd { even: CounterMode::Mode0, odd: CounterMode::Mode1 },
        );
        let (_, lib) = run_instrumented(&m, |mut ctx| async move {
            ctx.fp1(SemOp::Add); // every rank, every core
            (ctx, ())
        });
        let dumps = lib.dumps().unwrap();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].mode, CounterMode::Mode0);
        assert_eq!(dumps[1].mode, CounterMode::Mode1);
        // Node 0 observed cores 0-1; node 1 observed cores 2-3: together
        // all four per-core event blocks — 512 events of coverage.
        let s0 = dumps[0].set(WHOLE_PROGRAM_SET).unwrap();
        let s1 = dumps[1].set(WHOLE_PROGRAM_SET).unwrap();
        assert_eq!(s0.counts[CoreEvent::FpAddSub.id(0).slot().0 as usize], 1);
        assert_eq!(s0.counts[CoreEvent::FpAddSub.id(1).slot().0 as usize], 1);
        assert_eq!(s1.counts[CoreEvent::FpAddSub.id(2).slot().0 as usize], 1);
        assert_eq!(s1.counts[CoreEvent::FpAddSub.id(3).slot().0 as usize], 1);
    }

    #[test]
    fn multiplexed_job_dumps_synthetic_per_mode_sets() {
        let m = machine(
            8, // two VNM nodes
            OpMode::VirtualNode,
            CounterPolicy::Multiplexed { first: CounterMode::Mode1, base_dwell: 2 },
        );
        let (_, lib) = run_instrumented(&m, |mut ctx| async move {
            for _ in 0..24 {
                ctx.fp1(SemOp::MulAdd);
                ctx.allreduce_sum_f64(&[1.0]).await;
            }
            (ctx, ())
        });
        let dumps = lib.dumps().unwrap();
        assert_eq!(dumps.len(), 2);
        for (i, d) in dumps.iter().enumerate() {
            // Header advertises the node's staggered base mode (first +
            // node), not whatever mode the last dwell left the unit in.
            let base = CounterMode::from_index(
                (CounterMode::Mode1.index() + i) % bgp_arch::events::NUM_MODES,
            )
            .unwrap();
            assert_eq!(d.mode, base);
            // One primary set, four synthetic per-mode blocks, and the
            // rotation schedule set.
            assert_eq!(d.sets.len(), 6);
            let primary = d.set(WHOLE_PROGRAM_SET).unwrap();
            assert_eq!(primary.records, 1);
            let mut occ_total = 0u64;
            for mode in 0..bgp_arch::events::NUM_MODES {
                let id = dump::mux_set_id(WHOLE_PROGRAM_SET, mode);
                assert_eq!(dump::mux_set_parts(id), Some((WHOLE_PROGRAM_SET, mode)));
                let synth = d.set(id).unwrap();
                occ_total += u64::from(synth.records);
                // The base mode's synthetic block IS the primary data.
                if mode == base.index() {
                    assert_eq!(synth.counts, primary.counts);
                }
            }
            assert!(occ_total > 0, "window must have occupied some dwell phases");
            let sched_id = dump::mux_sched_id(WHOLE_PROGRAM_SET);
            assert!(dump::is_mux_sched(sched_id));
            let sched = d.set(sched_id).unwrap();
            assert_eq!(sched.records, 1);
            let nm = bgp_arch::events::NUM_MODES;
            let cycles: u64 = sched.counts[..nm].iter().sum();
            let phases: u64 = sched.counts[nm..2 * nm].iter().sum();
            assert!(cycles > 0, "schedule set must attribute job cycles to modes");
            assert_eq!(phases, occ_total, "schedule phases mirror synthetic records");
            assert!(sched.counts[2 * nm..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn work_outside_the_window_is_not_counted() {
        let m = machine(1, OpMode::Smp1, CounterPolicy::Fixed(CounterMode::Mode0));
        let out = m.run(|mut ctx| async move {
            let mut s = Session::builder(&mut ctx).build().unwrap();
            s.fp1(SemOp::Add); // before start: invisible
            let mut s = s.start(1).unwrap();
            s.fp1(SemOp::Add);
            s.fp1(SemOp::Add);
            let mut s = s.stop().unwrap();
            s.fp1(SemOp::Add); // after stop: invisible
            s.finalize().unwrap()
        });
        let dumps = out[0].dumps().unwrap();
        let s = dumps[0].set(1).unwrap();
        assert_eq!(s.counts[CoreEvent::FpAddSub.id(0).slot().0 as usize], 2);
    }

    #[test]
    fn multiple_start_stop_pairs_accumulate_records() {
        let m = machine(1, OpMode::Smp1, CounterPolicy::Fixed(CounterMode::Mode0));
        let out = m.run(|mut ctx| async move {
            let mut s = Session::builder(&mut ctx).build().unwrap();
            for _ in 0..3 {
                let mut counting = s.start(7).unwrap();
                counting.fp1(SemOp::Mul);
                s = counting.stop().unwrap();
            }
            s.finalize().unwrap()
        });
        let s = out[0].dumps().unwrap()[0].set(7).cloned().unwrap();
        assert_eq!(s.records, 3);
        assert_eq!(s.counts[CoreEvent::FpMult.id(0).slot().0 as usize], 3);
    }

    /// The runtime protocol checks behind the typestate [`Session`] must
    /// keep firing — they guard against SPMD divergence the types cannot
    /// see (peer ranks on one node disagreeing about the active set).
    #[test]
    fn protocol_violations_are_reported() {
        let m = machine(1, OpMode::Smp1, CounterPolicy::Fixed(CounterMode::Mode0));
        let lib = CounterLibrary::new(Arc::clone(&m));
        let lib2 = Arc::clone(&lib);
        let out = m.run(move |mut ctx| {
            let lib = Arc::clone(&lib2);
            async move {
                let ctx = &mut ctx;
                // Start before initialize:
                let e1 = lib.start_impl(ctx, 0).is_err();
                lib.initialize_impl(ctx).unwrap();
                lib.start_impl(ctx, 0).unwrap();
                // Nested different set:
                let e2 = lib.start_impl(ctx, 1).is_err();
                // Mismatched stop:
                let e3 = lib.stop_impl(ctx, 1).is_err();
                // Finalize with an open set:
                let e4 = lib.finalize_impl(ctx).is_err();
                lib.stop_impl(ctx, 0).unwrap();
                // Stop without start:
                let e5 = lib.stop_impl(ctx, 0).is_err();
                lib.finalize_impl(ctx).unwrap();
                (e1, e2, e3, e4, e5)
            }
        });
        assert_eq!(out[0], (true, true, true, true, true));
    }

    #[test]
    fn library_overhead_is_the_196_cycles_of_the_paper() {
        // Measure exactly like §IV: instrument an empty snippet and check
        // the core clock advanced by the library-call costs alone.
        let m = machine(1, OpMode::Smp1, CounterPolicy::Fixed(CounterMode::Mode0));
        let out = m.run(|mut ctx| async move {
            let t0 = ctx.cycles();
            let s = Session::builder(&mut ctx).build().unwrap();
            let s = s.start(0).unwrap();
            let s = s.stop().unwrap();
            let t1 = s.cycles();
            s.finalize().unwrap();
            t1 - t0
        });
        assert_eq!(out[0], TOTAL_OVERHEAD_CYCLES);
    }

    #[test]
    fn dumps_round_trip_through_files() {
        let m = machine(2, OpMode::Smp1, CounterPolicy::Fixed(CounterMode::Mode2));
        let (_, lib) = run_instrumented(&m, |mut ctx| async move {
            let mut v = ctx.alloc::<f64>(4096);
            for i in 0..4096 {
                ctx.st(&mut v, i, 0.5).await;
            }
            (ctx, ())
        });
        let dir = std::env::temp_dir().join(format!("bgpc_test_{}", std::process::id()));
        let paths = lib.write_dumps(&dir).unwrap();
        assert_eq!(paths.len(), 2);
        let back = read_dumps(&dir).unwrap();
        assert_eq!(back, lib.dumps().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
