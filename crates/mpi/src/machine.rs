//! The simulated **machine**: a partition of compute nodes, the three
//! interconnects, rank placement, the phase-resolution merge, and the
//! job runner.

use crate::comm::{CollKind, CollSlot, Message, Payload};
use crate::ctx::RankCtx;
use crate::mux::{MuxMark, MuxState, MuxSummary};
use crate::sched::{take_suspend, Claim, LeaveOutcome, PhaseEngine, Suspend, Wait};
use bgp_arch::events::{CounterMode, NUM_MODES};
use bgp_arch::geometry::{NodeId, TorusDims};
use bgp_arch::sync::Mutex;
use bgp_arch::{MachineConfig, OpMode};
use bgp_compiler::CompileOpts;
use bgp_faults::FaultPlan;
use bgp_mem::MemStats;
use bgp_net::{BarrierNetwork, CollectiveNetwork, NetConfig, PhaseTraffic, TorusNetwork};
use bgp_node::Node;
use bgp_snapshot::{Snapshot, SnapshotStore};
use bgp_trace::{EventKind, JobTrace, TraceConfig, TraceEvent, TraceState};
use std::any::Any;
use std::collections::VecDeque;
use std::future::Future;
use std::ops::Index;
use std::path::PathBuf;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::task::{Context, Poll, Waker};

/// Software overheads of the messaging layer (cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MpiCosts {
    /// Per-send software overhead.
    pub send_overhead: u64,
    /// Per-receive software overhead.
    pub recv_overhead: u64,
    /// Per-collective software overhead.
    pub coll_overhead: u64,
}

impl Default for MpiCosts {
    fn default() -> Self {
        MpiCosts { send_overhead: 450, recv_overhead: 450, coll_overhead: 900 }
    }
}

/// Which counter mode each node's UPC unit is programmed into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterPolicy {
    /// Every node uses the same mode (256 events of coverage).
    Fixed(CounterMode),
    /// The paper's §IV trick: even-numbered nodes use one mode, odd
    /// nodes another, yielding 512 events of coverage in a single run of
    /// an SPMD program.
    EvenOdd {
        /// Mode for even-numbered nodes.
        even: CounterMode,
        /// Mode for odd-numbered nodes.
        odd: CounterMode,
    },
    /// Adaptive multiplexing: every node rotates through all four
    /// counter modes at phase boundaries, recovering 1024 events of
    /// coverage from one run. The rotation scheduler dwells
    /// `base_dwell` phases in each mode by default, extends the dwell
    /// when the mode's sentinel counters cross their thresholds (the
    /// UPC threshold interrupts signal "this event set is hot"), and
    /// rotates early when counter derivatives collapse (a phase
    /// change). Per-mode occupancy is tracked so `bgp-postproc` can
    /// reconstruct full-run totals with error bars.
    Multiplexed {
        /// Mode node 0 starts in. Node `i` starts in mode
        /// `first + i (mod 4)` — staggering the rotation across nodes
        /// decorrelates the dwell schedule from the program's phase
        /// structure, so the cross-node sum samples every phase with
        /// every mode.
        first: CounterMode,
        /// Baseline phases to dwell in each mode (clamped to >= 1).
        base_dwell: u32,
    },
}

impl CounterPolicy {
    /// The default adaptive-multiplexing policy: start in mode 0,
    /// dwell 8 phases per mode at baseline.
    pub fn multiplexed() -> CounterPolicy {
        CounterPolicy::Multiplexed { first: CounterMode::Mode0, base_dwell: 8 }
    }

    /// Mode assigned to `node` at job start.
    pub fn mode_for(&self, node: NodeId) -> CounterMode {
        match *self {
            CounterPolicy::Fixed(m) => m,
            CounterPolicy::EvenOdd { even, odd } => {
                if node.0.is_multiple_of(2) {
                    even
                } else {
                    odd
                }
            }
            CounterPolicy::Multiplexed { first, .. } => {
                CounterMode::from_index((first.index() + node.0) % NUM_MODES)
                    .expect("mode index in range")
            }
        }
    }

    /// How many of `n_nodes` nodes start in each counter mode: the
    /// census [`CounterPolicy::mode_for`] yields over nodes `0..n_nodes`.
    /// Post-processing measures coverage against it.
    pub fn census(&self, n_nodes: usize) -> [usize; NUM_MODES] {
        let mut census = [0usize; NUM_MODES];
        for i in 0..n_nodes {
            census[self.mode_for(NodeId(i)).index()] += 1;
        }
        census
    }
}

/// Periodic checkpointing of a running job into a snapshot directory.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Write a snapshot every this many completed scheduling phases
    /// (clamped to at least 1). Capture happens at phase boundaries —
    /// the only points where the whole machine is quiescent.
    pub every: u64,
    /// Directory the [`bgp_snapshot::SnapshotStore`] rotates files in.
    pub dir: PathBuf,
    /// How many snapshot files to keep (oldest pruned first, min 1).
    pub retain: usize,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every `every` phases, keeping 3 files.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> CheckpointConfig {
        CheckpointConfig { every: every.max(1), dir: dir.into(), retain: 3 }
    }
}

/// A traced rank's quantum-window state: the window counter and the
/// node memory statistics its `MemWindow` deltas are taken against.
/// Replay does not rebuild it, so checkpoints capture it and a resume
/// restores it in place.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TraceWindow {
    pub windows: u64,
    pub last_mem: MemStats,
}

/// One rank's slot of a traced job ([`Machine::trace_window`]): the
/// live window state, and the copy a checkpoint captures. A checkpointed
/// rank copies `live` into `parked` at every park, so a capture records
/// each rank as of its last park, also a rank that closed more windows
/// after it and finished.
#[derive(Debug, Default)]
pub(crate) struct TraceSlot {
    pub live: TraceWindow,
    pub parked: TraceWindow,
}

/// Application-layer state captured into snapshots alongside the
/// machine's own (runtime libraries layered over the rank context, e.g.
/// the counter interface library in `bgp-core`). The machine keeps one
/// hook per name ([`Machine::register_app_state`]) and drops it with
/// itself; each contributes one snapshot section named `app:<name>` and
/// is restored from it on resume. The `Any` supertrait lets the layer
/// that registered a hook get its concrete type back.
pub trait AppState: Any + Send + Sync {
    /// Stable section suffix (must be identical across runs of a job).
    fn name(&self) -> &'static str;
    /// Serialize the complete state.
    fn save(&self) -> Vec<u8>;
    /// Replace the state from `bytes` (written by [`AppState::save`]).
    ///
    /// # Errors
    /// Returns a corrupt-data error to fail the resume closed.
    fn restore(&self, bytes: &[u8]) -> bgp_arch::error::Result<()>;
}

/// Complete description of one job run.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Number of MPI ranks.
    pub ranks: usize,
    /// Node operating mode (decides ranks per node).
    pub mode: OpMode,
    /// Node hardware configuration.
    pub machine: MachineConfig,
    /// Interconnect timing.
    pub net: NetConfig,
    /// UPC counter-mode assignment: the one switch for counter modes,
    /// fixed when the machine is built (default: the even/odd split).
    pub counter_policy: CounterPolicy,
    /// Compiler flags the workload was "built" with.
    pub compile: CompileOpts,
    /// Memory accesses per scheduler time slice.
    pub quantum: u64,
    /// Messaging software overheads.
    pub mpi: MpiCosts,
    /// Optional deterministic fault plan: stragglers, degraded torus
    /// routers, node loss, counter and dump corruption.
    pub faults: Option<Arc<FaultPlan>>,
    /// Worker cap: how many simulated nodes execute concurrently.
    /// `None` reads `BGP_SIM_THREADS`, falling back to the host's
    /// available parallelism. Affects wall-clock only — counter dumps
    /// are byte-identical for every value, including 1.
    pub sim_threads: Option<usize>,
    /// Tracing: `Some` arms every rank's flight recorder from cycle 0
    /// with this configuration, `None` leaves the job untraced. This is
    /// the one switch. Traces are deterministic: timestamped in
    /// simulated cycles and byte-identical for every `sim_threads`
    /// value.
    pub trace: Option<TraceConfig>,
    /// Periodic crash-safe checkpointing (`None` = off). Capture only
    /// reads machine state, so dumps, cycle counts and traces are
    /// byte-identical with checkpointing on, off, or at any cadence.
    pub checkpoint: Option<CheckpointConfig>,
    /// Kill the job (panic at a phase boundary) once its simulated
    /// wall-clock exceeds this many cycles. A supervisor treats the kill
    /// as fatal: resuming cannot un-spend simulated time.
    pub cycle_budget: Option<u64>,
    /// Name of the workload the job runs (e.g. `"mg-s"`). The engine
    /// never reads it, but it enters [`JobSpec::fingerprint`]: the spec
    /// alone cannot see *which* kernel future will run on the machine,
    /// and two different kernels on identical hardware must not share a
    /// cache key or accept each other's snapshots. `None` (the default)
    /// is itself a distinct workload name.
    pub workload: Option<String>,
}

impl JobSpec {
    /// A spec with paper-default hardware, `-O5` build, and mode-0/1
    /// even/odd counter coverage.
    pub fn new(ranks: usize, mode: OpMode) -> JobSpec {
        assert!(ranks > 0);
        JobSpec {
            ranks,
            mode,
            machine: MachineConfig::default(),
            net: NetConfig::default(),
            counter_policy: CounterPolicy::EvenOdd {
                even: CounterMode::Mode0,
                odd: CounterMode::Mode1,
            },
            compile: CompileOpts::o5(),
            quantum: 2048,
            mpi: MpiCosts::default(),
            faults: None,
            sim_threads: None,
            trace: None,
            checkpoint: None,
            cycle_budget: None,
            workload: None,
        }
    }

    /// Identity of the simulated experiment: a checksum over every field
    /// that affects simulation outcomes, plus the [`workload`] name —
    /// the kernel itself is a closure the spec cannot hash, so callers
    /// that run different kernels on identical hardware must name them
    /// to keep cache keys and snapshots apart. Snapshots embed the
    /// fingerprint and resume refuses a snapshot whose fingerprint
    /// differs — resuming an MG run into a CG machine fails closed
    /// instead of diverging silently.
    ///
    /// [`workload`]: JobSpec::workload
    ///
    /// Deliberately excluded: `sim_threads` (wall-clock only, results are
    /// byte-identical for every value), `checkpoint` (capture only reads
    /// state, so cadence and directory don't affect outcomes), and
    /// `cycle_budget` (only decides *whether* the job is killed, never
    /// what it computes).
    pub fn fingerprint(&self) -> u64 {
        let canon = format!(
            "ranks={:?} mode={:?} machine={:?} net={:?} policy={:?} compile={:?} \
             quantum={:?} mpi={:?} faults={:?} trace={:?} workload={:?}",
            self.ranks,
            self.mode,
            self.machine,
            self.net,
            self.counter_policy,
            self.compile,
            self.quantum,
            self.mpi,
            self.faults,
            self.trace,
            self.workload,
        );
        bgp_arch::wire::checksum(canon.as_bytes())
    }

    /// Number of nodes the job occupies.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.mode.processes_per_node())
    }

    /// Number of ranks node `node` hosts under [`place`]'s block
    /// placement: a full node's processes per node, or what is left on
    /// the last node.
    ///
    /// # Panics
    /// Panics if `node` is not one of the job's nodes.
    pub fn ranks_on(&self, node: usize) -> usize {
        let ppn = self.mode.processes_per_node();
        assert!(node < self.nodes(), "node {node} is not one of the job's {}", self.nodes());
        ppn.min(self.ranks - node * ppn)
    }

    /// The effective worker cap: `sim_threads`, else the
    /// `BGP_SIM_THREADS` environment variable, else the host's available
    /// parallelism (min 1).
    pub fn resolved_sim_threads(&self) -> usize {
        if let Some(t) = self.sim_threads {
            return t.max(1);
        }
        if let Ok(v) = std::env::var("BGP_SIM_THREADS") {
            if let Ok(t) = v.trim().parse::<usize>() {
                return t.max(1);
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Where one rank lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Hosting node.
    pub node: NodeId,
    /// Node-local process slot.
    pub process: usize,
    /// Core the (single-threaded) process computes on.
    pub core: usize,
}

/// Block placement: ranks fill a node's process slots before moving to
/// the next node (the CNK default XYZT-order mapping).
pub fn place(spec: &JobSpec, rank: usize) -> Placement {
    assert!(rank < spec.ranks);
    let ppn = spec.mode.processes_per_node();
    let process = rank % ppn;
    Placement {
        node: NodeId(rank / ppn),
        process,
        core: spec.mode.cores_of_process(process).start,
    }
}

/// A point-to-point message buffered in the phase outbox until the
/// phase boundary delivers it.
pub(crate) struct OutMsg {
    pub src: usize,
    pub dst: usize,
    pub tag: u32,
    pub data: Payload,
    /// Sender core clock when the send completed (injection done).
    pub sent_at: u64,
    pub src_node: NodeId,
    pub dst_node: NodeId,
}

pub(crate) struct CommInner {
    pub mailboxes: Vec<VecDeque<Message>>,
    /// The phase's sends, in push order: each sender's in send order,
    /// different senders interleaved as workers ran them. Phase
    /// resolution stable-sorts it by sender and drains it in (sender
    /// rank, send order) — the canonical order that makes delivery and
    /// link contention independent of thread scheduling.
    pub outbox: Vec<OutMsg>,
    pub slots: [CollSlot; 2],
    /// Per-phase directed-link byte loads for torus queuing delays.
    pub traffic: PhaseTraffic,
}

/// Nodes per chunk of a [`NodeTable`].
const NODE_CHUNK: usize = 1024;

/// The partition's nodes, stored in chunks of [`NODE_CHUNK`].
///
/// A full-machine partition's nodes take about 245 MB. One allocation
/// that large reuses freed heap only where an earlier job left a free run
/// at least as long; otherwise the allocator maps it fresh and the job
/// faults it in page by page. A chunk (about 3.4 MB) fits into the room
/// earlier jobs freed.
pub(crate) struct NodeTable {
    chunks: Vec<Box<[Mutex<Node>]>>,
    len: usize,
}

impl NodeTable {
    /// A table of `len` nodes, node `i` built by `make(i)` in ascending
    /// order.
    fn new(len: usize, mut make: impl FnMut(usize) -> Node) -> NodeTable {
        let chunks = (0..len)
            .step_by(NODE_CHUNK)
            .map(|start| {
                let end = (start + NODE_CHUNK).min(len);
                (start..end).map(|i| Mutex::new(make(i))).collect()
            })
            .collect();
        NodeTable { chunks, len }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every node, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Mutex<Node>> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }
}

impl Index<usize> for NodeTable {
    type Output = Mutex<Node>;

    #[inline]
    fn index(&self, node: usize) -> &Mutex<Node> {
        &self.chunks[node / NODE_CHUNK][node % NODE_CHUNK]
    }
}

/// The simulated partition.
///
/// ```
/// use bgp_arch::OpMode;
/// use bgp_mpi::{JobSpec, Machine};
///
/// // Eight ranks in Virtual Node Mode occupy two simulated nodes.
/// let machine = Machine::new(JobSpec::new(8, OpMode::VirtualNode));
/// assert_eq!(machine.num_nodes(), 2);
/// let sums = machine.run(|mut ctx| async move {
///     let mine = [ctx.rank() as f64];
///     ctx.allreduce_sum_f64(&mine).await[0]
/// });
/// assert!(sums.iter().all(|&s| s == 28.0)); // 0+1+…+7 everywhere
/// ```
pub struct Machine {
    spec: JobSpec,
    pub(crate) nodes: NodeTable,
    pub(crate) torus: TorusNetwork,
    pub(crate) coll_net: CollectiveNetwork,
    pub(crate) barrier_net: BarrierNetwork,
    pub(crate) sched: PhaseEngine,
    pub(crate) comm: Mutex<CommInner>,
    pub(crate) trace: Arc<TraceState>,
    /// Per-node counter-mode schedules. Rotating ones advance only at
    /// phase boundaries, with the machine quiescent.
    mux: MuxState,
    ran: AtomicBool,
    /// Rotating snapshot writer (present iff `spec.checkpoint` is).
    store: Option<SnapshotStore>,
    /// Phase at which the pending resume snapshot applies: set by
    /// [`Machine::resume`], `u64::MAX` once the restore goes live (or when
    /// no resume was asked for). Until then the machine replays: ranks
    /// re-execute the kernel for its *data* effects only, and the cost
    /// model (cycle charges, memory retirement, UPC, tracing, network
    /// events) is suppressed.
    resume_phase: AtomicU64,
    resume_snap: Mutex<Option<Snapshot>>,
    /// Per-rank trace-window state, present iff `spec.trace` is (see
    /// [`TraceSlot`]).
    trace_windows: Option<Box<[Mutex<TraceSlot>]>>,
    app_states: Mutex<Vec<Arc<dyn AppState>>>,
    /// Deterministic kill point for supervisor tests and fault drills:
    /// the resolving rank panics once the phase counter reaches this.
    kill_at_phase: AtomicU64,
    snap_written: AtomicU64,
    snap_bytes: AtomicU64,
    snap_nanos: AtomicU64,
    snap_last_phase: AtomicU64,
}

/// Totals of the snapshot writes a machine performed (capture cost
/// accounting for `BENCH_snapshot.json` and the `bgpc-run` report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshot files written.
    pub written: u64,
    /// Total encoded bytes across all writes.
    pub bytes: u64,
    /// Host wall-clock spent encoding + writing, in nanoseconds.
    pub save_nanos: u64,
    /// Phase of the most recent write (`None` if none happened).
    pub last_phase: Option<u64>,
}

impl Machine {
    /// Boot a partition for `spec`.
    pub fn new(spec: JobSpec) -> Arc<Machine> {
        spec.machine.validate().expect("invalid machine configuration");
        let n_nodes = spec.nodes();
        let dims = TorusDims::for_nodes(n_nodes);
        let mux = MuxState::new(n_nodes, &spec.counter_policy);
        let cfg = Arc::new(spec.machine.clone());
        let nodes = NodeTable::new(n_nodes, |i| {
            let home = spec.counter_policy.mode_for(NodeId(i));
            let mut node = Node::new(NodeId(i), Arc::clone(&cfg), spec.mode, home);
            mux.arm(node.upc_mut());
            node
        });
        let mut torus = TorusNetwork::new(dims, spec.net.clone());
        if let Some(plan) = &spec.faults {
            torus.set_fault_plan(Arc::clone(plan));
        }
        // Block placement (see `place`): rank `r` lives on node `r / ppn`.
        let ppn = spec.mode.processes_per_node();
        let trace = Arc::new(TraceState::new(spec.ranks, ppn, spec.trace.as_ref()));
        let sched = PhaseEngine::new(spec.ranks, ppn, spec.resolved_sim_threads());
        // Deadlock forensics: append the scheduler-trace tail and any
        // scheduled faults to the panic, and drop a sidecar report.
        {
            let trace = Arc::clone(&trace);
            let faults = spec.faults.clone();
            sched.set_deadlock_reporter(Box::new(move |parked| {
                let report = deadlock_report(&trace, ppn, faults.as_deref(), parked);
                let sidecar = write_deadlock_sidecar(&report);
                format!("\n{report}{sidecar}")
            }));
        }
        let store = spec
            .checkpoint
            .as_ref()
            .map(|cp| SnapshotStore::new(cp.dir.clone(), cp.retain));
        Arc::new(Machine {
            torus,
            coll_net: CollectiveNetwork::new(n_nodes, spec.net.clone()),
            barrier_net: BarrierNetwork::new(spec.net.clone()),
            sched,
            comm: Mutex::new(CommInner {
                mailboxes: (0..spec.ranks).map(|_| VecDeque::new()).collect(),
                outbox: Vec::new(),
                slots: [CollSlot::default(), CollSlot::default()],
                traffic: PhaseTraffic::new(dims, &spec.net),
            }),
            trace_windows: spec.trace.as_ref().map(|_| {
                (0..spec.ranks).map(|_| Mutex::new(TraceSlot::default())).collect()
            }),
            nodes,
            spec,
            trace,
            mux,
            ran: AtomicBool::new(false),
            store,
            resume_phase: AtomicU64::new(u64::MAX),
            resume_snap: Mutex::new(None),
            app_states: Mutex::new(Vec::new()),
            kill_at_phase: AtomicU64::new(u64::MAX),
            snap_written: AtomicU64::new(0),
            snap_bytes: AtomicU64::new(0),
            snap_nanos: AtomicU64::new(0),
            snap_last_phase: AtomicU64::new(u64::MAX),
        })
    }

    /// The job specification.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Number of nodes in the partition.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Rank `rank`'s trace-window slot.
    ///
    /// # Panics
    /// Panics if the job is untraced: only a traced job keeps slots.
    pub(crate) fn trace_window(&self, rank: usize) -> MutexGuard<'_, TraceSlot> {
        let slots = self.trace_windows.as_ref().expect("trace windows exist only in traced jobs");
        slots[rank].lock()
    }

    /// Run `f` with exclusive access to one node (inspection, counter
    /// programming). Not for use from inside rank kernels.
    pub fn with_node<T>(&self, node: usize, f: impl FnOnce(&mut Node) -> T) -> T {
        f(&mut self.nodes[node].lock())
    }

    /// Enable every node's UPC unit (convenience for tests; the counter
    /// library performs the real `BGP_Initialize` protocol).
    pub fn enable_all_counters(&self) {
        for n in self.nodes.iter() {
            n.lock().upc_mut().set_enabled(true);
        }
    }

    /// Job wall-clock in cycles: the slowest core of the slowest node.
    pub fn job_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.lock().node_cycles()).max().unwrap_or(0)
    }

    /// Completed scheduling phases (diagnostics).
    pub fn phases(&self) -> u64 {
        self.sched.phases()
    }

    /// The job's shared trace state (raw stream access; most callers
    /// want [`Machine::job_trace`]).
    pub fn trace_state(&self) -> &Arc<TraceState> {
        &self.trace
    }

    /// Snapshot the recorded trace for export, or `None` for an
    /// untraced job.
    pub fn job_trace(&self) -> Option<JobTrace> {
        self.trace.snapshot()
    }

    /// Arm this machine to continue from `snap` instead of starting
    /// cold. Must be called before [`Machine::run`]; the subsequent run
    /// replays the kernel's *data* effects (message payloads, collective
    /// contributions, control flow) through the real phase engine with
    /// the cost model suppressed, then swaps in the snapshot's timing,
    /// counter, cache and trace state once the replayed phase counter
    /// reaches `snap.phase`. From that point the run is live and —
    /// because wait satisfaction depends only on data state, which the
    /// replay rebuilds exactly — continues byte-identically to a run
    /// that was never interrupted.
    ///
    /// Identity contract: everything the *simulator* owns — counter
    /// dumps, per-core clocks, cache/DDR state, traces, `job_cycles` —
    /// is byte-identical to the uninterrupted run. A kernel's *return
    /// value* is rebuilt by replay: if it embeds raw timing
    /// observations ([`RankCtx::cycles`]) taken before the resume
    /// point, those read as 0 during replay. Kernels wanting
    /// resume-identical return values derive them from data (the
    /// instrumented NAS kernels do; their timing flows through the
    /// counter library, whose state snapshots restore).
    ///
    /// # Errors
    /// Rejects a snapshot whose fingerprint does not match this spec
    /// (wrong experiment) or whose phase is zero (nothing to skip).
    pub fn resume(&self, snap: Snapshot) -> Result<(), String> {
        assert!(!self.ran.load(Ordering::SeqCst), "resume must precede run");
        let want = self.spec.fingerprint();
        if snap.fingerprint != want {
            return Err(format!(
                "snapshot fingerprint {:#018x} does not match this job spec \
                 ({want:#018x}): refusing to resume a different experiment",
                snap.fingerprint
            ));
        }
        if snap.phase == 0 {
            return Err("snapshot phase is 0; start the job cold instead".into());
        }
        let phase = snap.phase;
        *self.resume_snap.lock() = Some(snap);
        self.resume_phase.store(phase, Ordering::SeqCst);
        Ok(())
    }

    /// Whether the machine is still replaying toward a resume point.
    pub fn replaying(&self) -> bool {
        self.resume_phase.load(Ordering::Acquire) != u64::MAX
    }

    /// Abort the job from outside (supervisor watchdog): every rank
    /// unblocks and panics, [`Machine::run`] propagates the panic.
    pub fn abort_job(&self) {
        self.sched.abort();
    }

    /// Deterministic kill point: the resolving rank panics once the
    /// phase counter reaches `phase`. Used by supervisor recovery tests
    /// and crash drills (`bgpc-run --crash-at-phase`) to die at a
    /// reproducible spot instead of on a wall-clock race.
    pub fn set_kill_at_phase(&self, phase: u64) {
        self.kill_at_phase.store(phase, Ordering::SeqCst);
    }

    /// The application-layer state registered under `name`, registering
    /// `make()` first when there is none: the machine's one registry of
    /// per-job runtime libraries. Concurrent callers get the same hook.
    /// Each hook contributes one snapshot section, `app:<name>`.
    ///
    /// # Panics
    /// Panics if `make()` returns a hook with a different name.
    pub fn register_app_state(
        &self,
        name: &str,
        make: impl FnOnce() -> Arc<dyn AppState>,
    ) -> Arc<dyn AppState> {
        let mut hooks = self.app_states.lock();
        if let Some(hook) = hooks.iter().find(|h| h.name() == name) {
            return Arc::clone(hook);
        }
        let hook = make();
        assert_eq!(hook.name(), name, "app-state hook registered under another name");
        hooks.push(Arc::clone(&hook));
        hook
    }

    /// A continuity mark of `node`'s counter totals under its schedule
    /// (see [`MuxMark`]). The counter library opens each session window
    /// with one and closes it with [`Machine::mux_close_window`]. Takes
    /// only `node`'s own locks.
    pub fn mux_mark(&self, node: usize) -> MuxMark {
        let n = self.nodes[node].lock();
        self.mux.mark(node, n.upc(), n.node_cycles())
    }

    /// Add the counts since `start` (a [`Machine::mux_mark`] of `node`)
    /// to the accumulated `window` (see [`MuxState::close_window`]).
    /// Takes only `node`'s own locks.
    pub fn mux_close_window(&self, node: usize, start: &MuxMark, window: &mut MuxMark) {
        let n = self.nodes[node].lock();
        self.mux.close_window(node, n.upc(), n.node_cycles(), start, window);
    }

    /// `node`'s home counter mode: the mode its dump header advertises
    /// and its primary sets report.
    pub fn home_mode(&self, node: usize) -> CounterMode {
        self.spec.counter_policy.mode_for(NodeId(node))
    }

    /// Aggregate rotation-schedule summary across all nodes, or `None`
    /// when no node's schedule rotates.
    pub fn mux_summary(&self) -> Option<MuxSummary> {
        self.mux.summary()
    }

    /// One phase boundary of the multiplexing scheduler: drain every
    /// node's threshold interrupts, advance the phase detectors, rotate
    /// the units whose dwell is up. Runs with the machine quiescent, in
    /// canonical node order; trace events (canonically ordered, stamped
    /// with the job clock like `PhaseResolve`) are appended after the
    /// phase's scheduler events.
    fn mux_step(&self, tracing: bool, phase: u64) {
        let mux = &self.mux;
        if !mux.rotates() {
            return;
        }
        // The job clock is stable here (machine quiescent), so the
        // phase's cycle span is deterministic for any thread count.
        let now = self.job_cycles();
        let delta = mux.advance_clock(now);
        let cycle = if tracing { now } else { 0 };
        let mut events: Vec<TraceEvent> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let out = mux.step_node(i, node.lock().upc_mut(), delta);
            if !tracing {
                continue;
            }
            for irq in &out.interrupts {
                events.push(TraceEvent {
                    cycle,
                    kind: EventKind::ThresholdInterrupt {
                        node: i as u32,
                        slot: irq.slot,
                        value: irq.value,
                        threshold: irq.threshold,
                    },
                });
            }
            if let Some((from, to, dwell)) = out.rotated {
                events.push(TraceEvent {
                    cycle,
                    kind: EventKind::CounterRotate {
                        node: i as u32,
                        from: from.index() as u8,
                        to: to.index() as u8,
                        phase,
                        dwell,
                    },
                });
            }
        }
        if !events.is_empty() {
            self.trace.extend_sched(events);
        }
    }

    /// Totals of the snapshot writes performed so far.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        let last = self.snap_last_phase.load(Ordering::Relaxed);
        SnapshotStats {
            written: self.snap_written.load(Ordering::Relaxed),
            bytes: self.snap_bytes.load(Ordering::Relaxed),
            save_nanos: self.snap_nanos.load(Ordering::Relaxed),
            last_phase: (last != u64::MAX).then_some(last),
        }
    }

    /// Merge the phase's buffered effects and compute which parked ranks
    /// become runnable. Called by the rank that emptied the frontier,
    /// with every other rank parked — the merge iterates in canonical
    /// rank order over state that no longer changes, so its outcome is
    /// independent of the thread interleaving that led here.
    pub(crate) fn resolve_phase(&self) -> Vec<usize> {
        let mut guard = self.comm.lock();
        let comm = &mut *guard;
        let resume_phase = self.resume_phase.load(Ordering::Acquire);
        let replaying = resume_phase != u64::MAX;
        // A traced job records the scheduler stream at every live
        // phase. Replay records nothing: the trace rings are restored
        // whole at go-live.
        let tracing = !replaying && self.spec.trace.is_some();
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut delivered = 0u64;
        let mut delivered_bytes = 0u64;
        let mut collectives = 0u64;

        // 1. Deliver the outbox in (sender rank, send order). Queuing
        //    delay on shared torus links accrues in this order too.
        comm.traffic.reset();
        let mut route = Vec::new();
        let mut outbox = std::mem::take(&mut comm.outbox);
        if !outbox.is_sorted_by_key(|m| m.src) {
            // Stable: each sender's messages keep their send order.
            outbox.sort_by_key(|m| m.src);
        }
        for m in outbox.drain(..) {
            self.torus.route_into(m.src_node, m.dst_node, &mut route);
            let bytes = m.data.len() as u64;
            let queue = comm.traffic.enqueue(&route, bytes);
            let ready_at = m.sent_at + queue;
            if tracing {
                delivered += 1;
                delivered_bytes += bytes;
                events.push(TraceEvent {
                    cycle: ready_at,
                    kind: EventKind::MsgDeliver {
                        src: m.src as u32,
                        dst: m.dst as u32,
                        tag: m.tag,
                        bytes,
                        queue_cycles: queue,
                    },
                });
            }
            comm.mailboxes[m.dst].push_back(Message {
                src: m.src,
                tag: m.tag,
                data: m.data,
                ready_at,
            });
        }
        // Keep the drained buffer: the next phase sends about as much.
        comm.outbox = outbox;

        // 2. Complete collectives whose every rank has arrived.
        for (idx, slot) in comm.slots.iter_mut().enumerate() {
            let fully_arrived = slot.kind.is_some()
                && !slot.complete
                && slot.arrived == self.spec.ranks;
            if fully_arrived {
                self.complete_slot(slot);
                if tracing {
                    collectives += 1;
                    events.push(TraceEvent {
                        cycle: slot.ready_at,
                        kind: EventKind::CollComplete { slot: idx as u8 },
                    });
                }
            }
        }

        // 3. Wake every parked rank whose wait is now satisfied.
        let mut wake = Vec::new();
        self.sched.for_each_parked(|rank, wait| {
            let satisfied = match wait {
                Wait::Recv { src, tag } => comm.mailboxes[rank]
                    .iter()
                    .any(|m| m.tag == tag && src.is_none_or(|s| s == m.src)),
                Wait::Collective { slot } => comm.slots[slot].complete,
            };
            if satisfied {
                wake.push(rank);
            }
        });
        if tracing {
            events.push(TraceEvent {
                cycle: self.job_cycles(),
                kind: EventKind::PhaseResolve {
                    phase: self.sched.phases(),
                    delivered,
                    delivered_bytes,
                    woken: wake.len() as u64,
                    collectives,
                    peak_link_bytes: comm.traffic.peak_link_bytes(),
                    links_loaded: comm.traffic.links_loaded() as u64,
                },
            });
            self.trace.extend_sched(events);
        }

        // Checkpoint engine. `phases()` counts *committed* phases, so at
        // this point it names the phase being resolved; the machine is
        // quiescent (every unfinished rank parked) and the merge above
        // has run, which makes this the one spot where a phase-stamped
        // state capture — or the restore replacing one — is well defined.
        let phase = self.sched.phases();
        if replaying {
            if phase == resume_phase {
                self.apply_restore(comm);
            }
        } else {
            // Counter-mode rotation precedes the checkpoint capture so a
            // snapshot sees this phase's post-rotation state; replay
            // skips it entirely (the mux section restores at go-live).
            self.mux_step(tracing, phase);
            if let Some(cp) = &self.spec.checkpoint {
                if phase > 0 && phase.is_multiple_of(cp.every) {
                    self.capture_snapshot(comm, phase);
                }
            }
            if let Some(budget) = self.spec.cycle_budget {
                if phase.is_multiple_of(CYCLE_BUDGET_CHECK_EVERY) {
                    let spent = self.job_cycles();
                    assert!(
                        spent <= budget,
                        "simulated-cycle budget exceeded: {spent} > {budget} \
                         cycles at phase {phase}"
                    );
                }
            }
            assert!(
                phase < self.kill_at_phase.load(Ordering::Acquire),
                "job killed by supervisor watchdog at phase {phase} (injected kill point)"
            );
        }
        wake
    }

    /// Serialize the complete machine state at the end of resolving
    /// `phase` and rotate it into the snapshot store. Capture only
    /// *reads* simulation state, so results are byte-identical with
    /// checkpointing on or off; a failed write degrades crash coverage,
    /// not the job, so it warns instead of panicking.
    fn capture_snapshot(&self, comm: &mut CommInner, phase: u64) {
        let store = self.store.as_ref().expect("capture without a store");
        let t0 = std::time::Instant::now();
        let mut snap = Snapshot::new(self.spec.fingerprint(), phase);

        // Nodes: cores (issue/stall/instruction counters, FPU), the
        // memory hierarchy, UPC units, instruction-fetch cursors.
        let mut buf = Vec::new();
        bgp_arch::wire::put_u64(&mut buf, self.nodes.len() as u64);
        for n in self.nodes.iter() {
            n.lock().save_state(&mut buf);
        }
        snap.add_section("nodes", buf);

        // Communication timing + a digest of the data state replay must
        // reproduce (the outbox was drained by the merge above).
        debug_assert!(comm.outbox.is_empty());
        let mut buf = Vec::new();
        save_comm(comm, &mut buf);
        snap.add_section("comm", buf);

        // Rank-local trace-window state as of each rank's last park,
        // which replay does not rebuild. An untraced job keeps no slots
        // and writes a count of 0.
        let slots = self.trace_windows.as_deref().unwrap_or_default();
        let mut buf = Vec::new();
        bgp_arch::wire::put_u64(&mut buf, slots.len() as u64);
        for slot in slots {
            let w = slot.lock().parked;
            bgp_arch::wire::put_u64(&mut buf, w.windows);
            w.last_mem.save_state(&mut buf);
        }
        snap.add_section("ranks", buf);

        let mut buf = Vec::new();
        self.trace.save_state(&mut buf);
        snap.add_section("trace", buf);

        // Counter-mode schedules (the fingerprint pins the policy, so
        // saver and restorer agree on which of them rotate).
        let mut buf = Vec::new();
        self.mux.save_state(&mut buf);
        snap.add_section("mux", buf);

        for hook in self.app_states.lock().iter() {
            snap.add_section(&format!("app:{}", hook.name()), hook.save());
        }

        match store.save(&snap) {
            Ok(path) => {
                self.snap_written.fetch_add(1, Ordering::Relaxed);
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                self.snap_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.snap_last_phase.store(phase, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!(
                    "bgp-mpi: warning: checkpoint write at phase {phase} failed \
                     ({e}); the job continues without this restart point"
                );
            }
        }
        self.snap_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Go live: the replayed phase counter has reached the snapshot's
    /// phase, the machine is quiescent, and the replay has rebuilt the
    /// data state — verify that via the comm digests, then swap in the
    /// snapshot's timing, counter, cache, trace and application state.
    /// Any mismatch is a replay-divergence bug (the snapshot's own
    /// integrity was checksum-verified at load), so it fails loud.
    fn apply_restore(&self, comm: &mut CommInner) {
        let snap = self
            .resume_snap
            .lock()
            .take()
            .expect("go-live phase reached twice");

        let bytes = snap.section_required("nodes").expect("nodes section");
        let mut r = bgp_arch::wire::Reader::new(bytes);
        let n = r.u64("node count").expect("node count");
        assert_eq!(n as usize, self.nodes.len(), "snapshot node count mismatch");
        for node in self.nodes.iter() {
            node.lock().restore_state(&mut r).expect("node state restore failed");
        }
        r.expect_end("nodes section").expect("trailing bytes in nodes section");

        let bytes = snap.section_required("comm").expect("comm section");
        let mut r = bgp_arch::wire::Reader::new(bytes);
        restore_comm(comm, &mut r).expect("comm state restore failed");
        r.expect_end("comm section").expect("trailing bytes in comm section");

        let bytes = snap.section_required("ranks").expect("ranks section");
        let mut r = bgp_arch::wire::Reader::new(bytes);
        let slots = self.trace_windows.as_deref().unwrap_or_default();
        let n = r.u64("rank count").expect("rank count");
        assert_eq!(n as usize, slots.len(), "snapshot rank-slot count mismatch");
        for slot in slots {
            let windows = r.u64("rank windows").expect("rank windows");
            let mut last_mem = MemStats::default();
            last_mem.restore_state(&mut r).expect("rank mem baseline");
            let w = TraceWindow { windows, last_mem };
            *slot.lock() = TraceSlot { live: w, parked: w };
        }
        r.expect_end("ranks section").expect("trailing bytes in ranks section");

        let bytes = snap.section_required("trace").expect("trace section");
        let mut r = bgp_arch::wire::Reader::new(bytes);
        self.trace.restore_state(&mut r).expect("trace state restore failed");
        r.expect_end("trace section").expect("trailing bytes in trace section");

        let bytes = snap.section_required("mux").expect("mux section");
        let mut r = bgp_arch::wire::Reader::new(bytes);
        self.mux.restore_state(&mut r).expect("mux state restore failed");
        r.expect_end("mux section").expect("trailing bytes in mux section");

        let hooks = self.app_states.lock();
        for hook in hooks.iter() {
            let name = format!("app:{}", hook.name());
            let bytes = snap
                .section_required(&name)
                .unwrap_or_else(|e| panic!("{e}: registered hooks must match the saved run"));
            hook.restore(bytes)
                .unwrap_or_else(|e| panic!("app-state restore {name:?} failed: {e}"));
        }
        // The converse must also fail closed: a saved app section with
        // no hook to receive it would silently resume with default
        // library state.
        for name in snap.section_names() {
            if let Some(suffix) = name.strip_prefix("app:") {
                assert!(
                    hooks.iter().any(|h| h.name() == suffix),
                    "snapshot section {name:?} has no registered app-state                      hook; register it before resuming"
                );
            }
        }
        drop(hooks);

        // Flip live. Parked ranks observe this after their next acquire
        // (see `RankCtx::park_on`) — i.e. before any of them executes
        // another instruction.
        self.resume_phase.store(u64::MAX, Ordering::SeqCst);
    }

    /// Finish one collective: combine contributions, price the network
    /// operation, and stamp the availability time.
    fn complete_slot(&self, slot: &mut CollSlot) {
        let kind = slot.kind.expect("completing an idle slot");
        let n = self.spec.ranks;
        let cost = collective_cost(self, kind, slot, n);
        slot.ready_at = slot.t_max + self.spec.mpi.coll_overhead + cost;
        match kind {
            CollKind::Reduce { op, .. } | CollKind::Allreduce { op } => {
                let mut acc = slot.contrib[0].clone().expect("rank 0 contribution missing");
                for r in 1..n {
                    op.combine(
                        &mut acc,
                        slot.contrib[r].as_ref().expect("contribution missing"),
                    );
                }
                slot.result = acc;
            }
            CollKind::Bcast { root } => {
                slot.result = slot.contrib[root].clone().expect("root contribution missing");
            }
            CollKind::Barrier | CollKind::Alltoall => {}
        }
        slot.complete = true;
    }

    /// Execute the SPMD `kernel` on every rank.
    ///
    /// A rank is **not** an OS thread: `kernel` maps each rank's owned
    /// [`RankCtx`] to an `async` state machine — a compact,
    /// compiler-generated continuation — and a fixed pool of
    /// [`JobSpec::resolved_sim_threads`] workers multiplexes all of
    /// them, so a 294,912-rank job costs per-rank kilobytes, not
    /// stacks. Up to one worker per node executes concurrently between
    /// synchronization points, with cross-node effects merged
    /// deterministically at phase boundaries. The run may be executed
    /// exactly once per machine and its counter results are
    /// byte-identical for every worker-cap value. Returns the per-rank
    /// kernel results in rank order.
    ///
    /// The kernel closure is called once per rank, ascending, before
    /// execution begins; async-block bodies only start running once the
    /// workers poll them.
    pub fn run<R, F, Fut>(self: &Arc<Self>, kernel: F) -> Vec<R>
    where
        R: Send,
        F: Fn(RankCtx) -> Fut,
        Fut: Future<Output = R> + Send,
    {
        assert!(
            !self.ran.swap(true, Ordering::SeqCst),
            "a Machine can only run one job; build a new one"
        );
        // Build every rank's state machine eagerly, in rank order, on
        // this thread: RankCtx construction has (order-independent)
        // observable effects — trace arming, fault surfacing — and
        // doing it here keeps them deterministic.
        let slots: Vec<Mutex<RankSlot<Fut, R>>> = (0..self.spec.ranks)
            .map(|rank| {
                let ctx = RankCtx::new(Arc::clone(self), rank);
                Mutex::new(RankSlot { fut: Some(Box::pin(kernel(ctx))), result: None })
            })
            .collect();
        // First panic payload wins: the root cause (deadlock report,
        // budget message, kill point, kernel bug) aborts the engine, so
        // everything after it is a consequence.
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let workers = self.sched.workers().min(self.num_nodes()).max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let slots = &slots;
                let first_panic = &first_panic;
                let mach = Arc::clone(self);
                s.spawn(move || {
                    // One catch_unwind around the whole worker body
                    // covers kernel polls, phase resolution, and engine
                    // asserts alike; a panicking worker must abort the
                    // engine, otherwise its peers wait for a wakeup that
                    // never comes and the job hangs instead of failing.
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&mach, slots);
                    }));
                    if let Err(e) = out {
                        let mut p = first_panic.lock();
                        if p.is_none() {
                            *p = Some(e);
                        }
                        drop(p);
                        mach.sched.abort();
                    }
                });
            }
        });
        if let Some(e) = first_panic.lock().take() {
            std::panic::resume_unwind(e);
        }
        if self.sched.is_aborted() {
            // Externally aborted (supervisor watchdog): no worker
            // panicked, but the job did not finish.
            panic!("{}", ABORT_ECHO);
        }
        slots
            .iter()
            .map(|s| s.lock().result.take().expect("rank finished without a result"))
            .collect()
    }
}

/// One rank's execution state under the worker pool: its pinned
/// continuation while running, its result once finished.
struct RankSlot<Fut, R> {
    fut: Option<Pin<Box<Fut>>>,
    result: Option<R>,
}

/// The wakeup side of polling is vestigial — workers re-poll a rank
/// exactly when the engine says it may run — so the waker does nothing.
struct NoopWake;

impl std::task::Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// One worker: claim a node, drive its ranks on the node-local rotation
/// until none are ready, repeat. The rotation runs on the claimed
/// node view without touching the engine lock — sound because ready
/// ranks only leave the view through this worker, and wakes happen only
/// at phase commits, which cannot occur while this node has a ready
/// rank.
fn worker_loop<R, Fut>(mach: &Arc<Machine>, slots: &[Mutex<RankSlot<Fut, R>>])
where
    Fut: Future<Output = R>,
{
    let waker = Waker::from(Arc::new(NoopWake));
    let mut cx = Context::from_waker(&waker);
    'claims: loop {
        let mut view = match mach.sched.claim() {
            Claim::Run(v) => v,
            Claim::Finished | Claim::Aborted => return,
        };
        loop {
            if mach.sched.is_aborted() {
                return;
            }
            let rank = view.current();
            let local = view.cursor;
            let mut slot = slots[rank].lock();
            let poll = slot
                .fut
                .as_mut()
                .expect("polling a finished rank")
                .as_mut()
                .poll(&mut cx);
            let outcome = match poll {
                Poll::Ready(r) => {
                    slot.result = Some(r);
                    slot.fut = None; // continuation (and its RankCtx) retires here
                    drop(slot);
                    mach.sched.finish(rank)
                }
                Poll::Pending => {
                    drop(slot);
                    match take_suspend() {
                        Some(Suspend::Yield) => {
                            // Stays in the frontier: rotate locally.
                            let rotated = view.rotate();
                            debug_assert!(rotated, "a yielding rank is itself ready");
                            continue;
                        }
                        Some(Suspend::Park(wait)) => mach.sched.park(rank, wait),
                        None => panic!(
                            "rank {rank} suspended outside an engine suspension point \
                             (kernels must only await RankCtx operations)"
                        ),
                    }
                }
            };
            match outcome {
                LeaveOutcome::Continue => {
                    view.unready(local);
                    let rotated = view.rotate();
                    debug_assert!(rotated, "Continue implies another ready rank");
                }
                LeaveOutcome::Released => continue 'claims,
                LeaveOutcome::Resolve => {
                    // This worker emptied the frontier: merge the
                    // phase's buffered effects, open the next one and
                    // claim from the lowest node.
                    let wake = mach.resolve_phase();
                    mach.sched.commit_phase(&wake);
                    continue 'claims;
                }
                LeaveOutcome::Aborted => return,
            }
        }
    }
}

/// The panic message ranks die with when a *peer* failed first (see
/// [`Machine::run`]'s payload selection).
pub const ABORT_ECHO: &str = "job aborted: a peer rank panicked";

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads; anything else reads as an empty string). Lets
/// supervisors classify failures re-raised by [`Machine::run`].
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        ""
    }
}

/// How often (in phases) the simulated-cycle budget is compared against
/// `job_cycles()` — the check locks every node, so it is amortized.
const CYCLE_BUDGET_CHECK_EVERY: u64 = 64;

/// Encode the communication layer's *timing* state (per-message
/// availability times, per-slot arrival/availability times) plus digests
/// of its *data* state. Replay rebuilds the data exactly — payloads,
/// ordering, collective progress are pure functions of the kernel — so
/// only timing is stored; the digests let the restore prove that
/// assumption held before it splices restored clocks onto replayed data.
fn save_comm(comm: &CommInner, out: &mut Vec<u8>) {
    use bgp_arch::wire::{checksum, put_bytes, put_u32, put_u64};
    put_u64(out, comm.mailboxes.len() as u64);
    let mut dbuf = Vec::new();
    for mb in &comm.mailboxes {
        put_u64(out, mb.len() as u64);
        for m in mb {
            put_u64(out, m.ready_at);
            put_u64(&mut dbuf, m.src as u64);
            put_u32(&mut dbuf, m.tag);
            put_bytes(&mut dbuf, &m.data);
        }
    }
    put_u64(out, checksum(&dbuf));
    let mut sbuf = Vec::new();
    for slot in &comm.slots {
        put_u64(out, slot.t_max);
        put_u64(out, slot.ready_at);
        digest_slot_data(slot, &mut sbuf);
    }
    put_u64(out, checksum(&sbuf));
}

/// Restore the timing fields written by [`save_comm`] onto the replayed
/// communication state, verifying the data digests match.
fn restore_comm(comm: &mut CommInner, r: &mut bgp_arch::wire::Reader<'_>) -> bgp_arch::error::Result<()> {
    use bgp_arch::error::BgpError;
    use bgp_arch::wire::{checksum, put_bytes, put_u32, put_u64};
    let n = r.u64("mailbox count")? as usize;
    if n != comm.mailboxes.len() {
        return Err(BgpError::corrupt(format!(
            "snapshot has {n} mailboxes, replay produced {}",
            comm.mailboxes.len()
        )));
    }
    let mut dbuf = Vec::new();
    for (i, mb) in comm.mailboxes.iter_mut().enumerate() {
        let len = r.u64("mailbox length")? as usize;
        if len != mb.len() {
            return Err(BgpError::corrupt(format!(
                "replay divergence: mailbox {i} holds {} messages, snapshot \
                 recorded {len}",
                mb.len()
            )));
        }
        for m in mb.iter_mut() {
            m.ready_at = r.u64("message ready_at")?;
            put_u64(&mut dbuf, m.src as u64);
            put_u32(&mut dbuf, m.tag);
            put_bytes(&mut dbuf, &m.data);
        }
    }
    let want = r.u64("mailbox digest")?;
    if checksum(&dbuf) != want {
        return Err(BgpError::corrupt(
            "replay divergence: mailbox payloads differ from the snapshot's",
        ));
    }
    let mut sbuf = Vec::new();
    for slot in comm.slots.iter_mut() {
        slot.t_max = r.u64("slot t_max")?;
        slot.ready_at = r.u64("slot ready_at")?;
        digest_slot_data(slot, &mut sbuf);
    }
    let want = r.u64("slot digest")?;
    if checksum(&sbuf) != want {
        return Err(BgpError::corrupt(
            "replay divergence: collective slot state differs from the snapshot's",
        ));
    }
    Ok(())
}

/// Append a canonical encoding of a collective slot's *data* state (the
/// part replay must reproduce: everything but `t_max`/`ready_at`).
fn digest_slot_data(slot: &CollSlot, out: &mut Vec<u8>) {
    use bgp_arch::wire::{put_bytes, put_u64, put_u8};
    match slot.kind {
        None => put_u8(out, 0),
        Some(CollKind::Barrier) => put_u8(out, 1),
        Some(CollKind::Bcast { root }) => {
            put_u8(out, 2);
            put_u64(out, root as u64);
        }
        Some(CollKind::Reduce { root, op }) => {
            put_u8(out, 3);
            put_u64(out, root as u64);
            put_u8(out, reduce_op_tag(op));
        }
        Some(CollKind::Allreduce { op }) => {
            put_u8(out, 4);
            put_u8(out, reduce_op_tag(op));
        }
        Some(CollKind::Alltoall) => put_u8(out, 5),
    }
    put_u64(out, slot.arrived as u64);
    put_u64(out, slot.consumed as u64);
    put_u8(out, u8::from(slot.complete));
    put_u64(out, slot.contrib.len() as u64);
    for c in &slot.contrib {
        match c {
            None => put_u8(out, 0),
            Some(p) => {
                put_u8(out, 1);
                put_bytes(out, p);
            }
        }
    }
    put_u64(out, slot.matrix.len() as u64);
    for row in &slot.matrix {
        put_u64(out, row.len() as u64);
        for p in row {
            put_bytes(out, p);
        }
    }
    put_bytes(out, &slot.result);
}

fn reduce_op_tag(op: crate::comm::ReduceOp) -> u8 {
    use crate::comm::ReduceOp::*;
    match op {
        SumF64 => 0,
        MaxF64 => 1,
        MinF64 => 2,
        SumU64 => 3,
        MaxU64 => 4,
    }
}

/// Completion cost (cycles) of a collective once all ranks have arrived.
fn collective_cost(machine: &Machine, kind: CollKind, slot: &CollSlot, n: usize) -> u64 {
    let net = &machine.spec().net;
    match kind {
        CollKind::Barrier => machine.barrier_net.barrier_cycles(),
        CollKind::Bcast { root } => {
            let bytes = slot.contrib[root].as_ref().map_or(0, |p| p.len() as u64);
            machine.coll_net.broadcast(bytes).cycles
        }
        CollKind::Reduce { .. } => {
            let bytes = slot.contrib[0].as_ref().map_or(0, |p| p.len() as u64);
            machine.coll_net.reduce(bytes).cycles
        }
        CollKind::Allreduce { .. } => {
            let bytes = slot.contrib[0].as_ref().map_or(0, |p| p.len() as u64);
            machine.coll_net.reduce(bytes).cycles + machine.coll_net.broadcast(bytes).cycles
        }
        CollKind::Alltoall => {
            // Each rank injects (n-1) chunks serially; the last byte also
            // crosses up to the torus diameter.
            let max_out = (0..n)
                .map(|src| {
                    slot.matrix[src]
                        .iter()
                        .enumerate()
                        .filter(|&(d, _)| d != src)
                        .map(|(_, p)| p.len() as u64)
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0);
            let dims = machine.torus.dims();
            let diameter = (dims.x / 2 + dims.y / 2 + dims.z / 2).max(1) as u64;
            max_out.div_ceil(net.torus_bytes_per_cycle) + diameter * net.torus_hop_cycles
        }
    }
}

/// Scheduler events included in a deadlock report.
const DEADLOCK_TRACE_TAIL: usize = 32;

/// Assemble the deadlock forensics report: per-rank wait states (with
/// hosting nodes), the tail of the scheduler trace, and any faults
/// scheduled against the involved nodes.
fn deadlock_report(
    trace: &TraceState,
    ranks_per_node: usize,
    faults: Option<&FaultPlan>,
    parked: &[(usize, Wait)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("--- deadlock forensics ---\n");
    out.push_str("per-rank wait states:\n");
    for (rank, wait) in parked {
        let _ = writeln!(out, "  rank {rank} (node {}): {wait}", rank / ranks_per_node);
    }
    let recent = trace.recent_sched(DEADLOCK_TRACE_TAIL);
    if recent.is_empty() {
        out.push_str(
            "scheduler trace: empty (enable tracing via JobSpec::trace to \
             capture phase timelines)\n",
        );
    } else {
        let _ = writeln!(out, "last {} scheduler events (newest last):", recent.len());
        for e in &recent {
            let _ = writeln!(out, "  {e}");
        }
    }
    if let Some(plan) = faults {
        let mut nodes: Vec<usize> = parked.iter().map(|(r, _)| r / ranks_per_node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut any = false;
        for node in nodes {
            let summary = plan.node_fault_summary(node as u32);
            if !summary.is_empty() {
                if !any {
                    out.push_str("scheduled faults on involved nodes:\n");
                    any = true;
                }
                let _ = writeln!(out, "  node {node}: {}", summary.join(", "));
            }
        }
        if !any {
            out.push_str("scheduled faults on involved nodes: none\n");
        }
    }
    out
}

/// Best-effort sidecar write of the deadlock report, to `$BGP_TRACE_DIR`
/// or the system temp directory. Returns a note for the panic message.
fn write_deadlock_sidecar(report: &str) -> String {
    let dir = std::env::var_os("BGP_TRACE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let path = dir.join(format!("bgp-deadlock-{}.txt", std::process::id()));
    match std::fs::write(&path, report) {
        Ok(()) => format!("sidecar report: {}", path.display()),
        Err(e) => format!("(sidecar write to {} failed: {e})", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_fills_nodes_in_block_order() {
        let spec = JobSpec::new(8, OpMode::VirtualNode);
        assert_eq!(spec.nodes(), 2);
        assert_eq!(place(&spec, 0), Placement { node: NodeId(0), process: 0, core: 0 });
        assert_eq!(place(&spec, 3), Placement { node: NodeId(0), process: 3, core: 3 });
        assert_eq!(place(&spec, 4), Placement { node: NodeId(1), process: 0, core: 0 });
    }

    #[test]
    fn smp1_gives_each_rank_its_own_node() {
        let spec = JobSpec::new(4, OpMode::Smp1);
        assert_eq!(spec.nodes(), 4);
        for r in 0..4 {
            let p = place(&spec, r);
            assert_eq!(p.node, NodeId(r));
            assert_eq!((p.process, p.core), (0, 0));
        }
    }

    #[test]
    fn dual_mode_packs_two_processes_per_node() {
        let spec = JobSpec::new(4, OpMode::Dual);
        assert_eq!(spec.nodes(), 2);
        assert_eq!(place(&spec, 1), Placement { node: NodeId(0), process: 1, core: 2 });
    }

    #[test]
    fn uneven_rank_count_rounds_nodes_up() {
        // SP/BT run 121 ranks; in VNM that needs 31 nodes.
        let spec = JobSpec::new(121, OpMode::VirtualNode);
        assert_eq!(spec.nodes(), 31);
    }

    #[test]
    fn census_counts_nodes_per_starting_mode() {
        let even_odd = CounterPolicy::EvenOdd { even: CounterMode::Mode0, odd: CounterMode::Mode1 };
        assert_eq!(even_odd.census(5), [3, 2, 0, 0]);
        assert_eq!(CounterPolicy::Fixed(CounterMode::Mode2).census(7), [0, 0, 7, 0]);
        let mux = CounterPolicy::Multiplexed { first: CounterMode::Mode3, base_dwell: 8 };
        assert_eq!(mux.census(7), [2, 2, 1, 2]);
    }

    #[test]
    fn even_odd_policy_programs_alternating_modes() {
        let spec = JobSpec::new(16, OpMode::VirtualNode);
        let m = Machine::new(spec);
        assert_eq!(m.with_node(0, |n| n.upc().mode()), CounterMode::Mode0);
        assert_eq!(m.with_node(1, |n| n.upc().mode()), CounterMode::Mode1);
        assert_eq!(m.with_node(2, |n| n.upc().mode()), CounterMode::Mode0);
    }

    #[test]
    fn multiplexed_policy_rotates_through_modes_during_a_job() {
        let mut spec = JobSpec::new(8, OpMode::VirtualNode);
        spec.counter_policy = CounterPolicy::Multiplexed {
            first: CounterMode::Mode2,
            base_dwell: 2,
        };
        let m = Machine::new(spec);
        assert_eq!(m.with_node(0, |n| n.upc().mode()), CounterMode::Mode2);
        m.enable_all_counters();
        let start = m.mux_mark(0);
        m.run(|mut ctx| async move {
            for _ in 0..32 {
                ctx.allreduce_sum_f64(&[1.0]).await;
            }
        });
        let stop = m.mux_mark(0);
        let s = m.mux_summary().expect("mux policy has a summary");
        assert!(s.rotations > 0, "32 collectives must cross a 2-phase dwell");
        assert!(s.occupancy.iter().sum::<u64>() > 0);
        // Nothing counted before the job; its counts land in every mode.
        assert!(start.totals.is_empty(), "an all-zero mark holds no totals");
        assert_eq!(stop.totals.len(), bgp_arch::events::NUM_EVENTS);
        let mut w = MuxMark::default();
        m.mux_close_window(0, &start, &mut w);
        assert_eq!(w.totals, stop.totals);
        assert!(w.occupancy.iter().sum::<u64>() > 0);
        assert!(
            w.cycles.iter().sum::<u64>() > 0,
            "phase boundaries must attribute job cycles to the occupied mode"
        );
    }

    #[test]
    fn machine_runs_exactly_once() {
        let m = Machine::new(JobSpec::new(2, OpMode::VirtualNode));
        let out = m.run(|ctx| async move { ctx.rank() * 10 });
        assert_eq!(out, vec![0, 10]);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(|ctx| async move { ctx.rank() });
        }));
        assert!(res.is_err(), "second run must be rejected");
    }

    #[test]
    fn tracing_is_on_exactly_when_the_spec_carries_a_config() {
        let run = |trace: Option<TraceConfig>| {
            let mut spec = JobSpec::new(8, OpMode::VirtualNode);
            spec.trace = trace;
            let m = Machine::new(spec);
            m.run(|mut ctx| async move {
                for _ in 0..4 {
                    ctx.allreduce_sum_f64(&[1.0]).await;
                }
            });
            m
        };
        let untraced = run(None);
        assert!(untraced.job_trace().is_none());
        assert_eq!(untraced.trace_state().events_recorded(), 0, "every ring stays empty");

        let traced = run(Some(TraceConfig::default()));
        let trace = traced.job_trace().expect("traced job exports a trace");
        let resolves = trace.sched.iter().filter(|e| e.kind.name() == "phase_resolve").count();
        assert_eq!(resolves as u64, traced.phases(), "one phase_resolve per phase");
        assert_eq!(trace.ranks.len(), 8);
        assert!(trace.ranks.iter().all(|r| !r.events.is_empty()), "every rank records");
    }

    #[test]
    fn deadlock_panic_carries_trace_forensics() {
        let mut spec = JobSpec::new(2, OpMode::Smp1);
        spec.trace = Some(TraceConfig::default());
        let m = Machine::new(spec);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(|mut ctx| async move {
                if ctx.rank() == 0 {
                    ctx.recv(Some(1), 99).await; // rank 1 never sends: deadlock
                }
            });
        }));
        assert!(res.is_err(), "deadlocked job must panic");
        let sidecar =
            std::env::temp_dir().join(format!("bgp-deadlock-{}.txt", std::process::id()));
        let report = std::fs::read_to_string(&sidecar).expect("sidecar report written");
        let _ = std::fs::remove_file(&sidecar);
        assert!(report.contains("deadlock forensics"), "missing header:\n{report}");
        assert!(
            report.contains("rank 0 (node 0): recv(src=1, tag=99)"),
            "missing wait state:\n{report}"
        );
        assert!(report.contains("phase_resolve"), "missing scheduler trace tail:\n{report}");
    }

    #[test]
    fn explicit_sim_threads_overrides_env() {
        let mut spec = JobSpec::new(2, OpMode::Smp1);
        spec.sim_threads = Some(3);
        assert_eq!(spec.resolved_sim_threads(), 3);
        spec.sim_threads = Some(0);
        assert_eq!(spec.resolved_sim_threads(), 1, "cap is clamped to at least one");
    }
}
