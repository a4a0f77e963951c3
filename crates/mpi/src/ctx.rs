//! **RankCtx** — the world as seen by one MPI rank.
//!
//! A kernel is an `async` function that owns a `RankCtx` and uses it for
//! everything observable:
//!
//! * *memory*: allocate [`SimVec`]s and access elements (each access
//!   walks the node's cache hierarchy and retires a load/store) —
//!   accesses are `async` because every one may cross a scheduling
//!   quantum,
//! * *arithmetic*: retire the FP instructions the modeled compiler
//!   selects for each semantic operation ([`RankCtx::fp_pair`] and
//!   friends consult the build's [`bgp_compiler::CodeGen`]) — these
//!   stay synchronous: arithmetic does not tick the quantum,
//! * *messaging*: point-to-point sends/receives over the torus and the
//!   collective operations over the tree/barrier networks.
//!
//! Every memory access ticks the node-local scheduling quantum and every
//! MPI call is a scheduling point; each such point is an **explicit
//! suspension** (`.await`) where the rank's compiler-generated state
//! machine hands its continuation back to the worker pool (see
//! `crate::sched`). Ranks of one node thereby interleave finely enough
//! to contend for the shared L3 and DDR ports — while ranks on
//! *different* nodes run concurrently between phase boundaries.
//!
//! ## Batched retirement
//!
//! Accesses and arithmetic are not applied to the node one at a time:
//! the rank keeps counts between flush points, the way the UPC counts
//! events in hardware and is read only at window boundaries. Accesses
//! queue as L1-line runs with per-width-class tallies, arithmetic as
//! per-class tallies, all in one `bgp_node::OpBatch`; at the next *flush
//! point* it retires in one node visit — one node-lock acquisition, one
//! hierarchy batch walk over the runs, one aggregated UPC update per
//! class. Flush points are exactly the places another party could
//! observe node state: the scheduling-quantum boundary, thread switches,
//! clock reads, tracing samples, and every messaging call. Because
//! same-node ranks only interleave at those boundaries (the phase engine
//! guarantees it), the batched timeline is observationally identical to
//! per-op retirement — up to the value a threshold interrupt captures
//! when it fires, which is the count at a fold boundary;
//! `tests/determinism.rs` and the differential suites in
//! `bgp-mem`/`bgp-node` pin this.

use crate::comm::{bytes_to_f64s, f64s_to_bytes, CollKind, Payload, ReduceOp};
use crate::machine::{place, Machine, OutMsg, Placement};
use crate::sched::{Suspend, SuspendPoint, Wait};
use crate::simvec::{SimElem, SimVec};
use bgp_arch::events::NetEvent;
use bgp_compiler::{CodeGen, PairPlan};
use bgp_fpu::FpOp;
use bgp_node::{MemWidth, Node, OpBatch};
use bgp_trace::{EventKind, FaultEvent, WaitKind};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{ready, Context, Poll};

/// A semantic floating-point element operation, before instruction
/// selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SemOp {
    /// `a ± b`.
    Add,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `a * b + c` — fuses to FMA when the build allows.
    MulAdd,
}

/// One simulated access, awaited by every accessor of [`RankCtx`]. Its
/// first poll ticks the quantum; an access that crosses it closes the
/// window and suspends once, and the access is queued by the poll that
/// completes, so it lands in the window the boundary opens. A
/// hand-written future rather than an `async fn`: an `async fn` moves
/// its arguments into its coroutine frame on the first poll, a store
/// and reload on every access; this `poll` reads the fields in place.
struct Access<'a> {
    ctx: &'a mut RankCtx,
    vaddr: u64,
    width: MemWidth,
    write: bool,
    /// Set while suspended at a quantum boundary.
    boundary: Option<SuspendPoint>,
}

impl Future for Access<'_> {
    type Output = ();

    #[inline]
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match &mut this.boundary {
            Some(boundary) => ready!(Pin::new(boundary).poll(cx)),
            None if this.ctx.tick() => {
                this.ctx.close_quantum();
                let boundary = this.boundary.insert(SuspendPoint::new(Suspend::Yield));
                return Pin::new(boundary).poll(cx);
            }
            None => {}
        }
        this.ctx.queue_mem(this.vaddr, this.width, this.write);
        Poll::Ready(())
    }
}

/// Execution context of one rank.
///
/// Every rank's future holds it, so it keeps only state a rank touches
/// on its hot paths (at most 256 bytes, pinned by a test): what the
/// spec fixes is read from [`Machine::spec`], and the trace-window
/// state of a traced job lives in the machine's per-rank slot.
pub struct RankCtx {
    machine: Arc<Machine>,
    rank: usize,
    place: Placement,
    /// Thread currently executing (OpenMP-style); selects the core
    /// within the process's core range. 0 = the master thread.
    active_thread: u8,
    cg: CodeGen,
    alloc_cursor: u64,
    tick: u64,
    quantum: u64,
    coll_count: u64,
    /// Extra cycles charged at every scheduling boundary when this
    /// rank's node is a planned straggler (0 otherwise).
    straggler_penalty: u64,
    /// Whether this rank records trace events: the job's spec carries a
    /// `TraceConfig`. Cached rank-local, so every trace hook of an
    /// untraced job is a plain branch.
    tracing: bool,
    /// Resume replay: the kernel re-executes for its data effects only,
    /// with the cost model (retirement, cycle charges, UPC, tracing,
    /// network events) suppressed. Cached from the machine's flag and
    /// refreshed after every `acquire` — flips happen only while all
    /// ranks are parked, so the cache is exact (see
    /// [`Machine::resume`]).
    replay: bool,
    /// Ops counted since the last flush point. In a `RefCell` so the
    /// `&self` observation paths ([`RankCtx::cycles`],
    /// [`RankCtx::with_own_node`]) can retire it before reading.
    pending: RefCell<OpBatch>,
}

impl RankCtx {
    pub(crate) fn new(machine: Arc<Machine>, rank: usize) -> RankCtx {
        let spec = machine.spec();
        let place = place(spec, rank);
        let cg = CodeGen::new(spec.compile);
        let quantum = spec.quantum.max(1);
        let straggler_penalty = spec
            .faults
            .as_ref()
            .map_or(0, |p| p.straggler_penalty(place.node.0 as u32));
        let replay = machine.replaying();
        let mut ctx = RankCtx {
            machine,
            rank,
            place,
            active_thread: 0,
            cg,
            alloc_cursor: 0,
            tick: 0,
            quantum,
            coll_count: 0,
            straggler_penalty,
            tracing: false,
            replay,
            pending: RefCell::new(OpBatch::default()),
        };
        // Tracing is a job property (JobSpec::trace): every rank of a
        // traced job records from cycle 0.
        if ctx.machine.spec().trace.is_some() {
            ctx.arm_tracing();
        }
        ctx
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the job.
    pub fn size(&self) -> usize {
        self.machine.spec().ranks
    }

    /// Hosting node id.
    pub fn node_id(&self) -> bgp_arch::NodeId {
        self.place.node
    }

    /// The machine this rank runs on (for runtime libraries layered over
    /// the context, e.g. the counter session in `bgp-core`).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Core the **active thread** computes on.
    pub fn core(&self) -> usize {
        self.place.core + usize::from(self.active_thread)
    }

    /// Hardware threads this process may run (per the operating mode).
    pub fn threads(&self) -> usize {
        self.machine.spec().mode.threads_per_process()
    }

    /// Switch execution to OpenMP-style thread `t` (core
    /// `process_base + t`). Thread 0 is the master; MPI calls are only
    /// legal from the master (MPI_THREAD_FUNNELED, like the hybrid codes
    /// the paper anticipates in SIX).
    ///
    /// # Panics
    /// Panics if `t` exceeds the operating mode's threads per process.
    pub fn set_thread(&mut self, t: usize) {
        let threads = self.threads();
        assert!(
            t < threads,
            "thread {t} out of range: mode allows {threads} threads/process"
        );
        if t != usize::from(self.active_thread) {
            // Queued ops belong to the *outgoing* thread's core.
            self.flush_pending();
            self.active_thread = t as u8;
        }
    }

    /// The static contiguous split of `0..n` over this process's
    /// threads — an OpenMP `parallel for` schedule. A kernel iterates
    /// the chunks, selects each chunk's thread with
    /// [`RankCtx::set_thread`], runs (and `.await`s) the chunk's body,
    /// and closes the region with [`RankCtx::omp_join`]:
    ///
    /// ```ignore
    /// for (t, r) in ctx.omp_chunks(n) {
    ///     ctx.set_thread(t);
    ///     for i in r { /* simulated work, may .await */ }
    /// }
    /// ctx.omp_join();
    /// ```
    ///
    /// (The split is returned as data rather than driven through a
    /// closure so chunk bodies can suspend — each thread's work retires
    /// on its own core under the simulator's bulk-synchronous execution,
    /// so the node's wall-clock is the slowest thread.)
    pub fn omp_chunks(&self, n: usize) -> Vec<(usize, core::ops::Range<usize>)> {
        let threads = self.threads();
        let chunk = n.div_ceil(threads);
        (0..threads)
            .map(|t| (t, (t * chunk).min(n)..((t + 1) * chunk).min(n)))
            .collect()
    }

    /// Close an OpenMP parallel region opened with
    /// [`RankCtx::omp_chunks`]: return execution to the master thread
    /// and apply the fork/join barrier (the master resumes only after
    /// the slowest thread finished).
    pub fn omp_join(&mut self) {
        let threads = self.threads();
        self.set_thread(0);
        // The join below reads timebases directly, so nothing may be
        // left queued (set_thread already flushed unless threads == 1).
        self.flush_pending();
        if self.replay {
            return;
        }
        let cores: Vec<usize> = (0..threads).map(|t| self.place.core + t).collect();
        let node = self.place.node.0;
        let mut m = self.machine.nodes[node].lock();
        let t_max = cores.iter().map(|&c| m.timebase(c)).max().unwrap_or(0);
        for &c in &cores {
            m.advance_to(c, t_max);
        }
    }

    /// This rank's core clock (cycles).
    pub fn cycles(&self) -> u64 {
        if self.replay {
            // Replay suppresses all cycle charging; the restored clocks
            // arrive wholesale at go-live.
            return 0;
        }
        self.flush_pending();
        let core = self.core();
        self.with_node(|n| n.timebase(core))
    }

    /// Charge raw cycles to this rank's core (runtime-library overheads —
    /// used by the counter interface library to model its call costs).
    pub fn charge_cycles(&mut self, n: u64) {
        if self.replay {
            return;
        }
        self.flush_pending();
        let core = self.core();
        self.with_node(|node| node.charge_cycles(core, n));
    }

    /// Run `f` with exclusive access to this rank's node. Intended for
    /// runtime libraries layered over the context (the counter library's
    /// snapshot path); kernels should not need it.
    pub fn with_own_node<T>(&self, f: impl FnOnce(&mut Node) -> T) -> T {
        self.flush_pending();
        self.with_node(f)
    }

    #[inline]
    fn with_node<T>(&self, f: impl FnOnce(&mut Node) -> T) -> T {
        f(&mut self.machine.nodes[self.place.node.0].lock())
    }

    // ------------------------------------------------------------------
    // Batched retirement
    // ------------------------------------------------------------------

    /// Retire everything counted since the last flush as one node visit
    /// (see [`Node::retire`] for the order). Moving arithmetic after
    /// memory within one flush epoch is exact: the two touch disjoint
    /// machine state (cache/DDR vs FPU/issue counters), every charge is
    /// additive, and no observation can occur mid-epoch — observers
    /// flush first.
    pub(crate) fn flush_pending(&self) {
        let mut batch = self.pending.borrow_mut();
        if batch.is_empty() {
            return;
        }
        let (core, process) = (self.core(), self.place.process);
        self.with_node(|node| node.retire(core, process, &mut batch));
    }

    /// Tally arithmetic through `add`, which adds what fits and says
    /// whether all of it did; a full tally retires the batch first and
    /// the rest goes into the emptied one. Replay counts nothing.
    #[inline]
    fn tally(&mut self, mut add: impl FnMut(&mut OpBatch) -> bool) {
        if self.replay {
            return;
        }
        while !add(self.pending.get_mut()) {
            self.flush_pending();
        }
    }

    /// Tally `n` FP retirements of class `op`.
    #[inline]
    fn push_fp(&mut self, op: FpOp, mut n: u64) {
        self.tally(|b| {
            n = b.add_fp(op, n);
            n == 0
        });
    }

    #[inline]
    fn push_int(&mut self, mut n: u64) {
        self.tally(|b| {
            n = b.add_int(n);
            n == 0
        });
    }

    #[inline]
    fn push_branch(&mut self, mut n: u64, mut mispredicted: u64) {
        self.tally(|b| {
            (n, mispredicted) = b.add_branches(n, mispredicted);
            n == 0
        });
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Start recording (once, from [`RankCtx::new`]).
    fn arm_tracing(&mut self) {
        // The baseline memory snapshot must include everything queued.
        self.flush_pending();
        let baseline = self.with_node(|n| n.mem_stats());
        self.machine.trace_window(self.rank).live.last_mem = baseline;
        self.tracing = true;
        // Surface this node's scheduled faults at the head of the
        // stream, so a perturbed timeline is self-explaining.
        if let Some(plan) = &self.machine.spec().faults {
            let node = self.place.node.0 as u32;
            let penalty = plan.straggler_penalty(node);
            let degraded = plan.router_degraded(node);
            if penalty > 0 {
                self.trace_event(EventKind::Fault(FaultEvent::Straggler {
                    penalty_cycles: penalty,
                }));
            }
            if degraded {
                self.trace_event(EventKind::Fault(FaultEvent::RouterDegraded));
            }
        }
    }

    /// Record `kind` into this rank's stream, timestamped with the
    /// rank's core clock. A no-op unless tracing is on.
    pub fn trace_event(&self, kind: EventKind) {
        if self.tracing && !self.replay {
            let cycle = self.cycles();
            self.machine.trace.record_rank(self.rank, cycle, kind);
        }
    }

    /// A quantum window closed while tracing: periodically sample live
    /// UPC counters and the node's memory-traffic window.
    fn trace_window_end(&mut self) {
        let mut slot = self.machine.trace_window(self.rank);
        let w = &mut slot.live;
        w.windows += 1;
        let cfg = self
            .machine
            .spec()
            .trace
            .as_ref()
            .expect("tracing implies a trace config");
        if cfg.sample_every == 0 || !w.windows.is_multiple_of(cfg.sample_every) {
            return;
        }
        let core = self.core();
        // Node-level memory stats are sampled by process 0 only, so a
        // VNM node doesn't report the same window four times.
        let sample_mem = self.place.process == 0;
        let slots = &cfg.sample_slots;
        let (cycle, mem_now, values) = self.with_node(|n| {
            (
                n.timebase(core),
                sample_mem.then(|| n.mem_stats()),
                n.upc().read_slots(slots),
            )
        });
        if let Some(now) = mem_now {
            let d = now.delta(&w.last_mem);
            w.last_mem = now;
            self.machine.trace.record_rank(
                self.rank,
                cycle,
                EventKind::MemWindow {
                    window: w.windows,
                    l3_hits: d.l3_hits,
                    l3_misses: d.l3_misses,
                    ddr_reads: d.ddr_reads,
                    ddr_writes: d.ddr_writes,
                },
            );
        }
        for (&slot, value) in slots.iter().zip(values) {
            self.machine.trace.record_rank(
                self.rank,
                cycle,
                EventKind::CounterSample { slot, value },
            );
        }
    }

    /// Yield the turn now (MPI boundary): suspend so same-node peers
    /// can run, staying in the current phase's frontier.
    pub(crate) async fn yield_now(&mut self) {
        self.flush_pending();
        // Straggler injection: a sick node pays extra latency at every
        // messaging boundary — OS noise, a flaky DIMM retraining, a
        // thermally throttled chip. Charged here so the slowdown shows
        // up in cycle counters and in everyone who waits on this rank.
        if self.straggler_penalty > 0 && !self.replay {
            let core = self.core();
            let penalty = self.straggler_penalty;
            self.with_node(|node| node.charge_cycles(core, penalty));
        }
        self.tick = 0;
        SuspendPoint::new(Suspend::Yield).await;
    }

    /// A memory access crossed the scheduling quantum: close the window
    /// (the cold side of [`RankCtx::tick`]; the access then suspends).
    fn close_quantum(&mut self) {
        self.tick = 0;
        // Retire the closing window's slice before it can be sampled
        // or another rank of this node takes its turn.
        self.flush_pending();
        if self.tracing {
            self.trace_window_end();
        }
    }

    /// Park until a phase resolution satisfies `wait`: suspend with the
    /// wait reason; the worker pool re-polls this rank only after a
    /// resolution wakes it.
    async fn park_on(&mut self, wait: Wait) {
        debug_assert!(
            self.pending.borrow().is_empty(),
            "rank parked with unretired pending ops"
        );
        self.trace_event(EventKind::RankPark {
            wait: wait_kind(wait),
        });
        if self.tracing && !self.replay && self.machine.spec().checkpoint.is_some() {
            // A checkpoint capture may run while this rank is parked.
            let mut slot = self.machine.trace_window(self.rank);
            slot.parked = slot.live;
        }
        SuspendPoint::new(Suspend::Park(wait)).await;
        self.tick = 0;
        if self.replay && !self.machine.replaying() {
            // Go-live: the resume snapshot was applied while everyone was
            // parked (trace-window state straight into the machine's
            // slots); run live from the first instruction after this wake.
            self.replay = false;
        }
        self.trace_event(EventKind::RankWake);
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Allocate a simulated array of `n` elements in this rank's
    /// process-virtual address space (32-byte aligned, zero-initialized).
    ///
    /// # Panics
    /// Panics if the process memory partition is exhausted.
    pub fn alloc<T: SimElem>(&mut self, n: usize) -> SimVec<T> {
        let base = (self.alloc_cursor + 31) & !31;
        let bytes = n as u64 * T::BYTES;
        let spec = self.machine.spec();
        let limit = spec.machine.memory_bytes / spec.mode.processes_per_node() as u64;
        assert!(
            base + bytes <= limit,
            "rank {} out of simulated memory: {base} + {bytes} > {limit}",
            self.rank
        );
        self.alloc_cursor = base + bytes;
        SimVec::from_parts(vec![T::default(); n], base)
    }

    /// One access of `width` at `vaddr`, to be awaited.
    #[inline]
    fn access(&mut self, vaddr: u64, width: MemWidth, write: bool) -> Access<'_> {
        Access {
            ctx: self,
            vaddr,
            width,
            write,
            boundary: None,
        }
    }

    /// Count one access against the scheduling quantum; `true` when it
    /// crosses the quantum, so [`RankCtx::close_quantum`] must run and
    /// the rank suspend before the access is queued. Replay ticks
    /// nothing.
    #[inline]
    fn tick(&mut self) -> bool {
        if self.replay {
            return false;
        }
        self.tick += 1;
        self.tick >= self.quantum
    }

    /// Queue one access, after its [`RankCtx::tick`]. Replay retires
    /// nothing, but the codegen selectors are stateful Bresenham
    /// streams, so the decision the live run consumed here must still be
    /// consumed.
    #[inline]
    fn queue_mem(&mut self, vaddr: u64, width: MemWidth, write: bool) {
        let redundant = self.cg.redundant_mem();
        if self.replay {
            return;
        }
        self.push_mem(vaddr, width, write);
        if redundant {
            // Spill/reload pair of a register-starved build: reload
            // the same datum (an extra issued load, usually L1-hot; it
            // extends the access's own run).
            self.push_mem(vaddr, MemWidth::Double, false);
        }
    }

    /// Queue one access into the batch, retiring the batch first when
    /// the access's class tally is full.
    #[inline]
    fn push_mem(&mut self, vaddr: u64, width: MemWidth, write: bool) {
        while !self.pending.get_mut().push_mem(vaddr, width, write) {
            self.flush_pending();
        }
    }

    /// Simulated element load.
    #[inline]
    pub async fn ld<T: SimElem>(&mut self, v: &SimVec<T>, i: usize) -> T {
        self.access(v.addr(i), T::WIDTH, false).await;
        v.raw(i)
    }

    /// Simulated element store.
    #[inline]
    pub async fn st<T: SimElem>(&mut self, v: &mut SimVec<T>, i: usize, x: T) {
        self.access(v.addr(i), T::WIDTH, true).await;
        *v.raw_mut(i) = x;
    }

    // ------------------------------------------------------------------
    // Streaming access (contiguous runs)
    // ------------------------------------------------------------------
    //
    // The NAS kernels spend most of their access budget in unit-stride
    // loops (halo packing, field initialization, vector sweeps). These
    // helpers charge a whole contiguous run with one call: consecutive
    // same-line accesses extend one queued L1-line run, which retires
    // with the rest of the batch through `Node::retire` as one hierarchy
    // walk. Each is op-for-op identical to the equivalent `ld`/`st`
    // loop.

    /// Charge sequential loads of `v[r]`; read the values back with
    /// [`SimVec::raw`] (free of simulated cost, like all host reads).
    pub async fn ld_range<T: SimElem>(&mut self, v: &SimVec<T>, r: core::ops::Range<usize>) {
        for i in r {
            self.access(v.addr(i), T::WIDTH, false).await;
        }
    }

    /// Charge sequential stores to `v[r]`; the caller writes the values
    /// through [`SimVec::raw_mut`] (or already has).
    pub async fn st_range<T: SimElem>(&mut self, v: &mut SimVec<T>, r: core::ops::Range<usize>) {
        for i in r {
            self.access(v.addr(i), T::WIDTH, true).await;
        }
    }

    /// Store `x` to every element of `v[r]` — the memset-shaped pattern
    /// of field zeroing loops.
    pub async fn st_fill<T: SimElem>(
        &mut self,
        v: &mut SimVec<T>,
        r: core::ops::Range<usize>,
        x: T,
    ) {
        for i in r {
            self.access(v.addr(i), T::WIDTH, true).await;
            *v.raw_mut(i) = x;
        }
    }

    // ------------------------------------------------------------------
    // Compiled arithmetic
    // ------------------------------------------------------------------

    /// Ask the build how to lower the next element pair of a loop whose
    /// data parallelism is (`true`) or is not (`false`) provable.
    #[inline]
    pub fn plan_pair(&mut self, vectorizable: bool) -> PairPlan {
        self.cg.plan_pair(vectorizable)
    }

    /// Load elements `i`, `i+1` under `plan`: one quadload (SIMD) or two
    /// double loads (scalar).
    #[inline]
    pub async fn ld2(&mut self, v: &SimVec<f64>, i: usize, plan: PairPlan) -> (f64, f64) {
        match plan {
            PairPlan::Simd => self.access(v.addr(i), MemWidth::Quad, false).await,
            PairPlan::Scalar => {
                self.access(v.addr(i), MemWidth::Double, false).await;
                self.access(v.addr(i + 1), MemWidth::Double, false).await;
            }
        }
        (v.raw(i), v.raw(i + 1))
    }

    /// Store elements `i`, `i+1` under `plan`.
    #[inline]
    pub async fn st2(&mut self, v: &mut SimVec<f64>, i: usize, x: (f64, f64), plan: PairPlan) {
        match plan {
            PairPlan::Simd => self.access(v.addr(i), MemWidth::Quad, true).await,
            PairPlan::Scalar => {
                self.access(v.addr(i), MemWidth::Double, true).await;
                self.access(v.addr(i + 1), MemWidth::Double, true).await;
            }
        }
        *v.raw_mut(i) = x.0;
        *v.raw_mut(i + 1) = x.1;
    }

    /// Retire the instructions of one semantic op applied to an element
    /// **pair** under `plan`.
    pub fn fp_pair(&mut self, plan: PairPlan, sem: SemOp) {
        let fma = self.cg.fma();
        match (plan, sem) {
            (PairPlan::Simd, SemOp::MulAdd) if fma => self.push_fp(FpOp::SimdFma, 1),
            (PairPlan::Simd, SemOp::MulAdd) => {
                self.push_fp(FpOp::SimdMult, 1);
                self.push_fp(FpOp::SimdAddSub, 1);
            }
            (PairPlan::Simd, SemOp::Add) => self.push_fp(FpOp::SimdAddSub, 1),
            (PairPlan::Simd, SemOp::Mul) => self.push_fp(FpOp::SimdMult, 1),
            (PairPlan::Simd, SemOp::Div) => self.push_fp(FpOp::SimdDiv, 1),
            (PairPlan::Scalar, SemOp::MulAdd) if fma => self.push_fp(FpOp::Fma, 2),
            (PairPlan::Scalar, SemOp::MulAdd) => {
                self.push_fp(FpOp::Mult, 2);
                self.push_fp(FpOp::AddSub, 2);
            }
            (PairPlan::Scalar, SemOp::Add) => self.push_fp(FpOp::AddSub, 2),
            (PairPlan::Scalar, SemOp::Mul) => self.push_fp(FpOp::Mult, 2),
            (PairPlan::Scalar, SemOp::Div) => self.push_fp(FpOp::Div, 2),
        }
    }

    /// Retire the instructions of one semantic op on a **single** element
    /// (loop remainders, genuinely scalar code).
    pub fn fp1(&mut self, sem: SemOp) {
        self.fp_scalar_n(sem, 1);
    }

    /// Retire `n` scalar instructions of one semantic class in a single
    /// batch (register-resident arithmetic such as RNG transforms or
    /// polynomial iterations, where per-element calls would be wasteful).
    pub fn fp_scalar_n(&mut self, sem: SemOp, n: u64) {
        if n == 0 {
            return;
        }
        let fma = self.cg.fma();
        match sem {
            SemOp::MulAdd if fma => self.push_fp(FpOp::Fma, n),
            SemOp::MulAdd => {
                self.push_fp(FpOp::Mult, n);
                self.push_fp(FpOp::AddSub, n);
            }
            SemOp::Add => self.push_fp(FpOp::AddSub, n),
            SemOp::Mul => self.push_fp(FpOp::Mult, n),
            SemOp::Div => self.push_fp(FpOp::Div, n),
        }
    }

    /// Retire the instructions of `n` scalar math-library evaluations
    /// (`ln`, `sqrt`, …) as the build lowers them — a generic libm call
    /// at the baseline, an inlined FMA sequence at `-O4`/`-O5`.
    pub fn libm_calls(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let p = self.cg.libm();
        let fma = self.cg.fma();
        if fma {
            self.push_fp(FpOp::Fma, p.fma * n);
        } else {
            self.push_fp(FpOp::Mult, p.fma * n);
            self.push_fp(FpOp::AddSub, p.fma * n);
        }
        self.push_fp(FpOp::Mult, p.mul * n);
        self.push_fp(FpOp::Div, p.div * n);
        self.push_int(p.int_ops * n);
    }

    /// Retire the loop-overhead instructions accompanying `elements` of
    /// useful work (address arithmetic, induction updates, back-branches;
    /// amount depends on the build's optimization level).
    pub fn overhead(&mut self, elements: u64) {
        let o = self.cg.overhead(elements);
        self.push_int(o.int_ops);
        self.push_branch(o.branches, o.mispredicts);
    }

    /// Retire raw integer instructions (index computation, key handling —
    /// used by the integer-sort kernel).
    pub fn int_ops(&mut self, n: u64) {
        self.push_int(n);
    }

    // ------------------------------------------------------------------
    // Point-to-point messaging (torus)
    // ------------------------------------------------------------------

    /// Send `data` to `dst` with `tag`. Non-overtaking per (src, dst).
    ///
    /// Sends never block: the message buffers in the phase outbox and
    /// is delivered — with per-phase torus link contention added to its
    /// arrival time — when the current phase resolves.
    pub async fn send(&mut self, dst: usize, tag: u32, data: Payload) {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        // `sent_at` must see every queued op's stall.
        self.flush_pending();
        let bytes = data.len() as u64;
        let dst_node = place(self.machine.spec(), dst).node;
        let sent_at = if self.replay {
            // The message itself (payload, ordering) is data state and
            // must flow; its injection cost and timestamp are not.
            0
        } else {
            let cost = self
                .machine
                .torus
                .transfer(self.place.node, dst_node, bytes);
            let overhead = self.machine.spec().mpi.send_overhead;
            let core = self.core();
            self.with_node(|n| {
                n.charge_cycles(core, overhead + cost.cycles);
                n.emit_event(NetEvent::TorusPktSent.id(), cost.packets);
                n.emit_event(NetEvent::TorusBytesSent.id(), bytes);
                n.emit_event(NetEvent::TorusHops.id(), cost.hops);
                n.timebase(core)
            })
        };
        self.machine.comm.lock().outbox.push(OutMsg {
            src: self.rank,
            dst,
            tag,
            data,
            sent_at,
            src_node: self.place.node,
            dst_node,
        });
        if self.tracing && !self.replay {
            self.machine.trace.record_rank(
                self.rank,
                sent_at,
                EventKind::MsgSend {
                    dst: dst as u32,
                    tag,
                    bytes,
                },
            );
        }
        self.yield_now().await;
    }

    /// Receive a message from `src` (or any source) with `tag`. Blocks
    /// until a matching message arrives.
    pub async fn recv(&mut self, src: Option<usize>, tag: u32) -> Payload {
        // `advance_to(ready_at)` is a clock *max*, not additive: every
        // queued op must retire before it.
        self.flush_pending();
        loop {
            let msg = {
                let mut comm = self.machine.comm.lock();
                let mb = &mut comm.mailboxes[self.rank];
                let idx = mb
                    .iter()
                    .position(|m| m.tag == tag && src.is_none_or(|s| s == m.src));
                let msg = idx.and_then(|i| mb.remove(i));
                if mb.is_empty() {
                    // Most ranks hold no message between phases: an
                    // empty mailbox keeps no buffer.
                    *mb = VecDeque::new();
                }
                msg
            };
            if let Some(msg) = msg {
                if !self.replay {
                    let bytes = msg.data.len() as u64;
                    let packet = self.machine.spec().net.torus_packet_bytes;
                    let packets = bytes.div_ceil(packet).max(1);
                    let overhead = self.machine.spec().mpi.recv_overhead;
                    let core = self.core();
                    self.with_node(|n| {
                        n.advance_to(core, msg.ready_at);
                        n.charge_cycles(core, overhead);
                        n.emit_event(NetEvent::TorusPktRecv.id(), packets);
                        n.emit_event(NetEvent::TorusBytesRecv.id(), bytes);
                    });
                }
                return msg.data;
            }
            self.park_on(Wait::Recv { src, tag }).await;
        }
    }

    /// Exchange with a partner: send then receive (mailboxes are
    /// unbounded, so this cannot deadlock pairwise).
    pub async fn sendrecv(&mut self, peer: usize, tag: u32, data: Payload) -> Payload {
        self.send(peer, tag, data).await;
        self.recv(Some(peer), tag).await
    }

    // ------------------------------------------------------------------
    // Collectives (tree + barrier networks)
    // ------------------------------------------------------------------

    /// Global barrier over the dedicated barrier network.
    pub async fn barrier(&mut self) {
        self.collective(CollKind::Barrier, Contrib::None).await;
    }

    /// Broadcast `data` from `root`; non-roots pass `None` and receive
    /// the root's payload.
    pub async fn bcast(&mut self, root: usize, data: Option<Payload>) -> Payload {
        let contrib = if self.rank == root {
            Contrib::Bytes(data.expect("root must supply the broadcast payload"))
        } else {
            Contrib::None
        };
        match self.collective(CollKind::Bcast { root }, contrib).await {
            CollResult::Bytes(b) => b,
            _ => unreachable!("bcast returns bytes"),
        }
    }

    /// Reduce `data` to `root` with `op`; only the root receives the
    /// combined payload.
    pub async fn reduce(&mut self, root: usize, op: ReduceOp, data: Payload) -> Option<Payload> {
        match self
            .collective(CollKind::Reduce { root, op }, Contrib::Bytes(data))
            .await
        {
            CollResult::Bytes(b) => Some(b),
            CollResult::None => None,
            _ => unreachable!("reduce returns bytes or nothing"),
        }
    }

    /// All-reduce with `op`; every rank receives the combined payload.
    pub async fn allreduce(&mut self, op: ReduceOp, data: Payload) -> Payload {
        match self
            .collective(CollKind::Allreduce { op }, Contrib::Bytes(data))
            .await
        {
            CollResult::Bytes(b) => b,
            _ => unreachable!("allreduce returns bytes"),
        }
    }

    /// Convenience: all-reduce a `f64` slice by summation.
    pub async fn allreduce_sum_f64(&mut self, vals: &[f64]) -> Vec<f64> {
        bytes_to_f64s(&self.allreduce(ReduceOp::SumF64, f64s_to_bytes(vals)).await)
    }

    /// Personalized all-to-all: `rows[d]` goes to rank `d`; returns the
    /// chunks every rank addressed to this one (in source order).
    pub async fn alltoall(&mut self, rows: Vec<Payload>) -> Vec<Payload> {
        assert_eq!(rows.len(), self.size(), "alltoall needs one chunk per rank");
        match self
            .collective(CollKind::Alltoall, Contrib::Row(rows))
            .await
        {
            CollResult::Column(c) => c,
            _ => unreachable!("alltoall returns a column"),
        }
    }

    async fn collective(&mut self, kind: CollKind, contrib: Contrib) -> CollResult {
        let slot_idx = (self.coll_count % 2) as usize;
        self.coll_count += 1;
        let n = self.size();
        let my_cycles = self.cycles();
        {
            let mut comm = self.machine.comm.lock();
            let slot = &mut comm.slots[slot_idx];
            if slot.kind.is_none() {
                slot.begin(n, kind);
            }
            assert_eq!(
                slot.kind,
                Some(kind),
                "rank {} entered a different collective than its peers",
                self.rank
            );
            match contrib {
                Contrib::None => {}
                Contrib::Bytes(p) => slot.contrib[self.rank] = Some(p),
                Contrib::Row(row) => slot.matrix[self.rank] = row,
            }
            slot.arrived += 1;
            slot.t_max = slot.t_max.max(my_cycles);
        }
        // Completion (combine + pricing) happens at phase resolution once
        // every rank has arrived — even the last arriver parks, so the
        // merge always runs over a quiescent machine.
        loop {
            if self.machine.comm.lock().slots[slot_idx].complete {
                break;
            }
            self.park_on(Wait::Collective { slot: slot_idx }).await;
        }

        // Consume: read my share, then free the slot.
        let (result, ready_at, sent_bytes, recv_bytes) = {
            let mut comm = self.machine.comm.lock();
            let slot = &mut comm.slots[slot_idx];
            let ra = slot.ready_at;
            let (result, sent, recvd) = match kind {
                CollKind::Barrier => (CollResult::None, 0, 0),
                CollKind::Bcast { root } => {
                    let b = slot.result.clone();
                    let sent = if self.rank == root { b.len() as u64 } else { 0 };
                    (CollResult::Bytes(b.clone()), sent, b.len() as u64)
                }
                CollKind::Reduce { root, .. } => {
                    let mine = slot.contrib[self.rank]
                        .as_ref()
                        .map_or(0, |p| p.len() as u64);
                    if self.rank == root {
                        let b = slot.result.clone();
                        let len = b.len() as u64;
                        (CollResult::Bytes(b), mine, len)
                    } else {
                        (CollResult::None, mine, 0)
                    }
                }
                CollKind::Allreduce { .. } => {
                    let mine = slot.contrib[self.rank]
                        .as_ref()
                        .map_or(0, |p| p.len() as u64);
                    let b = slot.result.clone();
                    let len = b.len() as u64;
                    (CollResult::Bytes(b), mine, len)
                }
                CollKind::Alltoall => {
                    let col: Vec<Payload> = (0..n)
                        .map(|src| slot.matrix[src][self.rank].clone())
                        .collect();
                    let sent: u64 = slot.matrix[self.rank]
                        .iter()
                        .enumerate()
                        .filter(|&(d, _)| d != self.rank)
                        .map(|(_, p)| p.len() as u64)
                        .sum();
                    let recvd: u64 = col
                        .iter()
                        .enumerate()
                        .filter(|&(s, _)| s != self.rank)
                        .map(|(_, p)| p.len() as u64)
                        .sum();
                    (CollResult::Column(col), sent, recvd)
                }
            };
            slot.consume(n);
            (result, ra, sent, recvd)
        };

        if self.replay {
            self.yield_now().await;
            return result;
        }
        let core = self.core();
        let packet = self.machine.spec().net.torus_packet_bytes;
        self.with_node(|node| {
            node.advance_to(core, ready_at);
            match kind {
                CollKind::Barrier => node.emit_event(NetEvent::BarrierCrossed.id(), 1),
                CollKind::Alltoall => {
                    // All-to-all rides the torus.
                    if sent_bytes > 0 {
                        node.emit_event(NetEvent::TorusPktSent.id(), sent_bytes.div_ceil(packet));
                        node.emit_event(NetEvent::TorusBytesSent.id(), sent_bytes);
                    }
                    if recv_bytes > 0 {
                        node.emit_event(NetEvent::TorusPktRecv.id(), recv_bytes.div_ceil(packet));
                        node.emit_event(NetEvent::TorusBytesRecv.id(), recv_bytes);
                    }
                }
                _ => {
                    if sent_bytes > 0 {
                        node.emit_event(
                            NetEvent::CollPktSent.id(),
                            sent_bytes.div_ceil(packet).max(1),
                        );
                        node.emit_event(NetEvent::CollBytesSent.id(), sent_bytes);
                    }
                    if recv_bytes > 0 {
                        node.emit_event(
                            NetEvent::CollPktRecv.id(),
                            recv_bytes.div_ceil(packet).max(1),
                        );
                        node.emit_event(NetEvent::CollBytesRecv.id(), recv_bytes);
                    }
                }
            }
        });
        self.yield_now().await;
        result
    }
}

impl Drop for RankCtx {
    /// Retire anything still queued when the rank's state machine is
    /// dropped — the normal end-of-kernel flush point. Skipped when the
    /// drop happens during an unwind or an aborted job, where the node
    /// state is forfeit anyway (and possibly mid-mutation).
    fn drop(&mut self) {
        if std::thread::panicking() || self.machine.sched.is_aborted() {
            return;
        }
        self.flush_pending();
    }
}

/// Mirror the scheduler's wait state into the trace-local vocabulary
/// (`bgp-trace` stays independent of the MPI runtime).
fn wait_kind(w: Wait) -> WaitKind {
    match w {
        Wait::Recv { src, tag } => WaitKind::Recv {
            src: src.map(|s| s as u32),
            tag,
        },
        Wait::Collective { slot } => WaitKind::Collective { slot: slot as u8 },
    }
}

enum Contrib {
    None,
    Bytes(Payload),
    Row(Vec<Payload>),
}

enum CollResult {
    None,
    Bytes(Payload),
    Column(Vec<Payload>),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rank's future holds its context, so the context stays small.
    #[test]
    fn rank_ctx_fits_in_256_bytes() {
        let size = std::mem::size_of::<RankCtx>();
        assert!(size <= 256, "RankCtx is {size} B, over its 256-B budget");
    }
}
