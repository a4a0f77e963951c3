//! # bgp-node — a Blue Gene/P compute node
//!
//! Assembles the hardware blocks into one node (paper §III, Fig. 2):
//! four [`core::Core`]s with their FPUs, the shared [`bgp_mem`] hierarchy,
//! the [`bgp_upc`] performance-counter unit, and the chip Time Base.
//!
//! The node is the unit the interface library instruments: all UPC state
//! is per-node, rank placement assigns processes to its cores per the
//! operating mode, and all counter dumps are per-node files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod core;

use crate::core::Core;
use bgp_arch::events::{CoreEvent, CounterMode, NetEvent};
use bgp_arch::geometry::{AddressLayout, NodeId};
use bgp_arch::{MachineConfig, OpMode, CORES_PER_NODE};
use bgp_fpu::FpOp;
use bgp_mem::{HitLevel, MemRun, MemStats, MemorySystem};
use bgp_upc::Upc;
use std::sync::Arc;

/// Memory-operation width as seen by the instruction set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemWidth {
    /// 4-byte integer word.
    Word,
    /// 8-byte FP double.
    Double,
    /// 16-byte quadword feeding both FPU pipes (`-qarch=440d` codegen).
    Quad,
}

impl MemWidth {
    /// Transfer size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::Word => 4,
            MemWidth::Double => 8,
            MemWidth::Quad => 16,
        }
    }

    const fn event(self, write: bool) -> CoreEvent {
        match (self, write) {
            (MemWidth::Word, false) => CoreEvent::Load,
            (MemWidth::Word, true) => CoreEvent::Store,
            (MemWidth::Double, false) => CoreEvent::LoadDouble,
            (MemWidth::Double, true) => CoreEvent::StoreDouble,
            (MemWidth::Quad, false) => CoreEvent::Quadload,
            (MemWidth::Quad, true) => CoreEvent::Quadstore,
        }
    }
}

/// Width classes × directions: the batch's memory tallies, indexed by
/// [`mem_class`].
pub(crate) const MEM_CLASSES: usize = 6;

/// Tally index of an access of `width` in direction `write`: word,
/// double and quad, each load then store.
#[inline]
const fn mem_class(width: MemWidth, write: bool) -> usize {
    width as usize * 2 + write as usize
}

/// Add as much of `n` to `tally` as fits and return the rest.
#[inline]
fn fill(tally: &mut u32, n: u64) -> u64 {
    let take = n.min(u64::from(u32::MAX - *tally));
    *tally += take as u32;
    n - take
}

/// Everything one core retires at a flush point, as counts: the rank
/// fills it between flush points and [`Node::retire`] retires it in one
/// node visit.
///
/// Memory accesses queue as L1-line runs ([`MemRun`]) in issue order —
/// an access to the line of the last run extends it — and their width
/// classes go into per-class tallies. Arithmetic is tallied per class
/// only: every retirement is linear in its count, and no observer runs
/// between two flush points, so when inside the epoch an op retired
/// cannot be seen. A tally that is full refuses the addition (or
/// returns the part that did not fit) and the caller retires the batch
/// first, which is exact for the same reason.
#[derive(Default)]
pub struct OpBatch {
    runs: Vec<MemRun>,
    mem: [u32; MEM_CLASSES],
    fp: [u32; FpOp::ALL.len()],
    int: u32,
    branches: u32,
    mispredicts: u32,
}

impl OpBatch {
    /// Queue one load or store of `width` at process-virtual `vaddr`;
    /// `false` (nothing queued) when its class tally is full.
    #[inline]
    #[must_use]
    pub fn push_mem(&mut self, vaddr: u64, width: MemWidth, write: bool) -> bool {
        let tally = &mut self.mem[mem_class(width, write)];
        if *tally == u32::MAX {
            return false;
        }
        *tally += 1;
        if !self
            .runs
            .last_mut()
            .is_some_and(|run| run.extend(vaddr, write))
        {
            self.runs.push(MemRun::new(vaddr, write));
        }
        true
    }

    /// Tally `n` FP instructions of class `op`; returns the part that
    /// did not fit.
    #[inline]
    pub fn add_fp(&mut self, op: FpOp, n: u64) -> u64 {
        fill(&mut self.fp[op.index()], n)
    }

    /// Tally `n` integer instructions; returns the part that did not
    /// fit.
    #[inline]
    pub fn add_int(&mut self, n: u64) -> u64 {
        fill(&mut self.int, n)
    }

    /// Tally `n` branches of which `mispredicted` missed; returns the
    /// parts that did not fit. The mispredict tally never exceeds the
    /// branch tally, so it has room whenever the branches do.
    #[inline]
    pub fn add_branches(&mut self, n: u64, mispredicted: u64) -> (u64, u64) {
        debug_assert!(mispredicted <= n);
        let left = fill(&mut self.branches, n);
        let taken = mispredicted.min(n - left);
        let overflow = fill(&mut self.mispredicts, taken);
        debug_assert_eq!(overflow, 0);
        (left, mispredicted - taken)
    }

    /// Memory accesses queued (all runs, heads and tails).
    #[inline]
    fn accesses(&self) -> u64 {
        self.mem.iter().map(|&n| u64::from(n)).sum()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
            && self.fp.iter().all(|&n| n == 0)
            && self.int == 0
            && self.branches == 0
    }

    /// Drop everything queued, keeping the run buffer's capacity.
    fn clear(&mut self) {
        self.runs.clear();
        self.mem = [0; MEM_CLASSES];
        self.fp = [0; FpOp::ALL.len()];
        self.int = 0;
        self.branches = 0;
        self.mispredicts = 0;
    }
}

/// Loop-resident code footprint rotated through by the synthetic
/// instruction-fetch stream (16 KB in a reserved high region that never
/// aliases workload data lines).
const CODE_FOOTPRINT: u64 = 16 << 10;
/// L1-I lines the footprint occupies.
const CODE_LINES: u64 = CODE_FOOTPRINT / bgp_arch::L1_LINE_BYTES as u64;

/// Network events (mode-3 slots `0..NET_EVENTS`); mode 3 has no other
/// events, so the ground-truth mirror holds only these.
pub(crate) const NET_EVENTS: usize = NetEvent::ALL.len();

/// One compute node.
pub struct Node {
    id: NodeId,
    /// The partition's configuration, shared by all of its nodes.
    cfg: Arc<MachineConfig>,
    layout: AddressLayout,
    cores: [Core; CORES_PER_NODE],
    /// The memory hierarchy, built by the first memory operation: a node
    /// that never touches memory holds none (see [`Node::mem_stats`] for
    /// how an unbuilt one reads).
    mem: Option<Box<MemorySystem>>,
    upc: Upc,
    /// Synthetic instruction-address cursor per core (loop-resident code).
    icursor: [u64; CORES_PER_NODE],
    /// Instruction fetches retired per core (drives the warm-stream
    /// fast path of [`Node::retire`]).
    ifetches: [u64; CORES_PER_NODE],
    /// Whether the L1-I geometry holds the whole code footprint — the
    /// precondition for skipping per-fetch probes once it is resident.
    icache_fits: bool,
    /// Ground-truth mirror of mode-3 (network) event emissions made
    /// while counting was enabled, indexed by mode-3 slot. The network
    /// layer has no per-node accumulator of its own (torus traffic is
    /// per-phase and reset at each resolution), so the node records
    /// what it reported to the UPC independently of the mode the unit
    /// happened to be in — the reference the validation harness checks
    /// counted and reconstructed network events against.
    net_truth: [u64; NET_EVENTS],
}

impl Node {
    /// Build a node.
    ///
    /// `counter_mode` selects which 256 of the 1024 events its UPC unit
    /// observes (the interface library sets this per node parity).
    ///
    /// # Panics
    /// Panics if `cfg` fails [`MachineConfig::validate`].
    pub fn new(
        id: NodeId,
        cfg: Arc<MachineConfig>,
        op_mode: OpMode,
        counter_mode: CounterMode,
    ) -> Node {
        cfg.validate().expect("invalid machine configuration");
        Node {
            id,
            layout: AddressLayout::with_memory(op_mode, cfg.memory_bytes),
            cores: std::array::from_fn(Core::new),
            mem: None,
            upc: Upc::new(counter_mode),
            icursor: [0; CORES_PER_NODE],
            ifetches: [0; CORES_PER_NODE],
            icache_fits: (CODE_LINES as usize).div_ceil(cfg.l1_sets()) <= cfg.l1_ways,
            net_truth: [0; NET_EVENTS],
            cfg,
        }
    }

    /// Node identifier within the partition.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's UPC unit.
    pub fn upc(&self) -> &Upc {
        &self.upc
    }

    /// Mutable access to the UPC unit (the interface library's handle).
    pub fn upc_mut(&mut self) -> &mut Upc {
        &mut self.upc
    }

    /// One core.
    pub fn core(&self, core: usize) -> &Core {
        &self.cores[core]
    }

    /// Ground-truth memory statistics; all zero until the first memory
    /// operation.
    pub fn mem_stats(&self) -> MemStats {
        self.mem
            .as_ref()
            .map_or_else(MemStats::default, |m| *m.stats())
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The chip Time Base as observed by `core`: its own cycle count
    /// (all cores advance concurrently on real hardware; in the
    /// serialized simulation each core carries its own clock).
    pub fn timebase(&self, core: usize) -> u64 {
        self.cores[core].cycles()
    }

    /// Wall-clock cycles of the node: the slowest core.
    pub fn node_cycles(&self) -> u64 {
        self.cores.iter().map(Core::cycles).max().unwrap_or(0)
    }

    /// Retire one load or store of `width` by `core` at process-virtual
    /// address `vaddr` of `process` (node-local process index).
    ///
    /// Walks the cache hierarchy, charges the stall, and reports both the
    /// instruction-class event and the cache events. Returns the level
    /// that satisfied the access.
    pub fn mem_op(
        &mut self,
        core: usize,
        process: usize,
        vaddr: u64,
        width: MemWidth,
        write: bool,
    ) -> HitLevel {
        let paddr = self.layout.physical(process, vaddr);
        // Instruction fetch for the surrounding code: one probe per
        // retirement batch keeps the L1-I warm without per-instruction
        // cost (kernels are loop-resident).
        self.touch_icache(core);
        let outcome = built(&mut self.mem, &self.cfg).access(core, paddr, write, &mut self.upc);
        // A 16-byte quadword can straddle two 32-byte L1 lines only when
        // misaligned; workloads keep quadword data 16-byte aligned, so a
        // single hierarchy access suffices for every width.
        self.cores[core].retire_mem(write, width.event(write), outcome.stall, &mut self.upc);
        self.cores[core].sync_cycle_counter(&mut self.upc);
        outcome.level
    }

    /// Retire everything `batch` holds for `core`, running as node-local
    /// process `process`, in one visit, and leave the batch empty.
    ///
    /// The memory part goes first: one instruction-fetch bulk probe per
    /// access, one hierarchy batch walk over the runs, one aggregated
    /// retirement of the width tallies. Then the arithmetic tallies
    /// retire in a fixed order — the FP classes in [`FpOp::ALL`] order,
    /// integer ops, branches — and the cycle counter syncs once. Every
    /// final count, clock and counter value is that of retiring the same
    /// ops one at a time in issue order (the node differential tests pin
    /// this); only the value a threshold interrupt captures when it
    /// fires may differ, since it fires at a fold boundary.
    pub fn retire(&mut self, core: usize, process: usize, batch: &mut OpBatch) {
        let accesses = batch.accesses();
        if accesses > 0 {
            self.touch_icache_batch(core, accesses);
            let base = self.layout.physical(process, 0);
            let stall = built(&mut self.mem, &self.cfg).access_batch(
                core,
                base,
                &batch.runs,
                &mut self.upc,
            );
            self.cores[core].retire_mem_batch(&batch.mem, stall, &mut self.upc);
        }
        let c = &mut self.cores[core];
        for op in FpOp::ALL {
            c.retire_fp(op, u64::from(batch.fp[op.index()]), &mut self.upc);
        }
        c.retire_int(u64::from(batch.int), &mut self.upc);
        c.retire_branch(
            u64::from(batch.branches),
            u64::from(batch.mispredicts),
            &mut self.upc,
        );
        c.sync_cycle_counter(&mut self.upc);
        batch.clear();
    }

    /// Advance `core`'s clock to at least `target` cycles — used when the
    /// core waits on an external event (message arrival, collective
    /// completion). No-op if the core is already past `target`.
    pub fn advance_to(&mut self, core: usize, target: u64) {
        let cur = self.cores[core].cycles();
        if target > cur {
            self.cores[core].add_cycles(target - cur);
            self.cores[core].sync_cycle_counter(&mut self.upc);
        }
    }

    /// Charge raw cycles to `core` (network waits, runtime overheads).
    pub fn charge_cycles(&mut self, core: usize, cycles: u64) {
        self.cores[core].add_cycles(cycles);
        self.cores[core].sync_cycle_counter(&mut self.upc);
    }

    /// Report a network event with a count to this node's UPC, and
    /// mirror mode-3 emissions into the node's ground-truth accumulator
    /// (same enabled gating as the counters, but independent of the
    /// unit's current mode — the multiplexing validation reference).
    pub fn emit_event(&mut self, event: bgp_arch::EventId, count: u64) {
        if self.upc.enabled() && event.mode() == CounterMode::Mode3 {
            let slot = event.slot().0 as usize;
            debug_assert!(
                slot < NET_EVENTS,
                "mode-3 slot {slot} is not a network event"
            );
            if let Some(t) = self.net_truth.get_mut(slot) {
                *t = t.wrapping_add(count);
            }
        }
        self.upc.emit(event, count);
    }

    /// Ground-truth totals of mode-3 (network) events emitted while
    /// counting was enabled, indexed by mode-3 slot ([`NetEvent`] order).
    pub fn net_truth(&self) -> &[u64; NET_EVENTS] {
        &self.net_truth
    }

    fn touch_icache(&mut self, core: usize) {
        // Rotate through the loop-resident code footprint placed in a
        // reserved high region so it never aliases workload data lines.
        let cur = self.icursor[core];
        self.icursor[core] = (cur + 32) % CODE_FOOTPRINT;
        self.ifetches[core] += 1;
        let iaddr = u64::MAX - CODE_FOOTPRINT + cur;
        let stall = built(&mut self.mem, &self.cfg).ifetch(core, iaddr, &mut self.upc);
        if stall > 0 {
            self.cores[core].add_cycles(stall);
        }
    }

    /// `n` instruction fetches for a retirement batch. Once the footprint
    /// has rotated through completely (`CODE_LINES` fetches) and the L1-I
    /// is big enough to hold all of it, every future fetch is a hit —
    /// nothing else ever allocates into or invalidates the L1-I — so the
    /// warm stream is recorded in bulk without per-fetch cache probes.
    fn touch_icache_batch(&mut self, core: usize, n: u64) {
        if self.icache_fits && self.ifetches[core] >= CODE_LINES {
            self.ifetches[core] += n;
            self.icursor[core] = (self.icursor[core] + 32 * n) % CODE_FOOTPRINT;
            built(&mut self.mem, &self.cfg).ifetch_hits(core, n, &mut self.upc);
        } else {
            for _ in 0..n {
                self.touch_icache(core);
            }
        }
    }

    /// Serialize the node's complete runtime state (checkpoint support):
    /// the four cores, a tag and the memory system if it was built, the
    /// UPC unit, the synthetic instruction-fetch cursors, and the
    /// network mirror. Identity, operating mode and address layout are
    /// configuration and are not captured.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        for c in &self.cores {
            c.save_state(out);
        }
        bgp_arch::wire::put_bool(out, self.mem.is_some());
        if let Some(m) = &self.mem {
            m.save_state(out);
        }
        self.upc.save_state(out);
        for &v in self
            .icursor
            .iter()
            .chain(&self.ifetches)
            .chain(&self.net_truth)
        {
            bgp_arch::wire::put_u64(out, v);
        }
    }

    /// Restore state previously written by [`Node::save_state`] into a
    /// node built with the same configuration. A section without a
    /// memory system leaves the hierarchy unbuilt.
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated or inconsistent
    /// input, including a hierarchy tag other than 0 or 1.
    pub fn restore_state(
        &mut self,
        r: &mut bgp_arch::wire::Reader<'_>,
    ) -> bgp_arch::error::Result<()> {
        for c in &mut self.cores {
            c.restore_state(r)?;
        }
        self.mem = if r.bool("node memory-hierarchy tag")? {
            let mut mem = Box::new(MemorySystem::new(&self.cfg));
            mem.restore_state(r)?;
            Some(mem)
        } else {
            None
        };
        self.upc.restore_state(r)?;
        r.u64_array(&mut self.icursor, "node icursor")?;
        r.u64_array(&mut self.ifetches, "node ifetches")?;
        r.u64_array(&mut self.net_truth, "node net truth")?;
        Ok(())
    }
}

/// `mem`'s hierarchy, built from `cfg` on first use.
#[inline]
fn built<'a>(mem: &'a mut Option<Box<MemorySystem>>, cfg: &MachineConfig) -> &'a mut MemorySystem {
    mem.get_or_insert_with(|| Box::new(MemorySystem::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::SharedEvent;
    use bgp_fpu::FpOp;

    /// The one-op-at-a-time reference path for arithmetic, beside the
    /// scalar [`Node::mem_op`].
    impl Node {
        fn fp_op(&mut self, core: usize, op: FpOp, n: u64) {
            self.cores[core].retire_fp(op, n, &mut self.upc);
            self.cores[core].sync_cycle_counter(&mut self.upc);
        }

        fn int_op(&mut self, core: usize, n: u64) {
            self.cores[core].retire_int(n, &mut self.upc);
            self.cores[core].sync_cycle_counter(&mut self.upc);
        }

        fn branch_op(&mut self, core: usize, n: u64, mispredicted: u64) {
            self.cores[core].retire_branch(n, mispredicted, &mut self.upc);
            self.cores[core].sync_cycle_counter(&mut self.upc);
        }
    }

    fn node(counter_mode: CounterMode) -> Node {
        let mut n = Node::new(
            NodeId(0),
            Arc::new(MachineConfig::default()),
            OpMode::VirtualNode,
            counter_mode,
        );
        n.upc_mut().set_enabled(true);
        n
    }

    #[test]
    fn mem_ops_walk_the_hierarchy_and_charge_stalls() {
        let mut n = node(CounterMode::Mode0);
        let lvl = n.mem_op(0, 0, 0x1000, MemWidth::Double, false);
        assert_eq!(lvl, HitLevel::Ddr);
        assert!(n.core(0).cycles() >= n.config().lat_ddr);
        let lvl = n.mem_op(0, 0, 0x1000, MemWidth::Double, false);
        assert_eq!(lvl, HitLevel::L1);
    }

    #[test]
    fn processes_have_disjoint_physical_footprints() {
        let mut n = node(CounterMode::Mode2);
        // Same virtual address, different processes: no sharing, so the
        // second access is a fresh DDR miss.
        n.mem_op(0, 0, 0x4000, MemWidth::Double, false);
        let before = n.mem_stats().ddr_reads;
        n.mem_op(1, 1, 0x4000, MemWidth::Double, false);
        assert!(n.mem_stats().ddr_reads > before);
    }

    #[test]
    fn upc_mode0_sees_core0_instruction_stream() {
        let mut n = node(CounterMode::Mode0);
        n.fp_op(0, FpOp::SimdFma, 10);
        n.int_op(0, 4);
        n.mem_op(0, 0, 0, MemWidth::Quad, false);
        let upc = n.upc();
        assert_eq!(upc.read_event(CoreEvent::FpSimdFma.id(0)), Some(10));
        assert_eq!(upc.read_event(CoreEvent::IntOp.id(0)), Some(4));
        assert_eq!(upc.read_event(CoreEvent::Quadload.id(0)), Some(1));
        // Shared events are invisible in mode 0 but present in ground truth.
        assert_eq!(upc.read_event(SharedEvent::DdrRead0.id()), None);
        assert_eq!(n.mem_stats().ddr_reads, 1);
    }

    #[test]
    fn cycle_count_event_tracks_core_clock() {
        let mut n = node(CounterMode::Mode0);
        n.int_op(0, 1000);
        let counted = n.upc().read_event(CoreEvent::CycleCount.id(0)).unwrap();
        assert_eq!(counted, n.core(0).cycles());
        assert_eq!(counted, n.timebase(0));
    }

    #[test]
    fn node_cycles_is_the_slowest_core() {
        let mut n = node(CounterMode::Mode0);
        n.int_op(0, 100);
        n.int_op(2, 500);
        assert_eq!(n.node_cycles(), n.core(2).cycles());
    }

    #[test]
    fn icache_stays_warm_for_loop_resident_code() {
        let mut n = node(CounterMode::Mode0);
        for i in 0..10_000u64 {
            n.mem_op(0, 0, (i % 64) * 8, MemWidth::Double, false);
        }
        let s = n.mem_stats();
        // First pass through the 16 KB footprint misses; after that the
        // 32 KB L1-I holds it entirely.
        assert!(s.l1i_misses <= 512 + 8, "l1i misses: {}", s.l1i_misses);
        assert!(s.l1i_hits > 9_000);
    }

    /// One op of a differential stream.
    #[derive(Clone, Copy)]
    enum Op {
        Mem(u64, MemWidth, bool),
        Fp(FpOp, u64),
        Int(u64),
        Branch(u64, u64),
    }

    /// Retire `ops` one at a time through the scalar paths.
    fn retire_scalar(n: &mut Node, core: usize, process: usize, ops: &[Op]) {
        for &op in ops {
            match op {
                Op::Mem(vaddr, width, write) => {
                    n.mem_op(core, process, vaddr, width, write);
                }
                Op::Fp(op, k) => n.fp_op(core, op, k),
                Op::Int(k) => n.int_op(core, k),
                Op::Branch(k, m) => n.branch_op(core, k, m),
            }
        }
    }

    /// Queue `ops` into a batch and retire it in one visit.
    fn retire_batched(n: &mut Node, core: usize, process: usize, ops: &[Op]) {
        let mut batch = OpBatch::default();
        for &op in ops {
            match op {
                Op::Mem(vaddr, width, write) => assert!(batch.push_mem(vaddr, width, write)),
                Op::Fp(op, k) => assert_eq!(batch.add_fp(op, k), 0),
                Op::Int(k) => assert_eq!(batch.add_int(k), 0),
                Op::Branch(k, m) => assert_eq!(batch.add_branches(k, m), (0, 0)),
            }
        }
        n.retire(core, process, &mut batch);
        assert!(batch.is_empty());
    }

    /// Every observable of two nodes: memory stats, core clocks,
    /// instruction and FP counts, and the full UPC snapshot.
    fn assert_same_nodes(a: &Node, b: &Node) {
        assert_eq!(a.mem_stats(), b.mem_stats());
        for c in 0..CORES_PER_NODE {
            assert_eq!(a.core(c).cycles(), b.core(c).cycles());
            assert_eq!(a.core(c).instr_counts(), b.core(c).instr_counts());
            for op in FpOp::ALL {
                assert_eq!(a.core(c).fpu().count(op), b.core(c).fpu().count(op));
            }
        }
        assert_eq!(a.upc().snapshot(), b.upc().snapshot());
    }

    #[test]
    fn batched_mem_ops_match_the_scalar_path() {
        // Differential: the same op stream retired op by op and through
        // one `OpBatch` per slice must leave both nodes identical. The
        // slices mix all three widths (word, double and quad steps
        // through a line), put stores only in run tails, scatter random
        // accesses, and interleave every arithmetic class.
        for mode in [CounterMode::Mode0, CounterMode::Mode2] {
            let mut scalar = node(mode);
            let mut batched = node(mode);
            let mut x = 0x9E3779B97F4A7C15u64;
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x
            };
            for _ in 0..120 {
                let core = (next() >> 33) as usize % CORES_PER_NODE;
                let mut ops = Vec::new();
                while ops.len() < 48 {
                    let r = next();
                    match r >> 61 {
                        // A unit-stride sweep of one width: the head
                        // loads, a later access of the line stores.
                        0..=2 => {
                            let width = [MemWidth::Word, MemWidth::Double, MemWidth::Quad]
                                [(r >> 40) as usize % 3];
                            let step = width.bytes();
                            let base = ((r >> 13) % (256 << 10)) & !31;
                            for i in 0..(r >> 20) % 12 + 1 {
                                let at = base + i * step;
                                let store = at % 32 == 32 - step;
                                ops.push(Op::Mem(at, width, store));
                            }
                        }
                        // A scattered access of any width.
                        3 | 4 => {
                            let width = match (r >> 40) % 4 {
                                0 => MemWidth::Word,
                                1 | 2 => MemWidth::Double,
                                _ => MemWidth::Quad,
                            };
                            let at = ((r >> 13) % (256 << 10)) & !(width.bytes() - 1);
                            ops.push(Op::Mem(at, width, r & 3 == 0));
                        }
                        5 => ops.push(Op::Fp(FpOp::ALL[(r >> 20) as usize % 9], r % 5 + 1)),
                        6 => ops.push(Op::Int(r % 9 + 1)),
                        _ => {
                            let k = r % 7 + 1;
                            ops.push(Op::Branch(k, (r >> 8) % (k + 1)));
                        }
                    }
                }
                retire_scalar(&mut scalar, core, core, &ops);
                retire_batched(&mut batched, core, core, &ops);
            }
            assert_same_nodes(&scalar, &batched);
        }
    }

    #[test]
    fn a_run_at_its_tail_cap_starts_a_new_run() {
        // 2^16 + 2 accesses to one line: the first run fills its tail to
        // the cap, the next access starts a second run on the same line
        // rather than wrapping the tail to zero, and the pair retires
        // exactly like the accesses one by one.
        let n_acc = (1u64 << 16) + 2;
        let ops: Vec<Op> = (0..n_acc)
            .map(|i| Op::Mem(0x4000 + (i % 4) * 8, MemWidth::Double, i == n_acc - 1))
            .collect();
        let mut batch = OpBatch::default();
        for &op in &ops {
            let Op::Mem(at, width, write) = op else {
                unreachable!()
            };
            assert!(batch.push_mem(at, width, write));
        }
        let tails: Vec<(u16, bool)> = batch.runs.iter().map(|r| (r.tail, r.tail_write)).collect();
        assert_eq!(tails, [(u16::MAX, false), (1, true)]);
        assert_eq!(batch.accesses(), n_acc);
        let (mut scalar, mut batched) = (node(CounterMode::Mode0), node(CounterMode::Mode0));
        retire_scalar(&mut scalar, 0, 0, &ops);
        batched.retire(0, 0, &mut batch);
        assert_same_nodes(&scalar, &batched);
        assert_eq!(batched.mem_stats().l1d_misses, 1);
        assert_eq!(batched.mem_stats().l1d_hits, n_acc - 1);
    }

    #[test]
    fn full_tallies_refuse_the_overflow_and_retire_exactly() {
        // Every tally takes what fits and hands back the rest; retiring
        // the full batch and then the rest equals one scalar retirement.
        let max = u64::from(u32::MAX);
        let mut batch = OpBatch::default();
        assert_eq!(batch.add_int(max - 2), 0);
        assert_eq!(batch.add_int(10), 8);
        assert_eq!(batch.add_fp(FpOp::Div, max + 5), 5);
        assert_eq!(batch.add_branches(max + 9, max + 4), (9, 4));
        let mut batched = node(CounterMode::Mode0);
        batched.retire(1, 1, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(batch.add_int(8), 0);
        assert_eq!(batch.add_fp(FpOp::Div, 5), 0);
        assert_eq!(batch.add_branches(9, 4), (0, 0));
        batched.retire(1, 1, &mut batch);
        let mut scalar = node(CounterMode::Mode0);
        retire_scalar(
            &mut scalar,
            1,
            1,
            &[
                Op::Int(max + 8),
                Op::Fp(FpOp::Div, max + 5),
                Op::Branch(max + 9, max + 4),
            ],
        );
        assert_same_nodes(&scalar, &batched);
        assert_eq!(batched.core(1).instr_counts().mispredicts, max + 4);
        // A class tally of accesses is full at `u32::MAX`: the access is
        // refused and nothing is queued.
        let mut batch = OpBatch::default();
        batch.mem[mem_class(MemWidth::Quad, true)] = u32::MAX;
        assert!(!batch.push_mem(0, MemWidth::Quad, true));
        assert!(batch.runs.is_empty());
        assert!(batch.push_mem(0, MemWidth::Quad, false));
    }

    #[test]
    fn net_truth_mirrors_enabled_mode3_emissions() {
        use bgp_arch::events::NetEvent;
        // Mode 0: the UPC is blind to network events, but the ground
        // truth still records them — that independence is the point.
        let mut n = node(CounterMode::Mode0);
        let ev = NetEvent::TorusBytesSent.id();
        n.emit_event(ev, 100);
        n.upc_mut().set_enabled(false);
        n.emit_event(ev, 7); // outside the window: not truth either
        assert_eq!(n.net_truth()[ev.slot().0 as usize], 100);
        assert_eq!(n.upc().read_event(ev), None);
    }

    /// Where a node's memory-hierarchy tag sits in its section: after
    /// the four cores.
    fn mem_tag_at(n: &Node) -> usize {
        let mut cores = Vec::new();
        n.cores.iter().for_each(|c| c.save_state(&mut cores));
        cores.len()
    }

    fn upc_len(n: &Node) -> usize {
        let mut upc = Vec::new();
        n.upc().save_state(&mut upc);
        upc.len()
    }

    /// A `nodes` section of a built node with a threshold bank and an
    /// unbuilt one fails closed: every truncation is `Corrupt`, never a
    /// panic, and a memory-hierarchy tag other than 0 or 1 is refused
    /// with the field named.
    #[test]
    fn node_sections_fail_closed_on_truncation_and_bad_tags() {
        // Small caches keep the every-byte truncation sweep quick.
        let cfg = Arc::new(MachineConfig {
            l1_bytes: 2 << 10,
            l3_bytes: 16 << 10,
            ..MachineConfig::default()
        });
        let small = || {
            Node::new(
                NodeId(0),
                Arc::clone(&cfg),
                OpMode::VirtualNode,
                CounterMode::Mode0,
            )
        };
        let mut built = small();
        built.mem_op(0, 0, 0x1000, MemWidth::Double, false);
        built.upc_mut().set_threshold(20, 64);
        let unbuilt = small();
        let mut section = Vec::new();
        built.save_state(&mut section);
        let unbuilt_at = section.len();
        unbuilt.save_state(&mut section);
        let restore = |bytes: &[u8]| -> bgp_arch::error::Result<()> {
            let mut r = bgp_arch::wire::Reader::new(bytes);
            small().restore_state(&mut r)?;
            small().restore_state(&mut r)?;
            r.expect_end("nodes section")
        };
        restore(&section).unwrap();
        for cut in 0..section.len() {
            let err = restore(&section[..cut]).unwrap_err();
            assert!(
                matches!(err, bgp_arch::BgpError::Corrupt(_)),
                "cut {cut}: {err}"
            );
        }
        for (at, tag) in [
            (mem_tag_at(&built), 1),
            (unbuilt_at + mem_tag_at(&unbuilt), 0),
        ] {
            assert_eq!(section[at], tag);
            let mut bad = section.clone();
            bad[at] = 2;
            let err = restore(&bad).unwrap_err();
            assert!(
                err.to_string().contains("node memory-hierarchy tag"),
                "{err}"
            );
        }
    }

    #[test]
    fn threshold_interrupts_agree_between_scalar_and_batched_paths() {
        use bgp_upc::CounterConfig;
        // Slot 20 is core 0's L1d-miss counter in mode 0. The scalar
        // path bumps it one miss at a time and fires exactly at the
        // threshold; the batched engine folds a whole walk's misses
        // into one emission and fires at the first fold boundary past
        // it. Raise counts, slots and final counter values must agree;
        // only the captured value-at-fire may differ.
        let mk = || {
            let mut n = node(CounterMode::Mode0);
            let cfg = CounterConfig {
                interrupt_enable: true,
                ..CounterConfig::default()
            };
            n.upc_mut().configure(20, cfg);
            n.upc_mut().set_threshold(20, 10);
            n
        };
        let (mut scalar, mut batched) = (mk(), mk());
        let ops: Vec<Op> = (0..2000u64)
            .map(|i| Op::Mem(i * 64, MemWidth::Double, false))
            .collect();
        retire_scalar(&mut scalar, 0, 0, &ops);
        retire_batched(&mut batched, 0, 0, &ops);
        assert_eq!(scalar.upc().snapshot(), batched.upc().snapshot());
        assert_eq!(scalar.upc().interrupts_raised(), 1);
        assert_eq!(batched.upc().interrupts_raised(), 1);
        let a = scalar.upc_mut().take_interrupts();
        let b = batched.upc_mut().take_interrupts();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!((a[0].slot, a[0].threshold), (20, 10));
        assert_eq!((b[0].slot, b[0].threshold), (20, 10));
        assert_eq!(a[0].value, 10, "scalar path fires exactly at the threshold");
        assert!(b[0].value >= 10, "batched path fires at a fold boundary");
        // Drain semantics: pending is emptied, the latch stays set, and
        // the (non-frozen) counter kept counting past the threshold.
        assert!(scalar.upc_mut().take_interrupts().is_empty());
        assert!(batched.upc_mut().take_interrupts().is_empty());
        assert!(scalar.upc().read(20) > 10);
    }

    #[test]
    fn charge_cycles_reaches_timebase_and_counter() {
        let mut n = node(CounterMode::Mode0);
        n.charge_cycles(1, 12345);
        assert_eq!(n.timebase(1), 12345);
        assert_eq!(n.upc().read_event(CoreEvent::CycleCount.id(1)), Some(12345));
        // Core 3's clock is only visible in counter mode 1.
        n.charge_cycles(3, 99);
        assert_eq!(n.timebase(3), 99);
        assert_eq!(n.upc().read_event(CoreEvent::CycleCount.id(3)), None);
    }

    /// The full-machine probe builds 73,728 nodes that never touch
    /// memory; the hierarchy lives behind a pointer so they do not pay
    /// for it, and a node keeps no scratch buffer of its own.
    #[test]
    fn node_fits_in_1336_bytes() {
        let size = std::mem::size_of::<Node>();
        assert!(size <= 1336, "Node is {size} B");
    }

    /// An untouched node reads zero memory statistics, saves no
    /// hierarchy, and restores unbuilt over a built one; a touched
    /// node's image builds the hierarchy back.
    #[test]
    fn an_untouched_node_saves_no_hierarchy_and_restores_unbuilt() {
        let mut n = node(CounterMode::Mode0);
        n.int_op(0, 10);
        assert_eq!(n.mem_stats(), MemStats::default());
        assert!(n.mem.is_none());
        let mut bytes = Vec::new();
        n.save_state(&mut bytes);
        assert_eq!(
            bytes[mem_tag_at(&n)],
            0,
            "the unbuilt node wrote tag 0 and no image"
        );
        assert_eq!(
            bytes.len(),
            mem_tag_at(&n) + 1 + upc_len(&n) + 8 * (2 * CORES_PER_NODE + NET_EVENTS)
        );
        let mut back = node(CounterMode::Mode0);
        back.mem_op(1, 1, 0x40, MemWidth::Word, true);
        back.restore_state(&mut bgp_arch::wire::Reader::new(&bytes))
            .unwrap();
        assert!(back.mem.is_none(), "tag 0 leaves the hierarchy unbuilt");
        let mut again = Vec::new();
        back.save_state(&mut again);
        assert_eq!(again, bytes);

        n.mem_op(0, 0, 0x1000, MemWidth::Double, false);
        let mut touched = Vec::new();
        n.save_state(&mut touched);
        let mut back = node(CounterMode::Mode0);
        back.restore_state(&mut bgp_arch::wire::Reader::new(&touched))
            .unwrap();
        assert_eq!(back.mem_stats(), n.mem_stats());
        assert_eq!(back.mem_stats().ddr_reads, 1);
    }

    #[test]
    fn node_save_restore_resumes_byte_identically() {
        let run = |resume_at: Option<u64>| -> (Vec<u8>, u64) {
            let mut n = node(CounterMode::Mode2);
            let mut restored: Option<Node> = None;
            for i in 0..6000u64 {
                if Some(i) == resume_at {
                    // Snapshot, restore into a fresh node, continue there.
                    let mut bytes = Vec::new();
                    n.save_state(&mut bytes);
                    let mut fresh = node(CounterMode::Mode2);
                    let mut r = bgp_arch::wire::Reader::new(&bytes);
                    fresh.restore_state(&mut r).unwrap();
                    r.expect_end("node section").unwrap();
                    restored = Some(std::mem::replace(&mut n, fresh));
                }
                let core = (i % 4) as usize;
                n.mem_op(core, core, 0x2000 + i * 40, MemWidth::Double, i % 7 == 0);
                n.fp_op(core, FpOp::SimdFma, 3);
                n.int_op(core, 5);
                n.branch_op(core, 2, u64::from(i % 11 == 0));
            }
            drop(restored);
            let mut out = Vec::new();
            n.save_state(&mut out);
            (out, n.node_cycles())
        };
        let (straight, cyc_a) = run(None);
        let (resumed, cyc_b) = run(Some(2500));
        assert_eq!(cyc_a, cyc_b);
        assert_eq!(straight, resumed, "resumed node diverged");
    }
}
