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

pub mod core;

pub use crate::core::{Core, InstrCounts, MemRetire, ISSUE_WIDTH, MISPREDICT_PENALTY};

use bgp_arch::events::{CoreEvent, CounterMode, NetEvent};
use bgp_arch::geometry::{AddressLayout, NodeId};
use bgp_arch::{MachineConfig, OpMode, CORES_PER_NODE};
use bgp_mem::{HitLevel, MemStats, MemorySystem};
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

/// One queued memory operation of a process, at a process-virtual
/// address — the unit of [`Node::mem_ops`] batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemOp {
    /// Process-virtual byte address.
    pub vaddr: u64,
    /// Transfer width.
    pub width: MemWidth,
    /// Store (`true`) or load (`false`).
    pub write: bool,
}

/// Loop-resident code footprint rotated through by the synthetic
/// instruction-fetch stream (16 KB in a reserved high region that never
/// aliases workload data lines).
const CODE_FOOTPRINT: u64 = 16 << 10;
/// L1-I lines the footprint occupies.
const CODE_LINES: u64 = CODE_FOOTPRINT / bgp_arch::L1_LINE_BYTES as u64;

/// Network events (mode-3 slots `0..NET_EVENTS`); mode 3 has no other
/// events, so the ground-truth mirror holds only these.
pub const NET_EVENTS: usize = NetEvent::ALL.len();

/// One compute node.
pub struct Node {
    id: NodeId,
    mode: OpMode,
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
    /// fast path of [`Node::mem_ops`]).
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
    /// Translated-address scratch buffer reused across batches.
    batch: Vec<bgp_mem::MemAccess>,
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
            mode: op_mode,
            layout: AddressLayout::with_memory(op_mode, cfg.memory_bytes),
            cores: std::array::from_fn(Core::new),
            mem: None,
            upc: Upc::new(counter_mode),
            icursor: [0; CORES_PER_NODE],
            ifetches: [0; CORES_PER_NODE],
            icache_fits: (CODE_LINES as usize).div_ceil(cfg.l1_sets()) <= cfg.l1_ways,
            net_truth: [0; NET_EVENTS],
            batch: Vec::new(),
            cfg,
        }
    }

    /// Node identifier within the partition.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Operating mode the node was booted in.
    pub fn op_mode(&self) -> OpMode {
        self.mode
    }

    /// Process-virtual → node-physical address translation.
    pub fn layout(&self) -> &AddressLayout {
        &self.layout
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
        self.mem.as_ref().map_or_else(MemStats::default, |m| *m.stats())
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

    /// Retire a whole slice of loads/stores by `core` as one batch:
    /// exactly equivalent to calling [`Node::mem_op`] per element (the
    /// node differential tests pin this), but with one instruction-fetch
    /// bulk probe, one hierarchy batch walk, one aggregated retirement,
    /// and one cycle-counter sync for the entire slice.
    pub fn mem_ops(&mut self, core: usize, process: usize, ops: &[MemOp]) {
        if ops.is_empty() {
            return;
        }
        self.touch_icache_batch(core, ops.len() as u64);
        self.batch.clear();
        self.batch.reserve(ops.len());
        let mut retire = MemRetire::default();
        for o in ops {
            self.batch.push(bgp_mem::MemAccess {
                addr: self.layout.physical(process, o.vaddr),
                write: o.write,
            });
            match (o.width, o.write) {
                (MemWidth::Word, false) => retire.word_loads += 1,
                (MemWidth::Word, true) => retire.word_stores += 1,
                (MemWidth::Double, false) => retire.load_double += 1,
                (MemWidth::Double, true) => retire.store_double += 1,
                (MemWidth::Quad, false) => retire.quadload += 1,
                (MemWidth::Quad, true) => retire.quadstore += 1,
            }
            if o.write {
                retire.stores += 1;
            } else {
                retire.loads += 1;
            }
        }
        let stall = built(&mut self.mem, &self.cfg).access_batch(core, &self.batch, &mut self.upc);
        self.cores[core].retire_mem_batch(&retire, stall, &mut self.upc);
        self.cores[core].sync_cycle_counter(&mut self.upc);
    }

    /// Retire `n` FP instructions of class `op` on `core`.
    pub fn fp_op(&mut self, core: usize, op: bgp_fpu::FpOp, n: u64) {
        self.cores[core].retire_fp(op, n, &mut self.upc);
        self.cores[core].sync_cycle_counter(&mut self.upc);
    }

    /// Retire `n` integer instructions on `core`.
    pub fn int_op(&mut self, core: usize, n: u64) {
        self.cores[core].retire_int(n, &mut self.upc);
        self.cores[core].sync_cycle_counter(&mut self.upc);
    }

    /// Retire `n` branches with `mispredicted` misses on `core`.
    pub fn branch_op(&mut self, core: usize, n: u64, mispredicted: u64) {
        self.cores[core].retire_branch(n, mispredicted, &mut self.upc);
        self.cores[core].sync_cycle_counter(&mut self.upc);
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
            debug_assert!(slot < NET_EVENTS, "mode-3 slot {slot} is not a network event");
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
    /// network mirror. Identity, operating mode, address layout, and the
    /// `batch` scratch buffer are configuration or transient scratch and
    /// are not captured.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        for c in &self.cores {
            c.save_state(out);
        }
        bgp_arch::wire::put_bool(out, self.mem.is_some());
        if let Some(m) = &self.mem {
            m.save_state(out);
        }
        self.upc.save_state(out);
        for &v in self.icursor.iter().chain(&self.ifetches).chain(&self.net_truth) {
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

    #[test]
    fn batched_mem_ops_match_the_scalar_path() {
        // Differential: the same op stream through per-op `mem_op` and
        // through `mem_ops` slices must leave both nodes byte-identical —
        // memory stats, every core clock, and the full UPC snapshot.
        for mode in [CounterMode::Mode0, CounterMode::Mode2] {
            let mut scalar = node(mode);
            let mut batched = node(mode);
            let mut x = 0x9E3779B97F4A7C15u64;
            let slices: Vec<(usize, usize, Vec<MemOp>)> = (0..120)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let core = (x >> 33) as usize % CORES_PER_NODE;
                    let ops = (0..48)
                        .map(|_| {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let width = match x >> 62 {
                                0 => MemWidth::Word,
                                1 | 2 => MemWidth::Double,
                                _ => MemWidth::Quad,
                            };
                            // Mixed strided/random over 256 KB per process.
                            MemOp {
                                vaddr: ((x >> 13) % (256 << 10)) & !7,
                                width,
                                write: x & 3 == 0,
                            }
                        })
                        .collect();
                    (core, core, ops)
                })
                .collect();
            for (core, process, ops) in &slices {
                for o in ops {
                    scalar.mem_op(*core, *process, o.vaddr, o.width, o.write);
                }
                batched.mem_ops(*core, *process, ops);
            }
            assert_eq!(scalar.mem_stats(), batched.mem_stats());
            for c in 0..CORES_PER_NODE {
                assert_eq!(scalar.core(c).cycles(), batched.core(c).cycles());
                assert_eq!(scalar.core(c).instr_counts(), batched.core(c).instr_counts());
            }
            assert_eq!(scalar.upc().snapshot(), batched.upc().snapshot());
        }
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
        let small = || Node::new(NodeId(0), Arc::clone(&cfg), OpMode::VirtualNode, CounterMode::Mode0);
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
            assert!(matches!(err, bgp_arch::BgpError::Corrupt(_)), "cut {cut}: {err}");
        }
        for (at, tag) in [(mem_tag_at(&built), 1), (unbuilt_at + mem_tag_at(&unbuilt), 0)] {
            assert_eq!(section[at], tag);
            let mut bad = section.clone();
            bad[at] = 2;
            let err = restore(&bad).unwrap_err();
            assert!(err.to_string().contains("node memory-hierarchy tag"), "{err}");
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
            let cfg = CounterConfig { interrupt_enable: true, ..CounterConfig::default() };
            n.upc_mut().configure(20, cfg);
            n.upc_mut().set_threshold(20, 10);
            n
        };
        let (mut scalar, mut batched) = (mk(), mk());
        let ops: Vec<MemOp> = (0..2000u64)
            .map(|i| MemOp { vaddr: i * 64, width: MemWidth::Double, write: false })
            .collect();
        for o in &ops {
            scalar.mem_op(0, 0, o.vaddr, o.width, o.write);
        }
        batched.mem_ops(0, 0, &ops);
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
    /// for it.
    #[test]
    fn node_fits_in_1400_bytes() {
        let size = std::mem::size_of::<Node>();
        assert!(size <= 1400, "Node is {size} B");
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
        assert_eq!(bytes[mem_tag_at(&n)], 0, "the unbuilt node wrote tag 0 and no image");
        assert_eq!(bytes.len(), mem_tag_at(&n) + 1 + upc_len(&n) + 8 * (2 * CORES_PER_NODE + NET_EVENTS));
        let mut back = node(CounterMode::Mode0);
        back.mem_op(1, 1, 0x40, MemWidth::Word, true);
        back.restore_state(&mut bgp_arch::wire::Reader::new(&bytes)).unwrap();
        assert!(back.mem.is_none(), "tag 0 leaves the hierarchy unbuilt");
        let mut again = Vec::new();
        back.save_state(&mut again);
        assert_eq!(again, bytes);

        n.mem_op(0, 0, 0x1000, MemWidth::Double, false);
        let mut touched = Vec::new();
        n.save_state(&mut touched);
        let mut back = node(CounterMode::Mode0);
        back.restore_state(&mut bgp_arch::wire::Reader::new(&touched)).unwrap();
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
