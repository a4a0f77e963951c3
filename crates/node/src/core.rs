//! One PowerPC 450 **core**: the in-order, 2-way-superscalar issue model
//! and its retirement bookkeeping.
//!
//! The core does not interpret instructions — workloads perform their
//! real arithmetic in Rust and the compiler model *retires* the lowered
//! instruction stream here. The core accounts issue slots, memory and
//! FPU stall cycles, and instruction-class counts, and reports every
//! retirement to the UPC unit.

use crate::MEM_CLASSES;
use bgp_arch::events::CoreEvent;
use bgp_fpu::{FpOp, Fpu};
use bgp_upc::Upc;

/// Issue width of the PPC450 (instructions per cycle).
pub(crate) const ISSUE_WIDTH: u64 = 2;

/// Branch misprediction penalty (cycles; 7-stage pipeline refill).
pub(crate) const MISPREDICT_PENALTY: u64 = 4;

/// Per-class instruction counters of one core (ground truth mirror of the
/// UPC's mode-limited view).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstrCounts {
    /// Integer/ALU/address instructions.
    pub int_ops: u64,
    /// Branch instructions.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Load instructions (all widths).
    pub loads: u64,
    /// Store instructions (all widths).
    pub stores: u64,
    /// 8-byte FP loads.
    pub load_double: u64,
    /// 8-byte FP stores.
    pub store_double: u64,
    /// 16-byte quadloads.
    pub quadload: u64,
    /// 16-byte quadstores.
    pub quadstore: u64,
}

/// Execution state of one core.
#[derive(Clone, Debug)]
pub struct Core {
    id: usize,
    issued: u64,
    stall_mem: u64,
    stall_fpu: u64,
    extra_cycles: u64,
    instr: InstrCounts,
    fpu: Fpu,
    /// Cycle value at which the UPC `CycleCount` event was last synced.
    upc_cycle_mark: u64,
}

impl Core {
    /// A fresh core with identifier `id` (0–3).
    pub fn new(id: usize) -> Core {
        assert!(id < bgp_arch::CORES_PER_NODE);
        Core {
            id,
            issued: 0,
            stall_mem: 0,
            stall_fpu: 0,
            extra_cycles: 0,
            instr: InstrCounts::default(),
            fpu: Fpu::new(),
            upc_cycle_mark: 0,
        }
    }

    /// Core index within its node.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Cycles elapsed on this core: issue-limited cycles plus stalls plus
    /// directly-charged cycles (network waits, runtime overheads).
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.issued.div_ceil(ISSUE_WIDTH) + self.stall_mem + self.stall_fpu + self.extra_cycles
    }

    /// Ground-truth instruction counters.
    pub fn instr_counts(&self) -> &InstrCounts {
        &self.instr
    }

    /// Ground-truth FPU statistics.
    pub fn fpu(&self) -> &Fpu {
        &self.fpu
    }

    /// Total instructions issued (completed) so far.
    pub fn instructions(&self) -> u64 {
        self.issued
    }

    /// Memory stall cycles accumulated.
    pub fn stall_mem(&self) -> u64 {
        self.stall_mem
    }

    /// FPU stall cycles accumulated.
    pub fn stall_fpu(&self) -> u64 {
        self.stall_fpu
    }

    /// Push the core's cycle progression into the UPC `CycleCount` and
    /// stall counters. Called by the node after every retirement batch so
    /// the counter tracks the core clock.
    pub(crate) fn sync_cycle_counter(&mut self, upc: &mut Upc) {
        let now = self.cycles();
        let delta = now - self.upc_cycle_mark;
        if delta > 0 {
            upc.emit(CoreEvent::CycleCount.id(self.id), delta);
            self.upc_cycle_mark = now;
        }
    }

    /// Retire `n` integer-unit instructions.
    pub(crate) fn retire_int(&mut self, n: u64, upc: &mut Upc) {
        if n == 0 {
            return;
        }
        self.issued += n;
        self.instr.int_ops += n;
        upc.emit(CoreEvent::IntOp.id(self.id), n);
        upc.emit(CoreEvent::InstrCompleted.id(self.id), n);
    }

    /// Retire `n` branches of which `mispredicted` missed.
    pub(crate) fn retire_branch(&mut self, n: u64, mispredicted: u64, upc: &mut Upc) {
        if n == 0 {
            return;
        }
        debug_assert!(mispredicted <= n);
        self.issued += n;
        self.instr.branches += n;
        self.instr.mispredicts += mispredicted;
        self.extra_cycles += mispredicted * MISPREDICT_PENALTY;
        upc.emit(CoreEvent::Branch.id(self.id), n);
        upc.emit(CoreEvent::BranchMispredict.id(self.id), mispredicted);
        upc.emit(CoreEvent::InstrCompleted.id(self.id), n);
    }

    /// Retire `n` FP instructions of class `op`.
    pub(crate) fn retire_fp(&mut self, op: FpOp, n: u64, upc: &mut Upc) {
        if n == 0 {
            return;
        }
        self.issued += n;
        let stall = self.fpu.retire(op, n, self.id, upc);
        if stall > 0 {
            self.stall_fpu += stall;
            upc.emit(CoreEvent::StallFpu.id(self.id), stall);
        }
        upc.emit(CoreEvent::InstrCompleted.id(self.id), n);
    }

    /// Account a retired memory instruction (the node performs the actual
    /// cache walk and passes the resulting stall here).
    pub(crate) fn retire_mem(
        &mut self,
        write: bool,
        width_event: CoreEvent,
        stall: u64,
        upc: &mut Upc,
    ) {
        self.issued += 1;
        if write {
            self.instr.stores += 1;
            upc.emit(CoreEvent::Store.id(self.id), 1);
        } else {
            self.instr.loads += 1;
            upc.emit(CoreEvent::Load.id(self.id), 1);
        }
        match width_event {
            CoreEvent::LoadDouble => self.instr.load_double += 1,
            CoreEvent::StoreDouble => self.instr.store_double += 1,
            CoreEvent::Quadload => self.instr.quadload += 1,
            CoreEvent::Quadstore => self.instr.quadstore += 1,
            _ => {}
        }
        upc.emit(width_event.id(self.id), 1);
        upc.emit(CoreEvent::InstrCompleted.id(self.id), 1);
        if stall > 0 {
            self.stall_mem += stall;
            upc.emit(CoreEvent::StallMem.id(self.id), stall);
        }
    }

    /// Account a whole batch of retired memory instructions with the
    /// batch's summed stall. `counts` holds the batch's accesses per
    /// width class, word, double and quad, each load then store. Emits
    /// exactly the counter totals that many successive
    /// [`Core::retire_mem`] calls would emit — including the scalar
    /// path's double-count of 4-byte accesses on the `Load`/`Store`
    /// events (`MemWidth::Word` has no dedicated width event) — but with
    /// a constant number of UPC updates.
    pub(crate) fn retire_mem_batch(
        &mut self,
        counts: &[u32; MEM_CLASSES],
        stall: u64,
        upc: &mut Upc,
    ) {
        let [word_loads, word_stores, load_double, store_double, quadload, quadstore] =
            counts.map(u64::from);
        let loads = word_loads + load_double + quadload;
        let stores = word_stores + store_double + quadstore;
        let n = loads + stores;
        if n == 0 {
            return;
        }
        self.issued += n;
        self.instr.loads += loads;
        self.instr.stores += stores;
        self.instr.load_double += load_double;
        self.instr.store_double += store_double;
        self.instr.quadload += quadload;
        self.instr.quadstore += quadstore;
        let emits = [
            (CoreEvent::Load, loads + word_loads),
            (CoreEvent::Store, stores + word_stores),
            (CoreEvent::LoadDouble, load_double),
            (CoreEvent::StoreDouble, store_double),
            (CoreEvent::Quadload, quadload),
            (CoreEvent::Quadstore, quadstore),
            (CoreEvent::InstrCompleted, n),
        ];
        for (ev, count) in emits {
            if count > 0 {
                upc.emit(ev.id(self.id), count);
            }
        }
        if stall > 0 {
            self.stall_mem += stall;
            upc.emit(CoreEvent::StallMem.id(self.id), stall);
        }
    }

    /// Charge cycles directly (network waits, runtime call overheads).
    pub(crate) fn add_cycles(&mut self, n: u64) {
        self.extra_cycles += n;
    }

    /// Serialize the core's runtime state (checkpoint support). The core
    /// id is configuration, not state, and is not captured.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        use bgp_arch::wire::put_u64;
        put_u64(out, self.issued);
        put_u64(out, self.stall_mem);
        put_u64(out, self.stall_fpu);
        put_u64(out, self.extra_cycles);
        for v in [
            self.instr.int_ops,
            self.instr.branches,
            self.instr.mispredicts,
            self.instr.loads,
            self.instr.stores,
            self.instr.load_double,
            self.instr.store_double,
            self.instr.quadload,
            self.instr.quadstore,
        ] {
            put_u64(out, v);
        }
        self.fpu.save_state(out);
        put_u64(out, self.upc_cycle_mark);
    }

    /// Restore state previously written by [`Core::save_state`].
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input.
    pub fn restore_state(
        &mut self,
        r: &mut bgp_arch::wire::Reader<'_>,
    ) -> bgp_arch::error::Result<()> {
        self.issued = r.u64("core issued")?;
        self.stall_mem = r.u64("core stall_mem")?;
        self.stall_fpu = r.u64("core stall_fpu")?;
        self.extra_cycles = r.u64("core extra_cycles")?;
        self.instr.int_ops = r.u64("core int_ops")?;
        self.instr.branches = r.u64("core branches")?;
        self.instr.mispredicts = r.u64("core mispredicts")?;
        self.instr.loads = r.u64("core loads")?;
        self.instr.stores = r.u64("core stores")?;
        self.instr.load_double = r.u64("core load_double")?;
        self.instr.store_double = r.u64("core store_double")?;
        self.instr.quadload = r.u64("core quadload")?;
        self.instr.quadstore = r.u64("core quadstore")?;
        self.fpu.restore_state(r)?;
        self.upc_cycle_mark = r.u64("core upc_cycle_mark")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CounterMode;

    fn upc() -> Upc {
        let mut u = Upc::new(CounterMode::Mode0);
        u.set_enabled(true);
        u
    }

    #[test]
    fn dual_issue_halves_cycle_cost() {
        let mut c = Core::new(0);
        let mut u = upc();
        c.retire_int(100, &mut u);
        assert_eq!(c.cycles(), 50);
        c.retire_int(1, &mut u);
        assert_eq!(c.cycles(), 51, "odd instruction rounds up");
    }

    #[test]
    fn mispredicts_cost_pipeline_refills() {
        let mut c = Core::new(1);
        let mut u = upc();
        c.retire_branch(10, 2, &mut u);
        assert_eq!(c.cycles(), 5 + 2 * MISPREDICT_PENALTY);
        assert_eq!(u.read_event(CoreEvent::BranchMispredict.id(1)), Some(2));
    }

    #[test]
    fn fp_divide_stalls_show_up_in_cycles_and_upc() {
        let mut c = Core::new(0);
        let mut u = upc();
        c.retire_fp(FpOp::Div, 1, &mut u);
        assert_eq!(c.stall_fpu(), FpOp::Div.latency() - 1);
        assert_eq!(
            u.read_event(CoreEvent::StallFpu.id(0)),
            Some(FpOp::Div.latency() - 1)
        );
    }

    #[test]
    fn mem_retirement_classifies_widths() {
        let mut c = Core::new(0);
        let mut u = upc();
        c.retire_mem(false, CoreEvent::Quadload, 10, &mut u);
        c.retire_mem(true, CoreEvent::StoreDouble, 0, &mut u);
        let ic = c.instr_counts();
        assert_eq!(ic.quadload, 1);
        assert_eq!(ic.store_double, 1);
        assert_eq!(ic.loads, 1);
        assert_eq!(ic.stores, 1);
        assert_eq!(c.stall_mem(), 10);
        assert_eq!(u.read_event(CoreEvent::Quadload.id(0)), Some(1));
        assert_eq!(u.read_event(CoreEvent::Load.id(0)), Some(1));
    }

    #[test]
    fn cycle_counter_sync_is_incremental() {
        let mut c = Core::new(0);
        let mut u = upc();
        c.retire_int(100, &mut u);
        c.sync_cycle_counter(&mut u);
        assert_eq!(u.read_event(CoreEvent::CycleCount.id(0)), Some(50));
        c.retire_int(10, &mut u);
        c.sync_cycle_counter(&mut u);
        assert_eq!(u.read_event(CoreEvent::CycleCount.id(0)), Some(55));
        // No double counting when nothing advanced.
        c.sync_cycle_counter(&mut u);
        assert_eq!(u.read_event(CoreEvent::CycleCount.id(0)), Some(55));
    }

    #[test]
    fn instr_completed_aggregates_all_classes() {
        let mut c = Core::new(0);
        let mut u = upc();
        c.retire_int(5, &mut u);
        c.retire_branch(2, 0, &mut u);
        c.retire_fp(FpOp::Fma, 3, &mut u);
        c.retire_mem(false, CoreEvent::LoadDouble, 0, &mut u);
        assert_eq!(u.read_event(CoreEvent::InstrCompleted.id(0)), Some(11));
        assert_eq!(c.instructions(), 11);
    }
}
