//! # bgp-fpu — the PPC450 "double hummer" floating-point unit
//!
//! Each Blue Gene/P core is coupled to a dual-pipeline SIMD FPU: two
//! floating-point register files and two execution pipes that are
//! independently addressable but can be jointly driven by SIMD
//! instructions (paper §III). SIMD execution halves the number of
//! instructions fetched/issued/completed while doubling the operations
//! retired per instruction — the effect the paper's compiler experiments
//! (Figs. 6–10) measure.
//!
//! This crate models the unit at the retirement level: [`FpOp`] is the
//! instruction vocabulary, [`Fpu`] accounts issued operations, flops, and
//! stall cycles, and reports every retirement to the node's UPC unit via
//! the per-core FPU events of the catalog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use bgp_arch::error::Result;
use bgp_arch::events::CoreEvent;
use bgp_arch::wire;
use bgp_upc::Upc;

/// A floating-point instruction class of the PPC450 double-hummer unit.
///
/// "Simd" variants drive both pipes with a single instruction; scalar
/// variants use the primary pipe only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp {
    /// Scalar add or subtract.
    AddSub,
    /// Scalar multiply.
    Mult,
    /// Scalar divide (long-latency, unpipelined).
    Div,
    /// Scalar fused multiply-add (`fmadd`/`fmsub` family): 2 flops.
    Fma,
    /// SIMD add/subtract (`fpadd`/`fpsub`): 2 flops, both pipes.
    SimdAddSub,
    /// SIMD multiply (`fpmul`): 2 flops.
    SimdMult,
    /// SIMD divide: 2 flops, unpipelined in both pipes.
    SimdDiv,
    /// SIMD fused multiply-add (`fpmadd` family): 4 flops.
    SimdFma,
    /// Register move / cross-pipe transfer (`fsmr` etc.): 0 flops.
    Move,
}

impl FpOp {
    /// All instruction classes.
    pub const ALL: [FpOp; 9] = [
        FpOp::AddSub,
        FpOp::Mult,
        FpOp::Div,
        FpOp::Fma,
        FpOp::SimdAddSub,
        FpOp::SimdMult,
        FpOp::SimdDiv,
        FpOp::SimdFma,
        FpOp::Move,
    ];

    /// Double-precision flops retired by one instruction of this class.
    #[inline]
    pub const fn flops(self) -> u64 {
        match self {
            FpOp::Move => 0,
            FpOp::AddSub | FpOp::Mult | FpOp::Div => 1,
            FpOp::Fma | FpOp::SimdAddSub | FpOp::SimdMult | FpOp::SimdDiv => 2,
            FpOp::SimdFma => 4,
        }
    }

    /// Whether the instruction drives both pipes.
    #[inline]
    pub(crate) const fn is_simd(self) -> bool {
        matches!(
            self,
            FpOp::SimdAddSub | FpOp::SimdMult | FpOp::SimdDiv | FpOp::SimdFma
        )
    }

    /// Result latency in cycles.
    ///
    /// The pipelined ops (add/mult/FMA) have a 5-cycle latency fully
    /// hidden by the in-order dual-issue front end under normal scheduling;
    /// divides iterate in the pipe and block it.
    #[inline]
    pub const fn latency(self) -> u64 {
        match self {
            FpOp::Move => 2,
            FpOp::Div | FpOp::SimdDiv => 30,
            _ => 5,
        }
    }

    /// Extra stall cycles a retirement of this class charges beyond its
    /// single issue slot (unpipelined ops occupy the pipe for their whole
    /// latency).
    #[inline]
    pub(crate) const fn stall_cycles(self) -> u64 {
        match self {
            FpOp::Div | FpOp::SimdDiv => FpOp::Div.latency() - 1,
            _ => 0,
        }
    }

    /// The per-core UPC event this class retires as.
    #[inline]
    pub(crate) const fn event(self) -> CoreEvent {
        match self {
            FpOp::AddSub => CoreEvent::FpAddSub,
            FpOp::Mult => CoreEvent::FpMult,
            FpOp::Div => CoreEvent::FpDiv,
            FpOp::Fma => CoreEvent::FpFma,
            FpOp::SimdAddSub => CoreEvent::FpSimdAddSub,
            FpOp::SimdMult => CoreEvent::FpSimdMult,
            FpOp::SimdDiv => CoreEvent::FpSimdDiv,
            FpOp::SimdFma => CoreEvent::FpSimdFma,
            FpOp::Move => CoreEvent::FpMove,
        }
    }

    /// Index of this class in [`FpOp::ALL`] (stable, used for compact
    /// per-class arrays).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FpOp::AddSub => 0,
            FpOp::Mult => 1,
            FpOp::Div => 2,
            FpOp::Fma => 3,
            FpOp::SimdAddSub => 4,
            FpOp::SimdMult => 5,
            FpOp::SimdDiv => 6,
            FpOp::SimdFma => 7,
            FpOp::Move => 8,
        }
    }
}

/// Retirement-level model of one core's FPU.
///
/// Tracks per-class instruction counts and flop totals, and forwards
/// every retirement to the UPC unit.
#[derive(Clone, Debug, Default)]
pub struct Fpu {
    counts: [u64; FpOp::ALL.len()],
    flops: u64,
    stall_cycles: u64,
}

impl Fpu {
    /// A fresh unit with zeroed statistics.
    pub fn new() -> Fpu {
        Fpu::default()
    }

    /// Retire `n` instructions of class `op` on core `core`, reporting to
    /// `upc`. Returns the extra stall cycles the batch charges the core.
    #[inline]
    pub fn retire(&mut self, op: FpOp, n: u64, core: usize, upc: &mut Upc) -> u64 {
        if n == 0 {
            return 0;
        }
        self.counts[op.index()] += n;
        self.flops += op.flops() * n;
        let stall = op.stall_cycles() * n;
        self.stall_cycles += stall;
        upc.emit(op.event().id(core), n);
        stall
    }

    /// Instructions retired of one class.
    #[inline]
    pub fn count(&self, op: FpOp) -> u64 {
        self.counts[op.index()]
    }

    /// Total double-precision flops retired.
    #[inline]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Fraction of retired FP arithmetic instructions that were SIMD.
    pub fn simd_fraction(&self) -> f64 {
        let simd: u64 = FpOp::ALL
            .iter()
            .filter(|o| o.is_simd())
            .map(|&o| self.count(o))
            .sum();
        let arith: u64 = FpOp::ALL
            .iter()
            .filter(|o| o.flops() > 0)
            .map(|&o| self.count(o))
            .sum();
        if arith == 0 {
            0.0
        } else {
            simd as f64 / arith as f64
        }
    }

    /// Zero all statistics.
    pub fn reset(&mut self) {
        *self = Fpu::default();
    }

    /// Serialize the unit's runtime statistics (checkpoint support).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        for &c in &self.counts {
            wire::put_u64(out, c);
        }
        wire::put_u64(out, self.flops);
        wire::put_u64(out, self.stall_cycles);
    }

    /// Restore statistics previously written by [`Fpu::save_state`].
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input.
    pub fn restore_state(&mut self, r: &mut wire::Reader<'_>) -> Result<()> {
        r.u64_array(&mut self.counts, "fpu counts")?;
        self.flops = r.u64("fpu flops")?;
        self.stall_cycles = r.u64("fpu stall cycles")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CounterMode;

    fn upc0() -> Upc {
        let mut u = Upc::new(CounterMode::Mode0);
        u.set_enabled(true);
        u
    }

    #[test]
    fn flop_accounting_matches_class_definitions() {
        // A SIMD FMA is 4 flops: 2 lanes × (mul + add).
        assert_eq!(FpOp::SimdFma.flops(), 4);
        assert_eq!(FpOp::Fma.flops(), 2);
        assert_eq!(FpOp::SimdAddSub.flops(), 2);
        assert_eq!(FpOp::AddSub.flops(), 1);
        assert_eq!(FpOp::Move.flops(), 0);

        let mut fpu = Fpu::new();
        let mut upc = upc0();
        fpu.retire(FpOp::SimdFma, 10, 0, &mut upc);
        fpu.retire(FpOp::AddSub, 5, 0, &mut upc);
        assert_eq!(fpu.flops(), 45);
        assert_eq!(fpu.counts.iter().sum::<u64>(), 15);
    }

    #[test]
    fn retirements_reach_the_upc() {
        let mut fpu = Fpu::new();
        let mut upc = upc0();
        fpu.retire(FpOp::SimdFma, 7, 1, &mut upc);
        assert_eq!(upc.read_event(CoreEvent::FpSimdFma.id(1)), Some(7));
        // Core 2's events live in mode 1 — invisible to this unit,
        // but still tracked by the local Fpu stats.
        fpu.retire(FpOp::Mult, 3, 2, &mut upc);
        assert_eq!(fpu.count(FpOp::Mult), 3);
        assert_eq!(upc.read_event(CoreEvent::FpMult.id(2)), None);
    }

    #[test]
    fn divides_stall_the_pipe() {
        let mut fpu = Fpu::new();
        let mut upc = upc0();
        let s = fpu.retire(FpOp::Div, 2, 0, &mut upc);
        assert_eq!(s, 2 * (FpOp::Div.latency() - 1));
        assert_eq!(fpu.stall_cycles, s);
        assert_eq!(fpu.retire(FpOp::Fma, 100, 0, &mut upc), 0);
    }

    #[test]
    fn simd_fraction_ignores_moves() {
        let mut fpu = Fpu::new();
        let mut upc = upc0();
        fpu.retire(FpOp::SimdFma, 3, 0, &mut upc);
        fpu.retire(FpOp::Fma, 1, 0, &mut upc);
        fpu.retire(FpOp::Move, 100, 0, &mut upc);
        assert!((fpu.simd_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_retirement_is_free() {
        let mut fpu = Fpu::new();
        let mut upc = upc0();
        assert_eq!(fpu.retire(FpOp::Div, 0, 0, &mut upc), 0);
        assert_eq!(fpu.counts.iter().sum::<u64>(), 0);
        assert_eq!(fpu.simd_fraction(), 0.0);
    }

    #[test]
    fn index_is_consistent_with_all() {
        for (i, &op) in FpOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }
}
