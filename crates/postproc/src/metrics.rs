//! **Derived metrics**: the user-defined quantities the paper computes
//! from raw counters — MFLOPS from the FPU counters, L3-DDR traffic from
//! the L3/DDR counters, and the dynamic FP instruction mix of Fig. 6.

use crate::frame::Frame;
use bgp_arch::events::{CoreEvent, CounterMode, SharedEvent};
use bgp_arch::{CORES_PER_NODE, CORE_CLOCK_HZ, LINE_BYTES};

/// The seven FP instruction categories of the paper's Fig. 6.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MixCategory {
    /// Scalar add/subtract.
    SingleAddSub,
    /// Scalar multiply.
    SingleMult,
    /// Scalar fused multiply-add.
    SingleFma,
    /// Scalar divide.
    SingleDiv,
    /// SIMD add/subtract.
    SimdAddSub,
    /// SIMD fused multiply-add.
    SimdFma,
    /// SIMD multiply.
    SimdMult,
}

impl MixCategory {
    /// Categories in the paper's legend order.
    pub const ALL: [MixCategory; 7] = [
        MixCategory::SingleAddSub,
        MixCategory::SingleMult,
        MixCategory::SingleFma,
        MixCategory::SingleDiv,
        MixCategory::SimdAddSub,
        MixCategory::SimdFma,
        MixCategory::SimdMult,
    ];

    /// Label used in figures/CSV.
    pub const fn label(self) -> &'static str {
        match self {
            MixCategory::SingleAddSub => "single add-sub",
            MixCategory::SingleMult => "single mult",
            MixCategory::SingleFma => "single FMA",
            MixCategory::SingleDiv => "single div",
            MixCategory::SimdAddSub => "SIMD add-sub",
            MixCategory::SimdFma => "SIMD FMA",
            MixCategory::SimdMult => "SIMD mult",
        }
    }

    const fn event(self) -> CoreEvent {
        match self {
            MixCategory::SingleAddSub => CoreEvent::FpAddSub,
            MixCategory::SingleMult => CoreEvent::FpMult,
            MixCategory::SingleFma => CoreEvent::FpFma,
            MixCategory::SingleDiv => CoreEvent::FpDiv,
            MixCategory::SimdAddSub => CoreEvent::FpSimdAddSub,
            MixCategory::SimdFma => CoreEvent::FpSimdFma,
            MixCategory::SimdMult => CoreEvent::FpSimdMult,
        }
    }

    /// Flops retired per instruction of this category.
    pub(crate) const fn flops_per_instr(self) -> u64 {
        match self {
            MixCategory::SingleAddSub | MixCategory::SingleMult | MixCategory::SingleDiv => 1,
            MixCategory::SingleFma | MixCategory::SimdAddSub | MixCategory::SimdMult => 2,
            MixCategory::SimdFma => 4,
        }
    }
}

/// Dynamic FP instruction mix (summed over all observed cores).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FpMix {
    counts: [u64; 7],
}

impl FpMix {
    /// Instruction count of one category.
    pub fn count(&self, c: MixCategory) -> u64 {
        self.counts[c as usize]
    }

    /// Total FP arithmetic instructions.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of one category (0 if the mix is empty).
    pub fn fraction(&self, c: MixCategory) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(c) as f64 / t as f64
        }
    }

    /// Total flops represented by the mix.
    pub fn flops(&self) -> u64 {
        MixCategory::ALL
            .iter()
            .map(|&c| self.count(c) * c.flops_per_instr())
            .sum()
    }

    /// Fraction of instructions that were SIMD.
    pub fn simd_fraction(&self) -> f64 {
        self.fraction(MixCategory::SimdAddSub)
            + self.fraction(MixCategory::SimdFma)
            + self.fraction(MixCategory::SimdMult)
    }
}

/// Sum the FP instruction mix over every core observed by the frame
/// (cores 0–1 from mode-0 nodes, cores 2–3 from mode-1 nodes).
pub fn fp_mix(frame: &Frame) -> FpMix {
    let mut mix = FpMix::default();
    for (i, &cat) in MixCategory::ALL.iter().enumerate() {
        for core in 0..CORES_PER_NODE {
            mix.counts[i] += frame.sum(cat.event().id(core));
        }
    }
    mix
}

/// Number of cores whose private events the frame observed.
pub(crate) fn observed_cores(frame: &Frame) -> usize {
    2 * (frame.nodes_in_mode(CounterMode::Mode0) + frame.nodes_in_mode(CounterMode::Mode1))
}

/// Mean cycle count over all observed cores (the run's execution time in
/// cycles for an SPMD code).
pub(crate) fn mean_core_cycles(frame: &Frame) -> f64 {
    let cores = observed_cores(frame);
    if cores == 0 {
        return 0.0;
    }
    let total: u64 = (0..CORES_PER_NODE)
        .map(|c| frame.sum(CoreEvent::CycleCount.id(c)))
        .sum();
    total as f64 / cores as f64
}

/// Achieved MFLOPS per **core**: observed flops per observed core over
/// mean execution time.
pub fn mflops_per_core(frame: &Frame) -> f64 {
    let cores = observed_cores(frame);
    let cycles = mean_core_cycles(frame);
    if cores == 0 || cycles == 0.0 {
        return 0.0;
    }
    let flops_per_core = fp_mix(frame).flops() as f64 / cores as f64;
    let seconds = cycles / CORE_CLOCK_HZ as f64;
    flops_per_core / seconds / 1e6
}

/// Achieved MFLOPS per **chip** given how many cores the operating mode
/// keeps busy (4 in VNM, 1 in SMP/1).
pub fn mflops_per_chip(frame: &Frame, active_cores_per_chip: usize) -> f64 {
    mflops_per_core(frame) * active_cores_per_chip as f64
}

/// DDR read+write bursts per mode-2 node (mean).
pub(crate) fn ddr_bursts_per_node(frame: &Frame) -> f64 {
    let nodes = frame.nodes_in_mode(CounterMode::Mode2);
    if nodes == 0 {
        return 0.0;
    }
    let total: u64 = [
        SharedEvent::DdrRead0,
        SharedEvent::DdrRead1,
        SharedEvent::DdrWrite0,
        SharedEvent::DdrWrite1,
    ]
    .iter()
    .map(|e| frame.sum(e.id()))
    .sum();
    total as f64 / nodes as f64
}

/// The paper's "L3-DDR traffic" metric: bytes moved between the L3 and
/// DDR per node (mean across mode-2 nodes).
pub fn ddr_traffic_bytes_per_node(frame: &Frame) -> f64 {
    ddr_bursts_per_node(frame) * LINE_BYTES as f64
}

/// L3 miss ratio (misses / (hits+misses)) per mode-2 node.
pub fn l3_miss_ratio(frame: &Frame) -> f64 {
    let hits = frame.sum(SharedEvent::L3Hit0.id()) + frame.sum(SharedEvent::L3Hit1.id());
    let misses = frame.sum(SharedEvent::L3Miss0.id()) + frame.sum(SharedEvent::L3Miss1.id());
    if hits + misses == 0 {
        return 0.0;
    }
    misses as f64 / (hits + misses) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::NUM_COUNTERS;
    use bgp_core::dump::{NodeDump, SetDump};

    fn dump_with(node: u32, mode: CounterMode, slots: &[(usize, u64)]) -> NodeDump {
        let mut counts = vec![0u64; NUM_COUNTERS];
        for &(s, v) in slots {
            counts[s] = v;
        }
        NodeDump {
            node,
            mode,
            sets: vec![SetDump {
                id: 0,
                records: 1,
                counts,
            }],
        }
    }

    #[test]
    fn mix_aggregates_all_observed_cores() {
        let slot = |ev: CoreEvent, core: usize| ev.id(core).slot().0 as usize;
        let d0 = dump_with(
            0,
            CounterMode::Mode0,
            &[
                (slot(CoreEvent::FpFma, 0), 10),
                (slot(CoreEvent::FpFma, 1), 20),
            ],
        );
        let d1 = dump_with(
            1,
            CounterMode::Mode1,
            &[
                (slot(CoreEvent::FpSimdFma, 2), 5),
                (slot(CoreEvent::FpAddSub, 3), 1),
            ],
        );
        let f = Frame::from_dumps(&[d0, d1], 0).unwrap();
        let mix = fp_mix(&f);
        assert_eq!(mix.count(MixCategory::SingleFma), 30);
        assert_eq!(mix.count(MixCategory::SimdFma), 5);
        assert_eq!(mix.count(MixCategory::SingleAddSub), 1);
        assert_eq!(mix.total(), 36);
        assert_eq!(mix.flops(), 30 * 2 + 5 * 4 + 1);
        assert!((mix.fraction(MixCategory::SingleFma) - 30.0 / 36.0).abs() < 1e-12);
        assert_eq!(observed_cores(&f), 4);
    }

    #[test]
    fn mflops_math_is_dimensionally_right() {
        // One core, 850e6 cycles = 1 second, 425e6 FMA instrs = 850e6 flops.
        let slot = |ev: CoreEvent, core: usize| ev.id(core).slot().0 as usize;
        let d = dump_with(
            0,
            CounterMode::Mode0,
            &[
                (slot(CoreEvent::FpFma, 0), 425_000_000),
                (slot(CoreEvent::CycleCount, 0), 850_000_000),
            ],
        );
        let f = Frame::from_dumps(&[d], 0).unwrap();
        // Observed cores = 2 (core 1 idle). flops/core = 425e6, mean
        // cycles = 425e6 → 425e6 flops in 0.5 s = 850 MFLOPS... per core.
        let per_core = mflops_per_core(&f);
        assert!((per_core - 850.0).abs() < 1.0, "got {per_core}");
        assert!((mflops_per_chip(&f, 4) - 3400.0).abs() < 4.0);
    }

    #[test]
    fn traffic_metric_counts_reads_and_writes_in_bytes() {
        let d = dump_with(
            0,
            CounterMode::Mode2,
            &[
                (SharedEvent::DdrRead0.id().slot().0 as usize, 100),
                (SharedEvent::DdrRead1.id().slot().0 as usize, 50),
                (SharedEvent::DdrWrite0.id().slot().0 as usize, 25),
            ],
        );
        let f = Frame::from_dumps(&[d], 0).unwrap();
        assert_eq!(ddr_bursts_per_node(&f), 175.0);
        assert_eq!(ddr_traffic_bytes_per_node(&f), 175.0 * 128.0);
    }

    #[test]
    fn l3_miss_ratio_is_bounded() {
        let d = dump_with(
            0,
            CounterMode::Mode2,
            &[
                (SharedEvent::L3Hit0.id().slot().0 as usize, 90),
                (SharedEvent::L3Miss0.id().slot().0 as usize, 10),
            ],
        );
        let f = Frame::from_dumps(&[d], 0).unwrap();
        assert!((l3_miss_ratio(&f) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_frames_yield_zero_metrics() {
        let d = dump_with(0, CounterMode::Mode3, &[]);
        let f = Frame::from_dumps(&[d], 0).unwrap();
        assert_eq!(fp_mix(&f).total(), 0);
        assert_eq!(mflops_per_core(&f), 0.0);
        assert_eq!(ddr_traffic_bytes_per_node(&f), 0.0);
        assert_eq!(l3_miss_ratio(&f), 0.0);
    }
}
