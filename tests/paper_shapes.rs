//! Shape assertions for the paper's headline results, at test-friendly
//! scale (class W where footprints matter, class S elsewhere). These are
//! the claims EXPERIMENTS.md quantifies at full scale.

use bgp::arch::events::CounterMode;
use bgp::arch::{MachineConfig, OpMode};
use bgp::compiler::CompileOpts;
use bgp::counters::{run_instrumented, WHOLE_PROGRAM_SET};
use bgp::mpi::{CounterPolicy, JobSpec, Machine};
use bgp::nas::{Class, Kernel};
use bgp::postproc::{ddr_traffic_bytes_per_node, mflops_per_chip, Frame};

struct Run {
    frame: Frame,
    cycles: u64,
}

fn run(
    kernel: Kernel,
    class: Class,
    ranks: usize,
    mode: OpMode,
    compile: CompileOpts,
    machine_cfg: MachineConfig,
    policy: CounterPolicy,
) -> Run {
    let mut spec = JobSpec::new(kernel.clamp_ranks(ranks, class), mode);
    spec.compile = compile;
    spec.machine = machine_cfg;
    spec.counter_policy = policy;
    let machine = Machine::new(spec);
    let (out, lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
    assert!(out.iter().all(|r| r.verified));
    Run {
        frame: Frame::from_dumps(&lib.dumps().unwrap(), WHOLE_PROGRAM_SET).unwrap(),
        cycles: machine.job_cycles(),
    }
}

const CORES: CounterPolicy = CounterPolicy::EvenOdd {
    even: CounterMode::Mode0,
    odd: CounterMode::Mode1,
};
const MEM: CounterPolicy = CounterPolicy::Fixed(CounterMode::Mode2);

/// Figs. 9–10: the best build (-O5 -qarch=440d) clearly beats the
/// baseline (-O -qstrict), most dramatically on the SIMD-friendly codes.
#[test]
fn o5_beats_baseline_execution_time() {
    for (kernel, min_gain) in [(Kernel::Ft, 0.25), (Kernel::Mg, 0.20), (Kernel::Cg, 0.10)] {
        let base = run(
            kernel,
            Class::S,
            4,
            OpMode::VirtualNode,
            CompileOpts::baseline(),
            MachineConfig::default(),
            CORES,
        );
        let best = run(
            kernel,
            Class::S,
            4,
            OpMode::VirtualNode,
            CompileOpts::o5(),
            MachineConfig::default(),
            CORES,
        );
        let gain = 1.0 - best.cycles as f64 / base.cycles as f64;
        assert!(
            gain > min_gain,
            "{kernel}: -O5 gained only {:.1}% over baseline",
            gain * 100.0
        );
    }
}

/// Fig. 11's monotonicity: growing the L3 never increases DDR traffic,
/// and the first 4 MB capture most of the benefit for a working set
/// sized like the paper's.
#[test]
fn l3_growth_reduces_ddr_traffic_with_diminishing_returns() {
    let kernel = Kernel::Mg;
    let mut traffic = Vec::new();
    for mb in [0usize, 2, 4, 8] {
        let r = run(
            kernel,
            Class::W,
            4,
            OpMode::VirtualNode,
            CompileOpts::o5(),
            MachineConfig::default().with_l3_bytes(mb << 20),
            MEM,
        );
        traffic.push(ddr_traffic_bytes_per_node(&r.frame));
    }
    for w in traffic.windows(2) {
        assert!(
            w[1] <= w[0] * 1.001,
            "traffic grew with a larger L3: {traffic:?}"
        );
    }
    let drop_first = traffic[0] - traffic[2]; // 0 → 4 MB
    let drop_last = traffic[2] - traffic[3]; // 4 → 8 MB
    assert!(
        drop_first > 4.0 * drop_last.max(1.0),
        "the knee must come before 4 MB at this footprint: {traffic:?}"
    );
}

/// Figs. 12–13 shape: packing four ranks per chip (VNM) versus one
/// (SMP/1, 2 MB fairness L3) multiplies per-chip DDR traffic and costs
/// per-node time — visible on a memory-pressure kernel at a footprint
/// that exercises the L3 (IS, class A).
#[test]
fn vnm_versus_smp1_memory_pressure() {
    let kernel = Kernel::Is;
    let ranks = 8;
    let vnm_mem = run(
        kernel,
        Class::A,
        ranks,
        OpMode::VirtualNode,
        CompileOpts::o5(),
        MachineConfig::default(),
        MEM,
    );
    let smp_mem = run(
        kernel,
        Class::A,
        ranks,
        OpMode::Smp1,
        CompileOpts::o5(),
        MachineConfig::default().with_l3_bytes(2 << 20),
        MEM,
    );

    // Fig. 12 shape: per-chip traffic goes up by >1× (4 ranks per chip).
    let traffic_ratio =
        ddr_traffic_bytes_per_node(&vnm_mem.frame) / ddr_traffic_bytes_per_node(&smp_mem.frame);
    assert!(
        traffic_ratio > 1.5 && traffic_ratio < 10.0,
        "per-chip DDR traffic ratio {traffic_ratio}"
    );

    // Fig. 13 shape: per-node execution time increases, but far less
    // than 4× (resource sharing is effective).
    let time_ratio = vnm_mem.cycles as f64 / smp_mem.cycles as f64;
    assert!(
        time_ratio > 1.0 && time_ratio < 2.5,
        "VNM/SMP time ratio {time_ratio}"
    );
}

/// Fig. 14 shape: per-chip MFLOPS multiply when all four cores compute.
#[test]
fn vnm_multiplies_per_chip_mflops() {
    let kernel = Kernel::Cg;
    let ranks = 8;
    let vnm_core = run(
        kernel,
        Class::S,
        ranks,
        OpMode::VirtualNode,
        CompileOpts::o5(),
        MachineConfig::default(),
        CORES,
    );
    let smp_core = run(
        kernel,
        Class::S,
        ranks,
        OpMode::Smp1,
        CompileOpts::o5(),
        MachineConfig::default().with_l3_bytes(2 << 20),
        CORES,
    );
    let vnm_mflops = mflops_per_chip(&vnm_core.frame, 4);
    let smp_mflops = mflops_per_chip(&smp_core.frame, 1);
    let ratio = vnm_mflops / smp_mflops;
    assert!(
        ratio > 1.8 && ratio < 4.2,
        "per-chip MFLOPS ratio {ratio} (VNM {vnm_mflops:.0} vs SMP {smp_mflops:.0})"
    );
}

/// Figs. 7–8: SIMD instruction counts appear only with `-qarch=440d`
/// and grow with the optimization level.
#[test]
fn qarch440d_gates_simd_and_grows_with_level() {
    use bgp::compiler::QArch;
    use bgp::postproc::fp_mix;
    let kernel = Kernel::Ft;
    let simd_count = |compile: CompileOpts| {
        let r = run(
            kernel,
            Class::S,
            4,
            OpMode::VirtualNode,
            compile,
            MachineConfig::default(),
            CORES,
        );
        let m = fp_mix(&r.frame);
        m.count(bgp::postproc::MixCategory::SimdAddSub)
            + m.count(bgp::postproc::MixCategory::SimdFma)
            + m.count(bgp::postproc::MixCategory::SimdMult)
    };
    assert_eq!(simd_count(CompileOpts::o5().with_qarch(QArch::Ppc440)), 0);
    let o3 = simd_count(CompileOpts::o3());
    let o5 = simd_count(CompileOpts::o5());
    assert!(o3 > 0, "O3+440d must SIMD-ize");
    assert!(
        o5 > o3,
        "SIMD coverage must grow with the level: {o3} vs {o5}"
    );
}
