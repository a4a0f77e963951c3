//! # bgp-bench — the experiment harness
//!
//! One driver, `repro_all`, runs every table, figure, extension sweep and
//! gate as a named entry of the [`repro`] registry; host-time
//! measurements of the simulator itself belong to `perfbench/`, the
//! repository's one performance harness. This library holds the shared
//! machinery: run a NAS kernel job under whole-program instrumentation,
//! post-process the dumps into a [`Frame`], and extract the metrics the
//! figures plot.
//!
//! Because a node's UPC unit observes one counter mode per run, every
//! *full* measurement is two runs — exactly the methodology the paper's
//! even/odd-node trick optimizes: one run with
//! [`CounterPolicy::EvenOdd`]`(mode0, mode1)` for the per-core events
//! (instruction mix, cycles, flops) and one with mode 2 for the shared
//! L3/DDR events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod figures;
pub mod repro;

use bgp_arch::events::{CoreEvent, CounterMode, NetEvent, SharedEvent, NUM_MODES};
use bgp_arch::{MachineConfig, OpMode, CORES_PER_NODE};
use bgp_compiler::CompileOpts;
use bgp_core::dump::NodeDump;
use bgp_core::{run_instrumented, WHOLE_PROGRAM_SET};
use bgp_faults::FaultPlan;
use bgp_fpu::FpOp;
use bgp_mpi::{CounterPolicy, JobSpec, Machine, MuxSummary};
use bgp_nas::{Class, Kernel};
use bgp_node::Node;
use bgp_postproc::{Frame, NodeTruth, TruthEntry};
use std::path::PathBuf;

/// Everything that identifies one measured job.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Kernel under test.
    pub kernel: Kernel,
    /// Problem class.
    pub class: Class,
    /// MPI ranks.
    pub ranks: usize,
    /// Node operating mode.
    pub mode: OpMode,
    /// Compiler build.
    pub compile: CompileOpts,
    /// Node hardware.
    pub machine: MachineConfig,
}

impl RunConfig {
    /// Paper-default configuration for a kernel at the given scale.
    pub fn new(kernel: Kernel, class: Class, ranks: usize) -> RunConfig {
        RunConfig {
            kernel,
            class,
            ranks: kernel.clamp_ranks(ranks, class),
            mode: OpMode::VirtualNode,
            compile: CompileOpts::o5(),
            machine: MachineConfig::default(),
        }
    }

    fn spec(&self, policy: CounterPolicy) -> JobSpec {
        let mut spec = JobSpec::new(self.ranks, self.mode);
        spec.machine = self.machine.clone();
        spec.compile = self.compile;
        spec.counter_policy = policy;
        spec
    }
}

/// Outcome of one instrumented run under one counter policy.
pub(crate) struct Measured {
    /// Aggregated whole-program counter frame.
    pub frame: Frame,
    /// Wall-clock cycles of the job (slowest core).
    pub job_cycles: u64,
}

/// Run the kernel once with the given counter policy.
pub(crate) fn measure(cfg: &RunConfig, policy: CounterPolicy) -> Measured {
    let machine = Machine::new(cfg.spec(policy));
    let kernel = cfg.kernel;
    let class = cfg.class;
    let (results, lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
    assert!(
        results.iter().all(|r| r.verified),
        "{} class {} on {} ranks failed verification",
        cfg.kernel,
        cfg.class,
        cfg.ranks
    );
    let dumps = lib.dumps().expect("all nodes finalized");
    let frame = Frame::from_dumps(&dumps, WHOLE_PROGRAM_SET).expect("valid dumps");
    Measured {
        frame,
        job_cycles: machine.job_cycles(),
    }
}

/// Run with the even/odd mode-0/1 policy: per-core events (FPU mix,
/// cycle counters) across all four cores of the chip.
pub(crate) fn measure_cores(cfg: &RunConfig) -> Measured {
    measure(
        cfg,
        CounterPolicy::EvenOdd {
            even: CounterMode::Mode0,
            odd: CounterMode::Mode1,
        },
    )
}

/// Run with mode 2 everywhere: shared L3/DDR events.
pub(crate) fn measure_memory(cfg: &RunConfig) -> Measured {
    measure(cfg, CounterPolicy::Fixed(CounterMode::Mode2))
}

/// Outcome of one instrumented run kept at dump granularity, with the
/// simulator's independent ground truth — the raw material of the
/// validation harness ([`bgp_postproc::validate`]).
pub(crate) struct TruthMeasured {
    /// Decoded per-node dumps (synthetic mux sets included when the
    /// policy rotated).
    pub dumps: Vec<NodeDump>,
    /// Encoded dump bytes per node, for byte-identity checks.
    pub encoded: Vec<Vec<u8>>,
    /// Independent per-node ground truth read from the machine after
    /// the run.
    pub truth: Vec<NodeTruth>,
    /// Wall-clock cycles of the job (slowest core).
    pub job_cycles: u64,
    /// Rotation statistics, when the policy multiplexed.
    pub mux: Option<MuxSummary>,
}

/// Run the kernel once under `policy`, keeping dumps, encoded bytes,
/// and ground truth. `faults` arms the job's fault plan (the degraded
/// leg of the validation figures); `sim_threads` pins the simulator's
/// worker pool (results are thread-invariant — pinning lets the
/// validation gate prove it by byte comparison).
pub(crate) fn measure_with_truth(
    cfg: &RunConfig,
    policy: CounterPolicy,
    faults: Option<std::sync::Arc<FaultPlan>>,
    sim_threads: Option<usize>,
) -> TruthMeasured {
    let mut spec = cfg.spec(policy);
    spec.faults = faults;
    if sim_threads.is_some() {
        spec.sim_threads = sim_threads;
    }
    let machine = Machine::new(spec);
    let kernel = cfg.kernel;
    let class = cfg.class;
    let (results, lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
    assert!(
        results.iter().all(|r| r.verified),
        "{} class {} on {} ranks failed verification",
        cfg.kernel,
        cfg.class,
        cfg.ranks
    );
    let dumps = lib.dumps().expect("all nodes finalized");
    let encoded = (0..machine.num_nodes())
        .map(|i| lib.encoded_dump(i).expect("node finalized"))
        .collect();
    let truth = ground_truth(&machine);
    TruthMeasured {
        dumps,
        encoded,
        truth,
        job_cycles: machine.job_cycles(),
        mux: machine.mux_summary(),
    }
}

/// The exact baseline of the validation figures: one `Fixed` run per
/// counter mode.
pub(crate) struct EveryMode {
    /// Each run's dumps, indexed by counter mode.
    pub dumps: [Vec<NodeDump>; NUM_MODES],
    /// Ground truth of the first run. Determinism makes the four runs
    /// views of one execution, so it stands for all of them.
    pub truth: Vec<NodeTruth>,
    /// Job cycles summed over the four runs.
    pub cycles: u64,
}

/// Run the kernel once under `Fixed(mode)` for every counter mode.
pub(crate) fn measure_every_mode(cfg: &RunConfig) -> EveryMode {
    let mut truth: Option<Vec<NodeTruth>> = None;
    let mut cycles = 0;
    let dumps = std::array::from_fn(|m| {
        let mode = CounterMode::from_index(m).expect("mode index");
        let r = measure_with_truth(cfg, CounterPolicy::Fixed(mode), None, None);
        cycles += r.job_cycles;
        match &truth {
            None => truth = Some(r.truth),
            Some(t) => assert_eq!(
                t.len(),
                r.truth.len(),
                "fixed runs must see the same machine"
            ),
        }
        r.dumps
    });
    EveryMode {
        dumps,
        truth: truth.expect("at least one mode"),
        cycles,
    }
}

/// Read every node's independent ground truth off the machine. Valid
/// for whole-program instrumentation only: the truth mirrors are
/// cumulative, so the counting window must have covered all retirement.
pub(crate) fn ground_truth(machine: &Machine) -> Vec<NodeTruth> {
    (0..machine.num_nodes())
        .map(|i| machine.with_node(i, |n| node_truth(i as u32, n)))
        .collect()
}

fn entry(name: String, events: Vec<bgp_arch::EventId>, truth: u64) -> TruthEntry {
    TruthEntry {
        name,
        events: events.into_iter().map(|e| e.index()).collect(),
        truth,
    }
}

/// Every derivable quantity of one node. Per-core instruction, FPU and
/// stall events have per-event truth; cache/DDR families only exist in
/// aggregate (`MemStats` is node-level, the L3/DDR events are banked);
/// mode-3 events check against the node's always-on network mirror.
/// Slots with no independent source (cycle counters, snoops, L3
/// allocations, prefetch stream allocations) are not emitted.
fn node_truth(id: u32, n: &Node) -> NodeTruth {
    let mut entries = Vec::new();
    for c in 0..CORES_PER_NODE {
        let core = n.core(c);
        let ic = core.instr_counts();
        let word_loads = ic.loads - ic.load_double - ic.quadload;
        let word_stores = ic.stores - ic.store_double - ic.quadstore;
        let per_core: [(CoreEvent, u64); 16] = [
            (CoreEvent::InstrCompleted, core.instructions()),
            (CoreEvent::IntOp, ic.int_ops),
            (CoreEvent::Branch, ic.branches),
            (CoreEvent::BranchMispredict, ic.mispredicts),
            // The scalar path reports a 4-byte access on `Load`/`Store`
            // twice (once as the class, once as the width event).
            (CoreEvent::Load, ic.loads + word_loads),
            (CoreEvent::Store, ic.stores + word_stores),
            (CoreEvent::LoadDouble, ic.load_double),
            (CoreEvent::StoreDouble, ic.store_double),
            (CoreEvent::Quadload, ic.quadload),
            (CoreEvent::Quadstore, ic.quadstore),
            (CoreEvent::StallMem, core.stall_mem()),
            (CoreEvent::StallFpu, core.stall_fpu()),
            (CoreEvent::FpMove, core.fpu().count(FpOp::Move)),
            (CoreEvent::FpAddSub, core.fpu().count(FpOp::AddSub)),
            (CoreEvent::FpMult, core.fpu().count(FpOp::Mult)),
            (CoreEvent::FpDiv, core.fpu().count(FpOp::Div)),
        ];
        for (ev, truth) in per_core {
            let eid = ev.id(c);
            entries.push(entry(eid.name(), vec![eid], truth));
        }
        for (ev, op) in [
            (CoreEvent::FpFma, FpOp::Fma),
            (CoreEvent::FpSimdAddSub, FpOp::SimdAddSub),
            (CoreEvent::FpSimdMult, FpOp::SimdMult),
            (CoreEvent::FpSimdDiv, FpOp::SimdDiv),
            (CoreEvent::FpSimdFma, FpOp::SimdFma),
        ] {
            let eid = ev.id(c);
            entries.push(entry(eid.name(), vec![eid], core.fpu().count(op)));
        }
    }
    // Whole-chip FP arithmetic family (the per-class rows above already
    // pin each weight of the flops formula, so this aggregate plus
    // those implies `bgp_fpu::Fpu::flops` agreement).
    let mut flop_events = Vec::new();
    for c in 0..CORES_PER_NODE {
        for ev in [
            CoreEvent::FpAddSub,
            CoreEvent::FpMult,
            CoreEvent::FpDiv,
            CoreEvent::FpFma,
            CoreEvent::FpSimdAddSub,
            CoreEvent::FpSimdMult,
            CoreEvent::FpSimdDiv,
            CoreEvent::FpSimdFma,
        ] {
            flop_events.push(ev.id(c));
        }
    }
    let fp_arith: u64 = (0..CORES_PER_NODE)
        .map(|c| {
            let f = n.core(c).fpu();
            FpOp::ALL
                .iter()
                .filter(|&&op| op != FpOp::Move)
                .map(|&op| f.count(op))
                .sum::<u64>()
        })
        .sum();
    entries.push(entry("fp_arith_instructions".into(), flop_events, fp_arith));
    // Node-level memory-hierarchy families.
    let ms = n.mem_stats();
    let per_core_family = |ev: CoreEvent| -> Vec<bgp_arch::EventId> {
        (0..CORES_PER_NODE).map(|c| ev.id(c)).collect()
    };
    for (name, ev, truth) in [
        ("l1d_hits", CoreEvent::L1dHit, ms.l1d_hits),
        ("l1d_misses", CoreEvent::L1dMiss, ms.l1d_misses),
        ("l1d_writebacks", CoreEvent::L1dWriteback, ms.l1d_writebacks),
        ("l1i_hits", CoreEvent::L1iHit, ms.l1i_hits),
        ("l1i_misses", CoreEvent::L1iMiss, ms.l1i_misses),
        ("l2_hits", CoreEvent::L2Hit, ms.l2_hits),
        ("l2_misses", CoreEvent::L2Miss, ms.l2_misses),
        (
            "l2_prefetch_hits",
            CoreEvent::L2PrefetchHit,
            ms.l2_prefetch_hits,
        ),
        (
            "l2_prefetches_issued",
            CoreEvent::L2PrefetchIssued,
            ms.l2_prefetches_issued,
        ),
    ] {
        entries.push(entry(name.into(), per_core_family(ev), truth));
    }
    for (name, evs, truth) in [
        (
            "l3_hits",
            vec![SharedEvent::L3Hit0, SharedEvent::L3Hit1],
            ms.l3_hits,
        ),
        (
            "l3_misses",
            vec![SharedEvent::L3Miss0, SharedEvent::L3Miss1],
            ms.l3_misses,
        ),
        (
            "l3_writebacks",
            vec![SharedEvent::L3Writeback0, SharedEvent::L3Writeback1],
            ms.l3_writebacks,
        ),
        (
            "ddr_reads",
            vec![SharedEvent::DdrRead0, SharedEvent::DdrRead1],
            ms.ddr_reads,
        ),
        (
            "ddr_writes",
            vec![SharedEvent::DdrWrite0, SharedEvent::DdrWrite1],
            ms.ddr_writes,
        ),
        (
            "ddr_conflicts",
            vec![SharedEvent::DdrConflict0, SharedEvent::DdrConflict1],
            ms.ddr_conflicts,
        ),
    ] {
        entries.push(entry(
            name.into(),
            evs.into_iter().map(|e| e.id()).collect(),
            truth,
        ));
    }
    // Network events against the node's always-on mode-3 mirror.
    for &ev in NetEvent::ALL {
        let eid = ev.id();
        let truth = n.net_truth()[eid.slot().0 as usize];
        entries.push(entry(eid.name(), vec![eid], truth));
    }
    NodeTruth { node: id, entries }
}

/// Experiment scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny smoke-test scale (class S, 8 ranks).
    Quick,
    /// Default reproduction scale (class A, 16 ranks over 4 VNM nodes —
    /// sized for single-host simulation; use `--paper` for the paper's
    /// process counts).
    Default,
    /// The paper's process counts (class A, 128 ranks / 121 for SP & BT).
    Paper,
}

impl Scale {
    /// Problem class at this scale.
    pub(crate) fn class(self) -> Class {
        match self {
            Scale::Quick => Class::S,
            _ => Class::A,
        }
    }

    /// Target rank count (kernels clamp to their nearest legal count).
    pub(crate) fn ranks(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Default => 16,
            Scale::Paper => 128,
        }
    }

    /// Timed repetitions of the host-timing sweeps (min-of-reps).
    pub(crate) fn reps(self) -> usize {
        match self {
            Scale::Quick => 5,
            Scale::Default => 3,
            Scale::Paper => 1,
        }
    }
}

/// Directory the `repro_all` entries write their CSVs into: `results/`,
/// or `$BGP_RESULTS_DIR`.
pub(crate) fn results_dir() -> PathBuf {
    let p = std::env::var("BGP_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(p);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Where `BENCH_*.json` machine-performance records go: the repo root
/// by default (they are committed artifacts), or `$BGP_BENCH_DIR` so CI
/// smoke runs at Quick scale can write somewhere disposable instead of
/// clobbering the committed Default-scale numbers.
pub(crate) fn bench_json_path(name: &str) -> PathBuf {
    let dir = std::env::var("BGP_BENCH_DIR").unwrap_or_else(|_| ".".into());
    PathBuf::from(dir).join(name)
}

/// Print a banner + the CSV body to stdout and persist it.
pub fn emit(name: &str, csv: &bgp_postproc::Csv) {
    let path = results_dir().join(format!("{name}.csv"));
    csv.write(&path).expect("write csv");
    println!("==== {name} -> {} ====", path.display());
    print!("{}", csv.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CoreEvent;
    use bgp_postproc::{fp_mix, MixCategory};

    #[test]
    fn measure_cores_sees_all_four_cores_in_vnm() {
        let cfg = RunConfig::new(Kernel::Ep, Class::S, 8);
        let m = measure_cores(&cfg);
        for core in 0..4 {
            assert!(
                m.frame.sum(CoreEvent::CycleCount.id(core)) > 0,
                "core {core} cycle counter empty"
            );
        }
        let mix = fp_mix(&m.frame);
        assert!(mix.count(MixCategory::SingleFma) > 0);
    }

    #[test]
    fn measure_memory_sees_ddr_traffic() {
        let cfg = RunConfig::new(Kernel::Mg, Class::S, 8);
        let m = measure_memory(&cfg);
        assert!(bgp_postproc::ddr_traffic_bytes_per_node(&m.frame) > 0.0);
        assert!(m.job_cycles > 0);
    }

    #[test]
    fn scale_parsing_defaults() {
        assert_eq!(Scale::Default.ranks(), 16);
        assert_eq!(Scale::Paper.ranks(), 128);
        assert_eq!(Scale::Quick.class(), Class::S);
    }
}
