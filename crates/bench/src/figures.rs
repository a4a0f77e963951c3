//! One function per table/figure of the paper. The [`crate::repro`]
//! registry names each one; `repro_all` runs them.

use crate::{measure_cores, measure_every_mode, measure_memory, measure_with_truth};
use crate::{RunConfig, Scale};
use bgp_arch::events::{CoreEvent, CounterMode, NUM_MODES};
use bgp_arch::{modes::OpMode, CORE_CLOCK_HZ};
use bgp_compiler::{CompileOpts, QArch};
use bgp_core::{run_instrumented, Session, WHOLE_PROGRAM_SET};
use bgp_core::{INIT_CYCLES, START_CYCLES, STOP_CYCLES, TOTAL_OVERHEAD_CYCLES};
use bgp_mpi::{CounterPolicy, JobSpec, Machine, SemOp};
use bgp_nas::{Class, Kernel};
use bgp_postproc::{
    ddr_traffic_bytes_per_node, fp_mix, l3_miss_ratio, mflops_per_chip, Csv, Frame, MixCategory,
    ValidationReport,
};
use std::sync::Arc;
use std::time::Instant;

/// Fig. 3: the modes-of-operation table.
pub(crate) fn fig03() -> Csv {
    let mut csv = Csv::new(["mode", "processes_per_node", "threads_per_process"]);
    for m in OpMode::ALL {
        csv.row([
            m.label().to_string(),
            m.processes_per_node().to_string(),
            m.threads_per_process().to_string(),
        ]);
    }
    csv
}

/// §IV overhead table: the interface-library call costs in cycles,
/// measured against the Time Base exactly like the paper (and the
/// constants they decompose into).
pub(crate) fn tab_overhead() -> Csv {
    // Measure: instrument an empty snippet on a 1-rank machine.
    let mut spec = JobSpec::new(1, OpMode::Smp1);
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
    let machine = Machine::new(spec);
    let measured = machine.run(|mut ctx| async move {
        let ctx = &mut ctx;
        let t0 = ctx.cycles();
        let s = Session::initialize(ctx);
        let s = s.start(0).expect("start");
        let s = s.stop().expect("stop");
        let t_total = s.cycles() - t0;
        // Marginal start/stop pair for an already-initialized unit.
        let t1 = s.cycles();
        let s = s.start(1).expect("start");
        let s = s.stop().expect("stop");
        let t_pair = s.cycles() - t1;
        s.finalize().expect("finalize");
        (t_total, t_pair)
    })[0];
    let mut csv = Csv::new(["quantity", "cycles"]);
    csv.row([
        "measured initialize+start+stop".into(),
        measured.0.to_string(),
    ]);
    csv.row([
        "measured marginal start+stop pair".into(),
        measured.1.to_string(),
    ]);
    csv.row(["model BGP_Initialize".into(), INIT_CYCLES.to_string()]);
    csv.row(["model BGP_Start".into(), START_CYCLES.to_string()]);
    csv.row(["model BGP_Stop".into(), STOP_CYCLES.to_string()]);
    csv.row([
        "paper total (196)".into(),
        TOTAL_OVERHEAD_CYCLES.to_string(),
    ]);
    csv
}

/// Fig. 6: dynamic FP instruction mix of all eight kernels
/// (VNM, `-O5 -qarch=440d`, the paper's configuration).
pub(crate) fn fig06(scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "ranks",
        "single add-sub",
        "single mult",
        "single FMA",
        "single div",
        "SIMD add-sub",
        "SIMD FMA",
        "SIMD mult",
    ]);
    for kernel in Kernel::ALL {
        let cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
        let m = measure_cores(&cfg);
        let mix = fp_mix(&m.frame);
        let mut row = vec![kernel.name().to_string(), cfg.ranks.to_string()];
        for cat in MixCategory::ALL {
            row.push(format!("{:.4}", mix.fraction(cat)));
        }
        csv.row(row);
    }
    csv
}

/// Figs. 7/8: SIMD instruction counts of one kernel across compiler
/// builds, ±`-qarch=440d`.
pub(crate) fn fig_simd_sweep(kernel: Kernel, scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "build",
        "SIMD add-sub",
        "SIMD FMA",
        "SIMD mult",
        "quadload",
        "quadstore",
        "total FP instr",
    ]);
    let mut builds: Vec<CompileOpts> = Vec::new();
    for base in CompileOpts::paper_sweep() {
        builds.push(base.with_qarch(QArch::Ppc440));
        builds.push(base.with_qarch(QArch::Ppc440d));
    }
    for compile in builds {
        let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
        cfg.compile = compile;
        let m = measure_cores(&cfg);
        let mix = fp_mix(&m.frame);
        let quadload: u64 = (0..4).map(|c| m.frame.sum(CoreEvent::Quadload.id(c))).sum();
        let quadstore: u64 = (0..4)
            .map(|c| m.frame.sum(CoreEvent::Quadstore.id(c)))
            .sum();
        csv.row([
            compile.label(),
            mix.count(MixCategory::SimdAddSub).to_string(),
            mix.count(MixCategory::SimdFma).to_string(),
            mix.count(MixCategory::SimdMult).to_string(),
            quadload.to_string(),
            quadstore.to_string(),
            mix.total().to_string(),
        ]);
    }
    csv
}

/// Figs. 9/10: execution time (cycles and seconds) of a set of kernels
/// across the four builds of the paper's sweep; `norm_vs_baseline`
/// column shows the fraction of baseline time.
pub(crate) fn fig_exec_time(kernels: &[Kernel], scale: Scale) -> Csv {
    let mut csv = Csv::new(["kernel", "build", "cycles", "seconds", "norm_vs_baseline"]);
    for &kernel in kernels {
        let mut baseline = None;
        for compile in CompileOpts::paper_sweep() {
            let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
            cfg.compile = compile;
            let m = measure_cores(&cfg);
            let cycles = m.job_cycles;
            let base = *baseline.get_or_insert(cycles);
            csv.row([
                kernel.name().to_string(),
                compile.label(),
                cycles.to_string(),
                format!("{:.6}", cycles as f64 / CORE_CLOCK_HZ as f64),
                format!("{:.4}", cycles as f64 / base as f64),
            ]);
        }
    }
    csv
}

/// Fig. 11: DDR traffic per node vs L3 size (0–8 MB in 2 MB steps).
pub(crate) fn fig11(scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "l3_mb",
        "ddr_traffic_bytes_per_node",
        "l3_miss_ratio",
        "norm_vs_no_l3",
    ]);
    for kernel in Kernel::ALL {
        let mut no_l3 = None;
        for mb in [0usize, 2, 4, 6, 8] {
            let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
            cfg.machine = cfg.machine.with_l3_bytes(mb << 20);
            let m = measure_memory(&cfg);
            let traffic = ddr_traffic_bytes_per_node(&m.frame);
            let base = *no_l3.get_or_insert(traffic);
            csv.row([
                kernel.name().to_string(),
                mb.to_string(),
                format!("{traffic:.0}"),
                format!("{:.4}", l3_miss_ratio(&m.frame)),
                format!("{:.4}", traffic / base.max(1.0)),
            ]);
        }
    }
    csv
}

/// One kernel's VNM-vs-SMP/1 comparison (feeds Figs. 12, 13 and 14).
pub(crate) struct ModeRow {
    /// Kernel.
    pub kernel: Kernel,
    /// DDR traffic per chip, Virtual Node Mode (4 ranks/chip).
    pub vnm_traffic: f64,
    /// DDR traffic per chip, SMP/1 with the 2 MB fairness L3.
    pub smp_traffic: f64,
    /// Job cycles, VNM.
    pub vnm_cycles: u64,
    /// Job cycles, SMP/1.
    pub smp_cycles: u64,
    /// Achieved MFLOPS per chip, VNM.
    pub vnm_mflops: f64,
    /// Achieved MFLOPS per chip, SMP/1.
    pub smp_mflops: f64,
}

/// Run the §VIII comparison for every kernel: the same ranks packed
/// 4-per-chip (VNM) versus 1-per-chip (SMP/1, L3 limited to 2 MB per the
/// paper's fairness boot option).
pub(crate) fn mode_comparison(scale: Scale) -> Vec<ModeRow> {
    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        let vnm = RunConfig::new(kernel, scale.class(), scale.ranks());
        let mut smp = vnm.clone();
        smp.mode = OpMode::Smp1;
        smp.machine = smp.machine.with_l3_bytes(2 << 20);

        let vnm_mem = measure_memory(&vnm);
        let smp_mem = measure_memory(&smp);
        let vnm_core = measure_cores(&vnm);
        let smp_core = measure_cores(&smp);
        rows.push(ModeRow {
            kernel,
            vnm_traffic: ddr_traffic_bytes_per_node(&vnm_mem.frame),
            smp_traffic: ddr_traffic_bytes_per_node(&smp_mem.frame),
            vnm_cycles: vnm_mem.job_cycles,
            smp_cycles: smp_mem.job_cycles,
            vnm_mflops: mflops_per_chip(&vnm_core.frame, 4),
            smp_mflops: mflops_per_chip(&smp_core.frame, 1),
        });
    }
    rows
}

/// Fig. 12: per-chip DDR-traffic ratio, VNM ÷ SMP/1.
pub(crate) fn fig12(rows: &[ModeRow]) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "vnm_bytes_per_chip",
        "smp_bytes_per_chip",
        "ratio",
    ]);
    let mut sum = 0.0;
    for r in rows {
        let ratio = r.vnm_traffic / r.smp_traffic.max(1.0);
        sum += ratio;
        csv.row([
            r.kernel.name().to_string(),
            format!("{:.0}", r.vnm_traffic),
            format!("{:.0}", r.smp_traffic),
            format!("{ratio:.3}"),
        ]);
    }
    csv.row([
        "MEAN".into(),
        String::new(),
        String::new(),
        format!("{:.3}", sum / rows.len() as f64),
    ]);
    csv
}

/// Fig. 13: execution-time increase per node, VNM vs SMP/1 (percent).
pub(crate) fn fig13(rows: &[ModeRow]) -> Csv {
    let mut csv = Csv::new(["kernel", "vnm_cycles", "smp_cycles", "increase_percent"]);
    let mut sum = 0.0;
    for r in rows {
        let inc = (r.vnm_cycles as f64 / r.smp_cycles as f64 - 1.0) * 100.0;
        sum += inc;
        csv.row([
            r.kernel.name().to_string(),
            r.vnm_cycles.to_string(),
            r.smp_cycles.to_string(),
            format!("{inc:.2}"),
        ]);
    }
    csv.row([
        "MEAN".into(),
        String::new(),
        String::new(),
        format!("{:.2}", sum / rows.len() as f64),
    ]);
    csv
}

/// Fig. 14: achieved MFLOPS per chip, VNM vs SMP/1.
pub(crate) fn fig14(rows: &[ModeRow]) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "vnm_mflops_per_chip",
        "smp_mflops_per_chip",
        "ratio",
    ]);
    let mut sum = 0.0;
    for r in rows {
        let ratio = r.vnm_mflops / r.smp_mflops.max(1e-9);
        sum += ratio;
        csv.row([
            r.kernel.name().to_string(),
            format!("{:.1}", r.vnm_mflops),
            format!("{:.1}", r.smp_mflops),
            format!("{ratio:.3}"),
        ]);
    }
    csv.row([
        "MEAN".into(),
        String::new(),
        String::new(),
        format!("{:.3}", sum / rows.len() as f64),
    ]);
    csv
}

/// Extension (§IX future work): sweep the L2 prefetch depth and observe
/// execution time and DDR traffic for the streaming kernels.
pub(crate) fn fig_ext_prefetch(scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "prefetch_depth",
        "cycles",
        "ddr_traffic_bytes_per_node",
    ]);
    for kernel in [Kernel::Mg, Kernel::Cg] {
        for depth in [0usize, 2, 8] {
            let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
            cfg.machine = cfg.machine.with_l2_prefetch_depth(depth);
            let m = measure_memory(&cfg);
            csv.row([
                kernel.name().to_string(),
                depth.to_string(),
                m.job_cycles.to_string(),
                format!("{:.0}", ddr_traffic_bytes_per_node(&m.frame)),
            ]);
        }
    }
    csv
}

/// Extension: all four operating modes of Fig. 3 running the same MPI
/// job (threads beyond one per process idle, as for any MPI-only code).
pub(crate) fn fig_ext_modes(scale: Scale) -> Csv {
    let mut csv = Csv::new(["kernel", "mode", "nodes", "cycles", "mflops_per_chip"]);
    for kernel in [Kernel::Cg, Kernel::Mg] {
        for mode in OpMode::ALL {
            let mut cfg = RunConfig::new(kernel, scale.class(), scale.ranks() / 2);
            cfg.mode = mode;
            let m = measure_cores(&cfg);
            let spec_nodes = cfg.ranks.div_ceil(mode.processes_per_node());
            csv.row([
                kernel.name().to_string(),
                mode.label().to_string(),
                spec_nodes.to_string(),
                m.job_cycles.to_string(),
                format!(
                    "{:.1}",
                    mflops_per_chip(&m.frame, mode.processes_per_node())
                ),
            ]);
        }
    }
    csv
}

/// Extension: the §IV even/odd-node trick — 512 events in one run versus
/// two fixed-mode runs.
pub(crate) fn fig_ext_512events(scale: Scale) -> Csv {
    let kernel = Kernel::Cg;
    let cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
    // One run, even/odd policy.
    let eo = measure_cores(&cfg);
    let eo_events = eo.frame.all_stats().len();
    // Two runs, fixed policies.
    let m0 = crate::measure(&cfg, CounterPolicy::Fixed(CounterMode::Mode0));
    let m1 = crate::measure(&cfg, CounterPolicy::Fixed(CounterMode::Mode1));
    let fixed_events = m0.frame.all_stats().len() + m1.frame.all_stats().len();
    let mut csv = Csv::new(["strategy", "runs", "events_observed"]);
    csv.row([
        "even/odd nodes (the paper's)".into(),
        "1".into(),
        eo_events.to_string(),
    ]);
    csv.row([
        "two fixed-mode runs".into(),
        "2".into(),
        fixed_events.to_string(),
    ]);
    csv
}

/// Extension (robustness): sweep fault-injection rates on an MG run and
/// watch collection coverage and the degraded-mode DDR-traffic metric
/// drift against the fault-free baseline. Every row uses the same seed,
/// so the sweep is reproducible bit-for-bit.
pub(crate) fn fig_ext_faults(scale: Scale) -> Csv {
    use bgp_core::collect::collect_dumps;
    use bgp_faults::{FaultPlan, FaultSpec};

    let kernel = Kernel::Mg;
    let class = scale.class();
    let ranks = kernel.clamp_ranks(scale.ranks(), class);
    let mut csv = Csv::new([
        "node_loss_rate",
        "nodes",
        "nodes_delivered",
        "collection_coverage",
        "frame_coverage",
        "retry_backoff_cycles",
        "ddr_traffic_bytes_per_node",
        "deviation_pct_vs_clean",
        "sanity_flags",
    ]);
    let mut clean_metric: Option<f64> = None;
    for loss in [0.0, 0.05, 0.10, 0.20] {
        // Dump corruption, counter damage, and collection timeouts all
        // scale with the node-loss level; the first row is fault-free.
        let fspec = if loss == 0.0 {
            FaultSpec::none()
        } else {
            FaultSpec {
                node_loss_rate: loss,
                straggler_rate: loss,
                straggler_penalty_cycles: 2_000,
                collection_timeout_rate: 0.15,
                counter_bitflip_rate: loss / 2.0,
                counter_saturate_rate: loss / 4.0,
                dump_truncate_rate: loss / 4.0,
                dump_byteflip_rate: loss / 4.0,
                dump_missing_rate: loss / 8.0,
                ..FaultSpec::none()
            }
        };
        let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode2);
        let nodes = spec.nodes();
        let census = spec.counter_policy.census(nodes);
        let plan = Arc::new(FaultPlan::new(fspec, 0xFA17_5EED, nodes));
        spec.faults = Some(Arc::clone(&plan));
        let machine = Machine::new(spec);
        let (_, lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
        let coll = collect_dumps(&lib, &plan);
        let frame = Frame::from_survivors(&coll.dumps, WHOLE_PROGRAM_SET, census);
        let metric = if frame.coverage() > 0.0 {
            ddr_traffic_bytes_per_node(&frame)
        } else {
            f64::NAN
        };
        let clean = *clean_metric.get_or_insert(metric);
        let deviation = if clean > 0.0 {
            (metric - clean) / clean * 100.0
        } else {
            0.0
        };
        csv.row([
            format!("{loss:.2}"),
            nodes.to_string(),
            coll.dumps.len().to_string(),
            format!("{:.3}", coll.coverage()),
            format!("{:.3}", frame.coverage()),
            coll.total_backoff_cycles().to_string(),
            format!("{metric:.0}"),
            format!("{deviation:.2}"),
            frame.anomalies().len().to_string(),
        ]);
    }
    csv
}

/// One row of the tracing-overhead comparison (feeds
/// [`fig_ext_trace_overhead`] and `BENCH_trace.json`).
pub(crate) struct TraceOverheadSample {
    /// Configuration label: `off` (no `TraceConfig` on the spec) or
    /// `enabled` (traced, with live counter sampling).
    pub config: &'static str,
    /// Best-of-reps host wall-clock milliseconds for the job.
    pub wall_ms: f64,
    /// Slowdown relative to the `off` baseline, percent, clamped at 0
    /// (host timing noise can make an instrumented run *faster*).
    pub overhead_pct: f64,
    /// Trace events retained across every ring buffer after the job.
    pub events: u64,
    /// Events evicted from full ring buffers.
    pub dropped: u64,
}

/// The MG job the host-timing sweeps share: `scale`'s class and ranks,
/// VNM, nothing else switched on.
fn mg_job(scale: Scale) -> (Class, JobSpec) {
    let class = scale.class();
    (
        class,
        JobSpec::new(
            Kernel::Mg.clamp_ranks(scale.ranks(), class),
            OpMode::VirtualNode,
        ),
    )
}

/// Host wall milliseconds of one verified run of the shared MG job on
/// `machine`, and what `read` takes off the machine afterwards.
fn mg_timed<R>(class: Class, machine: Arc<Machine>, read: impl Fn(&Machine) -> R) -> (f64, R) {
    let t0 = Instant::now();
    let (out, _lib) = run_instrumented(&machine, move |ctx| Kernel::Mg.exec(class, ctx));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(out.iter().all(|r| r.verified), "MG failed verification");
    (wall_ms, read(&machine))
}

/// Min-of-reps host timing. One untimed warm-up run of `configs[0]`
/// keeps the first timed rep from paying for cold caches and allocator
/// growth; then `reps` rounds run every config in turn, so host drift
/// hits all of them equally. `run` returns a wall time and a reading;
/// the result is each config's best time next to its last reading.
fn best_of_reps<C, R>(
    configs: &[C],
    reps: usize,
    mut run: impl FnMut(&C) -> (f64, R),
) -> Vec<(f64, R)> {
    run(&configs[0]);
    let mut best: Vec<(f64, Option<R>)> = configs.iter().map(|_| (f64::INFINITY, None)).collect();
    for _ in 0..reps {
        for (config, (ms, last)) in configs.iter().zip(&mut best) {
            let (t, r) = run(config);
            *ms = ms.min(t);
            *last = Some(r);
        }
    }
    best.into_iter()
        .map(|(ms, r)| (ms, r.expect("at least one rep")))
        .collect()
}

/// Slowdown of `ms` over `base_ms`, percent, clamped at 0 (host timing
/// noise can make an instrumented run *faster*).
fn slowdown_pct(ms: f64, base_ms: f64) -> f64 {
    ((ms - base_ms) / base_ms * 100.0).max(0.0)
}

/// Run the tracing-overhead comparison behind Fig. ext-trace-overhead:
/// the same MG job untraced and traced (counter sampling every 16
/// windows on slots 0–2), timed by `best_of_reps`.
pub(crate) fn trace_overhead_sweep(scale: Scale) -> Vec<TraceOverheadSample> {
    use bgp_trace::TraceConfig;

    let (class, off) = mg_job(scale);
    let mut enabled = off.clone();
    enabled.trace = Some(TraceConfig {
        sample_slots: vec![0, 1, 2],
        ..TraceConfig::default()
    });
    let best = best_of_reps(&[off, enabled], scale.reps(), |spec| {
        mg_timed(class, Machine::new(spec.clone()), |m| {
            m.job_trace()
                .map_or((0, 0), |t| (t.total_events() as u64, t.total_dropped()))
        })
    });
    let base_ms = best[0].0;
    ["off", "enabled"]
        .into_iter()
        .zip(best)
        .map(
            |(config, (wall_ms, (events, dropped)))| TraceOverheadSample {
                config,
                wall_ms,
                overhead_pct: slowdown_pct(wall_ms, base_ms),
                events,
                dropped,
            },
        )
        .collect()
}

/// One measured configuration of the checkpoint-overhead sweep.
#[derive(Debug)]
pub(crate) struct SnapshotOverheadSample {
    /// Configuration label (`off` / `every64`).
    pub config: &'static str,
    /// Best-of-reps wall time.
    pub wall_ms: f64,
    /// Slowdown over the `off` baseline, percent (clamped at 0).
    pub overhead_pct: f64,
    /// Snapshot files written by one run.
    pub snapshots: u64,
    /// Mean snapshot file size in bytes.
    pub mean_bytes: u64,
    /// Wall time one run spent serializing and writing snapshots.
    pub save_ms: f64,
}

/// Result of [`snapshot_overhead_sweep`]: the off/on comparison plus
/// the measured cost of an actual resume (load newest snapshot, replay
/// to its phase, go live, finish the job).
#[derive(Debug)]
pub(crate) struct SnapshotSweep {
    /// Per-configuration measurements (`off` first).
    pub samples: Vec<SnapshotOverheadSample>,
    /// Wall time of the resumed run.
    pub resume_ms: f64,
    /// Phase the resumed run continued from.
    pub resume_phase: u64,
}

/// Checkpoint overhead on an MG job (feeds [`fig_ext_snapshot`] and
/// `BENCH_snapshot.json`), timed by `best_of_reps`. The
/// `fig_ext_snapshot` entry bounds snapshots every 64 phases at < 5 %
/// wall over no checkpointing; the sweep also measures one real resume
/// so the restore path has a recorded cost.
pub(crate) fn snapshot_overhead_sweep(scale: Scale) -> SnapshotSweep {
    use bgp_mpi::machine::CheckpointConfig;
    use bgp_snapshot::SnapshotStore;

    let (class, off) = mg_job(scale);
    let dir = std::env::temp_dir().join(format!("bgp-snapbench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut every64 = off.clone();
    every64.checkpoint = Some(CheckpointConfig {
        every: 64,
        dir: dir.clone(),
        retain: 2,
    });
    let best = best_of_reps(&[off, every64.clone()], scale.reps(), |spec| {
        mg_timed(class, Machine::new(spec.clone()), Machine::snapshot_stats)
    });

    // One real resume from the newest snapshot the sweep left behind.
    let outcome = SnapshotStore::new(&dir, 2)
        .load_latest_valid(every64.fingerprint())
        .expect("snapshot store readable");
    let (snap, _) = outcome.snapshot.expect("sweep wrote snapshots");
    let resume_phase = snap.phase;
    let machine = Machine::new(every64);
    machine.resume(snap).expect("snapshot accepted");
    let (resume_ms, ()) = mg_timed(class, machine, |_| ());
    let _ = std::fs::remove_dir_all(&dir);

    let (base_ms, _) = best[0];
    let (on_ms, stats) = &best[1];
    SnapshotSweep {
        samples: vec![
            SnapshotOverheadSample {
                config: "off",
                wall_ms: base_ms,
                overhead_pct: 0.0,
                snapshots: 0,
                mean_bytes: 0,
                save_ms: 0.0,
            },
            SnapshotOverheadSample {
                config: "every64",
                wall_ms: *on_ms,
                overhead_pct: slowdown_pct(*on_ms, base_ms),
                snapshots: stats.written,
                mean_bytes: stats.bytes / stats.written.max(1),
                save_ms: stats.save_nanos as f64 / 1e6,
            },
        ],
        resume_ms,
        resume_phase,
    }
}

/// Extension (checkpointing): wall cost of snapshots every 64 phases
/// over none, and of one real resume, from [`snapshot_overhead_sweep`].
pub(crate) fn fig_ext_snapshot(sweep: &SnapshotSweep) -> Csv {
    let mut csv = Csv::new([
        "config",
        "wall_ms",
        "overhead_pct",
        "snapshots",
        "mean_bytes",
        "save_ms",
    ]);
    for s in &sweep.samples {
        csv.row([
            s.config.to_string(),
            format!("{:.1}", s.wall_ms),
            format!("{:.2}", s.overhead_pct),
            s.snapshots.to_string(),
            s.mean_bytes.to_string(),
            format!("{:.1}", s.save_ms),
        ]);
    }
    let mut resume = vec![String::new(); 6];
    resume[0] = "resume".into();
    resume[1] = format!("{:.1}", sweep.resume_ms);
    csv.row(resume);
    csv
}

/// Memory-engine throughput comparison (feeds [`fig_ext_memthroughput`]
/// and `BENCH_mem.json`): the same access stream driven through the
/// per-op [`bgp_node::Node::mem_op`] path — icache probe, hierarchy
/// walk, retirement and counter sync per access — and through
/// [`bgp_node::Node::mem_ops`] in quantum-sized slices, plus the
/// end-to-end MG job that rides the batched engine.
pub(crate) struct MemThroughputReport {
    /// Simulated accesses per host second, per-op `mem_op` loop.
    pub scalar_maps: f64,
    /// Simulated accesses per host second, `mem_ops` slices.
    pub batched_maps: f64,
    /// `batched_maps / scalar_maps`.
    pub speedup: f64,
    /// Best-of-reps wall time for the end-to-end MG job below.
    pub mg_wall_ms: f64,
    /// MG problem class at this scale.
    pub mg_class: Class,
    /// MG rank count at this scale.
    pub mg_ranks: usize,
}

/// Run the memory-engine throughput comparison. The synthetic stream
/// mirrors the NAS mix — three unit-stride double sweeps for every
/// random-footprint burst — so the same-line run memoization is
/// exercised at its real duty cycle, not a best case. Both engines see
/// identical streams on fresh [`bgp_mem::MemorySystem`]s; wall times
/// come from `best_of_reps`, like the tracing sweep.
pub(crate) fn mem_throughput_sweep(scale: Scale) -> MemThroughputReport {
    use bgp_arch::{MachineConfig, NodeId};
    use bgp_node::{MemOp, MemWidth, Node};

    let n_accesses = if scale == Scale::Quick {
        1usize << 20
    } else {
        1 << 22
    };
    // The kernels' dominant pattern: a 5-point stencil sweeping three
    // fields (u read with spatial reuse, rhs streamed, res written) —
    // mostly L1 hits with unit-stride runs, as in the MG/LU/SP inner
    // loops — broken up by scattered accesses (index vectors,
    // histograms) at roughly their NAS duty cycle.
    let mut stream = Vec::with_capacity(n_accesses + 8);
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    const NX: u64 = 512;
    const U: u64 = 0;
    const RHS: u64 = 16 << 20;
    const RES: u64 = 32 << 20;
    let mut idx = NX + 1;
    while stream.len() < n_accesses {
        for _ in 0..16 {
            let p = (idx % (1 << 20)) * 8;
            for off in [p - NX * 8, p - 8, p, p + 8, p + NX * 8] {
                stream.push(MemOp {
                    vaddr: U + off,
                    width: MemWidth::Double,
                    write: false,
                });
            }
            stream.push(MemOp {
                vaddr: RHS + p,
                width: MemWidth::Double,
                write: false,
            });
            stream.push(MemOp {
                vaddr: RES + p,
                width: MemWidth::Double,
                write: true,
            });
            idx += 1;
        }
        for _ in 0..14 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            stream.push(MemOp {
                vaddr: ((x >> 9) % (8 << 20)) & !7,
                width: MemWidth::Double,
                write: x & 7 == 0,
            });
        }
    }
    stream.truncate(n_accesses);

    // Config `false` drives the per-op walk, `true` the batched engine.
    let engines = best_of_reps(&[false, true], scale.reps(), |&batched| {
        let cfg = std::sync::Arc::new(MachineConfig::default());
        let mut node = Node::new(NodeId(0), cfg, OpMode::VirtualNode, CounterMode::Mode2);
        node.upc_mut().set_enabled(true);
        let t0 = Instant::now();
        if batched {
            for c in stream.chunks(2048) {
                node.mem_ops(0, 0, c);
            }
        } else {
            for op in &stream {
                node.mem_op(0, 0, op.vaddr, op.width, op.write);
            }
        }
        std::hint::black_box(node.core(0).cycles());
        (t0.elapsed().as_secs_f64(), ())
    });
    let scalar_maps = n_accesses as f64 / engines[0].0 / 1e6;
    let batched_maps = n_accesses as f64 / engines[1].0 / 1e6;

    // End-to-end: the acceptance job (MG class A on 16 VNM ranks at
    // Default scale) on the batched engine.
    let (class, spec) = mg_job(scale);
    let mg_ranks = spec.ranks;
    let mg = best_of_reps(&[spec], scale.reps(), |spec| {
        mg_timed(class, Machine::new(spec.clone()), |_| ())
    });

    MemThroughputReport {
        scalar_maps,
        batched_maps,
        speedup: batched_maps / scalar_maps,
        mg_wall_ms: mg[0].0,
        mg_class: class,
        mg_ranks,
    }
}

/// Extension (performance): simulator throughput of the batched memory
/// engine vs. the per-op scalar walk, plus the end-to-end MG wall time,
/// from [`mem_throughput_sweep`].
pub(crate) fn fig_ext_memthroughput(r: &MemThroughputReport) -> Csv {
    let mut csv = Csv::new(["measure", "value"]);
    csv.row([
        "scalar_maccesses_per_s".into(),
        format!("{:.1}", r.scalar_maps),
    ]);
    csv.row([
        "batched_maccesses_per_s".into(),
        format!("{:.1}", r.batched_maps),
    ]);
    csv.row(["batch_speedup".into(), format!("{:.2}", r.speedup)]);
    csv.row([
        format!("mg_{:?}_{}_wall_ms", r.mg_class, r.mg_ranks),
        format!("{:.0}", r.mg_wall_ms),
    ]);
    csv
}

/// One point of the full-machine scaling sweep (feeds
/// [`fig_ext_fullmachine`] and `BENCH_fullmachine.json`).
pub(crate) struct FullMachineSample {
    /// Compute nodes simulated.
    pub nodes: usize,
    /// MPI ranks (4 per node in VNM).
    pub ranks: usize,
    /// Host wall-clock milliseconds for build + run.
    pub wall_ms: f64,
    /// Process high-water RSS (`VmHWM`) after the run, bytes.
    pub peak_rss_bytes: u64,
    /// `peak_rss_bytes / ranks` — the per-rank memory gate.
    pub rss_per_rank_bytes: f64,
    /// Simulated rank events (FP retirements + collective
    /// participations) per host wall-second.
    pub events_per_sec: f64,
    /// Simulated job cycles.
    pub job_cycles: u64,
    /// The global allreduce produced the closed-form rank sum.
    pub verified: bool,
}

/// FP charges per rank in the full-machine probe kernel.
const FULLMACHINE_FP: u64 = 32;
/// Collective participations per rank (one allreduce, one barrier).
const FULLMACHINE_COLLS: u64 = 2;

/// Read the process peak resident set (`VmHWM`) in bytes; 0 where
/// `/proc/self/status` is unavailable (non-Linux hosts).
pub(crate) fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The probe rank body: pure FP plus collectives, **no array traffic**,
/// so no node builds its memory hierarchy and the sweep measures the
/// runtime's true per-rank overhead.
async fn fullmachine_rank(mut ctx: bgp_mpi::RankCtx) -> bool {
    for _ in 0..FULLMACHINE_FP {
        ctx.fp1(SemOp::MulAdd);
    }
    let n = ctx.size() as f64;
    let sum = ctx.allreduce_sum_f64(&[ctx.rank() as f64]).await;
    ctx.barrier().await;
    sum[0] == n * (n - 1.0) / 2.0
}

/// Run the full-machine sweep: VNM jobs from 1k nodes up to the
/// 73,728-node / 294,912-rank Blue Gene/P full machine (72 racks), all
/// multiplexed over the fixed worker pool — never one OS thread per
/// rank. `--quick` stops at 4,096 nodes.
pub(crate) fn fullmachine_sweep(scale: Scale) -> Vec<FullMachineSample> {
    let node_counts: &[usize] = match scale {
        Scale::Quick => &[1024, 4096],
        _ => &[1024, 4096, 16384, 73_728],
    };
    let mut samples = Vec::new();
    for &nodes in node_counts {
        let ranks = nodes * OpMode::VirtualNode.processes_per_node();
        let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
        let t0 = Instant::now();
        let machine = Machine::new(spec);
        let out = machine.run(fullmachine_rank);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let peak = peak_rss_bytes();
        let events = ranks as u64 * (FULLMACHINE_FP + FULLMACHINE_COLLS);
        samples.push(FullMachineSample {
            nodes,
            ranks,
            wall_ms,
            peak_rss_bytes: peak,
            rss_per_rank_bytes: peak as f64 / ranks as f64,
            events_per_sec: events as f64 / (wall_ms / 1e3),
            job_cycles: machine.job_cycles(),
            verified: out.iter().all(|&ok| ok),
        });
    }
    samples
}

/// Extension (scale): rank-count scaling of the multiplexed runtime up
/// to the full 73,728-node machine, from [`fullmachine_sweep`], with the
/// per-rank RSS column that gates the ≤ 10 KB idle-rank overhead budget.
pub(crate) fn fig_ext_fullmachine(samples: &[FullMachineSample]) -> Csv {
    let mut csv = Csv::new([
        "nodes",
        "ranks",
        "wall_ms",
        "peak_rss_mb",
        "rss_per_rank_kb",
        "events_per_sec",
        "job_cycles",
        "verified",
    ]);
    for s in samples {
        csv.row([
            s.nodes.to_string(),
            s.ranks.to_string(),
            format!("{:.0}", s.wall_ms),
            format!("{:.1}", s.peak_rss_bytes as f64 / 1e6),
            format!("{:.2}", s.rss_per_rank_bytes / 1024.0),
            format!("{:.0}", s.events_per_sec),
            s.job_cycles.to_string(),
            s.verified.to_string(),
        ]);
    }
    csv
}

/// Extension (tracing): cost of the deterministic trace layer on an MG
/// job — untraced vs. traced, from [`trace_overhead_sweep`].
pub(crate) fn fig_ext_trace_overhead(samples: &[TraceOverheadSample]) -> Csv {
    let mut csv = Csv::new([
        "trace_config",
        "wall_ms",
        "overhead_pct",
        "events_recorded",
        "events_dropped",
    ]);
    for s in samples {
        csv.row([
            s.config.to_string(),
            format!("{:.1}", s.wall_ms),
            format!("{:.2}", s.overhead_pct),
            s.events.to_string(),
            s.dropped.to_string(),
        ]);
    }
    csv
}

/// Extension (multiplexing): full 1024-event coverage the classical way
/// — one `Fixed` run per counter mode — against one run under
/// `CounterPolicy::Multiplexed` at base dwells of 4, 8 and 16 phases,
/// for MG and CG. Reports the rotation statistics, the occupancy
/// balance across the four modes, and the reconstruction quality of
/// the multiplexed estimates against simulator ground truth.
pub(crate) fn fig_ext_multiplex(scale: Scale) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "base_dwell",
        "runs_needed",
        "cycles_fixed_total",
        "cycles_mux",
        "rotations",
        "irq_extends",
        "early_rotates",
        "irq_drained",
        "occ_mode0",
        "occ_mode1",
        "occ_mode2",
        "occ_mode3",
        "coverage",
        "mux_median_err",
    ]);
    for kernel in [Kernel::Mg, Kernel::Cg] {
        let cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
        let exact = measure_every_mode(&cfg);
        for dwell in [4, 8, 16] {
            let policy = CounterPolicy::Multiplexed {
                first: CounterMode::Mode0,
                base_dwell: dwell,
            };
            let mux = measure_with_truth(&cfg, policy, None, None);
            let summary = mux.mux.expect("multiplexed run has a summary");
            let report = ValidationReport::build(
                &format!("{kernel} dwell {dwell}"),
                &exact.truth,
                &exact.dumps,
                &mux.dumps,
                None,
                WHOLE_PROGRAM_SET,
            );
            csv.row([
                kernel.name().to_string(),
                dwell.to_string(),
                format!("{NUM_MODES}"),
                exact.cycles.to_string(),
                mux.job_cycles.to_string(),
                summary.rotations.to_string(),
                summary.irq_extends.to_string(),
                summary.early_rotates.to_string(),
                summary.irq_drained.to_string(),
                summary.occupancy[0].to_string(),
                summary.occupancy[1].to_string(),
                summary.occupancy[2].to_string(),
                summary.occupancy[3].to_string(),
                format!("{:.4}", report.coverage),
                format!("{:.4}", report.mux_median_err),
            ]);
            println!(
                "{kernel} dwell {dwell}: {} rotations ({} irq-extended, {} early), \
                 coverage {:.0}%, median err {:.2}%, 1 run vs {NUM_MODES} \
                 ({} vs {} cycles)",
                summary.rotations,
                summary.irq_extends,
                summary.early_rotates,
                report.coverage * 100.0,
                report.mux_median_err * 100.0,
                mux.job_cycles,
                exact.cycles,
            );
        }
    }
    csv
}

/// One kernel's ground-truth audit (feeds [`fig_ext_validation`] and
/// `BENCH_validation.json`).
pub(crate) struct KernelValidation {
    /// Kernel audited.
    pub kernel: Kernel,
    /// Per-event accuracy of the exact, multiplexed and degraded legs.
    pub report: ValidationReport,
    /// Rotations of the multiplexed leg.
    pub mux_rotations: u64,
    /// The multiplexed dumps are byte-identical at 1 and 4 workers.
    pub thread_invariant: bool,
    /// Mean job cycles of the four `Fixed` runs.
    pub fixed_cycles: u64,
    /// Job cycles of the multiplexed run.
    pub mux_cycles: u64,
}

/// Audit one kernel against simulator ground truth: each counter mode
/// exactly (`Fixed(m)` × 4), once under the adaptive multiplexing
/// policy (pinned to 1 and to 4 simulator workers, so the dumps can be
/// compared byte for byte), and once multiplexed with a counter bit
/// flip injected on every node as its window closes.
pub(crate) fn validate_kernel(kernel: Kernel, scale: Scale) -> KernelValidation {
    use bgp_faults::{FaultPlan, FaultSpec};

    let cfg = RunConfig::new(kernel, scale.class(), scale.ranks());
    let mux_policy = CounterPolicy::Multiplexed {
        first: CounterMode::Mode0,
        base_dwell: 12,
    };
    let exact = measure_every_mode(&cfg);
    let mux1 = measure_with_truth(&cfg, mux_policy, None, Some(1));
    let mux4 = measure_with_truth(&cfg, mux_policy, None, Some(4));
    let fault_spec = FaultSpec {
        counter_bitflip_rate: 1.0,
        ..FaultSpec::none()
    };
    let plan = Arc::new(FaultPlan::new(fault_spec, 7, mux1.dumps.len()));
    let degraded = measure_with_truth(&cfg, mux_policy, Some(plan), None);

    let report = ValidationReport::build(
        &format!("{} class {:?} x {} ranks", kernel, cfg.class, cfg.ranks),
        &exact.truth,
        &exact.dumps,
        &mux1.dumps,
        Some(&degraded.dumps),
        WHOLE_PROGRAM_SET,
    );
    KernelValidation {
        kernel,
        report,
        mux_rotations: mux1.mux.as_ref().map_or(0, |s| s.rotations),
        thread_invariant: mux1.encoded == mux4.encoded,
        fixed_cycles: exact.cycles / NUM_MODES as u64,
        mux_cycles: mux1.job_cycles,
    }
}

/// Extension (validation): the per-kernel summary of the ground-truth
/// audit, from [`validate_kernel`].
pub(crate) fn fig_ext_validation(rows: &[KernelValidation]) -> Csv {
    let mut csv = Csv::new([
        "kernel",
        "exact_checked",
        "exact_matches",
        "mux_median_err",
        "mux_max_err",
        "coverage",
        "rotations",
        "thread_invariant",
        "fixed_mode_cycles",
        "mux_cycles",
    ]);
    for v in rows {
        csv.row([
            format!("{}", v.kernel),
            v.report.exact_checked.to_string(),
            v.report.exact_matches.to_string(),
            format!("{:.4}", v.report.mux_median_err),
            format!("{:.4}", v.report.mux_max_err),
            format!("{:.4}", v.report.coverage),
            v.mux_rotations.to_string(),
            v.thread_invariant.to_string(),
            v.fixed_cycles.to_string(),
            v.mux_cycles.to_string(),
        ]);
    }
    csv
}
