//! The experiment registry behind `repro_all`. Every table, figure,
//! extension sweep and acceptance gate of the reproduction is one named
//! [`Entry`], the way `likwid-perfctr -g GROUP` selects one named
//! measurement group instead of shipping one tool per measurement.
//!
//! An entry declares the CSVs it writes into `crate::results_dir`,
//! writes its `BENCH_*.json` record (if it has one) through
//! `bench_json_path`, and checks its own acceptance bound every time
//! it runs: `repro_all` exits non-zero when any bound fails.

use crate::figures::{self, KernelValidation, SnapshotSweep};
use crate::{bench_json_path, emit, Scale};
use bgp_arch::cli::ArgParser;
use bgp_nas::Kernel;
use bgp_postproc::Csv;

/// What one run of an entry produced: its CSVs, in the order of
/// [`Entry::csvs`], and the verdict of its bound (`Err` says what
/// failed).
type Outcome = (Vec<Csv>, Result<(), String>);

/// One named experiment.
pub struct Entry {
    /// The name `repro_all` selects it by.
    pub name: &'static str,
    /// Stems of the CSVs it writes.
    pub csvs: &'static [&'static str],
    /// Whether `repro_all` with no names runs it.
    pub default: bool,
    measure: fn(Scale) -> Outcome,
}

impl Entry {
    /// Run the entry at `scale` and emit its CSVs under their declared
    /// names.
    ///
    /// # Errors
    /// The entry's acceptance bound failed; the CSVs (and any BENCH
    /// record) are written first, so the failing measurement is kept.
    pub fn run(&self, scale: Scale) -> Result<(), String> {
        let (csvs, verdict) = (self.measure)(scale);
        assert_eq!(
            csvs.len(),
            self.csvs.len(),
            "{} returned the wrong CSV count",
            self.name
        );
        for (name, csv) in self.csvs.iter().zip(&csvs) {
            emit(name, csv);
        }
        verdict
    }

    /// [`Entry::run`] in a child `repro_all` process (this executable,
    /// given the entry's name and the scale flag, with this process's
    /// environment and output streams), so that what a bound reads of
    /// the process — its peak resident memory — is this entry's alone.
    ///
    /// # Errors
    /// The child exited non-zero (its bound failed; it said why) or
    /// could not be started.
    pub fn run_in_child(&self, scale: Scale) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating repro_all: {e}"))?;
        let mut child = std::process::Command::new(exe);
        child.arg(self.name).args(scale_flag(scale));
        match child.status() {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(format!("child run {status}")),
            Err(e) => Err(format!("starting a child run: {e}")),
        }
    }
}

/// The outcome of an entry with one CSV and no bound.
fn plain(csv: Csv) -> Outcome {
    (vec![csv], Ok(()))
}

/// Every entry; `repro_all` with no names runs the `default` ones in
/// this order.
pub(crate) static ENTRIES: &[Entry] = &[
    Entry {
        name: "fig03_modes",
        csvs: &["fig03_modes"],
        default: true,
        measure: |_| plain(figures::fig03()),
    },
    Entry {
        name: "tab_overhead",
        csvs: &["tab_overhead"],
        default: true,
        measure: |_| plain(figures::tab_overhead()),
    },
    Entry {
        name: "fig06_instr_mix",
        csvs: &["fig06_instr_mix"],
        default: true,
        measure: |s| plain(figures::fig06(s)),
    },
    Entry {
        name: "fig07_ft_simd",
        csvs: &["fig07_ft_simd"],
        default: true,
        measure: |s| plain(figures::fig_simd_sweep(Kernel::Ft, s)),
    },
    Entry {
        name: "fig08_mg_simd",
        csvs: &["fig08_mg_simd"],
        default: true,
        measure: |s| plain(figures::fig_simd_sweep(Kernel::Mg, s)),
    },
    Entry {
        name: "fig09_exec_time",
        csvs: &["fig09_exec_time"],
        default: true,
        measure: |s| {
            plain(figures::fig_exec_time(
                &[Kernel::Mg, Kernel::Ft, Kernel::Ep, Kernel::Cg],
                s,
            ))
        },
    },
    Entry {
        name: "fig10_exec_time",
        csvs: &["fig10_exec_time"],
        default: true,
        measure: |s| {
            plain(figures::fig_exec_time(
                &[Kernel::Is, Kernel::Lu, Kernel::Sp, Kernel::Bt],
                s,
            ))
        },
    },
    Entry {
        name: "fig11_l3_sweep",
        csvs: &["fig11_l3_sweep"],
        default: true,
        measure: |s| plain(figures::fig11(s)),
    },
    Entry {
        name: "fig12_14_vnm_vs_smp",
        csvs: &[
            "fig12_ddr_ratio",
            "fig13_time_increase",
            "fig14_mflops_chip",
        ],
        default: true,
        measure: |s| {
            let rows = figures::mode_comparison(s);
            (
                vec![
                    figures::fig12(&rows),
                    figures::fig13(&rows),
                    figures::fig14(&rows),
                ],
                Ok(()),
            )
        },
    },
    Entry {
        name: "fig_ext_prefetch",
        csvs: &["fig_ext_prefetch"],
        default: true,
        measure: |s| plain(figures::fig_ext_prefetch(s)),
    },
    Entry {
        name: "fig_ext_modes_all4",
        csvs: &["fig_ext_modes_all4"],
        default: true,
        measure: |s| plain(figures::fig_ext_modes(s)),
    },
    Entry {
        name: "fig_ext_512events",
        csvs: &["fig_ext_512events"],
        default: true,
        measure: |s| plain(figures::fig_ext_512events(s)),
    },
    Entry {
        name: "fig_ext_faults",
        csvs: &["fig_ext_faults"],
        default: true,
        measure: |s| plain(figures::fig_ext_faults(s)),
    },
    Entry {
        name: "fig_ext_trace_overhead",
        csvs: &["fig_ext_trace_overhead"],
        default: true,
        measure: trace_overhead,
    },
    Entry {
        name: "fig_ext_memthroughput",
        csvs: &["fig_ext_memthroughput"],
        default: true,
        measure: memthroughput,
    },
    Entry {
        name: "fig_ext_fullmachine",
        csvs: &["fig_ext_fullmachine"],
        default: true,
        measure: fullmachine,
    },
    Entry {
        name: "fig_ext_multiplex",
        csvs: &["fig_ext_multiplex"],
        default: false,
        measure: |s| plain(figures::fig_ext_multiplex(s)),
    },
    Entry {
        name: "fig_ext_validation",
        csvs: &[
            "fig_ext_validation_mg",
            "fig_ext_validation_cg",
            "fig_ext_validation",
        ],
        default: false,
        measure: validation,
    },
    Entry {
        name: "fig_ext_service",
        csvs: &["fig_ext_service"],
        default: false,
        measure: service,
    },
    Entry {
        name: "fig_ext_snapshot",
        csvs: &["fig_ext_snapshot"],
        default: false,
        measure: snapshot,
    },
];

const USAGE: &str = "usage: repro_all [NAME...] [--quick|--paper]
  Runs the named entries in the order given; with no NAME, every default
  entry in registry order. Scale: --quick (class S, 8 ranks), none
  (class A, 16 ranks), --paper (class A, 128 ranks).";

/// The `repro_all` flag selecting `scale` (none for the default).
fn scale_flag(scale: Scale) -> Option<&'static str> {
    match scale {
        Scale::Quick => Some("--quick"),
        Scale::Default => None,
        Scale::Paper => Some("--paper"),
    }
}

/// Parse `repro_all`'s arguments (program name stripped) into the scale
/// and the entries to run: the named ones in the order given, or every
/// default entry when none is named.
///
/// # Errors
/// `--help`, an unknown name or flag, or more than one scale flag; the
/// message lists every entry name.
pub fn parse_args(argv: Vec<String>) -> Result<(Scale, Vec<&'static Entry>), String> {
    let listed = |e: String| {
        let names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        format!("{e}\nentries: {}", names.join(" "))
    };
    let mut p = ArgParser::from_args(USAGE, argv);
    let mut scale = None;
    let mut picked = Vec::new();
    while let Some(arg) = p.next_flag().map_err(listed)? {
        let s = match arg.as_str() {
            "--quick" => Scale::Quick,
            "--paper" => Scale::Paper,
            name => match ENTRIES.iter().find(|e| e.name == name) {
                Some(e) => {
                    picked.push(e);
                    continue;
                }
                None => return Err(listed(p.unexpected(name))),
            },
        };
        if scale.replace(s).is_some() {
            return Err(listed(format!(
                "give at most one of --quick and --paper\n{USAGE}"
            )));
        }
    }
    if picked.is_empty() {
        picked = ENTRIES.iter().filter(|e| e.default).collect();
    }
    Ok((scale.unwrap_or(Scale::Default), picked))
}

/// The verdict of a bound, with `what` as its message either way.
fn bound(holds: bool, what: String) -> Result<(), String> {
    if holds {
        println!("bound ok: {what}");
        Ok(())
    } else {
        Err(what)
    }
}

/// Re-measurements a host-timing bound gets after its first attempt.
const RETRIES: usize = 2;

/// Measure until `holds` or [`RETRIES`] re-measurements are spent. A
/// timing bound sits on host noise over a deterministic job, so any
/// attempt within it bounds the true cost. Returns every attempt; the
/// last is the one recorded.
fn remeasure<T>(name: &str, mut measure: impl FnMut() -> T, holds: impl Fn(&T) -> bool) -> Vec<T> {
    let mut attempts = vec![measure()];
    while attempts.len() <= RETRIES && !holds(attempts.last().expect("one attempt")) {
        eprintln!(
            "{name}: bound missed, re-measuring ({}/{RETRIES})",
            attempts.len()
        );
        attempts.push(measure());
    }
    attempts
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write a `BENCH_*.json` record through [`bench_json_path`].
fn write_bench(file: &str, json: &str) {
    let path = bench_json_path(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("==== {file} -> {} ====", path.display());
}

/// Wall-clock cost of the deterministic tracing layer on an MG job,
/// recorded in `BENCH_trace.json`. Host-dependent, so not bounded.
fn trace_overhead(scale: Scale) -> Outcome {
    let samples = figures::trace_overhead_sweep(scale);
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"trace_config\": \"{}\", \"wall_ms\": {:.1}, \"overhead_pct\": {:.2}, \"events_recorded\": {}, \"events_dropped\": {}}}",
                s.config, s.wall_ms, s.overhead_pct, s.events, s.dropped
            )
        })
        .collect();
    write_bench(
        "BENCH_trace.json",
        &format!(
            "{{\n  \"benchmark\": \"fig_ext_trace_overhead (MG, VNM, min-of-reps)\",\n  \"scale\": \"{:?}\",\n  \"host_cpus\": {},\n  \"note\": \"timestamps are simulated cycles, so the trace itself is deterministic; only host wall-clock varies between reps\",\n  \"configs\": [\n{}\n  ]\n}}\n",
            scale,
            host_cpus(),
            rows.join(",\n")
        ),
    );
    plain(figures::fig_ext_trace_overhead(&samples))
}

/// `fig_ext_memthroughput`'s bound: `Node::mem_ops` must beat the
/// per-op `Node::mem_op` walk by at least this factor on the mixed
/// stride/random stream. Steady state measures ~1.9× — the cache-core
/// optimizations (recency-ordered sets, membership filter) speed up
/// *both* engines, so the ratio is floored by the shared miss
/// machinery. The bound sits below typical with a noise margin: it is a
/// regression alarm, not an aspiration. It watches the engine-vs-engine
/// ratio, not absolute wall time, so it is host-independent.
const MIN_BATCH_SPEEDUP: f64 = 1.5;

/// Throughput of the batched memory-hierarchy engine against the
/// per-op walk, plus the end-to-end MG job; recorded in `BENCH_mem.json`.
fn memthroughput(scale: Scale) -> Outcome {
    let holds = |r: &figures::MemThroughputReport| r.speedup >= MIN_BATCH_SPEEDUP;
    let attempts = remeasure(
        "fig_ext_memthroughput",
        || figures::mem_throughput_sweep(scale),
        holds,
    );
    let r = attempts.last().expect("one attempt");
    write_bench(
        "BENCH_mem.json",
        &format!(
            "{{\n  \"benchmark\": \"fig_ext_memthroughput (mixed stride/random stream + MG end-to-end, min-of-reps)\",\n  \"scale\": \"{:?}\",\n  \"host_cpus\": {},\n  \"gate\": \"batch_speedup >= {MIN_BATCH_SPEEDUP}\",\n  \"note\": \"both engines produce byte-identical dumps, traces and MemStats (see crates/mem/tests/batch_differential.rs); only host wall-clock differs\",\n  \"scalar_maccesses_per_s\": {:.1},\n  \"batched_maccesses_per_s\": {:.1},\n  \"batch_speedup\": {:.2},\n  \"mg_class\": \"{:?}\",\n  \"mg_ranks\": {},\n  \"mg_wall_ms\": {:.0}\n}}\n",
            scale,
            host_cpus(),
            r.scalar_maps,
            r.batched_maps,
            r.speedup,
            r.mg_class,
            r.mg_ranks,
            r.mg_wall_ms,
        ),
    );
    let verdict = bound(
        holds(r),
        format!(
            "batched engine is {:.2}x the per-op walk (bound >= {MIN_BATCH_SPEEDUP}x)",
            r.speedup
        ),
    );
    (vec![figures::fig_ext_memthroughput(r)], verdict)
}

/// `fig_ext_fullmachine`'s per-rank peak-RSS budget (bytes). The probe
/// kernel keeps every simulated cache cold, so anything above this is
/// runtime overhead. Nodes build the hardware a job may never use (the
/// memory hierarchy, the threshold bank) on first use, and a rank's
/// future holds only its hot context, which puts the 73,728-node point
/// near 2.1 KB/rank.
const RANK_RSS_BUDGET: f64 = 2.25 * 1024.0;

/// Full-machine scaling of the multiplexed rank runtime, up to 73,728
/// nodes / 294,912 ranks; recorded in `BENCH_fullmachine.json`. Bound:
/// every point verifies, and the last is within [`RANK_RSS_BUDGET`].
fn fullmachine(scale: Scale) -> Outcome {
    let samples = figures::fullmachine_sweep(scale);
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"nodes\": {}, \"ranks\": {}, \"wall_ms\": {:.0}, \"peak_rss_mb\": {:.1}, \"rss_per_rank_kb\": {:.2}, \"events_per_sec\": {:.0}, \"job_cycles\": {}, \"verified\": {}}}",
                s.nodes,
                s.ranks,
                s.wall_ms,
                s.peak_rss_bytes as f64 / 1e6,
                s.rss_per_rank_bytes / 1024.0,
                s.events_per_sec,
                s.job_cycles,
                s.verified
            )
        })
        .collect();
    write_bench(
        "BENCH_fullmachine.json",
        &format!(
            "{{\n  \"benchmark\": \"fig_ext_fullmachine (VNM, FP+collective probe, multiplexed rank runtime)\",\n  \"scale\": \"{:?}\",\n  \"host_cpus\": {},\n  \"rank_rss_budget_kb\": {},\n  \"note\": \"ranks are resumable state machines over a fixed worker pool; the probe kernel keeps simulated caches cold so rss_per_rank_kb measures runtime overhead, not workload state\",\n  \"sweep\": [\n{}\n  ]\n}}\n",
            scale,
            host_cpus(),
            RANK_RSS_BUDGET / 1024.0,
            rows.join(",\n")
        ),
    );
    // VmHWM is a process-lifetime high water mark. `repro_all` runs an
    // entry in a process of its own whenever it runs more than one, and
    // the sweep ascends, so the final (largest) point dominates it and
    // the bound is an upper bound on that run's true footprint.
    let last = samples.last().expect("non-empty sweep");
    let verified = samples.iter().all(|s| s.verified);
    let verdict = bound(
        verified && last.rss_per_rank_bytes <= RANK_RSS_BUDGET,
        format!(
            "every rank sum verified: {verified}; peak RSS {:.2} KB/rank at {} ranks (budget {:.2} KB)",
            last.rss_per_rank_bytes / 1024.0,
            last.ranks,
            RANK_RSS_BUDGET / 1024.0
        ),
    );
    (vec![figures::fig_ext_fullmachine(&samples)], verdict)
}

/// `fig_ext_validation`'s bound on the multiplexed reconstruction's
/// median relative error over significant events.
const MAX_MUX_MEDIAN: f64 = 0.05;

/// Ground-truth event validation of MG and CG, recorded in
/// `BENCH_validation.json`. Bound: every exact-run event matches truth
/// bit for bit, and the multiplexed dumps are byte-identical between 1
/// and 4 simulator workers. At Default and Paper scale also: the median
/// reconstruction error is within [`MAX_MUX_MEDIAN`] and the rotation
/// covers every event. Quick runs rotate too few times to sample every
/// mode meaningfully, so reconstruction quality is reported there but
/// not bounded.
fn validation(scale: Scale) -> Outcome {
    let rows: Vec<KernelValidation> = [Kernel::Mg, Kernel::Cg]
        .into_iter()
        .map(|k| figures::validate_kernel(k, scale))
        .collect();
    let mut json = String::from("{\n  \"benchmark\": \"fig_ext_validation (exact / multiplexed-reconstructed / fault-degraded counts vs simulator ground truth)\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str(&format!(
        "  \"gate\": \"exact events 0% error; mux median relative error <= {MAX_MUX_MEDIAN}; full coverage; thread-invariant dumps\",\n"
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, v) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"exact_checked\": {}, \"exact_matches\": {}, \
             \"mux_median_err\": {:.6}, \"mux_max_err\": {:.6}, \"coverage\": {:.4}, \
             \"rotations\": {}, \"thread_invariant\": {}, \"fixed_mode_cycles\": {}, \
             \"mux_cycles\": {},\n     \"report\": {}}}{}\n",
            v.kernel,
            v.report.exact_checked,
            v.report.exact_matches,
            v.report.mux_median_err,
            v.report.mux_max_err,
            v.report.coverage,
            v.mux_rotations,
            v.thread_invariant,
            v.fixed_cycles,
            v.mux_cycles,
            v.report.to_json().trim_end().replace('\n', "\n          "),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    write_bench("BENCH_validation.json", &json);

    let full = scale != Scale::Quick;
    let mut failures = Vec::new();
    for v in &rows {
        let r = &v.report;
        if !r.exact_ok() {
            failures.push(format!(
                "{}: {}/{} exact events diverge from ground truth",
                v.kernel,
                r.exact_checked - r.exact_matches,
                r.exact_checked
            ));
        }
        if !v.thread_invariant {
            failures.push(format!(
                "{}: multiplexed dumps differ between 1 and 4 sim threads",
                v.kernel
            ));
        }
        if full && r.mux_median_err > MAX_MUX_MEDIAN {
            failures.push(format!(
                "{}: mux median error {:.4} (bound {MAX_MUX_MEDIAN})",
                v.kernel, r.mux_median_err
            ));
        }
        if full && r.coverage < 1.0 {
            failures.push(format!(
                "{}: rotation covered {:.1}% of events",
                v.kernel,
                r.coverage * 100.0
            ));
        }
    }
    let verdict = if failures.is_empty() {
        bound(
            true,
            if full {
                format!("exact events 0% error, mux median error within {MAX_MUX_MEDIAN}, full coverage, thread-invariant dumps")
            } else {
                "exact events 0% error, thread-invariant dumps (reconstruction quality bounded at Default scale)".into()
            },
        )
    } else {
        Err(failures.join("; "))
    };
    let mut csvs: Vec<Csv> = rows.iter().map(|v| v.report.to_csv()).collect();
    csvs.push(figures::fig_ext_validation(&rows));
    (csvs, verdict)
}

/// The counter service under load: an in-process `bgp-serve` daemon on
/// loopback, driven through the real TCP protocol by
/// `bgp_serve::run_load`; recorded in `BENCH_serve.json`. Bound: every
/// request satisfied, none lost or duplicated, every repeat response
/// byte-identical to the first for its key, rejects only via the
/// backpressure path, and exactly one job run per distinct key
/// (`misses == distinct`). Latency and throughput are host-dependent
/// and are recorded, not bounded.
fn service(scale: Scale) -> Outcome {
    use bgp_serve::{run_load, LoadConfig, QueueConfig, Server, ServerConfig};
    use bgp_trace::json::Obj;
    use std::time::Duration;

    // (requests, distinct keys, concurrency, workers): Quick is a CI
    // smoke, still far more requests than keys; Default is >= 10k.
    let (requests, distinct, concurrency, workers) = match scale {
        Scale::Quick => (2_000, 8, 8, 4),
        Scale::Default => (12_000, 16, 8, 4),
        Scale::Paper => (20_000, 32, 16, 8),
    };
    let server = Server::spawn(ServerConfig {
        workers,
        queue: QueueConfig {
            capacity: 64,
            age_to_boost: Duration::from_millis(500),
        },
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let cfg = LoadConfig {
        addr: server.addr(),
        requests,
        concurrency,
        distinct,
        ..LoadConfig::standard(server.addr())
    };
    let report = run_load(&cfg).expect("load run against in-process server");
    server.shutdown();

    let json = Obj::new()
        .field_str(
            "benchmark",
            "fig_ext_service (bgpc-serve loopback, MG class S submissions)",
        )
        .field_str("scale", &format!("{scale:?}"))
        .field_u64("host_cpus", host_cpus() as u64)
        .field_str(
            "gate",
            "contract_held (all satisfied, byte-identical replays, \
             backpressure-only rejects) and misses == distinct_keys",
        )
        .field_u64("workers", workers as u64)
        .field_u64("concurrency", concurrency as u64)
        .field_raw("report", &report.to_json())
        .finish();
    write_bench("BENCH_serve.json", &(json + "\n"));

    let mut csv = Csv::new(["metric", "value"]);
    for (metric, value) in [
        ("requests", report.requests.to_string()),
        ("satisfied", report.satisfied.to_string()),
        ("hits", report.hits.to_string()),
        ("misses", report.misses.to_string()),
        ("joined", report.joined.to_string()),
        ("rejects", report.rejects.to_string()),
        ("hit_rate", format!("{:.4}", report.hit_rate())),
        ("throughput_rps", format!("{:.0}", report.throughput_rps)),
        ("p50_us", report.p50_us.to_string()),
        ("p90_us", report.p90_us.to_string()),
        ("p99_us", report.p99_us.to_string()),
        ("wall_ms", report.wall_ms.to_string()),
    ] {
        csv.row([metric.to_string(), value]);
    }
    println!(
        "{} requests: {:.0} req/s, hit rate {:.3}, {} misses over {} keys, \
         p50 {} µs, p99 {} µs",
        report.satisfied,
        report.throughput_rps,
        report.hit_rate(),
        report.misses,
        report.distinct,
        report.p50_us,
        report.p99_us
    );
    let verdict = bound(
        report.contract_held() && report.misses == report.distinct,
        format!(
            "satisfied {}/{}, failures {}, byte_identical {}, misses {} over {} distinct keys",
            report.satisfied,
            report.requests,
            report.failures,
            report.byte_identical,
            report.misses,
            report.distinct
        ),
    );
    (vec![csv], verdict)
}

/// `fig_ext_snapshot`'s bound: snapshots every 64 phases must cost less
/// than this slowdown (percent) over no checkpointing at all.
const MAX_SNAPSHOT_PCT: f64 = 5.0;

fn every64_pct(sweep: &SnapshotSweep) -> f64 {
    sweep
        .samples
        .iter()
        .find(|s| s.config == "every64")
        .expect("every64 row")
        .overhead_pct
}

/// Wall-clock cost of checkpointing an MG job every 64 phases, plus one
/// real resume; recorded in `BENCH_snapshot.json` with the overhead of
/// every attempt, so a re-measurement never hides what was measured.
fn snapshot(scale: Scale) -> Outcome {
    let holds = |s: &SnapshotSweep| every64_pct(s) < MAX_SNAPSHOT_PCT;
    let attempts = remeasure(
        "fig_ext_snapshot",
        || figures::snapshot_overhead_sweep(scale),
        holds,
    );
    let latest = attempts.last().expect("one attempt");
    let rows: Vec<String> = latest
        .samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"config\": \"{}\", \"wall_ms\": {:.1}, \"overhead_pct\": {:.2}, \"snapshots\": {}, \"mean_bytes\": {}, \"save_ms\": {:.1}}}",
                s.config, s.wall_ms, s.overhead_pct, s.snapshots, s.mean_bytes, s.save_ms
            )
        })
        .collect();
    let attempt_pcts: Vec<String> = attempts
        .iter()
        .map(|a| format!("{:.2}", every64_pct(a)))
        .collect();
    write_bench(
        "BENCH_snapshot.json",
        &format!(
            "{{\n  \"benchmark\": \"fig_ext_snapshot (MG, VNM, min-of-reps)\",\n  \"scale\": \"{:?}\",\n  \"host_cpus\": {},\n  \"gate\": \"every64 overhead_pct < {MAX_SNAPSHOT_PCT}\",\n  \"attempt_overhead_pcts\": [{}],\n  \"resume_ms\": {:.1},\n  \"resume_phase\": {},\n  \"note\": \"snapshot bytes and counts are deterministic; only host wall-clock varies between attempts\",\n  \"configs\": [\n{}\n  ]\n}}\n",
            scale,
            host_cpus(),
            attempt_pcts.join(", "),
            latest.resume_ms,
            latest.resume_phase,
            rows.join(",\n")
        ),
    );
    let verdict = bound(
        holds(latest),
        format!(
            "checkpointing every 64 phases costs {:.2}% (bound < {MAX_SNAPSHOT_PCT}%)",
            every64_pct(latest)
        ),
    );
    (vec![figures::fig_ext_snapshot(latest)], verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn parse(argv: &[&str]) -> Result<(Scale, Vec<&'static str>), String> {
        parse_args(argv.iter().map(|s| s.to_string()).collect())
            .map(|(scale, entries)| (scale, entries.iter().map(|e| e.name).collect()))
    }

    #[test]
    fn names_and_csvs_are_unique_and_every_committed_csv_is_declared_once() {
        let mut names = HashSet::new();
        let mut owner = HashMap::new();
        for e in ENTRIES {
            assert!(names.insert(e.name), "entry name {} appears twice", e.name);
            for csv in e.csvs {
                if let Some(other) = owner.insert(*csv, e.name) {
                    panic!("{csv}.csv is declared by both {other} and {}", e.name);
                }
            }
        }
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut committed = 0;
        for f in std::fs::read_dir(&results).expect("results/ readable") {
            let path = f.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "csv") {
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .expect("utf-8 stem");
                assert!(
                    owner.contains_key(stem),
                    "results/{stem}.csv is declared by no entry"
                );
                committed += 1;
            }
        }
        assert!(
            committed > 0,
            "no committed CSV found under {}",
            results.display()
        );
    }

    #[test]
    fn a_bare_run_keeps_the_default_entries_in_registry_order() {
        let (scale, names) = parse(&[]).unwrap();
        assert_eq!(scale, Scale::Default);
        assert_eq!(
            names,
            [
                "fig03_modes",
                "tab_overhead",
                "fig06_instr_mix",
                "fig07_ft_simd",
                "fig08_mg_simd",
                "fig09_exec_time",
                "fig10_exec_time",
                "fig11_l3_sweep",
                "fig12_14_vnm_vs_smp",
                "fig_ext_prefetch",
                "fig_ext_modes_all4",
                "fig_ext_512events",
                "fig_ext_faults",
                "fig_ext_trace_overhead",
                "fig_ext_memthroughput",
                "fig_ext_fullmachine",
            ]
        );
        let (scale, names) = parse(&["--quick", "fig_ext_snapshot", "fig03_modes"]).unwrap();
        assert_eq!(
            (scale, names),
            (Scale::Quick, vec!["fig_ext_snapshot", "fig03_modes"])
        );
        assert_eq!(parse(&["--paper"]).unwrap().0, Scale::Paper);
    }

    /// A child run is handed the scale its parent parsed.
    #[test]
    fn scale_flags_parse_back_to_their_scale() {
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            let argv: Vec<&str> = scale_flag(scale).into_iter().collect();
            assert_eq!(parse(&argv).unwrap().0, scale);
        }
    }

    #[test]
    fn the_parser_rejects_unknown_names_unknown_flags_and_two_scales() {
        for argv in [
            &["no_such_figure"][..],
            &["fig03_modes", "--gate"],
            &["--quick", "--paper"],
            &["--quick", "--quick"],
            &["--help"],
        ] {
            let err = parse(argv).expect_err(&format!("{argv:?} must be refused"));
            for e in ENTRIES {
                assert!(
                    err.contains(e.name),
                    "{argv:?}: error does not list {}: {err}",
                    e.name
                );
            }
        }
    }
}
