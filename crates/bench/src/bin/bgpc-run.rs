//! `bgpc-run` — supervised NAS kernel jobs with checkpoint/restart.
//!
//! ```text
//! bgpc-run --out DIR [--kernel mg] [--class s] [--ranks 8] [--mode vnm]
//!          [--policy fixed0|fixed1|fixed2|fixed3|evenodd|mux[:dwell]]
//!          [--threads N] [--trace [--slots 0,1,2]]
//!          [--checkpoint-every N] [--checkpoint-dir DIR] [--retain N]
//!          [--resume DIR] [--crash-at-phase N]
//!          [--wall-budget-ms N] [--cycle-budget N] [--max-retries N]
//! ```
//!
//! `--policy` selects the counter instrumentation policy: a fixed
//! counter mode on every node, the paper's even/odd split (the
//! default), or adaptive multiplexing (`mux`, optionally with a
//! baseline dwell in phases, e.g. `mux:8`). The policy is recorded in
//! `run.json`, and multiplexed runs additionally record the rotation
//! schedule summary (rotations, interrupt-driven dwell extensions,
//! early rotations, per-mode phase and cycle occupancy) so
//! post-processing can audit the schedule that produced the dumps.
//!
//! The job runs under [`bgp_core::supervisor::supervise`]: wall-clock
//! and simulated-cycle budgets, watchdog kills, and bounded
//! resume-from-checkpoint retries. `--crash-at-phase N` is the crash
//! drill used by `scripts/ci.sh`: the first attempt dies
//! deterministically at phase `N`; with `--max-retries 0` the process
//! exits non-zero, leaving the snapshot directory behind for a later
//! `--resume DIR` invocation to continue byte-identically.
//!
//! `--trace` runs the job traced (`JobSpec::trace` with the default
//! `TraceConfig`); `--slots LIST` additionally samples those UPC counter
//! slots into the timeline and requires `--trace`.
//!
//! Writes into `--out DIR`: the per-node `.bgpc` counter dumps (any
//! older `*.bgpc` there is removed), `run.json` (simulated clocks —
//! identical for an uninterrupted and a killed-and-resumed job), and
//! with `--trace` the `trace.json` / `phases.csv` timeline exports:
//!
//! * `trace.json` — Chrome-trace/Perfetto timeline (load via
//!   `chrome://tracing` or <https://ui.perfetto.dev>); timestamps are
//!   simulated cycles, so the file is byte-identical for every
//!   `BGP_SIM_THREADS`,
//! * `phases.csv` — per-phase scheduler metrics (delivered messages and
//!   bytes, woken ranks, collectives, peak torus-link occupancy).

use bgp_arch::cli::ArgParser;
use bgp_arch::events::CounterMode;
use bgp_arch::OpMode;
use bgp_bench::RunConfig;
use bgp_core::supervisor::{
    install_rank_death_hook, supervise, AttemptOutcome, SupervisorConfig,
};
use bgp_mpi::machine::CheckpointConfig;
use bgp_mpi::CounterPolicy;
use bgp_nas::{Class, Kernel};
use bgp_serve::proto::{parse_class, parse_kernel, parse_mode, workload_tag};
use bgp_trace::TraceConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    out: PathBuf,
    kernel: Kernel,
    class: Class,
    ranks: usize,
    mode: OpMode,
    policy: Option<CounterPolicy>,
    threads: Option<usize>,
    trace: bool,
    slots: Option<Vec<u8>>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    retain: usize,
    resume: Option<PathBuf>,
    crash_at_phase: Option<u64>,
    wall_budget_ms: Option<u64>,
    cycle_budget: Option<u64>,
    max_retries: u32,
}

const USAGE: &str = "usage: bgpc-run --out DIR [--kernel mg|ft|ep|cg|is|lu|sp|bt] \
[--class s|w|a] [--ranks N] [--mode smp1|smp4|dual|vnm] \
[--policy fixed0|fixed1|fixed2|fixed3|evenodd|mux[:dwell]] [--threads N] \
[--trace [--slots 0,1,2]] [--checkpoint-every N] [--checkpoint-dir DIR] [--retain N] [--resume DIR] \
[--crash-at-phase N] [--wall-budget-ms N] [--cycle-budget N] [--max-retries N]";

/// Baseline dwell (phases per mode) a bare `--policy mux` uses — the
/// value the validation suite's reconstruction gate is tuned at.
const DEFAULT_MUX_DWELL: u32 = 12;

fn parse_policy(s: &str) -> Option<CounterPolicy> {
    let mode = |i: usize| CounterMode::from_index(i).expect("mode index in range");
    match s {
        "fixed0" => Some(CounterPolicy::Fixed(mode(0))),
        "fixed1" => Some(CounterPolicy::Fixed(mode(1))),
        "fixed2" => Some(CounterPolicy::Fixed(mode(2))),
        "fixed3" => Some(CounterPolicy::Fixed(mode(3))),
        "evenodd" => Some(CounterPolicy::EvenOdd { even: mode(0), odd: mode(1) }),
        "mux" => Some(CounterPolicy::Multiplexed {
            first: mode(0),
            base_dwell: DEFAULT_MUX_DWELL,
        }),
        other => {
            let dwell: u32 = other.strip_prefix("mux:")?.parse().ok()?;
            (dwell > 0).then_some(CounterPolicy::Multiplexed {
                first: mode(0),
                base_dwell: dwell,
            })
        }
    }
}

/// Short tag naming the policy in `run.json` and the stdout summary.
fn policy_tag(p: &CounterPolicy) -> String {
    match p {
        CounterPolicy::Fixed(m) => format!("fixed{}", m.index()),
        CounterPolicy::EvenOdd { even, odd } => {
            format!("evenodd({},{})", even.index(), odd.index())
        }
        CounterPolicy::Multiplexed { first, base_dwell } => {
            format!("mux(first={},dwell={base_dwell})", first.index())
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::new(),
        kernel: Kernel::Mg,
        class: Class::S,
        ranks: 8,
        mode: OpMode::VirtualNode,
        policy: None,
        threads: None,
        trace: false,
        slots: None,
        checkpoint_every: None,
        checkpoint_dir: None,
        retain: 3,
        resume: None,
        crash_at_phase: None,
        wall_budget_ms: None,
        cycle_budget: None,
        max_retries: 0,
    };
    let mut out = None;
    let mut p = ArgParser::from_env(USAGE);
    while let Some(a) = p.next_flag()? {
        match a.as_str() {
            "--out" => out = Some(p.path(&a)?),
            "--kernel" => {
                args.kernel = p.token(&a, "mg|ft|ep|cg|is|lu|sp|bt", parse_kernel)?;
            }
            "--class" => args.class = p.token(&a, "s|w|a", parse_class)?,
            "--ranks" => args.ranks = p.parse(&a)?,
            "--mode" => args.mode = p.token(&a, "smp1|smp4|dual|vnm", parse_mode)?,
            "--policy" => {
                args.policy = Some(p.token(
                    &a,
                    "fixed0|fixed1|fixed2|fixed3|evenodd|mux[:dwell]",
                    parse_policy,
                )?);
            }
            "--threads" | "--sim-threads" => args.threads = Some(p.parse(&a)?),
            "--trace" => args.trace = true,
            "--slots" => {
                args.slots = Some(
                    p.value(&a)?
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.trim().parse().map_err(|e| format!("--slots: {e}")))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--checkpoint-every" => args.checkpoint_every = Some(p.parse(&a)?),
            "--checkpoint-dir" => args.checkpoint_dir = Some(p.path(&a)?),
            "--retain" => args.retain = p.parse(&a)?,
            "--resume" => args.resume = Some(p.path(&a)?),
            "--crash-at-phase" => args.crash_at_phase = Some(p.parse(&a)?),
            "--wall-budget-ms" => args.wall_budget_ms = Some(p.parse(&a)?),
            "--cycle-budget" => args.cycle_budget = Some(p.parse(&a)?),
            "--max-retries" => args.max_retries = p.parse(&a)?,
            other => return Err(p.unexpected(other)),
        }
    }
    args.out = out.ok_or_else(|| p.missing("--out DIR"))?;
    if args.slots.is_some() && !args.trace {
        return Err("--slots samples counters into the trace; it needs --trace".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("bgpc-run: creating {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    install_rank_death_hook("bgpc-run");

    // Checkpoint placement: `--resume DIR` implies that directory;
    // otherwise `--checkpoint-dir` (default `<out>/checkpoints`). A
    // non-empty directory without `--resume` is refused rather than
    // silently ignored — stale snapshots of the same experiment would
    // otherwise be resumable by the *next* invocation only, which makes
    // runs order-dependent.
    let cp_dir = args
        .resume
        .clone()
        .or_else(|| args.checkpoint_dir.clone())
        .unwrap_or_else(|| args.out.join("checkpoints"));
    let checkpointing = args.checkpoint_every.is_some() || args.resume.is_some();
    if args.resume.is_none() && checkpointing {
        let stale = std::fs::read_dir(&cp_dir)
            .map(|d| d.filter_map(|e| e.ok()).count())
            .unwrap_or(0);
        if stale != 0 {
            eprintln!(
                "bgpc-run: checkpoint dir {} is not empty; pass --resume {} to \
                 continue from it, or clean it for a cold start",
                cp_dir.display(),
                cp_dir.display()
            );
            return ExitCode::FAILURE;
        }
    }

    let mut run_cfg = RunConfig::new(args.kernel, args.class, args.ranks);
    run_cfg.mode = args.mode;
    let mut spec = bgp_mpi::JobSpec::new(run_cfg.ranks, run_cfg.mode);
    // Same workload tag as the service, so the cache key printed below
    // names the same entry a `submit` of this job would.
    spec.workload = Some(workload_tag(run_cfg.kernel, run_cfg.class));
    spec.machine = run_cfg.machine.clone();
    spec.compile = run_cfg.compile;
    if let Some(policy) = args.policy {
        spec.counter_policy = policy;
    }
    spec.sim_threads = args.threads;
    spec.cycle_budget = args.cycle_budget;
    if args.trace {
        let sample_slots = args.slots.clone().unwrap_or_default();
        spec.trace = Some(TraceConfig { sample_slots, ..TraceConfig::default() });
    }
    if checkpointing {
        spec.checkpoint = Some(CheckpointConfig {
            every: args.checkpoint_every.unwrap_or(64).max(1),
            dir: cp_dir.clone(),
            retain: args.retain.max(1),
        });
    }

    let sup = SupervisorConfig {
        // 0 disables the watchdog, same convention as bgpc-serve.
        wall_budget: args.wall_budget_ms.filter(|&ms| ms > 0).map(Duration::from_millis),
        max_retries: args.max_retries,
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_secs(2),
        inject_kill_at_phase: args.crash_at_phase,
    };
    let (kernel, class) = (run_cfg.kernel, run_cfg.class);
    let run = match supervise(&spec, &sup, move |ctx| kernel.exec(class, ctx)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("bgpc-run: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (i, a) in run.attempts.iter().enumerate() {
        let from = match a.resumed_from {
            Some(p) => format!("resumed from phase {p}"),
            None => "cold start".to_string(),
        };
        match &a.outcome {
            AttemptOutcome::Completed => println!("attempt {}: {from}, completed", i + 1),
            AttemptOutcome::Failed { message, .. } => {
                println!("attempt {}: {from}, died: {message}", i + 1);
            }
        }
    }
    if !run.results.iter().all(|r| r.verified) {
        eprintln!("bgpc-run: kernel verification failed");
        return ExitCode::FAILURE;
    }

    if let Err(e) = run.library.write_dumps(&args.out) {
        eprintln!("bgpc-run: writing dumps: {e}");
        return ExitCode::FAILURE;
    }
    // Simulated clocks + cache identity only: byte-identical across
    // kill/resume (the fingerprint excludes checkpoint placement and
    // budgets), so the ci.sh crash drill can diff this file against an
    // uninterrupted run, and the counter service would serve both from
    // one cache entry.
    let cache_key =
        bgp_snapshot::CacheKey { spec: spec.fingerprint(), seed: 0 };
    let mut run_json = format!(
        "{{\n  \"kernel\": \"{}\",\n  \"class\": \"{}\",\n  \"ranks\": {},\n  \
         \"mode\": \"{}\",\n  \"policy\": \"{}\",\n  \"spec_hash\": \"{:#018x}\",\n  \
         \"seed\": {},\n  \"job_cycles\": {},\n  \"phases\": {}",
        run_cfg.kernel,
        run_cfg.class,
        run_cfg.ranks,
        run_cfg.mode,
        policy_tag(&spec.counter_policy),
        cache_key.spec,
        cache_key.seed,
        run.machine.job_cycles(),
        run.machine.phases()
    );
    // Multiplexed jobs also record the rotation schedule the adaptive
    // scheduler actually ran, so the dumps' synthetic sets can be
    // audited without re-running the job.
    if let Some(mux) = run.machine.mux_summary() {
        run_json.push_str(&format!(
            ",\n  \"mux\": {{\"base_dwell\": {}, \"rotations\": {}, \"irq_extends\": {}, \
             \"early_rotates\": {}, \"irq_drained\": {}, \"occupancy\": {:?}, \
             \"cycle_occupancy\": {:?}}}",
            mux.base_dwell,
            mux.rotations,
            mux.irq_extends,
            mux.early_rotates,
            mux.irq_drained,
            mux.occupancy,
            mux.cycle_occupancy
        ));
    }
    run_json.push_str("\n}\n");
    if let Err(e) = std::fs::write(args.out.join("run.json"), run_json) {
        eprintln!("bgpc-run: writing run.json: {e}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        let trace = run.machine.job_trace().expect("tracing was enabled");
        for (name, body) in
            [("trace.json", trace.chrome_json()), ("phases.csv", trace.phase_metrics_csv())]
        {
            if let Err(e) = std::fs::write(args.out.join(name), body) {
                eprintln!("bgpc-run: writing {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let stats = run.machine.snapshot_stats();
    println!(
        "{} class {} on {} ranks ({}, policy {}): {} cycles, {} phases, {} attempt(s)",
        run_cfg.kernel,
        run_cfg.class,
        run_cfg.ranks,
        run_cfg.mode,
        policy_tag(&spec.counter_policy),
        run.machine.job_cycles(),
        run.machine.phases(),
        run.attempts.len()
    );
    if stats.written > 0 {
        println!(
            "snapshots: {} written ({} bytes, {:.1} ms total save time) -> {}",
            stats.written,
            stats.bytes,
            stats.save_nanos as f64 / 1e6,
            cp_dir.display()
        );
    }
    println!("cache key {} {cache_key}", cache_key.hex());
    println!("outputs  -> {}", args.out.display());
    ExitCode::SUCCESS
}
