//! `bgp-perfbench` — the simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mg-a16|cg-supervised|fullmachine-probe|serve-mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds through the public API of the
//! workspace crates, checks every output, and prints one JSON object as
//! the last line of stdout: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`. See `perfbench/README.md` for what each metric
//! means and which workload it belongs to.

mod batch;
mod serve_mix;
mod spans;
mod stats;

use bgp_arch::cli::ArgParser;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: bgp-perfbench --workload mg-a16|cg-supervised|fullmachine-probe|serve-mix \
--seed N --seconds S --trace 0|1";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["mg-a16", "cg-supervised", "fullmachine-probe", "serve-mix"];

/// End-to-end metrics and their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
];

/// Per-layer metrics and their units. Every workload prints all of
/// them; a layer a workload does not pass through reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("mpi.setup_s", "s"),
    ("mpi.runtime_s", "s"),
    ("mpi.phases", "count"),
    ("mpi.polls", "count"),
    ("mpi.ns_per_poll", "ns"),
    ("node.busy_s", "s"),
    ("node.instructions", "count"),
    ("node.ns_per_instr", "ns"),
    ("mem.accesses", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.l3_misses", "count"),
    ("mem.ddr_bytes", "B"),
    ("mem.ns_per_access", "ns"),
    ("net.torus_pkts", "count"),
    ("net.torus_bytes", "B"),
    ("net.coll_bytes", "B"),
    ("net.barriers", "count"),
    ("core.collect_s", "s"),
    ("core.persist_s", "s"),
    ("core.decode_s", "s"),
    ("core.dump_bytes", "B"),
    ("core.attempts", "count"),
    ("core.retry_gap_s", "s"),
    ("postproc.aggregate_s", "s"),
    ("trace.export_s", "s"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("snapshot.saves", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.joined", "count"),
    ("serve.rejects", "count"),
    ("serve.jobs_run", "count"),
    ("serve.dup_runs", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.job_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("bench.span_overhead_pct", "%"),
];

/// Named metric values of one job or run.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Set (or replace) a metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, x)) => *x = v,
            None => self.0.push((name, v)),
        }
    }

    /// A metric's value, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The median of each metric across `runs`.
    fn median_of(runs: &[&Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for (name, _) in runs.iter().flat_map(|l| l.0.iter()) {
            let xs: Vec<f64> = runs.iter().map(|l| l.get(name)).collect();
            out.set(name, stats::median(&xs));
        }
        out
    }
}

/// One batch job: its set-up and job times, failed checks and (when
/// traced) per-layer metrics.
pub struct Iteration {
    /// Median of this iteration's set-ups.
    pub setup_s: f64,
    /// Kernel start to aggregated counters in hand.
    pub job_s: f64,
    /// Failed output checks.
    pub fails: Vec<String>,
    /// Per-layer metrics (traced iterations only).
    pub layers: Metrics,
    /// Index of the job's root span.
    pub job_span: usize,
}

impl Iteration {
    /// A job that produced no outputs to time or measure.
    fn failed(job_span: usize, fails: Vec<String>) -> Iteration {
        Iteration {
            setup_s: 0.0,
            job_s: 0.0,
            fails,
            layers: Metrics::default(),
            job_span,
        }
    }
}

/// What one run prints.
pub struct Outcome {
    /// Operations attempted (jobs, or service requests).
    pub attempted: u64,
    /// Operations with a failed output check.
    pub failed: u64,
    /// Metric values; the printed set is chosen by `--trace`.
    pub metrics: Metrics,
    /// The run's spans.
    pub tracer: Tracer,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut p = ArgParser::from_env(USAGE);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = p.next_flag()? {
        match flag.as_str() {
            "--workload" => workload = Some(p.value(&flag)?),
            "--seed" => seed = Some(p.parse(&flag)?),
            "--seconds" => seconds = Some(p.parse(&flag)?),
            "--trace" => trace = Some(p.parse::<u8>(&flag)?),
            other => return Err(p.unexpected(other)),
        }
    }
    let workload = workload.ok_or_else(|| p.missing("--workload"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; {USAGE}"));
    }
    let trace = match trace.ok_or_else(|| p.missing("--trace"))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or_else(|| p.missing("--seed"))?,
        seconds: seconds.ok_or_else(|| p.missing("--seconds"))?,
        trace,
    })
}

/// The reference digest recorded for `workload` in `reference.json`.
fn reference_digest(workload: &str) -> Result<u64, String> {
    let doc = bgp_trace::json::parse(include_str!("../reference.json"))?;
    let hex = doc
        .get("digests")
        .and_then(|d| d.get(workload))
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("reference.json has no digest for {workload}"))?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).map_err(|e| format!("digest {hex}: {e}"))
}

/// Expected panics of the injected kill leave one line, not a report.
fn quiet_expected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = bgp_mpi::machine::panic_message(info.payload());
        if msg.contains(bgp_mpi::machine::ABORT_ECHO) || msg.contains("injected kill point") {
            eprintln!("perfbench: {msg}");
            return;
        }
        default_hook(info);
    }));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    quiet_expected_panics();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} | sim_threads {} host_cpus {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        batch::SIM_THREADS,
        host_cpus
    );
    let out_dir = PathBuf::from("perfbench/out");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.workload == "serve-mix" {
        serve_mix::run(args.seed, budget, args.trace)
    } else {
        let reference = match reference_digest(&args.workload) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let out = run_batch(&args, reference, budget, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        out
    };
    if args.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_json()))
        {
            Ok(()) => println!("spans -> {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = bgp_trace::json::Obj::new();
    for (name, unit) in names {
        let v = outcome.metrics.get(name);
        println!("{name:>24} = {v} {unit}");
        let m = bgp_trace::json::Obj::new()
            .field_f64("value", v)
            .field_str("unit", unit);
        metrics = metrics.field_raw(name, &m.finish());
    }
    let result = bgp_trace::json::Obj::new()
        .field_bool("correct", outcome.failed == 0)
        .field_u64("attempted", outcome.attempted)
        .field_u64("failed", outcome.failed)
        .field_raw("metrics", &metrics.finish());
    println!("{}", result.finish());
    ExitCode::SUCCESS
}

/// Run a batch workload's jobs back to back until `budget` is spent (at
/// least one; with `--trace 1`, alternately untraced and traced, at
/// least one of each).
fn run_batch(args: &Args, reference: u64, budget: Duration, scratch: &Path) -> Outcome {
    if args.workload != "cg-supervised" {
        println!("seed {}: {} has no random input", args.seed, args.workload);
    } else {
        println!(
            "seed {}: first attempt killed at phase {}",
            args.seed,
            batch::kill_phase(args.seed)
        );
    }
    let mut t = Tracer::default();
    let start = Instant::now();
    let mut iters: Vec<(bool, Iteration)> = Vec::new();
    let mut panicked = 0;
    let mut longest = Duration::ZERO;
    let mut peak_rss = 0.0;
    let cpu_start = stats::cpu_seconds();
    loop {
        let lap = Instant::now();
        let traced = args.trace && iters.len() % 2 == 1;
        let dir = scratch.join(format!("iter-{}", iters.len()));
        let it = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match args.workload.as_str() {
                "mg-a16" => batch::mg_a16(&mut t, traced, reference),
                "cg-supervised" => batch::cg_supervised(&mut t, traced, reference, args.seed, &dir),
                _ => batch::fullmachine_probe(&mut t, traced, reference),
            }
        }));
        let _ = std::fs::remove_dir_all(&dir);
        let Ok(mut it) = it else {
            println!("job {}: panicked", iters.len() + 1);
            panicked = 1;
            break;
        };
        if traced {
            check_nesting(&t, &mut it);
        }
        println!(
            "job {}{}: setup {:.6} s, job {:.6} s, {}",
            iters.len() + 1,
            if traced { " (traced)" } else { "" },
            it.setup_s,
            it.job_s,
            if it.fails.is_empty() {
                "checks passed".to_string()
            } else {
                it.fails.join("; ")
            }
        );
        if iters.is_empty() {
            // Later jobs reuse or fragment the first one's heap, so only
            // the first job's high-water mark repeats from run to run.
            peak_rss = stats::peak_rss_mb();
        }
        iters.push((traced, it));
        // Stop before a job that would overrun the budget, judging by
        // the longest one so far; keep at least one job (one traced and
        // one untraced with `--trace 1`).
        longest = longest.max(lap.elapsed());
        let enough = !args.trace || iters.len() >= 2;
        if enough && start.elapsed() + longest > budget {
            break;
        }
    }
    let cpu_s = stats::cpu_seconds() - cpu_start;
    let failed = panicked + iters.iter().filter(|(_, it)| !it.fails.is_empty()).count() as u64;
    let job_s = |traced: bool| {
        let xs: Vec<f64> = iters
            .iter()
            .filter(|(tr, _)| *tr == traced)
            .map(|(_, it)| it.job_s)
            .collect();
        stats::median(&xs)
    };
    let mut m = Metrics::default();
    if args.trace {
        let traced: Vec<&Metrics> = iters
            .iter()
            .filter(|(tr, _)| *tr)
            .map(|(_, it)| &it.layers)
            .collect();
        m = Metrics::median_of(&traced);
        let untraced = job_s(false);
        let wrapper_s = m.get("mpi.polls") * spans::poll_overhead().as_secs_f64();
        if untraced > 0.0 {
            m.set("bench.span_overhead_pct", wrapper_s / untraced * 100.0);
        }
        for (_, it) in iters.iter().filter(|(tr, _)| *tr) {
            compare_with_untraced(&t, it, untraced, wrapper_s);
        }
    } else {
        let setups: Vec<f64> = t
            .spans()
            .iter()
            .filter(|s| s.name == "setup")
            .map(|s| s.duration().as_secs_f64())
            .collect();
        m.set("setup_s", stats::median(&setups));
        m.set("job_s", job_s(false));
        m.set("peak_rss_mb", peak_rss);
        if cpu_s > 0.0 {
            m.set("throughput_rps", iters.len() as f64 / cpu_s);
        }
    }
    Outcome {
        attempted: iters.len() as u64 + panicked,
        failed,
        metrics: m,
        tracer: t,
    }
}

/// The traced job's span self times must add up to its own wall time:
/// a mismatch means spans overlapped and the per-layer split is wrong.
fn check_nesting(t: &Tracer, it: &mut Iteration) {
    let sum = spans::subtree_self_time(t.spans(), it.job_span).as_secs_f64();
    let job = t.spans()[it.job_span].duration().as_secs_f64();
    if (sum - job).abs() > 1e-3 * job.max(1.0) {
        it.fails.push(format!(
            "span self times add up to {sum:.6} s, not the job's {job:.6} s"
        ));
    }
}

/// Print how far the traced job's span self times, less the poll
/// wrapper's estimated cost, are from the untraced median `job_s`. The
/// gap is host noise plus whatever the estimate misses; it is reported,
/// not checked, because on a shared host one job's wall time varies by
/// more than the wrapper costs.
fn compare_with_untraced(t: &Tracer, it: &Iteration, untraced: f64, wrapper_s: f64) {
    let sum = spans::subtree_self_time(t.spans(), it.job_span).as_secs_f64();
    if untraced > 0.0 {
        println!(
            "traced job: self times {sum:.6} s, poll wrapper ~{wrapper_s:.6} s, \
             untraced median job_s {untraced:.6} s, gap {:+.2}%",
            ((sum - wrapper_s) / untraced - 1.0) * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_metrics_this_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = bgp_trace::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (
                        s("name"),
                        if key == "workloads" {
                            String::new()
                        } else {
                            s("unit")
                        },
                    )
                })
                .collect()
        };
        let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_batch_workload_has_a_reference_digest() {
        for w in &WORKLOADS[..3] {
            reference_digest(w).expect("digest");
        }
    }
}
