//! `bgpc-dump` — inspect the per-node binary counter dumps the interface
//! library writes (the command-line face of the paper's post-processing
//! tools).
//!
//! ```text
//! bgpc-dump <dir-or-file> [--set N] [--csv out.csv] [--all] [--top K] [--report] [--json]
//! ```
//!
//! * default: summary per node + across-node statistics of the set's
//!   busiest counters,
//! * `--set N`: select an instrumentation set (default 0),
//! * `--all`: print every observed counter (the paper's "statistics of
//!   all the 512 counters" option),
//! * `--top K`: how many counters the summary shows (default 20),
//! * `--csv PATH`: also write the statistics as CSV,
//! * `--report`: print the one-page human-readable report instead of the
//!   raw counter table,
//! * `--json`: emit the node summaries, warnings, and statistics as one
//!   JSON document on stdout (machine-readable, shares the toolchain
//!   with `bgpc-run --trace` timelines).
//!
//! Dumps produced under `CounterPolicy::Multiplexed` carry synthetic
//! sets next to each user set: four per-mode blocks and one schedule
//! set recording the rotation's per-mode cycle/phase weights. Set
//! listings label them (`mux[set.mN]`, `sched[set]`) instead of
//! printing the raw high-bit ids, and `--json` adds a `mux_weights`
//! object (the partition-pooled per-mode weights reconstruction scales
//! by, and whether they are cycles or phases) plus the counter `policy`
//! recorded in `run.json` when present.

use bgp_arch::cli::ArgParser;
use bgp_arch::events::EventId;
use bgp_core::dump::NodeDump;
use bgp_postproc::{mux_weights, stats_csv, EventStats, Frame};
use bgp_trace::json::escape;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: bgpc-dump <dir-or-file> [--set N] [--csv out.csv] [--all] [--top K] \
                     [--report] [--json]";

#[derive(Debug)]
struct Args {
    input: PathBuf,
    set: u32,
    csv: Option<PathBuf>,
    all: bool,
    report: bool,
    json: bool,
    top: usize,
}

impl Args {
    fn from_args(argv: Vec<String>) -> Result<Args, String> {
        let mut p = ArgParser::from_args(USAGE, argv);
        let mut input = None;
        let mut a = Args {
            input: PathBuf::new(),
            set: 0,
            csv: None,
            all: false,
            report: false,
            json: false,
            top: 20,
        };
        while let Some(flag) = p.next_flag()? {
            match flag.as_str() {
                "--set" => a.set = p.parse(&flag)?,
                "--csv" => a.csv = Some(p.path(&flag)?),
                "--all" => a.all = true,
                "--report" => a.report = true,
                "--json" => a.json = true,
                "--top" => a.top = p.parse(&flag)?,
                other if input.is_none() && !other.starts_with('-') => {
                    input = Some(PathBuf::from(other));
                }
                other => return Err(p.unexpected(other)),
            }
        }
        let what = "input path (a .bgpc file or a directory of them)";
        a.input = input.ok_or_else(|| p.missing(what))?;
        Ok(a)
    }
}

/// Run metadata `bgpc-run` records next to the dumps in `run.json`:
/// the `(spec-hash, seed)` cache identity — the same key the counter
/// service (`bgpc-serve`) addresses results by, so a dump directory
/// can be matched to its cache entry — and the counter policy the job
/// ran under, when recorded.
struct RunMeta {
    spec: String,
    seed: u64,
    policy: Option<String>,
}

fn run_meta(input: &Path) -> Option<RunMeta> {
    let text = std::fs::read_to_string(input.join("run.json")).ok()?;
    let v = bgp_trace::json::parse(&text).ok()?;
    let spec = v.get("spec_hash")?.as_str()?.to_string();
    let seed = v
        .get("seed")
        .and_then(bgp_trace::json::Value::as_u64)
        .unwrap_or(0);
    let policy = v.get("policy").and_then(|p| p.as_str()).map(str::to_string);
    Some(RunMeta { spec, seed, policy })
}

/// Human-readable label for a set id: user sets print as plain
/// numbers, synthetic multiplexing sets as `mux[set.mN]`, rotation
/// schedule sets as `sched[set]`.
fn set_label(id: u32) -> String {
    if let Some((user, mode)) = bgp_core::dump::mux_set_parts(id) {
        format!("mux[{user}.m{mode}]")
    } else if bgp_core::dump::is_mux_sched(id) {
        format!("sched[{}]", id & !bgp_core::dump::MUX_SCHED_BASE)
    } else {
        id.to_string()
    }
}

/// Render dumps + statistics as one JSON document (stable key order).
fn render_json(
    dumps: &[NodeDump],
    frame: &Frame,
    set: u32,
    meta: Option<&RunMeta>,
    stats: &[(EventId, EventStats)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"set\": {set},");
    if let Some(m) = meta {
        let _ = writeln!(out, "  \"spec_hash\": {},", escape(&m.spec));
        let _ = writeln!(out, "  \"seed\": {},", m.seed);
        if let Some(policy) = &m.policy {
            let _ = writeln!(out, "  \"policy\": {},", escape(policy));
        }
    }
    if let Some((w, basis)) = mux_weights(dumps, set) {
        let w: Vec<String> = w.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "  \"mux_weights\": {{\"basis\": \"{basis}\", \"weights\": [{}]}},",
            w.join(", ")
        );
    }
    out.push_str("  \"nodes\": [\n");
    for (i, d) in dumps.iter().enumerate() {
        let sets: Vec<String> = d
            .sets
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"label\": {}, \"records\": {}}}",
                    s.id,
                    escape(&set_label(s.id)),
                    s.records
                )
            })
            .collect();
        let _ = write!(
            out,
            "    {{\"node\": {}, \"mode\": {}, \"sets\": [{}]}}",
            d.node,
            escape(&d.mode.to_string()),
            sets.join(", ")
        );
        out.push_str(if i + 1 < dumps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"warnings\": [");
    let warnings: Vec<String> = frame
        .anomalies()
        .iter()
        .map(|a| escape(&a.to_string()))
        .collect();
    out.push_str(&warnings.join(", "));
    out.push_str("],\n  \"counters\": [\n");
    for (i, (ev, s)) in stats.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"event\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"nodes\": {}}}",
            escape(&ev.name()),
            s.min,
            s.max,
            s.mean,
            s.nodes
        );
        out.push_str(if i + 1 < stats.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn load(input: &Path) -> Result<Vec<NodeDump>, String> {
    if input.is_dir() {
        bgp_core::read_dumps(input).map_err(|e| e.to_string())
    } else {
        let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
        Ok(vec![
            bgp_core::dump::decode(&bytes).map_err(|e| e.to_string())?
        ])
    }
}

fn main() -> ExitCode {
    let args = match Args::from_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bgpc-dump: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dumps = match load(&args.input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bgpc-dump: {e}");
            return ExitCode::FAILURE;
        }
    };

    let frame = match Frame::from_dumps(&dumps, args.set) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bgpc-dump: {e}");
            return ExitCode::FAILURE;
        }
    };

    let meta = args.input.is_dir().then(|| run_meta(&args.input)).flatten();

    if args.json {
        let mut stats = frame.all_stats();
        if !args.all {
            stats.sort_by_key(|(_, s)| std::cmp::Reverse(s.sum));
            stats.truncate(args.top);
        }
        print!(
            "{}",
            render_json(&dumps, &frame, args.set, meta.as_ref(), &stats)
        );
        if let Some(path) = args.csv {
            if let Err(e) = stats_csv(&frame).write(&path) {
                eprintln!("bgpc-dump: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    println!("{} node dump(s)", dumps.len());
    if let Some(m) = &meta {
        println!("cache key: spec {}, seed {}", m.spec, m.seed);
        if let Some(policy) = &m.policy {
            println!("counter policy: {policy}");
        }
    }
    for d in &dumps {
        let sets: Vec<String> = d
            .sets
            .iter()
            .map(|s| format!("{} ({} records)", set_label(s.id), s.records))
            .collect();
        println!(
            "  node {:>5}  {}  sets: [{}]",
            d.node,
            d.mode,
            sets.join(", ")
        );
    }
    if let Some((w, basis)) = mux_weights(&dumps, args.set) {
        println!("mux weights (pooled {basis}): {w:?}");
    }
    for a in frame.anomalies() {
        println!("warning: {a}");
    }

    if args.report {
        println!("\n{}", bgp_postproc::render_report(&dumps, &frame));
        return ExitCode::SUCCESS;
    }

    let mut stats = frame.all_stats();
    if !args.all {
        stats.sort_by_key(|(_, s)| std::cmp::Reverse(s.sum));
        stats.truncate(args.top);
    }
    println!(
        "\nset {} — {} counters{}:",
        args.set,
        stats.len(),
        if args.all {
            ""
        } else {
            " (by total, use --all for every slot)"
        }
    );
    println!(
        "{:<32} {:>14} {:>14} {:>16} {:>6}",
        "event", "min", "max", "mean", "nodes"
    );
    for (ev, s) in &stats {
        println!(
            "{:<32} {:>14} {:>14} {:>16.1} {:>6}",
            ev.name(),
            s.min,
            s.max,
            s.mean,
            s.nodes
        );
    }

    if let Some(path) = args.csv {
        if let Err(e) = stats_csv(&frame).write(&path) {
            eprintln!("bgpc-dump: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nstatistics written to {}", path.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::from_args(argv.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_and_input_parse() {
        let a = parse(&[
            "--set", "2", "dumps", "--csv", "o.csv", "--top", "5", "--report",
        ])
        .unwrap();
        assert_eq!(a.input, PathBuf::from("dumps"));
        assert_eq!(
            (a.set, a.top, a.report, a.all, a.json),
            (2, 5, true, false, false)
        );
        assert_eq!(a.csv, Some(PathBuf::from("o.csv")));
        let a = parse(&["dumps", "--all", "--json"]).unwrap();
        assert_eq!((a.set, a.top, a.all, a.json), (0, 20, true, true));
    }

    #[test]
    fn malformed_values_name_their_flag() {
        for (argv, flag) in [
            (&["d", "--set", "abc"][..], "--set"),
            (&["d", "--top", "-3"][..], "--top"),
            (&["d", "--top"][..], "--top"),
            (&["d", "--csv"][..], "--csv"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.starts_with(flag), "{argv:?}: {err}");
        }
        assert!(parse(&[]).unwrap_err().contains("missing input path"));
        assert!(parse(&["a", "b"])
            .unwrap_err()
            .contains("unexpected argument b"));
        assert!(parse(&["--help"]).unwrap_err().contains("--report"));
    }
}
