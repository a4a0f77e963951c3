//! The one experiment driver: `repro_all [NAME...] [--quick|--paper]`
//! runs the named entries of the `bgp_bench::repro` registry (every
//! default entry when none is named), writes their CSVs into `results/`
//! (or `$BGP_RESULTS_DIR`) and their `BENCH_*.json` records into the
//! repo root (or `$BGP_BENCH_DIR`), and exits non-zero when any entry's
//! acceptance bound fails. When more than one entry is selected, each
//! runs in a child process of its own, so no entry's bound reads memory
//! an earlier entry left behind; a single entry runs in-process.
use bgp_bench::repro;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (scale, entries) = match repro::parse_args(std::env::args().skip(1).collect()) {
        Ok(selection) => selection,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("[repro_all] scale: {scale:?}");
    let isolate = entries.len() > 1;
    let mut failed = Vec::new();
    for entry in entries {
        let verdict = if isolate { entry.run_in_child(scale) } else { entry.run(scale) };
        match verdict {
            Ok(()) => eprintln!("[repro_all] {} done", entry.name),
            Err(e) => {
                eprintln!("[repro_all] {}: BOUND FAILED — {e}", entry.name);
                failed.push(entry.name);
            }
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("[repro_all] failed bounds: {}", failed.join(", "));
    ExitCode::FAILURE
}
