//! The one experiment driver: `repro_all [NAME...] [--quick|--paper]`
//! runs the named entries of the `bgp_bench::repro` registry (every
//! default entry when none is named), writes their CSVs into `results/`
//! (or `$BGP_RESULTS_DIR`) and their `BENCH_*.json` records into the
//! repo root (or `$BGP_BENCH_DIR`), and exits non-zero when any entry's
//! acceptance bound fails.
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
    let mut failed = Vec::new();
    for entry in entries {
        match entry.run(scale) {
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
