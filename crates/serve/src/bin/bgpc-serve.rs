//! `bgpc-serve` — the counter-service daemon.
//!
//! ```text
//! bgpc-serve [--addr HOST:PORT] [--addr-file PATH] [--workers N]
//!            [--queue-cap N] [--age-ms N] [--cache-dir DIR] [--trace]
//!            [--sim-threads N] [--wall-budget-ms N] [--max-retries N]
//!            [--quiet]
//! ```
//!
//! Binds the listener, prints the bound address on stdout (and into
//! `--addr-file` for scripted callers using port 0), then serves until
//! a `shutdown` request drains the queue. See `bgp_serve::proto` for
//! the wire protocol and `bgpc-load` for the matching client.

use bgp_arch::cli::ArgParser;
use bgp_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: bgpc-serve [--addr HOST:PORT] [--addr-file PATH] \
[--workers N] [--queue-cap N] [--age-ms N] [--cache-dir DIR] [--trace] \
[--sim-threads N] [--wall-budget-ms N] [--max-retries N] [--quiet]";

fn parse_args() -> Result<(ServerConfig, Option<PathBuf>), String> {
    let mut cfg = ServerConfig::default();
    let mut addr_file = None;
    let mut p = ArgParser::from_env(USAGE);
    while let Some(a) = p.next_flag()? {
        match a.as_str() {
            "--addr" => cfg.addr = p.value(&a)?,
            "--addr-file" => addr_file = Some(p.path(&a)?),
            "--workers" => cfg.workers = p.parse(&a)?,
            "--queue-cap" => cfg.queue.capacity = p.parse(&a)?,
            "--age-ms" => {
                cfg.queue.age_to_boost = Duration::from_millis(p.parse(&a)?);
            }
            "--cache-dir" => cfg.cache_dir = Some(p.path(&a)?),
            "--trace" => cfg.trace_jobs = true,
            "--sim-threads" | "--threads" => cfg.job_sim_threads = p.parse(&a)?,
            "--wall-budget-ms" => {
                // 0 disables the watchdog, same convention as bgpc-run.
                let ms: u64 = p.parse(&a)?;
                cfg.wall_budget = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-retries" => cfg.max_retries = p.parse(&a)?,
            "--quiet" => cfg.quiet = true,
            other => return Err(p.unexpected(other)),
        }
    }
    Ok((cfg, addr_file))
}

fn main() -> ExitCode {
    let (cfg, addr_file) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    bgp_core::supervisor::install_rank_death_hook("bgpc-serve");

    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bgpc-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!("{addr}");
    if let Some(path) = addr_file {
        // Written atomically so a watcher never reads a partial line.
        let tmp = path.with_extension("tmp");
        let write = std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = write {
            eprintln!("bgpc-serve: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    server.run();
    ExitCode::SUCCESS
}
