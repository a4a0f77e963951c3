//! `bgpc-load` — load generator and admin client for `bgpc-serve`.
//!
//! ```text
//! # load test: N requests over a hit/miss mix, report + optional JSON
//! bgpc-load --addr HOST:PORT [--requests N] [--concurrency N]
//!           [--distinct N] [--kernel mg] [--class s] [--ranks N]
//!           [--mode vnm] [--bench PATH]
//!
//! # one submit, result payload written to a file (byte-identity checks)
//! bgpc-load --addr HOST:PORT --once [--seed N] [--kernel mg] ...
//!           [--out PATH] [--stream]
//!
//! # admin ops
//! bgpc-load --addr HOST:PORT --admin ping|stats|drain|shutdown
//! ```
//!
//! `--once` prints the cache outcome (`hit`/`miss`/`joined`) on stdout
//! and, with `--out`, writes the **raw spliced result bytes** — two
//! `--once` runs of the same job must produce byte-identical files,
//! which is exactly what the CI smoke test asserts.

use bgp_arch::cli::ArgParser;
use bgp_serve::load::{run_load, str_member, LoadConfig};
use bgp_serve::proto::{parse_class, parse_kernel, parse_mode, result_payload, Request, SubmitReq};
use bgp_serve::Client;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bgpc-load --addr HOST:PORT \
[--requests N] [--concurrency N] [--distinct N] \
[--kernel mg|ft|ep|cg|is|lu|sp|bt] [--class s|w|a] [--ranks N] \
[--mode smp1|smp4|dual|vnm] [--priority N] [--bench PATH] \
[--once [--seed N] [--out PATH] [--stream]] \
[--admin ping|stats|drain|shutdown]";

enum Op {
    Load,
    Once,
    Admin(Request),
}

struct Args {
    addr: SocketAddr,
    op: Op,
    requests: u64,
    concurrency: usize,
    distinct: u64,
    template: SubmitReq,
    bench: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = None;
    let mut args = Args {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        op: Op::Load,
        requests: 10_000,
        concurrency: 8,
        distinct: 16,
        template: SubmitReq::default(),
        bench: None,
        out: None,
    };
    let mut p = ArgParser::from_env(USAGE);
    while let Some(a) = p.next_flag()? {
        match a.as_str() {
            "--addr" => {
                let s = p.value(&a)?;
                addr = Some(
                    s.to_socket_addrs()
                        .map_err(|e| format!("--addr {s}: {e}"))?
                        .next()
                        .ok_or(format!("--addr {s}: no address"))?,
                );
            }
            "--requests" => args.requests = p.parse(&a)?,
            "--concurrency" => args.concurrency = p.parse(&a)?,
            "--distinct" => args.distinct = p.parse(&a)?,
            "--kernel" => {
                args.template.kernel = p.token(&a, "mg|ft|ep|cg|is|lu|sp|bt", parse_kernel)?;
            }
            "--class" => args.template.class = p.token(&a, "s|w|a", parse_class)?,
            "--ranks" => args.template.ranks = p.parse(&a)?,
            "--mode" => {
                args.template.mode = p.token(&a, "smp1|smp4|dual|vnm", parse_mode)?;
            }
            "--priority" => args.template.priority = p.parse(&a)?,
            "--seed" => args.template.seed = p.parse(&a)?,
            "--stream" => args.template.stream = true,
            "--bench" => args.bench = Some(p.path(&a)?),
            "--once" => args.op = Op::Once,
            "--out" => args.out = Some(p.path(&a)?),
            "--admin" => {
                args.op = Op::Admin(p.token(&a, "ping|stats|drain|shutdown", |op| {
                    Some(match op {
                        "ping" => Request::Ping,
                        "stats" => Request::Stats,
                        "drain" => Request::Drain,
                        "shutdown" => Request::Shutdown,
                        _ => return None,
                    })
                })?);
            }
            other => return Err(p.unexpected(other)),
        }
    }
    args.addr = addr.ok_or_else(|| p.missing("--addr HOST:PORT"))?;
    Ok(args)
}

fn run_once(args: &Args) -> Result<(), String> {
    let mut client = Client::connect(args.addr).map_err(|e| e.to_string())?;
    let line = args.template.encode();
    let resp = client
        .request_with_updates(&line, |u| eprintln!("{u}"))
        .map_err(|e| e.to_string())?;
    let Some(outcome) = str_member(&resp, "cache") else {
        return Err(format!("submit failed: {resp}"));
    };
    let payload = result_payload(&resp).ok_or("response carried no result")?;
    println!(
        "{outcome} key={} ({} result bytes)",
        str_member(&resp, "key").unwrap_or("?"),
        payload.len()
    );
    if let Some(out) = &args.out {
        std::fs::write(out, payload).map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &args.op {
        Op::Once => run_once(&args),
        Op::Admin(req) => match bgp_serve::request_once(args.addr, &req.encode()) {
            Ok(resp) => {
                println!("{resp}");
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        },
        Op::Load => {
            let cfg = LoadConfig {
                addr: args.addr,
                requests: args.requests,
                concurrency: args.concurrency,
                distinct: args.distinct,
                template: args.template,
            };
            match run_load(&cfg) {
                Ok(report) => {
                    println!(
                        "{} requests in {} ms: {:.0} req/s, hit rate {:.3}, \
                         {} miss / {} joined / {} rejected, p50 {} µs, p99 {} µs",
                        report.satisfied,
                        report.wall_ms,
                        report.throughput_rps,
                        report.hit_rate(),
                        report.misses,
                        report.joined,
                        report.rejects,
                        report.p50_us,
                        report.p99_us
                    );
                    if let Some(path) = &args.bench {
                        if let Err(e) = std::fs::write(path, report.to_json() + "\n") {
                            eprintln!("bgpc-load: writing {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                        println!("report -> {}", path.display());
                    }
                    if report.contract_held() {
                        Ok(())
                    } else {
                        Err(format!(
                            "service contract violated: satisfied {}/{}, \
                             failures {}, byte_identical {}",
                            report.satisfied,
                            report.requests,
                            report.failures,
                            report.byte_identical
                        ))
                    }
                }
                Err(e) => Err(e.to_string()),
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bgpc-load: {e}");
            ExitCode::FAILURE
        }
    }
}
