//! `bgpc-diff` — compare the counter dumps of two runs ("when users
//! execute multiple experiments, this adds an extra dimension of
//! complexity" — §II; this tool is the across-experiment view).
//!
//! ```text
//! bgpc-diff <dir-a> <dir-b> [--set N] [--threshold PCT]
//! ```
//!
//! Prints every event whose across-node mean changed by more than the
//! threshold (default 5%), sorted by relative change; useful for
//! before/after comparisons of a flag, cache size, or mode switch.

use bgp_arch::cli::ArgParser;
use bgp_postproc::Frame;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bgpc-diff <dir-a> <dir-b> [--set N] [--threshold PCT]";

#[derive(Debug)]
struct Args {
    dirs: [PathBuf; 2],
    set: u32,
    threshold: f64,
}

impl Args {
    fn from_args(argv: Vec<String>) -> Result<Args, String> {
        let mut p = ArgParser::from_args(USAGE, argv);
        let mut dirs = Vec::new();
        let mut set = 0;
        let mut threshold = 5.0f64;
        while let Some(flag) = p.next_flag()? {
            match flag.as_str() {
                "--set" => set = p.parse(&flag)?,
                "--threshold" => threshold = p.parse(&flag)?,
                other if !other.starts_with('-') => dirs.push(PathBuf::from(other)),
                other => return Err(p.unexpected(other)),
            }
        }
        if !(threshold.is_finite() && threshold >= 0.0) {
            return Err(format!("--threshold: {threshold} is not a percentage"));
        }
        let dirs: [PathBuf; 2] = dirs
            .try_into()
            .map_err(|_| p.missing("exactly two dump directories"))?;
        Ok(Args {
            dirs,
            set,
            threshold,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::from_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bgpc-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Args {
        dirs,
        set,
        threshold,
    } = args;

    let frames: Vec<Frame> = match dirs
        .iter()
        .map(|p| {
            bgp_core::read_dumps(p)
                .and_then(|d| Frame::from_dumps(&d, set))
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bgpc-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (a, b) = (&frames[0], &frames[1]);

    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for (ev, sa) in a.all_stats() {
        let mb = b.mean(ev);
        let ma = sa.mean;
        if ma == 0.0 && mb == 0.0 {
            continue;
        }
        let change = if ma == 0.0 {
            f64::INFINITY
        } else {
            (mb - ma) / ma * 100.0
        };
        if change.abs() >= threshold {
            rows.push((ev.name(), ma, mb, change));
        }
    }
    rows.sort_by(|x, y| y.3.abs().partial_cmp(&x.3.abs()).expect("no NaNs here"));

    if rows.is_empty() {
        println!("no event changed by more than {threshold}% (set {set})");
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<32} {:>16} {:>16} {:>10}",
        "event", "mean A", "mean B", "change"
    );
    for (name, ma, mb, change) in rows {
        println!("{name:<32} {ma:>16.1} {mb:>16.1} {change:>+9.1}%");
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
    fn flags_and_directories_parse() {
        let a = parse(&["a", "--set", "3", "b", "--threshold", "0.5"]).unwrap();
        assert_eq!(a.dirs, [PathBuf::from("a"), PathBuf::from("b")]);
        assert_eq!((a.set, a.threshold), (3, 0.5));
        let a = parse(&["a", "b"]).unwrap();
        assert_eq!((a.set, a.threshold), (0, 5.0));
    }

    #[test]
    fn malformed_values_name_their_flag() {
        for (argv, flag) in [
            (&["a", "b", "--set", "abc"][..], "--set"),
            (&["a", "b", "--threshold", "abc"][..], "--threshold"),
            (&["a", "b", "--threshold"][..], "--threshold"),
            (&["a", "b", "--threshold", "-1"][..], "--threshold"),
            (&["a", "b", "--threshold", "nan"][..], "--threshold"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.starts_with(flag), "{argv:?}: {err}");
        }
        assert!(parse(&["a"]).unwrap_err().contains("two dump directories"));
        assert!(parse(&["a", "b", "c"]).is_err());
        assert!(parse(&["a", "b", "--bogus"])
            .unwrap_err()
            .contains("--bogus"));
        assert_eq!(parse(&["--help"]).unwrap_err(), USAGE);
    }
}
