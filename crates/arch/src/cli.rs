//! Shared command-line parsing for the `bgpc-*` binaries.
//!
//! `bgpc-run`, `bgpc-serve` and `bgpc-load` each used to hand-roll the same flag loop with slightly different error wording;
//! this module is the single copy. Flags take string values via
//! [`ArgParser::value`], `FromStr` values via [`ArgParser::parse`],
//! paths via [`ArgParser::path`], and closed token vocabularies
//! (kernels, classes, modes, admin ops) via [`ArgParser::token`] —
//! with uniform `--help` handling and uniform "needs a value" /
//! "unexpected argument" messages across every tool.
//!
//! The loop shape each binary keeps:
//!
//! ```
//! use bgp_arch::cli::ArgParser;
//! let mut ranks = 8usize;
//! let mut p = ArgParser::from_args(
//!     "usage: tool [--ranks N]",
//!     vec!["--ranks".into(), "16".into()],
//! );
//! while let Some(flag) = p.next_flag().unwrap() {
//!     match flag.as_str() {
//!         "--ranks" => ranks = p.parse(&flag).unwrap(),
//!         other => panic!("{}", p.unexpected(other)),
//!     }
//! }
//! assert_eq!(ranks, 16);
//! ```

use std::path::PathBuf;

/// One pass over a binary's argument list (program name already
/// stripped).
pub struct ArgParser {
    usage: &'static str,
    argv: std::vec::IntoIter<String>,
}

impl ArgParser {
    /// Parse the process arguments.
    pub fn from_env(usage: &'static str) -> ArgParser {
        ArgParser::from_args(usage, std::env::args().skip(1).collect())
    }

    /// Parse an explicit argument vector (tests).
    pub fn from_args(usage: &'static str, argv: Vec<String>) -> ArgParser {
        ArgParser {
            usage,
            argv: argv.into_iter(),
        }
    }

    /// The next flag token, or `None` when the arguments are spent.
    ///
    /// # Errors
    /// `--help` / `-h` return the usage synopsis as the error so every
    /// tool prints its synopsis through one path.
    pub fn next_flag(&mut self) -> Result<Option<String>, String> {
        match self.argv.next() {
            None => Ok(None),
            Some(a) if a == "--help" || a == "-h" => Err(self.usage.into()),
            Some(a) => Ok(Some(a)),
        }
    }

    /// The value following `flag`.
    ///
    /// # Errors
    /// `"{flag} needs a value"` when the arguments ran out.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed via `FromStr`.
    ///
    /// # Errors
    /// A missing value, or the parse failure prefixed with the flag.
    pub fn parse<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }

    /// The value following `flag` as a filesystem path.
    ///
    /// # Errors
    /// A missing value.
    pub fn path(&mut self, flag: &str) -> Result<PathBuf, String> {
        Ok(PathBuf::from(self.value(flag)?))
    }

    /// The value following `flag`, lowercased and mapped through a
    /// closed token vocabulary (`expected` names the legal tokens in
    /// the error).
    ///
    /// # Errors
    /// A missing value, or a token `map` refuses.
    pub fn token<T>(
        &mut self,
        flag: &str,
        expected: &str,
        map: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.value(flag)?.to_ascii_lowercase();
        map(&v).ok_or_else(|| format!("{flag}: unknown value {v:?} (expected {expected})"))
    }

    /// Uniform reject for a flag no arm matched (carries the usage).
    pub fn unexpected(&self, arg: &str) -> String {
        format!("unexpected argument {arg}\n{}", self.usage)
    }

    /// Uniform reject for an absent required flag (carries the usage).
    pub fn missing(&self, what: &str) -> String {
        format!("missing {what}\n{}", self.usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser(argv: &[&str]) -> ArgParser {
        ArgParser::from_args("usage: test", argv.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_values_and_types_flow_through() {
        let mut p = parser(&["--ranks", "16", "--out", "/tmp/x", "--mode", "VNM"]);
        assert_eq!(p.next_flag().unwrap().as_deref(), Some("--ranks"));
        assert_eq!(p.parse::<usize>("--ranks").unwrap(), 16);
        assert_eq!(p.next_flag().unwrap().as_deref(), Some("--out"));
        assert_eq!(p.path("--out").unwrap(), PathBuf::from("/tmp/x"));
        assert_eq!(p.next_flag().unwrap().as_deref(), Some("--mode"));
        // Tokens are matched case-insensitively.
        let mode = p
            .token("--mode", "vnm", |s| (s == "vnm").then_some("vnm"))
            .unwrap();
        assert_eq!(mode, "vnm");
        assert_eq!(p.next_flag().unwrap(), None);
    }

    #[test]
    fn errors_are_uniform() {
        let mut p = parser(&["--ranks"]);
        p.next_flag().unwrap();
        assert_eq!(
            p.parse::<usize>("--ranks").unwrap_err(),
            "--ranks needs a value"
        );

        let mut p = parser(&["--ranks", "many"]);
        p.next_flag().unwrap();
        let err = p.parse::<usize>("--ranks").unwrap_err();
        assert!(err.starts_with("--ranks: "), "{err}");

        let mut p = parser(&["--mode", "zz"]);
        p.next_flag().unwrap();
        let err = p.token("--mode", "vnm", |_| None::<()>).unwrap_err();
        assert_eq!(err, "--mode: unknown value \"zz\" (expected vnm)");

        let p = parser(&[]);
        assert_eq!(
            p.unexpected("--bogus"),
            "unexpected argument --bogus\nusage: test"
        );
        assert_eq!(p.missing("--out DIR"), "missing --out DIR\nusage: test");
    }

    #[test]
    fn help_short_circuits_with_the_usage() {
        for flag in ["--help", "-h"] {
            let mut p = parser(&[flag, "--ranks", "4"]);
            assert_eq!(p.next_flag().unwrap_err(), "usage: test");
        }
    }
}
