//! The workspace-wide error type.
//!
//! Besides the classic failure classes (configuration, protocol misuse,
//! corrupt dumps, I/O), the taxonomy distinguishes the *transient*
//! failures a resilient collection pipeline can retry — [`BgpError::Timeout`]
//! and [`BgpError::PartialData`] — from the fatal ones it must route
//! around, such as [`BgpError::NodeLost`]. Structured [`Context`] carries
//! node id / set id / byte offset where the call site knows them, so a
//! 4096-node run can say *which* dump broke and *where*.

use core::fmt;

/// Structured context attached to [`BgpError::Corrupt`] and
/// [`BgpError::Protocol`]: what went wrong, and — where the call site
/// knows — on which node, in which instrumentation set, at which byte
/// offset of the dump file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Context {
    /// Human-readable description of the failure.
    pub reason: String,
    /// Node id the failure concerns, if known.
    pub node: Option<u32>,
    /// Instrumentation-set id the failure concerns, if known.
    pub set: Option<u32>,
    /// Byte offset into the dump where decoding failed, if known.
    pub offset: Option<u64>,
}

impl Context {
    /// A context carrying only a reason.
    pub fn new(reason: impl Into<String>) -> Context {
        Context {
            reason: reason.into(),
            ..Context::default()
        }
    }

    /// Attach the node id.
    pub fn at_node(mut self, node: u32) -> Context {
        self.node = Some(node);
        self
    }

    /// Attach the set id.
    pub fn at_set(mut self, set: u32) -> Context {
        self.set = Some(set);
        self
    }

    /// Attach the byte offset.
    pub fn at_offset(mut self, offset: u64) -> Context {
        self.offset = Some(offset);
        self
    }
}

impl From<String> for Context {
    fn from(reason: String) -> Context {
        Context::new(reason)
    }
}

impl From<&str> for Context {
    fn from(reason: &str) -> Context {
        Context::new(reason)
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)?;
        let mut sep = " (";
        if let Some(n) = self.node {
            write!(f, "{sep}node {n}")?;
            sep = ", ";
        }
        if let Some(s) = self.set {
            write!(f, "{sep}set {s}")?;
            sep = ", ";
        }
        if let Some(o) = self.offset {
            write!(f, "{sep}offset {o}")?;
            sep = ", ";
        }
        if sep == ", " {
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Errors surfaced by the Blue Gene/P model and the counter library.
#[derive(Debug)]
pub enum BgpError {
    /// A hardware configuration failed validation.
    Config(String),
    /// The counter interface was used out of protocol
    /// (e.g. `BGP_Start` before `BGP_Initialize`, mismatched stop).
    Protocol(Context),
    /// Input data (a counter dump, a snapshot or one of its sections, a
    /// cached blob) was malformed.
    Corrupt(Context),
    /// An I/O error while reading or writing dump files.
    Io(std::io::Error),
    /// An MPI-level usage error (bad rank, size mismatch, deadlock).
    Mpi(String),
    /// A per-node collection attempt exceeded its deadline (retryable).
    Timeout {
        /// Node whose collection timed out.
        node: u32,
        /// Attempts made so far (including the one that timed out).
        attempts: u32,
    },
    /// A node disappeared mid-run; its data will never arrive (fatal —
    /// degrade coverage instead of retrying).
    NodeLost {
        /// The lost node.
        node: u32,
    },
    /// A node's dump decoded only partially; the surviving sets were
    /// recovered and the named set quarantined.
    PartialData {
        /// Node whose dump was partial.
        node: u32,
        /// First quarantined set, if identifiable.
        set: Option<u32>,
    },
}

impl BgpError {
    /// Shorthand for a [`BgpError::Corrupt`] with just a reason.
    pub fn corrupt(reason: impl Into<String>) -> BgpError {
        BgpError::Corrupt(Context::new(reason))
    }

    /// Shorthand for a [`BgpError::Protocol`] with just a reason.
    pub fn protocol(reason: impl Into<String>) -> BgpError {
        BgpError::Protocol(Context::new(reason))
    }

    /// Whether a collection pipeline should retry after this error.
    ///
    /// Timeouts and partial reads are transient: a later attempt can
    /// succeed (the paper's I/O node forwarding path re-requests dumps).
    /// Everything else — lost nodes, corrupt data, protocol and
    /// configuration bugs — will fail identically on every retry.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            BgpError::Timeout { .. } | BgpError::PartialData { .. } | BgpError::Io(_)
        )
    }

    /// The structured context, for the variants that carry one.
    pub fn context(&self) -> Option<&Context> {
        match self {
            BgpError::Protocol(c) | BgpError::Corrupt(c) => Some(c),
            _ => None,
        }
    }

    /// The node id associated with the error, if any.
    pub fn node(&self) -> Option<u32> {
        match self {
            BgpError::Protocol(c) | BgpError::Corrupt(c) => c.node,
            BgpError::Timeout { node, .. }
            | BgpError::NodeLost { node }
            | BgpError::PartialData { node, .. } => Some(*node),
            _ => None,
        }
    }
}

impl fmt::Display for BgpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BgpError::Config(m) => write!(f, "configuration error: {m}"),
            BgpError::Protocol(c) => write!(f, "counter-interface protocol error: {c}"),
            BgpError::Corrupt(c) => write!(f, "corrupt data: {c}"),
            BgpError::Io(e) => write!(f, "i/o error: {e}"),
            BgpError::Mpi(m) => write!(f, "mpi error: {m}"),
            BgpError::Timeout { node, attempts } => {
                write!(
                    f,
                    "collection timeout on node {node} after {attempts} attempt(s)"
                )
            }
            BgpError::NodeLost { node } => write!(f, "node {node} lost mid-run"),
            BgpError::PartialData { node, set } => match set {
                Some(s) => write!(f, "partial data from node {node} (set {s} quarantined)"),
                None => write!(f, "partial data from node {node}"),
            },
        }
    }
}

impl std::error::Error for BgpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BgpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BgpError {
    fn from(e: std::io::Error) -> Self {
        BgpError::Io(e)
    }
}

/// Convenient result alias.
pub type Result<T> = core::result::Result<T, BgpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BgpError::Protocol("BGP_Start before BGP_Initialize".into());
        assert!(e.to_string().contains("BGP_Start"));
        let e: BgpError = std::io::Error::new(std::io::ErrorKind::NotFound, "x").into();
        assert!(matches!(e, BgpError::Io(_)));
    }

    #[test]
    fn context_display_includes_location() {
        let e = BgpError::Corrupt(
            Context::new("bad checksum")
                .at_node(3)
                .at_set(0)
                .at_offset(17),
        );
        let s = e.to_string();
        assert!(s.contains("bad checksum"), "{s}");
        assert!(s.contains("node 3"), "{s}");
        assert!(s.contains("set 0"), "{s}");
        assert!(s.contains("offset 17"), "{s}");
        // A bare-reason context prints no empty parens.
        assert_eq!(
            BgpError::corrupt("plain").to_string(),
            "corrupt data: plain"
        );
    }

    #[test]
    fn retryable_classification() {
        assert!(BgpError::Timeout {
            node: 1,
            attempts: 1
        }
        .is_retryable());
        assert!(BgpError::PartialData {
            node: 1,
            set: Some(0)
        }
        .is_retryable());
        assert!(BgpError::Io(std::io::Error::other("transient")).is_retryable());
        assert!(!BgpError::NodeLost { node: 1 }.is_retryable());
        assert!(!BgpError::corrupt("x").is_retryable());
        assert!(!BgpError::protocol("x").is_retryable());
        assert!(!BgpError::Config("x".into()).is_retryable());
        assert!(!BgpError::Mpi("x".into()).is_retryable());
    }

    #[test]
    fn node_accessor_covers_structured_variants() {
        assert_eq!(BgpError::NodeLost { node: 9 }.node(), Some(9));
        assert_eq!(
            BgpError::Timeout {
                node: 2,
                attempts: 3
            }
            .node(),
            Some(2)
        );
        assert_eq!(
            BgpError::Corrupt(Context::new("x").at_node(4)).node(),
            Some(4)
        );
        assert_eq!(BgpError::corrupt("x").node(), None);
        assert_eq!(BgpError::Config("x".into()).node(), None);
    }

    /// One instance of every variant. The match inside forces a compile
    /// error when a variant is added, so the classification tests below
    /// can never silently go stale.
    fn all_variants() -> Vec<BgpError> {
        let all = vec![
            BgpError::Config("bad l3 size".into()),
            BgpError::Protocol(Context::new("stop without start").at_node(1).at_set(2)),
            BgpError::Corrupt(Context::new("bad checksum").at_offset(17)),
            BgpError::Io(std::io::Error::other("disk")),
            BgpError::Mpi("rank out of range".into()),
            BgpError::Timeout {
                node: 3,
                attempts: 2,
            },
            BgpError::NodeLost { node: 4 },
            BgpError::PartialData {
                node: 5,
                set: Some(6),
            },
        ];
        for e in &all {
            match e {
                BgpError::Config(_)
                | BgpError::Protocol(_)
                | BgpError::Corrupt(_)
                | BgpError::Io(_)
                | BgpError::Mpi(_)
                | BgpError::Timeout { .. }
                | BgpError::NodeLost { .. }
                | BgpError::PartialData { .. } => {}
            }
        }
        all
    }

    /// Every variant has exactly one classification, and the retryable
    /// set is precisely {Timeout, PartialData, Io}: transient collection
    /// failures. Everything else reproduces identically on retry.
    #[test]
    fn every_variant_is_classified() {
        for e in all_variants() {
            let expect = matches!(
                e,
                BgpError::Timeout { .. } | BgpError::PartialData { .. } | BgpError::Io(_)
            );
            assert_eq!(e.is_retryable(), expect, "misclassified: {e}");
        }
    }

    /// `context()` yields the structured context for exactly the
    /// variants that carry one, and the builder chain round-trips every
    /// field.
    #[test]
    fn context_accessor_covers_every_variant() {
        for e in all_variants() {
            match &e {
                BgpError::Protocol(c) | BgpError::Corrupt(c) => {
                    assert_eq!(e.context(), Some(c), "{e}");
                }
                _ => assert_eq!(e.context(), None, "{e}"),
            }
        }
        let c = Context::new("why").at_node(7).at_set(8).at_offset(9);
        assert_eq!(
            c,
            Context {
                reason: "why".into(),
                node: Some(7),
                set: Some(8),
                offset: Some(9)
            }
        );
        // From impls used by the `?`-adjacent call sites.
        assert_eq!(Context::from("s").reason, "s");
        assert_eq!(Context::from(String::from("t")).reason, "t");
        assert_eq!(Context::from("s").node, None);
    }

    /// Display of every variant names its key facts, and only `Io`
    /// exposes a `source()`.
    #[test]
    fn display_and_source_cover_every_variant() {
        use std::error::Error;
        for e in all_variants() {
            let s = e.to_string();
            assert!(!s.is_empty());
            match &e {
                BgpError::Config(_) => assert!(s.contains("configuration"), "{s}"),
                BgpError::Protocol(_) => {
                    assert!(s.contains("protocol") && s.contains("node 1"), "{s}");
                }
                BgpError::Corrupt(_) => {
                    assert!(s.contains("corrupt") && s.contains("offset 17"), "{s}");
                }
                BgpError::Io(_) => {
                    assert!(s.contains("i/o"), "{s}");
                    assert!(e.source().is_some(), "Io must chain its source");
                    continue;
                }
                BgpError::Mpi(_) => assert!(s.contains("mpi"), "{s}"),
                BgpError::Timeout { .. } => {
                    assert!(s.contains("node 3") && s.contains("2 attempt"), "{s}");
                }
                BgpError::NodeLost { .. } => assert!(s.contains("node 4"), "{s}"),
                BgpError::PartialData { .. } => {
                    assert!(s.contains("node 5") && s.contains("set 6"), "{s}");
                }
            }
            assert!(e.source().is_none(), "{e} should not chain a source");
        }
        // PartialData without an identified set prints no set clause.
        let s = BgpError::PartialData { node: 5, set: None }.to_string();
        assert!(!s.contains("set"), "{s}");
    }
}
