//! Minimal CSV emission — the paper's tools print "the relevant metrics
//! selected by the user … as a record for each application into .csv
//! files, which can be used with Microsoft Excel or Open office calc".

use crate::frame::Frame;
use std::fmt::Write as _;
use std::path::Path;

/// A growing CSV document with a fixed header.
#[derive(Clone, Debug)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Start a document with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Csv {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty());
        Csv {
            header,
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Csv {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the document has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to CSV text (RFC-4180-style quoting of commas/quotes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the document to a file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }
}

/// The "print the statistics of all counters" option: one row per
/// observed event with min/max/mean over nodes.
pub fn stats_csv(frame: &Frame) -> Csv {
    let mut csv = Csv::new(["event", "mnemonic", "min", "max", "mean", "sum", "nodes"]);
    for (ev, st) in frame.all_stats() {
        csv.row([
            ev.index().to_string(),
            ev.name(),
            st.min.to_string(),
            st.max.to_string(),
            format!("{:.3}", st.mean),
            st.sum.to_string(),
            st.nodes.to_string(),
        ]);
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::{CounterMode, NUM_COUNTERS};
    use bgp_core::dump::{NodeDump, SetDump};

    #[test]
    fn render_quotes_special_cells() {
        let mut c = Csv::new(["a", "b"]);
        c.row(["plain", "with,comma"]);
        c.row(["with\"quote", "x"]);
        let s = c.render();
        assert!(s.contains("\"with,comma\""));
        assert!(s.contains("\"with\"\"quote\""));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_are_rejected() {
        Csv::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn stats_csv_lists_every_observed_event() {
        let d = NodeDump {
            node: 0,
            mode: CounterMode::Mode0,
            sets: vec![SetDump {
                id: 0,
                records: 1,
                counts: vec![1; NUM_COUNTERS],
            }],
        };
        let f = Frame::from_dumps(&[d], 0).unwrap();
        let csv = stats_csv(&f);
        assert_eq!(csv.len(), NUM_COUNTERS);
        assert!(csv
            .render()
            .starts_with("event,mnemonic,min,max,mean,sum,nodes"));
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("bgp_csv_{}", std::process::id()));
        let path = dir.join("sub/out.csv");
        let mut c = Csv::new(["x"]);
        c.row(["1"]);
        c.write(&path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("x\n1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
