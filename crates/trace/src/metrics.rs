//! Per-phase metrics CSV exporter.
//!
//! Every phase resolution records a [`EventKind::PhaseResolve`] summary
//! in the scheduler stream; this module flattens those summaries into a
//! CSV time series — one row per resolved phase — mirroring the paper's
//! post-processing style (raw counters in, derived per-window metrics
//! out).

use crate::{EventKind, JobTrace};
use std::fmt::Write as _;

/// Column header of the per-phase metrics CSV.
pub(crate) const HEADER: &str = "phase,resolve_cycle,delivered_msgs,delivered_bytes,woken_ranks,collectives_completed,peak_link_bytes,links_loaded";

/// Render the per-phase metrics table for `trace`.
pub(crate) fn render(trace: &JobTrace) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for e in &trace.sched {
        if let EventKind::PhaseResolve {
            phase,
            delivered,
            delivered_bytes,
            woken,
            collectives,
            peak_link_bytes,
            links_loaded,
        } = &e.kind
        {
            let _ = writeln!(
                out,
                "{phase},{},{delivered},{delivered_bytes},{woken},{collectives},{peak_link_bytes},{links_loaded}",
                e.cycle
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RankTrace, TraceEvent};

    #[test]
    fn one_row_per_phase_resolve_in_order() {
        let sched = vec![
            TraceEvent {
                cycle: 500,
                kind: EventKind::MsgDeliver {
                    src: 0,
                    dst: 1,
                    tag: 0,
                    bytes: 8,
                    queue_cycles: 0,
                },
            },
            TraceEvent {
                cycle: 510,
                kind: EventKind::PhaseResolve {
                    phase: 0,
                    delivered: 1,
                    delivered_bytes: 8,
                    woken: 1,
                    collectives: 0,
                    peak_link_bytes: 8,
                    links_loaded: 1,
                },
            },
            TraceEvent {
                cycle: 900,
                kind: EventKind::PhaseResolve {
                    phase: 1,
                    delivered: 0,
                    delivered_bytes: 0,
                    woken: 4,
                    collectives: 1,
                    peak_link_bytes: 0,
                    links_loaded: 0,
                },
            },
        ];
        let trace = JobTrace {
            ranks: vec![RankTrace {
                rank: 0,
                node: 0,
                events: vec![],
                dropped: 0,
            }],
            sched,
            sched_dropped: 0,
        };
        let csv = render(&trace);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], HEADER);
        assert_eq!(lines[1], "0,510,1,8,1,0,8,1");
        assert_eq!(lines[2], "1,900,0,0,4,1,0,0");
        assert_eq!(lines.len(), 3, "non-resolve events contribute no rows");
    }
}
