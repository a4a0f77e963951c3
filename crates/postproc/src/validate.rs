//! Ground-truth **event validation**: cross-check every derivable
//! counter event against the simulator's independent bookkeeping.
//!
//! The simulator keeps ground truth the UPC unit never sees — per-core
//! `bgp_node::core::InstrCounts` and FPU class counts, node-level
//! `MemStats`, and the node's always-on mode-3 mirror — so every event
//! with an independent source can be checked three ways, each leg read
//! off the crate's one estimator ([`crate::frame`]):
//!
//! * **exact** — a `Fixed(mode)` run's counter value must equal the
//!   truth bit-for-bit (the 0%-error families),
//! * **multiplexed** — the rotation's occupancy-weighted reconstruction
//!   `est = raw × total_weight / weight(mode)` must land within a small
//!   relative error, with a per-event error bar of
//!   `est × (1 − weight/total)` (the un-observed fraction). Weights are
//!   the partition-pooled [`crate::frame::mux_weights`],
//! * **degraded** — a fault-injected run's values, reconstructed the same
//!   way and reported so the damage is visible next to the clean
//!   numbers. No outlier rule applies: the report exists to show it.
//!
//! Estimates are rounded per (node, event) before they are summed.
//! Truth entries are produced by the harness (`bgp-bench`, which can
//! reach into the machine) as [`TruthEntry`] lists per node; this module
//! owns the comparison and the report (CSV + JSON).

use crate::csv::Csv;
use crate::frame::Source;
use bgp_arch::events::{EventId, NUM_COUNTERS, NUM_MODES};
use bgp_core::dump::{mux_set_id, NodeDump};

/// One independently-derivable quantity on one node: the sum of the
/// listed events must equal `truth`. Single-event entries validate one
/// counter; multi-event entries validate a family whose truth only
/// exists in aggregate (e.g. the two L3 banks against `MemStats`).
#[derive(Clone, Debug)]
pub struct TruthEntry {
    /// Row label (event mnemonic, or a family name like `ddr_reads`).
    pub name: String,
    /// Flat 0–1023 event indices summed on the measured side.
    pub events: Vec<usize>,
    /// The independently-derived count.
    pub truth: u64,
}

/// All truth entries of one node.
#[derive(Clone, Debug)]
pub struct NodeTruth {
    /// Node id within the partition.
    pub node: u32,
    /// The node's checkable quantities.
    pub entries: Vec<TruthEntry>,
}

/// Relative error of `got` against `truth` (denominator floored at 1 so
/// a zero truth with a zero measurement reads as exact).
pub(crate) fn rel_err(got: u64, truth: u64) -> f64 {
    (got.abs_diff(truth)) as f64 / (truth.max(1)) as f64
}

/// One validated quantity, aggregated across all nodes.
#[derive(Clone, Debug)]
pub struct EventAccuracy {
    /// Row label.
    pub name: String,
    /// Ground truth, summed over nodes.
    pub truth: u64,
    /// Value from the exact `Fixed(mode)` runs, if those runs covered
    /// every event of the entry.
    pub exact: Option<u64>,
    /// Relative error of `exact`.
    pub exact_err: Option<f64>,
    /// Occupancy-weighted estimate from the multiplexed run.
    pub mux_est: Option<u64>,
    /// Relative error of `mux_est`.
    pub mux_err: Option<f64>,
    /// Half-width of the reconstruction error bar (absolute counts).
    pub mux_bar: f64,
    /// Estimate from the fault-degraded run, reconstructed the same way.
    pub degraded_est: Option<u64>,
    /// Relative error of `degraded_est`.
    pub degraded_err: Option<f64>,
}

/// Summary + per-event rows of one kernel's validation.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Kernel label (free-form, lands in the report header).
    pub label: String,
    /// Per-quantity rows, in truth-entry order.
    pub rows: Vec<EventAccuracy>,
    /// Rows whose truth meets `ValidationReport::MIN_TRUTH` (the
    /// population the median is taken over).
    pub significant: usize,
    /// Exact rows checked / exact rows that matched bit-for-bit.
    pub exact_checked: usize,
    /// Exact rows equal to truth.
    pub exact_matches: usize,
    /// Largest exact relative error (0.0 when everything matched).
    pub exact_max_err: f64,
    /// Median mux relative error over significant rows.
    pub mux_median_err: f64,
    /// Largest mux relative error over significant rows.
    pub mux_max_err: f64,
    /// Fraction of the 1024 events the rotation observed at least once
    /// (occupancy > 0 for their mode), averaged over nodes.
    pub coverage: f64,
}

impl ValidationReport {
    /// Truth floor for a row to join the median-error population: tiny
    /// counts make relative error meaningless (one phase of drift on a
    /// count of 3 reads as 33%).
    pub(crate) const MIN_TRUTH: u64 = 100;

    /// Build a report from per-node truth and the measured dumps.
    ///
    /// * `exact` — one dump set per counter mode, `exact[m]` from a
    ///   `Fixed(mode m)` run (slices may be empty when a mode was not
    ///   measured).
    /// * `mux` — dumps of a `Multiplexed` run (synthetic per-mode sets
    ///   present, see `bgp_core::dump::MUX_SET_BASE`).
    /// * `degraded` — optional dumps of a fault-injected multiplexed
    ///   run.
    /// * `set` — the user set to validate (whole-program runs use
    ///   [`bgp_core::WHOLE_PROGRAM_SET`]).
    pub fn build(
        label: &str,
        truth: &[NodeTruth],
        exact: &[Vec<NodeDump>; NUM_MODES],
        mux: &[NodeDump],
        degraded: Option<&[NodeDump]>,
        set: u32,
    ) -> ValidationReport {
        // A leg is a run's dumps and how they observe the set; the exact
        // leg's four `Fixed` runs observe one mode each.
        let exact_legs: Vec<Leg> = exact
            .iter()
            .map(|run| (run.as_slice(), Source::Header))
            .collect();
        let mux_leg = [(mux, Source::pooled(mux, set))];
        let deg_leg: Vec<Leg> = degraded
            .map(|d| (d, Source::pooled(d, set)))
            .into_iter()
            .collect();
        let mut rows: Vec<EventAccuracy> = Vec::new();
        for nt in truth {
            for entry in &nt.entries {
                let estimate = |legs: &[Leg]| node_estimate(entry, nt.node as usize, legs, set);
                let mux_v = estimate(&mux_leg);
                merge_row(
                    &mut rows,
                    entry,
                    estimate(&exact_legs).map(|(v, _)| v),
                    mux_v.map(|(v, _)| v),
                    mux_v.map_or(0.0, |(_, bar)| bar),
                    estimate(&deg_leg).map(|(v, _)| v),
                );
            }
        }
        for r in &mut rows {
            r.exact_err = r.exact.map(|x| rel_err(x, r.truth));
            r.mux_err = r.mux_est.map(|x| rel_err(x, r.truth));
            r.degraded_err = r.degraded_est.map(|x| rel_err(x, r.truth));
        }
        let mut report = ValidationReport {
            label: label.to_string(),
            significant: 0,
            exact_checked: 0,
            exact_matches: 0,
            exact_max_err: 0.0,
            mux_median_err: 0.0,
            mux_max_err: 0.0,
            coverage: coverage(mux, set),
            rows,
        };
        let mut mux_errs: Vec<f64> = Vec::new();
        for r in &report.rows {
            if let Some(e) = r.exact_err {
                report.exact_checked += 1;
                if e == 0.0 {
                    report.exact_matches += 1;
                }
                report.exact_max_err = report.exact_max_err.max(e);
            }
            if r.truth >= Self::MIN_TRUTH {
                report.significant += 1;
                // An unobserved event counts as a full miss, not a gap.
                let e = r.mux_err.unwrap_or(1.0);
                mux_errs.push(e);
                report.mux_max_err = report.mux_max_err.max(e);
            }
        }
        report.mux_median_err = median(&mut mux_errs);
        report
    }

    /// The exact-family acceptance: every checked row matched truth.
    pub fn exact_ok(&self) -> bool {
        self.exact_checked > 0 && self.exact_matches == self.exact_checked
    }

    /// Render the per-event accuracy table.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "event",
            "truth",
            "exact",
            "exact_err",
            "mux_est",
            "mux_err",
            "mux_bar",
            "degraded_est",
            "degraded_err",
        ]);
        for r in &self.rows {
            csv.row([
                r.name.clone(),
                r.truth.to_string(),
                opt_u64(r.exact),
                opt_err(r.exact_err),
                opt_u64(r.mux_est),
                opt_err(r.mux_err),
                format!("{:.1}", r.mux_bar),
                opt_u64(r.degraded_est),
                opt_err(r.degraded_err),
            ]);
        }
        csv
    }

    /// Render the report as a JSON object (summary + per-event rows).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"label\": \"{}\",\n", self.label));
        out.push_str(&format!("  \"rows\": {},\n", self.rows.len()));
        out.push_str(&format!("  \"significant\": {},\n", self.significant));
        out.push_str(&format!("  \"exact_checked\": {},\n", self.exact_checked));
        out.push_str(&format!("  \"exact_matches\": {},\n", self.exact_matches));
        out.push_str(&format!(
            "  \"exact_max_err\": {:.6},\n",
            self.exact_max_err
        ));
        out.push_str(&format!(
            "  \"mux_median_err\": {:.6},\n",
            self.mux_median_err
        ));
        out.push_str(&format!("  \"mux_max_err\": {:.6},\n", self.mux_max_err));
        out.push_str(&format!("  \"coverage\": {:.4},\n", self.coverage));
        out.push_str("  \"events\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"truth\": {}, \"exact\": {}, \"mux_est\": {}, \
                 \"mux_err\": {}, \"mux_bar\": {:.1}, \"degraded_est\": {}}}{}\n",
                r.name,
                r.truth,
                json_u64(r.exact),
                json_u64(r.mux_est),
                json_err(r.mux_err),
                r.mux_bar,
                json_u64(r.degraded_est),
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Dumps of one run and how they observe the validated set.
type Leg<'a> = (&'a [NodeDump], Source);

/// Node `node`'s estimate of an entry from its dumps in `legs` — the
/// entry's per-event estimates summed — and the summed error-bar
/// half-width. `None` when the node did not observe some event's mode.
fn node_estimate(entry: &TruthEntry, node: usize, legs: &[Leg], set: u32) -> Option<(u64, f64)> {
    let mut obs = Vec::new();
    for (dumps, source) in legs {
        if let Some(d) = dumps.get(node) {
            // A rejected block is simply not observed.
            let _ = source.observe(d, set, &mut obs);
        }
    }
    let mut total = 0u64;
    let mut bar = 0.0f64;
    for &e in &entry.events {
        let id = EventId::from_index(e)?;
        let o = obs.iter().find(|o| o.mode == id.mode())?;
        let est = o.estimate(id.slot().0 as usize);
        total = total.wrapping_add(est);
        bar += o.error_bar(est);
    }
    Some((total, bar))
}

/// Accumulate one node's entry into the cross-node row with its name.
fn merge_row(
    rows: &mut Vec<EventAccuracy>,
    entry: &TruthEntry,
    exact: Option<u64>,
    mux: Option<u64>,
    bar: f64,
    degraded: Option<u64>,
) {
    let row = match rows.iter_mut().find(|r| r.name == entry.name) {
        Some(r) => r,
        None => {
            rows.push(EventAccuracy {
                name: entry.name.clone(),
                truth: 0,
                exact: Some(0),
                exact_err: None,
                mux_est: Some(0),
                mux_err: None,
                mux_bar: 0.0,
                degraded_est: Some(0),
                degraded_err: None,
            });
            rows.last_mut().expect("just pushed")
        }
    };
    row.truth = row.truth.wrapping_add(entry.truth);
    row.exact = row.exact.zip(exact).map(|(a, b)| a.wrapping_add(b));
    row.mux_est = row.mux_est.zip(mux).map(|(a, b)| a.wrapping_add(b));
    row.mux_bar += bar;
    row.degraded_est = row
        .degraded_est
        .zip(degraded)
        .map(|(a, b)| a.wrapping_add(b));
}

/// Fraction of counter slots the rotation observed (mode occupancy > 0),
/// averaged over nodes. With any occupancy in all four modes this is
/// 1.0 — the rotation recovered full 1024-event coverage.
fn coverage(mux: &[NodeDump], set: u32) -> f64 {
    if mux.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for d in mux {
        let seen: usize = (0..NUM_MODES)
            .filter(|&m| d.set(mux_set_id(set, m)).is_some_and(|s| s.records > 0))
            .count();
        sum += (seen * NUM_COUNTERS) as f64 / (NUM_MODES * NUM_COUNTERS) as f64;
    }
    sum / mux.len() as f64
}

/// Median of `xs` (which is sorted in place); 0.0 when empty.
pub(crate) fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("errors are finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

fn opt_err(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.4}"))
}

fn json_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

fn json_err(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |v| format!("{v:.6}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CounterMode;
    use bgp_core::dump::{mux_sched_id, SetDump};

    fn dump_with(node: u32, mode: CounterMode, sets: Vec<SetDump>) -> NodeDump {
        NodeDump { node, mode, sets }
    }

    fn counts_with(slot: usize, v: u64) -> Vec<u64> {
        let mut c = vec![0u64; NUM_COUNTERS];
        c[slot] = v;
        c
    }

    #[test]
    fn report_checks_exact_and_reconstructed_values() {
        let ev = EventId::new(CounterMode::Mode0, 4).index();
        let truth = vec![NodeTruth {
            node: 0,
            entries: vec![TruthEntry {
                name: "load".into(),
                events: vec![ev],
                truth: 1000,
            }],
        }];
        // Exact mode-0 run saw precisely the truth.
        let exact: [Vec<NodeDump>; NUM_MODES] = [
            vec![dump_with(
                0,
                CounterMode::Mode0,
                vec![SetDump {
                    id: 0,
                    records: 1,
                    counts: counts_with(4, 1000),
                }],
            )],
            vec![],
            vec![],
            vec![],
        ];
        // Mux run without a schedule set: the phase fallback sees mode 0
        // occupy 5 of 20 phases with 240 counts — reconstructs to 960, a
        // 4% error.
        let mut sets = vec![SetDump {
            id: 0,
            records: 1,
            counts: vec![0; NUM_COUNTERS],
        }];
        for m in 0..NUM_MODES {
            sets.push(SetDump {
                id: mux_set_id(0, m),
                records: 5,
                counts: if m == 0 {
                    counts_with(4, 240)
                } else {
                    vec![0; NUM_COUNTERS]
                },
            });
        }
        let mux = vec![dump_with(0, CounterMode::Mode0, sets)];
        let report = ValidationReport::build("test", &truth, &exact, &mux, None, 0);
        assert_eq!(report.rows.len(), 1);
        let r = &report.rows[0];
        assert_eq!(r.exact, Some(1000));
        assert_eq!(r.exact_err, Some(0.0));
        assert_eq!(r.mux_est, Some(960));
        assert!(report.exact_ok());
        assert!((report.mux_median_err - 0.04).abs() < 1e-9);
        assert!((report.coverage - 1.0).abs() < 1e-9);
        let csv = report.to_csv().render();
        assert!(csv.contains("load,1000,1000,0.0000,960,0.0400"));
        let json = report.to_json();
        assert!(json.contains("\"exact_matches\": 1"));
        assert!(json.contains("\"mux_est\": 960"));
    }

    #[test]
    fn schedule_set_cycles_outweigh_phase_counts() {
        let ev = EventId::new(CounterMode::Mode0, 4).index();
        let truth = vec![NodeTruth {
            node: 0,
            entries: vec![TruthEntry {
                name: "load".into(),
                events: vec![ev],
                truth: 500,
            }],
        }];
        let exact: [Vec<NodeDump>; NUM_MODES] = [vec![], vec![], vec![], vec![]];
        // Equal phase counts, but mode 0's phases spanned half the job's
        // cycles: the schedule set must drive the weighting. Phase
        // weighting would read 240 × 20/5 = 960; cycle weighting reads
        // 240 × 1000/500 = 480.
        let mut sets = Vec::new();
        for m in 0..NUM_MODES {
            sets.push(SetDump {
                id: mux_set_id(0, m),
                records: 5,
                counts: if m == 0 {
                    counts_with(4, 240)
                } else {
                    vec![0; NUM_COUNTERS]
                },
            });
        }
        let mut sched = vec![0u64; NUM_COUNTERS];
        sched[..NUM_MODES].copy_from_slice(&[500, 300, 100, 100]);
        sched[NUM_MODES..2 * NUM_MODES].copy_from_slice(&[5, 5, 5, 5]);
        sets.push(SetDump {
            id: mux_sched_id(0),
            records: 1,
            counts: sched,
        });
        let mux = vec![dump_with(0, CounterMode::Mode0, sets)];
        let report = ValidationReport::build("test", &truth, &exact, &mux, None, 0);
        assert_eq!(report.rows[0].mux_est, Some(480));
        assert!((report.mux_median_err - 0.04).abs() < 1e-9);

        // A schedule set that starves an active mode of cycles falls
        // back to phase counts wholesale.
        let mut bad = mux.clone();
        let sched = bad[0]
            .sets
            .iter_mut()
            .find(|s| s.id == mux_sched_id(0))
            .expect("sched set");
        sched.counts[0] = 0;
        let report = ValidationReport::build("test", &truth, &exact, &bad, None, 0);
        assert_eq!(report.rows[0].mux_est, Some(960), "phase fallback");
    }

    #[test]
    fn family_entries_sum_events_and_unobserved_modes_count_as_misses() {
        let e0 = EventId::new(CounterMode::Mode2, 8).index(); // DdrRead0
        let e1 = EventId::new(CounterMode::Mode2, 9).index(); // DdrRead1
        let truth = vec![NodeTruth {
            node: 0,
            entries: vec![TruthEntry {
                name: "ddr_reads".into(),
                events: vec![e0, e1],
                truth: 500,
            }],
        }];
        let exact: [Vec<NodeDump>; NUM_MODES] = [vec![], vec![], vec![], vec![]];
        // Mode 2 never occupied a phase: the event was never observed.
        let mut sets = Vec::new();
        for m in 0..NUM_MODES {
            sets.push(SetDump {
                id: mux_set_id(0, m),
                records: if m == 2 { 0 } else { 4 },
                counts: vec![0; NUM_COUNTERS],
            });
        }
        let mux = vec![dump_with(0, CounterMode::Mode0, sets)];
        let report = ValidationReport::build("test", &truth, &exact, &mux, None, 0);
        let r = &report.rows[0];
        assert_eq!(r.exact, None, "no exact runs supplied");
        assert_eq!(r.mux_est, None, "unobserved mode");
        assert_eq!(report.exact_checked, 0);
        assert!(!report.exact_ok());
        assert_eq!(
            report.mux_median_err, 1.0,
            "unobserved significant row is a full miss"
        );
        assert!(report.coverage < 1.0);
    }
}
