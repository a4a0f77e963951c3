//! The crate's one **counter estimator**: per-node dumps in, the
//! min/max/mean statistics the paper's post-processing tools compute
//! over all nodes of a run (§IV) out, with the integrity checks it
//! describes ("checked based on the number of records and the length of
//! each record and also for the range of values").
//!
//! Every aggregation here is a weighted estimate over per-(node, mode)
//! observations of one set. An observation is a node's counter block
//! for one mode, counted during `occ` of the run's `total`, and its
//! estimate of a counter is `raw × total / occ`, rounded to nearest:
//!
//! * `Fixed` and `EvenOdd` dumps observe the set in their header mode
//!   for the whole run — weight 1 of 1, so the estimate is the raw count;
//! * `Multiplexed` dumps observe each mode's synthetic block for the
//!   partition-pooled share of the run given by [`mux_weights`];
//! * a lost or malformed node contributes no observation.
//!
//! [`Frame::from_dumps`] reduces the observations strictly: on a healthy
//! machine a missing set, a record-count mismatch or an overflowing sum
//! is an integrity bug, and aggregation fails naming the node.
//! [`Frame::from_survivors`] is the same reduction after faults, where
//! those are expected: it aggregates whatever arrived, measures each
//! event's coverage against the job's census, drops outlier node values
//! and events below the coverage floor, and says what it did through
//! [`Frame::anomalies`]. The validation report ([`crate::validate`])
//! reads its per-node estimates off the same observations.

use bgp_arch::error::{Context, Result};
use bgp_arch::events::{CounterMode, EventId, NUM_COUNTERS, NUM_EVENTS, NUM_MODES};
use bgp_arch::BgpError;
use bgp_core::dump::{mux_sched_id, mux_set_id, NodeDump};
use std::collections::HashMap;

/// Survivors path: an event observed by fewer than this fraction of the
/// nodes the census expects in its mode is dropped as unreliable.
const COVERAGE_FLOOR: f64 = 0.5;

/// Survivors path: with at least three observers, a node value above
/// `OUTLIER_FACTOR × median + OUTLIER_SLACK` (a flipped high bit, a
/// saturated counter) is dropped before the mean. The slack keeps tiny
/// medians from turning every small fluctuation into an outlier.
const OUTLIER_FACTOR: u64 = 8;
const OUTLIER_SLACK: u64 = 1024;

/// Node values at or above this are flagged as saturated: no real
/// counter of a finite run reaches 2^62.
const SATURATION_SUSPECT: u64 = 1 << 62;

/// Across-node statistics of one event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventStats {
    /// Smallest per-node value.
    pub min: u64,
    /// Largest per-node value.
    pub max: u64,
    /// Arithmetic mean over observing nodes.
    pub mean: f64,
    /// Sum over observing nodes.
    pub sum: u64,
    /// Number of nodes that observed the event (were in its mode).
    pub nodes: usize,
}

/// One (node, mode) observation of a set: the counter block a node
/// delivered for one mode, counted during `occ` of the run's `total`
/// (`occ > 0`).
#[derive(Clone, Copy)]
pub(crate) struct Obs<'a> {
    node: u32,
    pub(crate) mode: CounterMode,
    records: u32,
    counts: &'a [u64],
    occ: u64,
    total: u64,
}

impl Obs<'_> {
    /// Full-run estimate of counter `slot`: `raw × total / occ`, rounded
    /// to nearest and saturating at `u64::MAX`.
    pub(crate) fn estimate(&self, slot: usize) -> u64 {
        // A mode that observed the whole run (every `Source::Header`
        // observation) estimates its raw count: `(c·t + ⌊t/2⌋) / t = c`.
        if self.occ == self.total {
            return self.counts[slot];
        }
        let (occ, total) = (u128::from(self.occ), u128::from(self.total));
        let est = (u128::from(self.counts[slot]) * total + occ / 2) / occ;
        est.min(u128::from(u64::MAX)) as u64
    }

    /// Half-width of an estimate's error bar: `est` scaled by the share
    /// of the run the mode did *not* observe.
    pub(crate) fn error_bar(&self, est: u64) -> f64 {
        est as f64 * (1.0 - self.occ as f64 / self.total as f64)
    }
}

/// Where a dump's observations of a set come from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Source {
    /// The set itself, counted in the dump's header mode for the whole
    /// run: weight 1 of 1.
    Header,
    /// A `Multiplexed` run's per-mode synthetic sets, mode `m` weighted
    /// `w[m]` of `Σw` (see [`mux_weights`]).
    Mux([u64; NUM_MODES]),
}

impl Source {
    /// The multiplexed source of `set`, weighted by the partition-pooled
    /// schedule of `dumps`.
    pub(crate) fn pooled(dumps: &[NodeDump], set: u32) -> Source {
        Source::Mux(mux_weights(dumps, set).map_or([0; NUM_MODES], |(w, _)| w))
    }

    /// Append `d`'s observations of `set` to `out`. A header block that
    /// is missing or malformed is an `Err` naming the node. Multiplexed
    /// blocks that are missing, malformed or carry no weight are skipped:
    /// the node did not observe that mode.
    pub(crate) fn observe<'a>(
        self,
        d: &'a NodeDump,
        set: u32,
        out: &mut Vec<Obs<'a>>,
    ) -> Result<()> {
        let obs = |mode, records, counts, occ, total| Obs {
            node: d.node,
            mode,
            records,
            counts,
            occ,
            total,
        };
        match self {
            Source::Header => {
                let s = d.set(set).ok_or_else(|| {
                    BgpError::corrupt(format!("node {} is missing set {set}", d.node))
                })?;
                if s.counts.len() != NUM_COUNTERS {
                    return Err(BgpError::corrupt(format!(
                        "node {}: set {set} has {} counters (want {NUM_COUNTERS})",
                        d.node,
                        s.counts.len()
                    )));
                }
                out.push(obs(d.mode, s.records, &s.counts, 1, 1));
            }
            Source::Mux(w) => {
                let total = w.iter().sum();
                for (mode, &occ) in CounterMode::ALL.into_iter().zip(&w) {
                    let Some(s) = d.set(mux_set_id(set, mode.index())) else {
                        continue;
                    };
                    if occ > 0 && s.counts.len() == NUM_COUNTERS {
                        out.push(obs(mode, s.records, &s.counts, occ, total));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-mode weights a multiplexed run's reconstruction scales by,
/// pooled over the whole partition, with the basis they were taken from
/// (`"cycles"` or `"phases"`); `None` when no dump carries a multiplexed
/// block of `set`.
///
/// The weights are the schedule sets' enabled job cycles when those are
/// present and usable on every node, else the synthetic sets' phase
/// counts. Pooling matters because the rotation staggers across nodes:
/// at any phase the nodes occupy *different* modes, so the partition's
/// mode-`m` windows tile the program, and per-node extrapolation would
/// re-introduce the phase-structure bias the stagger exists to cancel.
/// A mode that occupied phases but accrued no cycles would zero-divide
/// the reconstruction, so any such mode (or any node missing its
/// schedule set) forces the phase fallback wholesale: mixing bases
/// would skew the grand total.
pub fn mux_weights(dumps: &[NodeDump], set: u32) -> Option<([u64; NUM_MODES], &'static str)> {
    let mut cycles = [0u64; NUM_MODES];
    let mut phases = [0u64; NUM_MODES];
    let mut multiplexed = false;
    let mut cycles_ok = true;
    for dump in dumps {
        for (m, p) in phases.iter_mut().enumerate() {
            if let Some(s) = dump.set(mux_set_id(set, m)) {
                multiplexed = true;
                *p += u64::from(s.records);
            }
        }
        match dump.set(mux_sched_id(set)) {
            Some(sched) => {
                for (c, &v) in cycles.iter_mut().zip(&sched.counts) {
                    *c += v;
                }
            }
            None => cycles_ok = false,
        }
    }
    let usable = cycles_ok
        && cycles.iter().sum::<u64>() > 0
        && (0..NUM_MODES).all(|m| phases[m] == 0 || cycles[m] > 0);
    multiplexed.then_some(if usable {
        (cycles, "cycles")
    } else {
        (phases, "phases")
    })
}

/// Each event's estimates over `obs`, indexed by [`EventId::index`], in
/// observation order.
fn values(obs: &[Obs]) -> Vec<Vec<u64>> {
    let mut per_event = vec![Vec::new(); NUM_EVENTS];
    for o in obs {
        for slot in 0..NUM_COUNTERS {
            per_event[EventId::new(o.mode, slot as u8).index()].push(o.estimate(slot));
        }
    }
    per_event
}

/// Aggregated view of one instrumentation set across all nodes.
#[derive(Clone, Debug)]
pub struct Frame {
    set: u32,
    /// Indexed by [`EventId::index`]; `None` for events no kept node
    /// observed.
    per_event: Vec<Option<EventStats>>,
    nodes_by_mode: [usize; NUM_MODES],
    records: u32,
    coverage: f64,
    /// Survivors-path complaints (losses, saturation, outliers, coverage).
    flags: Vec<String>,
}

impl Frame {
    /// Build a frame for `set` from per-node dumps, performing the
    /// paper's sanity checks. Every node must carry the set with the same
    /// record count, and no event's across-node sum may overflow.
    pub fn from_dumps(dumps: &[NodeDump], set: u32) -> Result<Frame> {
        let mut obs = Vec::with_capacity(dumps.len());
        for d in dumps {
            Source::Header.observe(d, set, &mut obs)?;
        }
        let first = obs
            .first()
            .ok_or_else(|| BgpError::corrupt("no dumps to aggregate"))?;
        let records = first.records;
        if let Some(o) = obs.iter().find(|o| o.records != records) {
            return Err(BgpError::corrupt(format!(
                "node {}: set {set} has {} records, others have {records}",
                o.node, o.records
            )));
        }
        let mut per_event: Vec<Option<EventStats>> = vec![None; NUM_EVENTS];
        for o in &obs {
            for slot in 0..NUM_COUNTERS {
                let ev = EventId::new(o.mode, slot as u8);
                let v = o.estimate(slot);
                let st = per_event[ev.index()].get_or_insert(EventStats {
                    min: v,
                    max: v,
                    mean: 0.0,
                    sum: 0,
                    nodes: 0,
                });
                st.sum = st.sum.checked_add(v).ok_or_else(|| {
                    let why = format!("{} overflows its across-node sum", ev.name());
                    BgpError::Corrupt(Context::new(why).at_node(o.node).at_set(set))
                })?;
                st.min = st.min.min(v);
                st.max = st.max.max(v);
                st.nodes += 1;
            }
        }
        for st in per_event.iter_mut().flatten() {
            st.mean = st.sum as f64 / st.nodes as f64;
        }
        Ok(Frame {
            set,
            per_event,
            nodes_by_mode: census_of(&obs),
            records,
            coverage: 1.0,
            flags: Vec::new(),
        })
    }

    /// Aggregate `set` over whatever `dumps` survived a faulted run,
    /// against the `census` of nodes the job's counter policy put in each
    /// mode (see `CounterPolicy::census`). Never fails: zero dumps is
    /// simply zero coverage.
    ///
    /// Nodes missing the set or carrying a malformed one contribute
    /// nothing, and record-count disagreements resolve to the most common
    /// value. Per event, outlier node values are dropped before the mean,
    /// and an event covered by fewer than half its expected nodes is left
    /// out. The sums of kept events are scaled to the surviving census,
    /// so per-node metrics stay comparable with a fault-free run.
    pub fn from_survivors(dumps: &[NodeDump], set: u32, census: [usize; NUM_MODES]) -> Frame {
        let mut obs = Vec::with_capacity(dumps.len());
        for d in dumps {
            // A rejected node contributes no observation.
            let _ = Source::Header.observe(d, set, &mut obs);
        }
        let mut votes: HashMap<u32, usize> = HashMap::new();
        for o in &obs {
            *votes.entry(o.records).or_insert(0) += 1;
        }
        let records = votes
            .into_iter()
            .max_by_key(|&(records, n)| (n, records))
            .map_or(0, |(records, _)| records);
        let nodes_by_mode = census_of(&obs);
        let expected: usize = census.iter().sum();
        let coverage = share(obs.len(), expected);
        let mut flags = Vec::new();
        if obs.len() < expected {
            flags.push(format!(
                "set {set}: only {} of {expected} expected nodes delivered data \
                 (coverage {coverage:.2})",
                obs.len()
            ));
        }
        let mut per_event = Vec::with_capacity(NUM_EVENTS);
        for (i, mut kept) in values(&obs).into_iter().enumerate() {
            let ev = EventId::from_index(i).expect("event index in range");
            let observers = kept.len();
            if let Some(&max) = kept.iter().max().filter(|&&m| m >= SATURATION_SUSPECT) {
                flags.push(format!(
                    "{}: value {max:#x} looks saturated/implausible",
                    ev.name()
                ));
            }
            if observers >= 3 {
                let mut sorted = kept.clone();
                sorted.sort_unstable();
                let cap = sorted[observers / 2]
                    .saturating_mul(OUTLIER_FACTOR)
                    .saturating_add(OUTLIER_SLACK);
                kept.retain(|&v| v <= cap);
            }
            if kept.len() < observers {
                flags.push(format!(
                    "{}: dropped {} outlier node value(s) before the mean",
                    ev.name(),
                    observers - kept.len()
                ));
            }
            let event_coverage = share(kept.len(), census[ev.mode().index()]);
            if !kept.is_empty() && event_coverage < COVERAGE_FLOOR {
                flags.push(format!(
                    "{}: coverage {event_coverage:.2} below floor {COVERAGE_FLOOR:.2} — unreliable",
                    ev.name()
                ));
                kept.clear();
            }
            let observed = nodes_by_mode[ev.mode().index()];
            let mean = kept.iter().map(|&v| v as f64).sum::<f64>() / kept.len() as f64;
            per_event.push(stats(
                &kept,
                mean,
                (mean * observed as f64).round() as u64,
                observed,
            ));
        }
        Frame {
            set,
            per_event,
            nodes_by_mode,
            records,
            coverage,
            flags,
        }
    }

    /// The set this frame aggregates.
    pub fn set(&self) -> u32 {
        self.set
    }

    /// Start/stop pairs accumulated into the set: identical across nodes
    /// on the strict path, the most common count among survivors (0 when
    /// nothing survived) otherwise.
    pub fn records(&self) -> u32 {
        self.records
    }

    /// How many nodes observed each counter mode.
    pub(crate) fn nodes_in_mode(&self, mode: CounterMode) -> usize {
        self.nodes_by_mode[mode.index()]
    }

    /// Delivering nodes over the expected census, across all modes: 1.0
    /// for a strict frame and for a fault-free run.
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// Statistics of one event, if any kept node observed it.
    pub fn stats(&self, ev: EventId) -> Option<&EventStats> {
        self.per_event[ev.index()].as_ref()
    }

    /// Sum of an event over all observing nodes (0 if unobserved).
    pub fn sum(&self, ev: EventId) -> u64 {
        self.stats(ev).map_or(0, |s| s.sum)
    }

    /// Mean of an event over observing nodes (0 if unobserved).
    pub fn mean(&self, ev: EventId) -> f64 {
        self.stats(ev).map_or(0.0, |s| s.mean)
    }

    /// All observed events with their statistics, sorted by event index
    /// (for the "print the statistics of all 512 counters" CSV option).
    pub fn all_stats(&self) -> Vec<(EventId, EventStats)> {
        (0..NUM_EVENTS)
            .filter_map(|i| Some((EventId::from_index(i)?, self.per_event[i]?)))
            .collect()
    }

    /// Range-style anomaly scan: human-readable complaints, sorted, for
    /// suspicious data — all-zero frames and wildly skewed per-node
    /// values of events that should be SPMD-symmetric; on the survivors
    /// path also lost nodes, saturated counters, dropped outliers and
    /// events below the coverage floor.
    pub fn anomalies(&self) -> Vec<String> {
        let mut out = self.flags.clone();
        if self.per_event.iter().flatten().all(|s| s.sum == 0) {
            out.push(format!("set {}: every counter is zero", self.set));
        }
        for (ev, st) in self.all_stats() {
            if st.nodes > 1 && st.min == 0 && st.max > 1_000_000 {
                out.push(format!(
                    "{}: node spread 0..{} looks asymmetric for an SPMD code",
                    ev.name(),
                    st.max
                ));
            }
        }
        out.sort();
        out
    }
}

/// Statistics of the `kept` values of one event; `None` when none were
/// kept.
fn stats(kept: &[u64], mean: f64, sum: u64, nodes: usize) -> Option<EventStats> {
    Some(EventStats {
        min: *kept.iter().min()?,
        max: *kept.iter().max()?,
        mean,
        sum,
        nodes,
    })
}

/// Observations per counter mode.
fn census_of(obs: &[Obs]) -> [usize; NUM_MODES] {
    let mut census = [0usize; NUM_MODES];
    for o in obs {
        census[o.mode.index()] += 1;
    }
    census
}

/// `part / whole`, capped at 1; 1.0 when nothing was expected.
fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        (part as f64 / whole as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_core::dump::SetDump;

    fn dump(node: u32, mode: CounterMode, fill: u64) -> NodeDump {
        NodeDump {
            node,
            mode,
            sets: vec![SetDump {
                id: 0,
                records: 1,
                counts: vec![fill; NUM_COUNTERS],
            }],
        }
    }

    /// All `nodes` expected in mode 2.
    fn mode2(nodes: usize) -> [usize; NUM_MODES] {
        [0, 0, nodes, 0]
    }

    #[test]
    fn min_max_mean_over_nodes() {
        let dumps = vec![
            dump(0, CounterMode::Mode2, 10),
            dump(1, CounterMode::Mode2, 30),
        ];
        let f = Frame::from_dumps(&dumps, 0).unwrap();
        let ev = EventId::new(CounterMode::Mode2, 5);
        let st = f.stats(ev).unwrap();
        assert_eq!((st.min, st.max, st.sum, st.nodes), (10, 30, 40, 2));
        assert!((st.mean - 20.0).abs() < 1e-12);
        assert_eq!(f.nodes_in_mode(CounterMode::Mode2), 2);
        assert_eq!(f.nodes_in_mode(CounterMode::Mode0), 0);
        assert_eq!(f.coverage(), 1.0);
    }

    #[test]
    fn mixed_modes_partition_the_event_space() {
        let dumps = vec![
            dump(0, CounterMode::Mode0, 7),
            dump(1, CounterMode::Mode1, 9),
        ];
        let f = Frame::from_dumps(&dumps, 0).unwrap();
        assert_eq!(f.sum(EventId::new(CounterMode::Mode0, 0)), 7);
        assert_eq!(f.sum(EventId::new(CounterMode::Mode1, 0)), 9);
        assert_eq!(f.sum(EventId::new(CounterMode::Mode2, 0)), 0);
        assert_eq!(f.all_stats().len(), 512, "two modes → 512 observed events");
    }

    #[test]
    fn missing_set_is_an_integrity_error() {
        let d0 = dump(0, CounterMode::Mode0, 1);
        let mut d1 = dump(1, CounterMode::Mode0, 1);
        d1.sets[0].id = 3;
        assert!(Frame::from_dumps(&[d0, d1], 0).is_err());
        assert!(Frame::from_dumps(&[], 0).is_err());
    }

    #[test]
    fn record_count_mismatch_is_an_integrity_error() {
        let d0 = dump(0, CounterMode::Mode0, 1);
        let mut d1 = dump(1, CounterMode::Mode0, 1);
        d1.sets[0].records = 2;
        assert!(Frame::from_dumps(&[d0, d1], 0).is_err());
    }

    #[test]
    fn overflowing_sum_is_an_integrity_error_naming_node_set_and_event() {
        let mut d0 = dump(0, CounterMode::Mode2, 1);
        let mut d1 = dump(7, CounterMode::Mode2, 1);
        d0.sets[0].counts[3] = u64::MAX;
        d1.sets[0].counts[3] = u64::MAX;
        let err = Frame::from_dumps(&[d0.clone(), d1], 0).unwrap_err();
        let ev = EventId::new(CounterMode::Mode2, 3);
        assert_eq!(err.node(), Some(7));
        let msg = err.to_string();
        assert!(msg.contains(&ev.name()) && msg.contains("set 0"), "{msg}");
        let f = Frame::from_dumps(&[d0, dump(1, CounterMode::Mode2, 0)], 0).unwrap();
        assert_eq!(f.sum(ev), u64::MAX, "one saturated value still sums");
    }

    #[test]
    fn anomaly_scan_flags_all_zero_and_asymmetric_data() {
        let f = Frame::from_dumps(&[dump(0, CounterMode::Mode0, 0)], 0).unwrap();
        assert!(f
            .anomalies()
            .iter()
            .any(|a| a.contains("every counter is zero")));

        let mut d1 = dump(1, CounterMode::Mode0, 0);
        d1.sets[0].counts[3] = 5_000_000;
        let f = Frame::from_dumps(&[dump(0, CounterMode::Mode0, 0), d1], 0).unwrap();
        assert!(f.anomalies().iter().any(|a| a.contains("asymmetric")));
    }

    #[test]
    fn full_survival_matches_strict_aggregation() {
        let dumps = vec![
            dump(0, CounterMode::Mode2, 10),
            dump(1, CounterMode::Mode2, 30),
        ];
        let d = Frame::from_survivors(&dumps, 0, mode2(2));
        let f = Frame::from_dumps(&dumps, 0).unwrap();
        assert_eq!(d.coverage(), 1.0);
        assert!(d.anomalies().is_empty());
        assert_eq!(d.all_stats(), f.all_stats());
        assert_eq!(d.nodes_in_mode(CounterMode::Mode2), 2);
    }

    #[test]
    fn missing_nodes_reduce_coverage_not_correctness() {
        // 4 expected, 3 delivered, one of them without the set.
        let mut no_set = dump(2, CounterMode::Mode2, 12);
        no_set.sets.clear();
        let dumps = vec![
            dump(0, CounterMode::Mode2, 12),
            dump(1, CounterMode::Mode2, 12),
            no_set,
            dump(3, CounterMode::Mode2, 12),
        ];
        let d = Frame::from_survivors(&dumps, 0, mode2(4));
        assert!((d.coverage() - 0.75).abs() < 1e-12);
        let st = d
            .stats(EventId::new(CounterMode::Mode2, 0))
            .expect("75% beats the floor");
        assert!((st.mean - 12.0).abs() < 1e-12, "mean unchanged by loss");
        assert_eq!((st.sum, st.nodes), (36, 3), "sum scaled to the survivors");
        assert!(d.anomalies().iter().any(|s| s.contains("3 of 4")));
    }

    #[test]
    fn coverage_floor_drops_unreliable_events() {
        let d = Frame::from_survivors(&[dump(0, CounterMode::Mode2, 5)], 0, mode2(4));
        assert!(
            d.stats(EventId::new(CounterMode::Mode2, 0)).is_none(),
            "25% < 50%"
        );
        assert!(d.all_stats().is_empty());
        let unreliable = d
            .anomalies()
            .iter()
            .filter(|s| s.contains("unreliable"))
            .count();
        assert_eq!(unreliable, NUM_COUNTERS);
    }

    #[test]
    fn bitflipped_outlier_is_dropped_from_the_mean() {
        let mut bad = dump(2, CounterMode::Mode2, 100);
        bad.sets[0].counts[7] = 100 + (1 << 55); // high-bit flip
        let dumps = vec![
            dump(0, CounterMode::Mode2, 100),
            dump(1, CounterMode::Mode2, 100),
            bad,
        ];
        let d = Frame::from_survivors(&dumps, 0, mode2(3));
        let st = d.stats(EventId::new(CounterMode::Mode2, 7)).unwrap();
        assert_eq!((st.max, st.sum), (100, 300), "mean survives the flip");
        assert!(d
            .anomalies()
            .iter()
            .any(|s| s.contains("dropped 1 outlier")));
    }

    #[test]
    fn saturated_counter_is_flagged() {
        // One of three saturated: the outlier rule drops it from the
        // mean, but the saturation is still reported.
        let mut bad = dump(0, CounterMode::Mode2, 50);
        bad.sets[0].counts[3] = u64::MAX;
        let dumps = vec![
            bad,
            dump(1, CounterMode::Mode2, 50),
            dump(2, CounterMode::Mode2, 50),
        ];
        let d = Frame::from_survivors(&dumps, 0, mode2(3));
        assert!(d.anomalies().iter().any(|s| s.contains("saturated")));
        let st = d.stats(EventId::new(CounterMode::Mode2, 3)).unwrap();
        assert_eq!((st.max, st.sum), (50, 150), "saturated value left out");
    }

    #[test]
    fn saturated_counter_is_flagged_not_summed() {
        let mut bad = dump(0, CounterMode::Mode2, 50);
        bad.sets[0].counts[3] = u64::MAX;
        let mut bad2 = dump(1, CounterMode::Mode2, 50);
        bad2.sets[0].counts[3] = u64::MAX;
        // Two of two saturated: no outlier rule, the strict path refuses,
        // the survivors path flags and saturates instead of wrapping.
        let dumps = vec![bad, bad2];
        assert!(Frame::from_dumps(&dumps, 0).is_err());
        let d = Frame::from_survivors(&dumps, 0, mode2(2));
        assert!(d.anomalies().iter().any(|s| s.contains("saturated")));
        assert_eq!(d.sum(EventId::new(CounterMode::Mode2, 3)), u64::MAX);
    }

    #[test]
    fn zero_dumps_is_zero_coverage_not_a_panic() {
        let d = Frame::from_survivors(&[], 0, mode2(4));
        assert_eq!((d.coverage(), d.records()), (0.0, 0));
        assert!(d.all_stats().is_empty());
        assert!(d.anomalies().iter().any(|s| s.contains("0 of 4")));
    }

    #[test]
    fn record_disagreements_resolve_to_the_mode() {
        let mut odd = dump(2, CounterMode::Mode2, 1);
        odd.sets[0].records = 9;
        let dumps = vec![
            dump(0, CounterMode::Mode2, 1),
            dump(1, CounterMode::Mode2, 1),
            odd,
        ];
        assert_eq!(Frame::from_survivors(&dumps, 0, mode2(3)).records(), 1);
    }

    #[test]
    fn observations_scale_by_their_share_of_the_run() {
        fn obs(counts: &[u64], occ: u64, total: u64) -> Obs<'_> {
            Obs {
                node: 0,
                mode: CounterMode::Mode0,
                records: 1,
                counts,
                occ,
                total,
            }
        }
        // 250 counts during the 1/4 of the run this mode occupied
        // extrapolate to the full run.
        assert_eq!(obs(&[250], 25, 100).estimate(0), 1000);
        assert_eq!(obs(&[0], 25, 100).estimate(0), 0);
        assert_eq!(obs(&[u64::MAX], 1, 4).estimate(0), u64::MAX, "saturates");
        // Full occupancy is exact with a zero bar.
        assert_eq!(obs(&[77], 1, 1).estimate(0), 77);
        assert_eq!(obs(&[77], 1, 1).error_bar(77), 0.0);
        assert!(obs(&[250], 25, 100).error_bar(1000) > 0.0);
    }

    #[test]
    fn full_occupancy_fast_path_equals_the_u128_formula() {
        let mut rng = bgp_arch::rng::SimRng::seed_from_u64(0x0cc);
        for _ in 0..10_000 {
            let t = 1 + rng.next_u64() % 1_000_000;
            let c = match rng.next_u64() % 3 {
                0 => rng.next_u64(),
                1 => u64::MAX - rng.next_u64() % 1024,
                _ => rng.next_u64() % 1_000_000,
            };
            let counts = [c];
            let mode = CounterMode::Mode0;
            let o = Obs {
                node: 0,
                mode,
                records: 1,
                counts: &counts,
                occ: t,
                total: t,
            };
            let (c, t) = (u128::from(c), u128::from(t));
            let formula = ((c * t + t / 2) / t).min(u128::from(u64::MAX)) as u64;
            assert_eq!(o.estimate(0), formula, "c = {c}, o = t = {t}");
        }
    }
}
