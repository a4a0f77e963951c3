//! **Resilient counter collection**: fetch every node's dump with
//! bounded retries, exponential backoff, and per-node fault isolation.
//!
//! On the real machine the I/O nodes gather compute-node dumps over the
//! collective network; nodes die, links wedge, requests time out. This
//! module models that gather against a [`FaultPlan`]: each node is
//! fetched independently, transient failures ([`BgpError::is_retryable`])
//! are retried up to [`MAX_ATTEMPTS`] times with doubling
//! backoff, and fatal failures (lost nodes, corrupt-beyond-salvage
//! dumps) are recorded without sinking the run. The result is a
//! [`Collection`]: the surviving dumps plus a per-node account of what
//! happened — exactly the input degraded-mode aggregation needs.

use crate::dump::{self, NodeDump};
use crate::CounterLibrary;
use bgp_arch::BgpError;
use bgp_faults::FaultPlan;

/// Maximum fetch attempts per node.
pub const MAX_ATTEMPTS: u32 = 4;

/// Backoff after the first failed attempt (cycles); doubles per
/// subsequent retry.
pub const BASE_BACKOFF_CYCLES: u64 = 10_000;

/// What collection ultimately got out of one node.
#[derive(Debug)]
pub enum NodeOutcome {
    /// Whole dump recovered, checksums clean.
    Intact,
    /// Dump recovered partially: some sets were quarantined.
    Partial {
        /// Sets whose checksums verified.
        recovered_sets: usize,
        /// Sets dropped as corrupt or cut off.
        quarantined_sets: usize,
    },
    /// Nothing usable; the final error after all permitted attempts.
    Failed(BgpError),
}

impl NodeOutcome {
    /// Whether any counter data survived from this node.
    pub fn delivered(&self) -> bool {
        !matches!(self, NodeOutcome::Failed(_))
    }
}

/// Per-node collection log.
#[derive(Debug)]
pub struct NodeReport {
    /// The node collected from.
    pub node: u32,
    /// Fetch attempts spent (≥ 1, except 0 for planned-lost nodes that
    /// were never tried).
    pub attempts: u32,
    /// Total backoff cycles burned waiting between attempts.
    pub backoff_cycles: u64,
    /// What came back.
    pub outcome: NodeOutcome,
}

/// Everything collection salvaged, plus the per-node accounting.
#[derive(Debug)]
pub struct Collection {
    /// Surviving dumps (quarantined sets already dropped), ordered by
    /// node id.
    pub dumps: Vec<NodeDump>,
    /// One report per node of the partition, ordered by node id.
    pub reports: Vec<NodeReport>,
}

impl Collection {
    /// Fraction of nodes that delivered any data, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.reports.is_empty() {
            return 1.0;
        }
        let ok = self.reports.iter().filter(|r| r.outcome.delivered()).count();
        ok as f64 / self.reports.len() as f64
    }

    /// Nodes that delivered nothing.
    pub fn failed_nodes(&self) -> Vec<u32> {
        self.reports
            .iter()
            .filter(|r| !r.outcome.delivered())
            .map(|r| r.node)
            .collect()
    }

    /// Total backoff cycles across all nodes (the price of retrying).
    pub fn total_backoff_cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.backoff_cycles).sum()
    }
}

/// Collect every node's dump from `lib`, under `plan`'s faults.
///
/// Per node:
/// 1. A planned-lost node fails immediately with [`BgpError::NodeLost`]
///    — fatal, never retried.
/// 2. Each fetch attempt may time out per the plan; timeouts are
///    retryable, so collection backs off (doubling from
///    [`BASE_BACKOFF_CYCLES`]) and tries again, up to [`MAX_ATTEMPTS`]
///    attempts.
/// 3. A fetched dump passes through the plan's dump fault (truncation,
///    byte flip, loss) and is decoded leniently: intact files and
///    partially salvaged files both count as delivered; only an
///    unusable header is fatal.
///
/// Never panics; a machine-wide disaster yields a `Collection` whose
/// `coverage()` is 0.
///
/// Nodes are fetched concurrently — like the I/O nodes gathering their
/// processing sets in parallel — and the results assembled in node-id
/// order, so the `Collection` is identical to a serial gather.
pub fn collect_dumps(lib: &CounterLibrary, plan: &FaultPlan) -> Collection {
    let n_nodes = plan.nodes();
    // One scoped worker per chunk of nodes, bounded by the host's
    // parallelism; each writes only its own result slots.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(n_nodes.max(1));
    let chunk = n_nodes.div_ceil(workers.max(1)).max(1);
    let mut results: Vec<Option<(NodeReport, Option<NodeDump>)>> = Vec::new();
    results.resize_with(n_nodes, || None);
    std::thread::scope(|s| {
        let mut rest = results.as_mut_slice();
        let mut node0 = 0u32;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let start = node0;
            s.spawn(move || {
                for (i, slot) in head.iter_mut().enumerate() {
                    *slot = Some(collect_node(lib, plan, start + i as u32));
                }
            });
            rest = tail;
            node0 += take as u32;
        }
    });
    let mut dumps = Vec::new();
    let mut reports = Vec::with_capacity(n_nodes);
    for slot in results {
        let (report, dump) = slot.expect("every node slot filled");
        if let Some(d) = dump {
            dumps.push(d);
        }
        reports.push(report);
    }
    Collection { dumps, reports }
}

/// Run the retry loop for one node; returns the report and, when data
/// survived, the salvaged dump.
fn collect_node(
    lib: &CounterLibrary,
    plan: &FaultPlan,
    node: u32,
) -> (NodeReport, Option<NodeDump>) {
    if plan.node_lost(node) {
        let report = NodeReport {
            node,
            attempts: 0,
            backoff_cycles: 0,
            outcome: NodeOutcome::Failed(BgpError::NodeLost { node }),
        };
        return (report, None);
    }
    let mut backoff_cycles = 0u64;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let err = match attempt_fetch(lib, plan, node, attempts - 1) {
            Ok((outcome, dump)) => {
                return (NodeReport { node, attempts, backoff_cycles, outcome }, Some(dump));
            }
            Err(e) => e,
        };
        // Retryable-vs-fatal classification is the error taxonomy's
        // job: timeouts and I/O hiccups earn another attempt, corrupt
        // data and lost nodes fail identically every time.
        if err.is_retryable() && attempts < MAX_ATTEMPTS {
            // Doubles per retry: base, 2 × base, 4 × base, ...
            backoff_cycles += BASE_BACKOFF_CYCLES << (attempts - 1);
            continue;
        }
        let report = NodeReport {
            node,
            attempts,
            backoff_cycles,
            outcome: NodeOutcome::Failed(err),
        };
        return (report, None);
    }
}

/// One fetch attempt: timeout check, fault application, lenient decode.
fn attempt_fetch(
    lib: &CounterLibrary,
    plan: &FaultPlan,
    node: u32,
    attempt: u32,
) -> Result<(NodeOutcome, NodeDump), BgpError> {
    if plan.collection_timeout(node, attempt) {
        return Err(BgpError::Timeout { node, attempts: attempt + 1 });
    }
    let bytes = lib
        .encoded_dump(node as usize)
        .ok_or(BgpError::NodeLost { node })?;
    let bytes = match plan.dump_fault(node) {
        Some(f) => f.apply(bytes).ok_or(BgpError::NodeLost { node })?,
        None => bytes,
    };
    let rec = dump::decode_lenient(&bytes)?;
    let outcome = if rec.is_intact() {
        NodeOutcome::Intact
    } else {
        NodeOutcome::Partial {
            recovered_sets: rec.sets.len(),
            quarantined_sets: rec.quarantined.len(),
        }
    };
    Ok((outcome, rec.into_dump()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CounterMode;
    use bgp_arch::OpMode;
    use bgp_faults::FaultSpec;
    use bgp_mpi::{CounterPolicy, JobSpec, Machine};
    use std::sync::Arc;

    fn run_with(plan: Option<Arc<FaultPlan>>, ranks: usize) -> Arc<CounterLibrary> {
        let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
        spec.faults = plan;
        let m = Machine::new(spec);
        let (_, lib) = crate::run_instrumented(&m, |mut ctx| async move {
            let mut v = ctx.alloc::<f64>(256);
            for i in 0..256 {
                ctx.st(&mut v, i, i as f64).await;
            }
            (ctx, ())
        });
        lib
    }

    #[test]
    fn fault_free_collection_is_full_coverage() {
        let plan = FaultPlan::inert(4);
        let lib = run_with(None, 16);
        let c = collect_dumps(&lib, &plan);
        assert_eq!(c.coverage(), 1.0);
        assert_eq!(c.dumps.len(), 4);
        assert!(c.failed_nodes().is_empty());
        assert!(c.reports.iter().all(|r| r.attempts == 1 && r.backoff_cycles == 0));
    }

    #[test]
    fn lost_nodes_fail_without_retries() {
        let spec = FaultSpec { node_loss_rate: 1.0, ..FaultSpec::none() };
        let plan = Arc::new(FaultPlan::new(spec, 3, 4));
        let lib = run_with(Some(Arc::clone(&plan)), 16);
        let c = collect_dumps(&lib, &plan);
        assert_eq!(c.coverage(), 0.0);
        assert_eq!(c.failed_nodes(), vec![0, 1, 2, 3]);
        for r in &c.reports {
            assert_eq!(r.attempts, 0, "lost nodes are never fetched");
            assert!(matches!(r.outcome, NodeOutcome::Failed(BgpError::NodeLost { .. })));
        }
    }

    #[test]
    fn timeouts_retry_with_exponential_backoff() {
        // 100% timeout rate: every attempt fails, exhausting the policy.
        let spec = FaultSpec { collection_timeout_rate: 1.0, ..FaultSpec::none() };
        let plan = Arc::new(FaultPlan::new(spec, 5, 1));
        let lib = run_with(Some(Arc::clone(&plan)), 4);
        let c = collect_dumps(&lib, &plan);
        assert_eq!(c.coverage(), 0.0);
        let r = &c.reports[0];
        assert_eq!(r.attempts, MAX_ATTEMPTS);
        // 1 + 2 + 4 base backoffs after attempts 1-3; none after the last.
        assert_eq!(r.backoff_cycles, 7 * BASE_BACKOFF_CYCLES);
        assert!(matches!(r.outcome, NodeOutcome::Failed(BgpError::Timeout { .. })));
    }

    #[test]
    fn moderate_timeouts_usually_recover_via_retry() {
        // ~30% per-attempt timeouts, 4 attempts: expected failure rate
        // per node ≈ 0.3^4 ≈ 0.81% — all 8 nodes should deliver.
        let spec = FaultSpec { collection_timeout_rate: 0.3, ..FaultSpec::none() };
        let plan = Arc::new(FaultPlan::new(spec, 7, 8));
        let lib = run_with(Some(Arc::clone(&plan)), 32);
        let c = collect_dumps(&lib, &plan);
        assert_eq!(c.coverage(), 1.0, "failed: {:?}", c.failed_nodes());
        // At least one node should have needed a retry at this rate.
        assert!(
            c.reports.iter().any(|r| r.attempts > 1),
            "expected some retries at 30% timeout rate"
        );
        assert!(c.total_backoff_cycles() > 0);
    }

    #[test]
    fn corrupted_dumps_degrade_to_partial_not_failed() {
        // Byte flips on every dump: most strike inside a set record and
        // quarantine just that set; header hits fail the node. Either
        // way collection completes and reports honestly.
        let spec = FaultSpec { dump_byteflip_rate: 1.0, ..FaultSpec::none() };
        let plan = Arc::new(FaultPlan::new(spec, 11, 8));
        let lib = run_with(Some(Arc::clone(&plan)), 32);
        let c = collect_dumps(&lib, &plan);
        let partial = c
            .reports
            .iter()
            .filter(|r| matches!(r.outcome, NodeOutcome::Partial { .. }))
            .count();
        assert!(partial > 0, "expected partial recoveries, got {:?}", c.reports);
        // Dumps list only contains delivered nodes.
        assert_eq!(
            c.dumps.len(),
            c.reports.iter().filter(|r| r.outcome.delivered()).count()
        );
    }
}
