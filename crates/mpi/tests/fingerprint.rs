//! Pins the [`JobSpec::fingerprint`] contract the counter service's
//! cache keys depend on: every field that can change simulation
//! outcomes must move the fingerprint, and the three deliberately
//! cosmetic fields must **not** — `sim_threads` (wall-clock only),
//! `checkpoint` (capture only reads state), and `cycle_budget` (only
//! decides whether the job is killed). If a cosmetic field ever became
//! outcome-relevant without joining the fingerprint, the service would
//! serve stale bytes for live submissions; if an outcome-relevant
//! field ever left it, distinct experiments would collide on one cache
//! entry. Either direction is a silent-wrong-results bug, so the
//! exclusion list is pinned here as a test.

use bgp_arch::OpMode;
use bgp_faults::{FaultPlan, FaultSpec};
use bgp_mpi::machine::CheckpointConfig;
use bgp_mpi::JobSpec;
use bgp_trace::TraceConfig;
use std::sync::Arc;

fn base() -> JobSpec {
    JobSpec::new(8, OpMode::VirtualNode)
}

#[test]
fn cosmetic_fields_do_not_move_the_fingerprint() {
    let reference = base().fingerprint();

    let mut threads = base();
    threads.sim_threads = Some(16);
    assert_eq!(
        threads.fingerprint(),
        reference,
        "sim_threads is wall-clock only"
    );

    let mut budget = base();
    budget.cycle_budget = Some(1);
    assert_eq!(
        budget.fingerprint(),
        reference,
        "cycle_budget decides whether the job dies, never what it computes"
    );

    let mut checkpointed = base();
    checkpointed.checkpoint = Some(CheckpointConfig::new("/tmp/anywhere", 2));
    assert_eq!(
        checkpointed.fingerprint(),
        reference,
        "checkpoint capture only reads state; cadence and dir are cosmetic"
    );

    // All three at once, still the same experiment — this is exactly
    // why a killed-and-resumed bgpc-run records the same spec_hash as
    // an uninterrupted one, and why the service runs jobs with its own
    // sim_threads policy without forking the cache.
    let mut all = base();
    all.sim_threads = Some(3);
    all.cycle_budget = Some(u64::MAX);
    all.checkpoint = Some(CheckpointConfig::new("/tmp/elsewhere", 64));
    assert_eq!(all.fingerprint(), reference);
}

#[test]
fn outcome_relevant_fields_each_move_the_fingerprint() {
    let reference = base().fingerprint();

    let ranks = JobSpec::new(16, OpMode::VirtualNode);
    assert_ne!(ranks.fingerprint(), reference, "ranks");

    let mode = JobSpec::new(8, OpMode::Smp1);
    assert_ne!(mode.fingerprint(), reference, "operating mode");

    let mut quantum = base();
    quantum.quantum *= 2;
    assert_ne!(quantum.fingerprint(), reference, "scheduling quantum");

    let mut traced = base();
    traced.trace = Some(TraceConfig::default());
    assert_ne!(traced.fingerprint(), reference, "tracing perturbs counters");

    let mut faulted = base();
    let nodes = faulted.nodes();
    faulted.faults = Some(Arc::new(FaultPlan::new(
        FaultSpec {
            straggler_rate: 0.4,
            straggler_penalty_cycles: 800,
            ..FaultSpec::none()
        },
        1,
        nodes,
    )));
    assert_ne!(faulted.fingerprint(), reference, "fault plan");

    // The spec cannot hash the kernel closure itself, so the workload
    // *name* must stand in for it: MG and CG on identical hardware are
    // different experiments and must not share a cache key.
    let mut named = base();
    named.workload = Some("nas-mg-s".into());
    assert_ne!(named.fingerprint(), reference, "workload name");
    let mut other = base();
    other.workload = Some("nas-cg-s".into());
    assert_ne!(
        named.fingerprint(),
        other.fingerprint(),
        "distinct workloads"
    );
}

#[test]
fn fingerprint_is_stable_across_calls_and_identical_specs() {
    let a = base();
    let b = base();
    assert_eq!(a.fingerprint(), a.fingerprint());
    assert_eq!(a.fingerprint(), b.fingerprint());
}
