//! End-to-end acceptance of the fault pipeline: a seeded [`FaultPlan`]
//! with ≥5% node loss and ≥1% dump corruption on an MG run must flow
//! through resilient collection and degraded-mode aggregation without a
//! panic, report coverage below 1.0, and keep the mean metrics of the
//! reliable events within 10% of the fault-free run. The same seed must
//! reproduce the same fault schedule bit for bit.

use bgp::arch::events::{CounterMode, NUM_MODES};
use bgp::arch::OpMode;
use bgp::counters::collect::collect_dumps;
use bgp::counters::{run_instrumented, CounterLibrary, WHOLE_PROGRAM_SET};
use bgp::faults::{FaultPlan, FaultSpec};
use bgp::mpi::{CounterPolicy, JobSpec, Machine};
use bgp::nas::{Class, Kernel};
use bgp::postproc::{ddr_traffic_bytes_per_node, Frame};
use std::sync::Arc;

/// 64 VNM ranks → a 16-node partition: enough nodes that the planned
/// 10% loss rate actually loses somebody.
const RANKS: usize = 64;
const SEED: u64 = 0x2008_1C03;

fn hostile_spec() -> FaultSpec {
    FaultSpec {
        node_loss_rate: 0.10, // ≥ 5%
        straggler_rate: 0.10,
        straggler_penalty_cycles: 2_000,
        collection_timeout_rate: 0.15,
        counter_bitflip_rate: 0.05,
        counter_saturate_rate: 0.02,
        dump_truncate_rate: 0.02, // ≥ 1% dump corruption…
        dump_byteflip_rate: 0.02, // …and then some
        dump_missing_rate: 0.01,
        ..FaultSpec::none()
    }
}

/// Run MG class S under the given plan; returns the library + the
/// policy's per-mode node census.
fn run_mg(plan: Option<Arc<FaultPlan>>) -> (Arc<CounterLibrary>, [usize; NUM_MODES]) {
    let mut spec = JobSpec::new(RANKS, OpMode::VirtualNode);
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode2);
    spec.faults = plan;
    let census = spec.counter_policy.census(spec.nodes());
    let machine = Machine::new(spec);
    let (results, lib) = run_instrumented(&machine, move |ctx| Kernel::Mg.exec(Class::S, ctx));
    assert!(
        results.iter().all(|r| r.verified),
        "faults perturb timing and counters, never the numerics"
    );
    (lib, census)
}

#[test]
fn faulted_mg_degrades_gracefully_within_ten_percent() {
    // Fault-free baseline.
    let (lib, census) = run_mg(None);
    let nodes: usize = census.iter().sum();
    let dumps = lib.dumps().expect("fault-free run finalizes everywhere");
    let baseline = Frame::from_dumps(&dumps, WHOLE_PROGRAM_SET).expect("clean dumps");
    let clean_ddr = ddr_traffic_bytes_per_node(&baseline);
    assert!(clean_ddr > 0.0);

    // Same job under a hostile, seeded plan.
    let plan = Arc::new(FaultPlan::new(hostile_spec(), SEED, nodes));
    assert!(
        !plan.lost_nodes().is_empty(),
        "at 10% over {nodes} nodes this seed must lose at least one node"
    );
    let (lib, _) = run_mg(Some(Arc::clone(&plan)));
    let coll = collect_dumps(&lib, &plan);

    // Collection completed without panicking and reports honest losses.
    assert!(
        coll.coverage() < 1.0,
        "lost nodes must show up as coverage < 1"
    );
    assert!(!coll.failed_nodes().is_empty());
    assert_eq!(
        coll.dumps.len() + coll.failed_nodes().len(),
        nodes,
        "every node is accounted for, delivered or failed"
    );

    // Degraded aggregation over the survivors.
    let frame = Frame::from_survivors(&coll.dumps, WHOLE_PROGRAM_SET, census);
    assert!(frame.coverage() < 1.0);
    assert!(
        frame.coverage() >= 0.5,
        "10% loss must not wipe out aggregation (coverage {})",
        frame.coverage()
    );

    // Reliable-event metrics stay within 10% of the fault-free run.
    let faulted_ddr = ddr_traffic_bytes_per_node(&frame);
    let rel_err = (faulted_ddr - clean_ddr).abs() / clean_ddr;
    assert!(
        rel_err < 0.10,
        "degraded DDR traffic {faulted_ddr:.0} vs clean {clean_ddr:.0} \
         drifted {:.1}% (> 10%)",
        rel_err * 100.0
    );
}

#[test]
fn same_seed_reproduces_the_fault_schedule_bit_for_bit() {
    let a = FaultPlan::new(hostile_spec(), SEED, 16);
    let b = FaultPlan::new(hostile_spec(), SEED, 16);
    assert_eq!(
        a.schedule_bytes(),
        b.schedule_bytes(),
        "same seed, same schedule"
    );
    assert_eq!(a.lost_nodes(), b.lost_nodes());

    let c = FaultPlan::new(hostile_spec(), SEED + 1, 16);
    assert_ne!(
        a.schedule_bytes(),
        c.schedule_bytes(),
        "a different seed must reshuffle the schedule"
    );
}
