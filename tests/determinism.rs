//! Determinism suite for the phase-based parallel execution engine.
//!
//! The engine's contract: per-node binary dumps are **byte-identical**
//! to a serial run for every seed and thread count, because all
//! cross-node effects (message delivery, link contention, collective
//! completion) are resolved at phase boundaries in canonical rank
//! order. These tests compare `encoded_dump` bytes — not decoded
//! counters — so even an encoding-order wobble fails.
//!
//! A modest matrix runs on every `cargo test`; the full sweep the
//! issue calls for (threads {1,2,4,8} × 5 seeds × {MG, CG, IS}) is
//! `#[ignore]`d so CI can opt in with `-- --ignored`.

use bgp::arch::OpMode;
use bgp::counters::run_instrumented;
use bgp::faults::{FaultPlan, FaultSpec};
use bgp::nas::{Class, Kernel};
use bgp::trace::TraceConfig;
use bgp::{JobSpec, Machine};
use std::sync::Arc;

/// Fault plan that perturbs *timing* (stragglers, slow links) without
/// corrupting counters — the adversarial case for phase merging: rank
/// finish order varies wildly, dumps must not.
fn timing_faults(seed: u64, nodes: usize) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(
        FaultSpec {
            straggler_rate: 0.5,
            straggler_penalty_cycles: 5_000,
            link_degrade_rate: 0.5,
            link_slowdown: 3,
            ..Default::default()
        },
        seed,
        nodes,
    ))
}

/// Run `kernel` on `ranks` VNM ranks with `threads` simulation threads
/// and return every node's encoded dump plus the simulated job cycles.
fn run(kernel: Kernel, ranks: usize, threads: usize, seed: u64) -> (Vec<Vec<u8>>, u64) {
    let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
    spec.sim_threads = Some(threads);
    spec.faults = Some(timing_faults(seed, spec.nodes()));
    let machine = Machine::new(spec);
    let (out, lib) = run_instrumented(&machine, move |ctx| kernel.exec(Class::S, ctx));
    assert!(
        out.iter().all(|r| r.verified),
        "{kernel} failed verification"
    );
    let dumps = (0..machine.num_nodes())
        .map(|n| lib.encoded_dump(n).expect("node finalized"))
        .collect();
    (dumps, machine.job_cycles())
}

fn assert_thread_invariant(kernel: Kernel, ranks: usize, threads: &[usize], seeds: &[u64]) {
    for &seed in seeds {
        let (serial, serial_cycles) = run(kernel, ranks, 1, seed);
        for &t in threads {
            let (par, par_cycles) = run(kernel, ranks, t, seed);
            assert_eq!(
                serial_cycles, par_cycles,
                "{kernel} seed {seed}: job cycles differ at {t} threads"
            );
            assert_eq!(
                serial, par,
                "{kernel} seed {seed}: dumps not byte-identical at {t} threads"
            );
        }
    }
}

#[test]
fn mg_dumps_are_thread_count_invariant() {
    assert_thread_invariant(Kernel::Mg, 8, &[4], &[1, 42]);
}

#[test]
fn cg_dumps_are_thread_count_invariant() {
    assert_thread_invariant(Kernel::Cg, 8, &[4], &[1, 42]);
}

#[test]
fn is_dumps_are_thread_count_invariant() {
    assert_thread_invariant(Kernel::Is, 8, &[4], &[1, 42]);
}

/// The issue's full acceptance matrix: {1,2,4,8} threads × 5 seeds ×
/// {MG, CG, IS}. Run with `cargo test --test determinism -- --ignored`.
#[test]
#[ignore = "full sweep is slow; CI opts in with -- --ignored"]
fn full_matrix_dumps_are_thread_count_invariant() {
    for kernel in [Kernel::Mg, Kernel::Cg, Kernel::Is] {
        assert_thread_invariant(kernel, 8, &[2, 4, 8], &[1, 7, 42, 1234, 987654321]);
    }
}

/// Like [`run`] but under the adaptive multiplexing policy: the
/// rotation scheduler (interrupt-driven dwell extensions, derivative
/// phase detector, per-node stagger) runs at every phase boundary, so
/// any thread-count dependence in its inputs shows up as a dump
/// mismatch.
fn run_mux(kernel: Kernel, ranks: usize, threads: usize, seed: u64) -> (Vec<Vec<u8>>, u64) {
    use bgp::arch::events::CounterMode;
    let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
    spec.counter_policy = bgp::mpi::CounterPolicy::Multiplexed {
        first: CounterMode::Mode0,
        base_dwell: 4,
    };
    spec.sim_threads = Some(threads);
    spec.faults = Some(timing_faults(seed, spec.nodes()));
    let machine = Machine::new(spec);
    let (out, lib) = run_instrumented(&machine, move |ctx| kernel.exec(Class::S, ctx));
    assert!(
        out.iter().all(|r| r.verified),
        "{kernel} failed verification"
    );
    let dumps = (0..machine.num_nodes())
        .map(|n| lib.encoded_dump(n).expect("node finalized"))
        .collect();
    (dumps, machine.job_cycles())
}

/// The validation suite's determinism claim in miniature: multiplexed
/// dumps (per-mode synthetic sets, schedule sets and all) are
/// byte-identical across `BGP_SIM_THREADS` ∈ {1, 4} × 2 seeds, under
/// timing faults.
#[test]
fn multiplexed_dumps_are_thread_count_invariant() {
    for seed in [1, 42] {
        let (serial, serial_cycles) = run_mux(Kernel::Mg, 8, 1, seed);
        let (par, par_cycles) = run_mux(Kernel::Mg, 8, 4, seed);
        assert_eq!(serial_cycles, par_cycles, "seed {seed}: job cycles differ");
        assert_eq!(serial, par, "seed {seed}: mux dumps not byte-identical");
    }
}

/// Multiplexed arm of the full matrix. Run with
/// `cargo test --test determinism -- --ignored`.
#[test]
#[ignore = "full sweep is slow; CI opts in with -- --ignored"]
fn full_matrix_multiplexed_dumps_are_thread_count_invariant() {
    for kernel in [Kernel::Mg, Kernel::Cg] {
        for seed in [1, 7] {
            let (serial, serial_cycles) = run_mux(kernel, 8, 1, seed);
            for threads in [2, 4, 8] {
                let (par, par_cycles) = run_mux(kernel, 8, threads, seed);
                assert_eq!(
                    serial_cycles, par_cycles,
                    "{kernel} seed {seed}: job cycles differ at {threads} threads"
                );
                assert_eq!(
                    serial, par,
                    "{kernel} seed {seed}: mux dumps not byte-identical at {threads} threads"
                );
            }
        }
    }
}

/// Run a *traced* job and return the rendered Chrome-trace JSON plus
/// the per-phase metrics CSV — the two export surfaces whose bytes the
/// tracing layer promises are thread-count invariant.
fn run_traced(
    kernel: Kernel,
    class: Class,
    ranks: usize,
    threads: usize,
    seed: u64,
) -> (String, String) {
    let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
    spec.sim_threads = Some(threads);
    spec.faults = Some(timing_faults(seed, spec.nodes()));
    spec.trace = Some(TraceConfig {
        sample_every: 8,
        sample_slots: vec![0, 1, 2],
        ..Default::default()
    });
    let machine = Machine::new(spec);
    let (out, _lib) = run_instrumented(&machine, move |ctx| kernel.exec(class, ctx));
    assert!(
        out.iter().all(|r| r.verified),
        "{kernel} failed verification"
    );
    let trace = machine.job_trace().expect("tracing enabled");
    assert!(trace.total_events() > 0, "traced run recorded nothing");
    (trace.chrome_json(), trace.phase_metrics_csv())
}

fn assert_trace_thread_invariant(kernel: Kernel, class: Class, ranks: usize, seeds: &[u64]) {
    for &seed in seeds {
        let serial = run_traced(kernel, class, ranks, 1, seed);
        let par = run_traced(kernel, class, ranks, 4, seed);
        assert_eq!(
            serial.0, par.0,
            "{kernel} seed {seed}: chrome trace not byte-identical at 4 threads"
        );
        assert_eq!(
            serial.1, par.1,
            "{kernel} seed {seed}: phase metrics not byte-identical at 4 threads"
        );
    }
}

/// Trace byte-identity under timing faults: every timestamp in the
/// trace comes from simulated cycle clocks, so the rendered timeline
/// and metrics must not depend on `BGP_SIM_THREADS`.
#[test]
fn mg_traces_are_thread_count_invariant() {
    assert_trace_thread_invariant(Kernel::Mg, Class::S, 8, &[1, 42]);
}

/// The issue's acceptance configuration — MG class A on 16 ranks,
/// serial vs. 4 threads, 3 seeds. Run with
/// `cargo test --test determinism -- --ignored`.
#[test]
#[ignore = "class A is slow; CI opts in with -- --ignored"]
fn mg_class_a_traces_are_thread_count_invariant() {
    assert_trace_thread_invariant(Kernel::Mg, Class::A, 16, &[1, 7, 42]);
}

/// Like [`run_traced`] but under the multiplexing policy, so the trace
/// carries the rotation's scheduler events (`counter_rotate`,
/// `threshold_interrupt`) alongside the usual phase records.
fn run_traced_mux(kernel: Kernel, ranks: usize, threads: usize, seed: u64) -> String {
    use bgp::arch::events::CounterMode;
    let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
    spec.counter_policy = bgp::mpi::CounterPolicy::Multiplexed {
        first: CounterMode::Mode0,
        base_dwell: 4,
    };
    spec.sim_threads = Some(threads);
    spec.faults = Some(timing_faults(seed, spec.nodes()));
    spec.trace = Some(TraceConfig::default());
    let machine = Machine::new(spec);
    let (out, _lib) = run_instrumented(&machine, move |ctx| kernel.exec(Class::S, ctx));
    assert!(
        out.iter().all(|r| r.verified),
        "{kernel} failed verification"
    );
    machine.job_trace().expect("tracing enabled").chrome_json()
}

/// Threshold interrupts are recorded in the trace at phase resolution
/// in canonical node order, so the rendered timeline of a multiplexed
/// run is byte-identical across thread counts — and actually contains
/// the interrupt events (a trace that dropped them would also pass a
/// bare equality check).
#[test]
fn multiplexed_traces_are_thread_count_invariant_and_record_interrupts() {
    let serial = run_traced_mux(Kernel::Mg, 8, 1, 42);
    let par = run_traced_mux(Kernel::Mg, 8, 4, 42);
    assert_eq!(
        serial, par,
        "mux chrome trace not byte-identical at 4 threads"
    );
    assert!(
        serial.contains("threshold_interrupt"),
        "trace records no threshold interrupts"
    );
    assert!(
        serial.contains("counter_rotate"),
        "trace records no rotations"
    );
}

/// Cheap probe for the large-rank smoke: a few FP events, one global
/// collective and a barrier per rank — the multiplexed runtime at
/// thousands of ranks without NAS-sized per-rank state.
async fn probe_rank(mut ctx: bgp::RankCtx) -> (bgp::RankCtx, bool) {
    use bgp::mpi::SemOp;
    for _ in 0..8 {
        ctx.fp1(SemOp::MulAdd);
    }
    let n = ctx.size() as f64;
    let sum = ctx.allreduce_sum_f64(&[ctx.rank() as f64]).await;
    ctx.barrier().await;
    let ok = sum[0] == n * (n - 1.0) / 2.0;
    (ctx, ok)
}

fn run_probe(ranks: usize, threads: usize, seed: u64) -> (Vec<Vec<u8>>, u64) {
    let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
    spec.sim_threads = Some(threads);
    spec.faults = Some(timing_faults(seed, spec.nodes()));
    let machine = Machine::new(spec);
    let (out, lib) = run_instrumented(&machine, probe_rank);
    assert!(out.iter().all(|&ok| ok), "probe rank-sum failed");
    let dumps = (0..machine.num_nodes())
        .map(|n| lib.encoded_dump(n).expect("node finalized"))
        .collect();
    (dumps, machine.job_cycles())
}

/// The large-rank smoke: 4,096 VNM ranks (1,024 nodes), every rank a
/// resumable state machine over the fixed worker pool, byte-identical
/// dumps across `BGP_SIM_THREADS` ∈ {1, 4} under timing faults.
#[test]
fn large_rank_dumps_are_thread_count_invariant() {
    let (serial, serial_cycles) = run_probe(4096, 1, 42);
    let (par, par_cycles) = run_probe(4096, 4, 42);
    assert_eq!(serial_cycles, par_cycles, "job cycles differ at 4 threads");
    assert_eq!(serial.len(), 1024);
    assert_eq!(serial, par, "dumps not byte-identical at 4 threads");
}

/// Fan-in: every rank but 0 sends rank 0 three tagged messages, which
/// rank 0 takes with a wildcard source. Same-node senders rotate at every
/// send and workers on different nodes push concurrently, so the phase
/// outbox holds the sends interleaved; returns what rank 0 received, as
/// (sender, sequence number) pairs.
async fn fan_in_rank(mut ctx: bgp::RankCtx) -> (bgp::RankCtx, Vec<(u8, u8)>) {
    const TAG: u32 = 7;
    let mut got = Vec::new();
    if ctx.rank() == 0 {
        for _ in 0..3 * (ctx.size() - 1) {
            let m = ctx.recv(None, TAG).await;
            got.push((m[0], m[1]));
        }
    } else {
        for seq in 0..3u8 {
            ctx.fp1(bgp::mpi::SemOp::Add);
            let msg = vec![ctx.rank() as u8, seq];
            ctx.send(0, TAG, msg).await;
        }
    }
    ctx.barrier().await;
    (ctx, got)
}

fn run_fan_in(threads: usize) -> (Vec<(u8, u8)>, Vec<Vec<u8>>) {
    let mut spec = JobSpec::new(16, OpMode::VirtualNode);
    spec.sim_threads = Some(threads);
    let machine = Machine::new(spec);
    let (mut out, lib) = run_instrumented(&machine, fan_in_rank);
    let dumps = (0..machine.num_nodes())
        .map(|n| lib.encoded_dump(n).expect("node finalized"))
        .collect();
    (out.swap_remove(0), dumps)
}

/// Messages reach their receiver in (sender rank, send order), however
/// the senders' pushes interleaved, and the dumps are byte-identical
/// across thread counts.
#[test]
fn fan_in_delivers_in_sender_rank_and_send_order() {
    let want: Vec<(u8, u8)> = (1..16u8)
        .flat_map(|src| (0..3u8).map(move |seq| (src, seq)))
        .collect();
    let (serial_order, serial) = run_fan_in(1);
    assert_eq!(
        serial_order, want,
        "1 thread: delivery out of canonical order"
    );
    let (par_order, par) = run_fan_in(4);
    assert_eq!(
        par_order, want,
        "4 threads: delivery out of canonical order"
    );
    assert_eq!(serial, par, "dumps not byte-identical at 4 threads");
}

/// Stress test for the phase-merge path (loom is not available in this
/// workspace, so we substitute repetition): the same faulted job runs
/// many times at the maximum thread count, where OS scheduling shuffles
/// the frontier's completion order every time. Any racy merge —
/// delivery order, link-queue accounting, collective reduction order —
/// shows up as a dump mismatch across repetitions.
#[test]
fn phase_merge_is_schedule_invariant_under_faults() {
    let (reference, ref_cycles) = run(Kernel::Cg, 8, 1, 42);
    for rep in 0..8 {
        let (par, cycles) = run(Kernel::Cg, 8, 8, 42);
        assert_eq!(ref_cycles, cycles, "rep {rep}: job cycles diverged");
        assert_eq!(
            reference, par,
            "rep {rep}: phase merge was schedule-dependent"
        );
    }
}
