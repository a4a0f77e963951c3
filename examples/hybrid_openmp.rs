//! Hybrid MPI+OpenMP — the paper's §IX outlook ("we are also curious to
//! see the performance of using OpenMP with MPI on the multicore nodes").
//!
//! ```text
//! cargo run --release --example hybrid_openmp
//! ```
//!
//! The same total work (a 3-D Jacobi relaxation) runs three ways on two
//! simulated nodes:
//!
//! * **VNM**      — 8 single-threaded MPI ranks (4 per node),
//! * **Dual**     — 4 MPI ranks × 2 OpenMP threads,
//! * **SMP/4**    — 2 MPI ranks × 4 OpenMP threads,
//!
//! and reports per-node execution time and the DDR traffic of each
//! configuration.

use bgp::arch::events::CounterMode;
use bgp::arch::OpMode;
use bgp::counters::{run_instrumented, WHOLE_PROGRAM_SET};
use bgp::mpi::{CounterPolicy, JobSpec, Machine, RankCtx, SemOp};
use bgp::postproc::{ddr_traffic_bytes_per_node, Frame};

/// Per-*node* problem volume: each configuration splits the same number
/// of grid points across its ranks/threads.
const POINTS_PER_NODE: usize = 1 << 17; // 128 Ki points ≈ 3 MB of state
const SWEEPS: usize = 10;

async fn jacobi(mut ctx: RankCtx, points_per_rank: usize) -> (RankCtx, ()) {
    let n = points_per_rank;
    let mut u = ctx.alloc::<f64>(n);
    let mut v = ctx.alloc::<f64>(n);
    for i in 0..n {
        ctx.st(&mut u, i, (i % 97) as f64).await;
    }
    for _ in 0..SWEEPS {
        // Threads split the sweep; each works on its own contiguous
        // stripe through its own core's L1/L2.
        for (t, range) in ctx.omp_chunks(n) {
            ctx.set_thread(t);
            for i in range {
                let um = if i > 0 { ctx.ld(&u, i - 1).await } else { 0.0 };
                let u0 = ctx.ld(&u, i).await;
                let up = if i + 1 < n {
                    ctx.ld(&u, i + 1).await
                } else {
                    0.0
                };
                if i % 2 == 0 {
                    let plan = ctx.plan_pair(true);
                    ctx.fp_pair(plan, SemOp::Add);
                    ctx.fp_pair(plan, SemOp::MulAdd);
                }
                ctx.st(&mut v, i, (um + up + 2.0 * u0) * 0.25).await;
            }
            ctx.overhead((n / ctx.threads()) as u64);
        }
        ctx.omp_join();
        std::mem::swap(&mut u, &mut v);
        // Rank-level sync each sweep, like a halo exchange would impose.
        ctx.barrier().await;
    }
    // Sanity: values stay bounded (the operator averages).
    assert!(u.raw(n / 2).is_finite());
    (ctx, ())
}

fn main() {
    println!(
        "{:<22} {:>6} {:>8} {:>14} {:>16}",
        "configuration", "ranks", "threads", "node cycles", "ddr MB/node"
    );
    for (label, mode, ranks) in [
        ("VNM (4 ranks/node)", OpMode::VirtualNode, 8usize),
        ("Dual (2r x 2t /node)", OpMode::Dual, 4),
        ("SMP/4 (1r x 4t /node)", OpMode::Smp4, 2),
    ] {
        let mut spec = JobSpec::new(ranks, mode);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode2);
        let machine = Machine::new(spec);
        assert_eq!(machine.num_nodes(), 2);
        let ppn = mode.processes_per_node();
        let points_per_rank = POINTS_PER_NODE / ppn;
        let (_, lib) = run_instrumented(&machine, move |ctx| jacobi(ctx, points_per_rank));
        let frame =
            Frame::from_dumps(&lib.dumps().expect("dumps"), WHOLE_PROGRAM_SET).expect("aggregate");
        println!(
            "{:<22} {:>6} {:>8} {:>14} {:>16.2}",
            label,
            ranks,
            mode.threads_per_process(),
            machine.job_cycles(),
            ddr_traffic_bytes_per_node(&frame) / 1e6,
        );
    }
    println!("\nAll three keep every core busy; the differences come from rank-level");
    println!("synchronization granularity and per-thread cache footprints.");
}
