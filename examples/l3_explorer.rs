//! Hardware-parameter exploration for a custom application — the §IV
//! use case "monitor the counters for L3 Cache & DDR by varying the L3
//! cache parameters to see their effect on the L3-DDR traffic", applied
//! to your own kernel instead of a NAS benchmark.
//!
//! ```text
//! cargo run --release --example l3_explorer
//! ```
//!
//! Sweeps the L3 from 0 to 8 MB under a blocked matrix-transpose-like
//! workload and prints the per-node DDR traffic for every size.

use bgp::arch::events::CounterMode;
use bgp::arch::{MachineConfig, OpMode};
use bgp::counters::{run_instrumented, WHOLE_PROGRAM_SET};
use bgp::mpi::{CounterPolicy, JobSpec, Machine};
use bgp::postproc::{ddr_traffic_bytes_per_node, l3_miss_ratio, Frame};

/// The user application: a tiled out-of-place transpose of a matrix that
/// is larger than any single cache level.
async fn transpose_workload(mut ctx: bgp::mpi::RankCtx) -> (bgp::mpi::RankCtx, ()) {
    let n = 384; // 384×384 doubles ≈ 1.1 MB per matrix per rank
    let tile = 16;
    let mut a = ctx.alloc::<f64>(n * n);
    let mut b = ctx.alloc::<f64>(n * n);
    for i in 0..n * n {
        ctx.st(&mut a, i, i as f64).await;
    }
    for ti in (0..n).step_by(tile) {
        for tj in (0..n).step_by(tile) {
            for i in ti..ti + tile {
                for j in tj..tj + tile {
                    let v = ctx.ld(&a, i * n + j).await;
                    ctx.st(&mut b, j * n + i, v).await;
                }
            }
            ctx.overhead((tile * tile) as u64);
        }
    }
    // Verify a few entries.
    assert_eq!(b.raw(5 * n + 7), (7 * n + 5) as f64);
    (ctx, ())
}

fn main() {
    println!("l3_mb, ddr_traffic_mb_per_node, l3_miss_ratio");
    for mb in [0usize, 2, 4, 6, 8] {
        let mut spec = JobSpec::new(4, OpMode::VirtualNode); // one full chip
        spec.machine = MachineConfig::default().with_l3_bytes(mb << 20);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode2);
        let machine = Machine::new(spec);
        let (_, lib) = run_instrumented(&machine, transpose_workload);
        let frame =
            Frame::from_dumps(&lib.dumps().expect("dumps"), WHOLE_PROGRAM_SET).expect("aggregate");
        println!(
            "{mb}, {:.2}, {:.4}",
            ddr_traffic_bytes_per_node(&frame) / 1e6,
            l3_miss_ratio(&frame),
        );
    }
    println!("\n(expect traffic to collapse once the ~2.2 MB working set fits)");
}
