//! MPI auto-instrumentation: the paper's Fig. 5 collection flow.
//!
//! ```text
//! cargo run --release --example mpi_stencil
//! ```
//!
//! A 16-rank 1-D heat-diffusion stencil runs in Virtual Node Mode with
//! **no instrumentation calls in the application code** — linking the
//! instrumented MPI library (here: [`bgp::counters::run_instrumented`])
//! brackets the whole program, one binary dump appears per node, and the
//! post-processing tools mine them into a CSV.

use bgp::arch::OpMode;
use bgp::counters::{run_instrumented, WHOLE_PROGRAM_SET};
use bgp::mpi::{bytes_to_f64s, f64s_to_bytes, JobSpec, Machine, SemOp};
use bgp::postproc::{fp_mix, mflops_per_core, stats_csv, Frame, MixCategory};

fn main() {
    let spec = JobSpec::new(16, OpMode::VirtualNode); // 4 nodes à 4 ranks
    let machine = Machine::new(spec);

    // The "application": plain MPI code, unaware of any counters.
    let (_, lib) = run_instrumented(&machine, |mut ctx| async move {
        let n = 1 << 12;
        let steps = 20;
        let mut u = ctx.alloc::<f64>(n + 2); // +2 halo cells
        for i in 1..=n {
            ctx.st(
                &mut u,
                i,
                if ctx.rank() == 0 && i == 1 {
                    1000.0
                } else {
                    0.0
                },
            )
            .await;
        }
        let (rank, size) = (ctx.rank(), ctx.size());
        for _step in 0..steps {
            // Halo exchange with the neighbours.
            if rank + 1 < size {
                let edge = ctx.ld(&u, n).await;
                ctx.send(rank + 1, 1, f64s_to_bytes(&[edge])).await;
            }
            if rank > 0 {
                let v = bytes_to_f64s(&ctx.recv(Some(rank - 1), 1).await)[0];
                ctx.st(&mut u, 0, v).await;
                let edge = ctx.ld(&u, 1).await;
                ctx.send(rank - 1, 2, f64s_to_bytes(&[edge])).await;
            }
            if rank + 1 < size {
                let v = bytes_to_f64s(&ctx.recv(Some(rank + 1), 2).await)[0];
                ctx.st(&mut u, n + 1, v).await;
            }
            // Zero-flux (reflective) physical boundaries so total heat is
            // conserved and the verification below can check it.
            if rank == 0 {
                let v = ctx.ld(&u, 1).await;
                ctx.st(&mut u, 0, v).await;
            }
            if rank + 1 == size {
                let v = ctx.ld(&u, n).await;
                ctx.st(&mut u, n + 1, v).await;
            }
            // Diffusion step (vectorizable stencil).
            let mut next = ctx.alloc::<f64>(n + 2);
            for i in 1..=n {
                let um = ctx.ld(&u, i - 1).await;
                let u0 = ctx.ld(&u, i).await;
                let up = ctx.ld(&u, i + 1).await;
                if i % 2 == 0 {
                    let plan = ctx.plan_pair(true);
                    ctx.fp_pair(plan, SemOp::Add);
                    ctx.fp_pair(plan, SemOp::MulAdd);
                }
                ctx.st(&mut next, i, u0 + 0.25 * (um - 2.0 * u0 + up)).await;
            }
            ctx.overhead(n as u64);
            u = next;
            ctx.barrier().await;
        }
        // Total heat must be conserved: verify via all-reduce.
        let local: f64 = (1..=n).map(|i| u.raw(i)).sum();
        let total = ctx.allreduce_sum_f64(&[local]).await[0];
        assert!((total - 1000.0).abs() < 1e-6, "heat not conserved: {total}");
        (ctx, ())
    });

    // Fig. 5's right half: dumps -> post-processing -> csv/metrics.
    let dir = std::env::temp_dir().join("bgp_mpi_stencil_dumps");
    let paths = lib.write_dumps(&dir).expect("write dumps");
    println!("wrote {} per-node dumps to {}", paths.len(), dir.display());

    let dumps = bgp::counters::read_dumps(&dir).expect("read back");
    let frame = Frame::from_dumps(&dumps, WHOLE_PROGRAM_SET).expect("aggregate");
    let mix = fp_mix(&frame);
    println!("observed FP instructions : {}", mix.total());
    println!(
        "SIMD fraction            : {:.1}%",
        100.0 * mix.simd_fraction()
    );
    println!(
        "single FMA fraction      : {:.1}%",
        100.0 * mix.fraction(MixCategory::SingleFma)
    );
    println!("achieved MFLOPS per core : {:.2}", mflops_per_core(&frame));

    let csv = stats_csv(&frame);
    let csv_path = dir.join("stencil_counters.csv");
    csv.write(&csv_path).expect("write csv");
    println!("full 512-counter statistics -> {}", csv_path.display());
}
