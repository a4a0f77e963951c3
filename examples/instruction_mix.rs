//! Compiler-flag exploration — the §IV use case "analyze the dynamic
//! instruction profile of the applications for different compiler
//! optimizations and infer their effectiveness", on a small dense
//! matrix-multiply kernel.
//!
//! ```text
//! cargo run --release --example instruction_mix
//! ```

use bgp::arch::events::CounterMode;
use bgp::arch::OpMode;
use bgp::compiler::{CompileOpts, QArch};
use bgp::counters::{run_instrumented, WHOLE_PROGRAM_SET};
use bgp::mpi::{CounterPolicy, JobSpec, Machine, SemOp};
use bgp::postproc::{fp_mix, mflops_per_core, Frame, MixCategory};

async fn matmul(mut ctx: bgp::mpi::RankCtx) -> (bgp::mpi::RankCtx, ()) {
    let n = 64;
    let mut a = ctx.alloc::<f64>(n * n);
    let mut b = ctx.alloc::<f64>(n * n);
    let mut c = ctx.alloc::<f64>(n * n);
    for i in 0..n * n {
        ctx.st(&mut a, i, (i % 17) as f64).await;
        ctx.st(&mut b, i, (i % 11) as f64).await;
    }
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            // The k-loop walks rows of a and (transposed-friendly) b —
            // unit-stride pairs the compiler may SIMD-ize.
            let mut k = 0;
            while k < n {
                let plan = ctx.plan_pair(true);
                let (a0, a1) = ctx.ld2(&a, i * n + k, plan).await;
                let (b0, b1) = ctx.ld2(&b, j * n + k, plan).await;
                ctx.fp_pair(plan, SemOp::MulAdd);
                acc += a0 * b0 + a1 * b1;
                k += 2;
            }
            ctx.st(&mut c, i * n + j, acc).await;
            ctx.overhead(n as u64);
        }
    }
    (ctx, ())
}

fn run_with(compile: CompileOpts) -> (Frame, u64) {
    let mut spec = JobSpec::new(1, OpMode::Smp1);
    spec.compile = compile;
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
    let machine = Machine::new(spec);
    let (_, lib) = run_instrumented(&machine, matmul);
    let frame =
        Frame::from_dumps(&lib.dumps().expect("dumps"), WHOLE_PROGRAM_SET).expect("aggregate");
    let cycles = machine.job_cycles();
    (frame, cycles)
}

fn main() {
    println!(
        "{:<24} {:>10} {:>8} {:>9} {:>9} {:>8}",
        "build", "cycles", "MFLOPS", "FMA%", "SIMD-FMA%", "quadld"
    );
    let mut builds = vec![CompileOpts::baseline()];
    for base in [CompileOpts::o3(), CompileOpts::o4(), CompileOpts::o5()] {
        builds.push(base.with_qarch(QArch::Ppc440));
        builds.push(base);
    }
    for compile in builds {
        let (frame, cycles) = run_with(compile);
        let mix = fp_mix(&frame);
        let quadloads = frame.sum(bgp::arch::events::CoreEvent::Quadload.id(0));
        println!(
            "{:<24} {:>10} {:>8.1} {:>8.1}% {:>8.1}% {:>8}",
            compile.label(),
            cycles,
            mflops_per_core(&frame),
            100.0 * mix.fraction(MixCategory::SingleFma),
            100.0 * mix.fraction(MixCategory::SimdFma),
            quadloads,
        );
    }
    println!("\n(the -qarch=440d builds convert FMA pairs into SIMD FMAs + quadloads,");
    println!(" exactly the effect the paper reads off Figs. 7-10)");
}
