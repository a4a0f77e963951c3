//! Quickstart: instrument a code snippet with the typestate session —
//! the paper's Fig. 4 usage pattern, with the protocol enforced by the
//! type system.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a single simulated Blue Gene/P node, brackets a small DAXPY
//! loop with a `Session` (`initialize` ≙ `BGP_Initialize`,
//! `start`/`stop` ≙ `BGP_Start`/`BGP_Stop`, `finalize` ≙
//! `BGP_Finalize`), and prints the interesting counters of the
//! monitored set.

use bgp::arch::events::{CoreEvent, CounterMode};
use bgp::arch::OpMode;
use bgp::counters::WHOLE_PROGRAM_SET;
use bgp::mpi::{CounterPolicy, SemOp};
use bgp::{JobSpec, Machine, Session};

fn main() {
    // One node, one process (SMP/1), UPC in counter mode 0 so we can see
    // core 0's pipeline, FPU and L1/L2 events. The counter mode is a
    // per-job choice, fixed when the job is launched, so it rides on the
    // JobSpec.
    let mut spec = JobSpec::new(1, OpMode::Smp1);
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
    let machine = Machine::new(spec);

    let job = machine.run(|mut ctx| async move {
        let ctx = &mut ctx;
        // BGP_Initialize — zeroes the counters the machine programmed
        // into the job's mode.
        let session = Session::initialize(ctx);

        // BGP_Start — opens the counting window; only now does a
        // `stop()` method exist, and it remembers the set id for us.
        let mut s = session.start(WHOLE_PROGRAM_SET).expect("BGP_Start");

        // --- the monitored snippet: y[i] += a * x[i] over 4096 doubles ---
        let a = 1.5;
        let n = 4096;
        let mut x = s.alloc::<f64>(n);
        let mut y = s.alloc::<f64>(n);
        for i in 0..n {
            s.st(&mut x, i, i as f64).await;
            s.st(&mut y, i, 1.0).await;
        }
        let mut i = 0;
        while i + 1 < n {
            // The modeled compiler decides whether this pair becomes one
            // SIMD FMA + quadword loads or two scalar FMAs.
            let plan = s.plan_pair(true);
            let (x0, x1) = s.ld2(&x, i, plan).await;
            let (y0, y1) = s.ld2(&y, i, plan).await;
            s.fp_pair(plan, SemOp::MulAdd);
            s.st2(&mut y, i, (a * x0 + y0, a * x1 + y1), plan).await;
            i += 2;
        }
        s.overhead(n as u64);
        // ------------------------------------------------------------------

        // BGP_Stop + BGP_Finalize — consuming the session closes the
        // window and hands back the job's counter library.
        s.stop()
            .expect("BGP_Stop")
            .finalize()
            .expect("BGP_Finalize")
    });

    // Post-process the per-node dump exactly like the paper's tools.
    let dumps = job[0].dumps().expect("dumps ready");
    let set = dumps[0].set(WHOLE_PROGRAM_SET).expect("whole-program set");
    println!(
        "per-node dump: {} set(s), {} records",
        dumps[0].sets.len(),
        set.records
    );
    println!("\ncounter                       value");
    println!("---------------------------------------");
    for ev in [
        CoreEvent::InstrCompleted,
        CoreEvent::CycleCount,
        CoreEvent::FpFma,
        CoreEvent::FpSimdFma,
        CoreEvent::Quadload,
        CoreEvent::Quadstore,
        CoreEvent::LoadDouble,
        CoreEvent::L1dHit,
        CoreEvent::L1dMiss,
        CoreEvent::L2PrefetchHit,
    ] {
        let slot = ev.id(0).slot().0 as usize;
        println!("{:<29} {:>9}", ev.id(0).name(), set.counts[slot]);
    }
    let flops = 4 * set.counts[CoreEvent::FpSimdFma.id(0).slot().0 as usize]
        + 2 * set.counts[CoreEvent::FpFma.id(0).slot().0 as usize];
    let cycles = set.counts[CoreEvent::CycleCount.id(0).slot().0 as usize];
    let mflops = flops as f64 / (cycles as f64 / bgp::arch::CORE_CLOCK_HZ as f64) / 1e6;
    println!("\nachieved: {mflops:.1} MFLOPS on core 0");
}
