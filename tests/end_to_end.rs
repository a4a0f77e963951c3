//! Whole-stack integration tests: kernels → runtime → counters → dumps →
//! post-processing, and the cross-cutting guarantees (determinism,
//! even/odd coverage, low instrumentation perturbation).

use bgp::arch::events::{CoreEvent, CounterMode};
use bgp::arch::OpMode;
use bgp::counters::{run_instrumented, WHOLE_PROGRAM_SET};
use bgp::mpi::{CounterPolicy, JobSpec, Machine};
use bgp::Session;
use bgp::nas::{Class, Kernel};
use bgp::postproc::{fp_mix, mflops_per_core, stats_csv, Frame};

fn job(kernel: Kernel, ranks: usize, policy: CounterPolicy) -> (Frame, u64) {
    let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
    spec.counter_policy = policy;
    let machine = Machine::new(spec);
    let (out, lib) = run_instrumented(&machine, move |ctx| kernel.exec(Class::S, ctx));
    assert!(out.iter().all(|r| r.verified), "{kernel} failed verification");
    let frame = Frame::from_dumps(&lib.dumps().unwrap(), WHOLE_PROGRAM_SET).unwrap();
    (frame, machine.job_cycles())
}

#[test]
fn full_pipeline_is_bit_deterministic() {
    let policy = CounterPolicy::EvenOdd { even: CounterMode::Mode0, odd: CounterMode::Mode1 };
    let (f1, c1) = job(Kernel::Cg, 8, policy);
    let (f2, c2) = job(Kernel::Cg, 8, policy);
    assert_eq!(c1, c2, "job cycles must be identical across runs");
    let s1 = stats_csv(&f1).render();
    let s2 = stats_csv(&f2).render();
    assert_eq!(s1, s2, "every one of the 512 aggregated counters must match");
}

#[test]
fn even_odd_trick_covers_all_four_cores_in_one_run() {
    let (frame, _) = job(
        Kernel::Mg,
        8,
        CounterPolicy::EvenOdd { even: CounterMode::Mode0, odd: CounterMode::Mode1 },
    );
    for core in 0..4 {
        assert!(
            frame.sum(CoreEvent::CycleCount.id(core)) > 0,
            "core {core} unobserved — the 512-event trick is broken"
        );
    }
    // 2 modes × 256 slots observed.
    assert_eq!(frame.all_stats().len(), 512);
}

#[test]
fn mflops_are_physical() {
    let (frame, _) = job(
        Kernel::Bt,
        4,
        CounterPolicy::EvenOdd { even: CounterMode::Mode0, odd: CounterMode::Mode1 },
    );
    let mflops = mflops_per_core(&frame);
    // Must be positive and below the 3400 MFLOPS per-core peak.
    assert!(mflops > 0.0, "no flops observed");
    assert!(mflops < 3400.0, "impossible: {mflops} MFLOPS/core > peak");
}

#[test]
fn instrumentation_perturbation_is_negligible() {
    // Run the same kernel with and without the counter library; the
    // paper's claim is that the interface overhead (196 cycles + dump
    // printing after stop) is invisible at application scale.
    let kernel = Kernel::Lu;
    let mut spec = JobSpec::new(4, OpMode::VirtualNode);
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
    let bare = Machine::new(spec.clone());
    bare.run(move |ctx| kernel.exec(Class::S, ctx));
    let bare_cycles = bare.job_cycles();

    let instrumented = Machine::new(spec);
    let (_, _lib) = run_instrumented(&instrumented, move |ctx| kernel.exec(Class::S, ctx));
    let instr_cycles = instrumented.job_cycles();

    let overhead = instr_cycles as f64 / bare_cycles as f64 - 1.0;
    // Class S runs are tiny (hundreds of thousands of cycles), so the
    // fixed ~4.4k-cycle init+dump cost can reach a few percent here; on
    // any real application length it vanishes, as the paper observes.
    assert!(
        (0.0..0.05).contains(&overhead),
        "instrumentation perturbed execution by {:.3}% (paper: negligible)",
        overhead * 100.0
    );
}

#[test]
fn per_region_sets_isolate_phases() {
    // Instrument two phases with different sets and confirm the counters
    // separate them (the Fig. 4 "code snippet" use case).
    let mut spec = JobSpec::new(1, OpMode::Smp1);
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
    let machine = Machine::new(spec);
    let job = machine.run(|mut ctx| async move {
        let ctx = &mut ctx;
        let s = Session::initialize(ctx);
        // Phase 1: pure FP.
        let mut s1 = s.start(1).unwrap();
        for _ in 0..100 {
            s1.fp1(bgp::mpi::SemOp::MulAdd);
        }
        let s = s1.stop().unwrap();
        // Phase 2: pure memory.
        let mut s2 = s.start(2).unwrap();
        let mut v = s2.alloc::<f64>(256);
        for i in 0..256 {
            s2.st(&mut v, i, 0.0).await;
        }
        s2.stop().unwrap().finalize().unwrap()
    });
    let dumps = job[0].dumps().unwrap();
    let fma_slot = CoreEvent::FpFma.id(0).slot().0 as usize;
    let store_slot = CoreEvent::Store.id(0).slot().0 as usize;
    let s1 = dumps[0].set(1).unwrap();
    let s2 = dumps[0].set(2).unwrap();
    assert_eq!(s1.counts[fma_slot], 100);
    assert_eq!(s1.counts[store_slot], 0, "phase 1 did no stores");
    assert_eq!(s2.counts[fma_slot], 0, "phase 2 did no FP");
    assert_eq!(s2.counts[store_slot], 256);
}

#[test]
fn simd_showcase_kernels_beat_scalar_kernels_on_simd_fraction() {
    let policy = CounterPolicy::EvenOdd { even: CounterMode::Mode0, odd: CounterMode::Mode1 };
    let (mg, _) = job(Kernel::Mg, 8, policy);
    let (ft, _) = job(Kernel::Ft, 8, policy);
    let (cg, _) = job(Kernel::Cg, 8, policy);
    let (bt, _) = job(Kernel::Bt, 4, policy);
    let (mg, ft, cg, bt) = (
        fp_mix(&mg).simd_fraction(),
        fp_mix(&ft).simd_fraction(),
        fp_mix(&cg).simd_fraction(),
        fp_mix(&bt).simd_fraction(),
    );
    // The paper's Fig. 6 split: MG and FT exploit the SIMD units
    // extensively; CG and BT are scalar-FMA codes.
    assert!(mg > 0.5, "MG simd fraction {mg}");
    assert!(ft > 0.5, "FT simd fraction {ft}");
    assert!(cg < 0.3, "CG simd fraction {cg}");
    assert!(bt < 0.1, "BT simd fraction {bt}");
}
