//! Every NAS kernel must verify on class S across rank counts and
//! operating modes, with deterministic checksums.

use bgp_arch::events::CounterMode;
use bgp_arch::OpMode;
#[allow(unused_imports)]
use bgp_compiler as _;
use bgp_mpi::{CounterPolicy, JobSpec, Machine};
use bgp_nas::{Class, Kernel};

fn run_kernel(kernel: Kernel, ranks: usize, mode: OpMode) -> (bool, f64) {
    assert!(
        kernel.valid_ranks(ranks),
        "{kernel}: invalid rank count {ranks}"
    );
    let mut spec = JobSpec::new(ranks, mode);
    spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
    let m = Machine::new(spec);
    m.enable_all_counters();
    let out = m.run(move |ctx| async move { kernel.exec(Class::S, ctx).await.1 });
    let verified = out.iter().all(|r| r.verified);
    (verified, out[0].checksum)
}

#[test]
fn ep_verifies() {
    assert!(run_kernel(Kernel::Ep, 4, OpMode::VirtualNode).0);
}

#[test]
fn is_verifies() {
    assert!(run_kernel(Kernel::Is, 4, OpMode::VirtualNode).0);
}

#[test]
fn cg_verifies() {
    assert!(run_kernel(Kernel::Cg, 4, OpMode::VirtualNode).0);
}

#[test]
fn mg_verifies() {
    assert!(run_kernel(Kernel::Mg, 4, OpMode::VirtualNode).0);
}

#[test]
fn ft_verifies() {
    assert!(run_kernel(Kernel::Ft, 4, OpMode::VirtualNode).0);
}

#[test]
fn lu_verifies() {
    assert!(run_kernel(Kernel::Lu, 4, OpMode::VirtualNode).0);
}

#[test]
fn sp_verifies() {
    assert!(run_kernel(Kernel::Sp, 4, OpMode::VirtualNode).0);
}

#[test]
fn bt_verifies() {
    assert!(run_kernel(Kernel::Bt, 4, OpMode::VirtualNode).0);
}

#[test]
fn kernels_verify_on_single_rank() {
    for k in Kernel::ALL {
        assert!(run_kernel(k, 1, OpMode::Smp1).0, "{k} failed on 1 rank");
    }
}

#[test]
fn kernels_verify_in_smp1_multinode() {
    for k in [Kernel::Cg, Kernel::Mg, Kernel::Ft] {
        assert!(run_kernel(k, 2, OpMode::Smp1).0, "{k} failed in SMP/1 x2");
    }
}

#[test]
fn sp_bt_accept_odd_square_rank_counts() {
    assert!(run_kernel(Kernel::Sp, 9, OpMode::VirtualNode).0);
    assert!(run_kernel(Kernel::Bt, 9, OpMode::VirtualNode).0);
}

#[test]
fn checksums_are_deterministic() {
    let a = run_kernel(Kernel::Cg, 4, OpMode::VirtualNode);
    let b = run_kernel(Kernel::Cg, 4, OpMode::VirtualNode);
    assert_eq!(a.1.to_bits(), b.1.to_bits());
}

#[test]
fn numeric_results_are_quantum_invariant() {
    // The scheduler quantum changes interleaving (and therefore timing),
    // but must never change any kernel's numerical result.
    let run_with_quantum = |q: u64| {
        let mut spec = JobSpec::new(4, OpMode::VirtualNode);
        spec.quantum = q;
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
        let m = Machine::new(spec);
        let out = m.run(|ctx| async move { Kernel::Cg.exec(Class::S, ctx).await.1 });
        assert!(out.iter().all(|r| r.verified));
        out.iter().map(|r| r.checksum.to_bits()).collect::<Vec<_>>()
    };
    let a = run_with_quantum(64);
    let b = run_with_quantum(2048);
    let c = run_with_quantum(1 << 20);
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn timing_depends_on_compiler_build_but_math_does_not() {
    let run_with = |compile: bgp_compiler::CompileOpts| {
        let mut spec = JobSpec::new(4, OpMode::VirtualNode);
        spec.compile = compile;
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
        let m = Machine::new(spec);
        let out = m.run(|ctx| async move { Kernel::Mg.exec(Class::S, ctx).await.1 });
        (out[0].checksum.to_bits(), m.job_cycles())
    };
    let (base_sum, base_cycles) = run_with(bgp_compiler::CompileOpts::baseline());
    let (best_sum, best_cycles) = run_with(bgp_compiler::CompileOpts::o5());
    assert_eq!(
        base_sum, best_sum,
        "builds must not change the computed residual"
    );
    assert!(
        best_cycles < base_cycles,
        "-O5 must be faster than the baseline"
    );
}
