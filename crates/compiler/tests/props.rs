//! Property tests of the instruction-selection model.
//!
//! Cases are generated by the deterministic in-tree [`SimRng`] so the
//! suite runs offline and every failure reproduces bit-exactly.

use bgp_arch::rng::SimRng;
use bgp_compiler::{CodeGen, CompileOpts, FractionSelector, OptLevel, PairPlan, QArch};

const CASES: usize = 64;

fn arb_opts(rng: &mut SimRng) -> CompileOpts {
    CompileOpts {
        opt: [OptLevel::O2, OptLevel::O3, OptLevel::O4, OptLevel::O5][rng.gen_range(0usize..4)],
        qstrict: rng.gen_bool(0.5),
        qarch: [QArch::Generic, QArch::Ppc440, QArch::Ppc440d][rng.gen_range(0usize..3)],
        qtune: rng.gen_bool(0.5),
        qcache: rng.gen_bool(0.5),
        qhot: rng.gen_bool(0.5),
    }
}

/// The fraction selector's long-run rate equals its fraction exactly
/// over whole multiples of the denominator.
#[test]
fn selector_rate_is_exact() {
    let mut rng = SimRng::seed_from_u64(0x21);
    for case in 0..CASES {
        let num = rng.gen_range(0u32..65);
        let rounds = rng.gen_range(1usize..20);
        let den = 64;
        let mut s = FractionSelector::new(num, den);
        let hits = (0..rounds * den as usize).filter(|_| s.next()).count();
        assert_eq!(
            hits,
            rounds * num as usize,
            "case {case}: num={num} rounds={rounds}"
        );
    }
}

/// SIMD plans appear only when the build enables SIMD-ization, and
/// never on non-vectorizable loops.
#[test]
fn simd_gating() {
    let mut rng = SimRng::seed_from_u64(0x22);
    for case in 0..CASES {
        let opts = arb_opts(&mut rng);
        let n = rng.gen_range(1usize..500);
        let mut cg = CodeGen::new(opts);
        let mut any_simd = false;
        for i in 0..n {
            let vectorizable = i % 3 != 0;
            let plan = cg.plan_pair(vectorizable);
            if plan == PairPlan::Simd {
                any_simd = true;
                assert!(
                    vectorizable,
                    "case {case}: SIMD plan for a non-vectorizable pair"
                );
                assert!(opts.simd_enabled(), "case {case}: SIMD plan under {opts:?}");
            }
        }
        // At O4/O5 with 440d, a long vectorizable run must produce SIMD.
        if opts.simd_enabled() && opts.opt >= OptLevel::O4 && n > 10 {
            assert!(any_simd, "case {case}: no SIMD under {opts:?} with n={n}");
        }
    }
}

/// Overhead is monotone in the element count and linear-ish: charging
/// two batches equals charging one combined batch.
#[test]
fn overhead_is_additive() {
    let mut rng = SimRng::seed_from_u64(0x23);
    for case in 0..CASES {
        let opts = arb_opts(&mut rng);
        let a = rng.gen_range(1u64..2_000);
        let b = rng.gen_range(1u64..2_000);
        let mut cg1 = CodeGen::new(opts);
        let o1 = cg1.overhead(a);
        let o2 = cg1.overhead(b);
        let mut cg2 = CodeGen::new(opts);
        let o = cg2.overhead(a + b);
        assert_eq!(o.int_ops, o1.int_ops + o2.int_ops, "case {case}");
        assert_eq!(o.branches, o1.branches + o2.branches, "case {case}");
        assert_eq!(
            o.mispredicts,
            o1.mispredicts + o2.mispredicts,
            "case {case}"
        );
    }
}

/// Mispredicts never exceed branches; branches never exceed elements.
#[test]
fn overhead_bounds() {
    let mut rng = SimRng::seed_from_u64(0x24);
    for case in 0..CASES {
        let opts = arb_opts(&mut rng);
        let n = rng.gen_range(0u64..10_000);
        let mut cg = CodeGen::new(opts);
        let o = cg.overhead(n);
        assert!(o.mispredicts <= o.branches, "case {case}");
        assert!(o.branches <= n, "case {case}");
        // Unrolled builds take fewer branches.
        assert!(
            o.branches * cg.params().unroll as u64 <= n + cg.params().unroll as u64,
            "case {case}"
        );
    }
}

/// Determinism: two engines with the same flags produce identical
/// decision streams.
#[test]
fn engine_is_deterministic() {
    let mut rng = SimRng::seed_from_u64(0x25);
    for case in 0..CASES {
        let opts = arb_opts(&mut rng);
        let len = rng.gen_range(0usize..300);
        let seq: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
        let mut a = CodeGen::new(opts);
        let mut b = CodeGen::new(opts);
        for &v in &seq {
            assert_eq!(a.plan_pair(v), b.plan_pair(v), "case {case}");
            assert_eq!(a.redundant_mem(), b.redundant_mem(), "case {case}");
        }
        assert_eq!(a.overhead(123), b.overhead(123), "case {case}");
    }
}

/// Higher optimization levels never emit more overhead instructions
/// (fixing every other flag).
#[test]
fn overhead_monotone_in_level() {
    let mut rng = SimRng::seed_from_u64(0x26);
    for case in 0..CASES {
        let n = rng.gen_range(100u64..5_000);
        let mut last = u64::MAX;
        for opt in OptLevel::ALL {
            let opts = CompileOpts {
                opt,
                ..CompileOpts::o4()
            };
            let mut cg = CodeGen::new(opts);
            let o = cg.overhead(n);
            let total = o.int_ops + o.branches;
            assert!(total <= last, "case {case}: {opt:?} emitted more overhead");
            last = total;
        }
    }
}
