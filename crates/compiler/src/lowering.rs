//! **Instruction selection**: how a compiler invocation lowers semantic
//! floating-point work onto the PPC450 + double-hummer instruction set.
//!
//! Workload kernels are written against semantic element operations
//! (multiply-add a pair, add a pair, …). [`CodeGen`] decides, per element
//! pair, whether the pair becomes one SIMD instruction plus quadword
//! memory ops (possible only under `-qarch=440d` on loops with data
//! parallelism) or two scalar instructions with double-word memory ops,
//! whether a multiply-add fuses, and how many overhead (integer, branch,
//! redundant-memory) instructions surround the useful work.
//!
//! All fractional coverage decisions use deterministic Bresenham
//! accumulators, so the same build of the same kernel always produces
//! the same instruction stream.

use crate::opts::{CompileOpts, OptLevel};

/// Deterministic fractional selector: `next()` returns `true` with
/// long-run frequency `num/den`, with no RNG.
#[derive(Clone, Debug)]
pub struct FractionSelector {
    num: u32,
    den: u32,
    acc: u32,
}

impl FractionSelector {
    /// Selector with frequency `num/den` (clamped to ≤ 1).
    pub fn new(num: u32, den: u32) -> FractionSelector {
        assert!(den > 0);
        FractionSelector {
            num: num.min(den),
            den,
            acc: 0,
        }
    }

    /// Selector from a float fraction with 1/1024 resolution.
    pub(crate) fn from_fraction(f: f64) -> FractionSelector {
        let num = (f.clamp(0.0, 1.0) * 1024.0).round() as u32;
        FractionSelector::new(num, 1024)
    }

    /// Next decision in the deterministic sequence.
    // Not an Iterator: the sequence is infinite and yields bare bools,
    // so `Option<bool>` would only add an unreachable `None` arm.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> bool {
        self.acc += self.num;
        if self.acc >= self.den {
            self.acc -= self.den;
            true
        } else {
            false
        }
    }
}

/// Numeric parameters a [`CompileOpts`] expands to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodeGenParams {
    /// Fuse multiply-add chains into FMA instructions.
    pub fma_fusion: bool,
    /// SIMD-ize vectorizable element pairs (requires `-qarch=440d`, ≥O3).
    pub simdize: bool,
    /// Fraction of vectorizable pairs actually SIMD-ized (loop-analysis
    /// quality grows with the optimization level).
    pub simd_coverage: f64,
    /// Overhead integer instructions per element of useful work
    /// (address arithmetic, spills, uneliminated subexpressions).
    pub int_overhead_per_elem: f64,
    /// Extra (redundant) memory instructions per useful memory op —
    /// poor register allocation at low optimization levels.
    pub redundant_mem_frac: f64,
    /// Loop unroll factor: one branch per `unroll` elements.
    pub unroll: u32,
    /// Branch misprediction frequency (fraction of branches).
    pub mispredict_frac: f64,
}

impl CodeGenParams {
    /// Expand a flag set into lowering parameters.
    pub(crate) fn from_opts(o: &CompileOpts) -> CodeGenParams {
        let (int_ovh, red_mem, unroll, mispred) = match o.opt {
            OptLevel::O2 => (0.60, 0.40, 1, 1.0 / 48.0),
            OptLevel::O3 => (0.30, 0.15, 2, 1.0 / 64.0),
            OptLevel::O4 => (0.20, 0.08, 4, 1.0 / 128.0),
            OptLevel::O5 => (0.12, 0.05, 4, 1.0 / 128.0),
        };
        // -qhot's loop restructuring trims further overhead;
        // -qtune improves schedule (fewer mispredicted exits).
        let hot = if o.qhot { 0.8 } else { 1.0 };
        let tune = if o.qtune { 0.75 } else { 1.0 };
        CodeGenParams {
            fma_fusion: o.fma_enabled(),
            simdize: o.simd_enabled(),
            simd_coverage: match o.opt {
                OptLevel::O2 => 0.0,
                OptLevel::O3 => 0.55,
                OptLevel::O4 => 0.80,
                OptLevel::O5 => 0.95,
            },
            int_overhead_per_elem: int_ovh * hot,
            redundant_mem_frac: red_mem * hot,
            unroll,
            mispredict_frac: mispred * tune,
        }
    }
}

/// Instruction budget of one scalar math-library evaluation (`ln`,
/// `sqrt`, `exp`, …) under a given build.
///
/// Baseline `-O -qstrict` builds call a generic softfloat-careful libm
/// (function-call overhead, full-precision polynomial, two divides);
/// higher levels inline hardware-aware sequences and at `-O4`/`-O5` the
/// XL stack substitutes MASS-library kernels (Newton iterations on FMA,
/// a single divide).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LibmProfile {
    /// Fused multiply-adds per evaluation.
    pub fma: u64,
    /// Plain multiplies per evaluation.
    pub mul: u64,
    /// Divides per evaluation (long-latency).
    pub div: u64,
    /// Integer instructions (call linkage, range reduction).
    pub int_ops: u64,
}

/// How one element pair's arithmetic is lowered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairPlan {
    /// One SIMD instruction covers both elements; memory traffic moves as
    /// quadwords.
    Simd,
    /// Two scalar instructions; memory traffic moves as doubles.
    Scalar,
}

/// Overhead instructions to retire alongside a batch of useful work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overhead {
    /// Integer/address instructions.
    pub int_ops: u64,
    /// Branches.
    pub branches: u64,
    /// Of which mispredicted.
    pub mispredicts: u64,
}

/// Stateful instruction-selection engine for one compiled kernel.
///
/// ```
/// use bgp_compiler::{CodeGen, CompileOpts, PairPlan};
///
/// // The paper's baseline build never SIMD-izes or fuses…
/// let mut base = CodeGen::new(CompileOpts::baseline());
/// assert!(!base.fma());
/// assert_eq!(base.plan_pair(true), PairPlan::Scalar);
///
/// // …while -O5 -qarch=440d covers ~95% of vectorizable pairs.
/// let mut best = CodeGen::new(CompileOpts::o5());
/// let simd = (0..100).filter(|_| best.plan_pair(true) == PairPlan::Simd).count();
/// assert!(simd >= 90);
/// ```
#[derive(Clone, Debug)]
pub struct CodeGen {
    opts: CompileOpts,
    /// The parameters the hot paths read, copied out of
    /// [`CodeGenParams`]; the rest live on only in the selectors.
    fma_fusion: bool,
    simdize: bool,
    unroll: u32,
    /// Whole overhead integer instructions per element; `int_acc`
    /// selects the fractional part.
    int_whole: u32,
    simd_sel: FractionSelector,
    red_mem_sel: FractionSelector,
    int_acc: FractionSelector,
    mispred_sel: FractionSelector,
    branch_rem: u32,
}

impl CodeGen {
    /// Instruction selection under `opts`.
    pub fn new(opts: CompileOpts) -> CodeGen {
        let params = CodeGenParams::from_opts(&opts);
        CodeGen {
            opts,
            fma_fusion: params.fma_fusion,
            simdize: params.simdize,
            unroll: params.unroll,
            int_whole: params.int_overhead_per_elem.trunc() as u32,
            simd_sel: FractionSelector::from_fraction(if params.simdize {
                params.simd_coverage
            } else {
                0.0
            }),
            red_mem_sel: FractionSelector::from_fraction(params.redundant_mem_frac),
            int_acc: FractionSelector::from_fraction(params.int_overhead_per_elem.fract().max(0.0)),
            mispred_sel: FractionSelector::from_fraction(params.mispredict_frac),
            branch_rem: 0,
        }
    }

    /// The parameters the build's flags expand to.
    pub fn params(&self) -> CodeGenParams {
        CodeGenParams::from_opts(&self.opts)
    }

    /// Whether multiply-adds fuse into FMA instructions.
    #[inline]
    pub fn fma(&self) -> bool {
        self.fma_fusion
    }

    /// Decide how to lower the next element pair of a loop whose data
    /// parallelism the compiler can (`vectorizable`) or cannot see.
    #[inline]
    pub fn plan_pair(&mut self, vectorizable: bool) -> PairPlan {
        if vectorizable && self.simdize && self.simd_sel.next() {
            PairPlan::Simd
        } else {
            PairPlan::Scalar
        }
    }

    /// Cost of one scalar math-library call under this build (see
    /// [`LibmProfile`]).
    pub fn libm(&self) -> LibmProfile {
        match self.opts.opt {
            OptLevel::O2 => LibmProfile {
                fma: 22,
                mul: 6,
                div: 2,
                int_ops: 12,
            },
            OptLevel::O3 => LibmProfile {
                fma: 16,
                mul: 4,
                div: 2,
                int_ops: 4,
            },
            OptLevel::O4 => LibmProfile {
                fma: 12,
                mul: 3,
                div: 1,
                int_ops: 2,
            },
            OptLevel::O5 => LibmProfile {
                fma: 10,
                mul: 2,
                div: 1,
                int_ops: 1,
            },
        }
    }

    /// Whether the next memory operation is duplicated by a redundant
    /// spill/reload (charged as an extra scalar load by the caller).
    #[inline]
    pub fn redundant_mem(&mut self) -> bool {
        self.red_mem_sel.next()
    }

    /// Overhead instructions accompanying `elements` of useful loop work.
    pub fn overhead(&mut self, elements: u64) -> Overhead {
        let mut int_ops = u64::from(self.int_whole) * elements;
        for _ in 0..elements {
            if self.int_acc.next() {
                int_ops += 1;
            }
        }
        let mut branches = 0;
        let mut mispredicts = 0;
        let unroll = self.unroll;
        for _ in 0..elements {
            self.branch_rem += 1;
            if self.branch_rem >= unroll {
                self.branch_rem = 0;
                branches += 1;
                if self.mispred_sel.next() {
                    mispredicts += 1;
                }
            }
        }
        Overhead {
            int_ops,
            branches,
            mispredicts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::QArch;

    #[test]
    fn fraction_selector_hits_its_frequency() {
        let mut s = FractionSelector::new(3, 10);
        let hits = (0..10_000).filter(|_| s.next()).count();
        assert_eq!(hits, 3_000);
    }

    #[test]
    fn fraction_selector_extremes() {
        let mut zero = FractionSelector::from_fraction(0.0);
        assert!((0..100).all(|_| !zero.next()));
        let mut one = FractionSelector::from_fraction(1.0);
        assert!((0..100).all(|_| one.next()));
    }

    #[test]
    fn baseline_never_simdizes_or_fuses() {
        let mut cg = CodeGen::new(CompileOpts::baseline());
        assert!(!cg.fma());
        for _ in 0..1000 {
            assert_eq!(cg.plan_pair(true), PairPlan::Scalar);
        }
    }

    #[test]
    fn o5_440d_simdizes_most_vectorizable_pairs() {
        let mut cg = CodeGen::new(CompileOpts::o5());
        let simd = (0..10_000)
            .filter(|_| cg.plan_pair(true) == PairPlan::Simd)
            .count();
        assert!((9_400..=9_600).contains(&simd), "simd pairs: {simd}");
        // Non-vectorizable loops never SIMD-ize regardless of flags.
        assert_eq!(cg.plan_pair(false), PairPlan::Scalar);
    }

    #[test]
    fn simd_coverage_grows_with_level() {
        let count = |opts: CompileOpts| {
            let mut cg = CodeGen::new(opts);
            (0..10_000)
                .filter(|_| cg.plan_pair(true) == PairPlan::Simd)
                .count()
        };
        let o3 = count(CompileOpts::o3());
        let o4 = count(CompileOpts::o4());
        let o5 = count(CompileOpts::o5());
        assert!(o3 < o4 && o4 < o5, "{o3} {o4} {o5}");
        assert_eq!(count(CompileOpts::o5().with_qarch(QArch::Ppc440)), 0);
    }

    #[test]
    fn overhead_shrinks_with_optimization() {
        let total = |opts: CompileOpts| {
            let mut cg = CodeGen::new(opts);
            let o = cg.overhead(10_000);
            o.int_ops + o.branches
        };
        let base = total(CompileOpts::baseline());
        let o3 = total(CompileOpts::o3());
        let o5 = total(CompileOpts::o5());
        assert!(base > o3 && o3 > o5, "{base} {o3} {o5}");
    }

    #[test]
    fn unrolling_reduces_branch_count() {
        let branches = |opts: CompileOpts| CodeGen::new(opts).overhead(1024).branches;
        assert_eq!(branches(CompileOpts::baseline()), 1024);
        assert_eq!(branches(CompileOpts::o3()), 512);
        assert_eq!(branches(CompileOpts::o5()), 256);
    }

    #[test]
    fn determinism_same_opts_same_stream() {
        let run = || {
            let mut cg = CodeGen::new(CompileOpts::o4());
            let plans: Vec<_> = (0..500).map(|i| cg.plan_pair(i % 3 != 0)).collect();
            let ovh = cg.overhead(1000);
            (plans, ovh)
        };
        assert_eq!(run(), run());
    }
}
