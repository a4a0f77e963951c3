//! Shared vocabulary of the NAS kernel suite: problem classes, kernel
//! identifiers, per-class sizing, and the compiled vector primitives
//! (axpy/dot/copy) the kernels build on.
//!
//! ## Class scaling
//!
//! The paper runs the class C problems on 32–128 real nodes. Full class C
//! footprints are impractical under cycle-level simulation, so this suite
//! defines scaled classes that preserve the *ratios* the experiments
//! depend on — most importantly, class A is sized so a Virtual-Node-Mode
//! node (4 ranks) carries a ~3–4 MB aggregate working set, putting the
//! Fig. 11 L3 sweep knee at 4 MB exactly where class C sat relative to
//! the real 8 MB L3. Communication patterns, loop structures, and
//! verification are those of the real benchmarks.

use bgp_mpi::{RankCtx, SemOp, SimVec};
use core::fmt;

/// Scaled problem classes (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Class {
    /// Smoke-test size (unit tests).
    S,
    /// Workstation size (integration tests, quick benches).
    W,
    /// The figure-generation size (paper-proportioned footprints).
    A,
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
        })
    }
}

/// The eight NAS Parallel Benchmark kernels of the paper (§V).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kernel {
    /// MultiGrid.
    Mg,
    /// 3-D FFT PDE.
    Ft,
    /// Embarrassingly Parallel.
    Ep,
    /// Conjugate Gradient.
    Cg,
    /// Integer Sort.
    Is,
    /// LU solver (SSOR).
    Lu,
    /// Scalar Penta-diagonal solver.
    Sp,
    /// Block Tri-diagonal solver.
    Bt,
}

impl Kernel {
    /// All kernels in the paper's Fig. 6 order.
    pub const ALL: [Kernel; 8] = [
        Kernel::Mg,
        Kernel::Ft,
        Kernel::Ep,
        Kernel::Cg,
        Kernel::Is,
        Kernel::Lu,
        Kernel::Sp,
        Kernel::Bt,
    ];

    /// Canonical short name.
    pub const fn name(self) -> &'static str {
        match self {
            Kernel::Mg => "MG",
            Kernel::Ft => "FT",
            Kernel::Ep => "EP",
            Kernel::Cg => "CG",
            Kernel::Is => "IS",
            Kernel::Lu => "LU",
            Kernel::Sp => "SP",
            Kernel::Bt => "BT",
        }
    }

    /// Whether `ranks` is a legal process count: powers of two for the
    /// suite, except SP and BT which require square counts (the paper
    /// runs them at 121 = 11²).
    pub fn valid_ranks(self, ranks: usize) -> bool {
        if ranks == 0 {
            return false;
        }
        match self {
            Kernel::Sp | Kernel::Bt => {
                let q = (ranks as f64).sqrt().round() as usize;
                q * q == ranks
            }
            _ => ranks.is_power_of_two(),
        }
    }

    /// Largest legal rank count ≤ `n`.
    pub fn ranks_at_most(self, n: usize) -> usize {
        (1..=n).rev().find(|&r| self.valid_ranks(r)).unwrap_or(1)
    }

    /// Hard upper bound on ranks for a class, where one exists. FT's slab
    /// decomposition needs `ranks ≤ NX` (every rank must own at least one
    /// x-plane after the transpose).
    pub fn max_ranks(self, class: Class) -> Option<usize> {
        match self {
            Kernel::Ft => Some(crate::ft::dims(class).0),
            _ => None,
        }
    }

    /// Largest legal rank count ≤ `n` that the kernel supports at `class`.
    pub fn clamp_ranks(self, n: usize, class: Class) -> usize {
        let n = self.max_ranks(class).map_or(n, |m| n.min(m));
        self.ranks_at_most(n)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one kernel run on one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelResult {
    /// Kernel that ran.
    pub kernel: Kernel,
    /// Whether the kernel's own verification passed.
    pub verified: bool,
    /// A kernel-specific scalar (residual norm, checksum, …) for
    /// cross-run comparisons.
    pub checksum: f64,
}

/// Compiled `y[i] += a * x[i]` over `n` elements.
///
/// `vectorizable` declares whether the loop's data parallelism is visible
/// to the compiler (unit stride, no aliasing) — SIMD-ization then depends
/// on the build's flags.
pub async fn axpy(ctx: &mut RankCtx, a: f64, x: &SimVec<f64>, y: &mut SimVec<f64>, n: usize, vectorizable: bool) {
    debug_assert!(n <= x.len() && n <= y.len());
    let mut i = 0;
    while i + 1 < n {
        let plan = ctx.plan_pair(vectorizable);
        let (x0, x1) = ctx.ld2(x, i, plan).await;
        let (y0, y1) = ctx.ld2(y, i, plan).await;
        ctx.fp_pair(plan, SemOp::MulAdd);
        ctx.st2(y, i, (a * x0 + y0, a * x1 + y1), plan).await;
        i += 2;
    }
    if i < n {
        let xv = ctx.ld(x, i).await;
        let yv = ctx.ld(y, i).await;
        ctx.fp1(SemOp::MulAdd);
        ctx.st(y, i, a * xv + yv).await;
    }
    ctx.overhead(n as u64);
}

/// Compiled dot product over `n` elements.
pub async fn dot(ctx: &mut RankCtx, x: &SimVec<f64>, y: &SimVec<f64>, n: usize, vectorizable: bool) -> f64 {
    debug_assert!(n <= x.len() && n <= y.len());
    let mut acc = 0.0;
    let mut i = 0;
    while i + 1 < n {
        let plan = ctx.plan_pair(vectorizable);
        let (x0, x1) = ctx.ld2(x, i, plan).await;
        let (y0, y1) = ctx.ld2(y, i, plan).await;
        ctx.fp_pair(plan, SemOp::MulAdd);
        acc += x0 * y0 + x1 * y1;
        i += 2;
    }
    if i < n {
        let xv = ctx.ld(x, i).await;
        let yv = ctx.ld(y, i).await;
        ctx.fp1(SemOp::MulAdd);
        acc += xv * yv;
    }
    ctx.overhead(n as u64);
    acc
}

/// Compiled `y[i] = x[i]` over `n` elements (quadword copies when the
/// build SIMD-izes).
pub async fn copy(ctx: &mut RankCtx, x: &SimVec<f64>, y: &mut SimVec<f64>, n: usize) {
    let mut i = 0;
    while i + 1 < n {
        let plan = ctx.plan_pair(true);
        let (x0, x1) = ctx.ld2(x, i, plan).await;
        ctx.st2(y, i, (x0, x1), plan).await;
        i += 2;
    }
    if i < n {
        let xv = ctx.ld(x, i).await;
        ctx.st(y, i, xv).await;
    }
    ctx.overhead(n as u64);
}

/// Compiled `y[i] = a * x[i]` over `n` elements.
pub async fn scale(ctx: &mut RankCtx, a: f64, x: &SimVec<f64>, y: &mut SimVec<f64>, n: usize, vectorizable: bool) {
    let mut i = 0;
    while i + 1 < n {
        let plan = ctx.plan_pair(vectorizable);
        let (x0, x1) = ctx.ld2(x, i, plan).await;
        ctx.fp_pair(plan, SemOp::Mul);
        ctx.st2(y, i, (a * x0, a * x1), plan).await;
        i += 2;
    }
    if i < n {
        let xv = ctx.ld(x, i).await;
        ctx.fp1(SemOp::Mul);
        ctx.st(y, i, a * xv).await;
    }
    ctx.overhead(n as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_and_order_match_fig6() {
        let names: Vec<_> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["MG", "FT", "EP", "CG", "IS", "LU", "SP", "BT"]);
    }

    #[test]
    fn rank_validity_rules() {
        assert!(Kernel::Mg.valid_ranks(128));
        assert!(!Kernel::Mg.valid_ranks(96));
        assert!(Kernel::Sp.valid_ranks(121), "the paper runs SP at 121 ranks");
        assert!(Kernel::Bt.valid_ranks(16));
        assert!(!Kernel::Sp.valid_ranks(128));
        assert!(!Kernel::Ft.valid_ranks(0));
    }

    #[test]
    fn ranks_at_most_picks_the_paper_counts() {
        assert_eq!(Kernel::Mg.ranks_at_most(128), 128);
        assert_eq!(Kernel::Sp.ranks_at_most(128), 121);
        assert_eq!(Kernel::Bt.ranks_at_most(32), 25);
        assert_eq!(Kernel::Cg.ranks_at_most(100), 64);
    }
}
