//! # bgp-nas — the NAS Parallel Benchmark kernels on the simulated machine
//!
//! Rust re-implementations of the eight class-scalable NAS kernels the
//! paper characterizes (§V): MG, FT, EP, CG, IS, LU, SP, BT. Each kernel
//! performs **real arithmetic** (the FFT transforms, CG converges, IS
//! sorts — all self-verified) while every array element access walks the
//! simulated cache hierarchy and every floating-point operation retires
//! through the modeled compiler's instruction selection. The counters
//! the UPC unit collects are therefore causally faithful to the codes
//! the paper measured.
//!
//! Problem classes are scaled (see `common`) so that cycle-level
//! simulation stays tractable while per-node footprints keep the
//! paper-relative proportions that drive the L3 and mode experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bt;
mod cg;
mod common;
mod ep;
mod ft;
mod is;
mod lu;
mod mg;
mod sp;

pub use common::{Class, Kernel, KernelResult};

use bgp_mpi::RankCtx;

impl Kernel {
    /// Run this kernel on the calling rank. Blocking points inside the
    /// kernel (memory walks, messages, collectives) are `.await`
    /// suspensions of the returned future.
    pub async fn run(self, ctx: &mut RankCtx, class: Class) -> KernelResult {
        match self {
            Kernel::Mg => mg::run(ctx, class).await,
            Kernel::Ft => ft::run(ctx, class).await,
            Kernel::Ep => ep::run(ctx, class).await,
            Kernel::Cg => cg::run(ctx, class).await,
            Kernel::Is => is::run(ctx, class).await,
            Kernel::Lu => lu::run(ctx, class).await,
            Kernel::Sp => sp::run(ctx, class).await,
            Kernel::Bt => bt::run(ctx, class).await,
        }
    }

    /// [`Kernel::run`] in the owned-context shape the rank-execution API
    /// expects: take the [`RankCtx`] by value, hand it back with the
    /// result. `Kernel` and [`Class`] are `Copy`, so
    /// `machine.run(move |ctx| kernel.exec(class, ctx))` (or
    /// `bgp_core::run_instrumented(&machine, move |ctx|
    /// kernel.exec(class, ctx))`) needs no cloning in the closure.
    pub async fn exec(self, class: Class, mut ctx: RankCtx) -> (RankCtx, KernelResult) {
        let r = self.run(&mut ctx, class).await;
        (ctx, r)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Single-rank harness for unit-testing kernel internals that need a
    //! live `RankCtx`.
    use bgp_arch::events::CounterMode;
    use bgp_arch::OpMode;
    use bgp_mpi::{CounterPolicy, JobSpec, Machine, RankCtx};

    /// Run `f` on a fresh 1-rank SMP/1 machine and return its result.
    pub(crate) fn single<R, F, Fut>(f: F) -> R
    where
        R: Send,
        F: Fn(RankCtx) -> Fut,
        Fut: std::future::Future<Output = R> + Send,
    {
        let mut spec = JobSpec::new(1, OpMode::Smp1);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode0);
        let m = Machine::new(spec);
        m.run(f).pop().expect("one rank")
    }
}
