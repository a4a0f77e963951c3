//! **EP — Embarrassingly Parallel**: generate Gaussian deviates by the
//! Marsaglia polar method and tabulate them in annuli. No communication
//! except the final reductions; the FP profile is scalar-dominated
//! (square/accumulate multiplies plus the Newton iterations behind
//! `ln`/`sqrt`), with essentially no SIMD-izable loops — matching EP's
//! single-FMA-heavy bar in the paper's Fig. 6.

use crate::common::{Class, Kernel, KernelResult};
use bgp_arch::rng::SimRng;
use bgp_mpi::{RankCtx, ReduceOp, SemOp};

/// Gaussian pairs attempted per rank.
pub(crate) fn samples_per_rank(class: Class) -> usize {
    match class {
        Class::S => 1 << 13,
        Class::W => 1 << 15,
        Class::A => 1 << 17,
    }
}

const ANNULI: usize = 10;
const CHUNK: usize = 256;

/// Deterministic per-rank seed (the NAS EP seed schedule analog).
fn seed(rank: usize) -> u64 {
    0x2718_2845_9045_2353u64.wrapping_add((rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One rank's EP computation, uninstrumented — the verification oracle.
fn oracle(rank: usize, n: usize) -> (f64, f64, [u64; ANNULI], u64) {
    let mut rng = SimRng::seed_from_u64(seed(rank));
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    let mut q = [0u64; ANNULI];
    let mut accepted = 0u64;
    for _ in 0..n {
        let x: f64 = rng.gen_range(-1.0..1.0);
        let y: f64 = rng.gen_range(-1.0..1.0);
        let t = x * x + y * y;
        if t <= 1.0 && t > 0.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let (gx, gy) = (x * f, y * f);
            sx += gx;
            sy += gy;
            let l = (gx.abs().max(gy.abs()) as usize).min(ANNULI - 1);
            q[l] += 1;
            accepted += 1;
        }
    }
    (sx, sy, q, accepted)
}

/// Run EP on this rank.
pub(crate) async fn run(ctx: &mut RankCtx, class: Class) -> KernelResult {
    let n = samples_per_rank(class);
    let mut rng = SimRng::seed_from_u64(seed(ctx.rank()));
    let mut q = ctx.alloc::<u64>(ANNULI);
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    let mut accepted_total = 0u64;

    let mut done = 0;
    while done < n {
        let chunk = CHUNK.min(n - done);
        let mut accepted = 0u64;
        for _ in 0..chunk {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            let t = x * x + y * y;
            if t <= 1.0 && t > 0.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                let (gx, gy) = (x * f, y * f);
                sx += gx;
                sy += gy;
                let l = (gx.abs().max(gy.abs()) as usize).min(ANNULI - 1);
                // Tabulation: read-modify-write of the annulus counter.
                let c = ctx.ld(&q, l).await;
                ctx.st(&mut q, l, c + 1).await;
                accepted += 1;
            }
        }
        // Charge the chunk's arithmetic in batches (acceptance-dependent
        // control flow makes the loop unvectorizable, hence all-scalar):
        // per attempt: 2 squares + 1 add + RNG integer work; per accepted
        // pair: one ln + one sqrt library evaluation (whose cost depends
        // heavily on the build — the main reason the paper sees EP gain
        // up to 60% from compilation), the -2t scaling divide, 2 scaling
        // multiplies and 2 accumulate adds.
        ctx.fp_scalar_n(SemOp::Mul, 2 * chunk as u64 + 2 * accepted);
        ctx.fp_scalar_n(SemOp::Add, chunk as u64 + 2 * accepted);
        ctx.libm_calls(2 * accepted);
        ctx.fp_scalar_n(SemOp::Div, accepted);
        ctx.int_ops(8 * chunk as u64);
        ctx.overhead(chunk as u64);
        accepted_total += accepted;
        done += chunk;
    }

    // Global sums, exactly like the benchmark's final reductions.
    let sums = ctx
        .allreduce_sum_f64(&[sx, sy, accepted_total as f64])
        .await;
    let counts = ctx
        .allreduce(
            ReduceOp::SumU64,
            bgp_mpi::u64s_to_bytes(&(0..ANNULI).map(|i| q.raw(i)).collect::<Vec<_>>()),
        )
        .await;
    let counts = bgp_mpi::bytes_to_u64s(&counts);

    // Verification: local recomputation matches, and the global annulus
    // counts account for every accepted pair.
    let (osx, osy, oq, oacc) = oracle(ctx.rank(), n);
    let local_ok =
        osx == sx && osy == sy && oacc == accepted_total && (0..ANNULI).all(|i| oq[i] == q.raw(i));
    let global_ok = counts.iter().sum::<u64>() == sums[2] as u64;
    KernelResult {
        kernel: Kernel::Ep,
        verified: local_ok && global_ok,
        checksum: sums[0] + sums[1],
    }
}
