//! **LU — SSOR solver**: symmetric successive over-relaxation sweeps of a
//! 7-point operator, 1-D-decomposed in z with the benchmark's hallmark
//! **wavefront pipeline**: the forward sweep's `z` recurrence makes rank
//! `r` wait for rank `r−1`'s freshly updated boundary plane before it may
//! start, and the backward sweep reverses the pipeline. The recurrences
//! also kill vectorization, so LU retires scalar FMAs — its Fig. 6
//! profile.

use crate::common::{Class, Kernel, KernelResult};
use bgp_arch::rng::SimRng;
use bgp_mpi::{bytes_to_f64s, f64s_to_bytes, RankCtx, SemOp, SimVec};

/// Per-rank grid (nx, ny, local nz).
pub(crate) fn dims(class: Class) -> (usize, usize, usize) {
    match class {
        Class::S => (12, 12, 6),
        Class::W => (24, 24, 8),
        Class::A => (48, 48, 24),
    }
}

/// SSOR iterations (one forward + one backward sweep each).
pub(crate) fn iterations(class: Class) -> usize {
    match class {
        Class::S => 3,
        Class::W => 4,
        Class::A => 4,
    }
}

/// Operator: `d·u[p] − Σ_neighbours u[q]`; `d > 6` gives strict diagonal
/// dominance, hence SSOR convergence.
const DIAG: f64 = 8.0;
const INV_DIAG: f64 = 1.0 / DIAG;
/// SSOR relaxation factor.
const OMEGA: f64 = 1.0;

struct Block {
    nx: usize,
    ny: usize,
    nz: usize,
    u: SimVec<f64>,
    rhs: SimVec<f64>,
}

impl Block {
    #[inline]
    fn idx(&self, x: usize, y: usize, z_with_halo: usize) -> usize {
        (z_with_halo * self.ny + y) * self.nx + x
    }
}

/// Receive a z plane into the halo slot `z` of `u`.
async fn recv_plane(ctx: &mut RankCtx, b: &mut Block, from: usize, tag: u32, z: usize) {
    let data = bytes_to_f64s(&ctx.recv(Some(from), tag).await);
    let plane = b.nx * b.ny;
    let base = z * plane;
    b.u.as_mut_slice()[base..base + data.len()].copy_from_slice(&data);
    ctx.st_range(&mut b.u, base..base + data.len()).await;
}

/// Send the interior z plane `z` of `u` to `to`.
async fn send_plane(ctx: &mut RankCtx, b: &Block, to: usize, tag: u32, z: usize) {
    let plane = b.nx * b.ny;
    let base = z * plane;
    ctx.ld_range(&b.u, base..base + plane).await;
    let data = b.u.as_slice()[base..base + plane].to_vec();
    ctx.send(to, tag, f64s_to_bytes(&data)).await;
}

/// One wavefront-pipelined SSOR sweep. `forward` chooses the direction.
async fn sweep(ctx: &mut RankCtx, b: &mut Block, forward: bool, tag: u32) {
    let (rank, size) = (ctx.rank(), ctx.size());
    let (nx, ny, nz) = (b.nx, b.ny, b.nz);
    if forward {
        if rank > 0 {
            recv_plane(ctx, b, rank - 1, tag, 0).await;
        }
    } else if rank + 1 < size {
        recv_plane(ctx, b, rank + 1, tag, nz + 1).await;
    }
    let zs: Vec<usize> = if forward {
        (1..=nz).collect()
    } else {
        (1..=nz).rev().collect()
    };
    for z in zs {
        for yy in 0..ny {
            let y = if forward { yy } else { ny - 1 - yy };
            for xx in 0..nx {
                let x = if forward { xx } else { nx - 1 - xx };
                let idx = b.idx(x, y, z);
                let u0 = ctx.ld(&b.u, idx).await;
                let f = ctx.ld(&b.rhs, idx).await;
                let xm = if x > 0 {
                    ctx.ld(&b.u, idx - 1).await
                } else {
                    0.0
                };
                let xp = if x + 1 < nx {
                    ctx.ld(&b.u, idx + 1).await
                } else {
                    0.0
                };
                let ym = if y > 0 {
                    ctx.ld(&b.u, b.idx(x, y - 1, z)).await
                } else {
                    0.0
                };
                let yp = if y + 1 < ny {
                    ctx.ld(&b.u, b.idx(x, y + 1, z)).await
                } else {
                    0.0
                };
                let zm = ctx.ld(&b.u, b.idx(x, y, z - 1)).await;
                let zp = ctx.ld(&b.u, b.idx(x, y, z + 1)).await;
                // Recurrence-bound scalar arithmetic (Gauss–Seidel uses
                // freshly updated neighbours — no SIMD possible). The
                // real LU multiplies 5×5 jacobian blocks here; the charge
                // is FMA-dominated accordingly.
                ctx.fp1(SemOp::Add);
                ctx.fp1(SemOp::Add);
                ctx.fp_scalar_n(SemOp::MulAdd, 5);
                let s = xm + xp + ym + yp + zm + zp;
                let r = f + s - DIAG * u0;
                ctx.st(&mut b.u, idx, u0 + OMEGA * INV_DIAG * r).await;
            }
        }
        ctx.overhead((nx * ny) as u64);
    }
    if forward {
        if rank + 1 < size {
            send_plane(ctx, b, rank + 1, tag, nz).await;
        }
    } else if rank > 0 {
        send_plane(ctx, b, rank - 1, tag, 1).await;
    }
}

/// Residual ‖rhs − A u‖² (local part); needs fresh halos.
async fn residual(ctx: &mut RankCtx, b: &mut Block) -> f64 {
    let (rank, size) = (ctx.rank(), ctx.size());
    // Plain halo exchange (not pipelined): both planes both ways.
    if rank + 1 < size {
        send_plane(ctx, b, rank + 1, 90, b.nz).await;
    }
    if rank > 0 {
        recv_plane(ctx, b, rank - 1, 90, 0).await;
        send_plane(ctx, b, rank - 1, 91, 1).await;
    }
    if rank + 1 < size {
        recv_plane(ctx, b, rank + 1, 91, b.nz + 1).await;
    }
    let (nx, ny, nz) = (b.nx, b.ny, b.nz);
    let mut norm = 0.0;
    for z in 1..=nz {
        for y in 0..ny {
            for x in 0..nx {
                let idx = b.idx(x, y, z);
                let u0 = ctx.ld(&b.u, idx).await;
                let f = ctx.ld(&b.rhs, idx).await;
                let xm = if x > 0 {
                    ctx.ld(&b.u, idx - 1).await
                } else {
                    0.0
                };
                let xp = if x + 1 < nx {
                    ctx.ld(&b.u, idx + 1).await
                } else {
                    0.0
                };
                let ym = if y > 0 {
                    ctx.ld(&b.u, b.idx(x, y - 1, z)).await
                } else {
                    0.0
                };
                let yp = if y + 1 < ny {
                    ctx.ld(&b.u, b.idx(x, y + 1, z)).await
                } else {
                    0.0
                };
                let zm = ctx.ld(&b.u, b.idx(x, y, z - 1)).await;
                let zp = ctx.ld(&b.u, b.idx(x, y, z + 1)).await;
                ctx.fp1(SemOp::Add);
                ctx.fp1(SemOp::Add);
                ctx.fp_scalar_n(SemOp::MulAdd, 5); // block-op charge
                ctx.fp1(SemOp::MulAdd); // norm accumulation
                let r = f + (xm + xp + ym + yp + zm + zp) - DIAG * u0;
                norm += r * r;
            }
        }
        ctx.overhead((nx * ny) as u64);
    }
    norm
}

/// Run LU on this rank.
pub(crate) async fn run(ctx: &mut RankCtx, class: Class) -> KernelResult {
    let (nx, ny, nz) = dims(class);
    let n = nx * ny * (nz + 2);
    let mut b = Block {
        nx,
        ny,
        nz,
        u: ctx.alloc(n),
        rhs: ctx.alloc(n),
    };
    let mut rng = SimRng::seed_from_u64(0x4c55 ^ (ctx.rank() as u64) << 8);
    for i in 0..n {
        ctx.st(&mut b.u, i, 0.0).await;
    }
    for z in 1..=nz {
        for y in 0..ny {
            for x in 0..nx {
                let idx = b.idx(x, y, z);
                let v: f64 = rng.gen_range(-1.0..1.0);
                ctx.st(&mut b.rhs, idx, v).await;
            }
        }
    }
    ctx.overhead(n as u64);

    let initial = {
        let local = residual(ctx, &mut b).await;
        ctx.allreduce_sum_f64(&[local]).await[0].sqrt()
    };
    let mut norms = Vec::new();
    for it in 0..iterations(class) {
        sweep(ctx, &mut b, true, 100 + 2 * it as u32).await;
        sweep(ctx, &mut b, false, 101 + 2 * it as u32).await;
        let local = residual(ctx, &mut b).await;
        norms.push(ctx.allreduce_sum_f64(&[local]).await[0].sqrt());
    }
    let monotone = norms.windows(2).all(|w| w[1] <= w[0] * 1.0001);
    let final_norm = *norms.last().expect("at least one iteration");
    KernelResult {
        kernel: Kernel::Lu,
        verified: monotone && final_norm < 0.8 * initial && final_norm.is_finite(),
        checksum: final_norm,
    }
}
