//! **SP — Scalar Penta-diagonal solver**: ADI factorization
//! `P_x P_y P_z u = b` where each factor is a symmetric pentadiagonal
//! operator along one grid direction; the solver runs banded forward
//! elimination / back substitution along every line. The x and y lines
//! are rank-local; the z lines span ranks and are solved with the
//! benchmark's software pipeline (eliminate → pass boundary state →
//! continue). Line recurrences are inherently scalar, so SP's Fig. 6
//! profile is single-FMA with a visible divide share.
//!
//! Verification is manufactured-solution: pick `u*`, apply the three
//! operators to form `b`, solve, and compare against `u*`.

use crate::common::{Class, Kernel, KernelResult};
use bgp_arch::rng::SimRng;
use bgp_mpi::{bytes_to_f64s, f64s_to_bytes, RankCtx, SemOp, SimVec};

/// Per-rank grid (nx, ny, local nz).
pub(crate) fn dims(class: Class) -> (usize, usize, usize) {
    match class {
        Class::S => (8, 8, 4),
        Class::W => (16, 16, 8),
        Class::A => (32, 32, 8),
    }
}

/// Band coefficients of each factor: (diagonal, ±1, ±2). Strictly
/// diagonally dominant.
pub(crate) const D0: f64 = 3.0;
/// First off-diagonal coefficient.
pub(crate) const C1: f64 = -0.5;
/// Second off-diagonal coefficient.
pub(crate) const C2: f64 = -0.125;

struct Block {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Solution / working field, interior only (no halo planes; the
    /// z-direction passes state through messages instead).
    u: SimVec<f64>,
}

impl Block {
    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.ny + y) * self.nx + x
    }
}

/// The shared elimination tables for a line of length `len` with the
/// constant band: modified diagonals `dd`, `e1`, `e2` and the multipliers
/// `m1`, `m2` per row. Line-independent, computed once per direction.
struct Elim {
    dd: Vec<f64>,
    e1: Vec<f64>,
    e2: Vec<f64>,
    m1: Vec<f64>,
    m2: Vec<f64>,
}

async fn factor(ctx: &mut RankCtx, len: usize) -> Elim {
    let mut dd = vec![D0; len];
    let mut e1 = vec![C1; len];
    let mut e2 = vec![C2; len];
    let mut m1 = vec![0.0; len];
    let mut m2 = vec![0.0; len];
    if len >= 1 {
        e1[len - 1] = 0.0;
        e2[len - 1] = 0.0;
    }
    if len >= 2 {
        e2[len - 2] = 0.0;
    }
    for k in 0..len {
        let mut a1 = if k >= 1 { C1 } else { 0.0 };
        if k >= 2 {
            let m = C2 / dd[k - 2];
            m2[k] = m;
            a1 -= m * e1[k - 2];
            dd[k] -= m * e2[k - 2];
        }
        if k >= 1 {
            let m = a1 / dd[k - 1];
            m1[k] = m;
            dd[k] -= m * e1[k - 1];
            if k < len - 1 {
                e1[k] -= m * e2[k - 1];
            }
        }
    }
    // The factorization itself: a handful of divides and FMAs per row.
    ctx.fp_scalar_n(SemOp::Div, 2 * len as u64);
    ctx.fp_scalar_n(SemOp::MulAdd, 4 * len as u64);
    ctx.overhead(len as u64);
    Elim { dd, e1, e2, m1, m2 }
}

/// Solve the pentadiagonal system along one rank-local line:
/// elements at `base + i*stride` of `b.u`, length `len`.
async fn solve_local_line(ctx: &mut RankCtx, b: &mut Block, base: usize, stride: usize, el: &Elim) {
    let len = el.dd.len();
    // Forward elimination on the right-hand side (in place).
    let mut prev2 = 0.0;
    let mut prev1 = 0.0;
    for k in 0..len {
        let i = base + k * stride;
        let mut y = ctx.ld(&b.u, i).await;
        if k >= 2 {
            y -= el.m2[k] * prev2;
        }
        if k >= 1 {
            y -= el.m1[k] * prev1;
        }
        // Per-point solver cost (the real code re-derives its multipliers
        // per point because the coefficients vary): 1 divide + 6 FMA.
        ctx.fp1(SemOp::Div);
        ctx.fp_scalar_n(SemOp::MulAdd, 6);
        ctx.st(&mut b.u, i, y).await;
        prev2 = prev1;
        prev1 = y;
    }
    // Back substitution.
    let mut up1 = 0.0;
    let mut up2 = 0.0;
    for k in (0..len).rev() {
        let i = base + k * stride;
        let mut y = ctx.ld(&b.u, i).await;
        y -= el.e1[k] * up1 + el.e2[k] * up2;
        y /= el.dd[k];
        ctx.fp_scalar_n(SemOp::MulAdd, 2);
        ctx.fp1(SemOp::Mul); // reciprocal multiply
        ctx.st(&mut b.u, i, y).await;
        up2 = up1;
        up1 = y;
    }
    ctx.overhead(2 * len as u64);
}

/// Apply the pentadiagonal operator along a rank-local direction
/// (`u ← P u`). Unit-stride application is vectorizable.
async fn apply_local(
    ctx: &mut RankCtx,
    b: &mut Block,
    base: usize,
    stride: usize,
    len: usize,
    scratch: &mut Vec<f64>,
) {
    scratch.clear();
    for k in 0..len {
        scratch.push(ctx.ld(&b.u, base + k * stride).await);
    }
    for k in 0..len {
        let mut v = D0 * scratch[k];
        if k >= 1 {
            v += C1 * scratch[k - 1];
        }
        if k + 1 < len {
            v += C1 * scratch[k + 1];
        }
        if k >= 2 {
            v += C2 * scratch[k - 2];
        }
        if k + 2 < len {
            v += C2 * scratch[k + 2];
        }
        if k % 2 == 0 {
            let plan = ctx.plan_pair(true);
            ctx.fp_pair(plan, SemOp::Mul);
            ctx.fp_pair(plan, SemOp::MulAdd);
            ctx.fp_pair(plan, SemOp::MulAdd);
        }
        ctx.st(&mut b.u, base + k * stride, v).await;
    }
    ctx.overhead(len as u64);
}

/// Apply the operator along the **distributed** z direction: exchange two
/// boundary planes each way, then apply locally with the halo values.
async fn apply_z(ctx: &mut RankCtx, b: &mut Block) {
    let (rank, size) = (ctx.rank(), ctx.size());
    let (nx, ny, nz) = (b.nx, b.ny, b.nz);
    let plane = nx * ny;
    async fn pack2(ctx: &mut RankCtx, b: &Block, z0: usize) -> Vec<f64> {
        // Two full planes starting at z0: row-major, so a unit-stride run.
        let plane = b.nx * b.ny;
        let base = z0 * plane;
        ctx.ld_range(&b.u, base..base + 2 * plane).await;
        b.u.as_slice()[base..base + 2 * plane].to_vec()
    }
    // Exchange two planes down-edge and up-edge.
    let mut below = vec![0.0; 2 * plane];
    let mut above = vec![0.0; 2 * plane];
    if rank + 1 < size {
        let top = pack2(ctx, b, nz - 2).await;
        ctx.send(rank + 1, 60, f64s_to_bytes(&top)).await;
    }
    if rank > 0 {
        below = bytes_to_f64s(&ctx.recv(Some(rank - 1), 60).await);
        let bot = pack2(ctx, b, 0).await;
        ctx.send(rank - 1, 61, f64s_to_bytes(&bot)).await;
    }
    if rank + 1 < size {
        above = bytes_to_f64s(&ctx.recv(Some(rank + 1), 61).await);
    }
    let at = |below: &[f64],
              above: &[f64],
              b: &Block,
              vals: &Vec<Vec<f64>>,
              x: usize,
              y: usize,
              gz: i64,
              z0: i64,
              nzl: i64|
     -> f64 {
        if gz < 0 || gz >= (z0 + nzl) && above.is_empty() {
            0.0
        } else if gz < z0 {
            let off = gz - (z0 - 2);
            if off < 0 {
                0.0
            } else {
                below[(off as usize) * b.nx * b.ny + y * b.nx + x]
            }
        } else if gz >= z0 + nzl {
            let off = gz - (z0 + nzl);
            if off >= 2 {
                0.0
            } else {
                above[(off as usize) * b.nx * b.ny + y * b.nx + x]
            }
        } else {
            vals[(gz - z0) as usize][y * b.nx + x]
        }
    };
    // Snapshot the local planes (operator application needs the originals).
    let mut vals: Vec<Vec<f64>> = Vec::with_capacity(nz);
    for z in 0..nz {
        ctx.ld_range(&b.u, z * plane..(z + 1) * plane).await;
        vals.push(b.u.as_slice()[z * plane..(z + 1) * plane].to_vec());
    }
    let z0 = rank as i64 * nz as i64;
    let nzg = size as i64 * nz as i64;
    for z in 0..nz {
        let gz = z0 + z as i64;
        for y in 0..ny {
            for x in 0..nx {
                let mut v = D0 * at(&below, &above, b, &vals, x, y, gz, z0, nz as i64);
                for (dz, c) in [(-1i64, C1), (1, C1), (-2, C2), (2, C2)] {
                    let zz = gz + dz;
                    if zz >= 0 && zz < nzg {
                        v += c * at(&below, &above, b, &vals, x, y, zz, z0, nz as i64);
                    }
                }
                if x % 2 == 0 {
                    let plan = ctx.plan_pair(true);
                    ctx.fp_pair(plan, SemOp::Mul);
                    ctx.fp_pair(plan, SemOp::MulAdd);
                    ctx.fp_pair(plan, SemOp::MulAdd);
                }
                let idx = b.idx(x, y, z);
                ctx.st(&mut b.u, idx, v).await;
            }
        }
        ctx.overhead(plane as u64);
    }
}

/// Solve along the distributed z direction with the pipelined banded
/// elimination: the rhs recurrence state (last two eliminated planes)
/// flows up the ranks, the back-substitution state flows down.
async fn solve_z(ctx: &mut RankCtx, b: &mut Block, el: &Elim) {
    let (rank, size) = (ctx.rank(), ctx.size());
    let (nx, ny, nz) = (b.nx, b.ny, b.nz);
    let plane = nx * ny;
    let z0 = rank * nz;

    // ---- Forward elimination (pipeline up) ----
    let mut prev: Vec<f64> = vec![0.0; 2 * plane]; // [prev2 | prev1]
    if rank > 0 {
        prev = bytes_to_f64s(&ctx.recv(Some(rank - 1), 70).await);
    }
    for z in 0..nz {
        let k = z0 + z;
        for y in 0..ny {
            for x in 0..nx {
                let i = b.idx(x, y, z);
                let pi = y * nx + x;
                let mut v = ctx.ld(&b.u, i).await;
                if k >= 2 {
                    v -= el.m2[k] * prev[pi];
                }
                if k >= 1 {
                    v -= el.m1[k] * prev[plane + pi];
                }
                ctx.fp1(SemOp::Div);
                ctx.fp_scalar_n(SemOp::MulAdd, 6);
                ctx.st(&mut b.u, i, v).await;
                prev[pi] = prev[plane + pi];
                prev[plane + pi] = v;
            }
        }
        ctx.overhead(plane as u64);
    }
    if rank + 1 < size {
        ctx.send(rank + 1, 70, f64s_to_bytes(&prev)).await;
    }

    // ---- Back substitution (pipeline down) ----
    let mut up: Vec<f64> = vec![0.0; 2 * plane]; // [up1 | up2]
    if rank + 1 < size {
        up = bytes_to_f64s(&ctx.recv(Some(rank + 1), 71).await);
    }
    for z in (0..nz).rev() {
        let k = z0 + z;
        for y in 0..ny {
            for x in 0..nx {
                let i = b.idx(x, y, z);
                let pi = y * nx + x;
                let mut v = ctx.ld(&b.u, i).await;
                v -= el.e1[k] * up[pi] + el.e2[k] * up[plane + pi];
                v /= el.dd[k];
                ctx.fp_scalar_n(SemOp::MulAdd, 2);
                ctx.fp1(SemOp::Mul);
                ctx.st(&mut b.u, i, v).await;
                up[plane + pi] = up[pi];
                up[pi] = v;
            }
        }
        ctx.overhead(plane as u64);
    }
    if rank > 0 {
        ctx.send(rank - 1, 71, f64s_to_bytes(&up)).await;
    }
}

/// Run SP on this rank.
pub(crate) async fn run(ctx: &mut RankCtx, class: Class) -> KernelResult {
    let (nx, ny, nz) = dims(class);
    let size = ctx.size();
    let n = nx * ny * nz;
    let mut b = Block {
        nx,
        ny,
        nz,
        u: ctx.alloc(n),
    };

    // Manufactured solution u*.
    let mut rng = SimRng::seed_from_u64(0x5350 ^ (ctx.rank() as u64) << 4);
    let mut exact = Vec::with_capacity(n);
    for i in 0..n {
        let v: f64 = rng.gen_range(-1.0..1.0);
        exact.push(v);
        ctx.st(&mut b.u, i, v).await;
    }
    ctx.overhead(n as u64);

    // b = P_x P_y P_z u*  (apply z, then y, then x).
    let mut scratch = Vec::new();
    apply_z(ctx, &mut b).await;
    for z in 0..nz {
        for x in 0..nx {
            let base = b.idx(x, 0, z);
            apply_local(ctx, &mut b, base, nx, ny, &mut scratch).await;
        }
    }
    for z in 0..nz {
        for y in 0..ny {
            let base = b.idx(0, y, z);
            apply_local(ctx, &mut b, base, 1, nx, &mut scratch).await;
        }
    }

    // ADI solve: x lines, y lines, then the pipelined z lines.
    let el_x = factor(ctx, nx).await;
    let el_y = factor(ctx, ny).await;
    let el_z = factor(ctx, nz * size).await;
    for z in 0..nz {
        for y in 0..ny {
            let base = b.idx(0, y, z);
            solve_local_line(ctx, &mut b, base, 1, &el_x).await;
        }
    }
    for z in 0..nz {
        for x in 0..nx {
            let base = b.idx(x, 0, z);
            solve_local_line(ctx, &mut b, base, nx, &el_y).await;
        }
    }
    solve_z(ctx, &mut b, &el_z).await;

    // Verification: recovered field matches the manufactured solution.
    let mut max_err = 0.0f64;
    for (i, &want) in exact.iter().enumerate() {
        max_err = max_err.max((b.u.raw(i) - want).abs());
    }
    let global = bytes_to_f64s(
        &ctx.allreduce(bgp_mpi::ReduceOp::MaxF64, f64s_to_bytes(&[max_err]))
            .await,
    )[0];
    KernelResult {
        kernel: Kernel::Sp,
        verified: global < 1e-8,
        checksum: global,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::single;

    /// Dense reference solve of the pentadiagonal system (Gaussian
    /// elimination with partial pivoting on the full matrix).
    fn dense_solve(len: usize, rhs: &[f64]) -> Vec<f64> {
        let mut a = vec![vec![0.0f64; len + 1]; len];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = D0;
            if i >= 1 {
                row[i - 1] = C1;
            }
            if i + 1 < len {
                row[i + 1] = C1;
            }
            if i >= 2 {
                row[i - 2] = C2;
            }
            if i + 2 < len {
                row[i + 2] = C2;
            }
            row[len] = rhs[i];
        }
        for col in 0..len {
            let piv = (col..len)
                .max_by(|&x, &y| a[x][col].abs().partial_cmp(&a[y][col].abs()).unwrap())
                .unwrap();
            a.swap(col, piv);
            for r in col + 1..len {
                let (head, tail) = a.split_at_mut(r);
                let (pivot_row, row) = (&head[col], &mut tail[0]);
                let m = row[col] / pivot_row[col];
                for c in col..=len {
                    row[c] -= m * pivot_row[c];
                }
            }
        }
        let mut x = vec![0.0; len];
        for r in (0..len).rev() {
            let mut acc = a[r][len];
            for c in r + 1..len {
                acc -= a[r][c] * x[c];
            }
            x[r] = acc / a[r][r];
        }
        x
    }

    #[test]
    fn banded_elimination_matches_dense_reference() {
        for len in [1usize, 2, 3, 5, 16, 33] {
            let rhs: Vec<f64> = (0..len).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
            let got = single(|mut ctx| {
                let rhs = rhs.clone();
                async move {
                    let ctx = &mut ctx;
                    let el = factor(ctx, len).await;
                    let mut b = Block {
                        nx: len,
                        ny: 1,
                        nz: 1,
                        u: ctx.alloc(len),
                    };
                    for (i, &v) in rhs.iter().enumerate() {
                        ctx.st(&mut b.u, i, v).await;
                    }
                    solve_local_line(ctx, &mut b, 0, 1, &el).await;
                    (0..len).map(|i| b.u.raw(i)).collect::<Vec<_>>()
                }
            });
            let want = dense_solve(
                len,
                &(0..len)
                    .map(|i| ((i * 7) % 13) as f64 - 6.0)
                    .collect::<Vec<_>>(),
            );
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-10, "len {len}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn strided_lines_solve_identically_to_contiguous() {
        let len = 8;
        let rhs: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
        let contiguous = single(|mut ctx| {
            let rhs = rhs.clone();
            async move {
                let ctx = &mut ctx;
                let el = factor(ctx, len).await;
                let mut b = Block {
                    nx: len,
                    ny: 1,
                    nz: 1,
                    u: ctx.alloc(len),
                };
                for (i, &v) in rhs.iter().enumerate() {
                    ctx.st(&mut b.u, i, v).await;
                }
                solve_local_line(ctx, &mut b, 0, 1, &el).await;
                (0..len).map(|i| b.u.raw(i)).collect::<Vec<_>>()
            }
        });
        let strided = single(|mut ctx| {
            let rhs = rhs.clone();
            async move {
                let ctx = &mut ctx;
                let el = factor(ctx, len).await;
                // Same system living along a stride-4 line of a bigger array.
                let mut b = Block {
                    nx: 4,
                    ny: len,
                    nz: 1,
                    u: ctx.alloc(4 * len),
                };
                for (i, &v) in rhs.iter().enumerate() {
                    ctx.st(&mut b.u, 2 + 4 * i, v).await;
                }
                solve_local_line(ctx, &mut b, 2, 4, &el).await;
                (0..len).map(|i| b.u.raw(2 + 4 * i)).collect::<Vec<_>>()
            }
        });
        assert_eq!(contiguous, strided);
    }

    #[test]
    fn apply_then_solve_is_identity() {
        let len = 12;
        let original: Vec<f64> = (0..len).map(|i| ((i * 5) % 9) as f64 * 0.5 - 2.0).collect();
        let got = single(|mut ctx| {
            let original = original.clone();
            async move {
                let ctx = &mut ctx;
                let el = factor(ctx, len).await;
                let mut b = Block {
                    nx: len,
                    ny: 1,
                    nz: 1,
                    u: ctx.alloc(len),
                };
                for (i, &v) in original.iter().enumerate() {
                    ctx.st(&mut b.u, i, v).await;
                }
                let mut scratch = Vec::new();
                apply_local(ctx, &mut b, 0, 1, len, &mut scratch).await;
                solve_local_line(ctx, &mut b, 0, 1, &el).await;
                (0..len).map(|i| b.u.raw(i)).collect::<Vec<_>>()
            }
        });
        for (g, w) in got.iter().zip(&original) {
            assert!((g - w).abs() < 1e-10, "{got:?} vs {original:?}");
        }
    }
}
