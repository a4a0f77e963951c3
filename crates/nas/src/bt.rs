//! **BT — Block Tri-diagonal solver**: the ADI skeleton of SP, but each
//! grid point carries a small vector of unknowns and the line systems are
//! block-tridiagonal, solved by block forward elimination with dense
//! little matrix-matrix/matrix-vector kernels per point. That dense block
//! arithmetic is why BT's Fig. 6 profile is overwhelmingly scalar FMA.
//!
//! Scaling note: NAS BT couples 5 unknowns per point; this reproduction
//! uses 3×3 blocks (same solver structure, ~2.8× fewer flops per point)
//! — recorded in DESIGN.md as a documented substitution.

use crate::common::{Class, Kernel, KernelResult};
use bgp_arch::rng::SimRng;
use bgp_mpi::{bytes_to_f64s, f64s_to_bytes, RankCtx, SemOp, SimVec};

/// Unknowns per grid point.
pub(crate) const NB: usize = 3;

/// Per-rank grid (nx, ny, local nz).
pub(crate) fn dims(class: Class) -> (usize, usize, usize) {
    match class {
        Class::S => (6, 6, 4),
        Class::W => (12, 12, 6),
        Class::A => (24, 24, 8),
    }
}

type Mat = [[f64; NB]; NB];
type Vec3 = [f64; NB];

/// Off-diagonal block (used on both sides: the operator is symmetric).
fn mat_a() -> Mat {
    [
        [-0.25, -0.05, 0.0],
        [-0.05, -0.25, -0.05],
        [0.0, -0.05, -0.25],
    ]
}

/// Diagonal block: strongly block-diagonally dominant.
fn mat_b() -> Mat {
    [[3.0, 0.1, 0.0], [0.1, 3.0, 0.1], [0.0, 0.1, 3.0]]
}

fn mat_mul(a: &Mat, b: &Mat) -> Mat {
    let mut c = [[0.0; NB]; NB];
    for i in 0..NB {
        for j in 0..NB {
            for (k, bk) in b.iter().enumerate() {
                c[i][j] += a[i][k] * bk[j];
            }
        }
    }
    c
}

fn mat_sub(a: &Mat, b: &Mat) -> Mat {
    let mut c = *a;
    for i in 0..NB {
        for j in 0..NB {
            c[i][j] -= b[i][j];
        }
    }
    c
}

fn mat_vec(a: &Mat, v: &Vec3) -> Vec3 {
    let mut out = [0.0; NB];
    for i in 0..NB {
        for k in 0..NB {
            out[i] += a[i][k] * v[k];
        }
    }
    out
}

/// Direct 3×3 inverse via the adjugate.
fn mat_inv(a: &Mat) -> Mat {
    let m = a;
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    assert!(det.abs() > 1e-12, "singular diagonal block");
    let inv_det = 1.0 / det;
    let mut inv = [[0.0; NB]; NB];
    inv[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
    inv[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
    inv[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
    inv[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
    inv[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
    inv[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
    inv[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
    inv[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
    inv[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
    inv
}

/// Per-row solver tables for a block line of length `len`:
/// `einv[k] = D_k⁻¹` and `e[k] = D_k⁻¹ C`, streamed from memory during
/// the per-line solves like the benchmark's factored jacobians.
struct BlockElim {
    len: usize,
    /// `NB*NB` doubles per row: D_k⁻¹.
    dinv: SimVec<f64>,
    /// `NB*NB` doubles per row: E_k.
    e: SimVec<f64>,
}

async fn factor(ctx: &mut RankCtx, len: usize) -> BlockElim {
    let a = mat_a();
    let bmat = mat_b();
    let mut dinv = ctx.alloc::<f64>(len * NB * NB);
    let mut e = ctx.alloc::<f64>(len * NB * NB);
    let mut e_prev = [[0.0; NB]; NB];
    for k in 0..len {
        let d = if k == 0 {
            bmat
        } else {
            mat_sub(&bmat, &mat_mul(&a, &e_prev))
        };
        let di = mat_inv(&d);
        let ek = if k + 1 < len {
            mat_mul(&di, &a)
        } else {
            [[0.0; NB]; NB]
        };
        for i in 0..NB {
            for j in 0..NB {
                ctx.st(&mut dinv, (k * NB + i) * NB + j, di[i][j]).await;
                ctx.st(&mut e, (k * NB + i) * NB + j, ek[i][j]).await;
            }
        }
        e_prev = ek;
        // Block factor cost: one matmul, one inverse, one matmul.
        ctx.fp_scalar_n(SemOp::MulAdd, 2 * (NB * NB * NB) as u64 + 30);
        ctx.fp1(SemOp::Div);
    }
    ctx.overhead(len as u64);
    BlockElim { len, dinv, e }
}

impl BlockElim {
    async fn dinv_at(&self, ctx: &mut RankCtx, k: usize) -> Mat {
        let mut m = [[0.0; NB]; NB];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, el) in row.iter_mut().enumerate() {
                *el = ctx.ld(&self.dinv, (k * NB + i) * NB + j).await;
            }
        }
        m
    }

    async fn e_at(&self, ctx: &mut RankCtx, k: usize) -> Mat {
        let mut m = [[0.0; NB]; NB];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, el) in row.iter_mut().enumerate() {
                *el = ctx.ld(&self.e, (k * NB + i) * NB + j).await;
            }
        }
        m
    }
}

struct Block {
    nx: usize,
    ny: usize,
    nz: usize,
    /// `NB` unknowns per point, point-major.
    u: SimVec<f64>,
}

impl Block {
    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (((z * self.ny + y) * self.nx) + x) * NB
    }
}

async fn ld_vec(ctx: &mut RankCtx, u: &SimVec<f64>, base: usize) -> Vec3 {
    let plan = ctx.plan_pair(false);
    let (a, b) = ctx.ld2(u, base, plan).await;
    let c = ctx.ld(u, base + 2).await;
    [a, b, c]
}

async fn st_vec(ctx: &mut RankCtx, u: &mut SimVec<f64>, base: usize, v: &Vec3) {
    let plan = ctx.plan_pair(false);
    ctx.st2(u, base, (v[0], v[1]), plan).await;
    ctx.st(u, base + 2, v[2]).await;
}

/// Solve the block-tridiagonal system along a local line.
async fn solve_local_line(
    ctx: &mut RankCtx,
    b: &mut Block,
    base: usize,
    stride_pts: usize,
    el: &BlockElim,
) {
    let a = mat_a();
    let len = el.len;
    // Forward: y_k = D_k⁻¹ (b_k − A y_{k−1}).
    let mut prev = [0.0; NB];
    for k in 0..len {
        let i = base + k * stride_pts * NB;
        let mut rhs = ld_vec(ctx, &b.u, i).await;
        let av = mat_vec(&a, &prev);
        for c in 0..NB {
            rhs[c] -= av[c];
        }
        let di = el.dinv_at(ctx, k).await;
        let y = mat_vec(&di, &rhs);
        // Two 3×3 matvecs of dense FMA work per point.
        ctx.fp_scalar_n(SemOp::MulAdd, 2 * (NB * NB) as u64);
        st_vec(ctx, &mut b.u, i, &y).await;
        prev = y;
    }
    // Backward: u_k = y_k − E_k u_{k+1}.
    let mut up = [0.0; NB];
    for k in (0..len).rev() {
        let i = base + k * stride_pts * NB;
        let mut v = ld_vec(ctx, &b.u, i).await;
        let ek = el.e_at(ctx, k).await;
        let ev = mat_vec(&ek, &up);
        for c in 0..NB {
            v[c] -= ev[c];
        }
        ctx.fp_scalar_n(SemOp::MulAdd, (NB * NB) as u64);
        st_vec(ctx, &mut b.u, i, &v).await;
        up = v;
    }
    ctx.overhead(2 * len as u64);
}

/// Apply the block operator along a local direction (`u ← T u`).
async fn apply_local(ctx: &mut RankCtx, b: &mut Block, base: usize, stride_pts: usize, len: usize) {
    let a = mat_a();
    let bm = mat_b();
    let mut line: Vec<Vec3> = Vec::with_capacity(len);
    for k in 0..len {
        line.push(ld_vec(ctx, &b.u, base + k * stride_pts * NB).await);
    }
    for k in 0..len {
        let mut v = mat_vec(&bm, &line[k]);
        if k >= 1 {
            let av = mat_vec(&a, &line[k - 1]);
            for c in 0..NB {
                v[c] += av[c];
            }
        }
        if k + 1 < len {
            let av = mat_vec(&a, &line[k + 1]);
            for c in 0..NB {
                v[c] += av[c];
            }
        }
        ctx.fp_scalar_n(SemOp::MulAdd, 3 * (NB * NB) as u64);
        st_vec(ctx, &mut b.u, base + k * stride_pts * NB, &v).await;
    }
    ctx.overhead(len as u64);
}

/// Apply along distributed z (one halo plane of `NB`-vectors each way).
async fn apply_z(ctx: &mut RankCtx, b: &mut Block) {
    let (rank, size) = (ctx.rank(), ctx.size());
    let (nx, ny, nz) = (b.nx, b.ny, b.nz);
    let plane = nx * ny * NB;
    async fn pack(ctx: &mut RankCtx, b: &Block, z: usize, plane: usize) -> Vec<f64> {
        ctx.ld_range(&b.u, z * plane..(z + 1) * plane).await;
        b.u.as_slice()[z * plane..(z + 1) * plane].to_vec()
    }
    let mut below = vec![0.0; plane];
    let mut above = vec![0.0; plane];
    if rank + 1 < size {
        let top = pack(ctx, b, nz - 1, plane).await;
        ctx.send(rank + 1, 80, f64s_to_bytes(&top)).await;
    }
    if rank > 0 {
        below = bytes_to_f64s(&ctx.recv(Some(rank - 1), 80).await);
        let bot = pack(ctx, b, 0, plane).await;
        ctx.send(rank - 1, 81, f64s_to_bytes(&bot)).await;
    }
    if rank + 1 < size {
        above = bytes_to_f64s(&ctx.recv(Some(rank + 1), 81).await);
    }
    let a = mat_a();
    let bm = mat_b();
    let mut planes: Vec<Vec<f64>> = Vec::with_capacity(nz);
    for z in 0..nz {
        ctx.ld_range(&b.u, z * plane..(z + 1) * plane).await;
        planes.push(b.u.as_slice()[z * plane..(z + 1) * plane].to_vec());
    }
    let vec_at = |src: &[f64], x: usize, y: usize| -> Vec3 {
        let base = (y * nx + x) * NB;
        [src[base], src[base + 1], src[base + 2]]
    };
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let center = vec_at(&planes[z], x, y);
                let mut v = mat_vec(&bm, &center);
                let lower: Option<Vec3> = if z > 0 {
                    Some(vec_at(&planes[z - 1], x, y))
                } else if rank > 0 {
                    Some(vec_at(&below, x, y))
                } else {
                    None
                };
                let upper: Option<Vec3> = if z + 1 < nz {
                    Some(vec_at(&planes[z + 1], x, y))
                } else if rank + 1 < size {
                    Some(vec_at(&above, x, y))
                } else {
                    None
                };
                for nb in [lower, upper].into_iter().flatten() {
                    let av = mat_vec(&a, &nb);
                    for c in 0..NB {
                        v[c] += av[c];
                    }
                }
                ctx.fp_scalar_n(SemOp::MulAdd, 3 * (NB * NB) as u64);
                let idx = b.idx(x, y, z);
                st_vec(ctx, &mut b.u, idx, &v).await;
            }
        }
        ctx.overhead((nx * ny) as u64);
    }
}

/// Pipelined block solve along distributed z lines.
async fn solve_z(ctx: &mut RankCtx, b: &mut Block, el: &BlockElim) {
    let (rank, size) = (ctx.rank(), ctx.size());
    let (nx, ny, nz) = (b.nx, b.ny, b.nz);
    let plane = nx * ny * NB;
    let z0 = rank * nz;
    let a = mat_a();

    // Forward pipeline (needs y_{k−1}).
    let mut prev: Vec<f64> = vec![0.0; plane];
    if rank > 0 {
        prev = bytes_to_f64s(&ctx.recv(Some(rank - 1), 82).await);
    }
    for z in 0..nz {
        let k = z0 + z;
        for y in 0..ny {
            for x in 0..nx {
                let i = b.idx(x, y, z);
                let pb = (y * nx + x) * NB;
                let mut rhs = ld_vec(ctx, &b.u, i).await;
                let pv = [prev[pb], prev[pb + 1], prev[pb + 2]];
                let av = mat_vec(&a, &pv);
                for c in 0..NB {
                    rhs[c] -= av[c];
                }
                let di = el.dinv_at(ctx, k).await;
                let yv = mat_vec(&di, &rhs);
                ctx.fp_scalar_n(SemOp::MulAdd, 2 * (NB * NB) as u64);
                st_vec(ctx, &mut b.u, i, &yv).await;
                prev[pb] = yv[0];
                prev[pb + 1] = yv[1];
                prev[pb + 2] = yv[2];
            }
        }
        ctx.overhead((nx * ny) as u64);
    }
    if rank + 1 < size {
        ctx.send(rank + 1, 82, f64s_to_bytes(&prev)).await;
    }

    // Backward pipeline (needs u_{k+1}).
    let mut up: Vec<f64> = vec![0.0; plane];
    if rank + 1 < size {
        up = bytes_to_f64s(&ctx.recv(Some(rank + 1), 83).await);
    }
    for z in (0..nz).rev() {
        let k = z0 + z;
        for y in 0..ny {
            for x in 0..nx {
                let i = b.idx(x, y, z);
                let pb = (y * nx + x) * NB;
                let mut v = ld_vec(ctx, &b.u, i).await;
                let uv = [up[pb], up[pb + 1], up[pb + 2]];
                let ek = el.e_at(ctx, k).await;
                let ev = mat_vec(&ek, &uv);
                for c in 0..NB {
                    v[c] -= ev[c];
                }
                ctx.fp_scalar_n(SemOp::MulAdd, (NB * NB) as u64);
                st_vec(ctx, &mut b.u, i, &v).await;
                up[pb] = v[0];
                up[pb + 1] = v[1];
                up[pb + 2] = v[2];
            }
        }
        ctx.overhead((nx * ny) as u64);
    }
    if rank > 0 {
        ctx.send(rank - 1, 83, f64s_to_bytes(&up)).await;
    }
}

/// Run BT on this rank.
pub(crate) async fn run(ctx: &mut RankCtx, class: Class) -> KernelResult {
    let (nx, ny, nz) = dims(class);
    let size = ctx.size();
    let n = nx * ny * nz * NB;
    let mut b = Block {
        nx,
        ny,
        nz,
        u: ctx.alloc(n),
    };
    let mut rng = SimRng::seed_from_u64(0x4254 ^ (ctx.rank() as u64) << 6);
    let mut exact = Vec::with_capacity(n);
    for i in 0..n {
        let v: f64 = rng.gen_range(-1.0..1.0);
        exact.push(v);
        ctx.st(&mut b.u, i, v).await;
    }
    ctx.overhead(n as u64);

    // b = T_x T_y T_z u*.
    apply_z(ctx, &mut b).await;
    for z in 0..nz {
        for x in 0..nx {
            let base = b.idx(x, 0, z);
            apply_local(ctx, &mut b, base, nx, ny).await;
        }
    }
    for z in 0..nz {
        for y in 0..ny {
            let base = b.idx(0, y, z);
            apply_local(ctx, &mut b, base, 1, nx).await;
        }
    }

    // Solve x, y, then pipelined z.
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

    let mut max_err = 0.0f64;
    for (i, &want) in exact.iter().enumerate() {
        max_err = max_err.max((b.u.raw(i) - want).abs());
    }
    let global = bytes_to_f64s(
        &ctx.allreduce(bgp_mpi::ReduceOp::MaxF64, f64s_to_bytes(&[max_err]))
            .await,
    )[0];
    KernelResult {
        kernel: Kernel::Bt,
        verified: global < 1e-8,
        checksum: global,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::single;

    #[test]
    fn mat_inv_inverts() {
        let m = mat_b();
        let inv = mat_inv(&m);
        let id = mat_mul(&m, &inv);
        for (i, row) in id.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "M*M^-1 = {id:?}");
            }
        }
    }

    #[test]
    fn mat_ops_are_consistent() {
        let a = mat_a();
        let b = mat_b();
        let v = [1.0, -2.0, 3.0];
        // (B - A) v == Bv - Av
        let lhs = mat_vec(&mat_sub(&b, &a), &v);
        let bv = mat_vec(&b, &v);
        let av = mat_vec(&a, &v);
        for i in 0..NB {
            assert!((lhs[i] - (bv[i] - av[i])).abs() < 1e-12);
        }
    }

    /// Dense reference: assemble the full block-tridiagonal matrix and
    /// solve with Gaussian elimination.
    fn dense_block_solve(len: usize, rhs: &[f64]) -> Vec<f64> {
        let n = len * NB;
        let a = mat_a();
        let bm = mat_b();
        let mut m = vec![vec![0.0f64; n + 1]; n];
        for k in 0..len {
            for i in 0..NB {
                for j in 0..NB {
                    m[k * NB + i][k * NB + j] = bm[i][j];
                    if k >= 1 {
                        m[k * NB + i][(k - 1) * NB + j] = a[i][j];
                    }
                    if k + 1 < len {
                        m[k * NB + i][(k + 1) * NB + j] = a[i][j];
                    }
                }
                m[k * NB + i][n] = rhs[k * NB + i];
            }
        }
        for col in 0..n {
            let piv = (col..n)
                .max_by(|&x, &y| m[x][col].abs().partial_cmp(&m[y][col].abs()).unwrap())
                .unwrap();
            m.swap(col, piv);
            for r in col + 1..n {
                let (head, tail) = m.split_at_mut(r);
                let (pivot_row, row) = (&head[col], &mut tail[0]);
                let f = row[col] / pivot_row[col];
                for c in col..=n {
                    row[c] -= f * pivot_row[c];
                }
            }
        }
        let mut x = vec![0.0; n];
        for r in (0..n).rev() {
            let mut acc = m[r][n];
            for c in r + 1..n {
                acc -= m[r][c] * x[c];
            }
            x[r] = acc / m[r][r];
        }
        x
    }

    #[test]
    fn block_elimination_matches_dense_reference() {
        for len in [1usize, 2, 3, 7, 12] {
            let rhs: Vec<f64> = (0..len * NB).map(|i| ((i * 11) % 7) as f64 - 3.0).collect();
            let got = single(|mut ctx| {
                let rhs = rhs.clone();
                async move {
                    let ctx = &mut ctx;
                    let el = factor(ctx, len).await;
                    let mut b = Block {
                        nx: len,
                        ny: 1,
                        nz: 1,
                        u: ctx.alloc(len * NB),
                    };
                    for (i, &v) in rhs.iter().enumerate() {
                        ctx.st(&mut b.u, i, v).await;
                    }
                    solve_local_line(ctx, &mut b, 0, 1, &el).await;
                    (0..len * NB).map(|i| b.u.raw(i)).collect::<Vec<_>>()
                }
            });
            let want = dense_block_solve(len, &rhs);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "len {len}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn block_apply_then_solve_is_identity() {
        let len = 9;
        let original: Vec<f64> = (0..len * NB).map(|i| (i as f64 * 0.37).cos()).collect();
        let got = single(|mut ctx| {
            let original = original.clone();
            async move {
                let ctx = &mut ctx;
                let el = factor(ctx, len).await;
                let mut b = Block {
                    nx: len,
                    ny: 1,
                    nz: 1,
                    u: ctx.alloc(len * NB),
                };
                for (i, &v) in original.iter().enumerate() {
                    ctx.st(&mut b.u, i, v).await;
                }
                apply_local(ctx, &mut b, 0, 1, len).await;
                solve_local_line(ctx, &mut b, 0, 1, &el).await;
                (0..len * NB).map(|i| b.u.raw(i)).collect::<Vec<_>>()
            }
        });
        for (g, w) in got.iter().zip(&original) {
            assert!((g - w).abs() < 1e-9);
        }
    }
}
