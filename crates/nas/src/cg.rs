//! **CG — Conjugate Gradient**: solve a sparse symmetric positive-definite
//! system by CG, the benchmark's mix of sparse matrix-vector products and
//! vector updates with all-reduce dot products.
//!
//! The matrix is a symmetric band (|i−j| ≤ 3) plus one antipodal diagonal
//! (j = i + n/2 mod n), diagonally dominant and hence SPD. Relative to
//! NAS CG's randomized pattern this keeps the pattern locally enumerable
//! (each rank can build its rows without global knowledge); the matrix
//! values are still streamed from memory row by row and the sparse
//! product is lowered **scalar** (`vectorizable = false`) to model the
//! indirection-blocked loops of the real code — which is what puts CG in
//! the single-FMA-dominated group of the paper's Fig. 6.

use crate::common::{axpy, dot, Class, Kernel, KernelResult};
use bgp_mpi::{bytes_to_f64s, f64s_to_bytes, RankCtx, SemOp, SimVec};

/// Matrix rows owned per rank.
pub(crate) fn rows_per_rank(class: Class) -> usize {
    match class {
        Class::S => 512,
        Class::W => 2048,
        Class::A => 16384,
    }
}

/// CG iterations.
pub(crate) fn iterations(class: Class) -> usize {
    match class {
        Class::S => 6,
        Class::W => 10,
        Class::A => 15,
    }
}

const BAND: usize = 3;
/// Off-diagonal band coefficients (|i−j| = 1, 2, 3).
const C: [f64; BAND] = [-1.0, -0.5, -0.25];
/// Antipodal coefficient.
const E: f64 = -0.125;
/// Diagonal: strictly dominant.
const D: f64 = 2.0 * (1.0 + 0.5 + 0.25) + 0.125 + 1.0;

/// Nonzeros per row: diagonal + 2×band + antipodal.
pub(crate) const NNZ: usize = 1 + 2 * BAND + 1;

struct Partition {
    rank: usize,
    size: usize,
    rows: usize,
}

impl Partition {
    fn n(&self) -> usize {
        self.rows * self.size
    }

    fn owner(&self, gi: usize) -> usize {
        gi / self.rows
    }

    fn first(&self) -> usize {
        self.rank * self.rows
    }
}

/// Exchange the halo values this rank's rows need: up to `BAND` boundary
/// values from each side neighbour plus the full block of the antipodal
/// rank. Returns (left[BAND], right[BAND], opposite block).
async fn exchange_halo(
    ctx: &mut RankCtx,
    part: &Partition,
    x: &SimVec<f64>,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let rows = part.rows;
    let size = part.size;
    if size == 1 {
        // Everything is local (wrap-around included).
        let all: Vec<f64> = (0..rows).map(|i| x.raw(i)).collect();
        let left = (0..BAND).map(|k| all[(rows - BAND + k) % rows]).collect();
        let right = (0..BAND).map(|k| all[k % rows]).collect();
        return (left, right, all);
    }
    let left_rank = (part.rank + size - 1) % size;
    let right_rank = (part.rank + 1) % size;
    // Boundary values, packed with simulated reads.
    let mut low = Vec::with_capacity(BAND);
    let mut high = Vec::with_capacity(BAND);
    for k in 0..BAND {
        low.push(ctx.ld(x, k).await);
        high.push(ctx.ld(x, rows - BAND + k).await);
    }
    // Send my high boundary right, receive left neighbour's high boundary.
    ctx.send(right_rank, 10, f64s_to_bytes(&high)).await;
    let left = bytes_to_f64s(&ctx.recv(Some(left_rank), 10).await);
    // Send my low boundary left, receive right neighbour's low boundary.
    ctx.send(left_rank, 11, f64s_to_bytes(&low)).await;
    let right = bytes_to_f64s(&ctx.recv(Some(right_rank), 11).await);
    // Antipodal block swap.
    let opp_rank = (part.rank + size / 2) % size;
    ctx.ld_range(x, 0..rows).await;
    let mine = x.as_slice()[..rows].to_vec();
    let opposite = if opp_rank == part.rank {
        mine
    } else {
        bytes_to_f64s(&ctx.sendrecv(opp_rank, 12, f64s_to_bytes(&mine)).await)
    };
    (left, right, opposite)
}

/// `y = A x` with the distributed matrix. `vals`/(implicit pattern) are
/// streamed from memory like the benchmark's `a[]`/`colidx[]` arrays.
#[allow(clippy::too_many_arguments)]
async fn spmv(
    ctx: &mut RankCtx,
    part: &Partition,
    vals: &SimVec<f64>,
    x: &SimVec<f64>,
    y: &mut SimVec<f64>,
    left: &[f64],
    right: &[f64],
    opposite: &[f64],
) {
    let rows = part.rows;
    let n = part.n();
    let first = part.first();
    for i in 0..rows {
        let gi = first + i;
        let mut acc = 0.0;
        // Stream the row's stored coefficients (diagonal first).
        let vbase = i * NNZ;
        let dv = ctx.ld(vals, vbase).await;
        let xi = ctx.ld(x, i).await;
        ctx.fp1(SemOp::Mul);
        acc += dv * xi;
        let mut slot = 1;
        for k in 1..=BAND {
            for dir in [-1i64, 1] {
                let gj = (gi as i64 + dir * k as i64).rem_euclid(n as i64) as usize;
                let v = ctx.ld(vals, vbase + slot).await;
                slot += 1;
                let xj = if part.owner(gj) == part.rank {
                    ctx.ld(x, gj - first).await
                } else if dir < 0 {
                    // Left halo holds x[first-BAND .. first]: gj = first+i-k.
                    left[BAND + i - k]
                } else {
                    // Right halo holds x[first+rows ..]: gj = first+i+k.
                    right[i + k - rows]
                };
                ctx.fp1(SemOp::MulAdd);
                acc += v * xj;
            }
        }
        // Antipodal entry.
        let gj = (gi + n / 2) % n;
        let v = ctx.ld(vals, vbase + slot).await;
        let xj = if part.owner(gj) == part.rank {
            ctx.ld(x, gj - first).await
        } else {
            opposite[gj % rows]
        };
        ctx.fp1(SemOp::MulAdd);
        acc += v * xj;
        ctx.st(y, i, acc).await;
        ctx.int_ops(NNZ as u64); // column-index handling
    }
    ctx.overhead(rows as u64);
}

/// Run CG on this rank.
pub(crate) async fn run(ctx: &mut RankCtx, class: Class) -> KernelResult {
    let rows = rows_per_rank(class);
    let part = Partition {
        rank: ctx.rank(),
        size: ctx.size(),
        rows,
    };
    assert!(
        part.size == 1 || part.size.is_multiple_of(2),
        "CG needs an even rank count for the antipodal exchange"
    );

    // Build and store the row coefficients (the benchmark's a[] array).
    let mut vals = ctx.alloc::<f64>(rows * NNZ);
    for i in 0..rows {
        let base = i * NNZ;
        ctx.st(&mut vals, base, D).await;
        let mut slot = 1;
        for k in 1..=BAND {
            for _dir in 0..2 {
                ctx.st(&mut vals, base + slot, C[k - 1]).await;
                slot += 1;
            }
        }
        ctx.st(&mut vals, base + slot, E).await;
    }
    ctx.overhead(rows as u64);

    let mut x = ctx.alloc::<f64>(rows);
    let mut r = ctx.alloc::<f64>(rows);
    let mut p = ctx.alloc::<f64>(rows);
    let mut q = ctx.alloc::<f64>(rows);
    let mut bvec = ctx.alloc::<f64>(rows);
    // A varied right-hand side (a constant b is an eigenvector of the
    // band-plus-antipodal operator and CG would converge in one step);
    // x0 = 0 ⇒ r0 = p0 = b.
    let first = part.first();
    for i in 0..rows {
        let b = 1.0 + 0.25 * ((first + i) % 13) as f64;
        ctx.st(&mut bvec, i, b).await;
        ctx.st(&mut r, i, b).await;
        ctx.st(&mut p, i, b).await;
        ctx.st(&mut x, i, 0.0).await;
    }
    ctx.overhead(rows as u64);

    let mut rho = {
        let local = dot(ctx, &r, &r, rows, true).await;
        ctx.allreduce_sum_f64(&[local]).await[0]
    };
    let rho0 = rho;

    for _ in 0..iterations(class) {
        let (left, right, opposite) = exchange_halo(ctx, &part, &p).await;
        spmv(ctx, &part, &vals, &p, &mut q, &left, &right, &opposite).await;
        let pq_local = dot(ctx, &p, &q, rows, true).await;
        let pq = ctx.allreduce_sum_f64(&[pq_local]).await[0];
        let alpha = rho / pq;
        axpy(ctx, alpha, &p, &mut x, rows, true).await;
        axpy(ctx, -alpha, &q, &mut r, rows, true).await;
        let rho_new = {
            let local = dot(ctx, &r, &r, rows, true).await;
            ctx.allreduce_sum_f64(&[local]).await[0]
        };
        let beta = rho_new / rho;
        rho = rho_new;
        // p = r + beta p  (two compiled passes, as the Fortran writes it).
        for i in 0..rows {
            let pv = ctx.ld(&p, i).await;
            let rv = ctx.ld(&r, i).await;
            ctx.fp1(SemOp::MulAdd);
            ctx.st(&mut p, i, rv + beta * pv).await;
        }
        ctx.overhead(rows as u64);
    }

    // Verification: the recursion's residual matches the explicitly
    // recomputed one, and CG actually converged.
    let (left, right, opposite) = exchange_halo(ctx, &part, &x).await;
    spmv(ctx, &part, &vals, &x, &mut q, &left, &right, &opposite).await;
    let mut err_local = 0.0;
    for i in 0..rows {
        let e = bvec.raw(i) - q.raw(i);
        err_local += e * e;
    }
    let explicit = ctx.allreduce_sum_f64(&[err_local]).await[0].sqrt();
    let recursive = rho.sqrt();
    let rel = (explicit - recursive).abs() / explicit.max(1e-30);
    let converged = rho < 1e-3 * rho0;
    KernelResult {
        kernel: Kernel::Cg,
        verified: rel < 1e-6 && converged,
        checksum: explicit,
    }
}
