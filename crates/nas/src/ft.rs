//! **FT — 3-D FFT PDE**: forward 3-D FFT (x/y locally on z-slabs, global
//! transpose over the torus, z on x-slabs), a spectral "evolve" scaling,
//! and the inverse transform. The radix-2 butterflies operate on
//! re/im pairs — precisely the data-level parallelism the double-hummer
//! FPU was built for — so FT joins MG as the paper's SIMD showcase
//! (Figs. 6 and 7), and its transpose makes it the communication- and
//! memory-heaviest kernel (the >4× DDR ratio of Fig. 12).

use crate::common::{Class, Kernel, KernelResult};
use bgp_arch::rng::SimRng;
use bgp_mpi::{bytes_to_f64s, f64s_to_bytes, RankCtx, SemOp, SimVec};

/// (NX = NY, local z planes) per class. The global NZ is `lz × ranks`.
pub(crate) fn dims(class: Class) -> (usize, usize) {
    match class {
        Class::S => (16, 4),
        Class::W => (32, 8),
        Class::A => (64, 4),
    }
}

/// Complex-interleaved accessor helpers over a `SimVec<f64>`:
/// element `c` occupies slots `2c` (re) and `2c+1` (im).
struct Grid {
    nx: usize,
    ny: usize,
    nz: usize, // local z extent in the current layout
}

/// Simulated complex load as an re/im pair (one quadload under SIMD).
#[inline]
async fn ldc(ctx: &mut RankCtx, v: &SimVec<f64>, c: usize) -> (f64, f64) {
    let plan = ctx.plan_pair(true);
    ctx.ld2(v, 2 * c, plan).await
}

#[inline]
async fn stc(ctx: &mut RankCtx, v: &mut SimVec<f64>, c: usize, val: (f64, f64)) {
    let plan = ctx.plan_pair(true);
    ctx.st2(v, 2 * c, val, plan).await;
}

/// Twiddle-factor table for a given FFT length (the benchmark's `u[]`).
struct Twiddles {
    len: usize,
    table: SimVec<f64>,
}

impl Twiddles {
    async fn new(ctx: &mut RankCtx, len: usize) -> Twiddles {
        assert!(len.is_power_of_two());
        let mut table = ctx.alloc::<f64>(len.max(2));
        for k in 0..len / 2 {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
            *table.raw_mut(2 * k) = ang.cos();
            *table.raw_mut(2 * k + 1) = ang.sin();
        }
        Twiddles { len, table }
    }
}

/// Iterative radix-2 FFT of one line of `len` complex elements at
/// `base + i*stride` (complex indices). Strided lines are first gathered
/// into the contiguous `scratch` buffer — exactly how the benchmark's
/// `cffts` routines stage every non-unit-stride direction, keeping the
/// butterfly stages cache-resident. `inverse` conjugates the twiddles;
/// scaling is the caller's business.
async fn fft_line(
    ctx: &mut RankCtx,
    data: &mut SimVec<f64>,
    base: usize,
    stride: usize,
    tw: &Twiddles,
    inverse: bool,
    scratch: &mut SimVec<f64>,
) {
    let len = tw.len;
    if stride == 1 {
        fft_contiguous(ctx, data, base, tw, inverse).await;
        return;
    }
    debug_assert!(scratch.len() >= 2 * len);
    for k in 0..len {
        let v = ldc(ctx, data, base + k * stride).await;
        stc(ctx, scratch, k, v).await;
    }
    ctx.overhead(len as u64);
    fft_contiguous(ctx, scratch, 0, tw, inverse).await;
    for k in 0..len {
        let v = ldc(ctx, scratch, k).await;
        stc(ctx, data, base + k * stride, v).await;
    }
    ctx.overhead(len as u64);
}

/// The in-place butterfly stages over a contiguous complex line.
async fn fft_contiguous(
    ctx: &mut RankCtx,
    data: &mut SimVec<f64>,
    base: usize,
    tw: &Twiddles,
    inverse: bool,
) {
    let len = tw.len;
    // Bit-reversal permutation.
    let bits = len.trailing_zeros();
    for i in 0..len {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            let a = ldc(ctx, data, base + i).await;
            let b = ldc(ctx, data, base + j).await;
            stc(ctx, data, base + i, b).await;
            stc(ctx, data, base + j, a).await;
        }
        ctx.int_ops(2);
    }
    ctx.overhead(len as u64);

    let mut half = 1;
    while half < len {
        let step = tw.len / (2 * half);
        for start in (0..len).step_by(2 * half) {
            for k in 0..half {
                let ca = base + start + k;
                let cb = ca + half;
                let plan = ctx.plan_pair(true);
                let (ar, ai) = ctx.ld2(data, 2 * ca, plan).await;
                let (br, bi) = ctx.ld2(data, 2 * cb, plan).await;
                let (wr, mut wi) = ctx.ld2(&tw.table, 2 * (k * step), plan).await;
                if inverse {
                    wi = -wi;
                }
                // Complex multiply t = w·b: lowered as one pair-mul plus
                // one pair-FMA (6 flops), then the two pair add/subs.
                ctx.fp_pair(plan, SemOp::Mul);
                ctx.fp_pair(plan, SemOp::MulAdd);
                ctx.fp_pair(plan, SemOp::Add);
                ctx.fp_pair(plan, SemOp::Add);
                let tr = wr * br - wi * bi;
                let ti = wr * bi + wi * br;
                ctx.st2(data, 2 * ca, (ar + tr, ai + ti), plan).await;
                ctx.st2(data, 2 * cb, (ar - tr, ai - ti), plan).await;
            }
        }
        ctx.overhead((len / 2) as u64);
        half *= 2;
    }
}

/// Pack/transpose/unpack between z-slab and x-slab layouts.
///
/// z-slab index: `(zl*NY + y)*NX + x` (x contiguous);
/// x-slab index: `(xl*NY + y)*NZG + z` (z contiguous).
async fn transpose(
    ctx: &mut RankCtx,
    src: &SimVec<f64>,
    dst: &mut SimVec<f64>,
    g: &Grid, // nx, ny, nz = local z extent of the z-slab layout
    to_xslab: bool,
) {
    let p = ctx.size();
    let rank = ctx.rank();
    let lx = g.nx / p;
    let lz = g.nz;
    let nzg = lz * p;
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(p);
    for d in 0..p {
        let mut chunk = Vec::with_capacity(2 * lx * g.ny * lz);
        if to_xslab {
            // Send x ∈ d's range from my z planes.
            for xl in 0..lx {
                let x = d * lx + xl;
                for y in 0..g.ny {
                    for zl in 0..lz {
                        let c = (zl * g.ny + y) * g.nx + x;
                        let (re, im) = ldc(ctx, src, c).await;
                        chunk.push(re);
                        chunk.push(im);
                    }
                }
            }
        } else {
            // Send z ∈ d's range from my x planes (inverse transpose).
            for xl in 0..lx {
                for y in 0..g.ny {
                    for zl in 0..lz {
                        let z = d * lz + zl;
                        let c = (xl * g.ny + y) * nzg + z;
                        let (re, im) = ldc(ctx, src, c).await;
                        chunk.push(re);
                        chunk.push(im);
                    }
                }
            }
        }
        ctx.overhead((lx * g.ny * lz) as u64);
        rows.push(chunk);
    }
    let cols = ctx
        .alltoall(rows.into_iter().map(|r| f64s_to_bytes(&r)).collect())
        .await;
    for (srcr, bytes) in cols.iter().enumerate() {
        let vals = bytes_to_f64s(bytes);
        let mut it = vals.chunks_exact(2);
        if to_xslab {
            // From rank `srcr` I received my x-range over its z-range.
            for xl in 0..lx {
                for y in 0..g.ny {
                    for zl in 0..lz {
                        let z = srcr * lz + zl;
                        let c = (xl * g.ny + y) * nzg + z;
                        let v = it.next().expect("chunk size mismatch");
                        stc(ctx, dst, c, (v[0], v[1])).await;
                    }
                }
            }
        } else {
            // I received my z-range over rank `srcr`'s x-range.
            for xl in 0..lx {
                let x = srcr * lx + xl;
                for y in 0..g.ny {
                    for zl in 0..lz {
                        let c = (zl * g.ny + y) * g.nx + x;
                        let v = it.next().expect("chunk size mismatch");
                        stc(ctx, dst, c, (v[0], v[1])).await;
                    }
                }
            }
        }
        ctx.overhead((lx * g.ny * lz) as u64);
    }
    let _ = rank;
}

/// Run FT on this rank.
pub(crate) async fn run(ctx: &mut RankCtx, class: Class) -> KernelResult {
    let (n, lz) = dims(class);
    let p = ctx.size();
    assert!(
        p <= n,
        "FT needs ranks <= {n} so every rank owns an x-plane"
    );
    assert!(n % p == 0, "FT needs ranks to divide {n}");
    let nzg = lz * p;
    let g = Grid {
        nx: n,
        ny: n,
        nz: lz,
    };
    let elems = n * n * lz;

    // Initial condition: seeded pseudo-random complex field.
    let mut data = ctx.alloc::<f64>(2 * elems);
    let mut work = ctx.alloc::<f64>(2 * elems);
    let mut rng = SimRng::seed_from_u64(0xf7 ^ (ctx.rank() as u64) << 24);
    let mut original = Vec::with_capacity(2 * elems);
    for c in 0..elems {
        let re: f64 = rng.gen_range(-1.0..1.0);
        let im: f64 = rng.gen_range(-1.0..1.0);
        stc(ctx, &mut data, c, (re, im)).await;
        original.push(re);
        original.push(im);
    }
    ctx.overhead(elems as u64);

    let tw_xy = Twiddles::new(ctx, n).await;
    let tw_z = Twiddles::new(ctx, nzg).await;
    // Line-staging buffer for the strided directions (the cffts scratch).
    let mut line_buf = ctx.alloc::<f64>(2 * n.max(nzg));

    // ---- Forward 3-D FFT ----
    // x-direction: contiguous lines in the z-slab.
    for zl in 0..lz {
        for y in 0..n {
            fft_line(
                ctx,
                &mut data,
                (zl * n + y) * n,
                1,
                &tw_xy,
                false,
                &mut line_buf,
            )
            .await;
        }
    }
    // y-direction: stride-n lines, staged through the scratch buffer.
    for zl in 0..lz {
        for x in 0..n {
            fft_line(
                ctx,
                &mut data,
                zl * n * n + x,
                n,
                &tw_xy,
                false,
                &mut line_buf,
            )
            .await;
        }
    }
    // Global transpose to x-slabs, then z-direction (contiguous).
    transpose(ctx, &data, &mut work, &g, true).await;
    let lx = n / p;
    for xl in 0..lx {
        for y in 0..n {
            fft_line(
                ctx,
                &mut work,
                (xl * n + y) * nzg,
                1,
                &tw_z,
                false,
                &mut line_buf,
            )
            .await;
        }
    }

    // ---- Evolve: real spectral decay, then checksum ----
    let mut checksum = (0.0f64, 0.0f64);
    for xl in 0..lx {
        for y in 0..n {
            for z in 0..nzg {
                let c = (xl * n + y) * nzg + z;
                let factor = 1.0 - 0.25 * ((z % 7) as f64) / 7.0;
                let (re, im) = ldc(ctx, &work, c).await;
                ctx.fp1(SemOp::Mul);
                ctx.fp1(SemOp::Mul);
                stc(ctx, &mut work, c, (re * factor, im * factor)).await;
                if (c + xl).is_multiple_of(1031) {
                    checksum.0 += re * factor;
                    checksum.1 += im * factor;
                    ctx.fp_scalar_n(SemOp::Add, 2);
                }
            }
        }
        ctx.overhead((n * nzg) as u64);
    }
    let sums = ctx.allreduce_sum_f64(&[checksum.0, checksum.1]).await;

    // ---- Un-evolve + inverse 3-D FFT ----
    // Reciprocal factors are precomputed per z plane (one divide each),
    // then applied as multiplies — the same table discipline the real
    // code uses for its exponent terms.
    let mut inv_factors = ctx.alloc::<f64>(nzg);
    for z in 0..nzg {
        let factor = 1.0 - 0.25 * ((z % 7) as f64) / 7.0;
        ctx.fp1(SemOp::Div);
        ctx.st(&mut inv_factors, z, 1.0 / factor).await;
    }
    ctx.overhead(nzg as u64);
    for xl in 0..lx {
        for y in 0..n {
            for z in 0..nzg {
                let c = (xl * n + y) * nzg + z;
                let inv = ctx.ld(&inv_factors, z).await;
                let (re, im) = ldc(ctx, &work, c).await;
                ctx.fp1(SemOp::Mul);
                ctx.fp1(SemOp::Mul);
                stc(ctx, &mut work, c, (re * inv, im * inv)).await;
            }
        }
        ctx.overhead((n * nzg) as u64);
    }
    for xl in 0..lx {
        for y in 0..n {
            fft_line(
                ctx,
                &mut work,
                (xl * n + y) * nzg,
                1,
                &tw_z,
                true,
                &mut line_buf,
            )
            .await;
        }
    }
    transpose(ctx, &work, &mut data, &g, false).await;
    for zl in 0..lz {
        for x in 0..n {
            fft_line(
                ctx,
                &mut data,
                zl * n * n + x,
                n,
                &tw_xy,
                true,
                &mut line_buf,
            )
            .await;
        }
    }
    for zl in 0..lz {
        for y in 0..n {
            fft_line(
                ctx,
                &mut data,
                (zl * n + y) * n,
                1,
                &tw_xy,
                true,
                &mut line_buf,
            )
            .await;
        }
    }
    // Scale by 1/(NX·NY·NZG).
    let scale = 1.0 / (n as f64 * n as f64 * nzg as f64);
    for c in 0..elems {
        let (re, im) = ldc(ctx, &data, c).await;
        ctx.fp1(SemOp::Mul);
        ctx.fp1(SemOp::Mul);
        stc(ctx, &mut data, c, (re * scale, im * scale)).await;
    }
    ctx.overhead(elems as u64);

    // Verification: round trip reproduces the original field.
    let mut max_err = 0.0f64;
    for (i, &want) in original.iter().enumerate() {
        let got = data.raw(i);
        max_err = max_err.max((got - want).abs());
    }
    let global_err = ctx
        .allreduce(bgp_mpi::ReduceOp::MaxF64, f64s_to_bytes(&[max_err]))
        .await;
    let global_err = bytes_to_f64s(&global_err)[0];
    KernelResult {
        kernel: Kernel::Ft,
        verified: global_err < 1e-9 && sums[0].is_finite(),
        checksum: sums[0] + sums[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::single;

    /// Naive O(n²) DFT of a complex signal (reference for fft_line).
    fn naive_dft(input: &[(f64, f64)], inverse: bool) -> Vec<(f64, f64)> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        (0..n)
            .map(|k| {
                let mut acc = (0.0, 0.0);
                for (j, &(re, im)) in input.iter().enumerate() {
                    let ang = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    let (c, s) = (ang.cos(), ang.sin());
                    acc.0 += re * c - im * s;
                    acc.1 += re * s + im * c;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_line_matches_naive_dft() {
        for len in [2usize, 4, 8, 16, 32] {
            let signal: Vec<(f64, f64)> = (0..len)
                .map(|i| ((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let got = single(|mut ctx| {
                let signal = signal.clone();
                async move {
                    let ctx = &mut ctx;
                    let tw = Twiddles::new(ctx, len).await;
                    let mut data = ctx.alloc::<f64>(2 * len);
                    for (i, &(re, im)) in signal.iter().enumerate() {
                        stc(ctx, &mut data, i, (re, im)).await;
                    }
                    let mut scratch = ctx.alloc::<f64>(2 * len);
                    fft_line(ctx, &mut data, 0, 1, &tw, false, &mut scratch).await;
                    (0..len)
                        .map(|i| (data.raw(2 * i), data.raw(2 * i + 1)))
                        .collect::<Vec<_>>()
                }
            });
            let want = naive_dft(&signal, false);
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g.0 - w.0).abs() < 1e-9 && (g.1 - w.1).abs() < 1e-9,
                    "len {len}: {got:?}\nvs {want:?}"
                );
            }
        }
    }

    #[test]
    fn strided_fft_equals_contiguous() {
        let len = 8;
        let signal: Vec<(f64, f64)> = (0..len).map(|i| (i as f64, -(i as f64))).collect();
        let run_with_stride = |stride: usize| {
            let signal = &signal;
            single(move |mut ctx| {
                let signal = signal.clone();
                async move {
                    let ctx = &mut ctx;
                    let tw = Twiddles::new(ctx, len).await;
                    let mut data = ctx.alloc::<f64>(2 * len * stride);
                    let mut scratch = ctx.alloc::<f64>(2 * len);
                    for (i, &(re, im)) in signal.iter().enumerate() {
                        stc(ctx, &mut data, i * stride, (re, im)).await;
                    }
                    fft_line(ctx, &mut data, 0, stride, &tw, false, &mut scratch).await;
                    (0..len)
                        .map(|i| (data.raw(2 * i * stride), data.raw(2 * i * stride + 1)))
                        .collect::<Vec<_>>()
                }
            })
        };
        assert_eq!(run_with_stride(1), run_with_stride(5));
    }

    #[test]
    fn forward_then_inverse_is_scaled_identity() {
        let len = 16;
        let signal: Vec<(f64, f64)> = (0..len)
            .map(|i| ((i as f64).sqrt(), (i % 3) as f64 - 1.0))
            .collect();
        let got = single(|mut ctx| {
            let signal = signal.clone();
            async move {
                let ctx = &mut ctx;
                let tw = Twiddles::new(ctx, len).await;
                let mut data = ctx.alloc::<f64>(2 * len);
                for (i, &(re, im)) in signal.iter().enumerate() {
                    stc(ctx, &mut data, i, (re, im)).await;
                }
                let mut scratch = ctx.alloc::<f64>(2 * len);
                fft_line(ctx, &mut data, 0, 1, &tw, false, &mut scratch).await;
                fft_line(ctx, &mut data, 0, 1, &tw, true, &mut scratch).await;
                (0..len)
                    .map(|i| {
                        (
                            data.raw(2 * i) / len as f64,
                            data.raw(2 * i + 1) / len as f64,
                        )
                    })
                    .collect::<Vec<_>>()
            }
        });
        for (g, w) in got.iter().zip(&signal) {
            assert!((g.0 - w.0).abs() < 1e-10 && (g.1 - w.1).abs() < 1e-10);
        }
    }
}
