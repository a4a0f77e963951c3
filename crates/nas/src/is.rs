//! **IS — Integer Sort**: parallel bucket sort of uniformly random
//! integer keys, the benchmark's classic histogram → all-reduce →
//! all-to-all → local-rank pipeline. Integer-unit and memory dominated;
//! the only floating point is the little bucket-balancing arithmetic —
//! which is why IS's (tiny) FP profile in the paper's Fig. 6 is pure
//! scalar FMA and its Fig. 12 DDR-traffic ratio is among the worst
//! (scattered access patterns thrash a shared L3).

use crate::common::{Class, Kernel, KernelResult};
use bgp_arch::rng::SimRng;
use bgp_mpi::{bytes_to_u64s, u64s_to_bytes, RankCtx, ReduceOp, SemOp};

/// Keys generated per rank.
pub(crate) fn keys_per_rank(class: Class) -> usize {
    match class {
        Class::S => 1 << 13,
        Class::W => 1 << 15,
        Class::A => 1 << 18,
    }
}

/// Key space: keys are drawn from `[0, 2^KEY_BITS)`.
pub(crate) const KEY_BITS: u32 = 19;
/// Coarse buckets used for redistribution.
pub(crate) const BUCKETS: usize = 1 << 10;

/// Run IS on this rank. Returns the number of keys this rank holds after
/// the sort in `checksum`.
pub(crate) async fn run(ctx: &mut RankCtx, class: Class) -> KernelResult {
    let n = keys_per_rank(class);
    let size = ctx.size();
    let rank = ctx.rank();
    let mut rng = SimRng::seed_from_u64(0xc0ffee ^ (rank as u64) << 17);

    // Key generation (linear writes).
    let mut keys = ctx.alloc::<u32>(n);
    for i in 0..n {
        let k: u32 = rng.gen_range(0..(1u32 << KEY_BITS));
        ctx.st(&mut keys, i, k).await;
        ctx.int_ops(3);
    }
    ctx.overhead(n as u64);

    // Local histogram over the coarse buckets (scattered rmw).
    let shift = KEY_BITS - BUCKETS.trailing_zeros();
    let mut hist = ctx.alloc::<u32>(BUCKETS);
    for i in 0..n {
        let k = ctx.ld(&keys, i).await;
        let b = (k >> shift) as usize;
        let c = ctx.ld(&hist, b).await;
        ctx.st(&mut hist, b, c + 1).await;
        ctx.int_ops(2);
    }
    ctx.overhead(n as u64);

    // Global histogram.
    let global = bytes_to_u64s(
        &ctx.allreduce(
            ReduceOp::SumU64,
            u64s_to_bytes(&(0..BUCKETS).map(|b| hist.raw(b) as u64).collect::<Vec<_>>()),
        )
        .await,
    );
    let total_keys: u64 = global.iter().sum();

    // Bucket → rank split: balance cumulative counts (the benchmark's
    // tiny FP part — running averages of bucket loads).
    let per_rank_target = total_keys as f64 / size as f64;
    let mut owner = vec![0usize; BUCKETS];
    let mut cum = 0f64;
    for b in 0..BUCKETS {
        cum += global[b] as f64;
        ctx.fp_scalar_n(SemOp::Add, 1);
        ctx.fp_scalar_n(SemOp::MulAdd, 2); // running-average arithmetic
        owner[b] = (((cum - 1.0) / per_rank_target) as usize).min(size - 1);
    }
    // One reciprocal, reused across the loop.
    ctx.fp_scalar_n(SemOp::Div, 1);
    ctx.overhead(BUCKETS as u64);

    // Redistribute: pack keys per destination (gathered reads).
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); size];
    for i in 0..n {
        let k = ctx.ld(&keys, i).await;
        let dst = owner[(k >> shift) as usize];
        outgoing[dst].push(k as u64);
        ctx.int_ops(3);
    }
    ctx.overhead(n as u64);
    let received = ctx
        .alltoall(outgoing.into_iter().map(|v| u64s_to_bytes(&v)).collect())
        .await;
    let mut mine: Vec<u64> = Vec::new();
    for chunk in &received {
        mine.extend(bytes_to_u64s(chunk));
    }

    // Local counting sort over the received keys (the "key ranking"
    // phase): histogram over the full key subrange + prefix + scatter.
    let m = mine.len();
    let mut local = ctx.alloc::<u32>(m.max(1));
    for (i, &k) in mine.iter().enumerate() {
        ctx.st(&mut local, i, k as u32).await;
        ctx.int_ops(1);
    }
    let (lo, hi) = match (mine.iter().min(), mine.iter().max()) {
        (Some(&lo), Some(&hi)) => (lo as u32, hi as u32),
        _ => (0, 0),
    };
    let span = (hi - lo + 1) as usize;
    let mut counts = ctx.alloc::<u32>(span.max(1));
    for i in 0..m {
        let k = ctx.ld(&local, i).await;
        let idx = (k - lo) as usize;
        let c = ctx.ld(&counts, idx).await;
        ctx.st(&mut counts, idx, c + 1).await;
        ctx.int_ops(2);
    }
    ctx.overhead(m as u64);
    // Prefix sum (sequential dependence: integer, unvectorizable).
    let mut acc = 0u32;
    for i in 0..span {
        let c = ctx.ld(&counts, i).await;
        ctx.st(&mut counts, i, acc).await;
        acc += c;
        ctx.int_ops(2);
    }
    ctx.overhead(span as u64);
    // Scatter into sorted order.
    let mut sorted = ctx.alloc::<u32>(m.max(1));
    for i in 0..m {
        let k = ctx.ld(&local, i).await;
        let idx = (k - lo) as usize;
        let pos = ctx.ld(&counts, idx).await;
        ctx.st(&mut counts, idx, pos + 1).await;
        ctx.st(&mut sorted, pos as usize, k).await;
        ctx.int_ops(2);
    }
    ctx.overhead(m as u64);

    // ---- Verification (full ranking check, uninstrumented reads) ----
    // (1) Locally sorted.
    let locally_sorted = (1..m).all(|i| sorted.raw(i - 1) <= sorted.raw(i));
    // (2) Global boundaries: my max ≤ right neighbour's min. Exchange
    // boundary keys through a vector all-reduce (max per slot).
    let mut maxes = vec![0u64; size];
    maxes[rank] = if m > 0 { sorted.raw(m - 1) as u64 } else { 0 };
    let maxes = bytes_to_u64s(&ctx.allreduce(ReduceOp::MaxU64, u64s_to_bytes(&maxes)).await);
    let mut mins = vec![0u64; size];
    mins[rank] = if m > 0 {
        sorted.raw(0) as u64
    } else {
        u64::MAX >> 1
    };
    let mins = bytes_to_u64s(&ctx.allreduce(ReduceOp::MaxU64, u64s_to_bytes(&mins)).await);
    let mut boundaries_ok = true;
    for r in 0..size - 1 {
        // Empty ranks report max 0 / min large: both sides hold.
        if maxes[r] > mins[r + 1] && mins[r + 1] != 0 {
            boundaries_ok = false;
        }
    }
    // (3) No key lost: global count preserved.
    let counted = ctx.allreduce_sum_f64(&[m as f64]).await[0] as u64;
    let conserved = counted == total_keys && total_keys == (n * size) as u64;

    KernelResult {
        kernel: Kernel::Is,
        verified: locally_sorted && boundaries_ok && conserved,
        checksum: m as f64,
    }
}
