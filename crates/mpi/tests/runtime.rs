//! End-to-end tests of the rank runtime: messaging semantics, collective
//! correctness, timing causality, and determinism.

use bgp_arch::events::{CounterMode, NetEvent};
use bgp_arch::OpMode;
use bgp_compiler::CompileOpts;
use bgp_mpi::{
    bytes_to_f64s, bytes_to_u64s, f64s_to_bytes, u64s_to_bytes, CounterPolicy, JobSpec, Machine,
    ReduceOp, SemOp,
};

fn spec(ranks: usize, mode: OpMode) -> JobSpec {
    let mut s = JobSpec::new(ranks, mode);
    s.counter_policy = CounterPolicy::Fixed(CounterMode::Mode3);
    s
}

#[test]
fn point_to_point_ring_delivers_in_order() {
    let m = Machine::new(spec(4, OpMode::VirtualNode));
    m.enable_all_counters();
    let out = m.run(|mut ctx| async move {
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(
            right,
            7,
            u64s_to_bytes(&[ctx.rank() as u64, 100 + ctx.rank() as u64]),
        )
        .await;
        let got = bytes_to_u64s(&ctx.recv(Some(left), 7).await);
        assert_eq!(got, vec![left as u64, 100 + left as u64]);
        got[0]
    });
    assert_eq!(out, vec![3, 0, 1, 2]);
    // Torus events were observed in mode 3.
    let pkts = m.with_node(0, |n| {
        n.upc().read_event(NetEvent::TorusPktSent.id()).unwrap()
    });
    assert!(pkts >= 1);
}

#[test]
fn messages_between_same_pair_do_not_overtake() {
    let m = Machine::new(spec(2, OpMode::VirtualNode));
    let out = m.run(|mut ctx| async move {
        if ctx.rank() == 0 {
            for i in 0..10u64 {
                ctx.send(1, 1, u64s_to_bytes(&[i])).await;
            }
            0
        } else {
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(bytes_to_u64s(&ctx.recv(Some(0), 1).await)[0]);
            }
            assert_eq!(got, (0..10).collect::<Vec<_>>());
            1
        }
    });
    assert_eq!(out, vec![0, 1]);
}

#[test]
fn tagged_receives_match_selectively() {
    let m = Machine::new(spec(2, OpMode::VirtualNode));
    m.run(|mut ctx| async move {
        if ctx.rank() == 0 {
            ctx.send(1, 5, u64s_to_bytes(&[55])).await;
            ctx.send(1, 9, u64s_to_bytes(&[99])).await;
        } else {
            // Receive out of arrival order by tag.
            assert_eq!(bytes_to_u64s(&ctx.recv(Some(0), 9).await), vec![99]);
            assert_eq!(bytes_to_u64s(&ctx.recv(Some(0), 5).await), vec![55]);
        }
    });
}

#[test]
fn allreduce_equals_sequential_fold() {
    let m = Machine::new(spec(8, OpMode::VirtualNode));
    let out = m.run(|mut ctx| async move {
        let mine = [ctx.rank() as f64, 1.0, -(ctx.rank() as f64)];
        ctx.allreduce_sum_f64(&mine).await
    });
    for r in &out {
        assert_eq!(r, &[28.0, 8.0, -28.0]);
    }
}

#[test]
fn reduce_max_reaches_only_root() {
    let m = Machine::new(spec(5, OpMode::VirtualNode));
    let out = m.run(|mut ctx| async move {
        let v = f64s_to_bytes(&[ctx.rank() as f64 * 1.5]);
        ctx.reduce(2, ReduceOp::MaxF64, v)
            .await
            .map(|b| bytes_to_f64s(&b)[0])
    });
    assert_eq!(out, vec![None, None, Some(6.0), None, None]);
}

#[test]
fn bcast_distributes_roots_payload() {
    let m = Machine::new(spec(6, OpMode::VirtualNode));
    let out = m.run(|mut ctx| async move {
        let data = (ctx.rank() == 3).then(|| u64s_to_bytes(&[42, 43]));
        bytes_to_u64s(&ctx.bcast(3, data).await)
    });
    for r in out {
        assert_eq!(r, vec![42, 43]);
    }
}

#[test]
fn alltoall_is_a_transpose() {
    let n = 4;
    let m = Machine::new(spec(n, OpMode::VirtualNode));
    let out = m.run(|mut ctx| async move {
        let rows: Vec<_> = (0..ctx.size())
            .map(|d| u64s_to_bytes(&[(ctx.rank() * 10 + d) as u64]))
            .collect();
        let col = ctx.alltoall(rows).await;
        col.iter().map(|p| bytes_to_u64s(p)[0]).collect::<Vec<_>>()
    });
    for (me, col) in out.iter().enumerate() {
        let want: Vec<u64> = (0..n).map(|src| (src * 10 + me) as u64).collect();
        assert_eq!(col, &want, "rank {me} column");
    }
}

#[test]
fn consecutive_collectives_of_mixed_kinds_work() {
    let m = Machine::new(spec(3, OpMode::VirtualNode));
    m.run(|mut ctx| async move {
        for round in 0..5u64 {
            ctx.barrier().await;
            let s = ctx.allreduce_sum_f64(&[round as f64]).await[0];
            assert_eq!(s, 3.0 * round as f64);
            let b = ctx
                .bcast(round as usize % 3, Some(u64s_to_bytes(&[round])))
                .await;
            assert_eq!(bytes_to_u64s(&b), vec![round]);
        }
    });
}

#[test]
fn barrier_synchronizes_clocks() {
    let m = Machine::new(spec(4, OpMode::VirtualNode));
    let out = m.run(|mut ctx| async move {
        // Rank 0 does much more compute before the barrier.
        if ctx.rank() == 0 {
            ctx.int_ops(1_000_000);
        }
        ctx.barrier().await;
        ctx.cycles()
    });
    let max = *out.iter().max().unwrap();
    let min = *out.iter().min().unwrap();
    assert!(
        max - min < max / 100,
        "post-barrier clocks must be (nearly) aligned: {out:?}"
    );
    assert!(
        max >= 500_000,
        "rank 0's work must dominate the barrier exit time"
    );
}

#[test]
fn recv_waits_for_message_arrival_time() {
    let m = Machine::new(spec(2, OpMode::Smp1));
    let out = m.run(|mut ctx| async move {
        if ctx.rank() == 0 {
            ctx.int_ops(500_000); // ~250k cycles of compute first
            ctx.send(1, 0, f64s_to_bytes(&[1.0])).await;
            ctx.cycles()
        } else {
            ctx.recv(Some(0), 0).await;
            ctx.cycles()
        }
    });
    // The receiver cannot have the data before the sender produced it.
    assert!(
        out[1] >= out[0],
        "receiver clock {} < sender clock {}",
        out[1],
        out[0]
    );
}

#[test]
fn compute_api_reaches_ground_truth_counters() {
    let m = Machine::new(spec(1, OpMode::Smp1));
    m.enable_all_counters();
    let mut spec2 = spec(1, OpMode::Smp1);
    spec2.compile = CompileOpts::o5();
    let _ = spec2;
    m.run(|mut ctx| async move {
        let mut v = ctx.alloc::<f64>(128);
        for i in 0..128 {
            ctx.st(&mut v, i, i as f64).await;
        }
        let mut acc = 0.0;
        let mut i = 0;
        while i + 1 < 128 {
            let plan = ctx.plan_pair(true);
            let (a, b) = ctx.ld2(&v, i, plan).await;
            acc += 2.0 * a + 2.0 * b;
            ctx.fp_pair(plan, SemOp::MulAdd);
            i += 2;
        }
        ctx.overhead(128);
        assert_eq!(acc, 2.0 * (127.0 * 128.0 / 2.0));
    });
    m.with_node(0, |n| {
        let fpu = n.core(0).fpu();
        assert!(fpu.flops() >= 2 * 64, "multiply-adds must be counted");
        assert!(n.core(0).instr_counts().stores >= 128);
        assert!(n.mem_stats().total_accesses() > 0);
    });
}

#[test]
fn identical_jobs_produce_identical_counters() {
    let run_once = || {
        let m = Machine::new(spec(4, OpMode::VirtualNode));
        m.enable_all_counters();
        m.run(|mut ctx| async move {
            let mut v = ctx.alloc::<f64>(1000);
            for i in 0..1000 {
                ctx.st(&mut v, i, (i * ctx.rank()) as f64).await;
            }
            let s = ctx.allreduce_sum_f64(&[v.raw(999)]).await;
            ctx.barrier().await;
            s[0]
        });
        let snap = m.with_node(0, |n| n.upc().snapshot().to_vec());
        (snap, m.job_cycles())
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.0, b.0, "counter snapshots must be bit-identical");
    assert_eq!(a.1, b.1, "job cycle counts must be identical");
}

#[test]
fn vnm_ranks_share_a_node_and_contend() {
    // Four ranks on one node (VNM) each stream a private 1 MB buffer:
    // the shared L3 sees interleaved footprints.
    let m = Machine::new(spec(4, OpMode::VirtualNode));
    m.run(|mut ctx| async move {
        let n = 128 * 1024; // 1 MB of f64
        let mut v = ctx.alloc::<f64>(n);
        for pass in 0..2 {
            for i in 0..n {
                ctx.st(&mut v, i, (pass + i) as f64).await;
            }
        }
    });
    assert_eq!(m.num_nodes(), 1);
    m.with_node(0, |n| {
        let s = n.mem_stats();
        assert!(
            s.ddr_conflicts > 0,
            "interleaved ranks must contend at the DDR ports"
        );
        // All four cores advanced.
        for c in 0..4 {
            assert!(n.core(c).cycles() > 0, "core {c} idle");
        }
    });
}

#[test]
fn smp1_mode_leaves_sibling_cores_idle() {
    let m = Machine::new(spec(2, OpMode::Smp1));
    m.run(|mut ctx| async move {
        let mut v = ctx.alloc::<f64>(1024);
        for i in 0..1024 {
            ctx.st(&mut v, i, 1.0).await;
        }
    });
    assert_eq!(m.num_nodes(), 2);
    m.with_node(0, |n| {
        assert!(n.core(0).cycles() > 0);
        for c in 1..4 {
            assert_eq!(n.core(c).cycles(), 0, "core {c} must be idle in SMP/1");
        }
    });
}

#[test]
fn omp_chunks_spread_work_across_the_process_cores() {
    // SMP/4: one process, four threads — an OpenMP region must advance
    // all four cores and finish in ~1/4 the serial time.
    let m = Machine::new(spec(1, OpMode::Smp4));
    m.run(|mut ctx| async move {
        assert_eq!(ctx.threads(), 4);
        let n = 8192;
        let mut v = ctx.alloc::<f64>(n);
        for (t, range) in ctx.omp_chunks(n) {
            ctx.set_thread(t);
            for i in range {
                ctx.st(&mut v, i, i as f64).await;
            }
        }
        ctx.omp_join();
        // All threads joined: the master's clock is the max.
        assert!(ctx.cycles() > 0);
    });
    m.with_node(0, |n| {
        let per_core: Vec<u64> = (0..4).map(|c| n.core(c).cycles()).collect();
        for (c, &cy) in per_core.iter().enumerate() {
            assert!(cy > 0, "core {c} did no work: {per_core:?}");
        }
        let max = *per_core.iter().max().unwrap();
        let min = *per_core.iter().min().unwrap();
        assert!(
            max - min <= max / 3,
            "static split should balance threads: {per_core:?}"
        );
    });
}

#[test]
fn dual_mode_threads_stay_inside_their_process_cores() {
    let m = Machine::new(spec(2, OpMode::Dual));
    let out = m.run(|mut ctx| async move {
        assert_eq!(ctx.threads(), 2);
        let mut cores = Vec::new();
        for t in 0..ctx.threads() {
            ctx.set_thread(t);
            cores.push(ctx.core());
        }
        ctx.set_thread(0);
        cores
    });
    assert_eq!(out[0], vec![0, 1], "process 0 owns cores 0-1");
    assert_eq!(out[1], vec![2, 3], "process 1 owns cores 2-3");
}

#[test]
// The runner re-raises the offending rank's own panic payload (so
// supervisors can classify failures), hence the specific message.
#[should_panic(expected = "out of range")]
fn extra_threads_are_rejected_in_vnm() {
    let m = Machine::new(spec(4, OpMode::VirtualNode));
    m.run(|mut ctx| async move { ctx.set_thread(1) });
}
