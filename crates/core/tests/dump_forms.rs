//! Every form of a node's dump agrees: the records
//! [`CounterLibrary::dumps`] builds from the windows, the decoded bytes
//! of [`CounterLibrary::encoded_dump`], the files
//! [`CounterLibrary::write_dumps`] leaves on disk, and the size the
//! node's `CounterDump` trace event reports. Checked under a fixed, an
//! even/odd and a multiplexed policy, in a job where one node finalizes
//! long before the others.

use bgp_arch::events::CounterMode;
use bgp_arch::OpMode;
use bgp_core::{dump, read_dumps, run_instrumented, CounterLibrary};
use bgp_mpi::{CounterPolicy, JobSpec, Machine, RankCtx, SemOp};
use bgp_trace::{EventKind, TraceConfig};

/// Three VNM nodes.
const RANKS: usize = 12;

/// Node 0's ranks return after one barrier; the other nodes' ranks then
/// trade six messages with a partner, one phase per message.
async fn early_finisher(mut ctx: RankCtx) -> (RankCtx, bool) {
    let rank = ctx.rank();
    ctx.barrier().await;
    if rank < 4 {
        return (ctx, true);
    }
    let partner = rank ^ 1;
    let mut got = 0;
    for round in 0..6u8 {
        ctx.fp1(SemOp::MulAdd);
        if rank.is_multiple_of(2) {
            ctx.send(partner, 1, vec![round; 8]).await;
            got += ctx.recv(Some(partner), 2).await.len();
        } else {
            got += ctx.recv(Some(partner), 1).await.len();
            ctx.send(partner, 2, vec![round; 8]).await;
        }
    }
    (ctx, got == 48)
}

#[test]
fn every_dump_form_agrees_under_every_policy() {
    let policies = [
        (CounterPolicy::Fixed(CounterMode::Mode2), 1),
        (
            CounterPolicy::EvenOdd {
                even: CounterMode::Mode0,
                odd: CounterMode::Mode3,
            },
            1,
        ),
        (
            CounterPolicy::Multiplexed {
                first: CounterMode::Mode1,
                base_dwell: 1,
            },
            6,
        ),
    ];
    for (k, (policy, n_sets)) in policies.into_iter().enumerate() {
        let mut spec = JobSpec::new(RANKS, OpMode::VirtualNode);
        spec.counter_policy = policy;
        spec.trace = Some(TraceConfig::default());
        let machine = Machine::new(spec);
        let (ok, lib): (_, std::sync::Arc<CounterLibrary>) =
            run_instrumented(&machine, early_finisher);
        assert!(
            ok.iter().all(|&v| v),
            "{policy:?}: a rank failed its exchange"
        );

        let dumps = lib.dumps().unwrap();
        assert_eq!(dumps.len(), 3, "{policy:?}");
        let dir = std::env::temp_dir().join(format!("bgpc_dump_forms_{}_{k}", std::process::id()));
        lib.write_dumps(&dir).unwrap();
        assert_eq!(read_dumps(&dir).unwrap(), dumps, "{policy:?}: files");
        std::fs::remove_dir_all(&dir).unwrap();

        // Each node's one `CounterDump` event: (cycle, reported bytes).
        let trace = machine.trace_state().snapshot().expect("traced job");
        let mut events = vec![Vec::new(); dumps.len()];
        for r in &trace.ranks {
            for e in &r.events {
                if let EventKind::CounterDump { bytes } = e.kind {
                    events[r.node].push((e.cycle, bytes));
                }
            }
        }
        for (i, d) in dumps.iter().enumerate() {
            assert_eq!((d.node as usize, d.sets.len()), (i, n_sets), "{policy:?}");
            let bytes = lib.encoded_dump(i).expect("node finalized");
            assert_eq!(
                &dump::decode(&bytes).unwrap(),
                d,
                "{policy:?}: node {i} bytes"
            );
            assert_eq!(
                bytes.len(),
                dump::encoded_len(n_sets),
                "{policy:?}: node {i}"
            );
            assert_eq!(events[i].len(), 1, "{policy:?}: node {i} dump events");
            assert_eq!(
                events[i][0].1,
                bytes.len() as u64,
                "{policy:?}: node {i} event"
            );
        }
        assert!(
            events[1..].iter().all(|e| e[0].0 > events[0][0].0),
            "{policy:?}: node 0 finalizes first: {events:?}"
        );
    }
}
