//! Checkpoint capture / replay-resume identity at the runtime level:
//! a resumed machine must continue **byte-identically** — node state,
//! cycle counts, trace streams, kernel results — to a machine that was
//! never interrupted, for clean and faulted plans alike.

use bgp_faults::{FaultPlan, FaultSpec};
use bgp_mpi::machine::CheckpointConfig;
use bgp_mpi::{AppState, JobSpec, Machine, RankCtx, SemOp};
use bgp_snapshot::SnapshotStore;
use bgp_trace::TraceConfig;
use std::sync::Arc;

/// A kernel touching every subsystem a snapshot must cover: cache-walked
/// memory traffic, FP/int/branch retirement, ring point-to-point
/// traffic with per-rank message sizes, and chained collectives. The
/// result is data-derived (per the [`Machine::resume`] contract, raw
/// timing observations in return values read 0 during replay); timing
/// identity is asserted through the machine state instead, which covers
/// every core's timebase.
async fn kernel(mut ctx: RankCtx) -> u64 {
    let n = ctx.size();
    let mut v = ctx.alloc::<f64>(1024);
    let mut acc = 0f64;
    for round in 0..6u64 {
        for i in 0..1024 {
            ctx.st(&mut v, i, (i as u64 + round) as f64).await;
        }
        ctx.ld_range(&v, 0..1024).await;
        ctx.overhead(1024);
        ctx.fp_scalar_n(SemOp::MulAdd, 256);
        let peer = (ctx.rank() + 1) % n;
        let from = (ctx.rank() + n - 1) % n;
        ctx.send(peer, round as u32, vec![round as u8; 64 + ctx.rank()])
            .await;
        let got = ctx.recv(Some(from), round as u32).await;
        acc += got.len() as f64;
        acc = ctx.allreduce_sum_f64(&[acc]).await[0];
        ctx.barrier().await;
    }
    acc.to_bits()
}

fn spec(dir: Option<&std::path::Path>, faulted: bool) -> JobSpec {
    let mut spec = JobSpec::new(8, bgp_arch::OpMode::VirtualNode);
    spec.trace = Some(TraceConfig::default());
    spec.sim_threads = Some(4);
    if faulted {
        let fs = FaultSpec {
            straggler_rate: 0.5,
            straggler_penalty_cycles: 5000,
            link_degrade_rate: 0.5,
            link_slowdown: 3,
            ..FaultSpec::default()
        };
        spec.faults = Some(Arc::new(FaultPlan::new(fs, 7, spec.nodes())));
    }
    if let Some(dir) = dir {
        spec.checkpoint = Some(CheckpointConfig {
            every: 2,
            dir: dir.into(),
            retain: 8,
        });
    }
    spec
}

/// Everything observable about a finished machine, as labeled parts so
/// an identity failure names the diverging subsystem.
fn observe(m: &Machine, results: &[u64]) -> Vec<(String, Vec<u8>)> {
    let mut parts = Vec::new();
    let mut buf = Vec::new();
    bgp_arch::wire::put_u64(&mut buf, m.job_cycles());
    bgp_arch::wire::put_u64(&mut buf, m.phases());
    parts.push(("clocks".to_string(), buf));
    for node in 0..m.num_nodes() {
        let mut buf = Vec::new();
        m.with_node(node, |n| n.save_state(&mut buf));
        parts.push((format!("node {node}"), buf));
    }
    let mut buf = Vec::new();
    m.trace_state().save_state(&mut buf);
    parts.push(("trace".to_string(), buf));
    let mut buf = Vec::new();
    bgp_arch::wire::put_u64s(&mut buf, results);
    parts.push(("results".to_string(), buf));
    parts
}

/// Assert part-by-part equality with the diverging part named.
fn assert_same(a: &[(String, Vec<u8>)], b: &[(String, Vec<u8>)], what: &str) {
    for ((an, ab), (bn, bb)) in a.iter().zip(b) {
        assert_eq!(an, bn);
        assert!(
            ab == bb,
            "{what}: part {an:?} diverged ({} vs {} bytes)",
            ab.len(),
            bb.len()
        );
    }
    assert_eq!(a.len(), b.len(), "{what}: part count");
}

fn run_reference(faulted: bool) -> Vec<(String, Vec<u8>)> {
    let m = Machine::new(spec(None, faulted));
    let r = m.run(kernel);
    observe(&m, &r)
}

fn resume_run(dir: &std::path::Path, faulted: bool) -> Vec<(String, Vec<u8>)> {
    let s = spec(Some(dir), faulted);
    let fp = s.fingerprint();
    let m = Machine::new(s);
    let snap = SnapshotStore::new(dir, 3)
        .load_latest_valid(fp)
        .expect("store readable")
        .snapshot
        .expect("a valid snapshot exists")
        .0;
    m.resume(snap).expect("snapshot accepted");
    let r = m.run(kernel);
    observe(&m, &r)
}

#[test]
fn resumed_run_is_byte_identical_to_uninterrupted() {
    for faulted in [false, true] {
        let reference = run_reference(faulted);
        let dir = tempdir(&format!("resume-clean-{faulted}"));
        // Checkpointing itself must not perturb the run.
        let m = Machine::new(spec(Some(&dir), faulted));
        let r = m.run(kernel);
        assert_same(
            &observe(&m, &r),
            &reference,
            &format!("checkpoint capture perturbed the run (faulted={faulted})"),
        );
        assert!(m.snapshot_stats().written >= 1, "no snapshots written");
        // Resuming from EVERY retained snapshot must land on the same
        // bytes — a crash can happen anywhere.
        let store = SnapshotStore::new(&dir, 8);
        let files = store.list().expect("snapshot dir listable");
        assert!(files.len() >= 2, "expected several retained snapshots");
        for path in files {
            let snap =
                bgp_snapshot::Snapshot::decode(&std::fs::read(&path).expect("snapshot readable"))
                    .expect("snapshot decodes");
            let phase = snap.phase;
            let m = Machine::new(spec(Some(&dir), faulted));
            m.resume(snap).expect("snapshot accepted");
            let r = m.run(kernel);
            assert_same(
                &observe(&m, &r),
                &reference,
                &format!("resume from phase {phase} diverged (faulted={faulted})"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_job_resumes_byte_identically() {
    let reference = run_reference(false);
    let dir = tempdir("resume-kill");
    let m = Machine::new(spec(Some(&dir), false));
    m.set_kill_at_phase(5);
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.run(kernel);
    }));
    assert!(killed.is_err(), "kill point must fire");
    assert_same(
        &resume_run(&dir, false),
        &reference,
        "resume after a mid-run kill diverged",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_is_identical_for_every_thread_count() {
    let dir = tempdir("resume-threads");
    {
        let m = Machine::new(spec(Some(&dir), true));
        m.run(kernel);
    }
    let mut seen = Vec::new();
    for threads in [1usize, 4] {
        let mut s = spec(Some(&dir), true);
        s.sim_threads = Some(threads);
        // sim_threads is excluded from the fingerprint by design.
        let fp = s.fingerprint();
        let m = Machine::new(s);
        let snap = SnapshotStore::new(&dir, 3)
            .load_latest_valid(fp)
            .unwrap()
            .snapshot
            .expect("valid snapshot")
            .0;
        m.resume(snap).unwrap();
        let r = m.run(kernel);
        seen.push(observe(&m, &r));
    }
    assert_eq!(seen[0], seen[1], "resume results differ across sim_threads");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_wrong_experiment() {
    let dir = tempdir("resume-wrongfp");
    {
        let m = Machine::new(spec(Some(&dir), false));
        m.run(kernel);
    }
    // A different experiment (faulted plan) must refuse these snapshots.
    let other = spec(Some(&dir), true);
    let fp_other = other.fingerprint();
    let store = SnapshotStore::new(&dir, 3);
    let outcome = store.load_latest_valid(fp_other).unwrap();
    assert!(
        outcome.snapshot.is_none(),
        "fingerprint-mismatched snapshots must not load"
    );
    assert!(
        !outcome.quarantined.is_empty(),
        "mismatches are quarantined"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An untraced job keeps no trace-window slots and no rank trace rings,
/// so its checkpoints write a count of 0 for both: the `ranks` section
/// is that count alone, and the `trace` section that count and the
/// empty scheduler ring. Each one resumes to the uninterrupted run.
#[test]
fn untraced_checkpoints_write_no_rank_slots_or_rings() {
    use bgp_arch::wire::put_u64;
    let dir = tempdir("ranks-layout");
    let untraced = |dir: Option<&std::path::Path>| {
        let mut s = spec(dir, false);
        s.trace = None;
        s
    };
    let reference = {
        let m = Machine::new(untraced(None));
        let r = m.run(kernel);
        observe(&m, &r)
    };
    let m = Machine::new(untraced(Some(&dir)));
    m.run(kernel);
    let mut zero = Vec::new();
    put_u64(&mut zero, 0);
    let mut no_rings = zero.clone();
    put_u64(&mut no_rings, 0); // scheduler events
    put_u64(&mut no_rings, 0); // scheduler dropped
    let files = SnapshotStore::new(&dir, 8)
        .list()
        .expect("snapshot dir listable");
    assert!(!files.is_empty(), "no snapshots written");
    for path in files {
        let snap = bgp_snapshot::Snapshot::decode(&std::fs::read(&path).expect("readable"))
            .expect("snapshot decodes");
        let phase = snap.phase;
        assert_eq!(snap.section("ranks"), Some(&zero[..]), "phase {phase}");
        assert_eq!(snap.section("trace"), Some(&no_rings[..]), "phase {phase}");
        let m = Machine::new(untraced(Some(&dir)));
        m.resume(snap).expect("snapshot accepted");
        let r = m.run(kernel);
        assert_same(
            &observe(&m, &r),
            &reference,
            &format!("untraced resume from {phase}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced job resumed with a spec that drops the checkpoint config
/// (the fingerprint excludes it) continues from the trace-window state
/// the snapshot restored: every rank's `MemWindow` samples, window
/// numbers included, equal the uninterrupted run's.
#[test]
fn traced_resume_without_checkpointing_keeps_mem_window_samples() {
    use bgp_trace::EventKind;
    let traced = |dir: Option<&std::path::Path>| {
        let mut s = spec(dir, false);
        s.quantum = 256;
        s.trace = Some(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        s
    };
    let mem_windows = |m: &Machine| -> Vec<Vec<EventKind>> {
        let trace = m.job_trace().expect("traced job");
        trace
            .ranks
            .iter()
            .map(|r| {
                let windows = r.events.iter().map(|e| e.kind.clone());
                windows
                    .filter(|k| matches!(k, EventKind::MemWindow { .. }))
                    .collect()
            })
            .collect()
    };
    let reference = {
        let m = Machine::new(traced(None));
        m.run(kernel);
        mem_windows(&m)
    };
    assert!(
        reference.iter().any(|w| w.len() > 8),
        "the kernel samples many windows"
    );

    let dir = tempdir("resume-traced-windows");
    let m = Machine::new(traced(Some(&dir)));
    m.set_kill_at_phase(7);
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.run(kernel);
    }));
    assert!(killed.is_err(), "kill point must fire");

    let s = traced(None);
    let fp = s.fingerprint();
    let snap = SnapshotStore::new(&dir, 8)
        .load_latest_valid(fp)
        .expect("store readable")
        .snapshot
        .expect("a valid snapshot exists")
        .0;
    assert!(snap.phase > 0);
    let m = Machine::new(s);
    m.resume(snap).expect("snapshot accepted");
    m.run(kernel);
    assert_eq!(
        mem_windows(&m),
        reference,
        "resumed MemWindow samples diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint records each rank's trace-window state as of its last
/// park. Rank 0 here closes windows after its last park and finishes
/// while its peers still exchange messages, so later phases capture it
/// finished: the window count they record is the one it parked with.
#[test]
fn checkpoints_record_window_state_as_of_each_ranks_last_park() {
    use bgp_trace::EventKind;
    let dir = tempdir("ranks-last-park");
    let mut s = JobSpec::new(8, bgp_arch::OpMode::VirtualNode);
    s.trace = Some(TraceConfig {
        sample_every: 1,
        ..TraceConfig::default()
    });
    s.quantum = 64;
    s.sim_threads = Some(1);
    s.checkpoint = Some(CheckpointConfig {
        every: 1,
        dir: dir.clone(),
        retain: 1000,
    });
    let m = Machine::new(s);
    m.run(|mut ctx| async move {
        let mut v = ctx.alloc::<f64>(1024);
        ctx.barrier().await;
        let stores = if ctx.rank() == 0 { 4096 } else { 16 };
        for i in 0..stores {
            ctx.st(&mut v, i % 1024, 1.0).await;
        }
        let (r, n) = (ctx.rank(), ctx.size());
        if r >= 1 && r + 1 < n {
            ctx.send(r + 1, 1, vec![1]).await;
        }
        if r > 1 {
            ctx.recv(Some(r - 1), 1).await;
        }
    });

    let trace = m.job_trace().expect("traced job");
    let events = &trace.ranks[0].events;
    let last_park = events
        .iter()
        .rposition(|e| matches!(e.kind, EventKind::RankPark { .. }))
        .expect("rank 0 parks at the barrier");
    let is_window = |e: &&bgp_trace::TraceEvent| matches!(e.kind, EventKind::MemWindow { .. });
    let parked_with = events[..last_park].iter().filter(is_window).count() as u64;
    let finished_with = events.iter().filter(is_window).count() as u64;
    assert!(
        finished_with > parked_with,
        "rank 0 closes windows after its last park"
    );

    let files = SnapshotStore::new(&dir, 1000)
        .list()
        .expect("snapshot dir listable");
    let last = files.last().expect("snapshots written");
    let snap = bgp_snapshot::Snapshot::decode(&std::fs::read(last).expect("readable"))
        .expect("snapshot decodes");
    let mut r = bgp_arch::wire::Reader::new(snap.section("ranks").expect("ranks section"));
    assert_eq!(r.u64("rank count").unwrap(), 8);
    assert_eq!(
        r.u64("rank 0 windows").unwrap(),
        parked_with,
        "phase {}",
        snap.phase
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("bgp-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

/// A toy application layer: one counter, saved as 8 bytes.
struct Tally(std::sync::Mutex<u64>);

impl AppState for Tally {
    fn name(&self) -> &'static str {
        "tally"
    }
    fn save(&self) -> Vec<u8> {
        self.0.lock().unwrap().to_le_bytes().to_vec()
    }
    fn restore(&self, bytes: &[u8]) -> bgp_arch::error::Result<()> {
        let b: [u8; 8] = bytes
            .try_into()
            .map_err(|_| bgp_arch::BgpError::corrupt("tally is 8 bytes"))?;
        *self.0.lock().unwrap() = u64::from_le_bytes(b);
        Ok(())
    }
}

/// A snapshot holding an `app:` section fails closed on a machine with
/// no hook registered under that name: the resumed run panics at
/// go-live, naming the section, instead of resuming with the library's
/// default state.
#[test]
fn resume_into_an_unregistered_app_section_panics_naming_it() {
    let dir = tempdir("resume-unregistered-app");
    {
        let m = Machine::new(spec(Some(&dir), false));
        m.register_app_state("tally", || Arc::new(Tally(std::sync::Mutex::new(7))));
        m.run(kernel);
    }
    let s = spec(Some(&dir), false);
    let fp = s.fingerprint();
    let snap = SnapshotStore::new(&dir, 3)
        .load_latest_valid(fp)
        .expect("store readable")
        .snapshot
        .expect("a valid snapshot exists")
        .0;
    assert!(snap.section_names().any(|n| n == "app:tally"));
    let m = Machine::new(s);
    m.resume(snap).expect("snapshot accepted");
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(kernel)))
        .expect_err("resuming into an unregistered app section must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains(
            "snapshot section \"app:tally\" has no registered app-state hook; \
             register it before resuming"
        ),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
