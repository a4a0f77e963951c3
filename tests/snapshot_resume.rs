//! Crash-safety matrix at the facade level.
//!
//! A kill can land anywhere, so resume identity is checked from *every*
//! phase boundary of an MG class S job (a snapshot at phase `p` is
//! exactly the disk state a crash anywhere in `(p, p+1]` leaves
//! behind), under clean and faulted plans. Class A gets the same
//! treatment on sampled boundaries behind `--ignored`. Corrupted and
//! truncated snapshot files must fail closed with a quarantine report,
//! and the supervisor must recover an injected mid-run kill on its own.

use bgp::arch::events::CounterMode;
use bgp::arch::OpMode;
use bgp::counters::run_instrumented;
use bgp::counters::supervisor::{supervise, SupervisorConfig};
use bgp::faults::{FaultPlan, FaultSpec};
use bgp::mpi::{CheckpointConfig, CounterPolicy};
use bgp::nas::{Class, Kernel};
use bgp::snapshot::{Snapshot, SnapshotStore};
use bgp::trace::TraceConfig;
use bgp::{JobSpec, Machine};
use std::path::PathBuf;
use std::sync::Arc;

const RANKS: usize = 8;
/// Keep every snapshot of the reference runs (one per phase boundary).
const RETAIN_ALL: usize = 100_000;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgp-snapres-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// MG job spec: 8 ranks VNM, fixed thread count, optional fault plan.
fn spec(threads: usize, fault_seed: Option<u64>) -> JobSpec {
    let mut spec = JobSpec::new(RANKS, OpMode::VirtualNode);
    spec.sim_threads = Some(threads);
    if let Some(seed) = fault_seed {
        let nodes = spec.nodes();
        spec.faults = Some(Arc::new(FaultPlan::new(
            FaultSpec {
                straggler_rate: 0.5,
                straggler_penalty_cycles: 5_000,
                link_degrade_rate: 0.5,
                link_slowdown: 3,
                ..Default::default()
            },
            seed,
            nodes,
        )));
    }
    spec
}

/// Every simulator-owned byte surface of a finished run: the global
/// clock plus each node's encoded counter dump.
fn observe(machine: &Machine, lib: &bgp::counters::CounterLibrary) -> Vec<(String, Vec<u8>)> {
    let mut parts = vec![(
        "job_cycles".to_string(),
        machine.job_cycles().to_string().into_bytes(),
    )];
    for n in 0..machine.num_nodes() {
        parts.push((
            format!("node {n} dump"),
            lib.encoded_dump(n).expect("node finalized"),
        ));
    }
    parts
}

fn assert_same(got: &[(String, Vec<u8>)], want: &[(String, Vec<u8>)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: surface count");
    for ((gn, gb), (wn, wb)) in got.iter().zip(want) {
        assert_eq!(gn, wn, "{what}: surface order");
        assert!(gb == wb, "{what}: {gn} diverged");
    }
}

/// Run the job to completion (optionally resuming from `snap` first)
/// and return its observable surfaces.
fn run_mg(spec: JobSpec, class: Class, snap: Option<Snapshot>) -> Vec<(String, Vec<u8>)> {
    let machine = Machine::new(spec);
    if let Some(snap) = snap {
        machine.resume(snap).expect("snapshot accepted");
    }
    let (out, lib) = run_instrumented(&machine, move |ctx| Kernel::Mg.exec(class, ctx));
    assert!(out.iter().all(|r| r.verified), "MG failed verification");
    observe(&machine, &lib)
}

/// Run a checkpointed reference, then resume from each listed snapshot
/// and demand byte identity with the uninterrupted run.
fn check_boundaries(tag: &str, class: Class, every: u64, fault_seed: Option<u64>) {
    let dir = tempdir(tag);
    let mut ref_spec = spec(1, fault_seed);
    ref_spec.checkpoint = Some(CheckpointConfig {
        every,
        dir: dir.clone(),
        retain: RETAIN_ALL,
    });
    let reference = run_mg(ref_spec, class, None);

    let store = SnapshotStore::new(&dir, RETAIN_ALL);
    let files = store.list().expect("list snapshots");
    assert!(
        files.len() as u64 >= 2,
        "{tag}: expected multiple snapshots, got {}",
        files.len()
    );
    for path in &files {
        let snap = Snapshot::decode(&std::fs::read(path).unwrap()).expect("snapshot decodes");
        let phase = snap.phase;
        let resumed = run_mg(spec(1, fault_seed), class, Some(snap));
        assert_same(
            &resumed,
            &reference,
            &format!("{tag}: resume from phase {phase}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The core matrix: MG class S, a snapshot at every phase boundary,
/// resume from each one, clean and faulted.
#[test]
fn mg_s_resumes_byte_identically_from_every_phase_boundary() {
    check_boundaries("s-clean", Class::S, 1, None);
    check_boundaries("s-faulted", Class::S, 1, Some(42));
}

/// Class A, sampled boundaries — slow, manual.
#[test]
#[ignore = "class A sweep is slow; run manually before releases"]
fn mg_a_resumes_byte_identically_from_sampled_phase_boundaries() {
    check_boundaries("a-clean", Class::A, 16, None);
    check_boundaries("a-faulted", Class::A, 16, Some(42));
}

/// A multiplexed, traced MG S job resumed from sampled phase
/// boundaries at 1 and 4 threads: the rotating schedules, the counter
/// library's open marks and the trace all splice back byte-identically.
#[test]
fn multiplexed_mg_s_resumes_byte_identically_with_its_trace() {
    let mux_spec = |threads| {
        let mut s = spec(threads, None);
        s.counter_policy =
            CounterPolicy::Multiplexed { first: CounterMode::Mode0, base_dwell: 4 };
        s.trace = Some(TraceConfig {
            sample_every: 8,
            sample_slots: vec![0, 1, 2],
            ..Default::default()
        });
        s
    };
    let run = |spec: JobSpec, snap: Option<Snapshot>| {
        let machine = Machine::new(spec);
        if let Some(snap) = snap {
            machine.resume(snap).expect("snapshot accepted");
        }
        let (out, lib) = run_instrumented(&machine, |ctx| Kernel::Mg.exec(Class::S, ctx));
        assert!(out.iter().all(|r| r.verified), "MG failed verification");
        let trace = machine.job_trace().expect("tracing enabled");
        let mut parts = observe(&machine, &lib);
        parts.push(("trace".to_string(), trace.chrome_json().into_bytes()));
        parts.push(("phases".to_string(), trace.phase_metrics_csv().into_bytes()));
        parts
    };
    let dir = tempdir("mux");
    let mut ref_spec = mux_spec(1);
    ref_spec.checkpoint = Some(CheckpointConfig {
        every: 16,
        dir: dir.clone(),
        retain: RETAIN_ALL,
    });
    let reference = run(ref_spec, None);
    let files = SnapshotStore::new(&dir, RETAIN_ALL).list().expect("list snapshots");
    assert!(files.len() >= 2, "expected several snapshots, got {}", files.len());
    for path in &files {
        let bytes = std::fs::read(path).unwrap();
        for threads in [1, 4] {
            let snap = Snapshot::decode(&bytes).expect("snapshot decodes");
            let what = format!("mux resume from phase {} at {threads} threads", snap.phase);
            assert_same(&run(mux_spec(threads), Some(snap)), &reference, &what);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot in an older container layout (version 1, 2 or 3) passes
/// its checksums but is refused at load, naming its version, and
/// quarantined: the supervisor cold-starts instead of replaying it. The
/// refusal is reported as corrupt data, not as a corrupt counter dump.
#[test]
fn version_1_snapshots_are_refused_before_replay() {
    let reference = run_mg(spec(1, None), Class::S, None);
    for version in [1u32, 2, 3] {
        let dir = tempdir(&format!("v{version}"));
        let mut job = spec(1, None);
        job.checkpoint = Some(CheckpointConfig { every: 16, dir: dir.clone(), retain: 1 });
        run_mg(job.clone(), Class::S, None);
        let store = SnapshotStore::new(&dir, 1);
        let path = store.list().expect("list").pop().expect("a snapshot");

        // Rewrite the header's version and re-seal the file checksum, so
        // the version is the only thing wrong with the file.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 8;
        let total = bgp::arch::wire::checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&total.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let named = format!("version {version}");
        let err = Snapshot::decode(&bytes).expect_err("an old version must not decode");
        assert!(err.to_string().contains(&named), "error names the version: {err}");

        let cfg = SupervisorConfig { max_retries: 0, ..Default::default() };
        let run =
            supervise(&job, &cfg, |ctx| Kernel::Mg.exec(Class::S, ctx)).expect("cold start");
        assert_eq!(run.attempts[0].resumed_from, None, "a v{version} snapshot must never replay");
        assert!(path.with_extension("quarantined").exists(), "the v{version} file was set aside");
        let report = std::fs::read_to_string(path.with_extension("quarantine.txt")).unwrap();
        assert!(report.contains(&named), "quarantine report names the version:\n{report}");
        assert!(!report.contains("counter dump"), "a snapshot is not a dump:\n{report}");
        assert_same(&observe(&run.machine, &run.library), &reference, "cold start after refusal");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Acceptance matrix: resumed runs are byte-identical to the
/// uninterrupted reference across `sim_threads` in {1, 4} and three
/// fault seeds (plus the clean plan). One reference per plan (threads
/// fixed at 1) doubles as a cross-thread determinism check.
#[test]
fn resume_is_byte_identical_across_threads_and_seeds() {
    for fault_seed in [None, Some(7), Some(42), Some(1337)] {
        let dir = tempdir(&format!("matrix-{}", fault_seed.unwrap_or(0)));
        let mut ref_spec = spec(1, fault_seed);
        ref_spec.checkpoint = Some(CheckpointConfig {
            every: 16,
            dir: dir.clone(),
            retain: 4,
        });
        let reference = run_mg(ref_spec, Class::S, None);
        let store = SnapshotStore::new(&dir, 4);
        let outcome = store
            .load_latest_valid(spec(1, fault_seed).fingerprint())
            .expect("load latest");
        assert!(outcome.quarantined.is_empty(), "clean store quarantined");
        let (snap, _path) = outcome.snapshot.expect("snapshot present");
        let bytes = snap.encode();
        for threads in [1, 4] {
            let snap = Snapshot::decode(&bytes).unwrap();
            let resumed = run_mg(spec(threads, fault_seed), Class::S, Some(snap));
            assert_same(
                &resumed,
                &reference,
                &format!("seed {fault_seed:?} threads {threads}"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kernel with heterogeneous suspension points: each rank ping-pongs
/// with a partner — half the ranks parked in `recv` while the other
/// half are past their matching `send` — before joining a global
/// collective. A snapshot taken at an interior phase boundary
/// therefore lands while the rank state machines sit at *different*
/// awaits of the same job, the adversarial case for checkpointing the
/// multiplexed runtime.
async fn staggered_rank(mut ctx: bgp::RankCtx) -> (bgp::RankCtx, bool) {
    let (rank, size) = (ctx.rank(), ctx.size());
    let partner = rank ^ 1;
    let mut acc = 0.0f64;
    for _round in 0..4 {
        if rank % 2 == 0 {
            ctx.send(partner, 1, vec![rank as u8; 8]).await;
            acc += ctx.recv(Some(partner), 2).await.len() as f64;
        } else {
            acc += ctx.recv(Some(partner), 1).await.len() as f64;
            ctx.send(partner, 2, vec![rank as u8; 8]).await;
        }
        ctx.barrier().await;
    }
    let sum = ctx.allreduce_sum_f64(&[acc]).await;
    ctx.barrier().await;
    let ok = sum[0] == size as f64 * 32.0;
    (ctx, ok)
}

/// Snapshot/resume with suspended ranks mid-phase: checkpoint every
/// phase boundary of the staggered job, then resume from each snapshot
/// (on 4 sim threads, for extra schedule adversity) and demand byte
/// identity with the uninterrupted run.
#[test]
fn resume_with_ranks_suspended_mid_phase_is_byte_identical() {
    let dir = tempdir("midphase");
    let mut ref_spec = spec(1, Some(42));
    ref_spec.checkpoint = Some(CheckpointConfig {
        every: 1,
        dir: dir.clone(),
        retain: RETAIN_ALL,
    });
    let machine = Machine::new(ref_spec);
    let (out, lib) = run_instrumented(&machine, staggered_rank);
    assert!(out.iter().all(|&ok| ok), "staggered kernel failed verification");
    let reference = observe(&machine, &lib);

    let store = SnapshotStore::new(&dir, RETAIN_ALL);
    let files = store.list().expect("list snapshots");
    assert!(
        files.len() >= 3,
        "staggered job must cross several phase boundaries, got {}",
        files.len()
    );
    for path in &files {
        let snap = Snapshot::decode(&std::fs::read(path).unwrap()).expect("snapshot decodes");
        let phase = snap.phase;
        let machine = Machine::new(spec(4, Some(42)));
        machine.resume(snap).expect("snapshot accepted");
        let (out, lib) = run_instrumented(&machine, staggered_rank);
        assert!(
            out.iter().all(|&ok| ok),
            "resume from phase {phase}: rank verification failed"
        );
        assert_same(
            &observe(&machine, &lib),
            &reference,
            &format!("mid-phase resume from phase {phase}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kernel whose first node finishes early: after a common barrier the
/// ranks of node 0 return, so that node's last `BGP_Finalize` writes its
/// dump while the other node's ranks still ping-pong through several
/// more phases.
async fn early_finisher(mut ctx: bgp::RankCtx) -> (bgp::RankCtx, bool) {
    let rank = ctx.rank();
    ctx.barrier().await;
    if rank < RANKS / 2 {
        return (ctx, true);
    }
    let partner = rank ^ 1;
    let mut got = 0;
    for round in 0..6u8 {
        ctx.fp1(bgp::mpi::SemOp::MulAdd);
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

/// A snapshot that holds a finalized node (its flag and its windows)
/// resumes to byte-identical dumps, under a one-mode and a rotating
/// policy.
#[test]
fn resume_with_a_finalized_node_is_byte_identical() {
    let policies = [
        CounterPolicy::EvenOdd { even: CounterMode::Mode0, odd: CounterMode::Mode1 },
        CounterPolicy::Multiplexed { first: CounterMode::Mode2, base_dwell: 1 },
    ];
    for (k, policy) in policies.into_iter().enumerate() {
        let dir = tempdir(&format!("finalized{k}"));
        let job_spec = || {
            let mut s = spec(1, None);
            s.counter_policy = policy;
            s
        };
        let mut ref_spec = job_spec();
        ref_spec.checkpoint =
            Some(CheckpointConfig { every: 1, dir: dir.clone(), retain: RETAIN_ALL });
        let machine = Machine::new(ref_spec);
        let (out, lib) = run_instrumented(&machine, early_finisher);
        assert!(out.iter().all(|&ok| ok), "{policy:?}: kernel failed verification");
        let reference = observe(&machine, &lib);

        let files = SnapshotStore::new(&dir, RETAIN_ALL).list().expect("list snapshots");
        let mut with_finalized = 0;
        for path in &files {
            let snap = Snapshot::decode(&std::fs::read(path).unwrap()).expect("snapshot decodes");
            let phase = snap.phase;
            let saved = bgp::counters::CounterLibrary::for_machine(&Machine::new(job_spec()));
            bgp::mpi::AppState::restore(&*saved, snap.section_required("app:counters").unwrap())
                .expect("library section restores");
            if saved.encoded_dump(0).is_some() && saved.encoded_dump(1).is_none() {
                with_finalized += 1;
            }
            let machine = Machine::new(job_spec());
            machine.resume(snap).expect("snapshot accepted");
            let (out, lib) = run_instrumented(&machine, early_finisher);
            assert!(out.iter().all(|&ok| ok), "{policy:?}: resume from phase {phase} failed");
            assert_same(
                &observe(&machine, &lib),
                &reference,
                &format!("{policy:?}: resume from phase {phase}"),
            );
        }
        assert!(
            with_finalized >= 2,
            "{policy:?}: {with_finalized} snapshots hold node 0 finalized and node 1 running"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Damaged snapshot files must never resume: every corruption is
/// quarantined with a reason, the loader falls back to the newest
/// intact snapshot, and a fully poisoned store yields a cold start.
#[test]
fn corrupted_snapshots_fail_closed_with_quarantine() {
    let dir = tempdir("corrupt");
    let mut ref_spec = spec(1, Some(42));
    ref_spec.checkpoint = Some(CheckpointConfig {
        every: 8,
        dir: dir.clone(),
        retain: 8,
    });
    run_mg(ref_spec, Class::S, None);

    let store = SnapshotStore::new(&dir, 8);
    let files = store.list().expect("list snapshots");
    assert!(files.len() >= 3, "need several snapshots to damage");
    let fingerprint = spec(1, Some(42)).fingerprint();

    // Newest: truncate mid-payload. Second-newest: flip a payload byte.
    let newest = files.last().unwrap();
    let second = &files[files.len() - 2];
    let head_phase = Snapshot::decode(&std::fs::read(newest).unwrap())
        .expect("intact before damage")
        .phase;
    let body = std::fs::read(newest).unwrap();
    std::fs::write(newest, &body[..body.len() / 2]).unwrap();
    let mut body = std::fs::read(second).unwrap();
    let mid = body.len() / 2;
    body[mid] ^= 0x40;
    std::fs::write(second, body).unwrap();

    // Decode itself fails closed on both.
    for path in [newest, second] {
        Snapshot::decode(&std::fs::read(path).unwrap())
            .expect_err("damaged snapshot must not decode");
    }

    // The loader quarantines both (rename + on-disk report) and falls
    // back to the newest intact snapshot, which still resumes
    // byte-identically.
    let outcome = store.load_latest_valid(fingerprint).expect("load");
    assert_eq!(outcome.quarantined.len(), 2, "both damaged files reported");
    for q in &outcome.quarantined {
        assert!(!q.reason.is_empty(), "quarantine report carries a reason");
        assert!(q.path.exists(), "quarantined file moved aside, not lost");
        assert!(
            q.path.with_extension("quarantine.txt").exists(),
            "quarantine report written next to {}",
            q.path.display()
        );
    }
    assert!(!newest.exists(), "damaged head renamed out of the store");
    let (snap, path) = outcome.snapshot.expect("intact fallback");
    assert!(
        snap.phase < head_phase,
        "fallback (phase {}) must be older than the damaged head (phase {head_phase})",
        snap.phase
    );
    assert!(!outcome.quarantined.iter().any(|q| q.path == path));
    let reference = run_mg(spec(1, Some(42)), Class::S, None);
    let resumed = run_mg(spec(1, Some(42)), Class::S, Some(snap));
    assert_same(&resumed, &reference, "resume from intact fallback");

    // Poison everything: no snapshot survives, all are quarantined.
    for path in store.list().expect("list") {
        std::fs::write(&path, b"not a snapshot").unwrap();
    }
    let outcome = store.load_latest_valid(fingerprint).expect("load");
    assert!(outcome.snapshot.is_none(), "poisoned store must cold-start");
    assert!(!outcome.quarantined.is_empty());

    // A snapshot from a different experiment is rejected by resume.
    let other = Snapshot::new(fingerprint ^ 1, 8);
    let machine = Machine::new(spec(1, Some(42)));
    machine
        .resume(other)
        .expect_err("foreign fingerprint must be refused");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end supervisor drill at the facade: inject a watchdog kill
/// mid-run, let the supervisor retry from the snapshot it left behind,
/// and demand the recovered dumps match an uninterrupted run.
#[test]
fn supervisor_recovers_injected_kill() {
    let reference = run_mg(spec(1, Some(7)), Class::S, None);

    let dir = tempdir("supervised");
    let mut job = spec(1, Some(7));
    job.checkpoint = Some(CheckpointConfig {
        every: 4,
        dir: dir.clone(),
        retain: 3,
    });
    let cfg = SupervisorConfig {
        max_retries: 2,
        backoff_base: std::time::Duration::ZERO,
        inject_kill_at_phase: Some(20),
        ..Default::default()
    };
    let run = supervise(&job, &cfg, move |ctx| Kernel::Mg.exec(Class::S, ctx)).expect("recovers");
    assert_eq!(run.attempts.len(), 2, "kill then one successful retry");
    assert!(
        run.attempts[1].resumed_from.is_some(),
        "retry must resume from the snapshot, not cold-start"
    );
    assert!(run.results.iter().all(|r| r.verified));
    let recovered = observe(&run.machine, &run.library);
    assert_same(&recovered, &reference, "supervised recovery");
    let _ = std::fs::remove_dir_all(&dir);
}
