//! The three batch workloads: one simulated job per iteration, driven
//! through the public API of `bgp-mpi`, `bgp-core`, `bgp-nas` and
//! `bgp-postproc`.

use crate::spans::{PollTimer, Tracer};
use crate::stats;
use crate::{Iteration, Metrics};
use bgp_arch::events::NetEvent;
use bgp_arch::rng::SimRng;
use bgp_arch::{OpMode, CORES_PER_NODE};
use bgp_core::supervisor::{supervise_observed, AttemptOutcome, RunObserver, SupervisorConfig};
use bgp_core::{read_dumps_lenient, run_instrumented, CounterLibrary, WHOLE_PROGRAM_SET};
use bgp_mpi::machine::{CheckpointConfig, SnapshotStats};
use bgp_mpi::{JobSpec, Machine, RankCtx, SemOp};
use bgp_nas::{Class, Kernel};
use bgp_postproc::Frame;
use bgp_serve::proto::workload_tag;
use bgp_snapshot::SnapshotStore;
use bgp_trace::TraceConfig;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Simulator workers per job, pinned for every workload and the traced
/// run. One worker keeps rank polls from overlapping, so the poll spans
/// nest inside `mpi.run` and self times add up to the job's wall time;
/// it also leaves the host's second CPU to the benchmark and the OS.
pub const SIM_THREADS: usize = 1;

/// Set-ups per iteration where set-up is cheap (microseconds, since
/// node caches materialize lazily); `setup_s` is their median, so one
/// slow allocation does not move it.
const SETUP_REPS: usize = 2000;

/// The paper's full machine: 72 racks × 1,024 nodes, 4 ranks each (VNM).
pub const PROBE_RANKS: usize = 73_728 * 4;
/// FP operations each probe rank retires before communicating.
const PROBE_FP: usize = 8;
/// Neighbour `sendrecv` rounds; round `k` pairs rank `r` with
/// `r ^ (4 << k)`, a rank on another node.
const PROBE_ROUNDS: u32 = 3;

/// CG checkpoint cadence (phases) in `cg-supervised`.
const CG_CHECKPOINT_EVERY: u64 = 16;
/// How far past a snapshot the injected kill lands. Fixed, so every
/// seed loses the same live simulated work; the seed only picks which
/// of the last two checkpoint intervals dies. Replay up to the snapshot
/// skips the cost model but still costs about a fifth of a live phase,
/// so earlier intervals would make the job's host time depend on the
/// seed.
const CG_KILL_OFFSET: u64 = 8;
/// Scheduling phases of CG class A on 16 VNM ranks (checked by the
/// digest, which covers the phase count).
pub const CG_PHASES: u64 = 81;

fn spec(ranks: usize, workload: String) -> JobSpec {
    let mut spec = JobSpec::new(ranks, OpMode::VirtualNode);
    spec.workload = Some(workload);
    spec.sim_threads = Some(SIM_THREADS);
    spec
}

/// Build a machine and its counter library, as one `setup` span.
fn setup(t: &mut Tracer, spec: &JobSpec) -> (Arc<Machine>, Arc<CounterLibrary>) {
    t.span("setup", |t| {
        let machine = t.span("mpi.setup", |_| Machine::new(spec.clone()));
        let lib = t.span("core.library", |_| CounterLibrary::for_machine(&machine));
        (machine, lib)
    })
}

/// Median duration of the `setup` spans recorded since span `from`.
fn setup_median(t: &Tracer, from: usize) -> f64 {
    let xs: Vec<f64> = t.spans()[from..]
        .iter()
        .filter(|s| s.name == "setup")
        .map(|s| s.duration().as_secs_f64())
        .collect();
    stats::median(&xs)
}

fn last_duration(t: &Tracer, name: &str) -> f64 {
    t.spans()
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.duration().as_secs_f64())
}

/// Counts the simulated machine kept: phases, instructions, the memory
/// hierarchy's statistics and every node's network-event mirror.
fn machine_counts(m: &Machine, l: &mut Metrics) {
    let net = |e: NetEvent| e.id().slot().0 as usize;
    let (mut instr, mut acc, mut l1, mut l2, mut l3, mut ddr) = (0, 0, 0, 0, 0, 0);
    let (mut pkts, mut tbytes, mut cbytes, mut barriers) = (0, 0, 0, 0);
    for i in 0..m.num_nodes() {
        m.with_node(i, |n| {
            instr += (0..CORES_PER_NODE)
                .map(|c| n.core(c).instructions())
                .sum::<u64>();
            let s = n.mem_stats();
            acc += s.total_accesses();
            l1 += s.l1d_misses;
            l2 += s.l2_misses;
            l3 += s.l3_misses;
            ddr += s.ddr_traffic_bytes();
            let t = n.net_truth();
            pkts += t[net(NetEvent::TorusPktSent)];
            tbytes += t[net(NetEvent::TorusBytesSent)];
            cbytes += t[net(NetEvent::CollBytesSent)];
            barriers += t[net(NetEvent::BarrierCrossed)];
        });
    }
    l.set("mpi.phases", m.phases() as f64);
    l.set("node.instructions", instr as f64);
    l.set("mem.accesses", acc as f64);
    l.set("mem.l1d_misses", l1 as f64);
    l.set("mem.l2_misses", l2 as f64);
    l.set("mem.l3_misses", l3 as f64);
    l.set("mem.ddr_bytes", ddr as f64);
    l.set("net.torus_pkts", pkts as f64);
    l.set("net.torus_bytes", tbytes as f64);
    l.set("net.coll_bytes", cbytes as f64);
    l.set("net.barriers", barriers as f64);
}

/// Host time inside and around rank polls: `busy` is the summed poll
/// time, `run` the wall time of the worker-driven runs it happened in.
/// The per-instruction and per-access ratios use the counts
/// [`machine_counts`] set, so call it first.
fn poll_layers(l: &mut Metrics, run: f64, busy: Duration, polls: u64) {
    let busy = busy.as_secs_f64();
    l.set("mpi.runtime_s", run - busy);
    l.set("mpi.polls", polls as f64);
    l.set("mpi.ns_per_poll", ratio_ns(busy, polls as f64));
    l.set("node.busy_s", busy);
    l.set(
        "node.ns_per_instr",
        ratio_ns(busy, l.get("node.instructions")),
    );
    l.set("mem.ns_per_access", ratio_ns(busy, l.get("mem.accesses")));
}

/// Total size of the encoded per-node dumps.
fn encoded_bytes(machine: &Machine, lib: &CounterLibrary) -> f64 {
    let dumps = (0..machine.num_nodes()).filter_map(|i| lib.encoded_dump(i));
    dumps.map(|b| b.len() as f64).sum()
}

fn ratio_ns(secs: f64, n: f64) -> f64 {
    if n > 0.0 {
        secs * 1e9 / n
    } else {
        0.0
    }
}

fn check(fails: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        fails.push(what());
    }
}

fn check_digest(fails: &mut Vec<String>, got: Result<u64, String>, want: u64) {
    match got {
        Ok(d) => check(fails, d == want, || {
            format!("counter digest {d:#018x} differs from the reference {want:#018x}")
        }),
        Err(e) => fails.push(format!("counter digest: {e}")),
    }
}

/// `mg-a16`: MG class A on 16 VNM ranks (the reference job).
pub fn mg_a16(t: &mut Tracer, traced: bool, reference: u64) -> Iteration {
    instrumented_job(
        t,
        traced,
        reference,
        &spec(16, workload_tag(Kernel::Mg, Class::A)),
        SETUP_REPS,
        |ctx| async move {
            let (ctx, r) = Kernel::Mg.exec(Class::A, ctx).await;
            (ctx, r.verified)
        },
    )
}

/// `fullmachine-probe`: the probe kernel on all 294,912 ranks.
pub fn fullmachine_probe(t: &mut Tracer, traced: bool, reference: u64) -> Iteration {
    // One set-up per iteration: each holds over a gigabyte.
    instrumented_job(
        t,
        traced,
        reference,
        &spec(PROBE_RANKS, "perfbench-probe".into()),
        1,
        probe,
    )
}

/// The probe rank body: a few FP operations, neighbour exchanges, an
/// allreduce and a barrier. No array is touched, so the simulated caches
/// stay cold. Returns whether every exchange and the reduction came out
/// right.
pub async fn probe(mut ctx: RankCtx) -> (RankCtx, bool) {
    for _ in 0..PROBE_FP {
        ctx.fp1(SemOp::MulAdd);
    }
    let (rank, size) = (ctx.rank(), ctx.size());
    let mut ok = true;
    for round in 0..PROBE_ROUNDS {
        let peer = rank ^ (4 << round);
        if peer >= size {
            continue;
        }
        let got = ctx
            .sendrecv(peer, round, bgp_mpi::u64s_to_bytes(&[rank as u64]))
            .await;
        ok &= bgp_mpi::bytes_to_u64s(&got) == [peer as u64];
    }
    let sum = ctx.allreduce_sum_f64(&[rank as f64]).await;
    ctx.barrier().await;
    let n = size as f64;
    ok &= sum[0] == n * (n - 1.0) / 2.0;
    (ctx, ok)
}

fn instrumented_job<F, Fut>(
    t: &mut Tracer,
    traced: bool,
    reference: u64,
    spec: &JobSpec,
    setup_reps: usize,
    kernel: F,
) -> Iteration
where
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: std::future::Future<Output = (RankCtx, bool)> + Send,
{
    let first = t.spans().len();
    for _ in 1..setup_reps {
        drop(setup(t, spec));
    }
    let (machine, _lib) = setup(t, spec);
    let mut l = Metrics::default();
    let mut fails = Vec::new();
    let timer = PollTimer::default();
    let job = t.open_span("job");
    let run = t.open_span("mpi.run");
    let (ok, lib) = if traced {
        run_instrumented(&machine, |ctx| timer.wrap(kernel(ctx)))
    } else {
        run_instrumented(&machine, &kernel)
    };
    if traced {
        t.collapsed("node.poll", run, timer.total(), timer.polls());
    }
    t.close_span(run);
    let dumps = t.span("core.collect", |_| lib.dumps());
    let frame = t.span("postproc.aggregate", |_| {
        dumps
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|d| Frame::from_dumps(d, WHOLE_PROGRAM_SET).map_err(|e| e.to_string()))
    });
    t.close_span(job);

    check(&mut fails, ok.iter().all(|&v| v), || {
        "a rank failed its kernel verification".into()
    });
    match (&dumps, &frame) {
        (Ok(d), Ok(f)) => {
            check(&mut fails, f.records() > 0, || {
                "aggregated frame is empty".into()
            });
            check_digest(
                &mut fails,
                stats::digest(d, machine.job_cycles(), machine.phases()),
                reference,
            );
        }
        (Err(e), _) => fails.push(format!("collecting dumps: {e}")),
        (_, Err(e)) => fails.push(format!("aggregating dumps: {e}")),
    }
    if traced {
        machine_counts(&machine, &mut l);
        let run_s = last_duration(t, "mpi.run");
        poll_layers(&mut l, run_s, timer.total(), timer.polls());
        l.set("mpi.setup_s", last_duration(t, "mpi.setup"));
        l.set("core.collect_s", last_duration(t, "core.collect"));
        l.set(
            "postproc.aggregate_s",
            last_duration(t, "postproc.aggregate"),
        );
        l.set("core.dump_bytes", encoded_bytes(&machine, &lib));
    }
    Iteration {
        setup_s: setup_median(t, first),
        job_s: last_duration(t, "job"),
        fails,
        layers: l,
        job_span: job,
    }
}

/// Records every supervised attempt: its wall interval, the poll time
/// spent in it, and the snapshot statistics of its machine.
struct AttemptLog<'a> {
    timer: &'a PollTimer,
    attempts: Mutex<Vec<AttemptRec>>,
}

struct AttemptRec {
    start: Instant,
    end: Instant,
    polls: (Duration, u64),
    machine: Option<Arc<Machine>>,
    snap: SnapshotStats,
    resumed_from: Option<u64>,
    completed: bool,
}

impl RunObserver for AttemptLog<'_> {
    fn attempt_started(&self, _: u32, resumed_from: Option<u64>, machine: &Arc<Machine>) {
        let now = Instant::now();
        self.attempts
            .lock()
            .expect("attempt log poisoned")
            .push(AttemptRec {
                start: now,
                end: now,
                polls: (self.timer.total(), self.timer.polls()),
                machine: Some(Arc::clone(machine)),
                snap: SnapshotStats::default(),
                resumed_from,
                completed: false,
            });
    }

    fn attempt_ended(&self, _: u32, outcome: &AttemptOutcome) {
        let mut log = self.attempts.lock().expect("attempt log poisoned");
        let rec = log.last_mut().expect("attempt ended before it started");
        rec.end = Instant::now();
        let (busy, polls) = rec.polls;
        rec.polls = (self.timer.total() - busy, self.timer.polls() - polls);
        rec.snap = rec
            .machine
            .take()
            .expect("machine of the attempt")
            .snapshot_stats();
        rec.completed = matches!(outcome, AttemptOutcome::Completed);
    }
}

/// The phase the seed kills the first attempt at: [`CG_KILL_OFFSET`]
/// phases past one of the last two snapshots before the end.
pub fn kill_phase(seed: u64) -> u64 {
    let last = (CG_PHASES - CG_KILL_OFFSET - 1) / CG_CHECKPOINT_EVERY;
    let k = last - SimRng::seed_from_u64(seed).gen_range(0..2usize) as u64;
    k * CG_CHECKPOINT_EVERY + CG_KILL_OFFSET
}

/// `cg-supervised`: CG class A on 16 VNM ranks through the supervisor,
/// traced, checkpointed, killed once at a seeded phase and resumed;
/// outputs round-trip through `scratch`.
pub fn cg_supervised(
    t: &mut Tracer,
    traced: bool,
    reference: u64,
    seed: u64,
    scratch: &Path,
) -> Iteration {
    let ckpt = scratch.join("checkpoints");
    let out = scratch.join("outputs");
    let mut spec = spec(16, workload_tag(Kernel::Cg, Class::A));
    spec.trace = Some(TraceConfig::default());
    let checkpoint = CheckpointConfig::new(&ckpt, CG_CHECKPOINT_EVERY);
    let retain = checkpoint.retain;
    spec.checkpoint = Some(checkpoint);
    let kill = kill_phase(seed);
    let sup = SupervisorConfig {
        wall_budget: None,
        max_retries: 1,
        backoff_base: Duration::from_millis(50),
        backoff_cap: Duration::from_secs(2),
        inject_kill_at_phase: Some(kill),
    };

    let first = t.spans().len();
    for _ in 0..SETUP_REPS {
        drop(setup(t, &spec));
    }
    let mut l = Metrics::default();
    let mut fails = Vec::new();
    let timer = PollTimer::default();
    let log = AttemptLog {
        timer: &timer,
        attempts: Mutex::new(Vec::new()),
    };

    let job = t.open_span("job");
    let sup_span = t.open_span("core.supervise");
    let sup_start = Instant::now();
    let run = if traced {
        supervise_observed(
            &spec,
            &sup,
            |ctx| timer.wrap(Kernel::Cg.exec(Class::A, ctx)),
            &log,
        )
    } else {
        supervise_observed(&spec, &sup, |ctx| Kernel::Cg.exec(Class::A, ctx), &log)
    };
    let attempts = log.attempts.into_inner().expect("attempt log poisoned");
    for a in &attempts {
        let id = t.record("mpi.attempt", a.start, a.end);
        if traced {
            t.collapsed("node.poll", id, a.polls.0, a.polls.1);
        }
    }
    t.close_span(sup_span);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            t.close_span(job);
            fails.push(format!("supervised run failed: {e}"));
            return Iteration::failed(job, fails);
        }
    };
    let written = t.span("core.persist", |_| run.library.write_dumps(&out));
    let exported = t.span("trace.export", |_| {
        let trace = run.machine.job_trace().ok_or("tracing was not recorded")?;
        for (name, body) in [
            ("trace.json", trace.chrome_json()),
            ("phases.csv", trace.phase_metrics_csv()),
        ] {
            std::fs::write(out.join(name), body).map_err(|e| format!("writing {name}: {e}"))?;
        }
        Ok::<_, String>((trace.total_events(), trace.total_dropped()))
    });
    let read = t.span("core.decode", |_| read_dumps_lenient(&out));
    let frame = t.span("postproc.aggregate", |_| {
        read.as_ref().map_err(|e| e.to_string()).and_then(|r| {
            Frame::from_dumps(&r.dumps(), WHOLE_PROGRAM_SET).map_err(|e| e.to_string())
        })
    });
    t.close_span(job);
    let load = t.span("snapshot.load", |_| {
        SnapshotStore::new(&ckpt, retain).load_latest_valid(spec.fingerprint())
    });

    check(&mut fails, run.results.iter().all(|r| r.verified), || {
        "CG failed its kernel verification".into()
    });
    let injected = match attempts.as_slice() {
        [killed, resumed] => {
            !killed.completed
                && resumed.completed
                && resumed.resumed_from == Some(kill - CG_KILL_OFFSET)
        }
        _ => false,
    };
    check(&mut fails, injected, || {
        format!(
            "expected a kill at phase {kill} and a resume from phase {}",
            kill - CG_KILL_OFFSET
        )
    });
    if let Err(e) = &written {
        fails.push(format!("writing dumps: {e}"));
    }
    let (events, dropped) = exported.unwrap_or_else(|e| {
        fails.push(format!("exporting the trace: {e}"));
        (0, 0)
    });
    check(&mut fails, events > 0, || {
        "the trace recorded no events".into()
    });
    match (&read, &frame) {
        (Ok(r), Ok(_)) => {
            check(
                &mut fails,
                r.unreadable.is_empty() && r.recovered.iter().all(|d| d.is_intact()),
                || "dumps did not read back intact".into(),
            );
            check_digest(
                &mut fails,
                stats::digest(&r.dumps(), run.machine.job_cycles(), run.machine.phases()),
                reference,
            );
        }
        (Err(e), _) => fails.push(format!("reading dumps back: {e}")),
        (_, Err(e)) => fails.push(format!("aggregating dumps: {e}")),
    }
    match &load {
        Ok(o) => check(
            &mut fails,
            o.snapshot.is_some() && o.quarantined.is_empty(),
            || "the checkpoint directory holds no valid snapshot".into(),
        ),
        Err(e) => fails.push(format!("loading the latest snapshot: {e}")),
    }

    if traced {
        machine_counts(&run.machine, &mut l);
        let in_attempts: f64 = attempts
            .iter()
            .map(|a| (a.end - a.start).as_secs_f64())
            .sum();
        let busy: Duration = attempts.iter().map(|a| a.polls.0).sum();
        poll_layers(
            &mut l,
            in_attempts,
            busy,
            attempts.iter().map(|a| a.polls.1).sum(),
        );
        let first_start = attempts.first().map_or(sup_start, |a| a.start);
        l.set("mpi.setup_s", (first_start - sup_start).as_secs_f64());
        l.set("core.persist_s", last_duration(t, "core.persist"));
        l.set("core.decode_s", last_duration(t, "core.decode"));
        l.set("core.dump_bytes", encoded_bytes(&run.machine, &run.library));
        l.set("core.attempts", attempts.len() as f64);
        let gaps = attempts
            .windows(2)
            .map(|w| (w[1].start - w[0].end).as_secs_f64());
        l.set("core.retry_gap_s", gaps.sum());
        l.set(
            "postproc.aggregate_s",
            last_duration(t, "postproc.aggregate"),
        );
        l.set("trace.export_s", last_duration(t, "trace.export"));
        l.set("trace.events", events as f64);
        l.set("trace.dropped", dropped as f64);
        l.set(
            "snapshot.saves",
            attempts.iter().map(|a| a.snap.written as f64).sum(),
        );
        l.set(
            "snapshot.bytes",
            attempts.iter().map(|a| a.snap.bytes as f64).sum(),
        );
        l.set(
            "snapshot.save_s",
            attempts
                .iter()
                .map(|a| a.snap.save_nanos as f64 / 1e9)
                .sum(),
        );
        l.set("snapshot.load_s", last_duration(t, "snapshot.load"));
    }
    Iteration {
        setup_s: setup_median(t, first),
        job_s: last_duration(t, "job"),
        fails,
        layers: l,
        job_span: job,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_job_digest(sim_threads: usize) -> u64 {
        let mut spec = spec(8, workload_tag(Kernel::Mg, Class::S));
        spec.sim_threads = Some(sim_threads);
        let machine = Machine::new(spec);
        let (ok, lib) = run_instrumented(&machine, |ctx| Kernel::Mg.exec(Class::S, ctx));
        assert!(ok.iter().all(|r| r.verified));
        let dumps = lib.dumps().expect("dumps");
        stats::digest(&dumps, machine.job_cycles(), machine.phases()).expect("digest")
    }

    #[test]
    fn digest_is_stable_across_sim_worker_counts() {
        let one = small_job_digest(1);
        assert_eq!(one, small_job_digest(2));
        assert_eq!(one, small_job_digest(1), "and across repeated runs");
    }

    #[test]
    fn probe_checks_pass_on_a_small_partition() {
        let machine = Machine::new(spec(64, "perfbench-probe".into()));
        let (ok, _lib) = run_instrumented(&machine, probe);
        assert_eq!(ok.len(), 64);
        assert!(ok.iter().all(|&v| v));
    }

    /// The `cg-supervised` reference digest is that of the same job run
    /// without a kill, so a resumed run must reproduce it exactly.
    /// Slow in a debug build: `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn cg_reference_is_the_uninterrupted_run() {
        let dir = std::env::temp_dir().join(format!("perfbench-cg-{}", std::process::id()));
        let mut spec = spec(16, workload_tag(Kernel::Cg, Class::A));
        spec.trace = Some(TraceConfig::default());
        spec.checkpoint = Some(CheckpointConfig::new(&dir, CG_CHECKPOINT_EVERY));
        let run = bgp_core::supervisor::supervise(&spec, &SupervisorConfig::default(), |ctx| {
            Kernel::Cg.exec(Class::A, ctx)
        })
        .expect("uninterrupted run");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(run.attempts.len(), 1);
        assert_eq!(run.machine.phases(), CG_PHASES);
        let dumps = run.library.dumps().expect("dumps");
        let got = stats::digest(&dumps, run.machine.job_cycles(), run.machine.phases());
        assert_eq!(got, crate::reference_digest("cg-supervised"));
    }

    #[test]
    fn kill_phase_follows_a_snapshot_by_a_fixed_offset() {
        let phases: std::collections::BTreeSet<u64> = (0..200).map(kill_phase).collect();
        assert_eq!(phases.into_iter().collect::<Vec<_>>(), [56, 72]);
        assert_eq!(kill_phase(3), kill_phase(3));
    }
}
