//! Supervised job execution: wall-clock and simulated-cycle budgets,
//! crash classification, and bounded resume-from-checkpoint retries.
//!
//! [`supervise`] wraps [`crate::run_instrumented`] the way a batch
//! scheduler wraps a Blue Gene/P job: each attempt builds a fresh
//! [`Machine`], resumes it from the newest valid snapshot in the job's
//! checkpoint directory (cold start when there is none), and guards it
//! with a wall-clock watchdog that aborts the run when the budget
//! expires. A failed attempt is *classified* from the panic payload the
//! machine re-raises:
//!
//! * **retryable** — watchdog kills (wall budget, injected kill
//!   points), MPI deadlock reports, and the generic peer-abort echo.
//!   The supervisor backs off exponentially and tries again, resuming
//!   from whatever snapshot the dead attempt left behind.
//! * **fatal** — a simulated-cycle budget violation (the job is
//!   genuinely too big; re-running cannot change a deterministic
//!   simulator's cycle count) and any unrecognized panic (a kernel
//!   bug). These stop the supervisor immediately.
//!
//! Determinism note: supervision never changes *what* the job computes.
//! A recovered job's dumps, cycle counts, and traces are byte-identical
//! to an uninterrupted run (asserted by `tests/snapshot_resume.rs`);
//! the supervisor only decides *whether* the job runs to completion.

use crate::CounterLibrary;
use bgp_mpi::machine::panic_message;
use bgp_mpi::{JobSpec, Machine, RankCtx};
use bgp_snapshot::SnapshotStore;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Supervision policy: budgets, retries, backoff, crash drills.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Wall-clock budget per attempt; `None` disables the watchdog.
    pub wall_budget: Option<Duration>,
    /// Retries after the first attempt (total attempts = retries + 1).
    pub max_retries: u32,
    /// First retry delay; doubles per retry up to [`backoff_cap`].
    ///
    /// [`backoff_cap`]: SupervisorConfig::backoff_cap
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff delay.
    pub backoff_cap: Duration,
    /// Crash drill: kill the *first* attempt deterministically when its
    /// phase counter reaches this value (via
    /// [`Machine::set_kill_at_phase`]), then recover normally. Used by
    /// recovery tests and `bgpc-run --crash-at-phase`.
    pub inject_kill_at_phase: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            wall_budget: None,
            max_retries: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            inject_kill_at_phase: None,
        }
    }
}

/// How one attempt ended.
#[derive(Clone, Debug)]
pub enum AttemptOutcome {
    /// The job ran to completion.
    Completed,
    /// The job died; `retryable` is the classification verdict and
    /// `watchdog_fired` records whether this supervisor's own wall
    /// watchdog initiated the abort.
    Failed {
        /// The panic message the machine re-raised.
        message: String,
        /// Whether `classify_panic` (or the watchdog) deemed it
        /// worth retrying.
        retryable: bool,
        /// Whether the wall-clock watchdog aborted this attempt.
        watchdog_fired: bool,
    },
}

/// Record of one supervised attempt.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// Phase of the snapshot this attempt resumed from (`None` = cold).
    pub resumed_from: Option<u64>,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// A successfully supervised job.
pub struct SupervisedRun<R> {
    /// Per-rank kernel results (from the completing attempt; see the
    /// replay caveat on [`Machine::resume`]).
    pub results: Vec<R>,
    /// The counter library holding the per-node dumps.
    pub library: Arc<CounterLibrary>,
    /// The machine of the completing attempt (trace export, cycle
    /// counts, [`Machine::snapshot_stats`]).
    pub machine: Arc<Machine>,
    /// Every attempt, in order; the last one is `Completed`.
    pub attempts: Vec<Attempt>,
}

/// Why supervision gave up.
#[derive(Debug)]
pub enum SupervisorError {
    /// A non-retryable failure (cycle-budget violation, kernel bug).
    Fatal {
        /// Every attempt, in order; the last one carries `message`.
        attempts: Vec<Attempt>,
        /// The fatal panic message.
        message: String,
    },
    /// Every allowed attempt failed retryably.
    RetriesExhausted {
        /// Every attempt, in order.
        attempts: Vec<Attempt>,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Fatal { attempts, message } => {
                write!(f, "fatal failure on attempt {}: {message}", attempts.len())
            }
            SupervisorError::RetriesExhausted { attempts } => write!(
                f,
                "gave up after {} attempts; last: {}",
                attempts.len(),
                match &attempts.last().map(|a| &a.outcome) {
                    Some(AttemptOutcome::Failed { message, .. }) => message.as_str(),
                    _ => "(no attempt recorded)",
                }
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Classify a panic message re-raised by [`Machine::run`]: `true` means
/// a retry (resuming from the latest snapshot) is worthwhile.
///
/// Deadlocks are classified retryable deliberately: a deadlock after
/// resume can be a stale-snapshot artifact (e.g. a quarantined-then-
/// recovered older file), and a bounded retry from an earlier snapshot
/// is cheap. A *deterministic* deadlock simply exhausts the retry
/// budget and surfaces as [`SupervisorError::RetriesExhausted`].
pub(crate) fn classify_panic(message: &str) -> bool {
    if message.contains("simulated-cycle budget exceeded") {
        return false; // deterministic: retrying reproduces it exactly
    }
    message.contains("supervisor watchdog")
        || message.contains("MPI deadlock")
        || message.contains(bgp_mpi::machine::ABORT_ECHO)
}

/// Observation hooks into a supervised run, for callers that need to
/// watch the live machine — the counter-service daemon (`bgp-serve`)
/// uses [`RunObserver::attempt_started`] to stream a running job's
/// phase counter to subscribed clients and to keep an abort handle for
/// drains. All methods default to no-ops; [`supervise`] is
/// `supervise_observed` with the `()` observer.
pub trait RunObserver: Sync {
    /// A fresh attempt is about to run. `machine` is live for the whole
    /// attempt; its atomic phase counter (`Machine::phases`) may be
    /// sampled concurrently, and `Machine::abort_job` may be called to
    /// kill the attempt from outside.
    fn attempt_started(&self, attempt: u32, resumed_from: Option<u64>, machine: &Arc<Machine>) {
        let _ = (attempt, resumed_from, machine);
    }

    /// The attempt ended (completed or died-and-classified).
    fn attempt_ended(&self, attempt: u32, outcome: &AttemptOutcome) {
        let _ = (attempt, outcome);
    }
}

impl RunObserver for () {}

/// Install the process panic hook of a binary that runs supervised
/// jobs (`bgpc-run`, `bgpc-serve`). Rank panics there are expected
/// control flow — watchdog kills, crash drills, deadlock reports,
/// budget violations — so each prints one `{program}: rank died: ...`
/// line on stderr, and the peer-abort echoes
/// ([`bgp_mpi::machine::ABORT_ECHO`]) print nothing. Any other panic
/// still reaches the previous hook: it is a real bug.
pub fn install_rank_death_hook(program: &'static str) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = panic_message(info.payload());
        if msg.contains(bgp_mpi::machine::ABORT_ECHO) {
            return;
        }
        if msg.contains("supervisor watchdog")
            || msg.contains("MPI deadlock")
            || msg.contains("simulated-cycle budget exceeded")
        {
            eprintln!("{program}: rank died: {msg}");
            return;
        }
        default_hook(info);
    }));
}

/// Run `kernel` under whole-program instrumentation with supervision:
/// budgets, watchdog kills, and bounded resume-from-checkpoint retries
/// per `cfg`. Checkpointing and the simulated-cycle budget come from
/// `spec` ([`JobSpec::checkpoint`], [`JobSpec::cycle_budget`]); without
/// a checkpoint directory every retry is a cold start.
///
/// # Errors
/// [`SupervisorError::Fatal`] on a non-retryable failure,
/// [`SupervisorError::RetriesExhausted`] when every attempt died.
pub fn supervise<R, F, Fut>(
    spec: &JobSpec,
    cfg: &SupervisorConfig,
    kernel: F,
) -> Result<SupervisedRun<R>, SupervisorError>
where
    R: Send,
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: std::future::Future<Output = (RankCtx, R)> + Send,
{
    supervise_observed(spec, cfg, kernel, &())
}

/// [`supervise`] with a [`RunObserver`] watching each attempt. The
/// observer sees every machine before its run starts (live phase
/// sampling, external aborts) and every outcome after classification.
///
/// # Errors
/// Same contract as [`supervise`].
pub fn supervise_observed<R, F, Fut>(
    spec: &JobSpec,
    cfg: &SupervisorConfig,
    kernel: F,
    observer: &dyn RunObserver,
) -> Result<SupervisedRun<R>, SupervisorError>
where
    R: Send,
    F: Fn(RankCtx) -> Fut + Sync,
    Fut: std::future::Future<Output = (RankCtx, R)> + Send,
{
    let mut attempts: Vec<Attempt> = Vec::new();
    for attempt in 0..=cfg.max_retries {
        if attempt > 0 {
            let exp = 1u32 << (attempt - 1).min(16);
            let delay = cfg.backoff_base.saturating_mul(exp).min(cfg.backoff_cap);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        let machine = Machine::new(spec.clone());
        let library = CounterLibrary::for_machine(&machine);
        let resumed_from = try_resume(&machine, spec);
        if attempt == 0 {
            if let Some(phase) = cfg.inject_kill_at_phase {
                machine.set_kill_at_phase(phase);
            }
        }
        observer.attempt_started(attempt, resumed_from, &machine);

        // Wall watchdog: a helper thread that aborts the job when the
        // budget elapses before the run signals completion (by dropping
        // the channel sender).
        let watchdog_fired = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let started = Instant::now();
        let watchdog = cfg.wall_budget.map(|budget| {
            let machine = Arc::clone(&machine);
            let fired = Arc::clone(&watchdog_fired);
            std::thread::spawn(move || {
                if done_rx.recv_timeout(budget) == Err(RecvTimeoutError::Timeout) {
                    fired.store(true, Ordering::SeqCst);
                    machine.abort_job();
                }
            })
        });

        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let kernel = &kernel;
            let lib_ref = &library;
            machine.run(move |ctx| crate::instrumented_body(Arc::clone(lib_ref), ctx, kernel))
        }));
        let elapsed = started.elapsed();
        drop(done_tx);
        if let Some(w) = watchdog {
            let _ = w.join();
        }
        // A run can finish before the watchdog thread is first scheduled,
        // even after its budget has run out. The verdict must not depend
        // on that race: a run that returns after its budget elapsed is a
        // watchdog kill whether or not the abort reached it.
        let out = match out {
            Ok(_) if cfg.wall_budget.is_some_and(|budget| elapsed >= budget) => {
                watchdog_fired.store(true, Ordering::SeqCst);
                Err(format!("run returned after {} ms", elapsed.as_millis()))
            }
            Ok(results) => Ok(results),
            Err(payload) => Err(panic_message(payload.as_ref()).to_string()),
        };

        match out {
            Ok(results) => {
                let outcome = AttemptOutcome::Completed;
                observer.attempt_ended(attempt, &outcome);
                attempts.push(Attempt {
                    resumed_from,
                    outcome,
                });
                return Ok(SupervisedRun {
                    results,
                    library,
                    machine,
                    attempts,
                });
            }
            Err(panic) => {
                let fired = watchdog_fired.load(Ordering::SeqCst);
                let message = match panic.as_str() {
                    "" => "(non-string panic payload)".to_string(),
                    m if fired => format!("wall budget exceeded ({m})"),
                    m => m.to_string(),
                };
                let retryable = fired || classify_panic(&message);
                let outcome = AttemptOutcome::Failed {
                    message: message.clone(),
                    retryable,
                    watchdog_fired: fired,
                };
                observer.attempt_ended(attempt, &outcome);
                attempts.push(Attempt {
                    resumed_from,
                    outcome,
                });
                if !retryable {
                    return Err(SupervisorError::Fatal { attempts, message });
                }
            }
        }
    }
    Err(SupervisorError::RetriesExhausted { attempts })
}

/// Resume `machine` from the newest valid snapshot of its experiment,
/// if checkpointing is configured and one exists. Quarantined files and
/// rejected snapshots are reported to stderr but never fatal — the
/// supervisor falls back to a cold start, which is always correct.
fn try_resume(machine: &Arc<Machine>, spec: &JobSpec) -> Option<u64> {
    let cp = spec.checkpoint.as_ref()?;
    let store = SnapshotStore::new(&cp.dir, cp.retain);
    match store.load_latest_valid(spec.fingerprint()) {
        Ok(outcome) => {
            for q in &outcome.quarantined {
                eprintln!(
                    "supervisor: quarantined snapshot {}: {}",
                    q.path.display(),
                    q.reason
                );
            }
            let (snap, path) = outcome.snapshot?;
            let phase = snap.phase;
            match machine.resume(snap) {
                Ok(()) => Some(phase),
                Err(e) => {
                    eprintln!("supervisor: refusing snapshot {}: {e}", path.display());
                    None
                }
            }
        }
        Err(e) => {
            eprintln!("supervisor: snapshot store unreadable: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::OpMode;
    use bgp_mpi::machine::CheckpointConfig;
    use bgp_mpi::SemOp;

    async fn kernel(mut ctx: RankCtx) -> (RankCtx, u64) {
        let mut v = ctx.alloc::<f64>(512);
        for round in 0..4u64 {
            for i in 0..512 {
                ctx.st(&mut v, i, round as f64).await;
            }
            ctx.fp_scalar_n(SemOp::MulAdd, 128);
            ctx.barrier().await;
        }
        let r = ctx.allreduce_sum_f64(&[1.0]).await[0].to_bits();
        (ctx, r)
    }

    fn spec(dir: Option<&std::path::Path>) -> JobSpec {
        let mut spec = JobSpec::new(4, OpMode::VirtualNode);
        if let Some(dir) = dir {
            spec.checkpoint = Some(CheckpointConfig::new(dir, 2));
        }
        spec
    }

    fn fast(cfg: &mut SupervisorConfig) {
        cfg.backoff_base = Duration::ZERO;
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("bgp-sup-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn clean_job_completes_on_first_attempt() {
        let run = supervise(&spec(None), &SupervisorConfig::default(), kernel)
            .expect("clean job supervises");
        assert_eq!(run.attempts.len(), 1);
        assert!(matches!(run.attempts[0].outcome, AttemptOutcome::Completed));
        assert!(run.library.dumps().is_ok(), "dumps available");
    }

    #[test]
    fn injected_kill_recovers_from_snapshot() {
        let dir = tempdir("kill");
        // Reference: the same job, unsupervised and uninterrupted.
        let reference = {
            let m = Machine::new(spec(None));
            let (_, lib) = crate::run_instrumented(&m, kernel);
            lib.dumps().unwrap()
        };
        let mut cfg = SupervisorConfig::default();
        fast(&mut cfg);
        cfg.inject_kill_at_phase = Some(5);
        let run = supervise(&spec(Some(&dir)), &cfg, kernel).expect("recovers");
        assert_eq!(run.attempts.len(), 2, "one kill, one recovery");
        match &run.attempts[0].outcome {
            AttemptOutcome::Failed {
                message,
                retryable,
                watchdog_fired,
            } => {
                assert!(message.contains("supervisor watchdog"), "{message}");
                assert!(retryable);
                assert!(!watchdog_fired, "injected kill, not the wall watchdog");
            }
            other => panic!("first attempt should fail: {other:?}"),
        }
        assert!(
            run.attempts[1].resumed_from.is_some(),
            "recovery must resume from a snapshot, not cold-start"
        );
        assert_eq!(
            run.library.dumps().unwrap(),
            reference,
            "recovered dumps differ from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cycle_budget_violation_is_fatal() {
        let mut s = spec(None);
        s.cycle_budget = Some(1); // impossible budget
        let mut cfg = SupervisorConfig::default();
        fast(&mut cfg);
        match supervise(&s, &cfg, kernel) {
            Err(SupervisorError::Fatal { attempts, message }) => {
                assert_eq!(attempts.len(), 1, "fatal failures never retry");
                assert!(message.contains("cycle budget"), "{message}");
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("must not complete"),
        }
    }

    #[test]
    fn wall_watchdog_kill_is_retryable_until_exhausted() {
        let mut cfg = SupervisorConfig::default();
        fast(&mut cfg);
        cfg.max_retries = 1;
        cfg.wall_budget = Some(Duration::ZERO); // dies instantly, every time
        match supervise(&spec(None), &cfg, kernel) {
            Err(SupervisorError::RetriesExhausted { attempts }) => {
                assert_eq!(attempts.len(), 2);
                for a in &attempts {
                    match &a.outcome {
                        AttemptOutcome::Failed {
                            watchdog_fired,
                            retryable,
                            ..
                        } => {
                            assert!(*watchdog_fired && *retryable);
                        }
                        other => panic!("attempt completed: {other:?}"),
                    }
                }
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("zero wall budget must not complete"),
        }
    }

    #[test]
    fn classification_table() {
        assert!(!classify_panic(
            "simulated-cycle budget exceeded: 10 > 1 cycles at phase 64"
        ));
        assert!(classify_panic(
            "job killed by supervisor watchdog at phase 5 (injected kill point)"
        ));
        assert!(classify_panic("MPI deadlock: all live ranks blocked"));
        assert!(classify_panic(bgp_mpi::machine::ABORT_ECHO));
        assert!(!classify_panic("index out of bounds: the len is 3"));
        assert!(!classify_panic(""));
    }
}
