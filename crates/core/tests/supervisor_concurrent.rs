//! The supervisor under concurrency: many jobs supervised from many
//! threads at once, with deliberately mixed outcomes. The counter
//! service runs exactly this shape (a worker pool calling `supervise`
//! in parallel), so classification and results must be a function of
//! each job alone — never of scheduling interleaving between jobs.

use bgp_arch::OpMode;
use bgp_core::supervisor::{
    supervise, supervise_observed, AttemptOutcome, RunObserver, SupervisorConfig, SupervisorError,
};
use bgp_core::{run_instrumented, CounterLibrary};
use bgp_mpi::machine::CheckpointConfig;
use bgp_mpi::{JobSpec, Machine, RankCtx, SemOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small deterministic kernel with enough phases for a mid-run kill.
async fn kernel(mut ctx: RankCtx) -> (RankCtx, u64) {
    let mut v = ctx.alloc::<f64>(256);
    for round in 0..4u64 {
        for i in 0..256 {
            ctx.st(&mut v, i, round as f64).await;
        }
        ctx.fp_scalar_n(SemOp::MulAdd, 64);
        ctx.barrier().await;
    }
    let r = ctx.allreduce_sum_f64(&[1.0]).await[0].to_bits();
    (ctx, r)
}

fn spec(dir: Option<&std::path::Path>) -> JobSpec {
    let mut spec = JobSpec::new(4, OpMode::VirtualNode);
    spec.sim_threads = Some(1); // many jobs at once; don't oversubscribe
    if let Some(dir) = dir {
        spec.checkpoint = Some(CheckpointConfig::new(dir, 2));
    }
    spec
}

fn fast() -> SupervisorConfig {
    SupervisorConfig {
        backoff_base: Duration::ZERO,
        ..SupervisorConfig::default()
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("bgp-supc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// What one supervised job is scripted to do, and what must come out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scripted {
    Clean,
    WatchdogRetry,
    Fatal,
}

#[test]
fn mixed_outcomes_are_interleaving_independent() {
    // Reference dumps from one clean, unsupervised, serial run.
    let reference = {
        let m = Machine::new(spec(None));
        let (_, lib) = run_instrumented(&m, kernel);
        lib.dumps().unwrap()
    };

    let scripts: Vec<Scripted> = (0..9)
        .map(|i| match i % 3 {
            0 => Scripted::Clean,
            1 => Scripted::WatchdogRetry,
            _ => Scripted::Fatal,
        })
        .collect();

    let reference = &reference;
    let scripts = &scripts;
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(i, &script)| {
                scope.spawn(move || {
                    let mut cfg = fast();
                    let dir;
                    let mut s = match script {
                        Scripted::Clean => spec(None),
                        Scripted::WatchdogRetry => {
                            dir = tempdir(&format!("job{i}"));
                            cfg.inject_kill_at_phase = Some(5);
                            spec(Some(&dir))
                        }
                        Scripted::Fatal => {
                            let mut s = spec(None);
                            s.cycle_budget = Some(1);
                            s
                        }
                    };
                    // Perturb nothing outcome-relevant between jobs of
                    // the same script: identical specs must produce
                    // identical dumps regardless of what runs next to
                    // them. (cycle_budget is fingerprint-cosmetic.)
                    s.quantum = 2048;
                    (i, script, supervise(&s, &cfg, kernel))
                })
            })
            .collect();

        for h in handles {
            let (i, script, out) = h.join().expect("supervisor thread must not panic");
            match (script, out) {
                (Scripted::Clean, Ok(run)) => {
                    assert_eq!(run.attempts.len(), 1, "job {i}: clean = one attempt");
                    assert!(matches!(run.attempts[0].outcome, AttemptOutcome::Completed));
                    assert_eq!(
                        run.library.dumps().unwrap(),
                        *reference,
                        "job {i}: clean dumps must match the serial reference"
                    );
                }
                (Scripted::WatchdogRetry, Ok(run)) => {
                    assert_eq!(run.attempts.len(), 2, "job {i}: one kill, one recovery");
                    match &run.attempts[0].outcome {
                        AttemptOutcome::Failed {
                            message, retryable, ..
                        } => {
                            assert!(
                                message.contains("supervisor watchdog"),
                                "job {i}: {message}"
                            );
                            assert!(*retryable, "job {i}: kill must classify retryable");
                        }
                        other => panic!("job {i}: first attempt completed: {other:?}"),
                    }
                    assert!(
                        run.attempts[1].resumed_from.is_some(),
                        "job {i}: recovery must resume from a snapshot"
                    );
                    assert_eq!(
                        run.library.dumps().unwrap(),
                        *reference,
                        "job {i}: recovered dumps must match the serial reference"
                    );
                }
                (Scripted::Fatal, Err(SupervisorError::Fatal { attempts, message })) => {
                    assert_eq!(attempts.len(), 1, "job {i}: fatal never retries");
                    assert!(message.contains("cycle budget"), "job {i}: {message}");
                }
                (script, out) => panic!(
                    "job {i}: script {script:?} got unexpected outcome: {:?}",
                    out.map(|r| format!("Ok({} attempts)", r.attempts.len()))
                ),
            }
        }
    });
}

/// Observer used by the service daemon: it must see every attempt's
/// live machine before the run and every classified outcome after.
#[derive(Default)]
struct Recording {
    started: Mutex<Vec<(u32, Option<u64>)>>,
    ended: Mutex<Vec<(u32, bool)>>,
    live_phase_max: AtomicU64,
}

impl RunObserver for Recording {
    fn attempt_started(&self, attempt: u32, resumed_from: Option<u64>, machine: &Arc<Machine>) {
        self.started.lock().unwrap().push((attempt, resumed_from));
        // The hook's contract: the machine's phase counter is safely
        // samplable from outside while the attempt runs.
        let m = Arc::clone(machine);
        let max = self.live_phase_max.load(Ordering::SeqCst);
        self.live_phase_max
            .store(max.max(m.phases()), Ordering::SeqCst);
    }

    fn attempt_ended(&self, attempt: u32, outcome: &AttemptOutcome) {
        let completed = matches!(outcome, AttemptOutcome::Completed);
        self.ended.lock().unwrap().push((attempt, completed));
    }
}

#[test]
fn observer_sees_every_attempt_in_order() {
    let dir = tempdir("observer");
    let mut cfg = fast();
    cfg.inject_kill_at_phase = Some(5);
    let obs = Recording::default();
    let run = supervise_observed(&spec(Some(&dir)), &cfg, kernel, &obs)
        .expect("kill-then-recover job completes");
    assert_eq!(run.attempts.len(), 2);
    let started = obs.started.lock().unwrap().clone();
    let ended = obs.ended.lock().unwrap().clone();
    assert_eq!(started.len(), 2, "one start per attempt");
    assert_eq!(started[0], (0, None), "first attempt is a cold start");
    assert_eq!(started[1].0, 1);
    assert!(
        started[1].1.is_some(),
        "second attempt resumes from a snapshot"
    );
    assert_eq!(ended, vec![(0, false), (1, true)]);
    // Dumps are still byte-identical to an unobserved run.
    let reference = {
        let m = Machine::new(spec(None));
        let (_, lib) = run_instrumented(&m, kernel);
        lib.dumps().unwrap()
    };
    assert_eq!(run.library.dumps().unwrap(), reference);
    drop::<Arc<CounterLibrary>>(run.library);
    let _ = std::fs::remove_dir_all(&dir);
}
