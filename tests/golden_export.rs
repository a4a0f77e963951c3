//! Cross-version golden export: dump every observable surface of a
//! fixed job matrix so two builds of the simulator can be diffed
//! byte-for-byte. Used to prove engine rewrites (e.g. the batched
//! memory engine, the checkpoint layer) reproduce prior behavior
//! exactly.
//!
//! The MG-only subset runs in the default test pass, keeping the export
//! path itself continuously exercised; the full 8-kernel matrix stays
//! behind `--ignored`:
//!
//! `GOLDEN_DIR=/tmp/x cargo test --test golden_export -- --ignored`

use bgp::arch::events::CounterMode;
use bgp::arch::OpMode;
use bgp::counters::run_instrumented;
use bgp::faults::{FaultPlan, FaultSpec};
use bgp::mpi::CounterPolicy;
use bgp::nas::{Class, Kernel};
use bgp::trace::TraceConfig;
use bgp::{JobSpec, Machine};
use std::path::Path;
use std::sync::Arc;

/// The variants each kernel is exported under: `(tag, counter policy
/// override, faulted, traced)`. `None` keeps the job's default even/odd
/// policy; the fixed-mode and multiplexed variants cover the other two
/// counter policies.
const VARIANTS: [(&str, Option<CounterPolicy>, bool, bool); 5] = [
    ("clean", None, false, false),
    ("faulted", None, true, false),
    ("clean_traced", None, false, true),
    (
        "fixed2",
        Some(CounterPolicy::Fixed(CounterMode::Mode2)),
        false,
        false,
    ),
    (
        "mux4_traced",
        Some(CounterPolicy::Multiplexed {
            first: CounterMode::Mode0,
            base_dwell: 4,
        }),
        false,
        true,
    ),
];

/// Export every [`VARIANTS`] entry of each kernel into `dir` and return
/// the files written.
fn export_kernels(dir: &Path, kernels: &[Kernel]) -> Vec<std::path::PathBuf> {
    std::fs::create_dir_all(dir).unwrap();
    let mut written = Vec::new();
    for &kernel in kernels {
        for (variant, policy, faulted, traced) in VARIANTS {
            let mut spec = JobSpec::new(8, OpMode::VirtualNode);
            spec.sim_threads = Some(1);
            if let Some(policy) = policy {
                spec.counter_policy = policy;
            }
            if faulted {
                let nodes = spec.nodes();
                spec.faults = Some(Arc::new(FaultPlan::new(
                    FaultSpec {
                        straggler_rate: 0.5,
                        straggler_penalty_cycles: 5_000,
                        link_degrade_rate: 0.5,
                        link_slowdown: 3,
                        ..Default::default()
                    },
                    42,
                    nodes,
                )));
            }
            if traced {
                spec.trace = Some(TraceConfig {
                    sample_every: 8,
                    sample_slots: vec![0, 1, 2],
                    ..Default::default()
                });
            }
            let machine = Machine::new(spec);
            let (out, lib) = run_instrumented(&machine, move |ctx| kernel.exec(Class::S, ctx));
            assert!(
                out.iter().all(|r| r.verified),
                "{kernel} failed verification"
            );
            let tag = format!("{kernel}_{variant}");
            let mut dump = Vec::new();
            for n in 0..machine.num_nodes() {
                dump.extend(lib.encoded_dump(n).expect("node finalized"));
            }
            let mut emit = |name: String, body: Vec<u8>| {
                let path = dir.join(name);
                std::fs::write(&path, body).unwrap();
                written.push(path);
            };
            emit(format!("{tag}.dump"), dump);
            emit(
                format!("{tag}.cycles"),
                machine.job_cycles().to_string().into_bytes(),
            );
            if traced {
                let trace = machine.job_trace().expect("tracing enabled");
                emit(
                    format!("{tag}.chrome.json"),
                    trace.chrome_json().into_bytes(),
                );
                emit(
                    format!("{tag}.phases.csv"),
                    trace.phase_metrics_csv().into_bytes(),
                );
            }
        }
    }
    written
}

/// Fast subset for the default test run: the MG variants only. Honors
/// `$GOLDEN_DIR` for manual diffing; otherwise exports into a temp
/// directory and checks the surfaces are produced and non-empty.
#[test]
fn export_golden_surfaces_mg() {
    let keep = std::env::var("GOLDEN_DIR").ok();
    let dir = keep
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("bgp-golden-{}", std::process::id())));
    let written = export_kernels(&dir, &[Kernel::Mg]);
    // 5 variants: dump + cycles each, plus chrome.json + phases.csv for
    // the two traced ones.
    assert_eq!(written.len(), 14, "unexpected export surface count");
    for path in &written {
        let len = std::fs::metadata(path).unwrap().len();
        assert!(len > 0, "empty export {}", path.display());
    }
    if keep.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The full 8-kernel matrix — slow, for manual cross-version diffs.
#[test]
#[ignore = "slow 8-kernel matrix for manual cross-version diffs, needs GOLDEN_DIR"]
fn export_golden_surfaces() {
    let dir = std::env::var("GOLDEN_DIR").expect("set GOLDEN_DIR");
    export_kernels(
        Path::new(&dir),
        &[
            Kernel::Mg,
            Kernel::Ft,
            Kernel::Ep,
            Kernel::Cg,
            Kernel::Is,
            Kernel::Lu,
            Kernel::Sp,
            Kernel::Bt,
        ],
    );
}
