#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, clippy-clean with all
# warnings denied. Run from the repository root. Network-dependent
# dev-tooling stays behind the (empty by default) `net-dev-deps` cargo
# feature, so this script works fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# The phase engine must produce identical results at every thread
# count; exercise the whole suite serialized and parallelized.
for threads in 1 4; do
    echo "==> cargo test (BGP_SIM_THREADS=$threads)"
    BGP_SIM_THREADS=$threads cargo test -q --workspace
done

echo "==> determinism full matrix"
cargo test -q --release --test determinism -- --ignored

echo "==> trace smoke (bgpc-trace over a 4-node job + bgpc-dump --json)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
target/release/bgpc-trace --out "$trace_dir" --kernel mg --class s --ranks 16 \
    --mode vnm --slots 0,1,2
test -s "$trace_dir/trace.json" || { echo "trace smoke: empty trace.json"; exit 1; }
test -s "$trace_dir/phases.csv" || { echo "trace smoke: empty phases.csv"; exit 1; }
target/release/bgpc-dump "$trace_dir" --json > "$trace_dir/stats.json"
test -s "$trace_dir/stats.json" || { echo "trace smoke: empty stats.json"; exit 1; }
target/release/bgpc-diff "$trace_dir" "$trace_dir" | grep -q '^no event changed' \
    || { echo "trace smoke: bgpc-diff of a run against itself reported changes"; exit 1; }
if target/release/bgpc-diff "$trace_dir" "$trace_dir" --threshold abc 2>/dev/null; then
    echo "trace smoke: bgpc-diff accepted a malformed --threshold"; exit 1
fi

echo "==> degraded aggregation (fig_ext_faults at Default scale == committed CSV)"
# The only committed output of the survivors path; ~20 s.
BGP_RESULTS_DIR="$trace_dir" target/release/fig_ext_faults > /dev/null
cmp "$trace_dir/fig_ext_faults.csv" results/fig_ext_faults.csv \
    || { echo "fig_ext_faults: regenerated CSV differs from results/"; exit 1; }

echo "==> trace overhead gate (disabled tracing < 1%)"
# BGP_BENCH_DIR keeps the quick-scale gate from clobbering the
# committed Default-scale BENCH_trace.json at the repo root.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/fig_ext_trace_overhead --quick --gate

echo "==> batched memory engine gate (mem_ops >= 1.5x mem_op)"
BGP_RESULTS_DIR="$trace_dir" target/release/fig_ext_memthroughput --quick --gate

echo "==> event validation gate (exact events bit-for-bit, mux dumps thread-invariant)"
# Quick scale gates exactness + determinism; the reconstruction-quality
# bounds (median error, coverage) are asserted at Default scale, where
# the committed BENCH_validation.json is produced.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/fig_ext_validation --quick --gate

echo "==> checkpoint/restart smoke (crash MG S mid-run, resume, byte-diff)"
ck_dir="$trace_dir/ck"
target/release/bgpc-run --out "$ck_dir/reference" --kernel mg --class s --ranks 8 \
    --mode vnm --threads 1 --trace
# Crash drill: die deterministically at phase 40 with retries disabled;
# the process must exit non-zero and leave snapshots behind.
if target/release/bgpc-run --out "$ck_dir/crashed" --kernel mg --class s --ranks 8 \
    --mode vnm --threads 1 --trace --checkpoint-every 8 --crash-at-phase 40 \
    --max-retries 0; then
    echo "checkpoint smoke: crash drill unexpectedly succeeded"; exit 1
fi
test -n "$(ls "$ck_dir/crashed/checkpoints" 2>/dev/null)" \
    || { echo "checkpoint smoke: crash left no snapshots"; exit 1; }
# Resume from the snapshots in a fresh process and byte-diff every
# output surface against the uninterrupted reference.
target/release/bgpc-run --out "$ck_dir/crashed" --kernel mg --class s --ranks 8 \
    --mode vnm --threads 1 --trace --resume "$ck_dir/crashed/checkpoints"
diff -r --exclude=checkpoints "$ck_dir/reference" "$ck_dir/crashed" \
    || { echo "checkpoint smoke: resumed outputs diverge from reference"; exit 1; }

echo "==> counter service smoke (bgpc-serve + bgpc-load: hit byte-identity, drain, shutdown)"
svc_dir="$trace_dir/svc"
mkdir -p "$svc_dir"
target/release/bgpc-serve --addr 127.0.0.1:0 --addr-file "$svc_dir/addr" \
    --workers 2 --quiet &
svc_pid=$!
for _ in $(seq 50); do test -s "$svc_dir/addr" && break; sleep 0.1; done
test -s "$svc_dir/addr" || { echo "service smoke: daemon never published its address"; exit 1; }
svc_addr="$(cat "$svc_dir/addr")"
# Same job twice: the first run is a miss, the replay must be a cache
# hit carrying byte-identical result bytes.
target/release/bgpc-load --addr "$svc_addr" --once --seed 11 --out "$svc_dir/first" \
    | grep -q '^miss' || { echo "service smoke: first submit was not a miss"; exit 1; }
target/release/bgpc-load --addr "$svc_addr" --once --seed 11 --out "$svc_dir/second" \
    | grep -q '^hit' || { echo "service smoke: replay was not a cache hit"; exit 1; }
cmp "$svc_dir/first" "$svc_dir/second" \
    || { echo "service smoke: cache hit is not byte-identical"; exit 1; }
# Drain: cached keys still served, new work refused, then clean shutdown.
target/release/bgpc-load --addr "$svc_addr" --admin drain | grep -q '"draining":true' \
    || { echo "service smoke: drain not acknowledged"; exit 1; }
target/release/bgpc-load --addr "$svc_addr" --once --seed 11 --out "$svc_dir/drained" \
    | grep -q '^hit' || { echo "service smoke: drained daemon dropped a cache hit"; exit 1; }
cmp "$svc_dir/first" "$svc_dir/drained" \
    || { echo "service smoke: post-drain hit is not byte-identical"; exit 1; }
if target/release/bgpc-load --addr "$svc_addr" --once --seed 12 2>/dev/null; then
    echo "service smoke: draining daemon accepted new work"; exit 1
fi
target/release/bgpc-load --addr "$svc_addr" --admin shutdown | grep -q '"shutdown":true' \
    || { echo "service smoke: shutdown not acknowledged"; exit 1; }
wait "$svc_pid" || { echo "service smoke: daemon exited non-zero"; exit 1; }

echo "==> counter service load gate (quick scale: 2k requests, byte-identical replays)"
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/fig_ext_service --quick --gate

echo "==> full-machine scaling gate (73,728 nodes / 294,912 ranks, <= 10 KB/rank)"
# Runs at Default scale so the 73k-node smoke actually executes and the
# committed BENCH_fullmachine.json records the acceptance numbers; the
# bin itself asserts verification and the per-rank RSS budget (~10 s).
BGP_RESULTS_DIR="$trace_dir" target/release/fig_ext_fullmachine

echo "==> perfbench digest smoke (decoded counters, job_cycles and phases == perfbench/reference.json)"
# The digests are the one check of counter values that is independent
# of the golden exports; a job whose digest differs reports
# "correct":false on the last stdout line. One job per batch workload,
# ~25 s. serve-mix (~1 s) reports "correct":false unless every answer
# for a seed is byte-identical through the daemon's cache path.
for workload in mg-a16 cg-supervised fullmachine-probe serve-mix; do
    last="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    case "$last" in
        '{"correct":true,'*) ;;
        *) echo "perfbench smoke: $workload failed its output checks: $last"; exit 1 ;;
    esac
done

echo "==> snapshot overhead gate (checkpoint every 64 phases < 5%, Default scale)"
# Runs at Default scale (MG class A) so the committed BENCH_snapshot.json
# records the acceptance-criterion numbers; ~1 min.
BGP_RESULTS_DIR="$trace_dir" target/release/fig_ext_snapshot --gate

echo "==> cargo bench smoke"
BGP_BENCH_SAMPLES=1 cargo bench --workspace 2>&1 | tail -n 20

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "ci: all green"
