#!/usr/bin/env bash
# Tier-1 gate: rustfmt-clean sources, release build, full test suite,
# clippy-clean with all warnings denied. Safe to run from any directory.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

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

echo "==> trace smoke (bgpc-run --trace over a 4-node job + bgpc-dump --json)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
target/release/bgpc-run --out "$trace_dir" --kernel mg --class s --ranks 16 \
    --mode vnm --trace --slots 0,1,2
test -s "$trace_dir/trace.json" || { echo "trace smoke: empty trace.json"; exit 1; }
test -s "$trace_dir/phases.csv" || { echo "trace smoke: empty phases.csv"; exit 1; }
grep -q '"name":"counter_sample"' "$trace_dir/trace.json" \
    || { echo "trace smoke: --slots sampled no counters into trace.json"; exit 1; }
if target/release/bgpc-run --slots 0 --out "$trace_dir/untraced" 2>/dev/null; then
    echo "trace smoke: bgpc-run accepted --slots without --trace"; exit 1
fi
target/release/bgpc-dump "$trace_dir" --json > "$trace_dir/stats.json"
test -s "$trace_dir/stats.json" || { echo "trace smoke: empty stats.json"; exit 1; }
target/release/bgpc-diff "$trace_dir" "$trace_dir" | grep -q '^no event changed' \
    || { echo "trace smoke: bgpc-diff of a run against itself reported changes"; exit 1; }
if target/release/bgpc-diff "$trace_dir" "$trace_dir" --threshold abc 2>/dev/null; then
    echo "trace smoke: bgpc-diff accepted a malformed --threshold"; exit 1
fi

# quickstart and mpi_stencil are the paper's Figs. 4 and 5; thresholding
# is the only end-to-end driver of the UPC register file (~2 s for the
# other four together).
echo "==> examples: all six run"
for example in quickstart mpi_stencil hybrid_openmp instruction_mix l3_explorer thresholding; do
    cargo run --release --example "$example" > /dev/null
done

echo "==> repro_all fails closed (an unknown entry name exits non-zero)"
if target/release/repro_all no_such_figure 2>/dev/null; then
    echo "repro_all accepted an unknown entry name"; exit 1
fi

# Every repro_all entry below checks its own acceptance bound and exits
# non-zero when it fails; CSVs and BENCH_*.json records go to the
# temporary dir, not over the committed files.
echo "==> degraded aggregation (fig_ext_faults at Default scale == committed CSV)"
# The only committed output of the survivors path; ~20 s.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_faults > /dev/null
cmp "$trace_dir/fig_ext_faults.csv" results/fig_ext_faults.csv \
    || { echo "fig_ext_faults: regenerated CSV differs from results/"; exit 1; }

echo "==> batched memory engine bound (Node::retire >= 1.5x mem_op)"
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_memthroughput --quick

echo "==> event validation bound (exact events bit-for-bit, mux dumps thread-invariant)"
# Quick scale bounds exactness + determinism; the reconstruction-quality
# bounds (median error, coverage) apply at Default scale, where the
# committed BENCH_validation.json is produced.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_validation --quick

echo "==> checkpoint/restart smoke (crash MG S mid-run, resume, byte-diff)"
# Once per counter-policy kind: even/odd start marks and windows are
# one mode's 256 words, multiplexed ones every mode's 1,024. The
# untraced runs' checkpoints hold no rank trace slots or rings (their
# `ranks` and `trace` sections count 0). The SMP/1 run leaves three
# cores of each node idle, so its built hierarchies hold caches that
# no line ever entered.
for variant in evenodd:traced:vnm mux:traced:vnm evenodd:untraced:vnm evenodd:untraced:smp1; do
    IFS=: read -r policy tracing mode <<< "$variant"
    name="$policy-$tracing-$mode"
    echo "    $name"
    ck_dir="$trace_dir/ck-$name"
    run=(target/release/bgpc-run --kernel mg --class s --ranks 8 --mode "$mode" --threads 1
        --policy "$policy")
    if [ "$tracing" = traced ]; then run+=(--trace); fi
    "${run[@]}" --out "$ck_dir/reference"
    # Crash drill: die deterministically at phase 40 with retries
    # disabled; the process must exit non-zero and leave snapshots behind.
    if "${run[@]}" --out "$ck_dir/crashed" --checkpoint-every 8 --crash-at-phase 40 \
        --max-retries 0; then
        echo "checkpoint smoke ($name): crash drill unexpectedly succeeded"; exit 1
    fi
    test -n "$(ls "$ck_dir/crashed/checkpoints" 2>/dev/null)" \
        || { echo "checkpoint smoke ($name): crash left no snapshots"; exit 1; }
    # Resume from the snapshots in a fresh process and byte-diff every
    # output surface against the uninterrupted reference.
    "${run[@]}" --out "$ck_dir/crashed" --resume "$ck_dir/crashed/checkpoints"
    diff -r --exclude=checkpoints "$ck_dir/reference" "$ck_dir/crashed" \
        || { echo "checkpoint smoke ($name): resumed outputs diverge from reference"; exit 1; }
done

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

echo "==> counter service load bound (quick scale: 2k requests, byte-identical replays)"
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_service --quick

echo "==> full-machine scaling bound (73,728 nodes / 294,912 ranks, <= 2.25 KB/rank)"
# Runs at Default scale so the 73k-node smoke actually executes. The
# per-rank RSS bound reads the process high-water mark, which holds
# this entry alone: a single entry runs in-process, and a multi-entry
# repro_all run gives each entry a child process. The entry also checks
# verification (~10 s).
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_fullmachine

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

echo "==> perfbench traced probe (every node's dump encoded on demand: 73,728 x 2,089 B)"
# --trace 1 sums the encoded length of every node's dump, so the
# on-demand encode runs at full scale and its size is pinned; ~10 s.
last="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload fullmachine-probe --seed 1 --seconds 1 --trace 1 | tail -n 1)"
case "$last" in
    '{"correct":true,'*'"core.dump_bytes":{"value":154017792,'*) ;;
    *) echo "perfbench traced probe: wrong output or dump bytes: $last"; exit 1 ;;
esac

echo "==> snapshot overhead bound (checkpoint every 64 phases < 5%, Default scale)"
# Runs at Default scale (MG class A), the scale of the acceptance
# criterion; ~1 min.
BGP_RESULTS_DIR="$trace_dir" BGP_BENCH_DIR="$trace_dir" \
    target/release/repro_all fig_ext_snapshot

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "ci: all green"
