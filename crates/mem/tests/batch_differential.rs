//! Differential validation of the batched memory engine (the Röhl-style
//! event-validation methodology from PAPERS.md): drive the same address
//! stream through [`MemorySystem::access_batch`], queued as L1-line
//! [`MemRun`]s the way a rank queues them, and through a loop of scalar
//! [`MemorySystem::access`] calls, and require **byte-identical**
//! observable state — every [`MemStats`] field, the full 256-counter UPC
//! snapshot, and the per-access `HitLevel`/stall sequence.
//!
//! The scalar path is itself a one-run batch, so these tests pin the
//! batching transformations specifically: unprobed run tails, bulk
//! L1-hit counter emission, and the batched access-clock advance
//! feeding the DDR contention model.
//!
//! [`MemStats`]: bgp_mem::MemStats

use bgp_arch::events::CounterMode;
use bgp_arch::MachineConfig;
use bgp_mem::{MemRun, MemorySystem, Outcome};
use bgp_upc::Upc;

/// One demand data access of a test stream.
#[derive(Clone, Copy)]
struct Access {
    addr: u64,
    write: bool,
}

/// Queue `accesses` as runs: an access on the last run's line extends
/// it, any other starts a new run.
fn runs(accesses: &[Access]) -> Vec<MemRun> {
    let mut runs: Vec<MemRun> = Vec::new();
    for a in accesses {
        if !runs.last_mut().is_some_and(|r| r.extend(a.addr, a.write)) {
            runs.push(MemRun::new(a.addr, a.write));
        }
    }
    runs
}

/// Deterministic xorshift stream (no external RNG crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn upc(mode: CounterMode) -> Upc {
    let mut u = Upc::new(mode);
    u.set_enabled(true);
    u
}

/// A random mix of loads and stores over a footprint much larger than
/// the caches, with enough revisits to exercise every hierarchy level.
fn random_stream(seed: u64, n: usize) -> Vec<Access> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|_| {
            let r = rng.next();
            // 1 MB footprint, 8-byte aligned, ~25 % stores.
            Access {
                addr: ((r >> 8) % (1 << 20)) & !7,
                write: r & 3 == 0,
            }
        })
        .collect()
}

/// Strided walks: the NAS kernels' dominant patterns. Stride 8 is the
/// run-memoized stride-1 double-precision case; 32 steps one L1 line at
/// a time; 136 alternates L1 lines within and across 128-byte L2 lines;
/// 4096 thrashes sets.
fn stride_stream(n: usize) -> Vec<Access> {
    let mut v = Vec::with_capacity(n);
    for (pass, stride) in [8u64, 8, 32, 136, 4096].into_iter().enumerate() {
        let base = pass as u64 * (1 << 21);
        let write = pass % 2 == 1;
        for i in 0..n as u64 / 5 {
            v.push(Access {
                addr: base + i * stride,
                write,
            });
        }
    }
    v
}

/// Pointer chase: a multiplicative walk over a table, the worst case for
/// run detection (adjacent accesses almost never share a line).
fn chase_stream(seed: u64, n: usize) -> Vec<Access> {
    let slots = 1u64 << 14;
    let mut x = seed % slots;
    (0..n)
        .map(|i| {
            x = (x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % slots;
            Access {
                addr: x * 8,
                write: i % 7 == 0,
            }
        })
        .collect()
}

/// Mixed widths through runs: word, double and quadword steps through
/// each line, where a line's only store (when it has one) sits in the
/// run tail, never at the head.
fn mixed_width_stream(seed: u64, n: usize) -> Vec<Access> {
    let mut rng = Rng(seed | 1);
    let mut v = Vec::with_capacity(n + 32);
    while v.len() < n {
        let r = rng.next();
        let step = [4u64, 8, 16][(r >> 40) as usize % 3];
        let line = ((r >> 8) % (1 << 15)) * 32;
        let store_at = (r >> 20) % (32 / step);
        let tail_store = r & 1 == 0 && store_at > 0;
        for i in 0..32 / step {
            v.push(Access {
                addr: line + i * step,
                write: tail_store && i == store_at,
            });
        }
    }
    v.truncate(n);
    v
}

/// Run `stream` through the scalar loop on one system and through
/// batches of `chunk` on another; assert identical observables.
fn assert_differential(cfg: &MachineConfig, mode: CounterMode, stream: &[Access], chunk: usize) {
    let mut scalar_sys = MemorySystem::new(cfg);
    let mut batch_sys = MemorySystem::new(cfg);
    let mut scalar_upc = upc(mode);
    let mut batch_upc = upc(mode);

    let mut scalar_out: Vec<Outcome> = Vec::with_capacity(stream.len());
    let mut scalar_stall = 0u64;
    for a in stream {
        let o = scalar_sys.access(0, a.addr, a.write, &mut scalar_upc);
        scalar_stall += o.stall;
        scalar_out.push(o);
    }

    let mut batch_out: Vec<Outcome> = Vec::with_capacity(stream.len());
    let mut batch_stall = 0u64;
    for c in stream.chunks(chunk) {
        batch_stall +=
            batch_sys.access_batch_outcomes(0, 0, &runs(c), &mut batch_upc, &mut batch_out);
    }

    assert_eq!(
        scalar_sys.stats(),
        batch_sys.stats(),
        "MemStats diverged (chunk {chunk})"
    );
    assert_eq!(
        scalar_stall, batch_stall,
        "total stall diverged (chunk {chunk})"
    );
    assert_eq!(
        scalar_out, batch_out,
        "per-access outcome sequence diverged (chunk {chunk})"
    );
    assert_eq!(
        scalar_upc.snapshot(),
        batch_upc.snapshot(),
        "UPC counter snapshot diverged (chunk {chunk})"
    );
}

fn configs() -> Vec<MachineConfig> {
    vec![
        MachineConfig::default(),
        // Prefetching off: the pure demand path.
        MachineConfig {
            l2_prefetch_depth: 0,
            ..MachineConfig::default()
        },
        // Tiny caches force heavy eviction/write-back traffic.
        MachineConfig {
            l2_streams: 4,
            l3_bytes: 64 << 10,
            l3_ways: 4,
            ..MachineConfig::default()
        },
        // No L3: every L2 miss goes straight to a DDR controller.
        MachineConfig {
            l3_bytes: 0,
            ..MachineConfig::default()
        },
        // Non-power-of-two L3 (6 MB, 3072 sets/bank): the modulo bank path.
        MachineConfig::default().with_l3_bytes(6 << 20),
    ]
}

#[test]
fn random_streams_are_batch_invariant() {
    for cfg in configs() {
        for seed in [1u64, 0xDEAD_BEEF, 42424242] {
            let stream = random_stream(seed, 20_000);
            for chunk in [1usize, 7, 64, 2048] {
                assert_differential(&cfg, CounterMode::Mode0, &stream, chunk);
            }
        }
    }
}

#[test]
fn stride_streams_are_batch_invariant() {
    for cfg in configs() {
        let stream = stride_stream(25_000);
        for chunk in [3usize, 100, 2048] {
            assert_differential(&cfg, CounterMode::Mode0, &stream, chunk);
        }
    }
}

#[test]
fn mixed_width_streams_with_tail_only_stores_are_batch_invariant() {
    for cfg in configs() {
        let stream = mixed_width_stream(0x5EED, 20_000);
        for chunk in [5usize, 64, 2048] {
            assert_differential(&cfg, CounterMode::Mode0, &stream, chunk);
        }
        assert_differential(&cfg, CounterMode::Mode2, &stream, 2048);
    }
}

#[test]
fn pointer_chase_streams_are_batch_invariant() {
    for cfg in configs() {
        for seed in [7u64, 999_983] {
            let stream = chase_stream(seed, 20_000);
            assert_differential(&cfg, CounterMode::Mode0, &stream, 512);
        }
    }
}

#[test]
fn shared_event_counters_are_batch_invariant() {
    // Mode 2 observes the L3/DDR/snoop shared events, the coalescing-
    // sensitive side the core-event runs above cannot see.
    let cfg = MachineConfig {
        l3_bytes: 64 << 10,
        l3_ways: 4,
        ..MachineConfig::default()
    };
    let stream = random_stream(0xFEED, 30_000);
    for chunk in [1usize, 29, 2048] {
        assert_differential(&cfg, CounterMode::Mode2, &stream, chunk);
    }
}

#[test]
fn multi_core_interleaved_batches_match_scalar() {
    // Snoop coherence across cores: interleave per-core batches in the
    // same order the scalar loop interleaves individual accesses, with
    // overlapping footprints so write snoops actually invalidate.
    let cfg = MachineConfig {
        l2_prefetch_depth: 0,
        ..MachineConfig::default()
    };
    let mut scalar_sys = MemorySystem::new(&cfg);
    let mut batch_sys = MemorySystem::new(&cfg);
    let mut scalar_upc = upc(CounterMode::Mode2);
    let mut batch_upc = upc(CounterMode::Mode2);

    let mut rng = Rng(0xC0FFEE);
    // Slices of (core, accesses) with shared 64 KB footprint.
    let slices: Vec<(usize, Vec<Access>)> = (0..200)
        .map(|_| {
            let core = (rng.next() % 4) as usize;
            let accs: Vec<Access> = (0..64)
                .map(|_| {
                    let r = rng.next();
                    Access {
                        addr: ((r >> 5) % (64 << 10)) & !7,
                        write: r & 1 == 0,
                    }
                })
                .collect();
            (core, accs)
        })
        .collect();

    let mut scalar_stall = 0u64;
    let mut batch_stall = 0u64;
    for (core, accs) in &slices {
        for a in accs {
            scalar_stall += scalar_sys
                .access(*core, a.addr, a.write, &mut scalar_upc)
                .stall;
        }
        batch_stall += batch_sys.access_batch(*core, 0, &runs(accs), &mut batch_upc);
    }
    assert_eq!(scalar_sys.stats(), batch_sys.stats());
    assert_eq!(scalar_stall, batch_stall);
    assert_eq!(scalar_upc.snapshot(), batch_upc.snapshot());
}

#[test]
fn same_line_runs_collapse_to_one_walk() {
    // White-box check of the memoization itself: a stride-1 double walk
    // (4 accesses per 32-byte line) must produce exactly one L1 probe
    // outcome pattern — miss, hit, hit, hit — per line, and the run tail
    // must still mark write-runs dirty (visible as L1 write-backs later).
    let cfg = MachineConfig {
        l2_prefetch_depth: 0,
        ..MachineConfig::default()
    };
    let (mut m, mut u) = (MemorySystem::new(&cfg), upc(CounterMode::Mode0));
    let batch: Vec<Access> = (0..256u64)
        .map(|i| Access {
            addr: i * 8,
            write: i % 4 != 0,
        })
        .collect();
    let mut out = Vec::new();
    let batch = runs(&batch);
    assert_eq!(batch.len(), 64, "one run per 32-byte line");
    assert!(batch
        .iter()
        .all(|r| r.tail == 3 && !r.head_write && r.tail_write));
    m.access_batch_outcomes(0, 0, &batch, &mut u, &mut out);
    assert_eq!(m.stats().l1d_misses, 64, "one miss per 32-byte line");
    assert_eq!(m.stats().l1d_hits, 192, "three memoized hits per line");
    // Every line saw a write only in its run tail; the dirty bit must
    // have been applied by the tail path, so evicting the footprint
    // later writes all 64 lines back.
    for i in 0..4096u64 {
        m.access(0, (1 << 20) + i * 32, false, &mut u);
    }
    assert_eq!(
        m.stats().l1d_writebacks,
        64,
        "run-tail writes must dirty their lines"
    );
    assert_eq!(out.len(), 256);
}

#[test]
fn a_run_stops_growing_at_its_tail_cap() {
    // A full tail refuses the next access instead of wrapping to zero,
    // so that access starts a second run on the same line; the walk of
    // both runs is the scalar walk of every access, and the base shifts
    // every run by whole lines.
    let mut run = MemRun::new(0x40, false);
    for _ in 0..u16::MAX {
        assert!(run.extend(0x48, false));
    }
    assert_eq!(run.tail, u16::MAX);
    assert!(!run.extend(0x48, true), "a full tail must not wrap");
    assert_eq!((run.tail, run.tail_write), (u16::MAX, false));
    assert!(!MemRun::new(0x40, false).extend(0x60, false), "next line");

    let stream: Vec<Access> = (0..(1u64 << 16) + 9)
        .map(|i| Access {
            addr: 0x40 + (i % 4) * 8,
            write: i % 1000 == 999,
        })
        .collect();
    let queued = runs(&stream);
    assert_eq!(queued.len(), 2);
    assert_eq!((queued[0].tail, queued[1].tail), (u16::MAX, 8));
    let cfg = MachineConfig::default();
    let (mut scalar, mut batched) = (MemorySystem::new(&cfg), MemorySystem::new(&cfg));
    let (mut su, mut bu) = (upc(CounterMode::Mode0), upc(CounterMode::Mode0));
    let base = 1u64 << 20;
    let mut scalar_out = Vec::new();
    for a in &stream {
        scalar_out.push(scalar.access(0, base + a.addr, a.write, &mut su));
    }
    let mut batch_out = Vec::new();
    batched.access_batch_outcomes(0, base, &queued, &mut bu, &mut batch_out);
    assert_eq!(scalar.stats(), batched.stats());
    assert_eq!(scalar_out, batch_out);
    assert_eq!(su.snapshot(), bu.snapshot());
}
