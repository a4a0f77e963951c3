//! Exactness of the region snoop filter.
//!
//! The filter lets a snoop skip every peer core that never received a
//! line of the snooped line's memory region (a quarter of
//! `memory_bytes`). These tests drive the same traces through a
//! filtered system and through one whose regions are not a power of two
//! (so every snoop probes every peer, the unfiltered loop) and require
//! identical `MemStats`, UPC counters and snapshot bytes — including
//! when lines cross a region boundary by prefetch, when several cores
//! share one range, and across a save/restore in the middle of a stream.

use bgp_arch::events::{CounterMode, SharedEvent};
use bgp_arch::rng::SimRng;
use bgp_arch::MachineConfig;
use bgp_mem::{MemStats, MemorySystem};
use bgp_upc::Upc;

/// 16 MB of node memory: 4 MB regions, so the filter is active.
const FILTERED_BYTES: u64 = 16 << 20;
/// 12 MB of node memory: 3 MB regions are not a power of two, so every
/// snoop probes every peer.
const UNFILTERED_BYTES: u64 = 12 << 20;
/// First L2 line of region 1 in the filtered system.
const BOUNDARY_LINE: u64 = (FILTERED_BYTES / 4) / 128;

fn upc() -> Upc {
    let mut u = Upc::new(CounterMode::Mode2);
    u.set_enabled(true);
    u
}

fn cfg(memory_bytes: u64) -> MachineConfig {
    MachineConfig {
        l2_prefetch_depth: 2,
        l3_bytes: 64 << 10,
        l3_ways: 4,
        memory_bytes,
        ..MachineConfig::default()
    }
}

fn state(m: &MemorySystem) -> Vec<u8> {
    let mut out = Vec::new();
    m.save_state(&mut out);
    out
}

fn snoops(u: &Upc) -> (u64, u64, u64) {
    let read = |ev: SharedEvent| u.read_event(ev.id()).unwrap_or(0);
    (
        read(SharedEvent::SnoopReq),
        read(SharedEvent::SnoopInval),
        read(SharedEvent::SnoopFiltered),
    )
}

/// Run `trace` (core, byte address, write) through a filtered and an
/// unfiltered system; both must agree on every observable.
fn assert_filter_exact(trace: &[(usize, u64, bool)], what: &str) -> (MemStats, Upc) {
    let (mut f, mut fu) = (MemorySystem::new(&cfg(FILTERED_BYTES)), upc());
    let (mut r, mut ru) = (MemorySystem::new(&cfg(UNFILTERED_BYTES)), upc());
    for &(core, addr, write) in trace {
        let a = f.access(core, addr, write, &mut fu);
        let b = r.access(core, addr, write, &mut ru);
        assert_eq!(a, b, "{what}: outcome of core {core} at {addr:#x}");
    }
    assert_eq!(f.stats(), r.stats(), "{what}: MemStats");
    assert_eq!(fu.snapshot(), ru.snapshot(), "{what}: UPC counters");
    assert_eq!(state(&f), state(&r), "{what}: snapshot bytes");
    (*f.stats(), fu)
}

/// (a) Core 0's stream prefetch carries its L2 across the region
/// boundary; the owner of region 1 then write-misses that line. The
/// snoop must find core 0's prefetched copy and invalidate it.
#[test]
fn prefetch_across_a_region_boundary_is_snooped() {
    let n = BOUNDARY_LINE;
    let trace = [
        // Core 0 misses lines N-3 and N-2 of region 0; the second miss
        // confirms a stream that prefetches N-1 and N (region 1).
        (0, (n - 3) * 128, false),
        (0, (n - 2) * 128, false),
        // Core 1 writes line N: its first touch of region 1.
        (1, n * 128, true),
    ];
    let (s, u) = assert_filter_exact(&trace, "boundary prefetch");
    assert_eq!(s.l1d_misses, 3);
    assert_eq!(s.l2_misses, 3);
    assert_eq!(s.l2_prefetches_issued, 2);
    // N-3, N-2 and both prefetches come from DDR; core 1's demand for N
    // hits the L3 copy the prefetch installed.
    assert_eq!((s.l3_misses, s.l3_hits), (4, 1));
    assert_eq!(s.ddr_reads, 4);
    assert_eq!(s.ddr_writes, 0, "the invalidated copy was clean");
    // Three snoops: two find nothing, the third invalidates core 0.
    assert_eq!(snoops(&u), (3, 1, 2));

    // Core 0 lost its copy: touching line N again is a fresh L2 miss
    // whose snoop now finds core 1's copy (a read: no invalidation).
    let mut trace = trace.to_vec();
    trace.push((0, n * 128, false));
    let (s, u) = assert_filter_exact(&trace, "boundary prefetch, re-read");
    assert_eq!(s.l2_misses, 4);
    assert_eq!(snoops(&u), (4, 1, 2));
}

/// (b) SMP-style sharing: all four cores read and write one range that
/// straddles a region boundary, so the holder masks fill up and every
/// snoop path (hit, miss, dirty drain) runs.
#[test]
fn shared_ranges_match_the_unfiltered_snoop() {
    let mut rng = SimRng::seed_from_u64(0x5f);
    for case in 0..24 {
        let base = BOUNDARY_LINE * 128 - rng.gen_range(0u64..64) * 128;
        let trace: Vec<(usize, u64, bool)> = (0..2_000)
            .map(|_| {
                (
                    rng.gen_range(0usize..4),
                    base + rng.gen_range(0u64..256) * 32,
                    rng.gen_bool(0.3),
                )
            })
            .collect();
        let (_, u) = assert_filter_exact(&trace, &format!("shared case {case}"));
        assert!(snoops(&u).1 > 0, "case {case}: sharing must invalidate");
    }
}

/// VNM-style disjoint partitions, one stream per core near each region
/// boundary, so prefetches cross into the next core's region.
#[test]
fn partitioned_streams_match_the_unfiltered_snoop() {
    let region = FILTERED_BYTES / 4;
    let mut trace = Vec::new();
    for step in 0..3_000u64 {
        let core = (step % 4) as usize;
        let start = (core as u64 + 1) * region - 96 * 128;
        trace.push((core, start + (step / 4) * 64, step % 7 == 0));
    }
    assert_filter_exact(&trace, "partitioned streams");
}

/// (c) A snapshot taken mid-stream restores into a system whose holder
/// masks are rebuilt from the restored caches: the tail then matches
/// the uninterrupted run, including the snoop that must find a line
/// core 0 prefetched into region 1 before the snapshot.
#[test]
fn restore_mid_stream_matches_the_uninterrupted_run() {
    let n = BOUNDARY_LINE;
    let c = cfg(FILTERED_BYTES);
    let mut m = MemorySystem::new(&c);
    let mut u = upc();
    for line in n - 8..n - 1 {
        m.access(0, line * 128, false, &mut u);
    }
    m.access(2, 3 * (FILTERED_BYTES / 4) + 64, true, &mut u);
    let bytes = state(&m);

    let mut restored = MemorySystem::new(&c);
    let mut r = bgp_arch::wire::Reader::new(&bytes);
    restored.restore_state(&mut r).unwrap();
    r.expect_end("mem section").unwrap();
    assert_eq!(restored.stats(), m.stats());

    // Tail: core 1 write-misses the lines core 0 prefetched past the
    // boundary, then every core walks a shared range.
    let (mut tail_u, mut restored_u) = (upc(), upc());
    let mut tail: Vec<(usize, u64, bool)> = (n..n + 2).map(|l| (1, l * 128, true)).collect();
    tail.extend((0..1_500u64).map(|i| {
        (
            (i % 4) as usize,
            (n - 4) * 128 + (i * 40) % 4096,
            i % 3 == 0,
        )
    }));
    for &(core, addr, write) in &tail {
        let a = m.access(core, addr, write, &mut tail_u);
        let b = restored.access(core, addr, write, &mut restored_u);
        assert_eq!(a, b, "tail outcome of core {core} at {addr:#x}");
    }
    assert_eq!(restored.stats(), m.stats());
    assert_eq!(restored_u.snapshot(), tail_u.snapshot());
    assert_eq!(state(&restored), state(&m));
    assert!(
        snoops(&tail_u).1 >= 1,
        "core 0's prefetched copy must be invalidated"
    );
}
