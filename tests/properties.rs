//! Property-based tests across the stack: cache behaviour under random
//! traces, dump-codec round trips, reduction algebra, torus metrics.
//!
//! The cases are generated by the in-tree deterministic [`SimRng`]
//! (seeded per property), so the suite needs no network-fetched
//! dependencies and every failure reproduces exactly.

use bgp::arch::events::{CounterMode, NUM_COUNTERS};
use bgp::arch::geometry::{NodeId, TorusDims};
use bgp::arch::rng::SimRng;
use bgp::arch::MachineConfig;
use bgp::counters::dump::{decode, encode, NodeDump, SetDump};
use bgp::mem::{Cache, MemorySystem};
use bgp::mpi::ReduceOp;
use bgp::upc::Upc;

const CASES: usize = 64;

/// LRU caches never hold more lines than their capacity, and a line
/// just filled is always resident.
#[test]
fn cache_capacity_and_residency() {
    let mut rng = SimRng::seed_from_u64(0x01);
    for case in 0..CASES {
        let sets = rng.gen_range(1usize..32);
        let ways = rng.gen_range(1usize..8);
        let n = rng.gen_range(1usize..400);
        let mut c = Cache::new(sets, ways);
        for _ in 0..n {
            let l = rng.gen_range(0u64..5_000);
            c.fill(l, false, false);
            assert!(
                c.contains(l),
                "case {case}: freshly filled line must be resident"
            );
            assert!(c.resident_lines() <= sets * ways, "case {case}");
        }
    }
}

/// Replaying a trace against a larger (same-geometry-family) L3 never
/// increases DDR reads — the stack-distance property Fig. 11 rests on.
#[test]
fn bigger_l3_never_reads_ddr_more() {
    let mut rng = SimRng::seed_from_u64(0x02);
    for case in 0..16 {
        let len = rng.gen_range(50usize..600);
        let trace: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.gen_range(0u64..200_000), rng.gen_bool(0.5)))
            .collect();
        let mut last = u64::MAX;
        for mb in [0usize, 2, 4, 8] {
            let cfg = MachineConfig {
                l2_prefetch_depth: 0,
                ..MachineConfig::default()
            }
            .with_l3_bytes(mb << 20);
            let mut m = MemorySystem::new(&cfg);
            let mut upc = Upc::new(CounterMode::Mode2);
            for &(addr, write) in &trace {
                m.access(0, addr * 8, write, &mut upc);
            }
            let reads = m.stats().ddr_reads;
            assert!(reads <= last, "case {case}, {mb} MB: {reads} > {last}");
            last = reads;
        }
    }
}

/// The dump codec round-trips arbitrary counter contents.
#[test]
fn dump_codec_round_trips() {
    let mut rng = SimRng::seed_from_u64(0x03);
    for case in 0..CASES {
        let node = rng.gen_range(0u32..100_000);
        let mode = CounterMode::from_index(rng.gen_range(0usize..4)).unwrap();
        let n_sets = rng.gen_range(0usize..4);
        let mut ids = std::collections::HashSet::new();
        let sets: Vec<SetDump> = (0..n_sets)
            .map(|_| SetDump {
                id: rng.gen_range(0u32..1000),
                records: rng.gen_range(0u32..50),
                counts: (0..NUM_COUNTERS).map(|_| rng.next_u64()).collect(),
            })
            .filter(|s| ids.insert(s.id))
            .collect();
        let d = NodeDump { node, mode, sets };
        let bytes = encode(&d);
        assert_eq!(decode(&bytes).unwrap(), d, "case {case}");
    }
}

/// Any single byte flip in a dump is detected.
#[test]
fn dump_codec_detects_any_bitflip() {
    let mut rng = SimRng::seed_from_u64(0x04);
    for case in 0..CASES {
        let d = NodeDump {
            node: 3,
            mode: CounterMode::Mode2,
            sets: vec![SetDump {
                id: 0,
                records: 1,
                counts: vec![rng.next_u64(); NUM_COUNTERS],
            }],
        };
        let mut bytes = encode(&d);
        let pos = rng.gen_range(0usize..bytes.len());
        let bit = rng.gen_range(0u32..8) as u8;
        bytes[pos] ^= 1 << bit;
        let back = decode(&bytes);
        assert!(
            back.is_err() || back.unwrap() != d,
            "case {case}: flip of bit {bit} at byte {pos} went unnoticed"
        );
    }
}

/// Reductions are order-independent for the exact ops (max over u64,
/// sum over u64 with wrapping).
#[test]
fn reduce_ops_are_commutative() {
    let mut rng = SimRng::seed_from_u64(0x05);
    for case in 0..CASES {
        let n = rng.gen_range(2usize..6);
        let mut payloads: Vec<Vec<u64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.next_u64()).collect())
            .collect();
        let fold = |ps: &[Vec<u64>], op: ReduceOp| {
            let mut acc = bgp::mpi::u64s_to_bytes(&ps[0]);
            for p in &ps[1..] {
                op.combine(&mut acc, &bgp::mpi::u64s_to_bytes(p));
            }
            bgp::mpi::bytes_to_u64s(&acc)
        };
        for op in [ReduceOp::SumU64, ReduceOp::MaxU64] {
            let forward = fold(&payloads, op);
            payloads.reverse();
            let backward = fold(&payloads, op);
            payloads.reverse();
            assert_eq!(forward, backward, "case {case}, op {op:?}");
        }
    }
}

/// Torus hop distance is a metric for arbitrary partition sizes.
#[test]
fn torus_hops_is_a_metric() {
    let mut rng = SimRng::seed_from_u64(0x06);
    for case in 0..CASES * 4 {
        let n = rng.gen_range(1usize..65);
        let dims = TorusDims::for_nodes(n);
        let a = rng.gen_range(0usize..64) % n;
        let b = rng.gen_range(0usize..64) % n;
        let c = rng.gen_range(0usize..64) % n;
        let d = |x: usize, y: usize| dims.hops(NodeId(x), NodeId(y));
        assert_eq!(d(a, a), 0, "case {case}");
        assert_eq!(d(a, b), d(b, a), "case {case}");
        assert!(
            d(a, c) <= d(a, b) + d(b, c),
            "case {case}: triangle inequality"
        );
    }
}

/// UPC counters are exact under arbitrary interleavings of emissions.
#[test]
fn upc_counts_are_exact() {
    use bgp::arch::events::EventId;
    let mut rng = SimRng::seed_from_u64(0x07);
    for case in 0..CASES {
        let mut upc = Upc::new(CounterMode::Mode1);
        upc.set_enabled(true);
        let mut expected = [0u64; NUM_COUNTERS];
        let n = rng.gen_range(0usize..200);
        for _ in 0..n {
            let mode = CounterMode::from_index(rng.gen_range(0usize..4)).unwrap();
            let slot = rng.gen_range(0u32..20) as u8;
            let pulses = rng.gen_range(1u64..100);
            upc.emit(EventId::new(mode, slot), pulses);
            if mode == CounterMode::Mode1 {
                expected[slot as usize] += pulses;
            }
        }
        for (slot, &want) in expected.iter().enumerate() {
            assert_eq!(upc.read(slot as u8), want, "case {case}, slot {slot}");
        }
    }
}
