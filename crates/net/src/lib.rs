//! # bgp-net — the Blue Gene/P interconnects
//!
//! Blue Gene/P provides five dedicated networks (paper §III); the three
//! that carry application traffic are modeled here:
//!
//! * the **3-D torus** — point-to-point traffic between nearest
//!   neighbours on a wrapped 3-D mesh ([`TorusNetwork`]),
//! * the **collective network** — a tree supporting broadcast and
//!   reductions ([`CollectiveNetwork`]),
//! * the **barrier network** — a dedicated low-latency global AND/OR
//!   ([`BarrierNetwork`]).
//!
//! (The remaining two, 10 Gb Ethernet for I/O and JTAG for control, carry
//! no application traffic during the paper's experiments.)
//!
//! The models are cost models: given a transfer they return cycles and
//! packet counts; the MPI runtime charges the cycles to ranks and reports
//! the packet/byte counts to the UPC units of the endpoints. All values
//! are deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use bgp_arch::geometry::{NodeId, TorusCoord, TorusDims};
use bgp_faults::FaultPlan;
use std::sync::Arc;

/// Timing/bandwidth parameters of the interconnects (cycles at 850 MHz).
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Per-hop router latency on the torus (cycles).
    pub torus_hop_cycles: u64,
    /// Serialization bandwidth of a torus link (bytes per cycle).
    pub torus_bytes_per_cycle: u64,
    /// Maximum torus packet payload (bytes).
    pub torus_packet_bytes: u64,
    /// Per-tree-level latency of the collective network (cycles).
    pub collective_level_cycles: u64,
    /// Serialization bandwidth of the collective network (bytes/cycle).
    pub collective_bytes_per_cycle: u64,
    /// Round-trip latency of the barrier network (cycles). The hardware
    /// barrier completes in ~1.3 µs irrespective of partition size.
    pub barrier_cycles: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            torus_hop_cycles: 50,
            torus_bytes_per_cycle: 2,
            torus_packet_bytes: 256,
            collective_level_cycles: 85,
            collective_bytes_per_cycle: 2,
            barrier_cycles: 1100,
        }
    }
}

/// Cost of one network transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferCost {
    /// End-to-end cycles charged to the participating ranks.
    pub cycles: u64,
    /// Packets injected.
    pub packets: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Sum of hop counts over all packets (torus only; 0 on the tree).
    pub hops: u64,
}

/// The 3-D torus point-to-point network.
#[derive(Clone, Debug)]
pub struct TorusNetwork {
    dims: TorusDims,
    cfg: NetConfig,
    faults: Option<Arc<FaultPlan>>,
}

impl TorusNetwork {
    /// A torus over `dims` with timing `cfg`.
    pub fn new(dims: TorusDims, cfg: NetConfig) -> TorusNetwork {
        TorusNetwork {
            dims,
            cfg,
            faults: None,
        }
    }

    /// Attach a fault plan: hops through a degraded endpoint router pay
    /// the plan's latency multiplier.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// The partition shape.
    pub fn dims(&self) -> TorusDims {
        self.dims
    }

    /// Cost of sending `bytes` from `src` to `dst`.
    ///
    /// Latency = hop traversal + serialization; on-node transfers pay
    /// only a small local-copy cost (one hop's worth).
    pub fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> TransferCost {
        let hops = self.dims.hops(src, dst) as u64;
        let packets = bytes.div_ceil(self.cfg.torus_packet_bytes).max(1);
        let serialization = bytes.div_ceil(self.cfg.torus_bytes_per_cycle);
        let latency = if hops == 0 {
            // Same node: modeled as a memory-to-memory copy by the
            // messaging layer; charge a single router traversal.
            self.cfg.torus_hop_cycles
        } else {
            hops * self.cfg.torus_hop_cycles
        };
        // A degraded router at either endpoint slows the whole
        // transfer: both the hop traversal and serialization are paced
        // by the sick router.
        let slow = match &self.faults {
            Some(plan) => plan.link_slowdown(src.0 as u32, dst.0 as u32),
            None => 1,
        };
        TransferCost {
            cycles: (latency + serialization) * slow,
            packets,
            bytes,
            hops: hops * packets,
        }
    }
}

/// One directed torus link: the cable leaving `from` along `axis` in
/// `positive` (or negative) direction. Dimension-ordered (XYZ) routing
/// makes the link sequence of a transfer a pure function of the
/// endpoints, which is what lets phase-based contention resolution stay
/// deterministic regardless of execution order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId {
    /// Node the link leaves.
    pub from: NodeId,
    /// Torus axis: 0 = X, 1 = Y, 2 = Z.
    pub axis: u8,
    /// Whether the link points in the increasing-coordinate direction.
    pub positive: bool,
}

impl TorusNetwork {
    /// The dimension-ordered (X, then Y, then Z) shortest route from
    /// `src` to `dst`, as the sequence of directed links traversed. Ties
    /// between the two ring directions break toward increasing
    /// coordinates. On-node transfers take no links. `links` is cleared
    /// and refilled, so one buffer serves every message of a phase
    /// without a fresh allocation per route.
    pub fn route_into(&self, src: NodeId, dst: NodeId, links: &mut Vec<LinkId>) {
        links.clear();
        let dims = self.dims;
        let mut cur = dims.coord(src);
        let to = dims.coord(dst);
        for axis in 0u8..3 {
            let (extent, a, b) = match axis {
                0 => (dims.x, cur.x, to.x),
                1 => (dims.y, cur.y, to.y),
                _ => (dims.z, cur.z, to.z),
            };
            if extent == 1 {
                continue;
            }
            // Ring distance forward (increasing coordinate) vs backward.
            let fwd = (b + extent - a) % extent;
            let bwd = (a + extent - b) % extent;
            let positive = fwd <= bwd;
            let steps = fwd.min(bwd);
            for _ in 0..steps {
                links.push(LinkId {
                    from: dims.node(cur),
                    axis,
                    positive,
                });
                let c = match axis {
                    0 => &mut cur.x,
                    1 => &mut cur.y,
                    _ => &mut cur.z,
                };
                *c = if positive {
                    (*c + 1) % extent
                } else {
                    (*c + extent - 1) % extent
                };
            }
        }
        debug_assert_eq!(dims.node(cur), dst, "route must terminate at dst");
    }

    /// The torus coordinate of `node` (convenience re-export).
    pub fn coord(&self, node: NodeId) -> TorusCoord {
        self.dims.coord(node)
    }
}

/// Per-phase torus link contention.
///
/// The phase-based execution engine buffers every point-to-point send of
/// a phase and resolves them at the phase boundary in canonical
/// (sender-rank, send-sequence) order. `PhaseTraffic` accumulates the
/// bytes already committed to each directed link during that resolution;
/// a transfer whose route crosses loaded links is delayed by the
/// serialization backlog of its most-loaded link — a deterministic
/// store-and-forward queuing model. [`PhaseTraffic::reset`] clears the
/// loads for the next phase.
///
/// Loads live in a dense table of six directed links per node, sized
/// once from the torus shape. The links a phase touched are listed as
/// they are first loaded, so the per-phase statistics and
/// [`PhaseTraffic::reset`] cost the phase's traffic, not the partition.
#[derive(Clone, Debug)]
pub struct PhaseTraffic {
    /// Bytes committed per directed link, indexed by [`link_index`].
    load: Vec<u64>,
    /// Whether the link carried a transfer this phase (a zero-byte
    /// transfer still counts as loading every link it crosses).
    touched: Vec<bool>,
    /// Indices of the touched links, in first-touch order.
    loaded: Vec<usize>,
    bytes_per_cycle: u64,
}

/// Directed torus links leaving each node: two directions on three axes.
const LINKS_PER_NODE: usize = 6;

/// Slot of `link` in a dense per-node link table:
/// `node * 6 + axis * 2 + positive`.
#[inline]
fn link_index(link: LinkId) -> usize {
    link.from.0 * LINKS_PER_NODE + usize::from(link.axis) * 2 + usize::from(link.positive)
}

impl PhaseTraffic {
    /// A contention tracker over every directed link of a `dims`
    /// torus, paced by `cfg`'s torus link bandwidth.
    pub fn new(dims: TorusDims, cfg: &NetConfig) -> PhaseTraffic {
        let links = dims.nodes() * LINKS_PER_NODE;
        PhaseTraffic {
            load: vec![0; links],
            touched: vec![false; links],
            loaded: Vec::new(),
            bytes_per_cycle: cfg.torus_bytes_per_cycle.max(1),
        }
    }

    /// Commit a transfer of `bytes` over `route`; returns the queuing
    /// delay (cycles) it suffers behind traffic enqueued earlier in the
    /// same phase. Empty routes (on-node copies) never queue.
    pub fn enqueue(&mut self, route: &[LinkId], bytes: u64) -> u64 {
        let backlog = route
            .iter()
            .map(|&l| self.load[link_index(l)])
            .max()
            .unwrap_or(0);
        for &l in route {
            let i = link_index(l);
            if !self.touched[i] {
                self.touched[i] = true;
                self.loaded.push(i);
            }
            self.load[i] += bytes;
        }
        backlog.div_ceil(self.bytes_per_cycle)
    }

    /// Total bytes committed to the busiest link this phase.
    pub fn peak_link_bytes(&self) -> u64 {
        self.loaded.iter().map(|&i| self.load[i]).max().unwrap_or(0)
    }

    /// Distinct directed links that carried traffic this phase.
    pub fn links_loaded(&self) -> usize {
        self.loaded.len()
    }

    /// Forget all link loads (phase boundary crossed).
    pub fn reset(&mut self) {
        for i in self.loaded.drain(..) {
            self.load[i] = 0;
            self.touched[i] = false;
        }
    }
}

/// The collective (tree) network.
#[derive(Clone, Debug)]
pub struct CollectiveNetwork {
    nodes: usize,
    cfg: NetConfig,
}

impl CollectiveNetwork {
    /// A tree spanning `nodes` nodes with timing `cfg`.
    pub fn new(nodes: usize, cfg: NetConfig) -> CollectiveNetwork {
        assert!(nodes >= 1);
        CollectiveNetwork { nodes, cfg }
    }

    /// Depth of the binary combining tree.
    pub(crate) fn levels(&self) -> u64 {
        if self.nodes == 1 {
            0
        } else {
            (usize::BITS - (self.nodes - 1).leading_zeros()) as u64
        }
    }

    /// Cost of a broadcast of `bytes` from the root to all nodes.
    pub fn broadcast(&self, bytes: u64) -> TransferCost {
        let cycles = self.levels() * self.cfg.collective_level_cycles
            + bytes.div_ceil(self.cfg.collective_bytes_per_cycle);
        TransferCost {
            cycles,
            packets: bytes.div_ceil(self.cfg.torus_packet_bytes).max(1),
            bytes,
            hops: 0,
        }
    }

    /// Cost of a reduction of `bytes` (combine on the way up); an
    /// all-reduce is a reduce followed by a broadcast.
    pub fn reduce(&self, bytes: u64) -> TransferCost {
        // The combining ALUs work at line rate: same cost shape as a
        // broadcast.
        self.broadcast(bytes)
    }
}

/// The dedicated barrier network.
#[derive(Clone, Debug)]
pub struct BarrierNetwork {
    cfg: NetConfig,
}

impl BarrierNetwork {
    /// A barrier network with timing `cfg`.
    pub fn new(cfg: NetConfig) -> BarrierNetwork {
        BarrierNetwork { cfg }
    }

    /// Cycles for one global barrier.
    pub fn barrier_cycles(&self) -> u64 {
        self.cfg.barrier_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus(n: usize) -> TorusNetwork {
        TorusNetwork::new(TorusDims::for_nodes(n), NetConfig::default())
    }

    #[test]
    fn nearest_neighbor_is_cheapest() {
        let t = torus(64); // 4×4×4
        let near = t.transfer(NodeId(0), NodeId(1), 1024).cycles;
        let far = t.transfer(NodeId(0), NodeId(21), 1024).cycles;
        assert!(near < far);
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let t = torus(8);
        let small = t.transfer(NodeId(0), NodeId(1), 256);
        let big = t.transfer(NodeId(0), NodeId(1), 256 * 1024);
        assert!(big.cycles > small.cycles);
        assert_eq!(big.packets, 1024);
        assert_eq!(small.packets, 1);
    }

    #[test]
    fn zero_byte_message_still_costs_a_packet() {
        let t = torus(8);
        let c = t.transfer(NodeId(0), NodeId(1), 0);
        assert_eq!(c.packets, 1);
        assert!(c.cycles > 0);
    }

    #[test]
    fn on_node_transfer_pays_local_copy_only() {
        let t = torus(8);
        let c = t.transfer(NodeId(3), NodeId(3), 512);
        assert_eq!(c.hops, 0);
        assert!(c.cycles < t.transfer(NodeId(0), NodeId(7), 512).cycles);
    }

    #[test]
    fn collective_levels_grow_logarithmically() {
        let cfg = NetConfig::default();
        assert_eq!(CollectiveNetwork::new(1, cfg.clone()).levels(), 0);
        assert_eq!(CollectiveNetwork::new(2, cfg.clone()).levels(), 1);
        assert_eq!(CollectiveNetwork::new(32, cfg.clone()).levels(), 5);
        assert_eq!(CollectiveNetwork::new(33, cfg).levels(), 6);
    }

    #[test]
    fn collective_beats_naive_torus_fanout_for_large_partitions() {
        let cfg = NetConfig::default();
        let t = torus(512);
        let c = CollectiveNetwork::new(512, cfg);
        let bytes = 8;
        // Broadcasting 8 bytes to 511 peers point-to-point costs far more
        // than one tree traversal.
        let tree = c.broadcast(bytes).cycles;
        let p2p: u64 = (1..512)
            .map(|d| t.transfer(NodeId(0), NodeId(d), bytes).cycles)
            .sum();
        assert!(tree * 100 < p2p);
    }

    #[test]
    fn degraded_router_slows_both_endpoints() {
        use bgp_faults::{FaultPlan, FaultSpec};
        let mut t = torus(8);
        let clean = t.transfer(NodeId(0), NodeId(1), 1024).cycles;
        // Every router degraded, 4x slowdown.
        let spec = FaultSpec {
            link_degrade_rate: 1.0,
            link_slowdown: 4,
            ..FaultSpec::none()
        };
        t.set_fault_plan(Arc::new(FaultPlan::new(spec, 1, 8)));
        assert_eq!(t.transfer(NodeId(0), NodeId(1), 1024).cycles, clean * 4);
    }

    #[test]
    fn inert_plan_changes_nothing() {
        use bgp_faults::FaultPlan;
        let mut t = torus(8);
        let clean = t.transfer(NodeId(0), NodeId(5), 4096);
        t.set_fault_plan(Arc::new(FaultPlan::inert(8)));
        assert_eq!(t.transfer(NodeId(0), NodeId(5), 4096), clean);
    }

    fn route(t: &TorusNetwork, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        t.route_into(src, dst, &mut links);
        links
    }

    #[test]
    fn route_length_matches_hop_metric() {
        let t = torus(64);
        for a in [0usize, 7, 21, 63] {
            for b in [0usize, 1, 32, 63] {
                let r = route(&t, NodeId(a), NodeId(b));
                assert_eq!(r.len(), t.dims().hops(NodeId(a), NodeId(b)), "{a}->{b}");
            }
        }
    }

    #[test]
    fn route_is_dimension_ordered_and_contiguous() {
        let t = torus(64);
        let r = route(&t, NodeId(0), NodeId(21));
        // Axis indices never decrease along a dimension-ordered route.
        for w in r.windows(2) {
            assert!(w[0].axis <= w[1].axis, "route not dimension-ordered: {r:?}");
        }
        assert_eq!(r.first().unwrap().from, NodeId(0));
    }

    #[test]
    fn on_node_route_is_empty() {
        let t = torus(8);
        assert!(route(&t, NodeId(5), NodeId(5)).is_empty());
    }

    #[test]
    fn phase_traffic_delays_shared_links_only() {
        let t = torus(8);
        let mut pt = PhaseTraffic::new(t.dims(), &NetConfig::default());
        let r01 = route(&t, NodeId(0), NodeId(1));
        // First transfer finds quiet links.
        assert_eq!(pt.enqueue(&r01, 4096), 0);
        // Same route again: queues behind the 4096 bytes at 2 B/cycle.
        assert_eq!(pt.enqueue(&r01, 64), 2048);
        // A disjoint route is unaffected. Node 0's +X link is 0->1; the
        // reverse direction 1->0 is a different cable.
        let r10 = route(&t, NodeId(1), NodeId(0));
        assert!(
            r10.iter().all(|l| !r01.contains(l)),
            "directions must not share links"
        );
        assert_eq!(pt.enqueue(&r10, 64), 0);
        assert_eq!(pt.peak_link_bytes(), 4096 + 64);
        pt.reset();
        assert_eq!(pt.enqueue(&r01, 64), 0, "reset clears the phase's backlog");
    }

    /// The link-load model with a sparse map keyed by link: the
    /// definition the dense table must reproduce.
    struct ReferenceTraffic {
        load: std::collections::BTreeMap<LinkId, u64>,
        bytes_per_cycle: u64,
    }

    impl ReferenceTraffic {
        fn enqueue(&mut self, route: &[LinkId], bytes: u64) -> u64 {
            let backlog = route
                .iter()
                .map(|l| self.load.get(l).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            for l in route {
                *self.load.entry(*l).or_insert(0) += bytes;
            }
            backlog.div_ceil(self.bytes_per_cycle)
        }
    }

    #[test]
    fn dense_link_loads_match_the_sparse_reference() {
        use bgp_arch::rng::SimRng;
        // The paper's full machine.
        let dims = TorusDims {
            x: 72,
            y: 32,
            z: 32,
        };
        let t = TorusNetwork::new(dims, NetConfig::default());
        let cfg = NetConfig::default();
        let mut dense = PhaseTraffic::new(dims, &cfg);
        let mut reference = ReferenceTraffic {
            load: std::collections::BTreeMap::new(),
            bytes_per_cycle: cfg.torus_bytes_per_cycle,
        };
        let mut rng = SimRng::seed_from_u64(73_728);
        let mut route = Vec::new();
        for phase in 0..6 {
            dense.reset();
            reference.load.clear();
            // Few hot senders so routes overlap and queue; zero-byte
            // transfers still load every link they cross.
            let hot = 1 + phase * 40usize;
            for _ in 0..3000 {
                let src = NodeId(rng.gen_range(0..hot));
                let dst = NodeId(rng.gen_range(0..dims.nodes()));
                let bytes = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(1..64u64),
                    _ => rng.gen_range(64..65_536u64),
                };
                t.route_into(src, dst, &mut route);
                assert_eq!(
                    dense.enqueue(&route, bytes),
                    reference.enqueue(&route, bytes),
                    "phase {phase}: {src:?}->{dst:?}"
                );
            }
            let r = &reference.load;
            assert_eq!(
                dense.peak_link_bytes(),
                r.values().copied().max().unwrap_or(0)
            );
            assert_eq!(dense.links_loaded(), r.len(), "phase {phase}");
            assert_eq!(
                dense.loaded.iter().map(|&i| dense.load[i]).sum::<u64>(),
                r.values().sum::<u64>(),
                "phase {phase}"
            );
        }
    }

    #[test]
    fn barrier_is_partition_size_independent() {
        let b = BarrierNetwork::new(NetConfig::default());
        assert_eq!(b.barrier_cycles(), NetConfig::default().barrier_cycles);
    }
}
