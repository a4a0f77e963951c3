//! # bgp-faults — deterministic fault injection for the simulated machine
//!
//! A [`FaultPlan`] is a *pure function of `(spec, seed, nodes)`*: every
//! query it answers — "is node 7 lost?", "does the dump of node 3 get a
//! byte flipped?" — is derived by hashing the seed with a per-domain
//! salt and the node id. Two consequences fall out of that design:
//!
//! 1. **Reproducibility.** The same seed produces the byte-identical
//!    fault schedule on every run, on every host. Experiments that
//!    sweep fault rates are replayable, and a failure seen once can be
//!    re-run under a debugger.
//! 2. **Schedule stability.** Each fault domain draws from its own salt,
//!    so raising the dump-corruption rate does not reshuffle *which*
//!    nodes are lost — the set of lost nodes at 5% is a subset of the
//!    set at 10%. That makes rate sweeps monotone and comparisons
//!    between rates meaningful.
//!
//! The plan is advisory: it decides *what* goes wrong, and the machine
//! layers (`bgp-net`, `bgp-mpi`, `bgp-upc`, `bgp-core`) consult it at
//! the points where those faults physically manifest. Nothing in this
//! crate touches the simulator directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use bgp_arch::rng::splitmix64;

/// Per-domain salts. Distinct constants keep the fault domains'
/// pseudo-random draws statistically independent of each other.
mod salt {
    pub(crate) const NODE_LOSS: u64 = 0x6e6f_6465_6c6f_7373; // "nodeloss"
    pub(crate) const STRAGGLER: u64 = 0x7374_7261_6767_6c65; // "straggle"
    pub(crate) const LINK: u64 = 0x6c69_6e6b_6465_6772; // "linkdegr"
    pub(crate) const TIMEOUT: u64 = 0x7469_6d65_6f75_7421; // "timeout!"
    pub(crate) const BITFLIP: u64 = 0x6269_7466_6c69_7070; // "bitflipp"
    pub(crate) const SATURATE: u64 = 0x7361_7475_7261_7465; // "saturate"
    pub(crate) const DUMP: u64 = 0x6475_6d70_6661_756c; // "dumpfaul"
}

/// Fault *rates* and magnitudes for one experiment.
///
/// All `*_rate` fields are probabilities in `[0, 1]` applied
/// independently per node (or per `(node, attempt)` for timeouts). The
/// default is the all-zero spec: no faults at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability a node dies mid-run (its counters are never
    /// collected and its ranks stop making progress at a fault point).
    pub node_loss_rate: f64,
    /// Probability a node is a straggler (all of its ranks run slow).
    pub straggler_rate: f64,
    /// Extra cycles a straggler node's ranks pay at every scheduling
    /// boundary.
    pub straggler_penalty_cycles: u64,
    /// Probability a node's torus router is degraded.
    pub link_degrade_rate: f64,
    /// Latency multiplier applied to every hop through a degraded
    /// router (1 = no slowdown).
    pub link_slowdown: u64,
    /// Probability one collection attempt against a node times out.
    /// Independent per attempt, so retries help.
    pub collection_timeout_rate: f64,
    /// Probability a node's counter file suffers a single-bit flip.
    pub counter_bitflip_rate: f64,
    /// Probability a node's UPC is switched into saturating mode with
    /// one counter preset near `u64::MAX` (models overflow clamping).
    pub counter_saturate_rate: f64,
    /// Probability a node's dump file is truncated.
    pub dump_truncate_rate: f64,
    /// Probability a single byte of a node's dump file is corrupted.
    pub dump_byteflip_rate: f64,
    /// Probability a node's dump file goes missing entirely.
    pub dump_missing_rate: f64,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// The all-zero spec: nothing ever goes wrong.
    pub const fn none() -> FaultSpec {
        FaultSpec {
            node_loss_rate: 0.0,
            straggler_rate: 0.0,
            straggler_penalty_cycles: 0,
            link_degrade_rate: 0.0,
            link_slowdown: 1,
            collection_timeout_rate: 0.0,
            counter_bitflip_rate: 0.0,
            counter_saturate_rate: 0.0,
            dump_truncate_rate: 0.0,
            dump_byteflip_rate: 0.0,
            dump_missing_rate: 0.0,
        }
    }
}

/// A deterministic fault affecting one UPC counter of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterFault {
    /// Flip bit `bit` of counter `slot` when the measurement window
    /// closes (a single-event upset in the counter SRAM).
    BitFlip {
        /// Counter slot, `0..256`.
        slot: usize,
        /// Bit index, `0..64`.
        bit: u32,
    },
    /// Switch the UPC into saturating mode and preset `slot` near
    /// `u64::MAX`, so real traffic clamps it to the ceiling.
    Saturate {
        /// Counter slot, `0..256`.
        slot: usize,
    },
}

/// A deterministic fault affecting one node's on-disk counter dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DumpFault {
    /// The file was never written (node died before flushing).
    Missing,
    /// The file is cut short. The kept prefix is `num % len` bytes.
    Truncate {
        /// Raw draw; reduce modulo the file length for the cut point.
        num: u64,
    },
    /// One byte at `pos % len` is XORed with `mask` (always non-zero).
    ByteFlip {
        /// Raw draw; reduce modulo the file length for the position.
        pos: u64,
        /// XOR mask, guaranteed non-zero.
        mask: u8,
    },
}

impl DumpFault {
    /// Apply this fault to an encoded dump, returning `None` for
    /// [`DumpFault::Missing`] (the caller should drop the file).
    pub fn apply(self, mut bytes: Vec<u8>) -> Option<Vec<u8>> {
        if bytes.is_empty() {
            return match self {
                DumpFault::Missing => None,
                _ => Some(bytes),
            };
        }
        match self {
            DumpFault::Missing => None,
            DumpFault::Truncate { num } => {
                let keep = (num % bytes.len() as u64) as usize;
                bytes.truncate(keep);
                Some(bytes)
            }
            DumpFault::ByteFlip { pos, mask } => {
                let at = (pos % bytes.len() as u64) as usize;
                bytes[at] ^= mask;
                Some(bytes)
            }
        }
    }
}

/// A sealed, seeded fault schedule for a machine of `nodes` nodes.
///
/// Construction is cheap; all per-node decisions are recomputed on
/// demand from the seed (no per-node state is stored), which is what
/// makes the schedule a pure function of `(spec, seed, nodes)`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
    nodes: usize,
}

/// Turn a 64-bit hash into a uniform `f64` in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// Seal a plan for a machine with `nodes` nodes.
    pub fn new(spec: FaultSpec, seed: u64, nodes: usize) -> FaultPlan {
        FaultPlan { spec, seed, nodes }
    }

    /// A plan that injects nothing; handy as a neutral default.
    pub fn inert(nodes: usize) -> FaultPlan {
        FaultPlan::new(FaultSpec::none(), 0, nodes)
    }

    /// The spec this plan was sealed with.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Number of nodes the plan covers.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// One deterministic draw for `(domain salt, node, stream index)`.
    fn draw(&self, salt: u64, node: u32, idx: u64) -> u64 {
        let mut s = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(idx.wrapping_mul(0x94D0_49BB_1331_11EB));
        splitmix64(&mut s)
    }

    fn hit(&self, salt: u64, node: u32, rate: f64) -> bool {
        rate > 0.0 && unit(self.draw(salt, node, 0)) < rate
    }

    /// Is `node` lost mid-run? Lost nodes never deliver their dumps and
    /// every collection attempt against them fails fatally.
    pub fn node_lost(&self, node: u32) -> bool {
        self.hit(salt::NODE_LOSS, node, self.spec.node_loss_rate)
    }

    /// Extra cycles `node`'s ranks pay per scheduling boundary
    /// (0 for non-stragglers).
    pub fn straggler_penalty(&self, node: u32) -> u64 {
        if self.hit(salt::STRAGGLER, node, self.spec.straggler_rate) {
            self.spec.straggler_penalty_cycles
        } else {
            0
        }
    }

    /// Is `node`'s torus router degraded?
    pub fn router_degraded(&self, node: u32) -> bool {
        self.hit(salt::LINK, node, self.spec.link_degrade_rate)
    }

    /// Hop-latency multiplier for a transfer between `src` and `dst`
    /// (1 when neither endpoint's router is degraded).
    pub fn link_slowdown(&self, src: u32, dst: u32) -> u64 {
        if self.router_degraded(src) || self.router_degraded(dst) {
            self.spec.link_slowdown.max(1)
        } else {
            1
        }
    }

    /// Does collection attempt `attempt` (0-based) against `node` time
    /// out? Draws are independent per attempt, so retrying helps.
    pub fn collection_timeout(&self, node: u32, attempt: u32) -> bool {
        self.spec.collection_timeout_rate > 0.0
            && unit(self.draw(salt::TIMEOUT, node, 1 + attempt as u64))
                < self.spec.collection_timeout_rate
    }

    /// Counter faults for `node`, in application order.
    pub fn counter_faults(&self, node: u32) -> Vec<CounterFault> {
        let mut out = Vec::new();
        if self.hit(salt::BITFLIP, node, self.spec.counter_bitflip_rate) {
            let slot = (self.draw(salt::BITFLIP, node, 1) % 256) as usize;
            let bit = (self.draw(salt::BITFLIP, node, 2) % 64) as u32;
            out.push(CounterFault::BitFlip { slot, bit });
        }
        if self.hit(salt::SATURATE, node, self.spec.counter_saturate_rate) {
            let slot = (self.draw(salt::SATURATE, node, 1) % 256) as usize;
            out.push(CounterFault::Saturate { slot });
        }
        out
    }

    /// The dump-file fault for `node`, if any. At most one fault per
    /// file; `Missing` wins over `Truncate` wins over `ByteFlip`.
    pub fn dump_fault(&self, node: u32) -> Option<DumpFault> {
        if self.hit(salt::DUMP, node, self.spec.dump_missing_rate) {
            return Some(DumpFault::Missing);
        }
        // Separate stream indices keep the three sub-draws independent.
        if self.spec.dump_truncate_rate > 0.0
            && unit(self.draw(salt::DUMP, node, 1)) < self.spec.dump_truncate_rate
        {
            return Some(DumpFault::Truncate {
                num: self.draw(salt::DUMP, node, 2),
            });
        }
        if self.spec.dump_byteflip_rate > 0.0
            && unit(self.draw(salt::DUMP, node, 3)) < self.spec.dump_byteflip_rate
        {
            let pos = self.draw(salt::DUMP, node, 4);
            let mask = (self.draw(salt::DUMP, node, 5) % 255 + 1) as u8;
            return Some(DumpFault::ByteFlip { pos, mask });
        }
        None
    }

    /// Nodes the plan declares lost, in ascending order.
    pub fn lost_nodes(&self) -> Vec<u32> {
        (0..self.nodes as u32)
            .filter(|&n| self.node_lost(n))
            .collect()
    }

    /// Human-readable summary of every fault scheduled against `node`
    /// (empty when the node is clean). Used by deadlock forensics and
    /// trace reports.
    pub fn node_fault_summary(&self, node: u32) -> Vec<String> {
        let mut out = Vec::new();
        if self.node_lost(node) {
            out.push("node lost".to_string());
        }
        let penalty = self.straggler_penalty(node);
        if penalty > 0 {
            out.push(format!("straggler (+{penalty} cycles/boundary)"));
        }
        if self.router_degraded(node) {
            out.push(format!(
                "router degraded (x{} hop latency)",
                self.spec.link_slowdown.max(1)
            ));
        }
        for f in self.counter_faults(node) {
            match f {
                CounterFault::BitFlip { slot, bit } => {
                    out.push(format!("counter bit-flip (slot {slot}, bit {bit})"));
                }
                CounterFault::Saturate { slot } => {
                    out.push(format!("counter saturation (slot {slot})"));
                }
            }
        }
        match self.dump_fault(node) {
            Some(DumpFault::Missing) => out.push("dump missing".to_string()),
            Some(DumpFault::Truncate { .. }) => out.push("dump truncated".to_string()),
            Some(DumpFault::ByteFlip { .. }) => out.push("dump byte-flip".to_string()),
            None => {}
        }
        out
    }

    /// Canonical byte encoding of the entire fault schedule.
    ///
    /// Two plans with the same `(spec, seed, nodes)` produce identical
    /// bytes; this is the artifact reproducibility tests compare.
    pub fn schedule_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.nodes * 16);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.nodes as u64).to_le_bytes());
        for node in 0..self.nodes as u32 {
            out.push(self.node_lost(node) as u8);
            out.extend_from_slice(&self.straggler_penalty(node).to_le_bytes());
            out.push(self.router_degraded(node) as u8);
            for f in self.counter_faults(node) {
                match f {
                    CounterFault::BitFlip { slot, bit } => {
                        out.push(1);
                        out.extend_from_slice(&(slot as u32).to_le_bytes());
                        out.extend_from_slice(&bit.to_le_bytes());
                    }
                    CounterFault::Saturate { slot } => {
                        out.push(2);
                        out.extend_from_slice(&(slot as u32).to_le_bytes());
                    }
                }
            }
            match self.dump_fault(node) {
                None => out.push(0),
                Some(DumpFault::Missing) => out.push(3),
                Some(DumpFault::Truncate { num }) => {
                    out.push(4);
                    out.extend_from_slice(&num.to_le_bytes());
                }
                Some(DumpFault::ByteFlip { pos, mask }) => {
                    out.push(5);
                    out.extend_from_slice(&pos.to_le_bytes());
                    out.push(mask);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A moderately hostile spec exercising every fault domain at once.
    fn hostile() -> FaultSpec {
        FaultSpec {
            node_loss_rate: 0.05,
            straggler_rate: 0.10,
            straggler_penalty_cycles: 2_000,
            link_degrade_rate: 0.05,
            link_slowdown: 4,
            collection_timeout_rate: 0.20,
            counter_bitflip_rate: 0.02,
            counter_saturate_rate: 0.02,
            dump_truncate_rate: 0.01,
            dump_byteflip_rate: 0.01,
            dump_missing_rate: 0.01,
        }
    }

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(hostile(), seed, 64)
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(plan(42).schedule_bytes(), plan(42).schedule_bytes());
        assert_eq!(plan(42).lost_nodes(), plan(42).lost_nodes());
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(plan(1).schedule_bytes(), plan(2).schedule_bytes());
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let p = FaultPlan::inert(128);
        for n in 0..128u32 {
            assert!(!p.node_lost(n));
            assert_eq!(p.straggler_penalty(n), 0);
            assert_eq!(p.link_slowdown(n, (n + 1) % 128), 1);
            assert!(!p.collection_timeout(n, 0));
            assert!(p.counter_faults(n).is_empty());
            assert!(p.dump_fault(n).is_none());
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        // 5% node loss over 2000 nodes: expect ~100, accept a wide band.
        let p = FaultPlan::new(
            FaultSpec {
                node_loss_rate: 0.05,
                ..FaultSpec::none()
            },
            7,
            2000,
        );
        let lost = p.lost_nodes().len();
        assert!((40..=180).contains(&lost), "lost {lost} of 2000 at 5%");
    }

    #[test]
    fn raising_one_rate_does_not_reshuffle_another_domain() {
        let a = FaultPlan::new(
            FaultSpec {
                node_loss_rate: 0.05,
                dump_byteflip_rate: 0.0,
                ..FaultSpec::none()
            },
            9,
            256,
        );
        let b = FaultPlan::new(
            FaultSpec {
                node_loss_rate: 0.05,
                dump_byteflip_rate: 0.5,
                ..FaultSpec::none()
            },
            9,
            256,
        );
        assert_eq!(a.lost_nodes(), b.lost_nodes());
    }

    #[test]
    fn loss_sets_nest_as_rate_rises() {
        let lo = FaultPlan::new(
            FaultSpec {
                node_loss_rate: 0.05,
                ..FaultSpec::none()
            },
            11,
            512,
        );
        let hi = FaultPlan::new(
            FaultSpec {
                node_loss_rate: 0.20,
                ..FaultSpec::none()
            },
            11,
            512,
        );
        let hi_set: std::collections::HashSet<u32> = hi.lost_nodes().into_iter().collect();
        for n in lo.lost_nodes() {
            assert!(hi_set.contains(&n), "node {n} lost at 5% but not at 20%");
        }
    }

    #[test]
    fn timeout_draws_independent_per_attempt() {
        let p = FaultPlan::new(
            FaultSpec {
                collection_timeout_rate: 0.5,
                ..FaultSpec::none()
            },
            13,
            1,
        );
        // With p=0.5 per attempt, 64 attempts virtually surely contain
        // both outcomes.
        let hits: Vec<bool> = (0..64).map(|a| p.collection_timeout(0, a)).collect();
        assert!(hits.iter().any(|&h| h));
        assert!(hits.iter().any(|&h| !h));
    }

    #[test]
    fn dump_fault_apply() {
        let bytes = vec![0xAAu8; 100];
        assert!(DumpFault::Missing.apply(bytes.clone()).is_none());
        let t = DumpFault::Truncate { num: 37 }
            .apply(bytes.clone())
            .unwrap();
        assert_eq!(t.len(), 37);
        let f = DumpFault::ByteFlip {
            pos: 205,
            mask: 0x01,
        }
        .apply(bytes.clone())
        .unwrap();
        assert_eq!(f.len(), 100);
        assert_eq!(f[5], 0xAB);
        assert_eq!(f.iter().filter(|&&b| b != 0xAA).count(), 1);
        // Empty input never panics.
        assert_eq!(
            DumpFault::Truncate { num: 3 }.apply(Vec::new()).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn byteflip_mask_is_never_zero() {
        for seed in 0..50u64 {
            let p = FaultPlan::new(
                FaultSpec {
                    dump_byteflip_rate: 1.0,
                    ..FaultSpec::none()
                },
                seed,
                32,
            );
            for n in 0..32 {
                match p.dump_fault(n) {
                    Some(DumpFault::ByteFlip { mask, .. }) => assert_ne!(mask, 0),
                    other => panic!("expected byteflip, got {other:?}"),
                }
            }
        }
    }
}
