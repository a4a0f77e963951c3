//! Machine configuration: every hardware parameter the paper sweeps, plus
//! the fixed latencies of the memory hierarchy.

use crate::{L1_LINE_BYTES, LINE_BYTES};

/// Configuration of one compute node's hardware.
///
/// Defaults reproduce the production Blue Gene/P chip; the experiment
/// harness mutates individual fields the way the paper's authors rebooted
/// nodes with `svchost` options (e.g. shrinking the L3 for the SMP/1
/// fairness comparison in §VIII).
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// L1 data/instruction cache capacity per core (bytes).
    pub l1_bytes: usize,
    /// L1 associativity. The real PPC450 L1 is highly associative
    /// (64-way round-robin); we default to 16-way LRU, which behaves
    /// equivalently for the studied workloads.
    pub l1_ways: usize,
    /// Private L2 capacity per core (bytes). The BG/P L2 is a small
    /// prefetching line buffer.
    pub l2_bytes: usize,
    /// L2 associativity (the real L2 is fully associative; with 128-byte
    /// lines and 2 KB capacity that is 16 entries).
    pub l2_ways: usize,
    /// Number of sequential-stream prefetch engines in each L2.
    pub l2_streams: usize,
    /// How many lines ahead each L2 stream prefetches.
    pub l2_prefetch_depth: usize,
    /// Shared L3 capacity (bytes). `0` disables the L3 entirely —
    /// the paper's Fig. 11 sweeps 0, 2, 4, 6, 8 MB.
    pub l3_bytes: usize,
    /// L3 associativity.
    pub l3_ways: usize,
    /// Number of interleaved L3 banks / DDR controllers.
    pub l3_banks: usize,
    /// Load-to-use latency of an L1 hit (cycles). Fully pipelined, so it
    /// only stalls dependent consumers; the issue model charges it on
    /// every L1 miss's refill path instead.
    pub lat_l1: u64,
    /// L1-miss/L2-hit latency (cycles).
    pub lat_l2: u64,
    /// L2-miss/L3-hit latency (cycles).
    pub lat_l3: u64,
    /// L3-miss/DDR latency (cycles, unloaded).
    pub lat_ddr: u64,
    /// Extra DDR latency per queued conflicting request (cycles); models
    /// memory-port contention between cores.
    pub lat_ddr_conflict: u64,
    /// Node memory (bytes).
    pub memory_bytes: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            l1_bytes: 32 << 10,
            l1_ways: 16,
            l2_bytes: 2 << 10,
            l2_ways: 16,
            l2_streams: 15,
            l2_prefetch_depth: 2,
            l3_bytes: 8 << 20,
            l3_ways: 8,
            l3_banks: 2,
            lat_l1: 3,
            lat_l2: 12,
            lat_l3: 46,
            lat_ddr: 104,
            lat_ddr_conflict: 22,
            memory_bytes: crate::NODE_MEMORY_BYTES,
        }
    }
}

impl MachineConfig {
    /// Copy of this config with the L3 resized (bytes); `0` removes the L3.
    pub fn with_l3_bytes(mut self, bytes: usize) -> MachineConfig {
        self.l3_bytes = bytes;
        self
    }

    /// Copy with a different L2 prefetch depth (§IX future work sweep).
    pub fn with_l2_prefetch_depth(mut self, depth: usize) -> MachineConfig {
        self.l2_prefetch_depth = depth;
        self
    }

    /// Number of L1 sets implied by capacity/associativity/line size.
    pub fn l1_sets(&self) -> usize {
        self.l1_bytes / (self.l1_ways * L1_LINE_BYTES)
    }

    /// Number of L2 sets.
    pub fn l2_sets(&self) -> usize {
        (self.l2_bytes / (self.l2_ways * LINE_BYTES)).max(1)
    }

    /// Number of sets of **one L3 bank**.
    pub fn l3_sets_per_bank(&self) -> usize {
        if self.l3_bytes == 0 {
            0
        } else {
            self.l3_bytes / (self.l3_banks * self.l3_ways * LINE_BYTES)
        }
    }

    /// Validate internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.l1_bytes.is_multiple_of(self.l1_ways * L1_LINE_BYTES) || self.l1_sets() == 0 {
            return Err(format!(
                "L1 geometry invalid: {} bytes / {} ways / {} B lines",
                self.l1_bytes, self.l1_ways, L1_LINE_BYTES
            ));
        }
        if !self.l1_sets().is_power_of_two() {
            return Err("L1 set count must be a power of two".into());
        }
        if !self.l2_bytes.is_multiple_of(self.l2_ways * LINE_BYTES) {
            return Err("L2 capacity must divide into ways × 128 B lines".into());
        }
        // The L1 and L2 sit on the per-access hot path, so the cache core
        // indexes them with a mask; only the L3 (assembled from 2 MB eDRAM
        // macros, see below) may have a non-power-of-two set count.
        if !self.l2_sets().is_power_of_two() {
            return Err("L2 set count must be a power of two".into());
        }
        // Each process partition (all, half or a quarter of node memory)
        // starts on a 128-B line, so accesses that share a virtual L1
        // line share the physical one.
        let partition_align = (crate::CORES_PER_NODE * LINE_BYTES) as u64;
        if self.memory_bytes == 0 || !self.memory_bytes.is_multiple_of(partition_align) {
            return Err(format!(
                "node memory of {} bytes is not a positive multiple of {partition_align} B",
                self.memory_bytes
            ));
        }
        if self.l3_banks == 0 {
            return Err("need at least one L3 bank / DDR controller".into());
        }
        if self.l3_bytes != 0 {
            let per_bank = self.l3_bytes / self.l3_banks;
            // The L3 is assembled from 2 MB eDRAM macros, so capacities
            // like 6 MB yield set counts that are not powers of two; the
            // bank indexes by modulo, so we only require exact division.
            if !per_bank.is_multiple_of(self.l3_ways * LINE_BYTES) || self.l3_sets_per_bank() == 0 {
                return Err(format!(
                    "L3 geometry invalid: {} bytes over {} banks, {} ways",
                    self.l3_bytes, self.l3_banks, self.l3_ways
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_memory_must_split_into_line_aligned_partitions() {
        for bytes in [0, 1000, (2 << 30) + 128] {
            let c = MachineConfig {
                memory_bytes: bytes,
                ..MachineConfig::default()
            };
            let err = c.validate().unwrap_err();
            assert!(
                err.contains(&format!("node memory of {bytes} bytes")),
                "{err}"
            );
        }
        let c = MachineConfig {
            memory_bytes: 12 << 20,
            ..MachineConfig::default()
        };
        c.validate().unwrap();
    }

    #[test]
    fn default_config_is_valid_and_matches_chip() {
        let c = MachineConfig::default();
        c.validate().unwrap();
        assert_eq!(c.l1_bytes, 32 << 10, "PPC450 has 32 KB L1s");
        assert_eq!(c.l3_bytes, 8 << 20, "BG/P ships an 8 MB shared L3");
        assert_eq!(c.l3_banks, 2, "two memory controllers");
        assert_eq!(c.l1_sets(), 64);
    }

    #[test]
    fn l3_sweep_sizes_are_valid() {
        // The exact sizes Fig. 11 sweeps.
        for mb in [0usize, 2, 4, 6, 8] {
            let c = MachineConfig::default().with_l3_bytes(mb << 20);
            c.validate().unwrap_or_else(|e| panic!("{mb} MB: {e}"));
        }
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let c = MachineConfig {
            l1_bytes: 1000,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err(), "l1 not line/way aligned");

        let c = MachineConfig {
            l3_banks: 0,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            l3_bytes: 1000,
            ..MachineConfig::default()
        };
        assert!(
            c.validate().is_err(),
            "l3 not divisible into ways × lines per bank"
        );
    }

    #[test]
    fn non_power_of_two_l1_or_l2_sets_are_rejected() {
        // 24 KB / 16 ways / 32 B lines = 48 L1 sets: aligned but not pow2.
        let c = MachineConfig {
            l1_bytes: 24 << 10,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err(), "48 L1 sets must be rejected");

        // 6 KB / 16 ways / 128 B lines = 3 L2 sets: aligned but not pow2,
        // which would force the modulo path on every L2 probe.
        let c = MachineConfig {
            l2_bytes: 6 << 10,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err(), "3 L2 sets must be rejected");

        // Doubling the default L2 stays a power of two and validates.
        let c = MachineConfig {
            l2_bytes: 4 << 10,
            ..MachineConfig::default()
        };
        c.validate().unwrap();
    }

    #[test]
    fn l3_keeps_the_modulo_fallback_for_edram_macro_sizes() {
        // 6 MB = three 2 MB macros: 3072 sets per bank, not a power of
        // two, and deliberately still valid (Fig. 11's sweep needs it).
        let c = MachineConfig::default().with_l3_bytes(6 << 20);
        c.validate().unwrap();
        assert!(!c.l3_sets_per_bank().is_power_of_two());
    }

    #[test]
    fn zero_l3_is_the_no_l3_configuration() {
        let c = MachineConfig::default().with_l3_bytes(0);
        c.validate().unwrap();
        assert_eq!(c.l3_sets_per_bank(), 0);
    }
}
