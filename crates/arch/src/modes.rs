//! Node **operating modes** (paper Fig. 3).
//!
//! A Blue Gene/P node can be booted in four modes that trade MPI process
//! count against threads per process:
//!
//! | mode          | processes/node | threads/process |
//! |---------------|----------------|-----------------|
//! | SMP / 1 thread | 1              | 1               |
//! | SMP / 4 threads| 1              | 4               |
//! | Dual           | 2              | 2               |
//! | Virtual Node   | 4              | 1               |
//!
//! The mode determines how the node's four cores and its memory are
//! partitioned between processes, which drives the paper's §VIII
//! experiments (Figs. 12–14).

use crate::CORES_PER_NODE;
use core::fmt;

/// Operating mode of a compute node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OpMode {
    /// One process, one thread; three cores idle.
    Smp1,
    /// One process, four threads (one per core).
    Smp4,
    /// Two processes, two threads each.
    Dual,
    /// Virtual Node Mode: four single-threaded processes, one per core.
    /// The paper's headline configuration.
    #[default]
    VirtualNode,
}

impl OpMode {
    /// All modes, in the order of the paper's Fig. 3 table.
    pub const ALL: [OpMode; 4] = [
        OpMode::Smp1,
        OpMode::Smp4,
        OpMode::Dual,
        OpMode::VirtualNode,
    ];

    /// MPI processes booted per node in this mode.
    #[inline]
    pub const fn processes_per_node(self) -> usize {
        match self {
            OpMode::Smp1 | OpMode::Smp4 => 1,
            OpMode::Dual => 2,
            OpMode::VirtualNode => 4,
        }
    }

    /// Threads each process may run in this mode.
    #[inline]
    pub const fn threads_per_process(self) -> usize {
        match self {
            OpMode::Smp1 => 1,
            OpMode::Smp4 => 4,
            OpMode::Dual => 2,
            OpMode::VirtualNode => 1,
        }
    }

    /// Cores assigned to process `p` (0-based within the node).
    ///
    /// Cores are dealt out contiguously: in Dual mode process 0 gets cores
    /// {0,1} and process 1 gets cores {2,3}; in VNM process *p* gets core
    /// *p*.
    pub fn cores_of_process(self, p: usize) -> core::ops::Range<usize> {
        assert!(
            p < self.processes_per_node(),
            "process {p} out of range for {self}"
        );
        let per = CORES_PER_NODE / self.processes_per_node();
        p * per..(p + 1) * per
    }

    /// Canonical display name used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            OpMode::Smp1 => "SMP/1 thread",
            OpMode::Smp4 => "SMP/4 threads",
            OpMode::Dual => "Dual Mode",
            OpMode::VirtualNode => "Virtual Node Mode",
        }
    }
}

impl fmt::Display for OpMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_uses_at_most_four_cores() {
        for m in OpMode::ALL {
            let total: usize = (0..m.processes_per_node())
                .map(|p| m.cores_of_process(p).len())
                .sum();
            assert!(total <= CORES_PER_NODE);
            // Hardware contexts available >= threads requested.
            assert!(m.processes_per_node() * m.threads_per_process() <= CORES_PER_NODE);
        }
    }

    #[test]
    fn process_core_ranges_are_disjoint_and_ordered() {
        for m in OpMode::ALL {
            let mut last_end = 0;
            for p in 0..m.processes_per_node() {
                let r = m.cores_of_process(p);
                assert_eq!(r.start, last_end);
                last_end = r.end;
            }
        }
    }

    #[test]
    fn fig3_values_match_paper() {
        assert_eq!(OpMode::Smp1.processes_per_node(), 1);
        assert_eq!(OpMode::Smp1.threads_per_process(), 1);
        assert_eq!(OpMode::Smp4.processes_per_node(), 1);
        assert_eq!(OpMode::Smp4.threads_per_process(), 4);
        assert_eq!(OpMode::Dual.processes_per_node(), 2);
        assert_eq!(OpMode::Dual.threads_per_process(), 2);
        assert_eq!(OpMode::VirtualNode.processes_per_node(), 4);
        assert_eq!(OpMode::VirtualNode.threads_per_process(), 1);
    }
}
