//! Machine **geometry**: identifiers for nodes, cores and MPI ranks, the
//! 3-D torus coordinate system, and the per-process physical address
//! layout of a node.

use crate::{modes::OpMode, NODE_MEMORY_BYTES};
use core::fmt;

/// Index of a compute node within a partition (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A coordinate in the 3-D torus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TorusCoord {
    /// X coordinate.
    pub x: usize,
    /// Y coordinate.
    pub y: usize,
    /// Z coordinate.
    pub z: usize,
}

/// The shape of a torus partition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TorusDims {
    /// Extent in X.
    pub x: usize,
    /// Extent in Y.
    pub y: usize,
    /// Extent in Z.
    pub z: usize,
}

impl TorusDims {
    /// Total node count of the partition.
    #[inline]
    pub const fn nodes(self) -> usize {
        self.x * self.y * self.z
    }

    /// Pick a near-cubic torus shape for `n` nodes.
    ///
    /// Blue Gene/P partitions come in fixed midplane shapes; for the
    /// simulator we factor `n` into the most cubic `x*y*z` decomposition
    /// (ties broken toward larger `x`). Works for any `n >= 1`.
    pub fn for_nodes(n: usize) -> TorusDims {
        assert!(n >= 1, "partition must contain at least one node");
        let mut best = TorusDims { x: n, y: 1, z: 1 };
        let mut best_score = usize::MAX;
        for x in 1..=n {
            if !n.is_multiple_of(x) {
                continue;
            }
            let yz = n / x;
            for y in 1..=yz {
                if !yz.is_multiple_of(y) {
                    continue;
                }
                let z = yz / y;
                // Surface-area-like score: smaller is more cubic, i.e.
                // lower average hop distance.
                let score = x * y + y * z + x * z;
                if score < best_score {
                    best_score = score;
                    best = TorusDims { x, y, z };
                }
            }
        }
        best
    }

    /// Map a node index to its torus coordinate (X-major order).
    #[inline]
    pub fn coord(self, node: NodeId) -> TorusCoord {
        let i = node.0;
        assert!(i < self.nodes(), "node {i} outside {self:?}");
        TorusCoord {
            x: i % self.x,
            y: (i / self.x) % self.y,
            z: i / (self.x * self.y),
        }
    }

    /// Inverse of [`TorusDims::coord`].
    #[inline]
    pub fn node(self, c: TorusCoord) -> NodeId {
        NodeId(c.x + self.x * (c.y + self.y * c.z))
    }

    /// Minimal hop count between two nodes on the wrapped 3-D mesh.
    pub fn hops(self, a: NodeId, b: NodeId) -> usize {
        let ca = self.coord(a);
        let cb = self.coord(b);
        let wrap = |d: usize, extent: usize| -> usize {
            let d = d % extent;
            d.min(extent - d)
        };
        wrap(ca.x.abs_diff(cb.x), self.x)
            + wrap(ca.y.abs_diff(cb.y), self.y)
            + wrap(ca.z.abs_diff(cb.z), self.z)
    }
}

/// Physical address layout of one node under a given operating mode.
///
/// Every process booted on the node owns an equal, contiguous slice of the
/// node's DDR; process-virtual addresses translate to node-physical
/// addresses by adding the slice base. This is how the real CNK (compute
/// node kernel) statically partitions memory in Dual and Virtual Node
/// modes.
#[derive(Clone, Copy, Debug)]
pub struct AddressLayout {
    /// Bytes of DDR owned by each process, fixed at construction so
    /// translation does no division.
    span: u64,
}

impl AddressLayout {
    /// Layout for `mode` with the default 2 GB node memory.
    pub fn new(mode: OpMode) -> AddressLayout {
        AddressLayout::with_memory(mode, NODE_MEMORY_BYTES)
    }

    /// Layout with an explicit node memory size (bytes).
    pub fn with_memory(mode: OpMode, node_bytes: u64) -> AddressLayout {
        assert!(node_bytes > 0);
        AddressLayout {
            span: node_bytes / mode.processes_per_node() as u64,
        }
    }

    /// Translate a process-virtual address to a node-physical address.
    ///
    /// # Panics
    /// Panics if the virtual address exceeds the process's partition.
    #[inline]
    pub fn physical(&self, process: usize, vaddr: u64) -> u64 {
        let span = self.span;
        debug_assert!(
            vaddr < span,
            "vaddr {vaddr:#x} outside process partition of {span:#x} bytes"
        );
        process as u64 * span + vaddr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_factorization_is_exact_and_cubic() {
        for &(n, expect) in &[
            (1, (1, 1, 1)),
            (8, (2, 2, 2)),
            (32, (4, 4, 2)),
            (64, (4, 4, 4)),
            (128, (8, 4, 4)),
            (512, (8, 8, 8)),
        ] {
            let d = TorusDims::for_nodes(n);
            assert_eq!(d.nodes(), n);
            let mut got = [d.x, d.y, d.z];
            got.sort_unstable();
            let mut want = [expect.0, expect.1, expect.2];
            want.sort_unstable();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn coord_round_trips() {
        let d = TorusDims::for_nodes(32);
        for i in 0..32 {
            let c = d.coord(NodeId(i));
            assert_eq!(d.node(c), NodeId(i));
        }
    }

    #[test]
    fn hops_is_a_metric_on_small_torus() {
        let d = TorusDims::for_nodes(8);
        for a in 0..8 {
            assert_eq!(d.hops(NodeId(a), NodeId(a)), 0);
            for b in 0..8 {
                assert_eq!(d.hops(NodeId(a), NodeId(b)), d.hops(NodeId(b), NodeId(a)));
                for c in 0..8 {
                    assert!(
                        d.hops(NodeId(a), NodeId(c))
                            <= d.hops(NodeId(a), NodeId(b)) + d.hops(NodeId(b), NodeId(c))
                    );
                }
            }
        }
    }

    #[test]
    fn wraparound_shortens_paths() {
        // On a 4-extent ring, distance between 0 and 3 is 1, not 3.
        let d = TorusDims { x: 4, y: 1, z: 1 };
        assert_eq!(d.hops(NodeId(0), NodeId(3)), 1);
        assert_eq!(d.hops(NodeId(0), NodeId(2)), 2);
    }

    #[test]
    fn address_layout_partitions_are_disjoint() {
        let l = AddressLayout::with_memory(OpMode::VirtualNode, 1 << 20);
        let a0 = l.physical(0, 0);
        let a1 = l.physical(1, 0);
        let a3_last = l.physical(3, (256 << 10) - 1);
        assert_eq!(a0, 0);
        assert_eq!(a1, 256 << 10);
        assert_eq!(a3_last, (1 << 20) - 1);
    }

    #[test]
    fn smp_process_owns_whole_node() {
        let l = AddressLayout::with_memory(OpMode::Smp1, 1 << 20);
        assert_eq!(l.physical(0, 12345), 12345);
    }
}
