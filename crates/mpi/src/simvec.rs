//! **Simulated arrays**: real data paired with simulated addresses.
//!
//! Workload kernels store their actual numbers in a [`SimVec`]'s backing
//! `Vec<T>`; every *simulated* access additionally walks the node's cache
//! hierarchy at the vector's virtual address. The kernels therefore
//! compute real results (verifiable FFTs, converging CG, …) while the
//! memory system observes a faithful address trace.
//!
//! Allocation happens through `RankCtx::alloc`, which carves the rank's
//! process-virtual address space with a bump allocator (32-byte aligned,
//! like the CNK heap).

use bgp_node::MemWidth;

/// Element types a [`SimVec`] can hold.
pub trait SimElem: Copy + Default + 'static {
    /// Bytes per element.
    const BYTES: u64;
    /// Instruction-set width of a scalar access to this element.
    const WIDTH: MemWidth;
}

impl SimElem for f64 {
    const BYTES: u64 = 8;
    const WIDTH: MemWidth = MemWidth::Double;
}

impl SimElem for u64 {
    const BYTES: u64 = 8;
    const WIDTH: MemWidth = MemWidth::Double;
}

impl SimElem for u32 {
    const BYTES: u64 = 4;
    const WIDTH: MemWidth = MemWidth::Word;
}

/// A simulated array: owned data plus its process-virtual base address.
#[derive(Clone, Debug)]
pub struct SimVec<T: SimElem> {
    data: Vec<T>,
    base: u64,
}

impl<T: SimElem> SimVec<T> {
    /// Internal constructor — use `RankCtx::alloc`.
    pub(crate) fn from_parts(data: Vec<T>, base: u64) -> SimVec<T> {
        SimVec { data, base }
    }

    /// Virtual address of element `i`.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i < self.data.len());
        self.base + i as u64 * T::BYTES
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw element read **without simulation** — for result verification
    /// and message packing outside the measured region.
    #[inline]
    pub fn raw(&self, i: usize) -> T {
        self.data[i]
    }

    /// Raw element write **without simulation**.
    #[inline]
    pub fn raw_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }

    /// Raw view of the backing data (verification only).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Raw mutable view of the backing data (initialization only).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_contiguous_and_typed() {
        let v = SimVec::<f64>::from_parts(vec![0.0; 8], 0x1000);
        assert_eq!(v.addr(0), 0x1000);
        assert_eq!(v.addr(3), 0x1000 + 24);
        let w = SimVec::<u32>::from_parts(vec![0; 8], 0x2000);
        assert_eq!(w.addr(3), 0x2000 + 12);
    }

    #[test]
    fn raw_access_reads_and_writes_backing_data() {
        let mut v = SimVec::<u64>::from_parts(vec![0; 4], 0);
        *v.raw_mut(2) = 42;
        assert_eq!(v.raw(2), 42);
        assert_eq!(v.as_slice(), &[0, 0, 42, 0]);
    }
}
