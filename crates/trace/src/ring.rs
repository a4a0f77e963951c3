//! Bounded ring buffer backing every trace recorder.
//!
//! The buffer keeps the **newest** `capacity` entries: when full, a push
//! evicts the oldest entry and counts it as dropped, so a runaway event
//! stream can never exhaust memory — the failure mode degrades to "the
//! timeline starts later", which is exactly what a flight recorder
//! should do. A capacity of zero records nothing (every push drops).

use std::collections::VecDeque;

/// A bounded FIFO that overwrites its oldest entry when full.
#[derive(Clone, Debug)]
pub(crate) struct RingBuffer<T> {
    cap: usize,
    buf: VecDeque<T>,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// An empty ring holding at most `capacity` entries. No storage is
    /// allocated until the first push.
    pub(crate) fn new(capacity: usize) -> RingBuffer<T> {
        RingBuffer {
            cap: capacity,
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append `value`, evicting the oldest entry if the ring is full.
    pub(crate) fn push(&mut self, value: T) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(value);
    }

    /// Entries currently retained.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries evicted (or refused, at capacity 0) so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained entries, oldest → newest.
    pub(crate) fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.buf.iter().cloned().collect()
    }

    /// The newest `n` entries, oldest → newest.
    pub(crate) fn last_n(&self, n: usize) -> Vec<T>
    where
        T: Clone,
    {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip).cloned().collect()
    }

    /// Replace the ring's contents and drop counter wholesale
    /// (checkpoint restore). The capacity is left unchanged; if
    /// `entries` exceeds it, the oldest excess entries are evicted and
    /// counted on top of `dropped`, exactly as live pushes would have.
    pub(crate) fn restore(&mut self, entries: Vec<T>, dropped: u64) {
        self.buf.clear();
        self.dropped = dropped;
        for e in entries {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_below_capacity_keeps_everything() {
        let mut r = RingBuffer::new(4);
        for i in 0..3 {
            r.push(i);
        }
        assert_eq!(r.to_vec(), vec![0, 1, 2]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn wrap_around_keeps_the_newest_entries() {
        let mut r = RingBuffer::new(3);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.to_vec(), vec![7, 8, 9], "oldest evicted first");
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
    }

    #[test]
    fn capacity_zero_records_nothing_but_counts_drops() {
        let mut r = RingBuffer::new(0);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 0);
        assert_eq!(r.dropped(), 5);
        assert_eq!(r.to_vec(), Vec::<i32>::new());
    }

    #[test]
    fn last_n_returns_the_tail_in_order() {
        let mut r = RingBuffer::new(8);
        for i in 0..6 {
            r.push(i);
        }
        assert_eq!(r.last_n(3), vec![3, 4, 5]);
        assert_eq!(r.last_n(100), vec![0, 1, 2, 3, 4, 5]);
    }
}
