//! The DDR2 **memory controllers** and their port-contention model.
//!
//! A Blue Gene/P chip has two on-chip DDR2 controllers, each behind one
//! L3 bank. When several cores miss the L3 concurrently their requests
//! queue at the controller; the paper attributes the >4× DDR-traffic
//! blow-up of FT and IS in Virtual Node Mode partly to this "memory port
//! contention" (§VIII, Fig. 12).
//!
//! The simulator serializes the ranks *of one node* for determinism
//! (the phase engine rotates them in multi-thousand-access quanta), so
//! literal temporal overlap never exists. Contention is therefore modeled on *activity
//! rates*: the controller remembers when each core last accessed it (in
//! units of the node's global memory-access clock) and charges each
//! request a queueing penalty per **other** core active within
//! [`HORIZON`] — a window wide enough to span all resident ranks'
//! scheduler quanta, which is exactly the timescale on which the real
//! cores' request streams interleave.

use bgp_arch::CORES_PER_NODE;

/// Activity horizon in node memory accesses. Must exceed the scheduler
/// quantum × cores so that concurrently-running ranks see each other;
/// the default quantum is 2048, giving 4 × 2048 × 2 of slack.
pub(crate) const HORIZON: u64 = 16_384;

/// Outcome of one DDR access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DdrAccess {
    /// Total latency in cycles (base + queueing).
    pub latency: u64,
    /// Number of other cores contending within the horizon (0–3).
    pub conflicts: u64,
}

/// One DDR2 controller.
#[derive(Clone, Debug)]
pub(crate) struct DdrController {
    base_latency: u64,
    conflict_penalty: u64,
    reads: u64,
    writes: u64,
    last_access: [u64; CORES_PER_NODE],
}

impl DdrController {
    /// Controller with an unloaded `base_latency` and a per-contending-core
    /// `conflict_penalty` (both cycles).
    pub(crate) fn new(base_latency: u64, conflict_penalty: u64) -> DdrController {
        DdrController {
            base_latency,
            conflict_penalty,
            reads: 0,
            writes: 0,
            last_access: [u64::MAX; CORES_PER_NODE],
        }
    }

    /// Issue one line-sized burst from `core` at node memory-access time
    /// `now`. `write` selects the burst direction.
    pub(crate) fn access(&mut self, core: usize, write: bool, now: u64) -> DdrAccess {
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        let conflicts = self
            .last_access
            .iter()
            .enumerate()
            .filter(|&(c, &t)| c != core && t != u64::MAX && now.saturating_sub(t) < HORIZON)
            .count() as u64;
        self.last_access[core] = now;
        DdrAccess {
            latency: self.base_latency + conflicts * self.conflict_penalty,
            conflicts,
        }
    }

    /// Serialize the controller's runtime state (checkpoint support).
    pub(crate) fn save_state(&self, out: &mut Vec<u8>) {
        bgp_arch::wire::put_u64(out, self.reads);
        bgp_arch::wire::put_u64(out, self.writes);
        for &t in &self.last_access {
            bgp_arch::wire::put_u64(out, t);
        }
    }

    /// Restore state previously written by [`DdrController::save_state`].
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut bgp_arch::wire::Reader<'_>,
    ) -> bgp_arch::error::Result<()> {
        self.reads = r.u64("ddr reads")?;
        self.writes = r.u64("ddr writes")?;
        r.u64_array(&mut self.last_access, "ddr last access")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_never_conflicts() {
        let mut c = DdrController::new(100, 20);
        for i in 0..1000 {
            let a = c.access(0, false, i * 10);
            assert_eq!(a.conflicts, 0);
            assert_eq!(a.latency, 100);
        }
        assert_eq!(c.reads, 1000);
    }

    #[test]
    fn active_peers_within_horizon_queue_requests() {
        let mut c = DdrController::new(100, 20);
        c.access(0, false, 0);
        let a = c.access(1, false, 10);
        assert_eq!(a.conflicts, 1);
        assert_eq!(a.latency, 120);
        c.access(2, true, 20);
        let a = c.access(3, false, 30);
        assert_eq!(a.conflicts, 3);
        assert_eq!(a.latency, 160);
    }

    #[test]
    fn quantum_scale_interleaving_still_counts_as_concurrency() {
        // Ranks alternate in multi-thousand-access slices; the horizon
        // must bridge them (the whole point of the rate-based model).
        let mut c = DdrController::new(100, 20);
        c.access(0, false, 0);
        let a = c.access(1, false, 3000); // one quantum later
        assert_eq!(a.conflicts, 1);
    }

    #[test]
    fn idle_peers_age_out_of_the_horizon() {
        let mut c = DdrController::new(100, 20);
        c.access(1, false, 0);
        let a = c.access(0, false, HORIZON + 1);
        assert_eq!(a.conflicts, 0, "core 1 went quiet a horizon ago");
    }

    #[test]
    fn read_write_bookkeeping() {
        let mut c = DdrController::new(10, 0);
        c.access(0, false, 0);
        c.access(0, true, 1);
        c.access(0, true, 2);
        assert_eq!((c.reads, c.writes), (1, 2));
    }
}
