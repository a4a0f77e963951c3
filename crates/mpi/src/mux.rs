//! Per-node counter-mode schedules.
//!
//! The UPC watches one counter mode's 256 events at a time. Every
//! [`CounterPolicy`] becomes a per-node mode schedule here: each node
//! has a *home* mode ([`CounterPolicy::mode_for`], the mode its dump
//! header advertises) and either stays in it or rotates.
//!
//! * `Fixed` and `EvenOdd` nodes get a **one-mode schedule**. It never
//!   rotates, arms no sentinels, harvests nothing, holds no state and
//!   takes no lock; its marks are the live counters of the home mode.
//!   The job's policy says so for every node at once: there is no
//!   per-node record of it.
//! * `Multiplexed` nodes get a **rotating schedule**. At every phase
//!   boundary, the only points where the whole machine is quiescent,
//!   the node decides whether to stay in the current mode or rotate to
//!   the next one. It folds the harvested counter values into a
//!   per-mode accumulator and tracks per-mode *occupancy* (enabled
//!   phases and cycles spent in the mode), so `bgp-postproc` can scale
//!   the sampled counts back up to full-run estimates with error bars.
//!
//! The counter library reads every session window as the schedule's
//! totals at stop minus its start [`MuxMark`], whatever the schedule.
//! Rotation adapts on two signals, both read at phase granularity so the
//! whole thing is byte-identical for every `BGP_SIM_THREADS` value:
//!
//! * **threshold interrupts** — a small set of sentinel counter slots is
//!   armed with UPC threshold interrupts; a firing means the current
//!   event set is hot, and the dwell is extended (up to 8× the base) to
//!   sample it more densely;
//! * **counter derivatives** — the per-phase delta of the unit-wide
//!   counter sum; when it collapses to less than half of the previous
//!   phase's delta the workload changed phase, and the scheduler
//!   rotates early to re-survey the other event sets.
//!
//! Everything here is integer arithmetic over state mutated only at
//! phase boundaries, under the machine's quiescence guarantee, in
//! canonical node order — the schedule, the accumulators and the trace
//! events it emits are deterministic.

use crate::machine::CounterPolicy;
use bgp_arch::error::Result;
use bgp_arch::events::{CounterMode, NUM_COUNTERS, NUM_EVENTS, NUM_MODES};
use bgp_arch::geometry::NodeId;
use bgp_arch::sync::Mutex;
use bgp_arch::wire::{put_u64, put_u8, Reader};
use bgp_arch::BgpError;
use bgp_upc::{CounterConfig, Upc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::MutexGuard;

/// Counter slots armed with threshold interrupts under multiplexing.
///
/// Sentinels watch whatever event is wired to the slot in the mode the
/// unit currently sits in (slot 20 is core 0's L1d-miss counter in
/// mode 0, slot 2 is the L3-miss-bank-0 counter in mode 2, …): the
/// scheduler only cares that *some* fast-moving counter crosses its
/// threshold, which reads as "this event set is hot, dwell longer".
pub const SENTINEL_SLOTS: [u8; 4] = [2, 8, 20, 140];

/// Floor for re-armed sentinel thresholds: below this a threshold would
/// fire on noise every phase and the dwell extension would saturate.
pub const SENTINEL_MIN_THRESHOLD: u64 = 1024;

/// Dwell-extension ceiling, as a multiple of the base dwell.
pub const MAX_DWELL_FACTOR: u64 = 8;

/// Rotation state of a node on a rotating schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Rotation {
    /// Index of the mode the node's UPC currently sits in.
    cur: usize,
    /// Phases spent in the current mode since entering it.
    phases_in_mode: u64,
    /// Phases to dwell before the next rotation (adapted per entry).
    dwell: u64,
    /// Harvested counter values, `[mode * 256 + slot]`, folded in at
    /// each rotation. Together with the live counters of the current
    /// mode this is a continuous, monotone per-event total.
    accum: Vec<u64>,
    /// Enabled phases spent in each mode (the sampling quanta).
    occupancy: [u64; NUM_MODES],
    /// Enabled job cycles spent in each mode — the reconstruction
    /// weights. Phases vary wildly in length, so scaling a mode's
    /// sampled counts by its share of *cycles* (not phases) is what
    /// makes the occupancy-weighted estimates track ground truth.
    cycle_occ: [u64; NUM_MODES],
    /// Unit-wide counter sum at the previous phase boundary.
    last_total: u64,
    /// Previous phase's delta of that sum (the derivative the phase
    /// detector compares against).
    last_delta: u64,
    /// Mean counts/phase observed in each mode's most recent dwell —
    /// the activity estimate that weights the next dwell in that mode.
    rate: [u64; NUM_MODES],
    /// Mean counts/phase of each sentinel slot per mode, used to re-arm
    /// thresholds so they fire on above-trend activity, not on every
    /// phase.
    sentinel_rate: [[u64; SENTINEL_SLOTS.len()]; NUM_MODES],
    /// Completed rotations.
    rotations: u64,
    /// Dwell extensions granted on threshold interrupts.
    irq_extends: u64,
    /// Rotations forced early by the derivative phase detector.
    early_rotates: u64,
    /// Threshold interrupts drained at phase boundaries.
    irq_drained: u64,
}

/// A threshold interrupt drained from a node at a phase boundary
/// (surfaced to the trace as `EventKind::ThresholdInterrupt`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainedInterrupt {
    /// Counter slot that crossed its threshold.
    pub slot: u8,
    /// Counter value when it fired.
    pub value: u64,
    /// The threshold it crossed.
    pub threshold: u64,
}

/// What one node did at one phase boundary (for trace emission).
#[derive(Clone, Debug, Default)]
pub struct MuxPhaseOutcome {
    /// Interrupts drained this phase, in slot-ascending raise order.
    pub interrupts: Vec<DrainedInterrupt>,
    /// `Some((from, to, dwell))` if the node rotated, with the dwell
    /// chosen for the new mode.
    pub rotated: Option<(CounterMode, CounterMode, u64)>,
}

/// A point-in-time reading of a node's schedule totals, taken by the
/// counter library at session start so a window's counts are the
/// difference between it and the schedule at stop (continuous across
/// rotations, see [`MuxState::close_window`]). The same shape
/// accumulates closed windows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MuxMark {
    /// Continuous per-event totals. A rotating schedule's cover every
    /// mode, `[mode * 256 + slot]`: harvested accumulator plus the live
    /// counters of the current mode. A one-mode schedule's are the 256
    /// live counters of its home mode. Empty when every total is zero:
    /// a mark taken right after `BGP_Initialize` cleared the unit, or an
    /// accumulator with no closed window yet.
    pub totals: Vec<u64>,
    /// Enabled phases spent in each mode so far (rotating schedules).
    pub occupancy: [u64; NUM_MODES],
    /// Enabled job cycles spent in each mode so far (rotating
    /// schedules), including the partial phase in flight at the mark.
    pub cycles: [u64; NUM_MODES],
}

impl MuxMark {
    /// Whether the totals cover every mode (a rotating schedule's).
    pub fn rotates(&self) -> bool {
        self.totals.len() == NUM_EVENTS
    }

    /// The 256 totals of `mode`. A one-mode mark holds only its home
    /// mode's block, so `mode` must be that home mode.
    pub fn block(&self, mode: CounterMode) -> &[u64] {
        let off = if self.rotates() { mode.index() * NUM_COUNTERS } else { 0 };
        &self.totals[off..off + NUM_COUNTERS]
    }
}

/// How many totals a schedule's marks hold: every mode's under rotation,
/// the home mode's otherwise.
fn schedule_width(rot: Option<&Rotation>) -> usize {
    if rot.is_some() {
        NUM_EVENTS
    } else {
        NUM_COUNTERS
    }
}

/// Continuous total `i` of a schedule whose UPC reads `live`: the live
/// counter for a one-mode schedule; under rotation the harvested
/// accumulator plus, in the current mode's block, the live counter.
fn schedule_total(rot: Option<&Rotation>, live: &[u64; NUM_COUNTERS], i: usize) -> u64 {
    match rot {
        None => live[i],
        Some(rot) if i / NUM_COUNTERS == rot.cur => {
            rot.accum[i].wrapping_add(live[i % NUM_COUNTERS])
        }
        Some(rot) => rot.accum[i],
    }
}

/// Fold one mode's 256 counter values into `[mode * 256 + slot]` totals.
fn fold_block(totals: &mut [u64], mode: usize, counts: &[u64; NUM_COUNTERS]) {
    let block = &mut totals[mode * NUM_COUNTERS..(mode + 1) * NUM_COUNTERS];
    for (t, &v) in block.iter_mut().zip(counts) {
        *t = t.wrapping_add(v);
    }
}

/// Aggregate schedule summary across all nodes (for `run.json` and
/// `bgpc-dump --json`: a dump should say how its numbers were gathered).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MuxSummary {
    /// Baseline dwell (phases) the job was configured with.
    pub base_dwell: u64,
    /// Total rotations across all nodes.
    pub rotations: u64,
    /// Total dwell extensions granted on threshold interrupts.
    pub irq_extends: u64,
    /// Total early rotations forced by the derivative phase detector.
    pub early_rotates: u64,
    /// Total threshold interrupts drained at phase boundaries.
    pub irq_drained: u64,
    /// Enabled phases spent in each mode, summed over nodes.
    pub occupancy: [u64; NUM_MODES],
    /// Enabled job cycles spent in each mode, summed over nodes.
    pub cycle_occupancy: [u64; NUM_MODES],
}

/// Whole-machine schedule state. Under a rotating policy every node has
/// a rotation under its own lock, so a mark never takes a machine-wide
/// lock; lock order is the node's lock, then its rotation's. One-mode
/// schedules hold nothing here and take no lock. A node's home mode is
/// not held here either: it is [`CounterPolicy::mode_for`] of the job's
/// policy.
#[derive(Debug)]
pub struct MuxState {
    /// Baseline dwell of the rotating schedules; 0 when none rotates.
    /// Every node rotates or none does.
    base_dwell: u64,
    /// Job clock at the previous phase boundary (cycle-occupancy
    /// attribution base; one clock serves every node). `Relaxed` is
    /// enough: it is written only at phase boundaries with every rank
    /// parked, and the phase engine's wake-up orders that write before
    /// any mark a rank takes next; it publishes no other data.
    last_cycle: AtomicU64,
    /// Each node's rotation state when the schedules rotate; empty for
    /// one-mode schedules, which hold no counter storage of their own.
    nodes: Vec<Mutex<Rotation>>,
}

impl MuxState {
    /// The schedules `policy` gives `n_nodes` nodes. Node `i`'s home
    /// mode is `policy.mode_for(i)`. Under `Multiplexed` node `i` starts
    /// in that mode and `(i / 4) mod base_dwell` phases into its first
    /// dwell: the two staggers combine to shift node `i`'s schedule by
    /// `(i mod 4)·dwell + (i / 4) mod dwell` phases, giving up to
    /// `4·dwell` distinct alignments across the partition.
    /// Decorrelating the schedule from the program's phase structure
    /// this way makes reconstruction error average out in cross-node
    /// sums instead of compounding.
    pub fn new(n_nodes: usize, policy: &CounterPolicy) -> MuxState {
        let base_dwell = match *policy {
            CounterPolicy::Multiplexed { base_dwell, .. } => u64::from(base_dwell).max(1),
            _ => 0,
        };
        let rotating = if base_dwell > 0 { n_nodes } else { 0 };
        let nodes = (0..rotating)
            .map(|i| {
                Mutex::new(Rotation {
                    cur: policy.mode_for(NodeId(i)).index(),
                    phases_in_mode: (i / NUM_MODES) as u64 % base_dwell,
                    dwell: base_dwell,
                    accum: vec![0; NUM_EVENTS],
                    ..Rotation::default()
                })
            })
            .collect();
        MuxState { base_dwell, last_cycle: AtomicU64::new(0), nodes }
    }

    /// Whether any node's schedule rotates. When none does, phase
    /// boundaries have nothing to do.
    pub(crate) fn rotates(&self) -> bool {
        self.base_dwell > 0
    }

    /// `node`'s rotation, locked; `None`, with no lock taken, when the
    /// schedules do not rotate.
    fn rotation(&self, node: usize) -> Option<MutexGuard<'_, Rotation>> {
        self.rotates().then(|| self.nodes[node].lock())
    }

    /// Arm the sentinel slots of a node's UPC if the schedules rotate:
    /// edge-sensitive, interrupt on threshold, no freeze (the counter
    /// keeps counting; the interrupt is a scheduling signal, not a stop
    /// condition). A one-mode schedule arms nothing.
    pub(crate) fn arm(&self, upc: &mut Upc) {
        if !self.rotates() {
            return;
        }
        let cfg = CounterConfig {
            interrupt_enable: true,
            freeze_on_threshold: false,
            ..CounterConfig::default()
        };
        for &slot in &SENTINEL_SLOTS {
            upc.configure(slot, cfg);
            upc.set_threshold(slot, SENTINEL_MIN_THRESHOLD);
        }
    }

    /// Advance the shared phase-boundary clock to `now` (the job clock,
    /// read while the machine is quiescent) and return the cycles
    /// elapsed since the previous boundary. Call once per phase, before
    /// the per-node [`MuxState::step_node`] sweep.
    pub fn advance_clock(&self, now: u64) -> u64 {
        now.saturating_sub(self.last_cycle.swap(now, Ordering::Relaxed))
    }

    /// One phase boundary for `node`'s UPC unit: drain interrupts,
    /// advance the phase detector, and rotate if the dwell is up or the
    /// derivative collapsed. A one-mode schedule does nothing. Must be
    /// called with the machine quiescent, in canonical node order.
    pub fn step_node(&self, node: usize, upc: &mut Upc, cycle_delta: u64) -> MuxPhaseOutcome {
        let base = self.base_dwell;
        let mut out = MuxPhaseOutcome::default();
        let Some(mut guard) = self.rotation(node) else { return out };
        let st = &mut *guard;

        // Drain threshold interrupts raised since the last boundary.
        // `Upc::pending` preserves raise order, which is deterministic
        // at phase granularity (counters advance in canonical rank
        // order within a node's quantum).
        for irq in upc.take_interrupts() {
            out.interrupts.push(DrainedInterrupt {
                slot: irq.slot,
                value: irq.value,
                threshold: irq.threshold,
            });
        }
        st.irq_drained += out.interrupts.len() as u64;

        let snap = upc.snapshot();
        let total: u64 = snap.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        let delta = total.wrapping_sub(st.last_total);
        let enabled = upc.enabled();
        if enabled {
            st.occupancy[st.cur] += 1;
            st.cycle_occ[st.cur] = st.cycle_occ[st.cur].saturating_add(cycle_delta);
        }
        st.phases_in_mode += 1;

        // A firing sentinel means this event set is hot: extend the
        // dwell (bounded) to sample it more densely.
        if !out.interrupts.is_empty() && st.dwell < base * MAX_DWELL_FACTOR {
            st.dwell += base;
            st.irq_extends += 1;
        }

        // Rotate when the dwell is up, or early when the unit-wide
        // derivative collapses to under half its previous value — the
        // workload changed phase, go re-survey the other event sets.
        let dwell_up = st.phases_in_mode >= st.dwell;
        let early = enabled
            && st.phases_in_mode >= base
            && st.last_delta > 0
            && delta.saturating_mul(2) < st.last_delta;
        if !(dwell_up || early) {
            st.last_total = total;
            st.last_delta = delta;
            return out;
        }
        if early && !dwell_up {
            st.early_rotates += 1;
        }

        // Harvest: counters were cleared on mode entry, so the snapshot
        // is exactly this dwell's contribution.
        fold_block(&mut st.accum, st.cur, &snap);
        let phases = st.phases_in_mode.max(1);
        st.rate[st.cur] = total / phases;
        for (k, &slot) in SENTINEL_SLOTS.iter().enumerate() {
            st.sentinel_rate[st.cur][k] = snap[slot as usize] / phases;
        }

        let from = CounterMode::from_index(st.cur).expect("mode index in range");
        st.cur = (st.cur + 1) % NUM_MODES;
        let to = CounterMode::from_index(st.cur).expect("mode index in range");
        upc.set_mode(to); // clears counters, fired latches and pending

        // Entry dwell is weighted by the mode's share of observed
        // activity: a mode whose counters moved fastest last time gets
        // up to 4x the base dwell.
        let rate_sum: u64 = st.rate.iter().sum();
        let weight = 1 + (st.rate[st.cur].saturating_mul(4) / rate_sum.max(1)).min(3);
        st.dwell = base * weight;

        // Re-arm sentinels at twice the extrapolated dwell volume so
        // they fire on above-trend activity, not every phase.
        for (k, &slot) in SENTINEL_SLOTS.iter().enumerate() {
            let th = st.sentinel_rate[st.cur][k]
                .saturating_mul(st.dwell)
                .saturating_mul(2)
                .max(SENTINEL_MIN_THRESHOLD);
            upc.set_threshold(slot, th);
        }

        st.phases_in_mode = 0;
        st.last_total = 0;
        st.last_delta = 0;
        st.rotations += 1;
        out.rotated = Some((from, to, st.dwell));
        out
    }

    /// A continuity mark for `node` whose UPC reads `upc`: the live
    /// counters, plus under rotation the harvested totals and the
    /// occupancy so far. The counter library takes one at session start
    /// and closes the window against it with [`MuxState::close_window`].
    /// A mark whose totals are all zero holds none.
    ///
    /// `node_clock` is the node's own cycle count at the mark (a
    /// deterministic quantity, unlike the job clock mid-phase): the
    /// in-flight partial phase `[last boundary, mark]` is attributed to
    /// the current mode in the returned copy, so mark differences carry
    /// exact per-mode cycle spans even when windows open or close
    /// mid-phase. Without it the closing partial phase's counts would
    /// enter the window with no weight, biasing reconstruction.
    pub fn mark(&self, node: usize, upc: &Upc, node_clock: u64) -> MuxMark {
        let live = upc.snapshot();
        let st = self.rotation(node);
        let rot = st.as_deref();
        let width = schedule_width(rot);
        let total = |i| schedule_total(rot, &live, i);
        let totals = if (0..width).all(|i| total(i) == 0) {
            Vec::new()
        } else {
            (0..width).map(total).collect()
        };
        let (occupancy, cycles) = self.occupancy_at(rot, node_clock);
        MuxMark { totals, occupancy, cycles }
    }

    /// Add the window from `start` (a [`MuxState::mark`] of `node`) to
    /// now into `window`, with no closing mark: counts wrap like the
    /// counters themselves, occupancy saturates. An empty `window` takes
    /// the schedule's shape. `upc` and `node_clock` are as for `mark`.
    pub fn close_window(
        &self,
        node: usize,
        upc: &Upc,
        node_clock: u64,
        start: &MuxMark,
        window: &mut MuxMark,
    ) {
        let live = upc.snapshot();
        let st = self.rotation(node);
        let rot = st.as_deref();
        if window.totals.is_empty() {
            window.totals = vec![0; schedule_width(rot)];
        }
        for (i, w) in window.totals.iter_mut().enumerate() {
            let from = start.totals.get(i).copied().unwrap_or(0);
            *w = w.wrapping_add(schedule_total(rot, &live, i).wrapping_sub(from));
        }
        let (occupancy, cycles) = self.occupancy_at(rot, node_clock);
        for m in 0..NUM_MODES {
            let occ = occupancy[m].saturating_sub(start.occupancy[m]);
            window.occupancy[m] = window.occupancy[m].saturating_add(occ);
            let cyc = cycles[m].saturating_sub(start.cycles[m]);
            window.cycles[m] = window.cycles[m].saturating_add(cyc);
        }
    }

    /// Enabled phases and cycles per mode as of `node_clock`, the
    /// in-flight partial phase attributed to the current mode (see
    /// [`MuxState::mark`]); zeros for a one-mode schedule.
    fn occupancy_at(
        &self,
        rot: Option<&Rotation>,
        node_clock: u64,
    ) -> ([u64; NUM_MODES], [u64; NUM_MODES]) {
        let Some(rot) = rot else { return ([0; NUM_MODES], [0; NUM_MODES]) };
        let mut cycles = rot.cycle_occ;
        let last = self.last_cycle.load(Ordering::Relaxed);
        cycles[rot.cur] = cycles[rot.cur].saturating_add(node_clock.saturating_sub(last));
        (rot.occupancy, cycles)
    }

    /// Aggregate schedule summary over all nodes, or `None` when no
    /// schedule rotates.
    pub fn summary(&self) -> Option<MuxSummary> {
        if !self.rotates() {
            return None;
        }
        let mut s = MuxSummary { base_dwell: self.base_dwell, ..MuxSummary::default() };
        for rot in &self.nodes {
            let rot = rot.lock();
            s.rotations += rot.rotations;
            s.irq_extends += rot.irq_extends;
            s.early_rotates += rot.early_rotates;
            s.irq_drained += rot.irq_drained;
            for m in 0..NUM_MODES {
                s.occupancy[m] += rot.occupancy[m];
                s.cycle_occupancy[m] += rot.cycle_occ[m];
            }
        }
        Some(s)
    }

    /// Serialize the complete state (checkpoint section `"mux"`).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        put_u64(out, self.base_dwell);
        put_u64(out, self.last_cycle.load(Ordering::Relaxed));
        put_u64(out, self.nodes.len() as u64);
        for rot in &self.nodes {
            let rot = rot.lock();
            put_u8(out, rot.cur as u8);
            put_u64(out, rot.phases_in_mode);
            put_u64(out, rot.dwell);
            let scalars = [
                rot.last_total,
                rot.last_delta,
                rot.rotations,
                rot.irq_extends,
                rot.early_rotates,
                rot.irq_drained,
            ];
            let words = rot.accum.iter().chain(&rot.occupancy).chain(&rot.cycle_occ);
            let words = words.chain(&rot.rate).chain(rot.sentinel_rate.iter().flatten());
            for &v in words.chain(&scalars) {
                put_u64(out, v);
            }
        }
    }

    /// Restore state saved by [`MuxState::save_state`]. Fails closed on
    /// any shape mismatch, including a base dwell or a count of rotating
    /// schedules other than this machine's; on error `self` is unchanged.
    pub fn restore_state(&self, r: &mut Reader<'_>) -> Result<()> {
        let base_dwell = r.u64("mux base dwell")?;
        let last_cycle = r.u64("mux last cycle")?;
        let n = r.u64("mux rotating schedule count")?;
        if n != self.nodes.len() as u64 || base_dwell != self.base_dwell {
            return Err(BgpError::corrupt(format!(
                "mux snapshot has {n} rotating schedules at base dwell {base_dwell}, \
                 machine has {} at {}",
                self.nodes.len(),
                self.base_dwell
            )));
        }
        let mut rotations = Vec::with_capacity(self.nodes.len());
        for _ in 0..n {
            let cur = r.u8("mux mode index")? as usize;
            if cur >= NUM_MODES {
                return Err(BgpError::corrupt(format!("mux mode index {cur} out of range")));
            }
            let phases_in_mode = r.u64("mux phases in mode")?;
            let dwell = r.u64("mux dwell")?;
            let mut accum = vec![0u64; NUM_EVENTS];
            let mut occupancy = [0u64; NUM_MODES];
            let mut cycle_occ = [0u64; NUM_MODES];
            let mut rate = [0u64; NUM_MODES];
            let mut sentinel_rate = [[0u64; SENTINEL_SLOTS.len()]; NUM_MODES];
            let words = accum.iter_mut().chain(&mut occupancy).chain(&mut cycle_occ);
            for v in words.chain(&mut rate).chain(sentinel_rate.iter_mut().flatten()) {
                *v = r.u64("mux schedule counters")?;
            }
            rotations.push(Rotation {
                cur,
                phases_in_mode,
                dwell,
                accum,
                occupancy,
                cycle_occ,
                last_total: r.u64("mux last total")?,
                last_delta: r.u64("mux last delta")?,
                rate,
                sentinel_rate,
                rotations: r.u64("mux rotations")?,
                irq_extends: r.u64("mux irq extends")?,
                early_rotates: r.u64("mux early rotates")?,
                irq_drained: r.u64("mux irq drained")?,
            });
        }
        self.last_cycle.store(last_cycle, Ordering::Relaxed);
        for (slot, rot) in self.nodes.iter().zip(rotations) {
            *slot.lock() = rot;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::EventId;

    fn rotating(n_nodes: usize, first: CounterMode, base_dwell: u32) -> MuxState {
        MuxState::new(n_nodes, &CounterPolicy::Multiplexed { first, base_dwell })
    }

    /// Node 0's UPC in its home mode `home`, armed for its schedule and
    /// counting.
    fn hot_upc(mux: &MuxState, home: CounterMode) -> Upc {
        let mut upc = Upc::new(home);
        mux.arm(&mut upc);
        upc.set_enabled(true);
        upc
    }

    fn saved(mux: &MuxState) -> Vec<u8> {
        let mut bytes = Vec::new();
        mux.save_state(&mut bytes);
        bytes
    }

    #[test]
    fn one_mode_schedule_never_rotates_and_marks_live_counters() {
        let policy = CounterPolicy::EvenOdd { even: CounterMode::Mode2, odd: CounterMode::Mode1 };
        let mux = MuxState::new(2, &policy);
        assert!(!mux.rotates());
        let mut upc = hot_upc(&mux, CounterMode::Mode2);
        assert!(!upc.config(SENTINEL_SLOTS[0]).interrupt_enable, "no sentinels armed");
        let ev = EventId::new(CounterMode::Mode2, 7);
        upc.emit(ev, 5000);
        let start = mux.mark(0, &upc, 0);
        upc.emit(ev, 40);
        for _ in 0..64 {
            let out = mux.step_node(0, &mut upc, 100);
            assert!(out.rotated.is_none() && out.interrupts.is_empty());
        }
        let mut window = MuxMark::default();
        mux.close_window(0, &upc, 6400, &start, &mut window);
        assert!(!window.rotates());
        assert_eq!(window.totals.len(), NUM_COUNTERS, "one 256-slot block, no more");
        assert_eq!(window.block(CounterMode::Mode2)[7], 40);
        assert_eq!(window.occupancy, [0; NUM_MODES]);
        assert!(mux.summary().is_none());
        assert_eq!(saved(&mux).len(), 24, "base dwell, clock and a zero count: nothing per node");
    }

    #[test]
    fn dwell_rotates_through_all_four_modes() {
        let mux = rotating(1, CounterMode::Mode0, 2);
        let mut upc = hot_upc(&mux, CounterMode::Mode0);
        let mut seen = vec![CounterMode::Mode0];
        for _ in 0..16 {
            if let Some((_, to, _)) = mux.step_node(0, &mut upc, 100).rotated {
                assert_eq!(upc.mode(), to);
                seen.push(to);
            }
        }
        assert!(seen.contains(&CounterMode::Mode1));
        assert!(seen.contains(&CounterMode::Mode2));
        assert!(seen.contains(&CounterMode::Mode3));
        assert_eq!(mux.summary().unwrap().rotations, seen.len() as u64 - 1);
    }

    #[test]
    fn sentinel_interrupt_extends_the_dwell() {
        let mux = rotating(1, CounterMode::Mode0, 4);
        let mut upc = hot_upc(&mux, CounterMode::Mode0);
        // Drive the slot-2 sentinel (core 0 event at slot 2 in mode 0)
        // past its floor threshold in the first phase.
        upc.emit(EventId::new(CounterMode::Mode0, 2), SENTINEL_MIN_THRESHOLD);
        let out = mux.step_node(0, &mut upc, 100);
        assert_eq!(out.interrupts.len(), 1);
        assert_eq!(out.interrupts[0].slot, 2);
        let s = mux.summary().unwrap();
        assert_eq!(s.irq_extends, 1);
        assert_eq!(s.irq_drained, 1);
        // Dwell extended 4 -> 8: quiet phases 2..8 must not rotate.
        for _ in 1..7 {
            assert!(mux.step_node(0, &mut upc, 100).rotated.is_none());
        }
        assert!(mux.step_node(0, &mut upc, 100).rotated.is_some());
    }

    #[test]
    fn derivative_collapse_rotates_early() {
        let mux = rotating(1, CounterMode::Mode0, 2);
        let mut upc = hot_upc(&mux, CounterMode::Mode0);
        // Slot 2 is a sentinel: the first phase fires its threshold and
        // extends the dwell 2 -> 4, opening the window where the
        // derivative detector can beat the dwell timer.
        let ev = EventId::new(CounterMode::Mode0, 2);
        upc.emit(ev, 2000);
        assert!(mux.step_node(0, &mut upc, 100).rotated.is_none()); // delta 2000
        upc.emit(ev, 2000);
        assert!(mux.step_node(0, &mut upc, 100).rotated.is_none()); // delta 2000
        // Third phase: one short of the extended dwell, but the delta
        // collapses 2000 -> 100, so the phase detector rotates early.
        upc.emit(ev, 100);
        let out = mux.step_node(0, &mut upc, 100);
        assert!(out.rotated.is_some());
        assert_eq!(mux.summary().unwrap().early_rotates, 1);
    }

    #[test]
    fn marks_are_continuous_across_rotations() {
        let mux = rotating(1, CounterMode::Mode0, 1);
        let mut upc = hot_upc(&mux, CounterMode::Mode0);
        let ev = EventId::new(CounterMode::Mode0, 7);
        let start = mux.mark(0, &upc, 0);
        assert!(start.totals.is_empty(), "an all-zero mark holds no totals");
        upc.emit(ev, 500);
        let delta = mux.advance_clock(100);
        mux.step_node(0, &mut upc, delta); // rotates out of mode 0, harvesting 500
        upc.emit(ev, 999); // mode 1 now: not wired, not counted
        let mut w = MuxMark::default();
        mux.close_window(0, &upc, 100, &start, &mut w);
        assert!(w.rotates());
        assert_eq!(w.totals[ev.index()], 500);
        assert_eq!(w.block(CounterMode::Mode0)[7], 500);
        assert_eq!(w.occupancy[0], 1);
        assert_eq!(w.cycles[0], 100, "the boundary's cycle span lands on mode 0");
        assert_eq!(w.cycles[1], 0, "no cycles past the boundary: nothing to attribute");

        // A stop mark taken mid-phase attributes the in-flight partial
        // phase to the current mode — counts entering the window always
        // carry weight.
        let mut w = MuxMark::default();
        mux.close_window(0, &upc, 160, &start, &mut w);
        assert_eq!(w.cycles[1], 60, "partial phase lands on the occupied mode");
    }

    #[test]
    fn state_round_trips_and_fails_closed_when_truncated() {
        let mux = rotating(2, CounterMode::Mode1, 3);
        let mut upc = hot_upc(&mux, CounterMode::Mode1);
        for _ in 0..10 {
            upc.emit(EventId::new(upc.mode(), 4), 2000);
            mux.advance_clock(mux.last_cycle.load(Ordering::Relaxed) + 100);
            mux.step_node(0, &mut upc, 100);
            mux.step_node(1, &mut upc, 100);
        }
        let bytes = saved(&mux);
        let other = rotating(2, CounterMode::Mode1, 3);
        let mut r = Reader::new(&bytes);
        other.restore_state(&mut r).unwrap();
        r.expect_end("mux state").unwrap();
        assert_eq!(saved(&other), bytes);
        for cut in [0, 1, 9, bytes.len() / 2, bytes.len() - 1] {
            let victim = rotating(2, CounterMode::Mode1, 3);
            let before = saved(&victim);
            assert!(
                victim.restore_state(&mut Reader::new(&bytes[..cut])).is_err(),
                "cut at {cut} must fail"
            );
            assert_eq!(saved(&victim), before, "failed restore must not partially apply");
        }
        // Schedules that rotate never restore into one-mode ones.
        let fixed = MuxState::new(2, &CounterPolicy::Fixed(CounterMode::Mode1));
        assert!(fixed.restore_state(&mut Reader::new(&bytes)).is_err());
        let one_mode = saved(&fixed);
        fixed.restore_state(&mut Reader::new(&one_mode)).unwrap();
        assert_eq!(saved(&fixed), one_mode);
    }
}
