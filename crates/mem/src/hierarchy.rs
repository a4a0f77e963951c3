//! The assembled per-node **memory system**: four private L1-D/L1-I pairs,
//! four private prefetching L2s, the shared banked L3, the snoop filters
//! (behind a per-region holder mask), and the two DDR2 controllers.
//!
//! Every data access of a core funnels through
//! [`MemorySystem::access_batch`], which walks the hierarchy for a whole
//! slice of accesses at once, keeps all cache state coherent, reports
//! every microarchitectural event to the node's UPC unit, and returns the
//! stall cycles the core must charge. The batch walk collapses runs of
//! accesses to the same L1 line (the common stride-1 case) into one
//! hierarchy walk plus `k` guaranteed L1 hits, and coalesces *all* UPC
//! counter traffic of the batch into one `emit(n)` per event kind (see
//! `WalkCounts`). The scalar
//! [`MemorySystem::access`] survives as a one-element batch for callers
//! that genuinely have one access.

use crate::cache::Cache;
use crate::ddr::DdrController;
use crate::prefetch::{PrefetchDecision, StreamPrefetcher};
use bgp_arch::events::{CoreEvent, SharedEvent};
use bgp_arch::{MachineConfig, CORES_PER_NODE, L1_LINE_BYTES, LINE_BYTES};
use bgp_upc::Upc;

const L1_SHIFT: u32 = L1_LINE_BYTES.trailing_zeros();
const L2_SHIFT: u32 = LINE_BYTES.trailing_zeros();
/// 128-byte lines hold four 32-byte L1 lines.
const SUBLINES: u64 = (LINE_BYTES / L1_LINE_BYTES) as u64;
/// The region snoop filter splits node memory into this many equal
/// regions: one per process partition in VNM.
const REGIONS: usize = 4;
/// Holder mask naming every core.
const ALL_CORES: u8 = (1 << CORES_PER_NODE) - 1;

/// The snoop-filter region of `l2_line`. Lines past the end of node
/// memory fold into the last region, which keeps the filter exact.
#[inline]
fn region(shift: u32, l2_line: u64) -> usize {
    ((l2_line >> shift) as usize).min(REGIONS - 1)
}

/// Where in the hierarchy a demand access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// Private L2, on a line brought in by the stream prefetcher.
    L2Prefetch,
    /// Shared L3.
    L3,
    /// Off-chip DDR.
    Ddr,
}

/// Result of one demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Stall cycles charged to the issuing core.
    pub stall: u64,
    /// Satisfying level.
    pub level: HitLevel,
}

/// One element of an access batch: a demand **data** access of ≤ 32
/// bytes at a node-physical address. Accesses must not straddle an L1
/// line; the execution layer splits larger transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Node-physical byte address.
    pub addr: u64,
    /// Store (`true`) or load (`false`).
    pub write: bool,
}

/// Ground-truth counters kept alongside the UPC unit.
///
/// The UPC only observes the events of its active counter mode; the
/// simulator additionally tracks everything here so tests can validate
/// UPC readings against reality and experiments that need cross-mode data
/// in a single run have a (clearly non-hardware) escape hatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1-D hits.
    pub l1d_hits: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// L1-D dirty evictions.
    pub l1d_writebacks: u64,
    /// L2 demand hits.
    pub l2_hits: u64,
    /// L2 demand hits on prefetched lines (first use).
    pub l2_prefetch_hits: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// Prefetch requests issued by the L2 stream engines.
    pub l2_prefetches_issued: u64,
    /// L3 demand+prefetch read hits.
    pub l3_hits: u64,
    /// L3 read misses.
    pub l3_misses: u64,
    /// L3 dirty evictions to DDR.
    pub l3_writebacks: u64,
    /// DDR read bursts.
    pub ddr_reads: u64,
    /// DDR write bursts.
    pub ddr_writes: u64,
    /// DDR requests that queued behind another core.
    pub ddr_conflicts: u64,
    /// L1-I hits.
    pub l1i_hits: u64,
    /// L1-I misses.
    pub l1i_misses: u64,
}

impl MemStats {
    /// Total bytes moved between L3 and DDR (the paper's "L3-DDR traffic"
    /// metric): line-sized read plus write bursts.
    pub fn ddr_traffic_bytes(&self) -> u64 {
        (self.ddr_reads + self.ddr_writes) * LINE_BYTES as u64
    }

    /// Demand data accesses observed at L1.
    pub fn total_accesses(&self) -> u64 {
        self.l1d_hits + self.l1d_misses
    }

    /// Field-wise difference `self - since` (wrapping), for windowed
    /// sampling over the monotonically growing totals.
    pub fn delta(&self, since: &MemStats) -> MemStats {
        MemStats {
            l1d_hits: self.l1d_hits.wrapping_sub(since.l1d_hits),
            l1d_misses: self.l1d_misses.wrapping_sub(since.l1d_misses),
            l1d_writebacks: self.l1d_writebacks.wrapping_sub(since.l1d_writebacks),
            l2_hits: self.l2_hits.wrapping_sub(since.l2_hits),
            l2_prefetch_hits: self.l2_prefetch_hits.wrapping_sub(since.l2_prefetch_hits),
            l2_misses: self.l2_misses.wrapping_sub(since.l2_misses),
            l2_prefetches_issued: self
                .l2_prefetches_issued
                .wrapping_sub(since.l2_prefetches_issued),
            l3_hits: self.l3_hits.wrapping_sub(since.l3_hits),
            l3_misses: self.l3_misses.wrapping_sub(since.l3_misses),
            l3_writebacks: self.l3_writebacks.wrapping_sub(since.l3_writebacks),
            ddr_reads: self.ddr_reads.wrapping_sub(since.ddr_reads),
            ddr_writes: self.ddr_writes.wrapping_sub(since.ddr_writes),
            ddr_conflicts: self.ddr_conflicts.wrapping_sub(since.ddr_conflicts),
            l1i_hits: self.l1i_hits.wrapping_sub(since.l1i_hits),
            l1i_misses: self.l1i_misses.wrapping_sub(since.l1i_misses),
        }
    }

    /// Serialize the counters (checkpoint support).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        for v in [
            self.l1d_hits,
            self.l1d_misses,
            self.l1d_writebacks,
            self.l2_hits,
            self.l2_prefetch_hits,
            self.l2_misses,
            self.l2_prefetches_issued,
            self.l3_hits,
            self.l3_misses,
            self.l3_writebacks,
            self.ddr_reads,
            self.ddr_writes,
            self.ddr_conflicts,
            self.l1i_hits,
            self.l1i_misses,
        ] {
            bgp_arch::wire::put_u64(out, v);
        }
    }

    /// Restore counters previously written by [`MemStats::save_state`].
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input.
    pub fn restore_state(
        &mut self,
        r: &mut bgp_arch::wire::Reader<'_>,
    ) -> bgp_arch::error::Result<()> {
        self.l1d_hits = r.u64("l1d hits")?;
        self.l1d_misses = r.u64("l1d misses")?;
        self.l1d_writebacks = r.u64("l1d writebacks")?;
        self.l2_hits = r.u64("l2 hits")?;
        self.l2_prefetch_hits = r.u64("l2 prefetch hits")?;
        self.l2_misses = r.u64("l2 misses")?;
        self.l2_prefetches_issued = r.u64("l2 prefetches issued")?;
        self.l3_hits = r.u64("l3 hits")?;
        self.l3_misses = r.u64("l3 misses")?;
        self.l3_writebacks = r.u64("l3 writebacks")?;
        self.ddr_reads = r.u64("ddr reads")?;
        self.ddr_writes = r.u64("ddr writes")?;
        self.ddr_conflicts = r.u64("ddr conflicts")?;
        self.l1i_hits = r.u64("l1i hits")?;
        self.l1i_misses = r.u64("l1i misses")?;
        Ok(())
    }
}

/// The complete memory system of one node.
pub struct MemorySystem {
    /// L2-hit latency (cycles), also charged for an L1-I miss.
    lat_l2: u64,
    /// L3-hit latency (cycles).
    lat_l3: u64,
    l1d: [Cache; CORES_PER_NODE],
    l1i: [Cache; CORES_PER_NODE],
    l2: [Cache; CORES_PER_NODE],
    pf: [StreamPrefetcher; CORES_PER_NODE],
    /// L3 banks; empty when the configuration disables the L3.
    l3: Vec<Cache>,
    ddr: Vec<DdrController>,
    stats: MemStats,
    /// Monotonic demand-access counter: the time base of the DDR
    /// contention model's activity horizon.
    access_clock: u64,
    /// Reusable prefetch-decision buffer so the L2 hit/miss paths never
    /// heap-allocate.
    pf_scratch: PrefetchDecision,
    /// Region snoop filter: bit `c` of `holders[r]` is set once core
    /// `c`'s private L1-D or L2 has received a line of memory region
    /// `r`. Bits are never cleared, so a clear bit proves the core holds
    /// no line of the region. Derived state: never serialized, rebuilt
    /// from the caches on restore.
    holders: [u8; REGIONS],
    /// Right shift taking an L2 line to its region; `None` when a region
    /// (a quarter of `memory_bytes`) is not a power of two, and every
    /// snoop probes every peer.
    region_shift: Option<u32>,
}

/// Per-batch accumulator of every UPC-visible event a batch walk
/// produces. Events are counted here as the walk runs and emitted once,
/// at the end of the batch, in a fixed canonical order.
///
/// This is exact, not approximate: [`Upc::bump`] is linear in the delta
/// (a wrapping/saturating add per observing counter), so `emit(ev, n)`
/// leaves every final counter value identical to `n` separate
/// `emit(ev, 1)` calls, and within-batch emission *order* is
/// unobservable because counter windows are sampled only at quantum
/// boundaries — which are always batch boundaries.
#[derive(Default)]
struct WalkCounts {
    l1d_hit: u64,
    l1d_miss: u64,
    l1d_writeback: u64,
    l2_hit: u64,
    l2_prefetch_hit: u64,
    l2_miss: u64,
    l2_stream_alloc: u64,
    l2_prefetch_issued: u64,
    /// Shared events, folded onto the two architected event lines by
    /// bank parity (index `bank & 1`): configurations with more than two
    /// banks fold even banks onto line 0 and odd banks onto line 1.
    l3_hit: [u64; 2],
    l3_miss: [u64; 2],
    l3_alloc: [u64; 2],
    l3_writeback: [u64; 2],
    ddr_read: [u64; 2],
    ddr_write: [u64; 2],
    ddr_conflict: [u64; 2],
    snoop_req: u64,
    snoop_inval: u64,
    snoop_filtered: u64,
}

impl WalkCounts {
    /// Emit every non-zero count to the UPC, core events first, then the
    /// shared (node-wide) events.
    fn flush(&self, core: usize, upc: &mut Upc) {
        let core_events = [
            (CoreEvent::L1dHit, self.l1d_hit),
            (CoreEvent::L1dMiss, self.l1d_miss),
            (CoreEvent::L1dWriteback, self.l1d_writeback),
            (CoreEvent::L2Hit, self.l2_hit),
            (CoreEvent::L2PrefetchHit, self.l2_prefetch_hit),
            (CoreEvent::L2Miss, self.l2_miss),
            (CoreEvent::L2StreamAlloc, self.l2_stream_alloc),
            (CoreEvent::L2PrefetchIssued, self.l2_prefetch_issued),
        ];
        for (ev, n) in core_events {
            if n > 0 {
                upc.emit(ev.id(core), n);
            }
        }
        let shared_events = [
            (SharedEvent::L3Hit0, SharedEvent::L3Hit1, self.l3_hit),
            (SharedEvent::L3Miss0, SharedEvent::L3Miss1, self.l3_miss),
            (SharedEvent::L3Alloc0, SharedEvent::L3Alloc1, self.l3_alloc),
            (
                SharedEvent::L3Writeback0,
                SharedEvent::L3Writeback1,
                self.l3_writeback,
            ),
            (SharedEvent::DdrRead0, SharedEvent::DdrRead1, self.ddr_read),
            (
                SharedEvent::DdrWrite0,
                SharedEvent::DdrWrite1,
                self.ddr_write,
            ),
            (
                SharedEvent::DdrConflict0,
                SharedEvent::DdrConflict1,
                self.ddr_conflict,
            ),
        ];
        for (ev0, ev1, n) in shared_events {
            if n[0] > 0 {
                upc.emit(ev0.id(), n[0]);
            }
            if n[1] > 0 {
                upc.emit(ev1.id(), n[1]);
            }
        }
        for (ev, n) in [
            (SharedEvent::SnoopReq, self.snoop_req),
            (SharedEvent::SnoopInval, self.snoop_inval),
            (SharedEvent::SnoopFiltered, self.snoop_filtered),
        ] {
            if n > 0 {
                upc.emit(ev.id(), n);
            }
        }
    }
}

impl MemorySystem {
    /// Build the memory system for one node.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(cfg: &MachineConfig) -> MemorySystem {
        cfg.validate().expect("invalid machine configuration");
        let l3 = if cfg.l3_bytes == 0 {
            Vec::new()
        } else {
            (0..cfg.l3_banks)
                .map(|_| Cache::unfiltered(cfg.l3_sets_per_bank(), cfg.l3_ways))
                .collect()
        };
        let region_bytes = cfg.memory_bytes / REGIONS as u64;
        let region_shift = (cfg.memory_bytes.is_multiple_of(REGIONS as u64)
            && region_bytes.is_power_of_two()
            && region_bytes >= LINE_BYTES as u64)
            .then(|| region_bytes.trailing_zeros() - L2_SHIFT);
        MemorySystem {
            l1d: std::array::from_fn(|_| Cache::new(cfg.l1_sets(), cfg.l1_ways)),
            l1i: std::array::from_fn(|_| Cache::new(cfg.l1_sets(), cfg.l1_ways)),
            l2: std::array::from_fn(|_| Cache::new(cfg.l2_sets(), cfg.l2_ways)),
            pf: std::array::from_fn(|_| {
                StreamPrefetcher::new(cfg.l2_streams, cfg.l2_prefetch_depth)
            }),
            l3,
            ddr: (0..cfg.l3_banks)
                .map(|_| DdrController::new(cfg.lat_ddr, cfg.lat_ddr_conflict))
                .collect(),
            lat_l2: cfg.lat_l2,
            lat_l3: cfg.lat_l3,
            stats: MemStats::default(),
            access_clock: 0,
            pf_scratch: PrefetchDecision::default(),
            holders: [0; REGIONS],
            region_shift,
        }
    }

    /// The cores that may hold a copy of `l2_line` in a private cache.
    #[inline]
    fn holders_of(&self, l2_line: u64) -> u8 {
        match self.region_shift {
            Some(shift) => self.holders[region(shift, l2_line)],
            None => ALL_CORES,
        }
    }

    /// Record that `core`'s L1-D or L2 received a line of `l2_line`'s
    /// region.
    #[inline]
    fn note_holder(&mut self, core: usize, l2_line: u64) {
        if let Some(shift) = self.region_shift {
            self.holders[region(shift, l2_line)] |= 1 << core;
        }
    }

    /// Ground-truth statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// One demand **data** access of `size` ≤ 32 bytes at `addr`
    /// (node-physical) by `core` — a one-element [`MemAccess`] batch.
    /// Callers with more than one access in hand should prefer
    /// [`MemorySystem::access_batch`], which amortizes the walk.
    pub fn access(&mut self, core: usize, addr: u64, write: bool, upc: &mut Upc) -> Outcome {
        let mut outcome = Outcome {
            stall: 0,
            level: HitLevel::L1,
        };
        self.batch_walk(core, &[MemAccess { addr, write }], upc, &mut |o| {
            outcome = o
        });
        outcome
    }

    /// Walk the hierarchy for a whole slice of accesses by `core`,
    /// in order, and return the total stall cycles of the batch.
    ///
    /// Equivalent to calling [`MemorySystem::access`] per element and
    /// summing the stalls — the differential tests pin that equivalence —
    /// but runs of consecutive accesses to the same L1 line take one
    /// hierarchy walk plus `k` guaranteed L1 hits, and the L1-hit counter
    /// is emitted once per batch instead of once per hit.
    pub fn access_batch(&mut self, core: usize, batch: &[MemAccess], upc: &mut Upc) -> u64 {
        self.batch_walk(core, batch, upc, &mut |_| {})
    }

    /// [`MemorySystem::access_batch`], additionally pushing every
    /// access's [`Outcome`] (in batch order) into `out` — the validation
    /// surface of the differential tests.
    pub fn access_batch_outcomes(
        &mut self,
        core: usize,
        batch: &[MemAccess],
        upc: &mut Upc,
        out: &mut Vec<Outcome>,
    ) -> u64 {
        self.batch_walk(core, batch, upc, &mut |o| out.push(o))
    }

    /// The batch engine behind all demand-access entry points.
    ///
    /// Invariant maintained for the DDR contention model: before the
    /// access at batch index `i` reaches any controller, `access_clock`
    /// equals its pre-batch value plus `i + 1` — exactly the clock the
    /// scalar walk would present.
    fn batch_walk(
        &mut self,
        core: usize,
        batch: &[MemAccess],
        upc: &mut Upc,
        sink: &mut impl FnMut(Outcome),
    ) -> u64 {
        let mut total_stall = 0u64;
        let mut wc = WalkCounts::default();
        let mut i = 0;
        while i < batch.len() {
            let a = batch[i];
            let l1_line = a.addr >> L1_SHIFT;
            // Lookahead: an uninterrupted run of accesses to the same L1
            // line. After the head access the line is resident and cannot
            // be evicted before the run ends (only this core touches the
            // caches within a batch), so the tail accesses are L1 hits by
            // construction and skip the probe entirely. Skipping their
            // LRU stamp refreshes is behavior-preserving: consecutive
            // touches of one line leave every relative stamp order, and
            // therefore every future victim choice, unchanged.
            let mut run = 0usize;
            let mut tail_write = false;
            for b in &batch[i + 1..] {
                if b.addr >> L1_SHIFT != l1_line {
                    break;
                }
                tail_write |= b.write;
                run += 1;
            }
            let j = i + 1 + run;

            // Head access: the full walk.
            self.access_clock += 1;
            let h = self.l1d[core].access(l1_line, a.write);
            if h.hit {
                self.stats.l1d_hits += 1;
                wc.l1d_hit += 1;
                sink(Outcome {
                    stall: 0,
                    level: HitLevel::L1,
                });
            } else {
                self.stats.l1d_misses += 1;
                wc.l1d_miss += 1;

                let l2_line = a.addr >> L2_SHIFT;
                let (stall, level) = self.fetch_l2(core, l2_line, a.write, &mut wc);

                // Refill the L1; a dirty victim is pushed down the
                // hierarchy through the write-back buffer (uncharged).
                self.note_holder(core, l2_line);
                if let Some(ev) = self.l1d[core].fill_absent(l1_line, a.write, false) {
                    if ev.dirty {
                        self.stats.l1d_writebacks += 1;
                        wc.l1d_writeback += 1;
                        let victim_l2_line = ev.line / SUBLINES;
                        if !self.l2[core].mark_dirty(victim_l2_line) {
                            self.l3_write(core, victim_l2_line, &mut wc);
                        }
                    }
                }
                total_stall += stall;
                sink(Outcome { stall, level });
            }

            // Tail of the run: guaranteed L1 hits, memoized.
            if j > i + 1 {
                let k = (j - i - 1) as u64;
                self.access_clock += k;
                self.stats.l1d_hits += k;
                wc.l1d_hit += k;
                if tail_write {
                    self.l1d[core].mark_dirty(l1_line);
                }
                for _ in 0..k {
                    sink(Outcome {
                        stall: 0,
                        level: HitLevel::L1,
                    });
                }
            }
            i = j;
        }
        wc.flush(core, upc);
        total_stall
    }

    /// One instruction fetch by `core` at instruction address `iaddr`.
    ///
    /// The instruction path is modeled only through the L1-I: kernels'
    /// code footprints are loop-resident, so an L1-I miss is charged a
    /// flat L2-hit latency without disturbing L2/L3 state.
    pub fn ifetch(&mut self, core: usize, iaddr: u64, upc: &mut Upc) -> u64 {
        let line = iaddr >> L1_SHIFT;
        if self.l1i[core].access(line, false).hit {
            self.stats.l1i_hits += 1;
            upc.emit(CoreEvent::L1iHit.id(core), 1);
            0
        } else {
            self.stats.l1i_misses += 1;
            upc.emit(CoreEvent::L1iMiss.id(core), 1);
            self.l1i[core].fill_absent(line, false, false);
            self.lat_l2
        }
    }

    /// Record `n` guaranteed L1-I hits in bulk, without touching cache
    /// state. The node uses this once its loop-resident code footprint is
    /// fully resident in an L1-I large enough to hold it: from then on
    /// every fetch hits regardless of LRU order (nothing else ever
    /// allocates into the L1-I), so per-fetch probes and stamp refreshes
    /// are pure overhead.
    pub fn ifetch_hits(&mut self, core: usize, n: u64, upc: &mut Upc) {
        if n == 0 {
            return;
        }
        self.stats.l1i_hits += n;
        upc.emit(CoreEvent::L1iHit.id(core), n);
    }

    fn fetch_l2(
        &mut self,
        core: usize,
        line: u64,
        write_intent: bool,
        wc: &mut WalkCounts,
    ) -> (u64, HitLevel) {
        let h = self.l2[core].access(line, false);
        if h.hit {
            self.stats.l2_hits += 1;
            wc.l2_hit += 1;
            let level = if h.first_prefetch_use {
                self.stats.l2_prefetch_hits += 1;
                wc.l2_prefetch_hit += 1;
                HitLevel::L2Prefetch
            } else {
                HitLevel::L2
            };
            let mut d = std::mem::take(&mut self.pf_scratch);
            self.pf[core].on_hit_into(line, &mut d);
            self.issue_prefetches(core, &d.prefetch_lines, wc);
            self.pf_scratch = d;
            return (self.lat_l2, level);
        }
        self.stats.l2_misses += 1;
        wc.l2_miss += 1;
        self.snoop(core, line, write_intent, wc);

        let mut d = std::mem::take(&mut self.pf_scratch);
        self.pf[core].on_miss_into(line, &mut d);
        if d.allocated_stream {
            wc.l2_stream_alloc += 1;
        }

        let (stall, from_ddr) = self.l3_fetch(core, line, wc);
        self.fill_l2(core, line, false, wc);
        self.issue_prefetches(core, &d.prefetch_lines, wc);
        self.pf_scratch = d;
        (
            stall,
            if from_ddr {
                HitLevel::Ddr
            } else {
                HitLevel::L3
            },
        )
    }

    fn issue_prefetches(&mut self, core: usize, lines: &[u64], wc: &mut WalkCounts) {
        for &pl in lines {
            if self.l2[core].contains(pl) {
                continue;
            }
            self.stats.l2_prefetches_issued += 1;
            wc.l2_prefetch_issued += 1;
            // Prefetch latency is asynchronous: traffic counts, no stall.
            let _ = self.l3_fetch(core, pl, wc);
            self.fill_l2(core, pl, true, wc);
        }
    }

    /// Install absent `line` in `core`'s L2 (a demand miss or a
    /// prefetch), writing a dirty victim back to the L3.
    fn fill_l2(&mut self, core: usize, line: u64, prefetched: bool, wc: &mut WalkCounts) {
        self.note_holder(core, line);
        if let Some(ev) = self.l2[core].fill_absent(line, false, prefetched) {
            if ev.dirty {
                self.l3_write(core, ev.line, wc);
            }
        }
    }

    /// Fetch a 128-byte line toward the L2; returns (stall, came-from-DDR).
    fn l3_fetch(&mut self, core: usize, line: u64, wc: &mut WalkCounts) -> (u64, bool) {
        if self.l3.is_empty() {
            let bank = (line % self.ddr.len() as u64) as usize;
            return (self.ddr_read(core, bank, wc), true);
        }
        let banks = self.l3.len() as u64;
        let bank = (line % banks) as usize;
        let bline = line / banks;
        if self.l3[bank].access(bline, false).hit {
            self.stats.l3_hits += 1;
            wc.l3_hit[bank & 1] += 1;
            return (self.lat_l3, false);
        }
        self.stats.l3_misses += 1;
        wc.l3_miss[bank & 1] += 1;
        let stall = self.ddr_read(core, bank, wc);
        self.l3_install(core, bank, bline, false, wc);
        (stall, true)
    }

    /// A full-line write-back arriving at the L3 from a private cache.
    fn l3_write(&mut self, core: usize, line: u64, wc: &mut WalkCounts) {
        if self.l3.is_empty() {
            let bank = (line % self.ddr.len() as u64) as usize;
            self.ddr_write(core, bank, wc);
            return;
        }
        let banks = self.l3.len() as u64;
        let bank = (line % banks) as usize;
        let bline = line / banks;
        if self.l3[bank].mark_dirty(bline) {
            return;
        }
        // Write-allocate; a full-line write needs no DDR fetch.
        self.l3_install(core, bank, bline, true, wc);
    }

    fn l3_install(
        &mut self,
        core: usize,
        bank: usize,
        bline: u64,
        dirty: bool,
        wc: &mut WalkCounts,
    ) {
        wc.l3_alloc[bank & 1] += 1;
        if let Some(ev) = self.l3[bank].fill_absent(bline, dirty, false) {
            if ev.dirty {
                self.stats.l3_writebacks += 1;
                wc.l3_writeback[bank & 1] += 1;
                self.ddr_write(core, bank, wc);
            }
        }
    }

    fn ddr_read(&mut self, core: usize, bank: usize, wc: &mut WalkCounts) -> u64 {
        let a = self.ddr[bank].access(core, false, self.access_clock);
        self.stats.ddr_reads += 1;
        wc.ddr_read[bank & 1] += 1;
        if a.conflicts > 0 {
            self.stats.ddr_conflicts += a.conflicts;
            wc.ddr_conflict[bank & 1] += a.conflicts;
        }
        a.latency
    }

    fn ddr_write(&mut self, core: usize, bank: usize, wc: &mut WalkCounts) {
        let a = self.ddr[bank].access(core, true, self.access_clock);
        self.stats.ddr_writes += 1;
        wc.ddr_write[bank & 1] += 1;
        if a.conflicts > 0 {
            self.stats.ddr_conflicts += a.conflicts;
            wc.ddr_conflict[bank & 1] += a.conflicts;
        }
    }

    /// Coherence snoop on an L2 miss: probe the other cores' private
    /// caches; on a write intent, invalidate their copies.
    ///
    /// Granularity note: snoops fire on the **miss path** only (that is
    /// what the BG/P snoop filters observe). A write *hit* on a line
    /// another core still caches does not re-invalidate peers; ranks own
    /// disjoint address partitions in every studied configuration, so
    /// cross-core write sharing never occurs in practice. The coherence
    /// property tests pin exactly these semantics.
    ///
    /// Only the peers the region snoop filter names are probed, in core
    /// order. A skipped peer never received a line of this region, so
    /// probing it would find nothing and change nothing: the counts and
    /// invalidations are exactly those of probing every peer. In VNM
    /// the mask is usually empty and the snoop costs one load.
    fn snoop(&mut self, core: usize, l2_line: u64, write_intent: bool, wc: &mut WalkCounts) {
        wc.snoop_req += 1;
        let mut found = false;
        let mut peers = self.holders_of(l2_line) & !(1 << core);
        while peers != 0 {
            let oc = peers.trailing_zeros() as usize;
            peers &= peers - 1;
            let in_l2 = self.l2[oc].contains(l2_line);
            let first_sub = l2_line * SUBLINES;
            let in_l1 = (0..SUBLINES).any(|s| self.l1d[oc].contains(first_sub + s));
            if in_l2 || in_l1 {
                found = true;
                if write_intent {
                    if self.l2[oc].invalidate(l2_line) == Some(true) {
                        // Another core's dirty L2 copy drains to L3 before
                        // ownership transfers.
                        self.l3_write(oc, l2_line, wc);
                    }
                    for s in 0..SUBLINES {
                        if self.l1d[oc].invalidate(first_sub + s) == Some(true) {
                            self.l3_write(oc, l2_line, wc);
                        }
                    }
                    wc.snoop_inval += 1;
                }
            }
        }
        if !found {
            wc.snoop_filtered += 1;
        }
    }

    /// Serialize the whole memory system's runtime state (checkpoint
    /// support): every cache's content, the prefetcher engines, the DDR
    /// controllers, the ground-truth statistics, and the access clock.
    /// The configuration itself is **not** captured — a restored system
    /// must have been built from an identical [`MachineConfig`].
    pub fn save_state(&self, out: &mut Vec<u8>) {
        for c in self.l1d.iter().chain(&self.l1i).chain(&self.l2) {
            c.save_state(out);
        }
        for p in &self.pf {
            p.save_state(out);
        }
        for c in &self.l3 {
            c.save_state(out);
        }
        for d in &self.ddr {
            d.save_state(out);
        }
        self.stats.save_state(out);
        bgp_arch::wire::put_u64(out, self.access_clock);
    }

    /// Restore state previously written by [`MemorySystem::save_state`]
    /// into a system built from the same configuration.
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input or a geometry
    /// mismatch between the snapshot and this system's configuration.
    pub fn restore_state(
        &mut self,
        r: &mut bgp_arch::wire::Reader<'_>,
    ) -> bgp_arch::error::Result<()> {
        for c in self.l1d.iter_mut().chain(&mut self.l1i).chain(&mut self.l2) {
            c.restore_state(r)?;
        }
        for p in &mut self.pf {
            p.restore_state(r)?;
        }
        for c in &mut self.l3 {
            c.restore_state(r)?;
        }
        for d in &mut self.ddr {
            d.restore_state(r)?;
        }
        self.stats.restore_state(r)?;
        self.access_clock = r.u64("mem access clock")?;
        // The holder masks may now name fewer cores than the saved
        // system's (lines since evicted), which only skips probes that
        // would have found nothing.
        self.holders = [0; REGIONS];
        if let Some(shift) = self.region_shift {
            for core in 0..CORES_PER_NODE {
                let l1_lines = self.l1d[core].lines().map(|l| l / SUBLINES);
                for l2_line in l1_lines.chain(self.l2[core].lines()) {
                    self.holders[region(shift, l2_line)] |= 1 << core;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CounterMode;

    fn sys(cfg: MachineConfig) -> (MemorySystem, Upc) {
        let mut upc = Upc::new(CounterMode::Mode2);
        upc.set_enabled(true);
        (MemorySystem::new(&cfg), upc)
    }

    fn small_cfg() -> MachineConfig {
        MachineConfig {
            l2_streams: 4,
            l2_prefetch_depth: 0, // most tests want the pure demand path
            l3_bytes: 64 << 10,
            l3_ways: 4,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let (mut m, mut upc) = sys(small_cfg());
        let o = m.access(0, 0x1000, false, &mut upc);
        assert_eq!(o.level, HitLevel::Ddr);
        assert!(o.stall >= 104);
        let o = m.access(0, 0x1000, false, &mut upc);
        assert_eq!(o.level, HitLevel::L1);
        assert_eq!(o.stall, 0);
        // Another word in the same 32-byte line also hits L1.
        let o = m.access(0, 0x1018, false, &mut upc);
        assert_eq!(o.level, HitLevel::L1);
    }

    #[test]
    fn adjacent_l1_line_in_same_l2_line_hits_l2() {
        let (mut m, mut upc) = sys(small_cfg());
        m.access(0, 0x1000, false, &mut upc);
        let o = m.access(0, 0x1020, false, &mut upc); // next 32 B line, same 128 B line
        assert_eq!(o.level, HitLevel::L2);
        assert_eq!(o.stall, small_cfg().lat_l2);
    }

    #[test]
    fn l3_hit_after_l2_eviction() {
        let cfg = small_cfg();
        let (mut m, mut upc) = sys(cfg.clone());
        m.access(0, 0, false, &mut upc);
        // Blow the tiny L2 (16 lines) with distinct 128-byte lines.
        for i in 1..=64u64 {
            m.access(0, i * 128, false, &mut upc);
        }
        // The original 128-byte line is gone from L2 but resident in the
        // 64 KB L3; probe it through a different 32-byte sub-line so the
        // (untouched-by-the-sweep) L1 cannot answer.
        let o = m.access(0, 0x20, false, &mut upc);
        assert_eq!(o.level, HitLevel::L3);
        assert_eq!(o.stall, cfg.lat_l3);
    }

    #[test]
    fn no_l3_config_routes_misses_to_ddr() {
        let cfg = MachineConfig {
            l3_bytes: 0,
            l2_prefetch_depth: 0,
            ..MachineConfig::default()
        };
        let (mut m, mut upc) = sys(cfg);
        m.access(0, 0, false, &mut upc);
        assert_eq!(m.stats().ddr_reads, 1);
        assert_eq!(m.stats().l3_hits + m.stats().l3_misses, 0);
    }

    #[test]
    fn dirty_lines_write_back_to_ddr_eventually() {
        let cfg = MachineConfig {
            l2_prefetch_depth: 0,
            l3_bytes: 16 << 10, // 2 banks × 16 sets × 4 ways
            l3_ways: 4,
            ..MachineConfig::default()
        };
        let (mut m, mut upc) = sys(cfg);
        // Write a footprint much larger than every cache level.
        for i in 0..4096u64 {
            m.access(0, i * 32, true, &mut upc);
        }
        // Re-walk to force the dirty lines out.
        for i in 4096..8192u64 {
            m.access(0, i * 32, true, &mut upc);
        }
        assert!(
            m.stats().ddr_writes > 0,
            "dirty data must eventually burst to DDR"
        );
        assert!(m.stats().l3_writebacks > 0);
        assert!(m.stats().l1d_writebacks > 0);
    }

    #[test]
    fn sequential_walk_triggers_prefetching_and_prefetch_hits() {
        let cfg = MachineConfig {
            l2_prefetch_depth: 2,
            ..small_cfg()
        };
        let (mut m, mut upc) = sys(cfg);
        for i in 0..64u64 {
            m.access(0, i * 128, false, &mut upc);
        }
        let s = m.stats();
        assert!(s.l2_prefetches_issued > 0, "stream detector must engage");
        assert!(
            s.l2_prefetch_hits > 0,
            "demand stream must catch prefetched lines"
        );
        // Prefetching converts most L2 misses into prefetch hits.
        assert!(s.l2_prefetch_hits + 4 >= s.l2_misses, "stats: {s:?}");
    }

    #[test]
    fn prefetch_reduces_stall_cycles_on_streams() {
        let run = |depth: usize| {
            let cfg = MachineConfig {
                l2_prefetch_depth: depth,
                ..small_cfg()
            };
            let (mut m, mut upc) = sys(cfg);
            let mut stall = 0;
            for i in 0..512u64 {
                stall += m.access(0, i * 64, false, &mut upc).stall;
            }
            stall
        };
        assert!(
            run(4) < run(0),
            "prefetching must hide miss latency on streams"
        );
    }

    #[test]
    fn upc_in_mode2_sees_l3_and_ddr_events_only() {
        let (mut m, mut upc) = sys(small_cfg());
        m.access(0, 0, false, &mut upc);
        m.access(0, 0, false, &mut upc);
        // Mode 2 counters observed the shared events...
        let miss0 = upc.read_event(SharedEvent::L3Miss0.id()).unwrap();
        let rd0 = upc.read_event(SharedEvent::DdrRead0.id()).unwrap();
        assert_eq!(miss0, 1);
        assert_eq!(rd0, 1);
        // ...but core events (mode 0) were invisible; ground truth has them.
        assert_eq!(upc.read_event(CoreEvent::L1dHit.id(0)), None);
        assert_eq!(m.stats().l1d_hits, 1);
    }

    #[test]
    fn upc_in_mode0_sees_core_events() {
        let mut upc = Upc::new(CounterMode::Mode0);
        upc.set_enabled(true);
        let mut m = MemorySystem::new(&small_cfg());
        m.access(0, 0, false, &mut upc);
        m.access(0, 0, false, &mut upc);
        assert_eq!(upc.read_event(CoreEvent::L1dMiss.id(0)), Some(1));
        assert_eq!(upc.read_event(CoreEvent::L1dHit.id(0)), Some(1));
        assert_eq!(upc.read_event(CoreEvent::L2Miss.id(0)), Some(1));
    }

    #[test]
    fn snoop_invalidates_other_cores_copies_on_write_miss() {
        let (mut m, mut upc) = sys(small_cfg());
        m.access(0, 0x2000, false, &mut upc); // core 0 caches the line
        m.access(1, 0x2000, true, &mut upc); // core 1 writes it
        assert_eq!(
            upc.read_event(SharedEvent::SnoopInval.id()),
            Some(1),
            "core 0's copy must be invalidated"
        );
        // Core 0 re-reads: must miss L1 again.
        let before = m.stats().l1d_misses;
        m.access(0, 0x2000, false, &mut upc);
        assert_eq!(m.stats().l1d_misses, before + 1);
    }

    #[test]
    fn private_data_snoops_are_filtered() {
        let (mut m, mut upc) = sys(small_cfg());
        m.access(0, 0x10_0000, false, &mut upc);
        m.access(1, 0x20_0000, false, &mut upc);
        assert_eq!(upc.read_event(SharedEvent::SnoopReq.id()), Some(2));
        assert_eq!(upc.read_event(SharedEvent::SnoopFiltered.id()), Some(2));
    }

    #[test]
    fn larger_l3_never_increases_misses_on_a_fixed_trace() {
        // The monotonicity behind Fig. 11: grow the L3, replay the same
        // trace, misses must not increase (LRU inclusion property holds
        // per bank since set count scales proportionally).
        let trace: Vec<u64> = (0..20_000u64).map(|i| (i * 7919) % 100_000 * 32).collect();
        let mut last = u64::MAX;
        for mb in [0usize, 2, 4, 8] {
            let cfg = MachineConfig {
                l2_prefetch_depth: 0,
                ..MachineConfig::default()
            }
            .with_l3_bytes(mb << 20);
            let (mut m, mut upc) = sys(cfg);
            for &a in &trace {
                m.access(0, a, false, &mut upc);
            }
            let to_ddr = m.stats().ddr_reads;
            assert!(
                to_ddr <= last,
                "{mb} MB L3 raised DDR reads: {to_ddr} > {last}"
            );
            last = to_ddr;
        }
    }

    #[test]
    fn ddr_traffic_metric_counts_both_directions() {
        let s = MemStats {
            ddr_reads: 10,
            ddr_writes: 5,
            ..MemStats::default()
        };
        assert_eq!(s.ddr_traffic_bytes(), 15 * 128);
    }

    #[test]
    fn save_restore_resumes_byte_identically() {
        // Run a mixed workload, snapshot mid-stream, continue both the
        // original and a restored copy with the same access tail: stats
        // and a re-snapshot must agree exactly.
        let cfg = MachineConfig {
            l2_prefetch_depth: 2,
            ..small_cfg()
        };
        let (mut m, mut upc) = sys(cfg.clone());
        for i in 0..4000u64 {
            let core = (i % 4) as usize;
            m.access(core, 0x1000 + i * 24, i % 3 == 0, &mut upc);
            m.ifetch(core, 0x9_0000 + (i % 64) * 4, &mut upc);
        }
        let mut bytes = Vec::new();
        m.save_state(&mut bytes);

        let (mut fresh, mut upc2) = sys(cfg);
        let mut r = bgp_arch::wire::Reader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.expect_end("mem section").unwrap();
        assert_eq!(fresh.stats(), m.stats());

        for i in 0..2000u64 {
            let core = (i % 4) as usize;
            let addr = 0x5000 + (i * 136) % 70_000;
            m.access(core, addr, i % 5 == 0, &mut upc);
            fresh.access(core, addr, i % 5 == 0, &mut upc2);
        }
        assert_eq!(fresh.stats(), m.stats());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        m.save_state(&mut a);
        fresh.save_state(&mut b);
        assert_eq!(a, b, "diverged after resume");
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let (m, _) = sys(small_cfg());
        let mut bytes = Vec::new();
        m.save_state(&mut bytes);
        let other = MachineConfig {
            l3_bytes: 0,
            ..small_cfg()
        };
        let (mut target, _) = sys(other);
        let mut r = bgp_arch::wire::Reader::new(&bytes);
        assert!(target.restore_state(&mut r).is_err() || r.expect_end("mem").is_err());
    }
}
