//! A generic set-associative, write-back, LRU cache core.
//!
//! Used for the L1-I/L1-D (32-byte lines), the private L2 and the shared
//! L3 banks (128-byte lines). Addresses are handled at *line* granularity:
//! callers shift byte addresses down before lookup, so one `Cache` never
//! needs to know its line size.
//!
//! The implementation is built for the batch engine's probe rate: each
//! way is one packed `u64` — the line tag shifted left with the
//! dirty/prefetched bits in the low bits — and every set keeps its ways
//! ordered **most- to least-recently-used**. Recency ordering makes the
//! position encode exact LRU: a hit rotates the way to the front, the
//! eviction victim is always the last way, and no per-way timestamp
//! array exists at all. A probe compares way 0 first and returns without
//! reordering when it matches; otherwise it scans the remaining ways.
//! Way 0 is not the common answer for an L1-D head probe: on MG class A
//! × 16 VNM ranks (129.9 M run heads) it answers 31.8% of them, the
//! other 15 ways 48.4%, and 19.8% miss — run tails never probe, so what
//! reaches the cache is mostly the first touch of a line in a flush
//! epoch. Set selection is `line % sets`, reduced to a mask when `sets`
//! is a power of two — [`MachineConfig::validate`] guarantees the L1 and
//! L2 set counts are powers of two so their probes never take the `%`
//! branch, while the L3 is built from 2 MB eDRAM macros and legitimately
//! has non-power-of-two set counts (e.g. the 6 MB point of the paper's
//! Fig. 11 sweep).
//!
//! Alongside the way entries the cache maintains a **counting membership
//! filter** (one `u16` bucket per hashed line, kept exact by
//! incrementing on install and decrementing on eviction/invalidation).
//! A zero bucket proves a line absent without touching the set, which
//! turns the probe-heavy *usually-absent* paths — coherence snoops into
//! peer caches, prefetch-duplicate checks, write-back `mark_dirty`
//! probes — into a single hash and load. A non-zero bucket falls back to
//! the exact tag scan, so results never change; only the cost does.
//!
//! The cache also keeps a count of its valid ways. Every fill the
//! memory hierarchy makes follows a probe that has just shown the line
//! absent, so it goes through `Cache::fill_absent`, which skips the
//! presence scan that [`Cache::fill`] must make; once the count says
//! the whole cache is full, the victim is the set's last (LRU) way with
//! no scan for an invalid way either. The count is derived state: it is
//! rebuilt on restore and never serialized.
//!
//! Way order is an implementation detail: no production consumer
//! observes it (the differential and golden tests pin that), so the
//! recency ordering is behaviorally identical to a timestamped LRU.
//!
//! [`MachineConfig::validate`]: bgp_arch::MachineConfig::validate

/// Packed-entry flag bit: line has been modified (write-back needed on
/// eviction).
const FLAG_DIRTY: u64 = 1 << 0;
/// Packed-entry flag bit: line was speculatively fetched and not yet
/// demand-touched.
const FLAG_PREFETCHED: u64 = 1 << 1;
/// Mask of the flag bits within a packed entry.
const FLAG_MASK: u64 = FLAG_DIRTY | FLAG_PREFETCHED;
/// Left shift turning a line address into its packed-entry tag.
const ENT_SHIFT: u32 = 2;
/// Sentinel entry meaning "invalid way". Cannot collide with a real
/// entry: a real tag has bit 1 << 63 clear (lines are byte addresses
/// shifted *down* by at least the 32-byte line shift, then up by
/// [`ENT_SHIFT`]).
const INVALID: u64 = u64::MAX;

/// A line evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Line address (same granularity the cache was addressed with).
    pub line: u64,
    /// Whether the line was dirty (needs writing down the hierarchy).
    pub dirty: bool,
}

/// Result of a demand lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether the hit line had been brought in by a prefetch and this is
    /// the first demand touch since.
    pub first_prefetch_use: bool,
}

/// A set-associative LRU cache addressed at line granularity.
///
/// ```
/// use bgp_mem::Cache;
///
/// let mut c = Cache::new(2, 2); // 2 sets × 2 ways
/// assert!(!c.access(7, false).hit);   // cold miss
/// c.fill(7, false, false);
/// assert!(c.access(7, true).hit);     // write hit marks the line dirty
/// assert_eq!(c.flush(), vec![7]);     // flush returns the dirty lines
/// ```
/// The way array and the filter are allocated when the cache is built.
/// Laziness lives one level up: a node builds its memory hierarchy, and
/// with it every cache, only on its first memory operation.
///
/// A fill of a line the caller knows is absent should use
/// `Cache::fill_absent`, which skips [`Cache::fill`]'s presence scan
/// and, once every way is valid, its scan for a free way.
#[derive(Clone, Debug)]
pub struct Cache {
    /// Packed way entries (`line << ENT_SHIFT | flags`), `sets × ways`,
    /// set-major, each set ordered most- to least-recently-used.
    ents: Vec<u64>,
    /// Counting membership filter: `filt[hash(line)]` is the number of
    /// resident lines hashing to that bucket. Zero proves absence.
    /// Empty for unfiltered caches.
    filt: Vec<u16>,
    /// Right-shift applied to the hashed line to index `filt`.
    filt_shift: u32,
    /// Number of valid ways.
    valid: u32,
    num_sets: usize,
    assoc: usize,
    set_mask: Option<u64>,
}

/// Multiplier of the Fibonacci line hash feeding the membership filter.
const FILT_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

impl Cache {
    /// Build a cache with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(sets: usize, assoc: usize) -> Cache {
        // Two filter buckets per line keeps bucket occupancy (and thus
        // the false-maybe rate of the absence test) low.
        Cache::build(sets, assoc, true)
    }

    /// Build a cache without the membership filter. Right for caches
    /// whose probe mix rarely benefits from absence proofs (the L3:
    /// write-backs it receives usually find their line resident, so a
    /// filter is maintenance cost without payoff).
    pub(crate) fn unfiltered(sets: usize, assoc: usize) -> Cache {
        Cache::build(sets, assoc, false)
    }

    fn build(sets: usize, assoc: usize, filtered: bool) -> Cache {
        assert!(sets > 0 && assoc > 0, "cache must have sets and ways");
        let filt_len = if filtered {
            (sets * assoc * 2).next_power_of_two().max(64)
        } else {
            0
        };
        Cache {
            ents: vec![INVALID; sets * assoc],
            filt: vec![0; filt_len],
            filt_shift: 64 - filt_len.trailing_zeros().min(63),
            valid: 0,
            num_sets: sets,
            assoc,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
        }
    }

    #[inline]
    fn filt_idx(&self, line: u64) -> usize {
        (line.wrapping_mul(FILT_HASH) >> self.filt_shift) as usize
    }

    /// Membership-filter check: `false` proves `line` is absent; `true`
    /// means "maybe resident" and callers fall back to the tag scan.
    #[inline]
    fn maybe_resident(&self, line: u64) -> bool {
        self.filt.is_empty() || self.filt[self.filt_idx(line)] != 0
    }

    #[inline]
    fn filt_add(&mut self, line: u64) {
        if self.filt.is_empty() {
            return;
        }
        let i = self.filt_idx(line);
        debug_assert!(self.filt[i] < u16::MAX, "membership filter bucket overflow");
        self.filt[i] += 1;
    }

    #[inline]
    fn filt_remove(&mut self, line: u64) {
        if self.filt.is_empty() {
            return;
        }
        let i = self.filt_idx(line);
        debug_assert!(self.filt[i] > 0, "membership filter underflow");
        self.filt[i] -= 1;
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(m) => (line & m) as usize,
            None => (line % self.num_sets as u64) as usize,
        }
    }

    /// Demand access: returns hit/miss, refreshes LRU, optionally marks
    /// the line dirty (write hit).
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> Hit {
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        let wflag = if write { FLAG_DIRTY } else { 0 };
        let set = &mut self.ents[base..base + self.assoc];
        // Fast path: a hit in the MRU way needs no reordering.
        let e0 = set[0];
        if e0 & !FLAG_MASK == target {
            set[0] = target | ((e0 & FLAG_DIRTY) | wflag);
            return Hit {
                hit: true,
                first_prefetch_use: e0 & FLAG_PREFETCHED != 0,
            };
        }
        for i in 1..set.len() {
            let e = set[i];
            if e & !FLAG_MASK == target {
                // Rotate the hit way to the MRU position. Shifted by
                // hand: the rotation distance is usually 1-3 ways, where
                // an explicit loop beats a generic `copy_within` memmove.
                let mut k = i;
                while k > 0 {
                    set[k] = set[k - 1];
                    k -= 1;
                }
                set[0] = target | ((e & FLAG_DIRTY) | wflag);
                return Hit {
                    hit: true,
                    first_prefetch_use: e & FLAG_PREFETCHED != 0,
                };
            }
        }
        Hit {
            hit: false,
            first_prefetch_use: false,
        }
    }

    /// Probe without disturbing LRU or prefetch state (snoop path).
    /// The membership filter answers the common absent case without
    /// touching the set.
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        if !self.maybe_resident(line) {
            return false;
        }
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        self.ents[base..base + self.assoc]
            .iter()
            .any(|&e| e & !FLAG_MASK == target)
    }

    /// Install `line`, evicting the LRU way if the set is full.
    ///
    /// `dirty` marks the line modified on arrival (write-allocate store,
    /// or a write-back arriving from above). `prefetched` tags the line
    /// as speculatively fetched so the first demand hit can be attributed
    /// to the prefetcher. A line that is already resident is refreshed
    /// in place instead; callers that know the line is absent use
    /// `Cache::fill_absent`.
    #[inline]
    pub fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        let dflag = if dirty { FLAG_DIRTY } else { 0 };
        let set = &mut self.ents[base..base + self.assoc];
        let mut invalid_at = None;
        for i in 0..set.len() {
            let e = set[i];
            if e & !FLAG_MASK == target {
                // Already present (e.g. a racing prefetch): refresh.
                let mut f = (e & FLAG_MASK) | dflag;
                if !prefetched {
                    f &= !FLAG_PREFETCHED;
                }
                let mut k = i;
                while k > 0 {
                    set[k] = set[k - 1];
                    k -= 1;
                }
                set[0] = target | f;
                return None;
            }
            if e == INVALID && invalid_at.is_none() {
                invalid_at = Some(i);
            }
        }
        self.install(base, invalid_at, line, dirty, prefetched)
    }

    /// [`Cache::fill`] for a line the caller has just shown absent (a
    /// demand miss, a failed `contains` or `mark_dirty`): no presence
    /// scan, and once every way of the cache is valid, no scan for an
    /// invalid way either. Leaves exactly the entries, filter and
    /// eviction `fill` would.
    #[inline]
    pub(crate) fn fill_absent(
        &mut self,
        line: u64,
        dirty: bool,
        prefetched: bool,
    ) -> Option<Evicted> {
        debug_assert!(
            !self.contains(line),
            "fill_absent of resident line {line:#x}"
        );
        let base = self.set_of(line) * self.assoc;
        let free = if self.valid as usize == self.ents.len() {
            None
        } else {
            self.ents[base..base + self.assoc]
                .iter()
                .position(|&e| e == INVALID)
        };
        self.install(base, free, line, dirty, prefetched)
    }

    /// Put absent `line` at the MRU position of the set at `base`,
    /// taking the invalid way `free` or, with `None`, evicting the LRU
    /// (last) way.
    #[inline]
    fn install(
        &mut self,
        base: usize,
        free: Option<usize>,
        line: u64,
        dirty: bool,
        prefetched: bool,
    ) -> Option<Evicted> {
        let dflag = if dirty { FLAG_DIRTY } else { 0 };
        let pflag = if prefetched { FLAG_PREFETCHED } else { 0 };
        let set = &mut self.ents[base..base + self.assoc];
        let last = set.len() - 1;
        let (slot, evicted) = match free {
            Some(i) => (i, None),
            None => {
                let victim = set[last];
                (
                    last,
                    Some(Evicted {
                        line: victim >> ENT_SHIFT,
                        dirty: victim & FLAG_DIRTY != 0,
                    }),
                )
            }
        };
        // Usually a whole-set shift (the LRU way is evicted), where one
        // memmove beats the hand loop `access` uses for short rotations.
        set.copy_within(..slot, 1);
        set[0] = (line << ENT_SHIFT) | dflag | pflag;
        match evicted {
            Some(ev) => self.filt_remove(ev.line),
            None => self.valid += 1,
        }
        self.filt_add(line);
        evicted
    }

    /// Mark an already-present line dirty; returns whether it was
    /// present. Does not refresh LRU (write-backs arriving from above are
    /// not demand touches).
    #[inline]
    pub(crate) fn mark_dirty(&mut self, line: u64) -> bool {
        if !self.maybe_resident(line) {
            return false;
        }
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        for e in &mut self.ents[base..base + self.assoc] {
            if *e & !FLAG_MASK == target {
                *e |= FLAG_DIRTY;
                return true;
            }
        }
        false
    }

    /// Remove a line (snoop invalidation); returns its dirtiness if it
    /// was present.
    pub(crate) fn invalidate(&mut self, line: u64) -> Option<bool> {
        if !self.maybe_resident(line) {
            return None;
        }
        let base = self.set_of(line) * self.assoc;
        let target = line << ENT_SHIFT;
        for e in &mut self.ents[base..base + self.assoc] {
            if *e & !FLAG_MASK == target {
                let dirty = *e & FLAG_DIRTY != 0;
                *e = INVALID;
                self.valid -= 1;
                self.filt_remove(line);
                return Some(dirty);
            }
        }
        None
    }

    /// Number of valid lines currently resident (O(capacity); tests only).
    pub fn resident_lines(&self) -> usize {
        self.lines().count()
    }

    /// The resident lines, in way-array order (O(capacity)).
    pub(crate) fn lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.ents
            .iter()
            .filter(|&&e| e != INVALID)
            .map(|&e| e >> ENT_SHIFT)
    }

    /// Serialize the cache's runtime state (checkpoint support).
    ///
    /// Only the packed way entries are written: the membership filter and
    /// the valid-way count are exact counts of resident lines, so
    /// [`Cache::restore_state`] rebuilds them from the entries.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        bgp_arch::wire::put_u64s(out, &self.ents);
    }

    /// Restore state previously written by [`Cache::save_state`] into a
    /// cache of identical geometry.
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input or an entry
    /// count other than this cache's `sets × ways`.
    pub fn restore_state(
        &mut self,
        r: &mut bgp_arch::wire::Reader<'_>,
    ) -> bgp_arch::error::Result<()> {
        let ents = r.u64s("cache entries")?;
        if ents.len() != self.num_sets * self.assoc {
            return Err(bgp_arch::BgpError::corrupt(format!(
                "cache geometry mismatch: snapshot has {} entries, cache holds {}",
                ents.len(),
                self.num_sets * self.assoc
            )));
        }
        self.filt.fill(0);
        self.ents = ents;
        self.valid = 0;
        for i in 0..self.ents.len() {
            let e = self.ents[i];
            if e != INVALID {
                self.valid += 1;
                self.filt_add(e >> ENT_SHIFT);
            }
        }
        Ok(())
    }

    /// Drop every line, returning the dirty ones (cache flush).
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for e in &mut self.ents {
            if *e != INVALID && *e & FLAG_DIRTY != 0 {
                dirty.push(*e >> ENT_SHIFT);
            }
            *e = INVALID;
        }
        self.filt.fill(0);
        self.valid = 0;
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(4, 2);
        assert!(!c.access(10, false).hit);
        c.fill(10, false, false);
        assert!(c.access(10, false).hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(1, 2);
        c.fill(1, false, false);
        c.fill(2, false, false);
        c.access(1, false); // 2 becomes LRU
        let ev = c.fill(3, false, false).unwrap();
        assert_eq!(ev.line, 2);
        assert!(c.contains(1));
        assert!(c.contains(3));
    }

    #[test]
    fn dirty_state_survives_and_reports_on_eviction() {
        let mut c = Cache::new(1, 1);
        c.fill(7, false, false);
        assert!(c.mark_dirty(7));
        let ev = c.fill(8, false, false).unwrap();
        assert_eq!(
            ev,
            Evicted {
                line: 7,
                dirty: true
            }
        );
        let ev2 = c.fill(9, false, false).unwrap();
        assert_eq!(
            ev2,
            Evicted {
                line: 8,
                dirty: false
            }
        );
    }

    #[test]
    fn write_access_marks_dirty() {
        let mut c = Cache::new(2, 2);
        c.fill(4, false, false);
        assert!(c.access(4, true).hit);
        let flushed = c.flush();
        assert_eq!(flushed, vec![4]);
    }

    #[test]
    fn prefetched_flag_reports_first_use_only() {
        let mut c = Cache::new(2, 2);
        c.fill(6, false, true);
        let h1 = c.access(6, false);
        assert!(h1.hit && h1.first_prefetch_use);
        let h2 = c.access(6, false);
        assert!(h2.hit && !h2.first_prefetch_use);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = Cache::new(1, 2);
        c.fill(1, false, false);
        c.fill(2, true, false);
        assert!(c.fill(2, false, false).is_none());
        // Dirty bit is sticky across the duplicate fill.
        let ev = c.fill(3, false, false).unwrap();
        assert_eq!(ev.line, 1, "line 2 was refreshed by refill");
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = Cache::new(2, 1);
        c.fill(3, true, false);
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn non_power_of_two_sets_distribute_all_lines() {
        // Mirrors the 6 MB L3 configuration (3072 sets).
        let mut c = Cache::new(3, 2);
        for line in 0..6u64 {
            c.fill(line, false, false);
        }
        assert_eq!(c.resident_lines(), 6, "3 sets × 2 ways all used");
        for line in 0..6u64 {
            assert!(c.contains(line));
        }
    }

    #[test]
    fn conflict_misses_within_one_set() {
        let mut c = Cache::new(4, 1);
        c.fill(0, false, false);
        c.fill(4, false, false); // same set (0), evicts 0
        assert!(!c.contains(0));
        assert!(c.contains(4));
    }

    #[test]
    fn prefetched_flag_clears_on_duplicate_demand_fill() {
        // A duplicate fill with prefetched=false must clear the
        // speculative tag (prefetched &= prefetched semantics).
        let mut c = Cache::new(1, 2);
        c.fill(5, false, true);
        c.fill(5, false, false);
        let h = c.access(5, false);
        assert!(h.hit && !h.first_prefetch_use);
    }

    #[test]
    fn save_restore_preserves_lru_dirty_and_filter() {
        let mut c = Cache::new(4, 2);
        c.fill(1, true, false);
        c.fill(5, false, true);
        c.fill(9, false, false); // evicts within set 1
        c.access(1, false);

        let mut bytes = Vec::new();
        c.save_state(&mut bytes);
        let mut d = Cache::new(4, 2);
        let mut r = bgp_arch::wire::Reader::new(&bytes);
        d.restore_state(&mut r).unwrap();
        r.expect_end("cache").unwrap();

        assert_eq!(d.ents, c.ents, "packed entries identical");
        assert_eq!(d.filt, c.filt, "rebuilt filter identical");
        // Behavioral check: LRU victim order and dirtiness survive.
        assert_eq!(c.flush(), d.flush());

        // Geometry mismatch fails closed.
        let mut wrong = Cache::new(8, 2);
        assert!(wrong
            .restore_state(&mut bgp_arch::wire::Reader::new(&bytes))
            .is_err());
    }

    /// A cache writes its `sets × ways` entries, empty or not, and
    /// restores only an image of exactly that many: any other count,
    /// zero included, is refused and leaves the cache as it was.
    #[test]
    fn restore_takes_exactly_sets_times_ways_entries() {
        let empty = Cache::new(8, 2);
        let mut bytes = Vec::new();
        empty.save_state(&mut bytes);
        let mut want = Vec::new();
        bgp_arch::wire::put_u64s(&mut want, &[INVALID; 16]);
        assert_eq!(bytes, want, "an empty cache writes every way");

        let mut target = Cache::new(8, 2);
        target.fill(5, true, false);
        for n in [0usize, 1, 15, 17, 32] {
            let mut image = Vec::new();
            bgp_arch::wire::put_u64s(&mut image, &vec![INVALID; n]);
            let err = target
                .restore_state(&mut bgp_arch::wire::Reader::new(&image))
                .unwrap_err();
            assert!(matches!(err, bgp_arch::BgpError::Corrupt(_)), "{err}");
            assert!(
                err.to_string()
                    .contains(&format!("snapshot has {n} entries")),
                "{err}"
            );
            assert!(
                target.contains(5) && target.valid == 1,
                "a refused image changes nothing"
            );
        }
        target
            .restore_state(&mut bgp_arch::wire::Reader::new(&bytes))
            .unwrap();
        assert!(!target.contains(5));
        assert_eq!((target.valid, target.filt.clone()), (0, empty.filt.clone()));
    }

    #[test]
    fn fill_absent_matches_fill_and_valid_count_tracks_residency() {
        // Random fills, invalidations, flushes and save/restore round
        // trips over a few hot sets. `a` installs with `fill` only; `b`
        // takes `fill_absent` whenever the line is absent. Both must
        // keep identical entries, filters and evictions, and each its
        // valid count equal to the scanned residency.
        let mut rng = bgp_arch::rng::SimRng::seed_from_u64(0xc0);
        for case in 0..32 {
            let (sets, assoc) = (rng.gen_range(1usize..5), rng.gen_range(1usize..6));
            let (mut a, mut b) = (Cache::new(sets, assoc), Cache::new(sets, assoc));
            let span = (sets * assoc * 2) as u64;
            for step in 0..600 {
                let line = rng.gen_range(0..span);
                match rng.gen_range(0u32..20) {
                    0 => assert_eq!(a.flush(), b.flush()),
                    1 => {
                        let mut bytes = Vec::new();
                        b.save_state(&mut bytes);
                        b.restore_state(&mut bgp_arch::wire::Reader::new(&bytes))
                            .unwrap();
                    }
                    2..=5 => assert_eq!(a.invalidate(line), b.invalidate(line)),
                    _ => {
                        let (dirty, pf) = (rng.gen_bool(0.3), rng.gen_bool(0.3));
                        let ev_a = a.fill(line, dirty, pf);
                        let ev_b = if b.contains(line) {
                            b.fill(line, dirty, pf)
                        } else {
                            b.fill_absent(line, dirty, pf)
                        };
                        assert_eq!(ev_a, ev_b, "case {case} step {step}: eviction");
                    }
                }
                for c in [&a, &b] {
                    assert_eq!(
                        c.valid as usize,
                        c.resident_lines(),
                        "case {case} step {step}"
                    );
                }
                assert_eq!(a.ents, b.ents, "case {case} step {step}: entries");
                assert_eq!(a.filt, b.filt, "case {case} step {step}: filter");
            }
        }
    }

    #[test]
    fn fill_absent_on_a_full_cache_evicts_lru_without_scanning() {
        let mut c = Cache::new(2, 2);
        for line in 0..4u64 {
            assert!(c.fill_absent(line, line == 1, false).is_none());
        }
        assert_eq!(c.valid, 4);
        // Full: the victim is the last (LRU) way of the set.
        assert_eq!(
            c.fill_absent(5, false, false),
            Some(Evicted {
                line: 1,
                dirty: true
            })
        );
        assert_eq!(c.valid, 4);
        // An invalidation frees a way, which the next fill takes.
        c.invalidate(0);
        assert!(c.fill_absent(6, false, false).is_none());
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn invalidated_way_is_refilled_before_any_eviction() {
        let mut c = Cache::new(1, 3);
        for line in [1u64, 2, 3] {
            c.fill(line, false, false);
        }
        c.invalidate(2);
        // The freed way absorbs the next fill; nothing is evicted.
        assert!(c.fill(9, false, false).is_none());
        assert_eq!(c.resident_lines(), 3);
        // The set is full again: the next fill evicts true-LRU line 1.
        assert_eq!(c.fill(10, false, false).unwrap().line, 1);
    }
}
