//! The Universal Performance Counter **event catalog**.
//!
//! The UPC unit of a Blue Gene/P node contains 256 physical 64-bit
//! counters.  The unit as a whole is programmed into one of four *counter
//! modes* (0–3); in each mode every physical counter is wired to a
//! different hardware event, so the total event space is
//! `4 modes × 256 slots = 1024` possible events, of which 256 can be
//! observed in a single run on a single node (paper §III-A / §IV).
//!
//! Blue Gene/P wires the modes as follows, and this crate mirrors that
//! arrangement:
//!
//! * **mode 0** — events of processor cores 0 and 1 (pipeline, FPU, L1, L2),
//! * **mode 1** — the same event block for cores 2 and 3,
//! * **mode 2** — chip-shared resources: the two L3 banks, the two DDR2
//!   controllers, and the snoop filters,
//! * **mode 3** — the network interfaces (torus, collective, barrier) and
//!   miscellaneous chip events.
//!
//! Because one node can only ever observe one mode, observing all four
//! cores' private events requires two runs — or the paper's trick of
//! configuring **even-numbered nodes in mode 0 and odd-numbered nodes in
//! mode 1**, which yields 512 events of coverage in a single job
//! (implemented by `bgp-core`).

use core::fmt;

/// Number of counter modes of the UPC unit.
pub const NUM_MODES: usize = 4;
/// Number of physical counters (= event slots per mode).
pub(crate) const SLOTS_PER_MODE: usize = 256;
/// Total number of addressable events (`NUM_MODES * SLOTS_PER_MODE`).
pub const NUM_EVENTS: usize = NUM_MODES * SLOTS_PER_MODE;
/// Number of physical 64-bit counters in the UPC unit.
pub const NUM_COUNTERS: usize = SLOTS_PER_MODE;

/// Size of the per-core event block inside modes 0 and 1.
///
/// Each of the two cores covered by a mode owns a contiguous block of
/// `CORE_BLOCK` slots; the remaining `256 - 2*CORE_BLOCK` slots of the
/// mode are reserved.
pub(crate) const CORE_BLOCK: usize = 120;

/// One of the four counter modes of the UPC unit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CounterMode {
    /// Core 0/1 private events.
    Mode0,
    /// Core 2/3 private events.
    Mode1,
    /// Shared L3 / DDR / snoop events.
    Mode2,
    /// Network and miscellaneous events.
    Mode3,
}

impl CounterMode {
    /// All modes in ascending order.
    pub const ALL: [CounterMode; NUM_MODES] = [
        CounterMode::Mode0,
        CounterMode::Mode1,
        CounterMode::Mode2,
        CounterMode::Mode3,
    ];

    /// Numeric mode index (0–3).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Decode a numeric mode index.
    pub const fn from_index(i: usize) -> Option<CounterMode> {
        match i {
            0 => Some(CounterMode::Mode0),
            1 => Some(CounterMode::Mode1),
            2 => Some(CounterMode::Mode2),
            3 => Some(CounterMode::Mode3),
            _ => None,
        }
    }
}

impl fmt::Display for CounterMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mode{}", self.index())
    }
}

/// A physical counter slot within a mode (0–255).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventSlot(pub u8);

/// A fully-qualified event identifier: `(counter mode, slot)`.
///
/// The flat index (`mode*256 + slot`, 0–1023) is the "event number" the
/// paper refers to when it says "1024 possible events".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u16);

impl EventId {
    /// Build an event id from a mode and a slot.
    #[inline]
    pub const fn new(mode: CounterMode, slot: u8) -> EventId {
        EventId((mode as u16) << 8 | slot as u16)
    }

    /// Build an event id from the flat 0–1023 index.
    pub const fn from_index(i: usize) -> Option<EventId> {
        if i < NUM_EVENTS {
            Some(EventId(i as u16))
        } else {
            None
        }
    }

    /// The counter mode this event is wired in.
    #[inline]
    pub const fn mode(self) -> CounterMode {
        match self.0 >> 8 {
            0 => CounterMode::Mode0,
            1 => CounterMode::Mode1,
            2 => CounterMode::Mode2,
            _ => CounterMode::Mode3,
        }
    }

    /// The physical counter slot (0–255) this event drives.
    #[inline]
    pub const fn slot(self) -> EventSlot {
        EventSlot((self.0 & 0xff) as u8)
    }

    /// Flat 0–1023 index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Human-readable mnemonic for the event, `RESERVED_<m>_<s>` when the
    /// slot is not wired to a documented event.
    pub fn name(self) -> String {
        event_name(self)
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventId({}, slot {})", self.mode(), self.slot().0)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

macro_rules! per_core_events {
    ($(#[$m:meta])* $vis:vis enum $name:ident { $($(#[$vm:meta])* $v:ident),+ $(,)? }) => {
        $(#[$m])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        #[repr(u8)]
        $vis enum $name {
            $($(#[$vm])* $v),+
        }

        impl $name {
            /// All variants in slot order.
            pub const ALL: &'static [$name] = &[$($name::$v),+];

            /// Mnemonic (matches the catalog name without core prefix).
            pub(crate) const fn mnemonic(self) -> &'static str {
                match self {
                    $($name::$v => stringify!($v)),+
                }
            }
        }
    };
}

per_core_events! {
    /// Per-core events (pipeline, FPU, L1, private L2).
    ///
    /// Each core owns one `CORE_BLOCK`-slot block in counter mode 0
    /// (cores 0–1) or mode 1 (cores 2–3); the variant's discriminant is its
    /// offset within the block.
    pub enum CoreEvent {
        /// Committed instructions of any class.
        InstrCompleted,
        /// Committed integer-unit instructions (ALU, address arithmetic,
        /// loop overhead).
        IntOp,
        /// Committed branch instructions.
        Branch,
        /// Branches that mispredicted.
        BranchMispredict,
        /// Committed load instructions (any width, excluding quadloads).
        Load,
        /// Committed store instructions (any width, excluding quadstores).
        Store,
        /// Double-word (8-byte) FP loads.
        LoadDouble,
        /// Double-word (8-byte) FP stores.
        StoreDouble,
        /// Quadword (16-byte) loads feeding both FPU pipes at once
        /// (generated by the compiler's `-qarch=440d` SIMD-ization).
        Quadload,
        /// Quadword (16-byte) stores draining both FPU pipes at once.
        Quadstore,
        /// Scalar FP add/subtract (primary pipe only).
        FpAddSub,
        /// Scalar FP multiply.
        FpMult,
        /// Scalar FP divide.
        FpDiv,
        /// Scalar fused multiply-add (2 flops).
        FpFma,
        /// SIMD add/subtract across both pipes (2 flops).
        FpSimdAddSub,
        /// SIMD multiply across both pipes (2 flops).
        FpSimdMult,
        /// SIMD divide across both pipes (2 flops).
        FpSimdDiv,
        /// SIMD fused multiply-add across both pipes (4 flops).
        FpSimdFma,
        /// FP register moves / cross-pipe transfers.
        FpMove,
        /// L1 data-cache hits.
        L1dHit,
        /// L1 data-cache misses.
        L1dMiss,
        /// L1 data-cache line write-backs.
        L1dWriteback,
        /// L1 instruction-cache hits.
        L1iHit,
        /// L1 instruction-cache misses.
        L1iMiss,
        /// Private-L2 hits (demand accesses that missed L1).
        L2Hit,
        /// Private-L2 misses (forwarded to the shared L3).
        L2Miss,
        /// L2 prefetch requests issued toward L3.
        L2PrefetchIssued,
        /// Demand accesses satisfied by a previously prefetched L2 line.
        L2PrefetchHit,
        /// New L2 prefetch streams allocated by the stream detector.
        L2StreamAlloc,
        /// Core clock cycles elapsed while counting was active.
        CycleCount,
        /// Cycles the core was stalled waiting for the memory hierarchy.
        StallMem,
        /// Cycles the core was stalled on FPU latency chains.
        StallFpu,
    }
}

macro_rules! flat_events {
    ($(#[$m:meta])* $vis:vis enum $name:ident : $mode:expr, $base:expr => { $($(#[$vm:meta])* $v:ident),+ $(,)? }) => {
        $(#[$m])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        #[repr(u8)]
        $vis enum $name {
            $($(#[$vm])* $v),+
        }

        impl $name {
            /// All variants in slot order.
            pub const ALL: &'static [$name] = &[$($name::$v),+];

            /// Mnemonic string.
            pub(crate) const fn mnemonic(self) -> &'static str {
                match self {
                    $($name::$v => stringify!($v)),+
                }
            }

            /// The fully-qualified event id for this event.
            #[inline]
            pub const fn id(self) -> EventId {
                EventId::new($mode, $base + self as u8)
            }
        }
    };
}

flat_events! {
    /// Chip-shared memory-system events (counter mode 2).
    ///
    /// The L3 is organized as two interleaved banks, each fronting one of
    /// the two DDR2 controllers.
    pub enum SharedEvent : CounterMode::Mode2, 0 => {
        /// L3 bank 0 hits.
        L3Hit0,
        /// L3 bank 1 hits.
        L3Hit1,
        /// L3 bank 0 misses (demand fetch from DDR).
        L3Miss0,
        /// L3 bank 1 misses.
        L3Miss1,
        /// Dirty lines written back from L3 bank 0 to DDR.
        L3Writeback0,
        /// Dirty lines written back from L3 bank 1 to DDR.
        L3Writeback1,
        /// L3 bank 0 lines allocated (fills).
        L3Alloc0,
        /// L3 bank 1 lines allocated (fills).
        L3Alloc1,
        /// DDR controller 0: read bursts (one per 128-byte line).
        DdrRead0,
        /// DDR controller 1: read bursts.
        DdrRead1,
        /// DDR controller 0: write bursts.
        DdrWrite0,
        /// DDR controller 1: write bursts.
        DdrWrite1,
        /// DDR controller 0: requests that queued behind another core's
        /// in-flight request (memory-port contention).
        DdrConflict0,
        /// DDR controller 1: queued requests.
        DdrConflict1,
        /// Snoop requests observed by the snoop filters.
        SnoopReq,
        /// Snoop requests filtered (not forwarded to any L1).
        SnoopFiltered,
        /// Snoop-induced L1 invalidations.
        SnoopInval,
    }
}

flat_events! {
    /// Network-interface and miscellaneous chip events (counter mode 3).
    pub enum NetEvent : CounterMode::Mode3, 0 => {
        /// Torus packets injected by this node.
        TorusPktSent,
        /// Torus packets received by this node.
        TorusPktRecv,
        /// Torus payload bytes injected.
        TorusBytesSent,
        /// Torus payload bytes received.
        TorusBytesRecv,
        /// Sum of hop counts of all injected packets.
        TorusHops,
        /// Collective-network packets injected.
        CollPktSent,
        /// Collective-network packets received.
        CollPktRecv,
        /// Collective-network payload bytes injected.
        CollBytesSent,
        /// Collective-network payload bytes received.
        CollBytesRecv,
        /// Barrier-network crossings this node participated in.
        BarrierCrossed,
        /// Chip time-base ticks while counting was active (mirrors the
        /// Time Base register the paper validates the overhead against).
        TimebaseTicks,
    }
}

impl CoreEvent {
    /// Fully-qualified event id of this event for a given core (0–3).
    ///
    /// Cores 0–1 live in counter mode 0, cores 2–3 in counter mode 1; the
    /// even core of each pair owns slots `0..CORE_BLOCK`, the odd core
    /// slots `CORE_BLOCK..2*CORE_BLOCK`.
    ///
    /// # Panics
    /// Panics if `core >= 4`.
    #[inline]
    pub const fn id(self, core: usize) -> EventId {
        assert!(core < 4, "Blue Gene/P nodes have 4 cores");
        let mode = if core < 2 {
            CounterMode::Mode0
        } else {
            CounterMode::Mode1
        };
        let base = (core & 1) * CORE_BLOCK;
        EventId::new(mode, (base + self as usize) as u8)
    }

    /// Inverse of [`CoreEvent::id`]: which `(core, event)` a given id
    /// refers to, if it falls inside a core block.
    pub(crate) fn from_id(id: EventId) -> Option<(usize, CoreEvent)> {
        let pair_base = match id.mode() {
            CounterMode::Mode0 => 0,
            CounterMode::Mode1 => 2,
            _ => return None,
        };
        let slot = id.slot().0 as usize;
        let (core, off) = if slot < CORE_BLOCK {
            (pair_base, slot)
        } else if slot < 2 * CORE_BLOCK {
            (pair_base + 1, slot - CORE_BLOCK)
        } else {
            return None;
        };
        CoreEvent::ALL.get(off).map(|&ev| (core, ev))
    }
}

/// Human-readable mnemonic for any of the 1024 events.
pub(crate) fn event_name(id: EventId) -> String {
    if let Some((core, ev)) = CoreEvent::from_id(id) {
        return format!("BGP_PU{}_{}", core, ev.mnemonic());
    }
    match id.mode() {
        CounterMode::Mode2 => {
            if let Some(&ev) = SharedEvent::ALL.get(id.slot().0 as usize) {
                return format!("BGP_{}", ev.mnemonic());
            }
        }
        CounterMode::Mode3 => {
            if let Some(&ev) = NetEvent::ALL.get(id.slot().0 as usize) {
                return format!("BGP_{}", ev.mnemonic());
            }
        }
        _ => {}
    }
    format!("RESERVED_{}_{}", id.mode().index(), id.slot().0)
}

/// Input-signal sensitivity selected by the two counter-event bits of a
/// counter's configuration register (paper §III-A).
///
/// Only the two edge encodings are modelled. The level encodings, `00`
/// (`BGP_UPC_CFG_LEVEL_HIGH`) and `11` (`BGP_UPC_CFG_LEVEL_LOW`), count
/// cycles a signal is high or low, and no event source of the simulator
/// reports a level: a level-configured counter would read 0 for every
/// event. [`Sensitivity::from_bits`] refuses them instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Sensitivity {
    /// `01` — count low→high transitions (`BGP_UPC_CFG_EDGE_RISE`).
    /// This is the default for occurrence events.
    #[default]
    EdgeRise,
    /// `10` — count high→low transitions (`BGP_UPC_CFG_EDGE_FALL`).
    EdgeFall,
}

impl Sensitivity {
    /// Encode into the two counter-event configuration bits.
    #[inline]
    pub const fn to_bits(self) -> u8 {
        match self {
            Sensitivity::EdgeRise => 0b01,
            Sensitivity::EdgeFall => 0b10,
        }
    }

    /// Decode from the two counter-event configuration bits; `None` for
    /// the level encodings `00` and `11`.
    #[inline]
    pub const fn from_bits(bits: u8) -> Option<Sensitivity> {
        match bits & 0b11 {
            0b01 => Some(Sensitivity::EdgeRise),
            0b10 => Some(Sensitivity::EdgeFall),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_blocks_fit_in_a_mode() {
        const { assert!(2 * CORE_BLOCK <= SLOTS_PER_MODE) };
        const { assert!(CoreEvent::ALL.len() <= CORE_BLOCK) };
    }

    #[test]
    fn event_id_round_trips_through_flat_index() {
        for i in 0..NUM_EVENTS {
            let id = EventId::from_index(i).unwrap();
            assert_eq!(id.index(), i);
            assert_eq!(
                EventId::new(id.mode(), id.slot().0).index(),
                i,
                "mode/slot decomposition must be lossless"
            );
        }
        assert!(EventId::from_index(NUM_EVENTS).is_none());
    }

    #[test]
    fn core_event_ids_are_disjoint_across_cores() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for core in 0..4 {
            for &ev in CoreEvent::ALL {
                assert!(seen.insert(ev.id(core)), "duplicate id for {ev:?}/{core}");
            }
        }
        assert_eq!(seen.len(), 4 * CoreEvent::ALL.len());
    }

    #[test]
    fn core_event_id_inverse() {
        for core in 0..4 {
            for &ev in CoreEvent::ALL {
                assert_eq!(CoreEvent::from_id(ev.id(core)), Some((core, ev)));
            }
        }
        // A reserved slot decodes to none.
        assert_eq!(
            CoreEvent::from_id(EventId::new(CounterMode::Mode0, 255)),
            None
        );
        assert_eq!(
            CoreEvent::from_id(EventId::new(CounterMode::Mode2, 0)),
            None
        );
    }

    #[test]
    fn cores_zero_one_in_mode0_two_three_in_mode1() {
        assert_eq!(CoreEvent::FpFma.id(0).mode(), CounterMode::Mode0);
        assert_eq!(CoreEvent::FpFma.id(1).mode(), CounterMode::Mode0);
        assert_eq!(CoreEvent::FpFma.id(2).mode(), CounterMode::Mode1);
        assert_eq!(CoreEvent::FpFma.id(3).mode(), CounterMode::Mode1);
        // Cores of a pair occupy the same slots in their two modes.
        assert_eq!(CoreEvent::FpFma.id(0).slot(), CoreEvent::FpFma.id(2).slot());
        assert_eq!(CoreEvent::FpFma.id(1).slot(), CoreEvent::FpFma.id(3).slot());
    }

    #[test]
    fn shared_and_net_events_have_stable_names() {
        assert_eq!(SharedEvent::DdrRead0.id().name(), "BGP_DdrRead0");
        assert_eq!(NetEvent::TorusPktSent.id().name(), "BGP_TorusPktSent");
        assert_eq!(CoreEvent::FpSimdFma.id(3).name(), "BGP_PU3_FpSimdFma");
        assert!(EventId::new(CounterMode::Mode3, 200)
            .name()
            .starts_with("RESERVED_3_200"));
    }

    #[test]
    fn sensitivity_bits_round_trip_and_match_paper_encoding() {
        // Paper §III-A: 00 level-high, 01 edge-rise, 10 edge-fall, 11
        // level-low; the two level encodings are refused.
        assert_eq!(Sensitivity::EdgeRise.to_bits(), 0b01);
        assert_eq!(Sensitivity::EdgeFall.to_bits(), 0b10);
        for bits in [0b01, 0b10] {
            assert_eq!(Sensitivity::from_bits(bits).unwrap().to_bits(), bits);
        }
        assert_eq!(Sensitivity::from_bits(0b00), None);
        assert_eq!(Sensitivity::from_bits(0b11), None);
    }
}
