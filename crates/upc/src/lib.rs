//! # bgp-upc — the Universal Performance Counter unit
//!
//! A software model of the UPC block of the Blue Gene/P compute chip
//! (paper §III-A):
//!
//! * 256 physical **64-bit counters**,
//! * a unit-wide **counter mode** (0–3) selecting which of the 1024
//!   possible events each counter is wired to,
//! * per-counter **configuration registers**: two counter-event bits
//!   selecting the sensitivity and an interrupt-enable bit,
//! * per-counter **thresholds** that raise an interrupt when reached
//!   ("thresholding" — the feedback feature the paper highlights for
//!   data placement / thread assignment decisions),
//! * all of it accessible through a **memory-mapped register file**
//!   ([`regfile::RegFile`]), mirroring the real chip where "all counters
//!   and all configuration registers in the UPC module are mapped into
//!   the memory address space".
//!
//! Hardware blocks report activity by calling [`Upc::emit`] with a count
//! of occurrences (signal edges). Whether an emission increments a
//! counter depends on the unit's mode and the enable bit. Every event
//! source reports edges, so only the two edge sensitivities are
//! modelled: a level-sensitive configuration (`00` or `11`) is refused
//! by [`CounterConfig::from_bits`], by the register file and by
//! [`Upc::restore_state`], rather than counting 0 for every event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod regfile;

use bgp_arch::error::Result;
use bgp_arch::events::{CounterMode, EventId, Sensitivity, NUM_COUNTERS};
use bgp_arch::wire;
use bgp_arch::BgpError;

/// Configuration of one physical counter (the "4 configuration bits"
/// of §III-A: two sensitivity bits, one interrupt-enable bit, one
/// freeze-on-threshold bit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterConfig {
    /// Input-signal sensitivity (the two counter-event bits).
    pub sensitivity: Sensitivity,
    /// Raise an interrupt when the counter reaches its threshold.
    pub interrupt_enable: bool,
    /// Stop counting on this counter once the threshold fires.
    pub freeze_on_threshold: bool,
}

impl CounterConfig {
    /// Pack into the 4-bit hardware encoding
    /// (`[freeze | irq | sens1 | sens0]`).
    pub const fn to_bits(self) -> u8 {
        self.sensitivity.to_bits()
            | (self.interrupt_enable as u8) << 2
            | (self.freeze_on_threshold as u8) << 3
    }

    /// Unpack from the 4-bit hardware encoding; `None` when the
    /// sensitivity bits select a level encoding (see [`Sensitivity`]).
    pub const fn from_bits(bits: u8) -> Option<CounterConfig> {
        match Sensitivity::from_bits(bits) {
            Some(sensitivity) => Some(CounterConfig {
                sensitivity,
                interrupt_enable: bits & 0b100 != 0,
                freeze_on_threshold: bits & 0b1000 != 0,
            }),
            None => None,
        }
    }
}

/// A threshold-crossing interrupt raised by the unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdInterrupt {
    /// Counter slot (0–255) that crossed its threshold.
    pub slot: u8,
    /// The event the slot was counting when it fired.
    pub event: EventId,
    /// Counter value at the moment the interrupt was raised.
    pub value: u64,
    /// The configured threshold.
    pub threshold: u64,
}

// A slot's control byte: the [`CounterConfig`] bits in the low nibble,
// then the fired latch.
/// [`CounterConfig::interrupt_enable`]'s control bit.
const IRQ: u8 = 0b0100;
/// [`CounterConfig::freeze_on_threshold`]'s control bit.
const FREEZE: u8 = 0b1000;
/// The low four control bits: the packed [`CounterConfig`].
const CONFIG_BITS: u8 = 0b1111;
/// Control-byte latch: the slot's threshold fired since it was last
/// armed or cleared.
const FIRED: u8 = 0b1_0000;

/// The Universal Performance Counter unit of one node.
///
/// ```
/// use bgp_upc::Upc;
/// use bgp_arch::events::{CounterMode, CoreEvent};
///
/// let mut upc = Upc::new(CounterMode::Mode0);
/// upc.set_enabled(true);
/// upc.emit(CoreEvent::FpSimdFma.id(0), 42);        // core 0: mode 0 — counted
/// upc.emit(CoreEvent::FpSimdFma.id(2), 99);        // core 2: mode 1 — not wired
/// assert_eq!(upc.read_event(CoreEvent::FpSimdFma.id(0)), Some(42));
/// assert_eq!(upc.read_event(CoreEvent::FpSimdFma.id(2)), None);
/// ```
#[derive(Clone, Debug)]
pub struct Upc {
    mode: CounterMode,
    enabled: bool,
    /// When set, counters clamp at `u64::MAX` instead of wrapping —
    /// the overflow behavior injected by fault plans to model stuck
    /// saturated counters.
    saturating: bool,
    counters: Box<[u64; NUM_COUNTERS]>,
    /// One control byte per slot: the 4-bit [`CounterConfig::to_bits`]
    /// encoding plus the [`FIRED`] latch.
    ctrl: [u8; NUM_COUNTERS],
    /// The threshold bank, built at the first finite
    /// [`Upc::set_threshold`]. Absent, every slot reads `u64::MAX`: a
    /// unit nobody arms never pays for 256 thresholds.
    thresholds: Option<Box<[u64; NUM_COUNTERS]>>,
    pending: Vec<ThresholdInterrupt>,
    /// Total interrupts raised over the unit's lifetime (diagnostics).
    interrupts_raised: u64,
}

impl Default for Upc {
    fn default() -> Self {
        Upc::new(CounterMode::Mode0)
    }
}

impl Upc {
    /// A fresh unit in the given counter mode, disabled, all counters zero.
    pub fn new(mode: CounterMode) -> Upc {
        Upc {
            mode,
            enabled: false,
            saturating: false,
            counters: Box::new([0; NUM_COUNTERS]),
            ctrl: [CounterConfig::default().to_bits(); NUM_COUNTERS],
            thresholds: None,
            pending: Vec::new(),
            interrupts_raised: 0,
        }
    }

    /// The unit-wide counter mode.
    #[inline]
    pub fn mode(&self) -> CounterMode {
        self.mode
    }

    /// Re-program the unit's counter mode. Clears all counters (the
    /// hardware's counts are meaningless across a mode switch).
    pub fn set_mode(&mut self, mode: CounterMode) {
        self.mode = mode;
        self.clear();
    }

    /// Whether the unit is currently counting.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Globally start/stop counting (the unit-level enable).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Zero all counters and re-arm all thresholds (configurations and
    /// threshold values stay).
    pub fn clear(&mut self) {
        self.counters.fill(0);
        for c in &mut self.ctrl {
            *c &= !FIRED;
        }
        self.pending.clear();
    }

    /// Configure one counter slot.
    pub fn configure(&mut self, slot: u8, cfg: CounterConfig) {
        let c = &mut self.ctrl[slot as usize];
        *c = (*c & FIRED) | cfg.to_bits();
    }

    /// Read one counter slot's configuration.
    pub fn config(&self, slot: u8) -> CounterConfig {
        CounterConfig::from_bits(self.ctrl[slot as usize] & CONFIG_BITS)
            .expect("a control byte holds an edge configuration")
    }

    /// Set one counter slot's threshold and re-arm it. `u64::MAX`
    /// disarms it, and never builds the threshold bank.
    pub fn set_threshold(&mut self, slot: u8, threshold: u64) {
        self.ctrl[slot as usize] &= !FIRED;
        if threshold == u64::MAX && self.thresholds.is_none() {
            return;
        }
        let bank = self
            .thresholds
            .get_or_insert_with(|| Box::new([u64::MAX; NUM_COUNTERS]));
        bank[slot as usize] = threshold;
    }

    /// Read one counter slot's threshold.
    #[inline]
    pub(crate) fn threshold(&self, slot: u8) -> u64 {
        self.thresholds
            .as_ref()
            .map_or(u64::MAX, |bank| bank[slot as usize])
    }

    /// Current value of one counter slot.
    #[inline]
    pub fn read(&self, slot: u8) -> u64 {
        self.counters[slot as usize]
    }

    /// Current value of the counter wired to `event`, or `None` if the
    /// event is not observable in the unit's current mode.
    #[inline]
    pub fn read_event(&self, event: EventId) -> Option<u64> {
        (event.mode() == self.mode).then(|| self.read(event.slot().0))
    }

    /// Snapshot of all 256 counters.
    pub fn snapshot(&self) -> [u64; NUM_COUNTERS] {
        *self.counters
    }

    /// Current values of a selection of counter slots, in `slots` order
    /// (live interval sampling for the tracing layer).
    pub fn read_slots(&self, slots: &[u8]) -> Vec<u64> {
        slots.iter().map(|&s| self.read(s)).collect()
    }

    /// Report `pulses` occurrences (signal edges) of `event`.
    ///
    /// Ignored unless the unit is enabled **and** the event belongs to the
    /// unit's current counter mode — exactly like the hardware, where an
    /// event source not selected by the mode simply is not wired to any
    /// counter. Both edge polarities see one transition per pulse.
    #[inline]
    pub fn emit(&mut self, event: EventId, pulses: u64) {
        if !self.enabled || event.mode() != self.mode || pulses == 0 {
            return;
        }
        self.bump(event, event.slot().0 as usize, pulses);
    }

    #[inline]
    fn bump(&mut self, event: EventId, slot: usize, delta: u64) {
        let ctrl = self.ctrl[slot];
        if ctrl & (FREEZE | FIRED) == FREEZE | FIRED {
            return;
        }
        let v = if self.saturating {
            self.counters[slot].saturating_add(delta)
        } else {
            self.counters[slot].wrapping_add(delta)
        };
        self.counters[slot] = v;
        // Only an armed, interrupt-enabled slot reads the bank.
        if ctrl & (IRQ | FIRED) != IRQ {
            return;
        }
        let th = self.threshold(slot as u8);
        if v >= th {
            self.ctrl[slot] |= FIRED;
            self.interrupts_raised += 1;
            self.pending.push(ThresholdInterrupt {
                slot: slot as u8,
                event,
                value: v,
                threshold: th,
            });
        }
    }

    /// Switch overflow behavior: `true` clamps counters at `u64::MAX`,
    /// `false` (the hardware default) wraps. Fault plans use saturating
    /// mode plus a near-`MAX` preset to model stuck counters.
    pub fn set_saturating(&mut self, on: bool) {
        self.saturating = on;
    }

    /// Flip one bit of one counter in place — a fault-injection hook
    /// modeling a single-event upset in the counter SRAM. No-op checks,
    /// no interrupt side effects: the corruption is silent, exactly like
    /// the real thing.
    pub fn flip_bit(&mut self, slot: usize, bit: u32) {
        self.counters[slot % NUM_COUNTERS] ^= 1u64 << (bit % 64);
    }

    /// Preset a counter's raw value: software presetting a counter
    /// through [`regfile::RegFile`], or a fault plan's stuck counter.
    pub fn preset(&mut self, slot: usize, value: u64) {
        self.counters[slot % NUM_COUNTERS] = value;
    }

    /// Drain pending threshold interrupts (oldest first).
    pub fn take_interrupts(&mut self) -> Vec<ThresholdInterrupt> {
        std::mem::take(&mut self.pending)
    }

    /// Total interrupts raised over the unit's lifetime.
    pub fn interrupts_raised(&self) -> u64 {
        self.interrupts_raised
    }

    /// Serialize the unit's complete runtime state (checkpoint support):
    /// mode, enables, all 256 counters and control bytes, the threshold
    /// bank behind a tag (only when one was built), and the pending
    /// threshold-interrupt queue.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        wire::put_u8(out, self.mode.index() as u8);
        wire::put_bool(out, self.enabled);
        wire::put_bool(out, self.saturating);
        for &c in self.counters.iter() {
            wire::put_u64(out, c);
        }
        out.extend_from_slice(&self.ctrl);
        wire::put_bool(out, self.thresholds.is_some());
        for &t in self.thresholds.iter().flat_map(|bank| bank.iter()) {
            wire::put_u64(out, t);
        }
        wire::put_u64(out, self.pending.len() as u64);
        for irq in &self.pending {
            wire::put_u8(out, irq.slot);
            wire::put_u8(out, irq.event.mode().index() as u8);
            wire::put_u8(out, irq.event.slot().0);
            wire::put_u64(out, irq.value);
            wire::put_u64(out, irq.threshold);
        }
        wire::put_u64(out, self.interrupts_raised);
    }

    /// Restore state previously written by [`Upc::save_state`].
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated input, an invalid
    /// mode, a control byte with bits outside the config nibble and the
    /// fired latch or with a level sensitivity (naming its slot), or a
    /// bank tag other than 0 or 1.
    pub fn restore_state(&mut self, r: &mut wire::Reader<'_>) -> Result<()> {
        let mode = r.u8("upc mode")?;
        self.mode = CounterMode::from_index(mode as usize)
            .ok_or_else(|| BgpError::corrupt(format!("invalid counter mode {mode}")))?;
        self.enabled = r.bool("upc enabled")?;
        self.saturating = r.bool("upc saturating")?;
        r.u64_array(&mut self.counters[..], "upc counters")?;
        let ctrl = r.take(NUM_COUNTERS, "upc control bytes")?;
        for (slot, &bits) in ctrl.iter().enumerate() {
            if bits & !(CONFIG_BITS | FIRED) != 0 {
                return Err(BgpError::corrupt(format!(
                    "invalid counter control byte {bits:#x} in slot {slot}"
                )));
            }
            if CounterConfig::from_bits(bits).is_none() {
                return Err(BgpError::corrupt(format!(
                    "level-sensitive counter control byte {bits:#x} in slot {slot}"
                )));
            }
        }
        self.ctrl.copy_from_slice(ctrl);
        self.thresholds = if r.bool("upc threshold-bank tag")? {
            let mut bank = Box::new([0u64; NUM_COUNTERS]);
            r.u64_array(&mut bank[..], "upc thresholds")?;
            Some(bank)
        } else {
            None
        };
        let n_pending = r.u64("upc pending len")?;
        if n_pending > NUM_COUNTERS as u64 {
            return Err(BgpError::corrupt(format!(
                "pending interrupt count {n_pending} exceeds {NUM_COUNTERS}"
            )));
        }
        self.pending.clear();
        for _ in 0..n_pending {
            let slot = r.u8("irq slot")?;
            let mode = r.u8("irq event mode")?;
            let eslot = r.u8("irq event slot")?;
            let mode = CounterMode::from_index(mode as usize)
                .ok_or_else(|| BgpError::corrupt(format!("invalid irq event mode {mode}")))?;
            self.pending.push(ThresholdInterrupt {
                slot,
                event: EventId::new(mode, eslot),
                value: r.u64("irq value")?,
                threshold: r.u64("irq threshold")?,
            });
        }
        self.interrupts_raised = r.u64("upc interrupts raised")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::{CoreEvent, SharedEvent};

    fn enabled_unit(mode: CounterMode) -> Upc {
        let mut u = Upc::new(mode);
        u.set_enabled(true);
        u
    }

    #[test]
    fn counts_only_in_matching_mode() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev0 = CoreEvent::FpFma.id(0); // mode 0
        let ev2 = CoreEvent::FpFma.id(2); // mode 1
        u.emit(ev0, 5);
        u.emit(ev2, 7);
        assert_eq!(u.read_event(ev0), Some(5));
        assert_eq!(u.read_event(ev2), None, "core 2 events invisible in mode 0");
        // The slot it would share in mode 1 holds only the mode-0 count.
        assert_eq!(u.read(ev2.slot().0), 5);
    }

    #[test]
    fn disabled_unit_counts_nothing() {
        let mut u = Upc::new(CounterMode::Mode2);
        u.emit(SharedEvent::DdrRead0.id(), 100);
        assert_eq!(u.read_event(SharedEvent::DdrRead0.id()), Some(0));
        u.set_enabled(true);
        u.emit(SharedEvent::DdrRead0.id(), 100);
        assert_eq!(u.read_event(SharedEvent::DdrRead0.id()), Some(100));
    }

    #[test]
    fn mode_switch_clears_counters() {
        let mut u = enabled_unit(CounterMode::Mode2);
        u.emit(SharedEvent::L3Hit0.id(), 3);
        u.set_mode(CounterMode::Mode3);
        assert_eq!(u.read(SharedEvent::L3Hit0.id().slot().0), 0);
    }

    #[test]
    fn threshold_fires_once_per_arm() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev = CoreEvent::L1dMiss.id(1);
        u.configure(
            ev.slot().0,
            CounterConfig {
                interrupt_enable: true,
                ..Default::default()
            },
        );
        u.set_threshold(ev.slot().0, 10);
        u.emit(ev, 9);
        assert!(u.take_interrupts().is_empty());
        u.emit(ev, 2); // crosses 10 at 11
        let irqs = u.take_interrupts();
        assert_eq!(irqs.len(), 1);
        assert_eq!(irqs[0].value, 11);
        assert_eq!(irqs[0].threshold, 10);
        assert_eq!(irqs[0].event, ev);
        // No retrigger while armed-fired.
        u.emit(ev, 100);
        assert!(u.take_interrupts().is_empty());
        // Re-arming restores it.
        u.set_threshold(ev.slot().0, 200);
        u.emit(ev, 100); // 211 >= 200
        assert_eq!(u.take_interrupts().len(), 1);
        assert_eq!(u.interrupts_raised(), 2);
    }

    #[test]
    fn threshold_without_interrupt_enable_is_silent() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev = CoreEvent::L1dMiss.id(0);
        u.set_threshold(ev.slot().0, 1);
        u.emit(ev, 10);
        assert!(u.take_interrupts().is_empty());
    }

    #[test]
    fn freeze_on_threshold_stops_the_counter() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev = CoreEvent::Load.id(0);
        u.configure(
            ev.slot().0,
            CounterConfig {
                interrupt_enable: true,
                freeze_on_threshold: true,
                ..Default::default()
            },
        );
        u.set_threshold(ev.slot().0, 5);
        u.emit(ev, 7);
        assert_eq!(u.read_event(ev), Some(7));
        u.emit(ev, 100);
        assert_eq!(u.read_event(ev), Some(7), "frozen after firing");
    }

    #[test]
    fn frozen_counter_rearms_and_refreezes() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev = CoreEvent::Load.id(0);
        let slot = ev.slot().0;
        u.configure(
            slot,
            CounterConfig {
                interrupt_enable: true,
                freeze_on_threshold: true,
                ..Default::default()
            },
        );
        u.set_threshold(slot, 5);
        u.emit(ev, 7);
        assert_eq!(u.take_interrupts().len(), 1);
        u.emit(ev, 100);
        assert_eq!(u.read_event(ev), Some(7), "frozen after firing");
        // Re-arming with a new threshold thaws the frozen counter...
        u.set_threshold(slot, 50);
        u.emit(ev, 10);
        assert_eq!(u.read_event(ev), Some(17), "counting resumed on re-arm");
        // ...and the threshold can fire — and freeze — again.
        u.emit(ev, 40); // 57 >= 50
        let irqs = u.take_interrupts();
        assert_eq!(irqs.len(), 1);
        assert_eq!(irqs[0].value, 57);
        u.emit(ev, 1);
        assert_eq!(u.read_event(ev), Some(57), "frozen again after refire");
        // clear() zeroes and re-arms everything at once.
        u.clear();
        u.emit(ev, 3);
        assert_eq!(u.read_event(ev), Some(3));
        assert_eq!(u.interrupts_raised(), 2);
    }

    #[test]
    fn batched_crossings_queue_in_emission_order() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let evs = [
            CoreEvent::L1dMiss.id(0),
            CoreEvent::FpFma.id(1),
            CoreEvent::Load.id(0),
        ];
        for ev in evs {
            u.configure(
                ev.slot().0,
                CounterConfig {
                    interrupt_enable: true,
                    ..Default::default()
                },
            );
            u.set_threshold(ev.slot().0, 10);
        }
        // One batched slice the way the memory engine retires one:
        // aggregated pulse totals land slot by slot. Two slots cross,
        // the middle one stays below threshold.
        u.emit(evs[2], 1000);
        u.emit(evs[1], 9);
        u.emit(evs[0], 12);
        let irqs = u.take_interrupts();
        assert_eq!(irqs.len(), 2, "only crossing slots raise interrupts");
        assert_eq!(irqs[0].event, evs[2], "queue order is emission order");
        assert_eq!(
            irqs[0].value, 1000,
            "a batch that overshoots reports the post-batch value"
        );
        assert_eq!(irqs[1].event, evs[0]);
        assert_eq!(irqs[1].value, 12);
    }

    #[test]
    fn take_interrupts_drains_completely_between_batches() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev = CoreEvent::L1dMiss.id(1);
        let slot = ev.slot().0;
        u.configure(
            slot,
            CounterConfig {
                interrupt_enable: true,
                ..Default::default()
            },
        );
        u.set_threshold(slot, 4);
        u.emit(ev, 4);
        let first = u.take_interrupts();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].value, 4, "fires on reaching the threshold exactly");
        assert!(u.take_interrupts().is_empty(), "drain is destructive");
        // Still counting (no freeze bit), but no refire while armed-fired...
        u.emit(ev, 100);
        assert!(u.take_interrupts().is_empty());
        // ...until re-armed: the next batch queues a fresh interrupt.
        u.set_threshold(slot, 105);
        u.emit(ev, 1); // 105 >= 105
        let second = u.take_interrupts();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].value, 105);
        assert_eq!(u.interrupts_raised(), 2);
    }

    #[test]
    fn config_bits_round_trip_and_level_encodings_are_refused() {
        for bits in 0..16u8 {
            match bits & 0b11 {
                0b01 | 0b10 => {
                    assert_eq!(CounterConfig::from_bits(bits).unwrap().to_bits(), bits)
                }
                _ => assert_eq!(CounterConfig::from_bits(bits), None, "bits {bits:#06b}"),
            }
        }
    }

    #[test]
    fn counters_are_64_bit_and_wrap() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev = CoreEvent::CycleCount.id(0);
        u.emit(ev, u64::MAX);
        u.emit(ev, 2);
        assert_eq!(u.read_event(ev), Some(1), "wrapping add like hardware");
    }

    #[test]
    fn saturating_mode_clamps_at_max() {
        let mut u = enabled_unit(CounterMode::Mode0);
        u.set_saturating(true);
        let ev = CoreEvent::CycleCount.id(0);
        u.emit(ev, u64::MAX);
        u.emit(ev, 2);
        assert_eq!(u.read_event(ev), Some(u64::MAX), "clamped, not wrapped");
    }

    #[test]
    fn flip_bit_corrupts_exactly_one_bit() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev = CoreEvent::CycleCount.id(0);
        u.emit(ev, 0b1000);
        u.flip_bit(ev.slot().0 as usize, 1);
        assert_eq!(u.read_event(ev), Some(0b1010));
        u.flip_bit(ev.slot().0 as usize, 1);
        assert_eq!(u.read_event(ev), Some(0b1000), "second flip restores");
    }

    #[test]
    fn save_restore_round_trips_full_unit_state() {
        let mut u = enabled_unit(CounterMode::Mode0);
        u.set_saturating(true);
        let ev = CoreEvent::L1dMiss.id(1);
        u.configure(
            ev.slot().0,
            CounterConfig {
                interrupt_enable: true,
                ..Default::default()
            },
        );
        u.set_threshold(ev.slot().0, 3);
        u.emit(ev, 5); // fires an interrupt, leaves it pending
        u.emit(CoreEvent::Load.id(0), 17);

        let mut bytes = Vec::new();
        u.save_state(&mut bytes);
        let mut restored = Upc::new(CounterMode::Mode3);
        let mut r = bgp_arch::wire::Reader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        r.expect_end("upc state").unwrap();

        assert_eq!(restored.mode(), CounterMode::Mode0);
        assert!(restored.enabled());
        assert!(restored.saturating);
        assert_eq!(restored.snapshot(), u.snapshot());
        assert_eq!(restored.config(ev.slot().0), u.config(ev.slot().0));
        assert_eq!(restored.threshold(ev.slot().0), 3);
        assert_eq!(restored.interrupts_raised(), 1);
        assert_eq!(restored.take_interrupts(), u.take_interrupts());

        // Truncation at every byte boundary fails closed.
        for cut in 0..bytes.len() {
            let mut r = bgp_arch::wire::Reader::new(&bytes[..cut]);
            assert!(
                Upc::default().restore_state(&mut r).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    fn saved(u: &Upc) -> Vec<u8> {
        let mut bytes = Vec::new();
        u.save_state(&mut bytes);
        bytes
    }

    fn restored(bytes: &[u8]) -> Upc {
        let mut u = Upc::default();
        let mut r = bgp_arch::wire::Reader::new(bytes);
        u.restore_state(&mut r).unwrap();
        r.expect_end("upc state").unwrap();
        u
    }

    /// A unit saves the threshold bank it holds: none when it was never
    /// armed, all 256 thresholds once one was, even after every slot was
    /// disarmed again. Each restores as it was saved, and neither fires.
    #[test]
    fn a_bank_is_saved_only_when_built_and_restores_as_saved() {
        let irq = CounterConfig {
            interrupt_enable: true,
            ..Default::default()
        };
        let mut never = enabled_unit(CounterMode::Mode0);
        let mut disarmed = enabled_unit(CounterMode::Mode0);
        for u in [&mut never, &mut disarmed] {
            for slot in 0..=255u8 {
                u.configure(slot, irq);
            }
        }
        assert!(never.thresholds.is_none(), "configuring arms nothing");
        for slot in 0..=255u8 {
            disarmed.set_threshold(slot, slot as u64 + 1);
            disarmed.set_threshold(slot, u64::MAX);
        }
        never.set_threshold(7, u64::MAX);
        assert!(never.thresholds.is_none(), "a disarm never builds the bank");
        let (lazy, built) = (saved(&never), saved(&disarmed));
        assert_eq!(
            built.len(),
            lazy.len() + NUM_COUNTERS * 8,
            "only the built bank is written"
        );
        for (bytes, has_bank) in [(&lazy, false), (&built, true)] {
            let mut u = restored(bytes);
            assert_eq!(u.thresholds.is_some(), has_bank);
            assert_eq!(&saved(&u), bytes);
            assert!((0..=255u8).all(|s| u.threshold(s) == u64::MAX));
            for &ev in CoreEvent::ALL {
                u.emit(ev.id(0), 1 << 40);
            }
            assert!(u.take_interrupts().is_empty(), "nothing fires");
            assert_eq!(u.interrupts_raised(), 0);
        }
    }

    /// The control bytes are written packed, so a byte with bits past the
    /// config nibble and the fired latch is refused, as is a level
    /// sensitivity (`0b00`, `0b11`: no saved unit holds one) and a bank
    /// tag other than 0 or 1, which names its field.
    #[test]
    fn restore_refuses_bad_control_bytes_and_bank_tags() {
        let bytes = saved(&enabled_unit(CounterMode::Mode1));
        let ctrl_at = 3 + NUM_COUNTERS * 8;
        let mut fired = bytes.clone();
        fired[ctrl_at + 9] = 0b1_0101;
        assert_eq!(restored(&fired).ctrl[9], 0b1_0101, "a fired latch restores");
        let mut bad = bytes.clone();
        bad[ctrl_at + 9] = 0b10_0000;
        let err = Upc::default()
            .restore_state(&mut wire::Reader::new(&bad))
            .unwrap_err();
        assert!(
            err.to_string().contains("control byte 0x20 in slot 9"),
            "{err}"
        );
        for level in [0b00u8, 0b11] {
            let mut bad = bytes.clone();
            bad[ctrl_at + 9] = level;
            let err = Upc::default()
                .restore_state(&mut wire::Reader::new(&bad))
                .unwrap_err();
            let want = format!("level-sensitive counter control byte {level:#x} in slot 9");
            assert!(err.to_string().contains(&want), "{err}");
        }
        let mut tag = bytes.clone();
        tag[ctrl_at + NUM_COUNTERS] = 2;
        let err = Upc::default()
            .restore_state(&mut wire::Reader::new(&tag))
            .unwrap_err();
        assert!(err.to_string().contains("threshold-bank tag"), "{err}");
    }

    #[test]
    fn restored_armed_bank_fires_at_the_original_count() {
        let ev = CoreEvent::L1dMiss.id(1);
        let slot = ev.slot().0;
        let mut u = enabled_unit(CounterMode::Mode0);
        u.configure(
            slot,
            CounterConfig {
                interrupt_enable: true,
                ..Default::default()
            },
        );
        u.set_threshold(slot, 40);
        u.emit(ev, 25);
        let mut r = restored(&saved(&u));
        assert_eq!(r.threshold(slot), 40);
        assert!((0..=255u8)
            .filter(|&s| s != slot)
            .all(|s| r.threshold(s) == u64::MAX));
        for step in 0..5 {
            u.emit(ev, 4);
            r.emit(ev, 4);
            assert_eq!(u.take_interrupts(), r.take_interrupts(), "step {step}");
        }
        assert_eq!(u.interrupts_raised(), 1, "fired once, at 41");
        assert_eq!(r.interrupts_raised(), 1);
        assert_eq!(saved(&u), saved(&r));
    }

    #[test]
    fn clear_resets_only_the_fired_latches() {
        let ev = CoreEvent::Load.id(0);
        let slot = ev.slot().0;
        let cfg = CounterConfig {
            sensitivity: Sensitivity::EdgeFall,
            interrupt_enable: true,
            freeze_on_threshold: true,
        };
        let mut u = enabled_unit(CounterMode::Mode0);
        u.configure(slot, cfg);
        u.set_threshold(slot, 5);
        u.emit(ev, 9);
        assert_eq!(u.take_interrupts().len(), 1);
        u.clear();
        assert_eq!(u.config(slot), cfg, "configuration survives clear");
        assert_eq!(u.threshold(slot), 5, "threshold survives clear");
        u.emit(ev, 5);
        assert_eq!(u.take_interrupts().len(), 1, "the latch re-armed");
        u.emit(ev, 5);
        assert_eq!(u.read_event(ev), Some(5), "and freezes again");
    }

    #[test]
    fn preset_overwrites_raw_value() {
        let mut u = enabled_unit(CounterMode::Mode0);
        let ev = CoreEvent::CycleCount.id(0);
        u.preset(ev.slot().0 as usize, u64::MAX - 10);
        u.set_saturating(true);
        u.emit(ev, 100);
        assert_eq!(u.read_event(ev), Some(u64::MAX));
    }
}
