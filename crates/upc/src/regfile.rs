//! Memory-mapped register file of the UPC unit.
//!
//! On the real chip every counter and configuration register of the UPC
//! module is mapped into the node's physical address space, which is what
//! allows "a single monitoring thread executing as part of a system
//! service, or as part of an application" to read the counters of all
//! cores (paper §I). [`RegFile`] wraps a [`Upc`] and exposes exactly that
//! view: 64-bit loads and stores at fixed offsets drive the unit.
//!
//! ## Register map (offsets in bytes from the unit base)
//!
//! | offset            | register                                  |
//! |-------------------|-------------------------------------------|
//! | `0x0000`–`0x07f8` | counters 0–255 (read; write = set value)  |
//! | `0x0800`–`0x0ff8` | thresholds 0–255                          |
//! | `0x1000`–`0x17f8` | per-counter config (low 4 bits used)      |
//! | `0x1800`          | control: bit0 = enable, bits1–2 = mode    |
//! | `0x1808`          | interrupt status: pending interrupt count |

use crate::{CounterConfig, Upc};
use bgp_arch::events::CounterMode;

/// Base offset of the counter array.
pub(crate) const OFF_COUNTERS: u64 = 0x0000;
/// Base offset of the threshold array.
pub const OFF_THRESHOLDS: u64 = 0x0800;
/// Base offset of the per-counter configuration array.
pub const OFF_CONFIGS: u64 = 0x1000;
/// Offset of the unit control register.
pub const OFF_CONTROL: u64 = 0x1800;
/// Offset of the interrupt-status register.
pub(crate) const OFF_IRQ_STATUS: u64 = 0x1808;
/// One past the highest mapped offset.
pub(crate) const MAP_SIZE: u64 = 0x1810;

/// Memory-mapped access to a [`Upc`].
///
/// The wrapper borrows the unit mutably for the duration of a register
/// transaction, the way a memory-mapped load/store owns the bus cycle.
pub struct RegFile<'a> {
    upc: &'a mut Upc,
}

impl<'a> RegFile<'a> {
    /// Map the register file over a UPC unit.
    pub fn new(upc: &'a mut Upc) -> RegFile<'a> {
        RegFile { upc }
    }

    /// 64-bit load from `offset`. Returns `None` for unmapped or
    /// misaligned offsets (the real bus would machine-check).
    pub fn load(&mut self, offset: u64) -> Option<u64> {
        if !offset.is_multiple_of(8) || offset >= MAP_SIZE {
            return None;
        }
        Some(match offset {
            OFF_CONTROL => (self.upc.enabled() as u64) | (self.upc.mode().index() as u64) << 1,
            OFF_IRQ_STATUS => self.upc.take_interrupts().len() as u64,
            o if o >= OFF_CONFIGS => {
                let slot = ((o - OFF_CONFIGS) / 8) as u8;
                self.upc.config(slot).to_bits() as u64
            }
            o if o >= OFF_THRESHOLDS => {
                let slot = ((o - OFF_THRESHOLDS) / 8) as u8;
                self.upc.threshold(slot)
            }
            o => self.upc.read(((o - OFF_COUNTERS) / 8) as u8),
        })
    }

    /// 64-bit store to `offset`. Returns `false` for unmapped or
    /// misaligned offsets, and for a level-sensitive configuration (see
    /// [`CounterConfig::from_bits`]), which leaves the slot's
    /// configuration unchanged.
    pub fn store(&mut self, offset: u64, value: u64) -> bool {
        if !offset.is_multiple_of(8) || offset >= MAP_SIZE {
            return false;
        }
        match offset {
            OFF_CONTROL => {
                let mode = CounterMode::from_index(((value >> 1) & 0b11) as usize)
                    .expect("2-bit mode is always valid");
                if mode != self.upc.mode() {
                    self.upc.set_mode(mode);
                }
                self.upc.set_enabled(value & 1 != 0);
            }
            OFF_IRQ_STATUS => {
                // Write-one-to-clear semantics.
                self.upc.take_interrupts();
            }
            o if o >= OFF_CONFIGS => {
                let slot = ((o - OFF_CONFIGS) / 8) as u8;
                match CounterConfig::from_bits((value & 0xf) as u8) {
                    Some(cfg) => self.upc.configure(slot, cfg),
                    None => return false,
                }
            }
            o if o >= OFF_THRESHOLDS => {
                let slot = ((o - OFF_THRESHOLDS) / 8) as u8;
                self.upc.set_threshold(slot, value);
            }
            // Counters are writable so software can preset them.
            o => self.upc.preset(((o - OFF_COUNTERS) / 8) as usize, value),
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::{CoreEvent, Sensitivity};

    #[test]
    fn control_register_drives_enable_and_mode() {
        let mut upc = Upc::new(CounterMode::Mode0);
        let mut rf = RegFile::new(&mut upc);
        rf.store(OFF_CONTROL, 0b101); // enable, mode 2
        assert_eq!(rf.load(OFF_CONTROL), Some(0b101));
        assert!(upc.enabled());
        assert_eq!(upc.mode(), CounterMode::Mode2);
    }

    #[test]
    fn counters_and_thresholds_read_back() {
        let mut upc = Upc::new(CounterMode::Mode0);
        upc.set_enabled(true);
        let ev = CoreEvent::FpFma.id(0);
        upc.emit(ev, 42);
        let slot = ev.slot().0 as u64;
        let mut rf = RegFile::new(&mut upc);
        assert_eq!(rf.load(OFF_COUNTERS + slot * 8), Some(42));
        rf.store(OFF_THRESHOLDS + slot * 8, 99);
        assert_eq!(rf.load(OFF_THRESHOLDS + slot * 8), Some(99));
        // Presetting the counter through the map.
        rf.store(OFF_COUNTERS + slot * 8, 7);
        assert_eq!(rf.load(OFF_COUNTERS + slot * 8), Some(7));
    }

    #[test]
    fn config_stores_keep_only_low_bits_and_refuse_level_sensitivity() {
        let mut upc = Upc::new(CounterMode::Mode0);
        let mut rf = RegFile::new(&mut upc);
        let at = OFF_CONFIGS + 5 * 8;
        assert!(rf.store(at, 0xffff_fff6));
        assert_eq!(rf.load(at), Some(0x6));
        // Level-low (0b11) and level-high (0b00) are refused and leave
        // the slot's edge-fall, interrupt-enabled config in place.
        assert!(!rf.store(at, 0xffff_fff3));
        assert!(!rf.store(at, 0x8));
        assert_eq!(rf.load(at), Some(0x6));
        assert_eq!(upc.config(5).sensitivity, Sensitivity::EdgeFall);
        assert!(upc.config(5).interrupt_enable);
    }

    #[test]
    fn misaligned_or_out_of_range_access_faults() {
        let mut upc = Upc::default();
        let mut rf = RegFile::new(&mut upc);
        assert_eq!(rf.load(4), None);
        assert_eq!(rf.load(MAP_SIZE), None);
        assert!(!rf.store(12, 0));
        assert!(!rf.store(MAP_SIZE + 8, 0));
    }

    #[test]
    fn irq_status_reports_and_clears() {
        let mut upc = Upc::new(CounterMode::Mode0);
        upc.set_enabled(true);
        let ev = CoreEvent::L1dMiss.id(0);
        upc.configure(
            ev.slot().0,
            CounterConfig {
                interrupt_enable: true,
                ..Default::default()
            },
        );
        upc.set_threshold(ev.slot().0, 1);
        upc.emit(ev, 3);
        let mut rf = RegFile::new(&mut upc);
        assert_eq!(rf.load(OFF_IRQ_STATUS), Some(1));
        // Reading drained the queue.
        assert_eq!(rf.load(OFF_IRQ_STATUS), Some(0));
    }
}
