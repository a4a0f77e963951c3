//! Binary round-trip codec for trace events and recorder state
//! (checkpoint support).
//!
//! The Chrome-trace/CSV exporters are render-only; checkpointing needs
//! the retained rings back **exactly**, so a resumed job's exported
//! trace is byte-identical to an uninterrupted run's. Every
//! [`EventKind`] variant gets a stable one-byte tag; decoding is strict
//! and fail-closed — an unknown tag or truncated payload is
//! [`bgp_arch::BgpError::Corrupt`], never a best-effort partial event.

use crate::{EventKind, FaultEvent, Recorder, TraceEvent, TraceState, WaitKind};
use bgp_arch::error::Result;
use bgp_arch::wire::{put_bool, put_u32, put_u64, put_u8, Reader};
use bgp_arch::BgpError;

const TAG_PHASE_RESOLVE: u8 = 0;
const TAG_MSG_DELIVER: u8 = 1;
const TAG_COLL_COMPLETE: u8 = 2;
const TAG_RANK_PARK: u8 = 3;
const TAG_RANK_WAKE: u8 = 4;
const TAG_MSG_SEND: u8 = 5;
const TAG_SESSION_INIT: u8 = 6;
const TAG_SESSION_START: u8 = 7;
const TAG_SESSION_STOP: u8 = 8;
const TAG_SESSION_FINALIZE: u8 = 9;
const TAG_COUNTER_DUMP: u8 = 10;
const TAG_COUNTER_SAMPLE: u8 = 11;
const TAG_MEM_WINDOW: u8 = 12;
const TAG_FAULT: u8 = 13;
const TAG_THRESHOLD_INTERRUPT: u8 = 14;
const TAG_COUNTER_ROTATE: u8 = 15;

const FAULT_STRAGGLER: u8 = 0;
const FAULT_ROUTER: u8 = 1;
const FAULT_BITFLIP: u8 = 2;
const FAULT_SATURATE: u8 = 3;

/// Append `ev` to `out` in the stable binary encoding.
pub fn encode_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    put_u64(out, ev.cycle);
    match &ev.kind {
        EventKind::PhaseResolve {
            phase,
            delivered,
            delivered_bytes,
            woken,
            collectives,
            peak_link_bytes,
            links_loaded,
        } => {
            put_u8(out, TAG_PHASE_RESOLVE);
            for v in [phase, delivered, delivered_bytes, woken, collectives, peak_link_bytes, links_loaded] {
                put_u64(out, *v);
            }
        }
        EventKind::MsgDeliver { src, dst, tag, bytes, queue_cycles } => {
            put_u8(out, TAG_MSG_DELIVER);
            put_u32(out, *src);
            put_u32(out, *dst);
            put_u32(out, *tag);
            put_u64(out, *bytes);
            put_u64(out, *queue_cycles);
        }
        EventKind::CollComplete { slot } => {
            put_u8(out, TAG_COLL_COMPLETE);
            put_u8(out, *slot);
        }
        EventKind::RankPark { wait } => {
            put_u8(out, TAG_RANK_PARK);
            match wait {
                WaitKind::Recv { src, tag } => {
                    put_u8(out, 0);
                    put_bool(out, src.is_some());
                    put_u32(out, src.unwrap_or(0));
                    put_u32(out, *tag);
                }
                WaitKind::Collective { slot } => {
                    put_u8(out, 1);
                    put_u8(out, *slot);
                }
            }
        }
        EventKind::RankWake => put_u8(out, TAG_RANK_WAKE),
        EventKind::MsgSend { dst, tag, bytes } => {
            put_u8(out, TAG_MSG_SEND);
            put_u32(out, *dst);
            put_u32(out, *tag);
            put_u64(out, *bytes);
        }
        EventKind::SessionInit => put_u8(out, TAG_SESSION_INIT),
        EventKind::SessionStart { set } => {
            put_u8(out, TAG_SESSION_START);
            put_u32(out, *set);
        }
        EventKind::SessionStop { set } => {
            put_u8(out, TAG_SESSION_STOP);
            put_u32(out, *set);
        }
        EventKind::SessionFinalize => put_u8(out, TAG_SESSION_FINALIZE),
        EventKind::CounterDump { bytes } => {
            put_u8(out, TAG_COUNTER_DUMP);
            put_u64(out, *bytes);
        }
        EventKind::CounterSample { slot, value } => {
            put_u8(out, TAG_COUNTER_SAMPLE);
            put_u8(out, *slot);
            put_u64(out, *value);
        }
        EventKind::MemWindow { window, l3_hits, l3_misses, ddr_reads, ddr_writes } => {
            put_u8(out, TAG_MEM_WINDOW);
            for v in [window, l3_hits, l3_misses, ddr_reads, ddr_writes] {
                put_u64(out, *v);
            }
        }
        EventKind::ThresholdInterrupt { node, slot, value, threshold } => {
            put_u8(out, TAG_THRESHOLD_INTERRUPT);
            put_u32(out, *node);
            put_u8(out, *slot);
            put_u64(out, *value);
            put_u64(out, *threshold);
        }
        EventKind::CounterRotate { node, from, to, phase, dwell } => {
            put_u8(out, TAG_COUNTER_ROTATE);
            put_u32(out, *node);
            put_u8(out, *from);
            put_u8(out, *to);
            put_u64(out, *phase);
            put_u64(out, *dwell);
        }
        EventKind::Fault(f) => {
            put_u8(out, TAG_FAULT);
            match f {
                FaultEvent::Straggler { penalty_cycles } => {
                    put_u8(out, FAULT_STRAGGLER);
                    put_u64(out, *penalty_cycles);
                }
                FaultEvent::RouterDegraded => put_u8(out, FAULT_ROUTER),
                FaultEvent::CounterBitFlip { slot, bit } => {
                    put_u8(out, FAULT_BITFLIP);
                    put_u64(out, u64::from(*slot));
                    put_u32(out, *bit);
                }
                FaultEvent::CounterSaturate { slot } => {
                    put_u8(out, FAULT_SATURATE);
                    put_u64(out, u64::from(*slot));
                }
            }
        }
    }
}

/// Decode one event previously written by [`encode_event`].
///
/// # Errors
/// [`bgp_arch::BgpError::Corrupt`] on truncation or an unknown tag.
pub fn decode_event(r: &mut Reader<'_>) -> Result<TraceEvent> {
    let cycle = r.u64("event cycle")?;
    let tag = r.u8("event tag")?;
    let kind = match tag {
        TAG_PHASE_RESOLVE => EventKind::PhaseResolve {
            phase: r.u64("pr phase")?,
            delivered: r.u64("pr delivered")?,
            delivered_bytes: r.u64("pr delivered_bytes")?,
            woken: r.u64("pr woken")?,
            collectives: r.u64("pr collectives")?,
            peak_link_bytes: r.u64("pr peak_link_bytes")?,
            links_loaded: r.u64("pr links_loaded")?,
        },
        TAG_MSG_DELIVER => EventKind::MsgDeliver {
            src: r.u32("md src")?,
            dst: r.u32("md dst")?,
            tag: r.u32("md tag")?,
            bytes: r.u64("md bytes")?,
            queue_cycles: r.u64("md queue_cycles")?,
        },
        TAG_COLL_COMPLETE => EventKind::CollComplete { slot: r.u8("cc slot")? },
        TAG_RANK_PARK => {
            let wk = r.u8("park wait kind")?;
            let wait = match wk {
                0 => {
                    let has_src = r.bool("park src some")?;
                    let src = r.u32("park src")?;
                    WaitKind::Recv { src: has_src.then_some(src), tag: r.u32("park tag")? }
                }
                1 => WaitKind::Collective { slot: r.u8("park slot")? },
                other => {
                    return Err(BgpError::corrupt(format!("unknown wait kind {other}")))
                }
            };
            EventKind::RankPark { wait }
        }
        TAG_RANK_WAKE => EventKind::RankWake,
        TAG_MSG_SEND => EventKind::MsgSend {
            dst: r.u32("ms dst")?,
            tag: r.u32("ms tag")?,
            bytes: r.u64("ms bytes")?,
        },
        TAG_SESSION_INIT => EventKind::SessionInit,
        TAG_SESSION_START => EventKind::SessionStart { set: r.u32("ss set")? },
        TAG_SESSION_STOP => EventKind::SessionStop { set: r.u32("ss set")? },
        TAG_SESSION_FINALIZE => EventKind::SessionFinalize,
        TAG_COUNTER_DUMP => EventKind::CounterDump { bytes: r.u64("cd bytes")? },
        TAG_COUNTER_SAMPLE => {
            EventKind::CounterSample { slot: r.u8("cs slot")?, value: r.u64("cs value")? }
        }
        TAG_MEM_WINDOW => EventKind::MemWindow {
            window: r.u64("mw window")?,
            l3_hits: r.u64("mw l3_hits")?,
            l3_misses: r.u64("mw l3_misses")?,
            ddr_reads: r.u64("mw ddr_reads")?,
            ddr_writes: r.u64("mw ddr_writes")?,
        },
        TAG_THRESHOLD_INTERRUPT => EventKind::ThresholdInterrupt {
            node: r.u32("ti node")?,
            slot: r.u8("ti slot")?,
            value: r.u64("ti value")?,
            threshold: r.u64("ti threshold")?,
        },
        TAG_COUNTER_ROTATE => EventKind::CounterRotate {
            node: r.u32("cr node")?,
            from: r.u8("cr from")?,
            to: r.u8("cr to")?,
            phase: r.u64("cr phase")?,
            dwell: r.u64("cr dwell")?,
        },
        TAG_FAULT => {
            let fk = r.u8("fault kind")?;
            let fault = match fk {
                FAULT_STRAGGLER => {
                    FaultEvent::Straggler { penalty_cycles: r.u64("fs penalty")? }
                }
                FAULT_ROUTER => FaultEvent::RouterDegraded,
                FAULT_BITFLIP => {
                    let slot = r.u64("fb slot")?;
                    let slot = u16::try_from(slot).map_err(|_| {
                        BgpError::corrupt(format!("fault slot {slot} out of range"))
                    })?;
                    FaultEvent::CounterBitFlip { slot, bit: r.u32("fb bit")? }
                }
                FAULT_SATURATE => {
                    let slot = r.u64("fsat slot")?;
                    let slot = u16::try_from(slot).map_err(|_| {
                        BgpError::corrupt(format!("fault slot {slot} out of range"))
                    })?;
                    FaultEvent::CounterSaturate { slot }
                }
                other => {
                    return Err(BgpError::corrupt(format!("unknown fault kind {other}")))
                }
            };
            EventKind::Fault(fault)
        }
        other => return Err(BgpError::corrupt(format!("unknown event tag {other}"))),
    };
    Ok(TraceEvent { cycle, kind })
}

impl Recorder {
    /// Serialize the retained events and the drop counter (checkpoint
    /// support). The ring capacity is configuration and is not captured.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        let events = self.events();
        put_u64(out, events.len() as u64);
        for e in &events {
            encode_event(e, out);
        }
        put_u64(out, self.dropped());
    }

    /// Restore events previously written by [`Recorder::save_state`].
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated or malformed input.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let n = r.u64("recorder event count")?;
        // Each event is ≥ 9 bytes; reject counts the input cannot hold.
        if n > (r.remaining() as u64) / 9 {
            return Err(BgpError::corrupt(format!("recorder claims {n} events")));
        }
        let mut events = Vec::with_capacity(n as usize);
        for _ in 0..n {
            events.push(decode_event(r)?);
        }
        let dropped = r.u64("recorder dropped")?;
        self.ring.restore(events, dropped);
        Ok(())
    }
}

impl TraceState {
    /// Serialize every retained stream — the rank rings of a traced job
    /// (an untraced job keeps none and writes a count of 0), then the
    /// scheduler ring (checkpoint support). The configuration is **not**
    /// captured: it is part of the job spec the resumed job is built
    /// from.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        let ranks = self.ranks.as_deref().unwrap_or_default();
        put_u64(out, ranks.len() as u64);
        for rec in ranks {
            rec.lock().save_state(out);
        }
        self.sched.lock().save_state(out);
    }

    /// Restore the streams written by [`TraceState::save_state`].
    ///
    /// # Errors
    /// [`bgp_arch::BgpError::Corrupt`] on truncated or malformed input,
    /// or a rank-ring count other than this job's: its rank count when
    /// traced, 0 when not.
    pub fn restore_state(&self, r: &mut Reader<'_>) -> Result<()> {
        let ranks = self.ranks.as_deref().unwrap_or_default();
        let n = r.u64("trace rank-ring count")?;
        if n != ranks.len() as u64 {
            return Err(BgpError::corrupt(format!(
                "trace rank-ring count {n} does not match the job's {} \
                 (an untraced job keeps none)",
                ranks.len()
            )));
        }
        for rec in ranks {
            rec.lock().restore_state(r)?;
        }
        self.sched.lock().restore_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplars() -> Vec<TraceEvent> {
        let kinds = vec![
            EventKind::PhaseResolve {
                phase: 3,
                delivered: 9,
                delivered_bytes: 4096,
                woken: 7,
                collectives: 1,
                peak_link_bytes: 512,
                links_loaded: 6,
            },
            EventKind::MsgDeliver { src: 1, dst: 2, tag: 77, bytes: 640, queue_cycles: 12 },
            EventKind::CollComplete { slot: 1 },
            EventKind::RankPark { wait: WaitKind::Recv { src: Some(4), tag: 9 } },
            EventKind::RankPark { wait: WaitKind::Recv { src: None, tag: 0 } },
            EventKind::RankPark { wait: WaitKind::Collective { slot: 0 } },
            EventKind::RankWake,
            EventKind::MsgSend { dst: 5, tag: 3, bytes: 32 },
            EventKind::SessionInit,
            EventKind::SessionStart { set: 2 },
            EventKind::SessionStop { set: 2 },
            EventKind::SessionFinalize,
            EventKind::CounterDump { bytes: 2120 },
            EventKind::CounterSample { slot: 200, value: u64::MAX },
            EventKind::MemWindow { window: 8, l3_hits: 1, l3_misses: 2, ddr_reads: 3, ddr_writes: 4 },
            EventKind::ThresholdInterrupt { node: 9, slot: 140, value: 4096, threshold: 1024 },
            EventKind::CounterRotate { node: 9, from: 2, to: 3, phase: 88, dwell: 16 },
            EventKind::Fault(FaultEvent::Straggler { penalty_cycles: 5000 }),
            EventKind::Fault(FaultEvent::RouterDegraded),
            EventKind::Fault(FaultEvent::CounterBitFlip { slot: 255, bit: 31 }),
            EventKind::Fault(FaultEvent::CounterSaturate { slot: 17 }),
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent { cycle: i as u64 * 1000 + 5, kind })
            .collect()
    }

    #[test]
    fn every_event_kind_round_trips() {
        for ev in exemplars() {
            let mut bytes = Vec::new();
            encode_event(&ev, &mut bytes);
            let mut r = Reader::new(&bytes);
            let back = decode_event(&mut r).unwrap();
            assert_eq!(back, ev);
            r.expect_end("event").unwrap();
        }
    }

    #[test]
    fn truncated_or_garbage_events_fail_closed() {
        for ev in exemplars() {
            let mut bytes = Vec::new();
            encode_event(&ev, &mut bytes);
            for cut in 0..bytes.len() {
                let mut r = Reader::new(&bytes[..cut]);
                assert!(decode_event(&mut r).is_err(), "cut at {cut} of {ev}");
            }
        }
        let mut r = Reader::new(&[0u8; 9]); // cycle + tag... truncated body
        assert!(decode_event(&mut r).is_err());
        let mut bad = Vec::new();
        put_u64(&mut bad, 1);
        put_u8(&mut bad, 200); // unknown tag
        let mut r = Reader::new(&bad);
        assert!(decode_event(&mut r).is_err());
    }

    #[test]
    fn recorder_state_round_trips_including_drops() {
        let mut rec = Recorder::new(8);
        for (i, ev) in exemplars().into_iter().enumerate() {
            rec.record(i as u64, ev.kind);
        }
        assert!(rec.dropped() > 0);
        let mut bytes = Vec::new();
        rec.save_state(&mut bytes);
        let mut back = Recorder::new(8);
        let mut r = Reader::new(&bytes);
        back.restore_state(&mut r).unwrap();
        r.expect_end("recorder").unwrap();
        assert_eq!(back.events(), rec.events());
        assert_eq!(back.dropped(), rec.dropped());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        rec.save_state(&mut a);
        back.save_state(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_state_restore_validates_rank_count() {
        let cfg = crate::TraceConfig::default();
        let st = TraceState::new(2, 2, Some(&cfg));
        st.record_rank(0, 1, EventKind::RankWake);
        let mut bytes = Vec::new();
        st.save_state(&mut bytes);

        let same = TraceState::new(2, 2, Some(&cfg));
        same.restore_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(same.events_recorded(), st.events_recorded());

        let smaller = TraceState::new(1, 1, Some(&cfg));
        assert!(smaller.restore_state(&mut Reader::new(&bytes)).is_err());
    }

    /// An untraced job keeps no rank recorders and writes a rank-ring
    /// count of 0, then its scheduler ring. The section fails closed: a
    /// truncation is `Corrupt`, and a nonzero count (a traced job's
    /// section, or a forged one) is refused with the field named.
    #[test]
    fn untraced_state_writes_no_rank_rings_and_refuses_any() {
        let untraced = TraceState::new(3, 2, None);
        assert!(untraced.ranks.is_none());
        let mut bytes = Vec::new();
        untraced.save_state(&mut bytes);
        let mut want = Vec::new();
        put_u64(&mut want, 0); // rank rings
        put_u64(&mut want, 0); // scheduler events
        put_u64(&mut want, 0); // scheduler dropped
        assert_eq!(bytes, want, "no rank rings and an empty scheduler ring");
        let mut r = Reader::new(&bytes);
        TraceState::new(3, 2, None).restore_state(&mut r).unwrap();
        r.expect_end("trace section").unwrap();
        for cut in 0..bytes.len() {
            let err = TraceState::new(3, 2, None)
                .restore_state(&mut Reader::new(&bytes[..cut]))
                .unwrap_err();
            assert!(matches!(err, BgpError::Corrupt(_)), "cut {cut}: {err}");
        }

        let traced = TraceState::new(3, 2, Some(&crate::TraceConfig::default()));
        let mut empty = Vec::new();
        traced.save_state(&mut empty);
        let mut forged = bytes.clone();
        forged[0] = 1;
        for other in [empty, forged] {
            let err = TraceState::new(3, 2, None)
                .restore_state(&mut Reader::new(&other))
                .expect_err("an untraced job has no ring to restore into");
            assert!(matches!(err, BgpError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("trace rank-ring count"), "{err}");
        }
        let err = traced.restore_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("rank-ring count 0"), "{err}");
    }
}
