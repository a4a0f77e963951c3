//! # bgp-trace — deterministic tracing and metrics for the simulator
//!
//! The paper's library is itself an observability tool: it samples the
//! UPC unit's 256 counters with < 0.1 % overhead. This crate gives the
//! *simulated machine* the same property — a structured flight recorder
//! that is near-free for an untraced job and, crucially,
//! **deterministic** for a traced one:
//!
//! * Every event is timestamped in **simulated cycles**, never host
//!   time, so the recorded stream is a function of `(JobSpec, seed)`
//!   alone.
//! * Recorders are **per rank**: a rank only ever writes its own ring,
//!   so no cross-thread interleaving is observable. Scheduler-level
//!   events (phase resolution, message delivery, collective completion)
//!   are recorded by the phase resolver while every rank is parked —
//!   the one moment the machine is quiescent — in canonical order.
//!
//! Together these extend the phase engine's determinism contract to the
//! observability data: traces are **byte-identical for every
//! `BGP_SIM_THREADS` value** (verified in `tests/determinism.rs`).
//!
//! Storage is a bounded `RingBuffer` per recorder (default 65 536
//! events): a pathological event flood degrades to "the timeline starts
//! later", never to unbounded memory. Exporters render a collected
//! [`JobTrace`] as a Chrome-trace/Perfetto JSON timeline
//! ([`JobTrace::chrome_json`]) or a per-phase metrics CSV
//! ([`JobTrace::phase_metrics_csv`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod chrome;
pub mod json;
mod metrics;
mod ring;
mod wire;

use ring::RingBuffer;

use bgp_arch::sync::Mutex;
use std::fmt;

/// Default per-recorder ring capacity (events).
pub(crate) const DEFAULT_CAPACITY: usize = 65_536;

/// Default counter/memory sampling period (quantum windows).
pub(crate) const DEFAULT_SAMPLE_EVERY: u64 = 16;

/// Tracing configuration, carried by `JobSpec::trace`. Tracing is a
/// property of the job: it is on, for every rank from cycle 0, exactly
/// when that field is `Some`, and the rings are sized once when the
/// machine is built. An untraced job pays one branch per trace hook.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity per recorder (events). 0 records nothing.
    pub capacity: usize,
    /// Sample live UPC counters and L3/DDR traffic every this many
    /// quantum windows (0 disables sampling).
    pub sample_every: u64,
    /// UPC counter slots sampled at each interval.
    pub sample_slots: Vec<u8>,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: DEFAULT_CAPACITY,
            sample_every: DEFAULT_SAMPLE_EVERY,
            sample_slots: Vec::new(),
        }
    }
}

/// Why a rank parked (mirror of the scheduler's wait state, kept here
/// so lower layers need no dependency on the MPI runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitKind {
    /// Blocked in a receive (`src` = `None` means any source).
    Recv {
        /// Source rank filter.
        src: Option<u32>,
        /// Message tag filter.
        tag: u32,
    },
    /// Blocked on the collective rendezvous slot.
    Collective {
        /// Double-buffer slot index (0 or 1).
        slot: u8,
    },
}

impl fmt::Display for WaitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitKind::Recv { src: Some(s), tag } => write!(f, "recv(src={s}, tag={tag})"),
            WaitKind::Recv { src: None, tag } => write!(f, "recv(any, tag={tag})"),
            WaitKind::Collective { slot } => write!(f, "collective(slot {slot})"),
        }
    }
}

/// A fault-plan event observed by the tracing layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// This rank's node pays extra cycles at every messaging boundary.
    Straggler {
        /// Penalty charged per boundary.
        penalty_cycles: u64,
    },
    /// This rank's node routes through a degraded torus router.
    RouterDegraded,
    /// A counter SRAM bit flipped as a measurement window closed.
    CounterBitFlip {
        /// Affected counter slot.
        slot: u16,
        /// Flipped bit index.
        bit: u32,
    },
    /// A counter was pegged at the saturation ceiling.
    CounterSaturate {
        /// Affected counter slot.
        slot: u16,
    },
}

/// One structured trace event (the `cycle` timestamp lives in
/// [`TraceEvent`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Phase-resolution summary, recorded by the resolver once per
    /// phase: what the merge delivered, woke, and loaded onto the torus.
    PhaseResolve {
        /// Phase index being resolved (0-based).
        phase: u64,
        /// Point-to-point messages delivered.
        delivered: u64,
        /// Total payload bytes delivered.
        delivered_bytes: u64,
        /// Parked ranks woken by the resolution.
        woken: u64,
        /// Collectives completed.
        collectives: u64,
        /// Heaviest per-link byte load of the phase.
        peak_link_bytes: u64,
        /// Distinct torus links that carried traffic.
        links_loaded: u64,
    },
    /// A buffered message was delivered at phase resolution.
    MsgDeliver {
        /// Sender rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// Torus queuing delay added by per-phase link contention.
        queue_cycles: u64,
    },
    /// A collective rendezvous slot completed at phase resolution.
    CollComplete {
        /// Slot index.
        slot: u8,
    },
    /// The rank left the frontier waiting on a communication.
    RankPark {
        /// What it is waiting for.
        wait: WaitKind,
    },
    /// The rank re-entered the frontier after a phase resolution.
    RankWake,
    /// The rank buffered a point-to-point send into the phase outbox.
    MsgSend {
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// `BGP_Initialize` on this rank (session built).
    SessionInit,
    /// `BGP_Start(set)`: a counting window opened.
    SessionStart {
        /// Instrumentation set id.
        set: u32,
    },
    /// `BGP_Stop(set)`: the counting window closed.
    SessionStop {
        /// Instrumentation set id.
        set: u32,
    },
    /// `BGP_Finalize` on this rank.
    SessionFinalize,
    /// The node's binary counter dump was assembled.
    CounterDump {
        /// Encoded dump size in bytes.
        bytes: u64,
    },
    /// Periodic sample of one live UPC counter (the paper's
    /// threshold-interrupt capability, as a time series).
    CounterSample {
        /// Sampled counter slot.
        slot: u8,
        /// Counter value at the sample point.
        value: u64,
    },
    /// Periodic L3/DDR traffic window (deltas since the last sample).
    MemWindow {
        /// Quantum-window index the sample closed.
        window: u64,
        /// L3 hits in the window.
        l3_hits: u64,
        /// L3 misses in the window.
        l3_misses: u64,
        /// DDR read bursts in the window.
        ddr_reads: u64,
        /// DDR write bursts in the window.
        ddr_writes: u64,
    },
    /// A UPC threshold interrupt drained at phase resolution (raised
    /// mid-quantum by a sentinel counter crossing its threshold,
    /// surfaced in canonical node order while the machine is quiescent).
    ThresholdInterrupt {
        /// Node whose UPC unit raised the interrupt.
        node: u32,
        /// Counter slot that crossed its threshold.
        slot: u8,
        /// Counter value when it fired.
        value: u64,
        /// The configured threshold.
        threshold: u64,
    },
    /// The multiplexing scheduler rotated a node's UPC unit to the next
    /// counter mode at a phase boundary.
    CounterRotate {
        /// Node whose unit rotated.
        node: u32,
        /// Mode index rotated out of.
        from: u8,
        /// Mode index rotated into.
        to: u8,
        /// Phase at which the rotation happened.
        phase: u64,
        /// Dwell (phases) chosen for the new mode.
        dwell: u64,
    },
    /// A fault-plan event manifested.
    Fault(FaultEvent),
}

impl EventKind {
    /// Short stable event name (Chrome-trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PhaseResolve { .. } => "phase_resolve",
            EventKind::MsgDeliver { .. } => "msg_deliver",
            EventKind::CollComplete { .. } => "coll_complete",
            EventKind::RankPark { .. } => "rank_park",
            EventKind::RankWake => "rank_wake",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::SessionInit => "session_init",
            EventKind::SessionStart { .. } => "session_start",
            EventKind::SessionStop { .. } => "session_stop",
            EventKind::SessionFinalize => "session_finalize",
            EventKind::CounterDump { .. } => "counter_dump",
            EventKind::CounterSample { .. } => "counter_sample",
            EventKind::MemWindow { .. } => "mem_window",
            EventKind::ThresholdInterrupt { .. } => "threshold_interrupt",
            EventKind::CounterRotate { .. } => "counter_rotate",
            EventKind::Fault(f) => match f {
                FaultEvent::Straggler { .. } => "fault_straggler",
                FaultEvent::RouterDegraded => "fault_router_degraded",
                FaultEvent::CounterBitFlip { .. } => "fault_counter_bitflip",
                FaultEvent::CounterSaturate { .. } => "fault_counter_saturate",
            },
        }
    }

    /// Event category (Chrome-trace `cat` field).
    pub(crate) fn category(&self) -> &'static str {
        match self {
            EventKind::PhaseResolve { .. } | EventKind::RankPark { .. } | EventKind::RankWake => {
                "sched"
            }
            EventKind::MsgDeliver { .. }
            | EventKind::CollComplete { .. }
            | EventKind::MsgSend { .. } => "mpi",
            EventKind::SessionInit
            | EventKind::SessionStart { .. }
            | EventKind::SessionStop { .. }
            | EventKind::SessionFinalize
            | EventKind::CounterDump { .. } => "session",
            EventKind::CounterSample { .. }
            | EventKind::ThresholdInterrupt { .. }
            | EventKind::CounterRotate { .. } => "upc",
            EventKind::MemWindow { .. } => "mem",
            EventKind::Fault(_) => "fault",
        }
    }

    /// Event arguments as deterministic `(key, value)` pairs.
    pub(crate) fn args(&self) -> Vec<(&'static str, ArgValue)> {
        use ArgValue::{Num, Text};
        match self {
            EventKind::PhaseResolve {
                phase,
                delivered,
                delivered_bytes,
                woken,
                collectives,
                peak_link_bytes,
                links_loaded,
            } => vec![
                ("phase", Num(*phase)),
                ("delivered", Num(*delivered)),
                ("delivered_bytes", Num(*delivered_bytes)),
                ("woken", Num(*woken)),
                ("collectives", Num(*collectives)),
                ("peak_link_bytes", Num(*peak_link_bytes)),
                ("links_loaded", Num(*links_loaded)),
            ],
            EventKind::MsgDeliver {
                src,
                dst,
                tag,
                bytes,
                queue_cycles,
            } => vec![
                ("src", Num(u64::from(*src))),
                ("dst", Num(u64::from(*dst))),
                ("tag", Num(u64::from(*tag))),
                ("bytes", Num(*bytes)),
                ("queue_cycles", Num(*queue_cycles)),
            ],
            EventKind::CollComplete { slot } => vec![("slot", Num(u64::from(*slot)))],
            EventKind::RankPark { wait } => vec![("wait", Text(wait.to_string()))],
            EventKind::RankWake | EventKind::SessionInit | EventKind::SessionFinalize => Vec::new(),
            EventKind::MsgSend { dst, tag, bytes } => vec![
                ("dst", Num(u64::from(*dst))),
                ("tag", Num(u64::from(*tag))),
                ("bytes", Num(*bytes)),
            ],
            EventKind::SessionStart { set } | EventKind::SessionStop { set } => {
                vec![("set", Num(u64::from(*set)))]
            }
            EventKind::CounterDump { bytes } => vec![("bytes", Num(*bytes))],
            EventKind::CounterSample { slot, value } => {
                vec![("slot", Num(u64::from(*slot))), ("value", Num(*value))]
            }
            EventKind::MemWindow {
                window,
                l3_hits,
                l3_misses,
                ddr_reads,
                ddr_writes,
            } => {
                vec![
                    ("window", Num(*window)),
                    ("l3_hits", Num(*l3_hits)),
                    ("l3_misses", Num(*l3_misses)),
                    ("ddr_reads", Num(*ddr_reads)),
                    ("ddr_writes", Num(*ddr_writes)),
                ]
            }
            EventKind::ThresholdInterrupt {
                node,
                slot,
                value,
                threshold,
            } => vec![
                ("node", Num(u64::from(*node))),
                ("slot", Num(u64::from(*slot))),
                ("value", Num(*value)),
                ("threshold", Num(*threshold)),
            ],
            EventKind::CounterRotate {
                node,
                from,
                to,
                phase,
                dwell,
            } => {
                vec![
                    ("node", Num(u64::from(*node))),
                    ("from", Num(u64::from(*from))),
                    ("to", Num(u64::from(*to))),
                    ("phase", Num(*phase)),
                    ("dwell", Num(*dwell)),
                ]
            }
            EventKind::Fault(f) => match f {
                FaultEvent::Straggler { penalty_cycles } => {
                    vec![("penalty_cycles", Num(*penalty_cycles))]
                }
                FaultEvent::RouterDegraded => Vec::new(),
                FaultEvent::CounterBitFlip { slot, bit } => {
                    vec![
                        ("slot", Num(u64::from(*slot))),
                        ("bit", Num(u64::from(*bit))),
                    ]
                }
                FaultEvent::CounterSaturate { slot } => {
                    vec![("slot", Num(u64::from(*slot)))]
                }
            },
        }
    }
}

/// A trace-event argument value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ArgValue {
    /// Unsigned integer argument.
    Num(u64),
    /// Text argument.
    Text(String),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::Num(n) => write!(f, "{n}"),
            ArgValue::Text(s) => write!(f, "{s}"),
        }
    }
}

/// One recorded event: a structured payload at a simulated-cycle
/// timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated-cycle timestamp (the recording rank's core clock; for
    /// scheduler events, the job clock at resolution).
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {}", self.cycle, self.kind.name())?;
        let args = self.kind.args();
        if !args.is_empty() {
            write!(f, " {{")?;
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}={v}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// A single event stream: one per rank, plus one for the scheduler.
#[derive(Clone, Debug)]
pub(crate) struct Recorder {
    pub(crate) ring: RingBuffer<TraceEvent>,
}

impl Recorder {
    /// A recorder retaining at most `capacity` events.
    pub(crate) fn new(capacity: usize) -> Recorder {
        Recorder {
            ring: RingBuffer::new(capacity),
        }
    }

    /// Append one event.
    pub(crate) fn record(&mut self, cycle: u64, kind: EventKind) {
        self.ring.push(TraceEvent { cycle, kind });
    }

    /// Events retained.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    /// Events evicted so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// All retained events, oldest → newest.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        self.ring.to_vec()
    }

    /// The newest `n` events, oldest → newest.
    pub(crate) fn recent(&self, n: usize) -> Vec<TraceEvent> {
        self.ring.last_n(n)
    }
}

/// Shared per-job trace state: one recorder per rank plus the scheduler
/// stream. Owned by the machine; ranks write only their own recorder,
/// so per-rank locks are uncontended and the recorded streams carry no
/// cross-thread ordering.
pub struct TraceState {
    /// Ranks per node: rank `r` lives on node `r / ranks_per_node`.
    ranks_per_node: usize,
    /// One recorder per rank, present iff the job traces (its spec
    /// carries a [`TraceConfig`]).
    pub(crate) ranks: Option<Box<[Mutex<Recorder>]>>,
    pub(crate) sched: Mutex<Recorder>,
}

impl TraceState {
    /// Trace state for a job of `ranks` ranks in block placement (rank
    /// `r` lives on node `r / ranks_per_node`), its rings sized once from
    /// the job's configuration. An untraced job (`cfg` is `None`) keeps
    /// no rank recorders and a capacity-0 scheduler ring: it records
    /// nothing.
    pub fn new(ranks: usize, ranks_per_node: usize, cfg: Option<&TraceConfig>) -> TraceState {
        assert!(ranks_per_node > 0, "a node hosts at least one rank");
        let capacity = cfg.map_or(0, |c| c.capacity);
        TraceState {
            ranks_per_node,
            ranks: cfg.map(|_| {
                (0..ranks)
                    .map(|_| Mutex::new(Recorder::new(capacity)))
                    .collect()
            }),
            sched: Mutex::new(Recorder::new(capacity)),
        }
    }

    /// Record into `rank`'s stream; a no-op in an untraced job.
    pub fn record_rank(&self, rank: usize, cycle: u64, kind: EventKind) {
        if let Some(ranks) = &self.ranks {
            ranks[rank].lock().record(cycle, kind);
        }
    }

    /// Append a batch to the scheduler stream under one lock.
    pub fn extend_sched(&self, events: impl IntoIterator<Item = TraceEvent>) {
        let mut rec = self.sched.lock();
        for e in events {
            rec.record(e.cycle, e.kind);
        }
    }

    /// The newest `n` scheduler events (deadlock forensics).
    pub fn recent_sched(&self, n: usize) -> Vec<TraceEvent> {
        self.sched.lock().recent(n)
    }

    /// Total events currently retained across all streams.
    pub fn events_recorded(&self) -> u64 {
        let ranks: usize = self.ranks.iter().flatten().map(|r| r.lock().len()).sum();
        (ranks + self.sched.lock().len()) as u64
    }

    /// Clone the retained streams into an exportable [`JobTrace`].
    /// Returns `None` for an untraced job.
    pub fn snapshot(&self) -> Option<JobTrace> {
        let ranks = self
            .ranks
            .as_ref()?
            .iter()
            .enumerate()
            .map(|(rank, rec)| {
                let rec = rec.lock();
                RankTrace {
                    rank,
                    node: rank / self.ranks_per_node,
                    events: rec.events(),
                    dropped: rec.dropped(),
                }
            })
            .collect();
        let sched = self.sched.lock();
        Some(JobTrace {
            ranks,
            sched: sched.events(),
            sched_dropped: sched.dropped(),
        })
    }
}

/// One rank's recorded stream inside a [`JobTrace`].
#[derive(Clone, Debug)]
pub struct RankTrace {
    /// Rank id.
    pub rank: usize,
    /// Hosting node.
    pub node: usize,
    /// Events, oldest → newest.
    pub events: Vec<TraceEvent>,
    /// Events this rank's ring evicted.
    pub dropped: u64,
}

/// A collected job trace: every rank stream plus the scheduler stream,
/// ready for export. Obtained from `Machine::job_trace()`.
#[derive(Clone, Debug)]
pub struct JobTrace {
    /// Per-rank streams in rank order.
    pub ranks: Vec<RankTrace>,
    /// Scheduler stream (phase resolutions, deliveries, collectives).
    pub sched: Vec<TraceEvent>,
    /// Events the scheduler ring evicted.
    pub sched_dropped: u64,
}

impl JobTrace {
    /// Events retained across all streams.
    pub fn total_events(&self) -> usize {
        self.sched.len() + self.ranks.iter().map(|r| r.events.len()).sum::<usize>()
    }

    /// Events evicted across all streams.
    pub fn total_dropped(&self) -> u64 {
        self.sched_dropped + self.ranks.iter().map(|r| r.dropped).sum::<u64>()
    }

    /// Render as a Chrome-trace/Perfetto JSON timeline. The output is a
    /// pure function of the recorded streams: byte-identical for every
    /// thread count.
    pub fn chrome_json(&self) -> String {
        chrome::render(self)
    }

    /// Render the scheduler stream as a per-phase metrics CSV.
    pub fn phase_metrics_csv(&self) -> String {
        metrics::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            kind: EventKind::RankWake,
        }
    }

    #[test]
    fn unconfigured_state_records_nothing_and_snapshots_none() {
        let st = TraceState::new(1, 1, None);
        st.record_rank(0, 5, EventKind::RankWake);
        assert!(st.snapshot().is_none());
        assert_eq!(st.events_recorded(), 0, "capacity-0 rings drop everything");
    }

    #[test]
    fn concurrent_per_rank_recorders_are_isolated_and_deterministic() {
        // 8 ranks record 200 events each from their own threads; the
        // interleaving of threads must be invisible: every rank stream
        // comes back exactly as its rank wrote it, in program order.
        let cfg = TraceConfig {
            capacity: 64,
            ..TraceConfig::default()
        };
        let st = Arc::new(TraceState::new(8, 1, Some(&cfg)));
        std::thread::scope(|s| {
            for rank in 0..8usize {
                let st = Arc::clone(&st);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let kind = if i % 2 == 0 {
                            EventKind::MsgSend {
                                dst: rank as u32,
                                tag: i as u32,
                                bytes: i,
                            }
                        } else {
                            EventKind::RankWake
                        };
                        st.record_rank(rank, i * 10 + rank as u64, kind);
                    }
                });
            }
        });
        let snap = st.snapshot().expect("traced");
        for rt in &snap.ranks {
            assert_eq!(rt.events.len(), 64, "ring bounded");
            assert_eq!(rt.dropped, 136);
            // The retained tail is the rank's own last 64 events in
            // program order, regardless of thread scheduling.
            let cycles: Vec<u64> = rt.events.iter().map(|e| e.cycle).collect();
            let expect: Vec<u64> = (136..200).map(|i| i * 10 + rt.rank as u64).collect();
            assert_eq!(cycles, expect, "rank {} stream perturbed", rt.rank);
        }
    }

    #[test]
    fn recorder_recent_returns_tail() {
        let mut r = Recorder::new(10);
        for i in 0..5 {
            r.record(i, EventKind::RankWake);
        }
        assert_eq!(r.recent(2), vec![ev(3), ev(4)]);
        assert_eq!(r.events().len(), 5);
    }

    #[test]
    fn event_display_is_compact() {
        let e = TraceEvent {
            cycle: 42,
            kind: EventKind::MsgSend {
                dst: 3,
                tag: 7,
                bytes: 128,
            },
        };
        assert_eq!(e.to_string(), "@42 msg_send {dst=3, tag=7, bytes=128}");
        assert_eq!(ev(1).to_string(), "@1 rank_wake");
    }
}
