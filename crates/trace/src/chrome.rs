//! Chrome-trace / Perfetto JSON timeline exporter.
//!
//! Output follows the Trace Event Format accepted by `chrome://tracing`
//! and [ui.perfetto.dev](https://ui.perfetto.dev): a top-level object
//! with a `traceEvents` array. Streams map onto the viewer's
//! process/thread tree:
//!
//! * `pid 0 / tid 0` — the scheduler stream (phase resolutions,
//!   message deliveries, collective completions);
//! * `pid node+1 / tid rank` — each rank's stream, grouped by its
//!   hosting node.
//!
//! Timestamps (`ts`) are **simulated cycles**, not microseconds — the
//! viewer's absolute time axis reads in cycles. Serialization order is
//! canonical (metadata, scheduler stream, rank streams ascending by
//! rank) and every map is a `Vec`, so the rendered bytes are a pure
//! function of the recorded streams: byte-identical across
//! `BGP_SIM_THREADS` values.

use crate::json::push_str_escaped;
use crate::{ArgValue, EventKind, JobTrace};
use std::fmt::Write as _;

/// Render `trace` as a Chrome-trace JSON document.
pub(crate) fn render(trace: &JobTrace) -> String {
    let mut out = String::with_capacity(256 + trace.total_events() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;

    // Metadata: name the scheduler pseudo-process and every node/rank.
    meta(&mut out, &mut first, "process_name", 0, 0, "scheduler");
    meta(&mut out, &mut first, "thread_name", 0, 0, "phase resolver");
    let mut named_nodes: Vec<usize> = Vec::new();
    for rt in &trace.ranks {
        if !named_nodes.contains(&rt.node) {
            named_nodes.push(rt.node);
            meta(
                &mut out,
                &mut first,
                "process_name",
                rt.node as u64 + 1,
                0,
                &format!("node {}", rt.node),
            );
        }
        meta(
            &mut out,
            &mut first,
            "thread_name",
            rt.node as u64 + 1,
            rt.rank as u64,
            &format!("rank {}", rt.rank),
        );
    }

    // Scheduler stream, then rank streams in rank order.
    for e in &trace.sched {
        event(&mut out, &mut first, 0, 0, e.cycle, &e.kind);
    }
    for rt in &trace.ranks {
        for e in &rt.events {
            event(
                &mut out,
                &mut first,
                rt.node as u64 + 1,
                rt.rank as u64,
                e.cycle,
                &e.kind,
            );
        }
    }

    let _ = write!(
        out,
        "\n],\"otherData\":{{\"dropped_events\":{},\"clock\":\"simulated_cycles\"}}}}\n",
        trace.total_dropped()
    );
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

fn meta(out: &mut String, first: &mut bool, what: &str, pid: u64, tid: u64, name: &str) {
    sep(out, first);
    let _ = write!(
        out,
        "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
    );
    push_str_escaped(out, name);
    out.push_str("}}");
}

fn event(out: &mut String, first: &mut bool, pid: u64, tid: u64, ts: u64, kind: &EventKind) {
    sep(out, first);
    // Counter samples render as Chrome counter tracks ("C"); everything
    // else is a thread-scoped instant ("i").
    let is_counter = matches!(
        kind,
        EventKind::CounterSample { .. } | EventKind::MemWindow { .. }
    );
    let ph = if is_counter { "C" } else { "i" };
    out.push_str("{\"name\":\"");
    out.push_str(kind.name());
    let _ = write!(
        out,
        "\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}",
        kind.category()
    );
    if !is_counter {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in kind.args().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        match v {
            ArgValue::Num(n) => {
                let _ = write!(out, "{n}");
            }
            ArgValue::Text(s) => push_str_escaped(out, s),
        }
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::{FaultEvent, RankTrace, TraceEvent, WaitKind};

    /// One event read back from a Chrome-trace document (metadata events
    /// are skipped): the round-trip tests' view of [`render`]'s output.
    #[derive(Clone, Debug, PartialEq)]
    struct ParsedEvent {
        /// Event name (`EventKind::name`).
        name: String,
        /// Category (`EventKind::category`).
        cat: String,
        /// Phase letter (`"i"` instant, `"C"` counter).
        ph: String,
        /// Timestamp in simulated cycles.
        ts: u64,
        /// Process id (0 = scheduler, node+1 otherwise).
        pid: u64,
        /// Thread id (rank, or 0 for the scheduler stream).
        tid: u64,
        /// Arguments in serialization order.
        args: Vec<(String, ArgValue)>,
    }

    /// Parse a Chrome-trace document rendered by [`render`] back into its
    /// non-metadata events, preserving order.
    ///
    /// # Errors
    /// Returns a description of the first structural problem.
    fn parse(doc: &str) -> Result<Vec<ParsedEvent>, String> {
        let root = json::parse(doc)?;
        let events = root
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("missing traceEvents array")?;
        let mut out = Vec::new();
        for ev in events {
            let ph = ev
                .get("ph")
                .and_then(Value::as_str)
                .ok_or("event missing ph")?
                .to_string();
            if ph == "M" {
                continue;
            }
            let field_u64 = |key: &str| {
                ev.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("event missing numeric {key}"))
            };
            let mut args = Vec::new();
            if let Some(Value::Object(members)) = ev.get("args") {
                for (k, v) in members {
                    let arg = match v {
                        Value::Num(_) => {
                            ArgValue::Num(v.as_u64().ok_or_else(|| format!("non-u64 arg {k}"))?)
                        }
                        Value::Str(s) => ArgValue::Text(s.clone()),
                        other => return Err(format!("unexpected arg type for {k}: {other:?}")),
                    };
                    args.push((k.clone(), arg));
                }
            }
            out.push(ParsedEvent {
                name: ev
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("event missing name")?
                    .to_string(),
                cat: ev
                    .get("cat")
                    .and_then(Value::as_str)
                    .ok_or("event missing cat")?
                    .to_string(),
                ph,
                ts: field_u64("ts")?,
                pid: field_u64("pid")?,
                tid: field_u64("tid")?,
                args,
            });
        }
        Ok(out)
    }

    fn sample_trace() -> JobTrace {
        let sched = vec![
            TraceEvent {
                cycle: 900,
                kind: EventKind::MsgDeliver {
                    src: 0,
                    dst: 1,
                    tag: 7,
                    bytes: 4096,
                    queue_cycles: 12,
                },
            },
            TraceEvent {
                cycle: 905,
                kind: EventKind::CollComplete { slot: 1 },
            },
            TraceEvent {
                cycle: 910,
                kind: EventKind::PhaseResolve {
                    phase: 0,
                    delivered: 1,
                    delivered_bytes: 4096,
                    woken: 2,
                    collectives: 1,
                    peak_link_bytes: 4096,
                    links_loaded: 3,
                },
            },
        ];
        let r0 = vec![
            TraceEvent {
                cycle: 10,
                kind: EventKind::SessionInit,
            },
            TraceEvent {
                cycle: 20,
                kind: EventKind::SessionStart { set: 2 },
            },
            TraceEvent {
                cycle: 100,
                kind: EventKind::MsgSend {
                    dst: 1,
                    tag: 7,
                    bytes: 4096,
                },
            },
            TraceEvent {
                cycle: 150,
                kind: EventKind::RankPark {
                    wait: WaitKind::Collective { slot: 1 },
                },
            },
            TraceEvent {
                cycle: 910,
                kind: EventKind::RankWake,
            },
            TraceEvent {
                cycle: 920,
                kind: EventKind::CounterSample {
                    slot: 3,
                    value: u64::MAX,
                },
            },
            TraceEvent {
                cycle: 930,
                kind: EventKind::MemWindow {
                    window: 4,
                    l3_hits: 100,
                    l3_misses: 7,
                    ddr_reads: 5,
                    ddr_writes: 2,
                },
            },
            TraceEvent {
                cycle: 940,
                kind: EventKind::Fault(FaultEvent::CounterBitFlip { slot: 9, bit: 31 }),
            },
        ];
        let r1 = vec![
            TraceEvent {
                cycle: 90,
                kind: EventKind::RankPark {
                    wait: WaitKind::Recv {
                        src: Some(0),
                        tag: 7,
                    },
                },
            },
            TraceEvent {
                cycle: 912,
                kind: EventKind::RankWake,
            },
        ];
        JobTrace {
            ranks: vec![
                RankTrace {
                    rank: 0,
                    node: 0,
                    events: r0,
                    dropped: 0,
                },
                RankTrace {
                    rank: 1,
                    node: 1,
                    events: r1,
                    dropped: 2,
                },
            ],
            sched,
            sched_dropped: 0,
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let trace = sample_trace();
        let doc = render(&trace);
        let parsed = parse(&doc).expect("rendered trace parses");

        // Reconstruct the expected flat list in serialization order:
        // sched stream, then ranks ascending.
        let mut expected = Vec::new();
        for e in &trace.sched {
            expected.push((0u64, 0u64, e.clone()));
        }
        for rt in &trace.ranks {
            for e in &rt.events {
                expected.push((rt.node as u64 + 1, rt.rank as u64, e.clone()));
            }
        }
        assert_eq!(parsed.len(), expected.len());
        for (got, (pid, tid, ev)) in parsed.iter().zip(&expected) {
            assert_eq!(got.name, ev.kind.name());
            assert_eq!(got.cat, ev.kind.category());
            assert_eq!(got.ts, ev.cycle);
            assert_eq!(got.pid, *pid);
            assert_eq!(got.tid, *tid);
            let want_args: Vec<(String, ArgValue)> = ev
                .kind
                .args()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            assert_eq!(got.args, want_args, "args diverged for {}", got.name);
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let trace = sample_trace();
        assert_eq!(render(&trace), render(&trace));
    }

    #[test]
    fn counter_samples_render_as_counter_tracks() {
        let doc = render(&sample_trace());
        let parsed = parse(&doc).unwrap();
        let sample = parsed.iter().find(|e| e.name == "counter_sample").unwrap();
        assert_eq!(sample.ph, "C");
        let instant = parsed.iter().find(|e| e.name == "msg_send").unwrap();
        assert_eq!(instant.ph, "i");
    }

    #[test]
    fn dropped_counts_surface_in_other_data() {
        let doc = render(&sample_trace());
        let root = json::parse(&doc).unwrap();
        let dropped = root
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(Value::as_u64);
        assert_eq!(dropped, Some(2));
    }
}
