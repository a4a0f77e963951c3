//! Human-readable **run reports**: the one-page text summary an analyst
//! wants before diving into CSVs — per-node integrity, the derived
//! metrics of §IV, and the instruction-mix breakdown.

use crate::frame::Frame;
use crate::metrics::{
    ddr_traffic_bytes_per_node, fp_mix, l3_miss_ratio, mean_core_cycles, mflops_per_core,
    observed_cores, MixCategory,
};
use bgp_arch::events::CounterMode;
use bgp_arch::CORE_CLOCK_HZ;
use bgp_core::dump::NodeDump;
use std::fmt::Write as _;

/// Render a text report for one instrumentation set across all nodes.
pub fn render(dumps: &[NodeDump], frame: &Frame) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "UPC counter report — set {}, {} node(s)",
        frame.set(),
        dumps.len()
    );
    let _ = writeln!(out, "{}", "=".repeat(60));

    // Node roster.
    let mut by_mode = [0usize; 4];
    for d in dumps {
        by_mode[d.mode.index()] += 1;
    }
    let _ = writeln!(
        out,
        "counter modes: {}",
        CounterMode::ALL
            .iter()
            .filter(|m| by_mode[m.index()] > 0)
            .map(|m| format!("{} × {}", by_mode[m.index()], m))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "records per set: {}", frame.records());

    // Integrity.
    let anomalies = frame.anomalies();
    if anomalies.is_empty() {
        let _ = writeln!(out, "integrity: clean");
    } else {
        let _ = writeln!(out, "integrity: {} finding(s)", anomalies.len());
        for a in &anomalies {
            let _ = writeln!(out, "  ! {a}");
        }
    }

    // Execution metrics (need per-core events).
    let cores = observed_cores(frame);
    if cores > 0 {
        let cycles = mean_core_cycles(frame);
        let _ = writeln!(out, "\nexecution ({} observed core(s)):", cores);
        let _ = writeln!(out, "  mean core cycles : {cycles:.0}");
        let _ = writeln!(
            out,
            "  mean core time   : {:.3} ms",
            cycles / CORE_CLOCK_HZ as f64 * 1e3
        );
        let _ = writeln!(out, "  MFLOPS per core  : {:.1}", mflops_per_core(frame));

        let mix = fp_mix(frame);
        if mix.total() > 0 {
            let _ = writeln!(out, "\nFP instruction mix ({} instructions):", mix.total());
            for cat in MixCategory::ALL {
                let f = mix.fraction(cat);
                if f > 0.0005 {
                    let bar = "#".repeat((f * 40.0).round() as usize);
                    let _ = writeln!(out, "  {:<14} {:>5.1}% {bar}", cat.label(), f * 100.0);
                }
            }
            let _ = writeln!(
                out,
                "  SIMD fraction  {:>6.1}%",
                mix.simd_fraction() * 100.0
            );
        }
    }

    // Memory metrics (need mode-2 events).
    if frame.nodes_in_mode(CounterMode::Mode2) > 0 {
        let _ = writeln!(out, "\nmemory system (per node):");
        let _ = writeln!(
            out,
            "  L3→DDR traffic  : {:.2} MB",
            ddr_traffic_bytes_per_node(frame) / 1e6
        );
        let _ = writeln!(
            out,
            "  L3 miss ratio   : {:.1}%",
            l3_miss_ratio(frame) * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::{CoreEvent, NUM_COUNTERS};
    use bgp_core::dump::SetDump;

    fn core_dump() -> NodeDump {
        let mut counts = vec![0u64; NUM_COUNTERS];
        counts[CoreEvent::FpSimdFma.id(0).slot().0 as usize] = 700;
        counts[CoreEvent::FpFma.id(0).slot().0 as usize] = 300;
        counts[CoreEvent::CycleCount.id(0).slot().0 as usize] = 850_000;
        NodeDump {
            node: 0,
            mode: CounterMode::Mode0,
            sets: vec![SetDump {
                id: 0,
                records: 1,
                counts,
            }],
        }
    }

    #[test]
    fn report_contains_the_headline_numbers() {
        let dumps = vec![core_dump()];
        let frame = Frame::from_dumps(&dumps, 0).unwrap();
        let r = render(&dumps, &frame);
        assert!(r.contains("set 0, 1 node(s)"));
        assert!(r.contains("SIMD FMA"));
        assert!(r.contains("SIMD fraction"));
        assert!(r.contains("MFLOPS per core"));
        assert!(r.contains("70.0%"), "simd share of the mix:\n{r}");
    }

    #[test]
    fn report_skips_absent_sections() {
        // A mode-3-only frame has neither core nor memory sections.
        let d = NodeDump {
            node: 1,
            mode: CounterMode::Mode3,
            sets: vec![SetDump {
                id: 0,
                records: 1,
                counts: vec![0; NUM_COUNTERS],
            }],
        };
        let dumps = vec![d];
        let frame = Frame::from_dumps(&dumps, 0).unwrap();
        let r = render(&dumps, &frame);
        assert!(!r.contains("MFLOPS"));
        assert!(!r.contains("L3 miss"));
        assert!(
            r.contains("every counter is zero"),
            "anomaly surfaced:\n{r}"
        );
    }
}
