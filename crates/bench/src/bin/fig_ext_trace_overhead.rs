//! Extension: wall-clock cost of the deterministic tracing layer on an
//! MG job — untraced (`off`) and traced with live counter sampling
//! (`enabled`). Records the comparison (plus host context) in
//! `BENCH_trace.json` (repo root, or `$BGP_BENCH_DIR`).

use bgp_bench::{figures, Scale};

fn main() {
    let scale = Scale::from_args();
    let samples = figures::trace_overhead_sweep(scale);
    bgp_bench::emit("fig_ext_trace_overhead", &figures::fig_ext_trace_overhead(&samples));

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"trace_config\": \"{}\", \"wall_ms\": {:.1}, \"overhead_pct\": {:.2}, \"events_recorded\": {}, \"events_dropped\": {}}}",
                s.config, s.wall_ms, s.overhead_pct, s.events, s.dropped
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"fig_ext_trace_overhead (MG, VNM, min-of-reps)\",\n  \"scale\": \"{:?}\",\n  \"host_cpus\": {},\n  \"note\": \"timestamps are simulated cycles, so the trace itself is deterministic; only host wall-clock varies between reps\",\n  \"configs\": [\n{}\n  ]\n}}\n",
        scale,
        host_cpus,
        rows.join(",\n")
    );
    let path = bgp_bench::bench_json_path("BENCH_trace.json");
    std::fs::write(&path, json).expect("write BENCH_trace.json");
    println!("==== BENCH_trace.json -> {} ====", path.display());
}
