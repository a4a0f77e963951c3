//! Regenerates every table and figure in one invocation and writes the
//! CSVs into `results/` (used to refresh EXPERIMENTS.md).
use bgp_bench::{emit, figures, Scale};
use bgp_nas::Kernel;

fn main() {
    let scale = Scale::from_args();
    eprintln!("[repro_all] scale: {scale:?}");
    emit("fig03_modes", &figures::fig03());
    eprintln!("[repro_all] fig03 done");
    emit("tab_overhead", &figures::tab_overhead());
    eprintln!("[repro_all] overhead done");
    emit("fig06_instr_mix", &figures::fig06(scale));
    eprintln!("[repro_all] fig06 done");
    emit("fig07_ft_simd", &figures::fig_simd_sweep(Kernel::Ft, scale));
    eprintln!("[repro_all] fig07 done");
    emit("fig08_mg_simd", &figures::fig_simd_sweep(Kernel::Mg, scale));
    eprintln!("[repro_all] fig08 done");
    emit(
        "fig09_exec_time",
        &figures::fig_exec_time(&[Kernel::Mg, Kernel::Ft, Kernel::Ep, Kernel::Cg], scale),
    );
    eprintln!("[repro_all] fig09 done");
    emit(
        "fig10_exec_time",
        &figures::fig_exec_time(&[Kernel::Is, Kernel::Lu, Kernel::Sp, Kernel::Bt], scale),
    );
    eprintln!("[repro_all] fig10 done");
    emit("fig11_l3_sweep", &figures::fig11(scale));
    eprintln!("[repro_all] fig11 done");
    let rows = figures::mode_comparison(scale);
    emit("fig12_ddr_ratio", &figures::fig12(&rows));
    emit("fig13_time_increase", &figures::fig13(&rows));
    emit("fig14_mflops_chip", &figures::fig14(&rows));
    eprintln!("[repro_all] figs12-14 done");
    emit("fig_ext_prefetch", &figures::fig_ext_prefetch(scale));
    emit("fig_ext_modes_all4", &figures::fig_ext_modes(scale));
    emit("fig_ext_512events", &figures::fig_ext_512events(scale));
    emit("fig_ext_faults", &figures::fig_ext_faults(scale));
    emit(
        "fig_ext_trace_overhead",
        &figures::fig_ext_trace_overhead(&figures::trace_overhead_sweep(scale)),
    );
    emit("fig_ext_memthroughput", &figures::fig_ext_memthroughput(scale));
    emit("fig_ext_fullmachine", &figures::fig_ext_fullmachine(scale));
    eprintln!("[repro_all] extensions done");
}
