#!/usr/bin/env python3
"""Refresh the measured-data blocks in EXPERIMENTS.md from results/*.csv.

Each `<!-- TAG -->` placeholder (or a previously generated block) is
replaced by a fenced code block containing the CSV. Run after
`cargo run --release -p bgp-bench --bin repro_all` (every default entry;
`repro_all NAME...` reruns only the named ones).
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAP = {
    "TAB_OVERHEAD": "tab_overhead.csv",
    "FIG06": "fig06_instr_mix.csv",
    "FIG07": "fig07_ft_simd.csv",
    "FIG08": "fig08_mg_simd.csv",
    "FIG09": "fig09_exec_time.csv",
    "FIG10": "fig10_exec_time.csv",
    "FIG11": "fig11_l3_sweep.csv",
    "FIG12": "fig12_ddr_ratio.csv",
    "FIG13": "fig13_time_increase.csv",
    "FIG14": "fig14_mflops_chip.csv",
    "EXT_PREFETCH": "fig_ext_prefetch.csv",
    "EXT_MODES": "fig_ext_modes_all4.csv",
    "EXT_512": "fig_ext_512events.csv",
}


def main() -> int:
    md_path = ROOT / "EXPERIMENTS.md"
    text = md_path.read_text()
    missing = []
    for tag, csv_name in MAP.items():
        csv_path = ROOT / "results" / csv_name
        if not csv_path.exists():
            missing.append(csv_name)
            continue
        body = csv_path.read_text().strip()
        block = f"<!-- {tag} -->\n```text\n{body}\n```"
        pattern = re.compile(
            rf"<!-- {tag} -->(?:\n```text\n.*?\n```)?", re.DOTALL
        )
        if not pattern.search(text):
            print(f"warning: placeholder {tag} not found", file=sys.stderr)
            continue
        text = pattern.sub(lambda _m: block, text, count=1)
    md_path.write_text(text)
    if missing:
        print("missing CSVs (figure not regenerated yet):", ", ".join(missing))
        return 1
    print("EXPERIMENTS.md refreshed from results/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
