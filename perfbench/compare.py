"""Compare two sets of untraced benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records run.py appends to .perfbench_runs/runs.jsonl
(copy it aside after each side's runs). For every workload and end-to-end
metric it prints each side's quartiles, the change of the median as a share
of the base median, and "WORSE" where that exceeds the bound in
BENCHMARK.json. Runs whose machine facts differ are not comparable; the
script says so before anything else.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list:
    with open(path) as f:
        return [r for r in map(json.loads, f) if r["trace"] == 0]


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, change = load(argv[0]), load(argv[1])
    facts = {json.dumps(r["facts"], sort_keys=True) for r in base + change}
    if len(facts) > 1:
        print("machine facts differ between runs; medians below compare different set-ups:")
        for f in sorted(facts):
            print(f"  {f}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    print(f"{'workload':20s} {'metric':14s} {'base q1/q2/q3':>30s} {'change q1/q2/q3':>30s} {'delta':>8s}")
    for w in workloads:
        for m in spec:
            sides = []
            for runs in (base, change):
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs if r["workload"] == w]
                sides.append(quantiles(values, n=4) if len(values) > 1 else values * 3)
            delta = sides[1][1] / sides[0][1] - 1.0
            worse = delta > m["bound"] if m["better"] == "lower" else -delta > m["bound"]
            cells = ["/".join(f"{v:.4g}" for v in q) for q in sides]
            flag = "  WORSE" if worse else ""
            print(f"{w:20s} {m['name']:14s} {cells[0]:>30s} {cells[1]:>30s} {delta:+8.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
