"""Regenerate the reference figures in README.md.

    python3 perfbench/figures.py

Runs ``run.py`` one run at a time from the repository root: every workload
untraced with seeds 101 ... 110, then traced with seeds 101 ... 103, 40 s
each (about 30 minutes), and prints the two markdown tables.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("search-sweep", "evaluate-mixed", "long-cycles")
UNTRACED_SEEDS = range(101, 111)
TRACED_SEEDS = range(101, 104)
SECONDS = 40


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(workload, seed, trace, result["correct"], result["attempted"], result["failed"],
          file=sys.stderr, flush=True)
    return result


def fmt(x: float) -> str:
    return f"{x:.4g}"


def tables(untraced: dict[str, list[dict]], traced: dict[str, list[dict]]) -> str:
    """Markdown tables: untraced median [q1 … q3] (spread), traced medians."""
    lines = ["| metric | " + " | ".join(WORKLOADS) + " |", "| --- |" + " --- |" * len(WORKLOADS)]
    first = untraced[WORKLOADS[0]][0]["metrics"]
    for name, info in first.items():
        cells = []
        for w in WORKLOADS:
            values = [r["metrics"][name]["value"] for r in untraced[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            cells.append(f"{fmt(med)} [{fmt(q1)} … {fmt(q3)}] ({(q3 - q1) / med:.3f})")
        lines.append(f"| `{name}` ({info['unit']}) | " + " | ".join(cells) + " |")
    lines.append("| operations per run (latency samples) | " + " | ".join(
        f"{min(r['attempted'] for r in untraced[w])} … {max(r['attempted'] for r in untraced[w])}"
        for w in WORKLOADS) + " |")
    lines.append("| failed operations in all runs | " + " | ".join(
        str(sum(r["failed"] for r in untraced[w])) for w in WORKLOADS) + " |")
    lines += ["", "| per-layer metric | unit | " + " | ".join(WORKLOADS) + " |",
              "| --- | --- |" + " --- |" * len(WORKLOADS)]
    for name, info in traced[WORKLOADS[0]][0]["metrics"].items():
        cells = [fmt(statistics.median(r["metrics"][name]["value"] for r in traced[w]))
                 for w in WORKLOADS]
        lines.append(f"| `{name}` | {info['unit']} | " + " | ".join(cells) + " |")
    # Traced runs alternate untraced and traced rounds of equal size.
    lines.append("| traced operations per run | | " + " | ".join(
        f"{min(r['attempted'] for r in traced[w]) // 2} … {max(r['attempted'] for r in traced[w]) // 2}"
        for w in WORKLOADS) + " |")
    return "\n".join(lines)


def main() -> None:
    untraced = {w: [run(w, s, 0) for s in UNTRACED_SEEDS] for w in WORKLOADS}
    traced = {w: [run(w, s, 1) for s in TRACED_SEEDS] for w in WORKLOADS}
    print(tables(untraced, traced))


if __name__ == "__main__":
    main()
