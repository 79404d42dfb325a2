"""One cold set-up of a workload, in a fresh interpreter.

    python3 perfbench/coldstart.py WORKLOAD SEED WORKDIR

Imports ``rational_kcbs`` from ``src/`` and generates the workload's first
round (config files go to WORKDIR), then prints one JSON object with the
``time.perf_counter`` readings at the start and the end.  ``run.py`` starts
it several times per run for ``setup_s``, so every import the program makes,
numpy's included, is paid in every set-up.  ``perf_counter`` is the
system-wide monotonic clock, so the readings compare with the caller's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> dict:
    """Import the package from ``src/`` and return its layer modules by name."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("rational_kcbs")
    if Path(package.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"rational_kcbs was imported from {package.__file__}, not from {src}")
    return {layer: importlib.import_module(f"rational_kcbs.{layer}") for layer in LAYERS}


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = time.perf_counter()
    import_program()
    import workloads  # the generators' own imports count as input generation

    workloads.ROUNDS[workload](seed, 0, workdir)
    end = time.perf_counter()
    print(json.dumps({"start": start, "end": end}))


if __name__ == "__main__":
    main()
