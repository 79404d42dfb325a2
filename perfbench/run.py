"""Benchmark for rational_kcbs: one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are defined in ``workloads.py``; every output is
checked by ``checker.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end times are at a reference machine speed (``speed.py``).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Sibling modules; this directory is on sys.path as the script's own.
import checker
import workloads
from coldstart import import_program
from speed import SpeedProbe
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7  # cold set-ups per run; setup_s is their median
MIN_OPS = 100


def cold_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter (``coldstart.py``); return its
    (start, end) on this process's ``perf_counter`` clock."""
    out = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"set-up failed with exit code {out.returncode}")
    times = json.loads(out.stdout.strip().splitlines()[-1])
    return times["start"], times["end"]


def run_op(mods: dict, op: workloads.Op):
    if op.kind == "search":
        return mods["search"].search(*op.search_args)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mods["cli"].main(op.argv())
    return code, out.getvalue()


def check_op(op: workloads.Op, result) -> list[str]:
    if op.kind == "search":
        max_den = op.search_args[1]
        hits = [
            (h.value,
             tuple((p.m, p.n) for p in h.params),
             h.scenario.state.v.as_tuple(),
             [u.v.as_tuple() for u in h.scenario.vectors])
            for h in result
        ]
        violating = workloads.violating_closable_count(op.search_args[0], max_den)
        problems = checker.check_search(hits, *op.search_args, violating)
        if any(h.state_denominator_bound != max_den for h in result):
            problems.append(f"state_denominator_bound differs from max_den {max_den}")
        return problems
    code, text = result
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return [f"exit code {code} with output that is not JSON: {text[:200]!r}"]
    if op.kind == "verify":
        return checker.check_verify(code, payload, op.state, op.vectors)
    return checker.check_report(code, payload, op.state, op.vectors, op.digits)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, round_lengths: list[list[int]],
                  latencies: dict[bool, list[float]], scale: float) -> dict:
    """Per-layer metrics of the traced rounds; counts and times are per
    operation so runs of different lengths compare, and times are taken to
    the reference machine speed by the traced rounds' mean ``scale``."""
    def calls(key):
        return per_op(tracer.calls[key], ops)

    def seconds(key, table=tracer.total_ns):
        return per_op(scale * table[key] / 1e9, ops)

    build_calls = tracer.calls["search.build_pentagon"]
    n_ratios = [len(set(ns)) / len(ns) for ns in round_lengths if ns]
    metrics = {
        "search.requests": (calls("search.search"), "count/op"),
        "search.build_pentagon_calls": (calls("search.build_pentagon"), "count/op"),
        "search.build_pentagon_s": (seconds("search.build_pentagon"), "s/op"),
        "search.pentagons_closed": (per_op(tracer.pentagons_closed, ops), "count/op"),
        "search.close_ratio": (ratio(tracer.pentagons_closed, build_calls), "ratio"),
        "search.optimal_state_numeric_s": (seconds("search.optimal_state_numeric"), "s/op"),
        "search.rationalize_state_s": (seconds("search.rationalize_state"), "s/op"),
        "search.hit_ratio": (ratio(tracer.search_violations, tracer.pentagons_closed), "ratio"),
        "search.search_self_s": (seconds("search.search", tracer.self_ns), "s/op"),
        "hv_models.classical_min_cycle_calls": (calls("hv_models.classical_min_cycle"), "count/op"),
        "hv_models.classical_min_cycle_s": (seconds("hv_models.classical_min_cycle"), "s/op"),
        "hv_models.assignments_enumerated": (per_op(tracer.assignments_enumerated, ops), "count/op"),
        "hv_models.distinct_n_ratio": (statistics.fmean(n_ratios) if n_ratios else 0.0, "ratio"),
        "cli.main_calls": (calls("cli.main"), "count/op"),
        "cli.load_config_s": (seconds("cli.load_config"), "s/op"),
        "cli.build_report_calls": (calls("cli.build_report"), "count/op"),
        "cli.build_report_self_s": (seconds("cli.build_report", tracer.self_ns), "s/op"),
        "contextuality.validate_cycle_calls": (calls("contextuality.validate_cycle"), "count/op"),
        "contextuality.validate_cycle_s": (seconds("contextuality.validate_cycle"), "s/op"),
        "contextuality.kcbs_value_s": (seconds("contextuality.kcbs_value"), "s/op"),
        "contextuality.correlator_calls": (calls("contextuality.correlator"), "count/op"),
        "contextuality.projection_route_s": (
            seconds("contextuality.kcbs_value_via_projections"), "s/op"),
        "contextuality.cycle_operator_s": (seconds("contextuality.cycle_operator"), "s/op"),
        "contextuality.make_observable_calls": (calls("contextuality.make_observable"), "count/op"),
        "linalg3.mat_mul_calls": (calls("linalg3.mat_mul"), "count/op"),
        "linalg3.mat_mul_s": (seconds("linalg3.mat_mul"), "s/op"),
        "linalg3.quadratic_form_calls": (calls("linalg3.quadratic_form"), "count/op"),
        "linalg3.cross_calls": (calls("linalg3.cross"), "count/op"),
        "rationals.parse_rational_calls": (calls("rationals.parse_rational"), "count/op"),
        "rationals.parse_rational_s": (seconds("rationals.parse_rational"), "s/op"),
        "rationals.to_decimal_s": (seconds("rationals.to_decimal"), "s/op"),
    }
    for layer in LAYERS:
        keys = [k for k in tracer.calls if k.startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = (
            per_op(scale * sum(tracer.self_ns[k] for k in keys) / 1e9, ops), "s/op")
        metrics[f"{layer}.calls"] = (per_op(sum(tracer.calls[k] for k in keys), ops), "count/op")
    traced, plain = latencies[True], latencies[False]
    overhead = 100 * (ratio(statistics.fmean(traced), statistics.fmean(plain)) - 1) if traced and plain else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["trace.spans_per_op"] = (per_op(len(tracer.spans) + tracer.dropped, ops), "count/op")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread: keep numpy's BLAS from starting a pool of its own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    make_round = workloads.ROUNDS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    probe = SpeedProbe()
    try:
        # Set-up: import the program and generate the first round's inputs,
        # timed in fresh interpreters; then the same, untimed, in this one.
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            probe.sample()
            setups.append(cold_setup(args.workload, args.seed, workdir))
        probe.sample()
        shutil.rmtree(workdir)
        workdir.mkdir()
        mods = import_program()
        ops = make_round(args.seed, 0, workdir)

        # Closed loop over whole rounds.  In trace mode odd rounds are traced
        # and even rounds are not, so the overhead is a paired comparison.
        tracer = Tracer(mods) if args.trace else None
        timed: dict[bool, list[tuple[float, float]]] = {False: [], True: []}  # (start, end)
        round_lengths: list[list[int]] = []
        attempted = 0
        crashes: list[str] = []  # operations that raised
        wrong: list[str] = []  # outputs that failed a check
        start = time.perf_counter()
        round_no = 0
        while True:
            traced = tracer is not None and round_no % 2 == 1
            if traced:
                seen = len(tracer.cycle_lengths)
                tracer.install()
            for op in ops:
                if traced:
                    tracer.begin_op(attempted)
                attempted += 1
                probe.maybe_sample()
                t0 = time.perf_counter()
                try:
                    result = run_op(mods, op)
                except Exception as exc:  # a crash is a failed operation, not a result
                    crashes.append(f"{op.kind} {op.label} raised {exc!r}")
                    continue
                timed[traced].append((t0, time.perf_counter()))
                wrong.extend(f"{op.kind} {op.label}: {p}" for p in check_op(op, result))
            if traced:
                tracer.uninstall()
                round_lengths.append(tracer.cycle_lengths[seen:])
            round_no += 1
            # Stop before a round that would, on average, end past the
            # deadline, so a run lasts about --seconds whatever the round size.
            elapsed = time.perf_counter() - start
            if (elapsed * (round_no + 1) / round_no >= args.seconds and attempted >= MIN_OPS
                    and (tracer is None or round_no % 2 == 0)):
                break
            shutil.rmtree(workdir)
            workdir.mkdir()
            ops = make_round(args.seed, round_no, workdir)
        probe.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Times at the reference machine speed (see speed.py); raw wall-clock
    # figures go to stderr.
    def at_reference(intervals):
        return [(end - start) * probe.scale(start, end) for start, end in intervals]

    latencies = {traced: at_reference(intervals) for traced, intervals in timed.items()}
    raw = [end - start for start, end in timed[False]]

    for problem in (crashes + wrong)[:20]:
        print(problem, file=sys.stderr)

    if tracer is None:
        lat = latencies[False]
        print(f"raw wall clock: ops_per_s {len(raw) / sum(raw):.4g}, "
              f"p50 {1000 * statistics.median(raw):.4g} ms, p90 {1000 * percentile(raw, 90):.4g} ms, "
              f"setup {statistics.median(end - start for start, end in setups):.4g} s, "
              f"median probe {1000 * statistics.median(probe.values):.4g} ms", file=sys.stderr)
        metrics = {
            "setup_s": (statistics.median(at_reference(setups)), "s"),
            "ops_per_s": (len(lat) / sum(lat), "ops/s"),
            "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
            "latency_p90_ms": (1000 * percentile(lat, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_raw = sum(end - start for start, end in timed[True])
        metrics = layer_metrics(tracer, len(latencies[True]), round_lengths, latencies,
                                sum(latencies[True]) / traced_raw)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"trace: {trace_path} ({len(tracer.spans)} spans kept, {tracer.dropped} dropped)",
              file=sys.stderr)
    print(f"{args.workload}: {attempted} ops in {round_no} rounds, {len(crashes)} failed, "
          f"{len(wrong)} wrong", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(crashes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
