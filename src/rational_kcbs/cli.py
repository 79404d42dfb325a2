"""Command-line front end.

Machine-readable JSON goes to stdout, a one-line human summary to stderr.
All fractions are serialized as strings in the ``p`` / ``p/q`` wire format,
never as floating-point JSON numbers, so output re-parses to the exact
computed values.  Exit codes: 0 success/valid, 1 validation failure (the
failing invariant is named), 2 I/O, parse or argument error.

Config file schema (UTF-8 JSON)::

    {"state": ["354/527", "357/527", "-158/527"],
     "vectors": [["1", "0", "0"], ...]}
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any

from .contextuality import (
    CycleScenario,
    CycleValidationError,
    correlator,
    kcbs_value_via_projections,
    reference_scenario,
    validate_cycle,
)
from .hv_models import classical_min_cycle, is_violation
from .linalg3 import Mat3Q, Vec3Q, commutator, mat_mul
from .rationals import format_rational, parse_rational, to_decimal
from .search import search

DEFAULT_DIGITS = 3
# Largest --digits: to_decimal renders 10**digits-scaled integers, and str()
# of an int is capped at 4300 digits by default.
MAX_DIGITS = 1000
# Largest ``bound --n``: the pass is O(n) and prints an n-entry witness.
MAX_BOUND_N = 100_001


class ConfigError(ValueError):
    """A config file has the wrong shape or a malformed fraction string."""


def _parse_triple(raw: Any, what: str) -> Vec3Q:
    if not isinstance(raw, list) or len(raw) != 3 or not all(isinstance(c, str) for c in raw):
        raise ConfigError(f"{what} must be a list of 3 fraction strings, got {raw!r}")
    try:
        return Vec3Q(*(parse_rational(c) for c in raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_config(path: str) -> tuple[Vec3Q, list[Vec3Q]]:
    """Read and parse a config file; raises OSError, json.JSONDecodeError,
    or ConfigError.  Validation of the parsed scenario happens separately."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or set(data) != {"state", "vectors"}:
        raise ConfigError('config must be an object with exactly "state" and "vectors"')
    state = _parse_triple(data["state"], "state")
    if not isinstance(data["vectors"], list) or not data["vectors"]:
        raise ConfigError('"vectors" must be a non-empty list of triples')
    vectors = [
        _parse_triple(raw, f"vectors[{i}]") for i, raw in enumerate(data["vectors"])
    ]
    return state, vectors


def _vec_strings(v: Vec3Q) -> list[str]:
    return [format_rational(c) for c in v.as_tuple()]


def scenario_config(s: CycleScenario) -> dict:
    """Config-file form of a scenario; feeds back into verify/evaluate."""
    return {
        "state": _vec_strings(s.state.v),
        "vectors": [_vec_strings(u.v) for u in s.vectors],
    }


def _run_checks(s: CycleScenario, value: Fraction, corrs: list[Fraction]) -> dict[str, bool]:
    """Exact re-checks of the named invariants, reported alongside results."""
    observables = s.observables
    identity = Mat3Q.identity()
    square_ok = all(mat_mul(o.matrix, o.matrix) == identity for o in observables)
    trace_ok = all(o.matrix.trace() == -1 for o in observables)
    commute_ok = all(
        commutator(observables[i].matrix, observables[(i + 1) % s.n].matrix)
        == Mat3Q.zero()
        for i in range(s.n)
    )
    return {
        "observables_square_to_identity": square_ok,
        "observables_trace_minus_one": trace_ok,
        "adjacent_observables_commute": commute_ok,
        "correlators_in_range": all(-1 <= c <= 1 for c in corrs),
        "value_in_range": -s.n <= value <= s.n,
        "projection_identity_matches": value == kcbs_value_via_projections(s),
    }


def build_report(s: CycleScenario, digits: int) -> dict:
    corrs = [correlator(s, i) for i in range(s.n)]
    value = sum(corrs)
    checks = _run_checks(s, value, corrs)
    bound, _witness = classical_min_cycle(s.n)
    checks["classical_bound_enumerated"] = True  # certified over all 2^n assignments
    return {
        "value": format_rational(value),
        "decimal": to_decimal(value, digits),
        "classical_bound": bound,
        "violation": is_violation(value, s.n),
        "per_correlator": [format_rational(c) for c in corrs],
        "checks": checks,
    }


def _emit(payload: Any) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _summarize(report: dict, n: int) -> str:
    tag = "violation" if report["violation"] else "no violation"
    return (
        f"valid {n}-cycle; value {report['decimal']} (exact {report['value']}); "
        f"classical bound {report['classical_bound']}; {tag}"
    )


def _invalid_payload(exc: CycleValidationError) -> dict:
    payload: dict[str, Any] = {"valid": False, "invariant": exc.reason, "message": str(exc)}
    if exc.index is not None:
        payload["index"] = exc.index
    if exc.pair is not None:
        payload["pair"] = list(exc.pair)
    return payload


def cmd_reference(args: argparse.Namespace) -> int:
    scenario = reference_scenario()
    report = build_report(scenario, args.digits)
    _emit(report)
    _note(_summarize(report, scenario.n))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    state, vectors = load_config(args.config)
    try:
        scenario = validate_cycle(state, vectors)
    except CycleValidationError as exc:
        _emit(_invalid_payload(exc))
        _note(f"INVALID: {exc}")
        return 1
    _emit({"valid": True, "n": scenario.n})
    _note(f"valid {scenario.n}-cycle")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    state, vectors = load_config(args.config)
    try:
        scenario = validate_cycle(state, vectors)
    except CycleValidationError as exc:
        _emit(_invalid_payload(exc))
        _note(f"INVALID: {exc}")
        return 1
    report = build_report(scenario, args.digits)
    _emit(report)
    _note(_summarize(report, scenario.n))
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    try:
        if args.n > MAX_BOUND_N:
            raise ValueError(f"bound --n is limited to {MAX_BOUND_N}, got {args.n}")
        bound, witness = classical_min_cycle(args.n)
    except ValueError as exc:
        _note(f"INVALID: {exc}")
        return 1
    _emit({"n": args.n, "classical_bound": bound, "witness": list(witness.outcomes)})
    _note(f"classical minimum over the {args.n}-cycle: {bound}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    try:
        hits = search(args.max_mn, args.max_den, args.top)
    except ValueError as exc:
        _note(f"INVALID: {exc}")
        return 1
    payload = []
    for hit in hits:
        p1, p2 = hit.params
        payload.append(
            {
                "params": {
                    "first": {"m": p1.m, "n": p1.n},
                    "second": {"m": p2.m, "n": p2.n},
                },
                "state_denominator_bound": hit.state_denominator_bound,
                "config": scenario_config(hit.scenario),
                "report": build_report(hit.scenario, args.digits),
            }
        )
    _emit(payload)
    if hits:
        _note(
            f"{len(hits)} violating configuration(s); best "
            f"{to_decimal(hits[0].value, args.digits)} (exact {format_rational(hits[0].value)})"
        )
    else:
        _note("no violating configuration found")
    return 0


def _digits(text: str) -> int:
    if not 0 <= int(text) <= MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 0 to {MAX_DIGITS}, got {text}"
        )
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rational-kcbs",
        description=(
            "Exact rational verification, evaluation, bound certification, and "
            "violation search for cycle noncontextuality inequalities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ref = sub.add_parser("reference", help="evaluate the built-in reference configuration")
    ref.set_defaults(func=cmd_reference)

    verify = sub.add_parser("verify", help="validate a config file's exact invariants")
    verify.add_argument("config")
    verify.set_defaults(func=cmd_verify)

    evaluate = sub.add_parser("evaluate", help="validate and evaluate a config file")
    evaluate.add_argument("config")
    evaluate.set_defaults(func=cmd_evaluate)

    bound = sub.add_parser("bound", help="certify the classical cycle bound over all 2^n assignments")
    bound.add_argument("--n", type=int, required=True)
    bound.set_defaults(func=cmd_bound)

    srch = sub.add_parser("search", help="search rational pentagons for exact violations")
    srch.add_argument("--max-mn", type=int, default=14)
    srch.add_argument("--max-den", type=int, default=600)
    srch.add_argument("--top", type=int, default=5)
    srch.set_defaults(func=cmd_search)

    for cmd in (ref, evaluate, srch):
        cmd.add_argument("--digits", type=_digits, default=DEFAULT_DIGITS)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError) as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
