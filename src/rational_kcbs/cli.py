"""Command-line front end.

Machine-readable JSON goes to stdout as one compact line (``json.dumps``
and a newline), a one-line human summary to stderr.
All fractions are serialized as strings in the ``p`` / ``p/q`` wire format,
never as floating-point JSON numbers, so output re-parses to the exact
computed values.  Exit codes: 0 success/valid, 1 validation failure (the
failing invariant is named), 2 I/O, parse or argument error (JSON nested too
deeply, holding an oversized number or repeating a key included).  An
argument error after a command name is reported with that command's own
usage line (``rational-kcbs evaluate: error: ...``); ``-h`` exits 0.

Config file schema (UTF-8 JSON, read with text mode's universal newlines)::

    {"state": ["354/527", "357/527", "-158/527"],
     "vectors": [["1", "0", "0"], ...]}

Each triple of fraction strings is read component by component by
``rationals._triple_ratios`` and straight into a ``Vec3Q``'s ints over the
lcm of its denominators; reading and validating a config builds no Fraction.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import lcm

from .contextuality import (
    CycleScenario,
    CycleValidationError,
    _observable_checks,
    correlator,
    kcbs_value_via_projections,
    reference_scenario,
    validate_cycle,
)
from .hv_models import classical_min_cycle, is_violation
from .linalg3 import Vec3Q, _ints, _vec
from .rationals import _triple_ratios, format_rational, to_decimal
from .search import search

DEFAULT_DIGITS = 3
# Largest --digits: a limit on the size of a request (to_decimal itself
# renders any number of digits).
MAX_DIGITS = 1000
# Largest ``bound --n``: the pass is O(n) and prints an n-entry witness.
MAX_BOUND_N = 100_001


class ConfigError(ValueError):
    """A config file has the wrong shape or a malformed fraction string."""


def _parse_triple(raw: object, what: str) -> Vec3Q:
    if isinstance(raw, list) and len(raw) == 3:
        c0, c1, c2 = raw
        if isinstance(c0, str) and isinstance(c1, str) and isinstance(c2, str):
            try:
                (p0, q0), (p1, q1), (p2, q2) = _triple_ratios(c0, c1, c2)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{what}: {exc}") from exc
            den = lcm(q0, q1, q2)
            return _vec((p0 * (den // q0), p1 * (den // q1), p2 * (den // q2)), den)
    raise ConfigError(f"{what} must be a list of 3 fraction strings, got {raw!r}")


def _object_once(pairs: list[tuple[str, object]]) -> dict[str, object]:
    data = dict(pairs)
    if len(data) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"config JSON repeats the key {json.dumps(key)}")
            seen.add(key)
    return data


# one decoder for the process: json.loads with a hook builds one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_object_once)


def load_config(path: str) -> tuple[Vec3Q, list[Vec3Q]]:
    """Read and parse a config file; raises OSError, UnicodeDecodeError,
    json.JSONDecodeError, or ConfigError.  Validation of the parsed scenario
    happens separately."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    # the universal newlines of text mode, so the decoder sees the same str
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text.startswith("\ufeff"):  # json.loads' own check, which decode() skips
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        data = _DECODER.decode(text)
    except (json.JSONDecodeError, ConfigError):
        raise
    except RecursionError:
        raise ConfigError("config JSON is nested too deeply") from None
    except ValueError as exc:  # an integer beyond the int-from-string digit limit
        raise ConfigError(f"config JSON has an oversized number: {exc}") from None
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
    square_ok, trace_ok, commute_ok = _observable_checks(s.observables)
    return {
        "observables_square_to_identity": square_ok,
        "observables_trace_minus_one": trace_ok,
        "adjacent_observables_commute": commute_ok,
        "correlators_in_range": all(abs(c.numerator) <= c.denominator for c in corrs),
        "value_in_range": abs(value.numerator) <= s.n * value.denominator,
        "projection_identity_matches": value == kcbs_value_via_projections(s),
    }


def build_report(s: CycleScenario, digits: int) -> dict:
    corrs = [correlator(s, i) for i in range(s.n)]
    nums, den = _ints(corrs)  # the exact sum of corrs as one Fraction
    value = Fraction(sum(nums), den)
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


def _emit(payload: object) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _summarize(report: dict, n: int) -> str:
    tag = "violation" if report["violation"] else "no violation"
    return (
        f"valid {n}-cycle; value {report['decimal']} (exact {report['value']}); "
        f"classical bound {report['classical_bound']}; {tag}"
    )


def _load_scenario(path: str) -> CycleScenario | None:
    """The validated scenario of a config file, or None once the invariant
    it breaks is reported (JSON on stdout, one line on stderr)."""
    state, vectors = load_config(path)
    try:
        return validate_cycle(state, vectors)
    except CycleValidationError as exc:
        payload: dict[str, object] = {"valid": False, "invariant": exc.reason, "message": str(exc)}
        if exc.index is not None:
            payload["index"] = exc.index
        if exc.pair is not None:
            payload["pair"] = list(exc.pair)
        _emit(payload)
        _note(f"INVALID: {exc}")
        return None


def _report(scenario: CycleScenario, digits: int) -> int:
    report = build_report(scenario, digits)
    _emit(report)
    _note(_summarize(report, scenario.n))
    return 0


def cmd_reference(args: argparse.Namespace) -> int:
    return _report(reference_scenario(), args.digits)


def cmd_verify(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.config)
    if scenario is None:
        return 1
    _emit({"valid": True, "n": scenario.n})
    _note(f"valid {scenario.n}-cycle")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.config)
    if scenario is None:
        return 1
    return _report(scenario, args.digits)


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
    try:
        digits = int(text)
        if 0 <= digits <= MAX_DIGITS:
            return digits
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer from 0 to {MAX_DIGITS}, got {text}")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and each command's own parser by name, built
    once per process."""
    parser = argparse.ArgumentParser(
        prog="rational-kcbs",
        description=(
            "Exact rational verification, evaluation, bound certification, and "
            "violation search for cycle noncontextuality inequalities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ref = sub.add_parser("reference", help="evaluate the built-in reference configuration")

    verify = sub.add_parser("verify", help="validate a config file's exact invariants")
    verify.add_argument("config")

    evaluate = sub.add_parser("evaluate", help="validate and evaluate a config file")
    evaluate.add_argument("config")

    bound = sub.add_parser("bound", help="certify the classical cycle bound over all 2^n assignments")
    bound.add_argument("--n", type=int, required=True)

    srch = sub.add_parser("search", help="search rational pentagons for exact violations")
    srch.add_argument("--max-mn", type=int, default=14)
    srch.add_argument("--max-den", type=int, default=600)
    srch.add_argument("--top", type=int, default=5)

    for cmd in (ref, evaluate, srch):
        cmd.add_argument("--digits", type=_digits, default=DEFAULT_DIGITS)

    commands = {"reference": ref, "verify": verify, "evaluate": evaluate, "bound": bound, "search": srch}
    return parser, commands


def main(argv: list[str] | tuple[str, ...] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no command, a top-level option or an unknown name
        args = parser.parse_args(argv)
    else:  # the command's own parser reads the rest, as the top-level one would hand it on
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    try:
        # looked up per call, so the parser kept for the process binds no function
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError) as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
