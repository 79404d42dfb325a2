"""Independent exact checker for the benchmark's outputs.

Uses only ``fractions.Fraction`` and integers and never imports
``rational_kcbs``, so a fault in the program cannot hide behind the same
fault in its oracle.  Cycle values come from the projection identity
``n - 4 * sum_i <psi|v_i>^2`` and correlators from
``1 - 2 p_i - 2 p_{i+1}``, a different route from the program's full
observable products.

Every ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

Vec = tuple[Fraction, Fraction, Fraction]

INVARIANTS = ("cycle-length", "state-not-unit", "vector-not-unit", "adjacent-not-orthogonal")


def dot(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec, v: Vec) -> Vec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def is_square(k: int) -> bool:
    return k >= 0 and math.isqrt(k) ** 2 == k


def fraction_text(r: Fraction) -> str:
    """Canonical wire form: ``p`` for integers, else ``p/q`` in lowest terms."""
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def first_invalid(state: Vec, vectors: list[Vec]) -> tuple[str, int | None, tuple[int, int] | None] | None:
    """The first violated invariant in the documented check order (cycle
    length, state norm, vector norms, adjacency) with its index or pair, or
    None for a valid cycle."""
    n = len(vectors)
    if n < 3 or n % 2 == 0:
        return ("cycle-length", None, None)
    if dot(state, state) != 1:
        return ("state-not-unit", None, None)
    for i, v in enumerate(vectors):
        if dot(v, v) != 1:
            return ("vector-not-unit", i, None)
    for i in range(n):
        j = (i + 1) % n
        if dot(vectors[i], vectors[j]) != 0:
            return ("adjacent-not-orthogonal", None, (i, j))
    return None


def cycle_value(state: Vec, vectors: list[Vec]) -> tuple[Fraction, list[Fraction]]:
    """Exact cycle sum and correlators of a valid cycle via projections."""
    n = len(vectors)
    p = [dot(state, v) ** 2 for v in vectors]
    corrs = [1 - 2 * p[i] - 2 * p[(i + 1) % n] for i in range(n)]
    return n - 4 * sum(p), corrs


def round_decimal(r: Fraction, digits: int) -> str:
    """``r`` to ``digits`` places, ties away from zero: floor(|r| 10^d + 1/2)."""
    q = math.floor(abs(r) * 10**digits + Fraction(1, 2))
    body = str(q).rjust(digits + 1, "0")
    if digits:
        body = body[:-digits] + "." + body[-digits:]
    return ("-" if r < 0 and q else "") + body


def check_report(code: int, report: dict, state: Vec, vectors: list[Vec], digits: int) -> list[str]:
    """Check an ``evaluate`` report for a valid cycle."""
    if code != 0:
        return [f"evaluate exit code {code}, expected 0"]
    n = len(vectors)
    value, corrs = cycle_value(state, vectors)
    bound = -(n - 2)
    problems = []
    if report.get("value") != fraction_text(value):
        problems.append(f"value {report.get('value')} != {fraction_text(value)}")
    if report.get("per_correlator") != [fraction_text(c) for c in corrs]:
        problems.append("per_correlator differs from 1 - 2p_i - 2p_(i+1)")
    if report.get("classical_bound") != bound:
        problems.append(f"classical_bound {report.get('classical_bound')} != {bound}")
    if report.get("violation") is not (value < bound):
        problems.append(f"violation flag {report.get('violation')} for value {value}")
    if report.get("decimal") != round_decimal(value, digits):
        problems.append(f"decimal {report.get('decimal')} != {round_decimal(value, digits)}")
    checks = report.get("checks")
    if not checks or not all(v is True for v in checks.values()):
        problems.append(f"checks not all true: {checks}")
    return problems


def check_verify(code: int, payload: dict, state: Vec, vectors: list[Vec]) -> list[str]:
    """Check a ``verify`` result against the first invalid invariant."""
    expected = first_invalid(state, vectors)
    if expected is None:
        if code != 0 or payload != {"valid": True, "n": len(vectors)}:
            return [f"valid cycle: got exit {code} and {payload}"]
        return []
    reason, index, pair = expected
    problems = []
    if code != 1 or payload.get("valid") is not False or payload.get("invariant") != reason:
        problems.append(f"expected exit 1 naming {reason}, got exit {code} and {payload}")
    if index is not None and payload.get("index") != index:
        problems.append(f"expected index {index}, got {payload.get('index')}")
    if pair is not None and payload.get("pair") != list(pair):
        problems.append(f"expected pair {list(pair)}, got {payload.get('pair')}")
    return problems


def primitive_params(max_mn: int) -> list[tuple[int, int]]:
    """(m, n) with max_mn >= m > n >= 1, coprime, m - n odd."""
    return [
        (m, n)
        for m in range(2, max_mn + 1)
        for n in range(1, m)
        if math.gcd(m, n) == 1 and (m - n) % 2
    ]


def triple(m: int, n: int) -> tuple[int, int, int]:
    return (m * m - n * n, 2 * m * n, m * m + n * n)


def closing_square(p1: tuple[int, int], p2: tuple[int, int]) -> int:
    """Squared integer length of the cross product that closes the pentagon
    built from ``p1`` (x-z plane) and ``p2`` (y-z plane); the pentagon is
    rational exactly when this is a perfect square."""
    a1, b1, _ = triple(*p1)
    a2, b2, _ = triple(*p2)
    return (a1 * b2) ** 2 + (b1 * a2) ** 2 + (b1 * b2) ** 2


@lru_cache(maxsize=None)
def closable_count(max_mn: int) -> int:
    params = primitive_params(max_mn)
    return sum(is_square(closing_square(p1, p2)) for p1 in params for p2 in params)


def check_search(hits: list[tuple[Fraction, tuple, Vec, list[Vec]]], max_mn: int,
                 max_den: int, top_k: int, violating: int) -> list[str]:
    """Check ``search`` hits given as (value, ((m1, n1), (m2, n2)), state,
    vectors): each an exactly valid pentagon from closable parameters with
    5 - 4*sqrt(5) <= value < -3, state plane denominators within max_den,
    sorted most negative first, no two from the same parameters, and exactly
    min(top_k, violating) of them, where ``violating`` is the number of
    closable pairs whose pentagon has a violating rational state (found by
    the caller's own aiming), itself no more than the closable pairs."""
    problems = []
    closable = closable_count(max_mn)
    if violating > closable:
        problems.append(f"{violating} violating pairs exceed {closable} closable pairs")
    expected = min(top_k, violating)
    if len(hits) != expected:
        problems.append(f"{len(hits)} hits, expected min(top_k {top_k}, violating {violating})")
    if len(hits) > closable:
        problems.append(f"{len(hits)} hits exceed {closable} closable pairs")
    params = [h[1] for h in hits]
    if len(set(params)) != len(params):
        problems.append("two hits come from the same parameters")
    values = [h[0] for h in hits]
    if values != sorted(values):
        problems.append("hits are not sorted by value")
    for value, (p1, p2), state, vectors in hits:
        tag = f"hit {p1},{p2}"
        if len(vectors) != 5 or first_invalid(state, vectors) is not None:
            problems.append(f"{tag}: not a valid pentagon: {first_invalid(state, vectors)}")
            continue
        if max(p1[0], p2[0]) > max_mn or not is_square(closing_square(p1, p2)):
            problems.append(f"{tag}: parameters are not a closable pair within {max_mn}")
        a1, b1, h1 = triple(*p1)
        a2, b2, h2 = triple(*p2)
        if vectors[2] != (Fraction(b1, h1), 0, Fraction(-a1, h1)) or \
                vectors[4] != (0, Fraction(b2, h2), Fraction(-a2, h2)):
            problems.append(f"{tag}: v2/v4 do not come from the parameter triples")
        exact, _ = cycle_value(state, vectors)
        if value != exact:
            problems.append(f"{tag}: value {value} != {exact}")
        if not (value < -3 and (5 - value) ** 2 <= 80):
            problems.append(f"{tag}: value {value} outside [5 - 4*sqrt(5), -3)")
        if state[2] == -1:
            problems.append(f"{tag}: state at the stereographic pole")
        else:
            plane = (state[0] / (1 + state[2]), state[1] / (1 + state[2]))
            if max(c.denominator for c in plane) > max_den:
                problems.append(f"{tag}: state plane denominators exceed {max_den}")
    return problems
