"""Seeded inputs for the benchmark workloads.

Every input is exact and valid (or broken in exactly one way) by
construction: directions come from Pythagorean triples, integer-quaternion
rotations and stereographic lifts, never from rounding.  Nothing here
imports ``rational_kcbs``.

A workload is a sequence of rounds.  Every round of a workload has the same
make-up (the same request sizes, cycle lengths and operation kinds); the
seed and the round number choose the concrete numbers and their order, so
any run of whole rounds has the same mix and the same share of each kind.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from checker import (INVARIANTS, Vec, closing_square, cross, cycle_value, dot, fraction_text,
                     is_square, primitive_params, triple)

# search-sweep: max_mn of the requests in one round (latency grows with
# max_mn).  The median falls at the middle of the max_mn = 12 group and the
# 90th percentile at the middle of the max_mn = 20 group, so each percentile
# is set by many like requests rather than by a group's edge.
SEARCH_MAX_MN = ([6] * 8 + [8] * 7 + [10] * 7 + [12] * 6 + [14] * 6 + [16] * 4 + [18] * 4
                 + [20] * 6 + [22, 24])
SEARCH_MAX_DEN = (10, 10**6)
SEARCH_TOP_K = (1, 10)

# evaluate-mixed: per round, two evaluates (one aimed at the optimal state,
# one random) per log-stratum of the state plane denominator from 10 to 1e9,
# VERIFY_VALID verifies of valid pentagons, and one verify per broken
# invariant.  Evaluates are three quarters of the round, so the median falls
# well inside them rather than at the edge of the fast verifies.
EVALUATE_STRATA = 12
VERIFY_VALID = 4
PLANE_DEN_LOG10 = (1, 9)
DIGITS = (0, 1, 3, 6, 12, 24)
PENTAGON_MAX_MN = 30

# long-cycles: cycle length -> copies per round.  Most cycles are short; the
# median falls inside n = 11 and the 90th percentile inside n = 19.
LONG_CYCLE_COUNTS = {7: 12, 9: 10, 11: 8, 13: 6, 15: 5, 17: 4, 19: 4, 21: 2, 23: 1}


def round_rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


# ----------------------------------------------------------------------------
# exact geometry


CIRCLE_PARAMS = primitive_params(12)


def circle_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A rational point (c, s) with c^2 + s^2 = 1 and s != 0, from a
    primitive Pythagorean triple with random signs and order."""
    m, n = rng.choice(CIRCLE_PARAMS)
    a, b, h = triple(m, n)
    c, s = (Fraction(a, h), Fraction(b, h)) if rng.random() < 0.5 else (Fraction(b, h), Fraction(a, h))
    return (c if rng.random() < 0.5 else -c), (s if rng.random() < 0.5 else -s)


def quaternion_rotation(a: int, b: int, c: int, d: int) -> tuple[Vec, Vec, Vec]:
    """Rows of the rational rotation matrix of the integer quaternion
    a + bi + cj + dk; the rows form a right-handed orthonormal frame."""
    q = a * a + b * b + c * c + d * d
    rows = (
        (a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)),
        (2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)),
        (2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d),
    )
    return tuple(tuple(Fraction(e, q) for e in row) for row in rows)


def random_rotation(rng: random.Random, k: int = 3) -> tuple[Vec, Vec, Vec]:
    while True:
        quat = [rng.randint(-k, k) for _ in range(4)]
        if any(quat):
            return quaternion_rotation(*quat)


def rotate(rows: tuple[Vec, Vec, Vec], v: Vec) -> Vec:
    return tuple(dot(row, v) for row in rows)


def stereo_lift(p: Fraction, q: Fraction) -> Vec:
    """Inverse stereographic projection: exactly unit for rational p, q."""
    s = 1 + p * p + q * q
    return (2 * p / s, 2 * q / s, (1 - p * p - q * q) / s)


def rational_state_near(v: tuple[float, float, float], max_den: int) -> Vec:
    """An exactly unit rational state near the float unit vector ``v``,
    with stereographic plane denominators at most ``max_den``."""
    x, y, z = v if v[2] >= 0 else (-v[0], -v[1], -v[2])
    p = Fraction(x / (1 + z)).limit_denominator(max_den)
    q = Fraction(y / (1 + z)).limit_denominator(max_den)
    return stereo_lift(p, q)


def random_unit_float(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0, 1) for _ in range(3)]
        r = math.sqrt(sum(c * c for c in v))
        if r > 1e-3:
            return (v[0] / r, v[1] / r, v[2] / r)


def optimal_state_float(vectors: list[Vec]) -> tuple[float, float, float]:
    """Float eigenvector of the smallest eigenvalue of the cycle operator
    sum_i A_i A_{i+1} (A = 2vv^T - 1).  It only aims states; the exact
    checks never depend on it."""
    # Imported on first use, so a cold set-up charges numpy's import to the
    # program whenever the program loads it.
    import numpy as np

    vs = np.array([[float(c) for c in v] for v in vectors])
    obs = [2 * np.outer(v, v) - np.eye(3) for v in vs]
    op = sum(a @ b for a, b in zip(obs, obs[1:] + obs[:1]))
    x = np.linalg.eigh((op + op.T) / 2)[1][:, 0]
    return (float(x[0]), float(x[1]), float(x[2]))


@lru_cache(maxsize=None)
def closable_pairs(max_mn: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    params = primitive_params(max_mn)
    return [(p1, p2) for p1 in params for p2 in params if is_square(closing_square(p1, p2))]


def pentagon(p1: tuple[int, int], p2: tuple[int, int], s1: int = -1, s2: int = -1) -> list[Vec]:
    """e_x, e_y, v2 in the x-z plane from p1, v3 closing, v4 in the y-z plane
    from p2; ``s1``/``s2`` are the signs of the z components of v2/v4."""
    a1, b1, h1 = triple(*p1)
    a2, b2, h2 = triple(*p2)
    root = math.isqrt(closing_square(p1, p2))
    one, zero = Fraction(1), Fraction(0)
    return [
        (one, zero, zero),
        (zero, one, zero),
        (Fraction(b1, h1), zero, Fraction(s1 * a1, h1)),
        (Fraction(-s1 * a1 * b2, root), Fraction(-s2 * b1 * a2, root), Fraction(b1 * b2, root)),
        (zero, Fraction(b2, h2), Fraction(s2 * a2, h2)),
    ]


@lru_cache(maxsize=None)
def _pentagon_aim(p1: tuple[int, int], p2: tuple[int, int]) -> tuple[float, float, float]:
    return optimal_state_float(pentagon(p1, p2))


def violating_closable_count(max_mn: int, max_den: int) -> int:
    """How many closable pairs within ``max_mn`` give a pentagon (default z
    signs, as ``search`` builds them) whose optimal state, rationalized with
    plane denominators at most ``max_den``, violates the bound -3 exactly:
    the number of hits a complete search finds before ``top_k`` cuts."""
    count = 0
    for p1, p2 in closable_pairs(max_mn):
        vectors = pentagon(p1, p2)
        value, _ = cycle_value(rational_state_near(_pentagon_aim(p1, p2), max_den), vectors)
        count += value < -3
    return count


def odd_cycle(rng: random.Random, n: int) -> list[Vec]:
    """A valid odd n-cycle built from rational orthonormal frames.

    Start from the triangle of a random quaternion frame and grow it with
    two kinds of blocks inserted after an element ``a`` whose frame
    (a, b, c) is known: a detour [x, a] (+2) and a triangle [p, q, a] (+3),
    where p = cos*b + sin*c and q = -sin*b + cos*c lie in the plane
    orthogonal to ``a``.  Every block starts orthogonal to ``a`` and ends
    on ``a``, so adjacency holds throughout; vectors repeat.
    """
    f = random_rotation(rng)
    cycle = [(f[0], f[1], f[2]), (f[1], f[2], f[0]), (f[2], f[0], f[1])]  # (vector, frame rest)
    triangles = rng.choice([t for t in range(0, (n - 3) // 3 + 1, 2)])
    blocks = ["triangle"] * triangles + ["detour"] * ((n - 3 - 3 * triangles) // 2)
    rng.shuffle(blocks)
    for kind in blocks:
        at = rng.randrange(len(cycle))
        a, b, c = cycle[at]
        cos, sin = circle_point(rng)
        p = tuple(cos * bi + sin * ci for bi, ci in zip(b, c))
        q = tuple(-sin * bi + cos * ci for bi, ci in zip(b, c))
        block = [(p, q, a), (q, a, p), (a, b, c)] if kind == "triangle" else [(p, q, a), (a, b, c)]
        cycle[at + 1:at + 1] = block
    assert len(cycle) == n
    return [v for v, _, _ in cycle]


# ----------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One operation of a round.

    ``kind`` is ``search``, ``evaluate`` or ``verify``.  Search ops carry
    (max_mn, max_den, top_k); cycle ops carry the exact state and vectors,
    the config file path and the decimal digits.
    """

    kind: str
    state: Vec | None = None
    vectors: list[Vec] | None = None
    path: str | None = None
    digits: int = 3
    search_args: tuple[int, int, int] | None = None
    label: str = ""

    def argv(self) -> list[str]:
        if self.kind == "verify":
            return ["verify", self.path]
        return ["evaluate", self.path, "--digits", str(self.digits)]


def write_configs(ops: list[Op], workdir: Path, round_no: int) -> None:
    """Write each op's config file and record its path."""
    for i, op in enumerate(ops):
        doc = {
            "state": [fraction_text(c) for c in op.state],
            "vectors": [[fraction_text(c) for c in v] for v in op.vectors],
        }
        path = workdir / f"r{round_no}-{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        op.path = str(path)


def search_round(seed: int, round_no: int, workdir: Path) -> list[Op]:
    rng = round_rng("search-sweep", seed, round_no)
    lo, hi = (math.log10(b) for b in SEARCH_MAX_DEN)
    ops = [
        Op("search", search_args=(mn, int(10 ** rng.uniform(lo, hi)), rng.randint(*SEARCH_TOP_K)),
           label=f"max_mn={mn}")
        for mn in SEARCH_MAX_MN
    ]
    rng.shuffle(ops)
    return ops


def random_pentagon(rng: random.Random, pairs) -> list[Vec]:
    p1, p2 = rng.choice(pairs)
    vectors = pentagon(p1, p2, rng.choice((-1, 1)), rng.choice((-1, 1)))
    rows = random_rotation(rng)
    return [rotate(rows, v) for v in vectors]


def break_config(rng: random.Random, invariant: str, state: Vec, vectors: list[Vec]) -> tuple[Vec, list[Vec]]:
    """Break a valid pentagon so that exactly ``invariant`` fails."""
    vectors = list(vectors)
    n = len(vectors)
    if invariant == "cycle-length":
        # v_i x v_(i+1) is unit and orthogonal to both: an even, otherwise
        # valid cycle.
        i = rng.randrange(n)
        vectors.insert(i + 1, cross(vectors[i], vectors[(i + 1) % n]))
    elif invariant == "state-not-unit":
        k = rng.randint(2, 9)
        state = tuple(c * Fraction(k + 1, k) for c in state)
    elif invariant == "vector-not-unit":
        i = rng.randrange(n)
        scale = rng.choice((2, 3, Fraction(1, 2)))
        vectors[i] = tuple(scale * c for c in vectors[i])
    elif invariant == "adjacent-not-orthogonal":
        # Turn v_i inside the plane orthogonal to v_(i-1): it stays unit and
        # orthogonal to v_(i-1) but no longer to v_(i+1).
        i = rng.randrange(n)
        prev, cur = vectors[i - 1], vectors[i]
        w = cross(prev, cur)
        cos, sin = circle_point(rng)
        vectors[i] = tuple(cos * a + sin * b for a, b in zip(cur, w))
    else:
        raise ValueError(invariant)
    return state, vectors


def evaluate_round(seed: int, round_no: int, workdir: Path) -> list[Op]:
    rng = round_rng("evaluate-mixed", seed, round_no)
    pairs = closable_pairs(PENTAGON_MAX_MN)
    lo, hi = PLANE_DEN_LOG10
    width = (hi - lo) / EVALUATE_STRATA
    ops = []
    for k in range(EVALUATE_STRATA):
        for aimed in (True, False):
            vectors = random_pentagon(rng, pairs)
            den = int(10 ** (lo + width * (k + rng.random())))
            aim = optimal_state_float(vectors) if aimed else random_unit_float(rng)
            ops.append(Op("evaluate", rational_state_near(aim, den), vectors,
                          digits=rng.choice(DIGITS), label=f"den~1e{lo + width * k:.1f}"))
    for _ in range(VERIFY_VALID):
        vectors = random_pentagon(rng, pairs)
        den = int(10 ** rng.uniform(lo, hi))
        ops.append(Op("verify", rational_state_near(random_unit_float(rng), den), vectors,
                      label="valid"))
    for invariant in INVARIANTS:
        vectors = random_pentagon(rng, pairs)
        state = rational_state_near(random_unit_float(rng), int(10 ** rng.uniform(lo, hi)))
        state, vectors = break_config(rng, invariant, state, vectors)
        ops.append(Op("verify", state, vectors, label=invariant))
    rng.shuffle(ops)
    write_configs(ops, workdir, round_no)
    return ops


def long_cycle_round(seed: int, round_no: int, workdir: Path) -> list[Op]:
    rng = round_rng("long-cycles", seed, round_no)
    ops = []
    for n, copies in LONG_CYCLE_COUNTS.items():
        for _ in range(copies):
            vectors = odd_cycle(rng, n)
            den = int(10 ** rng.uniform(1, 4))
            ops.append(Op("evaluate", rational_state_near(random_unit_float(rng), den), vectors,
                          digits=rng.choice(DIGITS), label=f"n={n}"))
    rng.shuffle(ops)
    write_configs(ops, workdir, round_no)
    return ops


ROUNDS = {
    "search-sweep": search_round,
    "evaluate-mixed": evaluate_round,
    "long-cycles": long_cycle_round,
}
