"""Exact test oracles on plain rows of Fractions: matrix products, the
identity and the trace, the observables 2 v v^T - I, the Gram matrix, the
cycle operator and its quadratic form, the z-mirrored pentagons, the
stereographic chart and its inverse, a report's exact re-checks
(``report_checks_rows``) and the quantum bound of an odd cycle
(``respects_quantum_bound``).  They share nothing with the program's integer
matrix kernels (``contextuality._int_mat_mul`` and ``_int_mat_vec``); tests
check its routes against them.  The program holds a matrix as the pair (nine
row-major ints, positive denominator) in lowest terms, which only
``contextuality`` reads: ``mat_rows`` reads such a pair as Fraction rows,
``mat_from_rows`` builds one from Fraction rows, and ``mat_reduced`` brings
nine ints over a denominator to lowest terms by its own gcd.  ``closing_pairs_scan``
is the plain all-pairs closure scan, without the class rule of
``search._closing_pairs``.  ``jacobi_aim_rows`` is the float aim of
``search.optimal_state_numeric`` in loop form on lists of row lists, which
the program's written-out rotations on float locals must reproduce bit for
bit.  ``parse_triple_by_components`` reads a config triple with one
``rationals._ratio`` call per component, which the program's reading of a
config triple through ``cli._parse_triple`` must agree with."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence

from rational_kcbs.cli import ConfigError
from rational_kcbs.contextuality import UnitVectorQ, check_cycle_vectors
from rational_kcbs.linalg3 import Vec3Q, dot
from rational_kcbs.rationals import _ratio

Rows = tuple[tuple[Fraction, ...], ...]
Mat = tuple[tuple[int, ...], int]

IDENTITY_ROWS: Rows = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))


def mat_reduced(num: Sequence[int], den: int) -> Mat:
    """The pair of nine ints over den > 0, divided by the gcd of all ten."""
    g = math.gcd(den, *num)
    return tuple(e // g for e in num), den // g


def mat_from_rows(rows: Sequence[Sequence[Fraction | int]]) -> Mat:
    """The lowest-terms pair of 3x3 rows of Fractions or ints: the nine
    entries over the product of their denominators, reduced by
    ``mat_reduced``."""
    entries = [Fraction(e) for row in rows for e in row]
    den = math.prod(e.denominator for e in entries)
    return mat_reduced([e.numerator * (den // e.denominator) for e in entries], den)


def mat_rows(m: Mat) -> Rows:
    """The pair m as rows of Fractions, each of its nine ints over its
    denominator."""
    n, d = m
    return tuple(tuple(Fraction(e, d) for e in n[i:i + 3]) for i in (0, 3, 6))


def identity_mat() -> Mat:
    """The 3x3 identity, built from its Fraction rows."""
    return mat_from_rows(IDENTITY_ROWS)


def trace(rows: Rows) -> Fraction:
    """The trace of Fraction rows."""
    return rows[0][0] + rows[1][1] + rows[2][2]


def ref_mul(a: Rows, b: Rows) -> Rows:
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def ref_map(f: Callable[..., Fraction], *mats: Rows) -> Rows:
    """Entrywise f over equally shaped rows."""
    return tuple(tuple(f(*entries) for entries in zip(*rows)) for rows in zip(*mats))


def ref_sum(mats: Sequence[Rows]) -> Rows:
    return ref_map(lambda *entries: sum(entries), *mats)


def ref_vec(a: Rows, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def outer_rows(u: Vec3Q, v: Vec3Q) -> Rows:
    """u v^T."""
    return tuple(tuple(x * y for y in v.as_tuple()) for x in u.as_tuple())


def observable_rows(v: Vec3Q) -> Rows:
    """2 v v^T - I."""
    return ref_map(lambda p, i: 2 * p - i, outer_rows(v, v), IDENTITY_ROWS)


def gram(vectors: Sequence[UnitVectorQ]) -> Rows:
    """G = sum_i v_i v_i^T."""
    return ref_sum([outer_rows(u.v, u.v) for u in vectors])


def quadratic_form(psi: Vec3Q, m: Rows) -> Fraction:
    """psi^T M psi, exact."""
    c = psi.as_tuple()
    return sum(x * y for x, y in zip(c, ref_vec(m, c)))


def z_flipped_pentagon(
    pentagon: Sequence[UnitVectorQ], flip_v2: bool, flip_v4: bool
) -> list[UnitVectorQ]:
    """A ``build_pentagon`` cycle with the z-sign of v2 and/or v4 made
    positive.  Flipping v2 negates v2.z and v3.x (the mirror x -> -x, up to
    the signs of v0 and v2); flipping v4 negates v4.z and v3.y (the mirror
    y -> -y).  The result is again a valid cycle."""
    v0, v1, v2, v3, v4 = (u.v for u in pentagon)
    s2, s4 = (-1 if flip_v2 else 1), (-1 if flip_v4 else 1)
    return [
        UnitVectorQ(v0),
        UnitVectorQ(v1),
        UnitVectorQ(Vec3Q(v2.x, v2.y, s2 * v2.z)),
        UnitVectorQ(Vec3Q(s2 * v3.x, s4 * v3.y, v3.z)),
        UnitVectorQ(Vec3Q(v4.x, v4.y, s4 * v4.z)),
    ]


def stereo_chart(v: Vec3Q) -> tuple[Fraction, Fraction]:
    """(x, y, z) -> (x / (1 + z), y / (1 + z)): the chart ``stereo_lift``
    inverts, away from the pole z = -1."""
    return (v.x / (1 + v.z), v.y / (1 + v.z))


def stereo_lift_fractions(p: Fraction, q: Fraction) -> Vec3Q:
    """(2p, 2q, 1 - p^2 - q^2) / (1 + p^2 + q^2) in Fractions: the inverse of
    ``stereo_chart``."""
    scale = 1 + p * p + q * q
    return Vec3Q(2 * p / scale, 2 * q / scale, (1 - p * p - q * q) / scale)


def cycle_operator(vectors: Sequence[UnitVectorQ]) -> Rows:
    """Exact operator  sum_i A_i A_{i+1}  for a cycle of directions.

    For a geometry that passes ``check_cycle_vectors`` this matrix is exactly
    symmetric (commuting symmetric factors), equals n*I - 4*G (the identity
    the search aims by; this is its exact oracle), and its quadratic form at
    any state equals the cycle correlation sum there.
    """
    check_cycle_vectors(vectors)
    mats = [observable_rows(u.v) for u in vectors]
    return ref_sum([ref_mul(a, b) for a, b in zip(mats, mats[1:] + mats[:1])])


def report_checks_rows(s, value: Fraction, corrs: Sequence[Fraction]) -> dict[str, bool]:
    """The re-checks of ``cli._run_checks`` on rows of Fractions: products by
    ``ref_mul`` compared with the identity rows or with each other, the trace
    and the ranges as Fraction comparisons, and the projection identity
    n - 4 sum_i (v_i . psi)^2 from Fraction dot products."""
    mats = [mat_rows(a) for a in s.observables]
    psi = s.state.v
    return {
        "observables_square_to_identity": all(ref_mul(a, a) == IDENTITY_ROWS for a in mats),
        "observables_trace_minus_one": all(a[0][0] + a[1][1] + a[2][2] == -1 for a in mats),
        "adjacent_observables_commute": all(
            ref_mul(a, b) == ref_mul(b, a) for a, b in zip(mats, mats[1:] + mats[:1])
        ),
        "correlators_in_range": all(-1 <= c <= 1 for c in corrs),
        "value_in_range": -s.n <= value <= s.n,
        "projection_identity_matches": value == s.n - 4 * sum(dot(u.v, psi) ** 2 for u in s.vectors),
    }


def closing_pairs_scan(
    triples: Sequence[tuple[int, int, int]],
) -> list[tuple[int, int, tuple[int, int, int], int]]:
    """Every (i, j, (x, y, z), root) with i < j, in lexicographic order, whose
    cross vector (x, y, z) = (a1 b2, b1 a2, b1 b2) of the triples (a, b, h)
    has a perfect-square squared length root^2: every pair tested, no pair
    skipped."""
    found = []
    for i, j in itertools.combinations(range(len(triples)), 2):
        (a1, b1, _), (a2, b2, _) = triples[i], triples[j]
        x, y, z = a1 * b2, b1 * a2, b1 * b2
        length_sq = x * x + y * y + z * z
        root = math.isqrt(length_sq)
        if root * root == length_sq:
            found.append((i, j, (x, y, z), root))
    return found


def jacobi_aim_rows(vectors: Sequence[UnitVectorQ]) -> tuple[tuple[float, float, float], float]:
    """The top eigenvector u of the float Gram matrix G and n - 4 * mu for its
    eigenvalue mu, by six cyclic Jacobi sweeps on lists of row lists, with
    the components converted by ``float(Fraction)``: the same float
    operations in the same order as ``optimal_state_numeric``."""
    n = len(vectors)
    fv = [[float(c) for c in u.v.as_tuple()] for u in vectors]
    a = [[math.fsum(v[j] * v[k] for v in fv) for k in range(3)] for j in range(3)]
    rot = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _sweep in range(6):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if a[p][q] == 0.0:
                continue
            tau = (a[q][q] - a[p][p]) / (2 * a[p][q])
            t = math.copysign(1 / (abs(tau) + math.hypot(1.0, tau)), tau)
            c = 1 / math.hypot(1.0, t)
            s = t * c
            for m in (a, rot):  # columns: M <- M J
                for row in m:
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            row_p, row_q = a[p], a[q]  # rows: A <- J^T A
            a[p] = [c * x - s * y for x, y in zip(row_p, row_q)]
            a[q] = [s * x + c * y for x, y in zip(row_p, row_q)]
    top = max(range(3), key=lambda k: a[k][k])
    return (rot[0][top], rot[1][top], rot[2][top]), n - 4 * a[top][top]


# pi = 3.14159265358979323846..., so this rational lies below it
PI_BELOW = Fraction(3141592653589793, 10**15)


def cos_upper(x: Fraction, terms: int = 12) -> Fraction:
    """A rational c >= cos(x): the Taylor sum of the first ``terms`` terms
    (-1)^k x^(2k) / (2k)!, plus the absolute value of the next one, which
    bounds the remainder (Lagrange form: every derivative of cos lies in
    [-1, 1])."""
    total, term = Fraction(0), Fraction(1)
    for k in range(terms):
        total += term
        term *= -x * x / ((2 * k + 1) * (2 * k + 2))
    return total + abs(term)


def respects_quantum_bound(value: Fraction, n: int) -> bool:
    """Whether an exact cycle sum of an odd n-cycle passes Lovász's bound
    n (1 - 3 cos(pi/n)) / (1 + cos(pi/n)), the least value any unit state and
    valid cycle reach; False means the evaluator is broken.

    For n = 5 the test is exact on integers: value >= 5 - 4 sqrt(5) exactly
    when (5 - value)^2 <= 80, since value <= 5.  For other n it is one-sided:
    c = ``cos_upper(PI_BELOW / n)`` is >= cos(pi / n) because cos decreases
    on [0, pi], and the bound decreases in c, so the bound at c lies at or
    below the true one."""
    if n == 5:
        return (5 - value) ** 2 <= 80
    c = cos_upper(PI_BELOW / n)
    return value >= n * (1 - 3 * c) / (1 + c)


def parse_triple_by_components(raw: object, what: str) -> Vec3Q:
    """A config triple read by calling ``_ratio`` on each component in order:
    the vector of the three Fractions, or the ``ConfigError`` of the first
    component ``_ratio`` refuses, or of the wrong shape."""
    if isinstance(raw, list) and len(raw) == 3 and all(isinstance(c, str) for c in raw):
        try:
            ratios = [_ratio(c) for c in raw]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{what}: {exc}") from exc
        return Vec3Q(*(Fraction(p, q) for p, q in ratios))
    raise ConfigError(f"{what} must be a list of 3 fraction strings, got {raw!r}")
