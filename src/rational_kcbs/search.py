"""Search for rational cycle configurations with maximal exact violations.

The construction works entirely on rational points of the unit sphere:

* ``circle_triple`` turns coprime opposite-parity (m, n) into a primitive
  Pythagorean triple, i.e. a rational unit vector in a coordinate plane.
* ``build_pentagon`` places v0 = e_x, v1 = e_y, puts v2 in the x-z plane and
  v4 in the y-z plane from two such triples (z-components negative), and
  closes the cycle with v3 = cross(v2, v4) normalized.  That normalization
  stays rational exactly when the integer cross product h1*h2*cross(v2, v4)
  has a perfect-square squared length; v3 is then that integer vector over
  its integer length.  Four of the five
  orthogonalities hold by placement; the cross product supplies the
  remaining two.  One generator, ``_closing_pairs``, decides closure on
  the integer triples before any Fraction is built, so only closing pairs
  reach ``build_pentagon``; ``search`` scans plain (m, n) ints and builds
  the two ``CircleParams`` of a pair only when it closes.  The test is
  symmetric in the two triples, and a closing pair gives a Pythagorean
  triple (a1*b2, b1*h2, root) that must reduce to a primitive one.  So
  the generator tests each pair of distinct parameters at most once, and
  only when the powers of 2 in their even legs differ by at least 2 and
  the legs do not hold the same nonzero power of 3: about 28% of all pairs
  at ``MAX_MN``.
* The family always puts a triple's even leg 2mn on the x (or y) axis.
  The three other orders of the two legs give other pentagons, which close
  more pairs; they are not searched.
* The pair (p2, p1) gives the x <-> y mirror of the pentagon of (p1, p2),
  the same cycle reversed.  ``search`` aims, snaps and evaluates only
  (p1, p2) with p1 < p2 and derives the mirror hit from it: directions
  (v1, v0, v4, v3, v2) and the state, each with x and y swapped, at the
  same exact value.  The violations are sorted by (value, params) before
  any hit is built, and the derived scenario is built, with its unit and
  adjacency checks, for each returned mirror hit.
* For each surviving pentagon, the optimal state is aimed numerically.
  Adjacent projectors of a valid cycle are orthogonal, so the cycle
  operator is  sum_i A_i A_{i+1} = n*I - 4*G  with the 3x3 Gram matrix
  G = sum_i v_i v_i^T, and the aim is the top eigenvector of the float G,
  found by a fixed number of cyclic Jacobi sweeps on flat lists of nine
  floats (``optimal_state_numeric``): one path for simple, close and
  repeated eigenvalues alike.  The aim is then snapped back onto the
  rational sphere: project stereographically, take the best
  bounded-denominator approximation of each plane coordinate by a continued
  fraction on the float's exact integer ratio (equal to
  ``Fraction.limit_denominator``, ties included), and lift on integers.
  The pentagon's directions, the snapped state and the mirror's vectors
  are built from their ints, with the unit check run on the ints.  The
  lift of rational plane points is exactly unit by construction, which is
  why rationalization goes through the plane instead of rounding
  components and renormalizing (a rounded 3-vector almost never has a
  rational norm).
* The snapped state and the pentagon, both already typed as unit, form the
  scenario directly, and it is evaluated exactly; only exact values are
  reported.

The float eigenpair of G is the single non-exact step and only ever chooses
where to aim; every accepted result is an exact rational certificate.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .contextuality import (
    CycleScenario,
    UnitVectorQ,
    _unit,
    check_cycle_vectors,
    kcbs_value,
)
from .hv_models import is_violation
from .linalg3 import E_X, E_Y

EIGEN_RESIDUAL_TOL = 1e-12
# Largest max_mn of a search: of the about 2e6 pairs of distinct parameters
# among the about 0.2 * max_mn^2, the class rule of _closing_pairs leaves
# about 28% (589,775) to test here.
MAX_MN = 100


@dataclass(frozen=True, order=True)
class CircleParams:
    """Parameters of a primitive Pythagorean triple: m > n >= 1, coprime,
    opposite parity."""

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise TypeError("circle parameters must be integers")
        if not self.m > self.n >= 1:
            raise ValueError(f"need m > n >= 1, got m={self.m}, n={self.n}")
        if math.gcd(self.m, self.n) != 1:
            raise ValueError(f"need gcd(m, n) = 1, got m={self.m}, n={self.n}")
        if (self.m - self.n) % 2 == 0:
            raise ValueError(
                f"need m - n odd (primitive triple), got m={self.m}, n={self.n}"
            )


def _triple(m: int, n: int) -> tuple[int, int, int]:
    return (m * m - n * n, 2 * m * n, m * m + n * n)


def circle_triple(p: CircleParams) -> tuple[int, int, int]:
    """The primitive Pythagorean triple (m^2 - n^2, 2mn, m^2 + n^2)."""
    return _triple(p.m, p.n)


def _closing_pairs(
    triples: Sequence[tuple[int, int, int]],
) -> Iterator[tuple[int, int, tuple[int, int, int], int]]:
    """Yield (i, j, (x, y, z), root) for every i < j whose circle triples
    ``build_pentagon`` closes, in lexicographic order: the one place
    pentagon closure is decided.  Each triple is a ``circle_triple``
    (a, b, h): a and h odd, b = 2mn.

    For v2 = (b1, 0, z1)/h1 and v4 = (0, b2, z2)/h2, h1*h2*cross(v2, v4)
    is the integer vector (-z1*b2, -b1*z2, b1*b2), i.e. (a1*b2, b1*a2,
    b1*b2) at z = -a.  cross(v2, v4) normalized is rational exactly when
    that vector's squared length is a perfect square root^2.  Since
    a2^2 + b2^2 = h2^2, that length is (a1*b2)^2 + (b1*h2)^2, the same for
    both orders of the pair, so a closing pair is a Pythagorean triple
    (a1*b2, b1*h2, root).  Divided by its gcd it is primitive: one leg is
    divisible by 4 and the other is odd, and exactly one leg is divisible
    by 3.  With a1 and h2 odd, the powers of 2 in the legs are those of b2
    and b1, so a pair closes only if |v2(b1) - v2(b2)| >= 2.  3 never
    divides h = m^2 + n^2 with m, n coprime, nor a1 when it divides b1, so
    if v3(b1) = v3(b2) >= 1 both legs carry that same power of 3 and the
    pair never closes.  The triples are grouped by the class
    (v2(b), v3(b)), and only pairs from compatible classes are tested, each
    unordered pair once.  A triple shares its own class, so no pair (p, p)
    is tested.
    """
    classes: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    for i, (a, b, h) in enumerate(triples):
        v2 = (b & -b).bit_length() - 1
        odd, v3 = b >> v2, 0
        while odd % 3 == 0:
            odd, v3 = odd // 3, v3 + 1
        classes.setdefault((v2, v3), []).append((i, a * a, b * b, h * h))
    found = []
    for (v2_1, v3_1), low in classes.items():
        for (v2_2, v3_2), high in classes.items():
            if v2_2 - v2_1 < 2 or v3_1 == v3_2 != 0:
                continue
            for i, a1_sq, b1_sq, _ in low:
                for j, _, b2_sq, h2_sq in high:
                    length_sq = a1_sq * b2_sq + b1_sq * h2_sq
                    root = math.isqrt(length_sq)
                    if root * root == length_sq:
                        found.append((i, j, root) if i < j else (j, i, root))
    for i, j, root in sorted(found):
        a1, b1, _ = triples[i]
        a2, b2, _ = triples[j]
        yield i, j, (a1 * b2, b1 * a2, b1 * b2), root


def build_pentagon(p1: CircleParams, p2: CircleParams) -> list[UnitVectorQ] | None:
    """Assemble a rational 5-cycle from two circle parametrizations.

    v0 = e_x and v1 = e_y; v2 lies in the x-z plane from p1, v4 in the y-z
    plane from p2 (z-components negative); v3 closes the cycle as
    cross(v2, v4) normalized, built as the integer cross product over its
    integer length.  Returns None when that length is irrational; any
    returned list passes ``check_cycle_vectors``.
    """
    t1, t2 = circle_triple(p1), circle_triple(p2)
    closing = next(_closing_pairs((t1, t2)), None)
    if closing is None:
        return None
    _, _, v3, root = closing
    odd1, even1, hyp1 = t1
    odd2, even2, hyp2 = t2
    return [
        UnitVectorQ(E_X),
        UnitVectorQ(E_Y),
        _unit((even1, 0, -odd1), hyp1),
        _unit(v3, root),
        _unit((0, even2, -odd2), hyp2),
    ]


def _lift(a: int, b: int, c: int, e: int) -> UnitVectorQ:
    """``stereo_lift`` of p = a/b and q = c/e (b, e > 0) on integers:
    scaling by (be)^2 gives (2ae*be, 2cb*be, (be)^2 - (ae)^2 - (cb)^2) over
    S = (be)^2 + (ae)^2 + (cb)^2."""
    be, ae, cb = b * e, a * e, c * b
    be_sq, ae_sq, cb_sq = be * be, ae * ae, cb * cb
    return _unit((2 * ae * be, 2 * cb * be, be_sq - ae_sq - cb_sq), be_sq + ae_sq + cb_sq)


def stereo_lift(p: Fraction | int, q: Fraction | int) -> UnitVectorQ:
    """Inverse stereographic projection from the plane through the north pole:
    (p, q) -> (2p, 2q, 1 - p^2 - q^2) / (1 + p^2 + q^2), exactly unit for any
    rational inputs."""
    p, q = Fraction(p), Fraction(q)
    return _lift(p.numerator, p.denominator, q.numerator, q.denominator)


def _best_ratio(n: int, d: int, max_den: int) -> tuple[int, int]:
    """(p, q) of ``Fraction(n, d).limit_denominator(max_den)`` for n / d in
    lowest terms (d > 0), on ints; n / d < 0 is approximated as -(-n / d).

    The continued fraction of n / d is expanded while the convergents'
    denominators stay <= max_den.  The best approximation is then the last
    convergent p1 / q1 or the semiconvergent (p0 + k p1) / (q0 + k q1) with
    the largest k that keeps its denominator <= max_den.  The two lie
    1 / (q1 (q0 + k q1)) apart, and p1 / q1 lies r / (q1 d) from n / d for
    the expansion's remainder r, so the convergent is at least as close
    exactly when 2 r (q0 + k q1) <= d; a tie keeps it.  Raises ValueError
    for max_den < 1.
    """
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")
    if n < 0:
        p, q = _best_ratio(-n, d, max_den)
        return -p, q
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, rem = n, d
    while True:
        a = num // rem
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, rem = rem, num - a * rem
    k = (max_den - q0) // q1
    if 2 * rem * (q0 + k * q1) <= d:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def best_rational_approx(x: float | Fraction | int, max_den: int) -> Fraction:
    """Closest fraction to x with denominator <= max_den.

    Equal to ``Fraction.limit_denominator``, ties included: they prefer the
    smaller denominator, then the smaller absolute numerator.  On a tie the
    standard library keeps the convergent, which for x < 0 is the candidate
    farther from zero, so negative x is approximated as -(-x).  x must be
    finite; max_den must be >= 1.
    """
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    fx = Fraction(x)
    return Fraction(*_best_ratio(fx.numerator, fx.denominator, max_den))


Float3 = tuple[float, float, float]

# The planes (p, q) of the cyclic Jacobi sweep over a flat row-major 3x3:
# the indices of entry (p, q) and of the diagonal entries (p, p) and (q, q),
# the (p, q) column index pairs of each row, and the (p, q) row index pairs
# of each column.
_JACOBI_PLANES = tuple(
    (3 * p + q, 4 * p, 4 * q,
     tuple((3 * r + p, 3 * r + q) for r in range(3)),
     tuple((3 * p + k, 3 * q + k) for k in range(3)))
    for p, q in ((0, 1), (0, 2), (1, 2))
)


def _float_dot(u: Sequence[float], v: Sequence[float]) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def optimal_state_numeric(vectors: Sequence[UnitVectorQ]) -> tuple[Float3, float]:
    """Numeric unit state minimizing the cycle sum, and that minimum: the
    eigenpair of the cycle operator for its smallest eigenvalue.

    The cycle is checked exactly first (``CycleValidationError``): exact
    adjacent orthogonality makes  sum_i A_i A_{i+1} = n*I - 4*G  with the
    Gram matrix G = sum_i v_i v_i^T, so the state is the top eigenvector u of
    the float G and the minimum is n - 4*mu for its eigenvalue mu.  A fixed
    number of cyclic Jacobi sweeps diagonalizes G by plane rotations, which
    needs no case analysis of repeated or close eigenvalues; u is the
    accumulated rotation's column at the largest diagonal entry (the first
    one on a tie, so G = q*I gives e_x).  The floats are each unit's ints
    over its denominator, correctly rounded, and G and the rotation are
    flat row-major lists of nine floats.  Raises ArithmeticError unless the
    pair solves n*I - 4*G to residual 1e-12.
    """
    check_cycle_vectors(vectors)
    n = len(vectors)
    coords = list(zip(*[[c / u.v._den for c in u.v._num] for u in vectors]))  # all x, all y, all z
    g = [0.0] * 9
    for j, k in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):  # G is symmetric
        g[3 * j + k] = g[3 * k + j] = math.fsum([x * y for x, y in zip(coords[j], coords[k])])
    a = g[:]
    rot = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    # cyclic Jacobi converges quadratically: four sweeps bring every tested
    # 3x3 (close and repeated eigenvalues included) to rounding level; six
    # leave two spare
    for _sweep in range(6):
        for pq, pp, qq, columns, rows in _JACOBI_PLANES:
            if a[pq] == 0.0:  # nothing to zero, and tau would divide by it
                continue
            # the rotation by theta in the (p, q) plane with
            # cot(2 theta) = tau zeroes a[p][q]; t = tan(theta), |theta| <= pi/4
            tau = (a[qq] - a[pp]) / (2 * a[pq])
            t = math.copysign(1 / (abs(tau) + math.hypot(1.0, tau)), tau)
            c = 1 / math.hypot(1.0, t)
            s = t * c
            for m in (a, rot):  # columns: M <- M J
                for j, k in columns:
                    x, y = m[j], m[k]
                    m[j], m[k] = c * x - s * y, s * x + c * y
            for j, k in rows:  # rows: A <- J^T A
                x, y = a[j], a[k]
                a[j], a[k] = c * x - s * y, s * x + c * y
    top = max(range(3), key=lambda k: a[4 * k])
    vec = (rot[top], rot[3 + top], rot[6 + top])
    lam = n - 4 * a[4 * top]
    operator = [(n if j == k else 0) - 4 * g[3 * j + k] for j in range(3) for k in range(3)]
    r = [_float_dot(operator[3 * j:3 * j + 3], vec) - lam * vec[j] for j in range(3)]
    residual = math.sqrt(_float_dot(r, r))
    if residual > EIGEN_RESIDUAL_TOL:
        raise ArithmeticError(f"eigen-solve residual {residual} exceeds tolerance")
    return vec, lam


def rationalize_state(v: Sequence[float], max_den: int) -> UnitVectorQ:
    """Snap a numerically-unit 3-vector of floats to an exactly-unit rational
    state.

    The overall sign is flipped if z < 0 (states are sign-insensitive), which
    keeps the stereographic chart away from its pole; the two plane
    coordinates are then approximated with denominators <= max_den, on the
    ints of each float's exact ratio, and lifted back on integers, so the
    result is exactly unit regardless of max_den.  Raises
    ValueError for a length other than 3, a norm not within 1e-6 of 1 or
    max_den < 1.
    """
    if len(v) != 3:
        raise ValueError(f"expected a 3-vector, got {len(v)} components")
    x, y, z = (float(c) for c in v)
    nrm = math.hypot(x, y, z)
    if not abs(nrm - 1.0) <= 1e-6:  # a NaN norm fails too
        raise ValueError(f"input norm {nrm} is not within 1e-6 of 1")
    if z < 0:
        x, y, z = -x, -y, -z
    denom = 1.0 + z
    a, b = _best_ratio(*(x / denom).as_integer_ratio(), max_den)
    c, e = _best_ratio(*(y / denom).as_integer_ratio(), max_den)
    return _lift(a, b, c, e)


def _param_ints(max_mn: int) -> list[tuple[int, int]]:
    """(m, n) of every CircleParams with m <= max_mn, ordered by (m, n):
    n runs over the integers below m of the other parity."""
    return [
        (m, n)
        for m in range(2, max_mn + 1)
        for n in range(1 + m % 2, m, 2)
        if math.gcd(m, n) == 1
    ]


def primitive_params(max_mn: int) -> list[CircleParams]:
    """All CircleParams with m <= max_mn, ordered by (m, n)."""
    return [CircleParams(m, n) for m, n in _param_ints(max_mn)]


def _swap_xy(u: UnitVectorQ) -> UnitVectorQ:
    x, y, z = u.v._num
    return _unit((y, x, z), u.v._den)


def _mirrored(scenario: CycleScenario) -> CycleScenario:
    """The scenario of ``build_pentagon(p2, p1)`` with the mirrored state,
    from that of ``build_pentagon(p1, p2)``.  A reflection and a reversal of
    the cycle keep the exact value; the unit and adjacency checks run
    again."""
    vectors = scenario.vectors
    return CycleScenario(
        _swap_xy(scenario.state), tuple(_swap_xy(vectors[k]) for k in (1, 0, 4, 3, 2))
    )


@dataclass(frozen=True)
class SearchHit:
    """A rational configuration whose exact cycle sum violates the bound."""

    scenario: CycleScenario
    value: Fraction
    params: tuple[CircleParams, CircleParams]
    state_denominator_bound: int

    def __post_init__(self):
        if not is_violation(self.value, self.scenario.n):
            raise ValueError(f"value {self.value} is not a violation")


def search(max_mn: int, max_den: int, top_k: int) -> list[SearchHit]:
    """Enumerate pentagon parametrization pairs with m <= max_mn, keep the
    rationally-closable ones, rationalize each pentagon's optimal state with
    plane denominators <= max_den, and return up to top_k exact violations,
    most negative first (ties in params order).  An empty list is a valid
    result.  Raises ValueError for a non-positive bound or max_mn > MAX_MN.

    The scan runs on plain (m, n) ints; each closing pair p1 < p2 that
    ``_closing_pairs`` yields gets its two CircleParams, and is built and
    evaluated once.  The violations are sorted by (value, params) first, and
    only the top_k returned become SearchHits: a returned hit (p2, p1) is
    then derived from its pair's scenario, with its unit and adjacency
    checks.  No pair (p, p) is tested: its two even legs share their power
    of 2, so it never closes."""
    if max_mn < 1 or max_den < 1 or top_k < 1:
        raise ValueError("search bounds must be positive")
    if max_mn > MAX_MN:
        raise ValueError(f"max_mn is limited to {MAX_MN}, got {max_mn}")
    ints = _param_ints(max_mn)
    found = []  # (value, params, scenario, whether the hit is the mirror)
    for i, j, _, _ in _closing_pairs([_triple(m, n) for m, n in ints]):
        p1, p2 = CircleParams(*ints[i]), CircleParams(*ints[j])
        pentagon = build_pentagon(p1, p2)
        vec, _lam = optimal_state_numeric(pentagon)
        scenario = CycleScenario(rationalize_state(vec, max_den), tuple(pentagon))
        value = kcbs_value(scenario)
        if is_violation(value, scenario.n):
            found.append((value, (p1, p2), scenario, False))
            found.append((value, (p2, p1), scenario, True))
    found.sort(key=lambda f: f[:2])
    return [
        SearchHit(_mirrored(scenario) if mirror else scenario, value, params, max_den)
        for value, params, scenario, mirror in found[:top_k]
    ]
