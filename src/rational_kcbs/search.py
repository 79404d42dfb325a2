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
* Which pairs close, and each closing pentagon's aim, depend on max_mn
  alone, so a table (``_closing_params``) keeps them per process: per
  max_mn requested (at most ``MAX_MN`` keys of at most 57 pairs), the
  closing (m, n) pairs in scan order, each with its float aim.  It is
  filled on the first request for a max_mn, never at import; the fill aims
  the pentagon ``_pentagon`` builds from the scan's cross vector and root.
  The aim is no check, so nothing exact is kept: every request still
  builds each closing pentagon through ``build_pentagon`` with its checks,
  snaps the aim at its own max_den, builds and evaluates the scenario
  exactly and re-checks each returned mirror, so every hit is a freshly
  checked certificate.
* The family always puts a triple's even leg 2mn on the x (or y) axis.
  The three other orders of the two legs give other pentagons, which close
  more pairs; they are not searched.
* The pair (p2, p1) gives the x <-> y mirror of the pentagon of (p1, p2),
  the same cycle reversed.  The table aims, and ``search`` snaps and
  evaluates, only (p1, p2) with p1 < p2; ``search`` derives the mirror hit
  from it: directions (v1, v0, v4, v3, v2) and the state, each with x and
  y swapped, at the same exact value.  The violations are sorted by
  (value, params) before any hit is built, and the derived scenario is
  built, with its unit and adjacency checks, for each returned mirror hit.
* The table's fill aims each closing pentagon's optimal state numerically.
  Adjacent projectors of a valid cycle are orthogonal, so the cycle
  operator is  sum_i A_i A_{i+1} = n*I - 4*G  with the 3x3 Gram matrix
  G = sum_i v_i v_i^T, and the aim is the top eigenvector of the float G,
  found by a fixed number of cyclic Jacobi sweeps, one loop over the three
  coordinate planes on lists of row lists (``optimal_state_numeric``): one
  path for simple, close and repeated eigenvalues alike.  The aim is then snapped
  back onto the rational sphere: project stereographically, take the best
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
from fractions import Fraction
from functools import cache, total_ordering

from .contextuality import (
    CycleScenario,
    UnitVectorQ,
    _unit,
    check_cycle_vectors,
    kcbs_value,
)
from .hv_models import is_violation
from .linalg3 import E_X, E_Y, _Value

EIGEN_RESIDUAL_TOL = 1e-12
# Largest max_mn of a search: of the about 2e6 pairs of distinct parameters
# among the about 0.2 * max_mn^2, the class rule of _closing_pairs leaves
# about 28% (589,775) to test here.
MAX_MN = 100


@total_ordering
class CircleParams(_Value):
    """Parameters of a primitive Pythagorean triple: m > n >= 1, coprime,
    opposite parity.  Ordered as the tuple (m, n).  A bool is refused, though
    isinstance(True, int) holds."""

    __match_args__ = ("m", "n")
    m: int
    n: int

    def __init__(self, m: int, n: int):
        if not (isinstance(m, int) and isinstance(n, int)) or bool in (m.__class__, n.__class__):
            raise TypeError("circle parameters must be integers")
        if not m > n >= 1:
            raise ValueError(f"need m > n >= 1, got m={m}, n={n}")
        if math.gcd(m, n) != 1:
            raise ValueError(f"need gcd(m, n) = 1, got m={m}, n={n}")
        if (m - n) % 2 == 0:
            raise ValueError(f"need m - n odd (primitive triple), got m={m}, n={n}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.m, self.n) < (other.m, other.n)
        return NotImplemented


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


def _pentagon(
    t1: tuple[int, int, int], t2: tuple[int, int, int], v3: tuple[int, int, int], root: int
) -> list[UnitVectorQ]:
    """The pentagon of two circle triples that close, from the cross vector
    and root ``_closing_pairs`` yields for them: e_x, e_y, then
    (b1, 0, -a1) / h1, v3 / root and (0, b2, -a2) / h2, each unit-checked."""
    odd1, even1, hyp1 = t1
    odd2, even2, hyp2 = t2
    return [
        UnitVectorQ(E_X),
        UnitVectorQ(E_Y),
        _unit((even1, 0, -odd1), hyp1),
        _unit(v3, root),
        _unit((0, even2, -odd2), hyp2),
    ]


def build_pentagon(p1: CircleParams, p2: CircleParams) -> list[UnitVectorQ] | None:
    """Assemble a rational 5-cycle from two circle parametrizations.

    v0 = e_x and v1 = e_y; v2 lies in the x-z plane from p1, v4 in the y-z
    plane from p2 (z-components negative); v3 closes the cycle as
    cross(v2, v4) normalized, built as the integer cross product over its
    integer length.  Closure is decided by ``_closing_pairs`` on the two
    triples, and the cycle is built by ``_pentagon``.  Returns None when
    that length is irrational; any returned list passes
    ``check_cycle_vectors``.
    """
    t1, t2 = circle_triple(p1), circle_triple(p2)
    closing = next(_closing_pairs((t1, t2)), None)
    if closing is None:
        return None
    _, _, v3, root = closing
    return _pentagon(t1, t2, v3, root)


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


def _check_max_den(max_den: int) -> None:
    """Raise TypeError for a max_den that is not an int (a bool included)
    and ValueError for one below 1."""
    if not isinstance(max_den, int) or max_den.__class__ is bool:
        raise TypeError(f"max_den must be an integer, got {max_den!r}")
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")


def _best_ratio(n: int, d: int, max_den: int) -> tuple[int, int]:
    """(p, q) of ``Fraction(n, d).limit_denominator(max_den)`` for n / d in
    lowest terms (d > 0), on ints; n / d < 0 is approximated as -(-n / d).

    The continued fraction of n / d is expanded while the convergents'
    denominators stay <= max_den.  The best approximation is then the last
    convergent p1 / q1 or the semiconvergent (p0 + k p1) / (q0 + k q1) with
    the largest k that keeps its denominator <= max_den.  The two lie
    1 / (q1 (q0 + k q1)) apart, and p1 / q1 lies r / (q1 d) from n / d for
    the expansion's remainder r, so the convergent is at least as close
    exactly when 2 r (q0 + k q1) <= d; a tie keeps it.  max_den is an
    int >= 1 (``_check_max_den``).
    """
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
    finite; max_den must be an int >= 1 (TypeError, ValueError).
    """
    _check_max_den(max_den)
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    fx = Fraction(x)
    return Fraction(*_best_ratio(fx.numerator, fx.denominator, max_den))


Float3 = tuple[float, float, float]

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
    over its denominator, correctly rounded.  The rotated matrix and the
    rotation are lists of row lists; the rotated matrix is not assumed to
    stay symmetric.  Raises ArithmeticError unless the pair solves n*I - 4*G
    to residual 1e-12.
    """
    check_cycle_vectors(vectors)
    n = len(vectors)
    coords = list(zip(*[[c / u.v._den for c in u.v._num] for u in vectors]))
    g = [[math.fsum([x * y for x, y in zip(cj, ck)]) for ck in coords] for cj in coords]
    a = [row[:] for row in g]
    rot = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    # cyclic Jacobi converges quadratically: four sweeps bring every tested
    # 3x3 (close and repeated eigenvalues included) to rounding level; six
    # leave two spare.  In each plane (p, q), the rotation by theta with
    # cot(2 theta) = tau zeroes a[p][q], t = tan(theta) and |theta| <= pi/4;
    # an entry already 0 is skipped (nothing to zero, and tau would divide by
    # it).  The columns of a and of rot go first (M <- M J), then the rows
    # of a (A <- J^T A).
    for _sweep in range(6):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if a[p][q] == 0.0:
                continue
            tau = (a[q][q] - a[p][p]) / (2 * a[p][q])
            t = math.copysign(1 / (abs(tau) + math.hypot(1.0, tau)), tau)
            c = 1 / math.hypot(1.0, t)
            s = t * c
            for row in a + rot:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
            row_p, row_q = a[p], a[q]
            a[p] = [c * x - s * y for x, y in zip(row_p, row_q)]
            a[q] = [s * x + c * y for x, y in zip(row_p, row_q)]
    top = max(range(3), key=lambda k: a[k][k])  # the first on a tie
    vec = (rot[0][top], rot[1][top], rot[2][top])
    lam = n - 4 * a[top][top]
    u0, u1, u2 = vec
    op = [[(n if j == k else 0) - 4 * g[j][k] for k in range(3)] for j in range(3)]  # n*I - 4*G
    errors = [row[0] * u0 + row[1] * u1 + row[2] * u2 - lam * u for row, u in zip(op, vec)]
    residual = math.sqrt(sum([e * e for e in errors]))
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
    result is exactly unit regardless of max_den.  Raises TypeError for a
    max_den that is not an int (a bool included), and ValueError for
    max_den < 1, a length other than 3 or a norm not within 1e-6 of 1.
    """
    _check_max_den(max_den)
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


class SearchHit(_Value):
    """A rational configuration whose exact cycle sum violates the bound."""

    __match_args__ = ("scenario", "value", "params", "state_denominator_bound")
    scenario: CycleScenario
    value: Fraction
    params: tuple[CircleParams, CircleParams]
    state_denominator_bound: int

    def __init__(
        self,
        scenario: CycleScenario,
        value: Fraction,
        params: tuple[CircleParams, CircleParams],
        state_denominator_bound: int,
    ):
        if not is_violation(value, scenario.n):
            raise ValueError(f"value {value} is not a violation")
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "state_denominator_bound", state_denominator_bound)


@cache
def _closing_params(max_mn: int) -> tuple[tuple[tuple[int, int], tuple[int, int], Float3], ...]:
    """((m1, n1), (m2, n2), aim) for every closing pair p1 < p2 with
    m <= max_mn, in the order ``_closing_pairs`` yields them; the aim is
    ``optimal_state_numeric``'s state for the pair's pentagon, built by
    ``_pentagon`` from the scan's own cross vector and root.  The scan and
    the aims depend on max_mn alone, so each process computes them once per
    max_mn that ``search`` has accepted."""
    ints = _param_ints(max_mn)
    triples = [_triple(m, n) for m, n in ints]
    return tuple(
        (ints[i], ints[j], optimal_state_numeric(_pentagon(triples[i], triples[j], v3, root))[0])
        for i, j, v3, root in _closing_pairs(triples)
    )


def search(max_mn: int, max_den: int, top_k: int) -> list[SearchHit]:
    """Enumerate pentagon parametrization pairs with m <= max_mn, keep the
    rationally-closable ones, rationalize each pentagon's optimal state with
    plane denominators <= max_den, and return up to top_k exact violations,
    most negative first (ties in params order).  An empty list is a valid
    result.  Raises TypeError for a bound that is not an int (a bool
    included) and ValueError for a non-positive bound or max_mn > MAX_MN.

    The scan runs on plain (m, n) ints and each closing pentagon is aimed,
    once per process for each max_mn (``_closing_params``).  On every
    request each closing pair p1 < p2 gets its two CircleParams, and is
    built with its unit checks, snapped at this max_den, checked and
    evaluated once.  The violations are sorted by (value, params) first,
    and only the top_k returned become SearchHits: a returned hit (p2, p1)
    is then derived from its pair's scenario, with its unit and adjacency
    checks.  No pair (p, p) is tested: its two even legs share their power
    of 2, so it never closes."""
    for bound in (max_mn, max_den, top_k):
        if not isinstance(bound, int) or bound.__class__ is bool:
            raise TypeError(f"search bounds must be integers, got {bound!r}")
    if max_mn < 1 or max_den < 1 or top_k < 1:
        raise ValueError("search bounds must be positive")
    if max_mn > MAX_MN:
        raise ValueError(f"max_mn is limited to {MAX_MN}, got {max_mn}")
    found = []  # (value, params, scenario, whether the hit is the mirror)
    for mn1, mn2, aim in _closing_params(max_mn):
        p1, p2 = CircleParams(*mn1), CircleParams(*mn2)
        pentagon = build_pentagon(p1, p2)
        scenario = CycleScenario(rationalize_state(aim, max_den), tuple(pentagon))
        value = kcbs_value(scenario)
        if is_violation(value, scenario.n):
            found.append((value, (p1, p2), scenario, False))
            found.append((value, (p2, p1), scenario, True))
    found.sort(key=lambda f: f[:2])
    return [
        SearchHit(_mirrored(scenario) if mirror else scenario, value, params, max_den)
        for value, params, scenario, mirror in found[:top_k]
    ]
