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
* Which pairs close depends on max_mn alone, so the scan's output, the
  closing (m, n) pairs in scan order, is kept per process in a table
  (``_closing_params``) with one entry per max_mn requested, at most
  ``MAX_MN``; it is filled on the first request for a max_mn, never at
  import.  Only that is kept.  Every request still builds each closing
  pentagon with its checks, aims it, snaps the state at its own max_den,
  builds and evaluates the scenario exactly and re-checks each returned
  mirror, so every hit is a freshly checked certificate.
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
  found by a fixed number of cyclic Jacobi sweeps whose plane rotations are
  written out on float locals (``optimal_state_numeric``): one path for
  simple, close and repeated eigenvalues alike.  The aim is then snapped
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
    rotation are nine float locals each, a0..a8 and r0..r8 in row-major
    order, and each plane's rotation is written out; the rotated matrix is
    not assumed to stay symmetric.  Raises ArithmeticError unless the pair
    solves n*I - 4*G to residual 1e-12.
    """
    check_cycle_vectors(vectors)
    n = len(vectors)
    xs, ys, zs = zip(*[[c / u.v._den for c in u.v._num] for u in vectors])
    fsum, copysign, hypot = math.fsum, math.copysign, math.hypot
    g00 = fsum([x * x for x in xs])
    g01 = fsum([x * y for x, y in zip(xs, ys)])
    g02 = fsum([x * z for x, z in zip(xs, zs)])
    g11 = fsum([y * y for y in ys])
    g12 = fsum([y * z for y, z in zip(ys, zs)])
    g22 = fsum([z * z for z in zs])
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = g00, g01, g02, g01, g11, g12, g02, g12, g22
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    # cyclic Jacobi converges quadratically: four sweeps bring every tested
    # 3x3 (close and repeated eigenvalues included) to rounding level; six
    # leave two spare.  In each plane (p, q), the rotation by theta with
    # cot(2 theta) = tau zeroes a[p][q], t = tan(theta) and |theta| <= pi/4;
    # an entry already 0 is skipped (nothing to zero, and tau would divide by
    # it).  The columns of a and of r go first (M <- M J), then the rows of a
    # (A <- J^T A).
    for _sweep in range(6):
        if a1 != 0.0:  # plane (0, 1)
            tau = (a4 - a0) / (2 * a1)
            t = copysign(1 / (abs(tau) + hypot(1.0, tau)), tau)
            c = 1 / hypot(1.0, t)
            s = t * c
            a0, a1 = c * a0 - s * a1, s * a0 + c * a1
            a3, a4 = c * a3 - s * a4, s * a3 + c * a4
            a6, a7 = c * a6 - s * a7, s * a6 + c * a7
            r0, r1 = c * r0 - s * r1, s * r0 + c * r1
            r3, r4 = c * r3 - s * r4, s * r3 + c * r4
            r6, r7 = c * r6 - s * r7, s * r6 + c * r7
            a0, a3 = c * a0 - s * a3, s * a0 + c * a3
            a1, a4 = c * a1 - s * a4, s * a1 + c * a4
            a2, a5 = c * a2 - s * a5, s * a2 + c * a5
        if a2 != 0.0:  # plane (0, 2)
            tau = (a8 - a0) / (2 * a2)
            t = copysign(1 / (abs(tau) + hypot(1.0, tau)), tau)
            c = 1 / hypot(1.0, t)
            s = t * c
            a0, a2 = c * a0 - s * a2, s * a0 + c * a2
            a3, a5 = c * a3 - s * a5, s * a3 + c * a5
            a6, a8 = c * a6 - s * a8, s * a6 + c * a8
            r0, r2 = c * r0 - s * r2, s * r0 + c * r2
            r3, r5 = c * r3 - s * r5, s * r3 + c * r5
            r6, r8 = c * r6 - s * r8, s * r6 + c * r8
            a0, a6 = c * a0 - s * a6, s * a0 + c * a6
            a1, a7 = c * a1 - s * a7, s * a1 + c * a7
            a2, a8 = c * a2 - s * a8, s * a2 + c * a8
        if a5 != 0.0:  # plane (1, 2)
            tau = (a8 - a4) / (2 * a5)
            t = copysign(1 / (abs(tau) + hypot(1.0, tau)), tau)
            c = 1 / hypot(1.0, t)
            s = t * c
            a1, a2 = c * a1 - s * a2, s * a1 + c * a2
            a4, a5 = c * a4 - s * a5, s * a4 + c * a5
            a7, a8 = c * a7 - s * a8, s * a7 + c * a8
            r1, r2 = c * r1 - s * r2, s * r1 + c * r2
            r4, r5 = c * r4 - s * r5, s * r4 + c * r5
            r7, r8 = c * r7 - s * r8, s * r7 + c * r8
            a3, a6 = c * a3 - s * a6, s * a3 + c * a6
            a4, a7 = c * a4 - s * a7, s * a4 + c * a7
            a5, a8 = c * a5 - s * a8, s * a5 + c * a8
    mu, vec = a0, (r0, r3, r6)  # a later diagonal entry wins only if larger
    if a4 > mu:
        mu, vec = a4, (r1, r4, r7)
    if a8 > mu:
        mu, vec = a8, (r2, r5, r8)
    lam = n - 4 * mu
    u0, u1, u2 = vec
    o00, o11, o22 = n - 4 * g00, n - 4 * g11, n - 4 * g22  # n*I - 4*G, symmetric
    o01, o02, o12 = -4 * g01, -4 * g02, -4 * g12
    e0 = o00 * u0 + o01 * u1 + o02 * u2 - lam * u0
    e1 = o01 * u0 + o11 * u1 + o12 * u2 - lam * u1
    e2 = o02 * u0 + o12 * u1 + o22 * u2 - lam * u2
    residual = math.sqrt(e0 * e0 + e1 * e1 + e2 * e2)
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
def _closing_params(max_mn: int) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """The (m, n) ints of every closing pair p1 < p2 with m <= max_mn, in the
    order ``_closing_pairs`` yields them.  The scan depends on max_mn alone,
    so each process runs it once per max_mn that ``search`` has accepted."""
    ints = _param_ints(max_mn)
    return tuple((ints[i], ints[j]) for i, j, _, _ in _closing_pairs([_triple(m, n) for m, n in ints]))


def search(max_mn: int, max_den: int, top_k: int) -> list[SearchHit]:
    """Enumerate pentagon parametrization pairs with m <= max_mn, keep the
    rationally-closable ones, rationalize each pentagon's optimal state with
    plane denominators <= max_den, and return up to top_k exact violations,
    most negative first (ties in params order).  An empty list is a valid
    result.  Raises TypeError for a bound that is not an int (a bool
    included) and ValueError for a non-positive bound or max_mn > MAX_MN.

    The scan runs on plain (m, n) ints, once per process for each max_mn
    (``_closing_params``); each closing pair p1 < p2 gets its two
    CircleParams on every request, and is built, checked, aimed, snapped
    and evaluated once.  The violations are sorted by (value, params) first,
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
    for mn1, mn2 in _closing_params(max_mn):
        p1, p2 = CircleParams(*mn1), CircleParams(*mn2)
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
