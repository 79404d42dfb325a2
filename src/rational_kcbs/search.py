"""Search for rational cycle configurations with maximal exact violations.

The construction works entirely on rational points of the unit sphere:

* ``circle_triple`` turns coprime opposite-parity (m, n) into a primitive
  Pythagorean triple, i.e. a rational unit vector in a coordinate plane.
* ``build_pentagon`` places v0 = e_x, v1 = e_y, puts v2 in the x-z plane and
  v4 in the y-z plane from two such triples (z-components negative by
  default), and closes the cycle with v3 = cross(v2, v4) normalized.  That
  normalization stays rational exactly when the integer cross product has a
  perfect-square squared length, tested with integer square roots only.
  Four of the five orthogonalities hold by placement; the cross product
  supplies the remaining two.  ``search`` decides closure on the integer
  triples before it builds any Fraction, so only closing pairs reach
  ``build_pentagon``.
* For each surviving pentagon, the optimal state is the eigenvector of the
  exact cycle operator for its smallest eigenvalue (computed numerically),
  then snapped back onto the rational sphere: project stereographically,
  take best bounded-denominator approximations of the two plane coordinates,
  and lift.  The lift of rational plane points is exactly unit by
  construction, which is why rationalization goes through the plane instead
  of rounding components and renormalizing (a rounded 3-vector almost never
  has a rational norm).
* The snapped state is re-evaluated exactly; only exact values are reported.

The numeric eigen-solve is the single non-exact step and only ever chooses
where to aim; every accepted result is an exact rational certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .contextuality import (
    CycleScenario,
    QutritState,
    UnitVectorQ,
    cycle_operator,
    kcbs_value,
    validate_cycle,
)
from .hv_models import is_violation
from .linalg3 import E_X, E_Y, Vec3Q, cross, norm_sq

EIGEN_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
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


def circle_triple(p: CircleParams) -> tuple[int, int, int]:
    """The primitive Pythagorean triple (m^2 - n^2, 2mn, m^2 + n^2)."""
    return (p.m * p.m - p.n * p.n, 2 * p.m * p.n, p.m * p.m + p.n * p.n)


def _rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational.

    In lowest terms a rational is a square iff numerator and denominator are
    both perfect squares; checked with integer square roots, never floats.
    """
    num_root = math.isqrt(value.numerator)
    den_root = math.isqrt(value.denominator)
    if num_root * num_root != value.numerator:
        return None
    if den_root * den_root != value.denominator:
        return None
    return Fraction(num_root, den_root)


def normalized_cross(u: UnitVectorQ, v: UnitVectorQ) -> UnitVectorQ | None:
    """cross(u, v) scaled to unit length, when that length is rational.

    Returns None when the squared length is not a rational square.  Raises
    ValueError for parallel inputs (zero cross product).  A returned vector
    is exactly unit and exactly orthogonal to both inputs.
    """
    c = cross(u.v, v.v)
    length_sq = norm_sq(c)
    if length_sq == 0:
        raise ValueError("cross product is zero: inputs are parallel")
    root = _rational_sqrt(length_sq)
    if root is None:
        return None
    return UnitVectorQ(c / root)


def _closes(t1: tuple[int, int, int], t2: tuple[int, int, int]) -> bool:
    """Whether ``build_pentagon`` closes the pair with these circle triples.

    (a1 b2)^2 + (b1 a2)^2 + (b1 b2)^2 is the squared length of
    cross(v2, v4) * h1 * h2, an integer; it is a perfect square exactly when
    the normalized cross is rational, whatever the z-signs of v2 and v4.
    """
    a1, b1, _ = t1
    a2, b2, _ = t2
    sq = (a1 * b2) ** 2 + (b1 * a2) ** 2 + (b1 * b2) ** 2
    return math.isqrt(sq) ** 2 == sq


def build_pentagon(
    p1: CircleParams,
    p2: CircleParams,
    *,
    flip_v2_z: bool = False,
    flip_v4_z: bool = False,
) -> list[UnitVectorQ] | None:
    """Assemble a rational 5-cycle from two circle parametrizations.

    v0 = e_x and v1 = e_y; v2 lies in the x-z plane from p1, v4 in the y-z
    plane from p2 (z-components negative unless flipped); v3 closes the cycle
    as the normalized cross of v2 and v4.  Returns None when that cross has
    no rational unit scaling; any returned list passes ``check_cycle_vectors``.
    """
    odd1, even1, hyp1 = circle_triple(p1)
    odd2, even2, hyp2 = circle_triple(p2)
    z1 = odd1 if flip_v2_z else -odd1
    z2 = odd2 if flip_v4_z else -odd2
    v2 = UnitVectorQ(Vec3Q(Fraction(even1, hyp1), Fraction(0), Fraction(z1, hyp1)))
    v4 = UnitVectorQ(Vec3Q(Fraction(0), Fraction(even2, hyp2), Fraction(z2, hyp2)))
    v3 = normalized_cross(v2, v4)
    if v3 is None:
        return None
    return [UnitVectorQ(E_X), UnitVectorQ(E_Y), v2, v3, v4]


def stereo_lift(p: Fraction | int, q: Fraction | int) -> UnitVectorQ:
    """Inverse stereographic projection from the plane through the north pole:
    (p, q) -> (2p, 2q, 1 - p^2 - q^2) / (1 + p^2 + q^2), exactly unit for any
    rational inputs."""
    p = Fraction(p)
    q = Fraction(q)
    scale = 1 + p * p + q * q
    return UnitVectorQ(Vec3Q(2 * p / scale, 2 * q / scale, (1 - p * p - q * q) / scale))


def stereo_project(v: UnitVectorQ) -> tuple[Fraction, Fraction]:
    """Stereographic chart (x, y, z) -> (x/(1+z), y/(1+z)); exact inverse of
    ``stereo_lift`` away from the pole z = -1, where it raises ValueError."""
    if v.v.z == -1:
        raise ValueError("stereographic projection undefined at the pole z = -1")
    denom = 1 + v.v.z
    return (v.v.x / denom, v.v.y / denom)


def best_rational_approx(x: float | Fraction | int, max_den: int) -> Fraction:
    """Closest fraction to x with denominator <= max_den.

    Walks continued-fraction convergents and takes the final semiconvergent
    that still fits the bound; the true optimum is always one of those two
    candidates.  Ties prefer the smaller denominator, then the smaller
    absolute numerator.  x must be finite; max_den must be >= 1.
    """
    if max_den < 1:
        raise ValueError(f"max_den must be >= 1, got {max_den}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    fx = Fraction(x)
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0
    num, den = fx.numerator, fx.denominator
    while den:
        a = num // den
        if q_prev + a * q_cur > max_den:
            break
        p_prev, p_cur = p_cur, p_prev + a * p_cur
        q_prev, q_cur = q_cur, q_prev + a * q_cur
        num, den = den, num - a * den
    else:
        return Fraction(p_cur, q_cur)  # x itself fits the bound
    k = (max_den - q_prev) // q_cur
    candidates = [Fraction(p_cur, q_cur), Fraction(p_prev + k * p_cur, q_prev + k * q_cur)]
    return min(
        candidates, key=lambda f: (abs(fx - f), f.denominator, abs(f.numerator))
    )


def optimal_state_numeric(
    vectors: Sequence[UnitVectorQ],
) -> tuple[np.ndarray, float]:
    """Numeric unit eigenvector of the exact cycle operator for its smallest
    eigenvalue, with that eigenvalue.

    The operator is assembled exactly (and is exactly symmetric for a valid
    cycle) before conversion to floats, so the only numeric error is the
    eigen-solve itself, checked to residual 1e-12.
    """
    operator = cycle_operator(vectors)
    if not operator.is_symmetric():
        raise ArithmeticError("cycle operator is not symmetric; invalid cycle")
    m = np.array(operator.as_float_rows())
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    lam = float(eigenvalues[0])
    vec = eigenvectors[:, 0]
    residual = float(np.linalg.norm(m @ vec - lam * vec))
    if residual > EIGEN_RESIDUAL_TOL:
        raise ArithmeticError(f"eigen-solve residual {residual} exceeds tolerance")
    return vec, lam


def rationalize_state(v: Sequence[float] | np.ndarray, max_den: int) -> QutritState:
    """Snap a numerically-unit 3-vector to an exactly-unit rational state.

    The overall sign is flipped if z < 0 (states are sign-insensitive), which
    keeps the stereographic chart away from its pole; the two plane
    coordinates are then approximated with denominators <= max_den and lifted
    back, so the result is exactly unit regardless of max_den.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    nrm = float(np.linalg.norm(arr))
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"input norm {nrm} is not within 1e-6 of 1")
    if arr[2] < 0:
        arr = -arr
    assert arr[2] > -0.5, "pole is unreachable after the sign flip"
    denom = 1.0 + float(arr[2])
    p = best_rational_approx(float(arr[0]) / denom, max_den)
    q = best_rational_approx(float(arr[1]) / denom, max_den)
    return QutritState(stereo_lift(p, q).v)


def primitive_params(max_mn: int) -> list[CircleParams]:
    """All CircleParams with m <= max_mn, ordered by (m, n)."""
    return [
        CircleParams(m, n)
        for m in range(2, max_mn + 1)
        for n in range(1, m)
        if math.gcd(m, n) == 1 and (m - n) % 2 == 1
    ]


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
    result."""
    if max_mn < 1 or max_den < 1 or top_k < 1:
        raise ValueError("search bounds must be positive")
    params = primitive_params(max_mn)
    triples = [circle_triple(p) for p in params]
    hits: list[SearchHit] = []
    for p1, t1 in zip(params, triples):
        for p2, t2 in zip(params, triples):
            if not _closes(t1, t2):
                continue
            pentagon = build_pentagon(p1, p2)
            if pentagon is None:
                continue
            vec, _lam = optimal_state_numeric(pentagon)
            state = rationalize_state(vec, max_den)
            scenario = validate_cycle(state.v, [u.v for u in pentagon])
            value = kcbs_value(scenario)
            if is_violation(value, scenario.n):
                hits.append(
                    SearchHit(
                        scenario=scenario,
                        value=value,
                        params=(p1, p2),
                        state_denominator_bound=max_den,
                    )
                )
    hits.sort(
        key=lambda h: (
            h.value,
            h.params[0].m,
            h.params[0].n,
            h.params[1].m,
            h.params[1].n,
        )
    )
    return hits[:top_k]
