"""Cycle contextuality scenarios over exact rational qutrit geometry.

A scenario is a unit state plus an odd cycle of unit directions whose
adjacent pairs (indices mod n) are exactly orthogonal.  The unit type
``UnitVectorQ`` (for the state and for every direction) owns the norm
check, made on the three ints over one denominator that its ``Vec3Q``
holds (``_unit`` builds one straight from such ints); ``CycleScenario``
owns the rest.  Each direction v = n / d carries the dichotomic observable
``2|v><v| - 1`` with outcomes +-1, held as the pair (nine row-major ints,
d^2) in lowest terms and built straight from the direction's ints
(``make_observable``); only this module reads those nine ints, in the
kernels ``_int_mat_vec`` and ``_int_mat_mul`` and the report's matrix
re-checks (``_observable_checks``).  Adjacent orthogonality makes adjacent
observables commute, so each adjacent pair is jointly measurable and the
cycle correlation sum is well defined.  The pentagon (n = 5) is the default;
everything here works for any odd n >= 3 because the bound logic is
identical.  Norm and adjacency checks are integer dot products.

Two independent evaluation routes are provided on purpose: ``kcbs_value``
sums ``(A_i psi) . (A_{i+1} psi)``, exact because every A_i is symmetric and
free of any orthogonality assumption; a scenario computes each A_i psi once,
as ints over one denominator, so each correlator is one integer dot product
and the sum is those products over the lcm of their denominators.
``kcbs_value_via_projections`` uses the orthogonal-pair identity
``<A_i A_{i+1}> = 1 - 2<P_i> - 2<P_{i+1}>`` with ``<P_i> = (v_i . psi)^2``,
from dot products alone, on the components' own ints.
Agreement of the two routes is an end-to-end check; the first is primary.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm

from .linalg3 import (
    E_X,
    E_Y,
    Vec3Q,
    _int_dot,
    _Value,
    _vec,
    norm_sq,
)
from .rationals import format_rational


class CycleValidationError(ValueError):
    """A cycle scenario failed one of its exact invariants.

    ``reason`` is a stable machine-readable code, one of ``cycle-length``,
    ``state-not-unit``, ``vector-not-unit``, ``adjacent-not-orthogonal``.
    ``index`` names the offending vector, ``pair`` the offending adjacency.
    """

    def __init__(self, reason: str, message: str, index: int | None = None,
                 pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.reason = reason
        self.index = index
        self.pair = pair


class UnitVectorQ(_Value):
    """A rational unit vector, a direction or a qutrit state: norm_sq exactly
    1, enforced at construction on the ints of v (x^2 + y^2 + z^2 == d^2),
    which every exact check and the primary evaluation route compute on."""

    __match_args__ = ("v",)
    v: Vec3Q

    def __init__(self, v: Vec3Q):
        num, den = v._num, v._den
        length_sq = _int_dot(num, num)
        if length_sq != den * den:
            raise ValueError(
                f"not a unit vector: |v|^2 = {format_rational(Fraction(length_sq, den * den))}"
            )
        object.__setattr__(self, "v", v)


def _unit(num: tuple[int, int, int], den: int) -> UnitVectorQ:
    """``UnitVectorQ`` of the three ints num over den > 0; raises its
    ValueError unless |num|^2 = den^2."""
    return UnitVectorQ(_vec(num, den))


def make_observable(v: UnitVectorQ) -> tuple[tuple[int, ...], int]:
    """The +-1-valued observable ``2|v><v| - 1`` for direction v, as the pair
    (nine row-major ints, d^2).

    Built in one step from the unit's ints: with v = n / d, entry (j, k) is
    ``2 n_j n_k - [j == k] d^2`` over ``d^2``.  The result is symmetric, has
    trace -1, and squares to the identity; all three follow exactly from
    |v|^2 = 1, which the type guarantees.  It is in lowest terms with no gcd
    pass: d is odd, since an even d would make x^2 + y^2 + z^2 = 0 (mod 4)
    and so x, y and z even, and an odd prime dividing d^2 and every entry
    divides x, y and z.
    """
    x, y, z = v.v._num
    d2 = v.v._den * v.v._den
    xy, xz, yz = 2 * x * y, 2 * x * z, 2 * y * z
    return (2 * x * x - d2, xy, xz, xy, 2 * y * y - d2, yz, xz, yz, 2 * z * z - d2), d2


def _int_mat_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The nine row-major ints of a b, for matrices given as nine row-major
    ints each: over the product of their denominators, not reduced."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def _int_mat_vec(
    a: tuple[Sequence[int], int], num: Sequence[int], den: int
) -> tuple[tuple[int, int, int], int]:
    """a (num / den), for a matrix a given as (nine row-major ints, positive
    denominator), as three ints over one positive denominator, not reduced."""
    x, y, z = num
    n, a_den = a
    return (
        (n[0] * x + n[1] * y + n[2] * z, n[3] * x + n[4] * y + n[5] * z, n[6] * x + n[7] * y + n[8] * z),
        a_den * den,
    )


def _observable_checks(observables: Sequence[tuple[Sequence[int], int]]) -> tuple[bool, bool, bool]:
    """The report's matrix re-checks of (nine row-major ints, den) pairs:
    each squares to I, has trace -1 and commutes with the next (mod n).
    A A over d = den^2 is I exactly when it reads (d, 0, 0, 0, d, 0, 0, 0, d);
    A B and B A share den_A * den_B, so both are computed and compared."""
    square_ok = all(
        _int_mat_mul(a, a) == (d := den * den, 0, 0, 0, d, 0, 0, 0, d)
        for a, den in observables
    )
    trace_ok = all(a[0] + a[4] + a[8] == -den for a, den in observables)
    mats = [a for a, _ in observables]
    commute_ok = all(_int_mat_mul(a, b) == _int_mat_mul(b, a) for a, b in zip(mats, mats[1:] + mats[:1]))
    return square_ok, trace_ok, commute_ok


def _check_length(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise CycleValidationError(
            "cycle-length", f"cycle length must be odd and >= 3, got {n}"
        )


def check_cycle_vectors(vectors: Sequence[UnitVectorQ]) -> None:
    """Check what the unit type does not guarantee of a cycle's directions:
    odd n >= 3 and exact adjacent orthogonality.  Raises
    CycleValidationError."""
    n = len(vectors)
    _check_length(n)
    for i in range(n):
        j = (i + 1) % n
        u, w = vectors[i].v, vectors[j].v
        d = _int_dot(u._num, w._num)
        if d != 0:
            raise CycleValidationError(
                "adjacent-not-orthogonal",
                f"adjacent pair ({i}, {j}) is not orthogonal: "
                f"dot = {format_rational(Fraction(d, u._den * w._den))}",
                pair=(i, j),
            )


class CycleScenario(_Value):
    """A validated odd cycle of compatible directions plus a state.

    The unit norms are guaranteed by the field types; construction checks
    the rest (``check_cycle_vectors``).  Repeated vectors are permitted
    (degenerate cycles satisfy every stated invariant and make useful
    trivial fixtures).
    """

    __match_args__ = ("state", "vectors")
    state: UnitVectorQ
    vectors: tuple[UnitVectorQ, ...]

    def __init__(self, state: UnitVectorQ, vectors: tuple[UnitVectorQ, ...]):
        vectors = tuple(vectors)
        check_cycle_vectors(vectors)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return len(self.vectors)

    @cached_property
    def observables(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The direction observables: the one place a scenario builds them."""
        return tuple(make_observable(u) for u in self.vectors)

    @cached_property
    def _images(self) -> tuple[tuple[tuple[int, int, int], int], ...]:
        """Each A_i psi once, as three ints over one denominator."""
        psi = self.state.v
        return tuple(_int_mat_vec(a, psi._num, psi._den) for a in self.observables)


def validate_cycle(state: Vec3Q, vectors: Sequence[Vec3Q]) -> CycleScenario:
    """Validate raw components into a CycleScenario, or raise
    CycleValidationError naming the first violated invariant.

    Check order: cycle length, state norm, per-vector norms, adjacency.
    Each norm is checked once, by the unit type wrapping it.
    """
    _check_length(len(vectors))
    try:
        psi = UnitVectorQ(state)
    except ValueError:
        raise CycleValidationError(
            "state-not-unit", f"state is not unit: |psi|^2 = {format_rational(norm_sq(state))}"
        ) from None
    units = []
    for i, v in enumerate(vectors):
        try:
            units.append(UnitVectorQ(v))
        except ValueError:
            raise CycleValidationError(
                "vector-not-unit",
                f"vector at index {i} is not unit: |v|^2 = {format_rational(norm_sq(v))}",
                index=i,
            ) from None
    return CycleScenario(state=psi, vectors=tuple(units))


def correlator(s: CycleScenario, i: int) -> Fraction:
    """Exact <A_i A_{i+1}> as (A_i psi) . (A_{i+1} psi), equal because A_i is
    symmetric; unlike the projection route it needs no orthogonality.
    One integer dot product of the scenario's cached A_i psi, one Fraction.
    Always lies in [-1, 1].  Raises IndexError outside 0 <= i < n."""
    if not 0 <= i < s.n:
        raise IndexError(f"correlator index {i} out of range for n = {s.n}")
    (u, du), (w, dw) = s._images[i], s._images[(i + 1) % s.n]
    return Fraction(_int_dot(u, w), du * dw)


def kcbs_value(s: CycleScenario) -> Fraction:
    """Exact cycle correlation sum  sum_i <A_i A_{i+1}>  (indices mod n).

    Each correlator is the integer dot product t_i of the cached A_i psi and
    A_{i+1} psi over d_i = du * dw; with L = lcm(d_i) the sum is
    sum_i t_i (L / d_i) / L, one Fraction.
    """
    images = s._images
    terms = [
        (_int_dot(u, w), du * dw)
        for (u, du), (w, dw) in zip(images, images[1:] + images[:1])
    ]
    big = lcm(*[den for _, den in terms])
    return Fraction(sum([t * (big // den) for t, den in terms]), big)


def kcbs_value_via_projections(s: CycleScenario) -> Fraction:
    """Independent evaluation route: n - 4 * sum_i (v_i . psi)^2, where
    (v_i . psi)^2 = <psi|P_i|psi> for the projector P_i = |v_i><v_i|.

    Valid because adjacent orthogonality kills the P_i P_{i+1} cross terms.
    Used as an oracle against ``kcbs_value``, never as the primary path: it
    reads the components' ints, nothing the scenario caches.  With
    v_i . psi = t_i / (d_i d) and L = lcm(d_i), the sum of squares is
    sum_i (t_i L / d_i)^2 / (L d)^2, one Fraction.
    """
    state = s.state.v
    psi, d = state._num, state._den
    big = lcm(*[u.v._den for u in s.vectors])
    total = sum([(_int_dot(u.v._num, psi) * (big // u.v._den)) ** 2 for u in s.vectors])
    scale = (big * d) ** 2
    return Fraction(s.n * scale - 4 * total, scale)


# Built-in reference configuration: a rational pentagon and a rational state
# whose exact cycle sum is about -3.9406, i.e. "-3.941" at three digits,
# strictly below the noncontextual bound of -3.
REFERENCE_STATE = Vec3Q(Fraction(354, 527), Fraction(357, 527), Fraction(-158, 527))

REFERENCE_VECTORS: tuple[Vec3Q, ...] = (
    E_X,
    E_Y,
    Vec3Q(Fraction(48, 73), Fraction(0), Fraction(-55, 73)),
    Vec3Q(Fraction(1925, 3277), Fraction(2052, 3277), Fraction(1680, 3277)),
    Vec3Q(Fraction(0), Fraction(140, 221), Fraction(-171, 221)),
)


def reference_scenario() -> CycleScenario:
    """The bundled known-good pentagon scenario, fully validated."""
    return validate_cycle(REFERENCE_STATE, REFERENCE_VECTORS)
