"""Cycle contextuality scenarios over exact rational qutrit geometry.

A scenario is a unit state plus an odd cycle of unit directions whose
adjacent pairs (indices mod n) are exactly orthogonal.  The unit type
``UnitVectorQ`` (for the state and for every direction) owns the norm
check; ``CycleScenario`` owns the rest.  Each direction v carries the
dichotomic observable ``2|v><v| - 1`` with outcomes +-1, held as that
``Mat3Q``; adjacent orthogonality makes adjacent observables commute, so
each adjacent pair is jointly measurable and the cycle correlation sum is
well defined.  The pentagon (n = 5) is the default; everything here works
for any odd n >= 3 because the bound logic is identical.

Two independent evaluation routes are provided on purpose: ``kcbs_value``
sums ``(A_i psi) . (A_{i+1} psi)``, exact because every A_i is symmetric and
free of any orthogonality assumption, while ``kcbs_value_via_projections``
uses the orthogonal-pair identity ``<A_i A_{i+1}> = 1 - 2<P_i> - 2<P_{i+1}>``
with ``<P_i> = (v_i . psi)^2``, from dot products alone.  Agreement of the
two routes is an end-to-end check; the first is primary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .linalg3 import (
    E_X,
    E_Y,
    Mat3Q,
    Vec3Q,
    dot,
    mat_mul,
    mat_vec,
    norm_sq,
    outer,
)
from .rationals import format_rational

ONE = Fraction(1)


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


@dataclass(frozen=True)
class UnitVectorQ:
    """A rational unit vector, a direction or a qutrit state: norm_sq exactly
    1, enforced at construction."""

    v: Vec3Q

    def __post_init__(self):
        length_sq = norm_sq(self.v)
        if length_sq != ONE:
            raise ValueError(f"not a unit vector: |v|^2 = {format_rational(length_sq)}")


def make_observable(v: UnitVectorQ) -> Mat3Q:
    """The +-1-valued observable ``2|v><v| - 1`` for direction v.

    The result is symmetric, has trace -1, and squares to the identity; all
    three follow exactly from |v|^2 = 1, which the type guarantees.
    """
    return 2 * outer(v.v, v.v) - Mat3Q.identity()


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
        d = dot(vectors[i].v, vectors[j].v)
        if d != 0:
            raise CycleValidationError(
                "adjacent-not-orthogonal",
                f"adjacent pair ({i}, {j}) is not orthogonal: dot = {format_rational(d)}",
                pair=(i, j),
            )


@dataclass(frozen=True)
class CycleScenario:
    """A validated odd cycle of compatible directions plus a state.

    The unit norms are guaranteed by the field types; construction checks
    the rest (``check_cycle_vectors``).  Repeated vectors are permitted
    (degenerate cycles satisfy every stated invariant and make useful
    trivial fixtures).
    """

    state: UnitVectorQ
    vectors: tuple[UnitVectorQ, ...]

    def __post_init__(self):
        check_cycle_vectors(self.vectors)

    @property
    def n(self) -> int:
        return len(self.vectors)

    @cached_property
    def observables(self) -> tuple[Mat3Q, ...]:
        """The direction observables: the one place a scenario builds them."""
        return tuple(make_observable(u) for u in self.vectors)


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
    Always lies in [-1, 1].  Raises IndexError outside 0 <= i < n."""
    if not 0 <= i < s.n:
        raise IndexError(f"correlator index {i} out of range for n = {s.n}")
    a = s.observables[i]
    b = s.observables[(i + 1) % s.n]
    return dot(mat_vec(a, s.state.v), mat_vec(b, s.state.v))


def kcbs_value(s: CycleScenario) -> Fraction:
    """Exact cycle correlation sum  sum_i <A_i A_{i+1}>  (indices mod n)."""
    return sum(correlator(s, i) for i in range(s.n))


def kcbs_value_via_projections(s: CycleScenario) -> Fraction:
    """Independent evaluation route: n - 4 * sum_i (v_i . psi)^2, where
    (v_i . psi)^2 = <psi|P_i|psi> for the projector P_i = |v_i><v_i|.

    Valid because adjacent orthogonality kills the P_i P_{i+1} cross terms.
    Used as an oracle against ``kcbs_value``, never as the primary path.
    """
    return s.n - 4 * sum(dot(u.v, s.state.v) ** 2 for u in s.vectors)


def cycle_operator(vectors: Sequence[UnitVectorQ]) -> Mat3Q:
    """Exact operator  sum_i A_i A_{i+1}  for a cycle of directions.

    For a geometry that passes ``check_cycle_vectors`` this matrix is exactly
    symmetric (commuting symmetric factors), equals n*I - 4*sum_i v_i v_i^T
    (the identity the search aims by; this is its exact oracle), and its
    quadratic form at any state equals the cycle correlation sum there.
    """
    check_cycle_vectors(vectors)
    matrices = [make_observable(u) for u in vectors]
    total = Mat3Q.zero()
    for a, b in zip(matrices, matrices[1:] + matrices[:1]):
        total = total + mat_mul(a, b)
    return total


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
