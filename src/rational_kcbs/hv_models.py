"""Noncontextual hidden-variable bound certification by an exact min-plus pass.

A deterministic noncontextual model assigns every observable on the cycle a
fixed outcome in {-1, +1}; the cycle correlation sum then becomes an integer
sum of adjacent products.  ``classical_min_cycle`` certifies the minimum over
all 2^n assignments with a min-plus product of the cycle's n 2x2 transfer
matrices: every assignment is a path through that product, so the result is
exhaustive, in O(n) integer work.  The closed form -(n - 2) for odd n is
asserted afterwards as a cross-check, never assumed.
Probabilistic (mixed) models need no separate treatment: the cycle sum is
linear in the outcome distribution, so its minimum over the convex hull of
deterministic assignments is attained at a deterministic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_OUTCOMES = (-1, 1)  # lexicographic order: -1 < +1


@dataclass(frozen=True)
class Assignment:
    """A deterministic outcome assignment: one value in {-1, +1} per observable."""

    outcomes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.outcomes:
            raise ValueError("assignment must not be empty")
        if any(o not in (-1, 1) for o in self.outcomes):
            raise ValueError(f"outcomes must be -1 or +1, got {self.outcomes}")

    def __len__(self) -> int:
        return len(self.outcomes)


def assignment_value(a: Assignment) -> int:
    """sum_i a_i * a_{i+1 mod n}: the cycle sum under a deterministic model."""
    o = a.outcomes
    n = len(o)
    return sum(o[i] * o[(i + 1) % n] for i in range(n))


def classical_min_cycle(n: int) -> tuple[int, Assignment]:
    """Minimum of ``assignment_value`` over all 2^n assignments, with witness.

    The witness is the lexicographically smallest minimizer under -1 < +1.
    A global sign flip keeps the value, so fixing a_0 = -1 loses nothing.  A
    backward pass of suffix optima, closing edge included, gives the minimum;
    the witness is then read front to back, taking -1 whenever it still
    reaches that minimum.

    Raises TypeError for a non-int n, ValueError for even n or n < 3.
    """
    if not isinstance(n, int):
        raise TypeError(f"cycle length must be an int, got {n!r}")
    if n % 2 == 0 or n < 3:
        raise ValueError(f"cycle length must be odd and >= 3, got {n}")
    first = _OUTCOMES[0]
    # suffix[i][k]: least sum of the edges a_i a_{i+1}, ..., a_{n-1} a_0
    # given a_i = _OUTCOMES[k]
    suffix = [()] * n
    suffix[n - 1] = tuple(a * first for a in _OUTCOMES)
    for i in range(n - 2, 0, -1):
        after = tuple(zip(_OUTCOMES, suffix[i + 1]))
        suffix[i] = tuple(min(a * b + s for b, s in after) for a in _OUTCOMES)
    best = min(first * b + s for b, s in zip(_OUTCOMES, suffix[1]))
    outcomes = [first]
    rest = best  # what the edges from a_{i-1} on must still sum to
    for i in range(1, n):
        prev = outcomes[-1]
        pick = next(b for b, s in zip(_OUTCOMES, suffix[i]) if prev * b + s == rest)
        rest -= prev * pick
        outcomes.append(pick)
    # For odd n the number of disagreeing adjacent pairs is always even, so
    # the certified minimum must land exactly on -(n - 2).
    assert best == -(n - 2), f"min-plus pass found {best}, expected {-(n - 2)}"
    return best, Assignment(outcomes)


def is_violation(value: Fraction | int, n: int) -> bool:
    """True iff ``value`` lies strictly below the noncontextual cycle bound
    -(n - 2), under exact rational comparison.  The bound itself is not a
    violation."""
    return value < -(n - 2)
