"""Noncontextual hidden-variable bound certification by an exact min-plus pass.

A deterministic noncontextual model assigns every observable on the cycle a
fixed outcome in {-1, +1}; the cycle correlation sum then becomes an integer
sum of adjacent products.  ``classical_min_cycle`` certifies the minimum over
all 2^n assignments with a min-plus pass that keeps two running minima per
step, the least suffix sum given a_i = -1 and given a_i = +1: every
assignment is a path through those minima, so the result is exhaustive, in
O(n) integer work.  The closed form -(n - 2) for odd n is checked
afterwards as a cross-check, never assumed.
Probabilistic (mixed) models need no separate treatment: the cycle sum is
linear in the outcome distribution, so its minimum over the convex hull of
deterministic assignments is attained at a deterministic one.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg3 import _Value


class Assignment(_Value):
    """A deterministic outcome assignment: one value in {-1, +1} per
    observable.  A bool is refused, though True == 1."""

    __match_args__ = ("outcomes",)
    outcomes: tuple[int, ...]

    def __init__(self, outcomes: tuple[int, ...]):
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValueError("assignment must not be empty")
        if any(o not in (-1, 1) or o is True for o in outcomes):  # True == 1
            raise ValueError(f"outcomes must be -1 or +1, got {outcomes}")
        object.__setattr__(self, "outcomes", outcomes)


def classical_min_cycle(n: int) -> tuple[int, Assignment]:
    """Minimum of the cycle sum  sum_i a_i * a_{i+1 mod n}  over all 2^n
    assignments, with witness.

    The witness is the lexicographically smallest minimizer under -1 < +1.
    A global sign flip keeps the value, so fixing a_0 = -1 loses nothing.  A
    backward pass of suffix optima, closing edge included, gives the minimum;
    the witness is then read front to back, taking -1 whenever it still
    reaches that minimum.

    Raises TypeError for a non-int or bool n, ValueError for even n or
    n < 3, and ArithmeticError should the pass miss the closed form -(n - 2).
    """
    if not isinstance(n, int) or n.__class__ is bool:
        raise TypeError(f"cycle length must be an int, got {n!r}")
    if n % 2 == 0 or n < 3:
        raise ValueError(f"cycle length must be odd and >= 3, got {n}")
    # lo / hi: least sum of the edges a_i a_{i+1}, ..., a_{n-1} a_0 given
    # a_i = -1 / +1, with a_0 = -1; lows[i] keeps each lo, lows[0] the minimum
    lows = [1] * n
    lo, hi = 1, -1  # i = n - 1: the closing edge a_{n-1} a_0 alone
    for i in range(n - 2, -1, -1):
        lo, hi = min(lo + 1, hi - 1), min(lo - 1, hi + 1)
        lows[i] = lo
    outcomes = [-1]
    rest = lows[0]  # what the edges from a_{i-1} on must still sum to
    for lo in lows[1:]:
        pick = -1 if lo - outcomes[-1] == rest else 1
        rest -= outcomes[-1] * pick
        outcomes.append(pick)
    # For odd n the number of disagreeing adjacent pairs is always even, so
    # the certified minimum must land exactly on -(n - 2).
    if lows[0] != -(n - 2):
        raise ArithmeticError(f"min-plus pass found {lows[0]}, expected {-(n - 2)}")
    return lows[0], Assignment(outcomes)


def is_violation(value: Fraction | int, n: int) -> bool:
    """True iff ``value`` lies strictly below the noncontextual cycle bound
    -(n - 2), under exact rational comparison.  The bound itself is not a
    violation."""
    return value < -(n - 2)
