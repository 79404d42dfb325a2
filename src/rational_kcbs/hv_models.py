"""Noncontextual hidden-variable bound of an odd cycle, in closed form.

A deterministic noncontextual model assigns every observable on the cycle a
fixed outcome in {-1, +1}; the cycle correlation sum then becomes an integer
sum of adjacent products.  ``classical_min_cycle`` gives the minimum over
all 2^n assignments, -(n - 2) for odd n, by a parity argument (in its
docstring), with a witness that attains it; the witness's sum is computed
exactly and checked against -(n - 2) on every call.
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

    With d adjacent pairs that disagree, the sum is (n - d) - d = n - 2d.
    Going once round the cycle flips the sign d times and ends where it
    began, so d is even; for odd n that leaves d <= n - 1, and the sum is
    at least -(n - 2).  The witness (-1, -1, +1, -1, ..., +1) agrees only on
    its first pair, so d = n - 1 and it attains that bound.  It is the
    lexicographically smallest minimizer under -1 < +1: a minimizer agrees
    on exactly one pair, and once a_0 = a_1 = -1 makes that pair the first,
    every later outcome is forced.  The witness's cycle sum is computed
    exactly and compared with -(n - 2).

    Raises TypeError for a non-int or bool n, ValueError for even n or
    n < 3, and ArithmeticError should the witness miss -(n - 2).
    """
    if not isinstance(n, int) or n.__class__ is bool:
        raise TypeError(f"cycle length must be an int, got {n!r}")
    if n % 2 == 0 or n < 3:
        raise ValueError(f"cycle length must be odd and >= 3, got {n}")
    outcomes = (-1, -1) + (1, -1) * ((n - 3) // 2) + (1,)
    value = sum([a * b for a, b in zip(outcomes, outcomes[1:] + outcomes[:1])])
    if value != -(n - 2):
        raise ArithmeticError(f"witness sums to {value}, expected {-(n - 2)}")
    return value, Assignment(outcomes)


def is_violation(value: Fraction | int, n: int) -> bool:
    """True iff ``value`` lies strictly below the noncontextual cycle bound
    -(n - 2), under exact rational comparison.  The bound itself is not a
    violation."""
    return value < -(n - 2)
