"""Noncontextual hidden-variable bound certification by exhaustive enumeration.

A deterministic noncontextual model assigns every observable on the cycle a
fixed outcome in {-1, +1}; the cycle correlation sum then becomes an integer
sum of adjacent products.  ``classical_min_cycle`` certifies the minimum over
all 2^n assignments by enumerating every one of them; the closed form
-(n - 2) for odd n is asserted afterwards as a cross-check, never assumed.
Probabilistic (mixed) models need no separate treatment: the cycle sum is
linear in the outcome distribution, so its minimum over the convex hull of
deterministic assignments is attained at a deterministic one.

Enumeration is capped at n = 25 (about 3e8 elementary operations).  It runs
once per n per process: the certified result depends only on n, so later
calls reuse it from a cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

MAX_ENUMERATION_N = 25


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


# typed: a float n such as 5.0 must keep raising TypeError once 5 is cached
@functools.lru_cache(maxsize=None, typed=True)
def classical_min_cycle(n: int) -> tuple[int, Assignment]:
    """Minimum of ``assignment_value`` over all 2^n assignments, with witness.

    The witness is the lexicographically smallest minimizer under -1 < +1.
    Enumeration runs over bitmasks (bit set means +1, index 0 as the most
    significant bit, so ascending masks are ascending lexicographic order);
    the value is n - 2 * (number of disagreeing adjacent pairs).

    Raises ValueError for even n, n < 3, or n > 25.  Results (immutable) are
    cached per n; errors are not.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError(f"cycle length must be odd and >= 3, got {n}")
    if n > MAX_ENUMERATION_N:
        raise ValueError(
            f"enumeration capped at n = {MAX_ENUMERATION_N}, got {n}"
        )
    full = (1 << n) - 1
    best = n + 1
    witness_mask = 0
    for mask in range(1 << n):
        rotated = ((mask << 1) | (mask >> (n - 1))) & full
        value = n - 2 * (mask ^ rotated).bit_count()
        if value < best:
            best = value
            witness_mask = mask
    outcomes = tuple(
        1 if (witness_mask >> (n - 1 - i)) & 1 else -1 for i in range(n)
    )
    # For odd n the number of disagreeing adjacent pairs is always even, so
    # the enumerated minimum must land exactly on -(n - 2).
    assert best == -(n - 2), f"enumeration found {best}, expected {-(n - 2)}"
    return best, Assignment(outcomes)


def is_violation(value: Fraction | int, n: int) -> bool:
    """True iff ``value`` lies strictly below the noncontextual cycle bound
    -(n - 2), under exact rational comparison.  The bound itself is not a
    violation."""
    return value < -(n - 2)
