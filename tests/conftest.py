"""Shared fixture data: the bundled reference configuration spelled out as
integer literals, so tests cross-check the packaged constants instead of
echoing them, seeded generators of rationals, wire-format fraction texts,
rotations and odd cycles, the interpreter's own digit-limit message, and
the value semantics every frozen value type shares."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from rational_kcbs.contextuality import UnitVectorQ
from rational_kcbs.linalg3 import Vec3Q
from rational_kcbs.search import circle_triple, primitive_params

REF_STATE_RAW = (Fraction(354, 527), Fraction(357, 527), Fraction(-158, 527))

REF_VECTORS_RAW = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(48, 73), Fraction(0), Fraction(-55, 73)),
    (Fraction(1925, 3277), Fraction(2052, 3277), Fraction(1680, 3277)),
    (Fraction(0), Fraction(140, 221), Fraction(-171, 221)),
)

# Exact cycle sum of the reference configuration, derived in
# test_contextuality via the projector-sum oracle and frozen here for reuse.
REF_KCBS_VALUE = Fraction(-3637267023675289031, 923014205472656089)


def int_limit_message(digits: str) -> str:
    """The running interpreter's ValueError text for ``int(digits)`` beyond
    its int-from-string digit limit.  Its wording depends on the version:
    "Exceeds the limit (4300) ..." on 3.10, "(4300 digits)" from 3.11."""
    with pytest.raises(ValueError) as refused:
        int(digits)
    return str(refused.value)


def assert_frozen_value(value, names) -> None:
    """value survives copy, deepcopy and a pickle round trip equal, with the
    same type, hash and repr, and refuses to assign or delete each name with
    ``dataclasses.FrozenInstanceError``."""
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)


@pytest.fixture
def ref_state() -> Vec3Q:
    return Vec3Q(*REF_STATE_RAW)


@pytest.fixture
def ref_vectors() -> list[Vec3Q]:
    return [Vec3Q(*c) for c in REF_VECTORS_RAW]


def rand_fraction(rng: random.Random, max_num: int = 60, max_den: int = 40) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_vec(rng: random.Random) -> Vec3Q:
    return Vec3Q(rand_fraction(rng), rand_fraction(rng), rand_fraction(rng))


def rand_wire_text(rng: random.Random) -> str:
    """A fraction text in the config wire format: signs ``+``/``-`` (so
    ``-0`` too), leading zeros, zero numerators over any denominator,
    integers with and without ``/1``, and fractions of up to about 40 digits
    left unreduced by a random common factor."""
    sign = rng.choice(("", "", "+", "-"))
    kind = rng.randrange(4)
    if kind == 0:
        num, den = 0, rng.choice((1, rng.randint(1, 50)))
    elif kind == 1:
        num, den = rng.randint(0, 9), 1
    else:
        num, den = rng.randint(0, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40))
        k = rng.choice((1, 2, 6, rng.randint(2, 10**6)))
        num, den = num * k, den * k
    text = sign + "0" * rng.choice((0, 0, 0, 1, 3)) + str(num)
    if den == 1 and rng.random() < 0.5:
        return text
    return text + "/" + "0" * rng.choice((0, 0, 1)) + str(den)


def rotation(a, b, c, d):
    """Rows of the rational rotation of the integer quaternion a + bi + cj + dk."""
    s = a * a + b * b + c * c + d * d
    return [
        Vec3Q(Fraction(a * a + b * b - c * c - d * d, s), Fraction(2 * (b * c - a * d), s),
              Fraction(2 * (b * d + a * c), s)),
        Vec3Q(Fraction(2 * (b * c + a * d), s), Fraction(a * a - b * b + c * c - d * d, s),
              Fraction(2 * (c * d - a * b), s)),
        Vec3Q(Fraction(2 * (b * d - a * c), s), Fraction(2 * (c * d + a * b), s),
              Fraction(a * a - b * b - c * c + d * d, s)),
    ]


def odd_cycle(rng, n):
    """A rational odd n-cycle: a rotated orthonormal triangle, grown by
    detours a -> x -> a with x a rational unit vector orthogonal to a."""
    rows = rotation(*(rng.randint(-4, 4) for _ in range(3)), 1)
    cycle = [(rows[0], rows[1], rows[2]), (rows[1], rows[2], rows[0]), (rows[2], rows[0], rows[1])]
    while len(cycle) < n:
        at = rng.randrange(len(cycle))
        a, b, c = cycle[at]
        odd, even, hyp = circle_triple(rng.choice(primitive_params(9)))
        cos, sin = Fraction(odd, hyp), Fraction(rng.choice((-1, 1)) * even, hyp)
        pairs = list(zip(b.as_tuple(), c.as_tuple()))
        x = Vec3Q(*(p * cos + q * sin for p, q in pairs))
        y = Vec3Q(*(q * cos - p * sin for p, q in pairs))
        cycle[at + 1:at + 1] = [(x, y, a), (a, b, c)]
    return [UnitVectorQ(v) for v, _, _ in cycle]


# One PASS/FAIL line per acceptance criterion, echoed after the test summary
# so they are visible without -s (test_acceptance appends (number, line) pairs).
ACCEPTANCE_LINES: list[tuple[int, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
