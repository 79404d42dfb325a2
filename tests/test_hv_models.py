import itertools
import random
import re
from fractions import Fraction

import pytest

from rational_kcbs.cli import MAX_BOUND_N
from rational_kcbs.hv_models import (
    Assignment,
    classical_min_cycle,
    is_violation,
)
from tests.conftest import assert_frozen_value
from tests.oracles import min_plus_cycle


def cycle_sum(o):
    """sum_i o_i * o_{i+1 mod n}: the cycle sum under a deterministic model."""
    n = len(o)
    return sum(o[i] * o[(i + 1) % n] for i in range(n))


def brute_min(n):
    """Independent oracle: enumerate all 2^n assignments with itertools."""
    best = None
    for outcomes in itertools.product((-1, 1), repeat=n):
        v = cycle_sum(outcomes)
        if best is None or v < best[0] or (v == best[0] and outcomes < best[1]):
            best = (v, outcomes)
    return best


class TestAssignment:
    def test_valid(self):
        assert Assignment((-1, 1, -1)).outcomes == (-1, 1, -1)

    def test_accepts_any_iterable(self):
        assert Assignment([1, 1, 1]).outcomes == (1, 1, 1)

    # True == 1, so only its type tells it apart
    @pytest.mark.parametrize("outcomes", [(), (0,), (1, 2, 1), (-1, 1, 0), (True, -1, True), (-1, 1, True)])
    def test_invalid(self, outcomes):
        text = f"outcomes must be -1 or +1, got {outcomes}" if outcomes else "assignment must not be empty"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            Assignment(outcomes)

    def test_value_semantics(self):
        a = Assignment(outcomes=[-1, 1, -1])
        assert Assignment.__match_args__ == ("outcomes",)
        assert a == Assignment((-1, 1, -1)) and hash(a) == hash(((-1, 1, -1),))
        assert a != Assignment((1, -1, 1)) and a != (-1, 1, -1)
        assert repr(a) == "Assignment(outcomes=(-1, 1, -1))"
        assert_frozen_value(a, ("outcomes", "other"))


class TestClassicalMin:
    @pytest.mark.parametrize("n", range(3, 17, 2))
    def test_matches_brute_force(self, n):
        value, witness = classical_min_cycle(n)
        oracle_value, oracle_witness = brute_min(n)
        assert value == oracle_value == -(n - 2)
        assert witness.outcomes == oracle_witness

    def test_pentagon(self):
        value, witness = classical_min_cycle(5)
        assert value == -3
        assert witness.outcomes == (-1, -1, 1, -1, 1)
        assert cycle_sum(witness.outcomes) == -3

    def test_matches_min_plus_pass(self):
        # the exact O(n) pass assumes no closed form, so it reaches beyond
        # the brute force; MAX_BOUND_N is the largest ``bound`` request
        for n in [*range(3, 202, 2), MAX_BOUND_N]:
            assert classical_min_cycle(n) == min_plus_cycle(n), n

    # MAX_BOUND_N: the largest cycle a ``bound`` request accepts
    @pytest.mark.parametrize("n", [27, 101, 1001, MAX_BOUND_N])
    def test_long_cycles_beyond_brute_force(self, n):
        value, witness = classical_min_cycle(n)
        assert value == -(n - 2)
        assert cycle_sum(witness.outcomes) == value
        assert witness.outcomes == (-1, -1) + (1, -1) * ((n - 3) // 2) + (1,)

    def test_witness_attains_minimum(self):
        for n in (3, 5, 7, 9, 11):
            value, witness = classical_min_cycle(n)
            assert len(witness.outcomes) == n
            assert cycle_sum(witness.outcomes) == value

    def test_odd_cycle_frustration_parity(self):
        # every +-1 assignment on an odd cycle has an even number of
        # disagreeing adjacent pairs, hence value >= -(n - 2) > -n
        for o in itertools.product((-1, 1), repeat=5):
            disagreements = sum(o[i] != o[(i + 1) % 5] for i in range(5))
            assert disagreements % 2 == 0
            assert cycle_sum(o) >= -3

    def test_random_assignments_never_beat_minimum(self):
        rng = random.Random(1213)
        for n in (3, 5, 7, 9, 11, 13):
            value, _ = classical_min_cycle(n)
            for _ in range(50):
                o = tuple(rng.choice((-1, 1)) for _ in range(n))
                assert cycle_sum(o) >= value

    @pytest.mark.parametrize("n", [-3, 0, 1, 2, 4, 10])
    def test_rejects_bad_lengths(self, n):
        with pytest.raises(ValueError):
            classical_min_cycle(n)

    @pytest.mark.parametrize(
        "n,error", [(4, ValueError), (5.0, TypeError), (True, TypeError), (False, TypeError)]
    )
    def test_invalid_n_raises_on_every_call(self, n, error):
        for _ in range(2):
            with pytest.raises(error):
                classical_min_cycle(n)


class TestIsViolation:
    def test_pentagon_cases(self):
        below = Fraction(-3637267023675289031, 923014205472656089)
        assert is_violation(below, 5)
        assert not is_violation(Fraction(-3), 5)  # the bound itself
        assert not is_violation(-3, 5)
        assert not is_violation(Fraction(-2), 5)
        assert is_violation(Fraction(-3000000000001, 10**12), 5)

    def test_exactness_near_bound(self):
        eps = Fraction(1, 10**30)
        assert is_violation(-3 - eps, 5)
        assert not is_violation(-3 + eps, 5)

    def test_other_lengths(self):
        assert not is_violation(Fraction(-5), 7)
        assert is_violation(Fraction(-5) - Fraction(1, 10**9), 7)
        assert not is_violation(Fraction(-1), 3)
        assert is_violation(Fraction(-2), 3)
