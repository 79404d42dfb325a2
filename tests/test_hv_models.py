import itertools
import random
from fractions import Fraction

import pytest

from rational_kcbs.hv_models import (
    MAX_ENUMERATION_N,
    Assignment,
    assignment_value,
    classical_min_cycle,
    is_violation,
)


def brute_min(n):
    """Independent oracle: itertools product instead of bitmask enumeration."""
    best = None
    for outcomes in itertools.product((-1, 1), repeat=n):
        v = sum(outcomes[i] * outcomes[(i + 1) % n] for i in range(n))
        if best is None or v < best[0] or (v == best[0] and outcomes < best[1]):
            best = (v, outcomes)
    return best


class TestAssignment:
    def test_valid(self):
        a = Assignment((-1, 1, -1))
        assert len(a) == 3
        assert a.outcomes == (-1, 1, -1)

    def test_accepts_any_iterable(self):
        assert Assignment([1, 1, 1]).outcomes == (1, 1, 1)

    @pytest.mark.parametrize("outcomes", [(), (0,), (1, 2, 1), (-1, 1, 0)])
    def test_invalid(self, outcomes):
        with pytest.raises(ValueError):
            Assignment(outcomes)


class TestAssignmentValue:
    def test_examples(self):
        assert assignment_value(Assignment((1,) * 5)) == 5
        assert assignment_value(Assignment((-1,) * 5)) == 5
        assert assignment_value(Assignment((1, -1, 1, -1, 1))) == -3
        assert assignment_value(Assignment((-1, -1, 1, -1, 1))) == -3

    def test_matches_direct_product_sum(self):
        rng = random.Random(606)
        for _ in range(200):
            n = rng.choice([3, 5, 7, 9])
            o = tuple(rng.choice((-1, 1)) for _ in range(n))
            expected = sum(o[i] * o[(i + 1) % n] for i in range(n))
            assert assignment_value(Assignment(o)) == expected

    def test_global_sign_flip_invariance(self):
        for o in itertools.product((-1, 1), repeat=5):
            flipped = tuple(-x for x in o)
            assert assignment_value(Assignment(o)) == assignment_value(Assignment(flipped))


class TestClassicalMin:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_matches_brute_force(self, n):
        value, witness = classical_min_cycle(n)
        oracle_value, oracle_witness = brute_min(n)
        assert value == oracle_value == -(n - 2)
        assert witness.outcomes == oracle_witness

    def test_pentagon(self):
        value, witness = classical_min_cycle(5)
        assert value == -3
        assert witness.outcomes == (-1, -1, 1, -1, 1)
        assert assignment_value(witness) == -3

    def test_witness_attains_minimum(self):
        for n in (3, 5, 7, 9, 11):
            value, witness = classical_min_cycle(n)
            assert len(witness) == n
            assert assignment_value(witness) == value

    def test_odd_cycle_frustration_parity(self):
        # every +-1 assignment on an odd cycle has an even number of
        # disagreeing adjacent pairs, hence value >= -(n - 2) > -n
        for o in itertools.product((-1, 1), repeat=5):
            disagreements = sum(o[i] != o[(i + 1) % 5] for i in range(5))
            assert disagreements % 2 == 0
            assert assignment_value(Assignment(o)) >= -3

    def test_random_assignments_never_beat_minimum(self):
        rng = random.Random(1213)
        for n in (3, 5, 7, 9, 11, 13):
            value, _ = classical_min_cycle(n)
            for _ in range(50):
                o = tuple(rng.choice((-1, 1)) for _ in range(n))
                assert assignment_value(Assignment(o)) >= value

    @pytest.mark.parametrize("n", [-3, 0, 1, 2, 4, 10, 27, 101])
    def test_rejects_bad_lengths(self, n):
        with pytest.raises(ValueError):
            classical_min_cycle(n)

    def test_result_is_cached_per_n(self):
        first = classical_min_cycle(7)
        hits = classical_min_cycle.cache_info().hits
        second = classical_min_cycle(7)
        assert second is first
        assert classical_min_cycle.cache_info().hits == hits + 1

    @pytest.mark.parametrize("n,error", [(4, ValueError), (27, ValueError), (5.0, TypeError)])
    def test_invalid_n_raises_on_every_call(self, n, error):
        classical_min_cycle(5)  # a cached 5 must not answer for 5.0
        for _ in range(2):
            with pytest.raises(error):
                classical_min_cycle(n)

    def test_cap_is_inclusive(self):
        assert MAX_ENUMERATION_N == 25
        # n = 25 itself is legal but slow; just check the boundary rejection
        with pytest.raises(ValueError):
            classical_min_cycle(27)


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
