import importlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rational_kcbs.contextuality import (
    CycleValidationError,
    UnitVectorQ,
    check_cycle_vectors,
    kcbs_value,
    kcbs_value_via_projections,
    validate_cycle,
)
from rational_kcbs.hv_models import is_violation
from rational_kcbs.linalg3 import E_X, E_Y, E_Z, Vec3Q, dot, norm_sq
from rational_kcbs.search import (
    MAX_MN,
    CircleParams,
    SearchHit,
    _closes,
    best_rational_approx,
    build_pentagon,
    circle_triple,
    normalized_cross,
    optimal_state_numeric,
    primitive_params,
    rationalize_state,
    search,
    stereo_lift,
    stereo_project,
)
from tests.conftest import REF_KCBS_VALUE, REF_STATE_RAW, REF_VECTORS_RAW, rand_fraction

# the package's ``search`` attribute is the function, so fetch the module itself
search_module = importlib.import_module("rational_kcbs.search")


@pytest.fixture(scope="module")
def default_hits():
    return search(max_mn=14, max_den=600, top_k=5)


# -------------------------------------------------------------------- circles


class TestCircleParams:
    @pytest.mark.parametrize("m,n", [(2, 1), (8, 3), (14, 5), (3, 2)])
    def test_valid(self, m, n):
        CircleParams(m, n)

    @pytest.mark.parametrize(
        "m,n",
        [
            (1, 1),   # m = n
            (2, 0),   # n < 1
            (0, 1),   # m < n
            (3, 1),   # same parity
            (4, 2),   # common factor
            (9, 3),   # common factor
        ],
    )
    def test_invalid(self, m, n):
        with pytest.raises(ValueError):
            CircleParams(m, n)

    def test_non_integer(self):
        with pytest.raises(TypeError):
            CircleParams(2.0, 1)


class TestCircleTriple:
    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (2, 1, (3, 4, 5)),
            (8, 3, (55, 48, 73)),
            (14, 5, (171, 140, 221)),
            (14, 3, (187, 84, 205)),
        ],
    )
    def test_examples(self, m, n, expected):
        assert circle_triple(CircleParams(m, n)) == expected

    def test_primitive_right_triangles(self):
        for p in primitive_params(20):
            a, b, c = circle_triple(p)
            assert a * a + b * b == c * c
            assert math.gcd(a, b) == 1
            assert a > 0 and b > 0


# ------------------------------------------------------------ pentagon closure


class TestNormalizedCross:
    def test_axes(self):
        got = normalized_cross(UnitVectorQ(E_X), UnitVectorQ(E_Y))
        assert got.v == E_Z

    def test_reference_pair(self):
        v2 = UnitVectorQ(Vec3Q(*REF_VECTORS_RAW[2]))
        v4 = UnitVectorQ(Vec3Q(*REF_VECTORS_RAW[4]))
        got = normalized_cross(v2, v4)
        # integer certificate: 7700^2 + 8208^2 + 6720^2 == 13108^2
        assert 7700**2 + 8208**2 + 6720**2 == 13108**2
        assert got.v == Vec3Q(*REF_VECTORS_RAW[3])
        assert dot(got.v, v2.v) == 0 and dot(got.v, v4.v) == 0

    def test_parallel_raises(self):
        u = UnitVectorQ(Vec3Q("3/5", "4/5", 0))
        with pytest.raises(ValueError):
            normalized_cross(u, u)
        with pytest.raises(ValueError):
            normalized_cross(u, UnitVectorQ(-u.v))

    def test_irrational_length_returns_none(self):
        # cross squared length 1 - (u.v)^2 = 1 - (9/25)^2 = 544/625, not a square
        u = UnitVectorQ(Vec3Q("4/5", 0, "-3/5"))
        v = UnitVectorQ(Vec3Q(0, "4/5", "-3/5"))
        assert normalized_cross(u, v) is None

    def test_output_is_unit(self):
        for p1 in primitive_params(8):
            for p2 in primitive_params(8):
                pentagon = build_pentagon(p1, p2)
                if pentagon is not None:
                    assert norm_sq(pentagon[3].v) == 1


class TestBuildPentagon:
    def test_reference_parameters(self):
        pentagon = build_pentagon(CircleParams(8, 3), CircleParams(14, 5))
        assert pentagon is not None
        assert [u.v for u in pentagon] == [Vec3Q(*c) for c in REF_VECTORS_RAW]

    def test_unclosable_pair(self):
        # ((2,1), (2,1)): integer cross (12, 12, 16) has squared length 544
        assert build_pentagon(CircleParams(2, 1), CircleParams(2, 1)) is None
        assert 12**2 + 12**2 + 16**2 == 544
        assert math.isqrt(544) ** 2 != 544

    def test_flipped_z_still_closes(self):
        pentagon = build_pentagon(
            CircleParams(8, 3), CircleParams(14, 5), flip_v2_z=True
        )
        assert pentagon is not None
        assert pentagon[2].v.z == Fraction(55, 73)
        check_cycle_vectors([u.v for u in pentagon])

    def test_results_always_pass_geometry_checks(self):
        for p1 in primitive_params(8):
            for p2 in primitive_params(8):
                for flips in ((False, False), (True, False), (False, True)):
                    pentagon = build_pentagon(
                        p1, p2, flip_v2_z=flips[0], flip_v4_z=flips[1]
                    )
                    if pentagon is not None:
                        check_cycle_vectors([u.v for u in pentagon])


# ------------------------------------------------------------- stereographics


class TestStereo:
    def test_lift_examples(self):
        assert stereo_lift(0, 0).v == Vec3Q(0, 0, 1)
        assert stereo_lift(1, 0).v == Vec3Q(1, 0, 0)
        assert stereo_lift(Fraction(1, 2), Fraction(1, 2)).v == Vec3Q(
            "2/3", "2/3", "1/3"
        )

    def test_lift_is_exactly_unit(self):
        rng = random.Random(321)
        for _ in range(1000):
            u = stereo_lift(rand_fraction(rng, 200, 99), rand_fraction(rng, 200, 99))
            assert norm_sq(u.v) == 1

    def test_project_examples(self):
        assert stereo_project(UnitVectorQ(Vec3Q(0, 0, 1))) == (0, 0)
        psi = UnitVectorQ(Vec3Q(*REF_STATE_RAW))
        assert stereo_project(psi) == (Fraction(118, 123), Fraction(119, 123))

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            stereo_project(UnitVectorQ(Vec3Q(0, 0, -1)))

    def test_round_trips(self):
        rng = random.Random(654)
        for _ in range(300):
            p, q = rand_fraction(rng, 50, 30), rand_fraction(rng, 50, 30)
            assert stereo_project(stereo_lift(p, q)) == (p, q)
        for components in REF_VECTORS_RAW:
            u = UnitVectorQ(Vec3Q(*components))
            assert stereo_lift(*stereo_project(u)).v == u.v


# ------------------------------------------------------- rational approximation


def exhaustive_best(x, max_den):
    """Oracle: scan every denominator, same tie-breaking."""
    fx = Fraction(x)
    best = None
    for q in range(1, max_den + 1):
        base = (fx.numerator * q) // fx.denominator
        for p in (base, base + 1):
            f = Fraction(p, q)
            key = (abs(fx - f), f.denominator, abs(f.numerator))
            if best is None or key < best[0]:
                best = (key, f)
    return best[1]


class TestBestRationalApprox:
    @pytest.mark.parametrize(
        "x,max_den,expected",
        [
            (0.5, 10, Fraction(1, 2)),
            (Fraction(1, 3), 10, Fraction(1, 3)),
            (Fraction(22, 7), 100, Fraction(22, 7)),
            (5, 3, Fraction(5)),
            (math.pi, 113, Fraction(355, 113)),
            (math.pi, 100, Fraction(311, 99)),
            (-math.pi, 113, Fraction(-355, 113)),
            (0.6, 5, Fraction(3, 5)),
        ],
    )
    def test_examples(self, x, max_den, expected):
        assert best_rational_approx(x, max_den) == expected

    @pytest.mark.parametrize(
        "x,max_den,expected",
        [
            (Fraction(3, 4), 2, Fraction(1)),    # tie -> smaller denominator
            (Fraction(1, 2), 1, Fraction(0)),    # tie -> smaller |numerator|
            (Fraction(-1, 2), 1, Fraction(0)),
            (Fraction(5, 2), 1, Fraction(2)),
        ],
    )
    def test_ties(self, x, max_den, expected):
        assert best_rational_approx(x, max_den) == expected

    def test_matches_exhaustive_scan(self):
        rng = random.Random(9876)
        for _ in range(250):
            x = Fraction(rng.randint(-4000, 4000), rng.randint(1, 997))
            max_den = rng.randint(1, 40)
            assert best_rational_approx(x, max_den) == exhaustive_best(x, max_den)

    def test_float_inputs_match_exhaustive_scan(self):
        rng = random.Random(1793)
        for _ in range(100):
            x = rng.uniform(-4, 4)
            max_den = rng.randint(1, 30)
            assert best_rational_approx(x, max_den) == exhaustive_best(x, max_den)

    def test_errors(self):
        with pytest.raises(ValueError):
            best_rational_approx(0.5, 0)
        with pytest.raises(ValueError):
            best_rational_approx(float("nan"), 10)
        with pytest.raises(ValueError):
            best_rational_approx(float("inf"), 10)


# ------------------------------------------------------------- numeric corner


class TestOptimalStateNumeric:
    def test_reference_pentagon(self):
        vectors = [UnitVectorQ(Vec3Q(*c)) for c in REF_VECTORS_RAW]
        vec, lam = optimal_state_numeric(vectors)
        assert -3.95 < lam < -3.9406
        assert abs(np.linalg.norm(vec) - 1) < 1e-12
        # eigenvalue really is the quadratic form at the returned vector
        s = validate_cycle(rationalize_state(vec, 10**6).v, [u.v for u in vectors])
        assert abs(float(kcbs_value(s)) - lam) < 1e-9

    def test_axis_triangle_hits_closed_form(self):
        # for the coordinate axes the cycle operator is exactly -identity
        vectors = (UnitVectorQ(E_X), UnitVectorQ(E_Y), UnitVectorQ(E_Z))
        _vec, lam = optimal_state_numeric(vectors)
        assert abs(lam - (-1.0)) < 1e-12

    def test_invalid_cycle_rejected(self):
        with pytest.raises(CycleValidationError):
            optimal_state_numeric((UnitVectorQ(E_X), UnitVectorQ(E_Y), UnitVectorQ(E_Y)))


class TestRationalizeState:
    def test_axis_fixed_points(self):
        assert rationalize_state([0.0, 0.0, 1.0], 10).v == Vec3Q(0, 0, 1)
        assert rationalize_state([1.0, 0.0, 0.0], 10).v == Vec3Q(1, 0, 0)

    def test_negative_z_is_flipped(self):
        assert rationalize_state([0.0, 0.0, -1.0], 10).v == Vec3Q(0, 0, 1)

    def test_simple_plane_vector(self):
        got = rationalize_state([0.6, 0.8, 0.0], 10)
        assert got.v == Vec3Q("3/5", "4/5", 0)

    def test_output_always_exactly_unit(self):
        rng = random.Random(777)
        for _ in range(50):
            raw = np.array([rng.gauss(0, 1) for _ in range(3)])
            raw /= np.linalg.norm(raw)
            state = rationalize_state(raw, rng.randint(1, 50))
            assert norm_sq(state.v) == 1

    def test_recovers_exact_state_when_bound_allows(self):
        # the reference state's plane coordinates after the sign flip are
        # -354/685 and -357/685, recoverable exactly with max_den >= 685
        floats = [float(c) for c in REF_STATE_RAW]
        state = rationalize_state(floats, 700)
        assert state.v == -Vec3Q(*REF_STATE_RAW)

    def test_errors(self):
        with pytest.raises(ValueError):
            rationalize_state([0.9, 0.0, 0.0], 10)
        with pytest.raises(ValueError):
            rationalize_state([1.0, 0.0], 10)


# --------------------------------------------------------------------- search


class TestPrimitiveParams:
    def test_grid_size(self):
        params = primitive_params(14)
        assert len(params) == 43
        assert params == sorted(params, key=lambda p: (p.m, p.n))
        assert all(p.m <= 14 for p in params)

    def test_small_grids(self):
        assert primitive_params(1) == []
        assert primitive_params(2) == [CircleParams(2, 1)]


class TestSearch:
    def test_finds_reference_pentagon_first(self, default_hits):
        assert default_hits, "expected at least one violation"
        top = default_hits[0]
        assert top.params == (CircleParams(8, 3), CircleParams(14, 5))
        assert [u.v for u in top.scenario.vectors] == [
            Vec3Q(*c) for c in REF_VECTORS_RAW
        ]

    def test_hits_sorted_and_bounded(self, default_hits):
        values = [h.value for h in default_hits]
        assert values == sorted(values)
        quantum_floor = 5 - 4 * math.sqrt(5)
        for h in default_hits:
            assert h.scenario.n == 5
            assert h.state_denominator_bound == 600
            assert h.value < -3
            assert float(h.value) > quantum_floor - 1e-9

    def test_top_hit_beats_reference_value(self, default_hits):
        assert default_hits[0].value <= REF_KCBS_VALUE

    def test_hits_reproducible_from_components(self, default_hits):
        for h in default_hits:
            rebuilt = validate_cycle(
                h.scenario.state.v, [u.v for u in h.scenario.vectors]
            )
            assert kcbs_value(rebuilt) == h.value
            assert kcbs_value_via_projections(rebuilt) == h.value

    def test_deterministic(self, default_hits):
        again = search(max_mn=14, max_den=600, top_k=5)
        assert [h.value for h in again] == [h.value for h in default_hits]
        assert [h.params for h in again] == [h.params for h in default_hits]

    def test_top_k_truncates(self, default_hits):
        one = search(max_mn=14, max_den=600, top_k=1)
        assert len(one) == 1
        assert one[0].value == default_hits[0].value

    def test_empty_result_is_legal(self):
        assert search(max_mn=2, max_den=50, top_k=3) == []

    @pytest.mark.parametrize("args", [(0, 600, 5), (14, 0, 5), (14, 600, 0)])
    def test_rejects_bad_bounds(self, args):
        with pytest.raises(ValueError):
            search(*args)

    def test_rejects_max_mn_over_limit(self):
        # refused before the O(max_mn^4) pair scan starts
        with pytest.raises(ValueError, match="max_mn"):
            search(MAX_MN + 1, 10, 1)


def closable_pairs(max_mn):
    """Every pair of primitive_params(max_mn) that build_pentagon closes."""
    params = primitive_params(max_mn)
    return [
        (p1, p2, pentagon)
        for p1 in params
        for p2 in params
        if (pentagon := build_pentagon(p1, p2)) is not None
    ]


class TestClosurePrefilter:
    def test_integer_test_agrees_with_build_pentagon(self):
        params = primitive_params(14)  # 12 holds no closing pair
        closing = 0
        for p1 in params:
            for p2 in params:
                closes = _closes(circle_triple(p1), circle_triple(p2))
                closing += closes
                for flips in itertools.product((False, True), repeat=2):
                    built = build_pentagon(
                        p1, p2, flip_v2_z=flips[0], flip_v4_z=flips[1]
                    )
                    assert closes == (built is not None), (p1, p2, flips)
        assert 0 < closing < len(params) ** 2

    def test_search_builds_only_closable_pairs(self, monkeypatch):
        expected = len(closable_pairs(14))
        calls = []
        original = search_module.build_pentagon

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(search_module, "build_pentagon", counting)
        search(max_mn=14, max_den=600, top_k=5)
        assert len(calls) == expected < len(primitive_params(14)) ** 2

    def test_search_matches_brute_force(self):
        # The search pipeline run on every closable pair found by
        # build_pentagon alone: the integer prefilter must drop no pair.
        max_den = 600
        expected = []
        for p1, p2, pentagon in closable_pairs(20):
            vec, _lam = optimal_state_numeric(pentagon)
            state = rationalize_state(vec, max_den)
            scenario = validate_cycle(state.v, [u.v for u in pentagon])
            value = kcbs_value(scenario)
            if is_violation(value, scenario.n):
                expected.append((value, (p1, p2), scenario))
        expected.sort(key=lambda e: (e[0], e[1][0].m, e[1][0].n, e[1][1].m, e[1][1].n))
        hits = search(max_mn=20, max_den=max_den, top_k=1000)
        assert 0 < len(expected) < 1000
        assert [(h.value, h.params, h.scenario) for h in hits] == expected


def test_search_hit_requires_violation():
    s = validate_cycle(E_X, (E_X, E_Y, E_X, E_Y, E_Z))
    assert kcbs_value(s) == -3
    with pytest.raises(ValueError):
        SearchHit(
            scenario=s,
            value=Fraction(-3),
            params=(CircleParams(8, 3), CircleParams(14, 5)),
            state_denominator_bound=600,
        )
