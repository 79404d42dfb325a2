import importlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
from rational_kcbs.linalg3 import E_X, E_Y, E_Z, Vec3Q, cross, dot, norm_sq
from rational_kcbs.rationals import format_rational, parse_rational
from rational_kcbs.search import (
    MAX_MN,
    CircleParams,
    SearchHit,
    _closing_pairs,
    _closing_params,
    best_rational_approx,
    build_pentagon,
    circle_triple,
    optimal_state_numeric,
    primitive_params,
    rationalize_state,
    search,
    stereo_lift,
)
from tests.conftest import (
    REF_KCBS_VALUE,
    REF_STATE_RAW,
    REF_VECTORS_RAW,
    assert_frozen_value,
    odd_cycle,
    rand_fraction,
    rotation,
)
from tests.oracles import (
    IDENTITY_ROWS,
    PI_BELOW,
    closing_pairs_scan,
    cos_upper,
    cycle_operator,
    gram,
    jacobi_aim_rows,
    ref_map,
    respects_quantum_bound,
    stereo_chart,
    stereo_lift_fractions,
    z_flipped_pentagon,
)

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
        # a bool too, though isinstance(True, int) holds
        for m, n in ((2.0, 1), (2, 1.0), (Fraction(2), 1), (2, True), (True, 0)):
            with pytest.raises(TypeError, match="^circle parameters must be integers$"):
                CircleParams(m, n)

    def test_value_semantics(self):
        p = CircleParams(8, 3)
        assert CircleParams.__match_args__ == ("m", "n")
        assert p == CircleParams(m=8, n=3) == CircleParams(8, n=3) and hash(p) == hash((8, 3))
        assert p != CircleParams(8, 5) and p != (8, 3)
        assert repr(p) == "CircleParams(m=8, n=3)"
        assert_frozen_value(p, ("m", "n", "other"))

    def test_ordering(self):
        # params order as their (m, n) tuples, and only among themselves
        params = [CircleParams(14, 5), CircleParams(8, 5), CircleParams(4, 1), CircleParams(8, 3),
                  CircleParams(3, 2)]
        assert sorted(params) == sorted(params, key=lambda p: (p.m, p.n)) != sorted(params, key=lambda p: p.n)
        p, q = CircleParams(8, 3), CircleParams(8, 5)
        assert p < q and p <= q and q > p and q >= p and p <= p and p >= p
        assert not (p < p or p > p or q < p or q <= p or p > q or p >= q)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            for a, b, text in ((p, 8, "'CircleParams' and 'int'"), (8, p, "'int' and 'CircleParams'")):
                with pytest.raises(TypeError, match=f"not supported between instances of {text}$"):
                    op(a, b)


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

    def test_params_order_is_m_then_n(self):
        # search orders equal values by params, i.e. by this order
        params = primitive_params(30)
        assert sorted(params) == params


# ------------------------------------------------------------ pentagon closure


class TestNormalizedCross:
    """v3 = cross(v2, v4) normalized, as ``build_pentagon`` closes the cycle."""

    def test_reference_pair(self):
        pentagon = build_pentagon(CircleParams(8, 3), CircleParams(14, 5))
        v2, got, v4 = (u.v for u in pentagon[2:])
        # integer certificate: 7700^2 + 8208^2 + 6720^2 == 13108^2
        assert 7700**2 + 8208**2 + 6720**2 == 13108**2
        assert got == Vec3Q(*REF_VECTORS_RAW[3]) == Vec3Q(Fraction(7700, 13108), Fraction(8208, 13108), Fraction(6720, 13108))
        assert dot(got, v2) == 0 and dot(got, v4) == 0

    def test_irrational_length_returns_none(self):
        # v2 and v4 of the pair ((2,1), (2,1)): the cross product's squared
        # length 1 - (v2.v4)^2 = 1 - (9/25)^2 = 544/625 is not a square
        u = Vec3Q(Fraction(4, 5), 0, Fraction(-3, 5))
        v = Vec3Q(0, Fraction(4, 5), Fraction(-3, 5))
        assert norm_sq(cross(u, v)) == Fraction(544, 625)
        assert build_pentagon(CircleParams(2, 1), CircleParams(2, 1)) is None

    def test_output_is_unit(self):
        for p1 in primitive_params(8):
            for p2 in primitive_params(8):
                pentagon = build_pentagon(p1, p2)
                if pentagon is not None:
                    assert norm_sq(pentagon[3].v) == 1

    def test_matches_fraction_cross_oracle(self):
        # build_pentagon returns None exactly when cross(v2, v4) computed in
        # Fractions has an irrational length, and v3 is otherwise that cross
        # over its length.  The Fraction side also tries positive z-signs:
        # closure does not depend on them, and the z-flipped pentagons are
        # the mirrored ones.
        params = primitive_params(30)
        triples = [circle_triple(p) for p in params]
        closing = 0
        for (p1, (a1, b1, h1)), (p2, (a2, b2, h2)) in itertools.product(zip(params, triples), repeat=2):
            built = build_pentagon(p1, p2)
            for s1, s2 in itertools.product((-1, 1), repeat=2):
                v2 = Vec3Q(Fraction(b1, h1), 0, Fraction(s1 * a1, h1))
                v4 = Vec3Q(0, Fraction(b2, h2), Fraction(s2 * a2, h2))
                c = cross(v2, v4)
                length_sq = norm_sq(c)
                num, den = math.isqrt(length_sq.numerator), math.isqrt(length_sq.denominator)
                rational = num * num == length_sq.numerator and den * den == length_sq.denominator
                assert (built is not None) == rational, (p1, p2, s1, s2)
                if rational:
                    closing += 1
                    pentagon = z_flipped_pentagon(built, s1 > 0, s2 > 0)
                    assert pentagon[3].v == Vec3Q(*(x / Fraction(num, den) for x in c.as_tuple()))
                    assert [u.v for u in pentagon[2::2]] == [v2, v4]
        assert closing == 96


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

    def test_results_always_pass_geometry_checks(self):
        for p1 in primitive_params(8):
            for p2 in primitive_params(8):
                pentagon = build_pentagon(p1, p2)
                if pentagon is not None:
                    check_cycle_vectors(pentagon)


# ------------------------------------------------------------- stereographics


class TestStereo:
    def test_lift_examples(self):
        assert stereo_lift(0, 0).v == Vec3Q(0, 0, 1)
        assert stereo_lift(1, 0).v == Vec3Q(1, 0, 0)
        assert stereo_lift(Fraction(1, 2), Fraction(1, 2)).v == Vec3Q(
            Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)
        )

    def test_lift_is_exactly_unit(self):
        rng = random.Random(321)
        for _ in range(1000):
            u = stereo_lift(rand_fraction(rng, 200, 99), rand_fraction(rng, 200, 99))
            assert norm_sq(u.v) == 1

    def test_lift_matches_fraction_oracle(self):
        # the integer lift against (2p, 2q, 1 - p^2 - q^2) / (1 + p^2 + q^2)
        # in Fractions: zero, integers, negatives and 60-digit values
        rng = random.Random(4242)
        big = 10**60
        values = [Fraction(0), Fraction(1), Fraction(-3), Fraction(7, 2), Fraction(-5, 9)]
        values += [rand_fraction(rng, 200, 99) for _ in range(15)]
        values += [Fraction(rng.randint(-big, big), rng.randint(big // 10, big)) for _ in range(15)]
        assert max(abs(v.numerator) for v in values) > 10**59
        for p, q in itertools.product(values, repeat=2):
            assert stereo_lift(p, q).v == stereo_lift_fractions(p, q), (p, q)
        assert stereo_lift(2, -3).v == stereo_lift_fractions(Fraction(2), Fraction(-3))

    def test_round_trips(self):
        rng = random.Random(654)
        for _ in range(300):
            p, q = rand_fraction(rng, 50, 30), rand_fraction(rng, 50, 30)
            assert stereo_chart(stereo_lift(p, q).v) == (p, q)
        for components in REF_VECTORS_RAW:
            v = Vec3Q(*components)
            assert stereo_lift(*stereo_chart(v)).v == v


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
            (Fraction(-3, 2), 1, Fraction(-1)),  # not the convergent -2
            (-0.5, 1, Fraction(0)),
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

    def test_integer_routine_matches_limit_denominator(self):
        # the integer continued fraction against the standard library's
        # Fraction routine, applied to -x for x < 0: seeded floats of every
        # magnitude from 1e-12 to 1e12, signed zeros, the smallest subnormal,
        # the ties +-0.5 and +-2.5 at max_den 1, and inputs whose denominator
        # already fits (integers, dyadics, small Fractions)
        bounds = (1, 2, 3, 10, 600, 10**6, 10**9, 10**18)
        rng = random.Random(31337)
        cases = [(math.copysign(10 ** rng.uniform(-12, 12), rng.random() - 0.5), bounds[k % len(bounds)])
                 for k in range(100_000)]
        cases += [(x, m) for x in (0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 2.5, -2.5) for m in bounds]
        cases += [(x, m) for x in (3.0, -7.0, 2.0**60, 0.375, -0.375, 1 - 2**-53) for m in bounds]
        cases += [(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000)), m) for m in bounds for _ in range(100)]
        fits = 0
        for x, max_den in cases:
            n, d = x.as_integer_ratio()
            fx = Fraction(n, d)
            expected = -(-fx).limit_denominator(max_den) if fx < 0 else fx.limit_denominator(max_den)
            assert search_module._best_ratio(n, d, max_den) == (expected.numerator, expected.denominator), (x, max_den)
            assert best_rational_approx(x, max_den) == expected
            fits += d <= max_den
        assert fits > 1000
        # a tie keeps the convergent: 0 for +-0.5 and +-2 for +-2.5
        assert [best_rational_approx(x, 1) for x in (0.5, -0.5, 2.5, -2.5)] == [0, 0, 2, -2]

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
        np = pytest.importorskip("numpy")
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

    def test_residual_check_raises_above_tolerance(self, monkeypatch):
        # at tolerance 0 the reference pentagon's rounding-level residual fails
        # the check, and the message names numpy's residual of the same pair
        np = pytest.importorskip("numpy")
        vectors = [UnitVectorQ(Vec3Q(*c)) for c in REF_VECTORS_RAW]
        vec, lam = optimal_state_numeric(vectors)
        op = np.array([[float(e) for e in row] for row in cycle_operator(vectors)])
        expected = np.linalg.norm(op @ np.array(vec) - lam * np.array(vec))
        monkeypatch.setattr(search_module, "EIGEN_RESIDUAL_TOL", 0.0)
        with pytest.raises(ArithmeticError, match="eigen-solve residual") as err:
            optimal_state_numeric(vectors)
        residual = float(str(err.value).split()[2])
        assert 0 < residual and abs(residual - expected) < 1e-15
        # the axis triangle's operator is exactly -I: residual exactly 0
        _vec, lam = optimal_state_numeric((UnitVectorQ(E_X), UnitVectorQ(E_Y), UnitVectorQ(E_Z)))
        assert lam == -1.0


@pytest.fixture(scope="module")
def pentagons_30():
    """Every pentagon ``build_pentagon`` closes in primitive_params(30), under
    all four z-flip combinations."""
    pentagons = [
        z_flipped_pentagon(pentagon, *flips)
        for _p1, _p2, pentagon in closable_pairs(30)
        for flips in itertools.product((False, True), repeat=2)
    ]
    assert len(pentagons) == 4 * 24
    return pentagons


def rotated(rows, vectors):
    return [UnitVectorQ(Vec3Q(*(dot(row, v) for row in rows))) for v in vectors]


ODD_CYCLES = [odd_cycle(random.Random(n), n) for n in range(3, 24, 2)]

# G = I; G = diag(3, 2, 2), rotated (a repeated smaller eigenvalue);
# G = diag(3, 4, 2); G = diag(2, 2, 1) (a repeated largest eigenvalue)
SPECIAL_CYCLES = {
    "identity": [UnitVectorQ(v) for v in (E_X, E_Y, E_Z)],
    "repeated-smaller": rotated(rotation(1, 2, -1, 3), (E_X, E_Y, E_X, E_Z, E_X, E_Y, E_Z)),
    "diagonal": [UnitVectorQ(v) for v in (E_X, E_Y, E_X, E_Y, E_X, E_Z, E_Y, E_Z, E_Y)],
    "repeated-largest": [UnitVectorQ(v) for v in (E_X, E_Y, E_X, E_Y, E_Z)],
}


def eigh_of_cycle_operator(vectors):
    """Smallest eigenpair of the exact cycle operator by numpy.linalg.eigh."""
    np = pytest.importorskip("numpy")
    op = cycle_operator(vectors)
    eigenvalues, eigenvectors = np.linalg.eigh(np.array([[float(e) for e in row] for row in op]))
    return eigenvectors[:, 0], float(eigenvalues[0]), eigenvalues


class TestGramAim:
    """The aim is the top eigenvector of the Gram matrix G = sum v v^T."""

    def test_cycle_operator_is_n_minus_four_gram(self, pentagons_30):
        for vectors in pentagons_30 + ODD_CYCLES + list(SPECIAL_CYCLES.values()):
            n = len(vectors)
            assert cycle_operator(vectors) == ref_map(lambda i, g: n * i - 4 * g, IDENTITY_ROWS, gram(vectors))

    def test_eigenpair_matches_eigh(self, pentagons_30):
        np = pytest.importorskip("numpy")
        unique = pentagons_30 + ODD_CYCLES[2:] + [
            SPECIAL_CYCLES["repeated-smaller"], SPECIAL_CYCLES["diagonal"]
        ]
        for vectors in unique:
            vec, lam = optimal_state_numeric(vectors)
            ref_vec, ref_lam, eigenvalues = eigh_of_cycle_operator(vectors)
            assert eigenvalues[1] - eigenvalues[0] > 1e-3  # the eigenvector is unique
            assert abs(lam - ref_lam) < 1e-12
            assert abs(abs(float(np.dot(vec, ref_vec))) - 1) < 1e-12

    @pytest.mark.parametrize(
        "vectors",
        [SPECIAL_CYCLES["identity"], SPECIAL_CYCLES["repeated-largest"], *ODD_CYCLES[:2]],
        ids=["identity", "repeated-largest", "triangle", "triangle-and-detour"],
    )
    def test_degenerate_eigenvalue(self, vectors):
        # the smallest eigenvalue of the operator is repeated, so every unit
        # vector of its eigenspace is an optimal state
        np = pytest.importorskip("numpy")
        vec, lam = optimal_state_numeric(vectors)
        _ref_vec, ref_lam, eigenvalues = eigh_of_cycle_operator(vectors)
        assert abs(eigenvalues[1] - eigenvalues[0]) < 1e-12
        assert abs(lam - ref_lam) < 1e-12
        assert abs(math.hypot(*vec) - 1) < 1e-12
        op = np.array([[float(e) for e in row] for row in cycle_operator(vectors)])
        assert np.linalg.norm(op @ np.array(vec) - ref_lam * np.array(vec)) < 1e-12

    def test_flat_sweeps_match_row_list_oracle(self, pentagons_30):
        # the same float operations in the same order give the same bits:
        # every closing pentagon at MAX_MN in both orders, their z-flips up to
        # max_mn 30, the degenerate cycles above and the seeded odd cycles
        # n = 3..23
        params = primitive_params(MAX_MN)
        pentagons = [
            build_pentagon(params[a], params[b])
            for i, j, _, _ in _closing_pairs([circle_triple(p) for p in params])
            for a, b in ((i, j), (j, i))
        ]
        assert len(pentagons) == 114
        for vectors in pentagons + pentagons_30 + list(SPECIAL_CYCLES.values()) + ODD_CYCLES:
            vec, lam = optimal_state_numeric(vectors)
            ref_vec, ref_lam = jacobi_aim_rows(vectors)
            assert [x.hex() for x in (*vec, lam)] == [x.hex() for x in (*ref_vec, ref_lam)]

    def test_identity_aims_at_e_x(self):
        assert optimal_state_numeric(SPECIAL_CYCLES["identity"]) == ((1.0, 0.0, 0.0), -1.0)

    @pytest.mark.parametrize("max_den", [10, 10**3, 10**6])
    def test_search_matches_eigh_aim(self, monkeypatch, max_den):
        # each hit depends only on its pair and max_den, so max_mn = 30 also
        # covers every smaller max_mn
        pytest.importorskip("numpy")
        hits = search(30, max_den, 10**6)
        monkeypatch.setattr(
            search_module, "optimal_state_numeric", lambda vs: eigh_of_cycle_operator(vs)[:2]
        )
        reference = search(30, max_den, 10**6)
        assert len(reference) > 0
        assert [(h.value, h.params, h.scenario) for h in hits] == [
            (h.value, h.params, h.scenario) for h in reference
        ]

    def test_package_imports_and_searches_without_numpy(self, default_hits):
        script = (
            "import sys\n"
            "import rational_kcbs\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "sys.modules['numpy'] = None\n"
            "from rational_kcbs.cli import main\n"
            "sys.exit(main(['search', '--max-mn', '14']))\n"
        )
        src = Path(search_module.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, encoding="utf-8",
            check=False, cwd=src, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert [(h["params"]["first"]["m"], h["params"]["first"]["n"]) for h in json.loads(result.stdout)] == [
            (h.params[0].m, h.params[0].n) for h in default_hits
        ]


class TestRationalizeState:
    def test_axis_fixed_points(self):
        assert rationalize_state([0.0, 0.0, 1.0], 10).v == Vec3Q(0, 0, 1)
        assert rationalize_state([1.0, 0.0, 0.0], 10).v == Vec3Q(1, 0, 0)

    def test_negative_z_is_flipped(self):
        assert rationalize_state([0.0, 0.0, -1.0], 10).v == Vec3Q(0, 0, 1)

    def test_simple_plane_vector(self):
        got = rationalize_state([0.6, 0.8, 0.0], 10)
        assert got.v == Vec3Q(Fraction(3, 5), Fraction(4, 5), 0)

    def test_output_always_exactly_unit(self):
        np = pytest.importorskip("numpy")
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
        assert state.v == Vec3Q(*(-c for c in REF_STATE_RAW))

    def test_errors(self):
        with pytest.raises(ValueError):
            rationalize_state([0.9, 0.0, 0.0], 10)
        with pytest.raises(ValueError):
            rationalize_state([1.0, 0.0], 10)
        for bad in ([0.0, 0.0, math.nan], [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0]):
            with pytest.raises(ValueError, match="norm"):
                rationalize_state(bad, 10)
        for max_den in (0, -1):
            with pytest.raises(ValueError, match="max_den"):
                rationalize_state([1.0, 0.0, 0.0], max_den)


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
        for h in default_hits:
            assert h.scenario.n == 5
            assert h.state_denominator_bound == 600
            assert h.value < -3
            assert (5 - h.value) ** 2 <= 80  # value >= 5 - 4 sqrt(5), exactly

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

    @pytest.mark.parametrize("max_den", [10, 50, 600, 2712, 10**6])
    def test_top_k_is_a_prefix(self, max_den):
        full = search(24, max_den, 1000)
        assert full
        for k in range(1, len(full) + 1):
            assert search(24, max_den, k) == full[:k], k

    def test_hits_built_only_for_the_returned_top_k(self, monkeypatch):
        # the scan runs on ints: two CircleParams per closing pair, shared by
        # its pentagon and its two hits, and a mirror scenario only for each
        # returned mirror hit (p2, p1) with p2 > p1.  The first request finds
        # the table of closing pairs cold, the others warm.
        closing = len(list(_closing_pairs([circle_triple(p) for p in primitive_params(24)])))
        calls = dict.fromkeys(("CircleParams", "_mirrored"), 0)
        for name in calls:
            monkeypatch.setattr(search_module, name, counted(calls, name, getattr(search_module, name)))
        _closing_params.cache_clear()
        mirrors = []
        for top_k in (1, 2, 5, 1000):
            calls.update(dict.fromkeys(calls, 0))
            hits = search(24, 10**6, top_k)
            mirrors.append(sum(h.params[0] > h.params[1] for h in hits))
            assert calls == {"CircleParams": 2 * closing, "_mirrored": mirrors[-1]}, top_k
        assert mirrors[-1] == closing > mirrors[1]
        assert _closing_params.cache_info()[:2] == (3, 1)  # hits, misses

    @pytest.mark.parametrize("max_den", [10, 600, 10**6])
    def test_hits_come_in_mirror_pairs(self, max_den):
        # (p2, p1) is the x <-> y mirror of (p1, p2), the same cycle reversed:
        # v1, v0, v4, v3, v2 with x and y swapped.  Up to max_den 10^6 the
        # snapped states mirror too; above that they follow the aim's last
        # float bits, so larger bounds are left out.
        def mirror(v):
            return Vec3Q(v.y, v.x, v.z)

        hits = {h.params: h for h in search(24, max_den, 1000)}
        assert hits
        for (p1, p2), hit in hits.items():
            partner = hits[(p2, p1)]
            assert partner.value == hit.value
            assert partner.scenario.state.v == mirror(hit.scenario.state.v)
            vs = [u.v for u in hit.scenario.vectors]
            assert [u.v for u in partner.scenario.vectors] == [
                mirror(vs[i]) for i in (1, 0, 4, 3, 2)
            ]

    def test_empty_result_is_legal(self):
        assert search(max_mn=2, max_den=50, top_k=3) == []

    @pytest.mark.parametrize("args", [(0, 600, 5), (14, 0, 5), (14, 600, 0)])
    def test_rejects_bad_bounds(self, args):
        with pytest.raises(ValueError):
            search(*args)

    def test_rejects_max_mn_over_limit(self):
        # refused before the scan of the O(max_mn^4) unordered pairs starts
        with pytest.raises(ValueError, match="max_mn"):
            search(MAX_MN + 1, 10, 1)

    @pytest.mark.parametrize(
        "args",
        [(24, 10**6, True), (True, 10**6, 5), (14, True, 5), (True, 0, 0), (0, 0, False),
         (14.0, 600, 5), (14, 600.0, 5), (14, 600, 5.0), (Fraction(14), 600, 5)],
    )
    def test_rejects_a_bound_that_is_not_an_int(self, args):
        # a bool is an int to isinstance, as for CircleParams, and a bool,
        # float or Fraction hashes as the int it equals.  Each is refused
        # before the bounds check and before the table of closing pairs is
        # read, even where the table already holds the equal int's entry.
        search(1, 600, 1)
        search(14, 600, 1)
        table = _closing_params.cache_info()
        with pytest.raises(TypeError, match="search bounds must be integers"):
            search(*args)
        assert _closing_params.cache_info() == table

    @pytest.mark.parametrize("max_den", [10, 600, 10**6])
    @pytest.mark.parametrize("max_mn", [14, 24, 30])
    def test_hits_do_not_depend_on_the_table_state(self, max_mn, max_den):
        # the table keeps the scan's closing pairs only, so a request gives
        # the same hits (params, exact states, values, order) with the
        # table cold, warm, after a larger request and after a smaller one
        _closing_params.cache_clear()
        cold = search(max_mn, max_den, 1000)
        assert cold
        assert search(max_mn, max_den, 1000) == cold
        search(2 * max_mn, max_den, 1)
        assert search(max_mn, max_den, 1000) == cold
        search(max_mn // 2, max_den, 1)
        assert search(max_mn, max_den, 1000) == cold
        assert _closing_params.cache_info()[:2] == (3, 3)  # hits, misses


# search(max_mn, max_den, top_k) for each recorded max_den, recorded once from
# the program before its snap and pentagon assembly moved to integers: every
# hit's params, exact state, directions and value as text, in order
SEARCH_GOLDEN = json.loads((Path(__file__).parent / "data" / "search_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("request_", SEARCH_GOLDEN["requests"], ids=lambda r: f"max_den={r['max_den']}")
def test_search_matches_golden(request_):
    def text(v):
        return [format_rational(c) for c in v.as_tuple()]

    hits = search(SEARCH_GOLDEN["max_mn"], request_["max_den"], SEARCH_GOLDEN["top_k"])
    assert [
        {
            "params": [[p.m, p.n] for p in h.params],
            "state": text(h.scenario.state.v),
            "vectors": [text(u.v) for u in h.scenario.vectors],
            "value": format_rational(h.value),
        }
        for h in hits
    ] == request_["hits"]


CLI_GOLDEN_CONFIGS = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)["configs"]


class TestQuantumBound:
    """No exact value goes below Lovász's bound n (1 - 3 cos(pi/n)) /
    (1 + cos(pi/n)) of its odd cycle (``tests.oracles.respects_quantum_bound``):
    exact on integers for n = 5, one-sided from a series bound on cos(pi/n)
    for the other n."""

    def test_cos_upper_bounds_cos_pi_over_n_tightly(self):
        # cos(pi/3) = 1/2 and cos(pi/5) = (1 + sqrt(5)) / 4, compared exactly
        c3, c5 = cos_upper(PI_BELOW / 3), cos_upper(PI_BELOW / 5)
        assert 0 < c3 - Fraction(1, 2) < Fraction(1, 10**15)
        assert 4 * c5 - 1 > 0 and 0 < (4 * c5 - 1) ** 2 - 5 < Fraction(1, 10**14)
        # the float cos is only near cos(pi/n), so the other n check closeness
        for n in range(3, 24, 2):
            assert abs(cos_upper(PI_BELOW / n) - Fraction(math.cos(math.pi / n))) < 1e-14

    def test_oracle_rejects_values_below_the_bound(self):
        # 5 - 4 sqrt(5) = -3.9442719099...; the triangle's bound is -1 exactly
        assert respects_quantum_bound(Fraction(-3944271, 10**6), 5)
        assert not respects_quantum_bound(Fraction(-3944272, 10**6), 5)
        assert respects_quantum_bound(Fraction(-1), 3)
        assert not respects_quantum_bound(Fraction(-1) - Fraction(1, 10**12), 3)
        for n in range(7, 24, 2):
            c = math.cos(math.pi / n)
            bound = Fraction(n * (1 - 3 * c) / (1 + c))
            assert respects_quantum_bound(bound + Fraction(1, 10**9), n)
            assert not respects_quantum_bound(bound - Fraction(1, 10**9), n)

    @pytest.mark.parametrize("max_den", [10, 600, 10**6])
    def test_search_hits_respect_the_bound(self, max_den):
        hits = search(MAX_MN, max_den, 10**6)
        assert len(hits) == 114
        assert all(respects_quantum_bound(h.value, h.scenario.n) for h in hits)

    def test_golden_values_respect_the_bound(self):
        checked = []
        for name, config in CLI_GOLDEN_CONFIGS.items():
            try:
                scenario = validate_cycle(
                    Vec3Q(*map(parse_rational, config["state"])),
                    [Vec3Q(*map(parse_rational, v)) for v in config["vectors"]],
                )
            except (CycleValidationError, ValueError):
                continue  # a config that breaks an invariant has no value
            assert respects_quantum_bound(kcbs_value(scenario), scenario.n), name
            checked.append((name, scenario.n))
        assert checked == [("reference", 5), ("valid-7-cycle", 7)]
        for request_ in SEARCH_GOLDEN["requests"]:
            assert all(respects_quantum_bound(parse_rational(h["value"]), 5) for h in request_["hits"])

    def test_odd_cycles_at_their_aimed_states_respect_the_bound(self):
        for vectors in ODD_CYCLES + list(SPECIAL_CYCLES.values()):
            aim, _lam = optimal_state_numeric(vectors)
            states = [rationalize_state(aim, d).v for d in (10, 10**3, 10**6)] + [E_X, E_Y, E_Z]
            for state in states:
                scenario = validate_cycle(state, [u.v for u in vectors])
                assert respects_quantum_bound(kcbs_value(scenario), scenario.n)


def closable_pairs(max_mn):
    """Every pair of primitive_params(max_mn) that build_pentagon closes."""
    params = primitive_params(max_mn)
    return [
        (p1, p2, pentagon)
        for p1 in params
        for p2 in params
        if (pentagon := build_pentagon(p1, p2)) is not None
    ]


def counted(calls, name, fn):
    """fn, adding one to calls[name] per call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def closing_cross(t1, t2):
    """What _closing_pairs yields for the two triples: (x, y, z), root, or
    None."""
    found = list(_closing_pairs((t1, t2)))
    assert len(found) <= 1 and all(f[:2] == (0, 1) for f in found)
    return found[0][2:] if found else None


class TestClosurePrefilter:
    def test_integer_test_agrees_with_build_pentagon(self):
        params = primitive_params(14)  # 12 holds no closing pair
        closing = 0
        for p1 in params:
            for p2 in params:
                closes = closing_cross(circle_triple(p1), circle_triple(p2)) is not None
                closing += closes
                assert closes == (build_pentagon(p1, p2) is not None), (p1, p2)
        assert 0 < closing < len(params) ** 2

    def test_closure_is_symmetric(self):
        # (a1 b2)^2 + (b1 a2)^2 + (b1 b2)^2 is symmetric in the two triples,
        # which is why the scan tests each unordered pair once
        triples = [circle_triple(p) for p in primitive_params(40)]
        closing = 0
        for t1, t2 in itertools.product(triples, repeat=2):
            forward, backward = closing_cross(t1, t2), closing_cross(t2, t1)
            assert (forward is None) == (backward is None), (t1, t2)
            if forward is not None:
                closing += 1
                (x, y, z), root = forward
                assert backward == ((y, x, z), root)
        assert closing == 38  # ordered pairs, as perfbench/checker.py counts them

    def test_diagonal_never_closes(self):
        # closure of (p, p) needs 2(m^4 + n^4) to be a square, and
        # x^4 + y^4 = 2z^2 has only trivial solutions; the plain scan checks
        # that fact, and _closing_pairs never tests such a pair, since a
        # triple shares its own class (v2(b), v3(b))
        for p in primitive_params(MAX_MN):
            t = circle_triple(p)
            assert list(_closing_pairs((t, t))) == closing_pairs_scan((t, t)) == [], p

    def test_closing_pairs_match_fraction_cross(self):
        # oracle: the i < j pairs whose exact cross(v2, v4) has a rational
        # length, with v2 and v4 built from the triples as Fractions
        params = primitive_params(30)
        triples = [circle_triple(p) for p in params]
        expected = []
        for i, j in itertools.combinations(range(len(params)), 2):  # lexicographic
            (a1, b1, h1), (a2, b2, h2) = triples[i], triples[j]
            w = cross(Vec3Q(Fraction(b1, h1), 0, Fraction(-a1, h1)), Vec3Q(0, Fraction(b2, h2), Fraction(-a2, h2)))
            length_sq = norm_sq(w)
            num, den = math.isqrt(length_sq.numerator), math.isqrt(length_sq.denominator)
            if Fraction(num, den) ** 2 == length_sq:
                expected.append((i, j, Vec3Q(*(c * Fraction(den, num) for c in w.as_tuple()))))
        found = list(_closing_pairs(triples))
        assert [(i, j) for i, j, _, _ in found] == [(i, j) for i, j, _ in expected]
        # an adjacent pair closes, so the scan may skip no neighbour
        adjacent = (params.index(CircleParams(29, 22)), params.index(CircleParams(29, 24)))
        assert adjacent[1] == adjacent[0] + 1 and adjacent in [(i, j) for i, j, _ in expected]
        for (i, j, (x, y, z), root), (_, _, unit) in zip(found, expected):
            v3 = Vec3Q(Fraction(x, root), Fraction(y, root), Fraction(z, root))
            assert v3 == unit == build_pentagon(params[i], params[j])[3].v, (i, j)
        t = triples[0]
        assert [list(_closing_pairs(ts)) for ts in ([], [t], [t, t])] == [[], [], []]

    @pytest.mark.parametrize(
        "max_mn, closing", [(1, 0), (2, 0), (3, 0), (6, 0), (12, 0), (24, 7), (50, 24), (MAX_MN, 57)]
    )
    def test_closing_pairs_match_plain_scan(self, max_mn, closing):
        # The independent oracle of the class rule: closable_pairs and
        # test_search_matches_brute_force reach closure through
        # build_pentagon, which decides it with _closing_pairs and so skips
        # the same pairs.  This scan tests every pair of distinct triples.
        triples = [circle_triple(p) for p in primitive_params(max_mn)]
        expected = closing_pairs_scan(triples)
        assert len(expected) == closing
        assert list(_closing_pairs(triples)) == expected

    def test_closing_params_match_plain_scan(self):
        # the table search reads holds the (m, n) pairs of the plain scan, in
        # its order, whether each entry is computed (cold) or served (warm)
        expected = {}
        for max_mn in range(1, 41):
            params = primitive_params(max_mn)
            found = closing_pairs_scan([circle_triple(p) for p in params])
            expected[max_mn] = tuple(((params[i].m, params[i].n), (params[j].m, params[j].n)) for i, j, _, _ in found)
        _closing_params.cache_clear()
        for table in ("cold", "warm"):
            for max_mn, pairs in expected.items():
                assert _closing_params(max_mn) == pairs, (table, max_mn)
        assert _closing_params.cache_info()[:2] == (40, 40)  # hits, misses
        # 19 unordered pairs: the 38 ordered ones of test_closure_is_symmetric
        assert type(_closing_params(40)) is tuple and len(_closing_params(40)) == 19

    def test_table_is_kept_per_max_mn(self):
        # max_mn 13 holds no closing pair and 24 holds seven: a table that
        # served one request's pairs to another fails one of these
        assert len(search(24, 10**6, 1000)) == 14
        assert search(13, 10**6, 1000) == []
        assert len(search(24, 10**6, 1000)) == 14

    def test_search_builds_only_closable_pairs(self, monkeypatch):
        # each unordered closing pair is built, aimed and evaluated once;
        # its mirror hit is derived, not built.  The same holds with the
        # table of closing pairs cold and warm.
        ordered = len(closable_pairs(24))
        names = ("build_pentagon", "optimal_state_numeric", "kcbs_value")
        calls = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(search_module, name, counted(calls, name, getattr(search_module, name)))
        assert ordered % 2 == 0 and 0 < ordered < len(primitive_params(24)) ** 2
        _closing_params.cache_clear()
        for table in ("cold", "warm"):
            calls.update(dict.fromkeys(calls, 0))
            hits = search(max_mn=24, max_den=600, top_k=1000)
            assert calls == dict.fromkeys(names, ordered // 2), table
            assert len(hits) == ordered

    def test_search_checks_each_closed_pentagon_once(self, monkeypatch):
        contextuality = importlib.import_module("rational_kcbs.contextuality")
        calls = {"norm": 0, "check_cycle_vectors": 0, "validate_cycle": 0}
        int_dot = contextuality._int_dot

        def dot_or_norm(u, w):
            calls["norm"] += u is w  # a unit check dots a vector's ints with themselves
            return int_dot(u, w)

        for name in ("check_cycle_vectors", "validate_cycle"):
            wrapper = counted(calls, name, getattr(contextuality, name))
            for module in (contextuality, search_module):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(contextuality, "_int_dot", dot_or_norm)
        closed = []
        build = search_module.build_pentagon

        def recording(*args, **kwargs):
            closed.append(build(*args, **kwargs))
            return closed[-1]

        monkeypatch.setattr(search_module, "build_pentagon", recording)
        # per unordered closing pair: its five directions and the lifted
        # state are each checked for unit norm once, and so are the mirror's;
        # the aim, the scenario and the mirror's scenario each check the
        # cycle's adjacency once.  Every closing pair violates here, so each
        # build gives two hits.  A warm table of closing pairs skips none of
        # these checks.
        _closing_params.cache_clear()
        for table in ("cold", "warm"):
            closed.clear()
            calls.update(dict.fromkeys(calls, 0))
            hits = search(24, 10**6, 1000)
            assert closed and None not in closed, table
            assert len(hits) == 2 * len(closed)
            assert calls["norm"] == 6 * len(hits)
            assert calls["check_cycle_vectors"] == 3 * len(closed)
            assert calls["validate_cycle"] == 0

    def test_search_matches_brute_force(self):
        # The search pipeline run on every ordered closable pair found by
        # build_pentagon alone, each aimed and snapped on its own: every
        # mirror-derived hit must equal the one its own pair gives.
        # build_pentagon decides closure with _closing_pairs too, so the
        # class rule's independent oracle is
        # test_closing_pairs_match_plain_scan.  max_mn 24 is the benchmark's
        # largest request; 50 and 2712 are log-uniform draws from [10, 10^6].
        aimed = [
            (p1, p2, pentagon, optimal_state_numeric(pentagon)[0])
            for p1, p2, pentagon in closable_pairs(24)
        ]
        for max_den in (10, 50, 600, 2712, 10**6):
            expected = []
            for p1, p2, pentagon, vec in aimed:
                state = rationalize_state(vec, max_den)
                scenario = validate_cycle(state.v, [u.v for u in pentagon])
                value = kcbs_value(scenario)
                if is_violation(value, scenario.n):
                    expected.append((value, (p1, p2), scenario))
            expected.sort(key=lambda e: (e[0], e[1][0].m, e[1][0].n, e[1][1].m, e[1][1].n))
            hits = search(max_mn=24, max_den=max_den, top_k=1000)
            assert 0 < len(expected) < 1000
            assert [(h.value, h.params, h.scenario) for h in hits] == expected, max_den


def test_search_hit_value_semantics(default_hits):
    hit, other = default_hits[:2]
    fields = (hit.scenario, hit.value, hit.params, hit.state_denominator_bound)
    same = SearchHit(
        scenario=hit.scenario, value=hit.value, params=hit.params, state_denominator_bound=600
    )
    assert SearchHit.__match_args__ == ("scenario", "value", "params", "state_denominator_bound")
    assert hit == same and hash(hit) == hash(same) == hash(fields)
    assert hit != other and hit != fields
    assert repr(hit) == (
        f"SearchHit(scenario={hit.scenario!r}, value={hit.value!r}, "
        f"params={hit.params!r}, state_denominator_bound=600)"
    )
    assert repr(hit.params) == "(CircleParams(m=8, n=3), CircleParams(m=14, n=5))"
    assert_frozen_value(hit, ("scenario", "value", "params", "state_denominator_bound", "other"))


def test_search_hit_stores_its_params_as_a_tuple(default_hits):
    hit = default_hits[0]
    twin = SearchHit(hit.scenario, hit.value, list(hit.params), hit.state_denominator_bound)
    assert type(twin.params) is tuple and twin == hit and hash(twin) == hash(hit)


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
