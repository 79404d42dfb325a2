"""End-to-end acceptance checks.

Each test certifies one numbered claim about the package as a whole and
records a single PASS/FAIL line (echoed in the terminal summary).  Tolerances
and time limits are stated inline; everything not explicitly numeric is an
exact rational comparison.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from rational_kcbs.contextuality import (
    REFERENCE_STATE,
    REFERENCE_VECTORS,
    correlator,
    kcbs_value,
    kcbs_value_via_projections,
    reference_scenario,
    validate_cycle,
)
from rational_kcbs.hv_models import classical_min_cycle, is_violation
from rational_kcbs.linalg3 import E_X, E_Y, E_Z, Vec3Q, cross, dot, norm_sq
from rational_kcbs.rationals import to_decimal
from rational_kcbs.search import (
    CircleParams,
    best_rational_approx,
    build_pentagon,
    optimal_state_numeric,
    primitive_params,
    search,
    stereo_lift,
)
from tests.conftest import ACCEPTANCE_LINES, REF_STATE_RAW, REF_VECTORS_RAW, rand_fraction
from tests.oracles import z_flipped_pentagon


def _record(number: int, description: str, passed: bool) -> None:
    line = f"{'PASS' if passed else 'FAIL'}  criterion {number}: {description}"
    ACCEPTANCE_LINES.append((number, line))
    print(line)


def _best_time(fn, repeats: int = 5) -> float:
    fn()  # warm up caches and imports before timing
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _closing_pentagons(max_mn: int = 14):
    params = primitive_params(max_mn)
    out = []
    for p1 in params:
        for p2 in params:
            pentagon = build_pentagon(p1, p2)
            if pentagon is not None:
                out.append((p1, p2, pentagon))
    return out


def test_criterion_1_fixture_validity():
    ok = False
    try:
        # integer certificates behind the exact norms
        assert 354**2 + 357**2 + 158**2 == 527**2
        assert 48**2 + 55**2 == 73**2
        assert 140**2 + 171**2 == 221**2
        assert 1925**2 + 2052**2 + 1680**2 == 3277**2
        assert norm_sq(REFERENCE_STATE) == 1
        for v in REFERENCE_VECTORS:
            assert norm_sq(v) == 1
        for i in range(5):
            assert dot(REFERENCE_VECTORS[i], REFERENCE_VECTORS[(i + 1) % 5]) == 0
        elapsed = _best_time(lambda: validate_cycle(REFERENCE_STATE, REFERENCE_VECTORS))
        assert elapsed < 1e-3, f"validation took {elapsed * 1e3:.3f} ms"
        ok = True
    finally:
        _record(1, "reference configuration exactly valid, < 1 ms", ok)


def test_criterion_2_headline_value():
    ok = False
    try:
        s = reference_scenario()
        r = kcbs_value(s)
        assert isinstance(r, Fraction)
        assert Fraction(-39408, 10000) < r < Fraction(-39406, 10000)
        assert to_decimal(r, 3) == "-3.941"
        # a fresh scenario per call: validation, observables and A_i psi
        # products are timed, not served from the scenario's caches
        elapsed = _best_time(lambda: kcbs_value(reference_scenario()))
        assert elapsed < 1e-3, f"evaluation took {elapsed * 1e3:.3f} ms"
        ok = True
    finally:
        _record(2, 'exact value in (-3.9408, -3.9406), prints "-3.941", < 1 ms', ok)


def test_criterion_3_classical_bound():
    ok = False
    try:
        start = time.perf_counter()
        value, witness = classical_min_cycle(5)
        assert value == -3
        assert witness.outcomes == (-1, -1, 1, -1, 1)
        for n in (3, 7, 9):
            bound, _ = classical_min_cycle(n)
            assert bound == -(n - 2)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"enumeration took {elapsed:.3f} s"
        ok = True
    finally:
        _record(3, "enumerated classical minima: -3 for n=5, -(n-2) for n in {3,7,9}, < 1 s", ok)


def test_criterion_4_quantum_maximum():
    ok = False
    try:
        # independent oracle: the equal-angle pentagon (irrational, so built
        # in floats) attains the global quantum minimum 5 - 4*sqrt(5) = -3.944...
        c = math.cos(math.pi / 5)
        cos_sq = c / (1 + c)
        ct, st = math.sqrt(cos_sq), math.sqrt(1 - cos_sq)
        dirs = [
            np.array(
                [st * math.cos(4 * math.pi * j / 5), st * math.sin(4 * math.pi * j / 5), ct]
            )
            for j in range(5)
        ]
        for j in range(5):
            assert abs(float(dirs[j] @ dirs[(j + 1) % 5])) < 1e-12
        mats = [2 * np.outer(d, d) - np.eye(3) for d in dirs]
        operator = sum(mats[j] @ mats[(j + 1) % 5] for j in range(5))
        lam_ideal = float(np.linalg.eigvalsh(operator)[0])
        assert abs(lam_ideal - (-3.944)) < 5e-4
        assert abs(lam_ideal - (5 - 4 * math.sqrt(5))) < 1e-9

        # the package's eigen route on the (rational) reference pentagon lands
        # in the window the ideal value bounds from below
        vectors = [u for u in reference_scenario().vectors]
        _vec, lam_ref = optimal_state_numeric(vectors)
        assert lam_ideal - 1e-9 <= lam_ref <= -3.9407

        # no searched pentagon's numeric minimum falls below either floor
        grid_lams = [
            optimal_state_numeric(pentagon)[1]
            for _p1, _p2, pentagon in _closing_pentagons(14)
        ]
        assert min(grid_lams) >= lam_ideal - 1e-9
        assert min(grid_lams) >= lam_ref - 1e-9
        ok = True
    finally:
        _record(4, "eigen oracle reproduces -3.944 within 5e-4; searched minima never below it", ok)


def test_criterion_5_reconstruction():
    ok = False
    try:
        pentagon = build_pentagon(CircleParams(8, 3), CircleParams(14, 5))
        assert pentagon is not None
        expected = [Vec3Q(*components) for components in REF_VECTORS_RAW]
        for built, want in zip(pentagon, expected):
            assert built.v.x == want.x
            assert built.v.y == want.y
            assert built.v.z == want.z
        ok = True
    finally:
        _record(5, "build_pentagon((8,3),(14,5)) reproduces the reference directions exactly", ok)


def test_criterion_6_search_rediscovery():
    ok = False
    try:
        r = kcbs_value(reference_scenario())
        start = time.perf_counter()
        hits = search(max_mn=14, max_den=600, top_k=5)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"search took {elapsed:.3f} s"
        assert hits
        top = hits[0]
        assert top.value <= r
        # independent re-derivation: fresh validation from raw components,
        # then both evaluation routes must agree with the reported value
        rebuilt = validate_cycle(top.scenario.state.v, [u.v for u in top.scenario.vectors])
        assert sum(correlator(rebuilt, i) for i in range(rebuilt.n)) == top.value
        assert kcbs_value_via_projections(rebuilt) == top.value
        assert is_violation(top.value, rebuilt.n)
        ok = True
    finally:
        _record(6, "search(14, 600, 5) rediscovers a value <= the reference value, < 10 s", ok)


def test_criterion_7_property_suites():
    ok = False
    try:
        rng = random.Random(20240229)

        # (a) stereographic lifts are exactly unit
        for _ in range(10**4):
            u = stereo_lift(rand_fraction(rng, 120, 60), rand_fraction(rng, 120, 60))
            assert norm_sq(u.v) == 1

        # (b) Lagrange identity |u x v|^2 = |u|^2 |v|^2 - (u.v)^2
        for _ in range(10**4):
            u = Vec3Q(rand_fraction(rng), rand_fraction(rng), rand_fraction(rng))
            v = Vec3Q(rand_fraction(rng), rand_fraction(rng), rand_fraction(rng))
            assert norm_sq(cross(u, v)) == norm_sq(u) * norm_sq(v) - dot(u, v) ** 2

        # (c) route agreement on scenarios built by the search generator
        pentagons = [pentagon for _p1, _p2, pentagon in _closing_pentagons(14)]
        assert pentagons
        for k in range(100):
            pentagon = pentagons[k % len(pentagons)]
            state = stereo_lift(rand_fraction(rng, 40, 25), rand_fraction(rng, 40, 25))
            s = validate_cycle(state.v, [u.v for u in pentagon])
            assert kcbs_value(s) == kcbs_value_via_projections(s)

        # (d) bounded-denominator approximation vs exhaustive scan
        def exhaustive(fx: Fraction, max_den: int) -> Fraction:
            best = None
            for q in range(1, max_den + 1):
                base = (fx.numerator * q) // fx.denominator
                for p in (base, base + 1):
                    f = Fraction(p, q)
                    key = (abs(fx - f), f.denominator, abs(f.numerator))
                    if best is None or key < best[0]:
                        best = (key, f)
            return best[1]

        for i in range(0, 1001):
            x = Fraction(i, 1000)
            for max_den in (1, 7, 50):
                assert best_rational_approx(x, max_den) == exhaustive(x, max_den)
        ok = True
    finally:
        _record(7, "property suites (unit lifts, Lagrange, route identity, approximation oracle)", ok)


def test_criterion_8_no_false_violation():
    ok = False
    try:
        degenerate = [E_X, E_Y, E_X, E_Y, E_Z]
        cycles = [degenerate]
        for _p1, _p2, pentagon in _closing_pentagons(14):
            for flips in ((False, False), (True, False), (False, True), (True, True)):
                cycles.append([u.v for u in z_flipped_pentagon(pentagon, *flips)])

        cases = []
        for vectors in cycles:
            states = list(vectors) + [E_X, E_Y, E_Z]
            cases.extend((state, vectors) for state in states)
        cases = cases[:100]
        assert len(cases) == 100

        on_the_bound = 0
        for state, vectors in cases:
            s = validate_cycle(state, vectors)
            value = kcbs_value(s)
            assert is_violation(value, s.n) == (value < -3)
            if value == -3:
                on_the_bound += 1
                assert not is_violation(value, s.n)
        assert on_the_bound >= 1  # the bound itself occurs and is never flagged
        ok = True
    finally:
        _record(8, "100 direction/axis-state scenarios: violation flag iff exactly below -3", ok)
