"""Self-tests of the benchmark's checker and input generators.

They assert properties (Pythagorean identities, exact unit lifts,
orthonormal frames, the projection identity, one broken invariant per
broken config), never recorded program output, and import nothing from
``rational_kcbs``.  Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the repository's own test collection.
"""

from __future__ import annotations

import functools
import random
import sys
import tempfile
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checker import cross, dot, first_invalid  # noqa: E402

F = Fraction
REFERENCE_STATE = (F(354, 527), F(357, 527), F(-158, 527))
REFERENCE_VECTORS = [
    (F(1), F(0), F(0)),
    (F(0), F(1), F(0)),
    (F(48, 73), F(0), F(-55, 73)),
    (F(1925, 3277), F(2052, 3277), F(1680, 3277)),
    (F(0), F(140, 221), F(-171, 221)),
]


def all_invalid(state, vectors) -> set[str]:
    """Every invariant the configuration violates (not just the first)."""
    n = len(vectors)
    bad = set()
    if n < 3 or n % 2 == 0:
        bad.add("cycle-length")
    if dot(state, state) != 1:
        bad.add("state-not-unit")
    if any(dot(v, v) != 1 for v in vectors):
        bad.add("vector-not-unit")
    if any(dot(vectors[i], vectors[(i + 1) % n]) != 0 for i in range(n)):
        bad.add("adjacent-not-orthogonal")
    return bad


def product_route(state, vectors) -> Fraction:
    """sum_i psi^T A_i A_{i+1} psi with A = 2 v v^T - 1, by full 3x3 products."""
    def obs(v):
        return [[2 * v[i] * v[j] - (i == j) for j in range(3)] for i in range(3)]

    n = len(vectors)
    total = F(0)
    for k in range(n):
        a, b = obs(vectors[k]), obs(vectors[(k + 1) % n])
        ab = [[sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)] for i in range(3)]
        total += sum(state[i] * ab[i][j] * state[j] for i in range(3) for j in range(3))
    return total


def test_pythagorean_triples():
    for m, n in checker.primitive_params(20):
        a, b, h = checker.triple(m, n)
        assert a * a + b * b == h * h and a > 0 and b > 0


def test_quaternion_frames_are_right_handed_orthonormal():
    rng = random.Random(1)
    for _ in range(50):
        r0, r1, r2 = workloads.random_rotation(rng, 5)
        assert dot(r0, r0) == dot(r1, r1) == dot(r2, r2) == 1
        assert dot(r0, r1) == dot(r1, r2) == dot(r0, r2) == 0
        assert cross(r0, r1) == r2


def test_rational_states_are_exactly_unit_within_the_denominator_bound():
    rng = random.Random(2)
    for max_den in (1, 10, 10**3, 10**9):
        for _ in range(20):
            v = workloads.rational_state_near(workloads.random_unit_float(rng), max_den)
            assert dot(v, v) == 1
            plane = (v[0] / (1 + v[2]), v[1] / (1 + v[2]))
            assert max(c.denominator for c in plane) <= max_den


def test_pentagon_construction_regenerates_the_reference_pentagon():
    assert checker.is_square(checker.closing_square((8, 3), (14, 5)))
    assert workloads.pentagon((8, 3), (14, 5)) == REFERENCE_VECTORS


def test_closable_pairs_give_valid_pentagons_and_others_do_not_close():
    pairs = set(workloads.closable_pairs(16))
    assert len(pairs) == checker.closable_count(16) > 0
    for p1, p2 in pairs:
        for s1 in (-1, 1):
            assert first_invalid(REFERENCE_STATE, workloads.pentagon(p1, p2, s1, -s1)) is None
    params = checker.primitive_params(16)
    for p1 in params[:10]:
        for p2 in params[:10]:
            if (p1, p2) not in pairs:
                # the closing cross product has an irrational length
                a1, b1, h1 = checker.triple(*p1)
                a2, b2, h2 = checker.triple(*p2)
                c = cross((F(b1, h1), 0, F(-a1, h1)), (0, F(b2, h2), F(-a2, h2)))
                length_sq = dot(c, c)
                assert not (checker.is_square(length_sq.numerator)
                            and checker.is_square(length_sq.denominator))


def test_generated_odd_cycles_are_valid():
    rng = random.Random(3)
    for n in range(3, 25, 2):
        for _ in range(3):
            vectors = workloads.odd_cycle(rng, n)
            assert len(vectors) == n
            assert first_invalid(REFERENCE_STATE, vectors) is None


def test_projection_identity_matches_full_products():
    rng = random.Random(4)
    cycles = [REFERENCE_VECTORS] + [workloads.odd_cycle(rng, n) for n in (3, 7, 11)]
    for vectors in cycles:
        state = workloads.rational_state_near(workloads.random_unit_float(rng), 1000)
        value, corrs = checker.cycle_value(state, vectors)
        assert value == product_route(state, vectors) == sum(corrs)
        assert all(-1 <= c <= 1 for c in corrs)


def test_reference_value_is_a_violation_within_the_quantum_bound():
    value, _ = checker.cycle_value(REFERENCE_STATE, REFERENCE_VECTORS)
    assert value == F(-3637267023675289031, 923014205472656089)
    assert value < -3 and (5 - value) ** 2 <= 80


def test_broken_configs_violate_exactly_the_named_invariant():
    rng = random.Random(5)
    pairs = workloads.closable_pairs(workloads.PENTAGON_MAX_MN)
    for invariant in checker.INVARIANTS:
        for _ in range(10):
            vectors = workloads.random_pentagon(rng, pairs)
            state = workloads.rational_state_near(workloads.random_unit_float(rng), 10**6)
            state, vectors = workloads.break_config(rng, invariant, state, vectors)
            assert all_invalid(state, vectors) == {invariant}
            if invariant == "adjacent-not-orthogonal":
                n = len(vectors)
                assert sum(dot(vectors[i], vectors[(i + 1) % n]) != 0 for i in range(n)) == 1


def test_round_decimal_is_correctly_rounded():
    assert checker.round_decimal(F(5, 2), 0) == "3"
    assert checker.round_decimal(F(-5, 2), 0) == "-3"
    assert checker.round_decimal(F(-1, 3), 0) == "0"
    assert checker.round_decimal(F(1, 8), 2) == "0.13"
    rng = random.Random(6)
    for _ in range(200):
        r = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        digits = rng.randint(0, 20)
        rendered = F(checker.round_decimal(r, digits))
        assert abs(rendered - r) <= F(1, 2 * 10**digits)


def honest_report(state, vectors, digits):
    value, corrs = checker.cycle_value(state, vectors)
    n = len(vectors)
    return {
        "value": checker.fraction_text(value),
        "decimal": checker.round_decimal(value, digits),
        "classical_bound": -(n - 2),
        "violation": value < -(n - 2),
        "per_correlator": [checker.fraction_text(c) for c in corrs],
        "checks": {"projection_identity_matches": True},
    }


def test_check_report_accepts_exact_reports_and_rejects_each_wrong_field():
    state, vectors = REFERENCE_STATE, REFERENCE_VECTORS
    good = honest_report(state, vectors, 3)
    assert good["decimal"] == "-3.941"
    assert checker.check_report(0, good, state, vectors, 3) == []
    for field, wrong in [("value", "-4"), ("decimal", "-3.940"), ("classical_bound", -2),
                         ("violation", False), ("per_correlator", ["0"] * 5),
                         ("checks", {"projection_identity_matches": False})]:
        assert checker.check_report(0, {**good, field: wrong}, state, vectors, 3), field
    assert checker.check_report(1, good, state, vectors, 3)


def test_check_verify_names_the_first_invariant():
    assert checker.check_verify(0, {"valid": True, "n": 5}, REFERENCE_STATE, REFERENCE_VECTORS) == []
    broken = list(REFERENCE_VECTORS)
    broken[3] = tuple(2 * c for c in broken[3])
    good = {"valid": False, "invariant": "vector-not-unit", "message": "", "index": 3}
    assert checker.check_verify(1, good, REFERENCE_STATE, broken) == []
    assert checker.check_verify(1, {**good, "index": 2}, REFERENCE_STATE, broken)
    assert checker.check_verify(0, {"valid": True, "n": 5}, REFERENCE_STATE, broken)


def test_check_search_enforces_bounds_and_completeness():
    hit = (checker.cycle_value(REFERENCE_STATE, REFERENCE_VECTORS)[0], ((8, 3), (14, 5)),
           REFERENCE_STATE, REFERENCE_VECTORS)
    assert checker.check_search([hit], 14, 600, 5, 1) == []
    assert checker.check_search([hit], 14, 600, 1, 3) == []  # top_k cuts
    assert checker.check_search([hit], 14, 100, 5, 1)  # plane denominators are 123
    assert checker.check_search([hit], 13, 600, 5, 1)  # m = 14 exceeds max_mn
    assert checker.check_search([hit, hit], 14, 600, 1, 2)  # more hits than top_k
    assert checker.check_search([(F(-3), *hit[1:])], 14, 600, 5, 1)  # wrong value
    assert checker.check_search([], 14, 600, 5, 1)  # a hit is missing
    assert checker.check_search([hit], 14, 600, 5, 2)  # a hit is missing
    assert checker.check_search([hit, hit], 14, 600, 5, 2)  # duplicated hit


def test_violating_pairs_are_closable_pairs():
    for max_mn in (12, 16, 24):
        closable = checker.closable_count(max_mn)
        for max_den in (10, 10**3, 10**6):
            assert 0 <= workloads.violating_closable_count(max_mn, max_den) <= closable
    assert workloads.violating_closable_count(24, 10**6) > 0


def test_optimal_state_float_reaches_the_quantum_side():
    # Aimed states beat the classical bound -3 on the reference pentagon,
    # and the float aim is a unit eigenvector.
    aim = workloads.optimal_state_float(REFERENCE_VECTORS)
    assert abs(sum(c * c for c in aim) - 1) < 1e-12
    value, _ = checker.cycle_value(workloads.rational_state_near(aim, 10**6), REFERENCE_VECTORS)
    assert value < -3 and (5 - value) ** 2 <= 80


def test_tracer_wraps_cached_functions_and_counts_only_misses():
    package = tracing.PACKAGE
    hv = types.ModuleType(f"{package}.hv_models")
    cli = types.ModuleType(f"{package}.cli")

    def classical_min_cycle(n):
        return -(n - 2), None

    def main(n):
        return cli.classical_min_cycle(n)[0]

    classical_min_cycle.__module__ = hv.__name__
    main.__module__ = cli.__name__
    cached = functools.lru_cache(maxsize=None)(classical_min_cycle)
    hv.classical_min_cycle = cli.classical_min_cycle = cached
    cli.main = main
    root = types.ModuleType(package)
    root.classical_min_cycle = cached
    saved = sys.modules.get(package)
    sys.modules[package] = root
    try:
        tracer = tracing.Tracer({"hv_models": hv, "cli": cli})
        tracer.install()
        assert [cli.main(n) for n in (5, 5, 7)] == [-3, -3, -5]
        tracer.uninstall()
    finally:
        if saved is None:
            del sys.modules[package]
        else:
            sys.modules[package] = saved
    assert cli.classical_min_cycle is cached and hv.classical_min_cycle is cached
    assert tracer.calls["hv_models.classical_min_cycle"] == 3
    assert tracer.calls["cli.main"] == 3
    assert tracer.cycle_lengths == [5, 5, 7]
    assert tracer.assignments_enumerated == 2**5 + 2**7


def test_rounds_are_deterministic_with_a_fixed_make_up():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, make_round in workloads.ROUNDS.items():
            make_ups = set()
            for seed, round_no in [(1, 0), (1, 1), (2, 0)]:
                ops = make_round(seed, round_no, work)
                again = make_round(seed, round_no, work)
                assert [(o.state, o.vectors, o.search_args) for o in ops] == \
                       [(o.state, o.vectors, o.search_args) for o in again]
                make_ups.add(frozenset(Counter(
                    (o.kind, o.search_args[0] if o.search_args else len(o.vectors),
                     o.label if o.kind == "verify" else "") for o in ops).items()))
            assert len(make_ups) == 1, name


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
