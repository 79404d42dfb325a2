import copy
import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rational_kcbs import contextuality, linalg3
from rational_kcbs.contextuality import (
    REFERENCE_STATE,
    REFERENCE_VECTORS,
    CycleScenario,
    CycleValidationError,
    UnitVectorQ,
    _int_mat_mul,
    correlator,
    kcbs_value,
    kcbs_value_via_projections,
    make_observable,
    reference_scenario,
    validate_cycle,
)
from rational_kcbs.linalg3 import (
    E_X,
    E_Y,
    E_Z,
    Vec3Q,
    dot,
    norm_sq,
)
from rational_kcbs.rationals import parse_rational
from rational_kcbs.search import stereo_lift
from tests.conftest import (
    REF_KCBS_VALUE,
    REF_STATE_RAW,
    REF_VECTORS_RAW,
    assert_frozen_value,
    odd_cycle,
    rand_fraction,
)
from tests.oracles import (
    cycle_operator,
    mat_from_rows,
    mat_reduced,
    mat_rows,
    observable_rows,
    outer_rows,
    quadratic_form,
    ref_vec,
    trace,
)

DEGENERATE_VECTORS = (E_X, E_Y, E_X, E_Y, E_Z)


def random_unit_vec(rng: random.Random) -> Vec3Q:
    # stereographic lift of a random rational point: exactly unit by construction
    return stereo_lift(rand_fraction(rng, 30, 20), rand_fraction(rng, 30, 20)).v


# ---------------------------------------------------------------- constructors


def test_packaged_reference_matches_literals():
    assert REFERENCE_STATE == Vec3Q(*REF_STATE_RAW)
    assert tuple(REFERENCE_VECTORS) == tuple(Vec3Q(*c) for c in REF_VECTORS_RAW)


def test_unit_vector_enforced():
    UnitVectorQ(Vec3Q(Fraction(3, 5), Fraction(4, 5), 0))
    with pytest.raises(ValueError):
        UnitVectorQ(Vec3Q(1, 1, 0))
    with pytest.raises(ValueError):
        UnitVectorQ(Vec3Q(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))


def test_unit_vector_error_formats_huge_norm():
    # |v|^2 has numerator and denominator above the interpreter's
    # 4300-digit int-to-str limit; the error must still be the unit type's own
    big = Fraction(10**4400 + 1, 10**4400)
    with pytest.raises(ValueError, match="^not a unit vector: ") as err:
        UnitVectorQ(Vec3Q(big, 0, 0))
    assert str(err.value).endswith("/1" + "0" * 8800)


def test_unit_vector_value_semantics():
    # the unit type adds no field of its own to the vector's, nor to its
    # comparison, hash or repr
    u = UnitVectorQ(Vec3Q(Fraction(3, 5), Fraction(4, 5), 0))
    same = UnitVectorQ(Vec3Q(Fraction(6, 10), Fraction(8, 10), Fraction(0, 7)))
    assert UnitVectorQ.__match_args__ == ("v",) and vars(u) == {"v": u.v}
    assert u == same and hash(u) == hash(same) == hash((u.v,))
    assert u != UnitVectorQ(Vec3Q(Fraction(4, 5), Fraction(3, 5), 0))
    assert repr(u) == "UnitVectorQ(v=Vec3Q(x=Fraction(3, 5), y=Fraction(4, 5), z=Fraction(0, 1)))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.v = E_X


def unit_int_vectors(rng: random.Random) -> list[tuple[tuple[int, int, int], int]]:
    """Unit vectors as three ints over a positive denominator: stereographic
    lifts of random plane points (whose ints share factors of their own),
    axes, Pythagorean vectors with zero components, each as is and with all
    four ints times a common factor."""
    base = [((1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, 1), 1), ((3, 0, -4), 5), ((0, 12, 5), 13),
            ((2, -2, 1), 3), ((1925, 2052, 1680), 3277)]
    for _ in range(200):
        a, c = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        b, e = rng.randint(1, 10**6), rng.randint(1, 10**6)
        be, ae, cb = b * e, a * e, c * b
        base.append(((2 * ae * be, 2 * cb * be, be * be - ae * ae - cb * cb), be * be + ae * ae + cb * cb))
    return [(tuple(k * c for c in num), k * den) for num, den in base for k in (1, 2, 6, rng.randint(2, 10**9))]


def test_private_unit_constructor_matches_public_one():
    # _unit(num, den) against UnitVectorQ of the same Fractions: equal, equal
    # hashes, and the same ints in lowest common denominator form
    cases = unit_int_vectors(random.Random(2718))
    assert any(den % 6 == 0 and all(c % 6 == 0 for c in num) for num, den in cases)
    assert any(0 in num for num, _ in cases)
    for num, den in cases:
        public = UnitVectorQ(Vec3Q(*(Fraction(c, den) for c in num)))
        private = contextuality._unit(num, den)
        assert private == public and hash(private) == hash(public), (num, den)
        assert (private.v._num, private.v._den) == (public.v._num, public.v._den), (num, den)
        assert type(private.v._num) is tuple


@pytest.mark.parametrize(
    "num, den",
    [((1, 1, 0), 1), ((0, 0, 0), 1), ((3, 4, 0), 6), ((6, 8, 0), 5), ((10**4400, 0, 0), 10**4400 - 1)],
    ids=["too-long", "zero", "too-short-shared-factor", "too-long-coprime", "over-4300-digits"],
)
def test_private_unit_constructor_rejects_like_public_one(num, den):
    with pytest.raises(ValueError) as public:
        UnitVectorQ(Vec3Q(*(Fraction(c, den) for c in num)))
    with pytest.raises(ValueError) as private:
        contextuality._unit(num, den)
    assert str(private.value) == str(public.value)


def test_observable_shape():
    a = make_observable(UnitVectorQ(E_X))
    assert a == mat_from_rows(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    b = make_observable(UnitVectorQ(Vec3Q(Fraction(3, 5), Fraction(4, 5), 0)))
    assert mat_rows(b)[0][1] == Fraction(24, 25)
    # 2*(48/73)^2 - 1 == -721/5329
    v2 = make_observable(UnitVectorQ(Vec3Q(*REF_VECTORS_RAW[2])))
    assert mat_rows(v2)[0][0] == Fraction(-721, 5329)


def test_observable_invariants():
    rng = random.Random(4242)
    directions = [Vec3Q(*c) for c in REF_VECTORS_RAW]
    directions += [random_unit_vec(rng) for _ in range(40)]
    for v in directions:
        m = make_observable(UnitVectorQ(v))
        assert mat_rows(m) == tuple(zip(*mat_rows(m)))
        assert trace(mat_rows(m)) == -1
        num, den = m
        d = den ** 2  # the product's denominator
        assert _int_mat_mul(num, num) == (d, 0, 0, 0, d, 0, 0, 0, d)


def test_projector_idempotent():
    # |v><v| for a unit v: the projector behind the projection route
    v = Vec3Q(*REF_VECTORS_RAW[3])
    p = mat_from_rows(outer_rows(v, v))
    num, den = p
    assert _int_mat_mul(num, num) == tuple(e * den for e in num)
    assert mat_reduced(_int_mat_mul(num, num), den * den) == p
    assert trace(mat_rows(p)) == 1


def _observable_in_lowest_terms(m, u: UnitVectorQ) -> bool:
    """m is the pair (nine ints, d^2) of 2 u u^T - I in lowest terms: an odd
    denominator, no factor shared by all ten ints, and equal to the reducing
    oracle's pair."""
    num, den = m
    return den % 2 == 1 and math.gcd(den, *num) == 1 and m == mat_from_rows(observable_rows(u.v))


def test_every_observable_is_in_lowest_terms():
    # make_observable runs no gcd pass: a unit in lowest terms has an odd d,
    # and an odd prime dividing d^2 and every entry would divide x, y and z
    rng = random.Random(7171)
    units = [stereo_lift(rand_fraction(rng, 10**60, 10**60), rand_fraction(rng, 10**60, 10**60))
             for _ in range(200)]
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
    for config in golden["configs"].values():
        for raw in config["vectors"]:
            v = Vec3Q(*(parse_rational(c) for c in raw))
            if norm_sq(v) == 1:
                units.append(UnitVectorQ(v))
    assert len(units) == 200 + 30
    assert max(u.v._den for u in units) > 10**100
    for u in units:
        m = make_observable(u)
        assert _observable_in_lowest_terms(m, u), u
        num, den = m
        for k in (2, 3):  # a scaled pair names the same matrix but fails
            assert not _observable_in_lowest_terms((tuple(k * e for e in num), k * den), u)


# ----------------------------------------------------------------- validation


def test_reference_scenario_is_valid():
    s = reference_scenario()
    assert s.n == 5
    assert s.state.v == Vec3Q(*REF_STATE_RAW)


def test_degenerate_cycle_is_valid():
    s = validate_cycle(E_Z, DEGENERATE_VECTORS)
    assert s.n == 5


@pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
def test_bad_cycle_length(n):
    with pytest.raises(CycleValidationError) as err:
        validate_cycle(E_X, (E_X, E_Y, E_Z, E_X, E_Y, E_Z)[:n])
    assert err.value.reason == "cycle-length"


def test_non_unit_state():
    with pytest.raises(CycleValidationError) as err:
        validate_cycle(Vec3Q(1, 1, 0), REFERENCE_VECTORS)
    assert err.value.reason == "state-not-unit"


def test_non_unit_vector_named_by_index():
    bad = list(REFERENCE_VECTORS)
    bad[2] = Vec3Q(Fraction(48, 73), 0, Fraction(55, 74))
    with pytest.raises(CycleValidationError) as err:
        validate_cycle(REFERENCE_STATE, bad)
    assert err.value.reason == "vector-not-unit"
    assert err.value.index == 2


def test_broken_adjacency_named_by_pair():
    # flipping v3's z sign breaks orthogonality with v2:
    # 48*1925 + (-55)*(-1680) == 184800 != 0
    bad = list(REFERENCE_VECTORS)
    bad[3] = Vec3Q(Fraction(1925, 3277), Fraction(2052, 3277), Fraction(-1680, 3277))
    with pytest.raises(CycleValidationError) as err:
        validate_cycle(REFERENCE_STATE, bad)
    assert err.value.reason == "adjacent-not-orthogonal"
    assert err.value.pair == (2, 3)
    assert str(err.value).endswith("dot = 184800/239221")
    assert dot(bad[2], bad[3]) == Fraction(184800, 239221)


def test_validation_errors_are_value_errors():
    with pytest.raises(ValueError):
        validate_cycle(E_X, (E_X, E_Y))


def count_calls(monkeypatch, *names):
    """Count calls of contextuality's module-level helpers by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(contextuality, name)

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(contextuality, name, wrapper)
    return calls


def test_validation_checks_each_invariant_once(monkeypatch):
    # every check is one integer dot product: a norm dots a vector's ints
    # with themselves, an adjacency dots two neighbours' ints
    dots = []
    fn = contextuality._int_dot

    def recording(u, w):
        dots.append((u, w))
        return fn(u, w)

    monkeypatch.setattr(contextuality, "_int_dot", recording)
    calls = count_calls(monkeypatch, "norm_sq")
    s = validate_cycle(REFERENCE_STATE, REFERENCE_VECTORS)
    units = (s.state,) + s.vectors
    norms = [u for u, w in dots if u is w]
    adjacencies = [(u, w) for u, w in dots if u is not w]
    assert len(dots) == 11
    assert norms == [x.v._num for x in units]
    assert adjacencies == [(s.vectors[i].v._num, s.vectors[(i + 1) % 5].v._num) for i in range(5)]
    assert calls == {"norm_sq": 0}  # the Fraction norm only words an error


def test_observables_build_each_matrix_once(monkeypatch):
    # one make_observable per direction, from the ints the unit type already
    # holds: no conversion to ints, no reduction, no intermediate value
    s = reference_scenario()
    calls = {"make_observable": 0, "_fill": 0, "_vec": 0, "_ints": 0}
    for name in calls:
        for module in (linalg3, contextuality):
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def wrapper(*args, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, wrapper)
    assert len(s.observables) == 5
    assert calls == {"make_observable": 5, "_fill": 0, "_vec": 0, "_ints": 0}


def test_direct_scenario_construction_checks_geometry():
    with pytest.raises(CycleValidationError):
        CycleScenario(
            state=UnitVectorQ(E_X),
            vectors=(UnitVectorQ(E_X), UnitVectorQ(E_Y), UnitVectorQ(E_X)),
        )


def test_scenario_stores_its_vectors_as_a_tuple():
    # a list of the reference's vectors gives a scenario equal to the
    # reference, with the same hash; a tuple is stored as it is
    ref = reference_scenario()
    s = CycleScenario(ref.state, list(ref.vectors))
    assert type(s.vectors) is tuple and s == ref and hash(s) == hash(ref)
    assert CycleScenario(ref.state, ref.vectors).vectors is ref.vectors


def test_scenario_value_semantics():
    # equality and hash over (state, vectors), the exact repr, keyword
    # construction, and copies that carry the cached observables along
    axes = tuple(UnitVectorQ(e) for e in (E_X, E_Y, E_Z))
    s = CycleScenario(axes[0], axes)
    same = CycleScenario(state=UnitVectorQ(Vec3Q(1, 0, 0)), vectors=tuple(axes))
    assert CycleScenario.__match_args__ == ("state", "vectors")
    assert s == same and hash(s) == hash(same) == hash((axes[0], axes))
    assert s != CycleScenario(axes[1], axes) and s != (axes[0], axes)
    unit = "UnitVectorQ(v=Vec3Q(x=Fraction({}, 1), y=Fraction({}, 1), z=Fraction({}, 1)))"
    x, y, z = unit.format(1, 0, 0), unit.format(0, 1, 0), unit.format(0, 0, 1)
    assert repr(s) == f"CycleScenario(state={x}, vectors=({x}, {y}, {z}))"
    ref = reference_scenario()
    assert_frozen_value(ref, ("state", "vectors", "n", "observables", "other"))
    assert "observables" not in vars(ref)
    assert ref.observables and kcbs_value(ref) == REF_KCBS_VALUE
    for twin in (copy.copy(ref), copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
        assert vars(twin).keys() == vars(ref).keys() >= {"state", "vectors", "observables", "_images"}
        assert twin == ref and twin.observables == ref.observables
        assert kcbs_value(twin) == REF_KCBS_VALUE


# ---------------------------------------------------------------- correlators


def test_correlator_first_pair():
    s = reference_scenario()
    c0 = correlator(s, 0)
    assert c0 == Fraction(-227801, 277729)
    # orthogonal-pair identity, written out by hand for the axis pair
    x, y = REF_STATE_RAW[0], REF_STATE_RAW[1]
    assert c0 == 1 - 2 * x * x - 2 * y * y


def test_correlator_index_errors():
    s = reference_scenario()
    with pytest.raises(IndexError):
        correlator(s, 5)
    with pytest.raises(IndexError):
        correlator(s, -1)


# True == 1, so only its type tells it apart from the index 1
@pytest.mark.parametrize("i", [True, False, 1.0, "1", None])
def test_correlator_refuses_non_int_index(i):
    with pytest.raises(TypeError, match="^correlator index must be an int, got "):
        correlator(reference_scenario(), i)


def test_correlator_trivial_cases():
    s = validate_cycle(E_X, DEGENERATE_VECTORS)
    assert correlator(s, 0) == -1  # state on the first direction
    t = validate_cycle(E_Z, DEGENERATE_VECTORS)
    assert correlator(t, 0) == 1  # state orthogonal to both


def test_correlators_bounded():
    rng = random.Random(808)
    scenarios = [reference_scenario()]
    for _ in range(20):
        scenarios.append(validate_cycle(random_unit_vec(rng), REFERENCE_VECTORS))
    for s in scenarios:
        for i in range(s.n):
            assert -1 <= correlator(s, i) <= 1


def rational_rotation(rng: random.Random, digits: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact rotation from an integer quaternion: entries over a
    denominator of about 2 * digits digits."""
    a, b, c, d = (rng.randint(-10**digits, 10**digits) for _ in range(4))
    q = a * a + b * b + c * c + d * d
    rows = (
        (a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)),
        (2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)),
        (2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d),
    )
    return tuple(tuple(Fraction(e, q) for e in row) for row in rows)


def rotated(rows, v: Vec3Q) -> Vec3Q:
    return Vec3Q(*ref_vec(rows, v.as_tuple()))


def rotated_scenarios() -> list[CycleScenario]:
    """48 seeded cycles rotated to components of about 60 digits, with states
    lifted from 15-digit plane points."""
    rng = random.Random(6060)
    shapes = [REFERENCE_VECTORS, DEGENERATE_VECTORS, (E_X, E_Y, E_Z), (E_X, E_Y) * 3 + (E_Z,)]
    scenarios = []
    for _ in range(12):
        for shape in shapes:
            rows = rational_rotation(rng, 30)
            state = stereo_lift(rand_fraction(rng, 10**15, 10**15), rand_fraction(rng, 10**15, 10**15)).v
            scenarios.append(validate_cycle(state, [rotated(rows, v) for v in shape]))
    return scenarios


def test_observables_match_fraction_rows_oracle():
    for s in rotated_scenarios():
        for u, a in zip(s.vectors, s.observables):
            assert mat_rows(a) == observable_rows(u.v)
            assert a == mat_from_rows(observable_rows(u.v))


def test_correlators_match_fraction_rows_oracle():
    # every correlator of the rotated cycles against plain Fraction rows and
    # against (A_i psi) . (A_j psi) for the program's own observables
    for s in rotated_scenarios():
        state = s.state.v
        assert max(c.denominator for u in s.vectors for c in u.v.as_tuple()) > 10**55
        images = [ref_vec(observable_rows(u.v), state.as_tuple()) for u in s.vectors]
        for i in range(s.n):
            j = (i + 1) % s.n
            expected = sum(x * y for x, y in zip(images[i], images[j]))
            assert correlator(s, i) == expected
            a, b = s.observables[i], s.observables[j]
            assert correlator(s, i) == dot(rotated(mat_rows(a), state), rotated(mat_rows(b), state))
        assert kcbs_value(s) == kcbs_value_via_projections(s)


def test_projection_route_reads_nothing_the_scenario_caches():
    # the two routes stay independent: the projection route takes its ints
    # from the components, so replacing the cached observables or images
    # moves the primary route and leaves it alone
    other = validate_cycle(E_Z, DEGENERATE_VECTORS)
    for cached in ("observables", "_images"):
        s = reference_scenario()
        assert kcbs_value_via_projections(s) == REF_KCBS_VALUE
        s.__dict__[cached] = getattr(other, cached)
        assert kcbs_value_via_projections(s) == REF_KCBS_VALUE
        assert kcbs_value(s) != REF_KCBS_VALUE


def test_kcbs_value_matches_correlators_and_fraction_rows_oracle():
    # the one-Fraction sum against the sum of the correlators and the
    # quadratic form of the Fraction-rows cycle operator, on odd cycles
    # n = 3..23 rotated to about 60-digit components
    rng = random.Random(2323)
    for n in range(3, 24, 2):
        rows = rational_rotation(rng, 30)
        state = stereo_lift(rand_fraction(rng, 10**30, 10**30), rand_fraction(rng, 10**30, 10**30)).v
        s = validate_cycle(state, [rotated(rows, u.v) for u in odd_cycle(rng, n)])
        assert s.n == n
        assert max(c.denominator for u in s.vectors for c in u.v.as_tuple()) > 10**55
        value = kcbs_value(s)
        assert value == sum(correlator(s, i) for i in range(n))
        assert value == quadratic_form(state, cycle_operator(s.vectors))


# --------------------------------------------------------------- cycle values


def test_reference_value_exact():
    s = reference_scenario()
    value = kcbs_value(s)
    assert value == REF_KCBS_VALUE
    # independent derivation from the raw literals: n - 4 * sum of projections
    proj = sum(
        sum(c * w for c, w in zip(vec, REF_STATE_RAW)) ** 2 for vec in REF_VECTORS_RAW
    )
    assert value == 5 - 4 * proj
    assert value < -3


def test_value_on_direction_state():
    # state equal to v3: <P_3> = 1, the two neighbours project to zero,
    # so the value is 5 - 4*(1 + (v0.v3)^2 + (v1.v3)^2)
    s = validate_cycle(Vec3Q(*REF_VECTORS_RAW[3]), REFERENCE_VECTORS)
    value = kcbs_value(s)
    assert value == Fraction(-20926587, 10738729)
    assert value == 5 - 4 * (1 + Fraction(1925**2 + 2052**2, 3277**2))


def test_degenerate_values():
    t = validate_cycle(E_Z, DEGENERATE_VECTORS)
    assert [correlator(t, i) for i in range(5)] == [1, 1, 1, -1, -1]
    assert kcbs_value(t) == 1
    s = validate_cycle(E_X, DEGENERATE_VECTORS)
    assert kcbs_value(s) == -3  # lands exactly on the classical bound


def test_two_routes_agree():
    rng = random.Random(515)
    cases = [reference_scenario(), validate_cycle(E_X, DEGENERATE_VECTORS)]
    for _ in range(30):
        cases.append(validate_cycle(random_unit_vec(rng), REFERENCE_VECTORS))
        cases.append(validate_cycle(random_unit_vec(rng), DEGENERATE_VECTORS))
    for s in cases:
        assert kcbs_value(s) == kcbs_value_via_projections(s)


def test_adjacent_observables_commute():
    s = reference_scenario()
    mats = [make_observable(u)[0] for u in s.vectors]
    for i in range(5):
        assert _int_mat_mul(mats[i], mats[(i + 1) % 5]) == _int_mat_mul(mats[(i + 1) % 5], mats[i])


def test_cycle_operator_properties():
    s = reference_scenario()
    op = cycle_operator(s.vectors)
    assert op == tuple(zip(*op))  # symmetric
    assert sum(op[i][i] for i in range(3)) == -5  # each product A_i A_{i+1} of orthogonal pair has trace -1
    rng = random.Random(99)
    states = [s.state.v] + [random_unit_vec(rng) for _ in range(10)]
    for psi in states:
        t = validate_cycle(psi, REFERENCE_VECTORS)
        assert quadratic_form(psi, op) == kcbs_value(t)


def test_cycle_operator_rejects_bad_geometry():
    with pytest.raises(CycleValidationError):
        cycle_operator((UnitVectorQ(E_X), UnitVectorQ(E_Y), UnitVectorQ(E_Y)))


def test_other_odd_lengths():
    rng = random.Random(2468)
    tri = validate_cycle(random_unit_vec(rng), (E_X, E_Y, E_Z))
    assert tri.n == 3
    assert kcbs_value(tri) == kcbs_value_via_projections(tri)
    sept = validate_cycle(
        random_unit_vec(rng), (E_X, E_Y, E_X, E_Y, E_X, E_Y, E_Z)
    )
    assert sept.n == 7
    assert kcbs_value(sept) == kcbs_value_via_projections(sept)
