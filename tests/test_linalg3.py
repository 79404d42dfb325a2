import copy
import dataclasses
import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from rational_kcbs import linalg3
from rational_kcbs.contextuality import UnitVectorQ, _int_mat_mul, _int_mat_vec, make_observable
from rational_kcbs.linalg3 import (
    E_X,
    E_Y,
    E_Z,
    Vec3Q,
    _int_dot,
    _ints,
    _vec,
    cross,
    dot,
    norm_sq,
)
from tests.conftest import REF_STATE_RAW, REF_VECTORS_RAW, rand_vec
from tests.oracles import (
    Mat,
    identity_mat,
    mat_from_rows,
    mat_reduced,
    mat_rows,
    observable_rows,
    quadratic_form,
    ref_mul,
    ref_vec,
    trace,
)


ZERO = Vec3Q(0, 0, 0)


def test_component_coercion():
    v = Vec3Q(1, 0, Fraction(3, 5))
    assert v.x == Fraction(1) and isinstance(v.x, Fraction)
    assert v.z == Fraction(3, 5)


def test_vector_value_semantics():
    # the public behaviour of Vec3Q, whatever form it keeps its components in
    v = Vec3Q(Fraction(6, 10), Fraction(-8, 10), 0)
    same = Vec3Q(x=Fraction(3, 5), y=Fraction(-4, 5), z=Fraction(0, 7))
    assert v == same and hash(v) == hash(same)
    assert len({v, same, Vec3Q(Fraction(3, 5), y=Fraction(-4, 5), z=0)}) == 1
    assert v != Vec3Q(Fraction(-4, 5), Fraction(3, 5), 0)
    assert v != v.as_tuple() and v != E_X
    assert repr(v) == "Vec3Q(x=Fraction(3, 5), y=Fraction(-4, 5), z=Fraction(0, 1))"
    assert repr(E_Z) == "Vec3Q(x=Fraction(0, 1), y=Fraction(0, 1), z=Fraction(1, 1))"
    for name in ("x", "y", "z"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, Fraction(1))
    assert v.as_tuple() == (Fraction(3, 5), Fraction(-4, 5), 0)


def test_values_copy_and_pickle_and_refuse_assignment():
    v = Vec3Q(Fraction(6, 10), Fraction(-8, 10), 0)
    for value in (v, E_X):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    for name in ("_num", "_den", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        E_X.other = 1


def test_vector_components_are_lowest_terms_fractions():
    rng = random.Random(7070)
    for _ in range(300):
        given = [rand_entry(rng) for _ in range(3)]
        raw = [Fraction(c.numerator * k, c.denominator * k) if rng.random() < 0.5 else c
               for c, k in zip(given, (rng.randint(1, 10**6) for _ in range(3)))]
        v = Vec3Q(*[c.numerator if c.denominator == 1 and rng.random() < 0.5 else c for c in raw])
        assert v.as_tuple() == (v.x, v.y, v.z) == tuple(given)
        for c in v.as_tuple():
            assert type(c) is Fraction
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


@pytest.mark.parametrize(
    "bad, text",
    [(0.5, "float: 0.5"), ("3/5", "str: '3/5'"), (None, "NoneType: None"),
     (complex(1, 0), "complex: (1+0j)"), (True, "bool: True"), (False, "bool: False")],
)
def test_vector_rejects_inexact_components(bad, text):
    for args in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
        with pytest.raises(TypeError, match=re.escape(f"exact rational required, got {text}")):
            Vec3Q(*args)
    with pytest.raises(TypeError, match=re.escape(f"exact rational required, got {text}")):
        Vec3Q(x=1, y=0, z=bad)


def test_private_vector_constructor_matches_public_one():
    # _vec(num, den) against Vec3Q of the same Fractions: equal, equal hashes
    # and the same ints, reduced by gcd(den, *num) whatever factor the four
    # ints share
    rng = random.Random(8080)
    cases = [((0, 0, 0), 1), ((0, 0, 0), 12), ((2, 6, 0), 4), ((6, -12, 3), 9), ((-5, 0, 5), 5)]
    for _ in range(500):
        num = tuple(rng.choice((0, rng.randint(-10**30, 10**30), rng.randint(-9, 9))) for _ in range(3))
        k = rng.choice((1, 2, 6, rng.randint(2, 10**9)))
        cases.append((tuple(k * c for c in num), k * rng.randint(1, 10**20)))
    for num, den in cases:
        public = Vec3Q(*(Fraction(c, den) for c in num))
        private = _vec(num, den)
        assert private == public and hash(private) == hash(public), (num, den)
        assert (private._num, private._den) == (public._num, public._den) == _ints(public.as_tuple())
        assert type(private._num) is tuple


def test_float_components_rejected():
    with pytest.raises(TypeError):
        Vec3Q(0.5, 0, 0)


def test_string_components_rejected():
    # fraction text is parsed only at the wire format (rationals.parse_rational)
    with pytest.raises(TypeError):
        Vec3Q(1, 0, "3/5")


def test_dot_examples():
    v2 = Vec3Q(*REF_VECTORS_RAW[2])
    v3 = Vec3Q(*REF_VECTORS_RAW[3])
    assert dot(v2, v3) == 0
    assert dot(E_X, E_X) == 1
    assert dot(Vec3Q(*REF_STATE_RAW), E_X) == Fraction(354, 527)


def test_dot_is_symmetric_bilinear():
    rng = random.Random(101)
    for _ in range(200):
        u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert dot(u, v) == dot(v, u)
        v_plus_cw = Vec3Q(*(a + c * b for a, b in zip(v.as_tuple(), w.as_tuple())))
        assert dot(u, v_plus_cw) == dot(u, v) + c * dot(u, w)


def test_norm_sq():
    assert norm_sq(Vec3Q(Fraction(3, 5), Fraction(4, 5), 0)) == 1
    assert norm_sq(ZERO) == 0
    # unit-vector witness: 1925^2 + 2052^2 + 1680^2 == 3277^2
    assert 1925**2 + 2052**2 + 1680**2 == 3277**2
    assert norm_sq(Vec3Q(*REF_VECTORS_RAW[3])) == 1


def test_cross_handedness():
    assert cross(E_X, E_Y) == E_Z
    assert cross(E_Y, E_Z) == E_X
    assert cross(E_Z, E_X) == E_Y
    assert cross(E_Y, E_X) == Vec3Q(0, 0, -1)


def test_cross_of_parallel_is_zero():
    rng = random.Random(55)
    for _ in range(100):
        v = rand_vec(rng)
        assert cross(v, v) == ZERO


def test_cross_reference_pair():
    v2 = Vec3Q(*REF_VECTORS_RAW[2])
    v4 = Vec3Q(*REF_VECTORS_RAW[4])
    got = cross(v2, v4)
    assert got == Vec3Q(Fraction(7700, 16133), Fraction(8208, 16133), Fraction(6720, 16133))
    # and it is orthogonal to both factors
    assert dot(got, v2) == 0 and dot(got, v4) == 0


def test_lagrange_identity():
    # |u x v|^2 == |u|^2 |v|^2 - (u.v)^2, exactly
    rng = random.Random(2024)
    for _ in range(500):
        u, v = rand_vec(rng), rand_vec(rng)
        assert norm_sq(cross(u, v)) == norm_sq(u) * norm_sq(v) - dot(u, v) ** 2


def test_matrix_constructors():
    ident = identity_mat()
    assert ident == ((1, 0, 0, 0, 1, 0, 0, 0, 1), 1)
    assert trace(mat_rows(ident)) == 3
    assert mat_rows(ident) == tuple(zip(*mat_rows(ident)))
    d = mat_from_rows(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    assert d == ((1, 0, 0, 0, -1, 0, 0, 0, -1), 1)
    assert d == mat_reduced((2, 0, 0, 0, -2, 0, 0, 0, -2), 2)
    assert mat_from_rows(((Fraction(1, 6), 0, 0), (0, Fraction(1, 4), 0), (0, 0, 1))) == (
        (2, 0, 0, 0, 3, 0, 0, 0, 12), 12)
    assert mat_rows(d) == ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert all(isinstance(e, Fraction) for row in mat_rows(d) for e in row)


def test_matrix_is_built_only_from_ints():
    # a matrix has no type: an observable is its nine row-major ints over d^2.
    # linalg3's classes are the vector and the value base the value types share
    assert not hasattr(linalg3, "Mat3Q") and not hasattr(linalg3, "_mat")
    classes = [name for name, obj in vars(linalg3).items()
               if isinstance(obj, type) and obj.__module__ == linalg3.__name__]
    assert classes == ["_Value", "Vec3Q"]
    num, den = make_observable(UnitVectorQ(Vec3Q(Fraction(48, 73), 0, Fraction(-55, 73))))
    assert type(num) is tuple and len(num) == 9 and all(type(e) is int for e in num)
    assert type(den) is int and den == 73 * 73
    assert num == (2 * 48 * 48 - den, 0, -2 * 48 * 55, 0, -den, 0, -2 * 48 * 55, 0, 2 * 55 * 55 - den)


def transpose(m: Mat) -> Mat:
    return mat_from_rows(tuple(zip(*mat_rows(m))))


def product_rows(a: Mat, b: Mat) -> tuple[tuple[Fraction, ...], ...]:
    """a b as Fraction rows, from the kernel's ints over the product of the
    two denominators."""
    (an, ad), (bn, bd) = a, b
    d, n = ad * bd, _int_mat_mul(an, bn)
    return tuple(tuple(Fraction(e, d) for e in n[i:i + 3]) for i in (0, 3, 6))


def test_matrix_algebra():
    rng = random.Random(31)

    def rand_mat():
        return mat_from_rows(
            tuple(
                tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3))
                for _ in range(3)
            )
        )

    ident = identity_mat()
    for _ in range(50):
        a, b = rand_mat(), rand_mat()
        assert product_rows(ident, a) == mat_rows(a) == product_rows(a, ident)
        assert tuple(zip(*product_rows(a, b))) == product_rows(transpose(b), transpose(a))
        # psi^T (A B) psi == (A^T psi) . (B psi)
        psi = rand_vec(rng)
        c = psi.as_tuple()
        assert quadratic_form(psi, product_rows(a, b)) == dot(
            Vec3Q(*ref_vec(mat_rows(transpose(a)), c)), Vec3Q(*ref_vec(mat_rows(b), c))
        )


def test_quadratic_form_example():
    d = mat_rows(mat_from_rows(((1, 0, 0), (0, -1, 0), (0, 0, -1))))
    assert quadratic_form(E_X, d) == 1
    assert quadratic_form(E_Y, d) == -1


def test_reflection_observables_commute_on_orthogonal_pair():
    # 2|v><v| - 1 from Fraction rows for the first two reference directions
    a0 = mat_from_rows(observable_rows(Vec3Q(*REF_VECTORS_RAW[0])))
    a1 = mat_from_rows(observable_rows(Vec3Q(*REF_VECTORS_RAW[1])))
    assert _int_mat_mul(a0[0], a1[0]) == _int_mat_mul(a1[0], a0[0])
    assert product_rows(a0, a0) == mat_rows(identity_mat())


# ------------------------------------------------ oracle for the matrix kernel
# The kernels compute on nine ints over one denominator; tests.oracles
# computes the same operations on plain rows of Fractions.


def rand_entry(rng: random.Random) -> Fraction:
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 60))
    return Fraction(rng.randint(-10**60, 10**60), rng.randint(1, 10**60))


def rand_rows(rng: random.Random) -> tuple[tuple[Fraction, ...], ...]:
    rows = [[rand_entry(rng) for _ in range(3)] for _ in range(3)]
    if rng.random() < 0.25:
        for i, j in ((0, 1), (0, 2), (1, 2)):
            rows[j][i] = rows[i][j]
    return tuple(tuple(row) for row in rows)


def rand_vec60(rng: random.Random) -> Vec3Q:
    return Vec3Q(rand_entry(rng), rand_entry(rng), rand_entry(rng))


def test_kernel_matches_fraction_rows_oracle():
    rng = random.Random(6060)
    for _ in range(300):
        ra, rb = rand_rows(rng), rand_rows(rng)
        a, b = mat_from_rows(ra), mat_from_rows(rb)
        assert mat_rows(a) == ra
        assert all(isinstance(e, Fraction) for row in mat_rows(a) for e in row)
        assert product_rows(a, b) == ref_mul(ra, rb)
        assert (a == b) == (ra == rb) and a == mat_from_rows(ra)


def test_integer_vector_kernels_match_fraction_rows_oracle():
    # the ints-over-one-denominator kernels the evaluation routes share
    rng = random.Random(6161)
    for _ in range(300):
        ra = rand_rows(rng)
        a = mat_from_rows(ra)
        u, v = rand_vec60(rng), rand_vec60(rng)
        (un, ud), (vn, vd) = _ints(u.as_tuple()), _ints(v.as_tuple())
        assert ud > 0 and all(isinstance(c, int) for c in un)
        assert tuple(Fraction(c, ud) for c in un) == u.as_tuple()
        assert all(ud % c.denominator == 0 for c in u.as_tuple())
        assert Fraction(_int_dot(un, vn), ud * vd) == sum(x * y for x, y in zip(u.as_tuple(), v.as_tuple()))
        # dot and cross compute on those ints; the Fraction component formulas
        (ux, uy, uz), (vx, vy, vz) = u.as_tuple(), v.as_tuple()
        assert dot(u, v) == ux * vx + uy * vy + uz * vz and type(dot(u, v)) is Fraction
        assert cross(u, v).as_tuple() == (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
        wn, wd = _int_mat_vec(a, un, ud)
        assert wd > 0 and all(isinstance(c, int) for c in wn)
        assert tuple(Fraction(c, wd) for c in wn) == ref_vec(ra, u.as_tuple())


def test_equal_values_compare_and_hash_alike_by_any_route():
    rng = random.Random(4242)
    ident = identity_mat()
    for _ in range(100):
        ra = rand_rows(rng)
        a = mat_from_rows(ra)
        (an, ad), (idn, _) = a, ident
        routes = [
            mat_reduced(_int_mat_mul(an, idn), ad), mat_reduced(_int_mat_mul(idn, an), ad),
            mat_from_rows(mat_rows(a)),
        ]
        for m in routes:
            assert m == a and hash(m) == hash(a)
        assert len(set(routes)) == 1
    half = mat_reduced((2, 0, 0, 0, 0, 0, 0, 0, 0), 4)
    assert half == mat_from_rows(((Fraction(1, 2), 0, 0), (0, 0, 0), (0, 0, 0)))
    assert hash(half) == hash(mat_from_rows(((Fraction(1, 2), 0, 0), (0, 0, 0), (0, 0, 0))))
    assert mat_from_rows(((Fraction(1), 0, 0), (0, 1, 0), (0, 0, 1))) == ident
    # an observable squared reaches the identity over a denominator of 1
    obs = mat_from_rows(observable_rows(Vec3Q(*REF_VECTORS_RAW[3])))
    assert make_observable(UnitVectorQ(Vec3Q(*REF_VECTORS_RAW[3]))) == obs
    square = mat_reduced(_int_mat_mul(obs[0], obs[0]), obs[1] ** 2)
    assert square == ident and hash(square) == hash(ident)
    assert ident != mat_rows(ident)

