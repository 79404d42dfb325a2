"""Exact 3-dimensional rational vector algebra.

Dimension is fixed at 3 throughout the package, which keeps every invariant
total and every operation a fixed handful of exact products.  A ``Vec3Q``
holds three ints over one positive denominator in lowest terms, so exact
checks and comparisons run on Python ints; a Fraction is built only where a
vector leaves the type (``x``, ``y``, ``z`` and ``as_tuple()``).  A vector
has no arithmetic of its own: ``dot``, ``norm_sq`` and ``cross`` are what
certificates need, each computed on the vectors' ints.  The private
constructor ``_vec`` builds a vector straight from such ints, with the one
gcd reduction (``_fill``).  The private integer kernels ``_ints`` and
``_int_dot`` let callers keep a vector as three ints over one denominator
and build one Fraction at the end.  A matrix has no type here: an
observable's nine ints, and the kernels that multiply them, belong to
``contextuality``.
A vector's components are ints or Fractions.  Floats are rejected at
construction: once a binary-rounded value sneaks in, no downstream result is
exact anymore.  Strings are rejected too: fraction text is parsed once, at
the wire format (``rationals``), so no other package module is imported here.

The cross product is right-handed: ``cross(E_X, E_Y) == E_Z``.

``_Value`` is the frozen value behaviour that ``Vec3Q`` and the package's
other value types share: equality, hash and repr over their fields, and no
assignment after construction.  It is a plain base class, not
``dataclasses``, whose import and generated methods would cost every
process start.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

RationalLike = Fraction | int


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything else.  A bool
    is refused, though isinstance(True, int) holds."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and value.__class__ is not bool:
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}: {value!r}")


def _fill(m: Vec3Q, num: tuple[int, int, int], den: int) -> Vec3Q:
    """Set m to num / den (den > 0) in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple([e // g for e in num])
        den //= g
    object.__setattr__(m, "_num", num)
    object.__setattr__(m, "_den", den)
    return m


class _Value:
    """An immutable value, equal to a value of the same class with equal
    fields and hashed and shown by them, as a frozen dataclass is.

    ``__match_args__`` names the fields in order.  A subclass's constructor
    writes each field with ``object.__setattr__``: assigning or deleting any
    attribute afterwards raises ``dataclasses.FrozenInstanceError``, whose
    module is imported on that error path alone.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # _fields() reads the field tuple in one attrgetter call, not a loop
        # over the names, since search sorts on params; attrgetter of one
        # name returns the value alone, so that one is wrapped
        get = attrgetter(*cls.__match_args__)
        if len(cls.__match_args__) == 1:
            cls._fields = lambda self: (get(self),)
        else:
            cls._fields = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Vec3Q(_Value):
    """Immutable 3-vector with exact rational components.

    Held as three ints over one positive denominator in lowest terms, so
    equality and hashing compare ints; ``x``, ``y``, ``z`` and ``as_tuple()``
    are the Fraction view.
    """

    __slots__ = ("_num", "_den")
    __match_args__ = ("_num", "_den")
    _num: tuple[int, int, int]
    _den: int

    def __init__(self, x: RationalLike, y: RationalLike, z: RationalLike):
        _fill(self, *_ints([as_rational(x), as_rational(y), as_rational(z)]))

    @property
    def x(self) -> Fraction:
        return Fraction(self._num[0], self._den)

    @property
    def y(self) -> Fraction:
        return Fraction(self._num[1], self._den)

    @property
    def z(self) -> Fraction:
        return Fraction(self._num[2], self._den)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def __repr__(self) -> str:
        return f"Vec3Q(x={self.x!r}, y={self.y!r}, z={self.z!r})"

    def __reduce__(self):  # copy and pickle cannot assign to a frozen slot
        return _vec, (self._num, self._den)


def _vec(num: tuple[int, int, int], den: int) -> Vec3Q:
    return _fill(object.__new__(Vec3Q), num, den)


def _ints(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """values as ints over their least common denominator."""
    den = lcm(*[c.denominator for c in values])
    return tuple([c.numerator * (den // c.denominator) for c in values]), den


E_X = Vec3Q(1, 0, 0)
E_Y = Vec3Q(0, 1, 0)
E_Z = Vec3Q(0, 0, 1)


def dot(u: Vec3Q, v: Vec3Q) -> Fraction:
    """Exact inner product (components are real, no conjugation)."""
    return Fraction(_int_dot(u._num, v._num), u._den * v._den)


def norm_sq(v: Vec3Q) -> Fraction:
    return Fraction(_int_dot(v._num, v._num), v._den * v._den)


def cross(u: Vec3Q, v: Vec3Q) -> Vec3Q:
    (ux, uy, uz), (vx, vy, vz) = u._num, v._num
    return _vec((uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx), u._den * v._den)


def _int_dot(u: Sequence[int], w: Sequence[int]) -> int:
    """Inner product of two int triples."""
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]
