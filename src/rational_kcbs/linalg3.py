"""Exact 3-dimensional rational vector and matrix algebra.

Dimension is fixed at 3 throughout the package, which keeps every invariant
total and every operation a handful of exact Fraction multiplications.
Components are ints or Fractions.  Floats are rejected at construction:
once a binary-rounded value sneaks in, no downstream result is exact
anymore.  Strings are rejected too: fraction text is parsed once, at the
wire format (``rationals.parse_rational``), so this module depends on
nothing else in the package.

The cross product is right-handed: ``cross(E_X, E_Y) == E_Z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

RationalLike = Fraction | int


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}: {value!r}")


@dataclass(frozen=True)
class Vec3Q:
    """Immutable 3-vector with exact rational components."""

    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_rational(self.x))
        object.__setattr__(self, "y", as_rational(self.y))
        object.__setattr__(self, "z", as_rational(self.z))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def as_floats(self) -> tuple[float, float, float]:
        return (float(self.x), float(self.y), float(self.z))

    def __add__(self, other: "Vec3Q") -> "Vec3Q":
        return Vec3Q(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3Q") -> "Vec3Q":
        return Vec3Q(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3Q":
        return Vec3Q(-self.x, -self.y, -self.z)

    def __mul__(self, scalar: RationalLike) -> "Vec3Q":
        s = as_rational(scalar)
        return Vec3Q(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> "Vec3Q":
        s = as_rational(scalar)
        return Vec3Q(self.x / s, self.y / s, self.z / s)


E_X = Vec3Q(1, 0, 0)
E_Y = Vec3Q(0, 1, 0)
E_Z = Vec3Q(0, 0, 1)


@dataclass(frozen=True)
class Mat3Q:
    """Immutable 3x3 matrix with exact rational entries, row-major."""

    rows: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.rows) != 3 or any(len(row) != 3 for row in self.rows):
            raise ValueError("Mat3Q requires a 3x3 array of entries")
        coerced = tuple(tuple(as_rational(e) for e in row) for row in self.rows)
        object.__setattr__(self, "rows", coerced)

    @classmethod
    def identity(cls) -> "Mat3Q":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def zero(cls) -> "Mat3Q":
        return cls(((0, 0, 0), (0, 0, 0), (0, 0, 0)))

    def trace(self) -> Fraction:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def is_symmetric(self) -> bool:
        r = self.rows
        return r[0][1] == r[1][0] and r[0][2] == r[2][0] and r[1][2] == r[2][1]

    def __add__(self, other: "Mat3Q") -> "Mat3Q":
        return Mat3Q(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Mat3Q") -> "Mat3Q":
        return Mat3Q(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __mul__(self, scalar: RationalLike) -> "Mat3Q":
        s = as_rational(scalar)
        return Mat3Q(tuple(tuple(e * s for e in row) for row in self.rows))

    __rmul__ = __mul__


def dot(u: Vec3Q, v: Vec3Q) -> Fraction:
    """Exact inner product (components are real, no conjugation)."""
    return u.x * v.x + u.y * v.y + u.z * v.z


def norm_sq(v: Vec3Q) -> Fraction:
    return dot(v, v)


def cross(u: Vec3Q, v: Vec3Q) -> Vec3Q:
    return Vec3Q(
        u.y * v.z - u.z * v.y,
        u.z * v.x - u.x * v.z,
        u.x * v.y - u.y * v.x,
    )


def outer(u: Vec3Q, v: Vec3Q) -> Mat3Q:
    """Rank-1 matrix u v^T."""
    ut, vt = u.as_tuple(), v.as_tuple()
    return Mat3Q(tuple(tuple(a * b for b in vt) for a in ut))


def mat_mul(a: Mat3Q, b: Mat3Q) -> Mat3Q:
    ar, br = a.rows, b.rows
    return Mat3Q(
        tuple(
            tuple(sum(ar[i][k] * br[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
    )


def mat_vec(a: Mat3Q, v: Vec3Q) -> Vec3Q:
    vt = v.as_tuple()
    return Vec3Q(*(sum(row[k] * vt[k] for k in range(3)) for row in a.rows))


def quadratic_form(psi: Vec3Q, m: Mat3Q) -> Fraction:
    """psi^T M psi, exact."""
    return dot(psi, mat_vec(m, psi))
