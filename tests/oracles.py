"""Exact test oracles built from the public operations: the cycle operator
and its quadratic form.  The program does not use them; tests check its
routes against them."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from rational_kcbs.contextuality import UnitVectorQ, check_cycle_vectors, make_observable
from rational_kcbs.linalg3 import Mat3Q, Vec3Q, dot, mat_mul, mat_vec


def quadratic_form(psi: Vec3Q, m: Mat3Q) -> Fraction:
    """psi^T M psi, exact."""
    return dot(psi, mat_vec(m, psi))


def cycle_operator(vectors: Sequence[UnitVectorQ]) -> Mat3Q:
    """Exact operator  sum_i A_i A_{i+1}  for a cycle of directions.

    For a geometry that passes ``check_cycle_vectors`` this matrix is exactly
    symmetric (commuting symmetric factors), equals n*I - 4*sum_i v_i v_i^T
    (the identity the search aims by; this is its exact oracle), and its
    quadratic form at any state equals the cycle correlation sum there.
    """
    check_cycle_vectors(vectors)
    matrices = [make_observable(u) for u in vectors]
    total = Mat3Q.zero()
    for a, b in zip(matrices, matrices[1:] + matrices[:1]):
        total = total + mat_mul(a, b)
    return total
