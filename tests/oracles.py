"""Slow, obviously correct oracles for the fast kernels in fiveclass.

The Fraction routines are the package's former implementations, kept
unchanged: Lagrange diagonalization for the signature and a Gauss-Jordan
solve for p^T Q^{-1} p.  The sympy routines are independent of both.
sympy is a test-only dependency.  fold_p_class is the former [P] of
algebra.invariants: one validated group element per block, negated on a
framed join and added to a running total.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import sympy

from fiveclass import algebra, bordism
from fiveclass.bordism import BordismElement, GroupKind
from fiveclass.errors import InvalidFormError


def gauss_det(rows):
    """Independent determinant route: plain Gaussian elimination on Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def _solve_exact(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    """Solve Q x = rhs over the rationals (Q invertible)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise InvalidFormError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
                b[r] -= f * b[col]
    return [b[r] / a[r][r] for r in range(n)]


def fraction_square(rows, pairings) -> Fraction:
    """p^T Q^{-1} p through the Fraction solve."""
    x = _solve_exact(rows, pairings)
    return sum(Fraction(p) * xi for p, xi in zip(pairings, x))


def fraction_signature(rows) -> int:
    """Number of positive minus number of negative squares.

    Exact Lagrange diagonalization over the rationals: split off a
    nonzero diagonal pivot whenever one exists; when the remaining block
    has all-zero diagonal, split off a hyperbolic 2x2 block, which
    contributes one square of each sign.  No eigenvalues are computed.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    active = list(range(n))
    sig = 0
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is not None:
            d = a[pivot][pivot]
            sig += 1 if d > 0 else -1
            rest = [i for i in active if i != pivot]
            for i in rest:
                for j in rest:
                    a[i][j] -= a[i][pivot] * a[pivot][j] / d
            active = rest
            continue
        off = next(
            ((i, j) for i in active for j in active if i < j and a[i][j] != 0),
            None,
        )
        if off is None:
            # zero block; impossible for a unimodular form, but harmless
            break
        i0, j0 = off
        c = a[i0][j0]
        rest = [i for i in active if i not in (i0, j0)]
        for k in rest:
            for ll in rest:
                a[k][ll] -= (a[i0][k] * a[j0][ll] + a[j0][k] * a[i0][ll]) / c
        active = rest
    return sig


def sympy_det(rows) -> int:
    return int(sympy.Matrix(rows).det(method="bareiss"))


def sympy_square(rows, pairings) -> int:
    """p^T Q^{-1} p with sympy's exact inverse."""
    p = sympy.Matrix(pairings)
    val = (p.T * sympy.Matrix(rows).inv() * p)[0, 0]
    assert val.is_integer
    return int(val)


def _contribution(b: algebra.Block, kind: GroupKind) -> BordismElement:
    """Bordism class of the block's characteristic piece in the given group:
    the coefficient of each of the group's generators (0 where the group
    lacks one; smooth fakes thus enter the topological groups with KS 0)."""
    coeffs = b.coefficients()
    return BordismElement(kind, (coeffs.get(g, 0) for g in kind.generators))


def fold_p_class(e: algebra.ManifoldExpression) -> BordismElement:
    """[P] of an expression, reduced after every block."""
    w2type = algebra._w2type_of(e.blocks)
    kind = GroupKind(e.category, algebra.FLAVOR_FOR_TYPE[w2type])
    total = bordism.zero(kind)
    for i, b in enumerate(e.blocks):
        contrib = _contribution(b, kind)
        if i > 0 and e.framings[i - 1]:
            contrib = bordism.neg(contrib)
        total = bordism.add(total, contrib)
    return total
