"""Exact arithmetic on unimodular symmetric bilinear forms over Z.

An IntersectionForm models (H_2(X; Z), cup-pairing) of a closed
simply-connected topological 4-manifold X: a symmetric integer matrix Q with
|det Q| = 1.  A CohomologyClass c in H^2(X; Z) is stored as its pairing
vector p, p[i] = <c, e_i> against the chosen homology basis.  Basis
convention: these are coordinates in the dual basis, which makes
divisibility a plain gcd and the characteristic test a diagonal parity
check.  No result below depends on the choice of basis (the invariance is
property-tested), but the vectors themselves do.

Everything is computed with exact integer or rational arithmetic; there is
no floating point anywhere because every downstream invariant is a
congruence class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidFormError, NotSymmetricError, NotUnimodularError


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    All intermediate entries are minors of the input, so they stay integral;
    the division below is always exact.
    """
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise InvalidFormError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


@dataclass(frozen=True)
class CohomologyClass:
    """An integral 2-dimensional cohomology class as a pairing vector."""

    pairings: tuple[int, ...]

    def __init__(self, pairings: Iterable[int]):
        object.__setattr__(self, "pairings", tuple(int(x) for x in pairings))

    def __len__(self) -> int:
        return len(self.pairings)

    def divisibility(self) -> int:
        """Largest m with c = m * primitive; 0 for the zero class."""
        return math.gcd(*self.pairings) if self.pairings else 0

    def halved(self) -> "CohomologyClass":
        if any(x % 2 for x in self.pairings):
            raise InvalidFormError("class is not divisible by 2")
        return CohomologyClass(x // 2 for x in self.pairings)


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric unimodular integer matrix; validated on construction."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        try:
            mat = tuple(tuple(row) for row in rows)
        except TypeError as exc:
            raise InvalidFormError("matrix must be a list of rows") from exc
        if any(type(x) is not int for row in mat for x in row):
            raise InvalidFormError("matrix entries must be integers")
        n = len(mat)
        if n < 1:
            raise InvalidFormError("form must have rank >= 1")
        if any(len(row) != n for row in mat):
            raise InvalidFormError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i][j] != mat[j][i]:
                    raise NotSymmetricError(
                        f"entry ({i},{j}) = {mat[i][j]} differs from "
                        f"({j},{i}) = {mat[j][i]}"
                    )
        det = bareiss_determinant(mat)
        if abs(det) != 1:
            raise NotUnimodularError(abs(det))
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "_det", det)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def determinant(self) -> int:
        return self._det  # type: ignore[attr-defined]

    def signature(self) -> int:
        """Number of positive minus number of negative squares.

        Exact Lagrange diagonalization over the rationals: split off a
        nonzero diagonal pivot whenever one exists; when the remaining block
        has all-zero diagonal, split off a hyperbolic 2x2 block, which
        contributes one square of each sign.  No eigenvalues are computed.
        """
        n = self.rank
        a = [[Fraction(x) for x in row] for row in self.rows]
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

    def is_even(self) -> bool:
        """True iff Q(x, x) is even for all x, i.e. the diagonal is even."""
        return all(self.rows[i][i] % 2 == 0 for i in range(self.rank))

    def square(self, c: CohomologyClass) -> int:
        """<c^2, [X]> = p^T Q^{-1} p, an integer since Q is unimodular."""
        self._check_length(c)
        x = _solve_exact(self.rows, c.pairings)
        val = sum(Fraction(p) * xi for p, xi in zip(c.pairings, x))
        if val.denominator != 1:
            raise InvalidFormError("square of class is not integral")
        return int(val)

    def is_characteristic(self, c: CohomologyClass) -> bool:
        """True iff <c, x> = Q(x, x) mod 2 for all x.

        Checked on the basis: by bilinearity this reduces to the diagonal
        parities.  The mod-2 reduction of a characteristic element is w_2(X).
        """
        self._check_length(c)
        return all(
            (c.pairings[i] - self.rows[i][i]) % 2 == 0 for i in range(self.rank)
        )

    def direct_sum(self, other: "IntersectionForm") -> "IntersectionForm":
        n, m = self.rank, other.rank
        rows = [list(row) + [0] * m for row in self.rows]
        rows += [[0] * n + list(row) for row in other.rows]
        return IntersectionForm(rows)

    def _check_length(self, c: CohomologyClass) -> None:
        if len(c) != self.rank:
            raise InvalidFormError(
                f"class has length {len(c)}, form has rank {self.rank}"
            )


# -- named building blocks ----------------------------------------------------

_E8_ROWS = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

BLOCK_MATRICES: dict[str, tuple[tuple[int, ...], ...]] = {
    "1": ((1,),),
    "-1": ((-1,),),
    "H": ((0, 1), (1, 0)),
    "E8": _E8_ROWS,
}


def from_blocks(names: Iterable[str]) -> IntersectionForm:
    """Direct sum of named blocks <1>, <-1>, H, E8, in the listed order."""
    rows: list[list[int]] = []
    for name in names:
        block = BLOCK_MATRICES.get(str(name))
        if block is None:
            raise InvalidFormError(
                f"unknown block {name!r}; known blocks: "
                + ", ".join(sorted(BLOCK_MATRICES))
            )
        n = len(rows)
        for row in rows:
            row.extend([0] * len(block))
        for brow in block:
            rows.append([0] * n + list(brow))
    if not rows:
        raise InvalidFormError("empty block list")
    return IntersectionForm(rows)


def hyperbolic() -> IntersectionForm:
    return from_blocks(["H"])


def manifold_from_json(obj: object) -> tuple[IntersectionForm, int]:
    """Parse the 4-manifold JSON schema.

    {"form": {"blocks": ["1","-1","H","E8", ...]} | {"matrix": [[...]]},
     "ks": 0|1}
    """
    if not isinstance(obj, dict):
        raise InvalidFormError("manifold description must be a JSON object")
    form_spec = obj.get("form")
    if not isinstance(form_spec, dict):
        raise InvalidFormError('missing or malformed "form" field')
    if "blocks" in form_spec:
        blocks = form_spec["blocks"]
        if not isinstance(blocks, list) or any(type(b) is not str for b in blocks):
            raise InvalidFormError('"blocks" must be a list of block names')
        form = from_blocks(blocks)
    elif "matrix" in form_spec:
        matrix = form_spec["matrix"]
        if not isinstance(matrix, list):
            raise InvalidFormError('"matrix" must be a list of rows')
        form = IntersectionForm(matrix)
    else:
        raise InvalidFormError('form needs either "blocks" or "matrix"')
    ks = obj.get("ks", 0)
    if type(ks) is not int or ks not in (0, 1):
        raise InvalidFormError(f'"ks" must be 0 or 1, got {ks!r}')
    return form, ks
