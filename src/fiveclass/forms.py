"""Exact integer arithmetic on unimodular symmetric bilinear forms over Z.

An IntersectionForm models (H_2(X; Z), cup-pairing) of a closed
simply-connected topological 4-manifold X: a symmetric integer matrix Q with
|det Q| = 1.  A CohomologyClass c in H^2(X; Z) is stored as its pairing
vector p, p[i] = <c, e_i> against the chosen homology basis.  Basis
convention: these are coordinates in the dual basis, which makes
divisibility a plain gcd and the characteristic test a diagonal parity
check.  No result below depends on the choice of basis (the invariance is
property-tested), but the vectors themselves do.

Construction splits Q into orthogonal summands: the basis indices fall into
the connected components of the support of the off-diagonal entries, and Q
is the orthogonal sum of its restrictions to them.  A block sum, in any basis
order, splits into its blocks; a dense form is one piece.  The determinant,
the square <c^2, [X]> and the signature are computed piece by piece with
integer arithmetic only: fraction-free (Bareiss) elimination and a
symmetric congruence elimination.  There are no rationals and no floating
point, because every downstream invariant is a congruence class.

Size limit: a form has rank at most MAX_RANK; a larger one raises
RangeExceededError before any elimination runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Iterable, Sequence

from .errors import (
    InvalidFormError,
    NotSymmetricError,
    NotUnimodularError,
    RangeExceededError,
)

# Largest accepted rank.  Exact elimination on a dense form is cubic in the
# rank and its entries grow with it: building a dense conjugated form of rank
# 192 (entries up to ~150) and taking one square and the signature takes
# about 3.7 s with CPython 3.11 on a 2-CPU x86-64 host; at rank 256, 9.5 s.
MAX_RANK = 192


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; the input is not modified.

    All intermediate entries are minors of the input, so they stay integral
    and the division below is always exact.
    """
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise InvalidFormError("matrix is not square")
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * p - f * ak[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def _signature(a: list[list[int]]) -> int:
    """Signature of the symmetric integer matrix a by congruence elimination.

    A nonzero diagonal pivot d splits off one square of sign(d); the rest
    becomes |d| times its Schur complement, |d| a_ij - sign(d) v_i v_j.
    When the whole diagonal is zero, a nonzero c = a_ij splits off a
    hyperbolic plane, which has one square of each sign; the rest becomes
    |c| a_kl - sign(c) (u_k w_l + w_k u_l) with u, w rows i and j.  Each
    new block is divided by its content gcd.  Positive scalings do not
    change the signature, so only integers appear.
    """
    sig = 0
    while a:
        diag = [(abs(row[i]), i) for i, row in enumerate(a) if row[i]]
        if diag:
            piv = min(diag)[1]
            v = a[piv]
            d = v[piv]
            s, ad = (1, d) if d > 0 else (-1, -d)
            sig += s
            v = v[:piv] + v[piv + 1:]
            a = [
                [ad * x - vi * y for x, y in zip(row[:piv] + row[piv + 1:], v)]
                for row, vi in zip(a[:piv] + a[piv + 1:], (s * y for y in v))
            ]
        else:
            i, j = next(
                ((i, j) for i, row in enumerate(a) for j in range(i + 1, len(a)) if row[j]),
                (None, None),
            )
            if i is None:
                break  # zero block; impossible for a unimodular form
            c = a[i][j]
            s, ac = (1, c) if c > 0 else (-1, -c)
            keep = [k for k in range(len(a)) if k not in (i, j)]
            u = [a[i][k] for k in keep]
            w = [a[j][k] for k in keep]
            a = [
                [ac * a[k][ll] - s * (uk * wl + wk * ul)
                 for ll, ul, wl in zip(keep, u, w)]
                for k, uk, wk in zip(keep, u, w)
            ]
        g = 0
        for row in a:
            g = math.gcd(g, *row)
            if g == 1:
                break
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return sig


def _restrict(rows: Sequence[Sequence[int]], idx: Sequence[int]) -> list[list[int]]:
    """The square submatrix of rows on the indices idx, as fresh lists."""
    return [[rows[r][c] for c in idx] for r in idx]


@dataclass(frozen=True)
class CohomologyClass:
    """An integral 2-dimensional cohomology class as a pairing vector of ints."""

    pairings: tuple[int, ...]

    def __init__(self, pairings: Iterable[int]):
        pairings = tuple(pairings)
        for x in pairings:
            if type(x) is not int:
                raise InvalidFormError(f"pairings must be integers, got {x!r}")
        object.__setattr__(self, "pairings", pairings)

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
    # (index set, determinant) of each orthogonal summand, and det Q
    _pieces: tuple[tuple[tuple[int, ...], int], ...] = field(
        init=False, repr=False, compare=False
    )
    _det: int = field(init=False, repr=False, compare=False)

    def __init__(self, rows: Iterable[Iterable[int]]):
        try:
            mat = tuple(tuple(row) for row in rows)
        except TypeError as exc:
            raise InvalidFormError("matrix must be a list of rows") from exc
        n = len(mat)
        if n > MAX_RANK:
            raise RangeExceededError(f"form has rank {n}; the limit is {MAX_RANK}")
        if not set(map(type, chain.from_iterable(mat))) <= {int}:
            raise InvalidFormError("matrix entries must be integers")
        if n < 1:
            raise InvalidFormError("form must have rank >= 1")
        if any(len(row) != n for row in mat):
            raise InvalidFormError("matrix is not square")
        if mat != tuple(zip(*mat)):
            i, j = next(
                (i, j) for i in range(n) for j in range(i + 1, n) if mat[i][j] != mat[j][i]
            )
            raise NotSymmetricError(
                f"entry ({i},{j}) = {mat[i][j]} differs from ({j},{i}) = {mat[j][i]}"
            )
        # indices joined by a nonzero off-diagonal entry lie in one summand
        piece = [[i] for i in range(n)]
        for i, row in enumerate(mat):
            for j in compress(range(i + 1, n), row[i + 1:]):
                big, small = piece[i], piece[j]
                if big is not small:
                    if len(big) < len(small):
                        big, small = small, big
                    big.extend(small)
                    for k in small:
                        piece[k] = big
        pieces, det = [], 1
        for members in {id(m): m for m in piece}.values():
            idx = tuple(sorted(members))
            d = bareiss_determinant(_restrict(mat, idx))
            pieces.append((idx, d))
            det *= d
        if abs(det) != 1:
            raise NotUnimodularError(abs(det))
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "_pieces", tuple(pieces))
        object.__setattr__(self, "_det", det)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def determinant(self) -> int:
        return self._det

    @property
    def pieces(self) -> tuple[tuple[int, ...], ...]:
        """Index sets of the orthogonal summands, ordered by smallest index."""
        return tuple(idx for idx, _ in self._pieces)

    def signature(self) -> int:
        """Number of positive minus number of negative squares.

        Integer congruence elimination on each summand, summed; no
        eigenvalues and no rationals.  Computed on each call, never at
        construction.
        """
        return sum(_signature(_restrict(self.rows, idx)) for idx in self.pieces)

    def is_even(self) -> bool:
        """True iff Q(x, x) is even for all x, i.e. the diagonal is even."""
        return all(self.rows[i][i] % 2 == 0 for i in range(self.rank))

    def square(self, c: CohomologyClass) -> int:
        """<c^2, [X]> = p^T Q^{-1} p, an integer since Q is unimodular.

        Summed over the summands P on which p is nonzero, by the Schur
        complement identity det [[Q_P, p_P], [p_P^T, 0]] = -det Q_P *
        p_P^T Q_P^{-1} p_P with det Q_P = +-1.
        """
        self._check_length(c)
        total = 0
        for idx, d in self._pieces:
            p = [c.pairings[i] for i in idx]
            if any(p):
                bordered = [row + [x] for row, x in zip(_restrict(self.rows, idx), p)]
                total -= d * bareiss_determinant(bordered + [p + [0]])
        return total

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
    """Direct sum of named blocks <1>, <-1>, H, E8, in the listed order; each
    name must be a str, and a bare string is not read as a list of names."""
    if isinstance(names, str):
        raise InvalidFormError(f"block names must be a list, not the string {names!r}")
    blocks, n = [], 0
    for name in names:
        if type(name) is not str:
            raise InvalidFormError(f"block names must be strings, got {name!r}")
        block = BLOCK_MATRICES.get(name)
        if block is None:
            raise InvalidFormError(
                f"unknown block {name!r}; known blocks: "
                + ", ".join(sorted(BLOCK_MATRICES))
            )
        n += len(block)
        if n > MAX_RANK:
            raise RangeExceededError(f"blocks add up to a rank over the limit {MAX_RANK}")
        blocks.append(block)
    if not blocks:
        raise InvalidFormError("empty block list")
    rows: list[list[int]] = []
    for block in blocks:
        at = len(rows)
        rows.extend([0] * at + list(brow) + [0] * (n - at - len(brow)) for brow in block)
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
    if "blocks" in form_spec and "matrix" in form_spec:
        raise InvalidFormError('form takes one of "blocks" or "matrix", not both')
    if "blocks" in form_spec:
        blocks = form_spec["blocks"]
        if not isinstance(blocks, list):
            raise InvalidFormError('"blocks" must be a list of block names')
        form = from_blocks(blocks)
    elif "matrix" in form_spec:
        matrix = form_spec["matrix"]
        if not isinstance(matrix, list):
            raise InvalidFormError('"matrix" must be a list of rows')
        form = IntersectionForm(matrix)
    else:
        raise InvalidFormError('form needs either "blocks" or "matrix"')
    return form, check_ks(obj.get("ks", 0))


def check_ks(ks: int) -> int:
    """ks itself, if it is a Kirby-Siebenmann bit: the int 0 or 1."""
    if type(ks) is not int or ks not in (0, 1):
        raise InvalidFormError(f"ks must be 0 or 1, got {ks!r}")
    return ks
