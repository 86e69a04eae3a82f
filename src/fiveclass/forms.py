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
integer arithmetic only.  Each piece keeps a record of its determinant and,
where known, its integer inverse, from which a square is a matrix-vector
product:

- a piece of rank 1 or 2, such as <+-1> or H, uses closed forms: det [a] = a,
  det [[a, b], [b, c]] = ac - b^2, and the inverse is d times the adjugate,
  since d = +-1;
- a piece whose rows are exactly those of a named block above rank 2 (E8)
  reads both from a table derived from BLOCK_MATRICES on first use;
- any other piece (dense, or a permuted or negated E8) takes fraction-free
  (Bareiss) elimination for its determinant and for each square.

The signature of every piece comes from a symmetric congruence elimination.
There are no rationals and no floating point, because every downstream
invariant is a congruence class.

Size limit: a form has rank at most MAX_RANK; a larger one raises
RangeExceededError before any elimination runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import mul
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


def _bordered_square(q: Sequence[Sequence[int]], d: int, p: Sequence[int]) -> int:
    """p^T Q^{-1} p for a square matrix Q of determinant d = +-1, by the Schur
    complement identity det [[Q, p], [p^T, 0]] = -det Q * p^T Q^{-1} p."""
    bordered = [list(row) + [x] for row, x in zip(q, p)]
    return -d * bareiss_determinant(bordered + [list(p) + [0]])


_Rows = tuple[tuple[int, ...], ...]
# One orthogonal summand Q_P of a form: its index set P, det Q_P, and the
# integer inverse of Q_P, or None where no closed form or table entry gives it.
_Piece = tuple[tuple[int, ...], int, _Rows | None]


def _piece(mat: Sequence[Sequence[int]], idx: tuple[int, ...]) -> _Piece:
    """The record of the summand of mat on the sorted indices idx.

    The inverses below hold only when d = +-1, so that 1/d = d: the inverse
    of [a] is [d], and that of [[a, b], [b, c]] is d * [[c, -b], [-b, a]].
    Any other d fails the unimodularity check, and the record is discarded.
    A summand whose rows are exactly those of a named block above rank 2
    reads both from _named_pieces(); any other has no inverse.
    """
    if len(idx) == 1:
        d = mat[idx[0]][idx[0]]
        return idx, d, ((d,),)
    if len(idx) == 2:
        i, j = idx
        a, b, c = mat[i][i], mat[i][j], mat[j][j]
        d = a * c - b * b
        return idx, d, ((d * c, -d * b), (-d * b, d * a))
    sub = tuple(map(tuple, _restrict(mat, idx)))
    named = _named_pieces().get(sub)
    if named is not None:
        return (idx, *named)
    return idx, bareiss_determinant(sub), None


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
    # the _piece record of each orthogonal summand, and det Q
    _pieces: tuple[_Piece, ...] = field(init=False, repr=False, compare=False)
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
        members = {id(m): m for m in piece}.values()
        pieces = tuple([_piece(mat, tuple(sorted(m))) for m in members])
        det = math.prod(d for _, d, _ in pieces)
        if abs(det) != 1:
            raise NotUnimodularError(abs(det))
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "_pieces", pieces)
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
        return tuple(idx for idx, _, _ in self._pieces)

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

        Summed over the summands P on which p is nonzero: from the integer
        inverse of Q_P where its record has one, else by a bordered Bareiss
        determinant (_bordered_square).
        """
        self._check_length(c)
        total = 0
        for idx, d, inv in self._pieces:
            p = [c.pairings[i] for i in idx]
            if not any(p):
                continue
            if inv is None:
                total += _bordered_square(_restrict(self.rows, idx), d, p)
            else:
                total += sum(map(mul, p, [sum(map(mul, row, p)) for row in inv]))
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


@functools.cache
def _named_pieces() -> dict[_Rows, tuple[int, _Rows]]:
    """{rows: (determinant, inverse)} of each block in BLOCK_MATRICES above
    rank 2, derived on first use, so that importing the module does not pay
    for it.

    The inverse polarizes the bordered square sq(p) = p^T Q^{-1} p:
    Q^{-1}_ii = sq(e_i), and Q^{-1}_ij is half of sq(e_i + e_j) - sq(e_i) -
    sq(e_j).  A summand uses an entry only when its restricted rows equal
    the block's rows; a permuted or negated block takes the Bareiss route.
    """
    table = {}
    for rows in BLOCK_MATRICES.values():
        n = len(rows)
        if n <= 2:
            continue
        d = bareiss_determinant(rows)

        def sq(*basis: int) -> int:
            return _bordered_square(rows, d, [int(k in basis) for k in range(n)])

        inv = [[0] * n for _ in range(n)]
        for i in range(n):
            inv[i][i] = sq(i)
        for i in range(n):
            for j in range(i + 1, n):
                inv[i][j] = inv[j][i] = (sq(i, j) - inv[i][i] - inv[j][j]) // 2
        table[rows] = (d, tuple(map(tuple, inv)))
    return table


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

    Any other key, at either level, is an input error rather than dropped.
    """
    if not isinstance(obj, dict):
        raise InvalidFormError("manifold description must be a JSON object")
    _check_keys(obj, ("form", "ks"), "manifold description")
    form_spec = obj.get("form")
    if not isinstance(form_spec, dict):
        raise InvalidFormError('missing or malformed "form" field')
    _check_keys(form_spec, ("blocks", "matrix"), "form")
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


def _check_keys(obj: dict, known: tuple[str, ...], what: str) -> None:
    for key in obj:
        if key not in known:
            raise InvalidFormError(
                f"unknown key {key!r} in the {what}; known keys: " + ", ".join(known)
            )


def check_ks(ks: int) -> int:
    """ks itself, if it is a Kirby-Siebenmann bit: the int 0 or 1."""
    if type(ks) is not int or ks not in (0, 1):
        raise InvalidFormError(f"ks must be 0 or 1, got {ks!r}")
    return ks
