"""Slow, obviously correct oracles for the fast kernels in fiveclass.

The Fraction routines are the package's former implementations, kept
unchanged: Lagrange diagonalization for the signature and a Gauss-Jordan
solve for p^T Q^{-1} p.  The sympy routines are independent of both.
sympy is a test-only dependency.  fold_p_class is the former [P] of
algebra.invariants: one validated group element per block, negated on a
framed join and added to a running total.  walk_invariants is the former
algebra.invariants, which walks the blocks for each of r, the w2-type and
[P]; term_loop_parse is the former parser, which tries the term regexes
one after another at each token.  positional_ks/q/s,
positional_check_relations and positional_standard_form are the former
readers of [P], which pick the KS bit p, q and s out of the coordinate
tuple by position, with one branch per category or w2-type.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

import sympy

from fiveclass import algebra, bordism
from fiveclass.algebra import (
    FLAVOR_FOR_TYPE,
    Block,
    Category,
    CP2xS1,
    FakeRP5,
    FakeRP5Top,
    Invariants,
    ManifoldExpression,
    S2xRP3,
    StandardForm,
    StarS2xRP3,
    W2Type,
    family_base,
)
from fiveclass.bordism import BordismElement, GroupKind
from fiveclass.errors import (
    ExpressionSemanticError,
    ExpressionSyntaxError,
    InvalidExpressionError,
    InvalidFormError,
    NonIntegralKError,
)
from fiveclass.parsing import TERMS, _shown


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


def sympy_inverse(rows) -> tuple[tuple[int, ...], ...]:
    """The inverse of a unimodular integer matrix with sympy, as int rows."""
    inv = sympy.Matrix(rows).inv()
    assert all(x.is_integer for x in inv)
    return tuple(tuple(int(x) for x in inv.row(i)) for i in range(inv.rows))


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
    w2type = _w2type_of(e.blocks)
    kind = GroupKind(e.category, algebra.FLAVOR_FOR_TYPE[w2type])
    total = bordism.zero(kind)
    for i, b in enumerate(e.blocks):
        contrib = _contribution(b, kind)
        if i > 0 and e.framings[i - 1]:
            contrib = bordism.neg(contrib)
        total = bordism.add(total, contrib)
    return total


def _w2type_of(blocks: tuple[Block, ...]) -> W2Type:
    has_cp2 = any(isinstance(b, CP2xS1) for b in blocks)
    has_fake = any(isinstance(b, (FakeRP5, FakeRP5Top)) for b in blocks)
    has_s2rp3 = any(isinstance(b, (S2xRP3, StarS2xRP3)) for b in blocks)
    if has_cp2 or (has_fake and has_s2rp3):
        return W2Type.I
    if has_fake:
        return W2Type.III
    return W2Type.II


def walk_invariants(e: ManifoldExpression) -> Invariants:
    """Compute (w2-type, r, [P]) for an expression.

    r = sum of block ranks + (number of Z/2 blocks - 1); the w2-type is read
    off from block presence.  [P] is the signed sum of block contributions,
    a join's framing bit negating the right operand's term.  The blocks'
    generator coefficients are summed as plain integers and reduced once,
    when the element is built; reduction is a homomorphism, so this equals
    a sum reduced after every term.  A generator the group lacks is dropped
    (smooth fakes thus enter the topological groups with KS 0).
    """
    if not any(b.has_z2 for b in e.blocks):
        raise InvalidExpressionError(
            "expression has no Z/2 block, so its fundamental group is not Z/2"
        )
    z2_count = sum(1 for b in e.blocks if b.has_z2)
    r = sum(b.rank for b in e.blocks) + z2_count - 1
    w2type = _w2type_of(e.blocks)
    kind = GroupKind(e.category, FLAVOR_FOR_TYPE[w2type])
    sums: dict[str, int] = {}
    for b, bit in zip(e.blocks, (0,) + e.framings):
        for g, c in b.coefficients().items():
            sums[g] = sums.get(g, 0) + (-c if bit else c)
    p_class = BordismElement(kind, (sums.get(g, 0) for g in kind.generators))
    return Invariants(e.category, w2type, r, p_class)


def positional_ks(inv: Invariants) -> int | None:
    """Kirby-Siebenmann bit; None in the smooth category."""
    if inv.category is Category.TOP:
        return inv.p_class.coords[0]
    return None


def positional_q(inv: Invariants) -> int | None:
    """The arf-style coordinate, where the group has one."""
    if inv.w2type is W2Type.II:
        return None
    return inv.p_class.coords[-1 if inv.w2type is W2Type.III else -2]


def positional_s(inv: Invariants) -> int | None:
    """The w2^2 coordinate (type I only)."""
    if inv.w2type is not W2Type.I:
        return None
    return inv.p_class.coords[-1]


def positional_check_relations(inv: Invariants) -> bool:
    """Parity relations among (type, q, s, r); parities are +/- invariant."""
    if inv.w2type is W2Type.II:
        return inv.r % 2 == 1
    if inv.w2type is W2Type.III:
        return (positional_q(inv) + inv.r) % 2 == 1
    return (positional_q(inv) + positional_s(inv) + inv.r) % 2 == 1


def positional_standard_form(inv: Invariants) -> StandardForm:
    """The unique standard form with the given invariants.

    k is recovered by inverting the rank formula of the matching family;
    a non-integral or negative k cannot arise from a block expression and is
    reported as an internal inconsistency.
    """
    rep = inv.canonical().rep
    top = inv.category is Category.TOP
    p = rep[0] if top else None
    if inv.w2type is W2Type.II:
        q = s = None
    elif inv.w2type is W2Type.III:
        q, s = rep[-1], None
    else:
        q, s = rep[-2], rep[-1]
    k2 = inv.r - family_base(inv.w2type, q, s)
    if k2 < 0 or k2 % 2:
        raise NonIntegralKError(
            f"no standard family matches invariants "
            f"(type {inv.w2type.value}, r={inv.r}, class {rep})"
        )
    return StandardForm(inv.category, inv.w2type, k2 // 2, q=q, s=s, p=p)


def _pattern(pieces: tuple[str, ...]) -> re.Pattern:
    """Regex for a run of pieces, each followed by optional whitespace."""
    return re.compile(
        "".join(
            (rf"(?P<{p[1:-1]}>[+-]?[0-9]+)" if p.startswith("{") else re.escape(p))
            + r"\s*"
            for p in pieces
        )
    )


_PATTERNS = tuple((block_type, _pattern(pieces)) for block_type, pieces in TERMS)
_SPACE = re.compile(r"\s*")
_JOIN = re.compile(r"(#~?)\s*")


def _parse_term(text: str, pos: int) -> tuple[Block, int]:
    """The first term token that matches at pos, and the offset past it."""
    for block_type, pattern in _PATTERNS:
        m = pattern.match(text, pos)
        if m:
            fields = {name: int(value) for name, value in m.groupdict().items()}
            try:
                return block_type(**fields), m.end()
            except InvalidExpressionError as exc:
                raise ExpressionSemanticError(f"{exc} at offset {pos}") from exc
    # no token matched: report what each wanted at the furthest offset reached,
    # the whole token if it matched nothing, else its next piece
    wanted: dict[int, list[str]] = {}
    for _, pieces in TERMS:
        n = len(pieces) - 1
        while not (m := _pattern(pieces[:n]).match(text, pos)):
            n -= 1
        want = _shown(pieces[n]) if n else "".join(map(_shown, pieces))
        wanted.setdefault(m.end(), []).append(want)
    offset = max(wanted)
    raise ExpressionSyntaxError(offset, tuple(dict.fromkeys(wanted[offset])))


def term_loop_parse(text: str) -> ManifoldExpression:
    block, pos = _parse_term(text, _SPACE.match(text).end())
    blocks = [block]
    framings: list[int] = []
    while pos < len(text):
        join = _JOIN.match(text, pos)
        if not join:
            raise ExpressionSyntaxError(pos, ("#", "#~"))
        framings.append(1 if join.group(1) == "#~" else 0)
        block, pos = _parse_term(text, join.end())
        blocks.append(block)
    category = Category.TOP if any(b.top_only for b in blocks) else Category.SMOOTH
    expr = ManifoldExpression(category, blocks, framings)
    if not expr.has_z2_block():
        raise ExpressionSemanticError(
            "expression has no Z/2 block (no X(..) or S2xRP3 term), "
            "so its fundamental group is Z, not Z/2"
        )
    return expr
