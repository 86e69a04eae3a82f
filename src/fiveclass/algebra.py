"""Connected-sum-along-S^1 algebra of building-block 5-manifolds.

The classified family: closed orientable 5-manifolds M with pi_1 = Z/2,
trivial pi_1-action on pi_2 and torsion-free H_2.  The complete invariants
are the w2-type (I, II, III), r = rk H_2(M), and the class of the
characteristic submanifold in the bordism group attached to the type
(I -> pinc, II -> pin-, III -> pin+), taken mod +-; topologically the same
with the top- groups, whose leading coordinate is the Kirby-Siebenmann bit.

Relations among the invariants (all mod 2):
    type I:   q + s + r = 1      type II:  r = 1      type III:  q + r = 1

[P] is read and built by generator name (E8 is the KS bit p, RP4 is q,
CP2 is s), never by position: bordism.GROUP_TABLE alone holds the order of
a group's coordinates.

Each building block is one class below.  It states its rank, whether its
fundamental group is Z/2 (else Z), whether it exists only topologically,
and its bordism contribution as coefficients of the generators E8, RP4 and
CP2 named in bordism.GROUP_TABLE; parsing.TERMS gives its token.

Rank of a join: ranks add, plus 1 for every join of two pi_1 = Z/2 pieces;
for an expression that is one + (number of Z/2 blocks - 1).  A framing bit
on a join negates the bordism contribution of its right operand; the
convention is calibrated by X(0) = X(1) join X(1) with the twisted glueing
and X(2) = X(1) join X(1) with the untwisted one, the only instances where
the two glueings differ.

A ManifoldExpression walks its blocks once, when it is built, and keeps the
sum of block ranks, the number of Z/2 blocks, the set of block types and
the framing-signed sums of the blocks' generator coefficients.  invariants
reads r, the w2-type and [P] off these, without another walk; [P] is the
coefficient sums reduced once by the group's orders.

Block fields, framing bits, StandardForm fields and Invariants.r must be
ints (not bools, floats or strings), and a category or w2-type must be the
enum member (not its string); an Invariants' [P] must lie in the group of
its category and w2-type.  Anything else raises InvalidExpressionError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Iterable, Union

from . import bordism
from .bordism import BordismElement, CanonicalClass, Category, Flavor, GroupKind
from .errors import (
    CategoryMismatchError,
    InvalidExpressionError,
    NonIntegralKError,
    RangeExceededError,
    StarInSmoothError,
)


class W2Type(str, Enum):
    I = "I"
    II = "II"
    III = "III"


FLAVOR_FOR_TYPE = {
    W2Type.I: Flavor.PINC,
    W2Type.II: Flavor.PIN_MINUS,
    W2Type.III: Flavor.PIN_PLUS,
}

# the bordism group of each (category, w2-type), where [P] lies
_GROUP_OF: dict[tuple[Category, W2Type], GroupKind] = {
    (c, t): bordism.KINDS[(c, f)] for c in Category for t, f in FLAVOR_FOR_TYPE.items()
}


# -- building blocks ----------------------------------------------------------

def _int_field(name: str, value) -> int:
    """value itself, if it is an int (not a bool, float or digit string)."""
    if type(value) is not int:
        raise InvalidExpressionError(f"{name} must be an integer, got {value!r}")
    return value


def _enum_field(name: str, value, enum: type[Enum]) -> None:
    """Reject a value that is not a member of enum, such as its plain string."""
    if not isinstance(value, enum):
        raise InvalidExpressionError(f"{name} must be a {enum.__name__}, got {value!r}")


@dataclass(frozen=True)
class FakeRP5:
    """Smooth block X(q), q taken mod 16 (generator-relative), class q*RP4.

    Odd q is a smooth fake RP5 of rank 0; even q names the rank-1 composite
    X(l) join X(l') with class q.
    """

    q: int
    has_z2 = True
    top_only = False

    def __init__(self, q: int):
        object.__setattr__(self, "q", _int_field("q", q) % 16)

    @property
    def rank(self) -> int:
        return 1 - self.q % 2

    def coefficients(self) -> dict[str, int]:
        return {"RP4": self.q}


@dataclass(frozen=True)
class FakeRP5Top:
    """Topological block X(p, q); p = KS mod 2, q mod 8, class p*E8 + q*RP4."""

    p: int
    q: int
    has_z2 = True
    top_only = True

    def __init__(self, p: int, q: int):
        object.__setattr__(self, "p", _int_field("p", p) % 2)
        object.__setattr__(self, "q", _int_field("q", q) % 8)

    @property
    def rank(self) -> int:
        return 1 - self.q % 2

    def coefficients(self) -> dict[str, int]:
        return {"E8": self.p, "RP4": self.q}


@dataclass(frozen=True)
class S2xRP3:
    """Rank 1, spin, trivial bordism class."""

    rank = 1
    has_z2 = True
    top_only = False

    def coefficients(self) -> dict[str, int]:
        return {}


@dataclass(frozen=True)
class StarS2xRP3:
    """Rank 1; its characteristic submanifold carries KS = 1, class E8."""

    rank = 1
    has_z2 = True
    top_only = True

    def coefficients(self) -> dict[str, int]:
        return {"E8": 1}


@dataclass(frozen=True)
class CP2xS1:
    """Rank 1, pi_1 = Z, class CP2 (the w2^2 generator)."""

    rank = 1
    has_z2 = False
    top_only = False

    def coefficients(self) -> dict[str, int]:
        return {"CP2": 1}


@dataclass(frozen=True)
class S2xS2xS1:
    """(#_k S2 x S2) x S1, k >= 1 copies; rank 2k, pi_1 = Z, trivial class."""

    k: int
    has_z2 = False
    top_only = False

    def __init__(self, k: int):
        if _int_field("k", k) < 1:
            raise InvalidExpressionError(f"S2xS2 count must be >= 1, got {k}")
        object.__setattr__(self, "k", k)

    @property
    def rank(self) -> int:
        return 2 * self.k

    def coefficients(self) -> dict[str, int]:
        return {}


Block = Union[FakeRP5, FakeRP5Top, S2xRP3, StarS2xRP3, CP2xS1, S2xS2xS1]


# -- expressions --------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldExpression:
    """An ordered join of blocks with one framing bit per join.

    Structural checks only; blocks with pi_1 = Z alone are permitted here
    (they are legitimate join operands), but invariants() requires at least
    one Z/2 block so the result has fundamental group Z/2.
    """

    category: Category
    blocks: tuple[Block, ...]
    framings: tuple[int, ...]
    # sums over the blocks, made in one walk on construction: ranks, Z/2
    # blocks, and generator coefficients signed by the framing bits; and the
    # set of block types
    _rank_sum: int = field(init=False, repr=False, compare=False)
    _z2_count: int = field(init=False, repr=False, compare=False)
    _types: frozenset = field(init=False, repr=False, compare=False)
    _sums: dict = field(init=False, repr=False, compare=False)

    def __init__(self, category: Category, blocks: Iterable[Block], framings=None):
        _enum_field("category", category, Category)
        blocks = tuple(blocks)
        if not blocks:
            raise InvalidExpressionError("expression needs at least one block")
        if framings is None:
            framings = (0,) * (len(blocks) - 1)
        framings = tuple(_int_field("framing bit", f) % 2 for f in framings)
        if len(framings) != len(blocks) - 1:
            raise InvalidExpressionError(
                f"{len(blocks)} blocks need {len(blocks) - 1} framing bits, "
                f"got {len(framings)}"
            )
        smooth = category is Category.SMOOTH
        rank_sum = z2_count = 0
        types = set()
        sums: dict[str, int] = {}
        for b, bit in zip(blocks, (0,) + framings):
            if smooth and b.top_only:
                if isinstance(b, StarS2xRP3):
                    raise StarInSmoothError(
                        "*S2xRP3 exists only in the topological category"
                    )
                raise InvalidExpressionError(
                    "X(p,q) blocks exist only in the topological category"
                )
            rank_sum += b.rank
            z2_count += b.has_z2
            types.add(type(b))
            for g, c in b.coefficients().items():
                sums[g] = sums.get(g, 0) + (-c if bit else c)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "framings", framings)
        object.__setattr__(self, "_rank_sum", rank_sum)
        object.__setattr__(self, "_z2_count", z2_count)
        object.__setattr__(self, "_types", frozenset(types))
        object.__setattr__(self, "_sums", sums)

    def has_z2_block(self) -> bool:
        return self._z2_count > 0


def connected_sum(
    a: ManifoldExpression, b: ManifoldExpression, framing: int = 0
) -> ManifoldExpression:
    """Join two expressions, recording the framing bit at the new junction."""
    if a.category is not b.category:
        raise CategoryMismatchError(
            f"cannot join a {a.category.value} and a {b.category.value} expression"
        )
    if not (a.has_z2_block() or b.has_z2_block()):
        raise InvalidExpressionError(
            "at least one operand must contain a Z/2 block"
        )
    return ManifoldExpression(
        a.category,
        a.blocks + b.blocks,
        a.framings + (framing,) + b.framings,
    )


# -- invariants ---------------------------------------------------------------

@dataclass(frozen=True)
class Invariants:
    """Complete invariant tuple (category, w2-type, r, [P]); r >= 0."""

    category: Category
    w2type: W2Type
    r: int
    p_class: BordismElement

    def __post_init__(self):
        _enum_field("category", self.category, Category)
        _enum_field("w2type", self.w2type, W2Type)
        if _int_field("r", self.r) < 0:
            raise InvalidExpressionError(f"r must be >= 0, got {self.r}")
        kind = _GROUP_OF[(self.category, self.w2type)]
        if not isinstance(self.p_class, BordismElement) or self.p_class.kind != kind:
            raise InvalidExpressionError(
                f"[P] must be an element of {kind.name}, got {self.p_class!r}"
            )

    @property
    def ks(self) -> int | None:
        """Kirby-Siebenmann bit, the E8 coordinate; None in the smooth category."""
        return self.p_class.coord("E8")

    @property
    def q(self) -> int | None:
        """The arf-style RP4 coordinate; None in type II."""
        return self.p_class.coord("RP4")

    @property
    def s(self) -> int | None:
        """The w2^2 CP2 coordinate; None outside type I."""
        return self.p_class.coord("CP2")

    def canonical(self) -> CanonicalClass:
        return bordism.canonicalize(self.p_class)


def _invariants(category: Category, w2type: W2Type, r: int, named: dict) -> Invariants:
    """Invariants whose [P] has coefficient named[g] on each generator g of
    the group of (category, w2type); see bordism._named."""
    p_class = bordism._named(_GROUP_OF[(category, w2type)], named)
    return Invariants(category, w2type, r, p_class)


def _w2type_of(types: frozenset) -> W2Type:
    """The w2-type of a join of blocks of the given types."""
    has_cp2 = CP2xS1 in types
    has_fake = FakeRP5 in types or FakeRP5Top in types
    has_s2rp3 = S2xRP3 in types or StarS2xRP3 in types
    if has_cp2 or (has_fake and has_s2rp3):
        return W2Type.I
    if has_fake:
        return W2Type.III
    return W2Type.II


def invariants(e: ManifoldExpression) -> Invariants:
    """Compute (w2-type, r, [P]) for an expression.

    r = sum of block ranks + (number of Z/2 blocks - 1); the w2-type is read
    off from block presence.  [P] is the signed sum of block contributions,
    a join's framing bit negating the right operand's term.  The blocks'
    generator coefficients are summed as plain integers, when the
    expression is built, and reduced once here; reduction is a
    homomorphism, so this equals a sum reduced after every term.  A
    generator the group lacks is dropped (smooth fakes thus enter the
    topological groups with KS 0).  The cost does not grow with the number
    of blocks.
    """
    if not e.has_z2_block():
        raise InvalidExpressionError(
            "expression has no Z/2 block, so its fundamental group is not Z/2"
        )
    r = e._rank_sum + e._z2_count - 1
    return _invariants(e.category, _w2type_of(e._types), r, e._sums)


def check_relations(inv: Invariants) -> bool:
    """q + s + r odd, a coordinate the group lacks counting 0 (so r odd in
    type II, q + r odd in type III); parities are +/- invariant."""
    return (inv.r + (inv.q or 0) + (inv.s or 0)) % 2 == 1


def forget_invariants(inv: Invariants) -> Invariants:
    """Topological invariants underlying smooth ones (KS = 0)."""
    if inv.category is Category.TOP:
        return inv
    return Invariants(Category.TOP, inv.w2type, inv.r, bordism.forget_smooth(inv.p_class))


# -- standard forms -----------------------------------------------------------

@cache
def family_params(
    category: Category, w2type: W2Type
) -> tuple[tuple[int | None, int | None], ...]:
    """The (q, s) of the standard forms of one type and category."""
    if w2type is W2Type.II:
        return ((None, None),)
    if w2type is W2Type.III:
        return tuple((q, None) for q in range(9 if category is Category.SMOOTH else 5))
    return tuple((q, s) for q in range(5) for s in (0, 1))


def family_base(w2type: W2Type, q: int | None, s: int | None) -> int:
    """r - 2k on the standard family with parameters (type, q, s):

    type I, s=0: (5+(-1)^q)/2    type I, s=1: (3+(-1)^q)/2
    type II:     1               type III:    (1+(-1)^q)/2
    """
    if w2type is W2Type.II:
        return 1
    even = 1 - q % 2  # (1 + (-1)^q) / 2
    if w2type is W2Type.III:
        return even
    return (2 if s == 0 else 1) + even


@dataclass(frozen=True)
class StandardForm:
    """One line of the standard-form lists, with its parameters.

    Families (k = number of S2xS2 summands, r = 2k + family_base):

      type I,  s=0:  X(q) # S2xRP3 # k*(S2xS2)xS1
      type I,  s=1:  X(q) # CP2xS1 # k*(S2xS2)xS1
      type II:       S2xRP3 # k*(S2xS2)xS1
      type III:      X(q) # k*(S2xS2)xS1

    The (q, s) of each family are listed by family_params.  Topological
    forms carry p = KS in {0,1}: X(q) becomes X(p,q), and the type II family
    with p = 1 uses *S2xRP3 instead of S2xRP3.
    """

    category: Category
    w2type: W2Type
    k: int
    q: int | None = None
    s: int | None = None
    p: int | None = None

    def __post_init__(self):
        _enum_field("category", self.category, Category)
        _enum_field("w2type", self.w2type, W2Type)
        _int_field("k", self.k)
        for name, value in (("q", self.q), ("s", self.s), ("p", self.p)):
            if value is not None:
                _int_field(name, value)
        if self.k < 0:
            raise InvalidExpressionError(f"k must be >= 0, got {self.k}")
        if self.category is Category.TOP:
            if self.p not in (0, 1):
                raise InvalidExpressionError("topological forms need p in {0,1}")
        elif self.p is not None:
            raise InvalidExpressionError("smooth forms carry no KS parameter")
        if (self.q, self.s) not in family_params(self.category, self.w2type):
            raise InvalidExpressionError(
                f"no {self.category.value} type {self.w2type.value} standard "
                f"form has (q, s) = ({self.q}, {self.s})"
            )

    @property
    def r(self) -> int:
        return 2 * self.k + family_base(self.w2type, self.q, self.s)

    def _blocks(self) -> list[Block]:
        """The family's blocks, in the order the form lists them."""
        blocks: list[Block] = []
        top = self.category is Category.TOP
        if self.w2type is W2Type.II:
            blocks.append(StarS2xRP3() if (top and self.p == 1) else S2xRP3())
        else:
            blocks.append(FakeRP5Top(self.p, self.q) if top else FakeRP5(self.q))
            if self.w2type is W2Type.I:
                blocks.append(CP2xS1() if self.s == 1 else S2xRP3())
        if self.k > 0:
            blocks.append(S2xS2xS1(self.k))
        return blocks

    def expression(self) -> ManifoldExpression:
        return ManifoldExpression(self.category, self._blocks())

    def invariants(self) -> Invariants:
        """The class p*E8 + q*RP4 + s*CP2; None where the group lacks one."""
        named = {"E8": self.p, "RP4": self.q, "CP2": self.s}
        return _invariants(self.category, self.w2type, self.r, named)

    def text(self) -> str:
        """render_expression(self.expression()), without building the expression."""
        from .parsing import render_block

        return " # ".join(map(render_block, self._blocks()))


def standard_form_from_invariants(inv: Invariants) -> StandardForm:
    """The unique standard form with the given invariants.

    k is recovered by inverting the rank formula of the matching family;
    a non-integral or negative k cannot arise from a block expression and is
    reported as an internal inconsistency.
    """
    can = inv.canonical()
    p, q, s = can.coord("E8"), can.coord("RP4"), can.coord("CP2")
    k2 = inv.r - family_base(inv.w2type, q, s)
    if k2 < 0 or k2 % 2:
        raise NonIntegralKError(
            f"no standard family matches invariants "
            f"(type {inv.w2type.value}, r={inv.r}, class {can.rep})"
        )
    return StandardForm(inv.category, inv.w2type, k2 // 2, q=q, s=s, p=p)


def normalize(e: ManifoldExpression) -> StandardForm:
    return standard_form_from_invariants(invariants(e))


_TYPE_ORDER = {W2Type.I: 0, W2Type.II: 1, W2Type.III: 2}


def _form_sort_key(f: StandardForm):
    return (f.r, _TYPE_ORDER[f.w2type], f.q or 0, f.s or 0, f.p or 0)


# Largest r_max enumerate_forms accepts: about 16000 topological forms, which
# the CLI lists as JSON in under a second.
ENUMERATE_R_MAX = 1000


def enumerate_forms(
    r_max: int, category: Category, w2type: W2Type | None = None
) -> list[StandardForm]:
    """All standard forms of the category with r <= r_max, each once.

    Ordered by (r, type, q, s, p), lexicographically.  r_max is at most
    ENUMERATE_R_MAX; a larger one raises RangeExceededError.
    """
    if r_max < 0:
        raise InvalidExpressionError("r_max must be >= 0")
    if r_max > ENUMERATE_R_MAX:
        raise RangeExceededError(f"r_max is {r_max}; the limit is {ENUMERATE_R_MAX}")
    ps = (0, 1) if category is Category.TOP else (None,)
    forms = [
        StandardForm(category, t, k, q=q, s=s, p=p)
        for t in ([w2type] if w2type else W2Type)
        for q, s in family_params(category, t)
        for p in ps
        for k in range(r_max // 2 + 1)
    ]
    return sorted((f for f in forms if f.r <= r_max), key=_form_sort_key)


# -- equivalence --------------------------------------------------------------

class Level(str, Enum):
    DIFFEO = "diffeo"
    HOMEO = "homeo"
    HOMOTOPY = "homotopy"


def _as_invariants(x: Union[StandardForm, Invariants]) -> Invariants:
    return x.invariants() if isinstance(x, StandardForm) else x


def equivalent(
    a: Union[StandardForm, Invariants],
    b: Union[StandardForm, Invariants],
    level: Level,
) -> bool:
    """Equality of manifolds at the requested level.

    Diffeo: same (type, r, [P] mod +-), smooth inputs only.  Homeo: the same
    after forgetting to the topological groups (KS included).  Homotopy:
    same (type, r); in type I additionally the same homotopy bit, which is
    the w2^2 coordinate s of [P] (the characteristic number
    <w2(M)^2 t + t^5, [M]>, whose value on a class q*RP4 + s*CP2 is s since
    w2(RP4) = 0).
    """
    ia, ib = _as_invariants(a), _as_invariants(b)
    if level is Level.DIFFEO:
        if Category.TOP in (ia.category, ib.category):
            raise CategoryMismatchError(
                "diffeomorphism comparison needs smooth inputs on both sides"
            )
        return (ia.w2type, ia.r, ia.canonical()) == (ib.w2type, ib.r, ib.canonical())
    if level is Level.HOMEO:
        ta, tb = forget_invariants(ia), forget_invariants(ib)
        return (ta.w2type, ta.r, ta.canonical()) == (tb.w2type, tb.r, tb.canonical())
    if (ia.w2type, ia.r) != (ib.w2type, ib.r):
        return False
    if ia.w2type is W2Type.I:
        return ia.s == ib.s
    return True
