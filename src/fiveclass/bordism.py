"""The six 4-dimensional Pin bordism groups and their arithmetic.

Groups, invariant names and generators:

    flavor   smooth                     topological
    pinc     Z/8 + Z/2  (arf, w2^2)     Z/2 + Z/8 + Z/2  (KS, arf, w2^2)
             gens RP4, CP2              gens E8, RP4, CP2
    pin+     Z/16       gen RP4         Z/2 + Z/8        (KS, arf), gens E8, RP4
    pin-     0                          Z/2              KS, gen E8

Elements are full (signed) group elements; the quotient by the orientation
action x -> -x is applied only at comparison time, through canonicalize.
The Z/16 coordinate of the smooth pin+ group is generator-relative
(RP4 -> 1); no closed-form invariant for it is known.

GROUP_TABLE alone holds the coordinate order.  Elsewhere a coordinate is
read by generator name (E8 is the KS bit p, RP4 is q, CP2 is s) with
coord(), and a class is built from {generator: coefficient} with _named.

BordismElement(kind, coords) is the one way to make an element: it rejects
anything but the right number of ints and reduces them.  The six GroupKinds
are built once, in KINDS, and each reads its GROUP_TABLE row once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from math import prod
from typing import Iterator

from .errors import InputError, KindMismatchError


def ascii_int(text: str) -> int:
    """The integer `text` spells in ASCII digits, surrounding whitespace allowed.

    Unlike int(), other Unicode decimal digits and underscores are rejected
    with ValueError, so that argparse and the callers report them as input
    errors instead of reading them as numbers.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


class Category(str, Enum):
    SMOOTH = "smooth"
    TOP = "top"


class Flavor(str, Enum):
    PINC = "pinc"
    PIN_PLUS = "pin+"
    PIN_MINUS = "pin-"


# (orders of the cyclic factors, generator names, invariant names), per
# (category, flavor), in coordinate order; "?": no known closed form
GROUP_TABLE: dict[tuple[Category, Flavor], tuple[tuple, tuple, tuple]] = {
    (Category.SMOOTH, Flavor.PINC): ((8, 2), ("RP4", "CP2"), ("arf", "w2^2")),
    (Category.SMOOTH, Flavor.PIN_PLUS): ((16,), ("RP4",), ("?",)),
    (Category.SMOOTH, Flavor.PIN_MINUS): ((), (), ()),
    (Category.TOP, Flavor.PINC): ((2, 8, 2), ("E8", "RP4", "CP2"), ("KS", "arf", "w2^2")),
    (Category.TOP, Flavor.PIN_PLUS): ((2, 8), ("E8", "RP4"), ("KS", "arf")),
    (Category.TOP, Flavor.PIN_MINUS): ((2,), ("E8",), ("KS",)),
}


@dataclass(frozen=True)
class GroupKind:
    category: Category
    flavor: Flavor
    # the GROUP_TABLE row, read once when the kind is built
    orders: tuple[int, ...] = field(init=False, repr=False, compare=False)
    generators: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for value, enum in ((self.category, Category), (self.flavor, Flavor)):
            if not isinstance(value, enum):
                raise InputError(f"expected a {enum.__name__}, got {value!r}")
        orders, generators, _ = GROUP_TABLE[(self.category, self.flavor)]
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "generators", generators)

    @property
    def name(self) -> str:
        prefix = "top-" if self.category is Category.TOP else ""
        return prefix + self.flavor.value

    @property
    def group_order(self) -> int:
        return prod(self.orders)


# the six groups, each built once; look a kind up here instead of building it
KINDS = {key: GroupKind(*key) for key in GROUP_TABLE}

ALL_KINDS = tuple(KINDS.values())

_KIND_BY_NAME = {k.name: k for k in ALL_KINDS}


def kind_from_name(name: str) -> GroupKind:
    """The group of that exact name: no case folding, no surrounding spaces."""
    kind = _KIND_BY_NAME.get(name)
    if kind is None:
        raise InputError(
            f"unknown bordism group {name!r}; expected one of "
            + ", ".join(sorted(_KIND_BY_NAME))
        )
    return kind


@dataclass(frozen=True)
class GroupInfo:
    kind: GroupKind
    orders: tuple[int, ...]
    generators: tuple[str, ...]
    invariants: tuple[str, ...]


def group_info(kind: GroupKind) -> GroupInfo:
    return GroupInfo(kind, *GROUP_TABLE[(kind.category, kind.flavor)])


@dataclass(frozen=True)
class BordismElement:
    """Element of one of the six groups; coordinates are reduced residues.

    Coordinates must be ints; a bool, float or digit string raises InputError.
    """

    kind: GroupKind
    coords: tuple[int, ...]

    def __init__(self, kind: GroupKind, coords):
        coords = tuple(coords)
        for c in coords:
            if type(c) is not int:
                raise InputError(f"{kind.name} coordinates must be integers, got {c!r}")
        orders = kind.orders
        if len(coords) != len(orders):
            raise InputError(
                f"{kind.name} takes {len(orders)} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coords", tuple(c % o for c, o in zip(coords, orders)))

    def coord(self, generator: str) -> int | None:
        """The coordinate of the named generator; None if the group lacks it."""
        return _coord(self.kind, self.coords, generator)


def _coord(kind: GroupKind, coords: tuple[int, ...], generator: str) -> int | None:
    gens = kind.generators
    return coords[gens.index(generator)] if generator in gens else None


def _named(kind: GroupKind, named: dict[str, int]) -> BordismElement:
    """The element with coefficient named[g] on each of kind's generators g
    (0 if missing); names the group lacks are dropped."""
    return BordismElement(kind, [named.get(g, 0) for g in kind.generators])


@dataclass(frozen=True)
class CanonicalClass:
    """An element of the quotient by x -> -x, stored as its smallest lift."""

    kind: GroupKind
    rep: tuple[int, ...]

    def coord(self, generator: str) -> int | None:
        """The named generator's coordinate; None if the group lacks it."""
        return _coord(self.kind, self.rep, generator)


def zero(kind: GroupKind) -> BordismElement:
    return BordismElement(kind, (0,) * len(kind.orders))


def add(a: BordismElement, b: BordismElement) -> BordismElement:
    if a.kind != b.kind:
        raise KindMismatchError(f"cannot add {a.kind.name} and {b.kind.name}")
    return BordismElement(a.kind, [x + y for x, y in zip(a.coords, b.coords)])


def neg(a: BordismElement) -> BordismElement:
    return BordismElement(a.kind, [-x for x in a.coords])


def canonicalize(a: BordismElement) -> CanonicalClass:
    """min(a, -a), lexicographically on the reduced coordinate tuples.

    Resulting representative sets: {0..8} for smooth pin+,
    {0..4} x {0,1} for smooth pinc, and likewise with a leading KS bit
    in the topological cases.
    """
    minus = tuple(-x % o for x, o in zip(a.coords, a.kind.orders))
    return CanonicalClass(a.kind, min(a.coords, minus))


def forget_smooth(a: BordismElement) -> BordismElement:
    """Image under the smooth -> topological comparison map.

    Defined by generator tracking: each smooth coordinate goes to the
    topological coordinate of the same generator, and E8 (the KS bit) is 0
    since smooth manifolds have KS = 0.  On the pin+ groups this reduces
    the Z/16 coordinate mod 8.
    """
    if a.kind.category is not Category.SMOOTH:
        raise KindMismatchError("forget_smooth needs a smooth bordism element")
    top = KINDS[(Category.TOP, a.kind.flavor)]
    return _named(top, dict(zip(a.kind.generators, a.coords)))


def elements(kind: GroupKind) -> Iterator[BordismElement]:
    for coords in product(*(range(o) for o in kind.orders)):
        yield BordismElement(kind, coords)


# -- textual notation: pin+:7, pinc:(1,1), top-pin+:(1,3), pin-:() ------------

def render_element(a: BordismElement) -> str:
    return f"{a.kind.name}:{_render_coords(a.coords)}"


def render_canonical(c: CanonicalClass) -> str:
    return f"{c.kind.name}:{_render_coords(c.rep)}"


def _render_coords(coords: tuple[int, ...]) -> str:
    if len(coords) == 1:
        return str(coords[0])
    return "(" + ",".join(str(c) for c in coords) + ")"


def parse_element(text: str) -> BordismElement:
    """The element `text` spells; an empty coordinate, as in 'pinc:(1,,1)',
    raises InputError, while 'pin-:()' and 'pin-:' have no coordinates."""
    text = text.strip()
    name, sep, rest = text.partition(":")
    if not sep:
        raise InputError(f"bad element {text!r}; expected e.g. 'pin+:7'")
    kind = kind_from_name(name)
    rest = rest.strip()
    if rest.startswith("(") and rest.endswith(")"):
        rest = rest[1:-1]
    try:
        coords = [ascii_int(p) for p in rest.split(",")] if rest.strip() else []
    except ValueError as exc:
        raise InputError(f"bad coordinates in element {text!r}") from exc
    return BordismElement(kind, coords)
