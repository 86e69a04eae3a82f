"""Tests for the six bordism groups: table data, arithmetic, quotient."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiveclass import bordism
from fiveclass.bordism import (
    ALL_KINDS,
    BordismElement,
    Category,
    Flavor,
    GroupKind,
    add,
    ascii_int,
    canonicalize,
    elements,
    forget_smooth,
    group_info,
    kind_from_name,
    neg,
    parse_element,
    render_element,
)
from fiveclass.errors import InputError, KindMismatchError

SPIN = Category.SMOOTH
TOP = Category.TOP

PINC = GroupKind(SPIN, Flavor.PINC)
PINP = GroupKind(SPIN, Flavor.PIN_PLUS)
PINM = GroupKind(SPIN, Flavor.PIN_MINUS)
TPINC = GroupKind(TOP, Flavor.PINC)
TPINP = GroupKind(TOP, Flavor.PIN_PLUS)
TPINM = GroupKind(TOP, Flavor.PIN_MINUS)


def test_group_table_rows():
    assert group_info(PINC).orders == (8, 2)
    assert group_info(PINC).generators == ("RP4", "CP2")
    assert group_info(PINP).orders == (16,)
    assert group_info(PINP).generators == ("RP4",)
    assert group_info(PINM).orders == ()
    assert group_info(TPINC).orders == (2, 8, 2)
    assert group_info(TPINC).generators == ("E8", "RP4", "CP2")
    assert group_info(TPINP).orders == (2, 8)
    assert group_info(TPINM).orders == (2,)
    assert group_info(TPINM).generators == ("E8",)


def test_group_invariant_names():
    assert group_info(PINC).invariants == ("arf", "w2^2")
    assert group_info(TPINC).invariants == ("KS", "arf", "w2^2")
    assert group_info(TPINM).invariants == ("KS",)


def test_coord_reads_by_generator_name():
    e = BordismElement(TPINC, (1, 3, 0))
    assert (e.coord("E8"), e.coord("RP4"), e.coord("CP2")) == (1, 3, 0)
    assert BordismElement(PINC, (5, 1)).coord("E8") is None
    assert canonicalize(BordismElement(TPINP, (1, 5))).coord("RP4") == 3
    assert BordismElement(PINM, ()).coord("RP4") is None


def test_named_builder_reduces_and_drops():
    assert bordism._named(PINC, {"E8": 1, "RP4": 9, "CP2": 3}) == BordismElement(PINC, (1, 1))
    assert bordism._named(TPINC, {"RP4": -1}) == BordismElement(TPINC, (0, 7, 0))
    assert bordism._named(PINM, {"E8": 1, "RP4": 2}) == BordismElement(PINM, ())


def _package_lines(pattern, skip=()):
    """'file:line: text' for each line of the package matching pattern."""
    package = Path(bordism.__file__).parent
    return [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name not in skip
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]


def test_coordinate_layout_lives_in_bordism():
    # outside bordism.py, [P] is read by generator name, never by position
    assert _package_lines(r"\b(coords|rep)\[", skip=("bordism.py",)) == []


def test_values_have_one_constructor():
    # a BordismElement or Invariants is built only through its checked
    # constructor, and the six GroupKinds only once, in bordism.KINDS
    assert _package_lines(r"object\.__new__") == []
    built = [hit.split(": ", 1)[1] for hit in _package_lines(r"\bGroupKind\(")]
    assert built == ["KINDS = {key: GroupKind(*key) for key in GROUP_TABLE}"]
    assert all(bordism.KINDS[(k.category, k.flavor)] is k for k in ALL_KINDS)
    assert len(ALL_KINDS) == len(bordism.GROUP_TABLE) == 6


def test_add_examples():
    assert add(BordismElement(PINP, (9,)), BordismElement(PINP, (9,))).coords == (2,)
    assert add(BordismElement(PINC, (7, 1)), BordismElement(PINC, (1, 1))).coords == (0, 0)
    assert neg(BordismElement(PINP, (3,))).coords == (13,)


def test_add_kind_mismatch():
    with pytest.raises(KindMismatchError):
        add(BordismElement(PINP, (1,)), BordismElement(PINC, (1, 0)))


def test_coords_are_reduced():
    assert BordismElement(PINP, (-3,)).coords == (13,)
    assert BordismElement(TPINC, (3, 11, 4)).coords == (1, 3, 0)


def test_wrong_coordinate_count():
    with pytest.raises(InputError):
        BordismElement(PINP, (1, 2))


@pytest.mark.parametrize("coord", [2.9, "\u0663", "3", True])
def test_non_int_coordinate_rejected(coord):
    with pytest.raises(InputError):
        BordismElement(PINP, [coord])


@pytest.mark.parametrize("category, flavor", [("smooth", Flavor.PINC), (SPIN, "pinc")])
def test_group_kind_needs_enum_members(category, flavor):
    with pytest.raises(InputError):
        GroupKind(category, flavor)


@st.composite
def _kinds_and_int_coords(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    n = len(kind.orders)
    coords = st.lists(st.integers(-(10**30), 10**30), min_size=n, max_size=n)
    return kind, tuple(draw(coords)), tuple(draw(coords))


@settings(max_examples=300, deadline=None)
@given(_kinds_and_int_coords())
def test_unchecked_constructor_matches_checked_one(kind_coords):
    # add and neg give what the constructor gives on the unreduced results
    kind, xs, ys = kind_coords
    a, b = BordismElement(kind, xs), BordismElement(kind, ys)
    for result, checked in (
        (add(a, b), BordismElement(kind, [x + y for x, y in zip(xs, ys)])),
        (neg(a), BordismElement(kind, [-x for x in xs])),
    ):
        assert result == checked
        assert type(result) is BordismElement and hash(result) == hash(checked)


def test_canonicalize_examples():
    assert canonicalize(BordismElement(PINP, (13,))).rep == (3,)
    assert canonicalize(BordismElement(PINC, (7, 1))).rep == (1, 1)
    assert canonicalize(BordismElement(TPINC, (1, 5, 0))).rep == (1, 3, 0)


def test_canonical_representative_sets():
    # smooth pin+: {0..8}; smooth pinc: {0..4} x {0,1}
    assert {canonicalize(e).rep[0] for e in elements(PINP)} == set(range(9))
    assert {canonicalize(e).rep for e in elements(PINC)} == {
        (q, s) for q in range(5) for s in (0, 1)
    }


def test_forget_smooth_examples():
    assert forget_smooth(BordismElement(PINP, (7,))).coords == (0, 7)
    assert forget_smooth(BordismElement(PINP, (8,))).coords == (0, 0)
    assert forget_smooth(BordismElement(PINC, (1, 1))).coords == (0, 1, 1)
    assert forget_smooth(BordismElement(PINM, ())).coords == (0,)


def test_forget_smooth_matches_hand_map():
    # the map written out per group: KS 0, pin+ class mod 8, pinc unchanged
    hand = {
        PINP: lambda c: (0, c[0] % 8),
        PINC: lambda c: (0, c[0], c[1]),
        PINM: lambda c: (0,),
    }
    targets = {PINP: TPINP, PINC: TPINC, PINM: TPINM}
    for kind, image in hand.items():
        for e in elements(kind):
            assert forget_smooth(e) == BordismElement(targets[kind], image(e.coords))


def test_forget_smooth_rejects_top():
    with pytest.raises(KindMismatchError):
        forget_smooth(BordismElement(TPINP, (0, 1)))


def test_forget_smooth_kernel_is_order_two():
    # the order-2 ambiguity: exactly 0 and 8 die in the topological group
    kernel = [
        e.coords[0]
        for e in elements(PINP)
        if forget_smooth(e).coords == (0, 0)
    ]
    assert kernel == [0, 8]


def test_forget_smooth_is_homomorphism():
    for kind in ALL_KINDS:
        if kind.category is not SPIN:
            continue
        for a in elements(kind):
            for b in elements(kind):
                assert forget_smooth(add(a, b)) == add(
                    forget_smooth(a), forget_smooth(b)
                )


def test_render_parse_round_trip():
    for kind in ALL_KINDS:
        for e in elements(kind):
            assert parse_element(render_element(e)) == e


def test_parse_element_formats():
    assert parse_element("pin+:7") == BordismElement(PINP, (7,))
    assert parse_element("pinc:(1,1)") == BordismElement(PINC, (1, 1))
    assert parse_element("top-pin+:(1,3)") == BordismElement(TPINP, (1, 3))
    assert parse_element("pin-:()") == BordismElement(PINM, ())
    with pytest.raises(InputError):
        parse_element("pin*:3")
    with pytest.raises(InputError):
        parse_element("pin+")
    with pytest.raises(InputError):
        kind_from_name("spin")


@pytest.mark.parametrize("name", ["PIN+", " pin+", "pin+ ", "TOP-PinC", "Pinc", "pin+\n"])
def test_kind_from_name_takes_only_the_exact_name(name):
    with pytest.raises(InputError):
        kind_from_name(name)
    assert kind_from_name(name.strip().lower()).name == name.strip().lower()


@pytest.mark.parametrize("text", ["PIN+:3", " PIN+:3", "pin+ :3", "Top-Pin+:(1,3)"])
def test_parse_element_takes_only_the_exact_group_name(text):
    with pytest.raises(InputError):
        parse_element(text)


@pytest.mark.parametrize(
    "text", ["pinc:(1,,1)", "pinc:(1,1,)", "pinc:(,1)", "pinc:1,,1", "pin+:(,)", "pin+:( ,)"]
)
def test_parse_element_rejects_an_empty_coordinate(text):
    with pytest.raises(InputError):
        parse_element(text)


def test_parse_element_reads_an_empty_list_as_no_coordinates():
    for text in ("pin-:()", "pin-:", "pin-: ( ) "):
        assert parse_element(text) == BordismElement(PINM, ())
    with pytest.raises(InputError):
        parse_element("pin+:")


def test_render_formats():
    assert render_element(BordismElement(PINP, (7,))) == "pin+:7"
    assert render_element(BordismElement(PINC, (1, 1))) == "pinc:(1,1)"
    assert render_element(BordismElement(PINM, ())) == "pin-:()"
    assert render_element(BordismElement(TPINM, (1,))) == "top-pin-:1"


def test_ascii_int():
    assert ascii_int("7") == 7
    assert ascii_int(" -12 ") == -12
    assert ascii_int("+3") == 3
    for text in ("\u0663", "1\u0660", "1_0", "", "+", "1.0", "0x1", "\u00b2", " 1 2"):
        with pytest.raises(ValueError):
            ascii_int(text)


def test_parse_element_rejects_non_ascii_digits():
    assert parse_element("pin+:3").coords == (3,)
    for text in ("pin+:\u0663", "pinc:(\u0661,1)", "pinc:(1,1_0)"):
        with pytest.raises(InputError):
            parse_element(text)
