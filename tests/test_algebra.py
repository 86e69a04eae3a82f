"""Tests for the join algebra: invariants, normalization, enumeration,
equivalence levels, parity relations."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _contribution,
    fold_p_class,
    positional_check_relations,
    positional_ks,
    positional_q,
    positional_s,
    positional_standard_form,
    walk_invariants,
)

from fiveclass import algebra, bordism
from fiveclass.algebra import (
    CP2xS1,
    Category,
    FakeRP5,
    FakeRP5Top,
    Level,
    ManifoldExpression,
    S2xRP3,
    S2xS2xS1,
    StandardForm,
    StarS2xRP3,
    W2Type,
    check_relations,
    connected_sum,
    enumerate_forms,
    equivalent,
    invariants,
    normalize,
)
from fiveclass.errors import (
    CategoryMismatchError,
    ConsistencyError,
    InvalidExpressionError,
    NonIntegralKError,
    StarInSmoothError,
)
from fiveclass.parsing import parse_expression


def smooth(*blocks, framings=None):
    return ManifoldExpression(Category.SMOOTH, blocks, framings)


def top(*blocks, framings=None):
    return ManifoldExpression(Category.TOP, blocks, framings)


# -- invariants -----------------------------------------------------------------

def test_invariants_fake_rp5():
    inv = invariants(smooth(FakeRP5(1)))
    assert (inv.category, inv.w2type, inv.r) == (Category.SMOOTH, W2Type.III, 0)
    assert inv.p_class.coords == (1,)


def test_invariants_two_s2xrp3():
    inv = invariants(smooth(S2xRP3(), S2xRP3()))
    assert (inv.w2type, inv.r) == (W2Type.II, 3)
    assert inv.p_class.coords == ()


def test_invariants_type_one():
    inv = invariants(smooth(FakeRP5(1), CP2xS1()))
    assert (inv.w2type, inv.r) == (W2Type.I, 1)
    assert inv.p_class.coords == (1, 1)


def test_invariants_rank_rule_mixed_pi1():
    # a Z join adds ranks, a Z/2-Z/2 join adds ranks plus one
    inv = invariants(smooth(S2xRP3(), S2xS2xS1(3)))
    assert inv.r == 1 + 6
    inv = invariants(smooth(S2xRP3(), S2xRP3(), S2xS2xS1(3)))
    assert inv.r == 1 + 1 + 6 + 1


def test_invariants_rejects_pi1_z():
    with pytest.raises(InvalidExpressionError):
        invariants(smooth(CP2xS1()))


def test_star_only_topological():
    with pytest.raises(StarInSmoothError):
        smooth(StarS2xRP3())
    with pytest.raises(InvalidExpressionError):
        smooth(FakeRP5Top(0, 1))
    inv = invariants(top(StarS2xRP3()))
    assert (inv.w2type, inv.r, inv.ks) == (W2Type.II, 1, 1)


def test_even_fake_has_rank_one():
    assert invariants(smooth(FakeRP5(2))).r == 1
    assert invariants(smooth(FakeRP5(0))).r == 1
    assert invariants(top(FakeRP5Top(1, 4))).r == 1


def test_top_invariants_carry_ks():
    inv = invariants(top(FakeRP5Top(1, 3), S2xS2xS1(1)))
    assert (inv.w2type, inv.r, inv.ks, inv.q) == (W2Type.III, 2, 1, 3)
    inv = invariants(top(FakeRP5Top(1, 1), StarS2xRP3()))
    # KS bits add: 1 + 1 = 0
    assert (inv.w2type, inv.ks, inv.q, inv.s) == (W2Type.I, 0, 1, 0)


# -- connected sums and framings --------------------------------------------------

def test_connected_sum_category_mismatch():
    with pytest.raises(CategoryMismatchError):
        connected_sum(smooth(FakeRP5(1)), top(FakeRP5Top(0, 1)))


def test_connected_sum_needs_z2_somewhere():
    a = smooth(CP2xS1())
    b = smooth(S2xS2xS1(1))
    with pytest.raises(InvalidExpressionError):
        connected_sum(a, b)
    # fine as soon as one side has a Z/2 block
    c = connected_sum(a, smooth(FakeRP5(1)))
    assert invariants(c).w2type is W2Type.I


def test_connected_sum_commutative_up_to_normalize():
    a = smooth(FakeRP5(3))
    b = smooth(FakeRP5(1), S2xRP3())
    for f in (0, 1):
        assert normalize(connected_sum(a, b, f)) == normalize(connected_sum(b, a, f))


# -- normalize ---------------------------------------------------------------------

def test_normalize_three_s2xrp3():
    # rank oracle: 1+1+1 blocks + 2 joins = 5, type II, so k = (5-1)/2 = 2
    form = normalize(smooth(S2xRP3(), S2xRP3(), S2xRP3()))
    assert (form.w2type, form.r, form.k) == (W2Type.II, 5, 2)
    assert form.text() == "S2xRP3 # 2*(S2xS2)xS1"


def test_normalize_type_three_with_stabilization():
    form = normalize(smooth(FakeRP5(3), S2xS2xS1(1)))
    assert (form.w2type, form.q, form.k, form.r) == (W2Type.III, 3, 1, 2)


def test_normalize_signed_class():
    form = normalize(smooth(FakeRP5(13)))
    assert (form.q, form.k) == (3, 0)
    assert form.text() == "X(3)"


def test_normalize_idempotent():
    exprs = [
        smooth(FakeRP5(5), S2xRP3(), S2xS2xS1(2)),
        smooth(FakeRP5(1), FakeRP5(3), CP2xS1(), framings=(1, 0)),
        top(FakeRP5Top(1, 2), StarS2xRP3()),
    ]
    for e in exprs:
        form = normalize(e)
        assert normalize(form.expression()) == form


# -- enumerate ---------------------------------------------------------------------

def test_enumerate_smooth_rank_zero():
    forms_ = [f for f in enumerate_forms(0, Category.SMOOTH)]
    assert [f.text() for f in forms_] == ["X(1)", "X(3)", "X(5)", "X(7)"]


def test_enumerate_smooth_rank_one_type_two():
    forms_ = [
        f
        for f in enumerate_forms(1, Category.SMOOTH, W2Type.II)
        if f.r == 1
    ]
    assert len(forms_) == 1 and forms_[0].k == 0


def test_enumerate_smooth_rank_one_type_one():
    # oracle: scan of the parameter ranges under the rank formulas gives
    # exactly the CP2xS1 family with q in {1, 3}
    forms_ = [
        f
        for f in enumerate_forms(1, Category.SMOOTH, W2Type.I)
        if f.r == 1
    ]
    assert [(f.q, f.s, f.k) for f in forms_] == [(1, 1, 0), (3, 1, 0)]


def test_enumerate_pairwise_distinct_invariants():
    for category in (Category.SMOOTH, Category.TOP):
        seen = set()
        for f in enumerate_forms(8, category):
            inv = f.invariants()
            key = (inv.w2type, inv.r, inv.canonical().rep)
            assert key not in seen, f.text()
            seen.add(key)


def test_enumerate_round_trips_through_normalize():
    for category in (Category.SMOOTH, Category.TOP):
        for f in enumerate_forms(7, category):
            assert normalize(f.expression()) == f


def test_enumerate_respects_r_max_and_order():
    forms_ = enumerate_forms(6, Category.TOP)
    assert all(f.r <= 6 for f in forms_)
    rs = [f.r for f in forms_]
    assert rs == sorted(rs)


# -- relations ----------------------------------------------------------------------

def test_check_relations_examples():
    assert check_relations(invariants(smooth(S2xRP3(), S2xRP3())))  # II, r=3
    bad = algebra.Invariants(
        Category.SMOOTH,
        W2Type.III,
        0,
        bordism.BordismElement(
            bordism.GroupKind(bordism.Category.SMOOTH, bordism.Flavor.PIN_PLUS), (2,)
        ),
    )
    assert not check_relations(bad)  # q + r = 2, even
    good = invariants(smooth(FakeRP5(1), CP2xS1()))  # I: q=1, s=1, r=1
    assert check_relations(good)


# -- [P] read and built by generator name ------------------------------------------

def _invariants_over_every_group(r_values):
    """Invariants for every element of each of the six groups, with the
    (category, w2-type) that uses the group, at each r in r_values."""
    for category, w2type in product(Category, W2Type):
        kind = bordism.GroupKind(category, algebra.FLAVOR_FOR_TYPE[w2type])
        for e in bordism.elements(kind):
            for r in r_values:
                yield algebra.Invariants(category, w2type, r, e)


def test_named_reads_match_positional_oracle():
    for inv in _invariants_over_every_group(range(4)):
        named = (inv.ks, inv.q, inv.s)
        assert named == (positional_ks(inv), positional_q(inv), positional_s(inv)), inv
        assert check_relations(inv) == positional_check_relations(inv), inv


def test_standard_form_from_invariants_matches_positional_oracle():
    # r = 0..5 holds an r that admits a family, for each class
    admitted = set()
    for inv in _invariants_over_every_group(range(6)):
        try:
            expected = positional_standard_form(inv)
        except NonIntegralKError:
            with pytest.raises(NonIntegralKError):
                algebra.standard_form_from_invariants(inv)
            continue
        assert algebra.standard_form_from_invariants(inv) == expected, inv
        admitted.add(inv.p_class)
    assert len(admitted) == sum(k.group_order for k in bordism.ALL_KINDS) == 83


def test_unchecked_invariants_match_checked_ones():
    for inv in _invariants_over_every_group((0, 3)):
        gens = inv.p_class.kind.generators
        named = dict(zip(gens, inv.p_class.coords))
        fast = algebra._invariants(inv.category, inv.w2type, inv.r, named)
        assert fast == inv and hash(fast) == hash(inv)


_TPINP_13 = bordism.BordismElement(bordism.kind_from_name("top-pin+"), (1, 3))


@pytest.mark.parametrize(
    "category, w2type, r, p_class",
    [
        ("top", W2Type.III, 0, _TPINP_13),  # category as a string
        (Category.TOP, "III", 0, _TPINP_13),  # w2-type as a string
        (Category.TOP, W2Type.I, 0, _TPINP_13),  # type I needs top-pinc
        (Category.SMOOTH, W2Type.III, 0, _TPINP_13),  # smooth needs pin+
        (Category.TOP, W2Type.III, 0, (1, 3)),  # not a BordismElement
        (Category.TOP, W2Type.III, 1.0, _TPINP_13),
        (Category.TOP, W2Type.III, True, _TPINP_13),
        (Category.TOP, W2Type.III, -1, _TPINP_13),
    ],
)
def test_invariants_checks_its_fields(category, w2type, r, p_class):
    with pytest.raises(InvalidExpressionError):
        algebra.Invariants(category, w2type, r, p_class)


_BLOCK_VOCAB_SMOOTH = [
    FakeRP5(0),
    FakeRP5(1),
    FakeRP5(2),
    FakeRP5(3),
    FakeRP5(8),
    S2xRP3(),
    CP2xS1(),
    S2xS2xS1(1),
]

_BLOCK_VOCAB_TOP = _BLOCK_VOCAB_SMOOTH + [
    FakeRP5Top(0, 1),
    FakeRP5Top(1, 2),
    StarS2xRP3(),
]


def _expressions(category, vocab, max_blocks=3):
    for size in range(1, max_blocks + 1):
        for blocks in combinations_with_replacement(vocab, size):
            if not any(b.has_z2 for b in blocks):
                continue
            for framings in product((0, 1), repeat=size - 1):
                yield ManifoldExpression(category, blocks, framings)


def test_relations_hold_for_all_small_expressions():
    checked = 0
    for category, vocab in (
        (Category.SMOOTH, _BLOCK_VOCAB_SMOOTH),
        (Category.TOP, _BLOCK_VOCAB_TOP),
    ):
        for e in _expressions(category, vocab):
            inv = invariants(e)
            assert check_relations(inv), e
            form = normalize(e)
            # the standard form realizes exactly the same invariants
            inv2 = form.invariants()
            assert (inv2.w2type, inv2.r, inv2.canonical()) == (
                inv.w2type,
                inv.r,
                inv.canonical(),
            )
            checked += 1
    assert checked > 500


# -- equivalence ---------------------------------------------------------------------

def _form(category, w2type, k, **kw):
    return StandardForm(category, w2type, k, **kw)


def test_equivalent_examples():
    x1 = _form(Category.SMOOTH, W2Type.III, 0, q=1)
    x7 = _form(Category.SMOOTH, W2Type.III, 0, q=7)
    x3 = _form(Category.SMOOTH, W2Type.III, 0, q=3)
    assert not equivalent(x1, x7, Level.DIFFEO)
    assert equivalent(x1, x7, Level.HOMEO)
    assert equivalent(x1, x3, Level.HOMOTOPY)


def test_equivalent_requires_smooth_for_diffeo():
    a = _form(Category.TOP, W2Type.III, 0, q=1, p=0)
    with pytest.raises(CategoryMismatchError):
        equivalent(a, a, Level.DIFFEO)


def test_homeo_partition_of_fake_rp5s():
    fakes = {q: _form(Category.SMOOTH, W2Type.III, 0, q=q) for q in (1, 3, 5, 7)}
    pairs = [(a, b) for a in fakes for b in fakes if a < b]
    homeo = {(a, b) for a, b in pairs if equivalent(fakes[a], fakes[b], Level.HOMEO)}
    assert homeo == {(1, 7), (3, 5)}
    for a, b in pairs:
        assert not equivalent(fakes[a], fakes[b], Level.DIFFEO)
        assert equivalent(fakes[a], fakes[b], Level.HOMOTOPY)


def test_homotopy_type_one_bit_is_s():
    # same r, both type I, opposite w2^2 coordinate: not homotopy equivalent
    a = _form(Category.SMOOTH, W2Type.I, 0, q=1, s=0)  # X(1) # S2xRP3, r=2
    b = _form(Category.SMOOTH, W2Type.I, 0, q=0, s=1)  # X(0) # CP2xS1, r=2
    assert a.r == b.r == 2
    assert not equivalent(a, b, Level.HOMOTOPY)
    # same family, same r: homotopy equivalent even with different q
    c = _form(Category.SMOOTH, W2Type.I, 0, q=3, s=0)
    assert equivalent(a, c, Level.HOMOTOPY)
    assert not equivalent(a, c, Level.DIFFEO)


def test_equivalence_hierarchy_small():
    forms_ = enumerate_forms(4, Category.SMOOTH) + enumerate_forms(4, Category.TOP)
    for a in forms_:
        for b in forms_:
            both_smooth = Category.TOP not in (a.category, b.category)
            h = equivalent(a, b, Level.HOMEO)
            ht = equivalent(a, b, Level.HOMOTOPY)
            if both_smooth and equivalent(a, b, Level.DIFFEO):
                assert h
            if h:
                assert ht


def test_smooth_vs_top_homeo_comparison():
    xs = _form(Category.SMOOTH, W2Type.III, 1, q=1)
    xt = _form(Category.TOP, W2Type.III, 1, q=1, p=0)
    assert equivalent(xs, xt, Level.HOMEO)
    xt1 = _form(Category.TOP, W2Type.III, 1, q=1, p=1)
    assert not equivalent(xs, xt1, Level.HOMEO)
    assert equivalent(xs, xt1, Level.HOMOTOPY)


# -- standard form validation ----------------------------------------------------------

def test_standard_form_parameter_ranges():
    with pytest.raises(InvalidExpressionError):
        StandardForm(Category.SMOOTH, W2Type.III, 0, q=9)
    with pytest.raises(InvalidExpressionError):
        StandardForm(Category.TOP, W2Type.III, 0, q=5, p=0)
    with pytest.raises(InvalidExpressionError):
        StandardForm(Category.SMOOTH, W2Type.I, 0, q=1)  # missing s
    with pytest.raises(InvalidExpressionError):
        StandardForm(Category.TOP, W2Type.II, 0)  # missing p
    with pytest.raises(InvalidExpressionError):
        StandardForm(Category.SMOOTH, W2Type.II, 0, p=1)


def test_parse_expression_matches_direct_construction():
    e = parse_expression("X(3) # S2xRP3 # 2*(S2xS2)xS1")
    assert invariants(e) == invariants(smooth(FakeRP5(3), S2xRP3(), S2xS2xS1(2)))


# -- single sources: block contributions, standard forms, public names ------------------

_G = bordism.GroupKind
_S, _T = Category.SMOOTH, Category.TOP
_F = bordism.Flavor

# (block, group) -> coordinates, for every block allowed in each of the six groups
_CONTRIBUTIONS = {
    _G(_S, _F.PIN_PLUS): {
        FakeRP5(13): (13,), S2xRP3(): (0,), CP2xS1(): (0,), S2xS2xS1(2): (0,),
    },
    _G(_S, _F.PINC): {
        FakeRP5(13): (5, 0), S2xRP3(): (0, 0), CP2xS1(): (0, 1), S2xS2xS1(2): (0, 0),
    },
    _G(_S, _F.PIN_MINUS): {
        FakeRP5(13): (), S2xRP3(): (), CP2xS1(): (), S2xS2xS1(2): (),
    },
    _G(_T, _F.PIN_PLUS): {
        FakeRP5(13): (0, 5), FakeRP5Top(1, 3): (1, 3), S2xRP3(): (0, 0),
        StarS2xRP3(): (1, 0), CP2xS1(): (0, 0), S2xS2xS1(2): (0, 0),
    },
    _G(_T, _F.PINC): {
        FakeRP5(13): (0, 5, 0), FakeRP5Top(1, 3): (1, 3, 0), S2xRP3(): (0, 0, 0),
        StarS2xRP3(): (1, 0, 0), CP2xS1(): (0, 0, 1), S2xS2xS1(2): (0, 0, 0),
    },
    _G(_T, _F.PIN_MINUS): {
        FakeRP5(13): (0,), FakeRP5Top(1, 3): (1,), S2xRP3(): (0,),
        StarS2xRP3(): (1,), CP2xS1(): (0,), S2xS2xS1(2): (0,),
    },
}


def test_block_contributions_table():
    assert set(_CONTRIBUTIONS) == set(bordism.ALL_KINDS)
    for kind, table in _CONTRIBUTIONS.items():
        for block, coords in table.items():
            assert _contribution(block, kind).coords == coords, (block, kind)


_SMOOTH_BLOCKS = st.one_of(
    st.builds(FakeRP5, st.integers(-10**6, 10**6)),
    st.just(S2xRP3()),
    st.just(CP2xS1()),
    st.builds(S2xS2xS1, st.integers(1, 10**6)),
)
_TOP_BLOCKS = st.one_of(
    _SMOOTH_BLOCKS,
    st.builds(FakeRP5Top, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    st.just(StarS2xRP3()),
)


@st.composite
def _joins(draw, category=None):
    category = category or draw(st.sampled_from(Category))
    vocab = _TOP_BLOCKS if category is Category.TOP else _SMOOTH_BLOCKS
    blocks = draw(
        st.lists(vocab, min_size=1, max_size=64).filter(lambda bs: any(b.has_z2 for b in bs))
    )
    n = len(blocks) - 1
    framings = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return ManifoldExpression(category, blocks, framings)


@settings(max_examples=200, deadline=None)
@given(_joins())
def test_p_class_matches_per_block_fold(e):
    assert invariants(e).p_class == fold_p_class(e)


@settings(max_examples=200, deadline=None)
@given(_joins())
def test_invariants_match_block_walk(e):
    assert invariants(e) == walk_invariants(e)


@st.composite
def _connected_sums(draw):
    category = draw(st.sampled_from(Category))
    a, b = draw(_joins(category)), draw(_joins(category))
    return connected_sum(a, b, draw(st.integers(0, 1)))


@settings(max_examples=100, deadline=None)
@given(_connected_sums())
def test_invariants_of_connected_sums_match_block_walk(e):
    assert invariants(e) == walk_invariants(e)


def test_block_ranks_and_fundamental_groups():
    ranks = {
        FakeRP5(13): (0, True), FakeRP5(8): (1, True), FakeRP5Top(1, 3): (0, True),
        FakeRP5Top(0, 2): (1, True), S2xRP3(): (1, True), StarS2xRP3(): (1, True),
        CP2xS1(): (1, False), S2xS2xS1(3): (6, False),
    }
    for block, (rank, z2) in ranks.items():
        assert (block.rank, block.has_z2) == (rank, z2), block


def test_standard_form_invariants_match_their_expression():
    for category in (Category.SMOOTH, Category.TOP):
        for f in enumerate_forms(12, category):
            assert f.invariants() == invariants(f.expression()), f.text()


@pytest.mark.parametrize(
    "make",
    [
        lambda: FakeRP5(2.9),
        lambda: FakeRP5("\u0663"),
        lambda: FakeRP5(True),
        lambda: FakeRP5Top(1.0, 3),
        lambda: FakeRP5Top(1, "3"),
        lambda: S2xS2xS1("\u0663"),
        lambda: S2xS2xS1(2.0),
        lambda: smooth(FakeRP5(1), FakeRP5(1), framings=[1.5]),
        lambda: smooth(FakeRP5(1), FakeRP5(1), framings=[True]),
        lambda: connected_sum(smooth(FakeRP5(1)), smooth(FakeRP5(1)), "1"),
    ],
)
def test_non_int_block_fields_and_framings_rejected(make):
    with pytest.raises(InvalidExpressionError):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: StandardForm(Category.SMOOTH, W2Type.III, 1.5, q=1),
        lambda: StandardForm(Category.SMOOTH, W2Type.III, 1, q=True),
        lambda: StandardForm(Category.SMOOTH, W2Type.I, 0, q=1, s=1.0),
        lambda: StandardForm(Category.TOP, W2Type.II, 2, p=True),
        lambda: StandardForm("smooth", W2Type.III, 1, q=1),
        lambda: StandardForm(Category.SMOOTH, "III", 1, q=1),
    ],
    ids=["k", "q", "s", "p", "category", "w2type"],
)
def test_non_int_standard_form_fields_rejected(make):
    with pytest.raises(InvalidExpressionError):
        make()


@pytest.mark.parametrize("category", ["smooth", "top", None])
def test_expression_category_must_be_the_enum(category):
    # a plain "smooth" skipped the smooth-only check and dropped the KS bit
    with pytest.raises(InvalidExpressionError):
        ManifoldExpression(category, [StarS2xRP3(), FakeRP5Top(1, 3)])


def test_standard_form_from_inconsistent_invariants_is_consistency_error():
    # type II needs odd r; r = 2 matches no family
    kind = bordism.GroupKind(Category.SMOOTH, bordism.Flavor.PIN_MINUS)
    inv = algebra.Invariants(Category.SMOOTH, W2Type.II, 2, bordism.zero(kind))
    with pytest.raises(NonIntegralKError) as exc:
        algebra.standard_form_from_invariants(inv)
    assert isinstance(exc.value, ConsistencyError)


def test_public_names_unchanged():
    import fiveclass

    assert fiveclass.__all__ == [
        "Block", "BordismElement", "BundleInput", "CP2xS1", "CanonicalClass",
        "Category", "Classification", "CohomologyClass", "FakeRP5", "FakeRP5Top",
        "Flavor", "GroupKind", "IntersectionForm", "Invariants", "Level",
        "ManifoldExpression", "S2xRP3", "S2xS2xS1", "StandardForm", "StarS2xRP3",
        "W2Type", "add", "canonicalize", "check_relations", "classify",
        "connected_sum", "enumerate_forms", "equivalent", "forget_smooth",
        "from_blocks", "group_info", "invariants", "is_smoothable",
        "manifold_from_json", "neg", "normalize", "parse_expression",
        "render_expression", "w2_type",
    ]
