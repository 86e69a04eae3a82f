"""Tests for the expression grammar: examples, error offsets, round trips."""

import sys
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import term_loop_parse

from fiveclass.algebra import (
    Block,
    CP2xS1,
    Category,
    FakeRP5,
    FakeRP5Top,
    ManifoldExpression,
    S2xRP3,
    S2xS2xS1,
    StarS2xRP3,
)
from fiveclass.errors import ExpressionSemanticError, ExpressionSyntaxError, InputError
from fiveclass.parsing import TERMS, parse_expression, render_block, render_expression


def test_parse_three_blocks():
    e = parse_expression("X(3) # S2xRP3 # 2*(S2xS2)xS1")
    assert e.blocks == (FakeRP5(3), S2xRP3(), S2xS2xS1(2))
    assert e.framings == (0, 0)
    assert e.category is Category.SMOOTH


def test_parse_framing_bit():
    e = parse_expression("X(1) #~ X(1)")
    assert e.framings == (1,)


def test_parse_rejects_pi1_z():
    with pytest.raises(ExpressionSemanticError):
        parse_expression("CP2xS1")
    with pytest.raises(ExpressionSemanticError):
        parse_expression("CP2xS1 # 2*(S2xS2)xS1")


def test_parse_topological_blocks():
    e = parse_expression("X(1,3) # *S2xRP3")
    assert e.category is Category.TOP
    assert e.blocks == (FakeRP5Top(1, 3), StarS2xRP3())


def test_parse_mixed_smooth_block_in_top_expression():
    e = parse_expression("X(1) # X(0,2)")
    assert e.category is Category.TOP
    assert e.blocks == (FakeRP5(1), FakeRP5Top(0, 2))


def test_parse_classes_reduce_modulo():
    assert parse_expression("X(13)").blocks[0] == FakeRP5(13)
    assert parse_expression("X(-3)").blocks[0] == FakeRP5(13)
    assert parse_expression("X(3,11)").blocks[0] == FakeRP5Top(1, 3)


def test_parse_whitespace_insignificant():
    a = parse_expression("X(1)#S2xRP3")
    b = parse_expression("  X( 1 )  #  S2xRP3 ")
    c = parse_expression("X (1)#S2xRP3")
    assert a == b == c


def test_syntax_error_offsets():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("X(3) @ S2xRP3")
    assert exc.value.offset == 5
    assert "#" in exc.value.expected

    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("X(")
    assert exc.value.offset == 2
    assert "<int>" in exc.value.expected

    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("X(1) # Y")
    assert exc.value.offset == 7

    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("3*(S2xS2)xS2")
    assert exc.value.expected == ("*(S2xS2)xS1",)


def test_count_must_be_positive():
    with pytest.raises(ExpressionSemanticError):
        parse_expression("X(1) # 0*(S2xS2)xS1")
    with pytest.raises(ExpressionSemanticError) as exc:
        parse_expression("X(1) #  -2*(S2xS2)xS1")
    assert str(exc.value).endswith("at offset 8")  # the term's, not the join's


def test_trailing_join_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("X(1) #")


def test_trailing_join_expects_a_term():
    # at end of input every term token is expected, not just '<int>'
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("X(1) # S2xRP3 #")
    assert exc.value.offset == 15
    assert exc.value.expected == (
        "X(<int>)",
        "X(<int>,<int>)",
        "S2xRP3",
        "*S2xRP3",
        "CP2xS1",
        "<int>*(S2xS2)xS1",
    )


def test_non_ascii_digits_are_syntax_errors():
    for text in ("X(\u00b2)", "X(1,\u0663)", "\u00b2*(S2xS2)xS1 # X(1)"):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression(text)
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("X(\u00b2)")
    assert (exc.value.offset, exc.value.expected) == (2, ("<int>",))


def test_unclosed_fake_expects_close_or_comma():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("X(1 # S2xRP3")
    assert (exc.value.offset, exc.value.expected) == (4, (")", ","))


_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_MAX_DIGITS == 0, reason="int() has no digit limit here")
@pytest.mark.parametrize(
    "template, name, sign",
    [
        ("X({})", "q", ""),
        ("S2xRP3 #~ X( 1 , {})", "q", "+"),
        ("X({}, 1)", "p", "-"),
        ("X(1) # {}*(S2xS2)xS1", "k", ""),
    ],
)
def test_over_long_integer_field_is_semantic_error(template, name, sign):
    # one digit more than int() converts, reported at the field
    with pytest.raises(ExpressionSemanticError) as exc:
        parse_expression(template.format(sign + "1" * (_MAX_DIGITS + 1)))
    offset = template.index("{}")
    assert str(exc.value) == f"{name} has too many digits at offset {offset}"


# -- the one-match parser against the term-by-term oracle ----------------------------

_PIECES = [
    "X", "(", ")", ",", "X(", "X(1)", "X(1,3)", "S2xRP3", "*S2xRP3", "CP2xS1",
    "*(S2xS2)xS1", "0*(S2xS2)xS1", "#~ -1*(S2xS2)xS1", "S2x", "RP3", "*(S2", "xS1", "#",
    "#~", "~", "# ", " ", "\t", "\n",
    "+", "-", "0", "1", "2", "13", "-3", "+7", "\u0663", "\u00b2", "\uff11", "*", "x",
]


def _outcome(parse, text):
    """The parsed expression, or the class, message, offset and expected set
    of the error."""
    try:
        return parse(text)
    except InputError as exc:
        return (
            type(exc), str(exc), getattr(exc, "offset", None), getattr(exc, "expected", None)
        )


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_parse_matches_term_loop_oracle(text):
    assert _outcome(parse_expression, text) == _outcome(term_loop_parse, text)


# -- the token table ------------------------------------------------------------------

_SAMPLE_BLOCKS = {
    FakeRP5(13): "X(13)",
    FakeRP5Top(1, 3): "X(1,3)",
    S2xRP3(): "S2xRP3",
    StarS2xRP3(): "*S2xRP3",
    CP2xS1(): "CP2xS1",
    S2xS2xS1(2): "2*(S2xS2)xS1",
}


def test_token_table_covers_every_block_type():
    assert [t for t, _ in TERMS] == list(get_args(Block))
    assert {type(b) for b in _SAMPLE_BLOCKS} == set(get_args(Block))


def test_render_parse_round_trip_every_token():
    for block, text in _SAMPLE_BLOCKS.items():
        assert render_block(block) == text
        category = Category.TOP if block.top_only else Category.SMOOTH
        expr = ManifoldExpression(category, (FakeRP5(1), block), (1,))
        assert render_expression(expr) == f"X(1) #~ {text}"
        assert parse_expression(render_expression(expr)) == expr


# -- round trip -------------------------------------------------------------------

_Z2_BLOCKS = st.one_of(
    st.integers(0, 15).map(FakeRP5),
    st.builds(FakeRP5Top, st.integers(0, 1), st.integers(0, 7)),
    st.just(S2xRP3()),
    st.just(StarS2xRP3()),
)
_ANY_BLOCKS = st.one_of(
    _Z2_BLOCKS,
    st.just(CP2xS1()),
    st.integers(1, 5).map(S2xS2xS1),
)


@st.composite
def expressions(draw):
    blocks = [draw(_Z2_BLOCKS)]
    blocks += draw(st.lists(_ANY_BLOCKS, max_size=4))
    framings = draw(
        st.lists(
            st.integers(0, 1), min_size=len(blocks) - 1, max_size=len(blocks) - 1
        )
    )
    category = (
        Category.TOP if any(b.top_only for b in blocks) else Category.SMOOTH
    )
    return ManifoldExpression(category, blocks, framings)


@settings(max_examples=200, deadline=None)
@given(expressions())
def test_render_parse_round_trip(expr):
    assert parse_expression(render_expression(expr)) == expr
