"""Parser and renderer for the manifold-expression grammar.

    expr := term (('#' | '#~') term)*
    term := one of the tokens in TERMS

Whitespace is insignificant; '#~' marks framing bit 1 at the join.  Syntax
errors carry the byte offset and the expected-token set.  The category is
inferred: topological when any topological-only block occurs, smooth
otherwise.  A top-level expression must have fundamental group Z/2, so it
needs at least one block with pi_1 = Z/2.
"""

from __future__ import annotations

import re

from .algebra import (
    CP2xS1,
    Block,
    Category,
    FakeRP5,
    FakeRP5Top,
    ManifoldExpression,
    S2xRP3,
    S2xS2xS1,
    StarS2xRP3,
)
from .errors import (
    ExpressionSemanticError,
    ExpressionSyntaxError,
    InvalidExpressionError,
)

# The token of each block type, as pieces that whitespace may separate: a
# literal, or a {field} slot that holds the block's integer field (an
# optionally signed ASCII integer).  This one table drives the parser, the
# expected-token sets of its syntax errors and render_block.
TERMS: tuple[tuple[type, tuple[str, ...]], ...] = (
    (FakeRP5, ("X", "(", "{q}", ")")),
    (FakeRP5Top, ("X", "(", "{p}", ",", "{q}", ")")),
    (S2xRP3, ("S2xRP3",)),
    (StarS2xRP3, ("*S2xRP3",)),
    (CP2xS1, ("CP2xS1",)),
    (S2xS2xS1, ("{k}", "*(S2xS2)xS1")),
)


def _shown(piece: str) -> str:
    return "<int>" if piece.startswith("{") else piece


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
_FORMAT = {block_type: "".join(pieces) for block_type, pieces in TERMS}
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


def parse_expression(text: str) -> ManifoldExpression:
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


def render_block(b: Block) -> str:
    return _FORMAT[type(b)].format_map(vars(b))


def render_expression(e: ManifoldExpression) -> str:
    parts = [render_block(e.blocks[0])]
    for bit, block in zip(e.framings, e.blocks[1:]):
        parts.append("#~" if bit else "#")
        parts.append(render_block(block))
    return " ".join(parts)
