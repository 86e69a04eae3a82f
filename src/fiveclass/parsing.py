"""Parser and renderer for the manifold-expression grammar.

    expr := term (('#' | '#~') term)*
    term := one of the tokens in TERMS

Whitespace is insignificant; '#~' marks framing bit 1 at the join.  The
parser makes one regex match per token: an optional join, then any term,
whose outer group names the block type.  Only when no token matches are the
terms tried piece by piece, to build a syntax error with the byte offset
and the expected-token set.  An integer field longer than int() converts
(sys.get_int_max_str_digits()) is a semantic error at the field's offset.
The category is inferred: topological when any topological-only block
occurs, smooth otherwise.  A top-level expression must have fundamental
group Z/2, so it needs at least one block with pi_1 = Z/2.
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


def _piece_regex(piece: str) -> str:
    """Regex for one piece and the whitespace after it; a field is a group."""
    return ("([+-]?[0-9]+)" if piece.startswith("{") else re.escape(piece)) + r"\s*"


def _pattern(pieces: tuple[str, ...]) -> re.Pattern:
    """Regex for a run of pieces, each followed by optional whitespace."""
    return re.compile("".join(map(_piece_regex, pieces)))


def _token_pattern() -> tuple[re.Pattern, dict]:
    """One regex for a token: an optional join (group 1), then the first term
    of TERMS that matches.  Each term is an outer group around its field
    groups, so m.lastindex is the term's group; the table maps it to the
    block type and the (field name, group) of each field."""
    alternatives, table, group = [], {}, 1
    for block_type, pieces in TERMS:
        group += 1
        term = group
        fields = []
        for piece in pieces:
            if piece.startswith("{"):
                group += 1
                fields.append((piece[1:-1], group))
        alternatives.append("(" + "".join(map(_piece_regex, pieces)) + ")")
        table[term] = (block_type, tuple(fields))
    return re.compile(r"(?:(#~?)\s*)?(?:" + "|".join(alternatives) + ")"), table


_TOKEN, _TERM_OF_GROUP = _token_pattern()
_FORMAT = {block_type: "".join(pieces) for block_type, pieces in TERMS}
_SPACE = re.compile(r"\s*")
_JOIN = re.compile(r"(#~?)\s*")


def _syntax_error(text: str, pos: int, first: bool) -> ExpressionSyntaxError:
    """Why no token matches at pos: a join is missing after a term, or no term
    follows; then report what each term wanted at the furthest offset
    reached, the whole token if it matched nothing, else its next piece."""
    if not first:
        join = _JOIN.match(text, pos)
        if not join:
            return ExpressionSyntaxError(pos, ("#", "#~"))
        pos = join.end()
    wanted: dict[int, list[str]] = {}
    for _, pieces in TERMS:
        n = len(pieces) - 1
        while not (m := _pattern(pieces[:n]).match(text, pos)):
            n -= 1
        want = _shown(pieces[n]) if n else "".join(map(_shown, pieces))
        wanted.setdefault(m.end(), []).append(want)
    offset = max(wanted)
    return ExpressionSyntaxError(offset, tuple(dict.fromkeys(wanted[offset])))


def _block(m: re.Match) -> Block:
    """The block of the term that the token m matched."""
    term = m.lastindex
    block_type, fields = _TERM_OF_GROUP[term]
    values = {}
    for name, group in fields:
        try:
            values[name] = int(m.group(group))
        except ValueError as exc:  # more digits than int() converts
            raise ExpressionSemanticError(
                f"{name} has too many digits at offset {m.start(group)}"
            ) from exc
    try:
        return block_type(**values)
    except InvalidExpressionError as exc:
        raise ExpressionSemanticError(f"{exc} at offset {m.start(term)}") from exc


def parse_expression(text: str) -> ManifoldExpression:
    pos = _SPACE.match(text).end()
    blocks: list[Block] = []
    framings: list[int] = []
    top = False
    while True:
        first = not blocks
        m = _TOKEN.match(text, pos)
        # the first token is a bare term, each later one a join and a term
        if m is None or (m.group(1) is None) != first:
            raise _syntax_error(text, pos, first)
        if not first:
            framings.append(1 if m.group(1) == "#~" else 0)
        block = _block(m)
        blocks.append(block)
        top = top or block.top_only
        pos = m.end()
        if pos == len(text):
            break
    expr = ManifoldExpression(Category.TOP if top else Category.SMOOTH, blocks, framings)
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
