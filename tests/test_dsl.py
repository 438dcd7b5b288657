"""Textual expression language: golden parses, exact round-trips,
positioned errors."""

import random
from fractions import Fraction

import pytest

import cesaro as c
from cesaro import dsl
from conftest import random_fragment

GOLDEN = [
    ("empty", c.Empty()),
    ("all", c.All()),
    ("explicit{1,4,6}", c.Explicit((1, 4, 6))),
    ("residue 4 {0,2}", c.Residue(4, frozenset({0, 2}))),
    ("blocks geometric 2", c.Blocks(c.Geometric(2))),
    ("blocks poly 3", c.Blocks(c.Poly(3))),
    ("blocks list [0;1,2,4] repeat-last", c.Blocks(c.RunList(0, (1, 2, 4)))),
    ("blocks list [1;2,3] cycle", c.Blocks(c.RunList(1, (2, 3), "cycle"))),
    ("greedy 1/3", c.Greedy(Fraction(1, 3))),
    ("greedy 0.125", c.Greedy(Fraction(1, 8))),
    ("greedy 0.123456789", c.Greedy(Fraction(123456789, 10**9))),
    ("predicate primes", c.Predicate("primes")),
    (
        "union(residue 2 {0}, explicit{3})",
        c.Union(c.Residue(2, frozenset({0})), c.Explicit((3,))),
    ),
    ("inter(all, empty)", c.Inter(c.All(), c.Empty())),
    ("diff(all, empty)", c.Diff(c.All(), c.Empty())),
    ("symdiff(all, empty)", c.SymDiff(c.All(), c.Empty())),
    ("compl(residue 3 {1})", c.Compl(c.Residue(3, frozenset({1})))),
    (
        "midpoint(residue 4 {0}, residue 2 {0})",
        c.Midpoint(c.Residue(4, frozenset({0})), c.Residue(2, frozenset({0}))),
    ),
    ("dilate 2 blocks geometric 2", c.Dilate(2, c.Blocks(c.Geometric(2)))),
    ("shift 3 residue 2 {1}", c.Shift(3, c.Residue(2, frozenset({1})))),
]


@pytest.mark.parametrize("text,expected", GOLDEN, ids=[t for t, _ in GOLDEN])
def test_golden_parse(text, expected):
    assert c.parse_expr(text) == expected


def test_whitespace_insensitive():
    a = c.parse_expr("union ( residue 2 { 0 } , explicit { 3 , 7 } )")
    b = c.parse_expr("union(residue 2{0},explicit{3,7})")
    assert a == b


def test_explicit_duplicates_collapse():
    assert c.parse_expr("explicit{3,1,3}") == c.Explicit((1, 3))
    assert c.parse_expr("explicit{}") == c.Explicit(())


def test_round_trip_specials_and_fragments():
    rng = random.Random(271828)
    exprs = [e for _, e in GOLDEN] + [random_fragment(rng, 3) for _ in range(60)]
    for e in exprs:
        assert c.parse_expr(c.format_expr(e)) == e, e


def test_greedy_decimal_is_exact():
    g = c.parse_expr("greedy 0.1")
    assert g.target == Fraction(1, 10)  # not the binary float value


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "residue 4",
        "residue 4 {4}",
        "union(all)",
        "blocks list [0;1,0]",
        "blocks geometric 1",
        "blocks list [0;] cycle",
        "greedy 5/3",
        "dilate 0 all",
        "frobnicate",
        "all all",  # trailing input
    ],
)
def test_parse_errors(bad):
    with pytest.raises(c.ParseError):
        c.parse_expr(bad)


def test_parse_error_reports_position():
    with pytest.raises(c.ParseError) as info:
        c.parse_expr("union(all, frobnicate)")
    assert info.value.position == 11


def test_unknown_predicate_parses_but_fails_at_evaluation():
    e = c.parse_expr("predicate nope")
    with pytest.raises(c.CesaroError):
        c.member(e, 1)


def _positioned_tokenize(text):
    """The earlier tokenizer: every token with its position, checking the
    text between consecutive tokens as it goes."""
    tokens = []
    pos = 0
    for m in dsl._TOKEN_RE.finditer(text):
        between = text[pos : m.start()]
        if between.strip():
            raise c.ParseError(f"unexpected character {between.strip()[0]!r}", pos)
        tokens.append((m.group(), m.start()))
        pos = m.end()
    if text[pos:].strip():
        raise c.ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
    return tokens


class _PositionedParser(dsl._Parser):
    def __init__(self, text):
        self.text = text
        self.positioned = _positioned_tokenize(text)
        self.tokens = [tok for tok, _ in self.positioned]
        self.i = 0

    def error(self, message):
        i = self.i
        raise c.ParseError(message, self.positioned[i][1] if i < len(self.tokens) else len(self.text))


def _parse_with_positions(text):
    parser = _PositionedParser(text)
    if not parser.tokens:
        raise c.ParseError("empty expression", 0)
    e = parser.expr()
    if parser.i != len(parser.tokens):
        parser.error("trailing input after expression")
    return e


MALFORMED = [
    "",
    "   ",
    "\t\n",
    "@",
    "all @",
    "  all  #",
    "residue 4 {0,2} !",
    "union(all, empty)?",
    "union(all, empty",
    "union(all empty)",
    "inter(residue 2 {0}, compl(residue 3 {1})",
    "compl(all",
    "compl all)",
    "residue x {0}",
    "residue 4 {a}",
    "residue 4 {0,}",
    "residue 4 {0 2}",
    "residue 4 {0,2",
    "residue -4 {0}",
    "dilate -1 all",
    "shift 1.5 all",
    "greedy 1/0",
    "greedy 1/",
    "greedy 0.x",
    "greedy 0.",
    "greedy 3/2",
    "explicit{1,2,x}",
    "explicit{1;2}",
    "explicit{0}",
    "blocks geometric",
    "blocks list [0;1,2 cycle",
    "blocks list [0 1] cycle",
    "blocks triangle 3",
    "résidue 4 {0}",
    "union(all,\u00a0empty)\u00a0$",
    "all\u2003all",
    "symdiff(all, empty))",
    "midpoint(all, empty, all)",
]


@pytest.mark.parametrize("bad", MALFORMED, ids=[repr(b) for b in MALFORMED])
def test_parse_error_matches_positioned_tokenizer(bad):
    with pytest.raises(c.ParseError) as want:
        _parse_with_positions(bad)
    with pytest.raises(c.ParseError) as got:
        c.parse_expr(bad)
    assert (str(got.value), got.value.position) == (str(want.value), want.value.position)


def test_tokens_match_positioned_tokenizer():
    rng = random.Random(161803)
    texts = [t for t, _ in GOLDEN] + [c.format_expr(random_fragment(rng, 3)) for _ in range(40)]
    for text in texts:
        spaced = text.replace(",", " ,\t").replace("(", "( ")
        for t in (text, spaced):
            assert dsl._tokenize(t) == [tok for tok, _ in _positioned_tokenize(t)]
