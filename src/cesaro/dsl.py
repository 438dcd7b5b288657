"""Textual language for set expressions.

Prefix form, whitespace-insensitive, one expression per string:

    empty | all | explicit{1,4,6} | residue 4 {0,2}
    | blocks geometric 2 | blocks poly 3
    | blocks list [0;1,2,4] repeat-last | blocks list [1;2,3] cycle
    | greedy 1/3 | greedy 0.41421356 | predicate primes
    | union(e,e) | inter(e,e) | compl(e) | diff(e,e) | symdiff(e,e)
    | midpoint(e,e) | dilate 2 e | shift 3 e

Greedy targets accept an exact rational p/q or a decimal literal; decimals
are converted to exact rationals digit-for-digit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exprs import CesaroError, SetExpr, ZSpec


class ParseError(CesaroError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9-]*|\d+|[{}()\[\],;/.]")


def _tokenize(text: str) -> list[str]:
    """The tokens of text, in one regex pass.

    Tokens hold no whitespace, so they cover every other character exactly
    when their concatenation is the text with its whitespace removed.
    Positions are only worked out for an error message.
    """
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens) != "".join(text.split()):
        _token_starts(text)  # raises at the first stray character
    return tokens


def _token_starts(text: str) -> list[int]:
    """Start of every token; ParseError at the first stray character."""
    starts = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        between = text[pos : m.start()]
        if between.strip():
            raise ParseError(f"unexpected character {between.strip()[0]!r}", pos)
        starts.append(m.start())
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
    return starts


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def error(self, message: str):
        if self.i < len(self.tokens):
            pos = _token_starts(self.text)[self.i]
        else:
            pos = len(self.text)
        raise ParseError(message, pos)

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> str:
        if self.i >= len(self.tokens):
            self.error("unexpected end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.peek()
        if got != tok:
            self.error(f"expected {tok!r}, got {got!r}" if got else f"expected {tok!r}")
        self.i += 1

    def integer(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            self.i -= 1
            self.error(f"expected integer, got {tok!r}")
        return int(tok)

    def int_list(self, open_tok: str, close_tok: str) -> list[int]:
        self.expect(open_tok)
        items = []
        if self.peek() != close_tok:
            items.append(self.integer())
            while self.peek() == ",":
                self.take()
                items.append(self.integer())
        self.expect(close_tok)
        return items

    def rational(self) -> Fraction:
        """Integer, p/q, or decimal literal, as an exact rational."""
        whole = self.integer()
        if self.peek() == "/":
            self.take()
            den = self.integer()
            if den == 0:
                self.error("zero denominator")
            return Fraction(whole, den)
        if self.peek() == ".":
            self.take()
            digits = self.take()
            if not digits.isdigit():
                self.i -= 1
                self.error("expected digits after decimal point")
            return whole + Fraction(int(digits), 10 ** len(digits))
        return Fraction(whole)

    def operands(self, count: int) -> list[SetExpr]:
        """``(e,e,...)``: count expressions in parentheses."""
        self.expect("(")
        out = [self.expr()]
        for _ in range(count - 1):
            self.expect(",")
            out.append(self.expr())
        self.expect(")")
        return out

    def expr(self) -> SetExpr:
        return self._node(SetExpr.KINDS, "expression head")

    def zspec(self) -> ZSpec:
        return self._node(ZSpec.KINDS, "blocks form")

    def _node(self, kinds: dict[str, type], what: str):
        """The node named by the next token, parsed by its class."""
        tok = self.take()
        cls = kinds.get(tok)
        if cls is None:
            self.i -= 1
            self.error(f"unknown {what} {tok!r}")
        try:
            return cls._parse(self)
        except ValueError as exc:  # a constructor rejected the operands
            self.error(str(exc))


def parse_expr(text: str) -> SetExpr:
    parser = _Parser(text)
    if not parser.tokens:
        raise ParseError("empty expression", 0)
    e = parser.expr()
    if parser.i != len(parser.tokens):
        parser.error("trailing input after expression")
    return e


def format_expr(e: SetExpr) -> str:
    """Render an expression in the DSL; parse(format(e)) == e."""
    return e._format()
