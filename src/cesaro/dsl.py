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

from .exprs import (
    All,
    Blocks,
    CesaroError,
    Compl,
    Diff,
    Dilate,
    Empty,
    Explicit,
    Geometric,
    Greedy,
    Inter,
    Midpoint,
    Poly,
    Predicate,
    Residue,
    RunList,
    SetExpr,
    Shift,
    SymDiff,
    Union,
)


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

    def expr(self) -> SetExpr:
        tok = self.take()
        if tok == "empty":
            return Empty()
        if tok == "all":
            return All()
        if tok == "explicit":
            elems = self.int_list("{", "}")
            try:
                return Explicit(tuple(sorted(set(elems))))
            except ValueError as exc:
                self.error(str(exc))
        if tok == "residue":
            m = self.integer()
            res = self.int_list("{", "}")
            try:
                return Residue(m, frozenset(res))
            except ValueError as exc:
                self.error(str(exc))
        if tok == "blocks":
            return Blocks(self.zspec())
        if tok == "greedy":
            target = self.rational()
            try:
                return Greedy(target)
            except ValueError as exc:
                self.error(str(exc))
        if tok == "predicate":
            return Predicate(self.take())
        if tok in ("union", "inter", "diff", "symdiff", "midpoint"):
            cls = {
                "union": Union,
                "inter": Inter,
                "diff": Diff,
                "symdiff": SymDiff,
                "midpoint": Midpoint,
            }[tok]
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return cls(a, b)
        if tok == "compl":
            self.expect("(")
            a = self.expr()
            self.expect(")")
            return Compl(a)
        if tok == "dilate":
            k = self.integer()
            if k < 1:
                self.error("dilation factor must be >= 1")
            return Dilate(k, self.expr())
        if tok == "shift":
            k = self.integer()
            return Shift(k, self.expr())
        self.i -= 1
        self.error(f"unknown expression head {tok!r}")

    def zspec(self):
        kind = self.take()
        if kind == "geometric":
            r = self.integer()
            if r < 2:
                self.error("geometric run ratio must be >= 2")
            return Geometric(r)
        if kind == "poly":
            q = self.integer()
            if q < 1:
                self.error("polynomial run exponent must be >= 1")
            return Poly(q)
        if kind == "list":
            self.expect("[")
            head = self.integer()
            self.expect(";")
            runs = [self.integer()]
            while self.peek() == ",":
                self.take()
                runs.append(self.integer())
            self.expect("]")
            tail = "repeat-last"
            if self.peek() in ("repeat-last", "cycle"):
                tail = self.take()
            try:
                return RunList(head, tuple(runs), tail)
            except ValueError as exc:
                self.error(str(exc))
        self.i -= 1
        self.error(f"unknown blocks form {kind!r}")


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
    if isinstance(e, Empty):
        return "empty"
    if isinstance(e, All):
        return "all"
    if isinstance(e, Explicit):
        return "explicit{%s}" % ",".join(map(str, e.elements))
    if isinstance(e, Residue):
        return "residue %d {%s}" % (e.modulus, ",".join(map(str, sorted(e.residues))))
    if isinstance(e, Blocks):
        z = e.z
        if isinstance(z, Geometric):
            return f"blocks geometric {z.ratio}"
        if isinstance(z, Poly):
            return f"blocks poly {z.exponent}"
        return "blocks list [%d;%s] %s" % (z.head, ",".join(map(str, z.runs)), z.tail)
    if isinstance(e, Greedy):
        return f"greedy {e.target.numerator}/{e.target.denominator}"
    if isinstance(e, Predicate):
        return f"predicate {e.name}"
    if isinstance(e, Union):
        return f"union({format_expr(e.left)},{format_expr(e.right)})"
    if isinstance(e, Inter):
        return f"inter({format_expr(e.left)},{format_expr(e.right)})"
    if isinstance(e, Diff):
        return f"diff({format_expr(e.left)},{format_expr(e.right)})"
    if isinstance(e, SymDiff):
        return f"symdiff({format_expr(e.left)},{format_expr(e.right)})"
    if isinstance(e, Midpoint):
        return f"midpoint({format_expr(e.lower)},{format_expr(e.upper)})"
    if isinstance(e, Compl):
        return f"compl({format_expr(e.inner)})"
    if isinstance(e, Dilate):
        return f"dilate {e.factor} {format_expr(e.inner)}"
    if isinstance(e, Shift):
        return f"shift {e.offset} {format_expr(e.inner)}"
    raise TypeError(f"unknown expression variant {type(e).__name__}")
