"""A small text format for presenting models, and its parser.

    algebra NAME {
      field Q
      truncate INT
      space-dim INT
      simply-connected BOOL
      generator NAME degree INT
      d NAME = POLY
      alias NAME = POLY
    }

POLY is a signed sum of terms; a term is an optional rational coefficient
(INT or INT/INT) joined by '*' to generator names, or the literal 0.
Statements need no separators; '#' starts a comment to end of line.
Defaults: space-dim equals the truncation, simply-connected is false,
unlisted generators are closed.  ``field Q`` is optional decoration (no
other coefficients are supported).  Parse errors carry line and column.
"""

from __future__ import annotations

from fractions import Fraction

from .dga import Generator, Presentation, normalize_presentation
from .linalg import scalar

_SYMBOLS = "{}=*/+-"
_DIGITS = "0123456789"  # ASCII only: str.isdigit() also admits "²", which int() refuses


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in _DIGITS:
            start = i
            startcol = col
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            tokens.append(_Token("INT", int(text[start:i]), line, startcol))
        elif c.isalpha() or c == "_":
            start = i
            startcol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("IDENT", text[start:i], line, startcol))
        elif c in _SYMBOLS:
            tokens.append(_Token(c, c, line, col))
            col += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("EOF", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, tok: _Token = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str = None) -> _Token:
        t = self.peek()
        if t.kind != kind:
            shown = repr(t.value) if t.value is not None else "end of input"
            self.fail(f"expected {what or kind}, got {shown}")
        return self.next()

    def expect_word(self, word: str) -> _Token:
        t = self.expect("IDENT", f"'{word}'")
        if t.value != word:
            raise ParseError(f"expected '{word}', got {t.value!r}", t.line, t.col)
        return t

    # --------------------------------------------------------------- poly

    def parse_poly(self):
        terms = []
        first = True
        while True:
            sign = 1
            t = self.peek()
            if t.kind == "-":
                self.next()
                sign = -1
            elif t.kind == "+":
                if first:
                    self.fail("a polynomial cannot start with '+'")
                self.next()
            elif not first:
                break
            first = False
            terms.append(self.parse_term(sign))
            nxt = self.peek()
            if nxt.kind not in ("+", "-"):
                break
        return [t for t in terms if t is not None]

    def parse_term(self, sign: int):
        t = self.peek()
        coeff = sign
        factors = []
        if t.kind == "INT":
            self.next()
            num = t.value
            if self.peek().kind == "/":
                self.next()
                den = self.expect("INT", "a denominator").value
                if den == 0:
                    raise ParseError("zero denominator", t.line, t.col)
                coeff = scalar(Fraction(sign * num, den))
            else:
                coeff *= num
            if self.peek().kind == "*":
                self.next()
                factors.append(self.expect("IDENT", "a generator name").value)
            elif num == 0:
                return None  # the literal 0 contributes nothing
            else:
                raise ParseError(
                    "constant terms are not allowed; write 0 for the zero polynomial",
                    t.line, t.col)
        else:
            factors.append(self.expect("IDENT", "a generator name or coefficient").value)
        while self.peek().kind == "*":
            self.next()
            factors.append(self.expect("IDENT", "a generator name").value)
        return (coeff, factors)

    # -------------------------------------------------------------- model

    def parse_model(self) -> Presentation:
        self.expect_word("algebra")
        name = self.expect("IDENT", "an algebra name").value
        self.expect("{", "'{'")
        truncation = None
        space_dim = None
        simply_connected = False
        generators = []
        gen_names = set()
        diffs = {}
        aliases = []
        alias_names = set()
        while True:
            t = self.peek()
            if t.kind == "}":
                self.next()
                break
            if t.kind != "IDENT":
                self.fail("expected a statement or '}'")
            word = t.value
            if word == "field":
                self.next()
                f = self.expect("IDENT", "a field name")
                if f.value != "Q":
                    raise ParseError(f"only field Q is supported, got {f.value!r}",
                                     f.line, f.col)
            elif word == "truncate":
                self.next()
                if truncation is not None:
                    self.fail("duplicate truncate", t)
                truncation = self.expect("INT", "a truncation degree").value
            elif word == "space":
                self.next()
                self.expect("-", "'-'")
                self.expect_word("dim")
                if space_dim is not None:
                    self.fail("duplicate space-dim", t)
                space_dim = self.expect("INT", "a dimension").value
            elif word == "simply":
                self.next()
                self.expect("-", "'-'")
                self.expect_word("connected")
                b = self.expect("IDENT", "true or false")
                if b.value not in ("true", "false"):
                    raise ParseError(f"expected true or false, got {b.value!r}",
                                     b.line, b.col)
                simply_connected = b.value == "true"
            elif word == "generator":
                self.next()
                g = self.expect("IDENT", "a generator name")
                if g.value in gen_names:
                    raise ParseError(f"duplicate generator {g.value}", g.line, g.col)
                if g.value in alias_names:
                    raise ParseError(f"duplicate name {g.value}", g.line, g.col)
                self.expect_word("degree")
                deg = self.expect("INT", "a degree")
                generators.append(Generator(g.value, deg.value))
                gen_names.add(g.value)
            elif word == "d":
                self.next()
                g = self.expect("IDENT", "a generator name")
                if g.value in diffs:
                    raise ParseError(f"duplicate differential for {g.value}",
                                     g.line, g.col)
                self.expect("=", "'='")
                diffs[g.value] = self.parse_poly()
            elif word == "alias":
                self.next()
                a = self.expect("IDENT", "an alias name")
                if a.value in alias_names or a.value in gen_names:
                    raise ParseError(f"duplicate name {a.value}", a.line, a.col)
                self.expect("=", "'='")
                aliases.append((a.value, self.parse_poly()))
                alias_names.add(a.value)
            else:
                self.fail(f"unknown statement {word!r}", t)
        self.expect("EOF", "end of input")
        if truncation is None:
            self.fail("missing truncate statement", self.tokens[-1])
        return normalize_presentation(
            name, generators, diffs, truncation,
            space_dim=space_dim, simply_connected=simply_connected,
            alias_terms=aliases)


def parse_model(text: str) -> Presentation:
    """Parse one algebra block; raises ParseError with line/col on bad
    syntax and PresentationError on semantic problems (degrees, d^2)."""
    return _Parser(text).parse_model()

