"""Textual grammar for algebra elements and module vectors.

Elements:  ``L(a,i)`` for generators, ``c`` for the central symbol,
rational scalars attached with ``*``, terms joined with ``+``/``-``;
over the integers the realization form ``x^a*(t^2+1)`` (and bare ``x``,
``t`` powers) is accepted and converted through the basis dictionary.
Group elements read as integers ``3``, dyadics ``p/q`` or ``p/2^k``,
lexicographic pairs ``(a,b)``.

Vectors:   words ``L(-a1,i1)*...*L(-ak,ik)*v`` with optional rational
scalars, joined with ``+``/``-``; factors must be normal-ordered.

Parsing is whitespace-insensitive and round-trips with the canonical
printers.  Errors carry the offending position.

This module is the one reader of a group element written as text,
whether it comes from the command line or from a JSON string
(:func:`lie.element_from_json` calls :func:`parse_group_element`), so a
decimal such as ``0.5`` or a digit separator such as ``1_000`` is
refused everywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .groups import GroupError, IntegerGroup, LexPairGroup, OrderedGroup
from .lie import CENTRAL, BlockAlgebra, Generator, LieElement, PolyForm
from .polynomial import Poly, x_power
from .verma import ModuleVector, normal_word


_CONTEXT = 30  # characters of the input quoted on each side of an error


class ParseError(ValueError):
    """A parse failure at position ``pos`` of ``text``.

    The message quotes an input of up to ``2 * _CONTEXT`` characters
    whole.  Of a longer one it quotes the window of ``_CONTEXT``
    characters on each side of ``pos``, marked ``...`` where it is cut,
    and gives the input's length, so an oversized argument is not echoed
    back in full.
    """

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        if len(text) <= 2 * _CONTEXT:
            where = repr(text)
        else:
            lo, hi = max(0, pos - _CONTEXT), pos + _CONTEXT
            where = (
                ("..." if lo else "") + repr(text[lo:hi]) + ("..." if hi < len(text) else "")
                + f", {len(text)} characters"
            )
        super().__init__(f"at position {pos}: {message} (in {where})")


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|([+\-*/^(),]))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise ParseError("unexpected character", text, pos)
            if m.group(1):
                self.toks.append(("int", m.group(1), m.start(1)))
            elif m.group(2):
                self.toks.append(("name", m.group(2), m.start(2)))
            else:
                self.toks.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.i += 1
        return t

    def accept(self, kind: str, value: Optional[str] = None) -> bool:
        t = self.peek()
        if t and t[0] == kind and (value is None or t[1] == value):
            self.i += 1
            return True
        return False

    def expect(self, kind: str, value: str):
        t = self.peek()
        if not (t and t[0] == kind and t[1] == value):
            pos = t[2] if t else len(self.text)
            raise ParseError(f"expected {value!r}", self.text, pos)
        self.i += 1

    def done(self) -> bool:
        return self.i >= len(self.toks)

    def pos(self) -> int:
        t = self.peek()
        return t[2] if t else len(self.text)


def _digits(tk: _Tokens, what: str) -> Tuple[int, int]:
    """The next token, which must be an unsigned integer, and its position."""
    t = tk.next()
    if t[0] != "int":
        raise ParseError(f"expected {what}", tk.text, t[2])
    return int(t[1]), t[2]


def _power(tk: _Tokens) -> int:
    """An optional exponent ``^n``; 1 when there is none."""
    return _digits(tk, "an exponent")[0] if tk.accept("op", "^") else 1


def _sign(tk: _Tokens) -> Optional[int]:
    if tk.accept("op", "+"):
        return 1
    if tk.accept("op", "-"):
        return -1
    return None


def _integer(tk: _Tokens) -> int:
    sign = 1
    while (s := _sign(tk)) is not None:
        sign *= s
    return sign * _digits(tk, "an integer")[0]


def _rational(tk: _Tokens) -> Fraction:
    num = _integer(tk)
    if not tk.accept("op", "/"):
        return Fraction(num)
    den, pos = _digits(tk, "a denominator")
    den **= _power(tk)
    if den == 0:
        raise ParseError("zero denominator", tk.text, pos)
    return Fraction(num, den)


def _group_element(tk: _Tokens, group: OrderedGroup):
    pos = tk.pos()
    if isinstance(group, LexPairGroup):
        tk.expect("op", "(")
        a = _integer(tk)
        tk.expect("op", ",")
        b = _integer(tk)
        tk.expect("op", ")")
        return (a, b)
    q = _rational(tk)
    if isinstance(group, IntegerGroup):
        if q.denominator != 1:
            raise ParseError("integer group element required", tk.text, pos)
        return int(q)
    try:
        group.validate(q)
    except GroupError as e:
        raise ParseError(str(e), tk.text, pos) from None
    return q


def _whole(text: str, read):
    """``read(tokens)`` over all of ``text``; empty or trailing input is an error."""
    tk = _Tokens(text)
    if not tk.toks:
        raise ParseError("empty input", text, 0)
    out = read(tk)
    if not tk.done():
        raise ParseError("trailing input", text, tk.pos())
    return out


def _signed_sum(tk: _Tokens, term):
    """An optional leading sign, then terms joined by ``+``/``-``.

    ``term(tk, sign)`` reads one term and multiplies it by its sign.
    """
    out = term(tk, _sign(tk) or 1)
    while True:
        sign = _sign(tk)
        if sign is None:
            return out
        out = out + term(tk, sign)


def _combination(text: str, term, zero):
    """An element or vector: all of ``text`` as a signed sum of ``term``.

    The canonical printers render the zero element or vector as ``"0"``.
    """

    def read(tk: _Tokens):
        if [t[:2] for t in tk.toks] == [("int", "0")]:
            tk.next()
            return zero
        out = _signed_sum(tk, term)
        if not tk.done():
            raise ParseError("expected '+' or '-'", text, tk.pos())
        return out

    return _whole(text, read)


def parse_group_element(text: str, group: OrderedGroup):
    """Parse one element of ``group``: ``3``, ``3/4`` or ``5/2^3``, ``(1,-5)``."""
    return _whole(text, lambda tk: _group_element(tk, group))


def _pair(tk: _Tokens, group: OrderedGroup) -> Tuple[object, int]:
    """``alpha,index``: a group element and an integer index ``>= -1``."""
    alpha = _group_element(tk, group)
    tk.expect("op", ",")
    pos = tk.pos()
    index = _integer(tk)
    if index < -1:
        raise ParseError("index must be >= -1", tk.text, pos)
    return alpha, index


def parse_pair(text: str, group: OrderedGroup) -> Tuple[object, int]:
    """Parse ``part,index``, e.g. ``3/4,2`` or ``(1,-5),0``; the index is ``>= -1``."""
    return _whole(text, lambda tk: _pair(tk, group))


def _generator(tk: _Tokens, group: OrderedGroup) -> Generator:
    tk.expect("op", "(")
    alpha, index = _pair(tk, group)
    tk.expect("op", ")")
    return Generator(alpha, index)


def _poly(tk: _Tokens, var: str = "t") -> Poly:
    """Sum of rational multiples of ``var`` powers, inside parentheses or bare."""

    def term(tk: _Tokens, sign: int) -> Poly:
        coeff = Fraction(sign)
        poly = None
        while True:
            t = tk.peek()
            if t and t[0] == "int":
                coeff *= _rational(tk)
            elif t and t[0] == "name" and t[1] == var:
                tk.next()
                p = x_power(_power(tk))
                poly = p if poly is None else poly * p
            else:
                raise ParseError(f"expected a {var}-term", tk.text, tk.pos())
            if not tk.accept("op", "*"):
                break
        return (poly if poly is not None else Poly((1,))) * coeff

    return _signed_sum(tk, term)


def parse_poly(text: str, var: str = "t") -> Poly:
    """Parse a polynomial in ``var`` as ``Poly.format(var)`` prints it.

    Reads the Q[w] coefficients of the lex-z2 instance (``var="w"``).
    """
    return _whole(text, lambda tk: _poly(tk, var))


def parse_element(text: str, group: OrderedGroup) -> LieElement:
    """Parse the element grammar; exact, whitespace-insensitive."""
    algebra = BlockAlgebra(group)

    def term(tk: _Tokens, sign: int) -> LieElement:
        coeff = Fraction(sign)
        symbol = None  # Generator | CENTRAL
        x_alpha = None  # the x,t form
        tpoly = None
        while True:
            t = tk.peek()
            if t is None:
                break
            kind, val, pos = t
            if kind == "int":
                coeff *= _rational(tk)
            elif kind == "name" and val in ("L", "c"):
                tk.next()
                if symbol is not None:
                    raise ParseError("more than one basis symbol in a term", tk.text, pos)
                symbol = _generator(tk, group) if val == "L" else CENTRAL
            elif kind == "name" and val == "x":
                tk.next()
                if x_alpha is not None:
                    raise ParseError("repeated x factor", tk.text, pos)
                if tk.accept("op", "^"):
                    x_alpha = _integer(tk)
                else:
                    x_alpha = 1
            elif kind == "name" and val == "t":
                tk.next()
                p = x_power(_power(tk))
                tpoly = p if tpoly is None else tpoly * p
            elif kind == "op" and val == "(":
                tk.next()
                p = _poly(tk)
                tk.expect("op", ")")
                tpoly = p if tpoly is None else tpoly * p
            else:
                break
            if not tk.accept("op", "*"):
                break
        if symbol is not None and (x_alpha is not None or tpoly is not None):
            raise ParseError("cannot mix L/c with the x,t form", tk.text, tk.pos())
        if symbol is not None:
            return LieElement.term(symbol, coeff)
        if x_alpha is not None or tpoly is not None:
            if not isinstance(group, IntegerGroup):
                raise ParseError(
                    "the x,t form needs the integers instance", tk.text, tk.pos()
                )
            alpha = x_alpha if x_alpha is not None else 0
            poly = tpoly if tpoly is not None else Poly((1,))
            return algebra.from_poly(PolyForm(alpha, poly * coeff))
        raise ParseError("a term needs a basis symbol", tk.text, tk.pos())

    return _combination(text, term, LieElement.zero())


def parse_vector(text: str, group: OrderedGroup) -> ModuleVector:
    """Parse the module vector grammar (normal-ordered words on ``v``)."""

    def term(tk: _Tokens, sign: int) -> ModuleVector:
        coeff = Fraction(sign)
        factors = []
        start = None  # position of the word's first factor
        closed = False
        while True:
            t = tk.peek()
            if t is None:
                raise ParseError("expected 'v'", tk.text, tk.pos())
            kind, val, pos = t
            if kind == "int":
                coeff *= _rational(tk)
            elif kind == "name" and val == "L":
                tk.next()
                gen = _generator(tk, group)
                if not group.is_positive(group.neg(gen.alpha)):
                    raise ParseError(
                        "word factors must have negative weight", tk.text, pos
                    )
                if start is None:
                    start = pos
                factors.append((group.neg(gen.alpha), gen.index))
            elif kind == "name" and val == "v":
                tk.next()
                closed = True
                break
            else:
                raise ParseError("expected a factor or 'v'", tk.text, pos)
            if not tk.accept("op", "*"):
                t = tk.peek()
                if not (t and t[0] == "name" and t[1] == "v"):
                    raise ParseError("expected '*' or 'v'", tk.text, tk.pos())
        if not closed:
            raise ParseError("a word must end in 'v'", tk.text, tk.pos())
        try:
            word = normal_word(factors, group)
        except ValueError as e:
            raise ParseError(str(e), tk.text, start) from None
        return ModuleVector({word: coeff})

    return _combination(text, term, ModuleVector.zero())
