"""Textual grammar for algebra elements and module vectors.

Elements:  ``L(a,i)`` for generators, ``c`` for the central symbol,
rational scalars attached with ``*``, terms joined with ``+``/``-``;
over the integers the realization form ``x^a*(t^2+1)`` (and bare ``x``,
``t`` powers) is accepted and converted through the basis dictionary.
Group elements read as decimal integers, dyadics ``p/q`` or ``p/2^k``,
lexicographic pairs ``(a,b)``.

Vectors:   words ``L(-a1,i1)*...*L(-ak,ik)*v`` with optional rational
scalars, joined with ``+``/``-``; factors must be normal-ordered.

Parsing is whitespace-insensitive and round-trips with the canonical
printers.  Errors carry the offending position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .groups import GroupError, IntegerGroup, LexPairGroup, OrderedGroup
from .lie import CENTRAL, BlockAlgebra, Generator, LieElement, PolyForm
from .polynomial import Poly
from .verma import ModuleVector, PBWMonomial


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        super().__init__(f"at position {pos}: {message} (in {text!r})")


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


def _integer(tk: _Tokens) -> int:
    sign = 1
    while True:
        if tk.accept("op", "-"):
            sign = -sign
        elif tk.accept("op", "+"):
            pass
        else:
            break
    t = tk.next()
    if t[0] != "int":
        raise ParseError("expected an integer", tk.text, t[2])
    return sign * int(t[1])


def _rational(tk: _Tokens) -> Fraction:
    num = _integer(tk)
    if tk.accept("op", "/"):
        t = tk.next()
        if t[0] != "int":
            raise ParseError("expected a denominator", tk.text, t[2])
        den = int(t[1])
        if tk.accept("op", "^"):
            e = tk.next()
            if e[0] != "int":
                raise ParseError("expected an exponent", tk.text, e[2])
            den = den ** int(e[1])
        if den == 0:
            raise ParseError("zero denominator", tk.text, t[2])
        return Fraction(num, den)
    return Fraction(num)


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


def parse_group_element(text: str, group: OrderedGroup):
    tk = _Tokens(text)
    x = _group_element(tk, group)
    if not tk.done():
        raise ParseError("trailing input", text, tk.pos())
    return x


def _generator(tk: _Tokens, group: OrderedGroup) -> Generator:
    tk.expect("op", "(")
    alpha = _group_element(tk, group)
    tk.expect("op", ",")
    pos = tk.pos()
    index = _integer(tk)
    if index < -1:
        raise ParseError("index must be >= -1", tk.text, pos)
    tk.expect("op", ")")
    return Generator(alpha, index)


def _t_power(tk: _Tokens) -> int:
    if tk.accept("op", "^"):
        t = tk.next()
        if t[0] != "int":
            raise ParseError("expected an exponent", tk.text, t[2])
        return int(t[1])
    return 1


def _poly(tk: _Tokens, var: str = "t") -> Poly:
    """Sum of rational multiples of ``var`` powers, inside parentheses or bare."""

    def tterm() -> Poly:
        coeff = Fraction(1)
        poly = None
        while True:
            t = tk.peek()
            if t and t[0] == "int":
                coeff *= _rational(tk)
            elif t and t[0] == "name" and t[1] == var:
                tk.next()
                p = Poly((0,) * _t_power(tk) + (1,))
                poly = p if poly is None else poly * p
            else:
                raise ParseError(f"expected a {var}-term", tk.text, tk.pos())
            if not tk.accept("op", "*"):
                break
        return (poly if poly is not None else Poly((1,))) * coeff

    total = Poly()
    sign = 1
    if tk.accept("op", "-"):
        sign = -1
    elif tk.accept("op", "+"):
        pass
    total = total + sign * tterm()
    while True:
        if tk.accept("op", "+"):
            total = total + tterm()
        elif tk.accept("op", "-"):
            total = total - tterm()
        else:
            return total


def parse_poly(text: str, var: str = "t") -> Poly:
    """Parse a polynomial in ``var`` as ``Poly.format(var)`` prints it.

    Reads the Q[w] coefficients of the lex-z2 instance (``var="w"``).
    """
    tk = _Tokens(text)
    if not tk.toks:
        raise ParseError("empty input", text, 0)
    p = _poly(tk, var)
    if not tk.done():
        raise ParseError("trailing input", text, tk.pos())
    return p


def parse_element(text: str, group: OrderedGroup) -> LieElement:
    """Parse the element grammar; exact, whitespace-insensitive."""
    algebra = BlockAlgebra(group)
    tk = _Tokens(text)
    if not tk.toks:
        raise ParseError("empty input", text, 0)
    # the canonical printer renders the zero element as "0"
    if len(tk.toks) == 1 and tk.toks[0][:2] == ("int", "0"):
        return LieElement.zero()

    def term(sign: int) -> LieElement:
        coeff = Fraction(sign)
        symbol = None  # Generator | CENTRAL | PolyForm parts
        x_alpha = None
        tpoly = None
        saw_symbol = False
        while True:
            t = tk.peek()
            if t is None:
                break
            kind, val, pos = t
            if kind == "int":
                coeff *= _rational(tk)
            elif kind == "name" and val == "L":
                tk.next()
                if saw_symbol:
                    raise ParseError("more than one basis symbol in a term", tk.text, pos)
                symbol = _generator(tk, group)
                saw_symbol = True
            elif kind == "name" and val == "c":
                tk.next()
                if saw_symbol:
                    raise ParseError("more than one basis symbol in a term", tk.text, pos)
                symbol = CENTRAL
                saw_symbol = True
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
                p = Poly((0,) * _t_power(tk) + (1,))
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
        if saw_symbol and (x_alpha is not None or tpoly is not None):
            raise ParseError("cannot mix L/c with the x,t form", tk.text, tk.pos())
        if saw_symbol:
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

    sign = 1
    if tk.accept("op", "-"):
        sign = -1
    elif tk.accept("op", "+"):
        pass
    out = term(sign)
    while not tk.done():
        if tk.accept("op", "+"):
            out = out + term(1)
        elif tk.accept("op", "-"):
            out = out + term(-1)
        else:
            raise ParseError("expected '+' or '-'", tk.text, tk.pos())
    return out


def parse_vector(text: str, group: OrderedGroup) -> ModuleVector:
    """Parse the module vector grammar (normal-ordered words on ``v``)."""
    tk = _Tokens(text)
    if not tk.toks:
        raise ParseError("empty input", text, 0)
    if len(tk.toks) == 1 and tk.toks[0][:2] == ("int", "0"):
        return ModuleVector.zero()

    def vterm(sign: int) -> ModuleVector:
        coeff = Fraction(sign)
        factors = []
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
        for a, b in zip(factors, factors[1:]):
            if b < a:
                raise ParseError(
                    "word factors are not normal-ordered", tk.text, tk.pos()
                )
        return ModuleVector({PBWMonomial(tuple(factors)): coeff})

    sign = 1
    if tk.accept("op", "-"):
        sign = -1
    elif tk.accept("op", "+"):
        pass
    out = vterm(sign)
    while not tk.done():
        if tk.accept("op", "+"):
            out = out + vterm(1)
        elif tk.accept("op", "-"):
            out = out + vterm(-1)
        else:
            raise ParseError("expected '+' or '-'", tk.text, tk.pos())
    return out
