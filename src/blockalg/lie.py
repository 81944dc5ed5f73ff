"""The graded Lie algebra attached to an ordered grading group.

Basis symbols are generators ``L(a,i)`` indexed by a group element ``a``
and an integer ``i >= -1``, together with one central symbol ``c``.  The
bracket of generators is

    [L(a,i), L(b,j)] = ((i+1)*b - (j+1)*a) * L(a+b, i+j)

plus a central contribution ``a*c`` exactly when ``b = -a`` and
``i + j = -2``; the central symbol commutes with everything.  The
structure constant vanishes identically whenever ``i + j`` would fall
below ``-1``, so the basis is closed under the bracket.

Over the integers instance the algebra is realized inside the space of
Laurent-polynomial symbols ``x^a f(t)`` (plus the centre) via
``L(a,i) = x^a t^(i+1)``, with

    [x^a f, x^b g] = x^(a+b) (b f' g - a f g') + a d(a,-b) f(0) g(0) c,

which :meth:`BlockAlgebra.realization_bracket` evaluates independently of
the structure constants; the two paths must agree exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .groups import IntegerGroup, LexPairGroup, OrderedGroup, format_element
from .polynomial import Poly, check_int, format_poly, format_rational, parse_rational


@dataclass(frozen=True)
class Generator:
    alpha: object
    index: int

    def __post_init__(self):
        check_int(self.index, "index", -1)

    def __str__(self) -> str:
        return f"L({format_element(self.alpha)},{self.index})"


@dataclass(frozen=True)
class Central:
    def __str__(self) -> str:
        return "c"


CENTRAL = Central()

BasisSymbol = Union[Generator, Central]

# Coefficients are exact rationals -- int while integral, else Fraction --
# for the integers/dyadic instances, and Poly (over the formal infinite
# unit) for the lexicographic pair instance.
Coeff = Union[int, Fraction, Poly]


def _term_key(sym: BasisSymbol):
    if isinstance(sym, Central):
        return (1,)
    return (0, sym.alpha, sym.index)


def merge_terms(out: dict, terms, add=operator.add) -> dict:
    """Add the ``(key, coeff)`` pairs of ``terms`` into ``out`` by ``add`` and
    return it; a key whose sum is zero is deleted, so nonzero coefficients
    stay nonzero."""
    get = out.get
    for k, c in terms:
        prev = get(k)
        if prev is None:
            out[k] = c
        else:
            s = add(prev, c)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def subtract_terms(out: dict, terms, sub=operator.sub, neg=operator.neg) -> dict:
    """Subtract the ``(key, coeff)`` pairs of ``terms`` from ``out`` and
    return it, as :func:`merge_terms` adds them: a key new to ``out`` takes
    ``neg(coeff)``, one whose coefficient equals ``coeff`` is deleted, and
    any other takes ``sub(prev, coeff)``, deleted if that is zero."""
    get = out.get
    for k, c in terms:
        prev = get(k)
        if prev is None:
            out[k] = neg(c)
        elif prev == c:
            del out[k]
        else:
            s = sub(prev, c)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def format_terms(items) -> str:
    """The printed form of a combination from its sorted ``(key, coeff)``
    pairs: ``"0"`` when there are none, a Q[w] coefficient in parentheses
    and a unit rational left out."""
    parts = []
    for key, coeff in items:
        if isinstance(coeff, Poly):
            mag, neg = f"({coeff.format('w')})*{key}", False
        else:
            neg = coeff < 0
            a = abs(coeff)
            mag = str(key) if a == 1 else f"{a}*{key}"
        if not parts:
            parts.append(("-" if neg else "") + mag)
        else:
            parts.append(("- " if neg else "+ ") + mag)
    return " ".join(parts) or "0"


class LieElement:
    """Finite linear combination of basis symbols; zero coefficients pruned.

    Only two elements compare equal, and only another element adds to or
    subtracts from one.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, coeff in dict(terms).items():
                if coeff:
                    data[key] = coeff
        self._terms = data

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _of_nonzero(cls, terms: dict):
        """Wrap ``terms`` without a copy; every coefficient must be nonzero."""
        res = cls.__new__(cls)
        res._terms = terms
        return res

    def items(self) -> List[Tuple[BasisSymbol, Coeff]]:
        return sorted(self._terms.items(), key=lambda kv: _term_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return self._of_nonzero(merge_terms(dict(self._terms), other._terms.items()))

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return self._of_nonzero(subtract_terms(dict(self._terms), other._terms.items()))

    def scaled(self, scalar):
        if not scalar:
            return type(self)()
        return self._of_nonzero({k: scalar * c for k, c in self._terms.items()})

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def __str__(self) -> str:
        return format_terms(self.items())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"

    @classmethod
    def term(cls, sym: BasisSymbol, coeff: Coeff = Fraction(1)) -> "LieElement":
        return cls({sym: coeff})

    def to_json(self, group: OrderedGroup) -> list:
        out = []
        for sym, coeff in self.items():
            if isinstance(sym, Central):
                out.append({"alpha": None, "i": "central", "coeff": coeff_json(coeff)})
            else:
                out.append(
                    {
                        "alpha": element_json(sym.alpha),
                        "i": sym.index,
                        "coeff": coeff_json(coeff),
                    }
                )
        return out

    @classmethod
    def from_json(cls, data: list, group: OrderedGroup) -> "LieElement":
        """Inverse of :meth:`to_json`; malformed input raises ``ValueError``."""
        if not isinstance(data, list):
            raise ValueError("a Lie element is a JSON list of terms")
        out = cls.zero()
        for entry in data:
            if not (isinstance(entry, dict) and {"alpha", "i", "coeff"} <= entry.keys()):
                raise ValueError(f"a term is an object with 'alpha', 'i' and 'coeff': {entry!r}")
            coeff = coeff_from_json(entry["coeff"], group)
            if entry["i"] == "central":
                if entry["alpha"] is not None:
                    raise ValueError(f"the central term has alpha null: {entry!r}")
                sym: BasisSymbol = CENTRAL
            else:
                sym = Generator(
                    element_from_json(entry["alpha"], group), integer_from_json(entry["i"])
                )
            out = out + cls.term(sym, coeff)
        return out


def element_json(x):
    if isinstance(x, tuple):
        return [x[0], x[1]]
    if isinstance(x, Fraction):
        return str(x)  # "3/4", or "3" when integral
    return x


def integer_from_json(data) -> int:
    """An integer from JSON: an int, or a ``"p"``/``"p/q"`` string of integral value."""
    q = parse_rational(data)
    if q.denominator != 1:
        raise ValueError(f"not an integer: {data!r}")
    return int(q)


def element_from_json(data, group: OrderedGroup):
    """Inverse of :func:`element_json`; a JSON float raises ``ValueError``.

    A string is read by :func:`exprparse.parse_group_element`, the one
    reader of group elements written as text, so ``"3/2^3"`` and
    ``"(1,-5)"`` read as on the command line and a decimal such as
    ``"0.5"`` raises ``ValueError``.
    """
    if isinstance(data, str):
        # exprparse builds on this module, so its reader is imported late
        from .exprparse import parse_group_element

        return parse_group_element(data, group)
    if isinstance(data, list):
        if len(data) != 2:
            raise ValueError(f"not an integer pair: {data!r}")
        value = (integer_from_json(data[0]), integer_from_json(data[1]))
    elif isinstance(group, IntegerGroup):
        value = integer_from_json(data)
    else:
        value = Fraction(parse_rational(data))
    group.validate(value)
    return value


def coeff_json(c: Coeff) -> str:
    """JSON form of a coefficient: ``"p/q"``, or a Q[w] polynomial over lex-z2.

    A Q[w] coefficient is a ``Poly`` or its trimmed coefficient tuple, as
    a lex-z2 module vector keeps it.  A constant one is written ``"p/q"``
    like an equal rational one, so equal vectors serialize alike whatever
    arithmetic made them.
    """
    if isinstance(c, Poly):
        c = c.coeffs
    if type(c) is tuple:
        if len(c) > 1:
            return format_poly(c, "w")
        c = c[0] if c else 0
    return format_rational(c)


def coeff_from_json(data, group: OrderedGroup) -> Coeff:
    """Inverse of :func:`coeff_json`; a JSON float raises ``ValueError``."""
    if isinstance(group, LexPairGroup) and isinstance(data, str) and "w" in data:
        # exprparse builds on this module, so its reader is imported late
        from .exprparse import parse_poly

        return parse_poly(data, "w")
    return parse_rational(data)


@dataclass(frozen=True)
class PolyForm:
    """A symbol ``x^alpha * f(t)`` of the polynomial realization."""

    alpha: object
    poly: Poly

    def __str__(self) -> str:
        return f"x^{format_element(self.alpha)}*({self.poly})"


class BlockAlgebra:
    """Bracket evaluation, grading and the polynomial realization."""

    def __init__(self, group: OrderedGroup):
        self.group = group

    def bracket_basis(self, a: BasisSymbol, b: BasisSymbol) -> LieElement:
        """Exact bracket of two basis symbols."""
        if isinstance(a, Central) or isinstance(b, Central):
            return LieElement.zero()
        g = self.group
        g.validate(a.alpha)
        g.validate(b.alpha)
        terms = {}
        coeff = g.scalarize(
            g.sub(g.scale(a.index + 1, b.alpha), g.scale(b.index + 1, a.alpha))
        )
        if coeff:
            # i+j = -2 forces i = j = -1, where the coefficient vanishes,
            # so the emitted index is always >= -1.
            terms[Generator(g.add(a.alpha, b.alpha), a.index + b.index)] = coeff
        if a.alpha == g.neg(b.alpha) and a.index + b.index == -2:
            cc = g.scalarize(a.alpha)
            if cc:
                terms[CENTRAL] = cc
        return LieElement(terms)

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        """Bilinear extension of the basis bracket."""
        out = LieElement.zero()
        for sa, ca in x.items():
            for sb, cb in y.items():
                out = out + self.bracket_basis(sa, sb).scaled(ca * cb)
        return out

    # -- polynomial realization (integers instance only) ----------------

    def _require_integer_instance(self):
        if not isinstance(self.group, IntegerGroup):
            raise ValueError(
                "the polynomial realization is defined over the integers instance"
            )

    def from_poly(self, form: PolyForm) -> LieElement:
        """x^alpha t^(i+1) -> L(alpha, i), applied termwise."""
        self._require_integer_instance()
        self.group.validate(form.alpha)
        terms = {}
        for n, c in enumerate(form.poly.coeffs):
            if c:
                terms[Generator(form.alpha, n - 1)] = c
        return LieElement(terms)

    def realization_bracket(self, p1: PolyForm, p2: PolyForm) -> LieElement:
        """Bracket evaluated in the polynomial realization.

        Independent of :meth:`bracket_basis`; used as its oracle.
        """
        self._require_integer_instance()
        a, f = p1.alpha, p1.poly
        b, g = p2.alpha, p2.poly
        h = b * (f.derivative() * g) - a * (f * g.derivative())
        out = self.from_poly(PolyForm(a + b, h))
        if a == -b:
            cc = Fraction(a) * f.coefficient(0) * g.coefficient(0)
            if cc:
                out = out + LieElement.term(CENTRAL, cc)
        return out
