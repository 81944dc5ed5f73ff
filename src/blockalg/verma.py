"""Highest weight modules with a PBW monomial basis.

A module vector is an exact linear combination of normal-ordered words

    L(-a_1, i_1) * ... * L(-a_k, i_k) * v,

where the parts ``a_s`` are positive group elements, weakly increasing
left to right, and the indices ``i_s`` weakly increase within a run of
equal parts.  A word from outside the engine passes :func:`normal_word`.
The highest weight functional assigns a rational label to every
weight-zero generator and a central charge to the central symbol;
positive-weight generators annihilate ``v``.

Coefficients are exact and come in three representations that compare
and hash alike: a Python ``int``, a ``Fraction`` and a ``Poly`` in the
formal unit ``w`` over the lex-z2 instance.  A scalar enters through
:func:`polynomial.exact_rational`, which refuses a ``bool`` and a
``float``.  An integer or dyadic vector with parts reads a coefficient
as an ``int`` exactly when its value is integral.  The JSON form
``"p/q"`` is the same for ``3``, ``Fraction(3)`` and the constant
``Poly`` 3; the printed form is not (``3*v`` against ``(3)*v``), so a
lex-z2 coefficient stays a rational until w-arithmetic touches it, and
is a ``Poly`` from then on, even when constant.

Each piece of the engine is described once, next to its code: the work
stack loop in :meth:`VermaModule._straighten`, the setup of a run that
puts integer and dyadic parts on one ``int`` kernel in
:meth:`VermaModule._run`, the coding of raw words by their scale in
:func:`_encode_word`, the lex-z2 pairs of the kernel in
:class:`_LexPairs`, whose Q[w] coefficients are the tuples of
:mod:`polynomial`, the one coded form of every vector, read term by
term only when printed or listed, in :class:`ModuleVector`, and the
enumeration of a weight space in :meth:`VermaModule.weight_basis`.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .groups import DyadicGroup, IntegerGroup, LexPairGroup, OrderedGroup
from .lie import (
    BasisSymbol,
    BlockAlgebra,
    Central,
    Coeff,
    Generator,
    LieElement,
    coeff_from_json,
    coeff_json,
    element_from_json,
    element_json,
    format_terms,
    integer_from_json,
    merge_terms,
    subtract_terms,
)
from . import polynomial
from .polynomial import Poly, check_int, exact_fraction, format_rational, parse_rational

Factor = Tuple[object, int]  # (positive part, index >= -1)


class StraighteningLimitError(RuntimeError):
    """The straightening work counter was exhausted (step budget)."""


@dataclass(frozen=True, slots=True)
class PBWMonomial:
    """Normal-ordered word applied to the highest weight vector.

    Immutable, so its hash is computed once: module vectors file their
    words in dicts, and a word is looked up many times.
    """

    factors: Tuple[Factor, ...] = ()
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.factors))

    def __hash__(self) -> int:
        return self._hash

    @property
    def length(self) -> int:
        return len(self.factors)

    def sort_key(self):
        return (len(self.factors), self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "v"
        from .groups import format_element

        return (
            "*".join(f"L(-{format_element(p)},{i})" for p, i in self.factors) + "*v"
        )


VACUUM = PBWMonomial(())


def normal_word(factors: Iterable[Factor], group: OrderedGroup) -> PBWMonomial:
    """The word on ``factors``; ``ValueError`` unless it is normal-ordered.

    Parts must be positive elements of ``group`` and indices ``int``s of
    at least -1 (:func:`polynomial.check_int`), with the factors weakly
    increasing.  This is the one gate for words from outside the engine.
    """
    fs = tuple(factors)
    prev = None
    for p, i in fs:
        if not group.is_positive(p):  # validates p
            raise ValueError(f"part {p} is not positive")
        check_int(i, "index", -1)
        if prev is not None and (p, i) < prev:
            raise ValueError("factors are not normal-ordered")
        prev = (p, i)
    return PBWMonomial(fs)


class ModuleVector:
    """Exact linear combination of PBW monomials, in one coded form.

    ``_raw`` maps raw words to nonzero coefficients and ``_scale`` is the
    scale of their parts; nothing else is kept.  A vector built from words
    is encoded once (:func:`_encode`); a result of :meth:`VermaModule.act`
    is the kernel's output as it stands.  :meth:`_values` reads each raw
    word's coefficient value, and :meth:`items`, the one decoder, builds
    each word (:func:`_decode_word`), and at a dyadic scale each distinct
    part's ``Fraction``, once per call, for :meth:`coefficients`,
    :meth:`monomials` and ``str``.

    In the lex-z2 shape ``_divisor`` is ``None``, ``_scale`` is 1, a raw
    word is its factor tuple and a coefficient is exact: a rational or a
    Q[w] tuple of :class:`_LexPairs`.  A vector built with no parts, such
    as the vacuum, takes it too and keeps its coefficient as given.  In
    the int shape a raw word holds ``int`` part codes ``x * _scale`` and a
    coefficient is an ``int`` numerator: ``_divisor = (d, e)`` makes ``d *
    _scale**(e - n)`` the divisor of a word of length ``n``, as a run
    leaves it (:meth:`VermaModule._run`), and a coefficient reads as an
    ``int`` exactly when its value is integral.  The scale names the
    coding: 1 holds integer parts and a dyadic scale is a power of two and
    at least 2, an all-integral vector's too.

    Two vectors combine at the finer scale, in the int shape unless both
    are lex-z2 (:meth:`_aligned`), to which :meth:`_as` re-codes each.
    ``+`` and ``-`` bring both divisors to their lcm at every length,
    ``lcm(d1*S**e1, d2*S**e2) / S**n``, so each side's numerators are
    multiplied by one ``int``, and ``-`` subtracts in one pass
    (:func:`lie.subtract_terms`); ``==`` is true exactly when that
    difference is empty.  :meth:`scaled` by ``p/q`` multiplies the
    numerators by ``p`` and ``d`` by ``q``.  :meth:`weight` sums the parts
    of each raw word, :meth:`to_json` writes the raw words in the decoded
    order, and ``hash`` reads each word's indices and its coefficient's
    value, which every coding gives alike.
    """

    __slots__ = ("_raw", "_scale", "_divisor")

    def __init__(self, terms=None):
        self._raw, self._scale, self._divisor = _encode(dict(terms) if terms else {})

    @classmethod
    def zero(cls) -> "ModuleVector":
        return cls()

    @classmethod
    def _of_coded(cls, raw: dict, scale: int, divisor: Optional[Tuple[int, int]]):
        res = cls.__new__(cls)
        res._raw, res._scale, res._divisor = raw, scale, divisor
        return res

    def _values(self) -> List[Tuple[Tuple[Factor, ...], Coeff]]:
        """Each raw word with its coefficient's value, as every coding gives it."""
        raw = self._raw
        if self._divisor is None:
            return [(w, _lex_coeff(c)) for w, c in raw.items()]
        divisor = self._divisors()
        return [(w, _quotient(c, divisor[len(w)])) for w, c in raw.items()]

    def _divisors(self) -> List[int]:
        """The divisor of an int-shape word, by its length."""
        d, e = self._divisor
        return [d * self._scale ** (e - n) for n in range(e + 1)]

    @classmethod
    def of(cls, mono: PBWMonomial, coeff: Coeff = Fraction(1)) -> "ModuleVector":
        return cls({mono: coeff})

    def items(self) -> List[Tuple[PBWMonomial, Coeff]]:
        """The terms in :meth:`PBWMonomial.sort_key` order, each word decoded."""
        scale = self._scale
        terms = sorted(self._values(), key=lambda wc: _raw_key(wc[0]))
        parts = None if scale == 1 else {
            p: Fraction(p, scale) for p in {p for w, _ in terms for p, _ in w}
        }
        return [(_decode_word(w, parts), c) for w, c in terms]

    def coefficients(self, monos: Iterable[PBWMonomial]) -> List[Coeff]:
        """The coefficients of ``monos``, ``Fraction(0)`` where absent, by one :meth:`items`."""
        terms = dict(self.items())
        return [terms.get(m, Fraction(0)) for m in monos]

    def coefficient(self, mono: PBWMonomial) -> Coeff:
        return self.coefficients([mono])[0]

    def monomials(self) -> List[PBWMonomial]:
        return [m for m, _ in self.items()]

    def __bool__(self) -> bool:
        return bool(self._raw)

    def __len__(self) -> int:
        return len(self._raw)

    def is_zero(self) -> bool:
        return not self

    def _as(self, lex: bool, scale: int) -> "ModuleVector":
        """This vector in the lex-z2 shape if ``lex``, else in the int shape
        at ``scale``; ``TypeError`` if it has no such form.

        From a coarser scale, for ``k = scale / _scale`` each part code is
        multiplied by ``k`` and, under the same divisor, the numerator of a
        word of length ``n`` by ``k**(e - n)``: integer parts at scale 1
        become dyadic ones.  A vector built with no parts and a rational
        coefficient takes the int shape at any scale.
        """
        raw, divisor = self._raw, self._divisor
        if (divisor is None) != lex:
            c = raw.get(())
            if divisor is not None or raw.keys() - {()} or type(c) is tuple:
                raise TypeError("module vectors of different groups do not combine")
            raw, divisor = ({}, (1, 0)) if c is None else ({(): c.numerator}, (c.denominator, 0))
            return self._of_coded(raw, scale, divisor)
        if self._scale == scale:
            return self
        k, finer = divmod(scale, self._scale)
        if finer:
            raise TypeError("module vectors of different groups do not combine")
        d, e = divisor
        power = [k ** (e - n) for n in range(e + 1)]
        raw = {tuple([(p * k, i) for p, i in w]): c * power[len(w)] for w, c in raw.items()}
        return self._of_coded(raw, scale, divisor)

    def _aligned(self, other):
        """``self`` and ``other`` in one coded form, then its scale: the
        finer scale, in the int shape unless both sides are lex-z2."""
        if not isinstance(other, ModuleVector):
            raise TypeError(f"a module vector does not combine with {type(other).__name__}")
        scale, lex = self._scale, self._divisor is None
        if scale == other._scale and lex == (other._divisor is None):
            return self, other, scale
        scale, lex = max(scale, other._scale), lex and other._divisor is None
        return self._as(lex, scale), other._as(lex, scale), scale

    def __eq__(self, other) -> bool:
        try:
            a, b, scale = self._aligned(other)
        except TypeError:  # another group, or not a module vector
            return False
        # equal vectors in one coded form hold the same raw words
        return a._raw.keys() == b._raw.keys() and not _coded_sum(a, b, scale, True)

    def __hash__(self) -> int:
        # each word's index sequence with its coefficient, read without
        # building the word: every scale gives the same, so equal vectors
        # hash alike
        return hash(frozenset([(tuple([i for _, i in w]), c) for w, c in self._values()]))

    def __add__(self, other):
        return _coded_sum(*self._aligned(other), False)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return _coded_sum(*self._aligned(other), True)

    def scaled(self, scalar):
        """This vector times ``scalar``: an ``int``, a ``Fraction`` or, over
        lex-z2, a Q[w] ``Poly``; anything else raises ``ValueError``."""
        raw, lex = self._raw, self._divisor is None
        scalar = _exact(scalar, lex)
        if not scalar:
            return type(self)()
        if lex:
            mul = polynomial.smul
            if type(scalar) is Poly:
                scalar, mul = scalar.coeffs, polynomial.tmul
            return self._of_coded({w: mul(scalar, c) for w, c in raw.items()}, 1, None)
        p, (d, e) = scalar.numerator, self._divisor
        if p != 1:
            raw = {w: c * p for w, c in raw.items()}
        return self._of_coded(raw, self._scale, (d * scalar.denominator, e))

    def __rmul__(self, scalar):
        return self.scaled(scalar)

    def __str__(self) -> str:
        return format_terms(self.items())

    def __repr__(self) -> str:
        return f"<ModuleVector {self}>"

    def weight(self, group: OrderedGroup):
        """Common weight of all monomials, or None when mixed or zero."""
        # minus the sum of each raw word's parts: lex pairs, or int codes
        weights = set()
        if isinstance(group, LexPairGroup):
            for word in self._raw:
                a = b = 0
                for (x, y), _ in word:
                    a -= x
                    b -= y
                weights.add((a, b))
        else:
            for word in self._raw:
                s = 0
                for p, _ in word:
                    s -= p
                weights.add(s)
        if len(weights) != 1:
            return None
        (w,) = weights
        return Fraction(w, self._scale) if isinstance(group, DyadicGroup) else w

    def to_json(self, group: OrderedGroup) -> dict:
        weight = self.weight(group)
        # raw words in the decoded order, with no word or coefficient built
        raw, scale = self._raw, self._scale
        words = sorted(raw, key=_raw_key)
        if self._divisor is None:
            factors = [[[[a, b], i] for (a, b), i in w] for w in words]
            coeffs = [coeff_json(raw[w]) for w in words]
        else:
            factors = [_word_json(w, scale) for w in words]
            divisor = self._divisors()
            coeffs = [_quotient_json(raw[w], divisor[len(w)]) for w in words]
        terms = [{"factors": f, "coeff": c} for f, c in zip(factors, coeffs)]
        return {"weight": None if weight is None else element_json(weight), "terms": terms}

    @classmethod
    def from_json(cls, data: dict, group: OrderedGroup) -> "ModuleVector":
        """Inverse of :meth:`to_json`; malformed input raises ``ValueError``.

        Every word must be normal-ordered, and a stated weight must be the
        weight of the words.
        """
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ValueError("a module vector is a JSON object with a 'terms' list")
        out: Dict[PBWMonomial, Coeff] = {}
        for term in data["terms"]:
            if not (
                isinstance(term, dict)
                and isinstance(term.get("factors"), list)
                and "coeff" in term
            ):
                raise ValueError(f"a term is an object with 'factors' and 'coeff': {term!r}")
            factors = []
            for f in term["factors"]:
                if not isinstance(f, list) or len(f) != 2:
                    raise ValueError(f"a factor is a [part, index] pair: {f!r}")
                factors.append((element_from_json(f[0], group), integer_from_json(f[1])))
            mono = normal_word(factors, group)
            _accumulate(out, mono, coeff_from_json(term["coeff"], group))
        vec = cls(out)
        weight = data.get("weight")
        if weight is not None and element_from_json(weight, group) != vec.weight(group):
            raise ValueError(f"stated weight {weight!r} is not the weight of the words")
        return vec


def _encode(terms: dict):
    """The coded form ``raw, scale, divisor`` of ``terms``, zeros dropped.

    Integer pairs, or no parts at all, take the lex-z2 shape.  Other parts
    take the int shape: ``int`` ones at scale 1, and dyadic ones at the lcm
    of 2 and their denominators, an all-integral word's too.  A
    coefficient is checked by :func:`_exact`.
    """
    part = next((m.factors[0][0] for m in terms if m.factors), None)
    lex = part is None or type(part) is tuple
    terms = {m: c for m, c in terms.items() if _exact(c, lex)}
    items = terms.items()
    if lex or not terms:
        raw = {m.factors: (c.coeffs if type(c) is Poly else c) for m, c in items}
        return raw, 1, None
    parts = [p for m in terms for p, _ in m.factors]
    scale = 1 if all(type(p) is int for p in parts) else math.lcm(2, *[p.denominator for p in parts])
    den = math.lcm(*[c.denominator for _, c in items])
    e = max(len(m.factors) for m, _ in items)
    raw = {
        _encode_word(m, scale): c.numerator * (den // c.denominator) * scale ** (e - len(m.factors))
        for m, c in items
    }
    return raw, scale, (den, e)


def _exact(c, lex: bool):
    """``c`` if it is a ``Poly`` in the lex-z2 shape, else
    :func:`polynomial.exact_rational` of it."""
    return c if lex and type(c) is Poly else polynomial.exact_rational(c)


def _coded_sum(a: ModuleVector, b: ModuleVector, scale: int, negate: bool) -> ModuleVector:
    """``a + b`` or ``a - b`` of two vectors in one coded form at ``scale``."""
    terms = b._raw.items()
    if a._divisor is None:
        out, ar, divisor = dict(a._raw), _LEX_PAIRS, None
    else:
        (d1, e1), (d2, e2) = a._divisor, b._divisor
        x, y = d1 * scale**e1, d2 * scale**e2
        lcm, e = math.lcm(x, y), max(e1, e2)
        mx, my = lcm // x, lcm // y
        out = dict(a._raw) if mx == 1 else {w: c * mx for w, c in a._raw.items()}
        if my != 1:
            terms = [(w, c * my) for w, c in terms]
        ar, divisor = _IntParts, (lcm // scale**e, e)
    if negate:
        out = subtract_terms(out, terms, ar.csub, ar.cneg)
    else:
        out = merge_terms(out, terms, ar.cadd)
    return ModuleVector._of_coded(out, scale, divisor)


# -- highest weight functionals -----------------------------------------


class ExplicitLabels:
    """Finitely supported label sequence, zero beyond the stored prefix."""

    def __init__(self, values: Iterable[Union[int, Fraction]]):
        self.values = tuple(map(exact_fraction, values))

    def label(self, i: int) -> Fraction:
        return self.values[i] if i < len(self.values) else Fraction(0)

    def describe(self) -> str:
        return f"explicit({len(self.values)} stored)"

    def to_json(self):
        return {"explicit": [format_rational(v) for v in self.values]}


class RecurrentLabels:
    """Labels generated by a monic polynomial recurrence.

    For f = sum a_j t^j monic of degree d >= 1 and central charge cc the
    defining conditions are, probing against every power t^m:

        m = 0:   sum_j j * a_j * label(j-1) = a_0 * cc
        m >= 1:  sum_j (j+m) * a_j * label(j+m-1) = 0

    The m = 0 instance fixes label(d-1) from the d-1 free initial labels
    (coefficient d != 0), and each m >= 1 instance fixes label(d+m-1).
    Labels are memoized; the table is append-only, so sharing a weight
    between workers is safe under the GIL, or give each worker its own.

    The m >= 1 instances run in integers: the coefficients a_j = alpha_j
    / A are cleared to one denominator A once, and each new label is one
    integer combination of the labels it reads (at most d) over the lcm L
    of their denominators, so it costs one ``Fraction``,
    ``-sum_j (j+m) alpha_j label(j+m-1) L / (A L (d+m))``.
    """

    def __init__(self, charpoly: Poly, initial: Sequence[Union[int, Fraction]], central_charge):
        if not charpoly.is_monic or charpoly.degree < 1:
            raise ValueError("recurrence polynomial must be monic of degree >= 1")
        if len(initial) != charpoly.degree - 1:
            raise ValueError(
                f"expected {charpoly.degree - 1} initial labels, got {len(initial)}"
            )
        self.charpoly = charpoly
        self.central_charge = exact_fraction(central_charge)
        self._memo: List[Fraction] = list(map(exact_fraction, initial))
        cs = charpoly.coeffs
        # A and the pairs (j, alpha_j) of the nonzero a_j below the top
        self._den = math.lcm(*[c.denominator for c in cs])
        self._terms = [
            (j, c.numerator * (self._den // c.denominator))
            for j, c in enumerate(cs[:-1])
            if c
        ]

    def label(self, i: int) -> Fraction:
        d = self.charpoly.degree
        a = self.charpoly.coefficient
        memo = self._memo
        while len(memo) <= i:
            n = len(memo)  # computing label(n)
            if n == d - 1:
                s = a(0) * self.central_charge
                for j in range(1, d):
                    s -= j * a(j) * memo[j - 1]
                memo.append(s / d)
            else:
                m = n - d + 1  # n = d + m - 1 with m >= 1
                window = [memo[j + m - 1] for j, _ in self._terms]
                lam = math.lcm(*[x.denominator for x in window])
                s = 0
                for (j, alpha), x in zip(self._terms, window):
                    s += (j + m) * alpha * x.numerator * (lam // x.denominator)
                memo.append(Fraction(-s, self._den * lam * (d + m)))
        return memo[i]

    def describe(self) -> str:
        return f"recurrent(f = {self.charpoly})"

    def to_json(self):
        return {
            "charpoly": [format_rational(c) for c in self.charpoly.coeffs],
            "initial": [
                format_rational(v) for v in self._memo[: self.charpoly.degree - 1]
            ],
        }


class HighestWeight:
    """Central charge plus the label sequence of the weight-zero modes."""

    def __init__(self, central_charge, labels):
        self.central_charge = exact_fraction(central_charge)
        self.labels = labels

    @classmethod
    def explicit(cls, values, central_charge) -> "HighestWeight":
        return cls(central_charge, ExplicitLabels(values))

    @classmethod
    def zero(cls) -> "HighestWeight":
        return cls(0, ExplicitLabels(()))

    def label(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("labels are defined for indices >= 0")
        return self.labels.label(i)

    def shadow(self, n: int) -> Fraction:
        """The sequence n * label(n-1), with value 0 at n = 0."""
        if n < 0:
            raise ValueError("shadow sequence starts at 0")
        return Fraction(0) if n == 0 else n * self.label(n - 1)

    def is_recurrent(self) -> bool:
        return isinstance(self.labels, RecurrentLabels)

    def describe(self) -> str:
        return f"cc={self.central_charge}, labels {self.labels.describe()}"

    def to_json(self) -> dict:
        return {
            "central_charge": format_rational(self.central_charge),
            "labels": self.labels.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "HighestWeight":
        """Inverse of :meth:`to_json`; malformed input raises ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError("a weight spec is a JSON object")
        cc = parse_rational(data.get("central_charge", 0))
        spec = data.get("labels", data)
        if not isinstance(spec, dict):
            raise ValueError("weight 'labels' must be a JSON object")
        if "charpoly" in spec:
            f = Poly(_rational_list(spec, "charpoly"))
            initial = _rational_list(spec, "initial")
            return cls(cc, RecurrentLabels(f, initial, cc))
        if "explicit" in spec:
            return cls.explicit(_rational_list(spec, "explicit"), cc)
        raise ValueError("weight spec needs either 'charpoly' or 'explicit' labels")


def _rational_list(spec: dict, key: str) -> list:
    values = spec.get(key, [])
    if not isinstance(values, list):
        raise ValueError(f"weight {key!r} must be a JSON list")
    return [parse_rational(v) for v in values]


# -- the module ----------------------------------------------------------


class VermaModule:
    """Straightening engine for one algebra and one highest weight.

    ``step_budget`` caps the work-stack steps of one :meth:`act` call,
    about one per factor a generator passes (see :meth:`_straighten`).
    :meth:`action_rows` straightens a whole basis in one run but charges
    each basis word separately: a word runs to the end before the next
    starts, against a fresh ``step_budget``.  So the run fails exactly
    where one :meth:`act` call per word would, and a word too large for
    the budget still ends in :class:`StraighteningLimitError`.

    Beyond its settings a module keeps only the label lcms of
    :meth:`_weight_scale`, so a result depends on its own run alone.
    """

    def __init__(self, algebra: BlockAlgebra, weight: HighestWeight, step_budget: int = 5_000_000):
        self.algebra = algebra
        self.group = algebra.group
        self.hw = weight
        self.step_budget = step_budget
        self._weight_scales: List[int] = []  # see _weight_scale

    # -- construction and validation ------------------------------------

    def vacuum(self) -> ModuleVector:
        return ModuleVector.of(VACUUM)

    def monomial(self, factors: Iterable[Factor]) -> PBWMonomial:
        """Validated normal-ordered word (see :func:`normal_word`)."""
        return normal_word(factors, self.group)

    def vector(self, factors: Iterable[Factor]) -> ModuleVector:
        return ModuleVector.of(self.monomial(factors))

    # -- straightening ---------------------------------------------------

    def act(self, sym: BasisSymbol, vec: ModuleVector) -> ModuleVector:
        """Exact action of a basis symbol, result in normal form.

        The result holds the kernel's output in the coded form of
        :class:`ModuleVector`: its words and coefficients are built when
        first read term by term.  Read, an integer or dyadic coefficient
        is an ``int`` exactly when it is integral.  The central symbol
        acts as the central charge, through :meth:`ModuleVector.scaled`.

        Raises :class:`StraighteningLimitError` when the step budget runs
        out; the budget is the only cap on the length of a word.
        """
        if isinstance(sym, Central):
            return vec.scaled(self.hw.central_charge)
        (raw,), scale, divisor = self._run(sym, [vec])
        return ModuleVector._of_coded(raw, scale, divisor)

    def act_each(self, sym: Generator, vecs: Sequence[ModuleVector]) -> List[ModuleVector]:
        """:meth:`act` of a generator on each of ``vecs``, in one straightening
        run: each vector is its own input, with its own output and its own
        step budget (:meth:`_run`)."""
        outs, scale, divisor = self._run(sym, vecs)
        return [ModuleVector._of_coded(raw, scale, divisor) for raw in outs]

    def action_rows(
        self, probe: Generator, basis: Sequence[PBWMonomial]
    ) -> List[Dict[int, Coeff]]:
        """The matrix of ``probe`` on ``basis``, one sparse row per output word.

        The row of an output word maps column ``j`` to its coefficient in
        ``act(probe, basis[j])``, over the integers and dyadics times the
        run's divisor for the word's length (see :meth:`_run`).  Rows come
        in the order of :meth:`PBWMonomial.sort_key` on their words, and
        the columns of a row ascend.  One straightening run covers the
        whole basis: each word is its own input, with its own output dict
        and its own step budget, and output words stay raw factor tuples
        (coded ones over the dyadic instance, which sort the same), never
        decoded.

        Over the integers and dyadics every row is an ``int`` row.  All
        entries of a row share one positive divisor, so the row space is
        the one of the ``act`` rows.  Over lex-z2 the rows are the ``act``
        rows themselves, with a Q[w] entry as its ``Poly``.
        """
        if isinstance(probe, Central):
            raise ValueError("action rows need a generator, not the central symbol")
        cols, _, divisor = self._run(probe, basis)
        rows: Dict[Tuple[Factor, ...], Dict[int, Coeff]] = {}
        for j, words in enumerate(cols):
            for w, c in words.items():
                if divisor is None:
                    c = _lex_coeff(c)
                row = rows.get(w)
                if row is None:
                    rows[w] = {j: c}
                else:
                    row[j] = c
        return [rows[w] for w in sorted(rows, key=_raw_key)]

    def _run(self, sym: Generator, inputs: Sequence[Union[ModuleVector, PBWMonomial]]):
        """Straighten ``sym`` on each of ``inputs`` in one kernel run.

        An input is a vector, or a word that stands for itself with
        coefficient 1.  Returns one dict per input, from raw output words
        to their nonzero coefficients, the scale of those words and the
        run's divisor, in the terms of the coded form of
        :class:`ModuleVector`.  Each input is straightened in full before
        the next starts and spends its own step budget.  A vector enters
        in its coded form, re-coded first if its scale is coarser than the
        run's (:meth:`ModuleVector._as`): no word is decoded and no
        coefficient cleared again.

        Integer and dyadic parts share one integer kernel, because the
        dyadic algebra is the integer one rescaled: for a scale ``S`` that
        clears every denominator, ``L(a,i) -> L(S*a,i)/S`` and ``c -> c/S``
        map it into the integer algebra, and the module of weight ``(cc,
        labels)`` goes to the integer module of weight ``(S*cc,
        S*labels)``, a word of length ``k`` to ``S^-k`` times its image.
        A dyadic run takes for ``S`` the lcm of 2 and the denominators of
        ``sym`` and its inputs, a vector's ``_scale`` or a word's parts, so
        that ``S`` alone tells it from an integer run, which has ``S = 1``.
        So a part ``x`` runs as the ``int`` code ``x*S`` (``S > 0`` keeps
        the order), every structure constant is an ``int``, and the weight
        data enters scaled (see :meth:`_straighten`).
        An output word of length ``n`` then carries ``S^(n - len_in - 1)``.

        Such a run stays in ``int``.  An input word of length ``len_in``
        enters as the ``int`` ``c*den*lam*S^(top - len_in)``: ``top``
        bounds the input word lengths and ``den`` is a common denominator
        of the input coefficients, both over the whole run.  An input of
        divisor ``(d, e)`` holds ``c*d*S^(e - len_in)``, so it brings ``d``
        to ``den`` and ``e`` to ``top`` and enters times one factor.
        ``lam`` is the lcm of the central charge's denominator and the
        denominators of labels ``0..sym.index + 1 + reach``, or 1 when no
        input word can reach a label or the central charge
        (:func:`_label_reach`), such as under a generator of negative
        weight.  A zero mode meets no central term and no other label (its
        bracket terms only insert), so its ``lam`` is that of ``label(index
        + 1)``.  Every label or central term is then an exact division,
        and an output word of length ``n`` carries the divisor
        ``den*lam*S^(top + 1 - n)``: the run's divisor is ``(den*lam, top +
        1)``.  Over lex-z2 the outputs are the action itself, divisor
        ``None``.
        """
        g = self.group
        alpha, idx = sym.alpha, sym.index
        g.validate(alpha)
        outs: List[Dict[Tuple[Factor, ...], Coeff]] = []
        seeds = []
        if isinstance(g, LexPairGroup):
            for x in inputs:
                if type(x) is PBWMonomial:
                    terms = ((x.factors, 1),)
                else:
                    terms = x._as(True, 1)._raw.items()
                dest, tasks = {}, []
                for factors, c in terms:
                    if type(c) is Fraction and c.denominator == 1:
                        c = c.numerator  # integral: straighten in int arithmetic
                    tasks.append((_APPLY, alpha, idx, (), factors, c, dest))
                outs.append(dest)
                seeds.append(tasks)
            self._straighten(seeds, _LEX_PAIRS)
            return outs, 1, None
        # Integer and dyadic words run on the integer kernel, a dyadic word
        # coded at the run's scale.
        if isinstance(g, DyadicGroup):
            scale = math.lcm(2, alpha.denominator, *[
                math.lcm(*[p.denominator for p, _ in x.factors]) if type(x) is PBWMonomial
                else x._scale for x in inputs])
            alpha = alpha.numerator * (scale // alpha.denominator)
        else:
            scale = 1
        top, den, reach, sources = 0, 1, -1, []
        for x in inputs:
            if type(x) is PBWMonomial:  # a word times 1: divisor 1 at its length
                factors = _encode_word(x, scale)
                terms, d, e = ((factors, 1),), 1, len(factors)
            else:
                x = x._as(False, scale)
                terms, (d, e) = x._raw.items(), x._divisor
            den = math.lcm(den, d)
            if e > top:
                top = e
            if alpha >= 0:  # a negative generator only inserts
                for factors, _ in terms:
                    r = _label_reach(alpha, factors)
                    if r > reach:
                        reach = r
            sources.append((terms, d, e))
        if reach < 0:
            lam = 1
        elif alpha == 0:
            lam = self.hw.label(idx + 1).denominator
        else:
            lam = self._weight_scale(idx + 1 + reach)
        enter = [lam * scale ** (top - n) for n in range(top + 1)]
        for terms, d, e in sources:
            dest, tasks = {}, []
            m = enter[e] * (den // d)
            for factors, c in terms:
                tasks.append((_APPLY, alpha, idx, (), factors, c * m, dest))
            outs.append(dest)
            seeds.append(tasks)
        self._straighten(seeds, _IntParts(scale))
        return outs, scale, (den * lam, top + 1)

    def act_element(self, elem: LieElement, vec: ModuleVector) -> ModuleVector:
        """Linear extension of :meth:`act` over a Lie element."""
        terms = [self.act(sym, vec).scaled(coeff) for sym, coeff in elem.items()]
        return reduce(operator.add, terms) if terms else ModuleVector.zero()

    def _straighten(self, seeds: list, ar) -> None:
        """Run each seed's tasks until the stack is empty; words are plain factor tuples.

        One loop runs over an explicit LIFO work stack, so no word is held
        on the interpreter's call stack and the step budget is the only cap
        on the length of a word.  A task stands a generator between the
        halves ``head`` and ``factors`` of a normal word, where every
        factor of ``head`` sorts at or below every factor of ``factors``.
        The generator moves right by ``A B = B A + [A, B]``, and each factor
        it passes joins ``head``.  A negative generator stops where it
        sorts: the bracket of two negative generators is one negative
        generator on a shorter word, so insertion terminates.  A zero- or
        positive-weight one walks on to ``v``, where the positive part acts
        as zero and a zero mode leaves a label term on ``head``.  Of its
        brackets, a central term lands on ``head + factors``, one of weight
        at least zero walks on with the same ``head``, and L(-q, j) is
        inserted into ``factors`` when ``(q, j)`` sorts at or above
        ``head[-1]``.  Otherwise it moves left past ``H2``, the factors of
        ``head = H1 + H2`` above ``(q, j)``: by ``H2 L = L H2 + sum_k h_<k
        [h_k, L] h_>k`` the normal word ``H1 + ((q, j),) + H2 + factors``
        is placed at once, and each ``h_k = (p_k, i_k)`` of ``H2`` inserts
        L(-(p_k + q), i_k + j) into the factors after it, behind those
        before it, whose parts are at most ``p_k``.  Termination holds by
        induction on (word length, inversion count); the budget still
        guards every input, so a bug fails loudly instead of hanging.

        ``seeds`` is a list of task lists, one per input of the run.  An
        input runs to the end before the next one starts, with a fresh
        budget of ``step_budget`` steps.  A task adds ``coeff`` times
        ``head``, the generator and ``factors``, in normal form, into the
        dict ``dest``: ``(_APPLY, gamma, idx, head, factors, coeff, dest)``
        applies L(gamma, idx) and ``(_INSERT, head, part, idx, factors,
        coeff, dest)`` inserts L(-part, idx).  A seed applies with an empty
        ``head``, and only a seed has a negative ``gamma``.  One step is
        spent by each negative generator applied, each factor a generator
        passes to the right or the left, and each walk or insertion that
        ends.  ``ar`` is the part arithmetic of the run, :class:`_IntParts`
        or :class:`_LexPairs`.  Coefficients meet only its ring hooks
        ``mul``, ``smul`` and ``cadd``, so a Q[w] coefficient stays a tuple
        here and no ``Poly`` is built.  A label term is ``smul(label,
        coeff)`` and a central term ``smul(cc, mul(scalar(gamma), coeff))``.
        On integer parts coded at the run's scale ``S``, ``smul`` by ``p/q``
        is ``coeff // q * p * S``, so the weight data enters scaled with the
        parts: both terms go straight to the output, so the coefficient
        they scale is still an integer multiple of the entry scale of
        :meth:`_run`, which ``q`` divides.
        """
        zero, add, sub, neg, const = ar.zero, ar.add, ar.sub, ar.neg, ar.const
        mul, smul, cadd = ar.mul, ar.smul, ar.cadd
        label, cc = self.hw.label, self.hw.central_charge
        stack: list = []
        push, pop = stack.append, stack.pop
        for tasks in seeds:
            budget = self.step_budget
            stack += tasks
            while stack:
                task = pop()
                if task[0] == _APPLY:
                    _, gamma, idx, head, factors, coeff, dest = task
                    if gamma < zero:
                        # one step for the application, checked with the first
                        # step of the insertion it becomes
                        budget -= 1
                        part = neg(gamma)
                    else:
                        while True:
                            budget -= 1
                            if budget < 0:
                                raise self._exhausted()
                            if not factors:
                                if gamma == zero:
                                    _accumulate(dest, head, smul(label(idx + 1), coeff), cadd)
                                break  # the positive part annihilates the highest weight vector
                            # L(gamma) L(-p1) = L(-p1) L(gamma) + [L(gamma), L(-p1)]
                            first, factors = factors[0], factors[1:]
                            p1, i1 = first
                            bcoeff = const(-(idx + 1), p1, i1 + 1, gamma)
                            if bcoeff:
                                beta, j, c = sub(gamma, p1), idx + i1, mul(bcoeff, coeff)
                                q = neg(beta)
                                if beta >= zero:
                                    push((_APPLY, beta, j, head, factors, c, dest))
                                elif not head or (q, j) >= head[-1]:
                                    # the application's step, checked by the insertion
                                    budget -= 1
                                    push((_INSERT, head, q, j, factors, c, dest))
                                else:
                                    # the application and a left move past H2 = head[k:]
                                    k = bisect_right(head, (q, j))
                                    budget -= 1 + len(head) - k
                                    if budget < 0:
                                        raise self._exhausted()
                                    _accumulate(dest, head[:k] + ((q, j),) + head[k:] + factors,
                                                c, cadd)
                                    for t in range(k, len(head)):
                                        pk, ik = head[t]
                                        merged = const(j + 1, pk, ik + 1, q)
                                        if merged:
                                            push((_INSERT, head[:t], add(pk, q), ik + j,
                                                  head[t + 1:] + factors, mul(merged, c), dest))
                            if gamma == p1 and idx + i1 == -2:
                                _accumulate(dest, head + factors,
                                            smul(cc, mul(ar.scalar(gamma), coeff)), cadd)
                            head += (first,)
                        continue
                else:
                    _, head, part, idx, factors, coeff, dest = task
                while True:
                    budget -= 1
                    if budget < 0:
                        raise self._exhausted()
                    if not factors or (part, idx) <= factors[0]:
                        word = head + ((part, idx),) + factors
                        prev = dest.get(word)  # _accumulate, inlined on the hot path
                        if prev is None:
                            dest[word] = coeff
                        else:
                            s = cadd(prev, coeff)
                            if s:
                                dest[word] = s
                            else:
                                del dest[word]
                        break
                    # L(-part) L(-p1) = L(-p1) L(-part) + [L(-part), L(-p1)].
                    # Every factor of a swapped word is at least (p1, i1): the
                    # factors after it are, (part, idx) > (p1, i1) on this
                    # branch, and a merged part part + p_k exceeds p_k >= p1
                    # since part is positive.  So L(-p1, i1) joins the head as it
                    # stands, and the insertion goes on into the rest.
                    first, factors = factors[0], factors[1:]
                    p1, i1 = first
                    merged = const(i1 + 1, part, idx + 1, p1)
                    if merged:
                        push((_INSERT, head, add(part, p1), idx + i1, factors,
                              mul(merged, coeff), dest))
                    head += (first,)

    def _weight_scale(self, n: int) -> int:
        """The lcm of the central charge's denominator and those of labels 0..n."""
        if isinstance(self.hw.labels, ExplicitLabels):
            # labels past the stored prefix are 0, of denominator 1
            n = min(n, len(self.hw.labels.values) - 1)
            if n < 0:
                return self.hw.central_charge.denominator
        lcms = self._weight_scales
        while len(lcms) <= n:
            prev = lcms[-1] if lcms else self.hw.central_charge.denominator
            lcms.append(math.lcm(prev, self.hw.label(len(lcms)).denominator))
        return lcms[n]

    def _exhausted(self) -> StraighteningLimitError:
        return StraighteningLimitError(
            f"straightening exceeded the {self.step_budget}-step budget"
        )

    # -- weight space enumeration ----------------------------------------

    def weight_basis(
        self,
        mu,
        max_index: int,
        parts: Optional[Sequence] = None,
        max_parts: Optional[int] = None,
    ) -> List[PBWMonomial]:
        """All normal-ordered monomials of weight ``mu`` within the horizon.

        Indices range over [-1, max_index].  Over the integers the part
        catalog defaults to 1..|mu|; any other instance must supply a
        finite catalog of positive parts (a dense order admits infinitely
        many decompositions).  The lexicographic instance additionally
        needs ``max_parts``: positivity alone does not bound word length
        there.  The horizon is ``int`` and not vacuous: ``max_index`` is at
        least -1 and ``max_parts``, when given, at least 0.

        The enumeration is iterative: one loop over an explicit stack of
        normal-ordered prefixes, each with the weight still to place, so
        no word is held on the interpreter's call stack.  A prefix grows
        by a factor never below its last one, and one of ``max_parts``
        factors does not grow.  The list is sorted by
        :meth:`PBWMonomial.sort_key`.
        """
        check_int(max_index, "max_index", -1)
        if max_parts is not None:
            check_int(max_parts, "max_parts", 0)
        g = self.group
        sign = g.compare(mu, g.zero())  # validates mu
        if sign > 0:
            raise ValueError("weight spaces sit at non-positive weights")
        if sign == 0:
            return [VACUUM]
        target = g.neg(mu)
        if parts is None:
            if isinstance(g, IntegerGroup):
                parts = list(range(1, target + 1))
            else:
                raise ValueError(
                    f"the {g.name} instance needs an explicit part catalog"
                )
        parts = sorted(set(parts))
        for p in parts:
            if not g.is_positive(p):  # validates p
                raise ValueError(f"catalog part {p} is not positive")
        if isinstance(g, LexPairGroup) and max_parts is None:
            raise ValueError("the lex-z2 instance needs a max_parts bound")

        # a stack entry also holds the catalog position of its last part:
        # the next part walks the catalog from there, and a repeated part
        # starts at the last index
        zero, top = g.zero(), max_index + 1
        out = []
        stack = [((), target, 0)]
        while stack:
            word, remaining, start = stack.pop()
            if remaining == zero:
                out.append(PBWMonomial(word))
                continue
            if max_parts is not None and len(word) >= max_parts:
                continue
            first = word[-1][1] if word else -1
            for k in range(start, len(parts)):
                p = parts[k]
                # every continuation adds at least p, so overshoot prunes
                if g.compare(p, remaining) > 0:
                    break
                rest = g.sub(remaining, p)
                for i in range(first if k == start else -1, top):
                    stack.append((word + ((p, i),), rest, k))
        out.sort(key=PBWMonomial.sort_key)
        return out

    # -- submodule closure -------------------------------------------------

    def submodule_generated(
        self,
        seeds: Sequence[ModuleVector],
        catalog: Sequence[BasisSymbol],
        depth: int,
    ) -> Dict[object, List[ModuleVector]]:
        """Spanning vectors of the closure of ``seeds`` under the catalog.

        Applies every catalogued symbol up to ``depth`` times and files
        the nonzero results by weight.  A spanning set, not a basis.
        """
        seen = set(seeds)
        frontier = list(seeds)
        collected = list(seeds)
        for _ in range(depth):
            new = []
            for vec in frontier:
                for sym in catalog:
                    w = self.act(sym, vec)
                    if w:
                        size = len(seen)
                        seen.add(w)  # one hash per result
                        if len(seen) > size:
                            new.append(w)
            collected.extend(new)
            frontier = new
            if not frontier:
                break
        by_weight: Dict[object, List[ModuleVector]] = {}
        for vec in collected:
            by_weight.setdefault(vec.weight(self.group), []).append(vec)
        return by_weight


def _accumulate(store: Dict, mono, coeff: Coeff, add=operator.add):
    if not coeff:
        return
    prev = store.get(mono)
    if prev is None:
        store[mono] = coeff
        return
    s = add(prev, coeff)
    if s:
        store[mono] = s
    else:
        del store[mono]


# -- element arithmetic of one straightening run ---------------------------


class _IntParts:
    """Integer parts, and dyadic parts coded as ints at ``scale``; a scalar
    image is the int itself.

    Coefficients are ``int``s.  ``mul``, ``cadd``, ``csub`` and ``cneg``
    are the plain operators, and ``smul`` by a label or the central charge
    ``p/q`` is the exact division ``a // q * p`` times ``scale`` (see
    :meth:`VermaModule._run`).  Each run makes its own at its scale;
    :func:`_coded_sum` reads only the plain operators, from the class.
    """

    __slots__ = ("scale",)
    zero = 0
    add = cadd = staticmethod(operator.add)
    sub = csub = staticmethod(operator.sub)
    neg = cneg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def __init__(self, scale: int):
        self.scale = scale

    def smul(self, x, a):
        return a // x.denominator * x.numerator * self.scale

    @staticmethod
    def scalar(x):
        return x

    @staticmethod
    def const(n, x, m, y):
        """Scalar image of ``n*x - m*y``."""
        return n * x - m * y


class _LexPairs:
    """Lex-z2 pairs as tuples; the scalar image of ``(a, b)`` is ``a*w + b``.

    Coefficients are the Q[w] tuples of :mod:`polynomial`, and this class
    keeps only the pair operations and the two scalar images, ``scalar``
    and ``const``, which return linear tuples.  The ring hooks ``mul``,
    ``smul`` and ``cadd``, and ``csub`` and ``cneg`` for
    :func:`_coded_sum`, are the tuple functions of :mod:`polynomial`,
    bound as they are.  A coefficient is a tuple once w-arithmetic has
    touched it and a plain rational before (see the module docstring),
    and they take either.  ``Poly`` appears only at the boundary: a vector
    built from words holds a ``Poly`` coefficient as its ``coeffs``
    (:func:`_encode`), :meth:`ModuleVector.scaled` multiplies by a
    ``Poly`` scalar's coefficients through :func:`polynomial.tmul`, and a
    tuple becomes a ``Poly`` where a vector is read (:func:`_lex_coeff`);
    ``to_json`` writes the tuple through :func:`lie.coeff_json` without one.
    """

    __slots__ = ()
    zero = (0, 0)

    @staticmethod
    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    @staticmethod
    def neg(x):
        return (-x[0], -x[1])

    @staticmethod
    def scalar(x):
        a, b = x
        return (b, a) if a else ((b,) if b else ())

    @staticmethod
    def const(n, x, m, y):
        """Scalar image of ``n*x - m*y``."""
        a = n * x[0] - m * y[0]
        b = n * x[1] - m * y[1]
        return (b, a) if a else ((b,) if b else ())

    mul = staticmethod(polynomial.mul)
    smul = staticmethod(polynomial.smul)
    cadd = staticmethod(polynomial.cadd)
    csub = staticmethod(polynomial.csub)
    cneg = staticmethod(polynomial.cneg)


_APPLY, _INSERT = range(2)  # task kinds of VermaModule._straighten
_LEX_PAIRS = _LexPairs()


def _label_reach(gamma: int, factors: Tuple[Factor, ...]) -> int:
    """A bound on the indices L(gamma, i) consumes from ``factors`` on its way
    to a label or the central charge; -1 when it reaches neither.

    ``gamma`` is not negative: a generator of negative weight only
    inserts and reaches neither.  Applying L(gamma, i) consumes a
    subsequence of the factors: consuming ``(p, j)`` leaves L(gamma - p,
    i + j), which only inserts once its weight is negative.  So a label,
    reached at ``v`` with weight 0, has index ``i + 1`` plus the indices
    of consumed parts ``p <= gamma`` that sum to ``gamma``, and a central
    term, met where the weight equals the next part, also needs the parts
    to reach ``gamma``.  A generator heavier than the word reaches neither.
    """
    weight = reach = 0
    for p, j in factors:
        weight += p
        if j > 0 and p <= gamma:
            reach += j
    return reach if weight >= gamma else -1


def _raw_key(word: Tuple[Factor, ...]):
    """:meth:`PBWMonomial.sort_key` of a raw word: codes at one scale keep
    the order of parts."""
    return (len(word), word)


def _lex_coeff(c) -> Coeff:
    """A lex-z2 kernel coefficient as read: a Q[w] tuple becomes its ``Poly``."""
    return Poly.of_exact(c) if type(c) is tuple else c


def _quotient(c: int, d: int) -> Union[int, Fraction]:
    """``c / d``: an ``int`` when ``d`` divides ``c``, else a ``Fraction``."""
    if d == 1:
        return c
    q, r = divmod(c, d)
    return Fraction(c, d) if r else q


def _quotient_json(c: int, d: int) -> str:
    """The JSON form of ``c / d`` for a positive ``d``, with no ``Fraction`` built."""
    g = math.gcd(c, d)
    return f"{c // g}/{d // g}"


def _encode_word(mono: PBWMonomial, scale: int) -> Tuple[Factor, ...]:
    """The raw word of ``mono`` at ``scale``: its factors at scale 1, where
    parts are integers or lex-z2 pairs, and otherwise each dyadic part
    ``x`` as the ``int`` ``x*scale``.

    A dyadic scale is a power of two and at least 2 and a multiple of
    every part's denominator, so codes keep the order of parts.
    """
    if scale == 1:
        return mono.factors
    return tuple([(p.numerator * (scale // p.denominator), i) for p, i in mono.factors])


def _decode_word(word: Tuple[Factor, ...], parts: Optional[Dict[int, Fraction]]) -> PBWMonomial:
    """The word of a raw one: its parts as they are at scale 1, where
    ``parts`` is ``None``, else the ``Fraction`` of each part code, an
    integral one too, from ``parts``."""
    if not word:
        return VACUUM
    if parts is None:
        return PBWMonomial(word)
    return PBWMonomial(tuple([(parts[p], i) for p, i in word]))


def _word_json(word: Tuple[Factor, ...], scale: int) -> list:
    """The JSON factors of an int-shape raw word at ``scale``: an integer
    part as it is, a dyadic one as :func:`lie.element_json` writes it, with
    no ``Fraction`` built."""
    if scale == 1:
        return list(map(list, word))
    out = []
    for p, i in word:
        g = math.gcd(p, scale)
        out.append([str(p // g) if g == scale else f"{p // g}/{scale // g}", i])
    return out
