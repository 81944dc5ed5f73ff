"""Highest weight modules with a PBW monomial basis.

A module vector is an exact linear combination of normal-ordered words

    L(-a_1, i_1) * ... * L(-a_k, i_k) * v,

where the parts ``a_s`` are positive group elements, weakly increasing
left to right, and the indices ``i_s`` weakly increase within a run of
equal parts.  The highest weight functional assigns a rational label to
every weight-zero generator and a central charge to the central symbol;
positive-weight generators annihilate ``v``.

Straightening is a two-step recursion:

* a negative generator is inserted into a word by adjacent swaps
  ``A B = B A + [A, B]``; the commutator of two negative generators is a
  single negative generator on a shorter word, so insertion terminates
  (parts only merge into larger parts);
* a zero- or positive-weight generator commutes toward ``v``, spawning
  commutator terms that are processed recursively by weight sign; at
  ``v`` the positive part acts as zero and the zero modes act through
  the labels.

Termination is provable by induction on (word length, inversion count),
but an explicit work counter still guards every top-level action so an
implementation bug fails loudly instead of hanging.

One recursion serves all three instances; :meth:`VermaModule.act` hands
it the group-element arithmetic of the run.  Integer parts and lex-z2
pairs are straightened as they are.  Dyadic parts are straightened as
integer codes: ``act`` takes the largest denominator ``S`` among the
symbol's weight and the parts of the input words, a power of two, and
codes each part ``x`` as the ``int`` ``x*S``.  Every part the recursion
reaches lies in ``S^-1 Z``, and ``S > 0`` keeps the order, so comparing,
adding and hashing parts is plain ``int`` work; a structure constant is
``n/S`` (an ``int`` when it divides).  The output words are decoded once
per action, back to ``Fraction`` parts, integral ones included.

Coefficients are exact and come in three representations that compare
and hash alike: a Python ``int`` while the value is integral (the
integer structure constants, and an integral input coefficient, which
:meth:`VermaModule.act` passes down as an ``int``); a ``Fraction`` once
a label, the central charge, a dyadic part or a fractional input enters;
and a ``Poly`` in the formal unit ``w`` over the lex-z2 instance.  A
product is written with the ``Fraction`` or ``Poly`` operand on the left,
so it takes the operand's own method rather than the slower reflected
one.  The JSON form ``"p/q"`` is the same for ``3`` and ``Fraction(3)``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .groups import DyadicGroup, IntegerGroup, LexPairGroup, OrderedGroup
from .lie import (
    BasisSymbol,
    BlockAlgebra,
    Central,
    Coeff,
    LieElement,
    SparseCombination,
    coeff_from_json,
    coeff_json,
    element_from_json,
    element_json,
    integer_from_json,
)
from .polynomial import Poly, format_rational, parse_rational

Factor = Tuple[object, int]  # (positive part, index >= -1)


class StraighteningLimitError(RuntimeError):
    """The straightening work counter was exhausted (step budget)."""


@dataclass(frozen=True)
class PBWMonomial:
    """Normal-ordered word applied to the highest weight vector.

    Immutable, so its hash is computed once: straightening files every
    word it produces in a dict, and a word is looked up many times.
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

    Parts must be positive elements of ``group`` and indices integers
    ``>= -1``, with the factors weakly increasing.
    """
    fs = tuple(factors)
    prev = None
    for p, i in fs:
        group.validate(p)
        if not group.is_positive(p):
            raise ValueError(f"part {p} is not positive")
        if i < -1:
            raise ValueError("index must be >= -1")
        if prev is not None and (p, i) < prev:
            raise ValueError("factors are not normal-ordered")
        prev = (p, i)
    return PBWMonomial(fs)


class ModuleVector(SparseCombination):
    """Exact linear combination of PBW monomials."""

    __slots__ = ()

    _sort_key = staticmethod(PBWMonomial.sort_key)

    @classmethod
    def of(cls, mono: PBWMonomial, coeff: Coeff = Fraction(1)) -> "ModuleVector":
        return cls({mono: coeff})

    def monomials(self) -> List[PBWMonomial]:
        return [m for m, _ in self.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def weight(self, group: OrderedGroup):
        """Common weight of all monomials, or None when mixed or zero."""
        w = None
        for mono in self._terms:
            s = group.zero()
            for p, _ in mono.factors:
                s = group.add(s, p)
            mw = group.neg(s)
            if w is None:
                w = mw
            elif w != mw:
                return None
        return w

    def to_json(self, group: OrderedGroup) -> dict:
        w = self.weight(group)
        return {
            "weight": element_json(w) if w is not None else None,
            "terms": [
                {
                    "factors": [[element_json(p), i] for p, i in mono.factors],
                    "coeff": coeff_json(c),
                }
                for mono, c in self.items()
            ],
        }

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


# -- highest weight functionals -----------------------------------------


class ExplicitLabels:
    """Finitely supported label sequence, zero beyond the stored prefix."""

    def __init__(self, values: Iterable[Union[int, Fraction]]):
        self.values = tuple(Fraction(v) for v in values)

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
    """

    def __init__(self, charpoly: Poly, initial: Sequence[Union[int, Fraction]], central_charge):
        if not charpoly.is_monic or charpoly.degree < 1:
            raise ValueError("recurrence polynomial must be monic of degree >= 1")
        if len(initial) != charpoly.degree - 1:
            raise ValueError(
                f"expected {charpoly.degree - 1} initial labels, got {len(initial)}"
            )
        self.charpoly = charpoly
        self.central_charge = Fraction(central_charge)
        self._memo: List[Fraction] = [Fraction(v) for v in initial]

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
                s = Fraction(0)
                for j in range(0, d):
                    s += (j + m) * a(j) * memo[j + m - 1]
                memo.append(-s / (d + m))
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
        self.central_charge = Fraction(central_charge)
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

    ``step_budget`` caps the recursive steps of one :meth:`act` call; each
    insertion and each application of a generator is one step.  A
    generator swapped past a factor goes to the front of every resulting
    word directly, without an insertion, so it spends no step there.
    """

    def __init__(self, algebra: BlockAlgebra, weight: HighestWeight, step_budget: int = 5_000_000):
        self.algebra = algebra
        self.group = algebra.group
        self.hw = weight
        self.step_budget = step_budget

    # -- construction and validation ------------------------------------

    def vacuum(self) -> ModuleVector:
        return ModuleVector.of(VACUUM)

    def monomial(self, factors: Iterable[Factor]) -> PBWMonomial:
        """Validated normal-ordered word."""
        return normal_word(((p, int(i)) for p, i in factors), self.group)

    def vector(self, factors: Iterable[Factor]) -> ModuleVector:
        return ModuleVector.of(self.monomial(factors))

    def zero_mode(self, sym: BasisSymbol) -> Fraction:
        """Value of the weight functional on a weight-zero symbol."""
        if isinstance(sym, Central):
            return self.hw.central_charge
        if sym.alpha != self.group.zero():
            raise ValueError("zero-mode action needs a weight-zero symbol")
        return self.hw.label(sym.index + 1)

    # -- straightening ---------------------------------------------------

    def act(self, sym: BasisSymbol, vec: ModuleVector) -> ModuleVector:
        """Exact action of a basis symbol, result in normal form.

        A word too long for the interpreter's recursion limit raises
        :class:`StraighteningLimitError`, like an exhausted step budget.
        """
        budget = [self.step_budget]
        out: Dict[PBWMonomial, Coeff] = {}
        if isinstance(sym, Central):
            cc = self.hw.central_charge
            for mono, c in vec._terms.items():
                _accumulate(out, mono, cc * c)
            return ModuleVector(out)
        g = self.group
        g.validate(sym.alpha)
        terms = vec._terms
        if isinstance(g, LexPairGroup):
            ar, scale = _LEX_PAIRS, None
        elif isinstance(g, DyadicGroup):
            # every element the recursion reaches lies in (1/scale)Z
            scale = max(
                [sym.alpha.denominator]
                + [p.denominator for mono in terms for p, _ in mono.factors]
            )
            ar = _IntCodes(scale)
        else:
            ar, scale = _INT_PARTS, None
        alpha = sym.alpha if scale is None else _code(sym.alpha, scale)
        try:
            for mono, c in terms.items():
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator  # integral: straighten in int arithmetic
                factors = mono.factors
                if scale is not None:
                    factors = tuple((_code(p, scale), i) for p, i in factors)
                self._apply(alpha, sym.index, factors, c, out, budget, ar)
        except RecursionError:
            longest = max(mono.length for mono in terms)
            raise StraighteningLimitError(
                f"a word of {longest} factors is too long to straighten "
                "within the interpreter's recursion limit"
            ) from None
        if scale is not None:
            out = _decode(out, scale)
        return ModuleVector(out)

    def act_element(self, elem: LieElement, vec: ModuleVector) -> ModuleVector:
        """Linear extension of :meth:`act` over a Lie element."""
        out = ModuleVector.zero()
        for sym, coeff in elem.items():
            out = out + self.act(sym, vec).scaled(coeff)
        return out

    def _tick(self, budget):
        budget[0] -= 1
        if budget[0] < 0:
            raise StraighteningLimitError(
                f"straightening exceeded the {self.step_budget}-step budget"
            )

    def _insert(self, part, idx, factors, coeff, out, budget, ar):
        """Multiply the word by L(-part, idx) on the left and normalize."""
        self._tick(budget)
        if not factors or (part, idx) <= factors[0]:
            _accumulate(out, PBWMonomial(((part, idx),) + factors), coeff)
            return
        (p1, i1), rest = factors[0], factors[1:]
        # L(-part) L(-p1) = L(-p1) L(-part) + [L(-part), L(-p1)]
        swapped: Dict[PBWMonomial, Coeff] = {}
        self._insert(part, idx, rest, coeff, swapped, budget, ar)
        # Every factor of a swapped word is at least (p1, i1): the factors
        # of rest are, (part, idx) > (p1, i1) on this branch, and a merged
        # part part + p_k exceeds p_k >= p1 since part is positive.  So
        # L(-p1, i1) is prepended as it stands, with no insertion.
        head = ((p1, i1),)
        for mono, c in swapped.items():
            _accumulate(out, PBWMonomial(head + mono.factors), c)
        merged = ar.const(i1 + 1, part, idx + 1, p1)
        if merged:
            self._insert(ar.add(part, p1), idx + i1, rest, merged * coeff, out, budget, ar)

    def _apply(self, gamma, idx, factors, coeff, out, budget, ar):
        """Act with L(gamma, idx), any weight sign, on a normal word."""
        self._tick(budget)
        zero = ar.zero
        if gamma < zero:
            self._insert(ar.neg(gamma), idx, factors, coeff, out, budget, ar)
            return
        if not factors:
            if gamma == zero:
                _accumulate(out, VACUUM, self.hw.label(idx + 1) * coeff)
            return  # the positive part annihilates the highest weight vector
        (p1, i1), rest = factors[0], factors[1:]
        # L(gamma) L(-p1) = L(-p1) L(gamma) + [L(gamma), L(-p1)]
        passed: Dict[PBWMonomial, Coeff] = {}
        self._apply(gamma, idx, rest, coeff, passed, budget, ar)
        for mono, c in passed.items():
            self._insert(p1, i1, mono.factors, c, out, budget, ar)
        bcoeff = ar.const(-(idx + 1), p1, i1 + 1, gamma)
        if bcoeff:
            self._apply(ar.sub(gamma, p1), idx + i1, rest, bcoeff * coeff, out, budget, ar)
        if gamma == p1 and idx + i1 == -2:
            cc = ar.scalar(gamma) * self.hw.central_charge
            if cc:
                _accumulate(out, PBWMonomial(rest), cc * coeff)

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
        there.
        """
        g = self.group
        g.validate(mu)
        sign = g.compare(mu, g.zero())
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
            g.validate(p)
            if not g.is_positive(p):
                raise ValueError(f"catalog part {p} is not positive")
        if isinstance(g, LexPairGroup) and max_parts is None:
            raise ValueError("the lex-z2 instance needs a max_parts bound")

        sequences: List[Tuple] = []

        def dfs(remaining, start, chosen):
            if remaining == g.zero():
                sequences.append(tuple(chosen))
                return
            if max_parts is not None and len(chosen) >= max_parts:
                return
            for k in range(start, len(parts)):
                p = parts[k]
                # every continuation adds at least p, so overshoot prunes
                if g.compare(p, remaining) > 0:
                    break
                chosen.append(p)
                dfs(g.sub(remaining, p), k, chosen)
                chosen.pop()

        dfs(target, 0, [])

        idx_range = range(-1, max_index + 1)
        out = []
        for seq in sequences:
            runs = [(p, len(list(grp))) for p, grp in itertools.groupby(seq)]
            choices = [
                list(itertools.combinations_with_replacement(idx_range, r))
                for _, r in runs
            ]
            for pick in itertools.product(*choices):
                factors = []
                for (p, _), idxs in zip(runs, pick):
                    factors.extend((p, i) for i in idxs)
                out.append(PBWMonomial(tuple(factors)))
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
                    if w and w not in seen:
                        seen.add(w)
                        new.append(w)
            collected.extend(new)
            frontier = new
            if not frontier:
                break
        by_weight: Dict[object, List[ModuleVector]] = {}
        for vec in collected:
            by_weight.setdefault(vec.weight(self.group), []).append(vec)
        return by_weight


def _accumulate(store: Dict[PBWMonomial, Coeff], mono: PBWMonomial, coeff: Coeff):
    if not coeff:
        return
    prev = store.get(mono)
    if prev is None:
        store[mono] = coeff
        return
    s = prev + coeff
    if s:
        store[mono] = s
    else:
        del store[mono]


# -- element arithmetic of one straightening run ---------------------------


class _IntCodes:
    """Parts as ints: integer elements as they are, dyadic ones coded ``x*scale``.

    ``scale`` is positive, so coding keeps the order; a scalar image is
    ``code/scale``, an ``int`` when it divides.
    """

    __slots__ = ("scale",)
    zero = 0
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)

    def __init__(self, scale: int):
        self.scale = scale

    def scalar(self, x):
        s = self.scale
        return x // s if x % s == 0 else Fraction(x, s)

    def const(self, n, x, m, y):
        """Scalar image of ``n*x - m*y``."""
        return self.scalar(n * x - m * y)


class _LexPairs:
    """Lex-z2 pairs as tuples; the scalar image of ``(a, b)`` is ``a*w + b``."""

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
        return Poly.of_exact([x[1], x[0]])

    @staticmethod
    def const(n, x, m, y):
        """Scalar image of ``n*x - m*y``."""
        return Poly.of_exact([n * x[1] - m * y[1], n * x[0] - m * y[0]])


_INT_PARTS = _IntCodes(1)
_LEX_PAIRS = _LexPairs()


def _code(x: Fraction, scale: int) -> int:
    return x.numerator * (scale // x.denominator)


def _decode(store: Dict[PBWMonomial, Coeff], scale: int) -> Dict[PBWMonomial, Coeff]:
    """Words with coded parts back to ``Fraction`` parts, one ``Fraction`` per code."""
    parts: Dict[int, Fraction] = {}
    out = {}
    for mono, c in store.items():
        factors = []
        for p, i in mono.factors:
            x = parts.get(p)
            if x is None:
                x = parts[p] = Fraction(p, scale)
            factors.append((x, i))
        out[PBWMonomial(tuple(factors))] = c
    return out
