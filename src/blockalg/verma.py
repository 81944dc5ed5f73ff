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
formal unit ``w`` over the lex-z2 instance.  An integer or dyadic output
of :meth:`VermaModule.act` is an ``int`` exactly when its value is
integral.  The JSON form ``"p/q"`` is the same for ``3``,
``Fraction(3)`` and the constant ``Poly`` 3; the printed form is not
(``3*v`` against ``(3)*v``), so a lex-z2 coefficient stays a rational
until w-arithmetic touches it, and is a ``Poly`` from then on, even
when constant.

Each piece of the engine is described once, next to its code: the work
stack loop in :meth:`VermaModule._straighten`, the setup of a run that
puts integer and dyadic parts on one ``int`` kernel in
:meth:`VermaModule._run`, the code table of a dyadic module in
:class:`_DyadicCodes`, the Q[w] coefficients of the kernel in
:class:`_LexPairs`, and the enumeration of a weight space in
:meth:`VermaModule.weight_basis`.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .groups import DyadicGroup, IntegerGroup, LexPairGroup, OrderedGroup
from .lie import (
    BasisSymbol,
    BlockAlgebra,
    Central,
    Coeff,
    Generator,
    LieElement,
    SparseCombination,
    check_int,
    coeff_from_json,
    coeff_json,
    element_from_json,
    element_json,
    integer_from_json,
)
from .polynomial import Poly, exact_fraction, format_rational, parse_rational

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
    at least -1 (:func:`lie.check_int`), with the factors weakly
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
        if isinstance(group, DyadicGroup):
            return _dyadic_weight(self._terms)
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


def _dyadic_weight(words: Iterable[PBWMonomial]) -> Optional[Fraction]:
    """:meth:`ModuleVector.weight` over the dyadics: ``int`` sums over one
    denominator per word, compared crosswise, and one ``Fraction``."""
    num = den = None
    for mono in words:
        n, d = 0, 1
        for p, _ in mono.factors:
            q = p.denominator
            if d % q:
                m = q // math.gcd(d, q)
                n, d = n * m, d * m
            n += p.numerator * (d // q)
        if den is None:
            num, den = n, d
        elif n * den != num * d:
            return None
    return None if den is None else Fraction(-num, den)


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

    Over the dyadic instance the module holds the code table of its words
    (:class:`_DyadicCodes`).  The table lives and dies with the module:
    it grows with every new word an action meets and is freed only with
    the module, so a long-lived module keeps each word it has seen.
    """

    def __init__(self, algebra: BlockAlgebra, weight: HighestWeight, step_budget: int = 5_000_000):
        self.algebra = algebra
        self.group = algebra.group
        self.hw = weight
        self.step_budget = step_budget
        self._codes = _DyadicCodes(1)
        self._weight_scales: List[int] = []  # see _weight_scale

    # -- construction and validation ------------------------------------

    def vacuum(self) -> ModuleVector:
        return ModuleVector.of(VACUUM)

    def monomial(self, factors: Iterable[Factor]) -> PBWMonomial:
        """Validated normal-ordered word (see :func:`normal_word`)."""
        return normal_word(factors, self.group)

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

        Raises :class:`StraighteningLimitError` when the step budget runs
        out; the budget is the only cap on the length of a word.
        """
        if isinstance(sym, Central):
            out: Dict[PBWMonomial, Coeff] = {}
            cc = self.hw.central_charge
            for mono, c in vec._terms.items():
                _accumulate(out, mono, cc * c)
            return ModuleVector(out)
        (words,), decode, divisor = self._run(sym, [vec._terms.items()])
        if divisor is None:
            return ModuleVector._of_nonzero({decode(w): c for w, c in words.items()})
        return ModuleVector._of_nonzero(
            {decode(w): _quotient(c, divisor[len(w)]) for w, c in words.items()}
        )

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
        rows themselves.
        """
        if isinstance(probe, Central):
            raise ValueError("action rows need a generator, not the central symbol")
        cols, _, _ = self._run(probe, [((mono, 1),) for mono in basis])
        rows: Dict[Tuple[Factor, ...], Dict[int, Coeff]] = {}
        for j, words in enumerate(cols):
            for w, c in words.items():
                row = rows.get(w)
                if row is None:
                    rows[w] = {j: c}
                else:
                    row[j] = c
        return [rows[w] for w in sorted(rows, key=lambda w: (len(w), w))]

    def _run(self, sym: Generator, inputs: Sequence[Iterable[Tuple[PBWMonomial, Coeff]]]):
        """Straighten ``sym`` on each of ``inputs`` in one kernel run.

        An input is a vector given as ``(word, coeff)`` pairs that can be
        read more than once.  Returns one dict per input, from raw output
        words to their exact nonzero coefficients, the decoder of a raw
        word to its :class:`PBWMonomial`, and the divisor: ``None`` over
        lex-z2, whose outputs are the action itself, and otherwise the
        list of ``int``s by which an output word of length ``n`` is
        ``divisor[n]`` times too large.  Each input is straightened in full
        before the next starts and spends its own step budget.

        Integer and dyadic parts share one integer kernel, because the
        dyadic algebra is the integer one rescaled: for a scale ``S`` that
        clears every denominator, ``L(a,i) -> L(S*a,i)/S`` and ``c -> c/S``
        map it into the integer algebra, and the module of weight ``(cc,
        labels)`` goes to the integer module of weight ``(S*cc,
        S*labels)``, a word of length ``k`` to ``S^-k`` times its image.
        So a dyadic part ``x`` runs as the ``int`` code ``x*S`` of the
        module's table (``S > 0`` keeps the order), every structure
        constant is an ``int``, and the weight data enters scaled (see
        :meth:`_straighten`).  An output word of length ``n`` then carries
        ``S^(n - len_in - 1)``.  Integer runs have ``S = 1``.

        Such a run stays in ``int``.  An input word of length ``len_in``
        enters as the ``int`` ``c*den*lam*S^(top - len_in)``: ``top`` is
        the longest input word and ``den`` the common denominator of the
        input coefficients, both over the whole run.  ``lam`` is the lcm
        of the central charge's denominator and the denominators of labels
        ``0..sym.index + 1 + reach``, or 1 when no input word can reach a
        label or the central charge (:func:`_label_reach`), such as under
        a generator of negative weight.  A zero mode meets no central term
        and no other label (its bracket terms only insert), so its ``lam``
        is that of ``label(index + 1)``.  Every label or central term is
        then an exact division, and an output word of length ``n`` carries
        the one divisor ``divisor[n] = den*lam*S^(top + 1 - n)``, which
        :meth:`act` divides out: an ``int`` where the quotient is exact and
        a ``Fraction`` otherwise.
        """
        g = self.group
        alpha, idx = sym.alpha, sym.index
        g.validate(alpha)
        outs: List[Dict[Tuple[Factor, ...], Coeff]] = []
        seeds = []
        if isinstance(g, LexPairGroup):
            # a Q[w] coefficient runs as its coefficient tuple, and each
            # output tuple becomes a Poly once
            for terms in inputs:
                dest, tasks = {}, []
                for mono, c in terms:
                    if type(c) is Poly:
                        c = c.coeffs
                    elif type(c) is Fraction and c.denominator == 1:
                        c = c.numerator  # integral: straighten in int arithmetic
                    tasks.append((_APPLY, alpha, idx, (), mono.factors, c, dest))
                outs.append(dest)
                seeds.append(tasks)
            self._straighten(seeds, _LEX_PAIRS, 1)
            for dest in outs:
                for w, c in dest.items():
                    if type(c) is tuple:
                        dest[w] = Poly.of_exact(c)
            return outs, _word, None
        # Integer and dyadic words run on the integer kernel, a dyadic word
        # coded at the scale of the module's table.
        if isinstance(g, DyadicGroup):
            table = self._dyadic_codes(alpha, inputs)
            scale, alpha = table.scale, table.code(alpha)
            encode, decode = table.encode, table.decode
        else:
            scale, encode, decode = 1, None, _word
        top, den, reach = 0, 1, -1
        for terms in inputs:
            for mono, c in terms:
                if len(mono.factors) > top:
                    top = len(mono.factors)
                if type(c) is not int:
                    den = math.lcm(den, c.denominator)
                if alpha >= 0:  # a negative generator only inserts
                    r = _label_reach(alpha, mono.factors if encode is None else encode(mono))
                    if r > reach:
                        reach = r
        if reach < 0:
            lam = 1
        elif alpha == 0:
            lam = self.hw.label(idx + 1).denominator
        else:
            lam = self._weight_scale(idx + 1 + reach)
        enter = [lam * scale ** (top - n) for n in range(top + 1)]
        for terms in inputs:
            dest, tasks = {}, []
            for mono, c in terms:
                factors = mono.factors if encode is None else encode(mono)
                c = c.numerator * (den // c.denominator) * enter[len(factors)]
                tasks.append((_APPLY, alpha, idx, (), factors, c, dest))
            outs.append(dest)
            seeds.append(tasks)
        self._straighten(seeds, _INT_PARTS, scale)
        return outs, decode, [den * x * scale for x in enter] + [den * lam]

    def act_element(self, elem: LieElement, vec: ModuleVector) -> ModuleVector:
        """Linear extension of :meth:`act` over a Lie element."""
        out = ModuleVector.zero()
        for sym, coeff in elem.items():
            out = out + self.act(sym, vec).scaled(coeff)
        return out

    def _straighten(self, seeds: list, ar, scale: int) -> None:
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
        here and no ``Poly`` is built.  Parts are coded at ``scale``, so the
        weight data enters scaled: a label as ``label*scale``, the central
        charge as ``scale*cc``.  A label term is ``smul(label, coeff)`` and
        a central term ``smul(cc, mul(scalar(gamma), coeff))``.  On integer
        parts ``smul`` by ``p/q`` is ``coeff // q * p``: both terms go
        straight to the output, so the coefficient they scale is still an
        integer multiple of the entry scale of :meth:`_run`, which ``q``
        divides.
        """
        zero, add, sub, neg, const = ar.zero, ar.add, ar.sub, ar.neg, ar.const
        mul, smul, cadd = ar.mul, ar.smul, ar.cadd
        label, cc = self.hw.label, self.hw.central_charge
        if scale != 1:
            cc *= scale
            hw_label = label

            def label(i):
                return hw_label(i) * scale

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

    def _dyadic_codes(self, alpha: Fraction, inputs) -> _DyadicCodes:
        """The code table, replaced by a finer one if ``alpha`` or a new word needs it.

        ``inputs`` are the inputs of a run, as :meth:`_run` takes them.
        """
        table = self._codes
        codes = table.codes
        scale = math.lcm(
            table.scale,
            alpha.denominator,
            *[
                p.denominator
                for terms in inputs
                for mono, _ in terms
                if mono not in codes
                for p, _ in mono.factors
            ],
        )
        if scale != table.scale:
            table = self._codes = _DyadicCodes(scale)
        return table

    def _weight_scale(self, n: int) -> int:
        """The lcm of the central charge's denominator and those of labels 0..n."""
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
    """Integer parts, and dyadic parts coded as ints; a scalar image is the int itself.

    Coefficients are ``int``s.  ``mul`` and ``cadd`` are the plain
    operators, and ``smul`` by a label or the central charge ``p/q`` is
    the exact division ``a // q * p`` (see :meth:`VermaModule._run`).
    """

    __slots__ = ()
    zero = 0
    add = cadd = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    @staticmethod
    def smul(x, a):
        return a // x.denominator * x.numerator

    @staticmethod
    def scalar(x):
        return x

    @staticmethod
    def const(n, x, m, y):
        """Scalar image of ``n*x - m*y``."""
        return n * x - m * y


class _LexPairs:
    """Lex-z2 pairs as tuples; the scalar image of ``(a, b)`` is ``a*w + b``.

    A Q[w] value is a trimmed tuple ``(c0, c1, ..., cd)`` of ``int`` and
    ``Fraction`` entries, lowest degree first, with ``cd != 0``; zero is
    ``()``.  ``scalar`` and ``const`` return linear ones.  A coefficient
    is such a tuple once w-arithmetic has touched it and a plain rational
    before (see the module docstring), so the ring hooks ``mul``, ``smul``
    and ``cadd`` take either.  In a product the coefficient's entries are
    the left operand, so a ``Fraction`` takes its own method.  ``Poly``
    appears only at the boundary: :meth:`VermaModule._run` enters a
    ``Poly`` coefficient as its ``coeffs`` and turns each tuple output into
    a ``Poly`` once.
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

    @staticmethod
    def mul(c, a):
        """``c*a`` for a nonzero linear ``c`` and a coefficient ``a``, in one pass.

        The top entry ``a[-1]*c1`` is nonzero, so the product needs no trim.
        """
        if type(a) is not tuple:
            return tuple([a * x for x in c])
        if len(c) == 1:
            c0 = c[0]
            return tuple([y * c0 for y in a])
        c0, c1 = c
        x = a[0]
        out = [x * c0]
        for y in a[1:]:
            out.append(y * c0 + x * c1)
            x = y
        out.append(x * c1)
        return tuple(out)

    @staticmethod
    def smul(x, a):
        """``x*a`` for a rational ``x``: a label or the central charge."""
        if type(a) is not tuple:
            return x * a
        return tuple([x * y for y in a]) if x else ()

    @staticmethod
    def cadd(a, b):
        """``a + b``, trimmed; a sum that cancels is ``()`` (or a rational 0)."""
        if type(a) is not tuple:
            if type(b) is not tuple:
                return a + b
            a = (a,)
        elif type(b) is not tuple:
            b = (b,)
        if len(a) != len(b):
            if len(a) < len(b):
                a, b = b, a
            return tuple(map(operator.add, a, b)) + a[len(b):]
        s = tuple(map(operator.add, a, b))
        n = len(s)
        while n and not s[n - 1]:
            n -= 1
        return s[:n]


_APPLY, _INSERT = range(2)  # task kinds of VermaModule._straighten
_INT_PARTS = _IntParts()
_LEX_PAIRS = _LexPairs()


# the slot setters: a frozen dataclass guards only __setattr__
_new_object = object.__new__
_set_factors = PBWMonomial.factors.__set__
_set_hash = PBWMonomial._hash.__set__


def _monomial(factors: Tuple[Factor, ...], h: int) -> PBWMonomial:
    """The word on ``factors`` with hash ``h``, without the dataclass ``__init__``."""
    mono = _new_object(PBWMonomial)
    _set_factors(mono, factors)
    _set_hash(mono, h)
    return mono


def _word(factors: Tuple[Factor, ...]) -> PBWMonomial:
    return _monomial(factors, hash(factors)) if factors else VACUUM


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


def _quotient(c: int, d: int) -> Union[int, Fraction]:
    """``c / d``: an ``int`` when ``d`` divides ``c``, else a ``Fraction``."""
    if d == 1:
        return c
    q, r = divmod(c, d)
    return Fraction(c, d) if r else q


class _DyadicCodes:
    """A dyadic module's words coded at one scale, decoded once per module.

    ``scale`` is a positive multiple of every denominator the table has
    coded, so ``x -> x*scale`` maps those parts to ints and keeps their
    order.  ``codes`` maps a word to its coded factor tuple, ``words`` a
    coded tuple back to its one ``PBWMonomial`` on ``Fraction`` parts, and
    ``parts`` a code to its ``Fraction`` and that ``Fraction``'s hash.
    Integral parts are decoded to ``Fraction`` too.  A part is decoded and
    hashed once per table, and a new word is hashed as its ``(hash(part),
    index)`` pairs, which is ``hash(factors)``: a tuple's hash depends only
    on its items' hashes, and a ``Fraction`` hash ``h`` has ``hash(h) ==
    h``.  Equal words from two actions are the same object.  A finer
    denominator needs a new table; this one is never cleared or rescaled,
    so an action that holds it keeps one consistent scale.
    """

    __slots__ = ("scale", "codes", "words", "parts")

    def __init__(self, scale: int):
        self.scale = scale
        self.codes: Dict[PBWMonomial, Tuple[Factor, ...]] = {}
        self.words: Dict[Tuple[Factor, ...], PBWMonomial] = {}
        self.parts: Dict[int, Tuple[Fraction, int]] = {}

    def code(self, x: Fraction) -> int:
        return x.numerator * (self.scale // x.denominator)

    def encode(self, mono: PBWMonomial) -> Tuple[Factor, ...]:
        coded = self.codes.get(mono)
        if coded is None:
            coded = self.codes[mono] = tuple((self.code(p), i) for p, i in mono.factors)
        return coded

    def decode(self, word: Tuple[Factor, ...]) -> PBWMonomial:
        mono = self.words.get(word)
        if mono is None:
            if word:
                parts, factors, keys = self.parts, [], []
                for p, i in word:
                    x = parts.get(p)
                    if x is None:
                        f = Fraction(p, self.scale)
                        x = parts[p] = (f, hash(f))
                    factors.append((x[0], i))
                    keys.append((x[1], i))
                mono = _monomial(tuple(factors), hash(tuple(keys)))
            else:
                mono = VACUUM
            self.words[word] = mono
            self.codes[mono] = word
        return mono
