import bisect
import hashlib
import itertools
import json
import math
import operator
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from blockalg import verma
from blockalg.groups import DYADIC, INTEGERS, LEX_Z2
from blockalg.lie import CENTRAL, BlockAlgebra, Generator, LieElement, element_json
from blockalg.polynomial import Poly, X
from blockalg.reducibility import labels_from_charpoly
from blockalg.verma import (
    VACUUM,
    ExplicitWeight,
    HighestWeight,
    ModuleVector,
    PBWMonomial,
    RecurrentWeight,
    StraighteningLimitError,
    VermaModule,
    _accumulate,
    normal_word,
)

ALG = BlockAlgebra(INTEGERS)
HW = labels_from_charpoly(X + 1, 1)  # labels 1, -1/2, 1/3, ...


def module(hw=HW, group=INTEGERS):
    return VermaModule(BlockAlgebra(group), hw)


# -- labels ----------------------------------------------------------------


def test_label_examples():
    assert HW.label(0) == 1
    assert HW.label(1) == Fraction(-1, 2)
    assert HighestWeight.explicit([], 0).label(7) == 0
    with pytest.raises(ValueError):
        HW.label(-1)


def test_recurrent_labels_validate_shape():
    with pytest.raises(ValueError):
        RecurrentWeight(2 * X + 1, 1)  # not monic
    with pytest.raises(ValueError):
        RecurrentWeight(X + 1, 1, [Fraction(1)])  # too many initial labels


def test_recurrent_labels_carry_the_central_charge_of_their_weight():
    # the weight holds its central charge once, so the labels a JSON round
    # trip rebuilds are the ones computed with it
    hw = RecurrentWeight(X + 1, Fraction(2))
    back = HighestWeight.from_json(hw.to_json())
    assert [back.label(i) for i in range(6)] == [hw.label(i) for i in range(6)]
    assert hw.label(0) == 2


def test_a_degree_zero_charpoly_spec_is_the_zero_functional():
    # the spec goes through the constructor the library uses, which reads
    # f = 1 with cc 0 as the zero functional and refuses it otherwise
    hw = HighestWeight.from_json({"charpoly": ["1"], "central_charge": "0"})
    assert hw.central_charge == 0 and hw.prefix(6) == [0] * 6
    assert hw.to_json() == labels_from_charpoly(Poly([1]), 0).to_json()
    for data in (
        {"charpoly": ["1"], "central_charge": "1"},
        {"charpoly": ["1"], "central_charge": "0", "initial": ["1/2"]},
        {"charpoly": ["2", "2"], "central_charge": "0"},
    ):
        with pytest.raises(ValueError):
            HighestWeight.from_json(data)


@pytest.mark.parametrize("bad", [0.1, True, "1/3"], ids=["float", "bool", "string"])
def test_weight_constructors_refuse_inexact_values(bad):
    # Fraction(0.1) would store 3602879701896397/36028797018963968, and
    # Fraction("1/3") and Fraction(True) would pass unchecked
    for build in (
        lambda: ExplicitWeight([1, bad], 1),
        lambda: RecurrentWeight(X**2 + 1, 1, [bad]),
        lambda: RecurrentWeight(X + 1, bad),
        lambda: ExplicitWeight([], bad),
        lambda: HighestWeight.explicit([Fraction(1, 3), bad], 1),
        lambda: HighestWeight.explicit([1], bad),
        lambda: labels_from_charpoly(X + 1, bad),
        lambda: labels_from_charpoly(X**2 + 1, 1, [bad]),
    ):
        with pytest.raises(ValueError, match="not an exact rational"):
            build()


def test_weight_constructors_keep_exact_values():
    hw = HighestWeight.explicit([Fraction(1, 3), 2, Fraction(-4, 2)], 5)
    assert [hw.label(i) for i in range(4)] == [Fraction(1, 3), 2, -2, 0]
    assert all(type(hw.label(i)) is Fraction for i in range(4))
    assert type(hw.central_charge) is Fraction and hw.central_charge == 5
    rec = labels_from_charpoly(X**2 + 1, 2, [Fraction(1, 2)])
    assert type(rec.central_charge) is Fraction and rec.label(0) == Fraction(1, 2)


def test_highest_weight_json_roundtrip():
    data = HW.to_json()
    back = HighestWeight.from_json(data)
    assert [back.label(i) for i in range(8)] == [HW.label(i) for i in range(8)]
    flat = HighestWeight.from_json({"charpoly": [1, 1], "central_charge": 1})
    assert flat.label(3) == HW.label(3)


@pytest.mark.parametrize(
    "data",
    [
        {"central_charge": 0.1, "explicit": []},
        {"central_charge": 1, "explicit": [1, 0.5]},
        {"central_charge": 1, "charpoly": [1.0, 1]},
        {"central_charge": 1, "charpoly": [1, 1, 1], "initial": [0.25]},
        {"central_charge": "0.1", "explicit": []},
        {"central_charge": True, "explicit": []},
        # malformed shapes: a domain error, not an AttributeError/TypeError
        [1],
        {"explicit": 5},
        {"labels": 3},
        {"charpoly": [1, 1], "initial": "1/2"},
        # two kinds of labels at once: neither is dropped without a word
        {"charpoly": ["1", "1"], "explicit": [5, 6]},
        {"explicit": [5, 6], "initial": ["1/2"]},
        {"central_charge": 1, "labels": {"explicit": [], "initial": []}},
        # an unknown key at either level, or a label key next to a 'labels'
        # object, would be dropped without a word
        {"centrl_charge": "3", "explicit": [1]},
        {"central_charge": "3", "explicit": [1], "initals": []},
        {"labels": {"explicit": [1, 2]}, "charpoly": ["1", "1"]},
        {"labels": {"explicit": [1, 2], "central_charge": "3"}},
        {"labels": {"charpoly": ["1", "1"], "extra": []}},
        {1: 2, "explicit": []},
    ],
)
def test_highest_weight_json_rejects_floats_and_bad_shapes(data):
    with pytest.raises(ValueError):
        HighestWeight.from_json(data)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HW.shadow(-1), "shadow sequence starts at 0"),
        (lambda: HighestWeight.from_json({"central_charge": 1}),
         "weight spec needs either 'charpoly' or 'explicit' labels"),
        # the one spec shape is flat: a nested one is an unknown key
        (lambda: HighestWeight.from_json({"labels": {"explicit": [1]}}), "unknown weight key 'labels'"),
        (lambda: HighestWeight.from_json({"central_charge": "1/0", "explicit": []}),
         "zero denominator in '1/0'"),
        (lambda: module().weight_basis(-2, 1, parts=[0, 1]), "catalog part 0 is not positive"),
    ],
    ids=["shadow", "no-labels", "nested", "zero-denominator", "catalog-part"],
)
def test_weight_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_highest_weight_json_accepts_ints_and_ratio_strings():
    hw = HighestWeight.from_json({"central_charge": "-3/4", "explicit": [2, "1/3", "-5"]})
    assert hw.central_charge == Fraction(-3, 4)
    assert [hw.label(i) for i in range(4)] == [2, Fraction(1, 3), -5, 0]


def _fresh(hw):
    """The same weight with a cold label memo."""
    return HighestWeight.from_json(hw.to_json())


def test_label_prefix_reads_the_first_labels_in_one_call():
    explicit = HighestWeight.explicit([Fraction(1, 3), 2, -5], 1)
    for n in (0, 2, 3, 4, 9):  # below, at and beyond the stored labels
        got = explicit.prefix(n)
        assert got == [explicit.label(i) for i in range(n)]
        assert all(type(x) is Fraction for x in got)
    assert explicit.prefix(9)[3:] == [0] * 6
    assert HighestWeight.zero().prefix(3) == [0, 0, 0]
    rec = labels_from_charpoly(X**3 - Fraction(2, 3) * X + 5, Fraction(3, 7), [Fraction(1, 2), -1])
    for warm in (None, 1, 6, 40):
        for n in (0, 1, 2, 3, 7, 30):
            hw = _fresh(rec)
            if warm is not None:
                hw.label(warm)
            got = hw.prefix(n)
            assert got == [_fresh(rec).label(i) for i in range(n)]
            assert all(type(x) is Fraction for x in got)
            # the memo is extended once, as far as n, and not handed out
            reach = max(2, n, 0 if warm is None else warm + 1)
            got.append(Fraction(9))
            assert len(hw._memo) == reach


def test_threads_that_share_a_weight_read_its_labels_and_scales_alike(monkeypatch):
    # a memo extended in place takes one label or lcm twice when two
    # threads extend it at once, and every later entry is then off by one
    # place; the threads start together, and each lcm of an extension
    # gives up the interpreter lock, so their extensions interleave
    rec = labels_from_charpoly(X**3 - Fraction(2, 3) * X + 5, Fraction(3, 7), [Fraction(1, 2), -1])
    indices = (40, 120, 300)
    weights = (rec, HighestWeight.explicit(_fresh(rec).prefix(300), Fraction(3, 7)))
    wants = [[(_fresh(w).label(i), _fresh(w).scale(i)) for i in indices] for w in weights]
    lcm = math.lcm

    def yielding_lcm(*args):
        time.sleep(0)
        return lcm(*args)

    monkeypatch.setattr(math, "lcm", yielding_lcm)
    for weight, want in zip(weights, wants):
        hw, got, start = _fresh(weight), [], threading.Barrier(3)

        def read():
            start.wait(timeout=30)
            got.append([(hw.label(i), hw.scale(i)) for i in indices])

        threads = [threading.Thread(target=read) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 3
        assert [(hw.label(i), hw.scale(i)) for i in indices] == want


@pytest.mark.parametrize("bad", [-1, True, False, 2.0, "3", None, Fraction(2)], ids=repr)
def test_label_prefix_refuses_a_count_that_is_not_a_natural_int(bad):
    for hw in (HighestWeight.explicit([1, 2], 0), HW):
        with pytest.raises(ValueError, match="label count"):
            hw.prefix(bad)


# -- the action ---------------------------------------------------------------


def test_act_examples():
    m = module()
    v1 = m.vector([(1, -1)])
    assert m.act(Generator(1, 0), v1) == -Fraction(HW.label(0)) * m.vacuum()
    assert m.act(Generator(0, 1), v1) == HW.label(2) * v1 + Fraction(-2) * m.vector(
        [(1, 0)]
    )
    expect = m.vector([(1, -1), (1, 0)]) - m.vector([(2, -1)])
    assert m.act(Generator(-1, 0), v1) == expect
    # already normal ordered: a single direct prepend
    assert m.act(Generator(-1, -1), m.vector([(1, 0)])) == m.vector([(1, -1), (1, 0)])


def test_central_acts_as_scalar():
    m = module()
    v = m.vector([(1, 0), (2, 3)])
    assert m.act(CENTRAL, v) == Fraction(1) * v


def test_positive_part_annihilates_vacuum():
    m = module()
    rng = random.Random(0)
    for _ in range(100):
        g = Generator(rng.randint(1, 6), rng.randint(-1, 6))
        assert m.act(g, m.vacuum()).is_zero()


def test_act_element_linearity():
    m = module()
    rng = random.Random(1)
    assert m.act_element(LieElement.zero(), m.vector([(1, 0)])).is_zero()
    v = m.vector([(1, -1), (1, 1)])
    e = LieElement.term(Generator(1, 0), Fraction(5))
    assert m.act_element(e, v) == Fraction(5) * m.act(Generator(1, 0), v)
    for _ in range(20):
        g = Generator(rng.randint(-3, 3), rng.randint(-1, 3))
        h = Generator(rng.randint(-3, 3), rng.randint(-1, 3))
        su = LieElement.term(g) + LieElement.term(h)
        assert m.act_element(su, v) == m.act(g, v) + m.act(h, v)


def test_module_axiom_oracle():
    # g(h m) - h(g m) = [g,h] m : the straightening correctness oracle
    rng = random.Random(2)
    for group in (INTEGERS, DYADIC):
        m = module(group=group) if group is INTEGERS else module(
            HighestWeight.explicit([Fraction(1, 3), 2, Fraction(-5, 4), 1, 0, 2], Fraction(7, 2)),
            group,
        )
        for _ in range(150):
            g = Generator(group.random_element(rng, 3), rng.randint(-1, 4))
            h = Generator(group.random_element(rng, 3), rng.randint(-1, 4))
            parts = sorted(
                (group.random_positive(rng, 3), rng.randint(-1, 4))
                for _ in range(rng.randint(0, 4))
            )
            w = ModuleVector.of(PBWMonomial(tuple(parts)))
            lhs = m.act(g, m.act(h, w)) - m.act(h, m.act(g, w))
            rhs = m.act_element(m.algebra.bracket_basis(g, h), w)
            assert lhs == rhs


def test_weight_additivity():
    m = module()
    rng = random.Random(3)
    for _ in range(100):
        beta = rng.randint(-3, 3)
        g = Generator(beta, rng.randint(-1, 3))
        parts = sorted(
            (rng.randint(1, 3), rng.randint(-1, 3)) for _ in range(rng.randint(1, 3))
        )
        w = ModuleVector.of(PBWMonomial(tuple(parts)))
        out = m.act(g, w)
        if out:
            assert out.weight(INTEGERS) == w.weight(INTEGERS) + beta


def test_normal_form_idempotence():
    # inserting a factor that already sits in normal position is a plain
    # prepend: one term, coefficient untouched
    m = module()
    rng = random.Random(5)
    for _ in range(100):
        parts = sorted(
            (rng.randint(2, 5), rng.randint(0, 4)) for _ in range(rng.randint(0, 3))
        )
        w = ModuleVector.of(PBWMonomial(tuple(parts)))
        first = parts[0] if parts else (6, 4)
        beta = rng.randint(1, first[0] - 1) if first[0] > 1 else 1
        idx = rng.randint(-1, 4) if beta < first[0] else rng.randint(-1, first[1])
        out = m.act(Generator(-beta, idx), w)
        assert out == m.vector([(beta, idx)] + parts)


def test_monomial_validation():
    m = module()
    with pytest.raises(ValueError):
        m.monomial([(0, 0)])  # part must be positive
    with pytest.raises(ValueError):
        m.monomial([(1, -2)])
    with pytest.raises(ValueError):
        m.monomial([(2, 0), (1, 0)])  # out of order
    with pytest.raises(ValueError):
        m.monomial([(1, 1), (1, 0)])  # indices must rise within a run
    # an index is an int, not a bool, and is never coerced
    for bad in (2.7, 2.0, True, False, "2"):
        with pytest.raises(ValueError, match="index must be an integer"):
            m.monomial([(1, bad)])
        with pytest.raises(ValueError, match="index must be an integer"):
            m.vector([(1, 0), (2, bad)])


@pytest.mark.parametrize("bad", [2.5, 1.0, True, False, "1", None])
def test_generators_and_words_share_one_index_rule(bad):
    with pytest.raises(ValueError, match="index must be an integer"):
        Generator(1, bad)
    with pytest.raises(ValueError, match="index must be an integer"):
        normal_word([(1, bad)], INTEGERS)
    with pytest.raises(ValueError, match="index must be an integer"):
        normal_word([(Fraction(1, 2), bad)], DYADIC)


def test_index_rule_bounds_below_at_minus_one():
    with pytest.raises(ValueError, match="index must be >= -1"):
        Generator(1, -2)
    with pytest.raises(ValueError, match="index must be >= -1"):
        normal_word([(1, -2)], INTEGERS)
    assert Generator(1, -1).index == -1
    assert normal_word([(1, -1), (1, 7)], INTEGERS) == PBWMonomial(((1, -1), (1, 7)))


def test_step_budget_guard():
    m = VermaModule(ALG, HW, step_budget=3)
    with pytest.raises(StraighteningLimitError):
        m.act(Generator(2, 1), m.vector([(1, 0), (1, 1), (2, 0)]))
    # L(1,0) passing L(-2,0) leaves L(-1,0), which moves left past the
    # L(-1,2) in the head: that move spends its steps at once, and the
    # budget of two runs out there
    m = VermaModule(ALG, HighestWeight.explicit([1, 2, 3], 1), step_budget=2)
    with pytest.raises(StraighteningLimitError, match="2-step budget"):
        m.act(Generator(1, 0), m.vector([(1, 2), (2, 0)]))


@pytest.mark.parametrize("bad", [0, -5, 1.5, True, "x"])
def test_step_budget_is_a_positive_int(bad):
    # checked when the module is built, not when a run first spends it
    with pytest.raises(ValueError, match="step_budget"):
        VermaModule(ALG, HW, step_budget=bad)


def test_long_word_straightens_past_the_recursion_limit():
    # the work stack holds no word on the interpreter's call stack, so a
    # word far longer than the recursion limit straightens; [L(1,-1),
    # L(-1,-1)] = c, so L(1,-1) L(-1,-1)^n v = n cc L(-1,-1)^(n-1) v
    m = module(HighestWeight.explicit([2, Fraction(-1, 3)], Fraction(3, 2)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        out = m.act(Generator(1, -1), m.vector([(1, -1)] * 1200))
    finally:
        sys.setrecursionlimit(limit)
    assert out == Fraction(1800) * m.vector([(1, -1)] * 1199)


def test_long_word_is_a_straightening_limit():
    # the step budget is the only cap on word length: that action takes
    # 1201 steps, one per factor passed and one at v
    m = VermaModule(ALG, HW, step_budget=1201)
    word = m.vector([(1, -1)] * 1200)
    assert m.act(Generator(1, -1), word)
    m = VermaModule(ALG, HW, step_budget=1200)
    with pytest.raises(StraighteningLimitError, match="1200-step budget"):
        m.act(Generator(1, -1), word)


_EXPLICIT = HighestWeight.explicit(
    [Fraction(1, 3), 2, Fraction(-5, 4), 1, 0, 2, Fraction(7, 9)], Fraction(7, 2)
)

# (group, weight, symbol, word, steps): each action spends exactly its
# step count; positive, negative and zero weights, and a central term
_STEP_PINS = [
    (INTEGERS, HW, (3, 2), [(1, -1), (1, 0), (1, 0), (2, 1), (3, -1)], 74),
    (INTEGERS, HW, (-1, 1), [(1, -1), (1, 0), (2, -1), (2, 1), (3, 0)], 35),
    (INTEGERS, HW, (1, -1), [(1, -1), (1, -1), (1, -1), (2, 0)], 7),  # central term
    (DYADIC, _EXPLICIT, (Fraction(0), 2),
     [(Fraction(1, 4), 0), (Fraction(1, 2), 1), (Fraction(3, 4), -1), (Fraction(1), 2)], 13),
    (DYADIC, _EXPLICIT, (Fraction(-3, 4), 0),
     [(Fraction(1, 8), 1), (Fraction(1, 4), 2), (Fraction(1, 2), 0), (Fraction(3, 2), 1)], 20),
    (LEX_Z2, _EXPLICIT, ((1, -2), 0), [((0, 1), -1), ((0, 2), 1), ((1, -3), 0), ((1, -1), 2)], 39),
    (LEX_Z2, _EXPLICIT, ((-1, 1), 0), [((0, 1), 0), ((0, 2), -1), ((1, -3), 1), ((1, 2), 0)], 24),
]


@pytest.mark.parametrize("group, hw, sym, word, steps", _STEP_PINS)
def test_step_count_is_pinned(group, hw, sym, word, steps):
    exact = VermaModule(BlockAlgebra(group), hw, step_budget=steps)
    exact.act(Generator(*sym), exact.vector(word))
    short = VermaModule(BlockAlgebra(group), hw, step_budget=steps - 1)
    with pytest.raises(StraighteningLimitError):
        short.act(Generator(*sym), short.vector(word))


# -- reference: the recursive straightening the work stack replaced -----------


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


class _PolyPairs:
    """Lex-z2 pairs as tuples; the scalar image of ``(a, b)`` is the ``Poly`` ``a*w + b``."""

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
        return Poly([x[1], x[0]])

    def const(self, n, x, m, y):
        """Scalar image of ``n*x - m*y``."""
        return self.scalar((n * x[0] - m * y[0], n * x[1] - m * y[1]))


def _code(x: Fraction, scale: int) -> int:
    return x.numerator * (scale // x.denominator)


def _reference_act(m, sym, vec):
    """``VermaModule.act`` as a two-step recursion on ``PBWMonomial`` words.

    Dyadic parts are coded per action at the largest denominator in
    sight, and every structure constant is the ``Fraction`` ``n/scale``:
    no integer rescaling of the weight, so the engine's run scale and
    common denominator are checked against it.
    """
    out = {}
    if sym is CENTRAL:
        for mono, c in vec.items():
            _accumulate(out, mono, m.hw.central_charge * c)
        return ModuleVector(out)
    terms = dict(vec.items())
    scale = None
    if m.group is LEX_Z2:
        ar = _PolyPairs()
    elif m.group is DYADIC:
        scale = max(
            [sym.alpha.denominator] + [p.denominator for mono in terms for p, _ in mono.factors]
        )
        ar = _IntCodes(scale)
    else:
        ar = _IntCodes(1)
    alpha = sym.alpha if scale is None else _code(sym.alpha, scale)
    for mono, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        factors = mono.factors
        if scale is not None:
            factors = tuple((_code(p, scale), i) for p, i in factors)
        _ref_apply(m, alpha, sym.index, factors, c, out, ar)
    if scale is not None:
        out = {
            PBWMonomial(tuple((Fraction(p, scale), i) for p, i in mono.factors)): c
            for mono, c in out.items()
        }
    return ModuleVector(out)


def _ref_insert(m, part, idx, factors, coeff, out, ar):
    if not factors or (part, idx) <= factors[0]:
        _accumulate(out, PBWMonomial(((part, idx),) + factors), coeff)
        return
    (p1, i1), rest = factors[0], factors[1:]
    swapped = {}
    _ref_insert(m, part, idx, rest, coeff, swapped, ar)
    for mono, c in swapped.items():
        _accumulate(out, PBWMonomial(((p1, i1),) + mono.factors), c)
    merged = ar.const(i1 + 1, part, idx + 1, p1)
    if merged:
        _ref_insert(m, ar.add(part, p1), idx + i1, rest, merged * coeff, out, ar)


def _ref_apply(m, gamma, idx, factors, coeff, out, ar):
    if gamma < ar.zero:
        _ref_insert(m, ar.neg(gamma), idx, factors, coeff, out, ar)
        return
    if not factors:
        if gamma == ar.zero:
            _accumulate(out, PBWMonomial(()), m.hw.label(idx + 1) * coeff)
        return
    (p1, i1), rest = factors[0], factors[1:]
    passed = {}
    _ref_apply(m, gamma, idx, rest, coeff, passed, ar)
    for mono, c in passed.items():
        _ref_insert(m, p1, i1, mono.factors, c, out, ar)
    bcoeff = ar.const(-(idx + 1), p1, i1 + 1, gamma)
    if bcoeff:
        _ref_apply(m, ar.sub(gamma, p1), idx + i1, rest, bcoeff * coeff, out, ar)
    if gamma == p1 and idx + i1 == -2:
        cc = ar.scalar(gamma) * m.hw.central_charge
        if cc:
            _accumulate(out, PBWMonomial(rest), cc * coeff)


def _random_coeff(rng, group):
    kind = rng.randrange(3 if group is LEX_Z2 else 2)
    if kind == 0:
        return rng.choice([-3, -1, 1, 2, 5])
    if kind == 1:
        return _rat(rng) or Fraction(1, 2)
    return Poly([_rat(rng), _rat(rng)]) or Poly([1])


# integral labels next to a central charge of denominator 11, which no input
# denominator or dyadic scale of the trials shares, so only the central
# term needs the entry scale of a run; indices -1 and 0 make central terms
# common
_CC_ONLY = HighestWeight.explicit([2, -1, 3, 0, 5, -4, 1, 6], Fraction(5, 11))
# a recurrent weight whose label denominators grow fast with the index
_DEEP_RECURRENT = labels_from_charpoly(
    X**2 - Fraction(1, 3) * X + Fraction(2, 5), Fraction(3, 7), [Fraction(1, 2)]
)


def test_act_matches_the_recursive_reference():
    for hw, top in ((_EXPLICIT, 4), (_CC_ONLY, 0), (_DEEP_RECURRENT, 4)):
        rng = random.Random(11)
        for trial in range(240):
            group = (INTEGERS, DYADIC, LEX_Z2)[trial % 3]
            m = module(hw, group)
            if rng.random() < 0.1:
                sym = CENTRAL
            else:
                sym = Generator(group.random_element(rng, 3), rng.randint(-1, top))
            words = {
                PBWMonomial(tuple(sorted(
                    (group.random_positive(rng, 3), rng.randint(-1, top))
                    for _ in range(rng.randint(0, 4))
                )))
                for _ in range(rng.randint(1, 3))
            }
            vec = ModuleVector({w: _random_coeff(rng, group) for w in words})
            got, want = m.act(sym, vec), _reference_act(m, sym, vec)
            assert got == want
            assert got.to_json(group) == want.to_json(group)


# part n of a word in each group: the integers themselves, quarters, and
# pairs (0, n), all in the order of n
_PART = {
    INTEGERS: lambda n: n,
    DYADIC: lambda n: Fraction(n, 4),
    LEX_Z2: lambda n: (0, n),
}


def _count_left_moves(monkeypatch):
    """Record how many head factors each left move of the kernel passes."""
    moves = []

    def split(head, factor):
        k = bisect.bisect_right(head, factor)
        moves.append(len(head) - k)
        return k

    monkeypatch.setattr(verma, "bisect_right", split)
    return moves


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
@pytest.mark.parametrize(
    "sym, word, passed",
    [
        # L(2,3) brings L(-1,3) back past L(-2,1); L(1,0) brings L(-1,1)
        # back past L(-1,2) and L(-2,0) back past L(-2,1)
        ((2, 3), [(1, -1), (1, 2), (2, 1), (3, 0)], [1]),
        ((1, 0), [(1, -1), (1, 2), (2, 1), (3, 0)], [1, 1]),
        # L(-1,-1) goes back past all three factors of the head, so each
        # of them gives an insertion of its own
        ((1, 0), [(1, 1), (1, 2), (1, 3), (2, -1)], [3]),
    ],
)
def test_left_moves_match_the_recursive_reference(monkeypatch, group, sym, word, passed):
    moves = _count_left_moves(monkeypatch)
    part = _PART[group]
    for hw in (_EXPLICIT, _DEEP_RECURRENT):
        moves.clear()
        m = module(hw, group)
        vec = m.vector([(part(p), i) for p, i in word])
        _act_as_reference(m, Generator(part(sym[0]), sym[1]), vec.scaled(Fraction(-3, 2)))
        assert sorted(moves) == passed


def test_random_left_moves_match_the_recursive_reference(monkeypatch):
    # long words of few distinct parts under generators of weight one or
    # two parts, so brackets often sort below factors already passed
    moves = _count_left_moves(monkeypatch)
    rng = random.Random(23)
    for trial in range(150):
        group = (INTEGERS, DYADIC, LEX_Z2)[trial % 3]
        part = _PART[group]
        m = module((_EXPLICIT, _CC_ONLY, _DEEP_RECURRENT)[trial % 5 % 3], group)
        sym = Generator(part(rng.randint(1, 5)), rng.randint(-1, 3))
        words = {
            PBWMonomial(tuple(sorted(
                (part(rng.randint(1, 3)), rng.randint(-1, 3))
                for _ in range(rng.randint(2, 6))
            )))
            for _ in range(rng.randint(1, 3))
        }
        vec = ModuleVector({w: _random_coeff(rng, group) for w in words})
        _act_as_reference(m, sym, vec)
    assert max(moves) >= 3 and len(moves) > 300


def test_actions_that_reach_no_label_compute_none():
    # a negative generator only inserts, and a positive one heavier than
    # the word never gets down to weight 0, so however large the index
    # neither reaches a label: the recurrent label memo stays as it was.
    # A part heavier than the generator is never consumed on the way to a
    # label, so its index does not count.
    for group, a in ((INTEGERS, 1), (DYADIC, Fraction(1, 2))):
        hw = HighestWeight.from_json(_DEEP_RECURRENT.to_json())  # a fresh label memo
        m = module(hw, group)
        vec = m.vector([(a, 5), (2 * a, 3)]).scaled(Fraction(2, 3))
        for sym, vec, labels in (
            (Generator(-a, 10**6), vec, 1),
            (Generator(4 * a, 10**6), vec, 1),
            (Generator(a, 10**6), m.vacuum(), 1),
            (Generator(a, 0), m.vector([(a, 0), (2 * a, 10**4)]), 2),
        ):
            out = m.act(sym, vec)
            assert out == _reference_act(m, sym, vec)
            assert len(hw._memo) == labels


def test_zero_mode_takes_the_denominator_of_its_one_label():
    # a zero mode L(0, i) reaches label(i + 1) alone: its bracket terms have
    # negative weight and only insert, and it meets no central term.  So its
    # run computes no lcm over the labels 0..i + 1, and the weight's
    # prefix-lcm list stays empty however large the index.
    for group, a in ((INTEGERS, 1), (DYADIC, Fraction(1, 2))):
        m = module(HighestWeight.from_json(_DEEP_RECURRENT.to_json()), group)
        vec = m.vector([(a, 0), (2 * a, 3)]).scaled(Fraction(2, 3))
        for idx in (1500, 0, -1):
            sym = Generator(group.zero(), idx)
            assert m.act(sym, vec) == _reference_act(m, sym, vec)
            assert m.act(sym, m.vacuum()) == m.vacuum().scaled(m.hw.label(idx + 1))
        assert m.hw._scales == []
        m.act(Generator(3 * a, 1), vec)  # a positive mode takes the prefix lcm
        assert 0 < len(m.hw._scales) <= 8


def test_positive_mode_stops_the_prefix_lcm_at_the_explicit_labels():
    # labels past an explicit prefix are 0, so a positive mode of a huge
    # index takes the lcm over the stored labels only
    m = module(HighestWeight.explicit([1, Fraction(1, 2), Fraction(2, 3)], Fraction(1, 5)))
    vec = m.vector([(1, 0)])
    assert m.act(Generator(1, 10**12), vec).is_zero()
    assert m.act(Generator(2, 10**12), m.vector([(1, 0), (1, 4)])).is_zero()
    assert len(m.hw._scales) <= 3
    sym = Generator(1, 2)  # reaches label 2 and past it
    assert m.act(sym, vec) == _reference_act(m, sym, vec)
    assert m.hw.scale(10**12) == 30
    empty = HighestWeight.explicit([], Fraction(3, 7))
    assert empty.scale(10**12) == 7 and empty._scales == []


# -- Q[w] coefficients and output rescaling on the kernel ----------------------


def _typed(vec):
    """The terms of ``vec`` with each coefficient's type: ``3`` prints as
    ``3*v`` and the constant ``Poly`` 3 as ``(3)*v``."""
    return [(mono, c, type(c)) for mono, c in vec.items()]


def _act_as_reference(m, sym, vec):
    """``m.act(sym, vec)``, checked term by term against the reference."""
    got, want = m.act(sym, vec), _reference_act(m, sym, vec)
    assert got == want
    assert got.to_json(m.group) == want.to_json(m.group)
    assert str(got) == str(want)
    if m.group is LEX_Z2:
        assert _typed(got) == _typed(want)
    return got


def test_lex_coefficients_that_cancel_drop_the_word():
    # the two words of one input meet on a shared output word with
    # coefficients a and b in Q[w]; scaled crosswise, the run's sums there
    # cancel to zero and the word is gone, while the other words stay
    m = module(_EXPLICIT, LEX_Z2)
    sym = Generator((0, 1), 0)
    u = m.vector([((0, 1), 0), ((1, -2), 1)])
    v = m.vector([((0, 1), 1), ((1, -2), 0)])
    a, b = m.act(sym, u), m.act(sym, v)
    shared = [w for w in a.monomials() if w in b.monomials()]
    w = shared[0]
    ca, cb = a.coefficient(w), b.coefficient(w)
    assert isinstance(ca, Poly) and ca.degree >= 1 and cb.degree >= 1
    got = _act_as_reference(m, sym, u.scaled(cb) - v.scaled(ca))
    assert w not in got.monomials() and got


def test_nested_lex_actions_reach_high_w_degrees():
    # each structure constant is linear in w, so nested actions on long
    # words raise the degree of the coefficients step by step
    m = module(_EXPLICIT, LEX_Z2)
    syms = [Generator((1, -2), 1), Generator((0, 1), 0), Generator((-1, 2), 0), Generator((1, 1), -1)]
    for word in (
        [((0, 1), -1), ((0, 1), 2), ((0, 2), 0), ((1, -3), 1), ((1, -1), 0)],
        [((0, 1), 0), ((0, 1), 0), ((0, 2), 1), ((1, -2), -1), ((1, -2), 2), ((1, 0), 0)],
    ):
        vec = m.vector(word)
        for sym in syms:
            vec = _act_as_reference(m, sym, vec)
        assert max(c.degree for _, c in vec.items()) >= 4


def test_lex_inputs_of_every_coefficient_type():
    m = module(_EXPLICIT, LEX_Z2)
    vec = ModuleVector({
        m.monomial([((0, 1), 0), ((1, -2), 1)]): Fraction(-3, 4),
        m.monomial([((0, 1), 1), ((1, -2), 0)]): Poly([Fraction(1, 2), Fraction(-5, 3)]),
        m.monomial([((0, 2), -1), ((1, -3), 0)]): 2,
        m.monomial([((1, -1), 0)]): Poly([Fraction(7, 3)]),
        m.monomial([((0, 3), 1), ((1, -4), 2)]): Fraction(6),
    })
    for sym in (
        Generator((0, 1), 0), Generator((1, -1), 1), Generator((0, 0), 2),
        Generator((-1, 2), 0), Generator((0, -1), -1), CENTRAL,
    ):
        assert _act_as_reference(m, sym, vec)


def test_lex_central_term():
    # [L(a,-1), L(-a,-1)] = a(w)*c, so L(a,-1) L(-a,-1)^n v = n*a(w)*cc L(-a,-1)^(n-1) v
    # with a(w) the scalar image of a: a Poly, constant when a = (0, k)
    m = module(_EXPLICIT, LEX_Z2)
    cc = _EXPLICIT.central_charge
    for a, image in (((1, 2), Poly([2, 1])), ((2, 0), Poly([0, 2])), ((0, 3), Poly([3]))):
        for n in (1, 2, 3):
            got = _act_as_reference(m, Generator(a, -1), m.vector([(a, -1)] * n))
            assert _typed(got) == [(m.monomial([(a, -1)] * (n - 1)), image * (n * cc), Poly)]


def test_lex_outputs_are_poly_once_w_arithmetic_touched_them():
    # parts (0, k) have constant structure constants: the output is a
    # constant, but a Poly, printed as one; a term only a label reached
    # stays a rational
    m = module(_EXPLICIT, LEX_Z2)
    got = _act_as_reference(m, Generator((0, 1), 0), m.vector([((0, 1), 0)]))
    assert _typed(got) == [(PBWMonomial(), Poly([-4]), Poly)]
    assert str(got) == "(-4)*v"
    got = _act_as_reference(m, Generator((0, 0), 1), m.vacuum())
    assert _typed(got) == [(PBWMonomial(), Fraction(-5, 4), Fraction)]
    assert str(got) == "-5/4*v"


@pytest.mark.parametrize("group", [INTEGERS, DYADIC])
def test_output_rescaling_with_odd_input_denominators(group):
    # input denominators 3, 5, 7 and 9 on words of lengths 0..3: the
    # output words of each action run from length top - 1 to top + 1, and
    # each length is cleared of its own power of the scale
    m = module(_EXPLICIT, group)
    unit = Fraction(1, 2) if group is DYADIC else 1
    parts = [unit, 2 * unit, 3 * unit, 4 * unit]
    vec = ModuleVector({
        m.monomial([]): Fraction(2, 9),
        m.monomial([(parts[0], 0)]): Fraction(-1, 3),
        m.monomial([(parts[0], -1), (parts[1], 1)]): Fraction(4, 5),
        m.monomial([(parts[0], 0), (parts[1], 0), (parts[2], 1)]): Fraction(7, 3),
        m.monomial([(parts[1], -1), (parts[3], 2)]): Fraction(-3, 7),
    })
    for sym in (
        Generator(-parts[0], 0), Generator(-parts[2], 1), Generator(parts[0], 0),
        Generator(parts[1], -1), Generator(0 * unit, 1), CENTRAL,
    ):
        got = _act_as_reference(m, sym, vec)
        assert len({mono.length for mono in got.monomials()}) >= 2


# every output of a seeded corpus of nested actions, word lengths 0..6 in all
# three groups; the digest of their JSON and printed forms is pinned
_CORPUS_SHA256 = "92bf8abf0524566d019d789c7ce2dc24c74425755947d07d9f81027a5de74941"


def _corpus_element(rng, group, positive):
    if group is INTEGERS:
        return rng.randint(1, 3) if positive else rng.randint(-3, 3)
    if group is DYADIC:
        den = 2 ** rng.randint(0, 2)
        return Fraction(rng.randint(1 if positive else -3 * den, 3 * den), den)
    if positive:
        a = rng.randint(0, 2)
        return (a, rng.randint(1, 3) if a == 0 else rng.randint(-3, 3))
    return (rng.randint(-2, 2), rng.randint(-3, 3))


def _corpus_outputs():
    rng = random.Random("nested-actions")
    for group in (INTEGERS, DYADIC, LEX_Z2):
        m = module(_EXPLICIT, group)
        for length in range(7):
            for _ in range(2):
                word = sorted(
                    (_corpus_element(rng, group, True), rng.randint(-1, 3)) for _ in range(length)
                )
                g, h = (
                    CENTRAL if rng.random() < 0.1
                    else Generator(_corpus_element(rng, group, False), rng.randint(-1, 3))
                    for _ in range(2)
                )
                vec = m.vector(word).scaled(_random_coeff(rng, group))
                inner = m.act(h, vec)
                yield group, inner
                yield group, m.act(g, inner)


def _corpus_digest():
    forms = [{"json": v.to_json(group), "printed": str(v)} for group, v in _corpus_outputs()]
    text = json.dumps(forms, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_nested_action_corpus_output_is_pinned():
    assert _corpus_digest() == _CORPUS_SHA256


# -- coded action results ---------------------------------------------------------


def _from_terms(vec):
    """``vec`` decoded and built again from its terms, in a coding of its own."""
    return ModuleVector(dict(vec.items()))


def _assert_same_as_rebuilt(vec, group, decoded):
    """``vec`` against its JSON rebuild and against ``decoded``, the same
    value reached by arithmetic on vectors rebuilt from terms."""
    size, nonzero = len(vec), bool(vec)  # read on the coded form
    back = ModuleVector.from_json(vec.to_json(group), group)
    assert vec == back == decoded
    assert hash(vec) == hash(back) == hash(decoded)
    assert size == len(back) == len(decoded) and nonzero == bool(back)
    text = json.dumps(vec.to_json(group))
    assert text == json.dumps(back.to_json(group)) == json.dumps(decoded.to_json(group))
    weight = vec.weight(group)
    assert weight == decoded.weight(group) and type(weight) is type(decoded.weight(group))
    assert str(vec) == str(decoded)
    for (_, c), (_, d) in zip(vec.items(), decoded.items()):
        if group is LEX_Z2:
            # a rational stays rational until w-arithmetic touches it
            assert type(c) in (int, Fraction, Poly)
            assert isinstance(c, Poly) == isinstance(d, Poly)
        else:
            assert type(c) is (int if c.denominator == 1 else Fraction)


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
def test_coded_results_match_their_json_rebuild(group):
    # generator actions, nested ones, and their sums, differences and
    # rational multiples; read, each is the vector JSON gives back and the
    # one the same arithmetic on vectors rebuilt from terms gives
    rng = random.Random(f"coded-{group.name}")
    m = module(_EXPLICIT, group)
    kinds = set()
    for trial in range(36):
        word = sorted(
            (_corpus_element(rng, group, True), rng.randint(-1, 3)) for _ in range(trial % 5)
        )
        g, h = (Generator(_corpus_element(rng, group, False), rng.randint(-1, 3)) for _ in range(2))
        vec = m.vector(word).scaled(_random_coeff(rng, group))
        q = _rat(rng) or Fraction(-2)
        hv, gv = m.act(h, vec), m.act(g, vec)
        ghv, hgv = m.act(g, hv), m.act(h, gv)
        lhs = ghv - hgv
        assert lhs == m.act_element(m.algebra.bracket_basis(g, h), vec)
        cases = [
            (hv, _from_terms(hv)),
            (ghv, _from_terms(ghv)),
            (lhs, _from_terms(ghv) - _from_terms(hgv)),
            (ghv + hgv, _from_terms(ghv) + _from_terms(hgv)),
            (hv.scaled(q), _from_terms(hv).scaled(q)),
            (lhs.scaled(q) + hv, _from_terms(lhs).scaled(q) + _from_terms(hv)),
            (-ghv - hgv.scaled(3), -_from_terms(ghv) - _from_terms(hgv).scaled(3)),
            (ghv - ghv, ModuleVector()),
            (m.act(CENTRAL, ghv), _from_terms(ghv).scaled(_EXPLICIT.central_charge)),
        ]
        if group is LEX_Z2:
            # Q[w] multiples: a constant Poly makes every coefficient a
            # Poly, a rational and a constant Poly of one value cancel, and
            # a quadratic multiple is two linear ones in turn
            linear, one = Poly((Fraction(1, 2), q)), Poly((1,))
            other = Poly((q, Fraction(-2, 3)))
            cases += [
                (hv.scaled(linear), _from_terms(hv).scaled(linear)),
                (lhs.scaled(one), _from_terms(lhs).scaled(one)),
                (hv - hv.scaled(one), ModuleVector()),
                (ghv.scaled(one) - hgv, _from_terms(ghv).scaled(one) - _from_terms(hgv)),
                (ghv.scaled(linear * other), _from_terms(ghv).scaled(linear).scaled(other)),
            ]
        for got, want in cases:
            _assert_same_as_rebuilt(got, group, want)
            kinds.update(type(c) for _, c in got.items())
    assert kinds == ({int, Fraction, Poly} if group is LEX_Z2 else {int, Fraction})


def test_coded_results_of_two_scales_combine_recoded(monkeypatch):
    # a result at scale 2 and one at scale 8, where the generator has a
    # part at 1/8: sums and nested actions re-code the coarser one, decode
    # nothing, and every value stays the same
    m = module(_EXPLICIT, DYADIC)
    vec = m.vector([(Fraction(1, 2), 0), (Fraction(1), 1)])
    a = m.act(Generator(Fraction(-1, 2), 1), vec)
    b = m.act(Generator(Fraction(-3, 8), 0), vec)
    assert (a._scale, b._scale) == (2, 8)
    sym, q = Generator(Fraction(1, 2), 2), Fraction(-5, 3)
    with monkeypatch.context() as patched:
        patched.setattr(ModuleVector, "items", _no_decode)
        c = m.act(sym, a)
        combined = [a + b, b - a.scaled(q), c - m.act(sym, b), c + c.scaled(q)]
    assert c == module(_EXPLICIT, DYADIC).act(sym, _from_terms(a)) == _reference_act(m, sym, a)
    for got, want in zip(combined, (
        _from_terms(a) + _from_terms(b),
        _from_terms(b) - _from_terms(a).scaled(q),
        _from_terms(c) - _from_terms(m.act(sym, b)),
        _from_terms(c).scaled(1 + q),
    )):
        _assert_same_as_rebuilt(got, DYADIC, want)


def _axiom_pairs(m, rng, trials):
    """Pairs of results of seeded (g, h, word) triples: the two sides of the
    module axiom, which are equal, and pairs that differ.  A bracket that
    vanishes leaves the zero vector as the right side."""
    group = m.group
    for _ in range(trials):
        word = sorted(
            (_corpus_element(rng, group, True), rng.randint(-1, 3))
            for _ in range(rng.randint(0, 4))
        )
        g, h = (Generator(_corpus_element(rng, group, False), rng.randint(-1, 3)) for _ in range(2))
        vec = m.vector(word)
        ghv, hgv = m.act(g, m.act(h, vec)), m.act(h, m.act(g, vec))
        rhs = m.act_element(m.algebra.bracket_basis(g, h), vec)
        yield ghv - hgv, rhs
        yield ghv, hgv
        yield ghv - hgv, rhs.scaled(2)
        yield ghv, ghv + m.act(g, vec)


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
def test_coded_equality_agrees_with_the_decoded_comparison(group):
    # == reads the coded difference of two results; it must say what the
    # comparison of their terms says, and equal vectors, results or built
    # from terms, hash alike and are one element of a set
    m = module(_EXPLICIT, group)
    seen = set()
    for a, b in _axiom_pairs(m, random.Random(f"coded-eq-{group.name}"), 40):
        got = a == b
        assert got == (b == a) == (not a != b)
        assert got == (_from_terms(a) == _from_terms(b))
        if got:
            assert hash(a) == hash(b) == hash(_from_terms(a))
            assert len({a, b, _from_terms(a), _from_terms(b)}) == 1
        else:
            assert len({a, b}) == 2
        seen.add((got, bool(a)))
    assert seen >= {(True, True), (False, True)}


def test_coded_lex_difference_matches_the_decoded_one():
    # one word whose coefficient is a rational, a constant or a linear Q[w]
    # tuple on either side: the coded difference cancels equal values of
    # either kind and reads as the decoded difference, printed form included
    word, other = PBWMonomial((((0, 1), 0),)), PBWMonomial((((0, 1), 1),))
    values = [2, Fraction(-1, 2), Poly([2]), Poly([Fraction(-1, 2)])]
    values += [Poly([1, 3]), Poly([Fraction(1, 2), 2])]
    cancelled = 0
    for p in values:
        for c in values:
            a = ModuleVector({word: p, other: 5})
            b = ModuleVector({word: c})
            got = a - b
            _assert_same_as_rebuilt(got, LEX_Z2, _from_terms(a) - _from_terms(b))
            assert (a == b.scaled(1) + got) and (a - b == -(b - a))
            cancelled += word not in got.monomials()
    # 2 and -1/2, each as a rational or a constant tuple in either order,
    # and the two linear tuples against themselves
    assert cancelled == 4 + 4 + 2


def test_coded_equality_across_dyadic_scales(monkeypatch):
    # one result coded at scale 2, and again at scale 8 from the same
    # vector re-coded by adding and taking away a word at 1/8: == re-codes
    # the coarser one and decodes neither, and equal vectors hash alike
    m = module(_EXPLICIT, DYADIC)
    vec = m.vector([(Fraction(1, 2), 0), (Fraction(1), 1)])
    eighth = m.vector([(Fraction(1, 8), 0)])
    sym = Generator(Fraction(-1, 2), 1)
    a, b = m.act(sym, vec), m.act(sym, vec + eighth - eighth)
    assert (a._scale, b._scale) == (2, 8)
    monkeypatch.setattr(ModuleVector, "items", _no_decode)
    assert a == b and b == a and len({a, b}) == 1
    assert a != b.scaled(2) and b.scaled(2) != a


def test_integer_vector_combines_with_an_all_integral_dyadic_one_dyadic():
    # an integer vector is coded at scale 1 and an all-integral dyadic one
    # at scale 2; whichever comes first, their sum or difference is re-coded
    # at 2 and dyadic: it writes its parts as dyadic elements and reads them
    # as Fractions
    vi = module(_EXPLICIT, INTEGERS).vector([(1, 0)])
    vd = module(_EXPLICIT, DYADIC).vector([(Fraction(1), 0)])
    for got in (vi + vd, vd + vi, vd - vi.scaled(3), vi.scaled(3) - vd):
        assert [t["factors"] for t in got.to_json(DYADIC)["terms"]] == [[["1", 0]]]
        assert [type(p) for w in got.monomials() for p, _ in w.factors] == [Fraction]
    assert vi + vd == vd + vi == vd.scaled(2)


def test_a_lex_z2_vector_does_not_combine_with_an_integer_one():
    # the lex-z2 shape and the int shape meet only in a vector with no
    # parts: two vectors with words, one of each, neither add nor compare
    vl = module(_EXPLICIT, LEX_Z2).vector([((0, 1), 0)])
    vi = module(_EXPLICIT, INTEGERS).vector([(1, 0)])
    for a, b in ((vl, vi), (vi, vl)):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError, match="different groups"):
                op(a, b)
        assert (a == b) is False and a != b


def test_every_dyadic_scale_is_a_power_of_two_and_at_least_two():
    # the scale names the coding, so no dyadic vector or run is at scale 1,
    # however integral its parts; an all-integral one still decodes to
    # Fraction parts and writes them as dyadic elements
    m = module(_EXPLICIT, DYADIC)
    one, two = Fraction(1), Fraction(2)
    integral = m.vector([(one, 0), (two, 1)])
    built = ModuleVector({m.monomial([(one, -1)]): Fraction(2, 3), VACUUM: 1})
    basis = m.weight_basis(-two, 1, parts=[one, two])
    probes = [Generator(p, k) for p in (one, two, Fraction(1, 4)) for k in (-1, 0, 1)]
    vi = module(_EXPLICIT, INTEGERS).vector([(1, 0)])
    vecs = [integral, built, m.vector([(Fraction(3, 8), 0)])]
    vecs += [m.act(Generator(-one, 1), integral), m.act(Generator(one, 2), integral)]
    vecs += [v + vi for v in vecs] + [vi - v for v in vecs] + [v.scaled(3) for v in vecs]
    scales = [v._scale for v in vecs] + [m._run(p, basis)[1] for p in probes]
    assert set(scales) == {2, 4, 8}
    for s in scales:
        assert s >= 2 and s & (s - 1) == 0
    assert [type(p) for w in integral.monomials() for p, _ in w.factors] == [Fraction] * 2
    assert [t["factors"] for t in integral.to_json(DYADIC)["terms"]] == [[["1", 0], ["2", 1]]]


def test_dyadic_result_does_not_depend_on_the_module_history():
    # a run at a finer scale leaves nothing behind in the module: the next
    # result is coded at the scale of its own run, as a fresh module's is
    m = module(_EXPLICIT, DYADIC)
    vec = m.vector([(Fraction(1, 2), 0), (Fraction(1), 1)])
    sym = Generator(Fraction(-1, 2), 1)
    assert m.act(Generator(Fraction(-3, 8), 0), vec)._scale == 8
    got, fresh = m.act(sym, vec), module(_EXPLICIT, DYADIC).act(sym, vec)
    assert got._scale == fresh._scale == 2
    assert got.to_json(DYADIC) == fresh.to_json(DYADIC)


def _no_decode(self):
    raise AssertionError("decoded the words of a vector")


def test_dyadic_module_axiom_decodes_nothing(monkeypatch):
    # seeded triples with denominators up to 8, so a later action often
    # runs at a finer scale than that of a result it reads; the first
    # triple is h = L(1,3) on a word with a part 3/2, then g = L(-5/4,-1)
    rng = random.Random("dyadic-axiom")
    triples = [(Generator(Fraction(-5, 4), -1), Generator(Fraction(1), 3),
                [(Fraction(1, 2), 0), (Fraction(3, 2), 1)])]
    for _ in range(80):
        g, h = (Generator(DYADIC.random_element(rng, 3), rng.randint(-1, 3)) for _ in range(2))
        word = sorted((DYADIC.random_positive(rng, 3), rng.randint(-1, 3))
                      for _ in range(rng.randint(0, 4)))
        triples.append((g, h, word))
    sides, recoded = [], 0
    with monkeypatch.context() as patched:
        patched.setattr(ModuleVector, "items", _no_decode)
        for g, h, word in triples:
            m = module(_EXPLICIT, DYADIC)
            vec = m.vector(word)
            hv = m.act(h, vec)
            ghv = m.act(g, hv)
            recoded += hv._scale < ghv._scale
            lhs = ghv - m.act(h, m.act(g, vec))
            rhs = m.act_element(m.algebra.bracket_basis(g, h), vec)
            assert lhs == rhs and hash(lhs) == hash(rhs)
            assert lhs.to_json(DYADIC) == rhs.to_json(DYADIC)
            sides.append((lhs, rhs))
    assert recoded >= 10 and sum(bool(lhs) for lhs, _ in sides) >= 40
    for lhs, rhs in sides:
        _assert_same_as_rebuilt(lhs, DYADIC, _from_terms(rhs))


@pytest.mark.parametrize("bad", [0.5, 2.0, True], ids=repr)
def test_vectors_refuse_inexact_coefficients(bad):
    # a float or a bool coefficient would pass into the coded form and
    # fail later; it is refused where it enters, in every group
    for group, word in _ONE_WORD.items():
        m = module(_EXPLICIT, group)
        vec = m.vector(word)
        result = m.act(Generator(group.neg(word[0][0]), 0), vec)
        for build in (
            lambda: vec.scaled(bad),
            lambda: bad * vec,
            lambda: result.scaled(bad),
            lambda: m.vacuum().scaled(bad),
            lambda: ModuleVector({VACUUM: bad}),
            lambda: ModuleVector({m.monomial(word): bad, VACUUM: 1}),
        ):
            with pytest.raises(ValueError, match="not an exact rational"):
                build()
    # a Q[w] coefficient is exact over lex-z2 only
    with pytest.raises(ValueError, match="not an exact rational"):
        module().vector([(1, 0)]).scaled(Poly([1, 2]))
    with pytest.raises(ValueError, match="not an exact rational"):
        ModuleVector({PBWMonomial(((1, 0),)): Poly([1, 2])})


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
def test_comparing_results_of_one_coding_decodes_neither_side(group, monkeypatch):
    # dyadic results of the trials run at scales 1 to 4, so some pairs
    # meet at two scales
    m = module(_EXPLICIT, group)
    monkeypatch.setattr(ModuleVector, "items", _no_decode)
    pairs = _axiom_pairs(m, random.Random(f"no-decode-{group.name}"), 20)
    results = [a == b for a, b in pairs]
    assert True in results and False in results


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
def test_json_weight_and_hash_of_results_decode_nothing(group, monkeypatch):
    m = module(_EXPLICIT, group)
    rng = random.Random(f"no-decode-reads-{group.name}")
    vecs = [v for pair in _axiom_pairs(m, rng, 10) for v in pair]
    with monkeypatch.context() as patched:
        patched.setattr(ModuleVector, "items", _no_decode)
        got = [(json.dumps(v.to_json(group)), v.weight(group), hash(v)) for v in vecs]
    # the same reads of the vectors rebuilt from their decoded terms
    want = [
        (json.dumps(d.to_json(group)), d.weight(group), hash(d))
        for d in map(_from_terms, vecs)
    ]
    assert got == want and len(vecs) > 20


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
def test_central_action_reads_an_integral_value_as_an_int(group):
    # central charge 7/2 on coefficients 2, 4/7 and 1/3: a vector built from
    # words and a coded result read 7 and 2 as ints over the integers and
    # dyadics; over lex-z2 a rational stays a rational
    m = module(_EXPLICIT, group)
    words = [m.monomial(_ONE_WORD[group] * k) for k in (1, 2, 3)]
    decoded = ModuleVector(dict(zip(words, (Fraction(2), Fraction(4, 7), Fraction(1, 3)))))
    coded = m.act(Generator(group.neg(words[0].factors[0][0]), 2), decoded)
    for vec in (decoded, coded):
        got = m.act(CENTRAL, vec)
        assert got == _reference_act(m, CENTRAL, vec)
        for (_, c), (_, d) in zip(got.items(), vec.items()):
            if group is LEX_Z2:
                assert isinstance(c, Poly) == isinstance(d, Poly)
            else:
                assert type(c) is (int if c.denominator == 1 else Fraction)
    types = {type(c) for _, c in m.act(CENTRAL, decoded).items()}
    assert types == ({Fraction} if group is LEX_Z2 else {int, Fraction})


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
def test_vector_built_from_words_reads_as_its_sum_with_zero(group):
    # Fraction(2) given for a word reads as the int 2 over the integers and
    # dyadics, as the same vector plus zero reads it; over lex-z2 a
    # rational stays the rational it was given as
    m = module(_EXPLICIT, group)
    words = [m.monomial(_ONE_WORD[group] * k) for k in (1, 2, 3)]
    given = dict(zip(words, (Fraction(2), Fraction(-4, 6), 5)))
    for built in (ModuleVector.of(words[0], Fraction(2)), ModuleVector(given)):
        summed = built + ModuleVector.zero()
        assert _typed(built) == _typed(summed)
        for word, c in built.items():
            got, other = built.coefficient(word), summed.coefficient(word)
            assert got == other == given[word] and type(got) is type(other)
            if group is LEX_Z2:
                assert type(got) is type(given[word])
            else:
                assert type(got) is (int if got.denominator == 1 else Fraction)


def test_coefficient_reads_every_term_of_a_result():
    # an integer result, a dyadic one coded at scale 2 and read after its
    # module has run at scale 8, and a lex-z2 one with Q[w] coefficients:
    # each word of items() reads its value, as the reference action built
    # from words reads it
    ints = module(_EXPLICIT, INTEGERS)
    dyadic = module(_EXPLICIT, DYADIC)
    lex = module(_EXPLICIT, LEX_Z2)
    base = dyadic.vector([(Fraction(1, 2), 0), (Fraction(1, 2), 2), (Fraction(1), 1)])
    inner = lex.act(Generator((0, 1), 0), lex.vector([((0, 1), 0), ((1, -2), 1)]))
    cases = [
        (ints, Generator(1, 1), ints.vector([(1, 0), (1, 2), (2, 1)])),
        (dyadic, Generator(Fraction(1, 2), 1), base.scaled(Fraction(2, 3))),
        (lex, Generator((0, 1), 1), inner),
    ]
    results = [m.act(sym, vec) for m, sym, vec in cases]
    assert results[1]._scale == 2
    assert dyadic.act(Generator(Fraction(-3, 8), 0), base)._scale == 8
    for (m, sym, vec), result in zip(cases, results):
        want = _reference_act(m, sym, vec)
        assert len(result) >= 3
        for word, c in result.items():
            got = result.coefficient(word)
            assert got == c == want.coefficient(word) and type(got) is type(c)
        assert result.coefficients(result.monomials()) == [c for _, c in want.items()]
    assert any(isinstance(c, Poly) and c.degree >= 1 for _, c in results[2].items())
    assert {type(c) for _, c in results[1].items()} == {int, Fraction}
    # a word not in the vector reads Fraction(0): over the dyadics one at
    # 1/8, whose denominator does not divide the vector's scale 2
    absent = [
        (results[0], PBWMonomial(((7, 3),))),
        (results[1], PBWMonomial(((Fraction(1, 8), 0),))),
        (results[1], PBWMonomial(((Fraction(1, 8), 0), (Fraction(3, 8), 1)))),
        (results[2], PBWMonomial((((5, 5), 0),))),
    ]
    for vec, word in absent:
        got = vec.coefficient(word)
        assert word not in vec.monomials() and got == 0 and type(got) is Fraction
        assert vec.coefficients([word, vec.monomials()[0]]) == [0, vec.items()[0][1]]


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
def test_one_run_reads_coded_and_decoded_inputs_alike(group):
    # the inputs of one run share its divisor: a result, a vector built
    # from words with denominators (over the dyadics at a coarser scale
    # than the run's) and, outside lex-z2, a bare word each come out as
    # their own action
    m = module(_EXPLICIT, group)
    word = m.monomial(_ONE_WORD[group] * 2)
    coded = m.act(Generator(group.neg(word.factors[0][0]), 2), ModuleVector.of(word, Fraction(2, 3)))
    built = ModuleVector({word: Fraction(-5, 7), VACUUM: 1})
    inputs = [coded, built] if group is LEX_Z2 else [coded, built, word]
    sym = Generator(word.factors[0][0], 1)
    if group is DYADIC:
        sym = Generator(Fraction(1, 8), 1)  # finer than the scale 2 of the inputs
    outs, scale, divisor = m._run(sym, inputs)
    assert scale == (8 if group is DYADIC else 1)
    for x, got in zip(inputs, m._vectors(outs, scale, divisor)):
        if type(x) is PBWMonomial:
            x = ModuleVector.of(x, 1)
        assert got and got == m.act(sym, x) == _reference_act(m, sym, x)


@pytest.mark.parametrize("group", [INTEGERS, LEX_Z2], ids=lambda g: g.name)
def test_nested_coded_action_spends_the_steps_of_its_terms(group):
    # a coded input enters the kernel as it stands, term for term, so the
    # outer action costs what it costs on the same vector read back from
    # JSON; one step short of that, both end in the step-budget error
    m = module(_EXPLICIT, group)
    part = {INTEGERS: 1, LEX_Z2: (0, 1)}[group]
    inner = m.act(Generator(group.neg(part), 1), m.vector(sorted([(part, 0), (part, 2)] * 2)))
    back = ModuleVector.from_json(inner.to_json(group), group)
    sym = Generator(group.scale(3, part), 1)

    def fits(budget, vec):
        m.step_budget = budget
        try:
            m.act(sym, vec)
        except StraighteningLimitError:
            return False
        return True

    steps = next(b for b in itertools.count(1) if fits(b, inner))
    assert steps > 20 and fits(steps, back)
    assert not fits(steps - 1, back)
    m.step_budget = steps - 1
    with pytest.raises(StraighteningLimitError, match=f"{steps - 1}-step budget"):
        m.act(sym, inner)


def test_submodule_closure_hashes_its_results_coded(monkeypatch):
    # the closure files every result in a set: hashing and comparing read
    # the coded form, the vacuum seed's included, so nothing is decoded
    m = module(HighestWeight.explicit([Fraction(1, 3), 2, Fraction(-5, 4), 1], Fraction(7, 2)))
    catalog = [Generator(a, i) for a in (-2, -1, 1) for i in (-1, 0, 1)]
    decodes = []
    decode = ModuleVector.items

    def counting(self):
        decodes.append(self)
        return decode(self)

    monkeypatch.setattr(ModuleVector, "items", counting)
    closure = m.submodule_generated([m.vacuum()], catalog, 3)
    sizes = {w: len(vs) for w, vs in closure.items()}
    assert sizes == {0: 21, -1: 47, -2: 82, -3: 89, -4: 78, -5: 69, -6: 27}
    assert decodes == []


# -- the rows of one probe on a whole basis ---------------------------------------


def _rows_word_by_word(m, probe, basis):
    """The rows of ``probe`` on ``basis``, from one ``act`` call per word,
    each with its output word."""
    rows = {}
    for col, mono in enumerate(basis):
        for out, c in m.act(probe, ModuleVector.of(mono)).items():
            rows.setdefault(out, {})[col] = c
    return [(w, rows[w]) for w in sorted(rows, key=PBWMonomial.sort_key)]


def _assert_rows_match(m, probes, basis):
    for probe in probes:
        got = m.action_rows(probe, basis)
        # each row is the act row times the run's divisor for the row's
        # word length, with int entries; one act call straightens a word
        # at its own scale
        _, scale, d = m._run(probe, basis)
        assert type(d) is int and d > 0
        scaled = [
            {j: c * (d // scale**w.length) for j, c in r.items()}
            for w, r in _rows_word_by_word(m, probe, basis)
        ]
        assert all(c.denominator == 1 for r in scaled for c in r.values())
        # sparsest first: a stable sort of the word order by entry count
        want = sorted(({j: int(c) for j, c in r.items()} for r in scaled), key=len)
        # the same rows in the same order, the same columns in the same
        # order, and equal coefficients of the same type
        assert [[(j, c, type(c)) for j, c in r.items()] for r in got] == [
            [(j, c, type(c)) for j, c in r.items()] for r in want
        ]


_RECURRENT = labels_from_charpoly(X**2 - 3 * X + Fraction(1, 2), Fraction(5, 3), [Fraction(2)])


@pytest.mark.parametrize("hw", [_EXPLICIT, HW, _RECURRENT, HighestWeight.zero()])
def test_action_rows_match_word_by_word_act_over_integers(hw):
    m = module(hw)
    probes = [Generator(b, k) for b in (1, 2, 3) for k in range(-1, 5)]
    probes += [Generator(0, 2), Generator(-1, 0), Generator(-2, 1)]
    for mu, bound in ((-1, 3), (-2, 2), (-3, 1)):
        _assert_rows_match(m, probes, m.weight_basis(mu, bound))


def test_action_rows_match_word_by_word_act_over_dyadics():
    # a mixed-denominator catalog codes the basis at scale 4, and a probe
    # at 1/8 runs it at scale 8, between two runs at scale 4
    m = module(_EXPLICIT, DYADIC)
    parts = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2)]
    basis = m.weight_basis(Fraction(-3, 2), 1, parts=parts)
    probes = [Generator(p, k) for p in parts for k in (-1, 0, 2)]
    _assert_rows_match(m, probes, basis)
    assert {m._run(p, basis)[1] for p in probes} == {4}
    probes = [Generator(Fraction(1, 8), 1), Generator(Fraction(-3, 8), 0), Generator(Fraction(0), 1)]
    _assert_rows_match(m, probes, basis)
    assert [m._run(p, basis)[1] for p in probes] == [8, 8, 4]


def test_action_rows_refuse_lex_pairs():
    # Q[w] rows cannot be eliminated, so there are no lex-z2 rows; the
    # action on the same words and probes is checked against the reference
    m = module(_EXPLICIT, LEX_Z2)
    basis = [
        m.monomial(w)
        for w in (
            [((1, -2), 0)],
            [((0, 1), -1), ((1, -3), 1)],
            [],
            [((0, 1), 0), ((0, 1), 2), ((1, 0), -1)],
            [((0, 2), 1), ((1, -1), 0)],
        )
    ]
    probes = [
        Generator(a, k)
        for a in ((0, 1), (1, -3), (1, -1), (0, 3), (0, 0), (-1, 2))
        for k in (-1, 0, 1)
    ]
    with pytest.raises(ValueError, match="integers and the dyadics"):
        m.action_rows(probes[0], basis)
    nonzero = 0
    for probe in probes:
        for mono in basis:
            vec = ModuleVector.of(mono)
            got = m.act(probe, vec)
            assert got == _reference_act(m, probe, vec)
            nonzero += bool(got)
    assert nonzero >= 60


def test_action_rows_give_every_word_its_own_step_budget():
    # a positive probe takes 3 steps on each word at weight -1, so a 3-step
    # budget covers each word on its own, as one act call per word would,
    # however many words one run straightens
    m = VermaModule(ALG, HW, step_budget=3)
    basis = m.weight_basis(-1, 6)
    _assert_rows_match(m, (Generator(1, 0), Generator(2, 3)), basis)
    with pytest.raises(StraighteningLimitError, match="3-step budget"):
        m.action_rows(Generator(1, 0), m.weight_basis(-2, 1))


def test_action_rows_refuse_the_central_symbol():
    m = module()
    with pytest.raises(ValueError, match="generator"):
        m.action_rows(CENTRAL, m.weight_basis(-1, 1))


def _rat(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def test_coded_dyadic_action_matches_rescaled_integer_module():
    # L(a,i) -> L'(S*a,i)/S and c -> c'/S embed the dyadic algebra into the
    # integer one when S*a is integral, and the module with (S*cc, S*labels)
    # carries the dyadic one along: a word of length k goes to S^-k times
    # its scaled image.  So the integer module, which straightens without
    # coding, predicts every dyadic action up to a power of S per term.
    rng = random.Random(7)
    for trial in range(120):
        dens = [2 ** rng.randint(0, 3) for _ in range(4)]
        word = sorted(
            (Fraction(rng.randint(1, 3 * d), d), rng.randint(-1, 3)) for d in dens[: trial % 4]
        )
        gamma = Fraction(rng.randint(-3 * dens[3], 3 * dens[3]), dens[3])
        idx = rng.randint(-1, 3)
        scale = max([gamma.denominator] + [p.denominator for p, _ in word]) * rng.choice([1, 2])
        cc, labels, c = _rat(rng), [_rat(rng) for _ in range(8)], _rat(rng)
        dyadic = module(HighestWeight.explicit(labels, cc), DYADIC)
        integral = module(HighestWeight.explicit([scale * x for x in labels], scale * cc))
        got = dyadic.act(Generator(gamma, idx), dyadic.vector(word).scaled(c))
        image = integral.act(
            Generator(int(scale * gamma), idx),
            integral.vector([(int(scale * p), i) for p, i in word]).scaled(c),
        )
        want = ModuleVector(
            {
                PBWMonomial(tuple((Fraction(p, scale), i) for p, i in mono.factors)):
                    d * Fraction(scale) ** (mono.length - len(word) - 1)
                for mono, d in image.items()
            }
        )
        assert got == want
        assert all(type(p) is Fraction for mono in got.monomials() for p, _ in mono.factors)


def test_a_chain_of_dyadic_actions_keeps_no_spare_twos_in_its_divisor():
    # each run brings its outputs to one divisor through powers of the
    # scale and then clears the twos the coefficients do not need, so the
    # divisor's power of two stays the largest among the denominators
    # rather than growing by a power of the scale with every action
    m = module(_EXPLICIT, DYADIC)
    v = m.vector([(Fraction(1, 4), 0), (Fraction(1, 2), 1), (Fraction(3, 4), 0)])
    for _ in range(12):
        v = m.act(Generator(Fraction(1, 4), 0), m.act(Generator(Fraction(-1, 4), 0), v))
        dens = [Fraction(c).denominator for c in v.coefficients(v.monomials())]
        assert v._divisor & -v._divisor == max(d & -d for d in dens)
    assert len(v) > 5


def test_recoding_a_dyadic_vector_finer_keeps_its_coefficients_and_divisor():
    # a finer scale multiplies only the part codes: every raw coefficient
    # and the one divisor stay, and the vector and its JSON are the same
    rng = random.Random(29)
    m = module(_EXPLICIT, DYADIC)
    for _ in range(60):
        word = sorted(
            (Fraction(rng.randint(1, 8), 2 ** rng.randint(0, 3)), rng.randint(-1, 2))
            for _ in range(rng.randint(1, 3))
        )
        vec = m.vector(word).scaled(_rat(rng) or 1)
        gamma = Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))
        for v in (vec, m.act(Generator(gamma, rng.randint(-1, 2)), vec)):
            finer = v._as(False, 4 * v._scale)
            assert finer._scale == 4 * v._scale and finer._divisor == v._divisor
            assert sorted(finer._raw.values()) == sorted(v._raw.values())
            assert finer == v and finer.to_json(DYADIC) == v.to_json(DYADIC)


def test_dyadic_central_term_enters_scaled():
    # [L(a,-1), L(-a,-1)] = a*c, so L(a,-1) L(-a,-1)^n v = n*a*cc L(-a,-1)^(n-1) v:
    # on the coded kernel the central charge enters scaled with the parts
    m = module(_EXPLICIT, DYADIC)
    for a in (Fraction(3, 4), Fraction(5, 8), Fraction(2)):
        for n in (1, 2, 4):
            got = m.act(Generator(a, -1), m.vector([(a, -1)] * n))
            assert got == (n * a * _EXPLICIT.central_charge) * m.vector([(a, -1)] * (n - 1))


def test_finer_denominator_leaves_later_results_coarse():
    # acting at denominators <= 2, then at 8 and then at <= 2 again: each
    # result is coded at the scale of its own run, and every action equals
    # a fresh module's and the reference, on a result coded at the coarse
    # scale too
    rng = random.Random(13)
    m = module(_EXPLICIT, DYADIC)
    base = m.vector([(Fraction(1, 2), -1), (Fraction(1), 1)])
    vecs = [base, m.act(Generator(Fraction(-1, 2), 0), base)]
    coarse = [
        Generator(Fraction(rng.randint(-4, 4), rng.choice([1, 2])), rng.randint(-1, 2))
        for _ in range(8)
    ]
    fine = [Generator(Fraction(-3, 8), 1), Generator(Fraction(5, 8), 0)]
    for sym in coarse[:4] + fine + coarse[4:]:
        for vec in vecs:
            got = m.act(sym, vec)
            assert got == module(_EXPLICIT, DYADIC).act(sym, vec) == _reference_act(m, sym, vec)
            assert got._scale == (8 if sym in fine else 2)


def test_vector_made_in_one_module_acts_in_another(monkeypatch):
    # a result of one module, at a finer scale than any run of the other
    # so far, acts in the other at its own scale and decodes nothing
    first, second = module(HW, DYADIC), module(_EXPLICIT, DYADIC)
    second.act(Generator(Fraction(1, 2), 0), second.vector([(Fraction(1, 2), 1)]))
    vec = first.act(
        Generator(Fraction(-1, 8), 1), first.vector([(Fraction(3, 8), 0), (Fraction(1, 2), 2)])
    )
    syms = (Generator(Fraction(1, 2), 0), Generator(Fraction(-1, 4), 1), CENTRAL)
    with monkeypatch.context() as patched:
        patched.setattr(ModuleVector, "items", _no_decode)
        for sym in syms:
            got = second.act(sym, vec)
            fresh = ModuleVector.from_json(vec.to_json(DYADIC), DYADIC)
            assert got == module(_EXPLICIT, DYADIC).act(sym, fresh) and got._scale == 8
    for sym in syms:
        assert second.act(sym, vec) == _reference_act(second, sym, vec)


def test_decoded_dyadic_words_hash_as_their_factors():
    # a decoded word must hash as its factors, equal the word the
    # constructor builds and find it in a dict, at every scale
    m = module(_EXPLICIT, DYADIC)
    vec = m.vector([(Fraction(1, 2), -1), (Fraction(1), 1), (Fraction(2), 0)])
    syms = [Generator(Fraction(a), i) for a, i in (("-1/2", 0), ("3/2", 1), (1, 0))]
    syms += [Generator(Fraction(-3, 8), 1), Generator(Fraction(5, 8), 0)]
    seen = []
    for sym in syms:
        out = m.act(sym, vec)
        seen += out.monomials()
        # the same raw words coded at four times the scale decode alike
        finer = out._as(False, 4 * out._scale)
        assert finer.monomials() == out.monomials()
        seen += finer.monomials()
    assert any(p.denominator == 1 for w in seen for p, _ in w.factors)
    for w in seen:
        built = PBWMonomial(w.factors)
        assert hash(w) == hash(w.factors) == hash(built)
        assert w == built and built in {w: 0} and w in {built: 0}
    # at a dyadic scale an integral part decodes to a Fraction that matches
    # the integer word; at scale 1 it is the integer part itself; the empty
    # word is the vacuum at every scale
    for scale in (1, 2, 8):
        (two,) = ModuleVector._of_coded({((2 * scale, 0),): 1}, scale, 1).monomials()
        assert type(two.factors[0][0]) is (int if scale == 1 else Fraction)
        assert two.factors == ((Fraction(2), 0),)
        assert two == PBWMonomial(((2, 0),)) and hash(two) == hash(PBWMonomial(((2, 0),)))
        assert {PBWMonomial(((2, 0),)): 1}[two] == 1
        (vacuum,) = ModuleVector._of_coded({(): 1}, scale, 1).monomials()
        assert vacuum is VACUUM
    assert m.act(Generator(Fraction(0), 1), m.vacuum()).monomials()[0] is VACUUM


def test_items_build_each_dyadic_part_once_per_call():
    # a part shared by many words is one Fraction object within a call,
    # and the terms are those of decoding every part on its own
    m = module(_EXPLICIT, DYADIC)
    vec = m.act(
        Generator(Fraction(3, 8), 1),
        m.vector([(Fraction(1, 8), 0), (Fraction(1, 2), 1), (Fraction(1, 2), 2)]),
    )
    terms = vec.items()
    parts = [p for w, _ in terms for p, _ in w.factors]
    assert len(terms) >= 5 and len(parts) > 2 * len(set(parts))
    assert len({id(p) for p in parts}) == len(set(parts))
    scale = vec._scale
    alone = [
        (PBWMonomial(tuple([(Fraction(p, scale), i) for p, i in w])), c)
        for w, c in vec._values()
    ]
    assert terms == sorted(alone, key=lambda t: t[0].sort_key())


def _weight_by_add(vec, group):
    """``ModuleVector.weight`` as it reads: ``group.add`` over each word."""
    w = None
    for mono in vec.monomials():
        s = group.zero()
        for p, _ in mono.factors:
            s = group.add(s, p)
        if w is None:
            w = group.neg(s)
        elif w != group.neg(s):
            return None
    return w


def test_dyadic_weight_matches_group_addition():
    rng = random.Random(17)
    words = {
        PBWMonomial(tuple(sorted(
            (Fraction(rng.randint(1, 8), 2 ** rng.randint(0, 3)), rng.randint(-1, 2))
            for _ in range(rng.randint(0, 4))
        )))
        for _ in range(400)
    }
    by_weight = {}
    for w in words:
        by_weight.setdefault(_weight_by_add(ModuleVector.of(w), DYADIC), []).append(w)
    shared = [ws for ws in by_weight.values() if len(ws) > 1]
    assert len(shared) > 20
    vecs = [ModuleVector({w: 1 for w in ws}) for ws in shared]
    ordered = sorted(words, key=PBWMonomial.sort_key)
    vecs += [ModuleVector({w: 1 for w in rng.sample(ordered, 3)}) for _ in range(100)]
    integral = PBWMonomial(((Fraction(2), 0), (Fraction(3), 1)))
    vecs += [ModuleVector.zero(), ModuleVector.of(VACUUM), ModuleVector.of(integral)]
    cases = [(vec, DYADIC, False) for vec in vecs]
    # coded results, whose weight sums the int codes of their raw words: a
    # zero result and a sum of two weights read None
    for group in (INTEGERS, DYADIC):
        m = module(_EXPLICIT, group)
        for _ in range(30):
            word = sorted(
                (_corpus_element(rng, group, True), rng.randint(-1, 3))
                for _ in range(rng.randint(0, 4))
            )
            g = Generator(_corpus_element(rng, group, False), rng.randint(-1, 3))
            out = m.act(g, m.vector(word))
            cases += [(out, group, True), (out + m.act(g, m.act(g, m.vector(word))), group, True)]
        p = _ONE_WORD[group][0][0]
        zero = m.act(Generator(p, 0), m.vacuum())
        mixed = m.act(Generator(group.neg(p), 0), m.vacuum()) + m.act(
            Generator(group.scale(-2, p), 0), m.vacuum()
        )
        assert not zero and mixed and mixed.weight(group) is None
        cases += [(zero, group, True), (mixed, group, True)]
    kinds = set()
    for vec, group, result in cases:
        got, want = vec.weight(group), _weight_by_add(vec, group)
        assert got == want and type(got) is type(want)
        kinds.add((group.name, result, None if got is None else got.denominator == 1))
        assert vec.to_json(group)["weight"] == (None if want is None else element_json(want))
    assert {k for k in kinds if k[0] == "dyadic"} == {
        ("dyadic", result, kind) for result in (False, True) for kind in (None, True, False)
    }
    assert {k for k in kinds if k[0] == "integers"} == {("integers", True, None), ("integers", True, True)}


# -- JSON round trip of module vectors -------------------------------------------

_POSITIVE = {
    "integers": st.integers(1, 4),
    "dyadic": st.builds(lambda n, k: Fraction(n, 2**k), st.integers(1, 24), st.integers(0, 3)),
    "lex-z2": st.one_of(
        st.tuples(st.just(0), st.integers(1, 3)),
        st.tuples(st.integers(1, 2), st.integers(-3, 3)),
    ),
}
_ELEMENT = {
    "integers": st.integers(-4, 4),
    "dyadic": st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-24, 24), st.integers(0, 3)),
    "lex-z2": st.tuples(st.integers(-2, 2), st.integers(-3, 3)),
}
_RATIONALS = st.fractions(max_denominator=9).filter(lambda q: abs(q) < 100)
_JSON_WEIGHT = HighestWeight.explicit([1, Fraction(-1, 2), 3, Fraction(2, 3), -2], Fraction(5, 4))


@st.composite
def _vector_and_symbol(draw):
    group = draw(st.sampled_from([INTEGERS, DYADIC, LEX_Z2]))
    words = st.lists(
        st.tuples(_POSITIVE[group.name], st.integers(-1, 3)), max_size=3
    ).map(lambda fs: PBWMonomial(tuple(sorted(fs))))
    coeff = _RATIONALS
    if group is LEX_Z2:
        coeff = st.one_of(_RATIONALS, st.lists(_RATIONALS, max_size=3).map(Poly))
    vec = ModuleVector(draw(st.dictionaries(words, coeff, max_size=3)))
    sym = draw(st.one_of(st.just(CENTRAL), st.builds(Generator, _ELEMENT[group.name], st.integers(-1, 3))))
    return group, vec, sym


@given(_vector_and_symbol())
@example(
    (
        DYADIC,
        ModuleVector(
            {
                PBWMonomial(((Fraction(3, 8), 1), (Fraction(1, 2), 0))): Fraction(3, 2),
                PBWMonomial(((Fraction(5, 4), -1),)): Fraction(-1),
            }
        ),
        Generator(Fraction(-7, 8), 1),
    )
)
def test_module_vector_json_roundtrip_property(case):
    group, vec, sym = case
    out = module(_JSON_WEIGHT, group).act(sym, vec)
    for v in (vec, out):
        back = ModuleVector.from_json(v.to_json(group), group)
        assert back == v
        again = ModuleVector.from_json(back.to_json(group), group)
        assert again.to_json(group) == back.to_json(group)


_ONE_WORD = {INTEGERS: [(1, 0)], DYADIC: [(Fraction(1, 2), 0)], LEX_Z2: [((0, 1), 0)]}


@pytest.mark.parametrize("group", [INTEGERS, DYADIC, LEX_Z2], ids=lambda g: g.name)
def test_equal_vectors_serialize_alike(group):
    # one value as an int, a Fraction and, over lex-z2, a constant Q[w]
    # coefficient: equal vectors write equal bytes, and a round trip
    # through JSON writes them again unchanged
    m = module(_JSON_WEIGHT, group)
    word = m.monomial(_ONE_WORD[group])
    forms = [-6, Fraction(-6), Fraction(-3, 2)]
    if group is LEX_Z2:
        forms += [Poly([-6]), Poly([Fraction(-3, 2)])]
    vectors = [ModuleVector.of(word, c) for c in forms]
    if group is LEX_Z2:
        # an action that leaves a constant Q[w] coefficient, next to the
        # same value as an int
        out = m.act(Generator((0, 1), 0), m.vector([((0, 1), 0), ((0, 1), 0)]))
        ((_, c),) = out.items()
        assert isinstance(c, Poly) and c.degree == 0
        vectors += [out, ModuleVector.of(word, c.coefficient(0))]
    by_value = {}
    for v in vectors:
        data = v.to_json(group)
        by_value.setdefault(v, set()).add(json.dumps(data))
        assert ModuleVector.from_json(data, group).to_json(group) == data
    assert len(by_value) >= 2 and all(len(texts) == 1 for texts in by_value.values())


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"terms": 3},
        {"terms": [{"factors": [[1, 0]]}]},
        {"terms": [{"factors": [[1, 0, 2]], "coeff": "1"}]},
        {"terms": [{"factors": [[2, 0], [1, 0]], "coeff": "1"}]},  # not normal-ordered
        {"terms": [{"factors": [[1, 1], [1, 0]], "coeff": "1"}]},  # indices fall in a run
        {"terms": [{"factors": [[0, 0]], "coeff": "1"}]},  # part not positive
        {"terms": [{"factors": [[1, -2]], "coeff": "1"}]},
        {"terms": [{"factors": [[1, 0.0]], "coeff": "1"}]},
        {"terms": [{"factors": [[1.0, 0]], "coeff": "1"}]},
        {"terms": [{"factors": [[1, 0]], "coeff": 0.5}]},
        {"weight": -2, "terms": [{"factors": [[1, 0]], "coeff": "1"}]},
    ],
)
def test_module_vector_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        ModuleVector.from_json(data, INTEGERS)


def test_module_vector_from_json_reads_written_input():
    data = {"terms": [{"factors": [["1/2", 0], ["1/2", 0]], "coeff": "2"}]}
    assert ModuleVector.from_json(data, DYADIC) == ModuleVector.of(
        PBWMonomial(((Fraction(1, 2), 0), (Fraction(1, 2), 0))), 2
    )


@pytest.mark.parametrize(
    "text, group", [("0.5", DYADIC), ("1_000", DYADIC), ("1_000", INTEGERS)]
)
def test_module_vector_from_json_refuses_decimal_parts(text, group):
    data = {"terms": [{"factors": [[text, 0]], "coeff": "1"}]}
    with pytest.raises(ValueError):
        ModuleVector.from_json(data, group)


def test_module_vector_from_json_reads_written_parts():
    for text, group, part in (
        ("3/2^3", DYADIC, Fraction(3, 8)),
        ("(1,-5)", LEX_Z2, (1, -5)),
    ):
        data = {"terms": [{"factors": [[text, 0]], "coeff": "1"}]}
        assert ModuleVector.from_json(data, group) == ModuleVector.of(
            PBWMonomial(((part, 0),)), 1
        )


def test_lie_elements_and_module_vectors_never_compare_equal():
    # the shared sparse-combination base compares objects of one class only
    assert LieElement.zero() != ModuleVector.zero()
    assert ModuleVector.zero() != LieElement.zero()
    assert LieElement.zero() == LieElement.zero()
    assert ModuleVector.zero() == ModuleVector.zero()


# -- weight space enumeration --------------------------------------------------


def test_weight_basis_examples():
    m = module()
    assert [str(x) for x in m.weight_basis(-1, 1)] == [
        "L(-1,-1)*v",
        "L(-1,0)*v",
        "L(-1,1)*v",
    ]
    basis = m.weight_basis(-2, 0)
    assert [str(x) for x in basis] == [
        "L(-2,-1)*v",
        "L(-2,0)*v",
        "L(-1,-1)*L(-1,-1)*v",
        "L(-1,-1)*L(-1,0)*v",
        "L(-1,0)*L(-1,0)*v",
    ]
    assert m.weight_basis(0, 5) == [PBWMonomial(())]
    with pytest.raises(ValueError):
        m.weight_basis(1, 2)


def test_weight_basis_rejects_vacuous_horizon():
    m = module()
    with pytest.raises(ValueError, match="max_index must be >= -1"):
        m.weight_basis(-2, -3)
    with pytest.raises(ValueError, match="max_parts must be >= 0"):
        m.weight_basis(-2, 0, max_parts=-1)
    with pytest.raises(ValueError, match="max_index must be >= -1"):
        m.weight_basis(0, -2)  # refused at weight zero too
    assert m.weight_basis(-1, -1) == [PBWMonomial(((1, -1),))]
    assert m.weight_basis(0, 0, max_parts=0) == [PBWMonomial(())]
    assert module(group=LEX_Z2).weight_basis((0, -1), 0, parts=[(0, 1)], max_parts=0) == []


# horizons that are not ints: floats, integral or not, bools, strings and
# integral fractions are refused, never truncated or read as 0 and 1
_NOT_INTS = [1.5, 2.0, True, False, "2", Fraction(2)]


@pytest.mark.parametrize("bad", _NOT_INTS, ids=repr)
def test_weight_basis_refuses_a_max_index_that_is_not_an_int(bad):
    for mu in (-2, 0):
        with pytest.raises(ValueError, match="max_index must be an integer, not"):
            module().weight_basis(mu, bad)


@pytest.mark.parametrize("bad", _NOT_INTS, ids=repr)
def test_weight_basis_refuses_max_parts_that_is_not_an_int(bad):
    with pytest.raises(ValueError, match="max_parts must be an integer, not"):
        module().weight_basis(-2, 1, max_parts=bad)
    with pytest.raises(ValueError, match="max_parts must be an integer, not"):
        module(group=LEX_Z2).weight_basis((0, -2), 1, parts=[(0, 1)], max_parts=bad)


def _reference_weight_basis(m, mu, max_index, parts=None, max_parts=None):
    """A recursive reference for ``weight_basis``: part sequences by
    depth-first search, then the index choices of each run of equal
    parts."""
    g = m.group
    if g.compare(mu, g.zero()) == 0:
        return [VACUUM]
    target = g.neg(mu)
    if parts is None:
        parts = list(range(1, target + 1))
    parts = sorted(set(parts))
    sequences = []

    def dfs(remaining, start, chosen):
        if remaining == g.zero():
            sequences.append(tuple(chosen))
            return
        if max_parts is not None and len(chosen) >= max_parts:
            return
        for k in range(start, len(parts)):
            p = parts[k]
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
            list(itertools.combinations_with_replacement(idx_range, r)) for _, r in runs
        ]
        for pick in itertools.product(*choices):
            factors = []
            for (p, _), idxs in zip(runs, pick):
                factors.extend((p, i) for i in idxs)
            out.append(PBWMonomial(tuple(factors)))
    out.sort(key=PBWMonomial.sort_key)
    return out


def _weight_basis_cases():
    """Seeded catalogs; each weight is minus a sum of 1-4 catalog parts, so
    most weight spaces are not empty."""
    rng = random.Random(17)
    cases = [(INTEGERS, -mu, i, None, None) for mu in range(0, 8) for i in (-1, 0, 2, 3)]
    cases.append((INTEGERS, -4, 5, None, None))
    pools = (
        (INTEGERS, list(range(1, 7))),
        (DYADIC, [Fraction(n, 8) for n in range(1, 17)]),
        (LEX_Z2, [(0, 1), (0, 2), (0, 3), (1, -3), (1, -1), (1, 0), (1, 2)]),
    )
    for group, pool in pools:
        for _ in range(8):
            parts = rng.sample(pool, rng.randint(1, 4))
            total = group.zero()
            for _ in range(rng.randint(1, 4)):
                total = group.add(total, rng.choice(parts))
            max_parts = rng.choice([1, 2, 3, 5])
            if group is not LEX_Z2 and rng.random() < 0.5:
                max_parts = None
            cases.append((group, group.neg(total), rng.randint(-1, 2), parts, max_parts))
    return cases


@pytest.mark.parametrize("group, mu, max_index, parts, max_parts", _weight_basis_cases())
def test_weight_basis_matches_the_recursive_reference(group, mu, max_index, parts, max_parts):
    m = module(group=group)
    got = m.weight_basis(mu, max_index, parts=parts, max_parts=max_parts)
    assert got == _reference_weight_basis(m, mu, max_index, parts, max_parts)


def test_weight_basis_enumerates_past_the_recursion_limit():
    # one part and one index: the only word has 1100 factors, deeper than
    # the interpreter's default recursion limit
    basis = module().weight_basis(-1100, -1, parts=[1])
    assert basis == [PBWMonomial(((1, -1),) * 1100)]


def test_weight_basis_catalog_modes():
    m = module(group=DYADIC)
    basis = m.weight_basis(
        Fraction(-1), 0, parts=[Fraction(1, 2), Fraction(1)]
    )
    # parts: [1], [1/2, 1/2]; indices in {-1, 0}
    assert len(basis) == 2 + 3
    with pytest.raises(ValueError):
        m.weight_basis(Fraction(-1), 0)  # dense instance needs a catalog
    lex = module(group=LEX_Z2)
    with pytest.raises(ValueError):
        lex.weight_basis((0, -2), 0, parts=[(0, 1)])  # needs max_parts
    got = lex.weight_basis((0, -2), 0, parts=[(0, 1), (0, 2)], max_parts=4)
    assert len(got) == 2 + 3


# -- submodule closure ----------------------------------------------------------


def test_submodule_closure_lex_lattice():
    m = module(HighestWeight.explicit([1, 2, 3], 5), LEX_Z2)
    a = (0, 1)
    catalog = [Generator((0, -1), k) for k in (-1, 0)]
    closure = m.submodule_generated([m.vacuum()], catalog, depth=3)
    for weight, vecs in closure.items():
        for v in vecs:
            for mono in v.monomials():
                assert all(p[0] == 0 for p, _ in mono.factors)
    lengths = {
        len(mono.factors)
        for vs in closure.values()
        for v in vs
        for mono in v.monomials()
    }
    assert max(lengths) == 3


def test_zero_weight_proper_submodule():
    # with the zero functional, the closure never returns to weight zero
    m = module(HighestWeight.zero(), INTEGERS)
    catalog = [Generator(-n, k) for n in (1, 2) for k in (-1, 0, 1)]
    closure = m.submodule_generated([m.vacuum()], catalog, depth=3)
    assert closure[0] == [m.vacuum()]
    assert set(closure) == {0, -1, -2, -3, -4, -5, -6}


def test_submodule_empty_catalog():
    m = module()
    seeds = [m.vector([(1, 0)])]
    assert m.submodule_generated(seeds, [], depth=5) == {-1: seeds}


# -- the lattice-killing identity -------------------------------------------------


def test_positive_beyond_lattice_annihilates():
    m = module(HighestWeight.explicit([2, Fraction(1, 2)], 3), LEX_Z2)
    rng = random.Random(4)
    for _ in range(60):
        h = (rng.randint(1, 3), rng.randint(-5, 5))
        k = rng.randint(-1, 4)
        parts = sorted(
            ((0, rng.randint(1, 3)), rng.randint(-1, 4))
            for _ in range(rng.randint(1, 4))
        )
        w = ModuleVector.of(PBWMonomial(tuple(parts)))
        assert m.act(Generator(h, k), w).is_zero()
