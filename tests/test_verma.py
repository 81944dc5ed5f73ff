import random
from fractions import Fraction

import pytest

from blockalg.groups import DYADIC, INTEGERS, LEX_Z2
from blockalg.lie import CENTRAL, BlockAlgebra, Generator, LieElement
from blockalg.polynomial import X
from blockalg.reducibility import labels_from_charpoly
from blockalg.verma import (
    HighestWeight,
    ModuleVector,
    PBWMonomial,
    RecurrentLabels,
    StraighteningLimitError,
    VermaModule,
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
        RecurrentLabels(2 * X + 1, [], 1)  # not monic
    with pytest.raises(ValueError):
        RecurrentLabels(X + 1, [Fraction(1)], 1)  # too many initial labels


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
    ],
)
def test_highest_weight_json_rejects_floats_and_bad_shapes(data):
    with pytest.raises(ValueError):
        HighestWeight.from_json(data)


def test_highest_weight_json_accepts_ints_and_ratio_strings():
    hw = HighestWeight.from_json({"central_charge": "-3/4", "explicit": [2, "1/3", "-5"]})
    assert hw.central_charge == Fraction(-3, 4)
    assert [hw.label(i) for i in range(4)] == [2, Fraction(1, 3), -5, 0]


# -- zero modes --------------------------------------------------------------


def test_zero_mode_examples():
    m = module()
    assert m.zero_mode(Generator(0, -1)) == 1
    assert m.zero_mode(Generator(0, 0)) == Fraction(-1, 2)
    assert m.zero_mode(CENTRAL) == 1
    with pytest.raises(ValueError):
        m.zero_mode(Generator(1, 0))


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


def test_step_budget_guard():
    m = VermaModule(ALG, HW, step_budget=3)
    with pytest.raises(StraighteningLimitError):
        m.act(Generator(2, 1), m.vector([(1, 0), (1, 1), (2, 0)]))


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
