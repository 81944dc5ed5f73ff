import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blockalg.groups import DYADIC, INTEGERS, LEX_Z2
from blockalg.lie import (
    CENTRAL,
    BlockAlgebra,
    Generator,
    LieElement,
    PolyForm,
    element_from_json,
)
from blockalg.polynomial import Poly, X, x_power
from blockalg.verma import VACUUM, ModuleVector

alg = BlockAlgebra(INTEGERS)


def L(a, i, coeff=1):
    return LieElement.term(Generator(a, i), Fraction(coeff))


def test_generator_index_invariant():
    with pytest.raises(ValueError):
        Generator(1, -2)


def test_bracket_examples():
    assert alg.bracket_basis(Generator(1, 0), Generator(-1, 0)) == L(0, 0, -2)
    assert not alg.bracket_basis(Generator(3, 2), Generator(3, 2))
    assert alg.bracket_basis(Generator(1, -1), Generator(-1, -1)) == LieElement.term(
        CENTRAL
    )
    # the weight-zero modes commute
    assert not alg.bracket_basis(Generator(0, 3), Generator(0, 7))


def test_bracket_with_central_vanishes():
    rng = random.Random(0)
    for _ in range(50):
        g = Generator(rng.randint(-5, 5), rng.randint(-1, 5))
        assert not alg.bracket_basis(g, CENTRAL)
        assert not alg.bracket_basis(CENTRAL, g)


def test_bilinearity_examples():
    assert not alg.bracket(LieElement.zero(), L(1, 0))
    assert alg.bracket(L(1, 0, 2), L(-1, 0, 3)) == L(0, 0, -12)
    e = L(1, 0) + LieElement.term(CENTRAL)
    assert alg.bracket(e, L(-1, 0)) == L(0, 0, -2)


def test_bilinearity_random():
    rng = random.Random(1)
    for _ in range(100):
        a = Generator(rng.randint(-4, 4), rng.randint(-1, 4))
        b = Generator(rng.randint(-4, 4), rng.randint(-1, 4))
        c = Generator(rng.randint(-4, 4), rng.randint(-1, 4))
        x, y = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        lhs = alg.bracket(x * LieElement.term(a) + y * LieElement.term(b), LieElement.term(c))
        rhs = x * alg.bracket_basis(a, c) + y * alg.bracket_basis(b, c)
        assert lhs == rhs


def test_grading_of_brackets():
    rng = random.Random(2)
    for _ in range(200):
        a = Generator(rng.randint(-4, 4), rng.randint(-1, 4))
        b = Generator(rng.randint(-4, 4), rng.randint(-1, 4))
        br = alg.bracket_basis(a, b)
        for sym, _ in br.items():
            assert (0 if sym is CENTRAL else sym.alpha) == a.alpha + b.alpha


def test_from_poly_examples():
    # x^2 (t^3 - 1) and the bare coordinate x
    assert alg.from_poly(PolyForm(2, x_power(3) - 1)) == L(2, 2) + L(2, -1, -1)
    assert alg.from_poly(PolyForm(1, Poly([1]))) == L(1, -1)


def test_poly_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        forms = [
            PolyForm(
                alpha,
                Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))]),
            )
            for alpha in rng.sample(range(-6, 7), rng.randint(1, 3))
        ]
        forms = [f for f in forms if f.poly]
        e = LieElement.zero()
        for f in forms:
            e = e + alg.from_poly(f)
        # L(alpha, i) carries the coefficient of t^(i+1) in the form at alpha
        back = {}
        for sym, c in e.items():
            back.setdefault(sym.alpha, {})[sym.index + 1] = c
        assert back == {f.alpha: {n: c for n, c in enumerate(f.poly.coeffs) if c} for f in forms}


def test_realization_needs_integers():
    dalg = BlockAlgebra(DYADIC)
    with pytest.raises(ValueError):
        dalg.from_poly(PolyForm(Fraction(1, 2), X))


def test_realization_bracket_agrees():
    rng = random.Random(4)
    pairs = [(rng.randint(-6, 6), rng.randint(-1, 6), rng.randint(-6, 6), rng.randint(-1, 6))
             for _ in range(500)]
    # the central term needs opposite weights at index -1, which the random
    # pairs almost never draw: [L(a,-1), L(-a,-1)] = a*c
    central = [(a, -1, -a, -1) for a in range(-6, 7) if a]
    for a, i, b, j in pairs + central:
        lhs = alg.bracket_basis(Generator(a, i), Generator(b, j))
        rhs = alg.realization_bracket(
            PolyForm(a, x_power(i + 1)), PolyForm(b, x_power(j + 1))
        )
        assert lhs == rhs
        if (a, i, b, j) in central:
            assert dict(lhs.items())[CENTRAL] == dict(rhs.items())[CENTRAL] == a


def test_lex_bracket_coefficients_live_in_the_extension():
    lalg = BlockAlgebra(LEX_Z2)
    br = lalg.bracket_basis(Generator((1, 0), 0), Generator((0, 1), 0))
    (sym, coeff), = br.items()
    assert sym == Generator((1, 1), 0)
    # (i+1)b - (j+1)a = (0,1) - (1,0) = (-1,1) -> 1 - w
    assert coeff == Poly([1, -1])


def test_element_json_roundtrip():
    rng = random.Random(5)
    for group in (INTEGERS, DYADIC, LEX_Z2):
        for _ in range(100):
            terms = {
                Generator(group.random_element(rng, 6), rng.randint(-1, 6)): Fraction(
                    rng.randint(-9, 9), rng.randint(1, 9)
                )
                for _ in range(rng.randint(0, 4))
            }
            if rng.random() < 0.3:
                terms[CENTRAL] = Fraction(rng.randint(1, 5))
            e = LieElement(terms)
            assert LieElement.from_json(e.to_json(group), group) == e


def test_lex_json_roundtrip_of_polynomial_coefficients():
    lalg = BlockAlgebra(LEX_Z2)
    e = lalg.bracket(
        LieElement.term(Generator((1, 2), 1)), LieElement.term(Generator((0, 1), 0))
    )
    assert [d["coeff"] for d in e.to_json(LEX_Z2)] == ["-w"]
    e = e + LieElement.term(Generator((0, 1), 2), Poly([Fraction(-3, 2), 0, 2]))
    back = LieElement.from_json(e.to_json(LEX_Z2), LEX_Z2)
    assert back == e and hash(back) == hash(e)


_ELEMENTS = {
    "integers": st.integers(-6, 6),
    "dyadic": st.builds(
        lambda n, k: Fraction(n, 2**k), st.integers(-48, 48), st.integers(0, 3)
    ),
    "lex-z2": st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
}
_RATIONALS = st.fractions(max_denominator=9).filter(lambda q: abs(q) < 100)


@st.composite
def _group_and_element(draw):
    group = draw(st.sampled_from([INTEGERS, DYADIC, LEX_Z2]))
    coeff = _RATIONALS
    if group is LEX_Z2:
        coeff = st.one_of(_RATIONALS, st.lists(_RATIONALS, max_size=4).map(Poly))
    syms = st.one_of(
        st.just(CENTRAL),
        st.builds(Generator, _ELEMENTS[group.name], st.integers(-1, 6)),
    )
    return group, LieElement(draw(st.dictionaries(syms, coeff, max_size=5)))


@given(_group_and_element())
def test_element_json_roundtrip_property(case):
    group, e = case
    back = LieElement.from_json(e.to_json(group), group)
    assert back == e
    assert back.to_json(group) == LieElement.from_json(back.to_json(group), group).to_json(group)


@pytest.mark.parametrize(
    "data, group",
    [(0.5, DYADIC), (2.0, INTEGERS), (True, INTEGERS), ([1.0, 2], LEX_Z2), ([1, 2, 3], LEX_Z2)],
)
def test_element_from_json_rejects_floats(data, group):
    with pytest.raises(ValueError):
        element_from_json(data, group)


@pytest.mark.parametrize(
    "text, group", [("0.5", DYADIC), ("1_000", DYADIC), ("1_000", INTEGERS)]
)
def test_element_strings_refuse_decimals_and_digit_separators(text, group):
    # a JSON string is read by the element grammar of the command line
    with pytest.raises(ValueError):
        element_from_json(text, group)
    with pytest.raises(ValueError):
        LieElement.from_json([{"alpha": text, "i": 0, "coeff": "1"}], group)


def test_element_strings_read_the_written_forms():
    for text, group, alpha in (
        ("3/2^3", DYADIC, Fraction(3, 8)),
        ("(1,-5)", LEX_Z2, (1, -5)),
    ):
        assert element_from_json(text, group) == alpha
        e = LieElement.from_json([{"alpha": text, "i": 0, "coeff": "1"}], group)
        assert e == LieElement.term(Generator(alpha, 0))


def test_element_coefficients_reject_floats():
    with pytest.raises(ValueError):
        LieElement.from_json([{"alpha": 1, "i": 0, "coeff": 0.5}], INTEGERS)
    with pytest.raises(ValueError):
        LieElement.from_json([{"alpha": [1, 0], "i": 0, "coeff": 1.0}], LEX_Z2)
    e = LieElement.from_json([{"alpha": "1/2", "i": 0, "coeff": "3/4"}], DYADIC)
    assert e == LieElement.term(Generator(Fraction(1, 2), 0), Fraction(3, 4))


@pytest.mark.parametrize(
    "data",
    [
        {"alpha": 1, "i": 0, "coeff": "1"},  # not a list
        [3],
        [{"alpha": 1, "i": 0}],
        [{"i": 0, "coeff": "1"}],
        [{"alpha": 1, "i": 2.5, "coeff": "1"}],  # was read as L(1,2)
        [{"alpha": 1, "i": True, "coeff": "1"}],  # was read as L(1,1)
        [{"alpha": 1, "i": "1/2", "coeff": "1"}],
        [{"alpha": 1, "i": -2, "coeff": "1"}],
        [{"alpha": 5, "i": "central", "coeff": "1/1"}],  # was read as c, alpha dropped
        [{"alpha": 0, "i": "central", "coeff": "1"}],
    ],
)
def test_element_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        LieElement.from_json(data, INTEGERS)


def test_element_from_json_reads_string_indices():
    e = LieElement.from_json([{"alpha": 1, "i": "2", "coeff": "1"}], INTEGERS)
    assert e == L(1, 2)


def test_canonical_printing():
    e = L(1, 0) + LieElement.term(CENTRAL, Fraction(2))
    assert str(e) == "L(1,0) + 2*c"
    assert str(L(0, 0, -2)) == "-2*L(0,0)"
    assert str(LieElement.zero()) == "0"
    assert str(L(2, -1, Fraction(-3, 4))) == "-3/4*L(2,-1)"


@pytest.mark.parametrize(
    "other", [ModuleVector.of(VACUUM), ModuleVector.zero(), 1, Fraction(1, 2)], ids=repr
)
def test_element_combines_only_with_elements(other):
    # an element and a module vector or a number neither add nor subtract,
    # in either order: an element plus a vector would be an element keyed
    # by a word, which fails only when printed
    e = L(1, 0) + LieElement.term(CENTRAL, Fraction(2))
    for combine in (lambda: e + other, lambda: e - other, lambda: other + e, lambda: other - e):
        with pytest.raises(TypeError):
            combine()
    assert e != other and other != e


def _reference_sub(a, b):
    """The terms of a - b as built through ``prev - c`` on every shared key."""
    out = dict(a._terms)
    for k, c in b._terms.items():
        prev = out.get(k)
        if prev is None:
            out[k] = -c
            continue
        s = prev - c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def test_difference_matches_subtracting_every_shared_coefficient():
    # equal coefficients cancel without a subtraction; the result must
    # be the same terms, in the same order and of the same types
    values = [
        1, 2, -3, Fraction(1, 2), Fraction(2), Fraction(-3),
        Poly((2,)), Poly((Fraction(1, 2),)), Poly((-3,)), Poly((1, 2)), Poly((Fraction(1, 2), 1)),
    ]
    shared, only_a, only_b = Generator(1, 0), Generator(2, 1), Generator(-1, 3)
    cancelled = 0
    for p in values:
        for c in values:
            a = LieElement({shared: p, only_a: Fraction(5, 3)})
            b = LieElement({only_b: 7, shared: c})
            got = a - b
            ref = _reference_sub(a, b)
            assert [(k, v, type(v)) for k, v in got._terms.items()] == [
                (k, v, type(v)) for k, v in ref.items()
            ]
            assert got == LieElement(ref) and hash(got) == hash(LieElement(ref))
            cancelled += shared not in ref
    # the equal pairs: 2, -3 and 1/2 as int, Fraction or constant Poly in
    # either order, and 1 and the two linear polys against themselves
    assert cancelled == 9 + 9 + 4 + 3
