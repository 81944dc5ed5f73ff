import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blockalg.groups import (
    DYADIC,
    INTEGERS,
    LEX_Z2,
    GroupError,
    Region,
    get_group,
)
from blockalg.polynomial import Poly

pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


def test_compare_examples():
    assert INTEGERS.compare(3, -1) > 0
    assert LEX_Z2.compare((1, -5), (0, 100)) > 0
    assert DYADIC.compare(Fraction(1, 2), Fraction(3, 4)) < 0


def test_compare_rejects_foreign_elements():
    with pytest.raises(GroupError):
        INTEGERS.compare(1, Fraction(1, 2))
    with pytest.raises(GroupError):
        DYADIC.compare(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(GroupError):
        LEX_Z2.compare((1, 2), 3)


def test_translation_invariance_sampled():
    rng = random.Random(0)
    for group in (INTEGERS, DYADIC, LEX_Z2):
        for _ in range(1000):
            x, y, z = (group.random_element(rng) for _ in range(3))
            assert group.compare(x, y) == group.compare(
                group.add(x, z), group.add(y, z)
            )


@given(pairs, pairs, pairs)
def test_lex_translation_invariance(x, y, z):
    assert LEX_Z2.compare(x, y) == LEX_Z2.compare(LEX_Z2.add(x, z), LEX_Z2.add(y, z))


def test_trichotomy():
    rng = random.Random(1)
    for group in (INTEGERS, DYADIC, LEX_Z2):
        for _ in range(300):
            x, y = group.random_element(rng), group.random_element(rng)
            signs = [group.compare(x, y) < 0, x == y, group.compare(x, y) > 0]
            assert signs.count(True) == 1


def test_classification_catalog():
    assert str(INTEGERS.classify()) == "discrete, a=1"
    assert DYADIC.classify().dense
    assert LEX_Z2.classify().least_positive == (0, 1)


def test_discrete_least_positive_property():
    rng = random.Random(2)
    for group in (INTEGERS, LEX_Z2):
        a = group.classification().least_positive
        for _ in range(1000):
            x = group.random_element(rng)
            if group.is_positive(x):
                assert group.compare(x, a) >= 0


def test_decompose_examples():
    a = (0, 1)
    assert LEX_Z2.decompose(a, (1, -5)) is Region.ABOVE
    assert LEX_Z2.decompose(a, (0, 7)) is Region.MULTIPLE
    assert LEX_Z2.decompose(a, (-1, 100)) is Region.BELOW
    assert INTEGERS.decompose(1, 12345) is Region.MULTIPLE


def test_decompose_partitions():
    rng = random.Random(3)
    for _ in range(500):
        x = LEX_Z2.random_element(rng)
        r = LEX_Z2.decompose((0, 1), x)
        mirror = LEX_Z2.decompose((0, 1), LEX_Z2.neg(x))
        assert (r is Region.ABOVE) == (mirror is Region.BELOW)
        assert (r is Region.MULTIPLE) == (mirror is Region.MULTIPLE)


def test_decompose_errors():
    with pytest.raises(GroupError):
        DYADIC.decompose(Fraction(1), Fraction(1, 2))
    with pytest.raises(GroupError):
        LEX_Z2.decompose((0, 2), (1, 1))


def test_scalarize():
    assert INTEGERS.scalarize(3) == Fraction(3)
    assert DYADIC.scalarize(Fraction(3, 4)) == Fraction(3, 4)
    # (m, n) maps to n + m*w: the first coordinate rides the infinite unit
    assert LEX_Z2.scalarize((2, -5)) == Poly([-5, 2])


def test_get_group():
    assert get_group("lex-z2") is LEX_Z2
    with pytest.raises(GroupError):
        get_group("reals")
