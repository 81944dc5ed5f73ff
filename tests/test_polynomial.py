from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blockalg import polynomial
from blockalg.polynomial import ONE, Poly, X, x_power

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=16)
polys = st.lists(rationals, max_size=6).map(Poly)


def test_normalization_drops_trailing_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]).degree == -1
    assert not Poly([0])


def test_basic_arithmetic():
    f = X + 1
    assert f * f == Poly([1, 2, 1])
    assert (f - f).degree == -1
    assert 2 * f == Poly([2, 2])
    assert f.shifted(2) == Poly([0, 0, 1, 1])
    assert x_power(3) == X * X * X


def test_derivative_and_eval():
    f = Poly([5, -1, 0, 2])  # 5 - t + 2 t^3
    assert f.derivative() == Poly([-1, 0, 6])
    assert f(Fraction(1, 2)) == Fraction(5) - Fraction(1, 2) + 2 * Fraction(1, 8)
    # composition with a polynomial argument
    assert f(X + 1)(Fraction(0)) == f(Fraction(1))


def test_monic_and_coefficient():
    assert (X + 5).is_monic
    assert not (2 * X + 1).is_monic
    assert (X + 5).coefficient(0) == 5
    assert (X + 5).coefficient(7) == 0


def test_format():
    assert str(X + 1) == "t + 1"
    assert str(Poly([0, -1, 3])) == "3*t^2 - t"
    assert str(Poly()) == "0"
    assert (X - 1).format("w") == "w - 1"


def test_pow_and_shift_reject_negative():
    with pytest.raises(ValueError):
        (X + 1) ** -1
    with pytest.raises(ValueError):
        X.shifted(-1)
    # a negative exponent is not read as 0, nor a bool as an int
    for bad in (-1, -3, True, False, 2.0):
        for build in (lambda: x_power(bad), lambda: X.shifted(bad), lambda: X**bad):
            with pytest.raises(ValueError, match="(exponent|shift) must be"):
                build()
    assert x_power(0) == ONE and X.shifted(0) == X and X**0 == ONE


def test_a_bool_or_float_is_not_a_coefficient():
    # a bool is not a number: Poly([True, 2]) is refused, not read as 2*t + 1
    for coeffs in ([True, 2], [1, False], [1.5], [Fraction(1, 2), 0.5]):
        with pytest.raises(ValueError, match="not an exact rational"):
            Poly(coeffs)
    for bad in (True, 1.0):
        for build in (lambda: X + bad, lambda: bad + X, lambda: X - bad, lambda: bad - X,
                      lambda: X * bad, lambda: bad * X):
            with pytest.raises(TypeError):
                build()
        assert ONE != bad and not (ONE == bad) and not (bad == ONE)
    assert ONE == 1 and ONE == Fraction(1) and Poly() == 0 and X != 0


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
def test_derivative_is_a_derivation(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


# -- the Q[x] tuple functions, against a list-of-Fraction reference ---------

entries = st.one_of(st.integers(-20, 20), rationals)


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


tuples = st.lists(entries, max_size=5).map(_trimmed)
nonzero_tuples = tuples.filter(bool)
# a coefficient of the lex-z2 kernel: a trimmed tuple, or a bare rational
# while no w-arithmetic has touched it
operands = st.one_of(entries, tuples)
nonzero_operands = st.one_of(entries.filter(bool), nonzero_tuples)


def _ref(a):
    """The value of an operand as a trimmed list of Fractions."""
    cs = list(a) if type(a) is tuple else [a]
    return [Fraction(c) for c in _trimmed(cs)]


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return list(_trimmed([x + y for x, y in zip(a, b)]))


def _ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return list(_trimmed(out))


def _check(result, expected, rational):
    """``result`` has the value ``expected``; a tuple is trimmed, and a bare
    rational comes back only from bare rational operands."""
    assert type(result) is not tuple or not result or result[-1] != 0
    assert (type(result) is not tuple) == rational
    assert _ref(result) == expected


@given(operands, operands)
def test_cadd_and_csub_match_the_reference(a, b):
    rational = type(a) is not tuple and type(b) is not tuple
    _check(polynomial.cadd(a, b), _ref_add(_ref(a), _ref(b)), rational)
    _check(polynomial.csub(a, b), _ref_add(_ref(a), [-y for y in _ref(b)]), rational)
    _check(polynomial.cneg(a), [-y for y in _ref(a)], type(a) is not tuple)


@given(nonzero_tuples, nonzero_operands, entries)
def test_products_match_the_reference(c, a, x):
    product = _ref_mul(_ref(c), _ref(a))
    _check(polynomial.tmul(c, a), product, False)
    if len(c) <= 2:
        _check(polynomial.mul(c, a), product, False)
    _check(polynomial.smul(x, a), _ref_mul([Fraction(x)], _ref(a)), type(a) is not tuple)


def test_tuple_functions_on_chosen_cases():
    half = Fraction(1, 2)
    # sums that cancel: to () between tuples, to a rational 0 between rationals
    assert polynomial.cadd((1, half), (-1, -half)) == ()
    assert polynomial.cadd((3,), -3) == () and polynomial.cadd(-3, (3,)) == ()
    assert polynomial.cadd(half, -half) == 0 and type(polynomial.cadd(3, -3)) is int
    assert polynomial.csub((1, 2, half), (1, 2, half)) == ()
    assert polynomial.csub((0, 0, 1), (5, 0, 1)) == (-5,)
    # unequal lengths keep the longer top entry
    assert polynomial.cadd((1,), (0, 0, half)) == (1, 0, half)
    assert polynomial.csub(2, (1, 1)) == (1, -1)
    # tuples of unequal length subtract in one pass, in both orders; the
    # shorter side may cancel all of its entries, never the top one
    assert polynomial.csub((1, 2, half), (1, 2)) == (0, 0, half)
    assert polynomial.csub((1, 2), (1, 2, half)) == (0, 0, -half)
    assert polynomial.csub((4,), (1, 0, 0, 3)) == (3, 0, 0, -3)
    assert polynomial.csub((), (1, half)) == (-1, -half) and polynomial.csub((1, half), ()) == (1, half)
    # a factor of degree at least 2 against a tuple and a bare rational
    assert polynomial.tmul((1, 0, 1), (1, 1)) == (1, 1, 1, 1)
    assert polynomial.tmul((half, 0, 2), Fraction(2, 3)) == (Fraction(1, 3), 0, Fraction(4, 3))
    assert polynomial.mul((2, 1), (1, -1, half)) == (2, -1, 0, half)
    assert polynomial.smul(0, (1, 2)) == () and polynomial.smul(half, 4) == 2
