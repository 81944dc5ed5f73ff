import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blockalg.exprparse import (
    ParseError,
    parse_element,
    parse_group_element,
    parse_pair,
    parse_vector,
)
from blockalg.groups import DYADIC, INTEGERS, LEX_Z2
from blockalg.lie import CENTRAL, Generator, LieElement
from blockalg.verma import ModuleVector, PBWMonomial


def L(a, i, coeff=1):
    return LieElement.term(Generator(a, i), Fraction(coeff))


def test_grammar_examples():
    assert parse_element("L(1,0) + 2*c", INTEGERS) == L(1, 0) + LieElement.term(
        CENTRAL, Fraction(2)
    )
    assert parse_element("x^2*(t^3-1)", INTEGERS) == L(2, 2) + L(2, -1, -1)
    with pytest.raises(ParseError, match="index must be >= -1"):
        parse_element("L(1,-2)", INTEGERS)


def test_whitespace_insensitive():
    a = parse_element("  L( 1 , 0 )+ 2 * c ", INTEGERS)
    b = parse_element("L(1,0)+2*c", INTEGERS)
    assert a == b


def test_coefficients_and_signs():
    assert parse_element("-L(1,0)", INTEGERS) == L(1, 0, -1)
    assert parse_element("3/4*L(2,-1) - c", INTEGERS) == L(2, -1, Fraction(3, 4)) + (
        LieElement.term(CENTRAL, Fraction(-1))
    )
    assert parse_element("0", INTEGERS) == LieElement.zero()
    assert parse_element("2*3*L(1,1)", INTEGERS) == L(1, 1, 6)


def test_group_element_forms():
    assert parse_element("L(1/2,0)", DYADIC) == LieElement.term(
        Generator(Fraction(1, 2), 0)
    )
    assert parse_element("L(3/2^2,1)", DYADIC) == LieElement.term(
        Generator(Fraction(3, 4), 1)
    )
    assert parse_element("L((1,-5),3)", LEX_Z2) == LieElement.term(
        Generator((1, -5), 3)
    )
    with pytest.raises(ParseError):
        parse_element("L(1/2,0)", INTEGERS)
    with pytest.raises(ParseError):
        parse_element("L(1/3,0)", DYADIC)


def test_x_form_variants():
    assert parse_element("x", INTEGERS) == L(1, -1)
    assert parse_element("x^-2", INTEGERS) == L(-2, -1)
    assert parse_element("t^2", INTEGERS) == L(0, 1)
    assert parse_element("2*x^3*t", INTEGERS) == L(3, 0, 2)
    assert parse_element("x*(t+1)", INTEGERS) == L(1, 0) + L(1, -1)
    with pytest.raises(ParseError):
        parse_element("x*(t+1)", DYADIC)


def test_error_positions_and_messages():
    with pytest.raises(ParseError, match="position"):
        parse_element("L(1,0) + @", INTEGERS)
    with pytest.raises(ParseError, match="basis symbol"):
        parse_element("5", INTEGERS)
    with pytest.raises(ParseError, match="more than one"):
        parse_element("L(1,0)*c", INTEGERS)
    with pytest.raises(ParseError, match="expected"):
        parse_element("L(1,0) L(2,0)", INTEGERS)
    with pytest.raises(ParseError):
        parse_element("", INTEGERS)


def test_error_message_quotes_a_bounded_window():
    # a short input is quoted whole; a long one by the characters around
    # the position, cut marks and its length
    with pytest.raises(ParseError) as exc:
        parse_element("L(1,0) + @", INTEGERS)
    assert str(exc.value) == "at position 9: unexpected character (in 'L(1,0) + @')"
    for text in (
        "L(1,0)" + " + L(1,0)" * 500 + " + @",
        "@" + " + L(1,0)" * 500,
        "L(1,0)" + " + L(1,0)" * 250 + " @ " + " + L(1,0)" * 250,
    ):
        pos = text.index("@")
        with pytest.raises(ParseError) as exc:
            parse_element(text, INTEGERS)
        message = str(exc.value)
        assert exc.value.pos == pos and message.startswith(f"at position {pos}: ")
        assert f", {len(text)} characters)" in message and len(message) < 150
        assert repr(text[max(0, pos - 30):pos + 30]) in message
        assert message.count("...") == (pos > 30) + (pos + 30 < len(text))


def test_print_parse_roundtrip_elements():
    rng = random.Random(0)
    for group in (INTEGERS, DYADIC, LEX_Z2):
        for _ in range(334):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                sym = (
                    CENTRAL
                    if rng.random() < 0.1
                    else Generator(group.random_element(rng, 6), rng.randint(-1, 6))
                )
                terms[sym] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            e = LieElement(terms)
            assert parse_element(str(e), group) == e


def test_print_parse_roundtrip_vectors():
    rng = random.Random(1)
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            parts = tuple(
                sorted((rng.randint(1, 4), rng.randint(-1, 4)) for _ in range(rng.randint(0, 3)))
            )
            terms[PBWMonomial(parts)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        v = ModuleVector(terms)
        assert parse_vector(str(v), INTEGERS) == v


def test_vector_grammar():
    v = parse_vector("L(-1,-1)*L(-1,0)*v", INTEGERS)
    assert v == ModuleVector.of(PBWMonomial(((1, -1), (1, 0))))
    assert parse_vector("v", INTEGERS) == ModuleVector.of(PBWMonomial(()))
    assert parse_vector("2*v - v", INTEGERS) == ModuleVector.of(PBWMonomial(()))
    with pytest.raises(ParseError, match="normal-ordered"):
        parse_vector("L(-1,0)*L(-1,-1)*v", INTEGERS)
    with pytest.raises(ParseError, match="negative weight"):
        parse_vector("L(1,0)*v", INTEGERS)
    with pytest.raises(ParseError, match="'v'"):
        parse_vector("L(-1,0)", INTEGERS)


def test_vector_words_pass_the_one_word_gate():
    # the order check is normal_word's; the error points at the word
    with pytest.raises(ParseError, match="normal-ordered") as exc:
        parse_vector("v + 2*L(-2,0)*L(-1,3)*v", INTEGERS)
    assert exc.value.pos == 6
    with pytest.raises(ParseError, match="normal-ordered"):
        parse_vector("L(-1/2,1)*L(-1/2,0)*v", DYADIC)
    with pytest.raises(ParseError, match="negative weight") as exc:
        parse_vector("L(-1,0)*L(0,1)*v", INTEGERS)
    assert exc.value.pos == 8
    assert parse_vector("L(-1,0)*L(-1,0)*L(-2,-1)*v", INTEGERS) == ModuleVector.of(
        PBWMonomial(((1, 0), (1, 0), (2, -1)))
    )


def test_parse_forms():
    assert parse_group_element("-7", INTEGERS) == -7
    assert parse_group_element("3/4", DYADIC) == Fraction(3, 4)
    assert parse_group_element("3/2^3", DYADIC) == Fraction(3, 8)
    assert parse_group_element("(1,-5)", LEX_Z2) == (1, -5)
    with pytest.raises(ValueError):
        parse_group_element("1/3", DYADIC)
    with pytest.raises(ValueError):
        parse_group_element("1/2", INTEGERS)


def test_parse_pair():
    assert parse_pair("3/4,2", DYADIC) == (Fraction(3, 4), 2)
    assert parse_pair(" (1,-5) , -1 ", LEX_Z2) == ((1, -5), -1)
    for text, message in (
        ("1", "expected ','"),
        ("1,1_0", "unexpected character"),
        ("1,-2", "index must be >= -1"),
        ("1,2,3", "trailing"),
        ("1,1/2", "trailing"),
        ("", "empty"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_pair(text, INTEGERS)


def test_parse_group_element_trailing():
    assert parse_group_element("-3", INTEGERS) == -3
    with pytest.raises(ParseError, match="trailing"):
        parse_group_element("3 4", INTEGERS)


@given(st.text(max_size=12))
def test_parser_never_crashes_unexpectedly(text):
    try:
        parse_element(text, INTEGERS)
    except ParseError:
        pass
    except ValueError:
        pass
