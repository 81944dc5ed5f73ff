"""Pins of the exact coefficient representation.

Integer and dyadic straightening runs in Python ``int`` and makes an
output a ``Fraction`` only where its value is not integral; over the
lex-z2 instance a coefficient turns to ``Poly`` where w-arithmetic
enters.
These tests pin what that must not change: the serialized results, the
equality and hashing of mixed int/Fraction values, and the absence of
floats.
"""

import hashlib
import json
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from blockalg.groups import DYADIC, INTEGERS, LEX_Z2
from blockalg.lie import CENTRAL, BlockAlgebra, Generator, LieElement
from blockalg.polynomial import Poly
from blockalg.verma import HighestWeight, PBWMonomial, VermaModule

GROUPS = (INTEGERS, DYADIC, LEX_Z2)

# SHA-256 of the canonical JSON of _seeded_results(), computed with every
# coefficient still a Fraction; any "3" vs "3/1" drift changes it.  A
# constant Q[w] coefficient over lex-z2 is written "p/q" like a rational
# one (nine strings of this list, such as "-6/1", were "-6" before)
GOLDEN_SHA256 = "2a18829c6c99c46f6c607dc206958ff76e7e62d71cb43a4005f3b06553d609c0"


def _rat(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _seeded_values():
    """(value, group) pairs: seeded act, act_element and bracket results."""
    rng = random.Random(20051103)
    out = []
    for group in GROUPS:
        alg = BlockAlgebra(group)
        for k in range(16):
            hw = HighestWeight.explicit([_rat(rng) for _ in range(10)], _rat(rng))
            module = VermaModule(alg, hw)
            word = sorted(
                (group.random_positive(rng, 3), rng.randint(-1, 3)) for _ in range(k % 4)
            )
            vec = module.vector(word)
            # an integral Fraction, a fractional and (lex-z2) a Poly input coefficient
            vec = vec.scaled(Fraction(rng.randint(1, 4))) + module.vacuum().scaled(_rat(rng))
            if group is LEX_Z2:
                vec = vec + module.vacuum().scaled(group.scalarize(group.random_element(rng, 3)))
            sym = Generator(group.random_element(rng, 3), rng.randint(-1, 3))
            out.append((module.act(sym, vec), group))
            out.append((module.act(CENTRAL, vec), group))
            elem = alg.bracket_basis(
                Generator(group.random_element(rng, 3), rng.randint(-1, 2)),
                Generator(group.random_element(rng, 3), rng.randint(-1, 2)),
            )
            elem = elem + LieElement.term(
                Generator(group.random_element(rng, 3), rng.randint(-1, 2)), _rat(rng)
            )
            out.append((elem, group))
            out.append((module.act_element(elem, vec), group))
    return out


def _seeded_results():
    return [value.to_json(group) for value, group in _seeded_values()]


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_seeded_action_json_is_pinned():
    assert _digest(_seeded_results()) == GOLDEN_SHA256


def test_no_float_among_coefficients():
    seen = set()
    for value, _ in _seeded_values():
        for _, c in value.items():
            seen.add(type(c))
            if isinstance(c, Poly):
                assert all(type(x) in (int, Fraction) for x in c.coeffs)
            else:
                assert type(c) in (int, Fraction)
    assert seen == {int, Fraction, Poly}


def test_integral_straightening_stays_int():
    # structure constants over Z and an integral input: no Fraction enters
    module = VermaModule(BlockAlgebra(INTEGERS), HighestWeight.explicit([1, 2], 3))
    vec = module.vector([(1, 0), (2, 1)])
    out = module.act(Generator(-1, 2), vec)
    assert out and all(type(c) is int for _, c in out.items())
    # an integer or dyadic output is an int exactly when its value is
    # integral, whether a label, the central charge, an input denominator
    # or the dyadic scale went into it, and a Fraction otherwise
    half, third = Fraction(1, 2), Fraction(1, 3)
    hw = HighestWeight.explicit([1, 2, third], half)
    for group, a, values in (
        (INTEGERS, 1, [-4, -1, Fraction(-1, 3), half, 2, 2]),
        (DYADIC, Fraction(1), [-4, -1, Fraction(-1, 3), half, 2, 2]),
        (DYADIC, Fraction(3, 4), [-3, Fraction(-3, 4), Fraction(-1, 4), Fraction(3, 8), 1 + half, 2]),
    ):
        module = VermaModule(BlockAlgebra(group), hw)
        got = []
        for sym, index, c in (
            (Generator(a, 0), 0, 1),                # -2a * label(1)
            (Generator(a, 1), 0, 1),                # -3a * label(2), label(2) = 1/3
            (Generator(a, 1), 0, third),
            (Generator(a, -1), -1, 1),              # the central term a * cc
            (Generator(a, -1), -1, 4),
            (Generator(-a, 0), 0, Fraction(4, 2)),  # an integral Fraction input
        ):
            (x,) = [x for _, x in module.act(sym, module.vector([(a, index)]).scaled(c)).items()]
            assert type(x) is (int if x.denominator == 1 else Fraction)
            got.append(x)
        assert got == values


def test_int_and_fraction_polys_agree():
    a, b = Poly([1, 2]), Poly([Fraction(1), Fraction(2)])
    assert a == b and hash(a) == hash(b)
    assert a.format("w") == b.format("w") == "2*w + 1"
    assert Poly([3]) == 3 and hash(Poly([3])) == hash(3) == hash(Fraction(3))
    assert hash(Poly()) == hash(0)
    assert Poly([1, 2]) * Fraction(1, 2) == Poly([Fraction(1, 2), 1])
    assert Poly([1, 2]) + Poly([0, -2]) == Poly([1]) and (Poly([0, 2]) - Poly([0, 2])).degree == -1


def test_pbw_monomial_hash_is_cached_and_word_immutable():
    a = PBWMonomial(((1, 0), (2, -1)))
    b = PBWMonomial(((Fraction(1), 0), (2, -1)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "PBWMonomial(factors=((1, 0), (2, -1)))"
    with pytest.raises(FrozenInstanceError):
        a.factors = ()
