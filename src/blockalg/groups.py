"""Catalogued ordered grading groups.

The grading group carries a translation-invariant total order.  Three
instances are catalogued: the integers, the dyadic rationals (dense
order) and the rank-two lattice ordered lexicographically (discrete order
whose step lattice is a proper subgroup).  Elements are plain hashable
Python values -- ``int``, ``Fraction``, ``(int, int)`` -- whose native
comparison realizes the group order, so they sort and dict-key directly.

Density and discreteness are declared per instance, never inferred from a
black-box comparison (that is undecidable in general); ``classify`` backs
the declared verdict with a sampling sanity check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from .polynomial import Poly


class GroupError(ValueError):
    """Element does not belong to the instance, or the usage is invalid."""


class Region(enum.Enum):
    """Position of an element relative to the step lattice of a discrete order."""

    MULTIPLE = "multiple-of-step"
    ABOVE = "above-all-multiples"
    BELOW = "below-all-multiples"


@dataclass(frozen=True)
class OrderClassification:
    dense: bool
    least_positive: object = None

    def __str__(self) -> str:
        if self.dense:
            return "dense"
        return f"discrete, a={format_element(self.least_positive)}"


def format_element(x) -> str:
    if isinstance(x, tuple):
        return f"({x[0]},{x[1]})"
    return str(x)


class OrderedGroup:
    """Shared surface of the catalogued instances."""

    name: str = ""

    def validate(self, x):
        raise NotImplementedError

    # All catalogued element types compare natively in group order.
    def compare(self, x, y) -> int:
        self.validate(x)
        self.validate(y)
        if x == y:
            return 0
        return -1 if x < y else 1

    def is_positive(self, x) -> bool:
        return self.compare(x, self.zero()) > 0

    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scale(self, n: int, x):
        """Integer multiple n*x."""
        raise NotImplementedError

    def scalarize(self, x):
        """Image of ``x`` in the coefficient ring of the algebra.

        The integers map to themselves as Python ``int`` and the dyadics
        to their ``Fraction``; the two mix freely in exact arithmetic.  The
        lexicographic pair group is not an additive subgroup of Q, so its
        image lives in the polynomial ring Q[w] for a formal unit w beyond
        every rational: ``(a, b)`` maps to the ``Poly`` ``a*w + b`` with
        ``int`` coefficients.
        """
        raise NotImplementedError

    def random_element(self, rng, bound: int = 8):
        raise NotImplementedError

    def random_positive(self, rng, bound: int = 8):
        for _ in range(1000):
            x = self.random_element(rng, bound)
            if self.is_positive(x):
                return x
        raise RuntimeError("sampling failed to produce a positive element")

    def classification(self) -> OrderClassification:
        raise NotImplementedError

    def classify(self, rng=None, samples: int = 200) -> OrderClassification:
        """Declared classification, backed by a sampling sanity check.

        Dense instances must exhibit a midpoint-style witness strictly
        between 0 and every sampled positive element; discrete instances
        must produce no sampled element strictly between 0 and the step.
        """
        import random

        rng = rng or random.Random(0)
        cls = self.classification()
        if cls.dense:
            for _ in range(samples):
                a = self.random_positive(rng)
                w = self.midpoint_witness(a)
                if not (self.is_positive(w) and self.compare(w, a) < 0):
                    raise AssertionError(f"dense witness failed for {a}")
        else:
            a = cls.least_positive
            zero = self.zero()
            for _ in range(samples):
                x = self.random_element(rng)
                if self.compare(x, zero) > 0 and self.compare(x, a) < 0:
                    raise AssertionError(
                        f"element {x} lies strictly between 0 and the step {a}"
                    )
        return cls

    def midpoint_witness(self, a):
        raise NotImplementedError(f"{self.name} has no dense witness")

    def decompose(self, a, x) -> Region:
        """Region of ``x`` relative to the lattice of integer multiples of ``a``.

        Only defined for discrete instances with ``a`` the least positive
        element; ABOVE means x exceeds every integer multiple of the step.
        """
        cls = self.classification()
        if cls.dense:
            raise GroupError(f"{self.name} carries a dense order; no step lattice")
        if a != cls.least_positive:
            raise GroupError(
                f"step must be the least positive element {cls.least_positive}"
            )
        self.validate(x)
        return self._region(x)

    def _region(self, x) -> Region:
        raise NotImplementedError


class IntegerGroup(OrderedGroup):
    name = "integers"

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool):
            raise GroupError(f"not an integer element: {x!r}")

    def zero(self):
        return 0

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scale(self, n, x):
        return n * x

    def scalarize(self, x):
        return x

    def random_element(self, rng, bound=8):
        return rng.randint(-bound, bound)

    def classification(self):
        return OrderClassification(dense=False, least_positive=1)

    def _region(self, x):
        return Region.MULTIPLE


class DyadicGroup(OrderedGroup):
    name = "dyadic"

    def validate(self, x):
        if not isinstance(x, Fraction):
            raise GroupError(f"not a dyadic rational element: {x!r}")
        d = x.denominator
        if d & (d - 1):
            raise GroupError(f"denominator of {x} is not a power of two")

    def zero(self):
        return Fraction(0)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scale(self, n, x):
        return x * n  # Fraction on the left: no reflected dispatch

    def scalarize(self, x):
        return x

    def random_element(self, rng, bound=8):
        e = rng.randint(0, 3)
        return Fraction(rng.randint(-bound * 2**e, bound * 2**e), 2**e)

    def classification(self):
        return OrderClassification(dense=True)

    def midpoint_witness(self, a):
        return a / 2


class LexPairGroup(OrderedGroup):
    """Integer pairs compared lexicographically, first coordinate dominant."""

    name = "lex-z2"

    def validate(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in x)
        ):
            raise GroupError(f"not an integer pair element: {x!r}")

    def zero(self):
        return (0, 0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def scale(self, n, x):
        return (n * x[0], n * x[1])

    def scalarize(self, x):
        return Poly.of_exact([x[1], x[0]])

    def random_element(self, rng, bound=8):
        return (rng.randint(-bound, bound), rng.randint(-bound, bound))

    def classification(self):
        # Nothing lies strictly between (0,0) and (0,1): a smaller first
        # coordinate loses outright, an equal one compares second entries.
        return OrderClassification(dense=False, least_positive=(0, 1))

    def _region(self, x):
        if x[0] == 0:
            return Region.MULTIPLE
        return Region.ABOVE if x[0] > 0 else Region.BELOW


INTEGERS = IntegerGroup()
DYADIC = DyadicGroup()
LEX_Z2 = LexPairGroup()

GROUPS = {g.name: g for g in (INTEGERS, DYADIC, LEX_Z2)}


def get_group(name: str) -> OrderedGroup:
    try:
        return GROUPS[name]
    except KeyError:
        raise GroupError(
            f"unknown group {name!r}; choose from {sorted(GROUPS)}"
        ) from None
