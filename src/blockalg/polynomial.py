"""Exact univariate polynomial arithmetic over the rationals.

Dense coefficient tuples; deliberately small.  A coefficient is a Python
``int`` while it is integral and a ``Fraction`` once a non-integral value
has entered it; the two compare and hash alike (``hash(3) ==
hash(Fraction(3))``), so the mix is invisible to equality.  One class
covers three roles in this package:

* characteristic polynomials and probe expansions in ``t``;
* symbolic sweep coefficients in ``x`` (for degree bookkeeping);
* the coefficient ring for the lexicographic pair group, whose structure
  constants live in Q[w] for a formal unit ``w`` exceeding every rational.

``format_rational`` and ``parse_rational`` are the one JSON form of an
exact rational used throughout the package: ``"p/q"`` with ``q >= 1``.
``format_poly`` writes a coefficient tuple as ``Poly.format`` prints it.
``exact_fraction`` is the one strict conversion of a value to ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def _rat(value) -> Rat:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return int(value)  # a bool becomes a plain int
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(x: Rat) -> str:
    """``"p/q"`` in lowest terms, ``"3/1"`` for an integral value."""
    return f"{x.numerator}/{x.denominator}"


def format_poly(cs: Sequence[Rat], var: str = "t") -> str:
    """``cs[0] + cs[1]*var + ...`` as text, highest degree first: ``"-2*w^2 + w - 1/3"``.

    ``cs`` is a coefficient tuple, lowest degree first, as ``Poly`` keeps
    it; zero entries are left out, and no nonzero entry reads ``"0"``.
    """
    bits = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        if c < 0:
            c = -c
            sign = "- " if bits else "-"
        else:
            sign = "+ " if bits else ""
        if not i:
            body = str(c)
        else:
            body = var if i == 1 else f"{var}^{i}"
            if c != 1:
                body = f"{c!s}*{body}"
        bits.append(sign + body)
    return " ".join(bits) if bits else "0"


def exact_fraction(value) -> Fraction:
    """``value`` as a ``Fraction``: a ``Fraction`` passes, an ``int`` converts.

    Anything else -- a float, a bool, a string -- raises ``ValueError``
    rather than being converted: ``Fraction(0.1)`` is not 1/10.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"not an exact rational: {value!r} (use an int or a Fraction)")


def parse_rational(value) -> Rat:
    """An exact rational from JSON: an int, or a ``"p"`` or ``"p/q"`` string.

    A ``Fraction`` passes through.  Anything else -- a float, a bool, a
    decimal or exponent string -- raises ``ValueError``: a float has
    already lost the value it was meant to hold.
    """
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _RATIONAL.fullmatch(value.strip()):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(
        f"not an exact rational: {value!r} (use an integer or a \"p/q\" string)"
    )


class Poly:
    """Immutable c0 + c1*X + c2*X^2 + ... with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Rat, ...] = tuple(cs)

    @classmethod
    def of_exact(cls, cs: Sequence[Rat]) -> "Poly":
        """Poly over a list or tuple whose entries are already ``int`` or ``Fraction``.

        Skips the per-entry check of the constructor and trims trailing
        zeros; a tuple that needs no trim becomes the coefficients as it is.
        """
        if cs and not cs[-1]:
            cs = list(cs)
            while cs and not cs[-1]:
                cs.pop()
        p = cls.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> Rat:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        # a constant hashes like the rational it equals
        cs = self.coeffs
        if len(cs) > 1:
            return hash(cs)
        return hash(cs[0]) if cs else 0

    def __add__(self, other):
        # the exact type test first: isinstance against the numeric
        # classes goes through the ABC machinery
        if type(other) is Poly:
            b = other.coeffs
        elif isinstance(other, (int, Fraction)):
            b = (_rat(other),)
        else:
            return NotImplemented
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = [x + y for x, y in zip(a, b)]
        cs.extend(a[len(b):])
        return Poly.of_exact(cs)

    __radd__ = __add__

    def __neg__(self):
        return Poly.of_exact([-c for c in self.coeffs])

    def __sub__(self, other):
        if type(other) is Poly:
            b = other.coeffs
        elif isinstance(other, (int, Fraction)):
            b = (_rat(other),)
        else:
            return NotImplemented
        a = self.coeffs
        cs = [x - y for x, y in zip(a, b)]
        if len(a) >= len(b):
            cs.extend(a[len(b):])
        else:
            cs.extend(-y for y in b[len(a):])
        return Poly.of_exact(cs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                # scalar on the left: a Fraction scalar then takes the fast
                # forward path against the (mostly int) coefficients
                return Poly.of_exact([other * c for c in self.coeffs])
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly.of_exact(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def shifted(self, k: int) -> "Poly":
        """Multiply by X^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def derivative(self) -> "Poly":
        return Poly((i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, value):
        """Evaluate; ``value`` may itself be a Poly (composition)."""
        out = value * 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def format(self, var: str = "t") -> str:
        return format_poly(self.coeffs, var)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


ONE = Poly((1,))
X = Poly((0, 1))


def x_power(n: int) -> Poly:
    return Poly((0,) * n + (1,))
