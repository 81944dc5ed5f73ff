"""Exact arithmetic over the rationals and in Q[x]: the one layer of it.

``exact_rational`` is the one gate of an exact scalar: an ``int`` that is
not a ``bool``, or a ``Fraction``, as ``check_int`` is of an integer;
``parse_rational`` and ``format_rational`` are its JSON form ``"p/q"``
(``q >= 1``).  A Q[x] value is a dense tuple, lowest degree first, with
no trailing zero (zero is ``()``); an entry is an ``int`` while integral
and a ``Fraction`` after, and the two compare and hash alike.  ``mul``,
``tmul``, ``smul``, ``cneg``, ``cadd`` and ``csub`` are its arithmetic,
written once: they also take a bare rational for a constant, as the
lex-z2 kernel (``verma._LexPairs``, which binds them) keeps a
coefficient no w-arithmetic has touched.  ``Poly`` gives a tuple
operators, in three roles:

* characteristic polynomials and probe expansions in ``t``;
* symbolic sweep coefficients in ``x`` (for degree bookkeeping);
* the coefficient ring for the lexicographic pair group, whose structure
  constants live in Q[w] for a formal unit ``w`` exceeding every rational.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

Rat = Union[int, Fraction]

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def exact_rational(value) -> Rat:
    """``value`` as it is if it is an ``int`` that is not a ``bool``, or a ``Fraction``.

    Anything else -- a float, a bool, a string, a ``Poly`` -- raises
    ``ValueError`` rather than being converted: ``Fraction(0.1)`` is not
    1/10, and ``True`` is not the number 1.
    """
    kind = type(value)
    if kind is int or kind is Fraction or (isinstance(value, (int, Fraction)) and kind is not bool):
        return value
    raise ValueError(f"not an exact rational: {value!r} (use an int or a Fraction)")


def check_int(value, name: str, least: Optional[int] = None) -> None:
    """The integer rule of indices (at least -1), horizons and exponents: an
    ``int``, not a ``bool``, and at least ``least`` when given; anything
    else raises ``ValueError``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def exact_fraction(value) -> Fraction:
    """``value`` as a ``Fraction``: a ``Fraction`` as it is, an ``int`` converted,
    anything else refused by :func:`exact_rational`."""
    return value if type(value) is Fraction else Fraction(exact_rational(value))


def parse_rational(value) -> Rat:
    """An exact rational from JSON: an int, or a ``"p"`` or ``"p/q"`` string.

    A ``Fraction`` passes through.  Anything else -- a float, a bool, a
    decimal or exponent string -- raises ``ValueError``: a float has
    already lost the value it was meant to hold.
    """
    if not isinstance(value, str):
        try:
            return exact_rational(value)
        except ValueError:
            pass  # refused below, with the JSON forms named
    elif _RATIONAL.fullmatch(value.strip()):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(
        f"not an exact rational: {value!r} (use an integer or a \"p/q\" string)"
    )


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


def _trim(cs: Sequence[Rat]) -> Tuple[Rat, ...]:
    """``cs`` as a tuple without trailing zeros; a trimmed tuple is returned as it is."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def mul(c, a):
    """``c*a`` for a nonzero tuple ``c`` of degree at most 1 and a nonzero ``a``, in one pass.

    The top entry ``a[-1]*c1`` is nonzero, so the product needs no trim.
    ``a``'s entries are the left operand, so a ``Fraction`` takes its own method.
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


def tmul(c, a):
    """``c*a`` for a nonzero tuple ``c`` of any degree; no trim, as in :func:`mul`."""
    if len(c) <= 2:
        return mul(c, a)
    if type(a) is not tuple:
        return tuple([a * x for x in c])
    out = [0] * (len(a) + len(c) - 1)
    for j, x in enumerate(c):
        for i, y in enumerate(a):
            out[i + j] += y * x
    return tuple(out)


def smul(x, a):
    """``x*a`` for a rational ``x``: a label, the central charge or a scalar."""
    if type(a) is not tuple:
        return x * a
    return tuple([x * y for y in a]) if x else ()


def cneg(a):
    return tuple([-y for y in a]) if type(a) is tuple else -a


def cadd(a, b):
    """``a + b``, trimmed; a sum that cancels is ``()`` (or a rational 0)."""
    if type(a) is not tuple:
        if type(b) is not tuple:
            return a + b
        a = (a,) if a else ()
    elif type(b) is not tuple:
        b = (b,) if b else ()
    if len(a) != len(b):
        if len(a) < len(b):
            a, b = b, a
        return tuple(map(operator.add, a, b)) + a[len(b):]
    return _trim(tuple(map(operator.add, a, b)))


def csub(a, b):
    """``a - b``, trimmed as by :func:`cadd`; two tuples of one length in one pass."""
    if type(a) is not tuple or type(b) is not tuple or len(a) != len(b):
        return cadd(a, cneg(b))
    return _trim(tuple(map(operator.sub, a, b)))


def _operand(other):
    """A ``Poly``'s tuple or an exact rational as it is; ``None`` for anything else."""
    if type(other) is Poly:
        return other.coeffs
    try:
        return exact_rational(other)
    except ValueError:
        return None


class Poly:
    """Immutable c0 + c1*X + c2*X^2 + ...; an operand that is neither a
    ``Poly`` nor an exact rational, a ``bool`` too, is ``NotImplemented``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        self.coeffs: Tuple[Rat, ...] = _trim(tuple(map(exact_rational, coeffs)))

    @classmethod
    def of_exact(cls, cs: Sequence[Rat]) -> "Poly":
        """Poly over a list or tuple whose entries are already ``int`` or ``Fraction``.

        Skips the per-entry check of the constructor and trims trailing
        zeros; a tuple that needs no trim becomes the coefficients as it is.
        """
        p = cls.__new__(cls)
        p.coeffs = _trim(cs)
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
        b = _operand(other)
        if b is None:
            return NotImplemented
        return self.coeffs == (b if type(b) is tuple else _trim((b,)))

    def __hash__(self):
        # a constant hashes like the rational it equals
        cs = self.coeffs
        if len(cs) > 1:
            return hash(cs)
        return hash(cs[0]) if cs else 0

    def __add__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else Poly.of_exact(cadd(self.coeffs, b))

    __radd__ = __add__

    def __neg__(self):
        return Poly.of_exact(cneg(self.coeffs))

    def __sub__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else Poly.of_exact(csub(self.coeffs, b))

    def __rsub__(self, other):
        b = _operand(other)
        return NotImplemented if b is None else Poly.of_exact(csub(b, self.coeffs))

    def __mul__(self, other):
        b = _operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if type(b) is not tuple:
            # scalar on the left: a Fraction scalar then takes the fast
            # forward path against the (mostly int) coefficients
            return Poly.of_exact(smul(b, a))
        return Poly.of_exact(tmul(b, a) if a and b else ())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        check_int(n, "exponent", 0)
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def shifted(self, k: int) -> "Poly":
        """Multiply by X^k (k >= 0)."""
        check_int(k, "shift", 0)
        return Poly.of_exact((0,) * k + self.coeffs) if self.coeffs else self

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
    """X^n for an ``int`` ``n >= 0``."""
    check_int(n, "exponent", 0)
    return Poly.of_exact((0,) * n + (1,))
