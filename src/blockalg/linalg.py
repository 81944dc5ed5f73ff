"""Exact linear algebra over the rationals.

One streaming elimination routine, ``_echelon``, does all the work: rows
arrive one at a time, are scaled to primitive integer vectors stored
sparsely as ``{column: int}`` dicts, and are reduced against the pivot
rows kept so far without ever forming a fraction (integer-preserving
elimination, after Bareiss, Math. Comp. 22, 1968).  Each new pivot is
substituted back into the earlier pivot rows as it arrives, so the pivot
rows are always the reduced-echelon form scaled to integers.  That keeps
every pivot row supported on its pivot and the free columns, which makes
reducing a row that turns out to be dependent (most rows of an
annihilation matrix) cheap.  At most ``ncols`` pivot rows exist; the
routine stops at full rank.  The pivot rows are divided by their pivots
once, at the end, so every result comes back exact, as ``Fraction``
entries.

``rref``, ``nullspace``, ``solve`` and ``rank`` only read its result.  The
reduced-echelon form of a row space is unique, so nullspace bases and
particular solutions come out in the canonical form the reports promise,
whatever order the rows arrive in.

Matrix entries are ``int`` or ``Fraction``; anything else (a float, a
string, a bool) is refused with ``ValueError`` rather than converted.
Dense matrices (a sequence of equal-length rows) are validated in full
before elimination starts.  ``nullspace`` also takes an iterator of
sparse rows, which it pulls one at a time and validates as each arrives;
once the pivots reach full rank it pulls no further row, so a lazily
assembled matrix is only built as far as the rank needs.  A full-rank
verdict is exact: no later row can shrink a kernel that is already {0}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction]
Row = List[Fraction]
SparseRow = Dict[int, Fraction]
IntRow = Dict[int, int]


def _check_entries(values: Iterable[Rational]) -> None:
    """``ValueError`` unless every entry is an ``int`` or a ``Fraction``."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"matrix entry {x!r} is not an int or a Fraction")


def _dense(rows: Sequence[Sequence[Rational]], ncols: int) -> Iterable[Dict[int, Rational]]:
    """Sparse copies of dense rows, every row checked before the first one."""
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)} in a matrix with {ncols} columns")
        _check_entries(row)
    return ({c: x for c, x in enumerate(row) if x} for row in rows)


def _sparse(rows: Iterable[Dict[int, Rational]], ncols: int) -> Iterable[Dict[int, Rational]]:
    """Lazily pulled sparse rows, each checked as it arrives."""
    for row in rows:
        for c in row:
            if not isinstance(c, int) or not 0 <= c < ncols:
                raise ValueError(f"column {c!r} in a matrix with {ncols} columns")
        _check_entries(row.values())
        yield {c: x for c, x in row.items() if x}


def _subtract(r: IntRow, f: int, q: IntRow, skip: int) -> None:
    """r -= f * q in place, over every column of q except ``skip``."""
    for k, y in q.items():
        if k != skip:
            v = r.get(k, 0) - f * y
            if v:
                r[k] = v
            else:
                del r[k]


def _primitive(r: IntRow, p: int) -> IntRow:
    """``r`` divided by the gcd of its entries, signed so that ``r[p] > 0``."""
    g = math.gcd(*r.values())
    if r[p] < 0:
        g = -g
    return r if g == 1 else {k: v // g for k, v in r.items()}


def _echelon(rows: Iterable[Dict[int, Rational]], ncols: int) -> Dict[int, SparseRow]:
    """Reduced pivot rows of ``rows``, keyed by pivot column.

    Each pivot row has a 1 at its pivot and zeros at every other pivot
    column, with ``Fraction`` entries.  While eliminating, a pivot row is
    kept as a primitive integer vector, positive at its pivot, that
    vanishes at every other pivot column.  An incoming row is scaled by
    the lcm of its denominators; it is reduced in one step against all
    the pivot rows it meets, ``r <- m*r - sum f_c*q_c`` with the smallest
    positive integer ``m`` that keeps every ``f_c`` integral, and divided
    by the gcd of its entries.  A new pivot row is substituted back into
    each earlier one the same way.  No row is pulled once the pivots
    reach full rank.
    """
    pivots: Dict[int, IntRow] = {}
    if ncols == 0:
        return {}
    for row in rows:
        den = math.lcm(*[x.denominator for x in row.values()])
        r = {k: x.numerator * (den // x.denominator) for k, x in row.items()}
        # pivot rows vanish on each other's pivots, so subtracting one
        # never brings back an entry at another pivot column
        hit = [(c, r.pop(c), pivots[c]) for c in [c for c in r if c in pivots]]
        m = math.lcm(*[q[c] // math.gcd(q[c], f) for c, f, q in hit])
        if m != 1:
            r = {k: m * v for k, v in r.items()}
        for c, f, q in hit:
            _subtract(r, f * m // q[c], q, c)
        if not r:
            continue
        p = min(r)
        r = _primitive(r, p)
        d = r[p]
        for c, q in pivots.items():
            f = q.pop(p, None)
            if f is not None:
                g = math.gcd(d, f)
                if d != g:
                    for k in q:
                        q[k] *= d // g
                _subtract(q, f // g, r, p)
                pivots[c] = _primitive(q, c)
        pivots[p] = r
        if len(pivots) == ncols:
            break
    return {
        p: {k: Fraction(v, q[p]) for k, v in q.items()} for p, q in pivots.items()
    }


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form (a fresh matrix) and its pivot columns.

    The matrix has one row per input row: the pivot rows in pivot order,
    then zero rows.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = _echelon(_dense(rows, ncols), ncols)
    cols = sorted(pivots)
    m = []
    for p in cols:
        dense = [Fraction(0)] * ncols
        for k, v in pivots[p].items():
            dense[k] = v
        m.append(dense)
    m.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(cols)))
    return m, cols


def nullspace(
    rows: Union[Sequence[Sequence[Fraction]], Iterable[SparseRow]], ncols: int
) -> List[List[Fraction]]:
    """Canonical nullspace basis: one vector per free column, unit there.

    ``rows`` is a dense matrix (a sequence of rows) or an iterator of
    sparse ``{column: value}`` rows, pulled only until full rank.
    """
    if isinstance(rows, Sequence):
        pivots = _echelon(_dense(rows, ncols), ncols)
    else:
        pivots = _echelon(_sparse(rows, ncols), ncols)
    basis: Dict[int, Row] = {}
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            basis[f] = v
    for p, row in pivots.items():
        for k, x in row.items():
            if k != p:
                basis[k][p] = -x
    return list(basis.values())


def solve(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Particular solution of A x = b with free variables set to zero.

    Returns None when the system is inconsistent.  With the RREF pivot
    convention this is the reduced-echelon canonical representative.
    The augmented rows ``[A | b]`` are eliminated over ``ncols + 1``
    columns; the system is inconsistent exactly when column ``ncols``
    becomes a pivot.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    _check_entries(rhs)
    if not rows:
        return []
    ncols = len(rows[0])
    augmented = (
        {**row, ncols: b} if b else row for row, b in zip(_dense(rows, ncols), rhs)
    )
    pivots = _echelon(augmented, ncols + 1)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for p, row in pivots.items():
        sol[p] = row.get(ncols, Fraction(0))
    return sol


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    return len(_echelon(_dense(rows, ncols), ncols))
