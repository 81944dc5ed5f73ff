"""Exact linear algebra over the rationals.

One streaming elimination routine, ``_echelon``, does all the work.  Rows
arrive one at a time as sparse ``{column: int}`` dicts: the callers scale
a ``Fraction`` row by the lcm of its denominators on the way in, while
the singular search and the label detectors hand in ``int`` rows
already, which are copied without that pass.  Each row is reduced
against the pivot rows kept so far without ever forming a fraction
(integer-preserving elimination, after Bareiss, Math. Comp. 22, 1968).

Back-substitution is deferred.  A new pivot row is reduced against the
pivots that existed before it, but the new pivot is not substituted back
into the earlier pivot rows, so a pivot row may still hold entries at
pivot columns that arrived after it.  An incoming row therefore clears
its pivot columns one at a time, in increasing column order, picking up
and clearing those later entries as it goes.  A generic search ends at
full rank, where the reduced form is the identity: the routine stops
pulling rows there and never back-substitutes at all.  Only when a
kernel is left does it bring the pivot rows to reduced-echelon form, last
pivot first.  Where dependent rows keep meeting the same stale pivot row
with no new pivot in between (a rank-deficient system past its last
pivot, or a deep search), that row is reduced once and then reused; see
``_echelon``.  The pivot rows are
divided by their pivots once, at the end, so every result comes back
exact, as ``Fraction`` entries.

``rref``, ``nullspace``, ``solve`` and ``rank`` only read its result.  The
reduced-echelon form of a row space is unique, so nullspace bases and
particular solutions come out in the canonical form the reports promise,
whatever order the rows arrive in.

Matrix entries are ``int`` or ``Fraction``; anything else (a float, a
string, a bool) is refused with ``ValueError`` rather than converted.  A
plain ``int`` passes that check on one ``type`` test.
Dense matrices (a sequence of equal-length rows) are validated in full
before elimination starts.  ``nullspace`` also takes an iterator of
sparse rows, which it pulls one at a time and validates as each arrives;
once the pivots reach full rank it pulls no further row, so a lazily
assembled matrix is only built as far as the rank needs.  A full-rank
verdict is exact: no later row can shrink a kernel that is already {0}.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction]
Row = List[Fraction]
SparseRow = Dict[int, Fraction]
IntRow = Dict[int, int]


def _check_entries(values: Iterable[Rational]) -> None:
    """``ValueError`` unless every entry is an ``int`` or a ``Fraction``.

    A plain ``int`` passes on one ``type`` test; ``type(True)`` is
    ``bool``, so a bool still takes the full test and is refused.
    """
    for x in values:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, (int, Fraction))):
            raise ValueError(f"matrix entry {x!r} is not an int or a Fraction")


def _integral(items: Iterable[Tuple[int, Rational]]) -> IntRow:
    """The nonzero entries of a checked row, times the lcm of their denominators.

    The result is always a fresh dict, which ``_echelon`` may reduce in
    place; a row of plain ``int`` entries is that dict as it is.
    """
    row = {k: x for k, x in items if x}
    for x in row.values():
        if type(x) is not int:
            break
    else:
        return row
    den = math.lcm(*[x.denominator for x in row.values()])
    return {k: x.numerator * (den // x.denominator) for k, x in row.items()}


def _dense(
    rows: Sequence[Sequence[Rational]], ncols: int, rhs: Optional[Sequence[Rational]] = None
) -> Iterable[IntRow]:
    """Integral sparse copies of dense rows, every row checked before the first one.

    With ``rhs``, row ``i`` gets ``rhs[i]`` appended as column ``ncols``.
    """
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)} in a matrix with {ncols} columns")
        _check_entries(row)
    if rhs is not None:
        _check_entries(rhs)
        rows = [[*row, b] for row, b in zip(rows, rhs)]
    return (_integral(enumerate(row)) for row in rows)


def _sparse(rows: Iterable[Dict[int, Rational]], ncols: int) -> Iterable[IntRow]:
    """Integral copies of lazily pulled sparse rows, each checked as it arrives."""
    for row in rows:
        for c in row:
            if not isinstance(c, int) or not 0 <= c < ncols:
                raise ValueError(f"column {c!r} in a matrix with {ncols} columns")
        _check_entries(row.values())
        yield _integral(row.items())


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


def _reduce_pivot_row(pivots: Dict[int, IntRow], reduced: Dict[int, int], p: int) -> None:
    """Bring pivot row ``p`` to reduced form, and first every stale row it needs.

    ``reduced`` holds the pivot count at which each pivot row was last
    reduced; a row is stale when pivots have arrived since.  A row is
    reduced in one step against the later pivot rows it meets once those
    are reduced themselves: they vanish on each other's pivots, so
    subtracting one never brings back an entry at another pivot column,
    and ``q <- m*q - sum f_c*q_c`` with the smallest positive ``m`` that
    keeps every ``f_c`` integral.  An explicit stack holds the rows still
    waiting for a later row.
    """
    n = len(pivots)
    stack = [p]
    while stack:
        p = stack[-1]
        if reduced[p] == n:
            stack.pop()
            continue
        q = pivots[p]
        hits = [c for c in q if c != p and c in pivots]
        stale = [c for c in hits if reduced[c] != n]
        if stale:
            stack += stale
            continue
        stack.pop()
        reduced[p] = n
        if not hits:
            continue
        hit = [(c, q.pop(c), pivots[c]) for c in hits]
        m = math.lcm(*[qc[c] // math.gcd(qc[c], f) for c, f, qc in hit])
        if m != 1:
            for k in q:
                q[k] *= m
        for c, f, qc in hit:
            _subtract(q, f * m // qc[c], qc, c)
        pivots[p] = _primitive(q, p)


def _echelon(rows: Iterable[IntRow], ncols: int) -> Dict[int, SparseRow]:
    """Reduced pivot rows of ``rows``, keyed by pivot column.

    Each pivot row has a 1 at its pivot and zeros at every other pivot
    column, with ``Fraction`` entries.  The incoming rows are integral,
    and the routine reduces them in place.  While eliminating, a pivot
    row is a primitive integer vector, positive at its pivot, with no
    entry left of its pivot and none at the pivot columns that existed
    when it was last reduced.

    An incoming row clears its pivot columns in increasing order, one
    pivot row at a time: ``r <- s*r - f*q`` with the smallest positive
    integer ``s`` that keeps ``f`` integral.  Clearing column ``c`` only
    adds entries right of ``c``, so a heap of the pivot columns still to
    clear never goes back.  What is left is divided by the gcd of its
    entries and becomes a pivot row at its first column; no earlier pivot
    row is touched.  A pivot row is stale once a pivot has arrived since
    it was last reduced.  When a stale row is used a second time with no
    new pivot in between, as the dependent rows of a rank-deficient
    system use it, it is brought to reduced form first
    (``_reduce_pivot_row``), so the rows that follow subtract it without
    clearing its later entries again.  A stream in which every row adds a
    pivot reduces no pivot row this way.

    No row is pulled once the pivots reach full rank; the reduced form is
    then the identity.  Otherwise every pivot row is brought to reduced
    form at the end, last pivot first.
    """
    pivots: Dict[int, IntRow] = {}
    # per pivot row: the pivot count when it was last reduced, and when
    # it was last used while stale
    reduced: Dict[int, int] = {}
    used: Dict[int, int] = {}
    if ncols == 0:
        return {}
    for r in rows:
        n = len(pivots)
        todo = [c for c in r if c in pivots]
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            f = r.pop(c, None)
            if f is None:
                continue  # cancelled, or a column pushed twice
            if reduced[c] != n:
                if used.get(c) == n:
                    _reduce_pivot_row(pivots, reduced, c)
                else:
                    used[c] = n
            q = pivots[c]
            d = q[c]
            g = math.gcd(d, f)
            if g != d:
                s = d // g
                for k in r:
                    r[k] *= s
            f //= g
            for k, y in q.items():
                v = r.get(k)
                if v is None:
                    if k != c:
                        r[k] = -f * y
                        if k in pivots:
                            heapq.heappush(todo, k)
                else:
                    v -= f * y
                    if v:
                        r[k] = v
                    else:
                        del r[k]
        if not r:
            continue
        p = min(r)
        pivots[p] = _primitive(r, p)
        reduced[p] = len(pivots)
        if len(pivots) == ncols:
            return {p: {p: Fraction(1)} for p in range(ncols)}
    for p in sorted(pivots, reverse=True):
        _reduce_pivot_row(pivots, reduced, p)
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
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = _echelon(_dense(rows, ncols, rhs), ncols + 1)
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
