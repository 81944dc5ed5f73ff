"""Exact linear algebra over the rationals.

One streaming elimination, :class:`Echelon` with its per-row step
``_eliminate``, does all the work.  Rows arrive one at a time as sparse
``{column: int}`` dicts: the callers scale a ``Fraction`` row by the lcm
of its denominators on the way in, while the singular search and the
label detectors hand in ``int`` rows already, which are copied without
that pass.  Each row is reduced against the pivot rows kept so far
without ever forming a fraction (integer-preserving elimination, after
Bareiss, Math. Comp. 22, 1968).

Back-substitution is deferred.  A new pivot row is reduced against the
pivots that existed before it, but the new pivot is not substituted back
into the earlier pivot rows, so a pivot row may still hold entries at
pivot columns that arrived after it.  An incoming row therefore clears
its pivot columns one at a time, in increasing column order, picking up
and clearing those later entries as it goes.  A generic search ends at
full rank, where the reduced form is the identity: the elimination stops
pulling rows there and never back-substitutes at all.  The singular
search hands in each probe's rows sparsest first (fewest entries first,
as in structured Gaussian elimination), so its pivot rows start sparse
and the rows reduced against them, and the clearing of stale entries,
create little fill-in; at a deep weight such as 2990 words that cuts
the elimination about twentyfold.  The order changes no result, since
the reduced form is unique, and full rank, when it comes, still comes
within the same probe.  Where dependent rows keep meeting the same stale
pivot row with no new pivot in between (a rank-deficient system past its
last pivot, or a deep search), that row is reduced once and then reused;
see :class:`Echelon`.  Pivot rows are brought to reduced-echelon form,
last pivot first, only when the state is read, and divided by their
pivots only in what a reader returns, so every result comes back exact,
as ``Fraction`` entries.

Every public routine is a reader of that one state.  ``rref``,
``solve`` and ``rank`` read its reduced pivot rows, and ``nullspace``
its canonical kernel basis.  The reduced-echelon form of a row space is
unique, so nullspace bases and particular solutions come out in the
canonical form the reports promise, whatever order the rows arrive in.
``first_null_vector`` wants only the first vector of that basis.  It
eliminates rows only until one is dependent, reads the first kernel
vector of the state, and then checks each remaining row against it with
one dot product; a row that fails is eliminated, and the candidate moves
on.  The singular search (``reducibility.singular_candidates``) keeps a
state of its own in the same way: it feeds in the rows of one probe at a
time, reads the kernel, and feeds in more rows only for a probe that
does not annihilate it.

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
import operator
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

    The result is always a fresh dict, which :class:`Echelon` may reduce in
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


def _dense(rows: Sequence[Sequence[Rational]], ncols: int) -> Iterable[IntRow]:
    """Integral sparse copies of dense rows, every row checked before the first one."""
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)} in a matrix with {ncols} columns")
        _check_entries(row)
    return (_integral(enumerate(row)) for row in rows)


def sparse_rows(rows: Iterable[Dict[int, Rational]], ncols: int) -> Iterable[IntRow]:
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


def _eliminate(
    pivots: Dict[int, IntRow], reduced: Dict[int, int], used: Dict[int, int], r: IntRow
) -> bool:
    """Reduce the integral row ``r`` in place; keep what is left as a pivot row.

    ``r`` clears its pivot columns in increasing order, one pivot row at
    a time: ``r <- s*r - f*q`` with the smallest positive integer ``s``
    that keeps ``f`` integral.  Clearing column ``c`` only adds entries
    right of ``c``, so a heap of the pivot columns still to clear never
    goes back.  What is left is divided by the gcd of its entries and
    becomes a pivot row at its first column; no earlier pivot row is
    touched.  ``reduced`` holds the pivot count at which each pivot row
    was last reduced, and ``used`` the count at which it was last used
    while stale (see :class:`Echelon`).  True when ``r`` added a pivot row,
    False when it reduced to zero.
    """
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
        return False
    p = min(r)
    pivots[p] = _primitive(r, p)
    reduced[p] = len(pivots)
    return True


class Echelon:
    """One streaming elimination over ``ncols`` columns, and its readers.

    Rows go in one at a time and are reduced in place by ``_eliminate``;
    :meth:`extend` takes integral rows, checked on the way in by
    ``_dense`` or ``sparse_rows``, and stops pulling them once the rank
    is full.  While eliminating, a pivot row is a primitive
    integer vector, positive at its pivot, with no entry left of its
    pivot and none at the pivot columns that existed when it was last
    reduced.

    A pivot row is stale once a pivot has arrived since it was last
    reduced.  When a stale row is used a second time with no new pivot
    in between, as the dependent rows of a rank-deficient system use it,
    it is brought to reduced form first (``_reduce_pivot_row``), so the
    rows that follow subtract it without clearing its later entries
    again.  A stream in which every row adds a pivot reduces no pivot
    row this way.

    The state can be read at any point, and more rows may follow: a
    reader brings pivot rows to reduced form in place, which the rows
    after it reduce against as before.  :meth:`reduced` gives the
    reduced pivot rows (``rref``, ``solve``), :meth:`kernel` the
    canonical kernel basis (``nullspace`` and the singular search) and
    :meth:`first_null` its first vector (``first_null_vector``).  At full
    rank the reduced form is the identity, and no reader reduces a row.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: Dict[int, IntRow] = {}
        # per pivot row: the pivot count when it was last reduced, and when
        # it was last used while stale
        self._reduced: Dict[int, int] = {}
        self._used: Dict[int, int] = {}

    def extend(self, rows: Iterable[IntRow]) -> bool:
        """Eliminate integral rows (``_dense`` or ``sparse_rows``), pulling
        none once the rank is full; True when one of them added a pivot."""
        pivots, ncols = self.pivots, self.ncols
        n = len(pivots)
        if n < ncols:
            for r in rows:
                if _eliminate(pivots, self._reduced, self._used, r) and len(pivots) == ncols:
                    break
        return len(pivots) > n

    def reduced(self) -> Dict[int, SparseRow]:
        """The reduced pivot rows, keyed by pivot column: a 1 at the pivot
        and zeros at every other pivot column, with ``Fraction`` entries.
        Every pivot row is brought to reduced form first, last pivot first."""
        if len(self.pivots) == self.ncols:
            return {p: {p: Fraction(1)} for p in range(self.ncols)}
        for p in sorted(self.pivots, reverse=True):
            _reduce_pivot_row(self.pivots, self._reduced, p)
        return {
            p: {k: Fraction(v, q[p]) for k, v in q.items()} for p, q in self.pivots.items()
        }

    def kernel(self) -> List[Row]:
        """Canonical kernel basis of the rows so far: one vector per free
        column, unit there, with minus that column of each reduced pivot
        row at its pivot."""
        pivots = self.reduced()
        basis: Dict[int, Row] = {}
        for f in range(self.ncols):
            if f not in pivots:
                v = [Fraction(0)] * self.ncols
                v[f] = Fraction(1)
                basis[f] = v
        for p, row in pivots.items():
            for k, x in row.items():
                if k != p:
                    basis[k][p] = -x
        return list(basis.values())

    def first_null(self) -> Optional[List[int]]:
        """The first canonical kernel vector of the rows so far, or None at
        full rank: its entries up to its first free column d0, where it
        ends, times their common denominator ``den``, the last entry.
        Only the pivot rows left of d0 are reduced."""
        pivots = self.pivots
        if len(pivots) == self.ncols:
            return None
        d0 = next(c for c in range(self.ncols) if c not in pivots)
        for p in range(d0):
            _reduce_pivot_row(pivots, self._reduced, p)
        den = math.lcm(*[pivots[p][p] for p in range(d0)])
        v = [-pivots[p].get(d0, 0) * (den // pivots[p][p]) for p in range(d0)]
        v.append(den)
        return v


def _dense_echelon(rows: Sequence[Sequence[Rational]], ncols: int) -> Echelon:
    """The elimination of a dense matrix, every row checked first."""
    state = Echelon(ncols)
    state.extend(_dense(rows, ncols))
    return state


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form (a fresh matrix) and its pivot columns.

    The matrix has one row per input row: the pivot rows in pivot order,
    then zero rows.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = _dense_echelon(rows, ncols).reduced()
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
        return _dense_echelon(rows, ncols).kernel()
    state = Echelon(ncols)
    state.extend(sparse_rows(rows, ncols))
    return state.kernel()


def first_null_vector(rows: Sequence[Sequence[Rational]], ncols: int) -> Optional[Row]:
    """``nullspace(rows, ncols)[0]``, or None when the kernel is {0}.

    ``rows`` is a dense matrix.  Its rows are eliminated in order only
    until one reduces to zero (or the rank is full, and the answer is
    None).  Then a candidate is read off the elimination
    (:meth:`Echelon.first_null`): a 1 at the first free column d0, and
    nothing right of it.  Every row not yet eliminated is checked
    against it with one exact dot product.  The first row that fails is
    independent of the rows eliminated so far, so eliminating it adds a
    pivot, at d0, and the next candidate's first free column lies
    further right; the rows that passed the old candidate are checked
    again.  When every row passes, the candidate lies in the kernel of
    the whole matrix, which the kernel of the eliminated rows contains;
    the columns left of d0 are pivots of those rows, so it is the one
    kernel vector with its 1 at d0 and nothing right of d0, which is the
    first canonical one.
    """
    integral = _dense(rows, ncols)
    if not ncols:
        return None
    state = Echelon(ncols)
    pivots, reduced, used = state.pivots, state._reduced, state._used
    eliminated = 0
    for r in integral:
        eliminated += 1
        if not _eliminate(pivots, reduced, used, r):
            break
        if len(pivots) == ncols:
            return None
    rest = list(rows[eliminated:])
    while True:
        v = state.first_null()
        for i, row in enumerate(rest):
            if sum(map(operator.mul, row, v)):
                break
        else:
            den = v[-1]
            return [Fraction(x, den) for x in v] + [Fraction(0)] * (ncols - len(v))
        _eliminate(pivots, reduced, used, _integral(enumerate(rest.pop(i))))
        if len(pivots) == ncols:
            return None


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
    augmented = [[*row, b] for row, b in zip(rows, rhs)]
    pivots = _dense_echelon(augmented, ncols + 1).reduced()
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for p, row in pivots.items():
        sol[p] = row.get(ncols, Fraction(0))
    return sol


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    return len(_dense_echelon(rows, len(rows[0])).pivots)
