"""Exact linear algebra over the rationals.

One streaming elimination routine, ``_echelon``, does all the work: rows
arrive one at a time, are stored sparsely as ``{column: Fraction}`` dicts
and are reduced against the pivot rows kept so far.  Each new pivot is
substituted back into the earlier pivot rows as it arrives, so the pivot
rows are always in reduced-echelon form.  That keeps every pivot row
supported on its pivot and the free columns, which makes reducing a row
that turns out to be dependent (most rows of an annihilation matrix) cheap.
At most ``ncols`` pivot rows exist; the routine stops at full rank, and
for a linear system at the first row that reduces to ``0 = b`` with
``b != 0``.

``rref``, ``nullspace``, ``solve`` and ``rank`` only read its result.  The
reduced-echelon form of a row space is unique, so nullspace bases and
particular solutions come out in the canonical form the reports promise,
whatever order the rows arrive in.

Dense matrices (a sequence of equal-length rows) are validated in full
before elimination starts.  ``nullspace`` also takes an iterator of
sparse rows, which it pulls one at a time and validates as each arrives;
once the pivots reach full rank it pulls no further row, so a lazily
assembled matrix is only built as far as the rank needs.  A full-rank
verdict is exact: no later row can shrink a kernel that is already {0}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Row = List[Fraction]
SparseRow = Dict[int, Fraction]


def _subtract(r: SparseRow, f: Fraction, q: SparseRow, skip: int) -> None:
    """r -= f * q in place, over every column of q except ``skip``."""
    for k, y in q.items():
        if k != skip:
            v = r.get(k, 0) - f * y
            if v:
                r[k] = v
            else:
                del r[k]


def _dense(rows: Sequence[Sequence[Fraction]], ncols: int) -> Iterable[SparseRow]:
    """Sparse copies of dense rows, every row checked before the first one."""
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)} in a matrix with {ncols} columns")
    return ({c: Fraction(x) for c, x in enumerate(row) if x} for row in rows)


def _sparse(rows: Iterable[SparseRow], ncols: int) -> Iterable[SparseRow]:
    """Lazily pulled sparse rows, each checked as it arrives."""
    for row in rows:
        for c in row:
            if not isinstance(c, int) or not 0 <= c < ncols:
                raise ValueError(f"column {c!r} in a matrix with {ncols} columns")
        yield {c: Fraction(x) for c, x in row.items() if x}


def _echelon(
    rows: Iterable[SparseRow],
    ncols: int,
    rhs: Optional[Sequence[Fraction]] = None,
) -> Optional[Dict[int, SparseRow]]:
    """Reduced pivot rows of ``rows``, keyed by pivot column.

    Each pivot row has a 1 at its pivot and zeros at every other pivot
    column.  No row is pulled once the pivots reach full rank.  With
    ``rhs`` the rows are augmented by it as column ``ncols``, and None is
    returned as soon as that column would become a pivot, i.e. when the
    system is inconsistent.
    """
    width = ncols if rhs is None else ncols + 1
    pivots: Dict[int, SparseRow] = {}
    if width == 0:
        return pivots
    for i, r in enumerate(rows):
        if rhs is not None and rhs[i]:
            r[ncols] = Fraction(rhs[i])
        # pivot rows vanish on each other's pivots, so subtracting one
        # never brings back an entry at another pivot column
        for c in [c for c in r if c in pivots]:
            _subtract(r, r.pop(c), pivots[c], c)
        if not r:
            continue
        p = min(r)
        if p == ncols:
            return None
        lead = r[p]
        if lead != 1:
            r = {k: v / lead for k, v in r.items()}
        for q in pivots.values():
            f = q.pop(p, None)
            if f is not None:
                _subtract(q, f, r, p)
        pivots[p] = r
        if len(pivots) == width:
            break
    return pivots


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
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = _echelon(_dense(rows, ncols), ncols, rhs)
    if pivots is None:
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
