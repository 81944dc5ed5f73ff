import random
from fractions import Fraction

import pytest
import sympy

from blockalg import linalg, reducibility
from blockalg.groups import INTEGERS
from blockalg.lie import BlockAlgebra
from blockalg.polynomial import X
from blockalg.reducibility import labels_from_charpoly
from blockalg.verma import HighestWeight, ModuleVector, VermaModule


def _random_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_nullspace_matches_sympy_dimension():
    rng = random.Random(0)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        ours = linalg.nullspace(m, cols)
        theirs = sympy.Matrix(m).nullspace()
        assert len(ours) == len(theirs)
        for v in ours:
            image = [sum(r[i] * v[i] for i in range(cols)) for r in m]
            assert all(x == 0 for x in image)


def test_solve_matches_sympy_consistency():
    rng = random.Random(1)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        b = [Fraction(rng.randint(-6, 6)) for _ in range(rows)]
        sol = linalg.solve(m, b)
        sym = sympy.linsolve((sympy.Matrix(m), sympy.Matrix(b)))
        if sol is None:
            assert not sym
        else:
            assert sym
            image = [sum(r[i] * sol[i] for i in range(cols)) for r in m]
            assert image == b


def test_solve_low_rank_uses_zero_free_variables():
    # one equation, two unknowns: canonical representative zeroes the free one
    sol = linalg.solve([[Fraction(2), Fraction(4)]], [Fraction(6)])
    assert sol == [Fraction(3), Fraction(0)]


def test_nullspace_of_empty_matrix_is_full():
    basis = linalg.nullspace([], 3)
    assert len(basis) == 3


def test_rank():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.rank(m) == 1


# -- dense Gauss-Jordan reference --------------------------------------------
# The textbook elimination the streaming kernel replaced, kept verbatim:
# the reduced-echelon form is unique, so every output must match it exactly.


def _dense_rref(rows):
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _dense_nullspace(rows, ncols):
    if not rows:
        return [
            [Fraction(1) if i == f else Fraction(0) for i in range(ncols)]
            for f in range(ncols)
        ]
    m, pivots = _dense_rref(rows)
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append(v)
    return basis


def _dense_solve(rows, rhs):
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _dense_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        sol[p] = m[r][ncols]
    return sol


def _sparse_matrix(rng, rows, cols, density=0.25):
    return [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def _low_rank_matrix(rng, rows, cols, rank):
    """Tall and rank-deficient, like an annihilation matrix: many rows,
    each an integer combination of a few sparse ones."""
    base = _sparse_matrix(rng, rank, cols, density=0.4)
    mix = [[rng.randint(-2, 2) for _ in base] for _ in range(rows)]
    return [
        [sum((a * b[j] for a, b in zip(coeffs, base)), Fraction(0)) for j in range(cols)]
        for coeffs in mix
    ]


def _big_matrix(rng, rows, cols, rank):
    """Integer combinations of ``rank`` random rows whose entries are 0,
    ints near 10^30, or such numerators over products of two distinct
    primes above 10^12; the result mixes ints and Fractions."""
    primes = [sympy.nextprime(10**12 + 10**6 * k) for k in range(5)]

    def entry():
        kind = rng.randrange(3)
        num = rng.randint(-(10**30), 10**30)
        if kind == 0:
            return 0
        if kind == 1:
            return num
        p, q = rng.sample(primes, 2)
        return Fraction(num, p * q)

    base = [[entry() for _ in range(cols)] for _ in range(rank)]
    mix = [[rng.randint(-3, 3) for _ in base] for _ in range(rows)]
    return [[sum(a * b[j] for a, b in zip(coeffs, base)) for j in range(cols)] for coeffs in mix]


def _reference_cases():
    rng = random.Random(2)
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        yield _random_matrix(rng, rows, cols)
        yield _sparse_matrix(rng, rows, cols)
        cols = rng.randint(2, 10)
        yield _low_rank_matrix(rng, rng.randint(cols, 4 * cols), cols, rng.randint(0, cols - 1))
    for _ in range(6):
        cols = rng.randint(2, 6)
        yield _big_matrix(rng, cols, cols, cols)  # full rank
        yield _big_matrix(rng, rng.randint(cols, 3 * cols), cols, rng.randint(1, cols - 1))
    yield [[Fraction(0)] * 3] * 4
    yield [[Fraction(0)]]


def _first_reference(rows, ncols):
    """The first canonical kernel vector of the dense reference, or None."""
    basis = _dense_nullspace(rows, ncols)
    return basis[0] if basis else None


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def test_matches_dense_reference():
    rng = random.Random(3)
    inconsistent = 0
    for m in _reference_cases():
        cols = len(m[0])
        reduced = linalg.rref(m)
        assert reduced == _dense_rref(m) and _all_fractions(reduced[0])
        kernel = linalg.nullspace(m, cols)
        assert kernel == _dense_nullspace(m, cols) and _all_fractions(kernel)
        assert linalg.first_null_vector(m, cols) == _first_reference(m, cols)
        assert linalg.rank(m) == len(_dense_rref(m)[1])
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
        consistent = [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in m]
        noisy = [b + rng.randint(-1, 1) for b in consistent]
        ref = _dense_solve(m, consistent)
        sol = linalg.solve(m, consistent)
        assert ref is not None and sol == ref and _all_fractions([sol])
        ref = _dense_solve(m, noisy)
        assert linalg.solve(m, noisy) == ref
        inconsistent += ref is None
    assert inconsistent > 30


def test_reads_between_rows_match_dense_reference():
    # the singular search reads the kernel of one elimination, then feeds
    # it more rows: every read must be the kernel of the rows so far, and
    # a read must not change what the later rows give
    rng = random.Random(4)
    reads = 0
    for m in _reference_cases():
        cols = len(m[0])
        state = linalg.Echelon(cols)
        k = 0
        while k < len(m):
            step = rng.randint(1, 3)
            rows = ({c: x for c, x in enumerate(r) if x} for r in m[k : k + step])
            grew = state.extend(linalg.sparse_rows(rows, cols))
            before = len(_dense_rref(m[:k])[1]) if k else 0
            k += step
            after = len(_dense_rref(m[:k])[1])
            assert grew == (len(state.pivots) > before)
            if len(state.pivots) == cols:
                assert after == cols
                break
            assert len(state.pivots) == after
            assert state.kernel() == _dense_nullspace(m[:k], cols)
            first = state.first_null()
            assert [Fraction(x, first[-1]) for x in first] == _dense_nullspace(m[:k], cols)[0][: len(first)]
            reads += 1
    assert reads > 100


def test_shape_mismatches_are_rejected():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
    with pytest.raises(ValueError):
        linalg.solve(rows, [Fraction(1), Fraction(2)])  # one right-hand side short
    with pytest.raises(ValueError):
        linalg.nullspace([[Fraction(1), Fraction(1), Fraction(1)]], 2)
    with pytest.raises(ValueError):
        linalg.first_null_vector([[Fraction(1), Fraction(1), Fraction(1)]], 2)
    # the short row arrives after full rank, where elimination could stop
    ragged = rows + [[Fraction(1)]]
    # and here after the first dependent row, where elimination does stop
    ragged_after_dependent = [[1, 2], [2, 4], [3, 6], [1]]
    for call in (
        lambda: linalg.rref(ragged),
        lambda: linalg.rank(ragged),
        lambda: linalg.nullspace(ragged, 2),
        lambda: linalg.solve(ragged, [Fraction(0)] * 4),
        lambda: linalg.first_null_vector(ragged, 2),
        lambda: linalg.first_null_vector(ragged_after_dependent, 2),
    ):
        with pytest.raises(ValueError):
            call()


def test_non_rational_entries_are_rejected():
    # a float or a string would otherwise be converted by Fraction(x):
    # 0.1 and 0.3 are not in ratio 1:3 in binary, so the rank would read 2
    for call in (
        lambda: linalg.rank([[0.1, 0.3], [1, 3]]),
        lambda: linalg.nullspace([["1/2", "1"]], 2),
        lambda: linalg.rref([[Fraction(1), None], [True, 2]]),
        lambda: linalg.solve([[1, 2]], [0.5]),
        lambda: linalg.nullspace(iter([{0: 1}, {1: 2.0}]), 2),
        lambda: linalg.first_null_vector([[1, 2], [2, 4], [0.5, 1]], 2),
        lambda: linalg.first_null_vector([[True, 2]], 2),
    ):
        with pytest.raises(ValueError):
            call()
    assert linalg.rank([[Fraction(1, 10), Fraction(3, 10)], [1, 3]]) == 1


@pytest.mark.parametrize("bad", [True, 0.5, "1", None], ids=repr)
def test_a_non_rational_entry_after_ints_is_rejected(bad):
    # plain ints pass on a type test; what follows them is still checked
    row = [3, -1, 4, 1, 5, bad]
    for call in (
        lambda: linalg.nullspace([[2, 7, 1, 8, 2, 8], row], 6),
        lambda: linalg.rref([row, [2, 7, 1, 8, 2, 8]]),
        lambda: linalg.rank([row]),
        lambda: linalg.nullspace(iter([{0: 2, 1: 7}, dict(enumerate(row))]), 6),
        lambda: linalg.first_null_vector([[2, 7, 1, 8, 2, 8], [4, 14, 2, 16, 4, 16], row], 6),
    ):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            call()


def test_int_rows_of_the_caller_are_left_unchanged():
    # _echelon reduces its rows in place, so an all-int row is copied first
    rows = [{0: 2, 1: 4, 2: 6}, {0: 1, 1: 3, 2: 5}, {0: 3, 1: 7, 2: 11}, {1: 0}]
    copies = [dict(r) for r in rows]
    assert linalg.nullspace(iter(rows), 3) == [[Fraction(1), Fraction(-2), Fraction(1)]]
    assert rows == copies


# -- lazily fed sparse rows ------------------------------------------------------


def test_lazy_sparse_rows_match_dense_reference():
    for m in _reference_cases():
        cols = len(m[0])
        rows = ({c: x for c, x in enumerate(r) if x} for r in m)
        kernel = linalg.nullspace(rows, cols)
        assert kernel == _dense_nullspace(m, cols) and _all_fractions(kernel)


def test_lazy_rows_are_not_pulled_past_full_rank():
    pulled = []

    def rows():
        for r in ({0: 1, 1: 2}, {0: 2, 1: 4}, {1: 3}, {0: 5}, {7: 1}):
            pulled.append(r)
            yield r

    assert linalg.nullspace(rows(), 2) == []
    assert len(pulled) == 3  # the third row completes the rank


def test_lazy_int_entries_stay_exact():
    # int / int would give a float in the pivot normalisation
    (v,) = linalg.nullspace(iter([{0: 2, 1: 1}]), 2)
    assert v == [Fraction(-1, 2), Fraction(1)]
    assert all(type(x) is Fraction for x in v)


def test_lazy_sparse_column_out_of_range_is_rejected():
    for bad in ({2: Fraction(1)}, {-1: Fraction(1)}, {Fraction(1): Fraction(1)}):
        with pytest.raises(ValueError):
            linalg.nullspace(iter([{0: Fraction(1)}, bad]), 2)


# -- streams with deferred back-substitution ------------------------------------------
# The forward pass leaves later pivot entries in earlier pivot rows and
# reduces a stale pivot row only once dependent rows keep meeting it; the
# reduced form it returns must still be the unique one.


def _entry(rng, fractions):
    n = rng.choice([k for k in range(-9, 10) if k])
    return Fraction(n, rng.randint(1, 6)) if fractions else n


def _sparse_stream(rng, ncols, rank, fractions, dependent):
    """Sparse rows of rank ``rank``: each new base row is followed by
    ``dependent`` integer combinations of the base rows so far, so
    dependent rows come both before and after the last pivot.  Base row
    ``i`` holds column ``order[i]`` and some of the columns after it in
    ``order``, so the base rows are independent."""
    order = rng.sample(range(ncols), ncols)
    base, rows = [], []
    for i in range(rank):
        later = order[i + 1 :]
        cols = [order[i]] + rng.sample(later, min(len(later), rng.randint(0, 3)))
        base.append({c: _entry(rng, fractions) for c in cols})
        rows.append(base[-1])
        for _ in range(dependent):
            combo = {}
            for b in rng.sample(base, min(len(base), rng.randint(1, 3))):
                a = rng.choice([-2, -1, 1, 2, 3])
                for c, x in b.items():
                    combo[c] = combo.get(c, 0) + a * x
            rows.append({c: x for c, x in combo.items() if x})
    return rows


def test_sparse_streams_match_dense_reference():
    rng = random.Random(12)
    full_rank = deficient = 0
    for trial in range(80):
        fractions = trial % 2 == 1
        ncols = rng.randint(2, 24)
        rank = ncols if trial % 4 < 2 else rng.randint(1, ncols - 1)
        dependent = rng.randint(1, 4)
        rows = _sparse_stream(rng, ncols, rank, fractions, dependent)
        dense = [[r.get(c, 0) for c in range(ncols)] for r in rows]
        pulled = []

        def stream():
            for r in rows:
                pulled.append(r)
                yield dict(r)

        kernel = linalg.nullspace(stream(), ncols)
        assert kernel == _dense_nullspace(dense, ncols) and _all_fractions(kernel)
        if kernel:
            deficient += 1
            assert len(pulled) == len(rows)
        else:
            # full rank mid-stream, at the last base row: no row after it is pulled
            full_rank += 1
            first = (rank - 1) * (dependent + 1) + 1
            assert len(_dense_rref(dense[: first - 1])[1]) < ncols
            assert len(_dense_rref(dense[:first])[1]) == ncols
            assert len(pulled) == first < len(rows)
    assert full_rank >= 20 and deficient >= 20


_RNG = random.Random(7)
_GENERIC_LABELS = [Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 5)) for _ in range(40)]


def _act_matrix(module, basis, probes):
    """The annihilation matrix built word by word with ``act``, as dense rows."""
    rows = {}
    for col, mono in enumerate(basis):
        for pi, probe in enumerate(probes):
            for out, c in module.act(probe, ModuleVector.of(mono)).items():
                rows.setdefault((pi, out), [Fraction(0)] * len(basis))[col] = c
    return list(rows.values())


@pytest.mark.parametrize(
    "weight, mu, bound, probe_index, probe_weight",
    [
        # generic explicit labels at (-4, 2), probes cut short so a kernel is left
        (HighestWeight.explicit(_GENERIC_LABELS, Fraction(3, 2)), -4, 2, -1, 3),
        # recurrent labels at -1, I = 3: the kernel holds the charpoly and its shifts
        (labels_from_charpoly(X**2 - 3 * X + Fraction(1, 2), Fraction(5, 3), [Fraction(2)]), -1, 3, 12, 3),
    ],
)
def test_annihilation_kernels_match_dense_reference(weight, mu, bound, probe_index, probe_weight):
    m = VermaModule(BlockAlgebra(INTEGERS), weight)
    basis = m.weight_basis(mu, bound)
    probes = reducibility._probe_generators(m, probe_weight, probe_index)
    rows = (row for p in probes for row in reducibility._annihilation_rows(m, basis, p))
    kernel = linalg.nullspace(rows, len(basis))
    assert kernel
    assert kernel == _dense_nullspace(_act_matrix(m, basis, probes), len(basis))


# -- the first kernel vector alone -------------------------------------------------
# first_null_vector eliminates rows only until one is dependent and checks
# the rest with a dot product against a candidate; a row that fails is
# eliminated and every row still waiting is checked again.


def _hankel(seq, nrows, ncols):
    return [seq[i : i + ncols] for i in range(nrows)]


def _first_null_cases():
    rng = random.Random(13)
    for trial in range(60):
        fractions = trial % 2 == 1
        d = rng.randint(1, 4)
        f = [_entry(rng, fractions) for _ in range(d)]
        seq = [_entry(rng, fractions) for _ in range(d)]
        ncols = d + 1 + rng.randint(0, 3)
        nrows = rng.randint(1, 3 * ncols)
        while len(seq) < nrows + ncols - 1:
            seq.append(-sum(a * x for a, x in zip(f, seq[-d:])))
        # Hankel rows of a sequence with a recurrence of order d
        yield _hankel(seq, nrows, ncols), ncols
        # a zero first row; and the first row again before the rows and after
        # them: elimination stops at the second row, rows in the middle fail
        # the first candidate, and the last row passes it
        yield [[0] * ncols] + _hankel(seq, nrows, ncols), ncols
        first = _hankel(seq, 1, ncols)
        yield first + _hankel(seq, nrows, ncols) + first, ncols
        # the entry at column d of the last row, which no other row reads at
        # a column <= d: of the rows after the first dependent one, only
        # the last fails the candidate the earlier rows leave
        seq[nrows - 1 + d] += 1
        yield _hankel(seq, nrows, ncols), ncols
        # fewer rows than columns, and more
        yield _random_matrix(rng, rng.randint(1, ncols - 1), ncols), ncols
        yield _low_rank_matrix(rng, 3 * ncols, ncols, rng.randint(0, ncols - 1)), ncols
    yield [], 0
    yield [], 1
    yield [], 4
    yield [[]], 0
    yield [[], []], 0
    yield [[0]], 1
    yield [[3]], 1
    yield [[0], [Fraction(1, 2)]], 1
    yield [[0, 0, 0], [0, 0, 0]], 3


def test_first_null_vector_matches_dense_reference():
    found = missing = 0
    for rows, ncols in _first_null_cases():
        v = linalg.first_null_vector(rows, ncols)
        assert v == _first_reference(rows, ncols)
        if v is None:
            missing += 1
        else:
            found += 1
            assert len(v) == ncols and _all_fractions([v])
    assert found > 150 and missing > 10

