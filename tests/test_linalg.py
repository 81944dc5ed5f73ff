import random
from fractions import Fraction

import pytest
import sympy

from blockalg import linalg


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


def test_shape_mismatches_are_rejected():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
    with pytest.raises(ValueError):
        linalg.solve(rows, [Fraction(1), Fraction(2)])  # one right-hand side short
    with pytest.raises(ValueError):
        linalg.nullspace([[Fraction(1), Fraction(1), Fraction(1)]], 2)
    # the short row arrives after full rank, where elimination could stop
    ragged = rows + [[Fraction(1)]]
    for call in (
        lambda: linalg.rref(ragged),
        lambda: linalg.rank(ragged),
        lambda: linalg.nullspace(ragged, 2),
        lambda: linalg.solve(ragged, [Fraction(0)] * 4),
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
    ):
        with pytest.raises(ValueError):
            call()
    assert linalg.rank([[Fraction(1, 10), Fraction(3, 10)], [1, 3]]) == 1


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
