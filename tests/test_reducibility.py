import json
import math
import random
from fractions import Fraction

import pytest

from blockalg import linalg, reducibility
from blockalg.groups import DYADIC, INTEGERS, LEX_Z2
from blockalg.lie import BlockAlgebra, Generator
from blockalg.polynomial import ONE, Poly, X
from blockalg.reducibility import (
    DetectorInconsistencyError,
    QuasiVerdict,
    _label_conditions,
    _label_side_kernel,
    _minimal_monic,
    charpoly_certificate,
    charpoly_from_labels,
    delta_series,
    is_quasipolynomial,
    labels_from_charpoly,
    m0_condition_holds,
    polynomial_of_vector,
    reducibility_report,
    singular_candidates,
    sweep_check,
    sweep_coefficient,
    vector_of_polynomial,
    verify_singular,
)
from blockalg.verma import (
    HighestWeight,
    ModuleVector,
    StraighteningLimitError,
    VermaModule,
    _raw_key,
)

ALG = BlockAlgebra(INTEGERS)

RANDOMISH = [
    Fraction(n, d)
    for n, d in [
        (1, 1), (1, 7), (3, 1), (-2, 1), (5, 1), (8, 1), (-3, 2), (2, 1), (7, 1),
        (-1, 1), (4, 1), (1, 3), (-5, 1), (2, 9), (6, 1), (-7, 1), (3, 1), (1, 1),
        (-2, 1), (5, 1),
    ]
]


def module(hw, group=INTEGERS):
    return VermaModule(BlockAlgebra(group), hw)


# -- labels from a characteristic polynomial ---------------------------------


def test_labels_from_charpoly_examples():
    assert all(labels_from_charpoly(X, 9).label(m) == 0 for m in range(10))
    hw = labels_from_charpoly(X + 1, 1)
    assert [hw.label(m) for m in range(4)] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)
    ]
    assert all(labels_from_charpoly(X, 0).label(m) == 0 for m in range(10))


def test_labels_from_charpoly_validation():
    with pytest.raises(ValueError):
        labels_from_charpoly(2 * X, 1)
    with pytest.raises(ValueError):
        labels_from_charpoly(ONE, 1)  # degree 0 with a nonzero functional
    assert labels_from_charpoly(ONE, 0).label(5) == 0


def _poly_residual(hw, f, m):
    """The t^m probe of f by plain polynomial arithmetic: the functional on
    f'(t) t^m + f(t) (t^m)', evaluated on the labels, minus f(0)*cc at m = 0."""
    p = f.derivative().shifted(m)
    if m >= 1:
        p = p + m * f.shifted(m - 1)
    value = sum((c * hw.label(i) for i, c in enumerate(p.coeffs)), Fraction(0))
    return value - f.coefficient(0) * hw.central_charge if m == 0 else value


def test_label_recurrence_against_symbolic_expansion():
    # independent oracle: the polynomial expansion of each probe vanishes
    rng = random.Random(0)
    for _ in range(25):
        d = rng.randint(1, 4)
        f = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)] + [1])
        cc = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        initial = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d - 1)]
        hw = labels_from_charpoly(f, cc, initial)
        for m in range(0, 11):
            assert _poly_residual(hw, f, m) == 0


def _fraction_labels(f: Poly, cc: Fraction, initial, n: int):
    """Labels 0..n-1 of the recurrence of ``f``, in plain Fraction arithmetic."""
    d = f.degree
    a = [Fraction(c) for c in f.coeffs]
    lab = [Fraction(x) for x in initial]
    while len(lab) < n:
        k = len(lab)
        if k == d - 1:
            s = a[0] * cc - sum((j * a[j] * lab[j - 1] for j in range(1, d)), Fraction(0))
            lab.append(s / d)
        else:
            m = k - d + 1
            s = sum(((j + m) * a[j] * lab[j + m - 1] for j in range(d)), Fraction(0))
            lab.append(-s / (d + m))
    return lab


def _recurrent_cases():
    rng = random.Random(19)
    for d in range(1, 7):
        for integral in (True, False):
            if integral:
                cs = [rng.randint(-7, 7) for _ in range(d)]
            else:
                cs = [Fraction(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(d)]
            initial = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(d - 1)]
            yield Poly(cs + [1]), Fraction(rng.randint(-5, 5), rng.randint(1, 4)), initial
    yield X**3 - Fraction(2, 3) * X, Fraction(5, 2), [Fraction(1), Fraction(-1, 2)]  # a_0 = 0
    yield X**2 + 3 * X - 1, Fraction(0), [Fraction(7, 5)]  # cc = 0
    yield X**2 - Fraction(1, 997) * X + Fraction(3, 997), Fraction(2, 7), [Fraction(1, 997)]
    yield X**4, Fraction(1, 3), [Fraction(1), Fraction(2), Fraction(3)]  # no lower term


@pytest.mark.parametrize(
    "f, cc, initial", [pytest.param(*case, id=str(case[0])) for case in _recurrent_cases()]
)
def test_recurrent_labels_match_a_fraction_recurrence(f, cc, initial):
    # the labels are built in integers over one denominator per label; every
    # value, and its type, is the one the Fraction recurrence gives
    hw = labels_from_charpoly(f, cc, initial)
    got = [hw.label(i) for i in range(121)]
    assert got == _fraction_labels(f, cc, initial, 121)
    assert all(type(x) is Fraction for x in got)


def _reference_conditions(hw, first, last, ncols):
    """The t^m probes from ``hw.shadow`` as Fractions, cleared by one lcm."""
    rows = [
        [hw.shadow(n + m) - (hw.central_charge if m == n == 0 else 0) for n in range(ncols)]
        for m in range(first, last + 1)
    ]
    den = math.lcm(*[x.denominator for row in rows for x in row])
    return [[int(x * den) for x in row] for row in rows]


@pytest.mark.parametrize("first", [0, 1])
def test_label_conditions_match_the_shadow_reference(first):
    # the Hankel rows are built from int pairs; they equal the shadows
    # n*label(n-1), with the corner corrected by cc, cleared by one lcm
    weights = [HighestWeight.zero(), HighestWeight.explicit([], Fraction(-3, 4))]
    weights += [labels_from_charpoly(f, cc, initial) for f, cc, initial in _recurrent_cases()]
    rng = random.Random(23)
    for n in (1, 4, 9):  # stored labels end before the horizon
        labels = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
        weights.append(HighestWeight.explicit(labels, Fraction(rng.randint(-4, 4), rng.randint(1, 5))))
    for hw in weights:
        for last, ncols in [(first, 1), (6, 3), (14, 5), (30, 9)]:
            rows = reducibility._label_conditions(hw, first, last, ncols)
            assert rows == _reference_conditions(hw, first, last, ncols)
            assert all(type(x) is int for row in rows for x in row)


def _residual_cases():
    """Seeded (weight, f) pairs: recurrent weights against their own
    charpoly, its shift and random polynomials, and explicit weights, some
    with fewer stored labels than the probes reach."""
    rng = random.Random(29)

    def poly():
        cs = [
            rng.randint(-5, 5) if rng.random() < 0.5 else Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            for _ in range(rng.randint(0, 6))
        ]
        return Poly(cs)

    for f, cc, initial in _recurrent_cases():
        hw = labels_from_charpoly(f, cc, initial)
        for g in [f, f * X, f + 1, ONE, Poly([])] + [poly() for _ in range(10)]:
            yield hw, g
    for n in (0, 3, 8, 20, 40):
        for cc in (Fraction(0), Fraction(rng.randint(-6, 6), rng.randint(1, 5))):
            labels = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            hw = HighestWeight.explicit(labels, cc)
            for g in [X, X**2, ONE] + [poly() for _ in range(12)]:
                yield hw, g


def test_label_residual_matches_the_poly_expansion():
    # one formula, sum_n f_n shadow(n+m) - [m = 0] f(0) cc, against the
    # polynomial expansion, in value and in type; it vanishes exactly where
    # row m of the label conditions does on f
    horizon = 24
    cases = zero = 0
    for hw, f in _residual_cases():
        ncols = max(1, len(f.coeffs))
        rows = _label_conditions(hw, 0, horizon, ncols)
        for m in range(horizon + 1):
            got = reducibility._label_residual(hw, f, m)
            want = _poly_residual(hw, f, m)
            assert got == want and type(got) is type(want) is Fraction
            dot = sum(a * f.coefficient(n) for n, a in enumerate(rows[m]))
            assert (got == 0) == (dot == 0)
            cases += 1
            zero += got == 0
    assert cases > 7000 and 1000 < zero < cases - 1000


def test_m0_consistency_for_recurrent_weights():
    rng = random.Random(1)
    for _ in range(25):
        d = rng.randint(1, 4)
        f = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)] + [1])
        cc = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        initial = [Fraction(rng.randint(-6, 6)) for _ in range(d - 1)]
        hw = labels_from_charpoly(f, cc, initial)
        assert m0_condition_holds(hw, f)


# -- recovering the polynomial -------------------------------------------------


def test_charpoly_roundtrip_example():
    hw = labels_from_charpoly(X + 1, 1)
    assert charpoly_from_labels(hw, 4, 14) == X + 1
    assert charpoly_certificate(hw, X + 1) == "full"


def test_charpoly_zero_functional():
    assert charpoly_from_labels(HighestWeight.zero(), 4, 14) == ONE


def test_charpoly_generic_labels_none():
    hw = HighestWeight.explicit(RANDOMISH, Fraction(2))
    assert charpoly_from_labels(hw, 4, 12) is None


def test_charpoly_horizon_precondition():
    with pytest.raises(ValueError):
        charpoly_from_labels(HighestWeight.zero(), 4, 9)


def test_charpoly_shifts_past_a_failing_constant_probe():
    # zero labels with nonzero central charge: the minimal recurrence is 1
    # but its constant probe fails, so the polynomial picks up a factor t
    hw = HighestWeight.explicit([], Fraction(3))
    assert charpoly_from_labels(hw, 4, 14) == X
    qp = is_quasipolynomial(hw, 4, 14)
    assert qp.found and qp.order == 0 and qp.recurrence == ONE
    assert not m0_condition_holds(hw, ONE)


def test_negative_degree_bounds_are_rejected():
    hw = labels_from_charpoly(X + 1, 1)
    with pytest.raises(ValueError, match="max_degree"):
        charpoly_from_labels(hw, -1, 14)
    with pytest.raises(ValueError, match="max_order"):
        is_quasipolynomial(hw, -2, 14)


# -- reference: one solve per trial degree, as the detectors once did ----------


def _reference_condition_row(hw, d, m):
    row = []
    for j in range(d):
        coef = Fraction(0) if j + m == 0 else (j + m) * hw.label(j + m - 1)
        if m == 0 and j == 0:
            coef -= hw.central_charge
        row.append(coef)
    return row, -(d + m) * hw.label(d + m - 1)


def _reference_charpoly(hw, max_degree, horizon):
    for d in range(0, max_degree + 1):
        if d == 0:
            if hw.central_charge == 0 and all(
                hw.shadow(m) == 0 for m in range(1, horizon + 1)
            ):
                return ONE
            continue
        rows, rhs = zip(*(_reference_condition_row(hw, d, m) for m in range(horizon + 1)))
        sol = linalg.solve(list(rows), list(rhs))
        if sol is not None:
            return Poly(sol + [Fraction(1)])
    return None


def _reference_quasi(hw, max_order, horizon):
    for d in range(0, max_order + 1):
        if d == 0:
            if all(hw.shadow(m) == 0 for m in range(1, horizon + 1)):
                return QuasiVerdict(True, 0, ONE, max_order, horizon)
            continue
        rows = [[hw.shadow(m + j) for j in range(d)] for m in range(1, horizon + 1)]
        rhs = [-hw.shadow(m + d) for m in range(1, horizon + 1)]
        sol = linalg.solve(rows, rhs)
        if sol is not None:
            return QuasiVerdict(True, d, Poly(sol + [Fraction(1)]), max_order, horizon)
    return QuasiVerdict(False, None, None, max_order, horizon)


def _reference_label_kernel(hw, max_degree, probes):
    rows = []
    for m in range(0, probes + 1):
        row = []
        for n in range(max_degree + 1):
            coef = Fraction(0) if n + m == 0 else (n + m) * hw.label(n + m - 1)
            if m == 0 and n == 0:
                coef -= hw.central_charge
            row.append(coef)
        rows.append(row)
    return linalg.nullspace(rows, max_degree + 1)


def _reference_weights():
    rng = random.Random(5)

    def rat():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    weights = [
        HighestWeight.zero(),  # all-zero labels, cc = 0
        HighestWeight.explicit([], Fraction(3)),  # failing t^0 probe
        labels_from_charpoly(X, Fraction(-2)),  # f = t
        labels_from_charpoly(X + 1, 0),  # cc = 0
        HighestWeight.explicit(RANDOMISH, Fraction(2)),
    ]
    for _ in range(40):
        d = rng.randint(1, 4)
        f = Poly([rat() for _ in range(d)] + [1])
        cc = rng.choice([Fraction(0), rat()])
        hw = labels_from_charpoly(f, cc, [rat() for _ in range(d - 1)])
        weights.append(hw)
        # same labels, another central charge: the t^0 probe fails
        weights.append(HighestWeight.explicit([hw.label(i) for i in range(40)], cc + 1))
        n = rng.randint(0, 12)
        weights.append(HighestWeight.explicit([rat() for _ in range(n)], rng.choice([0, rat()])))
    return weights


def test_label_detectors_match_per_degree_reference():
    for hw in _reference_weights():
        for max_degree, horizon in [(0, 2), (0, 7), (1, 4), (3, 9), (4, 14), (6, 20)]:
            assert charpoly_from_labels(hw, max_degree, horizon) == _reference_charpoly(
                hw, max_degree, horizon
            )
            assert is_quasipolynomial(hw, max_degree, horizon) == _reference_quasi(
                hw, max_degree, horizon
            )
        for max_degree, probes in [(0, 0), (0, 5), (2, 3), (4, 13), (5, 8)]:
            assert _label_side_kernel(hw, max_degree, probes) == _reference_label_kernel(
                hw, max_degree, probes
            )


def test_charpoly_eliminates_probes_only_until_one_is_dependent(monkeypatch):
    # degree 2 at D = 8, N = 30: two probes make pivots, the third is
    # dependent, and the 28 probes after it are checked by dot product
    f = Poly([Fraction(2, 5), Fraction(-1, 3), 1])
    hw = labels_from_charpoly(f, Fraction(3, 7), [Fraction(1, 2)])
    eliminate, calls = linalg._eliminate, []

    def counted(*args):
        calls.append(1)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert charpoly_from_labels(hw, 8, 30) == f
    assert len(calls) <= 3


def _detector_weights():
    """Seeded zero, explicit and recurrent (d = 1..4) weights, and each
    recurrent one with the label that the last probe at (D, N) = (8, 30)
    reads at column d perturbed."""
    rng = random.Random(23)

    def rat():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    weights = [(HighestWeight.zero(), None)]
    for d in range(1, 5):
        for _ in range(3):
            f = Poly([rat() for _ in range(d)] + [1])
            cc = rng.choice([Fraction(0), rat()])
            hw = labels_from_charpoly(f, cc, [rat() for _ in range(d - 1)])
            weights.append((hw, None))
            labels = [hw.label(i) for i in range(40)]
            labels[30 + d - 1] += 1
            weights.append((HighestWeight.explicit(labels, cc), f))
        explicit = [rat() for _ in range(rng.randint(0, 12))]
        weights.append((HighestWeight.explicit(explicit, rat()), None))
    return weights


def test_label_detectors_match_the_full_nullspace():
    for hw, broken in _detector_weights():
        for max_degree, horizon in [(8, 30), (4, 14), (6, 20)]:
            ncols = max_degree + 1
            found = []
            for first in (0, 1):
                kernel = linalg.nullspace(_label_conditions(hw, first, horizon, ncols), ncols)
                found.append(Poly(kernel[0]) if kernel else None)
            assert charpoly_from_labels(hw, max_degree, horizon) == found[0]
            qp = is_quasipolynomial(hw, max_degree, horizon)
            assert qp.found == (found[1] is not None) and qp.recurrence == found[1]
            if broken is not None and (max_degree, horizon) == (8, 30):
                # only the last probe reads the perturbed label at a column
                # <= d, and it refutes the recurrence the others satisfy
                assert found[0] != broken and found[1] != broken


def test_engine_path_matches_the_public_gate_on_the_same_rows():
    # the detectors send the rows of _label_conditions past linalg's input
    # gate; on those rows they must give what the gated nullspace gives,
    # and leave the rows as they were
    for hw, _ in _detector_weights():
        for max_degree, horizon in [(0, 2), (2, 6), (4, 10), (8, 18), (8, 30)]:
            ncols = max_degree + 1
            for first in (0, 1):
                rows = _label_conditions(hw, first, horizon, ncols)
                before = [list(r) for r in rows]
                kernel = linalg.nullspace(rows, ncols)
                v = kernel[0] if kernel else None
                assert _minimal_monic(rows, ncols) == (None if v is None else Poly(v))
                assert linalg.first_null_unchecked(rows, ncols) == v and rows == before
            rows = _label_conditions(hw, 0, horizon, ncols)
            assert _label_side_kernel(hw, max_degree, horizon) == linalg.nullspace(rows, ncols)


# -- generating series ----------------------------------------------------------


def test_delta_series_examples():
    hw = labels_from_charpoly(X + 1, 1)
    assert delta_series(hw, 4) == [
        Fraction(1), Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 24)
    ]
    assert delta_series(HighestWeight.zero(), 3) == [Fraction(0)] * 4
    constant = labels_from_charpoly(X, 5)
    assert delta_series(constant, 5) == [Fraction(5)] + [Fraction(0)] * 5


def test_quasipolynomial_examples():
    hw = labels_from_charpoly(X + 1, 1)
    assert [hw.shadow(n) for n in range(1, 5)] == [1, -1, 1, -1]
    qp = is_quasipolynomial(hw, 4, 14)
    assert qp.found and qp.order == 1 and qp.recurrence == X + 1
    assert is_quasipolynomial(HighestWeight.zero(), 4, 14).order == 0
    random_hw = HighestWeight.explicit(RANDOMISH, Fraction(2))
    assert not is_quasipolynomial(random_hw, 4, 12).found


# -- singular candidates ----------------------------------------------------------


def test_singular_candidates_zero_labels():
    hw = HighestWeight.explicit([], Fraction(3))
    rep = singular_candidates(module(hw), -1, 2, 10, 3)
    target = module(hw).vector([(1, 0)])
    assert any(v == target for v in rep.candidates)
    assert rep.generator == target
    assert rep.dimension == 3  # index shifts of the generator at I=2


def test_singular_candidates_charpoly_case():
    hw = labels_from_charpoly(X + 1, 1)
    rep = singular_candidates(module(hw), -1, 1, 10, 3)
    want = vector_of_polynomial(X + 1)
    assert rep.generator == want
    assert rep.generator_dim == 1
    assert rep.dimension == 2


def test_singular_candidates_generic_empty():
    hw = HighestWeight.explicit(RANDOMISH, Fraction(2))
    rep = singular_candidates(module(hw), -1, 2, 10, 3)
    assert rep.dimension == 0 and rep.generator is None


def test_singular_candidates_dyadic_catalog():
    # on a dense instance the part catalog supplies both the basis parts
    # and the probe weights
    hw = HighestWeight.explicit(RANDOMISH, Fraction(2))
    m = module(hw, DYADIC)
    catalog = [Fraction(1, 2), Fraction(1)]
    rep = singular_candidates(m, Fraction(-1), 1, 8, 2, parts=catalog)
    assert len(rep.basis) == 3 + 6  # [1] and [1/2,1/2] decompositions
    assert rep.dimension == 0
    with pytest.raises(ValueError):
        singular_candidates(m, Fraction(-1), 1, 8, 2)
    # a recurrent weight: the generator first appears at index bound 1
    m = module(labels_from_charpoly(X * X + 1, 2, [Fraction(1, 2)]), DYADIC)
    rep = singular_candidates(m, Fraction(-1, 2), 3, 8, 2, parts=catalog)
    assert len(rep.basis) == 5 and rep.dimension == 3
    assert rep.generator == m.vector([(Fraction(1, 2), -1)]) + m.vector([(Fraction(1, 2), 1)])
    assert rep.generator_dim == 1


def test_singular_report_writes_no_probe_weight_outside_the_integers():
    # the part catalog sets the dyadic probe weights, so the report names
    # no probe weight there; over the integers it is the bound searched
    hw = HighestWeight.explicit(RANDOMISH, Fraction(2))
    rep = singular_candidates(module(hw, DYADIC), Fraction(-1, 2), 1, 2, 5, parts=[Fraction(1, 2)])
    assert rep.to_json(DYADIC)["horizon"] == {"max_t_index": 1, "probe_k": 2, "probe_b": None}
    rep = singular_candidates(module(hw), -1, 1, 2, 5)
    assert rep.to_json(INTEGERS)["horizon"]["probe_b"] == 5


def test_singular_candidates_refuse_lex_z2_before_enumerating(monkeypatch):
    # lex-z2 weight spaces need a word-length bound and its rows hold Q[w]
    # entries, so the search names the groups it supports and straightens
    # nothing
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the weight space was enumerated")

    monkeypatch.setattr(VermaModule, "weight_basis", enumerate_nothing)
    m = module(HighestWeight.explicit(RANDOMISH, Fraction(2)), LEX_Z2)
    with pytest.raises(ValueError, match="runs over the integers and the dyadics"):
        singular_candidates(m, (-1, 0), 1, 2, 2, parts=[(0, 1), (1, 0)])


# probe horizons that are not ints are refused before any straightening
_NOT_INTS = [1.5, 2.0, True, False, "2", Fraction(2)]


@pytest.mark.parametrize("bad", _NOT_INTS, ids=repr)
def test_singular_candidates_refuse_a_probe_index_that_is_not_an_int(bad):
    m = module(HighestWeight.explicit(RANDOMISH, Fraction(2)))
    with pytest.raises(ValueError, match="probe_index must be an integer, not"):
        singular_candidates(m, -1, 1, bad, 2)


@pytest.mark.parametrize("bad", _NOT_INTS, ids=repr)
def test_singular_candidates_refuse_a_probe_weight_that_is_not_an_int(bad):
    # the dyadic search probes with its part catalog and does not report
    # the probe weight, but the rule is the same
    hw = HighestWeight.explicit(RANDOMISH, Fraction(2))
    with pytest.raises(ValueError, match="probe_weight must be an integer, not"):
        singular_candidates(module(hw), -1, 1, 2, bad)
    with pytest.raises(ValueError, match="probe_weight must be an integer, not"):
        singular_candidates(module(hw, DYADIC), Fraction(-1, 2), 1, 2, bad, parts=[Fraction(1, 2)])


@pytest.mark.parametrize("bad", _NOT_INTS, ids=repr)
def test_label_detectors_refuse_horizons_that_are_not_ints(bad):
    # a degree, order or series length of True ran as 1 and a float ended
    # in a bare TypeError; the horizon takes the same rule
    hw = HighestWeight.explicit(RANDOMISH, Fraction(2))
    for call, name in (
        (lambda: charpoly_from_labels(hw, bad, 14), "max_degree"),
        (lambda: charpoly_from_labels(hw, 2, bad), "horizon"),
        (lambda: is_quasipolynomial(hw, bad, 14), "max_order"),
        (lambda: is_quasipolynomial(hw, 2, bad), "horizon"),
        (lambda: delta_series(hw, bad), "series length"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer, not"):
            call()


def test_singular_candidates_reject_nonnegative_weight():
    with pytest.raises(ValueError):
        singular_candidates(module(HighestWeight.zero()), 0, 2, 10, 3)


def test_candidates_annihilated_on_independent_path():
    hw = labels_from_charpoly(X + 1, 1)
    m = module(hw)
    rep = singular_candidates(m, -1, 3, 12, 3)
    for v in rep.candidates:
        for beta in (1, 2, 3):
            for k in range(-1, 13):
                assert m.act(Generator(beta, k), v).is_zero()


def test_singular_candidates_at_weight_minus_two():
    # even for the zero functional a two-factor word is not singular: the
    # sweep leaves structure-constant terms that never touch the labels,
    # e.g. L(1,k) on L(-1,i)L(-1,j)v ends in (k+i+2)(k+i+1) L(-1,k+i+j)v
    hw = HighestWeight.zero()
    m = module(hw)
    img = m.act(Generator(1, 2), m.vector([(1, 0), (1, 0)]))
    assert img == Fraction(12) * m.vector([(1, 2)])
    rep = singular_candidates(m, -2, 0, 6, 2)
    assert rep.dimension == 0


# -- streamed assembly against the dense reference -------------------------------
# The assembly the streamed rows replaced, kept verbatim: every (probe, word)
# pair is straightened and every row is a dense list before elimination.


def _dense_annihilation_matrix(module, basis, probes):
    rows = {}
    for col, mono in enumerate(basis):
        for pi, probe in enumerate(probes):
            img = module.act(probe, ModuleVector.of(mono))
            for out_mono, coeff in img.items():
                key = (pi, out_mono)
                if key not in rows:
                    rows[key] = [Fraction(0)] * len(basis)
                rows[key][col] += coeff
    return [rows[k] for k in sorted(rows, key=lambda k: (k[0], k[1].sort_key()))]


def _streamed_search_cases():
    rng = random.Random(6)
    for _ in range(2):
        labels = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(30)]
        hw = HighestWeight.explicit(labels, Fraction(rng.randint(1, 7), 2))
        for mu, bound in ((-1, 2), (-2, 1), (-3, 1)):
            yield module(hw), mu, bound, 6, 3, None
    recurrent = [labels_from_charpoly(X + 1, 1), labels_from_charpoly(X * X + 1, 2, [Fraction(1, 2)])]
    zero_labels = [HighestWeight.explicit([], Fraction(3)), HighestWeight.zero()]
    for hw in recurrent + zero_labels:
        for mu, bound in ((-1, 2), (-1, 3), (-2, 1)):
            yield module(hw), mu, bound, 6, 3, None
    # at -1/2 the catalog's part 1 is heavier than -mu: the search skips
    # its probes, the reference straightens them
    catalog = [Fraction(1, 2), Fraction(1)]
    explicit = HighestWeight.explicit(RANDOMISH, Fraction(2))
    yield module(explicit, DYADIC), Fraction(-1), 1, 8, 2, catalog
    yield module(explicit, DYADIC), Fraction(-1, 2), 2, 8, 2, catalog
    yield module(recurrent[1], DYADIC), Fraction(-1, 2), 3, 8, 2, catalog
    # no lex-z2 case: its weight spaces need a word-length bound and its
    # rows hold Q[w] entries, and the search supports neither


def _dense_reference(m, mu, bound, k, b, parts):
    """The search's report, from every probe's dense rows through
    ``linalg.nullspace``: the kernel of the whole matrix, and the
    generator from the kernel of its columns up to each index bound."""
    basis = m.weight_basis(mu, bound, parts=parts)
    every = reducibility._probe_generators(m, b, k, parts=parts)
    rows = _dense_annihilation_matrix(m, basis, every)
    kernel = linalg.nullspace(rows, len(basis))
    generator = generator_dim = None
    reach = [max(ix for _, ix in w.factors) for w in basis]
    for top in range(-1, bound + 1) if kernel else ():
        low = [i for i, r in enumerate(reach) if r <= top]
        sub = linalg.nullspace([[row[i] for i in low] for row in rows], len(low))
        if sub:
            generator_dim = len(sub)
            generator = ModuleVector({basis[i]: c for i, c in zip(low, sub[0]) if c})
            break
    return reducibility.SingularReport(
        weight=mu,
        basis=basis,
        candidates=[ModuleVector({w: c for w, c in zip(basis, v) if c}) for v in kernel],
        generator=generator,
        generator_dim=generator_dim,
        probes=every,
        max_index=bound,
        probe_index=k,
        probe_weight=b,
    )


def test_streamed_search_matches_dense_reference():
    full_rank = deficient = heavier = 0
    for m, mu, bound, k, b, parts in _streamed_search_cases():
        got = singular_candidates(m, mu, bound, k, b, parts=parts)
        # the reference straightens every probe of the horizon
        ref = _dense_reference(m, mu, bound, k, b, parts)
        g = m.group
        assert json.dumps(got.to_json(g)) == json.dumps(ref.to_json(g))
        assert got.probes == ref.probes
        full_rank += got.dimension == 0
        deficient += got.dimension > 0
        heavier += any(g.compare(p.alpha, g.neg(mu)) > 0 for p in got.probes)
    assert full_rank >= 5 and deficient >= 5 and heavier >= 10


def _log_straightening(monkeypatch):
    """Log every probe run (``action_rows``), every plain ``act`` and every
    ``act_each``, in order."""
    log = []
    for name in ("action_rows", "act", "act_each"):
        real = getattr(VermaModule, name)

        def logged(self, sym, arg, name=name, real=real):
            log.append((name, sym, arg))
            return real(self, sym, arg)

        monkeypatch.setattr(VermaModule, name, logged)
    return log


def test_full_rank_search_stops_straightening_early(monkeypatch):
    m = module(HighestWeight.explicit(RANDOMISH, Fraction(2)))
    log = _log_straightening(monkeypatch)
    rep = singular_candidates(m, -3, 2, 10, 3)
    assert rep.dimension == 0
    # at most 5 of the 36 probes straighten, in order, each over the
    # whole basis; with no candidate nothing is re-verified
    assert 1 <= len(log) <= 5
    assert [(name, sym) for name, sym, _ in log] == [
        ("action_rows", p) for p in rep.probes[: len(log)]
    ]
    assert all(arg == rep.basis for _, _, arg in log)
    assert len(rep.probes) == 3 * 12  # the report still lists every probe


def test_rank_deficient_search_acts_on_every_live_probe(monkeypatch):
    m = module(labels_from_charpoly(X + 1, 1))
    log = _log_straightening(monkeypatch)
    rep = singular_candidates(m, -1, 3, 12, 3)
    assert rep.dimension == 4
    # at -1 only the weight-1 probes are live
    live = [p for p in rep.probes if p.alpha == 1]
    assert len(live) == 14 and len(rep.probes) == 3 * 14  # the report still lists every probe
    # the first probe makes the one pivot and the second adds none, so
    # only those two are assembled, each over the whole basis.  Every
    # later probe acts on all four candidates in one run and is never
    # assembled.  Last, each assembled probe does the same.
    assert log == (
        [("action_rows", p, rep.basis) for p in live[:2]]
        + [("act_each", p, rep.candidates) for p in live[2:]]
        + [("act_each", p, rep.candidates) for p in live[:2]]
    )


def _duplicate_first_probe(monkeypatch):
    """Probe the first generator twice, so the second probe adds no pivot."""
    real = reducibility._probe_generators

    def doubled(*args, **kwargs):
        probes = real(*args, **kwargs)
        return probes[:1] + probes

    monkeypatch.setattr(reducibility, "_probe_generators", doubled)


@pytest.mark.parametrize(
    "hw, mu, bound, dimension",
    [
        (labels_from_charpoly(Poly([Fraction(2, 5), Fraction(-1, 3), 1]), Fraction(3, 7),
                              [Fraction(1, 2)]), -1, 3, 3),
        (HighestWeight.explicit(RANDOMISH, Fraction(2)), -2, 2, 0),
    ],
    ids=["kernel-left", "full-rank"],
)
def test_a_probe_that_cuts_the_kernel_is_assembled_and_the_scan_goes_on(
    monkeypatch, hw, mu, bound, dimension
):
    m = module(hw)
    want = singular_candidates(m, mu, bound, 12, 3)
    with monkeypatch.context() as patch:
        _duplicate_first_probe(patch)
        log = _log_straightening(patch)
        got = singular_candidates(m, mu, bound, 12, 3)
    # the repeated probe adds no pivot, so the kernel is read after two
    # probes; the next probe fails its check, is assembled
    # and cuts the kernel, and assembly goes on until a probe adds no
    # pivot, or the rank is full
    live = [p for p in got.probes if p.alpha <= -mu]
    p0, p1, p2 = live[0], live[2], live[3]
    assert live[1] == p0
    assert [(name, sym) for name, sym, _ in log[:5]] == [
        ("action_rows", p0), ("action_rows", p0), ("act_each", p1), ("action_rows", p1),
        ("action_rows", p2),
    ]
    assert got.dimension == want.dimension == dimension
    if dimension:
        # p2 adds no pivot: the kernel is read again, and every later
        # probe passes its check on it
        assert log[5:] == [("act_each", p, got.candidates) for p in live[4:] + live[:4]]
    else:
        assert len(log) == 5
    assert json.dumps(got.to_json(INTEGERS)) == json.dumps(want.to_json(INTEGERS))
    ref = _dense_reference(m, mu, bound, 12, 3, None)
    assert json.dumps(got.to_json(INTEGERS)) == json.dumps(ref.to_json(INTEGERS))


def _perturbed(f, cc, index):
    """The recurrent weight of ``f`` with label ``index`` raised by 1."""
    base = labels_from_charpoly(f, cc)
    labels = [base.label(i) for i in range(40)]
    labels[index] += 1
    return HighestWeight.explicit(labels, cc)


def test_a_corrupted_row_of_an_assembled_probe_raises(monkeypatch):
    # at -1, I = 3, K = 12 only the last probe L(1,12) reads label 16: the
    # first two probes leave a kernel of dimension 4, L(1,12) fails its
    # check, is assembled and cuts it to 3, and no other probe could
    m = module(_perturbed(X + 1, 1, 16))
    last = Generator(1, 12)
    with monkeypatch.context() as patch:
        log = _log_straightening(patch)
        assert singular_candidates(m, -1, 3, 12, 3).dimension == 3
    assert [sym.index for name, sym, _ in log if name == "action_rows"] == [-1, 0, 12]
    # a first entry dropped from its row leaves a candidate that the probe
    # does not kill, and the re-verification by straightening sees it
    real = VermaModule.action_rows

    def corrupted(self, probe, basis):
        rows = real(self, probe, basis)
        if probe == last:
            (row,) = rows
            del row[min(row)]
        return rows

    monkeypatch.setattr(VermaModule, "action_rows", corrupted)
    with pytest.raises(DetectorInconsistencyError, match="matrix assembly bug"):
        singular_candidates(m, -1, 3, 12, 3)


def _dropping_first_terms(real):
    """``act_each`` with the first term of every image dropped."""

    def dropping(self, sym, vecs):
        return [ModuleVector(dict(v.items()[1:])) for v in real(self, sym, vecs)]

    return dropping


def test_a_check_that_drops_a_term_is_caught_by_the_label_side(monkeypatch):
    # a recurrent weight with one label perturbed: the first probes see
    # the recurrence, so the kernel is read early, and a later probe that
    # reaches the perturbed label cuts it
    hw = _perturbed(X + 1, 1, 8)
    with monkeypatch.context() as patch:
        log = _log_straightening(patch)
        assert reducibility_report(module(hw)).singular.dimension == 0
    checked = [sym for name, sym, _ in log if name == "act_each"]
    assert set(checked) & {sym for name, sym, _ in log if name == "action_rows"}
    # a check run that drops the first term of each image passes every
    # probe, so the search keeps the early kernel
    monkeypatch.setattr(VermaModule, "act_each", _dropping_first_terms(VermaModule.act_each))
    with pytest.raises(DetectorInconsistencyError, match="candidate space"):
        reducibility_report(module(hw))


def test_a_check_that_loses_its_images_goes_unseen_away_from_minus_one(monkeypatch):
    # the pinned -2 search on a recurrent weight with label 18 raised: the
    # first five probes leave a kernel of dimension 6, and the later
    # probes L(1,9)..L(1,12), which reach label 18, fail their checks and
    # cut it to {0}
    base = labels_from_charpoly(Poly([Fraction(2, 5), Fraction(-1, 3), 1]), Fraction(3, 7),
                                [Fraction(1, 2)])
    labels = [base.label(i) for i in range(40)]
    labels[18] += 1
    m = module(HighestWeight.explicit(labels, Fraction(3, 7)))
    with monkeypatch.context() as patch:
        log = _log_straightening(patch)
        assert singular_candidates(m, -2, 8, 12, 3).dimension == 0
    assert [sym.index for name, sym, _ in log if name == "action_rows"] == [
        -1, 0, 1, 2, 3, 9, 10, 11, 12
    ]
    # a checked probe is verified by straightening alone: an act_each that
    # loses every term passes each check, the early kernel stands, and
    # nothing raises, since no label-side kernel exists away from -1.
    # Only the label side of reducibility_report, at -1, would see it
    monkeypatch.setattr(VermaModule, "act_each",
                        lambda self, sym, vecs: [ModuleVector({}) for _ in vecs])
    assert singular_candidates(m, -2, 8, 12, 3).dimension == 6


def _rows_in_word_order(module, probe, basis):
    """A probe's rows from one run, in the order of their output words
    (:meth:`PBWMonomial.sort_key`) rather than sparsest first."""
    cols, _, _ = module._run(probe, basis)
    rows = {}
    for j, words in enumerate(cols):
        for w, c in words.items():
            rows.setdefault(w, {})[j] = c
    return [rows[w] for w in sorted(rows, key=_raw_key)]


def _row_key(row):
    return sorted(row.items())


def test_annihilation_rows_come_sparsest_first_within_each_probe(monkeypatch):
    # the elimination checks nothing, so every row action_rows hands it
    # must be a fresh dict of nonzero ints at columns of the basis
    deep = module(HighestWeight.explicit(RANDOMISH, Fraction(2))), -3, 2, 10, 3, None
    reordered = full_rank = 0
    for m, mu, bound, k, b, parts in [*_streamed_search_cases(), deep]:
        g = m.group
        basis = m.weight_basis(mu, bound, parts=parts)
        probes = reducibility._probe_generators(m, b, k, parts=parts)
        live = [p for p in probes if g.compare(p.alpha, g.neg(mu)) <= 0]
        for p in live:
            got = m.action_rows(p, basis)
            assert all(type(r) is dict for r in got)
            assert all(
                type(c) is int and 0 <= c < len(basis) and type(x) is int and x
                for r in got
                for c, x in r.items()
            )
            word_order = _rows_in_word_order(m, p, basis)
            # the same rows, as a multiset, with entry counts never falling
            # and rows of equal count in word order
            assert sorted(map(_row_key, got)) == sorted(map(_row_key, word_order))
            assert [len(r) for r in got] == sorted(len(r) for r in got)
            assert got == sorted(word_order, key=len)
            reordered += [len(r) for r in word_order] != [len(r) for r in got]
        # the search straightens the same probes, and re-verifies the same
        # candidates, as it does on rows in word order
        with monkeypatch.context() as patch:
            log = _log_straightening(patch)
            got = singular_candidates(m, mu, bound, k, b, parts=parts)
        with monkeypatch.context() as patch:
            patch.setattr(VermaModule, "action_rows", _rows_in_word_order)
            ref_log = _log_straightening(patch)
            ref = singular_candidates(m, mu, bound, k, b, parts=parts)
        assert log == ref_log
        assert json.dumps(got.to_json(g)) == json.dumps(ref.to_json(g))
        full_rank += got.dimension == 0 and len(log) < len(live)
    # the order matters somewhere, and full rank still stops early
    assert reordered >= 50 and full_rank >= 5


def test_probes_heavier_than_the_weight_annihilate_every_basis_word():
    # the grading argument behind skipping them: L(beta,k) sends weight mu
    # to mu+beta > 0, where the module is zero
    explicit = HighestWeight.explicit(RANDOMISH, Fraction(2))
    cases = [
        (module(labels_from_charpoly(X + 1, 1)), -1, 3, 3, None, None),
        (module(explicit), -2, 2, 4, None, None),
        (module(explicit, DYADIC), Fraction(-3, 4), 2, 0,
         [Fraction(1, 4), Fraction(3, 4), Fraction(7, 8), Fraction(1)], None),
        (module(explicit, LEX_Z2), (-1, 5), 1, 0, [(0, 1), (1, -6), (1, -4), (2, -9)], 3),
    ]
    for m, mu, bound, b, parts, max_parts in cases:
        g = m.group
        basis = m.weight_basis(mu, bound, parts=parts, max_parts=max_parts)
        probes = reducibility._probe_generators(m, b, 4, parts=parts)
        dead = [p for p in probes if g.compare(p.alpha, g.neg(mu)) > 0]
        assert basis and dead
        for p in dead:
            for word in basis:
                assert m.act(p, ModuleVector.of(word)).is_zero()
        # a live probe does reach the weight space
        live = [p for p in probes if p not in dead]
        assert any(m.act(p, ModuleVector.of(w)) for p in live for w in basis)


def test_oversized_search_is_a_straightening_limit():
    # the probe runs give each basis word the module's step budget; at -2
    # three steps cannot straighten a word, and the search fails loudly
    m = VermaModule(ALG, HighestWeight.explicit(RANDOMISH, Fraction(2)), step_budget=3)
    with pytest.raises(StraighteningLimitError, match="3-step budget"):
        singular_candidates(m, -2, 2, 10, 3)


def test_vacuous_horizons_are_rejected():
    m = module(labels_from_charpoly(X + 1, 1))
    for bad in ((-1, -2, 12, 3), (-1, 3, -2, 3), (-2, 3, 12, 0)):
        with pytest.raises(ValueError):
            singular_candidates(m, *bad)
    # the probe weight is read off the catalog outside the integers
    d = module(HighestWeight.zero(), DYADIC)
    rep = singular_candidates(d, Fraction(-1), 0, 2, 0, parts=[Fraction(1)])
    assert rep.probes


# -- certified verification ---------------------------------------------------------


def test_verify_singular_passes():
    hw = labels_from_charpoly(X, Fraction(4, 7))
    m = module(hw)
    res = verify_singular(m, vector_of_polynomial(X), X, probes=20)
    assert res.passed and res.certificate == "full"
    assert all(r == 0 for _, r in res.residuals)


def test_verify_singular_perturbation_fails():
    hw = labels_from_charpoly(X + 1, 1)
    m = module(hw)
    f = X + 1 + X**2
    res = verify_singular(m, vector_of_polynomial(f), f, probes=10)
    assert not res.passed
    assert res.failing_probe == 0
    assert dict(res.residuals)[1] != 0  # the probe of index 0 breaks too


def test_verify_singular_shape_checks():
    hw = labels_from_charpoly(X + 1, 1)
    m = module(hw)
    with pytest.raises(ValueError):
        verify_singular(m, vector_of_polynomial(X + 1), X, probes=5)
    with pytest.raises(ValueError):
        polynomial_of_vector(m.vector([(2, 0)]))


def test_verify_singular_refuses_checks_that_check_nothing():
    m = module(HighestWeight.explicit([5, 7, 9], 1))
    f = X + 1
    v = vector_of_polynomial(f)
    res = verify_singular(m, v, f, probes=20)
    assert not res.passed and res.failing_probe == 0
    # no probe at all would pass it; a bool or a float is no probe count
    for probes in (-1, True, 2.5):
        with pytest.raises(ValueError, match="probes"):
            verify_singular(m, v, f, probes=probes)
    assert len(verify_singular(m, v, f, probes=0).residuals) == 1
    # the zero vector is annihilated by everything and is not singular
    with pytest.raises(ValueError, match="zero vector"):
        verify_singular(m, ModuleVector.zero(), Poly([]))


# -- sweep determinants ----------------------------------------------------------------


def test_sweep_coefficient_worked_instances():
    assert sweep_coefficient(Fraction(1, 2), [(Fraction(1), 2)], 0) == Fraction(-5, 2)
    assert sweep_coefficient(Fraction(1, 2), [(Fraction(1), -1)], 0) == Fraction(-1)


def test_sweep_coefficient_all_lowest_indices():
    # with x = 0 and every index -1 only the part column survives
    parts = [(Fraction(1, 2), -1), (Fraction(1), -1), (Fraction(2), -1)]
    prod = Fraction(1)
    acc = 0
    for eps, k in parts:
        prod *= (0 + acc + 1) * (-eps)
        acc += k
    assert sweep_coefficient(Fraction(0), parts, 0) == prod


def test_sweep_check_engine_agreement():
    rng = random.Random(2)
    alg = BlockAlgebra(DYADIC)
    hw = HighestWeight.explicit([1, Fraction(2, 3), -2], Fraction(5))
    m = VermaModule(alg, hw)
    done = 0
    while done < 40:
        r = rng.randint(1, 3)
        pool = sorted(
            {Fraction(rng.randint(1, 48), 2 ** rng.randint(0, 3)) for _ in range(r + 3)}
        )
        if len(pool) < r + 1:
            continue
        eps, chain = pool[0], pool[1 : r + 1]
        parts = [(p, rng.randint(-1, 4)) for p in chain]
        res = sweep_check(m, eps, parts, rng.randint(-1, 4))
        assert res.passed, (parts, res)
        done += 1


def test_sweep_check_validates_order():
    m = module(HighestWeight.zero(), DYADIC)
    with pytest.raises(ValueError):
        sweep_check(m, Fraction(2), [(Fraction(1), 0)], 0)  # eps too large
    with pytest.raises(ValueError):
        sweep_check(
            m, Fraction(1, 4), [(Fraction(1), 0), (Fraction(1, 2), 0)], 0
        )  # parts must increase


def test_sweep_degree_gap():
    # symbolically in x: the full word has degree r, proper subwords less
    rng = random.Random(3)
    for _ in range(40):
        r = rng.randint(2, 4)
        eps = sorted(
            rng.sample([Fraction(n, 4) for n in range(1, 40)], r)
        )
        ks = [rng.randint(0, 4) for _ in range(r)]
        full = sweep_coefficient(X, list(zip(eps, ks)), rng.randint(-1, 4))
        assert full.degree == r
        l = rng.randint(1, r - 1)
        sub_parts = sorted(rng.sample(list(zip(eps, ks)), l))
        sub_idx = [(p, rng.randint(-1, 4)) for p, _ in sub_parts]
        sub = sweep_coefficient(X, sub_idx, rng.randint(-1, 4))
        assert sub.degree < full.degree


# -- the consolidated report ---------------------------------------------------------------


def test_report_positive_case():
    hw = labels_from_charpoly(X + 1, 1)
    rep = reducibility_report(module(hw))
    assert rep.reducible_within_horizon
    assert rep.charpoly == X + 1 and rep.charpoly_certificate == "full"
    assert rep.quasi.recurrence == X + 1
    assert rep.singular.generator == vector_of_polynomial(X + 1)
    assert "quotient" in rep.verdict


def test_report_generic_negative():
    hw = HighestWeight.explicit(RANDOMISH, Fraction(2))
    rep = reducibility_report(module(hw), max_degree=4, horizon=12, max_index=2,
                              probe_index=10, probe_weight=3)
    assert not rep.reducible_within_horizon
    assert rep.charpoly is None and not rep.quasi.found
    assert rep.singular.dimension == 0
    assert "within horizon" in rep.verdict


def test_report_zero_functional():
    rep = reducibility_report(module(HighestWeight.zero()))
    assert rep.charpoly == ONE
    assert rep.quasi.order == 0
    # every truncated weight -1 vector is singular for the zero functional
    assert rep.singular.dimension == len(rep.singular.basis)


def test_report_shifted_charpoly_case():
    hw = HighestWeight.explicit([], Fraction(3))
    rep = reducibility_report(module(hw))
    assert rep.charpoly == X
    assert rep.quasi.order == 0
    assert rep.reducible_within_horizon


def test_report_requires_integers():
    hw = HighestWeight.zero()
    with pytest.raises(ValueError):
        reducibility_report(module(hw, DYADIC))


def test_report_still_catches_a_wrong_label_side_kernel(monkeypatch):
    # the label detectors share one condition builder; the report must still
    # notice when its label-side kernel disagrees with the engine's kernel
    real = reducibility._label_conditions

    def perturbed(hw, first, last, ncols):
        rows = real(hw, first, last, ncols)
        if (first, last) == (0, 13):  # the label-side kernel at probe_k = 12
            rows[5][0] += 1
        return rows

    monkeypatch.setattr(reducibility, "_label_conditions", perturbed)
    hw = labels_from_charpoly(X + 1, 1)
    with pytest.raises(DetectorInconsistencyError, match="candidate space"):
        reducibility_report(module(hw), max_degree=4, horizon=14, max_index=3, probe_index=12)
