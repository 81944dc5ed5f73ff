"""Reducibility detectors for highest weight modules over the integers.

Three detectors, provably equivalent for the untruncated module and
cross-checked here within explicit horizons:

1. a characteristic polynomial: a monic f of minimal degree whose label
   conditions hold, equivalently a weight -1 vector of the special form
   annihilated by the positive part;
2. a quasipolynomial generating series: the shadow sequence
   s_n = n*label(n-1) satisfies a constant-coefficient linear recurrence,
   equivalently the series cc + sum_i z^(i+1) label(i) / i! is a finite
   sum of polynomial-times-exponential terms;
3. explicit singular vectors found by exact nullspace computation on the
   truncated action of the positive part.

Negative verdicts are always "within horizon": a finite computation
cannot refute an infinite system.  Positive verdicts built from a
recurrent weight are full certificates.

The sweep-determinant identity: a positive generator applied to a word of
strictly decreasing parts is absorbed factor by factor, and each step
contributes one 2x2 determinant; the product gives the coefficient of the
surviving single-factor word in closed form.  ``sweep_coefficient``
evaluates the product (exactly, or symbolically in x) and ``sweep_check``
replays it through the straightening engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .groups import IntegerGroup, OrderedGroup
from .lie import Generator
from .polynomial import ONE, Poly, X, format_rational
from .verma import (
    HighestWeight,
    ModuleVector,
    PBWMonomial,
    RecurrentLabels,
    VermaModule,
)


class DetectorInconsistencyError(RuntimeError):
    """Two detectors disagreed where exact equivalence is guaranteed."""


# -- label conditions and the characteristic polynomial -------------------


def labels_from_charpoly(
    f: Poly, central_charge, initial: Sequence = ()
) -> HighestWeight:
    """Highest weight whose labels satisfy the conditions of ``f``.

    Probing the annihilation identity against t^m turns it into

        sum_j (j+m) a_j label(j+m-1) = (1 if m == 0 else 0) * f(0) * cc,

    which fixes every label beyond the d-1 free initial ones.  Degree 0
    (f = 1) forces the zero functional and is only accepted with zero
    central charge and no initial labels.
    """
    if not f.is_monic:
        raise ValueError("characteristic polynomial must be monic")
    cc = Fraction(central_charge)
    if f.degree == 0:
        if cc != 0 or initial:
            raise ValueError(
                "degree 0 is inconsistent unless the functional is zero"
            )
        return HighestWeight.zero()
    return HighestWeight(cc, RecurrentLabels(f, initial, cc))


def _condition_row(hw: HighestWeight, d: int, m: int) -> Tuple[List[Fraction], Fraction]:
    """Unknowns a_0..a_{d-1} of a monic degree-d candidate, probe t^m."""
    row = []
    for j in range(d):
        if j + m == 0:
            # the label of index -1 never appears: its coefficient is j+m = 0
            coef = Fraction(0)
        else:
            coef = (j + m) * hw.label(j + m - 1)
        if m == 0 and j == 0:
            coef -= hw.central_charge
        row.append(coef)
    rhs = -(d + m) * hw.label(d + m - 1)
    return row, rhs


def charpoly_from_labels(
    hw: HighestWeight, max_degree: int, horizon: int
) -> Optional[Poly]:
    """Minimal-degree monic polynomial satisfying all probes m <= horizon.

    Exact nullspace computation; the returned polynomial is the
    reduced-echelon canonical representative when the degree-d solution
    space has dimension above one.  A negative answer is only valid
    within the horizon; require horizon >= 2*max_degree + 2.
    """
    if horizon < 2 * max_degree + 2:
        raise ValueError("horizon must be at least 2*max_degree + 2")
    for d in range(0, max_degree + 1):
        if d == 0:
            ok = hw.central_charge == 0 and all(
                hw.shadow(m) == 0 for m in range(1, horizon + 1)
            )
            if ok:
                return ONE
            continue
        rows, rhs = [], []
        for m in range(0, horizon + 1):
            row, b = _condition_row(hw, d, m)
            rows.append(row)
            rhs.append(b)
        sol = linalg.solve(rows, rhs)
        if sol is not None:
            return Poly(sol + [Fraction(1)])
    return None


def charpoly_certificate(hw: HighestWeight, f: Poly) -> str:
    """'full' when the weight was generated by this very polynomial."""
    if isinstance(hw.labels, RecurrentLabels) and hw.labels.charpoly == f:
        return "full"
    return "within-horizon"


def m0_condition_holds(hw: HighestWeight, f: Poly) -> bool:
    """sum_j j a_j label(j-1) == f(0) * cc, the probe against t^0."""
    s = sum((f.coefficient(j) * hw.shadow(j) for j in range(f.degree + 1)), Fraction(0))
    return s == f.coefficient(0) * hw.central_charge


# -- generating series and the quasipolynomial test -----------------------


@dataclass
class QuasiVerdict:
    found: bool
    order: Optional[int] = None
    recurrence: Optional[Poly] = None
    max_order: int = 0
    horizon: int = 0

    def describe(self) -> str:
        if self.found:
            return f"quasipolynomial, recurrence {self.recurrence} (order {self.order})"
        return f"unknown within horizon (order <= {self.max_order}, probes <= {self.horizon})"

    def to_json(self) -> dict:
        return {
            "verdict": "yes" if self.found else "unknown-within-horizon",
            "order": self.order,
            "recurrence": (
                [format_rational(c) for c in self.recurrence.coeffs]
                if self.recurrence
                else None
            ),
            "max_order": self.max_order,
            "horizon": self.horizon,
        }


def delta_series(hw: HighestWeight, n: int) -> List[Fraction]:
    """Coefficients d_0..d_n of the generating series.

    d_0 is the central charge and d_(i+1) = label(i) / i!.  (The sign
    convention: the series is cc plus the label part; the quasipolynomial
    property does not depend on that choice.)
    """
    if n < 0:
        raise ValueError("series length must be >= 0")
    out = [hw.central_charge]
    for i in range(n):
        out.append(hw.label(i) / math.factorial(i))
    return out


def is_quasipolynomial(hw: HighestWeight, max_order: int, horizon: int) -> QuasiVerdict:
    """Minimal monic recurrence of the shadow sequence within the horizon.

    The series is a finite sum of polynomial-times-exponential terms iff
    the shadow sequence admits a constant-coefficient linear recurrence
    valid at every positive shift; the shift-m instance is exactly the
    t^m label condition, so a characteristic polynomial and a recurrence
    are two faces of one linear system (the t^0 probe, which also sees
    the central charge, is checked separately by the consolidated
    report).
    """
    if horizon < 2 * max_order + 2:
        raise ValueError("horizon must be at least 2*max_order + 2")
    for d in range(0, max_order + 1):
        if d == 0:
            if all(hw.shadow(m) == 0 for m in range(1, horizon + 1)):
                return QuasiVerdict(True, 0, ONE, max_order, horizon)
            continue
        rows = []
        rhs = []
        for m in range(1, horizon + 1):
            rows.append([hw.shadow(m + j) for j in range(d)])
            rhs.append(-hw.shadow(m + d))
        sol = linalg.solve(rows, rhs)
        if sol is not None:
            return QuasiVerdict(True, d, Poly(sol + [Fraction(1)]), max_order, horizon)
    return QuasiVerdict(False, None, None, max_order, horizon)


@dataclass
class DeltaReport:
    coefficients: List[Fraction]
    quasi: QuasiVerdict

    def to_json(self) -> dict:
        return {
            "coefficients": [format_rational(c) for c in self.coefficients],
            "quasipolynomial": self.quasi.to_json(),
        }


def delta_report(hw: HighestWeight, n: int, max_order: int, horizon: int) -> DeltaReport:
    return DeltaReport(delta_series(hw, n), is_quasipolynomial(hw, max_order, horizon))


# -- singular vector search ------------------------------------------------


@dataclass
class SingularReport:
    weight: object
    basis: List[PBWMonomial]
    candidates: List[ModuleVector]
    generator: Optional[ModuleVector]
    generator_dim: Optional[int]
    probes: List[Generator]
    max_index: int
    probe_index: int
    probe_weight: int
    residuals_checked: bool = False

    @property
    def dimension(self) -> int:
        return len(self.candidates)

    def horizon(self) -> dict:
        return {
            "max_t_index": self.max_index,
            "probe_k": self.probe_index,
            "probe_b": self.probe_weight,
        }

    def to_json(self, group: OrderedGroup) -> dict:
        return {
            "weight": str(self.weight),
            "horizon": self.horizon(),
            "basis_size": len(self.basis),
            "dimension": self.dimension,
            "candidates": [v.to_json(group) for v in self.candidates],
            "generator": self.generator.to_json(group) if self.generator else None,
            "generator_dim": self.generator_dim,
            "residuals_all_zero": self.residuals_checked,
            "note": "candidates are singular within the stated horizon only",
        }


def _probe_generators(module: VermaModule, probe_weight: int, probe_index: int, parts=None):
    """Positive generators used to probe annihilation.

    Over the integers: weights 1..probe_weight.  Any other instance needs
    the finite part catalog; its entries double as the probe weights.
    """
    g = module.group
    if isinstance(g, IntegerGroup):
        weights = list(range(1, probe_weight + 1))
    elif parts:
        weights = sorted(set(parts))
    else:
        raise ValueError(
            "singular search outside the integers needs a part catalog"
        )
    return [
        Generator(beta, k) for beta in weights for k in range(-1, probe_index + 1)
    ]


def _annihilation_matrix(
    module: VermaModule, basis: List[PBWMonomial], probes
) -> List[List[Fraction]]:
    rows: Dict[Tuple[int, PBWMonomial], List[Fraction]] = {}
    for col, mono in enumerate(basis):
        for pi, probe in enumerate(probes):
            img = module.act(probe, ModuleVector.of(mono))
            for out_mono, coeff in img.items():
                key = (pi, out_mono)
                if key not in rows:
                    rows[key] = [Fraction(0)] * len(basis)
                rows[key][col] += coeff
    return [rows[k] for k in sorted(rows, key=lambda k: (k[0], k[1].sort_key()))]


def _sub_kernel(kernel: List[List[Fraction]], cols: List[int]) -> List[List[Fraction]]:
    """Canonical basis of the kernel vectors supported on ``cols``.

    ``kernel`` is a nullspace basis of some matrix A and ``cols`` an
    increasing column list.  The result, written over ``cols``, equals
    ``linalg.nullspace`` of A restricted to ``cols`` without touching A:
    that canonical basis is the reduced-echelon basis of the same space
    with the columns reversed, listed from the last row up.  Eliminating
    the other columns first leaves exactly the vectors that vanish there.
    """
    if not kernel:
        return []
    keep = set(cols)
    rest = [c for c in range(len(kernel[0])) if c not in keep]
    reduced, pivots = linalg.rref([[v[c] for c in rest + cols[::-1]] for v in kernel])
    n = len(rest)
    return [row[n:][::-1] for row, p in zip(reduced, pivots) if p >= n][::-1]


def singular_candidates(
    module: VermaModule,
    mu,
    max_index: int,
    probe_index: int,
    probe_weight: int,
    parts: Optional[Sequence] = None,
) -> SingularReport:
    """Nullspace of the truncated positive action at weight ``mu``.

    Exact: a candidate is annihilated by every probed generator.  The
    report also singles out a *generator*: the canonical candidate living
    at the smallest index horizon that already admits one (for weight -1
    this is the characteristic polynomial direction; the remaining
    candidates are its index shifts).  The matrix is eliminated once: the
    candidates at an index bound are the kernel vectors that vanish on
    every basis word with a larger index, so the generator and its
    ``generator_dim`` are read off the full kernel.  Every candidate is
    re-verified by acting on it directly, an independent path through the
    straightening engine.
    """
    g = module.group
    if g.compare(mu, g.zero()) >= 0:
        raise ValueError("singular candidates live at strictly negative weights")
    basis = module.weight_basis(mu, max_index, parts=parts)
    probes = _probe_generators(module, probe_weight, probe_index, parts=parts)
    matrix = _annihilation_matrix(module, basis, probes)
    kernel = linalg.nullspace(matrix, len(basis))
    candidates = [
        ModuleVector({m: c for m, c in zip(basis, v) if c}) for v in kernel
    ]

    # distinguished minimal-horizon candidate, read off the one kernel
    generator = None
    generator_dim = None
    for bound in range(-1, max_index + 1):
        low = [i for i, m in enumerate(basis) if all(ix <= bound for _, ix in m.factors)]
        sub = _sub_kernel(kernel, low)
        if sub:
            generator_dim = len(sub)
            # the canonical vector's last nonzero coefficient is already 1
            generator = ModuleVector({basis[i]: c for i, c in zip(low, sub[0]) if c})
            break

    # independent re-verification: exact zero under every probe
    for cand in candidates:
        for probe in probes:
            if not module.act(probe, cand).is_zero():
                raise DetectorInconsistencyError(
                    f"candidate {cand} fails probe {probe}: matrix assembly bug"
                )
    return SingularReport(
        weight=mu,
        basis=basis,
        candidates=candidates,
        generator=generator,
        generator_dim=generator_dim,
        probes=probes,
        max_index=max_index,
        probe_index=probe_index,
        probe_weight=probe_weight,
        residuals_checked=True,
    )


# -- certified verification of weight -1 singular vectors ------------------


@dataclass
class SingularCheck:
    passed: bool
    residuals: List[Tuple[int, Fraction]]
    engine_zero: List[Tuple[int, bool]]
    higher_weight_zero: bool
    certificate: str
    failing_probe: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "certificate": self.certificate,
            "failing_probe": self.failing_probe,
            "residuals": [
                [m, format_rational(r)] for m, r in self.residuals
            ],
            "engine_zero": [[m, z] for m, z in self.engine_zero],
            "higher_weight_probes_zero": self.higher_weight_zero,
        }


def polynomial_of_vector(v: ModuleVector) -> Poly:
    """The f with v = sum f_(i+1) L(-1,i) v; rejects other shapes."""
    coeffs: Dict[int, Fraction] = {}
    for mono, c in v.items():
        if mono.length != 1 or mono.factors[0][0] != 1:
            raise ValueError("vector is not in the span of L(-1,i) words")
        coeffs[mono.factors[0][1] + 1] = c
    n = max(coeffs) + 1 if coeffs else 0
    return Poly([coeffs.get(i, Fraction(0)) for i in range(n)])


def vector_of_polynomial(f: Poly) -> ModuleVector:
    return ModuleVector(
        {PBWMonomial(((1, n - 1),)): c for n, c in enumerate(f.coeffs) if c}
    )


def verify_singular(
    module: VermaModule,
    v: ModuleVector,
    f: Poly,
    probes: int = 20,
) -> SingularCheck:
    """Check that ``v`` (the weight -1 vector of ``f``) is singular.

    Two numeric paths per probe m <= probes: the label expansion of the
    annihilation identity against t^m, and the straightening engine
    applied with the corresponding positive generator (index m-1).  When
    the weight is recurrent with this very polynomial, the conditions
    hold at every probe by construction and the verdict is a full
    certificate rather than horizon-limited.  Positive generators of
    weight >= 2 land in strictly positive weight and vanish
    automatically; a sample is confirmed through the engine.
    """
    if polynomial_of_vector(v) != f:
        raise ValueError("vector and polynomial disagree")
    hw = module.hw
    residuals = []
    engine_zero = []
    failing = None
    for m in range(0, probes + 1):
        # label path: value of the functional on f' t^m + m f t^(m-1),
        # minus the central correction at m = 0
        p = f.derivative().shifted(m)
        if m >= 1:
            p = p + m * f.shifted(m - 1)
        r = sum((c * hw.label(i) for i, c in enumerate(p.coeffs)), Fraction(0))
        if m == 0:
            r -= f.coefficient(0) * hw.central_charge
        residuals.append((m, r))
        image = module.act(Generator(1, m - 1), v)
        engine_zero.append((m, image.is_zero()))
        if (r != 0 or not image.is_zero()) and failing is None:
            failing = m
        if (r == 0) != image.is_zero():
            raise DetectorInconsistencyError(
                f"label path and engine disagree at probe {m}"
            )
    higher = all(
        module.act(Generator(beta, k), v).is_zero()
        for beta in (2, 3)
        for k in (-1, 0, 3)
    )
    certificate = "within-horizon"
    if failing is None and charpoly_certificate(hw, f) == "full":
        certificate = "full"
    return SingularCheck(
        passed=failing is None and higher,
        residuals=residuals,
        engine_zero=engine_zero,
        higher_weight_zero=higher,
        certificate=certificate,
        failing_probe=failing,
    )


# -- sweep determinants ----------------------------------------------------


def sweep_coefficient(x, parts: Sequence[Tuple[object, int]], probe_index: int):
    """Product of the absorption determinants along a word.

    ``parts`` lists the word's factors in normal order (parts strictly
    increasing left to right); ``x`` is the weight of the sweeping
    positive generator and may be a Fraction or a symbolic Poly.  Factor
    by factor the sweep picks up

        | probe_index + K + 1     k + 1 |
        | x - E                  -eps   |

    where K and E accumulate the indices and parts already absorbed.
    """
    acc_idx = 0
    acc_part = Fraction(0)
    prod = x * 0 + 1
    for eps, k in parts:
        det = (probe_index + acc_idx + 1) * (-eps) - (k + 1) * (x - acc_part)
        prod = prod * det
        acc_idx += k
        acc_part += eps
    return prod


@dataclass
class SweepCheck:
    passed: bool
    expected: Fraction
    from_engine: Fraction
    target: Optional[PBWMonomial]
    extra_terms: int

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "expected": str(self.expected),
            "from_engine": str(self.from_engine),
            "target": str(self.target) if self.target else None,
            "extra_terms": self.extra_terms,
        }


def sweep_check(
    module: VermaModule,
    eps,
    parts: Sequence[Tuple[object, int]],
    probe_index: int,
) -> SweepCheck:
    """Replay the determinant product through the straightening engine.

    Builds the word of ``parts`` (strictly decreasing parts, all larger
    than ``eps``), applies the positive generator of weight
    (sum of parts) - eps, and compares the coefficient of the surviving
    word L(-eps, probe_index + sum of indices) v with the determinant
    product at x = that weight.
    """
    g = module.group
    g.validate(eps)
    if not g.is_positive(eps):
        raise ValueError("eps must be positive")
    prev = None
    for p, k in parts:
        g.validate(p)
        if g.compare(eps, p) >= 0:
            raise ValueError("eps must be smaller than every part")
        if prev is not None and g.compare(prev, p) >= 0:
            raise ValueError("parts must be strictly increasing in normal order")
        if k < -1:
            raise ValueError("index must be >= -1")
        prev = p
    word = module.monomial(parts)
    total = g.zero()
    for p, _ in parts:
        total = g.add(total, p)
    x = g.sub(total, eps)  # weight of the sweeping generator
    ksum = sum(k for _, k in parts)
    result = module.act(Generator(x, probe_index), ModuleVector.of(word))
    expected = sweep_coefficient(
        g.scalarize(x), [(g.scalarize(p), k) for p, k in parts], probe_index
    )
    target = None
    got = Fraction(0)
    if probe_index + ksum >= -1:
        target = PBWMonomial(((eps, probe_index + ksum),))
        got = result.coefficient(target)
    extra = sum(1 for m, _ in result.items() if m != target)
    return SweepCheck(
        passed=(expected == got and extra == 0),
        expected=expected,
        from_engine=got,
        target=target,
        extra_terms=extra,
    )


# -- consolidated report -----------------------------------------------------


@dataclass
class ReducibilityReport:
    weight_summary: str
    charpoly: Optional[Poly]
    charpoly_certificate: str
    quasi: QuasiVerdict
    singular: SingularReport
    reducible_within_horizon: bool
    verdict: str
    horizons: dict

    def to_json(self, group: OrderedGroup) -> dict:
        return {
            "weight": self.weight_summary,
            "charpoly": (
                {
                    "coefficients": [format_rational(c) for c in self.charpoly.coeffs],
                    "degree": self.charpoly.degree,
                    "certificate": self.charpoly_certificate,
                }
                if self.charpoly is not None
                else None
            ),
            "quasipolynomial": self.quasi.to_json(),
            "singular": self.singular.to_json(group),
            "reducible_within_horizon": self.reducible_within_horizon,
            "verdict": self.verdict,
            "horizons": self.horizons,
        }


def _label_side_kernel(hw: HighestWeight, max_degree: int, probes: int):
    """Solution space of the annihilation conditions, degree <= max_degree.

    Assembled directly from the labels (coefficients of dimension
    max_degree + 1, constant term included), independently of the
    straightening engine; rows are the t^m probes for m <= probes.
    """
    ncols = max_degree + 1
    rows = []
    for m in range(0, probes + 1):
        row = []
        for n in range(ncols):
            coef = Fraction(0) if n + m == 0 else (n + m) * hw.label(n + m - 1)
            if m == 0 and n == 0:
                coef -= hw.central_charge
            row.append(coef)
        rows.append(row)
    return linalg.nullspace(rows, ncols)


def reducibility_report(
    module: VermaModule,
    max_degree: int = 4,
    horizon: int = 14,
    max_index: int = 3,
    probe_index: int = 12,
    probe_weight: int = 3,
) -> ReducibilityReport:
    """Run all three detectors and enforce their exact cross-relations.

    Any disagreement between detectors at matched horizons is an
    implementation bug and raises ``DetectorInconsistencyError``.
    """
    hw = module.hw
    if not isinstance(module.group, IntegerGroup):
        raise ValueError("the consolidated report runs over the integers")

    cp = charpoly_from_labels(hw, max_degree, horizon)
    qp = is_quasipolynomial(hw, max_degree, horizon)
    sr = singular_candidates(module, -1, max_index, probe_index, probe_weight)

    # recurrence <-> characteristic polynomial.  The m >= 1 probes are one
    # shared system, so within the common horizon the following are exact:
    # a characteristic polynomial is a recurrence (with the t^0 probe on
    # top), the minimal recurrence with a passing t^0 probe is *the*
    # characteristic polynomial, and a failing t^0 probe pushes the
    # characteristic degree strictly above the recurrence order (its
    # index-shift then passes all probes).
    if cp is not None and not qp.found:
        raise DetectorInconsistencyError(
            "characteristic polynomial exists but no recurrence was found"
        )
    if qp.found:
        if m0_condition_holds(hw, qp.recurrence):
            if cp != qp.recurrence:
                raise DetectorInconsistencyError(
                    f"recurrence {qp.recurrence} passes every probe but the "
                    f"characteristic polynomial came out as {cp}"
                )
        else:
            if cp is not None and cp.degree <= qp.order:
                raise DetectorInconsistencyError(
                    "characteristic polynomial below the recurrence order"
                )
            if hw.is_recurrent():
                # recurrent weights satisfy the conditions identically, so
                # the shifted recurrence is the unique minimal solution
                want = qp.recurrence * X
                expect = want if want.degree <= max_degree else None
                if cp != expect:
                    raise DetectorInconsistencyError(
                        f"expected characteristic polynomial {expect}, got {cp}"
                    )

    # singular candidates <-> label-side solution space, matched horizons
    label_kernel = _label_side_kernel(hw, max_index + 1, probe_index + 1)
    matrix_kernel = [
        [v.coefficient(m) for m in sr.basis] for v in sr.candidates
    ]
    # same canonical form on both sides: compare as reduced bases
    lk = linalg.rref(label_kernel)[0] if label_kernel else []
    mk = linalg.rref(matrix_kernel)[0] if matrix_kernel else []
    if [r for r in lk if any(r)] != [r for r in mk if any(r)]:
        raise DetectorInconsistencyError(
            "weight -1 candidate space disagrees with the label conditions"
        )

    reducible = cp is not None or qp.found or bool(sr.candidates)
    horizons = {
        "max_degree": max_degree,
        "horizon": horizon,
        "max_t_index": max_index,
        "probe_k": probe_index,
        "probe_b": probe_weight,
    }
    if reducible:
        verdict = (
            "reducible within horizon: a singular vector exists, so the module "
            "is reducible and its irreducible quotient has finite-dimensional "
            "weight spaces (a proper quotient is exactly the quasifinite case)"
        )
    else:
        verdict = (
            "no reducibility witness within horizon "
            f"{horizons}; negative verdicts are horizon-limited evidence"
        )
    return ReducibilityReport(
        weight_summary=hw.describe(),
        charpoly=cp,
        charpoly_certificate=(charpoly_certificate(hw, cp) if cp is not None else "none"),
        quasi=qp,
        singular=sr,
        reducible_within_horizon=reducible,
        verdict=verdict,
        horizons=horizons,
    )
