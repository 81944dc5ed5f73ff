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

The label side of detectors 1 and 2, and the label-side kernel the
report checks detector 3 against, are one linear system: probing
f = sum_n a_n t^n against t^m gives the row (n+m)*label(n+m-1), minus
the central charge at m = n = 0 (``_label_conditions``).  The
characteristic polynomial reads the probes m >= 0 and the recurrence
the probes m >= 1.  Each detector builds its own matrix over the
coefficients a_0..a_D and asks ``linalg.first_null_vector`` for its
first canonical kernel vector.  That vector has a 1 at the first free
column d and vanishes beyond it, so it is a monic polynomial of degree
d, and columns 0..d-1 are all pivots exactly when no lower degree fits,
which makes it the unique monic solution of minimal degree.  The probes
are eliminated in order only until one is dependent, which on a
recurrent weight of degree d is usually the probe after the first d;
every later probe costs one exact dot product with the candidate
instead of an elimination step.  Detector 3 does the same with whole
probes of the positive part: it assembles and eliminates their rows only
until a probe adds no pivot, and checks each later probe on the kernel by
straightening (``singular_candidates``).

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
from .groups import IntegerGroup, LexPairGroup, OrderedGroup
from .lie import Coeff, Generator, coeff_json
from .polynomial import Poly, X, check_int, exact_fraction, format_rational
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
    cc = exact_fraction(central_charge)
    if f.degree == 0:
        if cc != 0 or initial:
            raise ValueError(
                "degree 0 is inconsistent unless the functional is zero"
            )
        return HighestWeight.zero()
    return HighestWeight(cc, RecurrentLabels(f, initial, cc))


def _label_conditions(
    hw: HighestWeight, first: int, last: int, ncols: int
) -> List[List[int]]:
    """The t^m label probes for m = first..last, on coefficients a_0..a_(ncols-1).

    Row m, column n is the coefficient of a_n in the probe of
    f = sum_n a_n t^n against t^m:

        (n+m) * label(n+m-1) - [m = n = 0] * cc,

    i.e. the shadow s_(n+m) with the central charge taken off at the
    corner, times one positive integer for the whole system: the lcm of
    the denominators, so every entry is an ``int`` and the kernel is the
    same.  Every label detector reads this one system.  It is a Hankel
    matrix, so each shadow is computed and cleared once and every row is
    a slice of that one list; the corner is the only entry at index 0.
    No ``Fraction`` is built: with label(k-1) = p/q in lowest terms, the
    shadow k*p/q is the int pair (k/g * p, q/g) with g = gcd(k, q), in
    lowest terms too, and the corner is the pair of -cc.
    """
    nums, dens = [], []
    for k in range(first, last + ncols):
        if k:
            x = hw.label(k - 1)
            q = x.denominator
            g = math.gcd(k, q)
            nums.append(k // g * x.numerator)
            dens.append(q // g)
        else:
            nums.append(-hw.central_charge.numerator)
            dens.append(hw.central_charge.denominator)
    den = math.lcm(*dens)
    shadows = [n * (den // q) for n, q in zip(nums, dens)]
    return [shadows[i : i + ncols] for i in range(last - first + 1)]


def _minimal_monic(rows: List[List[int]], ncols: int) -> Optional[Poly]:
    """The unique lowest-degree monic f in the kernel of ``rows``, or None.

    It is the first canonical kernel vector (see the module docstring),
    which ``linalg.first_null_vector`` finds without eliminating the rows
    that the candidate already satisfies.
    """
    v = linalg.first_null_vector(rows, ncols)
    return None if v is None else Poly(v)


def charpoly_from_labels(
    hw: HighestWeight, max_degree: int, horizon: int
) -> Optional[Poly]:
    """Minimal-degree monic polynomial satisfying all probes m <= horizon.

    The probes m = 0..horizon over the coefficients a_0..a_max_degree
    form one exact system; the answer is its first canonical kernel
    vector (``_minimal_monic``), whose 1 sits at the first free column
    d: columns 0..d-1 are pivots exactly when no lower degree fits, so
    it is the unique monic solution of minimal degree.  Degree 0 (f = 1)
    is found exactly when column 0 vanishes: zero central charge and zero
    shadow within the horizon.  A negative answer is only valid within
    the horizon; require horizon >= 2*max_degree + 2.
    """
    check_int(max_degree, "max_degree", 0)
    check_int(horizon, "horizon", 2 * max_degree + 2)
    return _minimal_monic(
        _label_conditions(hw, 0, horizon, max_degree + 1), max_degree + 1
    )


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
    check_int(n, "series length", 0)
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
    are two faces of one linear system: the probes m = 1..horizon here,
    m = 0..horizon for ``charpoly_from_labels`` (the t^0 probe, which
    also sees the central charge, is checked separately by the
    consolidated report).  One exact system over the coefficients
    a_0..a_max_order; the minimal recurrence is its first canonical
    kernel vector (``_minimal_monic``), and order 0 is found exactly
    when the shadow vanishes within the horizon.
    """
    check_int(max_order, "max_order", 0)
    check_int(horizon, "horizon", 2 * max_order + 2)
    f = _minimal_monic(_label_conditions(hw, 1, horizon, max_order + 1), max_order + 1)
    if f is None:
        return QuasiVerdict(False, None, None, max_order, horizon)
    return QuasiVerdict(True, f.degree, f, max_order, horizon)


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

    @property
    def dimension(self) -> int:
        return len(self.candidates)

    def horizon(self, group: OrderedGroup) -> dict:
        """The search horizon.  ``probe_b`` bounds the probe weights over
        the integers only; elsewhere the part catalog sets them, and it is
        ``None``."""
        return {
            "max_t_index": self.max_index,
            "probe_k": self.probe_index,
            "probe_b": self.probe_weight if isinstance(group, IntegerGroup) else None,
        }

    def to_json(self, group: OrderedGroup) -> dict:
        return {
            "weight": str(self.weight),
            "horizon": self.horizon(group),
            "basis_size": len(self.basis),
            "dimension": self.dimension,
            "candidates": [v.to_json(group) for v in self.candidates],
            "generator": self.generator.to_json(group) if self.generator else None,
            "generator_dim": self.generator_dim,
            # singular_candidates raises on a candidate a probe does not kill
            "residuals_all_zero": True,
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


def _annihilation_rows(
    module: VermaModule, basis: List[PBWMonomial], probe: Generator
) -> List[Dict[int, Coeff]]:
    """Sparse rows of one probe's truncated action, sparsest first.

    A row is one output word of the probe, keyed by basis column.  One
    straightening run builds all of them (:meth:`VermaModule.action_rows`;
    over the integers and dyadics ``int`` rows, each scaled by one
    positive integer, which leaves the row space as it is).

    The rows come sorted by entry count, stably, so rows of equal count
    keep ``action_rows``' output-word order.  The order is exact: a row
    space has one reduced echelon form, so the kernel is the same in any
    order, and full rank, if it comes, comes within the same probe.  It
    is fast because a sparse row becomes a sparse pivot row, so the rows
    reduced against it and the deferred back-substitution of
    :class:`linalg.Echelon` create far less fill-in (sparse rows first,
    as in structured Gaussian elimination: LaMacchia and Odlyzko,
    CRYPTO '90).
    """
    return sorted(module.action_rows(probe, basis), key=len)


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


def _vectors(basis: List[PBWMonomial], kernel: List[List[Fraction]]) -> List[ModuleVector]:
    """The module vectors of kernel vectors over ``basis``."""
    return [ModuleVector({m: c for m, c in zip(basis, v) if c}) for v in kernel]


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
    live probes (see below) are taken in order, and each probe's rows go
    into one elimination (:class:`linalg.Echelon`) as sparse rows,
    sparsest first (see ``_annihilation_rows``: the kernel does not
    depend on the row order, and sparse pivot rows keep the fill-in of a
    deep search small).  Elimination stops once the rank equals the
    basis size.  That full-rank verdict (no candidates) is exact: the
    kernel is already {0}, so the probes not yet acted on cannot change
    it.

    After the first probe whose rows add no pivot, the search reads the
    canonical kernel of the rows pulled so far and checks each remaining
    live probe on it by straightening: one run of the probe over every
    candidate (:meth:`VermaModule.act_each`).  A probe that annihilates
    every candidate is never assembled.  A probe that does not has its
    rows eliminated, which adds a pivot, and the search goes back to
    assembling probes until one adds no pivot, then reads the kernel
    anew.  (Assembling after a cut rather than reading the kernel and
    checking again was chosen on one synthetic case, a recurrent weight
    with one label perturbed, where it was faster; no benchmark workload
    reaches a cut.)  If straightening is right, this is exact.  The
    kernel of the pulled rows contains the kernel of the whole matrix,
    and it shrinks only when rows are pulled, so each probe that passed
    annihilates the final kernel too: the two kernels are equal, and so
    are the canonical basis, the generator and every report.

    A probe L(beta,k) with beta heavier than -mu is never straightened:
    it sends the weight space to mu+beta > 0, where the module is zero,
    so it gives no row and annihilates every candidate.  The report
    still lists every probe of the horizon.
    The report also singles out a *generator*: the canonical candidate
    living at the smallest index horizon that already admits one (for
    weight -1 this is the characteristic polynomial direction; the
    remaining candidates are its index shifts).  The candidates at an
    index bound are the kernel vectors that vanish on every basis word
    with a larger index, so the generator and its ``generator_dim`` are
    read off the full kernel.
    Every probe whose rows were assembled then acts on every candidate
    in one straightening run, a path that does not go through the
    matrix, and any nonzero result raises ``DetectorInconsistencyError``.
    A probe that passed its check was never assembled, so its verdict
    rests on straightening alone: a straightening error that sends a
    nonzero image to zero would leave a candidate that the whole matrix
    does not, and nothing here would see it.  Only at weight -1 inside
    ``reducibility_report`` is there a second check, the label-side
    kernel, which must match the candidates.

    The search runs over the integers and the dyadics; lex-z2 is refused
    up front, since its weight spaces need a ``max_parts`` bound and its
    Q[w] rows are not rational.  The horizon is ``int`` and not vacuous:
    ``max_index`` and ``probe_index`` are at least -1 and, over the
    integers, ``probe_weight`` at least 1.
    """
    g = module.group
    if isinstance(g, LexPairGroup):
        raise ValueError("the singular search runs over the integers and the dyadics")
    check_int(max_index, "max_index", -1)
    check_int(probe_index, "probe_index", -1)
    check_int(probe_weight, "probe_weight", 1 if isinstance(g, IntegerGroup) else None)
    if g.compare(mu, g.zero()) >= 0:
        raise ValueError("singular candidates live at strictly negative weights")
    basis = module.weight_basis(mu, max_index, parts=parts)
    probes = _probe_generators(module, probe_weight, probe_index, parts=parts)
    # a probe heavier than -mu lands above the highest weight: no rows
    top = g.neg(mu)
    live = [p for p in probes if g.compare(p.alpha, top) <= 0]

    n = len(basis)
    state = linalg.Echelon(n)
    kernel = None  # read when a probe adds no pivot, dropped when one cuts it
    assembled = []
    for probe in live:
        if len(state.pivots) == n:
            break
        if kernel is not None and all(v.is_zero() for v in module.act_each(probe, candidates)):
            continue
        assembled.append(probe)
        if state.extend(linalg.sparse_rows(_annihilation_rows(module, basis, probe), n)):
            kernel = None
        else:
            kernel = state.kernel()
            candidates = _vectors(basis, kernel)
    if kernel is None:
        kernel = state.kernel()
        candidates = _vectors(basis, kernel)

    # distinguished minimal-horizon candidate, read off the one kernel
    generator = None
    generator_dim = None
    if kernel:
        # a word's largest index; at mu < 0 no word is empty
        reach = [max(ix for _, ix in m.factors) for m in basis]
        for bound in range(-1, max_index + 1):
            low = [i for i, r in enumerate(reach) if r <= bound]
            sub = _sub_kernel(kernel, low)
            if sub:
                generator_dim = len(sub)
                # the canonical vector's last nonzero coefficient is already 1
                generator = ModuleVector({basis[i]: c for i, c in zip(low, sub[0]) if c})
                break

    # re-verification of the assembled probes by straightening, one run each
    for probe in assembled if candidates else []:
        for cand, image in zip(candidates, module.act_each(probe, candidates)):
            if not image.is_zero():
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
    expected: Coeff
    from_engine: Coeff
    target: Optional[PBWMonomial]
    extra_terms: int

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "expected": coeff_json(self.expected),
            "from_engine": coeff_json(self.from_engine),
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

    Builds the word of ``parts`` (strictly increasing parts, all larger
    than ``eps``), applies the positive generator of weight
    (sum of parts) - eps, and compares the coefficient of the surviving
    word L(-eps, probe_index + sum of indices) v with the determinant
    product at x = that weight.
    """
    g = module.group
    if not g.is_positive(eps):  # validates eps
        raise ValueError("eps must be positive")
    prev = None
    for p, _ in parts:
        if g.compare(eps, p) >= 0:
            raise ValueError("eps must be smaller than every part")
        if prev is not None and g.compare(prev, p) >= 0:
            raise ValueError("parts must be strictly increasing in normal order")
        prev = p
    word = module.monomial(parts)  # validates every part and index
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
    return linalg.nullspace(_label_conditions(hw, 0, probes, ncols), ncols)


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

    # singular candidates <-> label-side solution space, matched horizons:
    # both are canonical nullspace bases over the same columns (a_n <->
    # L(-1,n-1)*v), and such a basis depends only on the space
    matrix_kernel = [v.coefficients(sr.basis) for v in sr.candidates]
    if _label_side_kernel(hw, max_index + 1, probe_index + 1) != matrix_kernel:
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
