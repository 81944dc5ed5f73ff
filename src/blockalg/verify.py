"""Named verification checks: exact-arithmetic evidence at desk scale.

Every check is deterministic for a fixed seed and asserts exact equality
(tolerance zero).  Negative structural verdicts (no characteristic
polynomial, empty candidate spaces) are horizon-limited evidence and the
details say so; the identities themselves are exact.

A check body returns its pass detail, raises :class:`CheckFailed` with the
detail of a counterexample, or crashes.  ``@_check(name)`` files it in
:data:`CHECKS` as a function returning a :class:`CheckResult`; a crash
propagates from there, and :func:`run_suite` reports it as a failure.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import linalg
from .groups import DYADIC, INTEGERS, LEX_Z2, Region
from .lie import CENTRAL, BlockAlgebra, Generator, LieElement, PolyForm
from .polynomial import Poly, X, x_power
from .reducibility import (
    charpoly_from_labels,
    delta_series,
    is_quasipolynomial,
    labels_from_charpoly,
    polynomial_of_vector,
    reducibility_report,
    singular_candidates,
    sweep_check,
    vector_of_polynomial,
    verify_singular,
)
from .verma import HighestWeight, ModuleVector, PBWMonomial, VermaModule


@dataclass
class VerifyConfig:
    seed: int = 0
    depth: int = 4
    perturb_labels: bool = False


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


class CheckFailed(Exception):
    """A check met a counterexample; the message is the result's detail."""


CHECKS: Dict[str, Callable[[VerifyConfig], CheckResult]] = {}


def _check(name: str):
    """Register a check body under ``name``; the check returns a CheckResult."""

    def register(body: Callable[[VerifyConfig], str]):
        @functools.wraps(body)
        def check(cfg: VerifyConfig) -> CheckResult:
            try:
                return CheckResult(name, True, body(cfg))
            except CheckFailed as e:
                return CheckResult(name, False, str(e))
        CHECKS[name] = check
        return check
    return register


def _rng(cfg: VerifyConfig, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{name}")


def _random_symbol(rng, group, bound=8, max_index=6, central_chance=0.02):
    if rng.random() < central_chance:
        return CENTRAL
    return Generator(group.random_element(rng, bound), rng.randint(-1, max_index))


# -- criterion 1: Lie axioms ------------------------------------------------


@_check("antisymmetry")
def check_antisymmetry(cfg: VerifyConfig) -> str:
    rng = _rng(cfg, "antisymmetry")
    for group in (INTEGERS, DYADIC):
        alg = BlockAlgebra(group)
        for _ in range(1000):
            a = _random_symbol(rng, group)
            b = _random_symbol(rng, group)
            s = alg.bracket_basis(a, b) + alg.bracket_basis(b, a)
            if s:
                raise CheckFailed(f"[{a},{b}]+[{b},{a}] = {s} on {group.name}")
    return "exact on 1000 pairs over integers and dyadics"


@_check("jacobi")
def check_jacobi(cfg: VerifyConfig) -> str:
    rng = _rng(cfg, "jacobi")
    for group in (INTEGERS, DYADIC):
        alg = BlockAlgebra(group)
        for _ in range(1000):
            a, b, c = (_random_symbol(rng, group) for _ in range(3))
            ea, eb, ec = (LieElement.term(s) for s in (a, b, c))
            s = (
                alg.bracket(alg.bracket(ea, eb), ec)
                + alg.bracket(alg.bracket(eb, ec), ea)
                + alg.bracket(alg.bracket(ec, ea), eb)
            )
            if s:
                raise CheckFailed(f"Jacobi fails for {a},{b},{c} on {group.name}")
    return "exact on 1000 triples over integers and dyadics"


# -- criterion 2: realization equivalence ------------------------------------


@_check("realization")
def check_realization(cfg: VerifyConfig) -> str:
    rng = _rng(cfg, "realization")
    alg = BlockAlgebra(INTEGERS)
    for _ in range(500):
        a, i = rng.randint(-6, 6), rng.randint(-1, 6)
        b, j = rng.randint(-6, 6), rng.randint(-1, 6)
        lhs = alg.bracket_basis(Generator(a, i), Generator(b, j))
        rhs = alg.realization_bracket(
            PolyForm(a, x_power(i + 1)), PolyForm(b, x_power(j + 1))
        )
        if lhs != rhs:
            raise CheckFailed(
                f"structure constants disagree with x,t bracket at ({a},{i}),({b},{j})"
            )
    return "exact on 500 monomial pairs"


# -- criterion 3: module axiom -----------------------------------------------


def _random_word(rng, group, max_len=4, max_index=4, part_bound=3):
    parts = [
        (group.random_positive(rng, part_bound), rng.randint(-1, max_index))
        for _ in range(rng.randint(0, max_len))
    ]
    return PBWMonomial(tuple(sorted(parts)))


def _random_weight(rng, length=20) -> HighestWeight:
    labels = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]
    cc = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return HighestWeight.explicit(labels, cc)


@_check("module-axiom")
def check_module_axiom(cfg: VerifyConfig) -> str:
    rng = _rng(cfg, "module-axiom")
    # lex-z2 last, so that the integer and dyadic draws stay as they were
    for group in (INTEGERS, DYADIC, LEX_Z2):
        module = VermaModule(BlockAlgebra(group), _random_weight(rng))
        for _ in range(500):
            g = _random_symbol(rng, group, bound=3, max_index=4, central_chance=0.05)
            h = _random_symbol(rng, group, bound=3, max_index=4, central_chance=0.05)
            m = ModuleVector.of(_random_word(rng, group))
            lhs = module.act(g, module.act(h, m)) - module.act(h, module.act(g, m))
            rhs = module.act_element(module.algebra.bracket_basis(g, h), m)
            if lhs != rhs:
                raise CheckFailed(
                    f"g(h m) - h(g m) != [g,h] m for {g},{h} on {group.name}"
                )
    return "exact on 500 triples over integers, dyadics and lex-z2 (words up to length 4)"


# -- criterion 4: characteristic polynomial round trip ------------------------


def _is_minimal_for_own_labels(hw: HighestWeight, d: int) -> bool:
    """Nonsingular Hankel window <=> no shorter recurrence fits the labels.

    Degenerate draws exist: f = t forces every label to zero, whose
    minimal recurrence is 1.  Recovery 'exactly' is only meaningful when
    the drawn polynomial is the minimal annihilator of its own label
    sequence, which this rank test decides independently of the
    detectors under test.
    """
    window = [[hw.shadow(1 + i + j) for j in range(d)] for i in range(d)]
    return linalg.rank(window) == d


@_check("charpoly-roundtrip")
def check_charpoly_roundtrip(cfg: VerifyConfig) -> str:
    rng = _rng(cfg, "charpoly-roundtrip")
    tested = 0
    resamples = 0
    while tested < 50:
        d = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
        f = Poly(coeffs + [Fraction(1)])
        cc = Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))
        initial = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d - 1)]
        hw = labels_from_charpoly(f, cc, initial)
        if not _is_minimal_for_own_labels(hw, d):
            resamples += 1
            if resamples > 25:
                raise CheckFailed("sampling premise kept failing")
            continue
        back = charpoly_from_labels(hw, max_degree=5, horizon=14)
        if back != f:
            raise CheckFailed(f"trial {tested}: built from {f}, recovered {back}")
        qp = is_quasipolynomial(hw, max_order=5, horizon=14)
        if not qp.found or qp.recurrence != f:
            raise CheckFailed(
                f"trial {tested}: recurrence {qp.recurrence} differs from {f}"
            )
        tested += 1
    return (
        "50 random minimal monic polynomials of degree <= 4 recovered exactly "
        f"(D=5, N=14; {resamples} degenerate draws resampled)"
    )


# -- criterion 5: singular vector witnesses -----------------------------------


def _shift_span_matches(report, max_index: int) -> bool:
    """Candidate space == index shifts of its generator (weight -1 only)."""
    f = polynomial_of_vector(report.generator)
    count = max_index + 2 - f.degree
    shifts = [vector_of_polynomial(f.shifted(k)) for k in range(count)]
    rows = [v.coefficients(report.basis) for v in report.candidates]
    if len(shifts) != len(rows) or linalg.rank(rows) != len(rows):
        return False
    rows += [v.coefficients(report.basis) for v in shifts]
    return linalg.rank(rows) == len(shifts)


@_check("singular-witnesses")
def check_singular_witnesses(cfg: VerifyConfig) -> str:
    alg = BlockAlgebra(INTEGERS)
    # f = t: every label zero, any central charge; f = t+1, cc = 1: labels
    # alternate as (-1)^m/(m+1)
    for name, f, cc in (
        ("t", X, Fraction(3)),
        ("t", X, Fraction(-2, 5)),
        ("t+1", X + 1, Fraction(1)),
    ):
        tag = f"f={name}, cc={cc}"
        hw = labels_from_charpoly(f, cc)
        if name == "t+1":
            for m in range(12):
                if hw.label(m) != Fraction((-1) ** m, m + 1):
                    raise CheckFailed(f"{tag}: label {m} is {hw.label(m)}")
            if cfg.perturb_labels:
                # injected fixture: break one label, keep everything else
                vals = [hw.label(m) for m in range(30)]
                vals[1] += 1
                hw = HighestWeight.explicit(vals, cc)
        module = VermaModule(alg, hw)
        v = vector_of_polynomial(f)
        res = verify_singular(module, v, f, probes=20)
        if not res.passed or any(r for _, r in res.residuals):
            raise CheckFailed(f"{tag}: probe {res.failing_probe} has nonzero residual")
        if res.residuals[0] != (0, 0):
            raise CheckFailed(f"{tag}: the m=0 probe (index -1) was not checked")
        rep = singular_candidates(module, -1, 3, 12, 3)
        if rep.generator != v or rep.generator_dim != 1:
            raise CheckFailed(
                f"{tag}: generator {rep.generator} (dim {rep.generator_dim})"
            )
        if not _shift_span_matches(rep, 3):
            raise CheckFailed(
                f"{tag}: candidate space is not the shift family of the generator"
            )
    return (
        "f=t and f=t+1 witnesses verified (probes m<=20, incl. the central "
        "cancellation at index -1); candidate spaces at I=3,K=12,B=3 are the "
        "shift families of one generator each"
    )


# -- criterion 6: generic irreducibility evidence ------------------------------


@_check("generic-irreducibility")
def check_generic_irreducibility(cfg: VerifyConfig) -> str:
    rng = _rng(cfg, "generic-irreducibility")
    alg = BlockAlgebra(INTEGERS)
    tested = 0
    resamples = 0
    while tested < 20:
        hw = _random_weight(rng)
        if charpoly_from_labels(hw, 4, 14) is not None:
            resamples += 1  # the premise asks for weights with no such polynomial
            if resamples > 40:
                raise CheckFailed("sampling premise kept failing")
            continue
        module = VermaModule(alg, hw)
        for mu in (-1, -2, -3, -4, -5):
            rep = singular_candidates(module, mu, 2, 10, 3)
            if rep.candidates:
                raise CheckFailed(
                    f"unexpected candidate at weight {mu}: {rep.candidates[0]}"
                )
        full = reducibility_report(
            module, max_degree=4, horizon=14, max_index=2, probe_index=10, probe_weight=3
        )
        if full.reducible_within_horizon:
            raise CheckFailed("a detector fired on a generic weight")
        tested += 1
    return (
        "20 generic weights: no candidates at weights -1,-2,-3,-4,-5 (I=2,K=10,B=3), "
        "all detectors negative within horizon and mutually consistent"
    )


# -- criterion 7: generating series golden values ------------------------------


@_check("delta-series")
def check_delta_series(cfg: VerifyConfig) -> str:
    hw = labels_from_charpoly(X + 1, 1)
    got = delta_series(hw, 10)
    # closed form: the label recurrence gives label(i) = (-1)^i/(i+1), so the
    # series coefficients are those of 2 - exp(-z)
    want = [Fraction(1)]
    want += [-Fraction((-1) ** n, math.factorial(n)) for n in range(1, 11)]
    if got != want:
        raise CheckFailed(f"coefficients {got[:5]}...")
    if delta_series(HighestWeight.zero(), 6) != [Fraction(0)] * 7:
        raise CheckFailed("zero functional series not zero")
    return "matches the expansion of 2 - exp(-z) through order 10"


# -- criterion 8: sweep determinant identity -----------------------------------


def sweep_instance(rng, max_r: int, max_k: int):
    """A random dyadic sweep instance ``(eps, parts)``.

    ``eps`` lies below ``r <= max_r`` normal-ordered parts, each with an
    index in ``[-1, max_k]``; all are multiples of ``1/8`` in ``(0, 48]``.
    """
    while True:
        r = rng.randint(1, max_r)
        pool = sorted(
            {
                Fraction(rng.randint(1, 48), 2 ** rng.randint(0, 3))
                for _ in range(r + 3)
            }
        )
        if len(pool) > r:
            return pool[0], [(p, rng.randint(-1, max_k)) for p in pool[1 : r + 1]]


@_check("step3-determinant")
def check_sweep_determinants(cfg: VerifyConfig) -> str:
    rng = _rng(cfg, "sweep")
    alg = BlockAlgebra(DYADIC)

    # worked instance: single factor, f(e1 - e) = -5/2
    module = VermaModule(alg, _random_weight(rng))
    worked = sweep_check(module, Fraction(1, 2), [(Fraction(1), 2)], 0)
    if not worked.passed or worked.expected != Fraction(-5, 2):
        raise CheckFailed(f"worked instance gave {worked.expected}")

    for _ in range(100):
        eps, parts = sweep_instance(rng, 3, 4)
        res = sweep_check(VermaModule(alg, _random_weight(rng)), eps, parts, rng.randint(-1, 4))
        if not res.passed:
            raise CheckFailed(
                f"determinant product {res.expected} vs engine {res.from_engine} "
                f"for parts {parts}"
            )
    return (
        "100 random dyadic instances (r <= 3, indices <= 4) plus the worked "
        "-5/2 instance, exact"
    )


# -- criterion 9: discrete order structure -------------------------------------


@_check("discrete-order")
def check_discrete_order(cfg: VerifyConfig) -> str:
    rng = _rng(cfg, "discrete-order")
    g = LEX_Z2
    cls = g.classify(rng)
    if cls.dense or cls.least_positive != (0, 1):
        raise CheckFailed(f"classification {cls}")
    a = cls.least_positive
    for _ in range(1000):
        x = g.random_element(rng, 10)
        region = g.decompose(a, x)
        mirror = g.decompose(a, g.neg(x))
        if (region == Region.ABOVE) != (mirror == Region.BELOW):
            raise CheckFailed(f"{x} breaks the mirror rule")
        if (region == Region.MULTIPLE) != (x[0] == 0):
            raise CheckFailed(f"{x} misfiled as {region}")
        if region == Region.ABOVE:
            n = rng.randint(-20, 20)
            if g.compare(x, g.scale(n, a)) <= 0:
                raise CheckFailed(f"{x} not above the multiple {n}*a")

    # the positive part beyond the step lattice kills the lattice submodule
    module = VermaModule(BlockAlgebra(g), _random_weight(rng))
    seeds = [module.vacuum()]
    catalog = [Generator((0, -n), k) for n in (1, 2) for k in (-1, 0, 2)]
    closure = module.submodule_generated(seeds, catalog, depth=cfg.depth)
    words = [m for vecs in closure.values() for v in vecs for m in v.monomials()]
    for _ in range(200):
        h = (rng.randint(1, 3), rng.randint(-6, 6))
        k = rng.randint(-1, 4)
        mono = rng.choice(words)
        if not module.act(Generator(h, k), ModuleVector.of(mono)).is_zero():
            raise CheckFailed(f"L({h},{k}) does not annihilate {mono}")
    return (
        "1000 elements partition consistently around the step lattice; 200 "
        "actions from above the lattice annihilate its submodule exactly "
        f"(horizon: closure depth {cfg.depth})"
    )


# -- criterion 10: weight space counts ------------------------------------------


def _brute_force_count(n: int, max_index: int) -> int:
    """Constrained sequences by exhaustive enumeration, no shared code."""
    count = 0
    for k in range(1, n + 1):
        for parts in itertools.product(range(1, n + 1), repeat=k):
            if sum(parts) != n or any(a > b for a, b in zip(parts, parts[1:])):
                continue
            for idxs in itertools.product(range(-1, max_index + 1), repeat=k):
                ok = all(
                    not (parts[s] == parts[s + 1] and idxs[s] > idxs[s + 1])
                    for s in range(k - 1)
                )
                if ok:
                    count += 1
    return count


@_check("weight-counts")
def check_weight_counts(cfg: VerifyConfig) -> str:
    module = VermaModule(BlockAlgebra(INTEGERS), HighestWeight.zero())
    for max_index in range(0, 5):
        got = len(module.weight_basis(-1, max_index))
        if got != max_index + 2:
            raise CheckFailed(f"weight -1, I={max_index}: {got} monomials")
    if len(module.weight_basis(-2, 0)) != 5:
        raise CheckFailed("weight -2, I=0 is not 5")
    for n, max_index in ((1, 3), (2, 0), (2, 2), (3, 1), (4, 1)):
        got = len(module.weight_basis(-n, max_index))
        want = _brute_force_count(n, max_index)
        if got != want:
            raise CheckFailed(
                f"weight {-n}, I={max_index}: {got} vs brute force {want}"
            )
    if module.weight_basis(0, 3) != [PBWMonomial(())]:
        raise CheckFailed("weight 0 should be the vacuum")
    return "truncated dimensions match brute-force enumeration"


def run_suite(cfg: VerifyConfig, only: Optional[str] = None) -> List[CheckResult]:
    if only is not None and only not in CHECKS:
        raise KeyError(f"unknown check {only!r}; available: {', '.join(CHECKS)}")
    results = []
    for name in list(CHECKS) if only is None else [only]:
        t0 = time.perf_counter()
        try:
            res = CHECKS[name](cfg)
        except Exception as e:  # a crash is a failure, not a verdict
            res = CheckResult(name, False, f"exception: {e!r}")
        res.seconds = time.perf_counter() - t0
        results.append(res)
    return results
