"""Seeded inputs, instance execution and output oracles for each workload.

Inputs are plain data (ints, Fractions, tuples) made from the seed by the
benchmark's own random generator; the program only ever sees them.  An
instance rebuilds its highest weight and module from that data, so a
memoized label table never carries over from one instance, or one pass,
to the next.  Every call into the engine goes through a module attribute
(``P.reducibility.singular_candidates``, ``module.act``), which is what
lets the tracer wrap it.

Each workload exercises a different layer:

* ``singular-grid``: weight-space search, dominated by exact elimination
  (``linalg.nullspace``/``rref``);
* ``module-axiom``: pure straightening and brackets over all three
  grading groups, no linear algebra;
* ``label-detectors``: the degree loops of the label detectors, many
  small dense ``linalg.solve`` calls.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

# sizes of one pass; "small" is the smoke-test scale
SIZES = {
    "full": {
        "singular-grid": {"explicit": 2, "recurrent": 2,
                          "grid": ((-1, 3), (-2, 2), (-3, 2))},
        "module-axiom": {"per_group": 400},
        "label-detectors": {"generic": 12, "recurrent": 8},
    },
    "small": {
        "singular-grid": {"explicit": 1, "recurrent": 1,
                          "grid": ((-1, 3), (-2, 2))},
        "module-axiom": {"per_group": 7},
        "label-detectors": {"generic": 2, "recurrent": 2},
    },
}

GROUPS = ("integers", "dyadic", "lex-z2")

# singular search horizon (probe index K, probe weight B)
SG_K, SG_B = 10, 3
# label detectors: degree bound D and probe horizon N
LD_D, LD_N = 8, 30
GENERIC_LABELS = 40
MAX_RESAMPLES = 50


class SetupError(RuntimeError):
    """The seeded inputs could not be made (a sampling premise kept failing)."""


def digest(obj) -> str:
    """SHA-256 of the canonical JSON of a result."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rat(rng, bound=9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _nonzero_rat(rng, bound=9) -> Fraction:
    return Fraction(rng.choice([n for n in range(-bound, bound + 1) if n]),
                    rng.randint(1, bound))


# -- weights ---------------------------------------------------------------


def _explicit_spec(rng, n: int) -> dict:
    return {"kind": "explicit", "labels": tuple(_rat(rng) for _ in range(n)),
            "cc": _rat(rng)}


def _recurrent_labels(f, cc, initial, n) -> List[Fraction]:
    """Labels 0..n-1 of a monic recurrence, solved from its t^m conditions.

    A second implementation of the condition system, kept apart from the
    engine's ``RecurrentLabels`` so the minimality test below does not
    lean on the code under measurement.
    """
    d = len(f) - 1
    lab = list(initial)
    while len(lab) < n:
        k = len(lab)
        if k == d - 1:
            s = f[0] * cc - sum(j * f[j] * lab[j - 1] for j in range(1, d))
            lab.append(s / d)
        else:
            m = k - d + 1
            s = sum((j + m) * f[j] * lab[j + m - 1] for j in range(d))
            lab.append(-s / (d + m))
    return lab


def _det(rows) -> Fraction:
    m = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            q = m[r][c] / m[c][c]
            m[r] = [a - q * b for a, b in zip(m[r], m[c])]
    return det


def _recurrent_spec(rng, d: int) -> dict:
    """A monic f of degree d that is the minimal recurrence of its labels.

    Minimal <=> the d x d Hankel window of the shadow sequence
    s_n = n * label(n-1) is nonsingular; degenerate draws (f = t, ...)
    are redrawn.
    """
    for _ in range(MAX_RESAMPLES):
        f = tuple(_rat(rng) for _ in range(d)) + (Fraction(1),)
        cc = _nonzero_rat(rng)
        initial = tuple(_rat(rng) for _ in range(d - 1))
        lab = _recurrent_labels(f, cc, initial, 2 * d)
        shadow = [0] + [n * lab[n - 1] for n in range(1, 2 * d)]
        if _det([[shadow[1 + i + j] for j in range(d)] for i in range(d)]):
            return {"kind": "recurrent", "f": f, "cc": cc, "initial": initial}
    raise SetupError(f"no minimal degree-{d} recurrence in {MAX_RESAMPLES} draws")


def build_weight(P, spec):
    if spec["kind"] == "explicit":
        return P.verma.HighestWeight.explicit(spec["labels"], spec["cc"])
    return P.reducibility.labels_from_charpoly(
        P.polynomial.Poly(spec["f"]), spec["cc"], spec["initial"]
    )


def _generic_spec(P, rng) -> dict:
    """Explicit labels with no characteristic polynomial within (D, N)."""
    for _ in range(MAX_RESAMPLES):
        spec = _explicit_spec(rng, GENERIC_LABELS)
        if P.reducibility.charpoly_from_labels(build_weight(P, spec), LD_D, LD_N) is None:
            return spec
    raise SetupError(f"no generic weight in {MAX_RESAMPLES} draws")


# -- singular-grid ---------------------------------------------------------


def gen_singular_grid(P, rng, size) -> List[dict]:
    weights = [_explicit_spec(rng, 20) for _ in range(size["explicit"])]
    weights += [_recurrent_spec(rng, rng.randint(1, 4)) for _ in range(size["recurrent"])]
    return [{"weight": w, "grid": size["grid"]} for w in weights]


def run_singular_grid(P, inst) -> Tuple[bool, str]:
    """One weight searched over the whole (mu, I) grid.

    The grid, not a single point, is the instance: the points differ in
    cost by more than 100x, so per-point times would put the median and
    the tail at the boundaries between grid points.
    """
    spec = inst["weight"]
    module = P.verma.VermaModule(P.lie.BlockAlgebra(P.groups.INTEGERS), build_weight(P, spec))
    ok, reports = True, []
    for mu, I in inst["grid"]:
        rep = P.reducibility.singular_candidates(module, mu, I, SG_K, SG_B)
        reports.append(rep.to_json(P.groups.INTEGERS))
        if spec["kind"] == "explicit":
            # a generic weight is irreducible: no candidate at any weight
            ok = ok and rep.dimension == 0
        elif mu == -1:
            # candidates at -1 are the index shifts f, t f, ... of the charpoly
            f = P.polynomial.Poly(spec["f"])
            ok = (ok and rep.generator == P.reducibility.vector_of_polynomial(f)
                  and rep.dimension == I + 2 - f.degree)
        # recurrent weights below -1 have no independent expectation; the
        # digest still pins their reports
    return ok, digest(reports)


# -- module-axiom ----------------------------------------------------------


def _element(rng, group: str, positive: bool):
    """A group element with entries bounded by 3, as plain data."""
    if group == "integers":
        return rng.randint(1, 3) if positive else rng.randint(-3, 3)
    if group == "dyadic":
        den = 2 ** rng.randint(0, 3)
        lo = 1 if positive else -3 * den
        return Fraction(rng.randint(lo, 3 * den), den)
    if positive:
        a = rng.randint(0, 3)
        return (a, rng.randint(1, 3) if a == 0 else rng.randint(-3, 3))
    return (rng.randint(-3, 3), rng.randint(-3, 3))


def _symbol(rng, group: str):
    """("c",) for the central symbol, else (alpha, index)."""
    if rng.random() < 0.05:
        return ("c",)
    return (_element(rng, group, False), rng.randint(-1, 6))


def gen_module_axiom(P, rng, size) -> List[dict]:
    out = []
    for k in range(size["per_group"]):
        for g in GROUPS:  # interleaved, so a partial pass mixes the groups
            # word lengths cycle through 0..6: cost grows about 3x per
            # factor, and a random length mix would let a few draws of
            # length 6 decide the whole pass time
            word = sorted((_element(rng, g, True), rng.randint(-1, 6))
                          for _ in range(k % 7))
            # a weight per triple: label sizes drive the coefficient growth,
            # and one shared weight would shift a whole group's cost at once
            out.append({"group": g, "weight": _explicit_spec(rng, 48), "g": _symbol(rng, g),
                        "h": _symbol(rng, g), "word": tuple(word)})
    return out


def run_module_axiom(P, inst) -> Tuple[bool, str]:
    group = P.groups.get_group(inst["group"])
    module = P.verma.VermaModule(P.lie.BlockAlgebra(group), build_weight(P, inst["weight"]))

    def sym(s):
        return P.lie.CENTRAL if s == ("c",) else P.lie.Generator(*s)

    g, h = sym(inst["g"]), sym(inst["h"])
    m = module.vector(inst["word"])
    lhs = module.act(g, module.act(h, m)) - module.act(h, module.act(g, m))
    rhs = module.act_element(module.algebra.bracket_basis(g, h), m)
    return lhs == rhs, digest(lhs.to_json(group))


# -- label-detectors -------------------------------------------------------


def gen_label_detectors(P, rng, size) -> List[dict]:
    rec = [_recurrent_spec(rng, 1 + k % 4) for k in range(size["recurrent"])]
    gen = [_generic_spec(P, rng) for _ in range(size["generic"])]
    # interleave so that a partial pass holds both kinds
    out = []
    while rec or gen:
        for pool in (gen, rec):
            if pool:
                out.append({"weight": pool.pop(0)})
    return out


def run_label_detectors(P, inst) -> Tuple[bool, str]:
    spec = inst["weight"]
    R = P.reducibility
    hw = build_weight(P, spec)
    cp = R.charpoly_from_labels(hw, LD_D, LD_N)
    qp = R.is_quasipolynomial(hw, LD_D, LD_N)
    rep = R.reducibility_report(
        P.verma.VermaModule(P.lie.BlockAlgebra(P.groups.INTEGERS), hw),
        max_degree=LD_D, horizon=LD_N,
    )
    if spec["kind"] == "recurrent":
        f = P.polynomial.Poly(spec["f"])
        ok = (cp == f and qp.found and qp.recurrence == f
              and rep.singular.generator == R.vector_of_polynomial(f)
              and rep.reducible_within_horizon)
    else:
        ok = cp is None and not qp.found and not rep.reducible_within_horizon
    result = {
        "charpoly": [str(c) for c in cp.coeffs] if cp is not None else None,
        "quasi": qp.to_json(),
        "report": rep.to_json(P.groups.INTEGERS),
    }
    return ok, digest(result)


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "singular-grid": (gen_singular_grid, run_singular_grid),
    "module-axiom": (gen_module_axiom, run_module_axiom),
    "label-detectors": (gen_label_detectors, run_label_detectors),
}


def generate(P, workload: str, seed: int, size: str) -> List[dict]:
    rng = random.Random(f"{seed}:{workload}")
    return WORKLOADS[workload][0](P, rng, SIZES[size][workload])
