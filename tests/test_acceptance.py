"""Acceptance gate: every bundled check at its stated count, tolerance zero.

Each criterion prints one pass/fail line; run with ``pytest -s`` (or
``blockalg verify-suite``) to see the table.  Each detail must match the
pinned ``blockalg verify-suite --format json`` report at seed 0.
"""

import json
from pathlib import Path

import pytest

from blockalg.verify import CHECKS, VerifyConfig

CONFIG = VerifyConfig(seed=0)
PINNED = json.loads(
    (Path(__file__).parent / "data" / "verify_suite_seed0.json").read_text()
)
PINNED_DETAIL = {check["name"]: check["detail"] for check in PINNED["checks"]}

CRITERIA = {
    "antisymmetry": "1a. Lie antisymmetry, 1000 triples, exact",
    "jacobi": "1b. Jacobi identity, 1000 triples, exact",
    "realization": "2. structure constants match the x,t realization, 500 pairs",
    "module-axiom": "3. module axiom oracle, 500 actions, all three instances",
    "charpoly-roundtrip": "4. characteristic polynomial round trip, 50 draws",
    "singular-witnesses": "5. singular vector witnesses incl. central cancellation",
    "generic-irreducibility": "6. generic weights: no candidates at -1..-5, all detectors negative",
    "delta-series": "7. series golden values match 2 - exp(-z)",
    "step3-determinant": "8. sweep determinant identity, 100 dyadic instances",
    "discrete-order": "9. step lattice decomposition and annihilation identity",
    "weight-counts": "10. truncated weight space dimensions vs brute force",
}


@pytest.mark.parametrize("name", list(CHECKS), ids=list(CHECKS))
def test_acceptance(name):
    result = CHECKS[name](CONFIG)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {CRITERIA[name]} :: {result.detail}")
    assert result.passed, f"{CRITERIA[name]}: {result.detail}"
    assert result.name == name
    assert result.detail == PINNED_DETAIL[name]


def test_pinned_report_names_every_check_in_order():
    assert list(PINNED_DETAIL) == list(CHECKS)
    assert PINNED["passed"] and PINNED["seed"] == CONFIG.seed
