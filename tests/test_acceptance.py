"""Acceptance gate: every bundled check at its stated count, tolerance zero.

Each criterion prints one pass/fail line; run with ``pytest -s`` (or
``blockalg verify-suite``) to see the table.
"""

import pytest

from blockalg.verify import CHECKS, VerifyConfig

CONFIG = VerifyConfig(seed=0)

CRITERIA = {
    "antisymmetry": "1a. Lie antisymmetry, 1000 triples, exact",
    "jacobi": "1b. Jacobi identity, 1000 triples, exact",
    "realization": "2. structure constants match the x,t realization, 500 pairs",
    "module-axiom": "3. module axiom oracle, 500 actions, both instances",
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
