"""How the verification suite reports a failing or crashing check."""

import dataclasses
import re
from fractions import Fraction

import pytest

from blockalg import reducibility, verify
from blockalg.cli import main
from blockalg.groups import LEX_Z2, Region
from blockalg.lie import BlockAlgebra
from blockalg.verify import CheckFailed, VerifyConfig, run_suite
from blockalg.verma import StraighteningLimitError, VermaModule

CONFIG = VerifyConfig(seed=0)


def _exhausted(self, *args, **kwargs):
    raise StraighteningLimitError("straightening exceeded the 3-step budget")


def test_a_crash_propagates_from_the_check(monkeypatch):
    monkeypatch.setattr(VermaModule, "weight_basis", _exhausted)
    with pytest.raises(StraighteningLimitError):
        verify.CHECKS["weight-counts"](CONFIG)


def test_run_suite_reports_a_crash_as_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(VermaModule, "weight_basis", _exhausted)
    (res,) = run_suite(CONFIG, only="weight-counts")
    assert res.name == "weight-counts" and not res.passed
    assert res.detail == (
        "exception: StraighteningLimitError('straightening exceeded the 3-step budget')"
    )
    assert res.seconds >= 0
    assert main(["verify-suite", "--only", "weight-counts"]) == 1
    out = capsys.readouterr().out
    assert "weight-counts  FAIL" in out and "exception: StraighteningLimitError" in out
    assert out.endswith("0/1 checks passed\n")


def test_check_failed_is_the_failing_detail(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", dict(verify.CHECKS))

    @verify._check("weight-counts")
    def failing(cfg):
        raise CheckFailed("x")

    res = failing(CONFIG)
    assert (res.name, res.passed, res.detail) == ("weight-counts", False, "x")
    (res,) = run_suite(CONFIG, only="weight-counts")
    assert (res.name, res.passed, res.detail) == ("weight-counts", False, "x")


def _doubling(cls, name, when=lambda *args: True):
    """``cls.name`` with its result doubled where ``when(*args)`` holds."""
    real = getattr(cls, name)

    def doubled(self, *args):
        out = real(self, *args)
        return out + out if when(*args) else out

    return doubled


def _fault(name):
    """(target, attribute, replacement) of one fault that check ``name`` must catch."""
    if name in ("antisymmetry", "jacobi", "realization"):
        # [L(a,0), L(b,1)] doubled, the other order left alone
        pair = lambda a, b: getattr(a, "index", None) == 0 and getattr(b, "index", None) == 1
        return BlockAlgebra, "bracket_basis", _doubling(BlockAlgebra, "bracket_basis", pair)
    if name == "module-axiom":
        return VermaModule, "act_element", _doubling(VermaModule, "act_element")
    if name == "charpoly-roundtrip":
        return verify, "charpoly_from_labels", lambda *args, **kwargs: None
    if name == "generic-irreducibility":
        real = verify.singular_candidates
        return verify, "singular_candidates", lambda module, *args: dataclasses.replace(
            real(module, *args), candidates=[module.vacuum()]
        )
    if name == "delta-series":
        return verify, "delta_series", lambda hw, n: [Fraction(0)] * (n + 1)
    if name == "step3-determinant":
        return reducibility, "sweep_coefficient", lambda *args, **kwargs: 7
    if name == "discrete-order":
        return LEX_Z2, "_region", lambda x: Region.MULTIPLE
    if name == "weight-counts":
        real = VermaModule.weight_basis
        return VermaModule, "weight_basis", lambda self, *a, **k: real(self, *a, **k)[:-1]
    raise KeyError(name)


_CAUGHT = {
    "antisymmetry": r"\[L\(-?\d+,0\),L\(-?\d+,1\)\]\+\[L\(-?\d+,1\),L\(-?\d+,0\)\] = .+ on integers",
    "jacobi": r"Jacobi fails for .+ on integers",
    "realization": r"structure constants disagree with x,t bracket at \(-?\d+,0\),\(-?\d+,1\)",
    "module-axiom": r"g\(h m\) - h\(g m\) != \[g,h\] m for .+ on integers",
    "charpoly-roundtrip": r"trial 0: built from .+, recovered None",
    "generic-irreducibility": r"unexpected candidate at weight -1: v",
    "delta-series": r"coefficients \[Fraction\(0, 1\)(, Fraction\(0, 1\)){4}\]\.\.\.",
    "step3-determinant": r"worked instance gave 7",
    "discrete-order": r"\(-?\d+, -?\d+\) misfiled as Region\.MULTIPLE",
    "weight-counts": r"weight -1, I=0: 1 monomials",
}


@pytest.mark.parametrize("name", sorted(_CAUGHT))
def test_each_check_fails_on_its_fault(monkeypatch, name):
    # every check but singular-witnesses (failed by --inject-label-perturbation)
    # meets one injected fault and names its counterexample
    assert set(_CAUGHT) == set(verify.CHECKS) - {"singular-witnesses"}
    monkeypatch.setattr(*_fault(name))
    res = verify.CHECKS[name](VerifyConfig())
    assert not res.passed and re.fullmatch(_CAUGHT[name], res.detail), res.detail
