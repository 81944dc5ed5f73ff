"""How the verification suite reports a failing or crashing check."""

import pytest

from blockalg import verify
from blockalg.cli import main
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

