"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

The smoke runs use a held-out seed, never used while sizing the
workloads, at the small instance-list scale.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 104729
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                 "--seconds", "1", "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_self_time_is_span_minus_children():
    spans = [
        ("reducibility.reducibility_report", 0.0, 10.0, -1, 0, None, None),
        ("linalg.solve", 1.0, 4.0, 0, 0, None, {"inconsistent": 1}),
        ("linalg.nullspace", 5.0, 9.0, 0, 0, None, {"kernel_dim": 2}),
        ("linalg.rref", 6.0, 7.5, 2, 0, None, {"rows_in": 3, "cells_in": 6, "pivots": 2}),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.5, 1.5]
    m = tracer.layer_metrics(spans, workloads.GROUPS)
    assert m["reducibility.reducibility_report.s"][0] == 10.0
    assert m["reducibility.reducibility_report.self_s"][0] == 3.0
    assert m["linalg.nullspace.self_s"][0] == 2.5
    assert m["linalg.rref.calls"][0] == 1
    assert m["linalg.rref.pivot_ratio"][0] == pytest.approx(2 / 3)
    assert m["linalg.solve.inconsistent"][0] == 1
    assert m["verma.act.calls"][0] == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    # up to twenty samples that percentile is not above the median: the maximum
    assert run.tail([3, 1, 2]) == (3, 100.0)
    assert run.tail(list(range(20))) == (19, 100.0)


def test_scale_uses_probes_near_the_instance():
    probes = speed.Probes()
    probes.at = [0.0, 1.0, 2.0, 3.0]
    probes.took = [speed.NOMINAL_S, speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert probes.scale((0.0, 0.2)) == pytest.approx(1.0)
    assert probes.scale((2.6, 2.8)) == pytest.approx(0.5)
    assert probes.scale((1.4, 1.6)) == pytest.approx(2 / 3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_and_digests_repeat(workload):
    first_rec, first = result(workload, 1)
    second_rec, second = result(workload, 1)
    assert first["correct"] and second["correct"]
    assert first_rec["result_sha256"] == second_rec["result_sha256"]
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(first["metrics"]) == names
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] != "s"}
    assert counts == again
    if workload == "module-axiom":
        assert all(v == 0 for k, v in counts.items() if k.startswith("linalg."))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_smoke_run(workload):
    rec, res = result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert rec["seed"] == HELD_OUT_SEED and rec["python"] and rec["nproc"]
    assert rec["gmpy2_installed"] in (True, False)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "module-axiom", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
