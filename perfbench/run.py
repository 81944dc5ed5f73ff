"""Layered benchmark of the blockalg engine.

    python3 perfbench/run.py --workload singular-grid --seed 1 --seconds 30 --trace 0

Runs one workload in this single-threaded process as a closed loop: one
caller submits the next instance as soon as the previous verdict is back.
Setup (importing the engine from ``src/`` and generating the seeded
inputs) is repeated ``SETUP_REPEATS`` times and its median reported.  The
loop always completes one full pass over the instance list and then keeps
cycling until ``--seconds`` have elapsed.  Each result is checked against
an independent expectation where one exists and against its own digest on
every repeat; an exception or a mismatch counts as a failed instance.

Times are CPU seconds of this thread scaled to a nominal machine speed;
``speed.py`` says why and how.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics; spans go to
``.perfbench_out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("groups", "lie", "linalg", "polynomial", "reducibility", "verma")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
OUT_DIR = ROOT / ".perfbench_out"


def load_program():
    """Import the engine afresh; returns its layer modules by name."""
    for name in [n for n in sys.modules if n == "blockalg" or n.startswith("blockalg.")]:
        del sys.modules[name]
    importlib.import_module("blockalg")
    return {n: importlib.import_module(f"blockalg.{n}") for n in LAYERS}


def setup(workload: str, seed: int, size: str, probes: speed.Probes):
    """Median over repeats of import plus input generation."""
    times, instances = [], None
    for _ in range(SETUP_REPEATS):
        start, probed = speed.CLOCK(), probes.spent
        mods = load_program()
        made = workloads.generate(SimpleNamespace(**mods), workload, seed, size)
        end = speed.CLOCK()
        times.append((end - start - (probes.spent - probed), (start, end)))
        if instances is not None and made != instances:
            raise workloads.SetupError("input generation is not deterministic")
        instances = made
    return statistics.median(t * probes.scale(sp) for t, sp in times), mods, instances


def run_loop(P, run, instances, seconds, max_passes=None, trace=None, probes=None):
    """Closed loop over the instance list; at least one full pass.

    With ``probes`` the instance times are scaled to nominal speed.
    """
    per_instance = [[] for _ in instances]
    digests, failures = [None] * len(instances), []
    spans, raw = [], []
    passes = 0
    wall_start = time.perf_counter()
    deadline = wall_start + seconds
    while True:
        for i, inst in enumerate(instances):
            if passes and time.perf_counter() >= deadline:
                break
            if trace is not None:
                trace.instance = i
            start = speed.CLOCK()
            probed = probes.spent if probes else 0.0
            try:
                ok, dg = run(P, inst)
            except Exception:  # a failed instance; the loop keeps going
                ok, dg = False, None
                if not failures:
                    traceback.print_exc(file=sys.stderr)
            end = speed.CLOCK()
            elapsed = end - start - ((probes.spent if probes else 0.0) - probed)
            spans.append((start, end))
            raw.append(elapsed)
            if digests[i] is None:
                digests[i] = dg
            elif dg != digests[i]:
                ok = False  # a repeat must reproduce the same result
            if not ok:
                failures.append(i)
            per_instance[i].append(len(raw) - 1)
        else:
            passes += 1
            if (max_passes and passes >= max_passes) or time.perf_counter() >= deadline:
                break
            continue
        break
    samples = [t * probes.scale(sp) for t, sp in zip(raw, spans)] if probes else raw
    return {
        "samples": samples,
        "failures": failures,
        "passes": passes,
        "pass_s": sum(statistics.median(samples[k] for k in ks) for ks in per_instance),
        "raw_s": sum(raw),
        "raw_pass_s": sum(statistics.median(raw[k] for k in ks) for ks in per_instance),
        "loop_wall_s": time.perf_counter() - wall_start,
        "digest": workloads.digest(digests),
    }


def tail(samples):
    """(value, percentile): highest percentile with TAIL_BEYOND samples above.

    With at most 2 * TAIL_BEYOND samples that percentile would not lie
    above the median, so the maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - TAIL_BEYOND
    if rank * 2 <= n:
        return xs[-1], 100.0
    return xs[rank - 1], 100.0 * rank / n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blockalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_sha256(),
        "gmpy2_installed": importlib.util.find_spec("gmpy2") is not None,
        "fraction_arithmetic": "fractions.Fraction on Python int, without gmpy2",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="instance-list scale; 'small' is the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "blockalg" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    record = environment(args)
    run = workloads.WORKLOADS[args.workload][1]
    with speed.Probes() as probes:
        setup_s, mods, instances = setup(args.workload, args.seed, args.size, probes)
        # the inputs live for the whole run: keep them out of the collector's
        # full passes, so that garbage collection timed inside an instance is
        # the engine's own
        gc.freeze()
        P = SimpleNamespace(**mods)
        if not args.trace:
            res = run_loop(P, run, instances, args.seconds, probes=probes)
    record["instances_per_pass"] = len(instances)

    if args.trace:
        # no probes here: they would land inside the spans
        plain = run_loop(P, run, instances, 0, max_passes=1)
        tr = tracer.Tracer(mods)
        tr.install()
        try:
            traced = run_loop(P, run, instances, 0, max_passes=1, trace=tr)
        finally:
            tr.remove()
        metrics = tracer.layer_metrics(tr.spans, workloads.GROUPS)
        metrics["trace.overhead_s"] = (traced["pass_s"] - plain["pass_s"], "s")
        runs = (plain, traced)
        record["untraced_pass_s"] = plain["pass_s"]
        record["traced_pass_s"] = traced["pass_s"]
        record["spans"] = len(tr.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        samples = res["samples"]
        tail_s, tail_pct = tail(samples)
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (res["pass_s"], "s"),
            "instances_per_s": (len(instances) / res["pass_s"], "1/s"),
            "instance_s_p50": (statistics.median(samples), "s"),
            "instance_s_tail": (tail_s, "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "ok_ratio": (1 - len(res["failures"]) / len(samples), "ratio"),
        }
        runs = (res,)
        record.update(passes=res["passes"], tail_percentile=tail_pct,
                      raw_pass_s=res["raw_pass_s"], probes=len(probes.took),
                      probe_s_median=statistics.median(probes.took),
                      loop_wall_s=res["loop_wall_s"],
                      cpu_share=res["raw_s"] / res["loop_wall_s"])

    attempted = sum(len(r["samples"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    digests = {r["digest"] for r in runs}
    correct = failed == 0 and len(digests) == 1
    record.update(
        samples=attempted,
        fail_ratio=failed / attempted,
        failed_instances=sorted({i for r in runs for i in r["failures"]}),
        result_sha256=sorted(digests),
    )
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
