"""In-memory spans around the public functions of the engine's layers.

The tracer patches attributes of already-imported program modules and
classes from outside; nothing in ``src/`` knows it exists.  A span is the
tuple ``(name, start, end, parent, instance, tag, counts)``: ``parent``
is the index of the enclosing span (-1 at top level), ``instance`` the
benchmark instance being run, ``tag`` an optional split key (the grading
group for ``verma.act``) and ``counts`` the machine-independent numbers
read off the call's arguments and result.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from speed import CLOCK

Span = Tuple[str, float, float, int, int, Optional[str], Optional[dict]]


def _act_counts(args, result):
    return {"terms_out": len(result)}


def _rref_counts(args, result):
    rows = args[0]
    ncols = len(rows[0]) if rows else 0
    return {"rows_in": len(rows), "cells_in": len(rows) * ncols, "pivots": len(result[1])}


# (span name, owner path inside the program, attribute, counts, tag)
# Owner paths name a module of the package, or "module:Class" for methods.
TARGETS: Sequence[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = (
    ("verma.act", "verma:VermaModule", "act", _act_counts,
     lambda args: args[0].group.name),
    ("verma.act_element", "verma:VermaModule", "act_element", None, None),
    ("verma.weight_basis", "verma:VermaModule", "weight_basis",
     lambda args, result: {"monomials": len(result)}, None),
    ("verma.label", "verma:HighestWeight", "label",
     lambda args, result: {"max_index": args[1]}, None),
    ("lie.bracket_basis", "lie:BlockAlgebra", "bracket_basis", None, None),
    ("linalg.rref", "linalg", "rref", _rref_counts, None),
    ("linalg.nullspace", "linalg", "nullspace",
     lambda args, result: {"kernel_dim": len(result)}, None),
    ("linalg.solve", "linalg", "solve",
     lambda args, result: {"inconsistent": int(result is None)}, None),
    ("reducibility.singular_candidates", "reducibility", "singular_candidates", None, None),
    ("reducibility.charpoly_from_labels", "reducibility", "charpoly_from_labels", None, None),
    ("reducibility.is_quasipolynomial", "reducibility", "is_quasipolynomial", None, None),
    ("reducibility.reducibility_report", "reducibility", "reducibility_report", None, None),
)

# how each count aggregates over the spans of one name
MAX_COUNTS = {"max_index"}


class Tracer:
    """Records spans while installed; restores the program on ``remove``."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.spans: List[Span] = []
        self.instance = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _owner(self, path: str):
        mod, _, cls = path.partition(":")
        owner = self.modules[mod]
        return getattr(owner, cls) if cls else owner

    def install(self) -> None:
        for name, path, attr, counts, tag in TARGETS:
            owner = self._owner(path)
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counts, tag))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, counts, tag):
        spans, stack, clock = self.spans, self._stack, CLOCK

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    parent,
                    self.instance,
                    tag(args) if tag else None,
                    counts(args, result) if counts and returned else None,
                )

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Single-threaded calls nest properly, so a parent's children never
    overlap one another and their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, *_), c in zip(spans, child)]


def layer_metrics(spans: Sequence[Span], groups: Sequence[str]) -> Dict[str, Tuple[float, str]]:
    """Per-layer calls, busy and self seconds, counts and splits."""
    out: Dict[str, Tuple[float, str]] = {}
    selfs = self_times(spans)
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = (0, "count")
        out[f"{name}.s"] = (0.0, "s")
        out[f"{name}.self_s"] = (0.0, "s")
    for g in groups:
        out[f"verma.act.s.{g}"] = (0.0, "s")
    for key in ("verma.act.terms_out", "verma.weight_basis.monomials",
                "verma.label.max_index", "linalg.rref.rows_in",
                "linalg.rref.cells_in", "linalg.rref.pivots",
                "linalg.nullspace.kernel_dim", "linalg.solve.inconsistent"):
        out[key] = (0, "count")
    for (name, start, end, _, _, tag, counts), self_s in zip(spans, selfs):
        dur = end - start
        out[f"{name}.calls"] = (out[f"{name}.calls"][0] + 1, "count")
        out[f"{name}.s"] = (out[f"{name}.s"][0] + dur, "s")
        out[f"{name}.self_s"] = (out[f"{name}.self_s"][0] + self_s, "s")
        if tag is not None:
            key = f"{name}.s.{tag}"
            out[key] = (out.get(key, (0.0, "s"))[0] + dur, "s")
        for k, v in (counts or {}).items():
            key = f"{name}.{k}"
            old = out[key][0]
            out[key] = (max(old, v) if k in MAX_COUNTS else old + v, "count")
    rows = out["linalg.rref.rows_in"][0]
    out["linalg.rref.pivot_ratio"] = (
        out["linalg.rref.pivots"][0] / rows if rows else 0.0, "ratio"
    )
    return out
