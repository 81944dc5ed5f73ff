"""Command line front-end.

Subcommands map one-to-one onto the engine operations.  Each option is
given only to the subcommands that read it: ``--group`` to those that
work over more than the integers, and ``--seed`` (default 0) to the
three that sample, ``classify-order``, ``step3-check`` and
``verify-suite``, whose runs are deterministic for a fixed seed.  The
rest take no random input.  Exit codes: 0 success,
1 mathematical-verdict failure (a failing verification), 2 usage error
(bad input, including a JSON float where an exact rational belongs),
3 resource limit (the straightening step budget ran out, which also
caps the length of a word; the input is too large for the engine, not
wrong).

``step3-check`` without ``--eps`` samples random dyadic instances, so
that random mode needs ``--group dyadic`` (the default), a positive
``--count`` and ``--max-r``, and ``--max-k >= -1``; the explicit mode
(``--eps`` and ``--part``) takes any group, each ``--part`` written
``part,index`` in the grammar of :mod:`blockalg.exprparse`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exprparse import (
    ParseError,
    parse_element,
    parse_group_element,
    parse_pair,
    parse_vector,
)
from .groups import DYADIC, GROUPS, INTEGERS, GroupError, format_element, get_group
from .lie import BlockAlgebra
from .polynomial import check_int, format_rational
from .reducibility import (
    DetectorInconsistencyError,
    charpoly_certificate,
    charpoly_from_labels,
    delta_report,
    reducibility_report,
    singular_candidates,
    sweep_check,
)
from .verify import CHECKS, VerifyConfig, _random_weight, run_suite, sweep_instance
from .verma import HighestWeight, StraighteningLimitError, VermaModule

VERDICT_FAILURE = 1
USAGE_ERROR = 2
RESOURCE_LIMIT = 3


def _add_common(p: argparse.ArgumentParser, group="integers", seed=False):
    """``--format`` and ``--out``, plus ``--group`` (default ``group``) unless
    ``group`` is None, and ``--seed`` for the subcommands that sample."""
    if group is not None:
        p.add_argument("--group", default=group, choices=sorted(GROUPS))
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--out", default=None, help="write the report to this path")
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _weight_arg(p: argparse.ArgumentParser, required=True):
    p.add_argument(
        "--weight",
        required=required,
        help="highest weight as JSON, or @file: "
        '{"central_charge": "1", "charpoly": [a0..ad]} or {"explicit": [...]}',
    )


def _load_weight(spec: str) -> HighestWeight:
    try:
        if spec.startswith("@"):
            with open(spec[1:], "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.loads(spec)
    except RecursionError:
        raise ValueError("--weight is nested too deeply") from None
    return HighestWeight.from_json(data)


def _parts(args, group):
    """The ``--parts`` catalog, or None when it is not given."""
    if not args.parts:
        return None
    return [parse_group_element(s, group) for s in args.parts.split(";")]


def _emit(args, text: str, data) -> None:
    if args.format == "json":
        payload = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# -- subcommand handlers ---------------------------------------------------


def cmd_bracket(args) -> int:
    group = get_group(args.group)
    alg = BlockAlgebra(group)
    e1 = parse_element(args.left, group)
    e2 = parse_element(args.right, group)
    out = alg.bracket(e1, e2)
    _emit(args, str(out), {"result": out.to_json(group), "printed": str(out)})
    return 0


def cmd_act(args) -> int:
    group = get_group(args.group)
    module = VermaModule(BlockAlgebra(group), _load_weight(args.weight))
    elem = parse_element(args.element, group)
    vec = parse_vector(args.vector, group)
    out = module.act_element(elem, vec)
    _emit(args, str(out), {"result": out.to_json(group), "printed": str(out)})
    return 0


def cmd_weight_basis(args) -> int:
    group = get_group(args.group)
    module = VermaModule(BlockAlgebra(group), HighestWeight.zero())
    mu = parse_group_element(args.mu, group)
    basis = module.weight_basis(
        mu, args.max_t_index, parts=_parts(args, group), max_parts=args.max_parts
    )
    text = "\n".join(str(m) for m in basis) or "(empty)"
    _emit(
        args,
        f"{len(basis)} monomials at weight {args.mu} (indices <= {args.max_t_index})\n"
        + text,
        {
            "weight": args.mu,
            "max_t_index": args.max_t_index,
            "count": len(basis),
            "monomials": [str(m) for m in basis],
        },
    )
    return 0


def cmd_singular_search(args) -> int:
    group = get_group(args.group)
    if group is DYADIC and args.probe_b is not None:
        raise GroupError("--probe-b bounds integer probe weights; here --parts sets them")
    probe_b = 3 if args.probe_b is None else args.probe_b
    bound = f"B={probe_b}" if group is INTEGERS else "probe weights from --parts"
    module = VermaModule(BlockAlgebra(group), _load_weight(args.weight))
    mu = parse_group_element(args.mu, group)
    rep = singular_candidates(
        module,
        mu,
        args.max_t_index,
        args.probe_k,
        probe_b,
        parts=_parts(args, group),
    )
    lines = [
        f"weight {args.mu}: {rep.dimension} candidate(s) within horizon "
        f"I={args.max_t_index}, K={args.probe_k}, {bound}",
        "candidates are singular within the stated horizon only",
    ]
    for v in rep.candidates:
        lines.append(f"  {v}")
    if rep.generator is not None:
        lines.append(f"generator (minimal index horizon): {rep.generator}")
    _emit(args, "\n".join(lines), rep.to_json(group))
    return 0


def cmd_charpoly(args) -> int:
    hw = _load_weight(args.weight)
    f = charpoly_from_labels(hw, args.max_degree, args.horizon)
    if f is None:
        text = (
            f"no characteristic polynomial of degree <= {args.max_degree} "
            f"within horizon N={args.horizon}"
        )
        data = {"charpoly": None, "max_degree": args.max_degree, "horizon": args.horizon}
    else:
        cert = charpoly_certificate(hw, f)
        text = f"characteristic polynomial: {f}   [{cert}]"
        data = {
            "charpoly": [format_rational(c) for c in f.coeffs],
            "printed": str(f),
            "certificate": cert,
            "max_degree": args.max_degree,
            "horizon": args.horizon,
        }
    _emit(args, text, data)
    return 0


def cmd_delta(args) -> int:
    hw = _load_weight(args.weight)
    rep = delta_report(hw, args.horizon, args.max_degree, max(14, 2 * args.max_degree + 2))
    text = (
        "series coefficients: ["
        + ", ".join(str(c) for c in rep.coefficients)
        + f"]\n{rep.quasi.describe()}"
    )
    _emit(args, text, rep.to_json())
    return 0


def cmd_classify_order(args) -> int:
    group = get_group(args.group)
    import random

    cls = group.classify(random.Random(args.seed))
    data = {
        "group": group.name,
        "dense": cls.dense,
        "least_positive": None if cls.dense else format_element(cls.least_positive),
        "printed": str(cls),
    }
    _emit(args, str(cls), data)
    return 0


def cmd_step3_check(args) -> int:
    group = get_group(args.group)
    if args.eps is None:
        if group is not DYADIC:
            raise GroupError(
                "random mode samples dyadic parts: use --group dyadic, or --eps and --part"
            )
        check_int(args.count, "--count", 1)
        check_int(args.max_r, "--max-r", 1)
        check_int(args.max_k, "--max-k", -1)
    import random

    rng = random.Random(args.seed)
    module = VermaModule(BlockAlgebra(group), _random_weight(rng))
    results = []
    if args.eps is not None:
        eps = parse_group_element(args.eps, group)
        parts = []
        for spec in args.part or []:
            try:
                parts.append(parse_pair(spec, group))
            except ParseError as e:
                raise ValueError(f"--part takes 'part,index': {e}") from None
        if not parts:
            raise GroupError("explicit mode needs at least one --part")
        results.append(sweep_check(module, eps, parts, args.probe_j))
    else:
        for _ in range(args.count):
            eps, parts = sweep_instance(rng, args.max_r, args.max_k)
            results.append(
                sweep_check(module, eps, parts, rng.randint(-1, args.max_k))
            )
    ok = all(r.passed for r in results)
    text = (
        f"{len(results)} sweep determinant check(s): "
        + ("all exact" if ok else "FAILED")
    )
    _emit(
        args,
        text,
        {"passed": ok, "count": len(results), "checks": [r.to_json() for r in results]},
    )
    return 0 if ok else VERDICT_FAILURE


def cmd_theorem2(args) -> int:
    module = VermaModule(BlockAlgebra(INTEGERS), _load_weight(args.weight))
    rep = reducibility_report(
        module,
        max_degree=args.max_degree,
        horizon=args.horizon,
        max_index=args.max_t_index,
        probe_index=args.probe_k,
        probe_weight=args.probe_b,
    )
    lines = [
        f"weight: {rep.weight_summary}",
        f"characteristic polynomial: "
        + (f"{rep.charpoly}   [{rep.charpoly_certificate}]" if rep.charpoly else "none within horizon"),
        f"generating series: {rep.quasi.describe()}",
        f"singular candidates at weight -1: {rep.singular.dimension} "
        f"(I={args.max_t_index}, K={args.probe_k}, B={args.probe_b})",
        f"verdict: {rep.verdict}",
    ]
    _emit(args, "\n".join(lines), rep.to_json(INTEGERS))
    return 0


def cmd_verify_suite(args) -> int:
    check_int(args.depth, "--depth", 1)  # depth 0 closes over nothing
    cfg = VerifyConfig(
        seed=args.seed,
        depth=args.depth,
        perturb_labels=args.inject_label_perturbation,
    )
    try:
        results = run_suite(cfg, only=args.only)
    except KeyError as e:
        print(e.args[0], file=sys.stderr)
        return USAGE_ERROR
    width = max(len(r.name) for r in results)
    lines = [f"seed {cfg.seed}"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.seconds:7.2f}s  {r.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    _emit(
        args,
        "\n".join(lines),
        {
            "seed": cfg.seed,
            "passed": ok,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        },
    )
    return 0 if ok else VERDICT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blockalg",
        description="Exact symbolic engine for graded Lie algebras of Block "
        "type and their Verma modules",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="bracket of two elements")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("act", help="act with an element on a module vector")
    p.add_argument("element")
    p.add_argument("vector")
    _weight_arg(p)
    _add_common(p)
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("weight-basis", help="truncated weight space monomials")
    p.add_argument("mu", help="weight, e.g. -2")
    p.add_argument("--max-t-index", type=int, default=3)
    p.add_argument("--parts", default=None, help="part catalog, ';'-separated")
    p.add_argument("--max-parts", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_weight_basis)

    p = sub.add_parser("singular-search", help="nullspace of the positive action")
    p.add_argument("--mu", default="-1")
    _weight_arg(p)
    p.add_argument("--max-t-index", type=int, default=3)
    p.add_argument("--probe-k", type=int, default=12)
    p.add_argument(
        "--probe-b", type=int, default=None,
        help="largest probe weight over the integers (default 3); elsewhere --parts sets them",
    )
    p.add_argument("--parts", default=None, help="part catalog, ';'-separated")
    _add_common(p)
    p.set_defaults(fn=cmd_singular_search)

    p = sub.add_parser("charpoly", help="minimal characteristic polynomial")
    _weight_arg(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--horizon", type=int, default=14)
    _add_common(p, group=None)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("delta", help="generating series and quasipolynomial test")
    _weight_arg(p)
    p.add_argument("--horizon", type=int, default=10, help="series order")
    p.add_argument("--max-degree", type=int, default=4, help="max recurrence order")
    _add_common(p, group=None)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("classify-order", help="dense/discrete classification")
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_classify_order)

    p = sub.add_parser(
        "step3-check",
        help="sweep determinant identity against the straightening engine",
    )
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-r", type=int, default=3)
    p.add_argument("--max-k", type=int, default=4)
    p.add_argument("--eps", default=None, help="explicit mode: the surviving part")
    p.add_argument(
        "--part",
        action="append",
        help="explicit mode factor 'part,index' (repeatable, normal order)",
    )
    p.add_argument("--probe-j", type=int, default=0)
    _add_common(p, group="dyadic", seed=True)
    p.set_defaults(fn=cmd_step3_check)

    p = sub.add_parser(
        "theorem2", help="all three reducibility detectors, cross-checked"
    )
    _weight_arg(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--horizon", type=int, default=14)
    p.add_argument("--max-t-index", type=int, default=3)
    p.add_argument("--probe-k", type=int, default=12)
    p.add_argument("--probe-b", type=int, default=3)
    _add_common(p, group=None)
    p.set_defaults(fn=cmd_theorem2)

    p = sub.add_parser("verify-suite", help="run the bundled verification checks")
    p.add_argument("--only", default=None, help=f"one of: {', '.join(CHECKS)}")
    p.add_argument("--depth", type=int, default=4, help="closure depth horizon")
    p.add_argument(
        "--inject-label-perturbation",
        action="store_true",
        help="self-test fixture: corrupt one label so the singular check fails",
    )
    _add_common(p, group=None, seed=True)
    p.set_defaults(fn=cmd_verify_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # an exact result may have more digits than CPython writes by default
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except (ParseError, GroupError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except DetectorInconsistencyError as e:
        print(f"internal consistency failure: {e}", file=sys.stderr)
        return VERDICT_FAILURE
    except StraighteningLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return RESOURCE_LIMIT
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
