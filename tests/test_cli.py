import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from blockalg import cli, reducibility
from blockalg.cli import main
from blockalg.groups import LEX_Z2
from blockalg.lie import coeff_from_json
from blockalg.polynomial import Poly, X
from blockalg.reducibility import labels_from_charpoly
from blockalg.verma import HighestWeight

DATA = Path(__file__).parent / "data"

WEIGHT_B = '{"charpoly": [1, 1], "central_charge": 1}'
WEIGHT_ZERO_LABELS = '{"explicit": [], "central_charge": 3}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket_example(capsys):
    code, out, _ = run(capsys, "bracket", "L(1,0)", "L(-1,0)")
    assert code == 0
    assert out.strip() == "-2*L(0,0)"


def test_bracket_json_matches_text(capsys):
    _, text, _ = run(capsys, "bracket", "L(1,0)", "L(-1,0)")
    code, raw, _ = run(capsys, "bracket", "L(1,0)", "L(-1,0)", "--format", "json")
    assert code == 0
    data = json.loads(raw)
    assert data["printed"] == text.strip()
    assert data["result"] == [{"alpha": 0, "i": 0, "coeff": "-2/1"}]


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["integers", "L(2,-1) - 1/3*L(1,2) + 5/2*L(0,0)", "L(-2,-1) + L(3,0)"],
         "bracket_integers.json"),
        (["lex-z2", "L((1,-1),-1) + 2*L((1,-1),1) - 1/2*L((0,1),0)",
          "L((-1,1),-1) - L((0,2),2) + 3*L((1,1),0)"], "bracket_lex_z2.json"),
    ],
    ids=["integers", "lex-z2"],
)
def test_bracket_json_is_pinned(capsys, argv, pinned):
    # the printed form and the terms of a bracket: over the integers a
    # central term and a negative fractional coefficient, over lex-z2 Q[w]
    # coefficients, a constant one among them; pinned byte for byte
    group, left, right = argv
    code, out, _ = run(capsys, "bracket", "--group", group, left, right, "--format", "json")
    assert code == 0
    assert out == (DATA / pinned).read_text()


def test_act_command(capsys):
    code, out, _ = run(
        capsys, "act", "L(0,1)", "L(-1,-1)*v", "--weight", WEIGHT_B
    )
    assert code == 0
    assert out.strip() == "1/3*L(-1,-1)*v - 2*L(-1,0)*v"


def test_charpoly_roundtrip_command(capsys):
    code, out, _ = run(capsys, "charpoly", "--weight", WEIGHT_B, "--max-degree", "4")
    assert code == 0
    assert "t + 1" in out and "full" in out


def test_charpoly_command_when_no_polynomial_is_found(capsys):
    argv = ["charpoly", "--weight", '{"explicit": [1, "1/7", 3, -2, 5, 8], "central_charge": 2}',
            "--max-degree", "2", "--horizon", "6"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "no characteristic polynomial of degree <= 2 within horizon N=6\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"charpoly": None, "max_degree": 2, "horizon": 6}


def test_classify_order_command(capsys):
    code, out, _ = run(capsys, "classify-order", "--group", "lex-z2")
    assert code == 0
    assert out.strip() == "discrete, a=(0,1)"


def test_weight_basis_command(capsys):
    code, out, _ = run(capsys, "weight-basis", "-2", "--max-t-index", "0")
    assert code == 0
    assert "5 monomials" in out


def test_singular_search_command(capsys):
    code, out, _ = run(
        capsys,
        "singular-search",
        "--weight", WEIGHT_ZERO_LABELS,
        "--mu", "-1",
        "--max-t-index", "2",
    )
    assert code == 0
    assert "3 candidate(s)" in out
    assert "generator (minimal index horizon): L(-1,0)*v" in out


def test_delta_command(capsys):
    code, out, _ = run(capsys, "delta", "--weight", WEIGHT_B, "--horizon", "6")
    assert code == 0
    assert "1, 1, -1/2, 1/6" in out.replace("[", "").replace("]", "")
    assert "quasipolynomial, recurrence t + 1" in out


def test_theorem2_command(capsys):
    code, out, _ = run(capsys, "theorem2", "--weight", WEIGHT_B)
    assert code == 0
    assert "characteristic polynomial: t + 1" in out
    assert "verdict: reducible within horizon" in out


def test_step3_check_explicit(capsys):
    code, out, _ = run(
        capsys,
        "step3-check",
        "--eps", "1/2",
        "--part", "1,2",
        "--probe-j", "0",
    )
    assert code == 0
    _, raw, _ = run(
        capsys,
        "step3-check",
        "--eps", "1/2",
        "--part", "1,2",
        "--probe-j", "0",
        "--format", "json",
    )
    data = json.loads(raw)
    assert data["checks"][0]["expected"] == "-5/2"
    # over lex-z2 the values are Q[w] polynomials in the coefficient JSON form
    code, raw, _ = run(
        capsys,
        "step3-check",
        "--group", "lex-z2",
        "--eps", "(0,1)",
        "--part", "(0,2),1",
        "--part", "(1,0),2",
        "--format", "json",
    )
    assert code == 0
    (check,) = json.loads(raw)["checks"]
    assert check["passed"] and check["expected"] == "10*w^2 + 14*w - 12"
    for key in ("expected", "from_engine"):
        assert coeff_from_json(check[key], LEX_Z2) == Poly([-12, 14, 10])
    # a degree-3 coefficient: the Poly product of sweep_coefficient against
    # the kernel's tuple arithmetic, pinned byte for byte
    code, out, _ = run(
        capsys,
        "step3-check",
        "--group", "lex-z2",
        "--eps", "(0,1)",
        "--part", "(0,2),1",
        "--part", "(1,-1),2",
        "--part", "(2,3),0",
        "--probe-j", "2",
        "--format", "json",
    )
    assert code == 0
    assert out == (DATA / "step3_lex_z2_degree3.json").read_text()


def test_step3_check_part_reads_the_integer_grammar(capsys):
    # the index is read by the same grammar as every other integer: no
    # digit separators, and a part without an index is refused
    for part, message in (
        ("1,1_0", "unexpected character"),
        ("1", "expected ','"),
        ("1,-2", "index must be >= -1"),
    ):
        code, out, err = run(capsys, "step3-check", "--eps", "1/2", "--part", part)
        assert code == cli.USAGE_ERROR == 2
        assert out == ""
        assert err.startswith("error: --part takes 'part,index'") and message in err
        assert "Traceback" not in err and "unpack" not in err
    code, out, _ = run(capsys, "step3-check", "--eps", "1/2", "--part", "1,+2")
    assert code == 0 and "all exact" in out


def test_step3_check_random_bounds_are_checked_before_sampling(capsys):
    for argv, message in (
        (["--max-r", "0"], "--max-r must be >= 1"),
        (["--max-r", "-4"], "--max-r must be >= 1"),
        (["--max-k", "-3"], "--max-k must be >= -1"),
    ):
        code, out, err = run(capsys, "step3-check", *argv)
        assert code == cli.USAGE_ERROR == 2
        assert out == "" and message in err and "randrange" not in err
    # the smallest bounds still sample: one part, every index -1
    code, out, _ = run(capsys, "step3-check", "--max-r", "1", "--max-k", "-1", "--count", "5")
    assert code == 0 and "all exact" in out


def test_step3_check_random(capsys):
    code, out, _ = run(capsys, "step3-check", "--count", "10")
    assert code == 0
    assert "all exact" in out


def test_step3_check_random_instances_are_pinned(capsys):
    # the sampler draws from the seeded RNG in a fixed order, so a seed
    # names the same instances from one release to the next
    code, out, _ = run(capsys, "step3-check", "--count", "4", "--seed", "5", "--format", "json")
    assert code == 0
    assert [(c["target"], c["expected"]) for c in json.loads(out)["checks"]] == [
        ("L(-1/2,11)*v", "1155/2"),
        ("L(-5/4,-1)*v", "0/1"),
        ("L(-1/4,2)*v", "-3261147/8"),
        ("L(-23/4,1)*v", "10317/8"),
    ]


# the 40-label explicit weight of the deep singular searches in CI
WEIGHT_GENERIC = (
    '{"central_charge":"3/2","explicit":["1/2",3,"-7/5",-2,9,"7/2",-8,1,"-7/2","-7/5",4,9,'
    '"-2/5","-8/5","9/4",-4,"-8/5","-5/3",2,8,3,4,"-6/5","9/2",2,8,9,"-3/4",2,"1/4","9/4",'
    '"2/3",-1,-2,3,"7/4","1/4",0,-7,"7/4"]}'
)
# a recurrent weight whose label denominators grow with the index
WEIGHT_RECURRENT = '{"central_charge":"3/7","charpoly":["2/5","-1/3","1"],"initial":["1/2"]}'


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["--mu=-1/2", "--parts", "1/2"], "singular_dyadic_recurrent_half.json"),
        (["--mu=-3/4", "--parts", "1/4;3/4"], "singular_dyadic_recurrent_three_quarters.json"),
        (["--mu=-1/2", "--parts", "1/2;1"], "singular_dyadic_recurrent_half.json"),
    ],
    ids=["dimension-3", "full-rank-40-words", "dimension-3-heavier-part"],
)
def test_dyadic_singular_search_reports_are_pinned(capsys, argv, pinned):
    # a dyadic search eliminates int rows that carry a power of the scale
    # per word length; its reports are pinned byte for byte.  A part
    # heavier than -mu adds probes that reach no weight space, so the
    # report is the one without it
    code, out, _ = run(
        capsys, "singular-search", "--group", "dyadic", *argv, "--max-t-index", "3",
        "--probe-k", "8", "--weight", WEIGHT_RECURRENT, "--format", "json",
    )
    assert code == 0
    assert out == (DATA / pinned).read_text()


def test_dyadic_singular_search_refuses_a_probe_weight(capsys):
    # the part catalog sets the dyadic probe weights; a --probe-b there
    # would bound nothing
    code, out, err = run(
        capsys, "singular-search", "--group", "dyadic", "--mu=-1/2", "--parts", "1/2",
        "--max-t-index", "1", "--probe-b", "-5",
        "--weight", '{"central_charge":1,"explicit":[1,2,3]}', "--format", "json",
    )
    assert code == 2 and out == ""
    assert "--probe-b" in err and "--parts" in err


def test_delta_series_of_a_recurrent_weight_is_pinned(capsys):
    # 41 series coefficients of a degree-4 recurrent weight with rational
    # coefficients, and its order-4 verdict; the JSON is pinned byte for byte
    weight = ('{"central_charge":"-5/3","charpoly":["3/7","-2/5","5/2","-1/9","1"],'
              '"initial":["1/2","-4/3","2/7"]}')
    code, out, _ = run(
        capsys, "delta", "--weight", weight, "--horizon", "40", "--max-degree", "4",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["coefficients"]) == 41 and data["quasipolynomial"]["order"] == 4
    assert out == (DATA / "delta_recurrent_degree4.json").read_text()


def test_rank_deficient_integer_search_is_pinned(capsys):
    # a kernel of dimension 6 on 65 words at -2: the search assembles 5 of
    # the 28 live probes and checks the other 23 on the kernel; the report
    # is pinned byte for byte
    code, out, _ = run(
        capsys, "singular-search", "--mu", "-2", "--max-t-index", "8", "--probe-k", "12",
        "--probe-b", "3", "--weight", WEIGHT_RECURRENT, "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert (data["basis_size"], data["dimension"]) == (65, 6)
    assert out == (DATA / "singular_recurrent_minus_two.json").read_text()


def test_theorem2_report_of_a_recurrent_weight_is_pinned(capsys):
    # the consolidated report at the default horizon: a kernel of
    # dimension 3 at -1, found by the probes of weight 1 alone
    code, out, _ = run(capsys, "theorem2", "--weight", WEIGHT_RECURRENT, "--format", "json")
    assert code == 0
    assert json.loads(out)["singular"]["dimension"] == 3
    assert out == (DATA / "theorem2_recurrent.json").read_text()


def test_theorem2_report_of_a_generic_weight_is_pinned(capsys):
    # 40 explicit labels at D = 8, N = 30: every label system has full rank,
    # so no characteristic polynomial, no recurrence and no candidate
    code, out, _ = run(
        capsys, "theorem2", "--max-degree", "8", "--horizon", "30", "--weight", WEIGHT_GENERIC,
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["charpoly"] is None and data["singular"]["dimension"] == 0
    assert data["quasipolynomial"]["verdict"] == "unknown-within-horizon"
    assert out == (DATA / "theorem2_generic.json").read_text()


def test_dyadic_act_json_is_pinned(capsys):
    # parts at denominators 1, 4 and 8 and element terms of one weight, so
    # the words decode at the module's scale and "weight" is written; the
    # JSON is pinned byte for byte
    code, out, _ = run(
        capsys, "act", "--group", "dyadic", "2*L(7/8,1) - 1/3*L(7/8,-1) + L(7/8,3)",
        "L(-1/8,0)*L(-3/4,1)*L(-1,2)*v",
        "--weight", '{"central_charge":"7/2","explicit":["1/3",2,"-5/4",1,0,2]}',
        "--format", "json",
    )
    assert code == 0
    assert '"weight": "-1"' in out
    assert out == (DATA / "act_dyadic_nested.json").read_text()


def test_integer_act_json_is_pinned(capsys):
    # generators of weights 2, 1 and 0 on a word of four factors: the
    # positive ones pass factors and bring brackets back to the left of
    # them, and the zero mode reaches a label; the JSON is pinned byte for
    # byte
    code, out, _ = run(
        capsys, "act", "--group", "integers", "2*L(2,3) - L(1,0) + L(0,2)",
        "L(-1,-1)*L(-1,2)*L(-2,1)*L(-3,0)*v",
        "--weight", '{"central_charge":"7/2","explicit":["1/3",2,"-5/4",1,0,2,"3/7",5]}',
        "--format", "json",
    )
    assert code == 0
    assert out == (DATA / "act_integers_nested.json").read_text()


def test_verify_suite_single_check(capsys):
    code, out, _ = run(capsys, "verify-suite", "--only", "weight-counts")
    assert code == 0
    assert "pass" in out


def test_verify_suite_unknown_check(capsys):
    code, _, err = run(capsys, "verify-suite", "--only", "bogus")
    assert code == 2
    assert "unknown check" in err


def test_verify_suite_empty_closure_depth_is_a_usage_error(capsys):
    # a closure of depth 0 applies no symbol, so it checks nothing
    for depth in ("0", "-1"):
        code, out, err = run(
            capsys, "verify-suite", "--only", "discrete-order", "--depth", depth
        )
        assert code == cli.USAGE_ERROR == 2
        assert out == "" and err == "error: --depth must be >= 1\n"
    code, out, _ = run(capsys, "verify-suite", "--only", "discrete-order", "--depth", "1")
    assert code == 0 and "closure depth 1" in out


def test_verify_suite_perturbation_fails(capsys):
    code, out, _ = run(
        capsys,
        "verify-suite",
        "--only", "singular-witnesses",
        "--inject-label-perturbation",
    )
    assert code == 1
    pinned = json.loads((DATA / "verify_suite_label_perturbation.json").read_text())
    (failed,) = [line for line in out.splitlines() if "FAIL" in line]
    assert failed.endswith(pinned["checks"][0]["detail"])


def test_weight_basis_of_one_long_word(capsys):
    # one part and one index: a single word of 1100 factors, deeper than
    # the interpreter's default recursion limit
    code, out, err = run(
        capsys, "weight-basis", "-1100", "--parts", "1", "--max-t-index", "-1",
        "--format", "json",
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["count"] == 1
    assert data["monomials"] == ["*".join(["L(-1,-1)"] * 1100) + "*v"]


def test_singular_search_refuses_lex_z2(capsys):
    code, out, err = run(
        capsys, "singular-search", "--group", "lex-z2", "--mu=(-1,0)",
        "--parts", "(0,1);(1,0)", "--weight", WEIGHT_B,
    )
    assert code == cli.USAGE_ERROR == 2
    assert out == ""
    assert "runs over the integers and the dyadics" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["charpoly", "--group", "dyadic", "--weight", WEIGHT_B],
        ["delta", "--group", "integers", "--weight", WEIGHT_B],
        ["theorem2", "--group", "integers", "--weight", WEIGHT_B],
        ["verify-suite", "--group", "integers"],
        ["singular-search", "--seed", "1", "--weight", WEIGHT_B],
        ["bracket", "L(1,0)", "L(-1,0)", "--seed", "1"],
        ["act", "L(1,0)", "L(-1,0)*v", "--weight", WEIGHT_B, "--seed", "1"],
        ["weight-basis", "-2", "--seed", "1"],
        ["charpoly", "--seed", "1", "--weight", WEIGHT_B],
        ["delta", "--seed", "1", "--weight", WEIGHT_B],
        ["theorem2", "--seed", "1", "--weight", WEIGHT_B],
    ],
)
def test_options_a_subcommand_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_group_and_seed_go_only_where_they_are_read():
    (subs,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]

    def taking(option):
        return {name for name, p in subs.items() if option in p._option_string_actions}

    assert taking("--group") == {
        "bracket", "act", "weight-basis", "singular-search", "classify-order", "step3-check",
    }
    assert taking("--seed") == {"classify-order", "step3-check", "verify-suite"}
    assert taking("--format") == taking("--out") == set(subs)


def test_non_integer_word_index_exits_2(capsys):
    code, _, err = run(capsys, "act", "L(1,0)", "L(-1,2.5)*v", "--weight", WEIGHT_B)
    assert code == 2 and "Traceback" not in err


@pytest.mark.parametrize(
    "weight",
    ['{"charpoly": ["1", "1"], "explicit": [5, 6]}', '{"explicit": [5, 6], "initial": ["1/2"]}'],
    ids=["charpoly-and-explicit", "initial-and-explicit"],
)
def test_a_weight_that_mixes_label_kinds_exits_2(capsys, weight):
    # a second kind of labels would otherwise be dropped without a word
    code, out, err = run(capsys, "charpoly", "--weight", weight)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "does not go with 'explicit' labels" in err


def test_a_detector_inconsistency_exits_1(capsys, monkeypatch):
    # an empty label-side kernel against the one candidate of t + 1
    monkeypatch.setattr(reducibility, "_label_side_kernel", lambda *args: [])
    code, out, err = run(capsys, "theorem2", "--weight", WEIGHT_B)
    assert code == cli.VERDICT_FAILURE == 1
    assert out == "" and err.startswith("internal consistency failure: ")
    assert "candidate space disagrees" in err


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "bracket", "L(1,-2)", "c")
    assert code == 2
    assert "index must be >= -1" in err
    code, _, err = run(capsys, "charpoly", "--weight", "{not json")
    assert code == 2
    code, _, err = run(capsys, "charpoly", "--weight", WEIGHT_B, "--max-degree", "-1")
    assert code == 2 and "max_degree must be >= 0" in err
    code, _, err = run(capsys, "delta", "--weight", WEIGHT_B, "--max-degree", "-2")
    assert code == 2 and "max_order must be >= 0" in err
    # a vacuous singular-search horizon has no probes or no basis
    for argv, message in (
        (["singular-search", "--mu", "-2", "--probe-b", "0"], "probe_weight must be >= 1"),
        (["singular-search", "--mu", "-2", "--probe-k", "-3"], "probe_index must be >= -1"),
        (["singular-search", "--max-t-index", "-3"], "max_index must be >= -1"),
        (["theorem2", "--probe-b", "0"], "probe_weight must be >= 1"),
        (["theorem2", "--probe-k", "-2"], "probe_index must be >= -1"),
    ):
        code, _, err = run(capsys, *argv, "--weight", WEIGHT_B)
        assert code == 2 and message in err
    # step3-check random mode samples dyadic parts, and at least one instance
    for argv, message in (
        (["--group", "integers"], "dyadic"),
        (["--group", "lex-z2"], "dyadic"),
        (["--count", "0"], "--count must be >= 1"),
        (["--count", "-3"], "--count must be >= 1"),
        (["--eps", "1/2"], "explicit mode needs at least one --part"),
    ):
        code, out, err = run(capsys, "step3-check", *argv)
        assert code == 2 and message in err and out == ""
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_json_determinism(capsys, tmp_path):
    args = ["theorem2", "--weight", WEIGHT_B, "--format", "json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "charpoly", "--weight", WEIGHT_B, "--format", "json", "--out", str(path)
    )
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["printed"] == "t + 1"


FIXTURES = [
    ["bracket", "L(1,0)", "L(-1,0)"],
    ["bracket", "x^2*(t^3-1)", "x"],
    ["bracket", "L(1,-1)", "L(-1,-1)"],
    ["bracket", "c", "L(5,2)"],
    ["act", "L(1,0)", "L(-1,-1)*v", "--weight", WEIGHT_B],
    ["act", "L(-1,0)", "L(-1,-1)*v", "--weight", WEIGHT_B],
    ["act", "c", "v", "--weight", WEIGHT_B],
    ["classify-order", "--group", "integers"],
    ["classify-order", "--group", "dyadic"],
    ["classify-order", "--group", "lex-z2"],
    ["weight-basis", "-1", "--max-t-index", "2"],
    ["weight-basis", "-2", "--max-t-index", "0"],
    ["charpoly", "--weight", WEIGHT_B],
    ["charpoly", "--weight", WEIGHT_ZERO_LABELS],
    ["delta", "--weight", WEIGHT_B, "--horizon", "5"],
    ["delta", "--weight", WEIGHT_ZERO_LABELS, "--horizon", "5"],
    ["singular-search", "--weight", WEIGHT_B, "--max-t-index", "1"],
    ["singular-search", "--weight", WEIGHT_ZERO_LABELS, "--max-t-index", "2"],
    ["theorem2", "--weight", WEIGHT_B],
    ["theorem2", "--weight", WEIGHT_ZERO_LABELS],
]


@pytest.mark.parametrize("argv", FIXTURES, ids=[" ".join(f)[:40] for f in FIXTURES])
def test_text_and_json_verdicts_agree(capsys, argv):
    code_t, text, _ = run(capsys, *argv)
    code_j, raw, _ = run(capsys, *argv, "--format", "json")
    assert code_t == code_j == 0
    data = json.loads(raw)
    # every fact surfaced in the JSON verdict is worded in the text output
    if "printed" in data:
        assert data["printed"] in text
    if "verdict" in data:
        assert data["verdict"] in text
    if "count" in data:
        assert str(data["count"]) in text
    if "dimension" in data:
        assert f"{data['dimension']} candidate(s)" in text
    if "charpoly" in data and data.get("charpoly"):
        assert data.get("certificate", "") in text
    if "coefficients" in data:
        frac = data["coefficients"][0]
        num, den = frac.split("/")
        want = num if den == "1" else frac
        assert want in text


class TinyBudget(cli.VermaModule):
    def __init__(self, algebra, weight):
        super().__init__(algebra, weight, step_budget=3)


def test_step_budget_exhaustion_exits_with_resource_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "VermaModule", TinyBudget)
    code, out, err = run(
        capsys, "act", "L(2,1)", "L(-1,0)*L(-1,1)*L(-2,0)*v", "--weight", WEIGHT_B
    )
    assert code == cli.RESOURCE_LIMIT == 3
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_singular_search_budget_exhaustion_exits_with_resource_limit(capsys, monkeypatch):
    # a generic weight has no candidate at -2, so the budget runs out while
    # the annihilation rows are built, not in the re-verification
    monkeypatch.setattr(cli, "VermaModule", TinyBudget)
    weight = '{"explicit": [1, 2, 3], "central_charge": 1}'
    code, out, err = run(capsys, "singular-search", "--mu", "-2", "--weight", weight)
    assert code == cli.RESOURCE_LIMIT == 3
    assert out == ""
    assert err.startswith("error: ") and "3-step budget" in err


LONG_WORD = "*".join(["L(-1,-1)"] * 1200) + "*v"


def test_long_word_straightens(capsys):
    # [L(1,-1), L(-1,-1)] = c and cc = 1: each of the 1200 factors gives cc
    code, out, err = run(capsys, "act", "L(1,-1)", LONG_WORD, "--weight", WEIGHT_B)
    assert code == 0 and err == ""
    assert out.strip() == "1200*" + "*".join(["L(-1,-1)"] * 1199) + "*v"


def test_long_word_exits_with_resource_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "VermaModule", TinyBudget)
    code, out, err = run(capsys, "act", "L(1,-1)", LONG_WORD, "--weight", WEIGHT_B)
    assert code == cli.RESOURCE_LIMIT == 3
    assert out == ""
    assert err.startswith("error: ") and "3-step budget" in err
    assert "Traceback" not in err


def test_vacuous_weight_basis_horizon_is_a_usage_error(capsys):
    for argv, message in (
        (["--max-t-index", "-3"], "max_index must be >= -1"),
        (["--max-t-index", "0", "--max-parts", "-1"], "max_parts must be >= 0"),
    ):
        code, out, err = run(capsys, "weight-basis", "-2", *argv)
        assert code == cli.USAGE_ERROR == 2
        assert out == "" and message in err


def test_parse_error_quotes_a_window_of_a_long_input(capsys):
    # 5000 nested brackets fail at position 1; the message quotes a window
    # around it and the length, not the 10006 characters of the argument
    text = "(" * 5000 + "L(1,0)" + ")" * 5000
    code, out, err = run(capsys, "bracket", text, "L(-1,0)")
    assert code == cli.USAGE_ERROR == 2 and out == ""
    assert err.startswith("error: at position 1: ") and "10006 characters" in err
    assert len(err) < 200


def test_deeply_nested_weight_json_is_a_usage_error(capsys, tmp_path):
    # json recurses once per bracket; the interpreter's limit is not a crash
    deep = "[" * 100_000
    path = tmp_path / "weight.json"
    path.write_text(deep)
    for spec in (deep, f"@{path}"):
        code, out, err = run(capsys, "charpoly", "--weight", spec)
        assert code == cli.USAGE_ERROR == 2
        assert out == "" and err == "error: --weight is nested too deeply\n"


def test_act_with_a_huge_index_over_explicit_labels(capsys):
    code, out, err = run(
        capsys, "act", f"L(1,{10**14})", "L(-1,0)*v",
        "--weight", '{"central_charge":1,"explicit":[1]}',
    )
    assert code == 0 and err == ""
    assert out == "0\n"


def test_a_degree_zero_charpoly_weight_is_read_as_the_zero_functional(capsys):
    code, out, err = run(
        capsys, "charpoly", "--format", "json",
        "--weight", '{"charpoly":["1"],"central_charge":"0"}',
    )
    assert code == 0 and err == ""
    assert json.loads(out)["charpoly"] == ["1/1"]
    code, _, err = run(capsys, "charpoly", "--weight", '{"charpoly":["1"],"central_charge":"1"}')
    assert code == 2 and "functional is zero" in err


def test_float_in_weight_json_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "charpoly", "--weight", '{"charpoly": [1, 1], "central_charge": 0.1}'
    )
    assert code == 2
    assert "0.1" in err and "p/q" in err


@pytest.mark.parametrize(
    "hw",
    [HighestWeight.explicit([Fraction(1, 2), 3], Fraction(-3, 4)),
     labels_from_charpoly(X**2 + 1, 2, [Fraction(1, 2)]), HighestWeight.zero()],
    ids=["explicit", "recurrent", "zero"],
)
def test_weight_to_json_is_the_spec_weight_reads(capsys, hw):
    # one flat shape: the central charge next to the label keys
    assert set(hw.to_json()) - {"charpoly", "initial", "explicit"} == {"central_charge"}
    spec = json.dumps(hw.to_json())
    code, out, err = run(capsys, "theorem2", "--weight", spec, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["weight"] == hw.describe()


def _number(digits):
    return "1" + "0" * (digits - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["charpoly", "--weight", f'{{"central_charge": "{_number(4301)}", "explicit": []}}'],
        ["charpoly", "--weight", f'{{"central_charge": {_number(4301)}, "explicit": []}}'],
        ["bracket", f"{_number(4301)}*L(1,0)", "L(0,0)"],
        ["bracket", "t^1000000", "L(0,0)"],
        ["bracket", "1/3^1000000*L(1,0)", "L(0,0)"],
    ],
    ids=["cc-string", "cc-integer", "literal", "t-power", "denominator-power"],
)
def test_an_input_past_the_int_string_limit_exits_2(capsys, argv):
    # an input is read under the interpreter's limit on int digits, 4300 by
    # default, and a power is refused before its value is built
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and ("limit" in err or "digits" in err)


def test_an_input_at_the_int_string_limit_is_read(capsys):
    code, out, _ = run(capsys, "charpoly", "--weight",
                       f'{{"central_charge": {_number(4300)}, "explicit": []}}')
    assert code == 0 and "characteristic polynomial: t" in out
    code, out, _ = run(capsys, "bracket", f"{_number(4300)}*L(1,0)", "L(0,0)")
    assert code == 0 and out.strip() == f"-{_number(4300)}*L(1,0)"


def test_an_exact_result_longer_than_the_int_string_limit_is_written(capsys):
    # 1/1600! has 4497 digits, past CPython's default of 4300 for int <-> str;
    # the command lifts the limit while it writes and puts it back afterwards
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(
        capsys, "delta", "--horizon", "1600", "--format", "json",
        "--weight", '{"central_charge":"1","charpoly":["1","1"]}',
    )
    assert code == 0 and err == ""
    assert max(len(c) for c in json.loads(out)["coefficients"]) > 4300
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
