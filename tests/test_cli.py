"""End-to-end runs of every subcommand through ``run(argv)``."""

import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from advbound import boolfn, cli, solver
from advbound.adversary import CostVector, gamma_to_dict
from advbound.boolfn import function_to_dict, make_family
from advbound.cli import SCHEMA, load_function, run
from advbound.solver import SolverOptions, certify, gadget_cost_adv

SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, report, out.err


def test_parse_reports_ast(capsys):
    code, report, err = invoke(capsys, ["parse", "(x1&x2)|~x3"])
    assert code == 0
    assert report["schema"] == SCHEMA
    assert report["tool"]["name"] == "advbound"
    assert report["command"] == ["parse", "(x1&x2)|~x3"]
    assert report["results"]["n"] == 3
    assert report["results"]["variables"] == [1, 2, 3]
    assert report["results"]["read_once"] is True
    assert report["results"]["ast"]["op"] == "or"
    assert len(report["inputs_digest"]) == 64
    assert "parse:" in err


def test_parse_error_is_usage_error(capsys):
    code, report, err = invoke(capsys, ["parse", "x1 &"])
    assert code == 2
    assert report is None
    assert err.startswith("error:")
    code, report, err = invoke(capsys, ["parse", "(x1 x2)"])
    assert (code, report) == (2, None)
    assert err == "error: expected ')' (position 5)\n"


def test_bound_matches_library(capsys):
    code, report, _ = invoke(capsys, ["bound", "--family", "or", "--n", "2", "--gap", "0.01"])
    assert code == 0
    cert = certify(make_family("or", 2), (1.0, 1.0), SolverOptions(target_gap=0.01))
    assert report["results"]["certificate"] == json.loads(json.dumps(cert.to_dict()))
    assert report["schema"] == "advbound-report/3"
    assert list(report) == ["schema", "tool", "command", "inputs", "inputs_digest", "results", "timing"]
    assert report["inputs"]["alpha"] == [1.0, 1.0]


def test_bound_with_costs(capsys):
    code, report, _ = invoke(
        capsys,
        ["bound", "--family", "and", "--n", "2", "--alpha", "3,4"],
    )
    assert code == 0
    got = report["results"]["certificate"]
    assert got["lower"]["value"] <= 5.0 + 1e-9
    assert 5.0 <= got["upper"]["value"] + 1e-9
    assert got["tight"] is True and got["search"]["stop"] == "gap"


def test_bound_input_validation(capsys):
    assert invoke(capsys, ["bound", "--family", "or"])[0] == 2  # missing --n
    assert invoke(capsys, ["bound", "--formula", "x1", "--family", "or", "--n", "1"])[0] == 2
    assert invoke(capsys, ["bound"])[0] == 2
    assert invoke(capsys, ["bound", "--family", "or", "--n", "2", "--alpha", "1"])[0] == 2


@pytest.mark.parametrize("gap", ["nan", "inf", "0"])
def test_bound_rejects_bad_target_gap(capsys, gap):
    code, report, err = invoke(capsys, ["bound", "--family", "or", "--n", "2", "--gap", gap])
    assert code == 2
    assert report is None
    assert err.startswith("error:") and "Traceback" not in err


def test_bound_from_table_file(capsys, tmp_path):
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(function_to_dict(make_family("parity", 2))))
    code, report, _ = invoke(capsys, ["bound", "--table", str(path)])
    assert code == 0
    got = report["results"]["certificate"]
    assert got["lower"]["value"] <= 2.0 + 1e-9 <= got["upper"]["value"] + 2e-9


@pytest.mark.parametrize(
    "argv", [["--family", "or", "--n", "2"], ["--formula", "x1&~x1"]], ids=["or2", "constant"]
)
def test_negative_seed_is_a_usage_error_before_any_certify(capsys, monkeypatch, argv):
    # The path draws no random number, so there is no --seed: any seed,
    # negative or not, is an unknown argument.
    def no_work(*args, **kwargs):
        raise AssertionError("the seed must be rejected before any certify")

    monkeypatch.setattr(cli, "certify", no_work)
    for seed in ("-1", "0", "5"):
        code, report, err = invoke(capsys, ["bound", *argv, "--seed", seed])
        assert code == 2
        assert report is None
        assert f"unrecognized arguments: --seed {seed}" in err


def drop_timing(text: str) -> dict:
    report = json.loads(text)
    report.pop("timing")
    return report


def test_restarts_flag_is_accepted_and_changes_nothing(capsys):
    # Kept for callers that still pass it; the report differs only in the
    # echoed command and the timing.
    base = ["bound", "--family", "and", "--n", "3", "--alpha", "1,2,3"]
    assert run(base) == 0
    plain = drop_timing(capsys.readouterr().out)
    assert run(base + ["--restarts", "1"]) == 0
    flagged = drop_timing(capsys.readouterr().out)
    assert flagged.pop("command") == base + ["--restarts", "1"]
    plain.pop("command")
    assert json.dumps(flagged) == json.dumps(plain)


#: Truth tables whose numbers are not integral.  0.7 and 1.9 were truncated to
#: the identity function; JSON reads 1e400 as inf, where int() raised
#: OverflowError with a traceback.
NON_INTEGRAL_TABLES = {
    "fractional_f": '{"n": 1, "rows": [{"x": "0", "f": 0.7}, {"x": "1", "f": 1.9}]}',
    "infinite_n": '{"n": 1e400, "rows": [{"x": "0", "f": 0}, {"x": "1", "f": 1}]}',
    "infinite_f": '{"n": 1, "rows": [{"x": "0", "f": 0}, {"x": "1", "f": 1e400}]}',
}


@pytest.mark.parametrize("table", NON_INTEGRAL_TABLES.values(), ids=NON_INTEGRAL_TABLES.keys())
@pytest.mark.parametrize(
    "argv,wrap",
    [
        (lambda t: ["bound", "--table", t, "--restarts", "1"], "%s"),
        # the table is the matrix's embedded function
        (
            lambda t: ["check-gamma", "--matrix", t],
            '{"labels": ["0", "1"], "entries": [[0, 1], [1, 0]], "function": %s}',
        ),
        (lambda t: ["verify-composition", "--outer", f"table:{t}", "--inner", "family:id:1"], "%s"),
    ],
    ids=["bound", "check-gamma", "verify-composition"],
)
def test_non_integral_truth_table_numbers_are_usage_errors(capsys, tmp_path, argv, wrap, table):
    path = tmp_path / "input.json"
    path.write_text(wrap % table)
    code, report, err = invoke(capsys, argv(str(path)))
    assert code == 2
    assert report is None
    assert err.startswith("error:") and "must be an integral number" in err


def test_gadget_values(capsys):
    code, report, err = invoke(capsys, ["gadget", "--gate", "and", "--beta", "3,4"])
    assert code == 0
    assert report["results"]["value"] == 5.0
    assert report["inputs"] == {"gate": "and", "beta": [3.0, 4.0]}
    rows = {r["x"]: r["p"] for r in report["results"]["witness"]["rows"]}
    assert rows["01"] == [1.0, 0.0]
    assert "gadget and" in err


def test_gadget_argument_errors(capsys):
    assert invoke(capsys, ["gadget", "--gate", "xor", "--beta", "1,1"])[0] == 2
    assert invoke(capsys, ["gadget", "--gate", "and", "--beta", "1,2,3"])[0] == 2
    assert invoke(capsys, ["gadget", "--gate", "and"])[0] == 2


def test_readonce_weighted(capsys):
    code, report, _ = invoke(capsys, ["readonce", "(x1|x2)&~x3", "--alpha", "3,4,12"])
    assert code == 0
    assert report["results"]["value"] == 13.0
    assert report["results"]["n"] == 3
    assert report["results"]["trace"]["op"] == "and"


def test_readonce_rejects_repeats(capsys):
    code, _, err = invoke(capsys, ["readonce", "x1&x1"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "formula,stray", [("x13&x1", "x13"), ("x2&x3", "x3"), ("(x9|x1)&x4", "x9")]
)
def test_readonce_names_the_first_stray_variable(capsys, formula, stray):
    code, report, err = invoke(capsys, ["readonce", formula])
    assert code == 2
    assert report is None
    n = len(formula.split("x")) - 1
    assert err.startswith("error:")
    assert err.rstrip().endswith(f"must use x1..x{n} exactly once each, but uses {stray}")


def test_compose(capsys):
    code, report, _ = invoke(
        capsys,
        ["compose", "--outer", "family:and:2", "--inner", "family:or:2", "--inner", "formula:x1&x2"],
    )
    assert code == 0
    assert report["results"]["total_arity"] == 4
    assert report["results"]["offsets"] == [1, 3]
    assert len(report["results"]["function"]["rows"]) == 16


def test_compose_bad_spec(capsys):
    code, _, err = invoke(capsys, ["compose", "--outer", "nope:and", "--inner", "family:or:2"])
    assert code == 2
    assert "unknown function spec" in err
    argv = ["verify-composition", "--outer", "family:and:2", "--inner", "family:or:2"]
    code, report, err = invoke(capsys, argv)
    assert (code, report) == (2, None)
    assert err == "error: outer arity 2 but 1 inner functions\n"


def test_verify_composition_passes(capsys):
    code, report, err = invoke(
        capsys,
        [
            "verify-composition",
            "--outer", "family:and:2",
            "--inner", "family:or:2",
            "--inner", "family:or:2",
        ],
    )
    assert code == 0
    assert report["results"]["ok"] is True
    results = report["results"]
    direct = results["direct"]
    lower = [direct["lower"]["value"]] + [results[k]["lower"] for k in ("composed", "theorem")]
    upper = [direct["upper"]["value"]] + [results[k]["upper"] for k in ("composed", "theorem")]
    assert max(lower) <= 2.0 + 1e-9 and 2.0 <= min(upper) + 1e-9
    assert err.startswith("verify-composition: PASS direct=[")


def test_consecutive_runs_share_the_parser_and_leak_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    _, loose, _ = invoke(capsys, ["bound", "--family", "or", "--n", "2", "--gap", "0.5"])
    _, plain, _ = invoke(capsys, ["bound", "--family", "or", "--n", "2"])
    assert loose["results"]["certificate"]["solver"] == {"target_gap": 0.5}
    assert plain["results"]["certificate"]["solver"] == {"target_gap": 1e-3}
    argv = ["verify-composition", "--outer", "family:and:2"]
    argv += ["--inner", "family:or:2", "--inner", "family:or:2"]
    for _ in range(2):
        code, report, _ = invoke(capsys, argv)
        assert code == 0
        assert len(report["inputs"]["inner"]) == 2
        assert len(report["results"]["inner"]) == 2


@pytest.mark.parametrize(
    "name,failing,command",
    [
        (
            "verify_composition",
            {"theorem_lower": 3.0},
            "verify-composition --outer family:and:2 --inner family:or:2 --inner family:or:2",
        ),
        ("verify_iteration", {"ok": False}, "verify-iteration --family nand --n 2 --d 2"),
    ],
    ids=["composition", "iteration"],
)
def test_failing_verify_reports_and_exits_one(capsys, monkeypatch, name, failing, command):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: dataclasses.replace(real(*a), **failing))
    code, report, err = invoke(capsys, command.split())
    assert code == 1
    assert report["results"]["ok"] is False
    assert err.startswith(f"{command.split()[0]}: FAIL")


def test_verify_iteration_passes(capsys):
    code, report, _ = invoke(
        capsys,
        ["verify-iteration", "--family", "nand", "--n", "2", "--d", "2"],
    )
    assert code == 0
    assert report["results"]["ok"] is True


def test_verify_iteration_depth_cap(capsys):
    code, _, err = invoke(
        capsys, ["verify-iteration", "--family", "nand", "--n", "2", "--d", "3"]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-iteration", "--family", "nand", "--n", "2", "--d", "100000"],
        ["verify-iteration", "--family", "id", "--n", "1", "--d", "1000000000"],
    ],
    ids=["nand", "id"],
)
def test_verify_iteration_depth_checked_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the depth cap must hold before any certify or composition")

    monkeypatch.setattr(solver, "certify", no_work)
    monkeypatch.setattr(boolfn, "compose_functions", no_work)
    code, report, err = invoke(capsys, argv)
    assert code == 2
    assert report is None
    assert err.startswith("error:") and f"depth {argv[-1]} exceeds the cap 12" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (lambda t: ["bound", "--table", t], "arity 1000000000 exceeds the cap 12"),
        (
            lambda t: ["verify-composition", "--outer", "family:id:1", "--inner", f"table:{t}"],
            "arity 1000000000 exceeds the cap 12",
        ),
        (lambda t: ["readonce", "x1000000000"], "must use x1..x1 exactly once"),
    ],
    ids=["bound", "verify-composition", "readonce"],
)
def test_huge_arity_rejected_before_any_costs(capsys, monkeypatch, tmp_path, argv, message):
    # The costs were sized by the claimed arity first: 8 GB for 10**9 bits.
    def no_costs(*args, **kwargs):
        raise AssertionError("the arity must be checked before any costs are built")

    monkeypatch.setattr(cli, "_alpha_from_args", no_costs)
    monkeypatch.setattr(CostVector, "ones", no_costs)
    table = tmp_path / "huge.json"
    table.write_text(json.dumps({"n": 10**9, "rows": []}))
    code, report, err = invoke(capsys, argv(str(table)))
    assert code == 2
    assert report is None
    assert err.startswith("error:") and message in err


def test_verify_iteration_on_a_partial_table_certifies_nothing(capsys, monkeypatch, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("a partial table must be rejected before any certify")

    monkeypatch.setattr(solver, "certify", no_work)
    table = tmp_path / "partial.json"
    table.write_text(json.dumps({"n": 2, "rows": [{"x": "00", "f": 0}, {"x": "11", "f": 1}]}))
    code, report, err = invoke(capsys, ["verify-iteration", "--table", str(table), "--d", "2"])
    assert code == 2
    assert report is None
    assert err.startswith("error:") and "iteration requires a total function" in err


@pytest.mark.parametrize("alpha", ["5,1", "1,2,3,4,5"], ids=["arity", "wrong_length"])
def test_verify_iteration_rejects_costs(capsys, alpha):
    # verify-iteration certifies at unit costs; it accepted --alpha, ignored
    # it and exited 0.
    argv = ["verify-iteration", "--family", "and", "--n", "2", "--d", "2", "--alpha", alpha]
    code, report, err = invoke(capsys, argv)
    assert code == 2
    assert report is None
    assert "unrecognized arguments: --alpha" in err


@pytest.mark.parametrize(
    "alpha,message",
    [
        pytest.param("1e-320,1", "normal", id="subnormal"),
        # The costs' sum overflows, so no search step runs (none may warn).
        pytest.param("1e308,1e308", "bracket not finite", id="near_max"),
    ],
)
def test_cost_extremes_are_usage_errors(capsys, alpha, message):
    # 1e-320: 1/alpha overflowed and the bracket came out as NaN with exit code 0.
    # 1e308: every dual value is inf, and the upper bound with it.
    code, report, err = invoke(capsys, ["bound", "--family", "or", "--n", "2", "--alpha", alpha])
    assert code == 2
    assert report is None
    assert "error:" in err and message in err and "Traceback" not in err


def bound_or2(capsys, alpha: str) -> dict:
    """The certificate of ``bound --family or --n 2 --alpha ALPHA``, which must exit 0.

    The suite turns RuntimeWarnings into errors, so a warning fails the caller."""
    code, report, _ = invoke(capsys, ["bound", "--family", "or", "--n", "2", "--alpha", alpha])
    assert code == 0
    return report["results"]["certificate"]


def test_huge_equal_costs_bracket_the_exact_value_without_warnings(capsys):
    # Adam's second moment overflowed here: about 5000 RuntimeWarnings, and
    # the bracket [1.19e200, 2.13e200] after the full budget.
    cert = bound_or2(capsys, "1e200,1e200")
    exact = math.hypot(1e200, 1e200)
    assert cert["lower"]["value"] <= exact * (1 + 1e-12)
    assert exact <= cert["upper"]["value"] * (1 + 1e-12)
    assert cert["gap"] <= 1e-12 * exact  # tight relative to the value, not to the absolute target


def test_cost_ratio_beyond_the_path_ends_untight_but_valid(capsys):
    # 1e300 against 1 used to raise two RuntimeWarnings.  The cheap bit's
    # weight would have to fall below 1e-300 of the other's, which the
    # barrier does not reach: the path runs to its end with a loose lower side.
    cert = bound_or2(capsys, "1e300,1")
    assert cert["search"]["stop"] == "end" and cert["tight"] is False
    assert cert["lower"]["value"] <= 1e300 * (1 + 1e-12) <= cert["upper"]["value"] * (1 + 2e-12)
    assert 0.0 < cert["lower"]["value"]


def test_expensive_bit_still_gives_a_tight_bracket(capsys):
    # The absolute gap at 1e3 was 0.047 after the full budget.
    cert = bound_or2(capsys, "1e3,1")
    exact = math.hypot(1e3, 1.0)
    assert cert["tight"] is True and cert["search"]["stop"] == "gap"
    assert cert["gap"] <= 1e-5
    assert cert["lower"]["value"] <= exact * (1 + 1e-12) and exact <= cert["upper"]["value"] * (1 + 1e-12)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gadget", "--gate", "or", "--beta", "1.7e308,1.7e308"], "gadget value not finite"),
        (["readonce", "x1|x2", "--alpha", "1.7e308,1.7e308"], "readonce value not finite"),
    ],
    ids=["gadget", "readonce"],
)
def test_overflowing_value_is_usage_error(capsys, argv, message):
    # hypot overflowed to inf, which printed as "value": Infinity (not JSON) with exit 0.
    code, report, err = invoke(capsys, argv)
    assert code == 2
    assert report is None
    assert "error:" in err and message in err and "Traceback" not in err


def test_gadget_with_huge_costs_prints_a_valid_witness(capsys):
    # b1 * b1 / (value * value) was inf / inf, a NaN witness with exit 0.
    code, report, _ = invoke(capsys, ["gadget", "--gate", "and", "--beta", "1e200,1e200"])
    assert code == 0
    assert report["results"]["value"] == math.hypot(1e200, 1e200)
    rows = {r["x"]: r["p"] for r in report["results"]["witness"]["rows"]}
    assert rows["11"] == rows["00"] == [0.5, 0.5]


def test_check_gamma_valid(capsys, tmp_path):
    _, gamma, _ = gadget_cost_adv("and", (3.0, 4.0))
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(gamma_to_dict(gamma)))
    code, report, err = invoke(capsys, ["check-gamma", "--matrix", str(path)])
    assert code == 0
    assert report["results"]["ok"] is True
    assert "PASS" in err


def test_check_gamma_echoes_the_function_and_a_digest_of_the_entries(capsys, tmp_path):
    # The report echoes no entry: a 4096-row matrix took 18-20 s to echo.
    _, gamma, _ = gadget_cost_adv("and", (3.0, 4.0))
    data = gamma_to_dict(gamma)
    digests = []
    for diagonal in (0.0, 1.0):  # the second matrix differs in one entry
        data["entries"][0][0] = diagonal
        path = tmp_path / f"gamma{diagonal}.json"
        path.write_text(json.dumps(data))
        _, report, _ = invoke(capsys, ["check-gamma", "--matrix", str(path)])
        assert report["inputs"] == {
            "function": function_to_dict(gamma.function),
            "matrix_sha256": hashlib.sha256(np.array(data["entries"], dtype="<f8")).hexdigest(),
        }
        digests.append(report["inputs"]["matrix_sha256"])
    assert digests[0] != digests[1]


def test_check_gamma_invalid_exits_one(capsys, tmp_path):
    _, gamma, _ = gadget_cost_adv("and", (3.0, 4.0))
    data = gamma_to_dict(gamma)
    data["entries"][0][1] = data["entries"][1][0] = 2.0  # same-output pair 00,01
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, report, err = invoke(capsys, ["check-gamma", "--matrix", str(path)])
    assert code == 1
    assert report["results"]["ok"] is False
    assert report["results"]["violations"]
    assert "FAIL" in err


def test_check_gamma_function_flags_override(capsys, tmp_path):
    _, gamma, _ = gadget_cost_adv("and", (1.0, 1.0))
    data = gamma_to_dict(gamma)
    del data["function"]
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(data))
    # without a function the matrix is unusable ...
    assert invoke(capsys, ["check-gamma", "--matrix", str(path)])[0] == 2
    # ... with one it validates
    code, report, _ = invoke(
        capsys, ["check-gamma", "--matrix", str(path), "--family", "and", "--n", "2"]
    )
    assert code == 0 and report["results"]["ok"] is True


def test_check_gamma_bad_files(capsys, tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert invoke(capsys, ["check-gamma", "--matrix", str(garbled)])[0] == 2
    assert invoke(capsys, ["check-gamma", "--matrix", str(tmp_path / "missing.json")])[0] == 2


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]"], ids=["int", "null", "list"])
def test_check_gamma_non_object_json(capsys, tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, report, err = invoke(capsys, ["check-gamma", "--matrix", str(path)])
    assert code == 2
    assert report is None
    assert err.startswith("error:") and "Traceback" not in err


#: Matrix entries that are not JSON numbers.  np.array(..., dtype=float) read
#: "1" and true as 1.0, so the first two passed with exit 0; a 400-digit
#: integer overflowed float() with a traceback.
NON_NUMBER_ENTRIES = {
    "strings": '[["0", "1"], ["1", "0"]]',
    "booleans": "[[0, true], [true, 0]]",
    "huge_integer": f"[[0, 1{'0' * 400}], [1{'0' * 400}, 0]]",
}


@pytest.mark.parametrize("entries", NON_NUMBER_ENTRIES.values(), ids=NON_NUMBER_ENTRIES.keys())
def test_check_gamma_rejects_entries_that_are_not_numbers(capsys, tmp_path, entries):
    path = tmp_path / "m.json"
    path.write_text('{"labels": ["0", "1"], "entries": %s}' % entries)
    argv = ["check-gamma", "--matrix", str(path), "--family", "id", "--n", "1"]
    code, report, err = invoke(capsys, argv)
    assert code == 2
    assert report is None
    assert err.startswith("error: malformed matrix:") and "Traceback" not in err


def test_bound_rejects_truth_table_rows_that_are_not_strings(capsys, tmp_path):
    # str() read the rows 11 and 10 as "11" and "10", so this exited 0.
    path = tmp_path / "t.json"
    path.write_text('{"n": 2, "rows": [{"x": 11, "f": 1}, {"x": 10, "f": 0}]}')
    code, report, err = invoke(capsys, ["bound", "--table", str(path)])
    assert code == 2
    assert report is None
    assert err.startswith("error: not a bit string: 11") and "Traceback" not in err


@pytest.mark.parametrize("labels", ["[0, 1]", '[["0"], ["1"]]'], ids=["integers", "lists"])
def test_check_gamma_rejects_labels_that_are_not_strings(capsys, tmp_path, labels):
    # str() read the labels 0 and 1 as "0" and "1", so this exited 0.
    path = tmp_path / "m.json"
    path.write_text('{"labels": %s, "entries": [[0, 1], [1, 0]]}' % labels)
    argv = ["check-gamma", "--matrix", str(path), "--family", "id", "--n", "1"]
    code, report, err = invoke(capsys, argv)
    assert code == 2
    assert report is None
    assert err.startswith("error: labels must be strings") and "Traceback" not in err


def test_check_gamma_rejects_labels_given_as_a_string(capsys, tmp_path):
    # tuple("01") split the string into the labels "0" and "1", so this exited 0.
    data = {"labels": "01", "entries": [[0, 1], [1, 0]], "function": function_to_dict(make_family("id", 1))}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, report, err = invoke(capsys, ["check-gamma", "--matrix", str(path)])
    assert code == 2
    assert report is None
    assert err.startswith("error: malformed matrix: labels must be an array") and "Traceback" not in err


def test_check_gamma_names_nan_entries_not_finite(capsys, tmp_path):
    # NaN compares unequal to itself, so this was reported as asymmetric.
    path = tmp_path / "m.json"
    path.write_text('{"labels": ["0", "1"], "entries": [[0, NaN], [NaN, 0]]}')
    argv = ["check-gamma", "--matrix", str(path), "--family", "id", "--n", "1"]
    code, report, err = invoke(capsys, argv)
    assert code == 2
    assert report is None
    assert err.startswith("error: entries must be finite") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--formula", "x1", "--n", "3"],
        ["verify-iteration", "--formula", "x1", "--n", "3", "--d", "2"],
        ["check-gamma", "--formula", "x1&x2", "--n", "3"],
        ["check-gamma", "--n", "3"],
    ],
    ids=["bound", "verify-iteration", "check-gamma", "check-gamma-embedded"],
)
def test_n_without_family_is_usage_error(capsys, tmp_path, argv):
    # --n was dropped without a word, so each of these exited 0.
    if argv[0] == "check-gamma":
        _, gamma, _ = gadget_cost_adv("and", (1.0, 1.0))
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(gamma_to_dict(gamma)))
        argv = argv + ["--matrix", str(path)]
    code, report, err = invoke(capsys, argv)
    assert code == 2
    assert report is None
    assert err.startswith("error: --n is read only with --family") and "Traceback" not in err


@pytest.mark.parametrize(
    "formula",
    ["~" * 3000 + "x1", "(" * 3000 + "x1" + ")" * 3000, "&".join(["x1"] * 3000)],
    ids=["not", "parens", "chain"],
)
@pytest.mark.parametrize(
    "argv",
    [
        lambda t: ["parse", t],
        lambda t: ["bound", "--formula", t],
        lambda t: ["readonce", t],
    ],
    ids=["parse", "bound", "readonce"],
)
def test_deep_formula_is_usage_error(capsys, argv, formula):
    code, report, err = invoke(capsys, argv(formula))
    assert code == 2
    assert report is None
    assert "nests deeper" in err


@pytest.mark.parametrize(
    "argv",
    [
        lambda path: ["bound", "--table", path],
        lambda path: ["verify-composition", "--outer", f"table:{path}", "--inner", "family:or:2"],
        lambda path: ["check-gamma", "--matrix", path],
    ],
    ids=["bound", "verify-composition", "check-gamma"],
)
def test_deeply_nested_json_is_usage_error(capsys, tmp_path, argv):
    # json.load raised RecursionError, which ended the run with a traceback
    # and exit 1, the code of a failing check.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code = run(argv(str(path)))
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error:") and "nests too deeply" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--family", "or", "--n", "64"],
        ["compose", "--outer", "family:or:64", "--inner", "family:id:1"],
        ["verify-composition", "--outer", "family:id:1", "--inner", "family:and:64"],
    ],
    ids=["bound", "compose", "verify-composition"],
)
def test_family_arity_cap(capsys, argv):
    code, report, err = invoke(capsys, argv)
    assert code == 2
    assert report is None
    assert "exceeds the cap" in err


def test_reports_identical_except_timing(capsys):
    _, first, _ = invoke(capsys, ["gadget", "--gate", "or", "--beta", "1,1"])
    _, second, _ = invoke(capsys, ["gadget", "--gate", "or", "--beta", "1,1"])
    first.pop("timing")
    second.pop("timing")
    assert first == second


def test_bound_deterministic_across_runs(capsys):
    # byte for byte, apart from the timing, on a 5-bit table and a cost
    # vector that runs the path to its end
    for argv in (
        ["bound", "--formula", "(x1&x2)|(x3&~x4)|~x5"],
        ["bound", "--family", "or", "--n", "2", "--alpha", "1e300,1"],
    ):
        texts = []
        for _ in range(2):
            assert run(argv) == 0
            out = capsys.readouterr().out
            texts.append(out[: out.index('"timing"')])
        assert texts[0] == texts[1]


def test_digest_tracks_inputs(capsys):
    _, a, _ = invoke(capsys, ["gadget", "--gate", "and", "--beta", "1,1"])
    _, b, _ = invoke(capsys, ["gadget", "--gate", "and", "--beta", "1,2"])
    assert a["inputs_digest"] != b["inputs_digest"]


def test_load_function_specs():
    assert load_function("family:or:2") == make_family("or", 2)
    assert load_function("formula:x1&x2") == make_family("and", 2)
    with pytest.raises(ValueError):
        load_function("family:or")
    with pytest.raises(ValueError):
        load_function("mystery:or:2")


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "advbound" in capsys.readouterr().out


def test_module_entry_point_reports_and_exits():
    def advbound(*argv):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-m", "advbound.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    ok = advbound("parse", "x1")
    assert ok.returncode == 0
    report = json.loads(ok.stdout)
    assert report["command"] == ["parse", "x1"] and report["results"]["n"] == 1
    bad = advbound("parse", "x1 &")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["parse", "x1"], ["verify-iteration", "--family", "nand", "--n", "2", "--d", "2"]],
    ids=["short-report", "long-report"],
)
def test_closed_stdout_pipe_exits_as_sigpipe_silently(argv):
    # The short report fails at the flush, the long one inside print.  A
    # closed pipe used to exit 2, as a usage error, after all the work.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-m", "advbound.cli", *argv]
    try:
        done = subprocess.run(cmd, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
