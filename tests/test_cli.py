"""End-to-end runs of every subcommand through ``run(argv)``."""

import json
import math

import pytest

from advbound import boolfn, cli, solver
from advbound.adversary import CostVector, gamma_to_dict
from advbound.boolfn import function_to_dict, make_family
from advbound.cli import SCHEMA, load_function, run
from advbound.solver import SolverOptions, certify, gadget_cost_adv


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


def test_bound_matches_library(capsys):
    code, report, _ = invoke(capsys, ["bound", "--family", "or", "--n", "2", "--restarts", "2"])
    assert code == 0
    cert = certify(make_family("or", 2), (1.0, 1.0), SolverOptions(restarts=2))
    got = report["results"]["certificate"]
    assert got["lower"]["value"] == cert.lower_value
    assert got["upper"]["value"] == cert.upper_value
    assert report["seed"] == 0
    assert report["inputs"]["alpha"] == [1.0, 1.0]


def test_bound_with_costs(capsys):
    code, report, _ = invoke(
        capsys,
        ["bound", "--family", "and", "--n", "2", "--alpha", "3,4", "--restarts", "2", "--seed", "5"],
    )
    assert code == 0
    got = report["results"]["certificate"]
    assert got["lower"]["value"] <= 5.0 + 1e-9
    assert 5.0 <= got["upper"]["value"] + 1e-9
    assert report["seed"] == 5


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
    code, report, _ = invoke(capsys, ["bound", "--table", str(path), "--restarts", "2"])
    assert code == 0
    got = report["results"]["certificate"]
    assert got["lower"]["value"] <= 2.0 + 1e-9 <= got["upper"]["value"] + 2e-9


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


def test_verify_composition_passes(capsys):
    code, report, err = invoke(
        capsys,
        [
            "verify-composition",
            "--outer", "family:and:2",
            "--inner", "family:or:2",
            "--inner", "family:or:2",
            "--restarts", "2",
        ],
    )
    assert code == 0
    assert report["results"]["ok"] is True
    assert report["results"]["lhs"]["lower"] <= 2.0 + 1e-9
    assert "PASS" in err


def test_verify_iteration_passes(capsys):
    code, report, _ = invoke(
        capsys,
        ["verify-iteration", "--family", "nand", "--n", "2", "--d", "2", "--restarts", "2"],
    )
    assert code == 0
    assert report["results"]["ok"] is True


def test_verify_iteration_depth_cap(capsys):
    code, _, err = invoke(
        capsys, ["verify-iteration", "--family", "nand", "--n", "2", "--d", "3", "--restarts", "2"]
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
    code, report, err = invoke(
        capsys, ["bound", "--family", "or", "--n", "2", "--alpha", alpha, "--restarts", "1"]
    )
    assert code == 2
    assert report is None
    assert "error:" in err and message in err and "Traceback" not in err


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
    argv = ["bound", "--family", "or", "--n", "2", "--restarts", "2"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    first.pop("timing")
    second.pop("timing")
    assert first == second


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
