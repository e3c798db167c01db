"""The benchmark's traced runs: ``perfbench/tracing.py`` wraps every public
function of the package, and a run under it must report what a plain run
does, with span self times that account for the traced wall time."""

import importlib
import json
from pathlib import Path

import pytest

from advbound import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: One run of each kind of certify work the benchmark traces.
ARGVS = {
    "or2": ["bound", "--family", "or", "--n", "2"],
    "and3_a123": ["bound", "--family", "and", "--n", "3", "--alpha", "1,2,3"],
    "and_or_or": [
        "verify-composition",
        "--outer", "family:and:2",
        "--inner", "family:or:2",
        "--inner", "family:or:2",
    ],
    "nand_d2": ["verify-iteration", "--family", "nand", "--n", "2", "--d", "2"],
}


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's tracer module, read where it lives."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def report_without_timing(capsys, argv) -> dict:
    assert cli.run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timing")
    return report


@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS.keys())
def test_traced_run_reports_what_a_plain_run_does(capsys, tracing, argv):
    plain = report_without_timing(capsys, argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.item"):
            traced = report_without_timing(capsys, argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    spans = tracer.spans
    assert len(spans) > 1 and spans[0][0] == "bench.item"
    own = tracing.self_times(spans)
    assert min(own) >= -1e-6
    wall = spans[0][2] - spans[0][1]
    assert sum(own) == pytest.approx(wall, rel=1e-6, abs=1e-9)
