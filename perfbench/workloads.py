"""The benchmark workloads: their items, inputs and correctness checks.

An item is one unit of closed-loop load: ``run`` is timed, ``check`` is not.
``check`` turns the item's output into a report (hashed into the determinism
digest), the certificate brackets it carries, and a list of problems; an item
with a problem counts as failed.

Every call into the program goes through a module attribute
(``adversary.compose_gamma``, ``cli.run``, ...), so a tracer that replaces
those attributes sees the calls.  The workload seed only draws inputs: the
relabelling of the random 5-bit table, tree gate polarity and leaf costs.  It
is never passed to the solver, whose ``--seed`` stays at its default.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from advbound import adversary, boolfn, cli, solver, specmat

#: Solver restarts for every ``bound``/``verify-*`` call (the CLI default is 8).
#: One restart keeps a run inside the benchmark's time budget; the iteration
#: schedule, the solver seed and the target gap stay at their defaults.
RESTARTS = "1"

#: Relative agreement asked of values that must be equal in exact arithmetic.
VALUE_TOL = 1e-9

#: Re-evaluating an emitted certificate must reproduce its reported value.
REEVAL_TOL = 1e-12

#: Target gap of the library workloads' certificates (the solver default).
TARGET_GAP = solver.SolverOptions().target_gap

#: Base of the random 5-bit table.  Each workload seed draws a relabelling of
#: it (bit permutation, input flips, output negation).  Relabelling keeps the
#: adversary value, the pair count and the eigenproblem sizes, so runs with
#: different seeds do comparable work and reach comparable gaps, while the
#: solver still sees a different table.
BASE_TABLE_SEED = 12345


@dataclass
class Checked:
    report: dict
    brackets: list  # (label, lower, upper, tight)
    problems: list
    report_bytes: int = 0


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Checked]


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# CLI items (certify, verify)


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()

    return run


def _check_certificate(label: str, cert: dict, problems: list) -> tuple:
    """Bracket order and re-evaluation of the emitted matrix and witness."""
    lower, upper = cert["lower"]["value"], cert["upper"]["value"]
    if not lower <= upper:
        problems.append(f"{label}: lower {lower!r} > upper {upper!r}")
    gamma = adversary.gamma_from_dict(cert["lower"]["matrix"])
    witness = adversary.witness_from_dict(cert["upper"]["witness"], gamma.function)
    alpha = tuple(cert["alpha"])
    again_lower = adversary.adv_value(gamma, alpha)
    again_upper = adversary.mm_value(witness, alpha)
    if not _rel_close(again_lower, lower, REEVAL_TOL):
        problems.append(f"{label}: matrix re-evaluates to {again_lower!r}, reported {lower!r}")
    if not _rel_close(again_upper, upper, REEVAL_TOL):
        problems.append(f"{label}: witness re-evaluates to {again_upper!r}, reported {upper!r}")
    return (label, lower, upper, bool(cert["tight"]))


def _parse_report(name: str, out: tuple[int, str], problems: list) -> dict | None:
    code, text = out
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        problems.append(f"{name}: exit code {code}, stdout is not a JSON report")
        return None
    if code != 0:
        problems.append(f"{name}: exit code {code}")
    report.pop("timing", None)
    return report


def _bound_item(name: str, argv: list[str], known: float | None) -> Item:
    def check(out) -> Checked:
        problems: list = []
        report = _parse_report(name, out, problems)
        if report is None:
            return Checked({}, [], problems)
        cert = report["results"]["certificate"]
        bracket = _check_certificate(name, cert, problems)
        if known is not None:
            _, lower, upper, _ = bracket
            if not (lower <= known * (1 + VALUE_TOL) and known <= upper * (1 + VALUE_TOL)):
                problems.append(f"{name}: [{lower!r}, {upper!r}] misses {known!r}")
        return Checked(report, [bracket], problems, len(out[1].encode()))

    return Item(name, _cli_call(argv + ["--restarts", RESTARTS]), check)


def _verify_item(name: str, argv: list[str], cert_keys: list[str]) -> Item:
    def check(out) -> Checked:
        problems: list = []
        report = _parse_report(name, out, problems)
        if report is None:
            return Checked({}, [], problems)
        results = report["results"]
        if results["ok"] is not True:
            problems.append(f"{name}: report is not ok")
        brackets = []
        for key in cert_keys:
            certs = results[key]
            certs = certs if isinstance(certs, list) else [certs]
            for i, cert in enumerate(c for c in certs if c is not None):
                brackets.append(_check_certificate(f"{name}.{key}{i}", cert, problems))
        return Checked(report, brackets, problems, len(out[1].encode()))

    return Item(name, _cli_call(argv + ["--restarts", RESTARTS]), check)


def random_table(seed: int) -> dict:
    """Seed-drawn relabelling of the fixed base table, as truth-table JSON."""
    base = np.random.default_rng(BASE_TABLE_SEED).integers(0, 2, 32)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(5)
    flip = rng.integers(0, 2, 5)
    neg = int(rng.integers(0, 2))
    rows = {}
    for k, v in enumerate(base):
        x = format(k, "05b")
        y = "".join(str(int(x[perm[i]]) ^ int(flip[i])) for i in range(5))
        rows[y] = int(v) ^ neg
    return {"n": 5, "rows": [{"x": x, "f": rows[x]} for x in sorted(rows)]}


def _bound_items(seed: int, workdir: str) -> list[Item]:
    table_path = os.path.join(workdir, f"table-seed{seed}.json")
    with open(table_path, "w") as fh:
        json.dump(random_table(seed), fh)
    search = ["00000", "10000", "01000", "00100", "00010", "00001"]
    search_path = os.path.join(workdir, "search5.json")
    with open(search_path, "w") as fh:
        json.dump({"n": 5, "rows": [{"x": x, "f": int(x != "00000")} for x in search]}, fh)
    return [
        _bound_item("or2", ["bound", "--family", "or", "--n", "2"], math.sqrt(2)),
        _bound_item(
            "and3_a123", ["bound", "--family", "and", "--n", "3", "--alpha", "1,2,3"], math.sqrt(14)
        ),
        _bound_item("parity3", ["bound", "--family", "parity", "--n", "3"], 3.0),
        _bound_item(
            "search5_a12121",
            ["bound", "--table", search_path, "--alpha", "1,2,1,2,1"],
            math.sqrt(11),
        ),
        _bound_item("random5", ["bound", "--table", table_path], None),
    ]


def _verify_items() -> list[Item]:
    # Fixed inputs: the seed has nothing to draw here.
    return [
        _verify_item(
            "and_or_or",
            [
                "verify-composition",
                "--outer", "family:and:2",
                "--inner", "family:or:2",
                "--inner", "family:or:2",
            ],
            ["inner", "outer", "direct"],
        ),
        _verify_item(
            "nand_d2",
            ["verify-iteration", "--family", "nand", "--n", "2", "--d", "2"],
            ["base", "iterated"],
        ),
    ]


# --------------------------------------------------------------------------
# Library items (evaluate, compose): composed read-once tree certificates


@dataclass
class TreeCert:
    function: boolfn.BooleanFunction
    gamma: adversary.AdversaryMatrix
    witness: adversary.MinimaxWitness
    value: float
    vector: np.ndarray | None = None  # unit principal eigenvector
    norm: float = 1.0  # ||gamma||, by the product law


def tree_ast(n: int, gate_and: bool, splits: Callable[[int], int], first: int = 1):
    """Alternating AND/OR tree on x_first..x_{first+n-1}; ``splits`` sizes the left child."""
    if n == 1:
        return boolfn.Leaf(first)
    left = splits(n)
    op = boolfn.And if gate_and else boolfn.Or
    return op(
        tree_ast(left, not gate_and, splits, first),
        tree_ast(n - left, not gate_and, splits, first + left),
    )


def _leaf_cert(cost: float, with_vector: bool) -> TreeCert:
    f = boolfn.make_family("id", 1)
    gamma = adversary.AdversaryMatrix(f, specmat.SymMatrix(f.domain, np.array([[0.0, 1.0], [1.0, 0.0]])))
    witness = adversary.MinimaxWitness(f, {"0": (1.0,), "1": (1.0,)})
    vector = np.full(2, math.sqrt(0.5)) if with_vector else None
    return TreeCert(f, gamma, witness, cost, vector)


def build_tree(ast, costs, with_vector: bool) -> TreeCert:
    """Compose gadget certificates up the tree into certificates for the formula."""
    if isinstance(ast, boolfn.Leaf):
        return _leaf_cert(costs[ast.index - 1], with_vector)
    left = build_tree(ast.left, costs, with_vector)
    right = build_tree(ast.right, costs, with_vector)
    gate = "and" if isinstance(ast, boolfn.And) else "or"
    value, gamma_f, witness_f = solver.gadget_cost_adv(gate, (left.value, right.value))
    spec = boolfn.CompositionSpec(gamma_f.function, (left.function, right.function))
    gamma = adversary.compose_gamma(gamma_f, [left.gamma, right.gamma], spec)
    witness = adversary.compose_minimax(witness_f, [left.witness, right.witness], spec)
    cert = TreeCert(gamma.function, gamma, witness, value)
    if with_vector:
        delta_f = specmat.principal_eigenvector(gamma_f.matrix)
        parts = [
            adversary.EigvecParts.from_vector(c.function, c.vector) for c in (left, right)
        ]
        v = adversary.compose_eigenvector(delta_f, parts, spec)
        cert.vector = v / math.sqrt(float(v @ v))
        cert.norm = delta_f.norm * left.norm * right.norm
    return cert


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _check_tree_function(name: str, ast, f: boolfn.BooleanFunction, problems: list) -> None:
    want = boolfn.formula_to_function(ast, f.arity)
    if dict(zip(f.domain, f.values)) != dict(zip(want.domain, want.values)):
        problems.append(f"{name}: composed function differs from the formula's truth table")


def _balanced(n: int) -> int:
    return (n + 1) // 2


def _tree_inputs(rng: np.random.Generator, n: int) -> tuple[bool, tuple[float, ...]]:
    gate_and = bool(rng.integers(0, 2))
    costs = tuple(float(c) for c in rng.uniform(0.5, 2.0, n))
    return gate_and, costs


def _evaluate_item(name: str, ast, costs) -> Item:
    def run():
        cert = build_tree(ast, costs, with_vector=False)
        lower = adversary.adv_value(cert.gamma, costs)
        upper = adversary.mm_value(cert.witness, costs)
        return cert, lower, upper

    def check(out) -> Checked:
        cert, lower, upper = out
        problems: list = []
        _check_tree_function(name, ast, cert.function, problems)
        want, _ = solver.readonce_bound(ast, costs)
        for side, got in (("adv_value", lower), ("mm_value", upper)):
            if not _rel_close(got, want, VALUE_TOL):
                problems.append(f"{name}: {side} {got!r} != readonce {want!r}")
        report = {
            "rows": len(cert.function.domain),
            "values": _sha(np.array(cert.function.values)),
            "gamma": _sha(cert.gamma.matrix.entries),
            "witness": _sha(cert.witness.matrix_rows()),
            "adv_value": lower,
            "mm_value": upper,
            "readonce": want,
        }
        return Checked(report, [(name, lower, upper, upper - lower <= TARGET_GAP)], problems)

    return Item(name, run, check)


def _evaluate_items(rng: np.random.Generator) -> list[Item]:
    items = []
    for n in (10, 11):
        gate_and, costs = _tree_inputs(rng, n)
        items.append(_evaluate_item(f"tree{n}", tree_ast(n, gate_and, _balanced), costs))
    return items


#: Arity-12 tree shapes.  Every shape splits 6|6 at the root, so the root
#: composition only takes norms of 64-row inner matrices; they differ below.
COMPOSE_SHAPES = {
    "balanced": _balanced,
    "twofour": lambda n: 6 if n == 12 else min(2, n - 1),
    "comb": lambda n: 6 if n == 12 else 1,
}


def _compose_item(name: str, ast, costs) -> Item:
    def run():
        cert = build_tree(ast, costs, with_vector=True)
        return cert, adversary.validate(cert.gamma), adversary.mm_value(cert.witness, costs)

    def check(out) -> Checked:
        cert, validation, upper = out
        f = cert.function
        problems: list = []
        if not validation.ok:
            problems.append(f"{name}: composed matrix is invalid: {validation.violations[:3]}")
        _check_tree_function(name, ast, f, problems)
        want, _ = solver.readonce_bound(ast, costs)
        if not _rel_close(upper, want, VALUE_TOL):
            problems.append(f"{name}: mm_value {upper!r} != readonce {want!r}")
        v, lam = cert.vector, cert.norm
        residual = float(np.linalg.norm(cert.gamma.matrix.entries @ v - lam * v))
        if residual > VALUE_TOL * lam:
            problems.append(f"{name}: eigenvector residual {residual:.3e} > {VALUE_TOL:g} * {lam!r}")
        report = {
            "rows": len(f.domain),
            "values": _sha(np.array(f.values)),
            "gamma": _sha(cert.gamma.matrix.entries),
            "witness": _sha(cert.witness.matrix_rows()),
            "vector": _sha(v),
            "norm": lam,
            "mm_value": upper,
            "readonce": want,
        }
        return Checked(report, [(name, want, upper, upper - want <= TARGET_GAP)], problems)

    return Item(name, run, check)


def _compose_items(rng: np.random.Generator) -> list[Item]:
    items = []
    for shape, splits in COMPOSE_SHAPES.items():
        gate_and, costs = _tree_inputs(rng, 12)
        items.append(_compose_item(f"tree12_{shape}", tree_ast(12, gate_and, splits), costs))
    return items


def certify_workload(seed: int, workdir: str) -> list[Item]:
    """Certificate searches through ``cli.run``: five ``bound`` calls (no
    repeats), then ``verify-composition`` and ``verify-iteration`` (seven
    certify calls, one an exact repeat)."""
    return _bound_items(seed, workdir) + _verify_items()


def compose_workload(seed: int, workdir: str) -> list[Item]:
    """Composed tree certificates through the library: evaluated at 1024 and
    2048 rows (dense spectral norms), then built at 4096 rows (``compose_*``,
    ``validate`` and ``mm_value``; spectral norms of 64 rows at most)."""
    rng = np.random.default_rng(seed)
    return _evaluate_items(rng) + _compose_items(rng)


WORKLOADS = {"certify": certify_workload, "compose": compose_workload}
