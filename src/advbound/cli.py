"""Command-line front end: JSON reports on stdout, diagnostics on stderr.

Every number in a report comes straight from the library; the CLI only
parses arguments, loads inputs, and serializes results.  Each ``_cmd_*``
handler takes the parsed arguments and returns ``(inputs, results, summary,
ok)``; only ``run`` prints, times and exits.  Exit codes: 0 for success or a
passing check, 1 for a failing check, 2 for usage errors, and 141, as for
a process killed by SIGPIPE, when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import __version__
from .adversary import (
    CostVector,
    gamma_from_dict,
    gamma_to_dict,
    validate,
    witness_to_dict,
)
from .boolfn import (
    BooleanFunction,
    CompositionSpec,
    ast_to_dict,
    compose_functions,
    formula_arity,
    formula_to_function,
    function_from_dict,
    function_to_dict,
    is_read_once,
    leaf_indices,
    make_family,
    parse_formula,
)
from .solver import (
    SolverOptions,
    certify,
    gadget_cost_adv,
    readonce_arity,
    readonce_bound,
    verify_composition,
    verify_iteration,
)

SCHEMA = "advbound-report/3"


def load_function(source: str) -> BooleanFunction:
    """Resolve ``family:NAME:N``, ``formula:TEXT``, or ``table:PATH``."""
    kind, _, rest = source.partition(":")
    if kind == "family":
        name, _, n = rest.partition(":")
        if not n:
            raise ValueError(f"family spec needs an arity: {source!r}")
        return make_family(name, int(n))
    if kind == "formula":
        return formula_to_function(parse_formula(rest))
    if kind == "table":
        return function_from_dict(_read_json(rest))
    raise ValueError(f"unknown function spec {source!r}; use family:, formula:, or table:")


def _read_json(path: str):
    """The JSON value in the file at ``path``.  Nesting too deep for the
    parser is bad input like any other: a ``ValueError``, not a crash."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply to read") from None


def _function_from_args(args) -> BooleanFunction:
    if args.n is not None and not args.family:
        raise ValueError("--n is read only with --family")
    sources = [s for s in ("family", "formula", "table") if getattr(args, s, None)]
    if len(sources) != 1:
        raise ValueError("give exactly one of --family, --formula, --table")
    kind = sources[0]
    if kind == "family":
        if args.n is None:
            raise ValueError("--family needs --n")
        return make_family(args.family, args.n)
    return load_function(f"{kind}:{getattr(args, kind)}")


def _alpha_from_args(args, n: int) -> CostVector:
    if args.alpha:
        costs = tuple(float(s) for s in args.alpha.split(","))
        if len(costs) != n:
            raise ValueError(f"--alpha has {len(costs)} entries but the function reads {n} bits")
        return CostVector(costs)
    return CostVector.ones(n)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _bracket(lower: float, upper: float) -> str:
    return f"[{lower:.12g}, {upper:.12g}]"


def _emit(argv: list[str], inputs: dict, results: dict, summary: str, started: float) -> None:
    report = {
        "schema": SCHEMA,
        "tool": {"name": "advbound", "version": __version__},
        "command": argv,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "results": results,
        "timing": {"seconds": time.perf_counter() - started},
    }
    print(json.dumps(report, indent=2), flush=True)
    print(summary, file=sys.stderr)


def _add_function_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--family", help="named function: and, or, parity, nand, id")
    sp.add_argument("--n", type=int, help="arity for --family")
    sp.add_argument("--formula", help="formula text, e.g. '(x1&x2)|~x3'")
    sp.add_argument("--table", help="path to a truth-table JSON file")


def _add_alpha_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", help="comma-separated per-bit costs (default all ones)")


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    # Accepted and ignored, for callers that still pass it (perfbench/workloads.py):
    # the barrier path has no restarts.
    sp.add_argument("--restarts", type=int, help=argparse.SUPPRESS)
    sp.add_argument(
        "--gap", type=float, default=SolverOptions().target_gap, help="target certificate gap"
    )


def _cmd_parse(args) -> tuple[dict, dict, str, bool]:
    ast = parse_formula(args.formula)
    results = {
        "ast": ast_to_dict(ast),
        "variables": sorted(set(leaf_indices(ast))),
        "n": formula_arity(ast),
        "read_once": is_read_once(ast),
    }
    summary = f"parse: n={results['n']} read_once={results['read_once']}"
    return {"formula": args.formula}, results, summary, True


def _cmd_bound(args) -> tuple[dict, dict, str, bool]:
    f = _function_from_args(args)
    alpha = _alpha_from_args(args, f.arity)
    cert = certify(f, alpha, SolverOptions(args.gap))
    inputs = {"function": function_to_dict(f), "alpha": list(alpha.costs)}
    results = {"certificate": cert.to_dict()}
    summary = (
        f"bound: {_bracket(cert.lower_value, cert.upper_value)} "
        f"gap={cert.gap:.3g} tight={cert.tight}"
    )
    return inputs, results, summary, True


def _cmd_gadget(args) -> tuple[dict, dict, str, bool]:
    beta = tuple(float(s) for s in args.beta.split(","))
    value, gamma, witness = gadget_cost_adv(args.gate, beta)
    inputs = {"gate": args.gate, "beta": list(beta)}
    results = {
        "value": value,
        "matrix": gamma_to_dict(gamma),
        "witness": witness_to_dict(witness),
    }
    return inputs, results, f"gadget {args.gate}: value={value!r}", True


def _cmd_readonce(args) -> tuple[dict, dict, str, bool]:
    ast = parse_formula(args.formula)
    n = readonce_arity(ast)  # checked before the costs are built
    alpha = _alpha_from_args(args, n)
    value, trace = readonce_bound(ast, alpha)
    inputs = {"formula": args.formula, "alpha": list(alpha.costs)}
    results = {"value": value, "n": n, "trace": trace}
    return inputs, results, f"readonce: value={value!r} (n={n})", True


def _spec_from_args(args) -> CompositionSpec:
    outer = load_function(args.outer)
    inner = tuple(load_function(s) for s in args.inner)
    return CompositionSpec(outer, inner)


def _cmd_compose(args) -> tuple[dict, dict, str, bool]:
    spec = _spec_from_args(args)
    h = compose_functions(spec)
    inputs = {
        "outer": function_to_dict(spec.outer),
        "inner": [function_to_dict(g) for g in spec.inner],
    }
    results = {
        "function": function_to_dict(h),
        "offsets": list(spec.offsets),
        "total_arity": spec.total_arity,
    }
    return inputs, results, f"compose: arity={h.arity} rows={len(h.domain)}", True


def _cmd_verify_composition(args) -> tuple[dict, dict, str, bool]:
    spec = _spec_from_args(args)
    alpha = _alpha_from_args(args, spec.total_arity)
    report = verify_composition(spec, alpha, SolverOptions(args.gap))
    inputs = {
        "outer": function_to_dict(spec.outer),
        "inner": [function_to_dict(g) for g in spec.inner],
        "alpha": list(alpha.costs),
    }
    results = report.to_dict()
    direct = report.direct_cert
    summary = (
        f"verify-composition: {'PASS' if report.ok else 'FAIL'} "
        f"direct={_bracket(direct.lower_value, direct.upper_value) if direct else 'none'} "
        f"composed={_bracket(report.composed_lower, report.composed_upper)} "
        f"theorem={_bracket(report.theorem_lower, report.theorem_upper)}"
    )
    return inputs, results, summary, report.ok


def _cmd_verify_iteration(args) -> tuple[dict, dict, str, bool]:
    f = _function_from_args(args)
    report = verify_iteration(f, args.d, SolverOptions(args.gap))
    inputs = {"function": function_to_dict(f), "d": args.d}
    results = report.to_dict()
    it = report.iterated_cert
    summary = (
        f"verify-iteration: {'PASS' if report.ok else 'FAIL'} "
        f"power={_bracket(report.power_lower, report.power_upper)} "
        f"iterated={_bracket(it.lower_value, it.upper_value)}"
    )
    return inputs, results, summary, report.ok


def _cmd_check_gamma(args) -> tuple[dict, dict, str, bool]:
    data = _read_json(args.matrix)
    function = None
    if args.family or args.formula or args.table or args.n is not None:
        function = _function_from_args(args)
    gamma = gamma_from_dict(data, function)
    report = validate(gamma)
    # The entries as little-endian float64 in domain order, digested: echoing
    # a 4096-row matrix took 18-20 s.
    entries = np.ascontiguousarray(gamma.matrix.entries, dtype="<f8")
    inputs = {
        "function": function_to_dict(gamma.function),
        "matrix_sha256": hashlib.sha256(entries).hexdigest(),
    }
    results = {
        "ok": report.ok,
        "violations": list(report.violations),
        "constant_function": report.constant_function,
        "zero_matrix": report.zero_matrix,
    }
    summary = f"check-gamma: {'PASS' if report.ok else 'FAIL'} ({len(report.violations)} violations)"
    return inputs, results, summary, report.ok


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use.

    ``parse_args`` fills a fresh namespace on each call and writes nothing
    back into the parser, so one parser serves every ``run``.
    """
    p = argparse.ArgumentParser(
        prog="advbound",
        description="Certified adversary bounds for small Boolean functions.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("parse", help="parse a formula and report its AST")
    sp.add_argument("formula")
    sp.set_defaults(handler=_cmd_parse)

    sp = sub.add_parser("bound", help="certify a two-sided adversary bracket")
    _add_function_flags(sp)
    _add_alpha_flag(sp)
    _add_solver_flags(sp)
    sp.set_defaults(handler=_cmd_bound)

    sp = sub.add_parser("gadget", help="closed-form two-bit gate certificate")
    sp.add_argument("--gate", required=True, choices=["and", "or"])
    sp.add_argument("--beta", required=True, help="two comma-separated costs")
    sp.set_defaults(handler=_cmd_gadget)

    sp = sub.add_parser("readonce", help="gate recursion for a read-once formula")
    sp.add_argument("formula")
    _add_alpha_flag(sp)
    sp.set_defaults(handler=_cmd_readonce)

    sp = sub.add_parser("compose", help="build the composed function")
    sp.add_argument("--outer", required=True, help="function spec (family:/formula:/table:)")
    sp.add_argument("--inner", required=True, action="append", help="repeat per block")
    sp.set_defaults(handler=_cmd_compose)

    sp = sub.add_parser("verify-composition", help="compare composed vs reduced brackets")
    sp.add_argument("--outer", required=True, help="function spec (family:/formula:/table:)")
    sp.add_argument("--inner", required=True, action="append", help="repeat per block")
    _add_alpha_flag(sp)
    _add_solver_flags(sp)
    sp.set_defaults(handler=_cmd_verify_composition)

    sp = sub.add_parser("verify-iteration", help="compare the d-fold iterate to the d-th power")
    _add_function_flags(sp)
    sp.add_argument("--d", type=int, required=True)
    _add_solver_flags(sp)
    sp.set_defaults(handler=_cmd_verify_iteration)

    sp = sub.add_parser("check-gamma", help="validate a weight matrix from JSON")
    sp.add_argument("--matrix", required=True, help="matrix JSON path")
    _add_function_flags(sp)
    sp.set_defaults(handler=_cmd_check_gamma)

    return p


def run(argv: Sequence[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        inputs, results, summary, ok = args.handler(args)
        _emit(argv, inputs, results, summary, started)
    except BrokenPipeError:
        # The reader of stdout has gone (as in ``| head``): not bad input.
        # Point stdout at devnull so the flush at exit does not raise again
        # (the SIGPIPE note of Python's signal docs), and exit as a process
        # killed by SIGPIPE would, silently.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
