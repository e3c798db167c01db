"""Benchmark for advbound: one workload per run, closed loop, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 55 --trace 0

Workloads (see ``workloads.py``):

* ``certify`` - certificate searches through ``cli.run``.  ``bound`` on or2,
  and3 with alpha=(1,2,3), parity3, the 5-bit search promise with
  alpha=(1,2,1,2,1) and a seed-drawn random 5-bit table (loop-bound 4-8 row
  problems next to an eigh-bound 32-row one, no call repeated), then
  ``verify-composition`` on and(or,or) and ``verify-iteration`` on nand with
  d=2 (seven certify calls on small problems, one an exact repeat).
* ``compose`` - composed read-once tree certificates through the library,
  with the solver idle.  Arity 10 and 11 trees (1024/2048 rows) are built
  and evaluated by ``adv_value`` and ``mm_value``, where dense spectral norms
  dominate; three arity-12 trees (4096 rows) get their function, matrix,
  witness and eigenvector built and only ``validate`` and ``mm_value`` run,
  where the composition functions dominate and spectral norms see 64 rows
  at most.

Load is one caller, one item at a time (closed loop), on one BLAS thread.  A run cycles through
the item list until ``--seconds`` is (about) used up, always at least once,
and reports each item's median time; wall_s and cpu_s sum those medians.  Correctness checks run between passes, outside
the timed region.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.  The
last stdout line is the result object; the line before it is the full record
(machine block, per-item rows with brackets, digest, accounting), also written
under ``perfbench/out/`` together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-up (a fresh interpreter: imports, input generation, warm-up) is measured
#: this often before the timed loop and as often again after it; setup_s takes
#: the median, so a slow spell of the machine at either end does not decide it.
SETUP_REPEATS = 5

#: Gaps below this are reported as this, so gap_max is never 0.  It is the
#: tolerance at which the correctness gate treats two evaluations as equal; the
#: composed certificates of the compose workload are exact and sit at the floor.
GAP_FLOOR = 1e-9

#: Self times plus unattributed time must reproduce the traced wall time to this.
ACCOUNTING_TOL = 1e-3

#: BLAS/OpenMP thread count, set before numpy loads.  One thread keeps every
#: timing independent of what else runs on the machine's other cores: with two
#: OpenBLAS threads on a 2-core machine and one other busy process, random5's
#: 32-row eighs went from 7 s to 23 s and tree11's 2048-row ones from 21 s to
#: 51 s, while one thread stayed at 7 s and 29 s either way.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gap_max": "value",
    "tight_frac": "ratio",
    "ok_frac": "ratio",
}

PROGRAM_LAYERS = ("cli", "solver", "adversary", "specmat", "boolfn", "linalg")
MAXIMIZE_ROWS = (4, 6, 8, 16, 32)
#: spectral_norm row buckets: label -> largest row count in the bucket.
SPECTRAL_BUCKETS = {"r64": 64, "r1024": 1024, "r2048": 2048, "r4096": 4096}
CALLS_AND_SECONDS = (
    "solver.maximize_adv",
    "solver.minimize_mm",
    "solver.certify",
    "linalg.eigh",
    "specmat.spectral_norm",
    "specmat.principal_eigenvector",
    "specmat.difference_mask",
    "specmat.hadamard",
    "adversary.compose_gamma",
    "adversary.compose_minimax",
    "adversary.compose_eigenvector",
    "adversary.validate",
    "adversary.mm_value",
    "adversary.adv_value",
    "boolfn.compose_functions",
)


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as ``--trace 1`` reports them per traced pass.

    What each group should move (and where it should not):

    * ``solver.maximize_adv``/``minimize_mm``, ``linalg.eigh``: wall_s and
      cpu_s on certify (m32 is the random table); no change on compose.
    * ``solver.certify`` (``dup_frac``), ``verify_composition``,
      ``verify_iteration``: wall_s on certify; nothing on compose.
    * ``specmat.spectral_norm`` (by rows), ``principal_eigenvector``: wall_s,
      cpu_s and peak_rss_mb on compose (r1024/r2048, the evaluated trees);
      no change on certify.
    * ``adversary.compose_*``, ``validate``, ``mm_value``,
      ``boolfn.compose_functions``, ``specmat.difference_mask``/``hadamard``:
      wall_s and peak_rss_mb on compose (mostly the 4096-row trees).
    * ``adversary.adv_value``: wall_s on compose (the evaluated trees).
    * ``cli.*``: wall_s on certify (a small share).
    * ``layer.*.self_s`` plus ``bench.unattributed_s`` add up to the traced
      wall time; ``bench.trace_overhead_s`` is traced minus untraced pass time.
    """
    units = {}
    for name in CALLS_AND_SECONDS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for m in MAXIMIZE_ROWS:
        units[f"solver.maximize_adv.s_per_call.m{m}"] = "s"
    units["solver.certify.dup_frac"] = "ratio"
    units["solver.verify_composition.s"] = "s"
    units["solver.verify_iteration.s"] = "s"
    units["linalg.eigh.flop_computed"] = "flop"
    units["specmat.spectral_norm.errors"] = "count"
    for label in SPECTRAL_BUCKETS:
        units[f"specmat.spectral_norm.s.{label}"] = "s"
    units["boolfn.compose_functions.dup_frac"] = "ratio"
    units["cli.run.s"] = "s"
    units["cli.self_s"] = "s"
    units["cli.report_bytes"] = "B"
    for layer in PROGRAM_LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["bench.unattributed_s"] = "s"
    units["bench.trace_overhead_s"] = "s"
    return units


# --------------------------------------------------------------------------
# Machine block


def machine_block() -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        for key in ("blas", "lapack"):
            blas[key] = {k: deps[key].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(np),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _openblas_threads(np) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be found."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


# --------------------------------------------------------------------------
# Passes over the item list


def _warm_up() -> None:
    """Touch the code paths every workload uses, at toy size."""
    import io

    import numpy as np
    from advbound import cli, specmat

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.run(["parse", "x1&x2"])
    a = np.ones((8, 8)) - np.eye(8)
    specmat.spectral_norm(specmat.SymMatrix(tuple(format(i, "03b") for i in range(8)), a))
    np.linalg.eigh(np.stack([a, a, a]))


def set_up(workload: str, seed: int):
    """Imports, input generation and warm-up; returns the workload's items."""
    import workloads

    items = workloads.WORKLOADS[workload](seed, os.path.relpath(OUT, ROOT))
    _warm_up()
    return items


def measure_set_up(workload: str, seed: int) -> list[float]:
    """Wall time of a fresh interpreter that imports, generates inputs and warms up.

    Imports only cost something in a new process, so each repetition is one.
    """
    code = f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import run; run.set_up({workload!r}, {seed})"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_item(item, tracer=None, item_id: int = 0) -> dict:
    """Run one item under the clock (and the tracer, if given), then check it.

    The check runs outside the timed region, and the output is dropped
    before the next item starts, so outputs never pile up.
    """
    if tracer is not None:
        tracer.item = item_id
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.item") if tracer is not None else contextlib.nullcontext():
            out = item.run()
        error = None
    except Exception as exc:  # one failing item must not stop the run
        out, error = None, f"{type(exc).__name__}: {exc}"
    row = {
        "name": item.name,
        "seconds": time.perf_counter() - t0,
        "cpu": time.process_time() - cpu0,
        "problems": [],
        "brackets": [],
        "digest": None,
        "report_bytes": 0,
    }
    if tracer is not None:
        tracer.uninstall()
    if error is None:
        try:
            checked = item.check(out)
        except Exception as exc:  # a malformed output is a failed item
            error = f"check raised {type(exc).__name__}: {exc}"
    del out
    if error is not None:
        row["problems"].append(error)
    else:
        row.update(
            problems=checked.problems,
            brackets=checked.brackets,
            digest=_digest(checked.report),
            report_bytes=checked.report_bytes,
        )
    return row


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _wall(p: dict) -> float:
    return sum(r["seconds"] for r in p["rows"])


def run_passes(items, budget: float, tracer=None) -> list[dict]:
    """Closed loop over the item list until the budget is used.

    Untraced, the loop cycles item by item: after one full pass, an item
    starts only while half of its last time still fits in the budget, so the
    last pass may be partial.  With a tracer, untraced and traced passes
    alternate (at least one of each, so both see the same machine
    conditions) and the loop stops only between whole passes, so per-layer
    numbers are per traced pass.
    """
    passes = []
    last = [0.0] * len(items)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.new_pass()
        rows: list = []
        passes.append({"traced": traced, "rows": rows})
        for k, item in enumerate(items):
            if tracer is None and len(passes) > 1 and time.perf_counter() - start + last[k] / 2 >= budget:
                return passes
            rows.append(run_item(item, tracer if traced else None, (len(passes) - 1) * 1000 + k))
            last[k] = rows[-1]["seconds"]
        elapsed = time.perf_counter() - start
        if tracer is None and elapsed >= budget:
            return passes
        if tracer is not None and len(passes) >= 2 and elapsed + _wall(passes[-1]) / 2 >= budget:
            return passes


# --------------------------------------------------------------------------
# Result assembly


def _code_id() -> str:
    """Hash of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "advbound"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _cross_run_mismatches(key: str, item_digests: list) -> list[int]:
    """Items whose digest differs from an earlier run of the same code, workload and seed."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, json.JSONDecodeError):
        known = {}
    if key in known:
        return [k for k, (a, b) in enumerate(zip(known[key], item_digests)) if a != b]
    known[key] = item_digests
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def assess(passes: list[dict], cross_key: str) -> dict:
    """Failures, digest agreement and brackets over every pass of a run."""
    first = passes[0]["rows"]
    failed = 0
    attempted = 0
    for p in passes:
        for row, ref in zip(p["rows"], first):
            attempted += 1
            failed += bool(row["problems"]) or row["digest"] is None or row["digest"] != ref["digest"]
            if row["digest"] != ref["digest"] and row["digest"] is not None:
                row["problems"].append("report digest differs from the first pass")
    item_digests = [r["digest"] for r in first]
    mismatched = _cross_run_mismatches(cross_key, item_digests)
    for k in mismatched:
        first[k]["problems"].append("report digest differs from an earlier run of this code and seed")
    failed = min(attempted, failed + len(mismatched))
    brackets = [b for r in first for b in r["brackets"]]
    items = []
    for k, row in enumerate(first):
        done = [p["rows"][k] for p in passes if k < len(p["rows"])]
        items.append({
            "name": row["name"],
            "seconds": statistics.median(r["seconds"] for r in done),
            "cpu_s": statistics.median(r["cpu"] for r in done),
            "samples": [r["seconds"] for r in done],
            "brackets": [
                {"label": lab, "lower": lo, "upper": up, "gap": up - lo, "tight": tight}
                for lab, lo, up, tight in row["brackets"]
            ],
            "problems": sorted({msg for r in done for msg in r["problems"]}),
        })
    return {
        "attempted": attempted,
        "failed": failed,
        "cross_run_mismatches": len(mismatched),
        "digest": _digest(item_digests),
        "items": items,
        "brackets": brackets,
    }


def end_to_end(setup_s: float, verdict: dict) -> dict:
    """wall_s and cpu_s are one pass over the item list: each item's median, summed."""
    brackets = verdict["brackets"]
    gaps = [up - lo for _, lo, up, _ in brackets]
    values = {
        "wall_s": sum(item["seconds"] for item in verdict["items"]),
        "cpu_s": sum(item["cpu_s"] for item in verdict["items"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gap_max": max([GAP_FLOOR] + gaps),
        "tight_frac": sum(t for *_, t in brackets) / len(brackets) if brackets else 0.0,
        "ok_frac": 1.0 - verdict["failed"] / verdict["attempted"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the self-time accounting."""
    from tracing import outermost, self_times

    spans = tracer.spans
    n = len(traced)
    own = self_times(spans)
    top = outermost(spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in PROGRAM_LAYERS + ("bench",)}
    max_rows = {}
    spectral = {label: 0.0 for label in SPECTRAL_BUCKETS}
    flop = 0.0
    dups = {"solver.certify": 0, "boolfn.compose_functions": 0}
    for (name, start, end, _, _, extra), s_own, is_top in zip(spans, own, top):
        calls[name] = calls.get(name, 0) + 1
        if is_top:
            incl[name] = incl.get(name, 0.0) + (end - start)
        layer_self[name.split(".", 1)[0]] += s_own
        if name == "solver.maximize_adv":
            t, c = max_rows.get(extra, (0.0, 0))
            max_rows[extra] = (t + end - start, c + 1)
        elif name == "specmat.spectral_norm" and is_top:
            for label, limit in SPECTRAL_BUCKETS.items():
                if extra <= limit:
                    spectral[label] += end - start
                    break
        elif name == "linalg.eigh":
            flop += extra
        elif name in dups:
            dups[name] += bool(extra)

    traced_wall = sum(_wall(p) for p in traced)
    accounted = sum(layer_self.values())
    values = {}
    for name in CALLS_AND_SECONDS:
        values[f"{name}.calls"] = calls.get(name, 0) / n
        values[f"{name}.s"] = incl.get(name, 0.0) / n
    for m in MAXIMIZE_ROWS:
        t, c = max_rows.get(m, (0.0, 0))
        values[f"solver.maximize_adv.s_per_call.m{m}"] = t / c if c else 0.0
    for name in dups:
        values[f"{name}.dup_frac"] = dups[name] / calls[name] if calls.get(name) else 0.0
    values["solver.verify_composition.s"] = incl.get("solver.verify_composition", 0.0) / n
    values["solver.verify_iteration.s"] = incl.get("solver.verify_iteration", 0.0) / n
    values["linalg.eigh.flop_computed"] = flop / n
    values["specmat.spectral_norm.errors"] = tracer.errors.get("specmat.spectral_norm", 0) / n
    for label, t in spectral.items():
        values[f"specmat.spectral_norm.s.{label}"] = t / n
    values["cli.run.s"] = incl.get("cli.run", 0.0) / n
    values["cli.self_s"] = layer_self["cli"] / n
    values["cli.report_bytes"] = sum(r["report_bytes"] for p in traced for r in p["rows"]) / n
    for layer in PROGRAM_LAYERS:
        values[f"layer.{layer}.self_s"] = layer_self[layer] / n
    values["bench.unattributed_s"] = layer_self["bench"] / n
    values["bench.trace_overhead_s"] = statistics.median(map(_wall, traced)) - statistics.median(
        map(_wall, untraced)
    )
    units = per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    accounting = {
        "traced_wall_s": traced_wall,
        "layer_self_s": layer_self,
        "sum_s": accounted,
        "error_s": accounted - traced_wall,
        "min_self_s": min(own) if own else 0.0,
        "closes": abs(accounted - traced_wall) <= ACCOUNTING_TOL * traced_wall
        and (min(own) if own else 0.0) >= -1e-6,
        "spans": len(spans),
    }
    return metrics, accounting


def write_spans(path: str, spans: list) -> None:
    with open(path, "w") as fh:
        fh.write('["name","start","end","parent","item","extra"]\n')
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=["certify", "compose"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    os.chdir(ROOT)  # item inputs are named relative to the checkout
    if not os.path.isfile(os.path.join(SRC, "advbound", "__init__.py")):
        print(f"error: no advbound sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # inherited by the set-up interpreters too
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, HERE]
    import advbound

    if os.path.dirname(os.path.abspath(advbound.__file__)) != os.path.join(SRC, "advbound"):
        print(f"error: advbound imported from {advbound.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer

    os.makedirs(OUT, exist_ok=True)
    items = set_up(args.workload, args.seed)
    setup_runs = measure_set_up(args.workload, args.seed)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cross_key = f"{_code_id()}:{args.workload}:{args.seed}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(),
    }
    if args.trace == 0:
        passes = run_passes(items, args.seconds)
        verdict = assess(passes, cross_key)
        setup_runs += measure_set_up(args.workload, args.seed)
        metrics = end_to_end(statistics.median(setup_runs), verdict)
        correct = verdict["failed"] == 0
    else:
        tracer = Tracer()
        passes = run_passes(items, args.seconds, tracer)
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        verdict = assess(passes, cross_key)
        metrics, accounting = per_layer(tracer, traced, untraced)
        record["accounting"] = accounting
        record["traced_passes"] = len(traced)
        spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
        write_spans(spans_path, tracer.spans)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        correct = verdict["failed"] == 0 and accounting["closes"]
        if not accounting["closes"]:
            print(f"FAIL accounting: self times sum to {accounting['sum_s']!r} s, "
                  f"traced wall is {accounting['traced_wall_s']!r} s", file=sys.stderr)

    record.update({
        "setup_s": setup_runs,
        "passes": len(passes),
        "digest": verdict["digest"],
        "cross_run_mismatches": verdict["cross_run_mismatches"],
        "items": verdict["items"],
        "fail_frac": verdict["failed"] / verdict["attempted"],
        "metrics": metrics,
    })
    with open(os.path.join(OUT, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for item in verdict["items"]:
        for problem in item["problems"]:
            print(f"FAIL {item['name']}: {problem}", file=sys.stderr)
    print(json.dumps(record, separators=(",", ":")))
    result = {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
