"""In-memory span tracer that wraps the program's public functions.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper, in every module that holds a reference to it, so calls made inside
a module and calls through names imported elsewhere are both caught.  It also
wraps the ``numpy.linalg`` entry points the program calls.  A span is
``(name, start, end, parent, item, extra)``; ``parent`` indexes the span list
(-1 for a root) and ``extra`` carries the per-name detail that the layer
metrics need (rows, flop count, whether the call repeats an earlier one).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

from advbound import adversary, boolfn, cli, solver, specmat
from advbound.specmat import EigensolverError

#: Layer name -> module.  The module's short name prefixes its span names.
LAYERS = {"cli": cli, "solver": solver, "adversary": adversary, "specmat": specmat, "boolfn": boolfn}

#: numpy.linalg entry points the program calls.
LINALG = ("eigh", "norm")

#: Span names whose ``extra`` field is filled in (see ``Tracer._extra``).
ANNOTATED = {
    "linalg.eigh",
    "solver.maximize_adv",
    "solver.minimize_mm",
    "specmat.spectral_norm",
    "solver.certify",
    "boolfn.compose_functions",
}


def _rows(matrix_arg) -> int:
    return matrix_arg.dim if isinstance(matrix_arg, specmat.SymMatrix) else 0


def _eigh_flop(a) -> float:
    """batch * m**3 for a stack of m-by-m matrices (a computed count)."""
    shape = np.shape(a)
    flop = float(shape[-1]) ** 3
    for d in shape[:-2]:
        flop *= d
    return flop


class Tracer:
    """Collects spans while installed; ``item`` tags spans with the item id."""

    def __init__(self):
        self.spans: list = []
        self.item = -1
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # -- annotations stored in a span's ``extra`` field -----------------------

    def _fingerprint(self, name: str, key) -> bool:
        """True when ``key`` was already seen for ``name`` since ``new_pass``."""
        seen = self._seen[name]
        dup = key in seen
        seen.add(key)
        return dup

    def _extra(self, name: str, args, kwargs):
        if name == "linalg.eigh":
            return _eigh_flop(args[0])
        if name in ("solver.maximize_adv", "solver.minimize_mm"):
            return len(args[0].domain)
        if name == "specmat.spectral_norm":
            return _rows(args[0])
        if name == "solver.certify":
            f, alpha = args[0], args[1]
            opts = args[2] if len(args) > 2 else kwargs.get("opts")
            costs = alpha.costs if hasattr(alpha, "costs") else tuple(alpha)
            return self._fingerprint(name, (f, tuple(costs), opts))
        if name == "boolfn.compose_functions":
            return self._fingerprint(name, (args[0], args[1] if len(args) > 1 else kwargs.get("max_arity")))
        return None

    def new_pass(self) -> None:
        """Forget fingerprints: repeats are counted within one pass of the item list."""
        self._seen.clear()

    # -- span recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = name in ANNOTATED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            extra = self._extra(name, args, kwargs) if annotate else None
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except EigensolverError:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, extra)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span (one item run)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.item, None)

    def install(self) -> None:
        targets = {}
        for layer, module in LAYERS.items():
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    targets[fn] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for module in LAYERS.values():
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    self._patch(module, attr, wrappers[fn])
        for attr in LINALG:
            self._patch(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans: list) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(spans: list) -> list[bool]:
    """True for spans with no ancestor of the same name (recursion counted once)."""
    flags = []
    for name, _, _, parent, _, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        flags.append(p < 0)
    return flags
