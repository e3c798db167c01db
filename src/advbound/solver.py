"""Certified brackets on the cost-weighted adversary bound.

``maximize_adv`` climbs the primal side (weight matrices) and
``minimize_mm`` descends the dual side (per-row distributions); both smooth
the inner min/max with an annealed temperature, parametrize their simplex
variables through soft-max logits, and take moment-rescaled (sub)gradient
steps.  Any primal value is a true lower bound and any dual value a true
upper bound, so ``certify`` always returns a valid bracket; the optimizers
only control how tight it is.

The module also carries the exact two-bit gate certificates, the read-once
formula recursion built on them, and report-producing checks for composed
and iterated functions.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adversary import (
    AdversaryMatrix,
    CostVector,
    MinimaxWitness,
    adv_value,
    as_costs,
    compose_gamma,
    compose_minimax,
    mm_value,
    uniform_witness,
    zero_gamma,
)
from .boolfn import (
    And,
    BooleanFunction,
    CompositionSpec,
    FormulaAst,
    Leaf,
    Not,
    compose_functions,
    is_read_once,
    iterate_function,
    leaf_indices,
    make_family,
)
from .specmat import SymMatrix, difference_mask

#: Default slack added on top of certificate gaps in verification reports.
VERIFY_SLACK = 1e-2


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by both optimizers.

    Restarts are independent given the seed (restart r draws from
    ``seed + r``), so runs are reproducible and may execute in parallel
    when ``jobs > 1`` without changing the result.
    """

    restarts: int = 8
    iterations: int = 5000
    temp_start: float = 1.0
    temp_end: float = 1e-3
    step_start: float = 0.5
    step_end: float = 1e-4
    seed: int = 0
    target_gap: float = 1e-3
    arity_cap: int = 5
    jobs: int = 1

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1 or self.jobs < 1:
            raise ValueError("restarts, iterations, and jobs must be positive")
        for x in (self.temp_start, self.temp_end, self.step_start, self.step_end):
            if not (math.isfinite(x) and x > 0):
                raise ValueError("schedules must be positive and finite")
        if not (math.isfinite(self.target_gap) and self.target_gap > 0):
            raise ValueError("target gap must be positive and finite")


def _geometric(start: float, end: float, t: int, total: int) -> float:
    if total <= 1:
        return end
    return start * (end / start) ** (t / (total - 1))


def _check_arity(f: BooleanFunction, opts: SolverOptions) -> None:
    if f.arity > opts.arity_cap:
        raise ValueError(f"arity {f.arity} exceeds the optimizer cap {opts.arity_cap}")


def _run_restarts(run, opts: SolverOptions, better):
    """Execute restarts 0..restarts-1; keep the best result, earliest wins ties."""
    if opts.jobs > 1:
        with ThreadPoolExecutor(max_workers=opts.jobs) as pool:
            results = list(pool.map(run, range(opts.restarts)))
    else:
        results = [run(r) for r in range(opts.restarts)]
    best = results[0]
    for cand in results[1:]:
        if better(cand[0], best[0]):
            best = cand
    return best


def maximize_adv(
    f: BooleanFunction,
    alpha,
    opts: SolverOptions | None = None,
    stop_at: float | None = None,
) -> tuple[AdversaryMatrix, float]:
    """Best found weight matrix and its value (a certified lower bound).

    Subgradient ascent on the free entries (pairs with different outputs),
    with the min over bits smoothed by an annealed soft-min.  The pair
    weights live through soft-max logits, which keeps every weight strictly
    positive and the matrix at unit Frobenius norm by construction; driving
    an entry to exact zero can silently drop a bit's term from the min and
    strand the ascent on that face.  Steps are moment-rescaled (Adam-style)
    like the dual side's, and for the same reason: recovery of a nearly-dead
    weight has a gradient proportional to the weight itself, which plain
    normalized steps cannot act on.
    """
    opts = opts or SolverOptions()
    alpha = as_costs(alpha, f.arity)
    _check_arity(f, opts)
    vals = np.array(f.values)
    xs, ys = np.where(vals[:, None] < vals[None, :])
    if xs.size == 0:
        return zero_gamma(f), 0.0

    m = len(f.domain)
    n = f.arity
    a = alpha.as_array()
    masks = np.stack([difference_mask(f.domain, i).entries for i in range(1, n + 1)])
    diff_pairs = masks[:, xs, ys] != 0  # (n, npairs)

    def build(w: np.ndarray) -> np.ndarray:
        g = np.zeros((m, m))
        g[xs, ys] = w
        g[ys, xs] = w
        return g

    def run(r: int) -> tuple[float, np.ndarray]:
        rng = np.random.default_rng(opts.seed + r)
        z = 0.3 * rng.standard_normal(xs.size)
        mom = np.zeros(xs.size)
        sq = np.zeros(xs.size)
        best_val, best_w = -math.inf, None
        for t in range(opts.iterations):
            z -= z.max()
            np.clip(z, -30.0, 0.0, out=z)
            q = np.exp(z)
            q /= q.sum()
            w = np.sqrt(q / 2.0)  # ||Gamma||_F = 1 exactly

            g = build(w)
            stack = np.concatenate([g[None], g[None] * masks])
            eigvals, eigvecs = np.linalg.eigh(stack)
            whole = eigvals[0, -1]
            u = eigvecs[0, :, -1]
            masked = eigvals[1:, -1]
            vs = eigvecs[1:, :, -1]

            finite = masked > 0
            terms = np.where(finite, a * whole / np.where(finite, masked, 1.0), math.inf)
            val = float(terms[finite].min())
            if val > best_val:
                best_val, best_w = val, w.copy()
            if stop_at is not None and best_val >= stop_at:
                break

            temp = _geometric(opts.temp_start, opts.temp_end, t, opts.iterations)
            weights = np.zeros(n)
            ft = terms[finite]
            wf = np.exp(-(ft - ft.min()) / temp)
            weights[finite] = wf / wf.sum()

            pair_u = u[xs] * u[ys]
            coef_whole = float((weights[finite] * a[finite] / masked[finite]).sum())
            gw = 2.0 * coef_whole * pair_u
            coef_mask = np.zeros(n)
            coef_mask[finite] = weights[finite] * a[finite] * whole / masked[finite] ** 2
            pair_v = vs[:, xs] * vs[:, ys] * diff_pairs
            gw -= 2.0 * (coef_mask[:, None] * pair_v).sum(axis=0)

            gq = gw / np.maximum(4.0 * w, 1e-150)
            gz = q * (gq - float((q * gq).sum()))

            step = _geometric(opts.step_start, opts.step_end, t, opts.iterations)
            mom = 0.9 * mom + 0.1 * gz
            sq = 0.99 * sq + 0.01 * gz * gz
            mhat = mom / (1.0 - 0.9 ** (t + 1))
            shat = sq / (1.0 - 0.99 ** (t + 1))
            z += step * mhat / (np.sqrt(shat) + 1e-12)
        return best_val, best_w

    best_val, best_w = _run_restarts(run, opts, lambda new, old: new > old)
    gamma = AdversaryMatrix(f, SymMatrix(f.domain, build(best_w)))
    return gamma, adv_value(gamma, alpha)


def minimize_mm(
    f: BooleanFunction,
    alpha,
    opts: SolverOptions | None = None,
    stop_at: float | None = None,
) -> tuple[MinimaxWitness, float]:
    """Best found witness and its value (a certified upper bound).

    Each row's distribution lives through unconstrained logits; descent acts
    on a soft-max smoothing of the worst pair, annealed like the primal side,
    with moment-rescaled (Adam-style) steps, which converge much faster here
    than plain normalized steps.
    """
    opts = opts or SolverOptions()
    alpha = as_costs(alpha, f.arity)
    _check_arity(f, opts)
    vals = np.array(f.values)
    xs, ys = np.where(vals[:, None] < vals[None, :])
    if xs.size == 0:
        return uniform_witness(f), 0.0

    m = len(f.domain)
    n = f.arity
    a = alpha.as_array()
    bits = np.array([[c == "1" for c in x] for x in f.domain])
    diff = bits[xs] != bits[ys]  # (npairs, n)

    def run(r: int) -> tuple[float, np.ndarray]:
        rng = np.random.default_rng(opts.seed + r)
        z = 0.3 * rng.standard_normal((m, n))
        mom = np.zeros((m, n))
        sq = np.zeros((m, n))
        best_val, best_p = math.inf, None
        for t in range(opts.iterations):
            z -= z.max(axis=1, keepdims=True)
            np.clip(z, -60.0, 0.0, out=z)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)

            r_pair = np.sqrt(p[xs] * p[ys]) * diff
            s = (r_pair / a).sum(axis=1)
            v = 1.0 / s
            val = float(v.max())
            if val < best_val:
                best_val, best_p = val, p.copy()
            if stop_at is not None and best_val <= stop_at:
                break

            temp = _geometric(opts.temp_start, opts.temp_end, t, opts.iterations)
            sw = np.exp((v - v.max()) / temp)
            sw /= sw.sum()
            contrib = sw[:, None] * (v**2)[:, None] * r_pair / a / 2.0
            gp = np.zeros((m, n))
            np.add.at(gp, xs, -contrib / np.maximum(p[xs], 1e-300))
            np.add.at(gp, ys, -contrib / np.maximum(p[ys], 1e-300))
            gz = p * (gp - (p * gp).sum(axis=1, keepdims=True))

            step = _geometric(opts.step_start, opts.step_end, t, opts.iterations)
            mom = 0.9 * mom + 0.1 * gz
            sq = 0.999 * sq + 0.001 * gz * gz
            mhat = mom / (1.0 - 0.9 ** (t + 1))
            shat = sq / (1.0 - 0.999 ** (t + 1))
            z -= step * mhat / (np.sqrt(shat) + 1e-12)
        return best_val, best_p

    _, best_p = _run_restarts(run, opts, lambda new, old: new < old)
    rows = {x: tuple(best_p[i] / best_p[i].sum()) for i, x in enumerate(f.domain)}
    witness = MinimaxWitness(f, rows)
    return witness, mm_value(witness, alpha)


@dataclass(frozen=True)
class SolverMetadata:
    seed: int
    restarts: int
    iterations: int
    target_gap: float

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "restarts": self.restarts,
            "iterations": self.iterations,
            "target_gap": self.target_gap,
        }


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """A two-sided bracket: feasible matrix below, feasible witness above."""

    function: BooleanFunction
    alpha: CostVector
    lower_matrix: AdversaryMatrix
    lower_value: float
    upper_witness: MinimaxWitness
    upper_value: float
    metadata: SolverMetadata

    def __post_init__(self):
        if self.lower_value > self.upper_value + 1e-9:
            raise ValueError(
                f"bracket inverted: lower {self.lower_value!r} > upper {self.upper_value!r}"
            )

    @property
    def gap(self) -> float:
        return self.upper_value - self.lower_value

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower_value + self.upper_value)

    @property
    def tight(self) -> bool:
        return self.gap <= self.metadata.target_gap

    def to_dict(self) -> dict:
        from .adversary import gamma_to_dict, witness_to_dict
        from .boolfn import function_to_dict

        return {
            "function": function_to_dict(self.function),
            "alpha": list(self.alpha.costs),
            "lower": {"value": self.lower_value, "matrix": gamma_to_dict(self.lower_matrix)},
            "upper": {"value": self.upper_value, "witness": witness_to_dict(self.upper_witness)},
            "gap": self.gap,
            "tight": self.tight,
            "solver": self.metadata.to_dict(),
        }


def certify(f: BooleanFunction, alpha, opts: SolverOptions | None = None) -> BoundCertificate:
    """Run both optimizers and package the bracket.

    The dual run stops once it reaches the lower value plus the target gap;
    anything tighter costs time without improving the guarantee.
    """
    opts = opts or SolverOptions()
    alpha = as_costs(alpha, f.arity)
    gamma, lower = maximize_adv(f, alpha, opts)
    witness, upper = minimize_mm(f, alpha, opts, stop_at=lower + opts.target_gap)
    return BoundCertificate(
        function=f,
        alpha=alpha,
        lower_matrix=gamma,
        lower_value=lower,
        upper_witness=witness,
        upper_value=upper,
        metadata=SolverMetadata(opts.seed, opts.restarts, opts.iterations, opts.target_gap),
    )


# --------------------------------------------------------------------------
# Exact two-bit gate certificates


def gadget_cost_adv(gate: str, beta) -> tuple[float, AdversaryMatrix, MinimaxWitness]:
    """Closed-form certificate for a two-bit AND or OR with costs ``beta``.

    The value is hypot(beta_1, beta_2).  The weight matrix joins the lone
    input of the minority output class to its two one-bit neighbours with
    weights beta_1 and beta_2, which also makes the position-masked norms
    exactly beta_1 and beta_2.
    """
    beta = as_costs(beta, 2)
    b1, b2 = beta.costs
    key = gate.strip().lower()
    if key not in ("and", "or"):
        raise ValueError(f"gate must be 'and' or 'or', got {gate!r}")
    f = make_family(key, 2)
    value = math.hypot(b1, b2)
    # AND: the all-ones input 11 meets 01 across bit 1 and 10 across bit 2.
    # OR mirrors this at the all-zeros input 00.
    hub = "11" if key == "and" else "00"
    spoke1 = "01" if key == "and" else "10"  # differs from the hub at bit 1
    spoke2 = "10" if key == "and" else "01"  # differs from the hub at bit 2
    entries = np.zeros((4, 4))
    idx = {x: i for i, x in enumerate(f.domain)}
    entries[idx[hub], idx[spoke1]] = entries[idx[spoke1], idx[hub]] = b1
    entries[idx[hub], idx[spoke2]] = entries[idx[spoke2], idx[hub]] = b2
    gamma = AdversaryMatrix(f, SymMatrix(f.domain, entries))

    split = (b1 * b1 / (value * value), b2 * b2 / (value * value))
    rows = {
        hub: split,
        spoke1: (1.0, 0.0),
        spoke2: (0.0, 1.0),
        _flip(hub): split,
    }
    witness = MinimaxWitness(f, rows)
    return value, gamma, witness


def _flip(x: str) -> str:
    return "".join("1" if c == "0" else "0" for c in x)


def readonce_bound(ast: FormulaAst, alpha) -> tuple[float, dict]:
    """Recursive gate-by-gate bound for a read-once AND/OR/NOT formula.

    Every variable x_1..x_n must appear exactly once.  A leaf contributes its
    cost, negation passes through, and a gate combines its children by
    hypot; with unit costs the result is sqrt(n).  Returns the value and a
    nested per-node trace.
    """
    if not is_read_once(ast):
        raise ValueError("formula is not read-once: a variable repeats")
    seen = sorted(leaf_indices(ast))
    n = len(seen)
    if seen != list(range(1, n + 1)):
        raise ValueError(f"read-once formula must use x1..x{n} exactly once each")
    alpha = as_costs(alpha, n)

    def walk(node: FormulaAst) -> tuple[float, dict]:
        if isinstance(node, Leaf):
            cost = alpha.costs[node.index - 1]
            return cost, {"op": "var", "index": node.index, "value": cost}
        if isinstance(node, Not):
            value, trace = walk(node.child)
            return value, {"op": "not", "value": value, "child": trace}
        left_v, left_t = walk(node.left)
        right_v, right_t = walk(node.right)
        value = math.hypot(left_v, right_v)
        op = "and" if isinstance(node, And) else "or"
        return value, {"op": op, "value": value, "left": left_t, "right": right_t}

    return walk(ast)


# --------------------------------------------------------------------------
# Verification reports


def _intervals_meet(lo1: float, hi1: float, lo2: float, hi2: float, slack: float) -> bool:
    return max(lo1, lo2) <= min(hi1, hi2) + slack


@dataclass(frozen=True, eq=False)
class CompositionReport:
    """Two routes to the composed bound, compared within certificate gaps.

    The direct route certifies the composed function (skipped above the
    optimizer cap, where the composed certificates themselves provide the
    bracket); the reduced route certifies the outer function against costs
    set to the inner midpoints.  The composed-certificate cross-checks bound
    the reduced bracket from both sides, and the component brackets scale
    the unit-cost outer bracket into an enclosing interval.
    """

    spec: CompositionSpec
    alpha: CostVector
    beta: CostVector
    inner_certs: tuple[BoundCertificate, ...]
    outer_cert: BoundCertificate
    direct_cert: BoundCertificate | None
    lhs_lower: float
    lhs_upper: float
    composed_lower: float
    composed_upper: float
    unit_outer_cert: BoundCertificate
    scaled_lower: float
    scaled_upper: float
    tolerance: float
    main_ok: bool
    chain_lower_ok: bool
    chain_upper_ok: bool
    scaled_ok: bool

    @property
    def lhs_midpoint(self) -> float:
        return 0.5 * (self.lhs_lower + self.lhs_upper)

    @property
    def rhs_midpoint(self) -> float:
        return self.outer_cert.midpoint

    @property
    def ok(self) -> bool:
        return self.main_ok and self.chain_lower_ok and self.chain_upper_ok and self.scaled_ok

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha.costs),
            "beta": list(self.beta.costs),
            "inner": [c.to_dict() for c in self.inner_certs],
            "outer": self.outer_cert.to_dict(),
            "direct": self.direct_cert.to_dict() if self.direct_cert else None,
            "lhs": {"lower": self.lhs_lower, "upper": self.lhs_upper},
            "rhs": {"lower": self.outer_cert.lower_value, "upper": self.outer_cert.upper_value},
            "composed": {"lower": self.composed_lower, "upper": self.composed_upper},
            "scaled": {"lower": self.scaled_lower, "upper": self.scaled_upper},
            "tolerance": self.tolerance,
            "checks": {
                "main": self.main_ok,
                "chain_lower": self.chain_lower_ok,
                "chain_upper": self.chain_upper_ok,
                "scaled": self.scaled_ok,
            },
            "ok": self.ok,
        }


def verify_composition(
    spec: CompositionSpec,
    alpha,
    opts: SolverOptions | None = None,
) -> CompositionReport:
    """Certify both routes to the composed bound and compare them."""
    opts = opts or SolverOptions()
    alpha = as_costs(alpha, spec.total_arity)
    h = compose_functions(spec)

    inner_certs = []
    for off, g in zip(spec.offsets, spec.inner):
        inner_certs.append(certify(g, alpha.block(off, g.arity), opts))
    beta = CostVector(tuple(c.midpoint for c in inner_certs), alpha.unit)
    outer_cert = certify(spec.outer, beta, opts)

    gamma_h = compose_gamma(
        outer_cert.lower_matrix, [c.lower_matrix for c in inner_certs], spec
    )
    composed_lower = adv_value(gamma_h, alpha)
    p_h = compose_minimax(
        outer_cert.upper_witness, [c.upper_witness for c in inner_certs], spec
    )
    composed_upper = mm_value(p_h, alpha)

    if spec.total_arity <= opts.arity_cap:
        direct_cert = certify(h, alpha, opts)
        lhs_lower, lhs_upper = direct_cert.lower_value, direct_cert.upper_value
        direct_gap = direct_cert.gap
    else:
        direct_cert = None
        lhs_lower, lhs_upper = composed_lower, composed_upper
        direct_gap = composed_upper - composed_lower

    combined_gap = outer_cert.gap + direct_gap + sum(c.gap for c in inner_certs)
    tolerance = combined_gap + VERIFY_SLACK

    lhs_mid = 0.5 * (lhs_lower + lhs_upper)
    main_ok = abs(lhs_mid - outer_cert.midpoint) <= tolerance
    chain_lower_ok = composed_lower >= outer_cert.lower_value - tolerance
    chain_upper_ok = composed_upper <= outer_cert.upper_value + tolerance

    unit_outer_cert = certify(spec.outer, CostVector.ones(spec.outer.arity), opts)
    scaled_lower = min(c.lower_value for c in inner_certs) * unit_outer_cert.lower_value
    scaled_upper = max(c.upper_value for c in inner_certs) * unit_outer_cert.upper_value
    scaled_ok = (
        lhs_lower >= scaled_lower - tolerance and lhs_upper <= scaled_upper + tolerance
    )

    return CompositionReport(
        spec=spec,
        alpha=alpha,
        beta=beta,
        inner_certs=tuple(inner_certs),
        outer_cert=outer_cert,
        direct_cert=direct_cert,
        lhs_lower=lhs_lower,
        lhs_upper=lhs_upper,
        composed_lower=composed_lower,
        composed_upper=composed_upper,
        unit_outer_cert=unit_outer_cert,
        scaled_lower=scaled_lower,
        scaled_upper=scaled_upper,
        tolerance=tolerance,
        main_ok=main_ok,
        chain_lower_ok=chain_lower_ok,
        chain_upper_ok=chain_upper_ok,
        scaled_ok=scaled_ok,
    )


@dataclass(frozen=True, eq=False)
class IterationReport:
    """Bracket of the d-fold iterate against the d-th power of the base bracket."""

    function: BooleanFunction
    depth: int
    base_cert: BoundCertificate
    iterated_cert: BoundCertificate
    power_lower: float
    power_upper: float
    slack: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "base": self.base_cert.to_dict(),
            "iterated": self.iterated_cert.to_dict(),
            "power": {"lower": self.power_lower, "upper": self.power_upper},
            "slack": self.slack,
            "ok": self.ok,
        }


def verify_iteration(
    f: BooleanFunction, d: int, opts: SolverOptions | None = None
) -> IterationReport:
    """Certify f and its d-fold iterate; the brackets must meet as d-th powers."""
    opts = opts or SolverOptions()
    if d < 1:
        raise ValueError("depth must be at least 1")
    if f.arity**d > opts.arity_cap:
        raise ValueError(
            f"iterated arity {f.arity ** d} exceeds the optimizer cap {opts.arity_cap}"
        )
    base_cert = certify(f, CostVector.ones(f.arity), opts)
    fd = iterate_function(f, d)
    iterated_cert = certify(fd, CostVector.ones(fd.arity), opts)
    power_lower = base_cert.lower_value**d
    power_upper = base_cert.upper_value**d
    ok = _intervals_meet(
        power_lower,
        power_upper,
        iterated_cert.lower_value,
        iterated_cert.upper_value,
        VERIFY_SLACK,
    )
    return IterationReport(
        function=f,
        depth=d,
        base_cert=base_cert,
        iterated_cert=iterated_cert,
        power_lower=power_lower,
        power_upper=power_upper,
        slack=VERIFY_SLACK,
        ok=ok,
    )
