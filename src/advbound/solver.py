"""Certified brackets on the cost-weighted adversary bound.

The primal side climbs over weight matrices and the dual side descends over
per-row distributions.  Both run the same search loop, ``_search``: the inner
min/max is smoothed with an annealed temperature, the simplex variables
live through soft-max logits, and steps are moment-rescaled (Adam-style);
restarts run one after another.  The loop is a generator that yields the
best point so far after every step.  ``certify``, the one entry point to
the searches, steps the two sides in lockstep and stops at the first step
where the best values bracket the bound within the target gap, skipping
the steps and restarts left.  Both sides work on the f^-1(0) x f^-1(1)
block only, read from the function's ``classes`` and ``bits``: the primal
variables are the block B of Gamma = [[0, B], [B^T, 0]], whose norms are
the top singular values of B and of its bit-masked copies, taken in one
batched Gram eigensolve per step, and the dual sums its pair terms over
the axes of the same block.  Any primal
value is a true lower bound and any dual value a true upper bound, and the
reported values are re-evaluated on the returned certificates, so
``certify`` always returns a valid bracket; the optimizers only control how
tight it is.

The annealing schedule and the optimizers' arity cap are module constants.
The temperature ends at ``TEMP_END`` = 1e-4, where the soft-max's bias
(at most T ln N over N terms, N <= 256 pairs at the arity cap) is 5.5e-4,
below the default target gap.  The search loop reads its per-step scalars
from a schedule cached per budget and side, and updates its moments in
place; a block with one row or one column has a 1 x 1 Gram matrix, which
``top_singular`` answers without an eigensolve.  A certificate reports its
lockstep step count and whether the gap or the budget stopped it.
``SolverOptions`` holds only the four settings a certificate reports:
restarts, iterations, seed and target gap.

The module also carries the exact two-bit gate certificates, the read-once
formula recursion built on them, and report-producing checks for composed
and iterated functions.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
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
    gamma_to_dict,
    mm_value,
    uniform_witness,
    witness_to_dict,
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
    function_to_dict,
    is_read_once,
    iterate_function,
    leaf_indices,
    make_family,
)
from .specmat import SymMatrix, top_singular

#: Default slack added on top of certificate gaps in verification reports.
VERIFY_SLACK = 1e-2

#: Largest arity the optimizers take: the dual's pair arrays grow as 4**n.
ARITY_CAP = 5

#: Annealing schedule of both searches: temperature and step size fall
#: geometrically from start to end over the iteration budget.  A soft-max
#: over N terms at temperature T is off by at most T ln N, and the dual's
#: max runs over at most 16 * 16 = 4**(ARITY_CAP - 1) pairs, so the end
#: temperature keeps that bias, 1e-4 ln 256 = 5.5e-4, below the default
#: target gap of 1e-3.
TEMP_START, TEMP_END = 1.0, 1e-4
STEP_START, STEP_END = 0.5, 1e-4


@dataclass(frozen=True)
class SolverOptions:
    """The settings of a search; the certificate reports all four.

    Restarts run in order and are independent given the seed (restart r
    draws from ``seed + r``), so runs are reproducible.  ``restarts`` and
    ``iterations`` are a budget: ``certify`` stops as soon as its bracket
    is within ``target_gap``, in whichever restart that happens.
    """

    restarts: int = 8
    iterations: int = 5000
    seed: int = 0
    target_gap: float = 1e-3

    def __post_init__(self):
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.target_gap) and self.target_gap > 0):
            raise ValueError("target gap must be positive and finite")


def _geometric(start: float, end: float, t: int, total: int) -> float:
    if total <= 1:
        return end
    return start * (end / start) ** (t / (total - 1))


@functools.lru_cache(maxsize=2)
def _schedule(n: int, ascent: bool, beta2: float) -> tuple[array, array, array, array]:
    """The per-step scalars of an n-step search, as four columns over t.

    They are the temperature, the step size (negated for a descent) and the
    two Adam bias corrections 1 - 0.9**(t+1) and 1 - beta2**(t+1).  Every
    restart, and every search with the same budget and side, shares them.
    """
    sign = 1.0 if ascent else -1.0
    steps = range(n)
    return (
        array("d", (_geometric(TEMP_START, TEMP_END, t, n) for t in steps)),
        array("d", (_geometric(STEP_START, STEP_END, t, n) * sign for t in steps)),
        array("d", (1.0 - 0.9 ** (t + 1) for t in steps)),
        array("d", (1.0 - beta2 ** (t + 1) for t in steps)),
    )


def _check_arity(f: BooleanFunction) -> None:
    if f.arity > ARITY_CAP:
        raise ValueError(f"arity {f.arity} exceeds the optimizer cap {ARITY_CAP}")


def _check_costs(alpha: CostVector) -> None:
    """Reject costs whose sum is not a float before any search step.

    The witness p_x(i) = alpha_i / sum(alpha) has value at most sum(alpha),
    so a finite sum leaves room for a finite upper bound; past it the
    searches only overflow on the way to a bracket that is not finite.
    """
    try:
        math.fsum(alpha.costs)  # the costs are finite, so only overflow can fail
    except OverflowError:
        raise ValueError("bracket not finite: the costs sum past the float range") from None


def _search(
    step,
    shape,
    opts: SolverOptions,
    *,
    ascent: bool,
    floor: float,
    decay: tuple[float, float],
):
    """Annealed soft-max/Adam search, as a generator of the best point so far.

    The variables are logits whose soft-max along the last axis gives the
    probabilities ``p``; after the shift by their maximum they are clipped
    below at ``floor``.  ``step(p)`` returns the objective value at ``p``
    and a function that maps the temperature to the gradient with respect
    to the logits.  ``decay`` is the second-moment decay and its complement,
    as each side writes it (1 - 0.99 != 0.01 in floating point).  Restarts
    run in order, restart r drawing from ``seed + r``.

    After every step the generator yields the best (value, probabilities)
    found so far, across restarts, the earliest winning ties; its last item
    is the search's result.  A consumer that stops early skips the rest of
    the steps, and of the restarts.
    """
    better = operator.gt if ascent else operator.lt
    beta2, rate2 = decay
    schedule = _schedule(opts.iterations, ascent, beta2)
    best_val, best_p = (-math.inf if ascent else math.inf), None
    for r in range(opts.restarts):
        rng = np.random.default_rng(opts.seed + r)
        z = 0.3 * rng.standard_normal(shape)
        mom = np.zeros(shape)
        sq = np.zeros(shape)
        for temp, rate, fix1, fix2 in zip(*schedule):
            z -= z.max(axis=-1, keepdims=True)
            np.maximum(z, floor, out=z)  # the upper clip at 0 is a no-op after the shift
            p = np.exp(z)
            p /= p.sum(axis=-1, keepdims=True)
            val, gradient = step(p)
            if better(val, best_val):
                best_val, best_p = val, p  # p is fresh each step and never written to
            elif best_p is None:
                # Values that are all inf or NaN (costs near the float limits)
                # still return a certificate; the caller's evaluation rejects it.
                best_p = p
            yield best_val, best_p

            # Adam, in place: mom = 0.9 mom + 0.1 gz, sq = beta2 sq + rate2 gz gz,
            # z += rate (mom/fix1) / (sqrt(sq/fix2) + 1e-12), each product and
            # sum rounded as in that order.
            gz = gradient(temp)
            mom *= 0.9
            mom += 0.1 * gz
            g2 = rate2 * gz
            g2 *= gz
            sq *= beta2
            sq += g2
            move = mom / fix1
            move *= rate
            den = sq / fix2
            np.sqrt(den, out=den)
            den += 1e-12
            move /= den
            z += move


def _adv_step(f: BooleanFunction, a: np.ndarray):
    """The primal objective on the f^-1(0) x f^-1(1) block B, and its gradient.

    The free weights are B in row-major order, w = sqrt(q/2) for the
    soft-max probabilities q, so Gamma = [[0, B], [B^T, 0]] has unit
    Frobenius norm.  Each step takes the top singular triples of
    [B, B o M_1, ..., B o M_n] in one batched solve, where M_i marks the
    pairs that differ at bit i; a bit whose M_i is empty never enters the
    min, and is dropped up front.  With the min over bits smoothed by an
    annealed soft-min, the gradient in B is sum_k c_k (x_k y_k^T) o M_k.
    """
    zeros, ones = f.classes
    masks = f.bits[zeros].T[:, :, None] != f.bits[ones].T[:, None, :]  # (n, m0, m1)
    shape = masks.shape[1:]
    live = masks.any(axis=(1, 2))
    a = a[live]
    stack_masks = np.concatenate([np.ones((1,) + shape), masks[live]])

    def step(q: np.ndarray):
        w = np.sqrt(q / 2.0)  # ||Gamma||_F = 1 exactly
        sigma, x, y = top_singular(w.reshape(shape) * stack_masks)
        whole, masked = sigma[0], sigma[1:]
        terms = a * whole / masked
        low = terms.min()

        def gradient(temp: float) -> np.ndarray:
            soft = np.exp(-(terms - low) / temp)
            soft /= soft.sum()
            coef = np.empty(sigma.size)
            coef[0] = float((soft * a / masked).sum())
            coef[1:] = -soft * a * whole / masked**2
            gb = (coef[:, None, None] * x[:, :, None] * y[:, None, :] * stack_masks).sum(axis=0)
            gq = gb.ravel() / np.maximum(4.0 * w, 1e-150)
            return q * (gq - float((q * gq).sum()))

        return float(low), gradient

    return step


def _adv_search(f: BooleanFunction, alpha: CostVector, opts: SolverOptions):
    """The primal search over the f^-1(0) x f^-1(1) block (see ``_search``).

    Soft-max logits keep every weight positive (a zero weight can drop a
    bit's term from the min and strand the ascent there), and moment-rescaled
    steps revive nearly-dead weights, whose gradient shrinks with them.
    """
    zeros, ones = f.classes
    step = _adv_step(f, alpha.as_array())
    return _search(step, zeros.size * ones.size, opts, ascent=True, floor=-30.0, decay=(0.99, 0.01))


def _gamma_from(f: BooleanFunction, q: np.ndarray) -> AdversaryMatrix:
    """The weight matrix of the primal probabilities q, B = sqrt(q/2) row-major."""
    zeros, ones = f.classes
    g = np.zeros((len(f.domain),) * 2)
    g[np.ix_(zeros, ones)] = np.sqrt(q / 2.0).reshape(zeros.size, ones.size)
    g[np.ix_(ones, zeros)] = g[np.ix_(zeros, ones)].T
    return AdversaryMatrix(f, SymMatrix(f.domain, g))


def _mm_step(f: BooleanFunction, a: np.ndarray):
    """The dual objective on the per-row distributions p, and its gradient.

    Every f^-1(0) x f^-1(1) pair (x, y) has value 1 / sum_i [x_i != y_i]
    sqrt(p_x(i) p_y(i)) / alpha_i; the max over pairs is smoothed by an
    annealed soft-max.  Pair arrays are laid out as the (m0, m1) block, so
    each row's gradient is a sum over one axis of it.
    """
    zeros, ones = f.classes
    m0, m1 = zeros.size, ones.size
    diff = (f.bits[zeros][:, None, :] != f.bits[ones][None, :, :]).reshape(m0 * m1, -1)

    def step(p: np.ndarray):
        pz, po = p[zeros], p[ones]
        r_pair = np.sqrt((pz[:, None, :] * po[None, :, :]).reshape(m0 * m1, -1)) * diff
        v = 1.0 / (r_pair / a).sum(axis=1)
        top = v.max()

        def gradient(temp: float) -> np.ndarray:
            sw = np.exp((v - top) / temp)
            sw /= sw.sum()
            contrib = (sw[:, None] * (v**2)[:, None] * r_pair / a / 2.0).reshape(m0, m1, -1)
            gp = np.empty_like(p)
            gp[zeros] = (-contrib / np.maximum(pz, 1e-300)[:, None, :]).sum(axis=1)
            gp[ones] = (-contrib / np.maximum(po, 1e-300)[None, :, :]).sum(axis=0)
            return p * (gp - (p * gp).sum(axis=1, keepdims=True))

        return float(top), gradient

    return step


def _mm_search(f: BooleanFunction, alpha: CostVector, opts: SolverOptions):
    """The dual search over the per-row distributions (see ``_search``)."""
    step = _mm_step(f, alpha.as_array())
    shape = (len(f.domain), f.arity)
    return _search(step, shape, opts, ascent=False, floor=-60.0, decay=(0.999, 0.001))


def _witness_from(f: BooleanFunction, p: np.ndarray) -> MinimaxWitness:
    """The witness of the dual probabilities p, one row per input in domain order."""
    return MinimaxWitness(f, {x: tuple(p[i] / p[i].sum()) for i, x in enumerate(f.domain)})


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """A two-sided bracket: feasible matrix below, feasible witness above.

    ``steps`` is the number of lockstep steps the searches took, across
    restarts, and ``stop`` says why they stopped: ``"gap"`` when their best
    values met the target gap (or no pair needed a search), ``"budget"``
    when every restart ran to the end without meeting it.
    """

    function: BooleanFunction
    alpha: CostVector
    lower_matrix: AdversaryMatrix
    lower_value: float
    upper_witness: MinimaxWitness
    upper_value: float
    options: SolverOptions
    steps: int
    stop: str

    def __post_init__(self):
        if not (math.isfinite(self.lower_value) and math.isfinite(self.upper_value)):
            raise ValueError(
                f"bracket not finite: lower {self.lower_value!r}, upper {self.upper_value!r}"
            )
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
        return self.gap <= self.options.target_gap

    def to_dict(self) -> dict:
        return {
            "function": function_to_dict(self.function),
            "alpha": list(self.alpha.costs),
            "lower": {"value": self.lower_value, "matrix": gamma_to_dict(self.lower_matrix)},
            "upper": {"value": self.upper_value, "witness": witness_to_dict(self.upper_witness)},
            "gap": self.gap,
            "tight": self.tight,
            "solver": {
                "seed": self.options.seed,
                "restarts": self.options.restarts,
                "iterations": self.options.iterations,
                "target_gap": self.options.target_gap,
            },
            "search": {"steps": self.steps, "stop": self.stop},
        }


def certify(f: BooleanFunction, alpha, opts: SolverOptions | None = None) -> BoundCertificate:
    """Run both searches in lockstep and package the bracket.

    The primal and dual searches take one step each in turn, and stop at the
    first step where the best upper value so far is within the target gap of
    the best lower value so far: anything tighter costs time without
    improving the guarantee.  The stop spans restarts, so the restarts left
    are skipped; a bracket that never meets the gap runs both searches to
    the end.  The reported values are re-evaluated on the certificates
    built from the two best points.
    """
    opts = opts or SolverOptions()
    alpha = as_costs(alpha, f.arity)
    _check_arity(f)
    _check_costs(alpha)
    steps, stop = 0, "gap"
    if not f.is_constant:
        searches = zip(_adv_search(f, alpha, opts), _mm_search(f, alpha, opts))
        for steps, ((low, q), (up, p)) in enumerate(searches, start=1):
            if up - low <= opts.target_gap:
                break
        else:
            stop = "budget"
        gamma, witness = _gamma_from(f, q), _witness_from(f, p)
        lower, upper = adv_value(gamma, alpha), mm_value(witness, alpha)
    else:
        gamma, witness, lower, upper = zero_gamma(f), uniform_witness(f), 0.0, 0.0
    return BoundCertificate(
        function=f,
        alpha=alpha,
        lower_matrix=gamma,
        lower_value=lower,
        upper_witness=witness,
        upper_value=upper,
        options=opts,
        steps=steps,
        stop=stop,
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
    if not math.isfinite(value):
        raise ValueError(f"gadget value not finite: hypot({b1!r}, {b2!r}) overflows")
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

    # Square only after scaling by a common power of two, which is exact: the
    # squares then neither overflow nor underflow where the costs' ratio allows.
    e = math.frexp(max(b1, b2))[1]
    s1, s2, sv = (math.ldexp(b, -e) for b in (b1, b2, value))
    split = (s1 * s1 / (sv * sv), s2 * s2 / (sv * sv))
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


def readonce_arity(ast: FormulaAst) -> int:
    """The n of a read-once formula that uses each of x_1..x_n exactly once.

    Raises ``ValueError`` for any other formula; n is at most the number of
    leaves, so a caller can size per-variable data after this check.
    """
    if not is_read_once(ast):
        raise ValueError("formula is not read-once: a variable repeats")
    seen = sorted(leaf_indices(ast))
    n = len(seen)
    if seen != list(range(1, n + 1)):
        raise ValueError(f"read-once formula must use x1..x{n} exactly once each")
    return n


def readonce_bound(ast: FormulaAst, alpha) -> tuple[float, dict]:
    """Recursive gate-by-gate bound for a read-once AND/OR/NOT formula.

    Every variable x_1..x_n must appear exactly once (``readonce_arity``).
    A leaf contributes its cost, negation passes through, and a gate
    combines its children by hypot; with unit costs the result is sqrt(n).
    Returns the value and a nested per-node trace.
    """
    alpha = as_costs(alpha, readonce_arity(ast))

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

    value, trace = walk(ast)
    if not math.isfinite(value):
        raise ValueError(f"readonce value not finite: {value!r}")
    return value, trace


# --------------------------------------------------------------------------
# Verification reports


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

    # certify is deterministic, so a repeated (inner function, cost block)
    # pair is certified once and its certificate reused.
    certs: dict[tuple[BooleanFunction, CostVector], BoundCertificate] = {}
    inner_certs = []
    for off, g in zip(spec.offsets, spec.inner):
        key = (g, alpha.block(off, g.arity))
        if key not in certs:
            certs[key] = certify(*key, opts)
        inner_certs.append(certs[key])
    beta = CostVector(tuple(c.midpoint for c in inner_certs))
    outer_cert = certify(spec.outer, beta, opts)

    gamma_h = compose_gamma(
        outer_cert.lower_matrix, [c.lower_matrix for c in inner_certs], spec
    )
    composed_lower = adv_value(gamma_h, alpha)
    p_h = compose_minimax(
        outer_cert.upper_witness, [c.upper_witness for c in inner_certs], spec
    )
    composed_upper = mm_value(p_h, alpha)

    if spec.total_arity <= ARITY_CAP:
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
    """Certify f and its d-fold iterate; the brackets must meet as d-th powers.

    The iterate is built, and its arity checked against the optimizer cap,
    before anything is certified.
    """
    opts = opts or SolverOptions()
    fd = iterate_function(f, d)
    _check_arity(fd)
    base_cert = certify(f, CostVector.ones(f.arity), opts)
    iterated_cert = certify(fd, CostVector.ones(fd.arity), opts)
    power_lower = base_cert.lower_value**d
    power_upper = base_cert.upper_value**d
    # the two brackets meet, within the slack
    lower = max(power_lower, iterated_cert.lower_value)
    ok = lower <= min(power_upper, iterated_cert.upper_value) + VERIFY_SLACK
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
