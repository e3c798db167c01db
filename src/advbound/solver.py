"""Certified brackets on the cost-weighted adversary bound.

``certify`` follows one log-barrier path.  The dual side is a concave
maximisation: 1/MM_alpha = max_p min over f^-1(0) x f^-1(1) pairs of

    S_xy(p) = sum_i [x_i != y_i] sqrt(p_x(i) p_y(i)) / alpha_i,

a sum of geometric means, with each row p_x on the simplex.  The path
maximises t subject to S_xy(p) >= t on every pair: for a growing weight tau
it centres

    tau log t + sum_xy log(S_xy - t) + sum_x,i log p_x(i)

by Newton's method, with the row sums held at one as linear constraints.
A round ends once the squared Newton decrement is at most ``CENTERED``, or
right after a full step taken at a decrement of at most ``CONVERGING``,
whose successor Newton's quadratic convergence puts below ``CENTERED``.
At a centred point the pair multipliers lambda_xy = 1/(S_xy - t), with row
and column sums Lambda, give the weight matrix of the other side:
Gamma_xy = lambda_xy / sqrt(Lambda_x Lambda_y) on the block, the
constructive side of Spalek-Szegedy duality.  After each round ``certify``
scores Gamma's crossing block with ``adv_block_value`` (one stacked
eigensolve for its norm and its n masked norms) and the normalised rows p
with ``mm_rows_value``, keeps the best of each, and stops at the first
round whose best values are within the target gap; otherwise tau grows by
``TAU_GROWTH``.  The weight matrix and the witness are built once, for the
kept rounds.  The best round is kept, not the last, because the Gamma read
off raw multipliers peaks and then degrades once the slacks of the active
pairs near the rounding of S.
Any Gamma is a true lower bound and any p a true upper bound, so the
bracket is valid whichever round supplies them.

The objective is log t, so tau is scale-free: a centred point is within a
factor exp(m / tau) of the optimum, for m barrier terms (pairs plus row
entries), and the path ends by itself after the round at which m / tau is
at most 2**-52, about 20 rounds.  It is deterministic: it starts from the
uniform rows and half the least pair sum, and no step draws a random number.
The Newton system is written in the scaled steps dp = p du and dt = t dv,
where every entry is a ratio such as sqrt(p_x(i) p_y(i)) / alpha_i over
S_xy - t; in plain coordinates the barrier on p alone puts 1/p_x(i)**2 on
the diagonal, which degenerates as inactive entries of p shrink.  No pair
joins two rows of one output class, so the system is never formed whole:
the rows of the larger class are eliminated together, one (n + 1)-square
system per row, and what remains is solved over the other class, t and its
row sums (85 rows instead of 193 for a 5-bit table with classes of 18 and
14, and n + 2 for and_n).  The costs are scaled by the power of two that
brings the largest into [1/2, 1), which is exact, and the rounds are
scored on the true costs.  ``SolverOptions`` holds the one setting
a certificate reports, the target gap; a certificate also reports its
Newton steps and rounds, the round that gave each side, whether the gap or
the end of the path stopped it, and the largest eigensolver residual of
the norms that scored its weight matrix.

The module also carries the exact two-bit gate certificates, the read-once
formula recursion built on them, and reports on composed and iterated
functions.  Their checks need no tolerance: every bracket they compare is
sound on its own and holds the same value, so they pass when the brackets
meet, up to ``ROUNDING`` for float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import (
    AdversaryMatrix,
    CostVector,
    MinimaxWitness,
    adv_block_value,
    adv_value,
    as_costs,
    compose_gamma,
    compose_minimax,
    gamma_to_dict,
    mm_rows_value,
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
from .specmat import SymMatrix

#: Relative allowance for float rounding alone where brackets must meet: a
#: certificate's own two ends, and the brackets the verification reports
#: compare.  Each bracket is sound on its own, so brackets on one value meet
#: in exact arithmetic; in floats, the end of a bracket that closes on the
#: value can land past it (the base bracket of parity2 is inverted by 1 ulp,
#: its square by 2).  2**-40 is n * eps for the n = 4096 rows of the largest
#: composed matrix, the first-order error bound of a sum of n terms; seen
#: inversions are at most 2 ulps.  It covers rounding only, not the
#: optimizer's gap, and interval bounds on the values (ROADMAP.md) would
#: replace it.
ROUNDING = 2.0**-40

#: Largest arity the optimizer takes.  A Newton step solves one (n + 1)-row
#: system for each input of the larger output class, then one of at most
#: 2**(n - 1) (n + 1) + 1 rows over the other class; the whole system would
#: have 2**n (n + 1) + 1.
ARITY_CAP = 5

#: Factor by which the barrier weight tau grows between centering rounds.
TAU_GROWTH = 8.0

#: A round's centering ends once the squared Newton decrement is at most
#: ``CENTERED``, once backtracking finds no ascent step of at least
#: ``SHORTEST_STEP`` times the Newton step, or after ``ROUND_STEPS`` Newton
#: solves.  The last is a backstop for the final rounds, where the slacks of
#: the active pairs are within rounding of S and the steps follow the
#: noise: over 129 tables run to the end of the path, one such round would
#: have taken 128 steps, and every other round took at most 20.
CENTERED = 1e-9
SHORTEST_STEP = 2.0**-10
ROUND_STEPS = 50

#: A round also ends after an accepted full Newton step whose squared
#: decrement was at most ``CONVERGING``, and the solve that would only
#: confirm the centring is skipped.  Newton's method converges quadratically
#: there, so the next squared decrement would be about the square of this
#: one (Boyd and Vandenberghe, Convex Optimization, section 9.5.3), a
#: thousand times below ``CENTERED``.  The margin is for the last rounds,
#: where rounding puts a floor of 1e-9 to 3e-8 under the decrement: at 1e-5
#: such rounds took the skip where the confirming solve would have stepped
#: on, and moved unit-cost brackets of 5-bit tables by up to 9e-7 relative.
CONVERGING = 1e-6

#: Costs below this fraction of the largest are raised to it on the path,
#: which keeps every pair sum S_xy finite.  The certificates are scored on
#: the true costs, so this can loosen the bracket but never invalidate it.
COST_FLOOR = 2.0**-1000


@dataclass(frozen=True)
class SolverOptions:
    """The one setting of a certificate: the absolute gap at which it stops."""

    target_gap: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.target_gap) and self.target_gap > 0):
            raise ValueError("target gap must be positive and finite")


def _check_arity(f: BooleanFunction) -> None:
    if f.arity > ARITY_CAP:
        raise ValueError(f"arity {f.arity} exceeds the optimizer cap {ARITY_CAP}")


def _check_costs(alpha: CostVector) -> None:
    """Reject costs whose sum is not a float before any Newton step.

    The witness p_x(i) = alpha_i / sum(alpha) has value at most sum(alpha),
    so a finite sum leaves room for a finite upper bound; past it the
    bracket cannot be finite.
    """
    try:
        math.fsum(alpha.costs)  # the costs are finite, so only overflow can fail
    except OverflowError:
        raise ValueError("bracket not finite: the costs sum past the float range") from None


class _Barrier:
    """The terms of one barrier path, its slacks and its Newton steps.

    The rows of p are kept in class order: the larger output class, x, comes
    first (f^-1(0) on a tie), then the other class, y, so that each class is
    a slice of p.  ``order`` is the domain index of each row, and the pair
    arrays are (mx, my): the (m0, m1) block, transposed when ``flip``.  The
    costs are scaled by the power of two that brings the largest into
    [1/2, 1), and raised to ``COST_FLOOR``.
    """

    def __init__(self, f: BooleanFunction, alpha: CostVector):
        zeros, ones = f.classes
        self.flip = ones.size > zeros.size
        x, y = (ones, zeros) if self.flip else (zeros, ones)
        self.order = np.concatenate([x, y])
        a = alpha.as_array()
        a = np.maximum(np.ldexp(a, -math.frexp(a.max())[1]), COST_FLOOR)
        self.w = (f.bits[x][:, None, :] != f.bits[y][None, :, :]) / a  # (mx, my, n)
        mx, my, n = self.w.shape
        q = my * n + 1  # the step (du_y, dv) that the rows of x couple to
        self.mx, self.q = mx, q
        self.half_eye = np.eye(n)[:, None, :] / 2.0
        # Buffers that every step overwrites block by block, and views of the
        # blocks; what no step writes stays zero.  ``local`` holds the (n + 1)
        # square system of each row of x, ``coupled`` its columns on (du_y, dv)
        # and then its right-hand side, and ``schur`` the reduced system over
        # (du_y, dv) and the sum constraints of y, with right-hand side ``rhs``.
        self.local = np.zeros((mx, n + 1, n + 1))
        self.local_h = self.local[:, :n, :n]
        self.local_diag = np.einsum("xii->xi", self.local_h)
        self.coupled = np.zeros((mx, n + 1, q + 1))
        self.cross = self.coupled[:, :n, : q - 1].reshape(mx, n, my, n)
        self.cross_t = self.coupled[:, :n, q - 1 : q]
        self.grad_x, self.sums_x = self.coupled[:, :n, q], self.coupled[:, n, q]
        self.schur = np.zeros((q + my,) * 2)
        self.schur_h = np.einsum("yiyj->yij", self.schur[: q - 1, : q - 1].reshape(my, n, my, n))
        self.schur_diag = np.einsum("ii->i", self.schur)[: q - 1].reshape(my, n)
        self.schur_p = np.einsum("yyi->yi", self.schur[q:, : q - 1].reshape(my, my, n))
        self.schur_pt = np.einsum("yiy->yi", self.schur[: q - 1, q:].reshape(my, n, my))
        self.grad_q = np.zeros(q)
        self.grad_y = self.grad_q[:-1].reshape(my, n)
        self.rhs = np.zeros(q + my)

    def slacks(self, p: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The pair terms c_xyi, whose sum over i is S_xy, and S - t."""
        c = self.w * np.sqrt(p[: self.mx, None, :] * p[None, self.mx :, :])
        return c, c.sum(axis=2) - t

    def newton(self, p: np.ndarray, t: float, tau: float, c: np.ndarray, g: np.ndarray):
        """The scaled Newton step (du, dv) at (p, t), given its ``slacks`` (c, g),
        and the step's squared decrement.

        With h_xyi = c_xyi / (2 (S_xy - t)), the gradient of log(S_xy - t) is
        h_xyi at p_x(i) and at p_y(i), and -t / (S_xy - t) at t.  Its negated
        Hessian is the outer product of that gradient, plus h_xyi / 2 times
        [[1, -1], [-1, 1]] on the entries p_x(i) and p_y(i) of each term.  The
        barrier on p adds 1 to the gradient and to the diagonal, and tau log t
        adds tau to both at t.

        No pair joins two rows of one class, so each row x of the larger
        class meets the rest only through its columns C_x on (du_y, dv).
        With its own block and sum constraint, L_x = [[H_xx, p_x], [p_x', 0]],
        and its right-hand side r_x, the rows of x are eliminated together:
        one batched inverse gives L_x^-1 [C_x r_x] (a batched solve against
        its q + 1 columns took five times as long on a 5-bit table), one product
        sums C_x' L_x^-1 [C_x r_x] over x, the reduced system over (du_y, dv)
        and the sum constraints of y is solved, and du_x = L_x^-1 (r_x - C_x z).
        """
        mx, q = self.mx, self.q
        n = p.shape[1]
        px, py = p[:mx], p[mx:]
        half = 0.5 / g
        h = c * half[:, :, None]
        ht = (-2.0 * t) * half
        hx, hy = h.transpose(0, 2, 1), h.transpose(1, 2, 0)
        sx, sy = np.add.reduce(h, 1), np.add.reduce(h, 0)
        # L_x, and [C_x r_x] with C_x on (du_y(j), dv) at row i of x: the pair
        # term h_xyi h_xyj - [i = j] h_xyi / 2 and the border sum_y h_xyi ht_xy.
        np.matmul(hx, h, out=self.local_h)
        self.local_diag += 1.0 + sx / 2.0
        self.local[:, :n, n] = self.local[:, n, :n] = px
        np.multiply(hx[:, :, :, None], h[:, None, :, :] - self.half_eye, out=self.cross)
        np.matmul(hx, ht[:, :, None], out=self.cross_t)
        np.add(sx, 1.0, out=self.grad_x)
        np.subtract(1.0, np.add.reduce(px, 1), out=self.sums_x)
        # The reduced system: the (du_y, dv) block of H, less the sum of
        # C_x' L_x^-1 C_x, bordered by the sum constraints of y.
        solved = np.linalg.inv(self.local) @ self.coupled
        red = self.coupled.reshape(-1, q + 1).T @ solved.reshape(-1, q + 1)
        s = self.schur
        np.negative(red[:q, :q], out=s[:q, :q])
        self.schur_h += np.matmul(hy, h.transpose(1, 0, 2))
        self.schur_diag += 1.0 + sy / 2.0
        hyt = np.matmul(hy, ht.T[:, :, None]).ravel()
        s[: q - 1, q - 1] += hyt
        s[q - 1, : q - 1] += hyt
        s[q - 1, q - 1] += np.vdot(ht, ht) + tau
        self.schur_p[...] = self.schur_pt[...] = py
        np.add(sy, 1.0, out=self.grad_y)
        self.grad_q[-1] = tau + np.add.reduce(ht, None)
        np.subtract(self.grad_q, red[:q, q], out=self.rhs[:q])
        np.subtract(1.0, np.add.reduce(py, 1), out=self.rhs[q:])
        z = np.linalg.solve(s, self.rhs)[:q]
        # Back-substitute for du_x; the decrement is grad . (du, dv).
        dux = solved[:, :n, q] - solved[:, :n, :q] @ z
        dec = float(np.vdot(self.grad_x, dux) + self.grad_q @ z)
        return np.concatenate([dux, z[:-1].reshape(-1, n)]), z[-1], dec


def _path(f: BooleanFunction, alpha: CostVector):
    """The barrier path, as a generator of (Newton steps so far, lambda, p).

    It yields after every centering round: the pair multipliers lambda on
    the (m0, m1) block and the rows p in domain order, both fresh arrays.
    Its last item is the round at which (pairs + entries of p) / tau is at
    most 2**-52.  The variables are p, in the class order of ``_Barrier``,
    and t; a Newton step solves for (du, dv) with dp = p du and dt = t dv,
    and holds each row sum of p at one (correcting any drift) through one
    multiplier per row.
    """
    bar = _Barrier(f, alpha)
    rank = np.argsort(bar.order)  # the row of p of each input, in domain order
    p = np.full((len(f.domain), f.arity), 1.0 / f.arity)
    t = 0.5 * float(bar.slacks(p, 0.0)[1].min())
    c, g = bar.slacks(p, t)
    terms = g.size + p.size
    tau, steps = 1.0, 0
    while True:
        for _ in range(ROUND_STEPS):
            du, dv, dec = bar.newton(p, t, tau, c, g)
            if dec <= CENTERED:
                break
            # Backtrack to a strictly feasible point that gains a hundredth of
            # the predicted increase; the gain is summed from ratios, which
            # keeps it accurate where the barrier's terms nearly cancel.
            s = 1.0
            while s >= SHORTEST_STEP:
                p1, t1 = p * (1.0 + s * du), t * (1.0 + s * dv)
                if p1.min() > 0.0 and t1 > 0.0:
                    c1, g1 = bar.slacks(p1, t1)
                    if g1.min() > 0.0:
                        gain = tau * math.log(t1 / t) + np.log(g1 / g).sum() + np.log(p1 / p).sum()
                        if gain >= 0.01 * s * dec:
                            break
                s /= 2.0
            else:
                break
            p, t, c, g = p1, t1, c1, g1
            steps += 1
            if s == 1.0 and dec <= CONVERGING:
                break
        lam = 1.0 / g
        yield steps, lam.T if bar.flip else lam, p[rank]
        if terms / tau <= 2.0**-52:
            return
        tau *= TAU_GROWTH


def _weights(lam: np.ndarray) -> np.ndarray:
    """The crossing block lambda_xy / sqrt(Lambda_x Lambda_y) of the pair multipliers."""
    return lam / np.sqrt(lam.sum(axis=1))[:, None] / np.sqrt(lam.sum(axis=0))[None, :]


def _gamma_from(f: BooleanFunction, lam: np.ndarray) -> AdversaryMatrix:
    """The weight matrix whose crossing block is ``_weights(lam)``."""
    zeros, ones = f.classes
    block = _weights(lam)
    g = np.zeros((len(f.domain),) * 2)
    g[np.ix_(zeros, ones)] = block
    g[np.ix_(ones, zeros)] = block.T
    return AdversaryMatrix(f, SymMatrix(f.domain, g))


def _distributions(p: np.ndarray) -> np.ndarray:
    """The rows of p, each divided by its sum."""
    return p / p.sum(axis=1, keepdims=True)


def _witness_from(f: BooleanFunction, p: np.ndarray) -> MinimaxWitness:
    """The witness of the rows p, one row per input in domain order."""
    return MinimaxWitness(f, _distributions(p))


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """A two-sided bracket: feasible matrix below, feasible witness above.

    ``steps`` is the number of Newton steps the barrier path took and
    ``rounds`` the number of its rounds that were scored; ``lower_round``
    and ``upper_round`` are the rounds, counted from 1, whose weight matrix
    and witness were kept (all three are 0 when no pair needed a path).
    ``stop`` says why the path stopped: ``"gap"`` when the best values met
    the target gap (or no pair needed a path), ``"end"`` when the path ran
    to its end without meeting it.  ``residual`` is the largest eigensolver
    residual among the norms that gave ``lower_value`` (0 when none was
    taken).
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
    rounds: int
    lower_round: int
    upper_round: int
    residual: float

    def __post_init__(self):
        if not (math.isfinite(self.lower_value) and math.isfinite(self.upper_value)):
            raise ValueError(
                f"bracket not finite: lower {self.lower_value!r}, upper {self.upper_value!r}"
            )
        if not _meet((self.lower_value, self.upper_value)):
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
            "solver": {"target_gap": self.options.target_gap},
            "search": {
                "steps": self.steps,
                "stop": self.stop,
                "rounds": self.rounds,
                "lower_round": self.lower_round,
                "upper_round": self.upper_round,
                "residual": self.residual,
            },
        }


def certify(f: BooleanFunction, alpha, opts: SolverOptions | None = None) -> BoundCertificate:
    """Follow the barrier path and package the best bracket it gives.

    After every round its weight matrix and witness are scored from arrays:
    the crossing block ``_weights(lambda)`` with ``adv_block_value`` (one
    stacked eigensolve) and the rows ``_distributions(p)`` with
    ``mm_rows_value``.  Each side keeps its best round (the earliest on
    ties), and the path stops at the first round where the best upper value
    is within the target gap of the best lower value: anything tighter
    costs time without improving the guarantee.  The certificate objects
    are built once, for the kept rounds; ``adv_value`` and ``mm_value`` run
    the same code on the same arrays, so they reproduce the scores exactly.
    """
    opts = opts or SolverOptions()
    alpha = as_costs(alpha, f.arity)
    _check_arity(f)
    _check_costs(alpha)
    steps, stop, rounds, lower_round, upper_round, residual = 0, "gap", 0, 0, 0, 0.0
    if not f.is_constant:
        lower, upper, stop = -math.inf, math.inf, "end"
        for rounds, (steps, lam, p) in enumerate(_path(f, alpha), 1):
            low, res = adv_block_value(f, _weights(lam), alpha)
            up = mm_rows_value(f, _distributions(p), alpha)
            if low > lower:
                lower, lower_lam, lower_round, residual = low, lam, rounds, res
            if up < upper:
                upper, upper_p, upper_round = up, p, rounds
            if upper - lower <= opts.target_gap:
                stop = "gap"
                break
        gamma, witness = _gamma_from(f, lower_lam), _witness_from(f, upper_p)
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
        rounds=rounds,
        lower_round=lower_round,
        upper_round=upper_round,
        residual=residual,
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
    seen = leaf_indices(ast)
    n = len(seen)
    # n distinct indices, all at least 1, are 1..n unless one is above n.
    stray = [i for i in seen if i > n]
    if stray:
        raise ValueError(
            f"read-once formula must use x1..x{n} exactly once each, but uses x{stray[0]}"
        )
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


def _meet(*brackets: tuple[float, float]) -> bool:
    """Whether the brackets share a point: max(lowers) <= min(uppers),
    up to ``ROUNDING`` relative."""
    lower = max(lo for lo, _ in brackets)
    upper = min(up for _, up in brackets)
    return lower - upper <= ROUNDING * max(abs(lower), abs(upper))


@dataclass(frozen=True, eq=False)
class CompositionReport:
    """Three brackets on ADV_alpha(h), for h = f o (g_1, ..., g_k), that must meet.

    - direct: ``certify(h, alpha)``, only up to the optimizer cap;
    - composed: the composed weight matrix and witness of the outer and
      inner certificates, scored at alpha;
    - theorem: the outer certificate, taken at costs beta (the inner
      midpoints), scored at the inner brackets' ends, its matrix at the
      lower ends and its witness at the upper ones.

    By the composition theorem ADV_alpha(h) = ADV_b(f), with b_p =
    ADV_alpha_p(g_p) inside the p-th inner bracket, and both evaluators are
    nondecreasing in every cost, so the theorem bracket holds ADV_alpha(h)
    as each of the others does.  The report is ok when every two of them
    meet.
    """

    spec: CompositionSpec
    alpha: CostVector
    beta: CostVector
    inner_certs: tuple[BoundCertificate, ...]
    outer_cert: BoundCertificate
    direct_cert: BoundCertificate | None
    composed_lower: float
    composed_upper: float
    theorem_lower: float
    theorem_upper: float

    @property
    def ok(self) -> bool:
        brackets = [
            (self.composed_lower, self.composed_upper),
            (self.theorem_lower, self.theorem_upper),
        ]
        if self.direct_cert is not None:
            brackets.append((self.direct_cert.lower_value, self.direct_cert.upper_value))
        return _meet(*brackets)

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha.costs),
            "beta": list(self.beta.costs),
            "inner": [c.to_dict() for c in self.inner_certs],
            "outer": self.outer_cert.to_dict(),
            "direct": self.direct_cert.to_dict() if self.direct_cert else None,
            "composed": {"lower": self.composed_lower, "upper": self.composed_upper},
            "theorem": {"lower": self.theorem_lower, "upper": self.theorem_upper},
            "ok": self.ok,
        }


def verify_composition(
    spec: CompositionSpec,
    alpha,
    opts: SolverOptions | None = None,
) -> CompositionReport:
    """Certify the direct, composed and theorem brackets on the composed bound."""
    opts = opts or SolverOptions()
    alpha = as_costs(alpha, spec.total_arity)
    h = compose_functions(spec)
    for i, g in enumerate(spec.inner, start=1):
        if g.is_constant:
            # ADV of a constant is 0, and an outer cost must be positive.
            raise ValueError(f"inner function {i} is constant: its value 0 cannot be an outer cost")

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
    p_h = compose_minimax(
        outer_cert.upper_witness, [c.upper_witness for c in inner_certs], spec
    )
    return CompositionReport(
        spec=spec,
        alpha=alpha,
        beta=beta,
        inner_certs=tuple(inner_certs),
        outer_cert=outer_cert,
        direct_cert=certify(h, alpha, opts) if spec.total_arity <= ARITY_CAP else None,
        composed_lower=adv_value(gamma_h, alpha),
        composed_upper=mm_value(p_h, alpha),
        theorem_lower=adv_value(outer_cert.lower_matrix, [c.lower_value for c in inner_certs]),
        theorem_upper=mm_value(outer_cert.upper_witness, [c.upper_value for c in inner_certs]),
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
    ok: bool

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "base": self.base_cert.to_dict(),
            "iterated": self.iterated_cert.to_dict(),
            "power": {"lower": self.power_lower, "upper": self.power_upper},
            "ok": self.ok,
        }


def verify_iteration(
    f: BooleanFunction, d: int, opts: SolverOptions | None = None
) -> IterationReport:
    """Certify f and its d-fold iterate; the iterated bracket must meet the
    d-th power of the base bracket, as ADV(f^d) = ADV(f)^d.

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
    return IterationReport(
        function=f,
        depth=d,
        base_cert=base_cert,
        iterated_cert=iterated_cert,
        power_lower=power_lower,
        power_upper=power_upper,
        ok=_meet(
            (power_lower, power_upper), (iterated_cert.lower_value, iterated_cert.upper_value)
        ),
    )
