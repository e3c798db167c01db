"""Cost-weighted adversary matrices, minimax witnesses, and composition.

The primal side assigns a symmetric nonnegative weight matrix to the pairs of
inputs with different outputs; its value against costs ``alpha`` is

    min_i  alpha_i * ||G|| / ||G o D_i||,

with ``o`` the entrywise product and ``D_i`` the mask of pairs differing at
bit i.  The dual side assigns each input a probability distribution over bit
positions; its value is the worst pair's

    1 / sum_{i: x_i != y_i} sqrt(p_x(i) p_y(i)) / alpha_i.

Every feasible primal value lower-bounds every feasible dual value, and the
two sides meet, so matching certificate pairs pin the bound down.

Both values live on the f^-1(0) x f^-1(1) block: a valid weight matrix is
zero on every pair with equal outputs, and the dual maximizes over crossing
pairs only.  ``adv_value`` takes its norms on that block, and each masked
norm on the two sub-blocks whose rows and columns differ at the bit;
``mm_value`` gets every pair's overlap sum from one matrix product on the
block, and ``validate`` inspects only the two same-output blocks for the
zero pattern.

Composition lifts certificates from an outer function and per-block inner
functions to the composed function: weight matrices multiply entrywise
through the blocks, eigenvectors multiply through the block outputs, and
witness distributions multiply block by block.  Each builder gathers its
inputs through the row index arrays of ``CompositionSpec.composed``, built
once per spec.  ``compose_gamma`` writes the composed matrix once, in place,
over blocks of ``COMPOSE_CHUNK`` rows; the result is exactly symmetric by
construction, so it becomes a ``SymMatrix`` without a copy or a symmetry
check.  The composed quantities obey exact product laws, which the checks
in this module verify numerically.

``MinimaxWitness`` checks all its rows at once with array operations, and
walks them one by one only to name the first bad row; its
``matrix_rows()`` array is built once and read-only.
"""

from __future__ import annotations

import math
import mmap
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .boolfn import BooleanFunction, CompositionSpec, _domain_chars
from .specmat import (
    EigensolverError,
    SpectralResult,
    SymMatrix,
    block_norm,
    difference_mask,
    hadamard,
    spectral_norm,
)

#: Probability rows must sum to one within this tolerance.
PROB_SUM_TOL = 1e-12

#: Composed-identity checks ask for this relative agreement.
COMPOSE_TOL = 1e-8

#: Each output class of a principal eigenvector carries half the mass.
HALF_MASS_TOL = 1e-8

#: Rows of the composed matrix that ``compose_gamma`` fills per step.  At 4096
#: rows, 16, 32 and 64 were equally fast (32 by a hair), 128 and 256 were 5-15%
#: slower and 512 was 25% slower: one 32-row strip of a gathered factor is
#: 1 MB, which stays in cache between its take and its multiply.
COMPOSE_CHUNK = 32


@dataclass(frozen=True)
class CostVector:
    """Positive per-bit query costs."""

    costs: tuple[float, ...]
    unit: str = "queries"

    def __post_init__(self):
        if not self.costs:
            raise ValueError("cost vector must be nonempty")
        for c in self.costs:
            # A subnormal cost's reciprocal overflows, and inf * 0 turns MM into NaN.
            if not (math.isfinite(c) and c >= sys.float_info.min):
                raise ValueError(f"costs must be positive, normal and finite, got {c!r}")

    def __len__(self) -> int:
        return len(self.costs)

    def as_array(self) -> np.ndarray:
        return np.array(self.costs, dtype=float)

    def scaled(self, a: float) -> "CostVector":
        return CostVector(tuple(a * c for c in self.costs), self.unit)

    def block(self, start: int, length: int) -> "CostVector":
        """Costs for the block starting at 1-based position ``start``."""
        return CostVector(self.costs[start - 1 : start - 1 + length], self.unit)

    @classmethod
    def ones(cls, n: int) -> "CostVector":
        return cls((1.0,) * n)


def as_costs(alpha, n: int) -> CostVector:
    if not isinstance(alpha, CostVector):
        alpha = CostVector(tuple(float(a) for a in alpha))
    if len(alpha) != n:
        raise ValueError(f"expected {n} costs, got {len(alpha)}")
    return alpha


@dataclass(frozen=True, eq=False)
class AdversaryMatrix:
    """A symmetric weight matrix over the domain of a Boolean function.

    Construction ties the labels to the domain and requires a
    :class:`SymMatrix`, which guarantees exact symmetry; use :func:`validate`
    for the sign and zero-pattern requirements, which deserialized or
    hand-built matrices may break.
    """

    function: BooleanFunction
    matrix: SymMatrix

    def __post_init__(self):
        if not isinstance(self.matrix, SymMatrix):
            raise TypeError(f"matrix must be a SymMatrix, got {type(self.matrix).__name__}")
        if self.matrix.labels != self.function.domain:
            raise ValueError("matrix labels must equal the function domain, in order")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    constant_function: bool
    zero_matrix: bool


def validate(gamma: AdversaryMatrix) -> ValidationReport:
    """Check nonnegativity and the same-output zero pattern.

    Symmetry needs no check: ``SymMatrix`` enforces it at construction.  The
    zero pattern is read from the two same-output blocks
    G[f^-1(b), f^-1(b)]; each offending pair is reported once (row <= column),
    in row-major order.

    Violations are listed only after a cheap test finds some.  Without a
    negative entry, a block is zero exactly when its entry sum is (a sum of
    nonnegative terms is at least the largest of them), so the sums of both
    same-output blocks, and of the whole matrix, come from one product of G
    with the two class indicator columns.
    """
    f = gamma.function
    a = gamma.matrix.entries
    violations = []
    negative = a.size > 0 and a.min() < 0
    if negative:
        for r, c in zip(*np.where(a < 0)):
            violations.append(f"negative entry at ({f.domain[r]}, {f.domain[c]})")
    vals = np.array(f.values)
    classes = [np.flatnonzero(vals == b) for b in (0, 1)]
    sums = a @ (vals[:, None] == (0, 1)).astype(float)  # (rows, class) sums
    rows, cols = [], []
    for b, idx in enumerate(classes):
        if negative or sums[idx, b].sum() > 0:
            r, c = np.nonzero(np.triu(_gather(a, idx) != 0))
            rows.append(idx[r])
            cols.append(idx[c])
    if rows:
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        for k in np.lexsort((cols, rows)):
            r, c = rows[k], cols[k]
            violations.append(
                f"nonzero entry at ({f.domain[r]}, {f.domain[c]}) but both outputs are {f.values[r]}"
            )
    zero = not negative and not sums.any()
    if zero and not f.is_constant:
        violations.append("matrix is all zeros but the function is not constant")
    return ValidationReport(not violations, tuple(violations), f.is_constant, zero)


def require_valid(gamma: AdversaryMatrix, allow_zero: bool = False) -> None:
    report = validate(gamma)
    if report.ok or (allow_zero and report.zero_matrix):
        return
    raise ValueError("invalid adversary matrix: " + "; ".join(report.violations))


def zero_gamma(f: BooleanFunction) -> AdversaryMatrix:
    d = len(f.domain)
    return AdversaryMatrix(f, SymMatrix(f.domain, np.zeros((d, d))))


def _bit_matrix(f: BooleanFunction) -> np.ndarray:
    """Boolean (rows, arity) array: entry [r, i] is bit i+1 of domain row r."""
    return _domain_chars(f) == ord("1")


def adv_value(gamma: AdversaryMatrix, alpha) -> float:
    """min_i alpha_i ||G|| / ||G o D_i||; masked-out bits contribute +inf.

    A valid G vanishes on pairs with equal outputs, so G = [[0, B], [B^T, 0]]
    with B its f^-1(0) x f^-1(1) block, and ||G o D_i|| is the top singular
    value of B masked to the pairs that differ at bit i.  With r and c bit i
    of the rows and the columns of B, those pairs form the sub-blocks
    B[~r, c] and B[r, ~c], which share no row and no column; the masked block
    is their direct sum, so

        ||G o D_i|| = max(sigma_max(B[~r, c]), sigma_max(B[r, ~c])).

    Every norm is taken on the block or one of these sub-blocks; an all-zero
    or empty sub-block (one of the two for each bit of a monotone function)
    costs no solve.  The all-zero matrix has value 0 (the only choice for
    constants).
    """
    f = gamma.function
    alpha = as_costs(alpha, f.arity)
    require_valid(gamma, allow_zero=True)
    if not np.any(gamma.matrix.entries):
        return 0.0
    vals = np.array(f.values)
    zeros, ones = np.flatnonzero(vals == 0), np.flatnonzero(vals == 1)
    block = gamma.matrix.entries[np.ix_(zeros, ones)]
    bits = _bit_matrix(f)
    row_bits, col_bits = bits[zeros], bits[ones]
    whole = block_norm(block)
    if whole.norm == 0.0:
        # A nonzero matrix has a positive norm; 0 means the solve lost it.
        raise EigensolverError("norm of a nonzero matrix evaluated to 0", whole.residual)
    best = math.inf
    for i in range(f.arity):
        r, c = row_bits[:, i], col_bits[:, i]
        masked = max(
            block_norm(block[np.ix_(~r, c)]).norm, block_norm(block[np.ix_(r, ~c)]).norm
        )
        if masked == 0.0:
            continue
        best = min(best, alpha.costs[i] * whole.norm / masked)
    return best


# --------------------------------------------------------------------------
# Minimax witnesses


@dataclass(frozen=True, eq=False)
class MinimaxWitness:
    """One probability distribution over bit positions per domain row."""

    function: BooleanFunction
    p: dict[str, tuple[float, ...]]

    def __post_init__(self):
        f = self.function
        if set(self.p) != set(f.domain):
            raise ValueError("witness rows must cover the domain exactly")
        rows = _probability_rows(list(self.p.values()), f.arity)
        if rows is not None:
            if list(self.p) == list(f.domain):
                # Already in domain order: the array ``_rows`` would build.
                rows.flags.writeable = False
                self.__dict__["_rows"] = rows
            return
        # Some row is bad: walk the rows to name the first one.
        for x, row in self.p.items():
            if len(row) != f.arity:
                raise ValueError(f"row {x!r} has {len(row)} entries, expected {f.arity}")
            if any(q < 0 for q in row):
                raise ValueError(f"row {x!r} has a negative probability")
            if abs(sum(row) - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"row {x!r} sums to {sum(row)!r}, not 1")
            if not all(math.isfinite(q) for q in row):
                raise ValueError(f"row {x!r} has a non-finite probability")

    @cached_property
    def _rows(self) -> np.ndarray:
        f = self.function
        rows = np.array([self.p[x] for x in f.domain], dtype=float)
        rows = rows.reshape(len(f.domain), f.arity)
        rows.flags.writeable = False
        return rows

    def matrix_rows(self) -> np.ndarray:
        """Read-only (rows, arity) array of the distributions, in domain order."""
        return self._rows


def _probability_rows(rows: list, arity: int) -> np.ndarray | None:
    """The rows as a float (len(rows), arity) array if every row is a finite,
    nonnegative distribution summing to one within ``PROB_SUM_TOL``; None for
    any bad row, and for rows that are ragged or not numbers."""
    try:
        a = np.array(rows)
    except (TypeError, ValueError):
        return None
    if a.shape != (len(rows), arity) or a.dtype.kind not in "buif":
        return None
    a = a.astype(float, copy=False)
    if not (np.isfinite(a).all() and (a >= 0).all()):
        return None
    # cumsum adds left to right, as sum(row) does, so both give the same bits.
    sums = np.cumsum(a, axis=1)[:, -1]
    return a if (np.abs(sums - 1.0) <= PROB_SUM_TOL).all() else None


def uniform_witness(f: BooleanFunction) -> MinimaxWitness:
    row = tuple(1.0 / f.arity for _ in range(f.arity))
    return MinimaxWitness(f, {x: row for x in f.domain})


def mm_value(witness: MinimaxWitness, alpha) -> float:
    """Worst pair value of the witness; a pair with zero overlap gives +inf.

    With Q = sqrt(P), B0/B1 the input bits of f^-1(0)/f^-1(1) and z/o their
    rows, every pair's overlap sum S[x, y] = sum_{i: x_i != y_i}
    Q[x, i] Q[y, i] / alpha_i comes from one product on the block:

        S = [Q_z o B0 / alpha, Q_z o (1 - B0) / alpha] . [Q_o o (1 - B1), Q_o o B1]^T

    The value is 1 / min S (+inf when some pair has no overlap).  A function
    without a crossing pair, such as a constant, has value 0.
    """
    f = witness.function
    alpha = as_costs(alpha, f.arity)
    vals = np.array(f.values)
    zeros, ones = np.flatnonzero(vals == 0), np.flatnonzero(vals == 1)
    if zeros.size == 0 or ones.size == 0:
        return 0.0
    q = np.sqrt(witness.matrix_rows())
    bits = _bit_matrix(f)
    qz, b0 = q[zeros] / alpha.as_array(), bits[zeros]
    qo, b1 = q[ones], bits[ones]
    left = np.hstack([qz * b0, qz * ~b0])
    right = np.hstack([qo * ~b1, qo * b1])
    least = float((left @ right.T).min())
    return math.inf if least == 0.0 else 1.0 / least


# --------------------------------------------------------------------------
# Composition


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """a[np.ix_(idx, idx)] as two takes, rows then columns: the same array
    in about half the time at 4096 rows."""
    return np.take(np.take(a, idx, axis=0), idx, axis=1)


def _mapped_zeros(n: int) -> np.ndarray:
    """An n x n float array of zeros in a private anonymous memory map.

    The composed matrix outlives the temporaries around it.  Taken from the
    malloc heap, it can fill a hole that later temporaries then cannot use,
    and the heap grows instead: over repeated 1024- to 4096-row compositions
    the resting RSS rose by about 20 MB.  A mapping of its own goes back to
    the system when the array dies.  Huge pages are asked for as numpy asks
    for them on its own large arrays; without them, first touch of a
    4096-row matrix took about 2.5 times as long.
    """
    buf = mmap.mmap(-1, max(8 * n * n, 1), access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # Linux only; elsewhere it is a hint we cannot give
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float, count=n * n).reshape(n, n)


def compose_gamma(
    gamma_f: AdversaryMatrix,
    gammas_g: Sequence[AdversaryMatrix],
    spec: CompositionSpec,
) -> AdversaryMatrix:
    """Composed weight matrix with ||G_h|| = ||G_f|| * prod_i ||G_{g_i}||.

    Entrywise, G_h[x, y] = G_f[xt, yt] * prod_i F_i[x^i, y^i] where
    F_i = G_{g_i} + ||G_{g_i}|| * I: on a block whose outputs agree only the
    diagonal term survives, and there the outer factor supplies the zero, so
    this single formula covers both the same-output and crossing blocks.

    The product is written into one output array, ``COMPOSE_CHUNK`` rows at
    a time: the outer factor's gathered rows first, then each inner factor's
    multiplied in, in block order.  Entries (x, y) and (y, x) multiply the
    same numbers in the same order, so the result is exactly symmetric and
    becomes a ``SymMatrix`` without a copy or a symmetry check.
    """
    if gamma_f.function != spec.outer:
        raise ValueError("gamma_f is not over the outer function")
    if len(gammas_g) != len(spec.inner):
        raise ValueError(f"expected {len(spec.inner)} inner matrices")
    for g, gam in zip(spec.inner, gammas_g):
        if gam.function != g:
            raise ValueError("inner matrix order must match the composition blocks")
    require_valid(gamma_f, allow_zero=True)
    for gam in gammas_g:
        require_valid(gam, allow_zero=True)
    rows = spec.composed
    outer, outer_row = gamma_f.matrix.entries, rows.outer_row
    factors = []
    for gam, idx in zip(gammas_g, rows.inner_row):
        norm = spectral_norm(gam.matrix).norm
        factors.append((gam.matrix.entries + norm * np.eye(gam.matrix.dim), idx))
    n = outer_row.size
    out = _mapped_zeros(n)
    gathered = np.empty((min(n, COMPOSE_CHUNK), n))
    # The indices are valid by construction; mode="clip" lets take write into
    # its output unbuffered, which the default "raise" does not.
    for start in range(0, n, COMPOSE_CHUNK):
        stop = min(start + COMPOSE_CHUNK, n)
        chunk, part = out[start:stop], gathered[: stop - start]
        np.take(outer[outer_row[start:stop]], outer_row, axis=1, out=chunk, mode="clip")
        for factor, idx in factors:
            np.take(factor[idx[start:stop]], idx, axis=1, out=part, mode="clip")
            chunk *= part
    h = rows.function
    return AdversaryMatrix(h, SymMatrix._trusted(h.domain, out))


@dataclass(frozen=True, eq=False)
class EigvecParts:
    """A unit eigenvector split by the function's output classes."""

    function: BooleanFunction
    whole: np.ndarray
    half0: np.ndarray
    half1: np.ndarray

    @classmethod
    def from_vector(cls, function: BooleanFunction, vector: np.ndarray) -> "EigvecParts":
        v = np.asarray(vector, dtype=float)
        if v.shape != (len(function.domain),):
            raise ValueError("vector length must match the domain")
        vals = np.array(function.values)
        return cls(function, v, np.where(vals == 0, v, 0.0), np.where(vals == 1, v, 0.0))


def _check_half_mass(parts: EigvecParts) -> None:
    if not np.array_equal(parts.whole, parts.half0 + parts.half1):
        raise ValueError("eigenvector halves do not add up to the whole")
    for b, half in ((0, parts.half0), (1, parts.half1)):
        mass = float(half @ half)
        if abs(mass - 0.5) > HALF_MASS_TOL:
            raise ValueError(
                f"output class {b} carries squared mass {mass!r}, expected 1/2"
            )


def compose_eigenvector(
    delta_f: SpectralResult,
    deltas_g: Sequence[EigvecParts],
    spec: CompositionSpec,
) -> np.ndarray:
    """Principal eigenvector of the composed matrix, built by products.

    Entry by entry, delta_h[x] = delta_f[xt] * prod_i delta_{g_i}[x^i] taken
    from the half matching the block's output.  Each inner eigenvector must
    put squared mass 1/2 on each output class; the result then has squared
    norm 1/2**k.
    """
    if len(deltas_g) != len(spec.inner):
        raise ValueError(f"expected {len(spec.inner)} inner eigenvectors")
    for parts, g in zip(deltas_g, spec.inner):
        if parts.function != g:
            raise ValueError("inner eigenvector order must match the composition blocks")
        _check_half_mass(parts)
    rows = spec.composed
    out = delta_f.vector[rows.outer_row]
    for parts, idx, value in zip(deltas_g, rows.inner_row, rows.inner_value):
        out *= np.where(value == 0, parts.half0[idx], parts.half1[idx])
    return out


def _rel_close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    scale = max(abs(a), abs(b))
    return abs(a - b) <= tol * scale if scale > 0 else True


def _ratio(num: float, den: float) -> float:
    return math.inf if den == 0.0 else num / den


@dataclass(frozen=True, eq=False)
class MaskedCompositionReport:
    """Both sides of the masked-composition identities at one position.

    ``ell`` is a position of the composed input, landing at position
    ``inner_pos`` of block ``block``.  The identities: the masked composed
    matrix factors entrywise through the blocks, its norm is the product of
    the factor norms, and the whole/masked norm ratio splits into the outer
    ratio times the inner ratio.
    """

    ell: int
    block: int
    inner_pos: int
    lhs_matrix: SymMatrix
    rhs_matrix: SymMatrix
    entrywise_ok: bool
    norm_lhs: float
    norm_rhs: float
    norm_ok: bool
    ratio_lhs: float
    ratio_rhs: float
    ratio_ok: bool

    @property
    def ok(self) -> bool:
        return self.entrywise_ok and self.norm_ok and self.ratio_ok


def masked_compose_check(
    gamma_f: AdversaryMatrix,
    gammas_g: Sequence[AdversaryMatrix],
    spec: CompositionSpec,
    ell: int,
    tol: float = COMPOSE_TOL,
) -> MaskedCompositionReport:
    """Verify the masked factorization of the composed matrix at position ell."""
    p, q = spec.block_of(ell)
    gamma_h = compose_gamma(gamma_f, gammas_g, spec)
    h = gamma_h.function
    lhs = hadamard(gamma_h.matrix, difference_mask(h.domain, ell))

    # The right-hand side composes the masked outer matrix with the masked
    # p-th inner matrix in place of the original.
    masked_f = hadamard(gamma_f.matrix, difference_mask(spec.outer.domain, p))
    masked_p = hadamard(gammas_g[p - 1].matrix, difference_mask(spec.inner[p - 1].domain, q))
    masked_gammas = list(gammas_g)
    masked_gammas[p - 1] = AdversaryMatrix(spec.inner[p - 1], masked_p)
    rhs_matrix = compose_gamma(AdversaryMatrix(spec.outer, masked_f), masked_gammas, spec).matrix
    rhs = rhs_matrix.entries
    inner_norms = [
        spectral_norm(gam.matrix).norm for i, gam in enumerate(gammas_g) if i != p - 1
    ]

    if lhs.dim:
        scale = max(float(np.abs(lhs.entries).max()), float(np.abs(rhs).max()))
        diff = float(np.abs(lhs.entries - rhs).max())
    else:
        scale = diff = 0.0
    entrywise_ok = diff <= tol * scale if scale > 0 else True

    norm_lhs = spectral_norm(lhs).norm
    norm_rhs = spectral_norm(masked_f).norm * spectral_norm(masked_p).norm
    for norm in inner_norms:
        norm_rhs *= norm
    norm_ok = _rel_close(norm_lhs, norm_rhs, tol)

    ratio_lhs = _ratio(spectral_norm(gamma_h.matrix).norm, norm_lhs)
    ratio_rhs = _ratio(spectral_norm(gamma_f.matrix).norm, spectral_norm(masked_f).norm) * _ratio(
        spectral_norm(gammas_g[p - 1].matrix).norm, spectral_norm(masked_p).norm
    )
    ratio_ok = _rel_close(ratio_lhs, ratio_rhs, tol)

    return MaskedCompositionReport(
        ell=ell,
        block=p,
        inner_pos=q,
        lhs_matrix=lhs,
        rhs_matrix=rhs_matrix,
        entrywise_ok=entrywise_ok,
        norm_lhs=norm_lhs,
        norm_rhs=norm_rhs,
        norm_ok=norm_ok,
        ratio_lhs=ratio_lhs,
        ratio_rhs=ratio_rhs,
        ratio_ok=ratio_ok,
    )


def compose_minimax(
    p_f: MinimaxWitness,
    ps_g: Sequence[MinimaxWitness],
    spec: CompositionSpec,
) -> MinimaxWitness:
    """Composed witness: block i gets outer mass p_f(i) spread by the inner row.

    Each composed row is a product of distributions, so it sums to one
    without renormalization.  All rows come from one product: the outer
    weight of block i, gathered per composed row, times block i's gathered
    inner rows.
    """
    if p_f.function != spec.outer:
        raise ValueError("p_f is not over the outer function")
    if len(ps_g) != len(spec.inner):
        raise ValueError(f"expected {len(spec.inner)} inner witnesses")
    for w, g in zip(ps_g, spec.inner):
        if w.function != g:
            raise ValueError("inner witness order must match the composition blocks")
    rows = spec.composed
    weights = p_f.matrix_rows()[rows.outer_row]
    p = np.hstack(
        [
            weights[:, i, None] * w.matrix_rows()[idx]
            for i, (w, idx) in enumerate(zip(ps_g, rows.inner_row))
        ]
    )
    h = rows.function
    return MinimaxWitness(h, dict(zip(h.domain, map(tuple, p.tolist()))))


# --------------------------------------------------------------------------
# JSON forms


def gamma_to_dict(gamma: AdversaryMatrix) -> dict:
    from .boolfn import function_to_dict
    from .specmat import matrix_to_dict

    out = matrix_to_dict(gamma.matrix)
    out["function"] = function_to_dict(gamma.function)
    return out


def gamma_from_dict(data: Mapping, function: BooleanFunction | None = None) -> AdversaryMatrix:
    from .boolfn import function_from_dict
    from .specmat import matrix_from_dict

    if not isinstance(data, Mapping):
        raise ValueError(f"matrix JSON must be an object, got {type(data).__name__}")
    if function is None:
        if "function" not in data:
            raise ValueError("matrix JSON has no embedded function and none was given")
        function = function_from_dict(data["function"])
    return AdversaryMatrix(function, matrix_from_dict(data))


def witness_to_dict(witness: MinimaxWitness) -> dict:
    return {
        "rows": [
            {"x": x, "p": list(witness.p[x])} for x in witness.function.domain
        ]
    }


def witness_from_dict(data: Mapping, function: BooleanFunction) -> MinimaxWitness:
    try:
        rows = {str(r["x"]): tuple(float(q) for q in r["p"]) for r in data["rows"]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed witness: {exc}") from None
    return MinimaxWitness(function, rows)
