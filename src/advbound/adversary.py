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
pairs only.  ``adv_value`` validates the matrix and takes its norms on
that block, with ``adv_block_value``.  Every norm of a crossing block comes
from ``_crossing_norms``, the one place that picks the solver: a block
without a zero entry (every solver round) is stacked with its masked
copies, and all its norms come from one ``specmat.block_norms`` call; a
block with a zero entry (composed certificates are very sparse) is read
once into its nonzero entries, and each masked norm is taken on the
entries whose row and column differ at the bit, by ``specmat.edge_norm``,
one connected component of their pattern at a time.  ``mm_value`` checks
the costs and hands the witness rows to ``mm_rows_value``, which gets
every pair's overlap sum from a matrix product on the block, formed
``MM_BLOCK`` entries at a time; when the witness has a zero probability,
the zero columns of the product (zero on a whole output class) are dropped
first, which leaves every sum bit for bit the same.  The
solver scores its rounds with the two array functions directly, and builds
certificate objects only for the rounds it keeps.  ``validate`` reads the
matrix once, in strips of ``VALIDATE_STRIP`` rows, and inspects only the
two same-output blocks for the zero pattern.  Masks and classes come from
``BooleanFunction.bits``/``classes``.

Composition lifts certificates from an outer function and per-block inner
functions to the composed function: weight matrices multiply entrywise
through the blocks, eigenvectors multiply through the inner rows, and
witness distributions multiply block by block.  Each builder gathers its
inputs through the row index arrays of ``CompositionSpec.composed``, built
once per spec.  ``compose_gamma`` computes only the nonzero entries of the
composed matrix, as Cartesian products of the nonzero entries of the inner
factors, at most ``COMPOSE_PIECE`` at a time, and writes them into a zeroed
output; the result is exactly symmetric by construction, so it becomes a
``SymMatrix`` without a copy or a symmetry check.  The output stays a dense
N x N array, but its entries are counted first: a sparse one is written
first, then populated, so that only the pages that get an entry become
resident, every other page reads as the shared zero page, and the kernel
visits each page once.

``MinimaxWitness`` holds its rows as one read-only (rows, arity) array in
domain order.  It checks them all at once with array operations, and walks
them one by one only to name the first bad row.  Builders pass that array;
a mapping from labels to rows is read only from JSON and literals.

The JSON forms check outside input where it arrives.  ``gamma_from_dict``
reads the matrix JSON itself: the labels must be an array of strings and
the entries numbers (``require_numbers``, which ``witness_from_dict``
shares), and ``SymMatrix`` checks the entries.  The one label check is
``AdversaryMatrix``'s: its labels must equal its function's domain, which
are distinct bit strings of one length.
"""

from __future__ import annotations

import math
import mmap
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .boolfn import BooleanFunction, CompositionSpec, function_from_dict, function_to_dict
from .specmat import (
    EigensolverError,
    SpectralResult,
    SymMatrix,
    block_norms,
    edge_norm,
    nonzero_entries,
    spectral_norm,
)

#: Probability rows must sum to one within this tolerance.
PROB_SUM_TOL = 1e-12

#: Each output class of a principal eigenvector carries half the mass.
HALF_MASS_TOL = 1e-8

#: Rows of G that ``validate`` reads at a time; at 4096 rows 16 was the
#: fastest of 16, 32, 64, 128 and 256 (about half the time of two whole reads).
VALIDATE_STRIP = 16

#: Entries of the composed matrix that ``compose_gamma`` expands per step; each
#: temporary of a step holds at most this many.  On and2 o (parity6, parity6),
#: 2.2M nonzero entries at 4096 rows, 2**12 to 2**16 all took 0.05-0.08 s,
#: while the traced peak grew with the piece: 0.42 MB at 2**12, 0.67 MB at
#: 2**13, 1.05 MB at 2**14 and 3.3 MB at 2**16.
COMPOSE_PIECE = 1 << 13

#: Float64 entries per 4 KB page: ``_mapped_zeros`` keeps a matrix with at most
#: one written entry per this many on 4 KB pages, written first and then
#: populated with the shared zero page.
PAGE_ENTRIES = 512

#: The madvise(2) advice that maps a range read-only (Linux 5.14 and later):
#: ``mmap``'s name for it where it has one, else its Linux value.
MADV_POPULATE_READ = getattr(mmap, "MADV_POPULATE_READ", 22)

#: Entries of the pair overlap matrix that ``mm_rows_value`` forms per block of
#: rows, so that the 2048 x 2048 product of a 4096-row witness (32 MB) is never
#: formed whole.  On a tree12 witness, 2**17 and 2**18 were the fastest of
#: 2**12 to 2**23 (4.7-5.4 ms, against 7.5-9.7 ms for the whole product).
MM_BLOCK = 1 << 18


@dataclass(frozen=True)
class CostVector:
    """Positive per-bit query costs."""

    costs: tuple[float, ...]

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

    def block(self, start: int, length: int) -> "CostVector":
        """Costs for the block starting at 1-based position ``start``."""
        return CostVector(self.costs[start - 1 : start - 1 + length])

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

    Construction ties the labels to the domain (the one label check) and
    requires a :class:`SymMatrix`, which guarantees exact symmetry; use :func:`validate`
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
    same-output blocks, and of the whole matrix, come from the product of G
    with the two class indicator columns.  That product and the least entry
    are taken in one read of G, ``VALIDATE_STRIP`` rows at a time.
    """
    f = gamma.function
    a = gamma.matrix.entries
    # Column order: each class column is one contiguous run for the product.
    indicator = np.zeros((len(f.domain), 2), order="F")
    for b, idx in enumerate(f.classes):
        indicator[idx, b] = 1.0
    # One read of G: each strip's minimum and (row, class) sums are taken
    # while the strip is in cache.
    sums = np.empty((len(f.domain), 2))
    least = math.inf
    for start in range(0, len(f.domain), VALIDATE_STRIP):
        strip = a[start : start + VALIDATE_STRIP]
        least = min(least, float(strip.min()))
        np.matmul(strip, indicator, out=sums[start : start + VALIDATE_STRIP])
    violations = []
    negative = least < 0
    if negative:
        for r, c in zip(*np.where(a < 0)):
            violations.append(f"negative entry at ({f.domain[r]}, {f.domain[c]})")
    rows, cols = [], []
    for b, idx in enumerate(f.classes):
        if negative or sums[idx, b].sum() > 0:
            r, c = np.nonzero(np.triu(a[np.ix_(idx, idx)] != 0))
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


def require_valid(gamma: AdversaryMatrix) -> ValidationReport:
    """Raise unless gamma is valid or all zero (the value-0 certificate);
    return its report."""
    report = validate(gamma)
    if report.ok or report.zero_matrix:
        return report
    raise ValueError("invalid adversary matrix: " + "; ".join(report.violations))


def zero_gamma(f: BooleanFunction) -> AdversaryMatrix:
    d = len(f.domain)
    return AdversaryMatrix(f, SymMatrix(f.domain, np.zeros((d, d))))


def adv_value(gamma: AdversaryMatrix, alpha) -> float:
    """min_i alpha_i ||G|| / ||G o D_i||; masked-out bits contribute +inf.

    The matrix is validated, and a valid G vanishes on pairs with equal
    outputs, so G = [[0, B], [B^T, 0]] with B its f^-1(0) x f^-1(1) block;
    the value is ``adv_block_value`` of B.  The all-zero matrix has value 0
    (the only choice for constants).
    """
    f = gamma.function
    alpha = as_costs(alpha, f.arity)
    if require_valid(gamma).zero_matrix:
        return 0.0
    zeros, ones = f.classes
    return adv_block_value(f, gamma.matrix.entries[np.ix_(zeros, ones)], alpha)[0]


def _crossing_norms(f: BooleanFunction, block: np.ndarray) -> tuple[list, list]:
    """||B|| and then ||B o D_i|| for each bit i, and their residuals, for
    the f^-1(0) x f^-1(1) block B of a G that vanishes on pairs with equal
    outputs; B o D_i is B masked to the pairs that differ at bit i, read
    from the bits of f.

    A block without a zero entry (every solver round) is solved in one
    ``block_norms`` call on the stack [B, B o D_i, ...].  A block with a zero
    entry (composed certificates are very sparse) is read once into its
    nonzero entries, and each norm is one ``edge_norm`` call on the entries
    it keeps.
    """
    zeros, ones = f.classes
    row_bits, col_bits = f.bits[zeros], f.bits[ones]
    if block.all():
        stack = np.empty((row_bits.shape[1] + 1,) + block.shape)
        stack[0] = block
        np.multiply(block, row_bits.T[:, :, None] != col_bits.T[:, None, :], out=stack[1:])
        norms, _, residuals = block_norms(stack)
        return norms.tolist(), residuals.tolist()
    rows, cols, values = nonzero_entries(block)
    differ = row_bits[rows] != col_bits[cols]
    solved = [edge_norm(rows, cols, values, block.shape)]
    solved += [edge_norm(rows[d], cols[d], values[d], block.shape) for d in differ.T]
    return [s.norm for s in solved], [s.residual for s in solved]


def adv_block_value(
    f: BooleanFunction, block: np.ndarray, alpha: CostVector
) -> tuple[float, float]:
    """``adv_value`` of the valid, nonzero G whose f^-1(0) x f^-1(1) block is
    ``block``, from the ``_crossing_norms`` of every bit, and the largest of
    their residuals.  Neither the block nor the costs are checked."""
    norms, residuals = _crossing_norms(f, block)
    whole = norms[0]
    if whole == 0.0:
        # A nonzero matrix has a positive norm; 0 means the solve lost it.
        raise EigensolverError("norm of a nonzero matrix evaluated to 0", residuals[0])
    best = math.inf
    for cost, masked in zip(alpha.costs, norms[1:]):
        if masked == 0.0:
            continue
        best = min(best, cost * whole / masked)
    return best, max(residuals)


# --------------------------------------------------------------------------
# Minimax witnesses


@dataclass(frozen=True, eq=False)
class MinimaxWitness:
    """One probability distribution over bit positions per domain row.

    ``p`` is given as a mapping from every domain label to its row, or as a
    (rows, arity) array in domain order, and is stored as a read-only float
    array in domain order; an array is copied.
    """

    function: BooleanFunction
    p: np.ndarray

    def __post_init__(self):
        f = self.function
        if isinstance(self.p, Mapping):
            if set(self.p) != set(f.domain):
                raise ValueError("witness rows must cover the domain exactly")
            rows = _probability_rows([self.p[x] for x in f.domain], f.arity)
        else:
            shape = np.shape(self.p)
            if shape != (len(f.domain), f.arity):
                raise ValueError(
                    f"witness array has shape {shape}, expected {(len(f.domain), f.arity)}"
                )
            rows = _probability_rows(self.p, f.arity)
        if rows is not None:
            rows.flags.writeable = False
            object.__setattr__(self, "p", rows)
            return
        # Some row is bad: walk the rows, a mapping in its own order and an
        # array in domain order, to name the first one.
        if isinstance(self.p, Mapping):
            named = self.p.items()
        else:
            named = zip(f.domain, np.asarray(self.p).tolist())
        for x, row in named:
            if len(row) != f.arity:
                raise ValueError(f"row {x!r} has {len(row)} entries, expected {f.arity}")
            if any(q < 0 for q in row):
                raise ValueError(f"row {x!r} has a negative probability")
            if abs(sum(row) - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"row {x!r} sums to {sum(row)!r}, not 1")
            if not all(math.isfinite(q) for q in row):
                raise ValueError(f"row {x!r} has a non-finite probability")
        raise ValueError("witness probabilities must be real numbers")

    def matrix_rows(self) -> np.ndarray:
        """Read-only (rows, arity) array of the distributions, in domain order."""
        return self.p


def _probability_rows(rows, arity: int) -> np.ndarray | None:
    """A new float (len(rows), arity) array of the rows if every row is a
    finite, nonnegative distribution summing to one within ``PROB_SUM_TOL``;
    None for any bad row, and for rows that are ragged or not numbers."""
    if len(rows) == 0:  # np.array([]) has shape (0,)
        return np.empty((0, arity))
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
    return MinimaxWitness(f, np.full((len(f.domain), f.arity), 1.0 / f.arity))


def mm_value(witness: MinimaxWitness, alpha) -> float:
    """Worst pair value of the witness; a pair with zero overlap gives +inf.

    The costs are checked, and the value is ``mm_rows_value`` of the rows.
    """
    f = witness.function
    return mm_rows_value(f, witness.p, as_costs(alpha, f.arity))


def mm_rows_value(f: BooleanFunction, p: np.ndarray, alpha: CostVector) -> float:
    """``mm_value`` of the witness whose rows, in domain order, are the
    (rows, arity) array p; p is not checked.

    With Q = sqrt(P), B0/B1 the input bits of f^-1(0)/f^-1(1) and z/o their
    rows, every pair's overlap sum S[x, y] = sum_{i: x_i != y_i}
    Q[x, i] Q[y, i] / alpha_i comes from one product on the block:

        S = [Q_z o B0 / alpha, Q_z o (1 - B0) / alpha] . [Q_o o (1 - B1), Q_o o B1]^T

    The value is 1 / min S (+inf when some pair has no overlap), taken over
    blocks of rows of the left factor, ``MM_BLOCK`` entries of S at a time.
    A function without a crossing pair, such as a constant, has value 0.

    Zero columns are dropped: a column of the left factor that is zero on
    all of f^-1(0), or of the right factor on all of f^-1(1), adds an exact
    +0.0 to every sum, so both factors lose it before the product and S
    stays bit for bit the same (half the 24 columns of a composed 4096-row
    tree witness).  Without a zero probability, a column is zero on a
    whole class only where a bit is constant on it, so a strictly positive
    p (every solver round) skips the test and keeps all 2n columns.
    """
    zeros, ones = f.classes
    if zeros.size == 0 or ones.size == 0:
        return 0.0
    q = np.sqrt(p)
    qz, b0 = q[zeros] / alpha.as_array(), f.bits[zeros]
    qo, b1 = q[ones], f.bits[ones]
    left = np.hstack([qz * b0, qz * ~b0])
    right = np.hstack([qo * ~b1, qo * b1])
    if not p.all():  # a strictly positive p keeps every column
        live = left.any(axis=0) & right.any(axis=0)
        if not live.all():
            left, right = left[:, live], right[:, live]
    least = _least_product(left, right)
    return math.inf if least == 0.0 else 1.0 / least


def _least_product(left: np.ndarray, right: np.ndarray) -> float:
    """min (left @ right.T), formed ``MM_BLOCK`` entries at a time, in blocks
    of rows of ``left``."""
    step = max(1, MM_BLOCK // len(right))
    return min(float((left[i : i + step] @ right.T).min()) for i in range(0, len(left), step))


# --------------------------------------------------------------------------
# Composition


def _check_blocks(spec: CompositionSpec, inner: Sequence, noun: str, nouns: str, **outer) -> None:
    """Raise unless each keyword item of ``outer`` is over the outer function
    and ``inner`` holds one item per block, each over its block's function,
    in order.  Messages name the items by keyword and by ``noun``/``nouns``."""
    for name, item in outer.items():
        if item.function != spec.outer:
            raise ValueError(f"{name} is not over the outer function")
    if len(inner) != len(spec.inner):
        raise ValueError(f"expected {len(spec.inner)} inner {nouns}")
    for item, g in zip(inner, spec.inner):
        if item.function != g:
            raise ValueError(f"inner {noun} order must match the composition blocks")


def _mapped_zeros(n: int, entries: int, pieces: Iterable) -> np.ndarray:
    """An n x n float array of zeros in a private anonymous memory map, with
    the ``entries`` nonzero entries of ``pieces`` written into it: each piece
    is (flat indices, values).

    The composed matrix outlives the temporaries around it.  Taken from the
    malloc heap, it can fill a hole that later temporaries then cannot use,
    and the heap grows instead: over repeated 1024- to 4096-row compositions
    the resting RSS rose by about 20 MB.  A mapping of its own goes back to
    the system when the array dies.

    How the pages become resident depends on how many of them get written.
    A sparse matrix, at most one entry per 4 KB page on average
    (``PAGE_ENTRIES * entries <= n * n``), is kept on 4 KB pages, written
    first and then populated: ``MADV_POPULATE_READ`` on its first page
    asks whether the kernel has that advice before any write, and after the
    writes it maps every page not yet written as the kernel's shared zero
    page.  Only a page that gets an entry is allocated, and the kernel
    visits each page once: populating first would map the zero page under
    each written page and then break it copy-on-write.  A composed 4096-row
    tree certificate writes 7-9k entries into about 5k pages, so it keeps
    about 20 MB of its 128 MB resident, and every read of the rest hits one
    cached page.  A denser matrix, or a kernel without that advice (before
    Linux 5.14), gets huge pages before the writes, as numpy asks for them
    on its own large arrays; on 4 KB pages, first touch of a dense 4096-row
    composition took about twice as long.
    """
    buf = mmap.mmap(-1, max(8 * n * n, 1), access=mmap.ACCESS_COPY)
    sparse = False
    if hasattr(mmap, "MADV_HUGEPAGE"):  # Linux only; elsewhere no advice is given
        sparse = PAGE_ENTRIES * entries <= n * n and _populate_zero_pages(buf)
        if not sparse:
            buf.madvise(mmap.MADV_HUGEPAGE)
    flat = np.frombuffer(buf, dtype=float, count=n * n)
    for index, values in pieces:
        flat[index] = values
    if sparse:
        buf.madvise(MADV_POPULATE_READ)
    return flat.reshape(n, n)


def _populate_zero_pages(buf: mmap.mmap) -> bool:
    """Keep ``buf`` on 4 KB pages and map its first page read-only, as the
    shared zero page while nothing is written there; False if the kernel
    refuses.  The rest of the map is populated after the writes."""
    try:
        # Under a system-wide "always" huge-page setting, a write to the huge
        # zero page would allocate a whole huge page.
        buf.madvise(mmap.MADV_NOHUGEPAGE)
        buf.madvise(MADV_POPULATE_READ, 0, mmap.PAGESIZE)
    except OSError:
        return False
    return True


def _class_entries(factor: np.ndarray, g: BooleanFunction, stride: int) -> list:
    """The nonzero entries of ``factor`` by the output classes of their row
    and column: item [s][t] is (row offsets, column offsets, values) for
    rows in g^-1(s) and columns in g^-1(t), with the row indices of g scaled
    by ``stride``."""
    entries = []
    for rows in g.classes:
        entries.append([])
        for cols in g.classes:
            block = factor[np.ix_(rows, cols)]
            u, v = np.nonzero(block)
            entries[-1].append((rows[u] * stride, cols[v] * stride, block[u, v]))
    return entries


def _expand(value: float, parts: Sequence) -> Iterator:
    """The Cartesian product of ``parts``, at most ``COMPOSE_PIECE`` entries
    at a time, as (row offsets, column offsets, values).

    Each part is a (row offsets, column offsets, values) triple; a product
    entry sums the offsets of its picks and multiplies ``value`` by their
    values in part order.  The longest run of trailing parts whose product
    fits in a piece, leaving at least the first part, is broadcast whole;
    the leading parts are walked in runs of flat indices.
    """
    sizes = [vals.size for _, _, vals in parts]
    if 0 in sizes:
        return
    lead, tail = len(parts), 1
    while lead > 1 and tail * sizes[lead - 1] <= COMPOSE_PIECE:
        lead -= 1
        tail *= sizes[lead]
    count = math.prod(sizes[:lead])
    step = max(1, COMPOSE_PIECE // tail)
    for start in range(0, count, step):
        picks = np.unravel_index(np.arange(start, min(start + step, count)), sizes[:lead])
        rows, cols, vals = 0, 0, value
        for (r, c, v), pick in zip(parts, picks):
            rows = rows + r[pick]
            cols = cols + c[pick]
            vals = vals * v[pick]
        for r, c, v in parts[lead:]:
            rows = (rows[:, None] + r).ravel()
            cols = (cols[:, None] + c).ravel()
            vals = (vals[:, None] * v).ravel()
        yield rows, cols, vals


def _composed_pieces(products: list, lookup: np.ndarray, n: int) -> Iterator:
    """The expanded ``products`` of ``compose_gamma`` as (flat indices into the
    n x n output, values), each piece checked finite."""
    for value, parts in products:
        for r, c, vals in _expand(value, parts):
            if not np.isfinite(vals).all():  # finite factors can still overflow
                raise ValueError("entries must be finite")
            yield lookup[r] * n + lookup[c], vals


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

    Only the nonzero products are built.  The composed rows with outer row a
    are those whose inner rows lie in the output classes a_1, ..., a_k, so
    for each nonzero outer entry G_f[a, b] the product runs over the nonzero
    entries of each F_i with row in class a_i and column in class b_i: a
    Cartesian product, expanded ``COMPOSE_PIECE`` entries at a time.  The
    products are counted before the output is made (the sum, over the
    nonzero outer entries, of the product of their part sizes), and
    ``_mapped_zeros`` picks the output's pages by that count.  Each
    entry multiplies the outer value, then F_1, F_2, ..., in block order, as
    a whole-matrix product would; each piece is checked finite and then
    written into a zeroed output, which a sparse matrix populates only after
    the writes.  Entries (x, y) and (y, x) multiply the
    same numbers in the same order, so the result is exactly symmetric and
    becomes a ``SymMatrix`` without a copy or any re-check.

    Entries with a zero factor are never computed, so they are +0.0 even
    where G_f holds -0.0 (a whole-matrix product would write -0.0 there), and
    a partial product that overflows before a zero factor does not turn the
    entry into NaN.
    """
    _check_blocks(spec, gammas_g, "matrix", "matrices", gamma_f=gamma_f)
    require_valid(gamma_f)
    for gam in gammas_g:
        require_valid(gam)
    rows = spec.composed
    sizes = [len(g.domain) for g in spec.inner]
    entries = []
    for i, (gam, g) in enumerate(zip(gammas_g, spec.inner)):
        # A dense eigh of these small inner matrices beat edge_norm's numpy overhead.
        factor = gam.matrix.entries + spectral_norm(gam.matrix).norm * np.eye(gam.matrix.dim)
        entries.append(_class_entries(factor, g, math.prod(sizes[i + 1 :])))
    # lookup[the row-major grid index of a tuple of inner rows] is its
    # composed row; every tuple the expansion makes is a composed row.
    n = rows.outer_row.size
    lookup = np.zeros(math.prod(sizes), dtype=np.int64)
    lookup[np.ravel_multi_index(rows.inner_row, sizes)] = np.arange(n)
    outer = gamma_f.matrix.entries
    outer_bits = spec.outer.bits.tolist()
    products = []
    for a, b in zip(*np.nonzero(outer)):
        parts = [e[s][t] for e, s, t in zip(entries, outer_bits[a], outer_bits[b])]
        products.append((outer[a, b], parts))
    count = sum(math.prod(vals.size for _, _, vals in parts) for _, parts in products)
    out = _mapped_zeros(n, count, _composed_pieces(products, lookup, n))
    h = rows.function
    return AdversaryMatrix(h, SymMatrix._trusted(h.domain, out))


@dataclass(frozen=True, eq=False)
class EigvecParts:
    """A unit eigenvector; its half on output class b is ``vector[function.classes[b]]``."""

    function: BooleanFunction
    vector: np.ndarray

    @classmethod
    def from_vector(cls, function: BooleanFunction, vector: np.ndarray) -> "EigvecParts":
        v = np.asarray(vector, dtype=float)
        if v.shape != (len(function.domain),):
            raise ValueError("vector length must match the domain")
        return cls(function, v)


def _check_half_mass(parts: EigvecParts) -> None:
    for b, idx in enumerate(parts.function.classes):
        half = parts.vector[idx]
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

    Entry by entry, delta_h[x] = delta_f[xt] * prod_i delta_{g_i}[x^i], from
    the half of delta_{g_i} on the output class of x^i, which is the whole
    vector's entry there.  Each inner eigenvector must put squared mass 1/2
    on each output class; the result then has squared norm 1/2**k.
    """
    _check_blocks(spec, deltas_g, "eigenvector", "eigenvectors")
    for parts in deltas_g:
        _check_half_mass(parts)
    rows = spec.composed
    out = delta_f.vector[rows.outer_row]
    for parts, idx in zip(deltas_g, rows.inner_row):
        out *= parts.vector[idx]
    return out


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
    _check_blocks(spec, ps_g, "witness", "witnesses", p_f=p_f)
    rows = spec.composed
    weights = p_f.p[rows.outer_row]
    p = np.hstack(
        [weights[:, i, None] * w.p[idx] for i, (w, idx) in enumerate(zip(ps_g, rows.inner_row))]
    )
    return MinimaxWitness(rows.function, p)


# --------------------------------------------------------------------------
# JSON forms


def require_numbers(rows: Iterable, name: str) -> None:
    """Raise ValueError unless every item of every row is a real number but
    not a bool, as a JSON number is; ``float`` would read "1" and true as 1.0."""
    for row in rows:
        for t in set(map(type, row)):
            if not issubclass(t, numbers.Real) or issubclass(t, bool):
                bad = next(v for v in row if type(v) is t)
                raise ValueError(f"{name} must be numbers, got {bad!r}")


def gamma_to_dict(gamma: AdversaryMatrix) -> dict:
    return {
        "labels": list(gamma.matrix.labels),
        "entries": gamma.matrix.entries.tolist(),
        "function": function_to_dict(gamma.function),
    }


def gamma_from_dict(data: Mapping, function: BooleanFunction | None = None) -> AdversaryMatrix:
    """Read ``{"labels": [...], "entries": [[...], ...]}``, with an optional
    embedded ``"function"`` that ``function`` overrides.  Symmetry is
    checked exactly: serialized input gets no slack."""
    if not isinstance(data, Mapping):
        raise ValueError(f"matrix JSON must be an object, got {type(data).__name__}")
    if function is None:
        if "function" not in data:
            raise ValueError("matrix JSON has no embedded function and none was given")
        function = function_from_dict(data["function"])
    try:
        labels = data["labels"]
        if not isinstance(labels, list):
            raise TypeError(f"labels must be an array, got {type(labels).__name__}")
        require_numbers(data["entries"], "entries")
        entries = np.array(data["entries"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix: {exc}") from None
    # str() would read the labels 0 and 1 as "0" and "1".
    if not set(map(type, labels)) <= {str}:
        raise ValueError("labels must be strings")
    return AdversaryMatrix(function, SymMatrix(tuple(labels), entries))


def witness_to_dict(witness: MinimaxWitness) -> dict:
    rows = zip(witness.function.domain, witness.p.tolist())
    return {"rows": [{"x": x, "p": p} for x, p in rows]}


def witness_from_dict(data: Mapping, function: BooleanFunction) -> MinimaxWitness:
    try:
        raw = {}
        for r in data["rows"]:
            if r["x"] in raw:
                raise ValueError(f"duplicate domain entry {r['x']!r}")
            raw[r["x"]] = r["p"]
        require_numbers(raw.values(), "probabilities")
        rows = {x: tuple(float(q) for q in p) for x, p in raw.items()}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed witness: {exc}") from None
    return MinimaxWitness(function, rows)
