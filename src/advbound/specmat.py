"""Dense symmetric matrices indexed by bit-string labels, and their spectra.

Everything downstream works at desk scale (at most a few thousand rows), so
matrices are dense float64 and eigenproblems go through LAPACK.  The spectral
results carry an explicit residual so callers can audit accuracy.

``SymMatrix`` checks its shape, finiteness and exact symmetry once, at
construction; code that holds a ``SymMatrix`` may rely on symmetry without
checking it again.  The one exception is the private ``SymMatrix._trusted``,
for arrays that are symmetric by construction (``adversary.compose_gamma``
builds entry (x, y) and entry (y, x) from the same numbers in the same
order): it takes the array without a copy and checks its shape only; its
caller checks finiteness as it builds.  What the labels must be is not a
matrix's to check: ``AdversaryMatrix`` ties them to its function's domain,
and ``adversary.gamma_from_dict`` reads them from JSON.

``block_norms`` is the one dense solver.  It takes the top singular triple
of every block of a (k, rows, cols) stack from one batched eigensolve on
the Gram matrices of their smaller side, and checks each as the top
eigenpair of its bipartite matrix G = [[0, B], [B^T, 0]] under the
residual contract.  ``edge_norm`` takes the same triple for a block given
by its nonzero entries (``nonzero_entries`` reads them): they form a
bipartite graph between rows and columns, G is the direct sum of that
graph's connected components, and ``edge_norm`` gathers each component of
more than one entry into a small dense block (a single entry needs no
solve), solves the blocks of each shape as one stack, and keeps the
largest.  Rows and columns without an entry belong to no component, so a
sparse block costs solves the size of its components.  Each block is
solved scaled by a power of two that brings its largest entry into
[1/2, 1), so the Gram matrix neither underflows nor overflows, and the
scaling is exact.  Adversary matrices are exactly of this form (zero on
every pair with equal outputs), so ADV evaluation needs no solve on the
full matrix.  Which of the two solvers a crossing block gets is decided
in one place, ``adversary._crossing_norms``: a dense block is stacked with
its masked copies for one ``block_norms`` call, and a block with a zero
entry goes to ``edge_norm`` once per mask, as the subset of its nonzero
entries that the mask keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Accept an eigenpair only if ||A v - lambda v|| <= RESIDUAL_TOL * max(1, |lambda|).
RESIDUAL_TOL = 1e-9


class EigensolverError(ArithmeticError):
    """Eigensolve did not meet the residual contract; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _check_shape(labels: tuple[str, ...], a: np.ndarray) -> None:
    d = len(labels)
    if a.shape != (d, d):
        raise ValueError(f"entries shape {a.shape} does not match {d} labels")


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """An exactly symmetric real matrix, with one label per row."""

    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        _check_shape(self.labels, a)
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        if not np.array_equal(a, a.T):
            raise ValueError("entries must be exactly symmetric")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], entries: np.ndarray) -> "SymMatrix":
        """Wrap a float64 array that is exactly symmetric by construction.

        For builders that make every entry (x, y) from the same numbers, in
        the same order, as entry (y, x).  The array is taken without a copy
        and marked read-only, so the caller must hold no other reference it
        writes through.  The shape is checked; the caller guarantees that
        the entries are finite and exactly symmetric.
        """
        _check_shape(labels, entries)
        entries.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "labels", labels)
        object.__setattr__(out, "entries", entries)
        return out

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Dominant eigenpair: ``norm`` is |lambda|, ``vector`` is unit length."""

    norm: float
    vector: np.ndarray
    residual: float


def _oriented(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry positive; ties break to the lowest index.
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0 else v


def _check_residual(residual: float, lam: float) -> None:
    """Raise unless ||A v - lam v|| = residual meets the contract."""
    # NaN compares False with everything, so a NaN residual must be named.
    if not math.isfinite(residual) or residual > RESIDUAL_TOL * max(1.0, abs(lam)):
        raise EigensolverError(
            f"eigensolver residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e} * max(1, |lambda|)",
            residual,
        )


def _checked(av: np.ndarray, lam: float, v: np.ndarray) -> SpectralResult:
    """Accept (lam, v) given the product ``av`` of the operator with v."""
    residual = float(np.linalg.norm(av - lam * v))
    _check_residual(residual, lam)
    return SpectralResult(abs(float(lam)), _oriented(v), residual)


def _dense_eigenpair(a: SymMatrix, largest_magnitude: bool) -> SpectralResult:
    """One dense ``eigh``: the eigenpair of the largest eigenvalue, or, with
    ``largest_magnitude``, of the smallest when its magnitude is strictly larger."""
    if a.dim == 0:
        return SpectralResult(0.0, np.zeros(0), 0.0)
    w, vecs = np.linalg.eigh(a.entries)
    j = 0 if largest_magnitude and abs(w[0]) > abs(w[-1]) else -1
    v = vecs[:, j]
    return _checked(a.entries @ v, float(w[j]), v)


def spectral_norm(a: SymMatrix) -> SpectralResult:
    """Largest-magnitude eigenvalue and its eigenvector.

    On a magnitude tie the algebraically largest eigenvalue wins, so for
    entrywise-nonnegative matrices the vector is the dominant one.
    """
    return _dense_eigenpair(a, largest_magnitude=True)


def principal_eigenvector(a: SymMatrix) -> SpectralResult:
    """Eigenpair of the largest eigenvalue of an entrywise-nonnegative matrix."""
    if np.any(a.entries < 0):
        raise ValueError("principal_eigenvector requires nonnegative entries")
    return _dense_eigenpair(a, largest_magnitude=False)


def nonzero_entries(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, columns, values) of the nonzero entries of a 2-D array, in
    row-major order."""
    # flatnonzero of a bool array is several times faster than nonzero of
    # the floats, or than a 2-D nonzero.
    flat = np.flatnonzero(b != 0)
    rows, cols = np.divmod(flat, b.shape[1])
    return rows, cols, b.ravel()[flat]


def block_norms(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top singular triple of each block of a (k, rows, cols) stack, as
    ``(norms, vectors, residuals)`` with one entry or row per block.

    For a block B, the norm is sigma_max(B) = ||G|| for the symmetric
    operator G = [[0, B], [B^T, 0]], the vector is G's unit eigenvector
    (x, y)/sqrt(2) for the top singular pair (x, y), with the sign the
    eigensolver gives it, and the residual is ||G v - sigma v||.

    Each block is scaled by 2**-e, with e the binary exponent of its largest
    entry, so that its Gram matrix neither underflows nor overflows; the
    scaling is exact, and sigma and the residual are scaled back by 2**e.
    One batched eigensolve runs on the Gram matrices of the smaller side
    (B B^T, or B^T B for tall blocks), and the other singular vector is
    rebuilt as B^T x (or B y) over sigma.  The residual contract is
    checked on each G, with G v computed blockwise as (B y, B^T x); if some
    block fails it, the error carries the residual of the first that does.
    An all-zero block has norm 0, a zero vector and residual 0, and is not
    solved.  A norm past the float range raises ``OverflowError``.  The
    results depend only on the values of the stack, not on its layout.
    """
    # One memory layout, so that equal stacks give equal bits.
    b = np.ascontiguousarray(blocks, dtype=float)
    k, r, c = b.shape
    top = np.abs(b).max(axis=(1, 2)) if b.size else np.zeros(k)
    if not top.all():  # a NaN block is solved, and fails the contract
        live = np.flatnonzero(top)
        norms, vectors, residuals = np.zeros(k), np.zeros((k, r + c)), np.zeros(k)
        if live.size:
            norms[live], vectors[live], residuals[live] = block_norms(b[live])
        return norms, vectors, residuals
    e = np.frexp(top)[1]
    s = np.ldexp(b, (-e).reshape(k, 1, 1))
    st = s.transpose(0, 2, 1)
    tall = r > c
    w, vecs = np.linalg.eigh(st @ s if tall else s @ st)
    sigma = np.sqrt(w[:, -1])
    small = vecs[:, :, -1:]  # (k, side, 1) columns from here on
    # ||B^T x||^2 = x' B B^T x is the top eigenvalue, so this is a unit vector
    # to rounding, which the residual below accounts for.
    other = (s if tall else st) @ small / sigma[:, None, None]
    x, y = (other, small) if tall else (small, other)
    u = np.concatenate([x, y], axis=1)  # v = u / sqrt(2)
    d = np.concatenate([s @ y, st @ x], axis=1) - sigma[:, None, None] * u
    res = np.sqrt(d.transpose(0, 2, 1) @ d)[:, 0, 0] / math.sqrt(2.0)
    # Scaled back one by one: math.ldexp raises OverflowError past the float range.
    e = e.tolist()
    norms = [math.ldexp(n, j) for n, j in zip(sigma.tolist(), e)]
    residuals = [math.ldexp(n, j) for n, j in zip(res.tolist(), e)]
    for residual, norm in zip(residuals, norms):
        _check_residual(residual, norm)
    return np.array(norms), u[:, :, 0] / math.sqrt(2.0), np.array(residuals)


def _component_labels(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """For each of n vertices, the least vertex of its connected component
    in the graph with edges (u[k], v[k]).

    Min-label propagation: every root hooks to the least root across its
    edges, then pointer jumping points every vertex at its root again.  Each
    round lowers some label until every edge joins equal labels.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def edge_norm(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]
) -> SpectralResult:
    """Largest singular value of the block of ``shape`` whose nonzero
    entries are ``values`` at (``rows``, ``cols``), all other entries zero,
    as an eigenpair.

    The pair is that of the symmetric operator G = [[0, B], [B^T, 0]]:
    ``norm`` is sigma_max(B) = ||G|| and ``vector`` is (x, y)/sqrt(2) for the
    top singular pair (x, y).  The nonzero pattern is a bipartite graph
    between rows and columns, and G is the direct sum of its connected
    components, so ||G|| is the largest component norm.  A component of one
    entry has the norm |entry| and the vector (1, sign(entry))/sqrt(2) on
    its row and column, with residual 0, and costs no solve.  Each larger
    component is gathered, rows and columns in ascending order, into a small
    dense block, and the blocks of one shape are solved as one
    ``block_norms`` stack, under the residual contract; its exact power-of-two
    scaling means that scaling B by 2**k scales the norm by 2**k and leaves
    the vector's bits as they are.  The result is the component of the
    largest norm, the first in order of least row on a tie, with zeros
    elsewhere in ``vector``; the components share no row and no column, so
    its residual is that of the whole operator.  Rows and columns without
    an entry are in no component, and an empty edge list gives norm 0.
    """
    size = shape[0] + shape[1]
    if rows.size == 0:
        return SpectralResult(0.0, np.zeros(size), 0.0)
    # Vertices: the rows, then the columns offset by shape[0], numbered
    # compactly in that order, so every component lists its rows first.
    verts, ends = np.unique(np.concatenate([rows, cols + shape[0]]), return_inverse=True)
    u, v = ends[: rows.size], ends[rows.size :]
    _, comp = np.unique(_component_labels(u, v, verts.size), return_inverse=True)
    count = int(comp.max()) + 1
    # rank[w]: position of vertex w within its component; rows_in[k]: rows of k.
    vorder = np.argsort(comp, kind="stable")
    vstart = np.concatenate([[0], np.cumsum(np.bincount(comp, minlength=count))])
    rank = np.empty(verts.size, dtype=np.intp)
    rank[vorder] = np.arange(verts.size) - vstart[comp[vorder]]
    rows_in = np.bincount(comp[verts < shape[0]], minlength=count)
    ecomp = comp[u]
    eorder = np.argsort(ecomp, kind="stable")
    edges = np.bincount(ecomp, minlength=count)
    estart = np.concatenate([[0], np.cumsum(edges)])
    sigma = np.empty(count)
    single = edges == 1
    sigma[single] = np.abs(values[eorder[estart[:-1][single]]])
    # Components of one shape are solved together, as one stack.
    stacks = {}
    for k in np.flatnonzero(~single).tolist():
        e = eorder[estart[k] : estart[k + 1]]
        block = np.zeros((rows_in[k], vstart[k + 1] - vstart[k] - rows_in[k]))
        block[rank[u[e]], rank[v[e]] - rows_in[k]] = values[e]
        stacks.setdefault(block.shape, []).append((k, block))
    solved = {}
    for group in stacks.values():
        ks, blocks = zip(*group)
        norms, vectors, residuals = block_norms(np.array(blocks))
        sigma[list(ks)] = norms
        solved.update(zip(ks, zip(vectors, residuals.tolist())))
    k = int(np.argmax(sigma))
    vector = np.zeros(size)
    if k in solved:
        solved_vector, residual = solved[k]
        vector[verts[vorder[vstart[k] : vstart[k + 1]]]] = _oriented(solved_vector)
        return SpectralResult(float(sigma[k]), vector, residual)
    e = eorder[estart[k]]
    vector[verts[[u[e], v[e]]]] = np.array([1.0, math.copysign(1.0, values[e])]) / math.sqrt(2.0)
    return SpectralResult(float(sigma[k]), vector, 0.0)
