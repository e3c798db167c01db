"""Dense symmetric matrices indexed by bit-string labels, and their spectra.

Everything downstream works at desk scale (at most a few thousand rows), so
matrices are dense float64 and eigenproblems go through LAPACK.  The spectral
results carry an explicit residual so callers can audit accuracy.

``SymMatrix`` checks exact symmetry once, at construction, comparing square
tiles with their mirror tiles (a whole-matrix ``a == a.T`` reads the
transpose column by column, which is slow at thousands of rows); code that
holds a ``SymMatrix`` may rely on symmetry without checking it again.  The
one exception is the private ``SymMatrix._trusted``, for arrays that are
symmetric by construction (``adversary.compose_gamma`` builds entry (x, y)
and entry (y, x) from the same numbers in the same order): it takes the
array without a copy and checks its shape and labels only; its caller
checks finiteness as it builds.  Outside input always goes through
``SymMatrix(...)``.

``top_singular`` takes the top singular triple of every block in a stack
from one batched eigensolve on the Gram matrices of the blocks' smaller
side; ``block_norm`` is its single-block form, with the norm of the bipartite
matrix [[0, B], [B^T, 0]] checked under the residual contract.  It solves on
B scaled by a power of two that brings its largest entry into [1/2, 1), so
the Gram matrix neither underflows nor overflows, and the scaling is exact.
Adversary matrices are exactly of this form (zero on every pair with equal
outputs), so neither ADV evaluation nor the primal search needs a solve on
the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

#: Accept an eigenpair only if ||A v - lambda v|| <= RESIDUAL_TOL * max(1, |lambda|).
RESIDUAL_TOL = 1e-9

#: Side of the square tiles in which symmetry is checked; 64 was the fastest
#: of 32, 64, 128 and 256 at 4096 rows.
SYMMETRY_TILE = 64


class EigensolverError(ArithmeticError):
    """Eigensolve did not meet the residual contract; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _is_symmetric(a: np.ndarray) -> bool:
    """Exact symmetry, tile by tile: a[I, J] == a[J, I].T for tiles I <= J.

    NaN compares unequal, so a NaN entry fails the check.
    """
    t = SYMMETRY_TILE
    d = a.shape[0]
    for i in range(0, d, t):
        for j in range(i, d, t):
            if not np.array_equal(a[i : i + t, j : j + t], a[j : j + t, i : i + t].T):
                return False
    return True


def _check_labels(labels: tuple[str, ...], a: np.ndarray) -> None:
    d = len(labels)
    if a.shape != (d, d):
        raise ValueError(f"entries shape {a.shape} does not match {d} labels")
    if len(set(labels)) != d:
        raise ValueError("labels must be distinct")
    if d and len({len(s) for s in labels}) != 1:
        raise ValueError("labels must have equal length")


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """An exactly symmetric real matrix with distinct equal-length labels."""

    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        _check_labels(self.labels, a)
        if not _is_symmetric(a):
            raise ValueError("entries must be exactly symmetric")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], entries: np.ndarray) -> "SymMatrix":
        """Wrap a float64 array that is exactly symmetric by construction.

        For builders that make every entry (x, y) from the same numbers, in
        the same order, as entry (y, x).  The array is taken without a copy
        and marked read-only, so the caller must hold no other reference it
        writes through.  The shape and labels are checked; the caller
        guarantees that the entries are finite and exactly symmetric.
        """
        _check_labels(labels, entries)
        entries.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "labels", labels)
        object.__setattr__(out, "entries", entries)
        return out

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Dominant eigenpair: ``norm`` is |lambda|, ``vector`` is unit length."""

    norm: float
    vector: np.ndarray
    residual: float


def hadamard(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Entrywise product; labels must agree exactly."""
    if a.labels != b.labels:
        raise ValueError("hadamard requires identical labels")
    return SymMatrix(a.labels, a.entries * b.entries)


def difference_mask(labels: Sequence[str], i: int) -> SymMatrix:
    """0/1 matrix with 1 where the labels differ at position i (1-based)."""
    labels = tuple(labels)
    if labels and not 1 <= i <= len(labels[0]):
        raise ValueError(f"position {i} out of range 1..{len(labels[0])}")
    chars = np.array([list(s) for s in labels]) if labels else np.empty((0, 0), dtype=str)
    col = chars[:, i - 1] if labels else np.empty(0, dtype=str)
    return SymMatrix(labels, (col[:, None] != col[None, :]).astype(float))


def _oriented(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry positive; ties break to the lowest index.
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0 else v


def _checked(av: np.ndarray, lam: float, v: np.ndarray, tol: float, e: int = 0) -> SpectralResult:
    """Accept (lam, v) given the product ``av`` of the operator with v.

    ``av`` and ``lam`` may belong to the operator scaled by 2**-e; the
    residual is then taken at that scale, and both are scaled back by 2**e.
    """
    residual = math.ldexp(float(np.linalg.norm(av - lam * v)), e)
    lam = math.ldexp(lam, e)  # OverflowError if |lambda| is not a float
    # NaN compares False with everything, so a NaN residual must be named.
    if not math.isfinite(residual) or residual > tol * max(1.0, abs(lam)):
        raise EigensolverError(
            f"eigensolver residual {residual:.3e} exceeds {tol:.1e} * max(1, |lambda|)",
            residual,
        )
    return SpectralResult(abs(float(lam)), _oriented(v), residual)


def spectral_norm(a: SymMatrix, tol: float = RESIDUAL_TOL) -> SpectralResult:
    """Largest-magnitude eigenvalue and its eigenvector.

    On a magnitude tie the algebraically largest eigenvalue wins, so for
    entrywise-nonnegative matrices the vector is the dominant one.
    """
    if a.dim == 0:
        return SpectralResult(0.0, np.zeros(0), 0.0)
    w, vecs = np.linalg.eigh(a.entries)
    if abs(w[-1]) >= abs(w[0]):
        lam, v = w[-1], vecs[:, -1]
    else:
        lam, v = w[0], vecs[:, 0]
    return _checked(a.entries @ v, float(lam), v, tol)


def principal_eigenvector(a: SymMatrix, tol: float = RESIDUAL_TOL) -> SpectralResult:
    """Eigenpair of the largest eigenvalue of an entrywise-nonnegative matrix."""
    if np.any(a.entries < 0):
        raise ValueError("principal_eigenvector requires nonnegative entries")
    if a.dim == 0:
        return SpectralResult(0.0, np.zeros(0), 0.0)
    w, vecs = np.linalg.eigh(a.entries)
    v = vecs[:, -1]
    return _checked(a.entries @ v, float(w[-1]), v, tol)


def top_singular(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top singular triple (sigma, x, y) of every block in a (k, m0, m1) stack.

    One batched eigensolve runs on the Gram matrices of the smaller side
    (B B^T, or B^T B for tall blocks); the other singular vector is rebuilt
    as B^T x (or B y) and normalized.  Returns sigma of shape (k,), x of
    shape (k, m0) and y of shape (k, m1).  Every block must be nonzero.

    A 1 x 1 Gram matrix (a block with one row or one column) skips the solve:
    its eigenvalue is the entry and its eigenvector is 1, exactly what LAPACK
    returns for it.
    """
    flip = stack.transpose(0, 2, 1)
    tall = stack.shape[1] > stack.shape[2]
    gram = flip @ stack if tall else stack @ flip
    if gram.shape[-1] == 1:
        w, vecs = gram[:, :, 0], np.ones_like(gram)
    else:
        w, vecs = np.linalg.eigh(gram)
    small = vecs[:, :, -1]
    other = ((stack if tall else flip) @ small[:, :, None])[:, :, 0]
    other /= np.sqrt(np.einsum("ki,ki->k", other, other))[:, None]
    x, y = (other, small) if tall else (small, other)
    return np.sqrt(w[:, -1]), x, y


def block_norm(b: np.ndarray, tol: float = RESIDUAL_TOL) -> SpectralResult:
    """Largest singular value of a rectangular block B, as an eigenpair.

    The pair is that of the symmetric operator G = [[0, B], [B^T, 0]]:
    ``norm`` is sigma_max(B) = ||G|| and ``vector`` is (x, y)/sqrt(2) for the
    top singular pair (x, y), taken from ``top_singular`` on a stack of one.
    The residual contract is checked on G, with G v computed blockwise as
    (B y, B^T x).  An all-zero block has norm 0 and no solve.

    The solve and the residual run on B * 2**-e, with e the binary exponent
    of B's largest entry, so that neither the Gram matrix nor the residual
    underflows or overflows; sigma and the residual are scaled back by 2**e.
    Scaling by a power of two is exact, so ``block_norm(B * 2**k)`` has the
    bits of ``block_norm(B)`` scaled by 2**k.
    """
    b = np.asarray(b, dtype=float)
    if not np.any(b):
        return SpectralResult(0.0, np.zeros(sum(b.shape)), 0.0)
    _, e = math.frexp(max(float(b.max()), -float(b.min())))
    b = np.ldexp(b, -e)
    sigma, x, y = top_singular(b[None])
    x, y = x[0], y[0]
    v = np.concatenate([x, y]) / math.sqrt(2.0)
    gv = np.concatenate([b @ y, b.T @ x]) / math.sqrt(2.0)
    return _checked(gv, float(sigma[0]), v, tol, e)


# --------------------------------------------------------------------------
# Matrix JSON:  {"labels": [...], "entries": [[...], ...]}


def matrix_to_dict(a: SymMatrix) -> dict:
    return {"labels": list(a.labels), "entries": a.entries.tolist()}


def matrix_from_dict(data: Mapping) -> SymMatrix:
    try:
        labels = tuple(str(s) for s in data["labels"])
        entries = np.array(data["entries"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix: {exc}") from None
    # SymMatrix checks symmetry exactly; serialized input gets no slack.
    return SymMatrix(labels, entries)
