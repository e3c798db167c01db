"""Labelled symmetric matrices and the spectral-norm contract."""

import json
import math

import numpy as np
import pytest

from advbound.specmat import (
    RESIDUAL_TOL,
    EigensolverError,
    SymMatrix,
    _checked,
    _is_symmetric,
    block_norm,
    difference_mask,
    hadamard,
    matrix_from_dict,
    matrix_to_dict,
    principal_eigenvector,
    spectral_norm,
    top_singular,
)

LABELS4 = ("00", "01", "10", "11")


def gadget_entries(b1, b2):
    """4x4 hub-and-spokes pattern used throughout: (01,11)=b1, (10,11)=b2."""
    a = np.zeros((4, 4))
    a[1, 3] = a[3, 1] = b1
    a[2, 3] = a[3, 2] = b2
    return a


def test_symmatrix_validation():
    with pytest.raises(ValueError):
        SymMatrix(("0", "1"), np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))
    with pytest.raises(ValueError):
        SymMatrix(("0", "1"), np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError):
        SymMatrix(("0", "0"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SymMatrix(("0", "11"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SymMatrix(("0", "1"), np.zeros((3, 3)))


@pytest.mark.parametrize(
    "dim,row,col",
    [
        (130, 3, 70),  # off-diagonal full tile
        (130, 5, 129),  # partial last tile
        (130, 128, 129),  # inside the partial diagonal tile
        (200, 10, 199),
        (200, 100, 150),
        (200, 64, 128),  # first entry of an off-diagonal tile
    ],
)
def test_symmatrix_rejects_one_asymmetric_pair(dim, row, col):
    labels = tuple(format(i, "08b") for i in range(dim))
    a = np.random.default_rng(dim).uniform(size=(dim, dim))
    a = a + a.T
    SymMatrix(labels, a)
    for r, c in ((row, col), (col, row)):
        bad = a.copy()
        bad[r, c] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix(labels, bad)
    for r, c in ((row, col), (row, row)):
        bad = a.copy()
        bad[r, c] = bad[c, r] = np.nan
        with pytest.raises(ValueError):
            SymMatrix(labels, bad)


def test_symmatrix_entries_are_frozen():
    m = SymMatrix(("0", "1"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1.0


def test_symmatrix_copies_input():
    raw = np.zeros((2, 2))
    m = SymMatrix(("0", "1"), raw)
    raw[0, 1] = raw[1, 0] = 5.0
    assert m.entries[0, 1] == 0.0


def test_trusted_symmatrix_takes_the_array_read_only():
    a = gadget_entries(3.0, 4.0)
    m = SymMatrix._trusted(LABELS4, a)
    assert m.entries is a and not a.flags.writeable
    assert m.labels == LABELS4 and m.dim == 4 and _is_symmetric(m.entries)


@pytest.mark.parametrize(
    "labels,entries,message",
    [
        (("0", "1"), np.zeros((2, 3)), "does not match"),
        (("0", "0"), np.zeros((2, 2)), "distinct"),
        (("0", "10"), np.zeros((2, 2)), "equal length"),
    ],
    ids=["shape", "duplicate", "length"],
)
def test_trusted_symmatrix_still_checks_shape_labels_and_finiteness(labels, entries, message):
    # Finiteness is its caller's to check: compose_gamma checks each chunk as
    # it builds (test_compose_gamma_rejects_an_overflowing_product).
    with pytest.raises(ValueError, match=message):
        SymMatrix._trusted(labels, entries)


def test_index_lookup():
    m = SymMatrix(LABELS4, np.zeros((4, 4)))
    assert m.index("10") == 2


def test_difference_mask_two_bits():
    d1 = difference_mask(LABELS4, 1)
    expected = np.array(
        [
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [1, 1, 0, 0],
            [1, 1, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(d1.entries, expected)
    d2 = difference_mask(LABELS4, 2)
    assert d2.entries[0, 1] == 1.0 and d2.entries[0, 2] == 0.0
    with pytest.raises(ValueError):
        difference_mask(LABELS4, 3)
    with pytest.raises(ValueError):
        difference_mask(LABELS4, 0)


def test_hadamard():
    a = SymMatrix(("0", "1"), np.array([[1.0, 2.0], [2.0, 3.0]]))
    b = SymMatrix(("0", "1"), np.array([[0.0, 4.0], [4.0, 1.0]]))
    assert np.array_equal(hadamard(a, b).entries, [[0.0, 8.0], [8.0, 3.0]])
    with pytest.raises(ValueError):
        hadamard(a, SymMatrix(("a", "b"), np.zeros((2, 2))))


def test_gadget_spectrum_three_four():
    m = SymMatrix(LABELS4, gadget_entries(3.0, 4.0))
    res = spectral_norm(m)
    assert res.norm == pytest.approx(5.0, abs=1e-12)
    assert res.residual <= RESIDUAL_TOL * 5.0
    # masking by either input keeps exactly one spoke
    assert spectral_norm(hadamard(m, difference_mask(LABELS4, 1))).norm == pytest.approx(3.0, abs=1e-12)
    assert spectral_norm(hadamard(m, difference_mask(LABELS4, 2))).norm == pytest.approx(4.0, abs=1e-12)


def test_gadget_unit_eigenvector():
    res = spectral_norm(SymMatrix(LABELS4, gadget_entries(1.0, 1.0)))
    assert res.norm == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert np.allclose(res.vector, [0.0, 0.5, 0.5, math.sqrt(0.5)], atol=1e-12)


def test_negative_dominant_eigenvalue():
    res = spectral_norm(SymMatrix(("0", "1"), np.array([[-2.0, 0.0], [0.0, 1.0]])))
    assert res.norm == 2.0
    assert np.allclose(res.vector, [1.0, 0.0])


def test_magnitude_tie_prefers_algebraic_max():
    # eigenvalues are -1 and +1; the +1 eigenvector should come back,
    # oriented so its first largest-magnitude entry is positive
    res = spectral_norm(SymMatrix(("0", "1"), np.array([[0.0, -1.0], [-1.0, 0.0]])))
    assert res.norm == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.vector, [math.sqrt(0.5), -math.sqrt(0.5)], atol=1e-12)


def test_zero_and_empty_matrices():
    z = spectral_norm(SymMatrix(LABELS4, np.zeros((4, 4))))
    assert z.norm == 0.0
    empty = spectral_norm(SymMatrix((), np.zeros((0, 0))))
    assert empty.norm == 0.0 and empty.vector.shape == (0,)


def test_principal_eigenvector_requires_nonnegative():
    with pytest.raises(ValueError):
        principal_eigenvector(SymMatrix(("0", "1"), np.array([[0.0, -1.0], [-1.0, 0.0]])))
    res = principal_eigenvector(SymMatrix(LABELS4, gadget_entries(3.0, 4.0)))
    assert res.norm == pytest.approx(5.0, abs=1e-12)
    assert np.all(res.vector >= -1e-12)


def test_residual_contract_enforced():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, (6, 6))
    m = SymMatrix(tuple(f"{i:03b}" for i in range(6)), (a + a.T) / 2)
    with pytest.raises(EigensolverError) as err:
        spectral_norm(m, tol=0.0)
    assert err.value.residual > 0.0


def test_random_eigenpairs_satisfy_contract():
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        a = rng.normal(size=(d, d))
        m = SymMatrix(tuple(f"{i:04b}" for i in range(d)), (a + a.T) / 2)
        res = spectral_norm(m)
        assert res.residual <= RESIDUAL_TOL * max(1.0, res.norm)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
        # |lambda| matches the full spectrum
        assert res.norm == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(m.entries))), abs=1e-10)


def test_norm_monotone_in_nonnegative_entries():
    rng = np.random.default_rng(5)
    labels = tuple(f"{i:03b}" for i in range(6))
    for _ in range(25):
        a = rng.uniform(0.0, 1.0, (6, 6))
        a = (a + a.T) / 2
        bump = rng.uniform(0.0, 0.5, (6, 6))
        b = a + (bump + bump.T) / 2
        na = spectral_norm(SymMatrix(labels, a)).norm
        nb = spectral_norm(SymMatrix(labels, b)).norm
        assert nb >= na - 1e-10


def test_masking_never_grows_nonnegative_norm():
    rng = np.random.default_rng(6)
    labels = LABELS4
    for _ in range(25):
        a = rng.uniform(0.0, 1.0, (4, 4))
        m = SymMatrix(labels, (a + a.T) / 2)
        whole = spectral_norm(m).norm
        for i in (1, 2):
            masked = spectral_norm(hadamard(m, difference_mask(labels, i))).norm
            assert masked <= whole + 1e-10


def test_tensor_product_norm_law():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(4, 4))
        a, b = (a + a.T) / 2, (b + b.T) / 2
        la = ("00", "01", "10")
        lb = LABELS4
        ma = SymMatrix(la, a)
        mb = SymMatrix(lb, b)
        big = SymMatrix(tuple(x + y for x in la for y in lb), np.kron(a, b))
        lhs = spectral_norm(big).norm
        rhs = spectral_norm(ma).norm * spectral_norm(mb).norm
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def bipartite(b):
    """[[0, B], [B^T, 0]] as a labelled symmetric matrix."""
    r, c = b.shape
    full = np.zeros((r + c, r + c))
    full[:r, r:] = b
    full[r:, :r] = b.T
    return SymMatrix(tuple(f"{i:05b}" for i in range(r + c)), full)


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (1, 6), (6, 1)])
def test_block_norm_matches_assembled_operator(shape):
    rng = np.random.default_rng(sum(shape) * 10 + shape[0])
    b = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.6)
    b[0, 0] = 1.0  # never the zero block
    full = bipartite(b)
    res = block_norm(b)
    assert res.norm == pytest.approx(spectral_norm(full).norm, rel=1e-12)
    assert res.norm == pytest.approx(np.linalg.svd(b, compute_uv=False)[0], rel=1e-12)
    assert res.vector.shape == (sum(shape),)
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
    # the reported residual is the full operator's, and within the contract
    v = res.vector
    direct = np.linalg.norm(full.entries @ v - res.norm * v)
    assert abs(res.residual - direct) <= 1e-12 * max(1.0, res.norm)
    assert res.residual <= RESIDUAL_TOL * max(1.0, res.norm)


@pytest.mark.parametrize("shape", [(4, 2), (2, 4), (0, 3), (3, 0)])
def test_block_norm_zero_block(shape):
    res = block_norm(np.zeros(shape))
    assert res.norm == 0.0 and res.residual == 0.0
    assert res.vector.shape == (sum(shape),)
    if all(shape):
        assert spectral_norm(bipartite(np.zeros(shape))).norm == 0.0


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (1, 6), (6, 1), (1, 1)])
def test_top_singular_matches_block_norm_and_dense(shape):
    rng = np.random.default_rng(sum(shape) * 7 + shape[1])
    stack = rng.uniform(0.0, 1.0, (4,) + shape) * (rng.random((4,) + shape) < 0.7)
    stack[:, 0, 0] = 1.0  # every block nonzero
    sigma, x, y = top_singular(stack)
    assert sigma.shape == (4,) and x.shape == (4, shape[0]) and y.shape == (4, shape[1])
    for k, b in enumerate(stack):
        single = block_norm(b)
        assert sigma[k] == pytest.approx(single.norm, rel=1e-12)
        assert sigma[k] == pytest.approx(spectral_norm(bipartite(b)).norm, rel=1e-12)
        assert np.linalg.norm(x[k]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(y[k]) == pytest.approx(1.0, abs=1e-12)
        # a singular pair of B: B y = sigma x and B^T x = sigma y
        assert np.allclose(b @ y[k], sigma[k] * x[k], rtol=0.0, atol=1e-10)
        assert np.allclose(b.T @ x[k], sigma[k] * y[k], rtol=0.0, atol=1e-10)
        v = np.concatenate([x[k], y[k]]) / math.sqrt(2.0)
        assert min(np.abs(v - single.vector).max(), np.abs(v + single.vector).max()) <= 1e-10


def eigh_top_singular(stack):
    """top_singular with every Gram matrix through eigh, 1 x 1 ones included."""
    flip = stack.transpose(0, 2, 1)
    tall = stack.shape[1] > stack.shape[2]
    w, vecs = np.linalg.eigh(flip @ stack if tall else stack @ flip)
    small = vecs[:, :, -1]
    other = ((stack if tall else flip) @ small[:, :, None])[:, :, 0]
    other /= np.sqrt(np.einsum("ki,ki->k", other, other))[:, None]
    x, y = (other, small) if tall else (small, other)
    return np.sqrt(w[:, -1]), x, y


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (1, 2), (2, 1)])
def test_top_singular_of_a_one_by_one_gram_is_the_eigh_result(shape):
    # The 1 x 1 Gram shortcut skips eigh; its bits must be the ones eigh gives.
    rng = np.random.default_rng(3 * shape[0] + shape[1])
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        stack = rng.uniform(0.0, 1.0, (6,) + shape) * scale
        stack[:, 0, 0] += scale  # every block nonzero
        got, want = top_singular(stack), eigh_top_singular(stack)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_block_norm_contract_enforced():
    b = np.random.default_rng(4).uniform(0.0, 1.0, (6, 4))
    with pytest.raises(EigensolverError) as err:
        block_norm(b, tol=0.0)
    assert err.value.residual > 0.0


def test_block_norm_of_tiny_block_is_finite():
    # The Gram entry 2e-340 underflowed to 0, so sigma and the vector were lost.
    got = block_norm(np.array([[1e-170, 1e-170]]))
    assert got.norm == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-12)
    assert np.all(np.isfinite(got.vector)) and math.isfinite(got.residual)


@pytest.mark.parametrize("k", [-40, -3, 3, 40])
def test_block_norm_is_exact_under_power_of_two_scaling(k):
    rng = np.random.default_rng(40 + k)
    for shape in [(3, 5), (6, 2), (4, 4)]:
        b = rng.uniform(0.0, 1.0, shape)
        plain, scaled = block_norm(b), block_norm(np.ldexp(b, k))
        assert scaled.norm == math.ldexp(plain.norm, k)
        assert scaled.vector.tobytes() == plain.vector.tobytes()


def test_checked_rejects_a_nan_residual():
    # NaN > tol is False, so a NaN residual used to pass the contract.
    with pytest.raises(EigensolverError):
        _checked(np.array([np.nan, 0.0]), 1.0, np.array([1.0, 0.0]), RESIDUAL_TOL)


def test_matrix_json_roundtrip():
    m = SymMatrix(LABELS4, gadget_entries(3.0, 4.0))
    again = matrix_from_dict(json.loads(json.dumps(matrix_to_dict(m))))
    assert again.labels == m.labels
    assert np.array_equal(again.entries, m.entries)


def test_matrix_json_rejects_asymmetry_and_garbage():
    with pytest.raises(ValueError):
        matrix_from_dict({"labels": ["0", "1"], "entries": [[0.0, 1.0], [0.9, 0.0]]})
    with pytest.raises(ValueError):
        matrix_from_dict({"labels": ["0", "1"]})
    with pytest.raises(ValueError):
        matrix_from_dict({"labels": ["0", "1"], "entries": "nope"})
