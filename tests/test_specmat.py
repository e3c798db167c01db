"""Labelled symmetric matrices and the spectral-norm contract."""

import json
import math

import numpy as np
import pytest

from advbound import specmat
from advbound.adversary import AdversaryMatrix, gamma_from_dict, gamma_to_dict
from advbound.boolfn import make_family
from advbound.specmat import (
    RESIDUAL_TOL,
    EigensolverError,
    SymMatrix,
    _checked,
    block_norms,
    edge_norm,
    nonzero_entries,
    principal_eigenvector,
    spectral_norm,
)
from conftest import difference_mask, hadamard

LABELS4 = ("00", "01", "10", "11")


def gadget_entries(b1, b2):
    """4x4 hub-and-spokes pattern used throughout: (01,11)=b1, (10,11)=b2."""
    a = np.zeros((4, 4))
    a[1, 3] = a[3, 1] = b1
    a[2, 3] = a[3, 2] = b2
    return a


def test_symmatrix_validation():
    # Labels are not a matrix's to check: AdversaryMatrix ties them to the
    # domain (test_gamma_from_dict_ties_the_labels_to_the_domain).
    with pytest.raises(ValueError, match="symmetric"):
        SymMatrix(("0", "1"), np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        SymMatrix(("0", "1"), np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError, match="does not match"):
        SymMatrix(("0", "1"), np.zeros((3, 3)))


@pytest.mark.parametrize(
    "dim,row,col",
    [
        (130, 3, 70),
        (130, 5, 129),
        (130, 128, 129),
        (200, 10, 199),
        (200, 100, 150),
        (200, 64, 128),
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
        with pytest.raises(ValueError, match="finite"):
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
    assert m.labels == LABELS4 and m.dim == 4 and np.array_equal(m.entries, m.entries.T)


@pytest.mark.parametrize(
    "labels,entries,message",
    [(("0", "1"), np.zeros((2, 3)), "does not match")],
    ids=["shape"],
)
def test_trusted_symmatrix_still_checks_shape_labels_and_finiteness(labels, entries, message):
    # Only the shape against the labels is checked here.  Finiteness is its
    # caller's to check: compose_gamma checks each chunk as it builds
    # (test_compose_gamma_rejects_an_overflowing_product); the labels are
    # AdversaryMatrix's, which ties them to the domain.
    with pytest.raises(ValueError, match=message):
        SymMatrix._trusted(labels, entries)


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


def test_residual_contract_enforced(monkeypatch):
    monkeypatch.setattr(specmat, "RESIDUAL_TOL", 0.0)
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, (6, 6))
    m = SymMatrix(tuple(f"{i:03b}" for i in range(6)), (a + a.T) / 2)
    with pytest.raises(EigensolverError) as err:
        spectral_norm(m)
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
    width = max(1, (r + c - 1).bit_length())
    return SymMatrix(tuple(f"{i:0{width}b}" for i in range(r + c)), full)


def edge_norm_of(b):
    """``edge_norm`` of the block b, from its nonzero entries."""
    return edge_norm(*nonzero_entries(b), b.shape)


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (1, 6), (6, 1)])
def test_block_norm_matches_assembled_operator(shape):
    rng = np.random.default_rng(sum(shape) * 10 + shape[0])
    b = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.6)
    b[0, 0] = 1.0  # never the zero block
    full = bipartite(b)
    res = edge_norm_of(b)
    assert res.norm == pytest.approx(spectral_norm(full).norm, rel=1e-12)
    assert res.norm == pytest.approx(np.linalg.svd(b, compute_uv=False)[0], rel=1e-12)
    assert res.vector.shape == (sum(shape),)
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
    # the reported residual is the full operator's, and within the contract
    v = res.vector
    direct = np.linalg.norm(full.entries @ v - res.norm * v)
    assert abs(res.residual - direct) <= 1e-12 * max(1.0, res.norm)
    assert res.residual <= RESIDUAL_TOL * max(1.0, res.norm)
    # (x, y) = sqrt(2) v is a singular pair of B: B y = sigma x and B^T x = sigma y
    x, y = np.split(math.sqrt(2.0) * v, [shape[0]])
    assert np.allclose(b @ y, res.norm * x, rtol=0.0, atol=1e-10)
    assert np.allclose(b.T @ x, res.norm * y, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("shape", [(4, 2), (2, 4), (0, 3), (3, 0)])
def test_block_norm_zero_block(shape):
    res = edge_norm_of(np.zeros(shape))
    assert res.norm == 0.0 and res.residual == 0.0
    assert res.vector.shape == (sum(shape),)
    if all(shape):
        assert spectral_norm(bipartite(np.zeros(shape))).norm == 0.0


@pytest.mark.parametrize("shape", [(7, 5), (5, 7), (6, 6), (1, 6), (6, 1)])
def test_block_norm_drops_all_zero_rows_and_columns(shape):
    rng = np.random.default_rng(60 + sum(shape))
    b = rng.uniform(0.1, 1.0, shape)
    rows, cols = rng.random(shape[0]) < 0.6, rng.random(shape[1]) < 0.6
    rows[0] = cols[-1] = True  # a nonzero trimmed block
    if shape[0] > 1:
        rows[-1] = False
    if shape[1] > 1:
        cols[0] = False
    b[~rows] = 0.0
    b[:, ~cols] = 0.0
    got, trimmed = edge_norm_of(b), edge_norm_of(b[np.ix_(rows, cols)])
    assert got.norm == trimmed.norm
    assert got.residual == trimmed.residual
    assert got.vector.shape == (sum(shape),)
    kept = np.concatenate([rows, cols])
    assert np.all(got.vector[~kept] == 0.0)
    assert got.vector[kept].tobytes() == trimmed.vector.tobytes()


@pytest.mark.parametrize("size", [1, 5, 40])
def test_block_norm_of_a_matching_is_its_largest_entry(size):
    # One nonzero per row and column, scattered through a larger block.
    rng = np.random.default_rng(size)
    b = np.zeros((size + 3, size + 7))
    rows = rng.choice(size + 3, size, replace=False)
    cols = rng.choice(size + 7, size, replace=False)
    b[rows, cols] = rng.uniform(0.1, 10.0, size) * rng.choice([-1.0, 1.0], size)
    got = edge_norm_of(b)
    assert got.norm == np.abs(b).max()
    assert np.count_nonzero(got.vector) == 2


def component_block(rng, shape):
    """A block whose nonzero pattern is connected: a staircase from corner
    to corner joins every row and column, and a random third of the other
    entries is filled in."""
    r, c = shape
    b = rng.uniform(0.1, 1.0, shape) * (rng.random(shape) < 0.3)
    i = j = 0
    while True:
        b[i, j] = rng.uniform(0.1, 1.0)
        if (i, j) == (r - 1, c - 1):
            return b * rng.choice([-1.0, 1.0], shape)
        if j == c - 1 or (i < r - 1 and rng.random() < r / (r + c)):
            i += 1
        else:
            j += 1


def scatter(rng, pieces, ordered=False, extra=(2, 3)):
    """The direct sum of ``pieces`` plus ``extra`` empty rows and columns,
    under random row and column permutations; also each piece's rows and
    columns in the result.  With ``ordered``, each piece keeps the order of
    its rows and of its columns."""
    shape = (sum(p.shape[0] for p in pieces) + extra[0], sum(p.shape[1] for p in pieces) + extra[1])
    b = np.zeros(shape)
    rows, cols = rng.permutation(shape[0]), rng.permutation(shape[1])
    spots, r0, c0 = [], 0, 0
    for p in pieces:
        pr, pc = rows[r0 : r0 + p.shape[0]], cols[c0 : c0 + p.shape[1]]
        if ordered:
            pr, pc = np.sort(pr), np.sort(pc)
        b[np.ix_(pr, pc)] = p
        spots.append((pr, pc))
        r0, c0 = r0 + p.shape[0], c0 + p.shape[1]
    return b, spots


COMPONENT_CASES = {
    "singles": [(1, 1)] * 6,
    "mixed": [(1, 1), (3, 2), (1, 4), (5, 5), (1, 1), (2, 7)],
    "one_dense": [(6, 4)],
    "dense_and_sparse": [(4, 6), (7, 3), (1, 1)],
    "many": [(1, 1)] * 5 + [(2, 2)] * 5 + [(3, 4), (8, 6), (4, 9)],
}


@pytest.mark.parametrize("name", sorted(COMPONENT_CASES))
@pytest.mark.parametrize("seed", range(4))
def test_block_norm_of_disjoint_components(name, seed):
    rng = np.random.default_rng(100 * seed + len(name))
    pieces = [component_block(rng, shape) for shape in COMPONENT_CASES[name]]
    if name == "dense_and_sparse":
        pieces[0] = rng.uniform(0.1, 1.0, pieces[0].shape)  # no zero entry
    b, spots = scatter(rng, pieces)
    got = edge_norm_of(b)
    sigma = np.linalg.svd(b, compute_uv=False)[0]
    assert got.norm == pytest.approx(sigma, rel=1e-12)
    assert got.norm == pytest.approx(spectral_norm(bipartite(b)).norm, rel=1e-12)
    v = got.vector
    assert v.shape == (sum(b.shape),)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    # (x, y) = sqrt(2) v is a top singular pair of B ...
    x, y = np.split(math.sqrt(2.0) * v, [b.shape[0]])
    assert np.allclose(b @ y, got.norm * x, rtol=0.0, atol=1e-12 * got.norm)
    assert np.allclose(b.T @ x, got.norm * y, rtol=0.0, atol=1e-12 * got.norm)
    # ... supported on the rows and columns of one piece,
    support = np.flatnonzero(v)
    owners = [
        k for k, (pr, pc) in enumerate(spots)
        if set(support) <= set(pr.tolist()) | set((pc + b.shape[0]).tolist())
    ]
    assert len(owners) == 1
    # and its residual is the one taken on the whole operator.
    full = bipartite(b).entries
    direct = np.linalg.norm(full @ v - got.norm * v)
    assert abs(got.residual - direct) <= 1e-12 * max(1.0, got.norm)
    assert got.residual <= RESIDUAL_TOL * max(1.0, got.norm)


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 4)])
def test_block_norm_tie_takes_the_component_of_the_least_row(shape):
    rng = np.random.default_rng(sum(shape))
    piece = component_block(rng, shape)
    # Gathered in order, the three copies give the same bits.
    b, spots = scatter(rng, [piece * 0.5, piece, piece, -piece], ordered=True)
    got = edge_norm_of(b)
    assert got.norm == edge_norm_of(piece).norm
    tied = [k for k in (1, 2, 3) if spots[k][0].min() == min(spots[j][0].min() for j in (1, 2, 3))]
    rows, cols = spots[tied[0]]
    assert set(np.flatnonzero(got.vector)) <= set(rows.tolist()) | set((cols + b.shape[0]).tolist())


def test_block_norm_contract_enforced(monkeypatch):
    monkeypatch.setattr(specmat, "RESIDUAL_TOL", 0.0)
    b = np.random.default_rng(4).uniform(0.0, 1.0, (6, 4))
    with pytest.raises(EigensolverError) as err:
        edge_norm_of(b)
    assert err.value.residual > 0.0


def test_block_norm_of_tiny_block_is_finite():
    # The Gram entry 2e-340 underflowed to 0, so sigma and the vector were lost.
    got = edge_norm_of(np.array([[1e-170, 1e-170]]))
    assert got.norm == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-12)
    assert np.all(np.isfinite(got.vector)) and math.isfinite(got.residual)


@pytest.mark.parametrize("k", [-40, -3, 3, 40])
def test_block_norm_is_exact_under_power_of_two_scaling(k):
    rng = np.random.default_rng(40 + k)
    for shape in [(3, 5), (6, 2), (4, 4)]:
        b = rng.uniform(0.0, 1.0, shape)
        plain, scaled = edge_norm_of(b), edge_norm_of(np.ldexp(b, k))
        assert scaled.norm == math.ldexp(plain.norm, k)
        assert scaled.vector.tobytes() == plain.vector.tobytes()


def spread_stack(rng, shape, count=6):
    """``count`` random blocks of ``shape`` with signs and spread scales; block
    1 is all zero, and row 0 of block 3 is."""
    scales = np.ldexp(1.0, rng.integers(-8, 8, (count, 1, 1)))
    stack = rng.uniform(-1.0, 1.0, (count,) + shape) * scales
    stack[1] = 0.0
    stack[3, 0] = 0.0
    return stack


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5)], ids=["tall", "wide", "square"])
def test_block_norms_match_per_block_svd(shape):
    rng = np.random.default_rng(sum(shape))
    stack = spread_stack(rng, shape)
    norms, vectors, residuals = block_norms(stack)
    r, c = shape
    for b, norm, v, residual in zip(stack, norms, vectors, residuals):
        u, sv, vt = np.linalg.svd(b)
        if not b.any():
            assert norm == 0.0 and residual == 0.0 and not v.any()
            continue
        assert norm == pytest.approx(sv[0], rel=1e-12)
        # v is (x, y)/sqrt(2) for the top singular pair, up to one sign
        sign = math.copysign(1.0, float(v[:r] @ u[:, 0]))
        assert np.allclose(v, sign * np.concatenate([u[:, 0], vt[0]]) / math.sqrt(2.0), atol=1e-12)
        g = np.block([[np.zeros((r, r)), b], [b.T, np.zeros((c, c))]])
        # the residual is G's, to rounding, and meets the contract
        assert residual == pytest.approx(np.linalg.norm(g @ v - norm * v), abs=1e-14 * norm)
        assert residual <= RESIDUAL_TOL * max(1.0, norm)


@pytest.mark.parametrize("k", [-500, 500])
def test_block_norms_scale_exactly(k):
    stack = spread_stack(np.random.default_rng(41), (4, 6))
    plain, scaled = block_norms(stack), block_norms(np.ldexp(stack, k))
    assert np.array_equal(scaled[0], np.ldexp(plain[0], k))
    assert scaled[1].tobytes() == plain[1].tobytes()
    assert np.array_equal(scaled[2], np.ldexp(plain[2], k))
    assert np.isfinite(scaled[0]).all() and np.count_nonzero(scaled[0]) == len(stack) - 1


def test_block_norms_error_carries_the_first_failing_residual(monkeypatch):
    stack = spread_stack(np.random.default_rng(42), (3, 5))
    stack[[0, 1]] = stack[[1, 0]]  # the zero block first: residual 0 meets any tolerance
    residuals = block_norms(stack)[2]
    # order the others by falling residual, so the first to fail is the largest
    # of them, and then by rising residual, so it is the smallest
    for order in (np.argsort(-residuals[1:]), np.argsort(residuals[1:])):
        ordered = np.concatenate([stack[:1], stack[1:][order]])
        want = block_norms(ordered)[2]
        assert want[0] == 0.0 and (want[1:] > 0.0).all()
        with monkeypatch.context() as patch:
            patch.setattr(specmat, "RESIDUAL_TOL", 0.0)
            with pytest.raises(EigensolverError, match="eigensolver residual") as err:
                block_norms(ordered)
        assert err.value.residual == want[1]


def test_block_norms_of_an_empty_stack_and_of_empty_blocks():
    for shape in [(0, 2, 3), (2, 0, 3), (2, 3, 0)]:
        norms, vectors, residuals = block_norms(np.zeros(shape))
        assert norms.shape == residuals.shape == (shape[0],) and not norms.any()
        assert vectors.shape == (shape[0], shape[1] + shape[2])


def test_checked_rejects_a_nan_residual():
    # NaN > tol is False, so a NaN residual used to pass the contract.
    with pytest.raises(EigensolverError):
        _checked(np.array([np.nan, 0.0]), 1.0, np.array([1.0, 0.0]))


def test_matrix_json_roundtrip():
    # The matrix JSON form is written and read with its function by
    # gamma_to_dict and gamma_from_dict; entries that need all 17 significant
    # digits, and the least subnormal, must come back bit for bit.
    and2 = make_family("and", 2)
    m = SymMatrix(LABELS4, gadget_entries(math.pi, 5e-324))
    data = json.loads(json.dumps(gamma_to_dict(AdversaryMatrix(and2, m))))
    again = gamma_from_dict(data).matrix
    assert again.labels == m.labels
    assert np.array_equal(again.entries, m.entries)
