"""Bound evaluation, duality, and the composition identities."""

import dataclasses
import errno
import json
from fractions import Fraction
import math
import mmap
import sys
import tracemalloc

import numpy as np
import pytest

from advbound import adversary
from advbound.adversary import (
    AdversaryMatrix,
    CostVector,
    EigvecParts,
    MinimaxWitness,
    adv_block_value,
    adv_value,
    as_costs,
    compose_eigenvector,
    compose_gamma,
    compose_minimax,
    gamma_from_dict,
    gamma_to_dict,
    masked_compose_check,
    mm_value,
    require_valid,
    uniform_witness,
    validate,
    witness_from_dict,
    witness_to_dict,
    zero_gamma,
)
from advbound.boolfn import (
    And,
    BooleanFunction,
    CompositionSpec,
    Leaf,
    Or,
    compose_functions,
    formula_to_function,
    function_to_dict,
    make_family,
    parse_formula,
    split_input,
)
from advbound.solver import gadget_cost_adv, readonce_bound
from advbound.specmat import (
    EigensolverError,
    SpectralResult,
    SymMatrix,
    block_norms,
    principal_eigenvector,
    spectral_norm,
)
from conftest import (
    composition_cases,
    difference_mask,
    hadamard,
    loop_check_witness,
    loop_composition,
    random_composition_case,
    random_costs,
    random_function,
    random_gamma,
    random_witness,
    reference_compose_gamma,
    witness_rows,
)

AND2 = make_family("and", 2)
OR2 = make_family("or", 2)
PARITY2 = make_family("parity", 2)
ID1 = make_family("id", 1)


def gadget(f, b1, b2):
    """Hub-and-spokes matrix on a 2-bit domain: (01,11)=b1, (10,11)=b2."""
    e = np.zeros((4, 4))
    e[1, 3] = e[3, 1] = b1
    e[2, 3] = e[3, 2] = b2
    return AdversaryMatrix(f, SymMatrix(f.domain, e))


def or_witness():
    return MinimaxWitness(
        OR2, {"00": (0.5, 0.5), "01": (0.0, 1.0), "10": (1.0, 0.0), "11": (0.5, 0.5)}
    )


def and_witness():
    return MinimaxWitness(
        AND2, {"11": (0.5, 0.5), "00": (0.5, 0.5), "01": (1.0, 0.0), "10": (0.0, 1.0)}
    )


# --------------------------------------------------------------------------
# costs


def test_cost_vector_validation():
    with pytest.raises(ValueError):
        CostVector(())
    with pytest.raises(ValueError):
        CostVector((1.0, 0.0))
    with pytest.raises(ValueError):
        CostVector((1.0, -2.0))
    with pytest.raises(ValueError):
        CostVector((1.0, math.inf))
    with pytest.raises(ValueError):
        CostVector((1.0, 1e-320))  # subnormal: 1/c overflows
    assert CostVector((sys.float_info.min,)).costs == (sys.float_info.min,)


def test_cost_vector_helpers():
    alpha = CostVector((1.0, 2.0, 3.0))
    assert alpha.block(2, 2).costs == (2.0, 3.0)
    assert CostVector.ones(2).costs == (1.0, 1.0)
    assert as_costs((1, 2), 2).costs == (1.0, 2.0)
    assert as_costs(alpha, 3) is alpha
    with pytest.raises(ValueError):
        as_costs(alpha, 2)


# --------------------------------------------------------------------------
# validation


def test_adversary_matrix_requires_domain_labels():
    with pytest.raises(ValueError):
        AdversaryMatrix(AND2, SymMatrix(("a0", "a1", "b0", "b1"), np.zeros((4, 4))))


def test_adversary_matrix_requires_symmatrix():
    # validate relies on SymMatrix having checked symmetry
    with pytest.raises(TypeError):
        AdversaryMatrix(AND2, np.zeros((4, 4)))


def test_validate_flags_problems():
    e = np.zeros((4, 4))
    e[1, 3] = e[3, 1] = -1.0  # negative, on a legal pair
    e[0, 1] = e[1, 0] = 2.0  # same output (0) pair
    report = validate(AdversaryMatrix(AND2, SymMatrix(AND2.domain, e)))
    assert not report.ok
    assert any("negative" in v for v in report.violations)
    assert any("both outputs are 0" in v for v in report.violations)
    # the same-output pair is reported once, not mirrored
    assert sum("both outputs" in v for v in report.violations) == 1


def test_validate_cancelling_entries_are_not_zero():
    # Every row sums to zero within each output class, yet no entry is zero.
    e = np.array([[-1.0, 1.0], [1.0, -1.0]])
    gamma = AdversaryMatrix(AND2, SymMatrix(AND2.domain, np.pad(e, (0, 2))))
    report = validate(gamma)
    assert not report.zero_matrix
    assert report.violations == full_mask_violations(gamma)
    assert len(report.violations) == 5


def test_validate_zero_matrix():
    nonconst = validate(zero_gamma(AND2))
    assert not nonconst.ok and nonconst.zero_matrix and not nonconst.constant_function
    const = validate(zero_gamma(BooleanFunction(1, ("0", "1"), (1, 1))))
    assert const.ok and const.zero_matrix and const.constant_function


def test_validate_empty_matrix():
    report = validate(zero_gamma(BooleanFunction(2, (), ())))
    assert report.ok and report.zero_matrix and report.constant_function
    assert report.violations == ()


def full_mask_violations(gamma):
    """Reference: validate's checks on full m x m masks, symmetry aside."""
    f = gamma.function
    a = gamma.matrix.entries
    violations = []
    for r, c in zip(*np.where(a < 0)):
        violations.append(f"negative entry at ({f.domain[r]}, {f.domain[c]})")
    vals = np.array(f.values)
    same = vals[:, None] == vals[None, :]
    for r, c in zip(*np.where(same & (a != 0))):
        if r <= c:
            violations.append(
                f"nonzero entry at ({f.domain[r]}, {f.domain[c]}) but both outputs are {f.values[r]}"
            )
    if not np.any(a) and not f.is_constant:
        violations.append("matrix is all zeros but the function is not constant")
    return tuple(violations)


def random_partial(rng, f):
    """A random subset of f's rows that keeps both outputs."""
    while True:
        keep = rng.random(len(f.domain)) < 0.6
        vals = tuple(v for v, k in zip(f.values, keep) if k)
        if 0 in vals and 1 in vals:
            dom = tuple(x for x, k in zip(f.domain, keep) if k)
            return BooleanFunction(f.arity, dom, vals)


def test_validate_matches_full_mask_reference():
    rng = np.random.default_rng(11)
    bad = 0
    for case in range(60):
        f = random_function(rng, int(rng.integers(1, 6)), nonconstant=case % 7 != 0)
        if case % 2 and not f.is_constant:
            f = random_partial(rng, f)
        m = len(f.domain)
        a = rng.uniform(-0.3, 1.0, size=(m, m)) * (rng.random((m, m)) < 0.3)
        a = np.triu(a) + np.triu(a, 1).T
        if case % 5 == 0:
            a[:] = 0.0
        gamma = AdversaryMatrix(f, SymMatrix(f.domain, a))
        report = validate(gamma)
        want = full_mask_violations(gamma)
        assert report.violations == want, case
        assert report.ok == (not want)
        bad += not report.ok
    assert bad > 40


def test_validate_nonnegative_matches_full_mask_reference():
    # Without negative entries validate decides from block sums; subnormal
    # and huge entries must still be found.
    rng = np.random.default_rng(12)
    bad = 0
    for case in range(40):
        f = random_function(rng, int(rng.integers(1, 6)), nonconstant=case % 7 != 0)
        if case % 2 and not f.is_constant:
            f = random_partial(rng, f)
        m = len(f.domain)
        scale = (5e-324, 1e300, 1.0)[case % 3]
        a = scale * (rng.random((m, m)) < 0.1)
        a = np.triu(a) + np.triu(a, 1).T
        if case % 5 == 0:
            a[:] = 0.0
        gamma = AdversaryMatrix(f, SymMatrix(f.domain, a))
        report = validate(gamma)
        want = full_mask_violations(gamma)
        assert report.violations == want, case
        assert report.zero_matrix == (not np.any(a))
        bad += any("both outputs" in v for v in want)
    assert bad > 15


def test_require_valid_allow_zero():
    # The all-zero matrix is the value-0 certificate every evaluator takes;
    # validate() still reports it as a violation for a nonconstant function.
    require_valid(zero_gamma(AND2))  # no raise
    assert not validate(zero_gamma(AND2)).ok
    require_valid(gadget(AND2, 3.0, 4.0))
    with pytest.raises(ValueError, match="both outputs are 1"):
        require_valid(gadget(OR2, 3.0, 4.0))


# --------------------------------------------------------------------------
# primal value


def test_adv_value_gadget():
    g = gadget(AND2, 3.0, 4.0)
    assert adv_value(g, (1.0, 1.0)) == pytest.approx(1.25, abs=1e-12)
    assert adv_value(g, (3.0, 4.0)) == pytest.approx(5.0, abs=1e-12)


def test_adv_value_parity():
    e = np.zeros((4, 4))
    for r, c in [(0, 1), (0, 2), (3, 1), (3, 2)]:
        e[r, c] = e[c, r] = 1.0
    g = AdversaryMatrix(PARITY2, SymMatrix(PARITY2.domain, e))
    assert adv_value(g, (1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)


def test_adv_value_skips_masked_out_bits():
    # f ignores bit 2 and the weights never cross it, so only bit 1 counts
    f = BooleanFunction(2, ("00", "01", "10", "11"), (0, 0, 1, 1))
    e = np.zeros((4, 4))
    e[0, 2] = e[2, 0] = 1.0
    e[1, 3] = e[3, 1] = 1.0
    g = AdversaryMatrix(f, SymMatrix(f.domain, e))
    assert adv_value(g, (5.0, 7.0)) == pytest.approx(5.0, abs=1e-12)


def test_adv_value_zero_matrix_is_zero():
    assert adv_value(zero_gamma(AND2), (1.0, 1.0)) == 0.0


def test_adv_value_rejects_invalid_matrix():
    e = np.zeros((4, 4))
    e[0, 1] = e[1, 0] = 1.0  # same-output pair
    with pytest.raises(ValueError):
        adv_value(AdversaryMatrix(AND2, SymMatrix(AND2.domain, e)), (1.0, 1.0))


@pytest.mark.parametrize("scale", [1e-170, 1e170], ids=["tiny", "huge"])
def test_adv_value_is_scale_free(scale):
    # Gram matrices of these blocks underflow or overflow unless the block is
    # scaled first; the value came out as +inf.
    g = or_gadget(scale, scale)
    assert adv_value(g, (1.0, 1.0)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_adv_block_value_reports_the_largest_residual_of_its_norms():
    # The residual is the largest over ||G|| and every ||G o D_i||, also
    # when a masked norm's residual is larger than the whole norm's.
    f = make_family("parity", 3)
    zeros, ones = f.classes
    masks = f.bits[zeros].T[:, :, None] != f.bits[ones].T[:, None, :]
    rng = np.random.default_rng(5)
    masked_largest = 0
    for _ in range(40):
        block = rng.uniform(0.1, 1.0, (4, 4))
        residuals = block_norms(np.concatenate([block[None], block * masks]))[2]
        assert adv_block_value(f, block, CostVector.ones(3))[1] == residuals.max()
        masked_largest += int(residuals.argmax() > 0)
    assert masked_largest > 0


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
def test_crossing_norms_of_some_bits_are_those_of_all_bits(dense):
    # A dense block goes through block_norms and a sparse one through
    # edge_norm; either way asking for fewer bits leaves each norm as it is.
    f = make_family("parity", 3)
    block = np.random.default_rng(8).uniform(0.1, 1.0, (4, 4))
    if not dense:
        block[0, 1] = block[2, 3] = 0.0
    norms, residuals = adversary._crossing_norms(f, block, slice(None))
    assert len(norms) == len(residuals) == 4
    for bits in ([], [1], [2, 0]):
        some, some_residuals = adversary._crossing_norms(f, block, bits)
        picked = [0] + [i + 1 for i in bits]
        assert some == pytest.approx([norms[k] for k in picked], rel=1e-12, abs=0.0)
        assert len(some_residuals) == len(some)


def test_adv_value_rejects_a_zero_norm_of_a_nonzero_matrix(monkeypatch):
    # The uniform AND2 block has no zero entry and is solved whole, with its
    # masks, in one block_norms stack; the gadget's block has one and is
    # solved by edge_norm.
    def lost(*args):
        return SpectralResult(0.0, np.zeros(0), 0.0)

    def lost_stack(blocks):
        k, r, c = np.shape(blocks)
        return np.zeros(k), np.zeros((k, r + c)), np.zeros(k)

    for solver, gamma, patched in [
        ("block_norms", uniform_gamma(AND2), lost_stack),
        ("edge_norm", gadget(AND2, 1.0, 1.0), lost),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(adversary, solver, patched)
            with pytest.raises(EigensolverError, match="norm of a nonzero matrix evaluated to 0"):
                adv_value(gamma, (1.0, 1.0))


def dense_adv_value(gamma, alpha):
    """Reference: every norm from a dense eigensolve on the full matrix."""
    whole = spectral_norm(gamma.matrix).norm
    best = math.inf
    for i in range(1, gamma.function.arity + 1):
        masked = spectral_norm(hadamard(gamma.matrix, difference_mask(gamma.function.domain, i)))
        if masked.norm > 0.0:
            best = min(best, alpha[i - 1] * whole / masked.norm)
    return best


def uniform_gamma(f):
    vals = np.array(f.values)
    e = (vals[:, None] != vals[None, :]).astype(float)
    return AdversaryMatrix(f, SymMatrix(f.domain, e))


def sparse_random_case():
    rng = np.random.default_rng(11)
    f = random_function(rng, 5)
    e = random_gamma(f, rng).matrix.entries
    keep = np.triu(rng.random(e.shape) < 0.3)
    e = np.where(keep | keep.T, e, 0.0)
    return AdversaryMatrix(f, SymMatrix(f.domain, e)), random_costs(rng, 5)


def nonmonotone_composed_case():
    rng = np.random.default_rng(17)
    spec = CompositionSpec(PARITY2, (AND2, OR2))
    gammas = [random_gamma(f, rng) for f in (PARITY2, AND2, OR2)]
    return compose_gamma(gammas[0], gammas[1:], spec), random_costs(rng, 4)


def block_cases():
    rng = np.random.default_rng(7)
    and3, or3 = make_family("and", 3), make_family("or", 3)
    skip = BooleanFunction(2, ("00", "01", "10", "11"), (0, 0, 1, 1))
    e = np.zeros((4, 4))
    e[0, 2] = e[2, 0] = e[1, 3] = e[3, 1] = 1.0
    # OR of the first two bits; bit 3 is 0 on every row of both classes.
    dead = BooleanFunction(3, ("110", "000", "100", "010"), (1, 0, 1, 1))
    return {
        "tall_and3": (random_gamma(and3, rng), random_costs(rng, 3)),
        "wide_or3": (random_gamma(or3, rng), random_costs(rng, 3)),
        "masked_out_bit": (AdversaryMatrix(skip, SymMatrix(skip.domain, e)), (5.0, 7.0)),
        "parity3_degenerate": (uniform_gamma(make_family("parity", 3)), (1.0, 1.0, 1.0)),
        "sparse_random5": sparse_random_case(),
        "nonmonotone_composed": nonmonotone_composed_case(),
        "and3_uniform": (uniform_gamma(and3), (1.0, 2.0, 3.0)),
        "partial_constant_bit": (random_gamma(dead, rng), random_costs(rng, 3)),
    }


BLOCK_CASES = block_cases()


def bit_sub_blocks(gamma, i):
    """The (x_i=0, y_i=1) and (x_i=1, y_i=0) sub-blocks of the f^-1(0) x f^-1(1) block."""
    f = gamma.function
    vals = np.array(f.values)
    zeros, ones = np.flatnonzero(vals == 0), np.flatnonzero(vals == 1)
    r = np.array([f.domain[j][i] == "1" for j in zeros], dtype=bool)
    c = np.array([f.domain[j][i] == "1" for j in ones], dtype=bool)
    block = gamma.matrix.entries[np.ix_(zeros, ones)]
    return block[np.ix_(~r, c)], block[np.ix_(r, ~c)]


def test_block_cases_cover_the_sub_block_shapes():
    gamma = BLOCK_CASES["nonmonotone_composed"][0]
    assert any(
        all(np.any(s) for s in bit_sub_blocks(gamma, i)) for i in range(gamma.function.arity)
    )
    gamma = BLOCK_CASES["and3_uniform"][0]
    assert gamma.function.classes[1].tolist() == [gamma.function.domain.index("111")]
    for i in range(3):
        low, high = bit_sub_blocks(gamma, i)
        assert high.size == 0 and np.any(low)
    gamma = BLOCK_CASES["partial_constant_bit"][0]
    assert all(s.size == 0 for s in bit_sub_blocks(gamma, 2))
    masked = spectral_norm(hadamard(gamma.matrix, difference_mask(gamma.function.domain, 3)))
    assert masked.norm == 0.0


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_adv_value_matches_dense_reference(name):
    gamma, alpha = BLOCK_CASES[name]
    got, want = adv_value(gamma, alpha), dense_adv_value(gamma, alpha)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)


def compose_tree(ast, costs):
    """Gadget certificates composed up an AND/OR tree of leaves."""
    if isinstance(ast, Leaf):
        gamma = AdversaryMatrix(ID1, SymMatrix(ID1.domain, np.array([[0.0, 1.0], [1.0, 0.0]])))
        return gamma, costs[ast.index - 1]
    left, lv = compose_tree(ast.left, costs)
    right, rv = compose_tree(ast.right, costs)
    value, gamma_f, _ = gadget_cost_adv("and" if isinstance(ast, And) else "or", (lv, rv))
    spec = CompositionSpec(gamma_f.function, (left.function, right.function))
    return compose_gamma(gamma_f, [left, right], spec), value


def test_adv_value_composed_read_once_arity8():
    ast = parse_formula("((x1&x2)|(x3&(x4|x5)))&((x6|x7)&x8)")
    costs = (0.7, 1.3, 2.0, 0.5, 1.1, 1.9, 0.8, 1.4)
    gamma, value = compose_tree(ast, costs)
    want, _ = readonce_bound(ast, costs)
    assert gamma.function.values == formula_to_function(ast, 8).values
    assert value == pytest.approx(want, rel=1e-12)
    assert adv_value(gamma, costs) == pytest.approx(want, rel=1e-9)


def balanced(n):
    return (n + 1) // 2


def alternating_tree(n, gate_and, first=1, splits=balanced):
    """Tree on x_first..x_{first+n-1}, its gates alternating AND/OR by level;
    ``splits`` sizes the left child (balanced by default)."""
    if n == 1:
        return Leaf(first)
    left = splits(n)
    op = And if gate_and else Or
    return op(
        alternating_tree(left, not gate_and, first, splits),
        alternating_tree(n - left, not gate_and, first + left, splits),
    )


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_adv_value_of_composed_trees_matches_dense_reference(n):
    rng = np.random.default_rng(90 + n)
    costs = tuple(rng.uniform(0.5, 2.0, n).tolist())
    gamma, _ = compose_tree(alternating_tree(n, n % 2 == 0), costs)
    zeros, ones = gamma.function.classes
    assert not gamma.matrix.entries[np.ix_(zeros, ones)].all()  # solved from its entries
    assert adv_value(gamma, costs) == pytest.approx(dense_adv_value(gamma, costs), rel=1e-12)


# --------------------------------------------------------------------------
# dual value


def pairwise_mm_value(witness, alpha):
    """Reference: the per-pair loop over f^-1(0) x f^-1(1), in chunks."""
    f = witness.function
    vals = np.array(f.values)
    xs, ys = np.where(vals[:, None] < vals[None, :])
    if xs.size == 0:
        return 0.0
    rows = witness.matrix_rows()
    bits = np.array([[c == "1" for c in x] for x in f.domain])
    a = np.array(alpha, dtype=float)
    best = 0.0
    for lo in range(0, xs.size, 65536):
        sl = slice(lo, lo + 65536)
        diff = bits[xs[sl]] != bits[ys[sl]]
        s = (np.sqrt(rows[xs[sl]] * rows[ys[sl]]) / a * diff).sum(axis=1)
        with np.errstate(divide="ignore"):
            pair = np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), math.inf)
        best = max(best, float(pair.max()))
    return best


def sparse_witness(f, rng, one_hot):
    """Rows with exact zeros: one bit each, or random bits zeroed."""
    rows = {}
    for x in f.domain:
        if one_hot:
            p = np.zeros(f.arity)
            p[rng.integers(f.arity)] = 1.0
        else:
            p = rng.uniform(0.05, 1.0, size=f.arity) * (rng.random(f.arity) < 0.5)
            if not p.any():
                p[rng.integers(f.arity)] = 1.0
            p /= p.sum()
        rows[x] = tuple(float(q) for q in p)
    return MinimaxWitness(f, rows)


def test_mm_value_matches_pairwise_reference():
    rng = np.random.default_rng(5)
    infinite = 0
    for n in range(1, 7):
        for _ in range(4):
            total = random_function(rng, n)
            costs = random_costs(rng, n)
            for f in (total, random_partial(rng, total)):
                witnesses = [random_witness(f, rng)]
                witnesses += [sparse_witness(f, rng, one_hot) for one_hot in (False, True)]
                for w in witnesses:
                    want = pairwise_mm_value(w, costs)
                    got = mm_value(w, costs)
                    if math.isinf(want):
                        infinite += 1
                        assert got == math.inf
                    else:
                        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert infinite > 10
    const = BooleanFunction(3, ("000", "011", "101"), (0, 0, 0))
    assert pairwise_mm_value(random_witness(const, rng), (1.0,) * 3) == 0.0
    assert mm_value(random_witness(const, rng), (1.0,) * 3) == 0.0


@pytest.mark.parametrize("rows", [1, 511, 512, 513, 1537])
@pytest.mark.parametrize("where", ["first", "last"])
def test_least_product_is_the_least_entry_of_the_whole_product(rows, where):
    # Small integers and 1/64 multiply and add exactly in any order, so the
    # blocks must give the whole product's minimum bit for bit.
    rng = np.random.default_rng(rows)
    right = rng.integers(1, 9, (adversary.MM_BLOCK // 512, 6)).astype(float)  # blocks of 512 rows
    left = rng.integers(1, 9, (rows, 6)).astype(float)
    left[0 if where == "first" else -1] = 1 / 64
    want = float((left @ right.T).min())
    assert want < 1
    assert adversary._least_product(left, right) == want


def test_mm_value_is_the_same_in_blocks_of_any_size(monkeypatch):
    # Rows sqrt(p) = k/8 keep every overlap sum exact.
    rng = np.random.default_rng(8)
    f = random_function(rng, 7)
    p = (rng.integers(0, 9, (len(f.domain), f.arity)) / 8) ** 2
    alpha = CostVector.ones(f.arity)
    zeros, ones = f.classes
    assert zeros.size * ones.size <= adversary.MM_BLOCK  # one block by default
    want = adversary.mm_rows_value(f, p, alpha)
    for step in (1, 5, zeros.size - 1, zeros.size, zeros.size + 1):
        monkeypatch.setattr(adversary, "MM_BLOCK", step * ones.size)
        assert adversary.mm_rows_value(f, p, alpha) == want


least_product = adversary._least_product


def whole_product_value(f, p, alpha):
    """``mm_rows_value`` from all 2n columns of its product."""
    zeros, ones = f.classes
    q = np.sqrt(p)
    qz, b0 = q[zeros] / alpha.as_array(), f.bits[zeros]
    qo, b1 = q[ones], f.bits[ones]
    least = least_product(np.hstack([qz * b0, qz * ~b0]), np.hstack([qo * ~b1, qo * b1]))
    return math.inf if least == 0.0 else 1.0 / least


@pytest.fixture
def product_widths(monkeypatch):
    """The column counts of every product ``mm_rows_value`` forms."""
    widths = []

    def spy(left, right):
        widths.append(left.shape[1])
        return least_product(left, right)

    monkeypatch.setattr(adversary, "_least_product", spy)
    return widths


def witness_tree(ast, costs):
    """Gadget witnesses composed up an AND/OR tree of leaves."""
    if isinstance(ast, Leaf):
        return MinimaxWitness(ID1, np.ones((2, 1))), costs[ast.index - 1]
    left, lv = witness_tree(ast.left, costs)
    right, rv = witness_tree(ast.right, costs)
    value, _, p_f = gadget_cost_adv("and" if isinstance(ast, And) else "or", (lv, rv))
    spec = CompositionSpec(p_f.function, (left.function, right.function))
    return compose_minimax(p_f, [left, right], spec), value


#: Arity-12 tree shapes that split 6|6 at the root and differ below it.
TREE12_SHAPES = {
    "balanced": balanced,
    "twofour": lambda n: 6 if n == 12 else min(2, n - 1),
    "comb": lambda n: 6 if n == 12 else 1,
}


@pytest.mark.parametrize("shape", sorted(TREE12_SHAPES))
def test_mm_value_of_a_tree12_witness_drops_its_dead_columns_bit_for_bit(product_widths, shape):
    rng = np.random.default_rng(sorted(TREE12_SHAPES).index(shape))
    gate_and, costs = bool(rng.integers(0, 2)), tuple(rng.uniform(0.5, 2.0, 12).tolist())
    ast = alternating_tree(12, gate_and, splits=TREE12_SHAPES[shape])
    witness, value = witness_tree(ast, costs)
    alpha = CostVector(costs)
    got = adversary.mm_rows_value(witness.function, witness.p, alpha)
    assert got == whole_product_value(witness.function, witness.p, alpha)
    assert got == pytest.approx(value, rel=1e-9)
    assert product_widths == [12]  # of 24


def test_mm_value_of_columns_zeroed_on_one_class_is_bit_for_bit(product_widths):
    rng = np.random.default_rng(23)
    for case in range(30):
        f = random_function(rng, int(rng.integers(3, 8)))
        p = rng.uniform(0.05, 1.0, (len(f.domain), f.arity))
        dead = rng.permutation(f.arity)[: int(rng.integers(1, f.arity))]
        p[np.ix_(f.classes[case % 2], dead)] = 0.0  # zero on one class only
        p /= p.sum(axis=1, keepdims=True)
        alpha = CostVector(tuple(random_costs(rng, f.arity)))
        product_widths.clear()
        got = adversary.mm_rows_value(f, p, alpha)
        assert got == whole_product_value(f, p, alpha)
        assert product_widths[0] <= 2 * (f.arity - dead.size)


def test_a_witness_with_every_column_live_takes_the_whole_product(product_widths):
    rng = np.random.default_rng(4)
    f = random_function(rng, 5)
    alpha = CostVector.ones(5)
    p = rng.uniform(0.05, 1.0, (len(f.domain), 5))
    p[0, 0] = 0.0  # a zero probability that kills no column
    p /= p.sum(axis=1, keepdims=True)
    for witness in (p, np.full_like(p, 0.2)):
        assert adversary.mm_rows_value(f, witness, alpha) == whole_product_value(f, witness, alpha)
    assert product_widths == [10, 10]


def test_a_witness_without_a_live_column_is_infinite(product_widths):
    # f = x1: the 0-rows weigh only bit 2 and the 1-rows only bit 1, so no
    # column has mass on both classes.
    f = BooleanFunction(2, ("00", "01", "10", "11"), (0, 0, 1, 1))
    p = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    assert adversary.mm_rows_value(f, p, CostVector.ones(2)) == math.inf
    assert product_widths == [0]


def test_mm_value_or_witness():
    assert mm_value(or_witness(), (1.0, 1.0)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_mm_value_uniform_and():
    assert mm_value(uniform_witness(AND2), (1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)


def test_mm_value_disjoint_supports_is_infinite():
    w = MinimaxWitness(
        PARITY2, {"00": (1.0, 0.0), "01": (1.0, 0.0), "10": (0.0, 1.0), "11": (0.0, 1.0)}
    )
    # the (00, 01) pair differs only at bit 2, where 00 carries no mass
    assert mm_value(w, (1.0, 1.0)) == math.inf


def test_mm_value_constant_function_is_zero():
    f = BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1))
    assert mm_value(uniform_witness(f), (1.0, 1.0)) == 0.0


def test_witness_validation():
    with pytest.raises(ValueError):
        MinimaxWitness(AND2, {"00": (0.5, 0.5)})  # missing rows
    with pytest.raises(ValueError):
        MinimaxWitness(ID1, {"0": (1.0, 0.0), "1": (1.0,)})  # bad length
    with pytest.raises(ValueError):
        MinimaxWitness(ID1, {"0": (2.0, -1.0), "1": (1.0, 0.0)})
    with pytest.raises(ValueError):
        MinimaxWitness(ID1, {"0": (0.6,), "1": (1.0,)})  # sums to 0.6


# Witness rows the row checks reject, each bad row placed after good ones.
WITNESS_FAILURES = {
    "bad_length": (ID1, {"0": (1.0, 0.0), "1": (1.0,)}),
    "bad_length_and_negative": (ID1, {"0": (2.0, -1.0), "1": (1.0, 0.0)}),
    "ragged": (AND2, {"00": (0.5, 0.5), "01": (1.0,), "10": (0.5, 0.5), "11": (0.5, 0.5)}),
    "negative": (AND2, {"00": (0.5, 0.5), "01": (1.5, -0.5), "10": (0.5, 0.5), "11": (0.5, 0.5)}),
    "sums_short": (ID1, {"1": (1.0,), "0": (0.6,)}),
    "sums_to_inf": (ID1, {"0": (1.0,), "1": (math.inf,)}),
    "negative_inf": (
        AND2,
        {"00": (0.5, 0.5), "01": (-math.inf, math.inf), "10": (0.5, 0.5), "11": (0.5, 0.5)},
    ),
    "first_of_several": (
        AND2,
        {"00": (0.5, 0.5), "01": (0.3, 0.3), "10": (0.5, -0.5), "11": (0.5, 0.5, 0.0)},
    ),
}


@pytest.mark.parametrize("name", sorted(WITNESS_FAILURES))
def test_witness_array_check_names_the_first_bad_row(name):
    f, rows = WITNESS_FAILURES[name]
    with pytest.raises(ValueError) as want:
        loop_check_witness(f, rows)
    with pytest.raises(ValueError) as got:
        MinimaxWitness(f, rows)
    assert str(got.value) == str(want.value)


def test_witness_string_entries_fail_as_in_the_loop():
    rows = {"0": ("1.0",), "1": (1.0,)}
    with pytest.raises(TypeError) as want:
        loop_check_witness(ID1, rows)
    with pytest.raises(TypeError) as got:
        MinimaxWitness(ID1, rows)
    assert str(got.value) == str(want.value)


def test_witness_rejects_nan_rows():
    # NaN compares False with everything, so neither the sign nor the sum
    # check catches it; the finiteness check does.
    with pytest.raises(ValueError, match="row '11' has a non-finite probability"):
        MinimaxWitness(
            AND2, {"00": (0.5, 0.5), "01": (1.0, 0.0), "10": (0.0, 1.0), "11": (math.nan, 1.0)}
        )


def test_witness_rows_are_cached_read_only_in_domain_order():
    rows = {"11": (0.5, 0.5), "10": (0.0, 1.0), "01": (1.0, 0.0), "00": (0.25, 0.75)}
    w = MinimaxWitness(AND2, rows)
    got = w.matrix_rows()
    assert got is w.matrix_rows()
    assert not got.flags.writeable
    assert same_bits(got, np.array([rows[x] for x in AND2.domain], dtype=float))
    in_order = MinimaxWitness(AND2, {x: rows[x] for x in AND2.domain}).matrix_rows()
    assert not in_order.flags.writeable and same_bits(in_order, got)


@pytest.mark.parametrize("shape", [(3, 2), (4, 1), (4,)], ids=["rows", "arity", "flat"])
def test_witness_array_of_the_wrong_shape_is_rejected(shape):
    with pytest.raises(ValueError, match=r"^witness array has shape .*, expected \(4, 2\)$"):
        MinimaxWitness(AND2, np.full(shape, 0.5))


#: The cases of ``WITNESS_FAILURES`` whose rows all have the function's arity.
RECTANGULAR_FAILURES = sorted(
    name
    for name, (f, rows) in WITNESS_FAILURES.items()
    if all(len(row) == f.arity for row in rows.values())
)


@pytest.mark.parametrize("name", RECTANGULAR_FAILURES)
def test_witness_array_check_names_the_first_bad_row_in_domain_order(name):
    f, rows = WITNESS_FAILURES[name]
    in_order = {x: rows[x] for x in f.domain}
    with pytest.raises(ValueError) as want:
        loop_check_witness(f, in_order)
    with pytest.raises(ValueError) as got:
        MinimaxWitness(f, np.array(list(in_order.values())))
    assert str(got.value) == str(want.value)


def test_witness_names_the_first_bad_row_in_its_own_order():
    # A mapping is walked in its own order, an array in domain order.
    rows = {"10": (0.5, -0.5), "00": (0.5, 0.5), "01": (0.3, 0.3), "11": (0.5, 0.5)}
    with pytest.raises(ValueError, match="^row '10' has a negative probability$"):
        MinimaxWitness(AND2, rows)
    with pytest.raises(ValueError, match="^row '01' sums to 0.6, not 1$"):
        MinimaxWitness(AND2, np.array([rows[x] for x in AND2.domain]))


def test_witness_array_is_stored_as_a_read_only_copy():
    given = np.array([[0.25, 0.75], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    kept = given.copy()
    w = MinimaxWitness(AND2, given)
    assert not w.p.flags.writeable and not np.shares_memory(w.p, given)
    assert given.flags.writeable and same_bits(w.p, given)
    given[0] = (0.5, 0.5)
    assert same_bits(w.p, kept)
    assert w.matrix_rows() is w.p
    assert same_bits(MinimaxWitness(ID1, np.ones((2, 1), dtype=int)).p, np.ones((2, 1)))


def test_witness_rows_that_are_not_floats_are_rejected():
    # The row checks accept a Fraction; the array check does not.
    with pytest.raises(ValueError, match="^witness probabilities must be real numbers$"):
        MinimaxWitness(ID1, {"0": (Fraction(1),), "1": (1.0,)})


@pytest.mark.parametrize(
    "f", [ID1, AND2, make_family("parity", 5), BooleanFunction(3, ("010", "111"), (0, 1))]
)
def test_uniform_witness_matches_the_label_dict_route(f):
    row = tuple(1.0 / f.arity for _ in range(f.arity))
    want = MinimaxWitness(f, {x: row for x in f.domain})
    assert same_bits(uniform_witness(f).p, want.p)


# --------------------------------------------------------------------------
# composition of matrices


def composed_entry_oracle(gamma_f, gammas_g, spec, x, y):
    """Two-case form: inner entry on crossing blocks, norm * identity otherwise."""
    bx, tx = split_input(x, spec)
    by, ty = split_input(y, spec)
    out = gamma_f.matrix.entries[spec.outer.domain.index(tx), spec.outer.domain.index(ty)]
    for g, gam, xb, yb in zip(spec.inner, gammas_g, bx, by):
        if g(xb) != g(yb):
            out *= gam.matrix.entries[g.domain.index(xb), g.domain.index(yb)]
        elif xb == yb:
            out *= spectral_norm(gam.matrix).norm
        else:
            out *= 0.0
    return out


def or_gadget(b1, b2):
    """Complemented hub for OR: (00,10)=b1, (00,01)=b2."""
    e = np.zeros((4, 4))
    e[0, 2] = e[2, 0] = b1
    e[0, 1] = e[1, 0] = b2
    return AdversaryMatrix(OR2, SymMatrix(OR2.domain, e))


def test_compose_gamma_matches_two_case_oracle():
    spec = CompositionSpec(AND2, (OR2, AND2))
    gamma_f = gadget(AND2, 1.0, 1.0)
    g1 = or_gadget(2.0, 0.5)
    g2 = gadget(AND2, 3.0, 4.0)
    require_valid(g1)
    composed = compose_gamma(gamma_f, [g1, g2], spec)
    h = composed.function
    for r, x in enumerate(h.domain):
        for c, y in enumerate(h.domain):
            want = composed_entry_oracle(gamma_f, [g1, g2], spec, x, y)
            assert composed.matrix.entries[r, c] == pytest.approx(want, abs=1e-12)
    assert validate(composed).ok


def test_compose_gamma_product_norm_frozen():
    spec = CompositionSpec(AND2, (AND2, AND2))
    unit = gadget(AND2, 1.0, 1.0)
    composed = compose_gamma(unit, [unit, unit], spec)
    assert spectral_norm(composed.matrix).norm == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-10)


def test_compose_gamma_identity_outer_wrapper():
    e = np.array([[0.0, 1.0], [1.0, 0.0]])
    gid = AdversaryMatrix(ID1, SymMatrix(ID1.domain, e))
    inner = gadget(AND2, 3.0, 4.0)
    composed = compose_gamma(gid, [inner], CompositionSpec(ID1, (AND2,)))
    assert composed.function == AND2
    assert np.array_equal(composed.matrix.entries, inner.matrix.entries)


def test_compose_gamma_argument_checks():
    spec = CompositionSpec(AND2, (OR2, AND2))
    unit = gadget(AND2, 1.0, 1.0)
    g1 = AdversaryMatrix(OR2, unit.matrix)
    with pytest.raises(ValueError, match="^gamma_f is not over the outer function$"):
        compose_gamma(AdversaryMatrix(OR2, unit.matrix), [g1, unit], spec)
    with pytest.raises(ValueError, match="^expected 2 inner matrices$"):
        compose_gamma(unit, [g1], spec)
    with pytest.raises(ValueError, match="^inner matrix order must match the composition blocks$"):
        compose_gamma(unit, [unit, g1], spec)  # blocks swapped


def test_compose_gamma_product_norm_random():
    for seed in range(30):
        spec, gamma_f, gammas_g = random_composition_case(seed)
        composed = compose_gamma(gamma_f, gammas_g, spec)
        want = spectral_norm(gamma_f.matrix).norm
        for gam in gammas_g:
            want *= spectral_norm(gam.matrix).norm
        got = spectral_norm(composed.matrix).norm
        assert got == pytest.approx(want, rel=1e-8)
        assert validate(composed).ok


# --------------------------------------------------------------------------
# composition of eigenvectors


def test_compose_eigenvector_frozen_case():
    spec = CompositionSpec(AND2, (AND2, AND2))
    unit = gadget(AND2, 1.0, 1.0)
    res = principal_eigenvector(unit.matrix)
    parts = EigvecParts.from_vector(AND2, res.vector)
    vec = compose_eigenvector(res, [parts, parts], spec)
    composed = compose_gamma(unit, [unit, unit], spec)
    lam = spectral_norm(composed.matrix).norm
    residual = np.linalg.norm(composed.matrix.entries @ vec - lam * vec)
    assert residual <= 1e-10
    # squared norm halves once per inner block
    assert float(vec @ vec) == pytest.approx(0.25, abs=1e-10)


def test_compose_eigenvector_random_cases():
    for seed in range(20):
        spec, gamma_f, gammas_g = random_composition_case(seed)
        res_f = principal_eigenvector(gamma_f.matrix)
        parts = [
            EigvecParts.from_vector(g.function, principal_eigenvector(g.matrix).vector)
            for g in gammas_g
        ]
        vec = compose_eigenvector(res_f, parts, spec)
        composed = compose_gamma(gamma_f, gammas_g, spec)
        lam = spectral_norm(composed.matrix).norm
        assert np.linalg.norm(composed.matrix.entries @ vec - lam * vec) <= 1e-8 * max(1.0, lam)
        assert float(vec @ vec) == pytest.approx(0.5 ** len(spec.inner), rel=1e-8)


def test_compose_eigenvector_rejects_unbalanced_parts():
    spec = CompositionSpec(ID1, (AND2,))
    gid = AdversaryMatrix(ID1, SymMatrix(ID1.domain, np.array([[0.0, 1.0], [1.0, 0.0]])))
    res = principal_eigenvector(gid.matrix)
    lopsided = EigvecParts.from_vector(AND2, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        compose_eigenvector(res, [lopsided], spec)


def test_compose_eigenvector_argument_checks():
    spec = CompositionSpec(ID1, (AND2,))
    gid = AdversaryMatrix(ID1, SymMatrix(ID1.domain, np.array([[0.0, 1.0], [1.0, 0.0]])))
    res = principal_eigenvector(gid.matrix)
    balanced = EigvecParts.from_vector(OR2, np.array([math.sqrt(0.5), 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="^expected 1 inner eigenvectors$"):
        compose_eigenvector(res, [], spec)
    with pytest.raises(ValueError, match="^inner eigenvector order must match the composition blocks$"):
        compose_eigenvector(res, [balanced], spec)


def test_eigvec_parts_from_vector():
    v = np.array([0.0, 0.5, 0.5, math.sqrt(0.5)])
    parts = EigvecParts.from_vector(AND2, v)
    assert [f.name for f in dataclasses.fields(parts)] == ["function", "vector"]
    assert parts.function == AND2
    assert same_bits(parts.vector, v)
    assert parts.vector[AND2.classes[1]].tolist() == [pytest.approx(math.sqrt(0.5))]
    with pytest.raises(ValueError):
        EigvecParts.from_vector(AND2, np.zeros(3))


# --------------------------------------------------------------------------
# masked factorization


def test_masked_compose_check_frozen_case():
    spec = CompositionSpec(AND2, (AND2, AND2))
    unit = gadget(AND2, 1.0, 1.0)
    for ell in range(1, 5):
        report = masked_compose_check(unit, [unit, unit], spec, ell)
        assert report.entrywise_ok and report.norm_ok and report.ratio_ok, (ell, report)
        assert report.block == (1 if ell <= 2 else 2)
        assert report.inner_pos == (ell - 1) % 2 + 1
        # whole/masked ratio is sqrt(2) outer times sqrt(2) inner
        assert report.ratio_lhs == pytest.approx(2.0, rel=1e-10)
        assert report.ratio_rhs == pytest.approx(2.0, rel=1e-10)


def test_masked_compose_check_random_cases():
    for seed in range(20):
        spec, gamma_f, gammas_g = random_composition_case(seed)
        total = sum(g.arity for g in spec.inner)
        for ell in range(1, total + 1):
            report = masked_compose_check(gamma_f, gammas_g, spec, ell)
            assert report.entrywise_ok and report.norm_ok and report.ratio_ok, (seed, ell)


def dense_masked_norms(gamma_f, gammas_g, spec, ell):
    """Reference: (norm_lhs, norm_rhs, ratio_lhs, ratio_rhs) of the masked
    factorization, every norm from a dense eigensolve on a matrix masked by
    its labels."""

    def norm(m):
        return spectral_norm(m).norm

    def ratio(num, den):
        return math.inf if den == 0.0 else num / den

    p, q = spec.block_of(ell)
    gamma_h = compose_gamma(gamma_f, gammas_g, spec).matrix
    inner = gammas_g[p - 1].matrix
    masked_h = norm(hadamard(gamma_h, difference_mask(gamma_h.labels, ell)))
    masked_f = norm(hadamard(gamma_f.matrix, difference_mask(gamma_f.matrix.labels, p)))
    masked_p = norm(hadamard(inner, difference_mask(inner.labels, q)))
    norm_rhs = masked_f * masked_p
    for i, gam in enumerate(gammas_g):
        if i != p - 1:
            norm_rhs *= norm(gam.matrix)
    ratio_rhs = ratio(norm(gamma_f.matrix), masked_f) * ratio(norm(inner), masked_p)
    return masked_h, norm_rhs, ratio(norm(gamma_h), masked_h), ratio_rhs


def test_masked_compose_check_norms_match_dense_reference():
    for seed in range(20):
        spec, gamma_f, gammas_g = random_composition_case(seed)
        for ell in range(1, spec.total_arity + 1):
            report = masked_compose_check(gamma_f, gammas_g, spec, ell)
            got = (report.norm_lhs, report.norm_rhs, report.ratio_lhs, report.ratio_rhs)
            want = dense_masked_norms(gamma_f, gammas_g, spec, ell)
            assert got == pytest.approx(want, rel=1e-12), (seed, ell)


def test_masked_compose_check_infinite_ratio():
    # inner block leaves bit 2 unweighted, so masking there zeroes both sides
    spec = CompositionSpec(ID1, (AND2,))
    gid = AdversaryMatrix(ID1, SymMatrix(ID1.domain, np.array([[0.0, 1.0], [1.0, 0.0]])))
    inner = gadget(AND2, 1.0, 0.0)
    report = masked_compose_check(gid, [inner], spec, 2)
    assert report.norm_lhs == 0.0 and report.norm_rhs == 0.0
    assert report.ratio_lhs == math.inf and report.ratio_rhs == math.inf
    assert report.entrywise_ok and report.norm_ok and report.ratio_ok


def test_masked_compose_check_empty_domain():
    # the outer {1 -> 1} over a constant-0 bit: the composed domain is empty
    outer = BooleanFunction(1, ("1",), (1,))
    inner = BooleanFunction(1, ("0", "1"), (0, 0))
    spec = CompositionSpec(outer, (inner,))
    report = masked_compose_check(zero_gamma(outer), [zero_gamma(inner)], spec, 1)
    assert report.norm_lhs == 0.0 and report.norm_rhs == 0.0
    assert report.ratio_lhs == math.inf and report.ratio_rhs == math.inf
    assert report.entrywise_ok and report.norm_ok and report.ratio_ok


def test_masked_compose_check_position_out_of_range():
    spec = CompositionSpec(AND2, (AND2, AND2))
    unit = gadget(AND2, 1.0, 1.0)
    with pytest.raises(ValueError):
        masked_compose_check(unit, [unit, unit], spec, 5)


# --------------------------------------------------------------------------
# composition of witnesses


def test_compose_minimax_identity_inner_is_identity():
    wid = MinimaxWitness(ID1, {"0": (1.0,), "1": (1.0,)})
    spec = CompositionSpec(OR2, (ID1, ID1))
    composed = compose_minimax(or_witness(), [wid, wid], spec)
    assert composed.function == OR2
    assert same_bits(composed.p, or_witness().p)


def test_compose_minimax_and_of_ors():
    spec = CompositionSpec(AND2, (OR2, OR2))
    composed = compose_minimax(and_witness(), [or_witness(), or_witness()], spec)
    assert mm_value(composed, (1.0,) * 4) == pytest.approx(2.0, abs=1e-12)


def test_compose_minimax_rows_always_sum_to_one():
    for seed in range(15):
        spec, _, _ = random_composition_case(seed)
        rng = np.random.default_rng(1000 + seed)
        w_f = random_witness(spec.outer, rng)
        ws_g = [random_witness(g, rng) for g in spec.inner]
        composed = compose_minimax(w_f, ws_g, spec)  # constructor checks sums
        assert composed.function == compose_functions(spec)


def test_compose_minimax_argument_checks():
    spec = CompositionSpec(AND2, (OR2, OR2))
    with pytest.raises(ValueError, match="^p_f is not over the outer function$"):
        compose_minimax(or_witness(), [or_witness(), or_witness()], spec)
    with pytest.raises(ValueError, match="^expected 2 inner witnesses$"):
        compose_minimax(and_witness(), [or_witness()], spec)
    with pytest.raises(ValueError, match="^inner witness order must match the composition blocks$"):
        compose_minimax(and_witness(), [and_witness(), or_witness()], spec)


# --------------------------------------------------------------------------
# composition builders against the per-row loop

COMPOSITION_CASES = composition_cases()


def loop_compose_gamma(gamma_f, gammas_g, spec):
    h, outer_row, inner_row, _ = loop_composition(spec)
    out = gamma_f.matrix.entries[np.ix_(outer_row, outer_row)]
    for gam, idx in zip(gammas_g, inner_row):
        factor = gam.matrix.entries + spectral_norm(gam.matrix).norm * np.eye(gam.matrix.dim)
        out = out * factor[np.ix_(idx, idx)]
    return h, out


def loop_compose_eigenvector(delta_f, deltas_g, spec):
    """The paper's form: each inner factor is read from the half of the inner
    eigenvector on the output class of the block, each half zero outside its
    class."""
    _, outer_row, inner_row, inner_value = loop_composition(spec)
    out = delta_f.vector[outer_row].copy()
    for i, parts in enumerate(deltas_g):
        halves = [np.zeros_like(parts.vector) for _ in (0, 1)]
        for half, idx in zip(halves, parts.function.classes):
            half[idx] = parts.vector[idx]
        out *= np.where(inner_value[i] == 0, halves[0][inner_row[i]], halves[1][inner_row[i]])
    return out


def loop_compose_minimax(p_f, ps_g, spec):
    h = loop_composition(spec)[0]
    rows_f, rows_g = witness_rows(p_f), [witness_rows(w) for w in ps_g]
    rows = {}
    for x in h.domain:
        blocks, tilde = split_input(x, spec)
        row = []
        for weight, w, b in zip(rows_f[tilde], rows_g, blocks):
            row.extend(weight * q for q in w[b])
        rows[x] = tuple(row)
    return h, rows


def dict_compose_minimax(p_f, ps_g, spec):
    """The composed witness built as ``compose_minimax`` once built it, through
    a mapping from labels to tuples."""
    rows = spec.composed
    weights = p_f.p[rows.outer_row]
    p = np.hstack(
        [weights[:, i, None] * w.p[idx] for i, (w, idx) in enumerate(zip(ps_g, rows.inner_row))]
    )
    h = rows.function
    return MinimaxWitness(h, dict(zip(h.domain, map(tuple, p.tolist()))))


@pytest.mark.parametrize("name", sorted(COMPOSITION_CASES))
def test_compose_minimax_matches_the_label_dict_route(name):
    spec = COMPOSITION_CASES[name]
    rng = np.random.default_rng(100 + sorted(COMPOSITION_CASES).index(name))
    p_f = random_witness(spec.outer, rng)
    ps_g = [random_witness(g, rng) for g in spec.inner]
    got = compose_minimax(p_f, ps_g, spec)
    assert same_bits(got.p, dict_compose_minimax(p_f, ps_g, spec).p)


def balanced_parts(f, rng):
    """Random eigenvector parts with squared mass 1/2 on each output class."""
    vals = np.array(f.values)
    v = rng.uniform(0.1, 1.0, len(f.domain))
    for b in (0, 1):
        v[vals == b] *= math.sqrt(0.5) / np.linalg.norm(v[vals == b])
    return EigvecParts.from_vector(f, v)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(COMPOSITION_CASES))
def test_compose_builders_match_row_loop(name):
    spec = COMPOSITION_CASES[name]
    rng = np.random.default_rng(sorted(COMPOSITION_CASES).index(name))
    gamma_f = random_gamma(spec.outer, rng)
    gammas_g = [random_gamma(g, rng) for g in spec.inner]
    got = compose_gamma(gamma_f, gammas_g, spec)
    h, want = loop_compose_gamma(gamma_f, gammas_g, spec)
    assert got.function == h
    assert same_bits(got.matrix.entries, want)

    p_f = random_witness(spec.outer, rng)
    ps_g = [random_witness(g, rng) for g in spec.inner]
    got = compose_minimax(p_f, ps_g, spec)
    h, want = loop_compose_minimax(p_f, ps_g, spec)
    assert got.function == h
    assert list(want) == list(h.domain)
    assert same_bits(got.p, np.array(list(want.values()), dtype=float).reshape(-1, h.arity))

    if any(g.is_constant for g in spec.inner):
        return  # a constant inner function has no balanced eigenvector
    delta_f = SpectralResult(1.0, rng.uniform(-1.0, 1.0, len(spec.outer.domain)), 0.0)
    deltas_g = [balanced_parts(g, rng) for g in spec.inner]
    got = compose_eigenvector(delta_f, deltas_g, spec)
    assert same_bits(got, loop_compose_eigenvector(delta_f, deltas_g, spec))
    assert got is not delta_f.vector and got.flags.writeable


@pytest.mark.parametrize("name", sorted(COMPOSITION_CASES))
def test_bit_mask_matches_label_mask(name):
    spec = COMPOSITION_CASES[name]
    rng = np.random.default_rng(3)
    for f in (spec.composed.function, spec.outer, *spec.inner):
        a = rng.uniform(0.5, 1.0, (len(f.domain), len(f.domain)))
        gamma = AdversaryMatrix(f, SymMatrix(f.domain, a + a.T))
        for i in range(1, f.arity + 1):
            got = adversary._masked(gamma, i)
            want = hadamard(gamma.matrix, difference_mask(f.domain, i))
            assert got.function == f
            assert same_bits(got.matrix.entries, want.entries), (f, i)


@pytest.fixture(scope="module")
def compose_reference_cases():
    """(spec, gamma_f, gammas_g) for every composition case, and for the
    root of a 12-leaf AND/OR tree: 4096 rows from two 64-row inner matrices."""
    cases = {}
    for name, spec in COMPOSITION_CASES.items():
        rng = np.random.default_rng(sorted(COMPOSITION_CASES).index(name))
        gamma_f = random_gamma(spec.outer, rng)
        cases[name] = (spec, gamma_f, [random_gamma(g, rng) for g in spec.inner])
    costs = tuple(float(c) for c in np.random.default_rng(12).uniform(0.5, 2.0, 12))
    ast = parse_formula("(((x1|x2)&x3)|((x4|x5)&x6))&(((x7|x8)&x9)|((x10|x11)&x12))")
    (left, lv), (right, rv) = compose_tree(ast.left, costs), compose_tree(ast.right, costs)
    _, gamma_f, _ = gadget_cost_adv("and", (lv, rv))
    spec = CompositionSpec(AND2, (left.function, right.function))
    cases["tree12"] = (spec, gamma_f, [left, right])
    return cases


@pytest.mark.parametrize("name", sorted(COMPOSITION_CASES) + ["tree12"])
def test_compose_gamma_matches_whole_matrix_reference(compose_reference_cases, name):
    spec, gamma_f, gammas_g = compose_reference_cases[name]
    got = compose_gamma(gamma_f, gammas_g, spec)
    want = reference_compose_gamma(gamma_f, gammas_g, spec)
    assert got.function == want.function
    assert got.matrix.labels == want.matrix.labels
    assert same_bits(got.matrix.entries, want.matrix.entries)
    if name == "tree12":
        assert got.matrix.dim == 4096


@pytest.mark.parametrize("name", ["partial_unsorted", "tree12"])
def test_compose_gamma_output_is_symmetric_and_read_only(compose_reference_cases, name):
    spec, gamma_f, gammas_g = compose_reference_cases[name]
    entries = compose_gamma(gamma_f, gammas_g, spec).matrix.entries
    assert np.array_equal(entries, entries.T)
    assert not entries.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        entries[0, 0] = 1.0


def crossing_gamma(f, weight=1.0):
    """``weight`` on every pair with different outputs, 0 elsewhere."""
    return random_gamma(f, np.random.default_rng(0), weight, weight)


def test_compose_gamma_of_a_dense_composition_stays_small():
    # Every crossing pair of and2 o (parity6, parity6) is nonzero: 2.2M of the
    # 16.7M entries.  The output lives in a memory map of its own, which
    # tracemalloc does not see; everything else compose_gamma allocates does.
    par6 = make_family("parity", 6)
    spec = CompositionSpec(AND2, (par6, par6))
    gamma_f, gammas_g = crossing_gamma(AND2), [crossing_gamma(par6), crossing_gamma(par6)]
    spec.composed  # built once per spec, before the measurement
    tracemalloc.start()
    try:
        got = compose_gamma(gamma_f, gammas_g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.matrix.dim == 4096
    assert peak <= 2 * 2**20
    want = reference_compose_gamma(gamma_f, gammas_g, spec)
    assert same_bits(got.matrix.entries, want.matrix.entries)


# The advice ``_mapped_zeros`` gives on each page path (Linux only).  A sparse
# matrix is kept off huge pages and probed on its first page before any write
# (SPARSE_PAGES), and populated whole after the writes (POPULATED); a refused
# probe gives huge pages before the writes, as a dense matrix gets.
SPARSE_PAGES = [getattr(mmap, "MADV_NOHUGEPAGE", None), adversary.MADV_POPULATE_READ]
POPULATED = [adversary.MADV_POPULATE_READ]
HUGE_PAGES = [getattr(mmap, "MADV_HUGEPAGE", None)]
linux_advice = pytest.mark.skipif(
    not hasattr(mmap, "MADV_HUGEPAGE"), reason="madvise advice is Linux only"
)


@pytest.fixture
def madvise_spy(monkeypatch):
    """Records the advice given to every memory map made while it is active:
    ``calls`` the options, ``spans`` each (option, start, length) with the
    length the kernel gets, and ``populated`` the nonzero float entries in
    the map at each ``MADV_POPULATE_READ``.  Advice listed in ``refused``
    raises ``OSError`` instead, as a kernel without it does."""

    class Spy(mmap.mmap):
        calls: list = []
        spans: list = []
        populated: list = []
        refused: set = set()

        def madvise(self, option, start=0, length=None):
            length = len(self) - start if length is None else min(length, len(self) - start)
            Spy.calls.append(option)
            Spy.spans.append((option, start, length))
            if option == adversary.MADV_POPULATE_READ:
                entries = np.frombuffer(self, dtype=float, count=len(self) // 8)
                Spy.populated.append(int(np.count_nonzero(entries)))
                del entries  # a live export would pin the map
            if option in Spy.refused:
                raise OSError(errno.EINVAL, "Invalid argument")
            return super().madvise(option, start, length)

    monkeypatch.setattr(mmap, "mmap", Spy)
    return Spy


@pytest.fixture(scope="module")
def page_cases(compose_reference_cases):
    """A sparse tree12 root and the dense and2 o (parity6, parity6), with
    every crossing pair of parity6 weighted 1 (131,072 entries)."""
    par6 = make_family("parity", 6)
    spec = CompositionSpec(AND2, (par6, par6))
    parity6 = (spec, gadget(AND2, 1.0, 1.0), [crossing_gamma(par6)] * 2)
    return {"tree12": compose_reference_cases["tree12"], "parity6": parity6}


@linux_advice
@pytest.mark.parametrize("name", ["tree12", "parity6"])
def test_compose_gamma_on_either_page_path_matches_the_whole_matrix_reference(
    page_cases, madvise_spy, monkeypatch, name
):
    spec, gamma_f, gammas_g = page_cases[name]
    want = reference_compose_gamma(gamma_f, gammas_g, spec).matrix.entries
    # 0 entries per page puts every matrix on 4 KB pages, 2**60 none.
    for per_page, path in ((0, SPARSE_PAGES + POPULATED), (2**60, HUGE_PAGES)):
        monkeypatch.setattr(adversary, "PAGE_ENTRIES", per_page)
        madvise_spy.calls.clear()
        got = compose_gamma(gamma_f, gammas_g, spec).matrix.entries
        assert madvise_spy.calls == path
        assert same_bits(got, want)
        del got


@linux_advice
@pytest.mark.parametrize(
    "name,path", [("tree12", SPARSE_PAGES + POPULATED), ("parity6", HUGE_PAGES)]
)
def test_compose_gamma_picks_its_page_path_by_the_count_of_entries(
    page_cases, madvise_spy, name, path
):
    spec, gamma_f, gammas_g = page_cases[name]
    madvise_spy.calls.clear()
    got = compose_gamma(gamma_f, gammas_g, spec).matrix.entries
    assert madvise_spy.calls == path
    count, n = np.count_nonzero(got), got.shape[0]
    assert (adversary.PAGE_ENTRIES * count <= n * n) == (path != HUGE_PAGES)
    assert count == {"tree12": 7800, "parity6": 131072}[name]


@linux_advice
def test_a_sparse_matrix_is_written_first_and_populated_after(page_cases, madvise_spy):
    # The probe covers one page and sees no entry; the whole-map populate
    # comes after every write.
    spec, gamma_f, gammas_g = page_cases["tree12"]
    got = compose_gamma(gamma_f, gammas_g, spec).matrix.entries
    nohuge, populate = SPARSE_PAGES
    size = got.nbytes
    assert size == 8 * 4096 * 4096
    want = [(nohuge, 0, size), (populate, 0, mmap.PAGESIZE), (populate, 0, size)]
    assert madvise_spy.spans == want
    assert madvise_spy.populated == [0, 7800]
    assert np.count_nonzero(got) == 7800


@linux_advice
def test_mapped_zeros_takes_4k_pages_up_to_one_entry_per_page(madvise_spy):
    # 64 rows are 8 pages of 4 KB.
    sparse = SPARSE_PAGES + POPULATED
    for entries, path in ((0, sparse), (8, sparse), (9, HUGE_PAGES)):
        madvise_spy.calls.clear()
        madvise_spy.populated.clear()
        pieces = [(np.arange(entries), np.arange(1.0, entries + 1))]
        out = adversary._mapped_zeros(64, entries, pieces)
        assert madvise_spy.calls == path
        assert madvise_spy.populated == ([0, entries] if path != HUGE_PAGES else [])
        assert out.shape == (64, 64)
        assert np.array_equal(out.reshape(-1)[:entries], np.arange(1.0, entries + 1))
        assert np.count_nonzero(out) == entries


@linux_advice
def test_a_refused_populate_falls_back_to_huge_pages(page_cases, madvise_spy):
    spec, gamma_f, gammas_g = page_cases["tree12"]
    want = compose_gamma(gamma_f, gammas_g, spec).matrix.entries
    madvise_spy.refused.add(adversary.MADV_POPULATE_READ)
    madvise_spy.calls.clear()
    got = compose_gamma(gamma_f, gammas_g, spec).matrix.entries
    assert madvise_spy.calls == SPARSE_PAGES + HUGE_PAGES
    assert same_bits(got, want)


def test_compose_gamma_writes_positive_zeros_where_the_outer_matrix_has_negative_ones():
    # validate accepts -0.0.  A whole-matrix product writes -0.0 * F = -0.0;
    # compose_gamma skips zero factors and leaves +0.0 there.
    e = gadget(AND2, 1.0, 2.0).matrix.entries.copy()
    e[0, 3] = e[3, 0] = -0.0
    gamma_f = AdversaryMatrix(AND2, SymMatrix(AND2.domain, e))
    assert validate(gamma_f).ok
    spec = CompositionSpec(AND2, (OR2, PARITY2))
    rng = np.random.default_rng(5)
    gammas_g = [random_gamma(OR2, rng), random_gamma(PARITY2, rng)]
    got = compose_gamma(gamma_f, gammas_g, spec).matrix.entries
    want = reference_compose_gamma(gamma_f, gammas_g, spec).matrix.entries
    assert np.signbit(want).any()
    assert not np.signbit(got).any()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("where", ["first", "later_pair", "later_piece"])
def test_compose_gamma_rejects_an_overflowing_product(where):
    # Finite factors whose product overflows.
    if where == "first":
        spec = CompositionSpec(AND2, (OR2, OR2))
        _, gamma_f, _ = gadget_cost_adv("and", (1e200, 1e200))
        _, inner, _ = gadget_cost_adv("or", (1e100, 1e100))
        gammas_g = [inner, inner]
    elif where == "later_pair":
        # Outer pairs come in row-major order: (01, 11) with weight 1, whose
        # products stay near 1e150, then (10, 11) with weight 1e200.
        spec = CompositionSpec(AND2, (ID1, ID1))
        gamma_f = gadget(AND2, 1.0, 1e200)
        e = np.array([[0.0, 1e75], [1e75, 0.0]])
        gammas_g = [AdversaryMatrix(ID1, SymMatrix(ID1.domain, e))] * 2
    else:
        # One outer pair, (00, 11), whose expansion takes several pieces;
        # only the last entry of F_1's crossing block is large, so only the
        # last piece overflows.
        k = 2
        while 2 ** (4 * (k - 1)) <= adversary.COMPOSE_PIECE:
            k += 1
        par = make_family("parity", k)
        spec = CompositionSpec(AND2, (par, par))
        e = np.zeros((4, 4))
        e[0, 3] = e[3, 0] = 1.0
        gamma_f = AdversaryMatrix(AND2, SymMatrix(AND2.domain, e))
        first = crossing_gamma(par).matrix.entries.copy()
        zeros, ones = par.classes
        first[zeros[-1], ones[-1]] = first[ones[-1], zeros[-1]] = 1e160
        gammas_g = [AdversaryMatrix(par, SymMatrix(par.domain, first)), crossing_gamma(par, 1e150)]
    # The overflow warnings are numpy's; the error is the check's.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^entries must be finite$"):
            compose_gamma(gamma_f, gammas_g, spec)


# --------------------------------------------------------------------------
# order and scaling properties


def test_weak_duality_random():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        f = random_function(rng, n)
        gamma = random_gamma(f, rng)
        witness = random_witness(f, rng)
        alpha = random_costs(rng, n)
        assert adv_value(gamma, alpha) <= mm_value(witness, alpha) + 1e-9


def test_values_scale_linearly_in_costs():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        f = random_function(rng, n)
        gamma = random_gamma(f, rng)
        witness = random_witness(f, rng)
        alpha = CostVector(random_costs(rng, n))
        c = float(rng.uniform(0.25, 4.0))
        scaled = CostVector(tuple(c * a for a in alpha.costs))
        base = adv_value(gamma, alpha)
        assert adv_value(gamma, scaled) == pytest.approx(c * base, rel=1e-12)
        base_mm = mm_value(witness, alpha)
        assert mm_value(witness, scaled) == pytest.approx(c * base_mm, rel=1e-12)


def test_values_monotone_in_costs_exactly():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        f = random_function(rng, n)
        gamma = random_gamma(f, rng)
        witness = random_witness(f, rng)
        alpha = np.array(random_costs(rng, n))
        bigger = alpha + rng.uniform(0.0, 1.0, size=n)
        assert adv_value(gamma, tuple(alpha)) <= adv_value(gamma, tuple(bigger))
        assert mm_value(witness, tuple(alpha)) <= mm_value(witness, tuple(bigger))


def test_adv_value_at_least_cheapest_bit():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        f = random_function(rng, n)
        gamma = random_gamma(f, rng)
        alpha = random_costs(rng, n)
        assert adv_value(gamma, alpha) >= min(alpha) - 1e-12


# --------------------------------------------------------------------------
# JSON forms


def test_gamma_json_roundtrip():
    g = gadget(AND2, 3.0, 4.0)
    data = json.loads(json.dumps(gamma_to_dict(g)))
    assert list(data) == ["labels", "entries", "function"]
    again = gamma_from_dict(data)
    assert again.function == AND2
    assert again.matrix.labels == g.matrix.labels
    assert np.array_equal(again.matrix.entries, g.matrix.entries)
    # explicit function overrides the embedded one
    relabeled = gamma_from_dict(data, function=AND2)
    assert relabeled.function == AND2


def test_gamma_from_dict_requires_some_function():
    g = gadget(AND2, 3.0, 4.0)
    data = gamma_to_dict(g)
    del data["function"]
    with pytest.raises(ValueError):
        gamma_from_dict(data)
    assert gamma_from_dict(data, function=AND2).function == AND2


def test_gamma_from_dict_rejects_asymmetry_and_garbage():
    with pytest.raises(ValueError, match="^entries must be exactly symmetric$"):
        gamma_from_dict({"labels": ["0", "1"], "entries": [[0.0, 1.0], [0.9, 0.0]]}, ID1)
    with pytest.raises(ValueError, match="^malformed matrix: "):
        gamma_from_dict({"labels": ["0", "1"]}, ID1)
    with pytest.raises(ValueError, match="^malformed matrix: "):
        gamma_from_dict({"labels": ["0", "1"], "entries": "nope"}, ID1)


@pytest.mark.parametrize(
    "labels", [[0, 1], [None, "1"], [["0"], ["1"]]], ids=["integers", "null", "lists"]
)
def test_gamma_from_dict_labels_must_be_strings(labels):
    # str() read the labels 0 and 1 as "0" and "1".
    with pytest.raises(ValueError, match="^labels must be strings$"):
        gamma_from_dict({"labels": labels, "entries": [[0.0, 1.0], [1.0, 0.0]]}, ID1)


@pytest.mark.parametrize("labels", ["01", {"0": 0, "1": 1}], ids=["string", "object"])
def test_gamma_from_dict_labels_must_be_an_array(labels):
    # tuple() split the string "01" into the labels "0" and "1".
    with pytest.raises(ValueError, match="^malformed matrix: labels must be an array, got "):
        gamma_from_dict({"labels": labels, "entries": [[0.0, 1.0], [1.0, 0.0]]}, ID1)


@pytest.mark.parametrize(
    "labels", [["0", "0"], ["0", "10"], ["1", "0"]], ids=["duplicate", "length", "order"]
)
def test_gamma_from_dict_ties_the_labels_to_the_domain(labels):
    data = {"labels": labels, "entries": [[0.0, 1.0], [1.0, 0.0]]}
    with pytest.raises(ValueError, match="^matrix labels must equal the function domain"):
        gamma_from_dict(data, ID1)
    data["function"] = function_to_dict(ID1)
    with pytest.raises(ValueError, match="^matrix labels must equal the function domain"):
        gamma_from_dict(data)


@pytest.mark.parametrize("q", ["1", True, 10**400], ids=["string", "boolean", "huge_integer"])
def test_witness_from_dict_rejects_probabilities_that_are_not_numbers(q):
    # float() read "1" and true as 1.0, and raised OverflowError on 10**400.
    data = {"rows": [{"x": "0", "p": [q]}, {"x": "1", "p": [1.0]}]}
    with pytest.raises(ValueError, match="^malformed witness: "):
        witness_from_dict(data, ID1)


def test_witness_from_dict_rejects_duplicate_rows():
    # The last row for "0" was kept, so its NaN twin was never checked.
    data = {"rows": [{"x": "0", "p": [math.nan]}, {"x": "0", "p": [1.0]}, {"x": "1", "p": [1.0]}]}
    with pytest.raises(ValueError, match="^malformed witness: duplicate domain entry '0'$"):
        witness_from_dict(data, ID1)


def test_witness_json_roundtrip():
    w = or_witness()
    data = json.loads(json.dumps(witness_to_dict(w)))
    again = witness_from_dict(data, OR2)
    assert same_bits(again.p, w.p)
    with pytest.raises(ValueError):
        witness_from_dict({"rows": [{"x": "00"}]}, OR2)


@pytest.mark.parametrize("x", [0, None], ids=["integer", "null"])
def test_witness_from_dict_rows_must_be_strings(x):
    # str() read the row 0 as "0".
    data = {"rows": [{"x": x, "p": [1.0]}, {"x": "1", "p": [1.0]}]}
    with pytest.raises(ValueError, match="^witness rows must cover the domain exactly$"):
        witness_from_dict(data, ID1)
