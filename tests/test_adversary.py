"""Bound evaluation, duality, and the composition identities."""

import json
import math
import sys

import numpy as np
import pytest

from advbound import adversary
from advbound.adversary import (
    AdversaryMatrix,
    CostVector,
    EigvecParts,
    MinimaxWitness,
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
    compose_functions,
    formula_to_function,
    make_family,
    parse_formula,
    split_input,
)
from advbound.solver import gadget_cost_adv, readonce_bound
from advbound.specmat import (
    EigensolverError,
    SpectralResult,
    SymMatrix,
    _is_symmetric,
    difference_mask,
    hadamard,
    principal_eigenvector,
    spectral_norm,
)
from conftest import (
    composition_cases,
    loop_check_witness,
    loop_composition,
    random_composition_case,
    random_costs,
    random_function,
    random_gamma,
    random_witness,
    reference_compose_gamma,
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
    alpha = CostVector((1.0, 2.0, 3.0), unit="gates")
    assert alpha.block(2, 2).costs == (2.0, 3.0)
    assert alpha.scaled(2.0).costs == (2.0, 4.0, 6.0)
    assert alpha.scaled(2.0).unit == "gates"
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
    with pytest.raises(ValueError):
        require_valid(zero_gamma(AND2))
    require_valid(zero_gamma(AND2), allow_zero=True)  # no raise
    require_valid(gadget(AND2, 3.0, 4.0))


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


def test_adv_value_rejects_a_zero_norm_of_a_nonzero_matrix(monkeypatch):
    def lost(b):
        return SpectralResult(0.0, np.zeros(sum(b.shape)), 0.0)

    monkeypatch.setattr(adversary, "block_norm", lost)
    with pytest.raises(EigensolverError, match="norm of a nonzero matrix evaluated to 0"):
        adv_value(gadget(AND2, 1.0, 1.0), (1.0, 1.0))


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
    assert gamma.function.inputs_with_value(1) == ("111",)
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


# --------------------------------------------------------------------------
# composition of matrices


def composed_entry_oracle(gamma_f, gammas_g, spec, x, y):
    """Two-case form: inner entry on crossing blocks, norm * identity otherwise."""
    bx, tx = split_input(x, spec)
    by, ty = split_input(y, spec)
    out = gamma_f.matrix.entries[spec.outer.index(tx), spec.outer.index(ty)]
    for g, gam, xb, yb in zip(spec.inner, gammas_g, bx, by):
        if g(xb) != g(yb):
            out *= gam.matrix.entries[g.index(xb), g.index(yb)]
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
    with pytest.raises(ValueError):
        compose_gamma(AdversaryMatrix(OR2, unit.matrix), [g1, unit], spec)
    with pytest.raises(ValueError):
        compose_gamma(unit, [g1], spec)
    with pytest.raises(ValueError):
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


def test_eigvec_parts_from_vector():
    v = np.array([0.0, 0.5, 0.5, math.sqrt(0.5)])
    parts = EigvecParts.from_vector(AND2, v)
    assert np.array_equal(parts.whole, parts.half0 + parts.half1)
    assert parts.half1.tolist() == [0.0, 0.0, 0.0, pytest.approx(math.sqrt(0.5))]
    with pytest.raises(ValueError):
        EigvecParts.from_vector(AND2, np.zeros(3))


# --------------------------------------------------------------------------
# masked factorization


def test_masked_compose_check_frozen_case():
    spec = CompositionSpec(AND2, (AND2, AND2))
    unit = gadget(AND2, 1.0, 1.0)
    for ell in range(1, 5):
        report = masked_compose_check(unit, [unit, unit], spec, ell)
        assert report.ok, (ell, report)
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
            assert report.ok, (seed, ell)


def test_masked_compose_check_infinite_ratio():
    # inner block leaves bit 2 unweighted, so masking there zeroes both sides
    spec = CompositionSpec(ID1, (AND2,))
    gid = AdversaryMatrix(ID1, SymMatrix(ID1.domain, np.array([[0.0, 1.0], [1.0, 0.0]])))
    inner = gadget(AND2, 1.0, 0.0)
    report = masked_compose_check(gid, [inner], spec, 2)
    assert report.norm_lhs == 0.0 and report.norm_rhs == 0.0
    assert report.ratio_lhs == math.inf and report.ratio_rhs == math.inf
    assert report.ok


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
    assert all(composed.p[x] == or_witness().p[x] for x in OR2.domain)


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
    with pytest.raises(ValueError):
        compose_minimax(or_witness(), [or_witness(), or_witness()], spec)
    with pytest.raises(ValueError):
        compose_minimax(and_witness(), [or_witness()], spec)
    with pytest.raises(ValueError):
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
    _, outer_row, inner_row, inner_value = loop_composition(spec)
    out = delta_f.vector[outer_row].copy()
    for i, parts in enumerate(deltas_g):
        out *= np.where(inner_value[i] == 0, parts.half0[inner_row[i]], parts.half1[inner_row[i]])
    return out


def loop_compose_minimax(p_f, ps_g, spec):
    h = loop_composition(spec)[0]
    rows = {}
    for x in h.domain:
        blocks, tilde = split_input(x, spec)
        row = []
        for weight, w, b in zip(p_f.p[tilde], ps_g, blocks):
            row.extend(weight * q for q in w.p[b])
        rows[x] = tuple(row)
    return h, rows


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
    assert list(got.p) == list(h.domain)
    assert all(same_bits(got.p[x], want[x]) for x in h.domain)

    if any(g.is_constant for g in spec.inner):
        return  # a constant inner function has no balanced eigenvector
    delta_f = SpectralResult(1.0, rng.uniform(-1.0, 1.0, len(spec.outer.domain)), 0.0)
    deltas_g = [balanced_parts(g, rng) for g in spec.inner]
    got = compose_eigenvector(delta_f, deltas_g, spec)
    assert same_bits(got, loop_compose_eigenvector(delta_f, deltas_g, spec))
    assert got is not delta_f.vector and got.flags.writeable


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
    assert _is_symmetric(entries)
    assert not entries.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        entries[0, 0] = 1.0


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
        base = adv_value(gamma, alpha)
        assert adv_value(gamma, alpha.scaled(c)) == pytest.approx(c * base, rel=1e-12)
        base_mm = mm_value(witness, alpha)
        assert mm_value(witness, alpha.scaled(c)) == pytest.approx(c * base_mm, rel=1e-12)


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
    again = gamma_from_dict(data)
    assert again.function == AND2
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


def test_witness_json_roundtrip():
    w = or_witness()
    data = json.loads(json.dumps(witness_to_dict(w)))
    again = witness_from_dict(data, OR2)
    assert all(again.p[x] == w.p[x] for x in OR2.domain)
    with pytest.raises(ValueError):
        witness_from_dict({"rows": [{"x": "00"}]}, OR2)
