"""Seeded random generators and independent references shared across the
test modules."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from advbound.adversary import (
    PROB_SUM_TOL,
    AdversaryMatrix,
    MinimaxWitness,
    compose_gamma,
    compose_minimax,
    require_valid,
)
from advbound.boolfn import (
    And,
    BooleanFunction,
    CompositionSpec,
    Leaf,
    Not,
    Or,
    function_from_dict,
    make_family,
    validate_bits,
)
from advbound.solver import gadget_cost_adv
from advbound.specmat import SymMatrix, spectral_norm

ID1 = make_family("id", 1)


def difference_mask(labels, i: int) -> SymMatrix:
    """Reference: the 0/1 matrix with 1 where the labels differ at position i
    (1-based), read from the label characters, not from ``bits``."""
    labels = tuple(labels)
    if labels and not 1 <= i <= len(labels[0]):
        raise ValueError(f"position {i} out of range 1..{len(labels[0])}")
    chars = np.array([list(s) for s in labels]) if labels else np.empty((0, 0), dtype=str)
    col = chars[:, i - 1] if labels else np.empty(0, dtype=str)
    return SymMatrix(labels, (col[:, None] != col[None, :]).astype(float))


def hadamard(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Reference: the entrywise product of two matrices with equal labels."""
    assert a.labels == b.labels
    return SymMatrix(a.labels, a.entries * b.entries)


def random_function(rng: np.random.Generator, n: int, nonconstant: bool = True) -> BooleanFunction:
    while True:
        bits = rng.integers(0, 2, size=2**n)
        if not nonconstant or (0 in bits and 1 in bits):
            break
    dom = tuple("".join(t) for t in itertools.product("01", repeat=n))
    return BooleanFunction(n, dom, tuple(int(b) for b in bits))


def random_gamma(
    f: BooleanFunction, rng: np.random.Generator, low: float = 0.1, high: float = 1.0
) -> AdversaryMatrix:
    """Positive weights on every differing-output pair (connected support)."""
    vals = np.array(f.values)
    m = len(f.domain)
    entries = np.zeros((m, m))
    xs, ys = np.where(vals[:, None] < vals[None, :])
    w = rng.uniform(low, high, size=xs.size)
    entries[xs, ys] = w
    entries[ys, xs] = w
    return AdversaryMatrix(f, SymMatrix(f.domain, entries))


def random_witness(f: BooleanFunction, rng: np.random.Generator) -> MinimaxWitness:
    rows = {}
    for x in f.domain:
        p = rng.uniform(0.05, 1.0, size=f.arity)
        p /= p.sum()
        rows[x] = tuple(float(q) for q in p)
    return MinimaxWitness(f, rows)


def witness_rows(w: MinimaxWitness) -> dict[str, tuple[float, ...]]:
    """The witness's rows by domain label, as tuples."""
    return dict(zip(w.function.domain, map(tuple, w.p.tolist())))


def random_costs(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(float(c) for c in rng.uniform(0.2, 3.0, size=n))


def random_composition_case(seed: int, k_max: int = 3, inner_max: int = 2):
    """Deterministic (spec, gamma_f, gammas_g) for one case index."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, k_max + 1))
    inner = tuple(random_function(rng, int(rng.integers(1, inner_max + 1))) for _ in range(k))
    outer = random_function(rng, k)
    spec = CompositionSpec(outer, inner)
    gamma_f = random_gamma(outer, rng)
    gammas_g = [random_gamma(g, rng) for g in inner]
    return spec, gamma_f, gammas_g


def random_read_once_ast(rng: np.random.Generator, n: int, ordered: bool = False):
    """Random AND/OR/NOT tree using x1..xn exactly once each."""
    idxs = list(range(1, n + 1))
    if not ordered:
        rng.shuffle(idxs)
    nodes: list = [Leaf(i) for i in idxs]
    while len(nodes) > 1:
        j = int(rng.integers(0, len(nodes) - 1))
        op = And if rng.random() < 0.5 else Or
        merged = op(nodes[j], nodes[j + 1])
        if rng.random() < 0.25:
            merged = Not(merged)
        nodes[j : j + 2] = [merged]
    root = nodes[0]
    if rng.random() < 0.25:
        root = Not(root)
    return root


def shuffled(f: BooleanFunction, rng: np.random.Generator, keep: float = 1.0) -> BooleanFunction:
    """f restricted to a random subset of its rows, read back through
    ``function_from_dict`` with the rows in random order.  ``keep < 1`` keeps
    each row with that probability but always keeps both outputs when f has
    both."""
    while True:
        order = rng.permutation(len(f.domain))
        kept = [j for j in order if rng.random() < keep]
        vals = {f.values[j] for j in kept}
        if vals == set(f.values):
            rows = [{"x": f.domain[j], "f": f.values[j]} for j in kept]
            return function_from_dict({"n": f.arity, "rows": rows})


def composition_cases() -> dict[str, CompositionSpec]:
    """Specs covering the shapes of composition: unsorted total and partial
    domains, constant inner functions, identity blocks, and a spec that keeps
    no row."""
    rng = np.random.default_rng(29)
    and2, or2, id1 = make_family("and", 2), make_family("or", 2), make_family("id", 1)

    def rand(n: int, keep: float = 1.0) -> BooleanFunction:
        return shuffled(random_function(rng, n), rng, keep)

    return {
        "total_unsorted": CompositionSpec(rand(3), (rand(2), rand(1), rand(3))),
        "partial_unsorted": CompositionSpec(rand(3, 0.7), (rand(3, 0.6), rand(2, 0.8), rand(2, 0.8))),
        "constant_inner": CompositionSpec(
            rand(2), (BooleanFunction(2, ("11", "00", "01"), (1, 1, 1)), rand(2))
        ),
        "constant_inner_partial_outer": CompositionSpec(
            BooleanFunction(2, ("11", "10"), (1, 0)), (or2, BooleanFunction(1, ("0", "1"), (0, 0)))
        ),
        "identity_blocks": CompositionSpec(rand(3), (id1, id1, id1)),
        "identity_outer": CompositionSpec(id1, (rand(3, 0.7),)),
        "no_row": CompositionSpec(BooleanFunction(2, (), ()), (and2, rand(2))),
    }


def split_input(x: str, spec: CompositionSpec) -> tuple[tuple[str, ...], str]:
    """Reference: split x into its inner blocks and evaluate them; returns
    (blocks, inner outputs)."""
    validate_bits(x, spec.total_arity)
    blocks = []
    tilde = []
    for off, g in zip(spec.offsets, spec.inner):
        piece = x[off - 1 : off - 1 + g.arity]
        blocks.append(piece)
        tilde.append(str(g(piece)))
    return tuple(blocks), "".join(tilde)


def loop_composition(spec: CompositionSpec):
    """Reference: the composed function and, per composed row, the outer row,
    the inner rows and the inner outputs, built row by row from
    ``itertools.product`` over the inner domains, ``split_input`` and
    ``index``.  Returns (h, outer_row (N,), inner_row (k, N), inner_value (k, N))."""
    dom, vals = [], []
    for blocks in itertools.product(*(g.domain for g in spec.inner)):
        tilde = "".join(str(g(b)) for g, b in zip(spec.inner, blocks))
        if tilde in spec.outer.domain:
            dom.append("".join(blocks))
            vals.append(spec.outer(tilde))
    h = BooleanFunction(spec.total_arity, tuple(dom), tuple(vals))
    k = len(spec.inner)
    outer_row = np.empty(len(dom), dtype=int)
    inner_row = np.empty((k, len(dom)), dtype=int)
    inner_value = np.empty((k, len(dom)), dtype=int)
    for r, x in enumerate(h.domain):
        blocks, tilde = split_input(x, spec)
        outer_row[r] = spec.outer.domain.index(tilde)
        for i, (g, b) in enumerate(zip(spec.inner, blocks)):
            inner_row[i, r] = g.domain.index(b)
            inner_value[i, r] = int(tilde[i])
    return h, outer_row, inner_row, inner_value


def reference_compose_gamma(gamma_f, gammas_g, spec: CompositionSpec) -> AdversaryMatrix:
    """Reference: the whole-matrix form of ``compose_gamma``.  Each factor is
    gathered as a full N x N array (rows, then columns) and multiplied in, in
    block order, and the product goes through the checked ``SymMatrix``
    constructor, which copies it and checks its symmetry."""

    def gather(a, idx):
        return np.take(np.take(a, idx, axis=0), idx, axis=1)

    require_valid(gamma_f)
    for gam in gammas_g:
        require_valid(gam)
    rows = spec.composed
    out = gather(gamma_f.matrix.entries, rows.outer_row)
    for gam, idx in zip(gammas_g, rows.inner_row):
        norm = spectral_norm(gam.matrix).norm
        factor = gam.matrix.entries + norm * np.eye(gam.matrix.dim)
        out *= gather(factor, idx)
    h = rows.function
    return AdversaryMatrix(h, SymMatrix(h.domain, out))


class MaskedLaw(NamedTuple):
    """The masked composition lemma at position q of block p (both 1-based):
    whether the entries agree exactly, and the (composed, factored) norms
    and whole/masked norm ratios."""

    p: int
    q: int
    exact: bool
    norms: tuple[float, float]
    ratios: tuple[float, float]


def masked_laws(gamma_f, gammas_g, spec: CompositionSpec) -> list[MaskedLaw]:
    """Reference: the masked composition lemma at every position of the
    composed input, in order.  At position q of block p, the composed matrix
    masked there is the composition of G_f o D_p with G_{g_p} o D_q, so its
    norm is ||G_f o D_p|| ||G_{g_p} o D_q|| prod_{i != p} ||G_{g_i}||, and its
    whole/masked ratio is the outer ratio times the inner one.  Masks come
    from the labels (``difference_mask``), and every norm from a dense
    eigensolve; a ratio over a zero norm is +inf."""

    def norm(m):
        return spectral_norm(m).norm

    def ratio(num, den):
        return math.inf if den == 0.0 else num / den

    def masked(m, i):
        return hadamard(m, difference_mask(m.labels, i))

    h = compose_gamma(gamma_f, gammas_g, spec).matrix
    whole_h, whole_f = norm(h), norm(gamma_f.matrix)
    wholes = [norm(gam.matrix) for gam in gammas_g]
    laws = []
    ell = 0
    for p, gam in enumerate(gammas_g, start=1):
        masked_f = masked(gamma_f.matrix, p)
        outer = AdversaryMatrix(spec.outer, masked_f)
        for q in range(1, gam.function.arity + 1):
            ell += 1
            masked_h = masked(h, ell)
            masked_g = masked(gam.matrix, q)
            factors = list(gammas_g)
            factors[p - 1] = AdversaryMatrix(gam.function, masked_g)
            factored = compose_gamma(outer, factors, spec).matrix
            norm_h, norm_f, norm_g = norm(masked_h), norm(masked_f), norm(masked_g)
            laws.append(
                MaskedLaw(
                    p,
                    q,
                    np.array_equal(masked_h.entries, factored.entries),
                    (norm_h, norm_f * norm_g * math.prod(wholes[: p - 1] + wholes[p:])),
                    (ratio(whole_h, norm_h), ratio(whole_f, norm_f) * ratio(wholes[p - 1], norm_g)),
                )
            )
    return laws


def rel_error(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when a == b (so inf = inf
    and 0 = 0 exactly), and inf when just one of them is infinite."""
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def negated(f: BooleanFunction) -> BooleanFunction:
    return BooleanFunction(f.arity, f.domain, tuple(1 - v for v in f.values))


def compose_tree(ast, costs):
    """Gadget certificates composed up an AND/OR/NOT tree of leaves, and the
    tree's value at ``costs``: each gate's gadget is built at its children's
    values, and a NOT keeps its child's entries over the negated function."""
    if isinstance(ast, Leaf):
        gamma = AdversaryMatrix(ID1, SymMatrix(ID1.domain, np.array([[0.0, 1.0], [1.0, 0.0]])))
        return gamma, costs[ast.index - 1]
    if isinstance(ast, Not):
        child, value = compose_tree(ast.child, costs)
        return AdversaryMatrix(negated(child.function), child.matrix), value
    left, lv = compose_tree(ast.left, costs)
    right, rv = compose_tree(ast.right, costs)
    value, gamma_f, _ = gadget_cost_adv("and" if isinstance(ast, And) else "or", (lv, rv))
    spec = CompositionSpec(gamma_f.function, (left.function, right.function))
    return compose_gamma(gamma_f, [left, right], spec), value


def witness_tree(ast, costs):
    """Gadget witnesses composed up an AND/OR/NOT tree of leaves, and the
    tree's value at ``costs``; a NOT keeps its child's rows over the negated
    function."""
    if isinstance(ast, Leaf):
        return MinimaxWitness(ID1, np.ones((2, 1))), costs[ast.index - 1]
    if isinstance(ast, Not):
        child, value = witness_tree(ast.child, costs)
        return MinimaxWitness(negated(child.function), child.p), value
    left, lv = witness_tree(ast.left, costs)
    right, rv = witness_tree(ast.right, costs)
    value, _, p_f = gadget_cost_adv("and" if isinstance(ast, And) else "or", (lv, rv))
    spec = CompositionSpec(p_f.function, (left.function, right.function))
    return compose_minimax(p_f, [left, right], spec), value


def loop_check_function(arity: int, domain, values) -> None:
    """Reference: the row-by-row checks of ``BooleanFunction``, raising for
    the first bad row."""
    seen = set()
    for x in domain:
        validate_bits(x, arity)
        if x in seen:
            raise ValueError(f"duplicate domain entry {x!r}")
        seen.add(x)
    for v in values:
        if v not in (0, 1):
            raise ValueError(f"outputs must be 0 or 1, got {v!r}")


def loop_check_witness(f: BooleanFunction, p: dict) -> None:
    """Reference: the row-by-row checks of ``MinimaxWitness``, raising for
    the first bad row."""
    for x, row in p.items():
        if len(row) != f.arity:
            raise ValueError(f"row {x!r} has {len(row)} entries, expected {f.arity}")
        if any(q < 0 for q in row):
            raise ValueError(f"row {x!r} has a negative probability")
        if abs(sum(row) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"row {x!r} sums to {sum(row)!r}, not 1")
