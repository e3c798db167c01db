"""Optimizers, exact gate certificates, and the verification reports."""

import dataclasses
import json
import math

import numpy as np
import pytest

from advbound import solver
from advbound.adversary import CostVector, adv_value, mm_value, uniform_witness, validate, zero_gamma
from advbound.boolfn import (
    BooleanFunction,
    CompositionSpec,
    compose_functions,
    make_family,
    parse_formula,
)
from advbound.solver import (
    BoundCertificate,
    SolverOptions,
    _adv_step,
    _mm_step,
    certify,
    gadget_cost_adv,
    readonce_bound,
    verify_composition,
    verify_iteration,
)
from advbound.specmat import difference_mask, hadamard, spectral_norm

AND2 = make_family("and", 2)
OR2 = make_family("or", 2)
PARITY2 = make_family("parity", 2)
NAND2 = make_family("nand", 2)
ID1 = make_family("id", 1)

FAST = SolverOptions(restarts=2)

AND3, A123 = make_family("and", 3), (1.0, 2.0, 3.0)

#: A budget at which and3 with costs A123 never meets the default gap (its gap
#: is about 0.14 after 300 steps), so certify runs both searches to the end.
FULL = SolverOptions(restarts=2, iterations=300)


@pytest.fixture
def spied_steps(monkeypatch):
    """The value of every primal ("adv") and dual ("mm") step, in order."""
    seen = {"adv": [], "mm": []}

    def spy(make, key):
        def made(f, a):
            step = make(f, a)

            def spied(p):
                value, gradient = step(p)
                seen[key].append(value)
                return value, gradient

            return spied

        return made

    monkeypatch.setattr(solver, "_adv_step", spy(solver._adv_step, "adv"))
    monkeypatch.setattr(solver, "_mm_step", spy(solver._mm_step, "mm"))
    return seen


def first_tight_step(seen, gap):
    """The first lockstep step at which the best values so far meet the gap."""
    lows = np.maximum.accumulate(seen["adv"])
    ups = np.minimum.accumulate(seen["mm"])
    return int(np.flatnonzero(ups - lows <= gap)[0])


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(restarts=0)
    with pytest.raises(ValueError):
        SolverOptions(iterations=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SolverOptions(seed=-1)
    for gap in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverOptions(target_gap=gap)


def test_options_are_exactly_the_reported_settings():
    # A setting that the certificate does not report cannot be reproduced
    # from it; a new field fails here until to_dict() reports it too.
    opts = SolverOptions(restarts=2, iterations=30, seed=4, target_gap=0.5)
    reported = certify(OR2, (1.0, 1.0), opts).to_dict()["solver"]
    assert reported == dataclasses.asdict(opts)


def test_certify_id_is_exact():
    cert = certify(ID1, (1.0,), FAST)
    assert cert.lower_value == 1.0
    assert cert.upper_value == 1.0
    assert cert.gap == 0.0 and cert.tight


@pytest.mark.parametrize(
    "f,alpha,truth",
    [
        (OR2, (1.0, 1.0), math.sqrt(2.0)),
        (PARITY2, (1.0, 1.0), 2.0),
        (AND2, (3.0, 4.0), 5.0),
        (make_family("and", 3), (1.0, 1.0, 1.0), math.sqrt(3.0)),
    ],
)
def test_certify_brackets_known_values(f, alpha, truth):
    cert = certify(f, alpha, FAST)
    assert cert.lower_value <= truth + 1e-9
    assert truth <= cert.upper_value + 1e-9
    assert cert.gap <= 2e-3


def test_certify_constant_function():
    f = BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1))
    cert = certify(f, (1.0, 1.0), FAST)
    assert cert.lower_value == 0.0 and cert.upper_value == 0.0


def test_certify_lower_side_returns_feasible_certificate():
    cert = certify(AND3, A123, FULL)
    assert cert.stop == "budget"
    assert validate(cert.lower_matrix).ok
    assert cert.lower_value == adv_value(cert.lower_matrix, A123)
    assert cert.lower_value <= math.sqrt(14.0) + 1e-9


def test_certify_upper_side_returns_feasible_certificate():
    cert = certify(AND3, A123, FULL)
    assert cert.stop == "budget"
    assert cert.upper_value == mm_value(cert.upper_witness, A123)
    assert cert.upper_value >= math.sqrt(14.0) - 1e-9


def test_stop_at_short_circuits(spied_steps):
    # certify stops both searches at the first step that meets the gap: a
    # loose gap is met long before the 5000-step budget
    cert = certify(OR2, (1.0, 1.0), SolverOptions(restarts=2, target_gap=0.5))
    steps = len(spied_steps["adv"])
    assert steps == len(spied_steps["mm"]) == first_tight_step(spied_steps, 0.5) + 1
    assert steps < 100
    assert cert.tight
    assert cert.lower_value <= math.sqrt(2.0) + 1e-9 <= cert.upper_value + 2e-9


@pytest.mark.parametrize("f", [OR2, make_family("parity", 3)], ids=["or2", "parity3"])
def test_tight_certify_stops_at_the_first_step_that_meets_the_gap(spied_steps, f):
    opts = SolverOptions(restarts=1)
    cert = certify(f, (1.0,) * f.arity, opts)
    steps = len(spied_steps["adv"])
    assert steps == len(spied_steps["mm"]) == first_tight_step(spied_steps, opts.target_gap) + 1
    assert steps < opts.iterations
    assert cert.tight and cert.gap <= opts.target_gap
    # the reported values are the certificates' own, which the search's
    # best values approximate
    assert cert.lower_value == pytest.approx(max(spied_steps["adv"]), rel=1e-12)
    assert cert.upper_value == pytest.approx(min(spied_steps["mm"]), rel=1e-12)


def test_tight_certify_skips_the_remaining_restarts(spied_steps):
    cert = certify(OR2, (1.0, 1.0), SolverOptions(restarts=8))
    steps = len(spied_steps["adv"])
    assert steps == first_tight_step(spied_steps, cert.options.target_gap) + 1
    assert steps < cert.options.iterations  # restart 0 only
    one = certify(OR2, (1.0, 1.0), SolverOptions(restarts=1))
    assert (cert.lower_value, cert.upper_value) == (one.lower_value, one.upper_value)
    assert np.array_equal(cert.lower_matrix.matrix.entries, one.lower_matrix.matrix.entries)
    assert cert.upper_witness.p == one.upper_witness.p


def test_untight_certify_is_both_full_searches(spied_steps):
    # Neither search stops early, and the certificates come from the best
    # points of the two searches run to the end
    cert = certify(AND3, A123, FULL)
    assert not cert.tight
    steps = FULL.restarts * FULL.iterations
    assert cert.steps == len(spied_steps["adv"]) == len(spied_steps["mm"]) == steps
    costs = CostVector(A123)
    *_, (_, q) = solver._adv_search(AND3, costs, FULL)
    *_, (_, p) = solver._mm_search(AND3, costs, FULL)
    assert np.array_equal(cert.lower_matrix.matrix.entries, solver._gamma_from(AND3, q).matrix.entries)
    assert cert.upper_witness.p == solver._witness_from(AND3, p).p


def test_end_temperature_bias_is_below_the_target_gap():
    # A soft-max over N terms at temperature T is off by at most T ln N; the
    # dual's max runs over at most 4**(n-1) pairs at arity n.
    assert solver.TEMP_END * math.log(4 ** (solver.ARITY_CAP - 1)) <= SolverOptions().target_gap


@pytest.mark.parametrize(
    "f,alpha,truth",
    [
        (make_family("and", 3), (1.0, 2.0, 3.0), math.sqrt(14.0)),
        (compose_functions(CompositionSpec(AND2, (OR2, OR2))), (1.0,) * 4, 2.0),
    ],
    ids=["and3_a123", "and_or_or"],
)
def test_certify_is_tight_on_weighted_and3_and_and_of_ors(f, alpha, truth):
    cert = certify(f, alpha, SolverOptions(restarts=1))
    assert cert.tight
    assert cert.lower_value <= truth + 1e-9 <= cert.upper_value + 2e-9


@pytest.mark.parametrize(
    "f",
    [
        BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1)),
        BooleanFunction(2, ("00", "11"), (0, 0)),
    ],
    ids=["constant", "partial"],
)
def test_certify_with_an_empty_class_takes_no_step(spied_steps, f):
    cert = certify(f, (1.0, 1.0), FAST)
    assert spied_steps == {"adv": [], "mm": []}
    assert cert.lower_value == cert.upper_value == 0.0
    assert np.array_equal(cert.lower_matrix.matrix.entries, zero_gamma(f).matrix.entries)
    assert cert.upper_witness.p == uniform_witness(f).p


def restart_loop(step, shape, opts, ascent, floor, decay):
    """The search as one loop over restarts, each run to the end, keeping the
    best run (the earliest on ties): an untight certificate must not move."""
    better = (lambda a, b: a > b) if ascent else (lambda a, b: a < b)
    beta2, rate2 = decay
    best_val, best_p = None, None
    for r in range(opts.restarts):
        rng = np.random.default_rng(opts.seed + r)
        z = 0.3 * rng.standard_normal(shape)
        mom, sq = np.zeros(shape), np.zeros(shape)
        run_val, run_p = (-math.inf if ascent else math.inf), None
        for t in range(opts.iterations):
            z -= z.max(axis=-1, keepdims=True)
            np.maximum(z, floor, out=z)
            p = np.exp(z)
            p /= p.sum(axis=-1, keepdims=True)
            val, gradient = step(p)
            if better(val, run_val):
                run_val, run_p = val, p
            elif run_p is None:
                run_p = p
            gz = gradient(solver._geometric(solver.TEMP_START, solver.TEMP_END, t, opts.iterations))
            rate = solver._geometric(solver.STEP_START, solver.STEP_END, t, opts.iterations)
            mom = 0.9 * mom + 0.1 * gz
            sq = beta2 * sq + rate2 * gz * gz
            mhat = mom / (1.0 - 0.9 ** (t + 1))
            shat = sq / (1.0 - beta2 ** (t + 1))
            z += (rate if ascent else -rate) * mhat / (np.sqrt(shat) + 1e-12)
        if r == 0 or better(run_val, best_val):
            best_val, best_p = run_val, run_p
    return best_val, best_p


@pytest.mark.parametrize("seed", [0, 3])
def test_optimizers_match_the_restart_loop(seed):
    f, alpha = AND3, A123
    a = np.array(alpha)
    opts = dataclasses.replace(FULL, seed=seed)
    zeros, ones = f.classes
    cert = certify(f, alpha, opts)
    assert not cert.tight

    _, q = restart_loop(_adv_step(f, a), zeros.size * ones.size, opts, True, -30.0, (0.99, 0.01))
    block = cert.lower_matrix.matrix.entries[np.ix_(zeros, ones)]
    assert np.array_equal(block, np.sqrt(q / 2.0).reshape(block.shape))
    assert cert.lower_value == adv_value(cert.lower_matrix, alpha)

    _, p = restart_loop(_mm_step(f, a), (len(f.domain), f.arity), opts, False, -60.0, (0.999, 0.001))
    assert cert.upper_witness.p == {x: tuple(p[i] / p[i].sum()) for i, x in enumerate(f.domain)}
    assert cert.upper_value == mm_value(cert.upper_witness, alpha)


def test_certify_deterministic():
    a = certify(OR2, (1.0, 1.0), FAST)
    b = certify(OR2, (1.0, 1.0), FAST)
    assert b.lower_value == a.lower_value
    assert b.upper_value == a.upper_value
    assert np.array_equal(b.lower_matrix.matrix.entries, a.lower_matrix.matrix.entries)
    assert b.upper_witness.p == a.upper_witness.p


def dense_primal_step(f, a, q, temp):
    """The ascent's value and logit gradient from full m x m eigenvectors.

    The weights sit on every pair (x, y) with f(x) = 0 < f(y) = 1, in
    row-major order, and on the mirrored pair; u and v_i are the top
    eigenvectors of Gamma and Gamma o D_i.
    """
    vals = np.array(f.values)
    xs, ys = np.where(vals[:, None] < vals[None, :])
    m, n = len(f.domain), f.arity
    masks = np.stack([difference_mask(f.domain, i).entries for i in range(1, n + 1)])
    w = np.sqrt(q / 2.0)
    g = np.zeros((m, m))
    g[xs, ys] = w
    g[ys, xs] = w
    eigvals, eigvecs = np.linalg.eigh(np.concatenate([g[None], g[None] * masks]))
    live = eigvals[:, -1] > 0
    assert np.all(eigvals[live, -1] - eigvals[live, -2] > 1e-3)  # simple top eigenvalues
    whole, u = eigvals[0, -1], eigvecs[0, :, -1]
    masked, vs = eigvals[1:, -1], eigvecs[1:, :, -1]
    finite = masked > 0
    terms = a[finite] * whole / masked[finite]
    soft = np.exp(-(terms - terms.min()) / temp)
    soft /= soft.sum()
    gw = 2.0 * float((soft * a[finite] / masked[finite]).sum()) * u[xs] * u[ys]
    coef_mask = soft * a[finite] * whole / masked[finite] ** 2
    pair_v = vs[finite][:, xs] * vs[finite][:, ys] * (masks[finite][:, xs, ys] != 0)
    gw -= 2.0 * (coef_mask[:, None] * pair_v).sum(axis=0)
    gq = gw / np.maximum(4.0 * w, 1e-150)
    return terms.min(), q * (gq - float((q * gq).sum()))


def random_table5(seed):
    values = np.random.default_rng(seed).integers(0, 2, 32)
    return BooleanFunction(5, tuple(format(k, "05b") for k in range(32)), tuple(int(v) for v in values))


@pytest.mark.parametrize(
    "f",
    [
        make_family("and", 3),  # tall block, 7 x 1
        make_family("or", 3),  # wide block, 1 x 7
        make_family("parity", 3),
        compose_functions(CompositionSpec(AND2, (OR2, OR2))),
        random_table5(11),
        BooleanFunction(2, ("00", "10", "01"), (0, 1, 1)),  # partial, 1 x 2 block
        BooleanFunction(2, ("00", "10"), (0, 1)),  # no crossing pair differs at bit 2
    ],
    ids=["and3", "or3", "parity3", "and_or_or", "random5", "partial", "dead_bit"],
)
def test_block_primal_step_matches_dense(f):
    rng = np.random.default_rng(len(f.domain))
    a = rng.uniform(0.5, 2.0, f.arity)
    step = _adv_step(f, a)
    npairs = sum(f.values) * (len(f.values) - sum(f.values))
    for _ in range(3):
        q = rng.uniform(0.2, 1.0, npairs)
        q /= q.sum()
        value, gradient = step(q)
        for temp in (1.0, 0.05):
            want_value, want = dense_primal_step(f, a, q, temp)
            assert value == pytest.approx(want_value, rel=1e-10)
            got = gradient(temp)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def flat_step(value):
    """A step factory whose objective is ``value`` everywhere, with zero gradient."""

    def make(f, a):
        return lambda p: (value, lambda temp: np.zeros_like(p))

    return make


def first_point(seed, shape):
    """The probabilities at the first step of the restart that draws from ``seed``."""
    z = 0.3 * np.random.default_rng(seed).standard_normal(shape)
    z -= z.max(axis=-1, keepdims=True)
    return np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("seed", [0, 3])
def test_restarts_keep_the_best_run_earliest_on_ties(monkeypatch, seed):
    # 40 steps never meet the gap, so each restart runs to the end, and the
    # two-restart certificate takes each side from the better one-restart run
    def opts(restarts, s):
        return SolverOptions(restarts=restarts, iterations=40, seed=s)

    first, second = (certify(AND3, A123, opts(1, s)) for s in (seed, seed + 1))
    cert = certify(AND3, A123, opts(2, seed))
    assert not (first.tight or second.tight or cert.tight)

    best = second if second.lower_value > first.lower_value else first
    assert cert.lower_value == best.lower_value
    assert np.array_equal(cert.lower_matrix.matrix.entries, best.lower_matrix.matrix.entries)

    best = second if second.upper_value < first.upper_value else first
    assert cert.upper_value == best.upper_value
    assert cert.upper_witness.p == best.upper_witness.p

    # Flat objectives 1 apart tie every step of both restarts and never meet
    # the gap: each side keeps restart 0's first point
    monkeypatch.setattr(solver, "_adv_step", flat_step(0.0))
    monkeypatch.setattr(solver, "_mm_step", flat_step(1.0))
    tied = certify(AND3, A123, opts(2, seed))
    assert tied.stop == "budget"
    zeros, ones = AND3.classes
    q = first_point(seed, zeros.size * ones.size)
    block = tied.lower_matrix.matrix.entries[np.ix_(zeros, ones)]
    assert np.allclose(block.ravel(), np.sqrt(q / 2.0), rtol=0.0, atol=1e-15)
    p = first_point(seed, (len(AND3.domain), AND3.arity))
    assert np.allclose(tied.upper_witness.matrix_rows(), p, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("ascent", [True, False], ids=["ascent", "descent"])
def test_restart_ties_go_to_the_earliest(ascent):
    # a flat objective ties every restart; restart 0 draws from the seed itself
    def flat(p):
        return 1.0, lambda temp: np.zeros_like(p)

    opts = SolverOptions(restarts=3, iterations=2, seed=5)
    search = solver._search(flat, (3, 4), opts, ascent=ascent, floor=-30.0, decay=(0.99, 0.01))
    items = list(search)
    want = first_point(5, (3, 4))
    assert len(items) == 6  # one best-so-far after every step of every restart
    for value, p in items:
        assert value == 1.0
        assert np.allclose(p, want, rtol=0.0, atol=1e-15)


def test_seed_changes_search_but_not_validity():
    alt = certify(OR2, (1.0, 1.0), SolverOptions(restarts=2, seed=7))
    assert alt.lower_value <= math.sqrt(2.0) + 1e-9 <= alt.upper_value + 2e-9


def test_optimizers_reject_large_arity(spied_steps):
    with pytest.raises(ValueError, match="arity 6 exceeds the optimizer cap 5"):
        certify(make_family("and", 6), (1.0,) * 6, FAST)
    assert spied_steps == {"adv": [], "mm": []}


def test_certificate_rejects_inverted_bracket():
    cert = certify(ID1, (1.0,), FAST)
    with pytest.raises(ValueError):
        BoundCertificate(
            function=cert.function,
            alpha=cert.alpha,
            lower_matrix=cert.lower_matrix,
            lower_value=2.0,
            upper_witness=cert.upper_witness,
            upper_value=1.0,
            options=cert.options,
            steps=cert.steps,
            stop=cert.stop,
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_certificate_rejects_non_finite_values(bad):
    cert = certify(ID1, (1.0,), FAST)
    for lower, upper in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="not finite"):
            BoundCertificate(
                function=cert.function,
                alpha=cert.alpha,
                lower_matrix=cert.lower_matrix,
                lower_value=lower,
                upper_witness=cert.upper_witness,
                upper_value=upper,
                options=cert.options,
                steps=cert.steps,
                stop=cert.stop,
            )


def test_certificate_to_dict_shape():
    cert = certify(ID1, (1.0,), FAST)
    data = json.loads(json.dumps(cert.to_dict()))
    assert set(data) == {"function", "alpha", "lower", "upper", "gap", "tight", "solver", "search"}
    assert data["lower"]["value"] == 1.0
    assert data["upper"]["witness"]["rows"][0]["p"] == [1.0]
    assert data["solver"] == {"seed": 0, "restarts": 2, "iterations": 5000, "target_gap": 1e-3}
    assert list(data["solver"]) == ["seed", "restarts", "iterations", "target_gap"]


@pytest.mark.parametrize(
    "f,alpha,opts,stop",
    [
        (OR2, (1.0, 1.0), SolverOptions(restarts=2), "gap"),
        (make_family("and", 3), (1.0, 2.0, 3.0), SolverOptions(restarts=2, iterations=150), "budget"),
        (BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1)), (1.0, 1.0), FAST, "gap"),
    ],
    ids=["gap", "budget", "empty_class"],
)
def test_certificate_reports_its_steps_and_why_it_stopped(spied_steps, f, alpha, opts, stop):
    cert = certify(f, alpha, opts)
    steps = len(spied_steps["adv"])
    assert cert.to_dict()["search"] == {"steps": steps, "stop": stop}
    assert steps == len(spied_steps["mm"])
    if stop == "budget":
        assert steps == opts.restarts * opts.iterations and not cert.tight
    elif steps:
        assert steps == first_tight_step(spied_steps, opts.target_gap) + 1 < opts.iterations
    assert certify(f, alpha, opts).to_dict()["search"] == cert.to_dict()["search"]  # deterministic


@pytest.mark.parametrize("search", [certify])
@pytest.mark.parametrize(
    "f", [OR2, BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1))], ids=["or2", "constant"]
)
def test_costs_that_sum_past_the_float_range_are_rejected_before_any_step(spied_steps, search, f):
    # The witness p_x(i) = alpha_i / sum(alpha) bounds the value by the sum;
    # past the float range the searches only overflow.
    with pytest.raises(ValueError, match="bracket not finite"):
        search(f, (1e308, 1e308), FAST)
    assert spied_steps == {"adv": [], "mm": []}


# --------------------------------------------------------------------------
# exact gate certificates


def test_gadget_and_values():
    value, gamma, witness = gadget_cost_adv("and", (3.0, 4.0))
    assert value == 5.0
    assert adv_value(gamma, (3.0, 4.0)) == pytest.approx(5.0, abs=1e-10)
    assert mm_value(witness, (3.0, 4.0)) == pytest.approx(5.0, abs=1e-12)
    e = gamma.matrix.entries
    dom = gamma.function.domain
    assert e[dom.index("01"), dom.index("11")] == 3.0
    assert e[dom.index("10"), dom.index("11")] == 4.0
    for i, beta in ((1, 3.0), (2, 4.0)):
        masked = spectral_norm(hadamard(gamma.matrix, difference_mask(dom, i))).norm
        assert masked == pytest.approx(beta, abs=1e-10)


def test_gadget_or_mirrors_and():
    value, gamma, witness = gadget_cost_adv("or", (1.0, math.sqrt(2.0)))
    assert value == pytest.approx(math.sqrt(3.0), abs=1e-12)
    e = gamma.matrix.entries
    dom = gamma.function.domain
    assert e[dom.index("10"), dom.index("00")] == 1.0
    assert e[dom.index("01"), dom.index("00")] == math.sqrt(2.0)
    assert witness.p["10"] == (1.0, 0.0)
    assert witness.p["01"] == (0.0, 1.0)
    assert witness.p["00"] == witness.p["11"] == (pytest.approx(1.0 / 3.0), pytest.approx(2.0 / 3.0))


def test_gadget_witness_split():
    _, _, witness = gadget_cost_adv("and", (3.0, 4.0))
    assert witness.p["11"] == (pytest.approx(9.0 / 25.0), pytest.approx(16.0 / 25.0))
    assert witness.p["00"] == witness.p["11"]
    assert witness.p["01"] == (1.0, 0.0)
    assert witness.p["10"] == (0.0, 1.0)


def test_gadget_witness_split_is_the_unscaled_formula():
    # The costs are scaled by a common power of two before they are squared;
    # that is exact, so the split keeps the bits of b * b / (value * value).
    rng = np.random.default_rng(5)
    for b1, b2 in rng.uniform(0.05, 20.0, (2000, 2)):
        b1, b2 = float(b1), float(b2)
        value = math.hypot(b1, b2)
        _, _, witness = gadget_cost_adv("or", (b1, b2))
        assert witness.p["00"] == (b1 * b1 / (value * value), b2 * b2 / (value * value))


@pytest.mark.parametrize("beta", [(1e200, 1e200), (1e-200, 1e-200), (1e300, 1e-300)])
def test_gadget_witness_survives_extreme_costs(beta):
    value, gamma, witness = gadget_cost_adv("and", beta)
    assert value == math.hypot(*beta)
    assert np.all(np.isfinite(witness.matrix_rows()))
    split = witness.p["11"]
    assert sum(split) == pytest.approx(1.0, abs=1e-15)
    if beta[0] == beta[1]:
        assert split == (0.5, 0.5)


def test_gadget_and_readonce_reject_an_overflowing_value():
    with pytest.raises(ValueError, match="gadget value not finite"):
        gadget_cost_adv("and", (1.7e308, 1.7e308))
    with pytest.raises(ValueError, match="readonce value not finite"):
        readonce_bound(parse_formula("x1 | (x2 & x3)"), (1.7e308, 1.7e308, 1.0))


def test_gadget_rejects_bad_input():
    with pytest.raises(ValueError):
        gadget_cost_adv("xor", (1.0, 1.0))
    with pytest.raises(ValueError):
        gadget_cost_adv("and", (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        gadget_cost_adv("and", (1.0, -1.0))


# --------------------------------------------------------------------------
# read-once recursion


def test_readonce_simple_gate():
    value, trace = readonce_bound(parse_formula("x1 & x2"), (1.0, 1.0))
    assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert trace["op"] == "and"
    assert trace["left"] == {"op": "var", "index": 1, "value": 1.0}


def test_readonce_weighted_tree():
    value, trace = readonce_bound(parse_formula("(x1 | x2) & ~x3"), (3.0, 4.0, 12.0))
    assert value == 13.0
    assert trace["right"]["op"] == "not"
    assert trace["right"]["child"] == {"op": "var", "index": 3, "value": 12.0}
    assert trace["left"]["value"] == 5.0


def test_readonce_balanced_tree_is_sqrt_n():
    value, _ = readonce_bound(parse_formula("(x1 & x2) | (x3 & x4)"), (1.0,) * 4)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_readonce_rejects_bad_formulas():
    with pytest.raises(ValueError):
        readonce_bound(parse_formula("x1 & x1"), (1.0,))
    with pytest.raises(ValueError):
        readonce_bound(parse_formula("x1 & x3"), (1.0, 1.0))
    with pytest.raises(ValueError):
        readonce_bound(parse_formula("x1 & x2"), (1.0, 1.0, 1.0))


def test_readonce_matches_certify():
    cert = certify(OR2, (2.0, 3.0), FAST)
    value, _ = readonce_bound(parse_formula("x1 | x2"), (2.0, 3.0))
    assert cert.lower_value <= value + 1e-9
    assert value <= cert.upper_value + 1e-9


# --------------------------------------------------------------------------
# composition and iteration reports


def test_verify_composition_and_of_ors():
    spec = CompositionSpec(AND2, (OR2, OR2))
    report = verify_composition(spec, (1.0,) * 4, FAST)
    assert report.ok
    assert report.direct_cert is not None
    assert report.lhs_midpoint == pytest.approx(2.0, abs=2e-2)
    assert report.rhs_midpoint == pytest.approx(2.0, abs=2e-2)
    assert report.beta.costs == tuple(c.midpoint for c in report.inner_certs)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["ok"] is True
    assert set(data["checks"]) == {"main", "chain_lower", "chain_upper", "scaled"}


@pytest.mark.parametrize(
    "alpha,calls", [((1.0, 1.0, 1.0, 1.0), 4), ((1.0, 1.0, 2.0, 2.0), 5)], ids=["repeat", "distinct"]
)
def test_verify_composition_certifies_repeated_inner_once(monkeypatch, alpha, calls):
    spec = CompositionSpec(AND2, (OR2, OR2))
    opts = SolverOptions(restarts=1, iterations=300)
    seen = []
    real = solver.certify

    def counting(f, costs, o):
        seen.append((f, costs))
        return real(f, costs, o)

    monkeypatch.setattr(solver, "certify", counting)
    report = verify_composition(spec, alpha, opts)
    assert len(seen) == calls  # inner (once per distinct block), outer, direct, unit outer
    assert (report.inner_certs[0] is report.inner_certs[1]) == (calls == 4)
    monkeypatch.setattr(solver, "certify", real)
    inner = [certify(OR2, alpha[:2], opts), certify(OR2, alpha[2:], opts)]
    assert [c.to_dict() for c in report.inner_certs] == [c.to_dict() for c in inner]


def test_verify_composition_mixed_arity():
    spec = CompositionSpec(AND2, (AND2, ID1))
    report = verify_composition(spec, (1.0,) * 3, FAST)
    assert report.ok
    assert report.lhs_midpoint == pytest.approx(math.sqrt(3.0), abs=2e-2)
    assert report.rhs_midpoint == pytest.approx(math.sqrt(3.0), abs=2e-2)


def test_verify_composition_beyond_cap_uses_composed_bracket():
    spec = CompositionSpec(make_family("and", 3), (OR2, OR2, OR2))
    report = verify_composition(spec, (1.0,) * 6, FAST)
    assert report.direct_cert is None
    assert report.lhs_lower == report.composed_lower
    assert report.lhs_upper == report.composed_upper
    assert report.ok
    assert report.lhs_midpoint == pytest.approx(math.sqrt(6.0), abs=5e-2)
    assert json.loads(json.dumps(report.to_dict()))["direct"] is None


def test_verify_composition_checks_alpha_length():
    spec = CompositionSpec(AND2, (OR2, OR2))
    with pytest.raises(ValueError):
        verify_composition(spec, (1.0,) * 3, FAST)


def test_verify_iteration_nand_squared():
    report = verify_iteration(NAND2, 2, FAST)
    assert report.ok
    assert report.depth == 2
    assert report.iterated_cert.lower_value <= 2.0 + 1e-9
    assert 2.0 <= report.iterated_cert.upper_value + 1e-9
    assert report.power_lower == report.base_cert.lower_value**2
    data = json.loads(json.dumps(report.to_dict()))
    assert data["ok"] is True and data["depth"] == 2


def test_verify_iteration_depth_one_is_trivial():
    report = verify_iteration(NAND2, 1, FAST)
    assert report.ok
    assert report.iterated_cert.lower_value == report.base_cert.lower_value
    assert report.power_upper == report.base_cert.upper_value


def test_verify_iteration_rejects_bad_depth():
    with pytest.raises(ValueError):
        verify_iteration(NAND2, 0, FAST)
    with pytest.raises(ValueError):
        verify_iteration(NAND2, 3, FAST)  # arity 8 exceeds the optimizer cap


def test_verify_iteration_checks_the_iterate_before_any_certify(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the iterate must be checked before any certify")

    monkeypatch.setattr(solver, "certify", no_work)
    partial = BooleanFunction(2, ("00", "01", "11"), (0, 1, 1))
    with pytest.raises(ValueError, match="iteration requires a total function"):
        verify_iteration(partial, 2, FAST)
    with pytest.raises(ValueError, match="arity 8 exceeds the optimizer cap 5"):
        verify_iteration(NAND2, 3, FAST)
    with pytest.raises(ValueError, match="iterated arity 16 exceeds the cap 12"):
        verify_iteration(NAND2, 4, FAST)
    with pytest.raises(ValueError, match="arity 6 exceeds the optimizer cap 5"):
        verify_iteration(make_family("and", 6), 1, FAST)


def test_verify_iteration_depth_checked_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the depth cap must hold before any certify")

    monkeypatch.setattr(solver, "certify", no_work)
    for f, d in ((ID1, 10**9), (NAND2, 100000)):
        with pytest.raises(ValueError, match=f"depth {d} exceeds the cap 12"):
            verify_iteration(f, d, FAST)
