"""The barrier path, exact gate certificates, and the verification reports."""

import collections
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from advbound import solver
from advbound.adversary import (
    CostVector,
    MinimaxWitness,
    adv_value,
    mm_value,
    uniform_witness,
    validate,
    zero_gamma,
)
from advbound.boolfn import (
    BooleanFunction,
    CompositionSpec,
    compose_functions,
    iterate_function,
    make_family,
    parse_formula,
)
from advbound.solver import (
    SolverOptions,
    certify,
    gadget_cost_adv,
    readonce_bound,
    verify_composition,
    verify_iteration,
)
from advbound.specmat import RESIDUAL_TOL, block_norms, spectral_norm
from conftest import difference_mask, hadamard, witness_rows

AND2 = make_family("and", 2)
OR2 = make_family("or", 2)
PARITY2 = make_family("parity", 2)
NAND2 = make_family("nand", 2)
ID1 = make_family("id", 1)

AND3, A123 = make_family("and", 3), (1.0, 2.0, 3.0)

#: A target no double-precision bracket meets: the path runs to its end.
TO_THE_END = SolverOptions(target_gap=1e-12)


def search5() -> BooleanFunction:
    """The 5-bit search promise: 00000 against the five one-hot inputs."""
    rows = ("00000", "10000", "01000", "00100", "00010", "00001")
    return BooleanFunction(5, rows, tuple(int(x != "00000") for x in rows))


@pytest.fixture
def rounds(monkeypatch):
    """Every round the barrier path yields, as (steps, lambda, p), in order."""
    seen = []
    real = solver._path

    def spied(f, alpha):
        for item in real(f, alpha):
            seen.append(item)
            yield item

    monkeypatch.setattr(solver, "_path", spied)
    return seen


def scored(f, alpha, seen):
    """The lower and upper value of every round's weight matrix and witness."""
    lows = [adv_value(solver._gamma_from(f, lam), alpha) for _, lam, _ in seen]
    ups = [mm_value(solver._witness_from(f, p), alpha) for _, _, p in seen]
    return lows, ups


def first_tight_round(lows, ups, gap):
    """The first round at which the best values so far meet the gap."""
    best = np.minimum.accumulate(ups) - np.maximum.accumulate(lows)
    return int(np.flatnonzero(best <= gap)[0])


def test_options_validation():
    assert [field.name for field in dataclasses.fields(SolverOptions)] == ["target_gap"]
    for gap in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverOptions(target_gap=gap)


def test_options_are_exactly_the_reported_settings():
    # A setting that the certificate does not report cannot be reproduced
    # from it; a new field fails here until to_dict() reports it too.
    opts = SolverOptions(target_gap=0.5)
    reported = certify(OR2, (1.0, 1.0), opts).to_dict()["solver"]
    assert reported == dataclasses.asdict(opts)


def test_certify_id_is_exact():
    cert = certify(ID1, (1.0,))
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
    cert = certify(f, alpha)
    assert cert.lower_value <= truth + 1e-9
    assert truth <= cert.upper_value + 1e-9
    assert cert.gap <= 1e-3


def assert_closes_around(cert, truth):
    assert cert.stop == "gap" and cert.tight
    assert cert.lower_value <= truth * (1 + 1e-12)
    assert truth <= cert.upper_value * (1 + 1e-12)


#: The other functions of the benchmark's certify workload, at their exact values.
EXACT = {
    "or2": (OR2, (1.0, 1.0), math.sqrt(2.0)),
    "parity3": (make_family("parity", 3), (1.0,) * 3, 3.0),
    "search5_a12121": (search5(), (1.0, 2.0, 1.0, 2.0, 1.0), math.sqrt(11.0)),
    "nand2_squared": (iterate_function(NAND2, 2), (1.0,) * 4, 2.0),
}


@pytest.mark.parametrize("f,alpha,truth", EXACT.values(), ids=EXACT.keys())
def test_certify_closes_around_the_exact_value(f, alpha, truth):
    assert_closes_around(certify(f, alpha), truth)


@pytest.mark.parametrize(
    "f,alpha,truth",
    [
        (AND3, A123, math.sqrt(14.0)),
        (compose_functions(CompositionSpec(AND2, (OR2, OR2))), (1.0,) * 4, 2.0),
    ],
    ids=["and3_a123", "and_or_or"],
)
def test_certify_is_tight_on_weighted_and3_and_and_of_ors(f, alpha, truth):
    assert_closes_around(certify(f, alpha), truth)


def test_certify_constant_function():
    f = BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1))
    cert = certify(f, (1.0, 1.0))
    assert cert.lower_value == 0.0 and cert.upper_value == 0.0


def test_certify_lower_side_returns_feasible_certificate():
    cert = certify(AND3, A123)
    assert validate(cert.lower_matrix).ok
    assert cert.lower_value == adv_value(cert.lower_matrix, A123)
    assert cert.lower_value <= math.sqrt(14.0) + 1e-9


def test_certify_upper_side_returns_feasible_certificate():
    cert = certify(AND3, A123)
    assert cert.upper_value == mm_value(cert.upper_witness, A123)
    assert cert.upper_value >= math.sqrt(14.0) - 1e-9


def test_stop_at_short_circuits(rounds):
    # a loose gap is met rounds before the default one
    loose = certify(OR2, (1.0, 1.0), SolverOptions(target_gap=0.5))
    loose_rounds = len(rounds)
    cert = certify(OR2, (1.0, 1.0))
    assert loose_rounds < len(rounds) - loose_rounds
    assert loose.steps < cert.steps
    assert loose.tight and loose.stop == "gap"
    assert loose.lower_value <= math.sqrt(2.0) + 1e-9 <= loose.upper_value + 2e-9


@pytest.mark.parametrize("f", [OR2, make_family("parity", 3)], ids=["or2", "parity3"])
def test_tight_certify_stops_at_the_first_step_that_meets_the_gap(rounds, f):
    alpha = (1.0,) * f.arity
    cert = certify(f, alpha)
    lows, ups = scored(f, alpha, rounds)
    assert len(rounds) == first_tight_round(lows, ups, cert.options.target_gap) + 1
    assert cert.tight and cert.stop == "gap"
    assert cert.steps == rounds[-1][0]
    # each side is its best round's, the earliest on ties
    assert cert.lower_value == max(lows) and cert.upper_value == min(ups)
    assert np.array_equal(
        cert.lower_matrix.matrix.entries,
        solver._gamma_from(f, rounds[lows.index(max(lows))][1]).matrix.entries,
    )
    assert np.array_equal(
        cert.upper_witness.p, solver._witness_from(f, rounds[ups.index(min(ups))][2]).p
    )


def test_witness_from_matches_the_per_row_division():
    # One division by the column of row sums gives the bits of dividing each
    # row by its own sum, as the label-dict route did.
    rng = np.random.default_rng(7)
    for arity in range(1, 6):
        f = make_family("parity", arity)
        for _ in range(200):
            p = rng.uniform(0.0, 1.0, (len(f.domain), arity)) ** rng.uniform(1.0, 30.0)
            want = MinimaxWitness(f, {x: tuple(p[i] / p[i].sum()) for i, x in enumerate(f.domain)})
            assert np.array_equal(solver._witness_from(f, p).p, want.p)


def path_rounds(f):
    """The number of rounds of the full path: tau = 8**r until (pairs + entries)/tau <= 2**-52."""
    zeros, ones = f.classes
    terms = zeros.size * ones.size + len(f.domain) * f.arity
    return next(r for r in itertools.count() if terms / solver.TAU_GROWTH**r <= 2.0**-52) + 1


def test_untight_certify_runs_the_path_to_its_end(rounds):
    cert = certify(AND3, A123, TO_THE_END)
    assert cert.stop == "end" and not cert.tight
    assert len(rounds) == path_rounds(AND3)
    assert cert.steps == rounds[-1][0]
    # the bracket lies inside the default one, which stopped rounds earlier
    default = certify(AND3, A123)
    assert default.lower_value <= cert.lower_value <= math.sqrt(14.0) * (1 + 1e-12)
    assert math.sqrt(14.0) <= cert.upper_value * (1 + 1e-12) <= default.upper_value * (1 + 1e-12)
    assert cert.gap < default.gap / 100


def test_certify_keeps_the_best_round_not_the_last(rounds):
    # the weight matrix read off raw multipliers peaks and then degrades as
    # the slacks near the rounding of S; the certificate keeps the peak
    cert = certify(AND3, A123, TO_THE_END)
    lows, ups = scored(AND3, CostVector(A123), rounds)
    assert cert.lower_value == max(lows) > lows[-1] + 1e-3
    assert cert.upper_value == min(ups)


def random_table(rng, n, partial):
    """A random table on n bits with both outputs; a partial one keeps each row with probability 0.6."""
    while True:
        keep = rng.random(2**n) < (0.6 if partial else 1.0)
        values = rng.integers(0, 2, 2**n)
        rows = [k for k in range(2**n) if keep[k]]
        if len({int(values[k]) for k in rows}) == 2:
            domain = tuple(format(k, f"0{n}b") for k in rows)
            return BooleanFunction(n, domain, tuple(int(values[k]) for k in rows))


SWEEP = np.random.default_rng(2024)
TABLES = [
    (random_table(SWEEP, n, partial), tuple(float(c) for c in SWEEP.uniform(0.5, 2.0, n)))
    for n in (2, 3, 4, 5)
    for partial in (False, True)
    for _ in range(5)
]


def test_random_tables_close_and_the_full_path_stays_inside():
    for f, alpha in TABLES:
        cert = certify(f, alpha)
        assert cert.stop == "gap" and cert.tight, (f, alpha, cert.gap)
        assert cert.lower_value == adv_value(cert.lower_matrix, alpha)
        assert cert.upper_value == mm_value(cert.upper_witness, alpha)
        end = certify(f, alpha, TO_THE_END)
        assert cert.lower_value <= end.lower_value <= end.upper_value + 1e-12
        assert end.upper_value <= cert.upper_value, (f, alpha)


def loop_slack(f, alpha, p, lam):
    """Reference: S_xy - 1/lambda_xy for every crossing pair, pair by pair."""
    zeros, ones = f.classes
    out = np.empty(lam.shape)
    for r, x in enumerate(zeros):
        for c, y in enumerate(ones):
            s = sum(
                math.sqrt(p[x, i] * p[y, i]) / alpha[i]
                for i in range(f.arity)
                if f.domain[x][i] != f.domain[y][i]
            )
            out[r, c] = s - 1.0 / lam[r, c]
    return out


@pytest.mark.parametrize(
    "f",
    [
        make_family("and", 3),  # tall block, 7 x 1
        make_family("or", 3),  # wide block, 1 x 7
        make_family("parity", 3),
        compose_functions(CompositionSpec(AND2, (OR2, OR2))),
        random_table(np.random.default_rng(11), 5, False),
        BooleanFunction(2, ("00", "10", "01"), (0, 1, 1)),  # partial, 1 x 2 block
        BooleanFunction(2, ("00", "10"), (0, 1)),  # no crossing pair differs at bit 2
    ],
    ids=["and3", "or3", "parity3", "and_or_or", "random5", "partial", "dead_bit"],
)
def test_rounds_end_on_the_central_path(rounds, f):
    # At the centre for weight tau, with g_x(i) = 1 + sum_y lambda_xy c_xyi / 2
    # the scaled gradient of the barrier in p_x(i): g_x(i) / p_x(i) is the
    # same for every bit of a row (the row's multiplier), and tau = t sum lambda.
    rng = np.random.default_rng(len(f.domain))
    alpha = tuple(float(c) for c in rng.uniform(0.5, 2.0, f.arity))
    certify(f, alpha, TO_THE_END)
    a = np.ldexp(np.array(alpha), -math.frexp(max(alpha))[1])
    zeros, ones = f.classes
    for r, (_, lam, p) in enumerate(rounds[:8]):
        t = loop_slack(f, a, p, lam)
        assert np.allclose(t, t.flat[0], rtol=1e-9, atol=0.0)  # one t for all pairs
        t = float(t.flat[0])
        assert t * lam.sum() == pytest.approx(solver.TAU_GROWTH**r, rel=1e-4)
        g = np.ones(p.shape)
        for (row, x), (col, y) in itertools.product(enumerate(zeros), enumerate(ones)):
            for i in range(f.arity):
                if f.domain[x][i] != f.domain[y][i]:
                    half = lam[row, col] * math.sqrt(p[x, i] * p[y, i]) / a[i] / 2.0
                    g[x, i] += half
                    g[y, i] += half
        mult = g / p
        assert np.allclose(mult, mult[:, :1], rtol=1e-4, atol=0.0), r


def dense_step(f, alpha, p, t, tau):
    """Reference: the scaled Newton step (du, dv) at (p, t), with p in domain
    order, and its squared decrement, from the whole KKT system assembled
    densely: the variables p row-major, then t, then one multiplier per row."""
    zeros, ones = f.classes
    rows, n = p.shape
    a = np.array(alpha)
    a = np.maximum(np.ldexp(a, -math.frexp(a.max())[1]), solver.COST_FLOOR)
    w = (f.bits[zeros][:, None, :] != f.bits[ones][None, :, :]) / a
    c = w * np.sqrt(p[zeros][:, None, :] * p[ones][None, :, :])
    lam = 1.0 / (c.sum(axis=2) - t)
    k = rows * n  # index of t
    zi = zeros[:, None] * n + np.arange(n)
    oi = ones[:, None] * n + np.arange(n)
    owner = np.repeat(np.arange(rows), n)
    h = c * (lam / 2.0)[:, :, None]
    ht = -t * lam
    grad = np.ones(k + 1)
    grad[zi] += h.sum(axis=1)
    grad[oi] += h.sum(axis=0)
    grad[k] = tau + ht.sum()
    kkt = np.zeros((k + 1 + rows,) * 2)
    kkt[zi[:, :, None], zi[:, None, :]] = np.einsum("xyi,xyj->xij", h, h)
    kkt[oi[:, :, None], oi[:, None, :]] = np.einsum("xyi,xyj->yij", h, h)
    cross = np.einsum("xyi,xyj->xiyj", h, h)
    kkt[zi[:, :, None, None], oi] = cross
    kkt[oi[:, :, None, None], zi] = cross.transpose(2, 3, 0, 1)
    kkt[zi, k] = kkt[k, zi] = np.einsum("xyi,xy->xi", h, ht)
    kkt[oi, k] = kkt[k, oi] = np.einsum("xyi,xy->yi", h, ht)
    kkt[k, k] = (ht * ht).sum() + tau
    kkt[zi, zi] += 1.0 + h.sum(axis=1) / 2.0
    kkt[oi, oi] += 1.0 + h.sum(axis=0) / 2.0
    kkt[zi[:, None, :], oi[None, :, :]] -= h / 2.0
    kkt[oi[None, :, :], zi[:, None, :]] -= h / 2.0
    kkt[k + 1 + owner, np.arange(k)] = kkt[np.arange(k), k + 1 + owner] = p.ravel()
    step = np.linalg.solve(kkt, np.concatenate([grad, 1.0 - p.sum(axis=1)]))[: k + 1]
    return step[:k].reshape(p.shape), step[k], float(grad @ step)


def eliminated_step(bar, p, t, tau):
    """The step of ``_Barrier.newton`` at (p, t), with p and du in domain order."""
    q = p[bar.order]
    du, dv, dec = bar.newton(q, t, tau, *bar.slacks(q, t))
    out = np.empty_like(du)
    out[bar.order] = du
    return out, dv, dec


RANDOM5 = random_table(np.random.default_rng(11), 5, False)  # classes of 18 and 14

#: One case of each shape of the eliminated system.
STEP_CASES = {
    "or2": (OR2, (1.0, 1.0)),  # m0 = 1: the three rows of f^-1(1) are eliminated
    "and3_a123": (AND3, A123),
    "parity3": (make_family("parity", 3), (1.0,) * 3),  # m0 = m1
    "search5_a12121": (search5(), (1.0, 2.0, 1.0, 2.0, 1.0)),
    "random5": (RANDOM5, (1.0,) * 5),
    "random5_negated": (
        BooleanFunction(5, RANDOM5.domain, tuple(1 - v for v in RANDOM5.values)),
        (1.0,) * 5,
    ),
    "partial4": (random_table(np.random.default_rng(3), 4, True), (0.5, 1.0, 1.5, 2.0)),
}


@pytest.mark.parametrize("f,alpha", STEP_CASES.values(), ids=STEP_CASES.keys())
def test_eliminated_step_matches_the_dense_kkt_solve(f, alpha):
    zeros, ones = f.classes
    bar = solver._Barrier(f, CostVector(alpha))
    assert bar.flip == (ones.size > zeros.size)  # the larger class is eliminated
    a = np.ldexp(np.array(alpha), -math.frexp(max(alpha))[1])
    # The start of the path, a point whose rows do not sum to one, and the
    # first step of each of the next rounds: at the end of a round, where t
    # is read off the multipliers, with tau grown.
    rows, n = len(f.domain), f.arity
    p = np.full((rows, n), 1.0 / n)
    start = float(loop_slack(f, a, p, np.full((zeros.size, ones.size), np.inf)).min())
    drift = np.random.default_rng(rows).uniform(0.05, 1.0, (rows, n))
    least = float(loop_slack(f, a, drift, np.full((zeros.size, ones.size), np.inf)).min())
    points = [(p, start / 2.0, 1.0), (drift, 0.3 * least, solver.TAU_GROWTH**3)]
    for r, (_, lam, p) in zip(range(6), solver._path(f, CostVector(alpha))):
        points.append((p, float(loop_slack(f, a, p, lam).min()), solver.TAU_GROWTH ** (r + 1)))
    for p, t, tau in points:
        du, dv, dec = eliminated_step(bar, p, t, tau)
        want_du, want_dv, want_dec = dense_step(f, alpha, p, t, tau)
        got, want = np.append(du, dv), np.append(want_du, want_dv)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), tau
        assert dec == pytest.approx(want_dec, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("f", [OR2, RANDOM5], ids=["or2", "random5"])
def test_certify_solves_once_per_round_and_builds_only_the_kept_certificates(
    rounds, monkeypatch, f
):
    # Each round is scored from arrays with one stacked eigensolve; the
    # weight matrix and the witness are built once, from the kept rounds.
    real_gamma_from, real_witness_from = solver._gamma_from, solver._witness_from
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(solver, "_gamma_from", counted("_gamma_from", real_gamma_from))
    monkeypatch.setattr(solver, "_witness_from", counted("_witness_from", real_witness_from))
    cert = certify(f, (1.0,) * f.arity)
    assert cert.rounds == len(rounds) > 1
    assert calls == {"eigh": len(rounds), "_gamma_from": 1, "_witness_from": 1}
    kept_gamma = real_gamma_from(f, rounds[cert.lower_round - 1][1])
    kept_witness = real_witness_from(f, rounds[cert.upper_round - 1][2])
    assert np.array_equal(cert.lower_matrix.matrix.entries, kept_gamma.matrix.entries)
    assert np.array_equal(cert.upper_witness.p, kept_witness.p)


@pytest.mark.parametrize(
    "f",
    [
        BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1)),
        BooleanFunction(2, ("00", "11"), (0, 0)),
    ],
    ids=["constant", "partial"],
)
def test_certify_with_an_empty_class_takes_no_step(rounds, f):
    cert = certify(f, (1.0, 1.0))
    assert rounds == [] and cert.steps == 0 and cert.stop == "gap"
    assert cert.lower_value == cert.upper_value == 0.0
    assert np.array_equal(cert.lower_matrix.matrix.entries, zero_gamma(f).matrix.entries)
    assert np.array_equal(cert.upper_witness.p, uniform_witness(f).p)


def test_certify_deterministic():
    a = certify(random_table(np.random.default_rng(11), 5, False), (1.0,) * 5)
    b = certify(a.function, (1.0,) * 5)
    assert b.lower_value == a.lower_value
    assert b.upper_value == a.upper_value
    assert np.array_equal(b.lower_matrix.matrix.entries, a.lower_matrix.matrix.entries)
    assert np.array_equal(b.upper_witness.p, a.upper_witness.p)
    assert b.to_dict() == a.to_dict()


def test_optimizers_reject_large_arity(rounds):
    with pytest.raises(ValueError, match="arity 6 exceeds the optimizer cap 5"):
        certify(make_family("and", 6), (1.0,) * 6)
    assert rounds == []


def test_certificate_rejects_inverted_bracket():
    cert = certify(ID1, (1.0,))
    with pytest.raises(ValueError):
        dataclasses.replace(cert, lower_value=2.0, upper_value=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_certificate_rejects_non_finite_values(bad):
    cert = certify(ID1, (1.0,))
    for lower, upper in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="not finite"):
            dataclasses.replace(cert, lower_value=lower, upper_value=upper)


def test_certificate_to_dict_shape():
    cert = certify(ID1, (1.0,))
    data = json.loads(json.dumps(cert.to_dict()))
    assert set(data) == {"function", "alpha", "lower", "upper", "gap", "tight", "solver", "search"}
    assert data["lower"]["value"] == 1.0
    assert data["upper"]["witness"]["rows"][0]["p"] == [1.0]
    assert data["solver"] == {"target_gap": 1e-3}


@pytest.mark.parametrize(
    "f,alpha,opts,stop",
    [
        (OR2, (1.0, 1.0), SolverOptions(), "gap"),
        (AND3, A123, TO_THE_END, "end"),
        (BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1)), (1.0, 1.0), SolverOptions(), "gap"),
    ],
    ids=["gap", "end", "empty_class"],
)
def test_certificate_reports_its_steps_and_why_it_stopped(rounds, f, alpha, opts, stop):
    cert = certify(f, alpha, opts)
    steps = rounds[-1][0] if rounds else 0
    lows, ups = scored(f, alpha, rounds)
    # each side's round, counted from 1: its best, the earliest on ties
    lower_round = lows.index(max(lows)) + 1 if rounds else 0
    upper_round = ups.index(min(ups)) + 1 if rounds else 0
    # the largest residual of the norms that scored the kept weight matrix:
    # its crossing block B and each B o D_i, solved as one stack
    residual = 0.0
    if rounds:
        block = solver._weights(rounds[lower_round - 1][1])
        zeros, ones = f.classes
        masks = f.bits[zeros].T[:, :, None] != f.bits[ones].T[:, None, :]
        residual = max(block_norms(np.concatenate([block[None], block * masks]))[2])
    assert cert.to_dict()["search"] == {
        "steps": steps,
        "stop": stop,
        "rounds": len(rounds),
        "lower_round": lower_round,
        "upper_round": upper_round,
        "residual": residual,
    }
    # lambda_xy / sqrt(Lambda_x Lambda_y) has norm 1, and its masks at most 1
    assert 0.0 <= residual <= RESIDUAL_TOL
    if stop == "end":
        assert len(rounds) == path_rounds(f) and not cert.tight
        assert lower_round < len(rounds)  # the lower side peaked before the end
    elif rounds:
        assert len(rounds) == first_tight_round(lows, ups, opts.target_gap) + 1
        assert len(rounds) in (lower_round, upper_round)  # the last round closed the gap
    assert certify(f, alpha, opts).to_dict()["search"] == cert.to_dict()["search"]  # deterministic


@pytest.mark.parametrize("search", [certify])
@pytest.mark.parametrize(
    "f", [OR2, BooleanFunction(2, ("00", "01", "10", "11"), (1, 1, 1, 1))], ids=["or2", "constant"]
)
def test_costs_that_sum_past_the_float_range_are_rejected_before_any_step(rounds, search, f):
    # The witness p_x(i) = alpha_i / sum(alpha) bounds the value by the sum;
    # past the float range the bracket cannot be finite.
    with pytest.raises(ValueError, match="bracket not finite"):
        search(f, (1e308, 1e308))
    assert rounds == []


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
    rows = witness_rows(witness)
    assert rows["10"] == (1.0, 0.0)
    assert rows["01"] == (0.0, 1.0)
    assert rows["00"] == rows["11"] == (pytest.approx(1.0 / 3.0), pytest.approx(2.0 / 3.0))


def test_gadget_witness_split():
    _, _, witness = gadget_cost_adv("and", (3.0, 4.0))
    rows = witness_rows(witness)
    assert rows["11"] == (pytest.approx(9.0 / 25.0), pytest.approx(16.0 / 25.0))
    assert rows["00"] == rows["11"]
    assert rows["01"] == (1.0, 0.0)
    assert rows["10"] == (0.0, 1.0)


def test_gadget_witness_split_is_the_unscaled_formula():
    # The costs are scaled by a common power of two before they are squared;
    # that is exact, so the split keeps the bits of b * b / (value * value).
    rng = np.random.default_rng(5)
    for b1, b2 in rng.uniform(0.05, 20.0, (2000, 2)):
        b1, b2 = float(b1), float(b2)
        value = math.hypot(b1, b2)
        _, _, witness = gadget_cost_adv("or", (b1, b2))
        assert witness_rows(witness)["00"] == (b1 * b1 / (value * value), b2 * b2 / (value * value))


@pytest.mark.parametrize("beta", [(1e200, 1e200), (1e-200, 1e-200), (1e300, 1e-300)])
def test_gadget_witness_survives_extreme_costs(beta):
    value, gamma, witness = gadget_cost_adv("and", beta)
    assert value == math.hypot(*beta)
    assert np.all(np.isfinite(witness.matrix_rows()))
    split = witness_rows(witness)["11"]
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
    cert = certify(OR2, (2.0, 3.0))
    value, _ = readonce_bound(parse_formula("x1 | x2"), (2.0, 3.0))
    assert cert.lower_value <= value + 1e-9
    assert value <= cert.upper_value + 1e-9


# --------------------------------------------------------------------------
# composition and iteration reports


def test_verify_composition_and_of_ors():
    spec = CompositionSpec(AND2, (OR2, OR2))
    report = verify_composition(spec, (1.0,) * 4)
    assert report.ok
    assert report.direct_cert is not None
    assert report.lhs_midpoint == pytest.approx(2.0, abs=2e-2)
    assert report.rhs_midpoint == pytest.approx(2.0, abs=2e-2)
    assert report.beta.costs == tuple(c.midpoint for c in report.inner_certs)
    gaps = report.outer_cert.gap + report.direct_cert.gap + sum(c.gap for c in report.inner_certs)
    assert report.tolerance == gaps + solver.VERIFY_SLACK
    data = json.loads(json.dumps(report.to_dict()))
    assert data["ok"] is True
    assert set(data["checks"]) == {"main", "chain_lower", "chain_upper", "scaled"}


@pytest.mark.parametrize(
    "alpha,calls", [((1.0, 1.0, 1.0, 1.0), 4), ((1.0, 1.0, 2.0, 2.0), 5)], ids=["repeat", "distinct"]
)
def test_verify_composition_certifies_repeated_inner_once(monkeypatch, alpha, calls):
    spec = CompositionSpec(AND2, (OR2, OR2))
    opts = SolverOptions()
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
    report = verify_composition(spec, (1.0,) * 3)
    assert report.ok
    assert report.lhs_midpoint == pytest.approx(math.sqrt(3.0), abs=2e-2)
    assert report.rhs_midpoint == pytest.approx(math.sqrt(3.0), abs=2e-2)


def test_verify_composition_beyond_cap_uses_composed_bracket():
    spec = CompositionSpec(make_family("and", 3), (OR2, OR2, OR2))
    report = verify_composition(spec, (1.0,) * 6)
    assert report.direct_cert is None
    assert report.lhs_lower == report.composed_lower
    assert report.lhs_upper == report.composed_upper
    lhs_gap = report.composed_upper - report.composed_lower
    gaps = report.outer_cert.gap + lhs_gap + sum(c.gap for c in report.inner_certs)
    assert report.tolerance == gaps + solver.VERIFY_SLACK
    assert report.ok
    assert report.lhs_midpoint == pytest.approx(math.sqrt(6.0), abs=5e-2)
    assert json.loads(json.dumps(report.to_dict()))["direct"] is None


def test_verify_composition_checks_alpha_length():
    spec = CompositionSpec(AND2, (OR2, OR2))
    with pytest.raises(ValueError):
        verify_composition(spec, (1.0,) * 3)


def test_verify_iteration_nand_squared():
    report = verify_iteration(NAND2, 2)
    assert report.ok
    assert report.depth == 2
    assert report.iterated_cert.lower_value <= 2.0 + 1e-9
    assert 2.0 <= report.iterated_cert.upper_value + 1e-9
    assert report.power_lower == report.base_cert.lower_value**2
    data = json.loads(json.dumps(report.to_dict()))
    assert data["ok"] is True and data["depth"] == 2


def test_verify_iteration_depth_one_is_trivial():
    report = verify_iteration(NAND2, 1)
    assert report.ok
    assert report.iterated_cert.lower_value == report.base_cert.lower_value
    assert report.power_upper == report.base_cert.upper_value


def test_verify_iteration_rejects_bad_depth():
    with pytest.raises(ValueError):
        verify_iteration(NAND2, 0)
    with pytest.raises(ValueError):
        verify_iteration(NAND2, 3)  # arity 8 exceeds the optimizer cap


def test_verify_iteration_checks_the_iterate_before_any_certify(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the iterate must be checked before any certify")

    monkeypatch.setattr(solver, "certify", no_work)
    partial = BooleanFunction(2, ("00", "01", "11"), (0, 1, 1))
    with pytest.raises(ValueError, match="iteration requires a total function"):
        verify_iteration(partial, 2)
    with pytest.raises(ValueError, match="arity 8 exceeds the optimizer cap 5"):
        verify_iteration(NAND2, 3)
    with pytest.raises(ValueError, match="iterated arity 16 exceeds the cap 12"):
        verify_iteration(NAND2, 4)
    with pytest.raises(ValueError, match="arity 6 exceeds the optimizer cap 5"):
        verify_iteration(make_family("and", 6), 1)


def test_verify_iteration_depth_checked_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the depth cap must hold before any certify")

    monkeypatch.setattr(solver, "certify", no_work)
    for f, d in ((ID1, 10**9), (NAND2, 100000)):
        with pytest.raises(ValueError, match=f"depth {d} exceeds the cap 12"):
            verify_iteration(f, d)
