"""Acceptance checks.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run with ``pytest -s``
to see them) and then asserts, so the suite fails loudly if any check slips.
The whole module takes a few seconds.
"""

import json
import math
from pathlib import Path

import numpy as np

from advbound.adversary import (
    EigvecParts,
    adv_value,
    compose_eigenvector,
    compose_gamma,
    gamma_from_dict,
    mm_value,
    witness_from_dict,
)
from advbound.boolfn import CompositionSpec, make_family
from advbound.cli import run
from advbound.solver import (
    ROUNDING,
    _meet,
    certify,
    readonce_bound,
    verify_composition,
    verify_iteration,
)
from advbound.specmat import (
    principal_eigenvector,
    spectral_norm,
)
from conftest import (
    compose_tree,
    difference_mask,
    hadamard,
    masked_laws,
    random_composition_case,
    random_costs,
    random_function,
    random_gamma,
    random_read_once_ast,
    random_witness,
    rel_error,
    witness_tree,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(number: int, title: str, ok: bool, detail: str, printer=print) -> None:
    printer(f"[{'PASS' if ok else 'FAIL'}] {number} {title}: {detail}")
    assert ok, f"{title}: {detail}"


def test_1_gadget_closed_form(capsys):
    cases = [
        ("1,1", math.sqrt(2.0)),
        ("3,4", 5.0),
        (f"1,{math.sqrt(2.0)!r}", math.sqrt(3.0)),
    ]
    worst_value = 0.0
    worst_mask = 0.0
    for beta_arg, expected in cases:
        code = run(["gadget", "--gate", "and", "--beta", beta_arg])
        out = capsys.readouterr().out
        assert code == 0
        results = json.loads(out)["results"]
        worst_value = max(worst_value, abs(results["value"] - expected))
        gamma = gamma_from_dict(results["matrix"])
        betas = [float(s) for s in beta_arg.split(",")]
        for i, b in enumerate(betas, start=1):
            masked = spectral_norm(
                hadamard(gamma.matrix, difference_mask(gamma.function.domain, i))
            ).norm
            worst_mask = max(worst_mask, abs(masked - b))
    ok = worst_value <= 1e-12 and worst_mask <= 1e-10
    with capsys.disabled():
        report(
            1,
            "gadget closed form",
            ok,
            f"max value error {worst_value:.2e} (tol 1e-12), "
            f"max mask-norm error {worst_mask:.2e} (tol 1e-10)",
        )


def _composition_cases():
    for i in range(200):
        yield random_composition_case(i)


def test_2_composition_product_law():
    worst_rel = 0.0
    worst_residual = 0.0
    for spec, gamma_f, gammas_g in _composition_cases():
        composed = compose_gamma(gamma_f, gammas_g, spec)
        got = spectral_norm(composed.matrix).norm
        want = spectral_norm(gamma_f.matrix).norm
        for gam in gammas_g:
            want *= spectral_norm(gam.matrix).norm
        worst_rel = max(worst_rel, abs(got - want) / want)

        res_f = principal_eigenvector(gamma_f.matrix)
        parts = [
            EigvecParts.from_vector(g.function, principal_eigenvector(g.matrix).vector)
            for g in gammas_g
        ]
        vec = compose_eigenvector(res_f, parts, spec)
        residual = float(np.linalg.norm(composed.matrix.entries @ vec - want * vec))
        worst_residual = max(worst_residual, residual)
    ok = worst_rel <= 1e-8 and worst_residual <= 1e-8
    report(
        2,
        "composed norm product law",
        ok,
        f"200 cases, worst relative norm error {worst_rel:.2e}, "
        f"worst eigenvector residual {worst_residual:.2e} (tol 1e-8)",
    )


def test_3_masked_factorization():
    checked = 0
    exact = True
    worst_norm = worst_ratio = 0.0
    for spec, gamma_f, gammas_g in _composition_cases():
        for law in masked_laws(gamma_f, gammas_g, spec):
            checked += 1
            exact &= law.exact
            worst_norm = max(worst_norm, rel_error(*law.norms))
            worst_ratio = max(worst_ratio, rel_error(*law.ratios))
    ok = exact and worst_norm <= ROUNDING and worst_ratio <= ROUNDING
    report(
        3,
        "masked factorization",
        ok,
        f"{checked} positions across 200 cases, entries {'exact' if exact else 'NOT exact'}, "
        f"worst relative norm error {worst_norm:.2e}, ratio error {worst_ratio:.2e} "
        f"(tol 2^-40)",
    )


def test_4_weak_duality_sweep():
    rng = np.random.default_rng(404)
    worst = -math.inf
    for i in range(500):
        n = int(rng.integers(1, 4))
        f = random_function(rng, n, nonconstant=(i % 10 != 0))
        gamma = random_gamma(f, rng)
        witness = random_witness(f, rng)
        alpha = random_costs(rng, n)
        worst = max(worst, adv_value(gamma, alpha) - mm_value(witness, alpha))
    ok = worst <= 1e-9
    report(
        4,
        "weak duality",
        ok,
        f"500 random triples, max lower-minus-upper {worst:.2e} (tol 1e-9)",
    )


def test_5_read_once_sqrt_n():
    # The Barnum-Saks corollary: a read-once formula on n bits has ADV sqrt(n).
    # The composed gadget certificates of each formula are scored too.
    rng = np.random.default_rng(505)
    worst = worst_scored = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 11))
        ast = random_read_once_ast(rng, n)
        ones = (1.0,) * n
        value, _ = readonce_bound(ast, ones)
        worst = max(worst, abs(value - math.sqrt(n)))
        gamma, witness = compose_tree(ast, ones)[0], witness_tree(ast, ones)[0]
        for scored in (adv_value(gamma, ones), mm_value(witness, ones)):
            worst_scored = max(worst_scored, rel_error(scored, math.sqrt(n)))
    ok = worst <= 1e-12 and worst_scored <= ROUNDING
    report(
        5,
        "read-once sqrt(n)",
        ok,
        f"20 formulas, max |value - sqrt(n)| {worst:.2e}; composed certificates "
        f"score within {worst_scored:.2e} relative (tol 2^-40)",
    )


def _witnessed_value(entry) -> float:
    """Pin a target value with the explicit matrix/witness pair from the fixture.

    The matrix gives a lower bound and the witness an upper bound; they must
    agree to float precision, which makes the shared value the exact optimum.
    """
    gamma = gamma_from_dict(entry)
    witness = witness_from_dict(entry["witness"], gamma.function)
    alpha = tuple(entry["alpha"])
    lower = adv_value(gamma, alpha)
    upper = mm_value(witness, alpha)
    assert abs(lower - upper) <= 1e-12
    return lower


def test_6_certified_gap_closure():
    with open(FIXTURES / "certified_witnesses.json") as fh:
        fixture = json.load(fh)
    cases = [
        (make_family("or", 2), (1.0, 1.0), _witnessed_value(fixture["or2"])),
        (make_family("and", 2), (1.0, 1.0), _witnessed_value(fixture["and2"])),
        (make_family("parity", 2), (1.0, 1.0), _witnessed_value(fixture["parity2"])),
        (make_family("nand", 2), (1.0, 1.0), _witnessed_value(fixture["nand2"])),
        (make_family("and", 2), (3.0, 4.0), math.hypot(3.0, 4.0)),
    ]
    worst_gap = 0.0
    contained = True
    for f, alpha, truth in cases:
        cert = certify(f, alpha)
        worst_gap = max(worst_gap, cert.gap)
        contained &= cert.lower_value <= truth + 1e-9 <= cert.upper_value + 2e-9
    ok = worst_gap <= 1e-2 and contained
    report(
        6,
        "certified gap closure",
        ok,
        f"5 functions, worst gap {worst_gap:.2e} (tol 1e-2), brackets contain truth: {contained}",
    )


def test_7_composition_end_to_end():
    cases = [
        (CompositionSpec(make_family("and", 2), (make_family("or", 2),) * 2), 2.0, "and(or,or)"),
        (
            CompositionSpec(make_family("and", 2), (make_family("and", 2), make_family("id", 1))),
            math.sqrt(3.0),
            "and(and,id)",
        ),
    ]
    details = []
    ok = True
    for spec, truth, label in cases:
        rep = verify_composition(spec, (1.0,) * spec.total_arity)
        brackets = {
            "direct": (rep.direct_cert.lower_value, rep.direct_cert.upper_value),
            "composed": (rep.composed_lower, rep.composed_upper),
            "theorem": (rep.theorem_lower, rep.theorem_upper),
        }
        # every bracket is sound, so each holds the truth up to rounding
        held = all(_meet((truth, truth), b) for b in brackets.values())
        ok &= rep.ok and held
        shown = " ".join(f"{k} [{lo:.6f}, {up:.6f}]" for k, (lo, up) in brackets.items())
        details.append(f"{label}: {shown} target {truth:.6f} ok={rep.ok and held}")
    report(7, "composition brackets hold the value", ok, "; ".join(details))


def test_8_iteration_squared():
    rep = verify_iteration(make_family("nand", 2), 2)
    lower, upper = rep.iterated_cert.lower_value, rep.iterated_cert.upper_value
    contains = lower <= 2.0 + 1e-9 <= upper + 2e-9
    power_contains = rep.power_lower <= 2.0 + 1e-2 and 2.0 <= rep.power_upper + 1e-2
    ok = rep.ok and contains and power_contains
    report(
        8,
        "iterated bracket",
        ok,
        f"nand^2 bracket [{lower:.6f}, {upper:.6f}] vs power "
        f"[{rep.power_lower:.6f}, {rep.power_upper:.6f}], ok={rep.ok}",
    )


def test_9_scaling_and_monotonicity():
    rng = np.random.default_rng(909)
    worst_rel = 0.0
    monotone = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f = random_function(rng, n)
        gamma = random_gamma(f, rng)
        witness = random_witness(f, rng)
        alpha = np.array(random_costs(rng, n))
        c = float(rng.uniform(0.25, 4.0))
        base = adv_value(gamma, tuple(alpha))
        scaled = adv_value(gamma, tuple(c * alpha))
        worst_rel = max(worst_rel, abs(scaled - c * base) / (c * base))
        base_mm = mm_value(witness, tuple(alpha))
        scaled_mm = mm_value(witness, tuple(c * alpha))
        worst_rel = max(worst_rel, abs(scaled_mm - c * base_mm) / (c * base_mm))
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f = random_function(rng, n)
        gamma = random_gamma(f, rng)
        witness = random_witness(f, rng)
        alpha = np.array(random_costs(rng, n))
        bigger = alpha + rng.uniform(0.0, 1.0, size=n)
        monotone &= adv_value(gamma, tuple(alpha)) <= adv_value(gamma, tuple(bigger))
        monotone &= mm_value(witness, tuple(alpha)) <= mm_value(witness, tuple(bigger))
    ok = worst_rel <= 1e-12 and monotone
    report(
        9,
        "scaling and monotonicity",
        ok,
        f"100 scaling cases, worst relative error {worst_rel:.2e} (tol 1e-12); "
        f"100 monotonicity cases exact: {monotone}",
    )
