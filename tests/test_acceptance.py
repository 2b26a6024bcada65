"""End-to-end acceptance gate.

Each test prints one `[criterion N] PASS|FAIL` line (bypassing capture so the
verdicts always appear in the run log) and then asserts.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

from entrokit import gaussian as gsn
from entrokit import inequalities as ineq
from entrokit import oracle
from entrokit.phasespace import PhaseSpace, particles
from entrokit.stabilizer import QUANTUM, entropy_vector, order_identity_check

CORPORA = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "ingleton_violation.json")

_capture = []


@pytest.fixture(autouse=True)
def _verdicts_bypass_capture(capfd):
    _capture.append(capfd)
    yield
    _capture.pop()


def verdict(num, label, ok):
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
    with _capture[-1].disabled():
        print(line, file=sys.stderr, flush=True)
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_order_identity_exhaustive(corpus):
    ok = all(order_identity_check(st) for d, n in CORPORA for st in corpus(d, n))
    verdict(1, "exact order identity on all corpora", ok)


@pytest.fixture(scope="module")
def cross_checks(corpus):
    """oracle.cross_check of every state, in memory-bounded chunks, per corpus; shared by criteria 2-4."""
    return {
        (d, n): [oracle.cross_check(chunk) for chunk in oracle.chunks(corpus(d, n), PhaseSpace(n, d))]
        for d, n in CORPORA
    }


def worst_error(cross_checks, key, corpora=CORPORA):
    return max(float(errs[key].max()) for dn in corpora for errs in cross_checks[dn])


def test_criterion_2_dense_entropies_match(cross_checks):
    worst = worst_error(cross_checks, "entropy")
    verdict(2, f"dense vs subgroup entropies (max err {worst:.2e})", worst < 1e-8)


def test_criterion_3_projector_laws(cross_checks):
    worst = worst_error(cross_checks, "projector")
    verdict(3, f"projector laws (max err {worst:.2e})", worst < 1e-9)


def test_criterion_4_wigner_leg(corpus, cross_checks):
    odd = [(3, 1), (3, 2), (5, 1)]
    worst = worst_error(cross_checks, "wigner", odd)
    for d, n in odd:
        ps = PhaseSpace(n, d)
        for rho in oracle.dense_state(corpus(d, n)):
            W = oracle.wigner(rho, ps)
            for mask in range(1, (1 << n) - 1):
                sub = PhaseSpace(len(particles(mask)), d)
                left = oracle.wigner_marginal(W, ps, mask)
                right = oracle.wigner(oracle.reduced_state(rho, ps, mask), sub)
                worst = max(worst, float(np.abs(left - right).max()))
    verdict(4, f"Wigner uniform + marginals (max err {worst:.2e})", worst < 1e-10)


def test_criterion_5_inequalities_on_full_qubit_corpus(corpus):
    states = corpus(2, 4)
    vectors = [entropy_vector(st, QUANTUM) for st in states]
    holding = (
        ineq.instances("ssa", 4)
        + ineq.instances("weak_monotonicity", 4)
        + ineq.instances("ingleton", 4)
        + ineq.instances("zhang_yeung", 4)
    )
    report = ineq.verify_batch(holding, vectors, "holding")
    mono = ineq.verify_batch(ineq.instances("monotonicity", 4), vectors, "monotonicity")
    ok = (
        len(states) == 19381
        and report.passed
        and not mono.passed  # monotonicity violations must be witnessed
    )
    verdict(
        5,
        f"SSA/WM/Ingleton/ZY hold on {len(states)} states, "
        f"{mono.violation_count} monotonicity violations witnessed",
        ok,
    )


def test_criterion_6_alpha_independence_and_shannon_limit():
    rng = np.random.default_rng(20)
    worst_pair, worst_limit = 0.0, 0.0
    for n in (1, 2, 3, 4):
        for _ in range(100):
            a = rng.standard_normal((2 * n, 2 * n + 2))
            g = gsn.GaussianState(n, np.zeros(2 * n), a @ a.T + np.eye(2 * n))
            for mask in range(1, 1 << n):
                k = len(particles(mask))
                vias = [
                    gsn.renyi_alpha_classical(g, mask, alpha) - k * gsn.renyi_correction(alpha)
                    for alpha in (0.5, 2.0, 3.0)
                ]
                worst_pair = max(worst_pair, max(vias) - min(vias))
                h1 = gsn.shannon_classical(g, mask)
                for alpha in (1 - 1e-6, 1 + 1e-6):
                    worst_limit = max(
                        worst_limit, abs(gsn.renyi_alpha_classical(g, mask, alpha) - h1)
                    )
    ok = worst_pair < 1e-10 and worst_limit < 1e-5
    verdict(6, f"alpha independence {worst_pair:.2e}, limit err {worst_limit:.2e}", ok)


def test_criterion_7_monte_carlo_oracle():
    r = 0.6
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    fixtures = [
        (gsn.GaussianState.vacuum(1), 1),
        (gsn.GaussianState(1, np.zeros(2), np.eye(2)), 1),
        (
            gsn.GaussianState(
                2,
                np.zeros(4),
                np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]]),
            ),
            3,
        ),
    ]
    ok = True
    worst_rel = 0.0
    for i, (g, mask) in enumerate(fixtures):
        exact = gsn.renyi_alpha_classical(g, mask, 2.0)
        est, _ = gsn.mc_renyi2(g, mask, 10**6, seed=40 + i)
        rel = abs(est - exact) / abs(exact)
        worst_rel = max(worst_rel, rel)
        ok &= rel < 0.01
    # standard error must scale like 1/sqrt(N)
    g, mask = fixtures[2]
    _, se_small = gsn.mc_renyi2(g, mask, 10**5, seed=50)
    _, se_big = gsn.mc_renyi2(g, mask, 4 * 10**5, seed=51)
    ratio = se_small / se_big
    ok &= 1.6 <= ratio <= 2.4
    verdict(7, f"MC rel err {worst_rel:.2e}, SE ratio {ratio:.2f}", ok)


def test_criterion_8_gaussian_ssa_and_ingleton_violation():
    rng = np.random.default_rng(30)
    qs = ineq.instances("ssa", 4)
    min_slack = math.inf
    for _ in range(500):
        a = rng.standard_normal((8, 10))
        g = gsn.GaussianState(4, np.zeros(8), a @ a.T + np.eye(8))
        vec = gsn.entropy_vector_gaussian(g)
        for q in qs:
            min_slack = min(min_slack, ineq.evaluate_float(q, vec.__getitem__))
    with open(FIXTURE) as fh:
        obj = json.load(fh)
    sigma = np.array(obj["Sigma"])
    val = gsn.ingleton_value(sigma)
    margin = gsn.physicality_margin(sigma)
    res = gsn.ingleton_search(seed=11, iterations=3000)  # well under the 1e6 budget
    ok = (
        min_slack > -1e-9
        and val < -1e-6
        and margin > 1e-6
        and obj["iterations"] <= 10**6
        and res.found
    )
    verdict(
        8,
        f"SSA slack {min_slack:.3f}, fixture Ingleton {val:.3f} (margin {margin:.1e})",
        ok,
    )


def test_criterion_9_zhang_yeung_sanity():
    q = ineq.zhang_yeung()
    ok = ineq.is_balanced(q)
    rng = np.random.default_rng(60)
    ps = rng.dirichlet(np.full(16, 0.4), size=10**4).reshape(-1, 2, 2, 2, 2)
    eps = 1e-300
    entropies = {}
    for mask in range(1, 16):
        axes = tuple(1 + i for i in range(4) if not mask & (1 << i))
        marg = ps.sum(axis=axes) if axes else ps
        flat = marg.reshape(len(ps), -1)
        entropies[mask] = -(flat * np.log(flat + eps)).sum(axis=1)
    values = sum(c * entropies[m] for m, c in q.coefficients().items())
    min_val = float(values.min())
    ok &= min_val > -1e-10
    verdict(9, f"ZY balanced, min over 1e4 distributions {min_val:.3e}", ok)
