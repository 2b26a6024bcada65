"""Gaussian covariance calculus, Renyi entropies, MC oracle, Ingleton search."""

import json
import math
import os

import numpy as np
import pytest

from entrokit import gaussian as gsn
from entrokit.inequalities import ingleton, instances, evaluate_float

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "ingleton_violation.json")


def random_physical(rng, n):
    a = rng.standard_normal((2 * n, 2 * n + 2))
    return gsn.GaussianState(n, np.zeros(2 * n), a @ a.T + np.eye(2 * n))


def test_state_validation():
    with pytest.raises(ValueError):
        gsn.GaussianState(1, np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        gsn.GaussianState(1, np.zeros(2), np.eye(3))
    with pytest.raises(ValueError):
        gsn.GaussianState(1, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        gsn.GaussianState(1, np.zeros(2), np.eye(2), sigma_vac=0.25)


def test_vacuum_is_borderline_physical_with_zero_entropy():
    for sv in (0.5, 1.0):
        g = gsn.GaussianState.vacuum(2, sv)
        ok, margin = gsn.is_physical(g)
        assert ok and abs(margin) < 1e-12
        for mask in (1, 2, 3):
            assert gsn.renyi2_quantum(g, mask) == pytest.approx(0.0, abs=1e-12)


def test_unphysical_state_detected():
    g = gsn.GaussianState(1, np.zeros(2), 0.1 * np.eye(2))
    ok, margin = gsn.is_physical(g)
    assert not ok and margin < -0.1
    with pytest.raises(ValueError):
        gsn.entropy_vector_gaussian(g)


def test_thermal_renyi2():
    # single mode with Sigma = nu * I: S_2 = log(nu / sigma_vac)
    nu = 2.5
    g = gsn.GaussianState(1, np.zeros(2), nu * np.eye(2))
    assert gsn.renyi2_quantum(g, 1) == pytest.approx(math.log(nu / 0.5), abs=1e-12)


def test_alpha_independence_of_recovered_renyi2():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        for _ in range(10):
            g = random_physical(rng, n)
            for mask in range(1, 1 << n):
                k = bin(mask).count("1")
                s2 = gsn.renyi2_quantum(g, mask)
                for alpha in (0.5, 2.0, 3.0, 7.5):
                    via = gsn.renyi_alpha_classical(g, mask, alpha) - k * gsn.renyi_correction(alpha)
                    assert abs(via - s2) < 1e-10


def test_renyi_alpha_limits_to_shannon():
    rng = np.random.default_rng(4)
    g = random_physical(rng, 2)
    for mask in (1, 2, 3):
        h1 = gsn.shannon_classical(g, mask)
        for alpha in (1 - 1e-6, 1 + 1e-6):
            assert abs(gsn.renyi_alpha_classical(g, mask, alpha) - h1) < 1e-5


def test_renyi_correction_at_two():
    # H_2 - S_2 per mode: log pi - log 2 / (1 - 2) = log(2 pi)
    assert gsn.renyi_correction(2.0) == pytest.approx(math.log(2 * math.pi), abs=1e-12)


def test_entropy_validation():
    g = gsn.GaussianState.vacuum(1)
    for fn in (
        lambda: gsn.renyi2_quantum(g, 0),
        lambda: gsn.shannon_classical(g, 0),
        lambda: gsn.renyi_alpha_classical(g, 0, 2.0),
        lambda: gsn.renyi_alpha_classical(g, 1, 1.0),
        lambda: gsn.renyi_alpha_classical(g, 1, -1.0),
    ):
        with pytest.raises(ValueError):
            fn()


def test_entropy_vector_gaussian():
    rng = np.random.default_rng(8)
    g = random_physical(rng, 3)
    vec = gsn.entropy_vector_gaussian(g)
    assert set(vec.entries) == set(range(1, 8))
    for mask in range(1, 8):
        assert vec.value(mask) == pytest.approx(gsn.renyi2_quantum(g, mask), abs=1e-12)


def test_ssa_on_gaussian_renyi2_vectors():
    rng = np.random.default_rng(12)
    qs = instances("ssa", 3)
    for _ in range(25):
        g = random_physical(rng, 3)
        vec = gsn.entropy_vector_gaussian(g)
        for q in qs:
            assert evaluate_float(q, vec.value) > -1e-9


def test_mc_matches_closed_form_and_is_deterministic():
    g = gsn.GaussianState.vacuum(1)
    exact = gsn.renyi_alpha_classical(g, 1, 2.0)
    est1, se1 = gsn.mc_renyi2(g, 1, 10**5, seed=3)
    est2, se2 = gsn.mc_renyi2(g, 1, 10**5, seed=3)
    assert (est1, se1) == (est2, se2)
    assert se1 > 0
    assert abs(est1 - exact) < 5 * se1


def test_mc_input_validation():
    g = gsn.GaussianState.vacuum(1)
    with pytest.raises(ValueError):
        gsn.mc_renyi2(g, 1, 100, seed=0)
    with pytest.raises(ValueError):
        gsn.mc_renyi2(g, 0, 10**4, seed=0)


def test_ingleton_value_matches_inequality_module():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((8, 10))
    sigma = a @ a.T + np.eye(8)
    g = gsn.GaussianState(4, np.zeros(8), sigma)
    q = ingleton(4, 1, 2, 4, 8)
    direct = evaluate_float(q, lambda m: gsn.renyi2_quantum(g, m))
    assert gsn.ingleton_value(sigma) == pytest.approx(direct, abs=1e-12)


def test_ingleton_violation_fixture_regression():
    with open(FIXTURE) as fh:
        obj = json.load(fh)
    sigma = np.array(obj["Sigma"])
    val = gsn.ingleton_value(sigma)
    margin = gsn.physicality_margin(gsn.GaussianState(4, np.zeros(8), sigma))
    assert val < -1e-6
    assert margin > 1e-6
    # stored numbers describe the same certificate
    assert val == pytest.approx(obj["ingleton_value"], abs=1e-9)
    assert margin == pytest.approx(obj["physicality_margin"], abs=1e-9)


def test_ingleton_search_finds_violation():
    res = gsn.ingleton_search(seed=11, iterations=3000)
    assert res.found
    assert res.value < -1e-6 and res.margin > 1e-6
    # result is reproducible per seed
    res2 = gsn.ingleton_search(seed=11, iterations=3000)
    assert res2.value == res.value


def test_ingleton_search_validation_and_json():
    with pytest.raises(ValueError):
        gsn.ingleton_search(seed=0, iterations=10, strategy="bogus")
    res = gsn.ingleton_search(seed=1, iterations=50, strategy="random-pure-plus-noise")
    obj = json.loads(res.to_json())
    assert set(obj) >= {"found", "ingleton_value", "physicality_margin", "seed", "Sigma"}


def test_local_perturbation_strategy_descends():
    with open(FIXTURE) as fh:
        sigma = np.array(json.load(fh)["Sigma"])
    start_val = gsn.ingleton_value(sigma)
    res = gsn.ingleton_search(
        seed=2, iterations=300, strategy="local-perturbation", start=sigma
    )
    assert res.value <= start_val + 1e-12
