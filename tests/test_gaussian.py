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


def test_state_rejects_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        sigma = np.eye(2)
        sigma[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            gsn.GaussianState(1, np.zeros(2), sigma)
        sigma = np.eye(2)
        sigma[0, 1] = sigma[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            gsn.GaussianState(1, np.zeros(2), sigma)
        with pytest.raises(ValueError, match="finite"):
            gsn.GaussianState(1, np.array([0.0, bad]), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        gsn.ingleton_value(np.full((8, 8), np.nan))


def eigvalsh_logdet(mat):
    return float(np.log(np.linalg.eigvalsh(mat)).sum())


def test_subsystem_logdets_match_eigvalsh():
    rng = np.random.default_rng(21)
    for n in range(1, 6):
        for _ in range(5):
            sigma = random_physical(rng, n).sigma
            logdets = gsn.subsystem_logdets(sigma, n)
            assert list(logdets) == list(range(1, 1 << n))
            for mask, value in logdets.items():
                idx = [c for i in range(n) if mask >> i & 1 for c in (2 * i, 2 * i + 1)]
                assert abs(value - eigvalsh_logdet(sigma[np.ix_(idx, idx)])) < 1e-12


def test_ingleton_value_is_one_cholesky(monkeypatch):
    calls = {"cholesky": 0, "eigvalsh": 0}
    for name in calls:
        inner = getattr(np.linalg, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    with open(FIXTURE) as fh:
        sigma = np.array(json.load(fh)["Sigma"])
    gsn.ingleton_value(sigma)
    assert calls == {"cholesky": 1, "eigvalsh": 0}


def test_non_positive_definite_sigma_raises_value_error():
    sigma = np.eye(8)
    sigma[5, 5] = -1.0
    for fn in (
        lambda: gsn.subsystem_logdets(sigma, 4),
        lambda: gsn.ingleton_value(sigma),
        lambda: gsn.renyi2_quantum(gsn.GaussianState(4, np.zeros(8), sigma), 4),
        # Sigma_1 is positive definite, but Sigma is not a state
        lambda: gsn.renyi2_quantum(gsn.GaussianState(4, np.zeros(8), sigma), 1),
        lambda: gsn.shannon_classical(gsn.GaussianState(4, np.zeros(8), sigma), 1),
    ):
        with pytest.raises(ValueError, match="not positive definite") as exc:
            fn()
        assert type(exc.value) is ValueError


def test_vacuum_is_borderline_physical_with_zero_entropy():
    for sv in (0.5, 1.0):
        g = gsn.GaussianState.vacuum(2, sv)
        assert abs(gsn.physicality_margin(g.sigma, sv)) < 1e-12
        assert gsn.entropy_vector_gaussian(g) == pytest.approx({1: 0.0, 2: 0.0, 3: 0.0}, abs=1e-12)
        for mask in (1, 2, 3):
            assert gsn.renyi2_quantum(g, mask) == pytest.approx(0.0, abs=1e-12)


def test_unphysical_state_detected():
    g = gsn.GaussianState(1, np.zeros(2), 0.1 * np.eye(2))
    assert gsn.physicality_margin(g.sigma) < -0.1
    with pytest.raises(ValueError, match="unphysical"):
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
        # mask 1 << n, out of range
        lambda: gsn.renyi2_quantum(g, 2),
        lambda: gsn.shannon_classical(g, 2),
        lambda: gsn.renyi_alpha_classical(g, 2, 2.0),
    ):
        with pytest.raises(ValueError):
            fn()


def test_entropy_vector_gaussian():
    rng = np.random.default_rng(8)
    g = random_physical(rng, 3)
    vec = gsn.entropy_vector_gaussian(g)
    assert list(vec) == list(range(1, 8))
    for mask in range(1, 8):
        # one log-det path, so the two agree bit for bit
        assert gsn.renyi2_quantum(g, mask) == vec[mask]


def test_ssa_on_gaussian_renyi2_vectors():
    rng = np.random.default_rng(12)
    qs = instances("ssa", 3)
    for _ in range(25):
        g = random_physical(rng, 3)
        vec = gsn.entropy_vector_gaussian(g)
        for q in qs:
            assert evaluate_float(q, vec.__getitem__) > -1e-9


def test_mc_matches_closed_form_and_is_deterministic():
    g = gsn.GaussianState.vacuum(1)
    exact = gsn.renyi_alpha_classical(g, 1, 2.0)
    est1, se1 = gsn.mc_renyi2(g, 1, 10**5, seed=3)
    est2, se2 = gsn.mc_renyi2(g, 1, 10**5, seed=3)
    assert (est1, se1) == (est2, se2)
    assert se1 > 0
    assert abs(est1 - exact) < 5 * se1


def test_mc_matches_unwhitened_formula():
    from entrokit.cli import _mc_fixture

    g, mask = _mc_fixture("correlated")
    samples, seed = 10**4, 7
    # the estimator before whitening: draw x = L z and form x^T Sigma^-1 x
    sigma = g.submatrix(mask)
    dim = sigma.shape[0]
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((samples, dim)) @ np.linalg.cholesky(sigma).T
    quad = np.einsum("ij,jk,ik->i", xs, np.linalg.inv(sigma), xs)
    w = np.exp(-0.5 * (dim * math.log(2 * math.pi) + eigvalsh_logdet(sigma)) - 0.5 * quad)
    mean = w.mean()
    theta = -np.log((samples * mean - w) / (samples - 1))
    se = math.sqrt((samples - 1) / samples * ((theta - theta.mean()) ** 2).sum())
    est2, se2 = gsn.mc_renyi2(g, mask, samples, seed)
    assert abs(est2 + math.log(mean)) < 1e-12
    assert abs(se2 - se) < 1e-12


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
    margin = gsn.physicality_margin(sigma)
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


def test_ingleton_search_trajectory_matches_eigvalsh_reference(monkeypatch):
    q = ingleton(4, 1, 2, 4, 8)

    def reference(sigma, sigma_vac=0.5):
        g = gsn.GaussianState(4, np.zeros(8), sigma, sigma_vac)
        evals = {m: np.linalg.eigvalsh(g.submatrix(m)) for m in q.nu}
        if min(e.min() for e in evals.values()) <= 0:
            raise ValueError("covariance submatrix is not positive definite")
        return evaluate_float(
            q, lambda m: 0.5 * float(np.log(evals[m]).sum()) - bin(m).count("1") * math.log(sigma_vac)
        )

    res = gsn.ingleton_search(seed=3, iterations=500)
    monkeypatch.setattr(gsn, "ingleton_value", reference)
    ref = gsn.ingleton_search(seed=3, iterations=500)
    assert np.array_equal(res.sigma, ref.sigma)
    assert abs(res.value - ref.value) < 1e-12


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
