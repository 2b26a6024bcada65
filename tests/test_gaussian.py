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


def block(sigma, mask):
    """Sigma_I, the rows and columns of the modes in mask."""
    idx = [c for i in range(len(sigma) // 2) if mask >> i & 1 for c in (2 * i, 2 * i + 1)]
    return sigma[np.ix_(idx, idx)]


def test_subsystem_logdets_match_eigvalsh():
    # every per-mask log det, read through renyi2_quantum
    rng = np.random.default_rng(21)
    for n in range(1, 6):
        for _ in range(5):
            g = random_physical(rng, n)
            for mask in range(1, 1 << n):
                reference = 0.5 * eigvalsh_logdet(block(g.sigma, mask)) - bin(mask).count("1") * math.log(0.5)
                assert abs(gsn.renyi2_quantum(g, mask) - reference) < 1e-12


def count_linalg_calls(monkeypatch):
    """Count np.linalg.cholesky and eigvalsh calls, with the shape of each argument."""
    calls = {"cholesky": [], "eigvalsh": []}
    for name in calls:
        inner = getattr(np.linalg, name)

        def counted(a, *args, _inner=inner, _name=name, **kwargs):
            calls[_name].append(np.shape(a))
            return _inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_ingleton_value_is_one_cholesky(monkeypatch):
    calls = count_linalg_calls(monkeypatch)
    with open(FIXTURE) as fh:
        sigma = np.array(json.load(fh)["Sigma"])
    gsn.ingleton_value(sigma)
    # the 10 nonzero Ingleton terms and the full Sigma
    assert calls == {"cholesky": [(11, 8, 8)], "eigvalsh": []}


def test_per_mask_entropy_factors_only_sigma_i_and_sigma(monkeypatch):
    g = random_physical(np.random.default_rng(30), 4)
    calls = count_linalg_calls(monkeypatch)
    value = gsn.renyi2_quantum(g, 0b0101)
    assert calls == {"cholesky": [(2, 8, 8)], "eigvalsh": []}
    assert abs(value - (0.5 * eigvalsh_logdet(block(g.sigma, 0b0101)) - 2 * math.log(0.5))) < 1e-12


def test_non_positive_definite_sigma_raises_value_error():
    sigma = np.eye(8)
    sigma[5, 5] = -1.0
    for fn in (
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
    g = gsn.GaussianState.vacuum(2)
    assert abs(gsn.physicality_margin(g.sigma)) < 1e-12
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
    sigma = block(g.sigma, mask)
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


def out_of_place_mc_renyi2(g, mask, samples, seed):
    """mc_renyi2 with every draw and every jackknife array held at once."""
    dim = 2 * bin(mask).count("1")
    z = np.random.default_rng(seed).standard_normal((samples, dim))
    lognorm = -0.5 * dim * math.log(2 * math.pi) - gsn._half_log_det(g, mask)
    w = np.exp(lognorm - 0.5 * np.einsum("ij,ij->i", z, z))
    mean = w.mean()
    theta = -np.log((samples * mean - w) / (samples - 1))
    return -math.log(mean), math.sqrt((samples - 1) / samples * ((theta - theta.mean()) ** 2).sum())


def test_mc_blocks_match_one_out_of_place_draw():
    from entrokit.cli import _mc_fixture

    g, mask = _mc_fixture("correlated")
    samples = 3 * gsn.MC_BLOCK + 12345  # a partial last block
    assert gsn.mc_renyi2(g, mask, samples, 9) == out_of_place_mc_renyi2(g, mask, samples, 9)


def test_mc_peak_memory_is_one_weight_array():
    import tracemalloc

    from entrokit.cli import _mc_fixture

    g, mask = _mc_fixture("correlated")
    tracemalloc.start()
    try:
        gsn.mc_renyi2(g, mask, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the weights take 8 MB; the (10^6, 4) draws alone would take 32 MB
    assert peak < 16 * 2**20


def test_mc_input_validation():
    g = gsn.GaussianState.vacuum(1)
    with pytest.raises(ValueError):
        gsn.mc_renyi2(g, 1, 100, seed=0)
    with pytest.raises(ValueError):
        gsn.mc_renyi2(g, 0, 10**4, seed=0)
    # mask 1 << n, out of range: the same check as the closed-form entropies
    with pytest.raises(ValueError, match="mode subset 4 is empty or out of range"):
        gsn.mc_renyi2(gsn.GaussianState.vacuum(2), 4, 10**4, 0)


def test_ingleton_value_matches_inequality_module():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((8, 10))
    sigma = a @ a.T + np.eye(8)
    g = gsn.GaussianState(4, np.zeros(8), sigma)
    q = ingleton(4, 1, 2, 4, 8)
    direct = evaluate_float(q, lambda m: gsn.renyi2_quantum(g, m))
    assert gsn.ingleton_value(sigma) == direct


def parent_ingleton_value(sigma):
    """The unfused evaluation the per-candidate kernel replaced: a GaussianState,
    every Renyi-2 entry, and ``evaluate_float`` on a fresh Ingleton inequality."""
    g = gsn.GaussianState(4, np.zeros(8), sigma)
    entries = {mask: gsn.renyi2_quantum(g, mask) for mask in range(1, 16)}
    return evaluate_float(ingleton(4, 1, 2, 4, 8), entries.__getitem__)


def test_ingleton_value_is_bit_identical_to_unfused_path():
    with open(FIXTURE) as fh:
        fixture = np.array(json.load(fh)["Sigma"])
    assert gsn.ingleton_value(fixture) == parent_ingleton_value(fixture)
    rng = np.random.default_rng(15)
    for _ in range(1000):
        a = rng.standard_normal((8, 8 + rng.integers(0, 5)))
        sigma = a @ a.T + np.eye(8)
        assert gsn.physicality_margin(sigma) > 0
        assert gsn.ingleton_value(sigma) == parent_ingleton_value(sigma)


def test_ingleton_search_trajectory_matches_unfused_path(monkeypatch):
    res = gsn.ingleton_search(seed=5, iterations=400)
    monkeypatch.setattr(gsn, "ingleton_value", parent_ingleton_value)
    ref = gsn.ingleton_search(seed=5, iterations=400)
    assert np.array_equal(res.sigma, ref.sigma)
    assert res.value == ref.value
    assert res.to_json() == ref.to_json()


def _sigma_with(*edits):
    sigma = np.eye(8)
    for (i, j), value in edits:
        sigma[i, j] = value
    return sigma


@pytest.mark.parametrize(
    "sigma,sigma_vac,match",
    [
        (np.eye(6), 0.5, "sigma must be 8 x 8"),
        (_sigma_with(((2, 3), np.inf), ((3, 2), np.inf)), 0.5, "must be finite"),
        (_sigma_with(((4, 4), -np.inf)), 0.5, "must be finite"),
        (np.full((8, 8), np.nan), 0.5, "must be finite"),
        (_sigma_with(((0, 1), 1e-9)), 0.5, "not symmetric"),
        (np.eye(8), 1.0, "sigma_vac must be 1/2"),
        (_sigma_with(((5, 5), -1.0)), 0.5, "not positive definite"),
        # every block of three modes is positive definite, Sigma is not
        (np.eye(8) - 0.15, 0.5, "not positive definite"),
    ],
)
def test_ingleton_value_rejects_bad_sigma(sigma, sigma_vac, match):
    with pytest.raises(ValueError, match=match) as exc:
        gsn.ingleton_value(sigma, sigma_vac)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sigma_raises_value_error_in_margin_and_search(bad):
    for sigma in (np.full((8, 8), bad), _sigma_with(((1, 1), bad))):
        with pytest.raises(ValueError, match="did not converge") as exc:
            gsn.physicality_margin(sigma)
        assert type(exc.value) is ValueError


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (8,), (0, 0), (1, 1)])
def test_physicality_margin_rejects_a_sigma_that_is_not_2n_by_2n(shape):
    with pytest.raises(ValueError, match="sigma must be 2n x 2n") as exc:
        gsn.physicality_margin(np.eye(3) if shape == (3, 3) else np.ones(shape))
    assert type(exc.value) is ValueError


def test_shared_caches_are_read_only():
    keep, _ = gsn._ingleton_keep()
    for cached in (gsn.symplectic_matrix(4), gsn._vacuum_term(4), keep):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0


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

    def reference(sigma):
        g = gsn.GaussianState(4, np.zeros(8), sigma)
        evals = {m: np.linalg.eigvalsh(block(g.sigma, m)) for m in q.nu}
        if min(e.min() for e in evals.values()) <= 0:
            raise ValueError("covariance submatrix is not positive definite")
        return evaluate_float(q, lambda m: 0.5 * float(np.log(evals[m]).sum()) - bin(m).count("1") * math.log(0.5))

    res = gsn.ingleton_search(seed=3, iterations=500)
    monkeypatch.setattr(gsn, "ingleton_value", reference)
    ref = gsn.ingleton_search(seed=3, iterations=500)
    assert np.array_equal(res.sigma, ref.sigma)
    assert abs(res.value - ref.value) < 1e-12


def test_ingleton_search_validation_and_json():
    res = gsn.ingleton_search(seed=1, iterations=50)
    obj = json.loads(res.to_json())
    assert set(obj) >= {"found", "ingleton_value", "physicality_margin", "seed", "Sigma"}


def test_local_perturbation_strategy_descends():
    # the same seed draws the same start, which the zero-iteration search returns
    start = gsn.ingleton_search(seed=2, iterations=0)
    res = gsn.ingleton_search(seed=2, iterations=300)
    assert res.value < start.value
