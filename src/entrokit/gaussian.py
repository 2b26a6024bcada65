"""Gaussian covariance calculus and Renyi phase-space entropies.

The covariance matrix Sigma is always the second-moment matrix of the Wigner
function, in interleaved (p_1, q_1, ..., p_n, q_n) layout.  The convention
scale sigma_vac fixes the vacuum: sigma_vac = 1/2 (default) is the unique
choice consistent with the Wigner normalization, and the quantum Renyi-2
entropy is S_2(rho_I) = (1/2) log det(Sigma_I / sigma_vac).  All entropies
here are in nats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .inequalities import evaluate_float, ingleton
from .phasespace import chain_orders, particles, subset_size

PHYSICALITY_TOL = 1e-9
SYMMETRY_TOL = 1e-10
SEARCH_MARGIN = 1e-4  # every search candidate is projected to at least this physicality margin


def symplectic_matrix(n: int) -> np.ndarray:
    """Direct sum of [[0, 1], [-1, 0]] blocks, matching the discrete layout."""
    omega = np.zeros((2 * n, 2 * n))
    for i in range(n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    n: int
    mu: np.ndarray
    sigma: np.ndarray
    sigma_vac: float = 0.5

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if mu.shape != (2 * self.n,):
            raise ValueError(f"mu must have shape ({2 * self.n},)")
        if sigma.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"sigma must be {2 * self.n} x {2 * self.n}")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValueError("mu and sigma must be finite")
        if np.abs(sigma - sigma.T).max() > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        if self.sigma_vac not in (0.5, 1.0):
            raise ValueError("sigma_vac must be 1/2 or 1")

    @classmethod
    def vacuum(cls, n: int, sigma_vac: float = 0.5) -> "GaussianState":
        return cls(n, np.zeros(2 * n), sigma_vac * np.eye(2 * n), sigma_vac)

    def submatrix(self, mask: int) -> np.ndarray:
        idx = []
        for i in particles(mask):
            idx.extend((2 * i, 2 * i + 1))
        return self.sigma[np.ix_(idx, idx)]


def physicality_margin(sigma: np.ndarray, sigma_vac: float = 0.5) -> float:
    """Minimum eigenvalue of Sigma + i * sigma_vac * Omega."""
    return float(np.linalg.eigvalsh(sigma + 1j * sigma_vac * symplectic_matrix(len(sigma) // 2)).min())


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a matrix or a stack of them; the positive-definiteness check."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValueError("covariance submatrix is not positive definite") from None


@lru_cache(maxsize=None)
def _chain_gather(n: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], np.ndarray]:
    """Row and column gathers of Sigma for each order of ``chain_orders(n)``,
    every nonempty mask in increasing order, and the flat (order, prefix length)
    position of each mask's first prefix."""
    orders = chain_orders(n)
    cols = np.array([[c for x in pi for c in (2 * x, 2 * x + 1)] for pi in orders])
    first: dict[int, int] = {}
    for o, pi in enumerate(orders):
        mask = 0
        for k, x in enumerate(pi):
            mask |= 1 << x
            first.setdefault(mask, o * n + k)
    masks = tuple(sorted(first))
    return cols[:, :, None], cols[:, None, :], masks, np.array([first[m] for m in masks])


def subsystem_logdets(sigma: np.ndarray, n: int) -> dict[int, float]:
    """mask -> log det Sigma_mask for every nonempty mask, from one stacked Cholesky.

    With Sigma's mode pairs permuted by an order pi of ``chain_orders``, Cholesky
    rows 0 .. 2k-1 factor Sigma_I for the prefix set I = pi(0..k-1), so
    log det Sigma_I is the sum of 2 log L_ii over them.  The prefix sets are the
    complements of the suffix sets, which cover every nonempty subset.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2 * n, 2 * n):
        raise ValueError(f"sigma must be {2 * n} x {2 * n}")
    rows, cols, masks, at = _chain_gather(n)
    diag = np.diagonal(_cholesky(sigma[rows, cols]), axis1=1, axis2=2)
    cum = np.cumsum(2 * np.log(diag), axis=1)[:, 1::2]
    return dict(zip(masks, cum.ravel()[at].tolist()))


def _renyi2_entries(g: GaussianState) -> dict[int, float]:
    shift = math.log(g.sigma_vac)
    return {mask: 0.5 * ld - subset_size(mask) * shift for mask, ld in subsystem_logdets(g.sigma, g.n).items()}


def _check_mask(g: GaussianState, mask: int) -> None:
    if not 0 < mask < 1 << g.n:
        raise ValueError(f"mode subset {mask} is empty or out of range")


def _half_log_det(g: GaussianState, mask: int) -> float:
    """(1/2) log det Sigma_I, read from ``subsystem_logdets``, so a Sigma that is
    not positive definite raises on every mask."""
    _check_mask(g, mask)
    return 0.5 * subsystem_logdets(g.sigma, g.n)[mask]


def renyi2_quantum(g: GaussianState, mask: int) -> float:
    """S_2(rho_I) = -log tr rho_I^2 = (1/2) log det(Sigma_I / sigma_vac)."""
    return _half_log_det(g, mask) - subset_size(mask) * math.log(g.sigma_vac)


def renyi_alpha_classical(g: GaussianState, mask: int, alpha: float) -> float:
    """Differential Renyi-alpha entropy of the Wigner marginal on modes I:

    H_alpha = (1/2) log det Sigma_I + |I| (log 2 pi - log(alpha)/(1 - alpha)).
    """
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("alpha must be positive and != 1; use shannon_classical for alpha = 1")
    return _half_log_det(g, mask) + subset_size(mask) * (math.log(2 * math.pi) - math.log(alpha) / (1 - alpha))


def renyi_correction(alpha: float) -> float:
    """Per-mode constant relating S_2 and H_alpha: log pi - log(alpha)/(1-alpha)."""
    return math.log(math.pi) - math.log(alpha) / (1 - alpha)


def shannon_classical(g: GaussianState, mask: int) -> float:
    """Differential Shannon entropy of the Wigner marginal (alpha -> 1 limit)."""
    return _half_log_det(g, mask) + subset_size(mask) * (math.log(2 * math.pi) + 1.0)


MC_MIN_SAMPLES = 10**4


def mc_renyi2(
    g: GaussianState, mask: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of H_2(X_I) = -log int W^2, with standard error.

    Importance sampling with W itself: E_W[W] = int W^2.  Returns the
    estimate of H_2 and a jackknife standard error; deterministic per seed.
    """
    if samples < MC_MIN_SAMPLES:
        raise ValueError("need at least 10^4 samples")
    _check_mask(g, mask)
    sigma = g.submatrix(mask)
    dim = sigma.shape[0]
    chol = _cholesky(sigma)
    # a draw x = L z of W, centred, has x^T Sigma^-1 x = z^T z
    z = np.random.default_rng(seed).standard_normal((samples, dim))
    quad = np.einsum("ij,ij->i", z, z)
    lognorm = -0.5 * dim * math.log(2 * math.pi) - float(np.log(np.diagonal(chol)).sum())
    w = np.exp(lognorm - 0.5 * quad)
    mean = w.mean()
    est = -math.log(mean)
    # leave-one-out jackknife of -log mean
    loo = (samples * mean - w) / (samples - 1)
    theta = -np.log(loo)
    se = math.sqrt((samples - 1) / samples * ((theta - theta.mean()) ** 2).sum())
    return est, se


def entropy_vector_gaussian(g: GaussianState) -> dict[int, float]:
    """mask -> S_2(rho_I) for every nonempty mask of a physical state."""
    margin = physicality_margin(g.sigma, g.sigma_vac)
    if margin < -PHYSICALITY_TOL:
        raise ValueError(f"state is unphysical (margin {margin:g})")
    return _renyi2_entries(g)


# --- Ingleton violation search -------------------------------------------


@dataclass
class SearchResult:
    sigma: np.ndarray
    value: float
    margin: float
    seed: int
    iterations: int
    found: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "found": self.found,
                "ingleton_value": self.value,
                "physicality_margin": self.margin,
                "seed": self.seed,
                "iterations": self.iterations,
                "Sigma": self.sigma.tolist(),
            }
        )


def ingleton_value(sigma: np.ndarray, sigma_vac: float = 0.5) -> float:
    """The Ingleton combination on the Renyi-2 entropy vector of a 4-mode Sigma."""
    entries = _renyi2_entries(GaussianState(4, np.zeros(8), sigma, sigma_vac))
    return evaluate_float(ingleton(4, 1, 2, 4, 8), entries.__getitem__)


def _project_physical(sigma: np.ndarray) -> np.ndarray:
    """Shift Sigma along the identity until Sigma + i Omega / 2 >= SEARCH_MARGIN."""
    lam = physicality_margin(sigma)
    if lam < SEARCH_MARGIN:
        sigma = sigma + (SEARCH_MARGIN - lam) * np.eye(sigma.shape[0])
    return sigma


STRATEGIES = ("random-wishart", "random-pure-plus-noise", "local-perturbation")


def ingleton_search(
    seed: int,
    iterations: int,
    strategy: str = "random-wishart",
    start: Optional[np.ndarray] = None,
) -> SearchResult:
    """Search physical 4-mode covariance matrices (sigma_vac = 1/2) for an
    Ingleton violation.

    Random candidates are interleaved with local hill descent from the best
    one found so far; every candidate is projected back onto the physical set
    with the margin SEARCH_MARGIN, so a negative best value is always a
    certificate.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng(seed)

    def sample() -> np.ndarray:
        if strategy == "random-pure-plus-noise":
            a = rng.standard_normal((8, 2))
            cand = a @ a.T + 10 ** rng.uniform(-3, 0) * np.eye(8)
        elif rng.random() < 0.5:
            # scalar 4-variable Wishart lifted to one mode per variable
            a = rng.standard_normal((4, 4 + rng.integers(0, 3)))
            cand = np.kron(a @ a.T, np.eye(2))
        else:
            a = rng.standard_normal((8, 8 + rng.integers(0, 5)))
            cand = a @ a.T
        return _project_physical(cand)

    best_sigma = _project_physical(np.asarray(start, dtype=float) if start is not None else sample())
    best_val = ingleton_value(best_sigma)
    for it in range(iterations):
        if strategy != "local-perturbation" and (best_val >= 0 or it % 4 == 0):
            cand = sample()
        else:
            step = 10 ** rng.uniform(-4, -0.5)
            noise = rng.standard_normal((8, 8))
            cand = best_sigma + step * (noise + noise.T) / 2
            cand = _project_physical(cand)
        try:
            val = ingleton_value(cand)
        except ValueError:
            continue
        if val < best_val:
            best_val, best_sigma = val, cand
    margin = physicality_margin(best_sigma)
    found = best_val < -1e-6 and margin > 1e-6
    return SearchResult(best_sigma, best_val, margin, seed, iterations, found)
