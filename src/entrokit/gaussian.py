"""Gaussian covariance calculus and Renyi phase-space entropies.

The covariance matrix Sigma is always the second-moment matrix of the Wigner
function, in interleaved (p_1, q_1, ..., p_n, q_n) layout.  The convention
scale sigma_vac fixes the vacuum: sigma_vac = 1/2 (default) is the unique
choice consistent with the Wigner normalization, and the quantum Renyi-2
entropy is S_2(rho_I) = (1/2) log det(Sigma_I / sigma_vac).  All entropies
here are in nats.

Every log det Sigma_I comes from one stacked Cholesky over the chain orders
(``_chain_logdets``).  ``subsystem_logdets`` reads it for every mask, and the
per-mask entropies read that.  The Ingleton search scores each candidate with
``ingleton_value``, a fused kernel on the same log dets that reads the Ingleton
terms from a table built once per process.  One Sigma check (``_checked_sigma``)
serves ``GaussianState``, ``ingleton_value``, ``subsystem_logdets`` and the
search's start.  The cached arrays are read-only.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .inequalities import ingleton
from .phasespace import chain_orders, particles, subset_size
from .value import Value

PHYSICALITY_TOL = 1e-9
SYMMETRY_TOL = 1e-10
SEARCH_MARGIN = 1e-4  # every search candidate is projected to at least this physicality margin


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can corrupt the cache."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def symplectic_matrix(n: int) -> np.ndarray:
    """Direct sum of [[0, 1], [-1, 0]] blocks, matching the discrete layout (read-only)."""
    omega = np.zeros((2 * n, 2 * n))
    for i in range(n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return _frozen(omega)


def _checked_sigma(sigma: np.ndarray, n: int, sigma_vac: float = 0.5) -> np.ndarray:
    """Sigma as a float array, checked: 2n x 2n, finite, symmetric within
    SYMMETRY_TOL, and a vacuum scale sigma_vac of 1/2 or 1."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2 * n, 2 * n):
        raise ValueError(f"sigma must be {2 * n} x {2 * n}")
    if not np.isfinite(sigma).all():
        raise ValueError("mu and sigma must be finite")
    if np.abs(sigma - sigma.T).max() > SYMMETRY_TOL:
        raise ValueError("covariance matrix is not symmetric")
    if sigma_vac not in (0.5, 1.0):
        raise ValueError("sigma_vac must be 1/2 or 1")
    return sigma


class GaussianState(Value):
    __slots__ = _fields = ("n", "mu", "sigma", "sigma_vac")

    def __init__(self, n: int, mu: np.ndarray, sigma: np.ndarray, sigma_vac: float = 0.5) -> None:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (2 * n,):
            raise ValueError(f"mu must have shape ({2 * n},)")
        if not np.isfinite(mu).all():
            raise ValueError("mu and sigma must be finite")
        self._set(n, mu, _checked_sigma(sigma, n, sigma_vac), sigma_vac)

    @classmethod
    def vacuum(cls, n: int, sigma_vac: float = 0.5) -> "GaussianState":
        return cls(n, np.zeros(2 * n), sigma_vac * np.eye(2 * n), sigma_vac)

    def submatrix(self, mask: int) -> np.ndarray:
        idx = []
        for i in particles(mask):
            idx.extend((2 * i, 2 * i + 1))
        return self.sigma[np.ix_(idx, idx)]


@lru_cache(maxsize=None)
def _vacuum_term(n: int, sigma_vac: float) -> np.ndarray:
    """i * sigma_vac * Omega for n modes (read-only)."""
    return _frozen(1j * sigma_vac * symplectic_matrix(n))


def physicality_margin(sigma: np.ndarray, sigma_vac: float = 0.5) -> float:
    """Minimum eigenvalue of Sigma + i * sigma_vac * Omega; Sigma must be 2n x 2n, n >= 1."""
    n = len(sigma) // 2
    if n < 1 or np.shape(sigma) != (2 * n, 2 * n):
        raise ValueError(f"sigma must be 2n x 2n with n >= 1, got shape {np.shape(sigma)}")
    try:
        return float(np.linalg.eigvalsh(sigma + _vacuum_term(n, sigma_vac)).min())
    except np.linalg.LinAlgError:
        raise ValueError("physicality margin: eigenvalues did not converge") from None


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a matrix or a stack of them; the positive-definiteness check."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValueError("covariance submatrix is not positive definite") from None


@lru_cache(maxsize=None)
def _chain_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in Sigma of the mode-permuted Sigma for each order of
    ``chain_orders(n)``, and at ``mask - 1`` the flat (order, prefix length)
    position of the first prefix that is mask.  The arrays are read-only."""
    orders = chain_orders(n)
    cols = np.array([[c for x in pi for c in (2 * x, 2 * x + 1)] for pi in orders])
    first: dict[int, int] = {}
    for o, pi in enumerate(orders):
        mask = 0
        for k, x in enumerate(pi):
            mask |= 1 << x
            first.setdefault(mask, o * n + k)
    gather = cols[:, :, None] * (2 * n) + cols[:, None, :]
    return _frozen(gather), _frozen(np.array([first[mask] for mask in range(1, 1 << n)]))


def _chain_logdets(sigma: np.ndarray, n: int) -> np.ndarray:
    """log det Sigma_I for every prefix set I of every order of ``chain_orders(n)``,
    flat in (order, prefix length) order, from one stacked Cholesky.

    With Sigma's mode pairs permuted by an order pi, Cholesky rows 0 .. 2k-1
    factor Sigma_I for the prefix set I = pi(0..k-1), so log det Sigma_I is the
    sum of 2 log L_ii over them.
    """
    gather, _ = _chain_gather(n)
    diag = np.diagonal(_cholesky(sigma.take(gather)), axis1=1, axis2=2)
    return np.cumsum(2 * np.log(diag), axis=1)[:, 1::2].ravel()


def subsystem_logdets(sigma: np.ndarray, n: int) -> tuple[float, ...]:
    """log det Sigma_mask at ``mask - 1`` for every nonempty mask, read from ``_chain_logdets``.

    The prefix sets of the chain orders are the complements of the suffix
    sets, which cover every nonempty subset.  Sigma gets the shared check,
    ``_checked_sigma``.
    """
    sigma = _checked_sigma(sigma, n)
    _, at = _chain_gather(n)
    return tuple(_chain_logdets(sigma, n)[at].tolist())


def _renyi2_entries(g: GaussianState) -> dict[int, float]:
    shift = math.log(g.sigma_vac)
    return {mask: 0.5 * ld - subset_size(mask) * shift for mask, ld in enumerate(subsystem_logdets(g.sigma, g.n), 1)}


def _check_mask(g: GaussianState, mask: int) -> None:
    if not 0 < mask < 1 << g.n:
        raise ValueError(f"mode subset {mask} is empty or out of range")


def _half_log_det(g: GaussianState, mask: int) -> float:
    """(1/2) log det Sigma_I, read from ``subsystem_logdets``, so a Sigma that is
    not positive definite raises on every mask."""
    _check_mask(g, mask)
    return 0.5 * subsystem_logdets(g.sigma, g.n)[mask - 1]


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


class SearchResult(Value):
    __slots__ = _fields = ("sigma", "value", "margin", "seed", "iterations", "found")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, sigma: np.ndarray, value: float, margin: float, seed: int, iterations: int, found: bool) -> None:
        self._set(sigma, value, margin, seed, iterations, found)

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


@lru_cache(maxsize=None)
def _ingleton_terms() -> tuple[tuple[int, int, int], ...]:
    """(nu_I, position of log det Sigma_I in ``_chain_logdets(sigma, 4)``, |I|)
    for each term of ingleton(4, 1, 2, 4, 8), in ``nu`` order."""
    at = _chain_gather(4)[1].tolist()
    return tuple((c, at[mask - 1], subset_size(mask)) for mask, c in ingleton(4, 1, 2, 4, 8).nu.items())


def ingleton_value(sigma: np.ndarray, sigma_vac: float = 0.5) -> float:
    """The Ingleton combination on the Renyi-2 entropy vector of a 4-mode Sigma.

    One checked Sigma and one stacked Cholesky per call; the sum is
    ``evaluate_float`` of ``ingleton(4, 1, 2, 4, 8)`` on the entries
    S_2(I) = (1/2) log det Sigma_I - |I| log sigma_vac, term by term in ``nu`` order.
    """
    logdets = _chain_logdets(_checked_sigma(sigma, 4, sigma_vac), 4).tolist()
    shift = math.log(sigma_vac)
    return sum(c * (0.5 * logdets[at] - size * shift) for c, at, size in _ingleton_terms())


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

    best_sigma = _project_physical(_checked_sigma(start, 4, 0.5) if start is not None else sample())
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
