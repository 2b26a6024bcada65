"""Gaussian covariance calculus and Renyi phase-space entropies.

The covariance matrix Sigma is always the second-moment matrix of the Wigner
function, in interleaved (p_1, q_1, ..., p_n, q_n) layout.  The vacuum scale
is the constant SIGMA_VAC = 1/2, the unique choice consistent with the Wigner
normalization; with it the quantum Renyi-2 entropy is
S_2(rho_I) = (1/2) log det(Sigma_I / SIGMA_VAC), and the classical Renyi
entropies of the Wigner marginals recover it up to a constant per mode.  All
entropies here are in nats.

Every log det Sigma_I comes from one stacked Cholesky in ``_logdets``, of
Sigma with the rows and columns outside I set to the identity's.  The
per-mask entropies and ``mc_renyi2`` ask it for Sigma_I and Sigma, and the
search's ``ingleton_value`` for the Ingleton's terms and Sigma.  One Sigma
check (``_checked_sigma``) serves ``GaussianState`` and ``ingleton_value``.
The cached arrays are read-only.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from .inequalities import ingleton
from .phasespace import subset_size
from .value import Value

SIGMA_VAC = 0.5
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


def _checked_sigma(sigma: np.ndarray, n: int) -> np.ndarray:
    """Sigma as a float array, checked: 2n x 2n, finite and symmetric within SYMMETRY_TOL."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2 * n, 2 * n):
        raise ValueError(f"sigma must be {2 * n} x {2 * n}")
    if not np.isfinite(sigma).all():
        raise ValueError("mu and sigma must be finite")
    if np.abs(sigma - sigma.T).max() > SYMMETRY_TOL:
        raise ValueError("covariance matrix is not symmetric")
    return sigma


class GaussianState(Value):
    __slots__ = _fields = ("n", "mu", "sigma")

    def __init__(self, n: int, mu: np.ndarray, sigma: np.ndarray) -> None:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (2 * n,):
            raise ValueError(f"mu must have shape ({2 * n},)")
        if not np.isfinite(mu).all():
            raise ValueError("mu and sigma must be finite")
        self._set(n, mu, _checked_sigma(sigma, n))

    @classmethod
    def vacuum(cls, n: int) -> "GaussianState":
        return cls(n, np.zeros(2 * n), SIGMA_VAC * np.eye(2 * n))


@lru_cache(maxsize=None)
def _vacuum_term(n: int) -> np.ndarray:
    """i * SIGMA_VAC * Omega for n modes (read-only)."""
    return _frozen(1j * SIGMA_VAC * symplectic_matrix(n))


def physicality_margin(sigma: np.ndarray) -> float:
    """Minimum eigenvalue of Sigma + i * SIGMA_VAC * Omega; Sigma must be 2n x 2n, n >= 1."""
    n = len(sigma) // 2
    if n < 1 or np.shape(sigma) != (2 * n, 2 * n):
        raise ValueError(f"sigma must be 2n x 2n with n >= 1, got shape {np.shape(sigma)}")
    try:
        return float(np.linalg.eigvalsh(sigma + _vacuum_term(n)).min())
    except np.linalg.LinAlgError:
        raise ValueError("physicality margin: eigenvalues did not converge") from None


def _keep(n: int, masks) -> np.ndarray:
    """Boolean stack, row k true on the block Sigma_I of I = ``masks[k]``."""
    modes = np.array(masks)[:, None] >> np.arange(n) & 1
    coords = np.repeat(modes, 2, axis=1).astype(bool)
    return coords[:, :, None] & coords[:, None, :]


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    return _frozen(np.eye(dim))


def _logdets(sigma: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """log det Sigma_I for each row I of the stack ``keep``; the positive-definiteness check.

    Sigma with the rows and columns outside I set to the identity's has the
    Cholesky diagonal of Sigma_I with ones in between: log det Sigma_I is the
    sum of 2 log L_ii.
    """
    try:
        chol = np.linalg.cholesky(np.where(keep, sigma, _identity(len(sigma))))
    except np.linalg.LinAlgError:
        raise ValueError("covariance submatrix is not positive definite") from None
    return 2 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)


def _half_log_det(g: GaussianState, mask: int) -> float:
    """(1/2) log det Sigma_I, factored with Sigma so that a Sigma that is not
    positive definite raises on every mask; the stack is not cached."""
    if not 0 < mask < 1 << g.n:
        raise ValueError(f"mode subset {mask} is empty or out of range")
    return 0.5 * float(_logdets(g.sigma, _keep(g.n, (mask, (1 << g.n) - 1)))[0])


def renyi2_quantum(g: GaussianState, mask: int) -> float:
    """S_2(rho_I) = -log tr rho_I^2 = (1/2) log det(Sigma_I / SIGMA_VAC)."""
    return _half_log_det(g, mask) - subset_size(mask) * math.log(SIGMA_VAC)


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
MC_BLOCK = 1 << 16  # rows of draws held at once


def mc_renyi2(
    g: GaussianState, mask: int, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of H_2(X_I) = -log int W^2, with standard error.

    Importance sampling with W itself: E_W[W] = int W^2, with whitened draws
    and W's norm from ``_half_log_det``.  Returns the estimate of H_2 and a
    jackknife standard error; deterministic per seed.  The draws are taken
    MC_BLOCK rows at a time, which leaves the random stream as one draw of all
    rows, and every later step works in place on the one array of weights.
    """
    if samples < MC_MIN_SAMPLES:
        raise ValueError("need at least 10^4 samples")
    half_log_det = _half_log_det(g, mask)  # checks the mask first
    dim = 2 * subset_size(mask)
    lognorm = -0.5 * dim * math.log(2 * math.pi) - half_log_det
    rng = np.random.default_rng(seed)
    w = np.empty(samples)
    for lo in range(0, samples, MC_BLOCK):
        # a draw x = L z of W, centred, with L L^T = Sigma_I, has x^T Sigma_I^-1 x = z^T z
        z = rng.standard_normal((min(MC_BLOCK, samples - lo), dim))
        w[lo : lo + len(z)] = np.exp(lognorm - 0.5 * np.einsum("ij,ij->i", z, z))
    mean = w.mean()
    est = -math.log(mean)
    # leave-one-out jackknife of -log mean: theta = -log((samples * mean - w) / (samples - 1))
    theta = np.subtract(samples * mean, w, out=w)
    theta /= samples - 1
    np.log(theta, out=theta)
    theta *= -1
    theta -= theta.mean()
    se = math.sqrt((samples - 1) / samples * np.square(theta, out=theta).sum())
    return est, se


def entropy_vector_gaussian(g: GaussianState) -> dict[int, float]:
    """mask -> S_2(rho_I) for every nonempty mask of a physical state."""
    margin = physicality_margin(g.sigma)
    if margin < -PHYSICALITY_TOL:
        raise ValueError(f"state is unphysical (margin {margin:g})")
    return {mask: renyi2_quantum(g, mask) for mask in range(1, 1 << g.n)}


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
def _ingleton_keep() -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """``_keep`` (read-only) of the masks of ingleton(4, 1, 2, 4, 8)'s nonzero terms
    in ``nu`` order, then of the full mask, so a Sigma that is not a state
    raises; and (nu_I, |I|) per term.  The terms of C and D cancel to 0."""
    terms = [(mask, c) for mask, c in ingleton(4, 1, 2, 4, 8).nu.items() if c]
    keep = _keep(4, [mask for mask, _ in terms] + [15])
    return _frozen(keep), tuple((c, subset_size(mask)) for mask, c in terms)


def ingleton_value(sigma: np.ndarray, sigma_vac: float = SIGMA_VAC) -> float:
    """The Ingleton combination on the Renyi-2 entropy vector of a 4-mode Sigma.

    One checked Sigma and one ``_logdets`` call per call; the sum is
    ``evaluate_float`` of ``ingleton(4, 1, 2, 4, 8)`` on the entries
    S_2(I) = (1/2) log det Sigma_I - |I| log SIGMA_VAC, term by term in ``nu``
    order, less the two terms whose coefficient is 0.  ``sigma_vac`` is
    accepted for callers that pass the scale, and must be SIGMA_VAC.
    """
    if sigma_vac != SIGMA_VAC:
        raise ValueError("sigma_vac must be 1/2")
    keep, terms = _ingleton_keep()
    logdets = _logdets(_checked_sigma(sigma, 4), keep).tolist()
    shift = math.log(SIGMA_VAC)
    return sum(c * (0.5 * ld - size * shift) for (c, size), ld in zip(terms, logdets))


def _project_physical(sigma: np.ndarray) -> np.ndarray:
    """Shift Sigma along the identity until Sigma + i Omega / 2 >= SEARCH_MARGIN."""
    lam = physicality_margin(sigma)
    if lam < SEARCH_MARGIN:
        sigma = sigma + (SEARCH_MARGIN - lam) * np.eye(sigma.shape[0])
    return sigma


def ingleton_search(seed: int, iterations: int) -> SearchResult:
    """Search physical 4-mode covariance matrices for an Ingleton violation.

    Random candidates are interleaved with local hill descent from the best
    one found so far; every candidate is projected back onto the physical set
    with the margin SEARCH_MARGIN, so a negative best value is always a
    certificate.
    """
    rng = np.random.default_rng(seed)

    def sample() -> np.ndarray:
        if rng.random() < 0.5:
            # scalar 4-variable Wishart lifted to one mode per variable
            a = rng.standard_normal((4, 4 + rng.integers(0, 3)))
            cand = np.kron(a @ a.T, np.eye(2))
        else:
            a = rng.standard_normal((8, 8 + rng.integers(0, 5)))
            cand = a @ a.T
        return _project_physical(cand)

    best_sigma = _project_physical(sample())
    best_val = ingleton_value(best_sigma)
    for it in range(iterations):
        if best_val >= 0 or it % 4 == 0:
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
