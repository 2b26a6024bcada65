"""Dense Hilbert-space ground truth at desk scale.

Everything here exists to independently verify the phase-space formulas:
Weyl operators, stabilizer projectors, partial traces, spectral entropies
and the discrete Wigner function.

Phase conventions: ``weyl`` implements the textbook formula
(w(p,q) psi)(x) = e^{i pi (2px - pq)/d} psi(x - q) on canonical lifts
p, q in [0, d).  That formula satisfies the composition law but is not
periodic mod d in (p, q) for odd d, so for odd d the projector and the
Wigner function use the standard mod-d-periodic variant with the phase
exponent multiplied by 2^{-1} = (d+1)/2 mod d.  The two differ only by a
sign (-1)^{pq} per particle.

The projector has one construction for every d: ``weyl`` for even d,
``_weyl_periodic`` for odd d.  In either convention w(g)^d = I, so the
eigenvalues of w(g) are omega^j = e^{2 pi i j/d}.  P is cut down to one
eigenspace of w(g) per canonical generator g of M, the one with the smallest
j present on the current range.  The w(g) commute, so the result is a joint
eigenspace, of dimension d^n / |M|.  For odd d the periodic operators
represent M, so j = 0 is always present and P is the group sum
(1/|M|) sum_{m in M} w(m).  For even d the +1 eigenspaces of the generators
can be disjoint (in Z_6^2, 3(2,1) = (0,3) but w(2,1)^3 = -w(0,3)), which is
why the eigenvalue is chosen rather than fixed.
"""

from __future__ import annotations

from functools import reduce
from math import log
from typing import Sequence

import numpy as np

from .phasespace import PhaseSpace, particles
from .stabilizer import QUANTUM, StabilizerState, entropy_vector

DENSE_GUARD = 4096
ATOL_STRUCT = 1e-9
ATOL_EIG = 1e-8
ATOL_WIGNER = 1e-10


def _check_guard(ps: PhaseSpace) -> None:
    if ps.d**ps.n > DENSE_GUARD:
        raise ValueError(f"dense dimension {ps.d ** ps.n} exceeds guard {DENSE_GUARD}")


def weyl(d: int, p: int, q: int) -> np.ndarray:
    """Single-particle Weyl operator.

    (p, q) may be arbitrary integer lifts; the operator is evaluated on them
    as given.  It is periodic in (p, q) mod 2d only, so the composition law
    w(v) w(v') = e^{i pi [v,v']/d} w(v + v') holds with the entrywise integer
    sum v + v' and the mod-2d lift of the symplectic form.
    """
    x = np.arange(d)
    w = np.zeros((d, d), dtype=complex)
    w[x, (x - q) % d] = np.exp(1j * np.pi * (2 * p * x - p * q) / d)
    return w


def _weyl_periodic(d: int, p: int, q: int) -> np.ndarray:
    """Mod-d-periodic Weyl operator for odd d (phase uses 2^{-1} mod d)."""
    tau = (d + 1) // 2
    x = np.arange(d)
    w = np.zeros((d, d), dtype=complex)
    w[x, (x - q) % d] = np.exp(2j * np.pi * ((p * x - tau * p * q) % d) / d)
    return w


def weyl_n(ps: PhaseSpace, v: Sequence[int], factor=weyl) -> np.ndarray:
    """Tensor product of single-particle ``factor(d, p, q)``, particle 1 first."""
    _check_guard(ps)
    if len(v) != ps.m:
        raise ValueError(f"vector must have length {ps.m}")
    return reduce(np.kron, [factor(ps.d, v[2 * i], v[2 * i + 1]) for i in range(ps.n)])


def projector(st: StabilizerState) -> np.ndarray:
    """The stabilizer code projector P with tr P = d^n / |M|.

    Starting from P = I, for each canonical generator g of M with U = w(g):
    m_j = d^{-1} sum_{x<d} omega^{-jx} tr(P U^x) is the multiplicity of the
    eigenvalue omega^j on the range of P; for the smallest j with m_j > 1/2,
    P <- P d^{-1} sum_{x<d} omega^{-jx} U^x.
    """
    ps = st.ps
    _check_guard(ps)
    d = ps.d
    P = np.eye(d**ps.n, dtype=complex)
    phases = np.exp(-2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    for g in st.M.generators():
        U = weyl_n(ps, g, _weyl_periodic if d % 2 else weyl)
        powers = [np.eye(len(U), dtype=complex)]
        for _ in range(d - 1):
            powers.append(powers[-1] @ U)
        powers = np.array(powers)
        mult = (phases @ np.einsum("ij,xji->x", P, powers)).real / d
        j = int(np.argmax(mult > 0.5))
        P = P @ np.tensordot(phases[j], powers, axes=1) / d
    return P


def dense_state(st: StabilizerState) -> np.ndarray:
    """rho(M) = P / tr P."""
    P = projector(st)
    return P / np.trace(P).real


def reduced_state(rho: np.ndarray, ps: PhaseSpace, mask: int) -> np.ndarray:
    """Partial trace onto the particles in ``mask`` (particle 1 = axis 0)."""
    if not mask:
        raise ValueError("empty particle subset")
    dim = ps.d**ps.n
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim} x {dim} matrix, got {rho.shape}")
    keep = particles(mask)
    tensor = rho.reshape([ps.d] * (2 * ps.n))
    # trace out complement particles, highest axis first to keep indices valid
    for i in sorted(set(range(ps.n)) - set(keep), reverse=True):
        n_ax = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=i, axis2=n_ax + i)
    k = len(keep)
    return tensor.reshape(ps.d**k, ps.d**k)


def spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, clipped at 0 and zeroed below 1e-12.

    Requires rho Hermitian PSD with unit trace (within 1e-8).
    """
    if not np.allclose(rho, rho.conj().T, atol=ATOL_EIG):
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > ATOL_EIG:
        raise ValueError("state does not have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -ATOL_EIG:
        raise ValueError(f"state is not PSD (min eigenvalue {evals.min():g})")
    evals = np.clip(evals, 0.0, None)
    # eigenvalues at numerical zero would otherwise leak into small-alpha
    # Renyi entropies (eps^alpha noise); they are zero within tolerance
    evals[evals < 1e-12] = 0.0
    return evals


def spectral_entropy(evals: np.ndarray, alpha, base_d: int) -> float:
    """Von Neumann (alpha='vonNeumann') or Renyi-alpha entropy, units log d.

    ``evals`` is a ``spectrum``.
    """
    logd = log(base_d)
    if alpha == "vonNeumann":
        nz = evals[evals > 0]
        return float(-(nz * np.log(nz)).sum() / logd)
    alpha = float(alpha)
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("Renyi order must be positive and != 1")
    return float(np.log((evals**alpha).sum()) / ((1 - alpha) * logd))


def wigner(rho: np.ndarray, ps: PhaseSpace) -> np.ndarray:
    """W(a) = d^{-2n} sum_b omega^{-tau[a,b]} tr(w(b)^dag rho), odd d only.

    tau = 2^{-1} mod d and w is the periodic convention.  The sum over each
    b_p is a Kronecker delta, which leaves one DFT per particle,
    W(p, q) = d^{-1} sum_t omega^{-pt} rho[tau q + t, tau q - t].
    The result has shape (d,) * 2n, axes in coordinate order
    (p_1, q_1, ..., p_n, q_n).
    """
    if ps.d % 2 == 0:
        raise ValueError("the discrete Wigner function is only defined for odd d")
    _check_guard(ps)
    d, n = ps.d, ps.n
    t = np.arange(d)[:, None]
    c = (d + 1) // 2 * np.arange(d)[None, :]
    rows, cols = [], []
    for i in range(n):
        shape = [1] * (2 * n)
        shape[2 * i] = shape[2 * i + 1] = d
        rows.append(((c + t) % d).reshape(shape))
        cols.append(((c - t) % d).reshape(shape))
    # R[t_1, q_1, ..., t_n, q_n] = rho[tau q + t, tau q - t] per particle
    R = rho.reshape((d,) * (2 * n))[tuple(rows + cols)]
    return (np.fft.fftn(R, axes=range(0, 2 * n, 2)) / d**n).real


def wigner_marginal(W: np.ndarray, ps: PhaseSpace, mask: int) -> np.ndarray:
    """Sum W over the phase-space coordinates outside the particles in I."""
    if not mask:
        raise ValueError("empty particle subset")
    if W.shape != (ps.d,) * ps.m:
        raise ValueError(f"expected a Wigner table of shape {(ps.d,) * ps.m}, got {W.shape}")
    keep = ps.coords(mask)
    return W.sum(axis=tuple(c for c in range(ps.m) if c not in keep))


def cross_check(st: StabilizerState) -> dict[str, float]:
    """Largest dense-oracle errors of one state against the exact formulas.

    ``projector``: idempotence, Hermiticity and tr P = d^n / |M|.
    ``entropy``: von Neumann and Renyi-1/2, 2, 3 entropies of every reduced
    state, from one spectrum each, against |I| - log_d |M_I|.
    ``wigner``: W against the uniform distribution on M_perp (odd d only;
    0.0 for even d).
    """
    ps = st.ps
    d = ps.d
    P = projector(st)
    projector_err = np.max(
        [
            np.abs(P @ P - P).max(),
            np.abs(P - P.conj().T).max(),
            abs(np.trace(P).real - d**ps.n / st.M.order),
        ]
    )
    rho = P / np.trace(P).real
    entropy_errs = []
    for mask, e in entropy_vector(st, QUANTUM).entries.items():
        evals = spectrum(reduced_state(rho, ps, mask))
        for alpha in ("vonNeumann", 0.5, 2, 3):
            entropy_errs.append(abs(spectral_entropy(evals, alpha, d) - e.value))
    wigner_err = 0.0
    if d % 2:
        expect = np.zeros((d,) * ps.m)
        for v in st.perp.elements():
            expect[v] = 1 / st.perp.order
        wigner_err = np.abs(wigner(rho, ps) - expect).max()
    # np.max, unlike the builtin max, propagates a NaN error
    return {
        "projector": float(projector_err),
        "entropy": float(np.max(entropy_errs)),
        "wigner": float(wigner_err),
    }
