"""Dense Hilbert-space ground truth at desk scale.

Everything here exists to independently verify the phase-space formulas:
Weyl operators, stabilizer projectors (odd- and even-d constructions),
partial traces, spectral entropies and the discrete Wigner function.

Phase conventions: ``weyl`` implements the textbook formula
(w(p,q) psi)(x) = e^{i pi (2px - pq)/d} psi(x - q) on canonical lifts
p, q in [0, d).  That formula satisfies the composition law but is not
periodic mod d in (p, q) for odd d, so the group-sum projector and the
Wigner transform use the standard mod-d-periodic variant with the phase
exponent multiplied by 2^{-1} = (d+1)/2 mod d.  The two differ only by a
sign (-1)^{pq} per particle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import log
from typing import Sequence

import numpy as np

from .phasespace import PhaseSpace, particles, subset_size
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


def weyl_n(ps: PhaseSpace, v: Sequence[int]) -> np.ndarray:
    """Tensor product of single-particle Weyl operators, particle 1 first."""
    _check_guard(ps)
    if len(v) != ps.m:
        raise ValueError(f"vector must have length {ps.m}")
    d = ps.d
    factors = [weyl(d, v[2 * i], v[2 * i + 1]) for i in range(ps.n)]
    return reduce(np.kron, factors)


def _weyl_periodic_n(ps: PhaseSpace, v: Sequence[int]) -> np.ndarray:
    d = ps.d
    factors = [_weyl_periodic(d, v[2 * i] % d, v[2 * i + 1] % d) for i in range(ps.n)]
    return reduce(np.kron, factors)


def projector(st: StabilizerState) -> np.ndarray:
    """The stabilizer code projector P with tr P = d^n / |M|.

    Odd d: group sum over all elements of M (periodic convention).
    Even d: ordered product sum over basis powers, normalized by d^k where
    k is the number of canonical generators (equal to |M| for free M).
    """
    ps = st.ps
    _check_guard(ps)
    d = ps.d
    dim = d**ps.n
    if d % 2:
        acc = np.zeros((dim, dim), dtype=complex)
        for m in st.M.elements():
            acc += _weyl_periodic_n(ps, m)
        return acc / st.M.order
    gens = st.M.generators()
    k = len(gens)
    ops = [weyl_n(ps, g) for g in gens]
    powers = []
    for op in ops:
        pw = [np.eye(dim, dtype=complex)]
        for _ in range(d - 1):
            pw.append(pw[-1] @ op)
        powers.append(pw)
    acc = np.zeros((dim, dim), dtype=complex)
    for xs in product(range(d), repeat=k):
        term = np.eye(dim, dtype=complex)
        for i, xi in enumerate(xs):
            if xi:
                term = term @ powers[i][xi]
        acc += term
    return acc / d**k


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


def spectral_entropy(rho: np.ndarray, alpha, base_d: int) -> float:
    """Von Neumann (alpha='vonNeumann') or Renyi-alpha entropy, units log d.

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
    logd = log(base_d)
    if alpha == "vonNeumann":
        nz = evals[evals > 0]
        return float(-(nz * np.log(nz)).sum() / logd)
    alpha = float(alpha)
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("Renyi order must be positive and != 1")
    return float(np.log((evals**alpha).sum()) / ((1 - alpha) * logd))


@dataclass(frozen=True)
class WignerTable:
    """Discrete Wigner values on all d^{2n} phase-space points.

    ``values`` has shape (d,) * 2n with axes in coordinate order
    (p_1, q_1, ..., p_n, q_n).
    """

    ps: PhaseSpace
    values: np.ndarray

    def at(self, v: Sequence[int]) -> float:
        return float(self.values[tuple(x % self.ps.d for x in v)])


def wigner(rho: np.ndarray, ps: PhaseSpace) -> WignerTable:
    """W(a) = d^{-2n} sum_b omega^{-2^{-1}[a,b]} tr(w(b)^dag rho), odd d only."""
    if ps.d % 2 == 0:
        raise ValueError("the discrete Wigner function is only defined for odd d")
    _check_guard(ps)
    d, n = ps.d, ps.n
    tau = (d + 1) // 2
    points = list(product(range(d), repeat=ps.m))
    # characteristic function on all points
    chi = {b: np.trace(_weyl_periodic_n(ps, b).conj().T @ rho) for b in points}
    omega = np.exp(2j * np.pi / d)
    values = np.zeros((d,) * ps.m)
    for a in points:
        total = 0j
        for b in points:
            form = sum(
                a[2 * i] * b[2 * i + 1] - a[2 * i + 1] * b[2 * i] for i in range(n)
            )
            total += omega ** (-tau * form % d) * chi[b]
        values[a] = (total / d ** (2 * n)).real
    return WignerTable(ps, values)


def wigner_marginal(W: WignerTable, ps: PhaseSpace, mask: int) -> WignerTable:
    """Sum W over the phase-space coordinates outside the particles in I."""
    if not mask:
        raise ValueError("empty particle subset")
    keep = ps.coords(mask)
    drop = tuple(c for c in range(ps.m) if c not in keep)
    values = W.values.sum(axis=drop) if drop else W.values
    sub = PhaseSpace(subset_size(mask), ps.d)
    return WignerTable(sub, values)


def cross_check(st: StabilizerState) -> dict[str, float]:
    """Largest dense-oracle errors of one state against the exact formulas.

    ``projector``: idempotence, Hermiticity and tr P = d^n / |M|.
    ``entropy``: von Neumann and Renyi-1/2, 2, 3 entropies of every reduced
    state against |I| - log_d |M_I|.
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
        red = reduced_state(rho, ps, mask)
        exact = e.value
        for alpha in ("vonNeumann", 0.5, 2, 3):
            entropy_errs.append(abs(spectral_entropy(red, alpha, d) - exact))
    wigner_err = 0.0
    if d % 2:
        expect = np.zeros((d,) * ps.m)
        for v in st.perp.elements():
            expect[v] = 1 / st.perp.order
        wigner_err = np.abs(wigner(rho, ps).values - expect).max()
    # np.max, unlike the builtin max, propagates a NaN error
    return {
        "projector": float(projector_err),
        "entropy": float(np.max(entropy_errs)),
        "wigner": float(wigner_err),
    }
