"""Dense Hilbert-space ground truth at desk scale.

Everything here exists to independently verify the phase-space formulas:
Weyl operators, stabilizer projectors, partial traces, spectral entropies
and the discrete Wigner function.  Every function works on a stack: Weyl
operators of vectors (..., 2n), and reduced states, spectra, entropies and
Wigner functions of density matrices (..., D, D), D = d^n.  ``projector``,
``dense_state`` and ``cross_check`` take a list of states on one phase space,
so a single state is a batch of one, and a batch costs one numpy call per
step rather than one per state.  ``chunks`` cuts a stream of states into
batches whose largest stacked array, the d powers of one Weyl operator per
state, stays within ``CHUNK_BYTES``.

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
why the eigenvalue is chosen rather than fixed.  The powers are
w(g)^x = w(x g) on integer lifts, by the composition law with [g, g] = 0.
A state with fewer generators than others in its batch is padded with the
zero vector, whose operator is the identity: it picks j = 0 and leaves P
unchanged exactly.
"""

from __future__ import annotations

from itertools import islice
from math import log
from typing import Iterable, Iterator, Sequence

import numpy as np

from .phasespace import PhaseSpace, particles
from .stabilizer import QUANTUM, StabilizerState, entropy_vector

DENSE_GUARD = 4096
ATOL_STRUCT = 1e-9
ATOL_EIG = 1e-8
ATOL_WIGNER = 1e-10
CHUNK_BYTES = 1 << 18  # per batch, for the complex B x d x D x D Weyl powers


def check_guard(ps: PhaseSpace) -> None:
    """ValueError if d^n > DENSE_GUARD, with no giant power built, as in ``stabilizer.check_guard``."""
    if ps.n >= DENSE_GUARD.bit_length() or ps.d**ps.n > DENSE_GUARD:
        raise ValueError(f"d^n = {ps.d}^{ps.n} exceeds the dense guard {DENSE_GUARD}")


def _monomial(cols: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Stack of matrices w with w[..., x, cols[..., x]] = phases[..., x] and zeros elsewhere."""
    w = np.zeros(cols.shape + cols.shape[-1:], dtype=complex)
    np.put_along_axis(w, cols[..., None], phases[..., None], axis=-1)
    return w


def weyl(d: int, p, q) -> np.ndarray:
    """Single-particle Weyl operators, one per entry of the broadcast p and q.

    (p, q) may be arbitrary integer lifts; the operator is evaluated on them
    as given.  It is periodic in (p, q) mod 2d only, so the composition law
    w(v) w(v') = e^{i pi [v,v']/d} w(v + v') holds with the entrywise integer
    sum v + v' and the mod-2d lift of the symplectic form.
    """
    p, q, x = np.asarray(p)[..., None], np.asarray(q)[..., None], np.arange(d)
    return _monomial((x - q) % d, np.exp(1j * np.pi * ((2 * p * x - p * q) % (2 * d)) / d))


def _weyl_periodic(d: int, p, q) -> np.ndarray:
    """Mod-d-periodic Weyl operators for odd d (phase uses 2^{-1} mod d)."""
    p, q, x = np.asarray(p)[..., None], np.asarray(q)[..., None], np.arange(d)
    return _monomial((x - q) % d, np.exp(2j * np.pi * ((p * x - (d + 1) // 2 * p * q) % d) / d))


def weyl_n(ps: PhaseSpace, v, factor=weyl) -> np.ndarray:
    """Tensor products of single-particle ``factor(d, p, q)``, particle 1 first.

    ``v`` is a stack of vectors (..., 2n); the result has shape (..., D, D).
    Every factor is monomial, so the product is too: row (x_1, ..., x_n) has
    the column with digits (x_i - q_i) mod d and the product of the factors'
    entries there.  One ``factor`` call covers the whole stack.
    """
    check_guard(ps)
    v = np.asarray(v)
    if v.shape[-1:] != (ps.m,):
        raise ValueError(f"vector must have length {ps.m}")
    d = ps.d
    cols = (np.arange(d) - v[..., 1::2, None]) % d  # (..., n, d)
    phases = np.take_along_axis(factor(d, v[..., 0::2], v[..., 1::2]), cols[..., None], -1)[..., 0]
    col, phase = cols[..., 0, :], phases[..., 0, :]
    for i in range(1, ps.n):
        col = (col[..., :, None] * d + cols[..., i, None, :]).reshape(col.shape[:-1] + (-1,))
        phase = (phase[..., :, None] * phases[..., i, None, :]).reshape(col.shape)
    return _monomial(col, phase)


def _space(states: Sequence[StabilizerState]) -> PhaseSpace:
    """The one phase space of a nonempty batch of states."""
    if not states:
        raise ValueError("no states")
    ps = states[0].ps
    if any(st.ps != ps for st in states):
        raise ValueError("states live on different phase spaces")
    check_guard(ps)
    return ps


def chunks(states: Iterable[StabilizerState], ps: PhaseSpace) -> Iterator[list[StabilizerState]]:
    """Consecutive lists of ``states`` whose stacked Weyl powers, 16 d D^2 bytes
    per state, fit in CHUNK_BYTES (at least one state per list)."""
    size = max(1, CHUNK_BYTES // (16 * ps.d * (ps.d**ps.n) ** 2))
    it = iter(states)
    while chunk := list(islice(it, size)):
        yield chunk


def projector(states: Sequence[StabilizerState]) -> np.ndarray:
    """The stabilizer code projectors P, tr P = d^n / |M|, stacked (B, D, D).

    Starting from P = I, for each canonical generator g of M with U = w(g):
    m_j = d^{-1} sum_{x<d} omega^{-jx} tr(P U^x) is the multiplicity of the
    eigenvalue omega^j on the range of P; for the smallest j with m_j > 1/2,
    P <- P d^{-1} sum_{x<d} omega^{-jx} U^x.
    """
    ps = _space(states)
    d, D = ps.d, ps.d**ps.n
    gens = [st.M.generators() for st in states]
    G = np.zeros((len(states), max(map(len, gens)), ps.m), dtype=int)
    for b, g in enumerate(gens):
        G[b, : len(g)] = np.reshape(g, (len(g), ps.m))
    x = np.arange(d)
    phases = np.exp(-2j * np.pi * np.outer(x, x) / d)
    factor = _weyl_periodic if d % 2 else weyl
    P = np.tile(np.eye(D, dtype=complex), (len(states), 1, 1))
    for g in G.transpose(1, 0, 2):
        powers = weyl_n(ps, x[:, None] * g[:, None, :], factor)  # (B, d, D, D), U^x = w(x g)
        mult = (np.einsum("bij,bxji->bx", P, powers) @ phases.T).real / d
        j = np.argmax(mult > 0.5, axis=1)
        P = P @ np.einsum("bx,bxij->bij", phases[j], powers) / d
    return P


def _normalised(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tr P, P / tr P), stacked; ValueError if any projector has zero trace."""
    trace = np.trace(P, axis1=-2, axis2=-1).real
    if not trace.all():
        raise ValueError("projector has zero trace")
    return trace, P / trace[:, None, None]


def dense_state(states: Sequence[StabilizerState]) -> np.ndarray:
    """rho(M) = P / tr P, stacked (B, D, D)."""
    return _normalised(projector(states))[1]


def reduced_state(rho: np.ndarray, ps: PhaseSpace, mask: int) -> np.ndarray:
    """Partial trace of a stack (..., D, D) onto the particles in ``mask`` (particle 1 = axis 0)."""
    if not 0 < mask <= ps.full_mask:
        raise ValueError(f"particle subset {mask} is empty or out of range")
    dim = ps.d**ps.n
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"expected {dim} x {dim} matrices, got shape {rho.shape}")
    keep = particles(mask)
    batch = rho.shape[:-2]
    b = len(batch)
    tensor = rho.reshape(batch + (ps.d,) * (2 * ps.n))
    # trace out complement particles, highest axis first to keep indices valid
    for i in sorted(set(range(ps.n)) - set(keep), reverse=True):
        n_ax = (tensor.ndim - b) // 2
        tensor = np.trace(tensor, axis1=b + i, axis2=b + n_ax + i)
    k = len(keep)
    return tensor.reshape(batch + (ps.d**k, ps.d**k))


def spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of each density matrix of a stack (..., m, m), clipped at 0
    and zeroed below 1e-12.

    Requires every matrix Hermitian PSD with unit trace (within 1e-8).
    """
    if not np.allclose(rho, rho.conj().swapaxes(-2, -1), atol=ATOL_EIG):
        raise ValueError("state is not Hermitian")
    if not np.all(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) <= ATOL_EIG):
        raise ValueError("state does not have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -ATOL_EIG:
        raise ValueError(f"state is not PSD (min eigenvalue {evals.min():g})")
    evals = np.clip(evals, 0.0, None)
    # eigenvalues at numerical zero would otherwise leak into small-alpha
    # Renyi entropies (eps^alpha noise); they are zero within tolerance
    evals[evals < 1e-12] = 0.0
    return evals


def spectral_entropy(evals: np.ndarray, alpha, base_d: int):
    """Von Neumann (alpha='vonNeumann') or Renyi-alpha entropy, units log d.

    ``evals`` is a ``spectrum`` (..., m); the result has one entropy per
    spectrum, a float for a single one.
    """
    logd = log(base_d)
    if alpha == "vonNeumann":
        nz = np.where(evals > 0, evals, 1.0)  # 1 log 1 = 0 stands in for 0 log 0
        return -(nz * np.log(nz)).sum(axis=-1) / logd
    alpha = float(alpha)
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("Renyi order must be positive and != 1")
    return np.log((evals**alpha).sum(axis=-1)) / ((1 - alpha) * logd)


def wigner(rho: np.ndarray, ps: PhaseSpace) -> np.ndarray:
    """W(a) = d^{-2n} sum_b omega^{-tau[a,b]} tr(w(b)^dag rho), odd d only.

    tau = 2^{-1} mod d and w is the periodic convention.  The sum over each
    b_p is a Kronecker delta, which leaves one DFT per particle,
    W(p, q) = d^{-1} sum_t omega^{-pt} rho[tau q + t, tau q - t].
    For a stack rho (..., D, D) the result has shape (...,) + (d,) * 2n, the
    last axes in coordinate order (p_1, q_1, ..., p_n, q_n).
    """
    if ps.d % 2 == 0:
        raise ValueError("the discrete Wigner function is only defined for odd d")
    check_guard(ps)
    d, n = ps.d, ps.n
    t = np.arange(d)[:, None]
    c = (d + 1) // 2 * np.arange(d)[None, :]
    rows, cols = [], []
    for i in range(n):
        shape = [1] * (2 * n)
        shape[2 * i] = shape[2 * i + 1] = d
        rows.append(((c + t) % d).reshape(shape))
        cols.append(((c - t) % d).reshape(shape))
    batch = rho.shape[:-2]
    # R[..., t_1, q_1, ..., t_n, q_n] = rho[..., tau q + t, tau q - t] per particle
    R = rho.reshape(batch + (d,) * (2 * n))[(Ellipsis, *rows, *cols)]
    b = len(batch)
    return (np.fft.fftn(R, axes=range(b, b + 2 * n, 2)) / d**n).real


def wigner_marginal(W: np.ndarray, ps: PhaseSpace, mask: int) -> np.ndarray:
    """Sum W over the phase-space coordinates outside the particles in I."""
    if not 0 < mask <= ps.full_mask:
        raise ValueError(f"particle subset {mask} is empty or out of range")
    if W.shape != (ps.d,) * ps.m:
        raise ValueError(f"expected a Wigner table of shape {(ps.d,) * ps.m}, got {W.shape}")
    keep = ps.coords(mask)
    return W.sum(axis=tuple(c for c in range(ps.m) if c not in keep))


def cross_check(states: Sequence[StabilizerState]) -> dict[str, np.ndarray]:
    """Largest dense-oracle errors of each state against the exact formulas.

    The states share one phase space; each value holds one error per state.
    ``projector``: idempotence, Hermiticity and tr P = d^n / |M|.
    ``entropy``: von Neumann and Renyi-1/2, 2, 3 entropies of every reduced
    state, from one spectrum each, against |I| - log_d |M_I|.
    ``wigner``: W against the uniform distribution on M_perp (odd d only;
    0.0 for even d).
    """
    ps = _space(states)
    d = ps.d
    P = projector(states)
    trace, rho = _normalised(P)
    orders = np.array([st.M.order for st in states])
    projector_err = np.max(
        [
            np.abs(P @ P - P).max(axis=(-2, -1)),
            np.abs(P - P.conj().swapaxes(-2, -1)).max(axis=(-2, -1)),
            np.abs(trace - d**ps.n / orders),
        ],
        axis=0,
    )
    vectors = [entropy_vector(st, QUANTUM) for st in states]
    entropy_errs = []
    for mask in range(1, 1 << ps.n):
        evals = spectrum(reduced_state(rho, ps, mask))
        exact = np.array([vec.value(mask) for vec in vectors])
        for alpha in ("vonNeumann", 0.5, 2, 3):
            entropy_errs.append(np.abs(spectral_entropy(evals, alpha, d) - exact))
    wigner_err = np.zeros(len(states))
    if d % 2:
        expect = np.zeros((len(states),) + (d,) * ps.m)
        for b, st in enumerate(states):
            for v in st.perp.elements():
                expect[(b, *v)] = 1 / st.perp.order
        wigner_err = np.abs(wigner(rho, ps) - expect).max(axis=tuple(range(1, 1 + ps.m)))
    # np.max, unlike the builtin max, propagates a NaN error
    return {"projector": projector_err, "entropy": np.max(entropy_errs, axis=0), "wigner": wigner_err}
