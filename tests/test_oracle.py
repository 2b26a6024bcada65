"""Dense Hilbert-space oracle: Weyl algebra, projectors, entropies, Wigner."""

import functools
import math
from itertools import product

import numpy as np
import pytest

from entrokit import oracle
from entrokit.phasespace import PhaseSpace, particles
from entrokit.stabilizer import QUANTUM, StabilizerState, entropy_vector
from entrokit.zmod import Subgroup


def test_weyl_basics():
    for d in (2, 3, 4, 5):
        X = oracle.weyl(d, 0, 1)  # shift
        Z = oracle.weyl(d, 1, 0)  # clock
        e = np.zeros(d)
        e[0] = 1.0
        assert np.allclose(X @ e, np.eye(d)[:, 1])
        assert np.allclose(Z, np.diag(np.exp(2j * np.pi * np.arange(d) / d)))
        # unitarity
        W = oracle.weyl(d, 1, 1)
        assert np.allclose(W @ W.conj().T, np.eye(d), atol=1e-12)


def test_weyl_composition_law_integer_lifts():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 5):
        ps = PhaseSpace(2, d)
        for _ in range(20):
            v = rng.integers(-2 * d, 2 * d, size=4)
            w = rng.integers(-2 * d, 2 * d, size=4)
            lhs = oracle.weyl_n(ps, v) @ oracle.weyl_n(ps, w)
            form = sum(
                int(v[2 * i]) * int(w[2 * i + 1]) - int(v[2 * i + 1]) * int(w[2 * i])
                for i in range(2)
            )
            rhs = np.exp(1j * np.pi * form / d) * oracle.weyl_n(ps, v + w)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_weyl_mod_2d_periodicity():
    for d in (2, 3, 4):
        assert np.allclose(oracle.weyl(d, 1, 1), oracle.weyl(d, 1 + 2 * d, 1 + 2 * d))


# (6,1), (10,1) and (12,1) hold states whose generators' +1 eigenspaces are
# disjoint, e.g. <(2,1), (0,3)> in Z_6^2; (9,1) holds non-free subgroups at odd d
@pytest.mark.parametrize(
    "d,n", [(2, 1), (3, 1), (2, 2), (4, 1), (5, 1), (6, 1), (9, 1), (10, 1), (12, 1)]
)
def test_projector_laws(d, n, corpus):
    ps = PhaseSpace(n, d)
    factor = oracle._weyl_periodic if d % 2 else oracle.weyl
    states = corpus(d, n)
    for st, P in zip(states, oracle.projector(states), strict=True):
        assert np.abs(P @ P - P).max() < oracle.ATOL_STRUCT
        assert np.abs(P - P.conj().T).max() < oracle.ATOL_STRUCT
        assert abs(np.trace(P).real - d**n / st.M.order) < oracle.ATOL_STRUCT
        # P is a joint eigenspace of the generators, not just a projector of the right trace
        for g in st.M.generators():
            U = oracle.weyl_n(ps, g, factor)
            lam = np.trace(U @ P) / np.trace(P)
            assert abs(abs(lam) - 1) < oracle.ATOL_STRUCT
            assert np.abs(U @ P - lam * P).max() < oracle.ATOL_STRUCT


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (9, 1), (3, 2)])
def test_projector_matches_odd_d_group_sum(d, n, corpus):
    ps = PhaseSpace(n, d)
    states = corpus(d, n)
    for st, P in zip(states, oracle.projector(states), strict=True):
        expect = sum(oracle.weyl_n(ps, m, oracle._weyl_periodic) for m in st.M.elements()) / st.M.order
        assert np.abs(P - expect).max() < 1e-12


def test_dense_state_has_unit_trace():
    ps = PhaseSpace(2, 3)
    M = Subgroup.from_generators([[1, 0, 1, 0], [0, 1, 0, -1]], 3, 4)
    (rho,) = oracle.dense_state([StabilizerState(ps, M)])
    assert abs(np.trace(rho) - 1) < 1e-12
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12


def test_dense_state_rejects_a_zero_projector(monkeypatch, corpus):
    # the check cross_check makes, not a NaN state under a RuntimeWarning
    states = corpus(2, 2)[:3]
    monkeypatch.setattr(oracle, "projector", lambda states: np.zeros((len(states), 4, 4), dtype=complex))
    with pytest.raises(ValueError, match="projector has zero trace"):
        oracle.dense_state(states)


def test_reduced_state_against_index_contraction():
    rng = np.random.default_rng(3)
    ps = PhaseSpace(3, 2)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    t = rho.reshape(2, 2, 2, 2, 2, 2)
    # keep particle 2 (mask 0b010): trace axes of particles 1 and 3
    expect = np.einsum("aibajb->ij", t)
    got = oracle.reduced_state(rho, ps, 0b010)
    assert np.abs(got - expect).max() < 1e-12
    # keep particles 1 and 3 (mask 0b101)
    expect2 = np.einsum("ixjaxb->ijab", t).reshape(4, 4)
    got2 = oracle.reduced_state(rho, ps, 0b101)
    assert np.abs(got2 - expect2).max() < 1e-12
    with pytest.raises(ValueError):
        oracle.reduced_state(rho, ps, 0)


def test_reduced_state_rejects_a_mask_out_of_range():
    ps = PhaseSpace(2, 2)
    rho = np.eye(4, dtype=complex) / 4
    for mask in (0b100, 0b101):
        with pytest.raises(ValueError, match=f"particle subset {mask} is empty or out of range"):
            oracle.reduced_state(rho, ps, mask)


def test_spectral_entropy_on_known_spectra():
    evals = oracle.spectrum(np.diag([0.5, 0.5, 0.0, 0.0]))
    assert oracle.spectral_entropy(evals, "vonNeumann", 2) == pytest.approx(1.0)
    assert oracle.spectral_entropy(evals, 2, 2) == pytest.approx(1.0)
    assert oracle.spectral_entropy(evals, 0.5, 2) == pytest.approx(1.0)
    evals2 = oracle.spectrum(np.diag([0.5, 0.25, 0.25]))
    expect = -(0.5 * math.log(0.5) + 0.5 * math.log(0.25)) / math.log(3)
    assert oracle.spectral_entropy(evals2, "vonNeumann", 3) == pytest.approx(expect)
    r2 = -math.log(0.25 + 2 * 0.0625) / math.log(3)
    assert oracle.spectral_entropy(evals2, 2, 3) == pytest.approx(r2)


def test_spectral_entropy_validation():
    with pytest.raises(ValueError):
        oracle.spectrum(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        oracle.spectrum(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        oracle.spectrum(np.diag([1.5, -0.5]))  # not PSD
    evals = oracle.spectrum(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        oracle.spectral_entropy(evals, 1.0, 2)  # alpha = 1
    with pytest.raises(ValueError):
        oracle.spectral_entropy(evals, -2, 2)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 1), (4, 1)])
def test_dense_entropies_match_subgroup_formula(d, n, corpus):
    ps = PhaseSpace(n, d)
    states = corpus(d, n)
    for st, rho in zip(states, oracle.dense_state(states), strict=True):
        for mask in range(1, 1 << n):
            red = oracle.reduced_state(rho, ps, mask)
            exact = len(particles(mask)) - math.log(entropy_vector(st, QUANTUM).orders[mask - 1]) / math.log(d)
            evals = oracle.spectrum(red)
            for alpha in ("vonNeumann", 0.5, 2, 3):
                assert abs(oracle.spectral_entropy(evals, alpha, d) - exact) < oracle.ATOL_EIG


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1)])
def test_wigner_uniform_on_complement(d, n, corpus):
    ps = PhaseSpace(n, d)
    states = corpus(d, n)
    for st, W in zip(states, oracle.wigner(oracle.dense_state(states), ps), strict=True):
        perp = st.perp
        for v in product(range(d), repeat=2 * n):
            expect = 1 / perp.order if perp.contains(list(v)) else 0.0
            assert abs(W[v] - expect) < 1e-10
        assert abs(W.sum() - 1.0) < 1e-10


def wigner_reference(rho, ps):
    """The defining double sum W(a) = d^{-2n} sum_b omega^{-tau[a,b]} tr(w(b)^dag rho)."""
    d, n = ps.d, ps.n
    tau = (d + 1) // 2
    points = list(product(range(d), repeat=ps.m))
    chi = {b: np.trace(oracle.weyl_n(ps, b, oracle._weyl_periodic).conj().T @ rho) for b in points}
    omega = np.exp(2j * np.pi / d)
    values = np.zeros((d,) * ps.m)
    for a in points:
        total = 0j
        for b in points:
            form = sum(a[2 * i] * b[2 * i + 1] - a[2 * i + 1] * b[2 * i] for i in range(n))
            total += omega ** (-tau * form % d) * chi[b]
        values[a] = (total / d ** (2 * n)).real
    return values


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (7, 1), (9, 1), (3, 2)])
def test_wigner_matches_defining_sum(d, n):
    # full-rank random states, so the test does not rest on stabilizer structure
    rng = np.random.default_rng(100 * d + n)
    ps = PhaseSpace(n, d)
    for _ in range(3):
        a = rng.standard_normal((d**n, d**n)) + 1j * rng.standard_normal((d**n, d**n))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert np.abs(oracle.wigner(rho, ps) - wigner_reference(rho, ps)).max() < 1e-12


def test_wigner_marginal_commutes_with_partial_trace(corpus):
    d, n = 3, 2
    ps = PhaseSpace(n, d)
    sub = PhaseSpace(1, d)
    for rho in oracle.dense_state(corpus(d, n)[::7]):
        W = oracle.wigner(rho, ps)
        for mask in (1, 2):
            left = oracle.wigner_marginal(W, ps, mask)
            right = oracle.wigner(oracle.reduced_state(rho, ps, mask), sub)
            assert np.abs(left - right).max() < 1e-10
    with pytest.raises(ValueError):
        oracle.wigner_marginal(W, sub, 1)  # a two-particle table read as one particle


def test_wigner_marginal_rejects_a_mask_out_of_range():
    ps = PhaseSpace(2, 3)
    W = np.full((3,) * 4, 1 / 81)
    for mask in (-1, 0, 0b100, 0b1000):
        with pytest.raises(ValueError, match=f"particle subset {mask} is empty or out of range"):
            oracle.wigner_marginal(W, ps, mask)


def test_wigner_rejects_even_d():
    ps = PhaseSpace(1, 2)
    with pytest.raises(ValueError):
        oracle.wigner(np.eye(2) / 2, ps)


def test_even_d_reduced_spectra_match_formula(corpus):
    # at even d a reduced stabilizer state can differ from the reference
    # projector by signs, but its spectrum is fully determined by |M_I|
    d, n = 4, 2
    ps = PhaseSpace(n, d)
    states = corpus(d, n)[::25]
    for st, rho in zip(states, oracle.dense_state(states), strict=True):
        for mask in (1, 2, 3):
            red = oracle.reduced_state(rho, ps, mask)
            evals = np.sort(np.linalg.eigvalsh(red))[::-1]
            order = entropy_vector(st, QUANTUM).orders[mask - 1]
            k = len(particles(mask))
            # flat spectrum: rank r = d^k / |M_I| eigenvalues equal to 1/r
            r = round(d**k / order)
            assert np.abs(evals[:r] - 1 / r).max() < 1e-8
            if r < len(evals):
                assert np.abs(evals[r:]).max() < 1e-8


def test_cross_check_flags_the_wrong_state(monkeypatch, corpus):
    ps = PhaseSpace(1, 3)
    errs = oracle.cross_check(corpus(3, 1))
    assert (errs["projector"] < oracle.ATOL_STRUCT).all()
    assert (errs["entropy"] < oracle.ATOL_EIG).all()
    assert (errs["wigner"] < oracle.ATOL_WIGNER).all()
    # a pure-state projector standing in for the maximally mixed state
    pure = oracle.projector([StabilizerState(ps, Subgroup.from_generators([[1, 0]], 3, 2))])
    monkeypatch.setattr(oracle, "projector", lambda _: pure)
    errs = oracle.cross_check([StabilizerState(ps, Subgroup.from_generators([], 3, 2))])
    assert errs["projector"][0] > 1 and errs["entropy"][0] > 0.5 and errs["wigner"][0] > 0.1


def test_cross_check_diagonalises_each_reduced_state_once(monkeypatch, corpus):
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: shapes.append(a[0].shape) or eigvalsh(*a))
    for d, n in ((3, 2), (2, 3)):
        states = corpus(d, n)[::50]
        oracle.cross_check(states)
        # matrices passed to eigvalsh, over every stacked call
        assert sum(math.prod(shape[:-2]) for shape in shapes) == len(states) * (2**n - 1)
        shapes.clear()


def test_stacks_act_per_matrix():
    # each stacked function gives, per matrix, what it gives on that matrix alone
    rng = np.random.default_rng(12)
    ps = PhaseSpace(2, 3)
    a = rng.standard_normal((2, 3, 9, 9)) + 1j * rng.standard_normal((2, 3, 9, 9))
    rho = a @ a.conj().swapaxes(-2, -1)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    W = oracle.wigner(rho, ps)
    assert W.shape == (2, 3) + (3,) * 4
    for mask in (1, 2, 3):
        red = oracle.reduced_state(rho, ps, mask)
        evals = oracle.spectrum(red)
        for alpha in ("vonNeumann", 0.5, 2, 3):
            stacked = oracle.spectral_entropy(evals, alpha, 3)
            assert stacked.shape == (2, 3)
            for i, j in product(range(2), range(3)):
                assert np.array_equal(red[i, j], oracle.reduced_state(rho[i, j], ps, mask))
                single = oracle.spectral_entropy(oracle.spectrum(red[i, j]), alpha, 3)
                assert abs(stacked[i, j] - single) < 1e-14
    for i, j in product(range(2), range(3)):
        assert np.abs(W[i, j] - oracle.wigner(rho[i, j], ps)).max() < 1e-15
    vs = rng.integers(-6, 6, size=(5, 4))
    stack = oracle.weyl_n(ps, vs, oracle._weyl_periodic)
    for v, U in zip(vs, stack, strict=True):
        assert np.array_equal(U, reference_weyl_n(ps, v, periodic=True))


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 1.0], [0.0, 0.5]]),  # not Hermitian
        np.eye(2),  # trace 2
        np.diag([1.5, -0.5]),  # not PSD
    ],
    ids=["not-hermitian", "trace-2", "not-psd"],
)
def test_spectrum_checks_every_matrix_of_a_stack(bad):
    good = np.diag([0.5, 0.5])
    assert oracle.spectrum(np.array([good] * 3)).shape == (3, 2)
    for k in range(3):
        stack = np.array([good] * 3)
        stack[k] = bad
        with pytest.raises(ValueError):
            oracle.spectrum(stack)
        with pytest.raises(ValueError):
            oracle.spectrum(stack.reshape(3, 1, 2, 2))


# A test-local copy of the per-state oracle as it was before batching: kron of
# single-particle Weyl matrices, the power loop U^x = U^{x-1} U, and one
# spectrum per reduced state.  The batched oracle must agree with it per state.


def reference_weyl_n(ps, v, periodic):
    d = ps.d
    x = np.arange(d)
    factors = []
    for p, q in zip(v[0::2], v[1::2]):
        w = np.zeros((d, d), dtype=complex)
        if periodic:
            w[x, (x - q) % d] = np.exp(2j * np.pi * ((p * x - (d + 1) // 2 * p * q) % d) / d)
        else:
            w[x, (x - q) % d] = np.exp(1j * np.pi * (2 * p * x - p * q) / d)
        factors.append(w)
    return functools.reduce(np.kron, factors)


def reference_projector(st):
    ps = st.ps
    d = ps.d
    P = np.eye(d**ps.n, dtype=complex)
    phases = np.exp(-2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d)
    for g in st.M.generators():
        U = reference_weyl_n(ps, g, periodic=d % 2)
        powers = [np.eye(len(U), dtype=complex)]
        for _ in range(d - 1):
            powers.append(powers[-1] @ U)
        powers = np.array(powers)
        mult = (phases @ np.einsum("ij,xji->x", P, powers)).real / d
        j = int(np.argmax(mult > 0.5))
        P = P @ np.tensordot(phases[j], powers, axes=1) / d
    return P


def reference_reduced_state(rho, ps, mask):
    keep = particles(mask)
    tensor = rho.reshape([ps.d] * (2 * ps.n))
    for i in sorted(set(range(ps.n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=tensor.ndim // 2 + i)
    return tensor.reshape(ps.d ** len(keep), ps.d ** len(keep))


def reference_entropies(rho, d):
    assert np.allclose(rho, rho.conj().T, atol=oracle.ATOL_EIG)
    assert abs(np.trace(rho).real - 1.0) <= oracle.ATOL_EIG
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() >= -oracle.ATOL_EIG
    evals = np.clip(evals, 0.0, None)
    evals[evals < 1e-12] = 0.0
    nz = evals[evals > 0]
    out = [float(-(nz * np.log(nz)).sum() / math.log(d))]
    for alpha in (0.5, 2.0, 3.0):
        out.append(float(np.log((evals**alpha).sum()) / ((1 - alpha) * math.log(d))))
    return out


def reference_wigner(rho, ps):
    d, n = ps.d, ps.n
    tau = (d + 1) // 2
    R = np.zeros((d,) * (2 * n), dtype=complex)
    T = rho.reshape((d,) * (2 * n))
    for tq in product(range(d), repeat=2 * n):
        ts, qs = tq[0::2], tq[1::2]
        row = tuple((tau * q + t) % d for t, q in zip(ts, qs))
        col = tuple((tau * q - t) % d for t, q in zip(ts, qs))
        R[tq] = T[row + col]
    return (np.fft.fftn(R, axes=range(0, 2 * n, 2)) / d**n).real


def reference_cross_check(st):
    ps = st.ps
    d = ps.d
    P = reference_projector(st)
    projector_err = max(
        np.abs(P @ P - P).max(),
        np.abs(P - P.conj().T).max(),
        abs(np.trace(P).real - d**ps.n / st.M.order),
    )
    rho = P / np.trace(P).real
    entropy_err = 0.0
    for mask in range(1, 1 << ps.n):
        exact = len(particles(mask)) - math.log(entropy_vector(st, QUANTUM).orders[mask - 1]) / math.log(d)
        for value in reference_entropies(reference_reduced_state(rho, ps, mask), d):
            entropy_err = max(entropy_err, abs(value - exact))
    wigner_err = 0.0
    if d % 2:
        expect = np.zeros((d,) * ps.m)
        for v in st.perp.elements():
            expect[v] = 1 / st.perp.order
        wigner_err = np.abs(reference_wigner(rho, ps) - expect).max()
    return P, {"projector": projector_err, "entropy": entropy_err, "wigner": wigner_err}


def assert_matches_reference(states):
    ps = states[0].ps
    errs = oracle.cross_check(states)
    for st, P, k in zip(states, oracle.projector(states), range(len(states)), strict=True):
        ref_P, ref = reference_cross_check(st)
        assert np.abs(P - ref_P).max() < 1e-13
        for key, value in ref.items():
            assert abs(errs[key][k] - value) < 1e-13, (key, k)


@pytest.mark.parametrize("d,n,step", [(3, 2, 1), (4, 2, 1), (2, 3, 1), (5, 1, 1), (6, 1, 1), (6, 2, 10)])
def test_batched_cross_check_matches_per_state_reference(d, n, step, corpus):
    ps = PhaseSpace(n, d)
    for chunk in oracle.chunks(corpus(d, n)[::step], ps):
        assert_matches_reference(chunk)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (6, 2)])
def test_mixed_batch_matches_per_state_reference(d, n, corpus):
    # the trivial M (no generator, every slot padded), pure states (|M| = d^n)
    # and mixed states with the fewest and the most generators, in one batch
    states = corpus(d, n)
    trivial = next(st for st in states if st.M.order == 1)
    pure = [st for st in states if st.M.order == d**n]
    mixed = sorted((st for st in states if 1 < st.M.order < d**n), key=lambda st: len(st.M.generators()))
    batch = [mixed[0], trivial, pure[-1], mixed[-1], pure[0]]
    assert len({len(st.M.generators()) for st in batch}) >= 3
    assert_matches_reference(batch)
    # each state's errors do not depend on the rest of its batch
    alone = [oracle.cross_check([st]) for st in batch]
    together = oracle.cross_check(batch)
    for key in together:
        assert np.array_equal(together[key], [errs[key][0] for errs in alone])


def test_dense_guard():
    ps = PhaseSpace(7, 4)  # 4^7 > 4096
    with pytest.raises(ValueError):
        oracle.weyl_n(ps, [0] * 14)


def test_dense_guard_bounds():
    oracle.check_guard(PhaseSpace(12, 2))  # 2^12 is the guard itself
    oracle.check_guard(PhaseSpace(1, 4096))
    for ps in (PhaseSpace(13, 2), PhaseSpace(1, 4097), PhaseSpace(3, 17), PhaseSpace(10**7, 2)):
        with pytest.raises(ValueError, match="dense guard"):
            oracle.check_guard(ps)

