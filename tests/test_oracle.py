"""Dense Hilbert-space oracle: Weyl algebra, projectors, entropies, Wigner."""

import math
from itertools import product

import numpy as np
import pytest

from entrokit import oracle
from entrokit.phasespace import PhaseSpace, particles, symplectic_form
from entrokit.stabilizer import StabilizerState, quantum_entropy
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
    for st in corpus(d, n):
        P = oracle.projector(st)
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
    for st in corpus(d, n):
        expect = sum(oracle.weyl_n(ps, m, oracle._weyl_periodic) for m in st.M.elements()) / st.M.order
        assert np.abs(oracle.projector(st) - expect).max() < 1e-12


def test_dense_state_has_unit_trace():
    ps = PhaseSpace(2, 3)
    M = Subgroup.from_generators([[1, 0, 1, 0], [0, 1, 0, -1]], 3, 4)
    rho = oracle.dense_state(StabilizerState(ps, M))
    assert abs(np.trace(rho) - 1) < 1e-12
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12


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
    for st in corpus(d, n):
        rho = oracle.dense_state(st)
        for mask in range(1, 1 << n):
            red = oracle.reduced_state(rho, ps, mask)
            exact = len(particles(mask)) - math.log(
                quantum_entropy(st, mask).subgroup_order
            ) / math.log(d)
            evals = oracle.spectrum(red)
            for alpha in ("vonNeumann", 0.5, 2, 3):
                assert abs(oracle.spectral_entropy(evals, alpha, d) - exact) < oracle.ATOL_EIG


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1)])
def test_wigner_uniform_on_complement(d, n, corpus):
    ps = PhaseSpace(n, d)
    for st in corpus(d, n):
        W = oracle.wigner(oracle.dense_state(st), ps)
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
    for st in corpus(d, n)[::7]:
        rho = oracle.dense_state(st)
        W = oracle.wigner(rho, ps)
        for mask in (1, 2):
            left = oracle.wigner_marginal(W, ps, mask)
            right = oracle.wigner(oracle.reduced_state(rho, ps, mask), sub)
            assert np.abs(left - right).max() < 1e-10
    with pytest.raises(ValueError):
        oracle.wigner_marginal(W, sub, 1)  # a two-particle table read as one particle


def test_wigner_rejects_even_d():
    ps = PhaseSpace(1, 2)
    with pytest.raises(ValueError):
        oracle.wigner(np.eye(2) / 2, ps)


def test_even_d_reduced_spectra_match_formula(corpus):
    # at even d a reduced stabilizer state can differ from the reference
    # projector by signs, but its spectrum is fully determined by |M_I|
    d, n = 4, 2
    ps = PhaseSpace(n, d)
    for st in corpus(d, n)[::25]:
        rho = oracle.dense_state(st)
        for mask in (1, 2, 3):
            red = oracle.reduced_state(rho, ps, mask)
            evals = np.sort(np.linalg.eigvalsh(red))[::-1]
            order = quantum_entropy(st, mask).subgroup_order
            k = len(particles(mask))
            # flat spectrum: rank r = d^k / |M_I| eigenvalues equal to 1/r
            r = round(d**k / order)
            assert np.abs(evals[:r] - 1 / r).max() < 1e-8
            if r < len(evals):
                assert np.abs(evals[r:]).max() < 1e-8


def test_cross_check_flags_the_wrong_state(monkeypatch, corpus):
    ps = PhaseSpace(1, 3)
    for st in corpus(3, 1):
        errs = oracle.cross_check(st)
        assert errs["projector"] < oracle.ATOL_STRUCT
        assert errs["entropy"] < oracle.ATOL_EIG
        assert errs["wigner"] < oracle.ATOL_WIGNER
    # a pure-state projector standing in for the maximally mixed state
    pure = oracle.projector(StabilizerState(ps, Subgroup.from_generators([[1, 0]], 3, 2)))
    monkeypatch.setattr(oracle, "projector", lambda _: pure)
    errs = oracle.cross_check(StabilizerState(ps, Subgroup.from_generators([], 3, 2)))
    assert errs["projector"] > 1 and errs["entropy"] > 0.5 and errs["wigner"] > 0.1


def test_cross_check_diagonalises_each_reduced_state_once(monkeypatch, corpus):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(a) or eigvalsh(*a))
    for d, n in ((3, 2), (2, 3)):
        states = corpus(d, n)[::50]
        for st in states:
            oracle.cross_check(st)
        assert len(calls) == len(states) * (2**n - 1)
        calls.clear()


def test_dense_guard():
    ps = PhaseSpace(7, 4)  # 4^7 > 4096
    with pytest.raises(ValueError):
        oracle.weyl_n(ps, [0] * 14)

