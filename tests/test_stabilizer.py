"""Exact entropy vectors and isotropic-subgroup enumeration."""

import math
import random

import pytest

from entrokit.phasespace import PhaseSpace, form
from entrokit.stabilizer import (
    CLASSICAL,
    QUANTUM,
    StabilizerState,
    classical_entropy,
    entropy_vector,
    enumerate_isotropic,
    quantum_entropy,
    order_identity_check,
    vector_from_orders,
)
from entrokit.zmod import Subgroup

# independently frozen enumeration sizes
EXPECTED_COUNTS = {
    (2, 1): 4,
    (3, 1): 5,
    (5, 1): 7,
    (4, 1): 11,
    (2, 2): 31,
    (3, 2): 81,
    (4, 2): 517,
    (2, 3): 514,
    # d = 6 by the CRT: count(6, n) = count(2, n) * count(3, n)
    (6, 1): 20,
    (6, 2): 2511,
}


@pytest.mark.parametrize("d,n", sorted(EXPECTED_COUNTS))
def test_enumeration_counts(d, n, corpus):
    assert len(corpus(d, n)) == EXPECTED_COUNTS[(d, n)]


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_maximal_isotropic_count_prime_d(d, n, corpus):
    # number of Lagrangian (order d^n) subgroups for prime d
    expect = 1
    for i in range(1, n + 1):
        expect *= d**i + 1
    count = sum(1 for st in corpus(d, n) if st.M.order == d**n)
    assert count == expect


def test_enumeration_is_deterministic_and_duplicate_free():
    ps = PhaseSpace(2, 3)
    a = [st.M for st in enumerate_isotropic(ps)]
    b = [st.M for st in enumerate_isotropic(ps)]
    assert a == b
    assert len(set(a)) == len(a)


@pytest.mark.parametrize("d,n", sorted(EXPECTED_COUNTS))
def test_enumerated_bases_are_their_own_hnf(d, n, corpus):
    # with the frozen counts, distinctness and isotropy this pins the whole set
    for st in corpus(d, n):
        assert Subgroup.from_generators(st.M.basis, d, 2 * n).basis == st.M.basis


def test_enumeration_makes_no_hnf_call(monkeypatch):
    import entrokit.zmod as zmod

    calls = []
    hermite = zmod._hermite_rows
    monkeypatch.setattr(zmod, "_hermite_rows", lambda *a: calls.append(a) or hermite(*a))
    assert sum(1 for _ in enumerate_isotropic(PhaseSpace(2, 6))) == EXPECTED_COUNTS[(6, 2)]
    assert calls == []


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_isotropic(PhaseSpace(6, 5)))  # 5^12 > 2^24


def test_state_validation():
    ps = PhaseSpace(1, 3)
    with pytest.raises(ValueError):
        StabilizerState(ps, Subgroup.from_generators([[1, 0], [0, 1]], 3, 2))  # not isotropic
    with pytest.raises(ValueError):
        StabilizerState(ps, Subgroup.from_generators([], 3, 4))  # wrong ambient group


def test_epr_pair_entropies():
    # maximally entangled two-qutrit state: marginals are maximally mixed
    ps = PhaseSpace(2, 3)
    M = Subgroup.from_generators([[1, 0, 1, 0], [0, 1, 0, -1]], 3, 4)
    st = StabilizerState(ps, M)
    assert quantum_entropy(st, 0b01).value == 1.0
    assert quantum_entropy(st, 0b10).value == 1.0
    assert quantum_entropy(st, 0b11).value == 0.0
    # phase-space model: H = S + |I|
    assert classical_entropy(st, 0b01).value == 2.0
    assert classical_entropy(st, 0b11).value == 2.0


def test_product_state_entropies():
    ps = PhaseSpace(2, 2)
    M = Subgroup.from_generators([[0, 1, 0, 0], [0, 0, 0, 1]], 2, 4)
    st = StabilizerState(ps, M)
    for mask in (1, 2, 3):
        assert quantum_entropy(st, mask).value == 0.0


def test_exact_entropy_is_stored_as_integers():
    ps = PhaseSpace(1, 4)
    st = StabilizerState(ps, Subgroup.from_generators([[2, 0]], 4, 2))
    e = quantum_entropy(st, 1)
    assert (e.subset_size, e.subgroup_order, e.d) == (1, 2, 4)
    # log_4 2 = 1/2 exactly in this case
    assert e.value == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 1), (4, 2)])
def test_order_identity_everywhere(d, n, corpus):
    for st in corpus(d, n):
        assert order_identity_check(st)


def test_order_identity_check_counts_from_m_perp(monkeypatch):
    # criterion 1 compares two different subgroups: the kernel runs on M and on
    # M_perp, so a wrong M_perp fails the check
    import entrokit.phasespace as phsp

    ps = PhaseSpace(2, 3)
    st = StabilizerState(ps, Subgroup.from_generators([[1, 0, 1, 0]], 3, 4))
    assert st.perp != st.M
    seen = []
    kernel = phsp.subsystem_orders
    monkeypatch.setattr(phsp, "subsystem_orders", lambda ps, S: seen.append(S) or kernel(ps, S))
    assert order_identity_check(st)
    assert seen == [st.M, st.perp]
    # as large as M_perp, but its image on particle 1 has 3 elements, not 9
    st.perp = Subgroup.from_generators([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3, 4)
    assert not order_identity_check(st)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 1), (4, 2), (6, 1)])
def test_quantum_order_matches_brute_force(d, n, corpus):
    # |M_I| from the exact sequence against a count of M ∩ V_I; composite d
    # covers subgroups M that are not free
    ps = PhaseSpace(n, d)
    for st in corpus(d, n):
        for mask in range(1, 1 << n):
            outside = [c for c in range(ps.m) if c not in ps.coords(mask)]
            count = sum(all(v[c] == 0 for c in outside) for v in st.M.elements())
            assert quantum_entropy(st, mask).subgroup_order == count


def classical_images(st):
    """mask -> |{pi_I(v) : v in M_perp}|, counted over M_perp's elements."""
    perp = list(st.perp.elements())
    return {mask: len({tuple(v[c] for c in st.ps.coords(mask)) for v in perp}) for mask in range(1, 1 << st.ps.n)}


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 2), (6, 1)])
def test_classical_order_matches_brute_force(d, n, corpus):
    # |pi_I(M_perp)| = |M_perp| / |M_perp ∩ V_Ibar| against the image of M_perp's elements
    for st in corpus(d, n):
        vec = entropy_vector(st, CLASSICAL)
        assert {mask: e.subgroup_order for mask, e in vec.entries.items()} == classical_images(st)


def random_isotropic(rng, d, n, k):
    """A subgroup spanned by k random pairwise-orthogonal vectors, found by rejection."""
    gens = []
    while len(gens) < k:
        v = [rng.randrange(d) for _ in range(2 * n)]
        if not any(form(v, g) % d for g in gens):
            gens.append(v)
    return StabilizerState(PhaseSpace(n, d), Subgroup.from_generators(gens, d, 2 * n))


# (d, n, ranks): composite d gives subgroups that are not free; ranks keep |M_perp| small
SEEDED = [(2, 4, range(5)), (4, 4, (2, 3, 4)), (6, 4, (3, 4)), (2, 5, range(6)), (3, 5, (3, 4, 5)), (6, 5, (5,))]


@pytest.mark.parametrize("d,n,ranks", SEEDED, ids=[f"{d}-{n}" for d, n, _ in SEEDED])
def test_seeded_vectors_match_brute_force(d, n, ranks):
    rng = random.Random(f"chain-{d}-{n}")
    ps = PhaseSpace(n, d)
    for k in ranks:
        for _ in range(2):
            st = random_isotropic(rng, d, n, k)
            vq, vc = entropy_vector(st, QUANTUM), entropy_vector(st, CLASSICAL)
            elems = list(st.M.elements())
            images = classical_images(st)
            for mask in range(1, 1 << n):
                outside = [c for c in range(ps.m) if c not in ps.coords(mask)]
                assert vq.entries[mask].subgroup_order == sum(all(v[c] == 0 for c in outside) for v in elems)
                assert vc.entries[mask].subgroup_order == images[mask]


@pytest.mark.parametrize("n,calls", [(4, 5), (5, 9)])
def test_quantum_vector_hnf_calls(monkeypatch, n, calls):
    # C(n, floor(n/2)) chain orders, the identity's HNF being M.basis itself
    import entrokit.zmod as zmod

    st = random_isotropic(random.Random(n), 2, n, n)
    seen = []
    hermite = zmod._hermite_rows
    monkeypatch.setattr(zmod, "_hermite_rows", lambda *a: seen.append(a) or hermite(*a))
    entropy_vector(st, QUANTUM)
    assert len(seen) == calls


def test_entropy_vector_structure():
    ps = PhaseSpace(2, 3)
    st = StabilizerState(ps, Subgroup.from_generators([[1, 0, 1, 0], [0, 1, 0, -1]], 3, 4))
    vq = entropy_vector(st, QUANTUM)
    vc = entropy_vector(st, CLASSICAL)
    assert set(vq.entries) == {1, 2, 3}
    for mask in (1, 2, 3):
        k = bin(mask).count("1")
        assert vc.entries[mask].value == pytest.approx(vq.entries[mask].value + k, abs=1e-12)
    with pytest.raises(ValueError):
        entropy_vector(st, "bogus")


@pytest.mark.parametrize(
    "orders",
    [{1: 0, 2: 1, 3: 1}, {1: 4, 2: 1, 3: 4}, {1: 1, 2: 1, 3: 3}],
    ids=["order-0", "above-d^|I|", "not-a-divisor"],
)
def test_vector_from_orders_rejects_impossible_orders(orders):
    # at d = 2 an isotropic |M_I| divides d^(2|I|) and is at most d^|I|
    for kind in (QUANTUM, CLASSICAL):
        with pytest.raises(ValueError, match="is not a divisor"):
            vector_from_orders(PhaseSpace(2, 2), orders, kind)
    assert vector_from_orders(PhaseSpace(2, 2), {1: 1, 2: 2, 3: 4}, CLASSICAL).orders == (4, 2, 4)


def test_entropy_rejects_empty_subset():
    ps = PhaseSpace(1, 2)
    st = StabilizerState(ps, Subgroup.from_generators([], 2, 2))
    with pytest.raises(ValueError):
        quantum_entropy(st, 0)
    with pytest.raises(ValueError):
        classical_entropy(st, 0)


def test_composite_modulus_irrational_entropy():
    # order-2 subgroup at d = 4 on two particles: log_4 of mixed orders
    ps = PhaseSpace(2, 4)
    M = Subgroup.from_generators([[2, 0, 2, 0]], 4, 4)
    st = StabilizerState(ps, M)
    e = quantum_entropy(st, 0b11)
    assert e.subgroup_order == 2
    assert e.value == pytest.approx(2 - math.log(2) / math.log(4), abs=1e-12)
    assert order_identity_check(st)
