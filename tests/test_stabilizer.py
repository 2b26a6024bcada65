"""Exact entropy vectors and isotropic-subgroup enumeration."""

import math
import random
from collections import Counter

import pytest

import entrokit.phasespace as phsp
from entrokit.phasespace import PhaseSpace, form, is_isotropic, subsystem_orders
from entrokit.stabilizer import (
    CLASSICAL,
    QUANTUM,
    EntropyVector,
    StabilizerState,
    check_guard,
    entropy_vector,
    enumerate_isotropic,
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


@pytest.mark.parametrize(
    "d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]
)
def test_isotropic_counts_of_every_order_match_the_closed_form(d, n, corpus):
    # at prime d, prod_{i<k} (d^(2(n-i)) - 1) / (d^(i+1) - 1) isotropic subgroups have order d^k;
    # taken as a ratio of products, since a single factor need not be an integer
    expect = {}
    for k in range(n + 1):
        num = math.prod(d ** (2 * (n - i)) - 1 for i in range(k))
        den = math.prod(d ** (i + 1) - 1 for i in range(k))
        assert num % den == 0
        expect[d**k] = num // den
    assert dict(Counter(st.M.order for st in corpus(d, n))) == expect


def order_census(d, n):
    """The multiset of quantum order tuples over every isotropic subgroup."""
    ps = PhaseSpace(n, d)
    return Counter(subsystem_orders(ps, M) for M in enumerate_isotropic(ps))


@pytest.mark.parametrize("a,b", [(2, 3), (2, 5)])
def test_composite_d_census_is_the_crt_product(a, b):
    # Z_ab = Z_a x Z_b for coprime a, b: each isotropic subgroup at d = ab is one
    # pair of them at a and at b, and each of its orders is the pair's product
    left, right = order_census(a, 2), order_census(b, 2)
    expect = Counter()
    for x, cx in left.items():
        for y, cy in right.items():
            expect[tuple(p * q for p, q in zip(x, y))] += cx * cy
    assert order_census(a * b, 2) == expect


def test_enumeration_is_deterministic_and_duplicate_free():
    ps = PhaseSpace(2, 3)
    a = list(enumerate_isotropic(ps))
    b = list(enumerate_isotropic(ps))
    assert all(type(M) is Subgroup for M in a)
    assert a == b
    assert len(set(a)) == len(a)


@pytest.mark.parametrize("d,n", sorted(EXPECTED_COUNTS))
def test_enumerated_bases_are_their_own_hnf(d, n, corpus):
    # with the frozen counts, distinctness and isotropy this pins the whole set
    ps = PhaseSpace(n, d)
    for st in corpus(d, n):
        assert is_isotropic(ps, st.M)
        assert Subgroup.from_generators(st.M.basis, d, 2 * n).basis == st.M.basis


def test_enumeration_makes_no_hnf_call(monkeypatch):
    import entrokit.zmod as zmod

    calls = []
    hermite = zmod._hermite_rows
    monkeypatch.setattr(zmod, "_hermite_rows", lambda *a: calls.append(a) or hermite(*a))
    assert sum(1 for _ in enumerate_isotropic(PhaseSpace(2, 6))) == EXPECTED_COUNTS[(6, 2)]
    assert calls == []


@pytest.mark.parametrize("d,n", [(2, 3), (4, 2), (6, 2)])
def test_enumerated_generators_are_the_basis_generators(d, n, corpus):
    # the enumerator hands each subgroup the nontrivial HNF rows it holds as generators
    for st in corpus(d, n):
        assert st.M.generators() == Subgroup(d, 2 * n, st.M.basis).generators()


def test_passed_in_generators_are_still_checked_for_isotropy():
    ps = PhaseSpace(1, 3)
    full = Subgroup.from_generators([[1, 0], [0, 1]], 3, 2)
    with pytest.raises(ValueError, match="not isotropic"):
        StabilizerState(ps, Subgroup(3, 2, full.basis, ((1, 0), (0, 1))))
    half = Subgroup.from_generators([[1, 0]], 3, 2)
    assert StabilizerState(ps, Subgroup(3, 2, half.basis, ((1, 0),))).M == half


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_isotropic(PhaseSpace(6, 5)))  # 5^12 > 2^24


def test_enumeration_guard_runs_at_the_call():
    with pytest.raises(ValueError, match=r"d\^\(2n\) = 5\^12 exceeds the enumeration guard"):
        enumerate_isotropic(PhaseSpace(6, 5))  # no next() needed


def test_enumeration_guard_bounds():
    check_guard(PhaseSpace(12, 2))  # 2^24 is the guard itself
    check_guard(PhaseSpace(1, 4096))
    for ps in (PhaseSpace(13, 2), PhaseSpace(1, 4097), PhaseSpace(6, 17), PhaseSpace(10**7, 2)):
        with pytest.raises(ValueError, match="enumeration guard"):
            check_guard(ps)


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
    vq, vc = entropy_vector(st, QUANTUM), entropy_vector(st, CLASSICAL)
    assert vq.value(0b01) == 1.0
    assert vq.value(0b10) == 1.0
    assert vq.value(0b11) == 0.0
    # phase-space model: H = S + |I|
    assert vc.value(0b01) == 2.0
    assert vc.value(0b11) == 2.0


def test_product_state_entropies():
    ps = PhaseSpace(2, 2)
    M = Subgroup.from_generators([[0, 1, 0, 0], [0, 0, 0, 1]], 2, 4)
    st = StabilizerState(ps, M)
    for mask in (1, 2, 3):
        assert entropy_vector(st, QUANTUM).value(mask) == 0.0


def test_exact_entropy_is_stored_as_integers():
    ps = PhaseSpace(1, 4)
    st = StabilizerState(ps, Subgroup.from_generators([[2, 0]], 4, 2))
    vec = entropy_vector(st, QUANTUM)
    assert (vec.n, vec.d, vec.kind, vec.orders) == (1, 4, QUANTUM, (2,))
    # log_4 2 = 1/2 exactly in this case
    assert vec.value(1) == pytest.approx(0.5, abs=1e-15)


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
            assert entropy_vector(st, QUANTUM).orders[mask - 1] == count


def classical_images(st):
    """mask -> |{pi_I(v) : v in M_perp}|, counted over M_perp's elements."""
    perp = list(st.perp.elements())
    return {mask: len({tuple(v[c] for c in st.ps.coords(mask)) for v in perp}) for mask in range(1, 1 << st.ps.n)}


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 2), (6, 1)])
def test_classical_order_matches_brute_force(d, n, corpus):
    # |pi_I(M_perp)| = |M_perp| / |M_perp ∩ V_Ibar| against the image of M_perp's elements
    for st in corpus(d, n):
        vec = entropy_vector(st, CLASSICAL)
        assert dict(enumerate(vec.orders, 1)) == classical_images(st)


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
                assert vq.orders[mask - 1] == sum(all(v[c] == 0 for c in outside) for v in elems)
                assert vc.orders[mask - 1] == images[mask]


@pytest.mark.parametrize("n", [4, 5])
def test_quantum_vector_makes_no_hnf_call(monkeypatch, n):
    # no HNF on either kernel path.  A pure state at d = 2 (|M| = 2^n) takes the
    # support count, with no elimination step; one at d = 5 (|M| = 5^n, above
    # SUPPORT_COUNT_LIMIT * 2^n) takes the subset tree: 2^n - 2 two-column
    # steps, each clearing columns 0 and 1 of the rows cut for its node
    import entrokit.zmod as zmod

    small = random_isotropic(random.Random(n), 2, n, n)
    large = random_isotropic(random.Random(n), 5, n, n)
    assert small.M.order == 2**n and large.M.order > phsp.SUPPORT_COUNT_LIMIT << n
    hnfs, steps = [], []
    hermite, eliminate = zmod._hermite_rows, zmod._eliminate
    monkeypatch.setattr(zmod, "_hermite_rows", lambda *a: hnfs.append(a) or hermite(*a))
    monkeypatch.setattr(zmod, "_eliminate", lambda mat, top, col, d: steps.append((top, col)) or eliminate(mat, top, col, d))
    entropy_vector(small, QUANTUM)
    assert hnfs == steps == []
    entropy_vector(large, QUANTUM)
    assert hnfs == []
    assert steps == [(0, 0), (1, 1)] * (2**n - 2)


def test_entropy_vector_structure():
    ps = PhaseSpace(2, 3)
    st = StabilizerState(ps, Subgroup.from_generators([[1, 0, 1, 0], [0, 1, 0, -1]], 3, 4))
    vq = entropy_vector(st, QUANTUM)
    vc = entropy_vector(st, CLASSICAL)
    assert len(vq.orders) == len(vc.orders) == 3
    for mask in (1, 2, 3):
        k = bin(mask).count("1")
        assert vc.value(mask) == pytest.approx(vq.value(mask) + k, abs=1e-12)
    with pytest.raises(ValueError):
        entropy_vector(st, "bogus")


@pytest.mark.parametrize(
    "orders",
    [(0, 1, 1), (4, 1, 4), (1, 1, 3)],
    ids=["order-0", "above-d^|I|", "not-a-divisor"],
)
def test_vector_from_orders_rejects_impossible_orders(orders):
    # at d = 2 an isotropic |M_I| divides d^(2|I|) and is at most d^|I|
    for kind in (QUANTUM, CLASSICAL):
        with pytest.raises(ValueError, match="is not a divisor"):
            vector_from_orders(PhaseSpace(2, 2), orders, kind)
    assert vector_from_orders(PhaseSpace(2, 2), (1, 2, 4), CLASSICAL).orders == (4, 2, 4)


@pytest.mark.parametrize("orders", [{1: 6, 2: 6, 3: 36}, [6, 6, 36], (6, 6.0, 36), (6, True, 36)], ids=["dict", "list", "float", "bool"])
def test_orders_must_be_a_tuple_of_ints(orders):
    # a mask -> order dict iterates as its masks (1, 2, 3), which pass every
    # other check at d = 6
    ps = PhaseSpace(2, 6)
    for kind in (QUANTUM, CLASSICAL):
        with pytest.raises(ValueError, match="orders must be a tuple of ints"):
            vector_from_orders(ps, orders, kind)
        with pytest.raises(ValueError, match="orders must be a tuple of ints"):
            EntropyVector(2, 6, kind, orders)
    assert vector_from_orders(ps, (1, 2, 3), QUANTUM).orders == (1, 2, 3)
    assert vector_from_orders(ps, (6, 6, 36), QUANTUM).orders == (6, 6, 36)


def test_entropy_rejects_empty_subset():
    ps = PhaseSpace(1, 2)
    st = StabilizerState(ps, Subgroup.from_generators([], 2, 2))
    for kind in (QUANTUM, CLASSICAL):
        vec = entropy_vector(st, kind)
        for mask in (0, 2, 3, -1):  # empty, and at or past 2^n
            with pytest.raises(ValueError, match="empty or out of range"):
                vec.value(mask)


def test_entropy_vector_needs_one_order_per_nonempty_subset():
    for orders in ((), (1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="one order per nonempty subset"):
            EntropyVector(2, 2, QUANTUM, orders)
    with pytest.raises(ValueError, match="unknown kind"):
        EntropyVector(2, 2, "bogus", (1, 1, 1))


def test_entropy_vector_equality_and_hash_follow_the_orders():
    ps = PhaseSpace(2, 2)
    product_state = vector_from_orders(ps, (2, 2, 4), QUANTUM)
    mixed = vector_from_orders(ps, (1, 1, 1), QUANTUM)
    assert product_state != mixed
    again = vector_from_orders(ps, (2, 2, 4), QUANTUM)
    assert again == product_state and hash(again) == hash(product_state)
    assert again is not product_state
    classical = vector_from_orders(ps, (2, 2, 4), CLASSICAL)
    assert classical.orders == product_state.orders and classical != product_state


def test_composite_modulus_irrational_entropy():
    # order-2 subgroup at d = 4 on two particles: log_4 of mixed orders
    ps = PhaseSpace(2, 4)
    M = Subgroup.from_generators([[2, 0, 2, 0]], 4, 4)
    st = StabilizerState(ps, M)
    vec = entropy_vector(st, QUANTUM)
    assert vec.orders[0b11 - 1] == 2
    assert vec.value(0b11) == pytest.approx(2 - math.log(2) / math.log(4), abs=1e-12)
    assert order_identity_check(st)
