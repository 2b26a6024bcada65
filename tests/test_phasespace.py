"""Symplectic structure checked against brute force over small phase spaces."""

import random
from itertools import product

import pytest

import entrokit.phasespace as phsp
from entrokit.phasespace import (
    PhaseSpace,
    form,
    is_isotropic,
    particles,
    subset_size,
    subsystem_orders,
    symplectic_complement,
)
from entrokit.zmod import Subgroup


def test_particles_and_subset_size():
    assert particles(0) == []
    assert particles(1) == [0]
    assert particles(0b1011) == [0, 1, 3]
    assert subset_size(0b1011) == 3


def test_a_negative_mask_is_rejected():
    for fn in (lambda: particles(-1), lambda: PhaseSpace(2, 3).coords(-1)):
        with pytest.raises(ValueError, match="particle subset -1 is negative"):
            fn()


def test_phase_space_validation():
    with pytest.raises(ValueError):
        PhaseSpace(0, 2)
    with pytest.raises(ValueError):
        PhaseSpace(1, 1)
    ps = PhaseSpace(3, 2)
    assert ps.m == 6 and ps.full_mask == 7
    assert ps.coords(0b101) == [0, 1, 4, 5]


def test_symplectic_form_values():
    # [ (p,q), (p',q') ] = p q' - q p', reduced mod d = 3
    assert form([1, 0], [0, 1]) % 3 == 1
    assert form([0, 1], [1, 0]) % 3 == 2  # -1 mod 3
    assert form([1, 1], [1, 1]) % 3 == 0
    # [(4, 0), (0, 2)] = 8 = 2 mod 3
    assert form([4, 0], [0, 2]) % 3 == 2


def test_symplectic_form_antisymmetry_and_bilinearity():
    d = 5
    vs = [(1, 2, 3, 4), (0, 1, 0, 1), (4, 4, 1, 0)]
    for v in vs:
        for w in vs:
            a = form(v, w) % d
            b = form(w, v) % d
            assert (a + b) % d == 0
            for u in vs:
                vu = [(x + y) % d for x, y in zip(v, u)]
                lhs = form(vu, w) % d
                rhs = (a + form(u, w)) % d
                assert lhs == rhs


def brute_complement(ps, M):
    elems = set(M.elements())
    return {
        v
        for v in product(range(ps.d), repeat=ps.m)
        if all(form(v, m) % ps.d == 0 for m in elems)
    }


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (4, 1)])
def test_complement_matches_brute_force(d, n, corpus):
    ps = PhaseSpace(n, d)
    for st in corpus(d, n):
        perp = symplectic_complement(ps, st.M)
        assert set(perp.elements()) == brute_complement(ps, st.M)
        assert st.M.order * perp.order == d ** (2 * n)


def random_subgroups(d, n, count):
    """Seeded subgroups of Z_d^{2n}, isotropic or not: up to 2n + 1 random
    generators, each scaled by a random divisor of d, so that some are not free
    at composite d."""
    rng = random.Random(f"perp-{d}-{n}")
    divisors = [c for c in range(1, d + 1) if d % c == 0]
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(0, 2 * n + 1)):
            c = rng.choice(divisors)
            gens.append([c * rng.randrange(d) for _ in range(2 * n)])
        out.append(Subgroup.from_generators(gens, d, 2 * n))
    if d in (4, 6):
        # a pivot strictly between 1 and d: the subgroup is not a free Z_d-module
        assert any(1 < M.basis[i][i] < d for M in out for i in range(2 * n))
    return out


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (4, 2)])
def test_complement_of_random_subgroup_matches_brute_force(d, n):
    ps = PhaseSpace(n, d)
    for M in random_subgroups(d, n, 12):
        perp = symplectic_complement(ps, M)
        assert set(perp.elements()) == brute_complement(ps, M)
        assert M.order * perp.order == d ** (2 * n)


@pytest.mark.parametrize("d,n", [(4, 3), (6, 3), (9, 2), (12, 2), (2, 5)])
def test_complement_is_an_involution(d, n):
    ps = PhaseSpace(n, d)
    for M in random_subgroups(d, n, 40):
        perp = symplectic_complement(ps, M)
        assert symplectic_complement(ps, perp) == M
        assert M.order * perp.order == d ** (2 * n)


def test_complement_makes_one_hnf_call(monkeypatch):
    import entrokit.zmod as zmod

    M = Subgroup.from_generators([[2, 0, 2, 0], [0, 3, 0, 1]], 6, 4)
    seen = []
    hermite = zmod._hermite_rows
    monkeypatch.setattr(zmod, "_hermite_rows", lambda *a: seen.append(a) or hermite(*a))
    symplectic_complement(PhaseSpace(2, 6), M)
    assert len(seen) == 1


def test_complement_rejects_a_foreign_subgroup():
    M = Subgroup.from_generators([[1, 1]], 3, 2)
    for ps in (PhaseSpace(2, 3), PhaseSpace(1, 2)):
        with pytest.raises(ValueError):
            symplectic_complement(ps, M)


def brute_orders(ps, M):
    """|M ∩ V_mask| at mask - 1, counted over the elements by their support."""
    support = [0] * (ps.full_mask + 1)
    for v in M.elements():
        support[sum(1 << i for i in range(ps.n) if v[2 * i] or v[2 * i + 1])] += 1
    return tuple(
        sum(c for sub, c in enumerate(support) if sub & mask == sub) for mask in range(1, ps.full_mask + 1)
    )


def both_paths(ps, M):
    """The support count and the subset tree on M, each called directly."""
    return phsp._support_orders(ps, M), phsp._tree_orders(ps, M, M.order)


@pytest.mark.parametrize(
    "d,n", [(d, n) for d in (2, 3, 4, 6, 8, 12) for n in (1, 2)] + [(2, 3), (3, 3), (2, 4), (3, 4)]
)
def test_subsystem_orders_match_brute_force_on_random_subgroups(d, n):
    # isotropic or not, free or not (composite d), as M_perp is for a mixed M;
    # both kernel paths, on either side of the threshold
    ps = PhaseSpace(n, d)
    subgroups = random_subgroups(d, n, 30)
    subgroups += [symplectic_complement(ps, M) for M in subgroups]
    assert any(not is_isotropic(ps, M) for M in subgroups)
    for M in subgroups:
        expected = brute_orders(ps, M)
        assert subsystem_orders(ps, M) == expected
        assert both_paths(ps, M) == (expected, expected)
    whole = Subgroup(d, 2 * n, tuple(tuple(int(i == j) for j in range(2 * n)) for i in range(2 * n)))
    expected = tuple(d ** (2 * subset_size(mask)) for mask in range(1, 1 << n))
    assert subsystem_orders(ps, whole) == expected
    assert both_paths(ps, whole) == (expected, expected)


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (6, 2), (2, 4)])
def test_subsystem_orders_takes_the_support_count_up_to_the_threshold(monkeypatch, d, n):
    # one subgroup of order just at or below SUPPORT_COUNT_LIMIT * 2^n, one just above
    ps = PhaseSpace(n, d)
    limit = phsp.SUPPORT_COUNT_LIMIT << n
    pool = random_subgroups(d, n, 30)
    pool += [symplectic_complement(ps, M) for M in pool]
    below = max((M for M in pool if M.order <= limit), key=lambda M: M.order)
    above = min((M for M in pool if M.order > limit), key=lambda M: M.order)
    assert below.order * d > limit and above.order <= limit * d
    paths = []
    support, tree = phsp._support_orders, phsp._tree_orders
    monkeypatch.setattr(phsp, "_support_orders", lambda *a: paths.append("support") or support(*a))
    monkeypatch.setattr(phsp, "_tree_orders", lambda *a: paths.append("tree") or tree(*a))
    for M in (below, above):
        assert subsystem_orders(ps, M) == brute_orders(ps, M)
    assert paths == ["support", "tree"]


def rank_mod_p(rows, p):
    """Rank over GF(p) of an integer matrix, by Gauss-Jordan elimination; p prime."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def graph_states(d, n, sample):
    """Adjacency matrices over Z_d with zero diagonal: every graph, or a seeded sample of that many."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if sample is None:
        weights = product(range(d), repeat=len(edges))
    else:
        rng = random.Random(f"graph-{d}-{n}")
        weights = ([rng.randrange(d) for _ in edges] for _ in range(sample))
    for w in weights:
        gamma = [[0] * n for _ in range(n)]
        for (i, j), x in zip(edges, w):
            gamma[i][j] = gamma[j][i] = x
        yield gamma


def rank_formula_orders(gamma, d):
    """|M ∩ V_A| = d^(|A| - rank Gamma[A, complement of A]) at mask - 1, for the graph state of Gamma."""
    n = len(gamma)
    out = []
    for mask in range(1, 1 << n):
        inside, outside = particles(mask), particles(((1 << n) - 1) ^ mask)
        cut = [[gamma[i][j] for j in outside] for i in inside] if outside else []
        out.append(d ** (len(inside) - rank_mod_p(cut, d)))
    return tuple(out)


@pytest.mark.parametrize(
    "d,n,sample,path",
    [
        (2, 4, None, "support"),
        (3, 3, None, "support"),
        (5, 3, None, "tree"),
        (2, 6, 300, "support"),
        (3, 5, 300, "support"),
        (3, 6, 100, "tree"),
    ],
)
def test_subsystem_orders_of_graph_states_match_the_rank_formula(monkeypatch, d, n, sample, path):
    # The graph state of Gamma is stabilized by (p_j, q_j) = (delta_ij, Gamma_ij), and
    # S_A = rank_GF(d) Gamma[A, complement of A]: |M ∩ V_A| = d^(|A| - rank).  The rank
    # shares no code with the kernel; |M| = d^n fixes the path it takes.
    ps = PhaseSpace(n, d)
    paths = set()
    support, tree = phsp._support_orders, phsp._tree_orders
    monkeypatch.setattr(phsp, "_support_orders", lambda *a: paths.add("support") or support(*a))
    monkeypatch.setattr(phsp, "_tree_orders", lambda *a: paths.add("tree") or tree(*a))
    graphs = 0
    for gamma in graph_states(d, n, sample):
        gens = [[int(i == j) if k % 2 == 0 else gamma[i][j] for i in range(n) for k in (0, 1)] for j in range(n)]
        M = Subgroup.from_generators(gens, d, 2 * n)
        assert M.order == d**n and is_isotropic(ps, M)
        assert subsystem_orders(ps, M) == rank_formula_orders(gamma, d)
        graphs += 1
    assert graphs == (sample or d ** (n * (n - 1) // 2))
    assert paths == {path}


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
def test_graph_states_give_the_vectors_of_every_pure_state(d, n, corpus):
    # every pure stabilizer state is local-Clifford equivalent to a graph state,
    # and local symplectic maps fix every V_A: the two sets of vectors agree
    ps = PhaseSpace(n, d)
    pure = {subsystem_orders(ps, st.M) for st in corpus(d, n) if st.M.order == d**n}
    assert {rank_formula_orders(gamma, d) for gamma in graph_states(d, n, None)} == pure


def test_subsystem_orders_rejects_a_foreign_subgroup():
    M = Subgroup.from_generators([[1, 1, 0, 0]], 3, 4)
    for ps in (PhaseSpace(2, 2), PhaseSpace(1, 3), PhaseSpace(3, 3)):
        with pytest.raises(ValueError, match="does not live in the given phase space"):
            subsystem_orders(ps, M)


def test_is_isotropic():
    ps = PhaseSpace(1, 3)
    assert is_isotropic(ps, Subgroup.from_generators([[1, 1]], 3, 2))
    assert not is_isotropic(ps, Subgroup.from_generators([[1, 0], [0, 1]], 3, 2))
    ps2 = PhaseSpace(2, 2)
    # two commuting two-particle generators
    assert is_isotropic(ps2, Subgroup.from_generators([[1, 0, 1, 0], [0, 1, 0, 1]], 2, 4))


def test_is_isotropic_rejects_a_foreign_subgroup():
    from entrokit.stabilizer import StabilizerState

    # isotropic in its own Z_2^4
    M = Subgroup.from_generators([[1, 0, 1, 0], [0, 1, 0, 1]], 2, 4)
    for ps in (PhaseSpace(2, 3), PhaseSpace(1, 2), PhaseSpace(3, 2)):
        for check in (is_isotropic, StabilizerState):
            with pytest.raises(ValueError, match="does not live in the given phase space"):
                check(ps, M)
