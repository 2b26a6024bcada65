"""Subgroup arithmetic checked against brute-force closure over Z_d^m."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit.zmod import Subgroup


def closure(gens, d, m):
    """All Z_d^m vectors reachable from the generators, by saturation."""
    elems = {tuple([0] * m)}
    frontier = [tuple([0] * m)]
    gens = [tuple(x % d for x in g) for g in gens]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % d for a, b in zip(v, g))
                if w not in elems:
                    elems.add(w)
                    nxt.append(w)
        frontier = nxt
    return elems


small_cases = st.tuples(
    st.integers(min_value=2, max_value=6),  # d
    st.integers(min_value=1, max_value=3),  # m
)


@st.composite
def generated_subgroup(draw):
    d, m = draw(small_cases)
    k = draw(st.integers(min_value=0, max_value=3))
    gens = [
        [draw(st.integers(min_value=0, max_value=d - 1)) for _ in range(m)]
        for _ in range(k)
    ]
    return d, m, gens


@settings(max_examples=60, deadline=None)
@given(generated_subgroup())
def test_order_and_membership_match_closure(case):
    d, m, gens = case
    S = Subgroup.from_generators(gens, d, m)
    elems = closure(gens, d, m)
    assert S.order == len(elems)
    for v in product(range(d), repeat=m):
        assert S.contains(v) == (v in elems)


@settings(max_examples=40, deadline=None)
@given(generated_subgroup())
def test_canonical_basis_is_a_normal_form(case):
    d, m, gens = case
    S = Subgroup.from_generators(gens, d, m)
    # rebuilding from the element list gives the identical basis
    assert Subgroup.from_generators(list(S.elements()), d, m) == S
    # basis shape: upper triangular, pivots divide d, above-pivot reduced
    for i in range(m):
        piv = S.basis[i][i]
        assert 0 < piv <= d and d % piv == 0
        for j in range(i):
            assert S.basis[j][i] < piv
        for j in range(i):
            assert S.basis[i][j] == 0


@settings(max_examples=60, deadline=None)
@given(generated_subgroup(), st.data())
def test_contains_is_coset_membership_of_any_integer_vector(case, data):
    d, m, gens = case
    S = Subgroup.from_generators(gens, d, m)
    elems = closure(gens, d, m)
    assert set(S.elements()) == elems
    v = [data.draw(st.integers(min_value=-2 * d, max_value=2 * d)) for _ in range(m)]
    assert S.contains(v) == (tuple(x % d for x in v) in elems)
    # membership is constant on the coset v + S, and v - w lies in S iff w is in v + S
    w = data.draw(st.sampled_from(sorted(elems)))
    assert S.contains([a + b for a, b in zip(v, w)]) == S.contains(v)
    u = [data.draw(st.integers(min_value=0, max_value=d - 1)) for _ in range(m)]
    assert S.contains([a - b for a, b in zip(v, u)]) == any(
        tuple((a + b) % d for a, b in zip(u, e)) == tuple(x % d for x in v) for e in S.elements()
    )


def test_elements_enumerates_each_exactly_once():
    S = Subgroup.from_generators([[2, 0], [0, 2]], 4, 2)
    elems = list(S.elements())
    assert len(elems) == len(set(elems)) == S.order == 4
    assert set(elems) == {(0, 0), (2, 0), (0, 2), (2, 2)}


def test_non_free_subgroup_composite_modulus():
    # span{(2, 0)} in Z_4^2 has order 2; it is not a free Z_4-module
    S = Subgroup.from_generators([[2, 0]], 4, 2)
    assert S.order == 2
    assert S.contains([2, 0]) and not S.contains([1, 0])


def test_zero_and_full():
    Z = Subgroup.from_generators([], 6, 3)
    F = Subgroup.from_generators([[int(i == j) for j in range(3)] for i in range(3)], 6, 3)
    assert Z.order == 1
    assert F.order == 6**3


def test_input_validation():
    with pytest.raises(ValueError):
        Subgroup.from_generators([[1, 0]], 1, 2)
    with pytest.raises(ValueError):
        Subgroup.from_generators([[1, 0, 0]], 3, 2)
    with pytest.raises(ValueError):
        Subgroup.from_generators([], 3, 2).contains([1])
