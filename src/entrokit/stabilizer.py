"""Entropy vectors of stabilizer states from the subgroup description alone.

A vector is stored exactly as its tuple of subgroup orders, one per nonempty
subset; decimal values only appear at the I/O boundary.  One run of the
kernel ``phasespace.subsystem_orders`` on M (|M ∩ V_I| for every subset I,
by support count for a small M and by the subset tree for a large one, with
no HNF either way) gives both vectors: the quantum order is
|M_I| = |M ∩ V_I|, and the classical one follows from the order identity
|M_I| * |pi_I(M_perp)| = d^{2|I|}, which holds because pi_I(M_perp) is the
annihilator of M ∩ V_I in V_I.  So no vector needs
M_perp.  M_perp is kept for the check of that identity: ``order_identity_check`` counts
|pi_I(M_perp)| = |M_perp| / |M_perp ∩ V_Ibar| from M_perp itself.
``enumerate_isotropic`` yields bare ``Subgroup``s, isotropic by construction;
``StabilizerState`` checks isotropy, for a subgroup from anywhere else.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from itertools import product
from typing import Iterator

from . import phasespace as phsp
from .phasespace import PhaseSpace, subset_size
from .value import Value
from .zmod import Subgroup

QUANTUM = "quantum"
CLASSICAL = "classical"

ENUMERATION_GUARD = 2**24

_Entry = namedtuple("_Entry", "subset_size subgroup_order")


def check_guard(ps: PhaseSpace) -> None:
    """ValueError if d^(2n) > ENUMERATION_GUARD, building no giant power: as d >= 2, 2n >= its bit length is past it."""
    if ps.m >= ENUMERATION_GUARD.bit_length() or ps.d**ps.m > ENUMERATION_GUARD:
        raise ValueError(f"d^(2n) = {ps.d}^{ps.m} exceeds the enumeration guard {ENUMERATION_GUARD}")


def _check_orders(n: int, orders: tuple[int, ...]) -> None:
    """A tuple of ints, one per nonempty subset; a dict or a list is refused,
    since iterating a mask -> order dict would yield the masks."""
    if type(orders) is not tuple or any(type(q) is not int for q in orders):
        raise ValueError(f"orders must be a tuple of ints, got {type(orders).__name__}")
    if len(orders) != (1 << n) - 1:
        raise ValueError("entropy vector must have one order per nonempty subset")


class EntropyVector(Value):
    """An entropy vector in units of log d, as exact integers: ``orders[mask - 1]``
    is the subgroup order of subset mask, |M_I| for the quantum kind, whose
    S_I = |I| - log_d |M_I|, and |pi_I(M_perp)| for the classical one, whose
    H_I = log_d |pi_I(M_perp)|."""

    __slots__ = _fields = ("n", "d", "kind", "orders")

    def __init__(self, n: int, d: int, kind: str, orders: tuple[int, ...]) -> None:
        if kind not in (QUANTUM, CLASSICAL):
            raise ValueError(f"unknown kind {kind!r}")
        _check_orders(n, orders)
        self._set(n, d, kind, orders)

    def value(self, mask: int) -> float:
        """The entropy of subset ``mask`` in units of log d."""
        if not 0 < mask < 1 << self.n:
            raise ValueError(f"particle subset {mask} is empty or out of range")
        logd = math.log(self.orders[mask - 1]) / math.log(self.d)
        if self.kind == QUANTUM:
            return subset_size(mask) - logd
        return logd

    @property
    def entries(self) -> dict[int, _Entry]:
        """mask -> (subset_size, subgroup_order), built on demand from ``orders``.
        Its only reader is the perfbench harness."""
        return {mask: _Entry(subset_size(mask), q) for mask, q in enumerate(self.orders, 1)}


class StabilizerState:
    """A stabilizer state, described purely by its isotropic subgroup."""

    def __init__(self, ps: PhaseSpace, M: Subgroup):
        if not phsp.is_isotropic(ps, M):
            raise ValueError("subgroup is not isotropic")
        self.ps = ps
        self.M = M

    @cached_property
    def perp(self) -> Subgroup:
        return phsp.symplectic_complement(self.ps, self.M)


def order_identity_check(st: StabilizerState) -> bool:
    """S = H - |I| for every nonempty I, as the exact order identity
    |pi_I(M_perp)| * |M_I| = d^{2|I|}, with each side counted from its own
    subgroup: |M_I| from M, |pi_I(M_perp)| = |M_perp| / |M_perp ∩ V_Ibar| from
    M_perp, since pi_I on M_perp has kernel M_perp ∩ V_Ibar."""
    ps = st.ps
    inside = phsp.subsystem_orders(ps, st.M)
    perp_inside = (1,) + phsp.subsystem_orders(ps, st.perp)  # indexed by mask, |M_perp ∩ V_0| = 1
    return all(
        st.perp.order * q == ps.d ** (2 * subset_size(mask)) * perp_inside[ps.full_mask ^ mask]
        for mask, q in enumerate(inside, 1)
    )


def vector_from_orders(ps: PhaseSpace, orders: tuple[int, ...], kind: str) -> EntropyVector:
    """The entropy vector of ``kind`` from the quantum orders, |M_I| at ``mask - 1``
    as ``subsystem_orders`` gives them; the one place an ``EntropyVector`` is built.

    Each |M_I| must divide d^{2|I|} and be at most d^{|I|}, as the order of an
    isotropic subgroup of V_I is.  The classical order is
    |pi_I(M_perp)| = d^{2|I|} / |M_I| by the order identity.
    """
    _check_orders(ps.n, orders)
    d, out = ps.d, []
    for mask, q in enumerate(orders, 1):
        size = subset_size(mask)
        full = d ** (2 * size)
        if not (0 < q <= d**size and full % q == 0):
            raise ValueError(f"mask {mask}: order {q} is not a divisor of d^{2 * size} at most d^{size}")
        out.append(q if kind == QUANTUM else full // q)
    return EntropyVector(ps.n, d, kind, tuple(out))


def entropy_vector(st: StabilizerState, kind: str = QUANTUM) -> EntropyVector:
    return vector_from_orders(st.ps, phsp.subsystem_orders(st.ps, st.M), kind)


def enumerate_isotropic(ps: PhaseSpace) -> Iterator[Subgroup]:
    """Every isotropic subgroup of Z_d^{2n}, each exactly once, as a bare
    ``Subgroup``: the construction below makes it isotropic.

    Orderly generation over the canonical form (R. C. Read, "Every one a
    winner", 1978): each subgroup is built directly as its HNF basis, the
    ``Subgroup.basis`` tuple, so no duplicate arises, no HNF is computed and
    no set of seen subgroups is kept.  Rows are chosen from the last column
    up.  Row i is (0, ..., 0, p, t_{i+1}, ..., t_{2n-1}) with a pivot p | d
    (p = d gives the trivial row d*e_i) and each tail entry t_j in [0, p_j),
    p_j the pivot already chosen at column j.  A row is kept only if
      - (d/p)*t reduces to 0 against the rows below it: the lattice then
        contains d*Z^{2n}, so the rows are the HNF of a subgroup, and
      - it is orthogonal mod d to every nontrivial row below it, so the
        subgroup stays isotropic.
    A branch is pruned once its order passes d^n, the largest isotropic order.

    The emission order is deterministic: depth first from column 2n-1 down to
    column 0; at each column the pivots in decreasing order, so the trivial
    row comes first, and for each pivot the tails in lexicographic order.
    The trivial subgroup is emitted first.  A corpus's ``index`` follows this
    order.  The guard runs at the call, not at the first ``next()``.
    """
    check_guard(ps)
    d, m, n = ps.d, ps.m, ps.n
    divisors = [p for p in range(d, 0, -1) if d % p == 0]
    trivial = tuple(tuple(d * (j == i) for j in range(m)) for i in range(m))

    def rows_from(
        i: int, rows: tuple[tuple[int, ...], ...], gens: tuple[tuple[int, ...], ...], order: int
    ) -> Iterator[Subgroup]:
        # rows: the HNF rows already chosen, at columns i+1 .. 2n-1; gens: the
        # nontrivial ones, which are their own generators mod d; order: |span|
        if i < 0:
            yield Subgroup(d, m, rows, gens)
            return
        # the subgroup the chosen rows span; its rows at columns <= i are trivial
        below = Subgroup(d, m, trivial[: i + 1] + rows)
        for p in divisors:
            if order * (d // p) > d**n:
                break
            if p == d:
                yield from rows_from(i - 1, (trivial[i],) + rows, gens, order)
                continue
            for tail in product(*(range(r[j]) for j, r in enumerate(rows, i + 1))):
                row = (0,) * i + (p,) + tail
                # isotropy against each nontrivial row g below; HNF: (d/p)*row lies in below
                if not any(phsp.form(row, g) % d for g in gens) and below.contains([(d // p) * x for x in row]):
                    yield from rows_from(i - 1, (row,) + rows, (row,) + gens, order * (d // p))

    return rows_from(m - 1, (), (), 1)
