"""Entropy vectors of stabilizer states from the subgroup description alone.

Entropies are stored exactly as (subset size, subgroup order) pairs; decimal
values only appear at the I/O boundary.  One run of the chain kernel
``phasespace.subsystem_orders`` on M (|M ∩ V_I| for every subset I from
C(n, floor(n/2)) HNFs) gives both vectors: the quantum order is
|M_I| = |M ∩ V_I|, and the classical one follows from the order identity
|M_I| * |pi_I(M_perp)| = d^{2|I|}, which holds because pi_I(M_perp) is the
annihilator of M ∩ V_I in V_I.  So no vector needs M_perp.  M_perp is kept for
the check of that identity: ``order_identity_check`` counts
|pi_I(M_perp)| = |M_perp| / |M_perp ∩ V_Ibar| from M_perp itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterator

from . import phasespace as phsp
from .phasespace import PhaseSpace, subset_size
from .zmod import Subgroup

QUANTUM = "quantum"
CLASSICAL = "classical"

ENUMERATION_GUARD = 2**24


@dataclass(frozen=True)
class ExactEntropy:
    """An entropy value in units of log d, kept as exact integer data.

    quantum kind:   value = subset_size - log_d(subgroup_order)
    classical kind: value = log_d(subgroup_order)
    """

    subset_size: int
    subgroup_order: int
    d: int
    kind: str

    @property
    def value(self) -> float:
        logd = math.log(self.subgroup_order) / math.log(self.d)
        if self.kind == QUANTUM:
            return self.subset_size - logd
        return logd


@dataclass(frozen=True)
class EntropyVector:
    n: int
    d: int
    kind: str
    entries: dict[int, ExactEntropy] = field(compare=False)

    def __post_init__(self) -> None:
        expected = set(range(1, 1 << self.n))
        if set(self.entries) != expected:
            raise ValueError("entropy vector must have one entry per nonempty subset")

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Subgroup orders over masks 1 .. 2^n - 1: with n, d and kind, the whole vector."""
        return tuple(self.entries[mask].subgroup_order for mask in range(1, 1 << self.n))


class StabilizerState:
    """A stabilizer state, described purely by its isotropic subgroup."""

    def __init__(self, ps: PhaseSpace, M: Subgroup):
        if M.m != ps.m or M.d != ps.d:
            raise ValueError("subgroup does not live in the given phase space")
        if not phsp.is_isotropic(ps, M):
            raise ValueError("subgroup is not isotropic")
        self.ps = ps
        self.M = M

    @cached_property
    def perp(self) -> Subgroup:
        return phsp.symplectic_complement(self.ps, self.M)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StabilizerState) and self.M == other.M

    def __hash__(self) -> int:
        return hash(self.M)


def _entry(st: StabilizerState, mask: int, kind: str) -> ExactEntropy:
    if not 0 < mask <= st.ps.full_mask:
        raise ValueError(f"particle subset {mask} is empty or out of range")
    return entropy_vector(st, kind).entries[mask]


def quantum_entropy(st: StabilizerState, mask: int) -> ExactEntropy:
    """S(rho(M)_I) = |I| - log_d |M_I|, exactly: one entry of the quantum vector."""
    return _entry(st, mask, QUANTUM)


def classical_entropy(st: StabilizerState, mask: int) -> ExactEntropy:
    """H(X_I) = log_d |pi_I(M_perp)| for the uniform phase-space model."""
    return _entry(st, mask, CLASSICAL)


def order_identity_check(st: StabilizerState) -> bool:
    """S = H - |I| for every nonempty I, as the exact order identity
    |pi_I(M_perp)| * |M_I| = d^{2|I|}, with each side counted from its own
    subgroup: |M_I| from M, |pi_I(M_perp)| = |M_perp| / |M_perp ∩ V_Ibar| from
    M_perp, since pi_I on M_perp has kernel M_perp ∩ V_Ibar."""
    ps = st.ps
    inside = phsp.subsystem_orders(ps, st.M)
    perp_inside = phsp.subsystem_orders(ps, st.perp)
    return all(
        st.perp.order * q == ps.d ** (2 * subset_size(mask)) * perp_inside.get(ps.full_mask ^ mask, 1)
        for mask, q in inside.items()
    )


def vector_from_orders(ps: PhaseSpace, orders: dict[int, int], kind: str) -> EntropyVector:
    """The entropy vector of ``kind`` from the quantum orders, mask -> |M_I|;
    the one place an ``EntropyVector`` is built.

    Each |M_I| must divide d^{2|I|} and be at most d^{|I|}, as the order of an
    isotropic subgroup of V_I is.  The classical order is
    |pi_I(M_perp)| = d^{2|I|} / |M_I| by the order identity.
    """
    if kind not in (QUANTUM, CLASSICAL):
        raise ValueError(f"unknown kind {kind!r}")
    d, entries = ps.d, {}
    for mask in range(1, 1 << ps.n):
        size, q = subset_size(mask), orders[mask]
        full = d ** (2 * size)
        if not (0 < q <= d**size and full % q == 0):
            raise ValueError(f"mask {mask}: order {q} is not a divisor of d^{2 * size} at most d^{size}")
        entries[mask] = ExactEntropy(size, q if kind == QUANTUM else full // q, d, kind)
    return EntropyVector(ps.n, d, kind, entries)


def entropy_vector(st: StabilizerState, kind: str = QUANTUM) -> EntropyVector:
    return vector_from_orders(st.ps, phsp.subsystem_orders(st.ps, st.M), kind)


def enumerate_isotropic(ps: PhaseSpace) -> Iterator[StabilizerState]:
    """Every isotropic subgroup of Z_d^{2n}, each exactly once.

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
    order.
    """
    if ps.d ** ps.m > ENUMERATION_GUARD:
        raise ValueError(
            f"d^(2n) = {ps.d ** ps.m} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    d, m, n = ps.d, ps.m, ps.n
    divisors = [p for p in range(d, 0, -1) if d % p == 0]
    trivial = tuple(tuple(d * (j == i) for j in range(m)) for i in range(m))

    def rows_from(i: int, rows: tuple[tuple[int, ...], ...]) -> Iterator[StabilizerState]:
        # rows: the HNF rows already chosen, at columns i+1 .. 2n-1
        if i < 0:
            yield StabilizerState(ps, Subgroup(d, m, rows))
            return
        # the subgroup the chosen rows span; its rows at columns <= i are trivial
        below = Subgroup(d, m, trivial[: i + 1] + rows)
        gens = below.generators()
        for p in divisors:
            if below.order * (d // p) > d**n:
                break
            if p == d:
                yield from rows_from(i - 1, (trivial[i],) + rows)
                continue
            for tail in product(*(range(r[j]) for j, r in enumerate(rows, i + 1))):
                row = (0,) * i + (p,) + tail
                # isotropy against each nontrivial row g below; HNF: (d/p)*row lies in below
                if not any(phsp.form(row, g) % d for g in gens) and below.contains([(d // p) * x for x in row]):
                    yield from rows_from(i - 1, (row,) + rows)

    yield from rows_from(m - 1, ())
