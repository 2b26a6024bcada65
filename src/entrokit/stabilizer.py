"""Entropy vectors of stabilizer states from the subgroup description alone.

Entropies are stored exactly as (subset size, subgroup order) pairs; decimal
values only appear at the I/O boundary.  For the quantum entropy the relevant
order is |M_I|, for the classical phase-space entropy it is |pi_I(M_perp)|.
Both come from one subsystem kernel, ``phasespace.project_phase``: pi_Ibar
restricted to M has kernel M_I = M ∩ V_I (Ibar the complement of I), so by
the exact sequence 0 -> M_I -> M -> pi_Ibar(M) -> 0, |M_I| = |M| / |pi_Ibar(M)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

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

    def value(self, mask: int) -> float:
        return self.entries[mask].value

    def rows(self) -> list[tuple[int, int, int, float]]:
        """(mask, size, order, entropy_log_d) rows, ascending by mask."""
        out = []
        for mask in sorted(self.entries):
            e = self.entries[mask]
            out.append((mask, e.subset_size, e.subgroup_order, e.value))
        return out


class StabilizerState:
    """A stabilizer state, described purely by its isotropic subgroup."""

    def __init__(self, ps: PhaseSpace, M: Subgroup):
        if M.m != ps.m or M.d != ps.d:
            raise ValueError("subgroup does not live in the given phase space")
        if not phsp.is_isotropic(ps, M):
            raise ValueError("subgroup is not isotropic")
        self.ps = ps
        self.M = M
        self._perp: Optional[Subgroup] = None

    @property
    def perp(self) -> Subgroup:
        if self._perp is None:
            self._perp = phsp.symplectic_complement(self.ps, self.M)
        return self._perp

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StabilizerState) and self.M == other.M

    def __hash__(self) -> int:
        return hash(self.M)


def quantum_entropy(st: StabilizerState, mask: int) -> ExactEntropy:
    """S(rho(M)_I) = |I| - log_d |M_I|, exactly, with |M_I| = |M| / |pi_Ibar(M)|."""
    if not mask:
        raise ValueError("empty particle subset")
    rest = st.ps.full_mask ^ mask
    order = st.M.order // phsp.project_phase(st.ps, st.M, rest).order if rest else st.M.order
    return ExactEntropy(subset_size(mask), order, st.ps.d, QUANTUM)


def classical_entropy(st: StabilizerState, mask: int) -> ExactEntropy:
    """H(X_I) = log_d |pi_I(M_perp)| for the uniform phase-space model."""
    if not mask:
        raise ValueError("empty particle subset")
    img = phsp.project_phase(st.ps, st.perp, mask)
    return ExactEntropy(subset_size(mask), img.order, st.ps.d, CLASSICAL)


def order_identity_check(st: StabilizerState) -> bool:
    """S = H - |I| for every nonempty I, as the exact order identity
    |pi_I(M_perp)| * |M_I| = d^{2|I|}."""
    d = st.ps.d
    for mask in range(1, 1 << st.ps.n):
        s = quantum_entropy(st, mask)
        h = classical_entropy(st, mask)
        if h.subgroup_order * s.subgroup_order != d ** (2 * subset_size(mask)):
            return False
    return True


def entropy_vector(st: StabilizerState, kind: str = QUANTUM) -> EntropyVector:
    if kind == QUANTUM:
        fn = quantum_entropy
    elif kind == CLASSICAL:
        fn = classical_entropy
    else:
        raise ValueError(f"unknown kind {kind!r}")
    entries = {mask: fn(st, mask) for mask in range(1, 1 << st.ps.n)}
    return EntropyVector(st.ps.n, st.ps.d, kind, entries)


def enumerate_isotropic(ps: PhaseSpace) -> Iterator[StabilizerState]:
    """Every isotropic subgroup of Z_d^{2n}, each exactly once.

    Breadth-first extension over coset representatives: from M, adjoin each
    nonzero v in M_perp with v == M.reduce(v).  Any v in M_perp commutes with
    all of M mod d, so the extension stays isotropic, and M + <v> equals
    M + <M.reduce(v)>, so skipping the other members of v + M loses no
    subgroup.  Different representatives can still give the same subgroup;
    a set of canonical bases removes those duplicates.  The emission order is
    deterministic: by BFS level, then by parent, then by representative.
    The frontier holds the yielded states, so each complement is built once,
    by ``StabilizerState.perp``, and shared with the classical entropies.
    """
    if ps.d ** ps.m > ENUMERATION_GUARD:
        raise ValueError(
            f"d^(2n) = {ps.d ** ps.m} exceeds the enumeration guard {ENUMERATION_GUARD}"
        )
    trivial = StabilizerState(ps, Subgroup.zero(ps.d, ps.m))
    seen = {trivial.M}
    frontier = [trivial]
    yield trivial
    while frontier:
        nxt = []
        for st in frontier:
            M = st.M
            for v in st.perp.elements():
                if not any(v) or M.reduce(v) != v:
                    continue
                M2 = M.extend(v)
                if M2 in seen:
                    continue
                seen.add(M2)
                st2 = StabilizerState(ps, M2)
                nxt.append(st2)
                yield st2
        frontier = nxt
