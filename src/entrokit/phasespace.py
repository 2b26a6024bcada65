"""Symplectic structure on the discrete phase space Z_d^{2n}.

Coordinates are interleaved as (p_1, q_1, ..., p_n, q_n), so projecting onto a
subset of particles is a pure column selection.  Party subsets are passed as
bitmasks with particle 1 on the least significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .zmod import ModMatrix, Subgroup, kernel_mod


def particles(mask: int) -> list[int]:
    """0-based particle indices selected by a bitmask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def subset_size(mask: int) -> int:
    return bin(mask).count("1")


@dataclass(frozen=True)
class PhaseSpace:
    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one particle, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got d={self.d}")

    @property
    def m(self) -> int:
        return 2 * self.n

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def coords(self, mask: int) -> list[int]:
        """Phase-space columns (p_i, q_i) of the particles in ``mask``."""
        out = []
        for i in particles(mask):
            out.extend((2 * i, 2 * i + 1))
        return out


@dataclass(frozen=True)
class SymplecticValue:
    """The symplectic form evaluated on canonical lifts, kept mod 2d and mod d."""

    value: int
    reduced_mod_d: int


def symplectic_form(ps: PhaseSpace, v: Sequence[int], w: Sequence[int]) -> SymplecticValue:
    """[v, w] = sum_i p_i q'_i - q_i p'_i on the canonical integer lifts."""
    if len(v) != ps.m or len(w) != ps.m:
        raise ValueError(f"vectors must have length {ps.m}")
    d = ps.d
    total = 0
    for i in range(ps.n):
        p, q = v[2 * i] % d, v[2 * i + 1] % d
        pp, qq = w[2 * i] % d, w[2 * i + 1] % d
        total += p * qq - q * pp
    return SymplecticValue(total % (2 * d), total % d)


def is_isotropic(ps: PhaseSpace, M: Subgroup) -> bool:
    """True iff the form vanishes mod d on all pairs of basis vectors.

    The mod-d condition is the Weyl commutation criterion; subgroups passing
    it but failing the mod-2d test still yield valid projectors (the even-d
    ordered-product construction absorbs the sign bookkeeping).
    """
    gens = M.generators()
    for i, g in enumerate(gens):
        for h in gens[i:]:
            if symplectic_form(ps, g, h).reduced_mod_d:
                return False
    return True


def symplectic_complement(ps: PhaseSpace, M: Subgroup) -> Subgroup:
    """M_perp = {v : [v, m] == 0 mod d for all m in M}."""
    d = ps.d
    rows = []
    for g in M.generators():
        # [v, g] = sum_i v_p * g_q - v_q * g_p, as a linear functional in v
        row = []
        for i in range(ps.n):
            row.extend((g[2 * i + 1], -g[2 * i] % d))
        rows.append(row)
    return kernel_mod(ModMatrix.make(rows, d, ps.m))


def project_phase(ps: PhaseSpace, S: Subgroup, mask: int) -> Subgroup:
    """pi_I(S): image of S under projection onto the particles in I."""
    if not mask:
        raise ValueError("empty particle subset")
    if mask == ps.full_mask:
        return S
    return S.project(ps.coords(mask))
