"""Exact linear algebra for subgroups of Z_d^m.

Subgroups are represented by integer lattices that contain d*Z^m, canonicalized
via a row-style Hermite normal form.  This handles composite moduli uniformly:
non-free submodules such as span{(2,0)} in Z_4^2 need no special casing.  All
orders are exact Python integers; nothing here ever touches floating point.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Iterable, Iterator, Optional, Sequence

from .value import Value


def _eliminate(mat: list[list[int]], top: int, col: int, d: int) -> int:
    """One column of an HNF, in place: Euclid on column ``col`` of ``mat[top:]``.

    The rows hold entries mod d, are zero before ``col``, and include d*e_col.
    The smallest nonzero entry is swapped to ``mat[top]`` and reduces the rows
    below it mod d until it divides them all; it is returned as the pivot, the
    gcd of the column and d, and the rows below ``top`` are left zero at ``col``.
    """
    nrows = len(mat)
    while True:
        best = -1
        best_val = d + 1
        for idx in range(top, nrows):
            a = mat[idx][col]
            if a and a < best_val:
                best, best_val = idx, a
        if best != top:
            mat[top], mat[best] = mat[best], mat[top]
        prow = mat[top]
        piv = prow[col]
        ncols = len(prow)
        clean = True
        for idx in range(top + 1, nrows):
            a = mat[idx][col]
            if not a:
                continue
            q = a // piv
            if a - q * piv:
                clean = False
            row = mat[idx]
            for j in range(col, ncols):
                row[j] = (row[j] - q * prow[j]) % d
        if clean:
            return piv


def _hermite_rows(rows: Sequence[Sequence[int]], ncols: int, d: int) -> list[list[int]]:
    """Hermite normal form of the lattice spanned by ``rows`` plus d*Z^ncols.

    Returns the full-rank ncols x ncols upper-triangular basis with positive
    pivots and above-pivot entries reduced into [0, pivot).  Because the
    lattice contains d*Z^ncols, every intermediate entry may be reduced mod d,
    which keeps the arithmetic on small nonnegative integers.
    """
    mat = [[x % d for x in row] for row in rows]
    mat = [row for row in mat if any(row)]
    for i in range(ncols):
        e = [0] * ncols
        e[i] = d
        mat.append(e)

    for col in range(ncols):
        # full rank is guaranteed by the appended d*I rows
        piv = _eliminate(mat, col, col, d)
        prow = mat[col]
        for idx in range(col):
            q = mat[idx][col] // piv
            if q:
                row = mat[idx]
                for j in range(col, ncols):
                    row[j] = (row[j] - q * prow[j]) % d
    return mat[:ncols]


class Subgroup(Value):
    """A subgroup of Z_d^m, stored as the canonical HNF basis of its lift.

    Two subgroups are equal iff their basis tuples are identical; the HNF of a
    full-rank integer lattice is unique, so this is a faithful equality test.
    ``generators()`` is computed once and kept; a caller that already holds
    it may pass it in as ``gens``.
    """

    __slots__ = ("d", "m", "basis", "_gens")
    _fields = ("d", "m", "basis")

    def __init__(self, d: int, m: int, basis: tuple[tuple[int, ...], ...], gens: Optional[tuple] = None) -> None:
        self._set(d, m, basis, gens)

    @classmethod
    def from_generators(cls, gens: Iterable[Sequence[int]], d: int, m: int) -> "Subgroup":
        if d < 2:
            raise ValueError(f"modulus must be >= 2, got {d}")
        gens = [list(g) for g in gens]
        for g in gens:
            if len(g) != m:
                raise ValueError(f"generator of length {len(g)}, expected {m}")
        hnf = _hermite_rows(gens, m, d)
        return cls(d, m, tuple(tuple(row) for row in hnf))

    @property
    def order(self) -> int:
        return prod(self.d // self.basis[i][i] for i in range(self.m))

    def generators(self) -> list[tuple[int, ...]]:
        """Canonical basis rows reduced mod d, trivial rows dropped."""
        if self._gens is None:
            rows = (tuple(x % self.d for x in row) for row in self.basis)
            object.__setattr__(self, "_gens", tuple(g for g in rows if any(g)))
        return list(self._gens)

    def contains(self, v: Sequence[int]) -> bool:
        """True iff v reduces to 0 against the basis, column by column.  Each
        column leaves a remainder in [0, basis[i][i]), so the first nonzero
        one shows that v is not in M."""
        if len(v) != self.m:
            raise ValueError(f"vector of length {len(v)}, expected {self.m}")
        d, rem = self.d, [x % self.d for x in v]
        for i, row in enumerate(self.basis):
            q, r = divmod(rem[i], row[i])
            if r:
                return False
            if q:
                for j in range(i + 1, self.m):
                    rem[j] = (rem[j] - q * row[j]) % d
        return True

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All elements of the subgroup, in a deterministic order."""
        d, m = self.d, self.m
        ranges = [range(d // self.basis[i][i]) for i in range(m)]
        for cs in itertools.product(*ranges):
            v = [0] * m
            for i, c in enumerate(cs):
                if c:
                    row = self.basis[i]
                    for j in range(i, m):
                        v[j] = (v[j] + c * row[j]) % d
            yield tuple(v)

