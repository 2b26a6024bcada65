import pytest

from entrokit.phasespace import PhaseSpace
from entrokit.stabilizer import QUANTUM, StabilizerState, enumerate_isotropic


@pytest.fixture(scope="session")
def corpus():
    """Cached enumeration of all isotropic subgroups per (d, n), each wrapped
    in a ``StabilizerState``, so its isotropy is checked."""
    cache = {}

    def get(d, n):
        if (d, n) not in cache:
            ps = PhaseSpace(n, d)
            cache[(d, n)] = [StabilizerState(ps, M) for M in enumerate_isotropic(ps)]
        return cache[(d, n)]

    return get


def reference_pair(q, vec):
    """(ok, lhs, rhs) of one pair, evaluated on its own from the bigints of
    ``orders[mask - 1]``: the per-pair evaluator the batch kernel replaced."""
    if q.n != vec.n:
        raise ValueError("inequality arity does not match entropy vector")
    if vec.kind == QUANTUM:
        sign, shift = -1, sum(c * bin(mask).count("1") for mask, c in q.nu.items())
    else:
        sign, shift = 1, 0
    lhs, rhs = 1, 1
    for mask, c in q.nu.items():
        e = sign * c
        if e > 0:
            lhs *= vec.orders[mask - 1] ** e
        elif e < 0:
            rhs *= vec.orders[mask - 1] ** (-e)
    if shift > 0:
        lhs *= vec.d**shift
    elif shift < 0:
        rhs *= vec.d ** (-shift)
    return lhs >= rhs, lhs, rhs
