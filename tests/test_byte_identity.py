"""Byte-identity gate: corpora and verify reports, frozen as SHA-256 digests.

A change to the enumerator, the subsystem kernel, the corpus reader or the
verification kernel must leave these outputs the same byte for byte; a digest
that moves is a change of output, to be explained or undone.  The corpus and
report digests were taken from the outputs before the subgroup stream carried
bare ``Subgroup``s and mask-indexed order tuples; the order digests at n >= 4,
from the chain-order HNF kernel that the subset-tree kernel replaced.
oracle-check reports are left out: their float errors depend on the BLAS build.
"""

import hashlib
import random

import pytest

from entrokit.cli import main
from entrokit.phasespace import PhaseSpace, form, subsystem_orders
from entrokit.zmod import Subgroup

CORPORA = {
    (2, 3): "a29df39ea32c21d3b751bb296df053430a6b3630e64a9b63d84ad212752eb91a",
    (4, 2): "3e88b5ea63cc0bfcd693a0f149d7e9dc2e7727bfab12ff8675b2291c1a5a2ac1",
    (6, 2): "0c17a58d6494f4de2f0dc9f96ebbb02af823a0af10f7b14295cac734cc545db2",
}

# (d, n, family, kind) -> (exit code, digest of the report)
REPORTS = {
    (2, 3, "ssa", "quantum"): (0, "c7dce63713d2b696917a0d13f78df1b8158f11d59efd33b95bb3e32867c843fe"),
    (2, 3, "ssa", "classical"): (0, "c7dce63713d2b696917a0d13f78df1b8158f11d59efd33b95bb3e32867c843fe"),
    (2, 3, "monotonicity", "quantum"): (1, "6a5c50b6966e7d8c8b97725d423f6fb4a8c5e5a4066a90bcb5c7793036b4e09a"),
    (2, 3, "monotonicity", "classical"): (0, "45ff72fee12f9404a7ee00785c9185d630510ed40155136b381eb87bf556fe95"),
    (4, 2, "ssa", "quantum"): (0, "1221aeef2d77c260b5503e39fefb5daeb42365e566c8ff9f8d4b68dcc302cad9"),
    (4, 2, "ssa", "classical"): (0, "1221aeef2d77c260b5503e39fefb5daeb42365e566c8ff9f8d4b68dcc302cad9"),
    (4, 2, "monotonicity", "quantum"): (1, "1b6eb57aa821455e66fdf6a3b5548b2f6c32dfb6b7e23c42d812bb776dd54b15"),
    (4, 2, "monotonicity", "classical"): (0, "48fe7b2a317d8e850a5d56e4795c6699f1255b4f4b767fe0e7b157312c09d41a"),
    (6, 2, "ssa", "quantum"): (0, "83fbdcdf9ca1631fc9e648871d531ae69c102cd283da02c97ae5de84ca1a92a6"),
    (6, 2, "ssa", "classical"): (0, "83fbdcdf9ca1631fc9e648871d531ae69c102cd283da02c97ae5de84ca1a92a6"),
    (6, 2, "monotonicity", "quantum"): (1, "733554c56da3ebdce33d9820360663adca69a341d77cfcace465669d57e26437"),
    (6, 2, "monotonicity", "classical"): (0, "03097c8d6eb167c8e27630498d39d937e1402cbdfea98b68ac99ceca91d1d17c"),
}


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("d,n", sorted(CORPORA))
def test_corpus_and_reports_are_byte_identical(d, n, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    assert main(["enumerate", "--d", str(d), "--n", str(n), "--out", str(corpus)]) == 0
    assert sha256(corpus) == CORPORA[(d, n)]
    for family in ("ssa", "monotonicity"):
        for kind in ("quantum", "classical"):
            report = tmp_path / f"{family}_{kind}.json"
            argv = ["verify", "--corpus", str(corpus), "--family", family, "--kind", kind, "--out", str(report)]
            rc, digest = REPORTS[(d, n, family, kind)]
            assert main(argv) == rc
            assert sha256(report) == digest, (family, kind)
    assert capsys.readouterr().err == ""


# digest of the quantum orders, one line per subgroup: every (2,4) state in
# enumeration order, and 60 seeded isotropic subgroups at each larger size
ORDERS = {
    (2, 4): "7783d02c8f6282165544b3aeaa7666bc9047afdb0d9ab539c5061ff7e7826ace",
    (2, 5): "fac4bc44465da18c9b81a59fd76e55c8fc35ab26e6df2bae5bf4296b91cebcb3",
    (3, 4): "5cb7e78f1612d21c6169840c58a7c209b628f72e54f47c2e10f5a7292ab676a7",
    (6, 4): "e8a66de1e3a8e83a150eb505e4ba6633eaada7ea708b16d8d94a5b517dc66012",
}


def orders_digest(ps, subgroups):
    h = hashlib.sha256()
    for M in subgroups:
        h.update((" ".join(map(str, subsystem_orders(ps, M))) + "\n").encode())
    return h.hexdigest()


def seeded_isotropic(d, n, count):
    """Up to n pairwise-orthogonal random generators each, found by rejection;
    half of them scaled by a random divisor of d, so that at d = 6 some
    subgroups are not free."""
    rng = random.Random(f"orders-{d}-{n}")
    divisors = [c for c in range(1, d + 1) if d % c == 0]
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(0, n)):
            c = 1 if rng.random() < 0.5 else rng.choice(divisors)
            while True:
                v = [c * rng.randrange(d) % d for _ in range(2 * n)]
                if not any(form(v, g) % d for g in gens):
                    break
            gens.append(v)
        out.append(Subgroup.from_generators(gens, d, 2 * n))
    return out


def test_orders_of_every_qubit_state_at_n4_are_byte_identical(corpus):
    assert orders_digest(PhaseSpace(4, 2), [st.M for st in corpus(2, 4)]) == ORDERS[(2, 4)]


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (6, 4)])
def test_orders_of_seeded_subgroups_are_byte_identical(d, n):
    subgroups = seeded_isotropic(d, n, 60)
    assert {M.order for M in subgroups} >= {1, d**n}
    assert orders_digest(PhaseSpace(n, d), subgroups) == ORDERS[(d, n)]
