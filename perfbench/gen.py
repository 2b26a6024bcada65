"""Seeded benchmark inputs, built without the package under test.

Every generator takes a ``random.Random`` seeded from the workload name and
the ``--seed`` argument, so one seed always gives the same inputs.
"""

from __future__ import annotations

import random


def workload_rng(workload: str, seed: int) -> random.Random:
    """Seeding from a string hashes it with SHA-512, independent of PYTHONHASHSEED."""
    return random.Random(f"{workload}:{seed}")


def _divisors(d: int) -> list[int]:
    return [a for a in range(1, d + 1) if d % a == 0]


def symplectic_form(v, w, d: int) -> int:
    """[v, w] = sum_i p_i q'_i - q_i p'_i mod d, coordinates (p_1, q_1, ...)."""
    total = 0
    for i in range(0, len(v), 2):
        total += v[i] * w[i + 1] - v[i + 1] * w[i]
    return total % d


def random_isotropic(rng: random.Random, d: int, n: int, pure: bool) -> tuple[list[list[int]], int]:
    """Generators of a random isotropic subgroup of Z_d^{2n} and its exact order.

    Start from a product of local subgroups <(a, 0), (0, d/a)>, one divisor a
    per qudit (order d each, so the product is maximal isotropic and may be
    non-free for composite d).  A mixed state keeps a random proper subset of
    those cyclic factors; the factors form a direct sum, so the order is the
    product of the kept factor orders.  Random symplectic shears, sums and
    swaps then move the subgroup; they are automorphisms, so order and
    isotropy are preserved.
    """
    factors = []
    for i in range(n):
        a = rng.choice(_divisors(d))
        for g, order in (((a, 0), d // a), ((0, d // a), a)):
            if order > 1:
                v = [0] * (2 * n)
                v[2 * i], v[2 * i + 1] = g
                factors.append((v, order))
    if not pure:
        while True:
            kept = [f for f in factors if rng.random() < 0.5]
            if len(kept) < len(factors):
                break
        factors = kept
    order = 1
    for _, o in factors:
        order *= o
    vs = [list(v) for v, _ in factors]
    for _ in range(6 * n):
        op = rng.randrange(3)
        if op == 0:
            # local shear p += t q or q += t p on one qudit
            i = rng.randrange(n)
            t = rng.randrange(1, d)
            a, b = rng.choice(((2 * i, 2 * i + 1), (2 * i + 1, 2 * i)))
            for v in vs:
                v[a] = (v[a] + t * v[b]) % d
        elif op == 1:
            # two-qudit sum gate: q_j += c q_i, p_i -= c p_j
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(1, d)
            for v in vs:
                v[2 * j + 1] = (v[2 * j + 1] + c * v[2 * i + 1]) % d
                v[2 * i] = (v[2 * i] - c * v[2 * j]) % d
        else:
            i, j = rng.sample(range(n), 2)
            for v in vs:
                v[2 * i : 2 * i + 2], v[2 * j : 2 * j + 2] = v[2 * j : 2 * j + 2], v[2 * i : 2 * i + 2]
    for x in range(len(vs)):
        for y in range(x, len(vs)):
            if symplectic_form(vs[x], vs[y], d):
                raise RuntimeError("generator produced a non-isotropic set")
    return vs, order
