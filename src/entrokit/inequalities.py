"""Linear information inequalities and their exact evaluation.

An inequality is a map from nonempty subset masks to integer coefficients,
read as sum_I nu_I S_I >= 0.  On stabilizer entropy vectors the sign is
decided by an exact big-integer comparison, so verification verdicts never
depend on floating-point tolerances, even for composite d where log_d of a
subgroup order is irrational.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from typing import Iterable, Iterator

from .phasespace import subset_size
from .stabilizer import CLASSICAL, QUANTUM, EntropyVector


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.loads`` that rejects a repeated key.

    Plain ``json.loads`` keeps the last of two equal keys and drops the first
    silently; this raises ValueError instead.
    """
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"key {next(k for k in obj if keys.count(k) > 1)!r} appears twice")
    return obj


@dataclass(frozen=True)
class Inequality:
    n: int
    nu: dict[int, int] = field(compare=False)
    name: str = ""

    def __post_init__(self) -> None:
        if not any(self.nu.values()):
            raise ValueError("inequality must have a nonzero coefficient")
        for mask in self.nu:
            if not 1 <= mask < (1 << self.n):
                raise ValueError(f"subset mask {mask} out of range for n={self.n}")

    @cached_property
    def size_weight(self) -> int:
        """sum nu_I |I|: the d-power the quantum sum carries, S_I = |I| - log_d|M_I|."""
        return sum(c * subset_size(mask) for mask, c in self.nu.items())

    def coefficients(self) -> dict[int, int]:
        return {m: c for m, c in sorted(self.nu.items()) if c}

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "name": self.name, "nu": {str(m): c for m, c in self.coefficients().items()}}
        )

    @classmethod
    def from_json(cls, text: str) -> "Inequality":
        """One JSON object, no key repeated: int ``n >= 1``, ``nu`` mapping canonical
        decimal masks ("5", not "05", " 5" or "٥") to ints, an optional string
        ``name``; else ValueError."""
        obj = json.loads(text, object_pairs_hook=unique_keys)
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        n, nu, name = obj.get("n"), obj.get("nu"), obj.get("name", "")
        if type(n) is not int or n < 1:
            raise ValueError(f"n = {n!r} is not an int >= 1")
        if not isinstance(nu, dict):
            raise ValueError(f"nu = {nu!r} is not an object")
        if type(name) is not str:
            raise ValueError(f"name = {name!r} is not a string")
        coeffs = {}
        for key, c in nu.items():
            if not (key.isascii() and key.isdigit() and str(int(key)) == key):
                raise ValueError(f"nu key {key!r} is not a canonical decimal mask")
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} of mask {key!r} is not an int")
            coeffs[int(key)] = c
        return cls(n, coeffs, name)


def is_balanced(q: Inequality) -> bool:
    """True iff sum of nu_I over subsets containing particle i is 0 for all i."""
    for i in range(q.n):
        bit = 1 << i
        if sum(c for m, c in q.nu.items() if m & bit):
            return False
    return True


def evaluate_exact(q: Inequality, h: EntropyVector):
    """Exact sign of sum nu_I S_I on a stabilizer entropy vector.

    Returns (nonnegative: bool, lhs: int, rhs: int) where the inequality holds
    iff lhs >= rhs; lhs/rhs are products of d-powers and subgroup orders, and
    the value of the sum is log_d(lhs / rhs).
    """
    if q.n != h.n:
        raise ValueError("inequality arity does not match entropy vector")
    # S_I = |I| - log_d(order) (quantum) or log_d(order) (classical); the sum
    # is log_d of (d^shift * prod order^(sign * nu_I)), compared against 1.
    if h.kind == QUANTUM:
        sign, shift = -1, q.size_weight
    elif h.kind == CLASSICAL:
        sign, shift = 1, 0
    else:
        raise ValueError(f"exact evaluation undefined for kind {h.kind!r}")
    lhs, rhs = 1, 1
    entries = h.entries
    for mask, c in q.nu.items():
        e = sign * c
        if e > 0:
            lhs *= entries[mask].subgroup_order**e
        elif e < 0:
            rhs *= entries[mask].subgroup_order ** (-e)
    if shift > 0:
        lhs *= h.d**shift
    elif shift < 0:
        rhs *= h.d ** (-shift)
    return lhs >= rhs, lhs, rhs


def evaluate_float(q: Inequality, values) -> float:
    """sum nu_I * values(mask) for any real-valued entropy vector."""
    return sum(c * values(mask) for mask, c in q.nu.items())


# --- coefficient builders -------------------------------------------------


def _add(nu: dict[int, int], mask: int, c: int) -> None:
    if mask:
        nu[mask] = nu.get(mask, 0) + c


def mutual_information(nu: dict[int, int], I: int, J: int, c: int = 1) -> None:
    """Accumulate c * I(I:J) = c * (S_I + S_J - S_{I∪J})."""
    _add(nu, I, c)
    _add(nu, J, c)
    _add(nu, I | J, -c)


def conditional_mutual_information(nu: dict[int, int], I: int, J: int, K: int, c: int = 1) -> None:
    """Accumulate c * I(I:J|K) = c * (S_{IK} + S_{JK} - S_K - S_{IJK})."""
    if not K:
        mutual_information(nu, I, J, c)
        return
    _add(nu, I | K, c)
    _add(nu, J | K, c)
    _add(nu, K, -c)
    _add(nu, I | J | K, -c)


def monotonicity(n: int, I: int, J: int) -> Inequality:
    """S_{I∪J} - S_I >= 0 (valid classically, violated by quantum states)."""
    nu: dict[int, int] = {}
    _add(nu, I | J, 1)
    _add(nu, I, -1)
    return Inequality(n, nu, f"monotonicity({I}|{J})")


def strong_subadditivity(n: int, I: int, J: int) -> Inequality:
    """S_I + S_J - S_{I∩J} - S_{I∪J} >= 0."""
    nu: dict[int, int] = {}
    _add(nu, I, 1)
    _add(nu, J, 1)
    _add(nu, I & J, -1)
    _add(nu, I | J, -1)
    return Inequality(n, nu, f"ssa({I},{J})")


def weak_monotonicity(n: int, I: int, J: int, K: int) -> Inequality:
    """S_{I∪K} + S_{J∪K} - S_I - S_J >= 0 (quantum-valid, not balanced)."""
    nu: dict[int, int] = {}
    _add(nu, I | K, 1)
    _add(nu, J | K, 1)
    _add(nu, I, -1)
    _add(nu, J, -1)
    return Inequality(n, nu, f"weak_monotonicity({I},{J}|{K})")


def ingleton(n: int, I: int, J: int, K: int, L: int) -> Inequality:
    """I(I:J|K) + I(I:J|L) + I(K:L) - I(I:J) >= 0."""
    nu: dict[int, int] = {}
    conditional_mutual_information(nu, I, J, K)
    conditional_mutual_information(nu, I, J, L)
    mutual_information(nu, K, L)
    mutual_information(nu, I, J, -1)
    return Inequality(n, nu, f"ingleton({I},{J};{K},{L})")


def zhang_yeung(n: int = 4, A: int = 1, B: int = 2, C: int = 4, D: int = 8) -> Inequality:
    """The non-Shannon-type inequality of Zhang and Yeung (1998):

    I(A:B) + I(A:CD) + 3 I(C:D|A) + I(C:D|B) - 2 I(C:D) >= 0.
    """
    nu: dict[int, int] = {}
    mutual_information(nu, A, B)
    mutual_information(nu, A, C | D)
    conditional_mutual_information(nu, C, D, A, 3)
    conditional_mutual_information(nu, C, D, B)
    mutual_information(nu, C, D, -2)
    return Inequality(n, nu, f"zhang_yeung({A},{B},{C},{D})")


FAMILIES = ("monotonicity", "ssa", "weak_monotonicity", "ingleton", "zhang_yeung")


def instances(family: str, n: int) -> list[Inequality]:
    """All instances of a family, up to the obvious symmetries."""
    full = 1 << n
    out = []
    if family == "monotonicity":
        for I in range(1, full):
            for J in range(1, full):
                if I != I | J:
                    out.append(monotonicity(n, I, J))
    elif family == "ssa":
        # unordered pairs, skip nested ones (their value is identically 0)
        for I in range(1, full):
            for J in range(I + 1, full):
                if I & ~J and J & ~I:
                    out.append(strong_subadditivity(n, I, J))
    elif family == "weak_monotonicity":
        # I, J, K pairwise disjoint, I and J nonempty, unordered in (I, J)
        for I in range(1, full):
            for J in range(I + 1, full):
                if I & J:
                    continue
                rest = (full - 1) & ~(I | J)
                K = rest
                while True:
                    if K:
                        out.append(weak_monotonicity(n, I, J, K))
                    if K == 0:
                        break
                    K = (K - 1) & rest
    elif family == "ingleton":
        # singleton tuples; symmetric under I<->J and K<->L
        seen = set()
        for I, J, K, L in permutations(range(n), 4):
            key = (frozenset((I, J)), frozenset((K, L)))
            if key in seen:
                continue
            seen.add(key)
            out.append(ingleton(n, 1 << I, 1 << J, 1 << K, 1 << L))
    elif family == "zhang_yeung":
        if n != 4:
            raise ValueError("zhang_yeung instances are defined for n = 4")
        out.append(zhang_yeung())
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


# --- batch verification ---------------------------------------------------


@dataclass
class Violation:
    state_id: int
    inequality: str
    lhs: int
    rhs: int


@dataclass
class VerificationReport:
    """The outcome of a batch, held once per distinct entropy vector.

    ``vector_ids[k]`` is the id of state k's vector, ids numbered by first
    occurrence; ``failures[v]`` holds (inequality, lhs, rhs) for each
    inequality that vector v violates, in inequality order.
    """

    name: str
    min_slack: float = float("inf")
    vector_ids: array = field(default_factory=lambda: array("I"))
    failures: list[list[tuple[str, int, int]]] = field(default_factory=list)

    @property
    def states_checked(self) -> int:
        return len(self.vector_ids)

    @property
    def passed(self) -> bool:
        return not any(self.failures)

    @property
    def violation_count(self) -> int:
        return sum(len(self.failures[v]) for v in self.vector_ids)

    @property
    def violations(self) -> list[Violation]:
        """Every violation in state order, built on demand."""
        return [Violation(k, *f) for k, v in enumerate(self.vector_ids) for f in self.failures[v]]

    def chunks(self) -> Iterator[str]:
        """The JSON report in pieces, violations in state order; ``to_json`` joins them."""
        head = {
            "name": self.name,
            "states_checked": self.states_checked,
            "passed": self.passed,
            "min_slack": self.min_slack if math.isfinite(self.min_slack) else None,
            "violations": [],
        }
        yield json.dumps(head)[: -len("]}")]
        # each violation object past its "state" key, serialized once per distinct vector
        tails = [
            [json.dumps({"inequality": name, "lhs": str(lhs), "rhs": str(rhs)})[1:] for name, lhs, rhs in f]
            for f in self.failures
        ]
        sep = ""
        for k, v in enumerate(self.vector_ids):
            for tail in tails[v]:
                yield f'{sep}{{"state": {k}, {tail}'
                sep = ", "
        yield "]}"

    def to_json(self) -> str:
        return "".join(self.chunks())


def verify_batch(
    inequalities: Iterable[Inequality],
    vectors: Iterable[EntropyVector],
    name: str = "batch",
) -> VerificationReport:
    """Evaluate every inequality exactly on every distinct entropy vector.

    Every vector must share one d and one kind: ratios taken in different
    bases are not comparable.  A vector is then fixed by its orders
    (``EntropyVector.orders``), so ``evaluate_exact`` runs once per pair of
    inequality and distinct vector, and each state keeps only its vector's id.
    The smallest value is tracked as the first exact pair (lhs, rhs) with the
    least ratio lhs/rhs in state, then inequality order, compared by
    cross-multiplying; a repeated vector repeats pairs already compared.
    ``min_slack`` is log_d of that ratio, so a tight instance reads exactly 0.0.
    """
    ineqs = list(inequalities)
    report = VerificationReport(name)
    ids: dict[tuple[int, ...], int] = {}
    d = kind = low = None
    for idx, vec in enumerate(vectors):
        if d is None:
            d, kind = vec.d, vec.kind
        elif (vec.d, vec.kind) != (d, kind):
            raise ValueError(f"vector {idx} has (d, kind) = ({vec.d}, {vec.kind}), not ({d}, {kind})")
        vid = ids.setdefault(vec.orders, len(ids))
        if vid == len(report.failures):  # first occurrence
            failures = []
            for q in ineqs:
                ok, lhs, rhs = evaluate_exact(q, vec)
                if low is None or lhs * low[1] < low[0] * rhs:
                    low = (lhs, rhs)
                if not ok:
                    failures.append((q.name, lhs, rhs))
            report.failures.append(failures)
        report.vector_ids.append(vid)
    if low is not None:
        report.min_slack = (math.log(low[0]) - math.log(low[1])) / math.log(d)
    return report
