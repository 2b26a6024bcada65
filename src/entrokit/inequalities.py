"""Linear information inequalities and their exact evaluation.

An inequality is a map from nonempty subset masks to integer coefficients,
read as sum_I nu_I S_I >= 0.  On stabilizer entropy vectors the sign is
decided by an exact big-integer comparison, so verification verdicts never
depend on floating-point tolerances, even for composite d where log_d of a
subgroup order is irrational.

That arithmetic exists once, in ``_kernel``, which evaluates every
inequality of a list on one vector at once.  The list is packed once into a
lane table (``_Lanes``): one big integer per subset mask holds every
inequality's coefficient of that mask in a fixed-width lane.  Per prime p | d,
one multiply-accumulate of those columns by the vector's p-exponents gives the
p-power of every lhs and rhs; lanes whose sign decides the verdict are read
from their top bits, and only failing and least lanes become (lhs, rhs)
integers.  ``verify_batch`` runs the kernel once per distinct vector;
``_evaluate`` is its one-vector view.
No numpy is imported here, so ``verify`` does not pay for loading it.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from functools import lru_cache, partial, reduce
from itertools import compress, permutations, repeat
from operator import is_, lt, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .phasespace import subset_size
from .stabilizer import QUANTUM, EntropyVector
from .value import Value


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` of ``strict_json`` that rejects a repeated key.

    Plain ``json.loads`` keeps the last of two equal keys and drops the first
    silently; this raises ValueError instead.
    """
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"key {next(k for k in obj if keys.count(k) > 1)!r} appears twice")
    return obj


strict_json = json.JSONDecoder(object_pairs_hook=unique_keys)  # built once; json.loads(hook=) builds one a call


class Inequality(Value):
    """sum_I nu_I S_I >= 0 on n parties; equality and hash ignore ``nu``.  ``size_weight``
    is sum nu_I |I|, the d-power the quantum sum carries: S_I = |I| - log_d|M_I|."""

    __slots__ = ("n", "nu", "name", "size_weight")
    _fields = ("n", "nu", "name")

    def __init__(self, n: int, nu: Mapping[int, int], name: str = "") -> None:
        # read-only, so that a lane table built from it cannot go stale
        nu = MappingProxyType(dict(nu))
        if not all(isinstance(c, int) for c in nu.values()):
            raise ValueError("coefficients must be integers")
        if not any(nu.values()):
            raise ValueError("inequality must have a nonzero coefficient")
        for mask in nu:
            if not 1 <= mask < (1 << n):
                raise ValueError(f"subset mask {mask} out of range for n={n}")
        self._set(n, nu, name, sum(c * subset_size(mask) for mask, c in nu.items()))

    def _key(self) -> tuple:
        return self.n, self.name

    def coefficients(self) -> dict[int, int]:
        return {m: c for m, c in sorted(self.nu.items()) if c}

    @classmethod
    def from_json(cls, text: str) -> "Inequality":
        """One JSON object, no key repeated: int ``n >= 1``, ``nu`` mapping canonical
        decimal masks ("5", not "05", " 5" or "٥") to ints, an optional string
        ``name``; else ValueError."""
        obj = strict_json.decode(text)
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


class _Lanes:
    """The packed coefficient table of one inequality list at one d.

    Inequality j owns lane j, w bytes wide, of every packed integer, so one
    big-integer multiply-accumulate over the masks evaluates every inequality
    at once.  Write d = prod p^k and an order as prod p^e_I.  Then lhs and rhs
    of inequality j (see ``_kernel``) are prod p^a and prod p^b, where per prime
        quantum:   a = sum_{c<0} -c e_I + k max(s, 0),  b = sum_{c>0} c e_I + k max(-s, 0)
        classical: a = sum_{c>0} c e_I,                 b = sum_{c<0} -c e_I
    with c = nu_I and s = ``size_weight``.  ``cols[I]`` packs max(c, 0) in its
    low half and max(-c, 0) in its high half, one lane set each; ``shp`` and
    ``shn`` pack max(s, 0) and max(-s, 0).

    Every order divides d^{2|I|}, so e_I <= 2 |I| k and a, b <= bound =
    max k * max_j (2 sum_I |c| |I| + |s|).  The lane width is the least power
    of two with bound < 2^(8w-1), so a - b + 2^(8w-1) (``top`` packs
    2^(8w-1)) stays inside its lane.  The table holds its inequalities, and
    their ``nu`` are read-only, so it cannot go stale.
    """

    def __init__(self, ineqs: tuple[Inequality, ...], d: int):
        self.ineqs, self.count, self.d = ineqs, len(ineqs), d
        self.names = [q.name for q in ineqs]
        self.arities = {q.n for q in ineqs}
        self.primes = _prime_powers(d)
        n = max(self.arities, default=0)
        self.sizes = [subset_size(mask) for mask in range(1, 1 << n)]
        bound = max(k for _, k in self.primes) * max(
            (2 * sum(abs(c) * self.sizes[m - 1] for m, c in q.nu.items()) + abs(q.size_weight) for q in ineqs),
            default=0,
        )
        self.w = 1
        while bound >= 1 << (8 * self.w - 1):
            self.w *= 2
        self.split = 8 * self.w * self.count  # bit length of one lane set
        # lane j of column I: max(c, 0) in lane 2 (I - 1) count + j of buf, max(-c, 0) one lane set later
        buf, w = bytearray(2 * len(self.sizes) * self.count * self.w), self.w
        for j, q in enumerate(ineqs):
            for mask, c in q.nu.items():
                at = ((2 * (mask - 1) + (c < 0)) * self.count + j) * w
                buf[at : at + w] = abs(c).to_bytes(w, "little")
        step = 2 * w * self.count
        self.cols = [int.from_bytes(buf[i : i + step], "little") for i in range(0, len(buf), step)]
        self.shp = self.pack([max(q.size_weight, 0) for q in ineqs])
        self.shn = self.pack([max(-q.size_weight, 0) for q in ineqs])
        self.top = self.pack([1 << (8 * self.w - 1)] * self.count)

    def pack(self, lanes: list[int]) -> int:
        """One integer holding lanes[j] in lane j; each lane is in [0, 2^(8w))."""
        return int.from_bytes(b"".join(x.to_bytes(self.w, "little") for x in lanes), "little")

    def unpack(self, x: int):
        """The lanes of a packed integer, as a sequence of ints."""
        code, buf = _TYPECODES.get(self.w), x.to_bytes(self.count * self.w, "little")
        if code:
            lanes = array(code)
            lanes.frombytes(buf)
            return lanes
        return [int.from_bytes(buf[i : i + self.w], "little") for i in range(0, len(buf), self.w)]

    def flagged(self, x: int) -> list[int]:
        """The lanes whose top bit is set in x, in order; x has no other bits set."""
        flags = (x >> (8 * self.w - 1)).to_bytes(self.count * self.w, "little")
        return list(compress(range(self.count), flags[:: self.w]))


# array typecode per lane width in bytes; the array path needs a little-endian host
_TYPECODES = {array(code).itemsize: code for code in "BHIQ"} if sys.byteorder == "little" else {}


def _prime_powers(d: int) -> list[tuple[int, int]]:
    """(p, k) for each prime power p^k exactly dividing d, p increasing."""
    out, p = [], 2
    while d > 1:
        if p * p > d:
            p = d
        k = 0
        while d % p == 0:
            d, k = d // p, k + 1
        if k:
            out.append((p, k))
        p += 1
    return out


@lru_cache(maxsize=1 << 12)
def _exponents(d: int, size: int, order: int) -> tuple[int, ...]:
    """The exponents of an order over the primes of d, in ``_prime_powers``
    order; ValueError unless the order divides d^{2 size}."""
    rest, es = order, []
    for p, k in _prime_powers(d):
        e = 0
        while rest % p == 0 and e < 2 * size * k:
            rest, e = rest // p, e + 1
        es.append(e)
    if rest != 1:
        raise ValueError(f"order {order} does not divide {d}^{2 * size}")
    return tuple(es)


_last: _Lanes | None = None  # the table ``_table`` built last


def _table(ineqs: list[Inequality], d: int) -> _Lanes:
    """The lane table of a list at d.  The last one built is kept and reused
    while d and every member, by identity, are the same; it holds its members,
    so no other object can take their ids meanwhile."""
    global _last
    t = _last
    if t is None or t.d != d or t.count != len(ineqs) or not all(map(is_, t.ineqs, ineqs)):
        t = _last = _Lanes(tuple(ineqs), d)
    return t


def _kernel(t: _Lanes, vec: EntropyVector) -> tuple[list[tuple[str, int, int]], tuple[int, int]]:
    """Every inequality of a lane table on one stabilizer entropy vector, exactly.

    S_I = |I| - log_d(order) (quantum) or log_d(order) (classical), so sum
    nu_I S_I is log_d(lhs / rhs) with lhs and rhs products of orders and a
    d-power, and the inequality holds iff lhs >= rhs.  Per prime p | d, one
    multiply-accumulate gives the lanes a and b (see ``_Lanes``) of every
    inequality at once.  A lane with a - b >= 0 for every p holds.  The others
    are turned back into (lhs, rhs) = (prod p^a, prod p^b) and compared, which
    for a prime power always finds lhs < rhs.  Returns the failures, (name,
    lhs, rhs) per violated inequality in order, and ``low``, the first (lhs,
    rhs) with the least ratio.  For a prime power that is the first least
    a - b.  Otherwise equal (a - b per prime) is an equal ratio and distinct
    ones are distinct ratios, so the first lane of each distinct (a - b per
    prime) is compared exactly.
    """
    if t.arities - {vec.n}:
        raise ValueError("inequality arity does not match entropy vector")
    if not t.count:
        return [], (1, 0)  # ratio +inf: no pair
    exps = [_exponents(t.d, size, order) for size, order in zip(t.sizes, vec.orders)]
    quantum, low_half = vec.kind == QUANTUM, (1 << t.split) - 1
    lanes = []  # (p, a lanes, b lanes, a - b + 2^(8w-1) lanes) per prime
    neg = 0  # the top bit of each lane with a - b < 0 for some p
    for j, (p, k) in enumerate(t.primes):
        e = [x[j] for x in exps]
        both = sum(map(mul, compress(e, e), compress(t.cols, e)))  # a zero times a long int is not free
        a, b = both & low_half, both >> t.split  # sum max(c, 0) e_I, sum max(-c, 0) e_I
        if quantum:
            a, b = b + k * t.shp, a + k * t.shn
        delta = a - b + t.top
        neg |= t.top & ~delta
        lanes.append((p, t.unpack(a), t.unpack(b), t.unpack(delta)))

    def pairs(idx: list[int]) -> tuple[list[int], list[int]]:
        # prod over primes of p^a and of p^b, lane by lane
        lhs = reduce(partial(map, mul), [map(pow, repeat(p), map(a.__getitem__, idx)) for p, a, _, _ in lanes])
        rhs = reduce(partial(map, mul), [map(pow, repeat(p), map(b.__getitem__, idx)) for p, _, b, _ in lanes])
        return list(lhs), list(rhs)

    failures = []
    if neg:
        idx = t.flagged(neg)
        lhs, rhs = pairs(idx)
        failures = list(compress(zip(map(t.names.__getitem__, idx), lhs, rhs), map(lt, lhs, rhs)))
    if len(lanes) == 1:  # a C-level min; the dedup below makes verify_batch 1.35-1.5x slower at d = 2, 4
        delta = lanes[0][3]
        idx = [delta.index(min(delta))]
    else:
        # the first lane of each distinct (a - b per prime): the last write of a reversed scan wins
        last = range(t.count - 1, -1, -1)
        idx = list(dict(zip(zip(*(reversed(delta) for *_, delta in lanes)), last)).values())
    low = (1, 0)
    for l, r in zip(*pairs(idx)):
        if l * low[1] < low[0] * r:
            low = (l, r)
    return failures, low


def _evaluate(
    ineqs: list[Inequality], vec: EntropyVector
) -> tuple[list[tuple[str, int, int]], tuple[int, int]]:
    """(failures, low) of ``_kernel`` for a list of inequalities on one vector;
    the ``low`` of a single inequality is its own (lhs, rhs)."""
    return _kernel(_table(ineqs, vec.d), vec)


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


def zhang_yeung() -> Inequality:
    """The non-Shannon-type inequality of Zhang and Yeung (1998) on 4 parties,
    with A, B, C, D the particles 1, 2, 4, 8:

    I(A:B) + I(A:CD) + 3 I(C:D|A) + I(C:D|B) - 2 I(C:D) >= 0.
    """
    A, B, C, D = 1, 2, 4, 8
    nu: dict[int, int] = {}
    mutual_information(nu, A, B)
    mutual_information(nu, A, C | D)
    conditional_mutual_information(nu, C, D, A, 3)
    conditional_mutual_information(nu, C, D, B)
    mutual_information(nu, C, D, -2)
    return Inequality(4, nu, "zhang_yeung(1,2,4,8)")


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


class Violation(Value):
    __slots__ = _fields = ("state_id", "inequality", "lhs", "rhs")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, state_id: int, inequality: str, lhs: int, rhs: int) -> None:
        self._set(state_id, inequality, lhs, rhs)


class VerificationReport(Value):
    """The outcome of a batch, held once per distinct entropy vector.

    ``vector_ids[k]`` is the id of state k's vector, ids numbered by first
    occurrence; ``failures[v]`` holds (inequality, lhs, rhs) for each
    inequality that vector v violates, in inequality order.
    """

    __slots__ = _fields = ("name", "min_slack", "vector_ids", "failures")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, name: str) -> None:
        self._set(name, math.inf, array("I"), [])

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
    (``EntropyVector.orders``), so ``_kernel`` runs once per distinct vector,
    over every inequality at once, and each state keeps only its vector's id.
    The lane table of the list is kept for the next call on the same members;
    no result outlives the call.
    The smallest value is tracked as the first exact pair (lhs, rhs) with the
    least ratio lhs/rhs in state, then inequality order, compared by
    cross-multiplying; a repeated vector repeats pairs already compared.
    ``min_slack`` is log_d of that ratio, exactly rounded at every prime power d,
    so a tight instance reads exactly 0.0.
    """
    ineqs = list(inequalities)
    report = VerificationReport(name)
    ids: dict[tuple[int, ...], int] = {}
    d = kind = table = None
    low_lhs, low_rhs = 1, 0  # ratio +inf until the first pair
    for idx, vec in enumerate(vectors):
        if d is None:
            d, kind, table = vec.d, vec.kind, _table(ineqs, vec.d)
        elif (vec.d, vec.kind) != (d, kind):
            raise ValueError(f"vector {idx} has (d, kind) = ({vec.d}, {vec.kind}), not ({d}, {kind})")
        vid = ids.setdefault(vec.orders, len(ids))
        if vid == len(report.failures):  # first occurrence
            failures, (lhs, rhs) = _kernel(table, vec)
            if lhs * low_rhs < low_lhs * rhs:
                low_lhs, low_rhs = lhs, rhs
            report.failures.append(failures)
        report.vector_ids.append(vid)
    if low_rhs:  # exact when lhs/rhs = prod p^(k r) over the p^k of d for one rational r, as at a prime power
        size = max(low_lhs, low_rhs).bit_length()  # each exponent is below 2 size k
        lhs, rhs = (_exponents(d, size, x) for x in (low_lhs, low_rhs))
        rates = [(a - b, k) for a, b, (_, k) in zip(lhs, rhs, _prime_powers(d))]
        if all(e * rates[0][1] == rates[0][0] * k for e, k in rates):
            report.min_slack = rates[0][0] / rates[0][1]  # int / int rounds correctly
        else:
            report.min_slack = (math.log(low_lhs) - math.log(low_rhs)) / math.log(d)
    return report
