"""Inequality coefficients, balance, and exact big-integer evaluation."""

import gc
import json
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from conftest import reference_pair

from entrokit import inequalities as ineq
from entrokit import stabilizer
from entrokit.phasespace import PhaseSpace, subset_size, subsystem_orders
from entrokit.stabilizer import CLASSICAL, QUANTUM, StabilizerState, entropy_vector, vector_from_orders
from entrokit.zmod import Subgroup

A, B, C, D = 1, 2, 4, 8


def test_inequality_validation():
    with pytest.raises(ValueError):
        ineq.Inequality(2, {1: 0})
    with pytest.raises(ValueError):
        ineq.Inequality(2, {4: 1})
    with pytest.raises(ValueError):
        ineq.Inequality(2, {0: 1})
    for c in (0.5, 1.0, "1", np.int64(1)):  # exact lanes take Python integers only
        with pytest.raises(ValueError, match="integers"):
            ineq.Inequality(2, {1: c})


def test_json_roundtrip():
    q = ineq.zhang_yeung()
    line = json.dumps({"n": q.n, "name": q.name, "nu": {str(m): c for m, c in q.coefficients().items()}})
    q2 = ineq.Inequality.from_json(line)
    assert q2.n == q.n and q2.coefficients() == q.coefficients()


def test_ssa_coefficients():
    q = ineq.strong_subadditivity(3, 0b011, 0b110)
    assert q.coefficients() == {0b010: -1, 0b011: 1, 0b110: 1, 0b111: -1}
    assert ineq.is_balanced(q)


def test_monotonicity_and_weak_monotonicity_are_not_balanced():
    assert not ineq.is_balanced(ineq.monotonicity(2, 1, 2))
    assert not ineq.is_balanced(ineq.weak_monotonicity(3, 1, 2, 4))


def test_ingleton_coefficients():
    q = ineq.ingleton(4, A, B, C, D)
    expect = {
        A: -1,
        B: -1,
        A | B: 1,
        A | C: 1,
        B | C: 1,
        A | D: 1,
        B | D: 1,
        C: 1,
        D: 1,
        A | B | C: -1,
        A | B | D: -1,
        C | D: -1,
    }
    expect = {m: c for m, c in expect.items() if c}
    # I(A:B|C) + I(A:B|D) + I(C:D) - I(A:B) expanded by hand:
    # +AC +BC -C -ABC  +AD +BD -D -ABD  +C +D -CD  -A -B +AB
    hand = {
        A | C: 1,
        B | C: 1,
        A | B | C: -1,
        A | D: 1,
        B | D: 1,
        A | B | D: -1,
        C | D: -1,
        A: -1,
        B: -1,
        A | B: 1,
    }
    assert q.coefficients() == dict(sorted(hand.items()))
    assert ineq.is_balanced(q)


def test_zhang_yeung_coefficients():
    q = ineq.zhang_yeung()
    # I(A:B) + I(A:CD) + 3 I(C:D|A) + I(C:D|B) - 2 I(C:D), expanded by hand:
    #   I(A:B)      = +A +B -AB
    #   I(A:CD)     = +A +CD -ACD
    #   3 I(C:D|A)  = +3AC +3AD -3A -3ACD
    #   I(C:D|B)    = +BC +BD -B -BCD
    #   -2 I(C:D)   = -2C -2D +2CD
    hand = {
        A: -1,
        A | B: -1,
        C | D: 3,
        A | C | D: -4,
        A | C: 3,
        A | D: 3,
        B | C: 1,
        B | D: 1,
        B | C | D: -1,
        C: -2,
        D: -2,
    }
    assert q.coefficients() == dict(sorted(hand.items()))
    assert ineq.is_balanced(q)


def test_instance_counts():
    assert len(ineq.instances("ssa", 4)) == 55
    assert len(ineq.instances("weak_monotonicity", 4)) == 30
    assert len(ineq.instances("ingleton", 4)) == 6
    assert len(ineq.instances("zhang_yeung", 4)) == 1
    with pytest.raises(ValueError):
        ineq.instances("zhang_yeung", 3)
    with pytest.raises(ValueError):
        ineq.instances("bogus", 3)
    # monotonicity instances: ordered pairs with I a proper subset of I|J
    mono = ineq.instances("monotonicity", 2)
    assert all(q.n == 2 for q in mono)


def shannon_vector(p):
    """Subset entropies (nats) of a joint distribution over 4 binary variables."""
    t = p.reshape(2, 2, 2, 2)
    out = {}
    for mask in range(1, 16):
        axes = tuple(i for i in range(4) if not mask & (1 << i))
        marg = t.sum(axis=axes) if axes else t
        q = marg.reshape(-1)
        q = q[q > 1e-300]
        out[mask] = float(-(q * np.log(q)).sum())
    return out


def test_zhang_yeung_on_random_distributions():
    q = ineq.zhang_yeung()
    rng = np.random.default_rng(5)
    worst = math.inf
    for _ in range(300):
        p = rng.dirichlet(np.full(16, 0.3))
        sv = shannon_vector(p)
        worst = min(worst, ineq.evaluate_float(q, lambda m: sv[m]))
    assert worst > -1e-10


def test_ssa_on_random_distributions():
    rng = np.random.default_rng(6)
    qs = ineq.instances("ssa", 4)
    for _ in range(50):
        p = rng.dirichlet(np.ones(16))
        sv = shannon_vector(p)
        for q in qs:
            assert ineq.evaluate_float(q, lambda m: sv[m]) > -1e-10


def single(q, vec):
    """(ok, lhs, rhs) of one inequality by the kernel: the ``low`` of a
    one-member list is that member's own (lhs, rhs)."""
    _, (lhs, rhs) = ineq._evaluate([q], vec)
    return lhs >= rhs, lhs, rhs


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 1)])
def test_exact_sign_matches_float_sign(d, n, corpus):
    qs = ineq.instances("ssa", n) + ineq.instances("monotonicity", n)
    for st in corpus(d, n):
        for kind in (QUANTUM, CLASSICAL):
            vec = entropy_vector(st, kind)
            for q in qs:
                ok, lhs, rhs = single(q, vec)
                assert (ok, lhs, rhs) == reference_pair(q, vec)
                slack = ineq.evaluate_float(q, vec.value)
                if abs(slack) > 1e-9:
                    assert ok == (slack > 0)
                else:
                    assert ok  # exact arithmetic resolves ties to equality


@pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
def test_balanced_inequalities_shift_invariant(d, n, corpus):
    # for balanced nu, sum nu_I H_I = sum nu_I S_I since H = S + |I|;
    # exactly: lhs_q * rhs_c == rhs_q * lhs_c
    qs = [q for q in ineq.instances("ssa", n) if ineq.is_balanced(q)]
    for st in corpus(d, n):
        vq = entropy_vector(st, QUANTUM)
        vc = entropy_vector(st, CLASSICAL)
        for q in qs:
            _, lq, rq = single(q, vq)
            _, lc, rc = single(q, vc)
            assert lq * rc == rq * lc


def test_evaluate_arity_check(corpus):
    st = corpus(2, 2)[0]
    vec = entropy_vector(st, QUANTUM)
    with pytest.raises(ValueError):
        ineq._evaluate([ineq.zhang_yeung()], vec)


def test_verify_batch_and_report(corpus):
    vectors = [entropy_vector(st, QUANTUM) for st in corpus(2, 2)]
    report = ineq.verify_batch(ineq.instances("ssa", 2), vectors, "ssa")
    assert report.passed and report.states_checked == len(vectors)
    obj = json.loads(report.to_json())
    assert obj["passed"] is True and obj["violations"] == []
    report2 = ineq.verify_batch(ineq.instances("monotonicity", 2), vectors, "mono")
    assert not report2.passed
    obj2 = json.loads(report2.to_json())
    assert obj2["violations"] and obj2["min_slack"] < 0
    # empty evaluation renders a valid JSON document (no Infinity)
    empty = ineq.VerificationReport("empty")
    assert json.loads(empty.to_json())["min_slack"] is None


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 2), (6, 1)])
@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_min_slack_matches_float_reference(d, n, kind, corpus):
    # S_I >= 0 gives every n an instance; one vector at a time, the minimum
    # is often irrational (1 - log_6 2 at d = 6)
    qs = ineq.instances("ssa", n) + ineq.instances("monotonicity", n)
    qs += [ineq.Inequality(n, {mask: 1}) for mask in range(1, 1 << n)]
    vectors = [entropy_vector(st, kind) for st in corpus(d, n)]
    floats = [min(ineq.evaluate_float(q, vec.value) for q in qs) for vec in vectors]
    for vec, reference in zip(vectors, floats):
        assert abs(ineq.verify_batch(qs, [vec]).min_slack - reference) <= 1e-12
    assert abs(ineq.verify_batch(qs, vectors).min_slack - min(floats)) <= 1e-12


@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_min_slack_is_exactly_zero_when_tight(kind, corpus):
    # at composite d the float sum of log_6 orders misses 0 by ~1e-16
    vectors = [entropy_vector(st, kind) for st in corpus(6, 2)]
    report = ineq.verify_batch(ineq.instances("ssa", 2), vectors)
    assert report.passed and report.min_slack == 0.0


def test_verify_batch_rejects_mixed_d(corpus):
    vectors = [entropy_vector(corpus(2, 1)[0], QUANTUM), entropy_vector(corpus(3, 1)[0], QUANTUM)]
    with pytest.raises(ValueError):
        ineq.verify_batch([ineq.Inequality(1, {1: 1})], vectors)


def test_verify_batch_rejects_mixed_kinds(corpus):
    st = corpus(2, 1)[1]
    vectors = [entropy_vector(st, QUANTUM), entropy_vector(st, CLASSICAL)]
    with pytest.raises(ValueError):
        ineq.verify_batch([ineq.Inequality(1, {1: 1})], vectors)


def test_verify_batch_evaluates_each_distinct_vector_once(corpus, monkeypatch):
    vectors = [entropy_vector(st, QUANTUM) for st in corpus(2, 3)]
    qs = ineq.instances("monotonicity", 3)
    assert (len(vectors), len({vec.orders for vec in vectors}), len(qs)) == (514, 26, 30)
    pairs, tables = [], []
    kernel, lanes = ineq._kernel, ineq._Lanes
    monkeypatch.setattr(ineq, "_kernel", lambda table, vec: pairs.append(table.count) or kernel(table, vec))
    monkeypatch.setattr(ineq, "_Lanes", lambda qs, d: tables.append(len(qs)) or lanes(qs, d))
    monkeypatch.setattr(ineq, "_last", None)
    report = ineq.verify_batch(qs, vectors)
    assert pairs == [30] * 26 and tables == [30]
    assert report.states_checked == 514 and not report.passed
    # a second call on the same list reuses its lane table
    assert ineq.verify_batch(qs, vectors).to_json() == report.to_json()
    assert pairs == [30] * 52 and tables == [30]


def reference_low(qs, vec):
    """(failures, low) of one vector by ``reference_pair``: low is the first least ratio."""
    failures, low = [], None
    for q in qs:
        ok, lhs, rhs = reference_pair(q, vec)
        if low is None or lhs * low[1] < low[0] * rhs:
            low = (lhs, rhs)
        if not ok:
            failures.append((q.name, lhs, rhs))
    return failures, low


def unmemoised(qs, vectors):
    """Every (state, inequality) pair evaluated: (violations, min_slack) as before memoisation."""
    violations, low = [], None
    for k, vec in enumerate(vectors):
        for q in qs:
            ok, lhs, rhs = reference_pair(q, vec)
            if low is None or lhs * low[1] < low[0] * rhs:
                low = (lhs, rhs)
            if not ok:
                violations.append(ineq.Violation(k, q.name, lhs, rhs))
    return violations, exact_slack(*low, vectors[0].d)


def exact_slack(lhs, rhs, d):
    """log_d(lhs / rhs) as the float nearest r when lhs / rhs = d^r for a rational r,
    by trial division of d and of the ratio; else the float of the logs."""
    ratio, rates, rest = Fraction(lhs, rhs), set(), d
    for p in range(2, d + 1):
        k = 0
        while rest % p == 0:
            rest, k = rest // p, k + 1
        if k:
            e, x = 0, ratio
            while x.numerator % p == 0 or x.denominator % p == 0:
                x, e = (x / p, e + 1) if x.numerator % p == 0 else (x * p, e - 1)
            rates.add(Fraction(e, k))
    if len(rates) == 1:
        return float(rates.pop())
    return (math.log(lhs) - math.log(rhs)) / math.log(d)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 2), (6, 1), (6, 2)])
@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_verify_batch_matches_unmemoised_reference(d, n, kind, corpus):
    # the same violations in state order, and a bit-identical min_slack
    qs = ineq.instances("ssa", n) + ineq.instances("monotonicity", n)
    qs += [ineq.Inequality(n, {mask: 1}) for mask in range(1, 1 << n)]
    vectors = [entropy_vector(st, kind) for st in corpus(d, n)]
    violations, min_slack = unmemoised(qs, vectors)
    report = ineq.verify_batch(qs, vectors)
    assert report.min_slack == min_slack
    assert report.violations == violations and report.violation_count == len(violations)
    assert report.passed == (not violations) and report.states_checked == len(vectors)
    assert json.loads(report.to_json())["violations"] == [
        {"state": v.state_id, "inequality": v.inequality, "lhs": str(v.lhs), "rhs": str(v.rhs)} for v in violations
    ]


def every_family(n):
    qs = []
    for family in ineq.FAMILIES:
        try:
            qs += ineq.instances(family, n)
        except ValueError:
            continue  # zhang_yeung is defined at n = 4 only
    return qs


@pytest.mark.parametrize("d,n,step", [(2, 4, 25), (6, 2, 1)])
@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_kernel_matches_independent_reference(d, n, step, kind, corpus):
    qs = every_family(n)
    if n == 4:
        assert {q.name.split("(")[0] for q in qs} == set(ineq.FAMILIES)
    vectors = [entropy_vector(st, kind) for st in corpus(d, n)[::step]]
    distinct = list({vec.orders: vec for vec in vectors}.values())
    for vec in distinct:
        failures, low = reference_low(qs, vec)
        assert ineq._evaluate(qs, vec) == (failures, low)
        assert [single(q, vec) for q in qs] == [reference_pair(q, vec) for q in qs]
    violations, min_slack = unmemoised(qs, vectors)
    report = ineq.verify_batch(qs, vectors)
    assert report.min_slack == min_slack
    assert report.violations == violations


_ORDERS: dict = {}


def distinct_vectors(corpus, d, n, kind):
    """Every distinct entropy vector of ``kind`` among the states at (d, n)."""
    if (d, n) not in _ORDERS:
        ps = PhaseSpace(n, d)
        _ORDERS[(d, n)] = list(dict.fromkeys(subsystem_orders(ps, st.M) for st in corpus(d, n)))
    return [vector_from_orders(PhaseSpace(n, d), orders, kind) for orders in _ORDERS[(d, n)]]


def with_singletons(n):
    """Every family at n, and c S_I >= 0 for each mask and c in (1, -1, 3): some instance at every n."""
    return every_family(n) + [ineq.Inequality(n, {m: c}, f"{c}S({m})") for m in range(1, 1 << n) for c in (1, -1, 3)]


@pytest.mark.parametrize("d,n,count", [(2, 4, 175), (9, 2, None), (12, 1, None), (30, 1, None)])
@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_kernel_matches_reference_on_every_distinct_vector(d, n, count, kind, corpus):
    # (9, 2): an odd prime power; (12, 1) and (30, 1): two and three primes
    qs = with_singletons(n)
    vectors = distinct_vectors(corpus, d, n, kind)
    assert count is None or len(vectors) == count
    for vec in vectors:
        assert ineq._evaluate(qs, vec) == reference_low(qs, vec)


@pytest.mark.parametrize("d,n", [(6, 2), (12, 2), (30, 2), (9, 2), (8, 3)])
@pytest.mark.parametrize("kind", [QUANTUM, CLASSICAL])
def test_kernel_matches_reference_on_random_orders(d, n, kind):
    # orders need not come from a state here: any divisor of d^|I| takes every
    # sign pattern of a - b across the primes of d
    rng = random.Random(d * 100 + n)
    ps, masks = PhaseSpace(n, d), range(1, 1 << n)
    divisors = [[o for o in range(1, d ** subset_size(m) + 1) if d ** (2 * subset_size(m)) % o == 0] for m in masks]
    qs = [ineq.Inequality(n, {m: rng.randint(-3, 3) or 1 for m in rng.sample(masks, 3)}, f"q{j}") for j in range(40)]
    qs += [qs[0], qs[5]]  # repeated members keep their own lanes
    for _ in range(60):
        vec = vector_from_orders(ps, tuple(rng.choice(divs) for divs in divisors), kind)
        assert ineq._evaluate(qs, vec) == reference_low(qs, vec)


def test_kernel_factors_orders_over_many_primes():
    # d = 2 3 5 7 11 13: an order is factored by its own divisions, with no table of the
    # divisors of d^(2|I|) (7^6 of them at |I| = 3)
    d, n = 30030, 3
    rng = random.Random(d)
    primes, masks = (2, 3, 5, 7, 11, 13), range(1, 1 << n)
    qs = [ineq.Inequality(n, {m: rng.randint(-3, 3) or 1 for m in rng.sample(masks, 3)}, f"q{j}") for j in range(30)]
    for kind in (QUANTUM, CLASSICAL):
        for _ in range(10):
            orders = tuple(math.prod(p ** rng.randint(0, subset_size(m)) for p in primes) for m in masks)
            vec = vector_from_orders(PhaseSpace(n, d), orders, kind)
            assert ineq._evaluate(qs, vec) == reference_low(qs, vec)
    for order in (17, 2**3, 0):  # another prime; 2^3 beyond 2^(2|I|) = 4; not an order
        vec = stabilizer.EntropyVector(1, d, QUANTUM, (order,))
        with pytest.raises(ValueError, match="does not divide"):
            ineq._evaluate([ineq.Inequality(1, {1: 1})], vec)


def test_kernel_least_ratio_is_exact_at_a_near_tie():
    # S = (log_6 3, log_6 2, 0): 306 S_1 - 485 S_2 = log_6(3^306 / 2^485), about -6e-4, is the
    # least, just below S_12 = 0; a sum of rounded logs with 2^16 steps orders the two the other way
    vec = vector_from_orders(PhaseSpace(2, 6), (2, 3, 36), QUANTUM)
    near, zero = ineq.Inequality(2, {1: 306, 2: -485}, "near"), ineq.Inequality(2, {3: 1}, "zero")
    for qs in ([near, zero], [zero, near]):
        failures, low = ineq._evaluate(qs, vec)
        assert (failures, low) == reference_low(qs, vec)
        assert [f[0] for f in failures] == ["near"] and low == failures[0][1:]


@pytest.mark.parametrize("d", [2, 4, 6, 9])
def test_kernel_lanes_hold_the_largest_exponents(d):
    # every order at its largest: |M_I| = d^|I| (quantum), d^(2|I|) (classical, trivial M)
    ps = PhaseSpace(2, d)
    vectors = [
        vector_from_orders(ps, (d, d, d * d), QUANTUM),
        vector_from_orders(ps, (1, 1, 1), CLASSICAL),
    ]
    for c in (1, 40, 80, 1000):
        qs = [
            ineq.Inequality(2, nu, str(nu))
            for nu in ({3: c}, {3: -c}, {1: c, 2: c, 3: -c}, {1: -c, 3: c}, {1: c, 2: -c}, {1: -c, 2: -c, 3: -c})
        ]
        for vec in vectors:
            assert ineq._evaluate(qs, vec) == reference_low(qs, vec)


def test_kernel_lanes_wider_than_64_bits(corpus):
    # a huge coefficient only on masks of order 1 (S = |I| there), so lhs and rhs stay small
    vectors = [v for d in (2, 6) for v in distinct_vectors(corpus, d, 2, QUANTUM) if v.orders[:2] == (1, 1)]
    assert {v.d for v in vectors} == {2, 6}
    for big in (2**40, 10**30):
        qs = [
            ineq.Inequality(2, {1: big, 2: -big, 3: 1}, "tight"),
            ineq.Inequality(2, {1: big, 2: -big - 1}, "fails"),
            ineq.Inequality(2, {1: -big, 2: big, 3: -1}, "tight again"),
            ineq.Inequality(2, {3: 1}, "held"),
        ]
        for vec in vectors:
            assert ineq._evaluate(qs, vec) == reference_low(qs, vec)
            assert [single(q, vec) for q in qs] == [reference_pair(q, vec) for q in qs]
            assert ineq._evaluate(qs, vec)[0][0][0] == "fails"
        if big == 10**30:
            assert ineq._table(qs, 6).w > 8


def test_kernel_rejects_an_order_that_does_not_divide():
    vec = stabilizer.EntropyVector(1, 2, QUANTUM, (3,))
    with pytest.raises(ValueError, match="does not divide"):
        ineq._evaluate([ineq.Inequality(1, {1: 1})], vec)


def test_inequality_coefficients_are_read_only():
    nu = {1: 1, 3: -1}
    q = ineq.Inequality(2, nu, "q")
    nu[1] = 5  # the caller's dict is copied
    assert dict(q.nu) == {1: 1, 3: -1}
    with pytest.raises(TypeError):
        q.nu[1] = 2
    with pytest.raises(TypeError):
        del q.nu[3]


def test_only_the_last_lane_table_is_kept():
    vec = maximally_entangled()
    refs = []
    for m in (1, 2, 3) * 20:  # a fresh list, of fresh members, on every call
        q = ineq.Inequality(2, {m: 1})
        refs.append(weakref.ref(q))
        assert ineq.verify_batch([q, q], [vec]).passed
        del q
    gc.collect()
    assert [r() is None for r in refs] == [True] * 59 + [False]
    last = ineq._table([refs[-1]()] * 2, 2)
    assert ineq._table([refs[-1]()] * 2, 2) is last  # the same members again: a hit
    assert ineq._table([refs[-1]()], 2) is not last  # a different list length
    assert ineq._table([refs[-1]()], 3) is not ineq._table([refs[-1]()], 2)  # another d
    last = ineq._table([refs[-1]()], 2)
    assert ineq._table([refs[-1]()], 2) is last  # the same one-member list again: a hit


def test_equally_named_lists_with_different_coefficients_get_their_own_verdicts():
    vec = maximally_entangled()  # S = (1, 1, 0)
    common = ineq.Inequality(2, {1: 1}, "common")
    held, failed = ineq.Inequality(2, {2: 1}, "q"), ineq.Inequality(2, {3: 1, 1: -1}, "q")
    assert held == failed  # Inequality equality ignores nu, so no cache may rely on it
    # the same length and first member: the cache must compare every member
    for _ in range(2):  # the second round evaluates lists whose tables were built before
        reports = [ineq.verify_batch(qs, [vec]) for qs in ([held], [failed], [common, held], [common, failed])]
        assert [(r.passed, r.min_slack) for r in reports] == [(True, 1.0), (False, -1.0)] * 2


def maximally_entangled():
    """The quantum vector of <XX, ZZ> at (2, 2): |M_1| = |M_2| = 1, |M_12| = 4, so S = (1, 1, 0)."""
    ps = PhaseSpace(2, 2)
    M = Subgroup.from_generators([[1, 0, 1, 0], [0, 1, 0, 1]], 2, 4)
    vec = entropy_vector(StabilizerState(ps, M), QUANTUM)
    assert vec.orders == (1, 1, 4)
    return vec


def test_kernel_minimum_is_a_holding_pair():
    vec = maximally_entangled()
    # S_12 + S_1 = 1 as (8, 4) and S_1 = 1 as (2, 1): equal ratios, the first is kept
    wide, narrow = ineq.Inequality(2, {3: 1, 1: 1}, "wide"), ineq.Inequality(2, {1: 1}, "narrow")
    twice = ineq.Inequality(2, {1: 2}, "twice")
    for qs, low in (([twice, wide, narrow], (8, 4)), ([twice, narrow, wide], (2, 1))):
        assert ineq._evaluate(qs, vec) == reference_low(qs, vec) == ([], low)
        assert ineq.verify_batch(qs, [vec]).min_slack == unmemoised(qs, [vec])[1]
    # log_2(8/4) and log_2(2/1) are both exactly 1.0; the float of the logs differed in the last bit
    assert ineq.verify_batch([wide], [vec]).min_slack == ineq.verify_batch([narrow], [vec]).min_slack == 1.0


def test_kernel_first_violation_follows_a_tight_pair():
    vec = maximally_entangled()
    tight = ineq.Inequality(2, {1: 1, 2: -1}, "tight")  # S_1 - S_2 = 0
    mono = ineq.monotonicity(2, 1, 2)  # S_12 - S_1 = -1
    worse = ineq.Inequality(2, {3: 2, 1: -2}, "worse")  # -2
    held = ineq.Inequality(2, {1: 1}, "held")
    qs = [held, tight, mono, held, worse, tight]
    failures, low = ineq._evaluate(qs, vec)
    assert (failures, low) == reference_low(qs, vec)
    assert failures == [(mono.name, 2, 4), ("worse", 4, 16)] and low == (4, 16)
    report = ineq.verify_batch(qs, [vec, vec])
    violations, min_slack = unmemoised(qs, [vec, vec])
    assert report.violations == violations and report.min_slack == min_slack == -2.0


def test_kernel_keeps_repeated_coefficients_under_each_name():
    vec = maximally_entangled()
    nu = ineq.monotonicity(2, 1, 2).nu
    qs = [
        ineq.Inequality(2, dict(nu), "a"),
        ineq.Inequality(2, {1: 1}, "held"),
        ineq.Inequality(2, dict(nu), "b"),
        ineq.Inequality(2, {1: 1}, "held again"),
    ]
    failures, low = ineq._evaluate(qs, vec)
    assert (failures, low) == reference_low(qs, vec)
    assert failures == [("a", 2, 4), ("b", 2, 4)]
    assert ineq.verify_batch(qs, [vec]).violations == unmemoised(qs, [vec])[0]


def test_mutual_information_helpers():
    nu = {}
    ineq.mutual_information(nu, 1, 2)
    assert nu == {1: 1, 2: 1, 3: -1}
    nu = {}
    ineq.conditional_mutual_information(nu, 1, 2, 0)
    assert nu == {1: 1, 2: 1, 3: -1}
    nu = {}
    ineq.conditional_mutual_information(nu, 1, 2, 4)
    assert nu == {5: 1, 6: 1, 4: -1, 7: -1}
