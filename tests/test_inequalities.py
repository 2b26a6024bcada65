"""Inequality coefficients, balance, and exact big-integer evaluation."""

import json
import math

import numpy as np
import pytest

from entrokit import inequalities as ineq
from entrokit.phasespace import PhaseSpace
from entrokit.stabilizer import CLASSICAL, QUANTUM, entropy_vector

A, B, C, D = 1, 2, 4, 8


def test_inequality_validation():
    with pytest.raises(ValueError):
        ineq.Inequality(2, {1: 0})
    with pytest.raises(ValueError):
        ineq.Inequality(2, {4: 1})
    with pytest.raises(ValueError):
        ineq.Inequality(2, {0: 1})


def test_json_roundtrip():
    q = ineq.zhang_yeung()
    q2 = ineq.Inequality.from_json(q.to_json())
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


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (4, 1)])
def test_exact_sign_matches_float_sign(d, n, corpus):
    qs = ineq.instances("ssa", n) + ineq.instances("monotonicity", n)
    for st in corpus(d, n):
        for kind in (QUANTUM, CLASSICAL):
            vec = entropy_vector(st, kind)
            for q in qs:
                ok, lhs, rhs = ineq.evaluate_exact(q, vec)
                slack = ineq.evaluate_float(q, lambda mask: vec.entries[mask].value)
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
            _, lq, rq = ineq.evaluate_exact(q, vq)
            _, lc, rc = ineq.evaluate_exact(q, vc)
            assert lq * rc == rq * lc


def test_evaluate_exact_arity_check(corpus):
    st = corpus(2, 2)[0]
    vec = entropy_vector(st, QUANTUM)
    with pytest.raises(ValueError):
        ineq.evaluate_exact(ineq.zhang_yeung(), vec)


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
    floats = [min(ineq.evaluate_float(q, lambda mask: vec.entries[mask].value) for q in qs) for vec in vectors]
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
    calls = []
    evaluate = ineq.evaluate_exact
    monkeypatch.setattr(ineq, "evaluate_exact", lambda q, h: calls.append(q) or evaluate(q, h))
    report = ineq.verify_batch(qs, vectors)
    assert len(calls) == 26 * 30
    assert report.states_checked == 514 and not report.passed


def unmemoised(qs, vectors):
    """Every (state, inequality) pair evaluated: (violations, min_slack) as before memoisation."""
    violations, low = [], None
    for k, vec in enumerate(vectors):
        for q in qs:
            ok, lhs, rhs = ineq.evaluate_exact(q, vec)
            if low is None or lhs * low[1] < low[0] * rhs:
                low = (lhs, rhs)
            if not ok:
                violations.append(ineq.Violation(k, q.name, lhs, rhs))
    return violations, (math.log(low[0]) - math.log(low[1])) / math.log(vectors[0].d)


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
