"""Value semantics of the package's plain value classes: equality, hash,
immutability, validation errors and repr."""

import copy
import math
import pickle

import numpy as np
import pytest

from entrokit import gaussian as gsn
from entrokit import inequalities as ineq
from entrokit.phasespace import PhaseSpace
from entrokit.stabilizer import CLASSICAL, QUANTUM, EntropyVector
from entrokit.value import Value
from entrokit.zmod import Subgroup


def test_subgroup_equality_and_hash_follow_the_basis_only():
    S = Subgroup.from_generators([[1, 0, 0, 1]], 2, 4)
    fresh = Subgroup(2, 4, S.basis)
    S.generators()  # fills S's generator cache, not fresh's
    assert S == fresh and hash(S) == hash(fresh)
    assert Subgroup(2, 4, S.basis, tuple(S.generators())) == fresh
    assert S != Subgroup.from_generators([[1, 0, 0, 0]], 2, 4)
    assert len({S, fresh, Subgroup(2, 4, S.basis)}) == 1


def test_entropy_vector_equality_and_hash_follow_n_d_kind_and_orders():
    vec = EntropyVector(2, 2, QUANTUM, (2, 2, 4))
    assert vec == EntropyVector(2, 2, QUANTUM, (2, 2, 4))
    assert hash(vec) == hash(EntropyVector(2, 2, QUANTUM, (2, 2, 4)))
    for other in (
        EntropyVector(2, 2, QUANTUM, (2, 2, 2)),
        EntropyVector(2, 2, CLASSICAL, (2, 2, 4)),
        EntropyVector(2, 4, QUANTUM, (2, 2, 4)),
        EntropyVector(1, 2, QUANTUM, (2,)),
    ):
        assert vec != other


def test_phase_space_and_inequality_equality():
    assert PhaseSpace(2, 3) == PhaseSpace(2, 3) and hash(PhaseSpace(2, 3)) == hash(PhaseSpace(2, 3))
    assert PhaseSpace(2, 3) != PhaseSpace(3, 2)
    assert (PhaseSpace(2, 3).m, PhaseSpace(2, 3).full_mask) == (4, 3)
    # an inequality's equality and hash ignore its coefficients
    a, b = ineq.Inequality(2, {1: 1}, "q"), ineq.Inequality(2, {2: 1}, "q")
    assert a == b and hash(a) == hash(b)
    assert a != ineq.Inequality(2, {1: 1}, "r") and a != ineq.Inequality(3, {1: 1}, "q")
    assert a.size_weight == 1 and ineq.Inequality(2, {3: 2, 1: -1}).size_weight == 3


def test_classes_of_different_types_never_compare_equal():
    assert PhaseSpace(2, 2) != (2, 2)
    assert ineq.Violation(0, "q", 1, 2) != (0, "q", 1, 2)


def immutable_values():
    return [
        Subgroup.from_generators([[1, 0]], 2, 2),
        PhaseSpace(1, 2),
        EntropyVector(1, 2, QUANTUM, (2,)),
        ineq.Inequality(1, {1: 1}),
        gsn.GaussianState.vacuum(1),
    ]


@pytest.mark.parametrize("value", immutable_values(), ids=lambda v: type(v).__name__)
def test_setting_or_deleting_a_field_raises(value):
    name = value._fields[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("value", immutable_values(), ids=lambda v: type(v).__name__)
def test_copy_and_pickle_restore_every_slot(value):
    twins = [copy.copy(value)]
    if not isinstance(value, ineq.Inequality):  # its read-only nu cannot be pickled, as before
        twins += [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    for twin in twins:
        assert type(twin) is type(value) and repr(twin) == repr(value)
        assert [type(getattr(twin, s)) for s in value.__slots__] == [type(getattr(value, s)) for s in value.__slots__]


def test_mutable_records_are_unhashable_and_compare_by_fields():
    v = ineq.Violation(3, "q", 1, 2)
    assert v == ineq.Violation(3, "q", 1, 2) and v != ineq.Violation(3, "q", 1, 3)
    v.lhs = 3
    assert v == ineq.Violation(3, "q", 3, 2)
    report = ineq.VerificationReport("r")
    assert (report.min_slack, list(report.vector_ids), report.failures) == (math.inf, [], [])
    assert ineq.VerificationReport("r").failures is not report.failures
    res = gsn.SearchResult(np.eye(2), 0.5, 0.1, 7, 10, False)
    res.found = True
    for record in (v, report, res):
        with pytest.raises(TypeError):
            hash(record)
    assert all(isinstance(x, Value) for x in (v, report, res))


def test_repr_lists_the_fields():
    assert repr(PhaseSpace(2, 3)) == "PhaseSpace(n=2, d=3)"
    assert repr(Subgroup(2, 2, ((1, 0), (0, 2)))) == "Subgroup(d=2, m=2, basis=((1, 0), (0, 2)))"
    assert repr(EntropyVector(1, 2, QUANTUM, (2,))) == "EntropyVector(n=1, d=2, kind='quantum', orders=(2,))"
    assert repr(ineq.Inequality(1, {1: 1}, "x")) == "Inequality(n=1, nu=mappingproxy({1: 1}), name='x')"
    assert repr(ineq.Violation(0, "x", 1, 2)) == "Violation(state_id=0, inequality='x', lhs=1, rhs=2)"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PhaseSpace(0, 2), "need at least one particle, got n=0"),
        (lambda: PhaseSpace(1, 1), "local dimension must be >= 2, got d=1"),
        (lambda: Subgroup.from_generators([[1, 0]], 1, 2), "modulus must be >= 2, got 1"),
        (lambda: Subgroup.from_generators([[1, 0, 0]], 3, 2), "generator of length 3, expected 2"),
        (lambda: Subgroup.from_generators([], 3, 2).contains([1]), "vector of length 1, expected 2"),
        (lambda: EntropyVector(1, 2, "bogus", (2,)), "unknown kind 'bogus'"),
        (lambda: EntropyVector(2, 2, QUANTUM, (2,)), "entropy vector must have one order per nonempty subset"),
        (lambda: ineq.Inequality(2, {1: 0.5}), "coefficients must be integers"),
        (lambda: ineq.Inequality(2, {1: 0}), "inequality must have a nonzero coefficient"),
        (lambda: ineq.Inequality(2, {4: 1}), "subset mask 4 out of range for n=2"),
        (lambda: gsn.GaussianState(1, np.zeros(3), np.eye(2)), "mu must have shape (2,)"),
        (lambda: gsn.GaussianState(1, [0.0, math.nan], np.eye(2)), "mu and sigma must be finite"),
        (lambda: gsn.GaussianState(1, np.zeros(2), np.eye(3)), "sigma must be 2 x 2"),
        (lambda: gsn.GaussianState(1, np.zeros(2), [[1.0, 0.5], [0.0, 1.0]]), "covariance matrix is not symmetric"),
    ],
)
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
