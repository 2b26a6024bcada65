"""The package surface that the benchmark harness in ``perfbench/`` reads.

The harness is run outside the test suite, so a change to a name it uses
(``EntropyVector.entries``, ``Violation.inequality``, ...) would otherwise
pass here and fail only in a benchmark run.  One checked pass of the
ineq-random and of the gaussian-search workload covers that surface.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import worker

    return worker


def test_ineq_random_pass_checks_clean(monkeypatch):
    worker = import_worker(monkeypatch)
    workload = worker.IneqRandom(1)
    out = workload.run_pass()
    tally = worker.Tally()
    workload.check(out, tally)
    assert tally.attempted == len(workload.items)
    assert tally.failed == 0, tally.errors


def test_gaussian_search_pass_checks_clean(monkeypatch):
    from entrokit import gaussian as gsn

    worker = import_worker(monkeypatch)
    workload = worker.GaussianSearch(1)
    # the traced pass wraps ingleton_value; the search must call it by its module name
    monkeypatch.setattr(gsn, "ingleton_value", gsn.ingleton_value)
    workload.count_candidates()
    out = workload.run_pass()
    tally = worker.Tally()
    workload.check(out, tally)
    assert tally.attempted == workload.SEARCHES + len(workload.fixtures)
    assert tally.failed == 0, tally.errors
    assert workload.candidates > workload.ITERATIONS
