"""The package surface that the benchmark harness in ``perfbench/`` reads.

The harness is run outside the test suite, so a change to a name it uses
(``EntropyVector.entries``, ``Violation.inequality``, ...) would otherwise
pass here and fail only in a benchmark run.  One checked pass of the
ineq-random workload covers that surface.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_ineq_random_pass_checks_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import worker

    workload = worker.IneqRandom(1)
    out = workload.run_pass()
    tally = worker.Tally()
    workload.check(out, tally)
    assert tally.attempted == len(workload.items)
    assert tally.failed == 0, tally.errors
