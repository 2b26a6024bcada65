"""Workload child process, started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|measure|trace
        [--seconds S] [--profile PATH]

It imports the package, builds the seeded inputs and prints a ``ready`` line
(run.py times set-up up to that line).  In ``setup`` mode it exits there; the
CLI workloads use only this mode, to measure start-up.  In ``measure`` mode it
runs timed passes over the same inputs for about S seconds; in ``trace`` mode
one untraced pass and one pass under cProfile.  Outputs are checked after each
pass, outside the timed region.  The last line is a JSON ``result``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
import time

import numpy as np

import checks
from gen import random_isotropic, workload_rng


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def timed_passes(run_pass, check, seconds: float) -> list[float]:
    """Run passes until the next one would overrun ``seconds`` of timed work."""
    walls: list[float] = []
    while True:
        t0 = time.perf_counter()
        out = run_pass()
        walls.append(time.perf_counter() - t0)
        check(out)
        if sum(walls) + sorted(walls)[len(walls) // 2] > seconds:
            return walls


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])


class IneqRandom:
    """Random isotropic subgroups through entropy vector and verification.

    250 subgroups at each of (d, n) = (2, 5), (4, 4), (6, 4), alternating pure
    and mixed of random rank; each runs every inequality family defined for
    its arity.
    """

    CONFIGS = ((2, 5), (4, 4), (6, 4))
    PER_CONFIG = 250
    HOLDING = ("ssa", "weak_monotonicity")

    def __init__(self, seed: int):
        from entrokit import inequalities as ineq
        from entrokit.phasespace import PhaseSpace

        rng = workload_rng("ineq-random", seed)
        self.items = []
        for d, n in self.CONFIGS:
            ps = PhaseSpace(n, d)
            qs = []
            for family in ineq.FAMILIES:
                try:
                    qs += [(family, q) for q in ineq.instances(family, n)]
                except ValueError:
                    continue  # family not defined at this arity
            plain = [(family, q.name, dict(q.nu)) for family, q in qs]
            ineqs = [q for _, q in qs]
            for k in range(self.PER_CONFIG):
                gens, order = random_isotropic(rng, d, n, pure=k % 2 == 0)
                self.items.append((d, n, ps, ineqs, plain, gens, order))
        self.reference: list = []

    def run_pass(self) -> list:
        from entrokit.inequalities import verify_batch
        from entrokit.stabilizer import QUANTUM, StabilizerState, entropy_vector
        from entrokit.zmod import Subgroup

        out = []
        for d, n, ps, ineqs, _, gens, _ in self.items:
            try:
                M = Subgroup.from_generators(gens, d, 2 * n)
                vec = entropy_vector(StabilizerState(ps, M), QUANTUM)
                out.append((M.order, vec, verify_batch(ineqs, [vec], "ineq-random")))
            except Exception as exc:  # a failing operation is counted, not fatal
                out.append(exc)
        return out

    @staticmethod
    def _fingerprint(res) -> tuple:
        order, vec, rep = res
        orders = tuple(sorted((m, e.subgroup_order) for m, e in vec.entries.items()))
        return order, orders, rep.states_checked, tuple(v.inequality for v in rep.violations)

    def check(self, out: list, tally: Tally) -> None:
        """Full check on the first pass; later passes must repeat it exactly."""
        first = not self.reference
        for k, (item, res) in enumerate(zip(self.items, out)):
            if isinstance(res, Exception):
                tally.record([f"{type(res).__name__}: {res}"])
                if first:
                    self.reference.append(None)
                continue
            fp = self._fingerprint(res)
            if not first:
                tally.record([] if fp == self.reference[k] else ["output differs from the first pass"])
                continue
            self.reference.append(fp)
            tally.record(self._check_one(item, fp))
        self.violations = sum(len(r[2].violations) for r in out if not isinstance(r, Exception))

    def _check_one(self, item, fp) -> list[str]:
        d, n, _, _, plain, _, order = item
        group_order, orders, states, violated = fp
        orders = dict(orders)
        errors = []
        if group_order != order:
            errors.append(f"|M| = {group_order}, constructed order {order}")
        errors += checks.check_entropy_orders(orders, n, d, order)
        if errors:
            return errors
        if states != 1:
            errors.append(f"verify_batch checked {states} states, expected 1")
        expect = [name for family, name, nu in plain if not checks.holds_exact(nu, orders, d)]
        if sorted(expect) != sorted(violated):
            errors.append(f"{len(violated)} violations reported, exact recount gives {len(expect)}")
        violated = set(violated)
        bad = [name for family, name, _ in plain if family in self.HOLDING and name in violated]
        if bad:
            errors.append(f"valid inequality reported violated: {bad[0]}")
        return errors


class GaussianSearch:
    """Ingleton searches and Monte-Carlo Renyi-2 estimates.

    One search of 5 000 iterations and one 10^6-sample estimate on each of
    the vacuum, thermal and two-mode-squeezed fixtures; all seeds come from
    --seed.  The pass is short, so a run holds several identical passes.
    """

    SEARCHES = 1
    ITERATIONS = 5000
    SAMPLES = 10**6
    violations = 0

    def __init__(self, seed: int):
        from entrokit import gaussian as gsn

        rng = workload_rng("gaussian-search", seed)
        self.seeds = [rng.getrandbits(32) for _ in range(self.SEARCHES + 3)]
        c, s = np.cosh(1.2) / 2, np.sinh(1.2) / 2  # two-mode squeezed vacuum, r = 0.6
        self.fixtures = (
            (0.5 * np.eye(2), 1),
            (np.eye(2), 1),
            (np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]]), 3),
        )
        self.states = [gsn.GaussianState(len(sig) // 2, np.zeros(len(sig)), sig) for sig, _ in self.fixtures]
        self.candidates = self.rejected = 0

    def run_pass(self) -> list:
        from entrokit import gaussian as gsn

        out = []
        for s in self.seeds[: self.SEARCHES]:
            try:
                out.append(gsn.ingleton_search(s, self.ITERATIONS))
            except Exception as exc:  # a failing operation is counted, not fatal
                out.append(exc)
        for g, (_, mask), s in zip(self.states, self.fixtures, self.seeds[self.SEARCHES :]):
            try:
                out.append(gsn.mc_renyi2(g, mask, self.SAMPLES, s))
            except Exception as exc:
                out.append(exc)
        return out

    def check(self, out: list, tally: Tally) -> None:
        searches, estimates = out[: self.SEARCHES], out[self.SEARCHES :]
        for res in searches:
            if isinstance(res, Exception):
                tally.record([f"{type(res).__name__}: {res}"])
                continue
            value, margin = checks.ingleton_certificate(res.sigma)
            errors = [] if res.found else ["search found no certified violation"]
            if not value < -1e-6 or not margin > 1e-6:
                errors.append(f"recertification failed: value {value}, margin {margin}")
            tally.record(errors)
        for res, (sig, _) in zip(estimates, self.fixtures):
            if isinstance(res, Exception):
                tally.record([f"{type(res).__name__}: {res}"])
                continue
            est, se = res
            exact = checks.renyi2_classical_closed_form(sig)
            ok = checks.mc_within_bounds(est, se, exact)
            tally.record([] if ok else [f"MC estimate {est} +- {se} vs closed form {exact}"])

    def count_candidates(self):
        """Wrap ingleton_value to count candidates and the ones it rejects."""
        from entrokit import gaussian as gsn

        inner = gsn.ingleton_value

        def counted(sigma, sigma_vac=0.5):
            self.candidates += 1
            try:
                return inner(sigma, sigma_vac)
            except ValueError:
                self.rejected += 1
                raise

        gsn.ingleton_value = counted


IN_PROCESS = {"ineq-random": IneqRandom, "gaussian-search": GaussianSearch}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--profile")
    args = ap.parse_args()

    import entrokit

    if args.workload not in IN_PROCESS:
        import entrokit.cli  # noqa: F401  (what every CLI call imports)

    src = os.environ.get("PYTHONPATH", "")
    if not os.path.realpath(entrokit.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"entrokit imported from {entrokit.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = IN_PROCESS[args.workload](args.seed) if args.workload in IN_PROCESS else None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    emit(
        {
            "event": "ready",
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        }
    )
    if args.mode == "setup":
        return 0

    tally = Tally()
    result = {"event": "result"}
    if args.mode == "measure":
        result["pass_s"] = timed_passes(work.run_pass, lambda out: work.check(out, tally), args.seconds)
    else:
        t0 = time.perf_counter()
        out = work.run_pass()
        result["untraced_s"] = time.perf_counter() - t0
        work.check(out, tally)
        if isinstance(work, GaussianSearch):
            work.count_candidates()
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.enable()
        out = work.run_pass()
        prof.disable()
        result["traced_s"] = time.perf_counter() - t0
        work.check(out, tally)
        prof.dump_stats(args.profile)
        result["violations"] = work.violations
        if isinstance(work, GaussianSearch):
            result["candidates"], result["rejected"] = work.candidates, work.rejected
            result["mc_samples"] = work.SAMPLES * len(work.fixtures)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors[:20])
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
