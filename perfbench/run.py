"""entrokit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing.  One workload runs per call.
All load comes from this process, which starts one child at a time and reaps
each with ``wait4`` to read that child's own peak RSS.

``--trace 0`` runs timed passes for about S seconds and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one cProfile-traced pass and
reports the per-layer metrics.  Every output is checked; the last line printed
is the JSON result, the line before it the run's metadata.  BENCHMARK.json
lists the workloads and metrics; README.md in this directory says why.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import layers
from worker import Tally, timed_passes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "entrokit")

WORKLOADS = ("corpus-cli", "ineq-random", "oracle-check", "gaussian-search")
SETUP_REPS = 7
DEADLINE_S = 170
BLAS_THREADS = 1

CORPUS_SIZES = ((2, 3), (4, 2), (6, 2))
ORACLE_SIZES = ((3, 2), (4, 2), (2, 3))
HOLDING = ("ssa", "weak_monotonicity")


def verify_plan(n: int) -> list[tuple[str, str]]:
    """(family, kind) of each verify call; weak monotonicity has no instance below n = 3."""
    plan = [("ssa", "quantum")]
    if n >= 3:
        plan.append(("weak_monotonicity", "quantum"))
    return plan + [("monotonicity", "quantum"), ("ssa", "classical")]


class Children:
    """Starts one child at a time and reaps it with wait4 for its peak RSS."""

    def __init__(self, env: dict, cwd: str):
        self.env, self.cwd = env, cwd
        self.current: subprocess.Popen | None = None

    def start(self, argv: list[str], stdout) -> subprocess.Popen:
        self.current = subprocess.Popen(argv, env=self.env, cwd=self.cwd, stdout=stdout)
        return self.current

    def reap(self) -> tuple[int, float]:
        """Exit code and peak RSS in MB of the current child."""
        p = self.current
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.stdout:
            p.stdout.close()
        self.current = None
        return p.returncode, usage.ru_maxrss / 1024

    def run(self, argv: list[str]) -> tuple[int, float]:
        """Exit code and peak RSS in MB of one child run to completion."""
        self.start(argv, subprocess.DEVNULL)
        return self.reap()

    def stop(self) -> None:
        if self.current is not None:
            self.current.kill()
            self.reap()


class Bench:
    def __init__(self, args, kids: Children, workdir: str):
        self.args, self.kids = args, kids
        self.passdir = os.path.join(workdir, "pass")
        self.profdir = os.path.join(workdir, "prof")
        os.makedirs(self.profdir)
        self.tally = Tally()
        self.info: dict = {}
        self.peak_rss = 0.0
        self.profiles = 0

    # --- children -------------------------------------------------------

    def start_worker(self, mode: str, *extra: str) -> tuple[subprocess.Popen, float]:
        """Start a worker; return it and its set-up time (start to ready line)."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--mode", mode, *extra]
        t0 = time.perf_counter()
        p = self.kids.start(argv, subprocess.PIPE)
        line = p.stdout.readline()
        setup = time.perf_counter() - t0
        if not line:
            rc, _ = self.kids.reap()
            raise RuntimeError(f"worker exited with code {rc} before its inputs were ready")
        self.info.update({k: v for k, v in json.loads(line).items() if k != "event"})
        return p, setup

    def finish_worker(self, p: subprocess.Popen) -> tuple[dict | None, float]:
        """The worker's result line (None after set-up only) and its peak RSS."""
        lines = p.stdout.read().splitlines()
        rc, rss = self.kids.reap()
        if rc != 0:
            raise RuntimeError(f"worker exited with code {rc}")
        return (json.loads(lines[-1]) if lines else None), rss

    def setup_times(self, reps: int) -> list[float]:
        times = []
        for _ in range(reps):
            p, setup = self.start_worker("setup")
            self.finish_worker(p)
            times.append(setup)
        return times

    def cli(self, args: list, traced: bool) -> tuple[int, float]:
        if traced:
            self.profiles += 1
            prof = os.path.join(self.profdir, f"{self.profiles}.prof")
            argv = [sys.executable, os.path.join(HERE, "profcli.py"), prof]
        else:
            argv = [sys.executable, "-m", "entrokit.cli"]
        return self.kids.run(argv + [str(a) for a in args])

    # --- CLI workloads ----------------------------------------------------

    def corpus_pass(self, traced: bool) -> tuple[float, list[dict]]:
        """enumerate, then verify, for each size: separate CLI calls."""
        os.makedirs(self.passdir)
        calls = []
        t0 = time.perf_counter()
        for d, n in CORPUS_SIZES:
            corpus = os.path.join(self.passdir, f"corpus_d{d}_n{n}.json")
            rc, rss = self.cli(["enumerate", "--d", d, "--n", n, "--out", corpus], traced)
            calls.append({"op": "enumerate", "d": d, "n": n, "rc": rc, "rss": rss, "corpus": corpus})
            for family, kind in verify_plan(n):
                report = os.path.join(self.passdir, f"report_d{d}_n{n}_{family}_{kind}.json")
                rc, rss = self.cli(
                    ["verify", "--corpus", corpus, "--family", family, "--kind", kind, "--out", report], traced
                )
                calls.append({"op": "verify", "d": d, "n": n, "rc": rc, "rss": rss, "corpus": corpus,
                              "family": family, "kind": kind, "report": report})
        return time.perf_counter() - t0, calls

    def check_corpus_pass(self, calls: list[dict]) -> dict:
        figures = {"violations": 0, "bytes_written": 0, "bytes_read": 0, "enumerate_rss": 0.0, "verify_rss": 0.0}
        corpora = {}
        for call in calls:
            size = os.path.getsize(call["corpus"]) if os.path.exists(call["corpus"]) else 0
            figures[call["op"] + "_rss"] = max(figures[call["op"] + "_rss"], call["rss"])
            if call["op"] == "enumerate":
                figures["bytes_written"] += size
                orders, errors = checks.check_corpus(call["corpus"], call["d"], call["n"])
                if call["rc"] != 0:
                    errors.insert(0, f"enumerate exited with code {call['rc']}")
                corpora[call["corpus"]] = None if errors else orders
                self.tally.record(errors)
                continue
            figures["bytes_read"] += size
            orders = corpora.get(call["corpus"])
            if orders is None:
                self.tally.record(["verify input corpus failed its checks"])
                continue
            expected = 0
            if call["family"] not in HOLDING:
                expected = sum(checks.monotonicity_violations(o, call["n"], call["d"]) for o in orders)
            figures["violations"] += expected
            errors = checks.check_report(call["report"], len(orders), expected)
            if call["rc"] != (1 if expected else 0):
                errors.insert(0, f"verify --family {call['family']} exited with code {call['rc']}")
            self.tally.record(errors)
        return figures

    def oracle_pass(self, traced: bool) -> tuple[float, list[dict]]:
        os.makedirs(self.passdir)
        calls = []
        t0 = time.perf_counter()
        for d, n in ORACLE_SIZES:
            report = os.path.join(self.passdir, f"oracle_d{d}_n{n}.json")
            rc, rss = self.cli(["oracle-check", "--d", d, "--n", n, "--out", report], traced)
            calls.append({"d": d, "n": n, "rc": rc, "rss": rss, "report": report})
        return time.perf_counter() - t0, calls

    def check_oracle_pass(self, calls: list[dict]) -> dict:
        for call in calls:
            errors = checks.check_oracle_report(call["report"], call["d"], call["n"])
            if call["rc"] != 0:
                errors.insert(0, f"oracle-check exited with code {call['rc']}")
            self.tally.record(errors)
        return {}

    def cli_workload(self) -> dict:
        setups = self.setup_times(SETUP_REPS)
        run_pass, check = {
            "corpus-cli": (self.corpus_pass, self.check_corpus_pass),
            "oracle-check": (self.oracle_pass, self.check_oracle_pass),
        }[self.args.workload]

        def checked(calls: list[dict]) -> dict:
            self.peak_rss = max([self.peak_rss] + [c["rss"] for c in calls])
            figures = check(calls)
            shutil.rmtree(self.passdir)
            return figures

        if not self.args.trace:
            walls = timed_passes(lambda: run_pass(False)[1], checked, self.args.seconds)
            return self.end_to_end(walls, setups, self.peak_rss)
        untraced, calls = run_pass(False)
        figures = checked(calls)
        traced, calls = run_pass(True)
        checked(calls)
        extra = {
            "violations": figures.get("violations", 0),
            "cli.startup_s": statistics.median(setups),
            "cli.enumerate.peak_rss_mb": figures.get("enumerate_rss", 0.0),
            "cli.verify.peak_rss_mb": figures.get("verify_rss", 0.0),
            "cli.corpus.bytes_written": figures.get("bytes_written", 0),
            "cli.corpus.bytes_read": figures.get("bytes_read", 0),
        }
        return self.per_layer(untraced, traced, extra)

    # --- in-process workloads ---------------------------------------------

    def worker_workload(self) -> dict:
        setups = self.setup_times(SETUP_REPS - 1)
        if not self.args.trace:
            p, setup = self.start_worker("measure", "--seconds", str(self.args.seconds))
            result, rss = self.finish_worker(p)
            self.merge(result)
            return self.end_to_end(result["pass_s"], setups + [setup], rss)
        profile = os.path.join(self.profdir, "worker.prof")
        p, setup = self.start_worker("trace", "--profile", profile)
        result, _ = self.finish_worker(p)
        self.merge(result)
        extra = {k: result[k] for k in ("violations", "candidates", "rejected", "mc_samples") if k in result}
        return self.per_layer(result["untraced_s"], result["traced_s"], extra)

    def merge(self, result: dict) -> None:
        self.tally.attempted += result["attempted"]
        self.tally.failed += result["failed"]
        self.tally.errors += result["errors"]

    # --- metrics ------------------------------------------------------------

    def end_to_end(self, walls: list[float], setups: list[float], rss: float) -> dict:
        """wall_s is the timed phase's wall time per pass (see README.md for why
        not the median pass, which the metadata line gives)."""
        self.info.update(
            samples=len(walls), pass_s=walls, pass_median_s=statistics.median(walls), setup_samples_s=setups
        )
        return {"wall_s": sum(walls) / len(walls), "setup_s": statistics.median(setups), "peak_rss_mb": rss}

    def per_layer(self, untraced: float, traced: float, extra: dict) -> dict:
        prof = layers.Profile(glob.glob(os.path.join(self.profdir, "*.prof")), PKG)
        extra["cli.import_s"] = 0.0
        for path in glob.glob(os.path.join(self.profdir, "*.import_s")):
            with open(path) as fh:
                extra["cli.import_s"] += float(fh.read())
        extra["trace.overhead_frac"] = traced / untraced - 1
        extra["src.lines"] = src_lines()
        self.info.update(untraced_s=untraced, traced_s=traced)
        return layers.per_layer(prof, traced, extra)

    def run(self) -> dict:
        if self.args.workload in ("corpus-cli", "oracle-check"):
            return self.cli_workload()
        return self.worker_workload()


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
    )
    env.pop("ENTROKIT_OUTPUT_DIR", None)
    return env


def on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        print(f"error: no package source at {PKG}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    sys.setrecursionlimit(10000)  # layers.py follows caller chains recursively
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    load_before = os.getloadavg()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    kids = Children(child_env(), workdir)
    bench = Bench(args, kids, workdir)
    try:
        metrics = bench.run()
    finally:
        signal.alarm(0)
        kids.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = {m["name"] for m in spec} ^ set(metrics)
    if mismatch:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1
    tally = bench.tally
    meta = dict(
        bench.info,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        failed_frac=tally.failed / max(tally.attempted, 1),
        errors=tally.errors[:20],
        blas_threads=BLAS_THREADS,
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        src_lines=src_lines(),
    )
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": tally.attempted > 0 and tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
