"""Call audit: which functions under src/ no program path reaches.

    python3 tools/call_audit.py

Run from the root of a source checkout, with Python 3.11 or later (it keys
functions by ``co_qualname``).  Under ``sys.setprofile`` it runs
``entrokit.cli.main`` over every subcommand (enumerate, verify with every
family in both kinds, ``--balanced-only`` and an ``--inequality`` file,
oracle-check, gaussian verify, mc and ingleton-search), then one checked pass
each of perfbench's in-process workloads, ineq-random and gaussian-search.
perfbench is imported, never written: no bytecode is cached.  Every output
goes to a temporary directory.  ingleton and zhang_yeung have no instance on
the 3-party corpus, so those verify calls exit 2; ineq-random verifies both
families at n = 4 and 5.

It prints one JSON object: the number of functions defined under src/, the
number reached, the exit code of each CLI call, the failures the perfbench
checks counted, and ``unreached``, every function (``module.qualname``) that
none of these runs called.  A name listed there is used, if at all, only by
tests.  The audit takes a few seconds and is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "entrokit")
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
FAMILIES = ("monotonicity", "ssa", "weak_monotonicity", "ingleton", "zhang_yeung")
SSA_3 = (  # two strong-subadditivity instances on 3 parties, as JSON lines
    '{"n": 3, "name": "ssa(12, 23)", "nu": {"3": 1, "6": 1, "2": -1, "7": -1}}',
    '{"n": 3, "name": "ssa(1, 2)", "nu": {"1": 1, "2": 1, "3": -1}}',
)


def defined() -> dict[tuple[str, str], str]:
    """(file, qualname) -> module.qualname of every named function under src/entrokit
    (class bodies, which run at import, are not functions)."""
    out = {}
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        with open(path) as fh:
            codes = [compile(fh.read(), path, "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                out[path, code.co_qualname] = f"entrokit.{name[:-3]}.{code.co_qualname}"
    return out


def cli_runs(tmp: str) -> list[list[str]]:
    """Every subcommand, with the files each later call reads written by an earlier one."""
    runs = []
    for d, n in ((2, 3), (4, 2), (6, 2), (3, 2)):
        runs.append(["enumerate", "--d", str(d), "--n", str(n), "--out", f"{tmp}/corpus_d{d}_n{n}.json"])
    corpus = f"{tmp}/corpus_d2_n3.json"
    for family in FAMILIES:
        for kind in ("quantum", "classical"):
            runs.append(["verify", "--corpus", corpus, "--family", family, "--kind", kind,
                         "--out", f"{tmp}/report_{family}_{kind}.json"])
    runs.append(["verify", "--corpus", f"{tmp}/corpus_d4_n2.json", "--family", "ssa",
                 "--balanced-only", "--out", f"{tmp}/report_balanced.json"])
    with open(f"{tmp}/ssa.jsonl", "w") as fh:
        fh.write("\n".join(SSA_3) + "\n")
    runs.append(["verify", "--corpus", corpus, "--inequality", f"{tmp}/ssa.jsonl", "--out", f"{tmp}/report_file.json"])
    for d, n in ((3, 2), (4, 2), (2, 3)):
        runs.append(["oracle-check", "--d", str(d), "--n", str(n), "--out", f"{tmp}/oracle_d{d}_n{n}.json"])
    runs.append(["gaussian", "verify", "--seed", "3", "--out", f"{tmp}/gaussian_verify.json"])
    for fixture in ("vacuum", "thermal", "correlated"):
        runs.append(["gaussian", "mc", "--fixture", fixture, "--samples", "20000", "--seed", "1",
                     "--out", f"{tmp}/mc_{fixture}.json"])
    runs.append(["gaussian", "ingleton-search", "--seed", "11", "--iters", "3000", "--out", f"{tmp}/search.json"])
    return runs


def perfbench_passes() -> dict[str, int]:
    """One checked pass of each in-process perfbench workload: name -> failures counted."""
    import worker

    failed = {}
    for name, cls in worker.IN_PROCESS.items():
        work, tally = cls(1), worker.Tally()
        work.check(work.run_pass(), tally)
        failed[name] = tally.failed
    return failed


def audit() -> dict:
    functions = defined()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    rcs = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = cli_runs(tmp)
        sys.setprofile(profile)  # before the package is imported, so import-time calls count
        try:
            cli = importlib.import_module("entrokit.cli")
            assert cli.ineq.FAMILIES == FAMILIES, "the families changed: update FAMILIES"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for argv in runs:
                    rcs[" ".join(os.path.basename(a) for a in argv[:-2])] = cli.main(argv)  # less --out
            failed = perfbench_passes()
        finally:
            sys.setprofile(None)
    seen = reached & functions.keys()
    return {
        "functions": len(functions),
        "reached": len(seen),
        "cli_exit_codes": rcs,
        "perfbench_failures": failed,
        "unreached": sorted(functions[key] for key in functions.keys() - seen),
    }


if __name__ == "__main__":
    print(json.dumps(audit(), indent=1))
